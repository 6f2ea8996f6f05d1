package kernel_test

// End-to-end hot-path benchmarks (docs/PERF.md): the full per-connection
// kernel lifecycle and the per-SYN reuseport steering decision. CI gates
// both at 0 allocs/op in steady state; regressions here mean a new
// allocation crept onto the connection fast path.

import (
	"testing"

	"hermes/internal/bitops"
	"hermes/internal/core"
	"hermes/internal/kernel"
	"hermes/internal/sim"
)

// BenchmarkConnLifecycle drives one connection through the complete kernel
// fast path — SYN → reuseport steer → accept-queue → epoll wake → accept →
// epoll add → data arrival → readable wake → read → close — against a real
// blocked epoll waiter, exactly as an l7lb worker experiences it. One op is
// one full connection.
func BenchmarkConnLifecycle(b *testing.B) {
	eng := sim.NewEngine(1)
	ns := kernel.NewNetStack(eng, kernel.WakeExclusiveLIFO)
	g, err := ns.ListenReuseport(8080, 1, 64)
	if err != nil {
		b.Fatal(err)
	}
	ep := ns.NewEpoll()
	ep.Add(g.Sockets()[0])

	// The worker loop: accept everything, feed one request per connection,
	// serve it, close. Pre-bound callback and pre-boxed payload keep the
	// *driver* allocation-free so the benchmark measures only the kernel.
	payload := any(struct{}{})
	var onWake func(evs []kernel.Event)
	served := 0
	onWake = func(evs []kernel.Event) {
		for _, ev := range evs {
			switch ev.Kind {
			case kernel.EvAccept:
				for {
					c, ok := ev.Sock.Accept()
					if !ok {
						break
					}
					ep.Add(c.Sock())
					ns.DeliverData(c, payload)
				}
			case kernel.EvReadable:
				ev.Sock.PopData()
				ns.CloseSocket(ev.Sock)
				served++
			}
		}
		ep.Wait(16, -1, onWake)
	}
	ep.Wait(16, -1, onWake)
	eng.Run()

	tuple := kernel.FourTuple{SrcIP: 1, SrcPort: 1, DstIP: 2, DstPort: 8080}
	// Warm the pools so the measured loop is pure steady state.
	for i := 0; i < 64; i++ {
		tuple.SrcIP = uint32(i)
		if _, ok := ns.DeliverSYN(tuple, nil); !ok {
			b.Fatal("warmup SYN dropped")
		}
		eng.Run()
	}

	served = 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tuple.SrcIP = uint32(i)
		if _, ok := ns.DeliverSYN(tuple, nil); !ok {
			b.Fatal("SYN dropped")
		}
		eng.Run()
	}
	b.StopTimer()
	if served != b.N {
		b.Fatalf("served %d of %d connections", served, b.N)
	}
}

// BenchmarkSteerSYN measures the per-SYN reuseport dispatch decision —
// plain hash, the Hermes eBPF program, and its native-Go twin — through the
// public DeliverSYN path (steer → enqueue → accept → close), over a
// 16-socket group with a full selection bitmap.
func BenchmarkSteerSYN(b *testing.B) {
	const workers = 16
	fullBitmap := uint64(1)<<workers - 1

	run := func(b *testing.B, attach func(ctl *core.Controller, g *kernel.ReuseportGroup), expect func(hash uint32) int) {
		eng := sim.NewEngine(1)
		ns := kernel.NewNetStack(eng, kernel.WakeExclusiveLIFO)
		g, err := ns.ListenReuseport(8080, workers, 64)
		if err != nil {
			b.Fatal(err)
		}
		if attach != nil {
			ctl, err := core.New(workers, core.DefaultConfig())
			if err != nil {
				b.Fatal(err)
			}
			if err := ctl.SelMap(0).Update(0, fullBitmap); err != nil {
				b.Fatal(err)
			}
			attach(ctl, g)
		}
		socks := g.Sockets()
		tuple := kernel.FourTuple{SrcIP: 1, SrcPort: 1, DstIP: 2, DstPort: 8080}
		for i := 0; i < 64; i++ { // pool warmup
			tuple.SrcIP = uint32(i)
			c, ok := ns.DeliverSYN(tuple, nil)
			if !ok {
				b.Fatal("warmup SYN dropped")
			}
			if got, ok := socks[expect(tuple.Hash())].Accept(); !ok || got != c {
				b.Fatal("warmup steered to unexpected socket")
			}
			ns.CloseSocket(c.Sock())
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tuple.SrcIP = uint32(i)
			c, ok := ns.DeliverSYN(tuple, nil)
			if !ok {
				b.Fatal("SYN dropped")
			}
			if _, ok := socks[expect(tuple.Hash())].Accept(); !ok {
				b.Fatal("steered to unexpected socket")
			}
			ns.CloseSocket(c.Sock())
		}
	}

	min := core.DefaultConfig().MinWorkers
	hermesExpect := func(hash uint32) int {
		w, ok := core.NativeSelect(fullBitmap, hash, min)
		if !ok {
			b.Fatal("full bitmap declined selection")
		}
		return w
	}

	b.Run("hash", func(b *testing.B) {
		run(b, nil, func(hash uint32) int {
			return int(bitops.ReciprocalScale(hash, workers))
		})
	})
	b.Run("native", func(b *testing.B) {
		run(b, func(ctl *core.Controller, g *kernel.ReuseportGroup) {
			if err := ctl.AttachNative(g); err != nil {
				b.Fatal(err)
			}
		}, hermesExpect)
	})
	b.Run("ebpf", func(b *testing.B) {
		run(b, func(ctl *core.Controller, g *kernel.ReuseportGroup) {
			if err := ctl.AttachEBPF(g); err != nil {
				b.Fatal(err)
			}
		}, hermesExpect)
	})
	// The same program forced through the interpreter: the baseline the JIT
	// is measured against (ebpf vs ebpf-interp is the tier gap; ebpf vs
	// native is the CI-gated ≤1.5× criterion).
	b.Run("ebpf-interp", func(b *testing.B) {
		run(b, func(ctl *core.Controller, g *kernel.ReuseportGroup) {
			if err := ctl.AttachEBPF(g); err != nil {
				b.Fatal(err)
			}
			g.AttachProgramInterpreted(g.Program())
		}, hermesExpect)
	})
}

// TestHerdDataArrivalZeroAlloc pins the fix for the per-arrival watcher
// snapshot (the old socketReady copied the full watcher slice on every data
// delivery): a herd-mode data arrival fanned out to many watching epoll
// instances — the worst case for the wait-queue walk — must not allocate.
func TestHerdDataArrivalZeroAlloc(t *testing.T) {
	eng := sim.NewEngine(1)
	ns := kernel.NewNetStack(eng, kernel.WakeHerd)
	g, err := ns.ListenReuseport(8080, 1, 64)
	if err != nil {
		t.Fatal(err)
	}
	conn, ok := ns.DeliverSYN(kernel.FourTuple{SrcIP: 1, SrcPort: 1, DstIP: 2, DstPort: 8080}, nil)
	if !ok {
		t.Fatal("SYN dropped")
	}
	if c, ok := g.Sockets()[0].Accept(); !ok || c != conn {
		t.Fatal("accept failed")
	}
	sock := conn.Sock()

	// Eight epolls watch the same connection socket, each parked in a
	// blocked Wait with a pre-bound callback that drains and re-waits —
	// every herd delivery walks and wakes the full list.
	const watchers = 8
	payload := any(struct{}{})
	woken := 0
	for i := 0; i < watchers; i++ {
		ep := ns.NewEpoll()
		ep.Add(sock)
		var onWake func(evs []kernel.Event)
		onWake = func(evs []kernel.Event) {
			woken++
			for _, ev := range evs {
				if ev.Kind == kernel.EvReadable {
					ev.Sock.PopData()
				}
			}
			ep.Wait(16, -1, onWake)
		}
		ep.Wait(16, -1, onWake)
	}
	deliver := func() {
		ns.DeliverData(conn, payload)
		eng.Run()
	}
	for i := 0; i < 64; i++ { // warm pools and scratch buffers
		deliver()
	}
	woken = 0
	const runs = 200
	if allocs := testing.AllocsPerRun(runs, deliver); allocs != 0 {
		t.Fatalf("herd data arrival allocates %v/op across %d watchers, want 0", allocs, watchers)
	}
	// AllocsPerRun adds one warmup call; every delivery must have woken
	// the whole herd or the walk quietly stopped early.
	if want := (runs + 1) * watchers; woken != want {
		t.Fatalf("woken %d times, want %d", woken, want)
	}
}

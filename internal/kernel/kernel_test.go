package kernel

import (
	"testing"
	"time"

	"hermes/internal/ebpf"
	"hermes/internal/sim"
)

func tupleFor(src uint32, dport uint16) FourTuple {
	return FourTuple{SrcIP: src, DstIP: 0x0a000001, SrcPort: uint16(10000 + src%50000), DstPort: dport}
}

func TestFourTupleHashDeterministicAndSpread(t *testing.T) {
	a := tupleFor(1, 80).Hash()
	if a != tupleFor(1, 80).Hash() {
		t.Fatal("hash not deterministic")
	}
	if a == tupleFor(2, 80).Hash() && a == tupleFor(3, 80).Hash() {
		t.Fatal("hash suspiciously constant")
	}
	// Spread check over 4 buckets.
	var counts [4]int
	for i := uint32(0); i < 4000; i++ {
		counts[tupleFor(i, 80).Hash()%4]++
	}
	for i, c := range counts {
		if c < 700 || c > 1300 {
			t.Errorf("bucket %d = %d, poor spread", i, c)
		}
	}
}

func TestDeliverSYNNoListener(t *testing.T) {
	ns := NewNetStack(sim.NewEngine(1), WakeExclusiveLIFO)
	if _, ok := ns.DeliverSYN(tupleFor(1, 80), nil); ok {
		t.Fatal("SYN to unbound port accepted")
	}
	if ns.SynDrops != 1 {
		t.Fatalf("SynDrops = %d", ns.SynDrops)
	}
}

func TestSharedListenAcceptFlow(t *testing.T) {
	eng := sim.NewEngine(1)
	ns := NewNetStack(eng, WakeExclusiveLIFO)
	ls, err := ns.ListenShared(80, 8)
	if err != nil {
		t.Fatal(err)
	}
	conn, ok := ns.DeliverSYN(tupleFor(1, 80), "meta")
	if !ok {
		t.Fatal("SYN rejected")
	}
	if conn.AcceptedNS != -1 {
		t.Fatal("conn marked accepted before accept()")
	}
	if ls.QueueLen() != 1 {
		t.Fatalf("queue len = %d", ls.QueueLen())
	}
	got, ok := ls.Accept()
	if !ok || got != conn {
		t.Fatal("Accept did not return the queued conn")
	}
	if got.Meta != "meta" || got.Sock() == nil || got.Sock().Conn() != got {
		t.Fatalf("conn wiring broken: %+v", got)
	}
	if got.AcceptedNS != eng.Now() {
		t.Fatal("AcceptedNS not stamped")
	}
	if _, ok := ls.Accept(); ok {
		t.Fatal("Accept on empty queue succeeded")
	}
	if ls.Accepted != 1 {
		t.Fatalf("Accepted = %d", ls.Accepted)
	}
}

func TestAcceptQueueOverflowDrops(t *testing.T) {
	ns := NewNetStack(sim.NewEngine(1), WakeExclusiveLIFO)
	ls, _ := ns.ListenShared(80, 2)
	for i := uint32(0); i < 5; i++ {
		ns.DeliverSYN(tupleFor(i, 80), nil)
	}
	if ls.QueueLen() != 2 {
		t.Fatalf("queue len = %d, want 2", ls.QueueLen())
	}
	if ls.Drops != 3 || ns.SynDrops != 3 {
		t.Fatalf("Drops = %d, SynDrops = %d, want 3,3", ls.Drops, ns.SynDrops)
	}
	if ns.ConnsEstablished != 2 {
		t.Fatalf("ConnsEstablished = %d", ns.ConnsEstablished)
	}
}

func TestPortDoubleBindRejected(t *testing.T) {
	ns := NewNetStack(sim.NewEngine(1), WakeExclusiveLIFO)
	if _, err := ns.ListenShared(80, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := ns.ListenShared(80, 0); err == nil {
		t.Fatal("double shared bind accepted")
	}
	if _, err := ns.ListenReuseport(80, 2, 0); err == nil {
		t.Fatal("reuseport bind over shared accepted")
	}
	if _, err := ns.ListenReuseport(81, 0, 0); err == nil {
		t.Fatal("empty reuseport group accepted")
	}
}

func TestEpollWaitImmediate(t *testing.T) {
	eng := sim.NewEngine(1)
	ns := NewNetStack(eng, WakeExclusiveLIFO)
	ls, _ := ns.ListenShared(80, 8)
	ep := ns.NewEpoll()
	ep.Add(ls)
	ns.DeliverSYN(tupleFor(1, 80), nil)

	var got []Event
	ep.Wait(16, 5*time.Millisecond, func(evs []Event) { got = evs })
	eng.Run()
	if len(got) != 1 || got[0].Kind != EvAccept || got[0].Sock != ls {
		t.Fatalf("events = %+v", got)
	}
	if ep.Waits != 1 || ep.EventsDelivered != 1 {
		t.Fatalf("stats: %+v", ep)
	}
}

func TestEpollWaitTimeout(t *testing.T) {
	eng := sim.NewEngine(1)
	ns := NewNetStack(eng, WakeExclusiveLIFO)
	ls, _ := ns.ListenShared(80, 8)
	ep := ns.NewEpoll()
	ep.Add(ls)

	called := false
	start := eng.Now()
	ep.Wait(16, 5*time.Millisecond, func(evs []Event) {
		called = true
		if len(evs) != 0 {
			t.Errorf("timeout wait returned events: %v", evs)
		}
		if eng.Now()-start != int64(5*time.Millisecond) {
			t.Errorf("timeout fired at %d", eng.Now()-start)
		}
	})
	eng.Run()
	if !called {
		t.Fatal("timeout callback never fired")
	}
	if ep.Timeouts != 1 {
		t.Fatalf("Timeouts = %d", ep.Timeouts)
	}
}

func TestEpollWakeOnArrival(t *testing.T) {
	eng := sim.NewEngine(1)
	ns := NewNetStack(eng, WakeExclusiveLIFO)
	ls, _ := ns.ListenShared(80, 8)
	ep := ns.NewEpoll()
	ep.Add(ls)

	var wokeAt int64 = -1
	ep.Wait(16, 5*time.Millisecond, func(evs []Event) {
		wokeAt = eng.Now()
		if len(evs) != 1 {
			t.Errorf("events = %v", evs)
		}
	})
	eng.After(time.Millisecond, func() { ns.DeliverSYN(tupleFor(1, 80), nil) })
	eng.Run()
	if wokeAt != int64(time.Millisecond) {
		t.Fatalf("woke at %d, want 1ms (not the 5ms timeout)", wokeAt)
	}
	if ep.Timeouts != 0 {
		t.Fatal("timeout fired despite wake")
	}
}

func TestEpollMaxEventsBatching(t *testing.T) {
	eng := sim.NewEngine(1)
	ns := NewNetStack(eng, WakeExclusiveLIFO)
	// Three ports, three ready listen sockets, maxEvents=2.
	ep := ns.NewEpoll()
	for p := uint16(80); p < 83; p++ {
		ls, _ := ns.ListenShared(p, 8)
		ep.Add(ls)
		ns.DeliverSYN(tupleFor(uint32(p), p), nil)
	}
	// The batch slice is only valid until the next Wait on the instance
	// (the kernel reuses the events buffer), so snapshot the sockets.
	var first, second []*Socket
	drain := func(evs []Event) []*Socket {
		socks := make([]*Socket, 0, len(evs))
		for _, e := range evs {
			e.Sock.Accept()
			socks = append(socks, e.Sock)
		}
		return socks
	}
	ep.Wait(2, time.Millisecond, func(evs []Event) { first = drain(evs) })
	eng.Run()
	ep.Wait(2, time.Millisecond, func(evs []Event) { second = drain(evs) })
	eng.Run()
	if len(first) != 2 || len(second) != 1 {
		t.Fatalf("batches = %d,%d, want 2,1", len(first), len(second))
	}
	// The socket left unserviced in batch 1 must appear in batch 2
	// (ready-list rotation prevents starvation).
	if second[0] == first[0] || second[0] == first[1] {
		t.Fatal("unserviced socket starved by ready-list ordering")
	}
}

func TestLevelTriggeredRetrigger(t *testing.T) {
	eng := sim.NewEngine(1)
	ns := NewNetStack(eng, WakeExclusiveLIFO)
	ls, _ := ns.ListenShared(80, 8)
	ep := ns.NewEpoll()
	ep.Add(ls)
	ns.DeliverSYN(tupleFor(1, 80), nil)
	ns.DeliverSYN(tupleFor(2, 80), nil)

	// Accept only one; the socket must remain ready for the next wait.
	ep.Wait(16, time.Millisecond, func(evs []Event) {
		if len(evs) != 1 {
			t.Fatalf("first batch = %v", evs)
		}
		evs[0].Sock.Accept()
	})
	eng.Run()
	var again []Event
	ep.Wait(16, time.Millisecond, func(evs []Event) { again = evs })
	eng.Run()
	if len(again) != 1 || again[0].Kind != EvAccept {
		t.Fatalf("socket with queued conn not re-reported: %v", again)
	}
}

func TestConnDataAndHangupEvents(t *testing.T) {
	eng := sim.NewEngine(1)
	ns := NewNetStack(eng, WakeExclusiveLIFO)
	ls, _ := ns.ListenShared(80, 8)
	conn, _ := ns.DeliverSYN(tupleFor(1, 80), nil)
	ls.Accept()

	ep := ns.NewEpoll()
	cs := conn.Sock()
	ep.Add(cs)

	ns.DeliverData(conn, "req1")
	ns.DeliverFIN(conn)

	// Readable takes precedence while data is pending.
	var kinds []EventKind
	ep.Wait(16, time.Millisecond, func(evs []Event) {
		for _, e := range evs {
			kinds = append(kinds, e.Kind)
			if e.Kind == EvReadable {
				p, ok := e.Sock.PopData()
				if !ok || p != "req1" {
					t.Errorf("PopData = %v, %v", p, ok)
				}
			}
		}
	})
	eng.Run()
	ep.Wait(16, time.Millisecond, func(evs []Event) {
		for _, e := range evs {
			kinds = append(kinds, e.Kind)
		}
	})
	eng.Run()
	if len(kinds) != 2 || kinds[0] != EvReadable || kinds[1] != EvHangup {
		t.Fatalf("kinds = %v, want [readable hangup]", kinds)
	}
	if !cs.Hup() {
		t.Fatal("Hup not set")
	}
}

func TestDataToClosedSocketDropped(t *testing.T) {
	eng := sim.NewEngine(1)
	ns := NewNetStack(eng, WakeExclusiveLIFO)
	ls, _ := ns.ListenShared(80, 8)
	conn, _ := ns.DeliverSYN(tupleFor(1, 80), nil)
	ls.Accept()
	ns.CloseSocket(conn.Sock())
	ns.DeliverData(conn, "late")
	ns.DeliverFIN(conn)
	if conn.Sock().PendingData() != 0 {
		t.Fatal("data queued on closed socket")
	}
}

func TestCloseSocketDeregisters(t *testing.T) {
	eng := sim.NewEngine(1)
	ns := NewNetStack(eng, WakeExclusiveLIFO)
	ls, _ := ns.ListenShared(80, 8)
	conn, _ := ns.DeliverSYN(tupleFor(1, 80), nil)
	ls.Accept()
	ep := ns.NewEpoll()
	ep.Add(conn.Sock())
	if ep.Watches() != 1 {
		t.Fatal("watch not registered")
	}
	ns.CloseSocket(conn.Sock())
	if ep.Watches() != 0 {
		t.Fatal("close did not deregister epoll watch")
	}
	_ = eng
}

// Exclusive LIFO: with all workers idle, the most recently registered
// watcher (head of wait queue) must win every wakeup.
func TestExclusiveLIFOPrefersLastRegistered(t *testing.T) {
	eng := sim.NewEngine(1)
	ns := NewNetStack(eng, WakeExclusiveLIFO)
	ls, _ := ns.ListenShared(80, 64)

	const n = 4
	wakes := make([]int, n)
	eps := make([]*Epoll, n)
	for i := 0; i < n; i++ {
		eps[i] = ns.NewEpoll()
		eps[i].Add(ls) // worker i registers; worker n-1 registers last
	}
	var rewait func(i int)
	rewait = func(i int) {
		eps[i].Wait(16, 50*time.Millisecond, func(evs []Event) {
			for _, e := range evs {
				if _, ok := e.Sock.Accept(); ok {
					wakes[i]++
				}
			}
			if eng.Pending() > 0 {
				rewait(i)
			}
		})
	}
	for i := 0; i < n; i++ {
		rewait(i)
	}
	for k := 0; k < 20; k++ {
		k := k
		eng.At(int64(k+1)*int64(time.Microsecond), func() {
			ns.DeliverSYN(tupleFor(uint32(k), 80), nil)
		})
	}
	eng.RunUntil(int64(40 * time.Microsecond))

	total := 0
	for _, w := range wakes {
		total += w
	}
	if total != 20 {
		t.Fatalf("accepted %d of 20; wakes=%v", total, wakes)
	}
	if wakes[n-1] != 20 {
		t.Fatalf("LIFO should give all conns to last-registered worker: %v", wakes)
	}
}

// Exclusive RR: wakeups must rotate across idle workers.
func TestExclusiveRRRotates(t *testing.T) {
	eng := sim.NewEngine(1)
	ns := NewNetStack(eng, WakeExclusiveRR)
	ls, _ := ns.ListenShared(80, 64)

	const n = 4
	wakes := make([]int, n)
	eps := make([]*Epoll, n)
	var rewait func(i int)
	rewait = func(i int) {
		eps[i].Wait(16, 50*time.Millisecond, func(evs []Event) {
			for _, e := range evs {
				if _, ok := e.Sock.Accept(); ok {
					wakes[i]++
				}
			}
			rewait(i)
		})
	}
	for i := 0; i < n; i++ {
		eps[i] = ns.NewEpoll()
		eps[i].Add(ls)
		rewait(i)
	}
	for k := 0; k < 40; k++ {
		k := k
		eng.At(int64(k+1)*int64(time.Microsecond), func() {
			ns.DeliverSYN(tupleFor(uint32(k), 80), nil)
		})
	}
	eng.RunUntil(int64(80 * time.Microsecond))
	for i, w := range wakes {
		if w != 10 {
			t.Fatalf("RR should balance exactly: worker %d got %d, wakes=%v", i, w, wakes)
		}
	}
}

// Herd: all blocked workers wake; losers record spurious wakeups.
func TestHerdWakesAllAndCountsSpurious(t *testing.T) {
	eng := sim.NewEngine(1)
	ns := NewNetStack(eng, WakeHerd)
	ls, _ := ns.ListenShared(80, 64)

	const n = 4
	accepted := 0
	eps := make([]*Epoll, n)
	for i := 0; i < n; i++ {
		eps[i] = ns.NewEpoll()
		eps[i].Add(ls)
		eps[i].Wait(16, 50*time.Millisecond, func(evs []Event) {
			for _, e := range evs {
				if _, ok := e.Sock.Accept(); ok {
					accepted++
				}
			}
		})
	}
	eng.After(time.Microsecond, func() { ns.DeliverSYN(tupleFor(1, 80), nil) })
	eng.RunUntil(int64(10 * time.Microsecond))

	if accepted != 1 {
		t.Fatalf("accepted = %d, want 1", accepted)
	}
	spurious := uint64(0)
	for _, ep := range eps {
		spurious += ep.SpuriousWakeups
	}
	// One worker wins; with level-triggered collection the other three see
	// an already-drained socket: 3 spurious wakeups.
	if spurious != 3 {
		t.Fatalf("spurious = %d, want 3", spurious)
	}
}

// Exclusive: a busy (non-blocked) head worker must be skipped in favour of
// the next idle one.
func TestExclusiveSkipsBusyWorker(t *testing.T) {
	eng := sim.NewEngine(1)
	ns := NewNetStack(eng, WakeExclusiveLIFO)
	ls, _ := ns.ListenShared(80, 64)

	epBusy := ns.NewEpoll() // registered last → head of wait queue
	epIdle := ns.NewEpoll()
	epIdle.Add(ls)
	epBusy.Add(ls) // head

	woke := ""
	epIdle.Wait(16, 50*time.Millisecond, func(evs []Event) {
		if len(evs) > 0 {
			woke = "idle"
		}
	})
	// epBusy never calls Wait: it is "processing".
	eng.After(time.Microsecond, func() { ns.DeliverSYN(tupleFor(1, 80), nil) })
	eng.RunUntil(int64(10 * time.Microsecond))
	if woke != "idle" {
		t.Fatalf("idle worker not woken (woke=%q)", woke)
	}
}

func TestReuseportHashDispatchBalanced(t *testing.T) {
	ns := NewNetStack(sim.NewEngine(1), WakeExclusiveLIFO)
	g, _ := ns.ListenReuseport(80, 8, 0)
	const conns = 8000
	for i := uint32(0); i < conns; i++ {
		ns.DeliverSYN(FourTuple{SrcIP: i * 2654435761, SrcPort: uint16(i), DstIP: 9, DstPort: 80}, nil)
	}
	if g.HashDispatched != conns {
		t.Fatalf("HashDispatched = %d", g.HashDispatched)
	}
	for i, s := range g.Sockets() {
		got := s.QueueLen() + int(s.Drops)
		if got < conns/8*7/10 || got > conns/8*13/10 {
			t.Errorf("socket %d got %d conns, poor balance", i, got)
		}
	}
}

func TestReuseportNativeOverrideAndFallback(t *testing.T) {
	ns := NewNetStack(sim.NewEngine(1), WakeExclusiveLIFO)
	g, _ := ns.ListenReuseport(80, 4, 0)
	target := g.Sockets()[2]
	g.AttachNative(func(hash, _ uint32) (*Socket, bool) {
		if hash%2 == 0 {
			return target, true
		}
		return nil, false // decline → hash fallback
	})
	for i := uint32(0); i < 1000; i++ {
		ns.DeliverSYN(tupleFor(i, 80), nil)
	}
	if g.ProgDispatched == 0 || g.Fallbacks == 0 {
		t.Fatalf("override stats: dispatched=%d fallbacks=%d", g.ProgDispatched, g.Fallbacks)
	}
	if g.ProgDispatched+g.Fallbacks != 1000 {
		t.Fatalf("dispatch accounting broken: %d+%d != 1000", g.ProgDispatched, g.Fallbacks)
	}
	if int(target.QueueLen())+int(target.Drops) < 400 {
		t.Fatal("override did not steer even half the traffic")
	}
}

func TestReuseportRejectsForeignSocket(t *testing.T) {
	ns := NewNetStack(sim.NewEngine(1), WakeExclusiveLIFO)
	g, _ := ns.ListenReuseport(80, 2, 0)
	g2, _ := ns.ListenReuseport(81, 2, 0)
	foreign := g2.Sockets()[0]
	g.AttachNative(func(_, _ uint32) (*Socket, bool) { return foreign, true })
	ns.DeliverSYN(tupleFor(1, 80), nil)
	if g.Fallbacks != 1 {
		t.Fatalf("foreign socket not rejected: fallbacks=%d", g.Fallbacks)
	}
	if foreign.QueueLen() != 0 {
		t.Fatal("conn landed on foreign socket")
	}
}

func TestReuseportEBPFProgramDispatch(t *testing.T) {
	ns := NewNetStack(sim.NewEngine(1), WakeExclusiveLIFO)
	g, _ := ns.ListenReuseport(80, 4, 0)
	sa := ebpf.NewSockArray(len(g.Sockets()))
	for i, s := range g.Sockets() {
		if err := sa.Put(uint32(i), s); err != nil {
			t.Fatal(err)
		}
	}
	// Program: always select socket 3.
	a := ebpf.NewAssembler()
	slot := a.AddMap(sa)
	a.LdMap(R1sock, slot)
	a.MovImm(ebpf.R2, 3)
	a.Call(ebpf.HelperSkSelectReuseport)
	a.Exit()
	p, err := a.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	g.AttachProgram(p)
	for i := uint32(0); i < 100; i++ {
		ns.DeliverSYN(tupleFor(i, 80), nil)
	}
	if g.ProgDispatched != 100 {
		t.Fatalf("ProgDispatched = %d (fallbacks=%d errors=%d)", g.ProgDispatched, g.Fallbacks, g.ProgErrors)
	}
	if got := g.Sockets()[3].QueueLen() + int(g.Sockets()[3].Drops); got != 100 {
		t.Fatalf("socket 3 got %d conns", got)
	}
	g.Detach()
	ns.DeliverSYN(tupleFor(7, 80), nil)
	if g.HashDispatched != 1 {
		t.Fatal("Detach did not restore hash dispatch")
	}
}

// R1sock avoids importing ebpf.R1 twice with a clash in the test above.
const R1sock = ebpf.R1

func TestRSSSteersEvenly(t *testing.T) {
	r := NewRSS(8)
	for i := uint32(0); i < 80000; i++ {
		q := r.Steer(i*2654435761, 1500)
		if q < 0 || q >= 8 {
			t.Fatalf("queue %d out of range", q)
		}
	}
	for q, c := range r.Packets {
		if c < 8000 || c > 12000 {
			t.Errorf("queue %d packets = %d, uneven", q, c)
		}
		if r.Bytes[q] != c*1500 {
			t.Errorf("queue %d bytes = %d", q, r.Bytes[q])
		}
	}
	if r.Queues() != 8 {
		t.Fatal("Queues() wrong")
	}
}

func TestWakeModeStrings(t *testing.T) {
	if WakeHerd.String() != "herd" || WakeExclusiveLIFO.String() != "exclusive" || WakeExclusiveRR.String() != "exclusive-rr" {
		t.Fatal("mode strings")
	}
	if EvAccept.String() != "accept" || EvReadable.String() != "readable" || EvHangup.String() != "hangup" {
		t.Fatal("event kind strings")
	}
}

func TestEpollKick(t *testing.T) {
	eng := sim.NewEngine(1)
	ns := NewNetStack(eng, WakeExclusiveLIFO)
	ls, _ := ns.ListenShared(80, 8)
	ep := ns.NewEpoll()
	ep.Add(ls)

	// Kick on a non-blocked epoll is a no-op.
	ep.Kick()
	if ep.Waits != 0 {
		t.Fatal("kick on idle epoll produced a wait completion")
	}

	woke := false
	ep.Wait(16, 50*time.Millisecond, func(evs []Event) {
		woke = true
		if len(evs) != 0 {
			t.Errorf("kick delivered events: %v", evs)
		}
	})
	eng.After(time.Millisecond, ep.Kick)
	eng.RunUntil(int64(5 * time.Millisecond))
	if !woke {
		t.Fatal("kick did not wake the waiter")
	}
	if ep.Timeouts != 0 {
		t.Fatal("timeout fired despite kick")
	}
}

package l7lb

import (
	"testing"
	"time"

	"hermes/internal/kernel"
	"hermes/internal/sim"
)

// A warmed LB must serve a whole short connection — SYN, steer, accept, one
// request, close — without a heap allocation in the worker loop. The
// request payload is boxed once outside the measured loop, so the only
// allocation a caller of DeliverData pays (the `any` box) is excluded.
func TestWarmLifecycleZeroAlloc(t *testing.T) {
	for _, mode := range modesUnderTest() {
		t.Run(mode.String(), func(t *testing.T) {
			eng := sim.NewEngine(1)
			cfg := DefaultConfig(mode)
			cfg.Workers = 4
			lb, err := New(eng, cfg)
			if err != nil {
				t.Fatal(err)
			}
			completed := 0
			lb.OnResponse = func(kernel.ConnRef, Work) { completed++ }
			lb.Start()

			var payload any = Work{Cost: time.Microsecond, Close: true, Tenant: 8080}
			src := uint32(0)
			lifecycle := func() {
				src++
				conn, ok := lb.NS.DeliverSYN(kernel.FourTuple{
					SrcIP: src * 0x9E3779B1, SrcPort: uint16(1024 + src%60000),
					DstIP: 0x0a00_0001, DstPort: 8080,
				}, nil)
				if !ok {
					t.Fatalf("SYN %d rejected", src)
				}
				lb.NS.DeliverData(conn, payload)
				eng.RunUntil(eng.Now() + int64(100*time.Microsecond))
			}
			for i := 0; i < 2000; i++ { // warm pools, conn tables and timers
				lifecycle()
			}
			completed = 0
			const runs = 500
			if allocs := testing.AllocsPerRun(runs, lifecycle); allocs != 0 {
				t.Errorf("warm lifecycle allocates %v/conn, want 0", allocs)
			}
			// AllocsPerRun adds one warmup call; every lifecycle must
			// have completed its request or the loop measured nothing.
			if completed != runs+1 {
				t.Errorf("completed %d requests, want %d", completed, runs+1)
			}
		})
	}
}

// CostModel.Close is charged once per connection the peer closes. The same
// warm keep-alive lifecycle — SYN, one request, response, client FIN — runs
// with the default Close cost and with twice it; total busy time must differ
// by exactly one extra Close per closed connection, in every mode.
func TestCloseCostChargedPerClosedConn(t *testing.T) {
	const conns = 200
	busy := func(mode Mode, close time.Duration) int64 {
		eng := sim.NewEngine(1)
		cfg := DefaultConfig(mode)
		cfg.Workers = 2
		cfg.Costs.Close = close
		lb, err := New(eng, cfg)
		if err != nil {
			t.Fatal(err)
		}
		lb.Start()
		var payload any = Work{Cost: time.Microsecond, Tenant: 8080}
		for src := uint32(1); src <= conns; src++ {
			conn, ok := lb.NS.DeliverSYN(kernel.FourTuple{
				SrcIP: src * 0x9E3779B1, SrcPort: uint16(1024 + src),
				DstIP: 0x0a00_0001, DstPort: 8080,
			}, nil)
			if !ok {
				t.Fatalf("SYN %d rejected", src)
			}
			lb.NS.DeliverData(conn, payload)
			eng.RunUntil(eng.Now() + int64(50*time.Microsecond))
			lb.NS.DeliverFIN(conn)
			eng.RunUntil(eng.Now() + int64(50*time.Microsecond))
		}
		if lb.Completed != conns {
			t.Fatalf("%v: completed %d of %d requests", mode, lb.Completed, conns)
		}
		if open := lb.WorkerConnCounts(); open[0]+open[1] != 0 {
			t.Fatalf("%v: %v connections still open after every FIN", mode, open)
		}
		return lb.TotalBusyNS()
	}
	for _, mode := range modesUnderTest() {
		t.Run(mode.String(), func(t *testing.T) {
			c := DefaultCosts().Close
			if got, want := busy(mode, 2*c)-busy(mode, c), int64(conns)*int64(c); got != want {
				t.Fatalf("doubling Close added %d ns of busy time, want %d (one Close per closed conn)", got, want)
			}
		})
	}
}

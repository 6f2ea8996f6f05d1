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

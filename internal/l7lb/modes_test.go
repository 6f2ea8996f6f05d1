package l7lb

import (
	"testing"
	"time"

	"hermes/internal/sim"
)

// io_uring's FIFO wakeup concentrates connections on the earliest-registered
// worker — the mirror image of EPOLLEXCLUSIVE's LIFO (§8).
func TestIOUringFIFOConcentratesOnFirstWorker(t *testing.T) {
	eng := sim.NewEngine(7)
	cfg := DefaultConfig(ModeIOUring)
	cfg.Workers = 8
	lb, err := New(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	lb.Start()
	for i := 0; i < 400; i++ {
		i := i
		eng.At(int64(i)*int64(200*time.Microsecond), func() {
			openConn(t, lb, uint32(i), 8080)
		})
	}
	eng.RunUntil(int64(200 * time.Millisecond))

	counts := lb.WorkerConnCounts()
	total := 0
	for _, c := range counts {
		total += c
	}
	if total != 400 {
		t.Fatalf("served %d of 400: %v", total, counts)
	}
	// FIFO walks the wait queue from the tail; epoll_ctl prepends, so the
	// tail is worker 0 (first registered).
	if counts[0] < 350 {
		t.Fatalf("FIFO should concentrate on worker 0: %v", counts)
	}
	if ModeIOUring.String() != "io-uring-fifo" {
		t.Fatal("mode string")
	}
}

// A 96-worker Hermes LB transparently splits into two controller groups
// and still avoids a hung worker.
func TestGroupedHermesLBOver64Workers(t *testing.T) {
	eng := sim.NewEngine(3)
	cfg := DefaultConfig(ModeHermes)
	cfg.Workers = 96
	lb, err := New(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if lb.Ctl.Groups() != 2 {
		t.Fatalf("groups = %d", lb.Ctl.Groups())
	}
	lb.Start()

	for i := 0; i < 2000; i++ {
		i := i
		eng.At(int64(i)*int64(50*time.Microsecond), func() {
			c := openConn(t, lb, uint32(i), 8080)
			eng.After(30*time.Microsecond, func() {
				sendReq(lb, c, 20*time.Microsecond, true)
			})
		})
	}
	eng.RunUntil(int64(time.Second))
	if lb.Completed != 2000 {
		t.Fatalf("completed %d of 2000", lb.Completed)
	}
	// Traffic must reach both halves of the fleet.
	lo, hi := uint64(0), uint64(0)
	for i, w := range lb.Workers {
		if i < 64 {
			lo += w.Accepted
		} else {
			hi += w.Accepted
		}
	}
	if lo == 0 || hi == 0 {
		t.Fatalf("group split %d/%d: one group starved", lo, hi)
	}
	if g := lb.Groups()[0]; g.ProgDispatched == 0 {
		t.Fatalf("grouped dispatch program unused: fallbacks=%d errors=%d",
			g.Fallbacks, g.ProgErrors)
	}
}

func TestGroupedHermesNativeOver64(t *testing.T) {
	eng := sim.NewEngine(4)
	cfg := DefaultConfig(ModeHermesNative)
	cfg.Workers = 80
	lb, err := New(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	lb.Start()
	for i := 0; i < 500; i++ {
		i := i
		eng.At(int64(i)*int64(100*time.Microsecond), func() {
			c := openConn(t, lb, uint32(i), 8080)
			eng.After(30*time.Microsecond, func() {
				sendReq(lb, c, 20*time.Microsecond, true)
			})
		})
	}
	eng.RunUntil(int64(time.Second))
	if lb.Completed != 500 {
		t.Fatalf("completed %d of 500", lb.Completed)
	}
}

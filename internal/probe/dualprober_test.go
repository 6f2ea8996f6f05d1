package probe

import (
	"testing"
	"time"

	"hermes/internal/kernel"
	"hermes/internal/l7lb"
	"hermes/internal/sim"
)

// openTestConns gives every worker something a WorkerProber can sample.
func openTestConns(eng *sim.Engine, lb *l7lb.LB, n int) {
	for i := 0; i < n; i++ {
		i := i
		eng.At(int64(i)*int64(100*time.Microsecond), func() {
			lb.NS.DeliverSYN(kernel.FourTuple{
				SrcIP: uint32(i), SrcPort: uint16(2000 + i), DstIP: 1, DstPort: 8080,
			}, nil)
		})
	}
}

// Regression: DelayedCount used to compute p.Sent - lb.ProbesCompleted
// against the LB-global counter, so two probers sharing one LB
// cross-contaminated — the smaller prober's subtraction underflowed uint64
// and reported astronomically many "lost" probes. Accounting is now tagged
// per prober and must stay exact for each.
func TestDualProberAccountingExact(t *testing.T) {
	eng, lb := healthyLB(t, l7lb.ModeHermes)
	openTestConns(eng, lb, 16)

	// Two probers at different rates: the faster one's completions dominate
	// the LB-global counter.
	fast := NewWorkerProber(lb, 8080, 5*time.Millisecond)
	slow := NewWorkerProber(lb, 8080, 50*time.Millisecond)
	eng.At(int64(10*time.Millisecond), func() {
		fast.Run(time.Second)
		slow.Run(time.Second)
	})
	eng.RunUntil(int64(2 * time.Second))

	if fast.Sent == 0 || slow.Sent == 0 {
		t.Fatalf("both probers must send: fast=%d slow=%d", fast.Sent, slow.Sent)
	}
	if fast.Sent <= slow.Sent {
		t.Fatalf("test needs the fast prober to dominate (fast=%d slow=%d) to expose the underflow",
			fast.Sent, slow.Sent)
	}
	if fast.Completed != fast.Sent {
		t.Fatalf("fast prober: completed %d of %d on a healthy LB", fast.Completed, fast.Sent)
	}
	if slow.Completed != slow.Sent {
		t.Fatalf("slow prober: completed %d of %d on a healthy LB", slow.Completed, slow.Sent)
	}
	// Pre-fix, slow.DelayedCount() was ≈ 2^64 here (slow.Sent minus the
	// LB-global completion count, which fast's probes dominate).
	if d := slow.DelayedCount(); d != 0 {
		t.Fatalf("slow prober delayed count %d, want 0 (underflow regression)", d)
	}
	if d := fast.DelayedCount(); d != 0 {
		t.Fatalf("fast prober delayed count %d, want 0", d)
	}
	// The LB-global counter still aggregates both streams.
	if lb.ProbesCompleted != fast.Sent+slow.Sent {
		t.Fatalf("LB-global completions %d != %d + %d", lb.ProbesCompleted, fast.Sent, slow.Sent)
	}
}

// Lost probes (dropped before reaching the LB) count as delayed, exactly.
func TestProberLossCountsAsDelayed(t *testing.T) {
	eng, lb := healthyLB(t, l7lb.ModeHermes)
	openTestConns(eng, lb, 16)

	lossy := NewWorkerProber(lb, 8080, 20*time.Millisecond)
	lossy.SetDrop(func() bool { return true })
	clean := NewWorkerProber(lb, 8080, 10*time.Millisecond)
	eng.At(int64(10*time.Millisecond), func() {
		lossy.Run(time.Second)
		clean.Run(time.Second)
	})
	eng.RunUntil(int64(2 * time.Second))

	if lossy.Sent == 0 || lossy.Completed != 0 || lossy.Lost != lossy.Sent {
		t.Fatalf("lossy prober: sent=%d completed=%d lost=%d, want all sent lost",
			lossy.Sent, lossy.Completed, lossy.Lost)
	}
	if d := lossy.DelayedCount(); d != lossy.Sent {
		t.Fatalf("lossy delayed %d, want %d (every lost probe is delayed)", d, lossy.Sent)
	}
	if lossy.DelayedRate() != 1 {
		t.Fatalf("lossy delayed rate %v, want 1", lossy.DelayedRate())
	}
	// The clean prober on the same LB is untouched by its neighbor's loss.
	if d := clean.DelayedCount(); d != 0 {
		t.Fatalf("clean prober delayed %d, want 0", d)
	}
}

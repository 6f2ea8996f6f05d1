package l7lb

import (
	"testing"
	"time"

	"hermes/internal/sim"
)

// The worker-availability veto reaches the kernel dispatch: after
// SetWorkerAvailable(id, false) and a schedule pass, the eBPF program stops
// steering new connections to that worker, and restoring it brings traffic
// back — the same eviction path the real proxy's backend-health wiring and
// graceful drain use.
func TestSetWorkerAvailableEvictsFromDispatch(t *testing.T) {
	eng := sim.NewEngine(1)
	cfg := DefaultConfig(ModeHermes)
	cfg.Workers = 3
	// MinWorkers=1 keeps dispatch on the bitmap even when the busy filter
	// narrows the set to one worker; at the default of 2 the kernel would
	// hash-fallback across all sockets — including the vetoed one, by
	// design — whenever fewer than two workers pass the cascade.
	cfg.Hermes.MinWorkers = 1
	lb, err := New(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	lb.Start()
	eng.RunUntil(int64(10 * time.Millisecond)) // everyone scheduled at least once

	if err := lb.Ctl.SetWorkerAvailable(1, false); err != nil {
		t.Fatal(err)
	}
	// Let the workers' loops republish the bitmap with the veto applied.
	eng.RunUntil(eng.Now() + int64(50*time.Millisecond))
	if bm, _ := lb.Ctl.SelMap(0).Lookup(0); bm&(1<<1) != 0 {
		t.Fatalf("published bitmap still has vetoed worker: %b", bm)
	}

	// Short served-and-closed requests keep the pool from saturating (an
	// empty selection set would hash-fallback onto the vetoed worker by
	// design — that safety valve is covered elsewhere).
	const conns = 60
	fire := func(base uint32) {
		for i := 0; i < conns; i++ {
			i := i
			eng.At(eng.Now()+int64(i)*int64(200*time.Microsecond), func() {
				c := openConn(t, lb, base+uint32(i), 8080)
				eng.After(10*time.Microsecond, func() {
					sendReq(lb, c, 20*time.Microsecond, true)
				})
			})
		}
		eng.RunUntil(eng.Now() + int64(100*time.Millisecond))
	}
	fire(1)

	if got := lb.Workers[1].Accepted; got != 0 {
		t.Fatalf("vetoed worker accepted %d connections (%d/%d/%d)",
			got, lb.Workers[0].Accepted, lb.Workers[1].Accepted, lb.Workers[2].Accepted)
	}
	if total := lb.Workers[0].Accepted + lb.Workers[2].Accepted; total != conns {
		t.Fatalf("healthy workers accepted %d conns, want %d", total, conns)
	}

	// Restore and verify traffic comes back.
	if err := lb.Ctl.SetWorkerAvailable(1, true); err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(eng.Now() + int64(50*time.Millisecond))
	fire(1000)
	if lb.Workers[1].Accepted == 0 {
		t.Fatal("restored worker still getting nothing")
	}

	if err := lb.Ctl.SetWorkerAvailable(99, false); err == nil {
		t.Error("out-of-range veto accepted")
	}
}

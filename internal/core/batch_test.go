package core

import (
	"testing"
	"time"
)

func batchedConfig(q time.Duration) Config {
	cfg := DefaultConfig()
	cfg.SyncQuantum = q
	return cfg
}

// Within one quantum only the first schedule_and_sync recomputes and syncs;
// the rest coalesce onto its result. Past the quantum boundary the next call
// recomputes.
func TestSyncBatchingCoalescesWithinQuantum(t *testing.T) {
	const workers = 4
	c, err := New(workers, batchedConfig(100*time.Microsecond))
	if err != nil {
		t.Fatal(err)
	}
	hooks := make([]*WorkerHook, workers)
	for i := range hooks {
		hooks[i] = c.NewWorkerHook(i)
		hooks[i].LoopEnter(0)
	}

	first := hooks[0].ScheduleAndSync(0)
	if first.Passed != workers {
		t.Fatalf("first pass selected %d of %d", first.Passed, workers)
	}
	for i := 1; i < workers; i++ {
		res := hooks[i].ScheduleAndSync(50_000) // +50µs: same quantum
		if res != first {
			t.Fatalf("worker %d got %+v, want cached %+v", i, res, first)
		}
	}
	st := c.Stats()
	if st.ScheduleCalls != 1 || st.Syncs != 1 {
		t.Fatalf("within quantum: %d recomputes, %d syncs, want 1 and 1", st.ScheduleCalls, st.Syncs)
	}
	if st.Batched != workers-1 {
		t.Fatalf("batched %d calls, want %d", st.Batched, workers-1)
	}

	// Quantum expired: next call recomputes and re-syncs.
	hooks[1].ScheduleAndSync(100_000)
	st = c.Stats()
	if st.ScheduleCalls != 2 || st.Syncs != 2 {
		t.Fatalf("after quantum: %d recomputes, %d syncs, want 2 and 2", st.ScheduleCalls, st.Syncs)
	}
}

// The cached result must reflect reality at the time it was computed — and
// must NOT mask state changes past the quantum. A worker hanging right after
// a sync is the dangerous case: the quantum bounds how long its bit stays
// published, and SyncQuantum < HangThreshold keeps that window safe.
func TestSyncBatchingQuantumBoundsStaleness(t *testing.T) {
	const workers = 3
	cfg := batchedConfig(time.Millisecond)
	c, err := New(workers, cfg)
	if err != nil {
		t.Fatal(err)
	}
	hooks := make([]*WorkerHook, workers)
	for i := range hooks {
		hooks[i] = c.NewWorkerHook(i)
		hooks[i].LoopEnter(0)
	}
	if res := hooks[0].ScheduleAndSync(0); res.Passed != workers {
		t.Fatalf("selected %d of %d", res.Passed, workers)
	}

	// Worker 2 never re-enters its loop. Within the quantum, cached results
	// still include it (bounded staleness, by design).
	hang := int64(cfg.HangThreshold) * 2
	for i := 0; i < 2; i++ {
		hooks[i].LoopEnter(hang)
	}
	if res := hooks[0].ScheduleAndSync(int64(cfg.SyncQuantum) - 1); res.Passed != workers {
		t.Fatalf("mid-quantum cache dropped workers: %d of %d", res.Passed, workers)
	}
	// Past the quantum the recompute sees the hang.
	res := hooks[0].ScheduleAndSync(hang)
	if res.Passed != workers-1 || res.Bitmap.Has(2) {
		t.Fatalf("post-quantum pass kept hung worker: passed=%d bitmap=%b", res.Passed, uint64(res.Bitmap))
	}
	if bm, _ := c.SelMap(0).Lookup(0); bm&(1<<2) != 0 {
		t.Fatalf("hung worker still in kernel map: %b", bm)
	}
}

// Policy flips (fallback, single-winner, config swaps) must take effect on
// the very next call even when a quantum's cached result is still fresh —
// the live-policy tests flip these at one virtual instant.
func TestSyncBatchingPolicyFlipInvalidates(t *testing.T) {
	const workers = 4
	c, err := New(workers, batchedConfig(time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	h := c.NewWorkerHook(0)
	h.LoopEnter(0)

	if res := h.ScheduleAndSync(0); res.Passed != workers {
		t.Fatalf("selected %d of %d", res.Passed, workers)
	}
	c.SetForceFallback(true)
	if res := h.ScheduleAndSync(1); res.Passed != 0 {
		t.Fatalf("fallback not applied mid-quantum: passed=%d", res.Passed)
	}
	if bm, _ := c.SelMap(0).Lookup(0); bm != 0 {
		t.Fatalf("kernel map not emptied by fallback: %b", bm)
	}
	c.SetForceFallback(false)
	// Same instant: the pre-fallback cache entry (same timestamp, same
	// quantum) must not resurface — its generation is stale.
	if res := h.ScheduleAndSync(2); res.Passed != workers {
		t.Fatalf("stale pre-fallback cache served after re-enable: passed=%d", res.Passed)
	}

	// Fallback/single-winner results themselves never populate the cache:
	// two consecutive fallback calls both recompute.
	c.SetForceFallback(true)
	h.ScheduleAndSync(3)
	h.ScheduleAndSync(4)
	st := c.Stats()
	if st.Batched != 0 {
		t.Fatalf("override-mode calls were batched: %d", st.Batched)
	}
}

// SyncQuantum=0 (the default) disables batching entirely: N calls → N
// recomputes and N syncs, the paper's literal behaviour.
func TestSyncBatchingDisabledByDefault(t *testing.T) {
	if q := DefaultConfig().SyncQuantum; q != 0 {
		t.Fatalf("DefaultConfig.SyncQuantum = %v, want 0", q)
	}
	c, err := New(2, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	h := c.NewWorkerHook(0)
	h.LoopEnter(0)
	for i := 0; i < 5; i++ {
		h.ScheduleAndSync(int64(i))
	}
	st := c.Stats()
	if st.ScheduleCalls != 5 || st.Syncs != 5 || st.Batched != 0 {
		t.Fatalf("unbatched controller: calls=%d syncs=%d batched=%d", st.ScheduleCalls, st.Syncs, st.Batched)
	}
}

// Grouped deployments batch per group: one recompute per group per quantum,
// and group A's cache never serves group B's workers.
func TestSyncBatchingGroupedPerGroup(t *testing.T) {
	const workers, groups = 8, 2
	gc, err := New(workers, batchedConfig(time.Millisecond), WithGroups(groups))
	if err != nil {
		t.Fatal(err)
	}
	hooks := make([]*WorkerHook, workers)
	for i := range hooks {
		hooks[i] = gc.NewWorkerHook(i)
		hooks[i].LoopEnter(0)
	}
	// Hang one worker in group 1 so the two groups compute different bitmaps.
	for i, h := range hooks {
		if i != 7 {
			h.LoopEnter(int64(2 * gc.Config().HangThreshold))
		}
	}
	now := int64(2 * gc.Config().HangThreshold)
	for i, h := range hooks {
		res := h.ScheduleAndSync(now + int64(i)) // all within one quantum
		span := workers / groups
		want := span
		if i >= span {
			want = span - 1 // group 1 lost its hung member
		}
		if res.Passed != want {
			t.Fatalf("worker %d: passed %d, want %d", i, res.Passed, want)
		}
	}
	// One sync per group, the rest batched.
	bm0, _ := gc.SelMap(0).Lookup(0)
	bm1, _ := gc.SelMap(1).Lookup(0)
	if bm0 != 0b1111 || bm1 != 0b0111 {
		t.Fatalf("group bitmaps: %b %b", bm0, bm1)
	}
}

func TestSyncQuantumValidation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SyncQuantum = -time.Millisecond
	if err := cfg.Validate(); err == nil {
		t.Fatal("negative SyncQuantum accepted")
	}
	cfg.SyncQuantum = cfg.HangThreshold
	if err := cfg.Validate(); err == nil {
		t.Fatal("SyncQuantum >= HangThreshold accepted")
	}
	cfg.SyncQuantum = cfg.HangThreshold / 2
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
}

// The batched fast path must not allocate (it sits in every worker's event
// loop).
func TestSyncBatchedPathZeroAlloc(t *testing.T) {
	c, err := New(4, batchedConfig(time.Second/100))
	if err != nil {
		t.Fatal(err)
	}
	h := c.NewWorkerHook(0)
	h.LoopEnter(0)
	h.ScheduleAndSync(0)
	now := int64(1)
	if allocs := testing.AllocsPerRun(100, func() {
		h.ScheduleAndSync(now)
		now++
	}); allocs != 0 {
		t.Fatalf("batched schedule_and_sync allocates %v/op, want 0", allocs)
	}
}

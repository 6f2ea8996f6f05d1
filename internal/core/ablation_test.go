package core

import (
	"testing"
	"time"

	"hermes/internal/shm"
)

func TestScheduleSingleWinnerPicksLeastLoaded(t *testing.T) {
	cfg := DefaultConfig()
	now := int64(time.Second)
	ms := freshMetrics(4, now)
	ms[0].Conn = 5
	ms[1].Conn = 2
	ms[2].Conn = 2
	ms[2].Busy = 3
	ms[3].Conn = 9
	// Worker 1 ties worker 2 on conns but has fewer pending events.
	res := ScheduleSingleWinner(now, ms, cfg)
	if res.Passed != 1 || !res.Bitmap.Has(1) {
		t.Fatalf("single winner: %+v", res)
	}
	if res.Alive != 4 {
		t.Fatalf("alive = %d", res.Alive)
	}
}

func TestScheduleSingleWinnerSkipsHung(t *testing.T) {
	cfg := DefaultConfig()
	now := int64(time.Second)
	ms := freshMetrics(3, now)
	ms[0].Conn = 0 // best, but hung:
	ms[0].LoopEnterNS = now - int64(cfg.HangThreshold) - 1
	ms[1].Conn = 7
	ms[2].Conn = 4
	res := ScheduleSingleWinner(now, ms, cfg)
	if !res.Bitmap.Has(2) || res.Passed != 1 {
		t.Fatalf("hung worker not skipped: %+v", res)
	}
	// All hung → empty.
	for i := range ms {
		ms[i].LoopEnterNS = now - int64(cfg.HangThreshold) - 1
	}
	if res := ScheduleSingleWinner(now, ms, cfg); res.Passed != 0 {
		t.Fatalf("all-hung single winner: %+v", res)
	}
	// Degenerate inputs.
	if res := ScheduleSingleWinner(now, nil, cfg); res.Passed != 0 {
		t.Fatal("nil metrics")
	}
	if res := ScheduleSingleWinner(now, make([]shm.Metrics, 65), cfg); res.Passed != 0 {
		t.Fatal("oversized metrics")
	}
}

func TestControllerSingleWinnerPublishesOneBit(t *testing.T) {
	c, err := New(4, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	c.SetSingleWinner(true)
	now := int64(time.Second)
	hooks := make([]*WorkerHook, 4)
	for i := range hooks {
		hooks[i] = c.NewWorkerHook(i)
		hooks[i].LoopEnter(now)
		hooks[i].ConnOpened()
	}
	hooks[0].ConnOpened() // worker 0 now heaviest
	res := hooks[0].ScheduleAndSync(now)
	if res.Passed != 1 {
		t.Fatalf("single-winner published %d bits", res.Passed)
	}
	if res.Bitmap.Has(0) {
		t.Fatal("heaviest worker selected as single winner")
	}
	if got, _ := c.SelMap(0).Lookup(0); got != uint64(res.Bitmap) {
		t.Fatal("kernel map out of sync")
	}
}

func TestGroupedControllerFilterOrderAndHookCounters(t *testing.T) {
	gc, err := New(96, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	gc.SetFilterOrder(OrderTimeOnly)

	h := gc.NewWorkerHook(70) // group 1, slot 6
	h.LoopEnter(100)
	h.EventsFetched(4)
	h.EventHandled()
	h.ConnOpened()
	h.ConnOpened()
	h.ConnClosed()
	h.EventsFetched(-3) // ignored

	// The metrics must land in group 1's table, slot 6.
	snap := gc.Table().Group(1).Snapshot(nil)
	m := snap[6]
	if m.LoopEnterNS != 100 || m.Busy != 3 || m.Conn != 1 {
		t.Fatalf("grouped hook metrics: %+v", m)
	}
	// Group 0 untouched.
	for i, m := range gc.Table().Group(0).Snapshot(nil) {
		if m.Busy != 0 || m.Conn != 0 {
			t.Fatalf("group 0 slot %d polluted: %+v", i, m)
		}
	}

	// ScheduleAndSync publishes only the worker's own group.
	res := h.ScheduleAndSync(100)
	if res.Total != 32 { // group 1 of 96 workers spans 64..95 → 32 workers
		t.Fatalf("schedule total = %d, want 32", res.Total)
	}
	if v, _ := gc.SelMap(1).Lookup(0); v != uint64(res.Bitmap) {
		t.Fatal("group 1 selmap not synced")
	}
	if v, _ := gc.SelMap(0).Lookup(0); v != 0 {
		t.Fatal("group 0 selmap polluted")
	}
}

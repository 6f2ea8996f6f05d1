package l7lb

import (
	"testing"
	"time"

	"hermes/internal/kernel"
	"hermes/internal/sim"
)

// Regression: a worker that crashes while blocked in epoll_wait used to
// leave its waiter armed, so the exclusive wakeup walk still saw it as
// Blocked(), woke it, and the wakeup was swallowed by the crashed worker's
// early return — the connection sat in the accept queue until some healthy
// worker's epoll timeout. Crash must tear the epoll down so the walk skips
// straight to the next idle worker.
func TestCrashWhileBlockedDoesNotSwallowExclusiveWakeup(t *testing.T) {
	eng := sim.NewEngine(1)
	cfg := DefaultConfig(ModeExclusive)
	cfg.Workers = 3
	// A huge timeout removes the accidental recovery path: pre-fix, the
	// swallowed wakeup would leave the connection unaccepted for the whole
	// test horizon instead of being picked up at the next 5ms timeout.
	cfg.Hermes.EpollTimeout = 10 * time.Second
	lb, err := New(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	lb.Start()
	eng.RunUntil(int64(time.Millisecond)) // everyone parked in epoll_wait

	// The LIFO walk starts at the most recently registered watcher, so the
	// highest-id workers shadow worker 0. Crash both of them mid-block.
	lb.Workers[1].Crash(false)
	lb.Workers[2].Crash(false)

	conn := openConn(t, lb, 42, 8080)
	eng.RunUntil(eng.Now() + int64(50*time.Millisecond))

	if conn.AcceptedNS < 0 {
		t.Fatal("wakeup swallowed: crashed blocked worker still looked idle to the exclusive walk")
	}
	if got := lb.Workers[0].OpenConns(); got != 1 {
		t.Fatalf("next idle worker should have accepted the conn, worker 0 owns %d", got)
	}
}

// The restart lifecycle: a crashed reuseport worker's slot goes dark until
// Restart rebuilds its epoll and re-registers its listen socket; afterwards
// the slot must accept new connections again.
func TestRestartRevivesReuseportSlot(t *testing.T) {
	eng := sim.NewEngine(1)
	cfg := DefaultConfig(ModeReuseport)
	cfg.Workers = 2
	lb, err := New(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	lb.Start()
	eng.RunUntil(int64(time.Millisecond))

	victim := lb.Workers[0]
	victim.Crash(true)
	eng.RunUntil(eng.Now() + int64(time.Millisecond))
	if !victim.Crashed() {
		t.Fatal("victim not crashed")
	}
	victim.Restart()
	if victim.Crashed() || victim.Restarts != 1 {
		t.Fatalf("restart did not take: crashed=%v restarts=%d", victim.Crashed(), victim.Restarts)
	}

	const conns = 64
	for i := 0; i < conns; i++ {
		i := i
		eng.At(eng.Now()+int64(i)*int64(100*time.Microsecond), func() {
			c := openConn(t, lb, uint32(i), 8080)
			eng.After(10*time.Microsecond, func() {
				sendReq(lb, c, 20*time.Microsecond, true)
			})
		})
	}
	eng.RunUntil(eng.Now() + int64(200*time.Millisecond))

	if lb.Completed != conns {
		t.Fatalf("completed %d of %d after restart", lb.Completed, conns)
	}
	// The reuseport hash spreads 64 conns over 2 slots; the revived slot
	// must have taken its share.
	if a := victim.Accepted; a == 0 {
		t.Fatal("restarted worker accepted nothing: slot still dark")
	}
}

// A hang stalls the victim's work for exactly its duration, releases
// afterward, and the busy-spin is charged to the worker's CPU accounting.
func TestHangStallsThenReleases(t *testing.T) {
	eng := sim.NewEngine(1)
	cfg := DefaultConfig(ModeExclusive)
	cfg.Workers = 1
	lb, err := New(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	lb.Start()
	conn := openConn(t, lb, 7, 8080)
	eng.RunUntil(int64(time.Millisecond))

	w := lb.Workers[0]
	t0 := eng.Now()
	busy0 := w.BusyNS(t0)
	const hang = 20 * time.Millisecond
	w.Hang(hang)
	if !w.Hung() {
		t.Fatal("worker not hung after Hang")
	}
	sendReq(lb, conn, 10*time.Microsecond, false)

	eng.RunUntil(t0 + int64(hang) - 1)
	if lb.Completed != 0 {
		t.Fatal("request completed while the worker was hung")
	}
	eng.RunUntil(t0 + int64(hang) + int64(time.Millisecond))
	if w.Hung() {
		t.Fatal("worker still hung after the hang window")
	}
	if lb.Completed != 1 {
		t.Fatalf("request not served after release: completed=%d", lb.Completed)
	}
	if spin := w.BusyNS(eng.Now()) - busy0; spin < int64(hang) {
		t.Fatalf("busy-spin not charged: busy delta %d < hang %d", spin, int64(hang))
	}
}

// A slow worker's cost multiplier scales request service time and reverts.
func TestCostMultiplierScalesService(t *testing.T) {
	eng := sim.NewEngine(1)
	cfg := DefaultConfig(ModeExclusive)
	cfg.Workers = 1
	lb, err := New(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	lb.Start()
	conn := openConn(t, lb, 9, 8080)
	eng.RunUntil(int64(time.Millisecond))

	w := lb.Workers[0]
	w.SetCostMultiplier(8)
	t0 := eng.Now()
	sendReq(lb, conn, 1*time.Millisecond, false)
	eng.RunUntil(t0 + int64(5*time.Millisecond))
	if lb.Completed != 0 {
		t.Fatal("8x-scaled 1ms request finished in under 5ms")
	}
	eng.RunUntil(t0 + int64(20*time.Millisecond))
	if lb.Completed != 1 {
		t.Fatalf("scaled request never completed: %d", lb.Completed)
	}
	w.SetCostMultiplier(1)
	t1 := eng.Now()
	sendReq(lb, conn, 1*time.Millisecond, true)
	eng.RunUntil(t1 + int64(5*time.Millisecond))
	if lb.Completed != 2 {
		t.Fatal("request still scaled after multiplier reset")
	}
}

// A dispatcher-mode executor parks its in-flight job and arms one prebound
// completion timer. A crash must disarm that timer: otherwise, after a
// restart, the dead incarnation's timer would fire under the new
// generation and complete the next job before its cost had elapsed.
func TestExecutorRestartIgnoresStaleJobTimer(t *testing.T) {
	eng := sim.NewEngine(1)
	cfg := DefaultConfig(ModeDispatcher)
	cfg.Workers = 1
	lb, err := New(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var doneAt []int64
	lb.OnResponse = func(kernel.ConnRef, Work) { doneAt = append(doneAt, eng.Now()) }
	lb.Start()
	conn := openConn(t, lb, 1, 8080)
	eng.RunUntil(int64(time.Millisecond))

	sendReq(lb, conn, 10*time.Millisecond, false) // dies with the crash
	eng.RunUntil(int64(3 * time.Millisecond))
	ex := lb.Workers[0]
	ex.Crash(false)
	ex.Restart()

	eng.RunUntil(int64(4 * time.Millisecond))
	sent := eng.Now()
	sendReq(lb, conn, 20*time.Millisecond, false)
	eng.RunUntil(int64(50 * time.Millisecond))

	if len(doneAt) != 1 {
		t.Fatalf("completed %d requests, want 1 (the pre-crash job is lost)", len(doneAt))
	}
	if took := doneAt[0] - sent; took < int64(20*time.Millisecond) {
		t.Fatalf("post-restart job finished after %v, before its 20ms cost", time.Duration(took))
	}
}

// Regression: the dispatcher's least-loaded pick did not skip crashed
// executors. A crashed executor's empty queue ties at zero queued cost and,
// as the first worker, won the pick; the job then sat in the dead queue
// until Restart dropped it.
func TestDispatcherSkipsCrashedExecutor(t *testing.T) {
	eng := sim.NewEngine(1)
	cfg := DefaultConfig(ModeDispatcher)
	cfg.Workers = 2
	lb, err := New(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	lb.Start()
	eng.RunUntil(int64(time.Millisecond))
	lb.Workers[0].Crash(false)

	const reqs = 10
	for i := 0; i < reqs; i++ {
		i := i
		eng.At(eng.Now()+int64(i)*int64(100*time.Microsecond), func() {
			c := openConn(t, lb, uint32(i), 8080)
			eng.After(10*time.Microsecond, func() {
				sendReq(lb, c, 20*time.Microsecond, true)
			})
		})
	}
	eng.RunUntil(eng.Now() + int64(50*time.Millisecond))
	if lb.Completed != reqs {
		t.Fatalf("completed %d of %d requests: jobs stranded on the crashed executor", lb.Completed, reqs)
	}
}

package l7lb

import (
	"time"

	"hermes/internal/core"
	"hermes/internal/kernel"
	"hermes/internal/sim"
	"hermes/internal/stats"
	"hermes/internal/telemetry"
	"hermes/internal/tracing"
)

// Worker is one LB worker process pinned to one CPU core, running the
// run-to-completion epoll event loop of Fig. A1 (baselines) or Fig. 9
// (Hermes). CPU occupancy is modelled in virtual time: handling an event
// charges its cost to the worker's core and defers the next step until the
// cost has elapsed, so an expensive request really does block everything
// behind it — the mechanism behind worker hangs (§5.2.1).
type Worker struct {
	// ID is the worker index (== CPU core == reuseport socket index).
	ID int

	lb   *LB
	ep   *kernel.Epoll
	hook *core.WorkerHook // Hermes instrumentation (Fig. 9); nil in the baselines

	crashed  bool
	executor bool // ModeDispatcher executors run job queues, not epoll loops

	// gen is bumped by Crash and Restart so callbacks scheduled against a
	// previous incarnation of the worker (event completions, hang releases)
	// become no-ops instead of resurrecting state.
	gen uint64
	// hangUntilNS, while in the future, models a busy-spinning hang: the
	// worker burns CPU without making progress (Appendix C case 1). The
	// spinStartNS/spinEndNS bracket feeds the spin into BusyNS.
	hangUntilNS int64
	spinStartNS int64
	spinEndNS   int64
	// costMult scales every handled event's CPU cost (slow-worker fault).
	costMult float64

	// conns is the worker's connection table. Each owned socket carries an
	// owner stamp (worker ID, slot index) instead of a side map, so adds
	// and swap-removes are O(1) with no hashing or per-conn map growth.
	conns []*kernel.Socket

	listenSocks []*kernel.Socket // accept-mutex: sockets registered while holding

	waitStart    int64
	batchStart   int64
	prevSpurious uint64

	// onWakeFn is the pre-bound onWake method value: binding it per Wait
	// call would allocate on every loop iteration.
	onWakeFn func([]kernel.Event)

	// Batched dispatch state. The in-flight event burst, its cursor, and
	// the pending serve completion live on the worker, and the loop's
	// continuations are the pre-bound fns below — so steady-state dispatch
	// schedules no closures at all. Exactly one continuation timer is
	// outstanding at a time (the per-event cost charge or the loop tail);
	// Crash cancels it so a restarted incarnation can never be driven by a
	// stale timer, and contGen backstops the gate-deferred paths.
	batchEvs  []kernel.Event
	batchIdx  int
	contGen   uint64
	contTimer sim.Timer
	serv      servState

	loopEnterFn  func()
	onWakeGateFn func()
	afterEventFn func()
	endLoopFn    func()

	// ConnTableGrows counts conns-slice regrowths after construction; the
	// scale harness pins it at zero when a capacity hint is configured.
	ConnTableGrows uint64

	// Executor state (ModeDispatcher). jobs[jobHead:] is the queue; while
	// jobRunning, jobs[jobHead] is the job in flight, whose completion is
	// the pre-bound afterJobFn (armed in contTimer under contGen, like the
	// event loop's continuations — an executor runs no epoll loop).
	jobs         []execJob
	jobHead      int
	jobRunning   bool
	queuedCostNS int64
	afterJobFn   func()

	// busyDoneNS is CPU time of finished work; jobStartNS/jobEndNS bracket
	// the in-flight piece so BusyNS never over-reports a long job that
	// extends past the observation instant.
	busyDoneNS int64
	jobStartNS int64
	jobEndNS   int64
	// Completed counts requests finished on this worker.
	Completed uint64
	// Accepted counts connections accepted.
	Accepted uint64
	// ResetConns counts connections reset by pool exhaustion or shedding.
	ResetConns uint64
	// Restarts counts recoveries from a crash.
	Restarts uint64

	// Detailed per-worker distributions (enabled by Config.DetailedStats).
	EventsPerWait *stats.Sample // Fig. 4
	BatchProcNS   *stats.Sample // Fig. 5a
	BlockNS       *stats.Sample // Fig. 5b

	// Telemetry slot handles (nil = disabled, see Config.Telemetry).
	telServed   *telemetry.Counter
	telAccepted *telemetry.Counter
	telOpen     *telemetry.Timeline
	// tr is this worker's flight-recorder track (nil = disabled, see
	// Config.Tracer).
	tr *tracing.WorkerTrace
}

// execJob is one request the dispatcher handed to an executor.
type execJob struct {
	sock    *kernel.Socket
	connRef kernel.ConnRef
	work    Work
}

// servState carries an EvReadable serve from handle to its completion in
// afterEvent — the fields the old per-event completion closure captured.
// Only one serve is in flight per worker (run-to-completion), so a single
// embedded struct replaces a closure allocation per request.
type servState struct {
	active     bool
	sock       *kernel.Socket
	connRef    kernel.ConnRef
	work       Work
	serveStart int64
}

func newWorker(lb *LB, id int, hook *core.WorkerHook) *Worker {
	// Pre-size the connection table so the steady-state accept path does
	// not rehash/regrow: from the cell's planned per-worker connection
	// count when the driver provides one, bounded by the pool cap.
	hint := 256
	if h := lb.Cfg.ConnsPerWorkerHint; h > hint {
		hint = h
	}
	if max := lb.Cfg.MaxConnsPerWorker; max > 0 && max < hint {
		hint = max
	}
	w := &Worker{
		ID:       id,
		lb:       lb,
		ep:       lb.NS.NewEpoll(),
		hook:     hook,
		costMult: 1,
		conns:    make([]*kernel.Socket, 0, hint),
	}
	w.onWakeFn = w.onWake
	w.loopEnterFn = w.loopEnter
	w.onWakeGateFn = func() { w.onWake(w.batchEvs) }
	w.afterEventFn = w.afterEvent
	w.endLoopFn = w.endLoopCont
	w.afterJobFn = w.afterJob
	if lb.Cfg.DetailedStats {
		w.EventsPerWait = &stats.Sample{}
		w.BatchProcNS = &stats.Sample{}
		w.BlockNS = &stats.Sample{}
	}
	// Slot this worker's telemetry handles (nil no-ops when disabled).
	w.telServed = lb.tel.served.At(id)
	w.telAccepted = lb.tel.accepted.At(id)
	w.telOpen = lb.tel.openConns.At(id)
	if id >= 0 {
		// The dispatcher core (id -1) gets its own track in newDispatcher.
		w.tr = lb.Cfg.Tracer.WorkerTrace(id)
	}
	w.instrumentEpoll()
	return w
}

// instrumentEpoll wires the current epoll instance to this worker's
// telemetry slots and trace track. Re-run after Restart builds a fresh
// instance, so a restarted worker keeps reporting into the same slots.
func (w *Worker) instrumentEpoll() {
	w.ep.Instrument(kernel.EpollInstruments{
		Wakeups:   w.lb.tel.epWakeups.At(w.ID),
		Spurious:  w.lb.tel.epSpurious.At(w.ID),
		Timeouts:  w.lb.tel.epTimeouts.At(w.ID),
		Events:    w.lb.tel.epEvents.At(w.ID),
		Residency: w.lb.tel.epWaitNS,
	})
	if w.ID >= 0 {
		w.ep.InstrumentTrace(w.tr)
	}
}

// Epoll exposes the worker's epoll instance (wiring and tests).
func (w *Worker) Epoll() *kernel.Epoll { return w.ep }

// OpenConns returns the number of live connections owned by this worker.
func (w *Worker) OpenConns() int { return len(w.conns) }

// ConnTableCap returns the connection table's current capacity (pre-sizing
// and regrowth checks).
func (w *Worker) ConnTableCap() int { return cap(w.conns) }

// SampleConn returns one of the worker's live connection sockets (nil if it
// has none) — used by the prober to reach every worker through real
// connections.
func (w *Worker) SampleConn() *kernel.Socket {
	if len(w.conns) == 0 {
		return nil
	}
	return w.conns[0]
}

// OwnsConn reports whether this worker holds the given connection socket.
func (w *Worker) OwnsConn(s *kernel.Socket) bool {
	tag, _, ok := s.Owner()
	return ok && tag == int32(w.ID)
}

// Crashed reports whether the worker has crashed.
func (w *Worker) Crashed() bool { return w.crashed }

// Crash kills the worker (§7 "How worker failures impact tenant services").
// With dropConns, its established connections are reset, notifying the
// workload's reset callback so clients can reconnect. As when a real
// process dies, the kernel closes its epoll fd: the outstanding waiter is
// cancelled and every watch (including listen sockets) leaves its socket's
// wait queue, so exclusive wakeup walks can no longer select — and lose —
// a wakeup on the dead worker. The reuseport listen socket, owned by the
// group rather than the process in this model, stays open until Restart,
// so steered connections queue behind the dead worker meanwhile.
func (w *Worker) Crash(dropConns bool) {
	if w.crashed {
		return
	}
	w.crashed = true
	w.gen++
	now := w.lb.Eng.Now()
	// Bank the elapsed fraction of in-flight work and spin: the CPU was
	// really spent even though the completion callback will never run.
	if w.jobEndNS > w.jobStartNS {
		end := now
		if w.jobEndNS < end {
			end = w.jobEndNS
		}
		if end > w.jobStartNS {
			w.busyDoneNS += end - w.jobStartNS
		}
		w.jobStartNS, w.jobEndNS = 0, 0
	}
	w.bankSpin(now)
	w.hangUntilNS = 0
	// The dead process takes its loop continuation with it: cancel the one
	// outstanding timer and drop any parked serve so a restarted incarnation
	// cannot be driven by — or complete — its predecessor's work.
	w.contTimer.Cancel()
	w.serv = servState{}
	w.ep.Close()
	if m := w.lb.mutex; m != nil && m.holder == w {
		w.releaseMutex()
	}
	if dropConns {
		for len(w.conns) > 0 {
			w.resetConn(w.conns[len(w.conns)-1])
		}
	}
}

// Restart brings a crashed worker back: a fresh process with a fresh epoll
// instance, re-registered on the mode's listen sockets (including its
// reuseport slot), with any connections stranded by a Crash(false) reset —
// the dead process's fds are unrecoverable. Telemetry and tracing keep
// flowing into the worker's existing slots.
func (w *Worker) Restart() {
	if !w.crashed {
		return
	}
	for len(w.conns) > 0 {
		w.resetConn(w.conns[len(w.conns)-1])
	}
	w.crashed = false
	w.gen++
	w.Restarts++
	w.hangUntilNS, w.spinStartNS, w.spinEndNS = 0, 0, 0
	w.jobStartNS, w.jobEndNS = 0, 0
	w.costMult = 1
	w.jobs, w.jobHead = w.jobs[:0], 0
	w.jobRunning = false
	w.queuedCostNS = 0
	w.ep = w.lb.NS.NewEpoll()
	w.instrumentEpoll()
	w.lb.registerWorkerSockets(w)
	w.Start()
}

// Hang busy-spins the worker for d: it stops fetching and handling events
// (its loop-enter timestamp goes stale — the paper's FilterTime signal)
// while still burning its core, then resumes where it left off. Overlapping
// hangs extend the spin rather than stacking.
func (w *Worker) Hang(d time.Duration) {
	if w.crashed || d <= 0 {
		return
	}
	now := w.lb.Eng.Now()
	until := now + int64(d)
	if until <= w.hangUntilNS {
		return
	}
	if w.spinEndNS > now {
		w.spinEndNS = until
	} else {
		w.bankSpin(now)
		start := now
		if w.jobEndNS > start {
			// An in-flight event charge finishes first; the spin takes over
			// from there so BusyNS never double-counts the core.
			start = w.jobEndNS
		}
		w.spinStartNS, w.spinEndNS = start, until
		if w.spinEndNS < w.spinStartNS {
			w.spinEndNS = w.spinStartNS
		}
	}
	w.hangUntilNS = until
}

// Hung reports whether the worker is currently inside an injected hang.
func (w *Worker) Hung() bool { return w.hangUntilNS > w.lb.Eng.Now() }

// bankSpin folds a finished spin bracket into busyDoneNS.
func (w *Worker) bankSpin(now int64) {
	if w.spinEndNS > w.spinStartNS {
		end := now
		if w.spinEndNS < end {
			end = w.spinEndNS
		}
		if end > w.spinStartNS {
			w.busyDoneNS += end - w.spinStartNS
		}
	}
	w.spinStartNS, w.spinEndNS = 0, 0
}

// SetCostMultiplier scales the CPU cost of every event this worker handles
// (slow-worker fault; 1 restores normal speed).
func (w *Worker) SetCostMultiplier(m float64) {
	if m <= 0 {
		m = 1
	}
	w.costMult = m
}

// CostMultiplier returns the current slow-worker scale factor.
func (w *Worker) CostMultiplier() float64 { return w.costMult }

func (w *Worker) scaleCost(d time.Duration) time.Duration {
	if w.costMult != 1 && d > 0 {
		return time.Duration(float64(d) * w.costMult)
	}
	return d
}

// gate defers fn until the current hang releases. It returns true when the
// worker is hung (fn will run at hangUntilNS, unless the worker crashes or
// the hang is extended, in which case fn re-gates).
func (w *Worker) gate(fn func()) bool {
	if w.hangUntilNS <= w.lb.Eng.Now() {
		return false
	}
	gen := w.gen
	w.lb.Eng.At(w.hangUntilNS, func() {
		if w.crashed || w.gen != gen {
			return
		}
		if w.gate(fn) {
			return // hang was extended; the spin bracket is still live
		}
		w.bankSpin(w.lb.Eng.Now())
		fn()
	})
	return true
}

// busy charges completed (instantaneous) CPU work.
func (w *Worker) busy(d time.Duration) {
	if d > 0 {
		w.busyDoneNS += int64(d)
	}
}

// beginWork marks the start of a deferred piece of work of duration d; the
// matching endWork (from the completion callback) banks it. Observations in
// between see only the elapsed fraction.
func (w *Worker) beginWork(d time.Duration) {
	if d <= 0 {
		return
	}
	now := w.lb.Eng.Now()
	w.jobStartNS, w.jobEndNS = now, now+int64(d)
}

func (w *Worker) endWork() {
	if w.jobEndNS > w.jobStartNS {
		w.busyDoneNS += w.jobEndNS - w.jobStartNS
	}
	w.jobStartNS, w.jobEndNS = 0, 0
}

// BusyNS returns accumulated virtual CPU time as of nowNS, including the
// elapsed parts of any in-flight job and any injected busy-spin.
func (w *Worker) BusyNS(nowNS int64) int64 {
	b := w.busyDoneNS
	if w.jobEndNS > w.jobStartNS {
		end := nowNS
		if w.jobEndNS < end {
			end = w.jobEndNS
		}
		if end > w.jobStartNS {
			b += end - w.jobStartNS
		}
	}
	if w.spinEndNS > w.spinStartNS {
		end := nowNS
		if w.spinEndNS < end {
			end = w.spinEndNS
		}
		if end > w.spinStartNS {
			b += end - w.spinStartNS
		}
	}
	return b
}

// Start schedules the first event-loop iteration.
func (w *Worker) Start() {
	if w.executor {
		return // executors are driven by the dispatcher
	}
	w.loopEnter()
}

func (w *Worker) loopEnter() {
	if w.crashed || w.gate(w.loopEnterFn) {
		return
	}
	now := w.lb.Eng.Now()
	w.hook.LoopEnter(now)
	w.telOpen.Record(now, int64(len(w.conns)))
	if w.lb.Cfg.ScheduleAtLoopStart && w.hook != nil {
		w.hook.ScheduleAndSync(now)
		w.busy(w.lb.Cfg.Costs.Schedule)
	}
	if w.lb.mutex != nil {
		w.tryAcquireMutex()
	}
	w.waitStart = now
	w.prevSpurious = w.ep.SpuriousWakeups
	w.ep.Wait(w.lb.Cfg.Hermes.MaxEvents, w.lb.Cfg.Hermes.EpollTimeout, w.onWakeFn)
}

func (w *Worker) onWake(evs []kernel.Event) {
	// A hung worker has fetched the batch but spins before touching it: the
	// events (and any queued connections behind them) stall until release.
	// The batch is parked on the worker so the gate continuation needs no
	// per-wake closure; the buffer is the epoll's scratch, stable until this
	// worker's next Wait.
	w.batchEvs = evs
	if w.crashed || w.gate(w.onWakeGateFn) {
		return
	}
	now := w.lb.Eng.Now()
	if w.BlockNS != nil {
		w.BlockNS.Add(float64(now - w.waitStart))
	}
	if w.EventsPerWait != nil {
		w.EventsPerWait.Add(float64(len(evs)))
	}
	w.hook.EventsFetched(len(evs))
	w.batchStart = now
	if len(evs) == 0 && w.ep.SpuriousWakeups > w.prevSpurious {
		// Thundering-herd loser: charge the wasted wakeup.
		w.busy(w.lb.Cfg.Costs.SpuriousWake)
	}
	w.batchIdx = 0
	w.processBatch()
}

func (w *Worker) processBatch() {
	if w.crashed {
		return
	}
	if w.batchIdx >= len(w.batchEvs) {
		w.endLoop()
		return
	}
	cost := w.handle(w.batchEvs[w.batchIdx])
	cost = w.scaleCost(cost)
	w.beginWork(cost)
	w.contGen = w.gen
	w.contTimer = w.lb.Eng.After(cost, w.afterEventFn)
}

// afterEvent finishes the event at the batch cursor once its CPU charge has
// elapsed (and any injected hang has released), then continues the batch.
func (w *Worker) afterEvent() {
	if w.crashed || w.gen != w.contGen {
		return
	}
	if w.gate(w.afterEventFn) {
		return
	}
	w.endWork()
	w.hook.EventHandled()
	if w.serv.active {
		w.finishServe()
	}
	ev := w.batchEvs[w.batchIdx]
	if w.lb.Cfg.EdgeTriggered && ev.Kind == kernel.EvReadable &&
		!ev.Sock.Closed() && ev.Sock.PendingData() > 0 {
		if p := w.lb.Cfg.Shed; p.Enabled && p.PendingThreshold > 0 &&
			ev.Sock.PendingData() > p.PendingThreshold {
			// Proactive degradation (Appendix C): RST the runaway
			// connection instead of staying trapped in its drain.
			w.ResetConns++
			w.lb.ConnsReset++
			w.resetConn(ev.Sock)
			w.busy(w.lb.Cfg.Costs.Close)
			w.batchIdx++
			w.processBatch()
			return
		}
		// Edge-triggered drain obligation: keep consuming this socket
		// before touching the rest of the loop — the trap of Appendix C
		// when data arrives faster than it is processed.
		w.hook.EventsFetched(1)
		w.processBatch()
		return
	}
	w.batchIdx++
	w.processBatch()
}

// finishServe completes the in-flight EvReadable serve parked by handle:
// completion accounting and Connection: close teardown.
func (w *Worker) finishServe() {
	s := w.serv
	w.serv = servState{}
	w.Completed++
	w.telServed.Inc()
	w.tr.Serve(uint64(s.connRef.ID()), s.work.ArrivalNS, s.serveStart, w.lb.Eng.Now(), s.work.Probe)
	w.lb.recordCompletion(w, s.connRef, s.work)
	if s.work.Close && s.connRef.Get() != nil {
		w.closeConn(s.sock)
	}
}

// handle applies an event's immediate effects and returns its CPU cost. An
// EvReadable serve parks its completion state in w.serv; afterEvent runs
// finishServe when the cost has elapsed.
func (w *Worker) handle(ev kernel.Event) time.Duration {
	costs := w.lb.Cfg.Costs
	switch ev.Kind {
	case kernel.EvAccept:
		conn, ok := ev.Sock.Accept()
		if !ok {
			// Raced by another worker (herd / shared-socket modes).
			return costs.SpuriousWake
		}
		w.Accepted++
		w.telAccepted.Inc()
		w.lb.tel.acceptWait.Observe(conn.AcceptedNS - conn.EstablishedNS)
		w.tr.Accept(uint64(conn.ID), conn.EstablishedNS, conn.AcceptedNS)
		if max := w.lb.Cfg.MaxConnsPerWorker; max > 0 && len(w.conns) >= max {
			// Connection pool exhausted: reset (§5.1.1).
			w.ResetConns++
			w.lb.ConnsReset++
			sock := conn.Sock()
			ref := conn.Ref()
			w.lb.NS.CloseSocket(sock)
			w.tr.Close(uint64(ref.ID()), w.lb.Eng.Now(), true)
			w.lb.notifyReset(ref)
			return costs.Close
		}
		w.addConn(conn.Sock())
		w.hook.ConnOpened()
		// Accept cost includes the dispatch overhead: O(#registered ports)
		// for shared-socket modes, O(#owned ports) for reuseport/Hermes
		// (§6.2 Case 1).
		return costs.Accept + w.lb.acceptExtra
	case kernel.EvReadable:
		payload, ok := ev.Sock.PopData()
		if !ok {
			return costs.SpuriousWake
		}
		work := payload.(Work)
		sock := ev.Sock
		// The completion fires after the cost elapses; by then the
		// connection may have been reset (crash, shed) and its socket
		// recycled into a different connection, so capture a checked ref
		// now rather than re-reading sock.Conn() later.
		connRef := sock.Conn().Ref()
		serveStart := w.lb.Eng.Now()
		w.serv = servState{
			active:     true,
			sock:       sock,
			connRef:    connRef,
			work:       work,
			serveStart: serveStart,
		}
		return work.Cost
	case kernel.EvHangup:
		w.closeConn(ev.Sock)
		return costs.Close
	default:
		return 0
	}
}

func (w *Worker) endLoop() {
	now := w.lb.Eng.Now()
	if w.BatchProcNS != nil && now > w.batchStart {
		w.BatchProcNS.Add(float64(now - w.batchStart))
	}

	var tail time.Duration
	if !w.lb.Cfg.ScheduleAtLoopStart && w.hook != nil {
		w.hook.ScheduleAndSync(now)
		tail += w.lb.Cfg.Costs.Schedule
	}
	if p := w.lb.Cfg.Shed; p.Enabled {
		for len(w.conns) > p.ConnThreshold {
			w.ResetConns++
			w.lb.ConnsReset++
			w.resetConn(w.conns[len(w.conns)-1])
			tail += w.lb.Cfg.Costs.Close
		}
	}
	if w.lb.mutex != nil && w.lb.mutex.holder == w {
		w.releaseMutex()
		tail += w.lb.Cfg.Costs.MutexOp
	}
	w.beginWork(tail)
	w.contGen = w.gen
	w.contTimer = w.lb.Eng.After(tail, w.endLoopFn)
}

// endLoopCont is the loop tail's pre-bound continuation: bank the tail cost
// and re-enter the loop.
func (w *Worker) endLoopCont() {
	if w.crashed || w.gen != w.contGen {
		return
	}
	w.endWork()
	w.loopEnter()
}

func (w *Worker) addConn(s *kernel.Socket) {
	if w.lb.Cfg.EdgeTriggered {
		w.ep.AddET(s)
	} else {
		w.ep.Add(s)
	}
	s.SetOwner(int32(w.ID), int32(len(w.conns)))
	if len(w.conns) == cap(w.conns) {
		w.ConnTableGrows++
	}
	w.conns = append(w.conns, s)
}

func (w *Worker) removeConn(s *kernel.Socket) {
	tag, pos, ok := s.Owner()
	if !ok || tag != int32(w.ID) {
		return
	}
	i, last := int(pos), len(w.conns)-1
	w.conns[i] = w.conns[last]
	w.conns[i].SetOwner(int32(w.ID), int32(i))
	w.conns[last] = nil
	w.conns = w.conns[:last]
	s.ClearOwner()
}

// closeConn tears down a connection in response to protocol events
// (hangup or Connection: close).
func (w *Worker) closeConn(s *kernel.Socket) {
	if s.Closed() {
		return
	}
	w.removeConn(s)
	w.hook.ConnClosed()
	w.lb.NS.CloseSocket(s)
	if c := s.Conn(); c != nil {
		w.tr.Close(uint64(c.ID), w.lb.Eng.Now(), false)
	}
}

// resetConn force-closes a connection (RST): pool exhaustion, shedding, or
// crash. The workload's reset callback fires so clients can reconnect.
func (w *Worker) resetConn(s *kernel.Socket) {
	if s.Closed() {
		return
	}
	// Capture the ref before CloseSocket recycles the pair: the ID is
	// intact until a later handshake reuses the object, which cannot
	// happen within this event.
	var ref kernel.ConnRef
	if c := s.Conn(); c != nil {
		ref = c.Ref()
	}
	w.removeConn(s)
	w.hook.ConnClosed()
	w.lb.NS.CloseSocket(s)
	if ref.Get() != nil {
		w.tr.Close(uint64(ref.ID()), w.lb.Eng.Now(), true)
	}
	w.lb.notifyReset(ref)
}

// --- accept-mutex mode ---

type acceptMutex struct {
	holder *Worker
	next   int // rotation cursor for handoff kicks
}

func (w *Worker) tryAcquireMutex() {
	m := w.lb.mutex
	if m.holder != nil {
		return
	}
	m.holder = w
	w.busy(w.lb.Cfg.Costs.MutexOp)
	for _, ls := range w.listenSocks {
		w.ep.Add(ls)
	}
}

func (w *Worker) releaseMutex() {
	for _, ls := range w.listenSocks {
		w.ep.Del(ls)
	}
	m := w.lb.mutex
	m.holder = nil
	// Hand off: kick one sleeping worker so the mutex is contended again
	// immediately rather than after somebody's epoll timeout (nginx
	// workers retry on their own wakeups / accept_mutex_delay).
	ws := w.lb.Workers
	for i := 0; i < len(ws); i++ {
		cand := ws[(m.next+i)%len(ws)]
		if cand != w && !cand.crashed && cand.ep.Blocked() {
			m.next = (m.next + i + 1) % len(ws)
			cand.ep.Kick()
			return
		}
	}
}

// --- dispatcher-mode executor ---

func (w *Worker) pushJob(j execJob) {
	if w.jobHead > 0 && len(w.jobs) == cap(w.jobs) {
		// Slide the live queue to the front instead of growing the array.
		n := copy(w.jobs, w.jobs[w.jobHead:])
		clear(w.jobs[n:])
		w.jobs, w.jobHead = w.jobs[:n], 0
	}
	w.jobs = append(w.jobs, j)
	w.queuedCostNS += int64(j.work.Cost)
	if !w.jobRunning {
		w.runNextJob()
	}
}

func (w *Worker) runNextJob() {
	if w.crashed || w.jobHead == len(w.jobs) {
		w.jobRunning = false
		return
	}
	w.jobRunning = true
	// queuedCostNS tracks the unscaled cost pushJob added, so the slow
	// multiplier applies only to the charge, not the queue accounting.
	cost := w.scaleCost(w.jobs[w.jobHead].work.Cost)
	w.beginWork(cost)
	w.contGen = w.gen
	w.contTimer = w.lb.Eng.After(cost, w.afterJobFn)
}

func (w *Worker) afterJob() {
	if w.crashed || w.gen != w.contGen {
		return
	}
	if w.gate(w.afterJobFn) {
		return
	}
	w.endWork()
	j := w.jobs[w.jobHead]
	w.jobs[w.jobHead] = execJob{}
	if w.jobHead++; w.jobHead == len(w.jobs) {
		w.jobs, w.jobHead = w.jobs[:0], 0
	}
	w.queuedCostNS -= int64(j.work.Cost)
	w.finishJob(j)
	w.runNextJob()
}

// finishJob completes a dispatched request: completion accounting, and
// Connection: close teardown on the dispatcher core, which owns the
// connection. The job ran contiguously for work.Cost ending now, so the
// serve span's start is recoverable without threading it through.
func (w *Worker) finishJob(j execJob) {
	w.Completed++
	end := w.lb.Eng.Now()
	w.tr.Serve(uint64(j.connRef.ID()), j.work.ArrivalNS, end-int64(j.work.Cost), end, j.work.Probe)
	w.lb.recordCompletion(w, j.connRef, j.work)
	if j.work.Close && j.connRef.Get() != nil {
		w.lb.Dispatcher.w.closeConn(j.sock)
	}
}

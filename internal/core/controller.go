package core

import (
	"fmt"
	"math"
	"sync/atomic"

	"hermes/internal/bitops"
	"hermes/internal/ebpf"
	"hermes/internal/kernel"
	"hermes/internal/shm"
	"hermes/internal/tracing"
)

// syncCache coalesces schedule_and_sync calls within one Config.SyncQuantum:
// the first caller of a quantum runs the full Snapshot → Schedule → map-sync
// pipeline and publishes its result here; later callers return it directly,
// skipping the O(workers) WST scan and the map-update syscall. Fields are
// independent atomics read without a lock: a torn read across a concurrent
// refill can pair one quantum's bitmap with a neighbour's counts, both of
// which were correctly published within the last quantum — exactly the
// staleness the quantum already admits (the kernel-facing bitmap itself is
// always the one the filling worker synced). Ordering matters only in that
// the filler stores lastNS last: a reader that observes the new timestamp
// observes payload stores no older than it.
type syncCache struct {
	lastNS atomic.Int64  // virtual time of the last real sync; sentinel = never
	gen    atomic.Uint64 // policy generation the cache was computed under
	bitmap atomic.Uint64
	meta   atomic.Uint64 // total | passed<<16 | alive<<32
}

// cacheNever marks an unfilled cache. Virtual clocks start near 0 and may be
// legitimately negative-ish in tests, so 0 is not usable as "never".
const cacheNever = math.MinInt64

func (sc *syncCache) init() { sc.lastNS.Store(cacheNever) }

// load returns the cached result if it is still valid at nowNS under policy
// generation gen and quantum q.
func (sc *syncCache) load(nowNS int64, gen uint64, q int64) (ScheduleResult, bool) {
	last := sc.lastNS.Load()
	if last == cacheNever || sc.gen.Load() != gen || nowNS < last || nowNS-last >= q {
		return ScheduleResult{}, false
	}
	meta := sc.meta.Load()
	return ScheduleResult{
		Bitmap: bitops.Bitmap64(sc.bitmap.Load()),
		Total:  int(meta & 0xffff),
		Passed: int(meta >> 16 & 0xffff),
		Alive:  int(meta >> 32 & 0xffff),
	}, true
}

// store publishes a freshly computed-and-synced result.
func (sc *syncCache) store(nowNS int64, gen uint64, res ScheduleResult) {
	sc.gen.Store(gen)
	sc.bitmap.Store(uint64(res.Bitmap))
	sc.meta.Store(uint64(res.Total)&0xffff | uint64(res.Passed)&0xffff<<16 | uint64(res.Alive)&0xffff<<32)
	sc.lastNS.Store(nowNS)
}

// group is one ≤64-worker slice of the fleet — one bitmap's worth (§7) —
// and the Hermes state its workers share: the Worker Status Table, the
// kernel-facing selection map, the sync-batching cache and the availability
// veto mask. Groups are independent control loops: a worker schedules over
// its own group only.
type group struct {
	wst       *shm.WST
	sel       *ebpf.ArrayMap
	cache     syncCache
	availMask atomic.Uint64 // bit i clear = slot i vetoed from every published bitmap
}

// Controller owns a fleet's Hermes state under one policy surface. Workers
// are partitioned into groups of at most 64 and the dispatch program first
// hashes a connection to a group, then bitmap-selects within it (§7). A fleet
// of ≤64 workers is one group: standard Hermes, with no level-1 pick at all.
// With GroupByLocalityHash as the level-1 key the grouping doubles as the
// cache-locality mode of Fig. A6; one worker per group degenerates to plain
// reuseport.
type Controller struct {
	cfg          atomic.Pointer[Config]
	order        atomic.Int32
	fallback     atomic.Bool // force reuseport fallback (publish empty bitmaps)
	singleWinner atomic.Bool // ablation: publish only the single best worker
	key          GroupKey
	table        *shm.Grouped
	groups       []group

	// Sync batching (Config.SyncQuantum). polGen counts policy mutations;
	// a cached result is only served while the generation it was computed
	// under is still current.
	polGen atomic.Uint64

	// Scheduling statistics (atomic: in real-goroutine deployments every
	// worker runs the scheduler concurrently).
	scheduleCalls atomic.Uint64
	syncs         atomic.Uint64
	syncBatched   atomic.Uint64
	passedSum     atomic.Uint64
	aliveSum      atomic.Uint64
	emptySets     atomic.Uint64

	tel Instruments
	tr  *tracing.ScheduleTrace
}

// New creates Hermes state for n workers split into ceil(n/64) groups, or
// into exactly the count WithGroups gives.
func New(n int, cfg Config, opts ...Option) (*Controller, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if n < 1 {
		return nil, fmt.Errorf("core: worker count %d < 1", n)
	}
	var o options
	for _, fn := range opts {
		fn(&o)
	}
	span := shm.GroupSize
	if o.groups > 0 {
		if n < o.groups || n%o.groups != 0 {
			return nil, fmt.Errorf("core: cannot split %d workers into %d equal groups", n, o.groups)
		}
		if span = n / o.groups; span > shm.GroupSize {
			return nil, fmt.Errorf("core: group span %d exceeds %d", span, shm.GroupSize)
		}
	}
	c := &Controller{key: o.key, table: shm.NewGroupedSpan(n, span)}
	c.groups = make([]group, c.table.Groups())
	for gi := range c.groups {
		g := &c.groups[gi]
		g.wst = c.table.Group(gi)
		g.sel = ebpf.NewArrayMap(1)
		g.cache.init()
		g.availMask.Store(^uint64(0))
	}
	c.cfg.Store(&cfg)
	return c, nil
}

// SetWorkerAvailable vetoes (ok=false) or re-admits (ok=true) one worker in
// every bitmap its group publishes. The veto is ANDed onto Algorithm 1's
// result after the cascade, so an external availability signal — backend
// health, circuit state, a drain in progress — flows through the same
// selection map the kernel dispatch program reads: worker-load steering and
// availability become one decision. Vetoing a whole group yields its empty
// set, i.e. the kernel's reuseport-hash fallback (Algorithm 2), never a black
// hole. Takes effect on the next schedule_and_sync even mid-quantum.
func (c *Controller) SetWorkerAvailable(id int, ok bool) error {
	if id < 0 || id >= c.Workers() {
		return fmt.Errorf("core: worker %d outside 0..%d", id, c.Workers()-1)
	}
	gi, slot := c.table.Locate(id)
	mask := &c.groups[gi].availMask
	for {
		old := mask.Load()
		next := old | 1<<uint(slot)
		if !ok {
			next = old &^ (1 << uint(slot))
		}
		if old == next {
			return nil
		}
		if mask.CompareAndSwap(old, next) {
			c.polGen.Add(1)
			return nil
		}
	}
}

// AvailableMask returns group gi's availability veto mask (bit i set = slot
// i eligible).
func (c *Controller) AvailableMask(gi int) uint64 { return c.groups[gi].availMask.Load() }

// SetFilterOrder overrides the filter cascade (ablations, live policy).
func (c *Controller) SetFilterOrder(o FilterOrder) {
	c.order.Store(int32(o))
	c.polGen.Add(1)
}

// FilterOrder returns the active cascade order.
func (c *Controller) FilterOrder() FilterOrder { return FilterOrder(c.order.Load()) }

// Config returns the controller's current configuration.
func (c *Controller) Config() Config { return *c.cfg.Load() }

// SetConfig replaces the scheduling policy at runtime — the dynamic policy
// updates the paper's HTTP control interface performs (Appendix C). The
// update is an atomic pointer swap: in-flight scheduling passes finish on
// the old policy, subsequent passes use the new one. Note: MinWorkers is
// compiled into the attached dispatch program; changing it here affects
// future Attach calls only.
func (c *Controller) SetConfig(cfg Config) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	c.cfg.Store(&cfg)
	c.polGen.Add(1)
	return nil
}

// SetForceFallback toggles reuseport-hash fallback: while set, schedulers
// publish empty bitmaps so the kernel dispatches by plain hashing
// (Appendix C: the control interface "supports fallbacks to reuseport").
// Toggling takes effect on the next schedule_and_sync even mid-quantum.
func (c *Controller) SetForceFallback(on bool) {
	c.fallback.Store(on)
	c.polGen.Add(1)
}

// ForceFallback reports whether fallback mode is on.
func (c *Controller) ForceFallback() bool { return c.fallback.Load() }

// SetSingleWinner enables the single-winner ablation: instead of the
// two-stage coarse/fine filtering, the scheduler publishes only the one
// best worker. Because userspace updates far less often than connections
// arrive, the kernel then funnels every new connection to that worker until
// the next sync — the overload failure §5.3.2's two-stage design prevents.
func (c *Controller) SetSingleWinner(on bool) {
	c.singleWinner.Store(on)
	c.polGen.Add(1)
}

// WST exposes group 0's worker status table (diagnostics and tests): the
// whole fleet's table when it has at most 64 workers.
func (c *Controller) WST() *shm.WST { return c.groups[0].wst }

// Table exposes every group's worker status table.
func (c *Controller) Table() *shm.Grouped { return c.table }

// SelMap exposes group gi's kernel-facing selection map (M_sel).
func (c *Controller) SelMap(gi int) *ebpf.ArrayMap { return c.groups[gi].sel }

// Groups returns the group count.
func (c *Controller) Groups() int { return len(c.groups) }

// Workers returns the worker count.
func (c *Controller) Workers() int { return c.table.Workers() }

// sockets returns the reuseport group's sockets, which must be one per
// worker: socket i belongs to worker i.
func (c *Controller) sockets(rg *kernel.ReuseportGroup) ([]*kernel.Socket, error) {
	socks := rg.Sockets()
	if len(socks) != c.Workers() {
		return nil, fmt.Errorf("core: group has %d sockets, controller has %d workers",
			len(socks), c.Workers())
	}
	return socks, nil
}

// AttachEBPF builds the Algorithm 2 bytecode over this controller's
// selection maps and the reuseport group's sockets, verifies it, and
// installs it at the group's SO_ATTACH_REUSEPORT_EBPF hook. Socket i must
// belong to worker i.
func (c *Controller) AttachEBPF(rg *kernel.ReuseportGroup) error {
	socks, err := c.sockets(rg)
	if err != nil {
		return err
	}
	groups := make([]GroupMaps, len(c.groups))
	for gi := range c.groups {
		span := c.groups[gi].wst.Workers()
		sa := ebpf.NewSockArray(span)
		for slot := 0; slot < span; slot++ {
			if err := sa.Put(uint32(slot), socks[c.table.GlobalID(gi, slot)]); err != nil {
				return err
			}
		}
		groups[gi] = GroupMaps{Sel: c.groups[gi].sel, Socks: sa}
	}
	prog, err := BuildDispatchProgram(groups, c.Config().MinWorkers, c.key)
	if err != nil {
		return err
	}
	rg.AttachProgram(prog)
	return nil
}

// AttachNative installs the native-Go dispatch twin (the JIT-compiled
// program's stand-in) on the reuseport group.
func (c *Controller) AttachNative(rg *kernel.ReuseportGroup) error {
	socks, err := c.sockets(rg)
	if err != nil {
		return err
	}
	min := c.Config().MinWorkers
	rg.AttachNative(func(hash, localityHash uint32) (*kernel.Socket, bool) {
		gi, rankHash := route(c.key, len(c.groups), hash, localityHash)
		bitmap, _ := c.groups[gi].sel.Lookup(0)
		w, ok := NativeSelect(bitmap, rankHash, min)
		if !ok {
			return nil, false
		}
		return socks[c.table.GlobalID(gi, w)], true
	})
	return nil
}

// Instrument wires telemetry for Algorithm 1 decisions.
func (c *Controller) Instrument(ins Instruments) { c.tel = ins }

// InstrumentTrace wires the flight recorder into schedule_and_sync passes.
func (c *Controller) InstrumentTrace(tr *tracing.ScheduleTrace) { c.tr = tr }

// NewWorkerHook returns global worker id's instrumentation handle — the few
// lines Hermes adds to the epoll event loop (Fig. 9). It publishes to and
// schedules over the worker's own group.
func (c *Controller) NewWorkerHook(id int) *WorkerHook {
	gi, slot := c.table.Locate(id)
	g := &c.groups[gi]
	return &WorkerHook{
		c:   c,
		g:   g,
		id:  id,
		w:   g.wst.Writer(slot),
		buf: make([]shm.Metrics, 0, g.wst.Workers()),
	}
}

// scheduleAndSync is the shared implementation behind every worker's
// schedule_and_sync() call over group g.
func (c *Controller) scheduleAndSync(g *group, nowNS int64, buf []shm.Metrics) (ScheduleResult, []shm.Metrics) {
	cfg := c.cfg.Load()
	gen := c.polGen.Load()
	batching := cfg.SyncQuantum > 0 && !c.fallback.Load() && !c.singleWinner.Load()
	if batching {
		if res, ok := g.cache.load(nowNS, gen, int64(cfg.SyncQuantum)); ok {
			c.syncBatched.Add(1)
			c.tel.SyncBatched.Inc()
			return res, buf
		}
	}

	buf = g.wst.Snapshot(buf[:0])
	var res ScheduleResult
	switch {
	case c.fallback.Load():
		res = ScheduleResult{Total: len(buf)} // empty set → kernel hash fallback
	case c.singleWinner.Load():
		res = ScheduleSingleWinner(nowNS, buf, *cfg)
	default:
		res = Schedule(nowNS, buf, *cfg, FilterOrder(c.order.Load()))
	}

	// Availability veto (SetWorkerAvailable): drop vetoed workers from the
	// published set. Applied after the cascade so the veto and the load
	// filters land in the same bitmap; all-ones (the default) skips the
	// branch entirely, keeping the unvetoed path bit-for-bit unchanged.
	if mask := g.availMask.Load(); mask != ^uint64(0) {
		if bm := uint64(res.Bitmap) & mask; bm != uint64(res.Bitmap) {
			res.Bitmap = bitops.Bitmap64(bm)
			res.Passed = bitops.PopCount64(bm)
		}
	}

	c.scheduleCalls.Add(1)
	c.aliveSum.Add(uint64(res.Alive))
	c.passedSum.Add(uint64(res.Passed))
	if res.Passed == 0 {
		c.emptySets.Add(1)
		c.tel.EmptySets.Inc()
	}
	c.tel.Recomputes.Inc()
	c.tel.WSTReads.Add(uint64(len(buf)))
	c.tel.Passed.Observe(int64(res.Passed))

	// Publish: shared-memory word for userspace observers, eBPF map for the
	// kernel dispatcher. Both are single atomic stores; concurrent workers
	// race benignly (last write wins with a complete bitmap, §5.3.2).
	g.wst.StoreSelection(uint64(res.Bitmap))
	if err := g.sel.Update(0, uint64(res.Bitmap)); err == nil {
		c.syncs.Add(1)
		c.tel.Syncs.Inc()
		// Only a successfully synced default-path result may serve a
		// quantum: the fallback and single-winner policies are deliberately
		// exempt from coalescing (they are ablation/override modes whose
		// tests flip them between calls at one instant), and a failed map
		// update must not suppress the next worker's retry.
		if batching {
			g.cache.store(nowNS, gen, res)
		}
	}
	return res, buf
}

// Stats is a snapshot of scheduling counters.
type Stats struct {
	ScheduleCalls uint64  // schedule_and_sync invocations that recomputed
	Syncs         uint64  // successful kernel map updates (syscalls)
	Batched       uint64  // invocations coalesced into a quantum's cached result
	AvgAlive      float64 // mean workers surviving the time filter
	AvgPassed     float64 // mean workers passing the whole cascade
	EmptySets     uint64  // passes that selected nobody (kernel fallback)
}

// Stats returns accumulated scheduling statistics.
func (c *Controller) Stats() Stats {
	calls := c.scheduleCalls.Load()
	s := Stats{
		ScheduleCalls: calls,
		Syncs:         c.syncs.Load(),
		Batched:       c.syncBatched.Load(),
		EmptySets:     c.emptySets.Load(),
	}
	if calls > 0 {
		s.AvgAlive = float64(c.aliveSum.Load()) / float64(calls)
		s.AvgPassed = float64(c.passedSum.Load()) / float64(calls)
	}
	return s
}

// WorkerHook is one worker's view of Hermes: metric publication plus the
// embedded scheduler. Methods map 1:1 onto the Fig. 9 instrumentation.
// A hook is owned by a single worker and is not safe for concurrent use
// (matching per-process ownership of WST partitions). The publication
// methods are no-ops on a nil hook — the unmodified event loop of the
// baseline modes; ScheduleAndSync needs a live one.
type WorkerHook struct {
	c   *Controller
	g   *group
	id  int // global worker id (the trace track)
	w   shm.Writer
	buf []shm.Metrics
}

// LoopEnter publishes the event-loop entry timestamp (shm_avail_update,
// Fig. 9 line 12).
func (h *WorkerHook) LoopEnter(nowNS int64) {
	if h != nil {
		h.w.SetLoopEnter(nowNS)
	}
}

// EventsFetched adds the epoll_wait batch size to the pending-event count
// (Fig. 9 line 14).
func (h *WorkerHook) EventsFetched(n int) {
	if h != nil && n > 0 {
		h.w.AddBusy(int64(n))
	}
}

// EventHandled decrements the pending-event count (Fig. 9 line 18).
func (h *WorkerHook) EventHandled() {
	if h != nil {
		h.w.AddBusy(-1)
	}
}

// ConnOpened increments the accumulated-connection count (Fig. 9 line 25).
func (h *WorkerHook) ConnOpened() {
	if h != nil {
		h.w.AddConn(1)
	}
}

// ConnClosed decrements the accumulated-connection count (Fig. 9 line 37).
func (h *WorkerHook) ConnClosed() {
	if h != nil {
		h.w.AddConn(-1)
	}
}

// ScheduleAndSync runs Algorithm 1 over the worker's group and synchronizes
// the result to the group's selection map — the schedule_and_sync() call at
// the end of the event loop (Fig. 9 line 20).
func (h *WorkerHook) ScheduleAndSync(nowNS int64) ScheduleResult {
	res, buf := h.c.scheduleAndSync(h.g, nowNS, h.buf)
	h.buf = buf
	h.c.tr.Pass(h.id, nowNS, res.Passed, res.Total)
	return res
}

// Metrics returns this worker's own published metrics (diagnostics).
func (h *WorkerHook) Metrics() shm.Metrics { return h.w.Read() }

package l7lb

import (
	"fmt"
	"time"

	"hermes/internal/core"
	"hermes/internal/kernel"
	"hermes/internal/sim"
	"hermes/internal/stats"
)

// LB is one simulated L7 LB device: a netstack, a set of workers, and the
// dispatch mode's wiring. Workload generators inject traffic through NS and
// observe results through the counters and samples here.
type LB struct {
	// Eng is the virtual clock everything runs on.
	Eng *sim.Engine
	// NS is the device's simulated kernel.
	NS *kernel.NetStack
	// Cfg is the build configuration.
	Cfg Config

	// Workers are the event-loop workers (executors in ModeDispatcher).
	Workers []*Worker
	// Dispatcher is the extra dispatcher pseudo-core (ModeDispatcher only).
	Dispatcher *dispatcher
	// Ctl is the Hermes controller (Hermes modes; nil in the baselines).
	Ctl *core.Controller

	groups      []*kernel.ReuseportGroup
	shared      []*kernel.Socket
	mutex       *acceptMutex
	acceptExtra time.Duration // per-accept dispatch overhead (mode-dependent)
	tel         lbInstruments
	probeSinks  []func(work Work, latencyNS int64)

	// Latency samples end-to-end request time (ms).
	Latency stats.Sample
	// ProbeLatency samples health-probe time (ms), Fig. 11.
	ProbeLatency stats.Sample
	// Completed counts finished requests (excluding probes).
	Completed uint64
	// ProbesCompleted counts finished probes.
	ProbesCompleted uint64
	// BytesIn / BytesOut total request/response bytes.
	BytesIn  uint64
	BytesOut uint64
	// ConnsReset counts RSTs from pool exhaustion, shedding, and crashes.
	ConnsReset uint64

	// OnResponse, if set, fires at each request completion — closed-loop
	// clients use it to send their next request. The conn ref must be
	// revalidated (ConnRef.Get) before use: the connection may have been
	// reset — and its pooled object recycled — between serve start and
	// completion.
	OnResponse func(conn kernel.ConnRef, work Work)
	// OnConnReset, if set, fires when the LB resets a connection, so the
	// workload can model client reconnects. The ref's ID is always the
	// reset connection's ID; Get still resolves within the callback.
	OnConnReset func(conn kernel.ConnRef)
}

// New assembles an LB on the engine. Call Start to begin the worker loops.
func New(eng *sim.Engine, cfg Config) (*LB, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}

	wake := kernel.WakeExclusiveLIFO
	switch cfg.Mode {
	case ModeHerd:
		wake = kernel.WakeHerd
	case ModeExclusiveRR:
		wake = kernel.WakeExclusiveRR
	case ModeIOUring:
		wake = kernel.WakeExclusiveFIFO
	}
	lb := &LB{
		Eng: eng,
		NS:  kernel.NewNetStack(eng, wake),
		Cfg: cfg,
	}

	switch cfg.Mode {
	case ModeExclusive, ModeExclusiveRR, ModeHerd, ModeAcceptMutex, ModeDispatcher, ModeIOUring:
		for _, p := range cfg.Ports {
			s, err := lb.NS.ListenShared(p, cfg.Backlog)
			if err != nil {
				return nil, err
			}
			lb.shared = append(lb.shared, s)
		}
	case ModeReuseport, ModeHermes, ModeHermesNative:
		for _, p := range cfg.Ports {
			g, err := lb.NS.ListenReuseport(p, cfg.Workers, cfg.Backlog)
			if err != nil {
				return nil, err
			}
			lb.groups = append(lb.groups, g)
		}
	default:
		return nil, fmt.Errorf("l7lb: unknown mode %v", cfg.Mode)
	}

	if cfg.Mode.UsesHermes() {
		// ≤64 workers are one group; larger fleets get the two-level
		// deployment (§7): hash to a ≤64-worker group, bitmap-select
		// within it.
		ctl, err := core.New(cfg.Workers, cfg.Hermes, core.WithGroupKey(core.GroupByTupleHash))
		if err != nil {
			return nil, err
		}
		lb.Ctl = ctl
		ctl.SetFilterOrder(cfg.FilterOrder)
		for _, g := range lb.groups {
			if cfg.Mode == ModeHermes {
				err = ctl.AttachEBPF(g)
			} else {
				err = ctl.AttachNative(g)
			}
			if err != nil {
				return nil, err
			}
		}
	}
	if cfg.Mode == ModeAcceptMutex {
		lb.mutex = &acceptMutex{}
	}
	wireTelemetry(lb)
	wireTracing(lb)

	for i := 0; i < cfg.Workers; i++ {
		var hook *core.WorkerHook // nil: the baselines' unmodified event loop
		if lb.Ctl != nil {
			hook = lb.Ctl.NewWorkerHook(i)
		}
		w := newWorker(lb, i, hook)
		lb.Workers = append(lb.Workers, w)
		lb.registerWorkerSockets(w)
	}
	if cfg.Mode == ModeDispatcher {
		lb.Dispatcher = newDispatcher(lb)
	}

	registered := cfg.RegisteredPorts
	if registered == 0 {
		registered = len(cfg.Ports)
	}
	switch cfg.Mode {
	case ModeReuseport, ModeHermes, ModeHermesNative:
		lb.acceptExtra = time.Duration(len(cfg.Ports)) * cfg.Costs.PerWatch
	default:
		lb.acceptExtra = time.Duration(registered) * cfg.Costs.PerWatch
	}
	return lb, nil
}

// Start launches all worker loops (and the dispatcher) at the current
// virtual time.
func (lb *LB) Start() {
	for _, w := range lb.Workers {
		w.Start()
	}
	if lb.Dispatcher != nil {
		lb.Dispatcher.start()
	}
}

// registerWorkerSockets wires a worker's epoll (or its mode-specific role)
// to the listening sockets: shared-socket modes register every listener,
// accept-mutex workers register lazily while holding the mutex, dispatcher
// executors run job queues instead, and reuseport/Hermes workers own their
// group slot. Called at build time and again when a crashed worker
// restarts with a fresh epoll instance.
func (lb *LB) registerWorkerSockets(w *Worker) {
	switch lb.Cfg.Mode {
	case ModeExclusive, ModeExclusiveRR, ModeHerd, ModeIOUring:
		for _, s := range lb.shared {
			w.ep.Add(s)
		}
	case ModeAcceptMutex:
		w.listenSocks = lb.shared
	case ModeDispatcher:
		w.executor = true
	case ModeReuseport, ModeHermes, ModeHermesNative:
		for _, g := range lb.groups {
			w.ep.Add(g.Sockets()[w.ID])
		}
	}
}

// Groups returns the per-port reuseport groups (reuseport/Hermes modes).
func (lb *LB) Groups() []*kernel.ReuseportGroup { return lb.groups }

// SharedSockets returns the shared listening sockets (shared-socket modes).
func (lb *LB) SharedSockets() []*kernel.Socket { return lb.shared }

// TotalBusyNS sums worker busy time as of now (plus the dispatcher's, if
// present).
func (lb *LB) TotalBusyNS() int64 {
	now := lb.Eng.Now()
	var t int64
	for _, w := range lb.Workers {
		t += w.BusyNS(now)
	}
	if lb.Dispatcher != nil {
		t += lb.Dispatcher.w.BusyNS(now)
	}
	return t
}

// WorkerConnCounts returns each worker's live connection count.
func (lb *LB) WorkerConnCounts() []int {
	out := make([]int, len(lb.Workers))
	for i, w := range lb.Workers {
		out[i] = w.OpenConns()
	}
	return out
}

func (lb *LB) recordCompletion(w *Worker, conn kernel.ConnRef, work Work) {
	now := lb.Eng.Now()
	lat := now - work.ArrivalNS
	if work.Probe {
		lb.ProbesCompleted++
		lb.ProbeLatency.AddDuration(lat)
		if i := int(work.ProbeSrc); i > 0 && i <= len(lb.probeSinks) {
			lb.probeSinks[i-1](work, lat)
		}
	} else {
		lb.Completed++
		lb.Latency.AddDuration(lat)
		lb.tel.latency.Observe(lat)
	}
	lb.BytesIn += uint64(work.Size)
	lb.BytesOut += uint64(work.RespSize)
	if lb.OnResponse != nil {
		lb.OnResponse(conn, work)
	}
}

// RegisterProbeSink adds a per-prober completion callback and returns the
// tag to stamp on that prober's probe Work (Work.ProbeSrc). Completions of
// tagged probes are forwarded with their latency, so several probers on one
// LB keep exact independent accounting instead of sharing the LB-global
// ProbesCompleted / ProbeLatency aggregates.
func (lb *LB) RegisterProbeSink(fn func(work Work, latencyNS int64)) int32 {
	lb.probeSinks = append(lb.probeSinks, fn)
	return int32(len(lb.probeSinks))
}

func (lb *LB) notifyReset(conn kernel.ConnRef) {
	if lb.OnConnReset != nil {
		lb.OnConnReset(conn)
	}
}

package faults

import (
	"math/rand"
	"time"

	"hermes/internal/ebpf"
	"hermes/internal/kernel"
	"hermes/internal/l7lb"
	"hermes/internal/telemetry"
	"hermes/internal/tracing"
)

// ProbeDropper is the prober surface the injector drives for probe-loss
// faults (probe.WorkerProber satisfies it).
type ProbeDropper interface {
	SetDrop(fn func() bool)
}

// Injector applies a Schedule to one LB on its virtual clock. All decisions
// are deterministic: victims are picked from sim state, the only randomness
// (per-probe loss) comes from the injector's own seeded generator, and every
// event lands at a scheduled instant — so runs with the same seed and
// schedule are byte-identical regardless of host parallelism.
type Injector struct {
	lb    *l7lb.LB
	sched Schedule
	rng   *rand.Rand

	// StaleFallback, if set before Start, arms the stale-bitmap recovery
	// path on every selection map (Hermes modes): entries not re-synced
	// within this age read as empty, so the kernel falls back to reuseport
	// hashing instead of steering on a stale bitmap during sync stalls.
	StaleFallback time.Duration

	// Injected counts applied fault events; Skipped counts events that did
	// not apply (no such worker, fault not applicable to the mode).
	Injected uint64
	Skipped  uint64
	// Restarts counts crash-scheduled worker restarts.
	Restarts uint64

	startNS     int64
	dropUntilNS int64
	dropProb    float64

	telInjected *telemetry.CounterVec
	telRestarts *telemetry.Counter
	tr          *tracing.FaultTrace
}

// NewInjector builds an injector for lb. seed drives probe-loss coin flips
// (and nothing else); the schedule itself is already deterministic.
func NewInjector(lb *l7lb.LB, sched Schedule, seed int64) *Injector {
	return &Injector{lb: lb, sched: sched, rng: rand.New(rand.NewSource(seed))}
}

// Instrument wires fault counters into sink (nil = disabled): one injected
// counter per fault kind plus a restart counter, catalogued in
// docs/TELEMETRY.md.
func (inj *Injector) Instrument(sink telemetry.Sink) {
	if sink == nil {
		return
	}
	inj.telInjected = sink.CounterVec(telemetry.Metric{
		Name: "faults.injected", Layer: "faults", Unit: "events",
		Help: "injected fault events by kind (hang, crash, slow, shrinkq, syncstall, probeloss)"}, numSchedulable)
	inj.telRestarts = sink.Counter(telemetry.Metric{
		Name: "faults.worker.restarts", Layer: "faults", Unit: "events",
		Help: "crashed workers brought back by a scheduled restart"})
}

// InstrumentTrace wires the flight recorder: every fault and restart emits
// a fault instant on the victim's track (kernel track for LB-wide faults).
func (inj *Injector) InstrumentTrace(tr *tracing.FaultTrace) { inj.tr = tr }

// AttachProber points a prober's loss hook at this injector's probe-loss
// window. Attach every prober whose stream the schedule should affect.
func (inj *Injector) AttachProber(p ProbeDropper) {
	p.SetDrop(func() bool {
		return inj.lb.Eng.Now() < inj.dropUntilNS && inj.rng.Float64() < inj.dropProb
	})
}

// Start arms the recovery fallback and schedules every event relative to
// the current virtual time.
func (inj *Injector) Start() {
	inj.startNS = inj.lb.Eng.Now()
	if inj.StaleFallback > 0 {
		eng := inj.lb.Eng
		for _, m := range inj.selMaps() {
			m.SetStaleness(eng.Now, int64(inj.StaleFallback))
		}
	}
	for _, ev := range inj.sched.Events {
		ev := ev
		inj.lb.Eng.At(inj.startNS+ev.AtNS, func() { inj.apply(ev) })
	}
}

// selMaps collects every group's selection map behind the LB; empty for
// non-Hermes modes.
func (inj *Injector) selMaps() []*ebpf.ArrayMap {
	c := inj.lb.Ctl
	if c == nil {
		return nil
	}
	out := make([]*ebpf.ArrayMap, c.Groups())
	for gi := range out {
		out[gi] = c.SelMap(gi)
	}
	return out
}

// victim resolves an event's target worker: a pinned id, or the most-loaded
// live worker at fire time (ties toward the lowest id). nil if no worker
// qualifies.
func (inj *Injector) victim(ev Event) *l7lb.Worker {
	ws := inj.lb.Workers
	if ev.Worker >= 0 {
		if ev.Worker >= len(ws) {
			return nil
		}
		return ws[ev.Worker]
	}
	var best *l7lb.Worker
	for _, w := range ws {
		if w.Crashed() {
			continue
		}
		if best == nil || w.OpenConns() > best.OpenConns() {
			best = w
		}
	}
	return best
}

func (inj *Injector) apply(ev Event) {
	eng := inj.lb.Eng
	now := eng.Now()
	switch ev.Kind {
	case Hang:
		w := inj.victim(ev)
		if w == nil || w.Crashed() {
			inj.Skipped++
			return
		}
		w.Hang(time.Duration(ev.DurNS))
		inj.record(ev.Kind, int32(w.ID), now, ev.DurNS)
	case Crash:
		w := inj.victim(ev)
		if w == nil || w.Crashed() {
			inj.Skipped++
			return
		}
		w.Crash(ev.Drop)
		inj.record(ev.Kind, int32(w.ID), now, ev.RestartNS)
		if ev.RestartNS > 0 {
			eng.After(time.Duration(ev.RestartNS), func() {
				if !w.Crashed() {
					return // something else (the watchdog) got there first
				}
				w.Restart()
				inj.Restarts++
				inj.telRestarts.Inc()
				inj.tr.Event(int32(w.ID), eng.Now(), int64(Restart), 0)
			})
		}
	case Slow:
		w := inj.victim(ev)
		if w == nil || w.Crashed() {
			inj.Skipped++
			return
		}
		w.SetCostMultiplier(ev.Factor)
		inj.record(ev.Kind, int32(w.ID), now, int64(ev.Factor*1000))
		if ev.DurNS > 0 {
			eng.After(time.Duration(ev.DurNS), func() { w.SetCostMultiplier(1) })
		}
	case ShrinkQueue:
		socks := inj.shrinkTargets(ev)
		if len(socks) == 0 {
			inj.Skipped++
			return
		}
		saved := make([]int, len(socks))
		for i, s := range socks {
			saved[i] = s.AcceptCap()
			s.SetAcceptCap(ev.Cap)
		}
		inj.record(ev.Kind, tracing.KernelTrack, now, int64(ev.Cap))
		if ev.DurNS > 0 {
			eng.After(time.Duration(ev.DurNS), func() {
				for i, s := range socks {
					s.SetAcceptCap(saved[i])
				}
			})
		}
	case SyncStall:
		maps := inj.selMaps()
		if len(maps) == 0 {
			inj.Skipped++
			return
		}
		end := now + ev.DurNS
		fail := func() bool { return ev.DurNS <= 0 || eng.Now() < end }
		for _, m := range maps {
			m.SetFailUpdates(fail)
		}
		inj.record(ev.Kind, tracing.KernelTrack, now, ev.DurNS)
		if ev.DurNS > 0 {
			eng.After(time.Duration(ev.DurNS), func() {
				for _, m := range maps {
					m.SetFailUpdates(nil)
				}
			})
		}
	case ProbeLoss:
		inj.dropProb = ev.Prob
		if ev.DurNS > 0 {
			inj.dropUntilNS = now + ev.DurNS
		} else {
			inj.dropUntilNS = 1<<63 - 1
		}
		inj.record(ev.Kind, tracing.KernelTrack, now, int64(ev.Prob*1000))
	default:
		inj.Skipped++
	}
}

// shrinkTargets picks the sockets an accept-queue shrink applies to: every
// shared listener in shared-socket modes (one queue, LB-wide blast), the
// victim worker's slot in each reuseport group otherwise.
func (inj *Injector) shrinkTargets(ev Event) []*kernel.Socket {
	if shared := inj.lb.SharedSockets(); len(shared) > 0 {
		return shared
	}
	w := inj.victim(ev)
	if w == nil {
		return nil
	}
	groups := inj.lb.Groups()
	out := make([]*kernel.Socket, 0, len(groups))
	for _, g := range groups {
		out = append(out, g.Sockets()[w.ID])
	}
	return out
}

func (inj *Injector) record(k Kind, track int32, nowNS, param int64) {
	inj.Injected++
	inj.telInjected.At(int(k)).Inc()
	inj.tr.Event(track, nowNS, int64(k), param)
}

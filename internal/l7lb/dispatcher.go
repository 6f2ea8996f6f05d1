package l7lb

import (
	"time"

	"hermes/internal/kernel"
)

// dispatcher implements the userspace-dispatcher baseline of §2.2: one
// dedicated pseudo-core fetches every epoll event (listen and connection
// sockets alike) and fans the work out to executor workers, always choosing
// the least-loaded queue. The design gives perfect job-level balance but
// serializes all event intake through one core — the bottleneck the paper
// predicts for high-CPS network workloads.
type dispatcher struct {
	lb *LB
	w  *Worker // the dispatcher's own core (accounting + epoll)

	// evs and idx are the in-flight event batch and its cursor, parked here
	// so the per-event continuation is the pre-bound afterEventFn rather
	// than a closure per event. onWakeFn is likewise bound once: binding
	// per Wait call allocates on every loop iteration.
	evs          []kernel.Event
	idx          int
	onWakeFn     func([]kernel.Event)
	afterEventFn func()
}

func newDispatcher(lb *LB) *dispatcher {
	d := &dispatcher{lb: lb, w: newWorker(lb, -1, nil)}
	d.onWakeFn = d.onWake
	d.afterEventFn = d.afterEvent
	// The dispatcher core traces on the track one past the executors (the
	// kernel track is reserved for the netstack).
	d.w.tr = lb.Cfg.Tracer.WorkerTrace(lb.Cfg.Workers)
	d.w.ep.InstrumentTrace(d.w.tr)
	for _, s := range lb.shared {
		d.w.ep.Add(s)
	}
	return d
}

func (d *dispatcher) start() { d.loop() }

func (d *dispatcher) loop() {
	if d.w.crashed {
		return
	}
	d.w.waitStart = d.lb.Eng.Now()
	d.w.ep.Wait(d.lb.Cfg.Hermes.MaxEvents, d.lb.Cfg.Hermes.EpollTimeout, d.onWakeFn)
}

func (d *dispatcher) onWake(evs []kernel.Event) {
	if d.w.crashed {
		return
	}
	d.evs, d.idx = evs, 0
	d.processBatch()
}

func (d *dispatcher) processBatch() {
	if d.idx >= len(d.evs) {
		d.loop()
		return
	}
	cost := d.handle(d.evs[d.idx])
	d.w.beginWork(cost)
	d.lb.Eng.After(cost, d.afterEventFn)
}

// afterEvent banks the current event's intake cost and moves to the next.
func (d *dispatcher) afterEvent() {
	d.w.endWork()
	d.idx++
	d.processBatch()
}

// handle runs on the dispatcher core: it performs the cheap event intake
// itself and pushes the expensive request processing to an executor.
func (d *dispatcher) handle(ev kernel.Event) time.Duration {
	costs := d.lb.Cfg.Costs
	switch ev.Kind {
	case kernel.EvAccept:
		conn, ok := ev.Sock.Accept()
		if !ok {
			return costs.SpuriousWake
		}
		d.w.Accepted++
		d.w.tr.Accept(uint64(conn.ID), conn.EstablishedNS, conn.AcceptedNS)
		d.w.addConn(conn.Sock())
		return costs.Accept + costs.Dispatch
	case kernel.EvReadable:
		payload, ok := ev.Sock.PopData()
		if !ok {
			return costs.SpuriousWake
		}
		// The executor's completion fires later; capture a checked ref now
		// in case the connection is reset and recycled meanwhile.
		d.leastLoaded().pushJob(execJob{
			sock:    ev.Sock,
			connRef: ev.Sock.Conn().Ref(),
			work:    payload.(Work),
		})
		return costs.Dispatch
	case kernel.EvHangup:
		d.w.closeConn(ev.Sock)
		return costs.Close
	default:
		return 0
	}
}

// leastLoaded picks the live executor with the least queued work. A crashed
// executor is skipped: a job queued there would sit until Restart drops it.
// With every executor down, the least-loaded of them is still returned.
func (d *dispatcher) leastLoaded() *Worker {
	var best, live *Worker
	for _, w := range d.lb.Workers {
		if best == nil || w.queuedCostNS < best.queuedCostNS {
			best = w
		}
		if !w.crashed && (live == nil || w.queuedCostNS < live.queuedCostNS) {
			live = w
		}
	}
	if live != nil {
		return live
	}
	return best
}

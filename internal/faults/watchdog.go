package faults

import (
	"time"

	"hermes/internal/l7lb"
	"hermes/internal/shm"
	"hermes/internal/telemetry"
	"hermes/internal/tracing"
)

// Watchdog detects hung workers from WST loop-enter staleness — the same
// FilterTime signal the Hermes scheduler uses to keep hung workers out of
// the selection bitmap (§5.2.1) — and optionally drives recovery: a flagged
// worker is crashed (resetting its connections, as an external supervisor's
// SIGKILL would) and restarted after RestartDelay. It requires the WST, so
// it only runs on Hermes modes; baselines have no hang signal to watch,
// which is exactly the operational gap the faults experiment quantifies.
type Watchdog struct {
	// Interval between scans.
	Interval time.Duration
	// Threshold is the loop-enter staleness that flags a worker (default:
	// the controller's HangThreshold).
	Threshold time.Duration
	// AutoRestart crashes and restarts flagged workers.
	AutoRestart bool
	// RestartDelay is the crash-to-restart delay under AutoRestart.
	RestartDelay time.Duration

	// Detections counts workers flagged as hung.
	Detections uint64
	// Restarts counts watchdog-driven restarts.
	Restarts uint64
	// DetectionNS records, per detection, the delay between the scan that
	// flagged the worker and its last loop entry (how stale it had gone).
	DetectionNS []int64

	lb      *l7lb.LB
	wst     *shm.Grouped
	flagged []bool
	buf     []shm.Metrics

	telDetections *telemetry.Counter
	telRestarts   *telemetry.Counter
	tr            *tracing.FaultTrace
}

// NewWatchdog builds a watchdog for lb, scanning every worker group. Returns
// nil if the LB has no WST to watch (non-Hermes modes).
func NewWatchdog(lb *l7lb.LB, interval time.Duration) *Watchdog {
	if lb.Ctl == nil {
		return nil
	}
	return &Watchdog{
		Interval:  interval,
		Threshold: lb.Ctl.Config().HangThreshold,
		lb:        lb,
		wst:       lb.Ctl.Table(),
		flagged:   make([]bool, len(lb.Workers)),
	}
}

// Instrument wires detection/restart counters into sink (nil = disabled).
func (d *Watchdog) Instrument(sink telemetry.Sink) {
	if d == nil || sink == nil {
		return
	}
	d.telDetections = sink.Counter(telemetry.Metric{
		Name: "faults.watchdog.detections", Layer: "faults", Unit: "events",
		Help: "workers flagged hung by WST loop-enter staleness"})
	d.telRestarts = sink.Counter(telemetry.Metric{
		Name: "faults.watchdog.restarts", Layer: "faults", Unit: "events",
		Help: "watchdog-driven crash+restart recoveries"})
}

// InstrumentTrace wires the flight recorder (detect/restart instants on the
// victim's track).
func (d *Watchdog) InstrumentTrace(tr *tracing.FaultTrace) {
	if d == nil {
		return
	}
	d.tr = tr
}

// Start scans every Interval over [now, now+dur). Safe on nil (no WST).
func (d *Watchdog) Start(dur time.Duration) {
	if d == nil {
		return
	}
	end := d.lb.Eng.Now() + int64(dur)
	d.scheduleScan(d.lb.Eng.Now(), end)
}

func (d *Watchdog) scheduleScan(prev, end int64) {
	next := prev + int64(d.Interval)
	if next >= end {
		return
	}
	d.lb.Eng.At(next, func() {
		d.scan(next)
		d.scheduleScan(next, end)
	})
}

func (d *Watchdog) scan(nowNS int64) {
	d.buf = d.wst.Snapshot(d.buf[:0])
	thresh := int64(d.Threshold)
	for id, m := range d.buf {
		if id >= len(d.lb.Workers) {
			break
		}
		w := d.lb.Workers[id]
		stale := nowNS - m.LoopEnterNS
		if w.Crashed() || stale <= thresh {
			if stale <= thresh {
				d.flagged[id] = false
			}
			continue
		}
		if d.flagged[id] {
			continue // already detected this hang
		}
		d.flagged[id] = true
		d.Detections++
		d.DetectionNS = append(d.DetectionNS, stale)
		d.telDetections.Inc()
		d.tr.Event(int32(id), nowNS, int64(Detect), stale)
		if d.AutoRestart {
			// Recovery mirrors a supervisor SIGKILL + respawn: the hung
			// process cannot be revived in place, so its connections reset
			// and a fresh worker takes over the slot after RestartDelay.
			w.Crash(true)
			d.lb.Eng.After(d.RestartDelay, func() {
				if !w.Crashed() {
					return
				}
				w.Restart()
				d.Restarts++
				d.telRestarts.Inc()
				d.tr.Event(int32(id), d.lb.Eng.Now(), int64(Restart), 0)
			})
		}
	}
}

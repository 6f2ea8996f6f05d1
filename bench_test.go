// Top-level benchmark harness: one testing.B benchmark per table and figure
// of the paper's evaluation, plus the ablation benches DESIGN.md calls out.
// Each iteration runs a scaled-down instance of the experiment; use
// cmd/hermes-bench for full-size paper-style output.
//
//	go test -bench=. -benchmem
package hermes_test

import (
	"testing"
	"time"

	"hermes/internal/bench"
	"hermes/internal/core"
	"hermes/internal/ebpf"
	"hermes/internal/l7lb"
	"hermes/internal/shm"
	"hermes/internal/workload"
)

// benchOptions shrinks experiments so a -bench run finishes in minutes.
func benchOptions() bench.Options {
	o := bench.DefaultOptions()
	o.Workers = 8
	o.Tenants = 4
	o.Window = 100 * time.Millisecond
	o.Drain = 200 * time.Millisecond
	o.RateScale = 0.25
	return o
}

// runCell measures one Table 3 cell per iteration.
func runCell(b *testing.B, spec workload.Spec, mode l7lb.Mode) {
	b.Helper()
	o := benchOptions()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := bench.Run(bench.RunConfig{
			Mode:    mode,
			Workers: o.Workers,
			Seed:    int64(i + 1),
			Window:  o.Window,
			Drain:   o.Drain,
			Specs:   []workload.Spec{spec},
		})
		if err != nil {
			b.Fatal(err)
		}
		if res.Completed == 0 {
			b.Fatal("no requests completed")
		}
		b.ReportMetric(res.ThroughputKRPS, "kRPS")
		b.ReportMetric(res.P99MS, "p99ms")
	}
}

func BenchmarkTable1(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		o.Seed = int64(i + 1)
		if rows := bench.Table1(o); len(rows) != 4 {
			b.Fatal("table1 broken")
		}
	}
}

func BenchmarkTable2(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		o.Seed = int64(i + 1)
		bench.Table2(o)
	}
}

func BenchmarkTable3(b *testing.B) {
	ports := []uint16{8080, 8081, 8082, 8083}
	cases := workload.Cases(ports)
	names := []string{"case1", "case2", "case3", "case4"}
	for ci, cs := range cases {
		spec := cs.Scale(benchOptions().RateScale)
		for _, mode := range bench.Table3Modes {
			mode := mode
			b.Run(names[ci]+"/"+mode.String(), func(b *testing.B) {
				runCell(b, spec, mode)
			})
		}
	}
}

func BenchmarkTable4(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		if out := bench.Table4(o); len(out) == 0 {
			b.Fatal("table4 empty")
		}
	}
}

// BenchmarkTable5 measures the real component code paths — the ns/op here
// are Table 5's inputs.
func BenchmarkTable5(b *testing.B) {
	b.Run("counter", func(b *testing.B) {
		wst := shm.NewWST(32)
		wr := wst.Writer(3)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			wr.SetLoopEnter(int64(i))
			wr.AddBusy(1)
			wr.AddBusy(-1)
			wr.AddConn(1)
			wr.AddConn(-1)
		}
	})
	b.Run("scheduler", func(b *testing.B) {
		wst := shm.NewWST(32)
		for i := 0; i < 32; i++ {
			w := wst.Writer(i)
			w.SetLoopEnter(int64(time.Second))
			w.AddBusy(int64(i % 5))
			w.AddConn(int64(i * 13 % 211))
		}
		cfg := core.DefaultConfig()
		buf := make([]shm.Metrics, 0, 32)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf = wst.Snapshot(buf[:0])
			core.Schedule(int64(time.Second), buf, cfg, core.OrderTimeConnEvent)
		}
	})
	b.Run("map-sync", func(b *testing.B) {
		sel := ebpf.NewArrayMap(1)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := sel.Update(0, uint64(i)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("dispatch-vm", func(b *testing.B) {
		sel := ebpf.NewArrayMap(1)
		sa := ebpf.NewSockArray(32)
		for i := 0; i < 32; i++ {
			_ = sa.Put(uint32(i), i)
		}
		_ = sel.Update(0, 0xaaaa5555)
		prog, err := core.BuildDispatchProgram([]core.GroupMaps{{Sel: sel, Socks: sa}}, 2, core.GroupByTupleHash)
		if err != nil {
			b.Fatal(err)
		}
		ctx := &ebpf.ReuseportCtx{}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ctx.Hash = uint32(i)
			if _, err := prog.Run(ctx); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("dispatch-native", func(b *testing.B) {
		b.ReportAllocs()
		sink := 0
		for i := 0; i < b.N; i++ {
			w, _ := core.NativeSelect(0xaaaa5555, uint32(i), 2)
			sink += w
		}
		_ = sink
	})
}

func BenchmarkFig2(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		o.Seed = int64(i + 1)
		bench.Fig2(o)
	}
}

func BenchmarkFig3(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		o.Seed = int64(i + 1)
		bench.Fig3(o)
	}
}

func BenchmarkFig4and5(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		o.Seed = int64(i + 1)
		bench.Fig4and5(o)
	}
}

func BenchmarkFig7(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		o.Seed = int64(i + 1)
		bench.Fig7(o)
	}
}

func BenchmarkFig11(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		o.Seed = int64(i + 1)
		bench.Fig11(o)
	}
}

func BenchmarkFig12(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		bench.Fig12(o)
	}
}

func BenchmarkFig13(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		o.Seed = int64(i + 1)
		bench.Fig13(o)
	}
}

func BenchmarkFig14(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		o.Seed = int64(i + 1)
		bench.Fig14(o)
	}
}

func BenchmarkFig15(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		o.Seed = int64(i + 1)
		bench.Fig15(o)
	}
}

func BenchmarkFigA5(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		o.Seed = int64(i + 1)
		bench.FigA5(o)
	}
}

func BenchmarkWalkthrough(b *testing.B) {
	o := benchOptions()
	for i := 0; i < b.N; i++ {
		bench.Walkthrough(o)
	}
}

// --- ablations (DESIGN.md §4) ---

// BenchmarkAblationFilterOrder compares the paper's time→conn→event cascade
// against the alternatives on a heterogeneous workload.
func BenchmarkAblationFilterOrder(b *testing.B) {
	o := benchOptions()
	spec := workload.Case4([]uint16{8080}).Scale(o.RateScale)
	for _, ord := range []struct {
		name  string
		order core.FilterOrder
	}{
		{"time-conn-event", core.OrderTimeConnEvent},
		{"time-event-conn", core.OrderTimeEventConn},
		{"time-only", core.OrderTimeOnly},
	} {
		ord := ord
		b.Run(ord.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := bench.Run(bench.RunConfig{
					Mode:    l7lb.ModeHermesNative,
					Workers: o.Workers,
					Seed:    int64(i + 1),
					Window:  o.Window,
					Drain:   o.Drain,
					Specs:   []workload.Spec{spec},
					Mutate:  func(c *l7lb.Config) { c.FilterOrder = ord.order },
				})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.P99MS, "p99ms")
			}
		})
	}
}

// BenchmarkAblationTheta sweeps the offset at the two extremes and the
// optimum (Fig. 15 in bench form).
func BenchmarkAblationTheta(b *testing.B) {
	o := benchOptions()
	spec := workload.Case2([]uint16{8080}).Scale(o.RateScale)
	for _, theta := range []float64{0, 0.5, 2.5} {
		theta := theta
		b.Run(formatTheta(theta), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := bench.Run(bench.RunConfig{
					Mode:    l7lb.ModeHermes,
					Workers: o.Workers,
					Seed:    int64(i + 1),
					Window:  o.Window,
					Drain:   o.Drain,
					Specs:   []workload.Spec{spec},
					Mutate:  func(c *l7lb.Config) { c.Hermes.ThetaFrac = theta },
				})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.P99MS, "p99ms")
			}
		})
	}
}

func formatTheta(t float64) string {
	switch t {
	case 0:
		return "theta-0"
	case 0.5:
		return "theta-0.5"
	default:
		return "theta-2.5"
	}
}

// BenchmarkAblationSingleWinner compares two-stage filtering against
// publishing only the single best worker per sync (§5.3.2: the single
// winner gets every new connection between syncs and overloads).
func BenchmarkAblationSingleWinner(b *testing.B) {
	o := benchOptions()
	spec := workload.Case1([]uint16{8080}).Scale(o.RateScale)
	for _, single := range []bool{false, true} {
		single := single
		name := "two-stage"
		if single {
			name = "single-winner"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := bench.Run(bench.RunConfig{
					Mode:    l7lb.ModeHermes,
					Workers: o.Workers,
					Seed:    int64(i + 1),
					Window:  o.Window,
					Drain:   o.Drain,
					Specs:   []workload.Spec{spec},
					Mutate: func(c *l7lb.Config) {
						if single {
							c.Hermes.MinWorkers = 1
						}
					},
					PostBuild: func(lb *l7lb.LB) {
						if single {
							lb.Ctl.SetSingleWinner(true)
						}
					},
				})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.P99MS, "p99ms")
			}
		})
	}
}

// BenchmarkAblationSchedulerPlacement compares scheduling at the end of the
// event loop (the paper's choice) against the beginning (§5.3.2: stale
// pre-epoll_wait status).
func BenchmarkAblationSchedulerPlacement(b *testing.B) {
	o := benchOptions()
	spec := workload.Case2([]uint16{8080}).Scale(o.RateScale)
	for _, atStart := range []bool{false, true} {
		atStart := atStart
		name := "loop-end"
		if atStart {
			name = "loop-start"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := bench.Run(bench.RunConfig{
					Mode:    l7lb.ModeHermes,
					Workers: o.Workers,
					Seed:    int64(i + 1),
					Window:  o.Window,
					Drain:   o.Drain,
					Specs:   []workload.Spec{spec},
					Mutate:  func(c *l7lb.Config) { c.ScheduleAtLoopStart = atStart },
				})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.P99MS, "p99ms")
			}
		})
	}
}

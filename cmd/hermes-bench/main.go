// Command hermes-bench regenerates the paper's tables and figures against
// the simulated stack. Run a single experiment with -exp, or everything:
//
//	hermes-bench -exp table3
//	hermes-bench -exp all -seed 7
//	hermes-bench -exp table3 -parallel 8 -metrics table3.json
//	hermes-bench -exp scale -parallel 1 -cpuprofile cpu.pb.gz -memprofile mem.pb.gz
//
// Output is plain text, one paper-style table or series per experiment.
// Independent experiment cells (each owns its own engine and seed) fan out
// over -parallel worker goroutines; results are assembled in cell order, so
// the output is byte-identical at every -parallel setting.
//
// -metrics additionally dumps the cross-layer telemetry catalog
// (docs/TELEMETRY.md) as JSON keyed by experiment and cell. Recording
// never perturbs the simulation: rendered output is byte-identical with
// and without it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"hermes/internal/bench"
	"hermes/internal/telemetry"
	"hermes/internal/tracing"
)

// promFileName maps an experiment or cell name onto a safe filename chunk.
func promFileName(s string) string {
	out := []byte(s)
	for i, c := range out {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '-', c == '_', c == '.':
		default:
			out[i] = '_'
		}
	}
	return string(out)
}

func main() {
	var (
		exp      = flag.String("exp", "all", "experiment id (table1..table5, fig2..fig15, figA5, walkthrough, all, list)")
		seed     = flag.Int64("seed", 1, "simulation seed")
		workers  = flag.Int("workers", 16, "workers per LB device")
		window   = flag.Duration("window", time.Second, "measurement window (virtual time)")
		scale    = flag.Float64("scale", 0.5, "workload rate scale")
		tenants  = flag.Int("tenants", 8, "tenant ports per LB")
		parallel = flag.Int("parallel", runtime.GOMAXPROCS(0), "cell-level fan-out (independent sims per experiment); 1 = sequential")
		metrics  = flag.String("metrics", "", "write per-cell telemetry dumps (JSON) to this path")
		prom     = flag.String("prom", "", "write per-cell OpenMetrics expositions (<exp>__<cell>.prom) into this directory")

		spans      = flag.String("spans", "", "record one cell's span dump (docs/TRACING.md) to this path (.jsonl = compact; else Chrome trace JSON)")
		spanCell   = flag.String("span-cell", "", "cell to record (default: the experiment's first cell; see -exp list)")
		spanSample = flag.Int("span-sample", 1, "head-sample 1 in N connections (1 = every connection)")
		spanTail   = flag.Duration("span-tail", 0, "also keep any connection with a request at least this slow (0 = off)")

		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this path (go tool pprof; see docs/PERF.md)")
		memprofile = flag.String("memprofile", "", "write an allocation profile to this path after the run")
	)
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "create cpu profile: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "start cpu profile: %v\n", err)
			os.Exit(1)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "create mem profile: %v\n", err)
				os.Exit(1)
			}
			runtime.GC() // flush dead objects so the profile shows live + cumulative allocs accurately
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "write mem profile: %v\n", err)
				os.Exit(1)
			}
			f.Close()
		}()
	}

	opts := bench.DefaultOptions()
	opts.Seed = *seed
	opts.Workers = *workers
	opts.Window = *window
	opts.RateScale = *scale
	opts.Tenants = *tenants
	opts.Parallel = *parallel

	experiments := bench.Experiments()
	if *exp == "list" {
		names := make([]string, 0, len(experiments))
		for name := range experiments {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, n := range names {
			if cells := experiments[n].Cells(opts); len(cells) > 1 {
				fmt.Printf("%s\t(%d parallel cells)\n", n, len(cells))
			} else {
				fmt.Printf("%s\t(sequential)\n", n)
			}
		}
		return
	}

	if *spans != "" {
		// Span recording is scoped to one cell of one experiment: resolve
		// the designated cell up front (before any fan-out) so the choice
		// is deterministic at every -parallel setting.
		if *exp == "all" || strings.Contains(*exp, ",") {
			fmt.Fprintln(os.Stderr, "-spans records a single experiment: pass one -exp name")
			os.Exit(2)
		}
		e, ok := experiments[*exp]
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q (try -exp list)\n", *exp)
			os.Exit(2)
		}
		cell := *spanCell
		if cell == "" {
			cell = e.Cells(opts)[0].Name
		}
		tcfg := tracing.DefaultConfig()
		tcfg.SampleEvery = *spanSample
		tcfg.TailLatencyNS = int64(*spanTail)
		opts.Spans = bench.NewSpanRecorder(cell, tcfg)
	}

	dumps := make(map[string]*bench.MetricsCollector)
	run := func(name string) {
		e, ok := experiments[name]
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q (try -exp list)\n", name)
			os.Exit(2)
		}
		if *metrics != "" || *prom != "" {
			opts.Metrics = bench.NewMetricsCollector()
			dumps[name] = opts.Metrics
		}
		start := time.Now()
		out := bench.RunExperiment(e, opts)
		fmt.Printf("### %s — %s (wall %.1fs)\n%s\n", name, e.Desc(), time.Since(start).Seconds(), out)
	}
	if *exp == "all" {
		names := make([]string, 0, len(experiments))
		for name := range experiments {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, n := range names {
			run(n)
		}
	} else {
		for _, name := range strings.Split(*exp, ",") {
			run(strings.TrimSpace(name))
		}
	}

	if *metrics != "" {
		buf, err := json.MarshalIndent(dumps, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "marshal metrics: %v\n", err)
			os.Exit(1)
		}
		buf = append(buf, '\n')
		if err := os.WriteFile(*metrics, buf, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "write metrics: %v\n", err)
			os.Exit(1)
		}
	}

	if *prom != "" {
		if err := os.MkdirAll(*prom, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "create prom dir: %v\n", err)
			os.Exit(1)
		}
		names := make([]string, 0, len(dumps))
		for name := range dumps {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			mc := dumps[name]
			for _, cell := range mc.CellNames() {
				path := *prom + "/" + promFileName(name) + "__" + promFileName(cell) + ".prom"
				f, err := os.Create(path)
				if err == nil {
					err = telemetry.WriteOpenMetrics(f, mc.Snapshot(cell))
					if cerr := f.Close(); err == nil {
						err = cerr
					}
				}
				if err != nil {
					fmt.Fprintf(os.Stderr, "write prom %s: %v\n", path, err)
					os.Exit(1)
				}
			}
		}
	}

	if *spans != "" {
		if !opts.Spans.Recorded() {
			fmt.Fprintf(os.Stderr, "span cell %q never ran (check -span-cell against -exp list)\n", opts.Spans.Cell())
			os.Exit(1)
		}
		f, err := os.Create(*spans)
		if err != nil {
			fmt.Fprintf(os.Stderr, "create spans: %v\n", err)
			os.Exit(1)
		}
		if err := opts.Spans.WriteTo(f, strings.HasSuffix(*spans, ".jsonl")); err == nil {
			err = f.Close()
		} else {
			f.Close()
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "write spans: %v\n", err)
			os.Exit(1)
		}
	}
}

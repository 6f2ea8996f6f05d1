// Command perfbench is the repository's benchmark. It runs one named
// workload from a seed for a fixed wall-clock budget, checks the program's
// outputs, and prints every metric by name with its unit. The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": N, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 they are
// the per-layer ones. See README.md for the workloads and the metrics.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload sim-churn --seed 1 --seconds 12 --trace 0
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd and perLayer fix the reported metric names and units; a workload
// reports 0 for a per-layer metric whose layer it does not exercise.
var endToEnd = []struct{ name, unit string }{
	{"throughput_rps", "1/s"},
	{"p50_us", "us"},
	{"p99_us", "us"},
	{"cpu_us_per_req", "us"},
	{"allocs_per_req", "count"},
	{"peak_heap_mb", "MB"},
	{"setup_s", "s"},
}

var perLayer = []struct{ name, unit string }{
	{"sim.events_per_req", "count"},
	{"sim.same_tick_frac", "ratio"},
	{"sim.step_ns", "ns"},
	{"sim.pending_max", "count"},
	{"kernel.deliver_syn_ns", "ns"},
	{"kernel.deliver_data_ns", "ns"},
	{"kernel.syn_drop_frac", "ratio"},
	{"kernel.epoll_wakeups_per_req", "count"},
	{"kernel.spurious_wakeup_frac", "ratio"},
	{"kernel.events_per_wakeup", "count"},
	{"ebpf.steer_ns", "ns"},
	{"ebpf.steer_fallback_frac", "ratio"},
	{"ebpf.selmap_updates_per_req", "count"},
	{"core.recomputes_per_req", "count"},
	{"core.batched_frac", "ratio"},
	{"core.avg_passed", "count"},
	{"core.schedule_ns", "ns"},
	{"l7lb.lb_ns_per_req", "ns"},
	{"l7lb.busy_frac", "ratio"},
	{"l7lb.accept_imbalance", "ratio"},
	{"l7lb.conn_table_grows", "count"},
	{"proxy.tax_ratio", "ratio"},
	{"proxy.self_us_p50", "us"},
	{"proxy.upstream_dials_per_req", "count"},
	{"proxy.worker_handled_cv", "ratio"},
	{"proxy.retries_per_req", "count"},
	{"httpx.parse_request_ns", "ns"},
	{"httpx.parse_request_allocs", "count"},
	{"httpx.parse_response_ns", "ns"},
	{"httpx.parse_response_allocs", "count"},
	{"httpx.append_ns", "ns"},
	{"httpx.append_allocs", "count"},
	{"net.loopback_dial_us", "us"},
	{"runtime.gc_cpu_frac", "ratio"},
	{"runtime.gc_cycles_per_mreq", "count"},
	{"loadgen.late_p99_us", "us"},
	{"bench.trace_overhead_frac", "ratio"},
	{"bench.driver_ns_per_req", "ns"},
	{"bench.unattributed_ns_per_req", "ns"},
	{"bench.loop_ns_per_req", "ns"},
	{"bench.timer_ns", "ns"},
}

var workloads = []string{"sim-churn", "sim-keepalive", "proxy-loopback"}

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

func run(args []string, stdout io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fl.String("workload", "", "workload: "+strings.Join(workloads, ", "))
	seed := fl.Int64("seed", 1, "workload seed")
	seconds := fl.Float64("seconds", 10, "wall-clock seconds to measure")
	trace := fl.Int("trace", 0, "1 = traced run printing the per-layer metrics")
	commit := fl.String("commit", "unknown", "source revision to record")
	record := fl.Int("record", 0, "print the sim workloads' virtual outputs for seeds 0..N-1 as golden JSON and exit")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	if *record > 0 {
		if err := recordGolden(*record, stdout); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -trace must be 0 or 1")
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be positive")
		return 2
	}
	traced := *trace == 1

	var (
		res   result
		notes []string
		err   error
	)
	switch *workload {
	case "sim-churn", "sim-keepalive":
		res, notes, err = simResult(simWorkloads[*workload], *seed, *seconds, traced)
	case "proxy-loopback":
		res, notes, err = proxyResult(*seed, *seconds, traced)
	default:
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %s)\n", *workload, strings.Join(workloads, ", "))
		return 2
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}

	host, _ := json.Marshal(hostInfo(*commit))
	fmt.Fprintf(stdout, "# workload %s seed %d seconds %g trace %d\n", *workload, *seed, *seconds, *trace)
	fmt.Fprintf(stdout, "# host %s\n", host)
	for _, n := range notes {
		fmt.Fprintf(stdout, "# %s\n", n)
	}
	fmt.Fprintf(stdout, "# fail_frac %.6g (%d of %d attempted)\n", ratio(float64(res.Failed), float64(res.Attempted)), res.Failed, res.Attempted)
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(stdout, "%-32s %14.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	line, _ := json.Marshal(res)
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// newResult builds a result carrying exactly the metric set of the run's
// kind, taking values from vals (missing per-layer values read 0).
func newResult(traced bool, vals map[string]float64) result {
	set := endToEnd
	if traced {
		set = perLayer
	}
	res := result{Correct: true, Metrics: make(map[string]metric, len(set))}
	for _, m := range set {
		res.Metrics[m.name] = metric{Value: vals[m.name], Unit: m.unit}
	}
	return res
}

// hostInfo records where the numbers came from.
func hostInfo(commit string) map[string]any {
	return map[string]any{
		"cpu_model":     cpuModel(),
		"num_cpu":       runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"go_version":    runtime.Version(),
		"os_arch":       runtime.GOOS + "/" + runtime.GOARCH,
		"commit":        commit,
		"source_sha256": sourceHash(),
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, l := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceHash fingerprints the Go sources and module files under the working
// directory, identifying the code measured when no commit is known.
func sourceHash() string {
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.Type().IsRegular() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			b, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			fmt.Fprintf(h, "%s %d\n", path, len(b))
			h.Write(b)
		}
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

package main

import (
	"encoding/json"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

// allocSites runs one untraced round of w with every heap allocation
// sampled and returns the allocations made during it, keyed by allocating
// frame: the first function on the stack outside the Go runtime, plus the
// runtime function that allocated.
func allocSites(t *testing.T, w simWorkload) (map[[2]string]int64, uint64) {
	t.Helper()
	old := runtime.MemProfileRate
	runtime.MemProfileRate = 1
	defer func() { runtime.MemProfileRate = old }()

	before := memProfile()
	r, err := runSimRound(w, 7, false)
	if err == nil {
		err = r.lost
	}
	if err != nil {
		t.Fatal(err)
	}
	after := memProfile()
	for k, n := range before {
		after[k] -= n
	}
	return after, r.out.Completed
}

func memProfile() map[[2]string]int64 {
	runtime.GC()
	runtime.GC() // the profile publishes allocations one cycle late
	recs := make([]runtime.MemProfileRecord, 4096)
	for {
		n, ok := runtime.MemProfile(recs, true)
		if ok {
			recs = recs[:n]
			break
		}
		recs = make([]runtime.MemProfileRecord, n+1024)
	}
	out := map[[2]string]int64{}
	for _, rec := range recs {
		frames := runtime.CallersFrames(rec.Stack())
		var alloc, site string
		for {
			f, more := frames.Next()
			if !strings.HasPrefix(f.Function, "runtime.") {
				site = f.Function
				break
			}
			alloc = f.Function
			if !more {
				break
			}
		}
		out[[2]string{site, alloc}] += rec.AllocObjects
	}
	return out
}

// isDriver reports whether fn belongs to the benchmark rather than the
// program under test.
func isDriver(fn string) bool {
	return strings.HasPrefix(fn, "main.") || strings.HasPrefix(fn, "hermes/perfbench.")
}

// TestDriverAllocatesNothingPerRequest proves that allocs_per_req counts the
// program alone. It runs each sim workload for one window and for two, and
// requires the benchmark's own allocation sites to allocate the same in
// both: nothing per request. The one exception is pinned exactly: the
// kernel's DeliverData takes its payload as `any`, so deliverData boxes one
// l7lb.Work per request, a cost of the program's API that every caller pays
// (it is deliverData's only allocation).
func TestDriverAllocatesNothingPerRequest(t *testing.T) {
	for _, name := range []string{"sim-churn", "sim-keepalive"} {
		t.Run(name, func(t *testing.T) {
			w := simWorkloads[name]
			w.window /= 10
			short, nShort := allocSites(t, w)
			w.window *= 2
			long, nLong := allocSites(t, w)
			extra := float64(nLong - nShort)
			if extra <= 0 {
				t.Fatalf("longer window completed %d requests, shorter %d", nLong, nShort)
			}
			var program int64
			for k, n := range long {
				d := n - short[k]
				switch {
				case strings.HasSuffix(k[0], ".memProfile"):
					// the profile snapshots themselves
				case strings.HasSuffix(k[0], ".(*simLB).deliverData"):
					if d != int64(extra) {
						t.Errorf("deliverData boxed %d payloads for %v more requests, want one each", d, extra)
					}
				case isDriver(k[0]) && d != 0:
					t.Errorf("driver site %s (%s) allocated %d more objects over %v more requests", k[0], k[1], d, extra)
				case !isDriver(k[0]):
					program += d
				}
			}
			t.Logf("program allocations per extra request: %.3f (+1 payload box)", float64(program)/extra)
		})
	}
}

// TestMetricSetMatchesBenchmarkJSON keeps the printed metric names and units
// in step with BENCHMARK.json at the repository root.
func TestMetricSetMatchesBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not found:", err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []struct{ name, unit string }) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark prints %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s %s, benchmark %s %s", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, want %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i] {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, w.Name, workloads[i])
		}
	}
}

// TestTracedRoundMatchesUntraced checks that tracing (telemetry plus step
// timing) leaves the virtual outputs untouched, so golden checks hold for
// both kinds of round.
func TestTracedRoundMatchesUntraced(t *testing.T) {
	w := simWorkloads["sim-churn"]
	w.window = 20 * time.Millisecond
	a, err := runSimRound(w, 3, false)
	if err != nil {
		t.Fatal(err)
	}
	b, err := runSimRound(w, 3, true)
	if err != nil {
		t.Fatal(err)
	}
	if a.out != b.out {
		t.Fatalf("traced round %+v, untraced %+v", b.out, a.out)
	}
}

// TestProxyLoopbackShort runs the real-socket workload briefly, traced, and
// requires every check to pass with no failed request.
func TestProxyLoopbackShort(t *testing.T) {
	r, err := runProxy(11, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.check(); err != nil {
		t.Fatal(err)
	}
	if r.failed != 0 {
		t.Fatalf("%d of %d requests failed", r.failed, r.attempted)
	}
	if r.direct.completed == 0 || r.timedClosed.completed == 0 || len(r.handlerNS) == 0 {
		t.Fatalf("traced phases measured nothing: direct %d, timed %d, handler samples %d",
			r.direct.completed, r.timedClosed.completed, len(r.handlerNS))
	}
}

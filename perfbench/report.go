package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"time"
)

// golden.json holds each sim workload's virtual-time outputs per seed, as
// printed by -record. A run whose seed is recorded must reproduce them.
//
//go:embed golden.json
var goldenJSON []byte

func golden(workload string, seed int64) (simOutputs, bool) {
	var g map[string]map[string]simOutputs
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		panic(fmt.Sprintf("embedded golden.json: %v", err)) // fixed at build time
	}
	o, ok := g[workload][strconv.FormatInt(seed, 10)]
	return o, ok
}

func recordGolden(n int, w io.Writer) error {
	g := map[string]map[string]simOutputs{}
	for _, name := range []string{"sim-churn", "sim-keepalive"} {
		g[name] = map[string]simOutputs{}
		for seed := int64(0); seed < int64(n); seed++ {
			r, err := runSimRound(simWorkloads[name], seed, false)
			if err == nil {
				err = r.lost
			}
			if err != nil {
				return err
			}
			g[name][strconv.FormatInt(seed, 10)] = r.out
		}
	}
	b, err := json.MarshalIndent(g, "", " ")
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// A run measures at least minRounds rounds; a traced run alternates
// untraced and traced rounds, at least minTracedRounds in all, so it can
// report the tracing overhead. setup_s is the median of at least minSetups
// set-ups.
const (
	minRounds       = 3
	minTracedRounds = 4
	minSetups       = 31
)

// simResult runs a sim workload: one warm-up round, then measured rounds
// until the budget is spent. Every round must reproduce the warm-up's
// virtual outputs, which must match the recorded ones when the seed is
// recorded.
func simResult(w simWorkload, seed int64, seconds float64, traced bool) (result, []string, error) {
	start := time.Now()
	warm, err := runSimRound(w, seed, false)
	if err != nil {
		return result{}, nil, err
	}
	correct := warm.lost == nil
	var notes []string
	if !correct {
		notes = append(notes, "conservation FAILED: "+warm.lost.Error())
	}
	if want, ok := golden(w.name, seed); !ok {
		notes = append(notes, fmt.Sprintf("golden: seed %d not recorded; checked conservation and round-to-round determinism only", seed))
	} else if want != warm.out {
		correct = false
		notes = append(notes, fmt.Sprintf("golden MISMATCH: got %+v want %+v", warm.out, want))
	} else {
		notes = append(notes, fmt.Sprintf("golden: seed %d matches the recorded virtual outputs", seed))
	}

	need := minRounds
	if traced {
		need = minTracedRounds
	}
	var plain, tracedRounds []simRound
	for i := 0; len(plain)+len(tracedRounds) < need || time.Since(start).Seconds() < seconds; i++ {
		r, err := runSimRound(w, seed, traced && i%2 == 1)
		if err != nil {
			return result{}, nil, err
		}
		if r.out != warm.out {
			correct = false
			notes = append(notes, fmt.Sprintf("round %d diverged: got %+v want %+v", i, r.out, warm.out))
		}
		if r.lost != nil {
			correct = false
			notes = append(notes, fmt.Sprintf("round %d conservation FAILED: %v", i, r.lost))
		}
		if r.trace != nil {
			tracedRounds = append(tracedRounds, r)
		} else {
			plain = append(plain, r)
		}
	}
	notes = append(notes, fmt.Sprintf("rounds: %d untraced, %d traced; %d requests per round", len(plain), len(tracedRounds), warm.out.Completed))

	vals := map[string]float64{}
	var att, failed uint64
	for _, r := range append(plain, tracedRounds...) {
		att += r.attempted
		failed += r.out.Drops + r.out.Resets
	}
	var sum procSample
	var reqs uint64
	var setups, rps, cpu []float64
	for _, r := range append([]simRound{warm}, append(plain, tracedRounds...)...) {
		setups = append(setups, r.setup.Seconds())
	}
	for len(setups) < minSetups {
		_, _, s, err := setupSim(w, seed, false)
		if err != nil {
			return result{}, nil, err
		}
		setups = append(setups, s.Seconds())
	}
	for _, r := range plain {
		sum = sum.add(r.proc)
		reqs += r.out.Completed
		rps = append(rps, r.rps())
		cpu = append(cpu, float64(r.proc.cpu.Microseconds())/float64(r.out.Completed))
		vals["peak_heap_mb"] = max(vals["peak_heap_mb"], r.heapMB)
	}
	vals["throughput_rps"] = median(rps)
	// The model's request latency, in virtual time: a function of the seed,
	// pinned by the golden check.
	vals["p50_us"] = warm.out.LatP50US
	vals["p99_us"] = warm.out.LatP99US
	vals["cpu_us_per_req"] = median(cpu)
	vals["allocs_per_req"] = float64(sum.mallocs) / float64(reqs)
	vals["setup_s"] = median(setups)
	vals["runtime.gc_cpu_frac"] = ratio(sum.gcCPU, sum.cpu.Seconds())
	vals["runtime.gc_cycles_per_mreq"] = float64(sum.gcCycles) / float64(reqs) * 1e6
	if traced {
		simLayers(vals, warm.out, tracedRounds)
		var trps []float64
		for _, r := range tracedRounds {
			trps = append(trps, r.rps())
		}
		vals["bench.trace_overhead_frac"] = median(trps)/median(rps) - 1
	}
	res := newResult(traced, vals)
	res.Correct = correct
	res.Attempted, res.Failed = att, failed
	return res, notes, nil
}

// simLayers fills the per-layer metrics from the traced rounds: timings are
// medians over rounds, counts are per completed request.
func simLayers(vals map[string]float64, out simOutputs, rounds []simRound) {
	med := func(f func(t *simTrace, reqs float64) float64) float64 {
		xs := make([]float64, len(rounds))
		for i, r := range rounds {
			xs[i] = f(r.trace, float64(r.out.Completed))
		}
		return median(xs)
	}
	vals["sim.events_per_req"] = med(func(t *simTrace, n float64) float64 { return float64(t.events) / n })
	vals["sim.same_tick_frac"] = med(func(t *simTrace, _ float64) float64 { return ratio(float64(t.sameTick), float64(t.steps)) })
	vals["sim.step_ns"] = med(func(t *simTrace, _ float64) float64 { return ratio(float64(t.loopNS), float64(t.steps)) })
	vals["sim.pending_max"] = med(func(t *simTrace, _ float64) float64 { return float64(t.pendingMax) })

	tn := timerNS()
	vals["bench.timer_ns"] = tn
	// per subtracts the timer's own reading from ns accumulated over k
	// timed intervals and spreads the rest over n.
	per := func(ns int64, k uint64, n float64) float64 { return ratio(float64(ns)-tn*float64(k), n) }
	vals["kernel.deliver_syn_ns"] = med(func(t *simTrace, _ float64) float64 { return per(t.base.synNS, t.base.syns, float64(t.base.syns)) })
	vals["kernel.deliver_data_ns"] = med(func(t *simTrace, _ float64) float64 { return per(t.base.dataNS, t.base.datas, float64(t.base.datas)) })
	vals["kernel.syn_drop_frac"] = ratio(float64(out.Drops), float64(out.Established+out.Drops))
	vals["kernel.epoll_wakeups_per_req"] = med(func(t *simTrace, n float64) float64 { return t.telDelta("kernel.epoll.wakeups") / n })
	vals["kernel.spurious_wakeup_frac"] = med(func(t *simTrace, _ float64) float64 {
		return ratio(t.telDelta("kernel.epoll.spurious_wakeups"), t.telDelta("kernel.epoll.wakeups"))
	})
	vals["kernel.events_per_wakeup"] = med(func(t *simTrace, _ float64) float64 {
		return ratio(t.telDelta("kernel.epoll.events"), t.telDelta("kernel.epoll.wakeups"))
	})

	vals["ebpf.steer_ns"] = med(func(t *simTrace, _ float64) float64 { return t.steerNS })
	vals["ebpf.steer_fallback_frac"] = med(func(t *simTrace, _ float64) float64 {
		return ratio(float64(t.steerFallback), float64(t.steerProg+t.steerFallback))
	})
	vals["ebpf.selmap_updates_per_req"] = med(func(t *simTrace, n float64) float64 { return t.telDelta("ebpf.selmap.updates") / n })

	vals["core.recomputes_per_req"] = med(func(t *simTrace, n float64) float64 { return t.telDelta("core.schedule.recomputes") / n })
	vals["core.batched_frac"] = med(func(t *simTrace, _ float64) float64 {
		rc, b := t.telDelta("core.schedule.recomputes"), t.telDelta("core.schedule.sync_batched")
		return ratio(b, rc+b)
	})
	vals["core.avg_passed"] = med(func(t *simTrace, _ float64) float64 {
		s1, c1 := telSum(t.tel1, "core.schedule.passed")
		s0, c0 := telSum(t.tel0, "core.schedule.passed")
		return ratio(s1-s0, c1-c0)
	})
	vals["core.schedule_ns"] = med(func(t *simTrace, _ float64) float64 { return t.scheduleNS })

	vals["l7lb.lb_ns_per_req"] = med(func(t *simTrace, n float64) float64 { return per(t.lbNS, t.lbSteps, n) })
	vals["l7lb.busy_frac"] = med(func(t *simTrace, _ float64) float64 { return t.busyFrac })
	vals["l7lb.accept_imbalance"] = med(func(t *simTrace, _ float64) float64 { return t.imbalance })
	vals["l7lb.conn_table_grows"] = med(func(t *simTrace, _ float64) float64 { return float64(t.tableGrows) })

	vals["bench.loop_ns_per_req"] = med(func(t *simTrace, n float64) float64 { return float64(t.loopNS) / n })
	driver := func(t *simTrace, n float64) float64 {
		return per(t.base.synNS+t.base.dataNS, t.base.syns+t.base.datas, n)
	}
	vals["bench.driver_ns_per_req"] = med(driver)
	vals["bench.unattributed_ns_per_req"] = med(func(t *simTrace, n float64) float64 {
		return float64(t.loopNS)/n - per(t.lbNS, t.lbSteps, n) - driver(t, n)
	})
}

// proxyResult runs proxy-loopback and derives its metrics.
func proxyResult(seed int64, seconds float64, traced bool) (result, []string, error) {
	r, err := runProxy(seed, seconds, traced)
	if err != nil {
		return result{}, nil, err
	}
	notes := []string{fmt.Sprintf("proxy-loopback: %d clients over 127.0.0.1 (loopback, not a real link); closed loop %d req in %.2fs, open loop %d req in %.2fs at %d req/s",
		r.clients, r.closed.completed, r.closed.wall.Seconds(), r.open.completed, r.open.wall.Seconds(), proxyOpenRate)}
	for _, ph := range []phaseResult{r.closed, r.open, r.timedClosed, r.direct} {
		if ph.firstErr != nil {
			notes = append(notes, fmt.Sprintf("first client error: %v", ph.firstErr))
		}
	}
	correct := true
	if err := r.check(); err != nil {
		correct = false
		notes = append(notes, "check FAILED: "+err.Error())
	}
	reqs := float64(r.closed.completed + r.open.completed)
	vals := map[string]float64{
		"throughput_rps":             median(r.closed.sliceRPS),
		"p50_us":                     quantile(r.open.latUS, 0.50),
		"p99_us":                     quantile(r.open.latUS, 0.99),
		"cpu_us_per_req":             float64(r.proc.cpu.Microseconds()) / reqs,
		"allocs_per_req":             float64(r.proc.mallocs) / reqs,
		"peak_heap_mb":               r.heapMB,
		"setup_s":                    median(r.setupS),
		"runtime.gc_cpu_frac":        ratio(r.proc.gcCPU, r.proc.cpu.Seconds()),
		"runtime.gc_cycles_per_mreq": float64(r.proc.gcCycles) / reqs * 1e6,
		"loadgen.late_p99_us":        quantile(r.open.lateUS, 0.99),
	}
	if traced {
		proxied := median(r.closed.sliceRPS)
		vals["proxy.tax_ratio"] = median(r.direct.sliceRPS) / proxied
		vals["proxy.self_us_p50"] = median(r.timedClosed.latUS) - median(r.handlerNS)/1e3
		vals["proxy.upstream_dials_per_req"] = ratio(float64(r.stubDials), float64(r.stubReqs))
		vals["proxy.worker_handled_cv"] = r.workerCV
		vals["proxy.retries_per_req"] = r.retries / float64(r.clientOK)
		vals["core.recomputes_per_req"] = float64(r.recomputes) / float64(r.clientOK)
		vals["core.batched_frac"] = ratio(float64(r.batched), float64(r.recomputes+r.batched))
		vals["core.avg_passed"] = r.avgPassed
		vals["core.schedule_ns"] = r.scheduleNS
		vals["httpx.parse_request_ns"] = r.httpx.parseReqNS
		vals["httpx.parse_request_allocs"] = r.httpx.parseReqAllocs
		vals["httpx.parse_response_ns"] = r.httpx.parseRespNS
		vals["httpx.parse_response_allocs"] = r.httpx.parseRespAllocs
		vals["httpx.append_ns"] = r.httpx.appendNS
		vals["httpx.append_allocs"] = r.httpx.appendAllocs
		vals["net.loopback_dial_us"] = r.dialUS
		vals["bench.trace_overhead_frac"] = median(r.timedClosed.sliceRPS)/proxied - 1
	}
	res := newResult(traced, vals)
	res.Correct = correct
	res.Attempted, res.Failed = r.attempted, r.failed
	return res, notes, nil
}

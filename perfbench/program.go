package main

// Every call the benchmark makes into the program under test lives in this
// file. The sim workloads use only the data-delivery API (DeliverSYN,
// DeliverData), the LB's completion callback (OnResponse) and the engine's
// At/Step/RunUntil; the burst brackets, BatchWidth, Config.Backends,
// Config.Upstream and Guard are deliberately never touched. An API change in
// the program needs an edit here and nowhere else in the benchmark.

import (
	"fmt"
	"time"

	"hermes/internal/core"
	"hermes/internal/ebpf"
	"hermes/internal/httpx"
	"hermes/internal/kernel"
	"hermes/internal/l7lb"
	"hermes/internal/proxy"
	"hermes/internal/shm"
	"hermes/internal/sim"
	"hermes/internal/telemetry"
)

// tenantPort is the one tenant port every sim workload targets.
const tenantPort = 8080

// simLB is one simulated Hermes LB (ModeHermes: eBPF dispatch program, JIT
// compiled) and the virtual clock it runs on.
type simLB struct {
	eng *sim.Engine
	lb  *l7lb.LB
	reg *telemetry.Registry // non-nil only in traced rounds
}

// newSimLB builds and starts an LB with the library defaults; only the
// worker count and the tenant port differ. Telemetry is wired only when
// traced is set, so untraced rounds measure the program as users run it.
func newSimLB(seed int64, workers int, traced bool) (*simLB, error) {
	eng := sim.NewEngine(seed)
	cfg := l7lb.DefaultConfig(l7lb.ModeHermes)
	cfg.Workers = workers
	cfg.Ports = []uint16{tenantPort}
	p := &simLB{eng: eng}
	if traced {
		p.reg = telemetry.NewRegistry()
		cfg.Telemetry = p.reg
	}
	lb, err := l7lb.New(eng, cfg)
	if err != nil {
		return nil, fmt.Errorf("build %d-worker LB: %w", workers, err)
	}
	lb.Start()
	p.lb = lb
	return p, nil
}

func (p *simLB) now() int64            { return p.eng.Now() }
func (p *simLB) at(t int64, fn func()) { p.eng.At(t, fn) }
func (p *simLB) step() bool            { return p.eng.Step() }
func (p *simLB) runUntil(t int64)      { p.eng.RunUntil(t) }
func (p *simLB) pending() int          { return p.eng.Pending() }
func (p *simLB) executed() uint64      { return p.eng.Executed }

// setOnResponse installs the per-request completion callback.
func (p *simLB) setOnResponse(fn func(kernel.ConnRef, l7lb.Work)) { p.lb.OnResponse = fn }

// deliverSYN opens a connection; meta rides on the connection and comes back
// through connMeta.
func (p *simLB) deliverSYN(t kernel.FourTuple, meta any) (*kernel.Conn, bool) {
	return p.lb.NS.DeliverSYN(t, meta)
}

// deliverData sends one request on c. The kernel API takes the payload as
// `any` and the worker asserts an l7lb.Work value, so boxing the Work here is
// one heap object per request that every caller of the API pays.
func (p *simLB) deliverData(c *kernel.Conn, cost time.Duration, closeAfter bool) {
	p.lb.NS.DeliverData(c, l7lb.Work{
		ArrivalNS: p.eng.Now(), Cost: cost, Close: closeAfter, Tenant: tenantPort,
	})
}

// connMeta returns the meta given to deliverSYN, or nil if the connection is
// gone.
func connMeta(ref kernel.ConnRef) any {
	if c := ref.Get(); c != nil {
		return c.Meta
	}
	return nil
}

// simOutputs are a round's virtual-time results: a pure function of the
// workload and the seed, compared against the recorded values.
type simOutputs struct {
	Completed   uint64  `json:"completed"`
	Established uint64  `json:"established"`
	Drops       uint64  `json:"drops"`
	Resets      uint64  `json:"resets"`
	AcceptedFNV uint64  `json:"accepted_fnv"` // FNV-1a of the per-worker accepted counts
	LatP50US    float64 `json:"lat_p50_us"`   // virtual request latency
	LatP99US    float64 `json:"lat_p99_us"`
}

func (p *simLB) outputs() simOutputs {
	h := uint64(14695981039346656037)
	for _, w := range p.lb.Workers {
		for v, i := w.Accepted, 0; i < 8; i, v = i+1, v>>8 {
			h = (h ^ (v & 0xff)) * 1099511628211
		}
	}
	return simOutputs{
		Completed:   p.lb.Completed,
		Established: p.lb.NS.ConnsEstablished,
		Drops:       p.lb.NS.SynDrops,
		Resets:      p.lb.ConnsReset,
		AcceptedFNV: h,
		LatP50US:    p.lb.Latency.Percentile(50) * 1e3,
		LatP99US:    p.lb.Latency.Percentile(99) * 1e3,
	}
}

func (p *simLB) completed() uint64 { return p.lb.Completed }
func (p *simLB) busyNS() int64     { return p.lb.TotalBusyNS() }
func (p *simLB) workers() int      { return len(p.lb.Workers) }
func (p *simLB) openConns() int {
	n := 0
	for _, c := range p.lb.WorkerConnCounts() {
		n += c
	}
	return n
}

// acceptImbalance is stddev/mean of per-worker accepted connections.
func (p *simLB) acceptImbalance() float64 {
	xs := make([]float64, len(p.lb.Workers))
	for i, w := range p.lb.Workers {
		xs[i] = float64(w.Accepted)
	}
	return cv(xs)
}

func (p *simLB) connTableGrows() uint64 {
	var n uint64
	for _, w := range p.lb.Workers {
		n += w.ConnTableGrows
	}
	return n
}

// steerStats reports the attached program's decisions: program picks and
// fallbacks to the kernel hash (errors count as fallbacks).
func (p *simLB) steerStats() (prog, fallback uint64) {
	for _, g := range p.lb.Groups() {
		prog += g.ProgDispatched
		fallback += g.Fallbacks + g.ProgErrors
	}
	return prog, fallback
}

// steerNS times the attached compiled dispatch program on the given tuples,
// exactly as the kernel runs it per SYN. It returns the mean per call.
func (p *simLB) steerNS(tuples []kernel.FourTuple, reps int) (float64, error) {
	g := p.lb.Groups()[0]
	run := g.Program().Run
	if c := g.Compiled(); c != nil {
		run = c.Run
	}
	ctxs := make([]ebpf.ReuseportCtx, len(tuples))
	for i, t := range tuples {
		ctxs[i] = ebpf.ReuseportCtx{Hash: t.Hash(), LocalityHash: t.LocalityHash()}
	}
	start := time.Now()
	for r := 0; r < reps; r++ {
		for i := range ctxs {
			ctx := ctxs[i]
			if _, err := run(&ctx); err != nil {
				return 0, fmt.Errorf("dispatch program: %w", err)
			}
		}
	}
	return float64(time.Since(start).Nanoseconds()) / float64(reps*len(ctxs)), nil
}

// wstSnapshot returns the Worker Status Table rows Algorithm 1 would read at
// the end of the run. The grouped controller (over 64 workers) keeps its WST
// private, so there the rows of the first 64 workers are rebuilt from their
// public connection counts, with every loop entry at the current time.
func (p *simLB) wstSnapshot() []shm.Metrics {
	if p.lb.Ctl != nil {
		return p.lb.Ctl.WST().Snapshot(nil)
	}
	counts := p.lb.WorkerConnCounts()
	if len(counts) > shm.GroupSize {
		counts = counts[:shm.GroupSize]
	}
	rows := make([]shm.Metrics, len(counts))
	for i, c := range counts {
		rows[i] = shm.Metrics{LoopEnterNS: p.eng.Now(), Conn: int64(c)}
	}
	return rows
}

func (p *simLB) hermesConfig() core.Config { return p.lb.Cfg.Hermes }

// scheduleNS times core.Schedule (Algorithm 1) on rows; mean per call.
func scheduleNS(nowNS int64, rows []shm.Metrics, cfg core.Config, reps int) float64 {
	var passed int
	start := time.Now()
	for i := 0; i < reps; i++ {
		passed += core.Schedule(nowNS, rows, cfg, core.OrderTimeConnEvent).Passed
	}
	scheduleSink = passed
	return float64(time.Since(start).Nanoseconds()) / float64(reps)
}

// scheduleSink keeps the timed core.Schedule calls from being optimized away.
var scheduleSink int

// telemetrySnapshot reads the program's existing telemetry counters (traced
// rounds only; nil otherwise).
func (p *simLB) telemetrySnapshot() *telemetry.Snapshot {
	if p.reg == nil {
		return nil
	}
	s := p.reg.Snapshot()
	return &s
}

// telSum returns a counter's value (or a counter vector's total); for a
// histogram it returns the observation sum and count.
func telSum(s *telemetry.Snapshot, name string) (sum, count float64) {
	if s == nil {
		return 0, 0
	}
	m := s.Get(name)
	if m == nil {
		return 0, 0
	}
	switch {
	case m.Kind == "histogram":
		return float64(m.Sum), float64(m.Count)
	case m.Values != nil:
		for _, v := range m.Values {
			sum += float64(v)
		}
		return sum, 0
	default:
		return float64(m.Value), 0
	}
}

// ---- real-socket proxy ----

// proxyUnderTest is the real internal/proxy with its default configuration;
// only the listen address and the backend address differ.
type proxyUnderTest struct{ p *proxy.Proxy }

func startProxy(backend string) (*proxyUnderTest, error) {
	cfg := proxy.DefaultConfig()
	cfg.Listen = "127.0.0.1:0"
	cfg.Backends = []proxy.BackendConfig{{Address: backend}}
	p, err := proxy.New(cfg)
	if err != nil {
		return nil, fmt.Errorf("start proxy: %w", err)
	}
	return &proxyUnderTest{p: p}, nil
}

func (x *proxyUnderTest) addr() string { return x.p.Addr() }

func (x *proxyUnderTest) shutdown() error { return x.p.Shutdown(5 * time.Second) }

// workerHandled returns each proxy worker's handled-request count.
func (x *proxyUnderTest) workerHandled() []float64 {
	out := make([]float64, x.p.Workers())
	for i := range out {
		out[i] = float64(x.p.WorkerHandled(i))
	}
	return out
}

// retries reads the proxy's retry-attempt counter from its registry.
func (x *proxyUnderTest) retries() float64 {
	s := x.p.Registry().Snapshot()
	v, _ := telSum(&s, "proxy.retry.attempts")
	return v
}

// coreStats returns the proxy controller's Algorithm-1 statistics.
func (x *proxyUnderTest) coreStats() (recomputes, batched uint64, avgPassed float64) {
	s := x.p.Controller().Stats()
	return s.ScheduleCalls, s.Batched, s.AvgPassed
}

func (x *proxyUnderTest) scheduleNS(reps int) float64 {
	c := x.p.Controller()
	rows := c.WST().Snapshot(nil)
	return scheduleNS(time.Now().UnixNano(), rows, c.Config(), reps)
}

// httpxCosts times the HTTP codec on the workload's exact bytes, called the
// way the proxy calls it: parsing the client's request and the stub's
// response, and serializing the parsed request into a fresh buffer
// (Append(nil)) as the proxy does before forwarding. Each pair is mean ns
// and mean heap objects per call.
type httpxCosts struct {
	parseReqNS, parseReqAllocs   float64
	parseRespNS, parseRespAllocs float64
	appendNS, appendAllocs       float64
}

func measureHTTPX(reqBytes, respBytes []byte, reps int) (httpxCosts, error) {
	var c httpxCosts
	req, _, err := httpx.ParseRequest(reqBytes)
	if err != nil {
		return c, fmt.Errorf("parse workload request: %w", err)
	}
	if _, _, err := httpx.ParseResponse(respBytes); err != nil {
		return c, fmt.Errorf("parse workload response: %w", err)
	}
	var out []byte
	c.parseReqNS, c.parseReqAllocs = timeAllocs(reps, func() { _, _, _ = httpx.ParseRequest(reqBytes) })
	c.parseRespNS, c.parseRespAllocs = timeAllocs(reps, func() { _, _, _ = httpx.ParseResponse(respBytes) })
	c.appendNS, c.appendAllocs = timeAllocs(reps, func() { out = req.Append(nil) })
	appendSink = out
	return c, nil
}

// appendSink keeps the timed Append calls from being optimized away.
var appendSink []byte

// timeAllocs runs fn reps times and returns mean ns and heap objects per call.
func timeAllocs(reps int, fn func()) (ns, allocs float64) {
	fn()
	m0 := readProc().mallocs
	start := time.Now()
	for i := 0; i < reps; i++ {
		fn()
	}
	d := time.Since(start)
	m1 := readProc().mallocs
	return float64(d.Nanoseconds()) / float64(reps), float64(m1-m0) / float64(reps)
}

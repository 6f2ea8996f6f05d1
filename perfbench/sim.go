package main

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"hermes/internal/kernel"
	"hermes/internal/l7lb"
	"hermes/internal/telemetry"
)

// simWorkload is one sim workload: a fleet size, the virtual time each round
// measures, and the traffic driver. Every round builds a fresh LB from the
// same seed, so every round's virtual outputs are identical and each round is
// checked against the first one and against the recorded values.
type simWorkload struct {
	name      string
	workers   int
	window    time.Duration // measured virtual time per round
	drain     time.Duration // virtual time after the last request is issued
	newDriver func(b driverBase, seed int64) simDriver
}

var simWorkloads = map[string]simWorkload{
	"sim-churn": {
		name: "sim-churn", workers: 64,
		window: 200 * time.Millisecond, drain: 10 * time.Millisecond,
		newDriver: newChurnDriver,
	},
	"sim-keepalive": {
		name: "sim-keepalive", workers: 256,
		window: 40 * time.Millisecond, drain: 20 * time.Millisecond,
		newDriver: newKeepaliveDriver,
	},
}

// simDriver generates one workload's traffic. Drivers schedule only
// pre-bound method values, so the driver itself allocates nothing per
// request (see driver_test.go).
type simDriver interface {
	base() *driverBase
	// setup runs before the measured phase (opening long-lived connections).
	setup() error
	// start schedules the measured phase's first events at the current time.
	start()
	// stop ends request generation; in-flight requests still complete.
	stop()
	// attempted is the number of requests issued in the measured phase.
	attempted() uint64
	// tuples are a sample of the workload's own 4-tuples.
	tuples() []kernel.FourTuple
}

// driverBase is the state every driver shares: the LB, and in traced rounds
// the timings of the calls into the kernel's delivery API.
type driverBase struct {
	p      *simLB
	window time.Duration // the workload's measured virtual time per round
	traced bool
	// fired is set by every driver-scheduled event, so the traced loop can
	// attribute each engine step to the driver or to the LB.
	fired         bool
	synNS, dataNS int64
	syns, datas   uint64
}

func (b *driverBase) base() *driverBase { return b }

func (b *driverBase) syn(t kernel.FourTuple, meta any) (*kernel.Conn, bool) {
	if !b.traced {
		return b.p.deliverSYN(t, meta)
	}
	t0 := time.Now()
	c, ok := b.p.deliverSYN(t, meta)
	b.synNS += time.Since(t0).Nanoseconds()
	b.syns++
	return c, ok
}

func (b *driverBase) data(c *kernel.Conn, cost time.Duration, closeAfter bool) {
	if !b.traced {
		b.p.deliverData(c, cost, closeAfter)
		return
	}
	t0 := time.Now()
	b.p.deliverData(c, cost, closeAfter)
	b.dataNS += time.Since(t0).Nanoseconds()
	b.datas++
}

// tupleAt derives connection i's 4-tuple from the seed (splitmix64), so the
// steering hash space is covered differently for every seed.
func tupleAt(seed int64, i int) kernel.FourTuple {
	z := uint64(seed)*0x9E3779B97F4A7C15 + uint64(i+1)*0xBF58476D1CE4E5B9
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return kernel.FourTuple{
		SrcIP:   uint32(z),
		SrcPort: uint16(1024 + (z>>32)%64512),
		DstIP:   0x0a00_0001,
		DstPort: tenantPort,
	}
}

const tupleSample = 4096

// ---- sim-churn ----

// churnRate is the open-loop arrival rate in connections per virtual second;
// each connection carries one request and closes. The request's cost is
// drawn from the seed, exponential with mean churnCost: with a fixed cost
// the virtual latency would be the same for every seed.
const (
	churnRate = 1_000_000
	churnCost = time.Microsecond
)

type churnDriver struct {
	driverBase
	seed     int64
	rng      *rand.Rand
	interval int64
	t0       int64
	n, i     int
	arriveFn func()
}

func newChurnDriver(b driverBase, seed int64) simDriver {
	d := &churnDriver{driverBase: b, seed: seed, rng: rand.New(rand.NewSource(seed)), interval: int64(time.Second) / churnRate}
	d.arriveFn = d.arrive
	return d
}

func (d *churnDriver) setup() error { return nil }

func (d *churnDriver) start() {
	d.t0 = d.p.now()
	d.n = int(int64(d.window) / d.interval)
	d.p.at(d.t0, d.arriveFn)
}

func (d *churnDriver) arrive() {
	d.fired = true
	if conn, ok := d.syn(tupleAt(d.seed, d.i), nil); ok {
		d.data(conn, time.Duration(d.rng.ExpFloat64()*float64(churnCost)), true)
	}
	d.i++
	if d.i < d.n {
		d.p.at(d.t0+int64(d.i)*d.interval, d.arriveFn)
	}
}

func (d *churnDriver) stop()             {}
func (d *churnDriver) attempted() uint64 { return uint64(d.i) }

func (d *churnDriver) tuples() []kernel.FourTuple {
	ts := make([]kernel.FourTuple, tupleSample)
	for i := range ts {
		ts[i] = tupleAt(d.seed, i)
	}
	return ts
}

// ---- sim-keepalive ----

// The keep-alive population: keepaliveConns connections, each a closed loop
// with exponential think time and exponential request cost. With 256 workers
// this offers about half of the fleet's virtual CPU.
const (
	keepaliveConns = 16384
	keepaliveThink = 1700 * time.Microsecond
	keepaliveCost  = 20 * time.Microsecond
)

// sender is one pooled per-connection request source; sendFn is its send
// method bound once at set-up, so scheduling a request allocates nothing.
type sender struct {
	d      *keepaliveDriver
	conn   *kernel.Conn
	tuple  kernel.FourTuple
	sendFn func()
}

type keepaliveDriver struct {
	driverBase
	seed    int64
	rng     *rand.Rand
	senders []sender
	sent    uint64
	stopped bool
}

func newKeepaliveDriver(b driverBase, seed int64) simDriver {
	d := &keepaliveDriver{driverBase: b, seed: seed, rng: rand.New(rand.NewSource(seed))}
	d.p.setOnResponse(d.onResponse)
	return d
}

func (d *keepaliveDriver) setup() error {
	d.senders = make([]sender, keepaliveConns)
	for i := range d.senders {
		s := &d.senders[i]
		s.d, s.tuple, s.sendFn = d, tupleAt(d.seed, i), s.send
		c, ok := d.p.deliverSYN(s.tuple, s)
		if !ok {
			return fmt.Errorf("keep-alive connection %d refused at set-up", i)
		}
		s.conn = c
	}
	d.p.runUntil(d.p.now() + int64(10*time.Millisecond))
	if n := d.p.openConns(); n != keepaliveConns {
		return fmt.Errorf("%d of %d keep-alive connections open after set-up", n, keepaliveConns)
	}
	return nil
}

func (d *keepaliveDriver) start() {
	now := d.p.now()
	for i := range d.senders {
		d.p.at(now+d.rng.Int63n(int64(keepaliveThink)), d.senders[i].sendFn)
	}
}

func (s *sender) send() {
	d := s.d
	d.fired = true
	if d.stopped {
		return
	}
	d.sent++
	d.data(s.conn, time.Duration(d.rng.ExpFloat64()*float64(keepaliveCost)), false)
}

func (d *keepaliveDriver) onResponse(ref kernel.ConnRef, _ l7lb.Work) {
	if d.stopped {
		return
	}
	if s, ok := connMeta(ref).(*sender); ok {
		d.p.at(d.p.now()+int64(d.rng.ExpFloat64()*float64(keepaliveThink)), s.sendFn)
	}
}

func (d *keepaliveDriver) stop()             { d.stopped = true }
func (d *keepaliveDriver) attempted() uint64 { return d.sent }

func (d *keepaliveDriver) tuples() []kernel.FourTuple {
	n := min(tupleSample, len(d.senders))
	ts := make([]kernel.FourTuple, n)
	for i := range ts {
		ts[i] = d.senders[i].tuple
	}
	return ts
}

// ---- rounds ----

// simRound is one round's measurements.
type simRound struct {
	out       simOutputs
	attempted uint64
	setup     time.Duration
	wall      time.Duration // measured phase, including the drain
	proc      procSample    // process costs over the measured phase
	heapMB    float64       // live heap at the end of the measured phase
	trace     *simTrace     // traced rounds only
	lost      error         // conservation failure, if any
}

func (r simRound) rps() float64 { return float64(r.out.Completed) / r.wall.Seconds() }

// simTrace holds a traced round's per-layer readings.
type simTrace struct {
	loopNS, lbNS    int64 // measured loop wall; wall of steps the driver did not schedule
	lbSteps         uint64
	steps, sameTick uint64
	pendingMax      int
	base            driverBase
	events          uint64
	busyFrac        float64
	imbalance       float64
	tableGrows      uint64
	steerNS         float64
	steerProg       uint64
	steerFallback   uint64
	scheduleNS      float64
	tel0, tel1      *telemetry.Snapshot
}

// telDelta is a counter's growth over the measured phase.
func (t *simTrace) telDelta(name string) float64 {
	a, _ := telSum(t.tel1, name)
	b, _ := telSum(t.tel0, name)
	return a - b
}

// setupSim builds the workload's LB and runs its driver's set-up, returning
// the time both took.
func setupSim(w simWorkload, seed int64, traced bool) (*simLB, simDriver, time.Duration, error) {
	t0 := time.Now()
	p, err := newSimLB(seed, w.workers, traced)
	if err != nil {
		return nil, nil, 0, err
	}
	d := w.newDriver(driverBase{p: p, window: w.window}, seed)
	if err := d.setup(); err != nil {
		return nil, nil, 0, err
	}
	return p, d, time.Since(t0), nil
}

// runSimRound sets up a fresh LB and measures one window of the workload.
// The error reports a failed set-up or layer probe; a conservation failure
// is reported in the round's lost field.
func runSimRound(w simWorkload, seed int64, traced bool) (simRound, error) {
	var r simRound
	p, d, setup, err := setupSim(w, seed, traced)
	if err != nil {
		return r, err
	}
	r.setup = setup

	b := d.base()
	b.traced = traced
	var tr *simTrace
	if traced {
		tr = &simTrace{tel0: p.telemetrySnapshot()}
	}
	v0, busy0, ev0 := p.now(), p.busyNS(), p.executed()
	deadline := v0 + int64(w.window)
	proc0 := readProc()
	w0 := time.Now()
	d.start()
	if traced {
		tr.run(p, b, deadline)
		d.stop()
		tr.run(p, b, deadline+int64(w.drain))
	} else {
		p.runUntil(deadline)
		d.stop()
		p.runUntil(deadline + int64(w.drain))
	}
	r.wall = time.Since(w0)
	r.proc = readProc().sub(proc0)
	r.heapMB = liveHeapMB()
	r.out = p.outputs()
	r.attempted = d.attempted()

	if traced {
		tr.loopNS = r.wall.Nanoseconds()
		tr.base = *b
		tr.events = p.executed() - ev0
		tr.busyFrac = float64(p.busyNS()-busy0) / (float64(p.workers()) * float64(p.now()-v0))
		tr.imbalance = p.acceptImbalance()
		tr.tableGrows = p.connTableGrows()
		tr.tel1 = p.telemetrySnapshot()
		tr.steerProg, tr.steerFallback = p.steerStats()
		if tr.steerNS, err = p.steerNS(d.tuples(), 20); err != nil {
			return r, err
		}
		tr.scheduleNS = scheduleNS(p.now(), p.wstSnapshot(), p.hermesConfig(), 200000)
		r.trace = tr
	}
	r.lost = checkConservation(w, r, p)
	return r, nil
}

// timerNS is what an empty time.Now/time.Since interval reads on this host
// (median of many); traced timings subtract it once per timed interval.
func timerNS() float64 {
	xs := make([]float64, 10000)
	for i := range xs {
		t := time.Now()
		xs[i] = float64(time.Since(t).Nanoseconds())
	}
	return median(xs)
}

// run steps the engine to virtual time t, timing each step and attributing
// it to the driver (its own events) or to the LB (everything else). A
// sentinel event marks t; events due at exactly t that were scheduled after
// it then fire through runUntil, so the traced round executes exactly the
// events an untraced runUntil(t) would.
func (tr *simTrace) run(p *simLB, b *driverBase, t int64) {
	done := false
	p.at(t, func() { b.fired, done = true, true })
	prev := p.now()
	for !done {
		b.fired = false
		s := time.Now()
		if !p.step() {
			break
		}
		dt := time.Since(s).Nanoseconds()
		if !b.fired {
			tr.lbNS += dt
			tr.lbSteps++
		}
		tr.steps++
		if v := p.now(); v == prev {
			tr.sameTick++
		} else {
			prev = v
		}
		if n := p.pending(); n > tr.pendingMax {
			tr.pendingMax = n
		}
	}
	p.runUntil(t)
}

// checkConservation verifies that every attempted request is accounted for
// once the round has drained: completed, dropped at SYN, or reset.
func checkConservation(w simWorkload, r simRound, p *simLB) error {
	o := r.out
	if got := o.Completed + o.Drops + o.Resets; got != r.attempted {
		return fmt.Errorf("%s: attempted %d != completed %d + dropped %d + reset %d",
			w.name, r.attempted, o.Completed, o.Drops, o.Resets)
	}
	switch w.name {
	case "sim-churn":
		if o.Established != r.attempted-o.Drops {
			return fmt.Errorf("sim-churn: established %d != attempted %d - dropped %d", o.Established, r.attempted, o.Drops)
		}
		if n := p.openConns(); n != 0 {
			return fmt.Errorf("sim-churn: %d connections still open after the drain", n)
		}
	case "sim-keepalive":
		if o.Established != keepaliveConns {
			return fmt.Errorf("sim-keepalive: established %d != %d", o.Established, keepaliveConns)
		}
	}
	if o.Completed == 0 {
		return errors.New(w.name + ": no request completed")
	}
	return nil
}

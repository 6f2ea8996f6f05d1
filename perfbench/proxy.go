package main

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// proxy-loopback: the real proxy in front of an in-process stub backend, all
// on 127.0.0.1. Load comes from runtime.NumCPU() client connections in this
// process; each connection carries a number of keep-alive requests drawn
// from the seed, uniform in [proxyKeepAliveMin, proxyKeepAliveMax], then the
// client reconnects. Drawing the count keeps the clients' reconnects from
// falling into lockstep for a whole run.
const (
	proxyKeepAliveMin = 10
	proxyKeepAliveMax = 30
	// proxyOpenRate is the open-loop phase's fixed offered rate in requests
	// per second. It is a constant of the benchmark, chosen well below the
	// closed-loop capacity measured on a 2-CPU host (about 7k req/s), and is
	// never derived from a run.
	proxyOpenRate = 2000
	// proxySetups is how many times a run builds the stub, the proxy and the
	// client connections; setup_s is their median.
	proxySetups = 31
	benchPath   = "/bench/"
)

var (
	headerEnd        = []byte("\r\n\r\n")
	benchRequestLine = []byte("GET " + benchPath)
	connectionClose  = []byte("\r\nConnection: close\r\n")
	replyOK          = []byte("HTTP/1.1 200 ")
	contentLengthHdr = []byte("\r\nContent-Length: ")
)

// wire is the workload's traffic, derived from the seed: the one request
// every client sends (its target carries a seeded token) and the stub's one
// reply (its body carries another).
type wire struct {
	request, response []byte
	body              string
}

func newWire(seed int64) *wire {
	token := func(i int) string { return strconv.FormatUint(uint64(tupleAt(seed, i).SrcIP), 16) }
	body := "hermes-perfbench reply " + token(1) + "\n"
	return &wire{
		request: []byte("GET " + benchPath + token(0) + " HTTP/1.1\r\nHost: backend.local\r\nUser-Agent: hermes-perfbench\r\n\r\n"),
		response: []byte("HTTP/1.1 200 OK\r\nContent-Type: text/plain\r\nContent-Length: " +
			strconv.Itoa(len(body)) + "\r\n\r\n" + body),
		body: body,
	}
}

// ---- stub backend ----

// stub is the HTTP/1.1 backend: it answers every request with the wire's reply,
// keeps connections alive unless asked to close, and counts the benchmark's
// requests (health probes on other paths are answered but not counted).
type stub struct {
	w        *wire
	ln       net.Listener
	wg       sync.WaitGroup
	requests atomic.Uint64 // benchmark-path requests answered
	dials    atomic.Uint64 // connections whose first request was a benchmark request

	timed     atomic.Bool // record handler durations
	mu        sync.Mutex
	handlerNS []float64
	conns     map[net.Conn]struct{}
}

func startStub(w *wire) (*stub, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("stub listen: %w", err)
	}
	s := &stub{w: w, ln: ln, conns: make(map[net.Conn]struct{})}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

func (s *stub) addr() string { return s.ln.Addr().String() }

func (s *stub) acceptLoop() {
	defer s.wg.Done()
	for {
		c, err := s.ln.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		s.conns[c] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serve(c)
	}
}

func (s *stub) serve(c net.Conn) {
	defer func() {
		s.mu.Lock()
		delete(s.conns, c)
		s.mu.Unlock()
		c.Close()
		s.wg.Done()
	}()
	buf := make([]byte, 4096)
	n := 0
	for first := true; ; first = false {
		end := bytes.Index(buf[:n], headerEnd)
		for end < 0 {
			if n == len(buf) {
				return
			}
			m, err := c.Read(buf[n:])
			if err != nil {
				return
			}
			n += m
			end = bytes.Index(buf[:n], headerEnd)
		}
		t0 := time.Now()
		head := buf[:end+4]
		bench := bytes.HasPrefix(head, benchRequestLine)
		// The proxy asks for the close with exactly this header.
		closeAfter := bytes.Contains(head, connectionClose)
		if bench {
			s.requests.Add(1)
			if first {
				s.dials.Add(1)
			}
		}
		_, err := c.Write(s.w.response)
		if bench && s.timed.Load() {
			d := float64(time.Since(t0).Nanoseconds())
			s.mu.Lock()
			s.handlerNS = append(s.handlerNS, d)
			s.mu.Unlock()
		}
		n = copy(buf, buf[end+4:n])
		if closeAfter || err != nil {
			return
		}
	}
}

// close stops the listener, closes open connections and waits for every
// stub goroutine to end.
func (s *stub) close() {
	s.ln.Close()
	s.mu.Lock()
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
}

// ---- client ----

// client is one keep-alive client connection that reconnects after a
// seeded number of requests and checks every reply.
type client struct {
	w    *wire
	addr string
	rng  *rand.Rand
	conn net.Conn
	left int
	buf  []byte
}

var errBadReply = errors.New("reply is not a 200 with the stub's body")

func newClient(w *wire, addr string, seed int64) *client {
	return &client{w: w, addr: addr, rng: rand.New(rand.NewSource(seed)), buf: make([]byte, 4096)}
}

// do sends one request and validates the reply. On any error the connection
// is dropped and the next call reconnects.
func (c *client) do() error {
	if c.conn == nil || c.left == 0 {
		c.closeConn()
		conn, err := net.Dial("tcp", c.addr)
		if err != nil {
			return err
		}
		c.conn = conn
		c.left = proxyKeepAliveMin + c.rng.Intn(proxyKeepAliveMax-proxyKeepAliveMin+1)
	}
	c.left--
	if err := c.roundTrip(); err != nil {
		c.closeConn()
		return err
	}
	return nil
}

func (c *client) roundTrip() error {
	if _, err := c.conn.Write(c.w.request); err != nil {
		return err
	}
	n, end := 0, -1
	for end < 0 {
		if n == len(c.buf) {
			return errBadReply
		}
		m, err := c.conn.Read(c.buf[n:])
		if err != nil {
			return err
		}
		n += m
		end = bytes.Index(c.buf[:n], headerEnd)
	}
	head := c.buf[:end+4]
	if !bytes.HasPrefix(head, replyOK) {
		return errBadReply
	}
	cl := contentLength(head)
	total := end + 4 + cl
	if cl < 0 || total > len(c.buf) {
		return errBadReply
	}
	for n < total {
		m, err := c.conn.Read(c.buf[n:total])
		if err != nil {
			return err
		}
		n += m
	}
	if n != total || string(c.buf[end+4:total]) != c.w.body {
		return errBadReply
	}
	return nil
}

// contentLength parses the Content-Length header of a response head, or
// returns -1.
func contentLength(head []byte) int {
	i := bytes.Index(head, contentLengthHdr)
	if i < 0 {
		return -1
	}
	rest := head[i+len(contentLengthHdr):]
	j := bytes.IndexByte(rest, '\r')
	if j < 0 {
		return -1
	}
	v, err := strconv.Atoi(string(rest[:j]))
	if err != nil {
		return -1
	}
	return v
}

func (c *client) closeConn() {
	if c.conn != nil {
		c.conn.Close()
		c.conn = nil
	}
}

// ---- load phases ----

// phaseResult is one load phase's outcome across all client connections.
type phaseResult struct {
	completed, failed uint64
	firstErr          error
	wall              time.Duration
	sliceRPS          []float64 // closed loop: completions per second in each slice
	latUS             []float64 // closed loop: request latency; open loop: from due time
	lateUS            []float64 // open loop: send time minus due time
}

const phaseSlice = 250 * time.Millisecond

// closedLoop runs len(clients) closed loops against their address for d.
// Like openLoop, it closes each client's connection when the client stops:
// the proxy serves a keep-alive connection on one worker until it closes, so
// a connection left idle would hold that worker and stall any connection
// queued behind it until the proxy's idle timeout.
func closedLoop(clients []*client, d time.Duration, keepLatency bool) phaseResult {
	nSlices := int(d / phaseSlice)
	type part struct {
		ok, failed uint64
		err        error
		slices     []uint64
		lat        []float64
	}
	parts := make([]part, len(clients))
	start := time.Now()
	end := start.Add(d)
	var wg sync.WaitGroup
	for i := range clients {
		wg.Add(1)
		go func(c *client, pt *part) {
			defer wg.Done()
			defer c.closeConn()
			pt.slices = make([]uint64, nSlices)
			if keepLatency {
				pt.lat = make([]float64, 0, 1<<16)
			}
			for {
				t0 := time.Now()
				if !t0.Before(end) {
					return
				}
				err := c.do()
				t1 := time.Now()
				if err != nil {
					pt.failed++
					if pt.err == nil {
						pt.err = err
					}
					continue
				}
				pt.ok++
				if s := int(t1.Sub(start) / phaseSlice); s < nSlices {
					pt.slices[s]++
				}
				if keepLatency && len(pt.lat) < cap(pt.lat) {
					pt.lat = append(pt.lat, float64(t1.Sub(t0).Nanoseconds())/1e3)
				}
			}
		}(clients[i], &parts[i])
	}
	wg.Wait()
	res := phaseResult{wall: time.Since(start), sliceRPS: make([]float64, nSlices)}
	for _, pt := range parts {
		res.completed += pt.ok
		res.failed += pt.failed
		if res.firstErr == nil {
			res.firstErr = pt.err
		}
		for s, n := range pt.slices {
			res.sliceRPS[s] += float64(n) / phaseSlice.Seconds()
		}
		res.latUS = append(res.latUS, pt.lat...)
	}
	return res
}

// openLoop offers rate requests per second for d, split round-robin over the
// client connections. Each request is timed from when it was due, so a stall
// also delays the requests queued behind it.
func openLoop(clients []*client, rate int, d time.Duration) phaseResult {
	period := time.Second / time.Duration(rate)
	k := len(clients)
	perClient := int(d/period)/k + 1
	type part struct {
		ok, failed uint64
		err        error
		lat, late  []float64
	}
	parts := make([]part, k)
	start := time.Now().Add(time.Millisecond)
	end := start.Add(d)
	var wg sync.WaitGroup
	for i := range clients {
		wg.Add(1)
		go func(i int, c *client, pt *part) {
			defer wg.Done()
			defer c.closeConn()
			pt.lat = make([]float64, 0, perClient)
			pt.late = make([]float64, 0, perClient)
			for j := 0; ; j++ {
				due := start.Add(time.Duration(j*k+i) * period)
				if !due.Before(end) {
					return
				}
				if w := time.Until(due); w > 0 {
					time.Sleep(w)
				}
				sent := time.Now()
				err := c.do()
				done := time.Now()
				if err != nil {
					pt.failed++
					if pt.err == nil {
						pt.err = err
					}
					continue
				}
				pt.ok++
				pt.lat = append(pt.lat, float64(done.Sub(due).Nanoseconds())/1e3)
				pt.late = append(pt.late, float64(sent.Sub(due).Nanoseconds())/1e3)
			}
		}(i, clients[i], &parts[i])
	}
	wg.Wait()
	res := phaseResult{wall: time.Since(start)}
	for _, pt := range parts {
		res.completed += pt.ok
		res.failed += pt.failed
		if res.firstErr == nil {
			res.firstErr = pt.err
		}
		res.latUS = append(res.latUS, pt.lat...)
		res.lateUS = append(res.lateUS, pt.late...)
	}
	return res
}

// ---- the workload ----

// proxyEnv is one set-up: the stub, the proxy in front of it, and the client
// connections aimed at the proxy.
type proxyEnv struct {
	stub    *stub
	px      *proxyUnderTest
	clients []*client
}

func setupProxyEnv(w *wire, seed int64, nClients int) (*proxyEnv, error) {
	st, err := startStub(w)
	if err != nil {
		return nil, err
	}
	px, err := startProxy(st.addr())
	if err != nil {
		st.close()
		return nil, err
	}
	env := &proxyEnv{stub: st, px: px}
	for i := 0; i < nClients; i++ {
		c := newClient(w, px.addr(), seed+int64(i))
		err := c.do()
		c.closeConn()
		if err != nil {
			env.close()
			return nil, fmt.Errorf("first request through the proxy: %w", err)
		}
		env.clients = append(env.clients, c)
	}
	return env, nil
}

func (e *proxyEnv) close() error {
	for _, c := range e.clients {
		c.closeConn()
	}
	err := e.px.shutdown()
	e.stub.close()
	return err
}

type proxyRun struct {
	clients   int
	setupS    []float64
	closed    phaseResult // untimed stub: the capacity measurement
	open      phaseResult
	proc      procSample // over closed + open
	heapMB    float64
	attempted uint64
	failed    uint64
	stubReqs  uint64 // stub's benchmark requests during the proxied phases
	stubDials uint64
	clientOK  uint64 // client successes during the proxied phases

	// traced run only
	timedClosed phaseResult // same closed loop with the stub timing its handler
	direct      phaseResult // clients straight at the stub
	handlerNS   []float64
	workerCV    float64
	retries     float64
	recomputes  uint64
	batched     uint64
	avgPassed   float64
	scheduleNS  float64
	httpx       httpxCosts
	dialUS      float64
}

func runProxy(seed int64, seconds float64, traced bool) (*proxyRun, error) {
	w := newWire(seed)
	nClients := runtime.NumCPU()
	r := &proxyRun{clients: nClients}
	var env *proxyEnv
	for i := 0; i < proxySetups; i++ {
		t0 := time.Now()
		e, err := setupProxyEnv(w, seed, nClients)
		if err != nil {
			return nil, err
		}
		r.setupS = append(r.setupS, time.Since(t0).Seconds())
		if i == proxySetups-1 {
			env = e
		} else if err := e.close(); err != nil {
			return nil, fmt.Errorf("proxy shutdown: %w", err)
		}
	}

	total := time.Duration(seconds * float64(time.Second))
	closedD, openD := total*2/5, max(total/2, time.Second) // 2000+ samples for p99
	warm := closedLoop(env.clients, total/10, false)
	r.attempted += warm.completed + warm.failed
	r.failed += warm.failed
	req0, dial0 := env.stub.requests.Load(), env.stub.dials.Load()
	// Every set-up and warm-up request succeeded through the proxy, so the
	// stub's count so far must equal the client successes so far.
	if want := uint64(nClients) + warm.completed; req0 != want {
		env.close()
		return nil, fmt.Errorf("stub answered %d requests, clients saw %d", req0, want)
	}

	// Counters below are read as deltas over the proxied phases.
	retries0 := env.px.retries()
	recomputes0, batched0, _ := env.px.coreStats()
	proc0 := readProc()
	r.closed = closedLoop(env.clients, closedD, traced)
	r.open = openLoop(env.clients, proxyOpenRate, openD)
	r.proc = readProc().sub(proc0)
	if traced {
		env.stub.timed.Store(true)
		r.timedClosed = closedLoop(env.clients, closedD/2, true)
		env.stub.timed.Store(false)
	}
	r.heapMB = liveHeapMB()
	r.stubReqs = env.stub.requests.Load() - req0
	r.stubDials = env.stub.dials.Load() - dial0
	for _, ph := range []phaseResult{r.closed, r.open, r.timedClosed} {
		r.clientOK += ph.completed
		r.attempted += ph.completed + ph.failed
		r.failed += ph.failed
	}

	if traced {
		env.stub.mu.Lock()
		r.handlerNS = env.stub.handlerNS
		env.stub.mu.Unlock()
		r.workerCV = cv(env.px.workerHandled())
		r.retries = env.px.retries() - retries0
		r.recomputes, r.batched, r.avgPassed = env.px.coreStats()
		r.recomputes -= recomputes0
		r.batched -= batched0
		r.scheduleNS = env.px.scheduleNS(200000)
		direct := make([]*client, nClients)
		for i := range direct {
			direct[i] = newClient(w, env.stub.addr(), seed+int64(i))
		}
		r.direct = closedLoop(direct, closedD/2, false)
		var err error
		if r.httpx, err = measureHTTPX(w.request, w.response, 100000); err != nil {
			env.close()
			return nil, err
		}
		if r.dialUS, err = dialUS(env.stub.addr(), 500); err != nil {
			env.close()
			return nil, err
		}
	}
	if err := env.close(); err != nil {
		return nil, fmt.Errorf("proxy shutdown: %w", err)
	}
	return r, nil
}

// dialUS is the median time of a loopback TCP dial to addr, in µs.
func dialUS(addr string, n int) (float64, error) {
	ts := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		c, err := net.Dial("tcp", addr)
		if err != nil {
			return 0, fmt.Errorf("loopback dial: %w", err)
		}
		ts = append(ts, float64(time.Since(t0).Nanoseconds())/1e3)
		c.Close()
	}
	return median(ts), nil
}

// check verifies the proxied phases: every reply was already validated by
// the client, and the stub must have answered exactly the client's successes.
func (r *proxyRun) check() error {
	if r.stubReqs != r.clientOK {
		return fmt.Errorf("stub answered %d benchmark requests, clients saw %d good replies", r.stubReqs, r.clientOK)
	}
	if r.closed.completed == 0 || r.open.completed == 0 {
		return errors.New("proxy-loopback: a load phase completed no request")
	}
	if len(r.open.latUS) < 1000 {
		return fmt.Errorf("proxy-loopback: %d open-loop samples cannot support a p99", len(r.open.latUS))
	}
	return nil
}

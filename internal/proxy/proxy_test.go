package proxy

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hermes/internal/httpx"
	"hermes/internal/telemetry"
)

// stubUpstream is a controllable real-TCP backend for proxy tests.
type stubUpstream struct {
	t     *testing.T
	addr  string
	ln    net.Listener
	mu    sync.Mutex
	conns map[net.Conn]struct{} // accepted and still open

	hits     atomic.Uint64
	accepted atomic.Uint64 // connections accepted (upstream dials seen)
	delay    atomic.Int64  // per-request response delay
	hang     atomic.Bool   // accept + read, never respond
	// dropNext, when set, makes the next request read close its connection
	// without a reply, as when a backend's idle timeout fires just as a
	// request arrives; it then clears.
	dropNext atomic.Bool
	// raw, when set, replaces the normal reply.
	raw atomic.Pointer[rawReply]
	// last is the most recent request the stub parsed.
	last atomic.Pointer[httpx.Request]
}

// rawReply is a verbatim upstream reply, optionally followed by a close.
type rawReply struct {
	wire  string
	close bool
}

func newStubUpstream(t *testing.T) *stubUpstream {
	t.Helper()
	s := &stubUpstream{t: t, conns: make(map[net.Conn]struct{})}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s.addr = ln.Addr().String()
	s.serveOn(ln)
	t.Cleanup(s.kill)
	return s
}

func (s *stubUpstream) serveOn(ln net.Listener) {
	s.mu.Lock()
	s.ln = ln
	s.mu.Unlock()
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			s.accepted.Add(1)
			s.mu.Lock()
			s.conns[c] = struct{}{}
			s.mu.Unlock()
			go s.handle(c)
		}
	}()
}

func (s *stubUpstream) handle(c net.Conn) {
	defer func() {
		s.mu.Lock()
		delete(s.conns, c)
		s.mu.Unlock()
		c.Close()
	}()
	buf := make([]byte, 256<<10)
	pending := 0
	for {
		_ = c.SetReadDeadline(time.Now().Add(10 * time.Second))
		n, err := c.Read(buf[pending:])
		if err != nil {
			return
		}
		pending += n
		req, consumed, perr := httpx.ParseRequest(buf[:pending])
		if perr == httpx.ErrIncomplete {
			continue
		}
		if perr != nil {
			return
		}
		copy(buf, buf[consumed:pending])
		pending -= consumed
		s.hits.Add(1)
		s.last.Store(req)
		if s.dropNext.CompareAndSwap(true, false) {
			return
		}
		if s.hang.Load() {
			time.Sleep(10 * time.Second)
			return
		}
		if d := s.delay.Load(); d > 0 {
			time.Sleep(time.Duration(d))
		}
		if raw := s.raw.Load(); raw != nil {
			if _, err := c.Write([]byte(raw.wire)); err != nil || raw.close {
				return
			}
			continue
		}
		resp := httpx.Response{Status: 200, Body: []byte("ok from " + s.addr)}
		if _, err := c.Write(resp.Append(nil)); err != nil {
			return
		}
		if !req.WantsKeepAlive() {
			return
		}
	}
}

// kill closes the listener and every accepted connection, as a dead
// backend's sockets die with it: new dials are refused until restart.
func (s *stubUpstream) kill() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln != nil {
		s.ln.Close()
		s.ln = nil
	}
	s.closeConnsLocked()
}

// dropIdle closes the accepted connections but keeps listening, as a
// backend does when its keep-alive idle timeout fires.
func (s *stubUpstream) dropIdle() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closeConnsLocked()
}

func (s *stubUpstream) closeConnsLocked() {
	for c := range s.conns {
		c.Close()
	}
}

// open returns how many accepted connections are still open.
func (s *stubUpstream) open() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.conns)
}

// restart re-listens on the same address.
func (s *stubUpstream) restart() {
	s.t.Helper()
	ln, err := net.Listen("tcp", s.addr)
	if err != nil {
		s.t.Fatal(err)
	}
	s.serveOn(ln)
}

// testConfig is a fast, deterministic baseline: health checks and circuit
// breaking off unless a test turns them on.
func testConfig(backends ...*stubUpstream) Config {
	cfg := DefaultConfig()
	cfg.Listen = "127.0.0.1:0"
	cfg.Workers = 2
	cfg.HealthCheck.Enabled = false
	cfg.HealthCheck.PassiveThreshold = 0
	cfg.CircuitBreaker.Enabled = false
	cfg.DialTimeout = time.Second
	cfg.ResponseTimeout = 2 * time.Second
	cfg.ClientIdleTimeout = time.Second
	cfg.Backends = nil
	for _, b := range backends {
		cfg.Backends = append(cfg.Backends, BackendConfig{Address: b.addr, Weight: 1})
	}
	return cfg
}

func startProxy(t *testing.T, cfg Config, opts ...Option) *Proxy {
	t.Helper()
	p, err := New(cfg, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	return p
}

// get issues one GET through addr and returns the parsed response.
func get(addr, path string, body []byte) (*httpx.Response, error) {
	conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	method := "GET"
	if len(body) > 0 {
		method = "POST"
	}
	req := httpx.Request{
		Method: method,
		Target: path,
		Headers: []httpx.Header{
			{Name: "Host", Value: "test"},
			{Name: "Connection", Value: "close"},
		},
		Body: body,
	}
	if len(body) > 0 {
		req.Headers = append(req.Headers, httpx.Header{Name: "Content-Length", Value: fmt.Sprint(len(body))})
	}
	if _, err := conn.Write(req.Append(nil)); err != nil {
		return nil, err
	}
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	data, err := io.ReadAll(conn)
	if err != nil && len(data) == 0 {
		return nil, err
	}
	resp, _, perr := httpx.ParseResponse(data)
	return resp, perr
}

func TestProxyEndToEnd(t *testing.T) {
	b0, b1 := newStubUpstream(t), newStubUpstream(t)
	p := startProxy(t, testConfig(b0, b1))
	for i := 0; i < 20; i++ {
		resp, err := get(p.Addr(), fmt.Sprintf("/r/%d", i), nil)
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if resp.Status != 200 {
			t.Fatalf("request %d: status %d", i, resp.Status)
		}
	}
	if got := p.Served.Load(); got != 20 {
		t.Errorf("served = %d, want 20", got)
	}
	if b0.hits.Load() == 0 || b1.hits.Load() == 0 {
		t.Errorf("round-robin left a backend cold: %d / %d", b0.hits.Load(), b1.hits.Load())
	}
}

// One dead backend: idempotent requests retry onto the live one — zero lost —
// and passive checks eventually evict the corpse.
func TestProxyRetryCoversDeadBackend(t *testing.T) {
	dead, live := newStubUpstream(t), newStubUpstream(t)
	dead.kill()
	cfg := testConfig(dead, live)
	cfg.Buffer.Retries = 2
	cfg.HealthCheck.PassiveThreshold = 3
	reg := telemetry.NewRegistry()
	p := startProxy(t, cfg, WithTelemetry(reg))
	for i := 0; i < 30; i++ {
		resp, err := get(p.Addr(), "/", nil)
		if err != nil || resp.Status != 200 {
			t.Fatalf("request %d lost: status=%v err=%v", i, resp, err)
		}
	}
	if n := reg.Snapshot().Get("proxy.retry.recovered").Value; n == 0 {
		t.Error("no retries recorded despite a dead backend")
	}
	if p.pool.backends[0].Healthy() {
		t.Error("passive checks never evicted the dead backend")
	}
	if p.Errors.Load() != 0 {
		t.Errorf("errors = %d, want 0 (every request should recover)", p.Errors.Load())
	}
}

// Everything down: 502 while failures accumulate, 503 once the pool knows.
func TestProxyAllBackendsDown(t *testing.T) {
	dead := newStubUpstream(t)
	dead.kill()
	cfg := testConfig(dead)
	cfg.HealthCheck.PassiveThreshold = 1
	p := startProxy(t, cfg)
	resp, err := get(p.Addr(), "/", nil)
	if err != nil || resp.Status != 502 {
		t.Fatalf("first request: status=%v err=%v, want 502", resp, err)
	}
	resp, err = get(p.Addr(), "/", nil)
	if err != nil || resp.Status != 503 {
		t.Fatalf("second request: status=%v err=%v, want 503 (pool evicted)", resp, err)
	}
	if p.Unavailable.Load() == 0 {
		t.Error("unavailable counter never moved")
	}
}

// Bounded buffering: a body over the cap is refused with 413, both when the
// request parses (explicit check) and when it exceeds the buffer entirely
// (the old fixed-buffer code span-looped forever on this).
func TestProxyOversizedRequest(t *testing.T) {
	b := newStubUpstream(t)
	cfg := testConfig(b)
	cfg.Buffer.MaxRequestBody = 1024
	p := startProxy(t, cfg)

	resp, err := get(p.Addr(), "/", make([]byte, 4096))
	if err != nil || resp.Status != 413 {
		t.Fatalf("4KB body: status=%v err=%v, want 413", resp, err)
	}
	resp, err = get(p.Addr(), "/", make([]byte, 128<<10))
	if err != nil || resp.Status != 413 {
		t.Fatalf("128KB body: status=%v err=%v, want 413", resp, err)
	}
	if resp, err := get(p.Addr(), "/", make([]byte, 512)); err != nil || resp.Status != 200 {
		t.Fatalf("512B body: status=%v err=%v, want 200", resp, err)
	}
}

func TestAdminEndpoints(t *testing.T) {
	b0, b1 := newStubUpstream(t), newStubUpstream(t)
	cfg := testConfig(b0, b1)
	cfg.CircuitBreaker.Enabled = true
	p := startProxy(t, cfg)
	for i := 0; i < 5; i++ {
		if _, err := get(p.Addr(), "/", nil); err != nil {
			t.Fatal(err)
		}
	}
	srv := httptest.NewServer(AdminHandler(p))
	defer srv.Close()

	read := func(path string, wantStatus int) []byte {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != wantStatus {
			t.Fatalf("%s: status %d, want %d", path, resp.StatusCode, wantStatus)
		}
		body, _ := io.ReadAll(resp.Body)
		return body
	}

	if body := read("/healthz", 200); !strings.Contains(string(body), `"status": "ok"`) {
		t.Errorf("/healthz = %s", body)
	}
	body := read("/backends", 200)
	if !strings.Contains(string(body), b0.addr) || !strings.Contains(string(body), b1.addr) {
		t.Errorf("/backends = %s", body)
	}
	if body := read("/stats", 200); !strings.Contains(string(body), `"served": 5`) {
		t.Errorf("/stats = %s", body)
	}
	if body := read("/circuits", 200); !strings.Contains(string(body), `"state": "closed"`) {
		t.Errorf("/circuits = %s", body)
	}
	// The Hermes policy API keeps its shape under the same mux.
	if body := read("/status", 200); !strings.Contains(string(body), `"selection"`) {
		t.Errorf("/status = %s", body)
	}
	read("/policy", 200)

	// Unhealthy pool flips healthz to 503.
	p.pool.setHealthy(p.pool.backends[0], false, "active")
	p.pool.setHealthy(p.pool.backends[1], false, "active")
	if body := read("/healthz", 503); !strings.Contains(string(body), `"status": "unavailable"`) {
		t.Errorf("/healthz all-down = %s", body)
	}
}

// Graceful shutdown regression: an in-flight request completes before the
// listener goes away (the old close() dropped it on the floor).
func TestShutdownDrainsInFlight(t *testing.T) {
	b := newStubUpstream(t)
	b.delay.Store(int64(300 * time.Millisecond))
	p, err := New(testConfig(b))
	if err != nil {
		t.Fatal(err)
	}
	type result struct {
		resp *httpx.Response
		err  error
	}
	done := make(chan result, 1)
	go func() {
		resp, err := get(p.Addr(), "/slow", nil)
		done <- result{resp, err}
	}()
	time.Sleep(100 * time.Millisecond) // request is in flight
	if err := p.Shutdown(5 * time.Second); err != nil {
		t.Fatalf("drain failed: %v", err)
	}
	r := <-done
	if r.err != nil || r.resp.Status != 200 {
		t.Fatalf("in-flight request dropped: status=%v err=%v", r.resp, r.err)
	}
	// Drain vetoed every worker in the availability mask before closing.
	if mask := p.Controller().AvailableMask(0) & 0b11; mask != 0 {
		t.Errorf("worker bits after drain = %b, want 0", mask)
	}
	if _, err := net.DialTimeout("tcp", p.Addr(), 200*time.Millisecond); err == nil {
		t.Error("listener still accepting after shutdown")
	}
}

// Past the drain deadline, surviving connections are force-closed and
// Shutdown says so.
func TestShutdownForceClosesAfterDeadline(t *testing.T) {
	b := newStubUpstream(t)
	b.hang.Store(true)
	cfg := testConfig(b)
	cfg.ResponseTimeout = 500 * time.Millisecond
	reg := telemetry.NewRegistry()
	p, err := New(cfg, WithTelemetry(reg))
	if err != nil {
		t.Fatal(err)
	}
	go get(p.Addr(), "/hang", nil)
	time.Sleep(100 * time.Millisecond)
	err = p.Shutdown(100 * time.Millisecond)
	if err == nil || !strings.Contains(err.Error(), "force-closed") {
		t.Fatalf("Shutdown = %v, want force-close error", err)
	}
	if n := reg.Snapshot().Get("proxy.drain.forced_closes").Value; n == 0 {
		t.Error("forced-close counter never moved")
	}
}

// The acceptance soak: kill a backend under load — eviction within three
// probe intervals, the circuit opens, and not one request is lost thanks to
// retries; restart it — health and circuit recover.
func TestHealthEvictionAndRecoverySoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	const probeInterval = 200 * time.Millisecond
	b0, b1 := newStubUpstream(t), newStubUpstream(t)
	cfg := testConfig(b0, b1)
	cfg.Workers = 2
	cfg.Buffer.Retries = 2
	cfg.HealthCheck = HealthCheckConfig{
		Enabled:            true,
		Path:               "/health",
		Interval:           probeInterval,
		Timeout:            100 * time.Millisecond,
		HealthyThreshold:   2,
		UnhealthyThreshold: 2,
		PassiveThreshold:   0, // active probes only: measure probe-driven eviction
	}
	cfg.CircuitBreaker = CircuitBreakerConfig{
		Enabled:          true,
		FailureThreshold: 3,
		SuccessThreshold: 1,
		Timeout:          400 * time.Millisecond,
	}
	reg := telemetry.NewRegistry()
	p := startProxy(t, cfg, WithTelemetry(reg))

	var lost, served atomic.Uint64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := get(p.Addr(), "/soak", nil)
				if err != nil || resp.Status != 200 {
					lost.Add(1)
				} else {
					served.Add(1)
				}
			}
		}()
	}

	time.Sleep(400 * time.Millisecond) // warm: both backends serving
	killedAt := time.Now()
	b0.kill()

	dead := p.pool.backends[0]
	deadline := time.Now().Add(10 * probeInterval)
	for dead.Healthy() && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	evictionTook := time.Since(killedAt)
	if dead.Healthy() {
		t.Fatal("dead backend never evicted")
	}
	if evictionTook > 3*probeInterval+probeInterval/2 {
		t.Errorf("eviction took %v, want within 3 probe intervals (%v)", evictionTook, 3*probeInterval)
	}

	// Keep load running through the outage, then recover.
	time.Sleep(3 * probeInterval)
	if dead.circuit.Snapshot().Opens == 0 {
		t.Error("circuit never opened during the outage")
	}
	b0.restart()
	deadline = time.Now().Add(20 * probeInterval)
	for !dead.Healthy() && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if !dead.Healthy() {
		t.Fatal("restarted backend never recovered")
	}
	// Give the half-open circuit a chance to close through live traffic.
	deadline = time.Now().Add(20 * probeInterval)
	for dead.circuit.State() != CircuitClosed && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if st := dead.circuit.State(); st != CircuitClosed {
		t.Errorf("circuit = %v after recovery, want closed", st)
	}

	close(stop)
	wg.Wait()
	if lost.Load() != 0 {
		t.Errorf("%d requests lost across kill/recovery (served %d)", lost.Load(), served.Load())
	}
	if served.Load() == 0 {
		t.Error("soak served nothing")
	}
	if reg.Snapshot().Get("proxy.health.transitions").Value < 2 {
		t.Error("health transitions not recorded")
	}
}

func TestNewRejectsInvalidConfig(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Backends = nil
	if _, err := New(cfg); err == nil {
		t.Fatal("New accepted a config with no backends")
	}
}

// sendOn writes raw on conn and reads one length-framed reply, leaving the
// connection open for the next request.
func sendOn(conn net.Conn, raw string) (*httpx.Response, error) {
	method, _, _ := strings.Cut(raw, " ")
	if _, err := io.WriteString(conn, raw); err != nil {
		return nil, err
	}
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	var buf []byte
	tmp := make([]byte, 4096)
	for {
		n, err := conn.Read(tmp)
		buf = append(buf, tmp[:n]...)
		resp, _, perr := httpx.ParseResponseFor(buf, method)
		if perr == nil && !resp.UntilClose {
			return resp, nil
		}
		if perr != nil && perr != httpx.ErrIncomplete {
			return nil, perr
		}
		if err != nil {
			return nil, err
		}
	}
}

// waitFor polls cond for up to two seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func counter(reg *telemetry.Registry, name string) uint64 {
	return uint64(reg.Snapshot().Get(name).Value)
}

// Sequential keep-alive requests share one upstream connection.
func TestUpstreamKeepAliveOneDial(t *testing.T) {
	b := newStubUpstream(t)
	reg := telemetry.NewRegistry()
	p := startProxy(t, testConfig(b), WithTelemetry(reg))
	conn, err := net.Dial("tcp", p.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	const n = 20
	for i := 0; i < n; i++ {
		resp, err := sendOn(conn, fmt.Sprintf("GET /ka/%d HTTP/1.1\r\nHost: t\r\n\r\n", i))
		if err != nil || resp.Status != 200 || string(resp.Body) != "ok from "+b.addr {
			t.Fatalf("request %d: %+v err=%v", i, resp, err)
		}
	}
	if got := b.accepted.Load(); got != 1 {
		t.Errorf("upstream connections = %d, want 1 for %d keep-alive requests", got, n)
	}
	if d, r := counter(reg, "proxy.upstream.dials"), counter(reg, "proxy.upstream.reused"); d != 1 || r != n-1 {
		t.Errorf("dials/reused = %d/%d, want 1/%d", d, r, n-1)
	}
}

// The §7 property: the idle stack is per backend, not per worker, so
// connections returned by one worker serve the others. Upstream dials stay
// within the peak number of concurrent exchanges, not Workers × Backends.
func TestSharedUpstreamPoolAcrossWorkers(t *testing.T) {
	b := newStubUpstream(t)
	cfg := testConfig(b)
	cfg.Workers = 4
	p := startProxy(t, cfg)
	const clients, perClient = 2, 60
	var wg sync.WaitGroup
	var failed atomic.Uint64
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				// A fresh client connection each time, so the acceptor
				// spreads them over every worker.
				if resp, err := get(p.Addr(), "/spread", nil); err != nil || resp.Status != 200 {
					failed.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	if failed.Load() != 0 {
		t.Fatalf("%d requests failed", failed.Load())
	}
	for i := 0; i < p.Workers(); i++ {
		if p.WorkerHandled(i) == 0 {
			t.Fatalf("worker %d handled nothing; the test needs traffic on every worker", i)
		}
	}
	if got := b.accepted.Load(); got > clients {
		t.Errorf("upstream dials = %d over %d workers, want ≤ %d (peak concurrency)", got, p.Workers(), clients)
	}
}

// A pooled connection the backend closed while idle fails the liveness
// probe and is dropped before the request is written: the request goes out
// on a fresh dial, with no replay, no 502 and no health or circuit failure.
func TestIdleClosedConnectionIsProbedOut(t *testing.T) {
	b := newStubUpstream(t)
	cfg := testConfig(b)
	cfg.HealthCheck.PassiveThreshold = 1
	cfg.CircuitBreaker = CircuitBreakerConfig{Enabled: true, FailureThreshold: 1, SuccessThreshold: 1, Timeout: time.Minute}
	reg := telemetry.NewRegistry()
	p := startProxy(t, cfg, WithTelemetry(reg))
	if resp, err := get(p.Addr(), "/warm", nil); err != nil || resp.Status != 200 {
		t.Fatalf("warm-up: %+v err=%v", resp, err)
	}
	b.dropIdle()
	waitFor(t, "the backend to close its idle connection", func() bool { return b.open() == 0 })
	time.Sleep(20 * time.Millisecond) // let the FIN reach the proxy's socket

	if resp, err := get(p.Addr(), "/post-after-idle-close", []byte("payload")); err != nil || resp.Status != 200 {
		t.Fatalf("POST after the pooled connection closed: %+v err=%v, want 200", resp, err)
	}
	if d, r, s := counter(reg, "proxy.upstream.dials"), counter(reg, "proxy.upstream.reused"), counter(reg, "proxy.upstream.stale_replays"); d != 2 || r != 0 || s != 0 {
		t.Errorf("dials/reused/stale replays = %d/%d/%d, want 2/0/0", d, r, s)
	}
	assertBackendClean(t, p)
}

// Several POSTs after the backend closed every idle connection, under the
// default passive threshold: all succeed and the backend stays healthy.
func TestPOSTsAfterIdleCloseKeepBackendHealthy(t *testing.T) {
	b := newStubUpstream(t)
	cfg := testConfig(b)
	cfg.Workers = 4
	cfg.HealthCheck.PassiveThreshold = DefaultConfig().HealthCheck.PassiveThreshold
	p := startProxy(t, cfg)
	// Park one connection per worker: concurrent slow requests each dial.
	b.delay.Store(int64(50 * time.Millisecond))
	var wg sync.WaitGroup
	for i := 0; i < cfg.Workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if resp, err := get(p.Addr(), "/warm", nil); err != nil || resp.Status != 200 {
				t.Errorf("warm-up: %+v err=%v", resp, err)
			}
		}()
	}
	wg.Wait()
	b.delay.Store(0)
	if n := b.open(); n < 2 {
		t.Fatalf("%d pooled connections after concurrent warm-up, want several", n)
	}
	b.dropIdle()
	waitFor(t, "the backend to close its idle connections", func() bool { return b.open() == 0 })
	time.Sleep(20 * time.Millisecond)

	for i := 0; i < cfg.Workers; i++ {
		if resp, err := get(p.Addr(), "/post", []byte("payload")); err != nil || resp.Status != 200 {
			t.Fatalf("POST %d: %+v err=%v, want 200", i, resp, err)
		}
	}
	assertBackendClean(t, p)
}

// A pooled connection that passes the probe but dies once the request is
// out, before any reply byte: a GET is replayed on a fresh dial, with no 502
// and no health or circuit failure.
func TestStaleConnectionReplaysGET(t *testing.T) {
	b := newStubUpstream(t)
	cfg := testConfig(b)
	cfg.HealthCheck.PassiveThreshold = 1
	cfg.CircuitBreaker = CircuitBreakerConfig{Enabled: true, FailureThreshold: 1, SuccessThreshold: 1, Timeout: time.Minute}
	reg := telemetry.NewRegistry()
	p := startProxy(t, cfg, WithTelemetry(reg))
	if resp, err := get(p.Addr(), "/warm", nil); err != nil || resp.Status != 200 {
		t.Fatalf("warm-up: %+v err=%v", resp, err)
	}
	b.dropNext.Store(true)
	resp, err := get(p.Addr(), "/dropped-once", nil)
	if err != nil || resp.Status != 200 {
		t.Fatalf("GET on a connection that died after the write: %+v err=%v, want 200", resp, err)
	}
	if n := counter(reg, "proxy.upstream.stale_replays"); n != 1 {
		t.Errorf("stale replays = %d, want 1", n)
	}
	if n := b.hits.Load(); n != 3 {
		t.Errorf("backend hits = %d, want 3 (warm-up, dropped, replay)", n)
	}
	if n := counter(reg, "proxy.retry.attempts"); n != 0 {
		t.Errorf("replay counted as %d retry attempts", n)
	}
	assertBackendClean(t, p)
}

// The same death under a POST: the backend may have acted on the request,
// so it is not replayed and the client gets a 502. The connection died, not
// the backend: no health or circuit failure is counted.
func TestStaleConnectionDoesNotReplayPOST(t *testing.T) {
	b := newStubUpstream(t)
	cfg := testConfig(b)
	cfg.HealthCheck.PassiveThreshold = 1
	cfg.CircuitBreaker = CircuitBreakerConfig{Enabled: true, FailureThreshold: 1, SuccessThreshold: 1, Timeout: time.Minute}
	reg := telemetry.NewRegistry()
	p := startProxy(t, cfg, WithTelemetry(reg))
	if resp, err := get(p.Addr(), "/warm", nil); err != nil || resp.Status != 200 {
		t.Fatalf("warm-up: %+v err=%v", resp, err)
	}
	b.dropNext.Store(true)
	resp, err := get(p.Addr(), "/post", []byte("payload"))
	if err != nil || resp.Status != 502 {
		t.Fatalf("POST on a connection that died after the write: %+v err=%v, want 502", resp, err)
	}
	if n := counter(reg, "proxy.upstream.stale_replays"); n != 0 {
		t.Errorf("stale replays = %d, want 0 for a POST", n)
	}
	if n := b.hits.Load(); n != 2 {
		t.Errorf("backend hits = %d, want 2 (the POST must reach it once)", n)
	}
	assertBackendClean(t, p)
}

// assertBackendClean checks that backend 0 took no failure: healthy, no
// errors, and its circuit (when enabled) closed.
func assertBackendClean(t *testing.T, p *Proxy) {
	t.Helper()
	be := p.pool.backends[0]
	if !be.Healthy() || be.errors.Load() != 0 || be.circuit != nil && be.circuit.State() != CircuitClosed {
		t.Errorf("counted as a backend failure: healthy=%v errors=%d", be.Healthy(), be.errors.Load())
	}
}

// An unhealthy backend's stack is flushed and stays empty: a connection
// returned after the flip is closed, not parked.
func TestIdleStackRefusesUnhealthyBackend(t *testing.T) {
	var healthy atomic.Bool
	healthy.Store(true)
	s := idleConns{max: 2, healthy: &healthy}
	a1, a2 := net.Pipe()
	defer a2.Close()
	b1, b2 := net.Pipe()
	defer b2.Close()
	s.put(&upConn{Conn: a1, live: assumeLive})
	healthy.Store(false)
	s.flush(false)
	s.put(&upConn{Conn: b1, live: assumeLive})
	if c := s.get(); c != nil {
		t.Fatal("an unhealthy backend's stack handed out a connection")
	}
	for _, peer := range []net.Conn{a2, b2} {
		_ = peer.SetReadDeadline(time.Now().Add(time.Second))
		if _, err := peer.Read(make([]byte, 1)); err != io.EOF {
			t.Errorf("connection not closed: read err=%v", err)
		}
	}
}

// The liveness probe tells an idle connection from one the peer closed or
// wrote to unasked, survives a passed deadline, and allocates nothing.
func TestLivenessProbe(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	pair := func() (*upConn, net.Conn) {
		c, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		peer, err := ln.Accept()
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close(); peer.Close() })
		return &upConn{Conn: c, live: newProbe(c)}, peer
	}
	idle, _ := pair()
	_ = idle.SetDeadline(time.Now().Add(-time.Second))
	if !idle.live() {
		t.Error("idle connection with a passed deadline probed dead")
	}
	if n := testing.AllocsPerRun(100, func() { idle.live() }); n != 0 {
		t.Errorf("probe allocates %.1f times", n)
	}
	closed, peer := pair()
	peer.Close()
	waitFor(t, "the probe to see the close", func() bool { return !closed.live() })
	chatty, peer := pair()
	if _, err := peer.Write([]byte("x")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the probe to see unasked bytes", func() bool { return !chatty.live() })
}

// Shutdown closes idle upstream connections instead of leaving them to the
// backend's idle timeout.
func TestShutdownClosesIdleUpstream(t *testing.T) {
	b := newStubUpstream(t)
	p, err := New(testConfig(b))
	if err != nil {
		t.Fatal(err)
	}
	if resp, err := get(p.Addr(), "/", nil); err != nil || resp.Status != 200 {
		t.Fatalf("request: %+v err=%v", resp, err)
	}
	if b.open() != 1 {
		t.Fatalf("open upstream connections = %d, want 1 pooled", b.open())
	}
	if err := p.Shutdown(time.Second); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the pooled connection to close", func() bool { return b.open() == 0 })
}

// Upstream reply framing decides what the client gets and whether the
// connection goes back to the pool; hop-by-hop headers never reach the
// client.
func TestUpstreamReplyFramingAndPooling(t *testing.T) {
	big := strings.Repeat("0123456789abcdef", 20<<10) // 320 KiB: many reads, buffer growth
	cases := []struct {
		name       string
		reply      rawReply
		status     int
		body       string
		pooled     bool
		notForward []string
	}{
		{"length framed", rawReply{"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok", false}, 200, "ok", true, nil},
		{"close delimited", rawReply{"HTTP/1.1 200 OK\r\nX-Kind: eof\r\n\r\nbody until close", true}, 200, "body until close", false, nil},
		{"close delimited, large", rawReply{"HTTP/1.1 200 OK\r\n\r\n" + big, true}, 200, big, false, nil},
		{"length framed, large", rawReply{fmt.Sprintf("HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n", len(big)) + big, false}, 200, big, true, nil},
		{"upstream asks to close", rawReply{"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nConnection: close\r\n\r\nok", false}, 200, "ok", false, nil},
		{"HTTP/1.0 reply", rawReply{"HTTP/1.0 200 OK\r\nContent-Length: 2\r\n\r\nok", false}, 200, "ok", false, nil},
		{"bytes left over", rawReply{"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nokEXTRA", false}, 200, "ok", false, nil},
		{"transfer-encoding", rawReply{"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n2\r\nok\r\n0\r\n\r\n", false}, 502, "", false, nil},
		{"interim 100 first", rawReply{"HTTP/1.1 100 Continue\r\n\r\nHTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok", false}, 200, "ok", true, nil},
		{"204 without body", rawReply{"HTTP/1.1 204 No Content\r\n\r\n", false}, 204, "", true, nil},
		{"hop-by-hop stripped", rawReply{"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nConnection: X-Internal\r\nX-Internal: s\r\nKeep-Alive: timeout=9\r\nUpgrade: h2c\r\n\r\nok", false},
			200, "ok", true, []string{"X-Internal", "Keep-Alive", "Upgrade"}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			b := newStubUpstream(t)
			reg := telemetry.NewRegistry()
			p := startProxy(t, testConfig(b), WithTelemetry(reg))
			reply := c.reply
			b.raw.Store(&reply)
			resp, err := get(p.Addr(), "/", nil)
			if err != nil || resp.Status != c.status {
				t.Fatalf("reply: %+v err=%v, want status %d", resp, err, c.status)
			}
			if c.status != 502 && string(resp.Body) != c.body {
				t.Errorf("body = %d bytes, want %d", len(resp.Body), len(c.body))
			}
			if cl, ok := resp.Get("Content-Length"); c.status != 204 && (!ok || cl != fmt.Sprint(len(resp.Body))) {
				t.Errorf("client reply Content-Length = %q (present %v), body %d bytes", cl, ok, len(resp.Body))
			}
			for _, h := range c.notForward {
				if _, ok := resp.Get(h); ok {
					t.Errorf("hop-by-hop header %s reached the client", h)
				}
			}
			b.raw.Store(nil)
			if resp, err := get(p.Addr(), "/next", nil); err != nil || resp.Status != 200 {
				t.Fatalf("next request: %+v err=%v", resp, err)
			}
			reused := counter(reg, "proxy.upstream.reused")
			if c.pooled != (reused == 1) {
				t.Errorf("connection reused %d times, want pooled=%v", reused, c.pooled)
			}
		})
	}
}

// A reply to HEAD keeps the upstream's Content-Length, and gets none added
// when the upstream sent none: a forced 0 would tell the client the GET body
// is empty. The client connection stays in step for the next request.
func TestHeadReplyLength(t *testing.T) {
	cases := []struct {
		name, reply string
		length      string // "" for no Content-Length
	}{
		{"upstream length", "HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\n", "5"},
		{"no upstream length", "HTTP/1.1 200 OK\r\nX-Kind: head\r\n\r\n", ""},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			b := newStubUpstream(t)
			p := startProxy(t, testConfig(b))
			b.raw.Store(&rawReply{wire: c.reply})
			conn, err := net.Dial("tcp", p.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			resp, err := sendOn(conn, "HEAD / HTTP/1.1\r\nHost: t\r\n\r\n")
			if err != nil || resp.Status != 200 {
				t.Fatalf("HEAD: %+v err=%v", resp, err)
			}
			if cl, _ := resp.Get("Content-Length"); cl != c.length {
				t.Errorf("Content-Length = %q, want %q", cl, c.length)
			}
			b.raw.Store(nil)
			if resp, err := sendOn(conn, "GET /next HTTP/1.1\r\nHost: t\r\n\r\n"); err != nil || string(resp.Body) != "ok from "+b.addr {
				t.Fatalf("GET after HEAD: %+v err=%v", resp, err)
			}
		})
	}
}

// rawExchange writes raw to the proxy and reads until the proxy closes.
func rawExchange(t *testing.T, addr, raw string) *httpx.Response {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, raw); err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	data, err := io.ReadAll(conn)
	if err != nil {
		t.Fatalf("proxy did not close the connection: %v", err)
	}
	resp, n, err := httpx.ParseResponse(data)
	if err != nil || n != len(data) {
		t.Fatalf("reply %q: err=%v", data, err)
	}
	return resp
}

// Request framing the proxy cannot pass on safely is refused before any
// byte reaches the shared upstream connections, and the client connection
// is closed so the rest of its bytes are never parsed as a request.
func TestRequestDesyncGuards(t *testing.T) {
	const smuggled = "GET /smuggled HTTP/1.1\r\nHost: t\r\n\r\n"
	cases := []struct {
		name, raw string
		status    int
	}{
		{"transfer-encoding", "POST / HTTP/1.1\r\nHost: t\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\n" + smuggled, 501},
		{"conflicting lengths", fmt.Sprintf("POST / HTTP/1.1\r\nHost: t\r\nContent-Length: 0\r\nContent-Length: %d\r\n\r\n", len(smuggled)) + smuggled, 400},
		{"signed length", "POST / HTTP/1.1\r\nHost: t\r\nContent-Length: +3\r\n\r\nabc", 400},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			b := newStubUpstream(t)
			p := startProxy(t, testConfig(b))
			resp := rawExchange(t, p.Addr(), c.raw)
			if resp.Status != c.status {
				t.Errorf("status = %d, want %d", resp.Status, c.status)
			}
			if v, _ := resp.Get("Connection"); v != "close" {
				t.Errorf("Connection = %q, want close", v)
			}
			if n := b.hits.Load(); n != 0 {
				t.Errorf("backend saw %d requests, want 0", n)
			}
		})
	}
}

// A request with two identical Content-Length headers and a second request
// hidden in its body reaches the backend as one request with one
// Content-Length; hop-by-hop headers are not forwarded.
func TestForwardedRequestFraming(t *testing.T) {
	b := newStubUpstream(t)
	p := startProxy(t, testConfig(b))
	body := "GET /smuggled HTTP/1.1\r\nHost: t\r\n\r\n"
	raw := fmt.Sprintf("POST /upload HTTP/1.1\r\nHost: t\r\nContent-Length: %d\r\nContent-Length: %d\r\n"+
		"Connection: close, X-Secret\r\nX-Secret: 1\r\nKeep-Alive: timeout=5\r\nProxy-Connection: keep-alive\r\nTE: trailers\r\nUpgrade: h2c\r\nX-Kept: yes\r\n\r\n",
		len(body), len(body)) + body
	resp := rawExchange(t, p.Addr(), raw)
	if resp.Status != 200 {
		t.Fatalf("status = %d, want 200", resp.Status)
	}
	if n := b.hits.Load(); n != 1 {
		t.Fatalf("backend saw %d requests, want 1", n)
	}
	got := b.last.Load()
	if got.Target != "/upload" || string(got.Body) != body {
		t.Errorf("forwarded %s with body %q", got.Target, got.Body)
	}
	lengths := 0
	for _, h := range got.Headers {
		if strings.EqualFold(h.Name, "Content-Length") {
			lengths++
		}
	}
	if lengths != 1 {
		t.Errorf("forwarded request carries %d Content-Length headers, want 1", lengths)
	}
	for _, h := range []string{"Connection", "X-Secret", "Keep-Alive", "Proxy-Connection", "TE", "Upgrade"} {
		if v, ok := got.Get(h); ok {
			t.Errorf("hop-by-hop %s: %q forwarded", h, v)
		}
	}
	if v, _ := got.Get("X-Kept"); v != "yes" {
		t.Error("end-to-end header X-Kept dropped")
	}
	if v, _ := got.Get("X-Forwarded-By"); !strings.HasPrefix(v, "hermes-lb/w") {
		t.Errorf("X-Forwarded-By = %q", v)
	}
}

// The proxy forwards as HTTP/1.1, which requires Host: an HTTP/1.0 client
// that sent none gets the backend's address filled in.
func TestForwardHTTP10WithoutHost(t *testing.T) {
	b := newStubUpstream(t)
	p := startProxy(t, testConfig(b))
	if resp := rawExchange(t, p.Addr(), "GET /old HTTP/1.0\r\n\r\n"); resp.Status != 200 {
		t.Fatalf("status = %d, want 200", resp.Status)
	}
	got := b.last.Load()
	if got.Proto != "HTTP/1.1" || got.Host() != b.addr {
		t.Errorf("forwarded %s with Host %q, want HTTP/1.1 with Host %q", got.Proto, got.Host(), b.addr)
	}
}

// The reuse path records and serializes without allocating once warm: the
// upstream counters, the idle stack, and both serializers writing into the
// worker's scratch buffers.
func TestUpstreamPathAllocFree(t *testing.T) {
	tel := newInstruments(telemetry.NewRegistry(), 1, 1)
	w := &worker{p: &Proxy{tel: tel}, fwdBy: httpx.Header{Name: "X-Forwarded-By", Value: "hermes-lb/w0"}}
	req := &httpx.Request{Method: "POST", Target: "/x", Proto: "HTTP/1.1", Body: []byte("body"), Headers: []httpx.Header{
		{Name: "Host", Value: "h"}, {Name: "Content-Length", Value: "4"}, {Name: "Connection", Value: "keep-alive"},
	}}
	resp := &httpx.Response{Status: 200, Proto: "HTTP/1.1", Body: []byte("ok"), Headers: []httpx.Header{
		{Name: "Content-Length", Value: "2"}, {Name: "Keep-Alive", Value: "timeout=5"},
	}}
	var healthy atomic.Bool
	healthy.Store(true)
	s := idleConns{max: 1, healthy: &healthy}
	c1, c2 := net.Pipe()
	defer c1.Close()
	defer c2.Close()
	up := &upConn{Conn: c1, live: assumeLive}
	step := func() {
		tel.UpstreamDials.Inc()
		tel.UpstreamReused.Inc()
		tel.UpstreamStaleReplays.Inc()
		s.put(up)
		if s.get() != up {
			t.Fatal("idle stack lost its connection")
		}
		w.fwd = w.appendForward(w.fwd[:0], req, "backend:80")
		w.out = w.appendReply(w.out[:0], resp, false, false)
	}
	step()
	if n := testing.AllocsPerRun(100, step); n != 0 {
		t.Errorf("upstream reuse path allocates %.1f times per request, want 0", n)
	}
}

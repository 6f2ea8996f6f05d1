package proxy

import (
	"errors"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hermes/internal/httpx"
)

// idleConns is one backend's stack of idle keep-alive upstream connections,
// shared by every worker. Under Hermes a client's connections spread over
// all workers, so per-worker idle pools fragment and each worker ends up
// dialing its own (§7); one shared stack lets any worker reuse what another
// returned. LIFO hands out the most recently used connection, the one least
// likely to have been closed by the backend while idle.
type idleConns struct {
	mu      sync.Mutex
	conns   []*upConn
	max     int          // at most one exchange per worker is in flight: Workers
	healthy *atomic.Bool // the backend's health; read under mu by put
	closed  bool         // set by Shutdown: returned connections are closed
}

// get pops an idle connection, or returns nil when none is parked.
func (s *idleConns) get() *upConn {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := len(s.conns)
	if n == 0 {
		return nil
	}
	c := s.conns[n-1]
	s.conns[n-1] = nil
	s.conns = s.conns[:n-1]
	return c
}

// put parks c for reuse, or closes it when the stack is full or shut, or
// the backend is unhealthy. Health is read under mu: a put that still saw
// the backend healthy is ordered before the flush that follows the health
// flip, so an unhealthy backend's stack is never refilled.
func (s *idleConns) put(c *upConn) {
	s.mu.Lock()
	if !s.closed && s.healthy.Load() && len(s.conns) < s.max {
		s.conns = append(s.conns, c)
		c = nil
	}
	s.mu.Unlock()
	if c != nil {
		c.Close()
	}
}

// flush closes every idle connection; with shut set, later puts close
// their connection instead of parking it.
func (s *idleConns) flush(shut bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, c := range s.conns {
		c.Close()
		s.conns[i] = nil
	}
	s.conns = s.conns[:0]
	s.closed = s.closed || shut
}

// upConn is an upstream connection with its liveness probe, bound once per
// dial so that probing a pooled connection allocates nothing.
type upConn struct {
	net.Conn
	// live reports whether the connection can still carry a request: the
	// backend has not closed it and sent nothing unasked while it sat idle.
	live func() bool
}

// retainedBuf bounds the scratch a worker keeps between requests: a larger
// message's buffer serves that one exchange and is then dropped.
const retainedBuf = 1 << 20

var (
	errTruncatedBody = errors.New("proxy: upstream closed mid-response")
	// zeroLength frames a forwarded request that declared an empty body.
	zeroLength = httpx.Header{Name: "Content-Length", Value: "0"}
	closeConn  = httpx.Header{Name: "Connection", Value: "close"}
)

// hopByHop lists the connection-specific headers a proxy must not forward
// in either direction (RFC 9110 §7.6.1), besides those Connection names.
var hopByHop = []string{"Connection", "Keep-Alive", "Proxy-Connection", "TE", "Transfer-Encoding", "Upgrade"}

// appendEndToEnd appends the headers of hs a proxy forwards: everything but
// the hop-by-hop set and the headers the message's Connection lists.
// Content-Length goes too unless keepLength is set: the proxy frames the
// bodies it sends itself.
func appendEndToEnd(dst, hs []httpx.Header, keepLength bool) []httpx.Header {
next:
	for _, h := range hs {
		for _, name := range hopByHop {
			if strings.EqualFold(h.Name, name) {
				continue next
			}
		}
		if !keepLength && strings.EqualFold(h.Name, "Content-Length") || httpx.HasToken(hs, "Connection", h.Name) {
			continue
		}
		dst = append(dst, h)
	}
	return dst
}

// appendForward serializes req as sent to the backend at host: the proxy's
// own HTTP version (with the Host it requires, for an HTTP/1.0 client that
// sent none), end-to-end headers, X-Forwarded-By, and exactly one
// Content-Length for a request that declared a length.
func (w *worker) appendForward(dst []byte, req *httpx.Request, host string) []byte {
	hs := appendEndToEnd(w.hdrs[:0], req.Headers, false)
	if _, ok := req.Get("Host"); !ok {
		hs = append(hs, httpx.Header{Name: "Host", Value: host})
	}
	hs = append(hs, w.fwdBy)
	if _, ok := req.Get("Content-Length"); ok && len(req.Body) == 0 {
		hs = append(hs, zeroLength)
	}
	fwd := httpx.Request{Method: req.Method, Target: req.Target, Proto: "HTTP/1.1", Headers: hs, Body: req.Body}
	dst = fwd.Append(dst)
	w.hdrs = hs[:0]
	return dst
}

// appendReply serializes resp for the client the same way: end-to-end
// headers, a Content-Length the proxy computed (a HEAD reply keeps the
// upstream's, or has none, since no body follows it), and Connection: close
// when the proxy closes the client connection after this reply.
func (w *worker) appendReply(dst []byte, resp *httpx.Response, head, close bool) []byte {
	hs := appendEndToEnd(w.hdrs[:0], resp.Headers, head)
	if close {
		hs = append(hs, closeConn)
	}
	out := httpx.Response{Status: resp.Status, Reason: resp.Reason, Proto: "HTTP/1.1", Headers: hs, Body: resp.Body}
	if head {
		dst = out.AppendHead(dst)
	} else {
		dst = out.Append(dst)
	}
	w.hdrs = hs[:0]
	return dst
}

// roundTrip performs one upstream exchange against b, on an idle pooled
// connection when a live one is parked, else on a fresh dial. Parked
// connections the backend closed while idle fail the liveness probe and are
// dropped before any byte is written. One that dies after the probe, before
// any reply byte, is replayed once on a fresh dial when the rule net/http
// and nginx share allows it: the write failed, or the method is idempotent.
// The replay is neither a retry attempt nor a backend failure; the fresh
// exchange's outcome is what the caller observes. Where the rule forbids a
// replay the error is a staleUpstreamError, which the caller does not count
// against the backend: the connection died, not the backend.
func (w *worker) roundTrip(b *Backend, req *httpx.Request) (*httpx.Response, error) {
	p := w.p
	b.active.Add(1)
	p.tel.BackendActive.At(b.idx).Add(1)
	defer func() {
		b.active.Add(-1)
		p.tel.BackendActive.At(b.idx).Add(-1)
	}()

	w.fwd = w.appendForward(w.fwd[:0], req, b.addr)
	up := b.idle.get()
	for up != nil && !up.live() {
		up.Close()
		up = b.idle.get()
	}
	reused := up != nil
	if reused {
		p.tel.UpstreamReused.Inc()
	} else {
		var err error
		if up, err = w.dial(b); err != nil {
			return nil, err
		}
	}
	resp, keep, died, err := w.exchange(up, req.Method)
	if err != nil && reused && died != alive {
		up.Close()
		if died == diedBeforeReply && !isIdempotent(req.Method) {
			return nil, staleUpstreamError{err}
		}
		p.tel.UpstreamStaleReplays.Inc()
		if up, err = w.dial(b); err != nil {
			return nil, err
		}
		resp, keep, _, err = w.exchange(up, req.Method)
	}
	if cap(w.fwd) > retainedBuf {
		w.fwd = nil
	}
	if err != nil {
		up.Close()
		return nil, err
	}
	// A connection goes back only when its reply was length-framed, neither
	// side asked to close, and nothing is left over on it.
	if keep {
		b.idle.put(up)
	} else {
		up.Close()
	}
	return resp, nil
}

// staleUpstreamError is the failure of a request on a pooled connection
// that died before any reply byte, where the request may not be replayed.
type staleUpstreamError struct{ err error }

func (e staleUpstreamError) Error() string {
	return "proxy: pooled upstream connection died: " + e.err.Error()
}
func (e staleUpstreamError) Unwrap() error { return e.err }

// dial opens a new upstream connection; dial_timeout bounds only this.
func (w *worker) dial(b *Backend) (*upConn, error) {
	c, err := net.DialTimeout("tcp", b.addr, w.p.cfg.DialTimeout)
	if err != nil {
		return nil, err
	}
	w.p.tel.UpstreamDials.Inc()
	return &upConn{Conn: c, live: newProbe(c)}, nil
}

// death says how a failed exchange left its connection, for the replay
// rule.
type death uint8

const (
	alive           death = iota // no sign the connection died: a timeout, a bad or cut reply
	diedOnWrite                  // the write failed: the backend got no whole request
	diedBeforeReply              // the request went out; EOF or a reset before any reply byte
)

// exchange writes the serialized forward request on up and reads one reply,
// framed by httpx: 1xx interim replies are skipped, a length-framed reply is
// read to its length, a close-delimited one to EOF. keep reports whether up
// may carry another exchange; died how a failure left the connection.
func (w *worker) exchange(up net.Conn, method string) (resp *httpx.Response, keep bool, died death, err error) {
	_ = up.SetDeadline(time.Now().Add(w.p.cfg.ResponseTimeout))
	if _, err := up.Write(w.fwd); err != nil {
		if isTimeout(err) {
			return nil, false, alive, err
		}
		return nil, false, diedOnWrite, err
	}
	buf := w.rbuf
	defer func() {
		if len(buf) <= retainedBuf {
			w.rbuf = buf
		}
	}()
	n, start := 0, 0
	need := 0      // bytes the reply at start spans, once its header is parsed
	toEOF := false // a close-delimited reply: parse it once, at EOF
	for {
		if n == len(buf) {
			grown := make([]byte, max(2*len(buf), 4<<10, start+need))
			copy(grown, buf[:n])
			buf = grown
		}
		m, rerr := up.Read(buf[n:])
		n += m
		eof := rerr == io.EOF
		if rerr != nil && !eof {
			if n == 0 && !isTimeout(rerr) {
				return nil, false, diedBeforeReply, rerr
			}
			return nil, false, alive, rerr
		}
		for (!toEOF && n-start >= need) || eof {
			r, used, perr := httpx.ParseResponseFor(buf[start:n], method)
			if perr == nil && r.UntilClose && !eof {
				toEOF = true
				break
			}
			if errors.Is(perr, httpx.ErrIncomplete) {
				need = used // the length, once the header is whole: no reparse until then
				break
			}
			if perr != nil {
				return nil, false, alive, perr
			}
			if r.Status < 200 {
				start += used // interim reply: the final one follows
				need = 0
				continue
			}
			return r, !r.UntilClose && start+used == n && r.WantsKeepAlive(), alive, nil
		}
		if eof {
			if n == 0 {
				return nil, false, diedBeforeReply, io.EOF
			}
			return nil, false, alive, errTruncatedBody
		}
	}
}

func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

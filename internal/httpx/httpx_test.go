package httpx

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"testing/quick"
)

func TestParseSimpleGET(t *testing.T) {
	raw := []byte("GET /index.html?q=1 HTTP/1.1\r\nHost: example.com\r\nX-Tenant: t42\r\n\r\n")
	req, n, err := ParseRequest(raw)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(raw) {
		t.Fatalf("consumed %d of %d", n, len(raw))
	}
	if req.Method != "GET" || req.Target != "/index.html?q=1" || req.Proto != "HTTP/1.1" {
		t.Fatalf("request line: %+v", req)
	}
	if req.Host() != "example.com" {
		t.Fatalf("host = %q", req.Host())
	}
	if req.Path() != "/index.html" {
		t.Fatalf("path = %q", req.Path())
	}
	if v, ok := req.Get("x-tenant"); !ok || v != "t42" {
		t.Fatalf("case-insensitive get: %q %v", v, ok)
	}
	if _, ok := req.Get("missing"); ok {
		t.Fatal("missing header found")
	}
	if len(req.Body) != 0 {
		t.Fatal("unexpected body")
	}
}

func TestParsePOSTWithBody(t *testing.T) {
	raw := []byte("POST /api HTTP/1.1\r\nHost: h\r\nContent-Length: 5\r\n\r\nhelloTRAILING")
	req, n, err := ParseRequest(raw)
	if err != nil {
		t.Fatal(err)
	}
	if string(req.Body) != "hello" {
		t.Fatalf("body = %q", req.Body)
	}
	if n != len(raw)-len("TRAILING") {
		t.Fatalf("consumed %d", n)
	}
}

func TestParsePipelined(t *testing.T) {
	raw := []byte("GET /a HTTP/1.1\r\nHost: h\r\n\r\nGET /b HTTP/1.1\r\nHost: h\r\n\r\n")
	r1, n1, err := ParseRequest(raw)
	if err != nil {
		t.Fatal(err)
	}
	r2, n2, err := ParseRequest(raw[n1:])
	if err != nil {
		t.Fatal(err)
	}
	if r1.Target != "/a" || r2.Target != "/b" || n1+n2 != len(raw) {
		t.Fatalf("pipelined parse: %q %q %d %d", r1.Target, r2.Target, n1, n2)
	}
}

func TestParseIncomplete(t *testing.T) {
	full := "POST /api HTTP/1.1\r\nContent-Length: 4\r\n\r\nbody"
	for cut := 0; cut < len(full); cut++ {
		_, _, err := ParseRequest([]byte(full[:cut]))
		if !errors.Is(err, ErrIncomplete) {
			t.Fatalf("cut=%d: err = %v, want ErrIncomplete", cut, err)
		}
	}
	if _, _, err := ParseRequest([]byte(full)); err != nil {
		t.Fatalf("full parse: %v", err)
	}
}

func TestParseMalformed(t *testing.T) {
	cases := []string{
		"GARBAGE\r\n\r\n",
		"GET /\r\n\r\n",                           // missing proto
		" GET / HTTP/1.1\r\n\r\n",                 // leading space → empty method
		"GET / HTTP/1.1\r\nBad Header: x\r\n\r\n", // space in name
		"GET / HTTP/1.1\r\nNoColon\r\n\r\n",
		"GET / HTTP/1.1\r\nContent-Length: nan\r\n\r\n",
		"GET / HTTP/1.1\r\nContent-Length: -1\r\n\r\n",
	}
	for _, c := range cases {
		if _, _, err := ParseRequest([]byte(c)); !errors.Is(err, ErrMalformed) {
			t.Errorf("%q: err = %v, want ErrMalformed", c, err)
		}
	}
}

func TestHeaderSectionBound(t *testing.T) {
	huge := "GET / HTTP/1.1\r\nX: " + strings.Repeat("a", MaxHeaderBytes+10)
	if _, _, err := ParseRequest([]byte(huge)); !errors.Is(err, ErrMalformed) {
		t.Fatalf("oversized incomplete header: %v", err)
	}
	withEnd := "GET / HTTP/1.1\r\nX: " + strings.Repeat("a", MaxHeaderBytes+10) + "\r\n\r\n"
	if _, _, err := ParseRequest([]byte(withEnd)); !errors.Is(err, ErrMalformed) {
		t.Fatalf("oversized complete header: %v", err)
	}
}

func TestRequestRoundTrip(t *testing.T) {
	req := &Request{
		Method: "POST",
		Target: "/submit",
		Headers: []Header{
			{Name: "Host", Value: "svc.internal"},
			{Name: "X-Req-Id", Value: "7"},
		},
		Body: []byte("payload!"),
	}
	wire := req.Append(nil)
	back, n, err := ParseRequest(wire)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(wire) {
		t.Fatalf("consumed %d of %d", n, len(wire))
	}
	if back.Method != "POST" || back.Target != "/submit" || back.Proto != "HTTP/1.1" {
		t.Fatalf("round trip: %+v", back)
	}
	if !bytes.Equal(back.Body, req.Body) {
		t.Fatalf("body: %q", back.Body)
	}
	if v, _ := back.Get("Content-Length"); v != "8" {
		t.Fatalf("auto Content-Length = %q", v)
	}
}

func TestResponseRoundTrip(t *testing.T) {
	resp := &Response{Status: 200, Body: []byte("ok"), Headers: []Header{{Name: "Server", Value: "hermes-lb"}}}
	wire := resp.Append(nil)
	back, n, err := ParseResponse(wire)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(wire) || back.Status != 200 || back.Reason != "OK" || string(back.Body) != "ok" {
		t.Fatalf("round trip: %+v (n=%d)", back, n)
	}
	if v, ok := back.Get("server"); !ok || v != "hermes-lb" {
		t.Fatalf("server header: %q %v", v, ok)
	}
}

func TestResponseStatusLineVariants(t *testing.T) {
	if _, _, err := ParseResponse([]byte("HTTP/1.1 204 No Content\r\n\r\n")); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ParseResponse([]byte("NOTHTTP 200 OK\r\n\r\n")); !errors.Is(err, ErrMalformed) {
		t.Fatal("bad proto accepted")
	}
	if _, _, err := ParseResponse([]byte("HTTP/1.1 9999 Weird\r\n\r\n")); !errors.Is(err, ErrMalformed) {
		t.Fatal("bad status accepted")
	}
}

func TestKeepAliveSemantics(t *testing.T) {
	mk := func(proto, conn string) *Request {
		r := &Request{Method: "GET", Target: "/", Proto: proto}
		if conn != "" {
			r.Headers = []Header{{Name: "Connection", Value: conn}}
		}
		return r
	}
	cases := []struct {
		r    *Request
		want bool
	}{
		{mk("HTTP/1.1", ""), true},
		{mk("HTTP/1.0", ""), false},
		{mk("HTTP/1.1", "close"), false},
		{mk("HTTP/1.1", "keep-alive"), true},
		{mk("HTTP/1.0", "keep-alive"), true},
	}
	for i, c := range cases {
		if got := c.r.WantsKeepAlive(); got != c.want {
			t.Errorf("case %d: keep-alive = %v, want %v", i, got, c.want)
		}
	}
}

func TestDefaultReasons(t *testing.T) {
	for status, frag := range map[int]string{200: "OK", 404: "Not Found", 499: "Client Closed", 777: "Status"} {
		wire := (&Response{Status: status}).Append(nil)
		if !bytes.Contains(wire, []byte(frag)) {
			t.Errorf("status %d: %q missing %q", status, wire, frag)
		}
	}
}

// Property: serialize→parse is the identity on well-formed requests.
func TestRequestRoundTripProperty(t *testing.T) {
	f := func(pathSeed uint16, body []byte) bool {
		req := &Request{
			Method:  "PUT",
			Target:  "/x" + strings.Repeat("a", int(pathSeed%50)),
			Headers: []Header{{Name: "Host", Value: "h"}},
			Body:    body,
		}
		wire := req.Append(nil)
		back, n, err := ParseRequest(wire)
		if err != nil || n != len(wire) {
			return false
		}
		return back.Target == req.Target && bytes.Equal(back.Body, req.Body)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkParseRequest(b *testing.B) {
	raw := (&Request{
		Method:  "GET",
		Target:  "/api/v1/items",
		Headers: []Header{{Name: "Host", Value: "svc"}, {Name: "Accept", Value: "*/*"}},
	}).Append(nil)
	b.ReportAllocs()
	b.SetBytes(int64(len(raw)))
	for i := 0; i < b.N; i++ {
		if _, _, err := ParseRequest(raw); err != nil {
			b.Fatal(err)
		}
	}
}

// Response framing per RFC 9112 §6.3: which bytes are body, how many are
// consumed, and whether the body runs until the connection closes.
func TestResponseFraming(t *testing.T) {
	cases := []struct {
		name, method, raw string
		body              string
		consumed          int // -1: all of raw
		untilClose        bool
	}{
		{"content-length", "GET", "HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nokNEXT", "ok", len("HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok"), false},
		{"zero length", "GET", "HTTP/1.1 200 OK\r\nContent-Length: 0\r\n\r\nNEXT", "", len("HTTP/1.1 200 OK\r\nContent-Length: 0\r\n\r\n"), false},
		{"identical duplicate lengths", "GET", "HTTP/1.1 200 OK\r\nContent-Length: 2\r\ncontent-length: 2\r\n\r\nok", "ok", -1, false},
		{"no length runs to close", "GET", "HTTP/1.1 200 OK\r\nServer: x\r\n\r\nall of it", "all of it", -1, true},
		{"no length, empty so far", "GET", "HTTP/1.1 200 OK\r\n\r\n", "", -1, true},
		{"204 has no body", "GET", "HTTP/1.1 204 No Content\r\n\r\nNEXT", "", len("HTTP/1.1 204 No Content\r\n\r\n"), false},
		{"304 ignores its length", "GET", "HTTP/1.1 304 Not Modified\r\nContent-Length: 9\r\n\r\n", "", -1, false},
		{"1xx has no body", "GET", "HTTP/1.1 100 Continue\r\n\r\nHTTP/1.1 200 OK\r\n", "", len("HTTP/1.1 100 Continue\r\n\r\n"), false},
		{"HEAD reply has no body", "HEAD", "HTTP/1.1 200 OK\r\nContent-Length: 50\r\n\r\n", "", -1, false},
	}
	for _, c := range cases {
		resp, n, err := ParseResponseFor([]byte(c.raw), c.method)
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
			continue
		}
		want := c.consumed
		if want < 0 {
			want = len(c.raw)
		}
		if string(resp.Body) != c.body || n != want || resp.UntilClose != c.untilClose {
			t.Errorf("%s: body %q consumed %d untilClose %v, want %q %d %v",
				c.name, resp.Body, n, resp.UntilClose, c.body, want, c.untilClose)
		}
	}
}

// Framing the codec refuses, for requests and responses alike: a length
// that is not 1*DIGIT, lengths that disagree, and Transfer-Encoding.
func TestFramingRefused(t *testing.T) {
	cases := []struct {
		head string
		want error
	}{
		{"Content-Length: 5\r\nContent-Length: 6", ErrMalformed},
		{"Content-Length: 0\r\nContent-Length: 44", ErrMalformed},
		{"Content-Length: +5", ErrMalformed},
		{"Content-Length: 5, 5", ErrMalformed},
		{"Content-Length: ", ErrMalformed},
		{"Transfer-Encoding: chunked", ErrTransferEncoding},
		{"Content-Length: 3\r\nTransfer-Encoding: chunked", ErrTransferEncoding},
	}
	for _, c := range cases {
		req := "POST / HTTP/1.1\r\nHost: h\r\n" + c.head + "\r\n\r\n"
		if _, _, err := ParseRequest([]byte(req)); !errors.Is(err, c.want) {
			t.Errorf("request %q: err = %v, want %v", c.head, err, c.want)
		}
		resp := "HTTP/1.1 200 OK\r\n" + c.head + "\r\n\r\n"
		if _, _, err := ParseResponse([]byte(resp)); !errors.Is(err, c.want) {
			t.Errorf("response %q: err = %v, want %v", c.head, err, c.want)
		}
	}
}

// Append frames every response that can carry a body, so an empty reply
// never reads as close-delimited; bodyless statuses get no length.
func TestResponseAppendFraming(t *testing.T) {
	cases := []struct {
		r    Response
		want string
	}{
		{Response{Status: 200}, "Content-Length: 0\r\n"},
		{Response{Status: 502, Body: []byte("x")}, "Content-Length: 1\r\n"},
		{Response{Status: 200, Headers: []Header{{Name: "Content-Length", Value: "0"}}}, "Content-Length: 0\r\n"},
		{Response{Status: 204}, ""},
		{Response{Status: 304}, ""},
	}
	for _, c := range cases {
		wire := string(c.r.Append(nil))
		if got := strings.Count(wire, "Content-Length"); c.want == "" && got != 0 || c.want != "" && (got != 1 || !strings.Contains(wire, c.want)) {
			t.Errorf("status %d: %q, want one %q", c.r.Status, wire, c.want)
		}
		back, n, err := ParseResponse([]byte(wire))
		if err != nil || n != len(wire) || back.UntilClose {
			t.Errorf("status %d: reparse n=%d err=%v untilClose=%v", c.r.Status, n, err, back != nil && back.UntilClose)
		}
	}
}

// AppendHead writes the header section only. It keeps a length that was
// set, describes a non-empty Body by its length, and adds none otherwise.
func TestResponseAppendHead(t *testing.T) {
	cases := []struct {
		r    Response
		want string // "" for no Content-Length
	}{
		{Response{Status: 200}, ""},
		{Response{Status: 200, Headers: []Header{{Name: "Content-Length", Value: "50"}}}, "Content-Length: 50\r\n"},
		{Response{Status: 502, Body: []byte("down")}, "Content-Length: 4\r\n"},
	}
	for _, c := range cases {
		wire := string(c.r.AppendHead(nil))
		if !strings.HasSuffix(wire, "\r\n\r\n") {
			t.Errorf("status %d: %q does not end at the header section", c.r.Status, wire)
		}
		if got := strings.Count(wire, "Content-Length"); c.want == "" && got != 0 || c.want != "" && (got != 1 || !strings.Contains(wire, c.want)) {
			t.Errorf("status %d: %q, want Content-Length %q", c.r.Status, wire, c.want)
		}
	}
}

// An incomplete length-framed response reports the length it will span
// once its header section is whole, so a reader need not reparse per read.
func TestParseResponseIncompleteLength(t *testing.T) {
	full := "HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\n0123456789"
	for _, c := range []struct {
		cut, want int
	}{
		{10, 0},                     // header section incomplete
		{len(full) - 10, len(full)}, // header whole, no body yet
		{len(full) - 1, len(full)},
	} {
		if _, n, err := ParseResponse([]byte(full[:c.cut])); !errors.Is(err, ErrIncomplete) || n != c.want {
			t.Errorf("cut %d: n=%d err=%v, want %d and ErrIncomplete", c.cut, n, err, c.want)
		}
	}
}

func TestHasTokenAndConnectionLists(t *testing.T) {
	hs := []Header{{Name: "Connection", Value: "Keep-Alive, X-Trace"}, {Name: "connection", Value: " close"}}
	for _, tok := range []string{"keep-alive", "x-trace", "CLOSE"} {
		if !HasToken(hs, "Connection", tok) {
			t.Errorf("token %q not found", tok)
		}
	}
	if HasToken(hs, "Connection", "trace") || HasToken(hs, "Upgrade", "close") {
		t.Error("partial or wrong-header token matched")
	}
	r := &Response{Proto: "HTTP/1.1", Headers: hs}
	if r.WantsKeepAlive() {
		t.Error("a close token in a second Connection header was missed")
	}
	if (&Request{Proto: "HTTP/1.0", Headers: []Header{{Name: "Connection", Value: "x-other"}}}).WantsKeepAlive() {
		t.Error("HTTP/1.0 without keep-alive kept the connection")
	}
}

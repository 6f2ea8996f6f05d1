// Package httpx is a small HTTP/1.1 request/response codec built for the L7
// LB data path: incremental parsing from a byte buffer (so a proxy can feed
// it partial reads), ordered headers, case-insensitive lookup, and
// zero-dependency serialization. The paper's LB parses HTTP to route on
// application-layer attributes (§2.1); this package is that substrate.
package httpx

import (
	"bytes"
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// Parse errors.
var (
	// ErrIncomplete reports that more bytes are needed to finish parsing.
	ErrIncomplete = errors.New("httpx: need more data")
	// ErrMalformed reports an unrecoverable syntax error.
	ErrMalformed = errors.New("httpx: malformed message")
	// ErrTransferEncoding reports a message framed by Transfer-Encoding.
	// The codec has no chunked decoder, so it cannot tell where such a
	// message ends; a proxy must refuse it rather than guess (RFC 9112 §6.1,
	// request smuggling).
	ErrTransferEncoding = errors.New("httpx: Transfer-Encoding not supported")
)

// MaxHeaderBytes bounds the header section (DoS guard).
const MaxHeaderBytes = 64 << 10

// Header is one name/value pair. Order is preserved.
type Header struct {
	Name  string
	Value string
}

// Request is a parsed HTTP/1.1 request.
type Request struct {
	Method  string
	Target  string
	Proto   string
	Headers []Header
	Body    []byte
}

// Response is a parsed or constructed HTTP/1.1 response.
type Response struct {
	Status  int
	Reason  string
	Proto   string
	Headers []Header
	Body    []byte
	// UntilClose marks a parsed response whose body is delimited by the
	// connection closing (RFC 9112 §6.3: no length header on a status that
	// carries a body). The parse took all of data as the body, so the
	// response is whole only once the reader has seen EOF, and its
	// connection cannot carry another message.
	UntilClose bool
}

// Get returns the first header with the given name, case-insensitively.
func (r *Request) Get(name string) (string, bool) { return getHeader(r.Headers, name) }

// Get returns the first header with the given name, case-insensitively.
func (r *Response) Get(name string) (string, bool) { return getHeader(r.Headers, name) }

func getHeader(hs []Header, name string) (string, bool) {
	for _, h := range hs {
		if strings.EqualFold(h.Name, name) {
			return h.Value, true
		}
	}
	return "", false
}

// HasToken reports whether any header called name carries token in its
// comma-separated value list, case-insensitively (RFC 9110 §5.6.1), as in
// "Connection: keep-alive, Upgrade".
func HasToken(hs []Header, name, token string) bool {
	for _, h := range hs {
		if !strings.EqualFold(h.Name, name) {
			continue
		}
		for v := h.Value; v != ""; {
			item := v
			if i := strings.IndexByte(v, ','); i >= 0 {
				item, v = v[:i], v[i+1:]
			} else {
				v = ""
			}
			if strings.EqualFold(strings.TrimSpace(item), token) {
				return true
			}
		}
	}
	return false
}

// keepAlive applies RFC 9112 §9.3: HTTP/1.1 persists unless Connection
// lists "close"; HTTP/1.0 persists only when it lists "keep-alive".
func keepAlive(proto string, hs []Header) bool {
	if HasToken(hs, "Connection", "close") {
		return false
	}
	return proto != "HTTP/1.0" || HasToken(hs, "Connection", "keep-alive")
}

// Host returns the Host header ("" if absent).
func (r *Request) Host() string {
	v, _ := r.Get("Host")
	return v
}

// Path returns the request target up to any query string.
func (r *Request) Path() string {
	if i := strings.IndexByte(r.Target, '?'); i >= 0 {
		return r.Target[:i]
	}
	return r.Target
}

// WantsKeepAlive reports whether the connection should persist after this
// request (HTTP/1.1 defaults to keep-alive).
func (r *Request) WantsKeepAlive() bool { return keepAlive(r.Proto, r.Headers) }

// WantsKeepAlive reports whether the sender of this response keeps the
// connection open after it (HTTP/1.1 defaults to keep-alive).
func (r *Response) WantsKeepAlive() bool { return keepAlive(r.Proto, r.Headers) }

// bodyless reports the statuses whose responses never carry a body
// (RFC 9112 §6.3 rule 1: 1xx, 204, 304).
func bodyless(status int) bool {
	return status < 200 || status == 204 || status == 304
}

// ParseRequest parses one complete request from the front of data, returning
// the request and the number of bytes consumed. It returns ErrIncomplete
// when data holds only a prefix.
func ParseRequest(data []byte) (*Request, int, error) {
	headerEnd, err := findHeaderEnd(data)
	if err != nil {
		return nil, 0, err
	}
	lines := bytes.Split(data[:headerEnd], []byte("\r\n"))
	if len(lines) == 0 {
		return nil, 0, ErrMalformed
	}
	parts := strings.SplitN(string(lines[0]), " ", 3)
	if len(parts) != 3 || parts[0] == "" || parts[1] == "" || !strings.HasPrefix(parts[2], "HTTP/") {
		return nil, 0, fmt.Errorf("%w: bad request line %q", ErrMalformed, lines[0])
	}
	req := &Request{Method: parts[0], Target: parts[1], Proto: parts[2]}
	var err2 error
	req.Headers, err2 = parseHeaders(lines[1:])
	if err2 != nil {
		return nil, 0, err2
	}
	cl, err := bodyLength(req.Headers)
	if err != nil {
		return nil, 0, err
	}
	if cl < 0 {
		cl = 0 // a request without a length header has no body
	}
	body, consumed, err := takeBody(data, headerEnd, cl)
	if err != nil {
		return nil, 0, err
	}
	req.Body = body
	return req, consumed, nil
}

// ParseResponse parses one complete response from the front of data, framed
// per RFC 9112 §6.3: 1xx, 204 and 304 responses have no body, a
// Content-Length response has exactly that many body bytes, and a response
// with no length header runs to the end of data (see UntilClose). A
// Transfer-Encoding response is refused with ErrTransferEncoding.
func ParseResponse(data []byte) (*Response, int, error) { return ParseResponseFor(data, "") }

// ParseResponseFor is ParseResponse for the reply to a request with the
// given method: the reply to a HEAD request never has a body on the wire,
// whatever its headers announce.
//
// On ErrIncomplete the int is the length of the whole response once its
// header section is in data and its body is length-framed, else 0: a reader
// can wait for that many bytes before it parses again.
func ParseResponseFor(data []byte, method string) (*Response, int, error) {
	headerEnd, err := findHeaderEnd(data)
	if err != nil {
		return nil, 0, err
	}
	lines := bytes.Split(data[:headerEnd], []byte("\r\n"))
	parts := strings.SplitN(string(lines[0]), " ", 3)
	if len(parts) < 2 || !strings.HasPrefix(parts[0], "HTTP/") {
		return nil, 0, fmt.Errorf("%w: bad status line %q", ErrMalformed, lines[0])
	}
	status, errAtoi := strconv.Atoi(parts[1])
	if errAtoi != nil || status < 100 || status > 999 {
		return nil, 0, fmt.Errorf("%w: bad status %q", ErrMalformed, parts[1])
	}
	resp := &Response{Status: status, Proto: parts[0]}
	if len(parts) == 3 {
		resp.Reason = parts[2]
	}
	var err2 error
	resp.Headers, err2 = parseHeaders(lines[1:])
	if err2 != nil {
		return nil, 0, err2
	}
	if method == "HEAD" || bodyless(status) {
		return resp, headerEnd + 4, nil
	}
	cl, err := bodyLength(resp.Headers)
	if err != nil {
		return nil, 0, err
	}
	if cl < 0 {
		resp.UntilClose = true
		cl = len(data) - headerEnd - 4
	}
	body, consumed, err := takeBody(data, headerEnd, cl)
	if err != nil {
		return nil, consumed, err
	}
	resp.Body = body
	return resp, consumed, nil
}

// findHeaderEnd locates the start of the body (index just past CRLFCRLF).
func findHeaderEnd(data []byte) (int, error) {
	i := bytes.Index(data, []byte("\r\n\r\n"))
	if i < 0 {
		if len(data) > MaxHeaderBytes {
			return 0, fmt.Errorf("%w: header section exceeds %d bytes", ErrMalformed, MaxHeaderBytes)
		}
		return 0, ErrIncomplete
	}
	if i > MaxHeaderBytes {
		return 0, fmt.Errorf("%w: header section exceeds %d bytes", ErrMalformed, MaxHeaderBytes)
	}
	return i, nil
}

func parseHeaders(lines [][]byte) ([]Header, error) {
	var hs []Header
	for _, ln := range lines {
		if len(ln) == 0 {
			continue
		}
		i := bytes.IndexByte(ln, ':')
		if i <= 0 {
			return nil, fmt.Errorf("%w: bad header line %q", ErrMalformed, ln)
		}
		name := string(ln[:i])
		if strings.ContainsAny(name, " \t") {
			return nil, fmt.Errorf("%w: space in header name %q", ErrMalformed, name)
		}
		hs = append(hs, Header{Name: name, Value: string(bytes.TrimSpace(ln[i+1:]))})
	}
	return hs, nil
}

// bodyLength returns the message's declared Content-Length, or -1 when it
// has none. Transfer-Encoding is refused, as are an invalid length and
// several lengths that disagree: each is a way for two parsers to split the
// same bytes into different messages (RFC 9112 §6.3 rules 3-5).
func bodyLength(hs []Header) (int, error) {
	cl := -1
	for _, h := range hs {
		if strings.EqualFold(h.Name, "Transfer-Encoding") {
			return 0, ErrTransferEncoding
		}
		if !strings.EqualFold(h.Name, "Content-Length") {
			continue
		}
		n, ok := parseLength(h.Value)
		if !ok {
			return 0, fmt.Errorf("%w: bad Content-Length %q", ErrMalformed, h.Value)
		}
		if cl >= 0 && n != cl {
			return 0, fmt.Errorf("%w: conflicting Content-Length %d and %d", ErrMalformed, cl, n)
		}
		cl = n
	}
	return cl, nil
}

// parseLength parses a Content-Length value: 1*DIGIT, no sign, no overflow.
func parseLength(v string) (int, bool) {
	if v == "" || len(v) > 18 {
		return 0, false
	}
	n := 0
	for i := 0; i < len(v); i++ {
		c := v[i]
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + int(c-'0')
	}
	return n, true
}

// takeBody copies the cl body bytes that follow the header section. On
// ErrIncomplete consumed is the length the message will span.
func takeBody(data []byte, headerEnd, cl int) (body []byte, consumed int, err error) {
	bodyStart := headerEnd + 4
	if len(data) < bodyStart+cl {
		return nil, bodyStart + cl, ErrIncomplete
	}
	if cl > 0 {
		body = append([]byte(nil), data[bodyStart:bodyStart+cl]...)
	}
	return body, bodyStart + cl, nil
}

// Append serializes the request onto dst and returns the extended slice. A
// Content-Length header is added if a body is present and none was set.
func (r *Request) Append(dst []byte) []byte {
	dst = append(dst, r.Method...)
	dst = append(dst, ' ')
	dst = append(dst, r.Target...)
	dst = append(dst, ' ')
	proto := r.Proto
	if proto == "" {
		proto = "HTTP/1.1"
	}
	dst = append(dst, proto...)
	dst = append(dst, "\r\n"...)
	dst = appendHeaders(dst, r.Headers, len(r.Body), false)
	return append(dst, r.Body...)
}

// Append serializes the response onto dst and returns the extended slice. A
// status that can carry a body always gets a Content-Length (0 included)
// unless one was set, so the result never reads as close-delimited.
func (r *Response) Append(dst []byte) []byte {
	dst = r.appendHeader(dst, !bodyless(r.Status))
	return append(dst, r.Body...)
}

// AppendHead serializes the response as the reply to a HEAD request: the
// header section only. A Content-Length is added only for a non-empty Body
// and none set, to describe the body a GET would get; an empty Body adds
// none, since 0 would claim the GET body is empty.
func (r *Response) AppendHead(dst []byte) []byte { return r.appendHeader(dst, false) }

// appendHeader writes the status line and header section; always adds a
// Content-Length for an empty body.
func (r *Response) appendHeader(dst []byte, always bool) []byte {
	proto := r.Proto
	if proto == "" {
		proto = "HTTP/1.1"
	}
	reason := r.Reason
	if reason == "" {
		reason = defaultReason(r.Status)
	}
	dst = append(dst, proto...)
	dst = append(dst, ' ')
	dst = strconv.AppendInt(dst, int64(r.Status), 10)
	dst = append(dst, ' ')
	dst = append(dst, reason...)
	dst = append(dst, "\r\n"...)
	return appendHeaders(dst, r.Headers, len(r.Body), always)
}

// appendHeaders writes hs and the end of the header section, adding a
// Content-Length when none was set and the body is non-empty or always is
// true.
func appendHeaders(dst []byte, hs []Header, bodyLen int, always bool) []byte {
	haveCL := false
	for _, h := range hs {
		if strings.EqualFold(h.Name, "Content-Length") {
			haveCL = true
		}
		dst = append(dst, h.Name...)
		dst = append(dst, ": "...)
		dst = append(dst, h.Value...)
		dst = append(dst, "\r\n"...)
	}
	if (bodyLen > 0 || always) && !haveCL {
		dst = append(dst, "Content-Length: "...)
		dst = strconv.AppendInt(dst, int64(bodyLen), 10)
		dst = append(dst, "\r\n"...)
	}
	return append(dst, "\r\n"...)
}

func defaultReason(status int) string {
	switch status {
	case 200:
		return "OK"
	case 204:
		return "No Content"
	case 400:
		return "Bad Request"
	case 404:
		return "Not Found"
	case 499:
		return "Client Closed Request"
	case 501:
		return "Not Implemented"
	case 502:
		return "Bad Gateway"
	case 503:
		return "Service Unavailable"
	default:
		return "Status"
	}
}

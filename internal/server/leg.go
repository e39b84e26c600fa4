package server

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// The fan-out legs' HTTP/1.1 client. A leg writes its request, built by
// appending into a pooled buffer, on one of the aggregator's keep-alive
// connections to the shard, and reads the reply where it lies in the
// connection's bufio.Reader when its head has the shape net/http's server
// writes: HTTP/1.1, a Content-Length body and no Connection header. Any other
// head (chunked, 1xx, HTTP/1.0, Connection: close, a header net/http would
// read some other way or reject) goes whole to http.ReadResponse on the same
// reader, which stays the general reader and the tests' oracle.

// maxReplyBytes bounds what a leg reads of one shard reply, head and body.
// An untraced K=10 reply is about 600 bytes.
const maxReplyBytes = 1 << 20

// maxIdleLegConns caps the idle keep-alive connections kept per shard; a
// leg that finishes when the cap is reached closes its connection.
const maxIdleLegConns = 64

// max1xxReplies is how many informational replies a leg skips before the
// final one, as net/http's Transport does.
const max1xxReplies = 5

var (
	errReplyTooLarge = fmt.Errorf("server: shard reply exceeds %d bytes", maxReplyBytes)
	errTooMany1xx    = errors.New("server: too many 1xx informational replies")
	errAbandoned     = errors.New("server: leg abandoned")
)

// legDialer dials the legs' connections with http.DefaultTransport's
// settings.
var legDialer = net.Dialer{Timeout: 30 * time.Second, KeepAlive: 30 * time.Second}

// shardTarget is one shard's /search endpoint and its idle connections.
type shardTarget struct {
	raw  string // the URL, for error messages
	err  error  // why raw cannot be sent to; nil when it can
	addr string // host:port to dial
	// head is the request line and the headers every leg to this shard
	// sends, up to the Content-Length value.
	head string
	pool legPool
}

// parse sets t up for the shard at base.
func (t *shardTarget) parse(base string) {
	t.raw = base + "/search"
	u, err := url.Parse(t.raw)
	switch {
	case err != nil:
		t.err = err
	case u.Scheme != "http":
		t.err = fmt.Errorf("shard %s: scheme %q is not http", t.raw, u.Scheme)
	case u.Host == "":
		t.err = fmt.Errorf("shard %s: no host", t.raw)
	default:
		port := u.Port()
		if port == "" {
			port = "80"
		}
		t.addr = net.JoinHostPort(u.Hostname(), port)
		t.head = "POST " + u.RequestURI() + " HTTP/1.1\r\nHost: " + u.Host +
			"\r\nContent-Type: application/json\r\nContent-Length: "
	}
}

// appendRequest appends a leg's request to t: the head, the body's length,
// the trace header when traceID is set, and the body.
func (t *shardTarget) appendRequest(b, body []byte, traceID string) []byte {
	b = append(b, t.head...)
	b = strconv.AppendInt(b, int64(len(body)), 10)
	if traceID != "" {
		b = append(b, "\r\n"+TraceHeader+": "...)
		b = append(b, traceID...)
	}
	b = append(b, "\r\n\r\n"...)
	return append(b, body...)
}

// legConn is one keep-alive connection to a shard.
type legConn struct {
	net.Conn
	br *bufio.Reader // reads through Read, so the reply bound holds
	// left is what the reply being read may still take off the socket.
	left int
}

// dialLeg connects to addr, giving up when ctx ends or at deadline (none
// when zero).
func dialLeg(ctx context.Context, addr string, deadline time.Time) (*legConn, error) {
	d := legDialer
	d.Deadline = deadline
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, err
	}
	c := &legConn{Conn: conn}
	c.br = bufio.NewReader(c)
	return c, nil
}

// Read reads from the socket, at most left bytes in all.
func (c *legConn) Read(p []byte) (int, error) {
	if c.left <= 0 {
		return 0, errReplyTooLarge
	}
	n, err := c.Conn.Read(p[:min(len(p), c.left)])
	c.left -= n
	return n, err
}

// legPool is one shard's idle connections, the most recently used last.
type legPool struct {
	mu   sync.Mutex
	idle []*legConn
}

func (p *legPool) get() *legConn {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := len(p.idle)
	if n == 0 {
		return nil
	}
	c := p.idle[n-1]
	p.idle[n-1] = nil
	p.idle = p.idle[:n-1]
	return c
}

func (p *legPool) put(c *legConn) {
	p.mu.Lock()
	if len(p.idle) < maxIdleLegConns {
		p.idle = append(p.idle, c)
		c = nil
	}
	p.mu.Unlock()
	if c != nil {
		c.Close()
	}
}

func (p *legPool) closeIdle() {
	p.mu.Lock()
	idle := p.idle
	p.idle = nil
	p.mu.Unlock()
	for _, c := range idle {
		c.Close()
	}
}

// stale reports whether err, met on a reused connection before any reply
// byte, says the shard had already closed it.
func stale(err error) bool {
	return errors.Is(err, io.EOF) || errors.Is(err, syscall.ECONNRESET) || errors.Is(err, syscall.EPIPE)
}

// readReply reads one reply from br: its status, its body (valid until the
// next read from br, and backed by buf when it does not fit br's buffer) and
// whether the connection can carry another request.
func readReply(br *bufio.Reader, buf *bytes.Buffer) (status int, body []byte, reuse bool, err error) {
	status, body, ok, err := scanReply(br, buf)
	if ok {
		return status, body, err == nil, err
	}
	for range max1xxReplies + 1 {
		resp, err := http.ReadResponse(br, nil) // read as a GET's: only HEAD differs
		if err != nil {
			return 0, nil, false, err
		}
		switch {
		case resp.StatusCode == http.StatusSwitchingProtocols:
			return resp.StatusCode, nil, false, nil // the connection speaks another protocol now
		case resp.StatusCode/100 == 1:
			continue // no body; the final reply follows
		}
		if _, err := buf.ReadFrom(resp.Body); err != nil {
			return 0, nil, false, err
		}
		return resp.StatusCode, buf.Bytes(), !resp.Close, nil
	}
	return 0, nil, false, errTooMany1xx
}

// scanReply reads one reply from br in place when its head has the shape
// net/http's server writes. ok is false, and nothing is consumed, when the
// head has another shape, does not fit br's buffer or is cut short; err is
// the reader's error when the body ends early, or errReplyTooLarge when the
// Content-Length passes the bound.
func scanReply(br *bufio.Reader, buf *bytes.Buffer) (status int, body []byte, ok bool, err error) {
	var head []byte
	for n := 1; head == nil; {
		if _, err := br.Peek(n); err != nil {
			// A head longer than br's buffer, or one the connection cut
			// short: ReadResponse reads the first and reports the second.
			return 0, nil, false, nil
		}
		p, _ := br.Peek(br.Buffered()) // what the fill brought is buffered already
		if i := bytes.Index(p, []byte("\r\n\r\n")); i >= 0 {
			head = p[:i+4]
		}
		n = len(p) + 1
	}
	status, length, ok := scanHead(head)
	switch {
	case !ok:
		return 0, nil, false, nil
	case length > maxReplyBytes-len(head):
		return 0, nil, true, errReplyTooLarge
	case len(head)+length <= br.Size():
		p, err := br.Peek(len(head) + length)
		if err != nil {
			return 0, nil, true, unexpectedEOF(err)
		}
		_, _ = br.Discard(len(p)) // buffered: cannot fail
		return status, p[len(head):], true, nil
	}
	_, _ = br.Discard(len(head))
	buf.Grow(length)
	body = buf.AvailableBuffer()[:length]
	if _, err := io.ReadFull(br, body); err != nil {
		return 0, nil, true, unexpectedEOF(err)
	}
	return status, body, true, nil
}

// unexpectedEOF is err as http.ReadResponse reports it for a reply cut short.
func unexpectedEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// scanHead reads the status and the Content-Length out of a reply head that
// ends in the blank line. ok is false unless http.ReadResponse would read the
// head as a Content-Length reply the connection outlives:
//   - the status line is "HTTP/1.1", a three-digit status of 200 or more but
//     not 204 or 304 (1xx, 204 and 304 have no body), then nothing or a space
//     and a reason;
//   - every header line is a token, a colon and a value of the bytes
//     textproto accepts, with no folding;
//   - Content-Length appears once, spelled so, as ": " and up to nine digits;
//   - no header is Transfer-Encoding or Connection in any case.
func scanHead(head []byte) (status, length int, ok bool) {
	line, rest, _ := bytes.Cut(head, []byte("\r\n"))
	const proto = "HTTP/1.1 "
	if len(line) < len(proto)+3 || string(line[:len(proto)]) != proto {
		return 0, 0, false
	}
	for _, c := range line[len(proto) : len(proto)+3] {
		if c < '0' || c > '9' {
			return 0, 0, false
		}
		status = status*10 + int(c-'0')
	}
	if status < 200 || status == http.StatusNoContent || status == http.StatusNotModified ||
		len(line) > len(proto)+3 && line[len(proto)+3] != ' ' || bytes.ContainsAny(line, "\r\n") {
		return 0, 0, false
	}
	length = -1
	for {
		line, rest, _ = bytes.Cut(rest, []byte("\r\n"))
		if len(line) == 0 {
			return status, length, length >= 0
		}
		key, value, found := bytes.Cut(line, []byte(":"))
		if !found || len(key) == 0 {
			return 0, 0, false
		}
		for _, c := range key {
			if !tokenByte(c) {
				return 0, 0, false
			}
		}
		for _, c := range value {
			if c < ' ' && c != '\t' || c == 0x7f {
				return 0, 0, false
			}
		}
		switch {
		case bytes.EqualFold(key, []byte("Transfer-Encoding")), bytes.EqualFold(key, []byte("Connection")):
			return 0, 0, false
		case bytes.EqualFold(key, []byte("Content-Length")):
			if length >= 0 || string(key) != "Content-Length" || len(value) < 2 || len(value) > 10 || value[0] != ' ' {
				return 0, 0, false
			}
			length = 0
			for _, c := range value[1:] {
				if c < '0' || c > '9' {
					return 0, 0, false
				}
				length = length*10 + int(c-'0')
			}
		}
	}
}

// tokenByte reports whether c may appear in a header name (RFC 7230 tchar).
func tokenByte(c byte) bool {
	switch {
	case 'a' <= c && c <= 'z', 'A' <= c && c <= 'Z', '0' <= c && c <= '9':
		return true
	}
	return strings.IndexByte("!#$%&'*+-.^_`|~", c) >= 0
}

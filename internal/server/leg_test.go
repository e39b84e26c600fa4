package server

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"gemini/internal/corpus"
	"gemini/internal/index"
	"gemini/internal/search"
)

// wireReply sends one leg's request for req to h over loopback and returns
// the reply as it crossed the wire.
func wireReply(t testing.TB, h http.Handler, req SearchRequest) []byte {
	t.Helper()
	srv := httptest.NewServer(h)
	defer srv.Close()
	var tg shardTarget
	tg.parse(srv.URL)
	conn, err := net.Dial("tcp", tg.addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(tg.appendRequest(nil, req.appendJSON(nil), "")); err != nil {
		t.Fatal(err)
	}
	var raw bytes.Buffer
	resp, err := http.ReadResponse(bufio.NewReader(io.TeeReader(conn, &raw)), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadAll(resp.Body); err != nil {
		t.Fatal(err)
	}
	return raw.Bytes()
}

// legReplySeeds are replies as shards send them, and the shapes the in-place
// reader must leave to http.ReadResponse.
func legReplySeeds(t testing.TB) [][]byte {
	isns, _, _ := testCluster(t, 1)
	real := wireReply(t, isns[0], SearchRequest{Query: "united kingdom", K: 10})
	c := corpus.Generate(corpus.SmallSpec())
	wide := NewISN(0, c, search.NewEngine(index.Build(c), 200), search.DefaultCostModel())
	wide.Start()
	t.Cleanup(wide.Stop)
	chunked := wireReply(t, wide, SearchRequest{Query: "united kingdom", K: 200})
	if !bytes.Contains(chunked, []byte("Transfer-Encoding: chunked")) {
		t.Fatalf("the K=200 reply is not chunked:\n%.300s", chunked)
	}
	shed := wireReply(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "queue full", http.StatusServiceUnavailable)
	}), SearchRequest{Query: "canada"})
	closing := wireReply(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Connection", "close")
		isns[0].ServeHTTP(w, r)
	}), SearchRequest{Query: "canada"})
	return [][]byte{
		real, chunked, shed, closing,
		bytes.Replace(real, []byte("HTTP/1.1"), []byte("HTTP/1.0"), 1),
		append([]byte("HTTP/1.1 100 Continue\r\n\r\n"), real...),
		real[:len(real)-10],
		append(bytes.Clone(real), real...), // two replies back to back
	}
}

// FuzzLegReply holds the in-place reply reader to http.ReadResponse on
// arbitrary bytes: where scanReply reads a reply, ReadResponse must read the
// same status and body, off the same bytes, from a connection it would keep;
// where scanReply fails, ReadResponse must fail too; where it declines, it
// must have consumed nothing, so ReadResponse reads on as from the start.
// readReply, the scan and its fallback together, must agree with
// ReadResponse on every reply but a 1xx, which it skips as the Transport
// does.
func FuzzLegReply(f *testing.F) {
	for _, seed := range legReplySeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		want := oracleReply(data)

		// A reader smaller than a leg's, so that a real reply's body does not
		// fit it and takes the path a large traced reply takes.
		src := bytes.NewReader(data)
		br := bufio.NewReaderSize(src, fuzzReaderSize)
		var buf bytes.Buffer
		status, body, ok, err := scanReply(br, &buf)
		switch {
		case !ok && err != nil:
			t.Fatalf("%q: declined with error %v", data, err)
		case !ok:
			if got := consumed(data, src, br); got != 0 {
				t.Fatalf("%q: declined after consuming %d bytes", data, got)
			}
			if again := readOracle(br, data, src); !reflect.DeepEqual(again, want) {
				t.Fatalf("%q: ReadResponse after the decline read %+v, from the start %+v", data, again, want)
			}
		case errors.Is(err, errReplyTooLarge):
			if want.err == nil && want.length <= int64(maxReplyBytes-want.headLen) {
				t.Fatalf("%q: refused as too large, ReadResponse read %+v", data, want)
			}
		case err != nil:
			if want.err == nil {
				t.Fatalf("%q: scan error %v, ReadResponse read %+v", data, err, want)
			}
		default:
			got := reply{status: status, body: string(body), reuse: true, consumed: consumed(data, src, br)}
			if want.err != nil || got != want.reply {
				t.Fatalf("%q: scanned %+v, ReadResponse read %+v (error %v)", data, got, want.reply, want.err)
			}
		}

		src = bytes.NewReader(data)
		br = bufio.NewReaderSize(src, fuzzReaderSize)
		buf.Reset()
		status, body, reuse, err := readReply(br, &buf)
		if want.err == nil && want.status/100 == 1 || errors.Is(err, errReplyTooLarge) {
			return
		}
		got := reply{status: status, body: string(body), reuse: reuse, consumed: consumed(data, src, br)}
		if (err == nil) != (want.err == nil) || err == nil && got != want.reply {
			t.Fatalf("%q: readReply %+v (error %v), ReadResponse %+v (error %v)", data, got, err, want.reply, want.err)
		}
	})
}

// fuzzReaderSize is the buffer FuzzLegReply reads through: room for a
// shard's reply head, not for its body.
const fuzzReaderSize = 256

// reply is what a reader made of one response: its status, its body, whether
// the connection could carry another request, and the bytes it took.
type reply struct {
	status   int
	body     string
	reuse    bool
	consumed int
}

// oracleResult is http.ReadResponse's reading of one response.
type oracleResult struct {
	reply
	err     error
	length  int64 // the Content-Length ReadResponse settled on
	headLen int   // bytes up to the body
}

// oracleReply reads data through a buffer of the size the readers under test
// have: ReadResponse's error for an overlong line depends on where its
// buffer splits it.
func oracleReply(data []byte) oracleResult {
	src := bytes.NewReader(data)
	return readOracle(bufio.NewReaderSize(src, fuzzReaderSize), data, src)
}

// readOracle reads one response from br, a reader of src over data, with
// http.ReadResponse and the body to its end.
func readOracle(br *bufio.Reader, data []byte, src *bytes.Reader) oracleResult {
	resp, err := http.ReadResponse(br, nil)
	if err != nil {
		return oracleResult{err: err}
	}
	var o oracleResult
	o.headLen = consumed(data, src, br)
	o.length = resp.ContentLength
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return oracleResult{err: err}
	}
	o.reply = reply{status: resp.StatusCode, body: string(body), reuse: !resp.Close, consumed: consumed(data, src, br)}
	return o
}

// consumed is how much of data a reader of src has taken through br.
func consumed(data []byte, src *bytes.Reader, br *bufio.Reader) int {
	return len(data) - src.Len() - br.Buffered()
}

// TestLegRequestParses reads a leg's appended request back with
// http.ReadRequest: method, path, Host, Content-Type, Content-Length, the
// trace header exactly when the query is sampled, the body, and nothing
// after it.
func TestLegRequestParses(t *testing.T) {
	var tg shardTarget
	tg.parse("http://127.0.0.1:8080/shard")
	if tg.err != nil {
		t.Fatal(tg.err)
	}
	body := (&SearchRequest{Query: "united kingdom", K: 10}).appendJSON(nil)
	for _, traceID := range []string{"", "agg-7"} {
		raw := tg.appendRequest([]byte("kept"), body, traceID)
		if !bytes.HasPrefix(raw, []byte("kept")) {
			t.Fatalf("appendRequest dropped its prefix: %q", raw)
		}
		br := bufio.NewReader(bytes.NewReader(raw[len("kept"):]))
		req, err := http.ReadRequest(br)
		if err != nil {
			t.Fatalf("%q: %v", raw, err)
		}
		got, err := io.ReadAll(req.Body)
		if err != nil {
			t.Fatal(err)
		}
		if req.Method != http.MethodPost || req.URL.Path != "/shard/search" || req.Host != "127.0.0.1:8080" ||
			req.Header.Get("Content-Type") != "application/json" || req.ContentLength != int64(len(body)) ||
			!bytes.Equal(got, body) || br.Buffered() != 0 {
			t.Errorf("%q: read %s %s host %q, %v, length %d, body %q, %d bytes after",
				raw, req.Method, req.URL.Path, req.Host, req.Header, req.ContentLength, got, br.Buffered())
		}
		if v, sent := req.Header[TraceHeader]; sent != (traceID != "") || sent && v[0] != traceID {
			t.Errorf("trace ID %q: header %q", traceID, v)
		}
	}
}

// TestAggregatorBoundsShardReply: a shard whose reply passes maxReplyBytes,
// by its Content-Length or by a chunked body that grows past it, is one
// shard error, and the merge is the healthy shard's alone.
func TestAggregatorBoundsShardReply(t *testing.T) {
	_, _, urls := testCluster(t, 1)
	alone, err := NewAggregator(urls, 10).Search(context.Background(), "united kingdom")
	if err != nil {
		t.Fatal(err)
	}
	huge := bytes.Repeat([]byte(" "), maxReplyBytes+1)
	for name, h := range map[string]http.HandlerFunc{
		"content-length": func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Length", strconv.Itoa(len(huge)))
			_, _ = w.Write(huge)
		},
		"chunked": func(w http.ResponseWriter, r *http.Request) {
			for i := 0; i < len(huge); i += 64 << 10 {
				if _, err := w.Write(huge[i:min(i+64<<10, len(huge))]); err != nil {
					return
				}
			}
		},
	} {
		t.Run(name, func(t *testing.T) {
			big := httptest.NewServer(h)
			defer big.Close()
			resp, err := NewAggregator([]string{big.URL, urls[0]}, 10).Search(context.Background(), "united kingdom")
			if err != nil {
				t.Fatal(err)
			}
			if resp.ShardErrors != 1 || resp.ShardsResponded != 1 || !reflect.DeepEqual(resp.Results, alone.Results) {
				t.Errorf("errors %d responded %d, results %v; want 1, 1 and %v",
					resp.ShardErrors, resp.ShardsResponded, resp.Results, alone.Results)
			}
		})
	}
}

// TestAggregatorRedialsClosedIdleConnection: a shard that closes idle
// connections after 20 ms answers a Search sent 100 ms after the first
// without a shard error; the leg found its pooled connection closed and
// dialed once more.
func TestAggregatorRedialsClosedIdleConnection(t *testing.T) {
	isns, _, _ := testCluster(t, 1)
	srv := httptest.NewUnstartedServer(isns[0])
	srv.Config.IdleTimeout = 20 * time.Millisecond
	var dials atomic.Int32
	srv.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			dials.Add(1)
		}
	}
	srv.Start()
	defer srv.Close()
	agg := NewAggregator([]string{srv.URL}, 10)
	for i := range 2 {
		if i > 0 {
			time.Sleep(100 * time.Millisecond)
		}
		resp, err := agg.Search(context.Background(), "canada")
		if err != nil {
			t.Fatal(err)
		}
		if resp.ShardErrors != 0 || resp.ShardsResponded != 1 {
			t.Fatalf("search %d: %d shard errors, %d responded", i, resp.ShardErrors, resp.ShardsResponded)
		}
	}
	if n := dials.Load(); n != 2 {
		t.Errorf("%d connections, want 2: the first closed idle, then one redial", n)
	}
}

// TestAggregatorRejectsNonHTTPShards: a shard URL whose scheme is not http
// is that shard's error, and the other shards are still merged.
func TestAggregatorRejectsNonHTTPShards(t *testing.T) {
	_, _, urls := testCluster(t, 1)
	alone, err := NewAggregator(urls, 10).Search(context.Background(), "canada")
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []string{"https://127.0.0.1:1", "ftp://127.0.0.1:1"} {
		resp, err := NewAggregator([]string{bad, urls[0]}, 10).Search(context.Background(), "canada")
		if err != nil {
			t.Fatal(err)
		}
		if resp.ShardErrors != 1 || resp.ShardsResponded != 1 || !reflect.DeepEqual(resp.Results, alone.Results) {
			t.Errorf("%s: errors %d responded %d, results %v; want 1, 1 and %v",
				bad, resp.ShardErrors, resp.ShardsResponded, resp.Results, alone.Results)
		}
		if _, err := NewAggregator([]string{bad}, 10).Search(context.Background(), "canada"); err == nil ||
			!strings.Contains(err.Error(), "not http") {
			t.Errorf("%s alone: error %v", bad, err)
		}
	}
}

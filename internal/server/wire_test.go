package server

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"gemini/internal/telemetry"
)

// edgeFloats are the values where encoding/json's float format changes
// shape: the 'e' thresholds at 1e-6 and 1e21, the "e-07" cleanup, ±0, the
// extremes, and the values json.Marshal refuses.
var edgeFloats = []float64{
	0, math.Copysign(0, -1), 1e-7, -1e-7, 1e-6, math.Nextafter(1e-6, 0), 1e20, 1e21,
	math.Nextafter(1e21, 0), -1e21, 0.1, 12.5, 1, 123456789.125, math.MaxFloat64,
	math.SmallestNonzeroFloat64, 1e-300, math.NaN(), math.Inf(1), math.Inf(-1),
}

var edgeFloat32s = []float32{
	0, float32(math.Copysign(0, -1)), 1e-6, math.Nextafter32(1e-6, 0), 1e-7, 1e21,
	math.Nextafter32(1e21, 0), 0.1, 3.4028235e38, math.SmallestNonzeroFloat32, 7.25,
	float32(math.NaN()), float32(math.Inf(-1)),
}

// edgeStrings exercise every escape json.Marshal writes: HTML characters,
// quotes and backslashes, control characters, non-ASCII, U+2028 and invalid
// UTF-8.
var edgeStrings = []string{"", "agg-7", "t-123", "<a&b>", `q"uote\`, "tab\there\n", "héllo, 世界", "\u2028\u2029", "bad\xffutf8", "\x7f"}

// envelopeSource draws envelope values from fuzz bytes.
type envelopeSource struct{ data []byte }

func (s *envelopeSource) byte() byte {
	if len(s.data) == 0 {
		return 0
	}
	b := s.data[0]
	s.data = s.data[1:]
	return b
}

func (s *envelopeSource) bits(n int) uint64 {
	var x uint64
	for i := 0; i < n; i += 8 {
		x = x<<8 | uint64(s.byte())
	}
	return x
}

func (s *envelopeSource) int() int {
	if b := s.byte(); b < 200 {
		return int(b) - 100
	}
	return int(int64(s.bits(64)))
}

func (s *envelopeSource) float() float64 {
	if b := s.byte(); b < 128 {
		return edgeFloats[int(b)%len(edgeFloats)]
	}
	return math.Float64frombits(s.bits(64))
}

func (s *envelopeSource) float32() float32 {
	if b := s.byte(); b < 128 {
		return edgeFloat32s[int(b)%len(edgeFloat32s)]
	}
	return math.Float32frombits(uint32(s.bits(32)))
}

func (s *envelopeSource) string() string { return edgeStrings[int(s.byte())%len(edgeStrings)] }

func (s *envelopeSource) results() []ShardResult {
	switch n := int(s.byte() % 6); n {
	case 0:
		return nil
	default:
		rs := make([]ShardResult, n-1)
		for i := range rs {
			rs[i] = ShardResult{Shard: s.int(), Doc: int32(s.bits(32)), Score: s.float32()}
		}
		return rs
	}
}

func (s *envelopeSource) spans() []telemetry.Span {
	switch n := int(s.byte() % 4); n {
	case 0:
		return nil
	default:
		spans := make([]telemetry.Span, n-1)
		for i := range spans {
			spans[i] = telemetry.Span{
				TraceID: s.string(), SpanID: s.string(), ParentID: s.string(), Name: s.string(),
				StartMs: s.float(), EndMs: s.float(),
			}
			for a := s.byte() % 3; a > 0; a-- {
				spans[i].Attrs = spans[i].Attrs.With(telemetry.AttrKey(1+s.byte()%13), s.float())
			}
		}
		return spans
	}
}

func (s *envelopeSource) isn() ISNResponse {
	return ISNResponse{
		Shard: s.int(), Results: s.results(),
		ServiceMs: s.float(), PredictedMs: s.float(), PredErrMs: s.float(),
		QueueDepth: s.int(), QueueWaitMs: s.float(), ExecWallMs: s.float(),
		Spans: s.spans(),
	}
}

func (s *envelopeSource) agg() AggResponse {
	r := AggResponse{
		Results: s.results(), ShardsAsked: s.int(), ShardsResponded: s.int(),
		Stragglers: s.int(), ShardErrors: s.int(), LatencyMs: s.float(),
	}
	if s.byte()%2 == 0 {
		r.TraceID = s.string()
	}
	if n := int(s.byte() % 4); n > 0 {
		r.PerShard = make([]ISNResponse, n-1)
		for i := range r.PerShard {
			r.PerShard[i] = s.isn()
		}
	}
	return r
}

// sameEncoding fails t unless appendJSON wrote what json.Marshal writes for
// v, or failed with the error json.Marshal returns.
func sameEncoding(t *testing.T, v any, got []byte, gotErr error) {
	t.Helper()
	want, wantErr := json.Marshal(v)
	switch {
	case (gotErr == nil) != (wantErr == nil):
		t.Fatalf("%#v: appendJSON error %v, json.Marshal error %v", v, gotErr, wantErr)
	case wantErr != nil:
		if gotErr.Error() != wantErr.Error() {
			t.Fatalf("%#v: appendJSON error %q, json.Marshal error %q", v, gotErr, wantErr)
		}
	case !bytes.Equal(got, want):
		t.Fatalf("%#v:\nappendJSON   %s\njson.Marshal %s", v, got, want)
	}
}

// FuzzEnvelopeEncode holds the append encoders to encoding/json: for any
// request, ISN reply or aggregator reply, the bytes json.Marshal writes, or
// its error where it refuses the value.
func FuzzEnvelopeEncode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24})
	f.Add(bytes.Repeat([]byte{3, 200, 129, 7}, 40))
	f.Add(bytes.Repeat([]byte{5, 17, 9, 1, 3, 2}, 60))
	f.Fuzz(func(t *testing.T, data []byte) {
		src := envelopeSource{data}
		req := SearchRequest{Query: src.string(), K: src.int()}
		sameEncoding(t, &req, req.appendJSON(nil), nil)
		isn := src.isn()
		got, err := isn.appendJSON([]byte("prefix")) // appends, keeping what b held
		if err == nil && !bytes.HasPrefix(got, []byte("prefix")) {
			t.Fatalf("appendJSON dropped its prefix: %s", got)
		}
		sameEncoding(t, &isn, bytes.TrimPrefix(got, []byte("prefix")), err)
		agg := src.agg()
		got, err = agg.appendJSON(nil)
		sameEncoding(t, &agg, got, err)
	})
}

// isnStarts are the states the fuzzed decoders start from: a zero value, a
// leg's window (no results, spare capacity holding stale rows, other fields
// set), and a value already holding results.
var isnStarts = []struct {
	name string
	isn  func() ISNResponse
}{
	{"zero", func() ISNResponse { return ISNResponse{} }},
	{"window", func() ISNResponse {
		backing := []ShardResult{{9, 9, 9}, {8, 8, 8}, {7, 7, 7}}
		return ISNResponse{Shard: 4, Results: backing[:0], ServiceMs: 2, QueueWaitMs: 3, ExecWallMs: 5,
			Spans: []telemetry.Span{{Name: "kept"}}}
	}},
	{"held", func() ISNResponse {
		return ISNResponse{Results: []ShardResult{{1, 2, 3}, {4, 5, 6}}, PredErrMs: 1}
	}},
}

// FuzzEnvelopeDecode holds the scanning decoders to json.Unmarshal on
// arbitrary bytes: the same success or failure, the same error, the same
// decoded value (null vs [] included), and the same use of the target's
// Results capacity.
func FuzzEnvelopeDecode(f *testing.F) {
	canonical, _ := (&ISNResponse{Shard: 1, Results: []ShardResult{{1, 7, 2.5}, {1, 3, 1e-7}},
		ServiceMs: 3.25, PredictedMs: 3, PredErrMs: 0.5, QueueDepth: 2, QueueWaitMs: 0.125, ExecWallMs: 1}).appendJSON(nil)
	for _, seed := range []string{
		string(canonical), string(canonical) + "\n", string(canonical) + "x", string(canonical) + "{}",
		`{"query":"canada"}`, `{"query":"united kingdom","k":10}`, `{"query":"canada"}garbage`,
		`{"query":"canada"}{"query":"x"}`, `{"query":"a\"b"}`, `{"Query":"canada"}`, `{"query":"caf` + "\xe9" + `"}`,
		`{"query":null,"k":1e2}`, `{"k":-0,"k":3}`, ` { "query" : "x" , "k" : 12 } `, `null`, `[]`, ``,
		`{"results":[]}`, `{"results":null}`, `{"results":[{"shard":1,"doc":2}]}`, `{"results":[{"shard":1,"doc":2,"score":3,"shard":4}]}`,
		`{"results":[{"shard":1,"doc":2,"score":3},{"shard":1,"doc":3,"score":2},{"shard":1,"doc":4,"score":1},{"shard":1,"doc":5,"score":0}]}`,
		`{"results":[{"shard":1,"doc":2,"score":1e39}]}`, `{"results":[{"shard":1,"doc":2147483648,"score":1}]}`,
		`{"results":[{"shard":1,"doc":2,"score":3}],"results":[]}`, `{"service_ms":1e400}`, `{"service_ms":01}`,
		`{"shard":1.0}`, `{"spans":[]}`, `{"exec_wall_ms":-0.0,"unknown":1}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		got, want := SearchRequest{Query: "before", K: 7}, SearchRequest{Query: "before", K: 7}
		sameDecode(t, "SearchRequest", data, got.decodeJSON(data), json.Unmarshal(data, &want), got, want)

		for _, start := range isnStarts {
			got, want := start.isn(), start.isn()
			gotBacking, wantBacking := got.Results[:cap(got.Results)], want.Results[:cap(want.Results)]
			sameDecode(t, start.name, data, got.decodeJSON(data), json.Unmarshal(data, &want), got, want)
			if cap(got.Results) != cap(want.Results) || reuses(got.Results, gotBacking) != reuses(want.Results, wantBacking) {
				t.Fatalf("%s: %q: results cap %d (reused %v), json.Unmarshal cap %d (reused %v)", start.name, data,
					cap(got.Results), reuses(got.Results, gotBacking), cap(want.Results), reuses(want.Results, wantBacking))
			}
		}
	})
}

func sameDecode(t *testing.T, name string, data []byte, gotErr, wantErr error, got, want any) {
	t.Helper()
	if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
		t.Fatalf("%s: %q: decodeJSON error %v, json.Unmarshal error %v", name, data, gotErr, wantErr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: %q:\ndecodeJSON     %#v\njson.Unmarshal %#v", name, data, got, want)
	}
}

// reuses reports whether rs lives in backing's array.
func reuses(rs, backing []ShardResult) bool {
	return cap(rs) > 0 && cap(backing) > 0 && &rs[:1][0] == &backing[:1][0]
}

// TestEnvelopeBytes pins both listeners' replies to what
// json.NewEncoder(w).Encode wrote for fixed values, trailing newline
// included, and a value with a NaN to the 500 and error text Encode's
// failure answered.
func TestEnvelopeBytes(t *testing.T) {
	span := telemetry.Span{TraceID: "agg-1", SpanID: "isn0-exec", ParentID: "shard-0", Name: "isn-exec",
		StartMs: 0.25, EndMs: 1.5, Attrs: telemetry.Attrs{}.With(telemetry.AttrShard, 0).With(telemetry.AttrServiceMs, 1e-7)}
	isn := ISNResponse{Shard: 2, Results: []ShardResult{{2, 11, 3.5}, {2, 4, 1e-7}, {2, 9, float32(math.Copysign(0, -1))}},
		ServiceMs: 1e21, PredictedMs: 0.1, PredErrMs: -0, QueueDepth: 3, QueueWaitMs: 1e-6, Spans: []telemetry.Span{span}}
	values := []interface {
		appendJSON([]byte) ([]byte, error)
	}{
		&isn,
		&ISNResponse{},
		&ISNResponse{Results: []ShardResult{}},
		&AggResponse{Results: isn.Results, ShardsAsked: 3, ShardsResponded: 2, TraceID: "<agg&1>", Stragglers: 1,
			LatencyMs: 12.375, PerShard: []ISNResponse{{Shard: 0, ServiceMs: 2}, isn}},
		&AggResponse{},
		&ISNResponse{ExecWallMs: math.NaN()},
		&AggResponse{LatencyMs: math.Inf(1)},
	}
	for _, v := range values {
		want := httptest.NewRecorder()
		want.Header().Set("Content-Type", "application/json")
		if err := json.NewEncoder(want).Encode(v); err != nil {
			http.Error(want, err.Error(), http.StatusInternalServerError)
		}
		got := httptest.NewRecorder()
		buf := getBuf()
		body, err := v.appendJSON(buf.AvailableBuffer())
		writeJSON(got, buf, body, err)
		putBuf(buf)
		if got.Code != want.Code || !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) ||
			!reflect.DeepEqual(got.Header(), want.Header()) {
			t.Errorf("%#v:\nwriteJSON %d %v %q\nEncode    %d %v %q", v,
				got.Code, got.Header(), got.Body, want.Code, want.Header(), want.Body)
		}
	}
}

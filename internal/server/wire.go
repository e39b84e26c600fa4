package server

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"strconv"
	"sync"
	"unicode/utf8"
)

// The live envelope's codecs. A reply is written by an append encoder that
// produces the bytes encoding/json writes for the same value. The two bodies
// a hop reads, a SearchRequest and an ISNResponse, are scanned in place when
// they have the canonical shape and then decode exactly as json.Unmarshal
// would; anything else (span sets, escapes, unknown or case-variant keys,
// numbers Unmarshal rejects, trailing bytes) goes to json.Unmarshal, which
// stays the general decoder and the tests' oracle.

// bufPool holds the buffers request bodies and shard replies are read into
// and replies are encoded into.
var bufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

func getBuf() *bytes.Buffer { return bufPool.Get().(*bytes.Buffer) }

func putBuf(b *bytes.Buffer) {
	b.Reset()
	bufPool.Put(b)
}

// jsonContentType is the Content-Type value of every JSON body this package
// sends. It is shared and never modified.
var jsonContentType = []string{"application/json"}

// writeJSON answers with body, a reply its appendJSON encoded into buf's
// spare capacity, and the newline json.Encoder adds; err from the encoder (a
// NaN or an infinity) answers 500 instead, as json.NewEncoder(w).Encode did.
func writeJSON(w http.ResponseWriter, buf *bytes.Buffer, body []byte, err error) {
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	buf.Write(append(body, '\n'))
	w.Header()["Content-Type"] = jsonContentType
	_, _ = w.Write(buf.Bytes()) // a failed write means the client has gone; nobody is left to tell
}

// appendJSON appends r as json.Marshal encodes it; a string and an int
// cannot fail to encode.
func (r *SearchRequest) appendJSON(b []byte) []byte {
	w := envelopeWriter{b: b}
	w.raw(`{"query":`)
	w.str(r.Query)
	if r.K != 0 {
		w.raw(`,"k":`)
		w.int(int64(r.K))
	}
	return append(w.b, '}')
}

// appendJSON appends r as json.Marshal encodes it.
func (r *ISNResponse) appendJSON(b []byte) ([]byte, error) {
	w := envelopeWriter{b: b}
	w.isn(r)
	return w.b, w.err
}

// appendJSON appends r as json.Marshal encodes it.
func (r *AggResponse) appendJSON(b []byte) ([]byte, error) {
	w := envelopeWriter{b: b}
	w.raw(`{"results":`)
	w.results(r.Results)
	w.raw(`,"shards_asked":`)
	w.int(int64(r.ShardsAsked))
	w.raw(`,"shards_responded":`)
	w.int(int64(r.ShardsResponded))
	if r.TraceID != "" {
		w.raw(`,"trace_id":`)
		w.str(r.TraceID)
	}
	w.raw(`,"stragglers":`)
	w.int(int64(r.Stragglers))
	w.raw(`,"shard_errors":`)
	w.int(int64(r.ShardErrors))
	w.raw(`,"latency_ms":`)
	w.float(r.LatencyMs, 64)
	w.raw(`,"per_shard":`)
	if r.PerShard == nil {
		w.raw("null")
	} else {
		w.b = append(w.b, '[')
		for i := range r.PerShard {
			if i > 0 {
				w.b = append(w.b, ',')
			}
			w.isn(&r.PerShard[i])
		}
		w.b = append(w.b, ']')
	}
	w.b = append(w.b, '}')
	return w.b, w.err
}

// envelopeWriter appends JSON in encoding/json's format, keeping the first
// error json.Marshal would have returned.
type envelopeWriter struct {
	b   []byte
	err error
}

func (w *envelopeWriter) raw(s string) { w.b = append(w.b, s...) }

func (w *envelopeWriter) int(v int64) { w.b = strconv.AppendInt(w.b, v, 10) }

// float writes f (a float32 widened when bits is 32) as encoding/json does:
// 'f' notation, 'e' below 1e-6 and from 1e21 on, judged at the value's own
// precision, with "e-07" shortened to "e-7". NaN and ±Inf are the error
// json.Marshal returns.
func (w *envelopeWriter) float(f float64, bits int) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		if w.err == nil {
			w.err = &json.UnsupportedValueError{Str: strconv.FormatFloat(f, 'g', -1, bits)}
		}
		return
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (bits == 64 && (abs < 1e-6 || abs >= 1e21) ||
		bits == 32 && (float32(abs) < 1e-6 || float32(abs) >= 1e21)) {
		format = 'e'
	}
	w.b = strconv.AppendFloat(w.b, f, format, -1, bits)
	if n := len(w.b); format == 'e' && w.b[n-4] == 'e' && w.b[n-3] == '-' && w.b[n-2] == '0' {
		w.b[n-2] = w.b[n-1]
		w.b = w.b[:n-1]
	}
}

// str writes s as encoding/json does: as it is when no byte of it needs an
// escape, through json.Marshal otherwise.
func (w *envelopeWriter) str(s string) {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < ' ' || c >= utf8.RuneSelf || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			w.marshal(s)
			return
		}
	}
	w.b = append(w.b, '"')
	w.b = append(w.b, s...)
	w.b = append(w.b, '"')
}

// marshal appends json.Marshal's bytes for v: span sets, and strings that
// need escapes.
func (w *envelopeWriter) marshal(v any) {
	raw, err := json.Marshal(v)
	if err != nil {
		if w.err == nil {
			w.err = err
		}
		return
	}
	w.b = append(w.b, raw...)
}

func (w *envelopeWriter) results(rs []ShardResult) {
	if rs == nil {
		w.raw("null")
		return
	}
	w.b = append(w.b, '[')
	for i, r := range rs {
		if i > 0 {
			w.b = append(w.b, ',')
		}
		w.raw(`{"shard":`)
		w.int(int64(r.Shard))
		w.raw(`,"doc":`)
		w.int(int64(r.Doc))
		w.raw(`,"score":`)
		w.float(float64(r.Score), 32)
		w.b = append(w.b, '}')
	}
	w.b = append(w.b, ']')
}

func (w *envelopeWriter) isn(r *ISNResponse) {
	w.raw(`{"shard":`)
	w.int(int64(r.Shard))
	w.raw(`,"results":`)
	w.results(r.Results)
	w.raw(`,"service_ms":`)
	w.float(r.ServiceMs, 64)
	w.raw(`,"predicted_ms":`)
	w.float(r.PredictedMs, 64)
	w.raw(`,"pred_err_ms":`)
	w.float(r.PredErrMs, 64)
	w.raw(`,"queue_depth":`)
	w.int(int64(r.QueueDepth))
	if r.QueueWaitMs != 0 {
		w.raw(`,"queue_wait_ms":`)
		w.float(r.QueueWaitMs, 64)
	}
	if r.ExecWallMs != 0 {
		w.raw(`,"exec_wall_ms":`)
		w.float(r.ExecWallMs, 64)
	}
	if len(r.Spans) > 0 {
		w.raw(`,"spans":`)
		w.marshal(r.Spans)
	}
	w.b = append(w.b, '}')
}

// decodeJSON decodes data into req exactly as json.Unmarshal(data, req)
// would.
func (req *SearchRequest) decodeJSON(data []byte) error {
	v := *req // filled on the side: a document the scan gives up on must leave req as Unmarshal finds it
	s := scanner{data: data}
	if s.object(func(key []byte) bool {
		switch string(key) {
		case "query":
			q, ok := s.str()
			v.Query = string(q)
			return ok
		case "k":
			return s.intInto(&v.K)
		}
		return false
	}) && s.atEnd() {
		*req = v
		return nil
	}
	return unmarshal(data, req)
}

// decodeJSON decodes data into r exactly as json.Unmarshal(data, r) would.
// A reply without spans is scanned in place, its results appended to
// r.Results' spare capacity; an r that already holds results goes to
// Unmarshal, which would merge the reply into them.
func (r *ISNResponse) decodeJSON(data []byte) error {
	if len(r.Results) == 0 {
		v := *r // as in SearchRequest.decodeJSON; only r.Results' spare capacity is written early
		s := scanner{data: data}
		if s.object(func(key []byte) bool {
			switch string(key) {
			case "shard":
				return s.intInto(&v.Shard)
			case "results":
				return s.results(&v.Results)
			case "service_ms":
				return s.float64Into(&v.ServiceMs)
			case "predicted_ms":
				return s.float64Into(&v.PredictedMs)
			case "pred_err_ms":
				return s.float64Into(&v.PredErrMs)
			case "queue_depth":
				return s.intInto(&v.QueueDepth)
			case "queue_wait_ms":
				return s.float64Into(&v.QueueWaitMs)
			case "exec_wall_ms":
				return s.float64Into(&v.ExecWallMs)
			}
			return false
		}) && s.atEnd() {
			*r = v
			return nil
		}
	}
	return unmarshal(data, r)
}

// unmarshal is json.Unmarshal(data, v) through a copy of *v on the heap, so
// that v, a local on the hot paths, stays on its stack when the scan decodes
// the document itself.
func unmarshal[T any](data []byte, v *T) error {
	p := new(T)
	*p = *v
	err := json.Unmarshal(data, p)
	*v = *p
	return err
}

// scanner reads the canonical envelope shapes out of one JSON document.
// Every method reports false on input outside them: malformed JSON, and
// valid JSON that json.Unmarshal would decode some other way.
type scanner struct {
	data []byte
	off  int
}

// peek skips whitespace and returns the next byte, 0 at the end.
func (s *scanner) peek() byte {
	for ; s.off < len(s.data); s.off++ {
		switch c := s.data[s.off]; c {
		case ' ', '\t', '\n', '\r':
		default:
			return c
		}
	}
	return 0
}

// eat consumes c if it comes next after whitespace.
func (s *scanner) eat(c byte) bool {
	if s.peek() != c {
		return false
	}
	s.off++
	return true
}

// atEnd reports whether only whitespace is left after the value.
func (s *scanner) atEnd() bool {
	s.peek()
	return s.off == len(s.data)
}

// object walks an object, handing each key to field, which consumes the
// value.
func (s *scanner) object(field func(key []byte) bool) bool {
	if !s.eat('{') {
		return false
	}
	if s.eat('}') {
		return true
	}
	for {
		key, ok := s.str()
		if !ok || !s.eat(':') || !field(key) {
			return false
		}
		if s.eat('}') {
			return true
		}
		if !s.eat(',') {
			return false
		}
	}
}

// str reads a string Unmarshal stores byte for byte: no escape, no control
// character, valid UTF-8. Key matching on its result is exact, so a key
// Unmarshal would match only case-insensitively is not a known one here.
func (s *scanner) str() ([]byte, bool) {
	if !s.eat('"') {
		return nil, false
	}
	for start := s.off; s.off < len(s.data); s.off++ {
		switch c := s.data[s.off]; {
		case c == '"':
			v := s.data[start:s.off]
			s.off++
			return v, utf8.Valid(v)
		case c == '\\' || c < ' ':
			return nil, false
		}
	}
	return nil, false
}

// number reads a literal of JSON's number grammar:
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
func (s *scanner) number() ([]byte, bool) {
	s.peek()
	start := s.off
	s.next('-')
	if !s.next('0') && s.digits() == 0 {
		return nil, false
	}
	if s.next('.') && s.digits() == 0 {
		return nil, false
	}
	if s.next('e') || s.next('E') {
		if !s.next('+') {
			s.next('-')
		}
		if s.digits() == 0 {
			return nil, false
		}
	}
	return s.data[start:s.off], true
}

// next consumes c if it is the very next byte.
func (s *scanner) next(c byte) bool {
	if s.off < len(s.data) && s.data[s.off] == c {
		s.off++
		return true
	}
	return false
}

// digits consumes a run of decimal digits and returns its length.
func (s *scanner) digits() int {
	start := s.off
	for s.off < len(s.data) && '0' <= s.data[s.off] && s.data[s.off] <= '9' {
		s.off++
	}
	return s.off - start
}

// intInto and float64Into parse the number the way Unmarshal does for the
// field's type: a fraction, an exponent or a value out of range is not an
// int, and a float out of range is an error.
func (s *scanner) intInto(p *int) bool {
	n, ok := s.integer(strconv.IntSize)
	*p = int(n)
	return ok
}

func (s *scanner) integer(bits int) (int64, bool) {
	lit, ok := s.number()
	if !ok {
		return 0, false
	}
	n, err := strconv.ParseInt(string(lit), 10, bits)
	return n, err == nil
}

func (s *scanner) float64Into(p *float64) bool {
	f, ok := s.float(64)
	*p = f
	return ok
}

func (s *scanner) float(bits int) (float64, bool) {
	lit, ok := s.number()
	if !ok {
		return 0, false
	}
	f, err := strconv.ParseFloat(string(lit), bits)
	return f, err == nil
}

// results reads a results array into *p, reusing its capacity the way
// Unmarshal does: an empty array becomes a new empty slice, null a nil one.
func (s *scanner) results(p *[]ShardResult) bool {
	if s.peek() == 'n' {
		if !bytes.HasPrefix(s.data[s.off:], []byte("null")) {
			return false
		}
		s.off += len("null")
		*p = nil
		return true
	}
	if !s.eat('[') {
		return false
	}
	if s.eat(']') {
		*p = make([]ShardResult, 0)
		return true
	}
	rs := (*p)[:0]
	for {
		var r ShardResult
		var seen uint8
		ok := s.object(func(key []byte) bool {
			switch string(key) {
			case "shard":
				seen |= 1
				return s.intInto(&r.Shard)
			case "doc":
				seen |= 2
				n, ok := s.integer(32)
				r.Doc = int32(n)
				return ok
			case "score":
				seen |= 4
				f, ok := s.float(32)
				r.Score = float32(f)
				return ok
			}
			return false
		})
		// Unmarshal decodes an element into the slot it reuses, so one
		// missing a field would keep what that slot held before.
		if !ok || seen != 7 {
			return false
		}
		rs = append(rs, r)
		if s.eat(']') {
			*p = rs
			return true
		}
		if !s.eat(',') {
			return false
		}
	}
}

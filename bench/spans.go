package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from bench's own code around
// the layer's public function. Spans of one operation (a query, a request, a
// repetition) share Trace; Parent is the enclosing span's ID, or -1.
type span struct {
	Name    string `json:"name"`
	Trace   int    `json:"trace"`
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends. A nil *recorder records
// nothing and reads no clock, so untraced and traced runs share one code path.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex // live_search's clients record concurrently
	spans []span
	from  int // durationsNs and selfNs read spans[from:], the current workload's
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// start opens a span and returns its ID (-1 when not recording).
func (r *recorder) start(name string, trace, parent int) int {
	if r == nil {
		return -1
	}
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	id := len(r.spans)
	r.spans = append(r.spans, span{Name: name, Trace: trace, ID: id, Parent: parent, StartNs: now})
	r.mu.Unlock()
	return id
}

// end closes the span start returned.
func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	r.spans[id].EndNs = now
	r.mu.Unlock()
}

// now is the recorder's clock, for add.
func (r *recorder) now() int64 { return time.Since(r.t0).Nanoseconds() }

// add records a span whose interval the caller already knows (a duration the
// program reported in its reply rather than one bench timed itself).
func (r *recorder) add(name string, trace, parent int, startNs, endNs int64) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans)
	r.spans = append(r.spans, span{Name: name, Trace: trace, ID: id, Parent: parent, StartNs: startNs, EndNs: endNs})
	return id
}

// durationsNs lists the length of every span called name.
func (r *recorder) durationsNs(name string) []float64 {
	var out []float64
	for _, s := range r.spans[r.from:] {
		if s.Name == name {
			out = append(out, float64(s.EndNs-s.StartNs))
		}
	}
	return out
}

// selfNs lists, for every span called name, its length minus the part of it
// that its child spans cover (children may overlap; the union counts once).
func (r *recorder) selfNs(name string) []float64 {
	kids := make(map[int][]span)
	for _, s := range r.spans[r.from:] {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	var out []float64
	for _, s := range r.spans[r.from:] {
		if s.Name != name {
			continue
		}
		cs := kids[s.ID]
		sort.Slice(cs, func(i, j int) bool { return cs[i].StartNs < cs[j].StartNs })
		covered, upTo := int64(0), s.StartNs
		for _, c := range cs {
			lo, hi := max(c.StartNs, upTo), min(c.EndNs, s.EndNs)
			if hi > lo {
				covered += hi - lo
				upTo = hi
			}
		}
		out = append(out, float64(s.EndNs-s.StartNs-covered))
	}
	return out
}

// write stores the spans as JSON lines, creating the file's directory.
func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range r.spans {
		if err := enc.Encode(&r.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// timeCalls returns the mean host nanoseconds of one call to fn over n calls.
func timeCalls(n int, fn func(i int)) float64 {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(n)
}

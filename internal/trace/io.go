package trace

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// WriteCSV writes the trace as a one-column CSV ("arrival_ms" header).
func (t *Trace) WriteCSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintln(bw, "arrival_ms"); err != nil {
		return err
	}
	for _, a := range t.Arrivals {
		if _, err := fmt.Fprintf(bw, "%.6f\n", a); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadCSV parses a trace written by WriteCSV (a header line is optional;
// blank lines are skipped). Arrivals must be non-negative and ascending.
func ReadCSV(r io.Reader, name string) (*Trace, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 16*1024*1024)
	var arrivals []float64
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || text == "arrival_ms" {
			continue
		}
		v, err := strconv.ParseFloat(text, 64)
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: %w", line, err)
		}
		if v < 0 {
			return nil, fmt.Errorf("trace: line %d: negative arrival %v", line, v)
		}
		if len(arrivals) > 0 && v < arrivals[len(arrivals)-1] {
			return nil, fmt.Errorf("trace: line %d: arrivals not ascending (%v after %v)",
				line, v, arrivals[len(arrivals)-1])
		}
		arrivals = append(arrivals, v)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return &Trace{Name: name, Arrivals: arrivals}, nil
}

// LoadFile reads a trace CSV file.
func LoadFile(path string) (*Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	name := path
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		name = path[i+1:]
	}
	return ReadCSV(f, name)
}

// Slice returns the sub-trace with arrivals in [fromMs, toMs), re-based so
// the window starts at zero — replaying a segment of a long trace.
func (t *Trace) Slice(fromMs, toMs float64) *Trace {
	out := &Trace{Name: t.Name + "[slice]"}
	for _, a := range t.Arrivals {
		if a >= fromMs && a < toMs {
			out.Arrivals = append(out.Arrivals, a-fromMs)
		}
	}
	return out
}

// Scale returns a copy with all inter-arrival gaps multiplied by factor —
// time-compressing a long trace into an evaluation window (the paper
// compresses its 12-hour load into 1000 s the same way, §VI-A).
func (t *Trace) Scale(factor float64) *Trace {
	out := &Trace{Name: t.Name + "[scaled]", Arrivals: make([]float64, len(t.Arrivals))}
	for i, a := range t.Arrivals {
		out.Arrivals[i] = a * factor
	}
	return out
}

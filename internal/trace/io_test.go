package trace

import (
	"bytes"
	"math"
	"os"
	"strings"
	"testing"
)

func TestCSVRoundTrip(t *testing.T) {
	orig := GenFixedRPS(40, 30_000, 3)
	var buf bytes.Buffer
	if err := orig.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf, "roundtrip")
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != orig.Len() {
		t.Fatalf("len %d vs %d", got.Len(), orig.Len())
	}
	for i := range got.Arrivals {
		if math.Abs(got.Arrivals[i]-orig.Arrivals[i]) > 1e-5 {
			t.Fatalf("arrival %d: %v vs %v", i, got.Arrivals[i], orig.Arrivals[i])
		}
	}
	if got.Name != "roundtrip" {
		t.Errorf("name = %q", got.Name)
	}
}

func TestCSVFileRoundTrip(t *testing.T) {
	orig := GenFixedRPS(20, 10_000, 4)
	path := t.TempDir() + "/trace.csv"
	var buf bytes.Buffer
	if err := orig.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != orig.Len() {
		t.Errorf("len %d vs %d", got.Len(), orig.Len())
	}
	if got.Name != "trace.csv" {
		t.Errorf("name = %q", got.Name)
	}
	if _, err := LoadFile(path + ".missing"); err == nil {
		t.Error("missing file accepted")
	}
}

func TestReadCSVValidation(t *testing.T) {
	cases := []string{
		"arrival_ms\nabc\n",
		"10\n5\n",   // not ascending
		"-1\n",      // negative
		"10\nxyz\n", // bad number later
	}
	for _, c := range cases {
		if _, err := ReadCSV(strings.NewReader(c), "bad"); err == nil {
			t.Errorf("accepted %q", c)
		}
	}
	// Header optional, blank lines skipped, empty trace valid.
	got, err := ReadCSV(strings.NewReader("\n10\n\n20\n"), "ok")
	if err != nil || got.Len() != 2 {
		t.Errorf("lenient parse failed: %v %v", got, err)
	}
	empty, err := ReadCSV(strings.NewReader(""), "empty")
	if err != nil || empty.Len() != 0 {
		t.Errorf("empty trace: %v %v", empty, err)
	}
}

func TestSlice(t *testing.T) {
	tr := &Trace{Arrivals: []float64{5, 15, 25, 35}}
	s := tr.Slice(10, 30)
	if s.Len() != 2 {
		t.Fatalf("len = %d", s.Len())
	}
	if s.Arrivals[0] != 5 || s.Arrivals[1] != 15 {
		t.Errorf("rebased arrivals = %v", s.Arrivals)
	}
}

func TestScale(t *testing.T) {
	tr := &Trace{Arrivals: []float64{10, 20, 40}}
	s := tr.Scale(0.5)
	want := []float64{5, 10, 20}
	for i := range want {
		if s.Arrivals[i] != want[i] {
			t.Errorf("scaled[%d] = %v", i, s.Arrivals[i])
		}
	}
	// Scaling halves duration and doubles the rate.
	if math.Abs(s.MeanRPS()-2*tr.MeanRPS()) > 1e-9 {
		t.Errorf("rate after scale = %v, want %v", s.MeanRPS(), 2*tr.MeanRPS())
	}
}

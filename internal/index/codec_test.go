package index

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"gemini/internal/corpus"
)

func TestCodecRoundTrip(t *testing.T) {
	c, ix := buildSmall(t)
	var buf bytes.Buffer
	n, err := ix.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Errorf("reported %d bytes, wrote %d", n, buf.Len())
	}
	got, err := ReadIndex(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumDocs() != ix.NumDocs() || got.VocabSize() != ix.VocabSize() {
		t.Fatalf("shape mismatch: %d/%d vs %d/%d",
			got.NumDocs(), got.VocabSize(), ix.NumDocs(), ix.VocabSize())
	}
	if math.Abs(got.AvgDocLen()-ix.AvgDocLen()) > 1e-12 {
		t.Errorf("avgDocLen %v vs %v", got.AvgDocLen(), ix.AvgDocLen())
	}
	if got.TotalPostings() != ix.TotalPostings() {
		t.Fatalf("postings %d vs %d", got.TotalPostings(), ix.TotalPostings())
	}
	// Every list round-trips: docs exact, impacts within quantization error,
	// MaxImpact and IDF exact.
	for term := 0; term < ix.VocabSize(); term++ {
		want, errW := ix.List(corpus.TermID(term))
		have, errH := got.List(corpus.TermID(term))
		if (errW == nil) != (errH == nil) {
			t.Fatalf("term %d presence differs", term)
		}
		if errW != nil {
			continue
		}
		if want.MaxImpact != have.MaxImpact || want.IDF != have.IDF {
			t.Fatalf("term %d stats differ", term)
		}
		for i := range want.Postings {
			if want.Postings[i].Doc != have.Postings[i].Doc {
				t.Fatalf("term %d doc %d differs", term, i)
			}
			tol := float64(want.MaxImpact) / 65535 * 1.01
			if math.Abs(float64(want.Postings[i].Impact-have.Postings[i].Impact)) > tol {
				t.Fatalf("term %d impact %d: %v vs %v (tol %v)",
					term, i, want.Postings[i].Impact, have.Postings[i].Impact, tol)
			}
		}
	}
	_ = c
}

func TestCodecCompresses(t *testing.T) {
	_, ix := buildSmall(t)
	var buf bytes.Buffer
	if _, err := ix.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	ratio := float64(buf.Len()) / float64(ix.UncompressedBytes())
	if ratio > 0.75 {
		t.Errorf("compression ratio %.2f, want < 0.75 (varint+quantization)", ratio)
	}
}

func TestCodecFileRoundTrip(t *testing.T) {
	_, ix := buildSmall(t)
	path := t.TempDir() + "/shard.idx"
	if err := ix.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.TotalPostings() != ix.TotalPostings() {
		t.Errorf("postings differ after file round trip")
	}
	if _, err := LoadFile(path + ".missing"); err == nil {
		t.Error("missing file accepted")
	}
}

func TestCodecRejectsGarbage(t *testing.T) {
	cases := []string{
		"",
		"short",
		"NOTMAGIC",
		codecMagic, // truncated right after magic
	}
	for _, c := range cases {
		if _, err := ReadIndex(strings.NewReader(c)); err == nil {
			t.Errorf("garbage %q accepted", c)
		}
	}
}

func TestCodecRejectsTruncated(t *testing.T) {
	_, ix := buildSmall(t)
	var buf bytes.Buffer
	if _, err := ix.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for _, cut := range []int{len(full) / 4, len(full) / 2, len(full) - 3} {
		if _, err := ReadIndex(bytes.NewReader(full[:cut])); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
}

// Quantization properties: identity at the extremes, bounded error, and
// order preservation within quantization resolution.
func TestQuantizeProperties(t *testing.T) {
	if quantize(0, 1) != 0 || quantize(1, 1) != impactScale {
		t.Fatal("endpoint quantization wrong")
	}
	if dequantize(0, 3) != 0 {
		t.Fatal("dequantize(0) != 0")
	}
	f := func(impRaw, maxRaw uint16) bool {
		max := float32(maxRaw)/1000 + 0.001
		imp := float32(impRaw) / 65535 * max
		q := quantize(imp, max)
		back := dequantize(q, max)
		return math.Abs(float64(back-imp)) <= float64(max)/65535+1e-7
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Search results over a round-tripped index must match the original's
// within quantization noise (same docs modulo near-ties).
func TestSearchEquivalenceAfterRoundTrip(t *testing.T) {
	c, ix := buildSmall(t)
	var buf bytes.Buffer
	if _, err := ix.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadIndex(&buf)
	if err != nil {
		t.Fatal(err)
	}
	g := corpus.NewQueryGen(c, 31)
	for i := 0; i < 100; i++ {
		q := g.Next()
		a := ix.AppendLists(nil, q)
		b := got.AppendLists(nil, q)
		if len(a) != len(b) {
			t.Fatalf("list resolution differs for %q", q.Text)
		}
		for j := range a {
			if a[j].Len() != b[j].Len() {
				t.Fatalf("list %d length differs for %q", j, q.Text)
			}
		}
	}
}

func BenchmarkIndexWrite(b *testing.B) {
	c := corpus.Generate(corpus.SmallSpec())
	ix := Build(c)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if _, err := ix.WriteTo(&buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkIndexRead(b *testing.B) {
	c := corpus.Generate(corpus.SmallSpec())
	ix := Build(c)
	var buf bytes.Buffer
	if _, err := ix.WriteTo(&buf); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReadIndex(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkIndexBuild(b *testing.B) {
	c := corpus.Generate(corpus.SmallSpec())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Build(c)
	}
}

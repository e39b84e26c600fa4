package corpus

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// refDocs is Generate's documents as one rand.Rand draws them: each
// document's length from NormFloat64, then its terms from rand.NewZipf on
// the same Rand. generate must give them at any worker count and chunk size.
func refDocs(spec Spec) [][]TermID {
	rng := rand.New(rand.NewSource(spec.Seed))
	zipf := rand.NewZipf(rng, spec.ZipfS, spec.ZipfV, uint64(spec.VocabSize-1))
	docs := make([][]TermID, spec.NumDocs)
	muLen := math.Log(spec.MeanDocLen) - spec.SigmaLen*spec.SigmaLen/2
	for d := range docs {
		n := max(int(math.Exp(muLen+spec.SigmaLen*rng.NormFloat64())), 8)
		docs[d] = make([]TermID, n)
		for i := range docs[d] {
			docs[d][i] = TermID(zipf.Uint64())
		}
	}
	return docs
}

// checkGenerate holds generate(spec, workers, chunk) to refDocs, document by
// document.
func checkGenerate(t *testing.T, spec Spec, workers, chunk int) {
	t.Helper()
	got, want := generate(spec, workers, chunk).Docs, refDocs(spec)
	for d := range want {
		if !reflect.DeepEqual(got[d], want[d]) {
			t.Fatalf("%+v workers=%d chunk=%d: document %d is %v, want %v", spec, workers, chunk, d, got[d], want[d])
		}
	}
}

// TestGenerateMatchesReference checks the small spec at 1–3 workers, with
// the production chunk and with chunks that end mid-document, and the
// full-scale spec as the platform builds it on two cores.
func TestGenerateMatchesReference(t *testing.T) {
	for workers := 1; workers <= 3; workers++ {
		for _, chunk := range []int{1 << 16, 997, 1} {
			checkGenerate(t, SmallSpec(), workers, chunk)
		}
	}
	if !testing.Short() {
		checkGenerate(t, DefaultSpec(), 2, 1<<16)
	}
}

// FuzzGenerateEquivalence holds generate to refDocs over random specs
// (ZipfS > 1, ZipfV >= 1, sizes, seeds), worker counts 1–3 and chunk sizes
// from one value up.
func FuzzGenerateEquivalence(f *testing.F) {
	f.Add(int64(1), uint16(40), uint16(800), 0.25, 2.0, 80.0, 0.5, uint8(2), uint16(4096))
	f.Add(int64(-7), uint16(3), uint16(1), 3.0, 1.0, 8.0, 1.5, uint8(3), uint16(1))
	f.Add(int64(99), uint16(200), uint16(12000), 0.01, 40.0, 300.0, 0.1, uint8(1), uint16(333))
	f.Fuzz(func(t *testing.T, seed int64, docs, vocab uint16, sMinus1, v, meanLen, sigma float64, workers uint8, chunk uint16) {
		spec := Spec{NumDocs: 1 + int(docs)%300, VocabSize: 1 + int(vocab), ZipfS: 1 + math.Abs(sMinus1),
			ZipfV: 1 + math.Abs(v-1), MeanDocLen: 1 + math.Mod(math.Abs(meanLen), 400), SigmaLen: math.Mod(math.Abs(sigma), 2), Seed: seed}
		if math.IsNaN(spec.ZipfS+spec.ZipfV+spec.MeanDocLen+spec.SigmaLen) || math.IsInf(spec.ZipfS+spec.ZipfV, 0) || spec.ZipfS == 1 {
			t.Skip("not a spec NewZipf accepts")
		}
		checkGenerate(t, spec, 1+int(workers)%3, 1+int(chunk))
	})
}

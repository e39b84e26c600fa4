package stats

import (
	"encoding/binary"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"testing"
)

// sameBits reports whether a and b hold the same float64 bit patterns in the
// same order.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// checkSortAscending sorts a copy of xs both ways and fails on any bit that
// differs.
func checkSortAscending(t *testing.T, xs []float64) {
	t.Helper()
	got := append([]float64(nil), xs...)
	want := append([]float64(nil), xs...)
	SortAscending(got)
	sort.Float64s(want)
	if !sameBits(got, want) {
		t.Fatalf("SortAscending diverges from sort.Float64s on %d values\n  got:  %v\n  want: %v", len(xs), got, want)
	}
}

// latencyLike draws n latency-shaped values: log-normal around 10 ms, with
// every fourth value quantized to force exact duplicates.
func latencyLike(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = math.Exp(rng.NormFloat64()*0.6) * 10
		if i%4 == 0 {
			xs[i] = math.Round(xs[i])
		}
	}
	return xs
}

func TestSortAscendingMatchesSort(t *testing.T) {
	cases := map[string][]float64{
		"empty":      nil,
		"one":        {3},
		"zeros+inf":  {math.Inf(1), 0, 5, 0, math.MaxFloat64, math.SmallestNonzeroFloat64, 1e-310, math.Inf(1)},
		"negative":   {3, -1, 2, 0, -7.5},
		"minus zero": {1, math.Copysign(0, -1), 0, 2},
		"nan":        {3, math.NaN(), 1, math.NaN(), 2},
	}
	// Long enough for the radix path: the fallback must catch what the bit
	// order gets wrong, not insertion sort.
	equal := make([]float64, 2*radixCutoff)
	negative := latencyLike(300, 2)
	zeros := latencyLike(300, 3)
	for i := range equal {
		equal[i] = 2
	}
	for i := 0; i < len(negative); i += 7 {
		negative[i] = -negative[i]
		zeros[i] = math.Copysign(0, float64(i%2)-0.5) // −0 and +0 in turn
	}
	cases["equal"] = equal
	cases["long negative"] = negative
	cases["long ±0"] = zeros
	for name, xs := range cases {
		t.Run(name, func(t *testing.T) { checkSortAscending(t, xs) })
	}
	for _, n := range []int{radixCutoff - 1, radixCutoff, radixCutoff + 1, 300, 3000, 50000} {
		checkSortAscending(t, latencyLike(n, int64(n)))
	}
	// The digit walk: low keys differ only in their low 12 bits, where the
	// last digit overlaps the one above; high keys only at the top, in 16
	// values, so every bucket holds more than radixCutoff equal keys and
	// walks down the skipped digits; mid keys split four ways at bits 40–41
	// and again at bits 16–23, with an agreed digit between that a skip must
	// pass by exactly eight bits.
	low := make([]float64, 1000)
	high := make([]float64, 1000)
	mid := make([]float64, 1000)
	for i := range low {
		low[i] = math.Float64frombits(0x4000000000000000 | uint64((i*37)%4096))
		high[i] = math.Float64frombits(uint64((i*53)%16) << 58)
		mid[i] = math.Float64frombits(0x4000000000000000 | uint64(i%4)<<40 | uint64((i*29)%256)<<16)
	}
	checkSortAscending(t, low)
	checkSortAscending(t, high)
	checkSortAscending(t, mid)
}

func TestSortAscendingAllocs(t *testing.T) {
	src := latencyLike(3000, 1)
	xs := make([]float64, len(src))
	if n := testing.AllocsPerRun(20, func() {
		copy(xs, src)
		SortAscending(xs)
	}); n != 0 {
		t.Fatalf("SortAscending allocated %v times per run, want 0", n)
	}
}

// FuzzSortAscending compares SortAscending with sort.Float64s bit for bit on
// arbitrary float64s decoded eight bytes at a time: duplicates, +Inf,
// subnormals, and the fallback's −0, NaN and negatives. A leading byte picks
// how many low-bit variants of each decoded value to append, so the inputs
// reach both sides of the insertion-sort cutoff with shared high digits.
func FuzzSortAscending(f *testing.F) {
	seed := func(xs ...float64) []byte {
		b := []byte{4}
		for _, x := range xs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
		}
		return b
	}
	f.Add(seed(12.5, 3, 3, 40.1, 0.2))
	f.Add(seed(math.Inf(1), 0, math.SmallestNonzeroFloat64, 1e-308, 7))
	f.Add(seed(1, math.Copysign(0, -1), 0))
	f.Add(seed(2, math.NaN(), -1, 5))
	f.Add([]byte{60, 1, 2, 3, 4, 5, 6, 7, 0x40})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		spread := int(data[0]%64) + 1
		data = data[1:]
		var xs []float64
		for len(data) >= 8 && len(xs) < 4096 {
			k := binary.LittleEndian.Uint64(data)
			data = data[8:]
			for v := 0; v < spread; v++ {
				xs = append(xs, math.Float64frombits(k^uint64(v*v%251)))
			}
		}
		checkSortAscending(t, xs)
	})
}

var sortSizes = []int{64, 3000, 50000}

func benchSort(b *testing.B, sortFn func([]float64)) {
	for _, n := range sortSizes {
		src := latencyLike(n, 1)
		xs := make([]float64, n)
		b.Run("n="+strconv.Itoa(n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				copy(xs, src)
				sortFn(xs)
			}
		})
	}
}

func BenchmarkSortAscending(b *testing.B) { benchSort(b, SortAscending) }

func BenchmarkSortFloat64s(b *testing.B) { benchSort(b, sort.Float64s) }

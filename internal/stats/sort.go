package stats

import (
	"math"
	"math/bits"
	"sort"
)

// SortAscending sorts xs in place, ascending, leaving exactly the bytes
// sort.Float64s would: on non-negative non-NaN values (latencies, service
// times) the order of the IEEE-754 bit patterns read as unsigned integers is
// the order of the values, and equal values carry equal bits, so there is one
// sorted byte sequence and a radix sort over the bits finds it without a
// comparison. A slice holding a negative value, −0 or NaN — where that no
// longer holds — goes to sort.Float64s. It allocates nothing.
//
// The sort is an in-place MSD radix sort ("American flag"): one 256-bucket
// count per 8-bit digit, a cycle-swap of every key into its bucket, and a
// recursion into each bucket on the next digit. The first digit covers the top
// eight bits of the keys' range, a digit on which every key of a bucket agrees
// is skipped without moving anything, and buckets below radixCutoff keys are
// finished by insertion sort.
func SortAscending(xs []float64) {
	if len(xs) < 2 {
		return
	}
	lo, hi := ^uint64(0), uint64(0)
	for _, x := range xs {
		if math.Signbit(x) || math.IsNaN(x) {
			sort.Float64s(xs)
			return
		}
		k := math.Float64bits(x)
		lo = min(lo, k)
		hi = max(hi, k)
	}
	if lo == hi {
		return // every key is the same
	}
	// Digits are taken from k − lo, which orders as k does, so the first one
	// can start at the top bit of the keys' range rather than of the keys: a
	// run of latencies straddling a power of two differs in the exponent's
	// top bit, but spans a range a few mantissa bits wide.
	shift := bits.Len64(hi-lo) - 8
	if shift < 0 {
		shift = 0
	}
	radixSort(xs, lo, uint(shift))
}

// radixCutoff is the bucket size below which insertion sort beats another
// counting pass.
const radixCutoff = 48

// radixSort sorts xs, whose keys less base agree on every bit from shift+8
// up, by the digit (key − base) >> shift & 0xff and then each bucket on the
// next digit down. The last digit is bits 0–7, which may overlap bits the
// digit above already split on; keys of one bucket agree on those, so the
// overlap is harmless.
func radixSort(xs []float64, base uint64, shift uint) {
	for len(xs) >= radixCutoff {
		var next, end [256]int
		for _, x := range xs {
			end[digit(x, base, shift)]++
		}
		if end[digit(xs[0], base, shift)] == len(xs) {
			// One bucket holds every key: nothing to move on this digit.
			if shift == 0 {
				return
			}
			shift = nextShift(shift)
			continue
		}
		sum := 0
		for b := range end {
			next[b] = sum
			sum += end[b]
			end[b] = sum
		}
		// Cycle-swap: take the key at the first unfilled slot of bucket b and
		// move it to its own bucket's next slot, carrying the displaced key
		// on, until a key of bucket b comes back to fill the hole. Buckets
		// fill in order, so once bucket b's loop ends no later swap touches
		// it, and it is sorted on the next digit right away; after the last
		// digit each bucket holds equal keys.
		lo := 0
		for b := range end {
			hi := end[b]
			for next[b] < hi {
				x := xs[next[b]]
				for d := digit(x, base, shift); d != byte(b); d = digit(x, base, shift) {
					j := next[d]
					next[d]++
					xs[j], x = x, xs[j]
				}
				xs[next[b]] = x
				next[b]++
			}
			if hi-lo > 1 && shift > 0 {
				radixSort(xs[lo:hi], base, nextShift(shift))
			}
			lo = hi
		}
		return
	}
	insertionSort(xs)
}

func digit(x float64, base uint64, shift uint) byte {
	return byte((math.Float64bits(x) - base) >> shift)
}

func nextShift(shift uint) uint {
	if shift < 8 {
		return 0
	}
	return shift - 8
}

func insertionSort(xs []float64) {
	for i := 1; i < len(xs); i++ {
		x := xs[i]
		j := i
		for ; j > 0 && xs[j-1] > x; j-- {
			xs[j] = xs[j-1]
		}
		xs[j] = x
	}
}

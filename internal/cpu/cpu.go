// Package cpu models the processor substrate of the Gemini reproduction: the
// discrete DVFS frequency ladder of the paper's Xeon E5-2697 testbed
// (1.2–2.7 GHz), the constant frequency-transition stall Tdvfs, and an
// analytic CMOS power model calibrated so that a 12-ISN socket draws the
// 34–36.5 W baseline band reported in Fig. 10 of the paper.
//
// Units convention (used across the whole repository):
//   - time is float64 milliseconds of simulated time;
//   - Freq is GHz;
//   - Work is 10^6 cycles (== GHz·ms), so serviceTimeMs = Work / Freq,
//     matching the paper's S = C/f model validated in Fig. 3.
package cpu

import (
	"fmt"
	"math"
	"sort"
)

// Freq is a CPU core frequency in GHz.
type Freq float64

// Work is an amount of computation in units of 10^6 cycles (GHz·ms).
type Work float64

// Standard ladder of the evaluation platform (paper Fig. 3 x-axis).
var DefaultLevels = []Freq{1.2, 1.4, 1.6, 1.8, 2.0, 2.2, 2.4, 2.7}

const (
	// FMin and FMax bound the default ladder.
	FMin Freq = 1.2
	FMax Freq = 2.7
	// FDefault is the paper's default (and maximum) frequency: both the
	// boosted frequency f_b and the frequency service-time predictions are
	// conditioned on (paper eq. 1).
	FDefault Freq = 2.7
	// FLow is the low "cruise" gear used by epoch-style controllers (EETL,
	// paper ref [16], starts every request here before boosting): a
	// mid-ladder level trading service time for cubic dynamic-power savings.
	FLow Freq = 1.6
	// TdvfsMs is the constant CPU stall incurred by a frequency transition
	// (paper §III-A), folded together with the ~40 µs user-space sysfs write
	// overhead reported in §V.
	TdvfsMs = 0.05
)

// TimeFor returns the time in ms needed to complete w units of work at
// frequency f.
func TimeFor(w Work, f Freq) float64 {
	if f <= 0 {
		return math.Inf(1)
	}
	return float64(w) / float64(f)
}

// WorkFor returns the work completed in tMs milliseconds at frequency f.
func WorkFor(tMs float64, f Freq) Work {
	return Work(tMs * float64(f))
}

// Ladder is a discrete set of selectable core frequencies.
type Ladder struct {
	levels []Freq // ascending
}

// NewLadder builds a ladder from the given levels; they are copied, sorted,
// and deduplicated. An empty input yields the DefaultLevels ladder.
func NewLadder(levels []Freq) *Ladder {
	if len(levels) == 0 {
		levels = DefaultLevels
	}
	ls := make([]Freq, len(levels))
	copy(ls, levels)
	sort.Slice(ls, func(i, j int) bool { return ls[i] < ls[j] })
	out := ls[:1]
	for _, f := range ls[1:] {
		if f != out[len(out)-1] {
			out = append(out, f)
		}
	}
	return &Ladder{levels: out}
}

// DefaultLadder returns the standard 1.2–2.7 GHz ladder.
func DefaultLadder() *Ladder { return NewLadder(nil) }

// Levels returns a copy of the ladder's frequencies, ascending.
func (l *Ladder) Levels() []Freq {
	out := make([]Freq, len(l.levels))
	copy(out, l.levels)
	return out
}

// GHz returns the ladder's frequencies as plain numbers, ascending: the
// residency labels of a timeline.
func (l *Ladder) GHz() []float64 {
	out := make([]float64, len(l.levels))
	for i, f := range l.levels {
		out[i] = float64(f)
	}
	return out
}

// Min returns the lowest frequency.
func (l *Ladder) Min() Freq { return l.levels[0] }

// Max returns the highest frequency.
func (l *Ladder) Max() Freq { return l.levels[len(l.levels)-1] }

// ClampUp returns the lowest ladder frequency >= f. Requests above the top
// level return the top level: the deadline may then be at risk and it is the
// caller's (policy's) job to boost immediately or drop, per §III-A.
func (l *Ladder) ClampUp(f Freq) Freq {
	// sort.Search does not retain the predicate, so the closure stays on the stack.
	i := sort.Search(len(l.levels), func(i int) bool { return l.levels[i] >= f })
	if i == len(l.levels) {
		return l.levels[len(l.levels)-1]
	}
	return l.levels[i]
}

// ClampDown returns the highest ladder frequency <= f, or the bottom level
// if f is below the ladder.
func (l *Ladder) ClampDown(f Freq) Freq {
	i := sort.Search(len(l.levels), func(i int) bool { return l.levels[i] > f })
	if i == 0 {
		return l.levels[0]
	}
	return l.levels[i-1]
}

// StepDown returns the next frequency below f on the ladder (or the bottom
// level if f already is the bottom).
func (l *Ladder) StepDown(f Freq) Freq {
	// sort.Search does not retain the predicate, so the closure stays on the stack.
	i := sort.Search(len(l.levels), func(i int) bool { return l.levels[i] >= f })
	if i <= 0 {
		return l.levels[0]
	}
	if i == len(l.levels) {
		return l.levels[len(l.levels)-1]
	}
	return l.levels[i-1]
}

// StepUp returns the next frequency above f on the ladder (or the top level
// if f already is the top).
func (l *Ladder) StepUp(f Freq) Freq {
	i := sort.Search(len(l.levels), func(i int) bool { return l.levels[i] > f })
	if i == len(l.levels) {
		return l.levels[len(l.levels)-1]
	}
	return l.levels[i]
}

// Index returns f's position on the ladder: the index of the highest level
// <= f, clamped to 0 when f is below the bottom. For exact ladder levels —
// the only values the simulator ever runs at — this is the level's ordinal,
// which is what per-level bookkeeping (frequency-residency sampling) keys on.
func (l *Ladder) Index(f Freq) int {
	i := sort.Search(len(l.levels), func(i int) bool { return l.levels[i] > f })
	if i == 0 {
		return 0
	}
	return i - 1
}

// Contains reports whether f is exactly a ladder level.
func (l *Ladder) Contains(f Freq) bool {
	i := sort.Search(len(l.levels), func(i int) bool { return l.levels[i] >= f })
	// Membership is exact by design: callers pass a value taken from the ladder.
	return i < len(l.levels) && l.levels[i] == f
}

// String renders the ladder for diagnostics.
func (l *Ladder) String() string {
	return fmt.Sprintf("Ladder%v", l.levels)
}

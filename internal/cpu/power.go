package cpu

import "math"

// PowerModel is an analytic CMOS socket power model:
//
//	P_socket = Uncore + Σ_cores [ Leak + Dyn(f)·activity ]
//	Dyn(f)   = DynCoeff · f · V(f)²          (classic f·V² dynamic power)
//	V(f)     = linear between (FMin, VMin) and (FMax, VMax)
//
// activity is 1 for a core executing a request and IdleActivity for an idle
// core. Latency-critical deployments disable deep C-states (the paper's
// testbed polls in C0 so that wake latency never hits the tail), which is why
// an idle core still burns most of its dynamic power at its current
// frequency; that is what makes idle-time frequency scaling profitable and
// reproduces the shallow baseline slope of Fig. 10 (34 W at 20 RPS to 36.5 W
// at 100 RPS).
//
// The default constants are calibrated in DefaultPowerModel so a 12-ISN
// socket lands in that measured band.
type PowerModel struct {
	UncoreW      float64 // constant socket overhead (caches, memory ctrl)
	LeakPerCoreW float64 // per-core static leakage
	DynCoeff     float64 // scales f·V² into watts
	VMin, VMax   float64 // operating voltage at FMin and FMax
	IdleActivity float64 // fraction of Dyn(f) burned by an idle (C0) core
	Cores        int     // cores on the socket (ISNs)
}

// DefaultPowerModel returns the calibrated 12-core model used by all
// experiments. Calibration targets (paper Fig. 10 baseline at 2.7 GHz):
// ≈34 W at 20 RPS (utilization ≈0.1) and ≈36.5 W at 100 RPS (≈0.5).
func DefaultPowerModel() *PowerModel {
	return &PowerModel{
		UncoreW:      6.0,
		LeakPerCoreW: 0.60,
		DynCoeff:     0.60,
		VMin:         0.80,
		VMax:         1.15,
		IdleActivity: 0.85,
		Cores:        12,
	}
}

// Voltage returns the modeled operating voltage at frequency f, linearly
// interpolated (and linearly extrapolated outside [FMin, FMax]).
func (m *PowerModel) Voltage(f Freq) float64 {
	frac := (float64(f) - float64(FMin)) / (float64(FMax) - float64(FMin))
	return m.VMin + (m.VMax-m.VMin)*frac
}

// DynW returns the full-activity dynamic power of one core at frequency f.
func (m *PowerModel) DynW(f Freq) float64 {
	v := m.Voltage(f)
	return m.DynCoeff * float64(f) * v * v
}

// CoreW returns the power of a single core at frequency f, active or idle.
func (m *PowerModel) CoreW(f Freq, active bool) float64 {
	act := m.IdleActivity
	if active {
		act = 1
	}
	return m.LeakPerCoreW + m.DynW(f)*act
}

// EnergyAccumulator integrates one core's energy over piecewise-constant
// power intervals. Energies are reported in millijoules because simulated
// time is in milliseconds. The zero value is an empty accumulator.
type EnergyAccumulator struct {
	energyMJ float64
	busyMs   float64
	totalMs  float64
}

// AccumulatePower charges dtMs at a draw of powerW. It is the engine's only
// accrual: the caller prices the interval (PowerModel.CoreW at the core's
// frequency and activity, or a sleep state's draw). Negative intervals are
// ignored.
func (e *EnergyAccumulator) AccumulatePower(dtMs, powerW float64, active bool) {
	if dtMs <= 0 {
		return
	}
	e.energyMJ += powerW * dtMs
	e.totalMs += dtMs
	if active {
		e.busyMs += dtMs
	}
}

// EnergyMJ returns the accumulated core energy in millijoules (W·ms).
func (e *EnergyAccumulator) EnergyMJ() float64 { return e.energyMJ }

// AvgPowerW returns the time-averaged core power in watts.
func (e *EnergyAccumulator) AvgPowerW() float64 {
	if e.totalMs == 0 {
		return 0
	}
	return e.energyMJ / e.totalMs
}

// Utilization returns the busy fraction of the accumulated interval.
func (e *EnergyAccumulator) Utilization() float64 {
	if e.totalMs == 0 {
		return 0
	}
	return e.busyMs / e.totalMs
}

// wattsSlots is the size of a Watts table: a power of two, four slots per
// level it holds, so that a collision-free multiplier turns up in a few
// tries.
const wattsSlots = 32

// Watts is a PowerModel's core draw at the levels of a Ladder, busy and
// idle: CoreW's values, filled once, so that a caller switching among the
// levels (the engine at every frequency change, the power-cap coordinator
// at every control boundary) reads the draw instead of recomputing it. A
// frequency off the ladder, or past its first wattsSlots/4 levels, falls
// back to CoreW, so the result is CoreW's bits for any frequency.
//
// A level's slot is its bits times mult, top five bits: mult is the first
// of a fixed sequence of odd multipliers under which no two levels share a
// slot (the second, for the default ladder), or, if 64 tries find none, the
// last, where a level that collides is left out and falls back. An empty slot
// holds the key of the first level, which is always placed in a slot of its
// own, so no frequency matches it. The zero Watts is not usable; build one
// with PowerModel.Watts. It holds no pointer into the ladder and is copied
// by value (the engine keeps one per core).
type Watts struct {
	m          *PowerModel
	mult       uint64
	key        [wattsSlots]uint64
	busy, idle [wattsSlots]float64
}

// Watts fills the table of m's draw at the levels of l.
func (m *PowerModel) Watts(l *Ladder) Watts {
	levels := l.levels[:min(len(l.levels), wattsSlots/4)]
	w := Watts{m: m, mult: 0x9e3779b97f4a7c15}
	for try := 1; !w.place(levels) && try < 64; try++ {
		w.mult += 0x9e3779b97f4a7c16
	}
	return w
}

// place fills the table under w.mult and reports whether every level found
// a slot of its own; a level whose slot is taken is left out.
func (w *Watts) place(levels []Freq) bool {
	first := math.Float64bits(float64(levels[0]))
	for i := range w.key {
		w.key[i] = first
	}
	var taken [wattsSlots]bool
	all := true
	for _, f := range levels {
		i := w.slot(f)
		if taken[i] {
			all = false
			continue
		}
		taken[i] = true
		w.key[i] = math.Float64bits(float64(f))
		w.busy[i], w.idle[i] = w.m.CoreW(f, true), w.m.CoreW(f, false)
	}
	return all
}

func (w *Watts) slot(f Freq) uint64 { return math.Float64bits(float64(f)) * w.mult >> 59 }

// CoreW returns the model's CoreW(f, active).
func (w *Watts) CoreW(f Freq, active bool) float64 {
	if i := w.slot(f); w.key[i] == math.Float64bits(float64(f)) {
		if active {
			return w.busy[i]
		}
		return w.idle[i]
	}
	return w.m.CoreW(f, active)
}

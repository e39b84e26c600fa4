package cpu

import (
	"math"
	"testing"
	"testing/quick"
)

func TestTimeWorkRoundTrip(t *testing.T) {
	// 27 GHz·ms at 2.7 GHz takes 10 ms (the paper's average service time).
	if got := TimeFor(27, 2.7); math.Abs(got-10) > 1e-12 {
		t.Errorf("TimeFor(27, 2.7) = %v, want 10", got)
	}
	if got := WorkFor(10, 2.7); math.Abs(float64(got)-27) > 1e-12 {
		t.Errorf("WorkFor(10, 2.7) = %v, want 27", got)
	}
	if !math.IsInf(TimeFor(1, 0), 1) {
		t.Errorf("TimeFor at zero frequency should be +Inf")
	}
}

// Property: S = C/f round trips through WorkFor/TimeFor.
func TestTimeWorkProperty(t *testing.T) {
	f := func(sRaw, fRaw uint16) bool {
		s := float64(sRaw%10000)/100 + 0.01 // 0.01..100.01 ms
		fq := Freq(float64(fRaw%15)/10 + 1.2)
		w := WorkFor(s, fq)
		back := TimeFor(w, fq)
		return math.Abs(back-s) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLadderBasics(t *testing.T) {
	l := DefaultLadder()
	if l.Min() != 1.2 || l.Max() != 2.7 {
		t.Fatalf("ladder bounds = %v..%v", l.Min(), l.Max())
	}
	if len(l.Levels()) != 8 {
		t.Fatalf("levels = %v", l.Levels())
	}
	if !l.Contains(2.0) || l.Contains(2.1) {
		t.Errorf("Contains misbehaves")
	}
}

func TestLadderDedupAndSort(t *testing.T) {
	l := NewLadder([]Freq{2.0, 1.2, 2.0, 1.6})
	lv := l.Levels()
	want := []Freq{1.2, 1.6, 2.0}
	if len(lv) != len(want) {
		t.Fatalf("levels = %v, want %v", lv, want)
	}
	for i := range want {
		if lv[i] != want[i] {
			t.Fatalf("levels = %v, want %v", lv, want)
		}
	}
}

func TestClampUp(t *testing.T) {
	l := DefaultLadder()
	cases := []struct{ in, want Freq }{
		{0.5, 1.2}, {1.2, 1.2}, {1.3, 1.4}, {2.41, 2.7}, {2.7, 2.7}, {9, 2.7},
	}
	for _, c := range cases {
		if got := l.ClampUp(c.in); got != c.want {
			t.Errorf("ClampUp(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestClampDown(t *testing.T) {
	l := DefaultLadder()
	cases := []struct{ in, want Freq }{
		{0.5, 1.2}, {1.2, 1.2}, {1.3, 1.2}, {2.69, 2.4}, {2.7, 2.7}, {9, 2.7},
	}
	for _, c := range cases {
		if got := l.ClampDown(c.in); got != c.want {
			t.Errorf("ClampDown(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestStepUpDown(t *testing.T) {
	l := DefaultLadder()
	if got := l.StepUp(1.2); got != 1.4 {
		t.Errorf("StepUp(1.2) = %v", got)
	}
	if got := l.StepUp(2.7); got != 2.7 {
		t.Errorf("StepUp(top) = %v", got)
	}
	if got := l.StepDown(2.7); got != 2.4 {
		t.Errorf("StepDown(2.7) = %v", got)
	}
	if got := l.StepDown(1.2); got != 1.2 {
		t.Errorf("StepDown(bottom) = %v", got)
	}
	// Between-level inputs step relative to neighbors.
	if got := l.StepUp(1.5); got != 1.6 {
		t.Errorf("StepUp(1.5) = %v", got)
	}
	if got := l.StepDown(1.5); got != 1.4 {
		t.Errorf("StepDown(1.5) = %v", got)
	}
}

// Property: ClampUp never returns below input unless input exceeds max, and
// always returns a ladder level.
func TestClampUpProperty(t *testing.T) {
	l := DefaultLadder()
	f := func(raw uint16) bool {
		in := Freq(float64(raw) / 1000) // 0..65.5 GHz
		out := l.ClampUp(in)
		if !l.Contains(out) {
			return false
		}
		if in <= l.Max() {
			return out >= in
		}
		return out == l.Max()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestVoltageEndpoints(t *testing.T) {
	m := DefaultPowerModel()
	if got := m.Voltage(FMin); math.Abs(got-m.VMin) > 1e-12 {
		t.Errorf("Voltage(FMin) = %v", got)
	}
	if got := m.Voltage(FMax); math.Abs(got-m.VMax) > 1e-12 {
		t.Errorf("Voltage(FMax) = %v", got)
	}
}

func TestPowerMonotoneInFrequency(t *testing.T) {
	m := DefaultPowerModel()
	prev := 0.0
	for _, f := range DefaultLevels {
		p := m.CoreW(f, true)
		if p <= prev {
			t.Errorf("power not increasing at %v GHz: %v <= %v", f, p, prev)
		}
		prev = p
	}
}

func TestActiveCostsMoreThanIdle(t *testing.T) {
	m := DefaultPowerModel()
	for _, f := range DefaultLevels {
		if m.CoreW(f, true) <= m.CoreW(f, false) {
			t.Errorf("active <= idle at %v GHz", f)
		}
	}
}

// uniformSocketW is the socket's power when every core runs at frequency f
// with the given busy fraction (time-average utilization): the closed form
// the model's constants are calibrated against.
func uniformSocketW(m *PowerModel, f Freq, utilization float64) float64 {
	perCore := m.LeakPerCoreW + m.DynW(f)*(m.IdleActivity+(1-m.IdleActivity)*utilization)
	return m.UncoreW + float64(m.Cores)*perCore
}

// Calibration: the 12-core socket at the default frequency must land inside
// the paper's Fig. 10 baseline band (≈34 W at low load, ≈36.5 W at 100 RPS).
func TestBaselineCalibration(t *testing.T) {
	m := DefaultPowerModel()
	lo := uniformSocketW(m, FDefault, 0.10)
	hi := uniformSocketW(m, FDefault, 0.50)
	if lo < 32 || lo > 36 {
		t.Errorf("low-load socket power = %.2f W, want ≈34", lo)
	}
	if hi < 34.5 || hi > 38.5 {
		t.Errorf("high-load socket power = %.2f W, want ≈36.5", hi)
	}
	if hi <= lo {
		t.Errorf("power must grow with utilization: %v <= %v", hi, lo)
	}
}

// DVFS must offer enough dynamic range for the paper's ≈41% savings: a
// socket busy at 1.4 GHz must draw well under 65% of the busy 2.7 GHz power.
func TestDVFSDynamicRange(t *testing.T) {
	m := DefaultPowerModel()
	slow := uniformSocketW(m, 1.4, 0.9)
	fast := uniformSocketW(m, FDefault, 0.5)
	if ratio := slow / fast; ratio > 0.70 {
		t.Errorf("slow/fast power ratio = %.2f, want < 0.70 (insufficient DVFS range)", ratio)
	}
}

// The closed form the calibration tests read is the engine's per-core
// pricing summed over the socket: every core busy (utilization 1) or every
// core idle (utilization 0).
func TestSocketWMatchesUniform(t *testing.T) {
	m := DefaultPowerModel()
	for _, active := range []bool{true, false} {
		got := m.UncoreW
		for i := 0; i < m.Cores; i++ {
			got += m.CoreW(FDefault, active)
		}
		u := 0.0
		if active {
			u = 1
		}
		if want := uniformSocketW(m, FDefault, u); math.Abs(got-want) > 1e-9 {
			t.Errorf("active=%v: Σ CoreW = %v, uniformSocketW = %v", active, got, want)
		}
	}
}

func TestEnergyAccumulator(t *testing.T) {
	m := DefaultPowerModel()
	acc := &EnergyAccumulator{}
	acc.AccumulatePower(10, m.CoreW(2.7, true), true)
	acc.AccumulatePower(10, m.CoreW(1.2, false), false)
	acc.AccumulatePower(-5, m.CoreW(2.7, true), true) // ignored
	wantMJ := m.CoreW(2.7, true)*10 + m.CoreW(1.2, false)*10
	if math.Abs(acc.EnergyMJ()-wantMJ) > 1e-9 {
		t.Errorf("EnergyMJ = %v, want %v", acc.EnergyMJ(), wantMJ)
	}
	if math.Abs(acc.AvgPowerW()-wantMJ/20) > 1e-9 {
		t.Errorf("AvgPowerW = %v", acc.AvgPowerW())
	}
	if math.Abs(acc.Utilization()-0.5) > 1e-12 {
		t.Errorf("Utilization = %v, want 0.5", acc.Utilization())
	}
	if acc.totalMs != 20 {
		t.Errorf("totalMs = %v", acc.totalMs)
	}
}

func TestEnergyAccumulatorEmpty(t *testing.T) {
	acc := &EnergyAccumulator{}
	if acc.AvgPowerW() != 0 || acc.Utilization() != 0 {
		t.Errorf("empty accumulator should report zeros")
	}
}

// Property: energy is additive — splitting an interval does not change it.
func TestEnergyAdditivityProperty(t *testing.T) {
	m := DefaultPowerModel()
	f := func(dtRaw, splitRaw uint16, fRaw uint8, active bool) bool {
		dt := float64(dtRaw)/100 + 0.01
		split := float64(splitRaw) / 65535 * dt
		fq := Freq(1.2 + float64(fRaw%16)*0.1)
		w := m.CoreW(fq, active)
		whole := &EnergyAccumulator{}
		whole.AccumulatePower(dt, w, active)
		parts := &EnergyAccumulator{}
		parts.AccumulatePower(split, w, active)
		parts.AccumulatePower(dt-split, w, active)
		return math.Abs(whole.EnergyMJ()-parts.EnergyMJ()) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDeepestAffordable(t *testing.T) {
	got := DeepestAffordable(DefaultCStates, 0.1)
	if got.Name != "C3" {
		t.Errorf("slack 0.1ms -> %s, want C3", got.Name)
	}
	got = DeepestAffordable(DefaultCStates, 10)
	if got.Name != "C6" {
		t.Errorf("slack 10ms -> %s, want C6", got.Name)
	}
	got = DeepestAffordable(DefaultCStates, 0)
	if got.Name != "C0-poll" {
		t.Errorf("slack 0 -> %s, want C0-poll", got.Name)
	}
}

func TestCStateLadderOrdering(t *testing.T) {
	for i := 1; i < len(DefaultCStates); i++ {
		if DefaultCStates[i].PowerW >= DefaultCStates[i-1].PowerW {
			t.Errorf("deeper state %s not cheaper", DefaultCStates[i].Name)
		}
		if DefaultCStates[i].WakeMs < DefaultCStates[i-1].WakeMs {
			t.Errorf("deeper state %s wakes faster", DefaultCStates[i].Name)
		}
	}
}

func TestVoltageExtrapolation(t *testing.T) {
	m := DefaultPowerModel()
	// Outside the ladder the linear voltage model extrapolates.
	if v := m.Voltage(0.6); v >= m.VMin {
		t.Errorf("Voltage(0.6) = %v, want < VMin", v)
	}
	if v := m.Voltage(3.0); v <= m.VMax {
		t.Errorf("Voltage(3.0) = %v, want > VMax", v)
	}
}

func TestDynPowerSuperlinear(t *testing.T) {
	m := DefaultPowerModel()
	// f·V(f)² grows faster than linearly: doubling frequency from 1.2 to
	// 2.4 must more than double dynamic power.
	if m.DynW(2.4) <= 2*m.DynW(1.2) {
		t.Errorf("dynamic power not superlinear: %v vs 2x %v", m.DynW(2.4), m.DynW(1.2))
	}
}

// TestWattsMatchesCoreW holds the per-level table to the model's CoreW bit
// for bit, busy and idle: at every level of the default ladder, of
// a one-level ladder and of a twelve-level one (whose levels past the
// table's eight fall back), and at frequencies off the ladder (between and
// outside the levels, 0, NaN and +Inf), for the default model and another.
func TestWattsMatchesCoreW(t *testing.T) {
	other := DefaultPowerModel()
	other.LeakPerCoreW, other.IdleActivity, other.VMax = 0.45, 0.7, 1.3
	twelve := NewLadder([]Freq{0.8, 1.0, 1.2, 1.3, 1.4, 1.6, 1.8, 2.0, 2.2, 2.4, 2.7, 3.1})
	off := []Freq{0, 1.1, 1.25, 2.71, 3.5, Freq(math.NaN()), Freq(math.Inf(1)), Freq(math.Nextafter(1.2, 2))}
	for _, m := range []*PowerModel{DefaultPowerModel(), other} {
		for _, l := range []*Ladder{DefaultLadder(), NewLadder([]Freq{2.0}), twelve} {
			w := m.Watts(l)
			for _, f := range append(l.Levels(), off...) {
				for _, active := range []bool{true, false} {
					if got, want := w.CoreW(f, active), m.CoreW(f, active); math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("%v at %v GHz, active %v: table %v, the model %v", l, f, active, got, want)
					}
				}
			}
		}
	}
}

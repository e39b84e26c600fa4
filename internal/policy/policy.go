// Package policy implements the DVFS power-management schemes the paper
// evaluates (Table I, §VI): the no-management Baseline, the epoch-feedback
// Pegasus, the analytical per-arrival/departure Rubik, Gemini and its
// ablations Gemini-α and Gemini-95th, plus two extension baselines — an
// EETL-style PID threshold controller and a clairvoyant PACE-oracle lower
// bound. All policies drive a sim.Sim through its control surface.
package policy

import (
	"gemini/internal/cpu"
	"gemini/internal/sim"
)

// Baseline never manages power: the core stays at the default (maximum)
// frequency, as in the paper's baseline bars.
type Baseline struct{}

// Name implements sim.Policy.
func (Baseline) Name() string { return "Baseline" }

// Init implements sim.Policy.
func (Baseline) Init(s *sim.Sim) { s.SetFreq(cpu.FDefault) }

// OnArrival implements sim.Policy.
func (Baseline) OnArrival(*sim.Sim, *sim.Request) {}

// OnStart implements sim.Policy.
func (Baseline) OnStart(*sim.Sim, *sim.Request) {}

// OnDeparture implements sim.Policy.
func (Baseline) OnDeparture(*sim.Sim, *sim.Request) {}

// OnTimer implements sim.Policy.
func (Baseline) OnTimer(*sim.Sim, int64) {}

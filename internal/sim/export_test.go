package sim

// SetLinearEngine selects the reference linear-scan engine (true) or the
// heap queue (false) on cfg. The field is unexported so that nothing
// outside this package's tests can select the reference; this is the door
// for package sim_test, which has to be external to import internal/harness.
func SetLinearEngine(cfg *Config, linear bool) { cfg.linear = linear }

// PendingEvents is the number of planned changes and timers in s's event
// queue (the heap engine's; the reference engine does not use it).
func PendingEvents(s *Sim) int { return len(s.events.h) }

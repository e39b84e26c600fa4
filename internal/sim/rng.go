package sim

import "math/rand"

// Partitioned, per-subsystem RNG plumbing.
//
// The simulator historically carried one shared *rand.Rand per seeded entry
// point. That breaks down as subsystems multiply: with a single stream,
// adding one extra draw in the routing layer would shift every subsequent
// workload-generation draw, so turning a router on or off (or changing how
// often it tie-breaks randomly) would silently change which queries arrive
// and how much jitter they carry. PartitionedRNG gives each subsystem its own
// independently seeded stream, derived deterministically from one base seed,
// so draws in one subsystem can never perturb another's sequence — the
// property TestRNGStreamIsolation locks in.
//
// Backward compatibility is part of the contract: the workload stream is
// seeded with the base seed verbatim, so every pre-partitioning workload
// builder (BuildWorkload, BenchWorkload) reproduces its historical request
// sequences bit-for-bit (TestWorkloadStreamMatchesLegacy and the golden
// results in TestGoldenResultsUnchangedByRNGRefactor).
//
// This file is the only non-test file in internal/sim that constructs a raw
// rand.NewSource. A raw source anywhere else would quietly re-introduce a
// shared stream; TestBuildWorkloadUnchangedByRoutingDraws and
// TestObservedCellSinksGolden fail when one does.

// Subsystem names one independent random stream of a simulation run.
type Subsystem uint8

const (
	// SubsystemWorkload drives workload generation: query sampling and
	// per-request execution jitter. Its stream is seeded with the base seed
	// verbatim for bit-compatibility with the pre-partitioning builders.
	SubsystemWorkload Subsystem = iota
	// SubsystemRouting drives replica-selection draws in the cluster
	// topology layer (random tie-breaks in RouterPowerAware).
	SubsystemRouting
	// SubsystemSched is reserved for scheduler-side draws (e.g. randomized
	// policy perturbations); no production code draws from it yet, but the
	// stream's independence is already under test so adopting it later
	// cannot disturb existing sequences.
	SubsystemSched

	numSubsystems
)

// String returns the subsystem's stable name (used in tests and docs).
func (s Subsystem) String() string {
	switch s {
	case SubsystemWorkload:
		return "workload"
	case SubsystemRouting:
		return "routing"
	case SubsystemSched:
		return "sched"
	default:
		return "unknown"
	}
}

// PartitionedRNG derives one lazily-initialized *rand.Rand per subsystem from
// a single base seed. Streams are mutually independent: draws on one never
// advance another, and the per-subsystem seed derivation is a fixed function
// of (base seed, subsystem) so the same base seed always reproduces the same
// set of streams. Not safe for concurrent use — the simulator's determinism
// discipline confines each stream to one serial pass (workload build, routing
// pre-pass) anyway.
type PartitionedRNG struct {
	seed    int64
	streams [numSubsystems]*rand.Rand
}

// NewPartitionedRNG returns a partitioned RNG rooted at the base seed.
func NewPartitionedRNG(seed int64) *PartitionedRNG {
	return &PartitionedRNG{seed: seed}
}

// Seed returns the base seed the streams derive from.
func (p *PartitionedRNG) Seed() int64 { return p.seed }

// Stream returns the subsystem's RNG, creating it on first use.
func (p *PartitionedRNG) Stream(sub Subsystem) *rand.Rand {
	if sub >= numSubsystems {
		sub = numSubsystems - 1
	}
	if p.streams[sub] == nil {
		p.streams[sub] = rand.New(rand.NewSource(streamSeed(p.seed, sub)))
	}
	return p.streams[sub]
}

// Workload returns the workload-generation stream (query sampling + jitter).
func (p *PartitionedRNG) Workload() *rand.Rand { return p.Stream(SubsystemWorkload) }

// Routing returns the replica-selection stream.
func (p *PartitionedRNG) Routing() *rand.Rand { return p.Stream(SubsystemRouting) }

// Sched returns the reserved scheduler stream.
func (p *PartitionedRNG) Sched() *rand.Rand { return p.Stream(SubsystemSched) }

// streamSeed derives the subsystem's seed. The workload subsystem uses the
// base seed verbatim (bit-compatibility with the single-stream past); every
// other subsystem mixes the base seed with a subsystem-specific constant
// through a splitmix64 finalizer, so the derived seeds are decorrelated from
// the base seed and from each other even for adjacent base seeds.
func streamSeed(seed int64, sub Subsystem) int64 {
	if sub == SubsystemWorkload {
		return seed
	}
	x := uint64(seed) ^ (0x9E3779B97F4A7C15 * uint64(sub))
	// splitmix64 finalizer.
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	x ^= x >> 31
	return int64(x)
}

package sim

import (
	"math/rand"
	"testing"

	"gemini/internal/cpu"
)

// drawN advances the stream by n Float64 draws, returning the values.
func drawN(r *rand.Rand, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = r.Float64()
	}
	return out
}

// allSubsystems enumerates every partitioned stream under test.
var allSubsystems = []Subsystem{SubsystemWorkload, SubsystemRouting, SubsystemSched}

// TestRNGStreamIsolation is the stream-isolation contract: inserting or
// removing draws on one subsystem leaves every other subsystem's sequence
// bit-identical. Table-driven over (perturbed subsystem, number of extra
// draws) — including zero extra draws as the control row.
func TestRNGStreamIsolation(t *testing.T) {
	const seed = 12345
	const n = 64

	// Reference sequences: each subsystem drawn from a fresh PartitionedRNG
	// with no other subsystem touched at all.
	ref := map[Subsystem][]float64{}
	for _, sub := range allSubsystems {
		ref[sub] = drawN(NewPartitionedRNG(seed).Stream(sub), n)
	}

	for _, perturbed := range allSubsystems {
		for _, extra := range []int{0, 1, 7, 1000} {
			p := NewPartitionedRNG(seed)
			// Interleave: a burst of draws on the perturbed subsystem before
			// and between every other subsystem's draws.
			drawN(p.Stream(perturbed), extra)
			for _, sub := range allSubsystems {
				if sub == perturbed {
					continue
				}
				got := drawN(p.Stream(sub), n)
				drawN(p.Stream(perturbed), extra)
				for i := range got {
					if got[i] != ref[sub][i] {
						t.Fatalf("%v draws (%d) perturbed %v stream at index %d: %v != %v",
							perturbed, extra, sub, i, got[i], ref[sub][i])
					}
				}
			}
		}
	}
}

// TestRNGStreamsAreDistinct guards against two subsystems accidentally
// sharing a seed (which would make their sequences identical — independence
// in the aliasing sense, not the statistical one).
func TestRNGStreamsAreDistinct(t *testing.T) {
	for _, seed := range []int64{0, 1, 42, -7} {
		p := NewPartitionedRNG(seed)
		seqs := make([][]float64, len(allSubsystems))
		for i, sub := range allSubsystems {
			seqs[i] = drawN(p.Stream(sub), 16)
		}
		for i := 0; i < len(seqs); i++ {
			for j := i + 1; j < len(seqs); j++ {
				same := true
				for k := range seqs[i] {
					if seqs[i][k] != seqs[j][k] {
						same = false
						break
					}
				}
				if same {
					t.Errorf("seed %d: subsystems %v and %v produce identical streams",
						seed, allSubsystems[i], allSubsystems[j])
				}
			}
		}
	}
}

// TestRNGStreamStableAcrossCalls asserts Stream returns the same underlying
// generator on every call (lazily created once, then cached).
func TestRNGStreamStableAcrossCalls(t *testing.T) {
	p := NewPartitionedRNG(9)
	a := p.Routing()
	b := p.Stream(SubsystemRouting)
	if a != b {
		t.Fatal("Stream created a second generator for the same subsystem")
	}
	if p.Seed() != 9 {
		t.Fatalf("Seed() = %d", p.Seed())
	}
}

// TestWorkloadStreamMatchesLegacy pins the bit-compatibility contract: the
// workload subsystem's stream is the historical rand.New(rand.NewSource(seed))
// stream, verbatim. (Constructing the raw source here is fine — the geminivet
// rawsource ban exempts test files.)
func TestWorkloadStreamMatchesLegacy(t *testing.T) {
	for _, seed := range []int64{0, 1, 7, 42, -3} {
		legacy := rand.New(rand.NewSource(seed))
		got := NewPartitionedRNG(seed).Workload()
		for i := 0; i < 256; i++ {
			// Mix draw kinds the workload builders actually use.
			if l, g := legacy.Float64(), got.Float64(); l != g {
				t.Fatalf("seed %d: Float64 draw %d diverged", seed, i)
			}
			if l, g := legacy.ExpFloat64(), got.ExpFloat64(); l != g {
				t.Fatalf("seed %d: ExpFloat64 draw %d diverged", seed, i)
			}
			if l, g := legacy.Intn(97), got.Intn(97); l != g {
				t.Fatalf("seed %d: Intn draw %d diverged", seed, i)
			}
		}
	}
}

// Golden fingerprints captured from the pre-refactor single-RNG code (the
// commit preceding the PartitionedRNG migration). The refactor's contract is
// that every seeded workload build and every seeded policy run reproduces
// these numbers exactly.
var goldenBench = []struct {
	seed                       int64
	sumAt, sumW, lastAt, lastW float64
}{
	{1, 33641.749248902670, 1512.115393701901, 1386.412553108423, 39.155131528229},
	{7, 30034.698847441981, 1819.449121353171, 1052.885468621425, 56.270080997857},
	{42, 32308.516502755923, 1708.155353107028, 1290.158648064696, 36.677179025416},
}

var goldenRun = []struct {
	seed        int64
	events      uint64
	p95, energy float64
	violations  int
}{
	{1, 100, 30.470605146854, 3778.706954846494, 0},
	{7, 100, 60.240127177880, 3007.790764252692, 6},
	{42, 100, 40.041817184376, 3569.001965956658, 3},
}

var goldenCluster = []struct {
	seed        int64
	events      uint64
	p95, energy float64
}{
	{1, 80, 20.462542007558, 5867.731841389672},
	{7, 80, 20.236970266176, 4679.072868532885},
	{42, 80, 21.418311715505, 4926.124071143689},
}

func near(a, b float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d < 1e-9
}

// TestGoldenResultsUnchangedByRNGRefactor replays the pre-refactor golden
// runs: BenchWorkload streams, a seeded single-core Run, and a seeded
// RunClusterWorkers must all be unchanged by the PartitionedRNG migration.
func TestGoldenResultsUnchangedByRNGRefactor(t *testing.T) {
	for i, g := range goldenBench {
		wl := BenchWorkload(50, g.seed)
		var sumAt, sumW float64
		for _, r := range wl.Requests {
			sumAt += r.ArrivalMs
			sumW += float64(r.WorkTotal)
		}
		last := wl.Requests[len(wl.Requests)-1]
		if !near(sumAt, g.sumAt) || !near(sumW, g.sumW) ||
			!near(last.ArrivalMs, g.lastAt) || !near(float64(last.WorkTotal), g.lastW) {
			t.Errorf("BenchWorkload seed %d diverged from pre-refactor golden: sumAt=%.12f sumW=%.12f lastAt=%.12f lastW=%.12f",
				g.seed, sumAt, sumW, last.ArrivalMs, float64(last.WorkTotal))
		}

		gr := goldenRun[i]
		res := Run(DefaultConfig(), wl, &FixedPolicy{F: cpu.FDefault})
		if res.Events != gr.events || !near(res.TailLatencyMs(95), gr.p95) ||
			!near(res.EnergyMJ, gr.energy) || res.Violations != gr.violations {
			t.Errorf("Run seed %d diverged from pre-refactor golden: events=%d p95=%.12f energy=%.12f viol=%d",
				gr.seed, res.Events, res.TailLatencyMs(95), res.EnergyMJ, res.Violations)
		}

		gc := goldenCluster[i]
		wl2 := BenchWorkloadRate(40, g.seed, 10)
		cr := RunClusterWorkers(DefaultConfig(), wl2, 4, 1, func(int) Policy { return &FixedPolicy{F: cpu.FDefault} })
		if cr.Events != gc.events || !near(cr.TailLatencyMs(95), gc.p95) || !near(cr.EnergyMJ, gc.energy) {
			t.Errorf("RunClusterWorkers seed %d diverged from pre-refactor golden: events=%d p95=%.12f energy=%.12f",
				gc.seed, cr.Events, cr.TailLatencyMs(95), cr.EnergyMJ)
		}
	}
}

// TestBuildWorkloadUnchangedByRoutingDraws asserts the end-to-end property
// the partition exists for: building the same seeded workload is unaffected
// by any number of routing/sched draws taken from the same base seed's
// partitioned RNG (as the topology layer does during its routing pre-pass).
func TestBuildWorkloadUnchangedByRoutingDraws(t *testing.T) {
	baseline := BenchWorkload(100, 11)
	// Simulate a run that interleaves heavy routing and sched draws.
	p := NewPartitionedRNG(11)
	drawN(p.Routing(), 333)
	drawN(p.Sched(), 77)
	again := BenchWorkload(100, 11)
	for i := range baseline.Requests {
		a, b := baseline.Requests[i], again.Requests[i]
		if a.ArrivalMs != b.ArrivalMs || a.WorkTotal != b.WorkTotal {
			t.Fatalf("request %d diverged after routing draws", i)
		}
	}
}

package harness

import (
	"strings"
	"testing"
)

// TestCapacityReportWorkersIdentical extends the grids' contract to the
// topology sweep: the capacity report renders byte-identically at any
// GOMAXPROCS.
func TestCapacityReportWorkersIdentical(t *testing.T) {
	p := plat(t)
	spec := CapacitySpec{
		Shards:     2,
		Replicas:   []int{1, 2},
		EngineRPS:  []float64{40},
		CapsW:      []float64{0, 14},
		DurationMs: 2000,
		Seed:       5,
	}
	sameAtGOMAXPROCS(t, map[string]func(*testing.T) string{
		"capacity": func(t *testing.T) string {
			rep := mustCapacity(t, p, spec)
			if !strings.Contains(rep.String(), "p99 ms") || !strings.Contains(rep.String(), "throttles") {
				t.Fatalf("capacity report missing columns:\n%s", rep)
			}
			// 2 replicas × 1 rps × 2 caps = 4 rows.
			if len(rep.Rows) != 4 {
				t.Fatalf("capacity report has %d rows, want 4:\n%s", len(rep.Rows), rep)
			}
			return rep.String()
		},
	})
}

func TestCapacityReportDefaults(t *testing.T) {
	p := plat(t)
	rep := mustCapacity(t, p, CapacitySpec{Shards: 1, Replicas: []int{1}, EngineRPS: []float64{30}, DurationMs: 1500})
	if len(rep.Rows) != 1 {
		t.Fatalf("rows = %d", len(rep.Rows))
	}
	if rep.Rows[0][2] != "-" {
		t.Fatalf("uncapped cap cell = %q, want -", rep.Rows[0][2])
	}
}

func mustCapacity(t *testing.T, p *Platform, spec CapacitySpec) *Report {
	t.Helper()
	rep, err := p.CapacityReport(spec)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestCapacityReportRejectsUnknownRouter: a bad router name is an error, not
// a panic.
func TestCapacityReportRejectsUnknownRouter(t *testing.T) {
	if _, err := plat(t).CapacityReport(CapacitySpec{Router: "bogus", DurationMs: 100}); err == nil {
		t.Fatal("router \"bogus\" accepted")
	}
}

// TestTimelineSpecZeroIsCanonicalCell: the zero spec is the 8 × 3
// power-aware cell under the 40 W cap, for 3 s and unsampled; an explicit
// topology keeps CapW 0 = uncapped.
func TestTimelineSpecZeroIsCanonicalCell(t *testing.T) {
	var spec TimelineSpec
	spec.normalize()
	want := TimelineSpec{Shards: 8, Replicas: 3, Router: "power-aware", CapW: 40, DurationMs: 3000}
	if spec != want {
		t.Fatalf("zero spec normalises to %+v, want %+v", spec, want)
	}
	spec = TimelineSpec{Shards: 2}
	spec.normalize()
	if spec.Replicas != 1 || spec.CapW != 0 {
		t.Fatalf("explicit 2-shard spec normalises to %+v, want 1 replica, uncapped", spec)
	}
}

// TestCellSamplingMovesOnlyEvents runs one cell with and without the
// timeline sampler: the summary (but for its events column) and the
// exposition must not move, and the sampled run must add exactly one event
// per sample tick per replica core.
func TestCellSamplingMovesOnlyEvents(t *testing.T) {
	p := plat(t)
	spec := TimelineSpec{Shards: 2, Replicas: 2, CapW: 14, DurationMs: 2000}
	plain, err := p.CellReport(spec)
	if err != nil {
		t.Fatal(err)
	}
	spec.SampleIntervalMs = 100
	sampled, err := p.CellReport(spec)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Timeline != nil || plain.Series != nil {
		t.Fatal("unsampled cell carries a timeline")
	}
	if sampled.Timeline == nil || sampled.Series.Len() == 0 {
		t.Fatal("sampled cell has no timeline rows")
	}
	if plain.Exposition != sampled.Exposition || !strings.Contains(plain.Exposition, "gemini_cluster_route_total") {
		t.Fatalf("exposition moved with the sampler:\n--- plain\n%s\n--- sampled\n%s", plain.Exposition, sampled.Exposition)
	}
	last := len(plain.Summary.Header) - 1
	a, b := plain.Summary.Rows[0], sampled.Summary.Rows[0]
	if strings.Join(a[:last], " ") != strings.Join(b[:last], " ") {
		t.Fatalf("summary moved with the sampler:\n%v\n%v", a, b)
	}
	ticks := uint64(sampled.Series.Len() * spec.Shards * spec.Replicas)
	if sampled.Res.Events-plain.Res.Events != ticks {
		t.Fatalf("sampler added %d events, want %d", sampled.Res.Events-plain.Res.Events, ticks)
	}
}

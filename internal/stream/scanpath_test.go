package stream

import (
	"math/rand"
	"reflect"
	"testing"

	"netplace/internal/core"
	"netplace/internal/gen"
	"netplace/internal/workload"
)

// gridInstance builds an integer-distance fixture (unit-weight grid) so
// every metric value is exact in float64: accounting on any backend, in
// either query orientation, must then agree bit for bit.
func gridInstance(t *testing.T, side, objects int, seed int64) *core.Instance {
	t.Helper()
	g := gen.Grid(side, side, gen.UnitWeights)
	n := g.N()
	rng := rand.New(rand.NewSource(seed))
	storage := make([]float64, n)
	for v := range storage {
		storage[v] = float64(2 + rng.Intn(4))
	}
	objs := workload.Generate(n, workload.Spec{
		Objects: objects, MeanRate: 4, WriteFraction: 0.15, ZipfS: 0.6,
	}, rng)
	in, err := core.NewInstance(g, storage, objs)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// When the live copy set outgrows the lazy oracle's row budget the engine
// switches the nearest-copy accounting from per-copy point queries to a
// truncated outward scan from the event node (and migration pricing
// likewise). On an integer-distance network the scan path must reproduce
// the dense point-query run exactly: same stats, same reports, same
// placements — the regime split may only change what the accounting
// costs, never what it says.
func TestNearestCopyScanPathMatchesPointQueries(t *testing.T) {
	const side, objects = 9, 3
	mkTrace := func() []workload.Request {
		rng := rand.New(rand.NewSource(9))
		return workload.Sequence(gridInstance(t, side, objects, 5).Objects, 4*48, rng)
	}
	run := func(backend core.MetricBackend, rows int) (Stats, core.Placement, []EpochReport) {
		in := gridInstance(t, side, objects, 5)
		in.UseMetric(backend, rows)
		eng := New(in, Config{Epoch: 48, Window: 2})
		var reps []EpochReport
		for _, r := range mkTrace() {
			rep, err := eng.Observe(r)
			if err != nil {
				t.Fatal(err)
			}
			if rep != nil {
				reps = append(reps, *rep)
			}
		}
		return eng.Stats(), eng.Placement(), reps
	}

	// Row budget 2: any copy set of 3+ takes the scan path on the lazy
	// backend; the dense backend always point-queries.
	wantStats, wantPlace, wantReps := run(core.MetricDense, 0)
	gotStats, gotPlace, gotReps := run(core.MetricLazy, 2)

	maxCopies := 0
	for _, cs := range wantPlace.Copies {
		if len(cs) > maxCopies {
			maxCopies = len(cs)
		}
	}
	if maxCopies <= 2 {
		t.Fatalf("fixture never exceeded the row budget (max copy set %d); the scan path was not exercised", maxCopies)
	}
	if !reflect.DeepEqual(gotStats, wantStats) {
		t.Fatalf("scan-path stats diverged:\n lazy  %+v\n dense %+v", gotStats, wantStats)
	}
	if !reflect.DeepEqual(gotPlace, wantPlace) {
		t.Fatalf("scan-path placements diverged: %v vs %v", gotPlace.Copies, wantPlace.Copies)
	}
	if !reflect.DeepEqual(gotReps, wantReps) {
		t.Fatalf("scan-path epoch reports diverged:\n lazy  %+v\n dense %+v", gotReps, wantReps)
	}
}

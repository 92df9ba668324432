package stream

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"testing"

	"netplace/internal/core"
	"netplace/internal/gen"
	"netplace/internal/graph"
	"netplace/internal/workload"
)

// driftRun replays a drifting-hotspot trace (Drift, three phases) through
// an engine whose closes place their changed objects on width
// goroutines, ending with a Flush of the partial last epoch, and returns
// every epoch report plus the final Stats, Placement and State as JSON.
func driftRun(t *testing.T, tree bool, backend core.MetricBackend, rows int, cfg Config, width int) []byte {
	t.Helper()
	rng := rand.New(rand.NewSource(23))
	var g *graph.Graph
	if tree {
		g = gen.RandomTree(40, rng, gen.UnitWeights)
	} else {
		g = gen.Grid(6, 7, gen.UnitWeights)
	}
	n := g.N()
	storage := make([]float64, n)
	for v := range storage {
		storage[v] = float64(2 + rng.Intn(5))
	}
	avg, seq := Drift(n, 3, 6*cfg.Epoch+cfg.Epoch/3, rng, func(phase int) []core.Object {
		return workload.Generate(n, workload.Spec{
			Objects: 5, MeanRate: 3, WriteFraction: 0.15, ZipfS: 0.8,
			Hotspot: 0.7, HotspotNodes: 4,
		}, rand.New(rand.NewSource(int64(100+phase))))
	})
	in, err := core.NewInstance(g, storage, avg)
	if err != nil {
		t.Fatal(err)
	}
	in.UseMetric(backend, rows)
	eng := New(in, cfg)
	eng.SetWorkers(width)
	var reps []EpochReport
	for _, r := range seq {
		rep, err := eng.Observe(r)
		if err != nil {
			t.Fatal(err)
		}
		if rep != nil {
			reps = append(reps, *rep)
		}
	}
	if rep := eng.Flush(); rep != nil {
		reps = append(reps, *rep)
	}
	// The width only matters when a close re-solves several objects.
	if st := eng.Stats(); len(reps) < 4 || st.Resolves < 2*len(reps) {
		t.Fatalf("trace closed %d epochs re-solving %d objects; want several objects per close", len(reps), st.Resolves)
	}
	buf, err := json.Marshal(struct {
		Reports   []EpochReport
		State     *EngineState
		Stats     Stats
		Placement [][]int
	}{reps, eng.State(), eng.Stats(), eng.Placement().Copies})
	if err != nil {
		t.Fatal(err)
	}
	return buf
}

// TestEpochCloseWidthIndependent: a close places its changed objects on
// Solve.Workers goroutines, and the width changes nothing. Every
// EpochReport, the Stats, the Placement and State() are byte-identical at
// widths 1, 2, 4, 8 and 0 (GOMAXPROCS), on Dense, on Lazy with an
// evicting row budget and on Tree, under both estimators, through a final
// Flush.
func TestEpochCloseWidthIndependent(t *testing.T) {
	fixtures := []struct {
		name    string
		tree    bool
		backend core.MetricBackend
		rows    int
	}{
		{"dense", false, core.MetricDense, 0},
		{"lazy-4-rows", false, core.MetricLazy, 4},
		{"tree", true, core.MetricTree, 0},
	}
	estimators := []struct {
		name string
		cfg  Config
	}{
		{"window", Config{Epoch: 48, Window: 2}},
		{"ewma", Config{Epoch: 48, Alpha: 0.5}},
	}
	for _, fx := range fixtures {
		for _, est := range estimators {
			want := driftRun(t, fx.tree, fx.backend, fx.rows, est.cfg, 1)
			for _, width := range []int{2, 4, 8, 0} {
				if got := driftRun(t, fx.tree, fx.backend, fx.rows, est.cfg, width); !bytes.Equal(got, want) {
					t.Fatalf("%s/%s: width %d diverged from serial:\n%s\nserial:\n%s", fx.name, est.name, width, got, want)
				}
			}
		}
	}
}

package core

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"netplace/internal/facility"
	"netplace/internal/gen"
	"netplace/internal/graph"
	"netplace/internal/metric"
)

// intWeightInstance builds a random instance whose edge weights and fees
// are small integers, so shortest-path and cost sums are exact in float64
// and backend equivalence can be asserted bit-for-bit.
func intWeightInstance(rng *rand.Rand, n, objects int, tree bool) *Instance {
	w := func(u, v int) float64 { return float64(1 + rng.Intn(9)) }
	var g *graph.Graph
	if tree {
		g = gen.RandomTree(n, rng, w)
	} else {
		g = gen.RandomTree(n, rng, w)
		for e := 0; e < n/2; e++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v {
				g.AddEdge(u, v, w(u, v))
			}
		}
	}
	storage := make([]float64, n)
	for v := range storage {
		storage[v] = float64(rng.Intn(25))
	}
	objs := make([]Object, objects)
	for i := range objs {
		objs[i] = Object{Reads: make([]int64, n), Writes: make([]int64, n)}
		for v := 0; v < n; v++ {
			if rng.Float64() < 0.8 {
				objs[i].Reads[v] = rng.Int63n(8)
			}
			if rng.Float64() < 0.4 {
				objs[i].Writes[v] = rng.Int63n(4)
			}
		}
	}
	return MustInstance(g, storage, objs)
}

// instanceBackends lists the backends valid for the instance's network.
func instanceBackends(tree bool) []MetricBackend {
	if tree {
		return []MetricBackend{MetricDense, MetricLazy, MetricTree}
	}
	return []MetricBackend{MetricDense, MetricLazy}
}

// TestBackendPlacementEquivalence is the tentpole's contract: the paper's
// algorithm and every baseline must produce identical placements and costs
// whichever oracle backend serves the metric.
func TestBackendPlacementEquivalence(t *testing.T) {
	strategies := map[string]func(*Instance) Placement{
		"approximate":    func(in *Instance) Placement { return Approximate(in, Options{Workers: 1}) },
		"approx-mp":      func(in *Instance) Placement { return Approximate(in, Options{Workers: 1, FL: facility.MettuPlaxton}) },
		"approx-greedy":  func(in *Instance) Placement { return Approximate(in, Options{Workers: 1, FL: facility.Greedy}) },
		"approx-jv":      func(in *Instance) Placement { return Approximate(in, Options{Workers: 1, FL: facility.JainVazirani}) },
		"single-best":    SingleBest,
		"greedy-add":     GreedyAdd,
		"facility-only":  func(in *Instance) Placement { return FacilityOnly(in, nil) },
		"full-replicate": FullReplication,
	}
	for seed := int64(0); seed < 6; seed++ {
		for _, tree := range []bool{false, true} {
			rng := rand.New(rand.NewSource(seed))
			n := 8 + rng.Intn(18)
			nobj := 1 + rng.Intn(3)
			for name, strat := range strategies {
				var want Placement
				var wantCost Breakdown
				for i, b := range instanceBackends(tree) {
					// Fresh instance per backend so no state leaks between
					// oracle implementations.
					in := intWeightInstance(rand.New(rand.NewSource(seed)), n, nobj, tree)
					in.UseMetric(b, 3) // tiny lazy cache: eviction must not change results
					got := strat(in)
					cost := in.Cost(got)
					if i == 0 {
						want, wantCost = got, cost
						continue
					}
					if !reflect.DeepEqual(got.Copies, want.Copies) {
						t.Fatalf("seed %d tree=%v %s: backend %v placement %v, dense %v",
							seed, tree, name, b, got.Copies, want.Copies)
					}
					if cost != wantCost {
						t.Fatalf("seed %d tree=%v %s: backend %v cost %+v, dense %+v",
							seed, tree, name, b, cost, wantCost)
					}
				}
			}
		}
	}
}

// TestBackendRestrictedEquivalence covers the Lemma 1 machinery and the
// proper-placement report across backends.
func TestBackendRestrictedEquivalence(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		for _, tree := range []bool{false, true} {
			rng := rand.New(rand.NewSource(seed))
			n := 6 + rng.Intn(14)
			k := 2 + rng.Intn(n-1)
			copies := rng.Perm(n)[:k]
			var wantRes []int
			var wantServe []int64
			var wantProper ProperReport
			for i, b := range instanceBackends(tree) {
				in := intWeightInstance(rand.New(rand.NewSource(seed)), n, 1, tree)
				in.UseMetric(b, 3)
				obj := &in.Objects[0]
				res := MakeRestricted(in, obj, copies)
				serve := in.ServeCounts(obj, copies)
				proper := in.CheckProper(obj, copies)
				if i == 0 {
					wantRes, wantServe, wantProper = res, serve, proper
					continue
				}
				if !reflect.DeepEqual(res, wantRes) {
					t.Fatalf("seed %d tree=%v: MakeRestricted backend %v = %v, dense %v", seed, tree, b, res, wantRes)
				}
				if !reflect.DeepEqual(serve, wantServe) {
					t.Fatalf("seed %d tree=%v: ServeCounts backend %v diverged", seed, tree, b)
				}
				if proper != wantProper {
					t.Fatalf("seed %d tree=%v: CheckProper backend %v = %+v, dense %+v", seed, tree, b, proper, wantProper)
				}
			}
		}
	}
}

// TestMetricOptionOverride checks Options.Metric installs the requested
// backend and MetricAuto respects the instance's own choice.
func TestMetricOptionOverride(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	in := intWeightInstance(rng, 12, 1, false)
	Approximate(in, Options{Workers: 1, Metric: MetricLazy, MetricRows: 4})
	if in.Metric().Kind() != metric.KindLazy {
		t.Fatalf("Options.Metric did not install the lazy backend (got %v)", in.Metric().Kind())
	}
	// Auto keeps the installed backend.
	Approximate(in, Options{Workers: 1})
	if in.Metric().Kind() != metric.KindLazy {
		t.Fatal("MetricAuto overrode an explicitly selected backend")
	}
	// Explicit dense replaces it.
	Approximate(in, Options{Workers: 1, Metric: MetricDense})
	if in.Metric().Kind() != metric.KindDense {
		t.Fatal("Options.Metric dense did not replace the lazy backend")
	}
	// An explicit MetricRows differing from the installed lazy budget must
	// rebuild the oracle so the cache cap actually applies.
	Approximate(in, Options{Workers: 1, Metric: MetricLazy, MetricRows: 4})
	Approximate(in, Options{Workers: 1, Metric: MetricLazy, MetricRows: 8})
	if l, ok := in.Metric().(*metric.Lazy); !ok || l.Budget() != 8 {
		t.Fatalf("MetricRows change ignored: %T budget %v", in.Metric(), in.Metric())
	}
	// MetricRows 0 keeps the installed lazy oracle (and its budget).
	Approximate(in, Options{Workers: 1, Metric: MetricLazy})
	if l, ok := in.Metric().(*metric.Lazy); !ok || l.Budget() != 8 {
		t.Fatal("MetricRows 0 should keep the installed lazy oracle")
	}
}

// TestAutoBackendSelection checks the size/shape rules of MetricAuto.
func TestAutoBackendSelection(t *testing.T) {
	small := intWeightInstance(rand.New(rand.NewSource(2)), 30, 1, false)
	if small.Metric().Kind() != metric.KindDense {
		t.Fatalf("small network auto-selected %v, want dense", small.Metric().Kind())
	}
	bigTree := MustInstance(
		gen.KaryTree(DenseMetricMaxNodes+10, 3, gen.UnitWeights),
		make([]float64, DenseMetricMaxNodes+10),
		nil)
	if bigTree.Metric().Kind() != metric.KindTree {
		t.Fatalf("large tree auto-selected %v, want tree", bigTree.Metric().Kind())
	}
	big := MustInstance(
		gen.Grid(60, 40, gen.UnitWeights), // 2400 > DenseMetricMaxNodes
		make([]float64, 2400),
		nil)
	if big.Metric().Kind() != metric.KindLazy {
		t.Fatalf("large network auto-selected %v, want lazy", big.Metric().Kind())
	}
}

// TestLazySolve50k is the acceptance bar of the oracle refactor: the
// paper's algorithm completes on a 50k+-node sparse network with the lazy
// backend, without ever materializing the Θ(n²) all-pairs matrix (which
// would be ~20 GB here). Peak metric memory is bounded by the row-cache
// budget.
func TestLazySolve50k(t *testing.T) {
	if testing.Short() {
		t.Skip("50k-node solve in -short mode")
	}
	const side = 224 // 50176 nodes
	g := gen.Grid(side, side, gen.UnitWeights)
	n := g.N()
	storage := make([]float64, n)
	for v := range storage {
		storage[v] = float64(3 + v%5)
	}
	obj := Object{Reads: make([]int64, n), Writes: make([]int64, n)}
	for v := 0; v < n; v++ {
		obj.Reads[v] = 1 // a CDN-like read floor keeps payment balls local
		if v%1201 == 0 {
			obj.Writes[v] = 1 // sparse writers: W = 42
		}
	}
	in := MustInstance(g, storage, []Object{obj})
	p := Approximate(in, Options{Metric: MetricLazy, MetricRows: 64})

	if in.Metric().Kind() != metric.KindLazy {
		t.Fatalf("solve ran on %v backend, want lazy", in.Metric().Kind())
	}
	copies := p.Copies[0]
	if len(copies) == 0 || len(copies) == n {
		t.Fatalf("degenerate placement: %d copies", len(copies))
	}
	// Spot-check the proper-placement property on sampled nodes: every node
	// has a copy within a small multiple of max(rs, rw) (Lemma 8 bounds the
	// full sweep; sampling keeps the test cheap).
	o := in.Metric()
	near := metric.NearestOf(o, copies)
	req := obj.Requests()
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 32; i++ {
		v := rng.Intn(n)
		rad := metric.AvgDist(o, req, v, 42) // d(v, W) = rw(v)
		// rs(v) <= cs(v) here (zs >= 2 because every node reads), so
		// 64 * max(rw, cs) comfortably dominates the Lemma 8 k1 = 29 bound.
		bound := 64 * math.Max(rad, float64(3+v%5))
		if near[v] > bound {
			t.Fatalf("node %d: nearest copy at %v, beyond Lemma-8-style bound %v", v, near[v], bound)
		}
	}
	t.Logf("50k lazy solve: %d copies placed", len(copies))
}

package core

import (
	"math/rand"
	"os"
	"reflect"
	"runtime"
	"strconv"
	"sync"
	"testing"

	"netplace/internal/facility"
	"netplace/internal/gen"
	"netplace/internal/graph"
	"netplace/internal/metric"
)

// Object-level parallelism must be exact: same placements as sequential.
func TestApproximateParallelMatchesSequential(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		in := randomCoreInstance(rng, 14, 6, 0.4)
		seq := Approximate(in, Options{Workers: 1})
		// Workers 0 defaults to GOMAXPROCS (parallel), like negative values.
		for _, workers := range []int{0, 2, 4, -1} {
			par := Approximate(in, Options{Workers: workers})
			if !reflect.DeepEqual(seq.Copies, par.Copies) {
				t.Fatalf("seed %d workers %d: parallel diverged: %v vs %v",
					seed, workers, par.Copies, seq.Copies)
			}
		}
	}
}

// solveObjectAt places one object with its per-node scans sharded across
// width goroutines: the test seam past the size rule, which keeps every
// instance here below its threshold serial.
func solveObjectAt(in *Instance, obj *Object, opt Options, width int) []int {
	ws := solvePool.Get().(*solveWS)
	defer putSolveWS(ws)
	return approximateObject(in, obj, opt, ws, width)
}

// Sharded solves must be exact: a solve sharded across any number of
// workers is byte-identical to the serial solve, on every oracle backend
// (the sharded scans write disjoint per-node results whose values do not
// depend on the schedule).
func TestIntraSolveParallelMatchesSerial(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		for _, tree := range []bool{false, true} {
			rng := rand.New(rand.NewSource(seed))
			n := 10 + rng.Intn(30)
			nobj := 1 + rng.Intn(3)
			for _, b := range instanceBackends(tree) {
				in := intWeightInstance(rand.New(rand.NewSource(seed)), n, nobj, tree)
				in.UseMetric(b, 3)
				serial := Approximate(in, Options{Workers: 1})
				for _, width := range []int{2, 4, 8, runtime.GOMAXPROCS(0)} {
					got := approximate(in, Options{Workers: 1}, width)
					if !reflect.DeepEqual(got.Copies, serial.Copies) {
						t.Fatalf("seed %d tree=%v backend %v width %d: %v vs serial %v",
							seed, tree, b, width, got.Copies, serial.Copies)
					}
					// Object fan-out and sharding must compose without
					// changing output.
					both := approximate(in, Options{Workers: 2}, width)
					if !reflect.DeepEqual(both.Copies, serial.Copies) {
						t.Fatalf("seed %d tree=%v backend %v workers 2 x width %d diverged",
							seed, tree, b, width)
					}
				}
			}
		}
	}
}

// The Mettu–Plaxton phase-1 solver is the one that shards its own radius
// scans; pin it explicitly at higher write pressure so the sharded FL
// path is exercised even on instances small enough to auto-select local
// search.
func TestIntraSolveParallelMettuPlaxton(t *testing.T) {
	for seed := int64(10); seed < 14; seed++ {
		rng := rand.New(rand.NewSource(seed))
		in := randomCoreInstance(rng, 40, 3, 0.6)
		in.UseMetric(MetricLazy, 8)
		serial := Approximate(in, Options{Workers: 1, FL: facility.MettuPlaxton})
		for _, width := range []int{2, 8} {
			got := approximate(in, Options{Workers: 1, FL: facility.MettuPlaxton}, width)
			if !reflect.DeepEqual(got.Copies, serial.Copies) {
				t.Fatalf("seed %d width %d: Mettu–Plaxton sharded solve diverged", seed, width)
			}
		}
	}
}

// testWidth is the shard count the concurrency hammer forces. The CI race
// lane raises it via NETPLACE_TEST_PARALLEL so the sharded scans run
// wider than the default under the race detector.
func testWidth() int {
	if v, err := strconv.Atoi(os.Getenv("NETPLACE_TEST_PARALLEL")); err == nil && v > 0 {
		return v
	}
	return 4
}

// TestConcurrentShardedSolvesRace hammers one shared lazy oracle with
// concurrent single-object solves, each sharded testWidth() ways, so the
// sharded radius scans of different solves overlap on the row cache and
// its evictions. Run with -race; every placement must also match the
// serial solve.
func TestConcurrentShardedSolvesRace(t *testing.T) {
	width := testWidth()
	in := intWeightInstance(rand.New(rand.NewSource(31)), 400, 3, false)
	in.UseMetric(MetricLazy, 16)
	opt := Options{FL: facility.MettuPlaxton}
	serial := make([][]int, len(in.Objects))
	for i := range in.Objects {
		serial[i] = solveObjectAt(in, &in.Objects[i], opt, 1)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < 2*len(serial); k++ {
				i := (g + k) % len(serial)
				if got := solveObjectAt(in, &in.Objects[i], opt, width); !reflect.DeepEqual(got, serial[i]) {
					t.Errorf("goroutine %d object %d width %d: %v vs serial %v", g, i, width, got, serial[i])
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestAllPairsParallelMatchesSequential(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := gen.ErdosRenyi(40, 0.15, rng, gen.UniformWeights(rng, 1, 9))
		want := g.AllPairs()
		for _, workers := range []int{2, 3, 0} {
			got := g.AllPairsParallel(workers)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d workers %d: parallel APSP differs", seed, workers)
			}
		}
	}
}

// Concurrent first use of the distance oracle must be race-free and
// build it once (run with -race).
func TestDistConcurrentInit(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	in := randomCoreInstance(rng, 20, 1, 0.3)
	done := make(chan metric.Oracle, 8)
	for k := 0; k < 8; k++ {
		go func() { done <- in.Metric() }()
	}
	first := <-done
	for k := 1; k < 8; k++ {
		if other := <-done; other != first {
			t.Fatal("concurrent Metric() built distinct oracles")
		}
	}
}

// cdnInstance is the CDN-like fixture of the large-instance tests on
// network g: storage fees 3–7, every node reads once (so payment balls
// stay local), and writers sit on the residue class of writeStride.
func cdnInstance(g *graph.Graph, writeStride int) *Instance {
	n := g.N()
	storage := make([]float64, n)
	for v := range storage {
		storage[v] = float64(3 + v%5)
	}
	obj := Object{Reads: make([]int64, n), Writes: make([]int64, n)}
	for v := 0; v < n; v++ {
		obj.Reads[v] = 1
		if v%writeStride == 0 {
			obj.Writes[v] = 1
		}
	}
	return MustInstance(g, storage, []Object{obj})
}

// large50k builds the 50k-node sparse fixture of the sharding-equivalence
// property test on the requested backend: the sparse-grid acceptance
// topology for the lazy oracle, a random integer-weight tree of the same
// size for the tree oracle (the dense backend is excluded — Θ(n²) memory).
// Writers sit on a sparse residue class, so a solve is heavy enough for
// the sharded kernels to matter without making the test minutes long.
func large50k(t *testing.T, backend MetricBackend) *Instance {
	t.Helper()
	const side = 224 // 50176 nodes
	var g *graph.Graph
	switch backend {
	case MetricLazy:
		g = gen.Grid(side, side, gen.UnitWeights)
	case MetricTree:
		rng := rand.New(rand.NewSource(77))
		g = gen.RandomTree(side*side, rng, func(u, v int) float64 { return float64(1 + rng.Intn(5)) })
	default:
		t.Fatalf("large50k: unsupported backend %v", backend)
	}
	in := cdnInstance(g, 1201)
	in.UseMetric(backend, 64)
	return in
}

// solveAtOneProc solves with GOMAXPROCS pinned to 1, where the size rule
// resolves every sharded scan to a single goroutine: the serial reference.
func solveAtOneProc(in *Instance, opt Options) Placement {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	return Approximate(in, opt)
}

// At 50k nodes the size rule shards every object's solve across
// GOMAXPROCS goroutines. The ambient schedule and explicit widths must
// place byte-identically to the serial solve at GOMAXPROCS 1, on both
// large-instance backends: the rule may only change the schedule, never
// the placement.
func TestParallel50kByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("50k-node solves in -short mode")
	}
	for _, backend := range []MetricBackend{MetricLazy, MetricTree} {
		in := large50k(t, backend)
		serial := solveAtOneProc(in, Options{Workers: 1})
		if got := Approximate(in, Options{Workers: 1}); !reflect.DeepEqual(got.Copies, serial.Copies) {
			t.Fatalf("backend %v: ambient schedule diverged from serial", backend)
		}
		for _, width := range []int{2, 4} {
			got := approximate(in, Options{Workers: 1}, width)
			if !reflect.DeepEqual(got.Copies, serial.Copies) {
				t.Fatalf("backend %v width %d: placement diverged from serial", backend, width)
			}
		}
	}
}

// The size rule alone decides how many goroutines share one object's
// solve: one below metric.AutoParallelMinNodes (16384) nodes, GOMAXPROCS
// at or above. The solve pipeline hands that width to phase 1.
func TestEffectiveParallelAutoPolicy(t *testing.T) {
	if metric.AutoParallelMinNodes != 16384 {
		t.Fatalf("AutoParallelMinNodes = %d, want 16384", metric.AutoParallelMinNodes)
	}
	procs := runtime.GOMAXPROCS(0)
	cases := []struct{ rows, cols, want int }{{127, 129, 1}, {128, 128, procs}}
	for _, c := range cases {
		n := c.rows * c.cols
		if got := metric.AutoWorkers(0, n); got != c.want {
			t.Fatalf("AutoWorkers(0, %d) = %d, want %d", n, got, c.want)
		}
	}
	if testing.Short() {
		t.Skip("16k-node solves in -short mode")
	}
	for _, c := range cases {
		in := cdnInstance(gen.Grid(c.rows, c.cols, gen.UnitWeights), 1201)
		in.UseMetric(MetricLazy, 64)
		ws := solvePool.Get().(*solveWS)
		approximateObject(in, &in.Objects[0], Options{}, ws, 0)
		got := ws.fl.Parallel
		putSolveWS(ws)
		if got != c.want {
			t.Fatalf("%d-node solve sharded %d ways, want %d", in.N(), got, c.want)
		}
	}
}

// Package benchkit builds the shared fixtures of the kernel benchmarks,
// so the in-tree benchmarks (bench_test.go) and the CI trajectory gate
// (cmd/benchreport, BENCH_PR3.json) measure exactly the same workload —
// a fixture tuned in one place cannot silently diverge from the other.
package benchkit

import (
	"fmt"
	"math/rand"

	"netplace/internal/core"
	"netplace/internal/gen"
	"netplace/internal/workload"
)

// ResidentInstance is the canonical resident-solve fixture: a 2500-node
// unit-weight grid with clustered Zipf demand and a lazy oracle bounded to
// 64 rows — the steady-state shape of a placement-service instance. The
// oracle is selected but not warmed; benchmarks warm it outside their
// timed loops.
func ResidentInstance(objects int) *core.Instance {
	rng := rand.New(rand.NewSource(41))
	g := gen.Grid(50, 50, gen.UnitWeights)
	n := g.N()
	storage := make([]float64, n)
	for v := range storage {
		storage[v] = 2 + rng.Float64()*6
	}
	objs := workload.Generate(n, workload.Spec{Objects: objects, MeanRate: 3, WriteFraction: 0.25, ZipfS: 0.8}, rng)
	in := core.MustInstance(g, storage, objs)
	in.UseMetric(core.MetricLazy, 64)
	return in
}

// LargeInstance is the 50k-node tier fixture: the PR 1 sparse-grid
// acceptance topology (a 224×224 unit-weight grid, 50176 nodes) with a
// CDN-like demand shape — every node reads once, so payment balls stay
// local, and each object has sparse writers on its own residue class
// (W = 42 per object). It is past metric.AutoParallelMinNodes, so every
// solve of it shards across GOMAXPROCS goroutines: the size at which the
// sharded and batched kernels are expected to pay, and whose serial
// twins run at GOMAXPROCS 1. The lazy oracle is bounded to 64 rows as in
// the acceptance test.
func LargeInstance(objects int) *core.Instance {
	const side = 224 // 50176 nodes
	g := gen.Grid(side, side, gen.UnitWeights)
	n := g.N()
	storage := make([]float64, n)
	for v := range storage {
		storage[v] = float64(3 + v%5)
	}
	objs := make([]core.Object, objects)
	for k := range objs {
		obj := core.Object{Name: fmt.Sprintf("obj%d", k), Reads: make([]int64, n), Writes: make([]int64, n)}
		for v := 0; v < n; v++ {
			obj.Reads[v] = 1
			if (v+k*601)%1201 == 0 {
				obj.Writes[v] = 1
			}
		}
		objs[k] = obj
	}
	in := core.MustInstance(g, storage, objs)
	in.UseMetric(core.MetricLazy, 64)
	return in
}

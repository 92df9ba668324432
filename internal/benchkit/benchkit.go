// Package benchkit holds the shared fixtures and kernel bodies of the
// kernel benchmarks, so the in-tree benchmarks (bench_test.go) and the
// CI trajectory gate (cmd/benchreport, BENCH_PR3.json) measure exactly
// the same workload — a fixture or kernel tuned in one place cannot
// silently diverge from the other.
package benchkit

import (
	"fmt"
	"math/rand"
	"testing"

	"netplace/internal/core"
	"netplace/internal/gen"
	"netplace/internal/metric"
	"netplace/internal/stream"
	"netplace/internal/workload"
)

// sink defeats dead-code elimination in the kernels.
var sink float64

// Solve is the resident-solve kernel: one op re-solves a warm instance
// built by mk with the given object count, so the oracle is already
// built and the numbers isolate the solve pipeline itself (facility
// location, radii, phases, scratch).
func Solve(mk func(objects int) *core.Instance, objects int, opts core.Options) func(b *testing.B) {
	return func(b *testing.B) {
		in := mk(objects)
		core.Approximate(in, opts) // warm oracle and pools
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p := core.Approximate(in, opts)
			sink += float64(len(p.Copies[0]))
		}
	}
}

// ObjectCost is the resident object-cost kernel: one op prices one
// placement on the warm one-object ResidentInstance — the kernel behind
// cost evaluation and what-if splicing.
func ObjectCost(b *testing.B) {
	in := ResidentInstance(1)
	p := core.Approximate(in, core.Options{})
	obj := &in.Objects[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink += in.ObjectCost(obj, p.Copies[0]).Total()
	}
}

// NearestOf is the resident multi-source sweep kernel that underlies
// cost evaluation and the phase machinery: the allocation-free Into form
// with a reused buffer, over the solved copy set of the warm one-object
// ResidentInstance.
func NearestOf(b *testing.B) {
	in := ResidentInstance(1)
	p := core.Approximate(in, core.Options{})
	o := in.Metric()
	dst := make([]float64, in.N())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink += metric.NearestOfInto(o, p.Copies[0], dst)[0]
	}
}

// StreamEpoch is the streaming-epoch kernel over the fixture mk builds:
// one op is one full epoch, 512 Observe calls (exact accounting against
// the warm oracle) plus the epoch close (estimate roll, incremental
// re-solve of the changed objects with opts, hysteresis).
func StreamEpoch(opts core.Options, mk func(objects int) *core.Instance, objects int) func(b *testing.B) {
	return func(b *testing.B) {
		in := mk(objects)
		rng := rand.New(rand.NewSource(7))
		const epoch = 512
		seq := workload.Sequence(in.Objects, epoch*64, rng)
		eng := stream.New(in, stream.Config{Epoch: epoch, Window: 4, Solve: opts})
		feed := func(k int) {
			for i := 0; i < epoch; i++ {
				if _, err := eng.Observe(seq[(k*epoch+i)%len(seq)]); err != nil {
					b.Fatal(err)
				}
			}
		}
		feed(0) // warm: the first epoch close adopts the initial placement
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			feed(i + 1)
		}
		sink += eng.Stats().Total()
	}
}

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

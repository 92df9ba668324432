// Benchmarks regenerating the evaluation suite: one benchmark per
// experiment table (E1–E18, see EXPERIMENTS.md), plus
// micro-benchmarks of the core algorithmic kernels. Run with
//
//	go test -bench=. -benchmem
package netplace

import (
	"fmt"
	"math/rand"
	"testing"

	"netplace/internal/benchkit"
	"netplace/internal/core"
	"netplace/internal/exper"
	"netplace/internal/facility"
	"netplace/internal/gen"
	"netplace/internal/metric"
	"netplace/internal/stream"
	"netplace/internal/tree"
	"netplace/internal/workload"
)

var benchSink float64 // defeats dead-code elimination

func benchTable(b *testing.B, fn func(exper.Config) exper.Table) {
	b.Helper()
	cfg := exper.Config{Quick: true}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := fn(cfg)
		benchSink += float64(len(t.Rows))
	}
}

// One benchmark per experiment table.

func BenchmarkE1ApproxRatio(b *testing.B)    { benchTable(b, exper.E1ApproxRatio) }
func BenchmarkE2TreeOptimality(b *testing.B) { benchTable(b, exper.E2TreeOptimality) }
func BenchmarkE2TreeScaling(b *testing.B)    { benchTable(b, exper.E2TreeScaling) }
func BenchmarkE3WriteSweep(b *testing.B)     { benchTable(b, exper.E3WriteSweep) }
func BenchmarkE4StorageSweep(b *testing.B)   { benchTable(b, exper.E4StorageSweep) }
func BenchmarkE5Baselines(b *testing.B)      { benchTable(b, exper.E5Baselines) }
func BenchmarkE6LoadModel(b *testing.B)      { benchTable(b, exper.E6LoadModel) }
func BenchmarkE7MSTvsSteiner(b *testing.B)   { benchTable(b, exper.E7MSTvsSteiner) }
func BenchmarkE8Restricted(b *testing.B)     { benchTable(b, exper.E8RestrictedGap) }
func BenchmarkE9Scale(b *testing.B)          { benchTable(b, exper.E9Scale) }
func BenchmarkE10Phases(b *testing.B)        { benchTable(b, exper.E10Phases) }
func BenchmarkE11FLChoice(b *testing.B)      { benchTable(b, exper.E11FLChoice) }
func BenchmarkE12Netsim(b *testing.B)        { benchTable(b, exper.E12Netsim) }
func BenchmarkE13Online(b *testing.B)        { benchTable(b, exper.E13Online) }
func BenchmarkE14Congestion(b *testing.B)    { benchTable(b, exper.E14Congestion) }
func BenchmarkE15Capacity(b *testing.B)      { benchTable(b, exper.E15Capacity) }
func BenchmarkE16Sizes(b *testing.B)         { benchTable(b, exper.E16Sizes) }
func BenchmarkE17Latency(b *testing.B)       { benchTable(b, exper.E17Latency) }
func BenchmarkE18Adaptive(b *testing.B)      { benchTable(b, exper.E18AdaptiveStreaming) }

// Micro-benchmarks of the algorithmic kernels.

func benchInstance(n, objects int, writeFrac float64) *core.Instance {
	rng := rand.New(rand.NewSource(17))
	g, err := gen.Build("clustered", n, rng)
	if err != nil {
		panic(err)
	}
	nn := g.N()
	storage := make([]float64, nn)
	for v := range storage {
		storage[v] = 2 + rng.Float64()*6
	}
	objs := workload.Generate(nn, workload.Spec{Objects: objects, MeanRate: 4, WriteFraction: writeFrac, ZipfS: 0.8}, rng)
	return core.MustInstance(g, storage, objs)
}

func BenchmarkApproximateN100(b *testing.B) {
	in := benchInstance(100, 1, 0.3)
	in.Metric() // exclude the APSP warm-up from the measured loop
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := core.Approximate(in, core.Options{FL: facility.MettuPlaxton})
		benchSink += float64(len(p.Copies[0]))
	}
}

func BenchmarkApproximateLocalSearchN60(b *testing.B) {
	in := benchInstance(60, 1, 0.3)
	in.Metric()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := core.Approximate(in, core.Options{FL: facility.LocalSearch})
		benchSink += float64(len(p.Copies[0]))
	}
}

func benchTreeSolve(b *testing.B, build func(n int) int, n int) {
	b.Helper()
	_ = build
	rng := rand.New(rand.NewSource(23))
	g := gen.RandomTree(n, rng, gen.UniformWeights(rng, 1, 5))
	storage := make([]float64, n)
	reads := make([]int64, n)
	writes := make([]int64, n)
	for v := 0; v < n; v++ {
		storage[v] = 1 + rng.Float64()*9
		reads[v] = rng.Int63n(10)
		writes[v] = rng.Int63n(3)
	}
	tr := tree.Build(g, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, cost := tr.Solve(storage, reads, writes)
		benchSink += cost
	}
}

func BenchmarkTreeSolveN100(b *testing.B)  { benchTreeSolve(b, nil, 100) }
func BenchmarkTreeSolveN1000(b *testing.B) { benchTreeSolve(b, nil, 1000) }

func BenchmarkTreeSolvePathN500(b *testing.B) {
	n := 500
	g := gen.Path(n, gen.UnitWeights)
	rng := rand.New(rand.NewSource(5))
	storage := make([]float64, n)
	reads := make([]int64, n)
	writes := make([]int64, n)
	for v := 0; v < n; v++ {
		storage[v] = 1 + rng.Float64()*9
		reads[v] = rng.Int63n(10)
		writes[v] = rng.Int63n(3)
	}
	tr := tree.Build(g, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, cost := tr.Solve(storage, reads, writes)
		benchSink += cost
	}
}

func BenchmarkDijkstraN400(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	g, err := gen.Build("geometric", 400, rng)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, _ := g.Dijkstra(i % g.N())
		benchSink += d[g.N()-1]
	}
}

func BenchmarkFacilityLocalSearchN40(b *testing.B)  { benchFacility(b, facility.LocalSearch, 40) }
func BenchmarkFacilityLocalSearchN120(b *testing.B) { benchFacility(b, facility.LocalSearch, 120) }
func BenchmarkFacilityLocalSearchN400(b *testing.B) { benchFacility(b, facility.LocalSearch, 400) }
func BenchmarkFacilityJainVaziraniN40(b *testing.B) { benchFacility(b, facility.JainVazirani, 40) }
func BenchmarkFacilityMettuPlaxtonN40(b *testing.B) { benchFacility(b, facility.MettuPlaxton, 40) }

func benchFacility(b *testing.B, solve facility.Solver, n int) {
	b.Helper()
	rng := rand.New(rand.NewSource(9))
	g, err := gen.Build("er", n, rng)
	if err != nil {
		b.Fatal(err)
	}
	in := &facility.Instance{Open: make([]float64, g.N()), Demand: make([]int64, g.N()), Metric: metric.New(g.AllPairs())}
	for v := 0; v < g.N(); v++ {
		in.Open[v] = 2 + rng.Float64()*20
		in.Demand[v] = rng.Int63n(8)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := solve(in)
		benchSink += float64(len(s))
	}
}

// Large-graph benchmarks: the perf trajectory of the oracle backends.
// Dense and Lazy are compared head-to-head at a size where the Θ(n²)
// matrix is still affordable (2500 nodes ≈ 50 MB); the 50k-node grid and
// interconnect runs are lazy-only — their dense matrices would need ~20 GB,
// which is exactly what the lazy backend exists to avoid. Run with
// -benchmem to see allocated bytes per solve.

func largeGridInstance(side int) *core.Instance {
	g := gen.Grid(side, side, gen.UnitWeights)
	n := g.N()
	storage := make([]float64, n)
	for v := range storage {
		storage[v] = float64(3 + v%5)
	}
	obj := core.Object{Reads: make([]int64, n), Writes: make([]int64, n)}
	for v := 0; v < n; v++ {
		obj.Reads[v] = 1
		if v%1201 == 0 {
			obj.Writes[v] = 1
		}
	}
	return core.MustInstance(g, storage, []core.Object{obj})
}

func benchSolveBackend(b *testing.B, side int, backend core.MetricBackend) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		in := largeGridInstance(side) // fresh instance: include metric build cost
		in.UseMetric(backend, 64)
		p := core.Approximate(in, core.Options{})
		benchSink += float64(len(p.Copies[0]))
	}
}

func BenchmarkSolveGrid2500Dense(b *testing.B) { benchSolveBackend(b, 50, core.MetricDense) }
func BenchmarkSolveGrid2500Lazy(b *testing.B)  { benchSolveBackend(b, 50, core.MetricLazy) }
func BenchmarkSolveGrid10kLazy(b *testing.B)   { benchSolveBackend(b, 100, core.MetricLazy) }
func BenchmarkSolveGrid50kLazy(b *testing.B)   { benchSolveBackend(b, 224, core.MetricLazy) }

func BenchmarkSolveInterconnect46kLazy(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g := gen.Torus(215, 215, gen.UnitWeights) // 46225-node wrap-around mesh
		n := g.N()
		storage := make([]float64, n)
		for v := range storage {
			storage[v] = float64(4 + v%3)
		}
		obj := core.Object{Reads: make([]int64, n), Writes: make([]int64, n)}
		for v := 0; v < n; v++ {
			obj.Reads[v] = 1
			if v%997 == 0 {
				obj.Writes[v] = 1
			}
		}
		in := core.MustInstance(g, storage, []core.Object{obj})
		in.UseMetric(core.MetricLazy, 64)
		p := core.Approximate(in, core.Options{})
		benchSink += float64(len(p.Copies[0]))
	}
}

// Resident-instance kernels: the steady-state hot path of the placement
// service — repeated solves, sweeps and cost evaluations over one warm
// instance whose lazy oracle has already been built. These are the
// BENCH_PR3.json trajectory benchmarks; cmd/benchreport runs the same
// kernels programmatically over the same internal/benchkit fixture.

func residentInstance(objects int) *core.Instance {
	return benchkit.ResidentInstance(objects)
}

// BenchmarkResidentSolve2500Lazy measures a full re-solve of a warm
// resident instance: the oracle is already built, so the numbers isolate
// the solve pipeline itself (facility location, radii, phases, scratch).
func BenchmarkResidentSolve2500Lazy(b *testing.B) {
	in := residentInstance(8)
	core.Approximate(in, core.Options{}) // warm oracle + pools
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := core.Approximate(in, core.Options{})
		benchSink += float64(len(p.Copies[0]))
	}
}

// BenchmarkResidentObjectCost2500Lazy measures pricing one placement on the
// warm instance — the kernel behind cost evaluation and what-if splicing.
func BenchmarkResidentObjectCost2500Lazy(b *testing.B) {
	in := residentInstance(1)
	p := core.Approximate(in, core.Options{})
	obj := &in.Objects[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink += in.ObjectCost(obj, p.Copies[0]).Total()
	}
}

// BenchmarkResidentNearestOf2500Lazy measures the multi-source sweep that
// underlies cost evaluation and the phase machinery — the allocation-free
// Into form with a reused buffer, matching cmd/benchreport's kernel of
// the same name.
func BenchmarkResidentNearestOf2500Lazy(b *testing.B) {
	in := residentInstance(1)
	p := core.Approximate(in, core.Options{})
	o := in.Metric()
	copies := p.Copies[0]
	dst := make([]float64, in.N())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink += metric.NearestOfInto(o, copies, dst)[0]
	}
}

// BenchmarkStreamEpoch2500Lazy measures one full streaming epoch (512
// events of exact accounting plus the estimate roll, incremental
// re-solve and hysteresis at the close) on the warm resident instance —
// the same workload as cmd/benchreport's stream_epoch_2500 kernel.
func BenchmarkStreamEpoch2500Lazy(b *testing.B) {
	in := residentInstance(8)
	rng := rand.New(rand.NewSource(7))
	const epoch = 512
	seq := workload.Sequence(in.Objects, epoch*64, rng)
	eng := stream.New(in, stream.Config{Epoch: epoch, Window: 4})
	feed := func(k int) {
		for i := 0; i < epoch; i++ {
			if _, err := eng.Observe(seq[(k*epoch+i)%len(seq)]); err != nil {
				b.Fatal(err)
			}
		}
	}
	feed(0) // warm: first epoch close adopts the initial placement
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		feed(i + 1)
	}
	benchSink += eng.Stats().Total()
}

// BenchmarkLazyRowHitByBudget measures a cache-hit Row fetch with the cache
// filled to capacity at several budgets. Hit cost must be independent of
// row budget: the LRU bookkeeping is an intrusive list, not a scan of the
// eviction order.
func BenchmarkLazyRowHitByBudget(b *testing.B) {
	for _, rows := range []int{64, 256, 1024} {
		b.Run(fmt.Sprintf("rows=%d", rows), func(b *testing.B) {
			in := largeGridInstance(50) // 2500 nodes
			in.UseMetric(core.MetricLazy, rows)
			o := in.Metric()
			for u := 0; u < rows; u++ { // fill the cache to capacity
				o.Row(u)
			}
			const working = 32
			for u := rows - working; u < rows; u++ { // working set resident
				o.Row(u)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				row := o.Row(rows - working + i%working)
				benchSink += row[0]
			}
		})
	}
}

// BenchmarkLazyRowCache measures the row cache under a point-query pattern
// whose working set (the copy set) fits the budget.
func BenchmarkLazyRowCacheHits(b *testing.B) {
	in := largeGridInstance(100)
	in.UseMetric(core.MetricLazy, 64)
	o := in.Metric()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink += o.Dist(i%32, (i*7919)%in.N())
	}
}

func BenchmarkSimulateClusteredN48(b *testing.B) {
	in := benchInstance(48, 2, 0.3)
	p := core.Approximate(in, core.Options{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := Simulate(in, p)
		if err != nil {
			b.Fatal(err)
		}
		benchSink += st.TransmissionCost
	}
}

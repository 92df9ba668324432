package facility

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"netplace/internal/gen"
	"netplace/internal/graph"
	"netplace/internal/metric"
)

// localSearchRef is LocalSearch as it stood before moves were priced
// incrementally: every candidate set is re-priced from scratch through
// Cost. The identity tests below hold the incremental kernel to its
// output, facility for facility.
func localSearchRef(in *Instance) []int {
	n := in.N()
	if n == 0 {
		return nil
	}
	open := make([]bool, n)
	// Start: best single facility.
	best, bestCost := -1, math.Inf(1)
	for v := 0; v < n; v++ {
		if c := in.Cost([]int{v}); c < bestCost {
			best, bestCost = v, c
		}
	}
	open[best] = true
	cur := bestCost
	const eps = 1e-6
	improves := func(c float64) bool { return c < cur*(1-eps/float64(n)) }

	openSet := func() []int {
		var s []int
		for v := 0; v < n; v++ {
			if open[v] {
				s = append(s, v)
			}
		}
		return s
	}

	for iter := 0; iter < 10000; iter++ {
		improved := false
		s := openSet()
		// Add moves.
		for v := 0; v < n && !improved; v++ {
			if open[v] {
				continue
			}
			if c := in.Cost(append(s, v)); improves(c) {
				open[v] = true
				cur = c
				improved = true
			}
		}
		// Drop moves.
		if !improved && len(s) > 1 {
			for _, v := range s {
				t := refWithout(s, v)
				if c := in.Cost(t); improves(c) {
					open[v] = false
					cur = c
					improved = true
					break
				}
			}
		}
		// Swap moves.
		if !improved {
			for _, v := range s {
				for u := 0; u < n; u++ {
					if open[u] {
						continue
					}
					t := append(refWithout(s, v), u)
					if c := in.Cost(t); improves(c) {
						open[v] = false
						open[u] = true
						cur = c
						improved = true
						break
					}
				}
				if improved {
					break
				}
			}
		}
		if !improved {
			break
		}
	}
	return openSet()
}

func refWithout(s []int, v int) []int {
	t := make([]int, 0, len(s))
	for _, x := range s {
		if x != v {
			t = append(t, x)
		}
	}
	return t
}

// named is one labelled case of a sweep.
type named[T any] struct {
	name string
	v    T
}

// intWeights draws integer edge fees in [1, 3]: few distinct values, so
// distances, costs and move prices tie often.
func intWeights(rng *rand.Rand) gen.WeightFn {
	return func(u, v int) float64 { return float64(1 + rng.Intn(3)) }
}

// refFamilies returns every gen family at about n nodes: the gen.Build
// topologies with real-valued fees, then the remaining generators (and a
// few of the same shapes) with unit or small-integer fees. Disconnected
// draws are dropped — on them every single facility can cost +Inf, which
// the reference does not survive.
func refFamilies(rng *rand.Rand, n int) []named[*graph.Graph] {
	var out []named[*graph.Graph]
	add := func(name string, g *graph.Graph) {
		if g.Connected() {
			out = append(out, named[*graph.Graph]{name, g})
		}
	}
	for _, name := range []string{"path", "star", "binary-tree", "random-tree", "ring", "grid", "hypercube", "complete", "er", "geometric", "clustered"} {
		if g, err := gen.Build(name, n, rng); err == nil {
			add(name, g)
		}
	}
	iw := intWeights(rng)
	side := max(2, int(math.Round(math.Sqrt(float64(n)))))
	d := max(1, int(math.Round(math.Log2(float64(n)))))
	add("grid/unit", gen.Grid(side, side, gen.UnitWeights))
	add("torus/int", gen.Torus(max(3, side), max(3, side), iw))
	add("hypercube/unit", gen.Hypercube(d, gen.UnitWeights))
	add("complete/unit", gen.Complete(n, gen.UnitWeights))
	add("star/int", gen.Star(n, iw))
	add("kary3/int", gen.KaryTree(n, 3, iw))
	add("caterpillar/int", gen.Caterpillar(n, max(1, n/3), iw))
	add("er/int", gen.ErdosRenyi(n, math.Min(1, 3*math.Log(float64(n)+1)/float64(n)), rng, iw))
	if n >= 5 {
		add("watts-strogatz/int", gen.WattsStrogatz(n, min(4, (n-1)/2), 0.2, rng, iw))
	}
	if n >= 3 {
		add("barabasi-albert/int", gen.BarabasiAlbert(n, 2, rng, iw))
	}
	if n >= 16 {
		add("fat-tree", gen.FatTree(4, 2, 1))
	}
	if d >= 2 && d <= 7 {
		add("butterfly/unit", gen.Butterfly(d-1, false, gen.UnitWeights))
		add("de-bruijn/int", gen.DeBruijn(d, iw))
		add("ccc/unit", gen.CubeConnectedCycles(max(3, d-2), gen.UnitWeights))
		add("shuffle-exchange/int", gen.ShuffleExchange(d, iw))
	}
	return out
}

// refDemands returns the demand and opening-fee variants every graph is
// solved under.
func refDemands(rng *rand.Rand, n int) []named[*Instance] {
	mk := func() *Instance { return &Instance{Open: make([]float64, n), Demand: make([]int64, n)} }
	var out []named[*Instance]

	mixed := mk() // real fees, half the nodes without demand
	for v := 0; v < n; v++ {
		mixed.Open[v] = 1 + rng.Float64()*9
		if rng.Intn(2) == 0 {
			mixed.Demand[v] = rng.Int63n(6)
		}
	}
	out = append(out, named[*Instance]{"mixed", mixed})

	ties := mk() // integer fees and demand: ties everywhere
	for v := 0; v < n; v++ {
		ties.Open[v] = float64(2 + rng.Intn(6))
		if rng.Intn(2) == 0 {
			ties.Demand[v] = rng.Int63n(4)
		}
	}
	out = append(out, named[*Instance]{"ties", ties})

	zero := mk() // all-zero demand: only the opening fees count
	for v := 0; v < n; v++ {
		zero.Open[v] = float64(1 + rng.Intn(5))
	}
	out = append(out, named[*Instance]{"zero-demand", zero})

	inf := mk() // some nodes may never hold a facility
	for v := 0; v < n; v++ {
		inf.Open[v] = 0.5 + rng.Float64()*6
		if v > 0 && rng.Intn(4) == 0 {
			inf.Open[v] = math.Inf(1)
		}
		if rng.Intn(3) == 0 {
			inf.Demand[v] = 1 + rng.Int63n(8)
		}
	}
	out = append(out, named[*Instance]{"inf-fees", inf})

	heavy := mk() // cheap openings under heavy demand: large open sets
	for v := 0; v < n; v++ {
		heavy.Open[v] = 0.2 + rng.Float64()
		heavy.Demand[v] = rng.Int63n(40)
	}
	out = append(out, named[*Instance]{"heavy", heavy})
	return out
}

// checkSameAsRef solves in with both kernels and fails on any difference.
func checkSameAsRef(t *testing.T, label string, in *Instance) {
	t.Helper()
	want := localSearchRef(in)
	got := LocalSearch(in)
	if !slices.Equal(got, want) {
		t.Fatalf("%s: LocalSearch = %v, reference = %v (costs %v vs %v)", label, got, want, in.Cost(got), in.Cost(want))
	}
}

// TestLocalSearchMatchesReference sweeps every gen family, five demand
// and fee variants, and the dense and lazy backends (the lazy one evicting
// on small instances) from 3 to 64 nodes. Each Instance is solved on both
// backends, so its scratch is reused warm.
func TestLocalSearchMatchesReference(t *testing.T) {
	sizes := []int{3, 4, 5, 7, 10, 16, 27, 40, 64}
	if testing.Short() || raceEnabled {
		sizes = []int{3, 5, 10, 27}
	}
	solves := 0
	for _, n := range sizes {
		rng := rand.New(rand.NewSource(int64(1000 + n)))
		for _, fam := range refFamilies(rng, n) {
			g := fam.v
			dense := metric.New(g.AllPairs())
			rows := 4 * g.N() // room for every row whatever the shard split
			if g.N() <= 16 {
				rows = max(2, g.N()/4) // small instances evict constantly
			}
			lazy := metric.NewLazy(g, rows)
			for _, variant := range refDemands(rng, g.N()) {
				in := variant.v
				for _, o := range []metric.Oracle{dense, lazy} {
					in.Metric = o
					checkSameAsRef(t, fmt.Sprintf("n=%d %s %s %s", g.N(), fam.name, variant.name, o.Kind()), in)
					solves++
				}
			}
		}
	}
	t.Logf("%d solves identical", solves)
}

// TestLocalSearchMatchesReferenceLarge covers 120 to 400 nodes, where the
// incremental kernel's speed-up is largest, on the dense backend the
// solve pipeline uses there: every family at about 120 nodes, then the
// families whose open sets stay small, as on plan-shaped instances. Where
// 70 or more facilities open (a 400-node grid), one reference solve takes
// 15 s; the 448-node butterfly that the 120-node draw yields takes 25 s.
func TestLocalSearchMatchesReferenceLarge(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("reference solves beyond 64 nodes take seconds")
	}
	check := func(fam named[*graph.Graph], rng *rand.Rand) {
		dense := metric.New(fam.v.AllPairs())
		for _, variant := range refDemands(rng, fam.v.N())[:2] { // mixed, ties
			in := variant.v
			in.Metric = dense
			checkSameAsRef(t, fmt.Sprintf("n=%d %s %s", fam.v.N(), fam.name, variant.name), in)
		}
	}
	rng := rand.New(rand.NewSource(120))
	for _, fam := range refFamilies(rng, 120) {
		if fam.v.N() <= 240 {
			check(fam, rng)
		}
	}
	for _, n := range []int{256, 400} {
		rng := rand.New(rand.NewSource(int64(n)))
		for _, name := range []string{"clustered", "geometric", "complete"} {
			g, err := gen.Build(name, n, rng)
			if err != nil || !g.Connected() {
				t.Fatalf("%s %d: %v", name, n, err)
			}
			check(named[*graph.Graph]{name, g}, rng)
		}
	}
}

// TestLocalSearchMatchesReferenceRandom is the broad random sweep: small
// Erdős–Rényi instances over many seeds.
func TestLocalSearchMatchesReferenceRandom(t *testing.T) {
	seeds := 2000
	if testing.Short() || raceEnabled {
		seeds = 200
	}
	for seed := int64(0); seed < int64(seeds); seed++ {
		rng := rand.New(rand.NewSource(seed))
		in := randomInstance(rng, 3+rng.Intn(30))
		checkSameAsRef(t, fmt.Sprintf("seed %d", seed), in)
	}
}

func TestLocalSearchEdgeCases(t *testing.T) {
	one := &Instance{Open: []float64{3}, Demand: []int64{5}, Metric: metric.New([][]float64{{0}})}
	checkSameAsRef(t, "single node", one)
	// Every single facility overflows to +Inf: the reference indexes
	// open[-1]; LocalSearch keeps facility 0.
	big := 1e308
	over := &Instance{
		Open:   []float64{1, 1, 1},
		Demand: []int64{5, 5, 5},
		Metric: metric.New([][]float64{{0, big, math.Inf(1)}, {big, 0, big}, {math.Inf(1), big, 0}}),
	}
	if got := LocalSearch(over); !slices.Equal(got, []int{0}) {
		t.Fatalf("overflowed instance: %v, want [0]", got)
	}
}

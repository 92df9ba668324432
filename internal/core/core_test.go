package core

import (
	"math"
	"math/rand"
	"testing"

	"netplace/internal/gen"
	"netplace/internal/graph"
	"netplace/internal/steiner"
)

func randomCoreInstance(rng *rand.Rand, n, objects int, writeP float64) *Instance {
	g := gen.ErdosRenyi(n, 0.35, rng, gen.UniformWeights(rng, 1, 6))
	storage := make([]float64, n)
	for v := range storage {
		storage[v] = rng.Float64() * 20
	}
	objs := make([]Object, objects)
	for i := range objs {
		objs[i] = Object{Reads: make([]int64, n), Writes: make([]int64, n)}
		for v := 0; v < n; v++ {
			if rng.Float64() < 0.8 {
				objs[i].Reads[v] = rng.Int63n(10)
			}
			if rng.Float64() < writeP {
				objs[i].Writes[v] = rng.Int63n(6)
			}
		}
	}
	return MustInstance(g, storage, objs)
}

func TestObjectCostAgainstLiteralDefinition(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(10)
		in := randomCoreInstance(rng, n, 1, 0.5)
		obj := &in.Objects[0]
		k := 1 + rng.Intn(n)
		copies := rng.Perm(n)[:k]
		got := in.ObjectCost(obj, copies)

		dist := in.G.AllPairs()
		var storage, read float64
		for _, c := range copies {
			storage += in.Storage[c]
		}
		for v := 0; v < n; v++ {
			best := math.Inf(1)
			for _, c := range copies {
				best = math.Min(best, dist[v][c])
			}
			read += float64(obj.Reads[v]+obj.Writes[v]) * best
		}
		update := float64(obj.TotalWrites()) * graph.MetricMST(dist, copies)
		if math.Abs(got.Storage-storage) > 1e-9 || math.Abs(got.Read-read) > 1e-9 || math.Abs(got.Update-update) > 1e-9 {
			t.Fatalf("seed %d: breakdown %+v, want {%v %v %v}", seed, got, storage, read, update)
		}
		if math.Abs(got.Total()-(storage+read+update)) > 1e-9 {
			t.Fatalf("seed %d: Total inconsistent", seed)
		}
	}
}

func TestSingleCopyHasNoUpdateCost(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	in := randomCoreInstance(rng, 8, 1, 1)
	b := in.ObjectCost(&in.Objects[0], []int{3})
	if b.Update != 0 {
		t.Fatalf("single copy update cost %v", b.Update)
	}
}

// TestApproximateProperPlacement asserts Lemma 8 as an executable
// invariant: the algorithm's output satisfies the proper-placement
// conditions with k1 <= 29 and pairwise factor >= 4 (k2 = 2).
func TestApproximateProperPlacement(t *testing.T) {
	worstK1 := 0.0
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(14)
		in := randomCoreInstance(rng, n, 1, 0.6)
		obj := &in.Objects[0]
		if obj.Requests().Total() == 0 {
			continue
		}
		p := Approximate(in, Options{})
		rep := in.CheckProper(obj, p.Copies[0])
		if rep.MaxK1 > 29+1e-9 {
			t.Fatalf("seed %d: k1 = %v exceeds Lemma 8's 29", seed, rep.MaxK1)
		}
		if rep.MaxK1 > worstK1 {
			worstK1 = rep.MaxK1
		}
		if rep.Copies > 1 && rep.MinPairFactor < 4-1e-9 {
			t.Fatalf("seed %d: copy pair factor %v below 4", seed, rep.MinPairFactor)
		}
	}
	t.Logf("worst k1 observed: %.3f (Lemma 8 bound: 29)", worstK1)
}

// TestApproximateNearOptimal measures the empirical approximation factor
// against the exact restricted-model optimum on small instances; the
// theorem guarantees a constant, observed ratios should be small.
func TestApproximateNearOptimal(t *testing.T) {
	worst := 1.0
	for seed := int64(0); seed < 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(7)
		in := randomCoreInstance(rng, n, 1, 0.5)
		obj := &in.Objects[0]
		p := Approximate(in, Options{})
		got := in.ObjectCost(obj, p.Copies[0]).Total()
		// exact optimum by enumeration
		best := math.Inf(1)
		set := make([]int, 0, n)
		for mask := 1; mask < 1<<n; mask++ {
			set = set[:0]
			for v := 0; v < n; v++ {
				if mask&(1<<v) != 0 {
					set = append(set, v)
				}
			}
			if c := in.ObjectCost(obj, set).Total(); c < best {
				best = c
			}
		}
		if got < best-1e-9 {
			t.Fatalf("seed %d: algorithm cost %v below optimum %v", seed, got, best)
		}
		if best > 0 {
			if r := got / best; r > worst {
				worst = r
			}
		}
	}
	if worst > 10 {
		t.Fatalf("empirical approximation ratio %v implausibly large", worst)
	}
	t.Logf("worst empirical ratio vs restricted optimum: %.4f", worst)
}

func TestApproximateZeroRequestObject(t *testing.T) {
	g := gen.Path(5, gen.UnitWeights)
	storage := []float64{9, 4, 1, 6, 2}
	objs := []Object{{Reads: make([]int64, 5), Writes: make([]int64, 5)}}
	in := MustInstance(g, storage, objs)
	p := Approximate(in, Options{})
	if len(p.Copies[0]) != 1 || p.Copies[0][0] != 2 {
		t.Fatalf("zero-request object placed at %v, want cheapest node [2]", p.Copies[0])
	}
}

func TestApproximatePhaseAblation(t *testing.T) {
	// Skipping phase 2 must never *create* copies; skipping phase 3 must
	// never delete them. Sizes must be consistent.
	rng := rand.New(rand.NewSource(11))
	in := randomCoreInstance(rng, 14, 1, 0.4)
	full := Approximate(in, Options{})
	noP3 := Approximate(in, Options{SkipPhase3: true})
	if len(noP3.Copies[0]) < len(full.Copies[0]) {
		t.Fatalf("phase 3 removed nothing yet full placement bigger: %d vs %d",
			len(full.Copies[0]), len(noP3.Copies[0]))
	}
	noP2 := Approximate(in, Options{SkipPhase2: true, SkipPhase3: true})
	if len(noP2.Copies[0]) > len(noP3.Copies[0]) {
		t.Fatal("skipping phase 2 must not add copies")
	}
}

func TestWriteHeavyCollapsesReplication(t *testing.T) {
	// With massive write traffic, maintaining many copies is a losing
	// proposition: the algorithm must place dramatically fewer copies than
	// in the read-only twin instance.
	rng := rand.New(rand.NewSource(5))
	n := 24
	g := gen.Clustered(gen.ClusteredParams{Clusters: 4, ClusterSize: 6, IntraWeight: 0.2, InterWeight: 4, Backbone: 0.3}, rng)
	storage := make([]float64, n)
	for v := range storage {
		storage[v] = 0.5
	}
	readObj := Object{Reads: make([]int64, n), Writes: make([]int64, n)}
	writeObj := Object{Reads: make([]int64, n), Writes: make([]int64, n)}
	for v := 0; v < n; v++ {
		readObj.Reads[v] = 20
		writeObj.Reads[v] = 2
		writeObj.Writes[v] = 18
	}
	in := MustInstance(g, storage, []Object{readObj, writeObj})
	p := Approximate(in, Options{})
	if len(p.Copies[0]) <= len(p.Copies[1]) {
		t.Fatalf("read-only object got %d copies, write-heavy got %d; expected strictly more for read-only",
			len(p.Copies[0]), len(p.Copies[1]))
	}
}

func TestBaselinesShape(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	in := randomCoreInstance(rng, 10, 2, 0.5)
	fr := FullReplication(in)
	if len(fr.Copies[0]) != 10 || len(fr.Copies[1]) != 10 {
		t.Fatal("full replication must use all nodes")
	}
	sb := SingleBest(in)
	for i := range sb.Copies {
		if len(sb.Copies[i]) != 1 {
			t.Fatal("single best must place one copy")
		}
	}
	if err := fr.Validate(in); err != nil {
		t.Fatal(err)
	}
	if err := sb.Validate(in); err != nil {
		t.Fatal(err)
	}
	ga := GreedyAdd(in)
	if err := ga.Validate(in); err != nil {
		t.Fatal(err)
	}
	// Greedy starts from SingleBest and only improves.
	if in.Cost(ga).Total() > in.Cost(sb).Total()+1e-9 {
		t.Fatal("greedy-add worse than its own starting point")
	}
	fo := FacilityOnly(in, nil)
	if err := fo.Validate(in); err != nil {
		t.Fatal(err)
	}
}

func TestSingleBestIsOptimalAmongSingletons(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	in := randomCoreInstance(rng, 9, 1, 0.7)
	sb := SingleBest(in)
	obj := &in.Objects[0]
	best := in.ObjectCost(obj, sb.Copies[0]).Total()
	for v := 0; v < in.N(); v++ {
		if c := in.ObjectCost(obj, []int{v}).Total(); c < best-1e-9 {
			t.Fatalf("node %d beats SingleBest: %v < %v", v, c, best)
		}
	}
}

func TestInstanceValidation(t *testing.T) {
	g := gen.Path(3, gen.UnitWeights)
	if _, err := NewInstance(g, []float64{1, 2}, nil); err == nil {
		t.Fatal("short storage vector accepted")
	}
	if _, err := NewInstance(g, []float64{1, 2, -1}, nil); err == nil {
		t.Fatal("negative storage accepted")
	}
	bad := []Object{{Reads: []int64{1}, Writes: []int64{0, 0, 0}}}
	if _, err := NewInstance(g, []float64{1, 2, 3}, bad); err == nil {
		t.Fatal("malformed object accepted")
	}
	neg := []Object{{Reads: []int64{0, -1, 0}, Writes: []int64{0, 0, 0}}}
	if _, err := NewInstance(g, []float64{1, 2, 3}, neg); err == nil {
		t.Fatal("negative frequency accepted")
	}
	disc := graph.New(2)
	if _, err := NewInstance(disc, []float64{1, 1}, nil); err == nil {
		t.Fatal("disconnected network accepted")
	}
}

func TestPlacementValidate(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	in := randomCoreInstance(rng, 5, 2, 0.3)
	p := Placement{Copies: [][]int{{0}, {4}}}
	if err := p.Validate(in); err != nil {
		t.Fatal(err)
	}
	if err := (Placement{Copies: [][]int{{0}}}).Validate(in); err == nil {
		t.Fatal("object count mismatch accepted")
	}
	if err := (Placement{Copies: [][]int{{0}, {}}}).Validate(in); err == nil {
		t.Fatal("empty copy set accepted")
	}
	if err := (Placement{Copies: [][]int{{0}, {9}}}).Validate(in); err == nil {
		t.Fatal("out-of-range node accepted")
	}
}

func TestUpdateCostUsesMetricMSTNotSteiner(t *testing.T) {
	// On a star with leaf copies, the restricted model's MST update is up
	// to 2x the Steiner tree; the accounting must use the MST figure.
	k := 5
	g := graph.New(k + 1)
	for i := 1; i <= k; i++ {
		g.AddEdge(0, i, 1)
	}
	storage := make([]float64, k+1)
	obj := Object{Reads: make([]int64, k+1), Writes: make([]int64, k+1)}
	obj.Writes[0] = 1
	in := MustInstance(g, storage, []Object{obj})
	copies := []int{1, 2, 3, 4, 5}
	b := in.ObjectCost(&in.Objects[0], copies)
	wantMST := float64(2 * (k - 1))
	if math.Abs(b.Update-wantMST) > 1e-9 {
		t.Fatalf("update %v, want MST-based %v", b.Update, wantMST)
	}
	st := steiner.Exact(g, copies)
	if st >= wantMST {
		t.Fatal("test instance does not separate MST from Steiner")
	}
}

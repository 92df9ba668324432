package graph

import (
	"math"
	"math/rand"
	"testing"
)

// randomBucketable builds a random connected graph whose weight profile
// admits the bucketed kernel: positive weights with bounded spread, plus
// an optional sprinkle of zero-weight edges (which must relax within the
// current bucket without breaking exactness).
func randomBucketable(rng *rand.Rand, n, extra int, zeros bool) *Graph {
	g := New(n)
	w := func() float64 {
		if zeros && rng.Intn(8) == 0 {
			return 0
		}
		return 1 + float64(rng.Intn(7))
	}
	for v := 1; v < n; v++ {
		g.AddEdge(rng.Intn(v), v, w())
	}
	for k := 0; k < extra; k++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			g.AddEdge(u, v, w())
		}
	}
	return g
}

// The bucketed SSSP must produce bit-identical distances to the heap
// Dijkstra on every weight profile it accepts — the invariant that lets
// the lazy oracle swap row kernels without perturbing a single placement.
func TestRowBucketsMatchesDijkstraBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	shapes := []struct {
		name  string
		build func() *Graph
	}{
		{"unit-grid", func() *Graph {
			// Hand-rolled 12x12 unit grid: the 50k bench topology in miniature.
			const side = 12
			g := New(side * side)
			for r := 0; r < side; r++ {
				for c := 0; c < side; c++ {
					v := r*side + c
					if c+1 < side {
						g.AddEdge(v, v+1, 1)
					}
					if r+1 < side {
						g.AddEdge(v, v+side, 1)
					}
				}
			}
			return g
		}},
		{"int-weights", func() *Graph { return randomBucketable(rng, 150, 250, false) }},
		{"zero-edges", func() *Graph { return randomBucketable(rng, 150, 250, true) }},
		{"disconnected", func() *Graph {
			g := New(40)
			for v := 1; v < 20; v++ {
				g.AddEdge(v-1, v, 2)
			}
			for v := 21; v < 40; v++ {
				g.AddEdge(v-1, v, 3)
			}
			return g
		}},
	}
	for _, sh := range shapes {
		g := sh.build()
		if !g.csr().canBucket() {
			t.Fatalf("%s: weight profile unexpectedly rejects bucketing", sh.name)
		}
		sc := NewScanner(g)
		heap := make([]float64, g.N())
		bucket := make([]float64, g.N())
		for trial := 0; trial < 12; trial++ {
			src := rng.Intn(g.N())
			sc.RowInto(src, heap)
			sc.RowBucketsInto(src, bucket)
			for v := range heap {
				if math.Float64bits(heap[v]) != math.Float64bits(bucket[v]) {
					t.Fatalf("%s: d(%d,%d) differs: heap %v bucket %v", sh.name, src, v, heap[v], bucket[v])
				}
			}
		}
	}
}

// Wide or fractional weight spreads must fall back to the heap kernel
// (still exact, via Scan) rather than degrade into a huge bucket array.
func TestScanBucketsFallsBackOnWideSpread(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	g := New(100)
	for v := 1; v < 100; v++ {
		g.AddEdge(rng.Intn(v), v, 0.001+rng.Float64()*100)
	}
	g.AddEdge(0, 99, 1e-6) // forces wmax/wmin far past maxBucketSpread
	if g.csr().canBucket() {
		t.Fatalf("spread %v/%v unexpectedly bucketable", g.csr().wmax, g.csr().wmin)
	}
	sc := NewScanner(g)
	heap := sc.RowInto(7, make([]float64, 100))
	bucket := sc.RowBucketsInto(7, make([]float64, 100))
	for v := range heap {
		if math.Float64bits(heap[v]) != math.Float64bits(bucket[v]) {
			t.Fatalf("fallback row differs at %d: %v vs %v", v, heap[v], bucket[v])
		}
	}
}

// ScanBuckets must visit nodes in nondecreasing distance, breaking ties
// within a bucket by ascending node index, and honor early stop.
func TestScanBucketsOrderAndEarlyStop(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	g := randomBucketable(rng, 120, 200, false)
	sc := NewScanner(g)
	var order []int
	var dists []float64
	sc.ScanBuckets(5, func(v int, d float64) bool {
		order = append(order, v)
		dists = append(dists, d)
		return true
	})
	if len(order) != g.N() {
		t.Fatalf("visited %d of %d nodes", len(order), g.N())
	}
	for i := 1; i < len(dists); i++ {
		if dists[i] < dists[i-1] {
			t.Fatalf("distance regressed at visit %d: %v after %v", i, dists[i], dists[i-1])
		}
		if dists[i] == dists[i-1] && order[i] < order[i-1] {
			t.Fatalf("tie at distance %v visited out of index order: %d after %d", dists[i], order[i], order[i-1])
		}
	}
	seen := 0
	sc.ScanBuckets(5, func(v int, d float64) bool {
		seen++
		return seen < 10
	})
	if seen != 10 {
		t.Fatalf("early stop visited %d nodes, want 10", seen)
	}
}

// A pooled Scanner must interleave bucketed and heap sweeps without
// cross-contamination (the epoch stamping shares dist/stamp/done arrays).
func TestScanBucketsInterleavesWithHeapScans(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	g := randomBucketable(rng, 100, 150, false)
	sc := NewScanner(g)
	ref := make([]float64, g.N())
	got := make([]float64, g.N())
	for trial := 0; trial < 10; trial++ {
		src := rng.Intn(g.N())
		sc.RowInto(src, ref)
		sc.RowBucketsInto(src, got)
		for v := range ref {
			if math.Float64bits(ref[v]) != math.Float64bits(got[v]) {
				t.Fatalf("interleaved sweep %d: d(%d,%d) = %v, want %v", trial, src, v, got[v], ref[v])
			}
		}
		// A truncated heap scan in between leaves partial epoch state.
		sc.Scan(src, func(v int, d float64) bool { return v%3 != 1 })
	}
}

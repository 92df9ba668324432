package metric

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"netplace/internal/graph"
)

// batchFixture builds a random connected graph plus a fresh serial lazy
// oracle serving as the reference for bitwise row comparison.
func batchFixture(seed int64, n int) (*graph.Graph, *Lazy) {
	rng := rand.New(rand.NewSource(seed))
	g := graph.New(n)
	for v := 1; v < n; v++ {
		g.AddEdge(rng.Intn(v), v, 1+rng.Float64()*9)
	}
	for k := 0; k < n; k++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			g.AddEdge(u, v, 1+rng.Float64()*9)
		}
	}
	return g, NewLazy(g, n)
}

func rowsEqualBitwise(t *testing.T, got, want []float64, tag string) {
	t.Helper()
	for v := range want {
		if math.Float64bits(got[v]) != math.Float64bits(want[v]) {
			t.Fatalf("%s: row differs at node %d: %v want %v", tag, v, got[v], want[v])
		}
	}
}

// Batched row construction must hand back exactly the rows len(us) serial
// Row calls would, at every worker count, with hits, misses and duplicate
// keys mixed in one batch.
func TestRowsIntoMatchesRow(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		g, ref := batchFixture(seed, 160)
		rng := rand.New(rand.NewSource(seed * 31))
		for _, workers := range []int{0, 1, 2, 4, -1} {
			l := NewLazy(g, 24) // budget below the batch's key spread
			// Warm a few rows so the batch sees cache hits too.
			for i := 0; i < 6; i++ {
				l.Row(rng.Intn(g.N()))
			}
			us := make([]int, 40)
			for i := range us {
				us[i] = rng.Intn(g.N())
			}
			us[7] = us[3] // duplicate keys collapse through the entry once
			var scratch [][]float64
			rows := l.RowsInto(us, scratch, workers)
			if len(rows) != len(us) {
				t.Fatalf("workers %d: got %d rows, want %d", workers, len(rows), len(us))
			}
			for i, u := range us {
				rowsEqualBitwise(t, rows[i], ref.Row(u), "RowsInto")
			}
		}
	}
}

// The row prefetches (NearestIdx, Workspace.PairwiseMST) serve batching
// backends through RowsInto and fall back to per-node Row fetches on the
// rest; both paths must give the same rows.
func TestRowsHelperFallback(t *testing.T) {
	g, ref := batchFixture(9, 80)
	us := []int{3, 41, 3, 77, 0}

	l := NewLazy(g, 16)
	for i, row := range l.RowsInto(us, nil, 2) {
		rowsEqualBitwise(t, row, ref.Row(us[i]), "RowsInto(lazy)")
	}

	var dense Oracle = New(Materialize(ref)) // no RowBatcher capability
	if _, ok := dense.(RowBatcher); ok {
		t.Fatal("dense Space unexpectedly implements RowBatcher")
	}
	for _, u := range us {
		rowsEqualBitwise(t, dense.Row(u), ref.Row(u), "Row(dense)")
	}
}

// Concurrent batches sharing one small-budget lazy oracle — overlapping
// keys, interleaved point queries, eviction churn — must still produce
// rows bitwise identical to a serial reference. This is the -race hammer
// for the per-entry once / atomic row publication protocol.
func TestRowsIntoConcurrentHammer(t *testing.T) {
	g, ref := batchFixture(17, 120)
	l := NewLazy(g, 8) // tiny budget: constant eviction under the hammer
	const goroutines = 8
	var wg sync.WaitGroup
	errs := make(chan string, goroutines)
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + w)))
			var scratch [][]float64
			for iter := 0; iter < 30; iter++ {
				us := make([]int, 12)
				for i := range us {
					us[i] = rng.Intn(g.N())
				}
				scratch = l.RowsInto(us, scratch, 2)
				for i, u := range us {
					want := ref.Row(u)
					for v := range want {
						if math.Float64bits(scratch[i][v]) != math.Float64bits(want[v]) {
							errs <- "concurrent batch row diverged"
							return
						}
					}
				}
				// Interleave point queries racing the batches. Dist may be
				// served from either endpoint's row (symmetric metric), and
				// the reverse sweep sums the same path in the opposite
				// order, so accept either orientation's bits.
				u, v := rng.Intn(g.N()), rng.Intn(g.N())
				got := math.Float64bits(l.Dist(u, v))
				if got != math.Float64bits(ref.Row(u)[v]) && got != math.Float64bits(ref.Row(v)[u]) {
					errs <- "concurrent Dist diverged"
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

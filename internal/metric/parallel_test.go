package metric

import (
	"math/rand"
	"reflect"
	"testing"

	"netplace/internal/graph"
)

// randomScanGraph builds a random connected graph with both backends'
// request/storage fixtures for the radii kernels.
func radiiFixture(t *testing.T, seed int64, n int) (o Oracle, req Requests, writes int64, cs []float64) {
	t.Helper()
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
	req = Requests{Count: make([]int64, n)}
	cs = make([]float64, n)
	for v := 0; v < n; v++ {
		req.Count[v] = rng.Int63n(5)
		cs[v] = 1 + rng.Float64()*20
		if rng.Intn(4) == 0 {
			writes += rng.Int63n(3)
		}
	}
	if req.Total() == 0 {
		req.Count[0] = 1
	}
	if writes > req.Total() {
		writes = req.Total()
	}
	return NewLazy(g, 64), req, writes, cs
}

// The sharded radii kernels production runs — storage radii over every
// node, write radii over the copy candidates — must be byte-identical to
// the serial kernels at every worker count.
func TestComputeRadiiParallelMatchesSerial(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		o, req, writes, cs := radiiFixture(t, seed, 120)
		ws := NewWorkspace()
		serial := append([]Radii(nil), ws.ComputeRadii(o, req, writes, cs)...)
		serialStore := append([]Radii(nil), ws.ComputeStorageRadii(o, req, cs)...)
		for _, workers := range []int{2, 3, 8, -1} {
			parStore := append([]Radii(nil), ws.ComputeStorageRadiiParallel(o, req, cs, workers)...)
			if !reflect.DeepEqual(parStore, serialStore) {
				t.Fatalf("seed %d workers %d: parallel storage radii diverged", seed, workers)
			}
		}
		// The per-candidate kernels must agree with the full kernel too.
		var order []int
		for v := 0; v < o.N(); v += 17 {
			if rw := ws.WriteRadius(o, req, writes, v); rw != serial[v].RW {
				t.Fatalf("seed %d: WriteRadius(%d) = %v, want %v", seed, v, rw, serial[v].RW)
			}
			order = append(order, v)
		}
		for _, workers := range []int{1, 4} {
			got := make([]Radii, o.N())
			WriteRadiiParallel(o, req, writes, order, got, workers)
			for _, v := range order {
				if got[v].RW != serial[v].RW {
					t.Fatalf("seed %d workers %d: WriteRadiiParallel rw(%d) = %v, want %v", seed, workers, v, got[v].RW, serial[v].RW)
				}
			}
		}
	}
}

package graph

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// randomConnected builds a random connected graph: a random tree plus extra
// random edges.
func randomConnected(rng *rand.Rand, n, extra int) *Graph {
	g := New(n)
	for v := 1; v < n; v++ {
		g.AddEdge(rng.Intn(v), v, 1+rng.Float64()*9)
	}
	for k := 0; k < extra; k++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			g.AddEdge(u, v, 1+rng.Float64()*9)
		}
	}
	return g
}

// floydWarshall is the reference all-pairs implementation for tests.
func floydWarshall(g *Graph) [][]float64 {
	n := g.N()
	d := make([][]float64, n)
	for i := range d {
		d[i] = make([]float64, n)
		for j := range d[i] {
			if i != j {
				d[i][j] = math.Inf(1)
			}
		}
	}
	for _, e := range g.Edges() {
		if e.W < d[e.U][e.V] {
			d[e.U][e.V] = e.W
			d[e.V][e.U] = e.W
		}
	}
	for k := 0; k < n; k++ {
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if d[i][k]+d[k][j] < d[i][j] {
					d[i][j] = d[i][k] + d[k][j]
				}
			}
		}
	}
	return d
}

func TestDijkstraMatchesFloydWarshall(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(20)
		g := randomConnected(rng, n, rng.Intn(2*n))
		want := floydWarshall(g)
		got := g.AllPairs()
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if math.Abs(got[i][j]-want[i][j]) > 1e-9 {
					t.Fatalf("seed %d: dist[%d][%d] = %v, want %v", seed, i, j, got[i][j], want[i][j])
				}
			}
		}
	}
}

func TestDijkstraPathReconstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	g := randomConnected(rng, 25, 30)
	dist, parent := g.Dijkstra(0)
	for v := 0; v < g.N(); v++ {
		path := PathTo(parent, 0, v)
		if path == nil {
			t.Fatalf("no path to %v", v)
		}
		if path[0] != 0 || path[len(path)-1] != v {
			t.Fatalf("path endpoints %v for target %d", path, v)
		}
		// sum edge weights along path, taking cheapest parallel edge
		total := 0.0
		for i := 0; i+1 < len(path); i++ {
			w := math.Inf(1)
			g.Neighbors(path[i], func(u int, ew float64) {
				if u == path[i+1] && ew < w {
					w = ew
				}
			})
			total += w
		}
		if math.Abs(total-dist[v]) > 1e-9 {
			t.Fatalf("path to %d sums to %v, dist %v", v, total, dist[v])
		}
	}
}

// NearestInto's multi-source sweep must give every node its distance to
// the nearest source, against the all-pairs matrix, with repeated sources
// and a reused Scanner.
func TestScannerNearestIntoMatchesAllPairs(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(15)
		g := randomConnected(rng, n, n)
		all := g.AllPairs()
		sc := NewScanner(g)
		near := make([]float64, n)
		for trial := 0; trial < 3; trial++ {
			k := 1 + rng.Intn(n)
			sources := rng.Perm(n)[:k]
			sources = append(sources, sources[0])
			sc.NearestInto(sources, near)
			for v := 0; v < n; v++ {
				want := math.Inf(1)
				for _, s := range sources {
					want = math.Min(want, all[v][s])
				}
				if math.Abs(near[v]-want) > 1e-9 {
					t.Fatalf("seed %d trial %d: nearest[%d] = %v, want %v", seed, trial, v, near[v], want)
				}
			}
		}
	}
}

func TestMetricMSTAgainstKruskalOnCompleteGraph(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(15)
		g := randomConnected(rng, n, n)
		dist := g.AllPairs()
		k := 2 + rng.Intn(n-1)
		pts := rng.Perm(n)[:k]
		got := MetricMST(dist, pts)
		// reference: Kruskal on the complete graph over pts
		kg := New(k)
		for i := 0; i < k; i++ {
			for j := i + 1; j < k; j++ {
				kg.AddEdge(i, j, dist[pts[i]][pts[j]])
			}
		}
		tree, want := kg.MSTKruskal()
		if len(tree) != k-1 {
			t.Fatalf("seed %d: Kruskal tree has %d edges, want %d", seed, len(tree), k-1)
		}
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("seed %d: MetricMST %v, want %v", seed, got, want)
		}
	}
}

func TestSubtreeSteinerEqualsSeparatorDefinition(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(14)
		g := New(n)
		for v := 1; v < n; v++ {
			g.AddEdge(rng.Intn(v), v, 1+rng.Float64()*5)
		}
		k := 1 + rng.Intn(n)
		terms := rng.Perm(n)[:k]
		got := g.SubtreeSteiner(terms)
		// Reference: an edge is in the spanning subtree iff removing it
		// separates two terminals.
		want := 0.0
		for idx, e := range g.Edges() {
			// BFS avoiding edge idx from e.U
			side := make([]bool, n)
			stack := []int{e.U}
			side[e.U] = true
			for len(stack) > 0 {
				v := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				for _, ne := range g.NeighborList(v) {
					skip := false
					// find if this adjacency corresponds to edge idx
					if (ne.U == e.U && ne.V == e.V) || (ne.U == e.V && ne.V == e.U) {
						skip = true
					}
					if !skip && !side[ne.V] {
						side[ne.V] = true
						stack = append(stack, ne.V)
					}
				}
			}
			hasA, hasB := false, false
			for _, tm := range terms {
				if side[tm] {
					hasA = true
				} else {
					hasB = true
				}
			}
			if hasA && hasB {
				want += g.Edges()[idx].W
			}
		}
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("seed %d: SubtreeSteiner %v, want %v (terms %v)", seed, got, want, terms)
		}
	}
}

func TestUnionFindProperties(t *testing.T) {
	fn := func(ops []uint8) bool {
		const n = 20
		uf := NewUnionFind(n)
		naive := make([]int, n)
		for i := range naive {
			naive[i] = i
		}
		find := func(x int) int {
			for naive[x] != x {
				x = naive[x]
			}
			return x
		}
		for k := 0; k+1 < len(ops); k += 2 {
			a, b := int(ops[k])%n, int(ops[k+1])%n
			merged := uf.Union(a, b)
			ra, rb := find(a), find(b)
			if (ra != rb) != merged {
				return false
			}
			naive[ra] = rb
		}
		// equivalence must match
		for a := 0; a < n; a++ {
			for b := 0; b < n; b++ {
				if (uf.Find(a) == uf.Find(b)) != (find(a) == find(b)) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTreeRecognitionAndDiameter(t *testing.T) {
	g := New(5)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 1)
	g.AddEdge(2, 3, 1)
	g.AddEdge(3, 4, 1)
	if !g.IsTree() {
		t.Fatal("path is a tree")
	}
	if d := g.UnweightedDiameter(); d != 4 {
		t.Fatalf("diameter %d, want 4", d)
	}
	g.AddEdge(4, 0, 1)
	if g.IsTree() {
		t.Fatal("cycle is not a tree")
	}
	if d := g.UnweightedDiameter(); d != 2 {
		t.Fatalf("cycle diameter %d, want 2", d)
	}
}

func TestConnectedAndClone(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1, 1)
	g.AddEdge(2, 3, 1)
	if g.Connected() {
		t.Fatal("two components reported connected")
	}
	c := g.Clone()
	c.AddEdge(1, 2, 1)
	if !c.Connected() {
		t.Fatal("patched clone should be connected")
	}
	if g.M() != 2 {
		t.Fatal("clone mutated original")
	}
	if g.UnweightedDiameter() != -1 {
		t.Fatal("disconnected diameter should be -1")
	}
}

func TestTreeParentsOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n := 30
	g := New(n)
	for v := 1; v < n; v++ {
		g.AddEdge(rng.Intn(v), v, 1)
	}
	parent, _, order := g.TreeParents(7)
	if parent[7] != -1 {
		t.Fatal("root parent must be -1")
	}
	pos := make([]int, n)
	for i, v := range order {
		pos[v] = i
	}
	for v := 0; v < n; v++ {
		if v != 7 && pos[parent[v]] >= pos[v] {
			t.Fatalf("parent %d of %d not before it in order", parent[v], v)
		}
	}
}

func TestAddEdgePanics(t *testing.T) {
	cases := []func(){
		func() { New(3).AddEdge(0, 0, 1) },
		func() { New(3).AddEdge(0, 5, 1) },
		func() { New(3).AddEdge(0, 1, -2) },
		func() { New(3).AddEdge(0, 1, math.NaN()) },
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("case %d: expected panic", i)
				}
			}()
			fn()
		}()
	}
}

func TestDegreeStats(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1, 1)
	g.AddEdge(0, 2, 1)
	g.AddEdge(0, 3, 1)
	if g.MaxDegree() != 3 || g.Degree(0) != 3 || g.Degree(1) != 1 {
		t.Fatal("degree bookkeeping wrong")
	}
	if g.TotalWeight() != 3 {
		t.Fatal("total weight wrong")
	}
}

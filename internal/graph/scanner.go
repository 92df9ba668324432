package graph

// Scanner runs truncated Dijkstra sweeps from varying sources, reusing its
// internal arrays across calls so that a sweep over a small ball costs only
// the ball, not O(n) re-initialisation. It is the engine behind the lazy
// distance oracle's nearest-first iteration: radius machinery and
// facility-location ball scans stop after a handful of nodes, so a full
// per-source shortest-path run (let alone an all-pairs matrix) is wasted
// work on large networks.
//
// Beyond truncated scans it also provides the allocation-free forms of the
// other sweep kernels — full rows (RowInto), multi-source nearest fields
// (ScanFrom, NearestInto), pruned nearest-field improvement
// (ImproveNearest) and potential-seeded relaxation (Relax). One
// Dijkstra-shaped operation stays outside it: Graph.Dijkstra, which also
// returns the shortest-path parent tree (the network simulator routes
// along it) and is the tests' independent reference for the Scanner.
//
// A Scanner is not safe for concurrent use; pool Scanners per goroutine.
// Many Scanners over one graph may run concurrently: they share the
// graph's immutable CSR adjacency and keep all mutable state private.
type Scanner struct {
	g     *Graph
	c     *csrAdj // compacted adjacency, refreshed per sweep when stale
	dist  []float64
	stamp []int // epoch in which dist/done were last written
	done  []int
	epoch int
	q     pq

	// Scratch of the bucketed SSSP kernel (ScanBuckets): the cyclic
	// bucket array, the per-bucket drain copy, the settled-node list
	// sorted before emission, and the pre-bound (distance, index)
	// comparator (built once; a literal at the sort site would be boxed
	// per bucket).
	bq   [][]int32
	bcur []int32
	bset []int32
	bcmp func(a, b int32) int
}

// NewScanner returns a Scanner over g.
func NewScanner(g *Graph) *Scanner {
	return &Scanner{
		g:     g,
		c:     g.csr(),
		dist:  make([]float64, g.n),
		stamp: make([]int, g.n),
		done:  make([]int, g.n),
	}
}

// adj returns the graph's CSR adjacency, re-fetching it when edges were
// added since this Scanner last looked. One comparison on the hot path.
func (s *Scanner) adj() *csrAdj {
	if s.c.m != len(s.g.edges) {
		s.c = s.g.csr()
	}
	return s.c
}

// Scan visits nodes in nondecreasing shortest-path distance from src,
// calling fn(v, d) for each settled node (starting with fn(src, 0)). The
// sweep stops early when fn returns false; only the explored ball is paid
// for. Unreachable nodes are never visited.
func (s *Scanner) Scan(src int, fn func(v int, d float64) bool) {
	s.epoch++
	e := s.epoch
	s.dist[src] = 0
	s.stamp[src] = e
	s.q = append(s.q[:0], pqItem{node: src, dist: 0})
	s.run(e, fn)
}

// ScanFrom visits nodes in nondecreasing distance from the nearest member
// of sources, calling fn(v, d) for each settled node. Duplicate sources are
// harmless. An empty source set visits nothing.
func (s *Scanner) ScanFrom(sources []int, fn func(v int, d float64) bool) {
	s.epoch++
	e := s.epoch
	s.q = s.q[:0]
	for _, src := range sources {
		if s.stamp[src] == e {
			continue
		}
		s.dist[src] = 0
		s.stamp[src] = e
		s.q.push(pqItem{node: src, dist: 0})
	}
	s.run(e, fn)
}

// run drains the queue seeded by Scan or ScanFrom for epoch e.
func (s *Scanner) run(e int, fn func(v int, d float64) bool) {
	c := s.adj()
	for len(s.q) > 0 {
		it := s.q.pop()
		v := it.node
		if s.done[v] == e {
			continue
		}
		s.done[v] = e
		if !fn(v, it.dist) {
			return
		}
		for i, end := c.off[v], c.off[v+1]; i < end; i++ {
			to := int(c.to[i])
			nd := it.dist + c.w[i]
			if s.stamp[to] != e || nd < s.dist[to] {
				s.dist[to] = nd
				s.stamp[to] = e
				s.q.push(pqItem{node: to, dist: nd})
			}
		}
	}
}

// RowInto fills row (length n) with single-source shortest-path distances
// from src — Inf for unreachable nodes — and returns it. Unlike
// Graph.Dijkstra it allocates nothing: heap and bookkeeping live in the
// Scanner, and the caller owns the row.
func (s *Scanner) RowInto(src int, row []float64) []float64 {
	if len(row) != s.g.n {
		panic("graph: RowInto length mismatch")
	}
	for i := range row {
		row[i] = Inf
	}
	s.Scan(src, func(v int, d float64) bool {
		row[v] = d
		return true
	})
	return row
}

// NearestInto fills near (length n) with each node's distance to the
// nearest member of sources — Inf where no source is reachable — and
// returns it. One multi-source sweep, no allocation.
func (s *Scanner) NearestInto(sources []int, near []float64) []float64 {
	if len(near) != s.g.n {
		panic("graph: NearestInto length mismatch")
	}
	for i := range near {
		near[i] = Inf
	}
	s.ScanFrom(sources, func(v int, d float64) bool {
		near[v] = d
		return true
	})
	return near
}

// ImproveNearest merges the distances from src into near: afterwards
// near[v] = min(near[v], d(src, v)). It explores only the region that src
// actually improves (src's Voronoi cell with respect to the sources already
// folded into near), which makes incrementally adding one source to a
// nearest-source field far cheaper than a fresh multi-source run. Pruning
// is exact: a path through a node it did not improve cannot improve any
// node beyond it, by the triangle inequality.
func (s *Scanner) ImproveNearest(src int, near []float64) {
	if len(near) != s.g.n {
		panic("graph: ImproveNearest length mismatch")
	}
	if near[src] <= 0 {
		return
	}
	c := s.adj()
	s.epoch++
	e := s.epoch
	s.dist[src] = 0
	s.stamp[src] = e
	s.q = append(s.q[:0], pqItem{node: src, dist: 0})
	for len(s.q) > 0 {
		it := s.q.pop()
		v := it.node
		if s.stamp[v] != e || it.dist > s.dist[v] {
			continue
		}
		if it.dist < near[v] {
			near[v] = it.dist
		}
		for i, end := c.off[v], c.off[v+1]; i < end; i++ {
			to := int(c.to[i])
			nd := it.dist + c.w[i]
			if nd >= near[to] {
				continue
			}
			if s.stamp[to] == e && nd >= s.dist[to] {
				continue
			}
			s.dist[to] = nd
			s.stamp[to] = e
			s.q.push(pqItem{node: to, dist: nd})
		}
	}
}

// Relax replaces vals in place with, for every node v,
// min_u (vals[u] + d(u, v)) — a multi-source Dijkstra whose sources carry
// initial potentials; entries of +Inf are non-sources. It is the
// graph-native form of the dense relaxation row[v] = min_u (row[u] +
// dist[u][v]) that the Steiner dynamic program runs once per terminal
// subset, without an all-pairs matrix.
func (s *Scanner) Relax(vals []float64) {
	if len(vals) != s.g.n {
		panic("graph: Relax length mismatch")
	}
	c := s.adj()
	s.q = s.q[:0]
	for v, d := range vals {
		if d < Inf {
			s.q.push(pqItem{node: v, dist: d})
		}
	}
	for len(s.q) > 0 {
		it := s.q.pop()
		v := it.node
		if it.dist > vals[v] {
			continue
		}
		for i, end := c.off[v], c.off[v+1]; i < end; i++ {
			if to := int(c.to[i]); it.dist+c.w[i] < vals[to] {
				vals[to] = it.dist + c.w[i]
				s.q.push(pqItem{node: to, dist: it.dist + c.w[i]})
			}
		}
	}
}

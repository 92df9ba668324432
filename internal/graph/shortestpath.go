package graph

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"
)

// Inf is the distance reported for unreachable nodes.
var Inf = math.Inf(1)

// pqItem is a node with a tentative distance in the Dijkstra priority queue.
type pqItem struct {
	node int
	dist float64
}

// pq is a binary min-heap over tentative distances, driven through the
// concrete push/pop methods below instead of container/heap: the interface
// API boxes every pqItem into its own heap allocation, which used to
// dominate the allocation profile of large sweeps (one 16-byte allocation
// per edge relaxation). Stale entries are allowed and skipped on pop (lazy
// deletion), which is simpler and in practice as fast as decrease-key for
// the sparse graphs used here.
type pq []pqItem

// push inserts an item, sifting it up to its heap position.
func (q *pq) push(it pqItem) {
	s := append(*q, it)
	i := len(s) - 1
	for i > 0 {
		p := (i - 1) / 2
		if s[p].dist <= s[i].dist {
			break
		}
		s[p], s[i] = s[i], s[p]
		i = p
	}
	*q = s
}

// pop removes and returns the minimum item. The queue must be non-empty.
func (q *pq) pop() pqItem {
	s := *q
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s = s[:n]
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && s[r].dist < s[l].dist {
			m = r
		}
		if s[i].dist <= s[m].dist {
			break
		}
		s[i], s[m] = s[m], s[i]
		i = m
	}
	*q = s
	return top
}

// Dijkstra computes single-source shortest path distances from src and the
// predecessor of every node on its shortest path tree (-1 for src and
// unreachable nodes). Distances to unreachable nodes are Inf.
func (g *Graph) Dijkstra(src int) (dist []float64, parent []int) {
	dist = make([]float64, g.n)
	parent = make([]int, g.n)
	for i := range dist {
		dist[i] = Inf
		parent[i] = -1
	}
	dist[src] = 0
	q := pq{{node: src, dist: 0}}
	done := make([]bool, g.n)
	c := g.csr()
	for len(q) > 0 {
		it := q.pop()
		v := it.node
		if done[v] {
			continue
		}
		done[v] = true
		for i, end := c.off[v], c.off[v+1]; i < end; i++ {
			if to := int(c.to[i]); dist[v]+c.w[i] < dist[to] {
				dist[to] = dist[v] + c.w[i]
				parent[to] = v
				q.push(pqItem{node: to, dist: dist[to]})
			}
		}
	}
	return dist, parent
}

// AllPairs computes the full shortest-path distance matrix by running
// Dijkstra from every node: O(n (m + n) log n). For the dense metric view
// used by the placement algorithms this is both the distance function ct and
// the metric closure of the graph.
func (g *Graph) AllPairs() [][]float64 {
	d := make([][]float64, g.n)
	for v := 0; v < g.n; v++ {
		dv, _ := g.Dijkstra(v)
		d[v] = dv
	}
	return d
}

// AllPairsParallel is AllPairs with the per-source Dijkstra runs fanned out
// over a bounded worker pool. Rows are independent, so the result is
// bit-identical to AllPairs. workers <= 0 selects GOMAXPROCS.
func (g *Graph) AllPairsParallel(workers int) [][]float64 {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > g.n {
		workers = g.n
	}
	if workers <= 1 {
		return g.AllPairs()
	}
	d := make([][]float64, g.n)
	var next int64 = -1
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				v := int(atomic.AddInt64(&next, 1))
				if v >= g.n {
					return
				}
				dv, _ := g.Dijkstra(v)
				d[v] = dv
			}
		}()
	}
	wg.Wait()
	return d
}

// PathTo reconstructs the node sequence from src to dst using a parent array
// produced by Dijkstra(src). It returns nil if dst is unreachable.
func PathTo(parent []int, src, dst int) []int {
	if src == dst {
		return []int{src}
	}
	if parent[dst] < 0 {
		return nil
	}
	var rev []int
	for v := dst; v != -1; v = parent[v] {
		rev = append(rev, v)
		if v == src {
			break
		}
	}
	if rev[len(rev)-1] != src {
		return nil
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

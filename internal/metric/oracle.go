package metric

import (
	"math"
	"sync"
)

// Kind identifies a distance-oracle backend, letting algorithms choose
// between point-query and scan-based formulations of the same step.
type Kind int

const (
	// KindDense backs distances with a materialized n x n matrix: point
	// queries and rows are free, memory is Θ(n²).
	KindDense Kind = iota
	// KindLazy computes per-source shortest-path rows on demand behind a
	// bounded LRU cache: memory is bounded by the cache budget, point
	// queries cost a cached row.
	KindLazy
	// KindTree answers distances on tree networks in O(1) via LCA depths,
	// with O(n) preprocessing and no distance rows stored at all.
	KindTree
)

// String names the backend kind.
func (k Kind) String() string {
	switch k {
	case KindDense:
		return "dense"
	case KindLazy:
		return "lazy"
	case KindTree:
		return "tree"
	}
	return "unknown"
}

// Oracle is a finite metric over nodes 0..N-1: the shortest-path closure of
// a network's transmission fees, served by a pluggable backend. All
// implementations in this package assume a symmetric metric
// (Dist(u, v) == Dist(v, u)), which holds for undirected networks.
//
// Row returns the full distance row of u; callers must treat it as
// read-only. Backends may cache and evict rows, so callers should not
// retain rows across unrelated operations when memory matters.
type Oracle interface {
	N() int
	Dist(u, v int) float64
	Row(u int) []float64
	Kind() Kind
}

// NearScanner is an optional Oracle capability: visit nodes in
// nondecreasing distance from v, stopping when fn returns false. Graph
// backends implement it with a truncated Dijkstra, so an early-stopping
// scan pays only for the ball it explores.
type NearScanner interface {
	ScanNear(v int, fn func(u int, d float64) bool)
}

// NearestSetInto is an optional Oracle capability: the distance from every
// node to its nearest member of sources in one pass, written into a
// caller-owned buffer of length N so steady-state sweeps allocate nothing.
// Graph backends implement it with a multi-source Dijkstra; all backends
// in this package implement it.
type NearestSetInto interface {
	NearestOfInto(sources []int, dst []float64) []float64
}

// NearImprover is an optional Oracle capability: fold source src into an
// existing nearest-source field near (near[v] = min(near[v], d(src, v))).
// Graph backends implement it with a pruned Dijkstra that explores only the
// region src improves.
type NearImprover interface {
	ImproveNearest(src int, near []float64)
}

// RowBatcher is an optional Oracle capability: materialise the distance
// rows of several nodes in one call. The lazy backend resolves cache hits
// up front and builds the misses with a pool of per-worker scanners —
// batched multi-source row construction — instead of faulting one row at
// a time. workers follows AutoWorkers (negative GOMAXPROCS, 0 size-aware
// auto, positive literal); rows is caller-owned scratch, grown and
// returned like append. Returned rows are backend-shared and read-only,
// and identical to len(us) serial Row calls in every schedule.
type RowBatcher interface {
	RowsInto(us []int, rows [][]float64, workers int) [][]float64
}

// ScanNear visits nodes in nondecreasing distance from v, calling
// fn(u, d) until it returns false. It uses the oracle's native scanner when
// available and otherwise heap-selects from the distance row of v: nodes
// come out ordered by (distance, node id), the order a stable sort of the
// row gives, and a scan that stops after k nodes pays O(n + k log n)
// instead of a full sort. The index heap is pooled, so the fallback
// allocates nothing once warm.
func ScanNear(o Oracle, v int, fn func(u int, d float64) bool) {
	if sc, ok := o.(NearScanner); ok {
		sc.ScanNear(v, fn)
		return
	}
	row := o.Row(v)
	hp := scanHeaps.Get().(*[]int32)
	h := (*hp)[:0]
	for u := range row {
		h = append(h, int32(u))
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDown(h, row, i)
	}
	for len(h) > 0 {
		u := h[0]
		if !fn(int(u), row[u]) {
			break
		}
		last := len(h) - 1
		h[0] = h[last]
		h = h[:last]
		siftDown(h, row, 0)
	}
	*hp = h
	scanHeaps.Put(hp)
}

// scanHeaps pools ScanNear's row-fallback index heaps.
var scanHeaps = sync.Pool{New: func() any { return new([]int32) }}

// siftDown restores the min-heap order of h below position i, keyed by
// (row distance, node id).
func siftDown(h []int32, row []float64, i int) {
	for {
		m := 2*i + 1
		if m >= len(h) {
			return
		}
		if r := m + 1; r < len(h) && nearer(row, h[r], h[m]) {
			m = r
		}
		if !nearer(row, h[m], h[i]) {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}

// nearer orders nodes by distance, ties toward the lower id.
func nearer(row []float64, a, b int32) bool {
	da, db := row[a], row[b]
	return da < db || (da == db && a < b)
}

// NearestOf returns, for every node, the distance to the nearest member of
// sources (+Inf for an empty source set). Backends with a native
// multi-source sweep use it; the fallback folds one source row at a time.
func NearestOf(o Oracle, sources []int) []float64 {
	return NearestOfInto(o, sources, make([]float64, o.N()))
}

// NearestOfInto is NearestOf writing into dst, a caller-owned buffer of
// length o.N(): the allocation-free form for hot sweeps. It returns dst.
func NearestOfInto(o Oracle, sources []int, dst []float64) []float64 {
	if ns, ok := o.(NearestSetInto); ok && len(sources) > 0 {
		return ns.NearestOfInto(sources, dst)
	}
	for v := range dst {
		dst[v] = math.Inf(1)
	}
	for _, s := range sources {
		row := o.Row(s)
		for v, d := range row {
			if d < dst[v] {
				dst[v] = d
			}
		}
	}
	return dst
}

// ImproveNearest folds src into near in place: near[v] = min(near[v],
// d(src, v)).
func ImproveNearest(o Oracle, src int, near []float64) {
	if im, ok := o.(NearImprover); ok {
		im.ImproveNearest(src, near)
		return
	}
	row := o.Row(src)
	for v, d := range row {
		if d < near[v] {
			near[v] = d
		}
	}
}

// NearestIdx returns, for every node, the distance to and index (into
// sources) of its nearest source, ties broken toward the earlier source —
// the deterministic tie-break the restricted-placement machinery relies
// on. Past the auto-parallel threshold with a batching backend the source
// rows are prefetched in one parallel RowsInto call; the fold itself
// stays serial in source order, so the tie-break (and every output byte)
// is unchanged.
func NearestIdx(o Oracle, sources []int) (dist []float64, idx []int) {
	n := o.N()
	dist = make([]float64, n)
	idx = make([]int, n)
	for v := range dist {
		dist[v] = math.Inf(1)
		idx[v] = -1
	}
	var rows [][]float64
	if rb, ok := o.(RowBatcher); ok && len(sources) >= 2 && AutoWorkers(0, n) > 1 {
		rows = rb.RowsInto(sources, nil, 0)
	}
	for i, s := range sources {
		var row []float64
		if rows != nil {
			row = rows[i]
		} else {
			row = o.Row(s)
		}
		for v, d := range row {
			if d < dist[v] {
				dist[v] = d
				idx[v] = i
			}
		}
	}
	return dist, idx
}

// PairwiseMST returns the weight of a minimum spanning tree over points
// under the oracle metric — the paper's multicast-tree cost for updating a
// copy set. Prim in O(k²) after k row fetches; 0 for k <= 1. Scratch comes
// from a pooled Workspace, so steady-state calls allocate nothing. On
// oracles of AutoParallelMinNodes nodes or more, a batching backend builds
// the uncached rows on all cores; the result is bit-identical either way.
func PairwiseMST(o Oracle, points []int) float64 {
	ws := wsPool.Get().(*Workspace)
	total := ws.PairwiseMST(o, points)
	putWorkspace(ws)
	return total
}

// PairwiseMSTTree returns the MST edges (as index pairs into points, parent
// first) plus total weight.
func PairwiseMSTTree(o Oracle, points []int) ([][2]int, float64) {
	if len(points) <= 1 {
		return nil, 0
	}
	var edges [][2]int
	ws := wsPool.Get().(*Workspace)
	total := ws.prim(o, points, &edges)
	putWorkspace(ws)
	return edges, total
}

// Materialize returns the full dense distance matrix of the oracle. It
// defeats the purpose of a lazy backend — Θ(n²) memory — and exists for the
// small-n exact solvers and tests that genuinely need a matrix.
func Materialize(o Oracle) [][]float64 {
	n := o.N()
	d := make([][]float64, n)
	for v := 0; v < n; v++ {
		row := o.Row(v)
		d[v] = make([]float64, n)
		copy(d[v], row)
	}
	return d
}

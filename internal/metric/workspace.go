package metric

import (
	"math"
	"sync"
)

// Workspace holds reusable scratch buffers for the sweep- and MST-shaped
// metric kernels — nearest-source fields, radii tables, pairwise MST
// scratch — so the steady-state solve pipeline allocates nothing per call.
// Buffers grow to the largest instance seen and are reused verbatim after.
//
// A Workspace is not safe for concurrent use; pool one per goroutine (the
// core solver keeps one per worker, the package-level helpers borrow one
// from an internal sync.Pool).
type Workspace struct {
	near     []float64
	radii    []Radii
	pairD    []float64   // k×k pairwise distances, flattened row-major
	pairRows [][]float64 // batched row prefetch scratch (RowBatcher path)
	pairBest []float64
	pairFrom []int
	pairIn   []bool

	// radSt/radiiFn implement the per-node radii scan without per-call
	// closures: radiiFn is built once and reads radSt, so a ComputeRadii
	// over n nodes performs n scans and zero allocations. (A closure
	// passed through the Oracle interface escapes, so the naive per-node
	// closure allocated it plus every captured accumulator on each call.)
	radSt   radiiState
	radiiFn func(u int, d float64) bool
}

// NewWorkspace returns an empty workspace; buffers are grown on first use.
func NewWorkspace() *Workspace { return &Workspace{} }

// wsPool backs the workspace-free package helpers (PairwiseMST and
// friends), so even one-shot callers stay allocation-free in steady state.
var wsPool = sync.Pool{New: func() interface{} { return NewWorkspace() }}

// putWorkspace returns a borrowed workspace to the pool, dropping the
// caller-owned request multiset its radii state may still reference — a
// pooled workspace must pin only its own scratch.
func putWorkspace(w *Workspace) {
	w.radSt.req = Requests{}
	wsPool.Put(w)
}

// Near returns the workspace's length-n float64 buffer, growing it if
// needed. Contents are unspecified; kernels overwrite it. The slice is
// valid until the next Near call on this workspace.
func (w *Workspace) Near(n int) []float64 {
	if cap(w.near) < n {
		w.near = make([]float64, n)
	}
	w.near = w.near[:n]
	return w.near
}

// NearestOf is NearestOf writing into the workspace's buffer: the returned
// slice is valid until the workspace's next use.
func (w *Workspace) NearestOf(o Oracle, sources []int) []float64 {
	return NearestOfInto(o, sources, w.Near(o.N()))
}

// ComputeRadii is ComputeRadii writing into the workspace's radii buffer:
// the returned slice is valid until the workspace's next use.
func (w *Workspace) ComputeRadii(o Oracle, req Requests, writes int64, cs []float64) []Radii {
	n := o.N()
	if cap(w.radii) < n {
		w.radii = make([]Radii, n)
	}
	w.radii = w.radii[:n]
	total := req.Total()
	for v := 0; v < n; v++ {
		w.radii[v] = w.radiiForNode(o, req, v, writes, total, cs[v])
	}
	return w.radii
}

// radiiForNode runs one per-node radii scan through the workspace's
// pre-bound callback and state.
func (w *Workspace) radiiForNode(o Oracle, req Requests, v int, writes, total int64, storeCost float64) Radii {
	if w.radiiFn == nil {
		w.radiiFn = func(u int, d float64) bool { return w.radSt.step(u, d) }
	}
	w.radSt = radiiState{req: req, writes: writes, storeCost: storeCost, rwDone: writes == 0}
	ScanNear(o, v, w.radiiFn)
	return w.radSt.finalize(total, storeCost)
}

// ComputeStorageRadii is ComputeRadii restricted to the storage radius:
// RS and ZS are filled for every node, RW is left 0. Each scan stops at
// the (typically small) payment ball of the storage fee, whereas the write
// radius needs the W closest requests — a near-complete sweep when writes
// are plentiful. The solve pipeline therefore computes storage radii for
// all nodes here and write radii per copy candidate via WriteRadius,
// turning n expensive scans into n cheap ones plus a handful of expensive
// ones. Values are identical to ComputeRadii's.
func (w *Workspace) ComputeStorageRadii(o Oracle, req Requests, cs []float64) []Radii {
	n := o.N()
	if cap(w.radii) < n {
		w.radii = make([]Radii, n)
	}
	w.radii = w.radii[:n]
	total := req.Total()
	for v := 0; v < n; v++ {
		w.radii[v] = w.storageRadiiForNode(o, req, v, total, cs[v])
	}
	return w.radii
}

// storageRadiiForNode runs one per-node storage-radius scan through the
// workspace's pre-bound callback: the rwDone preset makes the scan resolve
// only the storage prefix.
func (w *Workspace) storageRadiiForNode(o Oracle, req Requests, v int, total int64, storeCost float64) Radii {
	if w.radiiFn == nil {
		w.radiiFn = func(u int, d float64) bool { return w.radSt.step(u, d) }
	}
	w.radSt = radiiState{req: req, storeCost: storeCost, rwDone: true}
	ScanNear(o, v, w.radiiFn)
	return w.radSt.finalize(total, storeCost)
}

// WriteRadius returns rw(v) = d(v, W), the average distance from v to the
// writes closest requests — the write-radius half of ComputeRadii for one
// node, identical in value.
func (w *Workspace) WriteRadius(o Oracle, req Requests, writes int64, v int) float64 {
	if writes == 0 {
		return 0
	}
	if w.radiiFn == nil {
		w.radiiFn = func(u int, d float64) bool { return w.radSt.step(u, d) }
	}
	// found preset: the scan resolves only the write prefix.
	w.radSt = radiiState{req: req, writes: writes, found: true}
	ScanNear(o, v, w.radiiFn)
	return w.radSt.rw
}

// pairwise fills the workspace's flattened k×k distance matrix over points
// using one row fetch per point and returns it. When the size rule
// (AutoWorkers) gives more than one worker and the backend batches rows,
// the rows are prefetched in one RowsInto call so cache misses build in
// parallel instead of faulting one at a time; the extracted matrix is
// identical either way — cached row values do not depend on the
// schedule — so serial resolutions keep the point-loop byte-for-byte.
func (w *Workspace) pairwise(o Oracle, points []int) []float64 {
	k := len(points)
	if cap(w.pairD) < k*k {
		w.pairD = make([]float64, k*k)
	}
	d := w.pairD[:k*k]
	if rb, ok := o.(RowBatcher); ok && k >= 2 && AutoWorkers(0, o.N()) > 1 {
		w.pairRows = rb.RowsInto(points, w.pairRows, 0)
		for i, row := range w.pairRows {
			for j, q := range points {
				d[i*k+j] = row[q]
			}
			w.pairRows[i] = nil // do not pin cache rows past the call
		}
		return d
	}
	for i, p := range points {
		row := o.Row(p)
		for j, q := range points {
			d[i*k+j] = row[q]
		}
	}
	return d
}

// PairwiseMST returns the weight of a minimum spanning tree over points
// under the oracle metric using the workspace's scratch; identical in
// result to the package-level PairwiseMST.
func (w *Workspace) PairwiseMST(o Oracle, points []int) float64 {
	if len(points) <= 1 {
		return 0
	}
	return w.prim(o, points, nil)
}

// prim runs Prim's algorithm over the workspace's pairwise matrix; when
// edges is non-nil the MST edges (parent-first index pairs into points) are
// appended to it. The selection order matches the historical dense
// implementation exactly, so results are bit-identical across call paths.
func (w *Workspace) prim(o Oracle, points []int, edges *[][2]int) float64 {
	d := w.pairwise(o, points)
	k := len(points)
	if cap(w.pairBest) < k {
		w.pairBest = make([]float64, k)
		w.pairFrom = make([]int, k)
		w.pairIn = make([]bool, k)
	}
	best := w.pairBest[:k]
	from := w.pairFrom[:k]
	inTree := w.pairIn[:k]
	for i := range best {
		best[i] = math.Inf(1)
		from[i] = -1
		inTree[i] = false
	}
	inTree[0] = true
	for j := 1; j < k; j++ {
		best[j] = d[j] // d[0][j]
		from[j] = 0
	}
	total := 0.0
	for it := 1; it < k; it++ {
		sel := -1
		for j := 0; j < k; j++ {
			if !inTree[j] && (sel == -1 || best[j] < best[sel]) {
				sel = j
			}
		}
		if edges != nil {
			*edges = append(*edges, [2]int{from[sel], sel})
		}
		total += best[sel]
		inTree[sel] = true
		row := d[sel*k : sel*k+k]
		for j := 0; j < k; j++ {
			if !inTree[j] && row[j] < best[j] {
				best[j] = row[j]
				from[j] = sel
			}
		}
	}
	return total
}

package metric

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// The paper's radius machinery is embarrassingly parallel per node: every
// node's radii derive from one independent nearest-first scan. The
// parallel variants below shard the node range across a worker pool, each
// worker owning its own pooled Workspace (private scan state and
// pre-bound callback) and writing disjoint entries of the shared result
// slice — no locks, and per-node values identical to the serial kernels,
// so parallel output is byte-identical to serial. Oracle backends are
// already safe for concurrent scans: the lazy backend hands each scan a
// pooled graph.Scanner over the immutable CSR adjacency, and row fills
// go through its sharded LRU.
//
// Shard and ShardWorkers are exported so the other sharded kernels of
// the solve pipeline (facility's Mettu–Plaxton radii, core's phase-3
// write radii) reuse the same cursor loop instead of growing their own.

// ShardBlock is the dynamic-scheduling grain of the sharded radii
// sweeps: payment balls vary wildly in size, so workers claim small node
// blocks from an atomic cursor instead of fixed ranges. Kernels whose
// per-index work is heavy (phase-3 write radii) shard with grain 1.
const ShardBlock = 32

// AutoParallelMinNodes is the node-count threshold of the size rule that
// decides how many goroutines share one object's solve: below it a
// parallelism count of 0 resolves to serial, at or above it to
// GOMAXPROCS. Calibrated on the committed bench trajectory, measured on
// a 1-core container — at 2500 nodes the sharded kernels lost to serial
// (goroutine hand-off costs more than a payment-ball scan; see the
// BENCH_PR5 _par entries), while at 50k nodes per-node sweeps are heavy
// enough that sharding wins — so the threshold sits between those two
// measured sizes, at the first power of two past the dense-backend
// cutoff where per-node scan cost clearly dominates scheduling cost.
const AutoParallelMinNodes = 16384

// AutoWorkers resolves a worker count against an instance size n:
// negative selects GOMAXPROCS, positive values are taken literally, and
// 0 selects the size rule — serial below AutoParallelMinNodes nodes,
// GOMAXPROCS at or above — which is never a regression at small sizes
// and never leaves cores idle at large ones. The core solve always
// passes 0.
func AutoWorkers(workers, n int) int {
	switch {
	case workers < 0:
		return runtime.GOMAXPROCS(0)
	case workers > 0:
		return workers
	case n >= AutoParallelMinNodes:
		return runtime.GOMAXPROCS(0)
	default:
		return 1
	}
}

// ShardWorkers normalises a worker count against an n-index range
// sharded at the given grain: negative selects GOMAXPROCS, and the count
// never exceeds the number of claimable blocks (a worker with no block
// to claim is pure overhead).
func ShardWorkers(workers, n, grain int) int {
	if workers < 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if max := (n + grain - 1) / grain; workers > max {
		workers = max
	}
	return workers
}

// Shard runs worker on several goroutines over the index range [0, n):
// each invocation repeatedly calls its claim function, which yields
// half-open [lo, hi) blocks of up to grain indices off a shared atomic
// cursor until the range is exhausted. The worker count is normalised
// via ShardWorkers; one worker runs inline on the caller's goroutine.
func Shard(n, grain, workers int, worker func(claim func() (lo, hi int, ok bool))) {
	var cursor atomic.Int64
	cursor.Store(-1)
	claim := func() (int, int, bool) {
		lo := int(cursor.Add(1)) * grain
		if lo >= n {
			return 0, 0, false
		}
		hi := lo + grain
		if hi > n {
			hi = n
		}
		return lo, hi, true
	}
	if workers = ShardWorkers(workers, n, grain); workers <= 1 {
		worker(claim)
		return
	}
	var wg sync.WaitGroup
	wg.Add(workers)
	for k := 0; k < workers; k++ {
		go func() {
			defer wg.Done()
			worker(claim)
		}()
	}
	wg.Wait()
}

// shardRadii runs per(ws, v) for every v in [0, n) across workers
// goroutines, each with its own pooled Workspace. per must write only
// results indexed by v.
func shardRadii(n, workers int, per func(ws *Workspace, v int)) {
	Shard(n, ShardBlock, workers, func(claim func() (int, int, bool)) {
		ws := wsPool.Get().(*Workspace)
		defer putWorkspace(ws)
		for {
			lo, hi, ok := claim()
			if !ok {
				return
			}
			for v := lo; v < hi; v++ {
				per(ws, v)
			}
		}
	})
}

// ComputeRadiiParallel is ComputeRadii with the per-node scans sharded
// across workers goroutines (<= 1 runs serially; negative selects
// GOMAXPROCS). Results are byte-identical to the serial kernel.
func (w *Workspace) ComputeRadiiParallel(o Oracle, req Requests, writes int64, cs []float64, workers int) []Radii {
	n := o.N()
	if workers = ShardWorkers(workers, n, ShardBlock); workers <= 1 {
		return w.ComputeRadii(o, req, writes, cs)
	}
	if cap(w.radii) < n {
		w.radii = make([]Radii, n)
	}
	w.radii = w.radii[:n]
	radii := w.radii
	total := req.Total()
	shardRadii(n, workers, func(ws *Workspace, v int) {
		radii[v] = ws.radiiForNode(o, req, v, writes, total, cs[v])
	})
	return radii
}

// ComputeStorageRadiiParallel is ComputeStorageRadii with the per-node
// scans sharded across workers goroutines (<= 1 runs serially; negative
// selects GOMAXPROCS). Results are byte-identical to the serial kernel.
func (w *Workspace) ComputeStorageRadiiParallel(o Oracle, req Requests, cs []float64, workers int) []Radii {
	n := o.N()
	if workers = ShardWorkers(workers, n, ShardBlock); workers <= 1 {
		return w.ComputeStorageRadii(o, req, cs)
	}
	if cap(w.radii) < n {
		w.radii = make([]Radii, n)
	}
	w.radii = w.radii[:n]
	radii := w.radii
	total := req.Total()
	shardRadii(n, workers, func(ws *Workspace, v int) {
		radii[v] = ws.storageRadiiForNode(o, req, v, total, cs[v])
	})
	return radii
}

// WriteRadiusOf is Workspace.WriteRadius with pooled scratch: rw(v) for
// one node, identical in value — the one-shot form for callers without a
// workspace of their own.
func WriteRadiusOf(o Oracle, req Requests, writes int64, v int) float64 {
	ws := wsPool.Get().(*Workspace)
	rw := ws.WriteRadius(o, req, writes, v)
	putWorkspace(ws)
	return rw
}

// WriteRadiiParallel fills radii[v].RW = rw(v) for every copy candidate
// v in order, sharding the truncated nearest-first scans across workers
// at grain 1 (each candidate's scan is expensive). Every worker borrows
// one pooled Workspace for its whole share; values are identical to
// Workspace.WriteRadius's in any schedule. This is phase 3's candidate
// kernel in the core solve pipeline.
func WriteRadiiParallel(o Oracle, req Requests, writes int64, order []int, radii []Radii, workers int) {
	Shard(len(order), 1, workers, func(claim func() (int, int, bool)) {
		ws := wsPool.Get().(*Workspace)
		defer putWorkspace(ws)
		for {
			i, _, ok := claim()
			if !ok {
				return
			}
			v := order[i]
			radii[v].RW = ws.WriteRadius(o, req, writes, v)
		}
	})
}

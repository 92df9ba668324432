package core

import (
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"netplace/internal/facility"
	"netplace/internal/metric"
)

// Options configures the Section 2 approximation algorithm. The zero value
// selects the paper's parameters.
type Options struct {
	// FL is the facility-location solver used in phase 1. Nil auto-selects:
	// local search (the combinatorial 5-approximation of Korupolu et al.)
	// up to DenseMetricMaxNodes nodes, and the ball-scanning Mettu–Plaxton
	// 3-approximation beyond it. Local search reads all n distance rows on
	// every sweep and prices a sweep's swaps in O(k·n²) for k open
	// facilities, which does not survive large networks.
	FL facility.Solver
	// Phase2Factor is the storage-radius multiple beyond which a node
	// demands its own copy; the paper uses 5. Zero selects 5.
	Phase2Factor float64
	// Phase3Factor is the write-radius multiple within which a scanned copy
	// deletes another; the paper uses 4. Zero selects 4.
	Phase3Factor float64
	// SkipPhase2 / SkipPhase3 disable the respective phases (ablations E10).
	SkipPhase2 bool
	SkipPhase3 bool
	// Workers bounds the goroutines placing whole objects concurrently —
	// object-level parallelism, the fan-out Approximate uses when an
	// instance has several (representative) objects. 0 and negative
	// values select GOMAXPROCS; 1 runs sequentially. The result is
	// bit-identical to the sequential run either way. A single object's
	// solve shards by instance size alone: serial below
	// metric.AutoParallelMinNodes nodes, GOMAXPROCS at or above (see
	// docs/tuning.md).
	Workers int
	// Metric overrides the instance's distance-oracle backend for this
	// solve (MetricAuto keeps whatever the instance selects).
	Metric MetricBackend
	// MetricRows bounds the lazy backend's row cache, in rows; 0 selects
	// the default budget. Ignored by the dense and tree backends.
	MetricRows int
}

func (o Options) fl(n int) facility.Solver {
	if o.FL != nil {
		return o.FL
	}
	if n > DenseMetricMaxNodes {
		return facility.MettuPlaxton
	}
	return facility.LocalSearch
}

func (o Options) p2() float64 {
	if o.Phase2Factor == 0 {
		return 5
	}
	return o.Phase2Factor
}

func (o Options) p3() float64 {
	if o.Phase3Factor == 0 {
		return 4
	}
	return o.Phase3Factor
}

// workers resolves the object-level fan-out: how many objects are placed
// at once. How many goroutines share one object's solve is the size rule
// of metric.AutoWorkers, resolved in approximate.
func (o Options) workers() int {
	if o.Workers == 1 {
		return 1
	}
	if o.Workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return o.Workers
}

// solveWS is the per-worker scratch of the solve pipeline: request vector,
// copy flags, scan order, plus the metric workspace (nearest fields, radii,
// MST scratch) and a reusable facility-location instance. Pooled via
// solvePool so repeated solves over a resident instance allocate only their
// results.
type solveWS struct {
	mws   metric.Workspace
	req   []int64
	has   []bool
	order []int
	fl    facility.Instance
}

// buffers returns the request, copy-flag and order buffers grown to length
// n; req and has are zeroed, order is emptied.
func (ws *solveWS) buffers(n int) (req []int64, has []bool, order []int) {
	if cap(ws.req) < n {
		ws.req = make([]int64, n)
		ws.has = make([]bool, n)
		ws.order = make([]int, 0, n)
	}
	req = ws.req[:n]
	has = ws.has[:n]
	for i := range req {
		req[i] = 0
		has[i] = false
	}
	return req, has, ws.order[:0]
}

// solvePool recycles solve workspaces across solves and workers.
var solvePool = sync.Pool{New: func() interface{} { return new(solveWS) }}

// putSolveWS returns a workspace to the pool, dropping its references to
// the solved instance (storage, demand view, oracle) first — a pooled
// workspace must not pin an evicted instance's memory, only its own
// scratch buffers.
func putSolveWS(ws *solveWS) {
	ws.fl.Open = nil
	ws.fl.Demand = nil
	ws.fl.Metric = nil
	solvePool.Put(ws)
}

// Approximate runs the paper's three-phase constant-factor approximation
// algorithm (Section 2.2) independently for every object:
//
//  1. Solve the related facility location problem (writes become reads).
//  2. While some node v has no copy within Phase2Factor * rs(v), place a
//     copy on v.
//  3. Scan copy holders in ascending write radius; the scanned copy deletes
//     any other copy u with ct(u, v) <= Phase3Factor * rw(u).
//
// The result is a proper placement with k1 = 29, k2 = 2 (Lemma 8) whose
// storage cost is near-optimal (Lemma 9), hence a constant-factor
// approximation of the total cost (Theorem 7).
//
// Objects whose request multiset and total write count coincide place
// identically (the three phases read nothing else about an object), so
// Approximate solves one representative per such group and copies the
// result to the rest — one multi-source pipeline serving many objects.
func Approximate(in *Instance, opt Options) Placement {
	return approximate(in, opt, 0)
}

// approximate is Approximate with every object's solve sharded across par
// goroutines; 0 applies the size rule of metric.AutoWorkers. Only tests
// pass a width, to reach the sharded scans on small instances.
func approximate(in *Instance, opt Options, par int) Placement {
	if opt.Metric != MetricAuto {
		in.UseMetric(opt.Metric, opt.MetricRows)
	}
	p := Placement{Copies: make([][]int, len(in.Objects))}
	rep := demandGroups(in)
	reps := make([]int, 0, len(in.Objects))
	for i, r := range rep {
		if r == i {
			reps = append(reps, i)
		}
	}
	workers := opt.workers()
	if workers > len(reps) {
		workers = len(reps)
	}
	if workers <= 1 {
		ws := solvePool.Get().(*solveWS)
		for _, i := range reps {
			p.Copies[i] = approximateObject(in, &in.Objects[i], opt, ws, par)
		}
		putSolveWS(ws)
	} else {
		in.Metric() // resolve the shared oracle before fanning out
		var next int64 = -1
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer wg.Done()
				ws := solvePool.Get().(*solveWS)
				defer putSolveWS(ws)
				for {
					k := int(atomic.AddInt64(&next, 1))
					if k >= len(reps) {
						return
					}
					i := reps[k]
					p.Copies[i] = approximateObject(in, &in.Objects[i], opt, ws, par)
				}
			}()
		}
		wg.Wait()
	}
	for i, r := range rep {
		if r != i {
			p.Copies[i] = append([]int(nil), p.Copies[r]...)
		}
	}
	return p
}

// demandGroups assigns every object the index of its representative: the
// first object with an elementwise-identical fr+fw request vector and the
// same total write count. rep[i] == i marks a representative.
func demandGroups(in *Instance) []int {
	rep := make([]int, len(in.Objects))
	for i := range rep {
		rep[i] = i
	}
	if len(in.Objects) < 2 {
		return rep
	}
	byHash := make(map[uint64][]int, len(in.Objects))
	for i := range in.Objects {
		o := &in.Objects[i]
		h := demandHash(o)
		for _, j := range byHash[h] {
			if sameDemand(o, &in.Objects[j]) {
				rep[i] = j
				break
			}
		}
		if rep[i] == i {
			byHash[h] = append(byHash[h], i)
		}
	}
	return rep
}

// demandHash is an FNV-1a hash of an object's request vector and total
// write count — the exact inputs the solve pipeline reads.
func demandHash(o *Object) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	mix := func(v uint64) {
		for s := 0; s < 64; s += 8 {
			h ^= (v >> s) & 0xff
			h *= prime
		}
	}
	for v := range o.Reads {
		mix(uint64(o.Reads[v] + o.Writes[v]))
	}
	mix(uint64(o.TotalWrites()))
	return h
}

// sameDemand reports whether two objects present identical inputs to the
// solve pipeline: same fr+fw vector and same total write count.
func sameDemand(a, b *Object) bool {
	if a.TotalWrites() != b.TotalWrites() {
		return false
	}
	for v := range a.Reads {
		if a.Reads[v]+a.Writes[v] != b.Reads[v]+b.Writes[v] {
			return false
		}
	}
	return true
}

// ApproximateObject places a single object with the paper's three-phase
// algorithm, borrowing pooled scratch. It is the kernel behind Approximate
// and the placement service's incremental what-if path, which re-solves
// only the objects a scenario actually changed.
func ApproximateObject(in *Instance, obj *Object, opt Options) []int {
	ws := solvePool.Get().(*solveWS)
	out := approximateObject(in, obj, opt, ws, 0)
	putSolveWS(ws)
	return out
}

// approximateObject places a single object using the given workspace,
// sharding its per-node scans across par goroutines (0: the size rule).
func approximateObject(in *Instance, obj *Object, opt Options, ws *solveWS, par int) []int {
	n := in.N()
	o := in.Metric()
	reqBuf, has, order := ws.buffers(n)
	req := obj.RequestsInto(reqBuf)
	total := req.Total()
	if total == 0 {
		// Degenerate object nobody accesses: cheapest single copy.
		best := 0
		for v := 1; v < n; v++ {
			if in.Storage[v] < in.Storage[best] {
				best = v
			}
		}
		return []int{best}
	}

	// Phase 1: related facility location problem. Writes count as reads;
	// update costs are ignored. The facility instance is reused across
	// objects so its internal scratch persists.
	par = metric.AutoWorkers(par, n)
	ws.fl.Open = in.Storage
	ws.fl.Demand = req.Count
	ws.fl.Metric = o
	ws.fl.Parallel = par
	copies := opt.fl(n)(&ws.fl)

	// Storage radii for every node (cheap payment-ball scans, sharded
	// across the intra-solve workers); write radii are computed later,
	// only for the copy candidates phase 3 actually compares — resolving
	// rw(v) means walking the W closest requests, which is a near-complete
	// sweep per node when writes are plentiful.
	radii := ws.mws.ComputeStorageRadiiParallel(o, req, in.Storage, par)

	near := ws.mws.Near(n) // distance to nearest copy
	for v := range near {
		near[v] = graphInf
	}
	addCopy := func(c int) {
		has[c] = true
		metric.ImproveNearest(o, c, near)
	}
	for _, c := range copies {
		addCopy(c)
	}

	// Phase 2: add copies where the storage radius demands one.
	if !opt.SkipPhase2 {
		k := opt.p2()
		for {
			added := false
			for v := 0; v < n; v++ {
				if !has[v] && near[v] > k*radii[v].RS {
					addCopy(v)
					added = true
				}
			}
			if !added {
				break
			}
		}
	}

	// Phase 3: delete clustered copies, scanning in ascending write radius.
	if !opt.SkipPhase3 {
		k := opt.p3()
		w := obj.TotalWrites()
		for v := 0; v < n; v++ {
			if has[v] {
				order = append(order, v)
			}
		}
		// Write radii for the candidates only — the expensive scans of the
		// pipeline. Candidates are independent, so the range is partitioned
		// across the intra-solve workers; each writes its own rw(v), so the
		// merged table is byte-identical to the serial fill.
		if par >= 2 && len(order) >= 2 {
			metric.WriteRadiiParallel(o, req, w, order, radii, par)
		} else {
			for _, v := range order {
				radii[v].RW = ws.mws.WriteRadius(o, req, w, v)
			}
		}
		sort.SliceStable(order, func(a, b int) bool {
			if radii[order[a]].RW != radii[order[b]].RW {
				return radii[order[a]].RW < radii[order[b]].RW
			}
			return order[a] < order[b]
		})
		scanBased := o.Kind() == metric.KindLazy
		for _, v := range order {
			if !has[v] {
				continue // already deleted by an earlier scan
			}
			if scanBased {
				// A copy u is deleted when d(u, v) <= k * rw(u), so no
				// deletion can happen beyond k * max alive rw: sweep the
				// ball up to that radius instead of fetching copy rows.
				limit := 0.0
				for _, u := range order {
					if u != v && has[u] && k*radii[u].RW > limit {
						limit = k * radii[u].RW
					}
				}
				metric.ScanNear(o, v, func(u int, d float64) bool {
					if d > limit {
						return false
					}
					if u != v && has[u] && d <= k*radii[u].RW {
						has[u] = false
					}
					return true
				})
				continue
			}
			for _, u := range order {
				if u == v || !has[u] {
					continue
				}
				if o.Dist(u, v) <= k*radii[u].RW {
					has[u] = false
				}
			}
		}
	}

	out := make([]int, 0, n)
	for v := 0; v < n; v++ {
		if has[v] {
			out = append(out, v)
		}
	}
	if len(out) == 0 {
		// Cannot happen (phase 3 never deletes the scanned copy), but keep
		// the placement well-formed under pathological custom factors.
		out = append(out, copies[0])
	}
	return out
}

// graphInf is +Inf, for nearest-copy scans.
var graphInf = math.Inf(1)

// ProperReport describes how a placement relates to the proper-placement
// conditions of Section 2.1 for one object.
type ProperReport struct {
	// MaxK1 is the smallest k1 such that every node has a copy within
	// k1 * max(rw(v), rs(v)). Lemma 8 guarantees k1 <= 29 for the
	// algorithm's output.
	MaxK1 float64
	// MinPairFactor is the largest k such that all copy pairs (u, v) are at
	// distance >= k * max(rw(u), rw(v)); property 2 requires >= 2*k2 = 4.
	MinPairFactor float64
	// Copies is the number of copies.
	Copies int
}

// CheckProper measures the proper-placement constants achieved by a copy
// set for one object, to let tests assert Lemma 8 as an executable
// invariant.
func (in *Instance) CheckProper(obj *Object, copies []int) ProperReport {
	o := in.Metric()
	req := obj.Requests()
	radii := metric.ComputeRadii(o, req, obj.TotalWrites(), in.Storage)
	near := metric.NearestOf(o, copies)
	rep := ProperReport{Copies: len(copies), MinPairFactor: graphInf}
	for v := 0; v < in.N(); v++ {
		best := near[v]
		m := radii[v].RW
		if radii[v].RS > m {
			m = radii[v].RS
		}
		if m == 0 {
			if best > 0 {
				rep.MaxK1 = graphInf
			}
			continue
		}
		if f := best / m; f > rep.MaxK1 {
			rep.MaxK1 = f
		}
	}
	for i, u := range copies {
		for _, v := range copies[i+1:] {
			m := radii[u].RW
			if radii[v].RW > m {
				m = radii[v].RW
			}
			if m == 0 {
				continue
			}
			if f := o.Dist(u, v) / m; f < rep.MinPairFactor {
				rep.MinPairFactor = f
			}
		}
	}
	return rep
}

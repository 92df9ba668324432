// Package facility solves the uncapacitated facility location problem (UFL)
// with combinatorial algorithms. Phase 1 of the paper's approximation
// algorithm reduces static data management to UFL on the "related facility
// location problem" (all writes treated as reads); the paper only requires
// some constant-factor UFL algorithm, so this package provides the three
// classic LP-free ones its reference list points at:
//
//   - local search with add/drop/swap moves (Korupolu, Plaxton, Rajaraman),
//   - the Jain–Vazirani primal–dual algorithm (3-approximation),
//   - the Mettu–Plaxton radius-greedy algorithm (3-approximation),
//
// plus an exact brute-force solver for evaluation on small instances.
//
// Distances come from a pluggable metric.Oracle. Jain–Vazirani and the
// greedy are inherently Θ(n²)-query algorithms. Local search prices each
// move in O(n) from every client's nearest and second-nearest open
// facility, but still reads all n rows on every sweep. All three belong on
// small instances (dense backend); Mettu–Plaxton is written against
// nearest-first ball scans and runs on large sparse networks with a lazy
// backend without ever touching a full matrix.
package facility

import (
	"math"
	"sort"

	"netplace/internal/metric"
)

// Instance is a UFL instance over a finite metric: Open[i] is the cost of
// opening a facility at node i; Demand[j] is the (integral) request weight
// of client j; Metric is the distance oracle. Facilities and clients share
// the node universe 0..n-1, as in the data-management reduction where every
// node may both issue requests and hold a copy.
type Instance struct {
	Open   []float64
	Demand []int64
	Metric metric.Oracle

	// Parallel bounds the goroutines sharding Mettu–Plaxton's per-node
	// radius scans (each node's payment-ball walk is independent). 0 and
	// 1 run serially; negative selects GOMAXPROCS. Results are identical
	// either way; the greedy open pass is sequential regardless. The
	// other solvers ignore it.
	Parallel int

	// Reusable scratch, grown on demand and kept across calls so a solver
	// instance threaded through repeated solves (the core workspace reuses
	// one per worker) does not allocate per object. Instances are therefore
	// not safe for concurrent use.
	scratch []float64 // nearest-facility buffer for Cost
	mpR     []float64 // Mettu–Plaxton radii
	mpOrder []int     // Mettu–Plaxton scan order
	mpOpen  []bool    // Mettu–Plaxton open-facility flags
	ls      lsState   // local-search move-pricing state

	// Pre-bound scan callbacks with their state structs: a closure passed
	// through the metric.Oracle interface escapes, so building one per
	// node used to allocate the closure and every captured accumulator on
	// each of Mettu–Plaxton's 2n ball scans.
	mpRadSt  mpRadiusState
	mpRadFn  func(u int, d float64) bool
	mpOpenSt mpOpenState
	mpOpenFn func(u int, d float64) bool
}

// mpRadiusState accumulates one mpRadius ball walk: slope is the demand
// inside the current ball, value the left-hand side of the payment
// equation at the current radius.
type mpRadiusState struct {
	demand []int64
	target float64
	slope  int64
	value  float64
	radius float64
	solved float64
}

// step consumes one scanned node of the payment-ball walk.
func (st *mpRadiusState) step(u int, d float64) bool {
	if st.slope > 0 {
		// advance radius to d
		need := (st.target - st.value) / float64(st.slope)
		if st.radius+need <= d {
			st.solved = st.radius + need
			return false
		}
		st.value += float64(st.slope) * (d - st.radius)
	}
	st.radius = d
	st.slope += st.demand[u]
	return true
}

// mpOpenState tracks the open-facility ball check: ok turns false when an
// already-open facility appears within the limit radius.
type mpOpenState struct {
	isOpen []bool
	limit  float64
	ok     bool
}

// step consumes one scanned node of the open-facility check.
func (st *mpOpenState) step(u int, d float64) bool {
	if d > st.limit {
		return false
	}
	if st.isOpen[u] {
		st.ok = false
		return false
	}
	return true
}

// N returns the number of nodes.
func (in *Instance) N() int { return len(in.Open) }

// nearestOpen fills in.scratch with each client's distance to the nearest
// open facility, iterating facility rows (row-shaped access keeps a lazy
// backend's cache on the small facility set, not the whole client universe).
// Instances are not safe for concurrent Cost calls because of this buffer.
func (in *Instance) nearestOpen(open []int) []float64 {
	n := in.N()
	if cap(in.scratch) < n {
		in.scratch = make([]float64, n)
	}
	best := in.scratch[:n]
	for j := range best {
		best[j] = math.Inf(1)
	}
	for _, f := range open {
		row := in.Metric.Row(f)
		for j, d := range row {
			if d < best[j] {
				best[j] = d
			}
		}
	}
	return best
}

// Cost returns the UFL objective of opening exactly the given facility set:
// total opening cost plus each client's demand times its distance to the
// nearest open facility. An empty set costs +Inf.
func (in *Instance) Cost(open []int) float64 {
	if len(open) == 0 {
		return math.Inf(1)
	}
	c := 0.0
	for _, f := range open {
		c += in.Open[f]
	}
	best := in.nearestOpen(open)
	for j := 0; j < in.N(); j++ {
		if in.Demand[j] == 0 {
			continue
		}
		c += float64(in.Demand[j]) * best[j]
	}
	return c
}

// ConnectionCost returns only the service part of the objective.
func (in *Instance) ConnectionCost(open []int) float64 {
	c := 0.0
	best := in.nearestOpen(open)
	for j := 0; j < in.N(); j++ {
		if in.Demand[j] == 0 {
			continue
		}
		c += float64(in.Demand[j]) * best[j]
	}
	return c
}

// Solver is a UFL algorithm: it returns a non-empty facility set.
type Solver func(in *Instance) []int

// BruteForce enumerates all non-empty facility subsets and returns an
// optimal one. Exponential; use only for n <= ~20 in evaluation.
func BruteForce(in *Instance) []int {
	n := in.N()
	if n > 24 {
		panic("facility: brute force instance too large")
	}
	bestCost := math.Inf(1)
	var best []int
	set := make([]int, 0, n)
	for mask := 1; mask < 1<<n; mask++ {
		set = set[:0]
		for v := 0; v < n; v++ {
			if mask&(1<<v) != 0 {
				set = append(set, v)
			}
		}
		if c := in.Cost(set); c < bestCost {
			bestCost = c
			best = append(best[:0], set...)
		}
	}
	return best
}

// LocalSearch runs add/drop/swap local search starting from the best single
// facility, accepting a move only if it improves the objective by more than
// a (1 + eps/n) factor so termination is polynomial. With eps -> 0 the
// solution is a (5)-approximation (Korupolu et al.); we use eps = 1e-6.
//
// Moves are priced incrementally with the fast-interchange bookkeeping of
// Resende and Werneck: for the current open set S every client keeps its
// nearest and second-nearest open distance, so the cost of S+u, S−v or
// S−v+u is one O(n) pass over the candidate's row instead of a fold over
// |S|+1 rows. A sweep therefore prices n adds, |S| drops and |S|·n swaps
// in O(|S|·n²) time, and the bookkeeping is rebuilt from S's rows only
// after an accepted move. Each price is the float Cost returns for the
// same set, so every accept/reject decision is Cost's. Every sweep still
// reads all n rows: a small-instance (dense backend) solver.
//
// If every single facility costs +Inf (fees overflowing float64), the
// search starts from facility 0 and keeps it.
func LocalSearch(in *Instance) []int {
	n := in.N()
	if n == 0 {
		return nil
	}
	ls := &in.ls
	ls.reset(n)
	// Start: best single facility, priced as an add to the empty set.
	best, bestCost := 0, math.Inf(1)
	base := ls.openCost(in.Open, -1)
	for v := 0; v < n; v++ {
		if c := price(in.Demand, base+in.Open[v], ls.d1, in.Metric.Row(v)); c < bestCost {
			best, bestCost = v, c
		}
	}
	ls.insert(best)
	cur := bestCost
	const eps = 1e-6

	for iter := 0; iter < 10000; iter++ {
		ls.refresh(in.Metric)
		limit := cur * (1 - eps/float64(n))
		improved := false
		// Add moves.
		base := ls.openCost(in.Open, -1)
		for u := 0; u < n; u++ {
			if ls.open[u] {
				continue
			}
			if c := price(in.Demand, base+in.Open[u], ls.d1, in.Metric.Row(u)); c < limit {
				ls.insert(u)
				cur = c
				improved = true
				break
			}
		}
		// Drop moves.
		if !improved && len(ls.set) > 1 {
			for _, v := range ls.set {
				field := ls.dropField(v)
				if c := price(in.Demand, ls.openCost(in.Open, v), field, field); c < limit {
					ls.remove(v)
					cur = c
					improved = true
					break
				}
			}
		}
		// Swap moves.
		if !improved {
		swaps:
			for _, v := range ls.set {
				field := ls.dropField(v)
				base := ls.openCost(in.Open, v)
				for u := 0; u < n; u++ {
					if ls.open[u] {
						continue
					}
					if c := price(in.Demand, base+in.Open[u], field, in.Metric.Row(u)); c < limit {
						ls.remove(v)
						ls.insert(u)
						cur = c
						improved = true
						break swaps
					}
				}
			}
		}
		if !improved {
			break
		}
	}
	return append([]int(nil), ls.set...)
}

// lsState is LocalSearch's bookkeeping for the current open set: for
// every client j, d1[j] is the distance to its nearest open facility
// near[j] and d2[j] the distance to the nearest other one (+Inf while one
// facility is open). field is scratch for one facility's drop.
type lsState struct {
	d1, d2 []float64
	near   []int
	field  []float64
	open   []bool
	set    []int // open facilities, ascending
}

// reset sizes the state for n nodes with no facility open: d1 is +Inf
// everywhere, so an add prices the facility alone. refresh fills the rest.
func (ls *lsState) reset(n int) {
	if cap(ls.d1) < n {
		ls.d1 = make([]float64, n)
		ls.d2 = make([]float64, n)
		ls.near = make([]int, n)
		ls.field = make([]float64, n)
		ls.open = make([]bool, n)
		ls.set = make([]int, 0, n)
	}
	ls.d1, ls.d2, ls.near = ls.d1[:n], ls.d2[:n], ls.near[:n]
	ls.field, ls.open, ls.set = ls.field[:n], ls.open[:n], ls.set[:0]
	inf := math.Inf(1)
	for j := range ls.d1 {
		ls.d1[j], ls.open[j] = inf, false
	}
}

// insert opens facility u, keeping set ascending.
func (ls *lsState) insert(u int) {
	i := sort.SearchInts(ls.set, u)
	ls.set = append(ls.set, 0)
	copy(ls.set[i+1:], ls.set[i:])
	ls.set[i] = u
	ls.open[u] = true
}

// remove closes facility v.
func (ls *lsState) remove(v int) {
	i := sort.SearchInts(ls.set, v)
	ls.set = append(ls.set[:i], ls.set[i+1:]...)
	ls.open[v] = false
}

// refresh rebuilds d1, near and d2 from the open facilities' rows.
func (ls *lsState) refresh(o metric.Oracle) {
	d1, d2, near := ls.d1, ls.d2, ls.near
	inf := math.Inf(1)
	for j := range d1 {
		d1[j], d2[j], near[j] = inf, inf, -1
	}
	for _, f := range ls.set {
		row := o.Row(f)[:len(d1)]
		for j, d := range row {
			if d < d1[j] {
				d2[j], d1[j], near[j] = d1[j], d, f
			} else if d < d2[j] {
				d2[j] = d
			}
		}
	}
}

// dropField returns every client's nearest open distance once v closes.
func (ls *lsState) dropField(v int) []float64 {
	field := ls.field
	for j, f := range ls.near {
		if f == v {
			field[j] = ls.d2[j]
		} else {
			field[j] = ls.d1[j]
		}
	}
	return field
}

// openCost folds the opening costs of the open set minus skip in
// ascending order, as Cost folds an ascending set; a price then adds the
// candidate's cost last, as Cost does for the set with it appended.
func (ls *lsState) openCost(open []float64, skip int) float64 {
	c := 0.0
	for _, f := range ls.set {
		if f != skip {
			c += open[f]
		}
	}
	return c
}

// price returns c plus each client's demand times min(base[j], row[j]),
// its distance to the nearest facility of a set whose distance field is
// base, extended by the facility with row. The fold is Cost's own —
// increasing j, zero demand skipped, the same expression shape so the
// compiler fuses the same operations — so price and Cost agree to the
// last bit on the same set. A drop passes its field as both arguments.
func price(demand []int64, c float64, base, row []float64) float64 {
	base, row = base[:len(demand)], row[:len(demand)]
	for j, dem := range demand {
		if dem == 0 {
			continue
		}
		b := base[j]
		if row[j] < b {
			b = row[j]
		}
		c += float64(dem) * b
	}
	return c
}

// MettuPlaxton runs the Mettu–Plaxton radius-greedy algorithm: for every
// node compute the radius r(v) at which the ball around v "pays for" the
// opening cost, then scan nodes by ascending radius and open v unless an
// already-open facility lies within 2 r(v). 3-approximation.
//
// Both steps are nearest-first ball scans that stop as soon as they are
// resolved, so on a lazy backend the algorithm explores only the payment
// ball of each node — this is the phase-1 solver that scales to 50k+ node
// sparse networks.
func MettuPlaxton(in *Instance) []int {
	n := in.N()
	if cap(in.mpR) < n {
		in.mpR = make([]float64, n)
		in.mpOrder = make([]int, n)
		in.mpOpen = make([]bool, n)
	}
	r := in.mpR[:n]
	if workers := metric.ShardWorkers(in.Parallel, n, metric.ShardBlock); workers > 1 {
		mpRadiiParallel(in, r, workers)
	} else {
		for v := 0; v < n; v++ {
			r[v] = mpRadius(in, v)
		}
	}
	order := in.mpOrder[:n]
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return r[order[a]] < r[order[b]] })
	var open []int
	isOpen := in.mpOpen[:n]
	for i := range isOpen {
		isOpen[i] = false
	}
	pointCheap := in.Metric.Kind() != metric.KindLazy
	for _, v := range order {
		ok := true
		if pointCheap {
			for _, f := range open {
				if in.Metric.Dist(v, f) <= 2*r[v] {
					ok = false
					break
				}
			}
		} else {
			// Ball scan: an open facility within 2 r(v) is found before the
			// scan passes that radius; the scan never leaves the ball.
			if in.mpOpenFn == nil {
				in.mpOpenFn = func(u int, d float64) bool { return in.mpOpenSt.step(u, d) }
			}
			in.mpOpenSt = mpOpenState{isOpen: isOpen, limit: 2 * r[v], ok: true}
			metric.ScanNear(in.Metric, v, in.mpOpenFn)
			ok = in.mpOpenSt.ok
		}
		if ok {
			open = append(open, v)
			isOpen[v] = true
		}
	}
	if len(open) == 0 && n > 0 {
		open = append(open, order[0])
	}
	sort.Ints(open)
	return open
}

// mpRadius solves sum_{u: d(u,v) <= r} demand(u) * (r - d(u,v)) = open(v)
// for r. The left side is piecewise linear and increasing in r, so walk the
// request ball outward accumulating slope and stop at the paying radius —
// nodes beyond it are never visited. State and callback live on the
// Instance so the per-node walk allocates nothing.
func mpRadius(in *Instance, v int) float64 {
	if in.mpRadFn == nil {
		in.mpRadFn = func(u int, d float64) bool { return in.mpRadSt.step(u, d) }
	}
	return mpRadiusWith(in, &in.mpRadSt, in.mpRadFn, v)
}

// mpRadiusWith is mpRadius against caller-owned scan state, so sharded
// workers can each walk their own balls concurrently.
func mpRadiusWith(in *Instance, st *mpRadiusState, fn func(u int, d float64) bool, v int) float64 {
	*st = mpRadiusState{demand: in.Demand, target: in.Open[v], solved: math.Inf(1)}
	metric.ScanNear(in.Metric, v, fn)
	if !math.IsInf(st.solved, 1) {
		return st.solved
	}
	if st.slope == 0 {
		return math.Inf(1) // no demand anywhere: never pays off
	}
	return st.radius + (st.target-st.value)/float64(st.slope)
}

// mpRadiiParallel fills r with every node's Mettu–Plaxton radius using
// workers goroutines (metric.Shard's block cursor), each with private
// scan state writing disjoint entries — values identical to the serial
// loop, in any schedule.
func mpRadiiParallel(in *Instance, r []float64, workers int) {
	metric.Shard(len(r), metric.ShardBlock, workers, func(claim func() (int, int, bool)) {
		var st mpRadiusState
		fn := func(u int, d float64) bool { return st.step(u, d) }
		for {
			lo, hi, ok := claim()
			if !ok {
				return
			}
			for v := lo; v < hi; v++ {
				r[v] = mpRadiusWith(in, &st, fn, v)
			}
		}
	})
}

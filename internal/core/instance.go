// Package core implements the paper's primary contribution: the cost-based
// static data management model (Section 1.1) and the combinatorial
// constant-factor approximation algorithm for arbitrary networks
// (Section 2), together with cost accounting, baselines, and the
// proper-placement invariants of Lemma 8.
package core

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"netplace/internal/graph"
	"netplace/internal/metric"
)

// Object holds the request frequencies of one shared data object:
// Reads[v] = fr(v, x), Writes[v] = fw(v, x).
//
// Size realises the paper's non-uniform model ("all our results hold also
// in a non-uniform model"): fees are per byte, so an object of Size s pays
// s * cs(v) per stored copy and s * ct(e) per traversed edge. Size <= 0 is
// normalised to 1 by NewInstance. Because Size scales storage and
// transmission identically, the optimal copy set of an object is invariant
// under it; only the bill changes (tests assert both facts).
type Object struct {
	Name   string
	Size   float64
	Reads  []int64
	Writes []int64
}

// Scale returns the normalised object size (1 when Size is unset).
func (o *Object) Scale() float64 {
	if o.Size <= 0 {
		return 1
	}
	return o.Size
}

// TotalReads returns sum_v fr(v).
func (o *Object) TotalReads() int64 {
	var t int64
	for _, r := range o.Reads {
		t += r
	}
	return t
}

// TotalWrites returns W = sum_v fw(v), the paper's total write count.
func (o *Object) TotalWrites() int64 {
	var t int64
	for _, w := range o.Writes {
		t += w
	}
	return t
}

// Requests returns the request multiset fr + fw used by the radius
// definitions and by the related facility location problem.
func (o *Object) Requests() metric.Requests {
	return o.RequestsInto(make([]int64, len(o.Reads)))
}

// RequestsInto is Requests writing into buf, a caller-owned buffer of
// length len(Reads): the allocation-free form for pooled solve workspaces.
func (o *Object) RequestsInto(buf []int64) metric.Requests {
	for v := range buf {
		buf[v] = o.Reads[v] + o.Writes[v]
	}
	return metric.Requests{Count: buf}
}

// MetricBackend selects a distance-oracle backend for an instance.
type MetricBackend int

const (
	// MetricAuto picks by network shape and size: dense up to
	// DenseMetricMaxNodes, the O(1)-per-query tree oracle for larger tree
	// networks, and the lazy row-cached oracle for everything bigger.
	MetricAuto MetricBackend = iota
	// MetricDense materializes the full Θ(n²) matrix.
	MetricDense
	// MetricLazy computes rows on demand behind a bounded LRU cache.
	MetricLazy
	// MetricTree uses LCA depths; valid only for tree networks.
	MetricTree
)

// DenseMetricMaxNodes is the largest network for which MetricAuto still
// materializes the dense matrix (2048² float64s ≈ 33 MB). Above it the
// auto-selected backend is memory-bounded.
const DenseMetricMaxNodes = 2048

// Instance is a static data management problem: a network with storage fees
// cs(v) and a set of shared objects with read/write frequencies. The metric
// ct(v, v') is the shortest-path closure of the network's edge fees, which
// the paper proves is a metric; it is served by a pluggable distance oracle
// (dense matrix, lazy row cache, or tree LCA) selected on first use.
type Instance struct {
	G       *graph.Graph
	Storage []float64
	Objects []Object

	mu     sync.Mutex
	oracle metric.Oracle
}

// NewInstance validates and assembles an instance.
func NewInstance(g *graph.Graph, storage []float64, objects []Object) (*Instance, error) {
	if len(storage) != g.N() {
		return nil, fmt.Errorf("core: storage has %d entries for %d nodes", len(storage), g.N())
	}
	for _, s := range storage {
		if s < 0 || math.IsNaN(s) {
			return nil, fmt.Errorf("core: negative or NaN storage cost %v", s)
		}
	}
	for i := range objects {
		o := &objects[i]
		if len(o.Reads) != g.N() || len(o.Writes) != g.N() {
			return nil, fmt.Errorf("core: object %d frequency vectors must have length %d", i, g.N())
		}
		if math.IsNaN(o.Size) || math.IsInf(o.Size, 0) {
			return nil, fmt.Errorf("core: object %d has invalid size %v", i, o.Size)
		}
		if o.Size <= 0 {
			o.Size = 1
		}
		for v := 0; v < g.N(); v++ {
			if o.Reads[v] < 0 || o.Writes[v] < 0 {
				return nil, fmt.Errorf("core: object %d has negative frequency at node %d", i, v)
			}
		}
	}
	if !g.Connected() {
		return nil, fmt.Errorf("core: network must be connected")
	}
	if err := checkFees(g, storage, objects); err != nil {
		return nil, err
	}
	return &Instance{G: g, Storage: storage, Objects: objects}, nil
}

// ErrFeeOverflow reports fees and request counts so large that the cost of
// a placement can overflow float64. Every cost then compares as +Inf, so
// no placement is better than another.
var ErrFeeOverflow = errors.New("core: fees overflow float64")

// checkFees returns an ErrFeeOverflow error unless the edge-fee sum is
// finite and, for every object, so is storage sum + edge-fee sum × (reads
// + writes): an upper bound on the cost of serving the object from any
// one node, which keeps phase 1's starting facility well defined.
func checkFees(g *graph.Graph, storage []float64, objects []Object) error {
	edges, stored := g.TotalWeight(), 0.0
	for _, s := range storage {
		stored += s
	}
	if math.IsInf(edges, 0) {
		return fmt.Errorf("%w: edge fees sum to %v", ErrFeeOverflow, edges)
	}
	for i := range objects {
		o := &objects[i]
		requests := 0.0 // summed in float64: an int64 sum can wrap
		for v := range o.Reads {
			requests += float64(o.Reads[v]) + float64(o.Writes[v])
		}
		if err := feeBound(edges, stored, requests); err != nil {
			return fmt.Errorf("object %d: %w", i, err)
		}
	}
	return nil
}

// feeBound is checkFees' per-object test.
func feeBound(edges, stored, requests float64) error {
	if bound := stored + edges*requests; math.IsInf(bound, 0) {
		return fmt.Errorf("%w: storage sum %g + edge-fee sum %g × %g requests", ErrFeeOverflow, stored, edges, requests)
	}
	return nil
}

// CheckRequests applies NewInstance's per-object fee bound to an object
// with the given number of requests (reads plus writes) on this
// instance's network. Callers whose demand arrives later, such as a
// streaming session's quantised estimates, check their largest total up
// front.
func (in *Instance) CheckRequests(requests float64) error {
	stored := 0.0
	for _, s := range in.Storage {
		stored += s
	}
	return feeBound(in.G.TotalWeight(), stored, requests)
}

// WithObjects returns a variant of the instance carrying the given objects
// while sharing the network, storage fees, and — crucially — the
// already-built metric oracle, whose warmed caches make re-solving a
// changed object nearly free. Objects are validated like NewInstance's,
// fee bound included (the shared network needs no re-validation). It is
// the substrate of the service's incremental what-if path.
func (in *Instance) WithObjects(objects []Object) (*Instance, error) {
	for i := range objects {
		o := &objects[i]
		if len(o.Reads) != in.G.N() || len(o.Writes) != in.G.N() {
			return nil, fmt.Errorf("core: object %d frequency vectors must have length %d", i, in.G.N())
		}
		if math.IsNaN(o.Size) || math.IsInf(o.Size, 0) {
			return nil, fmt.Errorf("core: object %d has invalid size %v", i, o.Size)
		}
		if o.Size <= 0 {
			o.Size = 1
		}
		for v := 0; v < in.G.N(); v++ {
			if o.Reads[v] < 0 || o.Writes[v] < 0 {
				return nil, fmt.Errorf("core: object %d has negative frequency at node %d", i, v)
			}
		}
	}
	if err := checkFees(in.G, in.Storage, objects); err != nil {
		return nil, err
	}
	out := &Instance{G: in.G, Storage: in.Storage, Objects: objects}
	out.SetMetric(in.Metric())
	return out, nil
}

// QuantiseDemand converts an estimated per-event rate vector into the
// integral frequency table the solvers consume: dst[v] = round(rate[v] *
// scale), clamped at zero. scale is the number of events the demand patch
// should represent — typically the horizon one storage fee amortises
// over, so that estimated traffic and storage fees meet at the same
// balance point the static model uses. It is the quantisation step of
// every estimate-driven re-solve (internal/stream, and any controller
// patching demand through Instance.WithObjects).
func QuantiseDemand(dst []int64, rate []float64, scale float64) {
	for v := range dst {
		c := math.Round(rate[v] * scale)
		if c < 0 || math.IsNaN(c) {
			c = 0
		}
		dst[v] = int64(c)
	}
}

// MustInstance is NewInstance that panics on error; for tests and examples.
func MustInstance(g *graph.Graph, storage []float64, objects []Object) *Instance {
	in, err := NewInstance(g, storage, objects)
	if err != nil {
		panic(err)
	}
	return in
}

// N returns the number of network nodes.
func (in *Instance) N() int { return in.G.N() }

// Metric returns the instance's distance oracle, auto-selecting a backend
// on first use (see MetricAuto). Safe for concurrent use.
func (in *Instance) Metric() metric.Oracle {
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.oracle == nil {
		in.oracle = in.buildOracle(MetricAuto, 0)
	}
	return in.oracle
}

// SetMetric installs a specific oracle, overriding auto-selection. Install
// before the first solve; switching backends mid-computation is safe for
// correctness (all backends agree on distances) but wastes whatever the
// previous backend cached.
func (in *Instance) SetMetric(o metric.Oracle) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.oracle = o
}

// UseMetric selects a backend by name. cacheRows bounds the lazy backend's
// row cache (0 selects the default budget); other backends ignore it. An
// already-installed oracle of the requested backend is kept — except a lazy
// oracle whose budget differs from an explicitly requested cacheRows, which
// is rebuilt so MetricRows actually caps memory.
func (in *Instance) UseMetric(b MetricBackend, cacheRows int) {
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.oracle != nil && backendOf(in.oracle) == b {
		l, ok := in.oracle.(*metric.Lazy)
		if !ok || cacheRows <= 0 || l.Budget() == cacheRows {
			return
		}
	}
	in.oracle = in.buildOracle(b, cacheRows)
}

// backendOf maps an oracle back to the selector that would build it.
func backendOf(o metric.Oracle) MetricBackend {
	switch o.Kind() {
	case metric.KindDense:
		return MetricDense
	case metric.KindLazy:
		return MetricLazy
	case metric.KindTree:
		return MetricTree
	}
	return MetricAuto
}

// buildOracle constructs the requested backend; called with in.mu held.
func (in *Instance) buildOracle(b MetricBackend, cacheRows int) metric.Oracle {
	if b == MetricAuto {
		switch {
		case in.G.N() <= DenseMetricMaxNodes:
			b = MetricDense
		case in.G.IsTree():
			b = MetricTree
		default:
			b = MetricLazy
		}
	}
	switch b {
	case MetricDense:
		return metric.New(in.G.AllPairsParallel(0))
	case MetricTree:
		if !in.G.IsTree() {
			panic("core: MetricTree on a non-tree network")
		}
		return metric.NewTree(in.G)
	default:
		return metric.NewLazy(in.G, cacheRows)
	}
}

// Placement assigns every object a non-empty copy set (node ids, sorted).
type Placement struct {
	Copies [][]int
}

// Clone deep-copies a placement.
func (p Placement) Clone() Placement {
	c := Placement{Copies: make([][]int, len(p.Copies))}
	for i, s := range p.Copies {
		c.Copies[i] = append([]int(nil), s...)
	}
	return c
}

// Validate checks that the placement matches the instance shape: one
// non-empty copy set of in-range nodes per object.
func (p Placement) Validate(in *Instance) error {
	if len(p.Copies) != len(in.Objects) {
		return fmt.Errorf("core: placement covers %d objects, instance has %d", len(p.Copies), len(in.Objects))
	}
	for i, s := range p.Copies {
		if len(s) == 0 {
			return fmt.Errorf("core: object %d has no copies", i)
		}
		for _, v := range s {
			if v < 0 || v >= in.N() {
				return fmt.Errorf("core: object %d placed on invalid node %d", i, v)
			}
		}
	}
	return nil
}

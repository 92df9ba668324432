package service

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"netplace/internal/core"
	"netplace/internal/encode"
	"netplace/internal/facility"
	"netplace/internal/netsim"
	"netplace/internal/solver"
	"netplace/internal/tree"
)

// SolveOptions is the wire form of a solve request: core.Options plus the
// algorithm selector, with every function-valued knob replaced by a name so
// requests are serialisable and canonically comparable for caching.
type SolveOptions struct {
	// Algo selects the algorithm: "approx" (default; the paper's Section 2
	// approximation), "tree" (exact Section 3 DP, tree networks only),
	// "optimal" (exact subset enumeration, ≤ 18 nodes), or a baseline:
	// "single", "full", "greedy", "fl-only".
	Algo string `json:"algo,omitempty"`
	// FL names the phase-1 facility location solver: "local-search",
	// "jain-vazirani", "mettu-plaxton", "greedy". Empty auto-selects by
	// instance size (see core.Options.FL).
	FL string `json:"fl,omitempty"`
	// Phase2Factor / Phase3Factor override the paper's 5·rs and 4·rw
	// thresholds; zero keeps the defaults.
	Phase2Factor float64 `json:"phase2_factor,omitempty"`
	Phase3Factor float64 `json:"phase3_factor,omitempty"`
	// SkipPhase2 / SkipPhase3 disable the augmentation and thinning phases.
	SkipPhase2 bool `json:"skip_phase2,omitempty"`
	SkipPhase3 bool `json:"skip_phase3,omitempty"`
}

// flSolvers maps wire names to facility location solvers.
var flSolvers = map[string]facility.Solver{
	"local-search":  facility.LocalSearch,
	"jain-vazirani": facility.JainVazirani,
	"mettu-plaxton": facility.MettuPlaxton,
	"greedy":        facility.Greedy,
}

// algos is the set of accepted Algo values ("" means "approx").
var algos = map[string]bool{
	"": true, "approx": true, "tree": true, "optimal": true,
	"single": true, "full": true, "greedy": true, "fl-only": true,
}

// normalize validates the options and resolves defaults so that two
// requests meaning the same solve normalise to identical values.
func (o SolveOptions) normalize() (SolveOptions, error) {
	if !algos[o.Algo] {
		return o, fmt.Errorf("service: unknown algo %q", o.Algo)
	}
	if o.Algo == "" {
		o.Algo = "approx"
	}
	if o.FL != "" {
		if _, ok := flSolvers[o.FL]; !ok {
			return o, fmt.Errorf("service: unknown facility location solver %q", o.FL)
		}
	}
	if o.Phase2Factor < 0 || o.Phase3Factor < 0 {
		return o, fmt.Errorf("service: negative phase factor")
	}
	if o.Phase2Factor == 0 {
		o.Phase2Factor = 5
	}
	if o.Phase3Factor == 0 {
		o.Phase3Factor = 4
	}
	return o, nil
}

// key renders normalised options canonically; together with the instance
// hash it is the solve-cache key.
func (o SolveOptions) key() string {
	var b strings.Builder
	b.WriteString("algo=")
	b.WriteString(o.Algo)
	b.WriteString("|fl=")
	b.WriteString(o.FL)
	b.WriteString("|p2=")
	b.WriteString(strconv.FormatFloat(o.Phase2Factor, 'g', -1, 64))
	b.WriteString("|p3=")
	b.WriteString(strconv.FormatFloat(o.Phase3Factor, 'g', -1, 64))
	b.WriteString("|s2=")
	b.WriteString(strconv.FormatBool(o.SkipPhase2))
	b.WriteString("|s3=")
	b.WriteString(strconv.FormatBool(o.SkipPhase3))
	return b.String()
}

// validateFor rejects normalised options that a specific resident
// instance cannot run — checks that must come before the solver, so a bad
// request neither fails inside a handler nor starts an intractable
// enumeration.
func (o SolveOptions) validateFor(in *core.Instance) error {
	n := in.N()
	if o.Algo == "optimal" && n > 18 {
		return fmt.Errorf("service: algo=optimal enumerates all copy sets; limited to 18 nodes (got %d)", n)
	}
	if o.Algo == "tree" && !in.G.IsTree() {
		return fmt.Errorf("service: algo=tree requires a tree network (%d nodes, %d edges)", n, in.G.M())
	}
	return nil
}

// coreOptions lowers normalised wire options to core.Options. workers is
// the solver's internal object-level parallelism; the engine divides
// GOMAXPROCS across its concurrent runs so the pool and the per-run
// fan-out do not multiply.
func (o SolveOptions) coreOptions(workers int) core.Options {
	return core.Options{
		FL:           flSolvers[o.FL], // nil for "": auto-select
		Phase2Factor: o.Phase2Factor,
		Phase3Factor: o.Phase3Factor,
		SkipPhase2:   o.SkipPhase2,
		SkipPhase3:   o.SkipPhase3,
		Workers:      workers,
	}
}

// BreakdownJSON is the wire form of a cost decomposition.
type BreakdownJSON struct {
	Storage float64 `json:"storage"`
	Read    float64 `json:"read"`
	Update  float64 `json:"update"`
	Total   float64 `json:"total"`
}

// breakdownJSON converts a core.Breakdown.
func breakdownJSON(b core.Breakdown) BreakdownJSON {
	return BreakdownJSON{Storage: b.Storage, Read: b.Read, Update: b.Update, Total: b.Total()}
}

// SolveResult is the wire form of a finished solve.
type SolveResult struct {
	// InstanceID and Options identify what was solved.
	InstanceID string       `json:"instance_id"`
	Options    SolveOptions `json:"options"`
	// Placement is the computed placement in wire form.
	Placement encode.PlacementJSON `json:"placement"`
	// Breakdown is the restricted-model (Section 2) cost of the placement.
	Breakdown BreakdownJSON `json:"breakdown"`
	// TreeCost is the Section 3 tree-model cost; present only for
	// algo=tree, whose optimality is stated in that model.
	TreeCost float64 `json:"tree_cost,omitempty"`
	// Copies is the total copy count across objects.
	Copies int `json:"copies"`
	// ElapsedMS is the solver's wall-clock run time (0 for cache hits).
	ElapsedMS float64 `json:"elapsed_ms"`
	// Cached reports that the result came from the solve cache; Shared that
	// it was computed once for several concurrent identical requests.
	Cached bool `json:"cached"`
	Shared bool `json:"shared,omitempty"`
	// Scenario echoes the label of the what-if scenario this result answers.
	Scenario string `json:"scenario,omitempty"`
	// Incremental reports that the scenario was served by the incremental
	// path: only ResolvedObjects objects were re-solved, the rest spliced
	// from the cached base solve.
	Incremental     bool `json:"incremental,omitempty"`
	ResolvedObjects int  `json:"resolved_objects,omitempty"`
	// Stale reports a degraded response: the solver was saturated and the
	// request opted in (X-Netplace-Allow-Stale), so this is the last
	// completed placement, StaleSeconds old (also in the
	// X-Netplace-Stale-Seconds response header).
	Stale        bool    `json:"stale,omitempty"`
	StaleSeconds float64 `json:"stale_seconds,omitempty"`
}

// Engine executes solves against registered instances with result caching,
// in-flight deduplication, and a bounded worker pool. Safe for concurrent
// use.
type Engine struct {
	cfg      Config
	registry *Registry
	cache    *resultCache
	bases    *resultCache // incremental what-if base records
	flight   flightGroup
	sem      chan struct{} // bounds concurrently executing solver runs
	counters *counters

	// stale holds the last completed solve per cache key for the degraded
	// read mode; solveEWMA smooths run wall-clock nanos for the
	// reject-on-arrival deadline check (see resilience.go).
	stale     *resultCache
	solveEWMA atomic.Int64

	// testHookSolveStart, when non-nil, runs at the top of every solver
	// execution; tests use it to hold a run in flight deterministically.
	testHookSolveStart func()
}

// NewEngine assembles an engine over a registry. counters may be shared
// with the enclosing server; it must be non-nil.
func NewEngine(cfg Config, reg *Registry, ct *counters) *Engine {
	cfg = cfg.withDefaults()
	return &Engine{
		cfg:      cfg,
		registry: reg,
		cache:    newResultCache(cfg.CacheEntries),
		bases:    newResultCache(cfg.CacheEntries),
		stale:    newResultCache(cfg.CacheEntries),
		sem:      make(chan struct{}, cfg.Workers),
		counters: ct,
	}
}

// Registry returns the engine's instance registry.
func (e *Engine) Registry() *Registry { return e.registry }

// runWorkers is the object-level parallelism one worker slot pays for:
// the machine's cores divided across the worker pool, at least 1 — so a
// single-slot pool still solves at full speed while a saturated pool does
// not oversubscribe the scheduler cfg.Workers × GOMAXPROCS-fold. A run
// that finds other slots free borrows them (see lend).
func (e *Engine) runWorkers() int {
	w := runtime.GOMAXPROCS(0) / e.cfg.Workers
	if w < 1 {
		w = 1
	}
	return w
}

// CacheLen returns the number of cached solve results.
func (e *Engine) CacheLen() int { return e.cache.Len() }

// Solve runs (or serves from cache) one solve of a registered instance.
// Identical concurrent requests collapse to a single solver execution; the
// context cancels waiting for a worker slot and, for algo=optimal, the
// enumeration itself. A request that was sharing a run whose leader got
// cancelled takes the solve over instead of inheriting the cancellation.
func (e *Engine) Solve(ctx context.Context, id string, opts SolveOptions) (SolveResult, error) {
	opts, err := opts.normalize()
	if err != nil {
		return SolveResult{}, err
	}
	in, info, ok := e.registry.Get(id)
	if !ok {
		return SolveResult{}, ErrNotFound
	}
	return e.solveOn(ctx, info.ID, info.Hash, in, opts)
}

// SolveSnapshot solves an instance that is NOT in the registry — the
// degraded failover path serving a read-only replica snapshot. It runs
// through the same cache and singleflight as Solve, keyed by the
// instance's content hash, so repeated failover reads of one instance
// cost a single solver run and a snapshot solve can even be answered
// from a result the replica cached while it still owned the key. opts
// must already be normalized by the caller's request decoding.
func (e *Engine) SolveSnapshot(ctx context.Context, id, hash string, in *core.Instance, opts SolveOptions) (SolveResult, error) {
	opts, err := opts.normalize()
	if err != nil {
		return SolveResult{}, err
	}
	return e.solveOn(ctx, id, hash, in, opts)
}

// solveOn is the shared solve kernel behind Solve and SolveSnapshot:
// validate the normalized options against the instance, then serve from
// the result cache or run under singleflight. In a cluster every call
// for an instance reaches its ring owner, so this cache and singleflight
// run each identical solve once cluster-wide (see docs/cluster.md).
func (e *Engine) solveOn(ctx context.Context, id, hash string, in *core.Instance, opts SolveOptions) (SolveResult, error) {
	if err := opts.validateFor(in); err != nil {
		return SolveResult{}, err
	}
	key := hash + "|" + opts.key()
	counted := false
	for {
		if res, ok := e.cache.Get(key); ok {
			e.counters.hits.Add(1)
			out := *res.(*SolveResult)
			out.Cached = true
			return out, nil
		}
		if !counted {
			e.counters.misses.Add(1)
			counted = true
		}
		val, err, shared := e.flight.Do(ctx, key, func() (any, error) {
			res, err := e.run(ctx, id, in, opts)
			if err != nil {
				return nil, err
			}
			e.cache.Put(key, res)
			e.keepStale(hash, res)
			return res, nil
		})
		if shared {
			e.counters.shared.Add(1)
		}
		if shared && errors.Is(err, context.Canceled) && ctx.Err() == nil {
			// The leader's client disconnected, not ours: take over and
			// solve (or join whoever already did).
			continue
		}
		if err != nil {
			return SolveResult{}, err
		}
		out := *(val.(*SolveResult))
		out.Shared = shared
		return out, nil
	}
}

// Batch solves len(variants) options variants of one instance across the
// engine's worker pool, collapsing duplicates through the same cache and
// singleflight as Solve. The i-th error slot is nil iff the i-th result is
// valid; the first context cancellation aborts remaining variants.
func (e *Engine) Batch(ctx context.Context, id string, variants []SolveOptions) ([]SolveResult, []error) {
	return fanOut(len(variants), func(i int) (SolveResult, error) {
		return e.Solve(ctx, id, variants[i])
	})
}

// fanOut runs solve(i) for every i in [0, n) concurrently and returns
// the index-aligned results and errors — the one fan-out behind Batch
// and WhatIf. Admission and the worker pool bound the actual solver
// runs.
func fanOut(n int, solve func(i int) (SolveResult, error)) ([]SolveResult, []error) {
	results := make([]SolveResult, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i], errs[i] = solve(i)
		}()
	}
	wg.Wait()
	return results, errs
}

// run executes one solver run under admission control, the worker-pool
// semaphore, and the configured timeout, then encodes and prices the
// placement. Resident solves enter it only as the singleflight leader,
// so identical concurrent solves consume one admission slot and load
// shedding never rejects a solve that would have been deduplicated
// anyway; full what-if scenarios enter it with their patched instance.
func (e *Engine) run(ctx context.Context, id string, in *core.Instance, opts SolveOptions) (*SolveResult, error) {
	if err := e.checkDeadline(ctx); err != nil {
		e.counters.errors.Add(1)
		return nil, err
	}
	release, err := e.admit(ctx)
	if err != nil {
		return nil, err
	}
	defer release()
	if e.cfg.SolveTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, e.cfg.SolveTimeout)
		defer cancel()
	}
	e.counters.runs.Add(1)
	if e.testHookSolveStart != nil {
		e.testHookSolveStart()
	}

	start := time.Now()
	res := &SolveResult{InstanceID: id, Options: opts}
	p, treeCost, err := e.solveInstance(ctx, in, opts)
	if err != nil {
		e.counters.errors.Add(1)
		return nil, err
	}
	res.TreeCost = treeCost
	pj, err := encode.PlacementJSONOf(in, p)
	if err != nil {
		e.counters.errors.Add(1)
		return nil, err
	}
	res.Placement = pj
	res.Breakdown = breakdownJSON(in.Cost(p))
	for _, c := range p.Copies {
		res.Copies += len(c)
	}
	elapsed := time.Since(start)
	e.observeSolveTime(elapsed)
	res.ElapsedMS = float64(elapsed) / float64(time.Millisecond)
	return res, nil
}

// solveInstance dispatches one solver run on an assembled instance while
// run holds its worker slot; an approx run widens itself with lent slots
// (see lend). The float64 result is the Section 3 tree cost, non-zero
// only for algo=tree.
func (e *Engine) solveInstance(ctx context.Context, in *core.Instance, opts SolveOptions) (core.Placement, float64, error) {
	switch opts.Algo {
	case "tree":
		return solveTree(in)
	case "optimal":
		sols, err := solver.OptimalRestrictedCtx(ctx, in)
		if err != nil {
			return core.Placement{}, 0, err
		}
		p := core.Placement{Copies: make([][]int, len(sols))}
		for i, s := range sols {
			p.Copies[i] = s.Copies
		}
		return p, 0, nil
	case "single":
		return core.SingleBest(in), 0, nil
	case "full":
		return core.FullReplication(in), 0, nil
	case "greedy":
		return core.GreedyAdd(in), 0, nil
	case "fl-only":
		return core.FacilityOnly(in, flSolvers[opts.FL]), 0, nil
	default: // "approx"
		workers, release := e.lend(len(in.Objects))
		defer release()
		return core.Approximate(in, opts.coreOptions(workers)), 0, nil
	}
}

// solveTree runs the Section 3 DP and returns the placement plus its
// tree-model cost.
func solveTree(in *core.Instance) (core.Placement, float64, error) {
	if !in.G.IsTree() {
		return core.Placement{}, 0, fmt.Errorf("service: algo=tree requires a tree network (%d nodes, %d edges)", in.G.N(), in.G.M())
	}
	t := tree.Build(in.G, 0)
	p := core.Placement{Copies: make([][]int, len(in.Objects))}
	total := 0.0
	for i := range in.Objects {
		obj := &in.Objects[i]
		copies, cost := t.Solve(in.Storage, obj.Reads, obj.Writes)
		if len(copies) == 0 {
			return core.Placement{}, 0, fmt.Errorf("%w: tree DP failed on object %d", ErrInternal, i)
		}
		p.Copies[i] = copies
		total += obj.Scale() * cost
	}
	return p, total, nil
}

// Cost evaluates a client-supplied placement against a registered instance
// under the restricted (Section 2) model.
func (e *Engine) Cost(id string, pj encode.PlacementJSON) (BreakdownJSON, error) {
	in, _, ok := e.registry.Get(id)
	if !ok {
		return BreakdownJSON{}, ErrNotFound
	}
	return costOn(in, pj)
}

// costOn evaluates a placement against an assembled instance — shared by
// Cost and the degraded replica-snapshot path (cost of a placement is a
// pure function of the instance bytes, so a hash-verified snapshot gives
// the exact same answer the owner would).
func costOn(in *core.Instance, pj encode.PlacementJSON) (BreakdownJSON, error) {
	p, err := pj.Placement(in)
	if err != nil {
		return BreakdownJSON{}, err
	}
	return breakdownJSON(in.Cost(p)), nil
}

// SimulationResult is the wire form of a message-level replay.
type SimulationResult struct {
	Requests         int64   `json:"requests"`
	Messages         int64   `json:"messages"`
	TransmissionCost float64 `json:"transmission_cost"`
	StorageCost      float64 `json:"storage_cost"`
	Total            float64 `json:"total"`
	MaxEdgeBill      float64 `json:"max_edge_bill"`
	FinalTime        float64 `json:"final_time"`
}

// Simulate replays the instance's workload against a client-supplied
// placement hop by hop via internal/netsim and returns the metered bill.
func (e *Engine) Simulate(id string, pj encode.PlacementJSON) (SimulationResult, error) {
	in, _, ok := e.registry.Get(id)
	if !ok {
		return SimulationResult{}, ErrNotFound
	}
	p, err := pj.Placement(in)
	if err != nil {
		return SimulationResult{}, err
	}
	sim, err := netsim.New(in, p)
	if err != nil {
		return SimulationResult{}, err
	}
	st := sim.Run()
	e.counters.simulations.Add(1)
	return SimulationResult{
		Requests:         st.Requests,
		Messages:         st.Messages,
		TransmissionCost: st.TransmissionCost,
		StorageCost:      st.StorageCost,
		Total:            st.Total(),
		MaxEdgeBill:      st.MaxEdgeBill(),
		FinalTime:        st.FinalTime,
	}, nil
}

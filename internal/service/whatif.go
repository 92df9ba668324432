package service

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"time"

	"netplace/internal/core"
	"netplace/internal/encode"
)

// ObjectPatch overrides one object's workload inputs in a what-if
// scenario. Omitted fields keep the base instance's values.
type ObjectPatch struct {
	// Name identifies the object by its wire name: Object.Name, or
	// object-<index> for unnamed objects.
	Name string `json:"name"`
	// Reads / Writes replace the per-node frequency vectors when non-nil.
	Reads  []int64 `json:"reads,omitempty"`
	Writes []int64 `json:"writes,omitempty"`
	// Size replaces the object size when non-nil. A size-only change never
	// re-solves: the optimal copy set is invariant under size (fees are per
	// byte on both storage and transmission), so the cached raw breakdown
	// is re-scaled instead.
	Size *float64 `json:"size,omitempty"`
}

// Scenario is one what-if variant of a resident instance: the base problem
// with some objects' demand vectors (and/or the storage fee vector)
// replaced. Scenarios that only touch object workloads are answered
// incrementally — the engine re-solves exactly the objects whose inputs
// differ from the base and splices the cached base solve for the rest,
// which is what makes a batched sweep of single-object tweaks over a large
// resident instance nearly free. A storage change invalidates every
// object's placement and falls back to a full solve, as does any algorithm
// other than "approx" (only the paper's algorithm treats objects
// independently object by object here).
type Scenario struct {
	// Label tags the scenario; it is echoed in the result.
	Label string `json:"label,omitempty"`
	// Objects patches named objects' inputs.
	Objects []ObjectPatch `json:"objects,omitempty"`
	// Storage, when non-nil, replaces the per-node storage fee vector.
	Storage []float64 `json:"storage,omitempty"`
}

// baseRecord is a cached base solve in spliceable form: per-object copy
// sets plus per-object raw (size-1) cost breakdowns. Copy sets and
// breakdowns are treated as immutable once recorded.
type baseRecord struct {
	placement core.Placement
	raw       []core.Breakdown
}

// WhatIf answers a batch of scenarios against one resident instance, all
// under the same solve options, fanning them across the engine's worker
// pool. The i-th error slot is nil iff the i-th result is valid.
func (e *Engine) WhatIf(ctx context.Context, id string, opts SolveOptions, scenarios []Scenario) ([]SolveResult, []error) {
	return fanOut(len(scenarios), func(i int) (SolveResult, error) {
		return e.Scenario(ctx, id, opts, scenarios[i])
	})
}

// Scenario answers one what-if scenario, incrementally when possible.
func (e *Engine) Scenario(ctx context.Context, id string, opts SolveOptions, sc Scenario) (SolveResult, error) {
	opts, err := opts.normalize()
	if err != nil {
		return SolveResult{}, err
	}
	in, info, ok := e.registry.Get(id)
	if !ok {
		return SolveResult{}, ErrNotFound
	}
	if err := opts.validateFor(in); err != nil {
		return SolveResult{}, err
	}
	patched, changed, storage, err := applyScenario(in, sc)
	if err != nil {
		return SolveResult{}, err
	}
	// The incremental path needs the base-record cache: with caching
	// disabled it would re-run the base solve per scenario, strictly worse
	// than the plain fallback.
	if opts.Algo != "approx" || storage != nil || e.cfg.DisableIncremental || e.cfg.CacheEntries < 0 {
		res, err := e.scenarioFull(ctx, id, in, opts, sc, patched, storage)
		if err != nil {
			return SolveResult{}, err
		}
		e.counters.scenarios.Add(1)
		e.counters.fullScenarios.Add(1)
		return res, nil
	}
	base, err := e.baseFor(ctx, id, in, info, opts)
	if err != nil {
		return SolveResult{}, err
	}
	res, err := e.scenarioIncremental(ctx, id, in, opts, sc, patched, changed, base)
	if err != nil {
		return SolveResult{}, err
	}
	e.counters.scenarios.Add(1)
	e.counters.incremental.Add(1)
	e.counters.objectsResolved.Add(int64(len(changed)))
	e.counters.objectsSpliced.Add(int64(len(patched) - len(changed)))
	return res, nil
}

// applyScenario resolves a scenario against the base instance. It returns
// the patched object slice (entries shallow-copied from the base, patched
// fields replaced), the indices whose request vectors actually differ from
// the base, and the replacement storage vector (nil when absent or equal
// to the base). Patches referencing unknown or ambiguous object names are
// errors.
func applyScenario(in *core.Instance, sc Scenario) (patched []core.Object, changed []int, storage []float64, err error) {
	patched = append([]core.Object(nil), in.Objects...)
	if len(sc.Objects) > 0 {
		index := make(map[string]int, len(in.Objects))
		dup := make(map[string]bool)
		for i := range in.Objects {
			name := wireObjectName(&in.Objects[i], i)
			if _, ok := index[name]; ok {
				dup[name] = true
			}
			index[name] = i
		}
		isChanged := make(map[int]bool, len(sc.Objects))
		for _, p := range sc.Objects {
			i, ok := index[p.Name]
			if !ok {
				return nil, nil, nil, fmt.Errorf("service: scenario patches unknown object %q", p.Name)
			}
			if dup[p.Name] {
				return nil, nil, nil, fmt.Errorf("service: object name %q is ambiguous", p.Name)
			}
			o := patched[i] // shallow copy; vectors replaced wholesale below
			if p.Reads != nil {
				o.Reads = p.Reads
			}
			if p.Writes != nil {
				o.Writes = p.Writes
			}
			if p.Size != nil {
				o.Size = *p.Size
			}
			patched[i] = o
			if !slices.Equal(o.Reads, in.Objects[i].Reads) || !slices.Equal(o.Writes, in.Objects[i].Writes) {
				isChanged[i] = true
			}
		}
		for i := range patched {
			if isChanged[i] {
				changed = append(changed, i)
			}
		}
	}
	if sc.Storage != nil && !slices.Equal(sc.Storage, in.Storage) {
		storage = sc.Storage
	}
	return patched, changed, storage, nil
}

// wireObjectName is the wire name of an object: its Name, or
// object-<index> for unnamed objects (the encode package's rule).
func wireObjectName(o *core.Object, i int) string {
	return encode.ObjectName(o, i)
}

// baseFor returns the spliceable base record for (instance, options),
// computing and caching it on first use. The base solve itself goes
// through the regular solve cache and singleflight, so concurrent
// scenarios warm it exactly once. Like Solve, a waiter whose leader got
// cancelled takes the computation over instead of inheriting the
// cancellation.
func (e *Engine) baseFor(ctx context.Context, id string, in *core.Instance, info InstanceInfo, opts SolveOptions) (*baseRecord, error) {
	key := info.Hash + "|" + opts.key() + "|base"
	for {
		if v, ok := e.bases.Get(key); ok {
			return v.(*baseRecord), nil
		}
		val, err, shared := e.flight.Do(ctx, key, func() (any, error) {
			res, err := e.Solve(ctx, id, opts)
			if err != nil {
				return nil, err
			}
			p, err := res.Placement.Placement(in)
			if err != nil {
				return nil, fmt.Errorf("%w: base placement does not fit instance: %v", ErrInternal, err)
			}
			rec := &baseRecord{placement: p, raw: make([]core.Breakdown, len(in.Objects))}
			for i := range in.Objects {
				rec.raw[i] = in.ObjectCostRaw(&in.Objects[i], p.Copies[i])
			}
			e.bases.Put(key, rec)
			return rec, nil
		})
		if shared && errors.Is(err, context.Canceled) && ctx.Err() == nil {
			// The leader's client disconnected, not ours: take over.
			continue
		}
		if err != nil {
			return nil, err
		}
		return val.(*baseRecord), nil
	}
}

// scenarioIncremental re-solves only the changed objects of a scenario on
// a derived instance that shares the base's network, fees and warmed
// oracle, splicing cached copy sets and raw breakdowns for the rest.
// Scaling raw breakdowns here performs the exact float operations a full
// evaluation would, so results are byte-identical to a from-scratch solve.
func (e *Engine) scenarioIncremental(ctx context.Context, id string, in *core.Instance, opts SolveOptions, sc Scenario, patched []core.Object, changed []int, base *baseRecord) (SolveResult, error) {
	start := time.Now()
	scen, err := in.WithObjects(patched)
	if err != nil {
		return SolveResult{}, err
	}
	res := SolveResult{
		InstanceID: id, Options: opts, Scenario: sc.Label,
		Incremental: true, ResolvedObjects: len(changed),
	}
	p := core.Placement{Copies: base.placement.Copies}
	if len(changed) > 0 {
		// Copy-on-write: only scenarios that re-solve something need their
		// own copy-set slice.
		p = core.Placement{Copies: append([][]int(nil), base.placement.Copies...)}
		release, err := e.admit(ctx)
		if err != nil {
			return SolveResult{}, err
		}
		// The changed objects fan out over this run's slot plus any free
		// slots it can borrow; on large instances each object's solve also
		// shards across the cores.
		workers, giveBack := e.lend(len(changed))
		solved := core.ApproximateObjects(scen, changed, opts.coreOptions(workers))
		giveBack()
		release()
		for k, i := range changed {
			p.Copies[i] = solved[k]
		}
	}
	isChanged := make(map[int]bool, len(changed))
	for _, i := range changed {
		isChanged[i] = true
	}
	var b core.Breakdown
	for i := range patched {
		obj := &scen.Objects[i]
		var raw core.Breakdown
		if isChanged[i] {
			raw = scen.ObjectCostRaw(obj, p.Copies[i])
		} else {
			raw = base.raw[i]
		}
		b.Add(raw.Scale(obj.Scale()))
		res.Copies += len(p.Copies[i])
	}
	pj, err := encode.PlacementJSONOf(scen, p)
	if err != nil {
		e.counters.errors.Add(1)
		return SolveResult{}, fmt.Errorf("%w: %v", ErrInternal, err)
	}
	res.Placement = pj
	res.Breakdown = breakdownJSON(b)
	res.ElapsedMS = float64(time.Since(start)) / float64(time.Millisecond)
	return res, nil
}

// scenarioFull solves a patched instance from scratch — the fallback for
// structural changes (storage fees, non-approx algorithms) — through the
// same run as a resident solve. The derived instance still shares the
// base's warmed oracle, since the network is unchanged.
func (e *Engine) scenarioFull(ctx context.Context, id string, in *core.Instance, opts SolveOptions, sc Scenario, patched []core.Object, storage []float64) (SolveResult, error) {
	if storage == nil {
		storage = in.Storage
	}
	scen, err := core.NewInstance(in.G, storage, patched)
	if err != nil {
		return SolveResult{}, err
	}
	scen.SetMetric(in.Metric())
	res, err := e.run(ctx, id, scen, opts)
	if err != nil {
		return SolveResult{}, err
	}
	res.Scenario = sc.Label
	return *res, nil
}

// Package stream implements a streaming adaptive placement engine — the
// missing middle ground between the paper's static algorithm (frequencies
// known up front) and the counter-based dynamic strategy of
// internal/online (no frequency model at all).
//
// An Engine consumes a live request trace one event at a time, maintains
// sliding-window or EWMA frequency estimates per object and node, and at
// every epoch boundary re-solves the placement from the estimates through
// the same incremental demand-patch machinery the service's what-if path
// uses (core.Instance.WithObjects + core.ApproximateObjects): only objects
// whose quantised estimates changed since the last solve are re-placed,
// fanned out across Config.Solve.Workers goroutines, and the rest keep
// their copy sets verbatim. A hysteresis rule prices every
// proposed move — a copy materialising on a new node pays a migration
// transfer from the nearest existing copy, at metric distance — and only
// adopts moves whose estimated per-epoch saving pays that price back
// within a configurable number of epochs.
//
// Costs are accounted exactly as in the paper's model, with the same
// pro-rata adaptation internal/online uses: each request pays its size
// times the distance to the nearest current copy, a write additionally
// pays the metric-MST multicast over the current copies, storage is
// rented per event-step (a copy held for the whole trace pays exactly the
// static fee), and migrations pay size times transfer distance. This
// makes static-clairvoyant, counter-online, and adaptive-streaming
// strategies directly comparable on the same trace — see Compare and
// experiment E18.
//
// Scaling note: the estimator keeps dense per-object, per-node count
// matrices (O(objects × nodes × window)), sized for the service's
// resident-instance shape (thousands of nodes), not for the 50k+-node
// networks the lazy oracle solves one-shot. A sparse estimator keyed by
// active (object, node) pairs is the natural extension when sessions
// over such networks are needed.
package stream

import (
	"fmt"
	"math"
	"slices"

	"netplace/internal/core"
	"netplace/internal/metric"
	"netplace/internal/workload"
)

// Config tunes a streaming engine. The zero value selects each field's
// documented default.
type Config struct {
	// Epoch is the number of events per epoch: estimates refresh and
	// re-placement runs once per Epoch observed events. 0 selects 256.
	Epoch int
	// Window is the sliding-window width in epochs over which frequencies
	// are estimated. 0 selects 4. Ignored when Alpha > 0.
	Window int
	// Alpha, when positive, switches the estimator from a sliding window
	// to an exponentially weighted moving average with this per-epoch
	// weight (higher = faster forgetting). The EWMA's effective window is
	// roughly 1/Alpha epochs.
	Alpha float64
	// Horizon is the number of events one storage fee amortises over when
	// estimates are quantised into solver frequencies: the solver sees
	// round(rate * Horizon) requests against the unscaled storage fees.
	// 0 selects the estimator's window span (Window*Epoch events, or
	// Epoch/Alpha for the EWMA).
	Horizon int
	// Payback is the number of epochs the estimated per-epoch saving of a
	// proposed move must need to pay back its migration cost before the
	// move is adopted. 0 selects 2; negative disables the saving test
	// (any strictly improving move is taken).
	Payback float64
	// MigrationFactor scales the migration price used in the hysteresis
	// decision (the booked migration cost is always the unscaled
	// transfer). 0 selects 1; negative disables hysteresis entirely —
	// every re-solved placement is adopted as-is.
	MigrationFactor float64
	// Solve configures the epoch close's re-solve (see core.Options). A
	// close places its changed objects on Solve.Workers goroutines (0
	// selects GOMAXPROCS, as in core; SetWorkers changes it between
	// closes), and each object's solve shards its radius scans by
	// instance size alone (serial below metric.AutoParallelMinNodes
	// nodes). Reports, placements and state are byte-identical at every
	// width.
	Solve core.Options
	// SolveGate, when non-nil, wraps each epoch close's re-solve and
	// re-placement work, e.g. to time it; it must call solve exactly
	// once. A gate that skips solve closes the epoch without
	// re-placement, so the session's state then depends on the gate.
	// The placement service installs none: it takes a worker slot
	// before it applies a batch that will close an epoch.
	SolveGate func(solve func())
}

// Defaults applied by New for zero Config fields.
const (
	DefaultEpoch   = 256
	DefaultWindow  = 4
	DefaultPayback = 2.0
)

// withDefaults resolves zero fields to their documented defaults and
// clamps Alpha into [0, 1] (an EWMA weight above 1 extrapolates into
// oscillation; the service additionally rejects such configs up front).
func (c Config) withDefaults() Config {
	if c.Epoch <= 0 {
		c.Epoch = DefaultEpoch
	}
	if c.Window <= 0 {
		c.Window = DefaultWindow
	}
	if c.Alpha < 0 {
		c.Alpha = 0
	}
	if c.Alpha > 1 {
		c.Alpha = 1
	}
	if c.Payback == 0 {
		c.Payback = DefaultPayback
	}
	if c.MigrationFactor == 0 {
		c.MigrationFactor = 1
	}
	// maxHorizon keeps the derived horizon well inside int range on any
	// platform (a denormally small alpha, or a huge Window×Epoch product,
	// must not wrap to a non-positive horizon and zero out every
	// quantised estimate).
	const maxHorizon = math.MaxInt32
	if c.Horizon <= 0 {
		if c.Alpha > 0 {
			h := float64(c.Epoch) / c.Alpha
			if h > maxHorizon {
				h = maxHorizon
			}
			c.Horizon = int(h)
		} else if c.Window > maxHorizon/c.Epoch {
			c.Horizon = maxHorizon
		} else {
			c.Horizon = c.Window * c.Epoch
		}
	}
	if c.Horizon > maxHorizon {
		c.Horizon = maxHorizon
	}
	return c
}

// Stats aggregates an adaptive run. All costs follow the pro-rata
// accounting shared with internal/online: Total is directly comparable to
// online.Stats.Total and online.StaticCost on the same trace.
type Stats struct {
	Events       int     // events observed
	Epochs       int     // epochs closed
	Resolves     int     // objects re-solved at epoch boundaries
	Moves        int     // per-object placement changes adopted
	Rejected     int     // proposed changes rejected by hysteresis
	Transmission float64 // read/write access + multicast fees paid
	Storage      float64 // pro-rata storage rent over observed events
	Migration    float64 // copy-transfer fees paid at adopted moves
}

// Total returns transmission + storage + migration cost.
func (s Stats) Total() float64 { return s.Transmission + s.Storage + s.Migration }

// EpochReport describes one closed epoch: what the engine estimated,
// re-solved, and moved, and what the epoch cost. StorageFeeSteps is the
// un-normalised storage accrual (fee × event-steps held); divide by the
// final trace length for the pro-rata rent of this epoch.
type EpochReport struct {
	Epoch           int     // 1-based epoch number
	Events          int     // events in this epoch (== Config.Epoch except a final Flush)
	Resolved        int     // objects re-solved (estimates changed since last solve)
	Moved           int     // objects whose copy set changed
	Rejected        int     // objects whose proposed change hysteresis rejected
	Transmission    float64 // access + multicast fees paid during the epoch
	StorageFeeSteps float64 // storage fee × event-steps accrued during the epoch
	Migration       float64 // transfer fees paid at this boundary's moves
	EstimatedSaving float64 // estimated per-horizon saving of the adopted moves
}

// objState tracks one object's live copy set and estimate bookkeeping.
type objState struct {
	copies  []int   // current copy set (sorted); nil until first touch
	solved  []int64 // quantised fr+fw estimate vector of the last re-solve
	solvedW int64   // quantised write total of the last re-solve
	seeded  bool    // true once the object materialised at its first requester
}

// Engine is a streaming adaptive placement session over one instance. Not
// safe for concurrent use; callers serialise access (the service wraps it
// in a per-session mutex).
type Engine struct {
	in     *core.Instance
	oracle metric.Oracle // pinned at New: per-event accounting must not take the instance mutex
	cfg    Config
	est    *Estimator

	objs   []objState
	report EpochReport // accumulating current epoch
	stats  Stats
	fill   int // events in the current (open) epoch

	// feePerStep is the storage fee the live copy sets accrue per
	// event-step (Σ size·cs over all held copies), maintained at seeding
	// and at epoch closes so per-event accounting is O(1) in the number
	// of objects.
	feePerStep float64

	// Nearest-copy fast path: once a copy set outgrows the oracle's row
	// cache, per-copy point queries thrash — every miss recomputes a full
	// distance row, so a single event costs up to len(copies) Dijkstra
	// sweeps. Past rowBudget copies the engine walks outward from the
	// event node instead (nearScan) and stops at the first copy it meets,
	// paying only for the ball to the nearest replica. The callback is
	// pre-bound (scanFn over scanCopies/scanBest) so the per-event scan
	// does not allocate a closure.
	nearScan   metric.NearScanner
	rowBudget  int
	scanCopies []int
	scanBest   float64
	scanFn     func(u int, d float64) bool

	// scratch reused across epoch closes
	estObjects []core.Object
	quantBuf   []int64
}

// New assembles an engine over an instance. The instance's frequency
// tables are not consulted — only its network, storage fees, object names
// and sizes; the engine learns frequencies from the trace.
func New(in *core.Instance, cfg Config) *Engine {
	cfg = cfg.withDefaults()
	e := &Engine{
		in:     in,
		oracle: in.Metric(),
		cfg:    cfg,
		est:    NewEstimator(len(in.Objects), in.N(), cfg),
		objs:   make([]objState, len(in.Objects)),
	}
	// The scan path only beats point queries when the oracle both scans
	// truncated balls and bounds its row cache (copy sets within the
	// budget stay cached, so Dist hits are free there).
	e.rowBudget = math.MaxInt
	if ns, ok := e.oracle.(metric.NearScanner); ok {
		if b, ok := e.oracle.(interface{ Budget() int }); ok {
			e.nearScan = ns
			e.rowBudget = b.Budget()
		}
	}
	e.scanFn = func(u int, d float64) bool {
		if _, ok := slices.BinarySearch(e.scanCopies, u); ok {
			e.scanBest = d
			return false
		}
		return true
	}
	e.estObjects = make([]core.Object, len(in.Objects))
	for i := range e.estObjects {
		e.estObjects[i] = core.Object{
			Name:   in.Objects[i].Name,
			Size:   in.Objects[i].Size,
			Reads:  make([]int64, in.N()),
			Writes: make([]int64, in.N()),
		}
	}
	e.quantBuf = make([]int64, in.N())
	e.report = EpochReport{Epoch: 1}
	return e
}

// Config returns the engine's resolved configuration.
func (e *Engine) Config() Config { return e.cfg }

// SetWorkers sets how many goroutines the following epoch closes place
// their changed objects on (Config().Solve.Workers; 0 selects
// GOMAXPROCS). The width changes no report, placement or state; the
// placement service widens each close by the worker slots it finds free.
func (e *Engine) SetWorkers(n int) { e.cfg.Solve.Workers = n }

// Pending returns the number of events in the open epoch; the epoch
// closes when it reaches Config().Epoch.
func (e *Engine) Pending() int { return e.fill }

// Stats snapshots the run so far. Storage is normalised pro rata over the
// events observed so far, so Total is comparable to online accounting on
// the same prefix; the open epoch's transmission and storage accruals are
// included.
func (e *Engine) Stats() Stats {
	s := e.stats
	s.Transmission += e.report.Transmission
	s.Storage += e.report.StorageFeeSteps
	return s.normalise()
}

// Placement returns the current copy sets (shared slices; do not mutate).
// Objects never requested and never solved hold nil until the first epoch
// closes.
func (e *Engine) Placement() core.Placement {
	p := core.Placement{Copies: make([][]int, len(e.objs))}
	for i := range e.objs {
		p.Copies[i] = e.objs[i].copies
	}
	return p
}

// Observe feeds one event. It returns a non-nil report when the event
// completed an epoch (estimates refreshed, re-placement ran).
func (e *Engine) Observe(r workload.Request) (*EpochReport, error) {
	if r.Obj < 0 || r.Obj >= len(e.objs) {
		return nil, fmt.Errorf("stream: event object %d out of range [0,%d)", r.Obj, len(e.objs))
	}
	if r.V < 0 || r.V >= e.in.N() {
		return nil, fmt.Errorf("stream: event node %d out of range [0,%d)", r.V, e.in.N())
	}
	o := e.oracle
	st := &e.objs[r.Obj]
	size := e.in.Objects[r.Obj].Scale()
	if !st.seeded {
		// Information-free start, as in internal/online: the object
		// materialises at its first requester.
		st.copies = []int{r.V}
		st.seeded = true
		e.feePerStep += size * e.in.Storage[r.V]
	}
	// Storage rent accrues per event-step for every live replica of every
	// seeded object (normalised by the trace length in Stats).
	e.report.StorageFeeSteps += e.feePerStep
	// Access: nearest current copy. Copy sets within the oracle's row
	// budget use point queries (steady state: every Dist hits a cached
	// copy row); larger sets use the truncated outward scan — the metric
	// is symmetric, so the first copy met in nondecreasing distance from
	// the event node is the nearest one.
	best := math.Inf(1)
	if e.nearScan != nil && len(st.copies) > e.rowBudget {
		e.scanCopies, e.scanBest = st.copies, best
		e.nearScan.ScanNear(r.V, e.scanFn)
		best = e.scanBest
	} else {
		for _, c := range st.copies {
			if d := o.Dist(c, r.V); d < best {
				best = d
			}
		}
	}
	e.report.Transmission += size * best
	if r.Write && len(st.copies) > 1 {
		e.report.Transmission += size * metric.PairwiseMST(o, st.copies)
	}
	e.est.Observe(r)
	e.stats.Events++
	e.fill++
	if e.fill >= e.cfg.Epoch {
		return e.closeEpoch(), nil
	}
	return nil, nil
}

// Flush closes the current epoch early (estimates refresh over the
// partial epoch, re-placement runs). It returns nil when the epoch is
// empty.
func (e *Engine) Flush() *EpochReport {
	if e.fill == 0 {
		return nil
	}
	return e.closeEpoch()
}

// closeEpoch rolls the estimator, re-solves changed objects, applies the
// hysteresis rule, and resets the per-epoch accumulators.
func (e *Engine) closeEpoch() *EpochReport {
	e.est.CloseEpoch(e.fill)
	rep := e.report
	rep.Events = e.fill

	// Quantise estimates into solver frequency tables (the demand patch).
	for i := range e.estObjects {
		obj := &e.estObjects[i]
		core.QuantiseDemand(obj.Reads, e.est.ReadRate(i), float64(e.cfg.Horizon))
		core.QuantiseDemand(obj.Writes, e.est.WriteRate(i), float64(e.cfg.Horizon))
	}
	// Re-solve exactly the objects whose quantised estimates changed since
	// their last solve — the same incremental path the service's what-if
	// scenarios use.
	scen, err := e.in.WithObjects(e.estObjects)
	if err != nil {
		// Quantised estimates are structurally valid by construction
		// (non-negative, right length), and callers bound their fees
		// with Instance.CheckRequests; a failure here is a bug.
		panic(fmt.Sprintf("stream: estimate instance rejected: %v", err))
	}
	o := e.oracle
	replace := func() {
		// Pass 1: find the changed objects and record their estimates.
		var changed []int
		for i := range e.objs {
			st := &e.objs[i]
			obj := &scen.Objects[i]
			req := e.quantBuf
			for v := range req {
				req[v] = obj.Reads[v] + obj.Writes[v]
			}
			w := obj.TotalWrites()
			if st.solved != nil && w == st.solvedW && slices.Equal(req, st.solved) {
				continue // estimate unchanged: placement kept verbatim
			}
			changed = append(changed, i)
			rep.Resolved++
			e.stats.Resolves++
			if st.solved == nil {
				st.solved = make([]int64, len(req))
			}
			copy(st.solved, req)
			st.solvedW = w
		}
		// Pass 2: place them all at once, fanned out over Solve.Workers.
		cands := core.ApproximateObjects(scen, changed, e.cfg.Solve)
		// Pass 3: hysteresis, migration pricing and counters in object
		// order, so every float sum keeps its serial order.
		for k, i := range changed {
			st := &e.objs[i]
			obj := &scen.Objects[i]
			cand := cands[k]
			if slices.Equal(cand, st.copies) {
				continue
			}
			if st.copies == nil {
				// Initial placement: nothing to migrate from, always adopted.
				st.copies = cand
				st.seeded = true
				rep.Moved++
				e.stats.Moves++
				continue
			}
			// Hysteresis: estimated saving per epoch must pay the migration
			// transfer back within Payback epochs.
			curCost := scen.ObjectCost(obj, st.copies).Total()
			candCost := scen.ObjectCost(obj, cand).Total()
			saving := curCost - candCost // per Horizon events
			transfer := e.migrationCost(o, i, st.copies, cand)
			if e.cfg.MigrationFactor >= 0 {
				rejected := false
				if e.cfg.Payback < 0 {
					rejected = saving <= 0 // take any strictly improving move
				} else {
					perEpoch := saving * float64(e.cfg.Epoch) / float64(e.cfg.Horizon)
					rejected = perEpoch*e.cfg.Payback <= e.cfg.MigrationFactor*transfer
				}
				if rejected {
					rep.Rejected++
					e.stats.Rejected++
					continue
				}
			}
			st.copies = cand
			rep.Moved++
			e.stats.Moves++
			rep.Migration += transfer
			rep.EstimatedSaving += saving
			e.stats.Migration += transfer
		}
	}
	if e.cfg.SolveGate != nil {
		e.cfg.SolveGate(replace)
	} else {
		replace()
	}

	e.stats.Transmission += rep.Transmission
	e.stats.Storage += rep.StorageFeeSteps // normalised lazily in Stats()
	e.stats.Epochs++
	e.fill = 0
	e.report = EpochReport{Epoch: rep.Epoch + 1}
	// Re-derive the per-step storage fee from the (possibly moved) copy
	// sets; between closes it only changes at first-touch seeding.
	e.feePerStep = 0
	for i := range e.objs {
		st := &e.objs[i]
		if !st.seeded {
			continue
		}
		size := e.in.Objects[i].Scale()
		for _, v := range st.copies {
			e.feePerStep += size * e.in.Storage[v]
		}
	}
	return &rep
}

// migrationCost prices materialising the copies of next that cur lacks:
// each new node receives the object from its nearest current copy, paying
// size times the metric distance. Dropping copies is free.
func (e *Engine) migrationCost(o metric.Oracle, obj int, cur, next []int) float64 {
	size := e.in.Objects[obj].Scale()
	total := 0.0
	// Same regime split as the per-event accounting: a source set past
	// the row budget is priced by truncated scans from each new copy.
	scan := e.nearScan != nil && len(cur) > e.rowBudget
	for _, u := range next {
		if _, ok := slices.BinarySearch(cur, u); ok {
			continue
		}
		best := math.Inf(1)
		if scan {
			e.scanCopies, e.scanBest = cur, best
			e.nearScan.ScanNear(u, e.scanFn)
			best = e.scanBest
		} else {
			for _, c := range cur {
				if d := o.Dist(c, u); d < best {
					best = d
				}
			}
		}
		if !math.IsInf(best, 1) {
			total += size * best
		}
	}
	return total
}

// normalise converts accrued storage fee-steps into pro-rata rent.
func (s Stats) normalise() Stats {
	if s.Events > 0 {
		s.Storage /= float64(s.Events)
	}
	return s
}

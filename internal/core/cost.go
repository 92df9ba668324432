package core

import (
	"math"
	"sync"

	"netplace/internal/metric"
)

// Breakdown decomposes the total cost of a placement for one object or for a
// whole instance, following the restricted-placement accounting of
// Section 2: the write request's message from its home to the nearest copy
// is booked under Read (the paper folds it into the read cost, "we do not
// differentiate between read and write requests any more"); Update is the
// multicast cost W * mst(S).
type Breakdown struct {
	Storage float64 // sum of cs over copy nodes
	Read    float64 // sum over reads and writes of distance to nearest copy
	Update  float64 // W * weight of the multicast (MST) tree over copies
}

// Total returns Storage + Read + Update.
func (b Breakdown) Total() float64 { return b.Storage + b.Read + b.Update }

// Add accumulates another breakdown.
func (b *Breakdown) Add(o Breakdown) {
	b.Storage += o.Storage
	b.Read += o.Read
	b.Update += o.Update
}

// Scale returns the breakdown with every component multiplied by s — the
// per-byte fee model applied to an object of size s. ObjectCost is
// exactly ObjectCostRaw followed by Scale, and the incremental what-if
// path relies on that identity: a size-only change reuses the raw
// breakdown and re-scales, byte-identical to a fresh evaluation.
func (b Breakdown) Scale(s float64) Breakdown {
	return Breakdown{Storage: b.Storage * s, Read: b.Read * s, Update: b.Update * s}
}

// costPool recycles metric workspaces for cost evaluations, so repeated
// pricing of placements over a resident instance allocates nothing.
var costPool = sync.Pool{New: func() interface{} { return metric.NewWorkspace() }}

// ObjectCost computes the cost breakdown of placing object obj on copy set
// copies (non-empty) under the restricted model: reads and write-access
// messages go to the nearest copy; updates propagate along a metric-closure
// minimum spanning tree over the copies. All three components scale with
// the object's size (fees are per byte). Nearest-copy distances come from
// one multi-source sweep of the oracle through pooled scratch, so the
// evaluation needs neither a dense matrix nor steady-state allocations.
// On instances of metric.AutoParallelMinNodes nodes or more, uncached
// copy rows of the update tree build on all cores (see
// metric.PairwiseMST); the breakdown is bit-identical either way.
func (in *Instance) ObjectCost(obj *Object, copies []int) Breakdown {
	return in.ObjectCostRaw(obj, copies).Scale(obj.Scale())
}

// ObjectCostRaw is ObjectCost before size scaling: the breakdown of a
// size-1 object with the same request frequencies. The incremental what-if
// path caches raw breakdowns so size changes re-scale instead of re-sweep.
func (in *Instance) ObjectCostRaw(obj *Object, copies []int) Breakdown {
	ws := costPool.Get().(*metric.Workspace)
	b := in.objectCostRaw(ws, obj, copies)
	costPool.Put(ws)
	return b
}

// objectCostRaw evaluates the unscaled breakdown using ws for scratch.
func (in *Instance) objectCostRaw(ws *metric.Workspace, obj *Object, copies []int) Breakdown {
	o := in.Metric()
	var b Breakdown
	for _, v := range copies {
		b.Storage += in.Storage[v]
	}
	near := ws.NearestOf(o, copies)
	for v := 0; v < in.N(); v++ {
		f := obj.Reads[v] + obj.Writes[v]
		if f == 0 {
			continue
		}
		b.Read += float64(f) * near[v]
	}
	if w := obj.TotalWrites(); w > 0 && len(copies) > 1 {
		b.Update = float64(w) * ws.PairwiseMST(o, copies)
	}
	return b
}

// Cost computes the full-instance cost breakdown of a placement.
func (in *Instance) Cost(p Placement) Breakdown {
	ws := costPool.Get().(*metric.Workspace)
	var b Breakdown
	for i := range in.Objects {
		obj := &in.Objects[i]
		b.Add(in.objectCostRaw(ws, obj, p.Copies[i]).Scale(obj.Scale()))
	}
	costPool.Put(ws)
	return b
}

// NearestCopy returns, for every node, the distance to and identity of the
// nearest copy in the given copy set (ties broken toward the earlier copy).
func (in *Instance) NearestCopy(copies []int) (dist []float64, which []int) {
	d, idx := metric.NearestIdx(in.Metric(), copies)
	which = idx
	for v, i := range idx {
		if i >= 0 {
			which[v] = copies[i]
		} else {
			d[v] = math.Inf(1)
			which[v] = -1
		}
	}
	return d, which
}

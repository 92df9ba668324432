// Package netsim is a discrete-event, message-level network simulator. It
// replays a static request pattern against a placement: every read walks
// the shortest path to its nearest copy, every write first walks to its
// nearest copy and then triggers a multicast along the minimum spanning
// tree over the copies (the paper's update rule), hop by hop. Every edge
// traversal is metered with the edge's fee and every stored copy with the
// node's fee.
//
// Its purpose in the reproduction is experiment E12: the metered cost of an
// operational execution must equal the closed-form cost the algorithms
// optimise, which validates the cost accounting used everywhere else.
package netsim

import (
	"container/heap"
	"fmt"
	"math"

	"netplace/internal/core"
	"netplace/internal/graph"
	"netplace/internal/metric"
	"netplace/internal/workload"
)

// Stats aggregates a simulation run.
type Stats struct {
	// TransmissionCost is the summed fee over every edge traversal.
	TransmissionCost float64
	// StorageCost is the summed storage fee over all placed copies.
	StorageCost float64
	// Messages counts point-to-point hop deliveries.
	Messages int64
	// Requests counts injected read and write requests.
	Requests int64
	// PerEdge is the metered fee total per edge id (the "bill" per link).
	PerEdge []float64
	// FinalTime is the virtual time at which the last delivery happened
	// (edge fee doubles as propagation delay).
	FinalTime float64
}

// Total returns transmission plus storage cost.
func (s Stats) Total() float64 { return s.TransmissionCost + s.StorageCost }

// MaxEdgeBill returns the largest per-link bill — the "hottest" link by
// fee volume.
func (s Stats) MaxEdgeBill() float64 {
	max := 0.0
	for _, c := range s.PerEdge {
		if c > max {
			max = c
		}
	}
	return max
}

// Congestion converts the per-edge bill into the congestion measure of the
// total-load literature (Maggs et al.): transferred volume divided by
// bandwidth, maximised over links. fees[i] must be the fee of edge i (the
// bill is volume * fee) and bandwidths[i] its bandwidth. Edges with zero
// fee are skipped (their volume is not recoverable from the bill).
func (s Stats) Congestion(fees, bandwidths []float64) float64 {
	max := 0.0
	for i, bill := range s.PerEdge {
		if fees[i] <= 0 || bandwidths[i] <= 0 {
			continue
		}
		if c := bill / fees[i] / bandwidths[i]; c > max {
			max = c
		}
	}
	return max
}

// event is a message arriving at a node at virtual time t.
type event struct {
	t    float64
	seq  int64 // FIFO tie-break for determinism
	node int
	kind eventKind
	obj  int
	// route is the remaining node path for unicast messages.
	route []int
}

type eventKind uint8

const (
	evDeliverRead eventKind = iota
	evDeliverWriteAccess
	evMulticast
)

type eventQueue []event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if q[i].t != q[j].t {
		return q[i].t < q[j].t
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *eventQueue) Push(x interface{}) { *q = append(*q, x.(event)) }
func (q *eventQueue) Pop() interface{} {
	old := *q
	n := len(old)
	e := old[n-1]
	*q = old[:n-1]
	return e
}

// Simulator replays requests for one instance and placement.
type Simulator struct {
	in *core.Instance
	p  core.Placement

	// per object: nearest copy of every node and the unicast path to it;
	// multicast tree as adjacency over copies expanded to edge paths.
	nearest [][]int
	paths   [][][]int   // [obj][node] -> node path to nearest copy
	mcNext  [][][][]int // [obj][copyIdx] -> list of node paths to child copies
	copyIdx []map[int]int
	edgeOf  map[[2]int]int // node pair -> edge id (first edge wins)
	edgeFee []float64
	st      Stats
	q       eventQueue
	seq     int64
}

// New prepares a simulator; the placement must validate against in.
func New(in *core.Instance, p core.Placement) (*Simulator, error) {
	if err := p.Validate(in); err != nil {
		return nil, err
	}
	s := &Simulator{in: in, p: p}
	g := in.G
	s.edgeOf = make(map[[2]int]int)
	s.edgeFee = make([]float64, g.M())
	for id, e := range g.Edges() {
		s.edgeFee[id] = e.W
		k1 := [2]int{e.U, e.V}
		k2 := [2]int{e.V, e.U}
		// With parallel edges, route along the cheapest one (shortest paths
		// never use a costlier parallel edge).
		if prev, ok := s.edgeOf[k1]; !ok || e.W < s.edgeFee[prev] {
			s.edgeOf[k1] = id
			s.edgeOf[k2] = id
		}
	}
	o := in.Metric()
	nobj := len(in.Objects)
	s.nearest = make([][]int, nobj)
	s.paths = make([][][]int, nobj)
	s.mcNext = make([][][][]int, nobj)
	s.copyIdx = make([]map[int]int, nobj)
	for oi := range in.Objects {
		copies := p.Copies[oi]
		// Unicast shortest paths: per copy, a Dijkstra tree; per node pick
		// the nearest copy and walk the parent pointers.
		type tree struct {
			dist   []float64
			parent []int
		}
		trees := make([]tree, len(copies))
		for ci, c := range copies {
			d, par := g.Dijkstra(c)
			trees[ci] = tree{dist: d, parent: par}
		}
		s.nearest[oi] = make([]int, g.N())
		s.paths[oi] = make([][]int, g.N())
		for v := 0; v < g.N(); v++ {
			best, bestD := -1, math.Inf(1)
			for ci := range copies {
				if trees[ci].dist[v] < bestD {
					best, bestD = ci, trees[ci].dist[v]
				}
			}
			s.nearest[oi][v] = copies[best]
			// path v -> copy: walk up the copy-rooted tree from v.
			var path []int
			for u := v; u != -1; u = trees[best].parent[u] {
				path = append(path, u)
				if u == copies[best] {
					break
				}
			}
			s.paths[oi][v] = path
		}
		// Multicast: metric MST over copies, each metric edge expanded to a
		// shortest node path. Root the MST at copy index 0 for directioning.
		s.copyIdx[oi] = make(map[int]int, len(copies))
		for ci, c := range copies {
			s.copyIdx[oi][c] = ci
		}
		edges, _ := metric.PairwiseMSTTree(o, copies)
		children := make([][]int, len(copies))
		for _, e := range edges {
			children[e[0]] = append(children[e[0]], e[1])
		}
		s.mcNext[oi] = make([][][]int, len(copies))
		for ci := range copies {
			if len(children[ci]) == 0 {
				continue
			}
			for _, child := range children[ci] {
				path := graph.PathTo(trees[ci].parent, copies[ci], copies[child])
				s.mcNext[oi][ci] = append(s.mcNext[oi][ci], path)
			}
		}
	}
	s.st.PerEdge = make([]float64, g.M())
	s.st.StorageCost = 0
	for oi := range in.Objects {
		size := in.Objects[oi].Scale()
		for _, c := range p.Copies[oi] {
			s.st.StorageCost += size * in.Storage[c]
		}
	}
	return s, nil
}

// Run injects every request in the instance (fr(v) reads and fw(v) writes
// per node-object pair, interleaved deterministically) and processes events
// until the network drains. It returns the metered statistics.
func (s *Simulator) Run() Stats {
	for oi := range s.in.Objects {
		obj := &s.in.Objects[oi]
		for v := 0; v < s.in.N(); v++ {
			for k := int64(0); k < obj.Reads[v]; k++ {
				s.injectRead(oi, v)
			}
			for k := int64(0); k < obj.Writes[v]; k++ {
				s.injectWrite(oi, v)
			}
		}
	}
	for s.q.Len() > 0 {
		e := heap.Pop(&s.q).(event)
		if e.t > s.st.FinalTime {
			s.st.FinalTime = e.t
		}
		s.dispatch(e)
	}
	return s.st
}

// RunSequence injects an explicit request sequence (instead of the
// instance's frequency tables) against the fixed placement and processes
// events until the network drains — the adapter that lets the
// message-level simulator meter one epoch of a trace, so the analytic
// per-epoch bills of the streaming harness can be cross-checked hop by
// hop. Storage is booked as in Run: the full fee of the fixed placement,
// matching the static strategy's accounting. Call on a fresh Simulator;
// metered costs accumulate across calls.
func (s *Simulator) RunSequence(seq []workload.Request) Stats {
	for _, r := range seq {
		if r.Write {
			s.injectWrite(r.Obj, r.V)
		} else {
			s.injectRead(r.Obj, r.V)
		}
	}
	for s.q.Len() > 0 {
		e := heap.Pop(&s.q).(event)
		if e.t > s.st.FinalTime {
			s.st.FinalTime = e.t
		}
		s.dispatch(e)
	}
	return s.st
}

func (s *Simulator) injectRead(obj, v int) {
	s.st.Requests++
	s.send(event{t: 0, node: v, kind: evDeliverRead, obj: obj, route: s.paths[obj][v]})
}

func (s *Simulator) injectWrite(obj, v int) {
	s.st.Requests++
	s.send(event{t: 0, node: v, kind: evDeliverWriteAccess, obj: obj, route: s.paths[obj][v]})
}

func (s *Simulator) send(e event) {
	e.seq = s.seq
	s.seq++
	heap.Push(&s.q, e)
}

// dispatch advances a message one hop, metering the edge fee; when a
// message reaches the end of its route its kind decides what happens next.
func (s *Simulator) dispatch(e event) {
	if len(e.route) > 1 {
		// advance one hop: route[0] is the current node; the fee is per
		// byte, so an object of size s pays s times the edge fee.
		u, v := e.route[0], e.route[1]
		id, ok := s.edgeOf[[2]int{u, v}]
		if !ok {
			panic(fmt.Sprintf("netsim: no edge %d-%d on route", u, v))
		}
		fee := s.edgeFee[id] * s.in.Objects[e.obj].Scale()
		s.st.TransmissionCost += fee
		s.st.PerEdge[id] += fee
		s.st.Messages++
		ne := e
		ne.t += fee
		ne.node = v
		ne.route = e.route[1:]
		s.send(ne)
		return
	}
	// Arrived.
	switch e.kind {
	case evDeliverRead:
		// served; nothing further to do.
	case evDeliverWriteAccess:
		// The serving copy initiates the multicast from the MST root. The
		// paper's update set is the path h->s(r) (already metered) plus the
		// whole MST; fan the multicast out from every copy along tree
		// children, starting at the root copy (index 0).
		root := s.p.Copies[e.obj][0]
		s.send(event{t: e.t, node: root, kind: evMulticast, obj: e.obj, route: []int{root}})
	case evMulticast:
		ci := s.copyIdx[e.obj][e.node]
		for _, path := range s.mcNext[e.obj][ci] {
			s.send(event{t: e.t, node: e.node, kind: evMulticast, obj: e.obj, route: path})
		}
	}
}

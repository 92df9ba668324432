package core

import (
	"math"

	"netplace/internal/facility"
)

// Baseline strategies the evaluation compares against (experiment E5). Each
// returns a placement for the whole instance.

// FullReplication places a copy of every object on every node: reads are
// free, storage and updates are maximal. This is the classic "mirror
// everywhere" strategy.
func FullReplication(in *Instance) Placement {
	all := make([]int, in.N())
	for v := range all {
		all[v] = v
	}
	p := Placement{Copies: make([][]int, len(in.Objects))}
	for i := range p.Copies {
		p.Copies[i] = append([]int(nil), all...)
	}
	return p
}

// SingleBest places each object on the single node minimising the exact
// total cost of a one-copy placement (a weighted 1-median including the
// storage fee). With one copy there is no update multicast, so this is
// exactly optimal among single-copy placements. Inherently Θ(n²) distance
// work (one oracle row per candidate node).
func SingleBest(in *Instance) Placement {
	o := in.Metric()
	p := Placement{Copies: make([][]int, len(in.Objects))}
	for i := range in.Objects {
		obj := &in.Objects[i]
		best, bestCost := 0, math.Inf(1)
		for v := 0; v < in.N(); v++ {
			row := o.Row(v)
			c := in.Storage[v]
			for u := 0; u < in.N(); u++ {
				c += float64(obj.Reads[u]+obj.Writes[u]) * row[u]
			}
			if c < bestCost {
				best, bestCost = v, c
			}
		}
		p.Copies[i] = []int{best}
	}
	return p
}

// FacilityOnly runs only phase 1 of the approximation algorithm (the
// related facility location problem), ignoring update costs entirely. It is
// the natural "treat it as pure facility location" strawman and the E10
// ablation's phase-1-only arm.
func FacilityOnly(in *Instance, solver facility.Solver) Placement {
	if solver == nil {
		solver = facility.LocalSearch
	}
	o := in.Metric()
	p := Placement{Copies: make([][]int, len(in.Objects))}
	for i := range in.Objects {
		obj := &in.Objects[i]
		req := obj.Requests()
		if req.Total() == 0 {
			p.Copies[i] = cheapestNode(in)
			continue
		}
		fl := &facility.Instance{Open: in.Storage, Demand: req.Count, Metric: o}
		p.Copies[i] = solver(fl)
	}
	return p
}

// GreedyAdd grows each object's copy set greedily from the best single
// node, adding the copy that most reduces the exact total cost (including
// updates) until no addition helps. A strong heuristic baseline.
func GreedyAdd(in *Instance) Placement {
	p := SingleBest(in)
	for i := range in.Objects {
		obj := &in.Objects[i]
		cur := in.ObjectCost(obj, p.Copies[i]).Total()
		has := make([]bool, in.N())
		for _, c := range p.Copies[i] {
			has[c] = true
		}
		for {
			bestV, bestCost := -1, cur
			for v := 0; v < in.N(); v++ {
				if has[v] {
					continue
				}
				c := in.ObjectCost(obj, append(p.Copies[i], v)).Total()
				if c < bestCost {
					bestV, bestCost = v, c
				}
			}
			if bestV < 0 {
				break
			}
			has[bestV] = true
			p.Copies[i] = insertSorted(p.Copies[i], bestV)
			cur = bestCost
		}
	}
	return p
}

func cheapestNode(in *Instance) []int {
	best := 0
	for v := 1; v < in.N(); v++ {
		if in.Storage[v] < in.Storage[best] {
			best = v
		}
	}
	return []int{best}
}

func insertSorted(s []int, v int) []int {
	s = append(s, v)
	for i := len(s) - 1; i > 0 && s[i-1] > s[i]; i-- {
		s[i-1], s[i] = s[i], s[i-1]
	}
	return s
}

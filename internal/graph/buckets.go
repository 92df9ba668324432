package graph

import "slices"

// This file implements a delta-stepping-style bucketed SSSP for the large
// sparse networks where the binary-heap Dijkstra in scanner.go becomes the
// bottleneck of row construction: on a bounded-weight-spread graph (unit
// grids, integer-weight meshes) the O(log n) heap churn per relaxation is
// replaced by O(1) appends to a small cyclic bucket array, Dial-style.
//
// The kernel is exact, not approximate: tentative distances are relaxed
// monotonically bucket by bucket, a bucket is re-drained until intra-bucket
// relaxations stop refilling it, and only then are its nodes final. The
// produced distances are byte-identical to the heap kernel's — every
// distance is the same min over the same float64 sums, independent of
// relaxation order — which is property-tested in buckets_test.go. Visit
// order within one bucket is made deterministic by sorting settled nodes on
// (distance, node index) before emission.

// maxBucketSpread caps wmax/wmin for the bucketed kernel: beyond it the
// cyclic bucket array grows past the point where scanning it for the next
// non-empty slot beats a heap. 256 buckets fit comfortably in cache and
// cover every integer-ish weight profile the generators produce.
const maxBucketSpread = 256

// bucketMinNodes is the graph size below which RowAutoInto prefers the
// heap kernel even when the weight profile admits bucketing: on short
// rows the bucket-drain bookkeeping (slot scans, settled-list sorts)
// costs more than the heap churn it saves, and the committed bench
// trajectory shows the bucketed kernel losing on the 2500-node fixtures
// while winning on the 50k grid. Deliberately the same threshold as
// metric.AutoParallelMinNodes: both mark the scale where per-row work
// dwarfs per-row overhead.
const bucketMinNodes = 16384

// canBucket reports whether the weight profile suits the bucketed SSSP:
// at least one edge, a positive minimum weight to derive the bucket width
// from, and a bounded spread. Zero-weight edges are harmless — they relax
// within the current bucket — as long as some positive weight exists.
func (c *csrAdj) canBucket() bool {
	return c.m > 0 && c.wmin > 0 && c.wmax <= c.wmin*maxBucketSpread
}

// ScanBuckets visits nodes in nondecreasing shortest-path distance from
// src, like Scan, but runs the bucketed SSSP kernel when the graph's
// weight profile allows it and falls back to the heap kernel otherwise.
// Nodes at equal distance are visited in ascending node index (the heap
// kernel leaves ties in heap order instead); distances are identical
// either way. The sweep stops early when fn returns false.
func (s *Scanner) ScanBuckets(src int, fn func(v int, d float64) bool) {
	c := s.adj()
	if !c.canBucket() {
		s.Scan(src, fn)
		return
	}
	delta := c.wmin
	// A node settled at distance d only relaxes neighbors to at most
	// d + wmax, so all live tentative distances span < nb buckets and a
	// cyclic array of that many slots never aliases two live buckets.
	nb := int(c.wmax/delta) + 2
	if cap(s.bq) < nb {
		s.bq = make([][]int32, nb)
	}
	s.bq = s.bq[:nb]
	for i := range s.bq {
		s.bq[i] = s.bq[i][:0]
	}
	s.epoch++
	e := s.epoch
	s.dist[src] = 0
	s.stamp[src] = e
	s.bq[0] = append(s.bq[0], int32(src))
	abs := 0 // absolute index of the bucket being drained
	for {
		// Next non-empty bucket in the cyclic window starting at abs.
		found := -1
		for k := 0; k < nb; k++ {
			if len(s.bq[(abs+k)%nb]) > 0 {
				found = abs + k
				break
			}
		}
		if found < 0 {
			return
		}
		abs = found
		slot := abs % nb
		settled := s.bset[:0]
		// Drain until intra-bucket relaxations (edges shorter than delta,
		// or zero-weight) stop refilling the slot. A node is relaxed with
		// its distance at pop time; if a later relaxation in the same
		// bucket improves it, it is re-queued and relaxed again, so its
		// final relaxation always uses its final distance.
		for len(s.bq[slot]) > 0 {
			cur := append(s.bcur[:0], s.bq[slot]...)
			s.bcur = cur
			s.bq[slot] = s.bq[slot][:0]
			for _, v32 := range cur {
				v := int(v32)
				d := s.dist[v]
				if int(d/delta) != abs {
					continue // stale: improved into a later-queued entry's bucket
				}
				if s.done[v] != e {
					s.done[v] = e
					settled = append(settled, v32)
				}
				for i, end := c.off[v], c.off[v+1]; i < end; i++ {
					to := int(c.to[i])
					nd := d + c.w[i]
					if s.stamp[to] != e || nd < s.dist[to] {
						s.dist[to] = nd
						s.stamp[to] = e
						s.bq[int(nd/delta)%nb] = append(s.bq[int(nd/delta)%nb], int32(to))
					}
				}
			}
		}
		// The bucket is final: later buckets can only produce distances
		// >= (abs+1)*delta. Emit in (distance, node index) order. The
		// comparator is pre-bound on the Scanner: sort.Slice's reflection
		// boxing would allocate once per bucket, hundreds of times per
		// sweep.
		if s.bcmp == nil {
			s.bcmp = func(a, b int32) int {
				switch da, db := s.dist[a], s.dist[b]; {
				case da < db:
					return -1
				case da > db:
					return 1
				}
				return int(a - b)
			}
		}
		slices.SortFunc(settled, s.bcmp)
		s.bset = settled
		for _, v32 := range settled {
			if !fn(int(v32), s.dist[v32]) {
				return
			}
		}
		abs++
	}
}

// RowBucketsInto is RowInto with the bucketed SSSP kernel: it fills row
// (length n) with single-source shortest-path distances from src — Inf
// for unreachable nodes — and returns it. Distances are byte-identical
// to RowInto's; only the internal relaxation schedule differs.
func (s *Scanner) RowBucketsInto(src int, row []float64) []float64 {
	if len(row) != s.g.n {
		panic("graph: RowBucketsInto length mismatch")
	}
	for i := range row {
		row[i] = Inf
	}
	s.ScanBuckets(src, func(v int, d float64) bool {
		row[v] = d
		return true
	})
	return row
}

// RowAutoInto fills row with single-source shortest-path distances from
// src, picking the SSSP kernel by graph size and weight profile: the
// bucketed kernel on large bounded-spread graphs (sparse grids past
// bucketMinNodes), the binary-heap Dijkstra otherwise. The produced
// distances are identical either way; this is the row-construction
// kernel behind the lazy oracle's cache fills.
func (s *Scanner) RowAutoInto(src int, row []float64) []float64 {
	if s.g.n >= bucketMinNodes && s.adj().canBucket() {
		return s.RowBucketsInto(src, row)
	}
	return s.RowInto(src, row)
}

package main

import (
	"math/rand"

	"netplace/internal/core"
	"netplace/internal/graph"
	"netplace/internal/metric"
)

// kernelSamples bounds how many ops replay the oracle and SSSP kernels.
const kernelSamples = 12

// kernelRows is how many rows each kernel replay fills, and
// rowHitsPerSpan how many cached-row reads one metric.row_hits span
// times.
const (
	kernelRows     = 8
	rowHitsPerSpan = 1000
)

// kernelReplay times the lazy oracle and SSSP kernels on in's graph:
// uncached and cached Lazy.Row, a batched Lazy.RowsInto against one Row
// per node on the same uncached set, storage radii for obj, and the heap
// and auto SSSP kernels.
func kernelReplay(t *tracer, in *core.Instance, obj *core.Object, op int, parent int64, rng *rand.Rand) {
	g := in.G
	us := make([]int, kernelRows)
	for k := range us {
		us[k] = rng.Intn(g.N())
	}
	lz := metric.NewLazy(g, 64)
	for _, u := range us {
		t.do("metric.row_fill", op, parent, func(int64) { lz.Row(u) })
		// A hit takes tens of nanoseconds, so one span covers many.
		t.do("metric.row_hits", op, parent, func(int64) {
			for k := 0; k < rowHitsPerSpan; k++ {
				lz.Row(u)
			}
		})
	}
	batch := metric.NewLazy(g, 64)
	t.do("metric.rows_batch", op, parent, func(int64) { batch.RowsInto(us, nil, -1) })
	serial := metric.NewLazy(g, 64)
	t.do("metric.rows_serial", op, parent, func(int64) {
		for _, u := range us {
			serial.Row(u)
		}
	})
	ws := metric.NewWorkspace()
	req := obj.Requests()
	t.do("metric.storage_radii", op, parent, func(int64) { ws.ComputeStorageRadii(in.Metric(), req, in.Storage) })
	sc := graph.NewScanner(g)
	row := make([]float64, g.N())
	for _, u := range us {
		t.do("graph.sssp_heap", op, parent, func(int64) { row = sc.RowInto(u, row) })
		t.do("graph.sssp_auto", op, parent, func(int64) { row = sc.RowAutoInto(u, row) })
	}
}

// kernelLayerMetrics sets the oracle and SSSP kernel metrics from the
// replay spans.
func kernelLayerMetrics(b *bench, total map[string][]float64) {
	b.set("metric.row_fill_ms", median(total["metric.row_fill"]))
	b.set("metric.row_hit_ns", median(total["metric.row_hits"])*1e6/rowHitsPerSpan)
	b.set("metric.rows_batch_ms", median(total["metric.rows_batch"]))
	b.set("metric.rows_serial_ms", median(total["metric.rows_serial"]))
	b.set("metric.storage_radii_ms", median(total["metric.storage_radii"]))
	b.set("graph.sssp_heap_ms", median(total["graph.sssp_heap"]))
	b.set("graph.sssp_auto_ms", median(total["graph.sssp_auto"]))
}

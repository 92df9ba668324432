package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"

	"netplace/internal/core"
	"netplace/internal/encode"
	"netplace/internal/facility"
	"netplace/internal/gen"
	"netplace/internal/service"
	"netplace/internal/workload"
)

// planOpsPerSecond sizes plan_small's fixed op list: about this many ops
// complete per second from one client on a 2-vCPU machine, so -seconds S
// measures for roughly S seconds. It is a constant so the list never
// depends on the speed of the code under test.
const planOpsPerSecond = 30

// planWarmOps is how many ops each set-up runs after starting the
// cluster. They take about a second on a 2-vCPU machine, so setup_s
// times the work a user pays before the first measured op, not a few
// milliseconds of listener start-up that any scheduling hiccup doubles.
const planWarmOps = 48

// planTopologies are the gen.Build families plan_small draws from.
var planTopologies = []string{"grid", "clustered", "geometric", "er"}

// planOp is one cold "new network, new question" op: upload a fresh
// instance, solve it with default options, delete it.
type planOp struct {
	in   *core.Instance
	body []byte // the instance's wire JSON, as uploaded
}

// planOps builds count seeded ops. The size profile is stratified — every
// topology, node count in [40, 120] and object count in [2, 4] appears in
// fixed proportions — and the seed draws the order, the graphs, the fees
// and the demand, so the total work varies little from seed to seed.
func planOps(seed int64, count int, smoke bool) ([]planOp, error) {
	rng := rand.New(rand.NewSource(seed))
	order := rng.Perm(count)
	ops := make([]planOp, count)
	for k, i := range order {
		topo := planTopologies[i%len(planTopologies)]
		n := 40 + (i*37)%81
		objects := 2 + (i/len(planTopologies))%3
		if smoke {
			n = 12 + i%10
		}
		r := rand.New(rand.NewSource(seed*7919 + int64(k)))
		in, err := planInstance(topo, n, objects, r)
		if err != nil {
			return nil, err
		}
		body, err := json.Marshal(encode.InstanceJSONOf(in))
		if err != nil {
			return nil, err
		}
		ops[k] = planOp{in: in, body: body}
	}
	return ops, nil
}

// planInstance draws one connected instance with Zipf demand.
func planInstance(topo string, n, objects int, rng *rand.Rand) (*core.Instance, error) {
	for attempt := 0; attempt < 100; attempt++ {
		g, err := gen.Build(topo, n, rng)
		if err != nil {
			return nil, err
		}
		storage := make([]float64, g.N())
		for v := range storage {
			storage[v] = 1 + rng.Float64()*9
		}
		objs := workload.Generate(g.N(), workload.Spec{Objects: objects, MeanRate: 2, WriteFraction: 0.2, ZipfS: 0.8}, rng)
		if in, err := core.NewInstance(g, storage, objs); err == nil {
			return in, nil
		}
	}
	return nil, fmt.Errorf("no connected %s instance with %d nodes", topo, n)
}

// planResult is what the service answered for one op.
type planResult struct {
	id  string
	res service.SolveResult
}

// runPlanOp uploads, solves and deletes one instance through c. When t is
// non-nil each call is a span under the op's span.
func runPlanOp(ctx context.Context, c *service.Client, op planOp, t *tracer, i int, parent int64) (planResult, error) {
	var out planResult
	var err error
	t.do("service.upload", i, parent, func(int64) {
		var up service.UploadResponse
		up, err = c.Upload(ctx, "", op.in)
		out.id = up.ID
	})
	if err != nil {
		return out, fmt.Errorf("upload: %w", err)
	}
	t.do("service.solve", i, parent, func(int64) { out.res, err = c.Solve(ctx, out.id, service.SolveOptions{}) })
	if err != nil {
		return out, fmt.Errorf("solve: %w", err)
	}
	t.do("service.delete", i, parent, func(int64) { err = c.Delete(ctx, out.id) })
	if err != nil {
		return out, fmt.Errorf("delete: %w", err)
	}
	return out, nil
}

// runPlanSmall is the plan_small workload: the cold path through a
// two-replica cluster. Every solve misses the cache, builds a dense
// oracle and runs local-search phase 1.
func runPlanSmall(ctx context.Context, b *bench) error {
	count := planOpsPerSecond * b.seconds
	warmCount := planWarmOps
	if b.smoke {
		count, warmCount = 8, 2
	}
	if b.trace {
		count /= 2 // the traced run measures the same ops twice
	}
	ops, err := planOps(b.seed, count, b.smoke)
	if err != nil {
		return err
	}
	warm, err := planOps(b.seed+1_000_003, warmCount, b.smoke)
	if err != nil {
		return err
	}

	var hosts []*host
	if err := timeSetup(b, func() error {
		var err error
		if hosts, err = startCluster(b); err != nil {
			return err
		}
		c := clientFor(b, hosts[0].url)
		for i, op := range warm {
			if _, err := runPlanOp(ctx, c, op, nil, i, 0); err != nil {
				return fmt.Errorf("warm-up: %w", err)
			}
		}
		return nil
	}); err != nil {
		return err
	}

	results, untraced, err := measurePlan(ctx, b, hosts, ops, nil)
	if err != nil {
		return err
	}
	untraced.record(b, "plan_small")
	b.set("peak_rss_mb", peakRSSMB())
	if !b.trace {
		b.set("placement_cost", checkPlans(ctx, b, ops, results, nil))
		return nil
	}

	// Traced run: the same ops on a fresh cluster, so no cache answers,
	// with spans around every client call; then the per-op replays
	// through each layer.
	if hosts, err = startCluster(b); err != nil {
		return err
	}
	traced, tracedLoop, err := measurePlan(ctx, b, hosts, ops, b.tracer)
	if err != nil {
		return err
	}
	tracedLoop.count(b, "plan_small traced")
	setOverhead(b, untraced, tracedLoop)
	for i := range traced {
		if !reflect.DeepEqual(traced[i].res.Placement, results[i].res.Placement) {
			b.mismatch("plan op %d: traced and untraced placements differ", i)
		}
	}
	b.set("placement_cost", checkPlans(ctx, b, ops, traced, b.tracer))
	ins := make([]*core.Instance, len(ops))
	for i, op := range ops {
		ins[i] = op.in
	}
	forwarded, err := probeCluster(ctx, b, hosts, ins, 1, true)
	if err != nil {
		return err
	}
	b.set("cluster.forwarded_ratio", forwarded)
	planLayerMetrics(b, ops)
	return nil
}

// measurePlan runs ops closed-loop from one client entering at replica
// A and records the service counters of the phase.
func measurePlan(ctx context.Context, b *bench, hosts []*host, ops []planOp, t *tracer) ([]planResult, loop, error) {
	before, err := statzSum(ctx, hosts)
	if err != nil {
		return nil, loop{}, err
	}
	c := clientFor(b, hosts[0].url)
	results := make([]planResult, len(ops))
	l := closedLoop(ctx, len(ops), func(i int) error {
		var err error
		t.do("op", i, 0, func(id int64) { results[i], err = runPlanOp(ctx, c, ops[i], t, i, id) })
		return err
	})
	after, err := statzSum(ctx, hosts)
	if err != nil {
		return nil, l, err
	}
	return results, l, recordStatz(b, before, after, len(ops))
}

// hookedFL returns a core.Options.FL hook that times phase 1 as a span
// under the op and parent span at reports, and calls exactly the solver
// core's auto rule picks for n nodes.
func hookedFL(t *tracer, n int, at func() (op int, parent int64)) facility.Solver {
	solver := facility.LocalSearch
	if n > core.DenseMetricMaxNodes {
		solver = facility.MettuPlaxton
	}
	return func(fi *facility.Instance) []int {
		var out []int
		op, parent := at()
		t.do("facility.phase1", op, parent, func(int64) { out = solver(fi) })
		return out
	}
}

// checkPlans solves every op's instance in process — decoded from the
// bytes that were uploaded — and compares placement and cost with the
// service's answer. It runs outside the timed region on two goroutines
// and returns the summed cost. With a tracer, each replay records the
// decode, hash, dense oracle build, approximation and phase-1 spans
// under a per-op replay span. It stops early when ctx ends.
func checkPlans(ctx context.Context, b *bench, ops []planOp, results []planResult, t *tracer) float64 {
	costs := make([]float64, len(ops))
	bad := make([]string, len(ops))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(ops) || ctx.Err() != nil {
					return
				}
				bad[i] = checkPlan(ops[i], results[i], t, i, &costs[i])
			}
		}()
	}
	wg.Wait()
	var sum float64
	for i := range ops {
		if bad[i] != "" {
			b.mismatch("plan op %d: %s", i, bad[i])
		}
		sum += costs[i]
	}
	return sum
}

// checkPlan replays one op in process; it returns "" when the service's
// answer matches.
func checkPlan(op planOp, r planResult, t *tracer, i int, cost *float64) string {
	root, start := t.begin("replay", i, 0)
	defer t.end(root, start)
	var in *core.Instance
	var err error
	t.do("encode.decode", i, root, func(int64) { in, err = encode.ReadInstance(bytes.NewReader(op.body)) })
	if err != nil {
		return "decode: " + err.Error()
	}
	var hash string
	t.do("encode.hash", i, root, func(int64) { hash = encode.HashInstance(in) })
	if r.id == "" || len(hash) < len(r.id) || hash[:len(r.id)] != r.id {
		return fmt.Sprintf("instance id %q is not a prefix of hash %q", r.id, hash)
	}
	t.do("metric.dense_build", i, root, func(int64) { in.Metric() })
	var p core.Placement
	t.do("core.approximate", i, root, func(id int64) {
		// One object at a time, so phase-1 spans never overlap and
		// their share of the solve is exact; the placement does not
		// depend on Workers.
		opt := core.Options{Workers: 1}
		if t != nil {
			opt.FL = hookedFL(t, in.N(), func() (int, int64) { return i, id })
		}
		p = core.Approximate(in, opt)
	})
	if t != nil && i < kernelSamples {
		kernelReplay(t, in, &in.Objects[0], i, root, rand.New(rand.NewSource(int64(i))))
	}
	want, err := encode.PlacementJSONOf(in, p)
	if err != nil {
		return err.Error()
	}
	if !reflect.DeepEqual(want, r.res.Placement) {
		return "placement differs from in-process core.Approximate"
	}
	bd := in.Cost(p)
	if bd.Total() != r.res.Breakdown.Total || bd.Storage != r.res.Breakdown.Storage {
		return fmt.Sprintf("cost %v, in-process %v", r.res.Breakdown.Total, bd.Total())
	}
	*cost = bd.Total()
	return ""
}

// planLayerMetrics turns plan_small's spans into per-layer metrics.
func planLayerMetrics(b *bench, ops []planOp) {
	self := b.tracer.layerTimes()
	total := b.tracer.totals()
	b.set("service.request_ms", median(self["service.solve"]))
	b.set("service.solve_ms", median(self["service.solve"]))
	b.set("service.upload_ms", median(self["service.upload"]))
	b.set("service.delete_ms", median(self["service.delete"]))
	b.set("encode.decode_ms", median(total["encode.decode"]))
	b.set("encode.hash_ms", median(total["encode.hash"]))
	b.set("metric.dense_build_ms", median(total["metric.dense_build"]))
	b.set("core.solve_ms", median(total["core.approximate"]))
	b.set("core.approximate_ms", median(total["core.approximate"]))
	b.set("facility.phase1_ms", median(total["facility.phase1"]))
	b.set("facility.phase1_share", sum(total["facility.phase1"])/sum(total["core.approximate"]))
	kernelLayerMetrics(b, total)
	var kb float64
	for _, op := range ops {
		kb += float64(len(op.body)) / 1024
	}
	b.set("encode.upload_kb", kb/float64(len(ops)))
}

// sum adds xs.
func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

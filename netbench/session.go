package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"time"

	"netplace/internal/core"
	"netplace/internal/encode"
	"netplace/internal/gen"
	"netplace/internal/service"
	"netplace/internal/stream"
	"netplace/internal/workload"
)

// Session workload shape. openRate is the open-loop event rate per
// session, a constant that is never recomputed per run, so faster code
// does not get heavier load. An epoch-closing batch holds its session for
// the re-solve (about 220 ms on a 2-vCPU machine when the benchmark was
// written), and batches due meanwhile wait for it. At 600 events/s about
// two of the seven non-epoch batches per epoch are due then, and about
// two more run beside the other session's re-solve; the p95 tail lands
// among the epoch-closing acks. At 900 events/s, about 43% of the
// closed-loop capacity, half the non-epoch batches waited.
const (
	sessionBatch     = 64   // events per batch
	sessionEpoch     = 512  // events per epoch: one batch in eight closes one
	sessionWarm      = 8    // set-up batches per session: the first epoch, with its full re-solve
	sessionObjects   = 8    // objects per instance
	openRate         = 600  // open-loop events per second per session
	closedPerSecond  = 1800 // closed-loop events per nominal second per session
	sessionSide      = 50   // 2500-node grid, benchkit.ResidentInstance's shape
	sessionSmokeSide = 6

	// spinLead is how long before a batch is due its sender stops
	// sleeping and starts yielding in a loop. A Go timer fired about
	// 0.7 ms late at the median, half a quiet ack, and by an amount
	// that moved with the machine's load.
	spinLead = 2 * time.Millisecond
)

// sessionTrace is one session's instance and its drifting-hotspot
// event trace, cut into sequenced batches.
type sessionTrace struct {
	in      *core.Instance
	body    []byte // the instance's wire JSON, as uploaded
	batches [][]service.SessionEvent
	reqs    [][]workload.Request // the same batches as engine requests
}

// sessionTraces builds the two sessions' instances and traces of at
// least events events each. The instances have the
// benchkit.ResidentInstance shape (a unit grid, storage fees in [2, 8),
// Zipf objects); the events come from stream.Drift with hotspots that
// move between phases, as experiment E18 uses, so epochs re-solve and
// move copies. Like benchkit's fixture, each session's fees and per-phase
// demand tables come from a fixed seed (41 and 42); seed draws the event
// sequence. A seeded table would move where the hotspots sit, and with
// them the cost of every re-solve, so the work per run would vary with
// the seed.
func sessionTraces(seed int64, side, events int) ([2]sessionTrace, error) {
	var out [2]sessionTrace
	for s := range out {
		fixed := rand.New(rand.NewSource(41 + int64(s)))
		g := gen.Grid(side, side, gen.UnitWeights)
		n := g.N()
		storage := make([]float64, n)
		for v := range storage {
			storage[v] = 2 + fixed.Float64()*6
		}
		phases := 4
		draw := rand.New(rand.NewSource(seed*31 + int64(s)))
		avg, seq := stream.Drift(n, phases, events, draw, func(phase int) []core.Object {
			r := rand.New(rand.NewSource(977 + int64(10*s+phase)))
			return workload.Generate(n, workload.Spec{
				Objects: sessionObjects, MeanRate: 3, WriteFraction: 0.15, ZipfS: 0.8,
				Hotspot: 0.7, HotspotNodes: 25,
			}, r)
		})
		in, err := core.NewInstance(g, storage, avg)
		if err != nil {
			return out, err
		}
		body, err := json.Marshal(encode.InstanceJSONOf(in))
		if err != nil {
			return out, err
		}
		tr := sessionTrace{in: in, body: body}
		for lo := 0; lo+sessionBatch <= len(seq); lo += sessionBatch {
			reqs := seq[lo : lo+sessionBatch]
			evs := make([]service.SessionEvent, len(reqs))
			for k, r := range reqs {
				evs[k] = service.SessionEvent{Obj: in.Objects[r.Obj].Name, Node: r.V, Write: r.Write}
			}
			tr.batches = append(tr.batches, evs)
			tr.reqs = append(tr.reqs, reqs)
		}
		out[s] = tr
	}
	return out, nil
}

// sessionConfig is the sessions' wire configuration.
var sessionConfig = service.SessionConfig{Epoch: sessionEpoch}

// ingest is a durable server with the two sessions open.
type ingest struct {
	h   *host
	c   *service.Client
	ids [2]string
}

// openIngest starts a server (durable or in memory), uploads both
// instances, opens both sessions and sends each session's warm-up
// batches.
func openIngest(ctx context.Context, b *bench, traces [2]sessionTrace, durable bool, t *tracer) (*ingest, error) {
	h, err := startServer(b, durable)
	if err != nil {
		return nil, err
	}
	x := &ingest{h: h, c: clientFor(b, h.url)}
	for s, tr := range traces {
		var up service.UploadResponse
		var err error
		t.do("service.upload", s, 0, func(int64) { up, err = x.c.Upload(ctx, fmt.Sprintf("session%d", s), tr.in) })
		if err != nil {
			return nil, fmt.Errorf("upload: %w", err)
		}
		info, err := x.c.OpenSession(ctx, up.ID, sessionConfig)
		if err != nil {
			return nil, fmt.Errorf("open session: %w", err)
		}
		x.ids[s] = info.SessionID
		for j := 0; j < sessionWarm; j++ {
			if _, err := x.c.SessionEventsSeq(ctx, info.SessionID, int64(j+1), tr.batches[j]); err != nil {
				return nil, fmt.Errorf("warm-up batch %d: %w", j, err)
			}
		}
	}
	return x, nil
}

// ack is one acknowledged batch: its latency in milliseconds (from the
// scheduled send in the open loop), whether it closed an epoch, how late
// the generator sent it, and when it was due, sent and acked, measured
// from the start of its phase.
type ack struct {
	ms, lateMS       float64
	epoch            bool
	due, sent, acked time.Duration
	err              error
}

// phase sends batches [lo, hi) of both sessions, one FIFO sender per
// session because sequenced batches must apply in order. With sched
// set, batch lo+k of session s is due sched[s][k] after the phase starts
// (open loop) and its ack is timed from then; with sched nil each batch
// goes as soon as the previous one is acked (closed loop). It returns
// the acks of both sessions and the phase's wall time.
func (x *ingest) phase(ctx context.Context, t *tracer, traces [2]sessionTrace, lo, hi int, sched *[2][]time.Duration) ([2][]ack, time.Duration) {
	var acks [2][]ack
	var wg sync.WaitGroup
	start := time.Now()
	for s := range traces {
		acks[s] = make([]ack, hi-lo)
		for j := range acks[s] {
			acks[s][j].err = errNotRun
		}
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for j := lo; j < hi; j++ {
				a := &acks[s][j-lo]
				due := time.Now()
				if sched != nil {
					due = start.Add(sched[s][j-lo])
					waitUntil(ctx, due)
				}
				if a.err = ctx.Err(); a.err != nil {
					return
				}
				sent := time.Now()
				a.lateMS = ms(sent.Sub(due))
				op := s*1_000_000 + j
				var resp service.SessionEventsResponse
				t.do("op", op, 0, func(id int64) {
					t.do("service.events", op, id, func(int64) {
						resp, a.err = x.c.SessionEventsSeq(ctx, x.ids[s], int64(j+1), traces[s].batches[j])
					})
				})
				acked := time.Now()
				a.ms = ms(acked.Sub(due))
				a.due, a.sent, a.acked = due.Sub(start), sent.Sub(start), acked.Sub(start)
				a.epoch = len(resp.Epochs) > 0
				if a.err == nil && resp.Accepted != sessionBatch {
					a.err = fmt.Errorf("batch %d: accepted %d of %d events", j, resp.Accepted, sessionBatch)
				}
			}
		}(s)
	}
	wg.Wait()
	return acks, time.Since(start)
}

// waitUntil returns at due, or as soon as ctx ends. It sleeps until
// spinLead before due and then yields in a loop until due, so the batch
// goes out on time instead of when a late timer fires.
func waitUntil(ctx context.Context, due time.Time) {
	if d := time.Until(due) - spinLead; d > 0 {
		t := time.NewTimer(d)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return
		}
	}
	for ctx.Err() == nil && time.Now().Before(due) {
		runtime.Gosched()
	}
}

// openSchedule draws each session's open-loop send times: batch k is
// due at (k + u) batch intervals, u uniform in [-1/2, 1/2), at openRate
// events per second. Batches due while an epoch re-solve holds the
// session then wait anywhere between zero and the whole re-solve, so
// the ack percentiles move smoothly with its length instead of in steps
// of one interval, and about the same number of batches wait in every
// epoch, which keeps the tail steadier than Poisson arrivals would.
//
// The second session runs half an epoch behind the first. Started in
// step, the two sessions closed their epochs at the same moments, and
// each re-solve's length then hung on how far it happened to overlap the
// other's on the two vCPUs, which moved the tail from run to run.
func openSchedule(seed int64, batches int) *[2][]time.Duration {
	interval := float64(time.Second) * sessionBatch / openRate
	var out [2][]time.Duration
	for s := range out {
		rng := rand.New(rand.NewSource(seed*131 + int64(s)))
		lag := float64(s * sessionEpoch / sessionBatch / 2)
		for k := 0; k < batches; k++ {
			at := (float64(k) + lag + rng.Float64() - 0.5) * interval
			out[s] = append(out[s], time.Duration(max(at, 0)))
		}
	}
	return &out
}

// split returns the latencies of the acked batches that closed no epoch
// and of those that did, and counts failures.
func split(b *bench, acks [2][]ack) (plain, epoch, late []float64) {
	shown := 0
	for s := range acks {
		for j, a := range acks[s] {
			b.attempted++
			if a.err != nil {
				b.failed++
				if shown++; shown <= 5 {
					fmt.Fprintf(b.stderr, "netbench: session %d batch %d: %v\n", s, j, a.err)
				}
				continue
			}
			late = append(late, a.lateMS)
			if a.epoch {
				epoch = append(epoch, a.ms)
			} else {
				plain = append(plain, a.ms)
			}
		}
	}
	return plain, epoch, late
}

// quiet returns the latencies of the acked batches that close no epoch
// and overlap no epoch-closing request of either session: between the
// batch's scheduled send and its ack, no re-solve was in flight. A batch
// due during its own session's re-solve waits for it, and one beside the
// other session's re-solve shares the two vCPUs with it, at three to
// five times a quiet batch's latency. How many batches do either moves
// with the re-solve's length, and with it any median that counts them,
// so the median ack is taken over the quiet batches alone; the tail
// still counts every batch.
func quiet(acks [2][]ack) []float64 {
	var closes []ack
	for s := range acks {
		for _, a := range acks[s] {
			if a.err == nil && a.epoch {
				closes = append(closes, a)
			}
		}
	}
	var out []float64
	for s := range acks {
	batches:
		for _, a := range acks[s] {
			if a.err != nil || a.epoch {
				continue
			}
			for _, c := range closes {
				if c.sent < a.acked && a.due < c.acked {
					continue batches
				}
			}
			out = append(out, a.ms)
		}
	}
	return out
}

// runSessionIngest is the session_ingest workload: two durable sessions
// fed drifting-hotspot events, first open loop at a fixed rate, then
// closed loop at saturation.
func runSessionIngest(ctx context.Context, b *bench) error {
	side := sessionSide
	openBatches := openRate * b.seconds * 8 / 5 / sessionBatch
	closedBatches := closedPerSecond * b.seconds / sessionBatch
	if b.smoke {
		side, openBatches, closedBatches = sessionSmokeSide, 10, 10
	}
	if b.trace {
		openBatches, closedBatches = openBatches/2, closedBatches/2
	}
	total := sessionWarm + openBatches + closedBatches
	traces, err := sessionTraces(b.seed, side, total*sessionBatch)
	if err != nil {
		return err
	}
	sched := openSchedule(b.seed, openBatches)

	var x *ingest
	if err := timeSetup(b, func() error {
		var err error
		x, err = openIngest(ctx, b, traces, true, nil)
		return err
	}); err != nil {
		return err
	}
	m, err := measureIngest(ctx, b, x, nil, traces, openBatches, closedBatches, sched)
	if err != nil {
		return err
	}
	b.set("peak_rss_mb", peakRSSMB())
	b.set("throughput_per_s", m.eps)
	// latency_p50_ms is the median of the quiet acks, the batches that
	// close no epoch and overlap no re-solve (see quiet). The tail is
	// taken over every open-loop ack, so it lands among the epoch-closing
	// ones. The tail of the non-epoch acks alone (printed as ack_tail_ms)
	// sits among the few batches that queued behind a re-solve, where it
	// swung by half from seed to seed (see NOTES.md).
	all := append(append([]float64(nil), m.plain...), m.epoch...)
	b.set("latency_p50_ms", median(m.quiet))
	p, v := tail(all)
	b.set("latency_tail_ms", v)
	b.note("session_ingest open-loop acks: %d samples, %d quiet, tail = p%g", len(all), len(m.quiet), p)
	b.note("%-40s %16.6f %s", "ingest_eps", m.eps, "events/s")
	b.note("%-40s %16.6f %s (%d samples)", "quiet_ack_p50_ms", median(m.quiet), "ms", len(m.quiet))
	b.note("%-40s %16.6f %s (%d samples)", "ack_p50_ms", median(m.plain), "ms", len(m.plain))
	ap, av := tail(m.plain)
	b.note("%-40s %16.6f %s (p%g)", "ack_tail_ms", av, "ms", ap)
	b.note("%-40s %16.6f %s (%d samples)", "epoch_p50_ms", median(m.epoch), "ms", len(m.epoch))
	b.note("%-40s %16.6f %s", "generator_late_p50_ms", median(m.late), "ms")
	if b.trace {
		if err := traceIngest(ctx, b, traces, m, openBatches, closedBatches, sched); err != nil {
			return err
		}
	}
	cost, err := checkSessions(ctx, b, x, traces, total, nil)
	if err != nil {
		return err
	}
	b.set("placement_cost", cost)
	return nil
}

// ingestResult is one open-loop plus closed-loop pass.
type ingestResult struct {
	plain, epoch, late, quiet []float64
	eps                       float64
}

// measureIngest runs the open-loop phase and then the closed-loop phase
// on x's sessions, after the warm-up batches.
func measureIngest(ctx context.Context, b *bench, x *ingest, t *tracer, traces [2]sessionTrace, open, closed int, sched *[2][]time.Duration) (ingestResult, error) {
	before, err := statzSum(ctx, []*host{x.h})
	if err != nil {
		return ingestResult{}, err
	}
	var r ingestResult
	acks, _ := x.phase(ctx, t, traces, sessionWarm, sessionWarm+open, sched)
	r.plain, r.epoch, r.late = split(b, acks)
	r.quiet = quiet(acks)
	// The closed loop runs in rounds like closedLoop; ingest_eps is the
	// median round's rate.
	var rates []float64
	for k := 0; k < loopRounds && closed > 0; k++ {
		lo := sessionWarm + open + closed*k/loopRounds
		hi := sessionWarm + open + closed*(k+1)/loopRounds
		acks, wall := x.phase(ctx, t, traces, lo, hi, nil)
		cp, ce, _ := split(b, acks)
		rates = append(rates, float64((len(cp)+len(ce))*sessionBatch)/wall.Seconds())
	}
	if closed > 0 {
		r.eps = median(rates)
		b.note("session_ingest round rates: %.5g", rates)
	}
	after, err := statzSum(ctx, []*host{x.h})
	if err != nil {
		return r, err
	}
	return r, recordStatz(b, before, after, 2*(open+closed))
}

// traceIngest is the traced pass: the same batches on a fresh durable
// server with spans around every call, the open-loop batches again,
// untraced, on an in-memory server to price persistence against the
// untraced durable pass, and the cluster probe on the sessions'
// instances.
func traceIngest(ctx context.Context, b *bench, traces [2]sessionTrace, untraced ingestResult, open, closed int, sched *[2][]time.Duration) error {
	x, err := openIngest(ctx, b, traces, true, b.tracer)
	if err != nil {
		return err
	}
	traced, err := measureIngest(ctx, b, x, b.tracer, traces, open, closed, sched)
	if err != nil {
		return err
	}
	b.set("trace.overhead_p50_ms", median(traced.quiet)-median(untraced.quiet))
	b.set("trace.overhead_throughput_per_s", traced.eps-untraced.eps)
	self := b.tracer.layerTimes()
	b.set("service.request_ms", median(self["service.events"]))
	b.set("service.events_ms", median(self["service.events"]))
	b.set("service.upload_ms", median(self["service.upload"]))

	mem, err := openIngest(ctx, b, traces, false, nil)
	if err != nil {
		return err
	}
	inMemory, err := measureIngest(ctx, b, mem, nil, traces, open, 0, sched)
	if err != nil {
		return err
	}
	b.set("service.persist_ms", median(untraced.quiet)-median(inMemory.quiet))

	hosts, err := startCluster(b)
	if err != nil {
		return err
	}
	if _, err := probeCluster(ctx, b, hosts, []*core.Instance{traces[0].in, traces[1].in}, 5, false); err != nil {
		return err
	}
	b.set("cluster.forwarded_ratio", 0) // session traffic never crosses a proxy

	if _, err := checkSessions(ctx, b, x, traces, sessionWarm+open+closed, b.tracer); err != nil {
		return err
	}
	_, err = checkSessions(ctx, b, mem, traces, sessionWarm+open, nil)
	return err
}

// replay is one session's in-process replay.
type replay struct {
	stats     stream.Stats
	placement encode.PlacementJSON
	reports   []*stream.EpochReport
	observed  []float64 // Observe calls per stream.observe span, in span order
	spanIDs   []int64   // the stream.observe spans, in the same order
}

// checkSessions replays every batch each session acknowledged through an
// in-process stream.Engine with the session's configuration and compares
// the final accounting and placement with the server's. The two replays
// run concurrently. It returns the sessions' summed accounted cost. With
// a tracer the replays record decode, hash, Observe, epoch-close,
// re-solve and phase-1 spans under a replay span per batch, plus the
// oracle and SSSP kernels on a sample of epoch closes.
func checkSessions(ctx context.Context, b *bench, x *ingest, traces [2]sessionTrace, batches int, t *tracer) (float64, error) {
	var reps [2]replay
	var errs [2]error
	var wg sync.WaitGroup
	for s := range traces {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			reps[s], errs[s] = replaySession(ctx, traces[s], s, batches, t, b.seed)
		}(s)
	}
	wg.Wait()
	var cost float64
	var reports []*stream.EpochReport
	for s, r := range reps {
		if errs[s] != nil {
			return 0, errs[s]
		}
		st := r.stats
		want := service.SessionStats{Events: st.Events, Epochs: st.Epochs, Resolves: st.Resolves,
			Moves: st.Moves, Rejected: st.Rejected, Transmission: st.Transmission,
			Storage: st.Storage, Migration: st.Migration, Total: st.Total()}
		got, err := x.c.Session(ctx, x.ids[s])
		if err != nil {
			return 0, err
		}
		if got.Stats != want {
			b.mismatch("session %d: stats %+v, in-process replay %+v", s, got.Stats, want)
		}
		pl, err := x.c.SessionPlacement(ctx, x.ids[s])
		if err != nil {
			return 0, err
		}
		if !reflect.DeepEqual(pl.Placement, r.placement) {
			b.mismatch("session %d: placement differs from the in-process replay", s)
		}
		cost += st.Total()
		reports = append(reports, r.reports...)
	}
	if t != nil {
		sessionLayerMetrics(b, reps, reports, traces)
	}
	return cost, nil
}

// replaySession replays the first batches of one session's trace. It
// stops with ctx's error when ctx ends.
func replaySession(ctx context.Context, tr sessionTrace, s, batches int, t *tracer, seed int64) (replay, error) {
	var r replay
	op := s * 1_000_000
	var in *core.Instance
	var err error
	t.do("encode.decode", op, 0, func(int64) { in, err = encode.ReadInstance(bytes.NewReader(tr.body)) })
	if err != nil {
		return r, err
	}
	t.do("encode.hash", op, 0, func(int64) { encode.HashInstance(in) })
	var closing, resolving int64 // the spans a re-solve and its phase 1 hang off
	cfg := stream.Config{Epoch: sessionEpoch}
	if t != nil {
		cfg.SolveGate = func(solve func()) {
			t.do("stream.resolve", op, closing, func(id int64) {
				resolving = id
				solve()
			})
		}
		cfg.Solve.FL = hookedFL(t, in.N(), func() (int, int64) { return op, resolving })
	}
	eng := stream.New(in, cfg)
	samples, events := 0, 0
	for j := 0; j < batches; j++ {
		if err := ctx.Err(); err != nil {
			return r, err
		}
		op = s*1_000_000 + j
		root, start := t.begin("replay", op, 0)
		reqs := tr.reqs[j]
		for len(reqs) > 0 {
			// Observe calls that close no epoch take well under a
			// microsecond, so one stream.observe span covers the run of
			// them up to the next epoch close; the closing call gets a
			// stream.epoch_close span of its own.
			run := sessionEpoch - events%sessionEpoch - 1
			if run > len(reqs) {
				run = len(reqs)
			}
			if run > 0 {
				id, t0 := t.begin("stream.observe", op, root)
				for _, q := range reqs[:run] {
					if _, err = eng.Observe(q); err != nil {
						break
					}
				}
				t.end(id, t0)
				r.observed = append(r.observed, float64(run))
				r.spanIDs = append(r.spanIDs, id)
				if err != nil {
					return r, err
				}
				reqs, events = reqs[run:], events+run
				continue
			}
			var rep *stream.EpochReport
			t.do("stream.epoch_close", op, root, func(id int64) {
				closing = id
				rep, err = eng.Observe(reqs[0])
			})
			if err != nil {
				return r, err
			}
			if rep == nil {
				return r, fmt.Errorf("session %d: event %d did not close an epoch", s, events)
			}
			r.reports = append(r.reports, rep)
			reqs, events = reqs[1:], events+1
			if t != nil && samples < 2 {
				samples++
				kernelReplay(t, in, &in.Objects[0], op, root, rand.New(rand.NewSource(seed+int64(op))))
			}
		}
		t.end(root, start)
	}
	r.stats = eng.Stats()
	r.placement, err = encode.PlacementJSONOf(in, eng.Placement())
	return r, err
}

// sessionLayerMetrics turns session_ingest's replay spans and epoch
// reports into per-layer metrics.
func sessionLayerMetrics(b *bench, reps [2]replay, reports []*stream.EpochReport, traces [2]sessionTrace) {
	total := b.tracer.totals()
	byID := b.tracer.durations()
	var perCall []float64
	var kb float64
	for s, r := range reps {
		for k, id := range r.spanIDs {
			perCall = append(perCall, byID[id]*1000/r.observed[k])
		}
		kb += float64(len(traces[s].body)) / 1024 / float64(len(reps))
	}
	b.set("encode.upload_kb", kb)
	b.set("encode.decode_ms", median(total["encode.decode"]))
	b.set("encode.hash_ms", median(total["encode.hash"]))
	b.set("stream.observe_us", median(perCall))
	b.set("stream.epoch_close_ms", median(total["stream.epoch_close"]))
	b.set("stream.resolve_ms", median(total["stream.resolve"]))
	b.set("core.solve_ms", median(total["stream.resolve"]))
	b.set("facility.phase1_ms", median(total["facility.phase1"]))
	b.set("facility.phase1_share", sum(total["facility.phase1"])/sum(total["stream.resolve"]))
	var res, mov, rej float64
	for _, r := range reports {
		res += float64(r.Resolved)
		mov += float64(r.Moved)
		rej += float64(r.Rejected)
	}
	if n := float64(len(reports)); n > 0 {
		b.set("stream.resolves_per_epoch", res/n)
		b.set("stream.moves_per_epoch", mov/n)
		b.set("stream.rejected_per_epoch", rej/n)
	}
	kernelLayerMetrics(b, total)
}

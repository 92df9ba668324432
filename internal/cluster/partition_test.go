package cluster

// Partition conformance: the self-healing property. A cluster that
// loses a replica to a network partition mid-replay must (a) open its
// circuit breakers and fail fast with the typed replica-down error,
// (b) keep the healthy shards serving exactly as before, (c) serve
// stale-tolerant reads for the dead owner's keys from its successor's
// snapshot, and (d) after the partition heals, converge to a state
// byte-identical to an uninterrupted single-node run. Every test here
// drives real netplaced processes through per-replica TCP fault
// proxies (HarnessConfig.FaultProxy) — the partition is at the socket
// layer, exactly as a production network failure would be.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os/exec"
	"strings"
	"testing"
	"time"

	"netplace/internal/core"
	"netplace/internal/graph"
	"netplace/internal/service"
)

// partitionInstance builds the conformance fixture with hot spots
// shifted by k: content-distinct instances of identical shape, used to
// find pairs owned by different replicas.
func partitionInstance(t *testing.T, k int) *core.Instance {
	t.Helper()
	const n = 24
	g := graph.New(n)
	for v := 0; v+1 < n; v++ {
		g.AddEdge(v, v+1, 1)
	}
	storage := make([]float64, n)
	for v := range storage {
		storage[v] = float64(1 + (v+k)%3)
	}
	objs := make([]core.Object, 3)
	for oi := range objs {
		o := core.Object{Name: string(rune('a' + oi)), Reads: make([]int64, n), Writes: make([]int64, n)}
		o.Reads[(oi*7+3+k)%n] = 4
		o.Writes[oi] = 1
		objs[oi] = o
	}
	in, err := core.NewInstance(g, storage, objs)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// partitionFaultArgs tightens the failure-detection knobs so a
// partition is detected in tens of milliseconds instead of seconds.
func partitionFaultArgs() []string {
	return []string{
		"-probe-interval", "50ms",
		"-peer-timeout", "250ms",
		"-breaker-threshold", "3",
		"-breaker-backoff", "100ms",
	}
}

// sessionFingerprint is one session's slice of the byte-identity
// property: epochs in arrival order, final placement, accounting.
type sessionFingerprint struct {
	Epochs    []service.SessionEpochJSON       `json:"epochs"`
	Placement service.SessionPlacementResponse `json:"placement"`
	Stats     service.SessionStats             `json:"stats"`
	LastSeq   int64                            `json:"last_seq"`
}

// partitionFingerprint covers both sessions plus the summed session
// counters; json.Marshal sorts the map keys, keeping it byte-stable.
type partitionFingerprint struct {
	Sessions map[string]sessionFingerprint `json:"sessions"`
	Counters clusterSessionCounters        `json:"counters"`
}

// partSession tracks one label's session id and accumulating
// fingerprint while a trace is replayed.
type partSession struct {
	label string
	id    string
	fp    sessionFingerprint
}

// sendBatches replays sequenced batches [from, to] of the drift trace
// into one session, accumulating epoch reports.
func sendBatches(t *testing.T, sc *ShardedClient, s *partSession, trace []service.SessionEvent, from, to int) {
	t.Helper()
	const batch = 8
	for seq := from; seq <= to; seq++ {
		start := (seq - 1) * batch
		resp, err := sc.SessionEventsSeq(context.Background(), s.id, int64(seq), trace[start:start+batch])
		if err != nil {
			t.Fatalf("session %s batch %d: %v", s.label, seq, err)
		}
		if resp.Deduplicated || resp.Accepted != batch {
			t.Fatalf("session %s batch %d: accepted=%d deduplicated=%v", s.label, seq, resp.Accepted, resp.Deduplicated)
		}
		s.fp.Epochs = append(s.fp.Epochs, resp.Epochs...)
	}
}

// finishSession flushes the open epoch and captures the session's
// placement and accounting into its fingerprint.
func finishSession(t *testing.T, sc *ShardedClient, s *partSession) {
	t.Helper()
	ctx := context.Background()
	flush, err := sc.SessionFlush(ctx, s.id)
	if err != nil {
		t.Fatalf("session %s flush: %v", s.label, err)
	}
	s.fp.Epochs = append(s.fp.Epochs, flush.Epochs...)
	pl, err := sc.SessionPlacement(ctx, s.id)
	if err != nil {
		t.Fatal(err)
	}
	// Blank the id: its counter depends on the topology — one node mints
	// consecutive counters for the two sessions, two owners may each
	// mint the first.
	pl.SessionID = ""
	s.fp.Placement = pl
	info, err := sc.Session(ctx, s.id)
	if err != nil {
		t.Fatal(err)
	}
	s.fp.Stats = info.Stats
	s.fp.LastSeq = info.LastSeq
}

// waitPeerOpen polls a replica's /statz until its breaker for peer
// reports open — the failure-detection latency under test.
func waitPeerOpen(t *testing.T, c *service.Client, peer string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	var last map[string]string
	var lastErr error
	for time.Now().Before(deadline) {
		st, err := c.Stats(context.Background())
		if err == nil && st.PeerHealth[peer] == "open" {
			return
		}
		last, lastErr = st.PeerHealth, err
		time.Sleep(25 * time.Millisecond)
	}
	t.Fatalf("breaker for %s never opened; last peer_health=%v err=%v", peer, last, lastErr)
}

// runPartitionTrace replays the two-session drift trace against an
// n-replica cluster and returns the marshalled fingerprint. With
// faults enabled (n must be 2) it picks the instance pair so the two
// sessions live on different replicas, blackholes session a's owner
// after batch 3 — asserting typed fail-fast errors, breaker opening on
// the healthy replica, and a stale failover read from the successor's
// snapshot — heals, and finishes the trace. inA/inB nil means pick the
// pair from the booted ring (they are returned for the baseline run).
func runPartitionTrace(t *testing.T, n int, faults bool, inA, inB *core.Instance) ([]byte, *core.Instance, *core.Instance) {
	t.Helper()
	ctx := context.Background()
	cfg := HarnessConfig{N: n, BaseDir: t.TempDir()}
	if faults {
		cfg.FaultProxy = true
		cfg.ExtraArgs = partitionFaultArgs()
	}
	h, err := NewHarness(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Start(); err != nil {
		t.Fatal(err)
	}
	defer h.Stop()

	sc, err := NewShardedClient(h.URLs(), &http.Client{Timeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	rp := service.DefaultRetryPolicy()
	rp.MaxAttempts = 6
	sc.SetRetryPolicy(rp)
	sc.SetBreakerConfig(service.BreakerConfig{Threshold: 3, Backoff: 100 * time.Millisecond})

	if inA == nil {
		inA = partitionInstance(t, 0)
		ownerA := sc.Owner(service.InstanceIDFor(inA))
		for k := 1; k < 32 && inB == nil; k++ {
			cand := partitionInstance(t, k)
			if sc.Owner(service.InstanceIDFor(cand)) != ownerA {
				inB = cand
			}
		}
		if inB == nil {
			t.Fatal("no instance pair with distinct owners among 32 candidates")
		}
	}

	upA, err := sc.Upload(ctx, "part-a", inA)
	if err != nil {
		t.Fatal(err)
	}
	upB, err := sc.Upload(ctx, "part-b", inB)
	if err != nil {
		t.Fatal(err)
	}
	var opts service.SolveOptions
	scfg := service.SessionConfig{Epoch: 16, Window: 3}
	sessA, err := sc.OpenSession(ctx, upA.ID, scfg)
	if err != nil {
		t.Fatal(err)
	}
	sessB, err := sc.OpenSession(ctx, upB.ID, scfg)
	if err != nil {
		t.Fatal(err)
	}
	sA := &partSession{label: "a", id: sessA.SessionID}
	sB := &partSession{label: "b", id: sessB.SessionID}
	trace := conformanceTrace(24, 96)

	sendBatches(t, sc, sA, trace, 1, 3)
	sendBatches(t, sc, sB, trace, 1, 3)

	if faults {
		ownerURL := sc.Owner(upA.ID)
		idx := replicaIndex(t, h, ownerURL)
		if err := h.SetFault(idx, FaultBlackhole); err != nil {
			t.Fatal(err)
		}
		// The next batch for session a cannot land; the retries burn
		// out against timeouts and the client-side breaker opens.
		if _, err := sc.SessionEventsSeq(ctx, sA.id, 4, trace[24:32]); err == nil {
			t.Fatal("batch to blackholed owner succeeded")
		}
		if got := sc.Health().States()[ownerURL]; got != "open" {
			t.Fatalf("client breaker=%q after failed batch, want open", got)
		}
		// With the breaker open, a retry-free call fails fast with the
		// typed error instead of burning another timeout. The first
		// attempt may consume the breaker's due reopen probe (and its
		// timeout); right after any failure the breaker is freshly
		// open, so a typed sub-timeout answer must show up quickly.
		direct := service.NewClient(ownerURL, &http.Client{Timeout: time.Second})
		direct.SetBreaker(sc.Health().For(ownerURL))
		sawTyped := false
		for i := 0; i < 5 && !sawTyped; i++ {
			start := time.Now()
			_, err := direct.Solve(ctx, upA.ID, opts)
			if err == nil {
				t.Fatal("solve against blackholed owner succeeded")
			}
			sawTyped = errors.Is(err, service.ErrReplicaDown) && time.Since(start) < 500*time.Millisecond
		}
		if !sawTyped {
			t.Fatal("no fail-fast ErrReplicaDown within 5 attempts after breaker opened")
		}
		// The healthy replica's prober notices the partition too.
		healthy := ""
		for _, u := range h.URLs() {
			if u != ownerURL {
				healthy = u
				break
			}
		}
		waitPeerOpen(t, service.NewClient(healthy, nil), ownerURL)
		// Stale-tolerant reads for the dead owner's key fail over to
		// the successor's hash-verified snapshot, marked stale.
		res, err := sc.SolveStale(ctx, upA.ID, opts)
		if err != nil {
			t.Fatalf("stale failover read: %v", err)
		}
		if !res.Stale {
			t.Fatal("failover read not marked stale")
		}
		// The healthy shard is untouched by its peer's partition.
		sendBatches(t, sc, sB, trace, 4, 6)

		if err := h.Heal(idx); err != nil {
			t.Fatal(err)
		}
		// The owner process never died; once the network heals the
		// sequenced ingest resumes exactly where it left off (batch 4
		// never reached it, so no dedup).
		sendBatches(t, sc, sA, trace, 4, 12)
		sendBatches(t, sc, sB, trace, 7, 12)
	} else {
		sendBatches(t, sc, sA, trace, 4, 12)
		sendBatches(t, sc, sB, trace, 4, 12)
	}

	finishSession(t, sc, sA)
	finishSession(t, sc, sB)

	fp := partitionFingerprint{Sessions: map[string]sessionFingerprint{"a": sA.fp, "b": sB.fp}}
	stats, errs := sc.Stats(ctx)
	if len(errs) > 0 {
		t.Fatalf("statz errors after heal: %v", errs)
	}
	for _, st := range stats {
		fp.Counters.Open += st.SessionsOpen
		fp.Counters.Opened += st.SessionsOpened
		fp.Counters.Events += st.SessionEvents
		fp.Counters.Epochs += st.SessionEpochs
		fp.Counters.Resolves += st.SessionResolves
		fp.Counters.Moves += st.SessionMoves
	}
	buf, err := json.Marshal(fp)
	if err != nil {
		t.Fatal(err)
	}
	return buf, inA, inB
}

// TestPartitionConformanceByteIdentical is the self-healing property:
// a two-replica cluster that loses one session's owner to a TCP
// blackhole mid-replay — failing fast while partitioned, serving the
// other shard normally, answering stale failover reads from the
// successor's snapshot — converges, once healed, to per-session
// epochs, placements, accounting, and summed session counters
// byte-identical to an uninterrupted single-node run. The subtest names
// the fixture's oracle, as in TestClusterConformanceByteIdentical.
func TestPartitionConformanceByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process suite; skipped in -short mode")
	}
	t.Run("dense", func(t *testing.T) {
		got, inA, inB := runPartitionTrace(t, 2, true, nil, nil)
		want, _, _ := runPartitionTrace(t, 1, false, inA, inB)
		if !bytes.Equal(got, want) {
			t.Errorf("partitioned cluster diverges from single node\n got %s\nwant %s", got, want)
		}
	})
}

// TestBreakerFailFast exercises the server-side breaker through the
// forwarding proxy: once a replica's peer breaker opens, requests for
// the dead owner's keys answer the typed 503 in well under the peer
// timeout, and stale-opted solves are served from the entry replica's
// own snapshot of the dead owner's instance.
func TestBreakerFailFast(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process suite; skipped in -short mode")
	}
	ctx := context.Background()
	h, err := NewHarness(HarnessConfig{
		N: 2, BaseDir: t.TempDir(),
		FaultProxy: true,
		ExtraArgs:  partitionFaultArgs(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Start(); err != nil {
		t.Fatal(err)
	}
	defer h.Stop()
	sc, err := NewShardedClient(h.URLs(), nil)
	if err != nil {
		t.Fatal(err)
	}

	// Find an instance owned by replica 1; replica 0 is the entry point.
	var in *core.Instance
	var id string
	for k := 0; k < 32 && in == nil; k++ {
		cand := partitionInstance(t, k)
		if cid := service.InstanceIDFor(cand); sc.Owner(cid) == h.URLs()[1] {
			in, id = cand, cid
		}
	}
	if in == nil {
		t.Fatal("no replica-1-owned instance among 32 candidates")
	}
	entry := service.NewClient(h.URLs()[0], &http.Client{Timeout: 2 * time.Second})
	if _, err := entry.Upload(ctx, "failfast", in); err != nil {
		t.Fatal(err)
	}
	var opts service.SolveOptions
	if _, err := entry.Solve(ctx, id, opts); err != nil {
		t.Fatalf("pre-partition forwarded solve: %v", err)
	}

	if err := h.SetFault(1, FaultBlackhole); err != nil {
		t.Fatal(err)
	}
	waitPeerOpen(t, entry, h.URLs()[1])

	// Plain reads for the dead owner's key fail fast with the typed
	// error. An attempt may consume the breaker's due reopen probe and
	// burn a timeout; one of a handful must answer typed and fast.
	sawTyped := false
	for i := 0; i < 5 && !sawTyped; i++ {
		start := time.Now()
		_, err := entry.Info(ctx, id)
		if err == nil {
			t.Fatal("info for dead owner's instance succeeded without stale opt-in")
		}
		sawTyped = errors.Is(err, service.ErrReplicaDown) && time.Since(start) < 500*time.Millisecond
	}
	if !sawTyped {
		t.Fatal("no fail-fast ErrReplicaDown within 5 attempts after breaker opened")
	}

	// A stale-opted solve fails over: replica 0 is the dead owner's
	// ring successor and answers from its own snapshot.
	var res service.SolveResult
	var lastErr error
	for i := 0; i < 3; i++ {
		if res, lastErr = entry.SolveStale(ctx, id, opts); lastErr == nil {
			break
		}
	}
	if lastErr != nil {
		t.Fatalf("stale failover solve: %v", lastErr)
	}
	if !res.Stale {
		t.Fatal("failover solve not marked stale")
	}

	// Healing closes the loop: the prober's reopen probe succeeds and
	// plain reads work again.
	if err := h.Heal(1); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, err := entry.Info(ctx, id); err == nil {
			break
		} else if time.Now().After(deadline) {
			t.Fatalf("forwarded reads never recovered after heal: %v", err)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// TestDrainPeerHandoff retires a replica with the netplaced -drain-peer
// admin command and verifies the handoff: the victim drains, the
// survivor drops it from ring and peer set, and every instance the
// victim owned is re-homed onto (and solvable from) the survivor.
func TestDrainPeerHandoff(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process suite; skipped in -short mode")
	}
	ctx := context.Background()
	h, err := NewHarness(HarnessConfig{N: 2, BaseDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Start(); err != nil {
		t.Fatal(err)
	}
	defer h.Stop()
	sc, err := h.Client()
	if err != nil {
		t.Fatal(err)
	}

	victim := h.URLs()[1]
	ids := make([]string, 0, 4)
	victimOwned := ""
	for k := 0; k < 32 && (len(ids) < 4 || victimOwned == ""); k++ {
		in := partitionInstance(t, k)
		cid := service.InstanceIDFor(in)
		if len(ids) >= 4 && sc.Owner(cid) != victim {
			continue
		}
		up, err := sc.Upload(ctx, fmt.Sprintf("drain-%d", k), in)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, up.ID)
		if victimOwned == "" && sc.Owner(up.ID) == victim {
			victimOwned = up.ID
		}
	}
	if victimOwned == "" {
		t.Fatal("no victim-owned instance among 32 candidates")
	}
	// A live session on the victim gives the drain something to flush.
	sess, err := sc.OpenSession(ctx, victimOwned, service.SessionConfig{Epoch: 16, Window: 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sc.SessionEventsSeq(ctx, sess.SessionID, 1, conformanceTrace(24, 8)); err != nil {
		t.Fatal(err)
	}

	out, err := exec.Command(h.bin, "-drain-peer", victim, "-cluster", strings.Join(h.URLs(), ",")).CombinedOutput()
	if err != nil {
		t.Fatalf("netplaced -drain-peer: %v\n%s", err, out)
	}

	// The victim is drained out of rotation.
	if err := service.NewClient(victim, nil).Ready(ctx); err == nil {
		t.Fatal("drained replica still answers /readyz 200")
	}
	// The survivor serves every instance — including the re-homed ones
	// — and no longer counts the victim as a peer.
	surv := service.NewClient(h.URLs()[0], nil)
	for _, id := range ids {
		if _, err := surv.Solve(ctx, id, service.SolveOptions{}); err != nil {
			t.Fatalf("instance %s not served by survivor after drain: %v", id, err)
		}
	}
	st, err := surv.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Peers != 0 {
		t.Fatalf("survivor live peer count=%d after drain, want 0", st.Peers)
	}
}

package cluster

// The multi-process conformance suite: the proof that a sharded
// netplaced cluster is observationally identical to one server. Every
// test here boots real netplaced processes through Harness — no
// httptest, no in-process shortcuts — and drives them over the wire
// with a ShardedClient, so what is asserted is exactly what a
// production deployment would see.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"testing"

	"netplace/internal/core"
	"netplace/internal/graph"
	"netplace/internal/service"
)

// conformanceInstance mirrors the crash tests' shared fixture (a
// 24-node path, integer weights, three objects with spread hot spots).
// At 24 nodes the size rule gives it the dense oracle on every replica.
func conformanceInstance(t *testing.T) *core.Instance {
	t.Helper()
	const n = 24
	g := graph.New(n)
	for v := 0; v+1 < n; v++ {
		g.AddEdge(v, v+1, 1)
	}
	storage := make([]float64, n)
	for v := range storage {
		storage[v] = float64(1 + v%3)
	}
	objs := make([]core.Object, 3)
	for oi := range objs {
		o := core.Object{Name: string(rune('a' + oi)), Reads: make([]int64, n), Writes: make([]int64, n)}
		o.Reads[(oi*7+3)%n] = 4
		o.Writes[oi] = 1
		objs[oi] = o
	}
	in, err := core.NewInstance(g, storage, objs)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// conformanceTrace mirrors the crash tests' drifting trace: the hot
// region moves across the path every 40 events, forcing real moves.
func conformanceTrace(n, events int) []service.SessionEvent {
	names := []string{"a", "b", "c"}
	evs := make([]service.SessionEvent, events)
	for i := range evs {
		phase := i / 40
		evs[i] = service.SessionEvent{
			Obj:   names[i%3],
			Node:  ((i*5)%7 + phase*(n/3) + i%3) % n,
			Write: i%5 == 0,
		}
	}
	return evs
}

// clusterSizes returns the replica counts the conformance property runs
// at beyond the single-node baseline. NETPLACE_CLUSTER_N caps the
// largest size (the CI cluster lane sets 2 to keep -race runs quick);
// unset runs the full {2, 4}.
func clusterSizes(t *testing.T) []int {
	t.Helper()
	maxN := 4
	if v := os.Getenv("NETPLACE_CLUSTER_N"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			t.Fatalf("bad NETPLACE_CLUSTER_N=%q", v)
		}
		maxN = n
	}
	var sizes []int
	for _, n := range []int{2, 4} {
		if n <= maxN {
			sizes = append(sizes, n)
		}
	}
	if len(sizes) == 0 {
		sizes = []int{maxN}
	}
	return sizes
}

// clusterFingerprint is everything the byte-identity property covers,
// assembled purely from wire responses: the per-epoch cost reports in
// arrival order, the final placement with its session id (the single
// node and the cluster owner both mint "<instance id>.s-000001"), the
// session's own accounting, the ingest high-water mark, and the /statz
// session counters summed across the cluster.
type clusterFingerprint struct {
	Epochs    []service.SessionEpochJSON       `json:"epochs"`
	Placement service.SessionPlacementResponse `json:"placement"`
	Stats     service.SessionStats             `json:"stats"`
	LastSeq   int64                            `json:"last_seq"`
	Counters  clusterSessionCounters           `json:"counters"`
}

// clusterSessionCounters sums the /statz session counters over every
// replica; on a conforming cluster the sum equals a single server's.
type clusterSessionCounters struct {
	Open     int   `json:"open"`
	Opened   int64 `json:"opened"`
	Events   int64 `json:"events"`
	Epochs   int64 `json:"epochs"`
	Resolves int64 `json:"resolves"`
	Moves    int64 `json:"moves"`
}

// replicaIndex maps a replica URL back to its harness slot.
func replicaIndex(t *testing.T, h *Harness, url string) int {
	t.Helper()
	for i, u := range h.URLs() {
		if u == url {
			return i
		}
	}
	t.Fatalf("URL %s not in harness %v", url, h.URLs())
	return -1
}

// runClusterTrace boots an N-replica cluster, replays the drift trace
// through a ShardedClient in sequenced batches, and returns the
// marshalled fingerprint. With kills enabled it SIGKILLs and restarts
// the instance's owner after batch 3 (mid-epoch: 24 events, epoch 16)
// and, on clusters of more than one, the owner's ring neighbour after
// batch 7 — both between acked batches, so durable state is exactly the
// acked prefix.
func runClusterTrace(t *testing.T, n int, kills bool) []byte {
	t.Helper()
	ctx := context.Background()
	h, err := NewHarness(HarnessConfig{N: n, BaseDir: t.TempDir()})
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

	up, err := sc.Upload(ctx, "conformance", conformanceInstance(t))
	if err != nil {
		t.Fatal(err)
	}
	sess, err := sc.OpenSession(ctx, up.ID, service.SessionConfig{Epoch: 16, Window: 3})
	if err != nil {
		t.Fatal(err)
	}

	owner := replicaIndex(t, h, sc.Owner(up.ID))
	trace := conformanceTrace(24, 96)
	const batch = 8
	var fp clusterFingerprint
	for start := 0; start < len(trace); start += batch {
		seq := int64(start/batch) + 1
		resp, err := sc.SessionEventsSeq(ctx, sess.SessionID, seq, trace[start:start+batch])
		if err != nil {
			t.Fatalf("batch %d: %v\nowner log:\n%s", seq, err, h.LogTail(owner))
		}
		if resp.Deduplicated || resp.Accepted != batch {
			t.Fatalf("batch %d: accepted=%d deduplicated=%v", seq, resp.Accepted, resp.Deduplicated)
		}
		fp.Epochs = append(fp.Epochs, resp.Epochs...)
		if kills && seq == 3 {
			if err := h.Kill(owner); err != nil {
				t.Fatal(err)
			}
			if err := h.Restart(owner); err != nil {
				t.Fatalf("restarting owner: %v", err)
			}
		}
		if kills && seq == 7 && n > 1 {
			other := (owner + 1) % n
			if err := h.Kill(other); err != nil {
				t.Fatal(err)
			}
			if err := h.Restart(other); err != nil {
				t.Fatalf("restarting replica %d: %v", other, err)
			}
		}
	}
	flush, err := sc.SessionFlush(ctx, sess.SessionID)
	if err != nil {
		t.Fatal(err)
	}
	fp.Epochs = append(fp.Epochs, flush.Epochs...)

	pl, err := sc.SessionPlacement(ctx, sess.SessionID)
	if err != nil {
		t.Fatal(err)
	}
	fp.Placement = pl

	info, err := sc.Session(ctx, sess.SessionID)
	if err != nil {
		t.Fatal(err)
	}
	fp.Stats = info.Stats
	fp.LastSeq = info.LastSeq

	stats, errs := sc.Stats(ctx)
	if len(errs) > 0 {
		t.Fatalf("statz errors: %v", errs)
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
	return buf
}

// TestClusterConformanceByteIdentical is the scale-out property: the
// same drift trace replayed through a sharded cluster of N real
// netplaced processes — with the instance's owner SIGKILLed and
// restarted mid-replay, plus a second replica on larger clusters —
// produces byte-identical placements, per-epoch cost reports, session
// accounting, and summed /statz session counters to an uninterrupted
// single-node run. The subtest names the fixture's oracle: byte-identity
// across the three backends through kill, recovery and injected faults
// is checked in process by internal/service's crash and fault-injection
// suites.
func TestClusterConformanceByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process suite; skipped in -short mode")
	}
	t.Run("dense", func(t *testing.T) {
		want := runClusterTrace(t, 1, false)
		for _, n := range clusterSizes(t) {
			t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
				got := runClusterTrace(t, n, true)
				if !bytes.Equal(got, want) {
					t.Errorf("cluster n=%d diverges from single node\n got %s\nwant %s", n, got, want)
				}
			})
		}
	})
}

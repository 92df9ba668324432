package service

import (
	"context"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"netplace/internal/core"
	"netplace/internal/encode"
)

// newReplicatedPair boots successor B and primary A (B is A's peer and
// successor) on real listeners, probers off for determinism.
func newReplicatedPair(t *testing.T) (a, b *Server, ca, cb *Client) {
	t.Helper()
	b = New(Config{ProbeInterval: -1})
	tsB := httptest.NewServer(b.Handler())
	t.Cleanup(tsB.Close)
	a = New(Config{
		Peers:         []string{tsB.URL},
		SuccessorURL:  tsB.URL,
		ProbeInterval: -1,
	})
	tsA := httptest.NewServer(a.Handler())
	t.Cleanup(tsA.Close)
	t.Cleanup(a.Close)
	t.Cleanup(b.Close)
	return a, b, NewClient(tsA.URL, tsA.Client()), NewClient(tsB.URL, tsB.Client())
}

func TestReplicaPushAndDegradedReads(t *testing.T) {
	a, b, ca, cb := newReplicatedPair(t)
	ctx := context.Background()
	in := pathInstance(t, 12, 5)

	up, err := ca.Upload(ctx, "replicated", in)
	if err != nil {
		t.Fatal(err)
	}
	if got := a.Stats().ReplicaPushes; got != 1 {
		t.Fatalf("replica_pushes=%d after upload, want 1", got)
	}
	if got := b.Stats().ReplicaInstances; got != 1 {
		t.Fatalf("successor replica_instances=%d, want 1", got)
	}

	// Without the Allow-Stale opt-in the successor still answers 404 for
	// a key it merely replicates (hop-guard semantics depend on this).
	if _, err := cb.Info(ctx, up.ID); err == nil {
		t.Fatal("plain info on the successor served a replicated key")
	}
	if _, err := cb.Solve(ctx, up.ID, SolveOptions{}); err == nil {
		t.Fatal("plain solve on the successor served a replicated key")
	}

	// Degraded reads: solve from the snapshot is marked stale and
	// byte-identical in placement to the owner's solve.
	want, err := ca.Solve(ctx, up.ID, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := cb.SolveStale(ctx, up.ID, SolveOptions{})
	if err != nil {
		t.Fatalf("degraded solve on the successor: %v", err)
	}
	if !got.Stale || got.StaleSeconds < 0 {
		t.Fatalf("degraded solve not marked stale: stale=%v age=%v", got.Stale, got.StaleSeconds)
	}
	if !reflect.DeepEqual(got.Placement, want.Placement) {
		t.Fatal("degraded placement differs from the owner's")
	}
	if b.Stats().FailoverReads == 0 {
		t.Fatal("failover_reads not counted")
	}

	// Cost against the hash-verified snapshot equals the owner's answer.
	wantCost, err := ca.Cost(ctx, up.ID, want.Placement)
	if err != nil {
		t.Fatal(err)
	}
	var gotCost BreakdownJSON
	hdr := map[string]string{HeaderAllowStale: "1"}
	if err := cb.doRetry(ctx, http.MethodPost, "/instances/"+up.ID+"/cost",
		hdr, PlacementRequest{Placement: want.Placement}, &gotCost, true); err != nil {
		t.Fatalf("degraded cost: %v", err)
	}
	if gotCost != wantCost {
		t.Fatalf("degraded cost %+v != owner cost %+v", gotCost, wantCost)
	}

	// Info fallback with the opt-in serves a synthesized record.
	var info InstanceInfo
	if err := cb.doRetry(ctx, http.MethodGet, "/instances/"+up.ID, hdr, nil, &info, true); err != nil {
		t.Fatalf("degraded info: %v", err)
	}
	if info.ID != up.ID || info.Hash != up.Hash || info.Nodes != 12 {
		t.Fatalf("degraded info %+v does not match the owner's record", info)
	}

	// Deleting on the owner propagates to the successor's snapshot store.
	if err := ca.Delete(ctx, up.ID); err != nil {
		t.Fatal(err)
	}
	if got := b.Stats().ReplicaInstances; got != 0 {
		t.Fatalf("successor replica_instances=%d after owner delete, want 0", got)
	}
}

// A replica that owns an instance it also holds as a snapshot (it was
// the successor before a drain re-homed the instance to it) must drop
// the snapshot when the instance is deleted: a stale-tolerant read of
// the deleted id answers 404, not the snapshot.
func TestReplicaDeleteDropsOwnSnapshot(t *testing.T) {
	_, b, ca, cb := newReplicatedPair(t)
	ctx := context.Background()
	in := pathInstance(t, 12, 5)
	up, err := ca.Upload(ctx, "rehomed", in)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.Stats().ReplicaInstances; got != 1 {
		t.Fatalf("successor replica_instances=%d after upload, want 1", got)
	}
	if _, err := cb.Upload(ctx, "rehomed", in); err != nil {
		t.Fatal(err)
	}
	if err := cb.Delete(ctx, up.ID); err != nil {
		t.Fatal(err)
	}
	var ae *APIError
	if res, err := cb.SolveStale(ctx, up.ID, SolveOptions{}); !errors.As(err, &ae) || ae.Status != http.StatusNotFound {
		t.Fatalf("stale solve of a deleted instance: stale=%v err=%v, want HTTP 404", res.Stale, err)
	}
	if got := b.Stats().ReplicaInstances; got != 0 {
		t.Fatalf("replica_instances=%d after delete, want 0", got)
	}
}

func TestReplicaPushRejectsHashMismatch(t *testing.T) {
	_, b, _, cb := newReplicatedPair(t)
	ctx := context.Background()
	in := pathInstance(t, 10, 3)
	exp := exportOf(t, in)

	err := cb.PushReplica(ctx, "0000000000000000", exp)
	var ae *APIError
	if !errors.As(err, &ae) || ae.Status != http.StatusBadRequest {
		t.Fatalf("hash-mismatched push: err=%v, want HTTP 400", err)
	}
	if got := b.Stats().ReplicaInstances; got != 0 {
		t.Fatalf("mismatched push was stored (replica_instances=%d)", got)
	}
	// The correctly keyed push is accepted and idempotent.
	id := InstanceIDFor(in)
	if err := cb.PushReplica(ctx, id, exp); err != nil {
		t.Fatal(err)
	}
	if err := cb.PushReplica(ctx, id, exp); err != nil {
		t.Fatalf("re-push: %v", err)
	}
	if got := b.Stats().ReplicaInstances; got != 1 {
		t.Fatalf("replica_instances=%d, want 1", got)
	}
	// Deleting an absent snapshot is also fine.
	if err := cb.DeleteReplica(ctx, "ffffffffffffffff"); err != nil {
		t.Fatalf("idempotent replica delete: %v", err)
	}
}

// exportOf builds the wire-form export of an instance.
func exportOf(t *testing.T, in *core.Instance) InstanceExport {
	t.Helper()
	return InstanceExport{Instance: encode.InstanceJSONOf(in)}
}

func TestClusterDrainEndpoint(t *testing.T) {
	a, _, ca, _ := newReplicatedPair(t)
	ctx := context.Background()

	// Peer form: the named replica leaves this replica's peer set.
	if a.Stats().Peers != 1 {
		t.Fatalf("peers=%d before drain, want 1", a.Stats().Peers)
	}
	resp, err := ca.ClusterDrain(ctx, a.cfg.Peers[0])
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != "removed" || resp.Peer != a.cfg.Peers[0] {
		t.Fatalf("peer drain response %+v", resp)
	}
	if got := a.Stats().Peers; got != 0 {
		t.Fatalf("peers=%d after drain, want 0", got)
	}
	// Idempotent: removing it again still succeeds.
	if _, err := ca.ClusterDrain(ctx, resp.Peer); err != nil {
		t.Fatalf("repeated peer drain: %v", err)
	}

	// Self form: open a session, drain, readiness drops.
	in := pathInstance(t, 10, 3)
	up, err := ca.Upload(ctx, "drainme", in)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ca.OpenSession(ctx, up.ID, SessionConfig{Epoch: 8}); err != nil {
		t.Fatal(err)
	}
	dresp, err := ca.ClusterDrain(ctx, "")
	if err != nil {
		t.Fatal(err)
	}
	if dresp.Status != "draining" || dresp.SessionsDrained != 1 {
		t.Fatalf("self drain response %+v, want draining with 1 session", dresp)
	}
	if err := ca.Ready(ctx); err == nil {
		t.Fatal("drained server still answers /readyz 200")
	}
}

// TestClusterStatsErrors: /statz?cluster=1 with unreachable peers lists
// them under errors, still merges the reachable replicas, and finishes
// within roughly one per-peer timeout — the fan-out is parallel, so two
// hanging peers do not serialize into two timeouts.
func TestClusterStatsErrors(t *testing.T) {
	hang1, hang2 := hangListener(t), hangListener(t)
	b := New(Config{ProbeInterval: -1})
	tsB := httptest.NewServer(b.Handler())
	t.Cleanup(tsB.Close)

	timeout := 400 * time.Millisecond
	a := New(Config{
		Peers:         []string{tsB.URL, hang1, hang2},
		PeerTimeout:   timeout,
		ProbeInterval: -1,
	})
	tsA := httptest.NewServer(a.Handler())
	t.Cleanup(tsA.Close)
	ca := NewClient(tsA.URL, tsA.Client())

	start := time.Now()
	cs, err := ca.ClusterStats(context.Background())
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if len(cs.Errors) != 2 || cs.Errors[hang1] == "" || cs.Errors[hang2] == "" {
		t.Fatalf("errors=%v, want both hanging peers listed", cs.Errors)
	}
	if cs.Totals.Replicas != 2 {
		t.Fatalf("merged %d replicas, want self + the reachable peer", cs.Totals.Replicas)
	}
	if _, ok := cs.Replicas[tsB.URL]; !ok {
		t.Fatalf("reachable peer %s missing from merge: %v", tsB.URL, cs.Replicas)
	}
	if elapsed > 2*timeout {
		t.Fatalf("cluster stats took %v with two dead peers — serial stall (timeout %v)", elapsed, timeout)
	}
}

// hangListener returns the URL of a TCP listener that accepts
// connections and never answers — a blackholed peer.
func hangListener(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	t.Cleanup(func() { close(done); ln.Close() })
	go func() {
		var conns []net.Conn
		defer func() {
			for _, c := range conns {
				c.Close()
			}
		}()
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			conns = append(conns, c)
			select {
			case <-done:
				return
			default:
			}
		}
	}()
	return "http://" + ln.Addr().String()
}

// TestExportAndReplicaList covers the drain tool's read side: exports
// from the registry and from the snapshot store answer the same bytes,
// the snapshot listing names what is held, and an unknown id is a 404.
func TestExportAndReplicaList(t *testing.T) {
	a, _, ca, cb := newReplicatedPair(t)
	ctx := context.Background()
	in := pathInstance(t, 9, 4)

	up, err := ca.Upload(ctx, "exported", in)
	if err != nil {
		t.Fatal(err)
	}
	if a.PeerHealth() == nil {
		t.Fatal("server exposes no peer health tracker")
	}

	// Owner export comes from the registry, with the label.
	exp, err := ca.Export(ctx, up.ID)
	if err != nil {
		t.Fatal(err)
	}
	if exp.Name != "exported" {
		t.Fatalf("export name %q, want \"exported\"", exp.Name)
	}
	decoded, err := exp.Instance.Instance()
	if err != nil {
		t.Fatal(err)
	}
	if got := InstanceIDFor(decoded); got != up.ID {
		t.Fatalf("export decodes to id %s, want %s", got, up.ID)
	}
	// Successor export falls back to the snapshot store: same content.
	snapExp, err := cb.Export(ctx, up.ID)
	if err != nil {
		t.Fatalf("export from the snapshot holder: %v", err)
	}
	snapDecoded, err := snapExp.Instance.Instance()
	if err != nil {
		t.Fatal(err)
	}
	if encode.HashInstance(snapDecoded) != encode.HashInstance(decoded) {
		t.Fatal("snapshot export content differs from the owner's")
	}

	var ae *APIError
	if _, err := ca.Export(ctx, "ffffffffffffffff"); !errors.As(err, &ae) || ae.Status != http.StatusNotFound {
		t.Fatalf("unknown export: err=%v, want HTTP 404", err)
	}

	// The successor's snapshot listing names the held instance.
	held, err := cb.ReplicaInstances(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(held) != 1 || held[0].ID != up.ID || held[0].Name != "exported" || held[0].AgeSeconds < 0 {
		t.Fatalf("replica listing %+v, want one fresh entry for %s", held, up.ID)
	}
	if own, err := ca.ReplicaInstances(ctx); err != nil || len(own) != 0 {
		t.Fatalf("owner replica listing %v (err %v), want empty", own, err)
	}
}

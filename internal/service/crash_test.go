package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"netplace/internal/core"
	"netplace/internal/graph"
	"netplace/internal/stream"
	"netplace/internal/workload"
)

// crashInstance builds the crash tests' shared fixture: a 24-node path
// with integer edge weights and storage fees, three objects with spread
// hot spots. Integer weights make every backend's distances exactly
// representable, so byte-identity assertions can span oracle backends.
func crashInstance(t *testing.T) *core.Instance {
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

// driftTrace synthesises a deterministic trace whose hot region drifts
// across the path every 40 events, forcing real placement moves.
func driftTrace(n, events int) []SessionEvent {
	names := []string{"a", "b", "c"}
	evs := make([]SessionEvent, events)
	for i := range evs {
		phase := i / 40
		evs[i] = SessionEvent{
			Obj:   names[i%3],
			Node:  ((i*5)%7 + phase*(n/3) + i%3) % n,
			Write: i%5 == 0,
		}
	}
	return evs
}

// serveExisting wraps an already-constructed server (recovered from a
// data directory, unlike newTestServer's fresh New) in a real listener.
func serveExisting(t *testing.T, srv *Server) *Client {
	t.Helper()
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return NewClient(ts.URL, ts.Client())
}

// ingestBatches streams a trace slice in fixed-size event batches.
func ingestBatches(t *testing.T, c *Client, sid string, evs []SessionEvent, batch int) {
	t.Helper()
	ctx := context.Background()
	for start := 0; start < len(evs); start += batch {
		end := min(start+batch, len(evs))
		resp, err := c.SessionEvents(ctx, sid, evs[start:end])
		if err != nil {
			t.Fatalf("events[%d:%d]: %v", start, end, err)
		}
		if resp.Accepted != end-start {
			t.Fatalf("events[%d:%d]: accepted %d", start, end, resp.Accepted)
		}
	}
}

// sessionFingerprint serialises everything the byte-identity property
// covers: the full engine state (estimates, placement, accounting,
// hysteresis fee), the wire placement response, and the /statz session
// counters.
func sessionFingerprint(t *testing.T, srv *Server, c *Client, sid string) []byte {
	t.Helper()
	sess, ok := srv.sessions.get(sid)
	if !ok {
		t.Fatalf("session %s not found", sid)
	}
	sess.mu.Lock()
	state := sess.engine.State()
	sess.mu.Unlock()
	pl, err := c.SessionPlacement(context.Background(), sid)
	if err != nil {
		t.Fatal(err)
	}
	st := srv.Stats()
	fp, err := json.Marshal(struct {
		State     *stream.EngineState
		Placement SessionPlacementResponse
		Open      int
		Opened    int64
		Events    int64
		Epochs    int64
		Resolves  int64
		Moves     int64
	}{state, pl, st.SessionsOpen, st.SessionsOpened, st.SessionEvents, st.SessionEpochs, st.SessionResolves, st.SessionMoves})
	if err != nil {
		t.Fatal(err)
	}
	return fp
}

// pinBackend points a resident instance's distance oracle at a named
// backend, as a solve with the same metric option would.
func pinBackend(t *testing.T, srv *Server, id, backend string) {
	t.Helper()
	in, _, ok := srv.engine.registry.Get(id)
	if !ok {
		t.Fatalf("instance %s not resident", id)
	}
	in.UseMetric(metricBackends[backend], 64)
}

// TestCrashRecoveryByteIdenticalAcrossBackends is the persistence
// layer's core property: a run killed mid-epoch (twice) and recovered
// from snapshot + WAL ends byte-identical — engine state, placement,
// and /statz session counters — to an uninterrupted run of the same
// trace, across the three oracle backends.
// Recovery replays under the reloaded instance's auto-selected backend,
// so the cross-backend cases also re-assert the repo's oracle
// equivalence invariant along the way.
func TestCrashRecoveryByteIdenticalAcrossBackends(t *testing.T) {
	for _, backend := range []string{"dense", "lazy", "tree"} {
		t.Run(backend, func(t *testing.T) {
			ctx := context.Background()
			in := crashInstance(t)
			trace := driftTrace(24, 126)
			scfg := SessionConfig{Epoch: 16, Window: 3, Options: SolveOptions{Metric: backend}}

			// Uninterrupted reference on a plain in-memory server.
			refSrv, refC := newTestServer(t, Config{})
			refUp, err := refC.Upload(ctx, "crash", in)
			if err != nil {
				t.Fatal(err)
			}
			pinBackend(t, refSrv, refUp.ID, backend)
			refSess, err := refC.OpenSession(ctx, refUp.ID, scfg)
			if err != nil {
				t.Fatal(err)
			}
			ingestBatches(t, refC, refSess.SessionID, trace, 9)
			if _, err := refC.SessionFlush(ctx, refSess.SessionID); err != nil {
				t.Fatal(err)
			}
			want := sessionFingerprint(t, refSrv, refC, refSess.SessionID)

			// Same trace against a persistent server, killed twice
			// mid-epoch (54 = 3·16+6 and 90 = 5·16+10 events).
			h := NewCrashHarness(t.TempDir(), Config{})
			srv, err := h.Start()
			if err != nil {
				t.Fatal(err)
			}
			c := serveExisting(t, srv)
			up, err := c.Upload(ctx, "crash", in)
			if err != nil {
				t.Fatal(err)
			}
			if up.ID != refUp.ID {
				t.Fatalf("content-addressed ids diverge: %s vs %s", up.ID, refUp.ID)
			}
			pinBackend(t, srv, up.ID, backend)
			sess, err := c.OpenSession(ctx, up.ID, scfg)
			if err != nil {
				t.Fatal(err)
			}
			sid := sess.SessionID
			if sid != refSess.SessionID {
				t.Fatalf("session ids diverge: %s vs %s", sid, refSess.SessionID)
			}

			ingestBatches(t, c, sid, trace[:54], 9)
			h.Kill()
			srv, err = h.Start()
			if err != nil {
				t.Fatal(err)
			}
			c = serveExisting(t, srv)
			st := srv.Stats()
			if !st.Persistence || st.RecoveredSessions != 1 || st.WALDiscardedBytes != 0 {
				t.Fatalf("first recovery stats: %+v", st)
			}
			if st.SessionEvents != 54 {
				t.Fatalf("recovered counters report %d events, want 54", st.SessionEvents)
			}

			ingestBatches(t, c, sid, trace[54:90], 9)
			h.Kill()
			srv, err = h.Start()
			if err != nil {
				t.Fatal(err)
			}
			c = serveExisting(t, srv)
			ingestBatches(t, c, sid, trace[90:], 9)
			if _, err := c.SessionFlush(ctx, sid); err != nil {
				t.Fatal(err)
			}

			got := sessionFingerprint(t, srv, c, sid)
			if !bytes.Equal(got, want) {
				t.Errorf("recovered run diverges from uninterrupted run\n got %s\nwant %s", got, want)
			}
		})
	}
}

// TestCrashRecoveryEwmaEstimator runs the same kill/restart property in
// the EWMA estimator mode, whose state (continuous rates, initialised
// flag) is disjoint from the windowed mode's rings.
func TestCrashRecoveryEwmaEstimator(t *testing.T) {
	ctx := context.Background()
	in := crashInstance(t)
	trace := driftTrace(24, 100)
	scfg := SessionConfig{Epoch: 16, Alpha: 0.3}

	refSrv, refC := newTestServer(t, Config{})
	refUp, err := refC.Upload(ctx, "ewma", in)
	if err != nil {
		t.Fatal(err)
	}
	refSess, err := refC.OpenSession(ctx, refUp.ID, scfg)
	if err != nil {
		t.Fatal(err)
	}
	ingestBatches(t, refC, refSess.SessionID, trace, 11)
	if _, err := refC.SessionFlush(ctx, refSess.SessionID); err != nil {
		t.Fatal(err)
	}
	want := sessionFingerprint(t, refSrv, refC, refSess.SessionID)

	h := NewCrashHarness(t.TempDir(), Config{})
	srv, err := h.Start()
	if err != nil {
		t.Fatal(err)
	}
	c := serveExisting(t, srv)
	up, err := c.Upload(ctx, "ewma", in)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := c.OpenSession(ctx, up.ID, scfg)
	if err != nil {
		t.Fatal(err)
	}
	sid := sess.SessionID
	ingestBatches(t, c, sid, trace[:44], 11)
	h.Kill()
	srv, err = h.Start()
	if err != nil {
		t.Fatal(err)
	}
	c = serveExisting(t, srv)
	ingestBatches(t, c, sid, trace[44:], 11)
	if _, err := c.SessionFlush(ctx, sid); err != nil {
		t.Fatal(err)
	}
	got := sessionFingerprint(t, srv, c, sid)
	if !bytes.Equal(got, want) {
		t.Errorf("recovered EWMA run diverges\n got %s\nwant %s", got, want)
	}
}

// TestCrashMidBatchWALTornWrite cuts the live WAL at every byte offset
// — the torn-write window of a crash mid-append — and asserts recovery
// always succeeds with the longest *committed* prefix, accounts the
// discarded bytes, and leaves the session ingestable. The v2 WAL is
// batch-atomic: a batch counts only once its commit marker is fully on
// disk, so a cut anywhere inside the final batch (event lines or the
// marker itself) drops the whole batch. That batch was never acked —
// the marker is written before the HTTP response — so dropping it keeps
// the store consistent with what the client observed, and a sequenced
// retry re-applies it exactly once.
func TestCrashMidBatchWALTornWrite(t *testing.T) {
	ctx := context.Background()
	in := crashInstance(t)
	h := NewCrashHarness(t.TempDir(), Config{})
	srv, err := h.Start()
	if err != nil {
		t.Fatal(err)
	}
	c := serveExisting(t, srv)
	up, err := c.Upload(ctx, "torn", in)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := c.OpenSession(ctx, up.ID, SessionConfig{Epoch: 16})
	if err != nil {
		t.Fatal(err)
	}
	sid := sess.SessionID
	// One full epoch rotates the log; the next batch (with a
	// count-expanded event, so 6 WAL lines) is the live segment.
	ingestBatches(t, c, sid, driftTrace(24, 16), 16)
	last := []SessionEvent{
		{Obj: "a", Node: 3}, {Obj: "b", Node: 9, Write: true},
		{Obj: "c", Node: 20, Count: 2}, {Obj: "a", Node: 14}, {Obj: "b", Node: 1},
	}
	resp, err := c.SessionEvents(ctx, sid, last)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Accepted != 6 {
		t.Fatalf("accepted %d, want 6", resp.Accepted)
	}
	h.Kill()

	path, size, err := h.WALFile(sid)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(data)) != size || size == 0 || data[len(data)-1] != '\n' {
		t.Fatalf("wal file: %d bytes (stat %d)", len(data), size)
	}

	// The live generation holds exactly the final batch: its 6 expanded
	// event lines plus the commit marker.
	const fullEvents = 16 + 6
	roots := t.TempDir()
	for off := int64(0); off <= size; off++ {
		clone, err := h.Clone(filepath.Join(roots, fmt.Sprintf("off-%d", off)))
		if err != nil {
			t.Fatal(err)
		}
		if err := clone.TruncateWAL(sid, off); err != nil {
			t.Fatal(err)
		}
		csrv, err := clone.Start()
		if err != nil {
			t.Fatalf("offset %d: recovery failed: %v", off, err)
		}
		// Any cut short of the full file tears the final batch's marker,
		// so the whole batch rolls back to the epoch snapshot's 16 events.
		wantEvents, wantDiscarded, wantValid := int64(fullEvents-6), off, int64(0)
		if off == size {
			wantEvents, wantDiscarded, wantValid = fullEvents, 0, size
		}
		st := csrv.Stats()
		if st.RecoveredSessions != 1 || st.SessionEvents != wantEvents || st.WALDiscardedBytes != wantDiscarded {
			t.Fatalf("offset %d: recovered=%d events=%d discarded=%d, want 1/%d/%d",
				off, st.RecoveredSessions, st.SessionEvents, st.WALDiscardedBytes, wantEvents, wantDiscarded)
		}
		// Recovery physically truncated the torn tail.
		cpath, csize, err := clone.WALFile(sid)
		if err != nil {
			t.Fatal(err)
		}
		if csize != wantValid {
			t.Fatalf("offset %d: wal %s is %d bytes after recovery, want %d", off, cpath, csize, wantValid)
		}
		// The recovered session keeps working: the reopened log appends
		// where the valid prefix ends.
		cc := serveExisting(t, csrv)
		r, err := cc.SessionEvents(ctx, sid, []SessionEvent{{Obj: "a", Node: 5}})
		if err != nil {
			t.Fatalf("offset %d: post-recovery ingest: %v", off, err)
		}
		if r.Accepted != 1 || r.Stats.Events != int(wantEvents)+1 {
			t.Fatalf("offset %d: post-recovery ingest: %+v", off, r)
		}
		clone.Kill()
	}
}

// TestWALRotationTruncatesLog asserts the epoch-boundary checkpoint:
// every closed epoch snapshots the engine and starts a fresh (empty) WAL
// generation, deleting the old one; stray generations left by an
// interrupted rotation are swept at recovery.
func TestWALRotationTruncatesLog(t *testing.T) {
	ctx := context.Background()
	in := crashInstance(t)
	h := NewCrashHarness(t.TempDir(), Config{})
	srv, err := h.Start()
	if err != nil {
		t.Fatal(err)
	}
	c := serveExisting(t, srv)
	up, err := c.Upload(ctx, "rotate", in)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := c.OpenSession(ctx, up.ID, SessionConfig{Epoch: 8})
	if err != nil {
		t.Fatal(err)
	}
	sid := sess.SessionID
	st := &store{dir: h.Dir()}

	snap, err := st.readSessionSnap(sid)
	if err != nil || snap.WALSeq != 1 {
		t.Fatalf("fresh session snapshot: seq=%d err=%v", snap.WALSeq, err)
	}
	trace := driftTrace(24, 16)
	ingestBatches(t, c, sid, trace[:8], 8) // closes epoch 1 → rotation
	snap, err = st.readSessionSnap(sid)
	if err != nil || snap.WALSeq != 2 {
		t.Fatalf("after epoch 1: seq=%d err=%v", snap.WALSeq, err)
	}
	if seqs, err := st.sessionWALs(sid); err != nil || len(seqs) != 1 || seqs[0] != 2 {
		t.Fatalf("after epoch 1: wal segments %v err=%v", seqs, err)
	}
	if _, size, err := h.WALFile(sid); err != nil || size != 0 {
		t.Fatalf("rotated wal not empty: size=%d err=%v", size, err)
	}
	ingestBatches(t, c, sid, trace[8:12], 4) // mid-epoch: no rotation
	if snap, _ = st.readSessionSnap(sid); snap.WALSeq != 2 {
		t.Fatalf("mid-epoch rotation: seq=%d", snap.WALSeq)
	}
	if _, size, _ := h.WALFile(sid); size == 0 {
		t.Fatal("mid-epoch events not in wal")
	}
	ingestBatches(t, c, sid, trace[12:16], 4) // closes epoch 2
	if snap, _ = st.readSessionSnap(sid); snap.WALSeq != 3 {
		t.Fatalf("after epoch 2: seq=%d", snap.WALSeq)
	}

	// Stray generations (an interrupted rotation's leftovers) are swept
	// at the next recovery; the live segment survives.
	h.Kill()
	for _, stray := range []int{1, 99} {
		p := st.sessionWALPath(sid, stray)
		if err := os.WriteFile(p, []byte("{torn"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := h.Start(); err != nil {
		t.Fatal(err)
	}
	if seqs, err := st.sessionWALs(sid); err != nil || len(seqs) != 1 || seqs[0] != 3 {
		t.Fatalf("stray segments not swept: %v err=%v", seqs, err)
	}
}

// TestRecoveryAfterCleanRestart: a graceful Close + reopen recovers the
// exact engine state, including a partial epoch living only in the WAL.
func TestRecoveryAfterCleanRestart(t *testing.T) {
	ctx := context.Background()
	in := crashInstance(t)
	h := NewCrashHarness(t.TempDir(), Config{})
	srv, err := h.Start()
	if err != nil {
		t.Fatal(err)
	}
	c := serveExisting(t, srv)
	up, err := c.Upload(ctx, "clean", in)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := c.OpenSession(ctx, up.ID, SessionConfig{Epoch: 16})
	if err != nil {
		t.Fatal(err)
	}
	sid := sess.SessionID
	ingestBatches(t, c, sid, driftTrace(24, 20), 10) // 1 epoch + 4 events in the WAL

	live, _ := srv.sessions.get(sid)
	before, err := json.Marshal(live.engine.State())
	if err != nil {
		t.Fatal(err)
	}
	srv.Close()
	h.Kill() // logs already closed; this just detaches the server

	srv, err = h.Start()
	if err != nil {
		t.Fatal(err)
	}
	st := srv.Stats()
	if st.RecoveredSessions != 1 || st.WALDiscardedBytes != 0 || st.SessionEvents != 20 {
		t.Fatalf("clean-restart stats: %+v", st)
	}
	recovered, _ := srv.sessions.get(sid)
	after, err := json.Marshal(recovered.engine.State())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Errorf("state diverges across clean restart\n got %s\nwant %s", after, before)
	}
}

// TestNetplacedDataDirRoundTrip is the acceptance integration test: a
// trace ingested half before a kill and half after the restart bills
// exactly what a single uninterrupted in-process replay (the
// cmd/netreplay accounting, via stream.Compare) bills.
func TestNetplacedDataDirRoundTrip(t *testing.T) {
	ctx := context.Background()
	in := crashInstance(t)
	trace := driftTrace(24, 126)

	idx := stream.ObjectIndex(in)
	seq := make([]workload.Request, len(trace))
	for i, ev := range trace {
		seq[i] = workload.Request{Obj: idx[ev.Obj], V: ev.Node, Write: ev.Write}
	}
	want := stream.Compare(in, seq, stream.Config{Epoch: 16}).Adaptive

	h := NewCrashHarness(t.TempDir(), Config{})
	srv, err := h.Start()
	if err != nil {
		t.Fatal(err)
	}
	c := serveExisting(t, srv)
	up, err := c.Upload(ctx, "roundtrip", in)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := c.OpenSession(ctx, up.ID, SessionConfig{Epoch: 16})
	if err != nil {
		t.Fatal(err)
	}
	sid := sess.SessionID
	ingestBatches(t, c, sid, trace[:63], 7)
	h.Kill()
	srv, err = h.Start()
	if err != nil {
		t.Fatal(err)
	}
	c = serveExisting(t, srv)
	ingestBatches(t, c, sid, trace[63:], 7)
	fl, err := c.SessionFlush(ctx, sid)
	if err != nil {
		t.Fatal(err)
	}
	got := fl.Stats
	if got.Events != len(trace) ||
		got.Transmission != want.Transmission ||
		got.Storage != want.Storage ||
		got.Migration != want.Migration ||
		got.Total != want.Total() ||
		got.Moves != want.Moves ||
		got.Resolves != want.Resolves {
		t.Errorf("split-run totals diverge from single-run replay\n got %+v\nwant %+v", got, want)
	}
}

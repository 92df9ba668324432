package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// ingestSeq streams evs in fixed-size batches under sequence numbers
// startSeq, startSeq+1, ... and returns the last sequence used.
func ingestSeq(t *testing.T, c *Client, sid string, evs []SessionEvent, batch int, startSeq int64) int64 {
	t.Helper()
	ctx := context.Background()
	seq := startSeq - 1
	for start := 0; start < len(evs); start += batch {
		end := min(start+batch, len(evs))
		seq++
		resp, err := c.SessionEventsSeq(ctx, sid, seq, evs[start:end])
		if err != nil {
			t.Fatalf("seq %d: %v", seq, err)
		}
		if resp.Deduplicated || resp.Accepted != end-start || resp.Seq != seq {
			t.Fatalf("seq %d: %+v", seq, resp)
		}
	}
	return seq
}

// TestGroupCommitFsyncLossWindow: with a group-commit interval, an OS
// crash (page cache lost) may drop acked batches newer than the last
// fsync — and nothing else. Recovery lands exactly on the last synced
// commit boundary, reports the durable sequence watermark, and the
// client's retries of the lost window apply exactly once. With the
// default interval (0 = fsync every append) the same crash loses
// nothing.
func TestGroupCommitFsyncLossWindow(t *testing.T) {
	ctx := context.Background()
	in := crashInstance(t)
	trace := driftTrace(24, 24)

	h := NewCrashHarness(t.TempDir(), Config{FsyncInterval: time.Hour})
	srv, err := h.Start()
	if err != nil {
		t.Fatal(err)
	}
	c := serveExisting(t, srv)
	up, err := c.Upload(ctx, "gc", in)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := c.OpenSession(ctx, up.ID, SessionConfig{Epoch: 64})
	if err != nil {
		t.Fatal(err)
	}
	sid := sess.SessionID

	// Batch 1 lands inside the hour-long interval: flushed, not fsynced.
	ingestSeq(t, c, sid, trace[0:8], 8, 1)
	// Age the sync clock so batch 2's append takes the interval-elapsed
	// branch and fsyncs everything written so far.
	live, _ := srv.sessions.get(sid)
	live.mu.Lock()
	live.log.lastSync = time.Time{}
	live.mu.Unlock()
	ingestSeq(t, c, sid, trace[8:16], 8, 2)
	// Batch 3 is acked but unsynced again.
	ingestSeq(t, c, sid, trace[16:24], 8, 3)
	live.mu.Lock()
	synced, size := live.log.synced, live.log.size
	live.mu.Unlock()
	if synced == 0 || synced >= size {
		t.Fatalf("sync watermark %d of %d, want a strict mid-file boundary", synced, size)
	}

	if err := h.KillOSCrash(); err != nil {
		t.Fatal(err)
	}
	srv2, err := h.Start()
	if err != nil {
		t.Fatal(err)
	}
	c2 := serveExisting(t, srv2)
	st := srv2.Stats()
	// The crash cost exactly the unsynced suffix: batch 3. The file was
	// cut at a commit boundary, so nothing reads as torn.
	if st.RecoveredSessions != 1 || st.SessionEvents != 16 || st.WALDiscardedBytes != 0 {
		t.Fatalf("recovered=%d events=%d discarded=%d, want 1/16/0", st.RecoveredSessions, st.SessionEvents, st.WALDiscardedBytes)
	}
	info, err := c2.Session(ctx, sid)
	if err != nil {
		t.Fatal(err)
	}
	if info.LastSeq != 2 {
		t.Fatalf("durable watermark %d, want 2", info.LastSeq)
	}
	// The client retries its unacknowledged window: the covered batch
	// dedupes, the lost one applies — exactly once each.
	r2, err := c2.SessionEventsSeq(ctx, sid, 2, trace[8:16])
	if err != nil || !r2.Deduplicated || r2.Accepted != 0 {
		t.Fatalf("retry of durable seq 2: %+v, %v", r2, err)
	}
	r3, err := c2.SessionEventsSeq(ctx, sid, 3, trace[16:24])
	if err != nil || r3.Deduplicated || r3.Accepted != 8 {
		t.Fatalf("retry of lost seq 3: %+v, %v", r3, err)
	}
	if ev := srv2.Stats().SessionEvents; ev != 24 {
		t.Fatalf("events after retries: %d, want 24", ev)
	}
	h.Kill()

	// Contrast: the default fsync-every-append loses nothing acked.
	h0 := NewCrashHarness(t.TempDir(), Config{})
	srv0, err := h0.Start()
	if err != nil {
		t.Fatal(err)
	}
	c0 := serveExisting(t, srv0)
	up0, _ := c0.Upload(ctx, "gc0", in)
	sess0, err := c0.OpenSession(ctx, up0.ID, SessionConfig{Epoch: 64})
	if err != nil {
		t.Fatal(err)
	}
	ingestSeq(t, c0, sess0.SessionID, trace, 8, 1)
	if err := h0.KillOSCrash(); err != nil {
		t.Fatal(err)
	}
	srv0b, err := h0.Start()
	if err != nil {
		t.Fatal(err)
	}
	c0b := serveExisting(t, srv0b)
	if st := srv0b.Stats(); st.SessionEvents != 24 || st.WALDiscardedBytes != 0 {
		t.Fatalf("fsync-every-append lost data: events=%d discarded=%d", st.SessionEvents, st.WALDiscardedBytes)
	}
	r, err := c0b.SessionEventsSeq(ctx, sess0.SessionID, 3, trace[16:24])
	if err != nil || !r.Deduplicated {
		t.Fatalf("retry after lossless crash: %+v, %v", r, err)
	}
	h0.Kill()
}

// TestDrainFlushesDurability: a graceful shutdown (Drain after traffic
// quiesces) snapshots every live session, so the next start recovers
// with an empty WAL — wal_discarded_bytes == 0, zero replay — and a
// byte-identical session, durable sequence watermark included.
func TestDrainFlushesDurability(t *testing.T) {
	ctx := context.Background()
	h := NewCrashHarness(t.TempDir(), Config{})
	srv, err := h.Start()
	if err != nil {
		t.Fatal(err)
	}
	c := serveExisting(t, srv)
	up, err := c.Upload(ctx, "drain", crashInstance(t))
	if err != nil {
		t.Fatal(err)
	}
	sess, err := c.OpenSession(ctx, up.ID, SessionConfig{Epoch: 64})
	if err != nil {
		t.Fatal(err)
	}
	sid := sess.SessionID
	lastSeq := ingestSeq(t, c, sid, driftTrace(24, 24), 8, 1)
	if _, size, err := h.WALFile(sid); err != nil || size == 0 {
		t.Fatalf("live WAL before drain: size=%d err=%v", size, err)
	}
	want := sessionFingerprint(t, srv, c, sid)

	if err := srv.Drain(); err != nil {
		t.Fatal(err)
	}
	if !srv.Stats().Draining {
		t.Fatal("Drain did not mark the server draining")
	}
	// The final snapshot emptied the live WAL generation.
	if _, size, err := h.WALFile(sid); err != nil || size != 0 {
		t.Fatalf("live WAL after drain: size=%d err=%v", size, err)
	}
	h.Kill()

	srv2, err := h.Start()
	if err != nil {
		t.Fatal(err)
	}
	c2 := serveExisting(t, srv2)
	st := srv2.Stats()
	if st.RecoveredSessions != 1 || st.WALDiscardedBytes != 0 || st.SessionEvents != 24 {
		t.Fatalf("recovery after drain: recovered=%d discarded=%d events=%d", st.RecoveredSessions, st.WALDiscardedBytes, st.SessionEvents)
	}
	got := sessionFingerprint(t, srv2, c2, sid)
	if !bytes.Equal(got, want) {
		t.Errorf("drained-then-recovered session diverges\n got %s\nwant %s", got, want)
	}
	// The watermark rode the snapshot: a stale retry still dedupes.
	r, err := c2.SessionEventsSeq(ctx, sid, lastSeq, nil)
	if err == nil && !r.Deduplicated {
		t.Fatalf("retry of drained seq %d applied: %+v", lastSeq, r)
	}
	h.Kill()
}

// TestIdempotentRetryAcrossCrash: the sequence watermark lives in the
// WAL's commit markers, so even a crash-and-replay recovery (no
// snapshot since open) still recognizes a retried batch.
func TestIdempotentRetryAcrossCrash(t *testing.T) {
	ctx := context.Background()
	trace := driftTrace(24, 32)
	h := NewCrashHarness(t.TempDir(), Config{})
	srv, err := h.Start()
	if err != nil {
		t.Fatal(err)
	}
	c := serveExisting(t, srv)
	up, err := c.Upload(ctx, "idem", crashInstance(t))
	if err != nil {
		t.Fatal(err)
	}
	sess, err := c.OpenSession(ctx, up.ID, SessionConfig{Epoch: 64})
	if err != nil {
		t.Fatal(err)
	}
	sid := sess.SessionID
	ingestSeq(t, c, sid, trace[0:24], 8, 1)
	if info, err := c.Session(ctx, sid); err != nil || info.LastSeq != 3 {
		t.Fatalf("live watermark: %+v, %v", info, err)
	}
	h.Kill()

	srv2, err := h.Start()
	if err != nil {
		t.Fatal(err)
	}
	c2 := serveExisting(t, srv2)
	// Replay recovered all three batches and their watermark.
	if st := srv2.Stats(); st.SessionEvents != 24 {
		t.Fatalf("recovered events=%d, want 24", st.SessionEvents)
	}
	r3, err := c2.SessionEventsSeq(ctx, sid, 3, trace[16:24])
	if err != nil || !r3.Deduplicated || r3.Accepted != 0 || r3.Seq != 3 {
		t.Fatalf("retry of recovered seq 3: %+v, %v", r3, err)
	}
	if st := srv2.Stats(); st.DedupedBatches != 1 {
		t.Fatalf("dedupedBatches=%d, want 1", st.DedupedBatches)
	}
	// The stream then advances normally.
	r4, err := c2.SessionEventsSeq(ctx, sid, 4, trace[24:32])
	if err != nil || r4.Deduplicated || r4.Accepted != 8 || r4.Seq != 4 {
		t.Fatalf("next batch after recovery: %+v, %v", r4, err)
	}
	if st := srv2.Stats(); st.SessionEvents != 32 {
		t.Fatalf("events=%d, want 32", st.SessionEvents)
	}
	h.Kill()
}

// TestLegacyWALRecoveryCompat: a data directory holding a session in
// the line-atomic v1 WAL format (no commit markers, no wal_ver in the
// snapshot) still starts, but that session is not recovered: recovery
// reads only the v2 format, skips the v1 session like any other
// unrecoverable one, and keeps its id reserved so a new session on the
// same instance never reuses it (and never clobbers its files).
func TestLegacyWALRecoveryCompat(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	h := NewCrashHarness(dir, Config{})
	srv, err := h.Start()
	if err != nil {
		t.Fatal(err)
	}
	c := serveExisting(t, srv)
	up, err := c.Upload(ctx, "legacy", crashInstance(t))
	if err != nil {
		t.Fatal(err)
	}
	sess, err := c.OpenSession(ctx, up.ID, SessionConfig{Epoch: 64})
	if err != nil {
		t.Fatal(err)
	}
	sid := sess.SessionID
	ingestSeq(t, c, sid, driftTrace(24, 16), 8, 1)
	h.Kill()

	// Rewrite the session's files as a v1 server would have left them:
	// strip the commit markers from the WAL and the version/watermark
	// fields from the snapshot.
	walPath, _, err := h.WALFile(sid)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	var v1 []string
	for _, line := range strings.Split(string(raw), "\n") {
		if line == "" || strings.HasPrefix(line, `{"seq"`) {
			continue
		}
		v1 = append(v1, line)
	}
	if err := os.WriteFile(walPath, []byte(strings.Join(v1, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	snapPath := filepath.Join(dir, "sessions", sid+".snap.json")
	snapRaw, err := os.ReadFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	var snap map[string]any
	if err := json.Unmarshal(snapRaw, &snap); err != nil {
		t.Fatal(err)
	}
	delete(snap, "wal_ver")
	delete(snap, "last_seq")
	downgraded, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(snapPath, downgraded, 0o644); err != nil {
		t.Fatal(err)
	}

	srv2, err := h.Start()
	if err != nil {
		t.Fatalf("server with a v1 session on disk did not start: %v", err)
	}
	c2 := serveExisting(t, srv2)
	if st := srv2.Stats(); st.Instances != 1 || st.RecoveredSessions != 0 || st.SessionsOpen != 0 {
		t.Fatalf("v1 recovery: instances=%d recovered=%d open=%d, want 1/0/0", st.Instances, st.RecoveredSessions, st.SessionsOpen)
	}
	var ae *APIError
	if _, err := c2.Session(ctx, sid); !errors.As(err, &ae) || ae.Status != http.StatusNotFound {
		t.Fatalf("v1 session %s: err=%v, want HTTP 404", sid, err)
	}
	fresh, err := c2.OpenSession(ctx, up.ID, SessionConfig{Epoch: 64})
	if err != nil {
		t.Fatal(err)
	}
	if fresh.SessionID == sid {
		t.Fatalf("new session reused the skipped v1 session's id %s", sid)
	}
	if _, err := os.Stat(snapPath); err != nil {
		t.Fatalf("skipped v1 session's snapshot: %v", err)
	}
	h.Kill()
}

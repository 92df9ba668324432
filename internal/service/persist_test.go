package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"netplace/internal/encode"
)

// TestInstancePersistenceRoundTrip: uploads survive a restart with their
// labels, deletes stay deleted, and re-uploading after recovery is the
// usual idempotent no-op against the recovered copy.
func TestInstancePersistenceRoundTrip(t *testing.T) {
	ctx := context.Background()
	h := NewCrashHarness(t.TempDir(), Config{})
	srv, err := h.Start()
	if err != nil {
		t.Fatal(err)
	}
	c := serveExisting(t, srv)

	inA, inB := pathInstance(t, 10, 7), pathInstance(t, 12, 4)
	upA, err := c.Upload(ctx, "keep-me", inA)
	if err != nil {
		t.Fatal(err)
	}
	upB, err := c.Upload(ctx, "drop-me", inB)
	if err != nil {
		t.Fatal(err)
	}
	// A re-upload refreshes the persisted label too.
	if re, err := c.Upload(ctx, "keep-me-renamed", inA); err != nil || re.Created {
		t.Fatalf("re-upload: %+v err=%v", re, err)
	}
	if err := c.Delete(ctx, upB.ID); err != nil {
		t.Fatal(err)
	}

	h.Kill()
	srv, err = h.Start()
	if err != nil {
		t.Fatal(err)
	}
	c = serveExisting(t, srv)
	list, err := c.List(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != 1 || list[0].ID != upA.ID || list[0].Name != "keep-me-renamed" {
		t.Fatalf("recovered instances: %+v", list)
	}
	// The recovered copy answers queries and re-upload is idempotent.
	if res, err := c.Solve(ctx, upA.ID, SolveOptions{}); err != nil || res.Copies == 0 {
		t.Fatalf("solve on recovered instance: %+v err=%v", res, err)
	}
	if re, err := c.Upload(ctx, "", inA); err != nil || re.Created || re.ID != upA.ID {
		t.Fatalf("re-upload after recovery: %+v err=%v", re, err)
	}
}

// TestInstanceRecoverySkipsDamagedFiles: unparseable, invalid, and
// hash-mismatched snapshots (and leftover .tmp files) are skipped with a
// warning; intact ones still load.
func TestInstanceRecoverySkipsDamagedFiles(t *testing.T) {
	ctx := context.Background()
	h := NewCrashHarness(t.TempDir(), Config{})
	srv, err := h.Start()
	if err != nil {
		t.Fatal(err)
	}
	c := serveExisting(t, srv)
	up, err := c.Upload(ctx, "good", pathInstance(t, 10, 7))
	if err != nil {
		t.Fatal(err)
	}
	h.Kill()

	dir := filepath.Join(h.Dir(), "instances")
	// Unparseable JSON.
	if err := os.WriteFile(filepath.Join(dir, "0000000000000001.json"), []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	// Parseable but semantically invalid (no nodes).
	bad, _ := json.Marshal(instanceFileJSON{Name: "bad", Instance: encode.InstanceJSON{}})
	if err := os.WriteFile(filepath.Join(dir, "0000000000000002.json"), bad, 0o644); err != nil {
		t.Fatal(err)
	}
	// Valid instance filed under the wrong id: content hash mismatch.
	mis, _ := json.Marshal(instanceFileJSON{Name: "mismatch", Instance: encode.InstanceJSONOf(pathInstance(t, 6, 2))})
	if err := os.WriteFile(filepath.Join(dir, "0000000000000003.json"), mis, 0o644); err != nil {
		t.Fatal(err)
	}
	// Leftover temp file from an interrupted atomic write.
	if err := os.WriteFile(filepath.Join(dir, "0000000000000004.json.tmp"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}

	srv, err = h.Start()
	if err != nil {
		t.Fatalf("recovery must skip damaged snapshots, not fail: %v", err)
	}
	c = serveExisting(t, srv)
	list, err := c.List(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != 1 || list[0].ID != up.ID {
		t.Fatalf("recovered instances: %+v", list)
	}
}

// TestSessionRecoverySkipsMissingInstance: a session whose instance
// snapshot vanished cannot be rebuilt; recovery skips it but still
// reserves its id so a new session never reuses it (and never clobbers
// the leftover files).
func TestSessionRecoverySkipsMissingInstance(t *testing.T) {
	ctx := context.Background()
	h := NewCrashHarness(t.TempDir(), Config{})
	srv, err := h.Start()
	if err != nil {
		t.Fatal(err)
	}
	c := serveExisting(t, srv)
	up, err := c.Upload(ctx, "doomed", pathInstance(t, 10, 7))
	if err != nil {
		t.Fatal(err)
	}
	sess, err := c.OpenSession(ctx, up.ID, SessionConfig{Epoch: 8})
	if err != nil {
		t.Fatal(err)
	}
	ingestBatches(t, c, sess.SessionID, []SessionEvent{
		{Obj: "obj", Node: 7}, {Obj: "obj", Node: 2, Write: true}, {Obj: "obj", Node: 7},
	}, 3)
	h.Kill()
	if err := os.Remove(filepath.Join(h.Dir(), "instances", up.ID+".json")); err != nil {
		t.Fatal(err)
	}

	srv, err = h.Start()
	if err != nil {
		t.Fatal(err)
	}
	c = serveExisting(t, srv)
	if got, err := c.Sessions(ctx); err != nil || len(got) != 0 {
		t.Fatalf("sessions after losing the instance: %+v err=%v", got, err)
	}
	if st := srv.Stats(); st.RecoveredSessions != 0 || st.SessionsOpened != 0 {
		t.Fatalf("stats after skipped session: %+v", st)
	}
	// The skipped id is reserved: a fresh session gets the next id up.
	if _, err := c.Upload(ctx, "doomed", pathInstance(t, 10, 7)); err != nil {
		t.Fatal(err)
	}
	fresh, err := c.OpenSession(ctx, up.ID, SessionConfig{Epoch: 8})
	if err != nil {
		t.Fatal(err)
	}
	if fresh.SessionID <= sess.SessionID {
		t.Fatalf("fresh session id %s does not advance past reserved %s", fresh.SessionID, sess.SessionID)
	}
}

// TestPersistenceDisabledByDefault: New and Open-without-DataDir build a
// purely in-memory server whose /statz reports persistence off.
func TestPersistenceDisabledByDefault(t *testing.T) {
	srv, _ := newTestServer(t, Config{})
	if st := srv.Stats(); st.Persistence {
		t.Fatalf("in-memory server reports persistence: %+v", st)
	}
	srv2, err := Open(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if st := srv2.Stats(); st.Persistence {
		t.Fatalf("Open without DataDir reports persistence: %+v", st)
	}
}

// Servers that still took a "parallel" solve option wrote it into the
// session meta. Recovery reads the meta with json.Unmarshal, which
// ignores the key, so such a session recovers with the same placement
// and stats.
func TestSessionRecoveryIgnoresParallelInMeta(t *testing.T) {
	ctx := context.Background()
	h := NewCrashHarness(t.TempDir(), Config{})
	srv, err := h.Start()
	if err != nil {
		t.Fatal(err)
	}
	c := serveExisting(t, srv)
	up, err := c.Upload(ctx, "meta", crashInstance(t))
	if err != nil {
		t.Fatal(err)
	}
	sess, err := c.OpenSession(ctx, up.ID, SessionConfig{Epoch: 16, Window: 3})
	if err != nil {
		t.Fatal(err)
	}
	sid := sess.SessionID
	ingestBatches(t, c, sid, driftTrace(24, 54), 9)
	want := sessionFingerprint(t, srv, c, sid)
	h.Kill()

	meta := fmt.Sprintf(`{"session_id":%q,"instance_id":%q,"config":{"epoch":16,"window":3,"options":{"parallel":4}}}`, sid, up.ID)
	if err := os.WriteFile(filepath.Join(h.Dir(), "sessions", sid+".meta.json"), []byte(meta), 0o644); err != nil {
		t.Fatal(err)
	}
	srv, err = h.Start()
	if err != nil {
		t.Fatal(err)
	}
	c = serveExisting(t, srv)
	if st := srv.Stats(); st.RecoveredSessions != 1 {
		t.Fatalf("recovered %d sessions, want 1", st.RecoveredSessions)
	}
	if got := sessionFingerprint(t, srv, c, sid); !bytes.Equal(got, want) {
		t.Fatalf("recovered session diverges\n got %s\nwant %s", got, want)
	}
}

// Recovery bounds a session's window like an open does: a session whose
// estimator ring no longer fits the memory budget is logged and skipped,
// and its id stays reserved.
func TestSessionRecoverySkipsWindowOverBudget(t *testing.T) {
	ctx := context.Background()
	h := NewCrashHarness(t.TempDir(), Config{MemoryBudget: 1 << 20})
	srv, err := h.Start()
	if err != nil {
		t.Fatal(err)
	}
	c := serveExisting(t, srv)
	up, err := c.Upload(ctx, "window", crashInstance(t)) // 1152 ring bytes per epoch
	if err != nil {
		t.Fatal(err)
	}
	sess, err := c.OpenSession(ctx, up.ID, SessionConfig{Epoch: 8, Window: 900})
	if err != nil {
		t.Fatal(err)
	}
	h.Kill()

	h.cfg.MemoryBudget = 1 << 19 // room for 455 epochs
	srv, err = h.Start()
	if err != nil {
		t.Fatal(err)
	}
	c = serveExisting(t, srv)
	if got, err := c.Sessions(ctx); err != nil || len(got) != 0 {
		t.Fatalf("sessions after an over-budget window: %+v err=%v", got, err)
	}
	fresh, err := c.OpenSession(ctx, up.ID, SessionConfig{Epoch: 8})
	if err != nil {
		t.Fatal(err)
	}
	if fresh.SessionID <= sess.SessionID {
		t.Fatalf("fresh session id %s does not advance past reserved %s", fresh.SessionID, sess.SessionID)
	}
}

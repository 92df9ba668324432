package service

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestCrashHarnessMisuse pins the harness's guard rails: no double
// Start, no Clone of a live server, bounds-checked truncation, and
// errors for sessions that have no durable state.
func TestCrashHarnessMisuse(t *testing.T) {
	h := NewCrashHarness(t.TempDir(), Config{})
	h.Kill() // no-op before the first Start
	if h.Server() != nil {
		t.Fatal("server before Start")
	}
	if _, err := h.Start(); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Start(); err == nil {
		t.Fatal("second Start on a live harness succeeded")
	}
	if _, err := h.Clone(filepath.Join(t.TempDir(), "c")); err == nil {
		t.Fatal("Clone of a live harness succeeded")
	}
	if _, _, err := h.WALFile("s-000099"); err == nil {
		t.Fatal("WALFile of an unknown session succeeded")
	}
	ctx := context.Background()
	c := serveExisting(t, h.Server())
	up, err := c.Upload(ctx, "guard", pathInstance(t, 8, 3))
	if err != nil {
		t.Fatal(err)
	}
	sess, err := c.OpenSession(ctx, up.ID, SessionConfig{Epoch: 8})
	if err != nil {
		t.Fatal(err)
	}
	ingestBatches(t, c, sess.SessionID, []SessionEvent{{Obj: "obj", Node: 1}}, 1)
	h.Kill()
	_, size, err := h.WALFile(sess.SessionID)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.TruncateWAL(sess.SessionID, size+1); err == nil {
		t.Fatal("truncate past the end succeeded")
	}
	if err := h.TruncateWAL(sess.SessionID, -1); err == nil {
		t.Fatal("negative truncate succeeded")
	}
}

// TestSessionRecoverySkipsDamagedSessionFiles: each way a session's own
// files can rot — unreadable meta, unreadable or rejected snapshot, a
// config that no longer lowers — skips just that session (reserving its
// id) and never blocks startup.
func TestSessionRecoverySkipsDamagedSessionFiles(t *testing.T) {
	ctx := context.Background()
	h := NewCrashHarness(t.TempDir(), Config{})
	srv, err := h.Start()
	if err != nil {
		t.Fatal(err)
	}
	c := serveExisting(t, srv)
	up, err := c.Upload(ctx, "rot", pathInstance(t, 8, 3))
	if err != nil {
		t.Fatal(err)
	}
	sess, err := c.OpenSession(ctx, up.ID, SessionConfig{Epoch: 8})
	if err != nil {
		t.Fatal(err)
	}
	sid := sess.SessionID
	ingestBatches(t, c, sid, []SessionEvent{{Obj: "obj", Node: 1}, {Obj: "obj", Node: 2}}, 2)
	h.Kill()

	damage := map[string]func(t *testing.T, dir string){
		"corrupt-meta": func(t *testing.T, dir string) {
			overwrite(t, filepath.Join(dir, "sessions", sid+".meta.json"), "{")
		},
		"corrupt-snap": func(t *testing.T, dir string) {
			overwrite(t, filepath.Join(dir, "sessions", sid+".snap.json"), "not json")
		},
		"zero-walseq": func(t *testing.T, dir string) {
			overwrite(t, filepath.Join(dir, "sessions", sid+".snap.json"), `{"wal_seq":0,"state":null}`)
		},
		"bad-config": func(t *testing.T, dir string) {
			meta, _ := json.Marshal(sessionMetaJSON{SessionID: sid, InstanceID: up.ID,
				Config: SessionConfig{Epoch: 8, Alpha: 2}}) // alpha outside [0,1]
			overwrite(t, filepath.Join(dir, "sessions", sid+".meta.json"), string(meta))
		},
		"state-shape-mismatch": func(t *testing.T, dir string) {
			p := filepath.Join(dir, "sessions", sid+".snap.json")
			buf, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			var snap sessionSnapJSON
			if err := json.Unmarshal(buf, &snap); err != nil {
				t.Fatal(err)
			}
			snap.State.Objects = snap.State.Objects[:0] // wrong object count
			out, _ := json.Marshal(snap)
			overwrite(t, p, string(out))
		},
	}
	for name, breakIt := range damage {
		t.Run(name, func(t *testing.T) {
			clone, err := h.Clone(filepath.Join(t.TempDir(), "d"))
			if err != nil {
				t.Fatal(err)
			}
			breakIt(t, clone.Dir())
			csrv, err := clone.Start()
			if err != nil {
				t.Fatalf("damaged session blocked startup: %v", err)
			}
			cc := serveExisting(t, csrv)
			if got, err := cc.Sessions(ctx); err != nil || len(got) != 0 {
				t.Fatalf("sessions: %+v err=%v", got, err)
			}
			// The damaged id stays reserved.
			fresh, err := cc.OpenSession(ctx, up.ID, SessionConfig{Epoch: 8})
			if err != nil {
				t.Fatal(err)
			}
			if fresh.SessionID <= sid {
				t.Fatalf("fresh id %s does not advance past damaged %s", fresh.SessionID, sid)
			}
			clone.Kill()
		})
	}
}

func overwrite(t *testing.T, path, content string) {
	t.Helper()
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestPersistWriteFailures drives the handlers' persistence-error
// branches by yanking the store's subdirectories out from under a live
// server: uploads and session opens fail loudly (nothing half-persisted
// lingers), epoch rotations degrade to a counted warning, and flushes
// refuse to ack a checkpoint they could not write.
func TestPersistWriteFailures(t *testing.T) {
	ctx := context.Background()
	h := NewCrashHarness(t.TempDir(), Config{})
	srv, err := h.Start()
	if err != nil {
		t.Fatal(err)
	}
	c := serveExisting(t, srv)
	up, err := c.Upload(ctx, "fail", crashInstance(t))
	if err != nil {
		t.Fatal(err)
	}
	sess, err := c.OpenSession(ctx, up.ID, SessionConfig{Epoch: 4})
	if err != nil {
		t.Fatal(err)
	}
	sid := sess.SessionID

	// Sabotage the sessions directory: the open WAL handle still accepts
	// appends (the fd survives), but rotation cannot create the next
	// generation.
	if err := os.RemoveAll(filepath.Join(h.Dir(), "sessions")); err != nil {
		t.Fatal(err)
	}
	// Epoch-closing batch: rotation fails, the batch is still acked and
	// the failure is counted.
	resp, err := c.SessionEvents(ctx, sid, driftTrace(24, 4))
	if err != nil || resp.Accepted != 4 {
		t.Fatalf("epoch batch under rotation failure: %+v err=%v", resp, err)
	}
	if n := srv.Stats().PersistErrors; n == 0 {
		t.Fatal("failed rotation not counted")
	}
	// A flush cannot be made durable: it must refuse, not silently ack.
	if _, err := c.SessionFlush(ctx, sid); err == nil {
		t.Fatal("flush acked without a durable checkpoint")
	} else if !strings.Contains(err.Error(), "flush not durable") {
		t.Fatalf("flush error: %v", err)
	}
	// Opening a session cannot persist its meta: the open rolls back.
	if _, err := c.OpenSession(ctx, up.ID, SessionConfig{Epoch: 4}); err == nil {
		t.Fatal("session open acked without durable meta")
	}
	if n := srv.sessions.len(); n != 1 {
		t.Fatalf("rolled-back open left %d sessions registered", n)
	}

	// Sabotage the instances directory the same way: uploads must fail.
	if err := os.RemoveAll(filepath.Join(h.Dir(), "instances")); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Upload(ctx, "fail2", pathInstance(t, 10, 5)); err == nil {
		t.Fatal("upload acked without a durable snapshot")
	}
	// Deleting with a broken store surfaces the failure too (a stale
	// snapshot would resurrect the instance on restart). os.Remove fails
	// with ENOTDIR when a file squats on the directory name.
	if err := os.WriteFile(filepath.Join(h.Dir(), "instances"), []byte("squat"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := c.Delete(ctx, up.ID); err == nil {
		t.Fatal("delete acked with an undeletable snapshot")
	}
}

// TestOpenFailsOnUnusableDataDir: Open must refuse a data directory it
// cannot create or read rather than silently running in-memory.
func TestOpenFailsOnUnusableDataDir(t *testing.T) {
	squat := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(squat, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Config{DataDir: filepath.Join(squat, "nested")}); err == nil {
		t.Fatal("Open under a regular file succeeded")
	}
	// A store whose sessions dir is unreadable fails recovery.
	dir := t.TempDir()
	if _, err := openStore(dir, false, 0); err != nil {
		t.Fatal(err)
	}
	if err := os.RemoveAll(filepath.Join(dir, "sessions")); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "sessions"), []byte("squat"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Config{DataDir: dir}); err == nil {
		t.Fatal("Open with an unreadable session store succeeded")
	}
}

// TestSessionLogAppendRollbackAndPoison unit-tests the WAL append's
// failure contract: a failed write rolls the file back to the durable
// prefix; when even the rollback fails, the log marks itself broken and
// refuses everything until a restart reopens it.
func TestSessionLogAppendRollbackAndPoison(t *testing.T) {
	st, err := openStore(t.TempDir(), false, 0)
	if err != nil {
		t.Fatal(err)
	}
	l, err := st.createSessionLog("s-0000ff", 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.append([][]byte{[]byte("{\"obj\":\"a\",\"node\":1}\n")}, 0); err != nil {
		t.Fatal(err)
	}
	durable := l.size
	// Sabotage the fd: the next flush/sync fails, and so does the
	// rollback truncate — the log must poison itself.
	l.f.Close()
	if err := l.append([][]byte{[]byte("{\"obj\":\"a\",\"node\":2}\n")}, 0); err == nil {
		t.Fatal("append on a closed fd succeeded")
	}
	if !l.broken {
		t.Fatal("failed rollback did not mark the log broken")
	}
	if err := l.append([][]byte{[]byte("x\n")}, 0); err == nil || !strings.Contains(err.Error(), "broken") {
		t.Fatalf("broken log accepted an append: %v", err)
	}
	if err := l.rotate(nil, 0); err == nil || !strings.Contains(err.Error(), "broken") {
		t.Fatalf("broken log accepted a rotate: %v", err)
	}
	// A restart-style reopen over the durable prefix works again.
	l2, err := st.openSessionLog("s-0000ff", 1, durable)
	if err != nil {
		t.Fatal(err)
	}
	if err := l2.append([][]byte{[]byte("{\"obj\":\"a\",\"node\":3}\n")}, 0); err != nil {
		t.Fatal(err)
	}
	l2.close()
}

// TestSessionOpenRollbackOnLaterPersistSteps drives the open-rollback
// branches past the meta write: WAL creation failure and initial
// snapshot failure must both un-register the session.
func TestSessionOpenRollbackOnLaterPersistSteps(t *testing.T) {
	ctx := context.Background()
	h := NewCrashHarness(t.TempDir(), Config{})
	srv, err := h.Start()
	if err != nil {
		t.Fatal(err)
	}
	c := serveExisting(t, srv)
	up, err := c.Upload(ctx, "rollback", pathInstance(t, 8, 3))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.OpenSession(ctx, up.ID, SessionConfig{Epoch: 8}); err != nil {
		t.Fatal(err) // <id>.s-000001, keeps the table non-empty
	}
	// The next session would be <id>.s-000002: squat a directory on its WAL
	// path so createSessionLog fails after the meta write.
	if err := os.Mkdir(filepath.Join(h.Dir(), "sessions", up.ID+".s-000002.wal.1.jsonl"), 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := c.OpenSession(ctx, up.ID, SessionConfig{Epoch: 8}); err == nil {
		t.Fatal("open with an uncreatable WAL succeeded")
	}
	// And <id>.s-000003: squat a non-empty directory on its snapshot path so
	// the atomic rename fails after meta and WAL succeed.
	snapDir := filepath.Join(h.Dir(), "sessions", up.ID+".s-000003.snap.json")
	if err := os.MkdirAll(filepath.Join(snapDir, "occupied"), 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := c.OpenSession(ctx, up.ID, SessionConfig{Epoch: 8}); err == nil {
		t.Fatal("open with an unwritable snapshot succeeded")
	}
	if n := srv.sessions.len(); n != 1 {
		t.Fatalf("rolled-back opens left %d sessions registered", n)
	}
	if n := srv.Stats().PersistErrors; n < 2 {
		t.Fatalf("persist errors: %d, want >= 2", n)
	}
	// The server is not poisoned: a clean id still opens.
	if _, err := c.OpenSession(ctx, up.ID, SessionConfig{Epoch: 8}); err != nil {
		t.Fatalf("open after rollbacks: %v", err)
	}
}

// TestRecoveryWithMissingWAL: a crash can land between the snapshot
// rename and the new segment's creation; the snapshot alone is then the
// complete state and recovery must treat the absent WAL as empty.
func TestRecoveryWithMissingWAL(t *testing.T) {
	ctx := context.Background()
	h := NewCrashHarness(t.TempDir(), Config{})
	srv, err := h.Start()
	if err != nil {
		t.Fatal(err)
	}
	c := serveExisting(t, srv)
	up, err := c.Upload(ctx, "nowal", crashInstance(t))
	if err != nil {
		t.Fatal(err)
	}
	sess, err := c.OpenSession(ctx, up.ID, SessionConfig{Epoch: 8})
	if err != nil {
		t.Fatal(err)
	}
	sid := sess.SessionID
	ingestBatches(t, c, sid, driftTrace(24, 8), 8) // one epoch: snapshot at 8 events
	ingestBatches(t, c, sid, driftTrace(24, 3), 3) // 3 events only in the WAL
	h.Kill()
	path, _, err := h.WALFile(sid)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	srv, err = h.Start()
	if err != nil {
		t.Fatal(err)
	}
	st := srv.Stats()
	if st.RecoveredSessions != 1 || st.SessionEvents != 8 || st.WALDiscardedBytes != 0 {
		t.Fatalf("recovery with missing wal: %+v", st)
	}
	// The reopened log accepts appends (the segment is recreated).
	c = serveExisting(t, srv)
	if r, err := c.SessionEvents(ctx, sid, driftTrace(24, 2)); err != nil || r.Stats.Events != 10 {
		t.Fatalf("ingest after missing-wal recovery: %+v err=%v", r, err)
	}
}

// TestRecoverySkipsWALReadError: a WAL that exists but cannot be read
// as a file (a directory squatting its path) skips the session instead
// of failing startup.
func TestRecoverySkipsWALReadError(t *testing.T) {
	ctx := context.Background()
	h := NewCrashHarness(t.TempDir(), Config{})
	srv, err := h.Start()
	if err != nil {
		t.Fatal(err)
	}
	c := serveExisting(t, srv)
	up, err := c.Upload(ctx, "badwal", pathInstance(t, 8, 3))
	if err != nil {
		t.Fatal(err)
	}
	sess, err := c.OpenSession(ctx, up.ID, SessionConfig{Epoch: 8})
	if err != nil {
		t.Fatal(err)
	}
	sid := sess.SessionID
	h.Kill()
	path, _, err := h.WALFile(sid)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(path, 0o755); err != nil {
		t.Fatal(err)
	}
	srv, err = h.Start()
	if err != nil {
		t.Fatalf("unreadable wal blocked startup: %v", err)
	}
	if st := srv.Stats(); st.RecoveredSessions != 0 || st.SessionsOpen != 0 {
		t.Fatalf("session with unreadable wal recovered: %+v", st)
	}
}

// TestClientErrorBodiesAndScenarios covers the client's non-JSON error
// fallback (raw body surfaced, capped) plus the typed scenario batch and
// instance String helpers that round out the client surface.
func TestClientErrorBodiesAndScenarios(t *testing.T) {
	ctx := context.Background()
	h := NewCrashHarness(t.TempDir(), Config{})
	srv, err := h.Start()
	if err != nil {
		t.Fatal(err)
	}
	c := serveExisting(t, srv)
	up, err := c.Upload(ctx, "scen", pathInstance(t, 8, 3))
	if err != nil {
		t.Fatal(err)
	}
	infos, err := c.List(ctx)
	if err != nil || len(infos) != 1 {
		t.Fatalf("list: %+v err=%v", infos, err)
	}
	if s := infos[0].String(); !strings.Contains(s, up.ID) || !strings.Contains(s, "8 nodes") {
		t.Fatalf("InstanceInfo.String: %q", s)
	}
	out, err := c.WhatIfScenarios(ctx, up.ID, SolveOptions{}, []Scenario{
		{Label: "base"},
		{Label: "hot-reads", Objects: []ObjectPatch{{Name: "obj", Reads: []int64{9, 9, 0, 0, 0, 0, 0, 0}}}},
	})
	if err != nil || len(out) != 2 {
		t.Fatalf("scenarios: %+v err=%v", out, err)
	}
	// A non-JSON error body (plain 404 from the mux) must surface through
	// the fallback formatting, not vanish into a bare status code.
	err = c.do(ctx, "GET", "/definitely/not/a/route", nil, nil)
	if err == nil || !strings.Contains(err.Error(), "HTTP 404") || !strings.Contains(err.Error(), "page not found") {
		t.Fatalf("non-JSON error body lost: %v", err)
	}
}

// TestResultCacheLRU unit-tests the solve cache: update-in-place,
// recency-ordered eviction, and the disabled (cap<=0) mode.
func TestResultCacheLRU(t *testing.T) {
	c := newResultCache(2)
	c.Put("a", 1)
	c.Put("b", 2)
	c.Put("a", 10) // update refreshes recency, no growth
	if n := c.Len(); n != 2 {
		t.Fatalf("len after update: %d", n)
	}
	c.Put("c", 3) // evicts "b", the least recently used
	if _, ok := c.Get("b"); ok {
		t.Fatal("lru entry survived eviction")
	}
	if v, ok := c.Get("a"); !ok || v != 10 {
		t.Fatalf("updated entry: %v %v", v, ok)
	}
	off := newResultCache(0)
	off.Put("x", 1)
	if _, ok := off.Get("x"); ok || off.Len() != 0 {
		t.Fatal("disabled cache stored a value")
	}
}

package service

import (
	"context"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// TestSessionDeleteMidIngest races a DELETE against a stream of event
// batches: the delete must win cleanly (no panic, files gone, ingests
// after it 404) while any batch that already held the session lock
// finishes normally.
func TestSessionDeleteMidIngest(t *testing.T) {
	ctx := context.Background()
	h := NewCrashHarness(t.TempDir(), Config{})
	srv, err := h.Start()
	if err != nil {
		t.Fatal(err)
	}
	c := serveExisting(t, srv)
	up, err := c.Upload(ctx, "race", crashInstance(t))
	if err != nil {
		t.Fatal(err)
	}
	sess, err := c.OpenSession(ctx, up.ID, SessionConfig{Epoch: 8})
	if err != nil {
		t.Fatal(err)
	}
	sid := sess.SessionID

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		batch := driftTrace(24, 8)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := c.SessionEvents(ctx, sid, batch); err != nil {
				// The delete won; every later attempt must fail too.
				if _, err := c.SessionEvents(ctx, sid, batch); err == nil {
					t.Error("ingest succeeded after the session was deleted")
				}
				return
			}
		}
	}()
	if err := c.CloseSession(ctx, sid); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()

	if _, ok := srv.sessions.get(sid); ok {
		t.Fatal("session still registered after delete")
	}
	// Double delete is a plain 404.
	if err := c.CloseSession(ctx, sid); err == nil {
		t.Fatal("second delete succeeded")
	}
	// The session's durable files are gone, so a restart recovers nothing.
	matches, err := filepath.Glob(filepath.Join(h.Dir(), "sessions", sid+".*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != 0 {
		t.Fatalf("session files survive delete: %v", matches)
	}
	h.Kill()
	srv, err = h.Start()
	if err != nil {
		t.Fatal(err)
	}
	if st := srv.Stats(); st.RecoveredSessions != 0 || st.SessionsOpen != 0 {
		t.Fatalf("deleted session resurrected: %+v", st)
	}
}

// TestMaxSessionsOrderingAndRecovery pins the session-table semantics:
// the cap rejects opens, a delete frees a slot, ids are monotonic and
// never reused — and recovery re-admits pre-crash sessions even past a
// (possibly lowered) cap, bumping the id counter over them.
func TestMaxSessionsOrderingAndRecovery(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	h := NewCrashHarness(dir, Config{MaxSessions: 2})
	srv, err := h.Start()
	if err != nil {
		t.Fatal(err)
	}
	c := serveExisting(t, srv)
	up, err := c.Upload(ctx, "cap", crashInstance(t))
	if err != nil {
		t.Fatal(err)
	}

	s1, err := c.OpenSession(ctx, up.ID, SessionConfig{Epoch: 8})
	if err != nil {
		t.Fatal(err)
	}
	s2, err := c.OpenSession(ctx, up.ID, SessionConfig{Epoch: 8})
	if err != nil {
		t.Fatal(err)
	}
	if s1.SessionID != up.ID+".s-000001" || s2.SessionID != up.ID+".s-000002" {
		t.Fatalf("ids: %s, %s", s1.SessionID, s2.SessionID)
	}
	if _, err := c.OpenSession(ctx, up.ID, SessionConfig{Epoch: 8}); err == nil {
		t.Fatal("open past MaxSessions succeeded")
	} else if !strings.Contains(err.Error(), "session limit") {
		t.Fatalf("cap error: %v", err)
	}
	if err := c.CloseSession(ctx, s1.SessionID); err != nil {
		t.Fatal(err)
	}
	s3, err := c.OpenSession(ctx, up.ID, SessionConfig{Epoch: 8})
	if err != nil {
		t.Fatal(err)
	}
	if s3.SessionID != up.ID+".s-000003" {
		t.Fatalf("id after delete: %s (ids must never be reused)", s3.SessionID)
	}
	h.Kill()

	// Reopen the same data dir with a LOWER cap: the two surviving
	// sessions were admitted before the restart, so recovery keeps both;
	// only new opens feel the cap.
	h2 := NewCrashHarness(dir, Config{MaxSessions: 1})
	srv, err = h2.Start()
	if err != nil {
		t.Fatal(err)
	}
	c = serveExisting(t, srv)
	got, err := c.Sessions(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("recovered %d sessions, want 2", len(got))
	}
	if _, err := c.OpenSession(ctx, up.ID, SessionConfig{Epoch: 8}); err == nil {
		t.Fatal("open past the lowered cap succeeded")
	}
	if err := c.CloseSession(ctx, s2.SessionID); err != nil {
		t.Fatal(err)
	}
	if err := c.CloseSession(ctx, s3.SessionID); err != nil {
		t.Fatal(err)
	}
	s4, err := c.OpenSession(ctx, up.ID, SessionConfig{Epoch: 8})
	if err != nil {
		t.Fatal(err)
	}
	if s4.SessionID != up.ID+".s-000004" {
		t.Fatalf("id after recovery: %s (counter must advance past recovered ids)", s4.SessionID)
	}
}

// TestSessionReopenSameInstance: re-POSTing a session for an instance
// opens an independent session — separate estimates, separate WAL —
// and deleting one leaves the other untouched.
func TestSessionReopenSameInstance(t *testing.T) {
	ctx := context.Background()
	// NoSync: the fsync-free persistence path must behave identically for
	// a plain process kill (only an OS crash may lose acked events).
	h := NewCrashHarness(t.TempDir(), Config{NoSync: true})
	srv, err := h.Start()
	if err != nil {
		t.Fatal(err)
	}
	c := serveExisting(t, srv)
	up, err := c.Upload(ctx, "twin", crashInstance(t))
	if err != nil {
		t.Fatal(err)
	}
	a, err := c.OpenSession(ctx, up.ID, SessionConfig{Epoch: 8})
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.OpenSession(ctx, up.ID, SessionConfig{Epoch: 8})
	if err != nil {
		t.Fatal(err)
	}
	// Feed the twins different workloads: their states must not bleed.
	ingestBatches(t, c, a.SessionID, driftTrace(24, 24), 8)
	if resp, err := c.SessionEvents(ctx, b.SessionID, []SessionEvent{{Obj: "a", Node: 23, Count: 3}}); err != nil || resp.Accepted != 3 {
		t.Fatalf("count-expanded ingest: %+v err=%v", resp, err)
	}

	ai, err := c.Sessions(ctx)
	if err != nil {
		t.Fatal(err)
	}
	events := map[string]int{}
	for _, s := range ai {
		events[s.SessionID] = s.Stats.Events
	}
	if events[a.SessionID] != 24 || events[b.SessionID] != 3 {
		t.Fatalf("per-session events: %v", events)
	}
	if err := c.CloseSession(ctx, a.SessionID); err != nil {
		t.Fatal(err)
	}
	if _, err := c.SessionEvents(ctx, b.SessionID, []SessionEvent{{Obj: "b", Node: 2}}); err != nil {
		t.Fatalf("surviving session broken by sibling delete: %v", err)
	}
	// And the survivor alone is what a restart recovers.
	h.Kill()
	srv, err = h.Start()
	if err != nil {
		t.Fatal(err)
	}
	c = serveExisting(t, srv)
	got, err := c.Sessions(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].SessionID != b.SessionID || got[0].Stats.Events != 4 {
		t.Fatalf("recovered sessions: %+v", got)
	}
	// The single-session endpoint (netreplay's resume source) agrees.
	info, err := c.Session(ctx, b.SessionID)
	if err != nil || info.SessionID != b.SessionID || info.Stats.Events != 4 {
		t.Fatalf("session info: %+v err=%v", info, err)
	}
	if _, err := c.Session(ctx, a.SessionID); err == nil {
		t.Fatal("deleted session still answers")
	}
}

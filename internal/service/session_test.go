package service

import (
	"context"
	"strings"
	"testing"
)

// openTestSession uploads a path instance and opens a session over it.
func openTestSession(t *testing.T, cfg SessionConfig) (*Client, string, string) {
	t.Helper()
	_, c := newTestServer(t, Config{})
	ctx := context.Background()
	in := pathInstance(t, 10, 7)
	up, err := c.Upload(ctx, "sess", in)
	if err != nil {
		t.Fatal(err)
	}
	info, err := c.OpenSession(ctx, up.ID, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c, up.ID, info.SessionID
}

func TestSessionFlow(t *testing.T) {
	ctx := context.Background()
	c, _, sid := openTestSession(t, SessionConfig{Epoch: 10, Window: 2})

	// Stream one epoch: the object seeds at the first requester (the cold
	// writer at node 0), then the read traffic at node 7 makes the epoch
	// close move the copy — the estimated saving dwarfs the migration.
	resp, err := c.SessionEvents(ctx, sid, []SessionEvent{
		{Obj: "obj", Node: 0, Write: true},
		{Obj: "obj", Node: 7, Count: 9},
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Accepted != 10 {
		t.Fatalf("accepted %d events, want 10", resp.Accepted)
	}
	if len(resp.Epochs) != 1 || resp.Epochs[0].Resolved == 0 || resp.Epochs[0].Moved == 0 {
		t.Fatalf("epoch close missing or idle: %+v", resp.Epochs)
	}
	if resp.Stats.Events != 10 || resp.Stats.Epochs != 1 {
		t.Fatalf("session stats wrong: %+v", resp.Stats)
	}

	pl, err := c.SessionPlacement(ctx, sid)
	if err != nil {
		t.Fatal(err)
	}
	if len(pl.Placement.Copies["obj"]) == 0 {
		t.Fatalf("no placement after epoch close: %+v", pl)
	}
	if pl.Breakdown == nil || pl.Breakdown.Total <= 0 {
		t.Fatalf("placement breakdown missing: %+v", pl)
	}

	// A second identical epoch changes no estimate: no moves.
	resp2, err := c.SessionEvents(ctx, sid, []SessionEvent{
		{Obj: "obj", Node: 0, Write: true},
		{Obj: "obj", Node: 7, Count: 9},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp2.Epochs) != 1 || resp2.Epochs[0].Moved != 0 {
		t.Fatalf("stationary epoch still moved: %+v", resp2.Epochs)
	}

	// A partial epoch flushes on demand; an empty epoch flush is a no-op.
	if _, err := c.SessionEvents(ctx, sid, []SessionEvent{{Obj: "obj", Node: 7, Count: 3}}); err != nil {
		t.Fatal(err)
	}
	fl, err := c.SessionFlush(ctx, sid)
	if err != nil {
		t.Fatal(err)
	}
	if len(fl.Epochs) != 1 || fl.Epochs[0].Events != 3 {
		t.Fatalf("flush did not close the partial epoch: %+v", fl)
	}
	fl, err = c.SessionFlush(ctx, sid)
	if err != nil {
		t.Fatal(err)
	}
	if len(fl.Epochs) != 0 {
		t.Fatalf("empty flush closed an epoch: %+v", fl)
	}

	// Sessions appear in the list and in /statz.
	sessions, err := c.Sessions(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(sessions) != 1 || sessions[0].SessionID != sid {
		t.Fatalf("session list wrong: %+v", sessions)
	}
	st, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.SessionsOpen != 1 || st.SessionsOpened != 1 || st.SessionEvents != 23 || st.SessionEpochs != 3 {
		t.Fatalf("service session stats wrong: %+v", st)
	}

	// Close; the session is gone.
	if err := c.CloseSession(ctx, sid); err != nil {
		t.Fatal(err)
	}
	if _, err := c.SessionPlacement(ctx, sid); err == nil {
		t.Fatal("placement of a closed session succeeded")
	}
	st, err = c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.SessionsOpen != 0 {
		t.Fatalf("closed session still counted open: %+v", st)
	}
}

// TestSessionIDNamesInstance: a minted session id names its instance,
// and only ids with a non-empty instance prefix parse.
func TestSessionIDNamesInstance(t *testing.T) {
	_, id, sid := openTestSession(t, SessionConfig{})
	if sid != id+".s-000001" {
		t.Fatalf("session id %q, want %q", sid, id+".s-000001")
	}
	if got, ok := SessionInstanceID(sid); !ok || got != id {
		t.Fatalf("SessionInstanceID(%q) = %q, %v; want %q, true", sid, got, ok, id)
	}
	for _, bad := range []string{"", "s-000001", ".s-000001", id} {
		if got, ok := SessionInstanceID(bad); ok || got != "" {
			t.Fatalf("SessionInstanceID(%q) = %q, %v; want \"\", false", bad, got, ok)
		}
	}
}

func TestSessionValidation(t *testing.T) {
	ctx := context.Background()
	_, c := newTestServer(t, Config{MaxSessions: 1})
	in := pathInstance(t, 8, 3)
	up, err := c.Upload(ctx, "v", in)
	if err != nil {
		t.Fatal(err)
	}

	// Unknown instance.
	if _, err := c.OpenSession(ctx, "deadbeef", SessionConfig{}); err == nil {
		t.Fatal("session over unknown instance accepted")
	}
	// Non-approx algorithms cannot drive the incremental epoch re-solve.
	if _, err := c.OpenSession(ctx, up.ID, SessionConfig{Options: SolveOptions{Algo: "single"}}); err == nil ||
		!strings.Contains(err.Error(), "approx") {
		t.Fatalf("algo=single session accepted: %v", err)
	}
	info, err := c.OpenSession(ctx, up.ID, SessionConfig{Epoch: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Session cap.
	if _, err := c.OpenSession(ctx, up.ID, SessionConfig{}); err == nil ||
		!strings.Contains(err.Error(), "session limit") {
		t.Fatalf("session cap not enforced: %v", err)
	}
	// EWMA weight outside [0, 1].
	if _, err := c.OpenSession(ctx, up.ID, SessionConfig{Alpha: 4}); err == nil ||
		!strings.Contains(err.Error(), "alpha") {
		t.Fatalf("alpha=4 session accepted: %v", err)
	}
	// A single event whose count alone exceeds the batch cap (would
	// overflow a naive running total).
	if _, err := c.SessionEvents(ctx, info.SessionID, []SessionEvent{
		{Obj: "obj", Node: 0, Count: 1},
		{Obj: "obj", Node: 0, Count: int(^uint(0) >> 1)},
	}); err == nil || !strings.Contains(err.Error(), "cap") {
		t.Fatalf("overflowing count accepted: %v", err)
	}
	// Unknown object and out-of-range node in events.
	if _, err := c.SessionEvents(ctx, info.SessionID, []SessionEvent{{Obj: "nope", Node: 0}}); err == nil {
		t.Fatal("unknown object accepted")
	}
	if _, err := c.SessionEvents(ctx, info.SessionID, []SessionEvent{{Obj: "obj", Node: 99}}); err == nil {
		t.Fatal("out-of-range node accepted")
	}
	// Empty batch.
	if _, err := c.SessionEvents(ctx, info.SessionID, nil); err == nil {
		t.Fatal("empty events batch accepted")
	}
	// Events against a missing session 404.
	if _, err := c.SessionEvents(ctx, "s-ffffff", []SessionEvent{{Obj: "obj", Node: 0}}); err == nil ||
		!strings.Contains(err.Error(), "404") && !strings.Contains(err.Error(), "not found") {
		t.Fatalf("missing session error wrong: %v", err)
	}
}

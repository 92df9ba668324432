package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"sync/atomic"
	"testing"

	"netplace/internal/core"
	"netplace/internal/service"
)

// TestProxyAnyReplicaEntryPoint: with forwarding on (the default), a
// plain un-sharded service.Client can talk to ANY replica — uploads,
// instance reads, solves, and session calls for keys owned elsewhere
// are transparently forwarded to the owner, session calls routed by the
// instance id their session id names.
func TestProxyAnyReplicaEntryPoint(t *testing.T) {
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

	in := conformanceInstance(t)
	id := service.InstanceIDFor(in)
	ring := NewRingOf(0, h.URLs()...)
	owner := ring.Owner(id)
	var nonOwner string
	for _, u := range h.URLs() {
		if u != owner {
			nonOwner = u
		}
	}
	if nonOwner == "" {
		t.Fatalf("no non-owner replica for %s in %v", id, h.URLs())
	}
	// Drive everything through the replica that does NOT own the key.
	c := service.NewClient(nonOwner, nil)

	up, err := c.Upload(ctx, "via-proxy", in)
	if err != nil {
		t.Fatalf("upload via non-owner: %v\n%s", err, h.LogTail(0))
	}
	if up.ID != id {
		t.Fatalf("uploaded id %s, want %s", up.ID, id)
	}
	// Readable from both entry points: owner directly, non-owner via a
	// forwarded hop.
	for _, u := range h.URLs() {
		if _, err := service.NewClient(u, nil).Info(ctx, id); err != nil {
			t.Fatalf("info via %s: %v", u, err)
		}
	}
	if _, err := c.Solve(ctx, id, service.SolveOptions{}); err != nil {
		t.Fatalf("solve via non-owner: %v", err)
	}

	// Sessions live on the instance's owner; the proxy routes the open
	// by the body's instance_id, and later session calls from the
	// non-owner by the instance id the session id names.
	sess, err := c.OpenSession(ctx, id, service.SessionConfig{Epoch: 8})
	if err != nil {
		t.Fatalf("open session via non-owner: %v", err)
	}
	if _, err := c.SessionEventsSeq(ctx, sess.SessionID, 1, conformanceTrace(24, 8)); err != nil {
		t.Fatalf("session events via non-owner: %v", err)
	}
	pl, err := c.SessionPlacement(ctx, sess.SessionID)
	if err != nil {
		t.Fatalf("session placement via non-owner: %v", err)
	}
	if pl.Stats.Events != 8 {
		t.Fatalf("session saw %d events, want 8", pl.Stats.Events)
	}
	// The session is resident on the owner only; statz proves the
	// non-owner served it by forwarding, not by hosting a copy.
	ownStats, err := service.NewClient(owner, nil).Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if ownStats.SessionsOpen != 1 || ownStats.SessionEvents != 8 {
		t.Fatalf("owner sessions_open=%d session_events=%d, want 1/8",
			ownStats.SessionsOpen, ownStats.SessionEvents)
	}

	// A genuinely unknown session of the instance reads as the owner's
	// 404, forwarded.
	var ae *service.APIError
	if _, err := c.Session(ctx, id+".s-ffffff"); !errors.As(err, &ae) || ae.Status != http.StatusNotFound {
		t.Fatalf("unknown session id through the proxy: %v, want the owner's 404", err)
	}

	// Hop guard: a request arriving with the forwarded header is served
	// strictly locally — the non-owner answers 404 for an instance it
	// does not host instead of forwarding again.
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, nonOwner+"/instances/"+id, nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(service.HeaderForwarded, "test")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("hop-guarded request got %d, want 404 (served locally)", resp.StatusCode)
	}

	// The merged cluster view is reachable through any entry point and
	// agrees on membership.
	cs, err := c.ClusterStats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if cs.Totals.Replicas != 2 || len(cs.Errors) != 0 {
		t.Fatalf("cluster view replicas=%d errors=%v, want 2 and none", cs.Totals.Replicas, cs.Errors)
	}
}

// TestProxySessionBreakerFailFast: a session call for a dead owner's
// instance gets exactly the answers an instance call gets — 502 while
// the owner's breaker is closed, then a fast 503 naming the replica with
// a Retry-After once it opens — and an id without the instance prefix
// is answered by the local handler.
func TestProxySessionBreakerFailFast(t *testing.T) {
	var local atomic.Int32
	notFound := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		local.Add(1)
		http.NotFound(w, r)
	})
	// Port 1 is never listening: every forward fails at dial time.
	self, dead := "http://self.test", "http://127.0.0.1:1"
	ring := NewRingOf(0, self, dead)
	var key string
	for k := 0; key == ""; k++ {
		if cand := fmt.Sprintf("%016x", k); ring.Owner(cand) == dead {
			key = cand
		}
	}
	answers := func(path string) []string {
		p := NewProxy(self, []string{self, dead}, notFound, nil)
		var out []string
		for i := 0; i <= service.DefaultBreakerThreshold; i++ {
			rec := httptest.NewRecorder()
			p.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
			out = append(out, fmt.Sprintf("%d down=%q retry-after=%t", rec.Code,
				rec.Header().Get(service.HeaderReplicaDown), rec.Header().Get("Retry-After") != ""))
		}
		return out
	}

	inst := answers("/instances/" + key)
	var want []string
	for i := 0; i < service.DefaultBreakerThreshold; i++ {
		want = append(want, `502 down="" retry-after=false`)
	}
	want = append(want, fmt.Sprintf("503 down=%q retry-after=true", dead))
	if !slices.Equal(inst, want) {
		t.Fatalf("instance call answers %q, want %q", inst, want)
	}
	if sess := answers("/v1/sessions/" + key + ".s-000001/placement"); !slices.Equal(sess, inst) {
		t.Fatalf("session call answers %q, instance call %q", sess, inst)
	}
	if n := local.Load(); n != 0 {
		t.Fatalf("the local handler served %d calls for a remote owner's keys", n)
	}

	p := NewProxy(self, []string{self, dead}, notFound, nil)
	rec := httptest.NewRecorder()
	p.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/sessions/s-000001", nil))
	if rec.Code != http.StatusNotFound || local.Load() != 1 {
		t.Fatalf("unprefixed session id answered %d after %d local calls, want the local 404", rec.Code, local.Load())
	}
}

// TestProxySessionsStayWithTheirOwner: two in-process replicas wired
// like netplaced -cluster each open a session on an instance they own,
// so both mint the same session counter. Events for each session sent
// through either replica must land in that session on its owner and
// leave the other replica's session untouched.
func TestProxySessionsStayWithTheirOwner(t *testing.T) {
	ctx := context.Background()
	// Bind every listener first: each replica is built with the full
	// member list.
	ts := make([]*httptest.Server, 2)
	urls := make([]string, len(ts))
	for i := range ts {
		ts[i] = httptest.NewUnstartedServer(nil)
		urls[i] = "http://" + ts[i].Listener.Addr().String()
	}
	for i, self := range urls {
		srv := service.New(service.Config{Peers: urls, SelfURL: self, SuccessorURL: SuccessorOf(urls, self)})
		p := NewProxy(self, urls, srv.Handler(), nil)
		p.UseHealth(srv.PeerHealth())
		ts[i].Config.Handler = p
		ts[i].Start()
		t.Cleanup(srv.Close)
		t.Cleanup(ts[i].Close)
	}

	ring := NewRingOf(0, urls...)
	sids := make([]string, len(urls))
	for i, u := range urls {
		var in *core.Instance
		for k := 0; k < 64 && in == nil; k++ {
			if cand := partitionInstance(t, k); ring.Owner(service.InstanceIDFor(cand)) == u {
				in = cand
			}
		}
		if in == nil {
			t.Fatalf("no instance owned by %s among 64 candidates", u)
		}
		c := service.NewClient(u, nil)
		up, err := c.Upload(ctx, "owned", in)
		if err != nil {
			t.Fatal(err)
		}
		sess, err := c.OpenSession(ctx, up.ID, service.SessionConfig{Epoch: 1000})
		if err != nil {
			t.Fatal(err)
		}
		sids[i] = sess.SessionID
	}

	// Session i takes 3+2i events through each entry point.
	for i, sid := range sids {
		for _, entry := range urls {
			if _, err := service.NewClient(entry, nil).SessionEvents(ctx, sid, conformanceTrace(24, 3+2*i)); err != nil {
				t.Fatalf("events for %s via %s: %v", sid, entry, err)
			}
		}
	}
	for i, u := range urls {
		got, err := service.NewClient(u, nil).Sessions(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if want := 2 * (3 + 2*i); len(got) != 1 || got[0].SessionID != sids[i] || got[0].Stats.Events != want {
			t.Fatalf("replica %s holds %+v, want only %s with %d events", u, got, sids[i], want)
		}
	}
}

// TestRingOwnerSolvesEachInstanceOnce: two in-process replicas wired
// like netplaced -cluster. One instance uploaded through each replica
// and then solved through each is solved once for the whole cluster:
// every call reaches the instance's owner, whose result cache answers
// the second solve.
func TestRingOwnerSolvesEachInstanceOnce(t *testing.T) {
	ctx := context.Background()
	ts := make([]*httptest.Server, 2)
	urls := make([]string, len(ts))
	for i := range ts {
		ts[i] = httptest.NewUnstartedServer(nil)
		urls[i] = "http://" + ts[i].Listener.Addr().String()
	}
	for i, self := range urls {
		srv := service.New(service.Config{Peers: urls, SelfURL: self, SuccessorURL: SuccessorOf(urls, self)})
		p := NewProxy(self, urls, srv.Handler(), nil)
		p.UseHealth(srv.PeerHealth())
		ts[i].Config.Handler = p
		ts[i].Start()
		t.Cleanup(srv.Close)
		t.Cleanup(ts[i].Close)
	}

	in := conformanceInstance(t)
	var id string
	for _, u := range urls {
		up, err := service.NewClient(u, nil).Upload(ctx, "shared", in)
		if err != nil {
			t.Fatal(err)
		}
		id = up.ID
	}
	res := make([]service.SolveResult, len(urls))
	for i, u := range urls {
		var err error
		if res[i], err = service.NewClient(u, nil).Solve(ctx, id, service.SolveOptions{}); err != nil {
			t.Fatalf("solve via %s: %v", u, err)
		}
	}
	if res[0].Cached || !res[1].Cached || !reflect.DeepEqual(res[0].Placement, res[1].Placement) {
		t.Fatalf("solves: cached %v then %v, placements equal %v; want a run, then the same placement from the cache",
			res[0].Cached, res[1].Cached, reflect.DeepEqual(res[0].Placement, res[1].Placement))
	}
	cs, err := service.NewClient(urls[0], nil).ClusterStats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if tot := cs.Totals; len(cs.Errors) != 0 || tot.Replicas != 2 || tot.Instances != 1 || tot.SolvesTotal != 1 || tot.CacheHits != 1 {
		t.Fatalf("cluster totals %+v (errors %v); want 2 replicas, 1 instance, 1 solve, 1 cache hit", tot, cs.Errors)
	}
}

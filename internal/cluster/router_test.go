package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"netplace/internal/core"
	"netplace/internal/service"
)

// startReplicas boots n in-process replicas wired like netplaced
// -cluster: each server knows every peer and pushes its snapshots to its
// ring successor, and each listener serves its server through a Proxy
// sharing the server's breakers. Probers are off, so breakers move only
// with the traffic a test sends. The URLs come back sorted, so urls[i+1]
// is urls[i]'s successor.
func startReplicas(t *testing.T, n int) ([]string, []*service.Server, []*httptest.Server) {
	t.Helper()
	// Bind every listener first: each replica is built with the full
	// member list.
	ts := make([]*httptest.Server, n)
	for i := range ts {
		ts[i] = httptest.NewUnstartedServer(nil)
	}
	slices.SortFunc(ts, func(a, b *httptest.Server) int {
		return strings.Compare(a.Listener.Addr().String(), b.Listener.Addr().String())
	})
	urls := make([]string, n)
	for i := range ts {
		urls[i] = "http://" + ts[i].Listener.Addr().String()
	}
	srvs := make([]*service.Server, n)
	for i, self := range urls {
		srvs[i] = service.New(service.Config{Peers: urls, SelfURL: self,
			SuccessorURL: SuccessorOf(urls, self), ProbeInterval: -1})
		p := NewProxy(self, urls, srvs[i].Handler(), nil)
		p.UseHealth(srvs[i].PeerHealth())
		ts[i].Config.Handler = p
		ts[i].Start()
		t.Cleanup(srvs[i].Close)
		t.Cleanup(ts[i].Close)
	}
	return urls, srvs, ts
}

// ownedBy returns count content-distinct instances that ring members
// gives to owner, skipping the ids in skip.
func ownedBy(t *testing.T, members []string, owner string, count int, skip map[string]bool) []*core.Instance {
	t.Helper()
	ring := NewRingOf(0, members...)
	var out []*core.Instance
	for k := 0; k < 128 && len(out) < count; k++ {
		in := partitionInstance(t, k)
		if id := service.InstanceIDFor(in); ring.Owner(id) == owner && !skip[id] {
			out = append(out, in)
		}
	}
	if len(out) < count {
		t.Fatalf("only %d of %d instances owned by %s among 128 candidates", len(out), count, owner)
	}
	return out
}

// openBreaker resets b and fails it up to the threshold, so it is
// freshly open with a full backoff before its next reopen probe.
func openBreaker(b *service.Breaker) {
	b.Success()
	for i := 0; i < service.DefaultBreakerThreshold; i++ {
		b.Failure()
	}
}

// replicaDown reads the typed replica-down answer out of a call's
// error: the down replica and the Retry-After hint, from the proxy's 503
// (*service.APIError) or the client router's *service.ReplicaDownError.
func replicaDown(err error) (replica string, status int, retryAfter time.Duration) {
	var ae *service.APIError
	if errors.As(err, &ae) {
		return ae.ReplicaDown, ae.Status, ae.RetryAfter
	}
	var rde *service.ReplicaDownError
	if errors.As(err, &rde) {
		return rde.Replica, http.StatusServiceUnavailable, rde.RetryAfter
	}
	return "", 0, 0
}

// TestRouterFailoverRule checks the Router's one failover rule through
// both entry points — the proxy, entered at the owner's successor and
// at a third replica, and the sharded client. With the owner up the
// owner serves the call. With the owner's breaker open a stale-tolerant
// read is answered by the successor's snapshot, marked stale and
// naming the owner in X-Netplace-Replica-Down, while a write gets the
// typed replica-down answer with a Retry-After. With the owner
// unreachable a stale-tolerant read is answered by the successor too.
func TestRouterFailoverRule(t *testing.T) {
	ctx := context.Background()
	urls, srvs, ts := startReplicas(t, 3)
	owner := urls[0] // its successor is urls[1]
	in := ownedBy(t, urls, owner, 1, nil)[0]
	id := service.InstanceIDFor(in)
	if _, err := service.NewClient(owner, nil).Upload(ctx, "routed", in); err != nil {
		t.Fatal(err)
	}
	sc, err := NewShardedClient(urls, nil)
	if err != nil {
		t.Fatal(err)
	}
	fronts := []struct {
		name   string
		c      *service.Client
		raw    *http.Client
		base   string
		health *service.PeerHealth
	}{
		{"proxy-at-successor", service.NewClient(urls[1], nil), http.DefaultClient, urls[1], srvs[1].PeerHealth()},
		{"proxy-at-third", service.NewClient(urls[2], nil), http.DefaultClient, urls[2], srvs[2].PeerHealth()},
		{"sharded-client", sc.Client, &http.Client{Transport: sc.Router()}, clusterBase, sc.Router().Health()},
	}
	served := func() int64 {
		st := srvs[0].Stats()
		return st.SolvesTotal + st.CacheHits
	}
	// staleSolve sends a stale-tolerant solve as raw HTTP, so the
	// response header is visible, and returns the decoded result.
	staleSolve := func(t *testing.T, raw *http.Client, base string) service.SolveResult {
		t.Helper()
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/instances/"+id+"/solve", strings.NewReader("{}"))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set(service.HeaderAllowStale, "1")
		resp, err := raw.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK || resp.Header.Get(service.HeaderReplicaDown) != owner {
			t.Fatalf("stale read answered %d with %s=%q, want 200 naming %s",
				resp.StatusCode, service.HeaderReplicaDown, resp.Header.Get(service.HeaderReplicaDown), owner)
		}
		var res service.SolveResult
		if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
			t.Fatal(err)
		}
		return res
	}

	for _, f := range fronts {
		t.Run("owner-up/"+f.name, func(t *testing.T) {
			before := served()
			res, err := f.c.Solve(ctx, id, service.SolveOptions{})
			if err != nil || res.Stale {
				t.Fatalf("solve: stale=%v err=%v, want a fresh answer", res.Stale, err)
			}
			if got := served() - before; got != 1 {
				t.Fatalf("the owner served %d calls, want 1", got)
			}
		})
		t.Run("breaker-open/"+f.name, func(t *testing.T) {
			b := f.health.For(owner)
			defer b.Success()
			before := served()
			openBreaker(b)
			if res := staleSolve(t, f.raw, f.base); !res.Stale {
				t.Fatal("failover read not marked stale")
			}
			openBreaker(b)
			if res, err := f.c.SolveStale(ctx, id, service.SolveOptions{}); err != nil || !res.Stale {
				t.Fatalf("typed stale read: stale=%v err=%v", res.Stale, err)
			}
			if got := served() - before; got != 0 {
				t.Fatalf("the owner served %d calls behind an open breaker", got)
			}
			openBreaker(b)
			_, err := f.c.Upload(ctx, "routed", in)
			replica, status, after := replicaDown(err)
			if !errors.Is(err, service.ErrReplicaDown) || replica != owner || status != http.StatusServiceUnavailable || after <= 0 {
				t.Fatalf("write answered %v (replica %q, status %d, retry after %v), want the typed 503 naming %s",
					err, replica, status, after, owner)
			}
		})
	}
	ts[0].Close()
	for _, f := range fronts {
		t.Run("owner-unreachable/"+f.name, func(t *testing.T) {
			b := f.health.For(owner)
			b.Success() // closed: the send is tried and fails
			if res := staleSolve(t, f.raw, f.base); !res.Stale {
				t.Fatal("failover read not marked stale")
			}
			b.Success()
			if res, err := f.c.SolveStale(ctx, id, service.SolveOptions{}); err != nil || !res.Stale {
				t.Fatalf("typed stale read: stale=%v err=%v", res.Stale, err)
			}
		})
	}
}

// TestRouterSuccessorFollowsDrain: after a drain removes a replica's
// snapshot successor, the replica pushes to the successor every ring
// now fails its keys over to. Replica a's successor is b until b is
// drained, then c. Instances a owns are uploaded before the drain,
// while it runs and after it; with a stopped, stale-tolerant reads of
// all of them through c are answered from c's snapshots.
func TestRouterSuccessorFollowsDrain(t *testing.T) {
	ctx := context.Background()
	urls, _, ts := startReplicas(t, 3)
	a, b, c := urls[0], urls[1], urls[2]
	ins := ownedBy(t, urls, a, 6, nil) // a keeps them when b leaves
	seen := map[string]bool{}
	for _, in := range ins {
		seen[service.InstanceIDFor(in)] = true
	}
	ins = append(ins, ownedBy(t, []string{a, c}, a, 2, seen)...)
	upload := func(entry string, in *core.Instance) error {
		_, err := service.NewClient(entry, nil).Upload(ctx, "drained-successor", in)
		return err
	}
	for _, in := range ins[:2] {
		if err := upload(a, in); err != nil {
			t.Fatal(err)
		}
	}
	// Uploads racing the drain land on whichever successor they read;
	// the move must re-push whatever went to b.
	errs := make(chan error, 4)
	for _, in := range ins[2:6] {
		go func() { errs <- upload(a, in) }()
	}
	for _, u := range []string{a, c} {
		if _, err := service.NewClient(u, nil).ClusterDrain(ctx, b); err != nil {
			t.Fatal(err)
		}
	}
	for range ins[2:6] {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	for _, in := range ins[6:] {
		if err := upload(c, in); err != nil {
			t.Fatal(err)
		}
	}

	ts[0].Close()
	for _, in := range ins {
		id := service.InstanceIDFor(in)
		res, err := service.NewClient(c, nil).SolveStale(ctx, id, service.SolveOptions{})
		if err != nil || !res.Stale {
			t.Fatalf("stale read of %s through %s: stale=%v err=%v, want a stale 200", id, c, res.Stale, err)
		}
	}
}

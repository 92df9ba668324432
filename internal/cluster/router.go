package cluster

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"sync"

	"netplace/internal/service"
)

// Router is one process's view of a netplaced cluster, shared by both
// entry points: the replica-side Proxy and the client-side
// ShardedClient. It holds the consistent-hash ring (under its lock,
// since drains shrink it while requests route on it), the per-replica
// circuit breakers, the table that maps a request to its routing key
// (routingKey), and the cluster's one failover rule:
//
//   - A stale-tolerant read (service.HeaderAllowStale on an instance
//     info, solve or cost) whose owner's breaker is open, or whose send
//     to the owner fails, goes to the owner's ring successor under the
//     hop guard. The successor answers from its read-only snapshot, and
//     the answer carries service.HeaderReplicaDown naming the owner.
//   - Any other request for an owner whose breaker is open gets the
//     typed replica-down answer, a *service.ReplicaDownError (503 with
//     Retry-After through the proxy). Any other failed send keeps its
//     transport error (502 through the proxy).
//
// Every send feeds the target's breaker: a transport fault counts
// against it unless the request's own context ended, and any HTTP
// response counts for it.
//
// A Router is an http.RoundTripper. An http.Client using it as its
// transport sends each request to its key's owner, whatever host the
// URL names; that is how ShardedClient turns a service.Client into a
// cluster client.
type Router struct {
	// self is this replica's base URL, "" for a router that is no
	// replica (a client's).
	self string
	// client sends every hop; its Timeout bounds each one.
	client *http.Client
	health *service.PeerHealth

	mu   sync.RWMutex
	ring *Ring
}

// newRouter builds a router over the replicas' base URLs. self is this
// replica's own URL (added to the ring if absent), or "" for a client.
// httpClient sends each hop; nil means http.DefaultClient. The router
// starts with its own passive breakers; a replica shares its server's
// instead (Proxy.UseHealth).
func newRouter(self string, replicas []string, httpClient *http.Client) *Router {
	if httpClient == nil {
		httpClient = http.DefaultClient
	}
	rt := &Router{
		self:   strings.TrimRight(self, "/"),
		client: httpClient,
		health: service.NewPeerHealth(service.BreakerConfig{}),
		ring:   NewRing(0),
	}
	for _, rep := range replicas {
		rt.ring.Add(strings.TrimRight(rep, "/"))
	}
	if rt.self != "" {
		rt.ring.Add(rt.self)
	}
	return rt
}

// Health returns the per-replica breakers the router routes by.
func (rt *Router) Health() *service.PeerHealth { return rt.health }

// Owner returns the replica owning key.
func (rt *Router) Owner(key string) string {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	return rt.ring.Owner(key)
}

// members returns the replicas in sorted order.
func (rt *Router) members() []string {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	return rt.ring.Members()
}

// remove drops a drained replica from the ring and forgets its breaker,
// so no later request routes to it.
func (rt *Router) remove(url string) {
	url = strings.TrimRight(url, "/")
	rt.mu.Lock()
	rt.ring.Remove(url)
	rt.mu.Unlock()
	rt.health.Remove(url)
}

// routingKey maps a request to the key its owner is found by. This is
// the cluster's one routing table:
//
//	/instances/{id}...    the instance id in the path
//	POST /instances       the uploaded instance's content id
//	POST /v1/sessions     the body's instance_id
//	/v1/sessions/{id}...  the instance id the session id names
//
// Anything else has no key (ok false): list endpoints, probes, /statz,
// and a body or session id that names no instance. body is called only
// for the two POST forms, whose key is in the request body.
func routingKey(r *http.Request, body func() ([]byte, error)) (key string, ok bool, err error) {
	seg := strings.Split(strings.Trim(r.URL.Path, "/"), "/")
	switch {
	case seg[0] == "instances" && len(seg) >= 2:
		return seg[1], true, nil
	case seg[0] == "v1" && len(seg) >= 3 && seg[1] == "sessions":
		id, ok := service.SessionInstanceID(seg[2])
		return id, ok, nil
	case r.Method != http.MethodPost:
		return "", false, nil
	case len(seg) == 1 && seg[0] == "instances":
		buf, err := body()
		if err != nil {
			return "", false, err
		}
		id, err := uploadInstanceID(buf)
		return id, err == nil, nil
	case len(seg) == 2 && seg[0] == "v1" && seg[1] == "sessions":
		buf, err := body()
		if err != nil {
			return "", false, err
		}
		var req service.SessionRequest
		if json.Unmarshal(buf, &req) != nil || req.InstanceID == "" {
			return "", false, nil
		}
		return req.InstanceID, true, nil
	}
	return "", false, nil
}

// uploadInstanceID decodes an upload body just far enough to compute the
// content-derived registry id the instance will get.
func uploadInstanceID(body []byte) (string, error) {
	var req service.UploadRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return "", err
	}
	in, err := req.Instance.Instance()
	if err != nil {
		return "", err
	}
	return service.InstanceIDFor(in), nil
}

// staleEligible reports whether a request may be served from a replica
// snapshot: the client opted in with service.HeaderAllowStale and the
// request is a side-effect-free instance read (info, solve, or cost).
func staleEligible(r *http.Request) bool {
	if r.Header.Get(service.HeaderAllowStale) == "" {
		return false
	}
	seg := strings.Split(strings.Trim(r.URL.Path, "/"), "/")
	if seg[0] != "instances" || len(seg) < 2 {
		return false
	}
	switch {
	case r.Method == http.MethodGet && len(seg) == 2:
		return true
	case r.Method == http.MethodPost && len(seg) == 3 && (seg[2] == "solve" || seg[2] == "cost"):
		return true
	}
	return false
}

// RoundTrip sends a client request to the owner of its routing key
// under the failover rule; a request without a key goes to the owner of
// the empty key. The request's host is ignored and its body is read in
// full, so it can be re-sent to a failover target.
func (rt *Router) RoundTrip(req *http.Request) (*http.Response, error) {
	var body []byte
	if req.Body != nil {
		buf, err := io.ReadAll(req.Body)
		req.Body.Close()
		if err != nil {
			return nil, err
		}
		body = buf
	}
	key, _, _ := routingKey(req, func() ([]byte, error) { return body, nil })
	return rt.forward(req, rt.Owner(key), body, nil)
}

// forward sends r, whose body is body, to owner under the failover
// rule. local serves r in this process when the failover target is this
// replica; down names the owner being failed over. forward returns the
// answer, or nil after local served it; its error is the typed
// replica-down error for an open breaker, else the failed send's.
func (rt *Router) forward(r *http.Request, owner string, body []byte, local func(down string)) (*http.Response, error) {
	b := rt.health.For(owner)
	if !b.Allow() {
		return rt.failover(r, owner, body, local, &service.ReplicaDownError{Replica: owner, RetryAfter: b.RetryAfter()})
	}
	// A proxy's forward is a hop: the owner must serve it, not route it
	// again. A client's is not, so a replica whose ring disagrees with
	// the client's still passes it on to the right owner.
	resp, err := rt.send(r, owner, body, rt.self != "")
	if err != nil {
		return rt.failover(r, owner, body, local, err)
	}
	return resp, nil
}

// failover applies the second half of the rule: a stale-tolerant read
// goes to the owner's ring successor under the hop guard. Anything
// else, or a failed send to the successor, answers with fault.
func (rt *Router) failover(r *http.Request, owner string, body []byte, local func(down string), fault error) (*http.Response, error) {
	if !staleEligible(r) || r.Context().Err() != nil {
		return nil, fault
	}
	rt.mu.RLock()
	succ := rt.ring.Successor(owner)
	rt.mu.RUnlock()
	if succ == "" {
		return nil, fault
	}
	if succ == rt.self {
		local(owner)
		return nil, nil
	}
	resp, err := rt.send(r, succ, body, true)
	if err != nil {
		return nil, fault
	}
	resp.Header.Set(service.HeaderReplicaDown, owner)
	return resp, nil
}

// send re-issues r against peer, with the hop guard when hop is set,
// and feeds the outcome to peer's breaker.
func (rt *Router) send(r *http.Request, peer string, body []byte, hop bool) (*http.Response, error) {
	var rd io.Reader
	if len(body) > 0 {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(r.Context(), r.Method, peer+r.URL.RequestURI(), rd)
	if err != nil {
		return nil, err
	}
	req.Header = r.Header.Clone()
	if hop {
		mark := rt.self
		if mark == "" {
			mark = "sharded-client"
		}
		req.Header.Set(service.HeaderForwarded, mark)
	}
	resp, err := rt.client.Do(req)
	switch b := rt.health.For(peer); {
	case err == nil:
		b.Success()
	case r.Context().Err() == nil:
		b.Failure()
	}
	return resp, err
}

package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"netplace/internal/service"
)

// uploadInstanceID decodes an upload body just far enough to compute the
// content-derived registry id the instance will get — the proxy's
// routing key for POST /instances.
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

// Proxy makes every replica a valid entry point to the cluster: an
// http.Handler that serves requests for keys this replica owns from the
// wrapped local handler and transparently forwards the rest to the
// ring's owner, so un-sharded clients (curl, a plain service.Client) can
// talk to any replica. Forwarded requests carry the
// service.HeaderForwarded hop guard; a request arriving with it is
// always served locally, so a membership disagreement between replicas
// costs one extra hop, never a loop.
//
// Routing: instance-keyed paths (/instances/{id}...) route by the id in
// the path; POST /instances decodes the body and routes by the
// instance's content-derived id; POST /v1/sessions routes by the body's
// instance_id, placing each session on its instance's owner. Session
// paths (/v1/sessions/{id}...) route by the instance id the session id
// names (service.SessionInstanceID), so they take the same owner,
// breaker, and hop guard as their instance; an id without the instance
// prefix is served locally. Everything else (list endpoints, probes,
// /statz) is local.
type Proxy struct {
	// mu guards ring membership: drains remove peers from the ring
	// while requests are routing on it.
	mu     sync.RWMutex
	ring   *Ring
	self   string
	inner  http.Handler
	client *http.Client
	// health tracks per-peer circuit breakers: forwards that fail feed
	// them, and an open breaker makes routing fail fast (or fail over
	// to the owner's replica successor for stale-tolerant reads)
	// instead of waiting out a timeout per request.
	health *service.PeerHealth
	// maxBody bounds how much of a request body the proxy buffers to
	// route or re-send it.
	maxBody int64
}

// NewProxy wraps a local replica's handler in cluster routing. self is
// this replica's own base URL as it appears in peers (it is added to the
// ring if absent); peers lists every replica. httpClient may be nil for
// http.DefaultClient.
func NewProxy(self string, peers []string, inner http.Handler, httpClient *http.Client) *Proxy {
	if httpClient == nil {
		httpClient = http.DefaultClient
	}
	ring := NewRingOf(0, peers...)
	ring.Add(self)
	return &Proxy{
		ring:    ring,
		self:    strings.TrimRight(self, "/"),
		inner:   inner,
		client:  httpClient,
		health:  service.NewPeerHealth(service.BreakerConfig{}),
		maxBody: service.DefaultMaxUploadBytes,
	}
}

// UseHealth shares a peer-health tracker with the proxy, so breakers
// opened by the server's prober (or by other traffic) short-circuit
// proxy forwards too. Call before serving traffic.
func (p *Proxy) UseHealth(h *service.PeerHealth) {
	if h != nil {
		p.health = h
	}
}

// removeMember drops a drained replica from the ring and forgets its
// breaker, so no future request routes to it.
func (p *Proxy) removeMember(url string) {
	url = strings.TrimRight(url, "/")
	p.mu.Lock()
	p.ring.Remove(url)
	p.mu.Unlock()
	p.health.Remove(url)
}

// ServeHTTP implements http.Handler.
func (p *Proxy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Header.Get(service.HeaderForwarded) != "" {
		p.inner.ServeHTTP(w, r) // hop guard: never forward twice
		return
	}
	seg := strings.Split(strings.Trim(r.URL.Path, "/"), "/")
	switch {
	case seg[0] == "instances" && len(seg) >= 2:
		p.routeByKey(w, r, seg[1], nil)
	case seg[0] == "instances" && r.Method == http.MethodPost:
		body, err := p.buffer(r)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		id, err := uploadInstanceID(body)
		if err != nil {
			// Not routable: let the local handler produce its usual error.
			r.Body = io.NopCloser(bytes.NewReader(body))
			p.inner.ServeHTTP(w, r)
			return
		}
		p.routeByKey(w, r, id, body)
	case seg[0] == "v1" && len(seg) >= 2 && seg[1] == "sessions" && len(seg) == 2 && r.Method == http.MethodPost:
		body, err := p.buffer(r)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		var req service.SessionRequest
		if json.Unmarshal(body, &req) != nil || req.InstanceID == "" {
			r.Body = io.NopCloser(bytes.NewReader(body))
			p.inner.ServeHTTP(w, r)
			return
		}
		p.routeByKey(w, r, req.InstanceID, body)
	case seg[0] == "v1" && len(seg) >= 3 && seg[1] == "sessions":
		if id, ok := service.SessionInstanceID(seg[2]); ok {
			p.routeByKey(w, r, id, nil)
			return
		}
		p.inner.ServeHTTP(w, r)
	case r.Method == http.MethodPost && len(seg) == 3 && seg[0] == "v1" && seg[1] == "cluster" && seg[2] == "drain":
		p.handleDrain(w, r)
	default:
		p.inner.ServeHTTP(w, r)
	}
}

// routeByKey serves locally when the ring maps key here, else forwards
// to the owner. body, when non-nil, replaces the (already consumed)
// request body.
//
// The owner's circuit breaker gates the forward: an open breaker fails
// fast with 503 and service.HeaderReplicaDown instead of burning a
// timeout, and stale-tolerant reads (service.HeaderAllowStale on an
// instance GET, solve, or cost) fail over to the owner's ring
// successor, which holds a read-only replica of the owner's instances.
func (p *Proxy) routeByKey(w http.ResponseWriter, r *http.Request, key string, body []byte) {
	p.mu.RLock()
	owner := p.ring.Owner(key)
	p.mu.RUnlock()
	if owner == p.self || owner == "" {
		if body != nil {
			r.Body = io.NopCloser(bytes.NewReader(body))
		}
		p.inner.ServeHTTP(w, r)
		return
	}
	if body == nil {
		buf, err := p.buffer(r)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		body = buf
	}
	b := p.health.For(owner)
	if !b.Allow() {
		if p.failover(w, r, owner, body) {
			return
		}
		writeReplicaDown(w, owner, b.RetryAfter())
		return
	}
	resp, err := p.forward(r, owner, body)
	if err != nil {
		if r.Context().Err() == nil {
			b.Failure()
		}
		if p.failover(w, r, owner, body) {
			return
		}
		http.Error(w, fmt.Sprintf("cluster: forwarding to %s: %v", owner, err), http.StatusBadGateway)
		return
	}
	b.Success()
	defer resp.Body.Close()
	copyResponse(w, resp)
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

// failover reroutes a stale-eligible read for a down owner to the
// owner's ring successor, which serves it from its replica store. It
// reports whether it produced a response; the caller falls back to an
// error answer when it did not.
func (p *Proxy) failover(w http.ResponseWriter, r *http.Request, owner string, body []byte) bool {
	if !staleEligible(r) {
		return false
	}
	p.mu.RLock()
	succ := p.ring.Successor(owner)
	p.mu.RUnlock()
	if succ == "" || succ == owner {
		return false
	}
	w.Header().Set(service.HeaderReplicaDown, owner)
	if succ == p.self {
		if body != nil {
			r.Body = io.NopCloser(bytes.NewReader(body))
		}
		p.inner.ServeHTTP(w, r)
		return true
	}
	resp, err := p.forward(r, succ, body)
	if err != nil {
		w.Header().Del(service.HeaderReplicaDown)
		return false
	}
	defer resp.Body.Close()
	copyResponse(w, resp)
	return true
}

// writeReplicaDown renders the fail-fast answer for an owner whose
// breaker is open: 503 with the down replica named in
// service.HeaderReplicaDown and a Retry-After matching the breaker's
// reopen-probe schedule.
func writeReplicaDown(w http.ResponseWriter, replica string, retryAfter time.Duration) {
	secs := int(retryAfter / time.Second)
	if secs < 1 {
		secs = 1
	}
	w.Header().Set(service.HeaderReplicaDown, replica)
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusServiceUnavailable)
	json.NewEncoder(w).Encode(map[string]string{ //nolint:errcheck // headers are out; nothing left to do
		"error": fmt.Sprintf("cluster: replica %s is down", replica),
	})
}

// handleDrain intercepts POST /v1/cluster/drain so a drain that names
// a peer also removes it from this proxy's ring before the local
// service updates its own peer set — routing and membership change
// together.
func (p *Proxy) handleDrain(w http.ResponseWriter, r *http.Request) {
	body, err := p.buffer(r)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	var req service.ClusterDrainRequest
	if json.Unmarshal(body, &req) == nil && req.Peer != "" && strings.TrimRight(req.Peer, "/") != p.self {
		p.removeMember(req.Peer)
	}
	r.Body = io.NopCloser(bytes.NewReader(body))
	p.inner.ServeHTTP(w, r)
}

// forward re-issues the request against a peer with the hop guard set.
func (p *Proxy) forward(r *http.Request, peer string, body []byte) (*http.Response, error) {
	var rd io.Reader
	if len(body) > 0 {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(r.Context(), r.Method, peer+r.URL.RequestURI(), rd)
	if err != nil {
		return nil, err
	}
	req.Header = r.Header.Clone()
	req.Header.Set(service.HeaderForwarded, p.self)
	return p.client.Do(req)
}

// buffer reads the request body fully (bounded by maxBody) so it can be
// routed on and re-sent.
func (p *Proxy) buffer(r *http.Request) ([]byte, error) {
	if r.Body == nil {
		return nil, nil
	}
	defer r.Body.Close()
	body, err := io.ReadAll(io.LimitReader(r.Body, p.maxBody+1))
	if err != nil {
		return nil, fmt.Errorf("cluster: reading request body: %w", err)
	}
	if int64(len(body)) > p.maxBody {
		return nil, fmt.Errorf("cluster: request body exceeds the %d-byte proxy buffer", p.maxBody)
	}
	return body, nil
}

// copyResponse relays a forwarded response verbatim.
func copyResponse(w http.ResponseWriter, resp *http.Response) {
	for k, vs := range resp.Header {
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, resp.Body) //nolint:errcheck // headers are out; nothing left to do
}

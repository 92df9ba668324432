package cluster

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"

	"netplace/internal/service"
)

// Proxy makes every replica a valid entry point to the cluster: an
// http.Handler that serves requests for keys this replica owns from the
// wrapped local handler and forwards the rest to the owner, so
// un-sharded clients (curl, a plain service.Client) can talk to any
// replica. Which key a request routes by, who owns it, the breaker
// verdict and the failover target are the Router's; the proxy adds
// local serving, forwarding and the interception of drains. A request
// without a routing key (list endpoints, probes, /statz, a session id
// without the instance prefix) is served locally.
//
// Forwarded requests carry the service.HeaderForwarded hop guard; a
// request arriving with it is always served locally, so a membership
// disagreement between replicas costs one extra hop, never a loop. The
// proxy buffers a request body only to route an upload or a session
// open by it, or to forward it.
type Proxy struct {
	router *Router
	inner  http.Handler
	// maxBody bounds how much of a request body the proxy buffers to
	// route or re-send it.
	maxBody int64
}

// NewProxy wraps a local replica's handler in cluster routing. self is this
// replica's own base URL as it appears in peers (it is added to the
// ring if absent); peers lists every replica. httpClient may be nil for
// http.DefaultClient.
func NewProxy(self string, peers []string, inner http.Handler, httpClient *http.Client) *Proxy {
	return &Proxy{
		router:  newRouter(self, peers, httpClient),
		inner:   inner,
		maxBody: service.DefaultMaxUploadBytes,
	}
}

// UseHealth shares a peer-health tracker with the proxy's router, so
// breakers opened by the server's prober (or by other traffic)
// short-circuit proxy forwards too. Call before serving traffic.
func (p *Proxy) UseHealth(h *service.PeerHealth) {
	if h != nil {
		p.router.health = h
	}
}

// ServeHTTP implements http.Handler.
func (p *Proxy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Header.Get(service.HeaderForwarded) != "" {
		p.inner.ServeHTTP(w, r) // hop guard: never forward twice
		return
	}
	if r.Method == http.MethodPost && strings.Trim(r.URL.Path, "/") == "v1/cluster/drain" {
		p.handleDrain(w, r)
		return
	}
	var body []byte
	buffered := false
	buffer := func() ([]byte, error) {
		if !buffered {
			buf, err := p.buffer(r)
			if err != nil {
				return nil, err
			}
			body, buffered = buf, true
		}
		return body, nil
	}
	local := func(down string) {
		if down != "" {
			w.Header().Set(service.HeaderReplicaDown, down)
		}
		if buffered {
			r.Body = io.NopCloser(bytes.NewReader(body))
		}
		p.inner.ServeHTTP(w, r)
	}
	key, ok, err := routingKey(r, buffer)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	owner := p.router.self
	if ok {
		owner = p.router.Owner(key)
	}
	if owner == p.router.self {
		local("")
		return
	}
	if _, err := buffer(); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	resp, err := p.router.forward(r, owner, body, local)
	switch {
	case errors.Is(err, service.ErrReplicaDown):
		service.WriteError(w, err)
	case err != nil:
		http.Error(w, fmt.Sprintf("cluster: forwarding to %s: %v", owner, err), http.StatusBadGateway)
	case resp != nil:
		defer resp.Body.Close()
		copyResponse(w, resp)
	}
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
	if json.Unmarshal(body, &req) == nil && req.Peer != "" && strings.TrimRight(req.Peer, "/") != p.router.self {
		p.router.remove(req.Peer)
	}
	r.Body = io.NopCloser(bytes.NewReader(body))
	p.inner.ServeHTTP(w, r)
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

package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"netplace/internal/core"
	"netplace/internal/encode"
)

// APIError is a typed non-2xx response from the service: the HTTP
// status, the server's error message, and any Retry-After hint. Match
// with errors.As; Retryable reports whether the request may safely be
// retried regardless of idempotency (the failure provably happened
// before the server applied anything).
type APIError struct {
	// Status is the HTTP status code.
	Status int
	// Method and Path identify the failed call.
	Method, Path string
	// Message is the server's error text (or a snippet of a non-envelope
	// body, e.g. a proxy page).
	Message string
	// RetryAfter is the server's Retry-After hint, 0 when absent.
	RetryAfter time.Duration
	// Shed reports the X-Netplace-Shed marker: the server itself
	// rejected the request before applying anything. A 502/504 without
	// it may have been minted by an intermediary after the backend did
	// the work.
	Shed bool
	// ReplicaDown carries the X-Netplace-Replica-Down marker: the named
	// replica's circuit breaker is open and the request was refused
	// before anything was sent to it. errors.Is(err, ErrReplicaDown)
	// matches when set.
	ReplicaDown string
}

// Is makes errors.Is(err, ErrReplicaDown) match a response carrying the
// X-Netplace-Replica-Down marker, so callers handle the server-minted
// and client-breaker forms of the condition uniformly.
func (e *APIError) Is(target error) bool {
	return target == ErrReplicaDown && e.ReplicaDown != ""
}

// Error renders the call, server message, and status.
func (e *APIError) Error() string {
	if e.Message != "" {
		return fmt.Sprintf("service: %s %s: %s (HTTP %d)", e.Method, e.Path, e.Message, e.Status)
	}
	return fmt.Sprintf("service: %s %s: HTTP %d", e.Method, e.Path, e.Status)
}

// Retryable reports responses that provably precede any state change,
// so a retry cannot double-apply even on non-idempotent calls: 429
// (admission shed), 503 (drain/not-ready — also what a proxy sends when
// it never reached the backend), and a 504 carrying the server's
// X-Netplace-Shed marker (deadline rejected on arrival). A bare 502 or
// 504 can be minted by a reverse proxy AFTER the backend applied the
// request, so those are transport-class faults: doRetry retries them
// only on idempotent calls.
func (e *APIError) Retryable() bool {
	switch e.Status {
	case http.StatusTooManyRequests, http.StatusServiceUnavailable:
		return true
	case http.StatusGatewayTimeout:
		return e.Shed
	}
	return false
}

// RetryPolicy configures the client's retries: capped exponential
// backoff with proportional jitter, honoring the server's Retry-After.
// The zero value disables retries (every call is a single attempt, the
// historical behavior). Typed-retryable server errors (APIError.Retryable)
// retry on every call; transport errors (connection reset, truncated
// response) and bare gateway statuses (502/504 without the server's
// X-Netplace-Shed marker, which a proxy may emit after the backend
// applied the request) retry only on calls the client knows are
// idempotent — notably NOT OpenSession or the deletes, and session
// event batches only when sequenced (SessionEventsSeq). See
// docs/resilience.md.
type RetryPolicy struct {
	// MaxAttempts is the total attempt budget including the first;
	// values below 2 disable retries.
	MaxAttempts int
	// BaseDelay is the first backoff (default 50ms), doubling per
	// attempt up to MaxDelay (default 2s).
	BaseDelay time.Duration
	MaxDelay  time.Duration
	// Jitter spreads each delay by ±Jitter·delay (e.g. 0.2 for ±20%).
	Jitter float64
	// Seed makes the jitter deterministic for tests; 0 uses the global
	// random source.
	Seed int64
	// Sleep replaces the real inter-attempt wait, for tests; nil sleeps
	// on a timer, aborting on context cancellation.
	Sleep func(ctx context.Context, d time.Duration) error
}

// DefaultRetryPolicy is a production-reasonable policy: 4 attempts,
// 50ms base delay doubling to a 2s cap, ±20% jitter.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{MaxAttempts: 4, BaseDelay: 50 * time.Millisecond, MaxDelay: 2 * time.Second, Jitter: 0.2}
}

// Client is a typed HTTP client for a netplaced server. The zero value is
// not usable; construct with NewClient. Safe for concurrent use once
// configured (call SetRetryPolicy before sharing across goroutines).
type Client struct {
	base    string
	http    *http.Client
	retry   RetryPolicy
	breaker *Breaker // optional per-target circuit breaker; see SetBreaker

	mu  sync.Mutex
	rng *rand.Rand // seeded jitter source; nil uses the global one
}

// NewClient returns a client for the server at base (e.g.
// "http://localhost:8723"). httpClient may be nil for http.DefaultClient.
// Retries are off until SetRetryPolicy.
func NewClient(base string, httpClient *http.Client) *Client {
	if httpClient == nil {
		httpClient = http.DefaultClient
	}
	return &Client{base: strings.TrimRight(base, "/"), http: httpClient}
}

// SetRetryPolicy installs the client's retry policy. Call before the
// client is shared across goroutines.
func (c *Client) SetRetryPolicy(p RetryPolicy) {
	c.retry = p
	if p.Seed != 0 {
		c.rng = rand.New(rand.NewSource(p.Seed))
	} else {
		c.rng = nil
	}
}

// SetBreaker attaches a circuit breaker for this client's target: every
// attempt consults Breaker.Allow first and fails fast with a
// *ReplicaDownError while the breaker is open, transport outcomes feed
// Success/Failure back. Typically the breaker comes from a shared
// PeerHealth so all clients of one process agree on peer state. Call
// before the client is shared across goroutines.
func (c *Client) SetBreaker(b *Breaker) { c.breaker = b }

// do sends a JSON request and decodes a JSON response into out (which may
// be nil), for calls that are safe to retry at the transport level.
func (c *Client) do(ctx context.Context, method, path string, in, out any) error {
	return c.doRetry(ctx, method, path, nil, in, out, true)
}

// doRetry is the request engine behind every call: marshal once, then
// attempt under the retry policy. idempotent gates transport-level
// retries (a lost response to a non-idempotent call may have been
// applied); typed-retryable server errors retry regardless. A context
// deadline is propagated to the server via the X-Netplace-Deadline
// header, retried attempts carry X-Netplace-Retry.
func (c *Client) doRetry(ctx context.Context, method, path string, hdr map[string]string, in, out any, idempotent bool) error {
	var payload []byte
	if in != nil {
		buf, err := json.Marshal(in)
		if err != nil {
			return err
		}
		payload = buf
	}
	attempts := c.retry.MaxAttempts
	if attempts < 1 {
		attempts = 1
	}
	var err error
	for attempt := 1; ; attempt++ {
		if c.breaker != nil && !c.breaker.Allow() {
			// Fail fast: the target's breaker is open, nothing is sent. The
			// typed error is retryable (provably pre-application) and backoff
			// sleeps on the breaker clock, so a retry budget rides out the
			// outage at near-zero network cost.
			err = &ReplicaDownError{Replica: c.base, RetryAfter: c.breaker.RetryAfter()}
		} else {
			err = c.doOnce(ctx, method, path, hdr, payload, out, attempt)
		}
		if err == nil {
			return nil
		}
		if attempt >= attempts || ctx.Err() != nil || !retryableError(err, idempotent) {
			return err
		}
		if serr := c.sleep(ctx, c.backoff(attempt, err)); serr != nil {
			return err
		}
	}
}

// retryableError decides whether one failed attempt may be retried:
// typed server sheds always, transport faults — including gateway
// statuses an intermediary may emit after the backend applied the
// request (bare 502/504) and per-attempt timeouts against a hung peer
// (http.Client.Timeout reads as context.DeadlineExceeded) — only on
// idempotent calls, cancellations never. The CALLER's context ending
// stops the loop separately, via doRetry's ctx.Err() guard, so a
// deadline here is known to be attempt-local.
func retryableError(err error, idempotent bool) bool {
	if errors.Is(err, ErrReplicaDown) {
		// The local breaker refused the attempt before anything was sent
		// (or the server refused before applying): always safe to retry.
		return true
	}
	var ae *APIError
	if errors.As(err, &ae) {
		if ae.Retryable() {
			return true
		}
		switch ae.Status {
		case http.StatusBadGateway, http.StatusGatewayTimeout:
			return idempotent
		}
		return false
	}
	if errors.Is(err, context.Canceled) {
		return false
	}
	return idempotent
}

// backoff computes the delay before the next attempt: the server's
// Retry-After when present, else capped exponential with jitter.
func (c *Client) backoff(attempt int, err error) time.Duration {
	var rde *ReplicaDownError
	if errors.As(err, &rde) && rde.RetryAfter > 0 {
		// Sleep on the breaker clock (plus a margin so the reopen probe is
		// due when the retry fires) instead of the exponential schedule.
		return rde.RetryAfter + 25*time.Millisecond
	}
	var ae *APIError
	if errors.As(err, &ae) && ae.RetryAfter > 0 {
		return ae.RetryAfter
	}
	d := c.retry.BaseDelay
	if d <= 0 {
		d = 50 * time.Millisecond
	}
	maxd := c.retry.MaxDelay
	if maxd <= 0 {
		maxd = 2 * time.Second
	}
	for i := 1; i < attempt && d < maxd; i++ {
		d *= 2
	}
	if d > maxd {
		d = maxd
	}
	if j := c.retry.Jitter; j > 0 {
		d = time.Duration(float64(d) * (1 + j*(2*c.rand01()-1)))
		if d < 0 {
			d = 0
		}
	}
	return d
}

// rand01 draws from the seeded jitter source, or the global one.
func (c *Client) rand01() float64 {
	if c.rng == nil {
		return rand.Float64()
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.rng.Float64()
}

// sleep waits d or until ctx is done, via the policy's hook when set.
func (c *Client) sleep(ctx context.Context, d time.Duration) error {
	if c.retry.Sleep != nil {
		return c.retry.Sleep(ctx, d)
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// doOnce executes a single HTTP attempt. Non-2xx responses surface as
// *APIError carrying the server message and any Retry-After hint.
func (c *Client) doOnce(ctx context.Context, method, path string, hdr map[string]string, payload []byte, out any, attempt int) error {
	var body io.Reader
	if payload != nil {
		body = bytes.NewReader(payload)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return err
	}
	if payload != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	if dl, ok := ctx.Deadline(); ok {
		if remaining := time.Until(dl); remaining > 0 {
			req.Header.Set(HeaderDeadline, remaining.Round(time.Millisecond).String())
		}
	}
	if attempt > 1 {
		req.Header.Set(HeaderRetry, strconv.Itoa(attempt-1))
	}
	resp, err := c.http.Do(req)
	if err != nil {
		// Feed the breaker: a transport fault (refused, reset, client
		// timeout against a blackholed peer) is a failure — unless OUR
		// context caused it, which says nothing about the peer.
		if c.breaker != nil && ctx.Err() == nil {
			c.breaker.Failure()
		}
		return err
	}
	// Any HTTP response proves the peer is alive, whatever the status.
	if c.breaker != nil {
		c.breaker.Success()
	}
	defer resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode >= 300 {
		raw, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
		apiErr := &APIError{Status: resp.StatusCode, Method: method, Path: path,
			Shed:        resp.Header.Get(HeaderShed) != "",
			ReplicaDown: resp.Header.Get(HeaderReplicaDown)}
		apiErr.RetryAfter = parseRetryAfter(resp.Header.Get("Retry-After"))
		var e errorJSON
		if json.Unmarshal(raw, &e) == nil && e.Error != "" {
			apiErr.Message = e.Error
			return apiErr
		}
		// Not the service's error envelope (a proxy page, a panic trace):
		// surface the raw body rather than a bare status code.
		if msg := strings.TrimSpace(string(raw)); msg != "" {
			if len(msg) > 256 {
				msg = msg[:256] + "..."
			}
			apiErr.Message = msg
		}
		return apiErr
	}
	if out == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// parseRetryAfter reads a Retry-After header in either RFC 9110 form:
// a non-negative delay in seconds, or an HTTP-date (the delay is then
// the time remaining until it). Unparseable or past values yield 0 —
// the backoff policy takes over rather than guessing.
func parseRetryAfter(h string) time.Duration {
	if h == "" {
		return 0
	}
	if secs, err := strconv.Atoi(h); err == nil {
		if secs > 0 {
			return time.Duration(secs) * time.Second
		}
		return 0
	}
	if at, err := http.ParseTime(h); err == nil {
		if d := time.Until(at); d > 0 {
			return d
		}
	}
	return 0
}

// Upload registers an instance under an optional name and returns its
// registry record. Uploading the same problem twice is idempotent.
func (c *Client) Upload(ctx context.Context, name string, in *core.Instance) (UploadResponse, error) {
	var out UploadResponse
	err := c.do(ctx, http.MethodPost, "/instances",
		UploadRequest{Name: name, Instance: encode.InstanceJSONOf(in)}, &out)
	return out, err
}

// List returns the resident instances, most recently used first.
func (c *Client) List(ctx context.Context) ([]InstanceInfo, error) {
	var out []InstanceInfo
	err := c.do(ctx, http.MethodGet, "/instances", nil, &out)
	return out, err
}

// Info returns one instance's registry record.
func (c *Client) Info(ctx context.Context, id string) (InstanceInfo, error) {
	var out InstanceInfo
	err := c.do(ctx, http.MethodGet, "/instances/"+id, nil, &out)
	return out, err
}

// Delete drops an instance from the registry. Not retried on transport
// faults: a lost response may have deleted the instance, and a blind
// retry would surface a confusing 404.
func (c *Client) Delete(ctx context.Context, id string) error {
	return c.doRetry(ctx, http.MethodDelete, "/instances/"+id, nil, nil, nil, false)
}

// Solve solves a registered instance with the given options.
func (c *Client) Solve(ctx context.Context, id string, opts SolveOptions) (SolveResult, error) {
	var out SolveResult
	err := c.do(ctx, http.MethodPost, "/instances/"+id+"/solve", SolveRequest{Options: opts}, &out)
	return out, err
}

// SolveStale is Solve with degraded-mode opt-in: when the server sheds
// the request under overload but holds a previously completed placement
// of the same instance, it answers with that result instead of a 429.
// The stale cache is keyed by instance alone (see Engine.StaleResult),
// so the degraded answer may have been computed with different options
// than requested — check SolveResult.Options alongside Stale and
// StaleSeconds before trusting option-sensitive fields.
func (c *Client) SolveStale(ctx context.Context, id string, opts SolveOptions) (SolveResult, error) {
	var out SolveResult
	hdr := map[string]string{HeaderAllowStale: "1"}
	err := c.doRetry(ctx, http.MethodPost, "/instances/"+id+"/solve", hdr, SolveRequest{Options: opts}, &out, true)
	return out, err
}

// SolveDegraded is the failover form of SolveStale: it additionally
// carries the forwarded hop guard, so the receiving replica answers
// strictly locally — from its registry or, for an instance it only
// replicates, from the read-only snapshot store (Stale=true) — instead
// of forwarding back toward the down owner. ShardedClient uses it to
// read through the owner's successor while the owner's breaker is open.
func (c *Client) SolveDegraded(ctx context.Context, id string, opts SolveOptions) (SolveResult, error) {
	var out SolveResult
	hdr := map[string]string{HeaderAllowStale: "1", HeaderForwarded: "degraded"}
	err := c.doRetry(ctx, http.MethodPost, "/instances/"+id+"/solve", hdr, SolveRequest{Options: opts}, &out, true)
	return out, err
}

// WhatIf solves a batch of options variants concurrently server-side.
func (c *Client) WhatIf(ctx context.Context, id string, variants []SolveOptions) ([]WhatIfOutcome, error) {
	var out WhatIfResponse
	err := c.do(ctx, http.MethodPost, "/instances/"+id+"/whatif", WhatIfRequest{Variants: variants}, &out)
	return out.Results, err
}

// WhatIfScenarios solves a batch of demand-patched scenarios of one
// resident instance under shared options. Scenarios that only change
// object workloads are answered incrementally server-side: check
// SolveResult.Incremental and ResolvedObjects on the outcomes.
func (c *Client) WhatIfScenarios(ctx context.Context, id string, opts SolveOptions, scenarios []Scenario) ([]WhatIfOutcome, error) {
	var out WhatIfResponse
	err := c.do(ctx, http.MethodPost, "/instances/"+id+"/whatif",
		WhatIfRequest{Options: opts, Scenarios: scenarios}, &out)
	return out.Results, err
}

// Cost evaluates a placement (typically a SolveResult.Placement, possibly
// edited) under the restricted cost model.
func (c *Client) Cost(ctx context.Context, id string, p encode.PlacementJSON) (BreakdownJSON, error) {
	var out BreakdownJSON
	err := c.do(ctx, http.MethodPost, "/instances/"+id+"/cost", PlacementRequest{Placement: p}, &out)
	return out, err
}

// Simulate replays the instance's workload against a placement in the
// message-level simulator and returns the metered bill.
func (c *Client) Simulate(ctx context.Context, id string, p encode.PlacementJSON) (SimulationResult, error) {
	var out SimulationResult
	err := c.do(ctx, http.MethodPost, "/instances/"+id+"/simulate", PlacementRequest{Placement: p}, &out)
	return out, err
}

// OpenSession opens a streaming adaptive placement session against a
// resident instance; stream events with SessionEventsSeq and read the
// adapting placement with SessionPlacement. Not retried on transport
// faults: a lost response may have opened a session the client would
// never learn the ID of, leaking it until a MaxSessions eviction.
func (c *Client) OpenSession(ctx context.Context, instanceID string, cfg SessionConfig) (SessionInfo, error) {
	var out SessionInfo
	err := c.doRetry(ctx, http.MethodPost, "/v1/sessions", nil,
		SessionRequest{InstanceID: instanceID, Config: cfg}, &out, false)
	return out, err
}

// Session returns one session's record — configuration and cost
// accounting so far. cmd/netreplay's resume path uses the event count to
// skip the already-ingested trace prefix.
func (c *Client) Session(ctx context.Context, id string) (SessionInfo, error) {
	var out SessionInfo
	err := c.do(ctx, http.MethodGet, "/v1/sessions/"+id, nil, &out)
	return out, err
}

// Sessions lists the server's open streaming sessions.
func (c *Client) Sessions(ctx context.Context) ([]SessionInfo, error) {
	var out []SessionInfo
	err := c.do(ctx, http.MethodGet, "/v1/sessions", nil, &out)
	return out, err
}

// SessionEvents streams a batch of request events into a session and
// returns the per-epoch reports the batch triggered. Unsequenced: the
// server cannot tell a retried batch from a new one, so transport
// faults are NOT retried (a torn response may already have applied the
// batch). Prefer SessionEventsSeq for at-most-once retried ingest.
func (c *Client) SessionEvents(ctx context.Context, id string, events []SessionEvent) (SessionEventsResponse, error) {
	var out SessionEventsResponse
	err := c.doRetry(ctx, http.MethodPost, "/v1/sessions/"+id+"/events", nil,
		SessionEventsRequest{Events: events}, &out, false)
	return out, err
}

// SessionEventsSeq streams a batch under a client-assigned sequence
// number (strictly increasing per session, starting at 1). The server
// remembers the highest applied sequence durably — in the session WAL's
// commit markers and snapshots — so a retried batch after a torn
// response is detected and acknowledged without re-applying: exactly-
// once ingest even across a server crash. Safe to retry on any fault.
func (c *Client) SessionEventsSeq(ctx context.Context, id string, seq int64, events []SessionEvent) (SessionEventsResponse, error) {
	var out SessionEventsResponse
	err := c.doRetry(ctx, http.MethodPost, "/v1/sessions/"+id+"/events", nil,
		SessionEventsRequest{Seq: seq, Events: events}, &out, true)
	return out, err
}

// SessionFlush closes a session's open partial epoch, so a finished
// trace is fully accounted before reading the final placement.
func (c *Client) SessionFlush(ctx context.Context, id string) (SessionEventsResponse, error) {
	var out SessionEventsResponse
	err := c.do(ctx, http.MethodPost, "/v1/sessions/"+id+"/flush", nil, &out)
	return out, err
}

// SessionPlacement returns a session's current adaptive placement and
// its cost accounting so far.
func (c *Client) SessionPlacement(ctx context.Context, id string) (SessionPlacementResponse, error) {
	var out SessionPlacementResponse
	err := c.do(ctx, http.MethodGet, "/v1/sessions/"+id+"/placement", nil, &out)
	return out, err
}

// CloseSession drops a session. Like Delete, not retried on transport
// faults; tolerate a 404 when closing after a retry ambiguity.
func (c *Client) CloseSession(ctx context.Context, id string) error {
	return c.doRetry(ctx, http.MethodDelete, "/v1/sessions/"+id, nil, nil, nil, false)
}

// Stats snapshots the server's /statz counters.
func (c *Client) Stats(ctx context.Context) (Stats, error) {
	var out Stats
	err := c.do(ctx, http.MethodGet, "/statz", nil, &out)
	return out, err
}

// ClusterStats snapshots the cluster-wide /statz view: the server fans
// out to its configured peers and merges every reachable replica's
// counters (GET /statz?cluster=1). On a standalone server the view
// contains just that server.
func (c *Client) ClusterStats(ctx context.Context) (ClusterStats, error) {
	var out ClusterStats
	err := c.do(ctx, http.MethodGet, "/statz?cluster=1", nil, &out)
	return out, err
}

// Export fetches an instance's full content (GET /instances/{id}/export)
// for re-registration elsewhere — the drain path's migration read.
func (c *Client) Export(ctx context.Context, id string) (InstanceExport, error) {
	var out InstanceExport
	err := c.do(ctx, http.MethodGet, "/instances/"+id+"/export", nil, &out)
	return out, err
}

// PushReplica stores an instance's content in the server's read-only
// replica snapshot store (PUT /v1/replica/instances/{id}); the server
// re-verifies id against the content hash before accepting. Idempotent:
// pushing the same content again overwrites in place.
func (c *Client) PushReplica(ctx context.Context, id string, exp InstanceExport) error {
	return c.doRetry(ctx, http.MethodPut, "/v1/replica/instances/"+id, nil, exp, nil, true)
}

// DeleteReplica drops an instance from the server's replica snapshot
// store. Idempotent — deleting an absent snapshot succeeds.
func (c *Client) DeleteReplica(ctx context.Context, id string) error {
	return c.doRetry(ctx, http.MethodDelete, "/v1/replica/instances/"+id, nil, nil, nil, true)
}

// ReplicaInstances lists the read-only instance snapshots the server
// holds for other replicas' keys.
func (c *Client) ReplicaInstances(ctx context.Context) ([]ReplicaInstanceInfo, error) {
	var out []ReplicaInstanceInfo
	err := c.do(ctx, http.MethodGet, "/v1/replica/instances", nil, &out)
	return out, err
}

// ClusterDrain drives the membership change behind netplaced
// -drain-peer (POST /v1/cluster/drain). With peer empty (or the
// server's own URL) the server itself drains: final session snapshots
// and WAL flushes are written and /readyz starts failing. With peer set
// to another replica's URL, the server removes that replica from its
// ring view and peer set. Idempotent in both directions.
func (c *Client) ClusterDrain(ctx context.Context, peer string) (ClusterDrainResponse, error) {
	var out ClusterDrainResponse
	err := c.doRetry(ctx, http.MethodPost, "/v1/cluster/drain", nil,
		ClusterDrainRequest{Peer: peer}, &out, true)
	return out, err
}

// Health probes /healthz.
func (c *Client) Health(ctx context.Context) error {
	return c.do(ctx, http.MethodGet, "/healthz", nil, nil)
}

// Ready probes /readyz: nil when the server is recovered and not
// draining, an *APIError with status 503 otherwise.
func (c *Client) Ready(ctx context.Context) error {
	return c.do(ctx, http.MethodGet, "/readyz", nil, nil)
}

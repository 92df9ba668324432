package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strings"

	"netplace/internal/core"
	"netplace/internal/encode"
	"netplace/internal/service"
)

// ShardedClient routes every instance, solve, and session call to the
// replica owning the key on the consistent-hash ring, so a caller uses a
// netplaced cluster exactly like one server. Instances are keyed by
// their content-derived registry id (service.InstanceIDFor), computed
// client-side, so an upload goes straight to its owner; a session lives
// on its instance's owner and its id names that instance
// (service.SessionInstanceID), so session calls route like instance
// calls and ids pass through unchanged — the client itself stays
// stateless, so two ShardedClients over the same cluster (or any
// replica's Proxy) agree on every route.
//
// Each per-replica client shares one retry policy (SetRetryPolicy); with
// sequenced ingest (SessionEventsSeq) a replica restart mid-stream is
// absorbed transparently: the retry reconnects and the server's
// idempotent dedup discards anything the torn response already applied.
type ShardedClient struct {
	ring    *Ring
	clients map[string]*service.Client
	health  *service.PeerHealth // passive per-replica breakers (no prober)
}

// NewShardedClient builds a sharded client over the replica base URLs
// (e.g. "http://127.0.0.1:4001"). httpClient may be nil for
// http.DefaultClient; retries are off until SetRetryPolicy. Every
// per-replica client carries a circuit breaker fed passively by its
// request outcomes (tune with SetBreakerConfig): calls to a replica
// whose breaker is open fail fast with service.ErrReplicaDown, and
// SolveStale fails over to the key's snapshot successor.
func NewShardedClient(replicas []string, httpClient *http.Client) (*ShardedClient, error) {
	if len(replicas) == 0 {
		return nil, fmt.Errorf("cluster: sharded client needs at least one replica")
	}
	sc := &ShardedClient{ring: NewRing(0), clients: make(map[string]*service.Client)}
	sc.health = service.NewPeerHealth(service.BreakerConfig{})
	for _, rep := range replicas {
		rep = strings.TrimRight(rep, "/")
		if !sc.ring.Add(rep) {
			continue // duplicate URL
		}
		c := service.NewClient(rep, httpClient)
		c.SetBreaker(sc.health.For(rep))
		sc.clients[rep] = c
	}
	return sc, nil
}

// SetRetryPolicy installs the retry policy on every per-replica client.
// Call before sharing the client across goroutines.
func (sc *ShardedClient) SetRetryPolicy(p service.RetryPolicy) {
	for _, c := range sc.clients {
		c.SetRetryPolicy(p)
	}
}

// SetBreakerConfig rebuilds the per-replica circuit breakers with cfg's
// thresholds. Call before sharing the client across goroutines.
func (sc *ShardedClient) SetBreakerConfig(cfg service.BreakerConfig) {
	sc.health = service.NewPeerHealth(cfg)
	for rep, c := range sc.clients {
		c.SetBreaker(sc.health.For(rep))
	}
}

// Health exposes the per-replica breaker tracker, so callers can
// inspect (or tests can manipulate) replica state.
func (sc *ShardedClient) Health() *service.PeerHealth { return sc.health }

// Owner returns the replica URL owning an instance id.
func (sc *ShardedClient) Owner(instanceID string) string { return sc.ring.Owner(instanceID) }

// clientFor returns the owning replica's client for an instance key.
func (sc *ShardedClient) clientFor(instanceID string) *service.Client {
	return sc.clients[sc.ring.Owner(instanceID)]
}

// sessionClient returns the client of the replica owning a session's
// instance. An id without the instance prefix routes like the empty
// key; that replica answers it from its own session table.
func (sc *ShardedClient) sessionClient(id string) *service.Client {
	instanceID, _ := service.SessionInstanceID(id)
	return sc.clientFor(instanceID)
}

// Upload registers an instance on its owning replica. The owner is
// computed from the instance's content hash before any network round
// trip, so re-uploads of identical content always land on the same
// replica.
func (sc *ShardedClient) Upload(ctx context.Context, name string, in *core.Instance) (service.UploadResponse, error) {
	return sc.clientFor(service.InstanceIDFor(in)).Upload(ctx, name, in)
}

// Info returns an instance's record from its owning replica.
func (sc *ShardedClient) Info(ctx context.Context, id string) (service.InstanceInfo, error) {
	return sc.clientFor(id).Info(ctx, id)
}

// Delete drops an instance from its owning replica.
func (sc *ShardedClient) Delete(ctx context.Context, id string) error {
	return sc.clientFor(id).Delete(ctx, id)
}

// Solve solves on the instance's owning replica.
func (sc *ShardedClient) Solve(ctx context.Context, id string, opts service.SolveOptions) (service.SolveResult, error) {
	return sc.clientFor(id).Solve(ctx, id, opts)
}

// SolveStale is Solve with degraded-mode opt-in, cluster-wide: it asks
// the owning replica first (service.Client.SolveStale semantics —
// overload there serves the last good placement), and when the owner is
// down — its breaker open, or the call failing at the transport level —
// it fails over to the key's snapshot successor, which answers from its
// hash-verified read-only replica with Stale=true. Writes never fail
// over; only this read path does.
func (sc *ShardedClient) SolveStale(ctx context.Context, id string, opts service.SolveOptions) (service.SolveResult, error) {
	owner := sc.ring.Owner(id)
	if sc.health.For(owner).Ready() {
		res, err := sc.clients[owner].SolveStale(ctx, id, opts)
		if err == nil || !replicaFault(err) {
			return res, err
		}
	}
	succ := sc.ring.Successor(owner)
	if succ == "" {
		return service.SolveResult{}, &service.ReplicaDownError{Replica: owner}
	}
	return sc.clients[succ].SolveDegraded(ctx, id, opts)
}

// replicaFault reports errors that mean "the replica is unreachable or
// known down" — the faults failover covers — as opposed to application
// errors (bad options, 404) the successor would only repeat.
func replicaFault(err error) bool {
	if errors.Is(err, service.ErrReplicaDown) {
		return true
	}
	var ae *service.APIError
	if errors.As(err, &ae) {
		return false // the owner answered; its verdict stands
	}
	if errors.Is(err, context.Canceled) {
		return false
	}
	return true // transport-level fault
}

// WhatIf batches options variants on the instance's owning replica.
func (sc *ShardedClient) WhatIf(ctx context.Context, id string, variants []service.SolveOptions) ([]service.WhatIfOutcome, error) {
	return sc.clientFor(id).WhatIf(ctx, id, variants)
}

// Cost evaluates a placement on the instance's owning replica.
func (sc *ShardedClient) Cost(ctx context.Context, id string, p encode.PlacementJSON) (service.BreakdownJSON, error) {
	return sc.clientFor(id).Cost(ctx, id, p)
}

// Simulate replays the instance's workload on its owning replica.
func (sc *ShardedClient) Simulate(ctx context.Context, id string, p encode.PlacementJSON) (service.SimulationResult, error) {
	return sc.clientFor(id).Simulate(ctx, id, p)
}

// OpenSession opens a streaming session on the replica owning the
// instance.
func (sc *ShardedClient) OpenSession(ctx context.Context, instanceID string, cfg service.SessionConfig) (service.SessionInfo, error) {
	return sc.clientFor(instanceID).OpenSession(ctx, instanceID, cfg)
}

// Session returns a session's record from its instance's owner.
func (sc *ShardedClient) Session(ctx context.Context, id string) (service.SessionInfo, error) {
	return sc.sessionClient(id).Session(ctx, id)
}

// SessionEvents streams an unsequenced batch to the session's replica.
// Like service.Client.SessionEvents it is NOT retried on transport
// faults; prefer SessionEventsSeq on a cluster, where replica restarts
// are exactly the fault being absorbed.
func (sc *ShardedClient) SessionEvents(ctx context.Context, id string, events []service.SessionEvent) (service.SessionEventsResponse, error) {
	return sc.sessionClient(id).SessionEvents(ctx, id, events)
}

// SessionEventsSeq streams a sequenced batch to the session's replica —
// the cluster's idempotent ingest path: retried on any fault, and the
// owning replica's durable dedup turns the retries into exactly-once.
func (sc *ShardedClient) SessionEventsSeq(ctx context.Context, id string, seq int64, events []service.SessionEvent) (service.SessionEventsResponse, error) {
	return sc.sessionClient(id).SessionEventsSeq(ctx, id, seq, events)
}

// SessionFlush closes the session's open partial epoch on its replica.
func (sc *ShardedClient) SessionFlush(ctx context.Context, id string) (service.SessionEventsResponse, error) {
	return sc.sessionClient(id).SessionFlush(ctx, id)
}

// SessionPlacement reads the session's adaptive placement from its
// replica.
func (sc *ShardedClient) SessionPlacement(ctx context.Context, id string) (service.SessionPlacementResponse, error) {
	return sc.sessionClient(id).SessionPlacement(ctx, id)
}

// CloseSession drops the session on its replica.
func (sc *ShardedClient) CloseSession(ctx context.Context, id string) error {
	return sc.sessionClient(id).CloseSession(ctx, id)
}

// Stats snapshots every replica's /statz, keyed by replica URL. A
// replica that cannot be reached yields an error for its slot in errs
// (same key); stats holds only the reachable ones.
func (sc *ShardedClient) Stats(ctx context.Context) (stats map[string]service.Stats, errs map[string]error) {
	stats = make(map[string]service.Stats)
	errs = make(map[string]error)
	for _, rep := range sc.ring.Members() {
		st, err := sc.clients[rep].Stats(ctx)
		if err != nil {
			errs[rep] = err
			continue
		}
		stats[rep] = st
	}
	return stats, errs
}

// Ready reports the first replica that fails its /readyz probe, or nil
// when every replica is ready.
func (sc *ShardedClient) Ready(ctx context.Context) error {
	for _, rep := range sc.ring.Members() {
		if err := sc.clients[rep].Ready(ctx); err != nil {
			return fmt.Errorf("cluster: replica %s not ready: %w", rep, err)
		}
	}
	return nil
}

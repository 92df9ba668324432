package cluster

import (
	"context"
	"fmt"
	"net/http"

	"netplace/internal/service"
)

// ShardedClient is a service.Client for a whole cluster: its HTTP
// transport is a Router, so every call goes straight to the replica
// owning its key, under the same breakers and failover rule as the
// replica-side Proxy. An upload goes to the owner of its content id
// (service.InstanceIDFor), and a session call to the owner of the
// instance its id names (service.SessionInstanceID), so ids pass
// through unchanged. The client stays stateless: two ShardedClients
// over the same cluster, or any replica's Proxy, agree on every route.
// A call without a routing key (List, Sessions, ClusterStats, the
// probes) goes to the owner of the empty key; Stats and Ready ask
// every replica instead.
//
// A replica whose breaker is open fails calls fast with
// service.ErrReplicaDown, and the retry loop sleeps on the breaker
// clock. SolveStale fails over to the owner's snapshot successor while
// the owner is down, as through the proxy. With a retry policy
// (SetRetryPolicy) and sequenced ingest (SessionEventsSeq), a replica
// restart mid-stream is absorbed transparently: the retry reconnects
// and the server's idempotent dedup discards anything the torn
// response already applied.
type ShardedClient struct {
	*service.Client
	router *Router
}

// clusterBase is the base URL of a ShardedClient's requests. The Router
// transport replaces its host with the owning replica's.
const clusterBase = "http://netplace.cluster"

// NewShardedClient builds a sharded client over the replica base URLs
// (e.g. "http://127.0.0.1:4001"). httpClient sends each hop to a
// replica, its Timeout bounding each hop; nil means http.DefaultClient.
// Retries are off until SetRetryPolicy.
func NewShardedClient(replicas []string, httpClient *http.Client) (*ShardedClient, error) {
	if len(replicas) == 0 {
		return nil, fmt.Errorf("cluster: sharded client needs at least one replica")
	}
	rt := newRouter("", replicas, httpClient)
	return &ShardedClient{
		Client: service.NewClient(clusterBase, &http.Client{Transport: rt}),
		router: rt,
	}, nil
}

// Router returns the client's view of the cluster: its ring, breakers
// and failover rule.
func (sc *ShardedClient) Router() *Router { return sc.router }

// Stats snapshots every replica's /statz, keyed by replica URL. A
// replica that cannot be reached yields an error for its slot in errs
// (same key); stats holds only the reachable ones.
func (sc *ShardedClient) Stats(ctx context.Context) (stats map[string]service.Stats, errs map[string]error) {
	stats = make(map[string]service.Stats)
	errs = make(map[string]error)
	for _, rep := range sc.router.members() {
		st, err := service.NewClient(rep, sc.router.client).Stats(ctx)
		if err != nil {
			errs[rep] = err
			continue
		}
		stats[rep] = st
	}
	return stats, errs
}

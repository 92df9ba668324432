package service

import (
	"context"
	"sort"
	"sync"
	"time"
)

// This file is the server half of netplaced clustering (see
// docs/cluster.md): the peer set, its breakers and /readyz prober, the
// snapshot successor, and the cluster-wide /statz merge. The routing
// half — the consistent-hash ring and the Router behind both the proxy
// and the sharded client — lives in internal/cluster, which builds on
// this package.

// HeaderForwarded is the proxy hop guard: a replica forwarding a request
// it does not own sets it, and a replica receiving it serves locally no
// matter what the ring says — so a stale ring or a membership
// disagreement degrades to one extra hop, never a forwarding loop.
const HeaderForwarded = "X-Netplace-Forwarded"

// peerSet holds the clients for the configured peers, which the
// /statz?cluster=1 gossip fans out over. Built at server construction
// and mutated only by drain-driven membership removal; the clients
// carry no retry policy (an unreachable peer is reported, not retried)
// and every call is bounded by Config.PeerTimeout.
type peerSet struct {
	timeout time.Duration

	mu      sync.Mutex
	urls    []string
	clients []*Client
}

// snapshot returns consistent copies of the peer URL and client lists.
func (ps *peerSet) snapshot() ([]string, []*Client) {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	urls := make([]string, len(ps.urls))
	copy(urls, ps.urls)
	clients := make([]*Client, len(ps.clients))
	copy(clients, ps.clients)
	return urls, clients
}

// remove drops a peer from the set, reporting whether it was present.
func (ps *peerSet) remove(url string) bool {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	for i, u := range ps.urls {
		if u == url {
			ps.urls = append(ps.urls[:i], ps.urls[i+1:]...)
			ps.clients = append(ps.clients[:i], ps.clients[i+1:]...)
			return true
		}
	}
	return false
}

// len is the current peer count (the live /statz peers gauge).
func (ps *peerSet) len() int {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	return len(ps.urls)
}

// SuccessorOf is the cluster's replication successor rule: the member
// after self in sorted order, wrapping past the last to the first; ""
// when self is not a member or fewer than two members remain. A replica
// pushes its instance snapshots there, and every router fails a down
// owner's stale reads over there, so both sides agree without
// coordination.
func SuccessorOf(members []string, self string) string {
	if len(members) < 2 {
		return ""
	}
	sorted := append([]string(nil), members...)
	sort.Strings(sorted)
	for i, m := range sorted {
		if m == self {
			return sorted[(i+1)%len(sorted)]
		}
	}
	return ""
}

// setupPeers filters SelfURL out of cfg.Peers and builds one client per
// remaining peer, every client sharing the server's PeerHealth breakers;
// it builds the successor push client when SuccessorURL is set and
// starts the background /readyz prober.
func (s *Server) setupPeers() {
	var urls []string
	for _, u := range s.cfg.Peers {
		if u != "" && u != s.cfg.SelfURL {
			urls = append(urls, u)
		}
	}
	succ := s.cfg.SuccessorURL
	if succ == s.cfg.SelfURL {
		succ = ""
	}
	if len(urls) == 0 && succ == "" {
		return
	}
	bcfg := BreakerConfig{Threshold: s.cfg.BreakerThreshold, Backoff: s.cfg.BreakerBackoff}
	s.health = NewPeerHealth(bcfg, urls...)
	ps := &peerSet{urls: urls, timeout: s.cfg.PeerTimeout}
	for _, u := range urls {
		ps.clients = append(ps.clients, s.peerClient(u))
	}
	s.peers = ps
	if succ != "" {
		s.successor.Store(s.peerClient(succ))
	}
	if s.cfg.ProbeInterval > 0 {
		s.health.StartProber(s.cfg.ProbeInterval, s.cfg.PeerTimeout)
	}
}

// peerClient builds a retry-free client for a peer, guarded by the
// peer's shared breaker.
func (s *Server) peerClient(url string) *Client {
	c := NewClient(url, nil)
	c.SetBreaker(s.health.For(url))
	return c
}

// removePeer drops a peer from the peer set and its breaker from the
// health tracker — the service half of a cluster drain. When the peer
// was this replica's snapshot successor, the successor moves (see
// moveSuccessor). Reports whether the peer was known.
func (s *Server) removePeer(url string) bool {
	if s.peers == nil {
		return false
	}
	ok := s.peers.remove(url)
	s.health.Remove(url)
	if succ := s.successor.Load(); succ != nil && succ.base == url {
		s.moveSuccessor()
	}
	return ok
}

// moveSuccessor re-derives the snapshot successor from the live members
// with the ring's rule (SuccessorOf) after a drain removed the old one,
// and re-pushes every resident instance there: the routers' rings moved
// the failover target of this replica's keys in the same drain, so a
// stale read of them must find their snapshots at the new successor.
// The new successor is stored before the registry is read, so an upload
// racing the drain is pushed there by one side or the other.
func (s *Server) moveSuccessor() {
	next := ""
	if s.cfg.SelfURL != "" {
		urls, _ := s.peers.snapshot()
		next = SuccessorOf(append(urls, s.cfg.SelfURL), s.cfg.SelfURL)
	}
	if next == "" {
		s.successor.Store(nil)
		return
	}
	s.successor.Store(s.peerClient(next))
	for _, e := range s.engine.registry.residents() {
		s.pushToSuccessor(e.info.ID, e.info.Name, e.in)
	}
}

// clusterStats fans the plain /statz request out to every peer and
// merges the snapshots into the cluster-wide view. Peers are asked for
// plain /statz (never ?cluster=1), so two replicas gossiping about each
// other cannot recurse. Unreachable peers degrade to an entry in Errors
// rather than failing the request.
func (s *Server) clusterStats(ctx context.Context) ClusterStats {
	self := s.cfg.SelfURL
	if self == "" {
		self = "self"
	}
	out := ClusterStats{Self: self, Replicas: map[string]Stats{self: s.Stats()}}
	if s.peers != nil {
		urls, clients := s.peers.snapshot()
		type fetched struct {
			url string
			st  Stats
			err error
		}
		results := make(chan fetched, len(clients))
		for i, pc := range clients {
			go func(url string, pc *Client) {
				pctx, cancel := context.WithTimeout(ctx, s.peers.timeout)
				defer cancel()
				st, err := pc.Stats(pctx)
				results <- fetched{url: url, st: st, err: err}
			}(urls[i], pc)
		}
		for range clients {
			f := <-results
			if f.err != nil {
				if out.Errors == nil {
					out.Errors = map[string]string{}
				}
				out.Errors[f.url] = f.err.Error()
				continue
			}
			out.Replicas[f.url] = f.st
		}
	}
	for _, st := range out.Replicas {
		out.Totals.Replicas++
		out.Totals.Instances += st.Instances
		out.Totals.SolvesTotal += st.SolvesTotal
		out.Totals.CacheHits += st.CacheHits
		out.Totals.CacheMisses += st.CacheMisses
		out.Totals.SessionsOpen += st.SessionsOpen
		out.Totals.SessionEvents += st.SessionEvents
		out.Totals.SessionEpochs += st.SessionEpochs
		out.Totals.Sheds += st.Sheds
	}
	return out
}

package service

import (
	"context"
	"sync"
	"time"
)

// This file is the server half of netplaced clustering (see
// docs/cluster.md): the peer set, its breakers and /readyz prober, and
// the cluster-wide /statz merge. The routing halves — consistent-hash
// ring, ShardedClient, stateless proxy — live in internal/cluster, which
// builds on this package.

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
		pc := NewClient(u, nil)
		pc.SetBreaker(s.health.For(u))
		ps.clients = append(ps.clients, pc)
	}
	s.peers = ps
	if succ != "" {
		sc := NewClient(succ, nil)
		sc.SetBreaker(s.health.For(succ))
		s.successor = sc
		s.successorURL = succ
	}
	if s.cfg.ProbeInterval > 0 {
		s.health.StartProber(s.cfg.ProbeInterval, s.cfg.PeerTimeout)
	}
}

// removePeer drops a peer from the peer set and its breaker from the
// health tracker — the service half of a cluster drain. Reports whether
// the peer was known.
func (s *Server) removePeer(url string) bool {
	if s.peers == nil {
		return false
	}
	ok := s.peers.remove(url)
	if s.health != nil {
		s.health.Remove(url)
	}
	return ok
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

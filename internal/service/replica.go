package service

import (
	"context"
	"log"
	"net/http"
	"strconv"
	"sync"
	"time"

	"netplace/internal/core"
	"netplace/internal/encode"
)

// This file is the degraded-read half of the cluster fault-tolerance
// layer (see docs/cluster.md "Failure modes & membership"): every
// accepted upload is pushed as a read-only snapshot to the replica's
// ring successor, and instance-keyed reads (solve with Allow-Stale,
// cost, info) of keys whose owner is down are answered from that
// snapshot — marked stale — instead of failing. The snapshot is
// re-verified against its content hash on arrival, so a failover answer
// is computed from byte-identical instance data.

// InstanceExport is an instance's full portable content: the export
// response of GET /instances/{id}/export and the push body of
// PUT /v1/replica/instances/{id}.
type InstanceExport struct {
	// Name is the registry label, if any.
	Name string `json:"name,omitempty"`
	// Instance is the problem in the shared wire format.
	Instance encode.InstanceJSON `json:"instance"`
}

// ReplicaInstanceInfo describes one read-only snapshot in the replica
// store (GET /v1/replica/instances).
type ReplicaInstanceInfo struct {
	// ID is the registry id the snapshot answers for.
	ID string `json:"id"`
	// Name is the owner's registry label, if any.
	Name string `json:"name,omitempty"`
	// AgeSeconds is how long ago the snapshot was (re-)pushed.
	AgeSeconds float64 `json:"age_seconds"`
}

// ClusterDrainRequest is the body of POST /v1/cluster/drain. Peer empty
// (or equal to the serving replica's own URL) drains the serving
// replica itself; otherwise the serving replica removes Peer from its
// ring view and peer set.
type ClusterDrainRequest struct {
	Peer string `json:"peer,omitempty"`
}

// ClusterDrainResponse reports a drain call's outcome: Status is
// "draining" (self-drain: sessions flushed to durable storage, /readyz
// failing) or "removed" (membership update applied — idempotently, even
// if the peer was already gone).
type ClusterDrainResponse struct {
	Status string `json:"status"`
	// Peer echoes the drained/removed replica URL ("" for self).
	Peer string `json:"peer,omitempty"`
	// SessionsDrained counts the open sessions flushed by a self-drain.
	SessionsDrained int `json:"sessions_drained"`
}

// replicaEntry is one read-only instance snapshot held for another
// replica's key.
type replicaEntry struct {
	in   *core.Instance
	hash string // full content hash; SolveSnapshot's cache key
	name string
	at   time.Time
}

// replicaStore holds the read-only instance snapshots pushed by the
// predecessor replica. Deliberately simple: snapshots are small relative
// to resident instances (no oracle state until a failover solve runs)
// and the set mirrors the predecessor's registry, which is already
// budget-bounded.
type replicaStore struct {
	mu      sync.Mutex
	entries map[string]*replicaEntry
}

// get returns the snapshot for id, if held.
func (rs *replicaStore) get(id string) (*replicaEntry, bool) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	e, ok := rs.entries[id]
	return e, ok
}

// put stores (or refreshes) a snapshot.
func (rs *replicaStore) put(id string, e *replicaEntry) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	rs.entries[id] = e
}

// drop removes a snapshot, reporting whether it was held.
func (rs *replicaStore) drop(id string) bool {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	_, ok := rs.entries[id]
	delete(rs.entries, id)
	return ok
}

// len is the /statz replica_instances gauge.
func (rs *replicaStore) len() int {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	return len(rs.entries)
}

// list snapshots the store for GET /v1/replica/instances.
func (rs *replicaStore) list() []ReplicaInstanceInfo {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	now := time.Now()
	out := make([]ReplicaInstanceInfo, 0, len(rs.entries))
	for id, e := range rs.entries {
		out = append(out, ReplicaInstanceInfo{ID: id, Name: e.name, AgeSeconds: now.Sub(e.at).Seconds()})
	}
	return out
}

// handleReplicaPush is PUT /v1/replica/instances/{id}: accept a
// read-only instance snapshot from the predecessor. The id is
// re-verified against the decoded instance's content hash — a corrupted
// or misrouted push is rejected, so every failover answer is computed
// from exactly the bytes the owner registered.
func (s *Server) handleReplicaPush(w http.ResponseWriter, r *http.Request) {
	var req InstanceExport
	if err := decodeBody(w, r, s.cfg.MaxUploadBytes, &req); err != nil {
		WriteError(w, err)
		return
	}
	in, err := req.Instance.Instance()
	if err != nil {
		WriteError(w, err)
		return
	}
	id := r.PathValue("id")
	hash := encode.HashInstance(in)
	if hash[:idLen] != id {
		writeJSON(w, http.StatusBadRequest, errorJSON{
			Error: "service: replica push content hash " + hash[:idLen] + " does not match id " + id})
		return
	}
	s.replicas.put(id, &replicaEntry{in: in, hash: hash, name: req.Name, at: time.Now()})
	writeJSON(w, http.StatusOK, ReplicaInstanceInfo{ID: id, Name: req.Name})
}

// handleReplicaDelete is DELETE /v1/replica/instances/{id}: drop a
// snapshot. Idempotent — deleting an absent snapshot still answers 204,
// so the owner's delete propagation can be retried blindly.
func (s *Server) handleReplicaDelete(w http.ResponseWriter, r *http.Request) {
	s.replicas.drop(r.PathValue("id"))
	w.WriteHeader(http.StatusNoContent)
}

// handleReplicaList is GET /v1/replica/instances.
func (s *Server) handleReplicaList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.replicas.list())
}

// handleExport is GET /instances/{id}/export: the instance's full
// content for re-registration elsewhere — the drain tool's migration
// read. Falls back to the replica store so a drained owner's instances
// can still be exported from their snapshot holder.
func (s *Server) handleExport(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if in, info, ok := s.engine.registry.Get(id); ok {
		writeJSON(w, http.StatusOK, InstanceExport{Name: info.Name, Instance: encode.InstanceJSONOf(in)})
		return
	}
	if e, ok := s.replicas.get(id); ok {
		writeJSON(w, http.StatusOK, InstanceExport{Name: e.name, Instance: encode.InstanceJSONOf(e.in)})
		return
	}
	WriteError(w, ErrNotFound)
}

// pushToSuccessor replicates an accepted upload to the snapshot
// successor, best-effort and bounded by PeerTimeout: replication must
// never fail or slow an upload past the timeout, it only widens the
// window a failover read can cover. Failures are counted and logged;
// the next re-upload (or the successor's recovery) heals the gap.
func (s *Server) pushToSuccessor(id, name string, in *core.Instance) {
	succ := s.successor.Load()
	if succ == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), s.cfg.PeerTimeout)
	defer cancel()
	err := succ.PushReplica(ctx, id, InstanceExport{Name: name, Instance: encode.InstanceJSONOf(in)})
	if err != nil {
		s.counters.replicaPushErrors.Add(1)
		log.Printf("netplaced: replica push %s to %s failed: %v", id, succ.base, err)
		return
	}
	s.counters.replicaPushes.Add(1)
}

// dropFromSuccessor propagates an instance delete to the successor's
// snapshot store, best-effort like the push.
func (s *Server) dropFromSuccessor(id string) {
	succ := s.successor.Load()
	if succ == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), s.cfg.PeerTimeout)
	defer cancel()
	if err := succ.DeleteReplica(ctx, id); err != nil {
		s.counters.replicaPushErrors.Add(1)
		log.Printf("netplaced: replica delete %s at %s failed: %v", id, succ.base, err)
	}
}

// replicaFallbackAllowed gates degraded serving from the snapshot
// store: the request must carry the Allow-Stale opt-in — without it a
// non-owner keeps answering 404 for keys it merely replicates, which
// the hop-guard semantics (and tests) rely on.
func replicaFallbackAllowed(r *http.Request) bool {
	return r.Header.Get(HeaderAllowStale) != ""
}

// replicaSolve answers a solve for an instance this replica only holds
// as a snapshot: SolveSnapshot shares the engine's cache and
// singleflight keyed by the content hash, and the result is marked
// Stale with the snapshot's age. The false return means no snapshot.
func (s *Server) replicaSolve(w http.ResponseWriter, r *http.Request, id string, opts SolveOptions) bool {
	e, ok := s.replicas.get(id)
	if !ok {
		return false
	}
	res, err := s.engine.SolveSnapshot(r.Context(), id, e.hash, e.in, opts)
	if err != nil {
		WriteError(w, err)
		return true
	}
	s.counters.failoverReads.Add(1)
	res.Stale = true
	res.StaleSeconds = time.Since(e.at).Seconds()
	w.Header().Set(HeaderStale, strconv.FormatFloat(res.StaleSeconds, 'f', 3, 64))
	writeJSON(w, http.StatusOK, res)
	return true
}

// replicaCost answers a cost evaluation from the snapshot store; cost
// is a pure function of the (hash-verified) instance bytes, so the
// answer equals the owner's. Marked stale anyway for honesty about the
// serving path.
func (s *Server) replicaCost(w http.ResponseWriter, r *http.Request, id string, pj encode.PlacementJSON) bool {
	e, ok := s.replicas.get(id)
	if !ok {
		return false
	}
	b, err := costOn(e.in, pj)
	if err != nil {
		WriteError(w, err)
		return true
	}
	s.counters.failoverReads.Add(1)
	w.Header().Set(HeaderStale, strconv.FormatFloat(time.Since(e.at).Seconds(), 'f', 3, 64))
	writeJSON(w, http.StatusOK, b)
	return true
}

// replicaInfo answers an instance info read from the snapshot store
// with a synthesized record (the owner's LRU timestamps are not
// replicated; CreatedAt carries the snapshot push time).
func (s *Server) replicaInfo(w http.ResponseWriter, r *http.Request, id string) bool {
	e, ok := s.replicas.get(id)
	if !ok {
		return false
	}
	s.counters.failoverReads.Add(1)
	w.Header().Set(HeaderStale, strconv.FormatFloat(time.Since(e.at).Seconds(), 'f', 3, 64))
	writeJSON(w, http.StatusOK, InstanceInfo{
		ID: id, Hash: e.hash, Name: e.name,
		Nodes: e.in.G.N(), Edges: e.in.G.M(), Objects: len(e.in.Objects),
		MemBytes:  estimateBytes(e.in),
		CreatedAt: e.at, LastUsed: e.at,
	})
	return true
}

// handleClusterDrain is POST /v1/cluster/drain — the administrative
// membership change behind netplaced -drain-peer. Self form (peer empty
// or this replica's URL): flush every open session to durable storage
// (final snapshot + WAL rotation, Server.Drain) and start failing
// /readyz so load balancers stop routing here. Peer form: drop the
// named replica from this replica's peer set and breaker tracker, and
// move the snapshot successor if it was the one drained; the
// forwarding proxy intercepts the same call to shrink its ring view
// with the ring's minimal-movement guarantee.
func (s *Server) handleClusterDrain(w http.ResponseWriter, r *http.Request) {
	var req ClusterDrainRequest
	if r.ContentLength != 0 {
		if err := decodeBody(w, r, s.cfg.MaxUploadBytes, &req); err != nil {
			WriteError(w, err)
			return
		}
	}
	if req.Peer != "" && req.Peer != s.cfg.SelfURL {
		s.removePeer(req.Peer)
		writeJSON(w, http.StatusOK, ClusterDrainResponse{Status: "removed", Peer: req.Peer})
		return
	}
	n := s.sessions.len()
	if err := s.Drain(); err != nil {
		WriteError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, ClusterDrainResponse{Status: "draining", Peer: req.Peer, SessionsDrained: n})
}

package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"netplace/internal/encode"
)

// ErrNotFound reports that a requested instance id is not resident (never
// uploaded, deleted, or evicted under the memory budget).
var ErrNotFound = errors.New("service: instance not found")

// ErrInternal marks server-side faults (a solver invariant violation or a
// recovered panic) so the HTTP layer reports them as 5xx rather than
// blaming the client; match with errors.Is.
var ErrInternal = errors.New("service: internal error")

// Server wires the engine to an HTTP API. Construct with New, then mount
// Handler on an http.Server.
//
// The API (all bodies JSON):
//
//	POST   /instances                 upload {name?, instance} → instance record
//	GET    /instances                 list resident instances
//	GET    /instances/{id}            one instance record
//	DELETE /instances/{id}            drop an instance
//	POST   /instances/{id}/solve      {options?} → placement + cost
//	POST   /instances/{id}/whatif     {variants: [options...]} or
//	                                  {options?, scenarios: [scenario...]}
//	                                  → per-variant/per-scenario results
//	POST   /instances/{id}/cost       {placement} → cost breakdown
//	POST   /instances/{id}/simulate   {placement} → metered message-level bill
//	GET    /instances/{id}/export     full instance content (drain migration)
//	POST   /v1/sessions               open a streaming session {instance_id, config?}
//	GET    /v1/sessions               list open sessions
//	GET    /v1/sessions/{id}          one session record
//	DELETE /v1/sessions/{id}          close a session
//	POST   /v1/sessions/{id}/events   stream request events into a session
//	POST   /v1/sessions/{id}/flush    close the open partial epoch
//	GET    /v1/sessions/{id}/placement  current adaptive placement + stats
//	PUT    /v1/replica/instances/{id} store a read-only instance snapshot
//	DELETE /v1/replica/instances/{id} drop a snapshot (idempotent)
//	GET    /v1/replica/instances      list held snapshots
//	POST   /v1/cluster/drain          {peer?} drain self / remove a peer
//	GET    /healthz                   liveness probe
//	GET    /readyz                    readiness probe (503 during recovery/drain)
//	GET    /statz                     Stats snapshot (cache hit rate, in-flight, …);
//	                                  ?cluster=1 merges every replica's snapshot
type Server struct {
	cfg      Config
	engine   *Engine
	sessions sessions
	counters counters
	start    time.Time
	mux      *http.ServeMux
	store    *store   // nil: in-memory server (New, or Open without DataDir)
	peers    *peerSet // nil: standalone (no Config.Peers)

	health       *PeerHealth   // nil: standalone; per-peer breakers + prober
	successor    *Client       // nil: no Config.SuccessorURL; snapshot pushes
	successorURL string        // resolved Config.SuccessorURL ("" when self)
	replicas     *replicaStore // read-only snapshots held for the predecessor

	ready    atomic.Bool // recovery finished; cleared never (drain uses draining)
	draining atomic.Bool // BeginDrain called: /readyz answers 503
}

// New assembles a server (registry, engine, routes) from a config.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{cfg: cfg, start: time.Now(),
		replicas: &replicaStore{entries: make(map[string]*replicaEntry)}}
	reg := NewRegistry(cfg.MemoryBudget, &s.counters.evictions)
	s.engine = NewEngine(cfg, reg, &s.counters)
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /instances", s.handleUpload)
	s.mux.HandleFunc("GET /instances", s.handleList)
	s.mux.HandleFunc("GET /instances/{id}", s.handleInfo)
	s.mux.HandleFunc("DELETE /instances/{id}", s.handleDelete)
	s.mux.HandleFunc("POST /instances/{id}/solve", s.handleSolve)
	s.mux.HandleFunc("POST /instances/{id}/whatif", s.handleWhatIf)
	s.mux.HandleFunc("POST /instances/{id}/cost", s.handleCost)
	s.mux.HandleFunc("POST /instances/{id}/simulate", s.handleSimulate)
	s.mux.HandleFunc("GET /instances/{id}/export", s.handleExport)
	s.mux.HandleFunc("POST /v1/sessions", s.handleSessionOpen)
	s.mux.HandleFunc("GET /v1/sessions", s.handleSessionList)
	s.mux.HandleFunc("GET /v1/sessions/{id}", s.handleSessionInfo)
	s.mux.HandleFunc("DELETE /v1/sessions/{id}", s.handleSessionDelete)
	s.mux.HandleFunc("POST /v1/sessions/{id}/events", s.handleSessionEvents)
	s.mux.HandleFunc("POST /v1/sessions/{id}/flush", s.handleSessionFlush)
	s.mux.HandleFunc("GET /v1/sessions/{id}/placement", s.handleSessionPlacement)
	s.mux.HandleFunc("PUT /v1/replica/instances/{id}", s.handleReplicaPush)
	s.mux.HandleFunc("DELETE /v1/replica/instances/{id}", s.handleReplicaDelete)
	s.mux.HandleFunc("GET /v1/replica/instances", s.handleReplicaList)
	s.mux.HandleFunc("POST /v1/cluster/drain", s.handleClusterDrain)
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /readyz", s.handleReady)
	s.mux.HandleFunc("GET /statz", s.handleStats)
	s.setupPeers()
	// New builds a complete in-memory server: ready immediately. Open
	// re-clears the flag while recovery replays WALs.
	s.ready.Store(true)
	return s
}

// Open assembles a server like New and, when cfg.DataDir is set,
// attaches the persistence layer: the data directory is created if
// needed, previously snapshotted instances are reloaded, and every
// durable session is rebuilt from its snapshot plus WAL replay — its
// placements, accounting, and counters byte-identical to a server that
// never stopped (see docs/persistence.md). Individually damaged files
// are logged and skipped; only directory-level failures error.
func Open(cfg Config) (*Server, error) {
	s := New(cfg)
	if cfg.DataDir == "" {
		return s, nil
	}
	s.ready.Store(false) // unready until recovery completes
	st, err := openStore(cfg.DataDir, cfg.NoSync, cfg.FsyncInterval)
	if err != nil {
		return nil, err
	}
	s.store = st
	if err := s.recoverState(); err != nil {
		return nil, err
	}
	s.ready.Store(true)
	return s, nil
}

// Close flushes and closes every open session WAL. The server must not
// be used afterwards; a server killed without Close loses nothing acked
// (that is the recovery property the crash tests assert), Close merely
// releases the file handles promptly.
func (s *Server) Close() {
	if s.health != nil {
		s.health.Close()
	}
	for _, sess := range s.sessions.list() {
		sess.mu.Lock()
		if sess.log != nil {
			sess.log.close()
			sess.log = nil
		}
		sess.mu.Unlock()
	}
}

// Handler returns the server's HTTP handler: the route mux behind the
// resilience middleware (deadline propagation, retry accounting — see
// serveHTTP in resilience.go).
func (s *Server) Handler() http.Handler { return http.HandlerFunc(s.serveHTTP) }

// Engine returns the server's solve engine, for embedding and tests.
func (s *Server) Engine() *Engine { return s.engine }

// PeerHealth returns the server's per-peer breaker tracker, nil on a
// standalone server. The forwarding proxy shares it (Proxy.UseHealth)
// so the proxy and the server's own peer clients agree on which
// replicas are down.
func (s *Server) PeerHealth() *PeerHealth { return s.health }

// Stats snapshots the service counters.
func (s *Server) Stats() Stats {
	hits := s.counters.hits.Load()
	misses := s.counters.misses.Load()
	rate := 0.0
	if hits+misses > 0 {
		rate = float64(hits) / float64(hits+misses)
	}
	scenarios := s.counters.scenarios.Load()
	incr := s.counters.incremental.Load()
	incrRate := 0.0
	if scenarios > 0 {
		incrRate = float64(incr) / float64(scenarios)
	}
	return Stats{
		UptimeSeconds:      time.Since(s.start).Seconds(),
		Instances:          s.engine.registry.Len(),
		InstanceBytes:      s.engine.registry.UsedBytes(),
		MemoryBudget:       s.cfg.MemoryBudget,
		Evictions:          s.counters.evictions.Load(),
		CacheEntries:       s.engine.CacheLen(),
		CacheHits:          hits,
		CacheMisses:        misses,
		CacheHitRate:       rate,
		SolvesTotal:        s.counters.runs.Load(),
		Workers:            s.cfg.Workers,
		SharedSolves:       s.counters.shared.Load(),
		InFlightSolves:     s.counters.inflight.Load(),
		LentSlots:          s.counters.lentSlots.Load(),
		SolveErrors:        s.counters.errors.Load(),
		Simulations:        s.counters.simulations.Load(),
		WhatIfScenarios:    scenarios,
		WhatIfIncremental:  incr,
		WhatIfFull:         s.counters.fullScenarios.Load(),
		IncrementalHitRate: incrRate,
		ObjectsResolved:    s.counters.objectsResolved.Load(),
		ObjectsSpliced:     s.counters.objectsSpliced.Load(),
		SessionsOpen:       s.sessions.len(),
		SessionsOpened:     s.counters.sessionsOpened.Load(),
		SessionEvents:      s.counters.sessionEvents.Load(),
		SessionEpochs:      s.counters.sessionEpochs.Load(),
		SessionResolves:    s.counters.sessionResolves.Load(),
		SessionMoves:       s.counters.sessionMoves.Load(),
		Persistence:        s.store != nil,
		PersistErrors:      s.counters.persistErrors.Load(),
		RecoveredSessions:  s.counters.recoveredSessions.Load(),
		WALDiscardedBytes:  s.counters.walDiscarded.Load(),
		Ready:              s.Ready(),
		Draining:           s.draining.Load(),
		Sheds:              s.counters.sheds.Load(),
		MaxSolveQueue:      s.cfg.MaxSolveQueue,
		QueueDepth:         s.counters.queued.Load(),
		QueueHighWater:     s.counters.queueHighWater.Load(),
		StaleReads:         s.counters.staleReads.Load(),
		RetriesObserved:    s.counters.retriesObserved.Load(),
		DeadlineRejects:    s.counters.deadlineRejects.Load(),
		DedupedBatches:     s.counters.dedupedBatches.Load(),
		Peers:              s.livePeers(),
		PeerHealth:         s.peerHealthStates(),
		BreakerOpens:       s.breakerOpens(),
		ReplicaInstances:   s.replicas.len(),
		FailoverReads:      s.counters.failoverReads.Load(),
		ReplicaPushes:      s.counters.replicaPushes.Load(),
		ReplicaPushErrors:  s.counters.replicaPushErrors.Load(),
	}
}

// livePeers is the current peer count — membership drains shrink it.
func (s *Server) livePeers() int {
	if s.peers == nil {
		return 0
	}
	return s.peers.len()
}

// peerHealthStates snapshots the breaker states for /statz, nil on a
// standalone server.
func (s *Server) peerHealthStates() map[string]string {
	if s.health == nil {
		return nil
	}
	return s.health.States()
}

// breakerOpens is the total breaker open-transition count.
func (s *Server) breakerOpens() int64 {
	if s.health == nil {
		return 0
	}
	return s.health.Opens()
}

// errorJSON is the wire form of every error response.
type errorJSON struct {
	Error string `json:"error"`
}

// writeJSON renders v with status code.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // headers are out; nothing left to do
}

// writeError maps an error to a status code and renders it. Shed
// requests get 429 with a Retry-After hint so well-behaved clients
// (Client's RetryPolicy honors it) back off instead of hammering.
// Rejections that provably happened before any state change (admission
// shed, on-arrival deadline reject) carry HeaderShed so the client may
// retry them even on non-idempotent calls; a mid-request
// context.DeadlineExceeded does not — the work may already be applied.
func writeError(w http.ResponseWriter, err error) {
	code := http.StatusBadRequest
	switch {
	case errors.Is(err, ErrNotFound):
		code = http.StatusNotFound
	case errors.Is(err, ErrOverloaded):
		code = http.StatusTooManyRequests
		w.Header().Set("Retry-After", strconv.Itoa(shedRetryAfter))
		w.Header().Set(HeaderShed, "1")
	case errors.Is(err, ErrDeadlineUnmeetable):
		code = http.StatusGatewayTimeout
		w.Header().Set(HeaderShed, "1")
	case errors.Is(err, ErrReplicaDown):
		// A typed replica-down refusal (the target's circuit breaker is
		// open): 503 naming the replica, with the breaker's reopen time as
		// the Retry-After hint (at least 1s — the header has whole-second
		// resolution).
		code = http.StatusServiceUnavailable
		var rde *ReplicaDownError
		replica, after := "", time.Duration(0)
		if errors.As(err, &rde) {
			replica, after = rde.Replica, rde.RetryAfter
		}
		var ae *APIError
		if replica == "" && errors.As(err, &ae) {
			replica, after = ae.ReplicaDown, ae.RetryAfter
		}
		w.Header().Set(HeaderReplicaDown, replica)
		secs := int(after.Round(time.Second) / time.Second)
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(secs))
	case errors.Is(err, ErrInternal):
		code = http.StatusInternalServerError
	case errors.Is(err, context.Canceled):
		code = 499 // client closed request (nginx convention)
	case errors.Is(err, context.DeadlineExceeded):
		code = http.StatusGatewayTimeout
	}
	writeJSON(w, code, errorJSON{Error: err.Error()})
}

// decodeBody decodes a JSON request body into v, rejecting unknown fields
// so client typos fail loudly instead of silently solving the wrong thing.
func decodeBody(w http.ResponseWriter, r *http.Request, maxBytes int64, v any) error {
	r.Body = http.MaxBytesReader(w, r.Body, maxBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("service: bad request body: %w", err)
	}
	return nil
}

// UploadRequest is the body of POST /instances.
type UploadRequest struct {
	// Name optionally labels the instance; identity is still the content
	// hash, so the label does not distinguish otherwise-equal uploads.
	Name string `json:"name,omitempty"`
	// Instance is the problem in the shared wire format.
	Instance encode.InstanceJSON `json:"instance"`
}

// UploadResponse is the body of a successful upload.
type UploadResponse struct {
	InstanceInfo
	// Created is false when an identical instance was already resident.
	Created bool `json:"created"`
}

func (s *Server) handleUpload(w http.ResponseWriter, r *http.Request) {
	var req UploadRequest
	if err := decodeBody(w, r, s.cfg.MaxUploadBytes, &req); err != nil {
		writeError(w, err)
		return
	}
	in, err := req.Instance.Instance()
	if err != nil {
		writeError(w, err)
		return
	}
	info, created := s.engine.registry.Add(req.Name, in)
	if s.store != nil {
		// Saved on every upload, not only creations: re-uploads refresh the
		// label and retry a previously failed save. Identity is the content
		// hash, so the snapshot's payload never changes for a given id.
		if err := s.store.saveInstance(info.ID, info.Name, in); err != nil {
			s.counters.persistErrors.Add(1)
			writeError(w, fmt.Errorf("%w: persisting instance: %v", ErrInternal, err))
			return
		}
	}
	// Replicate the accepted upload to the ring successor so instance
	// reads survive this replica's failure (degraded failover; see
	// replica.go). Synchronous but PeerTimeout-bounded and best-effort.
	s.pushToSuccessor(info.ID, info.Name, in)
	code := http.StatusOK
	if created {
		code = http.StatusCreated
	}
	writeJSON(w, code, UploadResponse{InstanceInfo: info, Created: created})
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.engine.registry.List())
}

func (s *Server) handleInfo(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	_, info, ok := s.engine.registry.Get(id)
	if !ok {
		if replicaFallbackAllowed(r) && s.replicaInfo(w, r, id) {
			return
		}
		writeError(w, ErrNotFound)
		return
	}
	writeJSON(w, http.StatusOK, info)
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !s.engine.registry.Delete(id) {
		writeError(w, ErrNotFound)
		return
	}
	// Propagate to the successor's snapshot store so a deleted instance
	// cannot keep being served by failover reads.
	s.dropFromSuccessor(id)
	if s.store != nil {
		if err := s.store.deleteInstance(id); err != nil {
			// Memory state is already correct; the stale snapshot would
			// resurrect the instance on restart, so surface it loudly.
			s.counters.persistErrors.Add(1)
			writeError(w, fmt.Errorf("%w: deleting instance snapshot: %v", ErrInternal, err))
			return
		}
	}
	w.WriteHeader(http.StatusNoContent)
}

// SolveRequest is the body of POST /instances/{id}/solve. An empty body is
// also accepted and means default options.
type SolveRequest struct {
	Options SolveOptions `json:"options"`
}

func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	var req SolveRequest
	if r.ContentLength != 0 {
		if err := decodeBody(w, r, s.cfg.MaxUploadBytes, &req); err != nil {
			writeError(w, err)
			return
		}
	}
	res, err := s.engine.Solve(r.Context(), r.PathValue("id"), req.Options)
	if err != nil {
		if errors.Is(err, ErrNotFound) && replicaFallbackAllowed(r) &&
			s.replicaSolve(w, r, r.PathValue("id"), req.Options) {
			// Degraded failover: this replica only holds the instance as a
			// read-only snapshot for its down predecessor; the caller opted
			// into stale serving, so answer from the snapshot (Stale=true).
			return
		}
		if errors.Is(err, ErrOverloaded) && r.Header.Get(HeaderAllowStale) != "" {
			// Degraded mode: the request opted in, so overload serves the
			// last completed placement (flagged, with its age) instead of
			// shedding — stale beats unavailable for read-mostly callers.
			if stale, age, ok := s.engine.StaleResult(r.PathValue("id")); ok {
				s.counters.staleReads.Add(1)
				stale.Stale = true
				stale.StaleSeconds = age.Seconds()
				w.Header().Set(HeaderStale, strconv.FormatFloat(stale.StaleSeconds, 'f', 3, 64))
				writeJSON(w, http.StatusOK, stale)
				return
			}
		}
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

// WhatIfRequest is the body of POST /instances/{id}/whatif. Exactly one of
// Variants and Scenarios must be non-empty: Variants solves the resident
// instance under several options (the historical batch form); Scenarios
// solves modified copies of the instance under one shared Options,
// incrementally where only object workloads changed.
type WhatIfRequest struct {
	Variants []SolveOptions `json:"variants,omitempty"`
	// Options applies to every scenario (default options when omitted).
	Options   SolveOptions `json:"options,omitzero"`
	Scenarios []Scenario   `json:"scenarios,omitempty"`
}

// WhatIfResponse carries per-variant outcomes, index-aligned with the
// request: exactly one of Result / Error is set per slot.
type WhatIfResponse struct {
	Results []WhatIfOutcome `json:"results"`
}

// WhatIfOutcome is one variant's result or error.
type WhatIfOutcome struct {
	Result *SolveResult `json:"result,omitempty"`
	Error  string       `json:"error,omitempty"`
}

func (s *Server) handleWhatIf(w http.ResponseWriter, r *http.Request) {
	var req WhatIfRequest
	if err := decodeBody(w, r, s.cfg.MaxUploadBytes, &req); err != nil {
		writeError(w, err)
		return
	}
	if len(req.Variants) == 0 && len(req.Scenarios) == 0 {
		writeError(w, fmt.Errorf("service: whatif needs at least one variant or scenario"))
		return
	}
	if len(req.Variants) > 0 && len(req.Scenarios) > 0 {
		writeError(w, fmt.Errorf("service: whatif takes variants or scenarios, not both"))
		return
	}
	if n := len(req.Variants) + len(req.Scenarios); n > s.cfg.MaxBatchVariants {
		writeError(w, fmt.Errorf("service: whatif batch of %d exceeds the %d-variant limit",
			n, s.cfg.MaxBatchVariants))
		return
	}
	var results []SolveResult
	var errs []error
	if len(req.Variants) > 0 {
		results, errs = s.engine.Batch(r.Context(), r.PathValue("id"), req.Variants)
	} else {
		results, errs = s.engine.WhatIf(r.Context(), r.PathValue("id"), req.Options, req.Scenarios)
	}
	resp := WhatIfResponse{Results: make([]WhatIfOutcome, len(results))}
	for i := range results {
		if errs[i] != nil {
			resp.Results[i].Error = errs[i].Error()
		} else {
			res := results[i]
			resp.Results[i].Result = &res
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// PlacementRequest is the body of cost and simulate calls: a placement in
// the shared wire format, keyed by object name.
type PlacementRequest struct {
	Placement encode.PlacementJSON `json:"placement"`
}

func (s *Server) handleCost(w http.ResponseWriter, r *http.Request) {
	var req PlacementRequest
	if err := decodeBody(w, r, s.cfg.MaxUploadBytes, &req); err != nil {
		writeError(w, err)
		return
	}
	b, err := s.engine.Cost(r.PathValue("id"), req.Placement)
	if err != nil {
		if errors.Is(err, ErrNotFound) && replicaFallbackAllowed(r) &&
			s.replicaCost(w, r, r.PathValue("id"), req.Placement) {
			return
		}
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, b)
}

func (s *Server) handleSimulate(w http.ResponseWriter, r *http.Request) {
	var req PlacementRequest
	if err := decodeBody(w, r, s.cfg.MaxUploadBytes, &req); err != nil {
		writeError(w, err)
		return
	}
	st, err := s.engine.Simulate(r.PathValue("id"), req.Placement)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("cluster") != "" {
		writeJSON(w, http.StatusOK, s.clusterStats(r.Context()))
		return
	}
	writeJSON(w, http.StatusOK, s.Stats())
}

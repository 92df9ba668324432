package service

import (
	"context"
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"strings"
	"sync"

	"netplace/internal/core"
	"netplace/internal/encode"
	"netplace/internal/stream"
	"netplace/internal/workload"
)

// SessionConfig is the wire form of a streaming session's tuning knobs,
// lowered onto stream.Config (zero fields select the stream defaults).
type SessionConfig struct {
	// Epoch is the number of events per re-placement epoch.
	Epoch int `json:"epoch,omitempty"`
	// Window is the sliding-window width in epochs (ignored when Alpha
	// is set).
	Window int `json:"window,omitempty"`
	// Alpha switches the estimator to an EWMA with this per-epoch weight.
	Alpha float64 `json:"alpha,omitempty"`
	// Horizon is the event count one storage fee amortises over when
	// estimates are quantised for the solver.
	Horizon int `json:"horizon,omitempty"`
	// Payback is the number of epochs a move's estimated saving must pay
	// its migration cost back within; negative takes any improving move.
	Payback float64 `json:"payback,omitempty"`
	// MigrationFactor scales the migration price in the hysteresis
	// decision; negative disables hysteresis.
	MigrationFactor float64 `json:"migration_factor,omitempty"`
	// Options configures the per-epoch re-solve (approx algorithm only;
	// each close re-solves just the objects whose estimates changed).
	Options SolveOptions `json:"options,omitzero"`
}

// sessionConfig lowers a session's wire config to a stream.Config for a
// session over in, bounding its estimator before stream.New allocates
// it: a sliding window keeps 2 × Window count matrices of objects ×
// nodes int64s, so that ring must fit the registry's memory budget
// (DefaultMemoryBudget when eviction is disabled). An EWMA keeps no ring.
func (s *Server) sessionConfig(c SessionConfig, in *core.Instance) (stream.Config, error) {
	opts, err := c.Options.normalize()
	if err != nil {
		return stream.Config{}, err
	}
	if opts.Algo != "approx" {
		return stream.Config{}, fmt.Errorf("service: sessions re-solve with algo=approx only (got %q)", opts.Algo)
	}
	if c.Alpha < 0 || c.Alpha > 1 {
		return stream.Config{}, fmt.Errorf("service: session alpha %v outside [0, 1]", c.Alpha)
	}
	if c.Alpha == 0 {
		budget := s.cfg.MemoryBudget
		if budget < 0 {
			budget = DefaultMemoryBudget
		}
		window := int64(c.Window)
		if window <= 0 {
			window = stream.DefaultWindow
		}
		perEpoch := 16 * int64(len(in.Objects)) * int64(in.N())
		if perEpoch > 0 && window > budget/perEpoch {
			return stream.Config{}, fmt.Errorf("service: session window of %d epochs over %d objects × %d nodes needs more than the %d-byte memory budget (at most %d epochs)",
				window, len(in.Objects), in.N(), budget, budget/perEpoch)
		}
	}
	return stream.Config{
		Epoch:           c.Epoch,
		Window:          c.Window,
		Alpha:           c.Alpha,
		Horizon:         c.Horizon,
		Payback:         c.Payback,
		MigrationFactor: c.MigrationFactor,
		Solve:           opts.coreOptions(s.engine.runWorkers()),
	}, nil
}

// Session is one live streaming re-placement session over a resident
// instance: it owns a stream.Engine and serialises access to it. The
// session pins its instance, so registry eviction does not invalidate
// it; abandoned sessions hold that pin until an explicit DELETE, which
// is what MaxSessions bounds.
type Session struct {
	// ID identifies the session in URLs.
	ID string
	// InstanceID is the registry id the session was opened against.
	InstanceID string

	mu       sync.Mutex
	engine   *stream.Engine
	instance *core.Instance
	objIndex map[string]int // wire object name → index, immutable
	log      *sessionLog    // nil: server has no data dir
	lastSeq  int64          // highest applied client sequence number (idempotent ingest)
}

// SessionRequest is the body of POST /v1/sessions.
type SessionRequest struct {
	// InstanceID names the resident instance to stream against.
	InstanceID string `json:"instance_id"`
	// Config tunes the session; zero fields select defaults.
	Config SessionConfig `json:"config,omitzero"`
}

// SessionInfo is the wire form of a session record.
type SessionInfo struct {
	// SessionID addresses the session under /v1/sessions/{id}. It is
	// minted as "<instance id>.s-<counter>" (see SessionInstanceID), so
	// every replica of a cluster routes it to the instance's owner.
	SessionID string `json:"session_id"`
	// InstanceID is the instance the session streams against.
	InstanceID string `json:"instance_id"`
	// Epoch/Window/Alpha/Horizon/Payback/MigrationFactor echo the
	// resolved engine configuration.
	Epoch           int     `json:"epoch"`
	Window          int     `json:"window"`
	Alpha           float64 `json:"alpha,omitempty"`
	Horizon         int     `json:"horizon"`
	Payback         float64 `json:"payback"`
	MigrationFactor float64 `json:"migration_factor"`
	// Stats snapshots the session's accounting so far.
	Stats SessionStats `json:"stats"`
	// LastSeq is the highest applied client sequence number (0 when the
	// session has only seen unsequenced batches) — the resume point for
	// idempotent ingest.
	LastSeq int64 `json:"last_seq,omitempty"`
}

// SessionStats is the wire form of stream.Stats: the session's exact
// cost accounting (pro-rata storage over observed events) plus the
// adaptation counters.
type SessionStats struct {
	Events       int     `json:"events"`
	Epochs       int     `json:"epochs"`
	Resolves     int     `json:"resolves"`
	Moves        int     `json:"moves"`
	Rejected     int     `json:"rejected"`
	Transmission float64 `json:"transmission"`
	Storage      float64 `json:"storage"`
	Migration    float64 `json:"migration"`
	Total        float64 `json:"total"`
}

func sessionStats(s stream.Stats) SessionStats {
	return SessionStats{
		Events: s.Events, Epochs: s.Epochs, Resolves: s.Resolves,
		Moves: s.Moves, Rejected: s.Rejected,
		Transmission: s.Transmission, Storage: s.Storage,
		Migration: s.Migration, Total: s.Total(),
	}
}

// SessionEvent is one streamed request event, addressed like a trace
// line: object by wire name, issuing node, read or write. Count > 1
// expands to that many identical events.
type SessionEvent struct {
	Obj   string `json:"obj"`
	Node  int    `json:"node"`
	Write bool   `json:"write,omitempty"`
	Count int    `json:"count,omitempty"`
}

// SessionEventsRequest is the body of POST /v1/sessions/{id}/events.
// Seq, when positive, is the batch's client sequence number and makes
// the ingest idempotent: sequence numbers must be strictly increasing
// per session, and a batch whose Seq is at or below the session's
// high-water mark is acknowledged without being applied (the response
// sets Deduplicated) — so a retry after a torn response applies exactly
// once. The sequence number is journaled with the batch (and carried in
// snapshots), so deduplication survives crashes and restarts. Seq 0
// streams unsequenced, as before.
type SessionEventsRequest struct {
	Events []SessionEvent `json:"events"`
	Seq    int64          `json:"seq,omitempty"`
}

// SessionEpochJSON is the wire form of one closed epoch's report.
type SessionEpochJSON struct {
	Epoch        int     `json:"epoch"`
	Events       int     `json:"events"`
	Resolved     int     `json:"resolved"`
	Moved        int     `json:"moved"`
	Rejected     int     `json:"rejected"`
	Transmission float64 `json:"transmission"`
	Migration    float64 `json:"migration"`
}

// SessionEventsResponse reports what a batch of events caused: how many
// events were ingested and which epochs closed while ingesting them.
// Seq echoes the session's applied-sequence high-water mark;
// Deduplicated reports that the batch was recognised as already applied
// (its events were NOT re-ingested — Accepted is 0 and Stats reflects
// the original application).
type SessionEventsResponse struct {
	Accepted     int                `json:"accepted"`
	Epochs       []SessionEpochJSON `json:"epochs,omitempty"`
	Stats        SessionStats       `json:"stats"`
	Seq          int64              `json:"seq,omitempty"`
	Deduplicated bool               `json:"deduplicated,omitempty"`
}

// SessionPlacementResponse is the body of GET /v1/sessions/{id}/placement.
type SessionPlacementResponse struct {
	SessionID string `json:"session_id"`
	// Placement is the current copy sets in the shared wire format.
	// Objects not yet placed (no event seen, no epoch closed) are absent.
	Placement encode.PlacementJSON `json:"placement"`
	// Breakdown prices the current placement against the instance's own
	// frequency tables (the service's static model), when every object
	// is placed; omitted before the first full placement exists.
	Breakdown *BreakdownJSON `json:"breakdown,omitempty"`
	Stats     SessionStats   `json:"stats"`
}

// sessionIDSep joins a session id's instance id and its counter.
const sessionIDSep = ".s-"

// SessionInstanceID returns the id of the instance a session id names.
// Session ids are minted as "<instance id>.s-<counter>", so a session
// routes like its instance: any replica or client finds the owner from
// the id alone. ok is false for an id without the instance prefix.
func SessionInstanceID(id string) (instanceID string, ok bool) {
	instanceID, _, ok = strings.Cut(id, sessionIDSep)
	if !ok || instanceID == "" {
		return "", false
	}
	return instanceID, true
}

// sessions is the server's session table.
type sessions struct {
	mu   sync.Mutex
	m    map[string]*Session
	next int
}

// add registers a session under a fresh id minted from its instance id;
// cap is the configured session limit.
func (t *sessions) add(s *Session, cap int) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.m == nil {
		t.m = make(map[string]*Session)
	}
	if len(t.m) >= cap {
		return fmt.Errorf("service: session limit of %d reached", cap)
	}
	t.next++
	s.ID = fmt.Sprintf("%s%s%06x", s.InstanceID, sessionIDSep, t.next)
	t.m[s.ID] = s
	return nil
}

// restore re-registers a recovered session under its original id,
// bumping the id counter past it so new sessions never collide with
// recovered ones. Recovery bypasses the MaxSessions cap: the sessions
// were already admitted before the restart.
func (t *sessions) restore(s *Session) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.m == nil {
		t.m = make(map[string]*Session)
	}
	if _, ok := t.m[s.ID]; ok {
		return fmt.Errorf("service: duplicate session id %s", s.ID)
	}
	t.m[s.ID] = s
	t.bumpLocked(s.ID)
	return nil
}

// reserve bumps the id counter past an on-disk session id that could
// not be recovered, so its leftover files are never clobbered by a new
// session minted under the same id.
func (t *sessions) reserve(id string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.bumpLocked(id)
}

// bumpLocked advances next past a recovered id's counter. Called with
// t.mu held.
func (t *sessions) bumpLocked(id string) {
	var n int
	_, counter, _ := strings.Cut(id, sessionIDSep)
	if _, err := fmt.Sscanf(counter, "%x", &n); err == nil && n > t.next {
		t.next = n
	}
}

func (t *sessions) get(id string) (*Session, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	s, ok := t.m[id]
	return s, ok
}

func (t *sessions) delete(id string) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.m[id]; !ok {
		return false
	}
	delete(t.m, id)
	return true
}

func (t *sessions) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.m)
}

func (t *sessions) list() []*Session {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]*Session, 0, len(t.m))
	for _, s := range t.m {
		out = append(out, s)
	}
	return out
}

// info snapshots a session's wire record under its lock.
func (s *Session) info() SessionInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	cfg := s.engine.Config()
	return SessionInfo{
		SessionID: s.ID, InstanceID: s.InstanceID,
		Epoch: cfg.Epoch, Window: cfg.Window, Alpha: cfg.Alpha,
		Horizon: cfg.Horizon, Payback: cfg.Payback, MigrationFactor: cfg.MigrationFactor,
		Stats:   sessionStats(s.engine.Stats()),
		LastSeq: s.lastSeq,
	}
}

func (s *Server) handleSessionOpen(w http.ResponseWriter, r *http.Request) {
	var req SessionRequest
	if err := decodeBody(w, r, s.cfg.MaxUploadBytes, &req); err != nil {
		writeError(w, err)
		return
	}
	in, info, ok := s.engine.registry.Get(req.InstanceID)
	if !ok {
		writeError(w, ErrNotFound)
		return
	}
	cfg, err := s.sessionConfig(req.Config, in)
	if err != nil {
		writeError(w, err)
		return
	}
	sess := &Session{
		InstanceID: info.ID,
		instance:   in,
		objIndex:   stream.ObjectIndex(in),
		engine:     stream.New(in, cfg),
	}
	// Each epoch quantises an object's estimated rates, which sum to at
	// most one per event, into at most Horizon requests plus one per node
	// from rounding; the re-solves must pass the uploads' fee bound.
	if err := in.CheckRequests(float64(sess.engine.Config().Horizon) + float64(in.N())); err != nil {
		writeError(w, err)
		return
	}
	if err := s.sessions.add(sess, s.cfg.MaxSessions); err != nil {
		writeError(w, err)
		return
	}
	if s.store != nil {
		l, err := s.persistNewSession(sess, req.Config)
		if err != nil {
			// Roll the open back: an unacked session must not linger
			// half-persisted in memory or on disk.
			s.sessions.delete(sess.ID)
			s.store.removeSessionFiles(sess.ID)
			s.counters.persistErrors.Add(1)
			writeError(w, fmt.Errorf("%w: persisting session: %v", ErrInternal, err))
			return
		}
		sess.log = l
	}
	s.counters.sessionsOpened.Add(1)
	writeJSON(w, http.StatusCreated, sess.info())
}

func (s *Server) handleSessionList(w http.ResponseWriter, r *http.Request) {
	out := []SessionInfo{}
	for _, sess := range s.sessions.list() {
		out = append(out, sess.info())
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleSessionInfo(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.sessions.get(r.PathValue("id"))
	if !ok {
		writeError(w, ErrNotFound)
		return
	}
	writeJSON(w, http.StatusOK, sess.info())
}

func (s *Server) handleSessionDelete(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.sessions.get(r.PathValue("id"))
	if !ok || !s.sessions.delete(sess.ID) {
		// The second check loses a race against a concurrent DELETE of the
		// same id; exactly one of the two removes the files below.
		writeError(w, ErrNotFound)
		return
	}
	// Take the session lock so an in-flight ingest finishes before the
	// files go away; new requests can no longer find the session.
	sess.mu.Lock()
	if sess.log != nil {
		if err := sess.log.remove(); err != nil {
			s.counters.persistErrors.Add(1)
		}
		sess.log = nil
	}
	sess.mu.Unlock()
	w.WriteHeader(http.StatusNoContent)
}

// maxSessionEventBatch bounds one events call after count expansion, so a
// single request cannot hold a session's lock for unbounded work.
const maxSessionEventBatch = 1 << 20

func (s *Server) handleSessionEvents(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.sessions.get(r.PathValue("id"))
	if !ok {
		writeError(w, ErrNotFound)
		return
	}
	var req SessionEventsRequest
	if err := decodeBody(w, r, s.cfg.MaxUploadBytes, &req); err != nil {
		writeError(w, err)
		return
	}
	if len(req.Events) == 0 {
		writeError(w, fmt.Errorf("service: events batch is empty"))
		return
	}
	if req.Seq < 0 {
		writeError(w, fmt.Errorf("service: negative batch seq %d", req.Seq))
		return
	}

	sess.mu.Lock()
	defer sess.mu.Unlock()
	if req.Seq > 0 && req.Seq <= sess.lastSeq {
		// Idempotent retry: this sequence number (or a later one) was
		// already applied and acknowledged — or the response carrying the
		// ack was torn. Either way the events are in; acknowledge again
		// without re-applying.
		s.counters.dedupedBatches.Add(1)
		writeJSON(w, http.StatusOK, SessionEventsResponse{
			Deduplicated: true,
			Seq:          sess.lastSeq,
			Stats:        sessionStats(sess.engine.Stats()),
		})
		return
	}
	// Validate the whole batch before the first Observe: ingestion must
	// be all-or-nothing, so a failed request never leaves the session's
	// estimates skewed by a half-applied prefix that a retry would then
	// double-count.
	idx := sess.objIndex
	objOf := make([]int, len(req.Events))
	total := 0
	for i, ev := range req.Events {
		oi, ok := idx[ev.Obj]
		if !ok {
			writeError(w, fmt.Errorf("service: events[%d]: unknown object %q", i, ev.Obj))
			return
		}
		if ev.Node < 0 || ev.Node >= sess.instance.N() {
			writeError(w, fmt.Errorf("service: events[%d]: node %d out of range [0,%d)", i, ev.Node, sess.instance.N()))
			return
		}
		objOf[i] = oi
		count := ev.Count
		if count <= 0 {
			count = 1
		}
		// Per-event cap before summing: a huge count must not overflow
		// the running total past the batch check.
		if count > maxSessionEventBatch {
			writeError(w, fmt.Errorf("service: events[%d]: count %d exceeds the %d-event batch cap", i, count, maxSessionEventBatch))
			return
		}
		if total += count; total > maxSessionEventBatch {
			writeError(w, fmt.Errorf("service: events batch expands past %d events", maxSessionEventBatch))
			return
		}
	}
	resp, err := s.applyBatch(r.Context(), sess, req, objOf, total)
	if err != nil {
		writeError(w, err)
		return
	}
	if req.Seq > 0 {
		sess.lastSeq = req.Seq
	}
	resp.Seq = sess.lastSeq
	if sess.log != nil && len(resp.Epochs) > 0 {
		// Epoch boundary: snapshot the engine state and truncate the log
		// (rotate to a fresh generation). Failure is benign for
		// correctness — the old snapshot plus the intact WAL still replays
		// to exactly this state — so the batch is still acked.
		if err := sess.log.rotate(sess.engine.State(), sess.lastSeq); err != nil {
			s.counters.persistErrors.Add(1)
			log.Printf("service: session %s: %v", sess.ID, err)
		}
	}
	resp.Stats = sessionStats(sess.engine.Stats())
	writeJSON(w, http.StatusOK, resp)
}

// applyBatch journals a validated batch of total expanded events and
// feeds it to the session's engine. Called with sess.mu held. A batch
// that will close an epoch first takes the re-solve's worker slot, plus
// any free slots it can borrow to widen its closes (see lend), and holds
// them until the last Observe returns; a cancelled or expired wait
// returns the context's error with nothing journaled or applied, so
// every applied epoch re-solves and a retry applies the batch.
func (s *Server) applyBatch(ctx context.Context, sess *Session, req SessionEventsRequest, objOf []int, total int) (SessionEventsResponse, error) {
	var resp SessionEventsResponse
	if sess.engine.Pending()+total >= sess.engine.Config().Epoch {
		release, err := s.engine.slot(ctx)
		if err != nil {
			return resp, err
		}
		defer release()
		workers, giveBack := s.engine.lend(len(sess.instance.Objects))
		defer giveBack()
		sess.engine.SetWorkers(workers)
	}
	if sess.log != nil {
		// Journal the expanded batch and make it durable BEFORE the first
		// Observe: an acked batch can always be replayed, and a crash
		// between sync and apply just replays the full WAL to the same
		// state (the client never saw an ack, and ingestion stays
		// all-or-nothing either way). Count lines are expanded to one
		// event per line so a torn tail costs at most one event's bytes.
		lines := make([][]byte, 0, total)
		for i, ev := range req.Events {
			line, err := json.Marshal(stream.EventJSON{Obj: ev.Obj, Node: ev.Node, Write: ev.Write})
			if err != nil {
				return resp, fmt.Errorf("%w: events[%d]: %v", ErrInternal, i, err)
			}
			line = append(line, '\n')
			count := ev.Count
			if count <= 0 {
				count = 1
			}
			for k := 0; k < count; k++ {
				lines = append(lines, line)
			}
		}
		if err := sess.log.append(lines, req.Seq); err != nil {
			// The log rolled itself back to the durable prefix; the engine
			// never saw the batch, so memory and disk still agree.
			s.counters.persistErrors.Add(1)
			return resp, fmt.Errorf("%w: %v", ErrInternal, err)
		}
	}
	for i, ev := range req.Events {
		count := ev.Count
		if count <= 0 {
			count = 1
		}
		for k := 0; k < count; k++ {
			rep, err := sess.engine.Observe(workload.Request{Obj: objOf[i], V: ev.Node, Write: ev.Write})
			if err != nil {
				// Unreachable after validation; surface as internal.
				return resp, fmt.Errorf("%w: events[%d]: %v", ErrInternal, i, err)
			}
			resp.Accepted++
			s.counters.sessionEvents.Add(1)
			if rep != nil {
				resp.Epochs = append(resp.Epochs, s.recordEpoch(rep))
			}
		}
	}
	return resp, nil
}

// recordEpoch counts a closed epoch into the service counters and
// converts the report to wire form.
func (s *Server) recordEpoch(rep *stream.EpochReport) SessionEpochJSON {
	s.counters.sessionEpochs.Add(1)
	s.counters.sessionMoves.Add(int64(rep.Moved))
	s.counters.sessionResolves.Add(int64(rep.Resolved))
	return SessionEpochJSON{
		Epoch: rep.Epoch, Events: rep.Events,
		Resolved: rep.Resolved, Moved: rep.Moved, Rejected: rep.Rejected,
		Transmission: rep.Transmission, Migration: rep.Migration,
	}
}

// handleSessionFlush closes the session's open partial epoch (estimates
// refresh, re-placement runs), so a finished trace is fully accounted —
// the server-side counterpart of stream.Engine.Flush, used by
// cmd/netreplay's server mode to match in-process accounting.
func (s *Server) handleSessionFlush(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.sessions.get(r.PathValue("id"))
	if !ok {
		writeError(w, ErrNotFound)
		return
	}
	sess.mu.Lock()
	defer sess.mu.Unlock()
	resp := SessionEventsResponse{}
	if sess.engine.Pending() > 0 {
		// Take the re-solve's worker slot first: a cancelled or expired
		// wait closes nothing.
		release, err := s.engine.slot(r.Context())
		if err != nil {
			writeError(w, err)
			return
		}
		workers, giveBack := s.engine.lend(len(sess.instance.Objects))
		sess.engine.SetWorkers(workers)
		rep := sess.engine.Flush()
		giveBack()
		release()
		resp.Epochs = append(resp.Epochs, s.recordEpoch(rep))
	}
	if sess.log != nil {
		// A flush is the one state change the WAL does not record (it
		// closes a partial epoch without an event), so its durability IS
		// the snapshot rotation: on failure the flush is reported
		// not-durable and the client may retry. Rotation runs even when
		// the epoch was already empty, so a retry re-attempts exactly the
		// failed checkpoint.
		if err := sess.log.rotate(sess.engine.State(), sess.lastSeq); err != nil {
			s.counters.persistErrors.Add(1)
			writeError(w, fmt.Errorf("%w: flush not durable: %v", ErrInternal, err))
			return
		}
	}
	resp.Seq = sess.lastSeq
	resp.Stats = sessionStats(sess.engine.Stats())
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleSessionPlacement(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.sessions.get(r.PathValue("id"))
	if !ok {
		writeError(w, ErrNotFound)
		return
	}
	sess.mu.Lock()
	defer sess.mu.Unlock()
	p := sess.engine.Placement()
	resp := SessionPlacementResponse{
		SessionID: sess.ID,
		Placement: encode.PlacementJSON{Copies: map[string][]int{}},
		Stats:     sessionStats(sess.engine.Stats()),
	}
	complete := true
	for i, copies := range p.Copies {
		if len(copies) == 0 {
			complete = false
			continue
		}
		resp.Placement.Copies[wireObjectName(&sess.instance.Objects[i], i)] = copies
	}
	if complete && len(p.Copies) > 0 {
		b := breakdownJSON(sess.instance.Cost(p))
		resp.Breakdown = &b
	}
	writeJSON(w, http.StatusOK, resp)
}

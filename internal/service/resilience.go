package service

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"time"
)

// This file is the server half of the resilience layer (see
// docs/resilience.md): admission control over the solve queue, request
// deadline propagation with reject-on-arrival, the degraded stale-read
// mode, and the readiness/drain lifecycle. The client half (RetryPolicy,
// typed APIError) lives in client.go; idempotent session ingest in
// session.go and persist.go.

// Resilience wire headers. HeaderDeadline carries a Go duration string
// ("250ms", "2s") — the client's remaining budget for the request; the
// server rejects on arrival work it estimates cannot finish in time.
// HeaderRetry marks a retried request with its attempt number (sent by
// Client for attempts after the first; counted into /statz).
// HeaderAllowStale on a solve opts into the degraded mode: when the
// solver is saturated, serve the last completed placement instead of
// 429, flagged by HeaderStale carrying its age in seconds.
// HeaderShed marks an error response the server produced BEFORE
// applying anything (admission shed, on-arrival deadline reject) — the
// client may retry it even on non-idempotent calls. Its absence on a
// 502/504 means the status may have come from an intermediary after the
// backend did the work, so only idempotent calls retry those.
const (
	HeaderDeadline   = "X-Netplace-Deadline"
	HeaderRetry      = "X-Netplace-Retry"
	HeaderAllowStale = "X-Netplace-Allow-Stale"
	HeaderStale      = "X-Netplace-Stale-Seconds"
	HeaderShed       = "X-Netplace-Shed"
)

// ErrOverloaded reports that admission control shed the request: the
// solve queue already holds Workers+MaxSolveQueue admitted executions.
// The HTTP layer renders it as 429 with a Retry-After header; Client
// treats it as retryable. Match with errors.Is.
var ErrOverloaded = errors.New("service: overloaded, solve queue is full")

// ErrDeadlineUnmeetable reports that a request carried a deadline the
// server estimates it cannot meet, so it was rejected on arrival rather
// than queued to time out. Rendered as 504; match with errors.Is.
var ErrDeadlineUnmeetable = errors.New("service: request deadline cannot be met")

// shedRetryAfter is the Retry-After hint (seconds) attached to 429s.
const shedRetryAfter = 1

// admit claims a slot in the engine's bounded admission window
// (Workers executing + MaxSolveQueue waiting) and then a worker slot,
// returning the paired release. With shedding enabled, an admission
// beyond the window fails fast with ErrOverloaded instead of queueing;
// the high-water gauge records the rejected attempt too, so /statz
// shows the real pressure. ctx cancels the wait for a worker slot.
func (e *Engine) admit(ctx context.Context) (release func(), err error) {
	q := e.counters.queued.Add(1)
	e.counters.bumpHighWater(q)
	if e.cfg.MaxSolveQueue > 0 && q > int64(e.cfg.Workers+e.cfg.MaxSolveQueue) {
		e.counters.queued.Add(-1)
		e.counters.sheds.Add(1)
		return nil, ErrOverloaded
	}
	releaseSlot, err := e.slot(ctx)
	if err != nil {
		e.counters.queued.Add(-1)
		e.counters.errors.Add(1)
		return nil, err
	}
	return func() {
		releaseSlot()
		e.counters.queued.Add(-1)
	}, nil
}

// slot takes a worker slot, waiting until one frees or ctx ends, and
// returns its release. Unlike admit it never sheds: session epoch
// closes wait for their re-solve's slot.
func (e *Engine) slot(ctx context.Context) (release func(), err error) {
	select {
	case e.sem <- struct{}{}:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	e.counters.inflight.Add(1)
	return func() {
		e.counters.inflight.Add(-1)
		<-e.sem
	}, nil
}

// lend widens an algo=approx run that already holds its own worker slot:
// without waiting, it takes every further free slot the run's objects can
// use — at most ⌈min(objects, GOMAXPROCS) ÷ runWorkers()⌉ − 1 — and
// returns how many goroutines to place them on (slots held ×
// runWorkers(), capped at objects and GOMAXPROCS) with the release of the
// lent slots. A lender never waits, so two lending runs cannot deadlock,
// and it never takes a slot a request is blocked on in slot: a receive
// from a full buffered channel moves a blocked sender's value into the
// freed space before any later non-blocking send can take it. Lent slots
// are not admissions; queue_depth and in_flight_solves do not count them.
func (e *Engine) lend(objects int) (workers int, release func()) {
	per := e.runWorkers()
	useful := min(objects, runtime.GOMAXPROCS(0))
	lent := 0
lending:
	for (lent+1)*per < useful {
		select {
		case e.sem <- struct{}{}:
			lent++
		default:
			break lending
		}
	}
	e.counters.lentSlots.Add(int64(lent))
	return max(1, min((lent+1)*per, useful)), func() {
		for range lent {
			<-e.sem
		}
	}
}

// checkDeadline rejects on arrival a request whose context deadline is
// closer than the engine's smoothed estimate of one solver run — by the
// time it reached the front of the queue it would only burn a worker
// slot to produce a 504 anyway. Requests without a deadline, and engines
// that have not completed a run yet, always pass.
func (e *Engine) checkDeadline(ctx context.Context) error {
	dl, ok := ctx.Deadline()
	if !ok {
		return nil
	}
	est := e.solveEWMA.Load()
	if est <= 0 {
		return nil
	}
	if remaining := time.Until(dl); remaining < time.Duration(est) {
		e.counters.deadlineRejects.Add(1)
		return fmt.Errorf("%w: ~%v estimated vs %v remaining",
			ErrDeadlineUnmeetable, time.Duration(est).Round(time.Millisecond), remaining.Round(time.Millisecond))
	}
	return nil
}

// observeSolveTime folds a completed run's wall-clock time into the
// exponentially weighted estimate checkDeadline consults (weight 1/4 on
// the new sample — reactive enough to track instance churn, smooth
// enough to ignore one outlier).
func (e *Engine) observeSolveTime(d time.Duration) {
	for {
		old := e.solveEWMA.Load()
		next := int64(d)
		if old > 0 {
			next = (3*old + int64(d)) / 4
		}
		if e.solveEWMA.CompareAndSwap(old, next) {
			return
		}
	}
}

// staleEntry is one last-good solve kept for the degraded read path.
type staleEntry struct {
	res *SolveResult
	at  time.Time
}

// keepStale records a completed solve as the instance's last-good
// answer, for serving under overload. Keyed by instance content hash
// alone — not the options key the solve cache uses — because the
// degraded question is "what was this network's placement" rather than
// "this exact solve": a shed request with options nobody solved before
// (a cache miss by construction) still gets the freshest completed
// placement of the same instance. Bounded by the same LRU policy as the
// solve cache.
func (e *Engine) keepStale(hash string, res *SolveResult) {
	e.stale.Put(hash, &staleEntry{res: res, at: time.Now()})
}

// StaleResult returns the instance's last completed solve and its age —
// the degraded answer handleSolve serves when admission sheds a request
// that opted in via the X-Netplace-Allow-Stale header. The result
// carries the options of the run that produced it, which may differ
// from the shed request's. The boolean is false when no solve of this
// instance ever completed (or it aged out of the bounded cache).
func (e *Engine) StaleResult(id string) (SolveResult, time.Duration, bool) {
	_, info, ok := e.registry.Get(id)
	if !ok {
		return SolveResult{}, 0, false
	}
	v, ok := e.stale.Get(info.Hash)
	if !ok {
		return SolveResult{}, 0, false
	}
	ent := v.(*staleEntry)
	out := *ent.res
	return out, time.Since(ent.at), true
}

// Ready reports whether the server should receive traffic: recovery has
// finished (Open flips it on before returning) and drain has not begun.
func (s *Server) Ready() bool { return s.ready.Load() && !s.draining.Load() }

// BeginDrain marks the server draining: /readyz starts answering 503 so
// load balancers stop routing new work here, while in-flight requests
// (and the enclosing http.Server.Shutdown) complete normally. Idempotent.
func (s *Server) BeginDrain() { s.draining.Store(true) }

// Drain completes the durability story on shutdown: after BeginDrain
// (implied) and http.Server.Shutdown have quiesced traffic, it rotates
// every live durable session — final engine snapshot written and
// fsynced, WAL emptied — so the next startup recovers with zero WAL
// replay and wal_discarded_bytes == 0. Returns the first rotation error;
// later sessions are still drained (an un-drained session merely
// recovers by replay, as after a crash).
func (s *Server) Drain() error {
	s.BeginDrain()
	var first error
	for _, sess := range s.sessions.list() {
		sess.mu.Lock()
		if sess.log != nil {
			if err := sess.log.rotate(sess.engine.State(), sess.lastSeq); err != nil {
				s.counters.persistErrors.Add(1)
				if first == nil {
					first = err
				}
			}
		}
		sess.mu.Unlock()
	}
	return first
}

// handleReady is GET /readyz: 200 while the server should receive
// traffic, 503 during recovery or drain. Distinct from /healthz, which
// stays 200 as long as the process lives — a draining server is healthy
// but must be rotated out of load balancing.
func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	if !s.Ready() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
}

// serveHTTP is the resilience middleware in front of the route mux: it
// counts retried requests and lowers the X-Netplace-Deadline header onto
// the request context, so every handler (and the engine's queue wait)
// observes the client's budget. An already-expired deadline is rejected
// immediately as 504.
func (s *Server) serveHTTP(w http.ResponseWriter, r *http.Request) {
	if n, err := strconv.Atoi(r.Header.Get(HeaderRetry)); err == nil && n > 0 {
		s.counters.retriesObserved.Add(1)
	}
	if h := r.Header.Get(HeaderDeadline); h != "" {
		d, err := time.ParseDuration(h)
		if err != nil {
			writeError(w, fmt.Errorf("service: bad %s header %q: %v", HeaderDeadline, h, err))
			return
		}
		if d <= 0 {
			s.counters.deadlineRejects.Add(1)
			writeError(w, fmt.Errorf("%w: deadline %q already elapsed on arrival", ErrDeadlineUnmeetable, h))
			return
		}
		ctx, cancel := context.WithTimeout(r.Context(), d)
		defer cancel()
		r = r.WithContext(ctx)
	}
	s.mux.ServeHTTP(w, r)
}

package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// waitUntil polls cond for up to two seconds — for crossing a known
// goroutine handoff, never for correctness of the final state.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestOverloadShedsWith429 drives the admission controller to capacity:
// with one worker and a one-deep queue, a third concurrent solve must be
// shed with 429 + Retry-After while both admitted solves complete, and
// /readyz must flip to 503 the moment a drain begins.
func TestOverloadShedsWith429(t *testing.T) {
	ctx := context.Background()
	srv, c := newTestServer(t, Config{Workers: 1, MaxSolveQueue: 1})
	block := make(chan struct{})
	started := make(chan struct{}, 8)
	srv.engine.testHookSolveStart = func() { started <- struct{}{}; <-block }

	up, err := c.Upload(ctx, "overload", crashInstance(t))
	if err != nil {
		t.Fatal(err)
	}
	// Distinct FL solvers make distinct cache/singleflight keys, so the
	// three solves genuinely contend for the worker instead of sharing.
	solveErr := make(chan error, 2)
	go func() {
		_, err := c.Solve(ctx, up.ID, SolveOptions{FL: "local-search"})
		solveErr <- err
	}()
	<-started // A holds the worker
	go func() {
		_, err := c.Solve(ctx, up.ID, SolveOptions{FL: "greedy"})
		solveErr <- err
	}()
	waitUntil(t, "queue depth 2", func() bool { return srv.Stats().QueueDepth == 2 })

	// C arrives over capacity (1 worker + 1 queue slot): shed, typed.
	_, err = c.Solve(ctx, up.ID, SolveOptions{FL: "mettu-plaxton"})
	var ae *APIError
	if !errors.As(err, &ae) || ae.Status != http.StatusTooManyRequests {
		t.Fatalf("over-capacity solve: %v, want 429", err)
	}
	if !ae.Retryable() || ae.RetryAfter != time.Second {
		t.Fatalf("429 error: retryable=%v retryAfter=%v", ae.Retryable(), ae.RetryAfter)
	}
	if !strings.Contains(ae.Error(), "HTTP 429") {
		t.Fatalf("error text %q lacks the status", ae.Error())
	}

	// Readiness flips during drain; health stays up.
	if err := c.Ready(ctx); err != nil {
		t.Fatalf("readyz before drain: %v", err)
	}
	srv.BeginDrain()
	err = c.Ready(ctx)
	if !errors.As(err, &ae) || ae.Status != http.StatusServiceUnavailable {
		t.Fatalf("readyz during drain: %v, want 503", err)
	}
	if err := c.Health(ctx); err != nil {
		t.Fatalf("healthz during drain: %v", err)
	}

	// The admitted solves complete despite the drain and the shed.
	close(block)
	for i := 0; i < 2; i++ {
		if err := <-solveErr; err != nil {
			t.Fatalf("admitted solve %d failed: %v", i, err)
		}
	}
	waitUntil(t, "queue to empty", func() bool { return srv.Stats().QueueDepth == 0 })
	st := srv.Stats()
	if st.Sheds != 1 || st.QueueHighWater != 3 || st.MaxSolveQueue != 1 {
		t.Fatalf("stats sheds=%d highwater=%d maxqueue=%d, want 1/3/1", st.Sheds, st.QueueHighWater, st.MaxSolveQueue)
	}
	if st.Ready || !st.Draining {
		t.Fatalf("stats ready=%v draining=%v after BeginDrain", st.Ready, st.Draining)
	}
}

// TestStaleReadDegradedMode saturates the solver and asserts the two
// overload outcomes: without opt-in the request is shed with 429; with
// X-Netplace-Allow-Stale it gets the instance's last completed placement
// flagged stale, carrying the producing run's options and age.
func TestStaleReadDegradedMode(t *testing.T) {
	ctx := context.Background()
	srv, c := newTestServer(t, Config{Workers: 1, MaxSolveQueue: 1})
	up, err := c.Upload(ctx, "stale", crashInstance(t))
	if err != nil {
		t.Fatal(err)
	}
	// A clean solve seeds the last-good entry.
	if _, err := c.Solve(ctx, up.ID, SolveOptions{FL: "greedy"}); err != nil {
		t.Fatal(err)
	}

	block := make(chan struct{})
	started := make(chan struct{}, 8)
	srv.engine.testHookSolveStart = func() { started <- struct{}{}; <-block }
	defer close(block)
	bg := make(chan error, 2)
	go func() {
		_, err := c.Solve(ctx, up.ID, SolveOptions{FL: "local-search"})
		bg <- err
	}()
	<-started
	go func() {
		_, err := c.Solve(ctx, up.ID, SolveOptions{FL: "mettu-plaxton"})
		bg <- err
	}()
	waitUntil(t, "queue depth 2", func() bool { return srv.Stats().QueueDepth == 2 })

	// Saturated, no opt-in: shed.
	_, err = c.Solve(ctx, up.ID, SolveOptions{FL: "jain-vazirani"})
	var ae *APIError
	if !errors.As(err, &ae) || ae.Status != http.StatusTooManyRequests {
		t.Fatalf("no opt-in under saturation: %v, want 429", err)
	}
	// Saturated, opted in: degraded 200 with the greedy run's result.
	res, err := c.SolveStale(ctx, up.ID, SolveOptions{FL: "jain-vazirani"})
	if err != nil {
		t.Fatalf("stale solve: %v", err)
	}
	if !res.Stale || res.StaleSeconds < 0 || res.Options.FL != "greedy" {
		t.Fatalf("stale result: stale=%v age=%v opts=%+v", res.Stale, res.StaleSeconds, res.Options)
	}
	if len(res.Placement.Copies) == 0 {
		t.Fatal("stale result has no placement")
	}
	if st := srv.Stats(); st.StaleReads != 1 || st.Sheds != 2 {
		t.Fatalf("stats staleReads=%d sheds=%d, want 1/2", st.StaleReads, st.Sheds)
	}
}

// TestDeadlineHeaderMiddleware exercises X-Netplace-Deadline parsing and
// the reject-on-arrival path fed by the solve-time EWMA.
func TestDeadlineHeaderMiddleware(t *testing.T) {
	ctx := context.Background()
	srv, c := newTestServer(t, Config{})
	get := func(header string) int {
		req, _ := http.NewRequest(http.MethodGet, c.base+"/healthz", nil)
		if header != "" {
			req.Header.Set(HeaderDeadline, header)
		}
		resp, err := c.http.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := get("banana"); code != http.StatusBadRequest {
		t.Fatalf("malformed deadline: %d, want 400", code)
	}
	if code := get("-5ms"); code != http.StatusGatewayTimeout {
		t.Fatalf("elapsed deadline: %d, want 504", code)
	}
	if code := get("5s"); code != http.StatusOK {
		t.Fatalf("healthy deadline: %d, want 200", code)
	}
	if st := srv.Stats(); st.DeadlineRejects != 1 {
		t.Fatalf("deadlineRejects=%d, want 1", st.DeadlineRejects)
	}

	// Reject-on-arrival: with a 10s EWMA estimate, a 200ms budget is
	// turned away before touching the worker pool.
	up, err := c.Upload(ctx, "deadline", crashInstance(t))
	if err != nil {
		t.Fatal(err)
	}
	srv.engine.solveEWMA.Store(int64(10 * time.Second))
	sctx, cancel := context.WithTimeout(ctx, 200*time.Millisecond)
	defer cancel()
	_, err = c.Solve(sctx, up.ID, SolveOptions{})
	var ae *APIError
	if !errors.As(err, &ae) || ae.Status != http.StatusGatewayTimeout {
		t.Fatalf("unmeetable solve: %v, want 504", err)
	}
	if !strings.Contains(ae.Message, "estimated") {
		t.Fatalf("reject message %q lacks the estimate", ae.Message)
	}
	// The on-arrival reject carries the shed marker, so the client knows
	// this 504 preceded any work and may retry it on any call.
	if !ae.Shed || !ae.Retryable() {
		t.Fatalf("on-arrival 504 not shed-marked retryable: %+v", ae)
	}
	if st := srv.Stats(); st.DeadlineRejects != 2 || st.SolvesTotal != 0 {
		t.Fatalf("deadlineRejects=%d solves=%d, want 2/0", st.DeadlineRejects, st.SolvesTotal)
	}
	// A realistic estimate lets the same budget through.
	srv.engine.solveEWMA.Store(int64(time.Millisecond))
	sctx2, cancel2 := context.WithTimeout(ctx, 5*time.Second)
	defer cancel2()
	if _, err := c.Solve(sctx2, up.ID, SolveOptions{}); err != nil {
		t.Fatalf("meetable solve: %v", err)
	}
	// The completed run refreshed the EWMA with a real sample.
	if est := srv.engine.solveEWMA.Load(); est <= 0 || est >= int64(10*time.Second) {
		t.Fatalf("EWMA after solve: %v", time.Duration(est))
	}
}

// TestRetriesObservedCounter: the middleware counts client-declared
// retries (X-Netplace-Retry), giving /statz a fleet-health signal.
func TestRetriesObservedCounter(t *testing.T) {
	srv, c := newTestServer(t, Config{})
	req, _ := http.NewRequest(http.MethodGet, c.base+"/healthz", nil)
	req.Header.Set(HeaderRetry, "2")
	resp, err := c.http.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st := srv.Stats(); st.RetriesObserved != 1 {
		t.Fatalf("retriesObserved=%d, want 1", st.RetriesObserved)
	}
}

// TestStatzResilienceFields pins the wire names of the new /statz
// counters so dashboards can rely on them.
func TestStatzResilienceFields(t *testing.T) {
	srv, _ := newTestServer(t, Config{})
	raw, err := json.Marshal(srv.Stats())
	if err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{
		"ready", "draining", "sheds", "max_solve_queue", "queue_depth",
		"queue_high_water", "stale_reads", "retries_observed",
		"deadline_rejects", "deduped_batches",
	} {
		if !bytes.Contains(raw, []byte(`"`+field+`"`)) {
			t.Errorf("stats JSON lacks %q: %s", field, raw)
		}
	}
	var st Stats
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatal(err)
	}
	if !st.Ready || st.Draining || st.MaxSolveQueue != DefaultMaxSolveQueue {
		t.Fatalf("fresh server stats: ready=%v draining=%v maxqueue=%d", st.Ready, st.Draining, st.MaxSolveQueue)
	}
}

// countingRT counts round trips and fails the first `fail` of them with
// a synthetic transport error.
type countingRT struct {
	inner http.RoundTripper
	hits  atomic.Int64
	fail  int64
}

func (rt *countingRT) RoundTrip(req *http.Request) (*http.Response, error) {
	n := rt.hits.Add(1)
	if n <= rt.fail {
		if req.Body != nil {
			req.Body.Close()
		}
		return nil, fmt.Errorf("countingRT: synthetic transport failure %d", n)
	}
	return rt.inner.RoundTrip(req)
}

// TestClientRetryPolicy covers the client-side loop: Retry-After is
// honored over backoff, attempts carry X-Netplace-Retry, transport
// faults retry only idempotent calls, and typed errors decode.
func TestClientRetryPolicy(t *testing.T) {
	ctx := context.Background()
	var hits atomic.Int64
	var retryHeaders []string
	mux := http.NewServeMux()
	mux.HandleFunc("GET /flaky", func(w http.ResponseWriter, r *http.Request) {
		retryHeaders = append(retryHeaders, r.Header.Get(HeaderRetry))
		if hits.Add(1) <= 2 {
			w.Header().Set("Retry-After", "2")
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintf(w, `{"error":"draining"}`)
			return
		}
		w.WriteHeader(http.StatusOK)
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	var slept []time.Duration
	c := NewClient(ts.URL, ts.Client())
	c.SetRetryPolicy(RetryPolicy{
		MaxAttempts: 5,
		BaseDelay:   10 * time.Millisecond,
		Sleep:       func(ctx context.Context, d time.Duration) error { slept = append(slept, d); return nil },
	})
	if err := c.do(ctx, http.MethodGet, "/flaky", nil, nil); err != nil {
		t.Fatalf("flaky GET: %v", err)
	}
	if hits.Load() != 3 {
		t.Fatalf("server hit %d times, want 3", hits.Load())
	}
	// Both waits came from Retry-After (2s), not the 10ms backoff.
	if len(slept) != 2 || slept[0] != 2*time.Second || slept[1] != 2*time.Second {
		t.Fatalf("slept %v, want [2s 2s]", slept)
	}
	if fmt.Sprint(retryHeaders) != "[ 1 2]" {
		t.Fatalf("X-Netplace-Retry per attempt: %q", retryHeaders)
	}
}

// TestClientTransportRetryIdempotencyGate: a transport fault retries
// Health (idempotent) but surfaces immediately from OpenSession and
// unsequenced SessionEvents, whose lost response may have been applied.
func TestClientTransportRetryIdempotencyGate(t *testing.T) {
	ctx := context.Background()
	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	policy := RetryPolicy{MaxAttempts: 3, Sleep: func(context.Context, time.Duration) error { return nil }}
	newFlaky := func(fail int64) (*Client, *countingRT) {
		rt := &countingRT{inner: ts.Client().Transport, fail: fail}
		c := NewClient(ts.URL, &http.Client{Transport: rt})
		c.SetRetryPolicy(policy)
		return c, rt
	}

	c, rt := newFlaky(1)
	if err := c.Health(ctx); err != nil {
		t.Fatalf("health with one transport fault: %v", err)
	}
	if rt.hits.Load() != 2 {
		t.Fatalf("health attempts=%d, want 2", rt.hits.Load())
	}

	c, rt = newFlaky(1)
	if _, err := c.OpenSession(ctx, "whatever", SessionConfig{}); err == nil || rt.hits.Load() != 1 {
		t.Fatalf("OpenSession retried a transport fault: err=%v attempts=%d", err, rt.hits.Load())
	}
	c, rt = newFlaky(1)
	if _, err := c.SessionEvents(ctx, "whatever", []SessionEvent{{Obj: "a"}}); err == nil || rt.hits.Load() != 1 {
		t.Fatalf("unsequenced SessionEvents retried a transport fault: err=%v attempts=%d", err, rt.hits.Load())
	}
	// Sequenced ingest IS transport-retryable; it fails here with a
	// typed 404 (no such session) after the fault is retried through.
	c, rt = newFlaky(1)
	_, err := c.SessionEventsSeq(ctx, "whatever", 1, []SessionEvent{{Obj: "a"}})
	var ae *APIError
	if !errors.As(err, &ae) || ae.Status != http.StatusNotFound || rt.hits.Load() != 2 {
		t.Fatalf("sequenced events: err=%v attempts=%d, want typed 404 after 2", err, rt.hits.Load())
	}
}

// TestClientGatewayStatusRetryGate: a bare 502/504 may be minted by a
// reverse proxy after the backend applied the request, so it retries
// like a transport fault — idempotent calls only — while the server's
// own X-Netplace-Shed-marked 504 (rejected on arrival, nothing applied)
// retries on any call.
func TestClientGatewayStatusRetryGate(t *testing.T) {
	ctx := context.Background()
	var hits atomic.Int64
	var mode atomic.Value
	mux := http.NewServeMux()
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		n := hits.Add(1)
		switch mode.Load().(string) {
		case "bad-gateway":
			w.WriteHeader(http.StatusBadGateway)
			fmt.Fprint(w, "upstream connect error")
		case "shed-504-once":
			if n == 1 {
				w.Header().Set(HeaderShed, "1")
				writeJSON(w, http.StatusGatewayTimeout, errorJSON{Error: "rejected on arrival"})
				return
			}
			writeJSON(w, http.StatusOK, SessionInfo{SessionID: "s1"})
		}
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()
	c := NewClient(ts.URL, ts.Client())
	c.SetRetryPolicy(RetryPolicy{MaxAttempts: 3, Sleep: func(context.Context, time.Duration) error { return nil }})

	// A proxy 502 on a non-idempotent call surfaces without a retry —
	// the backend may already have opened the session.
	mode.Store("bad-gateway")
	_, err := c.OpenSession(ctx, "whatever", SessionConfig{})
	var ae *APIError
	if !errors.As(err, &ae) || ae.Status != http.StatusBadGateway || hits.Load() != 1 {
		t.Fatalf("OpenSession on 502: err=%v attempts=%d, want 1 attempt", err, hits.Load())
	}
	if ae.Retryable() || ae.Shed {
		t.Fatalf("bare 502 classified pre-application: %+v", ae)
	}
	// The same 502 on an idempotent call burns the full retry budget.
	hits.Store(0)
	if err := c.Health(ctx); err == nil || hits.Load() != 3 {
		t.Fatalf("Health on 502: err=%v attempts=%d, want 3 attempts", err, hits.Load())
	}
	// The server's own on-arrival 504 carries the shed marker: safe to
	// retry even on a non-idempotent call.
	hits.Store(0)
	mode.Store("shed-504-once")
	info, err := c.OpenSession(ctx, "whatever", SessionConfig{})
	if err != nil || info.SessionID != "s1" || hits.Load() != 2 {
		t.Fatalf("OpenSession through shed 504: %+v, %v, attempts=%d", info, err, hits.Load())
	}
}

// TestClientBackoffShape pins the backoff math: exponential from
// BaseDelay, capped at MaxDelay, jitter-free when Jitter is 0, and
// cancellation is never retried.
func TestClientBackoffShape(t *testing.T) {
	c := NewClient("http://unused", nil)
	c.SetRetryPolicy(RetryPolicy{MaxAttempts: 9, BaseDelay: 100 * time.Millisecond, MaxDelay: 400 * time.Millisecond})
	plain := errors.New("reset")
	for attempt, want := range map[int]time.Duration{
		1: 100 * time.Millisecond,
		2: 200 * time.Millisecond,
		3: 400 * time.Millisecond,
		8: 400 * time.Millisecond,
	} {
		if got := c.backoff(attempt, plain); got != want {
			t.Errorf("backoff(%d) = %v, want %v", attempt, got, want)
		}
	}
	if got := c.backoff(1, &APIError{Status: 429, RetryAfter: 5 * time.Second}); got != 5*time.Second {
		t.Errorf("Retry-After backoff = %v, want 5s", got)
	}
	if retryableError(fmt.Errorf("wrap: %w", context.Canceled), true) {
		t.Error("cancellation classified retryable")
	}
	// A deadline error is a per-attempt client timeout (the caller's own
	// deadline stops the loop via doRetry's ctx guard instead): a hung
	// peer must not exempt itself from idempotent retries.
	if !retryableError(fmt.Errorf("wrap: %w", context.DeadlineExceeded), true) {
		t.Error("per-attempt timeout classified non-retryable on an idempotent call")
	}
	if retryableError(fmt.Errorf("wrap: %w", context.DeadlineExceeded), false) {
		t.Error("per-attempt timeout classified retryable on a non-idempotent call")
	}
	if !retryableError(&APIError{Status: 429}, false) {
		t.Error("429 not retryable on a non-idempotent call")
	}
	if retryableError(&APIError{Status: 400}, true) {
		t.Error("400 classified retryable")
	}
	if !retryableError(errors.New("conn reset"), true) || retryableError(errors.New("conn reset"), false) {
		t.Error("transport-fault idempotency gate broken")
	}
	if retryableError(&APIError{Status: 502}, false) || !retryableError(&APIError{Status: 502}, true) {
		t.Error("bare 502 idempotency gate broken")
	}
	if retryableError(&APIError{Status: 504}, false) || !retryableError(&APIError{Status: 504}, true) {
		t.Error("bare 504 idempotency gate broken")
	}
	if !retryableError(&APIError{Status: 504, Shed: true}, false) {
		t.Error("shed-marked 504 not retryable on a non-idempotent call")
	}
}

// TestClientDeadlineHeaderAuto: a context deadline is propagated to the
// server as X-Netplace-Deadline; calls without one send nothing.
func TestClientDeadlineHeaderAuto(t *testing.T) {
	var got atomic.Value
	mux := http.NewServeMux()
	mux.HandleFunc("GET /probe", func(w http.ResponseWriter, r *http.Request) {
		got.Store(r.Header.Get(HeaderDeadline))
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()
	c := NewClient(ts.URL, ts.Client())

	if err := c.do(context.Background(), http.MethodGet, "/probe", nil, nil); err != nil {
		t.Fatal(err)
	}
	if h := got.Load().(string); h != "" {
		t.Fatalf("deadline header without a deadline: %q", h)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	if err := c.do(ctx, http.MethodGet, "/probe", nil, nil); err != nil {
		t.Fatal(err)
	}
	d, err := time.ParseDuration(got.Load().(string))
	if err != nil || d <= 0 || d > 3*time.Second {
		t.Fatalf("propagated deadline %q (%v)", got.Load(), err)
	}
}

// TestFaultInjectionByteIdenticalAcrossBackends is the resilience
// layer's core property: a session ingested through a fault-injecting
// transport — connection resets, torn responses after the server
// applied the batch, latency, blackholes — with sequenced batches and
// client retries ends byte-identical (engine state, placement, /statz
// session counters) to a fault-free run of the same trace. Torn
// responses force idempotent dedupes, so the test proves zero lost AND
// zero duplicated events, across the three oracle backends.
func TestFaultInjectionByteIdenticalAcrossBackends(t *testing.T) {
	ctx := context.Background()
	trace := driftTrace(24, 96)
	const batch = 4

	for _, bc := range backendCases {
		t.Run(bc.name, func(t *testing.T) {
			// Fault-free control run.
			ctrlSrv, ctrlC := newTestServer(t, Config{})
			ctrlUp, err := ctrlC.Upload(ctx, "ctrl", crashInstance(t))
			if err != nil {
				t.Fatal(err)
			}
			pinBackend(t, ctrlSrv, ctrlUp.ID, bc.backend)
			ctrlSess, err := ctrlC.OpenSession(ctx, ctrlUp.ID, SessionConfig{Epoch: 16})
			if err != nil {
				t.Fatal(err)
			}
			for start := 0; start < len(trace); start += batch {
				if _, err := ctrlC.SessionEventsSeq(ctx, ctrlSess.SessionID, int64(start/batch)+1, trace[start:start+batch]); err != nil {
					t.Fatal(err)
				}
			}
			want := sessionFingerprint(t, ctrlSrv, ctrlC, ctrlSess.SessionID)

			// Chaos run: same trace through an armed fault transport.
			srv := New(Config{})
			ts := httptest.NewServer(srv.Handler())
			defer ts.Close()
			ft := NewFaultTransport(ts.Client().Transport, 0xC0FFEE+int64(len(bc.name)), FaultConfig{
				ResetProb:     0.15,
				TruncateProb:  0.20,
				LatencyProb:   0.10,
				BlackholeProb: 0.05,
			})
			c := NewClient(ts.URL, &http.Client{Transport: ft})
			c.SetRetryPolicy(RetryPolicy{
				MaxAttempts: 30,
				Seed:        42,
				Jitter:      0.2,
				Sleep:       func(context.Context, time.Duration) error { return nil },
			})
			up, err := c.Upload(ctx, "chaos", crashInstance(t))
			if err != nil {
				t.Fatal(err)
			}
			pinBackend(t, srv, up.ID, bc.backend)
			sess, err := c.OpenSession(ctx, up.ID, SessionConfig{Epoch: 16})
			if err != nil {
				t.Fatal(err)
			}
			ft.Arm()
			deduped := 0
			for start := 0; start < len(trace); start += batch {
				resp, err := c.SessionEventsSeq(ctx, sess.SessionID, int64(start/batch)+1, trace[start:start+batch])
				if err != nil {
					t.Fatalf("batch %d under faults: %v", start/batch+1, err)
				}
				if resp.Deduplicated {
					deduped++
				}
			}
			ft.Disarm()

			got := sessionFingerprint(t, srv, c, sess.SessionID)
			if !bytes.Equal(got, want) {
				t.Errorf("chaos run diverges from fault-free run\n got %s\nwant %s", got, want)
			}
			counts := ft.Counts()
			if ft.Total() == 0 || counts["reset"] == 0 || counts["truncate"] == 0 {
				t.Fatalf("fault schedule too quiet to prove anything: %v", counts)
			}
			// Every torn response forced the retry down the dedupe path.
			st := srv.Stats()
			if st.DedupedBatches == 0 || st.RetriesObserved == 0 {
				t.Fatalf("dedupedBatches=%d retriesObserved=%d with %v faults", st.DedupedBatches, st.RetriesObserved, counts)
			}
			t.Logf("backend %s: faults=%v dedupedResponses=%d", bc.name, counts, deduped)
		})
	}
}

// TestIsInjectedFault: fault errors are recognizable through the
// url.Error wrapping http.Client applies.
func TestIsInjectedFault(t *testing.T) {
	ft := NewFaultTransport(nil, 1, FaultConfig{ResetProb: 1})
	ft.Arm()
	c := &http.Client{Transport: ft}
	_, err := c.Get("http://127.0.0.1:0/never")
	if err == nil || !IsInjectedFault(err) {
		t.Fatalf("injected reset not recognized: %v", err)
	}
	if IsInjectedFault(errors.New("organic")) {
		t.Fatal("organic error classified as injected")
	}
}

// TestSessionSlotWaitCancelAppliesNothing: a batch that will close an
// epoch, and a flush of a non-empty epoch, take the re-solve's worker
// slot before anything is journaled or applied. A request whose context
// ends while it waits for the slot fails with the context's error and
// applies nothing, so its retry (same seq) applies it and the session
// ends exactly where an uninterrupted run does.
func TestSessionSlotWaitCancelAppliesNothing(t *testing.T) {
	const batch, closer = 8, 6 // seq 6 carries events 40–47 and closes epoch 3
	evs := driftTrace(24, 244) // 15 epochs of 16, then 4 events left open
	run := func(cancelWaits bool) SessionStats {
		srv, c := newTestServer(t, Config{Workers: 1})
		ctx := context.Background()
		up, err := c.Upload(ctx, "slot", crashInstance(t))
		if err != nil {
			t.Fatal(err)
		}
		info, err := c.OpenSession(ctx, up.ID, SessionConfig{Epoch: 16})
		if err != nil {
			t.Fatal(err)
		}
		sid := info.SessionID
		// sendCancelled serves one request whose context is already
		// cancelled while the test holds the only worker slot.
		sendCancelled := func(path string, body any) *httptest.ResponseRecorder {
			buf, err := json.Marshal(body)
			if err != nil {
				t.Fatal(err)
			}
			cctx, cancel := context.WithCancel(ctx)
			cancel()
			req := httptest.NewRequest(http.MethodPost, "/v1/sessions/"+sid+path, bytes.NewReader(buf)).WithContext(cctx)
			rec := httptest.NewRecorder()
			srv.engine.sem <- struct{}{}
			srv.Handler().ServeHTTP(rec, req)
			<-srv.engine.sem
			return rec
		}
		if !cancelWaits {
			ingestSeq(t, c, sid, evs, batch, 1)
		} else {
			ingestSeq(t, c, sid, evs[:(closer-1)*batch], batch, 1)
			closing := evs[(closer-1)*batch : closer*batch]
			rec := sendCancelled("/events", SessionEventsRequest{Events: closing, Seq: closer})
			if rec.Code != 499 {
				t.Errorf("epoch-closing batch with a cancelled slot wait: status %d, want 499: %s", rec.Code, rec.Body)
			}
			resp, err := c.SessionEventsSeq(ctx, sid, closer, closing)
			if err != nil {
				t.Fatal(err)
			}
			if resp.Deduplicated || len(resp.Epochs) != 1 {
				t.Errorf("retry of seq %d: %+v; want it applied, closing one epoch", closer, resp)
			}
			ingestSeq(t, c, sid, evs[closer*batch:], batch, closer+1)
			if rec := sendCancelled("/flush", nil); rec.Code != 499 {
				t.Errorf("flush with a cancelled slot wait: status %d, want 499: %s", rec.Code, rec.Body)
			}
		}
		resp, err := c.SessionFlush(ctx, sid)
		if err != nil {
			t.Fatal(err)
		}
		if len(resp.Epochs) != 1 || resp.Epochs[0].Events != 4 {
			t.Errorf("flush closed %+v; want one epoch of the 4 open events", resp.Epochs)
		}
		return resp.Stats
	}
	want, got := run(false), run(true)
	if got != want {
		t.Fatalf("session after cancelled slot waits: %+v; uninterrupted: %+v", got, want)
	}
}

package service

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// fakeClock drives a Breaker deterministically in tests.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }
func newTestBreaker(cfg BreakerConfig) (*Breaker, *fakeClock) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	b := NewBreaker(cfg)
	b.now = clk.now
	return b, clk
}

func TestBreakerOpensAtThreshold(t *testing.T) {
	b, _ := newTestBreaker(BreakerConfig{Threshold: 3, Backoff: 100 * time.Millisecond})
	for i := 0; i < 2; i++ {
		b.Failure()
		if got := b.State(); got != BreakerClosed {
			t.Fatalf("after %d failures state=%v, want closed", i+1, got)
		}
		if !b.Allow() {
			t.Fatalf("closed breaker refused traffic after %d failures", i+1)
		}
	}
	b.Failure()
	if got := b.State(); got != BreakerOpen {
		t.Fatalf("after 3 failures state=%v, want open", got)
	}
	if b.Allow() {
		t.Fatal("open breaker admitted traffic before backoff elapsed")
	}
	if ra := b.RetryAfter(); ra != 100*time.Millisecond {
		t.Fatalf("RetryAfter=%v, want 100ms", ra)
	}
}

func TestBreakerSuccessResetsFailureCount(t *testing.T) {
	b, _ := newTestBreaker(BreakerConfig{Threshold: 3})
	b.Failure()
	b.Failure()
	b.Success()
	b.Failure()
	b.Failure()
	if got := b.State(); got != BreakerClosed {
		t.Fatalf("state=%v after success reset, want closed", got)
	}
}

func TestBreakerHalfOpenSingleProbe(t *testing.T) {
	b, clk := newTestBreaker(BreakerConfig{Threshold: 1, Backoff: 100 * time.Millisecond, MaxBackoff: time.Second})
	b.Failure()
	if b.Allow() {
		t.Fatal("open breaker admitted traffic immediately")
	}
	clk.advance(100 * time.Millisecond)
	if !b.Allow() {
		t.Fatal("due breaker refused the reopen probe")
	}
	if got := b.State(); got != BreakerHalfOpen {
		t.Fatalf("state=%v after probe admitted, want half-open", got)
	}
	// Exactly one probe: the slot is taken until the outcome lands.
	if b.Allow() {
		t.Fatal("half-open breaker admitted a second probe")
	}
	// Failed probe doubles the backoff.
	b.Failure()
	if got := b.State(); got != BreakerOpen {
		t.Fatalf("state=%v after failed probe, want open", got)
	}
	if ra := b.RetryAfter(); ra != 200*time.Millisecond {
		t.Fatalf("RetryAfter after failed probe=%v, want doubled 200ms", ra)
	}
	clk.advance(200 * time.Millisecond)
	if !b.Allow() {
		t.Fatal("breaker refused second reopen probe")
	}
	b.Success()
	if got := b.State(); got != BreakerClosed {
		t.Fatalf("state=%v after successful probe, want closed", got)
	}
	if !b.Allow() {
		t.Fatal("closed breaker refused traffic")
	}
}

func TestBreakerBackoffCapped(t *testing.T) {
	b, clk := newTestBreaker(BreakerConfig{Threshold: 1, Backoff: 100 * time.Millisecond, MaxBackoff: 300 * time.Millisecond})
	b.Failure()
	for i := 0; i < 4; i++ {
		clk.advance(time.Second)
		if !b.Allow() {
			t.Fatalf("probe %d refused", i)
		}
		b.Failure()
	}
	if ra := b.RetryAfter(); ra != 300*time.Millisecond {
		t.Fatalf("RetryAfter=%v, want capped 300ms", ra)
	}
}

func TestBreakerHalfOpenStaleProbeRecovers(t *testing.T) {
	// A probe whose outcome is never reported (canceled context) must not
	// wedge the breaker forever: after MaxBackoff another probe is let in.
	b, clk := newTestBreaker(BreakerConfig{Threshold: 1, Backoff: 50 * time.Millisecond, MaxBackoff: 400 * time.Millisecond})
	b.Failure()
	clk.advance(50 * time.Millisecond)
	if !b.Allow() {
		t.Fatal("probe refused")
	}
	// Outcome lost; shortly after, still blocked.
	clk.advance(100 * time.Millisecond)
	if b.Allow() {
		t.Fatal("second probe admitted before the stale-probe grace")
	}
	clk.advance(300 * time.Millisecond)
	if !b.Allow() {
		t.Fatal("breaker wedged by a probe that never reported")
	}
}

func TestReplicaDownErrorIs(t *testing.T) {
	err := &ReplicaDownError{Replica: "http://x", RetryAfter: time.Second}
	if !errors.Is(err, ErrReplicaDown) {
		t.Fatal("ReplicaDownError does not match ErrReplicaDown")
	}
	api := &APIError{Status: http.StatusServiceUnavailable, ReplicaDown: "http://x"}
	if !errors.Is(api, ErrReplicaDown) {
		t.Fatal("APIError with ReplicaDown marker does not match ErrReplicaDown")
	}
	plain := &APIError{Status: http.StatusServiceUnavailable}
	if errors.Is(plain, ErrReplicaDown) {
		t.Fatal("plain 503 APIError must not match ErrReplicaDown")
	}
}

func TestPeerHealthProberOpensAndCloses(t *testing.T) {
	var ready atomic.Bool
	ready.Store(true)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/readyz" {
			http.NotFound(w, r)
			return
		}
		if !ready.Load() {
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		w.WriteHeader(http.StatusOK)
	}))
	defer srv.Close()

	h := NewPeerHealth(BreakerConfig{Threshold: 2, Backoff: 10 * time.Millisecond}, srv.URL)
	defer h.Close()
	h.StartProber(5*time.Millisecond, 200*time.Millisecond)

	waitState := func(want string) {
		t.Helper()
		deadline := time.Now().Add(3 * time.Second)
		for time.Now().Before(deadline) {
			if h.States()[srv.URL] == want {
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
		t.Fatalf("breaker never reached %q (now %q)", want, h.States()[srv.URL])
	}
	waitState("closed")
	// The boot grace suppresses prober failures until the peer has
	// answered once; wait for that first success before partitioning.
	seenDeadline := time.Now().Add(3 * time.Second)
	for !h.For(srv.URL).Seen() {
		if time.Now().After(seenDeadline) {
			t.Fatal("prober never recorded a successful probe")
		}
		time.Sleep(5 * time.Millisecond)
	}
	ready.Store(false)
	waitState("open")
	if h.Opens() == 0 {
		t.Fatal("opens counter not bumped")
	}
	ready.Store(true)
	waitState("closed")
}

func TestPeerHealthProberBootGrace(t *testing.T) {
	// A peer that has never answered is not failed by the prober — boot
	// order between replicas must not open breakers.
	h := NewPeerHealth(BreakerConfig{Threshold: 1, Backoff: 10 * time.Millisecond}, "http://127.0.0.1:1")
	defer h.Close()
	h.StartProber(5*time.Millisecond, 50*time.Millisecond)
	time.Sleep(150 * time.Millisecond)
	if got := h.States()["http://127.0.0.1:1"]; got != "closed" {
		t.Fatalf("never-seen peer breaker=%q, want closed (boot grace)", got)
	}
	// Passive failures still count from the start.
	h.For("http://127.0.0.1:1").Failure()
	if got := h.States()["http://127.0.0.1:1"]; got != "open" {
		t.Fatalf("breaker=%q after passive failure, want open", got)
	}
}

func TestPeerHealthPassiveSuccessLiftsBootGrace(t *testing.T) {
	// A peer that served real forwarded traffic counts as seen even if
	// the prober never reached it successfully: after a passive Success,
	// prober failures open the breaker — a replica that answered
	// requests and then partitioned must be detectable with no traffic
	// flowing.
	h := NewPeerHealth(BreakerConfig{Threshold: 1, Backoff: 10 * time.Millisecond}, "http://127.0.0.1:1")
	defer h.Close()
	b := h.For("http://127.0.0.1:1")
	if b.Seen() {
		t.Fatal("fresh breaker reports seen")
	}
	b.Success()
	if !b.Seen() {
		t.Fatal("passive success did not mark the peer seen")
	}
	h.StartProber(5*time.Millisecond, 50*time.Millisecond)
	deadline := time.Now().Add(3 * time.Second)
	for h.States()["http://127.0.0.1:1"] != "open" {
		if time.Now().After(deadline) {
			t.Fatalf("prober never opened a seen-but-unreachable peer (state %q)",
				h.States()["http://127.0.0.1:1"])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestBreakerRetryAfterBranches(t *testing.T) {
	b, clk := newTestBreaker(BreakerConfig{Threshold: 1, Backoff: time.Second, MaxBackoff: 8 * time.Second})
	if ra := b.RetryAfter(); ra != 0 {
		t.Fatalf("closed RetryAfter=%v, want 0", ra)
	}
	b.Failure() // opens for 1s
	if ra := b.RetryAfter(); ra != time.Second {
		t.Fatalf("open RetryAfter=%v, want 1s", ra)
	}
	clk.advance(2 * time.Second)
	if ra := b.RetryAfter(); ra != 0 {
		t.Fatalf("open-with-elapsed-backoff RetryAfter=%v, want 0", ra)
	}
	if !b.Allow() {
		t.Fatal("due reopen probe refused")
	}
	// Half-open: the hint is the current backoff, and the states render
	// for /statz.
	if got := b.State().String(); got != "half-open" {
		t.Fatalf("state=%q, want half-open", got)
	}
	if ra := b.RetryAfter(); ra != time.Second {
		t.Fatalf("half-open RetryAfter=%v, want the 1s backoff", ra)
	}
	for want, s := range map[string]BreakerState{
		"closed": BreakerClosed, "open": BreakerOpen, "half-open": BreakerHalfOpen,
	} {
		if got := s.String(); got != want {
			t.Fatalf("BreakerState(%d).String()=%q, want %q", s, got, want)
		}
	}
}

func TestReplicaDownErrorMessage(t *testing.T) {
	err := &ReplicaDownError{Replica: "http://b:8723", RetryAfter: 1500 * time.Millisecond}
	msg := err.Error()
	for _, want := range []string{"http://b:8723", "1.5s", "circuit breaker open"} {
		if !strings.Contains(msg, want) {
			t.Fatalf("error %q does not mention %q", msg, want)
		}
	}
}

func TestWriteErrorReplicaDown(t *testing.T) {
	// The typed form: 503, the header naming the replica, and a whole-
	// second Retry-After floor even for sub-second breaker backoffs.
	rec := httptest.NewRecorder()
	WriteError(rec, &ReplicaDownError{Replica: "http://b:8723", RetryAfter: 80 * time.Millisecond})
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", rec.Code)
	}
	if got := rec.Header().Get(HeaderReplicaDown); got != "http://b:8723" {
		t.Fatalf("%s=%q, want the replica URL", HeaderReplicaDown, got)
	}
	if got := rec.Header().Get("Retry-After"); got != "1" {
		t.Fatalf("Retry-After=%q, want the 1s floor", got)
	}
	// The relayed form: an APIError that unwraps to ErrReplicaDown (a
	// downstream 503 passed through) keeps the replica attribution.
	rec = httptest.NewRecorder()
	WriteError(rec, &APIError{Status: http.StatusServiceUnavailable,
		ReplicaDown: "http://c:8723", RetryAfter: 3 * time.Second})
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("relayed status %d, want 503", rec.Code)
	}
	if got := rec.Header().Get(HeaderReplicaDown); got != "http://c:8723" {
		t.Fatalf("relayed %s=%q, want the replica URL", HeaderReplicaDown, got)
	}
	if got := rec.Header().Get("Retry-After"); got != "3" {
		t.Fatalf("relayed Retry-After=%q, want 3", got)
	}
}

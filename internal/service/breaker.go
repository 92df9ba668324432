package service

import (
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// This file is the failure-detection half of the cluster fault-tolerance
// layer (see docs/cluster.md "Failure modes & membership"): a per-peer
// circuit breaker fed by passive error accounting and an active /readyz
// prober, shared — through PeerHealth — by the server's peer and
// successor clients, the forwarding proxy, and cluster.ShardedClient, so
// every routing layer agrees on which replicas are down and fails fast
// instead of burning its retry budget against a blackholed socket.

// ErrReplicaDown reports that a request was refused because the target
// replica's circuit breaker is open (the replica failed repeatedly or
// stopped answering its /readyz probe). Rendered over HTTP as 503 with
// the X-Netplace-Replica-Down header naming the replica and a
// Retry-After hint; match with errors.Is.
var ErrReplicaDown = errors.New("service: replica down (circuit breaker open)")

// HeaderReplicaDown names the down replica on a 503 minted because its
// circuit breaker is open — distinguishing "the owner of this key is
// down" from an ordinary drain/not-ready 503, so clients and tests can
// assert on the typed condition.
const HeaderReplicaDown = "X-Netplace-Replica-Down"

// ReplicaDownError is the typed form of ErrReplicaDown: which replica is
// down and how long until its breaker admits a reopen probe. It unwraps
// to ErrReplicaDown, so errors.Is works on both forms.
type ReplicaDownError struct {
	// Replica is the down replica's base URL.
	Replica string
	// RetryAfter is the time until the breaker's next reopen probe.
	RetryAfter time.Duration
}

// Error renders the replica and the retry hint.
func (e *ReplicaDownError) Error() string {
	return fmt.Sprintf("%v: %s (retry in %v)", ErrReplicaDown, e.Replica, e.RetryAfter.Round(time.Millisecond))
}

// Unwrap matches errors.Is(err, ErrReplicaDown).
func (e *ReplicaDownError) Unwrap() error { return ErrReplicaDown }

// Breaker defaults applied by BreakerConfig.withDefaults.
const (
	// DefaultBreakerThreshold is the consecutive-failure count that opens
	// a closed breaker.
	DefaultBreakerThreshold = 3
	// DefaultBreakerBackoff is the first open interval before a reopen
	// probe; each failed probe doubles it up to DefaultBreakerMaxBackoff.
	DefaultBreakerBackoff = 250 * time.Millisecond
	// DefaultBreakerMaxBackoff caps the doubling reopen backoff.
	DefaultBreakerMaxBackoff = 8 * time.Second
	// DefaultProbeInterval is the background /readyz prober's period.
	DefaultProbeInterval = time.Second
)

// BreakerConfig tunes a circuit breaker. The zero value selects the
// documented defaults.
type BreakerConfig struct {
	// Threshold is the consecutive-failure count that opens the breaker
	// (0: DefaultBreakerThreshold).
	Threshold int
	// Backoff is the first open interval before a reopen probe is
	// admitted (0: DefaultBreakerBackoff); every failed probe doubles it.
	Backoff time.Duration
	// MaxBackoff caps the doubled backoff (0: DefaultBreakerMaxBackoff).
	MaxBackoff time.Duration
}

// withDefaults resolves zero fields to the documented defaults.
func (c BreakerConfig) withDefaults() BreakerConfig {
	if c.Threshold <= 0 {
		c.Threshold = DefaultBreakerThreshold
	}
	if c.Backoff <= 0 {
		c.Backoff = DefaultBreakerBackoff
	}
	if c.MaxBackoff <= 0 {
		c.MaxBackoff = DefaultBreakerMaxBackoff
	}
	return c
}

// BreakerState is a circuit breaker's coarse state.
type BreakerState int

// The three breaker states: closed passes traffic and counts consecutive
// failures; open fails fast until its backoff elapses; half-open has
// admitted a single reopen probe and fails fast until it reports.
const (
	BreakerClosed BreakerState = iota
	BreakerOpen
	BreakerHalfOpen
)

// String renders the state for /statz and logs.
func (s BreakerState) String() string {
	switch s {
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	default:
		return "closed"
	}
}

// Breaker is a per-peer circuit breaker: closed until Threshold
// consecutive Failures, then open for a backoff that doubles (capped)
// on every failed reopen probe. Allow admits exactly one probe per
// elapsed backoff while open; any Success closes it. Safe for
// concurrent use; fed both passively (request outcomes) and actively
// (the PeerHealth /readyz prober).
type Breaker struct {
	cfg BreakerConfig
	now func() time.Time // test clock; time.Now outside tests

	mu      sync.Mutex
	state   BreakerState
	fails   int           // consecutive failures while closed
	until   time.Time     // open: earliest reopen probe
	backoff time.Duration // current open interval
	probeAt time.Time     // half-open: when the probe was admitted
	seen    bool          // any Success ever — probe or passive traffic
	onOpen  func()        // counts closed/half-open → open transitions
}

// NewBreaker returns a closed breaker with cfg's thresholds.
func NewBreaker(cfg BreakerConfig) *Breaker {
	return &Breaker{cfg: cfg.withDefaults(), now: time.Now}
}

// Allow reports whether a request to the peer may proceed. Closed:
// always. Open: false until the backoff elapses, then the breaker turns
// half-open and admits exactly this one reopen probe. Half-open: false
// while the probe is outstanding (with a MaxBackoff grace so a probe
// whose outcome was never reported — e.g. its context was canceled —
// cannot wedge the breaker).
func (b *Breaker) Allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		return true
	case BreakerOpen:
		if b.now().Before(b.until) {
			return false
		}
		b.state = BreakerHalfOpen
		b.probeAt = b.now()
		return true
	default: // half-open: one probe in flight
		if b.now().Sub(b.probeAt) >= b.cfg.MaxBackoff {
			b.probeAt = b.now() // probe outcome lost; admit another
			return true
		}
		return false
	}
}

// Ready is a non-consuming peek at Allow: true when a request right now
// would be admitted (closed, or open with the backoff elapsed). Unlike
// Allow it never claims the half-open probe slot, so callers can use it
// to skip down peers without racing real traffic for the probe.
func (b *Breaker) Ready() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		return true
	case BreakerOpen:
		return !b.now().Before(b.until)
	default:
		return false
	}
}

// Success records a successful contact: the breaker closes (from any
// state), the failure count and backoff reset, and the peer counts as
// seen — lifting the prober's boot grace (Seen).
func (b *Breaker) Success() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.state = BreakerClosed
	b.fails = 0
	b.backoff = 0
	b.seen = true
}

// Seen reports whether the peer has ever answered successfully — via
// the /readyz prober or real forwarded traffic. The prober only counts
// failures against seen peers (boot grace: replicas start in arbitrary
// order), so a passive success must lift the grace too: a peer that
// served requests and then partitioned must still be detectable with no
// traffic flowing.
func (b *Breaker) Seen() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.seen
}

// Failure records a failed contact. Closed: one more consecutive
// failure, opening the breaker at the threshold. Half-open: the reopen
// probe failed, so the breaker reopens with its backoff doubled (capped
// at MaxBackoff). Open: no-op — the peer is already known down.
func (b *Breaker) Failure() {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		b.fails++
		if b.fails >= b.cfg.Threshold {
			b.open(b.cfg.Backoff)
		}
	case BreakerHalfOpen:
		next := b.backoff * 2
		if next > b.cfg.MaxBackoff {
			next = b.cfg.MaxBackoff
		}
		b.open(next)
	}
}

// open transitions to the open state for d; callers hold b.mu.
func (b *Breaker) open(d time.Duration) {
	b.state = BreakerOpen
	b.backoff = d
	b.until = b.now().Add(d)
	b.fails = 0
	if b.onOpen != nil {
		b.onOpen()
	}
}

// State returns the breaker's current coarse state.
func (b *Breaker) State() BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// RetryAfter returns how long until the breaker would next admit a
// probe: the remaining open interval, the current backoff while a
// half-open probe is outstanding, and 0 when closed. It is the
// Retry-After hint on replica-down 503s and the backoff the client's
// retry loop sleeps instead of its exponential schedule.
func (b *Breaker) RetryAfter() time.Duration {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerOpen:
		if d := b.until.Sub(b.now()); d > 0 {
			return d
		}
		return 0
	case BreakerHalfOpen:
		return b.backoff
	default:
		return 0
	}
}

// PeerHealth tracks one circuit breaker per peer URL and optionally
// runs the background /readyz prober that feeds them, so a replica
// learns a peer died even with no traffic flowing. One PeerHealth is
// shared per process by the server's peer and successor clients, the
// forwarding proxy, and any embedded clients — every routing layer sees
// the same verdict. Safe for concurrent use.
type PeerHealth struct {
	cfg   BreakerConfig
	opens atomic.Int64

	mu       sync.Mutex
	peers    map[string]*Breaker
	inflight map[string]bool // a prober request is outstanding

	stop     chan struct{}
	stopOnce sync.Once
	started  atomic.Bool
}

// NewPeerHealth returns a tracker with cfg's breaker thresholds,
// pre-creating a breaker per listed peer (more are created on demand by
// For). The prober is off until StartProber.
func NewPeerHealth(cfg BreakerConfig, peers ...string) *PeerHealth {
	h := &PeerHealth{
		cfg:      cfg.withDefaults(),
		peers:    make(map[string]*Breaker),
		inflight: make(map[string]bool),
		stop:     make(chan struct{}),
	}
	for _, u := range peers {
		h.For(u)
	}
	return h
}

// For returns the peer's breaker, creating a closed one on first use.
func (h *PeerHealth) For(url string) *Breaker {
	h.mu.Lock()
	defer h.mu.Unlock()
	b, ok := h.peers[url]
	if !ok {
		b = NewBreaker(h.cfg)
		b.onOpen = func() { h.opens.Add(1) }
		h.peers[url] = b
	}
	return b
}

// Remove drops a peer's breaker — the drain path's membership change.
func (h *PeerHealth) Remove(url string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	delete(h.peers, url)
}

// States snapshots every tracked peer's breaker state, keyed by URL —
// the /statz peer_health map.
func (h *PeerHealth) States() map[string]string {
	h.mu.Lock()
	urls := make([]string, 0, len(h.peers))
	breakers := make([]*Breaker, 0, len(h.peers))
	for u, b := range h.peers {
		urls = append(urls, u)
		breakers = append(breakers, b)
	}
	h.mu.Unlock()
	out := make(map[string]string, len(urls))
	for i, u := range urls {
		out[u] = breakers[i].State().String()
	}
	return out
}

// Opens returns the total number of breaker open transitions — the
// /statz breaker_opens counter.
func (h *PeerHealth) Opens() int64 { return h.opens.Load() }

// StartProber launches the background failure detector: every interval
// it GETs each tracked peer's /readyz (bounded by timeout, one
// outstanding request per peer) and feeds the result into the peer's
// breaker — Success on 200, Failure otherwise. A peer that has never
// answered — by probe or by passive traffic (Breaker.Seen) — is not
// failed by the prober (boot grace: replicas start in arbitrary order).
// No-op when interval <= 0 or the prober already runs; stop it with
// Close.
func (h *PeerHealth) StartProber(interval, timeout time.Duration) {
	if interval <= 0 || !h.started.CompareAndSwap(false, true) {
		return
	}
	if timeout <= 0 {
		timeout = DefaultPeerTimeout
	}
	client := &http.Client{Timeout: timeout}
	go func() {
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
			h.probeAll(client)
		}
	}()
}

// probeAll fires one probe per tracked peer that has none outstanding.
func (h *PeerHealth) probeAll(client *http.Client) {
	h.mu.Lock()
	var urls []string
	for u := range h.peers {
		if !h.inflight[u] {
			h.inflight[u] = true
			urls = append(urls, u)
		}
	}
	h.mu.Unlock()
	for _, u := range urls {
		go func(url string) {
			ok := probeReady(client, url)
			h.mu.Lock()
			delete(h.inflight, url)
			b := h.peers[url]
			h.mu.Unlock()
			if b == nil {
				return // removed while probing
			}
			switch {
			case ok:
				b.Success()
			case b.Seen():
				b.Failure()
			}
		}(u)
	}
}

// probeReady is one GET /readyz attempt: true iff it answered 200.
func probeReady(client *http.Client, url string) bool {
	resp, err := client.Get(url + "/readyz")
	if err != nil {
		return false
	}
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// Close stops the background prober; breakers keep working passively.
// Idempotent and safe when the prober never started.
func (h *PeerHealth) Close() {
	h.stopOnce.Do(func() { close(h.stop) })
}

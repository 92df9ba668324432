// Package service turns the netplace library into a long-running concurrent
// placement service: the engine behind the cmd/netplaced HTTP/JSON server.
//
// It is organised in three layers:
//
//   - Registry keeps uploaded instances resident, identified by their
//     stable content hash (encode.HashInstance), with least-recently-used
//     eviction under a configurable memory budget — an instance is parsed
//     and validated once and then queried many times;
//   - Engine executes solves against resident instances. Identical
//     in-flight requests collapse to a single solver run (singleflight) and
//     finished results are cached keyed by (instance hash, canonical solve
//     options), so a repeated what-if query is a map lookup. Batched
//     variant sweeps run across a bounded worker pool and all solves of one
//     instance share its metric.Oracle. What-if scenarios (demand-patched
//     copies of an instance) take an incremental path that re-solves only
//     the changed objects and splices a cached base solve for the rest,
//     falling back to a full solve on structural changes (see Scenario);
//   - Server exposes the engine over HTTP: instance CRUD, solve, batched
//     what-if, cost evaluation of a client-supplied placement,
//     message-level simulation via internal/netsim, plus /healthz and an
//     expvar-style /statz snapshot.
//
// Client is a thin typed HTTP client for the same wire format; see the
// package example for the full upload → solve → cost → simulate flow.
package service

import (
	"runtime"
	"sync/atomic"
	"time"
)

// Config tunes a Server. The zero value is serviceable: DefaultConfig
// documents the defaults applied by New.
type Config struct {
	// MemoryBudget bounds the estimated bytes of resident instances before
	// the registry starts evicting least-recently-used ones. 0 selects
	// DefaultMemoryBudget; negative disables eviction.
	MemoryBudget int64
	// CacheEntries bounds the solve-result cache. 0 selects
	// DefaultCacheEntries; negative disables caching.
	CacheEntries int
	// Workers bounds concurrently executing solver runs (batched what-if
	// variants queue behind it). 0 selects GOMAXPROCS. Each run holds one
	// worker slot, worth GOMAXPROCS ÷ Workers goroutines (at least one);
	// an algo=approx run — a solve, a what-if scenario or a session epoch
	// close — also borrows, without waiting, every further free slot its
	// objects can use, and places its objects on the goroutines its slots
	// pay for, capped at its object count and GOMAXPROCS. How many
	// goroutines share one object's solve follows the instance size
	// alone: one below metric.AutoParallelMinNodes nodes, GOMAXPROCS at
	// or above (see docs/tuning.md).
	Workers int
	// SolveTimeout caps one solver run. 0 selects DefaultSolveTimeout;
	// negative disables the cap. The cap (and a client disconnect) always
	// cancels waiting for a worker slot; whether it can abort a running
	// solve depends on the algorithm — algo=optimal polls the context
	// mid-enumeration, the other solvers run to completion once started.
	SolveTimeout time.Duration
	// MaxUploadBytes caps the size of an uploaded instance document.
	// 0 selects DefaultMaxUploadBytes.
	MaxUploadBytes int64
	// MaxBatchVariants caps the number of options variants or scenarios in
	// one what-if request. 0 selects DefaultMaxBatchVariants.
	MaxBatchVariants int
	// DisableIncremental forces every what-if scenario down the full-solve
	// path. Off by default; an operational escape hatch, and the lever the
	// benchmark harness uses to measure the incremental path's gain.
	DisableIncremental bool
	// MaxSessions caps concurrently open streaming sessions (each pins
	// its instance and holds estimator state). 0 selects
	// DefaultMaxSessions.
	MaxSessions int
	// DataDir, when non-empty, persists instances and sessions under this
	// directory and recovers them at startup: instances are snapshotted at
	// registration, sessions as snapshot + event WAL (see
	// docs/persistence.md). Only honoured by Open; New always builds an
	// in-memory server.
	DataDir string
	// NoSync skips the fsyncs on the persistence path. Throughput goes up;
	// an OS crash (not a mere process crash) can lose acked events.
	NoSync bool
	// MaxSolveQueue bounds how many solve/what-if executions may be
	// admitted (waiting for a worker slot or running) beyond the Workers
	// pool before the engine sheds load: an admission past
	// Workers+MaxSolveQueue is rejected immediately with ErrOverloaded
	// (HTTP 429 + Retry-After) instead of queueing without bound.
	// 0 selects DefaultMaxSolveQueue; negative disables shedding
	// (unbounded queueing, the pre-admission-control behavior).
	// Singleflight dedup runs before admission, so identical concurrent
	// solves still collapse to one queue slot; session epoch re-solves
	// bypass admission (they are already-admitted ingest work).
	MaxSolveQueue int
	// FsyncInterval batches session-WAL fsyncs (group commit): an append
	// fsyncs only when this much time has passed since the last fsync,
	// bounding the acked-but-lost window after an OS crash to one
	// interval. 0 fsyncs every append (the strict durability default);
	// the knob is moot under NoSync. Snapshot writes always fsync.
	FsyncInterval time.Duration
	// Peers lists the base URLs of the other replicas in a netplaced
	// cluster (SelfURL, if present in the list, is skipped). Empty means
	// standalone — every cluster feature below is inert. See
	// docs/cluster.md.
	Peers []string
	// SelfURL is this replica's own advertised base URL; it keys the
	// replica in /statz?cluster=1 and is filtered out of Peers so a
	// replica never gossips with itself.
	SelfURL string
	// PeerTimeout caps one /statz gossip fetch, /readyz probe or
	// successor push. 0 selects DefaultPeerTimeout. All three are
	// best-effort: a slow or dead peer costs at most this long, never a
	// failed request.
	PeerTimeout time.Duration
	// SuccessorURL is the replica that holds read-only snapshots of this
	// replica's instances for degraded failover reads: every accepted
	// upload is pushed to it (PUT /v1/replica/instances/{id}, re-verified
	// by content hash on arrival). Empty disables replication;
	// cmd/netplaced derives it automatically as the next cluster member
	// in sorted order. See docs/cluster.md "Failure modes & membership".
	SuccessorURL string
	// ProbeInterval is the period of the background /readyz prober that
	// feeds the per-peer circuit breakers. 0 selects DefaultProbeInterval;
	// negative disables active probing (breakers then open only on
	// passive request failures). Only meaningful with Peers set.
	ProbeInterval time.Duration
	// BreakerThreshold is the consecutive-failure count that opens a
	// peer's circuit breaker. 0 selects DefaultBreakerThreshold.
	BreakerThreshold int
	// BreakerBackoff is the initial open interval before a breaker admits
	// a reopen probe; failed probes double it up to
	// DefaultBreakerMaxBackoff. 0 selects DefaultBreakerBackoff.
	BreakerBackoff time.Duration
}

// Defaults applied by New for zero Config fields.
const (
	DefaultMemoryBudget     = 1 << 31 // 2 GiB of estimated instance memory
	DefaultCacheEntries     = 1024
	DefaultSolveTimeout     = 5 * time.Minute
	DefaultMaxUploadBytes   = 256 << 20
	DefaultMaxBatchVariants = 64
	DefaultMaxSessions      = 64
	DefaultMaxSolveQueue    = 256
	DefaultPeerTimeout      = 2 * time.Second
)

// withDefaults resolves zero fields to their documented defaults.
func (c Config) withDefaults() Config {
	if c.MemoryBudget == 0 {
		c.MemoryBudget = DefaultMemoryBudget
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = DefaultCacheEntries
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.SolveTimeout == 0 {
		c.SolveTimeout = DefaultSolveTimeout
	}
	if c.MaxUploadBytes <= 0 {
		c.MaxUploadBytes = DefaultMaxUploadBytes
	}
	if c.MaxBatchVariants <= 0 {
		c.MaxBatchVariants = DefaultMaxBatchVariants
	}
	if c.MaxSessions <= 0 {
		c.MaxSessions = DefaultMaxSessions
	}
	if c.MaxSolveQueue == 0 {
		c.MaxSolveQueue = DefaultMaxSolveQueue
	}
	if c.PeerTimeout <= 0 {
		c.PeerTimeout = DefaultPeerTimeout
	}
	if c.ProbeInterval == 0 {
		c.ProbeInterval = DefaultProbeInterval
	}
	if c.BreakerThreshold <= 0 {
		c.BreakerThreshold = DefaultBreakerThreshold
	}
	if c.BreakerBackoff <= 0 {
		c.BreakerBackoff = DefaultBreakerBackoff
	}
	return c
}

// counters aggregates the engine's monotonic event counts and gauges; all
// fields are atomics so hot paths never take a lock to count.
type counters struct {
	hits        atomic.Int64 // solves served from the result cache
	misses      atomic.Int64 // solves not served from the result cache
	runs        atomic.Int64 // solver executions (monotonic)
	shared      atomic.Int64 // solves that joined an in-flight identical run
	errors      atomic.Int64 // solver runs that returned an error
	inflight    atomic.Int64 // currently executing solver runs
	lentSlots   atomic.Int64 // free worker slots lent to running runs (monotonic)
	evictions   atomic.Int64 // instances evicted under the memory budget
	simulations atomic.Int64 // message-level simulation runs

	scenarios       atomic.Int64 // what-if scenarios answered
	incremental     atomic.Int64 // scenarios served by the incremental path
	fullScenarios   atomic.Int64 // scenarios that fell back to a full solve
	objectsResolved atomic.Int64 // objects re-solved by incremental scenarios
	objectsSpliced  atomic.Int64 // objects spliced from cached base solves

	sessionsOpened  atomic.Int64 // streaming sessions opened (monotonic)
	sessionEvents   atomic.Int64 // events ingested across sessions
	sessionEpochs   atomic.Int64 // epochs closed across sessions
	sessionResolves atomic.Int64 // objects re-solved at session epoch closes
	sessionMoves    atomic.Int64 // per-object moves adopted by sessions

	persistErrors     atomic.Int64 // failed persistence operations (logged, mostly non-fatal)
	recoveredSessions atomic.Int64 // sessions rebuilt from snapshot+WAL at startup
	walDiscarded      atomic.Int64 // torn WAL tail bytes discarded at recovery

	failoverReads     atomic.Int64 // degraded reads served from the replica snapshot store
	replicaPushes     atomic.Int64 // instance snapshots pushed to the successor
	replicaPushErrors atomic.Int64 // failed successor pushes (best-effort, logged)

	sheds           atomic.Int64 // solves rejected by admission control (429)
	staleReads      atomic.Int64 // degraded stale placements served under overload
	queued          atomic.Int64 // solves admitted right now (waiting + running)
	queueHighWater  atomic.Int64 // high-water mark of admission pressure (includes shed attempts)
	retriesObserved atomic.Int64 // requests carrying a client retry header
	deadlineRejects atomic.Int64 // requests rejected on arrival as unmeetable
	dedupedBatches  atomic.Int64 // sequenced event batches deduplicated by idempotent ingest
}

// bumpHighWater lifts queueHighWater to at least v.
func (c *counters) bumpHighWater(v int64) {
	for {
		cur := c.queueHighWater.Load()
		if v <= cur || c.queueHighWater.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Stats is a point-in-time snapshot of the service, rendered by /statz.
type Stats struct {
	// UptimeSeconds since the server was constructed.
	UptimeSeconds float64 `json:"uptime_seconds"`
	// Instances currently resident in the registry.
	Instances int `json:"instances"`
	// InstanceBytes is the registry's estimated resident memory.
	InstanceBytes int64 `json:"instance_bytes"`
	// MemoryBudget is the configured registry budget (negative: unbounded).
	MemoryBudget int64 `json:"memory_budget"`
	// Evictions counts instances dropped under the memory budget.
	Evictions int64 `json:"evictions"`
	// CacheEntries is the number of cached solve results.
	CacheEntries int `json:"cache_entries"`
	// CacheHits / CacheMisses count solves served from cache vs executed.
	CacheHits   int64 `json:"cache_hits"`
	CacheMisses int64 `json:"cache_misses"`
	// CacheHitRate is hits / (hits + misses), 0 when nothing was asked.
	CacheHitRate float64 `json:"cache_hit_rate"`
	// SolvesTotal counts solver executions; because identical in-flight
	// requests collapse, it can be far below CacheMisses under load.
	SolvesTotal int64 `json:"solves_total"`
	// Workers is the configured worker-pool size.
	Workers int `json:"workers"`
	// SharedSolves counts requests that joined an identical in-flight run
	// instead of executing their own.
	SharedSolves int64 `json:"shared_solves"`
	// InFlightSolves is the number of solver runs executing right now.
	InFlightSolves int64 `json:"in_flight_solves"`
	// LentSlots counts the free worker slots lent to running algo=approx
	// runs to widen their object fan-out (monotonic; see docs/tuning.md).
	// A lent slot is not a run: InFlightSolves and QueueDepth do not
	// count it.
	LentSlots int64 `json:"lent_slots"`
	// SolveErrors counts solver runs that failed (including cancellations).
	SolveErrors int64 `json:"solve_errors"`
	// Simulations counts message-level simulation runs.
	Simulations int64 `json:"simulations"`
	// WhatIfScenarios counts answered what-if scenarios;
	// WhatIfIncremental of them took the incremental path and WhatIfFull
	// fell back to a full solve (storage change, non-approx algorithm, or
	// incremental disabled).
	WhatIfScenarios   int64 `json:"whatif_scenarios"`
	WhatIfIncremental int64 `json:"whatif_incremental"`
	WhatIfFull        int64 `json:"whatif_full"`
	// IncrementalHitRate is WhatIfIncremental / WhatIfScenarios (0 when no
	// scenarios were asked).
	IncrementalHitRate float64 `json:"incremental_hit_rate"`
	// ObjectsResolved / ObjectsSpliced count, across incremental scenarios,
	// objects re-solved versus spliced from the cached base solve — the
	// work the incremental path did versus avoided.
	ObjectsResolved int64 `json:"objects_resolved"`
	ObjectsSpliced  int64 `json:"objects_spliced"`
	// SessionsOpen is the number of live streaming sessions;
	// SessionsOpened counts every session ever opened.
	SessionsOpen   int   `json:"sessions_open"`
	SessionsOpened int64 `json:"sessions_opened"`
	// SessionEvents / SessionEpochs / SessionResolves / SessionMoves
	// aggregate the streaming sessions' ingest volume, closed epochs,
	// per-epoch object re-solves, and adopted placement moves.
	SessionEvents   int64 `json:"session_events"`
	SessionEpochs   int64 `json:"session_epochs"`
	SessionResolves int64 `json:"session_resolves"`
	SessionMoves    int64 `json:"session_moves"`
	// Persistence reports whether a data directory is attached (servers
	// built by Open with Config.DataDir). PersistErrors counts failed
	// persistence operations, RecoveredSessions the sessions rebuilt from
	// snapshot + WAL at the last startup, and WALDiscardedBytes the torn
	// WAL tail bytes recovery discarded (see docs/persistence.md).
	Persistence       bool  `json:"persistence"`
	PersistErrors     int64 `json:"persist_errors"`
	RecoveredSessions int64 `json:"recovered_sessions"`
	WALDiscardedBytes int64 `json:"wal_discarded_bytes"`
	// Ready mirrors /readyz (true once recovery finished and until drain
	// begins); Draining reports that BeginDrain was called.
	Ready    bool `json:"ready"`
	Draining bool `json:"draining"`
	// Sheds counts solve/what-if requests rejected by admission control
	// (429 + Retry-After); MaxSolveQueue echoes the configured bound
	// (negative: shedding disabled). QueueDepth is the number of solves
	// admitted right now (waiting + running) and QueueHighWater the
	// highest admission pressure ever seen, counting the attempt that was
	// shed — under sustained overload it reads Workers+MaxSolveQueue+1.
	Sheds          int64 `json:"sheds"`
	MaxSolveQueue  int   `json:"max_solve_queue"`
	QueueDepth     int64 `json:"queue_depth"`
	QueueHighWater int64 `json:"queue_high_water"`
	// StaleReads counts degraded responses served from the last-good
	// placement cache while the solver was saturated; RetriesObserved
	// counts requests that carried the client retry header;
	// DeadlineRejects counts requests rejected on arrival because their
	// X-Netplace-Deadline could not be met; DedupedBatches counts
	// sequenced session event batches the idempotent ingest path dropped
	// as already applied (see docs/resilience.md).
	StaleReads      int64 `json:"stale_reads"`
	RetriesObserved int64 `json:"retries_observed"`
	DeadlineRejects int64 `json:"deadline_rejects"`
	DedupedBatches  int64 `json:"deduped_batches"`
	// Peers is the live peer count (drained members drop out).
	Peers int `json:"peers"`
	// PeerHealth maps each peer URL to its circuit breaker state
	// (closed / open / half-open); BreakerOpens counts every breaker
	// open transition since startup. Absent when the replica has no
	// peers. See docs/cluster.md "Failure modes & membership".
	PeerHealth   map[string]string `json:"peer_health,omitempty"`
	BreakerOpens int64             `json:"breaker_opens"`
	// ReplicaInstances counts read-only instance snapshots held for
	// other replicas' keys; FailoverReads counts degraded reads answered
	// from them; ReplicaPushes / ReplicaPushErrors count snapshot pushes
	// to this replica's successor (and how many failed).
	ReplicaInstances  int   `json:"replica_instances"`
	FailoverReads     int64 `json:"failover_reads"`
	ReplicaPushes     int64 `json:"replica_pushes"`
	ReplicaPushErrors int64 `json:"replica_push_errors"`
}

// ClusterStats is the cluster-wide /statz view (GET /statz?cluster=1):
// the serving replica fans the plain /statz request out to its peers and
// merges every reachable snapshot. See docs/cluster.md.
type ClusterStats struct {
	// Self is the serving replica's advertised URL (Config.SelfURL, or
	// "self" when unset).
	Self string `json:"self"`
	// Replicas maps each replica URL (Self included) to its own Stats
	// snapshot. Unreachable peers are absent here and listed in Errors.
	Replicas map[string]Stats `json:"replicas"`
	// Errors maps unreachable peer URLs to the fetch error.
	Errors map[string]string `json:"errors,omitempty"`
	// Totals sums the load-bearing counters across reachable replicas.
	Totals ClusterTotals `json:"totals"`
}

// ClusterTotals sums the counters that make cluster-wide behavior
// legible: whether identical solves collapsed on their owner
// (SolvesTotal vs CacheHits), how much ingest the cluster absorbed, and
// how much it shed.
type ClusterTotals struct {
	Replicas      int   `json:"replicas"`
	Instances     int   `json:"instances"`
	SolvesTotal   int64 `json:"solves_total"`
	CacheHits     int64 `json:"cache_hits"`
	CacheMisses   int64 `json:"cache_misses"`
	SessionsOpen  int   `json:"sessions_open"`
	SessionEvents int64 `json:"session_events"`
	SessionEpochs int64 `json:"session_epochs"`
	Sheds         int64 `json:"sheds"`
}

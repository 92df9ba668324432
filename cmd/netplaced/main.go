// Command netplaced serves the netplace placement algorithms over
// HTTP/JSON: upload an instance once, then query placements, cost
// breakdowns, what-if variants, and message-level simulations repeatedly
// without re-parsing or re-solving — identical solves are deduplicated
// in flight and served from a result cache.
//
// Usage:
//
//	netplaced [-addr :8723] [-mem-budget bytes] [-cache entries]
//	          [-workers n] [-solve-timeout 5m]
//	          [-max-queue n] [-data-dir dir] [-no-sync]
//	          [-fsync-interval 0]
//	          [-cluster url1,url2,...] [-self url]
//	          [-peer-timeout 2s] [-probe-interval 1s]
//	          [-breaker-threshold 3] [-breaker-backoff 250ms]
//	netplaced -drain-peer url -cluster url1,url2,...
//
// With -cluster the server is one replica of a sharded netplaced
// cluster (see docs/cluster.md): -cluster lists every replica's base
// URL and -self this replica's own. Instances and their sessions are
// sharded across the replicas by content hash on a consistent-hash
// ring; requests for keys another replica owns are transparently
// forwarded to it (with an X-Netplace-Forwarded hop guard), so any
// replica is a valid entry point. Because every call for an instance
// reaches its owner, the owner's result cache and in-flight dedup run
// each identical solve once cluster-wide; /statz?cluster=1 merges every
// replica's counters into one view.
//
// The cluster is self-healing: every replica tracks its peers with
// per-peer circuit breakers fed by a background /readyz prober (every
// -probe-interval; negative disables) and by passive traffic errors.
// After -breaker-threshold consecutive failures a peer's breaker opens
// and requests that need it fail fast with 503, an
// X-Netplace-Replica-Down header, and a Retry-After matching the
// breaker's reopen-probe backoff (-breaker-backoff, doubled per failed
// probe). Each replica also pushes a read-only snapshot of every
// instance it owns to its ring successor (the next member in sorted
// -cluster order), so stale-tolerant reads — solve, cost, and instance
// info carrying X-Netplace-Allow-Stale — fail over to the successor
// while the owner is partitioned; writes surface the typed 503 until it
// heals. -drain-peer gracefully retires a replica instead: the target
// drains (final snapshots, WAL flush), every surviving replica drops it
// from the ring via POST /v1/cluster/drain (a survivor whose successor
// it was re-pushes its snapshots to its new successor), and its
// instances are re-homed across the survivors. See docs/cluster.md
// ("Failure modes & membership").
//
// With -data-dir the server is durable: uploaded instances are
// snapshotted at registration and every streaming session keeps a
// snapshot plus an event write-ahead log under the directory, so a
// restart (or crash) recovers instances and sessions to exactly the
// state every acknowledged request left them in — see
// docs/persistence.md. -no-sync trades fsync durability against an OS
// crash for ingest throughput; a plain process crash still loses
// nothing. -fsync-interval is the middle ground: group-commit, fsyncing
// the session WAL at most once per interval (0, the default, fsyncs
// every append), bounding what an OS crash can lose to one interval of
// acked events — a loss the durable sequence watermark lets sequenced
// clients detect and replay exactly once. Without -data-dir the server
// is purely in-memory.
//
// The server is overload-resilient: -max-queue bounds how many solve
// and what-if requests may wait for a worker (default 256, negative
// unbounded); excess requests are shed immediately with 429 and a
// Retry-After hint instead of queueing without bound. Clients can
// propagate budgets via the X-Netplace-Deadline header and opt into
// degraded stale reads under overload with X-Netplace-Allow-Stale.
// GET /readyz answers 503 from the moment shutdown begins, so load
// balancers rotate the instance out while in-flight work completes; on
// SIGTERM the server drains — after in-flight requests finish, every
// live session is snapshotted so the next start recovers with zero WAL
// replay. See docs/resilience.md.
//
// -workers bounds how many solver runs execute at once. How many
// goroutines share one object's solve follows the instance size alone:
// one below 16384 nodes, all cores at or above.
//
// Endpoints (see internal/service.Server for bodies):
//
//	POST   /instances                 upload an instance (JSON wire format)
//	GET    /instances                 list resident instances
//	GET    /instances/{id}            instance record
//	DELETE /instances/{id}            drop an instance
//	POST   /instances/{id}/solve      solve (approx, tree, optimal, baselines)
//	POST   /instances/{id}/whatif     batched options variants or demand
//	                                  scenarios (incremental re-solve)
//	POST   /instances/{id}/cost       price a client-supplied placement
//	POST   /instances/{id}/simulate   message-level replay of the workload
//	GET    /instances/{id}/export     instance snapshot (replication/drain)
//	POST   /v1/sessions               open a streaming adaptive session
//	GET    /v1/sessions               list open sessions
//	GET    /v1/sessions/{id}          session record + stats
//	DELETE /v1/sessions/{id}          close a session
//	POST   /v1/sessions/{id}/events   stream request events (epoch re-solve)
//	POST   /v1/sessions/{id}/flush    close the open partial epoch
//	GET    /v1/sessions/{id}/placement  current adaptive placement
//	PUT    /v1/replica/instances/{id} push a replica snapshot (internal)
//	DELETE /v1/replica/instances/{id} drop a replica snapshot (internal)
//	GET    /v1/replica/instances      list held replica snapshots
//	POST   /v1/cluster/drain          drain this replica / remove a peer
//	GET    /healthz                   liveness
//	GET    /readyz                    readiness (503 while recovering or draining)
//	GET    /statz                     cache/solve/eviction/incremental/session statistics
//
// With -pprof the profiling endpoints are mounted as well:
//
//	GET    /debug/pprof/...           net/http/pprof (profile, heap, trace, ...)
//	GET    /debug/memz                runtime heap and GC snapshot (JSON)
//
// A smoke session against a running server:
//
//	curl -s localhost:8723/instances -d '{"name":"demo","instance":{...}}'
//	curl -s localhost:8723/instances/<id>/solve -d '{"options":{"algo":"approx"}}'
//	curl -s localhost:8723/statz
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"netplace/internal/cluster"
	"netplace/internal/service"
)

func main() {
	var (
		addr      = flag.String("addr", ":8723", "listen address")
		mem       = flag.Int64("mem-budget", 0, "resident-instance memory budget in estimated bytes (0: default, <0: unbounded)")
		cache     = flag.Int("cache", 0, "solve-result cache entries (0: default, <0: disable)")
		workers   = flag.Int("workers", 0, "max concurrently executing solver runs (0: GOMAXPROCS)")
		timeout   = flag.Duration("solve-timeout", 0, "per-solve wall-clock cap (0: default, <0: none)")
		maxBatch  = flag.Int("max-batch", 0, "max variants per what-if request (0: default)")
		maxSess   = flag.Int("max-sessions", 0, "max concurrently open streaming sessions (0: default)")
		noIncr    = flag.Bool("no-incremental", false, "answer every what-if scenario with a full solve")
		withPprof = flag.Bool("pprof", false, "expose /debug/pprof and /debug/memz profiling endpoints")
		dataDir   = flag.String("data-dir", "", "persist instances and sessions under this directory and recover them at startup (empty: in-memory)")
		noSync    = flag.Bool("no-sync", false, "skip fsyncs on the persistence path (faster; an OS crash can lose acked events)")
		maxQueue  = flag.Int("max-queue", 0, "max solve/what-if requests waiting for a worker before shedding with 429 (0: default 256, <0: unbounded)")
		fsyncIvl  = flag.Duration("fsync-interval", 0, "group-commit window: fsync session WALs at most once per interval (0: every append)")
		clusterL  = flag.String("cluster", "", "comma-separated base URLs of every cluster replica (empty: standalone); see docs/cluster.md")
		selfURL   = flag.String("self", "", "this replica's own base URL within -cluster")
		peerTime  = flag.Duration("peer-timeout", 0, "per-peer cap on gossip fetches, health probes, and successor pushes (0: default 2s)")
		probeIvl  = flag.Duration("probe-interval", 0, "peer /readyz health-probe interval (0: default 1s, <0: passive-only breakers)")
		bThresh   = flag.Int("breaker-threshold", 0, "consecutive peer failures before its circuit breaker opens (0: default 3)")
		bBackoff  = flag.Duration("breaker-backoff", 0, "initial breaker reopen-probe backoff, doubled per failed probe (0: default 250ms)")
		drainPeer = flag.String("drain-peer", "", "drain this replica URL out of -cluster and re-home its instances, then exit")
	)
	flag.Parse()

	var peers []string
	if *clusterL != "" {
		for _, u := range strings.Split(*clusterL, ",") {
			if u = strings.TrimSpace(u); u != "" {
				peers = append(peers, strings.TrimRight(u, "/"))
			}
		}
	}
	if *drainPeer != "" {
		if err := drainPeerCmd(strings.TrimRight(*drainPeer, "/"), peers); err != nil {
			fmt.Fprintln(os.Stderr, "netplaced: drain-peer:", err)
			os.Exit(1)
		}
		return
	}
	self := strings.TrimRight(*selfURL, "/")
	if len(peers) > 0 && self == "" {
		fmt.Fprintln(os.Stderr, "netplaced: -cluster needs -self")
		os.Exit(1)
	}
	srv, err := service.Open(service.Config{
		MemoryBudget:       *mem,
		CacheEntries:       *cache,
		Workers:            *workers,
		SolveTimeout:       *timeout,
		MaxBatchVariants:   *maxBatch,
		MaxSessions:        *maxSess,
		DisableIncremental: *noIncr,
		DataDir:            *dataDir,
		NoSync:             *noSync,
		MaxSolveQueue:      *maxQueue,
		FsyncInterval:      *fsyncIvl,
		Peers:              peers,
		SelfURL:            self,
		PeerTimeout:        *peerTime,
		ProbeInterval:      *probeIvl,
		BreakerThreshold:   *bThresh,
		BreakerBackoff:     *bBackoff,
		SuccessorURL:       cluster.SuccessorOf(peers, self),
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "netplaced:", err)
		os.Exit(1)
	}
	defer srv.Close()
	if *dataDir != "" {
		st := srv.Stats()
		log.Printf("netplaced data dir %s: recovered %d instances, %d sessions", *dataDir, st.Instances, st.RecoveredSessions)
	}
	handler := srv.Handler()
	if len(peers) > 0 {
		p := cluster.NewProxy(self, peers, handler, nil)
		// Share the server's breaker set with the proxy so passive
		// errors, prober verdicts, and proxy forwards all feed (and
		// honor) the same per-peer state.
		p.UseHealth(srv.PeerHealth())
		handler = p
	}
	if *withPprof {
		// Profiling endpoints are opt-in: they expose internals and cost
		// stop-the-world pauses (heap profiles, memstats), so production
		// deployments enable them deliberately.
		mux := http.NewServeMux()
		mux.Handle("/", handler)
		mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
		mux.HandleFunc("GET /debug/memz", handleMemz)
		handler = mux
	}
	hs := &http.Server{
		Addr:              *addr,
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
	}

	// Serve until SIGINT/SIGTERM, then drain in-flight requests briefly.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	// Listen explicitly (rather than ListenAndServe) so the actual bound
	// address is known and logged before any request can arrive — with
	// -addr :0 the kernel picks the port, and the cluster test harness
	// reads it from this line.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "netplaced:", err)
		os.Exit(1)
	}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	log.Printf("netplaced listening on %s", ln.Addr())

	select {
	case err := <-errc:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "netplaced:", err)
			os.Exit(1)
		}
	case <-ctx.Done():
		log.Printf("netplaced draining")
		// Flip /readyz to 503 first so load balancers stop sending work,
		// then let in-flight requests finish, then snapshot every live
		// session so the next start recovers with zero WAL replay.
		srv.BeginDrain()
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := hs.Shutdown(shutdownCtx); err != nil {
			fmt.Fprintln(os.Stderr, "netplaced: shutdown:", err)
			os.Exit(1)
		}
		if err := srv.Drain(); err != nil {
			fmt.Fprintln(os.Stderr, "netplaced: drain:", err)
			os.Exit(1)
		}
		log.Printf("netplaced drained cleanly")
	}
}

// drainPeerCmd retires one replica from a running cluster: export its
// instances while it still answers, drain it (final session snapshots
// and WAL flush, /readyz flips to 503), remove it from every surviving
// replica's ring, then re-home the exported instances across the
// survivors via a sharded upload. The drained process is left running
// in its drained state for the operator to stop.
func drainPeerCmd(target string, peers []string) error {
	if target == "" {
		return fmt.Errorf("needs a replica URL")
	}
	if len(peers) == 0 {
		return fmt.Errorf("needs -cluster listing every replica")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	tc := service.NewClient(target, nil)

	infos, err := tc.List(ctx)
	if err != nil {
		return fmt.Errorf("listing instances on %s: %w", target, err)
	}
	exports := make([]service.InstanceExport, 0, len(infos))
	for _, info := range infos {
		exp, err := tc.Export(ctx, info.ID)
		if err != nil {
			return fmt.Errorf("exporting instance %s from %s: %w", info.ID, target, err)
		}
		exports = append(exports, exp)
	}

	resp, err := tc.ClusterDrain(ctx, "")
	if err != nil {
		return fmt.Errorf("draining %s: %w", target, err)
	}
	log.Printf("netplaced drain-peer: %s %s (%d sessions drained)", target, resp.Status, resp.SessionsDrained)

	var survivors []string
	for _, p := range peers {
		if p == target {
			continue
		}
		if _, err := service.NewClient(p, nil).ClusterDrain(ctx, target); err != nil {
			return fmt.Errorf("removing %s from %s: %w", target, p, err)
		}
		survivors = append(survivors, p)
	}
	if len(survivors) == 0 {
		log.Printf("netplaced drain-peer: no survivors; %d instances not re-homed", len(exports))
		return nil
	}

	sc, err := cluster.NewShardedClient(survivors, nil)
	if err != nil {
		return err
	}
	for _, exp := range exports {
		in, err := exp.Instance.Instance()
		if err != nil {
			return fmt.Errorf("decoding exported instance %q: %w", exp.Name, err)
		}
		if _, err := sc.Upload(ctx, exp.Name, in); err != nil {
			return fmt.Errorf("re-homing instance %q: %w", exp.Name, err)
		}
	}
	log.Printf("netplaced drain-peer: re-homed %d instances across %d survivors", len(exports), len(survivors))
	return nil
}

// handleMemz renders a runtime heap/GC snapshot: the numbers an operator
// correlates with /statz when deciding whether the memory budget or the
// row-cache bound needs tuning.
func handleMemz(w http.ResponseWriter, r *http.Request) {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(map[string]any{ //nolint:errcheck // headers are out
		"heap_alloc_bytes":    m.HeapAlloc,
		"heap_sys_bytes":      m.HeapSys,
		"heap_objects":        m.HeapObjects,
		"total_alloc_bytes":   m.TotalAlloc,
		"mallocs":             m.Mallocs,
		"frees":               m.Frees,
		"gc_cycles":           m.NumGC,
		"gc_pause_total_ms":   float64(m.PauseTotalNs) / 1e6,
		"gc_cpu_fraction":     m.GCCPUFraction,
		"next_gc_bytes":       m.NextGC,
		"goroutines":          runtime.NumGoroutine(),
		"gomaxprocs":          runtime.GOMAXPROCS(0),
		"stack_in_use_bytes":  m.StackInuse,
		"last_gc_unix_millis": m.LastGC / 1e6,
	})
}

package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"

	"netplace/internal/cluster"
	"netplace/internal/service"
)

// host is one service.Server served over HTTP on a loopback listener.
type host struct {
	srv     *service.Server
	hs      *http.Server
	url     string
	dataDir string        // removed after the server closes; "" in memory
	served  chan struct{} // closed when Serve has returned
}

// listen binds a kernel-chosen loopback port.
func listen() (net.Listener, error) { return net.Listen("tcp", "127.0.0.1:0") }

// serve starts serving h on ln and registers the host's shutdown with b.
// The shutdown runs http.Server.Shutdown, waits for Serve to return,
// closes the service.Server and removes dataDir.
func serve(b *bench, srv *service.Server, h http.Handler, ln net.Listener, dataDir string) *host {
	hs := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	x := &host{srv: srv, hs: hs, url: "http://" + ln.Addr().String(), dataDir: dataDir, served: make(chan struct{})}
	go func() {
		defer close(x.served)
		_ = hs.Serve(ln) // always http.ErrServerClosed after Shutdown
	}()
	b.onExit(x.shutdown)
	return x
}

// shutdown stops the listener, waits for in-flight requests, closes the
// server's sessions and prober and removes its data directory.
func (x *host) shutdown() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := x.hs.Shutdown(ctx); err != nil {
		_ = x.hs.Close()
	}
	<-x.served
	x.srv.Close()
	if x.dataDir != "" {
		os.RemoveAll(x.dataDir)
	}
}

// startServer hosts one standalone server. A durable one keeps its state
// in a fresh directory under b.tmpdir and fsyncs every batch
// (FsyncInterval 0); the directory goes with the server's shutdown, so
// it is removed even when the server starts after the run has ended.
func startServer(b *bench, durable bool) (*host, error) {
	var cfg service.Config
	if durable {
		dir, err := os.MkdirTemp(b.tmpdir, "netbench-*")
		if err != nil {
			return nil, err
		}
		cfg.DataDir = dir
	}
	ln, err := listen()
	if err == nil {
		var srv *service.Server
		if srv, err = service.Open(cfg); err == nil {
			return serve(b, srv, srv.Handler(), ln, cfg.DataDir), nil
		}
		ln.Close()
	}
	if cfg.DataDir != "" {
		os.RemoveAll(cfg.DataDir)
	}
	return nil, err
}

// startCluster hosts a two-replica cluster wired the way netplaced
// -cluster wires one: each replica is a service.Server inside a
// cluster.Proxy that shares the server's PeerHealth, the other replica
// is its successor, the prober runs at its default interval and state is
// in memory.
func startCluster(b *bench) ([]*host, error) {
	var lns []net.Listener
	var urls []string
	for i := 0; i < 2; i++ {
		ln, err := listen()
		if err != nil {
			for _, l := range lns {
				l.Close()
			}
			return nil, err
		}
		lns = append(lns, ln)
		urls = append(urls, "http://"+ln.Addr().String())
	}
	hosts := make([]*host, len(urls))
	for i, self := range urls {
		srv := service.New(service.Config{
			Peers:        urls,
			SelfURL:      self,
			SuccessorURL: cluster.SuccessorOf(urls, self),
		})
		p := cluster.NewProxy(self, urls, srv.Handler(), nil)
		p.UseHealth(srv.PeerHealth())
		hosts[i] = serve(b, srv, p, lns[i], "")
	}
	return hosts, nil
}

// clientFor returns a service.Client for url whose transport holds at
// most two connections, the benchmark's client concurrency. Retries stay
// off: a failed call counts as a failed op.
func clientFor(b *bench, url string) *service.Client {
	tr := &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2, IdleConnTimeout: 30 * time.Second}
	b.onExit(tr.CloseIdleConnections)
	return service.NewClient(url, &http.Client{Transport: tr})
}

// statzSum sums the /statz snapshots of hosts.
func statzSum(ctx context.Context, hosts []*host) (service.Stats, error) {
	var sum service.Stats
	for _, h := range hosts {
		st, err := service.NewClient(h.url, nil).Stats(ctx)
		if err != nil {
			return sum, fmt.Errorf("statz %s: %w", h.url, err)
		}
		sum.CacheHits += st.CacheHits
		sum.CacheMisses += st.CacheMisses
		sum.SolvesTotal += st.SolvesTotal
		sum.Sheds += st.Sheds
		sum.ReplicaPushErrors += st.ReplicaPushErrors
		sum.PersistErrors += st.PersistErrors
		sum.SolveErrors += st.SolveErrors
		if st.QueueHighWater > sum.QueueHighWater {
			sum.QueueHighWater = st.QueueHighWater
		}
	}
	return sum, nil
}

// recordStatz turns the /statz deltas of a measured phase into the
// service layer's count metrics and fails the run on server-side errors.
func recordStatz(b *bench, before, after service.Stats, ops int) error {
	hits := after.CacheHits - before.CacheHits
	misses := after.CacheMisses - before.CacheMisses
	if hits+misses > 0 {
		b.set("service.cache_hit_ratio", float64(hits)/float64(hits+misses))
	}
	if ops > 0 {
		b.set("service.solves_per_op", float64(after.SolvesTotal-before.SolvesTotal)/float64(ops))
	}
	b.set("service.sheds", float64(after.Sheds-before.Sheds))
	b.set("service.queue_high_water", float64(after.QueueHighWater))
	if d := after.ReplicaPushErrors - before.ReplicaPushErrors; d != 0 {
		return fmt.Errorf("%d replica push errors", d)
	}
	if d := after.PersistErrors - before.PersistErrors; d != 0 {
		return fmt.Errorf("%d persistence errors", d)
	}
	if d := after.SolveErrors - before.SolveErrors; d != 0 {
		return fmt.Errorf("%d solve errors", d)
	}
	return nil
}

// resetPeakRSS starts a fresh peak-memory window: it collects garbage,
// returns freed memory to the OS and resets the kernel's peak RSS
// (VmHWM) mark, so peak_rss_mb covers the measured phase only and not
// the set-up repetitions before it.
func resetPeakRSS() {
	runtime.GC()
	debug.FreeOSMemory()
	// Writing 5 to clear_refs resets VmHWM (Linux 4.0+); without it the
	// mark simply keeps the set-up peak.
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads the process's peak resident set size (VmHWM) in MB.
func peakRSSMB() float64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// median returns the median of xs (0 when empty).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (0 when empty). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// tailPercentiles are the candidates for a tail latency, highest first.
var tailPercentiles = []float64{99.9, 99, 95, 90, 50}

// tail returns the highest candidate percentile that leaves at least ten
// samples beyond it, and the latency there.
func tail(xs []float64) (pct, v float64) {
	for _, p := range tailPercentiles {
		if float64(len(xs))*(1-p/100) >= 10 {
			return p, quantile(xs, p/100)
		}
	}
	return 50, median(xs)
}

// recordLatency sets latency_p50_ms and latency_tail_ms from per-op
// latencies in milliseconds and notes the tail's percentile and sample
// count.
func recordLatency(b *bench, label string, lat []float64) {
	b.set("latency_p50_ms", median(lat))
	p, v := tail(lat)
	b.set("latency_tail_ms", v)
	b.note("%s: %d samples, tail = p%g", label, len(lat), p)
}

// setupReps is how many times timeSetup repeats a workload's set-up. The
// median of five ignores up to two repetitions that a passing slow
// stretch of a shared machine delays.
const setupReps = 5

// timeSetup runs setup setupReps times on fresh servers, shutting down
// what all but the last repetition started, records the median duration
// as setup_s and opens the measured phase's peak-memory window.
func timeSetup(b *bench, setup func() error) error {
	var ds []float64
	for i := 0; i < setupReps; i++ {
		mark := b.mark()
		start := time.Now()
		if err := setup(); err != nil {
			return err
		}
		ds = append(ds, time.Since(start).Seconds())
		if i < setupReps-1 {
			b.unwindTo(mark)
		}
	}
	b.set("setup_s", median(ds))
	b.note("setup_s samples: %v", ds)
	resetPeakRSS()
	return nil
}

// ms converts a duration to milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

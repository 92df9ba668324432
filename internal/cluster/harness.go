package cluster

import (
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"netplace/internal/service"
)

// Harness boots a real netplaced cluster as child processes — one
// compiled binary per replica, each with its own -data-dir, port, and
// -cluster peer list — and supports SIGKILL plus same-port restart
// mid-test. It is the substrate of the multi-process conformance suite:
// unlike the in-process CrashHarness (internal/service), a kill here
// takes the whole process with its sockets, caches, and singleflight
// state, exactly like a crashed replica in production.
//
// Determinism rules (the flake-hardening contract, mirrored in
// service.CrashHarness's doc comment): ports are pre-allocated by
// binding :0 and closing, readiness is only ever established by polling
// /readyz — never by sleeping a guessed duration — and a boot that
// loses its pre-allocated port to a raced bind tears the whole cluster
// down and retries with fresh ports, because every replica's -cluster
// flag embeds every port.
type Harness struct {
	cfg HarnessConfig
	bin string
	rep []*Replica
}

// HarnessConfig configures a cluster boot.
type HarnessConfig struct {
	// N is the replica count (at least 1).
	N int
	// BaseDir is the root under which per-replica data directories and
	// log files are created (required; use t.TempDir() from tests).
	BaseDir string
	// ExtraArgs appends additional netplaced flags to every replica.
	ExtraArgs []string
	// FaultProxy interposes a TCP fault proxy in front of every
	// replica: the advertised URL is the proxy's port, the process
	// listens on a private inner port, and SetFault can partition a
	// replica (blackhole, reset, one-way) without touching its process.
	FaultProxy bool
	// Binary is the netplaced executable to run. Empty uses the
	// NETPLACED_BIN environment variable or, failing that, builds
	// netplace/cmd/netplaced once per test process.
	Binary string
	// ReadyTimeout bounds one replica's boot-to-ready wait (default 30s).
	ReadyTimeout time.Duration
}

// Replica is one netplaced process slot in the harness: its URL and
// data directory are stable across Kill/Restart cycles.
type Replica struct {
	// Index is the replica's position in the harness.
	Index int
	// URL is the replica's base URL ("http://127.0.0.1:<port>").
	URL string
	// DataDir is the replica's persistent state directory.
	DataDir string

	port    int
	logPath string
	cmd     *exec.Cmd
	waitCh  chan error

	// innerPort is the process's real listen port when a fault proxy
	// owns the advertised one; zero otherwise.
	innerPort int
	fault     *faultProxy
}

// listenPort is the port the replica process itself binds: the inner
// port behind a fault proxy, else the advertised one.
func (r *Replica) listenPort() int {
	if r.fault != nil {
		return r.innerPort
	}
	return r.port
}

// netplacedBuild memoizes building the netplaced binary once per test
// process.
var netplacedBuild struct {
	once sync.Once
	path string
	err  error
}

// netplacedBinary resolves the binary to run: NETPLACED_BIN when set
// (CI builds it once in its own step), else a go-build into a temp
// directory, shared by every harness in the process.
func netplacedBinary() (string, error) {
	if p := os.Getenv("NETPLACED_BIN"); p != "" {
		return p, nil
	}
	netplacedBuild.once.Do(func() {
		dir, err := os.MkdirTemp("", "netplaced-bin-")
		if err != nil {
			netplacedBuild.err = err
			return
		}
		out := filepath.Join(dir, "netplaced")
		cmd := exec.Command("go", "build", "-o", out, "netplace/cmd/netplaced")
		if msg, err := cmd.CombinedOutput(); err != nil {
			netplacedBuild.err = fmt.Errorf("cluster: building netplaced: %v\n%s", err, msg)
			return
		}
		netplacedBuild.path = out
	})
	return netplacedBuild.path, netplacedBuild.err
}

// NewHarness prepares a harness (builds or resolves the binary, creates
// the per-replica directories) without starting any process; call Start.
func NewHarness(cfg HarnessConfig) (*Harness, error) {
	if cfg.N < 1 {
		return nil, fmt.Errorf("cluster: harness needs N >= 1 replicas, got %d", cfg.N)
	}
	if cfg.BaseDir == "" {
		return nil, fmt.Errorf("cluster: harness needs a BaseDir")
	}
	if cfg.ReadyTimeout <= 0 {
		cfg.ReadyTimeout = 30 * time.Second
	}
	bin := cfg.Binary
	if bin == "" {
		var err error
		if bin, err = netplacedBinary(); err != nil {
			return nil, err
		}
	}
	h := &Harness{cfg: cfg, bin: bin}
	for i := 0; i < cfg.N; i++ {
		dataDir := filepath.Join(cfg.BaseDir, fmt.Sprintf("replica-%d", i))
		if err := os.MkdirAll(dataDir, 0o755); err != nil {
			return nil, err
		}
		h.rep = append(h.rep, &Replica{
			Index:   i,
			DataDir: dataDir,
			logPath: filepath.Join(cfg.BaseDir, fmt.Sprintf("replica-%d.log", i)),
		})
	}
	return h, nil
}

// allocPort reserves a free TCP port by binding :0 and closing — the
// standard pre-allocation pattern; the tiny close-to-exec window is
// covered by Start's whole-cluster retry.
func allocPort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	port := ln.Addr().(*net.TCPAddr).Port
	return port, ln.Close()
}

// Start allocates ports and boots every replica, returning once all of
// them answer /readyz. A boot that fails because a pre-allocated port
// was raced away is retried from scratch (fresh ports for everyone) up
// to three times; any other failure surfaces with the replica's log.
func (h *Harness) Start() error {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		if err := h.tryStart(); err != nil {
			lastErr = err
			h.Stop()
			if strings.Contains(err.Error(), "address already in use") {
				continue // port raced away: fresh ports, new attempt
			}
			return err
		}
		return nil
	}
	return fmt.Errorf("cluster: harness start failed after 3 attempts: %w", lastErr)
}

// tryStart is one whole-cluster boot attempt.
func (h *Harness) tryStart() error {
	for _, r := range h.rep {
		port, err := allocPort()
		if err != nil {
			return err
		}
		r.port = port
		r.URL = "http://127.0.0.1:" + strconv.Itoa(port)
		if h.cfg.FaultProxy {
			inner, err := allocPort()
			if err != nil {
				return err
			}
			r.innerPort = inner
			// The proxy binds the advertised port right now and holds
			// it for the replica's lifetime, so only the inner port is
			// exposed to the close-to-exec race.
			fp, err := newFaultProxy("127.0.0.1:"+strconv.Itoa(port), "127.0.0.1:"+strconv.Itoa(inner))
			if err != nil {
				return err
			}
			r.fault = fp
		}
	}
	for _, r := range h.rep {
		if err := h.StartReplica(r.Index); err != nil {
			return err
		}
	}
	return h.AwaitReady()
}

// StartReplica launches one replica's process on its pre-assigned port
// and data directory. It does not wait for readiness; pair with
// AwaitReady (Restart does both).
func (h *Harness) StartReplica(i int) error {
	r := h.rep[i]
	if r.cmd != nil {
		return fmt.Errorf("cluster: replica %d already running; Kill it first", i)
	}
	urls := make([]string, len(h.rep))
	for j, rr := range h.rep {
		urls[j] = rr.URL
	}
	args := []string{
		"-addr", "127.0.0.1:" + strconv.Itoa(r.listenPort()),
		"-data-dir", r.DataDir,
		"-cluster", strings.Join(urls, ","),
		"-self", r.URL,
	}
	args = append(args, h.cfg.ExtraArgs...)
	logf, err := os.OpenFile(r.logPath, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	cmd := exec.Command(h.bin, args...)
	cmd.Stdout = logf
	cmd.Stderr = logf
	if err := cmd.Start(); err != nil {
		logf.Close()
		return err
	}
	r.cmd = cmd
	r.waitCh = make(chan error, 1)
	go func() {
		r.waitCh <- cmd.Wait()
		logf.Close()
	}()
	return nil
}

// AwaitReady polls every running replica's /readyz until it answers 200
// — the only readiness signal the harness ever trusts. A replica whose
// process exits while being polled fails fast with its log tail.
func (h *Harness) AwaitReady() error {
	for _, r := range h.rep {
		if r.cmd == nil {
			continue
		}
		if err := h.awaitOne(r); err != nil {
			return err
		}
	}
	return nil
}

// awaitOne polls one replica until ready, its process exits, or the
// configured timeout lapses.
func (h *Harness) awaitOne(r *Replica) error {
	deadline := time.Now().Add(h.cfg.ReadyTimeout)
	client := &http.Client{Timeout: time.Second}
	for {
		select {
		case err := <-r.waitCh:
			r.cmd = nil
			return fmt.Errorf("cluster: replica %d exited while booting (%v)\n%s", r.Index, err, h.LogTail(r.Index))
		default:
		}
		resp, err := client.Get(r.URL + "/readyz")
		if err == nil {
			ok := resp.StatusCode == http.StatusOK
			resp.Body.Close()
			if ok {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("cluster: replica %d not ready within %v\n%s", r.Index, h.cfg.ReadyTimeout, h.LogTail(r.Index))
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// Kill SIGKILLs one replica and reaps the process — no drain, no
// flush: durable state is exactly what the replica fsynced, like a real
// crash. The port and data directory stay reserved for Restart.
func (h *Harness) Kill(i int) error {
	r := h.rep[i]
	if r.cmd == nil {
		return fmt.Errorf("cluster: replica %d is not running", i)
	}
	if err := r.cmd.Process.Kill(); err != nil {
		return err
	}
	<-r.waitCh // reap; the error is the expected "killed"
	r.cmd = nil
	return nil
}

// Restart boots a previously killed replica on its original port and
// data directory and waits until it answers /readyz (recovery replayed).
func (h *Harness) Restart(i int) error {
	if err := h.StartReplica(i); err != nil {
		return err
	}
	return h.awaitOne(h.rep[i])
}

// Stop kills every running replica and tears down fault proxies; safe
// to defer unconditionally.
func (h *Harness) Stop() {
	for i, r := range h.rep {
		if r.cmd != nil {
			h.Kill(i) //nolint:errcheck // teardown is best-effort
		}
		if r.fault != nil {
			r.fault.Close()
			r.fault = nil
		}
	}
}

// SetFault applies a fault mode to one replica's TCP proxy; the
// harness must have been built with FaultProxy. Existing connections
// through the proxy are severed so the fault is felt immediately.
func (h *Harness) SetFault(i int, mode FaultMode) error {
	r := h.rep[i]
	if r.fault == nil {
		return fmt.Errorf("cluster: replica %d has no fault proxy (HarnessConfig.FaultProxy not set)", i)
	}
	r.fault.SetMode(mode)
	return nil
}

// Heal clears any fault on one replica's TCP proxy.
func (h *Harness) Heal(i int) error { return h.SetFault(i, FaultNone) }

// URLs returns every replica's base URL in index order.
func (h *Harness) URLs() []string {
	urls := make([]string, len(h.rep))
	for i, r := range h.rep {
		urls[i] = r.URL
	}
	return urls
}

// Replica returns the i-th replica slot.
func (h *Harness) Replica(i int) *Replica { return h.rep[i] }

// Client builds a ShardedClient over the cluster with the service's
// default retry policy — the configuration under which a mid-replay
// kill+restart is absorbed transparently.
func (h *Harness) Client() (*ShardedClient, error) {
	sc, err := NewShardedClient(h.URLs(), nil)
	if err != nil {
		return nil, err
	}
	sc.SetRetryPolicy(defaultHarnessRetry())
	return sc, nil
}

// defaultHarnessRetry is service.DefaultRetryPolicy with a doubled
// attempt budget: enough patience to ride out a replica that is being
// killed and restarted under the client's feet, while still bounded so
// a genuinely dead cluster fails the test instead of hanging it.
func defaultHarnessRetry() service.RetryPolicy {
	p := service.DefaultRetryPolicy()
	p.MaxAttempts = 8
	return p
}

// LogTail returns up to the last 4 KiB of a replica's combined output,
// for failure messages.
func (h *Harness) LogTail(i int) string {
	data, err := os.ReadFile(h.rep[i].logPath)
	if err != nil {
		return ""
	}
	if len(data) > 4096 {
		data = data[len(data)-4096:]
	}
	return string(data)
}

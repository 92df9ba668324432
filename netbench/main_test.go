package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestSmoke runs every workload at toy size, untraced and traced. Each
// run must pass its output checks, print every metric of its mode by
// name with its unit, and leave no listener, goroutine or temp dir
// behind.
func TestSmoke(t *testing.T) {
	for _, w := range []string{"plan_small", "session_ingest"} {
		for _, trace := range []string{"0", "1"} {
			t.Run(w+"/trace="+trace, func(t *testing.T) {
				dir := t.TempDir()
				var stdout, stderr bytes.Buffer
				code := runClean(t, context.Background(), dir, []string{"-workload", w, "-seed", "7", "-seconds", "1",
					"-trace", trace, "-smoke", "-tmpdir", dir, "-spans", filepath.Join(dir, "spans")},
					&stdout, &stderr)
				if code != 0 {
					t.Fatalf("exit %d\nstderr:\n%s\nstdout:\n%s", code, stderr.String(), stdout.String())
				}
				out := lastJSON(t, stdout.String())
				if !out.Correct || out.Failed != 0 || out.Attempted < 1 {
					t.Fatalf("correct=%v attempted=%d failed=%d\n%s", out.Correct, out.Attempted, out.Failed, stderr.String())
				}
				want := e2eMetrics
				if trace == "1" {
					want = layerMetrics
				}
				if len(out.Metrics) != len(want) {
					t.Errorf("JSON has %d metrics, want %d", len(out.Metrics), len(want))
				}
				for _, d := range want {
					m, ok := out.Metrics[d.name]
					if !ok || m.Unit != d.unit {
						t.Errorf("metric %s: got %+v, want unit %s", d.name, m, d.unit)
					}
					if !printed(stdout.String(), d) {
						t.Errorf("metric %s %s not printed", d.name, d.unit)
					}
				}
				if trace == "1" {
					if _, err := os.Stat(filepath.Join(dir, "spans", "spans-"+w+"-7.jsonl")); err != nil {
						t.Errorf("spans not written: %v", err)
					}
				}
			})
		}
	}
}

// TestDeadlineCleansUp ends a run mid-workload through its parent
// context, as a deadline or a signal does, and checks that the failed
// run prints no result and still shuts everything down.
func TestDeadlineCleansUp(t *testing.T) {
	dir := t.TempDir()
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	var stdout, stderr bytes.Buffer
	code := runClean(t, ctx, dir, []string{"-workload", "session_ingest", "-seed", "3", "-seconds", "1",
		"-smoke", "-tmpdir", dir}, &stdout, &stderr)
	if code == 0 {
		t.Fatalf("run past its deadline exited 0:\n%s", stdout.String())
	}
	if strings.Contains(stdout.String(), `"correct"`) {
		t.Errorf("failed run printed a result:\n%s", stdout.String())
	}
}

// TestLateRegistrationsRunAtOnce registers cleanups from several
// goroutines while the run ends, and then starts a durable server after
// it ended, as a workload still winding down past its deadline would.
// Every cleanup must run exactly once, and the late server must leave no
// listener or data directory behind.
func TestLateRegistrationsRunAtOnce(t *testing.T) {
	dir := t.TempDir()
	b := &bench{tmpdir: dir}
	var ran atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				b.onExit(func() { ran.Add(1) })
			}
		}()
	}
	b.cleanup()
	wg.Wait()
	if got := ran.Load(); got != 400 {
		t.Errorf("%d cleanups ran, want 400", got)
	}

	listeners0 := listeners(t)
	h, err := startServer(b, true)
	if err != nil {
		t.Fatal(err)
	}
	if n := listeners(t); n > listeners0 {
		t.Errorf("%d listening sockets remain (%d before)", n, listeners0)
	}
	if _, err := os.Stat(h.dataDir); !os.IsNotExist(err) {
		t.Errorf("data dir %s remains (stat: %v)", h.dataDir, err)
	}
}

// TestBadArguments rejects unknown workloads without running anything.
func TestBadArguments(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(context.Background(), []string{"-workload", "nope"}, &stdout, &stderr); code == 0 {
		t.Fatal("unknown workload exited 0")
	}
}

// TestQuietSkipsBatchesBesideReSolves checks which open-loop batches
// count toward session_ingest's median: not a batch due during its own
// session's re-solve, not one running beside the other session's, not a
// failed one, and not the epoch-closing batch itself.
func TestQuietSkipsBatchesBesideReSolves(t *testing.T) {
	at := func(due, sent, acked time.Duration, epoch bool) ack {
		return ack{ms: ms(acked - due), epoch: epoch, due: due, sent: sent, acked: acked}
	}
	msec := time.Millisecond
	acks := [2][]ack{
		{
			at(100*msec, 100*msec, 300*msec, true),  // closes an epoch: re-solves until 300 ms
			at(150*msec, 300*msec, 301*msec, false), // due during its own session's re-solve
			at(400*msec, 400*msec, 401*msec, false), // quiet
		},
		{
			at(200*msec, 200*msec, 204*msec, false),                // beside session 0's re-solve
			at(500*msec, 500*msec, 501500*time.Microsecond, false), // quiet
			{err: errNotRun},
		},
	}
	got := quiet(acks)
	if want := []float64{1, 1.5}; !reflect.DeepEqual(got, want) {
		t.Fatalf("quiet = %v, want %v", got, want)
	}
}

// runClean runs the benchmark under ctx and asserts that afterwards the
// process holds no more listening sockets or goroutines than before and
// that tmpdir holds nothing but the spans directory.
func runClean(t *testing.T, ctx context.Context, tmpdir string, args []string, stdout, stderr *bytes.Buffer) int {
	t.Helper()
	listeners0 := listeners(t)
	goroutines0 := runtime.NumGoroutine()
	code := run(ctx, args, stdout, stderr)
	if n := listeners(t); n > listeners0 {
		t.Errorf("%d listening sockets remain (%d before)", n, listeners0)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > goroutines0 && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > goroutines0 {
		buf := make([]byte, 1<<16)
		t.Errorf("%d goroutines remain (%d before):\n%s", n, goroutines0, buf[:runtime.Stack(buf, true)])
	}
	entries, err := os.ReadDir(tmpdir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Name() != "spans" {
			t.Errorf("temp dir %s remains", e.Name())
		}
	}
	return code
}

// listeners counts the TCP sockets in LISTEN state that this process
// holds open, from /proc; it skips the test where /proc is missing.
func listeners(t *testing.T) int {
	t.Helper()
	listening := map[string]bool{}
	for _, table := range []string{"/proc/net/tcp", "/proc/net/tcp6"} {
		raw, err := os.ReadFile(table)
		if err != nil {
			continue
		}
		for _, line := range strings.Split(string(raw), "\n")[1:] {
			f := strings.Fields(line)
			if len(f) > 9 && f[3] == "0A" {
				listening[f[9]] = true
			}
		}
	}
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skip("no /proc: cannot count listening sockets")
	}
	n := 0
	for _, fd := range fds {
		link, err := os.Readlink(filepath.Join("/proc/self/fd", fd.Name()))
		if err == nil && strings.HasPrefix(link, "socket:[") && listening[strings.Trim(link[len("socket:"):], "[]")] {
			n++
		}
	}
	return n
}

// lastJSON decodes the last line of a run's standard output.
func lastJSON(t *testing.T, stdout string) output {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(stdout), "\n")
	var out output
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &out); err != nil {
		t.Fatalf("last line is not the result: %v\n%s", err, stdout)
	}
	return out
}

// printed reports whether stdout has a "name value unit" line for d.
func printed(stdout string, d metricDef) bool {
	for _, line := range strings.Split(stdout, "\n") {
		f := strings.Fields(line)
		if len(f) >= 3 && f[0] == d.name && f[2] == d.unit {
			return true
		}
	}
	return false
}

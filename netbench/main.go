// Command netbench is the end-to-end benchmark of the netplace placement
// service. It hosts every server inside its own process on 127.0.0.1:0
// listeners, drives them over HTTP with service.Client from at most two
// goroutines, checks every answer against an in-process reference, and
// prints each metric by name with its unit. The last line of standard
// output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
//
// Usage:
//
//	netbench -workload plan_small|session_ingest -seed N -seconds S
//	         -trace 0|1 [-smoke] [-tmpdir DIR] [-spans DIR]
//
// With -trace 0 the JSON carries the end-to-end metrics; with -trace 1 it
// carries the per-layer metrics of a traced run of the same seeded ops,
// plus the tracing overhead. -smoke shrinks every workload to toy size.
// A run that has not finished within deadlineFor(S) fails. The workloads
// and the reasons behind them are described in NOTES.md next to this
// file.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"
)

// workloads maps a workload name to the function that runs it.
var workloads = map[string]func(ctx context.Context, b *bench) error{
	"plan_small":     runPlanSmall,
	"session_ingest": runSessionIngest,
}

// e2eMetrics and layerMetrics are the metrics of the JSON result, for
// -trace 0 and -trace 1. Every workload measures each of them, so no
// time reads the same on every run; a count a workload never incurs
// reads 0. Closed-loop throughput is printed as an extra line instead of
// gated: on the 2-vCPU machine the benchmark was written on, it followed
// the machine's speed swings too closely (see NOTES.md).
var e2eMetrics = []metricDef{
	{"setup_s", "s"},
	{"latency_p50_ms", "ms"},
	{"latency_tail_ms", "ms"},
	{"peak_rss_mb", "MB"},
	{"placement_cost", "cost"},
}

var layerMetrics = []metricDef{
	{"service.request_ms", "ms"},
	{"service.upload_ms", "ms"},
	{"service.persist_ms", "ms"},
	{"service.replica_push_ms", "ms"},
	{"service.cache_hit_ratio", "ratio"},
	{"service.solves_per_op", "count"},
	{"service.sheds", "count"},
	{"service.queue_high_water", "count"},
	{"encode.decode_ms", "ms"},
	{"encode.hash_ms", "ms"},
	{"encode.upload_kb", "KB"},
	{"cluster.forward_ms", "ms"},
	{"cluster.forwarded_ratio", "ratio"},
	{"core.solve_ms", "ms"},
	{"facility.phase1_ms", "ms"},
	{"facility.phase1_share", "ratio"},
	{"metric.row_fill_ms", "ms"},
	{"metric.row_hit_ns", "ns"},
	{"metric.rows_batch_ms", "ms"},
	{"metric.rows_serial_ms", "ms"},
	{"metric.storage_radii_ms", "ms"},
	{"graph.sssp_heap_ms", "ms"},
	{"graph.sssp_auto_ms", "ms"},
	{"stream.resolves_per_epoch", "count"},
	{"stream.moves_per_epoch", "count"},
	{"stream.rejected_per_epoch", "count"},
	{"trace.overhead_p50_ms", "ms"},
	{"trace.overhead_throughput_per_s", "1/s"},
}

// workloadLayerMetrics are per-layer times only some workloads incur.
// Traced runs print the ones they measure as text lines; they stay out
// of the JSON so that no time reads 0 on every run of a workload that
// bypasses the layer.
var workloadLayerMetrics = []metricDef{
	{"service.solve_ms", "ms"},
	{"service.delete_ms", "ms"},
	{"service.events_ms", "ms"},
	{"core.approximate_ms", "ms"},
	{"metric.dense_build_ms", "ms"},
	{"stream.observe_us", "us"},
	{"stream.epoch_close_ms", "ms"},
	{"stream.resolve_ms", "ms"},
}

type metricDef struct{ name, unit string }

// bench is one run's configuration, its cleanup stack and its results.
type bench struct {
	seed    int64
	seconds int
	trace   bool
	smoke   bool
	tmpdir  string
	stderr  io.Writer

	tracer *tracer

	mu       sync.Mutex
	cleanups []func()
	closed   bool // set by cleanup: later registrations run at once

	attempted, failed int
	mismatches        []string
	values            map[string]float64
	extra             []string // workload-specific lines printed before the JSON
}

// set records a metric value.
func (b *bench) set(name string, v float64) { b.values[name] = v }

// note records a workload-specific line for the human-readable output.
func (b *bench) note(format string, args ...any) {
	b.extra = append(b.extra, fmt.Sprintf(format, args...))
}

// mismatch records a failed output check; the run then reports
// correct=false and exits non-zero.
func (b *bench) mismatch(format string, args ...any) {
	b.failed++
	if len(b.mismatches) < 20 {
		b.mismatches = append(b.mismatches, fmt.Sprintf(format, args...))
	}
}

// onExit registers fn to run when the run ends, on every exit path.
// Once the run has ended, fn runs at once instead, so a workload that is
// still winding down after its deadline leaves no server or directory
// behind.
func (b *bench) onExit(fn func()) {
	b.mu.Lock()
	closed := b.closed
	if !closed {
		b.cleanups = append(b.cleanups, fn)
	}
	b.mu.Unlock()
	if closed {
		fn()
	}
}

// mark returns how many cleanups are registered, for unwindTo.
func (b *bench) mark() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.cleanups)
}

// unwindTo runs and drops the cleanups registered after mark, newest
// first.
func (b *bench) unwindTo(mark int) {
	b.mu.Lock()
	var fns []func()
	if mark < len(b.cleanups) {
		fns = b.cleanups[mark:]
		b.cleanups = b.cleanups[:mark:mark]
	}
	b.mu.Unlock()
	for i := len(fns) - 1; i >= 0; i-- {
		fns[i]()
	}
}

// cleanup runs every registered cleanup, newest first, and makes later
// registrations run at once.
func (b *bench) cleanup() {
	b.mu.Lock()
	b.closed = true
	b.mu.Unlock()
	b.unwindTo(0)
	// Servers' peer clients use the default transport; drop its idle
	// connections so no connection goroutine outlives the run.
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
}

// output is the JSON object on the last line of standard output.
type output struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	// SIGINT or SIGTERM cancels the run like its deadline does, so the
	// servers still shut down and the data directories are removed.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// stopGrace is how long a run past its deadline waits for the workload
// to return before it shuts everything down.
const stopGrace = 10 * time.Second

// deadlineFor is how long a run of the given nominal seconds may take
// before it fails instead of lingering. On a 2-vCPU machine an untraced
// run took up to about 4.4 s and a traced one up to 5.3 s of wall time
// per nominal second, set-up and checks included; this allows nearly
// twice that, 155 s at 15 nominal seconds.
func deadlineFor(seconds int) time.Duration {
	return 20*time.Second + time.Duration(seconds)*9*time.Second
}

// run parses args, runs one workload under deadlineFor(seconds) and
// prints the result. It returns the process exit code. A run that
// parent cancels, or that passes its deadline, fails without a result.
func run(parent context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("netbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: plan_small or session_ingest")
	seed := fs.Int64("seed", 1, "seed of the generated inputs")
	seconds := fs.Int("seconds", 10, "nominal measured seconds; op counts scale with it")
	traceFlag := fs.Int("trace", 0, "1: traced run printing the per-layer metrics")
	smoke := fs.Bool("smoke", false, "toy-size inputs, for tests")
	tmpdir := fs.String("tmpdir", "", "parent of the run's data directories (default: the system temp dir)")
	spans := fs.String("spans", "", "directory to write the traced run's spans to (empty: do not write)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	drive, ok := workloads[*name]
	if !ok || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(stderr, "netbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *traceFlag)
		return 2
	}
	b := &bench{seed: *seed, seconds: *seconds, trace: *traceFlag == 1, smoke: *smoke,
		tmpdir: *tmpdir, stderr: stderr, values: map[string]float64{}}
	if b.trace {
		b.tracer = newTracer()
	}

	deadline := deadlineFor(*seconds)
	ctx, cancel := context.WithTimeout(parent, deadline)
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- drive(ctx, b) }()
	var err error
	select {
	case err = <-done:
	case <-ctx.Done():
		// Every client call and check loop watches ctx, so the workload
		// stops soon; whatever it starts after stopGrace is shut down as
		// it registers (see onExit).
		select {
		case err = <-done:
		case <-time.After(stopGrace):
		}
	}
	if ctx.Err() != nil {
		if parent.Err() == nil {
			err = fmt.Errorf("run did not finish within its deadline of %v", deadline)
		} else {
			err = fmt.Errorf("run cancelled before it finished: %w", parent.Err())
		}
	}
	b.cleanup()
	if err != nil {
		fmt.Fprintf(stderr, "netbench: %s: %v\n", *name, err)
		return 1
	}
	if b.tracer != nil && *spans != "" {
		path, werr := b.tracer.write(*spans, *name, *seed)
		if werr != nil {
			fmt.Fprintf(stderr, "netbench: writing spans: %v\n", werr)
			return 1
		}
		fmt.Fprintf(stdout, "spans written to %s\n", path)
	}
	return b.print(stdout, stderr)
}

// print writes every metric line and the closing JSON object, and
// returns the exit code: non-zero when an output check failed.
func (b *bench) print(stdout, stderr io.Writer) int {
	for _, line := range b.extra {
		fmt.Fprintln(stdout, line)
	}
	defs := append([]metricDef{{"throughput_per_s", "1/s"}}, e2eMetrics...)
	if b.trace {
		defs = append(defs, layerMetrics...)
		for _, d := range workloadLayerMetrics {
			if _, ok := b.values[d.name]; ok {
				defs = append(defs, d)
			}
		}
	}
	out := output{Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v := b.values[d.name]
		fmt.Fprintf(stdout, "%-40s %16.6f %s\n", d.name, v, d.unit)
	}
	rate := 0.0
	if b.attempted > 0 {
		rate = float64(b.failed) / float64(b.attempted)
	}
	fmt.Fprintf(stdout, "%-40s %16.6f %s\n", "error_rate", rate, "ratio")
	use := e2eMetrics
	if b.trace {
		use = layerMetrics
	}
	for _, d := range use {
		out.Metrics[d.name] = metricValue{Value: b.values[d.name], Unit: d.unit}
	}
	for _, m := range b.mismatches {
		fmt.Fprintf(stderr, "netbench: check failed: %s\n", m)
	}
	if b.attempted < 1 {
		b.attempted = 1
		out.Attempted = 1
		out.Correct = false
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(stderr, "netbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !out.Correct {
		return 1
	}
	return 0
}

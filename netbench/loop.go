package main

import (
	"context"
	"errors"
	"fmt"
	"time"
)

// Closed loops run one client through the op list in loopRounds rounds,
// consecutive slices of the list; each op starts when the previous one
// has completed. One client, not two: with two clients on the 2-vCPU
// machine the benchmark was written on, an op's latency hung on which of
// the other client's ops it overlapped, and three runs of one seed moved
// the median latency by 16%, against 3% with one client (see NOTES.md).
// Throughput is the median of the rounds' throughputs, so a slow stretch
// of a shared machine moves it less than it moves a single mean.
const loopRounds = 5

// loop is the outcome of one measured closed loop: per-op latencies in
// milliseconds, per-op errors (nil for ops that succeeded) and each
// round's throughput in ops per second.
type loop struct {
	lat   []float64
	errs  []error
	tputs []float64
}

// errNotRun marks an op the loop never started because the run was
// stopped, by its deadline or a signal.
var errNotRun = errors.New("not run: the run was stopped")

// closedLoop runs ops 0..n-1 in order, round by round.
func closedLoop(ctx context.Context, n int, op func(i int) error) loop {
	l := loop{lat: make([]float64, n), errs: make([]error, n)}
	for i := range l.errs {
		l.errs[i] = errNotRun
	}
	for r := 0; r < loopRounds; r++ {
		lo, hi := n*r/loopRounds, n*(r+1)/loopRounds
		if lo == hi {
			continue
		}
		start := time.Now()
		done := 0
		for i := lo; i < hi && ctx.Err() == nil; i++ {
			t0 := time.Now()
			l.errs[i] = op(i)
			l.lat[i] = ms(time.Since(t0))
			if l.errs[i] == nil {
				done++
			}
		}
		l.tputs = append(l.tputs, float64(done)/time.Since(start).Seconds())
	}
	return l
}

// ok returns the latencies of the ops that succeeded; failed ops count
// as failures, not as samples.
func (l loop) ok() []float64 {
	var out []float64
	for i, v := range l.lat {
		if l.errs[i] == nil {
			out = append(out, v)
		}
	}
	return out
}

// count adds the loop's ops to the attempted and failed totals and
// reports the first failures.
func (l loop) count(b *bench, label string) {
	b.attempted += len(l.lat)
	shown := 0
	for i, err := range l.errs {
		if err != nil {
			b.failed++
			if shown++; shown <= 5 {
				fmt.Fprintf(b.stderr, "netbench: %s op %d: %v\n", label, i, err)
			}
		}
	}
}

// record counts the loop and sets the throughput and latency metrics.
func (l loop) record(b *bench, label string) {
	l.count(b, label)
	b.set("throughput_per_s", median(l.tputs))
	b.note("%s round throughputs: %.4g", label, l.tputs)
	recordLatency(b, label, l.ok())
}

// setOverhead records the tracing overhead: traced minus untraced
// median latency and throughput of the same ops.
func setOverhead(b *bench, untraced, traced loop) {
	b.set("trace.overhead_p50_ms", median(traced.ok())-median(untraced.ok()))
	b.set("trace.overhead_throughput_per_s", median(traced.tputs)-median(untraced.tputs))
}

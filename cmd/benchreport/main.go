// Command benchreport runs the repository's kernel micro-benchmarks
// programmatically (via testing.Benchmark) and emits a machine-readable
// JSON report — the benchmark trajectory artifact (BENCH_PR3.json and
// successors) that CI regenerates and compares against the committed
// baseline on every push.
//
// Usage:
//
//	benchreport [-out report.json] [-baseline BENCH_PR6.json] [-max-regress 8]
//	            [-sizes 2500,50k] [-kernels solve,stream] [-budget 10m]
//	            [-gate-par 1.5] [-cpuprofile cpu.out] [-cpu 1,2,4,8]
//
// The kernels cover the steady-state hot path of the placement service in
// two size tiers. The 2500-node tier measures a resident lazy-oracle
// instance: full re-solve, cost evaluation, multi-source sweep, cache-hit
// row fetch, the batched what-if path both incremental and from-scratch,
// and one full streaming epoch of the adaptive engine. Below the size
// rule's threshold (recorded in the report note) these solves run
// serial. The 50k tier runs the solve, what-if and stream-epoch kernels
// on the sparse-grid acceptance topology, where every object's solve
// shards across GOMAXPROCS goroutines: each `_par` kernel runs at the
// ambient GOMAXPROCS and its serial twin is the same kernel at
// GOMAXPROCS 1, set and restored around it.
//
// -sizes and -kernels filter the kernel set (comma-separated size tags /
// name substrings); -budget stops starting new kernels once the wall-clock
// budget is spent, so the 50k tier cannot time out a CI job. Skipped or
// filtered kernels are exempt from the baseline comparison. -gate-par
// asserts that every measured `X_par` kernel beats its serial `X`
// counterpart by the given factor — the speedup gate the bench-large CI
// job runs on multi-core machines. -cpuprofile writes a pprof CPU profile
// covering the measured kernels.
//
// With -cpu, the whole kernel set is re-run once per requested
// GOMAXPROCS value and every entry is emitted as name/cpu=N — the form
// used to measure how the `_par` kernels scale with cores (serial twins
// still run at GOMAXPROCS 1). Without it,
// entries carry bare names at the ambient GOMAXPROCS (the form the CI
// gate compares).
//
// With -baseline, the current numbers are compared entry by entry against
// the committed report: a kernel slower (or allocation-heavier) than
// max-regress times the baseline fails the run. The threshold is
// deliberately generous — CI machines are noisy; the gate catches
// order-of-magnitude rot (a lost pool, a reintroduced boxing heap), not
// percentage drift.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"testing"
	"time"

	"netplace/internal/benchkit"
	"netplace/internal/core"
	"netplace/internal/metric"
	"netplace/internal/service"
	"netplace/internal/stream"
	"netplace/internal/workload"
)

// metricJSON is one kernel's measured costs.
type metricJSON struct {
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

// reportJSON is the on-disk report. Pre carries the pre-optimisation
// numbers measured when the trajectory file was first committed; the
// comparison gate only reads Benchmarks.
type reportJSON struct {
	Schema     string                `json:"schema"`
	Note       string                `json:"note,omitempty"`
	Benchmarks map[string]metricJSON `json:"benchmarks"`
	Pre        map[string]metricJSON `json:"pre,omitempty"`
}

var sink float64

// kernel is one measured benchmark: a stable name, its size tier tag (the
// -sizes filter key), and the body.
type kernel struct {
	name string
	size string
	fn   func(b *testing.B)
}

// kernels enumerates the measured benchmarks in report order. Each entry
// builds its own fixture outside the timed loop; the fixtures come with
// their oracle installed (internal/benchkit: lazy, 64 rows).
func kernels() []kernel {
	oneObject := core.Options{Workers: 1}
	ks := []kernel{
		{"resident_solve_2500_lazy", "2500", benchkit.Solve(benchkit.ResidentInstance, 8, core.Options{})},
		{"resident_objectcost_2500_lazy", "2500", benchkit.ObjectCost},
		{"resident_nearestof_2500_lazy", "2500", benchkit.NearestOf},
		{"lazy_row_hit_1024", "2500", func(b *testing.B) {
			in := benchkit.ResidentInstance(1)
			in.UseMetric(core.MetricLazy, 1024)
			o := in.Metric()
			for u := 0; u < 1024; u++ {
				o.Row(u)
			}
			const working = 32
			for u := 1024 - working; u < 1024; u++ {
				o.Row(u)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sink += o.Row(1024 - working + i%working)[0]
			}
		}},
		{"whatif_incremental_2500", "2500", func(b *testing.B) {
			benchWhatIf(b, service.Config{Workers: 2}, benchkit.ResidentInstance(8))
		}},
		{"whatif_full_2500", "2500", func(b *testing.B) {
			benchWhatIf(b, service.Config{Workers: 2, DisableIncremental: true}, benchkit.ResidentInstance(8))
		}},
		// One op = one full streaming epoch on a resident 2500-node
		// instance: 512 Observe calls (accounting against the warm lazy
		// oracle) plus the epoch close (estimate roll, incremental
		// re-solve of changed objects, hysteresis).
		{"stream_epoch_2500", "2500", benchkit.StreamEpoch(core.Options{}, benchkit.ResidentInstance, 8)},
	}
	// The 50k tier: the sparse-grid acceptance topology, where one
	// object's solve is heavy enough that sharding and batched row
	// construction must beat serial (the margin the bench-large CI job
	// gates with -gate-par). Each X_par kernel runs at the ambient
	// GOMAXPROCS; its serial twin X is the same kernel at GOMAXPROCS 1,
	// where the size rule resolves every sharded scan to one goroutine.
	// Both halves of solve_50k_lazy and of stream_epoch_50k place one
	// object at a time (Workers: 1), so each pair measures one object's
	// sharded solve, not object fan-out.
	for _, k := range []kernel{
		{"solve_50k_lazy", "50k", benchkit.Solve(benchkit.LargeInstance, 2, oneObject)},
		{"whatif_50k", "50k", func(b *testing.B) {
			benchWhatIf(b, service.Config{Workers: 2}, benchkit.LargeInstance(2))
		}},
		{"stream_epoch_50k", "50k", benchStreamEpochLarge(oneObject, 2)},
	} {
		serial := func(b *testing.B) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
			k.fn(b)
		}
		ks = append(ks, kernel{k.name, k.size, serial}, kernel{k.name + "_par", k.size, k.fn})
	}
	return ks
}

// benchStreamEpochLarge builds the 50k streaming-epoch kernel: one op is
// one full epoch of drifting read-only load — fresh uniform requesters
// every epoch, so the estimates always change and every close re-solves
// both objects through the sharded solve pipeline. Reads-only keeps the
// op cost stable: a write's multicast over the ~400-copy large placement
// rebuilds hundreds of distance rows, so op timing would hinge on whether
// the epoch happened to draw one of the fixture's rare writers; the
// multicast price is measured by the solve and what-if kernels instead.
func benchStreamEpochLarge(opts core.Options, objects int) func(b *testing.B) {
	return func(b *testing.B) {
		in := benchkit.LargeInstance(objects)
		rng := rand.New(rand.NewSource(7))
		const epoch = 512
		eng := stream.New(in, stream.Config{Epoch: epoch, Window: 4, Solve: opts})
		feed := func() {
			for i := 0; i < epoch; i++ {
				r := workload.Request{Obj: i % objects, V: rng.Intn(in.N())}
				if _, err := eng.Observe(r); err != nil {
					b.Fatal(err)
				}
			}
		}
		feed() // warm: the first close adopts the initial solved placement
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			feed()
		}
	}
}

// benchWhatIf measures one-object-changed scenarios against a resident
// instance: the incremental path re-solves 1 object and splices the rest;
// the full path re-solves every object each time.
func benchWhatIf(b *testing.B, cfg service.Config, in *core.Instance) {
	srv := service.New(cfg)
	info, _ := srv.Engine().Registry().Add("bench", in)
	ctx := context.Background()
	reads := make([]int64, in.N())
	for v := range reads {
		reads[v] = int64(v % 7)
	}
	sc := service.Scenario{Objects: []service.ObjectPatch{{Name: in.Objects[0].Name, Reads: reads}}}
	var opts service.SolveOptions
	// Warm the base solve so the loop measures scenario cost, not setup.
	if _, err := srv.Engine().Scenario(ctx, info.ID, opts, sc); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := srv.Engine().Scenario(ctx, info.ID, opts, sc)
		if err != nil {
			b.Fatal(err)
		}
		sink += res.Breakdown.Total
	}
}

func main() {
	out := flag.String("out", "", "write the JSON report here (default stdout)")
	baseline := flag.String("baseline", "", "compare against this committed report; regressions fail the run")
	maxRegress := flag.Float64("max-regress", 8, "fail when a kernel exceeds this multiple of the baseline")
	note := flag.String("note", "", "free-form note recorded in the report")
	cpus := flag.String("cpu", "", "comma-separated GOMAXPROCS values; kernels run once per value as name/cpu=N")
	sizes := flag.String("sizes", "", "comma-separated size tiers to run (e.g. 2500,50k); empty runs all")
	names := flag.String("kernels", "", "comma-separated kernel-name substrings to run; empty runs all")
	budget := flag.Duration("budget", 0, "stop starting new kernels once this wall-clock budget is spent (0: unlimited)")
	gatePar := flag.Float64("gate-par", 0, "require every measured X_par kernel to beat its serial X by this factor (0: no gate)")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile of the measured kernels here")
	flag.Parse()

	cpuList, err := parseCPUList(*cpus)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchreport:", err)
		os.Exit(1)
	}
	if len(cpuList) > 0 && *baseline != "" {
		// Per-cpu entries are suffixed name/cpu=N and would never match a
		// baseline's bare kernel names; fail before the expensive runs.
		fmt.Fprintln(os.Stderr, "benchreport: -cpu and -baseline are mutually exclusive (per-cpu entries do not match baseline kernel names)")
		os.Exit(1)
	}

	selected := selectKernels(*sizes, *names)
	if len(selected) == 0 {
		fmt.Fprintln(os.Stderr, "benchreport: no kernels match the -sizes/-kernels filters")
		os.Exit(1)
	}

	// The size rule's threshold is part of the measurement conditions:
	// it decides which kernels' solves shard.
	noteText := fmt.Sprintf("auto_parallel_min_nodes=%d", metric.AutoParallelMinNodes)
	if *note != "" {
		noteText = *note + "; " + noteText
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchreport:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "benchreport:", err)
			os.Exit(1)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}

	start := time.Now()
	rep := reportJSON{Schema: "netplace-bench/v1", Note: noteText, Benchmarks: map[string]metricJSON{}}
	measured := map[string]bool{}
	measure := func(suffix string) {
		for _, k := range selected {
			if *budget > 0 && time.Since(start) > *budget {
				fmt.Fprintf(os.Stderr, "benchreport: wall-clock budget %v spent; skipping %s and later kernels\n", *budget, k.name+suffix)
				return
			}
			r := testing.Benchmark(k.fn)
			name := k.name + suffix
			measured[name] = true
			rep.Benchmarks[name] = metricJSON{
				NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
				AllocsPerOp: r.AllocsPerOp(),
				BytesPerOp:  r.AllocedBytesPerOp(),
			}
			fmt.Fprintf(os.Stderr, "%-38s %14.0f ns/op %10d B/op %8d allocs/op\n",
				name, rep.Benchmarks[name].NsPerOp, rep.Benchmarks[name].BytesPerOp, rep.Benchmarks[name].AllocsPerOp)
		}
	}
	if len(cpuList) == 0 {
		measure("")
	} else {
		prev := runtime.GOMAXPROCS(0)
		for _, c := range cpuList {
			runtime.GOMAXPROCS(c)
			measure(fmt.Sprintf("/cpu=%d", c))
		}
		runtime.GOMAXPROCS(prev)
	}

	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchreport:", err)
		os.Exit(1)
	}
	buf = append(buf, '\n')
	if *out == "" {
		os.Stdout.Write(buf)
	} else if err := os.WriteFile(*out, buf, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchreport:", err)
		os.Exit(1)
	}

	failed := false
	if *baseline != "" {
		if failures := compare(rep, *baseline, *maxRegress, measured); len(failures) > 0 {
			for _, f := range failures {
				fmt.Fprintln(os.Stderr, "REGRESSION:", f)
			}
			failed = true
		} else {
			fmt.Fprintln(os.Stderr, "benchreport: within", *maxRegress, "x of baseline", *baseline)
		}
	}
	if *gatePar > 0 {
		if failures := gateParallel(rep, *gatePar); len(failures) > 0 {
			for _, f := range failures {
				fmt.Fprintln(os.Stderr, "PARALLEL GATE:", f)
			}
			failed = true
		} else {
			fmt.Fprintf(os.Stderr, "benchreport: every _par kernel >= %.2fx its serial counterpart\n", *gatePar)
		}
	}
	if failed {
		os.Exit(1)
	}
}

// selectKernels applies the -sizes and -kernels filters to the kernel
// list, preserving report order.
func selectKernels(sizes, names string) []kernel {
	sizeSet := map[string]bool{}
	for _, s := range strings.Split(sizes, ",") {
		if s = strings.TrimSpace(s); s != "" {
			sizeSet[s] = true
		}
	}
	var subs []string
	for _, s := range strings.Split(names, ",") {
		if s = strings.TrimSpace(s); s != "" {
			subs = append(subs, s)
		}
	}
	var out []kernel
	for _, k := range kernels() {
		if len(sizeSet) > 0 && !sizeSet[k.size] {
			continue
		}
		if len(subs) > 0 {
			hit := false
			for _, sub := range subs {
				if strings.Contains(k.name, sub) {
					hit = true
					break
				}
			}
			if !hit {
				continue
			}
		}
		out = append(out, k)
	}
	return out
}

// gateParallel checks that every measured X_par kernel beat its measured
// serial counterpart X by at least ratio. Pairs whose serial half was
// filtered out or skipped are ignored.
func gateParallel(rep reportJSON, ratio float64) []string {
	var failures []string
	for name, par := range rep.Benchmarks {
		base, ok := strings.CutSuffix(name, "_par")
		if !ok {
			continue
		}
		serial, ok := rep.Benchmarks[base]
		if !ok || par.NsPerOp <= 0 {
			continue
		}
		if got := serial.NsPerOp / par.NsPerOp; got < ratio {
			failures = append(failures, fmt.Sprintf("%s: %.2fx over %s, want >= %.2fx (%.0f vs %.0f ns/op)",
				name, got, base, ratio, par.NsPerOp, serial.NsPerOp))
		}
	}
	return failures
}

// parseCPUList parses the -cpu flag: a comma-separated list of positive
// GOMAXPROCS values, empty meaning "ambient only".
func parseCPUList(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		c, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || c < 1 {
			return nil, fmt.Errorf("bad -cpu entry %q (want positive integers)", part)
		}
		out = append(out, c)
	}
	return out, nil
}

// compare checks the current report against a committed baseline. Small
// absolute floors keep sub-millisecond kernels from tripping the gate on
// scheduler noise. Baseline entries outside the measured set (filtered
// out by -sizes/-kernels or skipped under -budget) are not compared —
// the filters select the gate's scope.
func compare(cur reportJSON, path string, maxRegress float64, measured map[string]bool) []string {
	raw, err := os.ReadFile(path)
	if err != nil {
		return []string{fmt.Sprintf("cannot read baseline: %v", err)}
	}
	var base reportJSON
	if err := json.Unmarshal(raw, &base); err != nil {
		return []string{fmt.Sprintf("cannot parse baseline: %v", err)}
	}
	var failures []string
	for name, b := range base.Benchmarks {
		if !measured[name] {
			continue
		}
		c := cur.Benchmarks[name]
		if c.NsPerOp > b.NsPerOp*maxRegress && c.NsPerOp > 1e6 {
			failures = append(failures, fmt.Sprintf("%s: %.0f ns/op vs baseline %.0f (>%.0fx)",
				name, c.NsPerOp, b.NsPerOp, maxRegress))
		}
		if float64(c.AllocsPerOp) > float64(b.AllocsPerOp)*maxRegress && c.AllocsPerOp > 512 {
			failures = append(failures, fmt.Sprintf("%s: %d allocs/op vs baseline %d (>%.0fx)",
				name, c.AllocsPerOp, b.AllocsPerOp, maxRegress))
		}
	}
	return failures
}

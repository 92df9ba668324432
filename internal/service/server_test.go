package service

import (
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"netplace/internal/encode"
)

// newTestServer returns a server (default config unless overridden) and a
// client talking to it over a real HTTP listener.
func newTestServer(t *testing.T, cfg Config) (*Server, *Client) {
	t.Helper()
	srv := New(cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, NewClient(ts.URL, ts.Client())
}

func TestServerUploadSolveCostSimulateFlow(t *testing.T) {
	_, c := newTestServer(t, Config{})
	ctx := context.Background()
	in := pathInstance(t, 10, 7)

	up, err := c.Upload(ctx, "flow", in)
	if err != nil {
		t.Fatal(err)
	}
	if !up.Created || up.Nodes != 10 {
		t.Fatalf("upload: %+v", up)
	}
	// Idempotent re-upload.
	again, err := c.Upload(ctx, "", in)
	if err != nil {
		t.Fatal(err)
	}
	if again.Created || again.ID != up.ID {
		t.Fatalf("re-upload: %+v", again)
	}

	res, err := c.Solve(ctx, up.ID, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cached || res.Copies == 0 || res.Breakdown.Total <= 0 {
		t.Fatalf("solve: %+v", res)
	}
	// The placement the server returned prices to the same breakdown.
	b, err := c.Cost(ctx, up.ID, res.Placement)
	if err != nil {
		t.Fatal(err)
	}
	if b != res.Breakdown {
		t.Fatalf("cost of returned placement %+v != solve breakdown %+v", b, res.Breakdown)
	}
	// And the message-level simulation meters the same total (E12 invariant).
	sim, err := c.Simulate(ctx, up.ID, res.Placement)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sim.Total-b.Total) > 1e-6*math.Max(1, b.Total) {
		t.Fatalf("simulated total %v != analytic %v", sim.Total, b.Total)
	}
	if sim.Requests == 0 || sim.Messages == 0 {
		t.Fatalf("simulation did not move messages: %+v", sim)
	}

	// A repeated identical solve is a cache hit, visible in /statz.
	res2, err := c.Solve(ctx, up.ID, SolveOptions{Algo: "approx"})
	if err != nil {
		t.Fatal(err)
	}
	if !res2.Cached {
		t.Fatal("repeated identical solve not served from cache")
	}
	if !reflect.DeepEqual(res2.Placement, res.Placement) {
		t.Fatal("cached placement differs")
	}
	st, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.CacheHits != 1 || st.CacheMisses != 1 || st.CacheHitRate != 0.5 {
		t.Fatalf("stats after hit: %+v", st)
	}
	if st.SolvesTotal != 1 || st.Instances != 1 || st.Simulations != 1 {
		t.Fatalf("stats counters: %+v", st)
	}

	if err := c.Health(ctx); err != nil {
		t.Fatal(err)
	}
	if err := c.Delete(ctx, up.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Solve(ctx, up.ID, SolveOptions{}); err == nil {
		t.Fatal("solve of deleted instance succeeded")
	}
}

func TestServerRegistryList(t *testing.T) {
	_, c := newTestServer(t, Config{})
	ctx := context.Background()
	a, err := c.Upload(ctx, "a", pathInstance(t, 6, 1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Upload(ctx, "b", pathInstance(t, 6, 2)); err != nil {
		t.Fatal(err)
	}
	l, err := c.List(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(l) != 2 {
		t.Fatalf("List: %+v", l)
	}
	info, err := c.Info(ctx, a.ID)
	if err != nil {
		t.Fatal(err)
	}
	if info.Name != "a" || info.Hash != a.Hash {
		t.Fatalf("Info: %+v", info)
	}
	if _, err := c.Info(ctx, "does-not-exist-00"); err == nil {
		t.Fatal("Info of unknown id succeeded")
	}
}

// TestConcurrentIdenticalSolvesCollapse holds the first solver run in
// flight, fires a second identical request, and asserts the solver executed
// exactly once for both.
func TestConcurrentIdenticalSolvesCollapse(t *testing.T) {
	srv, c := newTestServer(t, Config{})
	ctx := context.Background()
	up, err := c.Upload(ctx, "collapse", pathInstance(t, 12, 4))
	if err != nil {
		t.Fatal(err)
	}

	entered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	srv.Engine().testHookSolveStart = func() {
		once.Do(func() {
			close(entered)
			<-release
		})
	}

	results := make([]SolveResult, 2)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		results[0], errs[0] = c.Solve(ctx, up.ID, SolveOptions{})
	}()
	<-entered // leader is inside the solver
	wg.Add(1)
	go func() {
		defer wg.Done()
		results[1], errs[1] = c.Solve(ctx, up.ID, SolveOptions{})
	}()
	// Give the second request time to reach the singleflight join; even if
	// it is delayed past the release it hits the cache — either way the
	// solver must have executed exactly once.
	time.Sleep(50 * time.Millisecond)
	close(release)
	wg.Wait()

	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	if !reflect.DeepEqual(results[0].Placement, results[1].Placement) {
		t.Fatal("collapsed requests returned different placements")
	}
	st := srv.Stats()
	if st.SolvesTotal != 1 {
		t.Fatalf("solver executed %d times for two identical concurrent requests", st.SolvesTotal)
	}
	if st.SharedSolves+st.CacheHits != 1 {
		t.Fatalf("second request neither shared nor cache-served: %+v", st)
	}
}

func TestEngineBatchWhatIf(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 2})
	ctx := context.Background()
	up, err := c.Upload(ctx, "batch", pathInstance(t, 10, 3))
	if err != nil {
		t.Fatal(err)
	}
	variants := []SolveOptions{
		{},                    // paper defaults
		{SkipPhase2: true},    // ablation
		{SkipPhase3: true},    // ablation
		{Algo: "single"},      // baseline
		{Algo: "full"},        // baseline
		{Algo: "optimal"},     // exact (10 nodes)
		{Algo: "bogus"},       // must fail per-variant, not whole batch
		{},                    // duplicate of variant 0: cache or flight
		{Algo: "tree"},        // path network is a tree
		{FL: "mettu-plaxton"}, // explicit phase-1 solver
		{Phase2Factor: 7},     // custom factor
		{FL: "nonexistent"},   // must fail per-variant
	}
	out, err := c.WhatIf(ctx, up.ID, variants)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(variants) {
		t.Fatalf("got %d outcomes for %d variants", len(out), len(variants))
	}
	for i, o := range out {
		bad := i == 6 || i == 11
		if bad && o.Error == "" {
			t.Fatalf("variant %d should have failed", i)
		}
		if !bad && o.Error != "" {
			t.Fatalf("variant %d failed: %s", i, o.Error)
		}
		if !bad && o.Result.Breakdown.Total <= 0 {
			t.Fatalf("variant %d: %+v", i, o.Result)
		}
	}
	// The exact optimum lower-bounds every other restricted-model result.
	opt := out[5].Result.Breakdown.Total
	for _, i := range []int{0, 1, 2, 3, 4, 9, 10} {
		if out[i].Result.Breakdown.Total < opt-1e-9 {
			t.Fatalf("variant %d beat the exact optimum: %v < %v", i, out[i].Result.Breakdown.Total, opt)
		}
	}
	// The duplicate variant must not have run the solver twice.
	if out[7].Result.Breakdown != out[0].Result.Breakdown {
		t.Fatal("duplicate variant diverged")
	}
}

func TestServerRejectsBadInput(t *testing.T) {
	srv, c := newTestServer(t, Config{MaxBatchVariants: 2})
	ctx := context.Background()
	up, err := c.Upload(ctx, "bad", pathInstance(t, 6, 1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Solve(ctx, up.ID, SolveOptions{Algo: "nope"}); err == nil {
		t.Fatal("unknown algo accepted")
	}
	if _, err := c.Solve(ctx, up.ID, SolveOptions{FL: "nope"}); err == nil {
		t.Fatal("unknown fl accepted")
	}
	if _, err := c.Solve(ctx, "missing", SolveOptions{}); err == nil {
		t.Fatal("unknown instance accepted")
	}
	if _, err := c.WhatIf(ctx, up.ID, make([]SolveOptions, 3)); err == nil {
		t.Fatal("oversized batch accepted")
	}
	if _, err := c.WhatIf(ctx, up.ID, nil); err == nil {
		t.Fatal("empty batch accepted")
	}
	// A placement naming no objects must be rejected, not priced.
	if _, err := c.Cost(ctx, up.ID, encode.PlacementJSON{}); err == nil {
		t.Fatal("empty placement accepted")
	}
	if _, err := c.Simulate(ctx, up.ID, encode.PlacementJSON{Copies: map[string][]int{"obj": {99}}}); err == nil {
		t.Fatal("out-of-range placement accepted")
	}
	// Garbage instance uploads are rejected by validation.
	bad := encode.InstanceJSON{Nodes: 2, Storage: []float64{1}} // wrong storage len
	if _, err := bad.Instance(); err == nil {
		t.Fatal("bad wire instance validated")
	}
	if srv.Stats().SolveErrors != 0 {
		// Input validation failures never reach the solver.
		t.Fatalf("validation errors counted as solve errors: %+v", srv.Stats())
	}
}

func TestSolveTimeoutCancelsOptimal(t *testing.T) {
	// A 24-node optimal solve takes far longer than 1ms on any hardware;
	// the configured timeout must cancel it and surface an error.
	_, c := newTestServer(t, Config{SolveTimeout: time.Millisecond})
	ctx := context.Background()
	up, err := c.Upload(ctx, "slow", pathInstance(t, 24, 5))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Solve(ctx, up.ID, SolveOptions{Algo: "optimal"}); err == nil {
		t.Fatal("optimal solve outlived a 1ms budget")
	}
}

func TestCacheDisabled(t *testing.T) {
	srv, c := newTestServer(t, Config{CacheEntries: -1})
	ctx := context.Background()
	up, err := c.Upload(ctx, "nocache", pathInstance(t, 8, 2))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		res, err := c.Solve(ctx, up.ID, SolveOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Cached {
			t.Fatal("cache disabled but result served cached")
		}
	}
	if st := srv.Stats(); st.SolvesTotal != 2 || st.CacheEntries != 0 {
		t.Fatalf("stats with disabled cache: %+v", st)
	}
}

// TestInstanceSharedOracle asserts that an instance keeps one distance
// oracle across every kind of request: solves with each algorithm the
// path allows, an option batch, full and incremental what-ifs, and a
// session's open, epoch close and flush all read it, and none replaces it.
func TestInstanceSharedOracle(t *testing.T) {
	srv, c := newTestServer(t, Config{})
	ctx := context.Background()
	up, err := c.Upload(ctx, "oracle", pathInstance(t, 10, 3))
	if err != nil {
		t.Fatal(err)
	}
	reg, _, ok := srv.Engine().Registry().Get(up.ID)
	if !ok {
		t.Fatal("instance missing")
	}
	oracle := reg.Metric()
	same := func(what string) {
		t.Helper()
		if reg.Metric() != oracle {
			t.Fatalf("%s replaced the instance's oracle", what)
		}
	}
	for _, algo := range []string{"approx", "tree", "optimal", "single", "full", "greedy", "fl-only"} {
		if _, err := c.Solve(ctx, up.ID, SolveOptions{Algo: algo}); err != nil {
			t.Fatalf("algo=%s: %v", algo, err)
		}
		same("algo=" + algo)
	}
	outs, err := c.WhatIf(ctx, up.ID, []SolveOptions{{SkipPhase3: true}, {FL: "mettu-plaxton"}})
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range outs {
		if o.Error != "" {
			t.Fatalf("variant %d: %s", i, o.Error)
		}
	}
	same("an option batch")
	storage := make([]float64, 10)
	for v := range storage {
		storage[v] = 3
	}
	reads := []int64{0, 0, 0, 0, 0, 0, 0, 6, 0, 0}
	for _, sc := range []Scenario{{Label: "full", Storage: storage}, {Label: "incremental", Objects: []ObjectPatch{{Name: "obj", Reads: reads}}}} {
		outs, err := c.WhatIfScenarios(ctx, up.ID, SolveOptions{}, []Scenario{sc})
		if err != nil || outs[0].Error != "" {
			t.Fatalf("%s what-if: %v %+v", sc.Label, err, outs)
		}
		if got := outs[0].Result.Incremental; got != (sc.Storage == nil) {
			t.Fatalf("%s what-if ran incremental=%v", sc.Label, got)
		}
		same("a " + sc.Label + " what-if")
	}
	sess, err := c.OpenSession(ctx, up.ID, SessionConfig{Epoch: 4})
	if err != nil {
		t.Fatal(err)
	}
	same("a session open")
	evs := []SessionEvent{{Obj: "obj", Node: 8}, {Obj: "obj", Node: 9}, {Obj: "obj", Node: 8}, {Obj: "obj", Node: 0, Write: true}, {Obj: "obj", Node: 9}}
	resp, err := c.SessionEvents(ctx, sess.SessionID, evs)
	if err != nil || len(resp.Epochs) != 1 {
		t.Fatalf("events: %+v %v, want one epoch close", resp, err)
	}
	same("an epoch close")
	if resp, err := c.SessionFlush(ctx, sess.SessionID); err != nil || len(resp.Epochs) != 1 {
		t.Fatalf("flush: %+v %v, want one epoch close", resp, err)
	}
	same("a flush")
}

// The parallel, metric and metric_rows solve options are gone: a solve,
// what-if or session-open body that still carries one is refused by the
// strict body decoder with a 400 naming the field, and nothing runs.
func TestParallelOptionRejected(t *testing.T) {
	srv, c := newTestServer(t, Config{})
	up, err := c.Upload(context.Background(), "parallel", pathInstance(t, 10, 7))
	if err != nil {
		t.Fatal(err)
	}
	for _, field := range []struct{ name, value string }{
		{"parallel", "2"}, {"metric", `"lazy"`}, {"metric_rows", "4"},
	} {
		kv := `"` + field.name + `":` + field.value
		for _, tc := range []struct{ path, body string }{
			{"/instances/" + up.ID + "/solve", `{"options":{` + kv + `}}`},
			{"/instances/" + up.ID + "/whatif", `{"variants":[{` + kv + `}]}`},
			{"/instances/" + up.ID + "/whatif", `{"options":{` + kv + `},"scenarios":[{"label":"x"}]}`},
			{"/v1/sessions", `{"instance_id":"` + up.ID + `","config":{"options":{` + kv + `}}}`},
		} {
			rec := httptest.NewRecorder()
			srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, tc.path, strings.NewReader(tc.body)))
			var e errorJSON
			if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
				t.Fatalf("%s: undecodable error body %q: %v", tc.path, rec.Body.String(), err)
			}
			if rec.Code != http.StatusBadRequest || !strings.Contains(e.Error, `unknown field "`+field.name+`"`) {
				t.Fatalf("%s %s: %d %q, want a 400 naming the %s field", tc.path, tc.body, rec.Code, e.Error, field.name)
			}
		}
	}
	if st := srv.Stats(); st.SolvesTotal != 0 || st.WhatIfScenarios != 0 || st.SessionsOpened != 0 {
		t.Fatalf("refused requests did work: %+v", st)
	}
}

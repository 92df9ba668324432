package service

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"netplace/internal/core"
	"netplace/internal/graph"
)

// cycleInstance builds a small non-tree network (a cycle).
func cycleInstance(t *testing.T, n int) *core.Instance {
	t.Helper()
	g := graph.New(n)
	for v := 0; v < n; v++ {
		g.AddEdge(v, (v+1)%n, 1)
	}
	storage := make([]float64, n)
	for v := range storage {
		storage[v] = 2
	}
	obj := core.Object{Name: "obj", Reads: make([]int64, n), Writes: make([]int64, n)}
	obj.Reads[0] = 3
	obj.Writes[1] = 1
	in, err := core.NewInstance(g, storage, []core.Object{obj})
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// TestValidateForRejectsUnsafeOptions covers the per-instance request
// checks: the tree DP on a non-tree and exact enumeration on an instance
// past its node limit — each must fail as a client error before reaching
// the solver.
func TestValidateForRejectsUnsafeOptions(t *testing.T) {
	srv := New(Config{})
	e := srv.Engine()
	ctx := context.Background()

	cyc, _ := e.Registry().Add("cycle", cycleInstance(t, 8))
	if _, err := e.Solve(ctx, cyc.ID, SolveOptions{Algo: "tree"}); err == nil {
		t.Fatal("algo=tree accepted on a non-tree network")
	}

	big, _ := e.Registry().Add("big", pathInstance(t, 19, 7)) // one node past optimal's limit
	if _, err := e.Solve(ctx, big.ID, SolveOptions{Algo: "optimal"}); err == nil {
		t.Fatal("optimal enumeration on a large instance accepted")
	}
	if st := srv.Stats(); st.SolvesTotal != 0 || st.SolveErrors != 0 {
		t.Fatalf("validation failures reached the solver: %+v", st)
	}
}

// TestSolvePanicDoesNotWedgeKey recovers a panic inside a solver run into
// an error and proves the cache key stays usable afterwards (a wedged
// singleflight entry would hang the second call forever).
func TestSolvePanicDoesNotWedgeKey(t *testing.T) {
	srv := New(Config{})
	e := srv.Engine()
	ctx := context.Background()
	info, _ := e.Registry().Add("panicky", pathInstance(t, 8, 2))

	first := true
	e.testHookSolveStart = func() {
		if first {
			first = false
			panic("injected failure")
		}
	}
	if _, err := e.Solve(ctx, info.ID, SolveOptions{}); err == nil ||
		!strings.Contains(err.Error(), "panicked") {
		t.Fatalf("panicking solve returned err=%v, want recovered panic error", err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := e.Solve(ctx, info.ID, SolveOptions{})
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("solve after panic: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("solve after panic hung: singleflight key wedged")
	}
}

// TestWaiterTakesOverCancelledLeader joins request B onto a solve led by
// request A, cancels A mid-run, and asserts B re-runs the solve under its
// own context instead of inheriting A's cancellation.
func TestWaiterTakesOverCancelledLeader(t *testing.T) {
	srv := New(Config{})
	e := srv.Engine()
	// 13 nodes: the optimal enumeration crosses the 4096-mask context
	// checkpoint, so cancelling the leader actually aborts its run.
	info, _ := e.Registry().Add("takeover", pathInstance(t, 13, 4))

	entered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	e.testHookSolveStart = func() {
		once.Do(func() {
			close(entered)
			<-release
		})
	}

	ctxA, cancelA := context.WithCancel(context.Background())
	defer cancelA()
	errA := make(chan error, 1)
	go func() {
		_, err := e.Solve(ctxA, info.ID, SolveOptions{Algo: "optimal"})
		errA <- err
	}()
	<-entered // A is the leader, held inside its run
	errB := make(chan error, 1)
	var resB SolveResult
	go func() {
		var err error
		resB, err = e.Solve(context.Background(), info.ID, SolveOptions{Algo: "optimal"})
		errB <- err
	}()
	time.Sleep(50 * time.Millisecond) // let B join the flight
	cancelA()
	close(release)

	if err := <-errA; err == nil {
		t.Fatal("cancelled leader reported success")
	}
	if err := <-errB; err != nil {
		t.Fatalf("waiter inherited the leader's cancellation: %v", err)
	}
	if resB.Breakdown.Total <= 0 || resB.Copies == 0 {
		t.Fatalf("takeover produced no result: %+v", resB)
	}
}

// TestWaiterContextCancelsItsWait cancels a waiter's own context while the
// leader is still running: the waiter must return promptly without
// affecting the leader.
func TestWaiterContextCancelsItsWait(t *testing.T) {
	srv := New(Config{})
	e := srv.Engine()
	info, _ := e.Registry().Add("waitcancel", pathInstance(t, 10, 3))

	entered := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	e.testHookSolveStart = func() {
		once.Do(func() {
			close(entered)
			<-release
		})
	}

	errA := make(chan error, 1)
	go func() {
		_, err := e.Solve(context.Background(), info.ID, SolveOptions{})
		errA <- err
	}()
	<-entered
	ctxB, cancelB := context.WithCancel(context.Background())
	errB := make(chan error, 1)
	go func() {
		_, err := e.Solve(ctxB, info.ID, SolveOptions{})
		errB <- err
	}()
	time.Sleep(50 * time.Millisecond) // let B join the flight
	cancelB()
	select {
	case err := <-errB:
		if err == nil {
			t.Fatal("cancelled waiter reported success while leader still running")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled waiter stayed blocked on the leader")
	}
	close(release)
	if err := <-errA; err != nil {
		t.Fatalf("leader failed after waiter cancellation: %v", err)
	}
}

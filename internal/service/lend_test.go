package service

import (
	"context"
	"runtime"
	"strings"
	"testing"
	"time"
)

// withProcs runs the test at GOMAXPROCS procs, so the lending arithmetic
// (runWorkers, the GOMAXPROCS cap) does not depend on the machine.
func withProcs(t *testing.T, procs int) {
	t.Helper()
	prev := runtime.GOMAXPROCS(procs)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// TestSlotLendBound pins the lending rule's arithmetic: a run holding its
// own slot in an idle pool ends up with exactly ⌈min(objects,
// GOMAXPROCS) ÷ runWorkers()⌉ slots (never more than the pool), places
// its objects on slots held × runWorkers() goroutines capped at objects
// and GOMAXPROCS, and gives every lent slot back. In a full pool it lends
// nothing and does not wait.
func TestSlotLendBound(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 4, 8} {
		runtime.GOMAXPROCS(procs)
		for _, workers := range []int{1, 2, 3, 4, 8} {
			for _, objects := range []int{0, 1, 2, 3, 5, 8, 16} {
				e := NewEngine(Config{Workers: workers}, nil, &counters{})
				per := e.runWorkers()
				useful := min(objects, procs)
				held := max(1, min((useful+per-1)/per, workers))
				wantWidth := max(1, min(held*per, useful))

				e.sem <- struct{}{} // the run's own slot
				width, giveBack := e.lend(objects)
				if got := len(e.sem); got != held || width != wantWidth {
					t.Fatalf("procs %d workers %d objects %d: holds %d slots at width %d; want %d at width %d",
						procs, workers, objects, got, width, held, wantWidth)
				}
				if lent := e.counters.lentSlots.Load(); lent != int64(held-1) {
					t.Fatalf("procs %d workers %d objects %d: lent_slots %d, want %d", procs, workers, objects, lent, held-1)
				}
				giveBack()
				if len(e.sem) != 1 {
					t.Fatalf("procs %d workers %d objects %d: %d slots held after give-back, want 1", procs, workers, objects, len(e.sem))
				}

				for len(e.sem) < workers {
					e.sem <- struct{}{} // someone else holds every other slot
				}
				width, giveBack = e.lend(objects)
				giveBack()
				if len(e.sem) != workers || width != max(1, min(per, useful)) || e.counters.lentSlots.Load() != int64(held-1) {
					t.Fatalf("procs %d workers %d objects %d: full pool lent (width %d, %d slots held)", procs, workers, objects, width, len(e.sem))
				}
			}
		}
	}
}

// TestSlotLendIdlePool: with Workers 2 on 2 procs and nothing else
// running, a lone epoch-closing batch and a lone 3-object cold solve each
// borrow exactly the one free slot, and afterwards every slot is free and
// no run is in flight.
func TestSlotLendIdlePool(t *testing.T) {
	withProcs(t, 2)
	srv, c := newTestServer(t, Config{Workers: 2})
	ctx := context.Background()
	up, err := c.Upload(ctx, "lend", crashInstance(t))
	if err != nil {
		t.Fatal(err)
	}
	lent := func() int64 {
		t.Helper()
		st, err := c.Stats(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if len(srv.engine.sem) != 0 || st.InFlightSolves != 0 || st.QueueDepth != 0 {
			t.Fatalf("after the run: %d slots held, in_flight_solves %d, queue_depth %d; want all 0",
				len(srv.engine.sem), st.InFlightSolves, st.QueueDepth)
		}
		return st.LentSlots
	}
	info, err := c.OpenSession(ctx, up.ID, SessionConfig{Epoch: 16})
	if err != nil {
		t.Fatal(err)
	}
	evs := driftTrace(24, 16)
	if resp, err := c.SessionEvents(ctx, info.SessionID, evs[:8]); err != nil || len(resp.Epochs) != 0 {
		t.Fatalf("open batch: %+v, %v", resp, err)
	}
	if n := lent(); n != 0 {
		t.Fatalf("a batch that closes no epoch lent %d slots", n)
	}
	if resp, err := c.SessionEvents(ctx, info.SessionID, evs[8:]); err != nil || len(resp.Epochs) != 1 {
		t.Fatalf("closing batch: %+v, %v", resp, err)
	}
	if n := lent(); n != 1 {
		t.Fatalf("epoch-closing batch lent %d slots, want 1", n)
	}
	if _, err := c.Solve(ctx, up.ID, SolveOptions{}); err != nil {
		t.Fatal(err)
	}
	if n := lent(); n != 2 {
		t.Fatalf("cold 3-object solve lent %d slots, want 1", n-1)
	}
}

// TestSlotLendBusyPool: while the test holds one of the two slots, an
// epoch close runs on the other without lending and without waiting.
func TestSlotLendBusyPool(t *testing.T) {
	withProcs(t, 2)
	srv, c := newTestServer(t, Config{Workers: 2})
	ctx := context.Background()
	up, err := c.Upload(ctx, "lend", crashInstance(t))
	if err != nil {
		t.Fatal(err)
	}
	info, err := c.OpenSession(ctx, up.ID, SessionConfig{Epoch: 16})
	if err != nil {
		t.Fatal(err)
	}
	srv.engine.sem <- struct{}{}
	tctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	resp, err := c.SessionEvents(tctx, info.SessionID, driftTrace(24, 16))
	<-srv.engine.sem
	if err != nil || len(resp.Epochs) != 1 {
		t.Fatalf("closing batch beside a held slot: %+v, %v", resp, err)
	}
	st, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.LentSlots != 0 || len(srv.engine.sem) != 0 || st.InFlightSolves != 0 {
		t.Fatalf("busy pool: lent_slots %d, %d slots held, in_flight_solves %d; want all 0",
			st.LentSlots, len(srv.engine.sem), st.InFlightSolves)
	}
}

// blockedInSlot reports whether a goroutine that t started is parked in
// Engine.slot's select, i.e. waiting for a worker slot.
func blockedInSlot(t *testing.T) bool {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	for _, g := range strings.Split(string(buf), "\n\n") {
		if strings.Contains(g, "[select") && strings.Contains(g, "service.(*Engine).slot(") &&
			strings.Contains(g, "created by netplace/internal/service."+t.Name()) {
			return true
		}
	}
	return false
}

// TestSlotLendQueuedRequestFirst: a request already blocked in slot gets a
// freed slot before a lender can take it — the receive that frees a full
// pool's slot hands it straight to the blocked sender.
func TestSlotLendQueuedRequestFirst(t *testing.T) {
	withProcs(t, 2)
	e := NewEngine(Config{Workers: 2}, nil, &counters{})
	e.sem <- struct{}{} // a running run
	e.sem <- struct{}{} // the lender's own slot
	got := make(chan error, 1)
	var releaseWaiter func()
	go func() {
		var err error
		releaseWaiter, err = e.slot(context.Background())
		got <- err
	}()
	for !blockedInSlot(t) {
		time.Sleep(time.Millisecond)
	}
	<-e.sem // the running run ends
	width, giveBack := e.lend(3)
	if width != 1 || e.counters.lentSlots.Load() != 0 {
		t.Fatalf("lender took the freed slot from a queued request (width %d)", width)
	}
	giveBack()
	if err := <-got; err != nil {
		t.Fatal(err)
	}
	releaseWaiter()
	<-e.sem
	if len(e.sem) != 0 {
		t.Fatalf("%d slots still held", len(e.sem))
	}
}

package service

import (
	"context"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"netplace/internal/core"
	"netplace/internal/gen"
	"netplace/internal/workload"
)

// clusteredServiceInstance builds a mid-size clustered instance whose
// re-solves do enough radius-scan work for concurrent solves to overlap.
func clusteredServiceInstance(t *testing.T, objects int) *core.Instance {
	t.Helper()
	rng := rand.New(rand.NewSource(31))
	g := gen.Grid(10, 10, gen.UnitWeights)
	n := g.N()
	storage := make([]float64, n)
	for v := range storage {
		storage[v] = 2 + rng.Float64()*6
	}
	objs := workload.Generate(n, workload.Spec{Objects: objects, MeanRate: 3, WriteFraction: 0.3, ZipfS: 0.8}, rng)
	in, err := core.NewInstance(g, storage, objs)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// TestConcurrentSessionResolvesParallelRace hammers several streaming
// sessions at once, so session epoch re-solves overlap with each other
// and with concurrent what-if scenarios on the default schedule, all on
// one resident 16-row lazy oracle, each run borrowing whatever worker
// slots it finds free. Run with -race; every session must end on the
// same placement, every slot must come back, and the resident oracle
// must still be the one pinned before the sessions opened. The core
// package's TestConcurrentShardedSolvesRace covers the sharded scans at
// a forced width.
func TestConcurrentSessionResolvesParallelRace(t *testing.T) {
	srv, c := newTestServer(t, Config{Workers: 4})
	ctx := context.Background()
	in := clusteredServiceInstance(t, 4)
	up, err := c.Upload(ctx, "hammer", in)
	if err != nil {
		t.Fatal(err)
	}
	resident, _, ok := srv.engine.registry.Get(up.ID)
	if !ok {
		t.Fatal("instance missing")
	}
	// A row budget far below the 100 nodes keeps the lazy cache evicting
	// while the runs share it.
	resident.UseMetric(core.MetricLazy, 16)
	pinned := resident.Metric()

	const sessions = 4
	const epochs = 3
	ids := make([]string, sessions)
	for i := range ids {
		// Mettu–Plaxton keeps re-solves on the ball-scan path (the
		// auto-selected local search is Θ(n²) per sweep — far too slow to
		// hammer in a test).
		info, err := c.OpenSession(ctx, up.ID, SessionConfig{
			Epoch: 32, Window: 2,
			Options: SolveOptions{FL: "mettu-plaxton"},
		})
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = info.SessionID
	}

	// Identical event streams per session: every session must converge to
	// the same placement no matter how its re-solves interleave.
	rng := rand.New(rand.NewSource(17))
	seq := workload.Sequence(in.Objects, 32*epochs, rng)
	batch := make([]SessionEvent, len(seq))
	for i, r := range seq {
		batch[i] = SessionEvent{Obj: in.Objects[r.Obj].Name, Node: r.V, Write: r.Write}
	}

	var wg sync.WaitGroup
	for _, sid := range ids {
		wg.Add(1)
		go func(sid string) {
			defer wg.Done()
			for e := 0; e < epochs; e++ {
				if _, err := c.SessionEvents(ctx, sid, batch[e*32:(e+1)*32]); err != nil {
					t.Error(err)
					return
				}
			}
		}(sid)
	}
	// Concurrent what-if pressure through the same engine and oracle: the
	// incremental path re-solves the one patched object.
	for k := 0; k < 2; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			reads := make([]int64, in.N())
			for v := range reads {
				reads[v] = int64((v + k) % 5)
			}
			sc := Scenario{Objects: []ObjectPatch{{Name: in.Objects[0].Name, Reads: reads}}}
			opts := SolveOptions{FL: "mettu-plaxton"}
			for i := 0; i < 3; i++ {
				if _, err := srv.Engine().Scenario(ctx, up.ID, opts, sc); err != nil {
					t.Error(err)
					return
				}
			}
		}(k)
	}
	wg.Wait()
	if st := srv.Stats(); len(srv.engine.sem) != 0 || st.InFlightSolves != 0 || st.QueueDepth != 0 {
		t.Fatalf("after the hammer: %d slots held, in_flight_solves %d, queue_depth %d; want all 0",
			len(srv.engine.sem), st.InFlightSolves, st.QueueDepth)
	}
	if resident.Metric() != pinned {
		t.Fatal("the hammer replaced the resident oracle")
	}

	var want map[string][]int
	for i, sid := range ids {
		pl, err := c.SessionPlacement(ctx, sid)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			want = pl.Placement.Copies
			continue
		}
		if !reflect.DeepEqual(pl.Placement.Copies, want) {
			t.Fatalf("session %s diverged under concurrent re-solves: %v vs %v", sid, pl.Placement.Copies, want)
		}
	}
}

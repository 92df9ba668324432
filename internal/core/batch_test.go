package core

import (
	"math/rand"
	"reflect"
	"runtime"
	"strconv"
	"testing"
)

// TestDemandGroupBatching pins the batched solve's contract: objects with
// identical request multisets and write totals share one representative
// solve, and the result — sequential, parallel, or via the object-list
// kernel — is identical to solving every object from scratch.
func TestDemandGroupBatching(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	in := intWeightInstance(rng, 20, 3, false)
	// Duplicate object 0's workload into two clones: same reads+writes
	// elementwise (identical placement inputs), different names and sizes
	// (which must not affect the copy set).
	clone := func(name string, size float64) Object {
		o := Object{Name: name, Size: size,
			Reads:  append([]int64(nil), in.Objects[0].Reads...),
			Writes: append([]int64(nil), in.Objects[0].Writes...)}
		return o
	}
	objs := append(append([]Object(nil), in.Objects...), clone("dup-a", 2), clone("dup-b", 7))
	// A demand-equivalent pair with a different read/write split but the
	// same fr+fw vector and the same total writes must also share a group.
	swapped := clone("dup-swapped", 1)
	for v := range swapped.Reads {
		if swapped.Writes[v] > 0 && swapped.Reads[v] > 0 {
			swapped.Reads[v]++
			swapped.Writes[v]--
		}
	}
	if swapped.TotalWrites() == in.Objects[0].TotalWrites() {
		objs = append(objs, swapped)
	}
	batched := MustInstance(in.G, in.Storage, objs)

	rep := demandGroups(batched)
	if rep[len(in.Objects)] != 0 || rep[len(in.Objects)+1] != 0 {
		t.Fatalf("duplicated objects not grouped under object 0: rep=%v", rep)
	}

	got := Approximate(batched, Options{Workers: 1})
	par := Approximate(batched, Options{Workers: 4})
	if !reflect.DeepEqual(got.Copies, par.Copies) {
		t.Fatalf("parallel batched solve diverged from sequential:\n%v\n%v", par.Copies, got.Copies)
	}
	for i := range batched.Objects {
		want := ApproximateObjects(batched, []int{i}, Options{Workers: 1})[0]
		if !reflect.DeepEqual(got.Copies[i], want) {
			t.Fatalf("object %d: batched copies %v, from-scratch %v", i, got.Copies[i], want)
		}
	}
	// Shared copy sets must not alias: mutating one object's result cannot
	// corrupt its group siblings.
	got.Copies[len(in.Objects)][0] = -1
	if got.Copies[0][0] == -1 {
		t.Fatal("grouped objects share a copy-set backing array")
	}
}

// TestApproximateObjectsMatchesAlone: the object-list kernel equals
// placing each listed object alone, whatever the list (empty, one object,
// every object, shuffled subsets, repeats and demand-identical objects)
// and whatever the width: the object fan-out at 1, 2, 4, 8 and GOMAXPROCS
// goroutines, alone and composed with per-object sharding through the
// unexported seams, including Approximate's fan-out over its demand-group
// representatives. Random instances on Dense, evicting Lazy and Tree.
func TestApproximateObjectsMatchesAlone(t *testing.T) {
	widths := []int{1, 2, 4, 8, runtime.GOMAXPROCS(0)}
	for seed := int64(0); seed < 3; seed++ {
		for _, tree := range []bool{false, true} {
			rng := rand.New(rand.NewSource(100 + seed))
			base := intWeightInstance(rng, 12+rng.Intn(12), 4, tree)
			// Objects 4 and 5 repeat object 1's demand under other names.
			objs := append([]Object(nil), base.Objects...)
			for _, name := range []string{"twin-a", "twin-b"} {
				objs = append(objs, Object{Name: name,
					Reads:  append([]int64(nil), base.Objects[1].Reads...),
					Writes: append([]int64(nil), base.Objects[1].Writes...)})
			}
			all := []int{0, 1, 2, 3, 4, 5}
			lists := [][]int{
				{}, {2}, all,
				rng.Perm(len(objs)), rng.Perm(len(objs))[:3],
				{5, 1, 4}, {3, 3, 0},
			}
			for _, b := range instanceBackends(tree) {
				in := MustInstance(base.G, base.Storage, objs)
				in.UseMetric(b, 3)
				alone := make([][]int, len(in.Objects))
				for i := range in.Objects {
					alone[i] = solveObjectAt(in, &in.Objects[i], Options{}, 1)
				}
				check := func(how string, list []int, got [][]int) {
					t.Helper()
					if len(got) != len(list) {
						t.Fatalf("seed %d tree=%v %v %s list %v: %d copy sets", seed, tree, b, how, list, len(got))
					}
					for k, i := range list {
						if !reflect.DeepEqual(got[k], alone[i]) {
							t.Fatalf("seed %d tree=%v %v %s list %v: object %d got %v, alone %v",
								seed, tree, b, how, list, i, got[k], alone[i])
						}
					}
				}
				for j, w := range widths {
					opt := Options{Workers: w}
					for _, list := range lists {
						check("workers "+strconv.Itoa(w), list, ApproximateObjects(in, list, opt))
					}
					par := widths[len(widths)-1-j] // pairs 1 with GOMAXPROCS, 8 with 2

					check("sharded "+strconv.Itoa(par), all, approximateObjects(in, all, opt, par))
					check("approximate sharded "+strconv.Itoa(par), all, approximate(in, opt, par).Copies)
				}
			}
		}
	}
}

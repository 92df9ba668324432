package core

import (
	"math/rand"
	"reflect"
	"runtime"
	"strconv"
	"testing"
)

// TestEqualDemandPlacesAlike: the three phases read nothing of an object
// but its fr+fw request vector and its write total, so objects equal in
// both get equal copy sets — from Approximate at widths 1, 2 and 4, and
// from ApproximateObjects placing each alone — whatever their names,
// sizes and read/write split.
func TestEqualDemandPlacesAlike(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(11 + seed))
		in := intWeightInstance(rng, 12+rng.Intn(12), 3, seed%2 == 1)
		clone := func(name string, size float64) Object {
			return Object{Name: name, Size: size,
				Reads:  append([]int64(nil), in.Objects[0].Reads...),
				Writes: append([]int64(nil), in.Objects[0].Writes...)}
		}
		objs := append(append([]Object(nil), in.Objects...), clone("dup-a", 2), clone("dup-b", 7))
		// Move one write to a read at one node and one read to a write at
		// another: the same fr+fw vector and the same write total.
		swapped := clone("dup-swapped", 1)
		from, to := -1, -1
		for v := range swapped.Reads {
			if from < 0 && swapped.Writes[v] > 0 {
				from = v
			} else if to < 0 && swapped.Reads[v] > 0 {
				to = v
			}
		}
		if from >= 0 && to >= 0 {
			swapped.Writes[from]--
			swapped.Reads[from]++
			swapped.Reads[to]--
			swapped.Writes[to]++
			objs = append(objs, swapped)
		}
		dup := MustInstance(in.G, in.Storage, objs)
		alone := make([][]int, len(dup.Objects))
		for i := range dup.Objects {
			alone[i] = ApproximateObjects(dup, []int{i}, Options{Workers: 1})[0]
		}
		for i := len(in.Objects); i < len(objs); i++ {
			if !reflect.DeepEqual(alone[i], alone[0]) {
				t.Fatalf("seed %d: %s placed alone at %v, its demand twin at %v", seed, objs[i].Name, alone[i], alone[0])
			}
		}
		for _, w := range []int{1, 2, 4} {
			got := Approximate(dup, Options{Workers: w})
			for i := range dup.Objects {
				if !reflect.DeepEqual(got.Copies[i], alone[i]) {
					t.Fatalf("seed %d workers %d: object %d got %v, alone %v", seed, w, i, got.Copies[i], alone[i])
				}
			}
		}
	}
}

// TestApproximateObjectsMatchesAlone: the object-list kernel equals
// placing each listed object alone, whatever the list (empty, one object,
// every object, shuffled subsets, repeats and demand-identical objects)
// and whatever the width: the object fan-out at 1, 2, 4, 8 and GOMAXPROCS
// goroutines, alone and composed with per-object sharding through the
// unexported seams, including Approximate's fan-out over every object.
// Random instances on Dense, evicting Lazy and Tree.
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

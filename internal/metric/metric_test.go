package metric

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"netplace/internal/gen"
)

func randomSpace(rng *rand.Rand, n int) *Space {
	g := gen.ErdosRenyi(n, 0.3, rng, gen.UniformWeights(rng, 1, 10))
	return New(g.AllPairs())
}

func TestShortestPathClosureIsMetric(t *testing.T) {
	for seed := int64(0); seed < 15; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := randomSpace(rng, 3+rng.Intn(15))
		if !s.Check(1e-9) {
			t.Fatalf("seed %d: closure violates metric axioms", seed)
		}
	}
}

func TestCheckRejectsNonMetric(t *testing.T) {
	d := [][]float64{
		{0, 1, 5},
		{1, 0, 1},
		{5, 1, 0}, // 5 > 1 + 1 violates triangle inequality
	}
	if New(d).Check(1e-9) {
		t.Fatal("triangle violation not detected")
	}
	d2 := [][]float64{{0, 1}, {2, 0}} // asymmetric
	if New(d2).Check(1e-9) {
		t.Fatal("asymmetry not detected")
	}
}

// naiveAvgDist is the direct definition of d(v, z): expand the request
// multiset, sort by distance, average the z closest.
func naiveAvgDist(s *Space, req Requests, v int, z int64) float64 {
	var all []float64
	for u := 0; u < s.N(); u++ {
		for k := int64(0); k < req.Count[u]; k++ {
			all = append(all, s.Dist(v, u))
		}
	}
	sort.Float64s(all)
	sum := 0.0
	for i := int64(0); i < z; i++ {
		sum += all[i]
	}
	return sum / float64(z)
}

func TestAvgDistMatchesDefinition(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(10)
		s := randomSpace(rng, n)
		req := Requests{Count: make([]int64, n)}
		for v := range req.Count {
			req.Count[v] = rng.Int63n(6)
		}
		total := req.Total()
		if total == 0 {
			continue
		}
		v := rng.Intn(n)
		for z := int64(1); z <= total; z++ {
			got := AvgDist(s, req, v, z)
			want := naiveAvgDist(s, req, v, z)
			if math.Abs(got-want) > 1e-9 {
				t.Fatalf("seed %d: d(%d,%d) = %v, want %v", seed, v, z, got, want)
			}
		}
	}
}

func TestAvgDistMonotoneInZ(t *testing.T) {
	fn := func(counts []uint8, seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := len(counts)
		if n < 2 {
			return true
		}
		if n > 12 {
			n = 12
		}
		s := randomSpace(rng, n)
		req := Requests{Count: make([]int64, n)}
		for v := 0; v < n; v++ {
			req.Count[v] = int64(counts[v] % 5)
		}
		total := req.Total()
		if total == 0 {
			return true
		}
		v := rng.Intn(n)
		prev := 0.0
		for z := int64(1); z <= total; z++ {
			d := AvgDist(s, req, v, z)
			if d < prev-1e-12 {
				return false // d(v, z) must be nondecreasing in z
			}
			prev = d
		}
		return true
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestComputeRadiiDefinitions(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(10)
		s := randomSpace(rng, n)
		req := Requests{Count: make([]int64, n)}
		cs := make([]float64, n)
		var writes int64
		for v := 0; v < n; v++ {
			req.Count[v] = 1 + rng.Int63n(5)
			cs[v] = rng.Float64() * 30
		}
		total := req.Total()
		writes = rng.Int63n(total + 1)
		radii := ComputeRadii(s, req, writes, cs)
		for v := 0; v < n; v++ {
			r := radii[v]
			// Write radius is exactly d(v, W).
			if writes > 0 {
				want := naiveAvgDist(s, req, v, writes)
				if math.Abs(r.RW-want) > 1e-9 {
					t.Fatalf("seed %d: rw(%d) = %v, want %v", seed, v, r.RW, want)
				}
			} else if r.RW != 0 {
				t.Fatalf("seed %d: rw(%d) = %v with no writes", seed, v, r.RW)
			}
			// Storage number/radius inequalities from Section 2.1, whenever
			// a finite zs exists (zs <= total).
			if r.ZS <= total {
				zs := r.ZS
				if !(float64(zs-1)*r.RS <= cs[v]+1e-9) {
					t.Fatalf("seed %d: (zs-1)*rs = %v > cs = %v at node %d", seed, float64(zs-1)*r.RS, cs[v], v)
				}
				if !(cs[v] < float64(zs)*r.RS+1e-9) {
					t.Fatalf("seed %d: cs = %v >= zs*rs = %v at node %d", seed, cs[v], float64(zs)*r.RS, v)
				}
				dzs := naiveAvgDist(s, req, v, zs)
				if r.RS > dzs+1e-9 {
					t.Fatalf("seed %d: rs = %v > d(v,zs) = %v", seed, r.RS, dzs)
				}
				if zs > 1 {
					dzm := naiveAvgDist(s, req, v, zs-1)
					if r.RS < dzm-1e-9 {
						t.Fatalf("seed %d: rs = %v < d(v,zs-1) = %v", seed, r.RS, dzm)
					}
				}
				// zs is the smallest z with z*d(v,z) > cs: check the
				// prefix-sum characterisation.
				if zs > 1 {
					prev := float64(zs-1) * naiveAvgDist(s, req, v, zs-1)
					if prev > cs[v]+1e-9 {
						t.Fatalf("seed %d: zs not minimal at node %d", seed, v)
					}
				}
				cur := float64(zs) * dzs
				if cur <= cs[v]-1e-9 {
					t.Fatalf("seed %d: zs*d(v,zs) = %v <= cs = %v", seed, cur, cs[v])
				}
			}
		}
	}
}

func TestRadiiNoRequests(t *testing.T) {
	s := New([][]float64{{0, 1}, {1, 0}})
	radii := ComputeRadii(s, Requests{Count: []int64{0, 0}}, 0, []float64{3, 4})
	for v, r := range radii {
		if r.RW != 0 || r.RS != 0 {
			t.Fatalf("node %d: radii %+v for empty request set", v, r)
		}
		if r.ZS != 1 {
			t.Fatalf("node %d: zs sentinel %d, want total+1 = 1", v, r.ZS)
		}
	}
}

func TestAvgDistPanicsBeyondTotal(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s := New([][]float64{{0, 1}, {1, 0}})
	AvgDist(s, Requests{Count: []int64{1, 0}}, 0, 5)
}

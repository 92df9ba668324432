package metric

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// scanNearSortRef is ScanNear's row fallback as it stood before the heap
// select: stably sort the whole row by distance, then walk it. The
// identity test below holds the heap to its visit order.
func scanNearSortRef(o Oracle, v int, fn func(u int, d float64) bool) {
	row := o.Row(v)
	n := o.N()
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return row[order[a]] < row[order[b]] })
	for _, u := range order {
		if !fn(u, row[u]) {
			return
		}
	}
}

// rowOracle serves one distance row for every source: enough for the
// ScanNear fallback, which reads only the scanned node's row.
type rowOracle []float64

func (r rowOracle) N() int                { return len(r) }
func (r rowOracle) Dist(u, v int) float64 { return r[v] }
func (r rowOracle) Row(u int) []float64   { return r }
func (r rowOracle) Kind() Kind            { return KindDense }

type visit struct {
	u int
	d uint64 // distance bits, so -0 and +0 differ
}

// scanVisits records a scan that stops after limit visits.
func scanVisits(scan func(Oracle, int, func(int, float64) bool), o Oracle, limit int) []visit {
	var out []visit
	scan(o, 0, func(u int, d float64) bool {
		out = append(out, visit{u, math.Float64bits(d)})
		return len(out) < limit
	})
	return out
}

// randomScanRow draws a row with heavy ties: a few distinct levels plus
// zeros (either sign) and +Inf entries.
func randomScanRow(rng *rand.Rand) []float64 {
	row := make([]float64, rng.Intn(40))
	levels := 1 + rng.Intn(6)
	real := rng.Intn(2) == 0
	for j := range row {
		switch x := rng.Intn(12); {
		case x == 0:
			row[j] = math.Inf(1)
		case x == 1:
			row[j] = 0
		case x == 2:
			row[j] = math.Copysign(0, -1)
		case real:
			row[j] = rng.Float64() * 10
		default:
			row[j] = float64(rng.Intn(levels))
		}
	}
	return row
}

func TestScanNearMatchesSortReference(t *testing.T) {
	rows := 50000
	if testing.Short() || raceEnabled {
		rows = 5000
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < rows; i++ {
		o := rowOracle(randomScanRow(rng))
		for limit := 1; limit <= len(o)+1; limit++ {
			got := scanVisits(ScanNear, o, limit)
			want := scanVisits(scanNearSortRef, o, limit)
			if len(got) != len(want) {
				t.Fatalf("row %v limit %d: %d visits, reference %d", []float64(o), limit, len(got), len(want))
			}
			for k := range got {
				if got[k] != want[k] {
					t.Fatalf("row %v limit %d: visit %d is %+v, reference %+v", []float64(o), limit, k, got[k], want[k])
				}
			}
		}
	}
}

// TestScanNearNested runs a scan inside another's callback: each scan must
// own its heap while the other is live.
func TestScanNearNested(t *testing.T) {
	outer := rowOracle{3, 1, 2, 0, 5}
	inner := rowOracle{2, 2, 1, math.Inf(1)}
	want := scanVisits(scanNearSortRef, inner, len(inner)+1)
	var order []int
	ScanNear(outer, 0, func(u int, d float64) bool {
		order = append(order, u)
		got := scanVisits(ScanNear, inner, len(inner)+1)
		for k := range want {
			if got[k] != want[k] {
				t.Fatalf("nested scan visit %d is %+v, want %+v", k, got[k], want[k])
			}
		}
		return true
	})
	if len(order) != 5 || order[0] != 3 || order[4] != 4 {
		t.Fatalf("outer order %v, want [3 1 2 0 4]", order)
	}
}

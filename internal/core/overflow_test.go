package core

import (
	"errors"
	"math"
	"testing"

	"netplace/internal/facility"
	"netplace/internal/gen"
)

// overflowPath is the 3-node path whose every single-copy cost overflows
// float64: edge fees of 1e308, storage 1, and 5 reads at each node.
func overflowPath(objects int) (*Instance, []Object) {
	g := gen.Path(3, func(u, v int) float64 { return 1e308 })
	objs := make([]Object, objects)
	for i := range objs {
		objs[i] = Object{Reads: []int64{5, 5, 5}, Writes: make([]int64, 3)}
	}
	return &Instance{G: g, Storage: []float64{1, 1, 1}, Objects: objs}, objs
}

func TestNewInstanceRejectsFeeOverflow(t *testing.T) {
	for _, objects := range []int{1, 2} {
		in, objs := overflowPath(objects)
		if _, err := NewInstance(in.G, in.Storage, objs); !errors.Is(err, ErrFeeOverflow) {
			t.Fatalf("%d objects: NewInstance error %v, want ErrFeeOverflow", objects, err)
		}
	}

	// Finite edge-fee sum, but storage sum + edge-fee sum × requests is not.
	g := gen.Path(3, func(u, v int) float64 { return 1e300 })
	heavy := []Object{{Reads: []int64{1e9, 1e9, 1e9}, Writes: []int64{0, 0, 1e9}}}
	if _, err := NewInstance(g, []float64{1, 1, 1}, heavy); !errors.Is(err, ErrFeeOverflow) {
		t.Fatalf("request bound: NewInstance error %v, want ErrFeeOverflow", err)
	}
	// The request count is summed in float64: int64 counts that wrap
	// when added are still caught.
	wrap := []Object{{Reads: []int64{math.MaxInt64, math.MaxInt64, 0}, Writes: make([]int64, 3)}}
	if _, err := NewInstance(g, []float64{1, 1, 1}, wrap); !errors.Is(err, ErrFeeOverflow) {
		t.Fatalf("wrapping counts: NewInstance error %v, want ErrFeeOverflow", err)
	}
	light := []Object{{Reads: []int64{5, 5, 5}, Writes: make([]int64, 3)}}
	if _, err := NewInstance(g, []float64{math.MaxFloat64, math.MaxFloat64, 1}, light); !errors.Is(err, ErrFeeOverflow) {
		t.Fatalf("storage sum: NewInstance error %v, want ErrFeeOverflow", err)
	}

	// Within the bound the same network is accepted, and WithObjects
	// applies the bound to patched demand.
	base, err := NewInstance(g, []float64{1, 1, 1}, light)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := base.WithObjects(heavy); !errors.Is(err, ErrFeeOverflow) {
		t.Fatalf("WithObjects error %v, want ErrFeeOverflow", err)
	}
	if err := base.CheckRequests(1e9); !errors.Is(err, ErrFeeOverflow) {
		t.Fatalf("CheckRequests(1e9) = %v, want ErrFeeOverflow", err)
	}
	if err := base.CheckRequests(15); err != nil {
		t.Fatalf("CheckRequests(15) = %v", err)
	}
	if p := Approximate(base, Options{FL: facility.LocalSearch}); p.Validate(base) != nil {
		t.Fatalf("accepted near-bound instance solved to an invalid placement %v", p.Copies)
	}
}

// TestApproximateOverflowDoesNotPanic solves the overflowing instance
// without validation, as a caller building Instance by hand could: the
// fee check is the boundary, but phase 1 must not index out of range.
func TestApproximateOverflowDoesNotPanic(t *testing.T) {
	for _, objects := range []int{1, 2} {
		in, _ := overflowPath(objects)
		p := Approximate(in, Options{})
		if err := p.Validate(in); err != nil {
			t.Fatalf("%d objects: %v", objects, err)
		}
	}
}

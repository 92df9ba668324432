package service

import (
	"context"
	"errors"
	"net/http"
	"strings"
	"testing"

	"netplace/internal/core"
	"netplace/internal/gen"
)

// feePath is a 3-node path with the given edge fee, storage 1 and 5
// reads of each object at every node, built without validation so it can
// be uploaded whether or not core.NewInstance accepts it.
func feePath(fee float64, objects int) *core.Instance {
	g := gen.Path(3, func(u, v int) float64 { return fee })
	objs := make([]core.Object, objects)
	for i := range objs {
		objs[i] = core.Object{Name: "obj" + string(rune('a'+i)), Reads: []int64{5, 5, 5}, Writes: make([]int64, 3)}
	}
	return &core.Instance{G: g, Storage: []float64{1, 1, 1}, Objects: objs}
}

// wantBadRequest fails unless err is a typed 400 naming the fee overflow.
func wantBadRequest(t *testing.T, what string, err error) {
	t.Helper()
	var ae *APIError
	if !errors.As(err, &ae) || ae.Status != http.StatusBadRequest || !strings.Contains(ae.Message, core.ErrFeeOverflow.Error()) {
		t.Fatalf("%s: error %v, want a 400 naming %q", what, err, core.ErrFeeOverflow)
	}
}

// TestUploadFeeOverflowIsBadRequest uploads the instance whose every
// single-copy cost overflows float64. Its solve used to panic in phase 1
// and come back as a 500; the upload is now refused with a typed 400.
func TestUploadFeeOverflowIsBadRequest(t *testing.T) {
	srv, c := newTestServer(t, Config{})
	ctx := context.Background()
	for _, objects := range []int{1, 2} {
		_, err := c.Upload(ctx, "overflow", feePath(1e308, objects))
		wantBadRequest(t, "upload", err)
	}
	if st := srv.Stats(); st.Instances != 0 || st.SolveErrors != 0 {
		t.Fatalf("rejected uploads left state behind: %+v", st)
	}
}

// TestSessionFeeOverflowIsBadRequest opens a session on an instance whose
// uploaded demand passes the fee bound but whose quantised estimates, up
// to the session's horizon, would not.
func TestSessionFeeOverflowIsBadRequest(t *testing.T) {
	_, c := newTestServer(t, Config{})
	ctx := context.Background()
	up, err := c.Upload(ctx, "near-bound", feePath(1e306, 1))
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.OpenSession(ctx, up.ID, SessionConfig{Epoch: 64, Horizon: 1000})
	wantBadRequest(t, "session open", err)
	if _, err := c.OpenSession(ctx, up.ID, SessionConfig{Epoch: 64, Horizon: 10}); err != nil {
		t.Fatalf("session within the bound refused: %v", err)
	}
}

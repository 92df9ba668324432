package stream

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"netplace/internal/workload"
)

// stateJSON marshals an engine's full observable state for byte-level
// comparison: captured state, normalised stats, and placement.
func stateJSON(t *testing.T, e *Engine) []byte {
	t.Helper()
	buf, err := json.Marshal(struct {
		State     *EngineState
		Stats     Stats
		Placement [][]int
	}{e.State(), e.Stats(), e.Placement().Copies})
	if err != nil {
		t.Fatal(err)
	}
	return buf
}

// TestStateRoundTripByteIdentical: capturing State mid-epoch, restoring it
// into a fresh engine, and feeding both the same remaining events must
// keep every future output byte-identical, in both estimator modes.
func TestStateRoundTripByteIdentical(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"window", Config{Epoch: 32, Window: 3}},
		{"ewma", Config{Epoch: 32, Alpha: 0.4}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			in := testInstance(t, 42, 3)
			rng := rand.New(rand.NewSource(9))
			seq := workload.Sequence(in.Objects, 500, rng)
			// Cut mid-epoch (not on a multiple of Epoch) so the capture
			// carries open-epoch fill, report, and estimator counts.
			cut := 197

			orig := New(in, tc.cfg)
			for _, r := range seq[:cut] {
				if _, err := orig.Observe(r); err != nil {
					t.Fatal(err)
				}
			}
			snap := orig.State()
			buf, err := json.Marshal(snap)
			if err != nil {
				t.Fatal(err)
			}
			// The restore path always goes through JSON in production;
			// exercise exactly that round trip.
			var decoded EngineState
			if err := json.Unmarshal(buf, &decoded); err != nil {
				t.Fatal(err)
			}
			rest, err := Restore(in, tc.cfg, &decoded)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(stateJSON(t, orig), stateJSON(t, rest)) {
				t.Fatal("restored state diverges immediately after restore")
			}

			for _, r := range seq[cut:] {
				if _, err := orig.Observe(r); err != nil {
					t.Fatal(err)
				}
				if _, err := rest.Observe(r); err != nil {
					t.Fatal(err)
				}
			}
			orig.Flush()
			rest.Flush()
			a, b := stateJSON(t, orig), stateJSON(t, rest)
			if !bytes.Equal(a, b) {
				t.Fatalf("state diverged after restore+replay:\n orig %s\n rest %s", a, b)
			}

			// The snapshot must be a deep copy: the original kept running
			// above, so the captured state must still restore to the cut
			// point, not to the original's current state.
			rest2, err := Restore(in, tc.cfg, snap)
			if err != nil {
				t.Fatal(err)
			}
			if rest2.Stats().Events != cut {
				t.Fatalf("snapshot mutated by continued run: %d events, want %d", rest2.Stats().Events, cut)
			}
		})
	}
}

// TestStateCapturesNilVsSeeded: an object never touched must restore with
// a nil copy set (the engine's first-touch branch keys on nilness), while
// a seeded object restores its exact copies.
func TestStateCapturesNilVsSeeded(t *testing.T) {
	in := testInstance(t, 5, 2)
	eng := New(in, Config{Epoch: 1 << 30, Window: 2})
	// Touch only object 0.
	if _, err := eng.Observe(workload.Request{Obj: 0, V: 1}); err != nil {
		t.Fatal(err)
	}
	st := eng.State()
	if st.Objects[0].Copies == nil || !st.Objects[0].Seeded {
		t.Fatalf("touched object not captured: %+v", st.Objects[0])
	}
	if st.Objects[1].Copies != nil || st.Objects[1].Seeded {
		t.Fatalf("untouched object captured as seeded: %+v", st.Objects[1])
	}
	buf, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	var dec EngineState
	if err := json.Unmarshal(buf, &dec); err != nil {
		t.Fatal(err)
	}
	rest, err := Restore(in, Config{Epoch: 1 << 30, Window: 2}, &dec)
	if err != nil {
		t.Fatal(err)
	}
	if rest.objs[1].copies != nil {
		t.Fatal("nil copy set did not survive the JSON round trip")
	}
	// First touch of object 1 must still seed it at its first requester.
	if _, err := rest.Observe(workload.Request{Obj: 1, V: 4}); err != nil {
		t.Fatal(err)
	}
	if got := rest.objs[1].copies; len(got) != 1 || got[0] != 4 {
		t.Fatalf("restored engine did not first-touch-seed: %v", got)
	}
}

// TestRestoreValidation: malformed states must be rejected, not installed.
func TestRestoreValidation(t *testing.T) {
	in := testInstance(t, 8, 2)
	cfg := Config{Epoch: 32, Window: 2}
	good := func() *EngineState {
		e := New(in, cfg)
		for i := 0; i < 40; i++ {
			if _, err := e.Observe(workload.Request{Obj: 0, V: i % in.N()}); err != nil {
				t.Fatal(err)
			}
		}
		return e.State()
	}
	for _, tc := range []struct {
		name string
		mut  func(*EngineState)
	}{
		{"version", func(st *EngineState) { st.Version = 99 }},
		{"object count", func(st *EngineState) { st.Objects = st.Objects[:1] }},
		{"fill range", func(st *EngineState) { st.Fill = cfg.Epoch }},
		{"negative fill", func(st *EngineState) { st.Fill = -1 }},
		{"copy out of range", func(st *EngineState) { st.Objects[0].Copies = []int{in.N()} }},
		{"copies unsorted", func(st *EngineState) { st.Objects[0].Copies = []int{2, 1} }},
		{"solved length", func(st *EngineState) { st.Objects[0].Solved = []int64{1} }},
		{"cur shape", func(st *EngineState) { st.Estimator.CurR = st.Estimator.CurR[:1] }},
		{"rate shape", func(st *EngineState) { st.Estimator.RateR[0] = st.Estimator.RateR[0][:1] }},
		{"ring size", func(st *EngineState) { st.Estimator.RingR = st.Estimator.RingR[:1] }},
		{"ring cursor", func(st *EngineState) { st.Estimator.RingPos = cfg.Window }},
		{"negative epochs", func(st *EngineState) { st.Estimator.Epochs = -1 }},
		{"mode mismatch", func(st *EngineState) { st.Estimator.EwmaR = [][]float64{{1}} }},
	} {
		st := good()
		tc.mut(st)
		if _, err := Restore(in, cfg, st); err == nil {
			t.Errorf("%s: invalid state accepted", tc.name)
		}
	}
	if _, err := Restore(in, cfg, nil); err == nil {
		t.Error("nil state accepted")
	}
	// EWMA session must reject window-mode state.
	st := good()
	if _, err := Restore(in, Config{Epoch: 32, Alpha: 0.5}, st); err == nil {
		t.Error("window state accepted into an EWMA session")
	}
	// And the unmutated state must restore cleanly.
	if _, err := Restore(in, cfg, good()); err != nil {
		t.Fatalf("valid state rejected: %v", err)
	}
}

// TestDecodeWALPrefixSemantics pins the session WAL decoder's line-level
// prefix contract, with every event in a batch of its own: the first torn,
// malformed or unresolvable line ends the committed prefix at the marker
// before it, content errors end it silently, and comments and blanks count
// as padding. TestDecodeWALBatchesSemantics covers the batch framing.
func TestDecodeWALPrefixSemantics(t *testing.T) {
	in := testInstance(t, 3, 2)
	name := in.Objects[0].Name
	e2 := `{"obj":"` + name + `","node":2,"write":true}` + "\n"
	m2 := `{"seq":2,"n":1}` + "\n"
	b1 := `{"obj":"` + name + `","node":1}` + "\n" + `{"seq":1,"n":1}` + "\n"
	b2 := e2 + m2

	for _, tc := range []struct {
		name      string
		data      string
		events    int
		valid     int64
		wantWrite bool
	}{
		{"clean", b1 + b2, 2, int64(len(b1 + b2)), true},
		{"torn tail", b1 + e2[:len(e2)-5], 1, int64(len(b1)), false},
		{"unterminated", b1[:len(b1)-1], 0, 0, false},
		{"malformed line", b1 + e2 + "{garbage\n" + m2, 1, int64(len(b1)), false},
		{"unknown object", b1 + `{"obj":"nope","node":0}` + "\n" + m2, 1, int64(len(b1)), false},
		{"node out of range", b1 + `{"obj":"` + name + `","node":9999}` + "\n" + m2, 1, int64(len(b1)), false},
		{"trailing garbage on line", b1 + `{"obj":"` + name + `","node":2} extra` + "\n" + m2, 1, int64(len(b1)), false},
		{"comment padding", "# header\n\n" + b1 + "# note\n" + b2, 2, int64(len("# header\n\n" + b1 + "# note\n" + b2)), true},
		{"comment after tear", b1 + "#partial-comment-no-newline", 1, int64(len(b1)), false},
		{"empty", "", 0, 0, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			seq, _, valid, err := DecodeWALBatches(strings.NewReader(tc.data), in)
			if err != nil {
				t.Fatal(err)
			}
			if len(seq) != tc.events || valid != tc.valid {
				t.Fatalf("got %d events, %d valid bytes; want %d, %d", len(seq), valid, tc.events, tc.valid)
			}
			if tc.events == 2 && (seq[0].Write || seq[1].Write != tc.wantWrite) {
				t.Fatalf("write flags %v, %v; want false, %v", seq[0].Write, seq[1].Write, tc.wantWrite)
			}
			// Re-decoding the valid prefix alone must reproduce the result.
			seq2, _, valid2, err := DecodeWALBatches(strings.NewReader(tc.data[:tc.valid]), in)
			if err != nil {
				t.Fatal(err)
			}
			if valid2 != tc.valid || !reflect.DeepEqual(seq, seq2) {
				t.Fatalf("prefix re-decode diverged: %d/%d bytes, %d/%d events", valid2, tc.valid, len(seq2), len(seq))
			}
		})
	}
}

// TestDecodeWALBatchesSemantics pins the v2 batch-atomic contract: a
// batch counts only when its commit marker is intact and counts its
// expanded events exactly; everything after the last good marker is an
// unacknowledged suffix the caller truncates.
func TestDecodeWALBatchesSemantics(t *testing.T) {
	in := testInstance(t, 3, 2)
	name := in.Objects[0].Name
	e1 := `{"obj":"` + name + `","node":1}` + "\n"
	e2 := `{"obj":"` + name + `","node":2,"write":true}` + "\n"
	e3c := `{"obj":"` + name + `","node":0,"count":3}` + "\n"
	m := func(seq int64, n int) string { return fmt.Sprintf(`{"seq":%d,"n":%d}`, seq, n) + "\n" }

	for _, tc := range []struct {
		name    string
		data    string
		events  int
		lastSeq int64
		valid   int64
	}{
		{"empty", "", 0, 0, 0},
		{"one batch", e1 + e2 + m(5, 2), 2, 5, int64(len(e1 + e2 + m(5, 2)))},
		{"two batches", e1 + m(1, 1) + e2 + m(2, 1), 2, 2, int64(len(e1 + m(1, 1) + e2 + m(2, 1)))},
		{"missing final marker", e1 + m(1, 1) + e2, 1, 1, int64(len(e1 + m(1, 1)))},
		{"torn marker", e1 + m(1, 1) + e2 + m(2, 1)[:3], 1, 1, int64(len(e1 + m(1, 1)))},
		{"marker count mismatch", e1 + e2 + m(7, 1), 0, 0, 0},
		{"count expansion", e3c + m(4, 3), 3, 4, int64(len(e3c + m(4, 3)))},
		{"unexpanded count rejected", e3c + m(4, 1), 0, 0, 0},
		{"padding inside batch", "# hdr\n" + e1 + "\n" + m(9, 1), 1, 9, int64(len("# hdr\n" + e1 + "\n" + m(9, 1)))},
		{"malformed mid-batch", e1 + m(1, 1) + "{garbage\n" + e2 + m(2, 1), 1, 1, int64(len(e1 + m(1, 1)))},
		{"negative n marker", e1 + `{"seq":1,"n":-1}` + "\n", 0, 0, 0},
		{"empty batch marker", m(3, 0) + e1 + m(4, 1), 1, 4, int64(len(m(3, 0) + e1 + m(4, 1)))},
		{"seq watermark is max", e1 + m(9, 1) + e2 + m(2, 1), 2, 9, int64(len(e1 + m(9, 1) + e2 + m(2, 1)))},
		{"padding after last marker", e1 + m(1, 1) + "# note\n\n", 1, 1, int64(len(e1 + m(1, 1)))},
	} {
		t.Run(tc.name, func(t *testing.T) {
			seq, lastSeq, valid, err := DecodeWALBatches(strings.NewReader(tc.data), in)
			if err != nil {
				t.Fatal(err)
			}
			if len(seq) != tc.events || lastSeq != tc.lastSeq || valid != tc.valid {
				t.Fatalf("got %d events, seq %d, %d valid; want %d, %d, %d",
					len(seq), lastSeq, valid, tc.events, tc.lastSeq, tc.valid)
			}
			// Re-decoding the committed prefix alone reproduces the result —
			// the property post-crash truncation relies on.
			seq2, lastSeq2, valid2, err := DecodeWALBatches(strings.NewReader(tc.data[:tc.valid]), in)
			if err != nil {
				t.Fatal(err)
			}
			if valid2 != tc.valid || lastSeq2 != tc.lastSeq || !reflect.DeepEqual(seq, seq2) {
				t.Fatalf("prefix re-decode diverged: %d/%d bytes, seq %d/%d, %d/%d events",
					valid2, tc.valid, lastSeq2, tc.lastSeq, len(seq2), len(seq))
			}
		})
	}
}

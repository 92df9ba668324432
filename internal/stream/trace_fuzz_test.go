package stream

import (
	"bufio"
	"bytes"
	"reflect"
	"strings"
	"sync"
	"testing"

	"netplace/internal/core"
	"netplace/internal/graph"
)

// fuzzInstance returns a small fixed instance shared by the fuzz targets:
// a 6-node path with one named and one unnamed object (so both wire-name
// forms resolve).
var fuzzInstance = sync.OnceValue(func() *core.Instance {
	const n = 6
	g := graph.New(n)
	for v := 0; v < n-1; v++ {
		g.AddEdge(v, v+1, 1)
	}
	storage := make([]float64, n)
	reads := func(v int) []int64 {
		r := make([]int64, n)
		r[v] = 4
		return r
	}
	for v := range storage {
		storage[v] = 2
	}
	objs := []core.Object{
		{Name: "obj", Reads: reads(0), Writes: make([]int64, n)},
		{Reads: reads(n - 1), Writes: make([]int64, n)}, // wire name object-1
	}
	return core.MustInstance(g, storage, objs)
})

// boundedCounts reports whether every parseable event line in data keeps
// its expansion count small. The decoders expand Count into that many
// events, so the fuzz harness skips inputs that would legitimately
// allocate huge sequences — that is capacity, not a parsing bug.
func boundedCounts(data []byte) bool {
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		if ev, err := decodeEventLine(text); err == nil && ev.Count > 1<<16 {
			return false
		}
	}
	return sc.Err() == nil
}

// addTraceSeeds registers the shared seed inputs for the trace and WAL
// decoder fuzz targets; the checked-in corpora under testdata/fuzz
// extend them.
func addTraceSeeds(f *testing.F) {
	seeds := []string{
		"",
		"{\"obj\":\"obj\",\"node\":1}\n",
		"{\"obj\":\"obj\",\"node\":1}\n{\"obj\":\"object-1\",\"node\":5,\"write\":true}\n",
		"{\"obj\":\"obj\",\"node\":2,\"count\":3}\n",
		"# comment\n\n{\"obj\":\"obj\",\"node\":0}\n",
		"{\"obj\":\"obj\",\"node\":1}\n{\"obj\":\"obj\",\"nod",         // torn tail
		"{\"obj\":\"obj\",\"node\":1}\n{\"obj\":\"obj\",\"node\":1}\n", // duplicated line
		"{\"obj\":\"nope\",\"node\":0}\n",
		"{\"obj\":\"obj\",\"node\":99}\n",
		"{\"obj\":\"obj\",\"node\":1,\"bogus\":true}\n",
		"{\"obj\":\"obj\",\"node\":1} trailing\n",
		"{garbage\n",
		"null\n",
		"[]\n",
		"{\"obj\":\"obj\",\"node\":-1}\n",
		"{\"obj\":\"obj\",\"node\":1,\"count\":-5}\n",
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
}

// FuzzReadTrace: arbitrary bytes must never panic the trace reader, and
// every accepted trace must survive a write/read round trip.
func FuzzReadTrace(f *testing.F) {
	addTraceSeeds(f)
	in := fuzzInstance()
	f.Fuzz(func(t *testing.T, data []byte) {
		if !boundedCounts(data) {
			t.Skip("unbounded count expansion")
		}
		seq, err := ReadTrace(bytes.NewReader(data), in)
		if err != nil {
			return
		}
		for _, r := range seq {
			if r.Obj < 0 || r.Obj >= len(in.Objects) || r.V < 0 || r.V >= in.N() {
				t.Fatalf("accepted out-of-range event %+v", r)
			}
		}
		var buf bytes.Buffer
		if err := WriteTrace(&buf, in, seq); err != nil {
			t.Fatalf("accepted trace failed to re-encode: %v", err)
		}
		back, err := ReadTrace(bytes.NewReader(buf.Bytes()), in)
		if err != nil {
			t.Fatalf("re-encoded trace failed to parse: %v", err)
		}
		if !reflect.DeepEqual(seq, back) {
			t.Fatalf("trace round trip diverged: %d vs %d events", len(seq), len(back))
		}
	})
}

// addWALSeeds registers the shared seeds plus two session WAL inputs
// whose batches commit: one single-event batch, and a count-expanded
// batch followed by an empty one.
func addWALSeeds(f *testing.F) {
	addTraceSeeds(f)
	f.Add([]byte("{\"obj\":\"obj\",\"node\":1}\n{\"seq\":1,\"n\":1}\n"))
	f.Add([]byte("{\"obj\":\"obj\",\"node\":1,\"count\":2}\n{\"seq\":3,\"n\":2}\n{\"seq\":4,\"n\":0}\n"))
}

// FuzzDecodeWAL: a session WAL's event lines are the trace format, so the
// committed prefix with its commit markers dropped must be a strict trace
// that ReadTrace accepts and decodes to exactly the events
// DecodeWALBatches returned — no committed event is lost, duplicated or
// read differently, and no marker contributes one.
func FuzzDecodeWAL(f *testing.F) {
	addWALSeeds(f)
	in := fuzzInstance()
	f.Fuzz(func(t *testing.T, data []byte) {
		if !boundedCounts(data) {
			t.Skip("unbounded count expansion")
		}
		seq, _, valid, err := DecodeWALBatches(bytes.NewReader(data), in)
		if err != nil {
			t.Fatalf("in-memory decode returned I/O error: %v", err)
		}
		if valid < 0 || valid > int64(len(data)) {
			t.Fatalf("valid prefix %d outside [0,%d]", valid, len(data))
		}
		var events bytes.Buffer
		for _, line := range bytes.SplitAfter(data[:valid], []byte("\n")) {
			text := strings.TrimSpace(string(line))
			if _, everr := decodeEventLine(text); everr != nil {
				if _, cerr := decodeCommitLine(text); cerr == nil {
					continue
				}
			}
			events.Write(line)
		}
		trace, err := ReadTrace(&events, in)
		if err != nil {
			t.Fatalf("committed WAL events rejected by ReadTrace: %v", err)
		}
		if len(seq) != len(trace) || (len(seq) > 0 && !reflect.DeepEqual(seq, trace)) {
			t.Fatalf("WAL decode disagrees with ReadTrace: %d vs %d events", len(seq), len(trace))
		}
	})
}

// FuzzDecodeWALBatches: arbitrary bytes must never panic the session WAL
// decoder or yield an error (content problems end the committed prefix
// instead), the committed prefix must be bounded by the input and
// newline-terminated, and re-decoding exactly that prefix must reproduce
// the same events and sequence watermark — the property WAL truncation
// after a torn write relies on.
func FuzzDecodeWALBatches(f *testing.F) {
	addWALSeeds(f)
	in := fuzzInstance()
	f.Fuzz(func(t *testing.T, data []byte) {
		if !boundedCounts(data) {
			t.Skip("unbounded count expansion")
		}
		seq, lastSeq, valid, err := DecodeWALBatches(bytes.NewReader(data), in)
		if err != nil {
			t.Fatalf("in-memory decode returned I/O error: %v", err)
		}
		if valid < 0 || valid > int64(len(data)) {
			t.Fatalf("valid prefix %d outside [0,%d]", valid, len(data))
		}
		if valid > 0 && data[valid-1] != '\n' {
			t.Fatalf("valid prefix of %d bytes not newline-terminated", valid)
		}
		for _, r := range seq {
			if r.Obj < 0 || r.Obj >= len(in.Objects) || r.V < 0 || r.V >= in.N() {
				t.Fatalf("decoded out-of-range event %+v", r)
			}
		}
		seq2, lastSeq2, valid2, err := DecodeWALBatches(bytes.NewReader(data[:valid]), in)
		if err != nil {
			t.Fatal(err)
		}
		if valid2 != valid || lastSeq2 != lastSeq || !reflect.DeepEqual(seq, seq2) {
			t.Fatalf("prefix re-decode diverged: %d/%d bytes, seq %d/%d, %d/%d events",
				valid2, valid, lastSeq2, lastSeq, len(seq2), len(seq))
		}
	})
}

package stream

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"netplace/internal/core"
	"netplace/internal/encode"
	"netplace/internal/workload"
)

// EventJSON is one trace line in the JSONL wire format: object (by wire
// name — Object.Name, or object-<index> for unnamed objects), issuing
// node, and whether the request is a write. Count > 1 expands to that
// many identical consecutive events (Count 0 means 1).
type EventJSON struct {
	Obj   string `json:"obj"`
	Node  int    `json:"node"`
	Write bool   `json:"write,omitempty"`
	Count int    `json:"count,omitempty"`
}

// ObjectIndex maps an instance's wire object names (encode.ObjectName)
// to object indices — the resolution step shared by trace parsing and
// the service's session event ingestion.
func ObjectIndex(in *core.Instance) map[string]int {
	idx := make(map[string]int, len(in.Objects))
	for i := range in.Objects {
		idx[encode.ObjectName(&in.Objects[i], i)] = i
	}
	return idx
}

// decodeEventLine parses one trimmed trace/WAL line into its wire form,
// rejecting unknown fields and trailing garbage after the JSON object.
func decodeEventLine(text string) (EventJSON, error) {
	var ev EventJSON
	dec := json.NewDecoder(strings.NewReader(text))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&ev); err != nil {
		return EventJSON{}, err
	}
	if dec.More() {
		return EventJSON{}, fmt.Errorf("trailing data after event")
	}
	return ev, nil
}

// resolveEvent validates a wire event against an instance and returns the
// resolved request plus its expansion count (Count 0 means 1).
func resolveEvent(ev EventJSON, idx map[string]int, n int) (workload.Request, int, error) {
	oi, ok := idx[ev.Obj]
	if !ok {
		return workload.Request{}, 0, fmt.Errorf("unknown object %q", ev.Obj)
	}
	if ev.Node < 0 || ev.Node >= n {
		return workload.Request{}, 0, fmt.Errorf("node %d out of range [0,%d)", ev.Node, n)
	}
	count := ev.Count
	if count <= 0 {
		count = 1
	}
	return workload.Request{Obj: oi, V: ev.Node, Write: ev.Write}, count, nil
}

// ReadTrace parses a JSONL request trace against an instance, resolving
// object names and validating node ids. Blank lines and lines starting
// with '#' are skipped, so traces can carry comments.
func ReadTrace(r io.Reader, in *core.Instance) ([]workload.Request, error) {
	idx := ObjectIndex(in)
	var seq []workload.Request
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		ev, err := decodeEventLine(text)
		if err != nil {
			return nil, fmt.Errorf("stream: trace line %d: %w", line, err)
		}
		req, count, err := resolveEvent(ev, idx, in.N())
		if err != nil {
			return nil, fmt.Errorf("stream: trace line %d: %w", line, err)
		}
		for k := 0; k < count; k++ {
			seq = append(seq, req)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("stream: reading trace: %w", err)
	}
	return seq, nil
}

// WALCommit is a batch-commit marker line in a version-2 session WAL:
// written after the N event lines of one ingest batch, carrying the
// client's idempotency sequence number (0 for unsequenced batches). Its
// field set is disjoint from EventJSON's required fields, so a marker
// can never parse as an event (decodeEventLine rejects unknown fields)
// and vice versa.
type WALCommit struct {
	Seq int64 `json:"seq"`
	N   int   `json:"n"`
}

// decodeCommitLine parses one trimmed WAL line as a batch-commit marker,
// rejecting unknown fields, trailing garbage, and negative counts.
func decodeCommitLine(text string) (WALCommit, error) {
	var cm WALCommit
	dec := json.NewDecoder(strings.NewReader(text))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&cm); err != nil {
		return WALCommit{}, err
	}
	if dec.More() {
		return WALCommit{}, fmt.Errorf("trailing data after commit marker")
	}
	if cm.N < 0 {
		return WALCommit{}, fmt.Errorf("negative commit count %d", cm.N)
	}
	return cm, nil
}

// DecodeWALBatches parses a version-2 session WAL — event lines grouped
// into batches, each terminated by a WALCommit marker line — with
// batch-granular torn-tail tolerance: it returns the events of every
// complete batch (one whose marker is present, newline-terminated, and
// counts exactly the expanded events written before it), the highest
// committed sequence number, and the byte length of that committed
// prefix. Event lines after the last marker are an unacknowledged batch
// the client never got a response for; they are excluded so the caller
// can truncate the file at the commit boundary and let the client's
// retry (same sequence number) apply the batch exactly once. Blank and
// '#' comment lines are valid padding inside the committed prefix. The
// error is non-nil only for I/O failures of r itself, never for content.
func DecodeWALBatches(r io.Reader, in *core.Instance) (seq []workload.Request, lastSeq int64, valid int64, err error) {
	idx := ObjectIndex(in)
	br := bufio.NewReader(r)
	var pending []workload.Request
	var off int64
	for {
		line, rerr := br.ReadString('\n')
		if rerr == io.EOF {
			// A final chunk without its newline is a torn write; with or
			// without it, anything after the last marker is uncommitted.
			return seq, lastSeq, valid, nil
		}
		if rerr != nil {
			return seq, lastSeq, valid, fmt.Errorf("stream: reading wal: %w", rerr)
		}
		off += int64(len(line))
		text := strings.TrimSpace(line)
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		if ev, everr := decodeEventLine(text); everr == nil {
			req, count, rerr := resolveEvent(ev, idx, in.N())
			if rerr != nil {
				return seq, lastSeq, valid, nil
			}
			for k := 0; k < count; k++ {
				pending = append(pending, req)
			}
			continue
		}
		cm, cerr := decodeCommitLine(text)
		if cerr != nil || cm.N != len(pending) {
			// Malformed line, or a marker that does not count its batch
			// (a torn middle would have been caught by the event decode):
			// the committed prefix ends at the previous marker.
			return seq, lastSeq, valid, nil
		}
		seq = append(seq, pending...)
		pending = pending[:0]
		if cm.Seq > lastSeq {
			lastSeq = cm.Seq
		}
		valid = off
	}
}

// WriteTrace serialises a request sequence as JSONL, one event per line,
// using the instance's wire object names. The inverse of ReadTrace.
func WriteTrace(w io.Writer, in *core.Instance, seq []workload.Request) error {
	bw := bufio.NewWriter(w)
	for _, r := range seq {
		if r.Obj < 0 || r.Obj >= len(in.Objects) {
			return fmt.Errorf("stream: event object %d out of range", r.Obj)
		}
		name := encode.ObjectName(&in.Objects[r.Obj], r.Obj)
		buf, err := json.Marshal(EventJSON{Obj: name, Node: r.V, Write: r.Write})
		if err != nil {
			return err
		}
		if _, err := bw.Write(append(buf, '\n')); err != nil {
			return err
		}
	}
	return bw.Flush()
}

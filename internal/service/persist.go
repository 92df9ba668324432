package service

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"log"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"netplace/internal/core"
	"netplace/internal/encode"
	"netplace/internal/stream"
	"netplace/internal/workload"
)

// store is the server's persistence layer under one data directory:
//
//	<dir>/instances/<id>.json           instance snapshot (content-hash named)
//	<dir>/sessions/<sid>.meta.json      session identity + wire config
//	<dir>/sessions/<sid>.snap.json      engine state snapshot + WAL generation
//	<dir>/sessions/<sid>.wal.<seq>.jsonl  event log since that snapshot
//
// Instances are snapshotted once at registration (their content hash is
// their identity, so the file never changes). Session durability is
// snapshot + WAL: every acked events batch is appended to the WAL and
// fsynced before it is applied, and every epoch close rotates — a fresh
// (empty) WAL generation is created, the engine state is snapshotted
// referencing it, and the old generation is deleted. Recovery is
// snapshot restore + WAL replay through the same stream.Engine path, so
// a recovered session is byte-identical to one that never stopped.
//
// All snapshot writes are atomic (tmp + fsync + rename + dir fsync);
// noSync drops the fsyncs for throughput at the price of durability
// across an OS crash (process crashes still lose nothing acked).
type store struct {
	dir       string
	noSync    bool
	syncEvery time.Duration // WAL group-commit interval; 0 fsyncs every append
}

// openStore creates the data directory layout and returns the store.
// syncEvery batches WAL fsyncs (Config.FsyncInterval); snapshot writes
// always fsync regardless.
func openStore(dir string, noSync bool, syncEvery time.Duration) (*store, error) {
	for _, d := range []string{dir, filepath.Join(dir, "instances"), filepath.Join(dir, "sessions")} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, fmt.Errorf("service: creating data dir: %w", err)
		}
	}
	return &store{dir: dir, noSync: noSync, syncEvery: syncEvery}, nil
}

// syncDir fsyncs a directory so a just-created or just-renamed entry is
// durable. A no-op under noSync.
func (st *store) syncDir(dir string) error {
	if st.noSync {
		return nil
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// atomicWrite durably replaces path with data: write to a .tmp sibling,
// fsync, rename over the target, fsync the directory.
func (st *store) atomicWrite(path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if !st.noSync {
		if err := f.Sync(); err != nil {
			f.Close()
			os.Remove(tmp)
			return err
		}
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return st.syncDir(filepath.Dir(path))
}

// instanceFileJSON is the on-disk instance record: the client label plus
// the instance in the shared wire format.
type instanceFileJSON struct {
	Name     string              `json:"name,omitempty"`
	Instance encode.InstanceJSON `json:"instance"`
}

func (st *store) instancePath(id string) string {
	return filepath.Join(st.dir, "instances", id+".json")
}

// saveInstance snapshots a registered instance under its registry id.
func (st *store) saveInstance(id, name string, in *core.Instance) error {
	buf, err := json.Marshal(instanceFileJSON{Name: name, Instance: encode.InstanceJSONOf(in)})
	if err != nil {
		return err
	}
	return st.atomicWrite(st.instancePath(id), buf)
}

// deleteInstance removes an instance snapshot; a missing file is not an
// error (the instance may predate the data dir or have failed to save).
func (st *store) deleteInstance(id string) error {
	if err := os.Remove(st.instancePath(id)); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return err
	}
	return nil
}

// storedInstance is one instance loaded back from disk.
type storedInstance struct {
	Name     string
	Instance *core.Instance
}

// loadInstances reads every instance snapshot, skipping (with a logged
// warning) files that are unreadable, invalid, or whose content hash no
// longer matches their id — a corrupt snapshot must not poison startup.
func (st *store) loadInstances() ([]storedInstance, error) {
	dir := filepath.Join(st.dir, "instances")
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("service: reading instance store: %w", err)
	}
	var out []storedInstance
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".json") || strings.HasSuffix(name, ".tmp") {
			continue
		}
		id := strings.TrimSuffix(name, ".json")
		buf, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			log.Printf("service: skipping instance %s: %v", id, err)
			continue
		}
		var file instanceFileJSON
		if err := json.Unmarshal(buf, &file); err != nil {
			log.Printf("service: skipping corrupt instance %s: %v", id, err)
			continue
		}
		in, err := file.Instance.Instance()
		if err != nil {
			log.Printf("service: skipping invalid instance %s: %v", id, err)
			continue
		}
		if hash := encode.HashInstance(in); hash[:idLen] != id {
			log.Printf("service: skipping instance %s: content hash %s does not match its id", id, hash[:idLen])
			continue
		}
		out = append(out, storedInstance{Name: file.Name, Instance: in})
	}
	return out, nil
}

// sessionMetaJSON is the on-disk session identity: which instance it
// streams against and the wire config it was opened with (re-lowered to
// a stream.Config at recovery — deterministic, so the restored engine is
// configured exactly as the original).
type sessionMetaJSON struct {
	SessionID  string        `json:"session_id"`
	InstanceID string        `json:"instance_id"`
	Config     SessionConfig `json:"config"`
}

// walFormatVersion is the only WAL wire format this server writes and
// reads: version 2 groups event lines into batches terminated by
// stream.WALCommit marker lines, giving batch-atomic recovery and
// durable idempotency sequence numbers. Snapshots record the version;
// recovery skips a session whose snapshot names any other, such as the
// line-atomic version 1 (no wal_ver field) of early servers.
const walFormatVersion = 2

// sessionSnapJSON pairs an engine state snapshot with the WAL generation
// holding the events observed after it, that WAL's format version, and
// the idempotency sequence high-water mark at the snapshot point.
type sessionSnapJSON struct {
	WALSeq  int                 `json:"wal_seq"`
	WALVer  int                 `json:"wal_ver,omitempty"`
	LastSeq int64               `json:"last_seq,omitempty"`
	State   *stream.EngineState `json:"state"`
}

func (st *store) sessionMetaPath(sid string) string {
	return filepath.Join(st.dir, "sessions", sid+".meta.json")
}

func (st *store) sessionSnapPath(sid string) string {
	return filepath.Join(st.dir, "sessions", sid+".snap.json")
}

func (st *store) sessionWALPath(sid string, seq int) string {
	return filepath.Join(st.dir, "sessions", fmt.Sprintf("%s.wal.%d.jsonl", sid, seq))
}

func (st *store) saveSessionMeta(meta sessionMetaJSON) error {
	buf, err := json.Marshal(meta)
	if err != nil {
		return err
	}
	return st.atomicWrite(st.sessionMetaPath(meta.SessionID), buf)
}

func (st *store) readSessionMeta(sid string) (sessionMetaJSON, error) {
	var meta sessionMetaJSON
	buf, err := os.ReadFile(st.sessionMetaPath(sid))
	if err != nil {
		return meta, err
	}
	if err := json.Unmarshal(buf, &meta); err != nil {
		return meta, fmt.Errorf("service: corrupt session meta: %w", err)
	}
	return meta, nil
}

func (st *store) saveSessionSnap(sid string, seq int, state *stream.EngineState, lastSeq int64) error {
	buf, err := json.Marshal(sessionSnapJSON{WALSeq: seq, WALVer: walFormatVersion, LastSeq: lastSeq, State: state})
	if err != nil {
		return err
	}
	return st.atomicWrite(st.sessionSnapPath(sid), buf)
}

func (st *store) readSessionSnap(sid string) (sessionSnapJSON, error) {
	var snap sessionSnapJSON
	buf, err := os.ReadFile(st.sessionSnapPath(sid))
	if err != nil {
		return snap, err
	}
	if err := json.Unmarshal(buf, &snap); err != nil {
		return snap, fmt.Errorf("service: corrupt session snapshot: %w", err)
	}
	if snap.WALSeq <= 0 || snap.State == nil {
		return snap, fmt.Errorf("service: corrupt session snapshot: wal_seq %d, state %v", snap.WALSeq, snap.State != nil)
	}
	if snap.WALVer != walFormatVersion {
		return snap, fmt.Errorf("service: session snapshot names wal format %d; only %d is read", snap.WALVer, walFormatVersion)
	}
	return snap, nil
}

// listSessionIDs returns the ids of every session with a meta file,
// sorted so recovery order (and therefore id-counter restoration) is
// deterministic.
func (st *store) listSessionIDs() ([]string, error) {
	entries, err := os.ReadDir(filepath.Join(st.dir, "sessions"))
	if err != nil {
		return nil, fmt.Errorf("service: reading session store: %w", err)
	}
	var ids []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".meta.json") {
			continue
		}
		ids = append(ids, strings.TrimSuffix(name, ".meta.json"))
	}
	sort.Strings(ids)
	return ids, nil
}

// sessionWALs returns the WAL generations present for a session.
func (st *store) sessionWALs(sid string) ([]int, error) {
	matches, err := filepath.Glob(filepath.Join(st.dir, "sessions", sid+".wal.*.jsonl"))
	if err != nil {
		return nil, err
	}
	var seqs []int
	for _, m := range matches {
		base := strings.TrimSuffix(strings.TrimPrefix(filepath.Base(m), sid+".wal."), ".jsonl")
		if seq, err := strconv.Atoi(base); err == nil {
			seqs = append(seqs, seq)
		}
	}
	sort.Ints(seqs)
	return seqs, nil
}

// cleanStraySegments deletes WAL generations other than keep — leftovers
// of a rotation that crashed between creating the next generation and
// deleting the previous one (either order is recoverable; only keep is
// referenced by the snapshot).
func (st *store) cleanStraySegments(sid string, keep int) {
	seqs, err := st.sessionWALs(sid)
	if err != nil {
		return
	}
	for _, seq := range seqs {
		if seq != keep {
			os.Remove(st.sessionWALPath(sid, seq))
		}
	}
}

// removeSessionFiles deletes every file of a session (meta, snapshot,
// all WAL generations). Best-effort: the first error is returned but
// removal continues.
func (st *store) removeSessionFiles(sid string) error {
	var first error
	keep := func(err error) {
		if err != nil && !errors.Is(err, fs.ErrNotExist) && first == nil {
			first = err
		}
	}
	if seqs, err := st.sessionWALs(sid); err == nil {
		for _, seq := range seqs {
			keep(os.Remove(st.sessionWALPath(sid, seq)))
		}
	}
	keep(os.Remove(st.sessionSnapPath(sid)))
	keep(os.Remove(st.sessionMetaPath(sid)))
	return first
}

// sessionLog is one session's open WAL generation. Access is serialised
// by the session mutex, like the engine it journals for.
//
// The append contract mirrors the ingest path's all-or-nothing
// semantics: append writes a batch of complete event lines plus a
// stream.WALCommit marker line carrying the batch's idempotency
// sequence number, and makes the whole batch durable before returning;
// on failure it truncates back to the last acked offset so a partial
// batch can never be followed by later appends (which would corrupt the
// middle of the log — a torn *tail* is recoverable, a torn middle is
// not). If even the truncate fails the log is marked broken and every
// later append errors.
//
// Durability is per-append by default; with store.syncEvery set, fsyncs
// group-commit — an append fsyncs only when the interval elapsed since
// the last one, so an OS crash can lose at most one interval of acked
// batches (a process crash still loses nothing: every append is flushed
// to the OS). synced tracks the last offset known to have hit the disk;
// the crash harness's OS-crash simulation truncates to it.
type sessionLog struct {
	st       *store
	id       string
	seq      int
	f        *os.File
	bw       *bufio.Writer
	size     int64 // acked bytes: offset after the last acked batch
	synced   int64 // fsynced bytes: offset the OS promised is on disk
	lastSync time.Time
	broken   bool
}

// createSessionLog starts WAL generation seq for a session (a fresh,
// empty log).
func (st *store) createSessionLog(sid string, seq int) (*sessionLog, error) {
	f, err := os.OpenFile(st.sessionWALPath(sid, seq), os.O_CREATE|os.O_TRUNC|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	return &sessionLog{st: st, id: sid, seq: seq, f: f, bw: bufio.NewWriter(f), lastSync: time.Now()}, nil
}

// openSessionLog reopens WAL generation seq for appending after
// recovery truncated it to size valid bytes.
func (st *store) openSessionLog(sid string, seq int, size int64) (*sessionLog, error) {
	f, err := os.OpenFile(st.sessionWALPath(sid, seq), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	return &sessionLog{st: st, id: sid, seq: seq, f: f, bw: bufio.NewWriter(f), size: size, synced: size, lastSync: time.Now()}, nil
}

// append writes a batch of newline-terminated event lines followed by
// its commit marker (batchSeq is the client's idempotency sequence
// number, 0 for unsequenced batches) and makes the batch durable —
// fsyncing every append, or at the store's group-commit interval. On
// any failure it rolls the file back to the last acked offset and
// reports the error; the engine state must not advance when append
// fails.
func (l *sessionLog) append(lines [][]byte, batchSeq int64) error {
	if l.broken {
		return fmt.Errorf("service: session %s wal is broken; reopen the session after a restart", l.id)
	}
	marker, err := json.Marshal(stream.WALCommit{Seq: batchSeq, N: len(lines)})
	if err != nil {
		return fmt.Errorf("service: wal append: %w", err)
	}
	marker = append(marker, '\n')
	var n int64
	write := func() error {
		for _, line := range lines {
			if _, err := l.bw.Write(line); err != nil {
				return err
			}
			n += int64(len(line))
		}
		if _, err := l.bw.Write(marker); err != nil {
			return err
		}
		n += int64(len(marker))
		if err := l.bw.Flush(); err != nil {
			return err
		}
		if !l.st.noSync && (l.st.syncEvery <= 0 || time.Since(l.lastSync) >= l.st.syncEvery) {
			if err := l.f.Sync(); err != nil {
				return err
			}
			l.synced = l.size + n
			l.lastSync = time.Now()
		}
		return nil
	}
	if err := write(); err != nil {
		// Roll back to the acked prefix so the log stays appendable.
		l.bw.Reset(l.f)
		if terr := l.f.Truncate(l.size); terr != nil {
			l.broken = true
		}
		return fmt.Errorf("service: wal append: %w", err)
	}
	l.size += n
	return nil
}

// rotate starts the next WAL generation and snapshots the engine state
// against it: create wal.(seq+1), atomically write the snapshot
// referencing it, delete the old generation. Every crash point is
// recoverable — until the snapshot rename lands, recovery still uses the
// old snapshot + old (intact) WAL; after it, the new snapshot + empty
// WAL. On error the log keeps its current generation and the caller's
// state remains recoverable by replay.
func (l *sessionLog) rotate(state *stream.EngineState, lastSeq int64) error {
	if l.broken {
		return fmt.Errorf("service: session %s wal is broken", l.id)
	}
	next, err := l.st.createSessionLog(l.id, l.seq+1)
	if err != nil {
		return fmt.Errorf("service: wal rotate: %w", err)
	}
	if err := l.st.saveSessionSnap(l.id, next.seq, state, lastSeq); err != nil {
		next.f.Close()
		os.Remove(l.st.sessionWALPath(l.id, next.seq))
		return fmt.Errorf("service: wal rotate: %w", err)
	}
	old := l.f
	oldSeq := l.seq
	l.f, l.bw, l.seq, l.size = next.f, next.bw, next.seq, 0
	l.synced, l.lastSync = 0, time.Now()
	old.Close()
	os.Remove(l.st.sessionWALPath(l.id, oldSeq))
	return nil
}

// close flushes and closes the log file (normal shutdown).
func (l *sessionLog) close() {
	l.bw.Flush()
	l.f.Close()
}

// abandon closes the log file WITHOUT flushing buffered data — the
// crash harness's SIGKILL equivalent. Anything acked was already
// flushed and fsynced by append, so abandoning loses only unacked work,
// exactly like a real kill.
func (l *sessionLog) abandon() {
	l.f.Close()
}

// remove closes the log and deletes every file of its session.
func (l *sessionLog) remove() error {
	l.f.Close()
	return l.st.removeSessionFiles(l.id)
}

// persistNewSession writes a just-opened session's meta, initial WAL
// generation, and initial snapshot, and returns the open log. Written in
// that order so a crash mid-open leaves either no snapshot (recovery
// skips the half-created session — the open was never acked) or a fully
// recoverable one.
func (s *Server) persistNewSession(sess *Session, cfg SessionConfig) (*sessionLog, error) {
	meta := sessionMetaJSON{SessionID: sess.ID, InstanceID: sess.InstanceID, Config: cfg}
	if err := s.store.saveSessionMeta(meta); err != nil {
		return nil, err
	}
	l, err := s.store.createSessionLog(sess.ID, 1)
	if err != nil {
		return nil, err
	}
	if err := s.store.saveSessionSnap(sess.ID, 1, sess.engine.State(), 0); err != nil {
		l.f.Close()
		return nil, err
	}
	return l, nil
}

// recoverState reloads instances and sessions from the data directory.
// Individually damaged records are logged and skipped (a corrupt file
// must not block startup); only store-level I/O failures are returned.
func (s *Server) recoverState() error {
	insts, err := s.store.loadInstances()
	if err != nil {
		return err
	}
	for _, si := range insts {
		s.engine.registry.Add(si.Name, si.Instance)
	}
	ids, err := s.store.listSessionIDs()
	if err != nil {
		return err
	}
	for _, sid := range ids {
		s.recoverSession(sid)
	}
	return nil
}

// recoverSession rebuilds one session: restore the engine from its
// snapshot, replay the WAL's committed batches through the normal
// Observe path (truncating a torn tail), and re-register it under its
// original id. Recovery writes no new snapshot — replay is idempotent,
// so crashing during recovery just replays again. Replay installs no
// worker-slot gate: recovery runs before the server serves, so no
// request competes for the slots. A session that cannot be rebuilt
// (including one whose snapshot names another WAL format) is logged and
// skipped, and its id stays reserved.
func (s *Server) recoverSession(sid string) {
	meta, err := s.store.readSessionMeta(sid)
	if err != nil {
		log.Printf("service: skipping session %s: %v", sid, err)
		s.sessions.reserve(sid)
		return
	}
	snap, err := s.store.readSessionSnap(sid)
	if err != nil {
		log.Printf("service: skipping session %s: %v", sid, err)
		s.sessions.reserve(sid)
		return
	}
	in, _, ok := s.engine.registry.Get(meta.InstanceID)
	if !ok {
		log.Printf("service: skipping session %s: instance %s is not resident", sid, meta.InstanceID)
		s.sessions.reserve(sid)
		return
	}
	cfg, err := s.sessionConfig(meta.Config, in)
	if err != nil {
		log.Printf("service: skipping session %s: %v", sid, err)
		s.sessions.reserve(sid)
		return
	}
	sess := &Session{
		ID:         sid,
		InstanceID: meta.InstanceID,
		instance:   in,
		objIndex:   stream.ObjectIndex(in),
	}
	eng, err := stream.Restore(in, cfg, snap.State)
	if err != nil {
		log.Printf("service: skipping session %s: %v", sid, err)
		s.sessions.reserve(sid)
		return
	}

	walPath := s.store.sessionWALPath(sid, snap.WALSeq)
	events, walSeq, valid, size, err := s.decodeSessionWAL(walPath, in)
	if err != nil {
		log.Printf("service: skipping session %s: %v", sid, err)
		s.sessions.reserve(sid)
		return
	}
	sess.lastSeq = snap.LastSeq
	if walSeq > sess.lastSeq {
		sess.lastSeq = walSeq
	}
	if discarded := size - valid; discarded > 0 {
		log.Printf("service: session %s: discarding %d bytes of torn wal tail (%d valid)", sid, discarded, valid)
		s.counters.walDiscarded.Add(discarded)
		if err := os.Truncate(walPath, valid); err != nil {
			log.Printf("service: skipping session %s: truncating torn wal: %v", sid, err)
			s.sessions.reserve(sid)
			return
		}
	}
	for _, r := range events {
		if _, err := eng.Observe(r); err != nil {
			// DecodeWALBatches validated every event; reaching this is a
			// bug, but a skipped session beats a poisoned server.
			log.Printf("service: skipping session %s: replay: %v", sid, err)
			s.sessions.reserve(sid)
			return
		}
	}
	l, err := s.store.openSessionLog(sid, snap.WALSeq, valid)
	if err != nil {
		log.Printf("service: skipping session %s: reopening wal: %v", sid, err)
		s.sessions.reserve(sid)
		return
	}
	s.store.cleanStraySegments(sid, snap.WALSeq)
	sess.engine = eng
	sess.log = l
	if err := s.sessions.restore(sess); err != nil {
		log.Printf("service: skipping session %s: %v", sid, err)
		l.close()
		return
	}
	// Reconstruct the /statz session counters from the recovered engine:
	// its stats cover every event and epoch the session ever saw, so the
	// counters match an uninterrupted run (sessions deleted before the
	// crash are gone from both).
	st := eng.Stats()
	s.counters.sessionsOpened.Add(1)
	s.counters.recoveredSessions.Add(1)
	s.counters.sessionEvents.Add(int64(st.Events))
	s.counters.sessionEpochs.Add(int64(st.Epochs))
	s.counters.sessionResolves.Add(int64(st.Resolves))
	s.counters.sessionMoves.Add(int64(st.Moves))
}

// decodeSessionWAL reads a WAL file's committed batches: events after
// the last commit marker belong to an unacknowledged batch and are
// excluded, and lastSeq is the highest committed idempotency sequence
// number. A missing file is an empty log (the crash may have landed
// before the first append — or between snapshot rename and segment
// creation, where the snapshot alone is the complete state).
func (s *Server) decodeSessionWAL(path string, in *core.Instance) (events []workload.Request, lastSeq, valid, size int64, err error) {
	f, err := os.Open(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, 0, 0, 0, nil
	}
	if err != nil {
		return nil, 0, 0, 0, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, 0, 0, 0, err
	}
	events, lastSeq, valid, err = stream.DecodeWALBatches(f, in)
	if err != nil {
		return nil, 0, 0, 0, err
	}
	return events, lastSeq, valid, fi.Size(), nil
}

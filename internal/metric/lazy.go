package metric

import (
	"sync"
	"sync/atomic"

	"netplace/internal/graph"
)

// DefaultLazyRows is the default row-cache budget of the lazy oracle. At
// this budget a 1M-node network costs ~2 GB of cached rows in the worst
// case and a 50k-node network ~100 MB; tune per deployment via the
// constructor (or core.Instance.UseMetric).
const DefaultLazyRows = 256

// Lazy serves the shortest-path metric of a network by running per-source
// Dijkstra rows on demand behind a bounded, sharded, concurrency-safe LRU
// row cache. Peak memory is O(budget * n) instead of Θ(n²), which is what
// lets the placement algorithms run on 50k–1M-node sparse topologies.
//
// Point queries consult the cache for either endpoint's row (the metric is
// symmetric), so access patterns that keep one side in a small working set
// — distances to the current copy set, for example — never recompute.
// Nearest-first scans and multi-source sweeps bypass rows entirely and run
// truncated or multi-source Dijkstra on the graph through pooled Scanners,
// so steady-state sweeps allocate nothing.
type Lazy struct {
	g      *graph.Graph
	cache  []lazyShard
	pool   sync.Pool // *graph.Scanner
	budget int
}

const lazyShards = 16

// lazyShard is one LRU shard: a map from node id to entry plus an intrusive
// doubly-linked recency list (head = most recent). The list makes every
// touch O(1); with the historical order-slice scan a cache-hit Row cost
// grew linearly with the shard's share of the row budget.
type lazyShard struct {
	mu   sync.Mutex
	rows map[int]*lazyEntry
	head *lazyEntry
	tail *lazyEntry
	cap  int
}

// lazyEntry is one cached row with its intrusive LRU links. The row pointer
// is written once (guarded by once) and read without the shard lock.
type lazyEntry struct {
	key        int
	prev, next *lazyEntry
	once       sync.Once
	row        atomic.Pointer[[]float64]
}

// NewLazy returns a lazy oracle over g with a row cache bounded to
// maxRows rows (<= 0 selects DefaultLazyRows).
func NewLazy(g *graph.Graph, maxRows int) *Lazy {
	if maxRows <= 0 {
		maxRows = DefaultLazyRows
	}
	l := &Lazy{g: g, cache: make([]lazyShard, lazyShards), budget: maxRows}
	// Distribute the budget exactly: total capacity sums to maxRows (tiny
	// budgets must not be exceeded shard by shard).
	for i := range l.cache {
		perShard := maxRows / lazyShards
		if i < maxRows%lazyShards {
			perShard++
		}
		l.cache[i] = lazyShard{rows: make(map[int]*lazyEntry), cap: perShard}
	}
	l.pool.New = func() interface{} { return graph.NewScanner(g) }
	return l
}

// shardOf mixes the node id before sharding so that access patterns with a
// regular stride (copies on a grid, say) spread across shards instead of
// collapsing into one residue class.
func (l *Lazy) shardOf(u int) *lazyShard {
	h := uint32(u) * 2654435761 // Knuth multiplicative hash
	sh := &l.cache[h>>28&(lazyShards-1)]
	if sh.cap == 0 {
		// A budget below lazyShards leaves some shards empty; fall back to
		// the first non-empty shard for those ids.
		for i := range l.cache {
			if l.cache[i].cap > 0 {
				return &l.cache[i]
			}
		}
	}
	return sh
}

// scanner borrows a pooled Scanner; release it with putScanner.
func (l *Lazy) scanner() *graph.Scanner { return l.pool.Get().(*graph.Scanner) }

// putScanner returns a borrowed Scanner to the pool.
func (l *Lazy) putScanner(sc *graph.Scanner) { l.pool.Put(sc) }

// N returns the number of nodes.
func (l *Lazy) N() int { return l.g.N() }

// Kind reports the lazy backend.
func (l *Lazy) Kind() Kind { return KindLazy }

// Budget returns the row-cache budget in rows.
func (l *Lazy) Budget() int { return l.budget }

// pushFront links e at the recency head. Called with the shard lock held.
func (sh *lazyShard) pushFront(e *lazyEntry) {
	e.prev = nil
	e.next = sh.head
	if sh.head != nil {
		sh.head.prev = e
	}
	sh.head = e
	if sh.tail == nil {
		sh.tail = e
	}
}

// unlink removes e from the recency list. Called with the shard lock held.
func (sh *lazyShard) unlink(e *lazyEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		sh.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		sh.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

// touch moves e to the recency head in O(1). Called with the shard lock
// held.
func (sh *lazyShard) touch(e *lazyEntry) {
	if sh.head == e {
		return
	}
	sh.unlink(e)
	sh.pushFront(e)
}

// entryFor returns u's cache entry, creating it (and evicting the
// least-recently-used entry past the shard's capacity) on a miss,
// refreshing its recency on a hit. The entry's row may not be computed
// yet; callers resolve it through the entry's once.
func (l *Lazy) entryFor(u int) *lazyEntry {
	sh := l.shardOf(u)
	sh.mu.Lock()
	e, ok := sh.rows[u]
	if !ok {
		e = &lazyEntry{key: u}
		sh.rows[u] = e
		sh.pushFront(e)
		if len(sh.rows) > sh.cap {
			evict := sh.tail
			sh.unlink(evict)
			delete(sh.rows, evict.key)
		}
	} else {
		sh.touch(e)
	}
	sh.mu.Unlock()
	return e
}

// fill computes e's row with the given scanner if no other goroutine has
// yet; concurrent fills of the same entry collapse through the entry's
// once. The SSSP kernel is auto-selected per the graph's weight profile
// (bucketed on bounded-spread weights, heap Dijkstra otherwise);
// distances are identical either way.
func (l *Lazy) fill(e *lazyEntry, sc *graph.Scanner) {
	e.once.Do(func() {
		row := sc.RowAutoInto(e.key, make([]float64, l.g.N()))
		e.row.Store(&row)
	})
}

// Row returns the distance row of u, computing it with a single-source
// shortest-path sweep on a cache miss. The returned slice is shared with
// the cache; callers must not modify it. It remains valid after eviction
// (eviction only drops the cache's reference).
func (l *Lazy) Row(u int) []float64 {
	e := l.entryFor(u)
	if p := e.row.Load(); p == nil {
		sc := l.scanner()
		l.fill(e, sc)
		l.putScanner(sc)
	}
	return *e.row.Load()
}

// RowsInto fills rows[i] with the distance row of us[i] and returns the
// slice, growing it as needed. Cache hits are resolved up front; the
// missing rows are then built together — each worker borrows one pooled
// Scanner for its whole share and the misses are claimed one at a time
// off an atomic cursor — instead of faulting one row at a time inside
// the caller's loop. This is the batched multi-source row construction
// behind PairwiseMST and the other row-plural kernels on large
// instances, where K independent Dijkstra runs are the serial floor.
//
// workers follows AutoWorkers: negative is GOMAXPROCS, 0 the size-aware
// auto policy, positive literal. Concurrent batches sharing entries (or
// racing point queries) collapse through each entry's once, so the rows
// produced are identical to serial fills in every schedule. Returned
// rows are cache-shared and read-only, like Row's.
func (l *Lazy) RowsInto(us []int, rows [][]float64, workers int) [][]float64 {
	if cap(rows) < len(us) {
		rows = make([][]float64, len(us))
	}
	rows = rows[:len(us)]
	// Resolve entries serially — shard-locked map touches are cheap —
	// and collect the entries whose rows still need a sweep.
	var missEntries []*lazyEntry
	var missIdx []int
	for i, u := range us {
		e := l.entryFor(u)
		if p := e.row.Load(); p != nil {
			rows[i] = *p
			continue
		}
		missEntries = append(missEntries, e)
		missIdx = append(missIdx, i)
	}
	if len(missEntries) == 0 {
		return rows
	}
	workers = AutoWorkers(workers, l.g.N())
	Shard(len(missEntries), 1, workers, func(claim func() (lo, hi int, ok bool)) {
		sc := l.scanner()
		defer l.putScanner(sc)
		for {
			i, _, ok := claim()
			if !ok {
				return
			}
			l.fill(missEntries[i], sc)
		}
	})
	for k, e := range missEntries {
		rows[missIdx[k]] = *e.row.Load()
	}
	return rows
}

// peek returns u's row if it is cached and already computed, refreshing its
// LRU recency on a hit (point-query workloads must keep their hot rows
// alive, not decay to insertion-order FIFO).
func (l *Lazy) peek(u int) ([]float64, bool) {
	sh := l.shardOf(u)
	sh.mu.Lock()
	e, ok := sh.rows[u]
	if ok {
		sh.touch(e)
	}
	sh.mu.Unlock()
	if !ok {
		return nil, false
	}
	p := e.row.Load()
	if p == nil {
		return nil, false
	}
	return *p, true
}

// Dist returns d(u, v). Because the metric is symmetric it is served from
// whichever endpoint's row is already cached, and computes u's row
// otherwise.
func (l *Lazy) Dist(u, v int) float64 {
	if u == v {
		return 0
	}
	if row, ok := l.peek(u); ok {
		return row[v]
	}
	if row, ok := l.peek(v); ok {
		return row[u]
	}
	return l.Row(u)[v]
}

// ScanNear visits nodes in nondecreasing distance from v with a truncated
// Dijkstra: stopping early pays only for the explored ball.
func (l *Lazy) ScanNear(v int, fn func(u int, d float64) bool) {
	sc := l.scanner()
	sc.Scan(v, fn)
	l.putScanner(sc)
}

// NearestOfInto fills dst (length n) with every node's distance to the
// nearest source: one pooled multi-source Dijkstra, no allocation.
func (l *Lazy) NearestOfInto(sources []int, dst []float64) []float64 {
	sc := l.scanner()
	sc.NearestInto(sources, dst)
	l.putScanner(sc)
	return dst
}

// ImproveNearest folds src into near with a pruned Dijkstra that explores
// only the region src improves.
func (l *Lazy) ImproveNearest(src int, near []float64) {
	sc := l.scanner()
	sc.ImproveNearest(src, near)
	l.putScanner(sc)
}

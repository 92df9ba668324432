package service

import (
	"container/list"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"netplace/internal/core"
	"netplace/internal/encode"
	"netplace/internal/metric"
)

// InstanceInfo is the registry's public record of one resident instance.
type InstanceInfo struct {
	// ID is the short registry identifier (a prefix of Hash): uploading the
	// same problem twice yields the same ID.
	ID string `json:"id"`
	// Hash is the full stable content hash (encode.HashInstance).
	Hash string `json:"hash"`
	// Name is the client-supplied label, if any.
	Name string `json:"name,omitempty"`
	// Nodes, Edges and Objects describe the instance's shape.
	Nodes   int `json:"nodes"`
	Edges   int `json:"edges"`
	Objects int `json:"objects"`
	// MemBytes is the registry's estimate of the instance's resident size,
	// the unit of the memory budget.
	MemBytes int64 `json:"mem_bytes"`
	// CreatedAt and LastUsed drive LRU eviction.
	CreatedAt time.Time `json:"created_at"`
	LastUsed  time.Time `json:"last_used"`
}

// idLen is how many hash hex digits form a registry ID; 16 hex digits = 64
// bits, far beyond collision range for any realistic instance count.
const idLen = 16

// InstanceIDFor computes the registry id an instance gets when uploaded
// — the content-hash prefix, identical on every replica. The cluster
// routing layer (internal/cluster) uses it to know an upload's owner
// before any server has seen the instance.
func InstanceIDFor(in *core.Instance) string {
	return encode.HashInstance(in)[:idLen]
}

// Registry keeps uploaded instances resident and identity-deduplicated by
// content hash, evicting least-recently-used instances once the estimated
// memory exceeds the budget. Safe for concurrent use.
type Registry struct {
	budget int64 // negative: unbounded

	mu        sync.Mutex
	entries   map[string]*regEntry
	order     *list.List // front = most recently used
	used      int64
	evictions *atomic.Int64 // nil: evictions are not counted
}

// regEntry is one resident instance plus its LRU hook.
type regEntry struct {
	info InstanceInfo
	in   *core.Instance
	elem *list.Element
}

// NewRegistry returns an empty registry with the given memory budget in
// estimated bytes (negative: unbounded). evictions, when non-nil, is
// incremented once per evicted instance.
func NewRegistry(budget int64, evictions *atomic.Int64) *Registry {
	return &Registry{
		budget:    budget,
		entries:   make(map[string]*regEntry),
		order:     list.New(),
		evictions: evictions,
	}
}

// Add registers an instance under its content hash and returns its record.
// Re-uploading an identical instance is idempotent: the existing record is
// refreshed (and renamed if name is non-empty) and created reports false.
// Adding may evict least-recently-used other instances to respect the
// memory budget; the new instance itself is never evicted by its own Add.
func (r *Registry) Add(name string, in *core.Instance) (info InstanceInfo, created bool) {
	hash := encode.HashInstance(in)
	id := hash[:idLen]
	now := time.Now()
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.entries[id]; ok {
		if name != "" {
			e.info.Name = name
		}
		e.info.LastUsed = now
		r.order.MoveToFront(e.elem)
		return e.info, false
	}
	e := &regEntry{
		info: InstanceInfo{
			ID: id, Hash: hash, Name: name,
			Nodes: in.G.N(), Edges: in.G.M(), Objects: len(in.Objects),
			MemBytes:  estimateBytes(in),
			CreatedAt: now, LastUsed: now,
		},
		in: in,
	}
	e.elem = r.order.PushFront(e)
	r.entries[id] = e
	r.used += e.info.MemBytes
	r.evictLocked(e)
	return e.info, true
}

// Get returns a resident instance and refreshes its recency. The boolean
// reports whether the id was resident.
func (r *Registry) Get(id string) (*core.Instance, InstanceInfo, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.entries[id]
	if !ok {
		return nil, InstanceInfo{}, false
	}
	e.info.LastUsed = time.Now()
	r.order.MoveToFront(e.elem)
	return e.in, e.info, true
}

// Delete removes an instance; it reports whether the id was resident.
func (r *Registry) Delete(id string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.entries[id]
	if !ok {
		return false
	}
	r.removeLocked(e)
	return true
}

// List returns records of all resident instances, most recently used first
// except for ties, which sort by ID for determinism.
func (r *Registry) List() []InstanceInfo {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]InstanceInfo, 0, len(r.entries))
	for el := r.order.Front(); el != nil; el = el.Next() {
		out = append(out, el.Value.(*regEntry).info)
	}
	sort.SliceStable(out, func(a, b int) bool {
		if !out[a].LastUsed.Equal(out[b].LastUsed) {
			return out[a].LastUsed.After(out[b].LastUsed)
		}
		return out[a].ID < out[b].ID
	})
	return out
}

// residents snapshots every resident instance with its record, without
// refreshing recency.
func (r *Registry) residents() []regEntry {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]regEntry, 0, len(r.entries))
	for _, e := range r.entries {
		out = append(out, *e)
	}
	return out
}

// Len returns the number of resident instances.
func (r *Registry) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.entries)
}

// UsedBytes returns the estimated resident memory.
func (r *Registry) UsedBytes() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.used
}

// evictLocked drops least-recently-used instances (never keep, which is the
// entry being added) until the estimated memory fits the budget or nothing
// else is left. Called with r.mu held.
func (r *Registry) evictLocked(keep *regEntry) {
	if r.budget < 0 {
		return
	}
	for r.used > r.budget && r.order.Len() > 1 {
		back := r.order.Back()
		e := back.Value.(*regEntry)
		if e == keep {
			// keep is the only candidate left besides itself; stop rather
			// than evict the instance we were asked to admit.
			return
		}
		r.removeLocked(e)
		if r.evictions != nil {
			r.evictions.Add(1)
		}
	}
}

// removeLocked unlinks an entry. Called with r.mu held.
func (r *Registry) removeLocked(e *regEntry) {
	delete(r.entries, e.info.ID)
	r.order.Remove(e.elem)
	r.used -= e.info.MemBytes
}

// estimateBytes approximates an instance's resident footprint: graph
// adjacency (one Edge plus two half-edges per edge), the per-node slices,
// the per-object frequency vectors, and — the dominant term for networks
// the auto-selected backend serves densely — the Θ(n²) distance matrix.
// Larger networks get the lazy row cache's default budget instead.
func estimateBytes(in *core.Instance) int64 {
	n := int64(in.G.N())
	m := int64(in.G.M())
	b := 72*m + 8*n // edges + storage fees
	b += int64(len(in.Objects)) * (16 * n)
	if n <= core.DenseMetricMaxNodes {
		b += 8 * n * n
	} else {
		// Lazy backend: a bounded row cache of DefaultLazyRows rows of 8n
		// bytes each, not Θ(n²). (Tree networks cost even less; charging
		// them the lazy budget only makes eviction slightly eager.)
		b += 8 * n * metric.DefaultLazyRows
	}
	return b
}

// String renders a short human identity, for logs.
func (i InstanceInfo) String() string {
	return fmt.Sprintf("%s (%d nodes, %d edges, %d objects)", i.ID, i.Nodes, i.Edges, i.Objects)
}

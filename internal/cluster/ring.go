// Package cluster shards the netplace service horizontally: a
// consistent-hash ring assigns every instance (and with it every
// streaming session) to one netplaced replica, and a Router maps each
// request to that owner under per-replica circuit breakers and one
// stale-read failover rule. Both entry points route through a Router:
// the replica-side Proxy, which lets any replica forward requests it
// does not own, and the ShardedClient, a service.Client whose transport
// sends each call straight to its owner. A session id names its
// instance (service.SessionInstanceID), so a session call routes
// exactly like a call on its instance. The multi-process Harness boots
// real netplaced binaries and is the substrate of the conformance suite
// proving N replicas are byte-indistinguishable from one. See
// docs/cluster.md.
package cluster

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"

	"netplace/internal/service"
)

// DefaultVnodes is the virtual-node count per replica used when a Ring
// (or a component embedding one) is configured with vnodes <= 0. 128
// points per replica keeps the key distribution within a few percent of
// uniform while membership changes stay cheap to apply.
const DefaultVnodes = 128

// Ring is a consistent-hash ring with virtual nodes: each replica owns
// vnodes points on a 64-bit circle and a key belongs to the replica of
// the first point at or after the key's hash. Adding or removing one
// replica therefore moves only the ~1/N key fraction adjacent to its
// points — never reshuffles the rest — and ownership depends only on
// the member set, not on insertion order. Not safe for concurrent
// mutation; guard with a lock or copy via Clone when shared.
type Ring struct {
	vnodes  int
	points  []ringPoint // sorted by (hash, replica)
	members map[string]bool
}

// ringPoint is one virtual node: a position on the circle and the
// replica owning it.
type ringPoint struct {
	h       uint64
	replica string
}

// NewRing returns an empty ring granting each replica vnodes virtual
// nodes (<= 0 selects DefaultVnodes).
func NewRing(vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVnodes
	}
	return &Ring{vnodes: vnodes, members: make(map[string]bool)}
}

// NewRingOf is NewRing followed by Add of every replica.
func NewRingOf(vnodes int, replicas ...string) *Ring {
	r := NewRing(vnodes)
	for _, rep := range replicas {
		r.Add(rep)
	}
	return r
}

// hashKey positions a key on the circle. FNV-1a alone clusters short
// sequential strings, so the digest goes through a splitmix64-style
// finalizer for avalanche; the test suite pins the resulting
// distribution to within 15% of uniform.
func hashKey(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s)) //nolint:errcheck // fnv never errors
	return mix64(h.Sum64())
}

// mix64 is the splitmix64 output finalizer: full-avalanche mixing of a
// 64-bit word.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// ringSubPoints spreads each virtual node over this many circle points
// (derived from the vnode's base hash by golden-ratio stepping). The
// per-replica share's relative spread shrinks with the square root of
// the point count, so 128 vnodes land within ~6% of uniform instead of
// the ~20% a single point per vnode allows — the margin behind the
// pinned 15% distribution bound.
const ringSubPoints = 8

// Add inserts a replica's virtual nodes. Adding a present replica is a
// no-op; it reports whether the membership changed.
func (r *Ring) Add(replica string) bool {
	if r.members[replica] {
		return false
	}
	r.members[replica] = true
	for i := 0; i < r.vnodes; i++ {
		base := hashKey(replica + "#" + strconv.Itoa(i))
		for s := 0; s < ringSubPoints; s++ {
			r.points = append(r.points, ringPoint{
				h:       mix64(base + uint64(s)*0x9e3779b97f4a7c15),
				replica: replica,
			})
		}
	}
	sort.Slice(r.points, func(a, b int) bool {
		if r.points[a].h != r.points[b].h {
			return r.points[a].h < r.points[b].h
		}
		return r.points[a].replica < r.points[b].replica
	})
	return true
}

// Remove drops a replica and its virtual nodes; it reports whether the
// replica was a member. Only keys the removed replica owned change
// owners.
func (r *Ring) Remove(replica string) bool {
	if !r.members[replica] {
		return false
	}
	delete(r.members, replica)
	kept := r.points[:0]
	for _, p := range r.points {
		if p.replica != replica {
			kept = append(kept, p)
		}
	}
	r.points = kept
	return true
}

// Owner returns the replica owning key, or "" on an empty ring.
func (r *Ring) Owner(key string) string {
	if len(r.points) == 0 {
		return ""
	}
	h := hashKey(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].h >= h })
	if i == len(r.points) {
		i = 0 // wrap past the highest point to the circle's start
	}
	return r.points[i].replica
}

// Has reports whether replica is a member.
func (r *Ring) Has(replica string) bool { return r.members[replica] }

// Members returns the replicas in sorted order.
func (r *Ring) Members() []string {
	out := make([]string, 0, len(r.members))
	for m := range r.members {
		out = append(out, m)
	}
	sort.Strings(out)
	return out
}

// Len returns the member count.
func (r *Ring) Len() int { return len(r.members) }

// Successor returns the member after m in sorted member order (wrapping
// past the last back to the first), or "" when m is not a member or the
// ring has fewer than two members. This — not ring-point adjacency — is
// the cluster's replication successor rule (service.SuccessorOf):
// replica pushes, router failover and the successor move after a drain
// all compute it from the member list alone, so they agree on where an
// instance's read-only snapshot lives without coordination. See
// docs/cluster.md "Failure modes & membership".
func (r *Ring) Successor(m string) string {
	return SuccessorOf(r.Members(), m)
}

// SuccessorOf is Ring.Successor on a plain member list:
// service.SuccessorOf, the one place the rule is written.
func SuccessorOf(members []string, self string) string {
	return service.SuccessorOf(members, self)
}

// Clone returns an independent copy of the ring.
func (r *Ring) Clone() *Ring {
	c := &Ring{vnodes: r.vnodes, members: make(map[string]bool, len(r.members))}
	for m := range r.members {
		c.members[m] = true
	}
	c.points = append([]ringPoint(nil), r.points...)
	return c
}

// String renders the membership, for logs and errors.
func (r *Ring) String() string {
	return fmt.Sprintf("ring(%d members, %d vnodes)", len(r.members), r.vnodes)
}

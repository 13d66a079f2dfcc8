package catalog

import (
	"hash/fnv"
	"sort"
	"strconv"
)

// DefaultRingReplicas is the number of virtual nodes each member
// contributes to a Ring. More replicas smooth the key distribution at
// the cost of a larger (still tiny) sorted point array.
const DefaultRingReplicas = 128

// Ring is a consistent-hash ring over member names. Adding or removing
// a member moves only the keys that land on that member's arcs — on
// average 1/n of the keyspace — so attaching a shard to a collection
// re-homes a bounded slice of the corpus instead of reshuffling every
// document. Ring is not safe for concurrent mutation; the catalog
// guards it with its own lock and hands out copies of lookups only.
type Ring struct {
	replicas int
	points   []ringPoint // sorted by hash
	members  map[string]struct{}
}

// ringPoint is one virtual node: a position on the ring and the member
// that owns the arc ending there.
type ringPoint struct {
	hash  uint64
	owner string
}

// NewRing returns an empty ring with the given virtual-node count per
// member (DefaultRingReplicas when <= 0).
func NewRing(replicas int) *Ring {
	if replicas <= 0 {
		replicas = DefaultRingReplicas
	}
	return &Ring{replicas: replicas, members: make(map[string]struct{})}
}

// ringHash positions a string on the ring: FNV-1a (64-bit) followed by
// a murmur-style finalizer. Raw FNV-1a has weak avalanche for trailing
// bytes — sequential keys like "doc-000041" land in one tight band and
// would all route to the same member — so the finalizer mixes every
// input bit across the whole word before the ring lookup.
func ringHash(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s)) //nolint:errcheck // fnv never fails
	x := h.Sum64()
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// Len returns the number of members.
func (r *Ring) Len() int { return len(r.members) }

// Add inserts a member (idempotent).
func (r *Ring) Add(member string) {
	if _, ok := r.members[member]; ok {
		return
	}
	r.members[member] = struct{}{}
	for i := 0; i < r.replicas; i++ {
		r.points = append(r.points, ringPoint{
			hash:  ringHash(member + "#" + strconv.Itoa(i)),
			owner: member,
		})
	}
	sort.Slice(r.points, func(i, j int) bool { return r.points[i].hash < r.points[j].hash })
}

// Remove deletes a member (idempotent).
func (r *Ring) Remove(member string) {
	if _, ok := r.members[member]; !ok {
		return
	}
	delete(r.members, member)
	kept := r.points[:0]
	for _, p := range r.points {
		if p.owner != member {
			kept = append(kept, p)
		}
	}
	r.points = kept
}

// Locate returns the member owning key: the owner of the first virtual
// node at or clockwise of the key's hash. ok is false on an empty ring.
func (r *Ring) Locate(key string) (member string, ok bool) {
	if len(r.points) == 0 {
		return "", false
	}
	h := ringHash(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0 // wrap: the lowest point owns the top arc
	}
	return r.points[i].owner, true
}

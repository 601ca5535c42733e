// Package server is the sharded transactional serving layer: a
// network-facing key/value store built on the PN-STM with N independent
// STM shards behind consistent-hash key routing, a per-shard autopn tuner
// instance (each shard converges its own (t, c)), and an admission-control
// front door — bounded per-shard queues, load shedding with a typed
// overload reply, a circuit breaker per shard, and a dead-letter log for
// shed and timed-out requests. See docs/SERVER.md.
package server

import (
	"fmt"
	"sort"
)

// defaultVNodes is the virtual-node count per shard when Options.VNodes is
// zero. 64 points per shard keeps the worst-case key-ownership skew of a
// handful of shards within a few tens of percent of the mean (asserted by
// the ring unit tests) while the ring stays small enough to rebuild
// instantly.
const defaultVNodes = 64

// Ring is a consistent-hash ring mapping keys to shard indices. Each shard
// owns VNodes points on a 64-bit hash circle; a key belongs to the shard
// owning the first point at or after the key's hash (wrapping at the top).
// The construction is deterministic — the same (shards, vnodes) pair
// always yields the same ring — so the load generator can rebuild the
// server's routing client-side to colocate multi-key transactions.
//
// Consistent hashing's defining property, which the unit tests pin down:
// growing the ring from N to N+1 shards only moves keys *to* the new
// shard; no key changes hands between pre-existing shards.
type Ring struct {
	shards int
	vnodes int
	points []ringPoint // sorted by hash
}

type ringPoint struct {
	hash  uint64
	shard int
}

// NewRing builds the ring for the given shard count (>= 1). vnodes <= 0
// selects the default of 64 points per shard.
func NewRing(shards, vnodes int) *Ring {
	if shards < 1 {
		shards = 1
	}
	if vnodes <= 0 {
		vnodes = defaultVNodes
	}
	r := &Ring{shards: shards, vnodes: vnodes, points: make([]ringPoint, 0, shards*vnodes)}
	for s := 0; s < shards; s++ {
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{
				hash:  hashKey(fmt.Sprintf("shard-%d-vnode-%d", s, v)),
				shard: s,
			})
		}
	}
	sort.Slice(r.points, func(i, j int) bool { return r.points[i].hash < r.points[j].hash })
	return r
}

// Shards returns the shard count the ring routes over.
func (r *Ring) Shards() int { return r.shards }

// VNodes returns the per-shard virtual-node count.
func (r *Ring) VNodes() int { return r.vnodes }

// Lookup returns the shard owning key.
func (r *Ring) Lookup(key string) int { return r.owner(hashKey(key)) }

// owner returns the shard owning hash h: the first point with hash >= h,
// wrapping to points[0] past the top.
func (r *Ring) owner(h uint64) int {
	lo, hi := 0, len(r.points)
	for lo < hi {
		if mid := int(uint(lo+hi) >> 1); r.points[mid].hash < h {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == len(r.points) {
		lo = 0
	}
	return r.points[lo].shard
}

// hashKey is FNV-1a 64 followed by a 64-bit finalizer mix. It is stable
// across processes (unlike maphash), which is what lets the load generator
// reconstruct the server's routing. The finalizer matters: raw FNV-1a
// diffuses a trailing-byte change by only ~2^47 on the 2^64 circle (one
// xor plus one multiply by the ~2^40 prime), so sequential key names like
// k000041/k000042 land in contiguous clumps between ring points and skew
// shard ownership badly; the avalanche mix spreads them uniformly.
// It takes the key as a string (the exported Lookup) or as the request
// path's byte slice, and allocates for neither.
func hashKey[T string | []byte](s T) uint64 {
	x := uint64(14695981039346656037) // FNV-1a 64 offset basis
	for i := 0; i < len(s); i++ {
		x = (x ^ uint64(s[i])) * 1099511628211 // FNV-1a 64 prime
	}
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// KeyName renders the canonical name of the i-th preloaded key. The server
// preloads its key space at startup and the load generator addresses the
// same names, so the two agree by construction.
func KeyName(i int) string { return fmt.Sprintf("k%06d", i) }

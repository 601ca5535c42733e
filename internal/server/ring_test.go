package server

import (
	"fmt"
	"testing"
)

// TestRingDeterministic: two rings built from the same parameters route
// every key identically — the property the load generator relies on to
// colocate MADD batches client-side.
func TestRingDeterministic(t *testing.T) {
	a := NewRing(8, 128)
	b := NewRing(8, 128)
	for i := 0; i < 4096; i++ {
		k := KeyName(i)
		if a.Lookup(k) != b.Lookup(k) {
			t.Fatalf("ring not deterministic: key %s -> %d vs %d", k, a.Lookup(k), b.Lookup(k))
		}
	}
}

func TestRingLookupInRange(t *testing.T) {
	r := NewRing(5, 32)
	for i := 0; i < 2048; i++ {
		s := r.Lookup(KeyName(i))
		if s < 0 || s >= 5 {
			t.Fatalf("Lookup(%s) = %d, out of [0,5)", KeyName(i), s)
		}
	}
}

// TestRingDistributionSkew: with enough virtual nodes, every shard's key
// share stays within a constant factor of the mean — the skew bound that
// keeps per-shard tuners seeing comparable load.
func TestRingDistributionSkew(t *testing.T) {
	const (
		shards = 8
		vnodes = 128
		keys   = 16384
	)
	r := NewRing(shards, vnodes)
	counts := make([]int, shards)
	for i := 0; i < keys; i++ {
		counts[r.Lookup(KeyName(i))]++
	}
	mean := float64(keys) / shards
	for s, c := range counts {
		ratio := float64(c) / mean
		if ratio < 0.45 || ratio > 1.75 {
			t.Errorf("shard %d owns %d keys (%.2fx mean %.0f); want within [0.45, 1.75]x: %v",
				s, c, ratio, mean, counts)
		}
		if c == 0 {
			t.Errorf("shard %d owns no keys: %v", s, counts)
		}
	}
}

// TestRingMinimalRemapping: growing the ring from N to N+1 shards must
// only move keys TO the new shard — keys that stay in the old shard set
// keep their placement — and the moved fraction stays near 1/(N+1), the
// consistent-hashing guarantee that distinguishes the ring from modulo
// hashing.
func TestRingMinimalRemapping(t *testing.T) {
	const (
		before = 7
		after  = 8
		vnodes = 128
		keys   = 16384
	)
	old := NewRing(before, vnodes)
	grown := NewRing(after, vnodes)
	moved := 0
	for i := 0; i < keys; i++ {
		k := KeyName(i)
		was, is := old.Lookup(k), grown.Lookup(k)
		if was == is {
			continue
		}
		if is != after-1 {
			t.Fatalf("key %s moved %d -> %d, but only moves to the new shard %d are allowed",
				k, was, is, after-1)
		}
		moved++
	}
	frac := float64(moved) / keys
	// Expected share is 1/8 = 12.5%; allow generous slack but catch the
	// ~87.5% a modulo scheme would reshuffle.
	if frac > 0.30 {
		t.Errorf("grown ring remapped %.1f%% of keys; want <= 30%%", 100*frac)
	}
	if moved == 0 {
		t.Error("grown ring moved no keys; the new shard would stay empty")
	}
}

// TestRingVNodeAccessors covers the trivial accessors so regressions in
// defaulting show up.
func TestRingVNodeAccessors(t *testing.T) {
	r := NewRing(3, 0) // 0 -> defaultVNodes
	if r.Shards() != 3 {
		t.Errorf("Shards() = %d, want 3", r.Shards())
	}
	if r.VNodes() != defaultVNodes {
		t.Errorf("VNodes() = %d, want default %d", r.VNodes(), defaultVNodes)
	}
	if got, want := KeyName(42), fmt.Sprintf("k%06d", 42); got != want {
		t.Errorf("KeyName(42) = %q, want %q", got, want)
	}
}

// TestHashKeyGolden pins hashKey (and with it the ring's routing) to the
// values the hash/fnv-based implementation produced on PR 12, for strings
// and byte slices alike: the load generator rebuilds the ring client-side,
// so a drifting hash would silently turn its colocated MADDs cross-shard.
func TestHashKeyGolden(t *testing.T) {
	for _, c := range []struct {
		key  string
		want uint64
	}{
		{"", 0xefd01f60ba992926},
		{"a", 0x82a2a958a9bece5b},
		{"k000000", 0x117103a2826fee0e},
		{"k000001", 0x7c367cd793a97bfc},
		{"k016383", 0xfbcbce979cec6214},
		{"k999999", 0xb2a621b29fae7662},
		{"shard-0-vnode-0", 0x1c5ddac34d0ce41d},
		{"shard-3-vnode-63", 0x51b565f82a94d0c0},
		{"nosuchkey", 0x9c72e0dedb4aa5d1},
		{"héllo wörld", 0xc9908fbae14ae724},
		{"\x00\xff", 0xacb64f88d28b68b8},
	} {
		if got := hashKey(c.key); got != c.want {
			t.Errorf("hashKey(%q) = %#x, want %#x", c.key, got, c.want)
		}
		if got := hashKey([]byte(c.key)); got != c.want {
			t.Errorf("hashKey([]byte(%q)) = %#x, want %#x", c.key, got, c.want)
		}
	}
	r := NewRing(4, 64)
	for i, want := range map[int]int{0: 3, 1: 1, 2: 1, 3: 0, 100: 0, 16383: 0} {
		if got := r.Lookup(KeyName(i)); got != want {
			t.Errorf("NewRing(4, 64).Lookup(%s) = %d, want %d", KeyName(i), got, want)
		}
	}
}

func TestRingLookupAllocs(t *testing.T) {
	r := NewRing(4, 64)
	key := KeyName(4242)
	if n := testing.AllocsPerRun(1000, func() { sinkInt = r.Lookup(key) }); n != 0 {
		t.Errorf("Ring.Lookup allocates %v times per call, want 0", n)
	}
}

var sinkInt int

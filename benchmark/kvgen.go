package main

import (
	"bytes"
	"math/rand"
	"strconv"

	"autopn/internal/server"
)

// Shape of the served key space. Of a layout's keys, all but the last
// kvClients*kvPutKeys are "hot": reached through the zipf stream by every
// client. The rest are PUT targets, split between the clients.
const (
	kvKeys    = 16384
	kvShards  = 2
	kvVNodes  = 64
	kvClients = 2
	kvWindow  = 16 // pipelined requests each client keeps in flight
	kvPutKeys = 64 // PUT targets per client; more than kvWindow, see nextPutKey
	maddKeys  = 4
	zipfS     = 1.1
)

type opKind uint8

const (
	opGet opKind = iota
	opAdd
	opPut
	opMAdd
)

// kvMix is a traffic mix in percent; what is left of 100 is MADD.
type kvMix struct{ get, add, put int }

// kvOp is one generated request: n keys (1, or maddKeys for MADD) with
// their arguments.
type kvOp struct {
	kind opKind
	n    int
	key  [maddKeys]int32
	arg  [maddKeys]uint64
}

// keyLayout is what the generator knows about the served key space: the
// seed's permutation from zipf rank to key, and which shard owns which
// key, so that MADD can pick keys of one shard.
type keyLayout struct {
	keys, hot int               // all keys; the zipf-reached prefix of them
	perm      []int32           // zipf rank -> key index, over the hot keys
	shardKeys [kvShards][]int32 // hot keys of each shard, ascending
	posIn     []int32           // index of a hot key in its shard's list
	shardOf   []uint8           // owning shard of a hot key
	initial   []uint64          // preloaded values
	names     [][7]byte         // "k%06d"
}

func newKeyLayout(seed uint64, keys int) *keyLayout {
	hot := keys - kvClients*kvPutKeys
	l := &keyLayout{
		keys: keys, hot: hot,
		posIn: make([]int32, hot), shardOf: make([]uint8, hot),
		initial: make([]uint64, keys), names: make([][7]byte, keys),
	}
	ring := server.NewRing(kvShards, kvVNodes)
	for i := 0; i < keys; i++ {
		copy(l.names[i][:], server.KeyName(i))
		l.initial[i] = 1000 + mix(seed, uint64(i))%1_000_000
	}
	for i := 0; i < hot; i++ {
		s := ring.Lookup(server.KeyName(i))
		l.shardOf[i] = uint8(s)
		l.posIn[i] = int32(len(l.shardKeys[s]))
		l.shardKeys[s] = append(l.shardKeys[s], int32(i))
	}
	r := rand.New(rand.NewSource(int64(mix(seed, 0x6b6579))))
	l.perm = make([]int32, hot)
	for i, p := range r.Perm(hot) {
		l.perm[i] = int32(p)
	}
	return l
}

// putKeys is the range of client's own PUT targets.
func (l *keyLayout) putKeys(client int) (lo, hi int) {
	lo = l.hot + client*kvPutKeys
	return lo, lo + kvPutKeys
}

// kvGen is one client's seeded request stream. It allocates nothing per
// request.
type kvGen struct {
	layout *keyLayout
	client int
	mix    kvMix
	rng    *rand.Rand
	zipf   *rand.Zipf
	puts   uint64
}

func newKVGen(layout *keyLayout, seed uint64, client int, m kvMix) *kvGen {
	rng := rand.New(rand.NewSource(int64(mix(seed, uint64(client)+1))))
	return &kvGen{
		layout: layout, client: client, mix: m, rng: rng,
		zipf: rand.NewZipf(rng, zipfS, 1, uint64(layout.hot-1)),
	}
}

func (g *kvGen) hotKey() int32 { return g.layout.perm[g.zipf.Uint64()] }

// nextPutKey walks the client's own PUT targets round-robin. Two PUTs to
// one key are therefore kvPutKeys PUTs apart, never both in flight within
// a window of kvWindow, so the last acknowledged value of every key is
// known even though a shard's workers may run one connection's requests
// out of order.
func (g *kvGen) nextPutKey() int32 {
	lo, _ := g.layout.putKeys(g.client)
	g.puts++
	return int32(lo + int((g.puts-1)%kvPutKeys))
}

func (g *kvGen) next(op *kvOp) {
	u := g.rng.Intn(100)
	op.n = 1
	switch {
	case u < g.mix.get:
		op.kind, op.key[0] = opGet, g.hotKey()
	case u < g.mix.get+g.mix.add:
		op.kind, op.key[0], op.arg[0] = opAdd, g.hotKey(), uint64(1+g.rng.Intn(1000))
	case u < g.mix.get+g.mix.add+g.mix.put:
		op.kind, op.key[0] = opPut, g.nextPutKey()
		op.arg[0] = g.puts<<1 | uint64(g.client) // distinct per PUT, never 0
	default:
		// Four distinct keys of one shard: the zipf key and its next
		// neighbours in the shard's key list.
		op.kind, op.n = opMAdd, maddKeys
		k := g.hotKey()
		list := g.layout.shardKeys[g.layout.shardOf[k]]
		pos := int(g.layout.posIn[k])
		for j := 0; j < maddKeys; j++ {
			op.key[j] = list[(pos+j)%len(list)]
			op.arg[j] = uint64(1 + g.rng.Intn(1000))
		}
	}
}

var opVerbs = [...]string{opGet: "GET ", opAdd: "ADD ", opPut: "PUT ", opMAdd: "MADD "}

// appendRequest encodes op as one protocol line. With hint != 0 the line
// carries the protocol's trace hint t=<hex id>@<unix nanos>.
func (l *keyLayout) appendRequest(b []byte, op *kvOp, hint uint64, sendUnixNs int64) []byte {
	if hint != 0 {
		b = append(b, "t="...)
		b = strconv.AppendUint(b, hint, 16)
		b = append(b, '@')
		b = strconv.AppendInt(b, sendUnixNs, 10)
		b = append(b, ' ')
	}
	b = append(b, opVerbs[op.kind]...)
	for j := 0; j < op.n; j++ {
		if j > 0 {
			b = append(b, ' ')
		}
		b = append(b, l.names[op.key[j]][:]...)
		if op.kind != opGet {
			b = append(b, ' ')
			b = strconv.AppendUint(b, op.arg[j], 10)
		}
	}
	return append(b, '\n')
}

type replyKind uint8

const (
	replyOK replyKind = iota
	replyValue
	replyErr
	replyBad // not a line of the protocol
)

var (
	valuePrefix = []byte("VALUE ")
	errPrefix   = []byte("ERR ")
)

// parseReply decodes one reply line (without its newline).
func parseReply(line []byte) (replyKind, uint64) {
	switch {
	case bytes.HasPrefix(line, valuePrefix):
		var v uint64
		digits := line[len(valuePrefix):]
		if len(digits) == 0 || len(digits) > 20 {
			return replyBad, 0
		}
		for _, c := range digits {
			if c < '0' || c > '9' {
				return replyBad, 0
			}
			v = v*10 + uint64(c-'0')
		}
		return replyValue, v
	case string(line) == "OK":
		return replyOK, 0
	case bytes.HasPrefix(line, errPrefix):
		return replyErr, 0
	}
	return replyBad, 0
}

// mix derives an independent sub-seed from seed a and stream b (the
// splitmix64 finalizer).
func mix(a, b uint64) uint64 {
	x := a + 0x9e3779b97f4a7c15*(b+1)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

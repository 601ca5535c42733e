package server

import (
	"bytes"
	"context"
	"math"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
	"unicode"
	"unicode/utf8"

	"autopn/internal/stm"
	"autopn/internal/wal"
)

// The wire protocol is newline-delimited text, one request per line, one
// response line per request, answered in order (clients may pipeline):
//
//	PING                        -> PONG
//	GET <key>                   -> VALUE <n>
//	PUT <key> <n>               -> OK
//	ADD <key> <delta>           -> VALUE <new>
//	MADD <k1> <d1> [<k2> <d2>]… -> OK        (all keys on one shard; the
//	                                          increments run as parallel
//	                                          nested transactions)
//
// A request line may carry an optional leading trace hint
//
//	t=<hex-id>[@<unix-nanos>] <request…>
//
// which, while server-side tracing is enabled, forces the request to be
// sampled and records the client's own ID (and send timestamp, if given)
// in its trace — the hook the load generator uses to extend a traced
// request's timeline back to the worker that issued it. With tracing
// disabled the hint is parsed and discarded.
//
// Errors are "ERR <code>" with machine-readable codes; ErrCodeOverload is
// the typed load-shedding reply the acceptance gate asserts on.
const (
	// ErrCodeOverload is replied when the target shard's admission queue is
	// full: the request was shed, not queued.
	ErrCodeOverload = "overload"
	// ErrCodeBreakerOpen is replied while the target shard's circuit
	// breaker is open (or its half-open probe quota is taken).
	ErrCodeBreakerOpen = "breaker-open"
	// ErrCodeTimeout is replied when a queued request expired before a
	// worker finished it.
	ErrCodeTimeout = "timeout"
	// ErrCodeShutdown is replied to requests arriving while the server
	// drains.
	ErrCodeShutdown = "shutdown"
	// ErrCodeUnknownKey is replied for keys outside the preloaded space.
	ErrCodeUnknownKey = "unknown-key"
	// ErrCodeCrossShard is replied to an MADD whose keys hash to more than
	// one shard (cross-shard transactions are not supported).
	ErrCodeCrossShard = "cross-shard"
	// ErrCodeBadRequest is replied to unparseable lines.
	ErrCodeBadRequest = "bad-request"
	// ErrCodeWAL is replied when the shard's write-ahead log failed to
	// make a committed update durable: the transaction committed in
	// memory, but the ack contract (acked writes survive a crash) could
	// not be honored. WAL errors are sticky — every subsequent update on
	// the shard gets this reply and feeds the breaker until restart.
	ErrCodeWAL = "wal"
)

// opKind is the parsed operation.
type opKind uint8

const (
	opPing opKind = iota
	opGet
	opPut
	opAdd
	opMAdd
)

var opNames = [...]string{"PING", "GET", "PUT", "ADD", "MADD"}

func (k opKind) String() string { return opNames[k] }

// request is one parsed, routed protocol request flowing through a shard's
// admission queue. Requests are pooled (reqPool) and cross parse -> route ->
// admit -> exec -> reply without allocating; docs/SERVER.md ("Request
// lifecycle & memory discipline") states the ownership rules. reply has
// capacity 1 and receives exactly one response per life; state arbitrates
// between the worker, the deadline timer and the shedding paths so that
// exactly one of them answers.
type request struct {
	kind opKind
	keys [][]byte // the line's keys (several only for MADD); alias buf
	args []uint64 // PUT value, ADD / MADD deltas, parallel to keys
	buf  []byte   // request-owned copy of the key bytes

	// Exec-side state: the keys' boxes, the post-state each write left (and
	// a GET's result) and the WAL entries built from it. run is the
	// transaction body, bound once per pooled object as runFn; slotFns are
	// MADD's children, one closure per key slot, made once.
	sh      *shard
	boxes   []*stm.VBox[uint64]
	vals    []uint64
	entries []wal.Entry
	slotFns []func(*stm.Tx) error
	runFn   func(*stm.Tx) error

	enq      int64       // admission time on the monoNow clock
	deadline deadlineCtx // enq + timeout; 0 until admitted
	timer    *time.Timer // deadline watchdog, created once, Reset per admission
	reply    chan reply

	// state is generation<<1 | replied. Owners (who hold a reference) only
	// ever see the current generation; the deadline timer holds none, so a
	// fire left over from an earlier life must fail its CAS (see onExpiry).
	state atomic.Uint64
	// refs counts the owners: the connection side (reader, then writer)
	// from get, the exec side (queue slot, then worker) from admission, and
	// the WAL writer while it copies entries. The last release recycles.
	refs atomic.Int32
	pool *reqPool

	// tr is the request's trace record; nil for the unsampled majority. It
	// shares the request's lifetime and returns to its pool with it.
	tr *reqTrace
	// clientTraceID/clientSend carry a parsed trace hint until the
	// sampling decision is made (reader goroutine only).
	clientTraceID uint64
	clientSend    time.Time
}

const stateReplied = 1

// clockBase anchors monoNow, the monotonic nanosecond clock request
// deadlines are kept on.
var clockBase = time.Now()

func monoNow() int64 { return int64(time.Since(clockBase)) }

// deadlineCtx is the context update transactions run under: it expires
// when monoNow passes at, and does nothing else. Done returns nil — the STM
// and the scheduler only poll Err at retry boundaries, and the reply-side
// deadline is the request's timer, so nothing ever waits on it.
type deadlineCtx struct{ at atomic.Int64 }

func (c *deadlineCtx) Deadline() (time.Time, bool) {
	return clockBase.Add(time.Duration(c.at.Load())), true
}
func (c *deadlineCtx) Done() <-chan struct{} { return nil }
func (c *deadlineCtx) Value(any) any         { return nil }
func (c *deadlineCtx) Err() error {
	if monoNow() < c.at.Load() {
		return nil
	}
	return context.DeadlineExceeded
}

// reqPool recycles requests; outstanding counts those handed out and not
// yet recycled (zero once every connection and worker has let go).
type reqPool struct {
	pool        sync.Pool
	outstanding atomic.Int64
}

func (p *reqPool) get() *request {
	r, _ := p.pool.Get().(*request)
	if r == nil {
		r = &request{reply: make(chan reply, 1), pool: p}
		r.runFn = r.run
		r.timer = time.AfterFunc(time.Hour, r.onExpiry)
		r.timer.Stop()
	}
	p.outstanding.Add(1)
	r.refs.Store(1)
	return r
}

// release drops one ownership reference; the last owner recycles the
// request into its next generation.
func (r *request) release() {
	if r.refs.Add(-1) != 0 {
		return
	}
	if r.tr != nil {
		r.tr.tr.pool.Put(r.tr)
		r.tr = nil
	}
	r.deadline.at.Store(0)
	r.state.Store((r.state.Load() | stateReplied) + 1)
	r.pool.outstanding.Add(-1)
	r.pool.pool.Put(r)
}

// finish delivers rep as the request's single reply. It returns false
// when someone (the deadline timer, a shedding path) already replied.
func (r *request) finish(rep reply) bool {
	s := r.state.Load()
	if s&stateReplied != 0 || !r.state.CompareAndSwap(s, s|stateReplied) {
		return false
	}
	if r.deadline.at.Load() != 0 {
		r.timer.Stop()
	}
	r.reply <- rep
	return true
}

func (r *request) replied() bool { return r.state.Load()&stateReplied != 0 }

// onExpiry is the timer's function: if no worker finished the request in
// time (wedged shard, long queue) it answers with a typed timeout, feeds
// the breaker a failure and leaves a dead letter. A Stop that lost the race
// with the runtime lets a fire outlive its life, so every read before the
// CAS is atomic and the CAS only succeeds on an unanswered request whose
// own deadline has passed — for a recycled request that is a genuine
// timeout of the new life, never an early one.
func (r *request) onExpiry() {
	s := r.state.Load()
	d := r.deadline.at.Load()
	if s&stateReplied != 0 || d == 0 || monoNow() < d || !r.state.CompareAndSwap(s, s|stateReplied) {
		return
	}
	// Winning the CAS pins this life: the connection side holds its
	// reference until the reply below arrives.
	r.sh.timedOut(r)
	r.reply <- errReply(ErrCodeTimeout)
}

// run is the transaction body. A write records its key's post-state in
// the key's slot of vals (last attempt wins) so the committed image can be
// logged. The multi-key increment runs its per-key updates as parallel
// nested transactions: this is the request shape that gives the shard's
// tuner a real intra-transaction parallelism (c) knob to tune, not just
// top-level concurrency (t).
func (r *request) run(tx *stm.Tx) error {
	switch r.kind {
	case opGet:
		r.vals[0] = r.boxes[0].Get(tx)
	case opPut:
		r.vals[0] = r.args[0]
		r.boxes[0].Set(tx, r.args[0])
	case opAdd:
		r.addSlot(tx, 0)
	case opMAdd:
		for i := len(r.slotFns); i < len(r.boxes); i++ {
			r.slotFns = append(r.slotFns, func(child *stm.Tx) error { r.addSlot(child, i); return nil })
		}
		return tx.Parallel(r.slotFns[:len(r.boxes)]...)
	}
	return nil
}

func (r *request) addSlot(tx *stm.Tx, i int) {
	r.vals[i] = r.boxes[i].Get(tx) + r.args[i]
	r.boxes[i].Set(tx, r.vals[i])
}

// asciiSpace is unicode.IsSpace below utf8.RuneSelf.
var asciiSpace = [256]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// nextField splits the first whitespace-delimited field off b
// (strings.Fields' notion of whitespace).
func nextField(b []byte) (field, rest []byte) {
	i := 0
	for i < len(b) && asciiSpace[b[i]] {
		i++
	}
	j := i
	for ; j < len(b) && !asciiSpace[b[j]]; j++ {
		if b[j] >= utf8.RuneSelf { // rare: let the bytes package decode the runes
			b = bytes.TrimLeftFunc(b[i:], unicode.IsSpace)
			if j = bytes.IndexFunc(b, unicode.IsSpace); j < 0 {
				j = len(b)
			}
			return b[:j], b[j:]
		}
	}
	return b[i:j], b[j:]
}

// parseUint is strconv.ParseUint(b, 10, 64) without the string.
func parseUint[T string | []byte](b T) (uint64, bool) {
	var n uint64
	for i := 0; i < len(b); i++ {
		d := uint64(b[i] - '0')
		if d > 9 || n > (math.MaxUint64-d)/10 {
			return 0, false
		}
		n = n*10 + d
	}
	return n, len(b) > 0
}

// parseVerb maps a verb field to its opKind, case-insensitively.
func parseVerb(f []byte) (opKind, bool) {
	for k, name := range opNames {
		if bytes.EqualFold(f, []byte(name)) {
			return opKind(k), true
		}
	}
	return 0, false
}

// ownKey copies k into the request's key buffer, which the caller sized so
// that the append cannot move it, and returns the copy.
func (r *request) ownKey(k []byte) []byte {
	n := len(r.buf)
	r.buf = append(r.buf, k...)
	return r.buf[n:len(r.buf):len(r.buf)]
}

// parseRequest parses one protocol line into r, scanning the reader's
// buffer in place and copying only the keys. On failure it returns a
// non-empty error code and r is unspecified.
func parseRequest(line []byte, r *request) string {
	r.clientTraceID, r.clientSend = 0, time.Time{}
	verb, rest := nextField(line)
	if bytes.HasPrefix(verb, []byte("t=")) {
		idPart, nsPart, hasNS := bytes.Cut(verb[2:], []byte("@"))
		id, err := strconv.ParseUint(string(idPart), 16, 64)
		if err != nil || id == 0 {
			return ErrCodeBadRequest
		}
		r.clientTraceID = id
		if hasNS {
			ns, err := strconv.ParseInt(string(nsPart), 10, 64)
			if err != nil {
				return ErrCodeBadRequest
			}
			r.clientSend = time.Unix(0, ns)
		}
		verb, rest = nextField(rest)
	}
	kind, ok := parseVerb(verb)
	if !ok {
		return ErrCodeBadRequest
	}
	r.kind, r.buf, r.keys, r.args = kind, r.buf[:0], r.keys[:0], r.args[:0]
	if kind == opPing {
		return "" // trailing fields are ignored
	}
	if cap(r.buf) < len(rest) {
		r.buf = make([]byte, 0, len(rest))
	}
	for f, rest := nextField(rest); len(f) > 0; f, rest = nextField(rest) {
		if len(r.keys) == len(r.args) {
			r.keys = append(r.keys, r.ownKey(f))
			continue
		}
		n, ok := parseUint(f)
		if !ok {
			return ErrCodeBadRequest
		}
		r.args = append(r.args, n)
	}
	// Arity: the fields after the verb alternate key, number.
	switch nk, na := len(r.keys), len(r.args); kind {
	case opGet:
		ok = nk == 1 && na == 0
	case opPut, opAdd:
		ok = nk == 1 && na == 1
	case opMAdd:
		ok = nk >= 1 && na == nk
	}
	if !ok {
		return ErrCodeBadRequest
	}
	return ""
}

// reply is a request's response as a small value, so producing one never
// allocates; the connection writer encodes it with appendTo.
type reply struct {
	word string // "OK", "PONG", "VALUE" or "ERR"
	val  uint64 // follows VALUE
	code string // follows ERR: one of the ErrCode constants
}

var replyOK, replyPong = reply{word: "OK"}, reply{word: "PONG"}

func valueReply(n uint64) reply  { return reply{word: "VALUE", val: n} }
func errReply(code string) reply { return reply{word: "ERR", code: code} }

// appendTo appends the reply's wire line to b.
func (r reply) appendTo(b []byte) []byte {
	b = append(b, r.word...)
	switch r.word {
	case "VALUE":
		b = strconv.AppendUint(append(b, ' '), r.val, 10)
	case "ERR":
		b = append(append(b, ' '), r.code...)
	}
	return append(b, '\n')
}

// outcome is the reply as a trace outcome: "ok" or the ERR code.
func (r reply) outcome() string {
	if r.word == "ERR" {
		return r.code
	}
	return "ok"
}

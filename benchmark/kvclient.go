package main

import (
	"bufio"
	"fmt"
	"net"
	"time"
)

// pendOp is a request in flight: what was asked and when.
type pendOp struct {
	op      kvOp
	id      uint64 // operation id, shared by the op's spans and its trace hint
	startNs int64  // before encoding
	sentNs  int64  // after the flush that carried it
}

// kvClient is one closed-loop client: one connection that keeps kvWindow
// requests in flight and sends the next only when a reply frees a slot. It
// encodes and parses without allocating, so the run's allocation counts
// are the program's.
type kvClient struct {
	id     int
	conn   net.Conn
	br     *bufio.Reader
	wbuf   []byte
	gen    *kvGen
	layout *keyLayout
	base   time.Time // shared clock origin of all clients and spans

	pend       [kvWindow]pendOp
	head, live int
	seq        uint64

	// The client's model of what it changed: per key, the sum of
	// acknowledged ADD/MADD deltas and the last acknowledged PUT value.
	added   []uint64
	putLast []uint64
	// Acknowledged write requests and the key mutations they logged.
	writes, entries uint64

	rec *spanTrack // nil unless tracing
	// kept holds the client-side times of traced operations, by id, until
	// the join with the server's own marks puts both in the trace file.
	kept map[uint64]keptOp
}

type keptOp struct{ startNs, sentNs, replyNs int64 }

func dialKV(addr string, id int, layout *keyLayout, gen *kvGen, base time.Time) (*kvClient, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("client %d: %w", id, err)
	}
	return &kvClient{
		id: id, conn: conn, br: bufio.NewReaderSize(conn, 16<<10),
		wbuf: make([]byte, 0, 4<<10), gen: gen, layout: layout, base: base,
		added: make([]uint64, layout.keys), putLast: make([]uint64, layout.keys),
	}, nil
}

func (c *kvClient) now() int64 { return int64(time.Since(c.base)) }

// run performs n operations from the client's stream and appends the
// latency of each answered one to lat.
func (c *kvClient) run(n int, lat []int64) ([]int64, int, error) {
	return c.drive(n, lat, c.gen.next, c.apply)
}

// drive is the closed loop: fill the window, flush, read every reply that
// has arrived (at least one), repeat. next produces the operations; reply
// reports whether a reply acknowledges its operation.
func (c *kvClient) drive(n int, lat []int64, next func(*kvOp), reply func(*kvOp, replyKind, uint64) bool) ([]int64, int, error) {
	sent, failed := 0, 0
	baseUnix := c.base.UnixNano()
	for sent < n || c.live > 0 {
		c.wbuf = c.wbuf[:0]
		first := c.live
		for c.live < kvWindow && sent < n {
			p := &c.pend[(c.head+c.live)%kvWindow]
			next(&p.op)
			c.seq++
			p.id = uint64(c.id+1)<<48 | c.seq
			p.startNs = c.now()
			hint := uint64(0)
			if c.rec != nil {
				hint = p.id
			}
			c.wbuf = c.layout.appendRequest(c.wbuf, &p.op, hint, baseUnix+p.startNs)
			c.live++
			sent++
		}
		if len(c.wbuf) > 0 {
			if _, err := c.conn.Write(c.wbuf); err != nil {
				return lat, failed, fmt.Errorf("client %d: write: %w", c.id, err)
			}
			now := c.now()
			for i := first; i < c.live; i++ {
				c.pend[(c.head+i)%kvWindow].sentNs = now
			}
		}
		for more := true; more; more = c.live > 0 && c.br.Buffered() > 0 {
			line, err := c.br.ReadSlice('\n')
			if err != nil {
				return lat, failed, fmt.Errorf("client %d: read: %w", c.id, err)
			}
			now := c.now()
			p := &c.pend[c.head]
			c.head = (c.head + 1) % kvWindow
			c.live--
			kind, v := parseReply(line[:len(line)-1])
			if !reply(&p.op, kind, v) {
				if kind != replyErr {
					return lat, failed, fmt.Errorf("client %d: reply %q to a %s", c.id, line, opVerbs[p.op.kind])
				}
				failed++
				continue
			}
			lat = append(lat, now-p.startNs)
			if c.rec != nil {
				c.rec.tally(spOp, now-p.startNs)
				c.rec.tally(spClientSend, p.sentNs-p.startNs)
				c.rec.tally(spClientWait, now-p.sentNs)
				// Only the tail of a slice can be joined: the server's
				// trace ring holds its latest traceRing requests.
				tail := n-sent+c.live < traceRing/kvClients
				if tail && (len(c.kept)+1)*spansPerOp <= c.rec.free() {
					c.kept[p.id] = keptOp{p.startNs, p.sentNs, now}
				}
			}
		}
	}
	return lat, failed, nil
}

// apply folds an acknowledged operation into the client's model. It
// reports false when the reply is not the acknowledgement the operation's
// kind calls for.
func (c *kvClient) apply(op *kvOp, kind replyKind, _ uint64) bool {
	switch op.kind {
	case opGet:
		return kind == replyValue
	case opAdd:
		if kind != replyValue {
			return false
		}
		c.added[op.key[0]] += op.arg[0]
	case opPut:
		if kind != replyOK {
			return false
		}
		c.putLast[op.key[0]] = op.arg[0]
	case opMAdd:
		if kind != replyOK {
			return false
		}
		for j := 0; j < op.n; j++ {
			c.added[op.key[j]] += op.arg[j]
		}
	}
	c.writes++
	c.entries += uint64(op.n)
	return true
}

func (c *kvClient) close() error { return c.conn.Close() }

// keyRange sends one request of the given kind for every key in [lo, hi)
// through the closed loop: the preload (PUT of the initial value) and the
// final sweep (GET into vals) are both this.
func (c *kvClient) keyRange(lo, hi int, kind opKind, vals []uint64) error {
	k := lo
	next := func(op *kvOp) {
		*op = kvOp{kind: kind, n: 1}
		op.key[0] = int32(k)
		op.arg[0] = c.layout.initial[k]
		k++
	}
	reply := c.apply
	if kind == opGet {
		reply = func(op *kvOp, rk replyKind, v uint64) bool {
			vals[op.key[0]] = v
			return rk == replyValue
		}
	}
	_, failed, err := c.drive(hi-lo, nil, next, reply)
	if err == nil && failed > 0 {
		err = fmt.Errorf("client %d: %d of %d %srequests failed", c.id, failed, hi-lo, opVerbs[kind])
	}
	return err
}

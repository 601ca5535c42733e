package server

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"autopn/internal/chaos"
	"autopn/internal/stm"
)

// TestRequestPathAllocs gates the whole served path — read, parse, route,
// admit, execute, reply, flush — at (nearly) no heap allocation per request:
// one pipelined loopback connection driven by a client that itself does not
// allocate, and the process-wide malloc count around it. The bounds are the
// issue's (a warm run measures under 0.01) and leave room for the runtime's
// own background allocations. Skipped under the race detector, whose
// sync.Pool deliberately drops a quarter of its Puts.
func TestRequestPathAllocs(t *testing.T) {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, kv := range bi.Settings {
			if kv.Key == "-race" && kv.Value == "true" {
				t.Skip("sync.Pool drops items under the race detector")
			}
		}
	}
	s := startTestServer(t, Options{Shards: 2, Keys: 1024, DisableTuner: true})
	c, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()

	const depth, rounds = 16, 1500
	for _, tc := range []struct {
		op    string
		bound float64
	}{{"GET %s\n", 1}, {"ADD %s 3\n", 2}} {
		var burst []byte
		for i := 0; i < depth; i++ {
			burst = append(burst, strings.Replace(tc.op, "%s", KeyName(i*37), 1)...)
		}
		in := make([]byte, 4096)
		// run sends rounds bursts of depth pipelined requests, each after
		// the previous burst's replies, and counts reply lines.
		run := func(rounds int) {
			for r := 0; r < rounds; r++ {
				if _, err := c.Write(burst); err != nil {
					t.Fatal(err)
				}
				for lines := 0; lines < depth; {
					n, err := c.Read(in)
					if err != nil {
						t.Fatal(err)
					}
					lines += bytes.Count(in[:n], []byte("\n"))
				}
			}
		}
		run(200) // warm-up: pools, buffers, the STM's free lists
		var m0, m1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m0)
		run(rounds)
		runtime.ReadMemStats(&m1)
		perOp := float64(m1.Mallocs-m0.Mallocs) / (depth * rounds)
		t.Logf(tc.op[:3]+": %.4f mallocs per request", perOp)
		if perOp > tc.bound {
			t.Errorf(tc.op[:3]+": %.3f mallocs per request, want <= %v", perOp, tc.bound)
		}
	}
	if st := s.Status(); st.Served < 2*depth*rounds || st.Shed+st.Timeouts != 0 {
		t.Errorf("served %d shed %d timeouts %d, want every request served", st.Served, st.Shed, st.Timeouts)
	}
}

// TestOverlongLineAnswered: a line past the 64 KiB cap used to end the
// connection with a bare EOF; it now draws ERR bad-request, after the
// replies already owed, and then the close.
func TestOverlongLineAnswered(t *testing.T) {
	s := startTestServer(t, Options{Shards: 1, Keys: 64, DisableTuner: true})
	tc := dialServer(t, s)
	if got := tc.roundTrip("PUT " + KeyName(1) + " 5"); got != "OK" {
		t.Fatalf("PUT -> %q", got)
	}
	tc.send("GET " + KeyName(1))
	long := "GET " + strings.Repeat("x", 3*maxLine)
	go func() { _, _ = io.WriteString(tc.c, long+"\nPING\n") }() // the server stops reading midway
	for _, want := range []string{"VALUE 5", "ERR " + ErrCodeBadRequest} {
		if got := tc.recv(); got != want {
			t.Fatalf("reply %q, want %q", got, want)
		}
	}
	_ = tc.c.SetReadDeadline(time.Now().Add(5 * time.Second))
	if tc.sc.Scan() {
		t.Errorf("reply %q after the over-long line, want the connection closed", tc.sc.Text())
	}
	// A line of exactly the cap, newline included, is still served.
	tc = dialServer(t, s)
	if got := tc.roundTrip("GET " + strings.Repeat("x", maxLine-len("GET \n"))); got != "ERR "+ErrCodeUnknownKey {
		t.Errorf("cap-sized line -> %q, want ERR %s", got, ErrCodeUnknownKey)
	}
}

// TestRequestRecyclingStress hammers the pooled request's ownership
// protocol where it is most exposed: a 2 ms deadline against a commit point
// that stalls for longer (so the timer answers, the worker finishes late
// and the request is recycled under both), a one-slot queue (so most
// arrivals are shed), garbage lines in between, and a Shutdown in the
// middle. Every connection owns its keys and every key's values live in
// their own range, so a reply that leaked out of a recycled request — the
// wrong kind, or another key's value — cannot pass for the right one.
func TestRequestRecyclingStress(t *testing.T) {
	inj := chaos.New(chaos.Options{Rules: []chaos.Rule{{
		Name:    "stall",
		Point:   chaos.PointCommit,
		Action:  chaos.ActStall,
		Trigger: chaos.Trigger{EveryN: 25},
	}}})
	defer inj.Close()
	const (
		conns   = 8
		keys    = 256
		window  = 32
		keyBase = 1_000_000
	)
	s := startTestServer(t, Options{
		Shards: 2, Keys: keys, QueueDepth: 1, WorkersPerShard: 2, DisableTuner: true,
		RequestTimeout: 2 * time.Millisecond,
		Breaker:        BreakerOptions{FailureThreshold: 1 << 30},
		Injector: func(shard int) *chaos.Injector {
			if shard == 0 {
				return inj
			}
			return nil
		},
	})
	base := func(k int) uint64 { return uint64(k+1) * keyBase }
	box := func(k int) *stm.VBox[uint64] {
		name := KeyName(k)
		return s.shards[s.ring.Lookup(name)].store[name]
	}
	// Release every stall a little after the deadline it provokes.
	stopResumer := make(chan struct{})
	defer close(stopResumer)
	go func() {
		for {
			select {
			case <-stopResumer:
				return
			case <-time.After(time.Millisecond):
			}
			if inj.StallDepth("stall") > 0 {
				time.Sleep(3 * time.Millisecond)
				inj.Resume("stall")
			}
		}
	}()

	for k := 0; k < keys; k++ {
		sh := s.shards[s.ring.Lookup(KeyName(k))]
		if err := sh.stm.Atomic(func(tx *stm.Tx) error { box(k).Set(tx, base(k)); return nil }); err != nil {
			t.Fatal(err)
		}
	}

	type expect struct {
		op   opKind
		k    int  // key index (first key of an MADD)
		k2   int  // second MADD key
		junk bool // a garbage line
	}
	var (
		sent, confirmed      [keys]atomic.Int64 // increments sent / acknowledged, per key
		okReplies, timeouts  atomic.Int64
		overloads, shutdowns atomic.Int64
		wg                   sync.WaitGroup
	)
	for c := 0; c < conns; c++ {
		conn, err := net.Dial("tcp", s.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = conn.Close() }()
		// The connection's keys, grouped by shard for MADD pairs.
		var mine [2][]int
		for k := c; k < keys; k += conns {
			sh := s.ring.Lookup(KeyName(k))
			mine[sh] = append(mine[sh], k)
		}
		expected := make(chan expect, window) // also the pipelining window
		var stop atomic.Bool
		wg.Add(2)
		go func() { // writer
			defer wg.Done()
			defer close(expected)
			rng := rand.New(rand.NewSource(int64(c) + 1))
			for i := 0; i < 200_000 && !stop.Load(); i++ {
				group := mine[rng.Intn(2)]
				e := expect{k: group[rng.Intn(len(group))], k2: group[rng.Intn(len(group))]}
				var line string
				switch p := rng.Intn(100); {
				case p < 40:
					e.op, line = opGet, "GET "+KeyName(e.k)
				case p < 70:
					e.op, line = opAdd, "add "+KeyName(e.k)+" 1"
					sent[e.k].Add(1)
				case p < 85:
					e.op, line = opMAdd, fmt.Sprintf("MADD %s 1 %s 1", KeyName(e.k), KeyName(e.k2))
					sent[e.k].Add(1)
					sent[e.k2].Add(1)
				case p < 95:
					e.junk = true
					line = []string{"", "FROB", "GET", "ADD " + KeyName(e.k) + " x", "t=0 PING", "MADD " + KeyName(e.k)}[rng.Intn(6)]
				default:
					e.op, line = opPing, "PING"
				}
				expected <- e
				if _, err := io.WriteString(conn, line+"\n"); err != nil {
					t.Errorf("conn %d: write: %v", c, err)
					return
				}
			}
			_ = conn.(*net.TCPConn).CloseWrite()
		}()
		go func() { // reader
			defer wg.Done()
			seen := map[uint64]bool{} // ADD results; unit increments never repeat a value
			sc := bufio.NewScanner(conn)
			n := 0
			for e := range expected {
				_ = conn.SetReadDeadline(time.Now().Add(10 * time.Second))
				if !sc.Scan() {
					stop.Store(true)
					for range expected { // unblock the writer
					}
					t.Errorf("conn %d: connection ended after %d replies with requests unanswered: %v", c, n, sc.Err())
					return
				}
				n++
				got := sc.Text()
				bad := func() { t.Errorf("conn %d reply %d: %+v answered %q", c, n, e, got) }
				switch {
				case e.junk:
					if got != "ERR "+ErrCodeBadRequest {
						bad()
					}
				case e.op == opPing:
					if got != "PONG" {
						bad()
					}
				case got == "ERR "+ErrCodeTimeout:
					timeouts.Add(1)
				case got == "ERR "+ErrCodeOverload:
					overloads.Add(1)
				case got == "ERR "+ErrCodeShutdown:
					shutdowns.Add(1)
					stop.Store(true)
				case e.op == opMAdd:
					if got != "OK" {
						bad()
					}
					okReplies.Add(1)
					confirmed[e.k].Add(1)
					confirmed[e.k2].Add(1)
				default: // GET, ADD
					v, err := strconv.ParseUint(strings.TrimPrefix(got, "VALUE "), 10, 64)
					lo, hi := base(e.k), base(e.k)+uint64(sent[e.k].Load())
					if e.op == opAdd {
						lo++
						confirmed[e.k].Add(1)
						if seen[v] {
							t.Errorf("conn %d reply %d: ADD result %d seen twice", c, n, v)
						}
						seen[v] = true
					}
					if !strings.HasPrefix(got, "VALUE ") || err != nil || v < lo || v > hi {
						t.Errorf("conn %d reply %d: %+v answered %q, want a VALUE in [%d, %d]", c, n, e, got, lo, hi)
					}
					okReplies.Add(1)
				}
			}
			if sc.Scan() {
				t.Errorf("conn %d: extra reply %q", c, sc.Text())
			}
		}()
	}

	time.Sleep(150 * time.Millisecond)
	rep := s.Shutdown(5 * time.Second)
	wg.Wait()
	inj.Close()
	waitFor(t, 5*time.Second, func() bool { return s.reqs.outstanding.Load() == 0 })

	var accepted, served, timedOut, shed, late uint64
	for _, sh := range s.shards {
		accepted += sh.accepted.Load()
		served += sh.served.Load()
		timedOut += sh.timeouts.Load()
		shed += sh.shed.Load()
		late += sh.lateOK.Load()
	}
	t.Logf("accepted %d served %d timeouts %d (late ok %d) shed %d; shutdown replies %d, report %+v",
		accepted, served, timedOut, late, shed, shutdowns.Load(), rep)
	if served != uint64(okReplies.Load()) || timedOut != uint64(timeouts.Load()) || shed != uint64(overloads.Load()) {
		t.Errorf("counters served/timeouts/shed = %d/%d/%d, clients saw %d/%d/%d",
			served, timedOut, shed, okReplies.Load(), timeouts.Load(), overloads.Load())
	}
	// Every admitted request was served, timed out (a late success is one
	// of those) or was drained by the shutdown.
	if rest := accepted - served - timedOut; accepted < served+timedOut || rest > uint64(rep.ShedAtShutdown) {
		t.Errorf("accepted %d != served %d + timeouts %d + at most %d drained at shutdown", accepted, served, timedOut, rep.ShedAtShutdown)
	}
	if late > timedOut {
		t.Errorf("late successes %d exceed timeouts %d", late, timedOut)
	}
	if timedOut == 0 || late == 0 || shed == 0 || shutdowns.Load() == 0 {
		t.Errorf("the stress did not reach every path: timeouts %d late %d shed %d shutdown replies %d", timedOut, late, shed, shutdowns.Load())
	}
	for k := 0; k < keys; k++ {
		var v uint64
		sh := s.shards[s.ring.Lookup(KeyName(k))]
		_ = sh.stm.AtomicReadOnly(func(tx *stm.Tx) error { v = box(k).Get(tx); return nil })
		if lo, hi := base(k)+uint64(confirmed[k].Load()), base(k)+uint64(sent[k].Load()); v < lo || v > hi {
			t.Errorf("%s = %d, want within [%d, %d] (acknowledged .. sent increments)", KeyName(k), v, lo, hi)
		}
	}
}

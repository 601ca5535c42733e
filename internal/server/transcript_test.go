package server

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"autopn/internal/chaos"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/wire_transcript.golden from this build's replies")

// transcript records request lines and the replies they drew, one
// "> request" / "< reply" pair per exchange.
type transcript struct {
	t   *testing.T
	out bytes.Buffer
}

func (tr *transcript) section(name string) { fmt.Fprintf(&tr.out, "# %s\n", name) }

// exchange sends the lines one round trip at a time (a shard's workers may
// execute pipelined requests in any order) and records each reply.
func (tr *transcript) exchange(tc *testClient, lines ...string) {
	tr.t.Helper()
	for _, l := range lines {
		tc.send(l)
		tr.collect(tc, l)
	}
}

// collect records the replies to lines already sent.
func (tr *transcript) collect(tc *testClient, lines ...string) {
	tr.t.Helper()
	for _, l := range lines {
		fmt.Fprintf(&tr.out, "> %q\n< %q\n", l, tc.recv())
	}
}

// TestWireTranscriptGolden replays a fixed request script that draws every
// reply kind and every error code, and compares the wire replies byte for
// byte with the transcript recorded on the commit before the request path
// was rebuilt (PR 12). Regenerate with -update-golden only when the protocol
// is meant to change.
func TestWireTranscriptGolden(t *testing.T) {
	tr := &transcript{t: t}

	// Replies and parse errors on a healthy server.
	tr.section("healthy")
	s := startTestServer(t, Options{Shards: 3, VNodes: 64, Keys: 512, DisableTuner: true})
	// The first three keys on KeyName(0)'s shard and the first one off it.
	var colocated []string
	var foreign string
	for i := 0; len(colocated) < 3 || foreign == ""; i++ {
		if s.ring.Lookup(KeyName(i)) != s.ring.Lookup(KeyName(0)) {
			if foreign == "" {
				foreign = KeyName(i)
			}
		} else if len(colocated) < 3 {
			colocated = append(colocated, KeyName(i))
		}
	}
	k := colocated[0]
	tc := dialServer(t, s)
	tr.exchange(tc,
		"PING", "ping", "PiNg trailing fields are ignored", "  PING  ",
		"GET "+k, "PUT "+k+" 5", "GET "+k, "ADD "+k+" 3", "add "+k+" 0", "get "+k,
		"GET\t"+k+"\r", "  GET   "+k+"  ",
		"PUT "+k+" 18446744073709551615", "ADD "+k+" 1", "ADD "+k+" 18446744073709551615",
		"PUT "+k+" 007", "GET "+k,
		fmt.Sprintf("MADD %s 2 %s 3 %s 4", colocated[0], colocated[1], colocated[2]),
		fmt.Sprintf("madd %s 1 %s 1", colocated[0], colocated[0]),
		"GET "+colocated[0], "GET "+colocated[1], "GET "+colocated[2],
		fmt.Sprintf("MADD %s 1 %s 1", colocated[0], foreign),
		"GET nosuchkey", "ADD nosuchkey 1", "PUT nosuchkey 1", "MADD nosuchkey 1",
		"", "   ", "FROB x", "GETT "+k, "GE", "GET", "GET "+k+" 1", "GET a b",
		"PUT "+k, "PUT "+k+" x", "PUT "+k+" -1", "PUT "+k+" +1", "PUT "+k+" 1 2",
		"ADD "+k+" 18446744073709551616", "ADD "+k+" 1.5", "ADD "+k+" 0x10",
		"MADD", "MADD "+k, "MADD "+k+" 1 "+k, "MADD "+k+" x",
		"t=2a@1000 PING", "t=ff GET "+k, "t=FF@-5 get "+k, "t=2a ADD "+k+" 1",
		"t=", "t=xyz PING", "t=0 PING", "t=2a@abc PING", "t=2a", "t=2a@1000", "t=2a t=2b PING",
		"T=2a PING",
	)

	// A wedged single-worker shard: the executing and the queued request
	// time out, the third is shed, the two timeouts open the breaker.
	tr.section("wedged")
	inj := chaos.New(chaos.Options{Rules: []chaos.Rule{{
		Name:    "wedge",
		Point:   chaos.PointCommit,
		Action:  chaos.ActStall,
		Trigger: chaos.Trigger{Times: 1},
	}}})
	defer inj.Close()
	ws := startTestServer(t, Options{
		Shards: 1, Keys: 64, QueueDepth: 1, WorkersPerShard: 1, DisableTuner: true,
		RequestTimeout: 500 * time.Millisecond,
		Breaker:        BreakerOptions{FailureThreshold: 2, Cooldown: time.Minute},
		Injector:       func(int) *chaos.Injector { return inj },
	})
	wc := dialServer(t, ws)
	wedged := []string{"ADD " + KeyName(1) + " 1", "PUT " + KeyName(2) + " 1", "GET " + KeyName(3)}
	wc.send(wedged[0])
	waitFor(t, 5*time.Second, func() bool { return inj.StallDepth("wedge") == 1 })
	wc.send(wedged[1])
	waitFor(t, 5*time.Second, func() bool { return len(ws.shards[0].queue) == 1 })
	wc.send(wedged[2])
	tr.collect(wc, wedged...)
	waitFor(t, 5*time.Second, func() bool { return ws.shards[0].breaker.State() == BreakerOpen })
	tr.exchange(wc, "GET "+KeyName(1), "PING")
	inj.Close()

	// A draining server.
	tr.section("draining")
	for _, sh := range s.shards {
		sh.draining.Store(true)
	}
	tr.exchange(tc, "GET "+k, "ADD "+k+" 1", "PING", "FROB")

	// A poisoned write-ahead log: updates fail with the typed WAL error
	// until the breaker takes over; reads keep working.
	tr.section("wal")
	opts := durableOpts(t.TempDir())
	opts.Shards = 1
	opts.Breaker = BreakerOptions{FailureThreshold: 3, Cooldown: time.Minute}
	opts.Injector = func(int) *chaos.Injector {
		return chaos.New(chaos.Options{Rules: []chaos.Rule{{
			Name:    "wal-die",
			Point:   chaos.PointWALAppend,
			Action:  chaos.ActAbort,
			Trigger: chaos.Trigger{After: 1},
		}}})
	}
	ds := startTestServer(t, opts)
	dc := dialServer(t, ds)
	tr.exchange(dc,
		"ADD "+KeyName(1)+" 1", "ADD "+KeyName(1)+" 1", "PUT "+KeyName(2)+" 9",
		"GET "+KeyName(2), "MADD "+KeyName(3)+" 1 "+KeyName(4)+" 1", "ADD "+KeyName(1)+" 1",
	)

	golden := filepath.Join("testdata", "wire_transcript.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, tr.out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(tr.out.Bytes(), want) {
		t.Errorf("wire transcript differs from %s:\n%s", golden, lineDiff(string(want), tr.out.String()))
	}
}

// lineDiff lists the first few lines at which two transcripts differ.
func lineDiff(want, got string) string {
	w, g := bytes.Split([]byte(want), []byte("\n")), bytes.Split([]byte(got), []byte("\n"))
	var b bytes.Buffer
	for i := 0; (i < len(w) || i < len(g)) && b.Len() < 1024; i++ {
		var wl, gl []byte
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if !bytes.Equal(wl, gl) {
			fmt.Fprintf(&b, "line %d: want %s, got %s\n", i+1, wl, gl)
		}
	}
	return b.String()
}

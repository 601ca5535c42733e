package server

import (
	"bufio"
	"io"
	"testing"
)

// The request path's stages, one benchmark each; `make bench-server` runs
// them and BENCH_server.json keeps their per-PR history.

var benchLines = map[string]string{
	"GET":  "GET k004242\n",
	"ADD":  "ADD k004242 7\n",
	"MADD": "MADD k000001 1 k000002 2 k000003 3 k000004 4\n",
}

func BenchmarkParseRequest(b *testing.B) {
	for _, op := range []string{"GET", "ADD", "MADD"} {
		b.Run(op, func(b *testing.B) {
			line, req := []byte(benchLines[op]), new(request)
			b.ReportAllocs()
			for b.Loop() {
				if code := parseRequest(line, req); code != "" {
					b.Fatal(code)
				}
			}
		})
	}
}

func BenchmarkRingLookup(b *testing.B) {
	r, key := NewRing(4, 64), KeyName(4242)
	b.ReportAllocs()
	for b.Loop() {
		sinkInt = r.Lookup(key)
	}
}

// BenchmarkExecGet is the worker's share of a GET — store lookup, read-only
// transaction, reply value — with no queue, timer or socket around it.
func BenchmarkExecGet(b *testing.B) {
	s, err := New(Options{Shards: 1, Keys: 8192, DisableTuner: true})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Shutdown(0)
	req := s.reqs.get()
	if code := parseRequest([]byte(benchLines["GET"]), req); code != "" {
		b.Fatal(code)
	}
	b.ReportAllocs()
	for b.Loop() {
		if _, err := s.shards[0].exec(req); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReplyEncode is the connection writer's share: encode a VALUE
// reply and hand it to the buffered writer.
func BenchmarkReplyEncode(b *testing.B) {
	w := bufio.NewWriter(io.Discard)
	line := make([]byte, 0, 64)
	n := uint64(1234567)
	b.ReportAllocs()
	for b.Loop() {
		n++
		line = valueReply(n).appendTo(line[:0])
		if _, err := w.Write(line); err != nil {
			b.Fatal(err)
		}
	}
}

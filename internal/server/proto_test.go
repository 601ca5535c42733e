package server

import (
	"bytes"
	"fmt"
	"strconv"
	"testing"
)

func TestParseRequest(t *testing.T) {
	req := new(request)
	for _, c := range []struct {
		line string
		kind opKind
		keys []string
		args []uint64
	}{
		{"PING", opPing, nil, nil},
		{"ping with trailing fields", opPing, nil, nil},
		{"GET k000001", opGet, []string{"k000001"}, nil},
		{"  get\tk000001 \r\n", opGet, []string{"k000001"}, nil},
		{"PUT k 18446744073709551615", opPut, []string{"k"}, []uint64{1<<64 - 1}},
		{"Add k 007", opAdd, []string{"k"}, []uint64{7}},
		{"MADD a 1 b 2 a 3", opMAdd, []string{"a", "b", "a"}, []uint64{1, 2, 3}},
		{"GET k x", opGet, []string{"k"}, nil}, // no: see below
	}[:7] {
		if code := parseRequest([]byte(c.line), req); code != "" {
			t.Errorf("parseRequest(%q) = %q, want accepted", c.line, code)
			continue
		}
		if req.kind != c.kind || len(req.keys) != len(c.keys) || len(req.args) != len(c.args) {
			t.Errorf("parseRequest(%q) = %v keys %q args %v", c.line, req.kind, req.keys, req.args)
			continue
		}
		for i, k := range c.keys {
			if string(req.keys[i]) != k {
				t.Errorf("parseRequest(%q) key %d = %q, want %q", c.line, i, req.keys[i], k)
			}
		}
		for i, a := range c.args {
			if req.args[i] != a {
				t.Errorf("parseRequest(%q) arg %d = %d, want %d", c.line, i, req.args[i], a)
			}
		}
		if len(c.keys) > 0 && string(req.keys[0]) != c.keys[0] {
			t.Errorf("parseRequest(%q) primary key = %q, want %q", c.line, req.keys[0], c.keys[0])
		}
	}
	for _, bad := range []string{
		"", " \t ", "FROB x", "GETT k", "GET", "GET a b", "GET k 1",
		"PUT k", "PUT k x", "PUT k -1", "PUT k +1", "PUT k 1 2", "PUT k 18446744073709551616",
		"ADD k 1.5", "MADD", "MADD k", "MADD k 1 j", "MADD k x",
	} {
		if code := parseRequest([]byte(bad), req); code != ErrCodeBadRequest {
			t.Errorf("parseRequest(%q) code = %q, want bad-request", bad, code)
		}
	}
}

func TestParseRequestTraceHint(t *testing.T) {
	req := new(request)
	code := parseRequest([]byte("t=2a@1000 PING"), req)
	if code != "" {
		t.Fatalf("hinted PING rejected: %s", code)
	}
	if req.clientTraceID != 0x2a {
		t.Errorf("clientTraceID = %#x, want 0x2a", req.clientTraceID)
	}
	if req.clientSend.UnixNano() != 1000 {
		t.Errorf("clientSend = %v, want unix-nanos 1000", req.clientSend.UnixNano())
	}

	// Hint without timestamp is fine.
	code = parseRequest([]byte("t=ff GET k000001"), req)
	if code != "" || req.clientTraceID != 0xff || !req.clientSend.IsZero() {
		t.Errorf("t=ff GET: code=%q id=%#x send=%v", code, req.clientTraceID, req.clientSend)
	}
	// A recycled request does not keep the previous line's hint.
	if code = parseRequest([]byte("GET k000001"), req); code != "" || req.clientTraceID != 0 {
		t.Errorf("unhinted GET after a hinted one: code=%q id=%#x", code, req.clientTraceID)
	}

	for _, bad := range []string{
		"t=",            // empty hint
		"t=xyz PING",    // not hex
		"t=0 PING",      // zero ID reserved
		"t=2a@abc PING", // bad timestamp
		"t=2a",          // hint with no request
		"t=2a@1000",     // ditto with timestamp
	} {
		if code := parseRequest([]byte(bad), req); code != ErrCodeBadRequest {
			t.Errorf("parseRequest(%q) code = %q, want bad-request", bad, code)
		}
	}
}

// encodeRequest renders a parsed request back into a protocol line.
func encodeRequest(r *request) []byte {
	var b []byte
	if r.clientTraceID != 0 {
		b = strconv.AppendUint(append(b, "t="...), r.clientTraceID, 16)
		if !r.clientSend.IsZero() {
			b = strconv.AppendInt(append(b, '@'), r.clientSend.UnixNano(), 10)
		}
		b = append(b, ' ')
	}
	b = append(b, r.kind.String()...)
	for i, k := range r.keys {
		b = append(append(b, ' '), k...)
		if i < len(r.args) {
			b = strconv.AppendUint(append(b, ' '), r.args[i], 10)
		}
	}
	return b
}

// FuzzParseRequest: arbitrary bytes never panic the parser; a rejected line
// is a bad-request; an accepted one re-encodes from the parsed request and
// re-parses to the same request.
func FuzzParseRequest(f *testing.F) {
	for _, seed := range []string{
		"PING", "ping extra", "GET k000001", "get\tk000001\r", "PUT k 5", "ADD k 18446744073709551615",
		"MADD a 1 b 2 c 3", "madd a 1 a 1", "t=2a@1000 PING", "t=ff GET k000001", "t=FF@-5 add k 1",
		"t=", "t=xyz PING", "t=0 PING", "t=2a@abc PING", "t=2a", "t=2a@1000", "T=2a PING",
		"", "   ", "FROB x", "GET", "GET a b", "PUT k x", "PUT k -1", "ADD k 18446744073709551616",
		"MADD", "MADD k", "MADD k 1 j", "GET k j", "GET \xff\xfe", "pıng",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		want := bytes.Fields(line) // the tokenizer splits exactly like strings.Fields did
		for f, rest := nextField(line); len(f) > 0 || len(want) > 0; f, rest = nextField(rest) {
			if len(want) == 0 || !bytes.Equal(f, want[0]) {
				t.Fatalf("nextField over %q yields %q where bytes.Fields has %q", line, f, want)
			}
			want = want[1:]
		}
		a, b := new(request), new(request)
		code := parseRequest(line, a)
		if code != "" {
			if code != ErrCodeBadRequest {
				t.Fatalf("parseRequest(%q) rejected with %q, want %q", line, code, ErrCodeBadRequest)
			}
			return
		}
		again := encodeRequest(a)
		if code := parseRequest(again, b); code != "" {
			t.Fatalf("parseRequest(%q) accepted, but its re-encoding %q is rejected: %s", line, again, code)
		}
		same := a.kind == b.kind && len(a.keys) == len(b.keys) && len(a.args) == len(b.args) &&
			a.clientTraceID == b.clientTraceID && a.clientSend.Equal(b.clientSend)
		for i := 0; same && i < len(a.keys); i++ {
			same = bytes.Equal(a.keys[i], b.keys[i])
		}
		for i := 0; same && i < len(a.args); i++ {
			same = a.args[i] == b.args[i]
		}
		if !same {
			t.Fatalf("parseRequest(%q) and its re-encoding %q parse differently", line, again)
		}
	})
}

// The parser and the reply encoder are two of the allocation-free stages of
// the request path (TestRequestPathAllocs gates the whole of it).
func TestParseRequestAllocs(t *testing.T) {
	req := new(request)
	for _, line := range []string{"GET k000042", "PUT k000042 18446744073709551615", "ADD k000042 7"} {
		b := []byte(line + "\n")
		parseRequest(b, req) // sizes the key buffer
		if n := testing.AllocsPerRun(1000, func() { parseRequest(b, req) }); n != 0 {
			t.Errorf("parseRequest(%q) allocates %v times, want 0", line, n)
		}
	}
}

func TestReplyEncode(t *testing.T) {
	buf := make([]byte, 0, 64)
	for _, c := range []struct {
		rep  reply
		want string
	}{
		{replyOK, "OK\n"},
		{replyPong, "PONG\n"},
		{valueReply(0), "VALUE 0\n"},
		{valueReply(1<<64 - 1), "VALUE 18446744073709551615\n"},
		{errReply(ErrCodeUnknownKey), "ERR unknown-key\n"},
		{errReply(ErrCodeBadRequest), "ERR bad-request\n"},
	} {
		if got := string(c.rep.appendTo(buf[:0])); got != c.want {
			t.Errorf("%+v encodes as %q, want %q", c.rep, got, c.want)
		}
		if n := testing.AllocsPerRun(1000, func() { buf = c.rep.appendTo(buf[:0]) }); n != 0 {
			t.Errorf("encoding %q allocates %v times, want 0", c.want, n)
		}
	}
	if got := fmt.Sprint(errReply(ErrCodeTimeout).outcome(), " ", valueReply(1).outcome()); got != "timeout ok" {
		t.Errorf("outcomes = %q, want %q", got, "timeout ok")
	}
}

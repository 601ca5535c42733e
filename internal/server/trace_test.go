package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
	"time"
)

func TestTraceSampleGate(t *testing.T) {
	tr := newReqTracer(TraceOptions{MaxTraces: 16})

	// Rate 0: never sampled, even over many draws.
	for i := 0; i < 1000; i++ {
		if rt := tr.maybeStart(0, time.Time{}, 1); rt != nil {
			t.Fatal("sampled a request at rate 0")
		}
	}
	// Rate 1: always sampled.
	tr.setSampleRate(1)
	rt := tr.maybeStart(0, time.Time{}, 1)
	if rt == nil {
		t.Fatal("rate 1 did not sample")
	}
	if rt.id == 0 {
		t.Error("trace ID must be nonzero")
	}

	// A client hint forces sampling at any nonzero rate...
	tr.setSampleRate(1e-9)
	hinted := tr.maybeStart(0xabc, time.Time{}, 2)
	if hinted == nil {
		t.Fatal("client hint was not force-sampled while tracing enabled")
	}
	if hinted.clientID != 0xabc {
		t.Errorf("clientID = %#x, want 0xabc", hinted.clientID)
	}
	// ...but not while tracing is off entirely.
	tr.setSampleRate(0)
	if rt := tr.maybeStart(0xabc, time.Time{}, 2); rt != nil {
		t.Error("client hint sampled while tracing disabled")
	}

	// Intermediate rates land near their target frequency.
	tr.setSampleRate(0.25)
	got := 0
	const draws = 20000
	for i := 0; i < draws; i++ {
		if rt := tr.maybeStart(0, time.Time{}, 1); rt != nil {
			got++
		}
	}
	if frac := float64(got) / draws; frac < 0.2 || frac > 0.3 {
		t.Errorf("rate 0.25 sampled %.3f of draws", frac)
	}
	if r := tr.sampleRate(); r < 0.24 || r > 0.26 {
		t.Errorf("sampleRate() round-trip = %v, want ~0.25", r)
	}
}

func TestTraceRingOverwrite(t *testing.T) {
	tr := newReqTracer(TraceOptions{SampleRate: 1, MaxTraces: 4})
	for i := 1; i <= 10; i++ {
		tr.publish(ReqTraceData{ID: uint64(i)})
	}
	got := tr.traces()
	if len(got) != 4 {
		t.Fatalf("ring holds %d traces, want 4", len(got))
	}
	for i, d := range got {
		if want := uint64(7 + i); d.ID != want {
			t.Errorf("trace[%d].ID = %d, want %d (oldest-first, newest kept)", i, d.ID, want)
		}
	}
	st := tr.status()
	if st.Completed != 10 || st.Dropped != 6 {
		t.Errorf("status = %+v, want completed 10 dropped 6", st)
	}
}

// TestTraceEndToEnd drives a fully-sampled server and asserts the whole
// tentpole surface: per-stage marks, ring contents, /status breakdown,
// exemplars in the Prometheus text, and the merged Perfetto export with
// STM spans parented under the request.
func TestTraceEndToEnd(t *testing.T) {
	s := startTestServer(t, Options{
		Shards:       2,
		Keys:         256,
		DisableTuner: true,
		HTTPAddr:     "127.0.0.1:0",
		Trace:        TraceOptions{SampleRate: 1},
	})
	colocated, _ := sameShardKeys(t, s.ring, 256, 3)
	tc := dialServer(t, s)

	if got := tc.roundTrip("PUT " + KeyName(1) + " 5"); got != "OK" {
		t.Fatalf("PUT -> %q", got)
	}
	if got := tc.roundTrip("GET " + KeyName(1)); got != "VALUE 5" {
		t.Fatalf("GET -> %q", got)
	}
	madd := fmt.Sprintf("MADD %s 1 %s 2 %s 3", colocated[0], colocated[1], colocated[2])
	if got := tc.roundTrip(madd); got != "OK" {
		t.Fatalf("MADD -> %q", got)
	}
	// A client-hinted request extends the timeline into the "worker".
	sendNS := time.Now().UnixNano()
	if got := tc.roundTrip(fmt.Sprintf("t=beef@%d ADD %s 7", sendNS, KeyName(1))); !strings.HasPrefix(got, "VALUE") {
		t.Fatalf("hinted ADD -> %q", got)
	}

	waitFor(t, 2*time.Second, func() bool { return len(s.Traces()) >= 4 })
	traces := s.Traces()

	byOp := map[string]ReqTraceData{}
	var hinted *ReqTraceData
	for i, d := range traces {
		byOp[d.Op] = d
		if d.ClientID == 0xbeef {
			hinted = &traces[i]
		}
	}
	for _, op := range []string{"PUT", "GET", "MADD", "ADD"} {
		d, ok := byOp[op]
		if !ok {
			t.Fatalf("no trace for %s (have %+v)", op, traces)
		}
		if d.Outcome != "ok" {
			t.Errorf("%s outcome = %q, want ok", op, d.Outcome)
		}
		if d.Shard < 0 {
			t.Errorf("%s trace was never routed to a shard", op)
		}
		// The pipeline marks must be monotone: accept <= enqueue <= dequeue
		// <= fn-done <= exec-done <= flush, and all present on the ok path.
		marks := []int64{d.AcceptNS, d.EnqueueNS, d.DequeueNS, d.FnDoneNS, d.ExecDoneNS, d.FlushNS}
		for i := 1; i < len(marks); i++ {
			if marks[i] == 0 {
				t.Fatalf("%s trace missing stage mark %d: %+v", op, i, d)
			}
			if marks[i] < marks[i-1] {
				t.Errorf("%s stage mark %d (%d) precedes mark %d (%d)", op, i, marks[i], i-1, marks[i-1])
			}
		}
	}
	if hinted == nil {
		t.Fatal("client-hinted request has no trace with its ID")
	}
	if hinted.ClientSendNS == 0 {
		t.Error("hinted trace lost the client send timestamp")
	}

	// Stage histograms feed /status, aggregate and per shard.
	st := s.Status()
	if st.Trace == nil || st.Trace.Sampled < 4 {
		t.Fatalf("status trace block = %+v, want >= 4 sampled", st.Trace)
	}
	if st.Stages == nil {
		t.Fatal("status has no aggregate stage breakdown after traced traffic")
	}
	if st.Stages.Queue.Count == 0 || st.Stages.Exec.Count == 0 ||
		st.Stages.Commit.Count == 0 || st.Stages.Flush.Count == 0 {
		t.Errorf("stage breakdown incomplete: %+v", st.Stages)
	}
	if st.Stages.QueueWaitFrac < 0 || st.Stages.QueueWaitFrac > 1 {
		t.Errorf("QueueWaitFrac = %v, want [0,1]", st.Stages.QueueWaitFrac)
	}
	if st.StartTime == "" || st.GoVersion == "" || st.PID == 0 {
		t.Errorf("build/identity block incomplete: start=%q go=%q pid=%d", st.StartTime, st.GoVersion, st.PID)
	}

	// The Prometheus text carries stage series with trace-ID exemplars.
	var metrics bytes.Buffer
	if err := s.Registry().WritePrometheus(&metrics); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	text := metrics.String()
	for _, want := range []string{
		"autopn_server_stage_queue_ms",
		"autopn_server_stage_exec_ms",
		"autopn_server_stage_commit_ms",
		"autopn_server_stage_flush_ms",
		"autopn_server_traces_sampled_total",
		"autopn_server_build_info 1",
		"# exemplar autopn_server_stage_",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// The merged export: every request is a process with server stage
	// slices, and the MADD's STM tree (top + parallel nested children)
	// appears under the same pid.
	var export bytes.Buffer
	if err := s.WriteTraceEvents(&export); err != nil {
		t.Fatalf("WriteTraceEvents: %v", err)
	}
	var parsed struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Cat  string         `json:"cat"`
			Ph   string         `json:"ph"`
			PID  uint64         `json:"pid"`
			TID  uint64         `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		OtherData struct {
			EpochUnixNS int64 `json:"epoch_unix_ns"`
		} `json:"otherData"`
	}
	if err := json.Unmarshal(export.Bytes(), &parsed); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if parsed.OtherData.EpochUnixNS == 0 {
		t.Error("export missing epoch_unix_ns")
	}
	maddID := byOp["MADD"].ID
	var stages, stmSpans, clientSlices int
	stageSeen := map[string]bool{}
	for _, ev := range parsed.TraceEvents {
		if ev.PID != maddID || ev.Ph != "X" {
			if ev.Ph == "X" && ev.Cat == "client" {
				clientSlices++
			}
			continue
		}
		switch ev.Cat {
		case "server":
			if ev.Name != "request" {
				stages++
				stageSeen[ev.Name] = true
			}
		case "stm":
			stmSpans++
		}
	}
	if stages < 4 {
		t.Errorf("MADD pid has %d stage slices (%v), want 4", stages, stageSeen)
	}
	// The MADD ran 3 parallel nested children under one top: >= 4 spans.
	if stmSpans < 4 {
		t.Errorf("MADD pid has %d stm spans, want >= 4 (top + 3 nested)", stmSpans)
	}
	if clientSlices == 0 {
		t.Error("export has no client slice for the hinted request")
	}

	// Disabled again at runtime: no new samples.
	s.SetTraceSampleRate(0)
	before := s.tracer.sampled.Load()
	if got := tc.roundTrip("GET " + KeyName(1)); !strings.HasPrefix(got, "VALUE") {
		t.Fatalf("GET after disable -> %q", got)
	}
	if after := s.tracer.sampled.Load(); after != before {
		t.Errorf("sampled advanced (%d -> %d) with tracing disabled", before, after)
	}
}

// TestTraceShedRequestPublishes: a request shed at a full queue still
// completes its trace (outcome overload, no dequeue mark).
func TestTraceShedRequestPublishes(t *testing.T) {
	tr := newReqTracer(TraceOptions{SampleRate: 1, MaxTraces: 16})
	rt := tr.maybeStart(0, time.Time{}, 1)
	if rt == nil {
		t.Fatal("not sampled at rate 1")
	}
	rt.op, rt.key = "ADD", "k000001"
	// Shed path: routed and stamped, then no worker marks.
	rt.shard = 0
	rt.enq.Store(tr.now())
	tr.publish(rt.snapshot("overload", 0))

	got := tr.traces()
	if len(got) != 1 {
		t.Fatalf("%d traces, want 1", len(got))
	}
	if got[0].Outcome != "overload" || got[0].DequeueNS != 0 || got[0].EnqueueNS == 0 {
		t.Errorf("shed trace = %+v, want overload with enqueue but no dequeue", got[0])
	}
}

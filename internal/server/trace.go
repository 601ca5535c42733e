package server

import (
	"sync"
	"sync/atomic"
	"time"

	"autopn/internal/obs"
)

// Request tracing: the serving layer's end-to-end latency decomposition.
//
// Whole-request latency histograms say *that* p99 degraded; this tracer
// says *where* the time went. Each sampled request gets a 64-bit trace ID
// at accept and records per-stage timestamps as it flows through the
// pipeline:
//
//	accept -> enqueue -> dequeue -> fn-done -> exec-done -> reply-flushed
//
// from which the four stage latencies are derived:
//
//	queue  = enqueue  -> dequeue    admission-queue wait
//	exec   = dequeue  -> fn-done    transaction body, retries included
//	commit = fn-done  -> exec-done  final validation + STM commit
//	flush  = exec-done-> flushed    reply ordering + writer batching + syscall
//
// Span records are pooled (sync.Pool; a record shares the lifetime of the
// pooled request that carries it) and completed records land in a
// fixed-size ring, exported as one merged Chrome trace_event timeline
// together with the linked STM transaction-tree spans (see
// trace_export.go). The sampling
// decision is a single atomic load plus a splitmix64 draw per request;
// with tracing disabled (rate 0) it is exactly one atomic load and a
// never-taken branch — the same discipline the STM tracer established.
//
// Queue wait separating from service time is the signal the tuning layer
// needs: queue-dominated tails say "raise shard count / queue depth",
// commit-dominated tails say "retune (t, c) or the batch cap".

// stage indexes the derived per-stage latency histograms.
type stage int

const (
	stageQueue stage = iota
	stageExec
	stageCommit
	stageFlush
	numStages
)

// stageNames are the metric-name fragments, indexed by stage.
var stageNames = [numStages]string{"queue", "exec", "commit", "flush"}

// TraceOptions configures the server's request tracer. The tracer is
// always constructed (so tracing can be enabled at runtime); only the
// sample rate decides whether any request pays more than the sampling
// gate.
type TraceOptions struct {
	// SampleRate is the fraction of accepted requests traced, in [0, 1].
	// Zero (the default) keeps tracing off: one atomic load per request.
	// Adjustable at runtime via Server.SetTraceSampleRate.
	SampleRate float64
	// MaxTraces bounds the completed-trace ring (default 4096). When full,
	// the oldest traces are overwritten.
	MaxTraces int
	// STMMaxSpans bounds each shard's STM span ring (default 4096).
	STMMaxSpans int
}

func (o *TraceOptions) withDefaults() {
	if o.MaxTraces <= 0 {
		o.MaxTraces = 4096
	}
	if o.STMMaxSpans <= 0 {
		o.STMMaxSpans = 4096
	}
}

// ReqTraceData is one completed request trace. Timestamps are nanoseconds
// since the tracer's epoch (Server start); zero means the request never
// reached that point (a shed request has no DequeueNS). JSON tags make the
// ring directly dumpable for tests and tooling; the Perfetto export is the
// human surface.
type ReqTraceData struct {
	ID uint64 `json:"id"`
	// ClientID is the client-supplied trace hint (0 when the client sent
	// none); ClientSendNS is the client's send timestamp re-anchored to the
	// tracer epoch, when supplied. Together they extend the timeline one
	// hop into the load generator.
	ClientID     uint64 `json:"client_id,omitempty"`
	ClientSendNS int64  `json:"client_send_ns,omitempty"`
	Conn         int64  `json:"conn"`
	Shard        int    `json:"shard"` // -1: never routed to a shard
	Op           string `json:"op"`
	Key          string `json:"key,omitempty"`
	Outcome      string `json:"outcome"` // "ok" or the ERR code

	AcceptNS   int64 `json:"accept_ns"`
	EnqueueNS  int64 `json:"enqueue_ns,omitempty"`
	DequeueNS  int64 `json:"dequeue_ns,omitempty"`
	FnDoneNS   int64 `json:"fn_done_ns,omitempty"`
	ExecDoneNS int64 `json:"exec_done_ns,omitempty"`
	FlushNS    int64 `json:"flush_ns,omitempty"`
}

// reqTrace is the live, pooled span record of one sampled request. Stage
// timestamps are atomics because the deadline timer can hand the request
// to the connection writer (which publishes the record) while the worker
// is still executing and marking stages; the writer's snapshot simply
// misses marks that land after publication. The record returns to the pool
// with its request, once both of the request's owners — the writer
// (publishes at flush) and the exec side — have released it.
type reqTrace struct {
	tr *reqTracer

	// Set once by the reader goroutine before the request is shared.
	id           uint64
	clientID     uint64
	clientSendNS int64
	conn         int64
	shard        int32 // -1 until routed
	op           string
	key          string
	acceptNS     int64

	enq, deq, fnDone, execDone atomic.Int64
}

// snapshot renders the record for publication. flushNS may be zero (the
// connection died before the reply was flushed).
func (rt *reqTrace) snapshot(outcome string, flushNS int64) ReqTraceData {
	return ReqTraceData{
		ID:           rt.id,
		ClientID:     rt.clientID,
		ClientSendNS: rt.clientSendNS,
		Conn:         rt.conn,
		Shard:        int(rt.shard),
		Op:           rt.op,
		Key:          rt.key,
		Outcome:      outcome,
		AcceptNS:     rt.acceptNS,
		EnqueueNS:    rt.enq.Load(),
		DequeueNS:    rt.deq.Load(),
		FnDoneNS:     rt.fnDone.Load(),
		ExecDoneNS:   rt.execDone.Load(),
		FlushNS:      flushNS,
	}
}

// reqTracer owns the sampling gate, trace-ID allocation and the
// completed-trace ring. All methods are safe for concurrent use.
type reqTracer struct {
	epoch time.Time // wall + monotonic anchor; see Epoch

	threshold atomic.Uint64 // 0 = off, ^0 = always, else splitmix64 compare
	drawSeq   atomic.Uint64 // sampling stream
	seq       atomic.Uint64 // trace-ID allocator

	sampled   atomic.Uint64 // requests that got a trace record
	completed atomic.Uint64 // records published to the ring
	dropped   atomic.Uint64 // records overwritten in the ring

	pool sync.Pool // *reqTrace

	mu   sync.Mutex
	ring []ReqTraceData
	next int
	n    int
}

func newReqTracer(opts TraceOptions) *reqTracer {
	t := &reqTracer{
		epoch: time.Now(),
		ring:  make([]ReqTraceData, opts.MaxTraces),
	}
	t.pool.New = func() any { return &reqTrace{} }
	t.setSampleRate(opts.SampleRate)
	return t
}

// now returns nanoseconds since the tracer epoch (monotonic).
func (t *reqTracer) now() int64 { return int64(time.Since(t.epoch)) }

// setSampleRate updates the sampling gate (clamped to [0, 1]).
func (t *reqTracer) setSampleRate(rate float64) {
	switch {
	case rate <= 0 || rate != rate: // NaN-safe
		t.threshold.Store(0)
	case rate >= 1:
		t.threshold.Store(^uint64(0))
	default:
		t.threshold.Store(uint64(rate * float64(1<<63) * 2))
	}
}

// sampleRate reads the gate back as a fraction (approximate inverse of
// setSampleRate, for /status).
func (t *reqTracer) sampleRate() float64 {
	th := t.threshold.Load()
	switch th {
	case 0:
		return 0
	case ^uint64(0):
		return 1
	default:
		return float64(th) / (float64(1<<63) * 2)
	}
}

// maybeStart makes the per-request sampling decision. With tracing off the
// cost is one atomic load. A client trace hint (clientID != 0) forces
// sampling while tracing is enabled at any rate — the load generator's way
// of guaranteeing itself an end-to-end exemplar.
func (t *reqTracer) maybeStart(clientID uint64, clientSend time.Time, conn int64) *reqTrace {
	th := t.threshold.Load()
	if th == 0 {
		return nil
	}
	if clientID == 0 && th != ^uint64(0) {
		x := t.drawSeq.Add(0x9e3779b97f4a7c15)
		x ^= x >> 30
		x *= 0xbf58476d1ce4e5b9
		x ^= x >> 27
		x *= 0x94d049bb133111eb
		x ^= x >> 31
		if x >= th {
			return nil
		}
	}
	t.sampled.Add(1)
	rt := t.pool.Get().(*reqTrace)
	*rt = reqTrace{
		tr:       t,
		id:       t.seq.Add(1),
		clientID: clientID,
		conn:     conn,
		shard:    -1,
		acceptNS: t.now(),
	}
	if !clientSend.IsZero() {
		rt.clientSendNS = int64(clientSend.Sub(t.epoch))
	}
	return rt
}

// publish copies the completed record into the ring. Called exactly once
// per trace, by the connection writer.
func (t *reqTracer) publish(d ReqTraceData) {
	t.completed.Add(1)
	t.mu.Lock()
	if t.n == len(t.ring) {
		t.dropped.Add(1)
	} else {
		t.n++
	}
	t.ring[t.next] = d
	t.next = (t.next + 1) % len(t.ring)
	t.mu.Unlock()
}

// traces returns a copy of the completed-trace ring, oldest first.
func (t *reqTracer) traces() []ReqTraceData {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]ReqTraceData, 0, t.n)
	for i := 0; i < t.n; i++ {
		out = append(out, t.ring[(t.next-t.n+i+2*len(t.ring))%len(t.ring)])
	}
	return out
}

// TraceStatus is the tracer block of /status.
type TraceStatus struct {
	SampleRate float64 `json:"sample_rate"`
	Sampled    uint64  `json:"sampled"`
	Completed  uint64  `json:"completed"`
	Dropped    uint64  `json:"dropped"` // ring overwrites
}

func (t *reqTracer) status() TraceStatus {
	return TraceStatus{
		SampleRate: t.sampleRate(),
		Sampled:    t.sampled.Load(),
		Completed:  t.completed.Load(),
		Dropped:    t.dropped.Load(),
	}
}

// StageBreakdown is the queue-wait vs. service-time decomposition served
// in /status (aggregate and per shard) and embedded in the loadgen report.
// Histograms cover traced requests that completed successfully; the
// exemplars on each stage name concrete trace IDs resolvable in
// /debug/server/trace.
type StageBreakdown struct {
	Queue  obs.HistogramSnapshot `json:"queue_ms"`
	Exec   obs.HistogramSnapshot `json:"exec_ms"`
	Commit obs.HistogramSnapshot `json:"commit_ms"`
	Flush  obs.HistogramSnapshot `json:"flush_ms"`
	// QueueWaitFrac is mean queue wait / mean total (queue + exec + commit
	// + flush) over the current windows: the single number that says
	// whether the tail is admission (raise shards / queue depth) or
	// service (retune (t, c) / batch cap).
	QueueWaitFrac float64 `json:"queue_wait_frac"`
}

// breakdown summarizes a [numStages]*obs.Histogram set.
func breakdown(h *[numStages]*obs.Histogram) *StageBreakdown {
	b := &StageBreakdown{
		Queue:  h[stageQueue].Snapshot(),
		Exec:   h[stageExec].Snapshot(),
		Commit: h[stageCommit].Snapshot(),
		Flush:  h[stageFlush].Snapshot(),
	}
	total := b.Queue.Mean + b.Exec.Mean + b.Commit.Mean + b.Flush.Mean
	if total > 0 {
		b.QueueWaitFrac = b.Queue.Mean / total
	}
	return b
}

// observeStages derives the four stage latencies from a completed ok
// trace and feeds them (with the trace ID as exemplar) into hists.
// Traces that never reached a stage contribute nothing to it.
func observeStages(d ReqTraceData, hists ...*[numStages]*obs.Histogram) {
	mark := func(st stage, from, to int64) {
		if from == 0 || to == 0 || to < from {
			return
		}
		ms := float64(to-from) / float64(time.Millisecond)
		for _, h := range hists {
			h[st].ObserveExemplar(ms, d.ID)
		}
	}
	mark(stageQueue, d.EnqueueNS, d.DequeueNS)
	mark(stageExec, d.DequeueNS, d.FnDoneNS)
	mark(stageCommit, d.FnDoneNS, d.ExecDoneNS)
	mark(stageFlush, d.ExecDoneNS, d.FlushNS)
}

// newStageHists allocates one histogram per stage.
func newStageHists() *[numStages]*obs.Histogram {
	var h [numStages]*obs.Histogram
	for i := range h {
		h[i] = obs.NewHistogram(0)
	}
	return &h
}

package server

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"autopn"
	"autopn/internal/chaos"
	"autopn/internal/obs"
	"autopn/internal/sched"
	"autopn/internal/stm"
	stmtrace "autopn/internal/stm/trace"
)

// shard is one independent slice of the store: its own STM universe, its
// own key subset, its own bounded admission queue and worker pool, its own
// circuit breaker, and its own autopn tuner converging a per-shard (t, c).
// Shards share nothing but the dead-letter log and the metrics registry,
// so a wedged or mistuned shard cannot stall its siblings.
type shard struct {
	id    int
	stm   *stm.STM
	store map[string]*stm.VBox[uint64] // immutable after New

	queue   chan *request
	stop    chan struct{}
	timeout time.Duration

	breaker *Breaker
	dlq     *DLQ

	tuner *autopn.Tuner
	sched *sched.Scheduler // contention-aware lane scheduler (nil = off)
	ring  *obs.Ring        // per-shard decision tail for /status
	jsonl *obs.JSONLFile   // per-shard persisted decision log (nil = off)
	inj   *chaos.Injector
	wal   *shardWAL // durability (nil = off); see durability.go

	// tracer is this shard's STM span tracer: sampled requests force-trace
	// their transaction trees into it, linked by request trace ID (the
	// ambient STM sample rate stays 0, so only request-claimed trees land
	// here). stages are the shard's per-stage latency histograms.
	tracer *stmtrace.Tracer
	stages *[numStages]*obs.Histogram

	// draining rejects new submissions while shutdown drains the queue.
	draining atomic.Bool
	// executing counts requests a worker has dequeued but not yet finished.
	executing atomic.Int64

	wg sync.WaitGroup // workers

	// Counters (served by /status and bridged into the registry).
	accepted   atomic.Uint64 // enqueued
	shed       atomic.Uint64 // rejected: queue full
	brkRejects atomic.Uint64 // rejected: breaker open
	timeouts   atomic.Uint64 // expired before completion
	served     atomic.Uint64 // replied successfully
	userErrors atomic.Uint64 // bad keys, cross-shard, execution errors
	lateOK     atomic.Uint64 // completed after the deadline timer replied

	latency *obs.Histogram // accepted-request latency, milliseconds
	global  *obs.Histogram // server-wide latency histogram (shared)
}

// submit routes one request through the shard's admission-control front
// door: shutdown drain check, circuit breaker, bounded queue. Exactly one
// reply is always produced — immediately on rejection, by a worker or the
// deadline timer otherwise.
func (sh *shard) submit(req *request) {
	req.sh = sh
	if sh.draining.Load() {
		sh.reject(req, ErrCodeShutdown)
		return
	}
	if !sh.breaker.Allow() {
		sh.brkRejects.Add(1)
		sh.reject(req, ErrCodeBreakerOpen)
		return
	}
	// Take the exec side's ownership reference before the request can
	// reach a worker, and stamp the enqueue mark first so a worker's
	// dequeue mark can never precede it.
	req.refs.Add(1)
	req.enq = monoNow()
	req.deadline.at.Store(req.enq + int64(sh.timeout))
	if rt := req.tr; rt != nil {
		rt.shard = int32(sh.id)
		rt.enq.Store(rt.tr.now())
	}
	select {
	case sh.queue <- req:
		sh.accepted.Add(1)
		// The deadline watchdog (request.onExpiry): finish()'s CAS
		// guarantees the worker and the timer never both reply. Armed only
		// after admission so the shed path below stays free of timer churn
		// at full overload rate; the replied re-check closes the race where
		// a worker finished the request between enqueue and arming.
		req.timer.Reset(sh.timeout)
		if req.replied() {
			req.timer.Stop()
		}
	default:
		// Load shedding: the queue is full, so the request is refused
		// *now* with the typed overload reply rather than queued into a
		// latency cliff. The breaker sees the shed as a success-neutral
		// event (it was never admitted to execution), but the dead-letter
		// log records it.
		req.deadline.at.Store(0) // never admitted: finish has no timer to stop
		if req.finish(errReply(ErrCodeOverload)) {
			sh.shed.Add(1)
			sh.deadLetter(req, ErrCodeOverload)
		}
		// The breaker admitted the request but it never executed; undo the
		// probe accounting so a shed cannot wedge the breaker half-open.
		sh.breaker.Forget()
		req.refs.Add(-1) // no worker will see this request
	}
}

// reject replies immediately with the given code and records a dead letter.
func (sh *shard) reject(req *request, code string) {
	if req.finish(errReply(code)) {
		sh.deadLetter(req, code)
	}
}

// deadLetter records req in the dead-letter log, if there is one.
func (sh *shard) deadLetter(req *request, reason string) {
	if sh.dlq != nil {
		sh.dlq.Record(DeadLetter{Shard: sh.id, Op: req.kind.String(), Key: string(req.keys[0]), Reason: reason})
	}
}

// timedOut accounts one request answered with ErrCodeTimeout.
func (sh *shard) timedOut(req *request) {
	sh.timeouts.Add(1)
	sh.breaker.ReportFailure()
	sh.deadLetter(req, ErrCodeTimeout)
}

// runWorkers launches n executor goroutines.
func (sh *shard) runWorkers(n int) {
	for i := 0; i < n; i++ {
		sh.wg.Add(1)
		go func() {
			defer sh.wg.Done()
			for {
				select {
				case req := <-sh.queue:
					sh.execute(req)
				case <-sh.stop:
					return
				}
			}
		}()
	}
}

// execute runs one dequeued request against the shard's STM and replies.
func (sh *shard) execute(req *request) {
	sh.executing.Add(1)
	defer sh.executing.Add(-1)
	defer req.release() // exec side done with the request
	if req.replied() {
		// Expired in the queue; the deadline timer already answered and
		// accounted for it.
		return
	}
	rt := req.tr
	if rt != nil {
		rt.deq.Store(rt.tr.now())
	}
	rep, err := sh.exec(req)
	if rt != nil {
		rt.execDone.Store(rt.tr.now())
	}
	switch {
	case err == nil:
		if req.finish(rep) {
			sh.served.Add(1)
			sh.breaker.ReportSuccess()
			ms := float64(monoNow()-req.enq) / float64(time.Millisecond)
			sh.latency.Observe(ms)
			sh.global.Observe(ms)
		} else {
			// The deadline timer beat us to the reply; the work still
			// committed (late success), the breaker already saw the
			// failure.
			sh.lateOK.Add(1)
		}
	case errors.Is(err, context.DeadlineExceeded):
		if req.finish(errReply(ErrCodeTimeout)) {
			sh.timedOut(req)
		}
	case errors.Is(err, errWAL):
		// The transaction committed but could not be made durable: the
		// ack contract (acked writes survive a crash) is broken, so the
		// client gets the typed WAL error and the breaker sees a failure.
		// WAL errors are sticky, so the breaker opens within a window and
		// the shard stops accepting updates it cannot honor.
		if req.finish(errReply(ErrCodeWAL)) {
			sh.userErrors.Add(1)
			sh.breaker.ReportFailure()
			sh.deadLetter(req, ErrCodeWAL)
		}
	default:
		// Protocol-level errors (unknown key, cross-shard) are the
		// client's fault, not the shard's health: reply without feeding
		// the breaker a failure.
		if req.finish(errReply(err.Error())) {
			sh.userErrors.Add(1)
			sh.breaker.ReportSuccess()
		}
	}
}

// errCode wraps a protocol error code as an error for exec's return path.
type errCode string

func (e errCode) Error() string { return string(e) }

// atomicUpdate runs fn as an update transaction under the request's
// deadline context and returns the STM commit version that published it
// (the WAL path's last-writer-wins ordering key). Traced requests force
// the tree into the shard's STM tracer linked by trace ID, and stamp the
// fn-done mark at the end of every attempt (the last attempt's stamp
// survives), which is what separates the exec stage — transaction body,
// retries included — from the commit stage.
// The hint parameter declares the request's scheduling intent — the
// conflict key of the box it is about to write — so an attempt on a
// promoted hot domain is steered onto its lane from attempt zero rather
// than after a first wasted abort. With the scheduler off the hint is
// simply ignored.
func (sh *shard) atomicUpdate(req *request, hint uintptr, fn func(tx *stm.Tx) error) (uint64, error) {
	rt := req.tr
	if rt == nil {
		return sh.stm.AtomicVersionedCtxHint(&req.deadline, hint, fn)
	}
	return sh.stm.AtomicVersionedTracedHint(&req.deadline, rt.id, hint, func(tx *stm.Tx) error {
		err := fn(tx)
		rt.fnDone.Store(rt.tr.now())
		return err
	})
}

// atomicRead is atomicUpdate's read-only counterpart; reads run exactly
// once and need no context.
func (sh *shard) atomicRead(req *request, fn func(tx *stm.Tx) error) error {
	rt := req.tr
	if rt == nil {
		return sh.stm.AtomicReadOnly(fn)
	}
	return sh.stm.AtomicReadOnlyTraced(rt.id, func(tx *stm.Tx) error {
		err := fn(tx)
		rt.fnDone.Store(rt.tr.now())
		return err
	})
}

// exec performs the transactional work of one request: resolve the keys,
// run the request's own pre-bound transaction body (request.run), log the
// committed image. An MADD's first key is its declared scheduling intent: a
// multi-key update cannot declare them all, and the learned-key upgrade in
// the STM's retry loop covers whichever box actually aborts it.
func (sh *shard) exec(req *request) (reply, error) {
	req.boxes = req.boxes[:0]
	for _, k := range req.keys {
		box, ok := sh.store[string(k)]
		if !ok {
			return reply{}, errCode(ErrCodeUnknownKey)
		}
		req.boxes = append(req.boxes, box)
	}
	if n := len(req.boxes); cap(req.vals) < n {
		req.vals = make([]uint64, n)
	}
	req.vals = req.vals[:len(req.boxes)]
	if req.kind == opGet {
		err := sh.atomicRead(req, req.runFn)
		return valueReply(req.vals[0]), err
	}
	ver, err := sh.atomicUpdate(req, req.boxes[0].ConflictKey(), req.runFn)
	if err == nil {
		err = sh.logUpdate(req, ver)
	}
	if req.kind == opAdd {
		return valueReply(req.vals[0]), err
	}
	return replyOK, err
}

// drainQueue empties the admission queue during shutdown, replying with
// the typed shutdown error so no connection writer is left waiting on a
// request that will never execute. Returns how many it drained.
func (sh *shard) drainQueue() int {
	n := 0
	for {
		select {
		case req := <-sh.queue:
			sh.reject(req, ErrCodeShutdown)
			req.release() // no worker will see this request
			n++
		default:
			return n
		}
	}
}

// status snapshots the shard for /status.
func (sh *shard) status() ShardStatus {
	st := ShardStatus{
		ID:             sh.id,
		QueueLen:       len(sh.queue),
		QueueCap:       cap(sh.queue),
		Breaker:        sh.breaker.State().String(),
		BreakerOpens:   sh.breaker.Opens(),
		Accepted:       sh.accepted.Load(),
		Shed:           sh.shed.Load(),
		BreakerRejects: sh.brkRejects.Load(),
		Timeouts:       sh.timeouts.Load(),
		Served:         sh.served.Load(),
		Errors:         sh.userErrors.Load(),
	}
	if sh.tuner != nil {
		cur := sh.tuner.Current()
		st.T, st.C = cur.T, cur.C
		st.Phase = sh.tuner.Phase()
	}
	snap := sh.stm.Stats.Snapshot()
	st.TopCommits = snap.TopCommits
	st.TopAborts = snap.TopAborts
	if sh.sched != nil {
		ss := sh.sched.Snapshot()
		st.Sched = &ss
	}
	lat := sh.latency.Snapshot()
	st.LatencyMs = &lat
	if b := breakdown(sh.stages); b.Queue.Count+b.Exec.Count+b.Commit.Count+b.Flush.Count > 0 {
		st.Stages = b
	}
	st.RecentDecisions = sh.ring.Last(statusShardDecisions)
	if sh.wal != nil {
		st.WAL = sh.wal.status()
	}
	return st
}

// statusShardDecisions is how many trailing tuner decisions each shard row
// of /status carries.
const statusShardDecisions = 5

// ShardStatus is one row of the /status shard table.
type ShardStatus struct {
	ID    int    `json:"id"`
	T     int    `json:"t"`
	C     int    `json:"c"`
	Phase string `json:"phase"`

	QueueLen     int    `json:"queue_len"`
	QueueCap     int    `json:"queue_cap"`
	Breaker      string `json:"breaker"`
	BreakerOpens uint64 `json:"breaker_opens"`

	Accepted       uint64 `json:"accepted"`
	Shed           uint64 `json:"shed"`
	BreakerRejects uint64 `json:"breaker_rejects"`
	Timeouts       uint64 `json:"timeouts"`
	Served         uint64 `json:"served"`
	Errors         uint64 `json:"errors"`

	TopCommits uint64 `json:"stm_top_commits"`
	TopAborts  uint64 `json:"stm_top_aborts"`

	// Sched is the contention scheduler's counter snapshot (present when
	// the scheduler is enabled).
	Sched *sched.Stats `json:"sched,omitempty"`

	LatencyMs       *obs.HistogramSnapshot `json:"latency_ms,omitempty"`
	Stages          *StageBreakdown        `json:"stages,omitempty"`
	RecentDecisions []obs.Decision         `json:"recent_decisions,omitempty"`
	WAL             *WALStatus             `json:"wal,omitempty"`
}

// registerMetrics bridges the shard's counters and tuner gauges into the
// server's shared registry under shard-indexed names (the flat obs
// registry has no labels; autopn_server_shard0_* is the convention
// documented in docs/OBSERVABILITY.md).
func (sh *shard) registerMetrics(reg *obs.Registry) {
	p := fmt.Sprintf("autopn_server_shard%d_", sh.id)
	reg.CounterFunc(p+"accepted_total", sh.accepted.Load)
	reg.CounterFunc(p+"shed_total", sh.shed.Load)
	reg.CounterFunc(p+"breaker_rejects_total", sh.brkRejects.Load)
	reg.CounterFunc(p+"timeouts_total", sh.timeouts.Load)
	reg.CounterFunc(p+"served_total", sh.served.Load)
	reg.CounterFunc(p+"breaker_opens_total", sh.breaker.Opens)
	reg.GaugeFunc(p+"queue_len", func() float64 { return float64(len(sh.queue)) })
	reg.GaugeFunc(p+"breaker_state", func() float64 { return float64(sh.breaker.State()) })
	if sh.tuner != nil {
		reg.GaugeFunc(p+"current_t", func() float64 { return float64(sh.tuner.Current().T) })
		reg.GaugeFunc(p+"current_c", func() float64 { return float64(sh.tuner.Current().C) })
	}
	if sh.sched != nil {
		reg.CounterFunc(p+"sched_admitted_total", func() uint64 { return sh.sched.Snapshot().Admitted })
		reg.CounterFunc(p+"sched_bypass_cool_total", func() uint64 { return sh.sched.Snapshot().BypassCool })
		reg.CounterFunc(p+"sched_bypass_wait_total", func() uint64 { return sh.sched.Snapshot().BypassWait })
		reg.CounterFunc(p+"sched_promotions_total", func() uint64 { return sh.sched.Snapshot().Promotions })
		reg.CounterFunc(p+"sched_demotions_total", func() uint64 { return sh.sched.Snapshot().Demotions })
		reg.GaugeFunc(p+"sched_domains", func() float64 { return float64(sh.sched.Snapshot().Domains) })
		reg.GaugeFunc(p+"sched_hot_domains", func() float64 { return float64(sh.sched.Snapshot().HotDomains) })
	}
	reg.RegisterHistogram(p+"latency_ms", sh.latency)
	for st := stage(0); st < numStages; st++ {
		reg.RegisterHistogram(p+"stage_"+stageNames[st]+"_ms", sh.stages[st])
	}
	if w := sh.wal; w != nil {
		reg.CounterFunc(p+"wal_appends_total", w.log.Appends)
		reg.CounterFunc(p+"wal_fsyncs_total", w.log.Fsyncs)
		reg.CounterFunc(p+"wal_bytes_total", w.log.Bytes)
		reg.CounterFunc(p+"wal_errors_total", w.log.Errors)
		reg.CounterFunc(p+"wal_snapshots_total", w.snapshots.Load)
		reg.CounterFunc(p+"wal_failed_acks_total", w.failedAcks.Load)
		reg.GaugeFunc(p+"wal_segments", func() float64 { return float64(w.log.Segments()) })
		reg.GaugeFunc(p+"wal_last_lsn", func() float64 { return float64(w.log.LastLSN()) })
		reg.GaugeFunc(p+"wal_recovery_duration_seconds", func() float64 { return w.recovery.DurationMS / 1e3 })
	}
}

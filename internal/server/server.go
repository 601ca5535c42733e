package server

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"autopn"
	"autopn/internal/chaos"
	"autopn/internal/obs"
	"autopn/internal/sched"
	"autopn/internal/stm"
	stmtrace "autopn/internal/stm/trace"
	"autopn/internal/wal"
)

// Options configures a Server. The zero value is completed with defaults
// sized for a small host; production deployments should set Shards and
// CoresPerShard explicitly.
type Options struct {
	// Addr is the TCP listen address (default "127.0.0.1:0").
	Addr string
	// HTTPAddr, if non-empty, serves the obs introspection surface
	// (/metrics, /status with the per-shard table, /debug/pprof).
	HTTPAddr string

	// Shards is the number of independent STM shards (default 4).
	Shards int
	// VNodes is the consistent-hash virtual-node count per shard
	// (default 64).
	VNodes int
	// Keys is the preloaded key-space size; keys are named KeyName(0) …
	// KeyName(Keys-1) (default 16384).
	Keys int

	// QueueDepth bounds each shard's admission queue; a full queue sheds
	// with ErrCodeOverload (default 256).
	QueueDepth int
	// WorkersPerShard is each shard's executor pool size (default
	// CoresPerShard; the tuner's actuator throttles actual STM admission
	// below this).
	WorkersPerShard int
	// RequestTimeout bounds a request from admission to reply; expired
	// requests get ErrCodeTimeout and feed the circuit breaker
	// (default 1s).
	RequestTimeout time.Duration
	// Breaker configures the per-shard circuit breakers.
	Breaker BreakerOptions

	// CoresPerShard is each shard tuner's core budget n ((t,c) with
	// t*c <= n; default max(2, NumCPU/Shards)).
	CoresPerShard int
	// DisableTuner runs the shards without tuners (tests); admission is
	// then unthrottled.
	DisableTuner bool
	// TunerMaxWindow bounds a tuner measurement window (default 1s).
	TunerMaxWindow time.Duration
	// Retune keeps each shard's tuner watching for workload change after
	// convergence (CUSUM) and re-tuning (default off; the server command
	// turns it on).
	Retune bool
	// Seed derives per-shard tuner seeds (default 1).
	Seed uint64

	// WALDir, if non-empty, enables per-shard durability: shard i logs
	// committed mutations to a write-ahead log under WALDir/shard-<i>/,
	// snapshots periodically, and on New replays snapshot + log tail into
	// its store before any traffic is admitted. The same directory holds
	// each shard's tuner checkpoint, so a recovered shard warm-starts its
	// tuner at the pre-crash last-known-good (t, c). See
	// docs/DURABILITY.md.
	WALDir string
	// WALSyncPolicy selects when appends are fsynced: "batch" (fsync
	// before every ack — the durable default), "interval" (timer-driven,
	// bounded loss window) or "none".
	WALSyncPolicy string
	// WALSyncInterval is the fsync period under the "interval" policy
	// (default 50ms).
	WALSyncInterval time.Duration
	// WALSegmentBytes caps a WAL segment before rotation (default 8MiB).
	WALSegmentBytes int64
	// SnapshotInterval is the period between per-shard snapshots; each
	// snapshot truncates the log behind it and checkpoints the tuner
	// (default 10s; negative disables periodic snapshots).
	SnapshotInterval time.Duration

	// DecisionLogDir, if non-empty, persists each shard's tuning decision
	// trail as DIR/shard-<i>.jsonl.
	DecisionLogDir string
	// DLQPath, if non-empty, writes the dead-letter log (shed, timed-out,
	// breaker-rejected, shutdown-dropped requests) as JSONL.
	DLQPath string

	// Injector, if non-nil, arms shard i's STM with Injector(i) — the
	// chaos hook that makes breaker and shedding paths testable
	// deterministically. Nil injectors disable chaos for that shard.
	Injector func(shard int) *chaos.Injector
	// LockFreeCommit selects the lock-free STM commit path per shard.
	LockFreeCommit bool

	// Sched configures the per-shard contention-aware scheduler (see
	// sched.go and docs/SCHEDULER.md); the zero value keeps it off.
	Sched SchedOptions

	// Trace configures end-to-end request tracing (see trace.go). The
	// tracer always exists; the zero value just keeps sampling off.
	Trace TraceOptions
}

func (o *Options) withDefaults() {
	if o.Addr == "" {
		o.Addr = "127.0.0.1:0"
	}
	if o.Shards <= 0 {
		o.Shards = 4
	}
	if o.VNodes <= 0 {
		o.VNodes = defaultVNodes
	}
	if o.Keys <= 0 {
		o.Keys = 16384
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 256
	}
	if o.CoresPerShard <= 0 {
		o.CoresPerShard = runtime.NumCPU() / o.Shards
		if o.CoresPerShard < 2 {
			o.CoresPerShard = 2
		}
	}
	if o.WorkersPerShard <= 0 {
		o.WorkersPerShard = o.CoresPerShard
	}
	if o.RequestTimeout <= 0 {
		o.RequestTimeout = time.Second
	}
	if o.TunerMaxWindow <= 0 {
		o.TunerMaxWindow = time.Second
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.WALSyncPolicy == "" {
		o.WALSyncPolicy = "batch"
	}
	if o.SnapshotInterval == 0 {
		o.SnapshotInterval = 10 * time.Second
	}
	o.Trace.withDefaults()
	o.Sched.withDefaults()
}

// Server is the sharded transactional serving layer. Build with New,
// start with Start, stop with Shutdown.
type Server struct {
	opts   Options
	ring   *Ring
	shards []*shard
	dlq    *DLQ
	reg    *obs.Registry

	ln     net.Listener
	httpLn net.Listener
	srv    *http.Server

	ctx    context.Context
	cancel context.CancelFunc

	accepting atomic.Bool
	connWG    sync.WaitGroup
	connMu    sync.Mutex
	conns     map[net.Conn]struct{}
	tunerWG   sync.WaitGroup
	started   time.Time

	shutdownOnce sync.Once
	shutdownRep  ShutdownReport

	latency *obs.Histogram // server-wide accepted-request latency (ms)

	tracer   *reqTracer                 // request tracer (always built; rate decides cost)
	stageAgg *[numStages]*obs.Histogram // server-wide stage latency histograms
	connSeq  atomic.Int64               // connection IDs for trace records
	reqs     reqPool                    // pooled requests (proto.go)
}

// New builds the server: shards, stores, breakers, tuners and logs. It
// does not listen yet; call Start.
func New(opts Options) (*Server, error) {
	opts.withDefaults()
	s := &Server{
		opts:     opts,
		ring:     NewRing(opts.Shards, opts.VNodes),
		reg:      obs.NewRegistry(),
		latency:  obs.NewHistogram(0),
		tracer:   newReqTracer(opts.Trace),
		stageAgg: newStageHists(),
	}
	s.ctx, s.cancel = context.WithCancel(context.Background())

	if opts.DLQPath != "" {
		dlq, err := NewDLQ(opts.DLQPath)
		if err != nil {
			return nil, fmt.Errorf("dead-letter log: %w", err)
		}
		s.dlq = dlq
	}
	if opts.DecisionLogDir != "" {
		if err := os.MkdirAll(opts.DecisionLogDir, 0o755); err != nil {
			return nil, fmt.Errorf("decision-log dir: %w", err)
		}
	}
	var walCfg walConfig
	if opts.WALDir != "" {
		policy, err := wal.ParseSyncPolicy(opts.WALSyncPolicy)
		if err != nil {
			return nil, err
		}
		if err := os.MkdirAll(opts.WALDir, 0o755); err != nil {
			return nil, fmt.Errorf("wal dir: %w", err)
		}
		walCfg = walConfig{
			policy:       policy,
			interval:     opts.WALSyncInterval,
			segmentBytes: opts.WALSegmentBytes,
			snapInterval: opts.SnapshotInterval,
		}
	}

	// Partition the key space across shards by the ring, then build each
	// shard's immutable store so request handling never takes a map lock.
	owned := make([]map[string]*stm.VBox[uint64], opts.Shards)
	for i := range owned {
		owned[i] = make(map[string]*stm.VBox[uint64])
	}
	for i := 0; i < opts.Keys; i++ {
		key := KeyName(i)
		owned[s.ring.Lookup(key)][key] = stm.NewVBox(uint64(0))
	}

	for i := 0; i < opts.Shards; i++ {
		var inj *chaos.Injector
		if opts.Injector != nil {
			inj = opts.Injector(i)
		}
		// Each shard gets its own STM span tracer with ambient sampling
		// off (TraceSampleRate 0): only transaction trees claimed by a
		// sampled request — via AtomicTraced, linked by its trace ID —
		// land in the span ring, keeping the untraced STM path at its
		// one-atomic-load cost.
		str := stmtrace.New(stmtrace.Options{MaxSpans: opts.Trace.STMMaxSpans})
		stmOpts := stm.Options{FaultInjector: inj, LockFreeCommit: opts.LockFreeCommit, Tracer: str}
		var shSched *sched.Scheduler
		if opts.Sched.Enabled {
			// The scheduler rides the same tracer: with it attached, every
			// attributed abort lands in the hot-box table even though the
			// ambient span sample rate stays 0 — the controller needs live
			// windowed contention, not a sampled sliver.
			shSched = sched.New(opts.Sched.schedOptions())
			stmOpts.Scheduler = shSched
		}
		sh := &shard{
			id:      i,
			stm:     stm.New(stmOpts),
			sched:   shSched,
			store:   owned[i],
			queue:   make(chan *request, opts.QueueDepth),
			stop:    make(chan struct{}),
			timeout: opts.RequestTimeout,
			breaker: NewBreaker(opts.Breaker),
			dlq:     s.dlq,
			ring:    obs.NewRing(64),
			latency: obs.NewHistogram(0),
			global:  s.latency,
			inj:     inj,
			tracer:  str,
			stages:  newStageHists(),
		}
		// Recovery runs here, before workers or tuners exist: the store is
		// rebuilt from snapshot + WAL tail and the tuner checkpoint is
		// loaded so the tuner below can warm-start from it.
		var warm *autopn.Checkpoint
		if opts.WALDir != "" {
			cfg := walCfg
			cfg.injector = inj
			w, cp, err := openShardWAL(sh, filepath.Join(opts.WALDir, fmt.Sprintf("shard-%d", i)), cfg)
			if err != nil {
				return nil, fmt.Errorf("shard %d wal: %w", i, err)
			}
			sh.wal = w
			warm = cp
		}
		// The decision trail (in-memory ring + optional JSONL file) is
		// shared by every decision producer on the shard — tuner and
		// scheduler controller — so it exists whenever either runs, not
		// only when the tuner does.
		recorders := obs.Multi{sh.ring}
		if opts.DecisionLogDir != "" {
			path := filepath.Join(opts.DecisionLogDir, fmt.Sprintf("shard-%d.jsonl", i))
			jsonl, err := obs.NewJSONLFile(path, 64<<20)
			if err != nil {
				return nil, fmt.Errorf("decision log shard %d: %w", i, err)
			}
			sh.jsonl = jsonl
			recorders = append(recorders, jsonl)
		}
		if !opts.DisableTuner {
			sh.tuner = autopn.NewTuner(sh.stm, autopn.Options{
				Cores:     opts.CoresPerShard,
				Seed:      opts.Seed + uint64(i)*7919,
				MaxWindow: opts.TunerMaxWindow,
				ReTune:    opts.Retune,
				Recorder:  recorders,
				WarmStart: warm,
			})
		}
		sh.registerMetrics(s.reg)
		s.shards = append(s.shards, sh)
	}
	s.registerMetrics()
	return s, nil
}

// registerMetrics bridges server-wide aggregates into the registry.
func (s *Server) registerMetrics() {
	sum := func(f func(*shard) uint64) func() uint64 {
		return func() uint64 {
			var t uint64
			for _, sh := range s.shards {
				t += f(sh)
			}
			return t
		}
	}
	s.reg.CounterFunc("autopn_server_accepted_total", sum(func(sh *shard) uint64 { return sh.accepted.Load() }))
	s.reg.CounterFunc("autopn_server_served_total", sum(func(sh *shard) uint64 { return sh.served.Load() }))
	s.reg.CounterFunc("autopn_server_shed_total", sum(func(sh *shard) uint64 { return sh.shed.Load() }))
	s.reg.CounterFunc("autopn_server_breaker_rejects_total", sum(func(sh *shard) uint64 { return sh.brkRejects.Load() }))
	s.reg.CounterFunc("autopn_server_timeouts_total", sum(func(sh *shard) uint64 { return sh.timeouts.Load() }))
	s.reg.CounterFunc("autopn_server_errors_total", sum(func(sh *shard) uint64 { return sh.userErrors.Load() }))
	s.reg.CounterFunc("autopn_server_breaker_opens_total", sum(func(sh *shard) uint64 { return sh.breaker.Opens() }))
	s.reg.CounterFunc("autopn_server_dlq_total", func() uint64 { return s.dlq.Count() })
	s.reg.CounterFunc("autopn_server_dlq_lost_total", func() uint64 { return s.dlq.Lost() })
	s.reg.CounterFunc("autopn_server_stm_top_commits_total", sum(func(sh *shard) uint64 { return sh.stm.Stats.TopCommits() }))
	s.reg.CounterFunc("autopn_server_stm_top_aborts_total", sum(func(sh *shard) uint64 { return sh.stm.Stats.TopAborts() }))
	if s.opts.Sched.Enabled {
		schedSum := func(f func(sched.Stats) uint64) func() uint64 {
			return func() uint64 {
				var t uint64
				for _, sh := range s.shards {
					if sh.sched != nil {
						t += f(sh.sched.Snapshot())
					}
				}
				return t
			}
		}
		s.reg.CounterFunc("autopn_sched_admitted_total", schedSum(func(st sched.Stats) uint64 { return st.Admitted }))
		s.reg.CounterFunc("autopn_sched_bypass_cool_total", schedSum(func(st sched.Stats) uint64 { return st.BypassCool }))
		s.reg.CounterFunc("autopn_sched_bypass_wait_total", schedSum(func(st sched.Stats) uint64 { return st.BypassWait }))
		s.reg.CounterFunc("autopn_sched_promotions_total", schedSum(func(st sched.Stats) uint64 { return st.Promotions }))
		s.reg.CounterFunc("autopn_sched_demotions_total", schedSum(func(st sched.Stats) uint64 { return st.Demotions }))
		s.reg.GaugeFunc("autopn_sched_domains", func() float64 {
			return float64(schedSum(func(st sched.Stats) uint64 { return uint64(st.Domains) })())
		})
		s.reg.GaugeFunc("autopn_sched_hot_domains", func() float64 {
			return float64(schedSum(func(st sched.Stats) uint64 { return uint64(st.HotDomains) })())
		})
	}
	s.reg.GaugeFunc("autopn_server_shards", func() float64 { return float64(len(s.shards)) })
	s.reg.GaugeFunc("autopn_server_queue_len", func() float64 {
		n := 0
		for _, sh := range s.shards {
			n += len(sh.queue)
		}
		return float64(n)
	})
	s.reg.RegisterHistogram("autopn_server_request_latency_ms", s.latency)

	if s.opts.WALDir != "" {
		walSum := func(f func(*shardWAL) uint64) func() uint64 {
			return func() uint64 {
				var t uint64
				for _, sh := range s.shards {
					if sh.wal != nil {
						t += f(sh.wal)
					}
				}
				return t
			}
		}
		s.reg.CounterFunc("autopn_server_wal_appends_total", walSum(func(w *shardWAL) uint64 { return w.log.Appends() }))
		s.reg.CounterFunc("autopn_server_wal_fsyncs_total", walSum(func(w *shardWAL) uint64 { return w.log.Fsyncs() }))
		s.reg.CounterFunc("autopn_server_wal_bytes_total", walSum(func(w *shardWAL) uint64 { return w.log.Bytes() }))
		s.reg.CounterFunc("autopn_server_wal_errors_total", walSum(func(w *shardWAL) uint64 { return w.log.Errors() }))
		s.reg.CounterFunc("autopn_server_wal_snapshots_total", walSum(func(w *shardWAL) uint64 { return w.snapshots.Load() }))
		s.reg.CounterFunc("autopn_server_wal_failed_acks_total", walSum(func(w *shardWAL) uint64 { return w.failedAcks.Load() }))
		s.reg.GaugeFunc("autopn_server_wal_segments", func() float64 {
			var t int64
			for _, sh := range s.shards {
				if sh.wal != nil {
					t += sh.wal.log.Segments()
				}
			}
			return float64(t)
		})
		s.reg.GaugeFunc("autopn_server_wal_recovery_duration_seconds", func() float64 {
			// The server admits traffic only after every shard recovered,
			// so the slowest shard is the gate's recovery time.
			var maxMS float64
			for _, sh := range s.shards {
				if sh.wal != nil && sh.wal.recovery.DurationMS > maxMS {
					maxMS = sh.wal.recovery.DurationMS
				}
			}
			return maxMS / 1e3
		})
	}

	s.reg.CounterFunc("autopn_server_traces_sampled_total", s.tracer.sampled.Load)
	s.reg.CounterFunc("autopn_server_traces_completed_total", s.tracer.completed.Load)
	s.reg.CounterFunc("autopn_server_traces_dropped_total", s.tracer.dropped.Load)
	s.reg.GaugeFunc("autopn_server_trace_sample_rate", s.tracer.sampleRate)
	for st := stage(0); st < numStages; st++ {
		s.reg.RegisterHistogram("autopn_server_stage_"+stageNames[st]+"_ms", s.stageAgg[st])
	}

	// Build identity and process lifetime (the flat registry has no labels,
	// so the version strings live in /status; the gauges carry the
	// convention: build_info is the constant 1, start time is unix seconds).
	s.reg.GaugeFunc("autopn_server_build_info", func() float64 { return 1 })
	s.reg.GaugeFunc("autopn_server_start_time_seconds", func() float64 {
		return float64(s.tracer.epoch.UnixNano()) / 1e9
	})
	s.reg.GaugeFunc("autopn_server_uptime_seconds", func() float64 {
		return time.Since(s.tracer.epoch).Seconds()
	})
}

// buildInfo extracts the module version and VCS revision stamped into the
// binary ("unknown" for test binaries built without VCS stamping).
func buildInfo() (goVersion, revision string) {
	goVersion = runtime.Version()
	revision = "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, kv := range bi.Settings {
			if kv.Key == "vcs.revision" {
				revision = kv.Value
			}
		}
	}
	return goVersion, revision
}

// Registry exposes the server's metrics registry (the HTTP introspection
// surface serves it; tests scrape it directly).
func (s *Server) Registry() *obs.Registry { return s.reg }

// Start begins listening, launches the shard workers and tuners, and
// returns once the server is accepting connections.
func (s *Server) Start() error {
	ln, err := net.Listen("tcp", s.opts.Addr)
	if err != nil {
		return err
	}
	s.ln = ln
	s.started = time.Now()
	s.accepting.Store(true)

	for _, sh := range s.shards {
		if sh.wal != nil {
			sh.wal.start(sh)
		}
		sh.runWorkers(s.opts.WorkersPerShard)
		if sh.tuner != nil {
			s.tunerWG.Add(1)
			go func() {
				defer s.tunerWG.Done()
				sh.tuner.Run(s.ctx)
			}()
		}
		if sh.sched != nil {
			s.tunerWG.Add(1)
			go func() {
				defer s.tunerWG.Done()
				sh.runSchedController(s.ctx, s.opts.Sched)
			}()
		}
	}

	if s.opts.HTTPAddr != "" {
		httpLn, err := net.Listen("tcp", s.opts.HTTPAddr)
		if err != nil {
			_ = ln.Close()
			return fmt.Errorf("http: %w", err)
		}
		s.httpLn = httpLn
		s.srv = &http.Server{Handler: obs.NewHandler(s.reg, func() any { return s.Status() },
			obs.Endpoint{
				Path:    "/debug/server/trace",
				Desc:    "merged request + STM spans as Chrome trace_event JSON (Perfetto-loadable)",
				Handler: http.HandlerFunc(s.serveTrace),
			})}
		go func() { _ = s.srv.Serve(httpLn) }()
	}

	go s.acceptLoop()
	return nil
}

// Addr returns the serving listener's address (valid after Start).
func (s *Server) Addr() string { return s.ln.Addr().String() }

// HTTPAddr returns the introspection listener's address ("" when off).
func (s *Server) HTTPAddr() string {
	if s.httpLn == nil {
		return ""
	}
	return s.httpLn.Addr().String()
}

func (s *Server) acceptLoop() {
	for {
		c, err := s.ln.Accept()
		if err != nil {
			return // listener closed by Shutdown
		}
		if !s.accepting.Load() {
			_ = c.Close()
			continue
		}
		s.connWG.Add(1)
		s.trackConn(c, true)
		go func() {
			defer s.connWG.Done()
			defer s.trackConn(c, false)
			s.serveConn(c)
		}()
	}
}

// trackConn registers/unregisters a live client connection so Shutdown
// can force-close connections that idle past the drain.
func (s *Server) trackConn(c net.Conn, add bool) {
	s.connMu.Lock()
	defer s.connMu.Unlock()
	if add {
		if s.conns == nil {
			s.conns = make(map[net.Conn]struct{})
		}
		s.conns[c] = struct{}{}
	} else {
		delete(s.conns, c)
	}
}

// maxPipelined bounds per-connection outstanding requests; a client
// pipelining deeper than this is back-pressured at its socket.
const maxPipelined = 1024

// maxLine bounds a request line, newline included; a longer one is answered
// ERR bad-request and the connection closed.
const maxLine = 64 << 10

// tracedReply is a written-but-not-yet-flushed reply of a traced request;
// the connection writer batches these and stamps all of them with one
// flush timestamp when the buffered writer actually hits the socket.
type tracedReply struct {
	req     *request
	outcome string
}

// serveConn handles one client connection: the reader parses and routes
// lines as fast as they arrive (this is what lets an open-loop client
// actually reach the shard queues instead of queueing in the kernel), the
// writer replies strictly in request order and then drops the connection
// side's reference on the request. The writer is also where sampled
// requests complete: their reply-flushed mark is the moment the batch
// containing their response reached the socket.
func (s *Server) serveConn(c net.Conn) {
	defer func() { _ = c.Close() }()
	connID := s.connSeq.Add(1)
	pending := make(chan *request, maxPipelined)
	done := make(chan struct{})

	go func() {
		defer close(done)
		w := bufio.NewWriter(c)
		line := make([]byte, 0, 64) // reply encoding scratch
		var traced []tracedReply
		// complete publishes the batched traces with one flush mark (0: the
		// replies never reached the socket).
		complete := func(flushNS int64) {
			for _, t := range traced {
				s.completeTrace(t.req.tr, t.outcome, flushNS)
				t.req.release()
			}
			traced = traced[:0]
		}
		var err error
		for req := range pending {
			rep := <-req.reply
			if err == nil {
				line = rep.appendTo(line[:0])
				_, err = w.Write(line)
			}
			if req.tr != nil {
				traced = append(traced, tracedReply{req, rep.outcome()})
			} else {
				req.release()
			}
			// Flush when no more replies are immediately pending (always
			// true of the last one), so pipelined bursts batch into few
			// syscalls. Once the client is gone the loop only keeps consuming
			// replies, so no request's finish() blocks; traces then complete
			// with no flush mark.
			if err == nil && len(pending) == 0 {
				if err = w.Flush(); err == nil && len(traced) > 0 {
					complete(s.tracer.now())
				}
			}
			if err != nil {
				complete(0)
			}
		}
	}()

	br := bufio.NewReaderSize(c, maxLine)
	var rerr error
	for rerr == nil {
		var line []byte
		if line, rerr = br.ReadSlice('\n'); len(line) == 0 {
			break // EOF or a dead socket, and no unterminated last line
		}
		req := s.reqs.get()
		code := ErrCodeBadRequest // an over-long line: answered, then the loop ends
		if rerr != bufio.ErrBufferFull {
			code = parseRequest(line, req)
		}
		if code != "" {
			req.finish(errReply(code))
		} else {
			if rt := s.tracer.maybeStart(req.clientTraceID, req.clientSend, connID); rt != nil {
				rt.op, req.tr = req.kind.String(), rt
				if len(req.keys) > 0 {
					rt.key = string(req.keys[0])
				}
			}
			s.route(req)
		}
		pending <- req
	}
	close(pending)
	<-done
	if rerr == bufio.ErrBufferFull {
		// The rest of the over-long line is still arriving; closing on
		// unread input resets the connection and can destroy the reply just
		// written. Half-close and discard briefly instead.
		if tc, ok := c.(*net.TCPConn); ok {
			_ = tc.CloseWrite()
		}
		_ = c.SetReadDeadline(time.Now().Add(time.Second))
		_, _ = io.Copy(io.Discard, io.LimitReader(c, 16*maxLine))
	}
}

// completeTrace finishes a sampled request: feeds the ok-path stage
// histograms (aggregate and owning shard) and publishes the snapshot to
// the trace ring. flushNS 0 means the reply never reached the socket.
func (s *Server) completeTrace(rt *reqTrace, outcome string, flushNS int64) {
	d := rt.snapshot(outcome, flushNS)
	if outcome == "ok" && d.Shard >= 0 {
		observeStages(d, s.stageAgg, s.shards[d.Shard].stages)
	}
	s.tracer.publish(d)
}

// SetTraceSampleRate adjusts the request-tracing sample rate at runtime
// (0 disables tracing; 1 traces everything).
func (s *Server) SetTraceSampleRate(rate float64) { s.tracer.setSampleRate(rate) }

// Traces returns a copy of the completed request-trace ring, oldest
// first (tests and tooling; the HTTP surface is /debug/server/trace).
func (s *Server) Traces() []ReqTraceData { return s.tracer.traces() }

// route hands the request to the shard owning its key(s).
func (s *Server) route(req *request) {
	if req.kind == opPing {
		req.finish(replyPong)
		return
	}
	id := s.ring.owner(hashKey(req.keys[0]))
	for _, k := range req.keys[1:] { // MADD
		if s.ring.owner(hashKey(k)) != id {
			req.finish(errReply(ErrCodeCrossShard))
			return
		}
	}
	s.shards[id].submit(req)
}

// Status is the /status payload: server identity plus the per-shard table
// of (t, c, phase), queue, breaker and traffic counters.
type Status struct {
	Addr          string  `json:"addr"`
	StartTime     string  `json:"start_time"` // process start, RFC 3339
	UptimeSeconds float64 `json:"uptime_seconds"`
	GoVersion     string  `json:"go_version"`
	Revision      string  `json:"revision"` // VCS revision ("unknown" unstamped)
	PID           int     `json:"pid"`

	Shards     int           `json:"shards"`
	Keys       int           `json:"keys"`
	QueueDepth int           `json:"queue_depth"`
	WALPolicy  string        `json:"wal_policy,omitempty"` // "" = durability off
	DLQCount   uint64        `json:"dlq_count"`
	DLQLost    uint64        `json:"dlq_lost,omitempty"`
	ShardTable []ShardStatus `json:"shard_table"`

	Accepted uint64 `json:"accepted"`
	Served   uint64 `json:"served"`
	Shed     uint64 `json:"shed"`
	Timeouts uint64 `json:"timeouts"`

	// Trace summarizes the request tracer; Stages is the server-wide
	// queue-wait vs. service-time decomposition of traced ok requests
	// (present once at least one stage latency was observed).
	Trace  *TraceStatus    `json:"trace,omitempty"`
	Stages *StageBreakdown `json:"stages,omitempty"`
}

// Status snapshots the server. Safe for concurrent use.
func (s *Server) Status() Status {
	goVersion, revision := buildInfo()
	st := Status{
		StartTime:  s.tracer.epoch.Format(time.RFC3339Nano),
		GoVersion:  goVersion,
		Revision:   revision,
		PID:        os.Getpid(),
		Shards:     len(s.shards),
		Keys:       s.opts.Keys,
		QueueDepth: s.opts.QueueDepth,
		DLQCount:   s.dlq.Count(),
		DLQLost:    s.dlq.Lost(),
	}
	if s.opts.WALDir != "" {
		st.WALPolicy = s.opts.WALSyncPolicy
	}
	if s.ln != nil {
		st.Addr = s.Addr()
		st.UptimeSeconds = time.Since(s.started).Seconds()
	}
	for _, sh := range s.shards {
		row := sh.status()
		st.ShardTable = append(st.ShardTable, row)
		st.Accepted += row.Accepted
		st.Served += row.Served
		st.Shed += row.Shed
		st.Timeouts += row.Timeouts
	}
	tr := s.tracer.status()
	st.Trace = &tr
	if b := breakdown(s.stageAgg); b.Queue.Count+b.Exec.Count+b.Commit.Count+b.Flush.Count > 0 {
		st.Stages = b
	}
	return st
}

// ShutdownReport summarizes a graceful shutdown.
type ShutdownReport struct {
	// Drained reports that every accepted request was answered before the
	// deadline.
	Drained bool
	// Abandoned is how many requests were still queued or executing when
	// the deadline expired (their deadline timers still answer them).
	Abandoned int
	// ShedAtShutdown is how many queued requests were answered with the
	// typed shutdown error instead of executing.
	ShedAtShutdown int
}

// Shutdown gracefully stops the server: it stops accepting connections
// and requests, drains in-flight requests bounded by timeout, then — on
// every path, drained or not — flushes all per-shard decision logs and
// the dead-letter log. timeout <= 0 means a 5s default. Shutdown is
// idempotent; later calls return the first call's report.
func (s *Server) Shutdown(timeout time.Duration) ShutdownReport {
	s.shutdownOnce.Do(func() { s.shutdownRep = s.doShutdown(timeout) })
	return s.shutdownRep
}

func (s *Server) doShutdown(timeout time.Duration) ShutdownReport {
	if timeout <= 0 {
		timeout = 5 * time.Second
	}
	deadline := time.Now().Add(timeout)
	var rep ShutdownReport

	// 1. Refuse new work: no new connections, no new admissions.
	s.accepting.Store(false)
	if s.ln != nil {
		_ = s.ln.Close()
	}
	for _, sh := range s.shards {
		sh.draining.Store(true)
	}

	// 2. Bounded drain of requests already admitted to execution. Queued
	// requests that have not started are answered with the shutdown error
	// (they would only add latency to the drain); executing ones get
	// until the deadline.
	for _, sh := range s.shards {
		rep.ShedAtShutdown += sh.drainQueue()
	}
	rep.Drained = true
	for _, sh := range s.shards {
		for sh.executing.Load() > 0 {
			if time.Now().After(deadline) {
				rep.Drained = false
				break
			}
			time.Sleep(time.Millisecond)
			rep.ShedAtShutdown += sh.drainQueue() // races with submit flips
		}
		rep.Abandoned += int(sh.executing.Load()) + len(sh.queue)
	}

	// 3. Stop workers and tuners. A worker wedged inside a stalled commit
	// stays behind (counted above); its request's deadline timer already
	// answers the client.
	for _, sh := range s.shards {
		close(sh.stop)
	}
	s.cancel()
	tunersDone := make(chan struct{})
	go func() {
		s.tunerWG.Wait()
		close(tunersDone)
	}()
	select {
	case <-tunersDone:
	case <-time.After(time.Until(deadline)):
	}

	// 4. Close the introspection server and client connections. A short
	// grace lets connection writers flush replies already produced by the
	// drain; idle clients would otherwise hold their reader goroutines
	// open forever, so remaining connections are then force-closed.
	if s.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		_ = s.srv.Shutdown(ctx)
		cancel()
	}
	time.Sleep(100 * time.Millisecond)
	s.connMu.Lock()
	for c := range s.conns {
		_ = c.Close()
	}
	s.connMu.Unlock()
	connsDone := make(chan struct{})
	go func() {
		s.connWG.Wait()
		close(connsDone)
	}()
	select {
	case <-connsDone:
		// No reader is left to submit. A request that slipped into a queue
		// behind the drain above, with the workers already gone, gets its
		// reply here and gives up the exec side's reference.
		for _, sh := range s.shards {
			rep.ShedAtShutdown += sh.drainQueue()
		}
	case <-time.After(time.Until(deadline) + s.opts.RequestTimeout):
		// Writers blocked on abandoned replies unblock once the deadline
		// timers fire (at most RequestTimeout after admission); past that
		// something is truly wedged and we stop waiting.
	}

	// 5. Seal durability and flush every log — the whole point of a
	// graceful exit. This runs on every path, including a failed drain,
	// so an interrupted server still leaves complete decision and
	// dead-letter trails (the PR 2 die-unflushed bug pattern must not
	// recur). Each shard's WAL gets a final snapshot, a final tuner
	// checkpoint and the shutdown record + CLEAN marker, and its decision
	// log records the clean shutdown so the analyzer's timeline shows
	// where one lifetime ended and the next began.
	for _, sh := range s.shards {
		if sh.wal != nil {
			sh.wal.shutdownClean(sh)
		}
		if sh.tuner != nil {
			cur := sh.tuner.Current()
			d := obs.Decision{
				Kind: obs.KindShutdown,
				T:    cur.T, C: cur.C,
				Note: fmt.Sprintf("drained=%v abandoned=%d", rep.Drained, rep.Abandoned),
			}
			sh.ring.Record(d)
			if sh.jsonl != nil {
				sh.jsonl.Record(d)
			}
		}
		if sh.jsonl != nil {
			_ = sh.jsonl.Close()
		}
	}
	_ = s.dlq.Close()
	return rep
}

package server

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"autopn"
	"autopn/internal/chaos"
	"autopn/internal/stm"
	"autopn/internal/wal"
)

// This file wires the wal package into the serving layer: each shard owns
// a shardWAL that (a) replays snapshot + log tail into the shard's store
// before traffic is admitted, (b) makes every acked update durable through
// a single group-batching writer goroutine, (c) snapshots periodically and
// truncates the log behind each snapshot, and (d) checkpoints the shard's
// tuner alongside the data so a recovered shard warm-starts at its
// pre-crash last-known-good (t, c) instead of re-running a cold
// initial-sampling session. See docs/DURABILITY.md.

// errWAL is the typed execution error of a failed durability ack.
var errWAL error = errCode(ErrCodeWAL)

// tunerCheckpointName is the per-shard tuner checkpoint file inside the
// shard's WAL directory.
const tunerCheckpointName = "tuner.json"

// keyIndex maps a protocol key name (the KeyName "k%06d" form) to its
// compact WAL key index. Only store-resident keys reach the WAL path, so
// a parse failure means the key space and the log format drifted — the
// caller skips such keys rather than logging garbage.
func keyIndex[T string | []byte](key T) (uint32, bool) {
	if len(key) < 2 || key[0] != 'k' {
		return 0, false
	}
	n, ok := parseUint(key[1:])
	return uint32(n), ok && n <= math.MaxUint32
}

// walConfig is the per-shard durability configuration derived from
// Options.
type walConfig struct {
	policy       wal.SyncPolicy
	interval     time.Duration
	segmentBytes int64
	snapInterval time.Duration
	injector     *chaos.Injector
}

// walSubmit is one worker's durability request: entries to persist and a
// channel the writer answers once the batch containing them is appended
// (and, under the per-batch policy, fsynced). done is nil under the
// interval/none policies: their contract is a bounded durability window,
// so the ack does not wait for the append. The single-key common case
// travels inline in one (copied through the channel, no allocation);
// multi is non-nil only for multi-key MADD batches: it aliases owner's
// entry scratch, so send takes a reference on owner that the writer drops
// once it has copied the entries out.
type walSubmit struct {
	one   wal.Entry
	multi []wal.Entry
	owner *request
	done  chan error
}

// RecoveryStatus describes the crash-recovery pass a shard ran inside New,
// before any traffic was admitted (part of /status).
type RecoveryStatus struct {
	// DurationMS is the wall time of open + replay + store restore.
	DurationMS float64 `json:"duration_ms"`
	// CleanShutdown reports the log ended with a graceful shutdown record;
	// SkippedScan additionally reports the CLEAN marker let Open skip the
	// torn-tail scan entirely.
	CleanShutdown bool `json:"clean_shutdown"`
	SkippedScan   bool `json:"skipped_scan,omitempty"`
	// SnapshotLSN is the LSN the loaded snapshot covered (0 = no snapshot).
	SnapshotLSN uint64 `json:"snapshot_lsn,omitempty"`
	// ReplayRecords / ReplayEntries count the WAL tail replayed on top of
	// the snapshot image.
	ReplayRecords int `json:"replay_records"`
	ReplayEntries int `json:"replay_entries"`
	// KeysRestored is how many keys were written back into the store.
	KeysRestored int `json:"keys_restored"`
	// TornBytes is how much of the tail was discarded as torn.
	TornBytes int64 `json:"torn_bytes,omitempty"`
	// Epoch is the new log epoch this lifetime writes under.
	Epoch uint32 `json:"epoch"`
	// WarmStart reports a tuner checkpoint was found and handed to the
	// shard's tuner.
	WarmStart bool `json:"warm_start,omitempty"`
}

// WALStatus is the durability block of one shard's /status row.
type WALStatus struct {
	Policy      string          `json:"policy"`
	Appends     uint64          `json:"appends"`
	Fsyncs      uint64          `json:"fsyncs"`
	Bytes       uint64          `json:"bytes"`
	Errors      uint64          `json:"errors"`
	Rotations   uint64          `json:"rotations,omitempty"`
	Segments    int64           `json:"segments"`
	LastLSN     uint64          `json:"last_lsn"`
	Epoch       uint32          `json:"epoch"`
	Snapshots   uint64          `json:"snapshots"`
	SnapshotLSN uint64          `json:"snapshot_lsn"`
	SnapErrors  uint64          `json:"snapshot_errors,omitempty"`
	FailedAcks  uint64          `json:"failed_acks,omitempty"`
	Recovery    *RecoveryStatus `json:"recovery,omitempty"`
}

// shardWAL owns one shard's durability state: the log, the single writer
// goroutine that group-batches worker submissions, and the snapshotter.
type shardWAL struct {
	log *wal.Log
	dir string
	cfg walConfig

	submit chan walSubmit
	stop   chan struct{}
	wg     sync.WaitGroup

	// subMu fences logEntries against close: close takes the write lock
	// after flipping closed, so the writer goroutine only exits once no
	// submission is in flight and no new one can start.
	subMu  sync.RWMutex
	closed bool

	snapshots   atomic.Uint64
	snapSkips   atomic.Uint64
	snapErrors  atomic.Uint64
	lastSnapLSN atomic.Uint64
	failedAcks  atomic.Uint64

	recovery RecoveryStatus // immutable after openShardWAL
}

// openShardWAL opens shard sh's log in dir, rebuilds the store from the
// newest snapshot plus the surviving WAL tail, and returns the ready
// shardWAL plus the tuner checkpoint found alongside (nil = cold start).
//
// Replay is exact despite append order differing from commit order:
// entries carry the absolute post-state of each key and the STM commit
// version that published it, application is last-writer-wins on
// (epoch, version), and the snapshot image is seeded at (snapshot epoch,
// snapshot read version) so older-but-later-appended records cannot win.
func openShardWAL(sh *shard, dir string, cfg walConfig) (*shardWAL, *autopn.Checkpoint, error) {
	start := time.Now()
	lg, ost, err := wal.Open(dir, wal.Options{
		SegmentBytes: cfg.segmentBytes,
		Policy:       cfg.policy,
		Interval:     cfg.interval,
		Injector:     cfg.injector,
	})
	if err != nil {
		return nil, nil, err
	}
	snap, err := wal.LoadSnapshot(dir)
	if err != nil {
		_ = lg.Close()
		return nil, nil, err
	}

	type verVal struct {
		val, ver uint64
		epoch    uint32
	}
	state := make(map[uint32]verVal)
	maxEpoch := ost.MaxEpoch
	var snapLSN uint64
	if snap != nil {
		for i := range snap.Keys {
			state[snap.Keys[i]] = verVal{val: snap.Vals[i], ver: snap.AsOf, epoch: snap.Epoch}
		}
		if snap.Epoch > maxEpoch {
			maxEpoch = snap.Epoch
		}
		snapLSN = snap.LSN
	}
	newer := func(e uint32, v uint64, curE uint32, curV uint64) bool {
		return e > curE || (e == curE && v > curV)
	}
	rs, err := wal.Replay(dir, func(lsn uint64, epoch uint32, entries []wal.Entry) error {
		if lsn <= snapLSN {
			return nil // subsumed: committed before the snapshot read began
		}
		for _, e := range entries {
			cur, ok := state[e.Key]
			if !ok || newer(epoch, e.Ver, cur.epoch, cur.ver) {
				state[e.Key] = verVal{val: e.Val, ver: e.Ver, epoch: epoch}
			}
		}
		return nil
	})
	if err != nil {
		_ = lg.Close()
		return nil, nil, err
	}
	if rs.MaxEpoch > maxEpoch {
		maxEpoch = rs.MaxEpoch
	}

	// Write the recovered image back into the store. Boxes preload zero,
	// so zero-valued keys need no write; the rest apply in chunked update
	// transactions (the shard has no traffic yet — these cannot conflict).
	type apply struct {
		box *stm.VBox[uint64]
		val uint64
	}
	var todo []apply
	for idx, vv := range state {
		if vv.val == 0 {
			continue
		}
		if box, ok := sh.store[KeyName(int(idx))]; ok {
			todo = append(todo, apply{box, vv.val})
		}
	}
	const applyChunk = 512
	for at := 0; at < len(todo); at += applyChunk {
		end := at + applyChunk
		if end > len(todo) {
			end = len(todo)
		}
		part := todo[at:end]
		if err := sh.stm.AtomicCtx(context.Background(), func(tx *stm.Tx) error {
			for _, a := range part {
				a.box.Set(tx, a.val)
			}
			return nil
		}); err != nil {
			_ = lg.Close()
			return nil, nil, err
		}
	}

	// Every version this lifetime publishes must order after everything on
	// disk: start a fresh epoch above the maximum seen anywhere.
	lg.SetEpoch(maxEpoch + 1)

	cp := loadTunerCheckpoint(filepath.Join(dir, tunerCheckpointName))
	w := &shardWAL{
		log:    lg,
		dir:    dir,
		cfg:    cfg,
		submit: make(chan walSubmit, 256),
		stop:   make(chan struct{}),
	}
	w.lastSnapLSN.Store(snapLSN)
	w.recovery = RecoveryStatus{
		DurationMS:    float64(time.Since(start)) / float64(time.Millisecond),
		CleanShutdown: ost.CleanShutdown,
		SkippedScan:   ost.SkippedScan,
		SnapshotLSN:   snapLSN,
		ReplayRecords: rs.Records,
		ReplayEntries: rs.Entries,
		KeysRestored:  len(todo),
		TornBytes:     ost.TornBytes,
		Epoch:         lg.Epoch(),
		WarmStart:     cp != nil,
	}
	return w, cp, nil
}

// start launches the writer and (when configured) the snapshotter.
func (w *shardWAL) start(sh *shard) {
	w.wg.Add(1)
	go w.run()
	if w.cfg.snapInterval > 0 {
		w.wg.Add(1)
		go w.snapLoop(sh)
	}
}

// run is the shard's single WAL writer: it folds every submission that
// raced in since the previous append into one batch record, so a
// group-committed burst of transactions costs one AppendBatch and — under
// the per-batch policy — one fsync for the whole group (the WAL-side
// mirror of the STM's group commit).
func (w *shardWAL) run() {
	defer w.wg.Done()
	var batch []wal.Entry
	var waiters []chan error
	for {
		select {
		case sub := <-w.submit:
			batch, waiters = appendSubmit(batch[:0], waiters[:0], sub)
		fold:
			for {
				select {
				case more := <-w.submit:
					batch, waiters = appendSubmit(batch, waiters, more)
				default:
					break fold
				}
			}
			_, err := w.log.AppendBatch(batch)
			for _, done := range waiters {
				done <- err
			}
		case <-w.stop:
			// close() guarantees no submission is in flight by now, but
			// buffered ones may still be queued — and fire-and-forget
			// entries were already acked to clients, so they must reach
			// the log, not be dropped. Append the remainder, then answer
			// any waiters.
			batch, waiters = batch[:0], waiters[:0]
			for {
				select {
				case sub := <-w.submit:
					batch, waiters = appendSubmit(batch, waiters, sub)
				default:
					var err error
					if len(batch) > 0 {
						_, err = w.log.AppendBatch(batch)
					}
					for _, done := range waiters {
						done <- err
					}
					return
				}
			}
		}
	}
}

// appendSubmit folds one submission into the writer's pending batch.
func appendSubmit(batch []wal.Entry, waiters []chan error, sub walSubmit) ([]wal.Entry, []chan error) {
	if sub.multi != nil {
		batch = append(batch, sub.multi...)
		sub.owner.release()
	} else {
		batch = append(batch, sub.one)
	}
	if sub.done != nil {
		waiters = append(waiters, sub.done)
	}
	return batch, waiters
}

// send hands one submission to the writer. Under the per-batch policy it
// blocks until the batch containing it is appended and fsynced — the ack
// waits for durability. Under interval/none the durability window is
// already bounded by the policy, so the submission is fire-and-forget and
// only the log's sticky error (a previous append having failed) is
// surfaced, keeping the poisoned-log/breaker contract without paying a
// writer round trip per request.
func (w *shardWAL) send(sub walSubmit) error {
	w.subMu.RLock()
	if w.closed {
		w.subMu.RUnlock()
		return wal.ErrClosed
	}
	if sub.owner != nil {
		sub.owner.refs.Add(1) // the writer's, dropped in appendSubmit
	}
	if w.cfg.policy != wal.SyncBatch {
		w.submit <- sub
		w.subMu.RUnlock()
		return w.log.Err()
	}
	sub.done = make(chan error, 1)
	w.submit <- sub
	w.subMu.RUnlock()
	return <-sub.done
}

// close stops the writer and snapshotter. Safe against in-flight
// logEntries calls: the closed flag is published under the write lock, so
// the writer drains everything already submitted before exiting.
func (w *shardWAL) close() {
	w.subMu.Lock()
	if w.closed {
		w.subMu.Unlock()
		return
	}
	w.closed = true
	w.subMu.Unlock()
	close(w.stop)
	w.wg.Wait()
}

// shutdownClean seals the shard's durability state on graceful shutdown:
// stop the writer, take a final snapshot + tuner checkpoint (so restart
// replays almost nothing), and leave the shutdown record + CLEAN marker
// that lets the next Open skip the torn-tail scan.
func (w *shardWAL) shutdownClean(sh *shard) {
	w.close()
	w.doSnapshot(sh)
	_ = w.log.CloseClean()
}

// snapLoop snapshots on a timer.
func (w *shardWAL) snapLoop(sh *shard) {
	defer w.wg.Done()
	t := time.NewTicker(w.cfg.snapInterval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			w.doSnapshot(sh)
		case <-w.stop:
			return
		}
	}
}

// doSnapshot writes one snapshot of the shard's entire key space and
// truncates the log behind it, then checkpoints the tuner alongside.
//
// The LSN floor is captured BEFORE the read transaction begins: every
// record at or below it committed before the read, so the snapshot
// subsumes it and truncation is safe. Records appended concurrently with
// the read may or may not be reflected in the image; replay stays exact
// because the image is seeded at the read version and application is
// last-writer-wins on (epoch, version). The snapshot deliberately stores
// every owned key — including zeros — so replay's seeding covers keys
// whose newest state was appended *earlier* in the log than older states
// (append order is not commit order).
func (w *shardWAL) doSnapshot(sh *shard) {
	floor := w.log.LastLSN()
	keys := make([]uint32, 0, len(sh.store))
	vals := make([]uint64, 0, len(sh.store))
	var asOf uint64
	if err := sh.stm.AtomicReadOnly(func(tx *stm.Tx) error {
		keys, vals = keys[:0], vals[:0]
		for k, box := range sh.store {
			idx, ok := keyIndex(k)
			if !ok {
				continue
			}
			keys = append(keys, idx)
			vals = append(vals, box.Get(tx))
		}
		asOf = tx.ReadVersion()
		return nil
	}); err != nil {
		w.snapErrors.Add(1)
		return
	}
	s := &wal.Snapshot{LSN: floor, Epoch: w.log.Epoch(), AsOf: asOf, Keys: keys, Vals: vals}
	if err := wal.WriteSnapshot(w.dir, s, w.cfg.injector); err != nil {
		if err == wal.ErrSnapshotSkipped {
			w.snapSkips.Add(1)
		} else {
			w.snapErrors.Add(1)
		}
		return
	}
	w.snapshots.Add(1)
	w.lastSnapLSN.Store(floor)
	if _, err := w.log.TruncateTo(floor); err != nil {
		w.snapErrors.Add(1)
	}
	if sh.tuner != nil {
		if err := saveTunerCheckpoint(filepath.Join(w.dir, tunerCheckpointName), sh.tuner.Checkpoint()); err != nil {
			w.snapErrors.Add(1)
		}
	}
}

// status snapshots the durability block for /status.
func (w *shardWAL) status() *WALStatus {
	rec := w.recovery
	return &WALStatus{
		Policy:      w.cfg.policy.String(),
		Appends:     w.log.Appends(),
		Fsyncs:      w.log.Fsyncs(),
		Bytes:       w.log.Bytes(),
		Errors:      w.log.Errors(),
		Rotations:   w.log.Rotations(),
		Segments:    w.log.Segments(),
		LastLSN:     w.log.LastLSN(),
		Epoch:       w.log.Epoch(),
		Snapshots:   w.snapshots.Load(),
		SnapshotLSN: w.lastSnapLSN.Load(),
		SnapErrors:  w.snapErrors.Load() + w.snapSkips.Load(),
		FailedAcks:  w.failedAcks.Load(),
		Recovery:    &rec,
	}
}

// walOps maps an update's opKind to its WAL record op.
var walOps = [...]uint8{opPut: wal.OpPut, opAdd: wal.OpAdd, opMAdd: wal.OpMAdd}

// logUpdate makes one committed update durable before the ack is sent:
// one entry per key, holding the post-state the transaction left in
// req.vals, built in the request's own scratch. It is a no-op with
// durability off, and translates a log failure into the typed errWAL the
// execute loop maps onto the breaker.
func (sh *shard) logUpdate(req *request, ver uint64) error {
	if sh.wal == nil {
		return nil
	}
	req.entries = req.entries[:0]
	for i, k := range req.keys {
		if idx, ok := keyIndex(k); ok {
			req.entries = append(req.entries, wal.Entry{Op: walOps[req.kind], Key: idx, Val: req.vals[i], Ver: ver})
		}
	}
	switch len(req.entries) {
	case 0:
		return nil
	case 1:
		return sh.walAck(sh.wal.send(walSubmit{one: req.entries[0]}))
	}
	return sh.walAck(sh.wal.send(walSubmit{multi: req.entries, owner: req}))
}

func (sh *shard) walAck(err error) error {
	if err == nil {
		return nil
	}
	sh.wal.failedAcks.Add(1)
	return errWAL
}

// saveTunerCheckpoint persists cp atomically (tmp + rename) so a crash
// mid-checkpoint leaves the previous one intact.
func saveTunerCheckpoint(path string, cp autopn.Checkpoint) error {
	b, err := json.MarshalIndent(cp, "", "  ")
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, b, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// loadTunerCheckpoint reads a checkpoint; missing or corrupt files mean a
// cold start, never a failed boot.
func loadTunerCheckpoint(path string) *autopn.Checkpoint {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil
	}
	var cp autopn.Checkpoint
	if err := json.Unmarshal(b, &cp); err != nil {
		return nil
	}
	return &cp
}

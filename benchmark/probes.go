package main

import (
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"

	"autopn/internal/core"
	"autopn/internal/m5"
	"autopn/internal/monitor"
	"autopn/internal/obs"
	"autopn/internal/sched"
	"autopn/internal/server"
	"autopn/internal/simcore"
	"autopn/internal/smbo"
	"autopn/internal/space"
	"autopn/internal/stats"
	"autopn/internal/stm"
	"autopn/internal/surface"
	"autopn/internal/wal"
)

// The probes time direct calls into one layer's exported functions, fed
// with inputs from the workload's own generator. A probe runs probeBatches
// batches of calls and reports the median batch's time per call, so a
// burst from a noisy neighbour moves one batch, not the number.
const probeBatches = 15

// perCall returns the median over batches of the time per call, in ns.
func perCall(calls int, f func(i int)) float64 {
	per := make([]float64, probeBatches)
	for b := range per {
		t0 := time.Now()
		for i := 0; i < calls; i++ {
			f(i)
		}
		per[b] = float64(time.Since(t0)) / float64(calls)
	}
	return median(per)
}

// allocsPer returns the heap allocations per call of f.
func allocsPer(calls int, f func(i int)) float64 {
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	for i := 0; i < calls; i++ {
		f(i)
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / float64(calls)
}

// share is part/(part+rest), 0 when both are 0.
func share(part, rest uint64) float64 {
	if part+rest == 0 {
		return 0
	}
	return float64(part) / float64(part+rest)
}

// mutexRef is the fixed reference beside the STM rows: the same increment
// under a sync.Mutex.
func mutexRef(calls int) float64 {
	var mu sync.Mutex
	var counter uint64
	return perCall(calls, func(int) {
		mu.Lock()
		counter++
		mu.Unlock()
	})
}

// kvProbes covers the layers under a served request: ring, histogram, flat
// STM transactions and the cold scheduler gate.
func kvProbes(e env, m map[string]float64) error {
	calls := e.size(200_000)
	layout := newKeyLayout(e.seed, e.keys())
	gen := newKVGen(layout, e.seed, 0, kvMix{get: 100})
	// The keys of the workload's own zipf stream, as the strings the
	// server routes on.
	keys := make([]string, 1024)
	idx := make([]int32, len(keys))
	for i := range keys {
		idx[i] = gen.hotKey()
		keys[i] = server.KeyName(int(idx[i]))
	}

	ring := server.NewRing(kvShards, kvVNodes)
	m["server.ring_lookup_ns"] = perCall(calls, func(i int) { ring.Lookup(keys[i%len(keys)]) })
	hist := obs.NewHistogram(0)
	m["obs.hist_observe_ns"] = perCall(calls, func(i int) { hist.Observe(float64(i)) })
	cold := sched.New(sched.Options{})
	m["sched.admit_cold_ns"] = perCall(calls, func(i int) { cold.Leave(cold.Admit(uintptr(i))) })
	m["stm.mutex_ref_ns"] = mutexRef(calls)

	// Flat transactions of the shapes the server runs: GET is a
	// read-only transaction on one box, ADD a read-modify-write.
	s := stm.New(stm.Options{})
	boxes := make([]*stm.VBox[uint64], layout.keys)
	for i := range boxes {
		boxes[i] = stm.NewVBox(layout.initial[i])
	}
	var box *stm.VBox[uint64]
	var sink uint64
	read := func(tx *stm.Tx) error { sink = box.Get(tx); return nil }
	add := func(tx *stm.Tx) error { box.Set(tx, box.Get(tx)+1); return nil }
	roTx := func(i int) { box = boxes[idx[i%len(idx)]]; _ = s.AtomicReadOnly(read) }
	writeTx := func(i int) { box = boxes[idx[i%len(idx)]]; _ = s.Atomic(add) }
	m["stm.ro_tx_ns"] = perCall(calls, roTx)
	m["stm.allocs_per_ro_tx"] = allocsPer(calls, roTx)
	m["stm.write_tx_ns"] = perCall(calls, writeTx)
	m["stm.allocs_per_write_tx"] = allocsPer(calls, writeTx)
	_ = sink

	// How update commits split between the inline fast path and the
	// combiner, and how often an install reuses a pooled version
	// record, with two writers as in the server's two workers.
	before := s.Stats.Snapshot()
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			gen := newKVGen(layout, e.seed, g+2, kvMix{get: 100})
			var mine *stm.VBox[uint64]
			inc := func(tx *stm.Tx) error { mine.Set(tx, mine.Get(tx)+1); return nil }
			for i := 0; i < calls; i++ {
				mine = boxes[gen.hotKey()]
				_ = s.Atomic(inc)
			}
		}()
	}
	wg.Wait()
	after := s.Stats.Snapshot()
	inline := after.InlineCommits - before.InlineCommits
	combined := after.CombinedCommits - before.CombinedCommits
	m["stm.inline_commit_share"] = share(inline, combined)
	if batches := after.CombineBatches - before.CombineBatches; batches > 0 {
		m["stm.combine_batch_mean"] = float64(combined) / float64(batches)
	}
	m["stm.body_pool_hit_share"] = share(after.BodyPoolHits-before.BodyPoolHits, after.BodyPoolMisses-before.BodyPoolMisses)
	return nil
}

// walProbes times the log directly: an 8-entry batch append with and
// without the fsync, and a snapshot of one shard's share of the keys.
func walProbes(e env, m map[string]float64) error {
	if err := os.MkdirAll(e.outDir, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(e.outDir, "walprobe-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	entries := make([]wal.Entry, 8)
	appendNs := func(policy wal.SyncPolicy, sub string, calls int) (float64, error) {
		log, _, err := wal.Open(dir+"/"+sub, wal.Options{Policy: policy})
		if err != nil {
			return 0, err
		}
		var appendErr error
		ns := perCall(calls, func(i int) {
			for j := range entries {
				entries[j] = wal.Entry{Op: wal.OpAdd, Key: uint32(i + j), Val: uint64(i), Ver: uint64(i + 1)}
			}
			if _, err := log.AppendBatch(entries); err != nil {
				appendErr = err
			}
		})
		if err := log.Close(); appendErr == nil {
			appendErr = err
		}
		return ns, appendErr
	}
	if m["wal.append_ns"], err = appendNs(wal.SyncBatch, "sync", e.size(2000)/probeBatches+1); err != nil {
		return fmt.Errorf("wal append: %w", err)
	}
	if m["wal.append_nosync_ns"], err = appendNs(wal.SyncNone, "nosync", e.size(200_000)/probeBatches+1); err != nil {
		return fmt.Errorf("wal append without sync: %w", err)
	}

	n := e.keys() / kvShards
	snap := &wal.Snapshot{Keys: make([]uint32, n), Vals: make([]uint64, n)}
	for i := range snap.Keys {
		snap.Keys[i], snap.Vals[i] = uint32(i), uint64(i)
	}
	took := make([]float64, 5)
	for i := range took {
		snap.LSN = uint64(i + 1)
		t0 := time.Now()
		if err := wal.WriteSnapshot(dir, snap, nil); err != nil {
			return fmt.Errorf("wal snapshot: %w", err)
		}
		took[i] = time.Since(t0).Seconds()
	}
	m["wal.snapshot_s"] = median(took)
	return nil
}

// nestedProbes covers the layers of one stm-nested operation: the nested
// transaction itself, the actuator's two gates and the monitor's hook.
func nestedProbes(e env, m map[string]float64) error {
	calls := e.size(2000)
	n := openNested(e.seed)
	w := n.workers[0]
	tx := func(int) { w.pick(); _ = n.s.Atomic(w.top) }
	m["stm.nested_tx_ns"] = perCall(calls, tx)
	m["stm.allocs_per_nested_tx"] = allocsPer(calls, tx)

	calls = e.size(200_000)
	m["pnpool.enter_exit_ns"] = perCall(calls, func(int) { n.pool.EnterTop(); n.pool.ExitTop() })
	m["pnpool.gate_ns"] = perCall(calls, func(int) {
		g := n.pool.NewTreeGate()
		g.EnterChild()
		g.ExitChild()
	})
	live := monitor.NewLive(monitor.NewWallClock())
	m["monitor.on_commit_ns"] = perCall(calls, func(int) { live.OnCommit() })
	m["stm.mutex_ref_ns"] = mutexRef(calls)
	return nil
}

// tuneProbes covers the tuner's own loop: one M5 tree, one bagged
// surrogate fit, one EI scan of the 48-core space, and what a call to Next
// allocates.
func tuneProbes(e env, m map[string]float64) error {
	w := surface.AllWorkloads()[0]
	sp := space.New(w.Cores)
	rng := stats.NewRNG(mix(e.seed, 0x70726f6265))

	data := make([]m5.Instance, 30)
	for i := range data {
		cfg := sp.At(i * sp.Size() / len(data))
		data[i] = m5.Instance{X: smbo.Features(cfg), Y: w.Measure(cfg, rng)}
	}
	calls := e.size(2000)
	m["m5.train_ns"] = perCall(calls, func(int) { m5.Train(data, m5.DefaultOptions()) })

	observed := make([]smbo.Observation, 9)
	explored := map[space.Config]bool{}
	best := 0.0
	for i, cfg := range sp.BiasedSample(len(observed)) {
		observed[i] = smbo.Observation{Cfg: cfg, KPI: w.Measure(cfg, rng)}
		explored[cfg] = true
		best = max(best, observed[i].KPI)
	}
	var sur *smbo.Surrogate
	m["smbo.fit_ns"] = perCall(e.size(1000), func(int) { sur = smbo.Fit(observed, smbo.DefaultEnsembleSize, rng, nil) })
	m["smbo.suggest_ei_ns"] = perCall(e.size(1000), func(int) { smbo.SuggestEI(sp, sur, explored, best) })

	// Allocations of Next alone, over whole sessions: the collector's
	// counters are read around every call.
	var mallocs, nexts uint64
	var m0, m1 runtime.MemStats
	for i := 0; i < max(20/e.scale, 1); i++ {
		r := stats.NewRNG(mix(e.seed, uint64(i)))
		sim := simcore.New(w, r.Uint64(), simcore.Options{})
		opt := core.New(sp, r.Split(), core.Options{})
		for {
			runtime.ReadMemStats(&m0)
			cfg, done := opt.Next()
			runtime.ReadMemStats(&m1)
			mallocs += m1.Mallocs - m0.Mallocs
			nexts++
			if done {
				break
			}
			sim.Apply(cfg)
			meas := simcore.MeasureWindow(sim, simcore.AdaptiveCV{}.Make(0))
			opt.ObserveMeasured(cfg, meas.Throughput, meas.CV)
		}
	}
	m["core.allocs_per_next"] = float64(mallocs) / float64(nexts)
	return nil
}

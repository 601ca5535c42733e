package main

import (
	"errors"
	"fmt"
	"os"
	"slices"
	"sync"
	"time"

	"autopn/internal/server"
)

// traceRing is the size of the server's request-trace ring in a traced
// run. The harness harvests the ring after every slice; the stage medians
// and the trace file come from the slice's last traceRing requests.
const traceRing = 1 << 17

// kvConfig is what distinguishes the two served workloads.
type kvConfig struct {
	mix     kvMix
	durable bool
}

// kvServer is a served workload: internal/server hosted in this process,
// reached over loopback TCP by kvClients closed-loop clients.
type kvServer struct {
	cfg    kvConfig
	traced bool
	opts   server.Options
	srv    *server.Server
	layout *keyLayout
	conns  []*kvClient
	walDir string // "" unless durable; removed by close

	// What layers reports, saved as the run goes: the duration of the
	// first and the latest construct+start and of the latest shutdown, the
	// server's status just before its first shutdown, and what recovery
	// found.
	firstNew, newTime, shutdownTime time.Duration
	status                          server.Status
	replayMBps                      float64
	lost                            int

	// Traced-run state: stage latencies harvested from the server's own
	// request traces, in ns.
	rec    *spanRecorder
	stages [4][]int64
	seen   uint64 // highest server trace ID already harvested
}

// openKV constructs and starts the server, connects the clients and
// preloads every key with its seed-derived initial value.
func openKV(e env, cfg kvConfig) (_ *kvServer, err error) {
	seed := e.seed
	k := &kvServer{cfg: cfg, traced: e.traced, layout: newKeyLayout(seed, e.keys())}
	k.opts = server.Options{
		Shards: kvShards, VNodes: kvVNodes, Keys: k.layout.keys,
		CoresPerShard: 2, WorkersPerShard: 2,
		DisableTuner: true,
		// No request of these workloads may fail: a stalled fsync on a
		// shared disk must not turn into a timeout.
		RequestTimeout: 10 * time.Second,
	}
	if e.traced {
		k.opts.Trace.MaxTraces = traceRing
	}
	if cfg.durable {
		if err := os.MkdirAll(e.outDir, 0o755); err != nil {
			return nil, err
		}
		if k.walDir, err = os.MkdirTemp(e.outDir, "wal-"); err != nil {
			return nil, err
		}
		k.opts.WALDir = k.walDir
		// Timer-driven fsync (every 50 ms), not fsync-per-batch: with an
		// fsync before every ack, nine tenths of a request is the host's
		// disk, whose latency moved 2x within an hour on the calibration
		// host and the run-to-run spread with it (see README, Known gaps).
		k.opts.WALSyncPolicy = "interval"
		k.opts.SnapshotInterval = 2 * time.Second
	}
	defer func() {
		if err != nil {
			_ = k.close()
		}
	}()
	if err := k.start(); err != nil {
		return nil, err
	}
	base := time.Now()
	for c := 0; c < kvClients; c++ {
		cl, err := dialKV(k.srv.Addr(), c, k.layout, newKVGen(k.layout, seed, c, cfg.mix), base)
		if err != nil {
			return nil, err
		}
		k.conns = append(k.conns, cl)
	}
	// Preload: each client PUTs the hot keys of its half and its own PUT
	// targets.
	err = k.each(func(c *kvClient) error {
		half := k.layout.hot / kvClients
		if err := c.keyRange(c.id*half, (c.id+1)*half, opPut, nil); err != nil {
			return err
		}
		lo, hi := k.layout.putKeys(c.id)
		return c.keyRange(lo, hi, opPut, nil)
	})
	if err != nil {
		return nil, fmt.Errorf("preload: %w", err)
	}
	return k, nil
}

func (k *kvServer) start() error {
	t0 := time.Now()
	srv, err := server.New(k.opts)
	if err != nil {
		return err
	}
	if err := srv.Start(); err != nil {
		return err
	}
	k.newTime = time.Since(t0)
	if k.firstNew == 0 {
		k.firstNew = k.newTime
	}
	k.srv = srv
	return nil
}

func (k *kvServer) stop() error {
	t0 := time.Now()
	rep := k.srv.Shutdown(10 * time.Second)
	k.shutdownTime = time.Since(t0)
	k.srv = nil
	if !rep.Drained || rep.Abandoned > 0 {
		return fmt.Errorf("shutdown left %d requests behind", rep.Abandoned)
	}
	return nil
}

// each runs f on every client at once and joins the errors.
func (k *kvServer) each(f func(*kvClient) error) error {
	errs := make([]error, len(k.conns))
	var wg sync.WaitGroup
	for i, c := range k.conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = f(c)
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

func (k *kvServer) clients() int { return kvClients }

func (k *kvServer) slice(n int, lat [][]int64) (failed, missed int, err error) {
	fails := make([]int, kvClients)
	err = k.each(func(c *kvClient) error {
		var err error
		lat[c.id], fails[c.id], err = c.run(n/kvClients, lat[c.id])
		return err
	})
	for _, f := range fails {
		failed += f
	}
	if k.rec != nil && err == nil {
		k.harvest()
	}
	return failed, 0, err
}

// expected is the harness's model of the store: the preloaded value, or
// the owner's last acknowledged PUT, plus every acknowledged delta.
func (k *kvServer) expected() []uint64 {
	want := slices.Clone(k.layout.initial)
	for _, c := range k.conns {
		lo, hi := k.layout.putKeys(c.id)
		copy(want[lo:hi], c.putLast[lo:hi])
		for i, d := range c.added {
			want[i] += d
		}
	}
	return want
}

// sweep reads every key back and counts those that differ from the model.
func (k *kvServer) sweep() (wrong int, first string, err error) {
	got := make([]uint64, k.layout.keys)
	err = k.each(func(c *kvClient) error {
		half := k.layout.keys / kvClients
		return c.keyRange(c.id*half, (c.id+1)*half, opGet, got)
	})
	if err != nil {
		return 0, "", err
	}
	for i, w := range k.expected() {
		if got[i] != w {
			if wrong == 0 {
				first = fmt.Sprintf("%s = %d, want %d", k.layout.names[i][:], got[i], w)
			}
			wrong++
		}
	}
	return wrong, first, nil
}

// check sweeps the store against the model; a durable server is then shut
// down, recovered from its log and swept again: no acknowledged write may
// be lost.
func (k *kvServer) check() error {
	wrong, first, err := k.sweep()
	if err != nil {
		return err
	}
	if wrong > 0 {
		return fmt.Errorf("%d keys differ from the acknowledged writes, first %s", wrong, first)
	}
	k.status = k.srv.Status()
	if k.status.Shed+k.status.Timeouts > 0 {
		return fmt.Errorf("server shed %d and timed out %d requests", k.status.Shed, k.status.Timeouts)
	}
	if !k.cfg.durable {
		return nil
	}
	if k.lost, err = k.recoverAndSweep(); err != nil {
		return err
	}
	if k.lost > 0 {
		return fmt.Errorf("%d keys lost acknowledged writes across recovery", k.lost)
	}
	return nil
}

// recoverAndSweep restarts a durable server on its own log directory and
// returns how many keys no longer hold their acknowledged value.
func (k *kvServer) recoverAndSweep() (lost int, err error) {
	for _, c := range k.conns {
		_ = c.close()
	}
	if err := k.stop(); err != nil {
		return 0, err
	}
	if k.traced {
		if k.replayMBps, err = replayRate(k.walDir); err != nil {
			return 0, fmt.Errorf("replay: %w", err)
		}
	}
	if err := k.start(); err != nil {
		return 0, fmt.Errorf("recover: %w", err)
	}
	for i, c := range k.conns {
		nc, err := dialKV(k.srv.Addr(), c.id, k.layout, c.gen, c.base)
		if err != nil {
			return 0, err
		}
		nc.added, nc.putLast, nc.writes, nc.entries = c.added, c.putLast, c.writes, c.entries
		k.conns[i] = nc
	}
	lost, _, err = k.sweep()
	return lost, err
}

func (k *kvServer) close() error {
	for _, c := range k.conns {
		_ = c.close()
	}
	var err error
	if k.srv != nil {
		err = k.stop()
	}
	if k.walDir != "" {
		err = errors.Join(err, os.RemoveAll(k.walDir))
	}
	return err
}

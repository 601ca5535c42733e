package main

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"autopn/internal/monitor"
	"autopn/internal/pnpool"
	"autopn/internal/space"
	"autopn/internal/stats"
	"autopn/internal/stm"
)

// Shape of the stm-nested workload: the paper's Array benchmark, windowed
// so that two concurrent transactions rarely touch the same cells.
const (
	nestedBoxes    = 65536
	nestedChildren = 4
	nestedWindow   = 64 // cells each child scans
	nestedWriteMod = 10 // a child updates the cells whose index is 0 mod this
	nestedWorkers  = 2
	nestedQuarter  = nestedBoxes / nestedChildren
)

// treeGateOnly hands the pool's per-tree child gate to the STM while the
// harness takes the top-level slot itself, around stm.Atomic, where the
// traced run can put a span on each of the three calls.
type treeGateOnly struct{ pool *pnpool.Pool }

func (treeGateOnly) EnterTop()                   {}
func (treeGateOnly) ExitTop()                    {}
func (g treeGateOnly) NewTreeGate() stm.TreeGate { return g.pool.NewTreeGate() }

// nested is the library workload: no server, no log. One operation is one
// top-level transaction that fans out nestedChildren parallel children,
// child j scanning a seeded window in quarter j of the table and
// incrementing a tenth of it.
type nested struct {
	s       *stm.STM
	pool    *pnpool.Pool
	live    *monitor.Live
	table   []*stm.VBox[uint64]
	workers [nestedWorkers]*nestedWorker
	initial uint64 // sum of the table before the first operation
}

// nestedWorker is one client goroutine's state. Its transaction bodies are
// built once and read the operation's windows from start, so an operation
// allocates nothing in the harness.
type nestedWorker struct {
	n          *nested
	id         int
	rng        *stats.RNG
	start      [nestedChildren]int
	top        func(*stm.Tx) error
	children   []func(*stm.Tx) error
	ops        uint64
	increments uint64     // cells incremented by committed operations
	rec        *spanTrack // nil unless tracing
}

func openNested(seed uint64) *nested {
	n := &nested{
		pool:  pnpool.New(space.Config{T: 2, C: 2}),
		live:  monitor.NewLive(monitor.NewWallClock()),
		table: make([]*stm.VBox[uint64], nestedBoxes),
	}
	n.s = stm.New(stm.Options{Throttle: treeGateOnly{n.pool}, CommitHook: n.live.OnCommit})
	for i := range n.table {
		v := mix(seed, uint64(i)) % 1000
		n.table[i] = stm.NewVBox(v)
		n.initial += v
	}
	for id := range n.workers {
		w := &nestedWorker{n: n, id: id, rng: stats.NewRNG(mix(seed, uint64(id)+0x6e65))}
		for j := 0; j < nestedChildren; j++ {
			w.children = append(w.children, func(tx *stm.Tx) error {
				for i := w.start[j]; i < w.start[j]+nestedWindow; i++ {
					if v := n.table[i].Get(tx); i%nestedWriteMod == 0 {
						n.table[i].Set(tx, v+1)
					}
				}
				return nil
			})
		}
		w.top = func(tx *stm.Tx) error { return tx.Parallel(w.children...) }
		n.workers[id] = w
	}
	return n
}

// written is how many cells of the window starting at start a child
// increments.
func written(start int) uint64 {
	first := (start + nestedWriteMod - 1) / nestedWriteMod
	last := (start + nestedWindow - 1) / nestedWriteMod
	return uint64(last - first + 1)
}

// pick draws the operation's windows, one per quarter of the table, and
// returns how many cells the operation will increment.
func (w *nestedWorker) pick() (inc uint64) {
	for j := range w.start {
		w.start[j] = j*nestedQuarter + w.rng.Intn(nestedQuarter-nestedWindow)
		inc += written(w.start[j])
	}
	return inc
}

func (w *nestedWorker) op() error {
	inc := w.pick()
	rec, id := w.rec, uint64(w.id+1)<<48|w.ops
	op := rec.begin(spOp, 0, id)
	sp := rec.begin(spPoolEnter, op.idx, id)
	w.n.pool.EnterTop()
	rec.end(sp)
	sp = rec.begin(spSTMAtomic, op.idx, id)
	err := w.n.s.Atomic(w.top)
	rec.end(sp)
	sp = rec.begin(spPoolExit, op.idx, id)
	w.n.pool.ExitTop()
	rec.end(sp)
	rec.end(op)
	if err != nil {
		return fmt.Errorf("stm-nested: worker %d: %w", w.id, err)
	}
	w.ops++
	w.increments += inc
	return nil
}

func (n *nested) clients() int { return nestedWorkers }

func (n *nested) slice(ops int, lat [][]int64) (failed, missed int, err error) {
	errs := make([]error, nestedWorkers)
	var wg sync.WaitGroup
	for _, w := range n.workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			l := lat[w.id]
			for i := 0; i < ops/nestedWorkers; i++ {
				t0 := time.Now()
				if errs[w.id] = w.op(); errs[w.id] != nil {
					break
				}
				l = append(l, int64(time.Since(t0)))
			}
			lat[w.id] = l
		}()
	}
	wg.Wait()
	return 0, 0, errors.Join(errs...)
}

// check: the table holds exactly the committed increments, and the STM
// committed exactly one top-level transaction per operation.
func (n *nested) check() error {
	var ops, inc, sum uint64
	for _, w := range n.workers {
		ops += w.ops
		inc += w.increments
	}
	for _, b := range n.table {
		sum += b.Peek()
	}
	if sum != n.initial+inc {
		return fmt.Errorf("stm-nested: table sums to %d, want %d + %d committed increments", sum, n.initial, inc)
	}
	if got := n.s.Stats.TopCommits(); got != ops {
		return fmt.Errorf("stm-nested: %d top-level commits for %d operations", got, ops)
	}
	return nil
}

func (n *nested) close() error { return nil }

func (n *nested) trace(rec *spanRecorder) {
	for _, w := range n.workers {
		w.rec = rec.track(w.id)
	}
}

func (n *nested) layers(m map[string]float64, _ regionStat, _ *spanRecorder) {
	st := n.s.Stats.Snapshot()
	m["stm.abort_share"] = share(st.TopAborts, st.TopCommits)
	m["stm.nested_abort_share"] = share(st.NestedAborts, st.NestedCommits)
}

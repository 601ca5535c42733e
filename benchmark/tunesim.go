package main

import (
	"fmt"
	"time"

	"autopn/internal/core"
	"autopn/internal/simcore"
	"autopn/internal/space"
	"autopn/internal/stats"
	"autopn/internal/surface"
)

// tuneCycle is the number of distinct sessions of a seed; tuneSlice of them
// make one slice, so a cycle is four slices. The cycle is this long so that
// per-session averages (allocations, quality) differ little between seeds.
const (
	tuneCycle = 4000
	tuneSlice = 1000
)

// tuneWithin is the quality bar of a tune-sim session: it counts towards
// slo_ok_share when it ends within this share of the surface's optimum.
const tuneWithin = 0.05

// tuneSurface is one simulated workload with what the output check needs
// precomputed: its search space and true optimum.
type tuneSurface struct {
	w       *surface.Workload
	sp      *space.Space
	optimum float64
}

// sessionResult is what one cold-start tuning session ended with.
type sessionResult struct {
	final        space.Config
	dfo          float64 // 1 - throughput(final)/optimum
	explorations int
	windows      int
	phaseN       [3]int // observations fed in the initial, SMBO and hill-climb phases
}

// tuneSim is the tune-sim workload: a fixed cycle of cold-start AutoPN
// sessions against the simulator, repeated for as long as the run lasts.
// Session i of every cycle uses seed base+i, so every cycle does the same
// work and must end with the same results; consecutive sessions take the
// ten surfaces in turn, so every slice has the same mix of them.
type tuneSim struct {
	base     uint64
	surfaces []tuneSurface
	next     int             // index of the next session in the cycle
	cycle    int             // sessions per cycle
	first    []sessionResult // results of the first cycle, the reference
	drift    int             // sessions whose result differed from the reference
	sessions int
	phaseN   [3]int     // observations per phase, over all sessions so far
	rec      *spanTrack // nil unless tracing
}

func openTuneSim(seed uint64, cycle int) *tuneSim {
	t := &tuneSim{base: mix(seed, 0x74756e65), cycle: cycle}
	for _, w := range surface.AllWorkloads() {
		sp := space.New(w.Cores)
		_, opt := w.Optimum(sp)
		t.surfaces = append(t.surfaces, tuneSurface{w: w, sp: sp, optimum: opt})
	}
	t.first = make([]sessionResult, 0, cycle)
	return t
}

func (t *tuneSim) clients() int { return 1 }

func (t *tuneSim) slice(n int, lat [][]int64) (failed, missed int, err error) {
	for i := 0; i < n; i++ {
		idx := t.next
		t.next = (t.next + 1) % t.cycle
		t0 := time.Now()
		res := t.session(idx)
		lat[0] = append(lat[0], int64(time.Since(t0)))
		t.sessions++
		if res.dfo > tuneWithin {
			missed++
		}
		if idx == len(t.first) {
			t.first = append(t.first, res)
		} else if idx < len(t.first) && res != t.first[idx] {
			t.drift++
		}
	}
	return 0, missed, nil
}

// session runs one cold-start tuning session to convergence. It is
// simcore.Tune written out, so that the traced run can put a span around
// each call into the tuner and the simulator.
func (t *tuneSim) session(idx int) sessionResult {
	s := t.surfaces[idx%len(t.surfaces)]
	rng := stats.NewRNG(t.base + uint64(idx))
	sim := simcore.New(s.w, rng.Uint64(), simcore.Options{})
	opt := core.New(s.sp, rng.Split(), core.Options{})
	wm := simcore.AdaptiveCV{}

	var res sessionResult
	op := t.rec.begin(spOp, 0, uint64(t.sessions))
	t11 := 0.0
	seen := make(map[space.Config]bool, s.sp.Size())
	for {
		sp := t.rec.begin(spCoreNext, op.idx, uint64(t.sessions))
		cfg, done := opt.Next()
		t.rec.end(sp)
		if done {
			break
		}
		sim.Apply(cfg)
		sp = t.rec.begin(spSimWindow, op.idx, uint64(t.sessions))
		meas := simcore.MeasureWindow(sim, wm.Make(t11))
		t.rec.end(sp)
		if (cfg == space.Config{T: 1, C: 1}) && t11 == 0 && meas.Throughput > 0 {
			t11 = meas.Throughput
		}
		if !seen[cfg] {
			seen[cfg] = true
			res.explorations++
		}
		res.windows++
		switch opt.Phase() { // the phase that chose cfg
		case "initial-sampling":
			res.phaseN[0]++
		case "smbo":
			res.phaseN[1]++
		default:
			res.phaseN[2]++
		}
		sp = t.rec.begin(spCoreObserve, op.idx, uint64(t.sessions))
		opt.ObserveMeasured(cfg, meas.Throughput, meas.CV)
		t.rec.end(sp)
	}
	res.final, _ = opt.Best()
	res.dfo = 1 - s.w.Throughput(res.final)/s.optimum
	t.rec.end(op)
	for i, n := range res.phaseN {
		t.phaseN[i] += n
	}
	return res
}

// check holds the sessions to what a seed promises: every cycle repeats
// the first one exactly, every session ends on a configuration of its
// space, and no session beats the surface's true optimum.
func (t *tuneSim) check() error {
	if t.drift > 0 {
		return fmt.Errorf("tune-sim: %d sessions ended differently from the same seed's first cycle", t.drift)
	}
	for i, r := range t.first {
		s := t.surfaces[i%len(t.surfaces)]
		if !s.sp.Contains(r.final) {
			return fmt.Errorf("tune-sim: session %d ended on %v, outside its space", i, r.final)
		}
		if r.dfo < 0 || r.dfo > 1 || r.explorations < 1 || r.explorations > s.sp.Size() {
			return fmt.Errorf("tune-sim: session %d: dfo %v after %d explorations of %d configurations", i, r.dfo, r.explorations, s.sp.Size())
		}
	}
	return nil
}

func (t *tuneSim) close() error { return nil }

// quality is the mean distance from optimum (in percent) and the mean
// number of explorations over the reference cycle.
func (t *tuneSim) quality() (dfoPct, explorations float64) {
	for _, r := range t.first {
		dfoPct += 100 * r.dfo
		explorations += float64(r.explorations)
	}
	n := float64(len(t.first))
	return dfoPct / n, explorations / n
}

func (t *tuneSim) trace(rec *spanRecorder) { t.rec = rec.track(0) }

func (t *tuneSim) layers(m map[string]float64, _ regionStat, r *spanRecorder) {
	n := float64(t.sessions)
	m["core.phase_initial_n"] = float64(t.phaseN[0]) / n
	m["core.phase_smbo_n"] = float64(t.phaseN[1]) / n
	m["core.phase_hc_n"] = float64(t.phaseN[2]) / n
	m["tune.dfo_pct"], m["tune.explorations_per_op"] = t.quality()
	m["core.next_ns"] = r.sum(spCoreNext).mean()
	m["core.observe_ns"] = r.sum(spCoreObserve).mean()
	m["monitor.window_ns"] = r.sum(spSimWindow).mean()
	m["simcore.window_share"] = float64(r.sum(spSimWindow).totalNs) / float64(r.sum(spOp).totalNs)
}

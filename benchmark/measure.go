package main

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"slices"
	"syscall"
	"time"
)

// instance is one set-up copy of a workload: the program under test plus
// the harness clients that drive it.
type instance interface {
	// clients is how many client goroutines slice runs (1 or 2).
	clients() int
	// slice runs n operations, split evenly over the clients, and appends
	// every answered operation's latency in nanoseconds to lat[client].
	// failed counts operations that were refused or answered with an
	// error; missed counts answered operations that miss the workload's
	// service level for a reason other than latency.
	slice(n int, lat [][]int64) (failed, missed int, err error)
	// check compares the program's outputs with the harness's own model.
	check() error
	// trace turns the harness's spans on (rec != nil) or off (nil).
	trace(rec *spanRecorder)
	// layers adds the layer metrics the instance itself can see, after
	// check and close of a traced run: traced is its traced region, rec the
	// spans of that region.
	layers(m map[string]float64, traced regionStat, rec *spanRecorder)
	// close stops everything the instance started and waits for it.
	close() error
}

// sliceStat is what one slice of the timed region measured.
type sliceStat struct {
	ops, failed, sloOK int
	wall, cpu          time.Duration
	p50, p90, p99      float64 // ms
}

func (s sliceStat) goodput() float64 {
	return float64(s.ops-s.failed) / s.wall.Seconds()
}

func (s sliceStat) cpuPerOp() float64 {
	return float64(s.cpu.Microseconds()) / float64(s.ops-s.failed)
}

// regionStat is one timed region: its slices plus the allocation deltas of
// the whole region.
type regionStat struct {
	slices         []sliceStat
	mallocs, bytes uint64
}

func (r regionStat) totals() (ops, failed, sloOK int) {
	for _, s := range r.slices {
		ops += s.ops
		failed += s.failed
		sloOK += s.sloOK
	}
	return
}

// over returns the median across slices of f.
func (r regionStat) over(f func(sliceStat) float64) float64 {
	vs := make([]float64, len(r.slices))
	for i, s := range r.slices {
		vs[i] = f(s)
	}
	return median(vs)
}

// iqrShare is the inter-quartile range of the slice goodputs as a share of
// their median: the noise inside one run.
func (r regionStat) iqrShare() float64 {
	vs := make([]float64, len(r.slices))
	for i, s := range r.slices {
		vs[i] = s.goodput()
	}
	slices.Sort(vs)
	return (quantileOf(vs, 0.75) - quantileOf(vs, 0.25)) / quantileOf(vs, 0.5)
}

// print lists the slices, one row each.
func (r regionStat) print(w io.Writer) {
	fmt.Fprintln(w, "slice wall_s goodput_per_s p50_ms p90_ms p99_ms cpu_us_per_op failed")
	for i, s := range r.slices {
		fmt.Fprintf(w, "%d %.3f %.0f %.4f %.4f %.4f %.2f %d\n", i, s.wall.Seconds(), s.goodput(), s.p50, s.p90, s.p99, s.cpuPerOp(), s.failed)
	}
}

// minSlices is the fewest slices a region measures, however short its
// time budget.
const minSlices = 5

// runRegion runs slices of sliceOps operations until budget has elapsed.
// The collector runs just before the region, so the allocation deltas are
// the region's own; CPU time is read at the slice boundaries; sorting the
// latencies happens between slices, outside every slice's wall and CPU
// time.
func runRegion(inst instance, sliceOps int, sloMs float64, budget time.Duration) (regionStat, error) {
	nc := inst.clients()
	lat := make([][]int64, nc)
	for i := range lat {
		lat[i] = make([]int64, 0, sliceOps/nc+1)
	}
	all := make([]int64, 0, sliceOps+nc)
	var reg regionStat
	reg.slices = make([]sliceStat, 0, 256)
	sloNs := int64(math.MaxInt64 - 1) // no latency limit
	if !math.IsInf(sloMs, 1) {
		sloNs = int64(sloMs * 1e6)
	}

	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for len(reg.slices) < minSlices || time.Since(start) < budget {
		for i := range lat {
			lat[i] = lat[i][:0]
		}
		c0 := cpuTime()
		t0 := time.Now()
		failed, missed, err := inst.slice(sliceOps, lat)
		wall := time.Since(t0)
		cpu := cpuTime() - c0
		if err != nil {
			return reg, err
		}
		all = all[:0]
		for _, l := range lat {
			all = append(all, l...)
		}
		if len(all)+failed != sliceOps {
			return reg, fmt.Errorf("slice answered %d and failed %d of %d operations", len(all), failed, sliceOps)
		}
		if len(all) == 0 {
			return reg, fmt.Errorf("slice of %d operations: every one failed", sliceOps)
		}
		slices.Sort(all)
		within, _ := slices.BinarySearch(all, sloNs+1)
		reg.slices = append(reg.slices, sliceStat{
			ops: sliceOps, failed: failed, sloOK: within - missed,
			wall: wall, cpu: cpu,
			p50: quantileOf(all, 0.50) / 1e6, p90: quantileOf(all, 0.90) / 1e6, p99: quantileOf(all, 0.99) / 1e6,
		})
	}
	runtime.ReadMemStats(&m1)
	reg.mallocs = m1.Mallocs - m0.Mallocs
	reg.bytes = m1.TotalAlloc - m0.TotalAlloc
	return reg, nil
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// quantileOf is the q-th quantile of sorted, interpolating between ranks.
func quantileOf[T int64 | float64](sorted []T, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo >= len(sorted)-1 {
		return float64(sorted[len(sorted)-1])
	}
	frac := pos - float64(lo)
	return float64(sorted[lo])*(1-frac) + float64(sorted[lo+1])*frac
}

// median is the median of unsorted samples.
func median[T int64 | float64](vs []T) float64 {
	s := slices.Clone(vs)
	slices.Sort(s)
	return quantileOf(s, 0.5)
}

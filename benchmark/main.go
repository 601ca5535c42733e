// Command benchmark is the repository's benchmark: four closed-loop
// workloads that each stress different layers of the stack, end-to-end
// metrics taken as medians over equal-work slices of a timed region, and a
// separate traced run that reports per-layer metrics. See README.md in
// this directory and BENCHMARK.json at the repository root.
//
//	go run ./benchmark -workload kv-read -seed 1 -seconds 20 -trace 0
//
// prints, as the last line of standard output, one JSON object with the
// keys correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"
)

// spec is one workload: its fixed sizes and how to set a copy of it up.
type spec struct {
	name string
	why  string
	// sliceOps is the number of operations in one slice of the timed
	// region, all clients together; sized so a slice lasts about a second
	// on the host the benchmark was calibrated on.
	sliceOps int
	// warmOps is the fixed warm-up that set-up includes, so that setup_s
	// times a fixed amount of work.
	warmOps int
	// sloMs is the latency limit of slo_ok_share: three times the p90 of
	// the calibration runs, two significant digits, frozen. +Inf where the
	// service level is not a latency.
	sloMs float64
	// open constructs the program under test and preloads it.
	open func(env) (instance, error)
	// probes times direct calls into the layers the workload crosses.
	probes func(env, map[string]float64) error
}

// env is what a run hands to a workload.
type env struct {
	seed   uint64
	outDir string
	traced bool
	scale  int // divisor of every fixed size; 1 except in smoke runs
	// verbose prints every slice of the timed region to standard error.
	verbose bool
}

var specs = []spec{
	{
		name: "kv-read", sliceOps: 350_000, warmOps: 350_000, sloMs: 0.37,
		why: "95% GET 5% ADD, no WAL: line parse, ring route, admission queue, read-only STM tx and reply flush do nearly all the work; WAL and nesting do none",
		open: func(e env) (instance, error) {
			return openKV(e, kvConfig{mix: kvMix{get: 95, add: 5}})
		},
		probes: kvProbes,
	},
	{
		name: "kv-durable", sliceOps: 200_000, warmOps: 200_000, sloMs: 0.53,
		why: "50% GET 30% ADD 10% PUT 10% 4-key MADD, WAL with 50ms fsync timer and 2s snapshots: STM update commit, WAL append and snapshots work beside the same reads",
		open: func(e env) (instance, error) {
			return openKV(e, kvConfig{mix: kvMix{get: 50, add: 30, put: 10}, durable: true})
		},
		probes: func(e env, m map[string]float64) error {
			if err := kvProbes(e, m); err != nil {
				return err
			}
			return walProbes(e, m)
		},
	},
	{
		name: "stm-nested", sliceOps: 20_000, warmOps: 20_000, sloMs: 0.53,
		why:    "no server: top-level tx fanning out 4 parallel children over a 65536-box table behind the (2,2) actuator and the monitor hook; parallel nesting only, zero server/WAL cost",
		open:   func(e env) (instance, error) { return openNested(e.seed), nil },
		probes: nestedProbes,
	},
	{
		name: "tune-sim", sliceOps: tuneSlice, warmOps: tuneSlice, sloMs: math.Inf(1),
		why:    "cold-start AutoPN sessions on the simulator over the paper's ten surfaces: M5 fit, EI scan and monitor window are all the work; STM, server and WAL none",
		open:   func(e env) (instance, error) { return openTuneSim(e.seed, e.size(tuneCycle)), nil },
		probes: tuneProbes,
	},
}

// setupReps is how many times a run sets the workload up; setup_s is the
// median, and the last copy is the one measured.
const setupReps = 3

// result is the line the driver reads.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func findSpec(name string) (spec, error) {
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}

// size scales a fixed operation count down for smoke runs, keeping at
// least two full client windows.
func (e env) size(ops int) int { return max(ops/e.scale, 2*kvWindow) }

// keys is the served key-space size: kvKeys, fewer in smoke runs.
func (e env) keys() int { return max(kvKeys/e.scale, 1024) }

func (s spec) scaled(e env) spec {
	s.sliceOps, s.warmOps = e.size(s.sliceOps), e.size(s.warmOps)
	return s
}

// setUp constructs, preloads and warms one copy of the workload.
func (s spec) setUp(e env) (instance, time.Duration, error) {
	t0 := time.Now()
	inst, err := s.open(e)
	if err != nil {
		return nil, 0, fmt.Errorf("%s: set-up: %w", s.name, err)
	}
	lat := make([][]int64, inst.clients())
	for i := range lat {
		lat[i] = make([]int64, 0, s.warmOps)
	}
	if _, _, err := inst.slice(s.warmOps, lat); err != nil {
		_ = inst.close()
		return nil, 0, fmt.Errorf("%s: warm-up: %w", s.name, err)
	}
	return inst, time.Since(t0), nil
}

// checkAndClose runs the output check, reporting a failure on standard
// error, and closes the instance.
func checkAndClose(inst instance) (correct bool, err error) {
	checkErr := inst.check()
	if checkErr != nil {
		fmt.Fprintln(os.Stderr, "output check failed:", checkErr)
	}
	return checkErr == nil, inst.close()
}

// runUntraced measures the end-to-end metrics.
func runUntraced(s spec, e env, seconds float64) (result, error) {
	var inst instance
	setups := make([]float64, max(setupReps/e.scale, 1))
	for i := range setups {
		if inst != nil {
			if err := inst.close(); err != nil {
				return result{}, err
			}
		}
		var took time.Duration
		var err error
		if inst, took, err = s.setUp(e); err != nil {
			return result{}, err
		}
		setups[i] = took.Seconds()
	}
	reg, err := runRegion(inst, s.sliceOps, s.sloMs, time.Duration(seconds*float64(time.Second)))
	if err != nil {
		_ = inst.close()
		return result{}, err
	}
	if e.verbose {
		reg.print(os.Stderr)
	}
	correct, err := checkAndClose(inst)
	if err != nil {
		return result{}, err
	}
	ops, failed, sloOK := reg.totals()
	ok := float64(ops - failed)
	return result{
		Correct: correct, Attempted: ops, Failed: failed,
		Metrics: report(endToEnd, map[string]float64{
			"setup_s":       median(setups),
			"goodput_per_s": reg.over(sliceStat.goodput),
			"p50_ms":        reg.over(func(s sliceStat) float64 { return s.p50 }),
			"p90_ms":        reg.over(func(s sliceStat) float64 { return s.p90 }),
			"slo_ok_share":  float64(sloOK) / float64(ops),
			"cpu_us_per_op": reg.over(sliceStat.cpuPerOp),
			"allocs_per_op": float64(reg.mallocs) / ok,
			"bytes_per_op":  float64(reg.bytes) / ok,
		}),
	}, nil
}

// runTraced measures the per-layer metrics: a short untraced region, the
// same again with spans on, then the probes.
func runTraced(s spec, e env, seconds float64) (result, error) {
	inst, _, err := s.setUp(e)
	if err != nil {
		return result{}, err
	}
	quarter := time.Duration(seconds / 4 * float64(time.Second))
	plain, err := runRegion(inst, s.sliceOps, s.sloMs, quarter)
	if err != nil {
		_ = inst.close()
		return result{}, err
	}
	rec := newSpanRecorder(inst.clients(), maxSpans)
	inst.trace(rec)
	traced, err := runRegion(inst, s.sliceOps, s.sloMs, quarter)
	inst.trace(nil)
	if err != nil {
		_ = inst.close()
		return result{}, err
	}
	correct, err := checkAndClose(inst)
	if err != nil {
		return result{}, err
	}
	m := map[string]float64{
		"client.p99_ms":               plain.over(func(s sliceStat) float64 { return s.p99 }),
		"client.slice_iqr_share":      plain.iqrShare(),
		"client.trace_overhead_share": 1 - traced.over(sliceStat.goodput)/plain.over(sliceStat.goodput),
	}
	inst.layers(m, traced, rec)
	if err := s.probes(e, m); err != nil {
		return result{}, fmt.Errorf("%s: probes: %w", s.name, err)
	}
	if err := rec.write(filepath.Join(e.outDir, s.name+".trace.json")); err != nil {
		return result{}, err
	}
	ops, failed, _ := plain.totals()
	tops, tfailed, _ := traced.totals()
	return result{
		Correct: correct, Attempted: ops + tops, Failed: failed + tfailed,
		Metrics: report(perLayer, m),
	}, nil
}

func run(name string, e env, seconds float64) (result, error) {
	s, err := findSpec(name)
	if err != nil {
		return result{}, err
	}
	s = s.scaled(e)
	if e.traced {
		return runTraced(s, e, seconds)
	}
	return runUntraced(s, e, seconds)
}

func main() {
	var (
		workload  = flag.String("workload", "", "workload to run: kv-read, kv-durable, stm-nested or tune-sim")
		seed      = flag.Uint64("seed", 1, "seed of the generated inputs")
		seconds   = flag.Float64("seconds", runSeconds, "length of the timed region")
		trace     = flag.Int("trace", 0, "1 runs the traced variant and reports the per-layer metrics")
		outDir    = flag.String("out", filepath.Join("benchmark", "out"), "directory for traces and temporary WAL files")
		smoke     = flag.Bool("smoke", false, "run every workload, traced and untraced, at 1/100 size and report pass or fail")
		calibrate = flag.Int("calibrate", 0, "run this many complete sets and print the set-to-set deviation of every end-to-end metric")
		verbose   = flag.Bool("v", false, "print every slice of the timed region to standard error")
		emit      = flag.Bool("emit-benchmark-json", false, "print BENCHMARK.json as generated from the metric catalogue")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "benchmark: unexpected argument %q\n", flag.Arg(0))
		os.Exit(2)
	}
	var err error
	switch {
	case *emit:
		err = emitBenchmarkJSON(os.Stdout)
	case *smoke:
		err = runSmoke(*seed, *outDir)
	case *calibrate > 0:
		err = runCalibrate(*calibrate, *seed, *seconds, *outDir)
	default:
		var res result
		if res, err = run(*workload, env{seed: *seed, outDir: *outDir, traced: *trace != 0, scale: 1, verbose: *verbose}, *seconds); err != nil {
			break
		}
		if err = json.NewEncoder(os.Stdout).Encode(res); err == nil && !res.Correct {
			err = fmt.Errorf("%s: output check failed", *workload)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// runSmoke runs all four workloads both ways at 1/100 size.
func runSmoke(seed uint64, outDir string) error {
	for _, s := range specs {
		for _, traced := range []bool{false, true} {
			res, err := run(s.name, env{seed: seed, outDir: outDir, traced: traced, scale: 100}, 0.2)
			if err != nil {
				return err
			}
			if !res.Correct {
				return fmt.Errorf("%s (traced %v): output check failed", s.name, traced)
			}
			fmt.Printf("ok %-10s traced=%-5v attempted=%d failed=%d\n", s.name, traced, res.Attempted, res.Failed)
		}
	}
	return nil
}

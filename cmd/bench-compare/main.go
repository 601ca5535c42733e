// Command bench-compare diffs a fresh `go test -bench` run against the
// committed baseline (BENCH_stm.json "after" numbers, or the newest row set
// of a per-PR ledger such as BENCH_server.json) and fails when a
// benchmark regressed beyond a threshold — the guardrail that keeps the
// tracing gate (and future hot-path changes) honest about overhead.
//
// Usage:
//
//	go test -bench . -benchmem -run '^$' ./internal/stm/ | \
//	    go run ./cmd/bench-compare -baseline BENCH_stm.json -threshold 15
//
// Benchmark lines are matched to baseline entries by exact name first, so
// baselines may pin specific -cpu variants (BenchmarkFoo/Bar-4). When no
// exact entry exists, the -N GOMAXPROCS suffix is stripped
// (BenchmarkFoo/Bar-8 -> BenchmarkFoo/Bar) and the stripped name is tried —
// but only when the run contains a single variant of that base name. A run
// driven with -cpu 1,4 emits both BenchmarkFoo/Bar and BenchmarkFoo/Bar-4;
// silently folding the -4 line onto an unsuffixed baseline entry would
// compare cross-CPU-count numbers, so ambiguous variants are reported as
// unmatched instead. For each matched benchmark the ns/op ratio against the
// baseline's "after" value is reported; ratios above 1+threshold% fail the
// run (exit 1). Allocations are compared exactly: the hot paths are
// zero-or-counted-alloc by design, so any increase is called out (but
// only fails with -strict-allocs). Benchmarks present in the run but
// absent from the baseline are skipped with a note and exempt from both
// gates — new benchmark families must not break the gate just by
// existing; baseline-only entries are listed as missing. Neither is ever
// fatal — benchmarks come and go across PRs.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// benchRow is one benchmark's committed numbers.
type benchRow struct {
	NsOp     float64 `json:"ns_op"`
	BOp      float64 `json:"b_op"`
	AllocsOp float64 `json:"allocs_op"`
}

// baselineFile mirrors the two committed layouts: BENCH_stm.json's
// before/after pair per benchmark, and the per-PR ledger (BENCH_server.json)
// whose history array holds one row set per PR, oldest first.
type baselineFile struct {
	Benchmarks map[string]baselineEntry `json:"benchmarks"`
	History    []struct {
		Benchmarks map[string]benchRow `json:"benchmarks"`
	} `json:"history"`
}

type baselineEntry struct {
	After benchRow `json:"after"`
}

// adoptHistory makes a ledger's newest row set the baseline to compare
// against.
func (b *baselineFile) adoptHistory() {
	if len(b.History) == 0 {
		return
	}
	if b.Benchmarks == nil {
		b.Benchmarks = map[string]baselineEntry{}
	}
	for name, row := range b.History[len(b.History)-1].Benchmarks {
		b.Benchmarks[name] = baselineEntry{After: row}
	}
}

// result is one parsed benchmark output line.
type result struct {
	name     string
	nsOp     float64
	allocsOp float64
	hasAlloc bool
}

// benchLine matches `go test -bench` output, e.g.
// "BenchmarkFoo/Bar-8  123456  987.6 ns/op  120 B/op  3 allocs/op".
var benchLine = regexp.MustCompile(
	`^(Benchmark\S+)\s+\d+\s+([0-9.eE+]+) ns/op(?:\s+([0-9.eE+]+) B/op\s+([0-9.eE+]+) allocs/op)?`)

// stripProcs removes the trailing -N GOMAXPROCS suffix from a benchmark
// name.
func stripProcs(name string) string {
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			return name[:i]
		}
	}
	return name
}

// parseBench extracts benchmark results from a `go test -bench` stream.
func parseBench(r io.Reader) ([]result, error) {
	var out []result
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		res := result{name: m[1]}
		var err error
		if res.nsOp, err = strconv.ParseFloat(m[2], 64); err != nil {
			return nil, fmt.Errorf("bad ns/op in %q: %w", sc.Text(), err)
		}
		if m[4] != "" {
			if res.allocsOp, err = strconv.ParseFloat(m[4], 64); err != nil {
				return nil, fmt.Errorf("bad allocs/op in %q: %w", sc.Text(), err)
			}
			res.hasAlloc = true
		}
		out = append(out, res)
	}
	return out, sc.Err()
}

// compare diffs results against the baseline and writes the report to w.
// It returns the number of threshold violations.
func compare(w io.Writer, results []result, base baselineFile, thresholdPct float64, strictAllocs bool) int {
	violations, skipped := 0, 0
	matched := map[string]bool{}
	// How many distinct benchmark names share each stripped base name
	// (-count N repeats lines, so count names, not lines): the
	// procs-stripped fallback below is only sound when the answer is one,
	// otherwise two different -cpu variants would silently pair with the
	// same baseline entry.
	variantNames := map[string]map[string]bool{}
	for _, r := range results {
		sb := stripProcs(r.name)
		if variantNames[sb] == nil {
			variantNames[sb] = map[string]bool{}
		}
		variantNames[sb][r.name] = true
	}
	variants := map[string]int{}
	for sb, names := range variantNames {
		variants[sb] = len(names)
	}
	for _, r := range results {
		key := r.name
		b, ok := base.Benchmarks[key]
		if !ok {
			if sb := stripProcs(r.name); variants[sb] == 1 {
				b, ok = base.Benchmarks[sb]
				key = sb
			}
		}
		if !ok {
			// A benchmark present in the run but absent from the baseline
			// is skipped, never a violation: new benchmark families (the
			// server layer, future subsystems) must not break the existing
			// gate just by existing. It gets a baseline entry when its
			// numbers are intentionally committed.
			skipped++
			if sb := stripProcs(r.name); variants[sb] > 1 {
				fmt.Fprintf(w, "  skipped   %-55s %10.1f ns/op (no exact baseline; %d -cpu variants in run, not folding)\n",
					r.name, r.nsOp, variants[sb])
			} else {
				fmt.Fprintf(w, "  skipped   %-55s %10.1f ns/op (no baseline entry; not compared)\n", r.name, r.nsOp)
			}
			continue
		}
		matched[key] = true
		ratio := r.nsOp / b.After.NsOp
		verdict := "ok"
		if ratio > 1+thresholdPct/100 {
			verdict = fmt.Sprintf("REGRESSED >%g%%", thresholdPct)
			violations++
		} else if ratio < 1-thresholdPct/100 {
			verdict = "improved"
		}
		fmt.Fprintf(w, "  %-9s %-55s %10.1f ns/op vs %10.1f baseline (%+.1f%%)\n",
			verdict, r.name, r.nsOp, b.After.NsOp, (ratio-1)*100)
		if r.hasAlloc && r.allocsOp > b.After.AllocsOp {
			fmt.Fprintf(w, "  ALLOCS    %-55s %10.0f allocs/op vs %10.0f baseline\n",
				r.name, r.allocsOp, b.After.AllocsOp)
			if strictAllocs {
				violations++
			}
		}
	}
	var missing []string
	for name := range base.Benchmarks {
		if !matched[name] {
			missing = append(missing, name)
		}
	}
	sort.Strings(missing)
	for _, name := range missing {
		fmt.Fprintf(w, "  missing   %s (in baseline, not in run)\n", name)
	}
	if skipped > 0 {
		fmt.Fprintf(w, "  note: %d benchmark(s) without a baseline entry were skipped, not compared\n", skipped)
	}
	return violations
}

func main() {
	baseline := flag.String("baseline", "BENCH_stm.json", "baseline file (BENCH_stm.json layout)")
	threshold := flag.Float64("threshold", 15, "ns/op regression threshold in percent")
	strictAllocs := flag.Bool("strict-allocs", false, "fail on allocs/op increases too")
	input := flag.String("input", "-", "benchmark output file (- = stdin)")
	flag.Parse()

	bb, err := os.ReadFile(*baseline)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	var base baselineFile
	if err := json.Unmarshal(bb, &base); err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", *baseline, err)
		os.Exit(2)
	}
	base.adoptHistory()

	in := io.Reader(os.Stdin)
	if *input != "-" {
		f, err := os.Open(*input)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		defer f.Close()
		in = f
	}
	results, err := parseBench(in)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if len(results) == 0 {
		fmt.Fprintln(os.Stderr, "no benchmark lines found in input")
		os.Exit(2)
	}

	fmt.Printf("bench-compare: %d results vs %s (threshold %g%%)\n", len(results), *baseline, *threshold)
	violations := compare(os.Stdout, results, base, *threshold, *strictAllocs)
	if violations > 0 {
		fmt.Printf("FAIL: %d benchmark(s) regressed\n", violations)
		os.Exit(1)
	}
	fmt.Println("PASS: no regressions beyond threshold")
}

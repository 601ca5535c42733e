package main

import (
	"encoding/json"
	"strings"
	"testing"
)

const sampleBaseline = `{
  "benchmarks": {
    "BenchmarkFast/Seq": {"after": {"ns_op": 100, "b_op": 0, "allocs_op": 0}},
    "BenchmarkSlow/Seq": {"after": {"ns_op": 1000, "b_op": 160, "allocs_op": 7}},
    "BenchmarkGone/Seq": {"after": {"ns_op": 50, "b_op": 0, "allocs_op": 0}}
  }
}`

const sampleRun = `goos: linux
goarch: amd64
pkg: autopn/internal/stm
BenchmarkFast/Seq-8     	10000000	       105.0 ns/op	       0 B/op	       0 allocs/op
BenchmarkSlow/Seq-8     	 1000000	      1300 ns/op	     200 B/op	       9 allocs/op
BenchmarkNew/Seq-8      	 5000000	       250.0 ns/op	       0 B/op	       0 allocs/op
PASS
`

func parseBaseline(t *testing.T) baselineFile {
	t.Helper()
	var b baselineFile
	if err := json.Unmarshal([]byte(sampleBaseline), &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestParseBenchKeepsFullName(t *testing.T) {
	results, err := parseBench(strings.NewReader(sampleRun))
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("parsed %d results, want 3: %+v", len(results), results)
	}
	// The -N GOMAXPROCS suffix survives parsing: matching decides later
	// whether to strip it, so -cpu variants stay distinguishable.
	if results[0].name != "BenchmarkFast/Seq-8" || results[0].nsOp != 105 {
		t.Errorf("first result = %+v", results[0])
	}
	if !results[1].hasAlloc || results[1].allocsOp != 9 {
		t.Errorf("allocs not parsed: %+v", results[1])
	}
}

func TestCompareFlagsRegressions(t *testing.T) {
	results, err := parseBench(strings.NewReader(sampleRun))
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	violations := compare(&out, results, parseBaseline(t), 15, false)
	report := out.String()

	// Slow regressed 30% (> 15%): one violation. Fast is within 5%: ok.
	// Each run name is the only -N variant of its base, so all fold onto
	// the unsuffixed baseline entries.
	if violations != 1 {
		t.Errorf("violations = %d, want 1\n%s", violations, report)
	}
	for _, want := range []string{
		"REGRESSED >15% BenchmarkSlow/Seq-8",
		"ok        BenchmarkFast/Seq-8",
		"ALLOCS    BenchmarkSlow/Seq-8",
		"skipped   BenchmarkNew/Seq-8",
		"missing   BenchmarkGone/Seq",
		"1 benchmark(s) without a baseline entry were skipped",
	} {
		if !strings.Contains(report, want) {
			t.Errorf("report missing %q:\n%s", want, report)
		}
	}
}

func TestCompareStrictAllocs(t *testing.T) {
	results, err := parseBench(strings.NewReader(sampleRun))
	if err != nil {
		t.Fatal(err)
	}
	// Strict mode also counts the allocs/op increase on Slow.
	if v := compare(&strings.Builder{}, results, parseBaseline(t), 15, true); v != 2 {
		t.Errorf("strict violations = %d, want 2", v)
	}
	// A generous threshold leaves only the alloc violation.
	if v := compare(&strings.Builder{}, results, parseBaseline(t), 50, true); v != 1 {
		t.Errorf("generous-threshold strict violations = %d, want 1", v)
	}
}

func TestCompareWithinThresholdPasses(t *testing.T) {
	run := "BenchmarkFast/Seq-8 1000 101.0 ns/op 0 B/op 0 allocs/op\n" +
		"BenchmarkSlow/Seq-8 1000 1050 ns/op 150 B/op 7 allocs/op\n"
	results, err := parseBench(strings.NewReader(run))
	if err != nil {
		t.Fatal(err)
	}
	if v := compare(&strings.Builder{}, results, parseBaseline(t), 15, true); v != 0 {
		t.Errorf("violations = %d, want 0", v)
	}
}

// TestCompareCPUVariants covers a -cpu 1,4 run: Go emits the cpu-1 line
// unsuffixed and the cpu-4 line as Name-4. With exact baseline entries
// both variants pair one-to-one; the stripped-name fallback must never
// fold a -4 line onto the unsuffixed entry.
func TestCompareCPUVariants(t *testing.T) {
	const baseline = `{
	  "benchmarks": {
	    "BenchmarkContended/Disjoint": {"after": {"ns_op": 500, "b_op": 160, "allocs_op": 7}},
	    "BenchmarkContended/Disjoint-4": {"after": {"ns_op": 2500, "b_op": 160, "allocs_op": 7}}
	  }
	}`
	var base baselineFile
	if err := json.Unmarshal([]byte(baseline), &base); err != nil {
		t.Fatal(err)
	}
	run := "BenchmarkContended/Disjoint 10000 520.0 ns/op 160 B/op 7 allocs/op\n" +
		"BenchmarkContended/Disjoint-4 10000 2600 ns/op 160 B/op 7 allocs/op\n"
	results, err := parseBench(strings.NewReader(run))
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if v := compare(&out, results, base, 15, true); v != 0 {
		t.Errorf("violations = %d, want 0\n%s", v, out.String())
	}
	report := out.String()
	for _, want := range []string{
		"ok        BenchmarkContended/Disjoint ",
		"ok        BenchmarkContended/Disjoint-4",
	} {
		if !strings.Contains(report, want) {
			t.Errorf("report missing %q:\n%s", want, report)
		}
	}
	if strings.Contains(report, "missing") || strings.Contains(report, "skipped") {
		t.Errorf("exact -cpu pairing left unmatched entries:\n%s", report)
	}
}

// TestCompareAmbiguousVariantsNotFolded: when the run holds several -cpu
// variants of one base name but the baseline lacks an exact entry for one
// of them, that line is reported as new ("not folding") instead of being
// silently compared against a different CPU count's number.
func TestCompareAmbiguousVariantsNotFolded(t *testing.T) {
	const baseline = `{
	  "benchmarks": {
	    "BenchmarkContended/Disjoint": {"after": {"ns_op": 500, "b_op": 160, "allocs_op": 7}}
	  }
	}`
	var base baselineFile
	if err := json.Unmarshal([]byte(baseline), &base); err != nil {
		t.Fatal(err)
	}
	run := "BenchmarkContended/Disjoint 10000 520.0 ns/op 160 B/op 7 allocs/op\n" +
		"BenchmarkContended/Disjoint-4 10000 9999 ns/op 160 B/op 7 allocs/op\n"
	results, err := parseBench(strings.NewReader(run))
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	// The -4 line would be a 20x "regression" against the cpu-1 baseline;
	// refusing to fold keeps violations at zero.
	if v := compare(&out, results, base, 15, true); v != 0 {
		t.Errorf("violations = %d, want 0 (ambiguous variant must not fold)\n%s", v, out.String())
	}
	report := out.String()
	if !strings.Contains(report, "ok        BenchmarkContended/Disjoint ") {
		t.Errorf("exact cpu-1 match missing:\n%s", report)
	}
	if !strings.Contains(report, "not folding") {
		t.Errorf("ambiguous -4 variant not flagged:\n%s", report)
	}
}

// TestCompareRunOnlyKeysNeverViolate: a benchmark present in the run but
// absent from the baseline is skipped with a note — even under
// -strict-allocs, even with terrible numbers — so adding new benchmark
// families (e.g. server benchmarks) can never break the existing gate.
func TestCompareRunOnlyKeysNeverViolate(t *testing.T) {
	run := "BenchmarkServer/Shedding-8 1000 999999 ns/op 4096 B/op 99 allocs/op\n" +
		"BenchmarkServer/Routing-8 1000 888888 ns/op 2048 B/op 50 allocs/op\n" +
		"BenchmarkFast/Seq-8 1000 101.0 ns/op 0 B/op 0 allocs/op\n"
	results, err := parseBench(strings.NewReader(run))
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if v := compare(&out, results, parseBaseline(t), 15, true); v != 0 {
		t.Errorf("violations = %d, want 0 (run-only keys must be skipped, not gated)\n%s", v, out.String())
	}
	report := out.String()
	for _, want := range []string{
		"skipped   BenchmarkServer/Shedding-8",
		"skipped   BenchmarkServer/Routing-8",
		"2 benchmark(s) without a baseline entry were skipped",
	} {
		if !strings.Contains(report, want) {
			t.Errorf("report missing %q:\n%s", want, report)
		}
	}
	// Run-only keys are also exempt from the alloc gate: no ALLOCS callout.
	if strings.Contains(report, "ALLOCS    BenchmarkServer") {
		t.Errorf("run-only key hit the alloc gate:\n%s", report)
	}
}

// TestCompareCountRepeatsStillFold: -count N repeats each benchmark line;
// repeated identical names are still one variant, so the stripped-name
// fallback keeps working.
func TestCompareCountRepeatsStillFold(t *testing.T) {
	run := "BenchmarkFast/Seq-8 1000 101.0 ns/op 0 B/op 0 allocs/op\n" +
		"BenchmarkFast/Seq-8 1000 103.0 ns/op 0 B/op 0 allocs/op\n" +
		"BenchmarkFast/Seq-8 1000 102.0 ns/op 0 B/op 0 allocs/op\n"
	results, err := parseBench(strings.NewReader(run))
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if v := compare(&out, results, parseBaseline(t), 15, false); v != 0 {
		t.Errorf("violations = %d, want 0\n%s", v, out.String())
	}
	if strings.Contains(out.String(), "not folding") {
		t.Errorf("-count repeats miscounted as distinct -cpu variants:\n%s", out.String())
	}
}

// TestCompareLedgerHistory: a per-PR ledger (BENCH_server.json) is compared
// against its newest row set, and an allocs/op increase over it is a
// violation under -strict-allocs.
func TestCompareLedgerHistory(t *testing.T) {
	const ledger = `{
	  "history": [
	    {"pr": 12, "benchmarks": {"BenchmarkExecGet": {"ns_op": 800, "b_op": 257, "allocs_op": 4}}},
	    {"pr": 13, "benchmarks": {"BenchmarkExecGet": {"ns_op": 110, "b_op": 0, "allocs_op": 0}}}
	  ]
	}`
	var base baselineFile
	if err := json.Unmarshal([]byte(ledger), &base); err != nil {
		t.Fatal(err)
	}
	base.adoptHistory()
	for _, c := range []struct {
		run  string
		want int
	}{
		{"BenchmarkExecGet-2 20000 120.0 ns/op 0 B/op 0 allocs/op\n", 0},
		{"BenchmarkExecGet-2 20000 120.0 ns/op 16 B/op 1 allocs/op\n", 1},
	} {
		results, err := parseBench(strings.NewReader(c.run))
		if err != nil {
			t.Fatal(err)
		}
		var out strings.Builder
		if v := compare(&out, results, base, 10000, true); v != c.want {
			t.Errorf("violations = %d, want %d\n%s", v, c.want, out.String())
		}
	}
}

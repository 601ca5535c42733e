package main

import (
	"bytes"
	"hash/fnv"
	"math"
	"os"
	"slices"
	"testing"
	"time"
)

// streamHash hashes the first n encoded requests of one client's stream.
func streamHash(seed uint64, n int) uint64 {
	layout := newKeyLayout(seed, kvKeys)
	gen := newKVGen(layout, seed, 1, kvMix{get: 50, add: 30, put: 10})
	h := fnv.New64a()
	var op kvOp
	var buf []byte
	for i := 0; i < n; i++ {
		gen.next(&op)
		buf = layout.appendRequest(buf[:0], &op, 0, 0)
		h.Write(buf)
	}
	return h.Sum64()
}

func TestSameSeedSameRequestStream(t *testing.T) {
	a, b, c := streamHash(7, 5000), streamHash(7, 5000), streamHash(8, 5000)
	if a != b {
		t.Errorf("seed 7 gave two request streams: %x and %x", a, b)
	}
	if a == c {
		t.Errorf("seeds 7 and 8 gave the same request stream %x", a)
	}
}

func TestGeneratedRequests(t *testing.T) {
	layout := newKeyLayout(3, 1024)
	gen := newKVGen(layout, 3, 1, kvMix{get: 50, add: 30, put: 10})
	lo, hi := layout.putKeys(1)
	var op kvOp
	for i := 0; i < 20000; i++ {
		gen.next(&op)
		switch op.kind {
		case opPut:
			if k := int(op.key[0]); k < lo || k >= hi || op.arg[0] == 0 {
				t.Fatalf("PUT %d <- %d: outside client 1's targets [%d,%d) or zero", k, op.arg[0], lo, hi)
			}
		case opMAdd:
			keys := slices.Clone(op.key[:])
			slices.Sort(keys)
			if len(slices.Compact(keys)) != maddKeys {
				t.Fatalf("MADD repeats a key: %v", op.key)
			}
			for _, k := range op.key {
				if layout.shardOf[k] != layout.shardOf[op.key[0]] {
					t.Fatalf("MADD crosses shards: %v", op.key)
				}
			}
		default:
			if int(op.key[0]) >= layout.hot {
				t.Fatalf("%s reaches key %d beyond the %d hot keys", opVerbs[op.kind], op.key[0], layout.hot)
			}
		}
	}
}

func TestClientEncodesAndParsesWithoutAllocating(t *testing.T) {
	layout := newKeyLayout(1, kvKeys)
	gen := newKVGen(layout, 1, 0, kvMix{get: 50, add: 30, put: 10})
	buf := make([]byte, 0, 256)
	replies := [][]byte{[]byte("VALUE 1234567"), []byte("OK"), []byte("ERR overload")}
	var op kvOp
	i := 0
	allocs := testing.AllocsPerRun(2000, func() {
		gen.next(&op)
		buf = layout.appendRequest(buf[:0], &op, 0x1000000000001, 1_700_000_000_000_000_000)
		parseReply(replies[i%len(replies)])
		i++
	})
	if allocs != 0 {
		t.Errorf("generate+encode+parse allocates %v times per request, want 0", allocs)
	}
}

func TestParseReply(t *testing.T) {
	for _, c := range []struct {
		line string
		kind replyKind
		val  uint64
	}{
		{"VALUE 0", replyValue, 0},
		{"VALUE 18446744073709551615", replyValue, math.MaxUint64},
		{"OK", replyOK, 0},
		{"ERR timeout", replyErr, 0},
		{"VALUE ", replyBad, 0},
		{"VALUE 12x", replyBad, 0},
		{"PONG", replyBad, 0},
		{"", replyBad, 0},
	} {
		if kind, val := parseReply([]byte(c.line)); kind != c.kind || val != c.val {
			t.Errorf("parseReply(%q) = %v, %d; want %v, %d", c.line, kind, val, c.kind, c.val)
		}
	}
}

func TestQuantiles(t *testing.T) {
	ns := make([]int64, 101) // 0, 1ms, ..., 100ms
	for i := range ns {
		ns[i] = int64(i) * int64(time.Millisecond)
	}
	for q, want := range map[float64]float64{0: 0, 0.5: 50, 0.9: 90, 0.99: 99, 1: 100} {
		if got := quantileOf(ns, q) / 1e6; math.Abs(got-want) > 1e-9 {
			t.Errorf("quantile %v of 0..100ms = %vms, want %v", q, got, want)
		}
	}
	if got := quantileOf([]float64{1, 2}, 0.5); got != 1.5 {
		t.Errorf("median of 1,2 = %v, want 1.5", got)
	}
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("median of 9,1,5 = %v, want 5", got)
	}
	// Python: statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
	if got := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); got != [3]float64{2.75, 5.5, 8.25} {
		t.Errorf("quartiles of 1..10 = %v, want [2.75 5.5 8.25]", got)
	}
}

func TestSpanTrackKeepsWholeOperations(t *testing.T) {
	tr := newSpanRecorder(1, 2*spansPerOp).track(0)
	var kept int
	for op := uint64(1); op <= 5; op++ {
		root := tr.put(spOp, 0, op, 0, 10)
		child := tr.put(spClientSend, root, op, 0, 4)
		tr.tally(spOp, 10)
		tr.tally(spClientSend, 4)
		if (root != 0) != (child != 0) {
			t.Fatalf("op %d: op span kept=%v but its child kept=%v", op, root != 0, child != 0)
		}
		if root != 0 {
			kept++
		}
	}
	// Room for 14 spans: an op is kept while 7 more fit, so ops 1..4 (8 spans).
	if kept != 4 || tr.agg[spOp].count != 5 || tr.agg[spClientSend].totalNs != 20 {
		t.Errorf("kept %d ops, summed %d ops and %d ns of sends; want 4, 5, 20", kept, tr.agg[spOp].count, tr.agg[spClientSend].totalNs)
	}
	if self := tr.selfTimes(); self[0] != 6 || self[1] != 4 {
		t.Errorf("self times of the first op and its child = %d, %d; want 6, 4", self[0], self[1])
	}
}

// fakeInstance answers slices with scripted latencies.
type fakeInstance struct {
	slices int
	failed int // failures reported in every slice
}

func (f *fakeInstance) clients() int { return 2 }
func (f *fakeInstance) slice(n int, lat [][]int64) (int, int, error) {
	f.slices++
	// Latencies 1..n-failed µs, dealt to the two clients in turn; slice k
	// is k times slower.
	for i := 1; i <= n-f.failed; i++ {
		lat[i%2] = append(lat[i%2], int64(i*f.slices)*1000)
	}
	return f.failed, 0, nil
}
func (f *fakeInstance) check() error                                         { return nil }
func (f *fakeInstance) trace(*spanRecorder)                                  {}
func (f *fakeInstance) layers(map[string]float64, regionStat, *spanRecorder) {}
func (f *fakeInstance) close() error                                         { return nil }

func TestRegionSliceMaths(t *testing.T) {
	// Five slices of 100 operations, 10 of them failing; limit 0.2 ms.
	reg, err := runRegion(&fakeInstance{failed: 10}, 100, 0.2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(reg.slices) != minSlices {
		t.Fatalf("%d slices, want %d", len(reg.slices), minSlices)
	}
	ops, failed, sloOK := reg.totals()
	// Slice k answers 90 operations at k..90k µs; those within 200 µs:
	// 90, 90, 66, 50, 40.
	if ops != 500 || failed != 50 || sloOK != 90+90+66+50+40 {
		t.Errorf("totals = %d ops, %d failed, %d within the limit; want 500, 50, 336", ops, failed, sloOK)
	}
	// The median slice is the third: latencies 3..270 µs.
	if got, want := reg.over(func(s sliceStat) float64 { return s.p50 }), 0.1365; math.Abs(got-want) > 1e-9 {
		t.Errorf("median slice p50 = %v ms, want %v", got, want)
	}
	if got, want := reg.over(func(s sliceStat) float64 { return s.p90 }), 0.2433; math.Abs(got-want) > 1e-9 {
		t.Errorf("median slice p90 = %v ms, want %v", got, want)
	}
}

func TestSmoke(t *testing.T) {
	out := t.TempDir()
	for _, s := range specs {
		for _, traced := range []bool{false, true} {
			res, err := run(s.name, env{seed: 1, outDir: out, traced: traced, scale: 100}, 0.05)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", s.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", s.name, traced, res.Correct, res.Attempted, res.Failed)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
				// The file must hold whole operations: the deepest layer's
				// span of each workload is there.
				deepest := map[string]string{"kv-read": "server.flush", "kv-durable": "server.flush", "stm-nested": "pnpool.exit", "tune-sim": "core.observe"}
				file, err := os.ReadFile(out + "/" + s.name + ".trace.json")
				if err != nil {
					t.Errorf("%s: no trace file: %v", s.name, err)
				} else if !bytes.Contains(file, []byte(deepest[s.name])) {
					t.Errorf("%s: trace file has no %s span", s.name, deepest[s.name])
				}
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics, want %d", s.name, traced, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				v, ok := res.Metrics[d.Name]
				if !ok || v.Unit != d.Unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
					t.Errorf("%s traced=%v: metric %s = %+v (reported %v)", s.name, traced, d.Name, v, ok)
				}
				// slo_ok_share is exempt: at this size, under the race
				// detector, every operation can miss the latency limit.
				if !traced && v.Value <= 0 && d.Name != "slo_ok_share" {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", s.name, d.Name, v.Value)
				}
			}
		}
	}
}

// The output checks must be able to fail: a write the model does not know
// of, or knows of but the program lost, is reported.
func TestOutputChecksCatchAWrongStore(t *testing.T) {
	e := env{seed: 2, outDir: t.TempDir(), scale: 100}
	kv, err := openKV(e, kvConfig{mix: kvMix{get: 50, add: 50}})
	if err != nil {
		t.Fatal(err)
	}
	defer kv.close()
	lat := [][]int64{nil, nil}
	if _, _, err := kv.slice(2000, lat); err != nil {
		t.Fatal(err)
	}
	if err := kv.check(); err != nil {
		t.Fatalf("check of an untouched run: %v", err)
	}
	kv.conns[0].added[5]++ // an acknowledged ADD the store does not hold
	if err := kv.check(); err == nil {
		t.Error("check passed although key 5 lost an acknowledged ADD")
	}

	n := openNested(2)
	if _, _, err := n.slice(200, [][]int64{nil, nil}); err != nil {
		t.Fatal(err)
	}
	if err := n.check(); err != nil {
		t.Fatalf("check of an untouched run: %v", err)
	}
	n.workers[0].increments++
	if err := n.check(); err == nil {
		t.Error("check passed although the table misses a committed increment")
	}
}

func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	committed, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := emitBenchmarkJSON(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(committed, want.Bytes()) {
		t.Error("BENCHMARK.json differs from the catalogue; regenerate it with: go run ./benchmark -emit-benchmark-json > BENCHMARK.json")
	}
}

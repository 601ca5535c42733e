package server

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"autopn/internal/chaos"
	"autopn/internal/obs"
)

// crashStop abandons the server with no graceful path: listeners closed,
// nothing flushed, no final snapshot, no CLEAN marker — the in-process
// stand-in for SIGKILL. The WAL writer and snapshotter goroutines die with
// the "process" (a snapshotter left running would keep writing into the
// test's temp dir while it is being removed); the log is not closed, so
// only already-fsynced bytes count.
func (s *Server) crashStop() {
	s.accepting.Store(false)
	if s.ln != nil {
		_ = s.ln.Close()
	}
	s.connMu.Lock()
	for c := range s.conns {
		_ = c.Close()
	}
	s.connMu.Unlock()
	for _, sh := range s.shards {
		close(sh.stop)
		if sh.wal != nil {
			sh.wal.close()
		}
	}
	s.cancel()
	// Mark shutdown as done so the test cleanup's graceful Shutdown is a
	// no-op and cannot retroactively write the CLEAN marker a crash must
	// not leave.
	s.shutdownOnce.Do(func() {})
}

// durableOpts is the base configuration of the durability tests: small key
// space, no tuner noise, per-batch fsync.
func durableOpts(walDir string) Options {
	return Options{
		Shards:           2,
		Keys:             256,
		DisableTuner:     true,
		WALDir:           walDir,
		WALSyncPolicy:    "batch",
		SnapshotInterval: -1, // snapshot only where the test asks
	}
}

func TestDurabilityGracefulRestart(t *testing.T) {
	dir := t.TempDir()
	s1 := startTestServer(t, durableOpts(dir))
	tc := dialServer(t, s1)
	// Expectations track operation order because the MADD's colocated keys
	// may overlap the fixed PUT/ADD keys.
	want := map[string]uint64{}
	if got := tc.roundTrip("PUT k000001 42"); got != "OK" {
		t.Fatalf("PUT = %q", got)
	}
	want["k000001"] = 42
	if got := tc.roundTrip("ADD k000002 7"); got != "VALUE 7" {
		t.Fatalf("ADD = %q", got)
	}
	if got := tc.roundTrip("ADD k000002 5"); got != "VALUE 12" {
		t.Fatalf("ADD = %q", got)
	}
	want["k000002"] = 12
	cols, _ := sameShardKeys(t, s1.ring, 256, 3)
	madd := fmt.Sprintf("MADD %s 1 %s 2 %s 3", cols[0], cols[1], cols[2])
	if got := tc.roundTrip(madd); got != "OK" {
		t.Fatalf("MADD = %q", got)
	}
	for i, k := range cols {
		want[k] += uint64(i + 1)
	}
	s1.Shutdown(5 * time.Second)

	s2 := startTestServer(t, durableOpts(dir))
	tc2 := dialServer(t, s2)
	for k, w := range want {
		if got := tc2.roundTrip("GET " + k); got != fmt.Sprintf("VALUE %d", w) {
			t.Errorf("after restart GET %s = %q, want VALUE %d", k, got, w)
		}
	}
	for _, row := range s2.Status().ShardTable {
		if row.WAL == nil || row.WAL.Recovery == nil {
			t.Fatalf("shard %d: no WAL recovery status", row.ID)
		}
		if !row.WAL.Recovery.CleanShutdown {
			t.Errorf("shard %d: recovery.CleanShutdown = false after graceful shutdown", row.ID)
		}
		if !row.WAL.Recovery.SkippedScan {
			t.Errorf("shard %d: CLEAN marker did not skip the tail scan", row.ID)
		}
		if row.WAL.Recovery.Epoch < 2 {
			t.Errorf("shard %d: recovery epoch = %d, want >= 2", row.ID, row.WAL.Recovery.Epoch)
		}
	}
}

func TestDurabilityCrashRestart(t *testing.T) {
	dir := t.TempDir()
	s1 := startTestServer(t, durableOpts(dir))
	tc := dialServer(t, s1)
	// Every reply read below is an ack over a per-batch-fsync WAL: all of
	// it must survive the crash.
	sum := map[string]uint64{}
	for i := 0; i < 50; i++ {
		k := KeyName(i % 8)
		if got := tc.roundTrip(fmt.Sprintf("ADD %s %d", k, i+1)); !strings.HasPrefix(got, "VALUE ") {
			t.Fatalf("ADD %d = %q", i, got)
		}
		sum[k] += uint64(i + 1)
	}
	s1.crashStop()

	s2 := startTestServer(t, durableOpts(dir))
	tc2 := dialServer(t, s2)
	for k, w := range sum {
		if got := tc2.roundTrip("GET " + k); got != fmt.Sprintf("VALUE %d", w) {
			t.Errorf("after crash GET %s = %q, want VALUE %d", k, got, w)
		}
	}
	for _, row := range s2.Status().ShardTable {
		if row.WAL == nil || row.WAL.Recovery == nil {
			t.Fatalf("shard %d: no WAL recovery status", row.ID)
		}
		if row.WAL.Recovery.CleanShutdown {
			t.Errorf("shard %d: recovery.CleanShutdown = true after crash", row.ID)
		}
	}
}

func TestDurabilitySnapshotTruncatesAndRecovers(t *testing.T) {
	dir := t.TempDir()
	opts := durableOpts(dir)
	s1 := startTestServer(t, opts)
	tc := dialServer(t, s1)
	for i := 0; i < 64; i++ {
		if got := tc.roundTrip(fmt.Sprintf("ADD %s 3", KeyName(i%16))); !strings.HasPrefix(got, "VALUE ") {
			t.Fatalf("ADD = %q", got)
		}
	}
	// Snapshot every shard directly (the ticker is off in tests).
	for _, sh := range s1.shards {
		sh.wal.doSnapshot(sh)
		if sh.wal.snapshots.Load() != 1 {
			t.Fatalf("shard %d: snapshot did not complete", sh.id)
		}
	}
	// More writes after the snapshot land in the retained tail.
	for i := 0; i < 32; i++ {
		if got := tc.roundTrip(fmt.Sprintf("ADD %s 5", KeyName(i%16))); !strings.HasPrefix(got, "VALUE ") {
			t.Fatalf("ADD = %q", got)
		}
	}
	s1.crashStop()

	s2 := startTestServer(t, durableOpts(dir))
	tc2 := dialServer(t, s2)
	// 64 ADD 3 over 16 keys = 4 each (12), then 32 ADD 5 over 16 keys = 2
	// each (10).
	for i := 0; i < 16; i++ {
		if got := tc2.roundTrip("GET " + KeyName(i)); got != "VALUE 22" {
			t.Errorf("GET %s = %q, want VALUE 22", KeyName(i), got)
		}
	}
	for _, row := range s2.Status().ShardTable {
		if row.WAL.Recovery.SnapshotLSN == 0 {
			t.Errorf("shard %d: recovery did not load a snapshot", row.ID)
		}
	}
}

func TestDurabilityWALErrorStickyAndBreaker(t *testing.T) {
	dir := t.TempDir()
	opts := durableOpts(dir)
	opts.Breaker = BreakerOptions{FailureThreshold: 3, Cooldown: time.Minute}
	// Poison shard 0's log on its 3rd append; every later update on that
	// shard must fail fast with the typed WAL error until the breaker
	// takes over.
	opts.Injector = func(shard int) *chaos.Injector {
		if shard != 0 {
			return nil
		}
		return chaos.New(chaos.Options{Rules: []chaos.Rule{{
			Name:    "wal-die",
			Point:   chaos.PointWALAppend,
			Action:  chaos.ActAbort,
			Trigger: chaos.Trigger{After: 2, Times: 0},
		}}})
	}
	s := startTestServer(t, opts)
	tc := dialServer(t, s)

	// Find keys owned by shard 0.
	var keys []string
	for i := 0; i < 256 && len(keys) < 16; i++ {
		if s.ring.Lookup(KeyName(i)) == 0 {
			keys = append(keys, KeyName(i))
		}
	}
	sawWAL, sawBreaker := 0, 0
	for i, k := range keys {
		got := tc.roundTrip(fmt.Sprintf("ADD %s 1", k))
		switch got {
		case "ERR " + ErrCodeWAL:
			sawWAL++
		case "ERR " + ErrCodeBreakerOpen:
			sawBreaker++
		default:
			if i >= 2 {
				t.Fatalf("request %d after poison = %q, want ERR wal or ERR breaker-open", i, got)
			}
		}
	}
	if sawWAL == 0 {
		t.Error("no request was answered with the typed WAL error")
	}
	if sawBreaker == 0 {
		t.Error("sticky WAL errors did not trip the breaker")
	}
	st := s.shards[0].wal.status()
	if st.FailedAcks == 0 {
		t.Error("failed-ack counter did not advance")
	}
	if st.Errors == 0 {
		t.Error("wal error counter did not advance")
	}
}

// TestDurabilityConcurrentSnapshotAndLoad is the -race coverage for
// append-during-snapshot and replay-into-live-STM at the serving layer:
// snapshots race a concurrent update load, then a restart replays the
// resulting snapshot + tail mix and must land on exactly the acked sums.
func TestDurabilityConcurrentSnapshotAndLoad(t *testing.T) {
	dir := t.TempDir()
	opts := durableOpts(dir)
	opts.SnapshotInterval = 10 * time.Millisecond
	s1 := startTestServer(t, opts)

	const workers = 4
	const perWorker = 200
	sums := make([]map[string]uint64, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		sums[w] = map[string]uint64{}
		tc := dialServer(t, s1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				k := KeyName((w*31 + i) % 64)
				d := uint64(i%7 + 1)
				if got := tc.roundTrip(fmt.Sprintf("ADD %s %d", k, d)); strings.HasPrefix(got, "VALUE ") {
					sums[w][k] += d
				}
			}
		}()
	}
	wg.Wait()
	// Let at least one snapshot land mid-stream, then crash.
	time.Sleep(30 * time.Millisecond)
	s1.crashStop()

	want := map[string]uint64{}
	for _, m := range sums {
		for k, v := range m {
			want[k] += v
		}
	}
	s2 := startTestServer(t, durableOpts(dir))
	tc := dialServer(t, s2)
	for k, v := range want {
		if got := tc.roundTrip("GET " + k); got != fmt.Sprintf("VALUE %d", v) {
			t.Errorf("after crash GET %s = %q, want VALUE %d", k, got, v)
		}
	}
}

func TestTunerWarmStartAfterRestart(t *testing.T) {
	dir := t.TempDir()
	decDir1 := t.TempDir()
	opts := durableOpts(dir)
	opts.DisableTuner = false
	opts.CoresPerShard = 2
	opts.TunerMaxWindow = 50 * time.Millisecond
	opts.DecisionLogDir = decDir1
	s1 := startTestServer(t, opts)
	// A little traffic so the tuners have something to chew on; the
	// checkpoint is written by the graceful shutdown either way.
	tc := dialServer(t, s1)
	for i := 0; i < 64; i++ {
		tc.roundTrip(fmt.Sprintf("ADD %s 1", KeyName(i%32)))
	}
	s1.Shutdown(5 * time.Second)

	decDir2 := t.TempDir()
	opts2 := durableOpts(dir)
	opts2.DisableTuner = false
	opts2.CoresPerShard = 2
	opts2.TunerMaxWindow = 50 * time.Millisecond
	opts2.DecisionLogDir = decDir2
	s2 := startTestServer(t, opts2)

	// Every shard must report a warm start, and its decision ring must
	// show the recovery record instead of a cold initial-sampling launch.
	deadline := time.Now().Add(5 * time.Second)
	for _, sh := range s2.shards {
		if !sh.wal.recovery.WarmStart {
			t.Fatalf("shard %d: no tuner checkpoint found on restart", sh.id)
		}
		found := false
		for !found && time.Now().Before(deadline) {
			for _, d := range sh.ring.Last(16) {
				if d.Kind == obs.KindRecovery {
					found = true
					break
				}
			}
			if !found {
				time.Sleep(10 * time.Millisecond)
			}
		}
		if !found {
			t.Errorf("shard %d: no %q decision after warm start", sh.id, obs.KindRecovery)
		}
	}
	s2.Shutdown(5 * time.Second)
}

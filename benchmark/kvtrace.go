package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"autopn/internal/wal"
)

// The four stages the server's own request traces decompose into.
var stageSpans = [4]spanName{spServerQueue, spServerExec, spServerCommit, spServerFlush}

func (k *kvServer) trace(rec *spanRecorder) {
	k.rec = rec
	rate := 0.0
	if rec != nil {
		rate = 1
	}
	k.srv.SetTraceSampleRate(rate)
	for _, c := range k.conns {
		c.rec = rec.track(c.id)
		c.kept = map[uint64]keptOp{}
	}
}

// harvest joins the server's completed request traces with the client
// spans of the same operations, through the protocol's t=<id> hint, and
// keeps every stage latency for the stage medians. It runs between
// slices, when no request is in flight, so every trace up to the highest
// ID seen is complete.
func (k *kvServer) harvest() {
	maxID := k.seen
	for _, d := range k.srv.Traces() {
		if d.ID <= k.seen || d.Outcome != "ok" {
			continue
		}
		maxID = max(maxID, d.ID)
		marks := [5]int64{d.EnqueueNS, d.DequeueNS, d.FnDoneNS, d.ExecDoneNS, d.FlushNS}
		client := int(d.ClientID>>48) - 1
		if client < 0 || client >= len(k.conns) {
			continue
		}
		c := k.conns[client]
		kept, ok := c.kept[d.ClientID]
		delete(c.kept, d.ClientID)
		// The server's stages happen while the client waits, so they are
		// children of client.wait: its self time is what no stage covers.
		var wait int32
		if ok {
			op := c.rec.put(spOp, 0, d.ClientID, kept.startNs, kept.replyNs)
			c.rec.put(spClientSend, op, d.ClientID, kept.startNs, kept.sentNs)
			wait = c.rec.put(spClientWait, op, d.ClientID, kept.sentNs, kept.replyNs)
		}
		// Server marks count from the tracer's epoch; the hint's send time,
		// echoed back as ClientSendNS, places them on the harness clock.
		shift := kept.startNs - d.ClientSendNS
		for st := range stageSpans {
			from, to := marks[st], marks[st+1]
			if from == 0 || to < from {
				continue
			}
			k.stages[st] = append(k.stages[st], to-from)
			c.rec.tally(stageSpans[st], to-from)
			c.rec.put(stageSpans[st], wait, d.ClientID, from+shift, to+shift)
		}
	}
	k.seen = maxID
}

func (k *kvServer) layers(m map[string]float64, traced regionStat, _ *spanRecorder) {
	sumP50 := 0.0
	var mean [4]float64
	for st, name := range [4]string{"queue", "exec", "commit", "flush"} {
		p50 := median(k.stages[st]) / 1e6
		m["server.stage_"+name+"_ms"] = p50
		sumP50 += p50
		for _, ns := range k.stages[st] {
			mean[st] += float64(ns)
		}
		if n := len(k.stages[st]); n > 0 {
			mean[st] /= float64(n)
		}
	}
	if total := mean[0] + mean[1] + mean[2] + mean[3]; total > 0 {
		m["server.queue_wait_frac"] = mean[0] / total
	}
	// What the server's stages do not cover: line parse, ring route, reply
	// encode, loopback and the client itself.
	m["server.residual_ms"] = traced.over(func(s sliceStat) float64 { return s.p50 }) - sumP50

	st := k.status
	if asked := float64(st.Accepted + st.Shed); asked > 0 {
		m["server.shed_share"] = float64(st.Shed) / asked
		m["server.timeout_share"] = float64(st.Timeouts) / asked
	}
	m["server.new_s"] = k.firstNew.Seconds()
	m["server.shutdown_s"] = k.shutdownTime.Seconds()

	if !k.cfg.durable {
		return
	}
	var appends, fsyncs, bytes, snaps uint64
	for _, row := range st.ShardTable {
		if w := row.WAL; w != nil {
			appends += w.Appends
			fsyncs += w.Fsyncs
			bytes += w.Bytes
			snaps += w.Snapshots
		}
	}
	var writes, entries uint64
	for _, c := range k.conns {
		writes += c.writes
		entries += c.entries
	}
	m["wal.fsyncs_per_write"] = float64(fsyncs) / float64(writes)
	m["wal.entries_per_append"] = float64(entries) / float64(appends)
	m["wal.bytes_per_entry"] = float64(bytes) / float64(entries)
	m["wal.snapshots"] = float64(snaps)
	m["wal.recover_s"] = k.newTime.Seconds()
	m["wal.replay_mb_per_s"] = k.replayMBps
	m["wal.lost_acked_writes"] = float64(k.lost)
}

// replayRate scans the stopped server's log directories with wal.Replay
// and returns the rate in MB/s.
func replayRate(walDir string) (float64, error) {
	var bytes int64
	var took time.Duration
	for sh := 0; sh < kvShards; sh++ {
		dir := filepath.Join(walDir, fmt.Sprintf("shard-%d", sh))
		segs, err := filepath.Glob(filepath.Join(dir, "*.seg"))
		if err != nil {
			return 0, err
		}
		for _, seg := range segs {
			fi, err := os.Stat(seg)
			if err != nil {
				return 0, err
			}
			bytes += fi.Size()
		}
		t0 := time.Now()
		if _, err := wal.Replay(dir, func(uint64, uint32, []wal.Entry) error { return nil }); err != nil {
			return 0, err
		}
		took += time.Since(t0)
	}
	if took <= 0 {
		return 0, nil
	}
	return float64(bytes) / 1e6 / took.Seconds(), nil
}

package main

// metricDef is one row of the metric catalogue. BENCHMARK.json is
// generated from these tables (-emit-benchmark-json) and a test keeps the
// committed file equal to them.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the system would see. Every workload
// reports every one of them from the untraced run. Bound is the share of
// the parent's median by which a later change may worsen the metric. The
// timing metrics carry the contract's maximum because identical runs on
// the calibration host differ by 5-14% (README, Calibration); the counts
// repeat within 1.3% across seeds.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"goodput_per_s", "1/s", "higher", 0.25},
	{"p50_ms", "ms", "lower", 0.25},
	{"p90_ms", "ms", "lower", 0.25},
	{"slo_ok_share", "share", "higher", 0.05},
	{"cpu_us_per_op", "us", "lower", 0.25},
	{"allocs_per_op", "count", "lower", 0.05},
	{"bytes_per_op", "B", "lower", 0.05},
}

// perLayer are the metrics of single layers, reported by the traced run.
// A layer the workload does not cross reports 0.
var perLayer = []metricDef{
	// internal/server, kv-read and kv-durable.
	{Name: "server.stage_queue_ms", Unit: "ms", Better: "lower"},
	{Name: "server.stage_exec_ms", Unit: "ms", Better: "lower"},
	{Name: "server.stage_commit_ms", Unit: "ms", Better: "lower"},
	{Name: "server.stage_flush_ms", Unit: "ms", Better: "lower"},
	{Name: "server.queue_wait_frac", Unit: "share", Better: "lower"},
	{Name: "server.residual_ms", Unit: "ms", Better: "lower"},
	{Name: "server.ring_lookup_ns", Unit: "ns", Better: "lower"},
	{Name: "obs.hist_observe_ns", Unit: "ns", Better: "lower"},
	{Name: "server.shed_share", Unit: "share", Better: "lower"},
	{Name: "server.timeout_share", Unit: "share", Better: "lower"},
	{Name: "server.new_s", Unit: "s", Better: "lower"},
	{Name: "server.shutdown_s", Unit: "s", Better: "lower"},
	// internal/stm flat transactions, kv-read and kv-durable.
	{Name: "stm.ro_tx_ns", Unit: "ns", Better: "lower"},
	{Name: "stm.allocs_per_ro_tx", Unit: "count", Better: "lower"},
	{Name: "stm.write_tx_ns", Unit: "ns", Better: "lower"},
	{Name: "stm.allocs_per_write_tx", Unit: "count", Better: "lower"},
	{Name: "stm.inline_commit_share", Unit: "share", Better: "higher"},
	{Name: "stm.combine_batch_mean", Unit: "count", Better: "higher"},
	{Name: "stm.body_pool_hit_share", Unit: "share", Better: "higher"},
	{Name: "sched.admit_cold_ns", Unit: "ns", Better: "lower"},
	{Name: "stm.mutex_ref_ns", Unit: "ns", Better: "lower"},
	// internal/stm nesting, internal/pnpool, internal/monitor: stm-nested.
	{Name: "stm.nested_tx_ns", Unit: "ns", Better: "lower"},
	{Name: "stm.allocs_per_nested_tx", Unit: "count", Better: "lower"},
	{Name: "pnpool.enter_exit_ns", Unit: "ns", Better: "lower"},
	{Name: "pnpool.gate_ns", Unit: "ns", Better: "lower"},
	{Name: "monitor.on_commit_ns", Unit: "ns", Better: "lower"},
	{Name: "stm.abort_share", Unit: "share", Better: "lower"},
	{Name: "stm.nested_abort_share", Unit: "share", Better: "lower"},
	// internal/wal, kv-durable.
	{Name: "wal.append_ns", Unit: "ns", Better: "lower"},
	{Name: "wal.append_nosync_ns", Unit: "ns", Better: "lower"},
	{Name: "wal.fsyncs_per_write", Unit: "count", Better: "lower"},
	{Name: "wal.entries_per_append", Unit: "count", Better: "higher"},
	{Name: "wal.bytes_per_entry", Unit: "B", Better: "lower"},
	{Name: "wal.snapshot_s", Unit: "s", Better: "lower"},
	{Name: "wal.snapshots", Unit: "count", Better: "lower"},
	{Name: "wal.recover_s", Unit: "s", Better: "lower"},
	{Name: "wal.replay_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "wal.lost_acked_writes", Unit: "count", Better: "lower"},
	// internal/m5, smbo, core, simcore: tune-sim.
	{Name: "m5.train_ns", Unit: "ns", Better: "lower"},
	{Name: "smbo.fit_ns", Unit: "ns", Better: "lower"},
	{Name: "smbo.suggest_ei_ns", Unit: "ns", Better: "lower"},
	{Name: "core.next_ns", Unit: "ns", Better: "lower"},
	{Name: "core.observe_ns", Unit: "ns", Better: "lower"},
	{Name: "core.allocs_per_next", Unit: "count", Better: "lower"},
	{Name: "monitor.window_ns", Unit: "ns", Better: "lower"},
	{Name: "simcore.window_share", Unit: "share", Better: "lower"},
	{Name: "core.phase_initial_n", Unit: "count", Better: "lower"},
	{Name: "core.phase_smbo_n", Unit: "count", Better: "lower"},
	{Name: "core.phase_hc_n", Unit: "count", Better: "lower"},
	{Name: "tune.dfo_pct", Unit: "%", Better: "lower"},
	{Name: "tune.explorations_per_op", Unit: "count", Better: "lower"},
	// The harness itself, every workload.
	{Name: "client.p99_ms", Unit: "ms", Better: "lower"},
	{Name: "client.slice_iqr_share", Unit: "share", Better: "lower"},
	{Name: "client.trace_overhead_share", Unit: "share", Better: "lower"},
}

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report pairs values with the catalogue: every metric of defs is
// reported, with 0 where the workload produced none.
func report(defs []metricDef, got map[string]float64) map[string]value {
	out := make(map[string]value, len(defs))
	for _, d := range defs {
		out[d.Name] = value{Value: got[d.Name], Unit: d.Unit}
	}
	return out
}

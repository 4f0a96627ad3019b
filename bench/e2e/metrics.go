package main

// metricDef mirrors one entry of BENCHMARK.json; a test keeps the two in
// step. bound is the share of the parent's median by which an end-to-end
// metric may worsen before a change counts as a regression.
type metricDef struct {
	name, unit, better string
	bound              float64
}

// endToEnd is what the one client of the training loop sees.
var endToEnd = []metricDef{
	{"examples_per_sec", "1/s", "higher", 0.20},
	{"step_ms_p05", "ms", "lower", 0.20},
	{"heldout_ne", "ratio", "lower", 0.08},
	{"setup_s", "s", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.25},
}

// perLayer names each metric after the module it measures.
var perLayer = []metricDef{
	{name: "tensor.gemm_gflops", unit: "GFLOP/s", better: "higher"},
	{name: "nn.mlp_fwd_ms", unit: "ms", better: "lower"},
	{name: "nn.mlp_bwd_ms", unit: "ms", better: "lower"},
	{name: "nn.loss_ms", unit: "ms", better: "lower"},
	{name: "core.dense_fwd_ms", unit: "ms", better: "lower"},
	{name: "core.dense_bwd_ms", unit: "ms", better: "lower"},
	{name: "core.dense_share", unit: "ratio", better: "lower"},
	{name: "core.step_ms_tail", unit: "ms", better: "lower"},
	{name: "core.allocs_per_step", unit: "count", better: "lower"},
	{name: "embedding.lookup_ms", unit: "ms", better: "lower"},
	{name: "embedding.lookup_ns_per_row", unit: "ns/row", better: "lower"},
	{name: "embedding.lookups_per_step", unit: "count", better: "lower"},
	{name: "embedding.scatter_ms", unit: "ms", better: "lower"},
	{name: "embedding.dedup_ratio", unit: "ratio", better: "lower"},
	{name: "embedding.sparse_share", unit: "ratio", better: "lower"},
	{name: "embedding.table_init_s", unit: "s", better: "lower"},
	{name: "optim.dense_ms", unit: "ms", better: "lower"},
	{name: "optim.sparse_ms", unit: "ms", better: "lower"},
	{name: "optim.sparse_rows_per_step", unit: "count", better: "lower"},
	{name: "data.next_batch_ms", unit: "ms", better: "lower"},
	{name: "hybrid.compute_share", unit: "ratio", better: "higher"},
	{name: "hybrid.a2a_share", unit: "ratio", better: "lower"},
	{name: "hybrid.allreduce_share", unit: "ratio", better: "lower"},
	{name: "hybrid.exposed_share", unit: "ratio", better: "lower"},
	{name: "hybrid.step_ms_tail", unit: "ms", better: "lower"},
	{name: "hybrid.allocs_per_step", unit: "count", better: "lower"},
	{name: "collective.a2a_bytes_per_step", unit: "B", better: "lower"},
	{name: "collective.allreduce_bytes_per_step", unit: "B", better: "lower"},
	{name: "collective.calls_per_step", unit: "count", better: "lower"},
	{name: "collective.rank_wait_share", unit: "ratio", better: "lower"},
	{name: "collective.a2a_solo_us", unit: "us", better: "lower"},
	{name: "collective.allreduce_solo_us", unit: "us", better: "lower"},
	{name: "ingest.batch_wait_ms_p50", unit: "ms", better: "lower"},
	{name: "ingest.batch_wait_share", unit: "ratio", better: "lower"},
	{name: "ingest.starvation_frac", unit: "ratio", better: "lower"},
	{name: "ingest.read_mb_per_s", unit: "MB/s", better: "higher"},
	{name: "ingest.dedup_ratio", unit: "ratio", better: "higher"},
	{name: "ingest.ring_occupancy", unit: "ratio", better: "higher"},
	{name: "ingest.drain_examples_per_sec", unit: "1/s", better: "higher"},
	{name: "ingest.write_mb_per_s", unit: "MB/s", better: "higher"},
	{name: "ckpt.save_delta_ms_p50", unit: "ms", better: "lower"},
	{name: "ckpt.save_full_ms_p50", unit: "ms", better: "lower"},
	{name: "ckpt.save_ms_tail", unit: "ms", better: "lower"},
	{name: "ckpt.save_tail_pct", unit: "%", better: "higher"},
	{name: "ckpt.stall_share", unit: "ratio", better: "lower"},
	{name: "ckpt.bytes_per_save", unit: "B", better: "lower"},
	{name: "ckpt.rows_per_delta", unit: "count", better: "lower"},
	{name: "ckpt.restore_ms", unit: "ms", better: "lower"},
	{name: "ckpt.restore_chain", unit: "count", better: "lower"},
	{name: "ckpt.verify_ms", unit: "ms", better: "lower"},
	{name: "harness.trace_overhead_share", unit: "ratio", better: "lower"},
	{name: "harness.step_ms_p50", unit: "ms", better: "lower"},
	{name: "harness.step_tail_pct", unit: "%", better: "higher"},
	{name: "harness.step_samples", unit: "count", better: "higher"},
	{name: "harness.gomaxprocs", unit: "count", better: "higher"},
}

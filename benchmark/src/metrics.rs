//! The metrics the benchmark reports, by name.  `BENCHMARK.json` at the
//! repository root lists the same names, units and directions; a test keeps
//! the two in step.

/// One declared metric.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// How much worse (as a share of the parent's median) before it counts
    /// as a regression; 0 for per-layer metrics, which have no bound.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> Metric {
    Metric { name, unit, better, bound }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric { name, unit, better, bound: 0.0 }
}

/// What a user of the simulator sees, reported for every workload by the
/// untraced run.  Seconds are calibrated seconds (see `harness`).
pub const END_TO_END: [Metric; 5] = [
    e2e("wall_s", "s", "lower", 0.25),
    e2e("cpu_s", "s", "lower", 0.25),
    e2e("ops_per_s", "1/s", "higher", 0.25),
    e2e("peak_rss_bytes", "bytes", "lower", 0.1),
    e2e("setup_s", "s", "lower", 0.25),
];

/// Single-layer numbers, reported by the traced run.  A workload that never
/// enters a layer reports 0 for that layer's metrics.  `<layer>.busy_s` is the
/// layer's self time per traced sample and `<layer>.share` its share of the
/// pass; for the two network models the self time is `<layer>.inrun_s`, the
/// difference of two runs of the same compiled program.
pub const PER_LAYER: [Metric; 66] = [
    layer("record.busy_s", "s", "lower"),
    layer("record.ops_per_s", "1/s", "higher"),
    layer("record.share", "ratio", "lower"),
    layer("compile.busy_s", "s", "lower"),
    layer("compile.ops_per_s", "1/s", "higher"),
    layer("compile.share", "ratio", "lower"),
    layer("compile.allocs", "count", "lower"),
    layer("compile.arena_bytes", "bytes", "lower"),
    layer("compile.dedup_ratio", "ratio", "higher"),
    layer("validate.busy_s", "s", "lower"),
    layer("analyze.busy_s", "s", "lower"),
    layer("analyze.ops_per_s", "1/s", "higher"),
    layer("topology.busy_s", "s", "lower"),
    layer("topology.share", "ratio", "lower"),
    layer("engine.busy_s", "s", "lower"),
    layer("engine.ns_per_op", "ns", "lower"),
    layer("engine.share", "ratio", "lower"),
    layer("engine.events_scheduled", "count", "lower"),
    layer("engine.dataflow_burst_ops", "count", "higher"),
    layer("engine.calendar_bucket_sorts", "count", "lower"),
    layer("engine.allocs_per_kop", "count", "lower"),
    layer("engine.shards2_speedup_ring", "x", "higher"),
    layer("engine.shards2_speedup_ssp", "x", "higher"),
    layer("fabric.share", "ratio", "lower"),
    layer("fabric.inrun_s", "s", "lower"),
    layer("fabric.solves", "count", "lower"),
    layer("fabric.balanced_swap_hits", "count", "higher"),
    layer("fabric.swap_hit_ratio", "ratio", "higher"),
    layer("fabric.solves_per_s", "1/s", "higher"),
    layer("packet.share", "ratio", "lower"),
    layer("packet.inrun_s", "s", "lower"),
    layer("packet.events", "count", "lower"),
    layer("packet.events_per_s", "1/s", "higher"),
    layer("packet.drops", "count", "lower"),
    layer("packet.retransmits", "count", "lower"),
    layer("packet.pfc_pauses", "count", "lower"),
    layer("packet.ecn_marks", "count", "lower"),
    layer("packet.drain_pkts_per_s", "1/s", "higher"),
    layer("report.busy_s", "s", "lower"),
    layer("report.share", "ratio", "lower"),
    layer("trace.busy_s", "s", "lower"),
    layer("trace.share", "ratio", "lower"),
    layer("trace.overhead_x", "x", "lower"),
    layer("trace.events", "count", "lower"),
    layer("trace.events_per_s", "1/s", "higher"),
    layer("trace.allocs", "count", "lower"),
    layer("trace.export_s", "s", "lower"),
    layer("trace.export_bytes", "bytes", "lower"),
    layer("trace.validate_s", "s", "lower"),
    layer("critpath.busy_s", "s", "lower"),
    layer("critpath.share", "ratio", "lower"),
    layer("critpath.segments", "count", "lower"),
    layer("tuner.cells", "count", "higher"),
    layer("tuner.cell_p50_ms", "ms", "lower"),
    layer("tuner.cell_p90_ms", "ms", "lower"),
    layer("gaspi.job_spawn_us", "us", "lower"),
    layer("gaspi.pingpong_us", "us", "lower"),
    layer("collectives.ring_call_us", "us", "lower"),
    layer("collectives.alltoall_call_us", "us", "lower"),
    layer("collectives.bcast_call_us", "us", "lower"),
    layer("baseline.mpi_ring_call_us", "us", "lower"),
    layer("collectives.vs_mpi_ring_x", "x", "higher"),
    layer("harness.trace_overhead_x", "x", "lower"),
    layer("harness.cpu_over_wall", "ratio", "lower"),
    layer("harness.traced_samples", "count", "higher"),
    layer("harness.machine_speed", "ratio", "higher"),
];

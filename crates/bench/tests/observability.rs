//! Acceptance tests for the observability stack: critical-path exactness on
//! the paper's collectives, Chrome Trace Event export validity, and trace
//! equivalence across every way of feeding a program to the engine.

use ec_bench::congestion::fig15_scenario;
use ec_bench::ssp_scale::{ssp_scale_program, SspScaleConfig};
use ec_collectives::schedule::{alltoall_direct_schedule, bcast_bst_schedule, ring_allreduce_schedule};
use ec_netsim::{
    validate_chrome_trace, write_chrome_trace, BlockReason, ChromeTraceWriter, ClusterSpec, CompiledProgram, CostModel,
    Engine, Link, MsgLabel, Program, RunReport, Topology, TraceDetail, TraceFilter,
};
use proptest::prelude::*;

const TOL: f64 = 1e-9;

fn traced_engine(ranks: usize) -> Engine {
    Engine::new(ClusterSpec::homogeneous(ranks, 1), CostModel::skylake_fdr()).with_trace(true)
}

/// The critical path must attribute the entire makespan: the category
/// breakdown telescopes to the makespan and the path tail lands exactly on
/// the last finisher.
fn assert_exact_critical_path(report: &RunReport, what: &str) {
    let cp = report.critical_path().unwrap_or_else(|| panic!("{what}: a traced run must yield a critical path"));
    let makespan = report.makespan();
    assert!(
        (cp.breakdown.total() - makespan).abs() < TOL,
        "{what}: categories must sum to the makespan: {} vs {makespan}",
        cp.breakdown.total()
    );
    assert!(
        (cp.tail_time() - makespan).abs() < TOL,
        "{what}: the path tail must be the last finisher: {} vs {makespan}",
        cp.tail_time()
    );
    assert!((cp.makespan - makespan).abs() < TOL);
    // The path is gapless and starts at (or before) the first event.
    for w in cp.segments.windows(2) {
        assert!(
            (w[0].end - w[1].start).abs() < TOL,
            "{what}: path segments must chain without gaps: {} -> {}",
            w[0].end,
            w[1].start
        );
    }
    assert!(!cp.hot_ranks.is_empty(), "{what}: a non-trivial path names its hot ranks");
}

#[test]
fn critical_path_is_exact_on_the_pipelined_ring() {
    let report = traced_engine(16).run(&ring_allreduce_schedule(16, 1 << 20)).expect("ring must simulate");
    assert_exact_critical_path(&report, "p=16 pipelined ring allreduce");
}

#[test]
fn critical_path_is_exact_on_the_binomial_bcast() {
    let report = traced_engine(64).run(&bcast_bst_schedule(64, 1 << 20, 1.0)).expect("bcast must simulate");
    assert_exact_critical_path(&report, "p=64 binomial bcast");
}

#[test]
fn exported_chrome_trace_is_valid_and_fully_paired() {
    let report = traced_engine(16).run(&ring_allreduce_schedule(16, 1 << 20)).expect("ring must simulate");
    let mut out = Vec::new();
    write_chrome_trace(&mut out, &report.trace, &report.links).expect("export must succeed");
    let json = String::from_utf8(out).expect("the trace is ASCII JSON");
    let stats = validate_chrome_trace(&json).expect("the exported trace must validate");
    assert_eq!(stats.tracks, 16, "one track per rank");
    assert!(stats.spans > 0, "op and block spans must be present");
    assert!(stats.flow_starts > 0, "every put contributes a flow arrow");
    assert_eq!(stats.flow_starts, stats.flow_ends, "an unfiltered trace pairs every flow");
    assert_eq!(stats.dangling_flows, 0);
    assert!(
        (stats.end_time - report.makespan()).abs() < TOL,
        "the trace ends at the makespan: {} vs {}",
        stats.end_time,
        report.makespan()
    );
}

/// `Topology::custom` accepts any link label; the export escapes it, so a
/// label with quotes, backslashes and control characters comes back from
/// the validator as the counter's name.
#[test]
fn link_labels_with_json_metacharacters_round_trip_through_the_export() {
    let single = Topology::single_switch(4, 6.8e9);
    let links = (single.links().iter().enumerate())
        .map(|(i, link)| Link { label: format!("{}\"{i}\\\t\u{7f}\u{1}", link.label), ..link.clone() })
        .collect();
    let topology = Topology::custom("quoted-single-switch", 4, 1, links);
    let report = traced_engine(4).with_topology(topology).run(&ring_allreduce_schedule(4, 64 * 1024)).expect("ring");
    let mut out = Vec::new();
    write_chrome_trace(&mut out, &report.trace, &report.links).expect("export must succeed");
    let stats = validate_chrome_trace(std::str::from_utf8(&out).expect("UTF-8")).expect("the export must validate");
    let mut want: Vec<String> = (report.links.iter())
        .filter(|link| !link.busy_intervals.is_empty())
        .map(|link| format!("link:{}", link.label))
        .collect();
    want.sort();
    assert_eq!(want.len(), 8, "every link of the ring carries traffic");
    assert_eq!(stats.counter_busy.iter().map(|(name, _)| name.clone()).collect::<Vec<_>>(), want);
}

/// A `Write` that refuses the write that would take it past `fail_at` bytes
/// — once, like a disk that was full for a moment — and counts what it took.
struct FailsOnce {
    written: usize,
    fail_at: usize,
    failed_at: Option<usize>,
}

impl std::io::Write for FailsOnce {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        if self.failed_at.is_none() && self.written + buf.len() > self.fail_at {
            self.failed_at = Some(self.written);
            return Err(std::io::Error::other("no space left on device"));
        }
        self.written += buf.len();
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[test]
fn chrome_export_reports_a_failed_write() {
    let engine = traced_engine(16);
    let program = ring_allreduce_schedule(16, 1 << 20);
    let report = engine.run(&program).expect("ring must simulate");
    let mut complete = Vec::new();
    write_chrome_trace(&mut complete, &report.trace, &report.links).expect("writing to memory succeeds");
    let disk = || FailsOnce { written: 0, fail_at: complete.len() / 2, failed_at: None };

    let mut out = disk();
    let error = write_chrome_trace(&mut out, &report.trace, &report.links).expect_err("the export must fail");
    assert_eq!(error.to_string(), "no space left on device");
    assert_eq!(Some(out.written), out.failed_at, "nothing is written after the failure");

    // The same fed by hand through `record`, which cannot return the error:
    // the first one is kept for `finish`, and the truncated file is not
    // closed as if it were whole.
    let mut writer = ChromeTraceWriter::new(disk()).expect("opener fits");
    for event in &report.trace {
        writer.record(&event);
    }
    let error = writer.finish().expect_err("finish must report the lost write");
    assert_eq!(error.to_string(), "no space left on device");
}

/// Run `program` in one of the three forms a caller can hold it in.
fn run_mode(engine: &Engine, program: &Program, mode: usize) -> RunReport {
    match mode {
        0 => engine.run(program).expect("materialized run"),
        1 => {
            let compiled = program.compile().expect("program must compile");
            engine.run_compiled(&compiled).expect("compiled run")
        }
        _ => {
            let compiled = CompiledProgram::from_source(program).expect("source must compile");
            engine.run_compiled(&compiled).expect("source run")
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The trace (and the per-rank statistics) must not depend on how the
    /// program was fed to the engine (materialized / compiled / source) or
    /// whether the flow-level fabric priced the wires.
    #[test]
    fn traces_are_identical_across_program_forms_and_fabric(
        ranks in 4usize..12,
        kib in 1u64..32,
        fabric_flag in 0usize..2,
    ) {
        let fabric = fabric_flag == 1;
        let program = ring_allreduce_schedule(ranks, kib * 1024);
        let engine = if fabric {
            traced_engine(ranks).with_topology(Topology::single_switch(ranks, 6.8e9))
        } else {
            traced_engine(ranks)
        };
        let reference = run_mode(&engine, &program, 0);
        prop_assert!(!reference.trace.is_empty());
        for mode in 1..3 {
            let report = run_mode(&engine, &program, mode);
            prop_assert_eq!(
                &report.trace,
                &reference.trace,
                "mode {}, fabric {}: the event multiset must be invariant",
                mode,
                fabric
            );
            prop_assert_eq!(&report.ranks, &reference.ranks);
        }
    }
}

// ---------------------------------------------------------------------------
// Golden pins of the trace pipeline: the canonical event sequence, the
// exported bytes and the critical path of fixed runs.  Any change to how the
// trace is stored, ordered, walked or written must leave all of them alone.
// ---------------------------------------------------------------------------

/// 64-bit FNV-1a.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn words(&mut self, words: &[u64]) {
        for w in words {
            self.bytes(&w.to_le_bytes());
        }
    }
}

fn label_words(label: MsgLabel) -> [u64; 2] {
    match label {
        MsgLabel::Notify(id) => [0, u64::from(id)],
        MsgLabel::Tag(tag) => [1, u64::from(tag)],
    }
}

/// Everything the pins cover, as one comparable line: event count and digest
/// of the canonical `(time, rank, seq)` sequence (every field of every
/// event), byte length and digest of the Chrome export (link counter tracks
/// included), and the critical path's segment count and category bits.
fn trace_pin(report: &RunReport) -> String {
    let mut events = 0usize;
    let mut h = Fnv::new();
    for e in &report.trace {
        events += 1;
        h.words(&[e.time.to_bits(), e.rank as u64, e.kind as u64, e.op_index.map_or(u64::MAX, |i| i as u64), e.seq]);
        match e.detail {
            TraceDetail::None => h.words(&[0]),
            TraceDetail::Op { op } => h.words(&[1, op as u64]),
            TraceDetail::Block { reason } => match reason {
                BlockReason::Recv { src, tag } => h.words(&[2, 0, src as u64, u64::from(tag)]),
                BlockReason::Notify => h.words(&[2, 1]),
                BlockReason::SendTxDone => h.words(&[2, 2]),
                BlockReason::AllSends => h.words(&[2, 3]),
                BlockReason::Barrier => h.words(&[2, 4]),
            },
            TraceDetail::Inject { dst, bytes, label, flow } => {
                let [kind, id] = label_words(label);
                h.words(&[3, dst as u64, bytes, kind, id, flow]);
            }
            TraceDetail::Arrival { src, bytes, label, flow, inject, queue, wire } => {
                let [kind, id] = label_words(label);
                h.words(&[4, src as u64, bytes, kind, id, flow, inject.to_bits(), queue.to_bits(), wire.to_bits()]);
            }
        }
    }
    assert_eq!(events as u64, report.metrics.trace_events, "the metric counts the kept events");
    let mut out = Vec::new();
    write_chrome_trace(&mut out, &report.trace, &report.links).expect("export must succeed");
    let mut x = Fnv::new();
    x.bytes(&out);
    let cp = report.critical_path().expect("a traced run has a critical path");
    let b = cp.breakdown;
    let bits = [b.compute, b.alpha, b.wire, b.blocked, b.queueing].map(|v| format!("{:016x}", v.to_bits())).join(",");
    format!("events {events} {:016x} | export {} {:016x} | path {} {bits}", h.0, out.len(), x.0, cp.segments.len())
}

/// Alpha-beta engine with the fig15 link jitter, traced.
fn jittered_engine(ranks: usize) -> Engine {
    traced_engine(ranks).with_scenario(fig15_scenario(7))
}

/// `RunReport::fingerprint` of the p=32 jittered 1 MiB ring the two ring pins
/// run.  `ec_netsim`'s `strict_loop_reproduces_the_pinned_ring_traces` builds
/// the same run (same fingerprint) and checks that the strict loop's trace
/// equals the dataflow path's, which extends both pins to the strict loop.
const PINNED_RING_FINGERPRINT: u64 = 0x5723_a09c_2641_e12b;

#[test]
fn pinned_ring_trace_on_every_execution_path() {
    const PIN: &str = concat!(
        "events 15872 e3a5e499af6a100d",
        " | export 1993823 4b63ee345c9dc23a",
        " | path 155 3f2305440a2affe4,3f21d7df697bc8bb,3f3618f9d9ffa0e4,0000000000000000,0000000000000000"
    );
    let program = ring_allreduce_schedule(32, 1 << 20);
    let report = jittered_engine(32).run(&program).expect("ring must simulate");
    assert!(report.metrics.dataflow_burst_ops > 0, "the single-writer ring rides the dataflow path");
    assert_eq!(report.fingerprint(), PINNED_RING_FINGERPRINT);
    assert_eq!(trace_pin(&report), PIN, "dataflow path");
}

#[test]
fn pinned_multi_writer_trace_on_alpha_beta() {
    // SSP hypercube: every rank has log2(p) writers, so arrivals at one rank
    // are recorded out of time order by the strict loop.
    let program = ssp_scale_program(&SspScaleConfig { iterations: 6, ..SspScaleConfig::new(16, 0) });
    let report = jittered_engine(16).run(&program).expect("ssp must simulate");
    assert_eq!(report.metrics.dataflow_burst_ops, 0, "multi-writer programs run the strict loop");
    assert_eq!(
        trace_pin(&report),
        concat!(
            "events 3388 04a4380eba1e2907",
            " | export 384488 d6b48d4f9e001c0d",
            " | path 47 3f7643e07da00108,3ef294eca258c86a,3f013149496af1ab,0000000000000000,3f11797da0c40540"
        )
    );
}

#[test]
fn pinned_multi_writer_trace_on_the_flow_fabric() {
    let program = alltoall_direct_schedule(16, 32 * 1024);
    let engine = jittered_engine(16).with_topology(Topology::single_switch(16, 6.8e9));
    let report = engine.run(&program).expect("alltoall must simulate");
    assert!(report.links.iter().any(|l| !l.busy_intervals.is_empty()), "the export carries link counter tracks");
    assert_eq!(
        trace_pin(&report),
        concat!(
            "events 1008 f49f890afdc5eb0a",
            " | export 157127 d5c68bf399671931",
            " | path 16 0000000000000000,3edb2907ec9f24f0,3ed49695ebf8c290,0000000000000000,3f12be2600e841c6"
        )
    );
}

#[test]
fn pinned_windowed_and_sampled_trace() {
    const PIN: &str = concat!(
        "events 3968 243a145883ae649c",
        " | export 498839 9c6bd93a06ef8982",
        " | path 2 0000000000000000,3ec02b5792b1c08a,3ed6c38dfce065bb,3f440517bc74aec7,0000000000000000"
    );
    let program = ring_allreduce_schedule(32, 1 << 20);
    let filter = TraceFilter { first_rank: 5, last_rank: 20, sample: 2 };
    let report = jittered_engine(32).with_trace_filter(filter).run(&program).expect("ring");
    assert_eq!(report.fingerprint(), PINNED_RING_FINGERPRINT);
    assert_eq!(trace_pin(&report), PIN, "dataflow path");
}

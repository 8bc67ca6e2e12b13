//! The one file through which the benchmark calls the repository.
//!
//! Every call below is wrapped in a span of the layer it belongs to, so the
//! traced run can attribute time from outside the program.  The benchmark
//! depends on exactly these public items; an API change that removes one
//! must keep a shim for it or change this file and nothing else:
//!
//! * `ec_collectives::schedule::ring_allreduce_schedule`
//! * `ec_collectives::{RingAllreduce, AllToAll, BroadcastBst}::{new, run}`,
//!   `ReduceOp::Sum`, `Threshold::percent`
//! * `ec_gaspi::{Job::new, Job::run, GaspiConfig::new}`,
//!   `Context::{rank, segment_create, barrier, write_notify, notify_waitsome, notify_reset}`
//! * `ec_baseline::{MpiWorld::new, MpiWorld::run, allreduce_ring}`
//! * `ec_netsim::Program::compile`, `CompiledProgram::{from_source, total_ops, memory_stats}`
//! * `ec_netsim::{validate_compiled, analyze_compiled}`, `AnalysisReport::{is_clean, is_deadlock_free}`
//! * `ec_netsim::Engine::{new, with_scenario, with_shards, with_trace, with_report_detail, run_compiled}`
//! * `ec_netsim::{ClusterSpec::homogeneous, CostModel::{skylake_fdr, marenostrum4_opa}, ReportDetail::Summary}`
//! * `ec_netsim::ClusterPreset::{engine, engine_alpha_beta}` and its `cluster` field
//! * `ec_netsim::RunReport::{fingerprint, makespan, critical_path}` and its
//!   `metrics`, `trace`, `links` fields; `EngineMetrics` fields;
//!   `CriticalPath::{breakdown, makespan, segments}`, `CategoryBreakdown::total`
//! * `ec_netsim::{write_chrome_trace, validate_chrome_trace}`
//! * `ec_netsim::{Topology::fat_tree, Fabric::{new, add_flow, resolve_full, solver_passes}}`
//! * `ec_netsim::{PacketFabric::{new, add_flow, resolve, advance_to, take_completed, totals}, PacketConfig::default}`
//! * `ec_bench::ssp_scale::{SspScaleConfig, ssp_scale_program, fig14_scenario}`
//! * `ec_bench::congestion::{CongestionConfig, Collective, run_point, fig15_engine, fig15_scenario}`
//! * `ec_bench::incast::{IncastConfig, FabricKind, run_point, fig18_engine}`
//! * `ec_bench::tuner::{SweepConfig, winner_table, select_allreduce, select_alltoall, fig16_preset,
//!   AllreduceVariant, AlltoallVariant, Pricing, CollectiveKind}`
//! * `ec_bench::million::{WindowedRingSource, UniformSspSource}`

use std::time::Instant;

use ec_baseline::MpiWorld;
use ec_bench::{congestion, incast, ssp_scale, tuner};
use ec_collectives::{AllToAll, BroadcastBst, ReduceOp, RingAllreduce, Threshold};
use ec_gaspi::{GaspiConfig, Job};
use ec_netsim::{ClusterSpec, CostModel, Fabric, PacketConfig, PacketFabric, ProgramSource, ReportDetail, Topology};

pub use ec_bench::congestion::{Collective, CongestionConfig};
pub use ec_bench::incast::{FabricKind, IncastConfig};
pub use ec_bench::million::{UniformSspSource, WindowedRingSource};
pub use ec_bench::ssp_scale::SspScaleConfig;
use ec_bench::tuner::{AllreduceVariant, AlltoallVariant};
pub use ec_bench::tuner::{CollectiveKind, Pricing, SweepConfig};
pub use ec_netsim::{ClusterPreset, CompiledProgram, Engine, Program, RunReport};

use crate::alloc;
use crate::harness::mix;
use crate::span::{Kind, Layer, Tracer};

/// Which of the paper's machines an alpha–beta engine models.
#[derive(Debug, Clone, Copy)]
pub enum Machine {
    SkylakeFdr,
    MareNostrum4,
}

/// Which seeded perturbation an engine applies.
#[derive(Debug, Clone, Copy)]
pub enum Perturb {
    None,
    /// `fig14_scenario(seed)`: node speed spread, link jitter, stragglers.
    Fig14(u64),
    /// `fig15_scenario(seed)`: mild link jitter.
    Fig15(u64),
}

// -- record ------------------------------------------------------------------

fn record(t: &Tracer, name: &'static str, f: impl FnOnce() -> Program) -> Program {
    t.scope_counted(Layer::Record, name, f, |p| p.total_ops() as u64).0
}

pub fn record_ring(t: &Tracer, ranks: usize, bytes: u64) -> Program {
    record(t, "ring_allreduce_schedule", || ec_collectives::schedule::ring_allreduce_schedule(ranks, bytes))
}

pub fn record_ssp(t: &Tracer, cfg: &SspScaleConfig) -> Program {
    record(t, "ssp_scale_program", || ssp_scale::ssp_scale_program(cfg))
}

pub fn record_congestion(t: &Tracer, cfg: &CongestionConfig, collective: Collective) -> Program {
    record(t, "Collective::program", || collective.program(cfg))
}

pub fn record_incast(t: &Tracer, cfg: &IncastConfig, collective: Collective) -> Program {
    record(t, "IncastConfig::program", || cfg.program(collective))
}

/// Candidate `index` of the tuner's pool for `kind`, recorded for one grid row.
pub fn record_candidate(
    t: &Tracer,
    kind: CollectiveKind,
    index: usize,
    ranks: usize,
    bytes: u64,
    rpn: usize,
) -> Program {
    record(t, "Variant::schedule", || match kind {
        CollectiveKind::Allreduce => AllreduceVariant::all()[index].schedule(ranks, bytes, rpn),
        CollectiveKind::Alltoall => AlltoallVariant::all()[index].schedule(ranks, bytes),
    })
}

pub fn candidates(kind: CollectiveKind) -> usize {
    match kind {
        CollectiveKind::Allreduce => AllreduceVariant::all().len(),
        CollectiveKind::Alltoall => AlltoallVariant::all().len(),
    }
}

// -- compile, validate, analyze ------------------------------------------------

/// Span bookkeeping shared by the two compile entry points: ops compiled as
/// the span's work, allocation count and arena figures as sample values.
fn compile_span(t: &Tracer, name: &'static str, f: impl FnOnce() -> CompiledProgram) -> CompiledProgram {
    let allocs = alloc::counts().0;
    let (compiled, _) = t.scope_counted(Layer::Compile, name, f, CompiledProgram::total_ops);
    if t.enabled() {
        let stats = compiled.memory_stats();
        t.value("compile.allocs", (alloc::counts().0 - allocs) as f64, Kind::Count);
        t.value("compile.arena_bytes", stats.arena_bytes as f64, Kind::Plain);
        t.value("compile.dedup_ratio", stats.dedup_ratio, Kind::Plain);
    }
    compiled
}

pub fn compile(t: &Tracer, program: &Program) -> CompiledProgram {
    compile_span(t, "Program::compile", || program.compile().expect("benchmark programs validate"))
}

pub fn compile_source<S: ProgramSource>(t: &Tracer, source: &S) -> CompiledProgram {
    compile_span(t, "CompiledProgram::from_source", || {
        CompiledProgram::from_source(source).expect("benchmark sources validate")
    })
}

pub fn validate(t: &Tracer, program: &CompiledProgram, ranks: usize) -> bool {
    t.scope(Layer::Validate, "validate_compiled", || ec_netsim::validate_compiled(program, ranks).is_ok()).0
}

/// What the static analyzer may find in a program that is still correct.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Allow {
    /// Nothing: no deadlock, leak or race.
    Nothing,
    /// Unconsumed notifications: an SSP exchange with slack `s` leaves the
    /// last `s` arrivals per partner unconsumed by design.  Deadlock and
    /// starvation are still defects.
    Leaks,
}

/// Whether the static analyzer accepts the program.
pub fn analyze(t: &Tracer, program: &CompiledProgram, allow: Allow) -> bool {
    let ops = program.total_ops();
    let check = || {
        let report = ec_netsim::analyze_compiled(program);
        match allow {
            Allow::Nothing => report.is_clean(),
            Allow::Leaks => report.is_deadlock_free(),
        }
    };
    t.scope_counted(Layer::Analyze, "analyze_compiled", check, |_| ops).0
}

// -- engines -------------------------------------------------------------------

/// One rank per node on the contention-free alpha–beta network.
pub fn alpha_beta_engine(t: &Tracer, ranks: usize, machine: Machine, perturb: Perturb) -> Engine {
    t.scope(Layer::Topology, "Engine::new", || {
        let cost = match machine {
            Machine::SkylakeFdr => CostModel::skylake_fdr(),
            Machine::MareNostrum4 => CostModel::marenostrum4_opa(),
        };
        perturbed(Engine::new(ClusterSpec::homogeneous(ranks, 1), cost), perturb)
    })
    .0
}

fn perturbed(engine: Engine, perturb: Perturb) -> Engine {
    match perturb {
        Perturb::None => engine,
        Perturb::Fig14(seed) => engine.with_scenario(ssp_scale::fig14_scenario(seed)),
        Perturb::Fig15(seed) => engine.with_scenario(congestion::fig15_scenario(seed)),
    }
}

pub fn sharded_summary(engine: Engine, shards: usize) -> Engine {
    engine.with_shards(shards).with_report_detail(ReportDetail::Summary)
}

pub fn traced(engine: Engine) -> Engine {
    engine.with_trace(true)
}

pub fn fig15_engine(t: &Tracer, cfg: &CongestionConfig, taper: f64) -> Engine {
    t.scope(Layer::Topology, "fig15_engine", || congestion::fig15_engine(cfg, taper)).0
}

pub fn fig18_engine(t: &Tracer, cfg: &IncastConfig, kind: FabricKind, taper: f64) -> Engine {
    t.scope(Layer::Topology, "fig18_engine", || incast::fig18_engine(cfg, kind, taper)).0
}

/// The alpha–beta twin of a fig15/fig18 engine: same cluster, cost model
/// and scenario, no fabric.  A run on it is the reference that is
/// subtracted from the run on the network model.
pub fn alpha_beta_twin(engine: &Engine) -> Engine {
    let twin = Engine::new(engine.cluster().clone(), engine.cost().clone());
    match engine.scenario() {
        Some(s) => twin.with_scenario(s.clone()),
        None => twin,
    }
}

pub fn fig16_preset(t: &Tracer, ranks: usize, rpn: usize, taper: f64) -> ClusterPreset {
    t.scope(Layer::Topology, "fig16_preset", || tuner::fig16_preset(ranks, rpn, taper)).0
}

pub fn preset_engine(t: &Tracer, preset: &ClusterPreset, pricing: Pricing) -> Engine {
    t.scope(Layer::Topology, "ClusterPreset::engine", || match pricing {
        Pricing::AlphaBeta => preset.engine_alpha_beta(),
        Pricing::Fabric => preset.engine(),
    })
    .0
}

// -- run -----------------------------------------------------------------------

/// `Engine::run_compiled` in a span of `layer`; returns the report and the
/// raw wall seconds.  The engine's public counters become sample values
/// unless the run is a reference.
pub fn run(t: &Tracer, layer: Layer, engine: &Engine, program: &CompiledProgram) -> (RunReport, f64) {
    let allocs = alloc::counts().0;
    let ops = program.total_ops();
    let (report, secs) = t.scope_counted(
        layer,
        "Engine::run_compiled",
        || engine.run_compiled(program).expect("benchmark programs simulate"),
        |_| ops,
    );
    if t.enabled() && layer != Layer::Reference {
        let m = &report.metrics;
        let kops = program.total_ops() as f64 / 1000.0;
        t.value("engine.events_scheduled", m.events_scheduled as f64, Kind::Count);
        t.value("engine.dataflow_burst_ops", m.dataflow_burst_ops as f64, Kind::Count);
        t.value("engine.calendar_bucket_sorts", m.calendar_bucket_sorts as f64, Kind::Count);
        t.value("engine.allocs_per_kop", (alloc::counts().0 - allocs) as f64 / kops, Kind::Plain);
        t.value("fabric.solves", m.fabric_solves as f64, Kind::Count);
        t.value("fabric.balanced_swap_hits", m.balanced_swap_hits as f64, Kind::Count);
        t.value("packet.events", m.packet_events as f64, Kind::Count);
        t.value("packet.drops", m.packet_drops as f64, Kind::Count);
        t.value("packet.retransmits", m.packet_retransmits as f64, Kind::Count);
        t.value("packet.pfc_pauses", m.pfc_pauses as f64, Kind::Count);
        t.value("packet.ecn_marks", m.ecn_marks as f64, Kind::Count);
        t.value("trace.events", m.trace_events as f64, Kind::Count);
    }
    (report, secs)
}

pub fn fingerprint(t: &Tracer, report: &RunReport) -> u64 {
    t.scope(Layer::Report, "RunReport::fingerprint", || report.fingerprint()).0
}

/// Critical path of a traced report: `(segments, |categories − makespan|)`.
pub fn critical_path(t: &Tracer, report: &RunReport) -> (usize, f64) {
    t.scope(Layer::Critpath, "RunReport::critical_path", || {
        let path = report.critical_path().expect("a traced report has a critical path");
        (path.segments.len(), (path.breakdown.total() - path.makespan).abs())
    })
    .0
}

/// Export the report's trace as Chrome-trace JSON into `out`.
pub fn write_chrome_trace<W: std::io::Write + Send>(t: &Tracer, report: &RunReport, out: W) {
    let (_, secs) = t.scope(Layer::Trace, "write_chrome_trace", || {
        ec_netsim::write_chrome_trace(out, &report.trace, &report.links).expect("writing to memory cannot fail");
    });
    t.value("trace.export_s", secs, Kind::Time);
}

pub fn validate_chrome_trace(t: &Tracer, json: &str) -> bool {
    let (ok, secs) = t.scope(Layer::Trace, "validate_chrome_trace", || ec_netsim::validate_chrome_trace(json).is_ok());
    t.value("trace.validate_s", secs, Kind::Time);
    ok
}

// -- ec_bench entry points that cannot be split from outside --------------------

fn digest(values: impl IntoIterator<Item = u64>) -> u64 {
    values.into_iter().fold(0, |d, v| mix(d ^ v))
}

/// One fig15 cell; the digest covers every simulated statistic it returns.
pub fn congestion_point(t: &Tracer, cfg: &CongestionConfig, collective: Collective, taper: f64) -> u64 {
    let p = t.scope(Layer::Opaque, "congestion::run_point", || congestion::run_point(cfg, collective, taper)).0;
    digest([
        p.makespan.to_bits(),
        p.max_link_utilization.to_bits(),
        p.core_congestion_time.to_bits(),
        p.congested_links as u64,
    ])
}

/// The digest [`congestion_point`] would return for the run behind `report`.
pub fn congestion_digest(report: &RunReport) -> u64 {
    let core: f64 = report.links.iter().filter(|l| l.label.contains("core")).map(|l| l.saturated_time).sum();
    digest([
        report.makespan().to_bits(),
        report.max_link_utilization().to_bits(),
        core.to_bits(),
        report.congested_links() as u64,
    ])
}

/// One fig18 cell: `(digest, drops + retransmits)`.
pub fn incast_point(
    t: &Tracer,
    cfg: &IncastConfig,
    collective: Collective,
    kind: FabricKind,
    taper: f64,
) -> (u64, u64) {
    let p = t.scope(Layer::Opaque, "incast::run_point", || incast::run_point(cfg, collective, kind, taper)).0;
    let d = digest([p.makespan.to_bits(), p.pfc_pauses, p.pause_time.to_bits(), p.ecn_marks, p.drops, p.retransmits]);
    (d, p.drops + p.retransmits)
}

/// What [`incast_point`] would return for the run behind `report`.
pub fn incast_digest(report: &RunReport) -> (u64, u64) {
    let m = &report.metrics;
    let pause_time: f64 = report.links.iter().map(|l| l.pause_time).sum();
    let d = digest([
        report.makespan().to_bits(),
        m.pfc_pauses,
        pause_time.to_bits(),
        m.ecn_marks,
        m.packet_drops,
        m.packet_retransmits,
    ]);
    (d, m.packet_drops + m.packet_retransmits)
}

/// The fig16 winner table on the sweep's own worker pool; the digest covers
/// every predicted makespan.
pub fn winner_table(t: &Tracer, cfg: &SweepConfig) -> u64 {
    let rows = t.scope(Layer::Opaque, "tuner::winner_table", || tuner::winner_table(cfg)).0;
    digest(rows.iter().flat_map(|row| {
        let slots = std::iter::once(&row.alpha_beta).chain(row.fabric.iter().map(|(_, s)| s));
        slots.flat_map(|s| s.predictions.iter().map(|p| p.seconds.to_bits()))
    }))
}

/// The digest [`winner_table`] returns, from per-row makespans indexed
/// `[candidate][slot]` (slot 0 = alpha–beta, then one per taper).
pub fn winner_table_digest(rows: &[Vec<Vec<f64>>]) -> u64 {
    digest(rows.iter().flat_map(|row| {
        let slots = row.first().map_or(0, Vec::len);
        (0..slots).flat_map(move |slot| row.iter().map(move |cand| cand[slot].to_bits()))
    }))
}

/// One tuner cell priced on the calling thread; returns its raw seconds.
pub fn select_cell(t: &Tracer, kind: CollectiveKind, preset: &ClusterPreset, bytes: u64, pricing: Pricing) -> f64 {
    t.scope(Layer::Opaque, "tuner::select", || match kind {
        CollectiveKind::Allreduce => drop(tuner::select_allreduce(preset, bytes, pricing)),
        CollectiveKind::Alltoall => drop(tuner::select_alltoall(preset, bytes, pricing)),
    })
    .1
}

// -- standalone network kernels (the BENCH_fabric.json rows) ---------------------

/// Max-min solves per raw second: 1024 flows on a 256-node fat-tree at 4:1.
pub fn fabric_solves_per_s(t: &Tracer, nodes: usize, flows: usize, solves: usize) -> f64 {
    let topology = Topology::fat_tree(nodes, 8, 4.0, 1e10);
    let mut fabric = Fabric::new(topology).expect("benchmark topology is connected");
    for i in 0..flows {
        let src = i % nodes;
        fabric.add_flow(0.0, src, (src + 8 * (1 + i / nodes)) % nodes, 1e9);
    }
    fabric.resolve_full(0.0);
    let before = fabric.solver_passes();
    let (_, secs) = t.scope(Layer::Opaque, "Fabric::resolve_full", || {
        for _ in 0..solves {
            fabric.resolve_full(0.0);
        }
    });
    assert_eq!(fabric.solver_passes() - before, solves as u64, "every resolve_full is one solver pass");
    solves as f64 / secs
}

/// Data packets per raw second draining a many-to-one incast through the
/// PFC packet fabric.
pub fn packet_drain_pkts_per_s(t: &Tracer, nodes: usize, flows: usize) -> f64 {
    let topology = Topology::fat_tree(nodes, 8, 4.0, 1e10);
    let mut fabric = PacketFabric::new(&topology, PacketConfig::default()).expect("benchmark topology is connected");
    for i in 0..flows {
        fabric.add_flow(0.0, 1 + i % (nodes - 1), 0, 262_144.0);
    }
    let (_, secs) = t.scope(Layer::Opaque, "PacketFabric drain", || {
        let mut done = Vec::new();
        while let Some(at) = fabric.resolve(0.0) {
            fabric.advance_to(at);
            fabric.take_completed(at, &mut done);
        }
        assert_eq!(done.len(), flows, "every incast flow completes");
    });
    fabric.totals().data_packets as f64 / secs
}

// -- threaded runtime ----------------------------------------------------------

/// Call counts and payload sizes of the threaded pass.
#[derive(Debug, Clone, Copy)]
pub struct ThreadedShape {
    pub ring_calls: usize,
    pub ring_elems: usize,
    pub alltoall_calls: usize,
    pub alltoall_block: usize,
    pub bcast_calls: usize,
    pub bcast_elems: usize,
}

/// What rank 0 saw: per-phase raw seconds and the data to check.
#[derive(Debug, Clone)]
pub struct ThreadedOut {
    pub ring_s: f64,
    pub alltoall_s: f64,
    pub bcast_s: f64,
    pub mpi_ring_s: f64,
    /// Element 0 and the last element of the GASPI ring result, per rank.
    pub ring_ends: Vec<(f64, f64)>,
    pub mpi_ring_ends: Vec<(f64, f64)>,
    /// First byte of every received alltoall block, per rank.
    pub alltoall_heads: Vec<Vec<u8>>,
    pub bcast_ends: Vec<(f64, f64)>,
}

/// One GASPI job of two ranks running the three collectives back to back on
/// real data, then the same ring count on the two-sided MPI baseline.  Every
/// rank contributes `base[rank]` in every element, so results have closed
/// forms; each ring call halves its input again so the values stay bounded.
pub fn threaded_pass(t: &Tracer, shape: ThreadedShape, base: [f64; 2]) -> ThreadedOut {
    const RANKS: usize = 2;
    let (gaspi, _) = t.scope(Layer::Threaded, "Job::run", || {
        Job::new(GaspiConfig::new(RANKS))
            .run(|ctx| {
                let rank = ctx.rank();
                let ring = RingAllreduce::new(ctx, shape.ring_elems).expect("ring handle");
                let a2a = AllToAll::new(ctx, shape.alltoall_block).expect("alltoall handle");
                let bcast = BroadcastBst::new(ctx, shape.bcast_elems).expect("bcast handle");
                let mut data = vec![base[rank]; shape.ring_elems];
                let start = Instant::now();
                for _ in 0..shape.ring_calls {
                    ring.run(&mut data, ReduceOp::Sum).expect("ring allreduce");
                    data.iter_mut().for_each(|v| *v *= 0.5);
                }
                let ring_s = start.elapsed().as_secs_f64();
                let send: Vec<u8> =
                    (0..RANKS * shape.alltoall_block).map(|i| (rank * 16 + i / shape.alltoall_block) as u8).collect();
                let mut recv = vec![0u8; RANKS * shape.alltoall_block];
                let start = Instant::now();
                for _ in 0..shape.alltoall_calls {
                    a2a.run(&send, &mut recv, shape.alltoall_block).expect("alltoall");
                }
                let alltoall_s = start.elapsed().as_secs_f64();
                let mut payload = vec![if rank == 0 { base[0] } else { 0.0 }; shape.bcast_elems];
                let start = Instant::now();
                for _ in 0..shape.bcast_calls {
                    bcast.run(&mut payload, 0, Threshold::percent(100.0)).expect("broadcast");
                }
                let bcast_s = start.elapsed().as_secs_f64();
                let heads: Vec<u8> = (0..RANKS).map(|r| recv[r * shape.alltoall_block]).collect();
                (ring_s, alltoall_s, bcast_s, ends(&data), heads, ends(&payload))
            })
            .expect("GASPI job")
    });
    let (mpi, _) = t.scope(Layer::Threaded, "MpiWorld::run", || {
        MpiWorld::new(RANKS).run(|comm| {
            let mut data = vec![base[comm.rank()]; shape.ring_elems];
            let start = Instant::now();
            for _ in 0..shape.ring_calls {
                ec_baseline::allreduce_ring(comm, &mut data).expect("MPI ring allreduce");
                data.iter_mut().for_each(|v| *v *= 0.5);
            }
            (start.elapsed().as_secs_f64(), ends(&data))
        })
    });
    ThreadedOut {
        ring_s: gaspi[0].0,
        alltoall_s: gaspi[0].1,
        bcast_s: gaspi[0].2,
        mpi_ring_s: mpi[0].0,
        ring_ends: gaspi.iter().map(|g| g.3).collect(),
        mpi_ring_ends: mpi.iter().map(|m| m.1).collect(),
        alltoall_heads: gaspi.iter().map(|g| g.4.clone()).collect(),
        bcast_ends: gaspi.iter().map(|g| g.5).collect(),
    }
}

fn ends(v: &[f64]) -> (f64, f64) {
    (v[0], v[v.len() - 1])
}

/// Raw seconds to spawn and join an empty two-rank job.
pub fn job_spawn_seconds(t: &Tracer) -> f64 {
    t.scope(Layer::Threaded, "Job::run (empty)", || {
        Job::new(GaspiConfig::new(2)).run(|ctx| ctx.rank()).expect("GASPI job");
    })
    .1
}

/// Raw seconds per `write_notify` → `notify_waitsome` round trip between two
/// ranks, over `round_trips` of them.
pub fn pingpong_seconds(t: &Tracer, round_trips: usize) -> f64 {
    const SEG: u32 = 0;
    let (per_rank, _) = t.scope(Layer::Threaded, "Context ping-pong", || {
        Job::new(GaspiConfig::new(2))
            .run(|ctx| {
                ctx.segment_create(SEG, 64).expect("segment");
                ctx.barrier();
                let (me, peer) = (ctx.rank(), 1 - ctx.rank());
                let start = Instant::now();
                for i in 0..round_trips {
                    if me == 0 {
                        ctx.write_notify(peer, SEG, 0, &(i as u64).to_le_bytes(), 0, 1, 0).expect("ping");
                    }
                    ctx.notify_waitsome(SEG, 0, 1, None).expect("wait");
                    ctx.notify_reset(SEG, 0).expect("reset");
                    if me == 1 {
                        ctx.write_notify(peer, SEG, 0, &(i as u64).to_le_bytes(), 0, 1, 0).expect("pong");
                    }
                }
                start.elapsed().as_secs_f64() / round_trips as f64
            })
            .expect("GASPI job")
    });
    per_rank[0]
}

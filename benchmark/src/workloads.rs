//! The eight workloads: what one timed pass of each does, what it checks,
//! and how the traced run splits it into layers.  Why each exists is in
//! `BENCHMARK.json` and the README; the sizes here are chosen so a pass
//! takes 0.3–0.9 s on the 2-core container the bounds were measured on.
//!
//! Every call into the repository goes through [`crate::adapter`].

use crate::adapter::{
    self, Allow, Collective, CollectiveKind, CompiledProgram, CongestionConfig, Engine, FabricKind, IncastConfig,
    Machine, Perturb, Pricing, Program, RunReport, SspScaleConfig, SweepConfig, ThreadedShape, UniformSspSource,
    WindowedRingSource,
};
use crate::alloc;
use crate::harness::mix;
use crate::span::{Kind, Layer, Tracer};
use crate::stats;

pub const NAMES: [&str; 8] = [
    "ring_dataflow",
    "ssp_strict",
    "alltoall_flow",
    "incast_packet",
    "tuner_sweep",
    "million_sharded",
    "ring_traced",
    "threaded_p2",
];

/// Whether a workload's seconds are calibrated against the reference kernel
/// (see `harness`).  All simulator workloads are: they are CPU- and
/// memory-bound on one or two cores, and over two ten-seed sweeps calibration
/// cut the spread of their medians from 3.5–14 % to 1.2–7.6 %.
/// `threaded_p2` is not: its time is set by cross-thread wake-ups, which do
/// not follow how fast a core runs, and dividing by the kernel only added the
/// kernel's noise (spread 4.1 % and 11.3 % calibrated, 4.6 % and 4.9 % raw).
pub fn calibrated(name: &str) -> bool {
    name != "threaded_p2"
}

/// Result of one pass.
#[derive(Debug, Clone, Copy)]
pub struct PassOut {
    /// Digest of every simulated statistic (or real result) the pass
    /// produced; equal inputs must give equal digests.
    pub digest: u64,
    /// Whether the pass's own output checks held.
    pub ok: bool,
    /// Raw wall seconds of the pass proper (reference runs that the traced
    /// pass appends for attribution are not part of it).
    pub secs: f64,
}

pub trait Workload {
    /// Work items one pass performs: simulated ops (`total_ops` of every
    /// program the pass runs, summed over engines) or collective calls.
    fn work_items(&self) -> u64;

    /// One pass.  With the tracer off it makes the calls a user makes; with
    /// it on it does the same work through the adapter's per-layer pieces,
    /// which must reproduce the digest.
    fn pass(&mut self, t: &Tracer) -> PassOut;

    /// Once per run, after the timed loop: output checks too slow to repeat
    /// every pass and, in the traced run, probes of layers the pass does not
    /// reach.  Returns whether the checks held.
    fn finish(&mut self, t: &Tracer) -> bool;
}

/// Build a workload's inputs from `seed` — everything its passes reuse.
/// `quick` shrinks every size so the whole set runs in seconds (tests).
pub fn setup(name: &str, seed: u64, quick: bool, t: &Tracer) -> Option<Box<dyn Workload>> {
    Some(match name {
        "ring_dataflow" => Box::new(CompiledLoop::ring_dataflow(seed, quick, t)),
        "ssp_strict" => Box::new(CompiledLoop::ssp_strict(seed, quick, t)),
        "alltoall_flow" => Box::new(NetworkCells::alltoall_flow(seed, quick, t)),
        "incast_packet" => Box::new(NetworkCells::incast_packet(seed, quick, t)),
        "tuner_sweep" => Box::new(TunerSweep::new(seed, quick, t)),
        "million_sharded" => Box::new(MillionSharded::new(seed, quick, t)),
        "ring_traced" => Box::new(RingTraced::new(seed, quick, t)),
        "threaded_p2" => Box::new(ThreadedP2::new(seed, quick)),
        _ => return None,
    })
}

/// A value in `[0, span)` drawn from the seed; `salt` separates draws.
fn draw(seed: u64, salt: u64, span: u64) -> u64 {
    mix(seed ^ mix(salt)) % span
}

// -- ring_dataflow, ssp_strict ---------------------------------------------------

/// A program compiled once and run `runs` times per pass on the alpha–beta
/// engine.  The two instances differ in the execution path the program's
/// shape selects: a single-writer ring takes the dataflow burst path, the
/// multi-writer SSP hypercube the strict calendar-queue loop.
struct CompiledLoop {
    engine: Engine,
    compiled: CompiledProgram,
    ranks: usize,
    runs: usize,
    /// Whether every op must go through the dataflow burst path (else none).
    burst: bool,
}

impl CompiledLoop {
    fn ring_dataflow(seed: u64, quick: bool, t: &Tracer) -> Self {
        let ranks = if quick { 64 } else { 1024 };
        // The payload moves simulated times, not the op count.
        let program = adapter::record_ring(t, ranks, 8_000_000 + 8 * draw(seed, 0, 4096));
        let compiled = adapter::compile(t, &program);
        let engine = adapter::alpha_beta_engine(t, ranks, Machine::SkylakeFdr, Perturb::None);
        Self { engine, compiled, ranks, runs: 4, burst: true }
    }

    fn ssp_strict(seed: u64, quick: bool, t: &Tracer) -> Self {
        let mut cfg = SspScaleConfig::new(if quick { 64 } else { 4096 }, 2);
        cfg.seed = seed;
        if quick {
            cfg.iterations = 4;
        }
        let program = adapter::record_ssp(t, &cfg);
        let compiled = adapter::compile(t, &program);
        let engine = adapter::alpha_beta_engine(t, cfg.workers, Machine::MareNostrum4, Perturb::Fig14(seed));
        Self { engine, compiled, ranks: cfg.workers, runs: 1, burst: false }
    }
}

impl Workload for CompiledLoop {
    fn work_items(&self) -> u64 {
        self.runs as u64 * self.compiled.total_ops()
    }

    fn pass(&mut self, t: &Tracer) -> PassOut {
        let burst_ops = if self.burst { self.compiled.total_ops() } else { 0 };
        let ((digest, ok), secs) = t.scope(Layer::Pass, "pass", || {
            let mut first = None;
            let mut ok = true;
            for _ in 0..self.runs {
                let (report, _) = adapter::run(t, Layer::Engine, &self.engine, &self.compiled);
                let fp = adapter::fingerprint(t, &report);
                ok &= report.metrics.dataflow_burst_ops == burst_ops && *first.get_or_insert(fp) == fp;
            }
            (first.unwrap_or(0), ok)
        });
        PassOut { digest, ok, secs }
    }

    fn finish(&mut self, t: &Tracer) -> bool {
        // The analyzer costs ~30x the simulation of the same program, so it
        // checks the program once, in the traced run that also prices it.
        let allow = if self.burst { Allow::Nothing } else { Allow::Leaks };
        !t.enabled() || (adapter::validate(t, &self.compiled, self.ranks) && adapter::analyze(t, &self.compiled, allow))
    }
}

// -- alltoall_flow, incast_packet --------------------------------------------------

/// Digest of a cell's simulated statistics and whether its checks held.
type CellOut = (u64, bool);

/// Uplink taper of every cell: 4:1, where the core saturates.
const TAPER: f64 = 4.0;

/// One cell of a figure sweep: a collective priced on one network model.
enum Cell {
    /// fig15: the flow-level fabric.
    Flow(CongestionConfig, Collective),
    /// fig18: the per-packet fabric, lossless (PFC) or lossy.
    Packet(IncastConfig, Collective, FabricKind),
}

impl Cell {
    /// The layer the network model's share of a run is attributed to.
    fn net(&self) -> Layer {
        match self {
            Cell::Flow(..) => Layer::Fabric,
            Cell::Packet(..) => Layer::Packet,
        }
    }

    /// A lossless PFC fabric must neither drop nor retransmit.
    fn check(&self, (digest, lost): (u64, u64)) -> CellOut {
        (digest, lost == 0 || !matches!(self, Cell::Packet(_, _, FabricKind::PacketPfc)))
    }

    /// The user's call: `congestion::run_point` / `incast::run_point`.
    fn opaque(&self, t: &Tracer) -> CellOut {
        match self {
            Cell::Flow(cfg, collective) => (adapter::congestion_point(t, cfg, *collective, TAPER), true),
            Cell::Packet(cfg, collective, kind) => self.check(adapter::incast_point(t, cfg, *collective, *kind, TAPER)),
        }
    }

    fn record(&self, t: &Tracer) -> Program {
        match self {
            Cell::Flow(cfg, collective) => adapter::record_congestion(t, cfg, *collective),
            Cell::Packet(cfg, collective, _) => adapter::record_incast(t, cfg, *collective),
        }
    }

    fn engine(&self, t: &Tracer) -> Engine {
        match self {
            Cell::Flow(cfg, _) => adapter::fig15_engine(t, cfg, TAPER),
            Cell::Packet(cfg, _, kind) => adapter::fig18_engine(t, cfg, *kind, TAPER),
        }
    }

    /// What `opaque` returns, computed from the report of the split run.
    fn of_report(&self, report: &RunReport) -> CellOut {
        match self {
            Cell::Flow(..) => (adapter::congestion_digest(report), true),
            Cell::Packet(..) => self.check(adapter::incast_digest(report)),
        }
    }
}

/// A pass that prices a few sweep cells end to end — record, build the
/// fabric, compile, simulate — the way the fig15/fig18 binaries do per cell.
struct NetworkCells {
    cells: Vec<Cell>,
    ops: u64,
    /// Compiled programs of the last traced pass, kept for `finish`.
    programs: Vec<CompiledProgram>,
}

impl NetworkCells {
    fn new(cells: Vec<Cell>, t: &Tracer) -> Self {
        let ops = cells.iter().map(|c| c.record(t).total_ops() as u64).sum();
        Self { cells, ops, programs: Vec::new() }
    }

    fn alltoall_flow(seed: u64, quick: bool, t: &Tracer) -> Self {
        let mut cfg = CongestionConfig::new(if quick { 32 } else { 256 });
        cfg.seed = seed;
        Self::new(vec![Cell::Flow(cfg.clone(), Collective::Alltoall), Cell::Flow(cfg, Collective::Ring)], t)
    }

    fn incast_packet(seed: u64, quick: bool, t: &Tracer) -> Self {
        let mut cfg = IncastConfig::new(if quick { 16 } else { 128 });
        // A few bytes off the last packet of each block: the inputs differ
        // by seed, the packet count does not.
        cfg.alltoall_block -= 8 * draw(seed, 0, 64);
        cfg.ring_bytes -= 8 * draw(seed, 1, 64);
        let cells = vec![
            Cell::Packet(cfg.clone(), Collective::Alltoall, FabricKind::PacketPfc),
            Cell::Packet(cfg.clone(), Collective::Alltoall, FabricKind::PacketLossy),
            Cell::Packet(cfg, Collective::Ring, FabricKind::PacketPfc),
        ];
        Self::new(cells, t)
    }
}

impl Workload for NetworkCells {
    fn work_items(&self) -> u64 {
        self.ops
    }

    fn pass(&mut self, t: &Tracer) -> PassOut {
        let fold = |outs: Vec<CellOut>| outs.into_iter().fold((0, true), |(d, ok), (x, k)| (mix(d ^ x), ok && k));
        if !t.enabled() {
            let (outs, secs) = t.scope(Layer::Pass, "pass", || self.cells.iter().map(|c| c.opaque(t)).collect());
            let (digest, ok) = fold(outs);
            return PassOut { digest, ok, secs };
        }
        let (runs, secs) = t.scope(Layer::Pass, "pass", || {
            let split = |c: &Cell| {
                let program = c.record(t);
                let engine = c.engine(t);
                let compiled = adapter::compile(t, &program);
                let (report, secs) = adapter::run(t, c.net(), &engine, &compiled);
                (c.of_report(&report), engine, compiled, secs)
            };
            self.cells.iter().map(split).collect::<Vec<_>>()
        });
        // What the network model added to each run is the run minus the
        // same compiled program on the alpha–beta twin of its engine.
        let net = self.cells[0].net();
        let mut net_secs = 0.0;
        let mut outs = Vec::new();
        self.programs.clear();
        for (out, engine, compiled, secs) in runs {
            let (_, reference) = adapter::run(t, Layer::Reference, &adapter::alpha_beta_twin(&engine), &compiled);
            t.reattribute(net, Layer::Engine, reference.min(secs), compiled.total_ops());
            net_secs += (secs - reference).max(0.0);
            outs.push(out);
            self.programs.push(compiled);
        }
        t.value(if net == Layer::Fabric { "fabric.inrun_s" } else { "packet.inrun_s" }, net_secs, Kind::Time);
        let (digest, ok) = fold(outs);
        PassOut { digest, ok, secs }
    }

    fn finish(&mut self, t: &Tracer) -> bool {
        if !t.enabled() {
            return true;
        }
        // The standalone kernels of BENCH_fabric.json, next to the in-run cost.
        if self.cells[0].net() == Layer::Fabric {
            t.value("fabric.solves_per_s", adapter::fabric_solves_per_s(t, 256, 1024, 4000), Kind::Rate);
        } else {
            t.value("packet.drain_pkts_per_s", adapter::packet_drain_pkts_per_s(t, 32, 128), Kind::Rate);
        }
        self.programs.iter().all(|p| adapter::analyze(t, p, Allow::Nothing))
    }
}

// -- tuner_sweep -------------------------------------------------------------------

/// The fig16 winner table a user runs: wide and shallow, so per-run fixed
/// costs (record, compile, engine set-up) weigh as much as the event loop.
struct TunerSweep {
    cfg: SweepConfig,
    /// `(collective, ranks, bytes)` per table row, in `winner_table` order.
    rows: Vec<(CollectiveKind, usize, u64)>,
    ops: u64,
}

impl TunerSweep {
    fn new(seed: u64, quick: bool, t: &Tracer) -> Self {
        let mut cfg = if quick { SweepConfig::smoke().capped(16) } else { SweepConfig::full().capped(64) };
        // Payloads a few words off the round sizes: same grid shape and op
        // counts, different simulated times per seed.
        for (i, b) in cfg.allreduce_bytes.iter_mut().chain(cfg.alltoall_bytes.iter_mut()).enumerate() {
            if *b >= 512 {
                *b += 8 * draw(seed, i as u64, 8);
            }
        }
        let mut rows = Vec::new();
        for &p in &cfg.rank_counts {
            rows.extend(cfg.allreduce_bytes.iter().map(|&b| (CollectiveKind::Allreduce, p, b)));
            rows.extend(cfg.alltoall_bytes.iter().map(|&b| (CollectiveKind::Alltoall, p, b)));
        }
        let slots = 1 + cfg.tapers.len() as u64;
        let ops = rows
            .iter()
            .flat_map(|&(kind, p, b)| (0..adapter::candidates(kind)).map(move |c| (kind, c, p, b)))
            .map(|(kind, c, p, b)| adapter::record_candidate(t, kind, c, p, b, cfg.ranks_per_node).total_ops() as u64)
            .sum::<u64>()
            * slots;
        Self { cfg, rows, ops }
    }

    /// The engines of one rank count: slot 0 prices alpha–beta on the 1:1
    /// preset, the others the fabric at each taper (as `winner_table` does).
    fn engines(&self, t: &Tracer, ranks: usize) -> Vec<Engine> {
        let preset = |taper| adapter::fig16_preset(t, ranks, self.cfg.ranks_per_node, taper);
        let mut engines = vec![adapter::preset_engine(t, &preset(1.0), Pricing::AlphaBeta)];
        engines.extend(self.cfg.tapers.iter().map(|&k| adapter::preset_engine(t, &preset(k), Pricing::Fabric)));
        engines
    }
}

impl Workload for TunerSweep {
    fn work_items(&self) -> u64 {
        self.ops
    }

    fn pass(&mut self, t: &Tracer) -> PassOut {
        if !t.enabled() {
            let (digest, secs) = t.scope(Layer::Pass, "pass", || adapter::winner_table(t, &self.cfg));
            return PassOut { digest, ok: true, secs };
        }
        // The same table on the calling thread, one span per layer call.
        // `winner_table` compiles each candidate once per engine; so does this.
        let (digest, secs) = t.scope(Layer::Pass, "pass", || {
            let engines: Vec<(usize, Vec<Engine>)> =
                self.cfg.rank_counts.iter().map(|&p| (p, self.engines(t, p))).collect();
            let mut table = Vec::new();
            let mut fabric_secs = 0.0;
            for &(kind, ranks, bytes) in &self.rows {
                let engines = &engines.iter().find(|(p, _)| *p == ranks).expect("rows come from the grid").1;
                let mut row = Vec::new();
                for candidate in 0..adapter::candidates(kind) {
                    let program = adapter::record_candidate(t, kind, candidate, ranks, bytes, self.cfg.ranks_per_node);
                    let mut makespans = Vec::new();
                    let mut alpha_beta_secs = 0.0;
                    for (slot, engine) in engines.iter().enumerate() {
                        let compiled = adapter::compile(t, &program);
                        let layer = if slot == 0 { Layer::Engine } else { Layer::Fabric };
                        let (report, secs) = adapter::run(t, layer, engine, &compiled);
                        if slot == 0 {
                            alpha_beta_secs = secs;
                        } else {
                            // Slot 0 ran this program on alpha–beta: it is
                            // the reference of the fabric slots.
                            t.reattribute(layer, Layer::Engine, alpha_beta_secs.min(secs), compiled.total_ops());
                            fabric_secs += (secs - alpha_beta_secs).max(0.0);
                        }
                        makespans.push(report.makespan());
                    }
                    row.push(makespans);
                }
                table.push(row);
            }
            t.value("fabric.inrun_s", fabric_secs, Kind::Time);
            adapter::winner_table_digest(&table)
        });
        PassOut { digest, ok: true, secs }
    }

    fn finish(&mut self, t: &Tracer) -> bool {
        if !t.enabled() {
            return true;
        }
        // Latency of one cell (one row on one engine), priced on this thread.
        let mut cell_ms = Vec::new();
        for &ranks in &self.cfg.rank_counts {
            let slots =
                std::iter::once((1.0, Pricing::AlphaBeta)).chain(self.cfg.tapers.iter().map(|&k| (k, Pricing::Fabric)));
            for (taper, pricing) in slots {
                let preset = adapter::fig16_preset(t, ranks, self.cfg.ranks_per_node, taper);
                for &(kind, _, bytes) in self.rows.iter().filter(|r| r.1 == ranks) {
                    cell_ms.push(adapter::select_cell(t, kind, &preset, bytes, pricing) * 1e3);
                }
            }
        }
        t.value("tuner.cells", cell_ms.len() as f64, Kind::Count);
        t.value("tuner.cell_p50_ms", stats::median(&cell_ms), Kind::Time);
        if stats::supports_percentile(cell_ms.len(), 90) {
            t.value("tuner.cell_p90_ms", stats::percentile(&cell_ms, 90), Kind::Time);
        }
        true
    }
}

// -- million_sharded ---------------------------------------------------------------

/// fig17 at reduced scale: compile from a `ProgramSource`, simulate on two
/// worker shards with the report folded online, fingerprint — for a
/// dataflow-eligible ring window and a multi-writer SSP hypercube.
struct MillionSharded {
    ring: WindowedRingSource,
    ssp: UniformSspSource,
    ranks: usize,
    seed: u64,
    sharded: Engine,
    ops: u64,
    /// Fingerprints of the last pass, for the one-shard comparison.
    last: [u64; 2],
}

impl MillionSharded {
    fn new(seed: u64, quick: bool, t: &Tracer) -> Self {
        let ranks = if quick { 1 << 10 } else { 1 << 15 };
        let sharded = adapter::sharded_summary(Self::engine(t, ranks, seed), 2);
        Self {
            ring: WindowedRingSource::new(ranks, 8, 32 * 1024),
            ssp: UniformSspSource::new(ranks, 1, 2, 32 * 1024, 200e-6),
            ranks,
            seed,
            sharded,
            ops: 0,
            last: [0; 2],
        }
    }

    fn engine(t: &Tracer, ranks: usize, seed: u64) -> Engine {
        adapter::alpha_beta_engine(t, ranks, Machine::MareNostrum4, Perturb::Fig14(seed))
    }
}

impl Workload for MillionSharded {
    fn work_items(&self) -> u64 {
        self.ops
    }

    fn pass(&mut self, t: &Tracer) -> PassOut {
        let ((fps, ops), secs) = t.scope(Layer::Pass, "pass", || {
            let ring = adapter::compile_source(t, &self.ring);
            let ring_fp = adapter::fingerprint(t, &adapter::run(t, Layer::Engine, &self.sharded, &ring).0);
            let ssp = adapter::compile_source(t, &self.ssp);
            let ssp_fp = adapter::fingerprint(t, &adapter::run(t, Layer::Engine, &self.sharded, &ssp).0);
            ([ring_fp, ssp_fp], ring.total_ops() + ssp.total_ops())
        });
        self.ops = ops;
        self.last = fps;
        PassOut { digest: mix(fps[0] ^ mix(fps[1])), ok: true, secs }
    }

    fn finish(&mut self, t: &Tracer) -> bool {
        // Sharding must not change a single simulated statistic; the ratio
        // of the two runs is what the second shard buys.
        let single = adapter::sharded_summary(Self::engine(t, self.ranks, self.seed), 1);
        let ring = adapter::compile_source(t, &self.ring);
        let ssp = adapter::compile_source(t, &self.ssp);
        let mut ok = true;
        for (i, (compiled, name)) in
            [(&ring, "engine.shards2_speedup_ring"), (&ssp, "engine.shards2_speedup_ssp")].into_iter().enumerate()
        {
            let (one, one_secs) = adapter::run(t, Layer::Reference, &single, compiled);
            let (_, two_secs) = adapter::run(t, Layer::Reference, &self.sharded, compiled);
            ok &= adapter::fingerprint(t, &one) == self.last[i];
            t.value(name, one_secs / two_secs, Kind::Plain);
        }
        ok && (!t.enabled() || (adapter::analyze(t, &ring, Allow::Nothing) && adapter::analyze(t, &ssp, Allow::Leaks)))
    }
}

// -- ring_traced -------------------------------------------------------------------

/// The product's own tracing feature end to end: a traced run, its critical
/// path, and the Chrome-trace export.
struct RingTraced {
    traced: Engine,
    plain: Engine,
    compiled: CompiledProgram,
}

impl RingTraced {
    fn new(seed: u64, quick: bool, t: &Tracer) -> Self {
        let ranks = if quick { 32 } else { 256 };
        let program = adapter::record_ring(t, ranks, 8_000_000 + 8 * draw(seed, 0, 4096));
        let compiled = adapter::compile(t, &program);
        let engine = |t| adapter::alpha_beta_engine(t, ranks, Machine::SkylakeFdr, Perturb::Fig15(seed));
        Self { traced: adapter::traced(engine(t)), plain: engine(&Tracer::new(false)), compiled }
    }
}

impl Workload for RingTraced {
    fn work_items(&self) -> u64 {
        self.compiled.total_ops()
    }

    fn pass(&mut self, t: &Tracer) -> PassOut {
        let allocs = alloc::counts().0;
        let ((digest, ok, traced_secs, events), secs) = t.scope(Layer::Pass, "pass", || {
            let (report, traced_secs) = adapter::run(t, Layer::Trace, &self.traced, &self.compiled);
            let (segments, error) = adapter::critical_path(t, &report);
            t.value("critpath.segments", segments as f64, Kind::Count);
            adapter::write_chrome_trace(t, &report, std::io::sink());
            (adapter::fingerprint(t, &report), error <= 1e-9, traced_secs, report.metrics.trace_events)
        });
        if t.enabled() {
            // What tracing costs = the traced pass minus an untraced run of
            // the same program; the untraced part is the engine's.
            let traced_allocs = alloc::counts().0 - allocs;
            let allocs = alloc::counts().0;
            let (_, plain_secs) = adapter::run(t, Layer::Reference, &self.plain, &self.compiled);
            t.reattribute(Layer::Trace, Layer::Engine, plain_secs.min(traced_secs), self.compiled.total_ops());
            t.value("trace.overhead_x", traced_secs / plain_secs, Kind::Plain);
            t.value("trace.allocs", traced_allocs.saturating_sub(alloc::counts().0 - allocs) as f64, Kind::Count);
            t.value("trace.events_per_s", events as f64 / (traced_secs - plain_secs).max(1e-9), Kind::Rate);
        }
        PassOut { digest, ok, secs }
    }

    fn finish(&mut self, t: &Tracer) -> bool {
        let (report, _) = adapter::run(t, Layer::Reference, &self.traced, &self.compiled);
        let mut json = Vec::new();
        adapter::write_chrome_trace(&Tracer::new(false), &report, &mut json);
        t.value("trace.export_bytes", json.len() as f64, Kind::Plain);
        let valid = std::str::from_utf8(&json).is_ok_and(|text| adapter::validate_chrome_trace(t, text));
        valid && (!t.enabled() || adapter::analyze(t, &self.compiled, Allow::Nothing))
    }
}

// -- threaded_p2 -------------------------------------------------------------------

/// The one workload off the simulator: the collectives on two real threads
/// with real data, GASPI-style against the two-sided MPI baseline.
struct ThreadedP2 {
    shape: ThreadedShape,
    base: [f64; 2],
}

impl ThreadedP2 {
    fn new(seed: u64, quick: bool) -> Self {
        let shape = if quick {
            ThreadedShape {
                ring_calls: 2,
                ring_elems: 1 << 12,
                alltoall_calls: 20,
                alltoall_block: 1024,
                bcast_calls: 20,
                bcast_elems: 1000,
            }
        } else {
            ThreadedShape {
                ring_calls: 20,
                ring_elems: 1 << 20,
                alltoall_calls: 2000,
                alltoall_block: 16 * 1024,
                bcast_calls: 2000,
                bcast_elems: 10_000,
            }
        };
        // Eighths are exact in binary, so the closed forms below are too.
        let base = [0, 1].map(|r| 1.0 + draw(seed, r, 8000) as f64 / 8.0);
        Self { shape, base }
    }
}

impl Workload for ThreadedP2 {
    fn work_items(&self) -> u64 {
        (2 * self.shape.ring_calls + self.shape.alltoall_calls + self.shape.bcast_calls) as u64
    }

    fn pass(&mut self, t: &Tracer) -> PassOut {
        let (out, secs) = t.scope(Layer::Pass, "pass", || adapter::threaded_pass(t, self.shape, self.base));
        // Each ring call sums both ranks' vectors and halves the result, so
        // every element is the mean of the two contributions after the first
        // call and stays there.
        let mean = (self.base[0] + self.base[1]) * 0.5;
        let near = |ends: &[(f64, f64)], want: f64| {
            ends.iter().all(|&(a, b)| (a - want).abs() <= 1e-9 && (b - want).abs() <= 1e-9)
        };
        let ok =
            near(&out.ring_ends, mean)
                && near(&out.mpi_ring_ends, mean)
                && near(&out.bcast_ends, self.base[0])
                && out.alltoall_heads.iter().enumerate().all(|(me, heads)| {
                    heads.iter().enumerate().all(|(from, &head)| usize::from(head) == from * 16 + me)
                });
        let us = |secs: f64, calls: usize| secs / calls as f64 * 1e6;
        t.value("collectives.ring_call_us", us(out.ring_s, self.shape.ring_calls), Kind::Time);
        t.value("collectives.alltoall_call_us", us(out.alltoall_s, self.shape.alltoall_calls), Kind::Time);
        t.value("collectives.bcast_call_us", us(out.bcast_s, self.shape.bcast_calls), Kind::Time);
        t.value("baseline.mpi_ring_call_us", us(out.mpi_ring_s, self.shape.ring_calls), Kind::Time);
        t.value("collectives.vs_mpi_ring_x", out.mpi_ring_s / out.ring_s, Kind::Plain);
        let digest = mix(out.ring_ends[0].0.to_bits() ^ mix(out.bcast_ends[1].1.to_bits()));
        PassOut { digest, ok, secs }
    }

    fn finish(&mut self, t: &Tracer) -> bool {
        if t.enabled() {
            let spawns: Vec<f64> = (0..20).map(|_| adapter::job_spawn_seconds(t) * 1e6).collect();
            t.value("gaspi.job_spawn_us", stats::median(&spawns), Kind::Time);
            t.value("gaspi.pingpong_us", adapter::pingpong_seconds(t, 2000) * 1e6, Kind::Time);
        }
        true
    }
}

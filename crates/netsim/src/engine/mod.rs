//! Discrete-event execution of [`Program`]s in virtual time.
//!
//! Each rank executes its operations strictly in program order.  Local
//! operations advance only the rank's own clock; communication operations
//! inject messages whose delivery is computed from the [`CostModel`] and the
//! cluster placement, including per-node NIC serialization so that several
//! ranks on one node compete for the interface.
//!
//! One-sided puts (`PutNotify`) never involve the remote CPU: they occupy the
//! sender and receiver NICs and raise a notification at the target.  Two-sided
//! sends additionally pay matching overheads, a progress-engine bandwidth
//! penalty, and — above the eager threshold — a rendezvous handshake that
//! couples the sender to the time the matching receive is posted (the
//! "late receiver" effect the paper's GASPI collectives avoid).
//!
//! ## Performance
//!
//! The hot loop is allocation-free in steady state: operations are decoded
//! from the [`CompiledProgram`]'s fixed-width arena records (never cloned or
//! materialized), blocked waits borrow their notification-id lists straight
//! from the arena's id pool, notification counters live in one flat table
//! shared by all ranks instead of hash maps or a million tiny allocations,
//! the event queue's buckets are sized from the program and allocated on
//! first use, and trace events (typed, copyable [`TraceDetail`](crate::TraceDetail)
//! payloads — never formatted strings) are only recorded when tracing is
//! enabled.  Only non-local operations go through the event queue: local ones
//! run inline with the operation that released them (see
//! `Sim::resume_after_local_ops`).
//!
//! ## Heterogeneity
//!
//! An optional [`Scenario`] injects deterministic heterogeneity: per-node
//! compute speed factors (including stragglers) scale every local operation,
//! and per-link jitter scales latency and serialization time.  The applied
//! per-rank compute scale is surfaced in [`RankStats::compute_scale`](crate::RankStats::compute_scale).

use crate::cluster::{ClusterSpec, RankId};
use crate::compiled::{CompiledProgram, IdsRef, OpView};
use crate::cost::CostModel;
use crate::dataflow;
use crate::metrics::EngineMetrics;
use crate::packet::PacketConfig;
use crate::program::{CommProfile, NotifyId, Program};
use crate::report::{LinkStats, RankStats, ReportDetail, RunReport};
use crate::scenario::Scenario;
use crate::topology::{Topology, TopologyError};
use crate::trace::{Recorder, TraceFilter};
use crate::validate::{validate_compiled, ValidationError};

mod net;
mod sim;

pub(crate) use net::{wire_timing, Nics};

use net::NetSim;
use sim::Sim;

/// How inter-node transfers are priced (selected by
/// [`Engine::with_topology`] / [`Engine::with_packet_network`]).
#[derive(Debug, Clone)]
enum NetworkModel {
    /// Contention-free alpha–beta links with per-node NIC serialization
    /// (the default).
    AlphaBeta,
    /// Flow-level max-min fair sharing over a capacitated topology.
    Fabric(Topology),
    /// Per-packet simulation over the same capacitated topology.
    Packet { topology: Topology, config: PacketConfig },
}

/// Errors produced while simulating a program.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// The program failed static validation before execution.
    Invalid(ValidationError),
    /// The engine's scenario has nonsensical parameters.
    BadScenario(String),
    /// The engine's fabric topology does not fit the cluster (node-count
    /// mismatch, invalid or disconnected link graph).
    BadTopology(TopologyError),
    /// The packet-backend configuration is inconsistent (see
    /// [`PacketConfig::validate`](crate::packet::PacketConfig::validate)).
    BadPacketConfig(String),
    /// Execution stalled: the event queue drained while ranks were still
    /// blocked (mismatched sends/receives or missing notifications).
    Deadlock {
        /// For every stuck rank: its id, program counter and a description of
        /// what it was waiting for.
        blocked: Vec<(RankId, usize, String)>,
    },
    /// The run outgrew one of the strict event loop's fixed-width fields;
    /// the loop stops there instead of wrapping the field.
    LimitExceeded(StrictLimit),
}

/// A fixed-width field of the strict event loop (see `engine/sim.rs`) and
/// the bound a run must stay below.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StrictLimit {
    /// 2^24 ranks: a rank id fills the top 24 bits of an event key.
    Ranks,
    /// 2^40 events: the per-run event sequence number fills the low 40 bits.
    Events,
    /// 2^32 message ids: a `TxDone` event carries its message id as a `u32`.
    MessageIds,
}

impl StrictLimit {
    /// How many a run may have: their ids run from 0 to `bound() - 1`.
    pub const fn bound(self) -> u64 {
        match self {
            StrictLimit::Ranks => 1 << 24,
            StrictLimit::Events => 1 << 40,
            StrictLimit::MessageIds => 1 << 32,
        }
    }

    fn what(self) -> &'static str {
        match self {
            StrictLimit::Ranks => "ranks",
            StrictLimit::Events => "events",
            StrictLimit::MessageIds => "message ids",
        }
    }
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Invalid(e) => write!(f, "invalid program: {e}"),
            SimError::BadScenario(e) => write!(f, "invalid scenario: {e}"),
            SimError::BadTopology(e) => write!(f, "invalid topology: {e}"),
            SimError::BadPacketConfig(e) => write!(f, "invalid packet config: {e}"),
            SimError::Deadlock { blocked } => {
                write!(f, "simulation deadlocked; blocked ranks: ")?;
                for (r, pc, what) in blocked {
                    write!(f, "[rank {r} at op {pc}: {what}] ")?;
                }
                Ok(())
            }
            SimError::LimitExceeded(l) => {
                write!(f, "the run exceeds the strict event loop's limit of {} {}", l.bound(), l.what())
            }
        }
    }
}

impl std::error::Error for SimError {}

/// Maximum tolerated backwards time step at virtual time `now`.
///
/// Event times are f64 sums assembled along different arithmetic paths
/// (fabric completion re-estimation in particular), so two expressions for
/// the same instant can differ by a few ulps.  An ulp grows with magnitude:
/// at a makespan of 1e5 s it is ~1.5e-11 — far above any absolute epsilon
/// small enough to still catch real ordering bugs near t = 0.  The guard
/// therefore scales with `now` (relative tolerance, floored at magnitude 1).
#[inline]
pub(crate) fn time_backstep_tolerance(now: f64) -> f64 {
    1e-12 * now.abs().max(1.0)
}

// -- the rules both execution paths share ------------------------------------

/// Unconsumed notification arrivals of every rank, per notification id, in
/// one flat allocation: rank `r`'s counters are `counts[off[r]..off[r + 1]]`,
/// sized by [`CommProfile::notify_bounds`] (the largest id the rank waits on
/// or can receive).
#[derive(Debug)]
pub(crate) struct NotifyTable {
    counts: Vec<u32>,
    off: Vec<usize>,
}

impl NotifyTable {
    pub(crate) fn new(profile: &CommProfile) -> Self {
        let mut off = vec![0];
        for &bound in &profile.notify_bounds {
            off.push(off[off.len() - 1] + bound);
        }
        Self { counts: vec![0; off[off.len() - 1]], off }
    }

    /// Rank `rank`'s counters.
    #[inline]
    pub(crate) fn of(&mut self, rank: RankId) -> RankNotes<'_> {
        RankNotes(&mut self.counts[self.off[rank]..self.off[rank + 1]])
    }
}

/// One rank's counters in a [`NotifyTable`].
pub(crate) struct RankNotes<'a>(&'a mut [u32]);

impl RankNotes<'_> {
    /// Count an arrival of `id`.  An id no listed wait can reference may
    /// exceed the rank's dense range; it can never satisfy a wait, so it is
    /// only tallied.
    #[inline]
    pub(crate) fn note_arrival(&mut self, stats: &mut RankStats, id: NotifyId) {
        if let Some(c) = self.0.get_mut(id as usize) {
            *c += 1;
        }
        stats.notifications_received += 1;
    }

    /// The wait rule.  If at least `count` of `ids` have an unconsumed
    /// arrival, consume exactly `count` arrivals — one from each of the
    /// first `count` available ids in listed order — and return true.
    /// Arrivals beyond `count` are left for later waits: a
    /// `WaitNotifyAny { count }` must never drain ids a subsequent wait
    /// depends on.
    #[inline]
    pub(crate) fn consume(&mut self, stats: &mut RankStats, ids: IdsRef<'_>, count: usize) -> bool {
        let counts = &mut *self.0;
        let need = count.min(ids.len());
        let available = ids.iter().filter(|&id| counts.get(id as usize).is_some_and(|&c| c > 0)).count();
        if available < need {
            return false;
        }
        let mut taken = 0usize;
        for id in ids.iter() {
            if taken == need {
                break;
            }
            let c = &mut counts[id as usize];
            if *c > 0 {
                *c -= 1;
                taken += 1;
            }
        }
        stats.notifications_consumed += taken as u64;
        true
    }
}

/// The duration of a local op — its nominal time times the rank's scenario
/// compute factor `scale` — or `None` for an op that touches the network,
/// another rank or the barrier.
#[inline]
pub(crate) fn local_op_time(cost: &CostModel, op: OpView<'_>, scale: f64) -> Option<f64> {
    let d = match op {
        OpView::Compute { seconds } => seconds.max(0.0),
        OpView::Reduce { bytes } => cost.reduce_time(bytes),
        OpView::Copy { bytes } => cost.copy_time(bytes),
        _ => return None,
    };
    Some(d * scale)
}

/// What a rank stuck in a wait for `count` of `ids` waits for.
pub(crate) fn describe_wait(ids: IdsRef<'_>, count: usize) -> String {
    format!("waiting for {count} of notifications {ids:?}")
}

/// The end of a run on either path: a deadlock if any rank is `stuck`
/// (`(rank, pc, what)` each), else the report with its trace sealed and
/// counted.
pub(crate) fn finish_run(
    stuck: Vec<(RankId, usize, String)>,
    ranks: impl Iterator<Item = RankStats>,
    links: Vec<LinkStats>,
    recorder: Recorder,
    mut metrics: EngineMetrics,
) -> Result<RunReport, SimError> {
    if !stuck.is_empty() {
        return Err(SimError::Deadlock { blocked: stuck });
    }
    let trace = recorder.finish();
    metrics.trace_events = trace.len() as u64;
    Ok(RunReport { ranks: ranks.collect(), links, trace, summary: None, metrics })
}

/// Discrete-event simulator configured with a cluster and a cost model.
#[derive(Debug, Clone)]
pub struct Engine {
    cluster: ClusterSpec,
    cost: CostModel,
    tracing: bool,
    filter: TraceFilter,
    scenario: Option<Scenario>,
    network: NetworkModel,
    report_detail: ReportDetail,
    /// The differential-test reference queue (see `tests::SchedulerKind`).
    #[cfg(test)]
    scheduler: tests::SchedulerKind,
}

// `ec_bench`'s `winner_table` borrows the same engines from every worker of
// its pool.
const _: fn() = || {
    fn shared_across_workers<T: Clone + std::fmt::Debug + Send + Sync>() {}
    shared_across_workers::<Engine>();
};

impl Engine {
    /// Create an engine for the given cluster and cost model.
    pub fn new(cluster: ClusterSpec, cost: CostModel) -> Self {
        Self {
            cluster,
            cost,
            tracing: false,
            filter: TraceFilter::all(),
            scenario: None,
            network: NetworkModel::AlphaBeta,
            report_detail: ReportDetail::default(),
            #[cfg(test)]
            scheduler: tests::SchedulerKind::default(),
        }
    }

    /// Enable or disable event tracing (traces are returned in the report).
    pub fn with_trace(mut self, tracing: bool) -> Self {
        self.tracing = tracing;
        self
    }

    /// Restrict trace collection to a rank window and/or sampling stride
    /// (see [`TraceFilter`]) — the way a million-rank run keeps its trace
    /// within the memory budget.  Implies [`Engine::with_trace`]`(true)`.
    ///
    /// Filtering only gates which events are *kept*: sequence numbers and
    /// timings are identical to an unfiltered run, so a windowed trace is a
    /// strict subset of the full one.
    pub fn with_trace_filter(mut self, filter: TraceFilter) -> Self {
        self.tracing = true;
        self.filter = filter;
        self
    }

    /// Attach a heterogeneity [`Scenario`] (speed factors, link jitter,
    /// stragglers).  The scenario is materialized deterministically from its
    /// seed on every run.
    pub fn with_scenario(mut self, scenario: Scenario) -> Self {
        self.scenario = Some(scenario);
        self
    }

    /// The cluster this engine simulates.
    pub fn cluster(&self) -> &ClusterSpec {
        &self.cluster
    }

    /// The cost model this engine uses.
    pub fn cost(&self) -> &CostModel {
        &self.cost
    }

    /// The heterogeneity scenario, if one is attached.
    pub fn scenario(&self) -> Option<&Scenario> {
        self.scenario.as_ref()
    }

    /// Price inter-node transfers with the flow-level fabric over
    /// `topology`: each transfer is routed as a flow over the capacitated
    /// links and shares their bandwidth max-min fairly with the concurrent
    /// flows — the regime where oversubscription and incast become visible.
    /// The default is contention-free alpha–beta links with per-node NIC
    /// serialization; the degenerate [`Topology::contention_free`] preset
    /// falls back to that path and reproduces its makespans bit for bit.
    ///
    /// ```
    /// use ec_netsim::{ClusterSpec, CostModel, Engine, PacketConfig, ProgramBuilder, Topology};
    ///
    /// let mut b = ProgramBuilder::new(2);
    /// b.put_notify(0, 1, 1 << 20, 0);
    /// b.wait_notify(1, &[0]);
    /// let prog = b.build();
    /// let nic = 1.0 / CostModel::skylake_fdr().beta_inter;
    /// let mk = || Engine::new(ClusterSpec::homogeneous(2, 1), CostModel::skylake_fdr());
    /// // The same program priced by all three backends:
    /// let ab = mk().makespan(&prog).unwrap();
    /// let flow = mk().with_topology(Topology::single_switch(2, nic)).makespan(&prog).unwrap();
    /// let pkt = mk()
    ///     .with_packet_network(Topology::single_switch(2, nic), PacketConfig::default())
    ///     .makespan(&prog)
    ///     .unwrap();
    /// // An uncontended put runs at NIC speed under every model.
    /// assert!((flow - ab).abs() / ab < 0.05);
    /// assert!((pkt - ab).abs() / ab < 0.05);
    /// ```
    pub fn with_topology(mut self, topology: Topology) -> Self {
        self.network = NetworkModel::Fabric(topology);
        self
    }

    /// Price inter-node transfers with the per-packet fabric over
    /// `topology`: MTU segmentation, per-port queues, PFC/ECN and go-back-N
    /// recovery (see [`PacketFabric`](crate::PacketFabric)).  The contention-free preset falls
    /// back to the alpha–beta path, as for [`Engine::with_topology`].
    ///
    /// ```
    /// use ec_netsim::{ClusterSpec, CostModel, Engine, PacketConfig, ProgramBuilder, Topology};
    ///
    /// let cost = CostModel::galileo_opa();
    /// let topology = Topology::fat_tree(8, 4, 4.0, 1.0 / cost.beta_inter);
    /// let engine = Engine::new(ClusterSpec::homogeneous(8, 1), cost)
    ///     .with_packet_network(topology, PacketConfig::default());
    ///
    /// // A 7:1 incast: every rank puts 256 KiB at rank 0.
    /// let mut b = ProgramBuilder::new(8);
    /// for r in 1..8u32 {
    ///     b.put_notify(r as usize, 0, 256 * 1024, r);
    /// }
    /// b.wait_notify(0, &(1..8).collect::<Vec<u32>>());
    ///
    /// let report = engine.run(&b.build()).unwrap();
    /// assert!(report.makespan() > 0.0);
    /// // PFC is on by default: the tapered incast pauses, but never drops.
    /// assert_eq!(report.metrics.packet_drops, 0);
    /// ```
    pub fn with_packet_network(mut self, topology: Topology, config: PacketConfig) -> Self {
        self.network = NetworkModel::Packet { topology, config };
        self
    }

    /// Does nothing: execution is single-threaded.  Kept because
    /// `benchmark/src/adapter.rs::sharded_summary` calls it and a code PR may
    /// not edit `benchmark/`; ROADMAP item 1's benchmark-definition PR
    /// deletes that caller and this method together.
    #[doc(hidden)]
    pub fn with_shards(self, _shards: usize) -> Self {
        self
    }

    /// Select how much per-rank detail the returned [`RunReport`] retains
    /// (see [`ReportDetail`]; the default keeps everything).  A summarized
    /// report folds the per-rank statistics — and captures the full
    /// fingerprint — before dropping rows, so aggregate queries and
    /// determinism checks are unaffected.
    pub fn with_report_detail(mut self, detail: ReportDetail) -> Self {
        self.report_detail = detail;
        self
    }

    /// Simulate `program` and return the run report.
    ///
    /// The program is validated while it is compiled to the arena form (see
    /// [`CompiledProgram`]) and then executed; callers running the same
    /// program many times — or a [`ProgramSource`](crate::ProgramSource),
    /// through [`CompiledProgram::from_source`] — compile once and use
    /// [`Engine::run_compiled`] instead.
    pub fn run(&self, program: &Program) -> Result<RunReport, SimError> {
        let cluster_ranks = self.cluster.total_ranks();
        if program.num_ranks() != cluster_ranks {
            return Err(SimError::Invalid(ValidationError::RankCountMismatch {
                program: program.num_ranks(),
                cluster: cluster_ranks,
            }));
        }
        let compiled = program.compile().map_err(SimError::Invalid)?;
        self.run_compiled_inner(&compiled)
    }

    /// Simulate an already-compiled program.
    ///
    /// Compilation already validated the op streams, and a compiled arena is
    /// valid by construction, so only the rank count is checked against the
    /// cluster here; nothing is re-walked per run.
    pub fn run_compiled(&self, program: &CompiledProgram) -> Result<RunReport, SimError> {
        validate_compiled(program, self.cluster.total_ranks()).map_err(SimError::Invalid)?;
        self.run_compiled_inner(program)
    }

    /// Shared execution path behind [`Engine::run`] and
    /// [`Engine::run_compiled`]: the program is known valid here.
    fn run_compiled_inner(&self, program: &CompiledProgram) -> Result<RunReport, SimError> {
        let instance = match &self.scenario {
            Some(s) => {
                s.validate().map_err(SimError::BadScenario)?;
                Some(s.materialize(&self.cluster))
            }
            None => None,
        };
        let fabric = NetSim::new(&self.network, &self.cluster)?;
        let profile = program.profile();
        // Dataflow fast path: one-sided single-writer programs on one-rank
        // nodes have per-destination arrival streams that are FIFO in both
        // issue order and visible time, so rank op chains can burst-execute
        // without a global event queue.  Traced runs stay eligible: the
        // burst path emits the same events as the strict loop into the same
        // per-rank streams.  Anything else (fabric contention, two-sided
        // matching, barriers, shared NICs, multiple writers) runs the strict
        // event loop.
        let eligible =
            fabric.is_none() && self.cluster.ranks_per_node == 1 && profile.one_sided_only && profile.single_writer;
        // The reference queue exists on the strict loop only.
        #[cfg(test)]
        let eligible = eligible && self.scheduler == tests::SchedulerKind::CalendarQueue;
        let mut report = if eligible {
            dataflow::run(&self.cluster, &self.cost, program, instance.as_ref(), self.tracing, self.filter)?
        } else {
            let sim = Sim::new(&self.cluster, &self.cost, program, self.tracing, self.filter, instance, fabric)?;
            #[cfg(test)]
            let sim = sim.with_scheduler(self.scheduler);
            sim.run()?
        };
        report.finalize(self.report_detail);
        Ok(report)
    }

    /// Convenience: simulate and return only the makespan (seconds).  Like
    /// [`Engine::run`] it compiles `program` on every call: a caller pricing
    /// one program on several engines should [`Program::compile`] once and
    /// take [`RunReport::makespan`] of [`Engine::run_compiled`] on each.
    pub fn makespan(&self, program: &Program) -> Result<f64, SimError> {
        Ok(self.run(program)?.makespan())
    }
}

#[cfg(test)]
mod tests;

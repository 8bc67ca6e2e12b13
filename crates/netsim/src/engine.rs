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
//! from the arena's id pool, notification counters live in one flat `Vec`
//! shared by all ranks (indexed through per-rank prefix offsets) instead of
//! hash maps or a million tiny allocations, the event queue's buckets are
//! sized from the program and allocated on first use, and trace events
//! (typed, copyable [`TraceDetail`] payloads — never formatted strings) are
//! only recorded when tracing is enabled.  Only non-local operations go
//! through the event queue: local ones run inline with the operation that
//! released them (see `Sim::resume_after_local_ops`).
//!
//! ## Heterogeneity
//!
//! An optional [`Scenario`] injects deterministic heterogeneity: per-node
//! compute speed factors (including stragglers) scale every local operation,
//! and per-link jitter scales latency and serialization time.  The applied
//! per-rank compute scale is surfaced in [`RankStats::compute_scale`].

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::sync::{Arc, Mutex};

use crate::calendar::{CalendarQueue, Timed};
use crate::cluster::{ClusterSpec, NodeId, RankId};
use crate::compiled::{CompiledProgram, IdsRef, OpView};
use crate::cost::{CostModel, Protocol};
use crate::dataflow;
use crate::fabric::{Fabric, FlowId};
use crate::metrics::EngineMetrics;
use crate::packet::{PacketConfig, PacketFabric};
use crate::program::{NotifyId, Program, Tag};
use crate::report::{LinkStats, RankStats, ReportDetail, RunReport};
use crate::scenario::{Scenario, ScenarioInstance};
use crate::source::ProgramSource;
use crate::topology::{Topology, TopologyError};
use crate::trace::{
    BlockReason, MsgLabel, Trace, TraceDetail, TraceEvent, TraceFilter, TraceKind, TraceSink, ARRIVAL_SEQ,
};
use crate::validate::{validate_compiled, ValidationError};

/// How inter-node transfers are priced.
///
/// The seed simulator prices every transfer with a contention-free
/// alpha–beta link (plus per-node NIC serialization).  The fabric model
/// instead routes each transfer as a flow over a capacitated [`Topology`]
/// and shares link bandwidth max-min fairly among concurrent flows — the
/// regime where oversubscription and incast become visible.
#[derive(Debug, Clone)]
pub enum NetworkModel {
    /// Contention-free alpha–beta links with per-node NIC serialization
    /// (the seed model; the default).
    AlphaBeta,
    /// Flow-level max-min fair sharing over a capacitated topology.  The
    /// degenerate [`Topology::contention_free`] preset falls back to the
    /// exact alpha–beta path, reproducing its makespans bit-for-bit.
    Fabric(Topology),
    /// Per-packet simulation over the same capacitated topology: MTU
    /// segmentation, per-port queues, PFC/ECN and go-back-N recovery (see
    /// [`PacketFabric`]).  The contention-free
    /// preset falls back to the alpha–beta path, as for
    /// [`NetworkModel::Fabric`].
    Packet {
        /// The capacitated link graph packets are routed over.
        topology: Topology,
        /// Queueing, PFC/ECN and congestion-control parameters.
        config: PacketConfig,
    },
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
    /// The pre-flight static analyzer rejected the schedule (see
    /// [`Engine::run_checked`]); the simulation was never started.
    Analysis(Vec<crate::analyze::AnalysisError>),
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
            SimError::Analysis(errors) => {
                write!(f, "static analysis rejected the schedule: ")?;
                for e in errors {
                    write!(f, "[{e}] ")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for SimError {}

/// Event-queue implementation driving the strict discrete-event path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedulerKind {
    /// Bucketed calendar queue — O(1) amortized enqueue/dequeue with the
    /// bucket width derived from the cost model's link latencies (the
    /// default).  Engines with this scheduler also dispatch eligible
    /// programs to the dataflow fast path (see the `dataflow` module docs).
    #[default]
    CalendarQueue,
    /// The legacy global `BinaryHeap` scheduler.  Selecting it pins the
    /// engine to the strict event loop (the dataflow fast path is disabled
    /// too); retained for differential testing against the calendar queue.
    BinaryHeap,
}

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

/// Discrete-event simulator configured with a cluster and a cost model.
#[derive(Clone)]
pub struct Engine {
    cluster: ClusterSpec,
    cost: CostModel,
    tracing: bool,
    filter: TraceFilter,
    sink: Option<Arc<Mutex<dyn TraceSink>>>,
    scenario: Option<Scenario>,
    network: NetworkModel,
    scheduler: SchedulerKind,
    shards: usize,
    report_detail: ReportDetail,
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("cluster", &self.cluster)
            .field("cost", &self.cost)
            .field("tracing", &self.tracing)
            .field("filter", &self.filter)
            .field("sink", &self.sink.as_ref().map(|_| "TraceSink"))
            .field("scenario", &self.scenario)
            .field("network", &self.network)
            .field("scheduler", &self.scheduler)
            .field("shards", &self.shards)
            .field("report_detail", &self.report_detail)
            .finish()
    }
}

impl Engine {
    /// Create an engine for the given cluster and cost model.
    pub fn new(cluster: ClusterSpec, cost: CostModel) -> Self {
        Self {
            cluster,
            cost,
            tracing: false,
            filter: TraceFilter::all(),
            sink: None,
            scenario: None,
            network: NetworkModel::AlphaBeta,
            scheduler: SchedulerKind::default(),
            shards: 1,
            report_detail: ReportDetail::default(),
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

    /// The trace filter in effect (keeps everything by default).
    pub fn trace_filter(&self) -> TraceFilter {
        self.filter
    }

    /// Stream every kept trace event into `sink` after each run, in the
    /// canonical `(time, rank, seq)` order — e.g. a
    /// [`ChromeTraceWriter`](crate::trace::ChromeTraceWriter) writing a
    /// Perfetto-loadable file.  The in-memory trace in the report is
    /// unaffected.  Implies [`Engine::with_trace`]`(true)`.  The caller
    /// finishes the sink when all runs are done.
    pub fn with_trace_sink(mut self, sink: Arc<Mutex<dyn TraceSink>>) -> Self {
        self.tracing = true;
        self.sink = Some(sink);
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

    /// Select the [`NetworkModel`] pricing inter-node transfers.
    ///
    /// ```
    /// use ec_netsim::{ClusterSpec, CostModel, Engine, NetworkModel, ProgramBuilder, Topology};
    ///
    /// let mut b = ProgramBuilder::new(2);
    /// b.put_notify(0, 1, 1 << 20, 0);
    /// b.wait_notify(1, &[0]);
    /// let prog = b.build();
    /// let nic = 1.0 / CostModel::skylake_fdr().beta_inter;
    /// let mk = || Engine::new(ClusterSpec::homogeneous(2, 1), CostModel::skylake_fdr());
    /// // The same program priced by all three backends:
    /// let ab = mk().makespan(&prog).unwrap();
    /// let flow = mk().with_network(NetworkModel::Fabric(Topology::single_switch(2, nic))).makespan(&prog).unwrap();
    /// let pkt = mk()
    ///     .with_network(NetworkModel::Packet {
    ///         topology: Topology::single_switch(2, nic),
    ///         config: ec_netsim::PacketConfig::default(),
    ///     })
    ///     .makespan(&prog)
    ///     .unwrap();
    /// // An uncontended put runs at NIC speed under every model.
    /// assert!((flow - ab).abs() / ab < 0.05);
    /// assert!((pkt - ab).abs() / ab < 0.05);
    /// ```
    pub fn with_network(mut self, network: NetworkModel) -> Self {
        self.network = network;
        self
    }

    /// Convenience: price inter-node transfers with the flow-level fabric
    /// over `topology` (see [`NetworkModel::Fabric`]).
    pub fn with_topology(self, topology: Topology) -> Self {
        self.with_network(NetworkModel::Fabric(topology))
    }

    /// Convenience: price inter-node transfers with the per-packet fabric
    /// over `topology` (see [`NetworkModel::Packet`]).
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
    pub fn with_packet_network(self, topology: Topology, config: PacketConfig) -> Self {
        self.with_network(NetworkModel::Packet { topology, config })
    }

    /// The network model this engine prices transfers with.
    pub fn network(&self) -> &NetworkModel {
        &self.network
    }

    /// Select the event-queue implementation of the strict event loop (see
    /// [`SchedulerKind`]; the calendar queue is the default).
    pub fn with_scheduler(mut self, scheduler: SchedulerKind) -> Self {
        self.scheduler = scheduler;
        self
    }

    /// The scheduler driving the strict event loop.
    pub fn scheduler(&self) -> SchedulerKind {
        self.scheduler
    }

    /// Number of worker shards for the parallel dataflow fast path (clamped
    /// to at least 1).  Ranks are partitioned into contiguous blocks, one
    /// per shard; cross-shard notification arrivals travel through per-shard
    /// inbound queues whose per-sender FIFO order makes the result
    /// *identical for every shard count* (see the `dataflow` module docs).
    /// Programs the fast path cannot execute (two-sided traffic, barriers,
    /// fabric contention, multiple writers per destination, more than one
    /// rank per node) conservatively fall back to the serial strict event
    /// loop regardless of this setting.
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards.max(1);
        self
    }

    /// The configured shard count.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Select how much per-rank detail the returned [`RunReport`] retains
    /// (see [`ReportDetail`]; the default keeps everything).  Summarized and
    /// sampled reports fold the per-rank statistics — and capture the full
    /// fingerprint — before dropping rows, so aggregate queries and
    /// determinism checks are unaffected.
    pub fn with_report_detail(mut self, detail: ReportDetail) -> Self {
        self.report_detail = detail;
        self
    }

    /// The configured report detail level.
    pub fn report_detail(&self) -> ReportDetail {
        self.report_detail
    }

    /// Simulate `program` and return the run report.
    ///
    /// The program is validated, compiled to the arena form (see
    /// [`CompiledProgram`]) and executed; callers running the same program
    /// many times should [`Program::compile`] once and use
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
    /// Compilation already validated the op streams, so only the cheap
    /// structural checks run here (rank count against the cluster, arena
    /// bounds); the expensive per-op validation is not repeated.
    pub fn run_compiled(&self, program: &CompiledProgram) -> Result<RunReport, SimError> {
        validate_compiled(program, self.cluster.total_ranks()).map_err(SimError::Invalid)?;
        self.run_compiled_inner(program)
    }

    /// Simulate a [`ProgramSource`], compiling rank op streams on the fly.
    ///
    /// The materialized program never exists: ranks stream one at a time
    /// through the compiler's scratch buffer and identical streams intern to
    /// shared arena segments, so a symmetric million-rank collective
    /// simulates in O(ops) program memory.
    pub fn run_source<S: ProgramSource>(&self, source: &S) -> Result<RunReport, SimError> {
        let cluster_ranks = self.cluster.total_ranks();
        if source.num_ranks() != cluster_ranks {
            return Err(SimError::Invalid(ValidationError::RankCountMismatch {
                program: source.num_ranks(),
                cluster: cluster_ranks,
            }));
        }
        let compiled = CompiledProgram::from_source(source).map_err(SimError::Invalid)?;
        self.run_compiled_inner(&compiled)
    }

    /// [`Engine::run`] with an opt-in static pre-flight: the program is
    /// passed through [`crate::analyze()`] first and rejected with
    /// [`SimError::Analysis`] if any defect — deadlock, starvation,
    /// notification leak, consumption race, or one-sided buffer race — is
    /// found, before any virtual time is simulated.
    pub fn run_checked(&self, program: &Program) -> Result<RunReport, SimError> {
        let cluster_ranks = self.cluster.total_ranks();
        if program.num_ranks() != cluster_ranks {
            return Err(SimError::Invalid(ValidationError::RankCountMismatch {
                program: program.num_ranks(),
                cluster: cluster_ranks,
            }));
        }
        let compiled = program.compile().map_err(SimError::Invalid)?;
        self.preflight(&compiled)?;
        self.run_compiled_inner(&compiled)
    }

    /// [`Engine::run_compiled`] with the static pre-flight of
    /// [`Engine::run_checked`].
    pub fn run_compiled_checked(&self, program: &CompiledProgram) -> Result<RunReport, SimError> {
        validate_compiled(program, self.cluster.total_ranks()).map_err(SimError::Invalid)?;
        self.preflight(program)?;
        self.run_compiled_inner(program)
    }

    /// [`Engine::run_source`] with the static pre-flight of
    /// [`Engine::run_checked`].
    pub fn run_source_checked<S: ProgramSource>(&self, source: &S) -> Result<RunReport, SimError> {
        let cluster_ranks = self.cluster.total_ranks();
        if source.num_ranks() != cluster_ranks {
            return Err(SimError::Invalid(ValidationError::RankCountMismatch {
                program: source.num_ranks(),
                cluster: cluster_ranks,
            }));
        }
        let compiled = CompiledProgram::from_source(source).map_err(SimError::Invalid)?;
        self.preflight(&compiled)?;
        self.run_compiled_inner(&compiled)
    }

    /// The analyzer gate shared by the `*_checked` entry points.
    fn preflight(&self, compiled: &CompiledProgram) -> Result<(), SimError> {
        let report = crate::analyze::analyze_compiled(compiled);
        if report.is_clean() {
            Ok(())
        } else {
            Err(SimError::Analysis(report.errors))
        }
    }

    /// Shared execution path behind [`Engine::run`], [`Engine::run_compiled`]
    /// and [`Engine::run_source`]: the program is known valid here.
    fn run_compiled_inner(&self, program: &CompiledProgram) -> Result<RunReport, SimError> {
        let instance = match &self.scenario {
            Some(s) => {
                s.validate().map_err(SimError::BadScenario)?;
                Some(s.materialize(&self.cluster))
            }
            None => None,
        };
        let check_nodes = |t: &Topology| {
            if t.nodes() != self.cluster.nodes {
                return Err(SimError::BadTopology(TopologyError::NodeCountMismatch {
                    topology: t.name().to_string(),
                    nodes: t.nodes(),
                    cluster: self.cluster.nodes,
                }));
            }
            Ok(())
        };
        let fabric = match &self.network {
            NetworkModel::AlphaBeta => None,
            // The degenerate contention-free fabric has no shared links: the
            // alpha-beta path prices it exactly.
            NetworkModel::Fabric(t) if t.is_contention_free() => {
                check_nodes(t)?;
                None
            }
            NetworkModel::Fabric(t) => {
                check_nodes(t)?;
                Some(NetSim::Flow(Box::new(Fabric::new(t.clone()).map_err(SimError::BadTopology)?)))
            }
            NetworkModel::Packet { topology: t, config } => {
                check_nodes(t)?;
                config.validate().map_err(SimError::BadPacketConfig)?;
                if t.is_contention_free() {
                    None
                } else {
                    Some(NetSim::Packet(Box::new(PacketFabric::new(t, config.clone()).map_err(SimError::BadTopology)?)))
                }
            }
        };
        let profile = program.profile();
        // Dataflow fast path: one-sided single-writer programs on one-rank
        // nodes have per-destination arrival streams that are FIFO in both
        // issue order and visible time, so rank op chains can burst-execute
        // without a global event queue — and shard across threads without
        // changing a single output bit.  Traced runs stay eligible: the
        // burst path emits the same events as the strict loop into the same
        // per-rank streams.  Anything else (fabric contention, two-sided
        // matching, barriers, shared NICs, multiple writers) runs the strict
        // event loop.
        let eligible = self.scheduler == SchedulerKind::CalendarQueue
            && fabric.is_none()
            && self.cluster.ranks_per_node == 1
            && profile.one_sided_only
            && profile.single_writer;
        let mut report = if eligible {
            dataflow::run(
                &self.cluster,
                &self.cost,
                program,
                instance.as_ref(),
                profile,
                self.shards,
                self.tracing,
                self.filter,
            )?
        } else {
            Sim::new(&self.cluster, &self.cost, program, self.tracing, self.filter, instance, fabric, self.scheduler)
                .run()?
        };
        if let Some(sink) = &self.sink {
            let mut sink = sink.lock().expect("trace sink lock poisoned");
            for ev in &report.trace {
                sink.record(ev);
            }
        }
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

// ---------------------------------------------------------------------------
// internal simulation state
// ---------------------------------------------------------------------------

type MsgId = u64;

/// A `u64` event payload aligned like a `u32`, so that [`EventKind`] packs
/// behind [`Event::rank`] without padding.
#[derive(Debug, Clone, Copy, PartialEq)]
#[repr(Rust, packed(4))]
struct Word(u64);

#[derive(Debug, Clone, Copy, PartialEq)]
enum EventKind {
    /// The rank should try to execute its next operation.
    Resume,
    /// A two-sided message from rank `src` was fully delivered into the
    /// rank's memory.
    Delivered { src: u32, tag: Tag, bytes: Word },
    /// A one-sided notification became visible at the rank.
    NotifyVisible { notify: NotifyId },
    /// A transfer injected by the rank finished leaving its NIC.
    TxDone { msg: Word },
    /// The head of the rank's fabric injection queue is ready to launch.
    FlowLaunch,
    /// Re-estimate fabric flows: the earliest completion (as of `epoch`) is
    /// due.  Ticks from older epochs are stale and ignored — rates changed
    /// since, and a fresher tick is already in the heap.  A packet-fabric
    /// tick drains in place (see `on_fabric_tick`), so one is due per
    /// completion or per engine-event horizon, not per packet-event time.
    FabricTick { epoch: Word },
}

/// Ranks travel as `u32` (compilation caps the rank count there).
#[derive(Debug, Clone, Copy, PartialEq)]
struct Event {
    time: f64,
    seq: u64,
    rank: u32,
    kind: EventKind,
}

// Every strict-loop event is copied into a bucket, sorted there and copied
// out again: its size is the loop's memory traffic.
const _: () = assert!(size_of::<Event>() == 40);

impl Eq for Event {}
impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Event {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Time ties break by `(rank, seq)`, not by `seq` alone: the global
        // sequence number is an *insertion* order, which is scheduling
        // dependent as soon as events can originate from concurrent shards.
        // The rank id is stable under any partitioning, so equal-time events
        // of different ranks order identically no matter where they were
        // produced; `seq` only disambiguates same-rank same-time events,
        // whose relative insertion order is defined by the rank's own
        // (deterministic) execution.
        self.time.total_cmp(&other.time).then_with(|| self.rank.cmp(&other.rank)).then_with(|| self.seq.cmp(&other.seq))
    }
}

impl Timed for Event {
    fn time(&self) -> f64 {
        self.time
    }
}

/// The strict event loop's pending-event store: the legacy global binary
/// heap or the bucketed calendar queue (see [`SchedulerKind`]).  Both yield
/// events in the identical `(time, rank, seq)` total order.
#[derive(Debug)]
enum EventQueue {
    Heap(BinaryHeap<Reverse<Event>>),
    Calendar(CalendarQueue<Event>),
}

impl EventQueue {
    fn new(kind: SchedulerKind, bucket_width: f64, capacity: usize) -> Self {
        match kind {
            SchedulerKind::BinaryHeap => EventQueue::Heap(BinaryHeap::with_capacity(capacity)),
            SchedulerKind::CalendarQueue => EventQueue::Calendar(CalendarQueue::new(bucket_width, capacity)),
        }
    }

    #[inline]
    fn push(&mut self, ev: Event) {
        match self {
            EventQueue::Heap(h) => h.push(Reverse(ev)),
            EventQueue::Calendar(c) => c.push(ev),
        }
    }

    #[inline]
    fn pop(&mut self) -> Option<Event> {
        match self {
            EventQueue::Heap(h) => h.pop().map(|Reverse(ev)| ev),
            EventQueue::Calendar(c) => c.pop(),
        }
    }

    #[inline]
    fn peek(&mut self) -> Option<&Event> {
        match self {
            EventQueue::Heap(h) => h.peek().map(|Reverse(ev)| ev),
            EventQueue::Calendar(c) => c.peek(),
        }
    }
}

/// What a rank is blocked on.  Notification waits borrow their id list
/// straight from the compiled program's arena — blocking allocates nothing.
#[derive(Debug, Clone, Copy)]
enum Blocked<'a> {
    Recv { src: RankId, tag: Tag },
    Notify { ids: IdsRef<'a>, count: usize },
    SendTxDone { msg: MsgId },
    WaitAllSends,
    Barrier,
}

impl Blocked<'_> {
    fn describe(&self) -> String {
        match self {
            Blocked::Recv { src, tag } => format!("recv from {src} tag {tag}"),
            Blocked::Notify { ids, count } => format!("waiting for {count} of notifications {ids:?}"),
            Blocked::SendTxDone { msg } => format!("blocking send, message {msg}"),
            Blocked::WaitAllSends => "waiting for outstanding sends".to_owned(),
            Blocked::Barrier => "barrier".to_owned(),
        }
    }
}

#[derive(Debug, Clone)]
struct PendingRendezvous {
    msg: MsgId,
    bytes: u64,
    send_time: f64,
}

/// The contention backend behind the engine's `FabricTick` loop: either the
/// flow-level max-min solver or the per-packet simulator.  Both share the
/// same engine-facing contract (`add_flow` / `resolve` / `take_completed` /
/// `epoch`), so the injection pipeline, the epoch-guarded tick events and
/// the completion path are identical.
// Both fabrics are boxed so that `Sim`, hot in every strict-loop run, does
// not grow with them (unboxed, the packet fabric's inline calendar queue cost
// the fabric-less 4096-worker SSP run 5-8 % wall).
#[derive(Debug)]
enum NetSim {
    Flow(Box<Fabric>),
    Packet(Box<PacketFabric>),
}

const _: () = assert!(size_of::<NetSim>() == 16);

impl NetSim {
    fn epoch(&self) -> u64 {
        match self {
            NetSim::Flow(f) => f.epoch(),
            NetSim::Packet(p) => p.epoch(),
        }
    }

    fn add_flow(&mut self, now: f64, src: NodeId, dst: NodeId, bytes: f64) -> FlowId {
        match self {
            NetSim::Flow(f) => f.add_flow(now, src, dst, bytes),
            NetSim::Packet(p) => p.add_flow(now, src, dst, bytes),
        }
    }

    fn resolve(&mut self, now: f64) -> Option<f64> {
        match self {
            NetSim::Flow(f) => f.resolve(now),
            NetSim::Packet(p) => p.resolve(now),
        }
    }

    fn take_completed(&mut self, now: f64, out: &mut Vec<FlowId>) {
        match self {
            NetSim::Flow(f) => f.take_completed(now, out),
            NetSim::Packet(p) => p.take_completed(now, out),
        }
    }
}

/// What the engine must do when a fabric flow completes.
#[derive(Debug, Clone, Copy)]
enum FlowKind {
    /// One-sided put: raise `notify` at the destination; `msg` feeds
    /// `WaitAllSends` accounting when the sender tracks completions.
    Put { notify: NotifyId, msg: Option<MsgId> },
    /// Two-sided transfer: deliver `(src, tag)` and release the sender.
    TwoSided { tag: Tag, msg: MsgId },
}

/// Engine-side metadata of an in-flight fabric flow (indexed by [`FlowId`];
/// slots are recycled together with the fabric's flow slab).
#[derive(Debug, Clone, Copy)]
struct FlowMeta {
    src: RankId,
    dst: RankId,
    /// Logical payload bytes (the wire bytes may be scaled by jitter and the
    /// two-sided penalty).
    bytes: u64,
    /// Propagation latency added between flow completion and delivery.
    alpha: f64,
    kind: FlowKind,
    /// Virtual time the transfer entered the injection queue (the trace's
    /// inject timestamp; fabric-queueing is `launched - inject`).
    inject: f64,
    /// Virtual time the flow actually entered the fabric.
    launched: f64,
    /// Trace flow id pairing the injection with the arrival (0 untraced).
    flow: u64,
}

/// An inter-node transfer waiting in a rank's fabric injection queue.  Each
/// rank injects one DMA at a time (mirroring the seed model's per-rank NIC
/// serialization), so active flow counts stay bounded by the rank count.
#[derive(Debug, Clone, Copy)]
struct QueuedTransfer {
    dst: RankId,
    bytes: u64,
    /// Bytes to push through the fabric (payload scaled by bandwidth jitter
    /// and, for two-sided transfers, the progress-engine penalty).
    wire_bytes: f64,
    alpha: f64,
    /// The flow must not launch before this time (injection overhead,
    /// rendezvous clear-to-send).
    earliest: f64,
    kind: FlowKind,
    /// Trace flow id (0 untraced).
    flow: u64,
}

/// Per-rank fabric injection pipeline state.
#[derive(Debug, Default)]
struct InjectQueue {
    fifo: VecDeque<QueuedTransfer>,
    /// True while a queued transfer is launching or a flow is in flight;
    /// guards against double-launching a rank's pipeline.
    busy: bool,
}

#[derive(Debug)]
struct RankSim<'a> {
    pc: usize,
    done: bool,
    blocked: Option<Blocked<'a>>,
    blocked_since: f64,
    /// Fully arrived two-sided messages without a matching posted receive.
    unexpected: HashMap<(RankId, Tag), VecDeque<(f64, u64)>>,
    /// Rendezvous senders waiting for this rank to post a matching receive.
    pending_rndv: HashMap<(RankId, Tag), VecDeque<PendingRendezvous>>,
    /// Number of this rank's transfers still in flight (for WaitAllSends).
    outstanding_sends: usize,
    /// This rank's rendezvous sends still parked in a receiver's
    /// `pending_rndv`: the receiver's `Recv` will record their `MsgInjected`
    /// on this rank's trace channel (see `Sim::resume_after_local_ops`).
    parked_sends: u32,
    /// Earliest time this rank's injection path is free again.
    tx_free: f64,
    /// Duration multiplier for this rank's local operations (scenario).
    compute_scale: f64,
    stats: RankStats,
}

impl RankSim<'_> {
    fn new(compute_scale: f64) -> Self {
        Self {
            pc: 0,
            done: false,
            blocked: None,
            blocked_since: 0.0,
            unexpected: HashMap::new(),
            pending_rndv: HashMap::new(),
            outstanding_sends: 0,
            parked_sends: 0,
            tx_free: 0.0,
            compute_scale,
            stats: RankStats { compute_scale, ..RankStats::default() },
        }
    }
}

struct Sim<'a> {
    cluster: &'a ClusterSpec,
    cost: &'a CostModel,
    program: &'a CompiledProgram,
    tracing: bool,
    scenario: Option<ScenarioInstance>,
    now: f64,
    seq: u64,
    next_msg: MsgId,
    events: EventQueue,
    ranks: Vec<RankSim<'a>>,
    /// Dense notification counters (notify id -> unconsumed arrivals) for all
    /// ranks, flattened into one allocation; rank `r`'s counters live at
    /// `notify_counts[notify_off[r]..notify_off[r + 1]]`, sized by the largest
    /// id the rank waits on or can receive.
    notify_counts: Vec<u32>,
    /// Per-rank prefix offsets into `notify_counts` (length `n + 1`).
    notify_off: Vec<usize>,
    /// Ranks that execute `WaitAllSends` and therefore need `TxDone` events
    /// for their one-sided puts (borrowed from the compiled program's
    /// profile).
    tracks_put_tx: &'a [bool],
    node_tx_free: Vec<f64>,
    node_rx_free: Vec<f64>,
    /// Ranks waiting in the current barrier and the latest arrival so far.
    barrier_arrived: usize,
    barrier_latest: f64,
    /// Contention backend — flow-level solver or per-packet simulator
    /// (None: the alpha-beta path prices all inter-node transfers).
    fabric: Option<NetSim>,
    /// Engine-side metadata per fabric flow, indexed by [`FlowId`].
    flow_meta: Vec<Option<FlowMeta>>,
    /// Per-rank fabric injection pipelines.
    inject: Vec<InjectQueue>,
    /// Scratch buffers for completed-flow ids and their detached metadata
    /// (recycled across ticks).
    completed_buf: Vec<FlowId>,
    meta_buf: Vec<FlowMeta>,
    /// The kept events, per rank (no streams untraced).
    trace: Trace,
    /// Per-rank sequence counters for a rank's own events (empty untraced).
    trace_seq: Vec<u64>,
    /// Per-destination counters for the arrival sequence channel
    /// (`ARRIVAL_SEQ | n`; empty untraced).
    arrival_seq: Vec<u64>,
    /// Per-source counters minting trace flow ids (empty untraced).
    flow_seq: Vec<u64>,
    metrics: EngineMetrics,
}

#[cfg(test)]
thread_local! {
    /// Local ops this thread's runs fused in `Sim::resume_after_local_ops`
    /// (the differential tests reset and read it around a run).
    static FUSED_OPS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Timing of one alpha-beta transfer (see `Sim::schedule_wire`).
#[derive(Debug, Clone, Copy)]
struct WireTiming {
    /// When the sender's NIC is released.
    tx_done: f64,
    /// When the last byte lands in the receiver's memory.
    delivered: f64,
    /// NIC queueing between injection and transmission (tx + rx side).
    queue: f64,
    /// Serialization (wire) time.
    ser: f64,
}

/// The typed trace reason of a blocked state.
fn block_reason(b: &Blocked<'_>) -> BlockReason {
    match b {
        Blocked::Recv { src, tag } => BlockReason::Recv { src: *src, tag: *tag },
        Blocked::Notify { .. } => BlockReason::Notify,
        Blocked::SendTxDone { .. } => BlockReason::SendTxDone,
        Blocked::WaitAllSends => BlockReason::AllSends,
        Blocked::Barrier => BlockReason::Barrier,
    }
}

impl<'a> Sim<'a> {
    #[allow(clippy::too_many_arguments)]
    fn new(
        cluster: &'a ClusterSpec,
        cost: &'a CostModel,
        program: &'a CompiledProgram,
        tracing: bool,
        filter: TraceFilter,
        scenario: Option<ScenarioInstance>,
        fabric: Option<NetSim>,
        scheduler: SchedulerKind,
    ) -> Self {
        let profile = program.profile();
        let n = program.num_ranks();
        let ranks = (0..n)
            .map(|r| {
                let scale = scenario.as_ref().map_or(1.0, |s| s.compute_scale(cluster.node_of(r)));
                RankSim::new(scale)
            })
            .collect();
        let mut notify_off = Vec::with_capacity(n + 1);
        let mut acc = 0usize;
        notify_off.push(0);
        for &bound in &profile.notify_bounds {
            acc += bound;
            notify_off.push(acc);
        }
        Self {
            cluster,
            cost,
            program,
            tracing,
            scenario,
            now: 0.0,
            seq: 0,
            next_msg: 0,
            // Pooled event storage: pre-size the queue so the steady state
            // never reallocates (peak occupancy is bounded by the number of
            // ranks plus in-flight transfers).  The calendar bucket width is
            // the smallest link latency — the natural spacing between a
            // transfer's injection and its delivery, so a bucket holds about
            // one wave of events.
            events: EventQueue::new(scheduler, cost.alpha_intra.min(cost.alpha_inter), 4 * n + 64),
            ranks,
            notify_counts: vec![0; acc],
            notify_off,
            tracks_put_tx: &profile.waits_sends,
            node_tx_free: vec![0.0; cluster.nodes],
            node_rx_free: vec![0.0; cluster.nodes],
            barrier_arrived: 0,
            barrier_latest: 0.0,
            inject: if fabric.is_some() { (0..n).map(|_| InjectQueue::default()).collect() } else { Vec::new() },
            fabric,
            flow_meta: Vec::new(),
            completed_buf: Vec::new(),
            meta_buf: Vec::new(),
            trace: if tracing { Trace::new(filter, n) } else { Trace::default() },
            trace_seq: if tracing { vec![0; n] } else { Vec::new() },
            arrival_seq: if tracing { vec![0; n] } else { Vec::new() },
            flow_seq: if tracing { vec![0; n] } else { Vec::new() },
            metrics: EngineMetrics::default(),
        }
    }

    fn push_event(&mut self, time: f64, rank: RankId, kind: EventKind) {
        let seq = self.seq;
        self.seq += 1;
        self.metrics.events_scheduled += 1;
        self.events.push(Event { time, seq, rank: rank as u32, kind });
    }

    fn push_delivered(&mut self, time: f64, dst: RankId, src: RankId, tag: Tag, bytes: u64) {
        self.push_event(time, dst, EventKind::Delivered { src: src as u32, tag, bytes: Word(bytes) });
    }

    /// Record an event on `rank`'s own sequence channel.  The counter
    /// advances even for filtered-out ranks, so a windowed trace is a
    /// strict subset of the full one.
    fn trace_own(&mut self, time: f64, rank: RankId, kind: TraceKind, op_index: Option<usize>, detail: TraceDetail) {
        if !self.tracing {
            return;
        }
        let seq = self.trace_seq[rank];
        self.trace_seq[rank] += 1;
        self.trace.record(TraceEvent::new(time, rank, kind, op_index, seq, detail));
    }

    /// Record a message arrival on the destination's arrival sequence
    /// channel.  Arrivals are emitted (future-dated) when their timing is
    /// decided, not when the event fires; with several writers a rank's
    /// arrival stream is therefore put in time order when the run ends.
    fn trace_arrival(&mut self, time: f64, dst: RankId, kind: TraceKind, detail: TraceDetail) {
        if !self.tracing {
            return;
        }
        let seq = ARRIVAL_SEQ | self.arrival_seq[dst];
        self.arrival_seq[dst] += 1;
        self.trace.record(TraceEvent::new(time, dst, kind, None, seq, detail));
    }

    /// Mint a flow id pairing an injection with its arrival (0 untraced).
    fn next_flow(&mut self, src: RankId) -> u64 {
        if !self.tracing {
            return 0;
        }
        let c = self.flow_seq[src];
        self.flow_seq[src] += 1;
        ((src as u64) << 32) | c
    }

    fn run(mut self) -> Result<RunReport, SimError> {
        for r in 0..self.program.num_ranks() {
            self.resume_after_local_ops(r, 0.0);
        }
        while let Some(ev) = self.events.pop() {
            // Relative tolerance: an absolute epsilon (1e-15 historically)
            // is below one ulp once the makespan passes ~5 ms, so legitimate
            // rounding ties tripped the guard on long runs.
            debug_assert!(
                ev.time + time_backstep_tolerance(self.now) >= self.now,
                "time must not run backwards: event at {} behind clock {}",
                ev.time,
                self.now
            );
            self.now = self.now.max(ev.time);
            let rank = ev.rank as RankId;
            match ev.kind {
                EventKind::Resume => self.step_rank(rank, ev.time),
                EventKind::Delivered { src, tag, bytes } => {
                    self.on_delivered(rank, src as RankId, tag, bytes.0, ev.time);
                }
                EventKind::NotifyVisible { notify } => self.on_notify(rank, notify, ev.time),
                EventKind::TxDone { msg } => self.on_tx_done(rank, msg.0, ev.time),
                EventKind::FlowLaunch => self.on_flow_launch(rank, ev.time),
                EventKind::FabricTick { epoch } => self.on_fabric_tick(epoch.0, ev.time),
            }
        }
        let blocked: Vec<_> = self
            .ranks
            .iter()
            .enumerate()
            .filter(|(_, r)| !r.done)
            .map(|(i, r)| {
                let what = r.blocked.as_ref().map_or_else(|| "not scheduled".to_owned(), Blocked::describe);
                (i, r.pc, what)
            })
            .collect();
        if !blocked.is_empty() {
            return Err(SimError::Deadlock { blocked });
        }
        match &self.fabric {
            Some(NetSim::Flow(f)) => {
                self.metrics.fabric_solves = f.solver_passes();
                self.metrics.balanced_swap_hits = f.balanced_swap_hits();
            }
            Some(NetSim::Packet(p)) => {
                let t = p.totals();
                self.metrics.packet_events = t.events;
                self.metrics.packet_drops = t.drops;
                self.metrics.packet_retransmits = t.retransmits;
                self.metrics.pfc_pauses = t.pfc_pauses;
                self.metrics.ecn_marks = t.ecn_marks;
            }
            None => {}
        }
        if let EventQueue::Calendar(c) = &self.events {
            self.metrics.calendar_bucket_sorts = c.sorts();
        }
        let links = match &self.fabric {
            Some(NetSim::Flow(f)) => f
                .usage()
                .iter()
                .zip(f.topology().links())
                .map(|(u, l)| LinkStats {
                    label: l.label.clone(),
                    capacity: l.capacity,
                    bytes: u.bytes,
                    busy_time: u.busy_time,
                    saturated_time: u.saturated_time,
                    busy_intervals: u.intervals.clone(),
                    ..LinkStats::default()
                })
                .collect(),
            Some(NetSim::Packet(p)) => p
                .usage()
                .iter()
                .zip(p.packet_usage())
                .zip(p.topology().links())
                .map(|((u, pu), l)| LinkStats {
                    label: l.label.clone(),
                    capacity: l.capacity,
                    bytes: u.bytes,
                    busy_time: u.busy_time,
                    saturated_time: u.saturated_time,
                    busy_intervals: u.intervals.clone(),
                    packets: pu.packets,
                    drops: pu.drops,
                    ecn_marks: pu.ecn_marks,
                    pfc_pauses: pu.pfc_pauses,
                    pause_time: pu.pause_time,
                })
                .collect(),
            None => Vec::new(),
        };
        let ranks = self.ranks.into_iter().map(|r| r.stats).collect();
        self.trace.seal();
        self.metrics.trace_events = self.trace.len() as u64;
        Ok(RunReport { ranks, links, trace: self.trace, summary: None, metrics: self.metrics })
    }

    /// Resume a rank that was blocked, accounting the wait time.
    fn unblock(&mut self, rank: RankId, at: f64) {
        let r = &mut self.ranks[rank];
        debug_assert!(r.blocked.is_some());
        let reason = r.blocked.as_ref().map(block_reason);
        r.stats.wait_time += (at - r.blocked_since).max(0.0);
        r.blocked = None;
        // Hoist the op index *before* mutating the pc: BlockEnd must pair
        // with the BlockStart that `block()` emitted for the same op.
        let op_index = r.pc;
        r.pc += 1;
        let detail = reason.map_or(TraceDetail::None, |reason| TraceDetail::Block { reason });
        self.trace_own(at, rank, TraceKind::BlockEnd, Some(op_index), detail);
        self.resume_after_local_ops(rank, at);
    }

    fn block(&mut self, rank: RankId, at: f64, why: Blocked<'a>) {
        let pc = self.ranks[rank].pc;
        self.trace_own(at, rank, TraceKind::BlockStart, Some(pc), TraceDetail::Block { reason: block_reason(&why) });
        let r = &mut self.ranks[rank];
        r.blocked = Some(why);
        r.blocked_since = at;
    }

    /// Execute the next operation of `rank` starting at time `t`.
    fn step_rank(&mut self, rank: RankId, t: f64) {
        if self.ranks[rank].blocked.is_some() || self.ranks[rank].done {
            return;
        }
        let pc = self.ranks[rank].pc;
        // Copy the program reference out of `self` so the decoded operation's
        // borrowed id lists have the full `'a` lifetime — the hot loop never
        // materializes an `Op`.
        let program = self.program;
        let view = program.rank_ops(rank);
        if pc >= view.len() {
            let r = &mut self.ranks[rank];
            r.done = true;
            r.stats.finish_time = r.stats.finish_time.max(t);
            return;
        }
        let op = view.op(pc);
        if let Some(end) = self.exec_local(rank, pc, op, t) {
            // A `Resume` lands on a local op only where the chain before it
            // held back (a parked rendezvous send).
            self.resume_after_local_ops(rank, end);
            return;
        }
        self.trace_own(t, rank, TraceKind::OpStart, Some(pc), TraceDetail::Op { op: op.class() });
        self.ranks[rank].stats.finish_time = self.ranks[rank].stats.finish_time.max(t);
        match op {
            OpView::Compute { .. } | OpView::Reduce { .. } | OpView::Copy { .. } => {
                unreachable!("local ops are executed above")
            }
            OpView::PutNotify { dst, bytes, notify } => {
                let launch = t + self.cost.o_send;
                self.schedule_put(rank, dst, bytes, notify, launch);
                self.advance(rank, launch);
            }
            OpView::Notify { dst, notify } => {
                let launch = t + self.cost.o_send;
                self.schedule_put(rank, dst, 0, notify, launch);
                self.advance(rank, launch);
            }
            OpView::WaitNotify { ids } => {
                self.try_wait_notify(rank, t, ids, ids.len());
            }
            OpView::WaitNotifyAny { ids, count } => {
                self.try_wait_notify(rank, t, ids, count);
            }
            OpView::Send { dst, bytes, tag } => self.exec_send(rank, dst, bytes, tag, t, true),
            OpView::Isend { dst, bytes, tag } => self.exec_send(rank, dst, bytes, tag, t, false),
            OpView::Recv { src, bytes, tag } => self.exec_recv(rank, src, bytes, tag, t),
            OpView::WaitAllSends => {
                if self.ranks[rank].outstanding_sends == 0 {
                    self.advance(rank, t);
                } else {
                    self.block(rank, t, Blocked::WaitAllSends);
                }
            }
            OpView::Barrier => self.exec_barrier(rank, t),
        }
    }

    /// Execute `rank`'s op at `pc` from time `t` if it is purely local — its
    /// nominal duration scaled by the rank's scenario compute factor — and
    /// return the time it ends; `None` for an op that touches the network,
    /// another rank or the barrier.
    fn exec_local(&mut self, rank: RankId, pc: usize, op: OpView<'_>, t: f64) -> Option<f64> {
        let d = match op {
            OpView::Compute { seconds } => seconds.max(0.0),
            OpView::Reduce { bytes } => self.cost.reduce_time(bytes),
            OpView::Copy { bytes } => self.cost.copy_time(bytes),
            _ => return None,
        };
        self.trace_own(t, rank, TraceKind::OpStart, Some(pc), TraceDetail::Op { op: op.class() });
        let r = &mut self.ranks[rank];
        let d = d * r.compute_scale;
        r.stats.compute_time += d;
        r.stats.finish_time = r.stats.finish_time.max(t + d);
        r.pc += 1;
        self.trace_own(t + d, rank, TraceKind::OpEnd, Some(pc), TraceDetail::None);
        Some(t + d)
    }

    /// Local-op fusion: `rank`'s `pc` has just moved and its next op would
    /// start at `t`; run the local ops that follow right here and push the
    /// rank's one `Resume` at the time the chain ends.  The loop therefore
    /// pays the event queue per *non-local* op.
    ///
    /// `Compute`, `Reduce` and `Copy` may be fused because they touch only
    /// `ranks[rank]` (`pc`, `compute_time`, `finish_time`), the rank's own
    /// trace channel and the cost model — nothing another rank's event reads
    /// before the chain ends — so running them early, in order, with the same
    /// arithmetic yields what a `Resume` per op would.  Puts, sends,
    /// receives, waits and barriers keep their `Resume`: NIC cursors,
    /// matching and the fabric depend on the global event order.  The chain
    /// holds back while a rendezvous send of this rank is parked at its
    /// receiver, whose `Recv` will record the `MsgInjected` on *this* rank's
    /// trace channel: its sequence number must not depend on how far ahead
    /// the local ops ran.
    ///
    /// Ties: the closing `Resume` takes its queue sequence number when the
    /// chain starts, not when its last op would have started, so it can
    /// overtake another event of the same rank at a bit-equal time pushed in
    /// between: an arrival landing exactly as the chain ends then finds the
    /// rank already blocked in its wait or receive, where the op used to
    /// find the arrival — a measure-zero tie like the one `dataflow`
    /// documents for its path.  On a fabric, a put followed by a local op
    /// leaves no `Resume` between equal-time `FlowLaunch`es, so
    /// `on_flow_launch` batches solves it ran one by one: fewer
    /// `fabric_solves`, same rates.
    fn resume_after_local_ops(&mut self, rank: RankId, mut t: f64) {
        let view = self.program.rank_ops(rank);
        while self.ranks[rank].parked_sends == 0 && self.ranks[rank].pc < view.len() {
            let pc = self.ranks[rank].pc;
            let Some(end) = self.exec_local(rank, pc, view.op(pc), t) else { break };
            t = end;
            #[cfg(test)]
            FUSED_OPS.set(FUSED_OPS.get() + 1);
        }
        self.push_event(t, rank, EventKind::Resume);
    }

    /// Advance the program counter past a non-local op that completes at
    /// `at`, run the local ops behind it and schedule the next step.
    fn advance(&mut self, rank: RankId, at: f64) {
        let r = &mut self.ranks[rank];
        let op_index = r.pc;
        r.pc += 1;
        r.stats.finish_time = r.stats.finish_time.max(at);
        self.trace_own(at, rank, TraceKind::OpEnd, Some(op_index), TraceDetail::None);
        self.resume_after_local_ops(rank, at);
    }

    // -- transfers ----------------------------------------------------------

    fn alloc_msg(&mut self) -> MsgId {
        let id = self.next_msg;
        self.next_msg += 1;
        id
    }

    /// Schedule a one-sided put (or a zero-byte notification) from `src` to
    /// `dst`, injected no earlier than `earliest`.
    fn schedule_put(&mut self, src: RankId, dst: RankId, bytes: u64, notify: NotifyId, earliest: f64) {
        let same = self.cluster.same_node(src, dst);
        let label = MsgLabel::Notify(notify);
        if self.fabric.is_some() && !same {
            let msg = if bytes > 0 && self.tracks_put_tx[src] {
                let msg = self.alloc_msg();
                self.ranks[src].outstanding_sends += 1;
                Some(msg)
            } else {
                None
            };
            let flow = self.next_flow(src);
            self.trace_own(
                earliest,
                src,
                TraceKind::MsgInjected,
                None,
                TraceDetail::Inject { dst, bytes, label, flow },
            );
            self.fabric_transfer(src, dst, bytes, 1.0, earliest, FlowKind::Put { notify, msg }, flow);
            return;
        }
        let beta = self.cost.beta_one_sided(same);
        let w = self.schedule_wire(src, dst, bytes, beta, same, earliest);
        let visible = w.delivered + self.cost.notify_overhead;
        self.ranks[src].stats.bytes_sent += bytes;
        self.ranks[src].stats.messages_sent += 1;
        // The TxDone event only feeds `WaitAllSends` accounting; ranks that
        // never wait for send completion skip it (and the heap traffic).
        if self.tracks_put_tx[src] {
            let msg = self.alloc_msg();
            self.ranks[src].outstanding_sends += 1;
            self.push_event(w.tx_done, src, EventKind::TxDone { msg: Word(msg) });
        }
        self.push_event(visible, dst, EventKind::NotifyVisible { notify });
        if self.tracing {
            let flow = self.next_flow(src);
            self.trace_own(
                earliest,
                src,
                TraceKind::MsgInjected,
                None,
                TraceDetail::Inject { dst, bytes, label, flow },
            );
            self.trace_arrival(
                visible,
                dst,
                TraceKind::NotifyVisible,
                TraceDetail::Arrival { src, bytes, label, flow, inject: earliest, queue: w.queue, wire: w.ser },
            );
        }
    }

    /// Schedule a two-sided transfer from `src` to `dst`.
    fn schedule_two_sided(&mut self, src: RankId, dst: RankId, bytes: u64, tag: Tag, earliest: f64, msg: MsgId) {
        let same = self.cluster.same_node(src, dst);
        let label = MsgLabel::Tag(tag);
        if self.fabric.is_some() && !same {
            let penalty = self.cost.two_sided_bw_penalty.max(1.0);
            let flow = self.next_flow(src);
            self.trace_own(
                earliest,
                src,
                TraceKind::MsgInjected,
                None,
                TraceDetail::Inject { dst, bytes, label, flow },
            );
            self.fabric_transfer(src, dst, bytes, penalty, earliest, FlowKind::TwoSided { tag, msg }, flow);
            return;
        }
        let beta = self.cost.beta_two_sided(same);
        let w = self.schedule_wire(src, dst, bytes, beta, same, earliest);
        self.ranks[src].stats.bytes_sent += bytes;
        self.ranks[src].stats.messages_sent += 1;
        self.push_event(w.tx_done, src, EventKind::TxDone { msg: Word(msg) });
        self.push_delivered(w.delivered, dst, src, tag, bytes);
        if self.tracing {
            let flow = self.next_flow(src);
            self.trace_own(
                earliest,
                src,
                TraceKind::MsgInjected,
                None,
                TraceDetail::Inject { dst, bytes, label, flow },
            );
            self.trace_arrival(
                w.delivered,
                dst,
                TraceKind::MsgDelivered,
                TraceDetail::Arrival { src, bytes, label, flow, inject: earliest, queue: w.queue, wire: w.ser },
            );
        }
    }

    /// Common wire timing: when the sender's NIC is released, when the last
    /// byte lands in the receiver's memory, and the trace decomposition of
    /// the transfer (NIC queueing, serialization).
    fn schedule_wire(
        &mut self,
        src: RankId,
        dst: RankId,
        bytes: u64,
        beta: f64,
        same_node: bool,
        earliest: f64,
    ) -> WireTiming {
        let src_node = self.cluster.node_of(src);
        let dst_node = self.cluster.node_of(dst);
        let mut ser = self.cost.serialization(bytes, beta);
        let mut alpha = self.cost.alpha(same_node);
        if let Some(inst) = &self.scenario {
            alpha *= inst.link_alpha_scale(src_node, dst_node);
            ser *= inst.link_beta_scale(src_node, dst_node);
        }
        let mut tx_start = earliest.max(self.ranks[src].tx_free);
        if !same_node {
            tx_start = tx_start.max(self.node_tx_free[src_node]);
        }
        let tx_done = tx_start + ser;
        self.ranks[src].tx_free = tx_done;
        if !same_node {
            self.node_tx_free[src_node] = tx_done;
        }
        // Cut-through delivery: the head arrives after `alpha`, the receiver
        // NIC then needs the serialization time; inter-node messages also
        // queue behind other traffic into the destination node.
        let mut rx_start = tx_start + alpha;
        if !same_node {
            rx_start = rx_start.max(self.node_rx_free[dst_node]);
        }
        let delivered = rx_start + ser;
        if !same_node {
            self.node_rx_free[dst_node] = delivered;
        }
        self.ranks[dst].stats.bytes_received += bytes;
        self.ranks[dst].stats.messages_received += 1;
        // NIC queueing: the injection wait behind earlier traffic plus the
        // receive-side wait behind the destination node's inbound traffic.
        // Everything else in `delivered - earliest` is serialization and
        // alpha, so the arrival decomposition telescopes exactly.
        let queue = (tx_start - earliest) + (rx_start - (tx_start + alpha));
        WireTiming { tx_done, delivered, queue, ser }
    }

    // -- fabric (flow-level contention) path --------------------------------

    /// Price an inter-node transfer through the flow-level fabric: enqueue it
    /// on the sender's injection pipeline (one DMA in flight per rank, like
    /// the alpha-beta model's per-rank NIC serialization).  Scenario jitter
    /// composes on top: bandwidth jitter scales the wire bytes, latency
    /// jitter the propagation delay added at delivery.
    #[allow(clippy::too_many_arguments)]
    fn fabric_transfer(
        &mut self,
        src: RankId,
        dst: RankId,
        bytes: u64,
        penalty: f64,
        earliest: f64,
        kind: FlowKind,
        flow: u64,
    ) {
        let src_node = self.cluster.node_of(src);
        let dst_node = self.cluster.node_of(dst);
        let mut alpha = self.cost.alpha_inter;
        let mut wire_bytes = bytes as f64 * penalty;
        if let Some(inst) = &self.scenario {
            alpha *= inst.link_alpha_scale(src_node, dst_node);
            wire_bytes *= inst.link_beta_scale(src_node, dst_node);
        }
        self.ranks[src].stats.bytes_sent += bytes;
        self.ranks[src].stats.messages_sent += 1;
        if bytes == 0 {
            // Payload-free synchronization never contends for bandwidth.
            self.ranks[dst].stats.messages_received += 1;
            match kind {
                FlowKind::Put { notify, msg } => {
                    debug_assert!(msg.is_none(), "zero-byte puts are never tracked");
                    let visible = earliest + alpha + self.cost.notify_overhead;
                    self.push_event(visible, dst, EventKind::NotifyVisible { notify });
                    self.trace_arrival(
                        visible,
                        dst,
                        TraceKind::NotifyVisible,
                        TraceDetail::Arrival {
                            src,
                            bytes: 0,
                            label: MsgLabel::Notify(notify),
                            flow,
                            inject: earliest,
                            queue: 0.0,
                            wire: 0.0,
                        },
                    );
                }
                FlowKind::TwoSided { tag, msg } => {
                    self.push_event(earliest, src, EventKind::TxDone { msg: Word(msg) });
                    let delivered = earliest + alpha;
                    self.push_delivered(delivered, dst, src, tag, 0);
                    self.trace_arrival(
                        delivered,
                        dst,
                        TraceKind::MsgDelivered,
                        TraceDetail::Arrival {
                            src,
                            bytes: 0,
                            label: MsgLabel::Tag(tag),
                            flow,
                            inject: earliest,
                            queue: 0.0,
                            wire: 0.0,
                        },
                    );
                }
            }
            return;
        }
        self.inject[src].fifo.push_back(QueuedTransfer { dst, bytes, wire_bytes, alpha, earliest, kind, flow });
        if !self.inject[src].busy {
            self.inject[src].busy = true;
            self.push_event(earliest, src, EventKind::FlowLaunch);
        }
    }

    /// The head of `rank`'s injection queue is due: hand it to the fabric and
    /// re-solve the rate allocation.  When the very next event is another
    /// launch at the same virtual time (a synchronized wave, e.g. every rank
    /// starting an alltoall at once), the solve is deferred to the wave's
    /// last launch — one solve for the whole batch instead of one per flow.
    fn on_flow_launch(&mut self, rank: RankId, t: f64) {
        debug_assert!(self.inject[rank].busy);
        let launched = self.launch_queued(rank, t);
        debug_assert!(launched, "a FlowLaunch event always finds a due transfer at the queue head");
        let next_is_same_time_launch = matches!(
            self.events.peek(),
            Some(ev) if ev.time == t && matches!(ev.kind, EventKind::FlowLaunch)
        );
        if !next_is_same_time_launch {
            self.resolve_fabric(t);
        }
    }

    /// Launch the transfer at the head of `rank`'s queue if one is due.
    /// Returns whether a flow entered the fabric (the caller then re-solves).
    fn launch_queued(&mut self, rank: RankId, t: f64) -> bool {
        match self.inject[rank].fifo.front().copied() {
            None => {
                self.inject[rank].busy = false;
                false
            }
            Some(qt) if qt.earliest > t => {
                // Head-of-line transfer not ready yet (rendezvous handshake):
                // the pipeline stays reserved until its launch time.
                self.push_event(qt.earliest, rank, EventKind::FlowLaunch);
                false
            }
            Some(qt) => {
                self.inject[rank].fifo.pop_front();
                let fabric = self.fabric.as_mut().expect("fabric transfers require a fabric");
                let src_node = self.cluster.node_of(rank);
                let dst_node = self.cluster.node_of(qt.dst);
                let id = fabric.add_flow(t, src_node, dst_node, qt.wire_bytes);
                let meta = FlowMeta {
                    src: rank,
                    dst: qt.dst,
                    bytes: qt.bytes,
                    alpha: qt.alpha,
                    kind: qt.kind,
                    inject: qt.earliest,
                    launched: t,
                    flow: qt.flow,
                };
                if id >= self.flow_meta.len() {
                    self.flow_meta.resize(id + 1, None);
                }
                self.flow_meta[id] = Some(meta);
                true
            }
        }
    }

    /// Re-solve the fabric rates at `t` and schedule the next completion
    /// tick under the fresh epoch.
    fn resolve_fabric(&mut self, t: f64) {
        let fabric = self.fabric.as_mut().expect("resolve_fabric requires a fabric");
        if let Some(next) = fabric.resolve(t) {
            let epoch = fabric.epoch();
            self.push_event(next, 0, EventKind::FabricTick { epoch: Word(epoch) });
        }
    }

    /// A fabric completion estimate came due.  Stale epochs are ignored; a
    /// current tick completes every flow that has drained, delivers their
    /// payloads, admits the senders' next queued transfers and re-solves.
    ///
    /// The packet fabric asks for a tick at its next *event*, and most of
    /// those complete nothing.  Such a tick keeps draining the fabric in
    /// place while its next event is strictly earlier than the head of the
    /// engine's own queue — the ticks the loop would have popped next anyway
    /// — and handles the completions at the time reached.  On a time tie the
    /// `(time, rank, seq)` order decides, so it falls back to pushing a tick.
    fn on_fabric_tick(&mut self, epoch: u64, mut t: f64) {
        let Some(fabric) = self.fabric.as_mut() else { return };
        if fabric.epoch() != epoch {
            return;
        }
        let mut done = std::mem::take(&mut self.completed_buf);
        fabric.take_completed(t, &mut done);
        if let (NetSim::Packet(p), true) = (fabric, done.is_empty()) {
            t = p.drain_before(self.events.peek().map_or(f64::INFINITY, |ev| ev.time));
            p.take_completed(t, &mut done);
            self.now = self.now.max(t);
        }
        // Detach every completed flow's metadata *before* admitting queued
        // transfers: an admission may recycle a freed flow id that is still
        // pending in `done`, and must not clobber (or be clobbered by) the
        // completion being processed.
        self.meta_buf.clear();
        for &id in &done {
            let meta = self.flow_meta[id].take().expect("completed flow has metadata");
            self.meta_buf.push(meta);
        }
        // Indexed on purpose: iterating `meta_buf` would hold a borrow of
        // `self` across the `push_event`/`trace_arrival` calls below.
        #[allow(clippy::needless_range_loop)]
        for i in 0..self.meta_buf.len() {
            let meta = self.meta_buf[i];
            // Queue/wire attribution for the arrival trace: the flow model
            // splits at the launch instant (injection wait vs in-fabric
            // time); the packet model knows the real decomposition — wire is
            // the contention-free store-and-forward time, queueing is
            // injection wait plus everything the queues, pauses and
            // retransmissions added on top.
            let (queue, wire) = match self.fabric.as_ref().expect("fabric tick requires a fabric") {
                NetSim::Flow(_) => (meta.launched - meta.inject, t - meta.launched),
                NetSim::Packet(p) => {
                    let (fabric_queue, wire) = p.completion_split(done[i]);
                    ((meta.launched - meta.inject) + fabric_queue, wire)
                }
            };
            self.ranks[meta.dst].stats.bytes_received += meta.bytes;
            self.ranks[meta.dst].stats.messages_received += 1;
            match meta.kind {
                FlowKind::Put { notify, msg } => {
                    if let Some(msg) = msg {
                        self.push_event(t, meta.src, EventKind::TxDone { msg: Word(msg) });
                    }
                    let visible = t + meta.alpha + self.cost.notify_overhead;
                    self.push_event(visible, meta.dst, EventKind::NotifyVisible { notify });
                    self.trace_arrival(
                        visible,
                        meta.dst,
                        TraceKind::NotifyVisible,
                        TraceDetail::Arrival {
                            src: meta.src,
                            bytes: meta.bytes,
                            label: MsgLabel::Notify(notify),
                            flow: meta.flow,
                            inject: meta.inject,
                            queue,
                            wire,
                        },
                    );
                }
                FlowKind::TwoSided { tag, msg } => {
                    self.push_event(t, meta.src, EventKind::TxDone { msg: Word(msg) });
                    let delivered = t + meta.alpha;
                    self.push_delivered(delivered, meta.dst, meta.src, tag, meta.bytes);
                    self.trace_arrival(
                        delivered,
                        meta.dst,
                        TraceKind::MsgDelivered,
                        TraceDetail::Arrival {
                            src: meta.src,
                            bytes: meta.bytes,
                            label: MsgLabel::Tag(tag),
                            flow: meta.flow,
                            inject: meta.inject,
                            queue,
                            wire,
                        },
                    );
                }
            }
            self.launch_queued(meta.src, t);
        }
        done.clear();
        self.completed_buf = done;
        self.resolve_fabric(t);
    }

    // -- two-sided send / receive -------------------------------------------

    fn exec_send(&mut self, rank: RankId, dst: RankId, bytes: u64, tag: Tag, t: f64, blocking: bool) {
        match self.cost.protocol_for(bytes) {
            Protocol::Eager => {
                let msg = self.alloc_msg();
                let launch = t + self.cost.o_send;
                self.ranks[rank].outstanding_sends += 1;
                self.schedule_two_sided(rank, dst, bytes, tag, launch, msg);
                // A blocking eager send returns after staging the payload in
                // an internal buffer; a non-blocking one returns immediately.
                let local_done = if blocking { launch + self.cost.copy_time(bytes) } else { launch };
                self.advance(rank, local_done);
            }
            Protocol::Rendezvous => {
                let msg = self.alloc_msg();
                let send_time = t + self.cost.o_send;
                // Does the receiver already block in a matching receive?
                let matched = matches!(
                    &self.ranks[dst].blocked,
                    Some(Blocked::Recv { src, tag: rtag }) if *src == rank && *rtag == tag
                );
                if matched {
                    let recv_post = self.ranks[dst].blocked_since;
                    let earliest = send_time.max(recv_post + self.cost.o_recv) + self.cost.rendezvous_latency;
                    self.schedule_two_sided(rank, dst, bytes, tag, earliest, msg);
                } else {
                    self.ranks[dst].pending_rndv.entry((rank, tag)).or_default().push_back(PendingRendezvous {
                        msg,
                        bytes,
                        send_time,
                    });
                    self.ranks[rank].parked_sends += 1;
                }
                self.ranks[rank].outstanding_sends += 1;
                if blocking {
                    self.block(rank, t, Blocked::SendTxDone { msg });
                } else {
                    self.advance(rank, send_time);
                }
            }
        }
    }

    fn exec_recv(&mut self, rank: RankId, src: RankId, bytes: u64, tag: Tag, t: f64) {
        let post_done = t + self.cost.o_recv;
        // 1. Already-arrived (unexpected) eager message?
        if let Some(q) = self.ranks[rank].unexpected.get_mut(&(src, tag)) {
            if let Some((delivered, msg_bytes)) = q.pop_front() {
                if q.is_empty() {
                    self.ranks[rank].unexpected.remove(&(src, tag));
                }
                // Copy out of the unexpected-message buffer.
                let done = post_done.max(delivered) + self.cost.copy_time(msg_bytes);
                let waited = (delivered - post_done).max(0.0);
                self.ranks[rank].stats.wait_time += waited;
                self.advance(rank, done);
                return;
            }
        }
        // 2. A rendezvous sender already waiting for this receive?
        if let Some(q) = self.ranks[rank].pending_rndv.get_mut(&(src, tag)) {
            if let Some(p) = q.pop_front() {
                if q.is_empty() {
                    self.ranks[rank].pending_rndv.remove(&(src, tag));
                }
                let earliest = p.send_time.max(post_done) + self.cost.rendezvous_latency;
                self.ranks[src].parked_sends -= 1;
                self.block(rank, t, Blocked::Recv { src, tag });
                self.schedule_two_sided(src, rank, p.bytes, tag, earliest, p.msg);
                return;
            }
        }
        // 3. Nothing yet: block until a matching message is delivered.
        let _ = bytes;
        self.block(rank, t, Blocked::Recv { src, tag });
    }

    fn on_delivered(&mut self, dst: RankId, src: RankId, tag: Tag, bytes: u64, t: f64) {
        // The MsgDelivered trace event was emitted (future-dated) when the
        // delivery was scheduled, together with its timing decomposition.
        let matches_block = matches!(
            &self.ranks[dst].blocked,
            Some(Blocked::Recv { src: s, tag: rtag }) if *s == src && *rtag == tag
        );
        if matches_block {
            self.unblock(dst, t);
        } else {
            self.ranks[dst].unexpected.entry((src, tag)).or_default().push_back((t, bytes));
        }
    }

    // -- notifications -------------------------------------------------------

    fn try_wait_notify(&mut self, rank: RankId, t: f64, ids: IdsRef<'a>, count: usize) {
        if self.consume_notifications(rank, ids, count) {
            self.advance(rank, t + self.cost.notify_overhead);
        } else {
            self.block(rank, t, Blocked::Notify { ids, count });
        }
    }

    /// If at least `count` of `ids` have unconsumed arrivals, consume exactly
    /// `count` arrivals — one from each of the first `count` available ids in
    /// listed order — and return true.  Arrivals beyond `count` are left for
    /// later waits: a `WaitNotifyAny { count }` must never drain ids a
    /// subsequent wait depends on.
    fn consume_notifications(&mut self, rank: RankId, ids: IdsRef<'_>, count: usize) -> bool {
        let need = count.min(ids.len());
        let counts = &mut self.notify_counts[self.notify_off[rank]..self.notify_off[rank + 1]];
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
        self.ranks[rank].stats.notifications_consumed += taken as u64;
        true
    }

    fn on_notify(&mut self, rank: RankId, notify: NotifyId, t: f64) {
        // The NotifyVisible trace event was emitted (future-dated) when the
        // put was scheduled, together with its timing decomposition.
        let counts = &mut self.notify_counts[self.notify_off[rank]..self.notify_off[rank + 1]];
        // An arrival no listed wait can reference may exceed this rank's
        // dense range; it can never satisfy a wait, so only count it.
        if let Some(c) = counts.get_mut(notify as usize) {
            *c += 1;
        }
        self.ranks[rank].stats.notifications_received += 1;
        let satisfied = match self.ranks[rank].blocked {
            Some(Blocked::Notify { ids, count }) => self.consume_notifications(rank, ids, count),
            _ => false,
        };
        if satisfied {
            self.unblock(rank, t + self.cost.notify_overhead);
        }
    }

    // -- send completion ------------------------------------------------------

    fn on_tx_done(&mut self, rank: RankId, msg: MsgId, t: f64) {
        let r = &mut self.ranks[rank];
        r.outstanding_sends = r.outstanding_sends.saturating_sub(1);
        let should_unblock = match &r.blocked {
            Some(Blocked::SendTxDone { msg: m }) => *m == msg,
            Some(Blocked::WaitAllSends) => r.outstanding_sends == 0,
            _ => false,
        };
        if should_unblock {
            self.unblock(rank, t);
        }
    }

    // -- barrier ---------------------------------------------------------------

    fn exec_barrier(&mut self, rank: RankId, t: f64) {
        self.barrier_arrived += 1;
        self.barrier_latest = self.barrier_latest.max(t);
        self.block(rank, t, Blocked::Barrier);
        let n = self.program.num_ranks();
        if self.barrier_arrived == n {
            let release = self.barrier_latest + self.cost.barrier_time(n);
            (self.barrier_arrived, self.barrier_latest) = (0, 0.0);
            for r in 0..n {
                self.unblock(r, release);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{Op, ProgramBuilder};
    use proptest::prelude::*;

    fn engine(nodes: usize, ppn: usize) -> Engine {
        Engine::new(ClusterSpec::homogeneous(nodes, ppn), CostModel::test_model())
    }

    #[test]
    fn empty_program_completes_at_time_zero() {
        let e = engine(2, 1);
        let report = e.run(&Program::empty(2)).unwrap();
        assert_eq!(report.makespan(), 0.0);
    }

    #[test]
    fn compute_only_program_has_no_wait_time() {
        let e = engine(1, 2);
        let mut b = ProgramBuilder::new(2);
        b.compute(0, 5e-6);
        b.compute(1, 3e-6);
        let r = e.run(&b.build()).unwrap();
        assert!((r.finish_time(0) - 5e-6).abs() < 1e-12);
        assert!((r.finish_time(1) - 3e-6).abs() < 1e-12);
        assert_eq!(r.total_wait_time(), 0.0);
    }

    #[test]
    fn put_notify_is_received_after_alpha_beta() {
        let e = engine(2, 1);
        let cost = e.cost().clone();
        let bytes = 100_000u64;
        let mut b = ProgramBuilder::new(2);
        b.put_notify(0, 1, bytes, 1);
        b.wait_notify(1, &[1]);
        let r = e.run(&b.build()).unwrap();
        let expected = cost.o_send + cost.alpha_inter + bytes as f64 * cost.beta_inter + 2.0 * cost.notify_overhead;
        assert!((r.finish_time(1) - expected).abs() < 1e-9, "got {} expected {expected}", r.finish_time(1));
        // Receiver waited for the data.
        assert!(r.ranks[1].wait_time > 0.0);
        // Sender returned right after injection.
        assert!(r.finish_time(0) < r.finish_time(1));
    }

    #[test]
    fn eager_send_recv_round_trip() {
        let e = engine(2, 1);
        let mut b = ProgramBuilder::new(2);
        b.send(0, 1, 512, 7);
        b.recv(1, 0, 512, 7);
        let r = e.run(&b.build()).unwrap();
        assert!(r.finish_time(1) > 0.0);
        assert_eq!(r.ranks[0].bytes_sent, 512);
        assert_eq!(r.ranks[1].bytes_received, 512);
    }

    #[test]
    fn rendezvous_send_waits_for_late_receiver() {
        let e = engine(2, 1);
        let bytes = 1 << 20; // above the 1 KiB test eager threshold
        let late = 50e-6;
        let mut b = ProgramBuilder::new(2);
        b.send(0, 1, bytes, 0);
        b.compute(1, late);
        b.recv(1, 0, bytes, 0);
        let r = e.run(&b.build()).unwrap();
        // Sender cannot finish before the receiver posted its receive.
        assert!(r.finish_time(0) > late, "sender finished at {} before late receiver at {late}", r.finish_time(0));
        assert!(r.ranks[0].wait_time > 0.0);
    }

    #[test]
    fn eager_send_does_not_wait_for_late_receiver() {
        let e = engine(2, 1);
        let bytes = 256;
        let late = 50e-6;
        let mut b = ProgramBuilder::new(2);
        b.send(0, 1, bytes, 0);
        b.compute(1, late);
        b.recv(1, 0, bytes, 0);
        let r = e.run(&b.build()).unwrap();
        assert!(r.finish_time(0) < late);
    }

    #[test]
    fn one_sided_put_does_not_wait_for_late_receiver() {
        let e = engine(2, 1);
        let bytes = 1 << 20;
        let late = 50e-6;
        let mut b = ProgramBuilder::new(2);
        b.put_notify(0, 1, bytes, 0);
        b.compute(1, late);
        b.wait_notify(1, &[0]);
        let r = e.run(&b.build()).unwrap();
        assert!(r.finish_time(0) < late, "one-sided sender must not block on the receiver");
    }

    #[test]
    fn two_sided_transfer_is_slower_than_one_sided() {
        let e = engine(2, 1);
        let bytes = 4 << 20;
        let mut one = ProgramBuilder::new(2);
        one.put_notify(0, 1, bytes, 0);
        one.wait_notify(1, &[0]);
        let mut two = ProgramBuilder::new(2);
        two.send(0, 1, bytes, 0);
        two.recv(1, 0, bytes, 0);
        let t_one = e.makespan(&one.build()).unwrap();
        let t_two = e.makespan(&two.build()).unwrap();
        assert!(t_two > t_one, "two-sided {t_two} should exceed one-sided {t_one}");
    }

    #[test]
    fn nic_serializes_messages_from_same_node() {
        let e = engine(3, 1);
        let bytes = 1 << 20;
        // Rank 0 sends to ranks 1 and 2; both transfers share rank 0's NIC.
        let mut b = ProgramBuilder::new(3);
        b.put_notify(0, 1, bytes, 0);
        b.put_notify(0, 2, bytes, 0);
        b.wait_notify(1, &[0]);
        b.wait_notify(2, &[0]);
        let r = e.run(&b.build()).unwrap();
        let ser = bytes as f64 * e.cost().beta_inter;
        // The second delivery must be at least one extra serialization later.
        let t1 = r.finish_time(1);
        let t2 = r.finish_time(2);
        assert!((t2 - t1).abs() >= ser * 0.9, "expected NIC serialization between deliveries: {t1} vs {t2}");
    }

    #[test]
    fn ranks_on_same_node_share_the_nic() {
        // 2 nodes x 2 ranks; both ranks of node 0 send to node 1 concurrently.
        let e = engine(2, 2);
        let bytes = 1 << 20;
        let mut b = ProgramBuilder::new(4);
        b.put_notify(0, 2, bytes, 0);
        b.put_notify(1, 3, bytes, 0);
        b.wait_notify(2, &[0]);
        b.wait_notify(3, &[0]);
        let shared = e.run(&b.build()).unwrap().makespan();

        // Same volume but from two different nodes to two different nodes.
        let e2 = engine(4, 1);
        let mut b2 = ProgramBuilder::new(4);
        b2.put_notify(0, 2, bytes, 0);
        b2.put_notify(1, 3, bytes, 0);
        b2.wait_notify(2, &[0]);
        b2.wait_notify(3, &[0]);
        let independent = e2.run(&b2.build()).unwrap().makespan();
        assert!(shared > independent * 1.5, "NIC sharing must slow down co-located senders: {shared} vs {independent}");
    }

    #[test]
    fn intra_node_transfer_is_faster_than_inter_node() {
        let bytes = 1 << 20;
        let e_intra = engine(1, 2);
        let mut b1 = ProgramBuilder::new(2);
        b1.put_notify(0, 1, bytes, 0);
        b1.wait_notify(1, &[0]);
        let e_inter = engine(2, 1);
        let mut b2 = ProgramBuilder::new(2);
        b2.put_notify(0, 1, bytes, 0);
        b2.wait_notify(1, &[0]);
        let t_intra = e_intra.makespan(&b1.build()).unwrap();
        let t_inter = e_inter.makespan(&b2.build()).unwrap();
        assert!(t_intra < t_inter);
    }

    #[test]
    fn barrier_synchronizes_all_ranks() {
        let e = engine(4, 1);
        let mut b = ProgramBuilder::new(4);
        b.compute(0, 10e-6);
        b.compute(1, 20e-6);
        b.compute(2, 30e-6);
        b.compute(3, 1e-6);
        b.barrier_all();
        let r = e.run(&b.build()).unwrap();
        let min_finish = r.ranks.iter().map(|s| s.finish_time).fold(f64::MAX, f64::min);
        assert!(min_finish >= 30e-6, "no rank may leave the barrier before the slowest arrives");
        assert!(r.ranks[3].wait_time > r.ranks[2].wait_time);
    }

    /// Two barriers over staggered arrivals at p = 4096.  The makespan and
    /// fingerprint were read on the parent, whose `exec_barrier` re-scanned
    /// every rank per arrival; the counted release must reproduce the bits.
    #[test]
    fn barrier_release_is_pinned_at_4096_ranks() {
        let p = 4096;
        let mut b = ProgramBuilder::new(p);
        for r in 0..p {
            b.compute(r, 1e-6 * ((r * 7919) % p) as f64);
            b.barrier(r);
            b.compute(r, 1e-6 * ((r * 104_729) % p) as f64);
            b.barrier(r);
        }
        let program = b.build();
        for scheduler in [SchedulerKind::CalendarQueue, SchedulerKind::BinaryHeap] {
            let r = engine(p / 4, 4).with_scheduler(scheduler).run(&program).unwrap();
            assert_eq!(
                (r.makespan().to_bits(), r.total_wait_time().to_bits(), r.fingerprint()),
                (0x3f80d788e8716e02, 0x4030e9269fa6f9d8, 0x1218e4e13080e2af),
                "{scheduler:?}"
            );
        }
    }

    #[test]
    fn wait_notify_any_count_allows_progress_with_partial_arrivals() {
        let e = engine(3, 1);
        let mut b = ProgramBuilder::new(3);
        // Rank 2 only needs one of two notifications; rank 1 never sends.
        b.put_notify(0, 2, 1024, 0);
        b.wait_notify_any(2, &[0, 1], 1);
        let r = e.run(&b.build()).unwrap();
        assert!(r.finish_time(2) > 0.0);
    }

    #[test]
    fn wait_notify_any_consumes_exactly_count_arrivals() {
        // Regression: `WaitNotifyAny { count: 1 }` used to drain *every*
        // available id, destroying the arrival a later wait depends on and
        // deadlocking the second wait.
        let e = engine(3, 1);
        let mut b = ProgramBuilder::new(3);
        b.notify(0, 2, 0);
        b.notify(1, 2, 1);
        // Let both notifications land before the first wait runs.
        b.compute(2, 1e-3);
        b.wait_notify_any(2, &[0, 1], 1);
        b.wait_notify(2, &[1]);
        let r = e.run(&b.build()).unwrap();
        assert!(r.finish_time(2) >= 1e-3);
        assert_eq!(r.ranks[2].notifications_received, 2);
        assert_eq!(r.ranks[2].notifications_consumed, 2);
    }

    #[test]
    fn wait_notify_any_consumes_in_listed_id_order() {
        // Both arrivals are present; `wait_notify_any([1, 0], 1)` must take
        // id 1 (first in the listed order), leaving id 0 for the next wait.
        let e = engine(3, 1);
        let mut b = ProgramBuilder::new(3);
        b.notify(0, 2, 0);
        b.notify(1, 2, 1);
        b.compute(2, 1e-3);
        b.wait_notify_any(2, &[1, 0], 1);
        b.wait_notify(2, &[0]);
        e.run(&b.build()).unwrap();
        // The mirror order consumes id 0 first, so waiting on id 1 works too.
        let mut b2 = ProgramBuilder::new(3);
        b2.notify(0, 2, 0);
        b2.notify(1, 2, 1);
        b2.compute(2, 1e-3);
        b2.wait_notify_any(2, &[0, 1], 1);
        b2.wait_notify(2, &[1]);
        e.run(&b2.build()).unwrap();
    }

    #[test]
    fn unconsumed_arrivals_survive_for_later_waits() {
        // Two arrivals of the same id: each single wait consumes exactly one.
        let e = engine(2, 1);
        let mut b = ProgramBuilder::new(2);
        b.notify(0, 1, 5);
        b.notify(0, 1, 5);
        b.compute(1, 1e-3);
        b.wait_notify(1, &[5]);
        b.wait_notify(1, &[5]);
        let r = e.run(&b.build()).unwrap();
        assert_eq!(r.ranks[1].notifications_received, 2);
        assert_eq!(r.ranks[1].notifications_consumed, 2);
    }

    #[test]
    fn missing_notification_deadlocks() {
        let e = engine(2, 1);
        let mut b = ProgramBuilder::new(2);
        b.wait_notify(1, &[9]);
        let err = e.run(&b.build()).unwrap_err();
        match err {
            SimError::Deadlock { blocked } => {
                assert_eq!(blocked.len(), 1);
                assert_eq!(blocked[0].0, 1);
            }
            other => panic!("expected deadlock, got {other:?}"),
        }
    }

    #[test]
    fn mismatched_recv_is_rejected_by_validation() {
        let e = engine(2, 1);
        let mut b = ProgramBuilder::new(2);
        b.send(0, 1, 128, 3);
        b.recv(1, 0, 128, 4); // wrong tag
        let err = e.run(&b.build()).unwrap_err();
        assert!(matches!(err, SimError::Invalid(ValidationError::UnmatchedChannel { .. })));
    }

    #[test]
    fn isend_wait_all_sends_completes() {
        let e = engine(2, 1);
        let mut b = ProgramBuilder::new(2);
        b.isend(0, 1, 1 << 16, 0);
        b.isend(0, 1, 1 << 16, 1);
        b.wait_all_sends(0);
        b.recv(1, 0, 1 << 16, 0);
        b.recv(1, 0, 1 << 16, 1);
        let r = e.run(&b.build()).unwrap();
        assert_eq!(r.ranks[0].messages_sent, 2);
        assert_eq!(r.ranks[1].messages_received, 2);
    }

    #[test]
    fn unexpected_eager_message_is_matched_later() {
        let e = engine(2, 1);
        let mut b = ProgramBuilder::new(2);
        b.send(0, 1, 64, 5);
        b.compute(1, 100e-6);
        b.recv(1, 0, 64, 5);
        let r = e.run(&b.build()).unwrap();
        // The receive finds the message already buffered: no wait time beyond compute.
        assert!(r.finish_time(1) >= 100e-6);
        assert!(r.ranks[1].wait_time < 1e-9);
    }

    #[test]
    fn trace_is_collected_when_enabled() {
        let e = engine(2, 1).with_trace(true);
        let mut b = ProgramBuilder::new(2);
        b.put_notify(0, 1, 128, 0);
        b.wait_notify(1, &[0]);
        let r = e.run(&b.build()).unwrap();
        assert!(!r.trace.is_empty());
        assert!(r.trace.iter().any(|t| t.kind == TraceKind::NotifyVisible));
    }

    #[test]
    fn deterministic_replay() {
        let e = engine(4, 2);
        let mut b = ProgramBuilder::new(8);
        for r in 0..8usize {
            let peer = (r + 3) % 8;
            b.put_notify(r, peer, 4096, r as u32);
        }
        for r in 0..8usize {
            let from = (r + 8 - 3) % 8;
            b.wait_notify(r, &[from as u32]);
        }
        let p = b.build();
        let r1 = e.run(&p).unwrap();
        let r2 = e.run(&p).unwrap();
        assert_eq!(r1.makespan(), r2.makespan());
        assert_eq!(r1.ranks, r2.ranks);
    }

    // -- scenario layer -----------------------------------------------------

    fn two_rank_put_wait() -> Program {
        let mut b = ProgramBuilder::new(2);
        b.compute(0, 10e-6);
        b.put_notify(0, 1, 1 << 20, 0);
        b.wait_notify(1, &[0]);
        b.build()
    }

    #[test]
    fn neutral_scenario_reproduces_homogeneous_timings() {
        let plain = engine(2, 1);
        let with_neutral = engine(2, 1).with_scenario(Scenario::new(7));
        let p = two_rank_put_wait();
        assert_eq!(plain.makespan(&p).unwrap(), with_neutral.makespan(&p).unwrap());
        let r = with_neutral.run(&p).unwrap();
        assert_eq!(r.ranks[0].compute_scale, 1.0);
    }

    #[test]
    fn straggler_scenario_slows_compute_and_reports_scale() {
        let slowdown = 5.0;
        // Every node a straggler: deterministic regardless of which are picked.
        let e = engine(2, 1).with_scenario(Scenario::new(3).with_stragglers(1.0, slowdown));
        let p = two_rank_put_wait();
        let fast = engine(2, 1).run(&p).unwrap();
        let slow = e.run(&p).unwrap();
        assert!((slow.ranks[0].compute_time - slowdown * fast.ranks[0].compute_time).abs() < 1e-12);
        assert_eq!(slow.ranks[0].compute_scale, slowdown);
        assert!(slow.makespan() > fast.makespan());
    }

    #[test]
    fn scenario_runs_are_deterministic_per_seed() {
        let p = two_rank_put_wait();
        let s = Scenario::new(11).with_compute_jitter(0.3).with_link_jitter(0.2, 0.2).with_stragglers(0.5, 3.0);
        let r1 = engine(2, 1).with_scenario(s.clone()).run(&p).unwrap();
        let r2 = engine(2, 1).with_scenario(s).run(&p).unwrap();
        assert_eq!(r1.ranks, r2.ranks);
    }

    #[test]
    fn link_jitter_changes_transfer_times() {
        let p = two_rank_put_wait();
        let base = engine(2, 1).makespan(&p).unwrap();
        // Find a seed whose jitter actually moves this link (almost any does).
        let jittered = engine(2, 1).with_scenario(Scenario::new(1).with_link_jitter(0.4, 0.4)).makespan(&p).unwrap();
        assert!((jittered - base).abs() > 1e-12, "link jitter must perturb the makespan");
    }

    #[test]
    fn invalid_scenario_is_rejected() {
        let e = engine(2, 1).with_scenario(Scenario::new(0).with_stragglers(0.5, 0.1));
        let err = e.run(&two_rank_put_wait()).unwrap_err();
        assert!(matches!(err, SimError::BadScenario(_)));
    }

    // -- network fabric -----------------------------------------------------

    fn fabric_engine(nodes: usize, ppn: usize, topology: Topology) -> Engine {
        Engine::new(ClusterSpec::homogeneous(nodes, ppn), CostModel::test_model()).with_topology(topology)
    }

    /// Every rank puts `bytes` to `dst` and `dst` waits for all of them.
    fn incast_program(ranks: usize, dst: RankId, bytes: u64) -> Program {
        let mut b = ProgramBuilder::new(ranks);
        let mut ids = Vec::new();
        for r in 0..ranks {
            if r != dst {
                b.put_notify(r, dst, bytes, r as u32);
                ids.push(r as u32);
            }
        }
        b.wait_notify(dst, &ids);
        b.build()
    }

    #[test]
    fn contention_free_topology_reproduces_alpha_beta_exactly() {
        let p = incast_program(4, 3, 1 << 20);
        let plain = engine(4, 1).run(&p).unwrap();
        let degenerate = engine(4, 1).with_topology(Topology::contention_free(4)).run(&p).unwrap();
        assert_eq!(plain.ranks, degenerate.ranks, "the degenerate fabric is the alpha-beta model");
        assert!(degenerate.links.is_empty(), "no shared links, no link stats");
    }

    #[test]
    fn incast_contends_on_the_receiver_downlink() {
        // 7 senders into one receiver: on the fabric they share the
        // receiver's access link, so the last delivery lands no earlier than
        // the serialized sum; a disjoint put pattern runs in parallel.
        let bytes = 1u64 << 20;
        let cost = CostModel::test_model();
        let nic = 1.0 / cost.beta_inter;
        let incast = fabric_engine(8, 1, Topology::single_switch(8, nic));
        let r = incast.run(&incast_program(8, 7, bytes)).unwrap();
        let serialized = 7.0 * bytes as f64 * cost.beta_inter;
        assert!(
            r.makespan() >= serialized,
            "7 x 1 MiB through one downlink needs >= {serialized}, got {}",
            r.makespan()
        );
        // The receiver's downlink saturates; the report says so.
        assert!(r.max_link_utilization() > 0.5);
        assert!(r.total_congestion_time() > 0.0);
        assert!(r.congested_links() >= 1);

        // Pairwise shifted puts (rank r -> r+4) never share a link.
        let mut b = ProgramBuilder::new(8);
        for r in 0..4usize {
            b.put_notify(r, r + 4, bytes, 0);
            b.wait_notify(r + 4, &[0]);
        }
        let parallel = incast.run(&b.build()).unwrap();
        assert!(
            parallel.makespan() < r.makespan() / 3.0,
            "disjoint flows must run concurrently: {} vs incast {}",
            parallel.makespan(),
            r.makespan()
        );
    }

    #[test]
    fn oversubscribed_uplinks_slow_cross_leaf_traffic_only() {
        let bytes = 1u64 << 20;
        let cost = CostModel::test_model();
        let nic = 1.0 / cost.beta_inter;
        // 8 nodes in two leaves of 4; every node of leaf 0 puts to its
        // counterpart in leaf 1 (all flows cross the core).
        let mut b = ProgramBuilder::new(8);
        for r in 0..4usize {
            b.put_notify(r, r + 4, bytes, 0);
            b.wait_notify(r + 4, &[0]);
        }
        let cross = b.build();
        let t_full = fabric_engine(8, 1, Topology::fat_tree(8, 4, 1.0, nic)).makespan(&cross).unwrap();
        let t_over = fabric_engine(8, 1, Topology::fat_tree(8, 4, 4.0, nic)).makespan(&cross).unwrap();
        assert!(
            t_over > 3.0 * t_full,
            "a 4:1 taper must throttle four concurrent cross-leaf flows: 1:1 {t_full} vs 4:1 {t_over}"
        );
        // Intra-leaf neighbor traffic never touches the core: oblivious.
        let mut b = ProgramBuilder::new(8);
        for leaf in [0usize, 4] {
            for i in 0..3 {
                b.put_notify(leaf + i, leaf + i + 1, bytes, 0);
                b.wait_notify(leaf + i + 1, &[0]);
            }
        }
        let near = b.build();
        let n_full = fabric_engine(8, 1, Topology::fat_tree(8, 4, 1.0, nic)).makespan(&near).unwrap();
        let n_over = fabric_engine(8, 1, Topology::fat_tree(8, 4, 4.0, nic)).makespan(&near).unwrap();
        assert!((n_full - n_over).abs() < 1e-12, "intra-leaf traffic must not see the taper");
    }

    #[test]
    fn fabric_puts_pipeline_through_the_injection_queue() {
        // One sender, two destinations: the sender's DMAs go out one at a
        // time, so the second delivery is one transfer later — and
        // WaitAllSends still accounts both.
        let cost = CostModel::test_model();
        let nic = 1.0 / cost.beta_inter;
        let e = fabric_engine(3, 1, Topology::single_switch(3, nic));
        let bytes = 1u64 << 20;
        let mut b = ProgramBuilder::new(3);
        b.put_notify(0, 1, bytes, 0);
        b.put_notify(0, 2, bytes, 0);
        b.wait_all_sends(0);
        b.wait_notify(1, &[0]);
        b.wait_notify(2, &[0]);
        let r = e.run(&b.build()).unwrap();
        let ser = bytes as f64 * cost.beta_inter;
        assert!((r.finish_time(2) - r.finish_time(1)) >= 0.9 * ser, "second DMA launches after the first");
        assert!(r.finish_time(0) >= 2.0 * ser, "WaitAllSends covers both transfers");
        assert_eq!(r.ranks[0].messages_sent, 2);
    }

    #[test]
    fn fabric_handles_two_sided_and_barrier_programs() {
        let cost = CostModel::test_model();
        let nic = 1.0 / cost.beta_inter;
        let e = fabric_engine(4, 1, Topology::single_switch(4, nic));
        let mut b = ProgramBuilder::new(4);
        b.send(0, 1, 4 << 20, 1); // rendezvous (above the 1 KiB test threshold)
        b.recv(1, 0, 4 << 20, 1);
        b.send(2, 3, 256, 2); // eager
        b.recv(3, 2, 256, 2);
        b.barrier_all();
        let r = e.run(&b.build()).unwrap();
        assert!(r.makespan() > 0.0);
        assert_eq!(r.ranks[1].bytes_received, 4 << 20);
        assert_eq!(r.ranks[3].bytes_received, 256);
        // The rendezvous transfer still waits for the late receiver.
        let mut late = ProgramBuilder::new(4);
        late.send(0, 1, 4 << 20, 1);
        late.compute(1, 50e-6);
        late.recv(1, 0, 4 << 20, 1);
        late.barrier_all();
        let lr = e.run(&late.build()).unwrap();
        assert!(lr.finish_time(0) > 50e-6, "rendezvous sender is coupled to the receive post");
    }

    #[test]
    fn fabric_runs_are_deterministic() {
        let cost = CostModel::test_model();
        let nic = 1.0 / cost.beta_inter;
        let p = incast_program(8, 0, 1 << 18);
        let s = Scenario::new(11).with_link_jitter(0.2, 0.2);
        let mk = || fabric_engine(8, 1, Topology::fat_tree(8, 4, 2.0, nic)).with_scenario(s.clone()).run(&p).unwrap();
        let a = mk();
        let b = mk();
        assert_eq!(a, b, "same seed and topology must reproduce the identical report");
        assert!(!a.links.is_empty());
    }

    #[test]
    fn mismatched_topology_is_rejected() {
        let e = engine(4, 1).with_topology(Topology::single_switch(8, 1e9));
        let err = e.run(&incast_program(4, 0, 1024)).unwrap_err();
        assert!(matches!(err, SimError::BadTopology(_)));
        let e = engine(4, 1).with_topology(Topology::contention_free(8));
        let err = e.run(&incast_program(4, 0, 1024)).unwrap_err();
        assert!(matches!(err, SimError::BadTopology(_)));
    }

    // -- scheduler, dataflow fast path and sharded execution ----------------

    /// Shifted ring: every round, rank `r` puts to `r + 1` and waits for the
    /// round's notification from `r - 1`.  Each destination has exactly one
    /// writer, so the program qualifies for the dataflow fast path.
    fn ring_rounds_program(p: usize, rounds: usize, bytes: u64) -> Program {
        let mut b = ProgramBuilder::new(p);
        for k in 0..rounds {
            for r in 0..p {
                b.reduce(r, bytes);
                b.put_notify(r, (r + 1) % p, bytes, k as u32);
            }
            for r in 0..p {
                b.wait_notify(r, &[k as u32]);
            }
        }
        b.build()
    }

    /// Shifted all-to-all: rank `r` puts to every other rank (notification id
    /// = source rank), then waits for all `p - 1` incoming notifications.
    /// Every destination has `p - 1` writers — multi-writer, so the engine
    /// must fall back to the strict event loop even when shards are requested.
    fn alltoall_program(p: usize, bytes: u64) -> Program {
        let mut b = ProgramBuilder::new(p);
        for r in 0..p {
            for shift in 1..p {
                b.put_notify(r, (r + shift) % p, bytes, r as u32);
            }
        }
        for r in 0..p {
            let ids: Vec<u32> = (0..p as u32).filter(|&i| i != r as u32).collect();
            b.wait_notify(r, &ids);
        }
        b.build()
    }

    #[test]
    fn dataflow_fast_path_matches_the_strict_engine() {
        let p = ring_rounds_program(16, 5, 4096);
        let fast = engine(16, 1).run(&p).unwrap();
        let strict = engine(16, 1).with_scheduler(SchedulerKind::BinaryHeap).run(&p).unwrap();
        assert_eq!(fast.ranks, strict.ranks, "burst execution must reproduce the event loop's accounting");
    }

    #[test]
    fn dataflow_fast_path_matches_strict_under_scenario_perturbations() {
        let p = ring_rounds_program(8, 3, 1 << 16);
        let s = Scenario::new(13).with_compute_jitter(0.3).with_link_jitter(0.2, 0.2).with_stragglers(0.25, 3.0);
        let fast = engine(8, 1).with_scenario(s.clone()).run(&p).unwrap();
        let strict = engine(8, 1).with_scenario(s).with_scheduler(SchedulerKind::BinaryHeap).run(&p).unwrap();
        assert_eq!(fast.ranks, strict.ranks);
        assert!(fast.max_compute_scale() > 1.0, "the straggler scenario must actually perturb the run");
    }

    #[test]
    fn sharded_dataflow_is_bit_identical_across_shard_counts() {
        let p = ring_rounds_program(64, 4, 2048);
        let baseline = engine(64, 1).with_shards(1).run(&p).unwrap();
        for shards in [2usize, 3, 8, 64] {
            let r = engine(64, 1).with_shards(shards).run(&p).unwrap();
            assert_eq!(
                r.fingerprint(),
                baseline.fingerprint(),
                "shards={shards} must reproduce the serial fingerprint"
            );
            assert_eq!(r.ranks, baseline.ranks);
        }
    }

    #[test]
    fn strict_fallback_is_bit_identical_across_shard_counts_on_alltoall() {
        // Satellite: p = 256 all-to-all is multi-writer, so every shard count
        // takes the strict event loop; the tie-break key (time, rank, seq)
        // makes the replay byte-identical regardless of the requested shards.
        let p = alltoall_program(256, 256);
        let baseline = engine(256, 1).with_shards(1).run(&p).unwrap();
        for shards in [2usize, 8] {
            let r = engine(256, 1).with_shards(shards).run(&p).unwrap();
            assert_eq!(r.fingerprint(), baseline.fingerprint(), "shards={shards}");
        }
        assert_eq!(baseline.total_notifications_consumed(), 256 * 255);
    }

    #[test]
    fn sharded_alltoall_matches_both_schedulers() {
        let p = alltoall_program(32, 512);
        let cal = engine(32, 1).run(&p).unwrap();
        let heap = engine(32, 1).with_scheduler(SchedulerKind::BinaryHeap).run(&p).unwrap();
        assert_eq!(cal, heap, "calendar queue and binary heap must order events identically");
    }

    #[test]
    fn calendar_and_heap_agree_on_two_sided_barrier_fabric_programs() {
        let cost = CostModel::test_model();
        let nic = 1.0 / cost.beta_inter;
        let mut b = ProgramBuilder::new(4);
        b.send(0, 1, 4 << 20, 1); // rendezvous
        b.recv(1, 0, 4 << 20, 1);
        b.send(2, 3, 256, 2); // eager
        b.recv(3, 2, 256, 2);
        b.barrier_all();
        b.put_notify(0, 3, 1 << 18, 9);
        b.wait_notify(3, &[9]);
        let p = b.build();
        let mk =
            |s: SchedulerKind| fabric_engine(4, 1, Topology::single_switch(4, nic)).with_scheduler(s).run(&p).unwrap();
        let cal = mk(SchedulerKind::CalendarQueue);
        let heap = mk(SchedulerKind::BinaryHeap);
        assert_eq!(cal, heap);
        assert!(!cal.links.is_empty());
    }

    #[test]
    fn wait_any_partial_consumption_is_shard_invariant() {
        // WaitNotifyAny with count < ids.len() is the consume-order-sensitive
        // case: which ids survive for the later wait depends on how arrivals
        // interleave with the wait.  The dataflow wait protocol partitions
        // arrivals by *virtual* time, so every shard count — and the strict
        // engine — must agree on the consumed-id multiset.
        // Incremental case: rank 1 parks *before* any arrival, so each
        // arrival is checked one at a time.  The any-wait must consume only
        // id 0 (first available in listed order), leaving 1 and 2 for the
        // later waits.
        let mut b = ProgramBuilder::new(2);
        b.put_notify(0, 1, 4096, 0);
        b.compute(0, 5e-6);
        b.put_notify(0, 1, 4096, 1);
        b.compute(0, 5e-6);
        b.put_notify(0, 1, 2048, 2);
        b.wait_notify_any(1, &[2, 0, 1], 1);
        b.wait_notify(1, &[1]);
        b.wait_notify(1, &[2]);
        let incremental = b.build();
        // Batched case: rank 1 blocks *after* every arrival has landed, so
        // the whole backlog is applied before one consume check, which must
        // take ids 2 and 0 (listed order) and leave 1.
        let mut b = ProgramBuilder::new(2);
        b.put_notify(0, 1, 4096, 0);
        b.compute(0, 5e-6);
        b.put_notify(0, 1, 4096, 1);
        b.compute(0, 5e-6);
        b.put_notify(0, 1, 2048, 2);
        b.compute(1, 500e-6);
        b.wait_notify_any(1, &[2, 0, 1], 2);
        b.wait_notify(1, &[1]);
        let batched = b.build();
        for p in [&incremental, &batched] {
            let strict = engine(2, 1).with_scheduler(SchedulerKind::BinaryHeap).run(p).unwrap();
            assert_eq!(strict.ranks[1].notifications_consumed, 3);
            for shards in [1usize, 2] {
                let r = engine(2, 1).with_shards(shards).run(p).unwrap();
                assert_eq!(r.ranks, strict.ranks, "shards={shards}");
            }
        }
    }

    #[test]
    fn sharded_dataflow_reports_deadlock() {
        let mut b = ProgramBuilder::new(8);
        b.put_notify(0, 1, 64, 0);
        b.wait_notify(1, &[0]);
        b.wait_notify(5, &[3]); // nobody ever notifies id 3
        let err = engine(8, 1).with_shards(4).run(&b.build()).unwrap_err();
        match err {
            SimError::Deadlock { blocked } => {
                assert_eq!(blocked.len(), 1);
                assert_eq!(blocked[0].0, 5);
                assert!(blocked[0].2.contains("notifications [3]"), "got: {}", blocked[0].2);
            }
            other => panic!("expected deadlock, got {other:?}"),
        }
    }

    #[test]
    fn shard_count_beyond_rank_count_is_clamped() {
        let p = ring_rounds_program(4, 2, 1024);
        let a = engine(4, 1).with_shards(1).run(&p).unwrap();
        let b = engine(4, 1).with_shards(64).run(&p).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn traced_dataflow_run_emits_the_strict_trace() {
        // Satellite regression: the burst path used to return an empty
        // trace, so tracing silently forced the slow strict path.  A traced
        // eligible run must stay on the dataflow path AND produce the exact
        // event stream the strict engine emits.
        let p = ring_rounds_program(8, 2, 4096);
        let fast = engine(8, 1).run(&p).unwrap();
        let traced = engine(8, 1).with_trace(true).run(&p).unwrap();
        assert!(!traced.trace.is_empty(), "burst path must emit trace events");
        assert!(traced.metrics.dataflow_burst_ops > 0, "tracing must not evict the run from the dataflow path");
        assert_eq!(fast.ranks, traced.ranks, "tracing must not change the timings");
        let strict = engine(8, 1).with_scheduler(SchedulerKind::BinaryHeap).with_trace(true).run(&p).unwrap();
        assert_eq!(strict.metrics.dataflow_burst_ops, 0);
        assert_eq!(traced.trace, strict.trace, "burst-path trace must match the strict engine event-for-event");
    }

    #[test]
    fn sharded_trace_matches_the_single_shard_trace() {
        let p = ring_rounds_program(12, 3, 2048);
        let one = engine(12, 1).with_trace(true).with_shards(1).run(&p).unwrap();
        let four = engine(12, 1).with_trace(true).with_shards(4).run(&p).unwrap();
        assert!(!one.trace.is_empty());
        assert_eq!(one.trace, four.trace, "the (time, rank, seq) merge must be shard-count independent");
        assert_eq!(one.ranks, four.ranks);
    }

    #[test]
    fn block_trace_events_pair_on_the_same_op_index() {
        // Satellite: BlockEnd must carry the op index of the *blocking* op
        // (the one BlockStart was emitted for), not whatever the program
        // counter points at after the unblock bumped it.
        let e = engine(2, 1).with_trace(true);
        let mut b = ProgramBuilder::new(2);
        b.put_notify(0, 1, 128, 0);
        b.send(0, 1, 4096, 1); // rendezvous: blocks until the recv below
        b.compute(1, 25e-6);
        b.wait_notify(1, &[0]);
        b.recv(1, 0, 4096, 1);
        b.barrier_all();
        let r = e.run(&b.build()).unwrap();
        let mut open: Vec<(RankId, usize)> = Vec::new();
        let mut pairs = 0usize;
        for ev in &r.trace {
            match ev.kind {
                TraceKind::BlockStart => {
                    open.push((ev.rank, ev.op_index.expect("BlockStart carries an op index")));
                }
                TraceKind::BlockEnd => {
                    let key = (ev.rank, ev.op_index.expect("BlockEnd carries an op index"));
                    let pos = open
                        .iter()
                        .rposition(|k| *k == key)
                        .unwrap_or_else(|| panic!("BlockEnd for {key:?} without a matching BlockStart"));
                    open.remove(pos);
                    pairs += 1;
                }
                _ => {}
            }
        }
        assert!(open.is_empty(), "unmatched BlockStart events: {open:?}");
        assert!(pairs >= 3, "expected blocking waits on both ranks, saw {pairs} pairs");
    }

    // -- time-ordering tolerance (monotonicity guard) -----------------------

    #[test]
    fn backstep_tolerance_scales_with_the_clock() {
        // One f64 ulp near `now` is about `now * EPSILON`.  At a makespan of
        // 1e5 s that is ~1.5e-11 — far beyond the old absolute 1e-15 guard,
        // which made the debug assertion a time bomb for long simulations.
        for now in [1.0f64, 1e3, 1e5, 1e8] {
            let ulp = now * f64::EPSILON;
            assert!(ulp > 1e-15 || now <= 1.0, "the old absolute epsilon under-covers now={now}");
            assert!(time_backstep_tolerance(now) > ulp, "relative tolerance must absorb one rounding ulp at now={now}");
        }
        // Near zero the tolerance bottoms out at 1e-12, never at 0.
        assert!(time_backstep_tolerance(0.0) >= 1e-12);
        assert!(time_backstep_tolerance(-5.0) > 0.0);
    }

    #[test]
    fn large_makespan_fabric_program_completes() {
        // Regression for the monotonicity guard: push the virtual clock to
        // ~2.5e5 s with compute, then run a jittered incast through the
        // fabric.  Flow-completion roundtrips at this magnitude produce
        // rounding backsteps far above 1e-15; the relative tolerance must
        // absorb them (the old absolute guard tripped in debug builds).
        let cost = CostModel::test_model();
        let nic = 1.0 / cost.beta_inter;
        let e = fabric_engine(8, 1, Topology::fat_tree(8, 4, 2.0, nic))
            .with_scenario(Scenario::new(3).with_link_jitter(0.2, 0.2));
        let mut b = ProgramBuilder::new(8);
        for r in 0..8 {
            b.compute(r, 2.5e5);
        }
        for r in 1..8usize {
            b.put_notify(r, 0, 1 << 18, r as u32);
        }
        b.wait_notify(0, &(1..8).collect::<Vec<u32>>());
        let r = e.run(&b.build()).unwrap();
        assert!(r.makespan() > 2.5e5);
        assert_eq!(r.ranks[0].notifications_consumed, 7);
    }

    // -- local-op fusion against the unfused reference stepping -------------

    /// Run `program` on the strict loop (never the dataflow path) with the
    /// fused or the reference stepping; returns the report and the number of
    /// local ops that were fused.
    fn strict_run(
        engine: &Engine,
        topology: Option<&Topology>,
        program: &CompiledProgram,
        unfused: bool,
    ) -> (RunReport, u64) {
        let instance = engine.scenario.as_ref().map(|s| s.materialize(&engine.cluster));
        let fabric = topology.map(|t| NetSim::Flow(Box::new(Fabric::new(t.clone()).unwrap())));
        let mut sim = Sim::new(
            &engine.cluster,
            &engine.cost,
            program,
            engine.tracing,
            engine.filter,
            instance,
            fabric,
            engine.scheduler,
        );
        if unfused {
            // The reference stepping, a `Resume` per op: with a send parked
            // that no receive ever releases, no rank ever fuses.
            sim.ranks.iter_mut().for_each(|r| r.parked_sends = 1 << 31);
        }
        FUSED_OPS.set(0);
        let report = sim.run().expect("generated programs are deadlock-free");
        (report, FUSED_OPS.get())
    }

    /// A receiver-side op whose emission the generator postpones.
    enum Deferred {
        Wait(NotifyId),
        Recv { src: RankId, bytes: u64, tag: Tag },
    }

    /// A random valid program over `p` ranks.  Ops are appended in a global
    /// order in which every blocking op depends only on ops appended before
    /// it, so executing them in that order is a deadlock-free schedule.
    /// Local ops (zero-duration computes among them) go between every kind
    /// of op; receiver-side waits and receives are postponed at random, so
    /// arrivals pile up unconsumed, destinations have several writers and
    /// rendezvous sends stay parked at their receivers across local ops.
    fn random_program(rng: &mut TestRng, p: usize) -> Program {
        let mut pick = move |n: usize| (rng.next_u64() % n as u64) as usize;
        let mut b = ProgramBuilder::new(p);
        let mut deferred: Vec<(RankId, Deferred)> = Vec::new();
        // Non-blocking sends of a rank whose receive is still postponed.
        let mut unreceived = vec![0usize; p];
        fn local(b: &mut ProgramBuilder, r: RankId, pick: &mut impl FnMut(usize) -> usize) {
            for _ in 0..pick(3) {
                match pick(3) {
                    0 => b.compute(r, [0.0, 2.37e-7, 3.1e-6][pick(3)]),
                    1 => b.reduce(r, [72, 50_001][pick(2)]),
                    _ => b.copy(r, [0, 4099][pick(2)]),
                };
            }
        }
        fn emit(b: &mut ProgramBuilder, unreceived: &mut [usize], rank: RankId, op: Deferred) {
            match op {
                Deferred::Wait(id) => b.wait_notify(rank, &[id]),
                Deferred::Recv { src, bytes, tag } => {
                    unreceived[src] -= 1;
                    b.recv(rank, src, bytes, tag)
                }
            };
        }
        for r in 0..p {
            local(&mut b, r, &mut pick);
        }
        for _ in 0..20 + pick(60) {
            let src = pick(p);
            let dst = (src + 1 + pick(p - 1)) % p;
            match pick(9) {
                0 => local(&mut b, src, &mut pick),
                1 | 2 => {
                    let id = pick(3) as NotifyId;
                    b.put_notify(src, dst, [64, 4096, 200_000][pick(3)], id);
                    deferred.push((dst, Deferred::Wait(id)));
                }
                3 => {
                    let id = pick(3) as NotifyId;
                    b.notify(src, dst, id);
                    deferred.push((dst, Deferred::Wait(id)));
                }
                4 | 5 => {
                    // Eager and rendezvous sizes around the 1 KiB threshold.
                    let (bytes, tag) = ([0, 256, 1024, 1025, 100_000][pick(5)], pick(2) as Tag);
                    b.isend(src, dst, bytes, tag);
                    unreceived[src] += 1;
                    deferred.push((dst, Deferred::Recv { src, bytes, tag }));
                }
                6 => {
                    // A blocking send is received at once, on tags of its
                    // own: the sender must not wait on a postponed op.
                    let bytes = [256, 100_000][pick(2)];
                    b.send(src, dst, bytes, 100);
                    local(&mut b, src, &mut pick);
                    b.recv(dst, src, bytes, 100);
                    local(&mut b, dst, &mut pick);
                }
                7 => {
                    for _ in 0..pick(4).min(deferred.len()) {
                        let (rank, op) = deferred.swap_remove(pick(deferred.len()));
                        emit(&mut b, &mut unreceived, rank, op);
                        local(&mut b, rank, &mut pick);
                    }
                }
                _ if pick(3) == 0 => {
                    b.barrier_all();
                }
                _ if unreceived[src] == 0 => {
                    b.wait_all_sends(src);
                }
                _ => {}
            }
            local(&mut b, src, &mut pick);
        }
        for (rank, op) in deferred {
            emit(&mut b, &mut unreceived, rank, op);
            local(&mut b, rank, &mut pick);
        }
        for r in 0..p {
            b.wait_all_sends(r);
            local(&mut b, r, &mut pick);
        }
        b.build()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The fused strict loop against a `Resume` per op: same per-rank
        /// statistics, same link statistics, same canonical trace, and on
        /// alpha-beta exactly one event fewer per fused op.
        #[test]
        fn fused_stepping_matches_a_resume_per_op(seed in 0u64..u64::MAX, shape in 0usize..16) {
            let (ppn, on_fabric, jittered, heap) = (1 + 3 * (shape & 1), shape & 2 != 0, shape & 4 != 0, shape & 8 != 0);
            let mut rng = TestRng::seed_from_u64(seed);
            let nodes = 2 + (rng.next_u64() % 4) as usize;
            let program = random_program(&mut rng, nodes * ppn);
            let local_ops = program
                .ranks
                .iter()
                .flat_map(|r| &r.ops)
                .filter(|op| matches!(op, Op::Compute { .. } | Op::Reduce { .. } | Op::Copy { .. }))
                .count() as u64;
            let compiled = program.compile().unwrap();
            let mut e = engine(nodes, ppn)
                .with_trace(true)
                .with_scheduler(if heap { SchedulerKind::BinaryHeap } else { SchedulerKind::CalendarQueue });
            if jittered {
                e = e.with_scenario(Scenario::new(seed).with_compute_jitter(0.2).with_link_jitter(0.1, 0.1));
            }
            let topology = on_fabric.then(|| Topology::single_switch(nodes, 1e9));
            let (fused, fused_ops) = strict_run(&e, topology.as_ref(), &compiled, false);
            let (reference, none) = strict_run(&e, topology.as_ref(), &compiled, true);
            prop_assert_eq!(none, 0);
            prop_assert!(fused_ops <= local_ops);
            prop_assert_eq!(fused.fingerprint(), reference.fingerprint());
            prop_assert_eq!(&fused.ranks, &reference.ranks);
            prop_assert_eq!(&fused.links, &reference.links);
            prop_assert!(fused.trace.iter().eq(reference.trace.iter()), "canonical traces differ");
            let saved = reference.metrics.events_scheduled - fused.metrics.events_scheduled;
            if on_fabric {
                // Fewer `Resume`s between equal-time launches batch more
                // solves, and each solve skipped is a tick not pushed.
                prop_assert!(saved >= fused_ops);
                prop_assert!(fused.metrics.fabric_solves <= reference.metrics.fabric_solves);
            } else {
                prop_assert_eq!(saved, fused_ops);
            }
        }
    }
}

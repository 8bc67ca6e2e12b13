//! Dataflow fast path for one-sided, single-writer programs.
//!
//! The strict event loop in [`crate::engine`] spends most of its time on
//! queue maintenance: every non-local operation of every rank round-trips
//! through the global event queue (a `Resume` per put, send, receive, wait
//! or barrier, plus a `NotifyVisible` per put; only local ops run inline).
//! For the programs the paper's collectives actually generate that machinery
//! is unnecessary, because their outcome is *order-independent*:
//!
//! * **one-sided only** — no two-sided matching, no rendezvous coupling, no
//!   barriers: a rank's timeline depends only on its own ops and on the
//!   notification arrivals it waits for;
//! * **single writer** — every destination rank receives puts/notifies from
//!   at most one source rank, so its arrival stream is FIFO in both issue
//!   order and visible time (the writer's NIC serializes its own transfers);
//! * **one rank per node** — the per-node NIC cursors (`tx_free`,
//!   `rx_free`) are touched by exactly one rank (sender side) or exactly one
//!   writer (receiver side), never shared.
//!
//! Under these conditions each rank's op chain can *burst-execute*: local
//! ops advance the rank's clock inline, puts compute their full wire timing
//! immediately (`engine::wire_timing`, the function the strict loop calls)
//! and append the arrival to the destination's FIFO, and notification waits
//! drain that FIFO by visible time.  No global event queue, no heap
//! traffic — the scheduler cost per op drops to a few arithmetic ops.
//!
//! One executor runs every rank on the calling thread, in worklist order.
//! That order never reaches the results: a destination's FIFO only ever
//! receives from its single writer, so its content is the writer's program
//! order, and every wait resolves to virtual times computed from the FIFO
//! content alone.
//!
//! ## The tie rule
//!
//! A wait executed at local time `t` treats arrivals with `visible <= t` as
//! already processed (the strict engine would have handled those
//! `NotifyVisible` events before the wait's `Resume`), and resolves against
//! later arrivals one at a time exactly like the strict `on_notify` path.
//! The one knowingly tolerated divergence from the strict engine is the
//! measure-zero tie `visible == t`, where the strict result depends on
//! event insertion order; the fast path deterministically counts the
//! arrival as present.  Makespans agree either way (both continue at
//! `t + notify_overhead`); only the wait-time attribution of the tied
//! arrival can differ by one `notify_overhead`.
//!
//! ## Trace parity
//!
//! When tracing is on, the burst path emits the *same* event stream as the
//! strict engine: per-op `OpStart`/`OpEnd`, `MsgInjected` at launch,
//! future-dated `NotifyVisible` arrivals with the exact queue/wire timing
//! decomposition, and `BlockStart`/`BlockEnd` pairs for waits that would
//! have blocked the strict engine.  Both paths record through one
//! [`Recorder`], which mints every sequence number and flow id; a
//! destination's arrivals are numbered in its single writer's program order,
//! the order the strict engine schedules them.  Every per-rank stream is
//! recorded in time order, so the [`Trace`](crate::Trace) reproduces the
//! strict trace event-for-event without sorting anything.

use std::collections::VecDeque;

use crate::cluster::{ClusterSpec, RankId};
use crate::compiled::{CompiledProgram, IdsRef, OpView};
use crate::cost::CostModel;
use crate::engine::{describe_wait, finish_run, local_op_time, wire_timing, Nics, NotifyTable, SimError};
use crate::metrics::EngineMetrics;
use crate::program::NotifyId;
use crate::report::{RankStats, RunReport};
use crate::scenario::ScenarioInstance;
use crate::trace::{BlockReason, MsgLabel, Recorder, TraceDetail, TraceFilter, TraceKind};

/// Per-rank burst-execution state.
#[derive(Debug)]
struct DfRank {
    pc: usize,
    /// The rank's local virtual clock (monotone).
    clock: f64,
    done: bool,
    /// Parked in a notification wait at `ops[pc]`.
    blocked: bool,
    blocked_since: f64,
    /// Already on the worklist.
    queued: bool,
    /// Unapplied arrivals, FIFO in visible time (single writer).
    fifo: VecDeque<(f64, NotifyId)>,
    /// Earliest time this rank's injection path is free again.
    tx_free: f64,
    /// Completion time of the rank's latest transfer (for `WaitAllSends`).
    max_tx_done: f64,
    stats: RankStats,
}

impl DfRank {
    fn new(compute_scale: f64) -> Self {
        Self {
            pc: 0,
            clock: 0.0,
            done: false,
            blocked: false,
            blocked_since: 0.0,
            queued: true,
            fifo: VecDeque::new(),
            tx_free: 0.0,
            max_tx_done: 0.0,
            stats: RankStats { compute_scale, ..RankStats::default() },
        }
    }
}

/// Complete a satisfied wait: unpark, advance the clock and pc, account.
#[inline]
fn finish_wait(r: &mut DfRank, at: f64, waited: f64) {
    r.stats.wait_time += waited;
    r.clock = at;
    r.blocked = false;
    r.pc += 1;
    r.stats.finish_time = r.stats.finish_time.max(at);
}

/// How a notification wait resolved (drives trace emission: the strict
/// engine emits `OpEnd` for an immediately satisfied wait but a
/// `BlockStart`/`BlockEnd` pair for one that parked).
#[derive(Debug, Clone, Copy)]
enum WaitOutcome {
    /// Still unsatisfiable; the rank stays parked.
    Pending,
    /// Satisfied by arrivals visible at or before the wait started — the
    /// strict engine would not have blocked at all.
    Immediate { end: f64 },
    /// Satisfied by a later arrival — the strict engine blocked at `from`
    /// and unblocked at `end`.
    Waited { from: f64, end: f64 },
}

/// Try to satisfy the notification wait the rank is parked in.  Arrivals at
/// or before the wait's start time are batch-applied first (the strict
/// engine processed those before the wait executed, so no per-arrival
/// satisfaction check); later arrivals check satisfaction one at a time,
/// unblocking at `visible + notify_overhead` like the strict `on_notify`.
/// The split point is a *virtual* time, so the outcome is independent of
/// the order the worklist ran the writer and the waiter in.
// `always`: with the shared wait rule inlined into it this is too large for
// the inliner to place at `run_rank`'s three call sites by itself, and as a
// call it cost `ring_dataflow` 8 % wall (0 of 10 pairs won).
#[inline(always)]
fn try_finish_wait(
    r: &mut DfRank,
    notes: &mut NotifyTable,
    rank: RankId,
    ids: IdsRef<'_>,
    count: usize,
    notify_overhead: f64,
) -> WaitOutcome {
    let mut notes = notes.of(rank);
    let bs = r.blocked_since;
    while let Some(&(v, _)) = r.fifo.front() {
        if v > bs {
            break;
        }
        let (_, id) = r.fifo.pop_front().expect("front exists");
        notes.note_arrival(&mut r.stats, id);
    }
    if notes.consume(&mut r.stats, ids, count) {
        let end = bs + notify_overhead;
        finish_wait(r, end, 0.0);
        return WaitOutcome::Immediate { end };
    }
    while let Some((v, id)) = r.fifo.pop_front() {
        notes.note_arrival(&mut r.stats, id);
        if notes.consume(&mut r.stats, ids, count) {
            let end = v + notify_overhead;
            finish_wait(r, end, end - bs);
            return WaitOutcome::Waited { from: bs, end };
        }
    }
    WaitOutcome::Pending
}

/// The burst executor: every rank of the run, on the calling thread.
struct Burst<'a> {
    cluster: &'a ClusterSpec,
    cost: &'a CostModel,
    program: &'a CompiledProgram,
    scenario: Option<&'a ScenarioInstance>,
    ranks: Vec<DfRank>,
    notes: NotifyTable,
    /// Per-node NIC cursors.  With one rank per node and a single writer per
    /// destination, each entry is touched by one rank only.
    node_tx_free: Vec<f64>,
    node_rx_free: Vec<f64>,
    /// Ranks ready to execute.
    worklist: VecDeque<RankId>,
    rec: Recorder,
}

impl Burst<'_> {
    /// Emit the strict-engine-equivalent events for a wait outcome and
    /// report whether the wait resolved.  The `BlockStart` is emitted
    /// retroactively at resolution time — its virtual timestamp and sequence
    /// number are the same ones the strict engine assigns at block time,
    /// because a parked rank emits no own-channel events in between.
    // `always`: with its three trace calls inlined the inliner leaves it a
    // call at `run_rank`'s three wait sites, which an untraced run pays on
    // every wait.
    #[inline(always)]
    fn emit_wait(&mut self, rank: RankId, pc: usize, outcome: WaitOutcome) -> bool {
        match outcome {
            WaitOutcome::Pending => false,
            WaitOutcome::Immediate { end } => {
                self.rec.own(end, rank, TraceKind::OpEnd, Some(pc), TraceDetail::None);
                true
            }
            WaitOutcome::Waited { from, end } => {
                let detail = TraceDetail::Block { reason: BlockReason::Notify };
                self.rec.own(from, rank, TraceKind::BlockStart, Some(pc), detail);
                self.rec.own(end, rank, TraceKind::BlockEnd, Some(pc), detail);
                true
            }
        }
    }

    /// Append an arrival, visible at `visible` (delivery plus the
    /// notification overhead), to its destination's FIFO and wake the
    /// destination if it is parked in a wait.
    fn apply_arrival(&mut self, dst: RankId, visible: f64, notify: NotifyId, bytes: u64) {
        let r = &mut self.ranks[dst];
        r.stats.bytes_received += bytes;
        r.stats.messages_received += 1;
        r.fifo.push_back((visible, notify));
        if r.blocked && !r.queued {
            r.queued = true;
            self.worklist.push_back(dst);
        }
    }

    /// Run every runnable rank until no work is left.
    fn run_to_quiescence(&mut self) {
        while let Some(rank) = self.worklist.pop_front() {
            self.ranks[rank].queued = false;
            self.run_rank(rank);
        }
    }

    /// Burst-execute one rank until it parks in an unsatisfiable wait or
    /// finishes its program.
    fn run_rank(&mut self, rank: RankId) {
        let program = self.program;
        let view = program.rank_ops(rank);
        let notify_overhead = self.cost.notify_overhead;
        loop {
            let pc = self.ranks[rank].pc;
            if self.ranks[rank].blocked {
                let (ids, count) = parked_wait(view.op(pc));
                let outcome =
                    try_finish_wait(&mut self.ranks[rank], &mut self.notes, rank, ids, count, notify_overhead);
                if !self.emit_wait(rank, pc, outcome) {
                    return;
                }
                continue;
            }
            let r = &mut self.ranks[rank];
            if pc >= view.len() {
                r.done = true;
                r.stats.finish_time = r.stats.finish_time.max(r.clock);
                return;
            }
            let op = view.op(pc);
            let t = r.clock;
            self.rec.own(t, rank, TraceKind::OpStart, Some(pc), TraceDetail::Op { op: op.class() });
            match op {
                OpView::Compute { .. } | OpView::Reduce { .. } | OpView::Copy { .. } => {
                    let d = local_op_time(self.cost, op, r.stats.compute_scale).expect("a local op");
                    r.stats.compute_time += d;
                    r.clock += d;
                    r.pc += 1;
                    r.stats.finish_time = r.stats.finish_time.max(r.clock);
                    self.rec.own(r.clock, rank, TraceKind::OpEnd, Some(pc), TraceDetail::None);
                }
                OpView::PutNotify { dst, bytes, notify } => self.exec_put(rank, dst, bytes, notify, pc),
                OpView::Notify { dst, notify } => self.exec_put(rank, dst, 0, notify, pc),
                OpView::WaitNotify { ids } => {
                    r.blocked = true;
                    r.blocked_since = t;
                    let outcome = try_finish_wait(r, &mut self.notes, rank, ids, ids.len(), notify_overhead);
                    if !self.emit_wait(rank, pc, outcome) {
                        return;
                    }
                }
                OpView::WaitNotifyAny { ids, count } => {
                    r.blocked = true;
                    r.blocked_since = t;
                    let outcome = try_finish_wait(r, &mut self.notes, rank, ids, count, notify_overhead);
                    if !self.emit_wait(rank, pc, outcome) {
                        return;
                    }
                }
                OpView::WaitAllSends => {
                    // All transfer completion times are known at issue time;
                    // the strict engine's outstanding-send counter reduces
                    // to a max over them.
                    let tx = r.max_tx_done;
                    if tx > t {
                        r.stats.wait_time += tx - t;
                        r.clock = tx;
                    }
                    r.pc += 1;
                    r.stats.finish_time = r.stats.finish_time.max(r.clock);
                    if tx > t {
                        let detail = TraceDetail::Block { reason: BlockReason::AllSends };
                        self.rec.own(t, rank, TraceKind::BlockStart, Some(pc), detail);
                        self.rec.own(tx, rank, TraceKind::BlockEnd, Some(pc), detail);
                    } else {
                        self.rec.own(t, rank, TraceKind::OpEnd, Some(pc), TraceDetail::None);
                    }
                }
                _ => unreachable!("two-sided ops and barriers are gated out by eligibility"),
            }
        }
    }

    /// One-sided put (or zero-byte notify) over the alpha-beta wire.
    fn exec_put(&mut self, src: RankId, dst: RankId, bytes: u64, notify: NotifyId, pc: usize) {
        let cost = self.cost;
        let nodes = (self.cluster.node_of(src), self.cluster.node_of(dst));
        let beta = cost.beta_one_sided(nodes.0 == nodes.1);
        let r = &mut self.ranks[src];
        let launch = r.clock + cost.o_send;
        let nics = Nics { rank_tx: &mut r.tx_free, node_tx: &mut self.node_tx_free, node_rx: &mut self.node_rx_free };
        let w = wire_timing(cost, self.scenario, nodes, bytes, beta, launch, nics);
        r.stats.bytes_sent += bytes;
        r.stats.messages_sent += 1;
        r.max_tx_done = r.max_tx_done.max(w.tx_done);
        r.pc += 1;
        r.clock = launch;
        r.stats.finish_time = r.stats.finish_time.max(launch);
        let visible = w.delivered + cost.notify_overhead;
        // Same per-op order as the strict engine: OpStart (already emitted by
        // the caller), MsgInjected, OpEnd, plus the future-dated arrival on
        // the destination's channel.
        let label = MsgLabel::Notify(notify);
        let flow = self.rec.inject(launch, src, dst, bytes, label);
        self.rec.own(launch, src, TraceKind::OpEnd, Some(pc), TraceDetail::None);
        let detail = TraceDetail::Arrival { src, bytes, label, flow, inject: launch, queue: w.queue, wire: w.ser };
        self.rec.arrival(visible, dst, TraceKind::NotifyVisible, detail);
        self.apply_arrival(dst, visible, notify, bytes);
    }
}

/// The ids and quorum of the notification wait `op` a rank parks in.
fn parked_wait(op: OpView<'_>) -> (IdsRef<'_>, usize) {
    match op {
        OpView::WaitNotify { ids } => (ids, ids.len()),
        OpView::WaitNotifyAny { ids, count } => (ids, count),
        _ => unreachable!("only notification waits park a dataflow rank"),
    }
}

/// Execute an eligible program (see the module docs for the eligibility
/// rules, which [`crate::engine::Engine::run`] enforces).
pub(crate) fn run(
    cluster: &ClusterSpec,
    cost: &CostModel,
    program: &CompiledProgram,
    scenario: Option<&ScenarioInstance>,
    tracing: bool,
    filter: TraceFilter,
) -> Result<RunReport, SimError> {
    let n = program.num_ranks();
    let ranks = (0..n)
        .map(|r| {
            let scale = scenario.map_or(1.0, |s| s.compute_scale(cluster.node_of(r)));
            DfRank::new(scale)
        })
        .collect();
    let mut burst = Burst {
        cluster,
        cost,
        program,
        scenario,
        ranks,
        notes: NotifyTable::new(program.profile()),
        node_tx_free: vec![0.0; cluster.nodes],
        node_rx_free: vec![0.0; cluster.nodes],
        worklist: (0..n).collect(),
        rec: Recorder::new(tracing, filter, n),
    };
    burst.run_to_quiescence();
    let Burst { mut ranks, rec, .. } = burst;
    // Flush the arrivals nobody waited for: the strict engine still counts
    // their `NotifyVisible` events (only the received tally matters after
    // the run, not the counters).
    let mut stuck = Vec::new();
    for (rank, r) in ranks.iter_mut().enumerate() {
        r.stats.notifications_received += r.fifo.len() as u64;
        if !r.done {
            let (ids, count) = parked_wait(program.rank_ops(rank).op(r.pc));
            stuck.push((rank, r.pc, describe_wait(ids, count)));
        }
    }
    let metrics =
        EngineMetrics { dataflow_burst_ops: ranks.iter().map(|r| r.pc as u64).sum(), ..EngineMetrics::default() };
    finish_run(stuck, ranks.into_iter().map(|r| r.stats), Vec::new(), rec, metrics)
}

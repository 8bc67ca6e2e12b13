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
//! have blocked the strict engine.  Sequence numbers use the same two
//! channels (own events per rank, arrival events per destination minted by
//! the single writer), and every per-rank stream is recorded in time order,
//! so the [`Trace`] reproduces the strict trace event-for-event without
//! sorting anything.

use std::collections::VecDeque;

use crate::cluster::{ClusterSpec, RankId};
use crate::compiled::{CompiledProgram, IdsRef, OpView};
use crate::cost::CostModel;
use crate::engine::{consume_notifications, note_arrival, wire_timing, Nics, SimError};
use crate::metrics::EngineMetrics;
use crate::program::{CommProfile, NotifyId};
use crate::report::{RankStats, RunReport};
use crate::scenario::ScenarioInstance;
use crate::trace::{BlockReason, MsgLabel, Trace, TraceDetail, TraceEvent, TraceFilter, TraceKind, ARRIVAL_SEQ};

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
    compute_scale: f64,
    /// Own-event trace sequence counter (mirrors the strict engine's
    /// per-rank channel; advances even for filtered-out ranks).
    seq: u64,
    /// Trace flow-id counter for this rank's injections.
    flow_seq: u64,
    /// Arrival-channel sequence counter of this rank as a destination; minted
    /// in its single writer's program order, which is exactly the order the
    /// strict engine schedules the corresponding `NotifyVisible` events.
    arrival_seq: u64,
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
            compute_scale,
            seq: 0,
            flow_seq: 0,
            arrival_seq: 0,
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
    counts: &mut [u32],
    ids: IdsRef<'_>,
    count: usize,
    notify_overhead: f64,
) -> WaitOutcome {
    let bs = r.blocked_since;
    while let Some(&(v, _)) = r.fifo.front() {
        if v > bs {
            break;
        }
        let (_, id) = r.fifo.pop_front().expect("front exists");
        note_arrival(counts, &mut r.stats, id);
    }
    if consume_notifications(counts, &mut r.stats, ids, count) {
        let end = bs + notify_overhead;
        finish_wait(r, end, 0.0);
        return WaitOutcome::Immediate { end };
    }
    while let Some((v, id)) = r.fifo.pop_front() {
        note_arrival(counts, &mut r.stats, id);
        if consume_notifications(counts, &mut r.stats, ids, count) {
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
    /// Dense unconsumed-arrival counters, flattened into one allocation;
    /// rank `r`'s counters live at `counts[offs[r]..offs[r + 1]]` (as in the
    /// strict engine).
    counts: Vec<u32>,
    /// Per-rank prefix offsets into `counts` (length `p + 1`).
    offs: Vec<usize>,
    /// Per-node NIC cursors.  With one rank per node and a single writer per
    /// destination, each entry is touched by one rank only.
    node_tx_free: Vec<f64>,
    node_rx_free: Vec<f64>,
    /// Ranks ready to execute.
    worklist: VecDeque<RankId>,
    /// Emit trace events mirroring the strict engine's stream.
    tracing: bool,
    trace: Trace,
}

impl<'a> Burst<'a> {
    fn new(
        cluster: &'a ClusterSpec,
        cost: &'a CostModel,
        program: &'a CompiledProgram,
        scenario: Option<&'a ScenarioInstance>,
        profile: &CommProfile,
        tracing: bool,
        filter: TraceFilter,
    ) -> Self {
        let n = program.num_ranks();
        let ranks = (0..n)
            .map(|r| {
                let scale = scenario.map_or(1.0, |s| s.compute_scale(cluster.node_of(r)));
                DfRank::new(scale)
            })
            .collect();
        let mut offs = Vec::with_capacity(n + 1);
        let mut acc = 0usize;
        offs.push(0);
        for r in 0..n {
            acc += profile.notify_bounds[r];
            offs.push(acc);
        }
        Self {
            cluster,
            cost,
            program,
            scenario,
            ranks,
            counts: vec![0; acc],
            offs,
            node_tx_free: vec![0.0; cluster.nodes],
            node_rx_free: vec![0.0; cluster.nodes],
            worklist: (0..n).collect(),
            tracing,
            trace: if tracing { Trace::new(filter, n) } else { Trace::default() },
        }
    }

    /// Record an own-channel event for `rank`.  Identical numbering to the
    /// strict engine's `trace_own`: the counter advances even when the
    /// filter drops the rank, so a windowed trace is a strict subset of the
    /// full one.
    fn trace_own(&mut self, rank: RankId, time: f64, kind: TraceKind, op_index: Option<usize>, detail: TraceDetail) {
        if !self.tracing {
            return;
        }
        let r = &mut self.ranks[rank];
        let seq = r.seq;
        r.seq += 1;
        self.trace.record(TraceEvent::new(time, rank, kind, op_index, seq, detail));
    }

    /// Record a (future-dated) arrival-channel event for destination `dst`.
    fn trace_arrival(&mut self, time: f64, dst: RankId, kind: TraceKind, detail: TraceDetail) {
        if !self.tracing {
            return;
        }
        let c = &mut self.ranks[dst].arrival_seq;
        let seq = ARRIVAL_SEQ | *c;
        *c += 1;
        self.trace.record(TraceEvent::new(time, dst, kind, None, seq, detail));
    }

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
                self.trace_own(rank, end, TraceKind::OpEnd, Some(pc), TraceDetail::None);
                true
            }
            WaitOutcome::Waited { from, end } => {
                let detail = TraceDetail::Block { reason: BlockReason::Notify };
                self.trace_own(rank, from, TraceKind::BlockStart, Some(pc), detail);
                self.trace_own(rank, end, TraceKind::BlockEnd, Some(pc), detail);
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
        let (clo, chi) = (self.offs[rank], self.offs[rank + 1]);
        loop {
            if self.ranks[rank].blocked {
                let pc = self.ranks[rank].pc;
                let (ids, count) = match view.op(pc) {
                    OpView::WaitNotify { ids } => (ids, ids.len()),
                    OpView::WaitNotifyAny { ids, count } => (ids, count),
                    _ => unreachable!("only notification waits park a dataflow rank"),
                };
                let outcome =
                    try_finish_wait(&mut self.ranks[rank], &mut self.counts[clo..chi], ids, count, notify_overhead);
                if !self.emit_wait(rank, pc, outcome) {
                    return;
                }
                continue;
            }
            let pc = self.ranks[rank].pc;
            if pc >= view.len() {
                let r = &mut self.ranks[rank];
                r.done = true;
                r.stats.finish_time = r.stats.finish_time.max(r.clock);
                return;
            }
            let op = view.op(pc);
            if self.tracing {
                let t = self.ranks[rank].clock;
                self.trace_own(rank, t, TraceKind::OpStart, Some(pc), TraceDetail::Op { op: op.class() });
            }
            match op {
                OpView::Compute { seconds } => self.exec_local(rank, pc, seconds.max(0.0)),
                OpView::Reduce { bytes } => self.exec_local(rank, pc, self.cost.reduce_time(bytes)),
                OpView::Copy { bytes } => self.exec_local(rank, pc, self.cost.copy_time(bytes)),
                OpView::PutNotify { dst, bytes, notify } => self.exec_put(rank, dst, bytes, notify, pc),
                OpView::Notify { dst, notify } => self.exec_put(rank, dst, 0, notify, pc),
                OpView::WaitNotify { ids } => {
                    let r = &mut self.ranks[rank];
                    r.blocked = true;
                    r.blocked_since = r.clock;
                    let outcome = try_finish_wait(r, &mut self.counts[clo..chi], ids, ids.len(), notify_overhead);
                    if !self.emit_wait(rank, pc, outcome) {
                        return;
                    }
                }
                OpView::WaitNotifyAny { ids, count } => {
                    let r = &mut self.ranks[rank];
                    r.blocked = true;
                    r.blocked_since = r.clock;
                    let outcome = try_finish_wait(r, &mut self.counts[clo..chi], ids, count, notify_overhead);
                    if !self.emit_wait(rank, pc, outcome) {
                        return;
                    }
                }
                OpView::WaitAllSends => {
                    // All transfer completion times are known at issue time;
                    // the strict engine's outstanding-send counter reduces
                    // to a max over them.
                    let r = &mut self.ranks[rank];
                    let (t, tx) = (r.clock, r.max_tx_done);
                    if tx > t {
                        r.stats.wait_time += tx - t;
                        r.clock = tx;
                    }
                    r.pc += 1;
                    r.stats.finish_time = r.stats.finish_time.max(r.clock);
                    if tx > t {
                        let detail = TraceDetail::Block { reason: BlockReason::AllSends };
                        self.trace_own(rank, t, TraceKind::BlockStart, Some(pc), detail);
                        self.trace_own(rank, tx, TraceKind::BlockEnd, Some(pc), detail);
                    } else {
                        self.trace_own(rank, t, TraceKind::OpEnd, Some(pc), TraceDetail::None);
                    }
                }
                OpView::Send { .. } | OpView::Isend { .. } | OpView::Recv { .. } | OpView::Barrier => {
                    unreachable!("two-sided ops and barriers are gated out by eligibility")
                }
            }
        }
    }

    /// A purely local operation of nominal duration `d`, scaled by the
    /// rank's scenario compute factor.
    fn exec_local(&mut self, rank: RankId, pc: usize, d: f64) {
        let r = &mut self.ranks[rank];
        let d = d * r.compute_scale;
        r.stats.compute_time += d;
        r.clock += d;
        r.pc += 1;
        r.stats.finish_time = r.stats.finish_time.max(r.clock);
        let end = r.clock;
        self.trace_own(rank, end, TraceKind::OpEnd, Some(pc), TraceDetail::None);
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
        if self.tracing {
            let flow = ((src as u64) << 32) | r.flow_seq;
            r.flow_seq += 1;
            let label = MsgLabel::Notify(notify);
            // Same per-op order as the strict engine: OpStart (already
            // emitted by the caller), MsgInjected, OpEnd, plus the
            // future-dated arrival on the destination's channel.
            self.trace_own(src, launch, TraceKind::MsgInjected, None, TraceDetail::Inject { dst, bytes, label, flow });
            self.trace_own(src, launch, TraceKind::OpEnd, Some(pc), TraceDetail::None);
            self.trace_arrival(
                visible,
                dst,
                TraceKind::NotifyVisible,
                TraceDetail::Arrival { src, bytes, label, flow, inject: launch, queue: w.queue, wire: w.ser },
            );
        }
        self.apply_arrival(dst, visible, notify, bytes);
    }
}

/// Execute an eligible program (see the module docs for the eligibility
/// rules, which [`crate::engine::Engine::run`] enforces).
pub(crate) fn run(
    cluster: &ClusterSpec,
    cost: &CostModel,
    program: &CompiledProgram,
    scenario: Option<&ScenarioInstance>,
    profile: &CommProfile,
    tracing: bool,
    filter: TraceFilter,
) -> Result<RunReport, SimError> {
    let mut burst = Burst::new(cluster, cost, program, scenario, profile, tracing, filter);
    burst.run_to_quiescence();
    let Burst { mut ranks, mut trace, .. } = burst;
    // Final bookkeeping: flush arrivals nobody waited for (the strict engine
    // still counts their `NotifyVisible` events — the counter values
    // themselves are dead after the run, only the received tally matters),
    // detect deadlock, and build the report.
    let mut blocked = Vec::new();
    for (rank, r) in ranks.iter_mut().enumerate() {
        r.stats.notifications_received += r.fifo.len() as u64;
        r.fifo.clear();
        if !r.done {
            let what = match program.rank_ops(rank).op(r.pc) {
                OpView::WaitNotify { ids } => format!("waiting for {} of notifications {ids:?}", ids.len()),
                OpView::WaitNotifyAny { ids, count } => format!("waiting for {count} of notifications {ids:?}"),
                other => format!("stuck at {other:?}"),
            };
            blocked.push((rank, r.pc, what));
        }
    }
    if !blocked.is_empty() {
        return Err(SimError::Deadlock { blocked });
    }
    trace.seal();
    let metrics = EngineMetrics {
        dataflow_burst_ops: ranks.iter().map(|r| r.pc as u64).sum(),
        trace_events: trace.len() as u64,
        ..EngineMetrics::default()
    };
    Ok(RunReport {
        ranks: ranks.into_iter().map(|r| r.stats).collect(),
        links: Vec::new(),
        trace,
        summary: None,
        metrics,
    })
}

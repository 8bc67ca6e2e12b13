//! The strict event loop: every rank's non-local operations, in one global
//! `(time, rank, seq)` order.

use std::collections::{HashMap, VecDeque};

use super::net::{wire_timing, FlowMeta, InjectQueue, NetSim, Nics};
use super::{describe_wait, finish_run, local_op_time, time_backstep_tolerance, NotifyTable, SimError, StrictLimit};
#[cfg(not(test))]
use crate::calendar::CalendarQueue;
use crate::calendar::Timed;
use crate::cluster::{ClusterSpec, RankId};
use crate::compiled::{CompiledProgram, IdsRef, OpView};
use crate::cost::{CostModel, Protocol};
use crate::fabric::FlowId;
use crate::metrics::EngineMetrics;
use crate::program::{NotifyId, Tag};
use crate::report::{RankStats, RunReport};
use crate::scenario::ScenarioInstance;
use crate::trace::{BlockReason, MsgLabel, Recorder, TraceDetail, TraceFilter, TraceKind};

/// A message id: `TxDone` events carry it in their `u32` argument.
pub(super) type MsgId = u32;

/// What an [`Event`] tells its rank; the payload, if any, is [`Event::arg`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub(super) enum EventKind {
    /// The rank should try to execute its next operation.
    Resume,
    /// A two-sided message was fully delivered into the rank's memory; `arg`
    /// indexes its [`Delivery`] in `Sim::deliveries`.
    Delivered,
    /// A one-sided notification became visible at the rank; `arg` is its id.
    NotifyVisible,
    /// A transfer injected by the rank finished leaving its NIC; `arg` is
    /// its [`MsgId`].
    TxDone,
    /// The head of the rank's fabric injection queue is ready to launch.
    FlowLaunch,
    /// Re-estimate fabric flows: the earliest completion is due.  Only the
    /// tick the latest resolve pushed is current (`Sim::tick_key`); older
    /// ones are stale and ignored — rates changed since.
    FabricTick,
}

/// Bits of an event key below the rank: the per-run sequence number.
const SEQ_BITS: u32 = 40;

/// `rank << 40 | seq`: ordering events by `(time, key)` is ordering them by
/// `(time, rank, seq)`, as long as neither field overflows its bits.
pub(super) fn event_key(rank: RankId, seq: u64) -> Result<u64, StrictLimit> {
    debug_assert!((rank as u64) < StrictLimit::Ranks.bound(), "Sim::new checks the rank count");
    if seq >= StrictLimit::Events.bound() {
        return Err(StrictLimit::Events);
    }
    Ok((rank as u64) << SEQ_BITS | seq)
}

/// The strict loop's rank-count limit, checked before anything per rank is
/// allocated.
pub(super) fn check_rank_count(n: usize) -> Result<(), StrictLimit> {
    if n as u64 > StrictLimit::Ranks.bound() {
        return Err(StrictLimit::Ranks);
    }
    Ok(())
}

/// Message number `next` as a [`MsgId`], or the limit if it does not fit.
pub(super) fn message_id(next: u64) -> Result<MsgId, StrictLimit> {
    MsgId::try_from(next).map_err(|_| StrictLimit::MessageIds)
}

/// One pending strict-loop event: 24 bytes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(super) struct Event {
    pub(super) time: f64,
    /// [`event_key`]`(rank, seq)`: the tie-break after `time`.
    pub(super) key: u64,
    pub(super) arg: u32,
    pub(super) kind: EventKind,
}

// Every strict-loop event is copied into a bucket, sorted there and copied
// out again, and the pending ones are most of a large run's memory.
const _: () = assert!(size_of::<Event>() == 24);

impl Event {
    pub(super) fn rank(&self) -> RankId {
        (self.key >> SEQ_BITS) as RankId
    }
}

impl Eq for Event {}
impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Event {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Time ties break by `(rank, seq)` — the key — not by `seq` alone:
        // the global sequence number is an *insertion* order, which depends
        // on the order the loop happens to produce events in.  The rank id
        // does not, so equal-time events of different ranks order
        // identically no matter where they were produced (every pinned
        // makespan rests on this key); `seq` only disambiguates same-rank
        // same-time events, whose relative insertion order is defined by the
        // rank's own (deterministic) execution.
        self.time.total_cmp(&other.time).then_with(|| self.key.cmp(&other.key))
    }
}

/// A delivered two-sided message, parked in `Sim::deliveries` while its
/// `Delivered` event is pending.
#[derive(Debug, Clone, Copy)]
struct Delivery {
    src: u32,
    tag: Tag,
    bytes: u64,
}

impl Timed for Event {
    fn time(&self) -> f64 {
        self.time
    }
}

/// The strict loop's pending-event store, popped in `(time, rank, seq)`
/// order: the bucketed calendar queue.  Test builds wrap it in an enum whose
/// other arm is the global binary heap the queue is checked against.
#[cfg(not(test))]
type EventQueue = CalendarQueue<Event>;
#[cfg(test)]
use super::tests::EventQueue;

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
            Blocked::Notify { ids, count } => describe_wait(*ids, *count),
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

/// What a transfer raises at its destination when it lands.
#[derive(Debug, Clone, Copy)]
pub(super) enum FlowKind {
    /// One-sided put: raise `notify` at the destination; `msg` feeds
    /// `WaitAllSends` accounting when the sender tracks completions.
    Put { notify: NotifyId, msg: Option<MsgId> },
    /// Two-sided transfer: deliver `(src, tag)` and release the sender.
    TwoSided { tag: Tag, msg: MsgId },
}

/// One inter-rank transfer, as its delivery and its trace events see it.
#[derive(Debug, Clone, Copy)]
pub(super) struct Transfer {
    pub(super) src: RankId,
    pub(super) dst: RankId,
    /// Logical payload bytes.
    pub(super) bytes: u64,
    pub(super) kind: FlowKind,
    /// Virtual time the transfer was injected (after the injection overhead
    /// or the rendezvous clear-to-send); a fabric flow launches no earlier.
    pub(super) inject: f64,
    /// Trace flow id pairing the injection with the arrival (0 untraced).
    pub(super) flow: u64,
}

/// A rank's two-sided matching state.  Only programs with two-sided
/// operations or barriers have it (`Sim::matching`): a one-sided program's
/// ranks never touch it.
#[derive(Debug, Default)]
struct Matching {
    /// Fully arrived two-sided messages without a matching posted receive.
    unexpected: HashMap<(RankId, Tag), VecDeque<(f64, u64)>>,
    /// Rendezvous senders waiting for this rank to post a matching receive.
    pending_rndv: HashMap<(RankId, Tag), VecDeque<PendingRendezvous>>,
}

#[derive(Debug)]
pub(super) struct RankSim<'a> {
    pc: usize,
    done: bool,
    blocked: Option<Blocked<'a>>,
    blocked_since: f64,
    /// Number of this rank's transfers still in flight (for WaitAllSends).
    outstanding_sends: usize,
    /// This rank's rendezvous sends still parked in a receiver's
    /// `Matching::pending_rndv`: the receiver's `Recv` will record their
    /// `MsgInjected` on this rank's trace channel (see
    /// `Sim::resume_after_local_ops`).
    pub(super) parked_sends: u32,
    /// Earliest time this rank's injection path is free again.
    tx_free: f64,
    stats: RankStats,
}

// Every rank of a strict-loop run holds one; the two-sided matching maps
// live apart in `Sim::matching` (96 bytes a rank, two-sided programs only).
const _: () = assert!(size_of::<RankSim<'_>>() <= 152);

impl RankSim<'_> {
    fn new(compute_scale: f64) -> Self {
        Self {
            pc: 0,
            done: false,
            blocked: None,
            blocked_since: 0.0,
            outstanding_sends: 0,
            parked_sends: 0,
            tx_free: 0.0,
            stats: RankStats { compute_scale, ..RankStats::default() },
        }
    }
}

pub(super) struct Sim<'a> {
    pub(super) cluster: &'a ClusterSpec,
    pub(super) cost: &'a CostModel,
    program: &'a CompiledProgram,
    pub(super) scenario: Option<ScenarioInstance>,
    pub(super) now: f64,
    seq: u64,
    next_msg: u64,
    /// The limit a push or a message id hit; the loop stops at the next pop.
    overflow: Option<StrictLimit>,
    pub(super) events: EventQueue,
    pub(super) ranks: Vec<RankSim<'a>>,
    /// Per-rank two-sided matching state, indexed by rank; empty for a
    /// one-sided program.
    matching: Vec<Matching>,
    /// Payloads of the pending `Delivered` events, and the free slots.
    deliveries: Vec<Delivery>,
    free_deliveries: Vec<u32>,
    /// Key of the one current `FabricTick`: the tick the latest fabric
    /// resolve pushed (`None` if it pushed none).
    pub(super) tick_key: Option<u64>,
    notes: NotifyTable,
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
    pub(super) fabric: Option<NetSim>,
    /// Engine-side metadata per fabric flow, indexed by [`FlowId`].
    pub(super) flow_meta: Vec<Option<FlowMeta>>,
    /// Per-rank fabric injection pipelines.
    pub(super) inject: Vec<InjectQueue>,
    /// Scratch buffers for completed-flow ids and their detached metadata
    /// (recycled across ticks).
    pub(super) completed_buf: Vec<FlowId>,
    pub(super) meta_buf: Vec<FlowMeta>,
    rec: Recorder,
    metrics: EngineMetrics,
}

#[cfg(test)]
thread_local! {
    /// Local ops this thread's runs fused in `Sim::resume_after_local_ops`
    /// (the differential tests reset and read it around a run).
    pub(super) static FUSED_OPS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
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
    pub(super) fn new(
        cluster: &'a ClusterSpec,
        cost: &'a CostModel,
        program: &'a CompiledProgram,
        tracing: bool,
        filter: TraceFilter,
        scenario: Option<ScenarioInstance>,
        fabric: Option<NetSim>,
    ) -> Result<Self, SimError> {
        let profile = program.profile();
        let n = program.num_ranks();
        check_rank_count(n).map_err(SimError::LimitExceeded)?;
        let ranks = (0..n)
            .map(|r| {
                let scale = scenario.as_ref().map_or(1.0, |s| s.compute_scale(cluster.node_of(r)));
                RankSim::new(scale)
            })
            .collect();
        Ok(Self {
            cluster,
            cost,
            program,
            scenario,
            now: 0.0,
            seq: 0,
            next_msg: 0,
            overflow: None,
            // The calendar bucket width is the smallest link latency — the
            // natural spacing between a transfer's injection and its
            // delivery, so a bucket holds about one wave of events.
            events: EventQueue::new(cost.alpha_intra.min(cost.alpha_inter)),
            ranks,
            matching: if profile.one_sided_only { Vec::new() } else { (0..n).map(|_| Matching::default()).collect() },
            deliveries: Vec::new(),
            free_deliveries: Vec::new(),
            tick_key: None,
            notes: NotifyTable::new(profile),
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
            rec: Recorder::new(tracing, filter, n),
            metrics: EngineMetrics::default(),
        })
    }

    /// Start the event sequence and the message ids at `seq` and `next_msg`,
    /// so a test reaches their limits without scheduling 2^40 events.
    #[cfg(test)]
    pub(super) fn with_counters(mut self, seq: u64, next_msg: u64) -> Self {
        (self.seq, self.next_msg) = (seq, next_msg);
        self
    }

    /// Schedule `kind` with payload `arg` for `rank` at `time` and return
    /// the event's key.  Past the event limit nothing is pushed and the loop
    /// stops at its next pop.
    pub(super) fn push_event(&mut self, time: f64, rank: RankId, kind: EventKind, arg: u32) -> u64 {
        let seq = self.seq;
        self.seq += 1;
        self.metrics.events_scheduled += 1;
        match event_key(rank, seq) {
            Ok(key) => {
                self.events.push(Event { time, key, arg, kind });
                key
            }
            Err(limit) => {
                self.overflow = Some(limit);
                u64::MAX
            }
        }
    }

    pub(super) fn run(mut self) -> Result<RunReport, SimError> {
        for r in 0..self.program.num_ranks() {
            self.resume_after_local_ops(r, 0.0);
        }
        while let Some(ev) = self.events.pop() {
            if self.overflow.is_some() {
                break;
            }
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
            let rank = ev.rank();
            match ev.kind {
                EventKind::Resume => self.step_rank(rank, ev.time),
                EventKind::Delivered => {
                    let d = self.deliveries[ev.arg as usize];
                    self.free_deliveries.push(ev.arg);
                    self.on_delivered(rank, d.src as RankId, d.tag, d.bytes, ev.time);
                }
                EventKind::NotifyVisible => self.on_notify(rank, ev.arg, ev.time),
                EventKind::TxDone => self.on_tx_done(rank, ev.arg, ev.time),
                EventKind::FlowLaunch => self.on_flow_launch(rank, ev.time),
                EventKind::FabricTick => {
                    if self.tick_key == Some(ev.key) {
                        self.on_fabric_tick(ev.time);
                    }
                }
            }
        }
        if let Some(limit) = self.overflow {
            return Err(SimError::LimitExceeded(limit));
        }
        let stuck = (self.ranks.iter().enumerate().filter(|(_, r)| !r.done))
            .map(|(i, r)| (i, r.pc, r.blocked.as_ref().map_or_else(|| "not scheduled".to_owned(), Blocked::describe)))
            .collect();
        let links = self.fabric.as_ref().map_or_else(Vec::new, |f| f.finish(&mut self.metrics));
        self.metrics.calendar_bucket_sorts = self.events.sorts();
        finish_run(stuck, self.ranks.into_iter().map(|r| r.stats), links, self.rec, self.metrics)
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
        self.rec.own(at, rank, TraceKind::BlockEnd, Some(op_index), detail);
        self.resume_after_local_ops(rank, at);
    }

    fn block(&mut self, rank: RankId, at: f64, why: Blocked<'a>) {
        let pc = self.ranks[rank].pc;
        self.rec.own(at, rank, TraceKind::BlockStart, Some(pc), TraceDetail::Block { reason: block_reason(&why) });
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
        self.rec.own(t, rank, TraceKind::OpStart, Some(pc), TraceDetail::Op { op: op.class() });
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
            OpView::Recv { src, tag, .. } => self.exec_recv(rank, src, tag, t),
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

    /// Execute `rank`'s op at `pc` from time `t` if it is local (see
    /// [`local_op_time`]) and return the time it ends.
    fn exec_local(&mut self, rank: RankId, pc: usize, op: OpView<'_>, t: f64) -> Option<f64> {
        let d = local_op_time(self.cost, op, self.ranks[rank].stats.compute_scale)?;
        self.rec.own(t, rank, TraceKind::OpStart, Some(pc), TraceDetail::Op { op: op.class() });
        let r = &mut self.ranks[rank];
        r.stats.compute_time += d;
        r.stats.finish_time = r.stats.finish_time.max(t + d);
        r.pc += 1;
        self.rec.own(t + d, rank, TraceKind::OpEnd, Some(pc), TraceDetail::None);
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
        self.push_event(t, rank, EventKind::Resume, 0);
    }

    /// Advance the program counter past a non-local op that completes at
    /// `at`, run the local ops behind it and schedule the next step.
    fn advance(&mut self, rank: RankId, at: f64) {
        let r = &mut self.ranks[rank];
        let op_index = r.pc;
        r.pc += 1;
        r.stats.finish_time = r.stats.finish_time.max(at);
        self.rec.own(at, rank, TraceKind::OpEnd, Some(op_index), TraceDetail::None);
        self.resume_after_local_ops(rank, at);
    }

    // -- transfers ----------------------------------------------------------

    /// A fresh message id.  Past the limit it returns 0 and the loop stops
    /// at its next pop, before any event can carry the id.
    fn alloc_msg(&mut self) -> MsgId {
        let id = message_id(self.next_msg).unwrap_or_else(|limit| {
            self.overflow = Some(limit);
            0
        });
        self.next_msg += 1;
        id
    }

    /// Schedule a one-sided put (or a zero-byte notification) from `src` to
    /// `dst`, injected at `inject`.
    fn schedule_put(&mut self, src: RankId, dst: RankId, bytes: u64, notify: NotifyId, inject: f64) {
        // The TxDone event only feeds `WaitAllSends` accounting; ranks that
        // never wait for send completion skip it (and the queue traffic), and
        // a payload-free put through a fabric never raises one.
        let on_wire = self.fabric.is_none() || self.cluster.same_node(src, dst);
        let msg = if self.tracks_put_tx[src] && (on_wire || bytes > 0) {
            self.ranks[src].outstanding_sends += 1;
            Some(self.alloc_msg())
        } else {
            None
        };
        self.schedule_transfer(src, dst, bytes, FlowKind::Put { notify, msg }, inject);
    }

    /// Inject a transfer at `inject`: through the fabric if the run has one
    /// and the transfer leaves its node, over the alpha-beta wire otherwise.
    fn schedule_transfer(&mut self, src: RankId, dst: RankId, bytes: u64, kind: FlowKind, inject: f64) {
        let (src_node, dst_node) = (self.cluster.node_of(src), self.cluster.node_of(dst));
        let same = src_node == dst_node;
        let label = match kind {
            FlowKind::Put { notify, .. } => MsgLabel::Notify(notify),
            FlowKind::TwoSided { tag, .. } => MsgLabel::Tag(tag),
        };
        self.ranks[src].stats.bytes_sent += bytes;
        self.ranks[src].stats.messages_sent += 1;
        let flow = self.rec.inject(inject, src, dst, bytes, label);
        let x = Transfer { src, dst, bytes, kind, inject, flow };
        if self.fabric.is_some() && !same {
            self.fabric_transfer(x);
            return;
        }
        let beta = match kind {
            FlowKind::Put { .. } => self.cost.beta_one_sided(same),
            FlowKind::TwoSided { .. } => self.cost.beta_two_sided(same),
        };
        let nics = Nics {
            rank_tx: &mut self.ranks[src].tx_free,
            node_tx: &mut self.node_tx_free,
            node_rx: &mut self.node_rx_free,
        };
        let w = wire_timing(self.cost, self.scenario.as_ref(), (src_node, dst_node), bytes, beta, inject, nics);
        self.deliver(x, w.tx_done, w.delivered, w.queue, w.ser);
    }

    /// A transfer's timing is decided: its sender's NIC is released at
    /// `tx_done` and its last byte lands in the receiver's memory at
    /// `landed`.  Push the sender's `TxDone`, then the destination's
    /// `NotifyVisible` or `Delivered` — in this order, the queue `seq` breaks
    /// same-rank ties — and record the future-dated arrival with its
    /// `queue`/`wire` decomposition.
    pub(super) fn deliver(&mut self, x: Transfer, tx_done: f64, landed: f64, queue: f64, wire: f64) {
        let to = &mut self.ranks[x.dst].stats;
        to.bytes_received += x.bytes;
        to.messages_received += 1;
        let (at, kind, label) = match x.kind {
            FlowKind::Put { notify, msg } => {
                if let Some(msg) = msg {
                    self.push_event(tx_done, x.src, EventKind::TxDone, msg);
                }
                let visible = landed + self.cost.notify_overhead;
                self.push_event(visible, x.dst, EventKind::NotifyVisible, notify);
                (visible, TraceKind::NotifyVisible, MsgLabel::Notify(notify))
            }
            FlowKind::TwoSided { tag, msg } => {
                self.push_event(tx_done, x.src, EventKind::TxDone, msg);
                let slot = self.park_delivery(Delivery { src: x.src as u32, tag, bytes: x.bytes });
                self.push_event(landed, x.dst, EventKind::Delivered, slot);
                (landed, TraceKind::MsgDelivered, MsgLabel::Tag(tag))
            }
        };
        let Transfer { src, bytes, flow, inject, .. } = x;
        self.rec.arrival(at, x.dst, kind, TraceDetail::Arrival { src, bytes, label, flow, inject, queue, wire });
    }

    /// Park `d` in a free slot of `deliveries` and return its index.  Every
    /// parked delivery took a message id first, so the index fits a `u32`.
    fn park_delivery(&mut self, d: Delivery) -> u32 {
        if let Some(slot) = self.free_deliveries.pop() {
            self.deliveries[slot as usize] = d;
            return slot;
        }
        self.deliveries.push(d);
        (self.deliveries.len() - 1) as u32
    }

    // -- two-sided send / receive -------------------------------------------

    fn exec_send(&mut self, rank: RankId, dst: RankId, bytes: u64, tag: Tag, t: f64, blocking: bool) {
        let msg = self.alloc_msg();
        let kind = FlowKind::TwoSided { tag, msg };
        match self.cost.protocol_for(bytes) {
            Protocol::Eager => {
                let launch = t + self.cost.o_send;
                self.ranks[rank].outstanding_sends += 1;
                self.schedule_transfer(rank, dst, bytes, kind, launch);
                // A blocking eager send returns after staging the payload in
                // an internal buffer; a non-blocking one returns immediately.
                let local_done = if blocking { launch + self.cost.copy_time(bytes) } else { launch };
                self.advance(rank, local_done);
            }
            Protocol::Rendezvous => {
                let send_time = t + self.cost.o_send;
                // Does the receiver already block in a matching receive?
                let matched = matches!(
                    &self.ranks[dst].blocked,
                    Some(Blocked::Recv { src, tag: rtag }) if *src == rank && *rtag == tag
                );
                if matched {
                    let recv_post = self.ranks[dst].blocked_since;
                    let earliest = send_time.max(recv_post + self.cost.o_recv) + self.cost.rendezvous_latency;
                    self.schedule_transfer(rank, dst, bytes, kind, earliest);
                } else {
                    self.matching[dst].pending_rndv.entry((rank, tag)).or_default().push_back(PendingRendezvous {
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

    fn exec_recv(&mut self, rank: RankId, src: RankId, tag: Tag, t: f64) {
        let post_done = t + self.cost.o_recv;
        // 1. Already-arrived (unexpected) eager message?
        let m = &mut self.matching[rank];
        if let Some(q) = m.unexpected.get_mut(&(src, tag)) {
            if let Some((delivered, msg_bytes)) = q.pop_front() {
                if q.is_empty() {
                    m.unexpected.remove(&(src, tag));
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
        let m = &mut self.matching[rank];
        if let Some(q) = m.pending_rndv.get_mut(&(src, tag)) {
            if let Some(p) = q.pop_front() {
                if q.is_empty() {
                    m.pending_rndv.remove(&(src, tag));
                }
                let earliest = p.send_time.max(post_done) + self.cost.rendezvous_latency;
                self.ranks[src].parked_sends -= 1;
                self.block(rank, t, Blocked::Recv { src, tag });
                self.schedule_transfer(src, rank, p.bytes, FlowKind::TwoSided { tag, msg: p.msg }, earliest);
                return;
            }
        }
        // 3. Nothing yet: block until a matching message is delivered.
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
            self.matching[dst].unexpected.entry((src, tag)).or_default().push_back((t, bytes));
        }
    }

    // -- notifications -------------------------------------------------------

    fn try_wait_notify(&mut self, rank: RankId, t: f64, ids: IdsRef<'a>, count: usize) {
        if self.notes.of(rank).consume(&mut self.ranks[rank].stats, ids, count) {
            self.advance(rank, t + self.cost.notify_overhead);
        } else {
            self.block(rank, t, Blocked::Notify { ids, count });
        }
    }

    fn on_notify(&mut self, rank: RankId, notify: NotifyId, t: f64) {
        // The NotifyVisible trace event was emitted (future-dated) when the
        // put was scheduled, together with its timing decomposition.
        let (r, mut notes) = (&mut self.ranks[rank], self.notes.of(rank));
        notes.note_arrival(&mut r.stats, notify);
        if let Some(Blocked::Notify { ids, count }) = r.blocked {
            if notes.consume(&mut r.stats, ids, count) {
                self.unblock(rank, t + self.cost.notify_overhead);
            }
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

//! Structured event tracing: typed trace events, the per-rank [`Trace`]
//! store, a streaming Chrome Trace Event writer, and a validator for
//! exported files.
//!
//! Both execution paths of the engine — the strict event loop and the
//! dataflow burst path — emit the same [`TraceEvent`]s.
//! Events carry a typed, copyable [`TraceDetail`] instead of a free-form
//! string, so post-run analyses (the critical-path walk in
//! [`crate::critpath`], the `xtask trace-stats` summarizer) never parse text.
//!
//! What is stored: a [`Trace`] keeps the events as the recorders produce
//! them — two streams per kept rank, the rank's own events in program order
//! and the arrivals at it in [`ARRIVAL_SEQ`] order, each ascending in
//! `(time, seq)`.  A stream holds 32-byte records, not [`TraceEvent`]s: time,
//! sequence number, op index, kind and a one-byte detail code.  The rank is
//! implied by the stream, and op classes and block reasons fit in the code.
//! The details with a payload — `Inject`, `Arrival` and a `Recv` block
//! reason — go to one side table the record indexes.  A stream is checked
//! once when the run ends and sorted only if the check fails (several
//! writers racing to one rank on the strict path); nothing is ever sorted
//! globally and no second copy of the events exists at any point.
//!
//! Events are decoded on access.  [`Trace::iter`] yields the canonical
//! `(time, rank, seq)` order — identical no matter which execution path
//! produced the events — by merging the stream heads on demand:
//! `O(log streams)` when the smallest event moves to another stream, `O(1)`
//! while it stays on the same one.  Per-rank consumers (the critical-path
//! walk) read a rank's two streams through the [`TraceStream`] views of
//! [`Trace::rank`].
//!
//! Export: [`write_chrome_trace`] (or a [`ChromeTraceWriter`] fed by hand)
//! consumes `Trace::iter()` after the run.  A
//! [`TraceFilter`] applies at emission, so rank-windowed or sampled traces
//! of million-rank runs stay within the fig17 RSS budget: dropped events are
//! never materialized, and the stream table is sized by the filter's window,
//! not by the rank count.

use std::borrow::Borrow;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::io::{self, Write};

use crate::cluster::RankId;
use crate::program::{NotifyId, Op, Tag};
use crate::report::LinkStats;

/// Bit set in [`TraceEvent::seq`] for events that arrive *at* a rank from
/// the network (deliveries, notifications) rather than being issued by the
/// rank's own op chain.  Arrival sequence numbers count per destination in
/// visible-time order; own-event sequence numbers count per rank in program
/// execution order.  The two channels are disjoint, so the merged
/// `(time, rank, seq)` order is identical no matter which execution path
/// (strict loop, burst path) produced the events.
pub const ARRIVAL_SEQ: u64 = 1 << 63;

/// The one emitter both execution paths record through, and the only code
/// that mints a `seq` or a flow id: own events count per rank in execution
/// order, arrivals per destination under [`ARRIVAL_SEQ`], flows per source
/// (the source rank in the high 32 bits).  The counters advance for ranks
/// the filter drops, so a windowed trace is a strict subset of the full one.
/// Untraced, it holds nothing and records nothing.
#[derive(Debug, Default)]
pub(crate) struct Recorder {
    on: bool,
    trace: Trace,
    /// Per rank: the next number of each counter (`OWN`, `ARRIVAL`, `FLOW`).
    next: Vec<[u64; 3]>,
}

impl Recorder {
    const OWN: usize = 0;
    const ARRIVAL: usize = 1;
    const FLOW: usize = 2;

    pub(crate) fn new(tracing: bool, filter: TraceFilter, num_ranks: usize) -> Self {
        if !tracing {
            return Self::default();
        }
        Self { on: true, trace: Trace::new(filter, num_ranks), next: vec![[0; 3]; num_ranks] }
    }

    /// Take the next number of `rank`'s counter `which`.
    #[inline]
    fn mint(&mut self, rank: RankId, which: usize) -> u64 {
        let n = &mut self.next[rank][which];
        *n += 1;
        *n - 1
    }

    /// Record an event on `rank`'s own channel.
    #[inline]
    pub(crate) fn own(
        &mut self,
        time: f64,
        rank: RankId,
        kind: TraceKind,
        op_index: Option<usize>,
        detail: TraceDetail,
    ) {
        if self.on {
            let seq = self.mint(rank, Self::OWN);
            self.trace.record(TraceEvent::new(time, rank, kind, op_index, seq, detail));
        }
    }

    /// Record a message leaving `src` at `time` and return the flow id that
    /// pairs it with its arrival (0 untraced).
    #[inline]
    pub(crate) fn inject(&mut self, time: f64, src: RankId, dst: RankId, bytes: u64, label: MsgLabel) -> u64 {
        if !self.on {
            return 0;
        }
        let flow = ((src as u64) << 32) | self.mint(src, Self::FLOW);
        self.own(time, src, TraceKind::MsgInjected, None, TraceDetail::Inject { dst, bytes, label, flow });
        flow
    }

    /// Record a message arrival on `dst`'s arrival channel.  Arrivals are
    /// recorded future-dated, when their timing is decided; a rank with
    /// several writers has its arrival stream put in time order by
    /// [`Recorder::finish`].
    #[inline]
    pub(crate) fn arrival(&mut self, time: f64, dst: RankId, kind: TraceKind, detail: TraceDetail) {
        if self.on {
            let seq = ARRIVAL_SEQ | self.mint(dst, Self::ARRIVAL);
            self.trace.record(TraceEvent::new(time, dst, kind, None, seq, detail));
        }
    }

    /// End of recording: the sealed trace.
    pub(crate) fn finish(mut self) -> Trace {
        self.trace.seal();
        self.trace
    }
}

/// Category of a traced event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TraceKind {
    /// A rank started executing an operation.
    OpStart,
    /// A rank finished executing an operation.
    OpEnd,
    /// A message (put or send) was injected into the network.
    MsgInjected,
    /// A message was fully delivered into the target rank's memory.
    MsgDelivered,
    /// A notification became visible at the target rank.
    NotifyVisible,
    /// A rank started blocking (on a receive, notification, send completion
    /// or barrier).
    BlockStart,
    /// A rank resumed after blocking.
    BlockEnd,
}

/// Coarse class of an operation, recorded on `OpStart` events.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpClass {
    /// Local computation.
    Compute,
    /// Local reduction arithmetic.
    Reduce,
    /// Local staging copy.
    Copy,
    /// One-sided write plus notification.
    PutNotify,
    /// Payload-free notification.
    Notify,
    /// Wait for all listed notifications.
    WaitNotify,
    /// Wait for a quorum of listed notifications.
    WaitNotifyAny,
    /// Two-sided blocking send.
    Send,
    /// Two-sided non-blocking send.
    Isend,
    /// Two-sided receive.
    Recv,
    /// Wait for all outstanding non-blocking sends.
    WaitAllSends,
    /// Full synchronization.
    Barrier,
}

impl OpClass {
    /// Stable display name (used as the Chrome trace span name).
    pub fn name(&self) -> &'static str {
        match self {
            OpClass::Compute => "compute",
            OpClass::Reduce => "reduce",
            OpClass::Copy => "copy",
            OpClass::PutNotify => "put_notify",
            OpClass::Notify => "notify",
            OpClass::WaitNotify => "wait_notify",
            OpClass::WaitNotifyAny => "wait_notify_any",
            OpClass::Send => "send",
            OpClass::Isend => "isend",
            OpClass::Recv => "recv",
            OpClass::WaitAllSends => "wait_all_sends",
            OpClass::Barrier => "barrier",
        }
    }

    /// True for purely local work (compute / reduce / copy).
    pub fn is_local_work(&self) -> bool {
        matches!(self, OpClass::Compute | OpClass::Reduce | OpClass::Copy)
    }
}

impl From<&Op> for OpClass {
    fn from(op: &Op) -> Self {
        match op {
            Op::Compute { .. } => OpClass::Compute,
            Op::Reduce { .. } => OpClass::Reduce,
            Op::Copy { .. } => OpClass::Copy,
            Op::PutNotify { .. } => OpClass::PutNotify,
            Op::Notify { .. } => OpClass::Notify,
            Op::WaitNotify { .. } => OpClass::WaitNotify,
            Op::WaitNotifyAny { .. } => OpClass::WaitNotifyAny,
            Op::Send { .. } => OpClass::Send,
            Op::Isend { .. } => OpClass::Isend,
            Op::Recv { .. } => OpClass::Recv,
            Op::WaitAllSends => OpClass::WaitAllSends,
            Op::Barrier => OpClass::Barrier,
        }
    }
}

/// Why a rank blocked, recorded on `BlockStart`/`BlockEnd` events.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BlockReason {
    /// Waiting for a matching two-sided message.
    Recv {
        /// Expected source rank.
        src: RankId,
        /// Expected tag.
        tag: Tag,
    },
    /// Waiting for one-sided notifications.
    Notify,
    /// Blocking send waiting for its transfer to leave the NIC.
    SendTxDone,
    /// Waiting for all outstanding non-blocking sends.
    AllSends,
    /// Waiting inside a barrier.
    Barrier,
}

impl BlockReason {
    /// Stable display name (used in Chrome trace span names).
    pub fn name(&self) -> &'static str {
        match self {
            BlockReason::Recv { .. } => "recv",
            BlockReason::Notify => "notify",
            BlockReason::SendTxDone => "send_tx",
            BlockReason::AllSends => "all_sends",
            BlockReason::Barrier => "barrier",
        }
    }
}

/// Identity of a message: the notification slot it raises (one-sided) or
/// the tag it matches (two-sided).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MsgLabel {
    /// One-sided put/notify: the notification slot.
    Notify(NotifyId),
    /// Two-sided send: the matching tag.
    Tag(Tag),
}

/// Typed, copyable payload of a [`TraceEvent`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TraceDetail {
    /// No extra information (e.g. `OpEnd`).
    None,
    /// The class of the operation (`OpStart`).
    Op {
        /// Operation class.
        op: OpClass,
    },
    /// Why the rank blocked (`BlockStart`/`BlockEnd`).
    Block {
        /// Blocking reason.
        reason: BlockReason,
    },
    /// A message left this rank (`MsgInjected`).
    Inject {
        /// Destination rank.
        dst: RankId,
        /// Payload bytes.
        bytes: u64,
        /// Notification slot or tag.
        label: MsgLabel,
        /// Flow id pairing this injection with its arrival
        /// (`(src << 32) | per-src counter`).
        flow: u64,
    },
    /// A message arrived at this rank (`NotifyVisible`/`MsgDelivered`),
    /// with the exact decomposition of its network time.  The components
    /// satisfy `queue + wire + residual == event.time - inject`, where the
    /// residual is latency/overhead (alpha, injection and notification
    /// overheads); the critical-path walk attributes them per category.
    Arrival {
        /// Source rank.
        src: RankId,
        /// Payload bytes.
        bytes: u64,
        /// Notification slot or tag.
        label: MsgLabel,
        /// Flow id pairing this arrival with its injection.
        flow: u64,
        /// Virtual time the message was injected at the source.
        inject: f64,
        /// Time spent waiting for NIC/fabric injection capacity
        /// (alpha-beta: tx+rx NIC queueing; fabric: injection FIFO wait).
        queue: f64,
        /// Time spent moving bytes (serialization, or time in the fabric
        /// at the max-min fair rate).
        wire: f64,
    },
}

/// One entry of a simulation trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceEvent {
    /// Virtual time of the event in seconds.
    pub time: f64,
    /// Rank the event belongs to.
    pub rank: RankId,
    /// Category of the event.
    pub kind: TraceKind,
    /// Index of the operation in the rank's program, when applicable.
    pub op_index: Option<usize>,
    /// Deterministic per-rank sequence number; arrival-channel events have
    /// [`ARRIVAL_SEQ`] set.  `(time, rank, seq)` totally orders the trace
    /// identically across execution paths.
    pub seq: u64,
    /// Typed details (peer rank, byte count, notification id, timing
    /// decomposition, ...).
    pub detail: TraceDetail,
}

impl TraceEvent {
    /// Create a trace event.
    pub fn new(
        time: f64,
        rank: RankId,
        kind: TraceKind,
        op_index: Option<usize>,
        seq: u64,
        detail: TraceDetail,
    ) -> Self {
        Self { time, rank, kind, op_index, seq, detail }
    }
}

/// Emission-time filter: a rank window plus a sampling stride.  Events of
/// ranks outside the window, or whose rank is not a multiple of the stride,
/// are never materialized — this is what keeps traced million-rank runs
/// within the fig17 RSS budget.  Message events are filtered by the rank
/// the event belongs to (injections by source, arrivals by destination),
/// so a flow whose peer lies outside the window keeps one endpoint.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceFilter {
    /// First rank kept (inclusive).
    pub first_rank: RankId,
    /// Last rank kept (inclusive).
    pub last_rank: RankId,
    /// Keep only ranks where `rank % sample == 0` (1 = keep all).
    pub sample: usize,
}

impl Default for TraceFilter {
    fn default() -> Self {
        Self { first_rank: 0, last_rank: usize::MAX, sample: 1 }
    }
}

impl TraceFilter {
    /// Keep everything.
    pub fn all() -> Self {
        Self::default()
    }

    /// Keep only ranks in `[first, last]`.
    pub fn window(first: RankId, last: RankId) -> Self {
        Self { first_rank: first, last_rank: last, sample: 1 }
    }

    /// True if events of `rank` are recorded.
    #[inline]
    pub fn keeps(&self, rank: RankId) -> bool {
        rank >= self.first_rank && rank <= self.last_rank && rank.is_multiple_of(self.sample.max(1))
    }

    /// True if the filter drops nothing.
    pub fn is_full(&self) -> bool {
        self.first_rank == 0 && self.last_rank == usize::MAX && self.sample <= 1
    }
}

// ---------------------------------------------------------------------------
// the per-rank trace store
// ---------------------------------------------------------------------------

/// [`Record::op`] of an event without an op index.
const NO_OP: u32 = u32::MAX;

/// One stored event: a [`TraceEvent`] without its rank, which the stream
/// implies, and with its detail reduced to a one-byte [`Code`].  32 bytes.
#[derive(Debug, Clone, Copy)]
struct Record {
    time: f64,
    /// The event's `seq`, whole.
    seq: u64,
    /// Index into [`Trace::details`] (`Code::Side`) or [`Trace::wide`]
    /// (`Code::Wide`); 0 otherwise.
    side: usize,
    /// `op_index`, or [`NO_OP`] for `None`.  Every index the engine emits
    /// fits: it is below its rank's op count, and compilation refuses more
    /// than `u32::MAX` stored ops (`ValidationError::CodeRangeExceeded`).
    /// A hand-built event with a wider index is stored as `Code::Wide`.
    op: u32,
    kind: TraceKind,
    detail: Code,
}

/// The stream order of records: ascending time, then sequence number.
fn record_order(a: &Record, b: &Record) -> std::cmp::Ordering {
    a.time.total_cmp(&b.time).then_with(|| a.seq.cmp(&b.seq))
}

/// A [`TraceDetail`] in one byte, or where to find it.
#[derive(Debug, Clone, Copy)]
enum Code {
    None,
    Op(OpClass),
    /// `Block` with reason `Notify`.
    Notify,
    /// `Block` with reason `SendTxDone`.
    SendTxDone,
    /// `Block` with reason `AllSends`.
    AllSends,
    /// `Block` with reason `Barrier`.
    Barrier,
    /// Out of line in [`Trace::details`]: `Inject`, `Arrival` and
    /// `Block { reason: Recv { .. } }`, the details with a payload.
    Side,
    /// The op index does not fit [`Record::op`]: [`Trace::wide`] holds it
    /// together with the detail.
    Wide,
}

/// The events of one run, stored per rank (see the module docs): iterate
/// for the canonical `(time, rank, seq)` order, or read one rank's streams
/// with [`Trace::rank`].  Two traces are equal when they hold the same
/// events, however those were recorded.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// Which ranks have streams: kept rank `r` owns slot
    /// `(r - first_rank) / sample`.
    filter: TraceFilter,
    /// `2 * slot` holds the rank's own events, `2 * slot + 1` the arrivals
    /// at it; each ascending in `(time, seq)` once sealed.
    streams: Vec<Vec<Record>>,
    /// The details of `Code::Side` records, in recording order.
    details: Vec<TraceDetail>,
    /// Op index and detail of `Code::Wide` records.
    wide: Vec<(usize, TraceDetail)>,
    len: usize,
}

impl Trace {
    /// An empty trace with streams for the ranks of `0..num_ranks` that
    /// `filter` keeps.
    fn new(filter: TraceFilter, num_ranks: usize) -> Self {
        let mut trace = Self { filter, ..Self::default() };
        let last = num_ranks.checked_sub(1).map(|last| last.min(filter.last_rank));
        if let Some(last) = last.filter(|&last| last >= filter.first_rank) {
            trace.streams.resize_with(trace.stream_of(last, 1) + 1, Vec::new);
        }
        trace
    }

    /// Build a trace from events in any order (hand-built traces, tests).
    pub fn from_events(events: Vec<TraceEvent>) -> Self {
        let first = events.iter().map(|e| e.rank).min().unwrap_or(0);
        let ranks = events.iter().map(|e| e.rank).max().map_or(0, |last| last.saturating_add(1));
        let mut trace = Self::new(TraceFilter::window(first, usize::MAX), ranks);
        for e in events {
            trace.record(e);
        }
        trace.seal();
        trace
    }

    /// Index of `rank`'s own (`channel` 0) or arrival (`channel` 1) stream.
    #[inline]
    fn stream_of(&self, rank: RankId, channel: usize) -> usize {
        2 * ((rank - self.filter.first_rank) / self.filter.sample.max(1)) + channel
    }

    /// The rank of stream slot `slot`: the `slot`-th rank the filter keeps.
    /// Exact for every slot that holds events.
    fn rank_of_slot(&self, slot: usize) -> RankId {
        let (first, sample) = (self.filter.first_rank, self.filter.sample.max(1));
        first + (sample - first % sample) % sample + slot * sample
    }

    /// Append `event` to its rank's stream, unless the filter drops the rank.
    /// Never inlined: the engines' emitters sit in their hot loops behind a
    /// `tracing` check, and an untraced run must not carry the encode there.
    #[inline(never)]
    pub(crate) fn record(&mut self, event: TraceEvent) {
        if self.filter.keeps(event.rank) {
            let stream = self.stream_of(event.rank, usize::from(event.seq & ARRIVAL_SEQ != 0));
            let record = self.encode(event);
            self.streams[stream].push(record);
            self.len += 1;
        }
    }

    /// The record of `e`; a detail with a payload goes to the side table.
    fn encode(&mut self, e: TraceEvent) -> Record {
        let mut record = Record { time: e.time, seq: e.seq, side: 0, op: NO_OP, kind: e.kind, detail: Code::None };
        if let Some(index) = e.op_index {
            match u32::try_from(index) {
                Ok(op) if op != NO_OP => record.op = op,
                _ => {
                    record.side = self.wide.len();
                    self.wide.push((index, e.detail));
                    record.detail = Code::Wide;
                    return record;
                }
            }
        }
        record.detail = match e.detail {
            TraceDetail::None => Code::None,
            TraceDetail::Op { op } => Code::Op(op),
            TraceDetail::Block { reason: BlockReason::Notify } => Code::Notify,
            TraceDetail::Block { reason: BlockReason::SendTxDone } => Code::SendTxDone,
            TraceDetail::Block { reason: BlockReason::AllSends } => Code::AllSends,
            TraceDetail::Block { reason: BlockReason::Barrier } => Code::Barrier,
            TraceDetail::Block { reason: BlockReason::Recv { .. } }
            | TraceDetail::Inject { .. }
            | TraceDetail::Arrival { .. } => {
                record.side = self.details.len();
                self.details.push(e.detail);
                Code::Side
            }
        };
        record
    }

    /// The event `record` stores for `rank`.
    #[inline]
    fn decode(&self, record: &Record, rank: RankId) -> TraceEvent {
        let mut op_index = (record.op != NO_OP).then_some(record.op as usize);
        let block = |reason| TraceDetail::Block { reason };
        let detail = match record.detail {
            Code::None => TraceDetail::None,
            Code::Op(op) => TraceDetail::Op { op },
            Code::Notify => block(BlockReason::Notify),
            Code::SendTxDone => block(BlockReason::SendTxDone),
            Code::AllSends => block(BlockReason::AllSends),
            Code::Barrier => block(BlockReason::Barrier),
            Code::Side => self.details[record.side],
            Code::Wide => {
                let (index, detail) = self.wide[record.side];
                op_index = Some(index);
                detail
            }
        };
        TraceEvent { time: record.time, rank, kind: record.kind, op_index, seq: record.seq, detail }
    }

    /// End of recording: put every stream that is not already ascending in
    /// `(time, seq)` in order.  Own streams and single-writer arrival
    /// streams are recorded in order; only arrivals that several writers
    /// future-dated into one rank need the sort.
    fn seal(&mut self) {
        for stream in &mut self.streams {
            if !stream.is_sorted_by(|a, b| record_order(a, b).is_le()) {
                stream.sort_by(record_order);
            }
        }
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no event was recorded.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn view<'a>(&'a self, rank: RankId, records: &'a [Record]) -> TraceStream<'a> {
        TraceStream { trace: self, rank, records }
    }

    /// The events of `rank`, each stream ascending in `(time, seq)`: its own
    /// events in program order and the arrivals at it.  Both are empty for a
    /// rank the trace does not keep.
    pub fn rank(&self, rank: RankId) -> (TraceStream<'_>, TraceStream<'_>) {
        let stream = |channel| {
            let records = self.filter.keeps(rank).then(|| self.streams.get(self.stream_of(rank, channel)));
            self.view(rank, records.flatten().map_or(&[], Vec::as_slice))
        };
        (stream(0), stream(1))
    }

    /// Every rank with events, ascending: `(rank, own, arrivals)`.
    pub(crate) fn per_rank(&self) -> impl Iterator<Item = (RankId, TraceStream<'_>, TraceStream<'_>)> {
        let pairs = self.streams.chunks_exact(2).enumerate();
        pairs.filter(|(_, pair)| pair.iter().any(|s| !s.is_empty())).map(|(slot, pair)| {
            let rank = self.rank_of_slot(slot);
            (rank, self.view(rank, &pair[0]), self.view(rank, &pair[1]))
        })
    }

    /// Iterate in canonical `(time, rank, seq)` order.
    pub fn iter(&self) -> TraceIter<'_> {
        let rest: Vec<_> = (self.streams.iter().enumerate())
            .filter(|(_, s)| !s.is_empty())
            .map(|(i, s)| (s.iter(), self.rank_of_slot(i / 2)))
            .collect();
        let mut heap: BinaryHeap<_> =
            rest.iter().enumerate().map(|(i, (s, _))| Reverse(Head::of(&s.as_slice()[0], i))).collect();
        let current = heap.pop().map(|Reverse(head)| head.stream);
        TraceIter { trace: self, rest, heap, current, remaining: self.len }
    }
}

impl PartialEq for Trace {
    fn eq(&self, other: &Self) -> bool {
        // Sealed streams are a function of the event set, so equal sets mean
        // equal streams rank by rank — whatever the two stream tables look
        // like.  With the lengths equal, covering `self` covers `other`.
        self.len == other.len && self.per_rank().all(|(rank, own, arrivals)| other.rank(rank) == (own, arrivals))
    }
}

impl<'a> IntoIterator for &'a Trace {
    type Item = TraceEvent;
    type IntoIter = TraceIter<'a>;

    fn into_iter(self) -> TraceIter<'a> {
        self.iter()
    }
}

/// One of a rank's two event streams, ascending in `(time, seq)`
/// ([`Trace::rank`]).  Events are decoded from the stored records on access.
#[derive(Clone, Copy)]
pub struct TraceStream<'a> {
    trace: &'a Trace,
    rank: RankId,
    records: &'a [Record],
}

impl<'a> TraceStream<'a> {
    /// Number of events.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True if the stream holds no event.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Event `i`, if there is one.
    pub fn get(&self, i: usize) -> Option<TraceEvent> {
        self.records.get(i).map(|record| self.trace.decode(record, self.rank))
    }

    /// The events in stream order.
    pub fn iter(&self) -> impl DoubleEndedIterator<Item = TraceEvent> + ExactSizeIterator + 'a {
        let (trace, rank) = (self.trace, self.rank);
        self.records.iter().map(move |record| trace.decode(record, rank))
    }

    /// True if event `i` of `self` comes before event `j` of `other` in
    /// `(time, seq)` order.
    pub(crate) fn precedes(&self, i: usize, other: &TraceStream<'_>, j: usize) -> bool {
        record_order(&self.records[i], &other.records[j]).is_lt()
    }

    /// Number of events at or before `time`.
    pub(crate) fn count_until(&self, time: f64) -> usize {
        self.records.partition_point(|record| record.time <= time)
    }
}

impl PartialEq for TraceStream<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl std::fmt::Debug for TraceStream<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// Merge key of a stream's next event, smallest first: the time's bits in
/// `f64::total_cmp` order, then the stream.  Between streams the stream
/// order is the `(rank, seq)` order: slots ascend with the rank, and a
/// rank's own stream (`2 * slot`) holds only sequence numbers below
/// [`ARRIVAL_SEQ`], its arrival stream (`2 * slot + 1`) only ones above.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Head {
    time: u64,
    stream: usize,
}

impl Head {
    fn of(record: &Record, stream: usize) -> Self {
        let bits = record.time.to_bits();
        // Flip all bits of a negative, the sign bit of a non-negative.
        let time = bits ^ ((((bits as i64) >> 63) as u64) | (1 << 63));
        Self { time, stream }
    }
}

/// Iterator over a [`Trace`] in canonical order: a k-way merge of the
/// per-rank streams that stays on one stream while it holds the smallest
/// event, decoding each event as it is yielded.
#[derive(Debug, Clone)]
pub struct TraceIter<'a> {
    trace: &'a Trace,
    /// The unyielded tail of every non-empty stream, in stream order, with
    /// the stream's rank.
    rest: Vec<(std::slice::Iter<'a, Record>, RankId)>,
    /// Heads of all streams but `current`.
    heap: BinaryHeap<Reverse<Head>>,
    /// The stream holding the smallest unyielded event.
    current: Option<usize>,
    remaining: usize,
}

impl Iterator for TraceIter<'_> {
    type Item = TraceEvent;

    fn next(&mut self) -> Option<TraceEvent> {
        let stream = self.current?;
        let (records, rank) = &mut self.rest[stream];
        let (record, rank) = (records.next()?, *rank);
        self.remaining -= 1;
        match records.as_slice().first() {
            Some(next) => {
                let head = Head::of(next, stream);
                if let Some(mut top) = self.heap.peek_mut().filter(|top| top.0 < head) {
                    self.current = Some(top.0.stream);
                    *top = Reverse(head);
                }
            }
            None => self.current = self.heap.pop().map(|Reverse(head)| head.stream),
        }
        Some(self.trace.decode(record, rank))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl ExactSizeIterator for TraceIter<'_> {}

// ---------------------------------------------------------------------------
// Chrome Trace Event writer
// ---------------------------------------------------------------------------

/// Streaming writer producing the Chrome Trace Event JSON array format,
/// loadable in Perfetto (<https://ui.perfetto.dev>) or `chrome://tracing`.
///
/// Mapping: one track (`tid`) per rank under `pid` 0; op and block spans
/// become `B`/`E` duration events; message inject→arrival edges become
/// `s`/`f` flow arrows keyed by the flow id; arrivals additionally emit an
/// instant so the flow head is visible even outside a span.  Timestamps are
/// microseconds of virtual time.
///
/// Every record is assembled from a static head (everything up to `"ts":`
/// or `"id":`), the timestamp, the track's cached `,"pid":0,"tid":N`
/// suffix and its arguments.  A timestamp is written once per distinct
/// value, in the same shortest round-trip digits `{}` prints, computed by a
/// Ryū variant instead of `core::fmt`.
pub struct ChromeTraceWriter<W: Write + Send> {
    out: W,
    /// Records formatted since the last write to `out`.
    buf: Vec<u8>,
    /// What goes before the next record: nothing before the first.
    sep: &'static [u8],
    /// `tracks[tid - first_tid]`: `,"pid":0,"tid":<tid>` once the track has
    /// its name record, empty before.  The table spans the tids seen, so a
    /// rank-windowed trace of a large run keeps it window-sized.
    tracks: Vec<Box<[u8]>>,
    first_tid: RankId,
    /// The timestamp text of the last record and the bits it renders; runs
    /// of records at one instant format it once.
    ts_bits: u64,
    ts_text: Vec<u8>,
    /// The first write error met while recording; `finish` returns it.
    error: Option<io::Error>,
}

/// The writer hands `buf` to the output once it holds this many bytes.
const CHROME_CHUNK: usize = 64 * 1024;

/// `"00" "01" … "99"`: decimal digits are written two at a time.
const DIGIT_PAIRS: [u8; 200] = {
    let mut pairs = [0; 200];
    let mut i = 0;
    while i < 100 {
        pairs[2 * i] = b'0' + (i / 10) as u8;
        pairs[2 * i + 1] = b'0' + (i % 10) as u8;
        i += 1;
    }
    pairs
};

/// Append `n` in decimal.
pub(crate) fn push_int(buf: &mut Vec<u8>, mut n: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    while n >= 100 {
        let pair = 2 * (n % 100) as usize;
        n /= 100;
        at -= 2;
        digits[at..at + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    }
    if n >= 10 {
        at -= 2;
        digits[at..at + 2].copy_from_slice(&DIGIT_PAIRS[2 * n as usize..2 * n as usize + 2]);
    } else {
        at -= 1;
        digits[at] = b'0' + n as u8;
    }
    buf.extend_from_slice(&digits[at..]);
}

/// Append `s` as the inside of a JSON string: `"`, `\` and control
/// characters escaped.
fn push_json_str(buf: &mut Vec<u8>, s: &str) {
    for &b in s.as_bytes() {
        match b {
            b'"' | b'\\' => buf.extend_from_slice(&[b'\\', b]),
            0x00..=0x1f => write!(buf, "\\u{b:04x}").expect("writing to a Vec cannot fail"),
            _ => buf.push(b),
        }
    }
}

/// The static start of a record, `{"name":"<name>","cat":"<cat>","ph":"<ph>"`
/// plus any further fields, up to and including `,"ts":`.
macro_rules! head {
    ($name:literal, $cat:literal, $ph:literal $(, $more:literal)?) => {
        concat!("{\"name\":\"", $name, "\",\"cat\":\"", $cat, "\",\"ph\":\"", $ph, "\"", $($more,)? ",\"ts\":")
    };
}

/// The head of an `OpStart` span.
fn op_head(detail: &TraceDetail) -> &'static str {
    let TraceDetail::Op { op } = detail else { return head!("op", "op", "B") };
    match op {
        OpClass::Compute => head!("compute", "op", "B"),
        OpClass::Reduce => head!("reduce", "op", "B"),
        OpClass::Copy => head!("copy", "op", "B"),
        OpClass::PutNotify => head!("put_notify", "op", "B"),
        OpClass::Notify => head!("notify", "op", "B"),
        OpClass::WaitNotify => head!("wait_notify", "op", "B"),
        OpClass::WaitNotifyAny => head!("wait_notify_any", "op", "B"),
        OpClass::Send => head!("send", "op", "B"),
        OpClass::Isend => head!("isend", "op", "B"),
        OpClass::Recv => head!("recv", "op", "B"),
        OpClass::WaitAllSends => head!("wait_all_sends", "op", "B"),
        OpClass::Barrier => head!("barrier", "op", "B"),
    }
}

/// The head of a `BlockStart` span.
fn block_head(detail: &TraceDetail) -> &'static str {
    let TraceDetail::Block { reason } = detail else { return head!("blocked", "block", "B") };
    match reason {
        BlockReason::Recv { .. } => head!("blocked:recv", "block", "B"),
        BlockReason::Notify => head!("blocked:notify", "block", "B"),
        BlockReason::SendTxDone => head!("blocked:send_tx", "block", "B"),
        BlockReason::AllSends => head!("blocked:all_sends", "block", "B"),
        BlockReason::Barrier => head!("blocked:barrier", "block", "B"),
    }
}

const OP_END: &str = head!("op", "op", "E");
const BLOCK_END: &str = head!("blocked", "block", "E");
/// Flow heads end in `"id":`; the flow id and `,"ts":` follow.
const FLOW_START: &str = "{\"name\":\"msg\",\"cat\":\"msg\",\"ph\":\"s\",\"id\":";
const FLOW_FINISH: &str = "{\"name\":\"msg\",\"cat\":\"msg\",\"ph\":\"f\",\"bp\":\"e\",\"id\":";

impl<W: Write + Send> ChromeTraceWriter<W> {
    /// Start writing: emits the array opener.
    pub fn new(mut out: W) -> io::Result<Self> {
        out.write_all(b"[\n")?;
        Ok(Self {
            out,
            buf: Vec::with_capacity(CHROME_CHUNK + 512),
            sep: b"",
            tracks: Vec::new(),
            first_tid: 0,
            ts_bits: 0,
            ts_text: b"0".to_vec(),
            error: None,
        })
    }

    /// Start a record with `head`.
    fn open(&mut self, head: &str) {
        self.buf.extend_from_slice(self.sep);
        self.sep = b",\n";
        self.buf.extend_from_slice(head.as_bytes());
    }

    /// The flow id after a flow head, and the `,"ts":` that follows it.
    fn flow_id(&mut self, flow: u64) {
        push_int(&mut self.buf, flow);
        self.buf.extend_from_slice(b",\"ts\":");
    }

    /// The timestamp `ts` (microseconds), formatted once per distinct value.
    fn stamp(&mut self, ts: f64) {
        if ts.to_bits() != self.ts_bits {
            self.ts_bits = ts.to_bits();
            self.ts_text.clear();
            crate::shortest::push_f64(&mut self.ts_text, ts);
        }
        self.buf.extend_from_slice(&self.ts_text);
    }

    /// `,"args":{"<first>":<a>,"<second>":<b>}}`, given `first` as
    /// `,"args":{"<first>":` and `second` as `,"<second>":`.
    fn args(&mut self, first: &str, a: u64, second: &str, b: u64) {
        self.buf.extend_from_slice(first.as_bytes());
        push_int(&mut self.buf, a);
        self.buf.extend_from_slice(second.as_bytes());
        push_int(&mut self.buf, b);
        self.buf.extend_from_slice(b"}}");
    }

    /// `,"args":{"op_index":<i>}}`, -1 for none.
    fn op_arg(&mut self, op_index: Option<usize>) {
        self.buf.extend_from_slice(b",\"args\":{\"op_index\":");
        match op_index {
            Some(i) => push_int(&mut self.buf, i as u64),
            None => self.buf.extend_from_slice(b"-1"),
        }
        self.buf.extend_from_slice(b"}}");
    }

    /// Hand the buffer to the output once it is a chunk long.
    fn close(&mut self) -> io::Result<()> {
        if self.buf.len() >= CHROME_CHUNK {
            self.spill()?;
        }
        Ok(())
    }

    fn spill(&mut self) -> io::Result<()> {
        let written = self.out.write_all(&self.buf);
        self.buf.clear();
        written
    }

    /// The slot of `tid` in `tracks`; gives the track its name record and
    /// cached suffix the first time.
    fn track(&mut self, tid: RankId) -> usize {
        if self.tracks.is_empty() || tid < self.first_tid {
            let grow = if self.tracks.is_empty() { 1 } else { self.first_tid - tid };
            self.tracks.splice(0..0, std::iter::repeat_with(Box::default).take(grow));
            self.first_tid = tid;
        }
        let slot = tid - self.first_tid;
        if slot >= self.tracks.len() {
            self.tracks.resize(slot + 1, Box::default());
        }
        if self.tracks[slot].is_empty() {
            let mut suffix = b",\"pid\":0,\"tid\":".to_vec();
            push_int(&mut suffix, tid as u64);
            self.open("{\"name\":\"thread_name\",\"ph\":\"M\"");
            self.buf.extend_from_slice(&suffix);
            self.buf.extend_from_slice(b",\"args\":{\"name\":\"rank ");
            push_int(&mut self.buf, tid as u64);
            self.buf.extend_from_slice(b"\"}}");
            self.tracks[slot] = suffix.into_boxed_slice();
        }
        slot
    }

    /// The record's timestamp (`ts` microseconds) and the suffix of the
    /// track in slot `track`.
    fn at(&mut self, ts: f64, track: usize) {
        self.stamp(ts);
        self.buf.extend_from_slice(&self.tracks[track]);
    }

    fn write_event(&mut self, e: &TraceEvent) -> io::Result<()> {
        let (ts, track) = (e.time * 1e6, self.track(e.rank));
        match (e.kind, &e.detail) {
            (TraceKind::OpStart, detail) => {
                self.open(op_head(detail));
                self.at(ts, track);
                self.op_arg(e.op_index);
            }
            (TraceKind::OpEnd, _) => {
                self.open(OP_END);
                self.at(ts, track);
                self.buf.push(b'}');
            }
            (TraceKind::BlockStart, detail) => {
                self.open(block_head(detail));
                self.at(ts, track);
                self.op_arg(e.op_index);
            }
            (TraceKind::BlockEnd, _) => {
                // A blocked op emits no `OpEnd` of its own — resolving the
                // block ends both the block span and the op span around it.
                for head in [BLOCK_END, OP_END] {
                    self.open(head);
                    self.at(ts, track);
                    self.buf.push(b'}');
                }
            }
            (TraceKind::MsgInjected, &TraceDetail::Inject { dst, bytes, flow, .. }) => {
                self.open(FLOW_START);
                self.flow_id(flow);
                self.at(ts, track);
                self.args(",\"args\":{\"dst\":", dst as u64, ",\"bytes\":", bytes);
            }
            (TraceKind::NotifyVisible | TraceKind::MsgDelivered, &TraceDetail::Arrival { src, bytes, flow, .. }) => {
                self.open(if e.kind == TraceKind::NotifyVisible {
                    head!("notify_visible", "msg", "i", ",\"s\":\"t\"")
                } else {
                    head!("delivered", "msg", "i", ",\"s\":\"t\"")
                });
                self.at(ts, track);
                self.args(",\"args\":{\"src\":", src as u64, ",\"bytes\":", bytes);
                self.open(FLOW_FINISH);
                self.flow_id(flow);
                self.at(ts, track);
                self.buf.push(b'}');
            }
            // A message kind whose detail is not the message's.
            (kind, _) => {
                self.open(match kind {
                    TraceKind::MsgInjected => head!("MsgInjected", "misc", "i", ",\"s\":\"t\""),
                    TraceKind::MsgDelivered => head!("MsgDelivered", "misc", "i", ",\"s\":\"t\""),
                    _ => head!("NotifyVisible", "misc", "i", ",\"s\":\"t\""),
                });
                self.at(ts, track);
                self.buf.push(b'}');
            }
        }
        self.close()
    }

    /// Emit one `C` (counter) sample: `value` is 1 at the start of a busy
    /// interval of `link` and 0 at its end, so Perfetto renders the link's
    /// utilization timeline as a square wave.  The link's label is escaped
    /// into the counter's name.
    pub fn write_link_sample(&mut self, link: &str, ts_seconds: f64, value: u32) -> io::Result<()> {
        self.open("{\"name\":\"link:");
        push_json_str(&mut self.buf, link);
        self.buf.extend_from_slice(b"\",\"cat\":\"link\",\"ph\":\"C\",\"ts\":");
        self.stamp(ts_seconds * 1e6);
        self.buf.extend_from_slice(b",\"pid\":1,\"args\":{\"busy\":");
        push_int(&mut self.buf, u64::from(value));
        self.buf.extend_from_slice(b"}}");
        self.close()
    }

    /// Write one event.  Infallible, so it can sit in a plain `for` loop:
    /// the first write error is kept for [`Self::finish`] and nothing is
    /// written after it.
    pub fn record(&mut self, event: &TraceEvent) {
        if self.error.is_none() {
            self.error = self.write_event(event).err();
        }
    }

    /// Close the JSON array and flush; returns the first error of any
    /// earlier write.  Call once, after the last event.
    pub fn finish(&mut self) -> io::Result<()> {
        if let Some(error) = self.error.take() {
            return Err(error);
        }
        self.buf.extend_from_slice(b"\n]\n");
        self.spill()?;
        self.out.flush()
    }
}

/// Write a complete Chrome trace: every event of `events` (a [`Trace`], or
/// a slice already in canonical order) plus one counter track per fabric
/// link with recorded busy intervals.
pub fn write_chrome_trace<W: Write + Send>(
    out: W,
    events: impl IntoIterator<Item: Borrow<TraceEvent>>,
    links: &[LinkStats],
) -> io::Result<()> {
    let mut w = ChromeTraceWriter::new(out)?;
    for e in events {
        w.write_event(e.borrow())?;
    }
    for link in links {
        for &(start, end) in &link.busy_intervals {
            w.write_link_sample(&link.label, start, 1)?;
            w.write_link_sample(&link.label, end, 0)?;
        }
    }
    w.finish()
}

// ---------------------------------------------------------------------------
// Chrome trace validation / summarization
// ---------------------------------------------------------------------------

/// Aggregates extracted from an exported Chrome trace file by
/// [`validate_chrome_trace`]; printed by `cargo run -p xtask -- trace-stats`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ChromeTraceStats {
    /// Total number of JSON events in the file.
    pub events: usize,
    /// Number of distinct `(pid, tid)` tracks with at least one span.
    pub tracks: usize,
    /// Number of completed `B`/`E` span pairs.
    pub spans: usize,
    /// Number of flow-start (`s`) events.
    pub flow_starts: usize,
    /// Number of flow-finish (`f`) events.
    pub flow_ends: usize,
    /// Flow starts and finishes whose pair is missing (non-zero only for
    /// filtered traces whose peer rank fell outside the rank window).
    pub dangling_flows: usize,
    /// Total span wall time per span name, sorted by descending time.
    pub span_time_by_name: Vec<(String, f64, usize)>,
    /// Per-counter-track (link) busy time integrated from `C` samples.
    pub counter_busy: Vec<(String, f64)>,
    /// Largest timestamp seen, in seconds.
    pub end_time: f64,
}

/// Parse and validate an exported Chrome Trace Event JSON file: the file
/// must be a JSON array of objects, every event needs `ph`/`ts`/`pid`
/// fields, and `B`/`E` spans must nest correctly per track.  Unpaired flow
/// arrows are tallied as `dangling_flows` (legal in rank-windowed traces)
/// rather than rejected.  Returns aggregate statistics on success and a
/// description of the first violation on failure.
pub fn validate_chrome_trace(json: &str) -> Result<ChromeTraceStats, String> {
    let mut stats = ChromeTraceStats::default();
    // Per-track open-span stack: (name, ts).
    let mut open: BTreeMap<(i64, i64), Vec<(String, f64)>> = BTreeMap::new();
    let mut span_time: BTreeMap<String, (f64, usize)> = BTreeMap::new();
    let mut flows: BTreeMap<u64, (usize, usize)> = BTreeMap::new();
    // Per-counter last (ts, value) for busy-time integration.
    let mut counters: BTreeMap<String, (f64, f64, f64)> = BTreeMap::new();
    // One event is parsed, checked and dropped at a time: the file is never
    // held as a document tree.
    minijson::for_each_element(json, |ev| {
        let i = stats.events;
        stats.events += 1;
        let obj = ev.as_object().ok_or_else(|| format!("event {i} is not an object"))?;
        let ph = obj.get_str("ph").ok_or_else(|| format!("event {i} lacks a \"ph\" field"))?;
        if ph == "M" {
            // Metadata events carry no timestamp.
            return Ok(());
        }
        let ts = obj.get_num("ts").ok_or_else(|| format!("event {i} lacks a numeric \"ts\" field"))?;
        let pid = obj.get_num("pid").ok_or_else(|| format!("event {i} lacks a \"pid\" field"))? as i64;
        let name = obj.get_str("name").unwrap_or("");
        stats.end_time = stats.end_time.max(ts / 1e6);
        let tid = obj.get_num("tid").unwrap_or(0.0) as i64;
        match ph {
            "B" => open.entry((pid, tid)).or_default().push((name.to_string(), ts)),
            "E" => {
                let stack = open.get_mut(&(pid, tid));
                let (open_name, start) = stack
                    .and_then(Vec::pop)
                    .ok_or_else(|| format!("event {i}: \"E\" on track {pid}/{tid} without an open \"B\""))?;
                if ts + 1e-9 < start {
                    return Err(format!("event {i}: span \"{open_name}\" ends before it starts"));
                }
                let entry = span_time.entry(open_name).or_insert((0.0, 0));
                entry.0 += (ts - start) / 1e6;
                entry.1 += 1;
                stats.spans += 1;
            }
            "s" => {
                let id = obj.get_num("id").ok_or_else(|| format!("event {i}: flow start without an id"))? as u64;
                flows.entry(id).or_insert((0, 0)).0 += 1;
                stats.flow_starts += 1;
            }
            "f" => {
                // A finish without a start is legal in a rank-windowed
                // trace (the sender fell outside the window); it is counted
                // as dangling below rather than rejected.
                let id = obj.get_num("id").ok_or_else(|| format!("event {i}: flow finish without an id"))? as u64;
                flows.entry(id).or_insert((0, 0)).1 += 1;
                stats.flow_ends += 1;
            }
            "C" => {
                let v = obj.get("args").and_then(|a| a.as_object()).and_then(|a| a.get_num("busy")).unwrap_or(0.0);
                let entry = counters.entry(name.to_string()).or_insert((ts, 0.0, 0.0));
                if entry.2 > 0.0 {
                    entry.1 += (ts - entry.0) / 1e6;
                }
                entry.0 = ts;
                entry.2 = v;
            }
            "M" | "i" => {}
            other => return Err(format!("event {i}: unknown phase {other:?}")),
        }
        Ok(())
    })?;
    for ((pid, tid), stack) in &open {
        if let Some((name, _)) = stack.last() {
            return Err(format!("span \"{name}\" on track {pid}/{tid} never ends"));
        }
    }
    stats.tracks = open.len();
    stats.dangling_flows = flows.values().map(|&(s, f)| s.abs_diff(f)).sum();
    stats.span_time_by_name = span_time.into_iter().map(|(n, (t, c))| (n, t, c)).collect();
    stats.span_time_by_name.sort_by(|a, b| b.1.total_cmp(&a.1));
    stats.counter_busy = counters.into_iter().map(|(n, (_, busy, _))| (n, busy)).collect();
    Ok(stats)
}

/// Minimal recursive-descent JSON parser — the workspace builds offline, so
/// trace validation cannot lean on serde.  Supports exactly the grammar the
/// writer emits (and general JSON): null, booleans, numbers, strings with
/// escapes, arrays and objects.
mod minijson {
    #[derive(Debug, Clone, PartialEq)]
    pub(super) enum Value {
        Null,
        Bool(bool),
        Num(f64),
        Str(String),
        Array(Vec<Value>),
        Object(Obj),
    }

    #[derive(Debug, Clone, PartialEq, Default)]
    pub(super) struct Obj(pub(super) Vec<(String, Value)>);

    impl Obj {
        pub(super) fn get(&self, key: &str) -> Option<&Value> {
            self.0.iter().find(|(k, _)| k == key).map(|(_, v)| v)
        }
        pub(super) fn get_str(&self, key: &str) -> Option<&str> {
            match self.get(key) {
                Some(Value::Str(s)) => Some(s),
                _ => None,
            }
        }
        pub(super) fn get_num(&self, key: &str) -> Option<f64> {
            match self.get(key) {
                Some(Value::Num(n)) => Some(*n),
                _ => None,
            }
        }
    }

    impl Value {
        pub(super) fn as_object(&self) -> Option<&Obj> {
            match self {
                Value::Object(o) => Some(o),
                _ => None,
            }
        }
    }

    /// Parse `input` as one JSON array and hand its elements to `each` one
    /// at a time, in order, dropping each afterwards.
    pub(super) fn for_each_element(input: &str, each: impl FnMut(Value) -> Result<(), String>) -> Result<(), String> {
        let bytes = input.as_bytes();
        let mut pos = 0;
        skip_ws(bytes, &mut pos);
        let is_array = bytes.get(pos) == Some(&b'[');
        if is_array {
            array_items(bytes, &mut pos, each)?;
        } else {
            parse_value(bytes, &mut pos)?;
        }
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing garbage at byte {pos}"));
        }
        if is_array {
            Ok(())
        } else {
            Err("top-level JSON value is not an array".into())
        }
    }

    fn skip_ws(b: &[u8], pos: &mut usize) {
        while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
            *pos += 1;
        }
    }

    fn parse_value(b: &[u8], pos: &mut usize) -> Result<Value, String> {
        skip_ws(b, pos);
        match b.get(*pos) {
            None => Err("unexpected end of input".into()),
            Some(b'{') => parse_object(b, pos),
            Some(b'[') => parse_array(b, pos),
            Some(b'"') => Ok(Value::Str(parse_string(b, pos)?)),
            Some(b't') => parse_lit(b, pos, "true", Value::Bool(true)),
            Some(b'f') => parse_lit(b, pos, "false", Value::Bool(false)),
            Some(b'n') => parse_lit(b, pos, "null", Value::Null),
            Some(_) => parse_number(b, pos),
        }
    }

    fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, v: Value) -> Result<Value, String> {
        if b[*pos..].starts_with(lit.as_bytes()) {
            *pos += lit.len();
            Ok(v)
        } else {
            Err(format!("invalid literal at byte {pos}", pos = *pos))
        }
    }

    fn parse_number(b: &[u8], pos: &mut usize) -> Result<Value, String> {
        let start = *pos;
        while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
            *pos += 1;
        }
        std::str::from_utf8(&b[start..*pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(Value::Num)
            .ok_or_else(|| format!("invalid number at byte {start}"))
    }

    fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
        debug_assert_eq!(b[*pos], b'"');
        *pos += 1;
        let mut s = String::new();
        while let Some(&c) = b.get(*pos) {
            match c {
                b'"' => {
                    *pos += 1;
                    return Ok(s);
                }
                b'\\' => {
                    *pos += 1;
                    match b.get(*pos) {
                        Some(b'"') => s.push('"'),
                        Some(b'\\') => s.push('\\'),
                        Some(b'/') => s.push('/'),
                        Some(b'n') => s.push('\n'),
                        Some(b't') => s.push('\t'),
                        Some(b'r') => s.push('\r'),
                        Some(b'b') => s.push('\u{8}'),
                        Some(b'f') => s.push('\u{c}'),
                        Some(b'u') => {
                            let hex = b
                                .get(*pos + 1..*pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or("invalid \\u escape")?;
                            s.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                            *pos += 4;
                        }
                        _ => return Err("invalid escape".into()),
                    }
                    *pos += 1;
                }
                _ => {
                    // Multi-byte UTF-8 sequences pass through verbatim.
                    let ch_len = utf8_len(c);
                    let chunk = b.get(*pos..*pos + ch_len).ok_or("truncated UTF-8 sequence")?;
                    s.push_str(std::str::from_utf8(chunk).map_err(|e| e.to_string())?);
                    *pos += ch_len;
                }
            }
        }
        Err("unterminated string".into())
    }

    fn utf8_len(first: u8) -> usize {
        match first {
            0x00..=0x7f => 1,
            0xc0..=0xdf => 2,
            0xe0..=0xef => 3,
            _ => 4,
        }
    }

    fn parse_array(b: &[u8], pos: &mut usize) -> Result<Value, String> {
        let mut items = Vec::new();
        array_items(b, pos, |item| {
            items.push(item);
            Ok(())
        })?;
        Ok(Value::Array(items))
    }

    /// Parse the array starting at `b[*pos]`, passing each element to `each`.
    fn array_items(b: &[u8], pos: &mut usize, mut each: impl FnMut(Value) -> Result<(), String>) -> Result<(), String> {
        *pos += 1; // '['
        skip_ws(b, pos);
        if b.get(*pos) == Some(&b']') {
            *pos += 1;
            return Ok(());
        }
        loop {
            each(parse_value(b, pos)?)?;
            skip_ws(b, pos);
            match b.get(*pos) {
                Some(b',') => *pos += 1,
                Some(b']') => {
                    *pos += 1;
                    return Ok(());
                }
                _ => return Err(format!("expected ',' or ']' at byte {pos}", pos = *pos)),
            }
        }
    }

    fn parse_object(b: &[u8], pos: &mut usize) -> Result<Value, String> {
        *pos += 1; // '{'
        let mut fields = Vec::new();
        skip_ws(b, pos);
        if b.get(*pos) == Some(&b'}') {
            *pos += 1;
            return Ok(Value::Object(Obj(fields)));
        }
        loop {
            skip_ws(b, pos);
            if b.get(*pos) != Some(&b'"') {
                return Err(format!("expected object key at byte {pos}", pos = *pos));
            }
            let key = parse_string(b, pos)?;
            skip_ws(b, pos);
            if b.get(*pos) != Some(&b':') {
                return Err(format!("expected ':' at byte {pos}", pos = *pos));
            }
            *pos += 1;
            let value = parse_value(b, pos)?;
            fields.push((key, value));
            skip_ws(b, pos);
            match b.get(*pos) {
                Some(b',') => *pos += 1,
                Some(b'}') => {
                    *pos += 1;
                    return Ok(Value::Object(Obj(fields)));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {pos}", pos = *pos)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The canonical order by a global sort: the reference `Trace::iter`'s
    /// merge is checked against.
    fn sort_trace(events: &mut [TraceEvent]) {
        events.sort_unstable_by(|a, b| {
            a.time.total_cmp(&b.time).then_with(|| a.rank.cmp(&b.rank)).then_with(|| a.seq.cmp(&b.seq))
        });
    }

    #[test]
    fn trace_event_round_trip() {
        let e = TraceEvent::new(
            1.5e-6,
            3,
            TraceKind::MsgInjected,
            Some(2),
            7,
            TraceDetail::Inject { dst: 4, bytes: 1024, label: MsgLabel::Notify(0), flow: (3 << 32) | 1 },
        );
        assert_eq!(e.rank, 3);
        assert_eq!(e.kind, TraceKind::MsgInjected);
        assert_eq!(e.op_index, Some(2));
        assert!(matches!(e.detail, TraceDetail::Inject { bytes: 1024, .. }));
    }

    #[test]
    fn sort_is_canonical_by_time_rank_seq() {
        let ev = |t, r, s| TraceEvent::new(t, r, TraceKind::OpStart, None, s, TraceDetail::None);
        let mut trace = vec![ev(2.0, 0, 0), ev(1.0, 1, 5), ev(1.0, 1, ARRIVAL_SEQ), ev(1.0, 0, 9)];
        sort_trace(&mut trace);
        let key: Vec<(f64, usize, u64)> = trace.iter().map(|e| (e.time, e.rank, e.seq)).collect();
        assert_eq!(key, vec![(1.0, 0, 9), (1.0, 1, 5), (1.0, 1, ARRIVAL_SEQ), (2.0, 0, 0)]);
    }

    #[test]
    fn filter_window_and_sampling() {
        let f = TraceFilter::window(4, 7);
        assert!(!f.keeps(3) && f.keeps(4) && f.keeps(7) && !f.keeps(8));
        let s = TraceFilter { sample: 4, ..TraceFilter::default() };
        assert!(s.keeps(0) && !s.keeps(2) && s.keeps(8));
        assert!(TraceFilter::all().is_full());
        assert!(!f.is_full());
    }

    #[test]
    fn chrome_writer_produces_valid_pairing_json() {
        let mut events = vec![
            TraceEvent::new(0.0, 0, TraceKind::OpStart, Some(0), 0, TraceDetail::Op { op: OpClass::PutNotify }),
            TraceEvent::new(
                1e-6,
                0,
                TraceKind::MsgInjected,
                Some(0),
                1,
                TraceDetail::Inject { dst: 1, bytes: 64, label: MsgLabel::Notify(0), flow: 1 },
            ),
            TraceEvent::new(1e-6, 0, TraceKind::OpEnd, Some(0), 2, TraceDetail::None),
            TraceEvent::new(
                3e-6,
                1,
                TraceKind::NotifyVisible,
                None,
                ARRIVAL_SEQ,
                TraceDetail::Arrival {
                    src: 0,
                    bytes: 64,
                    label: MsgLabel::Notify(0),
                    flow: 1,
                    inject: 1e-6,
                    queue: 0.0,
                    wire: 1e-6,
                },
            ),
        ];
        sort_trace(&mut events);
        let link = LinkStats {
            label: "leaf0->core".into(),
            capacity: 1e9,
            bytes: 64.0,
            busy_time: 1e-6,
            saturated_time: 0.0,
            busy_intervals: vec![(1e-6, 2e-6)],
            ..LinkStats::default()
        };
        let mut buf = Vec::new();
        write_chrome_trace(&mut buf, &events, std::slice::from_ref(&link)).unwrap();
        let json = String::from_utf8(buf).unwrap();
        let stats = validate_chrome_trace(&json).unwrap();
        assert_eq!(stats.spans, 1);
        assert_eq!(stats.flow_starts, 1);
        assert_eq!(stats.flow_ends, 1);
        assert_eq!(stats.dangling_flows, 0);
        assert_eq!(stats.counter_busy.len(), 1);
        assert!((stats.counter_busy[0].1 - 1e-6).abs() < 1e-12);
    }

    #[test]
    fn validator_rejects_unbalanced_spans() {
        let bad = r#"[{"name":"op","ph":"E","ts":1.0,"pid":0,"tid":0}]"#;
        assert!(validate_chrome_trace(bad).is_err());
        let unclosed = r#"[{"name":"op","ph":"B","ts":1.0,"pid":0,"tid":0}]"#;
        assert!(validate_chrome_trace(unclosed).is_err());
        // An orphan flow finish is legal (the start may have been filtered
        // out by a rank window) but must be reported as dangling.
        let orphan_flow = r#"[{"name":"msg","ph":"f","id":3,"ts":1.0,"pid":0,"tid":0}]"#;
        assert_eq!(validate_chrome_trace(orphan_flow).expect("orphan finish is dangling").dangling_flows, 1);
        assert!(validate_chrome_trace("not json").is_err());
    }
    /// Hand-built event: only the merge key and the channel matter here.
    fn keyed(time: f64, rank: RankId, seq: u64) -> TraceEvent {
        let kind = if seq & ARRIVAL_SEQ == 0 { TraceKind::OpStart } else { TraceKind::NotifyVisible };
        TraceEvent::new(time, rank, kind, None, seq, TraceDetail::None)
    }

    #[test]
    fn windowed_trace_is_the_subsequence_of_the_full_one() {
        let filter = TraceFilter { first_rank: 3, last_rank: 12, sample: 3 };
        let mut full = Trace::new(TraceFilter::all(), 16);
        let mut windowed = Trace::new(filter, 16);
        for step in 0..40u64 {
            for rank in 0..16 {
                let own = keyed((step / 4) as f64, rank, step);
                let arrival = keyed((step / 3) as f64 + 0.5, rank, ARRIVAL_SEQ | step);
                for e in [own, arrival] {
                    full.record(e);
                    windowed.record(e);
                }
            }
        }
        full.seal();
        windowed.seal();
        // Ranks 3, 6, 9 and 12: the table covers the window, not all ranks.
        assert_eq!(windowed.streams.len(), 8);
        assert_eq!(windowed.len(), 4 * 80);
        assert!(windowed.iter().eq(full.iter().filter(|e| filter.keeps(e.rank))));
        assert_eq!(windowed.rank(6), full.rank(6));
        let (own, arrivals) = windowed.rank(7);
        assert!(own.is_empty() && arrivals.is_empty());
        assert_ne!(windowed, full);
    }

    /// A window whose first rank is off the sample grid: with first rank 5
    /// and sample 2 the kept ranks are 6, 8, …, 20, and stream slot `s`
    /// belongs to rank `6 + 2 s`, not `5 + 2 s`.
    #[test]
    fn windowed_trace_whose_first_rank_is_off_the_sample_grid() {
        let filter = TraceFilter { first_rank: 5, last_rank: 20, sample: 2 };
        let mut full = Trace::new(TraceFilter::all(), 24);
        let mut windowed = Trace::new(filter, 24);
        for step in 0..12u64 {
            for rank in 0..24 {
                for e in [keyed(step as f64, rank, step), keyed(step as f64 + 0.5, rank, ARRIVAL_SEQ | step)] {
                    full.record(e);
                    windowed.record(e);
                }
            }
        }
        full.seal();
        windowed.seal();
        let ranks: Vec<RankId> = windowed.per_rank().map(|(rank, ..)| rank).collect();
        assert_eq!(ranks, (6..=20).step_by(2).collect::<Vec<_>>());
        for (rank, own, arrivals) in windowed.per_rank() {
            assert_eq!((own, arrivals), full.rank(rank), "rank {rank}");
            assert!(own.iter().chain(arrivals.iter()).all(|e| e.rank == rank));
        }
        let (own, arrivals) = windowed.rank(6);
        assert_eq!((own.len(), arrivals.len()), (12, 12));
        assert_eq!(windowed.rank(6), full.rank(6));
        assert_eq!(own.get(3), full.rank(6).0.get(3));
        assert!(windowed.iter().eq(full.iter().filter(|e| filter.keeps(e.rank))));
    }

    /// Every field of an event survives the 32-byte record and the side
    /// tables bit for bit, including the values at the edges of each
    /// narrowed or sentinel-coded field.
    #[test]
    fn records_round_trip_extreme_values() {
        assert!(size_of::<Record>() <= 32, "{} bytes", size_of::<Record>());
        let widest = u32::MAX as usize - 1;
        let arrival = |label| TraceDetail::Arrival {
            src: usize::MAX,
            bytes: u64::MAX,
            label,
            flow: u64::MAX,
            inject: -0.0,
            queue: f64::from_bits(1),
            wire: f64::MAX,
        };
        let details = [
            TraceDetail::None,
            TraceDetail::Op { op: OpClass::WaitNotifyAny },
            TraceDetail::Block { reason: BlockReason::Recv { src: usize::MAX, tag: u32::MAX } },
            TraceDetail::Block { reason: BlockReason::Recv { src: 0, tag: 0 } },
            TraceDetail::Block { reason: BlockReason::Notify },
            TraceDetail::Block { reason: BlockReason::SendTxDone },
            TraceDetail::Block { reason: BlockReason::AllSends },
            TraceDetail::Block { reason: BlockReason::Barrier },
            TraceDetail::Inject { dst: 0, bytes: u64::MAX, label: MsgLabel::Notify(u32::MAX), flow: u64::MAX },
            TraceDetail::Inject { dst: usize::MAX, bytes: 0, label: MsgLabel::Tag(0), flow: 0 },
            arrival(MsgLabel::Notify(0)),
            arrival(MsgLabel::Tag(u32::MAX)),
        ];
        let times = [-0.0, 0.0, f64::from_bits(1), f64::MIN_POSITIVE / 2.0, f64::MAX];
        let ops = [None, Some(0), Some(widest), Some(widest + 1), Some(usize::MAX)];
        let kinds = [TraceKind::OpStart, TraceKind::BlockEnd, TraceKind::MsgInjected, TraceKind::NotifyVisible];
        let mut events = Vec::new();
        for (i, detail) in details.into_iter().enumerate() {
            for (j, op_index) in ops.into_iter().enumerate() {
                let n = (i * ops.len() + j) as u64;
                let channel = if j % 2 == 0 { 0 } else { ARRIVAL_SEQ };
                let seq = channel | if n == 0 { ARRIVAL_SEQ - 1 } else { n };
                let kind = kinds[(i + j) % kinds.len()];
                events.push(TraceEvent::new(times[(i + j) % times.len()], 7, kind, op_index, seq, detail));
            }
        }
        let debug = |events: &[TraceEvent]| events.iter().map(|e| format!("{e:?}")).collect::<Vec<_>>();
        let mut sorted = events.clone();
        sort_trace(&mut sorted);
        let trace = Trace::from_events(events.clone());
        let stored: Vec<TraceEvent> = trace.iter().collect();
        assert_eq!(debug(&stored), debug(&sorted), "every field, bit for bit");
        assert_eq!(trace.wide.len(), 2 * details.len(), "only op indices above the widest stored one spill");
        assert_eq!(trace.details.len(), 6 * 3, "the payload details of the inline-op events");

        // The other recording order fills the side tables in another order:
        // the same trace.
        events.reverse();
        assert_eq!(Trace::from_events(events.clone()), trace);
        // `None` and the widest stored index are different events, and so
        // are the widest stored index and the first spilled one.
        for (a, b) in [(None, Some(widest)), (Some(widest), Some(widest + 1))] {
            let one = |op_index| {
                Trace::from_events(vec![TraceEvent::new(0.0, 0, TraceKind::OpEnd, op_index, 0, TraceDetail::None)])
            };
            assert_ne!(one(a), one(b));
            assert_eq!(one(a).iter().next().map(|e| e.op_index), Some(a));
        }
    }

    #[test]
    fn link_labels_are_escaped_into_the_counter_name() {
        let label = "sw\\\"0\"->\tleaf\u{1}";
        let link = LinkStats { label: label.into(), busy_intervals: vec![(1e-6, 3e-6)], ..LinkStats::default() };
        let mut buf = Vec::new();
        write_chrome_trace(&mut buf, &[] as &[TraceEvent], std::slice::from_ref(&link)).unwrap();
        let stats = validate_chrome_trace(std::str::from_utf8(&buf).unwrap()).expect("an escaped label validates");
        assert_eq!(stats.counter_busy.len(), 1);
        assert_eq!(stats.counter_busy[0].0, format!("link:{label}"));
        assert!((stats.counter_busy[0].1 - 2e-6).abs() < 1e-12);
    }

    /// The static span heads spell the same names as `OpClass::name` and
    /// `BlockReason::name`.
    #[test]
    fn span_heads_carry_the_display_names() {
        let ops = [
            OpClass::Compute,
            OpClass::Reduce,
            OpClass::Copy,
            OpClass::PutNotify,
            OpClass::Notify,
            OpClass::WaitNotify,
            OpClass::WaitNotifyAny,
            OpClass::Send,
            OpClass::Isend,
            OpClass::Recv,
            OpClass::WaitAllSends,
            OpClass::Barrier,
        ];
        for op in ops {
            let want = format!("{{\"name\":\"{}\",\"cat\":\"op\",\"ph\":\"B\",\"ts\":", op.name());
            assert_eq!(op_head(&TraceDetail::Op { op }), want);
        }
        let reasons = [
            BlockReason::Recv { src: 0, tag: 0 },
            BlockReason::Notify,
            BlockReason::SendTxDone,
            BlockReason::AllSends,
            BlockReason::Barrier,
        ];
        for reason in reasons {
            let want = format!("{{\"name\":\"blocked:{}\",\"cat\":\"block\",\"ph\":\"B\",\"ts\":", reason.name());
            assert_eq!(block_head(&TraceDetail::Block { reason }), want);
        }
    }

    /// The per-track table covers the tids seen, not every tid below them,
    /// and a lower tid arriving later still gets its own suffix.
    #[test]
    fn track_table_spans_only_the_tids_seen() {
        let instant = |tid| TraceEvent::new(1e-6, tid, TraceKind::MsgInjected, None, 0, TraceDetail::None);
        let mut writer = ChromeTraceWriter::new(Vec::new()).unwrap();
        for tid in [1_000_005, 1_000_000, 1_000_003, 1_000_005] {
            writer.record(&instant(tid));
        }
        assert_eq!((writer.first_tid, writer.tracks.len()), (1_000_000, 6));
        writer.finish().unwrap();
        let json = String::from_utf8(writer.out).unwrap();
        assert_eq!(validate_chrome_trace(&json).unwrap().events, 7, "three name records and four instants");
        for (tid, records) in [(1_000_000, 1), (1_000_003, 1), (1_000_005, 2)] {
            assert_eq!(json.matches(&format!("\"tid\":{tid}}}")).count(), records, "tid {tid}");
        }
    }

    #[test]
    fn integers_are_written_two_digits_at_a_time() {
        for n in [0, 7, 9, 10, 42, 99, 100, 101, 999, 1000, 65_535, 1 << 32, u64::MAX / 10, u64::MAX] {
            let mut buf = Vec::new();
            push_int(&mut buf, n);
            assert_eq!(String::from_utf8(buf).unwrap(), n.to_string());
        }
    }

    #[test]
    fn stream_table_is_sized_by_the_filter_not_by_the_rank_count() {
        let window = Trace::new(TraceFilter::window(1_000_000, 1_000_015), 1 << 20);
        assert_eq!(window.streams.len(), 32, "two streams for each of sixteen ranks");
        let sampled = Trace::new(TraceFilter { sample: 1 << 16, ..TraceFilter::all() }, 1 << 20);
        assert_eq!(sampled.streams.len(), 32);
        assert!(Trace::new(TraceFilter::window(8, 9), 4).streams.is_empty(), "window beyond the last rank");
        assert!(Trace::new(TraceFilter::all(), 0).streams.is_empty());
    }

    #[test]
    fn windowed_trace_of_a_large_run_keeps_a_window_sized_table() {
        use crate::{ClusterSpec, CostModel, Engine, ProgramBuilder};
        let p = 1 << 17;
        let mut b = ProgramBuilder::new(p);
        for r in 0..p {
            b.put_notify(r, (r + 1) % p, 4096, 0);
            b.wait_notify(r, &[0]);
        }
        let program = b.build();
        let filter = TraceFilter::window(100_000, 100_015);
        let engine = Engine::new(ClusterSpec::homogeneous(p, 1), CostModel::skylake_fdr());
        let report = engine.with_trace_filter(filter).run(&program).expect("the ring must simulate");
        assert!(report.metrics.dataflow_burst_ops > 0);
        assert_eq!(report.trace.streams.len(), 32, "sixteen kept ranks, not {p}");
        assert_eq!(report.trace.iter().filter(|e| e.kind == TraceKind::NotifyVisible).count(), 16);
        assert!(report.trace.iter().all(|e| filter.keeps(e.rank)));
    }

    mod merge {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// The on-demand merge is the global sort: for event sets full of
            /// exact time ties (across ranks, within a rank, between a rank's
            /// own events and its arrivals), recorded in any order, with
            /// empty ranks, no or one event.
            #[test]
            fn iter_matches_the_global_sort(seed in 0u64..u64::MAX) {
                let mut rng = TestRng::seed_from_u64(seed);
                let mut pick = move |n: usize| (rng.next_u64() % n as u64) as usize;
                let (base, ranks) = (pick(3) * 5, 1 + pick(12));
                let count = [0, 1, 2, 40, 300][pick(5)];
                let times = [-1.0, -0.0, 0.0, 0.25, 0.5, 1.0, 1.0 + f64::EPSILON, 7.5];
                let mut next_seq = vec![[0u64, ARRIVAL_SEQ]; ranks];
                let mut events = Vec::new();
                for _ in 0..count {
                    // Skewed towards a few ranks, so some stay empty.
                    let busy = 1 + pick(ranks);
                    let (rank, channel) = (pick(busy), pick(2));
                    let seq = &mut next_seq[rank][channel];
                    events.push(keyed(times[pick(times.len())], base + rank, *seq));
                    *seq += 1 + pick(2) as u64;
                }
                let mut sorted = events.clone();
                sort_trace(&mut sorted);

                let trace = Trace::from_events(events.clone());
                prop_assert_eq!(trace.len(), sorted.len());
                prop_assert_eq!(trace.is_empty(), sorted.is_empty());
                let mut it = trace.iter();
                for (i, want) in sorted.iter().enumerate() {
                    prop_assert_eq!(it.len(), sorted.len() - i);
                    prop_assert_eq!(it.size_hint(), (sorted.len() - i, Some(sorted.len() - i)));
                    prop_assert_eq!(it.next(), Some(*want));
                }
                prop_assert_eq!(it.size_hint(), (0, Some(0)));
                prop_assert_eq!(it.next(), None);
                prop_assert!((&trace).into_iter().eq(sorted.iter().copied()));

                // A permutation of the same events is the same trace.
                let mut shuffled = events.clone();
                for i in (1..shuffled.len()).rev() {
                    shuffled.swap(i, pick(i + 1));
                }
                prop_assert_eq!(&Trace::from_events(shuffled), &trace);

                // One event fewer, or one field off, is a different trace.
                if let Some(last) = events.pop() {
                    prop_assert_ne!(&Trace::from_events(events.clone()), &trace);
                    events.push(TraceEvent { op_index: Some(1), ..last });
                    prop_assert_ne!(&Trace::from_events(events), &trace);
                }
            }
        }
    }
}

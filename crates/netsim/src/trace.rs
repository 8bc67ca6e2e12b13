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
//! `(time, seq)`.  A stream is checked once when the run ends and sorted only
//! if the check fails (several writers racing to one rank on the strict
//! path); nothing is ever sorted globally and no second copy of the events
//! exists at any point.  [`Trace::iter`] yields the canonical
//! `(time, rank, seq)` order — identical no matter which execution path
//! produced the events — by merging the stream heads on demand:
//! `O(log streams)` when the smallest event moves to another stream, `O(1)`
//! while it stays on the same one.  Per-rank consumers (the critical-path
//! walk) read a rank's two streams directly through [`Trace::rank`].
//!
//! Export: [`write_chrome_trace`] (or a [`ChromeTraceWriter`] fed by hand)
//! consumes `Trace::iter()` after the run.  A
//! [`TraceFilter`] applies at emission, so rank-windowed or sampled traces
//! of million-rank runs stay within the fig17 RSS budget: dropped events are
//! never materialized, and the stream table is sized by the filter's window,
//! not by the rank count.

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
#[derive(Debug, Clone, PartialEq)]
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

/// Position of an event inside its stream: ascending time, then sequence
/// number (the rank is the same for the whole stream).
pub(crate) fn stream_order(a: &TraceEvent, b: &TraceEvent) -> std::cmp::Ordering {
    a.time.total_cmp(&b.time).then_with(|| a.seq.cmp(&b.seq))
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
    streams: Vec<Vec<TraceEvent>>,
    len: usize,
}

impl Trace {
    /// An empty trace with streams for the ranks of `0..num_ranks` that
    /// `filter` keeps.
    pub(crate) fn new(filter: TraceFilter, num_ranks: usize) -> Self {
        let mut trace = Self { filter, streams: Vec::new(), len: 0 };
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

    /// Append `event` to its rank's stream, unless the filter drops the rank.
    #[inline]
    pub(crate) fn record(&mut self, event: TraceEvent) {
        if self.filter.keeps(event.rank) {
            let stream = self.stream_of(event.rank, usize::from(event.seq & ARRIVAL_SEQ != 0));
            self.streams[stream].push(event);
            self.len += 1;
        }
    }

    /// End of recording: put every stream that is not already ascending in
    /// `(time, seq)` in order.  Own streams and single-writer arrival
    /// streams are recorded in order; only arrivals that several writers
    /// future-dated into one rank need the sort.
    pub(crate) fn seal(&mut self) {
        for stream in &mut self.streams {
            if !stream.is_sorted_by(|a, b| stream_order(a, b).is_le()) {
                stream.sort_by(stream_order);
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

    /// The events of `rank`, each slice ascending in `(time, seq)`: its own
    /// events in program order and the arrivals at it.  Both are empty for a
    /// rank the trace does not keep.
    pub fn rank(&self, rank: RankId) -> (&[TraceEvent], &[TraceEvent]) {
        if !self.filter.keeps(rank) {
            return (&[], &[]);
        }
        let stream = |channel| self.streams.get(self.stream_of(rank, channel)).map_or(&[][..], Vec::as_slice);
        (stream(0), stream(1))
    }

    /// Every rank with events, ascending: `(rank, own, arrivals)`.
    pub(crate) fn per_rank(&self) -> impl Iterator<Item = (RankId, &[TraceEvent], &[TraceEvent])> {
        self.streams.chunks_exact(2).filter_map(|pair| {
            let rank = pair[0].first().or(pair[1].first())?.rank;
            Some((rank, pair[0].as_slice(), pair[1].as_slice()))
        })
    }

    /// Iterate in canonical `(time, rank, seq)` order.
    pub fn iter(&self) -> TraceIter<'_> {
        let rest: Vec<_> = self.streams.iter().filter(|s| !s.is_empty()).map(|s| s.iter()).collect();
        let mut heap: BinaryHeap<_> =
            rest.iter().enumerate().map(|(i, s)| Reverse(Head::of(&s.as_slice()[0], i))).collect();
        let current = heap.pop().map(|Reverse(head)| head.stream);
        TraceIter { rest, heap, current, remaining: self.len }
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
    type Item = &'a TraceEvent;
    type IntoIter = TraceIter<'a>;

    fn into_iter(self) -> TraceIter<'a> {
        self.iter()
    }
}

/// Merge key of a stream's next event, smallest first: the time's bits in
/// `f64::total_cmp` order, then rank, then sequence number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Head {
    time: u64,
    rank: RankId,
    seq: u64,
    stream: usize,
}

impl Head {
    fn of(e: &TraceEvent, stream: usize) -> Self {
        let bits = e.time.to_bits();
        // Flip all bits of a negative, the sign bit of a non-negative.
        let time = bits ^ ((((bits as i64) >> 63) as u64) | (1 << 63));
        Self { time, rank: e.rank, seq: e.seq, stream }
    }
}

/// Iterator over a [`Trace`] in canonical order: a k-way merge of the
/// per-rank streams that stays on one stream while it holds the smallest
/// event.
#[derive(Debug, Clone)]
pub struct TraceIter<'a> {
    /// The unyielded tail of every non-empty stream.
    rest: Vec<std::slice::Iter<'a, TraceEvent>>,
    /// Heads of all streams but `current`.
    heap: BinaryHeap<Reverse<Head>>,
    /// The stream holding the smallest unyielded event.
    current: Option<usize>,
    remaining: usize,
}

impl<'a> Iterator for TraceIter<'a> {
    type Item = &'a TraceEvent;

    fn next(&mut self) -> Option<&'a TraceEvent> {
        let stream = self.current?;
        let event = self.rest[stream].next()?;
        self.remaining -= 1;
        match self.rest[stream].as_slice().first() {
            Some(next) => {
                let head = Head::of(next, stream);
                if let Some(mut top) = self.heap.peek_mut().filter(|top| top.0 < head) {
                    self.current = Some(top.0.stream);
                    *top = Reverse(head);
                }
            }
            None => self.current = self.heap.pop().map(|Reverse(head)| head.stream),
        }
        Some(event)
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
pub struct ChromeTraceWriter<W: Write + Send> {
    out: W,
    /// Records formatted since the last write to `out`.
    buf: Vec<u8>,
    first: bool,
    /// `named[rank]`: the rank's track already has its name record.
    named: Vec<bool>,
    /// The timestamp text of the last record and the bits it renders; runs
    /// of records at one instant format it once.
    ts_bits: u64,
    ts_text: Vec<u8>,
    /// The first write error met while recording; `finish` returns it.
    error: Option<io::Error>,
}

/// The writer hands `buf` to the output once it holds this many bytes.
const CHROME_CHUNK: usize = 64 * 1024;

/// Append `n` in decimal.
fn push_int(buf: &mut Vec<u8>, mut n: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    buf.extend_from_slice(&digits[at..]);
}

impl<W: Write + Send> ChromeTraceWriter<W> {
    /// Start writing: emits the array opener.
    pub fn new(mut out: W) -> io::Result<Self> {
        out.write_all(b"[\n")?;
        Ok(Self {
            out,
            buf: Vec::with_capacity(CHROME_CHUNK + 512),
            first: true,
            named: Vec::new(),
            ts_bits: 0,
            ts_text: b"0".to_vec(),
            error: None,
        })
    }

    /// Start a record: the separator, then the given pieces verbatim.
    fn begin(&mut self, pieces: &[&str]) {
        if self.first {
            self.first = false;
        } else {
            self.buf.extend_from_slice(b",\n");
        }
        for piece in pieces {
            self.buf.extend_from_slice(piece.as_bytes());
        }
    }

    /// One record on a rank's track: `head`, the flow id if `head` ends in
    /// `"id":`, then `,"ts":<ts>,"pid":0,"tid":<tid>` (`ts` in microseconds)
    /// and `args`.
    fn on_track(
        &mut self,
        head: &[&str],
        id: Option<u64>,
        (ts, tid): (f64, RankId),
        args: &[(&str, i128)],
    ) -> io::Result<()> {
        self.begin(head);
        if let Some(id) = id {
            push_int(&mut self.buf, id);
        }
        if ts.to_bits() != self.ts_bits {
            self.ts_bits = ts.to_bits();
            self.ts_text.clear();
            write!(self.ts_text, "{ts}").expect("writing to a Vec cannot fail");
        }
        self.buf.extend_from_slice(b",\"ts\":");
        self.buf.extend_from_slice(&self.ts_text);
        self.buf.extend_from_slice(b",\"pid\":0,\"tid\":");
        push_int(&mut self.buf, tid as u64);
        self.end(args)
    }

    /// Close a record with `,"args":{"<key>":<value>,...}}`, or `}` alone.
    fn end(&mut self, args: &[(&str, i128)]) -> io::Result<()> {
        for (i, (key, value)) in args.iter().enumerate() {
            self.buf.extend_from_slice(if i == 0 { b",\"args\":{\"" } else { b",\"" });
            self.buf.extend_from_slice(key.as_bytes());
            self.buf.extend_from_slice(b"\":");
            if *value < 0 {
                self.buf.push(b'-');
            }
            push_int(&mut self.buf, value.unsigned_abs() as u64);
        }
        self.buf.extend_from_slice(if args.is_empty() { b"}" } else { b"}}" });
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

    fn write_event(&mut self, e: &TraceEvent) -> io::Result<()> {
        let tid = e.rank;
        if tid >= self.named.len() {
            self.named.resize(tid + 1, false);
        }
        if !std::mem::replace(&mut self.named[tid], true) {
            self.begin(&["{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":"]);
            push_int(&mut self.buf, tid as u64);
            self.buf.extend_from_slice(b",\"args\":{\"name\":\"rank ");
            push_int(&mut self.buf, tid as u64);
            self.buf.extend_from_slice(b"\"}}");
        }
        let at = (e.time * 1e6, tid);
        let op = [("op_index", e.op_index.map_or(-1, |i| i as i128))];
        let op_end = ["{\"name\":\"op\",\"cat\":\"op\",\"ph\":\"E\""];
        match (e.kind, &e.detail) {
            (TraceKind::OpStart, detail) => {
                let name = if let TraceDetail::Op { op } = detail { op.name() } else { "op" };
                self.on_track(&["{\"name\":\"", name, "\",\"cat\":\"op\",\"ph\":\"B\""], None, at, &op)
            }
            (TraceKind::OpEnd, _) => self.on_track(&op_end, None, at, &[]),
            (TraceKind::BlockStart, detail) => {
                let (colon, reason) =
                    if let TraceDetail::Block { reason } = detail { (":", reason.name()) } else { ("", "") };
                let head = ["{\"name\":\"blocked", colon, reason, "\",\"cat\":\"block\",\"ph\":\"B\""];
                self.on_track(&head, None, at, &op)
            }
            (TraceKind::BlockEnd, _) => {
                // A blocked op emits no `OpEnd` of its own — resolving the
                // block ends both the block span and the op span around it.
                self.on_track(&["{\"name\":\"blocked\",\"cat\":\"block\",\"ph\":\"E\""], None, at, &[])?;
                self.on_track(&op_end, None, at, &[])
            }
            (TraceKind::MsgInjected, TraceDetail::Inject { dst, bytes, flow, .. }) => {
                let args = [("dst", *dst as i128), ("bytes", i128::from(*bytes))];
                self.on_track(&["{\"name\":\"msg\",\"cat\":\"msg\",\"ph\":\"s\",\"id\":"], Some(*flow), at, &args)
            }
            (TraceKind::NotifyVisible | TraceKind::MsgDelivered, TraceDetail::Arrival { src, bytes, flow, .. }) => {
                let name = if e.kind == TraceKind::NotifyVisible { "notify_visible" } else { "delivered" };
                let args = [("src", *src as i128), ("bytes", i128::from(*bytes))];
                self.on_track(&["{\"name\":\"", name, "\",\"cat\":\"msg\",\"ph\":\"i\",\"s\":\"t\""], None, at, &args)?;
                let finish = ["{\"name\":\"msg\",\"cat\":\"msg\",\"ph\":\"f\",\"bp\":\"e\",\"id\":"];
                self.on_track(&finish, Some(*flow), at, &[])
            }
            (kind, _) => {
                let name = format!("{kind:?}");
                self.on_track(&["{\"name\":\"", &name, "\",\"cat\":\"misc\",\"ph\":\"i\",\"s\":\"t\""], None, at, &[])
            }
        }
    }

    /// Emit one `C` (counter) sample: `value` is 1 at the start of a busy
    /// interval of `link` and 0 at its end, so Perfetto renders the link's
    /// utilization timeline as a square wave.
    pub fn write_link_sample(&mut self, link: &str, ts_seconds: f64, value: u32) -> io::Result<()> {
        let ts = ts_seconds * 1e6;
        self.begin(&["{\"name\":\"link:", link, "\",\"cat\":\"link\",\"ph\":\"C\",\"ts\":"]);
        write!(self.buf, "{ts},\"pid\":1").expect("writing to a Vec cannot fail");
        self.end(&[("busy", i128::from(value))])
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
pub fn write_chrome_trace<'a, W: Write + Send>(
    out: W,
    events: impl IntoIterator<Item = &'a TraceEvent>,
    links: &[LinkStats],
) -> io::Result<()> {
    let mut w = ChromeTraceWriter::new(out)?;
    for e in events {
        w.write_event(e)?;
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
                    full.record(e.clone());
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
        assert_eq!(windowed.rank(7), (&[][..], &[][..]));
        assert_ne!(windowed, full);
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
                    prop_assert_eq!(it.next(), Some(want));
                }
                prop_assert_eq!(it.size_hint(), (0, Some(0)));
                prop_assert_eq!(it.next(), None);
                prop_assert!((&trace).into_iter().eq(sorted.iter()));

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

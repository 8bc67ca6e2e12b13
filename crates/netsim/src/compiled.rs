//! Compiled, arena-encoded programs: the compressed SPMD representation the
//! engine executes.
//!
//! A recorded [`Program`] is a convenient builder API, but it materializes one
//! `Vec<Op>` per rank at 24 B per op (a single-id wait holds its id inline;
//! only a multi-id wait boxes its list, see [`WaitIds`]) — at p = 2^20 that
//! is millions of records holding rank-rotated copies of the *same*
//! algorithm.  [`CompiledProgram`] stores all ops once, in a flat arena:
//!
//! * one fixed-width record per op, 17 B and no per-op allocation: a 1-byte
//!   kind column beside one 16-byte argument record (`c: u64`, `a: u32`,
//!   `b: u32`).  A decode reads two addresses, not four.  The kind keeps its
//!   own column: a 24-byte record holding it gained no speed for 7 B more;
//! * wait-id lists live in one shared `u32` pool as `(offset, len)` slices,
//!   interned by content, and the common single-id `WaitNotify` is inlined
//!   into the record with no pool indirection at all — by far the common case
//!   (every ring/hypercube step emits one), and it removes a dependent load from
//!   the engine's wait hot path;
//! * targets are stored **rank-relative** — as a ring delta `(dst − rank) mod p`
//!   or a hypercube mask `dst ⊕ rank` — so the op streams of an SPMD collective
//!   become byte-identical across ranks and dedup to a single shared arena
//!   segment.  A per-rank `RankEntry` is then just a range plus the decode
//!   mode: a symmetric p = 2^20 ring compiles to two segments total;
//! * compute seconds stay out of the records: a `Compute` record holds only
//!   its ordinal among its segment's compute ops, and each rank's durations
//!   form one list of `f64` bits in a shared pool, interned by bit pattern
//!   (so `-0.0` and `0.0` stay apart).  Ranks that differ only in compute
//!   time — per-rank straggler noise — share one segment, because hashing,
//!   dedup and the bounds check never see a duration.  A per-rank offset
//!   table (4 B per rank) exists only when ranks' lists differ; a program
//!   with one shared list stores it once, and one without a `Compute` op
//!   stores nothing.
//!
//! Compilation validates as it encodes (same checks, same order, same errors
//! as [`mod@crate::validate`]), and a `CompiledProgram` has private fields and
//! one constructor, the compiler, so it is valid by construction: its arena
//! invariant is asserted once, in debug builds, when compilation finishes,
//! and a run checks only the rank count against the cluster.  Programs arrive
//! either from a materialized [`Program`] via [`Program::compile`] or —
//! without ever materializing all ranks — from a symbolic [`ProgramSource`]
//! via [`CompiledProgram::from_source`].

use std::collections::HashMap;
use std::fmt;
use std::hash::Hash;

use crate::cluster::RankId;
use crate::program::{CommProfile, NotifyId, Op, Program, WaitIds};
use crate::scenario::SplitMix64;
use crate::source::ProgramSource;
use crate::validate::{check_channels, check_rank_ops, ChannelCounts, ValidationError};

/// Op discriminant stored in the arena's kind column (1 byte per op).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub(crate) enum OpKind {
    Compute,
    Reduce,
    Copy,
    PutNotify,
    Notify,
    WaitOne,
    WaitMany,
    WaitAny,
    Send,
    Isend,
    Recv,
    WaitAllSends,
    Barrier,
}

/// How a segment's stored target codes map back to absolute ranks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum TargetMode {
    /// `code = (dst + p − rank) mod p`; decode `dst = (rank + code) mod p`.
    /// Always applicable (ring rotations become rank-invariant).
    Delta,
    /// `code = dst ⊕ rank`; decode `dst = rank ⊕ code`.  Used when every
    /// target differs from the rank by a power-of-two mask (hypercube
    /// exchanges become rank-invariant).
    Xor,
}

/// The arguments of one arena op, 16 bytes with no padding (which fields a
/// kind uses is `encode_rank`'s business).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Rec {
    /// A payload: a byte count, a wait-any count, or a compute op's ordinal
    /// among its segment's compute ops (its seconds live in the rank's
    /// duration list, never in the record).
    c: u64,
    /// A target code, a single wait id, or a wait-id pool offset.
    a: u32,
    /// A notification id, a tag, or a wait-id count.
    b: u32,
}

const _: () = assert!(size_of::<Rec>() == 16);

/// One rank's program: a range of arena records plus the target decode mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct RankEntry {
    start: u32,
    len: u32,
    mode: TargetMode,
}

/// A candidate shared segment in the dedup index.
#[derive(Debug, Clone, Copy)]
struct SegCand {
    start: u32,
    len: u32,
    mode: TargetMode,
}

/// Borrowed notification-id list of a compiled wait op.
///
/// Single-id waits are stored inline in the op record ([`IdsRef::One`]);
/// multi-id waits borrow a slice of the shared id pool ([`IdsRef::Many`]).
/// Debug-formats exactly like the owned [`WaitIds`] (`[3, 4]`), so traces
/// and deadlock reports are byte-identical to the materialized path.
#[derive(Clone, Copy)]
pub enum IdsRef<'a> {
    /// A single id inlined in the op record.
    One(NotifyId),
    /// A slice of ids in the shared pool.
    Many(&'a [NotifyId]),
}

impl<'a> IdsRef<'a> {
    /// Number of ids in the list.
    pub fn len(&self) -> usize {
        match self {
            IdsRef::One(_) => 1,
            IdsRef::Many(ids) => ids.len(),
        }
    }

    /// True when the list holds no ids.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterate the ids by value, in listed order.
    pub fn iter(&self) -> IdsIter<'a> {
        IdsIter { ids: *self, next: 0 }
    }

    /// Materialize the list.
    pub fn to_vec(&self) -> Vec<NotifyId> {
        self.iter().collect()
    }
}

impl PartialEq for IdsRef<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.iter().eq(other.iter())
    }
}

impl fmt::Debug for IdsRef<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// By-value iterator over an [`IdsRef`].
#[derive(Debug, Clone)]
pub struct IdsIter<'a> {
    ids: IdsRef<'a>,
    next: usize,
}

impl Iterator for IdsIter<'_> {
    type Item = NotifyId;

    fn next(&mut self) -> Option<NotifyId> {
        let i = self.next;
        self.next += 1;
        match self.ids {
            IdsRef::One(id) if i == 0 => Some(id),
            IdsRef::One(_) => None,
            IdsRef::Many(ids) => ids.get(i).copied(),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.ids.len().saturating_sub(self.next);
        (rem, Some(rem))
    }
}

impl<'a> IntoIterator for IdsRef<'a> {
    type Item = NotifyId;
    type IntoIter = IdsIter<'a>;

    fn into_iter(self) -> IdsIter<'a> {
        self.iter()
    }
}

/// A decoded view of one compiled op.
///
/// Mirrors [`Op`] variant-for-variant and field-for-field (wait-id lists
/// borrow the arena via [`IdsRef`] instead of owning a `Vec`), so the derived
/// `Debug` output — which the engine embeds in traces and deadlock reports —
/// is byte-identical to the materialized op's.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum OpView<'a> {
    /// Local compute for `seconds` of nominal time.
    Compute {
        /// Nominal duration in seconds.
        seconds: f64,
    },
    /// Local reduction over `bytes` bytes.
    Reduce {
        /// Payload size in bytes.
        bytes: u64,
    },
    /// Local copy of `bytes` bytes.
    Copy {
        /// Payload size in bytes.
        bytes: u64,
    },
    /// One-sided put of `bytes` to `dst`, raising `notify` on arrival.
    PutNotify {
        /// Destination rank.
        dst: RankId,
        /// Payload size in bytes.
        bytes: u64,
        /// Notification id raised at the destination.
        notify: NotifyId,
    },
    /// Payload-free notification to `dst`.
    Notify {
        /// Destination rank.
        dst: RankId,
        /// Notification id raised at the destination.
        notify: NotifyId,
    },
    /// Block until every listed notification has arrived.
    WaitNotify {
        /// Ids to consume (one arrival each).
        ids: IdsRef<'a>,
    },
    /// Block until `count` of the listed notifications have arrived.
    WaitNotifyAny {
        /// Candidate ids.
        ids: IdsRef<'a>,
        /// Arrivals required before unblocking.
        count: usize,
    },
    /// Blocking two-sided send.
    Send {
        /// Destination rank.
        dst: RankId,
        /// Payload size in bytes.
        bytes: u64,
        /// Message tag.
        tag: u32,
    },
    /// Non-blocking two-sided send.
    Isend {
        /// Destination rank.
        dst: RankId,
        /// Payload size in bytes.
        bytes: u64,
        /// Message tag.
        tag: u32,
    },
    /// Blocking two-sided receive.
    Recv {
        /// Source rank.
        src: RankId,
        /// Payload size in bytes.
        bytes: u64,
        /// Message tag.
        tag: u32,
    },
    /// Block until every outstanding send has left the NIC.
    WaitAllSends,
    /// Global barrier.
    Barrier,
}

impl OpView<'_> {
    /// Materialize this view as an owned [`Op`] (tests and tooling; the
    /// engine never needs it).
    pub fn to_op(&self) -> Op {
        let owned = |ids| match ids {
            IdsRef::One(id) => WaitIds::One(id),
            IdsRef::Many(ids) => WaitIds::from(ids),
        };
        match *self {
            OpView::Compute { seconds } => Op::Compute { seconds },
            OpView::Reduce { bytes } => Op::Reduce { bytes },
            OpView::Copy { bytes } => Op::Copy { bytes },
            OpView::PutNotify { dst, bytes, notify } => Op::PutNotify { dst, bytes, notify },
            OpView::Notify { dst, notify } => Op::Notify { dst, notify },
            OpView::WaitNotify { ids } => Op::WaitNotify { ids: owned(ids) },
            // The count was compiled from the op's `u32`, so it fits.
            OpView::WaitNotifyAny { ids, count } => Op::WaitNotifyAny { ids: owned(ids), count: count as u32 },
            OpView::Send { dst, bytes, tag } => Op::Send { dst, bytes, tag },
            OpView::Isend { dst, bytes, tag } => Op::Isend { dst, bytes, tag },
            OpView::Recv { src, bytes, tag } => Op::Recv { src, bytes, tag },
            OpView::WaitAllSends => Op::WaitAllSends,
            OpView::Barrier => Op::Barrier,
        }
    }

    /// The operation's trace classification (see [`crate::trace::OpClass`]);
    /// cheap — no fields are cloned.
    pub fn class(&self) -> crate::trace::OpClass {
        use crate::trace::OpClass;
        match self {
            OpView::Compute { .. } => OpClass::Compute,
            OpView::Reduce { .. } => OpClass::Reduce,
            OpView::Copy { .. } => OpClass::Copy,
            OpView::PutNotify { .. } => OpClass::PutNotify,
            OpView::Notify { .. } => OpClass::Notify,
            OpView::WaitNotify { .. } => OpClass::WaitNotify,
            OpView::WaitNotifyAny { .. } => OpClass::WaitNotifyAny,
            OpView::Send { .. } => OpClass::Send,
            OpView::Isend { .. } => OpClass::Isend,
            OpView::Recv { .. } => OpClass::Recv,
            OpView::WaitAllSends => OpClass::WaitAllSends,
            OpView::Barrier => OpClass::Barrier,
        }
    }
}

/// One rank's compiled op stream: a cheap, copyable cursor over the arena
/// that decodes records on access.
#[derive(Clone, Copy)]
pub struct RankOps<'a> {
    prog: &'a CompiledProgram,
    rank: RankId,
    start: usize,
    len: usize,
    mode: TargetMode,
}

impl<'a> RankOps<'a> {
    /// Number of ops in this rank's program.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the rank has no ops.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Decode the `i`-th op (panics when out of range).
    pub fn op(&self, i: usize) -> OpView<'a> {
        assert!(i < self.len, "op index {i} out of range for rank {} ({} ops)", self.rank, self.len);
        self.prog.decode(self.start + i, self.rank, self.mode)
    }

    /// Iterate the decoded ops in program order.
    pub fn iter(self) -> impl Iterator<Item = OpView<'a>> {
        (0..self.len).map(move |i| self.op(i))
    }
}

/// Footprint report for a program representation (see
/// [`Program::memory_stats`] and [`CompiledProgram::memory_stats`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemoryStats {
    /// Ranks in the program.
    pub num_ranks: usize,
    /// Logical op count summed over all ranks.
    pub total_ops: u64,
    /// Op records actually stored (after dedup; equals `total_ops` for a
    /// materialized program).
    pub stored_ops: usize,
    /// Distinct shared segments (equals `num_ranks` for a materialized
    /// program).
    pub segments: usize,
    /// Ids held in wait-id storage: the shared pool of a compiled program,
    /// the boxed lists of multi-id waits in a materialized one.
    pub pool_ids: usize,
    /// Approximate heap bytes of the op storage itself.
    pub arena_bytes: usize,
    /// `total_ops / stored_ops` — how many ranks share each stored op on
    /// average.
    pub dedup_ratio: f64,
}

impl fmt::Display for MemoryStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ranks, {} ops ({} stored in {} segment(s), dedup {:.1}x), {} pool id(s), {} arena bytes",
            self.num_ranks,
            self.total_ops,
            self.stored_ops,
            self.segments,
            self.dedup_ratio,
            self.pool_ids,
            self.arena_bytes
        )
    }
}

/// A validated, arena-encoded program ready for execution.
///
/// See the [module docs](self) for the memory model.  Obtain one via
/// [`Program::compile`] or [`CompiledProgram::from_source`], run it with
/// [`crate::Engine::run_compiled`].
#[derive(Clone)]
pub struct CompiledProgram {
    num_ranks: usize,
    kinds: Vec<OpKind>,
    recs: Vec<Rec>,
    pool: Vec<NotifyId>,
    entries: Vec<RankEntry>,
    /// Every rank's compute durations as `f64` bits, lists interned by bit
    /// pattern.
    durations: Vec<u64>,
    /// Each rank's list offset in `durations`; empty when every rank's list
    /// starts at 0 (one shared list, or no compute op at all).
    duration_offsets: Vec<u32>,
    segments: usize,
    profile: CommProfile,
    total_ops: u64,
    total_wire_bytes: u64,
    notify_id_bound: NotifyId,
}

impl fmt::Debug for CompiledProgram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CompiledProgram")
            .field("num_ranks", &self.num_ranks)
            .field("total_ops", &self.total_ops)
            .field("stored_ops", &self.kinds.len())
            .field("segments", &self.segments)
            .field("pool_ids", &self.pool.len())
            .finish()
    }
}

#[inline]
pub(crate) fn decode_target(rank: RankId, code: u32, mode: TargetMode, n: usize) -> RankId {
    match mode {
        TargetMode::Delta => {
            let s = rank + code as usize;
            if s >= n {
                s - n
            } else {
                s
            }
        }
        TargetMode::Xor => rank ^ code as usize,
    }
}

fn encode_target(rank: RankId, dst: RankId, mode: TargetMode, n: usize) -> u32 {
    let code = match mode {
        TargetMode::Delta => {
            if dst >= rank {
                dst - rank
            } else {
                dst + n - rank
            }
        }
        TargetMode::Xor => dst ^ rank,
    };
    u32::try_from(code).expect("rank count exceeds the u32 target-code range")
}

/// True when every target in `ops` differs from `rank` by a power-of-two
/// mask — the hypercube signature that makes xor encoding rank-invariant.
fn xor_encodable(rank: RankId, ops: &[Op]) -> bool {
    ops.iter().all(|op| match op {
        Op::PutNotify { dst, .. } | Op::Notify { dst, .. } | Op::Send { dst, .. } | Op::Isend { dst, .. } => {
            (dst ^ rank).is_power_of_two()
        }
        Op::Recv { src, .. } => (src ^ rank).is_power_of_two(),
        _ => true,
    })
}

/// Scratch encoding of one rank's segment, in the arena's layout (reused
/// across ranks).
#[derive(Default)]
struct Seg {
    k: Vec<OpKind>,
    r: Vec<Rec>,
    /// The rank's compute durations as `f64` bits, outside the records.
    d: Vec<u64>,
}

impl Seg {
    fn clear(&mut self) {
        self.k.clear();
        self.r.clear();
        self.d.clear();
    }

    fn push(&mut self, k: OpKind, a: u32, b: u32, c: u64) {
        self.k.push(k);
        self.r.push(Rec { c, a, b });
    }

    /// Two independent multiply–xor lanes over the packed op words, then one
    /// final mix.  The hash only picks dedup candidates — [`Compiler::lookup`]
    /// compares whole segments — so the arena depends on content equality and
    /// insertion order, never on hash values.
    fn content_hash(&self) -> u64 {
        const M0: u64 = 0x9e37_79b9_7f4a_7c15;
        const M1: u64 = 0xbf58_476d_1ce4_e5b9;
        let (mut x, mut y) = (self.k.len() as u64, 0u64);
        for (&k, &Rec { c, a, b }) in self.k.iter().zip(&self.r) {
            x = (x ^ (((a as u64) << 32) | b as u64)).wrapping_mul(M0).rotate_left(31);
            y = (y ^ c ^ ((k as u64) << 56)).wrapping_mul(M1).rotate_left(27);
        }
        SplitMix64::mix(x ^ y.rotate_left(32))
    }
}

/// Intern `list` into `pool` by content and return its offset; `what` names
/// the pool in the error when it outgrows the `u32` offset range.
fn intern<T: Copy + Eq + Hash>(
    pool: &mut Vec<T>,
    map: &mut HashMap<Vec<T>, u32>,
    list: &[T],
    what: &'static str,
) -> Result<u32, ValidationError> {
    if let Some(&off) = map.get(list) {
        return Ok(off);
    }
    let pooled = pool.len() + list.len();
    if pooled > u32::MAX as usize {
        return Err(ValidationError::CodeRangeExceeded { what, value: pooled });
    }
    let off = pool.len() as u32;
    pool.extend_from_slice(list);
    map.insert(list.to_vec(), off);
    Ok(off)
}

fn encode_rank(
    rank: RankId,
    n: usize,
    ops: &[Op],
    mode: TargetMode,
    pool: &mut Vec<NotifyId>,
    pool_map: &mut HashMap<Vec<NotifyId>, u32>,
    out: &mut Seg,
) -> Result<(), ValidationError> {
    out.clear();
    for op in ops {
        match op {
            Op::Compute { seconds } => {
                out.push(OpKind::Compute, 0, 0, out.d.len() as u64);
                out.d.push(seconds.to_bits());
            }
            Op::Reduce { bytes } => out.push(OpKind::Reduce, 0, 0, *bytes),
            Op::Copy { bytes } => out.push(OpKind::Copy, 0, 0, *bytes),
            Op::PutNotify { dst, bytes, notify } => {
                out.push(OpKind::PutNotify, encode_target(rank, *dst, mode, n), *notify, *bytes);
            }
            Op::Notify { dst, notify } => out.push(OpKind::Notify, encode_target(rank, *dst, mode, n), *notify, 0),
            Op::WaitNotify { ids } if ids.len() == 1 => out.push(OpKind::WaitOne, ids[0], 0, 0),
            Op::WaitNotify { ids } => {
                let off = intern(pool, pool_map, ids, "wait-id pool size")?;
                out.push(OpKind::WaitMany, off, ids.len() as u32, 0);
            }
            Op::WaitNotifyAny { ids, count } => {
                let off = intern(pool, pool_map, ids, "wait-id pool size")?;
                out.push(OpKind::WaitAny, off, ids.len() as u32, *count as u64);
            }
            Op::Send { dst, bytes, tag } => out.push(OpKind::Send, encode_target(rank, *dst, mode, n), *tag, *bytes),
            Op::Isend { dst, bytes, tag } => out.push(OpKind::Isend, encode_target(rank, *dst, mode, n), *tag, *bytes),
            Op::Recv { src, bytes, tag } => out.push(OpKind::Recv, encode_target(rank, *src, mode, n), *tag, *bytes),
            Op::WaitAllSends => out.push(OpKind::WaitAllSends, 0, 0, 0),
            Op::Barrier => out.push(OpKind::Barrier, 0, 0, 0),
        }
    }
    Ok(())
}

/// Streaming compiler: ranks are pushed one at a time (validated, profiled,
/// encoded, deduped), so compiling from a [`ProgramSource`] never holds more
/// than one rank's materialized ops.
struct Compiler {
    n: usize,
    kinds: Vec<OpKind>,
    recs: Vec<Rec>,
    pool: Vec<NotifyId>,
    pool_map: HashMap<Vec<NotifyId>, u32>,
    seg_map: HashMap<u64, Vec<SegCand>>,
    entries: Vec<RankEntry>,
    durations: Vec<u64>,
    duration_map: HashMap<Vec<u64>, u32>,
    duration_offsets: Vec<u32>,
    /// The last non-empty duration list interned, as `(offset, len)`.
    last_durations: (usize, usize),
    delta: Seg,
    xor: Seg,
    sends: ChannelCounts,
    recvs: ChannelCounts,
    notify_bounds: Vec<usize>,
    waits_sends: Vec<bool>,
    writer_of: Vec<Option<RankId>>,
    single_writer: bool,
    one_sided_only: bool,
    total_ops: u64,
    total_wire_bytes: u64,
    notify_id_bound: NotifyId,
}

impl Compiler {
    /// Rank ids and arena offsets are stored as `u32` codes: a source
    /// claiming more ranks is refused before any per-rank table is allocated.
    fn new(n: usize) -> Result<Self, ValidationError> {
        if n > u32::MAX as usize {
            return Err(ValidationError::CodeRangeExceeded { what: "rank count", value: n });
        }
        Ok(Self {
            n,
            kinds: Vec::new(),
            recs: Vec::new(),
            pool: Vec::new(),
            pool_map: HashMap::new(),
            seg_map: HashMap::new(),
            entries: Vec::with_capacity(n),
            durations: Vec::new(),
            duration_map: HashMap::new(),
            duration_offsets: Vec::new(),
            last_durations: (0, 0),
            delta: Seg::default(),
            xor: Seg::default(),
            sends: ChannelCounts::new(),
            recvs: ChannelCounts::new(),
            notify_bounds: vec![0; n],
            waits_sends: vec![false; n],
            writer_of: vec![None; n],
            single_writer: true,
            one_sided_only: true,
            total_ops: 0,
            total_wire_bytes: 0,
            notify_id_bound: 0,
        })
    }

    /// The [`CommProfile`], the op total and the notification-id bound,
    /// folded online as ranks stream through.
    fn update_profile(&mut self, rank: RankId, ops: &[Op]) {
        for op in ops {
            match op {
                Op::PutNotify { dst, notify, .. } | Op::Notify { dst, notify } => {
                    let bound = *notify as usize + 1;
                    if bound > self.notify_bounds[*dst] {
                        self.notify_bounds[*dst] = bound;
                    }
                    self.notify_id_bound = self.notify_id_bound.max(notify.saturating_add(1));
                    match self.writer_of[*dst] {
                        None => self.writer_of[*dst] = Some(rank),
                        Some(w) if w != rank => self.single_writer = false,
                        Some(_) => {}
                    }
                }
                Op::WaitNotify { ids } | Op::WaitNotifyAny { ids, .. } => {
                    for id in ids {
                        let bound = *id as usize + 1;
                        if bound > self.notify_bounds[rank] {
                            self.notify_bounds[rank] = bound;
                        }
                        self.notify_id_bound = self.notify_id_bound.max(id.saturating_add(1));
                    }
                }
                Op::WaitAllSends => self.waits_sends[rank] = true,
                Op::Send { .. } | Op::Isend { .. } | Op::Recv { .. } | Op::Barrier => self.one_sided_only = false,
                Op::Compute { .. } | Op::Reduce { .. } | Op::Copy { .. } => {}
            }
        }
        self.total_ops += ops.len() as u64;
    }

    /// Look up a content-identical segment already in the arena (same bytes
    /// *and* same decode mode — delta code 1 and xor code 1 are byte-equal
    /// but decode to different ranks).
    fn lookup(&self, hash: u64, mode: TargetMode, seg: &Seg) -> Option<(u32, u32)> {
        let cands = self.seg_map.get(&hash)?;
        for c in cands {
            if c.mode != mode || c.len as usize != seg.k.len() {
                continue;
            }
            let s = c.start as usize;
            let e = s + c.len as usize;
            if self.kinds[s..e] == seg.k[..] && self.recs[s..e] == seg.r[..] {
                return Some((c.start, c.len));
            }
        }
        None
    }

    /// Intern rank `rank`'s compute durations, split off by its delta
    /// encoding, by bit pattern, so `-0.0` and `0.0` stay apart.  An empty
    /// list, or one equal to the last list interned, reuses that list's
    /// offset without touching the map; the per-rank offset table is
    /// materialized only at the first rank whose offset is not 0.
    fn push_durations(&mut self, rank: RankId) -> Result<(), ValidationError> {
        let list = &self.delta.d;
        let (last, last_len) = self.last_durations;
        if !list.is_empty() && self.durations[last..last + last_len] != list[..] {
            let off = intern(&mut self.durations, &mut self.duration_map, list, "compute duration pool size")?;
            self.last_durations = (off as usize, list.len());
        }
        let off = self.last_durations.0 as u32;
        if off != 0 && self.duration_offsets.is_empty() {
            self.duration_offsets = Vec::with_capacity(self.n);
            self.duration_offsets.resize(rank, 0);
        }
        if !self.duration_offsets.is_empty() {
            self.duration_offsets.push(off);
        }
        Ok(())
    }

    fn push_rank(&mut self, rank: RankId, ops: &[Op]) -> Result<(), ValidationError> {
        check_rank_ops(rank, ops, self.n, &mut self.sends, &mut self.recvs, &mut self.total_wire_bytes)?;
        self.update_profile(rank, ops);

        encode_rank(rank, self.n, ops, TargetMode::Delta, &mut self.pool, &mut self.pool_map, &mut self.delta)?;
        self.push_durations(rank)?;
        let delta_hash = self.delta.content_hash();
        if let Some((start, len)) = self.lookup(delta_hash, TargetMode::Delta, &self.delta) {
            self.entries.push(RankEntry { start, len, mode: TargetMode::Delta });
            return Ok(());
        }

        // Delta lookup missed.  If the rank's targets carry the hypercube
        // signature, try (and prefer) the xor encoding, which the other
        // hypercube ranks will hit; otherwise insert the delta encoding.
        if xor_encodable(rank, ops) {
            encode_rank(rank, self.n, ops, TargetMode::Xor, &mut self.pool, &mut self.pool_map, &mut self.xor)?;
            let xor_hash = self.xor.content_hash();
            if let Some((start, len)) = self.lookup(xor_hash, TargetMode::Xor, &self.xor) {
                self.entries.push(RankEntry { start, len, mode: TargetMode::Xor });
                return Ok(());
            }
            self.insert_segment(xor_hash, TargetMode::Xor)
        } else {
            self.insert_segment(delta_hash, TargetMode::Delta)
        }
    }

    /// Append the scratch segment for `mode` to the arena and index it.
    fn insert_segment(&mut self, hash: u64, mode: TargetMode) -> Result<(), ValidationError> {
        let seg = match mode {
            TargetMode::Delta => &self.delta,
            TargetMode::Xor => &self.xor,
        };
        let stored = self.kinds.len() + seg.k.len();
        if stored > u32::MAX as usize {
            return Err(ValidationError::CodeRangeExceeded { what: "stored op count", value: stored });
        }
        let start = self.kinds.len() as u32;
        let len = seg.k.len() as u32;
        self.kinds.extend_from_slice(&seg.k);
        self.recs.extend_from_slice(&seg.r);
        self.seg_map.entry(hash).or_default().push(SegCand { start, len, mode });
        self.entries.push(RankEntry { start, len, mode });
        Ok(())
    }

    fn finish(mut self) -> Result<CompiledProgram, ValidationError> {
        check_channels(&mut self.sends, &mut self.recvs)?;
        let segments = self.seg_map.values().map(Vec::len).sum();
        let program = CompiledProgram {
            num_ranks: self.n,
            kinds: self.kinds,
            recs: self.recs,
            pool: self.pool,
            entries: self.entries,
            durations: self.durations,
            duration_offsets: self.duration_offsets,
            segments,
            profile: CommProfile {
                notify_bounds: self.notify_bounds,
                waits_sends: self.waits_sends,
                single_writer: self.single_writer,
                one_sided_only: self.one_sided_only,
            },
            total_ops: self.total_ops,
            total_wire_bytes: self.total_wire_bytes,
            notify_id_bound: self.notify_id_bound,
        };
        debug_assert_eq!(program.check_bounds(), Ok(()));
        Ok(program)
    }
}

impl CompiledProgram {
    /// Compile a symbolic source without ever materializing the whole
    /// program: one reused scratch buffer holds a single rank's ops at a
    /// time.  Equivalent to materializing the source into a [`Program`] and
    /// calling [`Program::compile`] — same validation, same arena, same
    /// simulation results — in O(ops) instead of O(p · ops) memory.
    pub fn from_source<S: ProgramSource>(source: &S) -> Result<Self, ValidationError> {
        let n = source.num_ranks();
        let mut compiler = Compiler::new(n)?;
        let mut scratch = Vec::new();
        for rank in 0..n {
            scratch.clear();
            source.rank_ops(rank, &mut scratch);
            compiler.push_rank(rank, &scratch)?;
        }
        compiler.finish()
    }

    /// Ranks in the program.
    pub fn num_ranks(&self) -> usize {
        self.num_ranks
    }

    /// Logical op count summed over all ranks (shared segments counted once
    /// per rank that references them).
    pub fn total_ops(&self) -> u64 {
        self.total_ops
    }

    /// Total bytes crossing the network, summed over all ranks.
    pub fn total_wire_bytes(&self) -> u64 {
        self.total_wire_bytes
    }

    /// One past the highest notification id used (0 when none are).
    pub fn notify_id_bound(&self) -> NotifyId {
        self.notify_id_bound
    }

    /// The communication profile folded during compilation.
    pub fn profile(&self) -> &CommProfile {
        &self.profile
    }

    /// Rank `rank`'s compiled op stream.
    pub fn rank_ops(&self, rank: RankId) -> RankOps<'_> {
        let e = self.entries[rank];
        RankOps { prog: self, rank, start: e.start as usize, len: e.len as usize, mode: e.mode }
    }

    /// Decode one op of one rank (convenience for `rank_ops(rank).op(i)`).
    pub fn op_view(&self, rank: RankId, i: usize) -> OpView<'_> {
        self.rank_ops(rank).op(i)
    }

    /// Footprint of the compiled representation.
    pub fn memory_stats(&self) -> MemoryStats {
        let stored_ops = self.kinds.len();
        let arena_bytes = stored_ops * (size_of::<OpKind>() + size_of::<Rec>())
            + self.pool.len() * size_of::<NotifyId>()
            + self.entries.len() * size_of::<RankEntry>()
            + self.durations.len() * size_of::<u64>()
            + self.duration_offsets.len() * size_of::<u32>();
        MemoryStats {
            num_ranks: self.num_ranks,
            total_ops: self.total_ops,
            stored_ops,
            segments: self.segments,
            pool_ids: self.pool.len(),
            arena_bytes,
            dedup_ratio: self.total_ops as f64 / stored_ops.max(1) as f64,
        }
    }

    /// Raw arena view of rank `rank`'s segment for the static analyzer:
    /// `(start, len, mode)` of the shared record range.  Ranks sharing a
    /// segment return identical triples, which is how
    /// [`crate::analyze`] groups ranks into equivalence classes.
    pub(crate) fn raw_entry(&self, rank: RankId) -> (usize, usize, TargetMode) {
        let e = self.entries[rank];
        (e.start as usize, e.len as usize, e.mode)
    }

    /// Raw record at arena index `idx`: `(kind, a, b, c)` with target codes
    /// still rank-relative (undecoded) and a compute op's `c` its ordinal,
    /// not its seconds.
    pub(crate) fn raw_op(&self, idx: usize) -> (OpKind, u32, u32, u64) {
        let Rec { c, a, b } = self.recs[idx];
        (self.kinds[idx], a, b, c)
    }

    /// Slice of the shared wait-id pool referenced by a `WaitMany`/`WaitAny`
    /// record.
    pub(crate) fn pool_ids(&self, off: u32, len: u32) -> &[NotifyId] {
        &self.pool[off as usize..(off + len) as usize]
    }

    /// Offset of rank `rank`'s duration list in `durations`.
    #[inline]
    fn duration_base(&self, rank: RankId) -> usize {
        self.duration_offsets.get(rank).map_or(0, |&off| off as usize)
    }

    #[inline]
    fn decode(&self, idx: usize, rank: RankId, mode: TargetMode) -> OpView<'_> {
        let Rec { c, a, b } = self.recs[idx];
        let n = self.num_ranks;
        match self.kinds[idx] {
            OpKind::Compute => {
                OpView::Compute { seconds: f64::from_bits(self.durations[self.duration_base(rank) + c as usize]) }
            }
            OpKind::Reduce => OpView::Reduce { bytes: c },
            OpKind::Copy => OpView::Copy { bytes: c },
            OpKind::PutNotify => OpView::PutNotify { dst: decode_target(rank, a, mode, n), bytes: c, notify: b },
            OpKind::Notify => OpView::Notify { dst: decode_target(rank, a, mode, n), notify: b },
            OpKind::WaitOne => OpView::WaitNotify { ids: IdsRef::One(a) },
            OpKind::WaitMany => OpView::WaitNotify { ids: IdsRef::Many(&self.pool[a as usize..(a + b) as usize]) },
            OpKind::WaitAny => {
                OpView::WaitNotifyAny { ids: IdsRef::Many(&self.pool[a as usize..(a + b) as usize]), count: c as usize }
            }
            OpKind::Send => OpView::Send { dst: decode_target(rank, a, mode, n), bytes: c, tag: b },
            OpKind::Isend => OpView::Isend { dst: decode_target(rank, a, mode, n), bytes: c, tag: b },
            OpKind::Recv => OpView::Recv { src: decode_target(rank, a, mode, n), bytes: c, tag: b },
            OpKind::WaitAllSends => OpView::WaitAllSends,
            OpKind::Barrier => OpView::Barrier,
        }
    }

    /// The arena invariant: every rank entry lies inside the arena, every
    /// pool slice inside the pool, every stored target code decodes to a
    /// valid peer for every rank sharing the segment, and every compute
    /// ordinal indexes its rank's duration list.  A `CompiledProgram` is
    /// valid by construction (private fields, one constructor), so this runs
    /// only as a debug assertion at the end of compilation; a run checks the
    /// rank count alone.
    fn check_bounds(&self) -> Result<(), String> {
        let n = self.num_ranks;
        let stored = self.kinds.len();
        if self.recs.len() != stored {
            return Err(format!("column lengths differ: kinds {stored}, records {}", self.recs.len()));
        }
        if self.entries.len() != n {
            return Err(format!("{} rank entries for {n} ranks", self.entries.len()));
        }
        if !self.duration_offsets.is_empty() && self.duration_offsets.len() != n {
            return Err(format!("{} duration offsets for {n} ranks", self.duration_offsets.len()));
        }
        let n_pow2 = n.is_power_of_two();
        // Compute ops per shared segment, keyed like the analyzer's classes.
        let mut computes: HashMap<(u32, u32, TargetMode), usize> = HashMap::new();
        for (rank, e) in self.entries.iter().enumerate() {
            let s = e.start as usize;
            let len = e.len as usize;
            let Some(end) = s.checked_add(len).filter(|&end| end <= stored) else {
                return Err(format!("rank {rank} ops [{s}, {s}+{len}) exceed arena length {stored}"));
            };
            let key = (e.start, e.len, e.mode);
            let segment_computes = if let Some(&k) = computes.get(&key) {
                k
            } else {
                // Rank-independent checks, once per shared segment.
                let mut ordinal = 0;
                for i in s..end {
                    match self.kinds[i] {
                        OpKind::Compute => {
                            if self.recs[i].c != ordinal {
                                return Err(format!(
                                    "op {i}: compute ordinal {} where {ordinal} is due",
                                    self.recs[i].c
                                ));
                            }
                            ordinal += 1;
                        }
                        OpKind::WaitMany | OpKind::WaitAny => {
                            let off = self.recs[i].a as usize;
                            let cnt = self.recs[i].b as usize;
                            match off.checked_add(cnt) {
                                Some(end) if end <= self.pool.len() => {}
                                _ => {
                                    return Err(format!(
                                        "op {i}: wait-id slice [{off}, {off}+{cnt}) exceeds pool length {}",
                                        self.pool.len()
                                    ));
                                }
                            }
                            if self.kinds[i] == OpKind::WaitAny {
                                let count = self.recs[i].c as usize;
                                if count == 0 || count > cnt {
                                    return Err(format!("op {i}: wait-any count {count} outside 1..={cnt}"));
                                }
                            }
                        }
                        OpKind::PutNotify | OpKind::Notify | OpKind::Send | OpKind::Isend | OpKind::Recv => {
                            let code = self.recs[i].a as usize;
                            let bad = match e.mode {
                                TargetMode::Delta => code == 0 || code >= n,
                                // For power-of-two n, `rank ^ code < n` holds
                                // for every rank iff `code < n`.
                                TargetMode::Xor => code == 0 || (n_pow2 && code >= n),
                            };
                            if bad {
                                return Err(format!(
                                    "op {i}: target code {code} invalid for {:?} mode at {n} ranks",
                                    e.mode
                                ));
                            }
                        }
                        _ => {}
                    }
                }
                computes.insert(key, ordinal as usize);
                ordinal as usize
            };
            let base = self.duration_base(rank);
            let needed = base + segment_computes;
            if needed > self.durations.len() {
                return Err(format!(
                    "rank {rank} durations [{base}, {needed}) exceed duration list length {}",
                    self.durations.len()
                ));
            }
            if e.mode == TargetMode::Xor && !n_pow2 {
                // Xor decoding is rank-dependent when n is not a power of
                // two; walk this rank's targets explicitly.
                for i in s..end {
                    if matches!(
                        self.kinds[i],
                        OpKind::PutNotify | OpKind::Notify | OpKind::Send | OpKind::Isend | OpKind::Recv
                    ) {
                        let dst = rank ^ self.recs[i].a as usize;
                        if dst >= n {
                            return Err(format!("op {i}: xor target {dst} out of range for rank {rank} at {n} ranks"));
                        }
                    }
                }
            }
        }
        Ok(())
    }
}

impl Program {
    /// Compile this program into the arena-encoded form the engine executes
    /// (see [`CompiledProgram`]).  Validates while encoding: returns exactly
    /// the error [`mod@crate::validate`] would.
    pub fn compile(&self) -> Result<CompiledProgram, ValidationError> {
        let mut compiler = Compiler::new(self.num_ranks())?;
        for (rank, rp) in self.ranks.iter().enumerate() {
            compiler.push_rank(rank, &rp.ops)?;
        }
        compiler.finish()
    }

    /// Footprint of the materialized representation (heap estimate: op
    /// records plus the boxed id lists of multi-id waits; a single-id wait
    /// holds its id inline in the op record, see [`WaitIds`]).
    pub fn memory_stats(&self) -> MemoryStats {
        let total_ops: u64 = self.ranks.iter().map(|rp| rp.ops.len() as u64).sum();
        let pool_ids: usize = self
            .ranks
            .iter()
            .flat_map(|rp| rp.ops.iter())
            .map(|op| match op {
                Op::WaitNotify { ids: WaitIds::Many(ids) } | Op::WaitNotifyAny { ids: WaitIds::Many(ids), .. } => {
                    ids.len()
                }
                _ => 0,
            })
            .sum();
        let arena_bytes = total_ops as usize * size_of::<Op>()
            + pool_ids * size_of::<NotifyId>()
            + self.ranks.len() * size_of::<Vec<Op>>();
        MemoryStats {
            num_ranks: self.num_ranks(),
            total_ops,
            stored_ops: total_ops as usize,
            segments: self.num_ranks(),
            pool_ids,
            arena_bytes,
            dedup_ratio: 1.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{ProgramBuilder, Tag};

    /// p-rank, `rounds`-round ring put/wait/reduce program (every rank's
    /// stream is the same algorithm rotated by its rank id).
    fn ring_program(p: usize, rounds: usize) -> Program {
        let mut b = ProgramBuilder::new(p);
        for round in 0..rounds {
            let id = round as NotifyId;
            for rank in 0..p {
                b.put_notify(rank, (rank + 1) % p, 4096, id);
            }
            for rank in 0..p {
                b.wait_notify(rank, &[id]);
                b.reduce(rank, 4096);
            }
        }
        b.build()
    }

    fn hypercube_program(p: usize) -> Program {
        let dims = p.trailing_zeros();
        let mut b = ProgramBuilder::new(p);
        for d in 0..dims {
            for rank in 0..p {
                b.put_notify(rank, rank ^ (1 << d), 1024, d);
            }
            for rank in 0..p {
                b.wait_notify(rank, &[d]);
                b.reduce(rank, 1024);
            }
        }
        b.build()
    }

    /// [`hypercube_program`] with a compute op before each dimension's put,
    /// lasting `seconds(rank, dim)`.
    fn noisy_hypercube(p: usize, seconds: impl Fn(RankId, u32) -> f64) -> Program {
        let mut b = ProgramBuilder::new(p);
        for d in 0..p.trailing_zeros() {
            for rank in 0..p {
                b.compute(rank, seconds(rank, d));
                b.put_notify(rank, rank ^ (1 << d), 1024, d);
            }
            for rank in 0..p {
                b.wait_notify(rank, &[d]);
                b.reduce(rank, 1024);
            }
        }
        b.build()
    }

    fn decoded(c: &CompiledProgram, rank: RankId) -> Vec<Op> {
        c.rank_ops(rank).iter().map(|v| v.to_op()).collect()
    }

    #[test]
    fn compile_roundtrips_every_rank() {
        let p = ring_program(7, 3);
        let c = p.compile().unwrap();
        for rank in 0..7 {
            assert_eq!(decoded(&c, rank), p.ranks[rank].ops, "rank {rank}");
        }
        assert_eq!(c.num_ranks(), 7);
        assert_eq!(c.total_ops(), p.total_ops() as u64);
        assert_eq!(c.total_wire_bytes(), p.total_wire_bytes());
        assert_eq!(c.notify_id_bound(), p.notify_id_bound());
        assert_eq!(*c.profile(), p.comm_profile());
        // Single-id waits are inlined in their op records, not pooled.
        assert_eq!(c.memory_stats().pool_ids, 0);
    }

    #[test]
    fn symmetric_ring_dedups_to_two_segments() {
        // Rank 0's stream xor-encodes (0 ^ 1 = 1 is a power of two) and the
        // rest share one delta segment — the arena stores 2 copies, not p.
        let p = ring_program(64, 4);
        let c = p.compile().unwrap();
        let stats = c.memory_stats();
        assert_eq!(stats.segments, 2, "{stats}");
        assert!(stats.stored_ops <= 2 * p.ranks[0].ops.len());
        assert!(stats.dedup_ratio > 30.0, "{stats}");
    }

    #[test]
    fn hypercube_dedups_to_one_segment() {
        let p = hypercube_program(32);
        let c = p.compile().unwrap();
        assert_eq!(c.memory_stats().segments, 1);
        for rank in 0..32 {
            assert_eq!(decoded(&c, rank), p.ranks[rank].ops, "rank {rank}");
        }
    }

    #[test]
    fn noisy_compute_streams_share_one_segment() {
        let extremes = [-0.0, 0.0, f64::from_bits(1), f64::MAX];
        let seconds = |rank: RankId, d: u32| match rank {
            // Whole lists of one extreme value each.
            0..4 => extremes[rank],
            // Each extreme once, per rank in another position.
            4..8 => extremes[(rank + d as usize) % 4],
            // Pairs of equal neighbours; ranks 24.. repeat ranks 8..16.
            _ => 1e-6 * ((rank % 16) / 2 + d as usize) as f64,
        };
        let noisy = noisy_hypercube(32, seconds);
        let quiet = noisy_hypercube(32, |_, _| 1e-6);
        let (c, twin) = (noisy.compile().unwrap(), quiet.compile().unwrap());
        assert_eq!(c.memory_stats().segments, twin.memory_stats().segments);
        assert_eq!(c.memory_stats().segments, 1);
        for rank in 0..32 {
            let bits: Vec<u64> = c
                .rank_ops(rank)
                .iter()
                .filter_map(|op| match op {
                    OpView::Compute { seconds } => Some(seconds.to_bits()),
                    _ => None,
                })
                .collect();
            assert_eq!(bits, (0..5).map(|d| seconds(rank, d).to_bits()).collect::<Vec<_>>(), "rank {rank}");
            assert_eq!(decoded(&c, rank), noisy.ranks[rank].ops, "rank {rank}");
        }
        // `==` on f64 would equate the zeros; the pool keys on bits.
        assert_ne!(c.duration_base(0), c.duration_base(1));
        // 4 + 4 + 8 distinct lists of 5 durations: the repeats are interned.
        assert_eq!(c.durations.len(), 16 * 5);
        assert_eq!(c.duration_offsets.len(), 32);
        // The quiet twin stores its one list once and no offset table.
        assert_eq!((twin.durations.len(), twin.duration_offsets.len()), (5, 0));
        let growth = c.memory_stats().arena_bytes - twin.memory_stats().arena_bytes;
        assert_eq!(growth, (16 - 1) * 5 * 8 + 32 * 4);
    }

    #[test]
    fn asymmetric_ranks_do_not_dedup() {
        let mut b = ProgramBuilder::new(3);
        b.put_notify(0, 1, 64, 0);
        b.wait_notify(1, &[0]);
        b.compute(2, 1e-3);
        let p = b.build();
        let c = p.compile().unwrap();
        assert_eq!(c.memory_stats().segments, 3);
        for rank in 0..3 {
            assert_eq!(decoded(&c, rank), p.ranks[rank].ops, "rank {rank}");
        }
    }

    #[test]
    fn segments_with_one_hash_stay_distinct() {
        // Dedup must compare whole segments and never trust the hash: force
        // one hash for two same-length segments of different content.
        const SAME: u64 = 7;
        let mut b = ProgramBuilder::new(2);
        b.put_notify(0, 1, 64, 0);
        b.wait_notify(1, &[0]);
        let p = b.build();
        let mut c = Compiler::new(2).unwrap();
        let encode = |c: &mut Compiler, rank: RankId| {
            encode_rank(rank, 2, &p.ranks[rank].ops, TargetMode::Delta, &mut c.pool, &mut c.pool_map, &mut c.delta)
                .unwrap();
        };
        for rank in 0..2 {
            encode(&mut c, rank);
            assert_eq!(c.lookup(SAME, TargetMode::Delta, &c.delta), None, "rank {rank}");
            c.insert_segment(SAME, TargetMode::Delta).unwrap();
        }
        assert_eq!(c.seg_map[&SAME].len(), 2);
        for rank in 0..2 {
            encode(&mut c, rank);
            let own = c.entries[rank];
            assert_eq!(c.lookup(SAME, TargetMode::Delta, &c.delta), Some((own.start, own.len)), "rank {rank}");
        }
        let c = c.finish().unwrap();
        assert_eq!(c.memory_stats().segments, 2);
        for rank in 0..2 {
            assert_eq!(decoded(&c, rank), p.ranks[rank].ops, "rank {rank}");
        }
    }

    #[test]
    fn wait_id_lists_intern_by_content() {
        let mut b = ProgramBuilder::new(2);
        b.put_notify(0, 1, 64, 0);
        b.notify(0, 1, 1);
        b.notify(0, 1, 2);
        // Two identical multi-id waits on rank 1 → one pool slice.
        b.wait_notify_any(1, &[0, 1, 2], 1);
        b.wait_notify_any(1, &[0, 1, 2], 2);
        let p = b.build();
        let c = p.compile().unwrap();
        assert_eq!(c.memory_stats().pool_ids, 3);
    }

    #[test]
    fn compile_reports_validation_errors() {
        let mut b = ProgramBuilder::new(2);
        b.wait_notify(0, &[4, 4]);
        let bad = b.build();
        let err = bad.compile().unwrap_err();
        assert_eq!(err, ValidationError::DuplicateWaitId { rank: 0, op_index: 0, id: 4 });
        // The streaming path and the stand-alone validator say the same.
        assert_eq!(CompiledProgram::from_source(&bad).unwrap_err(), err);
        assert_eq!(crate::validate::validate(&bad, 2).unwrap_err(), err);
    }

    #[test]
    fn rank_count_beyond_the_code_range_is_an_error_not_a_panic() {
        /// Claims more ranks than a `u32` target code can name.
        struct TooManyRanks;
        impl ProgramSource for TooManyRanks {
            fn num_ranks(&self) -> usize {
                u32::MAX as usize + 1
            }
            fn rank_ops(&self, _rank: RankId, _out: &mut Vec<Op>) {
                panic!("the rank count is refused before any rank is materialized");
            }
        }
        let err = CompiledProgram::from_source(&TooManyRanks).unwrap_err();
        assert_eq!(err, ValidationError::CodeRangeExceeded { what: "rank count", value: u32::MAX as usize + 1 });
        assert!(err.to_string().contains("rank count"), "{err}");
    }

    #[test]
    fn from_source_matches_compile() {
        let p = ring_program(12, 3);
        let a = p.compile().unwrap();
        let b = CompiledProgram::from_source(&p).unwrap();
        for rank in 0..12 {
            assert_eq!(decoded(&a, rank), decoded(&b, rank), "rank {rank}");
        }
        assert_eq!(a.memory_stats(), b.memory_stats());
    }

    #[test]
    fn ids_ref_debug_matches_vec_debug() {
        assert_eq!(format!("{:?}", IdsRef::One(3)), format!("{:?}", vec![3u32]));
        assert_eq!(format!("{:?}", IdsRef::Many(&[3, 4, 5])), format!("{:?}", vec![3u32, 4, 5]));
    }

    #[test]
    fn op_view_debug_matches_op_debug() {
        let p = ring_program(5, 2);
        let c = p.compile().unwrap();
        for rank in 0..5 {
            for (i, op) in p.ranks[rank].ops.iter().enumerate() {
                assert_eq!(format!("{:?}", c.op_view(rank, i)), format!("{op:?}"));
            }
        }
    }

    #[test]
    fn check_bounds_rejects_bad_entry_range() {
        let p = ring_program(4, 1);
        let mut c = p.compile().unwrap();
        c.entries[1].len += 1000;
        assert!(c.check_bounds().is_err());
    }

    #[test]
    fn check_bounds_rejects_bad_pool_slice() {
        let mut b = ProgramBuilder::new(2);
        b.put_notify(0, 1, 64, 0);
        b.notify(0, 1, 1);
        b.wait_notify(1, &[0, 1]);
        let mut c = b.build().compile().unwrap();
        // Find the WaitMany record and push its slice past the pool.
        let idx = c.kinds.iter().position(|&k| k == OpKind::WaitMany).unwrap();
        c.recs[idx].b += 7;
        assert!(c.check_bounds().is_err());
    }

    #[test]
    fn check_bounds_rejects_bad_target_code() {
        let p = ring_program(4, 1);
        let mut c = p.compile().unwrap();
        let idx = c.kinds.iter().position(|&k| k == OpKind::PutNotify).unwrap();
        c.recs[idx].a = 9; // delta 9 at p = 4
        assert!(c.check_bounds().is_err());
    }

    #[test]
    fn check_bounds_rejects_a_short_duration_list() {
        // One shared list: its last duration is read by every rank.
        let mut uniform = noisy_hypercube(4, |_, _| 1e-6).compile().unwrap();
        assert_eq!(uniform.check_bounds(), Ok(()));
        uniform.durations.pop();
        assert!(uniform.check_bounds().is_err());
        // Per-rank lists: the last rank's list ends the pool.
        let mut noisy = noisy_hypercube(4, |rank, d| (rank + d as usize) as f64).compile().unwrap();
        assert_eq!(noisy.check_bounds(), Ok(()));
        noisy.duration_offsets[3] += 1;
        assert!(noisy.check_bounds().is_err());
        // An ordinal past its segment's count reads another rank's list.
        let mut skewed = noisy_hypercube(4, |_, _| 1e-6).compile().unwrap();
        let idx = skewed.kinds.iter().position(|&k| k == OpKind::Compute).unwrap();
        skewed.recs[idx].c = 1;
        assert!(skewed.check_bounds().is_err());
    }

    #[test]
    fn arena_records_round_trip_extreme_values() {
        let mut b = ProgramBuilder::new(3);
        for seconds in [-0.0, f64::from_bits(1), f64::MAX] {
            b.compute(0, seconds);
        }
        b.reduce(0, u64::MAX).copy(0, 0);
        b.put_notify(0, 2, 1 << 40, NotifyId::MAX).notify(0, 1, 5);
        b.send(0, 1, 16, Tag::MAX).isend(0, 2, 2048, 0).wait_all_sends(0);
        b.recv(1, 0, 16, Tag::MAX).wait_notify_any(1, &[9, 5, NotifyId::MAX], 2).wait_notify(1, &[5]);
        b.recv(2, 0, 2048, 0).wait_notify(2, &[NotifyId::MAX]).wait_notify(2, &[1, 2]);
        b.barrier_all();
        let p = b.build();
        let c = p.compile().unwrap();
        for rank in 0..3 {
            assert_eq!(decoded(&c, rank), p.ranks[rank].ops, "rank {rank}");
        }
        // `==` on f64 equates the zeros: compare the bits.
        let seconds = |op: OpView<'_>| match op {
            OpView::Compute { seconds } => seconds.to_bits(),
            other => panic!("not a compute: {other:?}"),
        };
        assert_eq!([0, 1, 2].map(|i| seconds(c.op_view(0, i))), [(-0.0f64).to_bits(), 1, f64::MAX.to_bits()]);
        assert_eq!(c.op_view(1, 1).to_op(), Op::WaitNotifyAny { ids: vec![9, 5, NotifyId::MAX].into(), count: 2 });
        // 19 stored ops at 17 B, 5 pooled ids at 4 B, 3 rank entries at 12 B
        // and rank 0's 3 durations at 8 B: 323 + 20 + 36 + 24 = 403.  Ranks 1
        // and 2 have no compute op, so every list starts at 0 and no offset
        // table is stored.
        let stats = c.memory_stats();
        assert_eq!((stats.stored_ops, stats.pool_ids, stats.arena_bytes), (19, 5, 403));
        // The largest target code a program can hold: rank 1 to rank 0 at the
        // largest rank count.
        let n = u32::MAX as usize;
        assert_eq!(encode_target(1, 0, TargetMode::Delta, n), u32::MAX - 1);
        assert_eq!(decode_target(1, u32::MAX - 1, TargetMode::Delta, n), 0);
        assert_eq!(decode_target(n - 1, u32::MAX - 1, TargetMode::Delta, n), n - 2);
        assert_eq!(decode_target(0, 1 << 31, TargetMode::Xor, n), 1 << 31);
    }

    #[test]
    fn compute_free_programs_keep_their_footprint() {
        // Two segments of 12 ops at 17 B plus 64 rank entries at 12 B: a
        // program without a Compute op stores no duration and no offset.
        let stats = ring_program(64, 4).compile().unwrap().memory_stats();
        assert_eq!(
            stats,
            MemoryStats {
                num_ranks: 64,
                total_ops: 768,
                stored_ops: 24,
                segments: 2,
                pool_ids: 0,
                arena_bytes: 1176,
                dedup_ratio: 32.0,
            }
        );
    }

    #[test]
    fn memory_stats_display_is_compact() {
        let s = ring_program(8, 2).compile().unwrap().memory_stats().to_string();
        assert!(s.contains("8 ranks"), "{s}");
        assert!(s.contains("dedup"), "{s}");
    }
}

//! Per-rank operation programs: the intermediate representation in which
//! collective algorithms are handed to the simulator.
//!
//! A [`Program`] holds one ordered [`RankProgram`] per rank.  Each rank
//! executes its operations strictly in order; overlap between ranks (and
//! overlap of an individual rank's outstanding one-sided puts with its later
//! operations) is what the simulator models.

use std::fmt;
use std::ops::Deref;

use crate::cluster::RankId;

/// Identifier of a GASPI-style notification slot on the *target* rank.
pub type NotifyId = u32;

/// Message tag used to match two-sided sends and receives.
pub type Tag = u32;

/// The notification ids a wait lists, in listed order.
///
/// A single id — what every ring and hypercube step waits on — is stored
/// inline ([`WaitIds::One`]), so recording such a wait allocates nothing;
/// any other list is boxed ([`WaitIds::Many`]).  It derefs to
/// `[NotifyId]`, compares by content (`One(3) == Many([3])`) and
/// Debug-formats like a `Vec` (`[3]`, `[3, 4]`), so traces and deadlock
/// reports read the same whichever form holds the ids.
#[derive(Clone)]
pub enum WaitIds {
    /// A single id, stored inline.
    One(NotifyId),
    /// Any other list, on the heap.
    Many(Box<[NotifyId]>),
}

const _: () = assert!(size_of::<WaitIds>() == 16);

impl Deref for WaitIds {
    type Target = [NotifyId];

    fn deref(&self) -> &[NotifyId] {
        match self {
            WaitIds::One(id) => std::slice::from_ref(id),
            WaitIds::Many(ids) => ids,
        }
    }
}

impl<'a> IntoIterator for &'a WaitIds {
    type Item = &'a NotifyId;
    type IntoIter = std::slice::Iter<'a, NotifyId>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl PartialEq for WaitIds {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl<const N: usize> PartialEq<[NotifyId; N]> for WaitIds {
    fn eq(&self, other: &[NotifyId; N]) -> bool {
        **self == *other
    }
}

impl fmt::Debug for WaitIds {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl From<&[NotifyId]> for WaitIds {
    fn from(ids: &[NotifyId]) -> Self {
        match *ids {
            [id] => WaitIds::One(id),
            _ => WaitIds::Many(ids.into()),
        }
    }
}

impl From<Vec<NotifyId>> for WaitIds {
    fn from(ids: Vec<NotifyId>) -> Self {
        match *ids {
            [id] => WaitIds::One(id),
            _ => WaitIds::Many(ids.into_boxed_slice()),
        }
    }
}

/// One operation executed by a rank.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// Busy the rank for a fixed amount of local computation time.
    Compute {
        /// Duration in seconds.
        seconds: f64,
    },
    /// Apply the reduction operator to `bytes` bytes of local data.
    Reduce {
        /// Payload size in bytes.
        bytes: u64,
    },
    /// Copy `bytes` bytes locally (pack/unpack or staging copies).
    Copy {
        /// Payload size in bytes.
        bytes: u64,
    },
    /// One-sided write of `bytes` bytes into `dst`'s memory followed by a
    /// notification (`gaspi_write_notify`).  The issuing rank only pays the
    /// injection overhead; the transfer proceeds in the background.
    PutNotify {
        /// Target rank.
        dst: RankId,
        /// Payload size in bytes.
        bytes: u64,
        /// Notification slot updated on the target after the data landed.
        notify: NotifyId,
    },
    /// Pure notification without payload (`gaspi_notify`).
    Notify {
        /// Target rank.
        dst: RankId,
        /// Notification slot updated on the target.
        notify: NotifyId,
    },
    /// Block until **every** listed notification has been received at least
    /// once; consume (reset) them.
    WaitNotify {
        /// Notification slots to wait for.
        ids: WaitIds,
    },
    /// Block until at least `count` of the listed notifications have been
    /// received; consume the ones that arrived.
    WaitNotifyAny {
        /// Notification slots to wait for.
        ids: WaitIds,
        /// How many of them must have arrived before execution continues.
        count: u32,
    },
    /// Two-sided blocking send: the rank continues once the message has been
    /// handed to the network (eager) or fully transferred (rendezvous).
    Send {
        /// Destination rank.
        dst: RankId,
        /// Payload size in bytes.
        bytes: u64,
        /// Matching tag.
        tag: Tag,
    },
    /// Two-sided non-blocking send: the rank pays only the injection
    /// overhead; completion can be awaited with [`Op::WaitAllSends`].
    Isend {
        /// Destination rank.
        dst: RankId,
        /// Payload size in bytes.
        bytes: u64,
        /// Matching tag.
        tag: Tag,
    },
    /// Two-sided blocking receive of a message with matching `src`/`tag`.
    Recv {
        /// Source rank.
        src: RankId,
        /// Expected payload size in bytes (used for validation only).
        bytes: u64,
        /// Matching tag.
        tag: Tag,
    },
    /// Wait until all of this rank's outstanding non-blocking sends have left
    /// the NIC.
    WaitAllSends,
    /// Full synchronization of all ranks in the program.
    Barrier,
}

// A materialized `Program` holds `O(p · ops)` of these; a wait's ids stay
// inline or boxed (see `WaitIds`) so that no variant outgrows 24 bytes.
const _: () = assert!(size_of::<Op>() == 24);

impl Op {
    /// Bytes this operation moves over the network (0 for local operations).
    pub fn wire_bytes(&self) -> u64 {
        match self {
            Op::PutNotify { bytes, .. } | Op::Send { bytes, .. } | Op::Isend { bytes, .. } => *bytes,
            _ => 0,
        }
    }

    /// True for operations that may block the issuing rank on remote progress.
    pub fn is_blocking(&self) -> bool {
        matches!(
            self,
            Op::WaitNotify { .. }
                | Op::WaitNotifyAny { .. }
                | Op::Recv { .. }
                | Op::Send { .. }
                | Op::WaitAllSends
                | Op::Barrier
        )
    }
}

/// Ordered list of operations executed by a single rank.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RankProgram {
    /// Operations in program order.
    pub ops: Vec<Op>,
}

impl RankProgram {
    /// Number of operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the rank has no operations.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }
}

/// A complete multi-rank program.
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    /// One program per rank, indexed by rank id.
    pub ranks: Vec<RankProgram>,
}

impl Program {
    /// An empty program for `ranks` ranks.
    pub fn empty(ranks: usize) -> Self {
        Self { ranks: vec![RankProgram::default(); ranks] }
    }

    /// Number of ranks.
    pub fn num_ranks(&self) -> usize {
        self.ranks.len()
    }

    /// Total number of operations across all ranks.
    pub fn total_ops(&self) -> usize {
        self.ranks.iter().map(RankProgram::len).sum()
    }

    /// Total bytes injected into the network by all ranks, saturating at
    /// `u64::MAX` (validation rejects a program whose total overflows).
    pub fn total_wire_bytes(&self) -> u64 {
        self.ranks.iter().flat_map(|r| r.ops.iter()).map(Op::wire_bytes).fold(0, u64::saturating_add)
    }

    /// Exclusive upper bound of the notification-id range this program uses
    /// (the largest id referenced by any put, notify or wait, plus one; 0 for
    /// programs without notifications).
    pub fn notify_id_bound(&self) -> NotifyId {
        let mut bound: NotifyId = 0;
        for rp in &self.ranks {
            for op in &rp.ops {
                match op {
                    Op::PutNotify { notify, .. } | Op::Notify { notify, .. } => {
                        bound = bound.max(notify.saturating_add(1));
                    }
                    Op::WaitNotify { ids } | Op::WaitNotifyAny { ids, .. } => {
                        for id in ids {
                            bound = bound.max(id.saturating_add(1));
                        }
                    }
                    _ => {}
                }
            }
        }
        bound
    }

    /// The program's [`CommProfile`] by a plain prescan: the oracle the
    /// compiler's streaming fold is tested against.
    #[cfg(test)]
    pub(crate) fn comm_profile(&self) -> CommProfile {
        let n = self.num_ranks();
        let mut profile = CommProfile {
            notify_bounds: vec![0usize; n],
            waits_sends: vec![false; n],
            single_writer: true,
            one_sided_only: true,
        };
        // First distinct put/notify source observed per destination rank.
        let mut writer_of: Vec<Option<RankId>> = vec![None; n];
        for (rank, rp) in self.ranks.iter().enumerate() {
            for op in &rp.ops {
                match op {
                    Op::PutNotify { dst, notify, .. } | Op::Notify { dst, notify } => {
                        profile.notify_bounds[*dst] = profile.notify_bounds[*dst].max(*notify as usize + 1);
                        match writer_of[*dst] {
                            None => writer_of[*dst] = Some(rank),
                            Some(w) if w == rank => {}
                            Some(_) => profile.single_writer = false,
                        }
                    }
                    Op::WaitNotify { ids } | Op::WaitNotifyAny { ids, .. } => {
                        for &id in ids {
                            profile.notify_bounds[rank] = profile.notify_bounds[rank].max(id as usize + 1);
                        }
                    }
                    Op::WaitAllSends => profile.waits_sends[rank] = true,
                    Op::Send { .. } | Op::Isend { .. } | Op::Recv { .. } | Op::Barrier => {
                        profile.one_sided_only = false;
                    }
                    Op::Compute { .. } | Op::Reduce { .. } | Op::Copy { .. } => {}
                }
            }
        }
        profile
    }
}

/// Static per-program communication facts, folded while the program is
/// compiled (see [`CompiledProgram::profile`](crate::CompiledProgram::profile)).
/// The engine uses them to size its dense per-rank notification counters, to
/// skip `TxDone` bookkeeping for ranks that never wait on send completion,
/// and to decide whether the program is eligible for the dataflow fast
/// path.
#[derive(Debug, Clone, PartialEq)]
pub struct CommProfile {
    /// Per-rank exclusive bound on the notification ids that can be waited on
    /// or arrive (waits bound the waiting rank; puts/notifies bound the
    /// *target* rank).  Sizes the engine's dense notification counters.
    pub notify_bounds: Vec<usize>,
    /// Whether each rank ever executes [`Op::WaitAllSends`].  Ranks that
    /// never wait for send completion do not need per-put `TxDone`
    /// bookkeeping, which removes a third of the event traffic of put-only
    /// programs.
    pub waits_sends: Vec<bool>,
    /// Every destination rank receives puts/notifies from at most one source
    /// rank.  Single-writer programs have per-destination arrival streams
    /// that are FIFO in both issue order and visible time, which is what the
    /// dataflow fast path's determinism argument rests on.
    pub single_writer: bool,
    /// The program uses only one-sided operations and local work (no
    /// two-sided sends/receives, no barriers).
    pub one_sided_only: bool,
}

/// Convenience builder used by the collective schedule generators.
///
/// The builder exposes one method per [`Op`] variant; every method takes the
/// issuing rank explicitly so a schedule generator can interleave the
/// construction of all ranks' programs.
#[derive(Debug, Clone)]
pub struct ProgramBuilder {
    program: Program,
}

impl ProgramBuilder {
    /// Start building a program for `ranks` ranks.
    pub fn new(ranks: usize) -> Self {
        Self { program: Program::empty(ranks) }
    }

    /// Number of ranks in the program being built.
    pub fn num_ranks(&self) -> usize {
        self.program.num_ranks()
    }

    fn push(&mut self, rank: RankId, op: Op) -> &mut Self {
        self.program.ranks[rank].ops.push(op);
        self
    }

    /// Append a [`Op::Compute`] on `rank`.
    pub fn compute(&mut self, rank: RankId, seconds: f64) -> &mut Self {
        self.push(rank, Op::Compute { seconds })
    }

    /// Append a [`Op::Reduce`] on `rank`.
    pub fn reduce(&mut self, rank: RankId, bytes: u64) -> &mut Self {
        self.push(rank, Op::Reduce { bytes })
    }

    /// Append a [`Op::Copy`] on `rank`.
    pub fn copy(&mut self, rank: RankId, bytes: u64) -> &mut Self {
        self.push(rank, Op::Copy { bytes })
    }

    /// Append a [`Op::PutNotify`] on `rank` targeting `dst`.
    pub fn put_notify(&mut self, rank: RankId, dst: RankId, bytes: u64, notify: NotifyId) -> &mut Self {
        self.push(rank, Op::PutNotify { dst, bytes, notify })
    }

    /// Append a payload-less [`Op::Notify`] on `rank` targeting `dst`.
    pub fn notify(&mut self, rank: RankId, dst: RankId, notify: NotifyId) -> &mut Self {
        self.push(rank, Op::Notify { dst, notify })
    }

    /// Append a [`Op::WaitNotify`] on `rank`.
    pub fn wait_notify(&mut self, rank: RankId, ids: &[NotifyId]) -> &mut Self {
        self.push(rank, Op::WaitNotify { ids: ids.into() })
    }

    /// Append a [`Op::WaitNotifyAny`] on `rank`.
    pub fn wait_notify_any(&mut self, rank: RankId, ids: &[NotifyId], count: u32) -> &mut Self {
        self.push(rank, Op::WaitNotifyAny { ids: ids.into(), count })
    }

    /// Append a blocking [`Op::Send`] on `rank`.
    pub fn send(&mut self, rank: RankId, dst: RankId, bytes: u64, tag: Tag) -> &mut Self {
        self.push(rank, Op::Send { dst, bytes, tag })
    }

    /// Append a non-blocking [`Op::Isend`] on `rank`.
    pub fn isend(&mut self, rank: RankId, dst: RankId, bytes: u64, tag: Tag) -> &mut Self {
        self.push(rank, Op::Isend { dst, bytes, tag })
    }

    /// Append a blocking [`Op::Recv`] on `rank`.
    pub fn recv(&mut self, rank: RankId, src: RankId, bytes: u64, tag: Tag) -> &mut Self {
        self.push(rank, Op::Recv { src, bytes, tag })
    }

    /// Append a [`Op::WaitAllSends`] on `rank`.
    pub fn wait_all_sends(&mut self, rank: RankId) -> &mut Self {
        self.push(rank, Op::WaitAllSends)
    }

    /// Append a [`Op::Barrier`] on every rank.
    pub fn barrier_all(&mut self) -> &mut Self {
        for r in 0..self.program.num_ranks() {
            self.program.ranks[r].ops.push(Op::Barrier);
        }
        self
    }

    /// Append a [`Op::Barrier`] only on `rank` (all ranks must eventually
    /// issue a matching barrier for the program to complete).
    pub fn barrier(&mut self, rank: RankId) -> &mut Self {
        self.push(rank, Op::Barrier)
    }

    /// Finish building and return the program.
    pub fn build(self) -> Program {
        self.program
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_appends_in_program_order() {
        let mut b = ProgramBuilder::new(2);
        b.compute(0, 1e-6);
        b.put_notify(0, 1, 100, 3);
        b.wait_notify(1, &[3]);
        let p = b.build();
        assert_eq!(p.ranks[0].len(), 2);
        assert_eq!(p.ranks[1].len(), 1);
        assert!(matches!(p.ranks[0].ops[1], Op::PutNotify { dst: 1, bytes: 100, notify: 3 }));
    }

    #[test]
    fn wire_bytes_counts_only_network_ops() {
        let mut b = ProgramBuilder::new(2);
        b.reduce(0, 999);
        b.copy(0, 999);
        b.put_notify(0, 1, 100, 0);
        b.send(1, 0, 50, 1);
        b.isend(1, 0, 25, 2);
        let p = b.build();
        assert_eq!(p.total_wire_bytes(), 175);
    }

    #[test]
    fn blocking_classification() {
        assert!(Op::Recv { src: 0, bytes: 1, tag: 0 }.is_blocking());
        assert!(Op::Barrier.is_blocking());
        assert!(Op::WaitAllSends.is_blocking());
        assert!(!Op::Isend { dst: 0, bytes: 1, tag: 0 }.is_blocking());
        assert!(!Op::Compute { seconds: 0.0 }.is_blocking());
        assert!(!Op::PutNotify { dst: 0, bytes: 1, notify: 0 }.is_blocking());
    }

    #[test]
    fn barrier_all_touches_every_rank() {
        let mut b = ProgramBuilder::new(4);
        b.barrier_all();
        let p = b.build();
        for r in &p.ranks {
            assert_eq!(r.ops, vec![Op::Barrier]);
        }
    }

    #[test]
    fn notify_id_bound_covers_puts_and_waits() {
        let mut b = ProgramBuilder::new(3);
        b.put_notify(0, 1, 64, 3);
        b.notify(1, 2, 9);
        b.wait_notify(2, &[9]);
        b.wait_notify_any(1, &[3, 17], 1);
        assert_eq!(b.build().notify_id_bound(), 18);
        assert_eq!(Program::empty(2).notify_id_bound(), 0);
    }

    #[test]
    fn wait_ids_hold_one_id_inline_and_compare_by_content() {
        assert!(matches!(WaitIds::from(&[3][..]), WaitIds::One(3)));
        assert!(matches!(WaitIds::from(vec![3]), WaitIds::One(3)));
        assert!(matches!(WaitIds::from(vec![3, 4]), WaitIds::Many(_)));
        assert!(matches!(WaitIds::from(Vec::new()), WaitIds::Many(_)));
        let boxed_one = WaitIds::Many(Box::new([3]));
        assert_eq!(WaitIds::One(3), boxed_one);
        assert_eq!(boxed_one, WaitIds::One(3));
        assert_ne!(WaitIds::One(3), WaitIds::One(4));
        assert_ne!(WaitIds::One(3), WaitIds::from(vec![3, 4]));
        // Debug reads like the `Vec` a wait used to own, in both forms.
        assert_eq!(format!("{:?}", WaitIds::One(3)), "[3]");
        assert_eq!(format!("{boxed_one:?}"), "[3]");
        assert_eq!(format!("{:?}", WaitIds::from(vec![3, 4])), "[3, 4]");
        assert_eq!(format!("{:?}", Op::WaitNotify { ids: WaitIds::One(3) }), "WaitNotify { ids: [3] }");
    }

    #[test]
    fn empty_program_has_no_ops() {
        let p = Program::empty(3);
        assert_eq!(p.num_ranks(), 3);
        assert_eq!(p.total_ops(), 0);
        assert!(p.ranks.iter().all(RankProgram::is_empty));
    }
}

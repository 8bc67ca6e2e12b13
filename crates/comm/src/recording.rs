//! [`RankRecorder`]: the schedule-recorder backend emitting one rank's
//! `ec_netsim` op stream, and [`record`]: the program of a body replayed
//! once per rank on a fresh recorder.

use std::collections::HashMap;
use std::ops::Range;

use ec_netsim::{Op, Program, RankProgram, WaitIds};
use ec_ssp::{Clock, SspPolicy};

use crate::error::Result;
use crate::op::ReduceOp;
use crate::transport::{NotifyId, Rank, SlotUse, Transport};

/// [`Transport`] backend that executes a collective algorithm for **one
/// rank** with payloads abstracted to byte counts and records every
/// operation into a bare `Vec<ec_netsim::Op>`.
///
/// It holds nothing but the recorded rank's op stream, so recording a rank
/// costs O(ops of that rank): [`record`] replays a body once per rank into a
/// whole [`Program`], and an `ec_netsim::ProgramSource` replays it for just
/// the rank the compiler asks for.  Element offsets are ignored (the cost
/// model has no notion of segment layout); element counts are multiplied by
/// the configured element width to obtain wire bytes.
///
/// Two operations record nothing by design, mirroring the paper's cost
/// model: [`Transport::local_copy`] and [`Transport::buffer_copy`] (unpacking
/// a landing zone is free; only reductions cost γ per byte).
#[derive(Debug, Clone)]
pub struct RankRecorder {
    rank: Rank,
    num_ranks: usize,
    elem_bytes: u64,
    ops: Vec<Op>,
    /// Per [`Transport::wait_any`] id-set: how many arrivals were already
    /// linearized (see `wait_any` for the ordering contract).
    any_progress: HashMap<Vec<NotifyId>, usize>,
}

impl RankRecorder {
    /// Start recording rank `rank` of a `ranks`-rank collective whose payload
    /// elements are `elem_bytes` wide (8 for `f64` collectives, 1 for
    /// byte-granular ones).
    pub fn new(rank: Rank, ranks: usize, elem_bytes: u64) -> Self {
        assert!(elem_bytes > 0, "elements must have a non-zero width");
        assert!(rank < ranks, "rank {rank} out of range for {ranks} ranks");
        Self { rank, num_ranks: ranks, elem_bytes, ops: Vec::new(), any_progress: HashMap::new() }
    }

    /// Finish recording and return the rank's op stream in program order.
    pub fn finish(self) -> Vec<Op> {
        self.ops
    }

    fn bytes_of(&self, elems: usize) -> u64 {
        elems as u64 * self.elem_bytes
    }

    /// A put of `src` announced by notification `id`: the clock stamp of a
    /// stamped put travels as header, so only the payload is charged, and an
    /// empty payload degrades to a bare notification.
    fn put(&mut self, dst: Rank, src: Range<usize>, id: NotifyId) {
        if src.is_empty() {
            self.ops.push(Op::Notify { dst, notify: id });
        } else {
            self.ops.push(Op::PutNotify { dst, bytes: self.bytes_of(src.len()), notify: id });
        }
    }
}

/// Record the program produced by running `body` once per rank, each time
/// on a fresh [`RankRecorder`] for `ranks` ranks with `elem_bytes`-wide
/// elements (whatever `body` returns besides its ops is dropped).
///
/// This is the schedule-generator entry point: the same `body` that runs on
/// a [`crate::ThreadedTransport`] inside an `ec_gaspi::Job` is replayed for
/// every rank id in turn and its operations are captured.
///
/// # Panics
///
/// If `body` fails on the recorder — which only an invalid
/// [`Transport::wait_any`] set can make it do.
pub fn record<R>(ranks: usize, elem_bytes: u64, mut body: impl FnMut(&mut RankRecorder) -> Result<R>) -> Program {
    let ranks = (0..ranks)
        .map(|rank| {
            let mut rec = RankRecorder::new(rank, ranks, elem_bytes);
            body(&mut rec).expect("recording is infallible for a well-formed body");
            RankProgram { ops: rec.finish() }
        })
        .collect();
    Program { ranks }
}

impl Transport for RankRecorder {
    fn rank(&self) -> Rank {
        self.rank
    }

    fn num_ranks(&self) -> usize {
        self.num_ranks
    }

    fn put_notify(&mut self, dst: Rank, _dst_off: usize, src: Range<usize>, id: NotifyId) -> Result<()> {
        self.put(dst, src, id);
        Ok(())
    }

    fn put_stamped(
        &mut self,
        dst: Rank,
        _dst_off: usize,
        src: Range<usize>,
        _stamp: Clock,
        id: NotifyId,
    ) -> Result<()> {
        self.put(dst, src, id);
        Ok(())
    }

    fn notify(&mut self, dst: Rank, id: NotifyId) -> Result<()> {
        self.ops.push(Op::Notify { dst, notify: id });
        Ok(())
    }

    fn wait_notify(&mut self, id: NotifyId) -> Result<()> {
        self.ops.push(Op::WaitNotify { ids: WaitIds::One(id) });
        Ok(())
    }

    fn wait_all(&mut self, ids: &[NotifyId]) -> Result<()> {
        if !ids.is_empty() {
            self.ops.push(Op::WaitNotify { ids: ids.into() });
        }
        Ok(())
    }

    fn wait_any(&mut self, ids: &[NotifyId]) -> Result<NotifyId> {
        // Agree with the threaded backend on which sets are legal (empty or
        // non-contiguous sets would lose notifications on real GASPI).
        crate::transport::wait_set_bounds(ids)?;
        // Deterministic arrival order: complete the listed ids last-to-first
        // across consecutive calls.  In the binomial trees the later children
        // root the deeper subtrees, so this lets the simulated rank overlap
        // the early (shallow) contributions with the wait for the deep ones —
        // the same heuristic the hand-written seed schedules used.
        // Only the first wait of a round allocates the set's key.
        let served = match self.any_progress.get_mut(ids) {
            Some(served) => served,
            None => self.any_progress.entry(ids.to_vec()).or_insert(0),
        };
        let id = ids[ids.len() - 1 - *served];
        *served += 1;
        // A completed round clears its progress so a later collective in the
        // same recording can reuse the id set from scratch.
        if *served == ids.len() {
            self.any_progress.remove(ids);
        }
        self.ops.push(Op::WaitNotify { ids: WaitIds::One(id) });
        Ok(id)
    }

    fn local_reduce(&mut self, _src_off: usize, dst: Range<usize>, _op: ReduceOp) -> Result<()> {
        self.ops.push(Op::Reduce { bytes: self.bytes_of(dst.len()) });
        Ok(())
    }

    fn local_copy(&mut self, _src_off: usize, _dst: Range<usize>) -> Result<()> {
        Ok(())
    }

    fn buffer_copy(&mut self, _src: Range<usize>, _dst: Range<usize>) -> Result<()> {
        Ok(())
    }

    fn slot_reduce(
        &mut self,
        _slot_off: usize,
        len: usize,
        id: NotifyId,
        now: Clock,
        _policy: SspPolicy,
        _op: ReduceOp,
        _dst: Range<usize>,
    ) -> Result<SlotUse> {
        // Recorded schedules render the fully synchronous hypercube: every
        // step blocks for a fresh contribution and reduces it.
        self.ops.push(Op::WaitNotify { ids: WaitIds::One(id) });
        self.ops.push(Op::Reduce { bytes: self.bytes_of(len) });
        Ok(SlotUse { clock: now, waits: Vec::new() })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_puts_with_scaled_byte_counts() {
        let mut rec = RankRecorder::new(0, 2, 8);
        rec.put_notify(1, 0, 0..100, 4).unwrap();
        assert_eq!(rec.finish(), vec![Op::PutNotify { dst: 1, bytes: 800, notify: 4 }]);
    }

    #[test]
    fn empty_put_records_a_bare_notification() {
        let prog = record(2, 8, |t| if t.rank() == 0 { t.put_notify(1, 0, 5..5, 2) } else { Ok(()) });
        assert_eq!(prog.ranks[0].ops, vec![Op::Notify { dst: 1, notify: 2 }]);
        assert_eq!(prog.total_wire_bytes(), 0);
    }

    #[test]
    fn copies_are_free_reductions_are_not() {
        let mut rec = RankRecorder::new(0, 1, 8);
        rec.local_copy(0, 0..64).unwrap();
        rec.buffer_copy(0..64, 64..128).unwrap();
        rec.local_reduce(0, 0..64, ReduceOp::Sum).unwrap();
        assert_eq!(rec.finish(), vec![Op::Reduce { bytes: 512 }]);
    }

    #[test]
    fn wait_any_linearizes_last_to_first() {
        let mut rec = RankRecorder::new(0, 1, 1);
        let ids = [1u32, 2, 3];
        assert_eq!(rec.wait_any(&ids).unwrap(), 3);
        assert_eq!(rec.wait_any(&ids).unwrap(), 2);
        assert_eq!(rec.wait_any(&ids).unwrap(), 1);
        let waited: Vec<_> = rec
            .finish()
            .iter()
            .map(|op| match op {
                Op::WaitNotify { ids } => ids[0],
                other => panic!("unexpected op {other:?}"),
            })
            .collect();
        assert_eq!(waited, vec![3, 2, 1]);
    }

    #[test]
    fn wait_any_progress_resets_after_a_completed_round() {
        // Two collectives recorded back-to-back for the same rank may reuse
        // the same id set; each full round restarts the linearization.
        let mut rec = RankRecorder::new(0, 1, 1);
        let ids = [1u32, 2];
        assert_eq!(rec.wait_any(&ids).unwrap(), 2);
        assert_eq!(rec.wait_any(&ids).unwrap(), 1);
        assert_eq!(rec.wait_any(&ids).unwrap(), 2);
        assert_eq!(rec.wait_any(&ids).unwrap(), 1);
    }

    #[test]
    fn each_rank_starts_with_fresh_wait_any_progress() {
        // Rank 0 leaves its round half-served; rank 1 still starts from the
        // last listed id.
        let prog = record(2, 1, |t| t.wait_any(&[0, 1]));
        for rank in &prog.ranks {
            assert_eq!(rank.ops, vec![Op::WaitNotify { ids: vec![1].into() }]);
        }
    }

    #[test]
    fn wait_any_rejects_invalid_sets() {
        use crate::CommError;
        let mut rec = RankRecorder::new(0, 1, 1);
        assert!(matches!(rec.wait_any(&[1, 4]), Err(CommError::InvalidWaitSet { .. })));
        assert!(matches!(rec.wait_any(&[]), Err(CommError::InvalidWaitSet { .. })));
        // Nothing was recorded for the rejected waits.
        assert!(rec.finish().is_empty());
    }

    #[test]
    fn rank_recorder_rejects_invalid_wait_sets() {
        use crate::CommError;
        // An aliased set is refused mid-round without disturbing the
        // linearization of the valid set already in progress.
        let mut rec = RankRecorder::new(1, 2, 1);
        assert_eq!(rec.wait_any(&[1, 2, 3]).unwrap(), 3);
        assert!(matches!(rec.wait_any(&[1, 3, 3]), Err(CommError::InvalidWaitSet { .. })));
        assert_eq!(rec.wait_any(&[1, 2, 3]).unwrap(), 2);
        assert_eq!(rec.finish(), vec![Op::WaitNotify { ids: vec![3].into() }, Op::WaitNotify { ids: vec![2].into() }]);
    }

    #[test]
    fn recorder_emits_the_notify_id_range() {
        let prog = record(2, 8, |t| if t.rank() == 0 { t.put_notify(1, 0, 0..4, 11) } else { t.wait_notify(11) });
        assert_eq!(prog.notify_id_bound(), 12);
    }

    #[test]
    fn empty_stamped_put_records_a_bare_notification() {
        let mut rec = RankRecorder::new(0, 2, 8);
        rec.put_stamped(1, 0, 3..3, Clock::from(1), 4).unwrap();
        assert_eq!(rec.finish(), vec![Op::Notify { dst: 1, notify: 4 }]);
    }

    #[test]
    fn slot_reduce_records_the_synchronous_step() {
        let mut rec = RankRecorder::new(0, 2, 8);
        let u = rec.slot_reduce(0, 16, 7, Clock::from(3), SspPolicy::new(2), ReduceOp::Sum, 0..16).unwrap();
        assert_eq!(u.clock, Clock::from(3));
        assert!(u.waits.is_empty());
        assert_eq!(rec.finish(), vec![Op::WaitNotify { ids: vec![7].into() }, Op::Reduce { bytes: 128 }]);
    }

    #[test]
    fn wait_all_with_no_ids_records_nothing() {
        let mut rec = RankRecorder::new(0, 1, 1);
        rec.wait_all(&[]).unwrap();
        assert!(rec.finish().is_empty());
    }

    /// Drive one transport through every recordable operation.
    fn exercise<T: Transport>(t: &mut T) -> Result<SlotUse> {
        let r = t.rank();
        let p = t.num_ranks();
        let peer = (r + 1) % p;
        t.put_notify(peer, 0, 0..64, 1)?;
        t.put_notify(peer, 0, 5..5, 2)?;
        t.put_stamped(peer, 0, 0..16, Clock::from(3), 3)?;
        t.put_stamped(peer, 0, 9..9, Clock::from(3), 4)?;
        t.notify(peer, 5)?;
        t.wait_notify(1)?;
        t.wait_all(&[2, 3])?;
        t.wait_all(&[])?;
        assert_eq!(t.wait_any(&[4, 5, 6])?, 6);
        assert_eq!(t.wait_any(&[4, 5, 6])?, 5);
        t.local_reduce(0, 0..32, ReduceOp::Sum)?;
        t.local_copy(0, 0..32)?;
        t.buffer_copy(0..8, 8..16)?;
        t.slot_reduce(0, 16, 7, Clock::from(2), SspPolicy::new(1), ReduceOp::Sum, 0..16)
    }

    #[test]
    fn rank_recorder_matches_the_program_recorder_rank_for_rank() {
        let ranks = 3;
        let program = record(ranks, 8, exercise);
        for r in 0..ranks {
            let mut one = RankRecorder::new(r, ranks, 8);
            exercise(&mut one).unwrap();
            assert_eq!(one.finish(), program.ranks[r].ops, "rank {r} streams must agree");
        }
        assert_eq!(program.ranks[2].ops[0], Op::PutNotify { dst: 0, bytes: 512, notify: 1 });
    }
}

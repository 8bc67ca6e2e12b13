//! Single-source substrate for the two-sided baseline collectives.
//!
//! The GASPI collectives are written once against `ec_comm::Transport` and
//! executed on a threaded backend or recorded into an `ec_netsim::Program`.
//! This module gives the **MPI-like baselines** the same treatment: the
//! [`TwoSided`] trait captures the two-sided vocabulary (blocking and
//! non-blocking sends, receives that land in or fold into a working buffer,
//! local staging copies and folds, a barrier), and every baseline algorithm
//! in [`crate::variants`] is a single body generic over it.
//!
//! * [`ThreadedTwoSided`] runs the body on the real [`crate::comm`] runtime,
//!   moving `f64` payloads between rank threads, so its values can be
//!   checked;
//! * [`RecordingTwoSided`] replays the *same body* for one rank with
//!   payloads abstracted to element counts and records that rank's
//!   operations with two-sided semantics; [`record`] replays it once per
//!   rank into an `ec_netsim::Program` — the schedule the
//!   figure-regeneration benches and the `ec_bench::tuner` price.
//!
//! Because both worlds share one algorithm body, a variant's simulated
//! schedule can no longer drift from the code whose numerics are tested.
//!
//! ## Addressing model
//!
//! All ranges address *elements* of a single per-rank working buffer laid
//! out by the algorithm (payload plus any staging regions).  The threaded
//! backend interprets elements as `f64`s; the recorder multiplies lengths by
//! its configured element width to obtain wire bytes.  Empty ranges are
//! skipped symmetrically on both backends, so a zero-length chunk never
//! produces an unmatched message.

use std::ops::Range;

use ec_netsim::{Op, Program, RankProgram};

use crate::comm::{MpiComm, MpiError, Result, Tag};

/// Two-sided operations a baseline collective body is written against.
///
/// Every operation addresses elements of the rank's working buffer.  The
/// buffer layout (which ranges hold payload, which are staging space) is an
/// algorithm-level convention documented on each body in [`crate::variants`].
pub trait TwoSided {
    /// This rank's id.
    fn rank(&self) -> usize;

    /// Number of ranks in the world.
    fn num_ranks(&self) -> usize;

    /// Blocking send of `elems` from the working buffer to `dst`.
    ///
    /// Use only for one-directional edges (tree parent/child traffic) where
    /// the receive is already posted or posted independently; symmetric
    /// exchanges must use [`TwoSided::isend`] so the rendezvous protocol of
    /// the simulated two-sided layer cannot deadlock.
    fn send(&mut self, dst: usize, tag: Tag, elems: Range<usize>) -> Result<()>;

    /// Non-blocking send of `elems` to `dst`; completion is awaited by
    /// [`TwoSided::wait_all_sends`].
    fn isend(&mut self, dst: usize, tag: Tag, elems: Range<usize>) -> Result<()>;

    /// Wait until all outstanding non-blocking sends of this rank completed.
    fn wait_all_sends(&mut self) -> Result<()>;

    /// Blocking receive from `src` overwriting `elems` of the working buffer.
    fn recv_copy(&mut self, src: usize, tag: Tag, elems: Range<usize>) -> Result<()>;

    /// Blocking receive from `src` folded (element-wise sum) into `elems`.
    fn recv_reduce(&mut self, src: usize, tag: Tag, elems: Range<usize>) -> Result<()>;

    /// Copy `src` to the range starting at `dst` within the working buffer
    /// (pack/unpack staging; ranges may overlap).
    fn local_copy(&mut self, dst: usize, src: Range<usize>) -> Result<()>;

    /// Fold (element-wise sum) every `acc.len()`-element block of `src`
    /// into `acc`, block by block in order; `src` must not overlap `acc`.
    fn fold_local(&mut self, acc: Range<usize>, src: Range<usize>) -> Result<()>;

    /// Block until every rank of the world has entered the barrier.
    fn barrier(&mut self) -> Result<()>;
}

/// First tag of the threaded barrier's rounds; a dissemination barrier of
/// up to `2^32` ranks needs 32 rounds, so `BARRIER_TAG..=Tag::MAX` stays
/// clear of every collective body's tags.
const BARRIER_TAG: Tag = Tag::MAX - 31;

/// [`TwoSided`] backend over the threaded [`crate::comm`] runtime: real
/// `f64` data, real blocking receives — the correctness oracle.
///
/// The runtime's sends are buffered (standard-mode MPI semantics for
/// buffered messages), so `isend` and `send` coincide and
/// `wait_all_sends` is a no-op.
#[derive(Debug)]
pub struct ThreadedTwoSided<'a, 'b> {
    comm: &'a mut MpiComm,
    buf: &'b mut [f64],
}

impl<'a, 'b> ThreadedTwoSided<'a, 'b> {
    /// Wrap `comm` with the given working buffer.
    pub fn new(comm: &'a mut MpiComm, buf: &'b mut [f64]) -> Self {
        Self { comm, buf }
    }
}

impl TwoSided for ThreadedTwoSided<'_, '_> {
    fn rank(&self) -> usize {
        self.comm.rank()
    }

    fn num_ranks(&self) -> usize {
        self.comm.size()
    }

    fn send(&mut self, dst: usize, tag: Tag, elems: Range<usize>) -> Result<()> {
        if elems.is_empty() {
            return Ok(());
        }
        self.comm.send(dst, tag, &self.buf[elems])
    }

    fn isend(&mut self, dst: usize, tag: Tag, elems: Range<usize>) -> Result<()> {
        self.send(dst, tag, elems)
    }

    fn wait_all_sends(&mut self) -> Result<()> {
        Ok(())
    }

    fn recv_copy(&mut self, src: usize, tag: Tag, elems: Range<usize>) -> Result<()> {
        if elems.is_empty() {
            return Ok(());
        }
        let msg = self.comm.recv(src, tag)?;
        if msg.len() != elems.len() {
            return Err(MpiError::LengthMismatch { expected: elems.len(), got: msg.len() });
        }
        self.buf[elems].copy_from_slice(&msg);
        Ok(())
    }

    fn recv_reduce(&mut self, src: usize, tag: Tag, elems: Range<usize>) -> Result<()> {
        if elems.is_empty() {
            return Ok(());
        }
        let msg = self.comm.recv(src, tag)?;
        if msg.len() != elems.len() {
            return Err(MpiError::LengthMismatch { expected: elems.len(), got: msg.len() });
        }
        for (a, b) in self.buf[elems].iter_mut().zip(msg.iter()) {
            *a += *b;
        }
        Ok(())
    }

    fn local_copy(&mut self, dst: usize, src: Range<usize>) -> Result<()> {
        if src.is_empty() || dst == src.start {
            return Ok(());
        }
        self.buf.copy_within(src, dst);
        Ok(())
    }

    fn fold_local(&mut self, acc: Range<usize>, src: Range<usize>) -> Result<()> {
        if acc.is_empty() || src.is_empty() {
            return Ok(());
        }
        if !src.len().is_multiple_of(acc.len()) {
            return Err(MpiError::LengthMismatch { expected: acc.len(), got: src.len() });
        }
        for block in src.step_by(acc.len()) {
            for i in 0..acc.len() {
                self.buf[acc.start + i] += self.buf[block + i];
            }
        }
        Ok(())
    }

    /// Dissemination barrier: in round `k` every rank signals rank
    /// `+2^k` and waits for rank `-2^k` with a zero-length message, so a
    /// missing peer surfaces as the receive guard's [`MpiError::Timeout`].
    fn barrier(&mut self) -> Result<()> {
        let (p, rank) = (self.comm.size(), self.comm.rank());
        let mut distance = 1;
        let mut tag = BARRIER_TAG;
        while distance < p {
            self.comm.send((rank + distance) % p, tag, &[])?;
            self.comm.recv((rank + p - distance) % p, tag)?;
            distance <<= 1;
            tag += 1;
        }
        Ok(())
    }
}

/// [`TwoSided`] backend that records **one rank's** operations into a bare
/// `Vec<ec_netsim::Op>` with two-sided semantics (eager/rendezvous protocol,
/// matching overheads), pricing payloads as `elements * elem_bytes`.
#[derive(Debug)]
pub struct RecordingTwoSided {
    rank: usize,
    num_ranks: usize,
    elem_bytes: u64,
    ops: Vec<Op>,
}

impl RecordingTwoSided {
    /// Start recording rank `rank` of a `ranks`-rank world whose buffer
    /// elements are `elem_bytes` bytes wide (8 for `f64` payloads, 1 to
    /// address raw bytes directly).
    pub fn new(rank: usize, ranks: usize, elem_bytes: u64) -> Self {
        assert!(elem_bytes > 0, "elements must have a non-zero width");
        assert!(rank < ranks, "rank {rank} out of range for {ranks} ranks");
        Self { rank, num_ranks: ranks, elem_bytes, ops: Vec::new() }
    }

    /// Finish recording and return the rank's op stream in program order.
    pub fn finish(self) -> Vec<Op> {
        self.ops
    }

    fn bytes(&self, elems: &Range<usize>) -> u64 {
        elems.len() as u64 * self.elem_bytes
    }
}

impl TwoSided for RecordingTwoSided {
    fn rank(&self) -> usize {
        self.rank
    }

    fn num_ranks(&self) -> usize {
        self.num_ranks
    }

    fn send(&mut self, dst: usize, tag: Tag, elems: Range<usize>) -> Result<()> {
        if !elems.is_empty() {
            self.ops.push(Op::Send { dst, bytes: self.bytes(&elems), tag });
        }
        Ok(())
    }

    fn isend(&mut self, dst: usize, tag: Tag, elems: Range<usize>) -> Result<()> {
        if !elems.is_empty() {
            self.ops.push(Op::Isend { dst, bytes: self.bytes(&elems), tag });
        }
        Ok(())
    }

    fn wait_all_sends(&mut self) -> Result<()> {
        self.ops.push(Op::WaitAllSends);
        Ok(())
    }

    fn recv_copy(&mut self, src: usize, tag: Tag, elems: Range<usize>) -> Result<()> {
        if !elems.is_empty() {
            self.ops.push(Op::Recv { src, bytes: self.bytes(&elems), tag });
        }
        Ok(())
    }

    fn recv_reduce(&mut self, src: usize, tag: Tag, elems: Range<usize>) -> Result<()> {
        if !elems.is_empty() {
            let bytes = self.bytes(&elems);
            self.ops.push(Op::Recv { src, bytes, tag });
            self.ops.push(Op::Reduce { bytes });
        }
        Ok(())
    }

    fn local_copy(&mut self, dst: usize, src: Range<usize>) -> Result<()> {
        if !src.is_empty() && dst != src.start {
            self.ops.push(Op::Copy { bytes: self.bytes(&src) });
        }
        Ok(())
    }

    fn fold_local(&mut self, acc: Range<usize>, src: Range<usize>) -> Result<()> {
        if !acc.is_empty() && !src.is_empty() {
            self.ops.push(Op::Reduce { bytes: self.bytes(&src) });
        }
        Ok(())
    }

    fn barrier(&mut self) -> Result<()> {
        self.ops.push(Op::Barrier);
        Ok(())
    }
}

/// Record the program produced by running `body` once per rank, each time
/// on a fresh [`RecordingTwoSided`].
///
/// This is the schedule-generator entry point: the same `body` that runs on
/// [`ThreadedTwoSided`] inside an [`crate::comm::MpiWorld`] is replayed for
/// every rank id in turn and its operations are captured.
pub fn record(ranks: usize, elem_bytes: u64, mut body: impl FnMut(&mut RecordingTwoSided) -> Result<()>) -> Program {
    let ranks = (0..ranks)
        .map(|rank| {
            let mut rec = RecordingTwoSided::new(rank, ranks, elem_bytes);
            body(&mut rec).expect("recording backend operations are infallible");
            RankProgram { ops: rec.finish() }
        })
        .collect();
    Program { ranks }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::MpiWorld;
    use ec_netsim::{validate, Op};

    /// Toy body: every rank folds its right neighbour's first two elements
    /// into its own, then stages a local copy.
    fn fold_right<T: TwoSided>(t: &mut T) -> Result<()> {
        let p = t.num_ranks();
        let rank = t.rank();
        if p <= 1 {
            return Ok(());
        }
        t.isend((rank + p - 1) % p, 7, 0..2)?;
        t.recv_reduce((rank + 1) % p, 7, 0..2)?;
        t.local_copy(2, 0..2)?;
        t.wait_all_sends()
    }

    #[test]
    fn threaded_and_recorded_backends_share_one_body() {
        let p = 4;
        let out = MpiWorld::new(p).run(|comm| {
            let mut buf = vec![comm.rank() as f64 + 1.0, 10.0, 0.0, 0.0];
            let mut t = ThreadedTwoSided::new(comm, &mut buf);
            fold_right(&mut t).unwrap();
            buf
        });
        for (rank, buf) in out.iter().enumerate() {
            let right = (rank + 1) % p;
            assert_eq!(buf[0], (rank + 1) as f64 + (right + 1) as f64);
            assert_eq!(buf[1], 20.0);
            assert_eq!(buf[2], buf[0], "staging copy must duplicate the folded value");
        }

        let prog = record(p, 8, fold_right);
        validate(&prog, p).unwrap();
        assert_eq!(prog.total_wire_bytes(), p as u64 * 2 * 8);
        // Each rank: isend + recv + reduce + copy + wait_all_sends.
        assert_eq!(prog.total_ops(), p * 5);
        assert!(matches!(prog.ranks[0].ops[0], Op::Isend { dst: 3, bytes: 16, tag: 7 }));
    }

    #[test]
    fn empty_ranges_are_skipped_symmetrically() {
        let body = |t: &mut RecordingTwoSided| {
            let rank = t.rank();
            let peer = (rank + 1) % t.num_ranks();
            t.send(peer, 0, 0..0)?;
            t.recv_copy((rank + t.num_ranks() - 1) % t.num_ranks(), 0, 3..3)?;
            t.local_copy(5, 1..1)?;
            t.local_copy(4, 4..6)
        };
        let prog = record(3, 8, body);
        validate(&prog, 3).unwrap();
        assert_eq!(prog.total_ops(), 0, "zero-length transfers and self-targeted copies leave no ops");
    }

    #[test]
    fn recorder_prices_elements_at_the_configured_width() {
        let prog = record(2, 1, |t| if t.rank() == 0 { t.send(1, 0, 0..100) } else { t.recv_copy(0, 0, 0..100) });
        assert_eq!(prog.total_wire_bytes(), 100);
        let prog8 = record(2, 8, |t| if t.rank() == 0 { t.send(1, 0, 0..100) } else { t.recv_copy(0, 0, 0..100) });
        assert_eq!(prog8.total_wire_bytes(), 800);
    }

    #[test]
    fn threaded_backend_rejects_length_mismatches() {
        let out = MpiWorld::new(2).run(|comm| {
            if comm.rank() == 0 {
                let mut buf = vec![1.0; 4];
                let mut t = ThreadedTwoSided::new(comm, &mut buf);
                t.send(1, 0, 0..4).unwrap();
                None
            } else {
                let mut buf = vec![0.0; 2];
                let mut t = ThreadedTwoSided::new(comm, &mut buf);
                Some(t.recv_copy(0, 0, 0..2).unwrap_err())
            }
        });
        assert_eq!(out[1], Some(MpiError::LengthMismatch { expected: 2, got: 4 }));
    }

    #[test]
    fn fold_local_sums_every_block_and_records_one_reduce() {
        let out = MpiWorld::new(1).run(|comm| {
            let mut buf = vec![1.0, 2.0, 10.0, 20.0, 100.0, 200.0];
            let mut t = ThreadedTwoSided::new(comm, &mut buf);
            t.fold_local(0..2, 2..6).unwrap();
            let ragged = t.fold_local(0..2, 2..5).unwrap_err();
            (buf, ragged)
        });
        assert_eq!(out[0].0[..2], [111.0, 222.0]);
        assert_eq!(out[0].1, MpiError::LengthMismatch { expected: 2, got: 3 });

        let prog = record(1, 8, |t| t.fold_local(0..2, 2..6));
        assert_eq!(prog.ranks[0].ops, vec![Op::Reduce { bytes: 32 }]);
    }

    #[test]
    fn threaded_barrier_orders_every_rank_and_records_one_op() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        for p in [1usize, 2, 3, 5, 8] {
            let arrived = AtomicUsize::new(0);
            let seen = MpiWorld::new(p).run(|comm| {
                let mut t = ThreadedTwoSided::new(comm, &mut []);
                let mut seen = Vec::new();
                for round in 1..=3 {
                    arrived.fetch_add(1, Ordering::SeqCst);
                    t.barrier().unwrap();
                    seen.push(arrived.load(Ordering::SeqCst) >= round * p);
                    t.barrier().unwrap();
                }
                seen
            });
            assert!(seen.iter().flatten().all(|&ok| ok), "p={p}: a rank left the barrier early");
        }
        assert_eq!(record(3, 8, TwoSided::barrier).ranks[2].ops, vec![Op::Barrier]);
    }

    #[test]
    fn non_trivial_local_copies_are_priced() {
        let prog = record(1, 8, |t| t.local_copy(4, 0..4));
        assert_eq!(prog.total_ops(), 1);
        assert!(matches!(prog.ranks[0].ops[0], Op::Copy { bytes: 32 }));
    }
}

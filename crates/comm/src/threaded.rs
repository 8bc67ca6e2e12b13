//! [`ThreadedTransport`]: the real-data backend over `ec_gaspi::Context`.

use std::ops::Range;
use std::time::Instant;

use ec_gaspi::segment::decode_f64s;
use ec_gaspi::{Context, SegmentId};
use ec_ssp::{Clock, SspPolicy};

use crate::error::{CommError, Result};
use crate::op::ReduceOp;
use crate::transport::{NotifyId, Rank, SlotUse, Transport};

/// The payload a threaded transport operates on.
///
/// Value-carrying collectives (allreduce, broadcast, reduce) work in place on
/// a single `f64` buffer; byte-granular collectives (AlltoAll) use a distinct
/// send/receive pair addressed in bytes.
#[derive(Debug)]
enum Payload<'d> {
    /// In-place `f64` working buffer; element = one double (8 bytes).
    Elems(&'d mut [f64]),
    /// Byte-granular send/receive pair; element = one byte.
    Bytes {
        /// Read-only source of outgoing [`Transport::put_notify`] ranges.
        send: &'d [u8],
        /// Destination of [`Transport::local_copy`] / [`Transport::buffer_copy`].
        recv: &'d mut [u8],
    },
}

/// [`Transport`] backend that executes the algorithm on the threaded GASPI
/// runtime, moving real data between rank threads.
///
/// One instance is created per rank per collective call and borrows the
/// caller's payload for the duration of the call.
#[derive(Debug)]
pub struct ThreadedTransport<'a> {
    ctx: &'a Context,
    segment: SegmentId,
    payload: Payload<'a>,
}

impl<'a> ThreadedTransport<'a> {
    /// Transport over an in-place `f64` payload (element = one double).
    pub fn elems(ctx: &'a Context, segment: SegmentId, data: &'a mut [f64]) -> Self {
        Self { ctx, segment, payload: Payload::Elems(data) }
    }

    /// Transport over a byte-granular send/receive pair (element = one byte).
    pub fn bytes(ctx: &'a Context, segment: SegmentId, send: &'a [u8], recv: &'a mut [u8]) -> Self {
        Self { ctx, segment, payload: Payload::Bytes { send, recv } }
    }

    /// Bytes per payload element of this transport.
    fn elem_bytes(&self) -> usize {
        match self.payload {
            Payload::Elems(_) => 8,
            Payload::Bytes { .. } => 1,
        }
    }
}

impl Transport for ThreadedTransport<'_> {
    fn rank(&self) -> Rank {
        self.ctx.rank()
    }

    fn num_ranks(&self) -> usize {
        self.ctx.num_ranks()
    }

    fn put_notify(&mut self, dst: Rank, dst_off: usize, src: Range<usize>, id: NotifyId) -> Result<()> {
        if src.is_empty() {
            return self.notify(dst, id);
        }
        let byte_off = dst_off * self.elem_bytes();
        match &self.payload {
            Payload::Elems(buf) => {
                self.ctx.write_notify_f64s(dst, self.segment, byte_off, &buf[src], id, 1, 0)?;
            }
            Payload::Bytes { send, .. } => {
                self.ctx.write_notify(dst, self.segment, byte_off, &send[src], id, 1, 0)?;
            }
        }
        Ok(())
    }

    fn put_stamped(&mut self, dst: Rank, dst_off: usize, src: Range<usize>, stamp: Clock, id: NotifyId) -> Result<()> {
        let Payload::Elems(buf) = &self.payload else {
            return Err(CommError::UnsupportedOp { op: "put_stamped" });
        };
        // Stamp and data land as one write, which `slot_reduce` relies on.
        let parts: [&[f64]; 2] = [&[stamp.value() as f64], &buf[src]];
        self.ctx.write_list_notify_f64s(dst, self.segment, dst_off * 8, &parts, id, 1, 0)?;
        Ok(())
    }

    fn notify(&mut self, dst: Rank, id: NotifyId) -> Result<()> {
        self.ctx.notify(dst, self.segment, id, 1, 0)?;
        Ok(())
    }

    fn wait_notify(&mut self, id: NotifyId) -> Result<()> {
        self.ctx.notify_waitsome(self.segment, id, 1, None)?;
        self.ctx.notify_reset(self.segment, id)?;
        Ok(())
    }

    fn wait_all(&mut self, ids: &[NotifyId]) -> Result<()> {
        for &id in ids {
            self.wait_notify(id)?;
        }
        Ok(())
    }

    fn wait_any(&mut self, ids: &[NotifyId]) -> Result<NotifyId> {
        // With a gap in the range, waitsome could consume (and lose) a
        // notification the caller never listed — reject such sets up front.
        let (first, last) = crate::transport::wait_set_bounds(ids)?;
        let id = self.ctx.notify_waitsome(self.segment, first, last - first + 1, None)?;
        self.ctx.notify_reset(self.segment, id)?;
        Ok(id)
    }

    fn local_reduce(&mut self, src_off: usize, dst: Range<usize>, op: ReduceOp) -> Result<()> {
        let Payload::Elems(buf) = &mut self.payload else {
            return Err(CommError::UnsupportedOp { op: "local_reduce" });
        };
        let acc = &mut buf[dst];
        self.ctx.segment_with_range(self.segment, src_off * 8, acc.len() * 8, |landed| {
            op.accumulate_from(acc, decode_f64s(landed));
        })?;
        Ok(())
    }

    fn local_copy(&mut self, src_off: usize, dst: Range<usize>) -> Result<()> {
        let byte_off = src_off * self.elem_bytes();
        match &mut self.payload {
            Payload::Elems(buf) => {
                let out = &mut buf[dst];
                self.ctx.segment_with_range(self.segment, byte_off, out.len() * 8, |landed| {
                    out.iter_mut().zip(decode_f64s(landed)).for_each(|(o, v)| *o = v);
                })?;
            }
            Payload::Bytes { recv, .. } => {
                self.ctx.segment_read(self.segment, byte_off, &mut recv[dst])?;
            }
        }
        Ok(())
    }

    fn buffer_copy(&mut self, src: Range<usize>, dst: Range<usize>) -> Result<()> {
        match &mut self.payload {
            Payload::Elems(buf) => {
                if src != dst {
                    buf.copy_within(src, dst.start);
                }
            }
            Payload::Bytes { send, recv } => {
                recv[dst].copy_from_slice(&send[src]);
            }
        }
        Ok(())
    }

    fn slot_reduce(
        &mut self,
        slot_off: usize,
        len: usize,
        id: NotifyId,
        now: Clock,
        policy: SspPolicy,
        op: ReduceOp,
        dst: Range<usize>,
    ) -> Result<SlotUse> {
        let Payload::Elems(buf) = &mut self.payload else {
            return Err(CommError::UnsupportedOp { op: "slot_reduce" });
        };
        let acc = &mut buf[dst];
        let mut waits = Vec::new();
        loop {
            // One lock hold keeps the stamp and its data consistent; the data
            // is decoded only once the stamp is fresh enough.
            let accepted = self.ctx.segment_with_range(self.segment, slot_off * 8, (len + 1) * 8, |slot| {
                let (stamp, data) = slot.split_at(8);
                let slot_clock = Clock::from(decode_f64s(stamp).next().expect("one stamp") as i64);
                policy.is_acceptable(now, slot_clock).then(|| {
                    op.accumulate_from(acc, decode_f64s(data));
                    slot_clock
                })
            })?;
            if let Some(clock) = accepted {
                return Ok(SlotUse { clock, waits });
            }
            // Too stale: block until the partner's next update lands.
            let t0 = Instant::now();
            self.ctx.notify_waitsome(self.segment, id, 1, None)?;
            self.ctx.notify_reset(self.segment, id)?;
            waits.push(t0.elapsed());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ec_gaspi::{GaspiConfig, Job};
    use proptest::prelude::*;

    const SEG: SegmentId = 1;

    #[test]
    fn put_notify_moves_real_doubles() {
        let out = Job::new(GaspiConfig::new(2))
            .run(|ctx| {
                ctx.segment_create(SEG, 64).unwrap();
                ctx.barrier();
                let mut data = if ctx.rank() == 0 { vec![1.0, 2.0, 3.0] } else { vec![0.0; 3] };
                let mut t = ThreadedTransport::elems(ctx, SEG, &mut data);
                if t.rank() == 0 {
                    t.put_notify(1, 0, 0..3, 5).unwrap();
                } else {
                    t.wait_notify(5).unwrap();
                    t.local_copy(0, 0..3).unwrap();
                }
                data
            })
            .unwrap();
        assert_eq!(out[1], vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn empty_put_degrades_to_bare_notification() {
        let out = Job::new(GaspiConfig::new(2))
            .run(|ctx| {
                ctx.segment_create(SEG, 64).unwrap();
                ctx.barrier();
                let mut data = vec![7.0; 4];
                let mut t = ThreadedTransport::elems(ctx, SEG, &mut data);
                let peer = 1 - t.rank();
                t.put_notify(peer, 0, 2..2, 0).unwrap();
                t.wait_notify(0).unwrap();
                data
            })
            .unwrap();
        // No data moved, but both ranks saw the notification and completed.
        assert!(out.iter().all(|d| d == &vec![7.0; 4]));
    }

    #[test]
    fn wait_any_rejects_non_contiguous_sets_like_the_recorder() {
        use crate::RankRecorder;
        // Both backends must agree: gapped, duplicated and empty id sets are
        // rejected with `InvalidWaitSet` instead of panicking (threaded) or
        // being silently accepted (recorder).
        let bad_sets: [&[NotifyId]; 3] = [&[1, 3], &[1, 3, 3], &[]];
        for ids in bad_sets {
            let ids_owned = ids.to_vec();
            let threaded = Job::new(GaspiConfig::new(1))
                .run(move |ctx| {
                    ctx.segment_create(SEG, 16).unwrap();
                    let mut data = vec![0.0; 2];
                    let mut t = ThreadedTransport::elems(ctx, SEG, &mut data);
                    t.wait_any(&ids_owned)
                })
                .unwrap()[0]
                .clone();
            let mut rec = RankRecorder::new(0, 1, 8);
            let recorded = rec.wait_any(ids);
            assert!(matches!(threaded, Err(CommError::InvalidWaitSet { .. })), "threaded accepted {ids:?}");
            assert_eq!(threaded, recorded, "backends disagree on {ids:?}");
        }
    }

    #[test]
    fn wait_any_accepts_contiguous_sets_in_any_order() {
        let out = Job::new(GaspiConfig::new(2))
            .run(|ctx| {
                ctx.segment_create(SEG, 16).unwrap();
                ctx.barrier();
                let mut data = vec![0.0; 2];
                let mut t = ThreadedTransport::elems(ctx, SEG, &mut data);
                let peer = 1 - t.rank();
                t.notify(peer, 3).unwrap();
                // Unsorted but contiguous {2, 3, 4}: legal for both backends.
                t.wait_any(&[4, 2, 3])
            })
            .unwrap();
        for r in out {
            assert_eq!(r, Ok(3));
        }
    }

    #[test]
    fn local_reduce_folds_landed_contribution() {
        let out = Job::new(GaspiConfig::new(2))
            .run(|ctx| {
                ctx.segment_create(SEG, 64).unwrap();
                ctx.barrier();
                let mut data = vec![10.0, 20.0];
                let mut t = ThreadedTransport::elems(ctx, SEG, &mut data);
                let peer = 1 - t.rank();
                t.put_notify(peer, 0, 0..2, 3).unwrap();
                t.wait_notify(3).unwrap();
                t.local_reduce(0, 0..2, ReduceOp::Sum).unwrap();
                data
            })
            .unwrap();
        assert_eq!(out[0], vec![20.0, 40.0]);
        assert_eq!(out[1], vec![20.0, 40.0]);
    }

    #[test]
    fn byte_payload_rejects_float_reduction() {
        let out = Job::new(GaspiConfig::new(1))
            .run(|ctx| {
                ctx.segment_create(SEG, 16).unwrap();
                let send = vec![1u8; 8];
                let mut recv = vec![0u8; 8];
                let mut t = ThreadedTransport::bytes(ctx, SEG, &send, &mut recv);
                t.local_reduce(0, 0..8, ReduceOp::Sum)
            })
            .unwrap();
        assert_eq!(out[0], Err(CommError::UnsupportedOp { op: "local_reduce" }));
    }

    #[test]
    fn buffer_copy_moves_between_send_and_recv() {
        let out = Job::new(GaspiConfig::new(1))
            .run(|ctx| {
                ctx.segment_create(SEG, 16).unwrap();
                let send = vec![9u8, 8, 7, 6];
                let mut recv = vec![0u8; 4];
                let mut t = ThreadedTransport::bytes(ctx, SEG, &send, &mut recv);
                t.buffer_copy(1..3, 0..2).unwrap();
                recv
            })
            .unwrap();
        assert_eq!(out[0], vec![8, 7, 0, 0]);
    }

    #[test]
    fn stamped_slot_reduce_accepts_fresh_contribution() {
        let out = Job::new(GaspiConfig::new(2))
            .run(|ctx| {
                ctx.segment_create(SEG, 64).unwrap();
                ctx.barrier();
                let mut data = vec![1.0, 1.0];
                let mut t = ThreadedTransport::elems(ctx, SEG, &mut data);
                let peer = 1 - t.rank();
                let clock = Clock::from(1);
                t.put_stamped(peer, 0, 0..2, clock, 0).unwrap();
                let u = t.slot_reduce(0, 2, 0, clock, SspPolicy::new(0), ReduceOp::Sum, 0..2).unwrap();
                (data, u.clock)
            })
            .unwrap();
        for (data, clock) in out {
            assert_eq!(data, vec![2.0, 2.0]);
            assert_eq!(clock, Clock::from(1));
        }
    }

    /// Doubles with every awkward bit pattern: raw `u64` bits (NaN payloads,
    /// subnormals) interleaved with the named special values.
    fn awkward_f64s(mut seed: u64, len: usize) -> Vec<f64> {
        const SPECIAL: [f64; 8] =
            [0.0, -0.0, f64::INFINITY, f64::NEG_INFINITY, f64::NAN, f64::MIN_POSITIVE / 4.0, f64::MAX, -1.5];
        (0..len)
            .map(|_| {
                seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                match seed >> 61 {
                    0 => SPECIAL[(seed >> 32) as usize % SPECIAL.len()],
                    1 => f64::from_bits(0x7FF0_0000_0000_0000 | seed >> 12), // NaN with payload bits
                    2 => f64::from_bits(seed >> 12 & 0x000F_FFFF_FFFF_FFFF), // subnormal
                    _ => f64::from_bits(seed),
                }
            })
            .collect()
    }

    fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    /// Bit patterns of reduction results.  Which NaN payload an operation on
    /// two NaNs yields, and which zero `min`/`max` of `0.0` and `-0.0`, is up
    /// to the instruction selected (a vectorized loop may commute operands),
    /// so those two cases are canonicalized; everything else is exact.
    fn reduced_bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|v| if v.is_nan() { f64::NAN } else { v + 0.0 }).map(f64::to_bits).collect()
    }

    proptest! {
        /// The in-place encode/decode against the path it replaced:
        /// `f64s_to_bytes` → `write` → `read` → `bytes_to_f64s` → the indexed
        /// accumulate loop, compared by bit pattern.
        #[test]
        fn in_place_codec_is_bit_identical_to_the_staged_path(
            seed in 0u64..u64::MAX,
            len in 0usize..40,
            elem_off in 0usize..4,
            shift in 1usize..8,
            op_idx in 0usize..4,
        ) {
            use ec_gaspi::segment::{bytes_to_f64s, f64s_to_bytes, SegmentStorage};
            const SIZE: usize = 512;
            let op = [ReduceOp::Sum, ReduceOp::Prod, ReduceOp::Min, ReduceOp::Max][op_idx];
            let values = awkward_f64s(seed, len);
            let acc = awkward_f64s(!seed, len);
            // Staged reference, at a byte offset that is not a multiple of 8.
            let odd_off = elem_off * 8 + shift;
            let staged = SegmentStorage::new(SIZE, 1);
            prop_assert!(staged.write(odd_off, &f64s_to_bytes(&values)));
            let mut raw = vec![0u8; len * 8];
            prop_assert!(staged.read(odd_off, &mut raw));
            let want_copy = bytes_to_f64s(&raw);
            let mut want_reduce = acc.clone();
            for i in 0..len {
                want_reduce[i] = op.combine(want_reduce[i], want_copy[i]);
            }
            let out = Job::new(GaspiConfig::new(1))
                .run(|ctx| {
                    ctx.segment_create(SEG, SIZE).unwrap();
                    // Raw context path at the odd offset.
                    ctx.write_notify_f64s(0, SEG, odd_off, &values, 0, 1, 0).unwrap();
                    let mut odd_reduce = acc.clone();
                    let odd_copy = ctx
                        .segment_with_range(SEG, odd_off, len * 8, |landed| {
                            op.accumulate_from(&mut odd_reduce, decode_f64s(landed));
                            decode_f64s(landed).collect::<Vec<f64>>()
                        })
                        .unwrap();
                    // Transport path (element offsets) over the same values.
                    let mut send = values.clone();
                    ThreadedTransport::elems(ctx, SEG, &mut send).put_notify(0, elem_off, 0..len, 1).unwrap();
                    let mut reduced = acc.clone();
                    ThreadedTransport::elems(ctx, SEG, &mut reduced).local_reduce(elem_off, 0..len, op).unwrap();
                    let mut copied = acc.clone();
                    ThreadedTransport::elems(ctx, SEG, &mut copied).local_copy(elem_off, 0..len).unwrap();
                    [odd_reduce, odd_copy, reduced, copied]
                })
                .unwrap()
                .remove(0);
            prop_assert_eq!(reduced_bits(&out[0]), reduced_bits(&want_reduce));
            prop_assert_eq!(bits(&out[1]), bits(&want_copy));
            prop_assert_eq!(reduced_bits(&out[2]), reduced_bits(&want_reduce));
            prop_assert_eq!(bits(&out[3]), bits(&want_copy));
        }
    }

    #[test]
    fn out_of_range_put_and_read_report_their_range_and_write_nothing() {
        use ec_gaspi::GaspiError;
        const SIZE: usize = 64;
        let out = Job::new(GaspiConfig::new(2))
            .run(|ctx| {
                ctx.segment_create(SEG, SIZE).unwrap();
                ctx.barrier();
                let peer = 1 - ctx.rank();
                let mut data = vec![5.0; 4];
                let mut t = ThreadedTransport::elems(ctx, SEG, &mut data);
                // 4 doubles from element 6 end at byte 80 of 64.
                let put = t.put_notify(peer, 6, 0..4, 0);
                let stamped = t.put_stamped(peer, 5, 0..4, Clock::from(1), 0);
                let read = t.local_reduce(7, 0..2, ReduceOp::Sum);
                ctx.barrier();
                let mut landed = [1u8; SIZE];
                ctx.segment_read(SEG, 0, &mut landed).unwrap();
                let notified = ctx.notify_test_some(SEG, 0, 1).unwrap();
                (put, stamped, read, landed == [0u8; SIZE], notified, data)
            })
            .unwrap();
        for (rank, (put, stamped, read, untouched, notified, data)) in out.into_iter().enumerate() {
            let oob = |rank, offset, len| {
                Err(CommError::Runtime(GaspiError::OutOfBounds { rank, segment: SEG, offset, len, segment_size: SIZE }))
            };
            assert_eq!(put, oob(1 - rank, 48, 32));
            assert_eq!(stamped, oob(1 - rank, 40, 40));
            assert_eq!(read, oob(rank, 56, 16));
            assert!(untouched, "a rejected put must not write");
            assert_eq!(notified, None, "a rejected put must not notify");
            assert_eq!(data, vec![5.0; 4], "a rejected read must not reduce");
        }
    }
}

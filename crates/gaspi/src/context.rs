//! Per-rank handle exposing the GASPI-like API.

use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::config::GaspiConfig;
use crate::delivery::{Delivery, DeliveryEngine};
use crate::error::{GaspiError, Result};
use crate::notification::{NotificationId, NotificationValue};
use crate::segment::{bytes_to_f64s, encode_f64s, f64s_to_bytes, SegmentId, SegmentStorage};
use crate::state::SharedState;
use crate::{QueueId, Rank};

/// What a put carries, borrowed from the caller until it is encoded into the
/// target segment (or, on the delayed path, into the delivery's own buffer).
#[derive(Clone, Copy)]
enum Payload<'a> {
    Bytes(&'a [u8]),
    /// Doubles stored little-endian, the parts back to back.
    F64s(&'a [&'a [f64]]),
}

impl Payload<'_> {
    fn len(&self) -> usize {
        match self {
            Payload::Bytes(bytes) => bytes.len(),
            Payload::F64s(parts) => parts.iter().map(|part| part.len() * 8).sum(),
        }
    }

    /// The one pass over the payload: write it into `dst` (`len()` bytes).
    fn encode(&self, mut dst: &mut [u8]) {
        match self {
            Payload::Bytes(bytes) => dst.copy_from_slice(bytes),
            Payload::F64s(parts) => {
                for part in *parts {
                    let (head, rest) = dst.split_at_mut(part.len() * 8);
                    encode_f64s(part, head);
                    dst = rest;
                }
            }
        }
    }
}

/// Per-rank communication context (the equivalent of a GASPI process).
///
/// A context is handed to each rank closure by [`crate::Job::run`].  All
/// methods are `&self`; the context is internally synchronized and can be
/// shared with helper structs (e.g. the collectives in `ec-collectives`).
pub struct Context {
    rank: Rank,
    state: Arc<SharedState>,
    delivery: Option<Arc<DeliveryEngine>>,
    rng: Mutex<StdRng>,
}

impl std::fmt::Debug for Context {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Context").field("rank", &self.rank).field("num_ranks", &self.state.num_ranks()).finish()
    }
}

impl Context {
    pub(crate) fn new(rank: Rank, state: Arc<SharedState>, delivery: Option<Arc<DeliveryEngine>>) -> Self {
        let seed = state.config.network.seed ^ (rank as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        Self { rank, state, delivery, rng: Mutex::new(StdRng::seed_from_u64(seed)) }
    }

    /// This rank's id.
    pub fn rank(&self) -> Rank {
        self.rank
    }

    /// Number of ranks in the job.
    pub fn num_ranks(&self) -> usize {
        self.state.num_ranks()
    }

    /// The job configuration.
    pub fn config(&self) -> &GaspiConfig {
        &self.state.config
    }

    // -- segments ------------------------------------------------------------

    /// Create a zero-initialized segment of `size` bytes owned by this rank.
    pub fn segment_create(&self, segment: SegmentId, size: usize) -> Result<()> {
        let storage = Arc::new(SegmentStorage::new(size, self.state.config.notification_slots));
        self.state.register_segment(self.rank, segment, storage)
    }

    /// Size in bytes of a local segment.
    pub fn segment_size(&self, segment: SegmentId) -> Result<usize> {
        Ok(self.local_segment(segment)?.size())
    }

    /// Read `buf.len()` bytes from a local segment at `offset`.
    pub fn segment_read(&self, segment: SegmentId, offset: usize, buf: &mut [u8]) -> Result<()> {
        let seg = self.local_segment(segment)?;
        if seg.read(offset, buf) {
            Ok(())
        } else {
            Err(self.out_of_bounds(self.rank, segment, offset, buf.len(), seg.size()))
        }
    }

    /// Write `data` into a local segment at `offset` (no notification).
    pub fn segment_write_local(&self, segment: SegmentId, offset: usize, data: &[u8]) -> Result<()> {
        let seg = self.local_segment(segment)?;
        if seg.write(offset, data) {
            Ok(())
        } else {
            Err(self.out_of_bounds(self.rank, segment, offset, data.len(), seg.size()))
        }
    }

    /// Read `count` doubles from a local segment starting at byte `offset`.
    pub fn segment_read_f64s(&self, segment: SegmentId, offset: usize, count: usize) -> Result<Vec<f64>> {
        let mut buf = vec![0u8; count * 8];
        self.segment_read(segment, offset, &mut buf)?;
        Ok(bytes_to_f64s(&buf))
    }

    /// Write doubles into a local segment starting at byte `offset`.
    pub fn segment_write_local_f64s(&self, segment: SegmentId, offset: usize, values: &[f64]) -> Result<()> {
        self.segment_write_local(segment, offset, &f64s_to_bytes(values))
    }

    /// Run a closure over a byte range of a local segment while holding the
    /// segment lock and return its result: the allocation-free way to consume
    /// landed data (see [`crate::segment::decode_f64s`]).
    pub fn segment_with_range<R>(
        &self,
        segment: SegmentId,
        offset: usize,
        len: usize,
        f: impl FnOnce(&[u8]) -> R,
    ) -> Result<R> {
        let seg = self.local_segment(segment)?;
        seg.with_range(offset, len, f).ok_or_else(|| self.out_of_bounds(self.rank, segment, offset, len, seg.size()))
    }

    fn local_segment(&self, segment: SegmentId) -> Result<Arc<SegmentStorage>> {
        self.state.find_segment(self.rank, segment).ok_or(GaspiError::SegmentNotFound { rank: self.rank, segment })
    }

    fn out_of_bounds(
        &self,
        rank: Rank,
        segment: SegmentId,
        offset: usize,
        len: usize,
        segment_size: usize,
    ) -> GaspiError {
        GaspiError::OutOfBounds { rank, segment, offset, len, segment_size }
    }

    // -- one-sided communication ---------------------------------------------

    /// One-sided write of `data` into `(dst_rank, segment)` at byte `offset`
    /// (the equivalent of `gaspi_write`).
    pub fn write(&self, dst_rank: Rank, segment: SegmentId, offset: usize, data: &[u8], queue: QueueId) -> Result<()> {
        self.post_remote(dst_rank, segment, Some((offset, Payload::Bytes(data))), None, queue)
    }

    /// One-sided write followed by a notification (`gaspi_write_notify`):
    /// the notification is guaranteed to become visible only after the data.
    #[allow(clippy::too_many_arguments)]
    pub fn write_notify(
        &self,
        dst_rank: Rank,
        segment: SegmentId,
        offset: usize,
        data: &[u8],
        notify: NotificationId,
        value: NotificationValue,
        queue: QueueId,
    ) -> Result<()> {
        self.post_remote(dst_rank, segment, Some((offset, Payload::Bytes(data))), Some((notify, value)), queue)
    }

    /// Convenience wrapper around [`Context::write_notify`] for `f64` payloads.
    #[allow(clippy::too_many_arguments)]
    pub fn write_notify_f64s(
        &self,
        dst_rank: Rank,
        segment: SegmentId,
        offset: usize,
        values: &[f64],
        notify: NotificationId,
        value: NotificationValue,
        queue: QueueId,
    ) -> Result<()> {
        self.write_list_notify_f64s(dst_rank, segment, offset, &[values], notify, value, queue)
    }

    /// [`Context::write_notify_f64s`] for a payload held in several pieces (the
    /// shape of `gaspi_write_list_notify`): the parts land back to back from
    /// `offset` as one write, so no reader sees some of them without the rest.
    #[allow(clippy::too_many_arguments)]
    pub fn write_list_notify_f64s(
        &self,
        dst_rank: Rank,
        segment: SegmentId,
        offset: usize,
        parts: &[&[f64]],
        notify: NotificationId,
        value: NotificationValue,
        queue: QueueId,
    ) -> Result<()> {
        self.post_remote(dst_rank, segment, Some((offset, Payload::F64s(parts))), Some((notify, value)), queue)
    }

    /// Pure notification without payload (`gaspi_notify`).
    pub fn notify(
        &self,
        dst_rank: Rank,
        segment: SegmentId,
        notify: NotificationId,
        value: NotificationValue,
        queue: QueueId,
    ) -> Result<()> {
        self.post_remote(dst_rank, segment, None, Some((notify, value)), queue)
    }

    /// One-sided read (`gaspi_read`): copy bytes from a remote segment into
    /// `buf`.  The call is synchronous — it returns once the data is local.
    pub fn read(&self, src_rank: Rank, segment: SegmentId, offset: usize, buf: &mut [u8]) -> Result<()> {
        self.state.check_rank(src_rank)?;
        let seg = self.state.wait_segment(src_rank, segment, self.state.config.block_timeout)?;
        if !seg.read(offset, buf) {
            return Err(self.out_of_bounds(src_rank, segment, offset, buf.len(), seg.size()));
        }
        // A remote read pays the injected round-trip latency synchronously.
        if let Some(delay) = self.delivery_delay(buf.len(), src_rank) {
            std::thread::sleep(delay);
        }
        Ok(())
    }

    fn post_remote(
        &self,
        dst_rank: Rank,
        segment: SegmentId,
        payload: Option<(usize, Payload<'_>)>,
        notification: Option<(NotificationId, NotificationValue)>,
        queue: QueueId,
    ) -> Result<()> {
        self.state.check_rank(dst_rank)?;
        let queue_slot = self.state.queue(self.rank, queue)?;
        let target = self.state.wait_segment(dst_rank, segment, self.state.config.block_timeout)?;
        let payload_len = payload.map_or(0, |(_, p)| p.len());
        if let Some((offset, _)) = payload {
            if offset.checked_add(payload_len).is_none_or(|end| end > target.size()) {
                return Err(self.out_of_bounds(dst_rank, segment, offset, payload_len, target.size()));
            }
        }
        if let Some((id, value)) = &notification {
            if *id >= self.state.config.notification_slots {
                return Err(GaspiError::InvalidNotification { id: *id, slots: self.state.config.notification_slots });
            }
            if *value == 0 {
                return Err(GaspiError::ZeroNotificationValue);
            }
        }

        let delay = self.delivery_delay(payload_len, dst_rank);
        match (&self.delivery, delay) {
            (Some(engine), Some(delay)) => {
                // The delivery outlives this call, so it owns its bytes: the
                // delayed path's second copy.
                let mut bytes = vec![0; payload_len];
                let payload = payload.map(|(offset, p)| {
                    p.encode(&mut bytes);
                    (offset, bytes)
                });
                queue_slot.post();
                let submitted = engine.submit(Delivery {
                    deliver_at: Instant::now() + delay,
                    target,
                    payload,
                    notification,
                    queue: Arc::clone(&queue_slot),
                });
                if !submitted {
                    queue_slot.complete();
                    return Err(GaspiError::ShuttingDown);
                }
            }
            _ => {
                // Immediate visibility: apply data first, then the notification.
                if let Some((offset, p)) = payload {
                    let written = target.with_range_mut(offset, payload_len, |dst| p.encode(dst));
                    debug_assert!(written.is_some(), "bounds were validated above");
                }
                if let Some((id, value)) = notification {
                    target.notifications().set(id, value);
                }
            }
        }
        Ok(())
    }

    /// The injected delivery delay for a message of `bytes` bytes to
    /// `dst_rank`, or `None` when delivery is immediate.
    fn delivery_delay(&self, bytes: usize, dst_rank: Rank) -> Option<Duration> {
        let profile = &self.state.config.network;
        if profile.is_instant() || dst_rank == self.rank {
            return None;
        }
        let nominal = profile.nominal_delay(bytes);
        if profile.jitter <= 0.0 {
            return Some(nominal);
        }
        let factor: f64 = {
            let mut rng = self.rng.lock();
            rng.gen_range(1.0 - profile.jitter..1.0 + profile.jitter)
        };
        Some(nominal.mul_f64(factor.max(0.0)))
    }

    // -- notifications ---------------------------------------------------------

    /// Wait until any notification in `[first, first + num)` on a local
    /// segment becomes non-zero and return its id (`gaspi_notify_waitsome`).
    pub fn notify_waitsome(
        &self,
        segment: SegmentId,
        first: NotificationId,
        num: u32,
        timeout: Option<Duration>,
    ) -> Result<NotificationId> {
        let seg = self.local_segment(segment)?;
        let timeout = timeout.or(self.state.config.block_timeout);
        seg.notifications().waitsome(first, num, timeout).ok_or(GaspiError::Timeout)
    }

    /// Non-blocking check for a set notification in `[first, first + num)`.
    pub fn notify_test_some(
        &self,
        segment: SegmentId,
        first: NotificationId,
        num: u32,
    ) -> Result<Option<NotificationId>> {
        Ok(self.local_segment(segment)?.notifications().test_some(first, num))
    }

    /// Atomically read and reset a local notification (`gaspi_notify_reset`).
    /// Returns the previous value (zero if it was not set).
    pub fn notify_reset(&self, segment: SegmentId, id: NotificationId) -> Result<NotificationValue> {
        let seg = self.local_segment(segment)?;
        seg.notifications()
            .reset(id)
            .ok_or(GaspiError::InvalidNotification { id, slots: self.state.config.notification_slots })
    }

    /// Read a local notification value without resetting it.
    pub fn notify_peek(&self, segment: SegmentId, id: NotificationId) -> Result<NotificationValue> {
        let seg = self.local_segment(segment)?;
        seg.notifications()
            .peek(id)
            .ok_or(GaspiError::InvalidNotification { id, slots: self.state.config.notification_slots })
    }

    // -- queues and synchronization ---------------------------------------------

    /// Wait until all requests this rank posted on `queue` have been
    /// delivered (`gaspi_wait`).
    pub fn wait_queue(&self, queue: QueueId, timeout: Option<Duration>) -> Result<()> {
        let slot = self.state.queue(self.rank, queue)?;
        let timeout = timeout.or(self.state.config.block_timeout);
        if slot.wait_empty(timeout) {
            Ok(())
        } else {
            Err(GaspiError::Timeout)
        }
    }

    /// Full barrier over all ranks of the job (`gaspi_barrier`).
    pub fn barrier(&self) {
        self.state.barrier().wait();
    }
}

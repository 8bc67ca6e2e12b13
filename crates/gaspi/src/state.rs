//! Shared job state: the segment registry, queues and barrier.

use std::collections::HashMap;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

use crate::config::GaspiConfig;
use crate::error::{GaspiError, Result};
use crate::segment::{SegmentId, SegmentStorage};
use crate::{QueueId, Rank};

/// Accounting of outstanding (not yet delivered) requests on one queue.
#[derive(Debug, Default)]
pub struct QueueSlot {
    outstanding: Mutex<u64>,
    cv: Condvar,
}

impl QueueSlot {
    /// Register a newly posted request.
    pub fn post(&self) {
        *self.outstanding.lock() += 1;
    }

    /// Mark one request as delivered and wake waiters.
    pub fn complete(&self) {
        let mut n = self.outstanding.lock();
        debug_assert!(*n > 0, "queue completion without a matching post");
        *n = n.saturating_sub(1);
        drop(n);
        self.cv.notify_all();
    }

    /// Number of requests still in flight.
    pub fn outstanding(&self) -> u64 {
        *self.outstanding.lock()
    }

    /// Block until the queue drains or the timeout expires.
    pub fn wait_empty(&self, timeout: Option<Duration>) -> bool {
        let deadline = timeout.map(|t| Instant::now() + t);
        let mut n = self.outstanding.lock();
        while *n > 0 {
            match deadline {
                Some(d) => {
                    if Instant::now() >= d || self.cv.wait_until(&mut n, d).timed_out() {
                        return *n == 0;
                    }
                }
                None => self.cv.wait(&mut n),
            }
        }
        true
    }
}

/// State shared by all ranks of a job.
#[derive(Debug)]
pub struct SharedState {
    /// Job configuration.
    pub config: GaspiConfig,
    segments: Mutex<HashMap<(Rank, SegmentId), Arc<SegmentStorage>>>,
    segment_created: Condvar,
    queues: Vec<Vec<Arc<QueueSlot>>>,
    barrier: Barrier,
}

impl SharedState {
    /// Build the shared state for a job with the given configuration.
    pub fn new(config: GaspiConfig) -> Self {
        let n = config.num_ranks;
        let q = config.queues as usize;
        let queues = (0..n).map(|_| (0..q).map(|_| Arc::new(QueueSlot::default())).collect()).collect();
        Self {
            barrier: Barrier::new(n),
            segments: Mutex::new(HashMap::new()),
            segment_created: Condvar::new(),
            queues,
            config,
        }
    }

    /// Number of ranks in the job.
    pub fn num_ranks(&self) -> usize {
        self.config.num_ranks
    }

    /// Register a new segment owned by `rank`.
    pub fn register_segment(&self, rank: Rank, segment: SegmentId, storage: Arc<SegmentStorage>) -> Result<()> {
        let mut segs = self.segments.lock();
        if segs.contains_key(&(rank, segment)) {
            return Err(GaspiError::SegmentAlreadyExists { segment });
        }
        segs.insert((rank, segment), storage);
        drop(segs);
        self.segment_created.notify_all();
        Ok(())
    }

    /// Look up a segment without waiting.
    pub fn find_segment(&self, rank: Rank, segment: SegmentId) -> Option<Arc<SegmentStorage>> {
        self.segments.lock().get(&(rank, segment)).cloned()
    }

    /// Look up a segment, waiting up to `timeout` for it to be created.
    ///
    /// Remote ranks may race ahead of the owner's `segment_create`; waiting a
    /// bounded amount of time here removes the need for an explicit barrier
    /// right after segment creation.
    pub fn wait_segment(
        &self,
        rank: Rank,
        segment: SegmentId,
        timeout: Option<Duration>,
    ) -> Result<Arc<SegmentStorage>> {
        let deadline = timeout.map(|t| Instant::now() + t);
        let mut segs = self.segments.lock();
        loop {
            if let Some(s) = segs.get(&(rank, segment)) {
                return Ok(Arc::clone(s));
            }
            match deadline {
                Some(d) => {
                    if Instant::now() >= d || self.segment_created.wait_until(&mut segs, d).timed_out() {
                        if let Some(s) = segs.get(&(rank, segment)) {
                            return Ok(Arc::clone(s));
                        }
                        return Err(GaspiError::SegmentNotFound { rank, segment });
                    }
                }
                None => self.segment_created.wait(&mut segs),
            }
        }
    }

    /// The queue slot of (`rank`, `queue`).
    pub fn queue(&self, rank: Rank, queue: QueueId) -> Result<Arc<QueueSlot>> {
        if rank >= self.num_ranks() {
            return Err(GaspiError::InvalidRank { rank, num_ranks: self.num_ranks() });
        }
        self.queues[rank]
            .get(queue as usize)
            .cloned()
            .ok_or(GaspiError::InvalidQueue { queue, queues: self.config.queues })
    }

    /// The job-wide barrier.
    pub fn barrier(&self) -> &Barrier {
        &self.barrier
    }

    /// Validate that `rank` exists in this job.
    pub fn check_rank(&self, rank: Rank) -> Result<()> {
        if rank >= self.num_ranks() {
            Err(GaspiError::InvalidRank { rank, num_ranks: self.num_ranks() })
        } else {
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn queue_slot_post_complete_wait() {
        let q = QueueSlot::default();
        q.post();
        q.post();
        assert_eq!(q.outstanding(), 2);
        q.complete();
        assert!(!q.wait_empty(Some(Duration::from_millis(10))));
        q.complete();
        assert!(q.wait_empty(Some(Duration::from_millis(10))));
    }

    #[test]
    fn segment_registration_and_lookup() {
        let st = SharedState::new(GaspiConfig::new(2));
        let seg = Arc::new(SegmentStorage::new(16, 4));
        st.register_segment(1, 0, Arc::clone(&seg)).unwrap();
        assert!(st.find_segment(1, 0).is_some());
        assert!(st.find_segment(0, 0).is_none());
        assert!(matches!(st.register_segment(1, 0, seg), Err(GaspiError::SegmentAlreadyExists { segment: 0 })));
    }

    #[test]
    fn wait_segment_blocks_until_created() {
        let st = Arc::new(SharedState::new(GaspiConfig::new(1)));
        let st2 = Arc::clone(&st);
        let waiter = thread::spawn(move || st2.wait_segment(0, 7, Some(Duration::from_secs(5))).map(|s| s.size()));
        thread::sleep(Duration::from_millis(20));
        st.register_segment(0, 7, Arc::new(SegmentStorage::new(99, 1))).unwrap();
        assert_eq!(waiter.join().unwrap().unwrap(), 99);
    }

    #[test]
    fn wait_segment_times_out_for_missing_segment() {
        let st = SharedState::new(GaspiConfig::new(1));
        let err = st.wait_segment(0, 3, Some(Duration::from_millis(20))).unwrap_err();
        assert!(matches!(err, GaspiError::SegmentNotFound { segment: 3, .. }));
    }

    #[test]
    fn invalid_queue_and_rank_are_rejected() {
        let st = SharedState::new(GaspiConfig::new(2).with_queues(2));
        assert!(st.queue(0, 1).is_ok());
        assert!(matches!(st.queue(0, 2), Err(GaspiError::InvalidQueue { .. })));
        assert!(matches!(st.queue(5, 0), Err(GaspiError::InvalidRank { .. })));
        assert!(st.check_rank(1).is_ok());
        assert!(st.check_rank(2).is_err());
    }
}

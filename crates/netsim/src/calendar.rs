//! Bucketed calendar queue: the engine's O(1)-amortized event scheduler.
//!
//! A classic binary heap pays `O(log n)` per push and pop with a constant
//! dominated by pointer-chasing through a cache-unfriendly array.  A calendar
//! queue instead hashes each event into a ring of fixed-width time buckets
//! (`bucket = floor(time / width) mod num_buckets`) and only orders events
//! *within* the current bucket, which is tiny when the width matches the
//! event density.  The engine derives the width from the cost model's link
//! latencies — the natural spacing between a transfer's injection and its
//! delivery — so a bucket holds roughly one "wave" of events.
//!
//! Three tiers keep the structure correct for arbitrary inputs:
//!
//! * **ring** — events within `num_buckets` widths of the cursor live in
//!   their bucket, unsorted until the cursor reaches them (each bucket is
//!   sorted once, descending, and drained from the back);
//! * **sidecar** — a small binary heap for events that land in the *current*
//!   bucket (or, tolerated for robustness, behind the cursor): the current
//!   bucket is already sorted, so late entrants go through the heap whose
//!   occupancy is bounded by one bucket's population;
//! * **far** — a binary heap for events beyond the ring horizon; as the
//!   cursor advances, due far events migrate into the sidecar.
//!
//! The queue is a *total-order* priority queue: `pop` returns events in
//! exactly the order `T: Ord` defines (the engine orders events by
//! `(time, rank, seq)`), so replacing the global heap with this queue cannot
//! change simulation results — only the cost of maintaining them.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Items schedulable on a [`CalendarQueue`]: anything with a nonnegative
/// finite timestamp.  `Ord` must order primarily by this time (ties broken
/// however the caller likes); the queue relies on `bucket(min) <= bucket(x)`
/// for every `x` ordered after `min`.
pub(crate) trait Timed {
    /// The scheduling timestamp, in seconds.
    fn time(&self) -> f64;
}

/// Number of ring buckets (power of two so the ring index is a mask).
const NUM_BUCKETS: usize = 1 << 10;

/// A three-tier calendar queue (see the module docs).
#[derive(Debug, Clone)]
pub(crate) struct CalendarQueue<T> {
    /// Ring of buckets; bucket `b` (absolute index) lives at `b & MASK` and
    /// is allocated (`per_bucket` slots) when its first event arrives: a
    /// short run pays only for the buckets it touches.
    ring: Vec<Vec<T>>,
    per_bucket: usize,
    /// Absolute index of the current bucket (the one being drained).
    cur: u64,
    /// Whether the current bucket has been sorted (descending) already.
    cur_sorted: bool,
    /// Late entrants into the current bucket, and migrated due far events.
    sidecar: BinaryHeap<Reverse<T>>,
    /// Events at least `NUM_BUCKETS` widths past the cursor.
    far: BinaryHeap<Reverse<T>>,
    /// Bucket width in seconds.
    width: f64,
    len: usize,
    /// Current-bucket sorts performed (the queue's analogue of a resize:
    /// the price paid to keep the ring's head ordered; see
    /// [`crate::EngineMetrics::calendar_bucket_sorts`]).
    sorts: u64,
}

impl<T: Timed + Ord + Copy> CalendarQueue<T> {
    /// Create a queue with the given bucket `width` (clamped to a sane
    /// positive value) and pre-sized for roughly `capacity` events.
    pub(crate) fn new(width: f64, capacity: usize) -> Self {
        let width = if width.is_finite() && width > 0.0 { width } else { 1e-6 };
        Self {
            ring: (0..NUM_BUCKETS).map(|_| Vec::new()).collect(),
            per_bucket: (capacity / NUM_BUCKETS).max(4),
            cur: 0,
            cur_sorted: true,
            sidecar: BinaryHeap::with_capacity(64),
            far: BinaryHeap::new(),
            width,
            len: 0,
            sorts: 0,
        }
    }

    /// Number of current-bucket sorts performed so far.
    pub(crate) fn sorts(&self) -> u64 {
        self.sorts
    }

    /// Absolute bucket index of a timestamp.
    #[inline]
    fn bucket_of(&self, time: f64) -> u64 {
        debug_assert!(time >= 0.0 && time.is_finite(), "event times must be finite and nonnegative");
        (time / self.width) as u64
    }

    /// File `item` under its ring bucket `b` (within the horizon).
    #[inline]
    fn push_ring(&mut self, b: u64, item: T) {
        let bucket = &mut self.ring[(b & (NUM_BUCKETS as u64 - 1)) as usize];
        if bucket.capacity() == 0 {
            bucket.reserve_exact(self.per_bucket);
        }
        bucket.push(item);
    }

    /// Number of queued events (differential tests only; the engine drains
    /// by popping until `None`).
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    pub(crate) fn push(&mut self, item: T) {
        self.len += 1;
        let b = self.bucket_of(item.time());
        if b <= self.cur {
            // Current bucket (or a tolerated sliver behind the cursor — the
            // engine's monotonicity tolerance allows ties marginally below
            // `now`): the bucket is already sorted, so go through the heap.
            self.sidecar.push(Reverse(item));
        } else if b - self.cur < NUM_BUCKETS as u64 {
            self.push_ring(b, item);
        } else {
            self.far.push(Reverse(item));
        }
    }

    /// Advance the cursor to the next tier holding events, migrating due far
    /// events.  After this returns with `len > 0`, the minimum element is at
    /// the back of the (sorted) current bucket or at the sidecar top.
    fn settle(&mut self) {
        if self.len == 0 {
            return;
        }
        loop {
            if !self.sidecar.is_empty() || !self.ring[(self.cur & (NUM_BUCKETS as u64 - 1)) as usize].is_empty() {
                if !self.cur_sorted {
                    // Sort once, descending, so the minimum pops from the back.
                    let bucket = &mut self.ring[(self.cur & (NUM_BUCKETS as u64 - 1)) as usize];
                    if !bucket.is_empty() {
                        bucket.sort_unstable_by(|a, b| b.cmp(a));
                        self.sorts += 1;
                    }
                    self.cur_sorted = true;
                }
                return;
            }
            // Current bucket and sidecar empty: hop the cursor forward.  If
            // only far events remain, jump straight to the first one instead
            // of scanning empty buckets one at a time.
            let ring_populated = self.len > self.far.len();
            self.cur = if ring_populated { self.cur + 1 } else { self.bucket_of(self.far.peek().unwrap().0.time()) };
            self.cur_sorted = false;
            // Far events now due (at or before the cursor) surface through
            // the sidecar; events within the ring horizon go to their bucket.
            while let Some(Reverse(item)) = self.far.peek().copied() {
                let b = self.bucket_of(item.time());
                if b <= self.cur {
                    self.far.pop();
                    self.sidecar.push(Reverse(item));
                } else if b - self.cur < NUM_BUCKETS as u64 {
                    self.far.pop();
                    self.push_ring(b, item);
                } else {
                    break;
                }
            }
        }
    }

    /// The minimum element, without removing it.
    pub(crate) fn peek(&mut self) -> Option<&T> {
        if self.len == 0 {
            return None;
        }
        self.settle();
        let bucket = &self.ring[(self.cur & (NUM_BUCKETS as u64 - 1)) as usize];
        match (bucket.last(), self.sidecar.peek()) {
            (Some(b), Some(Reverse(s))) => Some(if b <= s { b } else { s }),
            (Some(b), None) => Some(b),
            (None, Some(Reverse(s))) => Some(s),
            (None, None) => unreachable!("settle leaves the minimum reachable"),
        }
    }

    /// Remove and return the minimum element.
    pub(crate) fn pop(&mut self) -> Option<T> {
        if self.len == 0 {
            return None;
        }
        self.settle();
        self.len -= 1;
        let bucket = &mut self.ring[(self.cur & (NUM_BUCKETS as u64 - 1)) as usize];
        match (bucket.last(), self.sidecar.peek()) {
            (Some(b), Some(Reverse(s))) => {
                if b <= s {
                    bucket.pop()
                } else {
                    self.sidecar.pop().map(|Reverse(s)| s)
                }
            }
            (Some(_), None) => bucket.pop(),
            (None, Some(_)) => self.sidecar.pop().map(|Reverse(s)| s),
            (None, None) => unreachable!("settle leaves the minimum reachable"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone, Copy, PartialEq)]
    struct Ev {
        time: f64,
        seq: u64,
    }
    impl Eq for Ev {}
    impl PartialOrd for Ev {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }
    impl Ord for Ev {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            self.time.total_cmp(&other.time).then_with(|| self.seq.cmp(&other.seq))
        }
    }
    impl Timed for Ev {
        fn time(&self) -> f64 {
            self.time
        }
    }

    #[test]
    fn drains_in_time_order_across_buckets() {
        let mut q = CalendarQueue::new(1.0, 16);
        for (i, t) in [5.5, 0.25, 3.0, 0.75, 2.0, 1024.0, 2.5].iter().enumerate() {
            q.push(Ev { time: *t, seq: i as u64 });
        }
        let mut out = Vec::new();
        while let Some(e) = q.pop() {
            out.push(e.time);
        }
        assert_eq!(out, vec![0.25, 0.75, 2.0, 2.5, 3.0, 5.5, 1024.0]);
        assert!(q.is_empty());
    }

    #[test]
    fn ties_break_by_seq() {
        let mut q = CalendarQueue::new(1.0, 4);
        q.push(Ev { time: 1.0, seq: 2 });
        q.push(Ev { time: 1.0, seq: 0 });
        q.push(Ev { time: 1.0, seq: 1 });
        assert_eq!(q.pop().unwrap().seq, 0);
        assert_eq!(q.pop().unwrap().seq, 1);
        assert_eq!(q.pop().unwrap().seq, 2);
    }

    #[test]
    fn pushes_into_the_current_bucket_surface_immediately() {
        let mut q = CalendarQueue::new(1.0, 4);
        q.push(Ev { time: 0.5, seq: 0 });
        assert_eq!(q.pop().unwrap().seq, 0);
        // The cursor sits in bucket 0; a new event in bucket 0 must still pop
        // before a later one, even though the bucket was already sorted.
        q.push(Ev { time: 0.9, seq: 2 });
        q.push(Ev { time: 0.6, seq: 1 });
        assert_eq!(q.pop().unwrap().seq, 1);
        assert_eq!(q.pop().unwrap().seq, 2);
    }

    #[test]
    fn far_events_migrate_as_the_cursor_advances() {
        let mut q = CalendarQueue::new(1e-6, 4);
        // Far beyond the 1024-bucket horizon from t=0.
        q.push(Ev { time: 1.0, seq: 0 });
        q.push(Ev { time: 0.5, seq: 1 });
        q.push(Ev { time: 1.0 + 0.5e-6, seq: 2 });
        assert_eq!(q.pop().unwrap().seq, 1);
        assert_eq!(q.pop().unwrap().seq, 0);
        assert_eq!(q.pop().unwrap().seq, 2);
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn peek_matches_pop() {
        let mut q = CalendarQueue::new(0.125, 8);
        for i in 0..64u64 {
            q.push(Ev { time: ((i * 37) % 64) as f64 * 0.3, seq: i });
        }
        while !q.is_empty() {
            let p = *q.peek().unwrap();
            assert_eq!(q.pop(), Some(p));
        }
    }

    fn allocated_buckets(q: &CalendarQueue<Ev>) -> usize {
        q.ring.iter().filter(|b| b.capacity() > 0).count()
    }

    #[test]
    fn a_fresh_queue_allocates_only_the_buckets_it_uses() {
        let mut q = CalendarQueue::new(1.0, 1 << 14);
        assert_eq!(allocated_buckets(&q), 0);
        // Seven events in three ring buckets, one in the current bucket (the
        // sidecar) and one beyond the horizon (the far heap).
        for (seq, time) in [3.5, 3.25, 9.0, 3.75, 700.5, 9.5, 700.0, 0.5, 5000.0].into_iter().enumerate() {
            q.push(Ev { time, seq: seq as u64 });
        }
        assert_eq!(allocated_buckets(&q), 3);
        assert!(q.ring.iter().all(|b| b.capacity() == 0 || b.capacity() == 16), "first use reserves per_bucket");
        let drained: Vec<_> = std::iter::from_fn(|| q.pop()).map(|e| e.time).collect();
        assert_eq!(drained, [0.5, 3.25, 3.5, 3.75, 9.0, 9.5, 700.0, 700.5, 5000.0]);
        // The far event passed through the ring or the sidecar on its way out.
        assert!(allocated_buckets(&q) <= 4);
    }

    #[test]
    fn a_queue_reused_past_its_first_wrap_does_not_reallocate() {
        // Three events in flight per bucket width, each pop schedules the
        // next one a third of the ring ahead: the steady state of a run.
        let mut q = CalendarQueue::new(1.0, 4 * NUM_BUCKETS);
        let step = |q: &mut CalendarQueue<Ev>, seq: u64| {
            let e = q.pop().unwrap();
            q.push(Ev { time: e.time + 341.0, seq });
            e.time
        };
        for seq in 0..1024u64 {
            q.push(Ev { time: seq as f64 / 3.0, seq });
        }
        let mut seq = 1024;
        while step(&mut q, seq) < 2.0 * NUM_BUCKETS as f64 {
            seq += 1;
        }
        let buffers = |q: &CalendarQueue<Ev>| q.ring.iter().map(|b| (b.as_ptr(), b.capacity())).collect::<Vec<_>>();
        let after_first_wraps = buffers(&q);
        assert_eq!(allocated_buckets(&q), NUM_BUCKETS);
        while step(&mut q, seq) < 6.0 * NUM_BUCKETS as f64 {
            seq += 1;
        }
        assert_eq!(buffers(&q), after_first_wraps, "steady state must reuse every bucket's buffer");
    }

    /// Interleave 20 000 pushes and pops drawn from a deterministic xorshift
    /// stream and assert the calendar queue pops exactly what a binary heap
    /// pops.  `horizon` maps a random word to a new event's distance from
    /// the clock (the time of the latest pop).  Returns how many pops had
    /// the same timestamp as the pop before them.
    fn assert_agrees_with_heap(width: f64, horizon: impl Fn(u64) -> f64) -> usize {
        let mut q = CalendarQueue::new(width, 32);
        let mut reference: BinaryHeap<Reverse<Ev>> = BinaryHeap::new();
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let (mut clock, mut ties) = (0.0f64, 0);
        for seq in 0..20_000u64 {
            let r = next();
            if r % 5 < 3 || reference.is_empty() {
                let ev = Ev { time: clock + horizon(r), seq };
                q.push(ev);
                reference.push(Reverse(ev));
            } else {
                let expect = reference.pop().unwrap().0;
                let got = q.pop().unwrap();
                assert_eq!(got, expect, "divergence at step {seq} (width {width:e})");
                ties += usize::from(expect.time == clock);
                clock = clock.max(expect.time);
            }
            assert_eq!(q.len(), reference.len());
        }
        while let Some(Reverse(expect)) = reference.pop() {
            assert_eq!(q.pop(), Some(expect));
        }
        assert!(q.pop().is_none());
        ties
    }

    #[test]
    fn agrees_with_a_binary_heap_on_pseudo_random_interleaved_ops() {
        // Mixture of near (same wave), mid (ring) and far horizons.
        assert_agrees_with_heap(3.7e-4, |r| match r % 7 {
            0 => 0.0,
            1..=4 => 1e-4 * ((r >> 8) % 100) as f64,
            _ => 1.0 * ((r >> 8) % 4) as f64,
        });
    }

    #[test]
    fn agrees_with_a_binary_heap_on_packet_shaped_streams() {
        // The packet fabric's event mix: a handful of fixed delays (re-poke
        // now, one MTU's serialization, one or two hops' flight, the 1 ms
        // retransmission timer), so most events tie exactly with others and
        // only `seq` orders them.  Widths from far below to far above the
        // ~0.3 us event spacing; under the 10 ns ring (a 10 us horizon) the
        // timers live in the far tier until the cursor reaches them.
        for width in [1e-8, 2e-8, 1e-7, 1e-6, 1e-5] {
            let ties = assert_agrees_with_heap(width, |r| match r % 8 {
                0 | 1 => 0.0,
                2 | 3 => 327.68e-9,
                4 | 5 => 500e-9,
                6 => 1000e-9,
                _ => 1e-3,
            });
            assert!(ties > 2000, "the stream must be tie-heavy, saw {ties} equal-time pops");
        }
    }
}

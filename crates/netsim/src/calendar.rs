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
//! Each future bucket within `NUM_BUCKETS` widths of the cursor is an unsorted
//! chain of 8-event chunks, flagged in an occupancy bitmap so the cursor skips
//! empty buckets a word at a time.  Reaching a bucket, the cursor drains its
//! chain into one reused `Vec`, sorted descending so the minimum pops from the
//! back; late entrants (for the current bucket or, tolerated, behind the
//! cursor) go in by binary insertion.  Events past the ring horizon wait in a
//! binary heap and migrate to their bucket as the cursor comes within range.
//!
//! How a drained bucket is ordered depends on its size:
//!
//! * Up to 32 events: copied out and comparison-sorted.  Packet buckets hold
//!   about 9; an insertion sort there measured 4–7 % slower on the packet
//!   workload.
//! * More: one counting pass counts the events in each of `s` equal
//!   sub-intervals of the bucket's width (`s` is the event count rounded up to
//!   a power of two, at most 4096).  The events are then scattered straight
//!   from the chain into the `Vec`, latest sub-interval first and, inside one,
//!   newest push first.  So equal-time events pushed in ascending order land
//!   already descending.  An insertion sort finishes the job, in about one
//!   comparison per event.  A strict-loop bucket holds tens to hundreds of
//!   events with one adjacent pair in three out of order, so a comparison
//!   sort's branches mispredict.
//!
//! Exactness never rests on the counting pass.  It only moves events closer
//! to their place; the insertion sort then orders any input by `T: Ord`.  A
//! sub-interval left holding more than 32 events (a burst of equal times) is
//! comparison-sorted first, so the insertion sort never turns quadratic.
//!
//! All chunks come from one pool with a LIFO free list: the chunks a drain just
//! read are the next ones pushes write, still in cache, and the pool holds about
//! as many events as are pending.  A `Vec` per bucket would keep the capacity of
//! its busiest visit, and each push would write a line untouched for a revolution.
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
const MASK: u64 = NUM_BUCKETS as u64 - 1;
/// Events per pool chunk.
const CHUNK: usize = 8;
/// End of a chunk chain or of the free list.
const NIL: usize = usize::MAX;
/// A bucket of at most this many events is comparison-sorted whole; so is a
/// sub-interval of a bigger one that holds more.
const SMALL: usize = 32;
/// Most sub-intervals a big bucket is counted into.
const MAX_SPLIT: usize = 4096;

#[cfg(test)]
thread_local! {
    /// Buckets this thread's queues ordered by the counting pass (tests
    /// reset and read it around a run).
    pub(crate) static COUNTED_BUCKETS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// A calendar queue (see the module docs).
#[derive(Debug, Clone)]
pub(crate) struct CalendarQueue<T> {
    /// Event storage: chunk `c` is `pool[c * CHUNK..(c + 1) * CHUNK]`.
    pool: Vec<T>,
    /// Per chunk: the next (older) chunk of its chain, or the next free one.
    next: Vec<usize>,
    /// Most recently freed chunk.
    free: usize,
    /// Per ring slot (`bucket & MASK`): one past the pool index of its newest
    /// event, 0 if empty.  That event's chunk heads the chain; older ones are full.
    ends: Vec<usize>,
    /// One bit per ring slot, set while its bucket holds events.
    occupied: [u64; NUM_BUCKETS / 64],
    /// Absolute index of the current bucket.
    cur: u64,
    /// The current bucket's events, sorted descending.
    current: Vec<T>,
    /// Per sub-interval of a big bucket being drained: its event count, then
    /// its next slot in `current`.
    counts: Vec<u32>,
    /// Events at least `NUM_BUCKETS` widths past the cursor.
    far: BinaryHeap<Reverse<T>>,
    /// Bucket width in seconds.
    width: f64,
    len: usize,
    /// Buckets drained and sorted ([`crate::EngineMetrics::calendar_bucket_sorts`]).
    sorts: u64,
}

impl<T: Timed + Ord + Copy> CalendarQueue<T> {
    /// Create an empty queue with the given bucket `width` (clamped to a sane
    /// positive value); the event pool grows with the first pushes.
    pub(crate) fn new(width: f64) -> Self {
        let width = if width.is_finite() && width > 0.0 { width } else { 1e-6 };
        Self {
            pool: Vec::new(),
            next: Vec::new(),
            free: NIL,
            ends: vec![0; NUM_BUCKETS],
            occupied: [0; NUM_BUCKETS / 64],
            cur: 0,
            current: Vec::new(),
            counts: Vec::new(),
            far: BinaryHeap::new(),
            width,
            len: 0,
            sorts: 0,
        }
    }

    /// Number of buckets drained and sorted so far.
    pub(crate) fn sorts(&self) -> u64 {
        self.sorts
    }

    /// Absolute bucket index of a timestamp.
    #[inline]
    fn bucket_of(&self, time: f64) -> u64 {
        debug_assert!(time >= 0.0 && time.is_finite(), "event times must be finite and nonnegative");
        (time / self.width) as u64
    }

    #[inline]
    pub(crate) fn push(&mut self, item: T) {
        self.len += 1;
        let b = self.bucket_of(item.time());
        if b <= self.cur {
            // The current bucket (or, tolerated, behind the cursor): in order.
            let at = self.current.partition_point(|x| *x > item);
            self.current.insert(at, item);
        } else if b - self.cur < NUM_BUCKETS as u64 {
            self.push_ring(b, item);
        } else {
            self.far.push(Reverse(item));
        }
    }

    /// Append `item` to ring bucket `b`'s chain, heading it with the most
    /// recently freed chunk (or a new one) when the head chunk is full.
    #[inline]
    fn push_ring(&mut self, b: u64, item: T) {
        let slot = (b & MASK) as usize;
        let mut end = self.ends[slot];
        if end.is_multiple_of(CHUNK) {
            let c = if self.free == NIL {
                self.pool.resize(self.pool.len() + CHUNK, item);
                self.next.push(NIL);
                self.next.len() - 1
            } else {
                let c = self.free;
                self.free = self.next[c];
                c
            };
            self.next[c] = if end == 0 { NIL } else { (end - 1) / CHUNK };
            self.occupied[slot / 64] |= 1 << (slot % 64);
            end = c * CHUNK;
        }
        self.pool[end] = item;
        self.ends[slot] = end + 1;
    }

    /// Absolute index of the first occupied ring bucket after the cursor: the
    /// scan rounds the ring back to the cursor's word, whose own bit is clear.
    fn next_occupied(&self) -> Option<u64> {
        let start = ((self.cur + 1) & MASK) as usize;
        (0..=NUM_BUCKETS / 64).find_map(|i| {
            let w = (start / 64 + i) % (NUM_BUCKETS / 64);
            let word = self.occupied[w] & if i == 0 { !0 << (start % 64) } else { !0 };
            let slot = (w * 64) as u64 + u64::from(word.trailing_zeros());
            (word != 0).then(|| self.cur + 1 + (slot.wrapping_sub(start as u64) & MASK))
        })
    }

    /// Move the current bucket's chain into the empty `current`, sorted
    /// descending (see the module docs), and hand its chunks to the free list.
    fn drain_cur(&mut self) {
        let slot = (self.cur & MASK) as usize;
        let end = std::mem::replace(&mut self.ends[slot], 0);
        if end == 0 {
            return;
        }
        self.occupied[slot / 64] &= !(1 << (slot % 64));
        // The head chunk holds `end - head * CHUNK` events, every older one is full.
        let head = (end - 1) / CHUNK;
        let (mut n, mut tail) = (end - head * CHUNK, head);
        while self.next[tail] != NIL {
            (n, tail) = (n + CHUNK, self.next[tail]);
        }
        let Self { pool, next, current, counts, .. } = self;
        if n <= SMALL {
            chain(pool, next, end).for_each(|c| current.extend_from_slice(c));
            current.sort_unstable_by(|a, b| b.cmp(a));
        } else {
            #[cfg(test)]
            COUNTED_BUCKETS.set(COUNTED_BUCKETS.get() + 1);
            // `sub` is monotone in time, and clamps the times rounding put
            // just outside the bucket.
            let s = n.next_power_of_two().min(MAX_SPLIT);
            let (base, scale) = (self.cur as f64 * self.width, s as f64 / self.width);
            let sub = |e: &T| (((e.time() - base) * scale) as usize).min(s - 1);
            counts.clear();
            counts.resize(s, 0);
            chain(pool, next, end).flatten().for_each(|e| counts[sub(e)] += 1);
            let mut at = 0;
            for c in counts.iter_mut().rev() {
                (*c, at) = (at, at + *c);
            }
            // Grow in powers of two, as copying chunk by chunk does: growing
            // to exact sizes fragmented the heap (+14 % peak RSS on fig17).
            current.reserve(n.next_power_of_two());
            current.resize(n, pool[end - 1]);
            for e in chain(pool, next, end).flat_map(|c| c.iter().rev()) {
                let k = sub(e);
                current[counts[k] as usize] = *e;
                counts[k] += 1;
            }
            // Now `counts[k]` ends sub-interval `k`'s run in `current`.
            let mut lo = 0;
            for &hi in counts.iter().rev() {
                if hi as usize - lo > SMALL {
                    current[lo..hi as usize].sort_unstable_by(|a, b| b.cmp(a));
                }
                lo = hi as usize;
            }
            insertion_sort_descending(current);
        }
        // The drained chain heads the free list, newest chunk first.
        self.next[tail] = self.free;
        self.free = head;
        self.sorts += 1;
    }

    /// Advance the cursor until the current bucket holds the minimum: to the
    /// next occupied ring bucket or, with the ring empty, to the first far
    /// event's (every far event lies past the ring); re-push far events the
    /// move brought within the horizon.
    fn settle(&mut self) {
        while self.current.is_empty() && self.len > 0 {
            self.cur = match self.next_occupied() {
                Some(b) => b,
                None => self.bucket_of(self.far.peek().expect("queued events off the ring are far").0.time()),
            };
            self.drain_cur();
            while let Some(&Reverse(item)) = self.far.peek() {
                if self.bucket_of(item.time()) - self.cur >= NUM_BUCKETS as u64 {
                    break;
                }
                self.far.pop();
                self.len -= 1;
                self.push(item);
            }
        }
    }

    /// The minimum element, without removing it.
    pub(crate) fn peek(&mut self) -> Option<&T> {
        self.settle();
        self.current.last()
    }

    /// Remove and return the minimum element.
    pub(crate) fn pop(&mut self) -> Option<T> {
        self.settle();
        self.current.pop().inspect(|_| self.len -= 1)
    }
}

/// The chunks of the chain whose newest event is `pool[end - 1]`, newest
/// first, each in push order.
fn chain<'a, T>(pool: &'a [T], next: &'a [usize], end: usize) -> impl Iterator<Item = &'a [T]> {
    let (mut c, mut hi) = ((end - 1) / CHUNK, end);
    std::iter::from_fn(move || {
        (c != NIL).then(|| {
            let chunk = &pool[c * CHUNK..hi];
            // `hi` wraps to 0 at NIL.
            c = next[c];
            hi = c.wrapping_add(1) * CHUNK;
            chunk
        })
    })
}

/// Sort `v` descending by insertion: exact for any input, one comparison per
/// element on input already in order.
fn insertion_sort_descending<T: Ord + Copy>(v: &mut [T]) {
    for i in 1..v.len() {
        let x = v[i];
        let mut j = i;
        while j > 0 && v[j - 1] < x {
            v[j] = v[j - 1];
            j -= 1;
        }
        v[j] = x;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl<T> CalendarQueue<T> {
        /// Number of queued events.
        fn len(&self) -> usize {
            self.len
        }

        fn is_empty(&self) -> bool {
            self.len == 0
        }
    }

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
        let mut q = CalendarQueue::new(1.0);
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
        let mut q = CalendarQueue::new(1.0);
        q.push(Ev { time: 1.0, seq: 2 });
        q.push(Ev { time: 1.0, seq: 0 });
        q.push(Ev { time: 1.0, seq: 1 });
        assert_eq!(q.pop().unwrap().seq, 0);
        assert_eq!(q.pop().unwrap().seq, 1);
        assert_eq!(q.pop().unwrap().seq, 2);
    }

    #[test]
    fn pushes_into_the_current_bucket_surface_immediately() {
        let mut q = CalendarQueue::new(1.0);
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
        let mut q = CalendarQueue::new(1e-6);
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
        let mut q = CalendarQueue::new(0.125);
        for i in 0..64u64 {
            q.push(Ev { time: ((i * 37) % 64) as f64 * 0.3, seq: i });
        }
        while !q.is_empty() {
            let p = *q.peek().unwrap();
            assert_eq!(q.pop(), Some(p));
        }
    }

    /// Chunks the pool has ever handed out.
    fn chunks(q: &CalendarQueue<Ev>) -> usize {
        q.pool.len() / CHUNK
    }

    #[test]
    fn a_fresh_queue_allocates_only_the_buckets_it_uses() {
        let mut q = CalendarQueue::new(1.0);
        let storage =
            |q: &CalendarQueue<Ev>| [q.pool.capacity(), q.next.capacity(), q.current.capacity(), q.far.capacity()];
        assert_eq!(storage(&q), [0; 4], "an empty queue allocates no event storage");
        // Seven events in three ring buckets (one chunk each), one in the
        // current bucket and one beyond the horizon (the far heap).
        for (seq, time) in [3.5, 3.25, 9.0, 3.75, 700.5, 9.5, 700.0, 0.5, 5000.0].into_iter().enumerate() {
            q.push(Ev { time, seq: seq as u64 });
        }
        assert_eq!(chunks(&q), 3);
        assert_eq!(q.next, [NIL; 3], "each bucket fits its head chunk");
        let drained: Vec<_> = std::iter::from_fn(|| q.pop()).map(|e| e.time).collect();
        assert_eq!(drained, [0.5, 3.25, 3.5, 3.75, 9.0, 9.5, 700.0, 700.5, 5000.0]);
        // The cursor jumped straight to the far event: no chunk for it.
        assert_eq!(chunks(&q), 3);
        assert_eq!(q.occupied, [0; NUM_BUCKETS / 64]);
    }

    #[test]
    fn a_queue_reused_past_its_first_wrap_does_not_reallocate() {
        // Three events in flight per bucket width, each pop schedules the
        // next one a third of the ring ahead: the steady state of a run.
        let mut q = CalendarQueue::new(1.0);
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
        let buffers = |q: &CalendarQueue<Ev>| (q.pool.as_ptr(), q.pool.len(), q.pool.capacity(), q.current.capacity());
        let after_first_wraps = buffers(&q);
        assert!(chunks(&q) <= 342, "one chunk per occupied bucket, saw {}", chunks(&q));
        while step(&mut q, seq) < 6.0 * NUM_BUCKETS as f64 {
            seq += 1;
        }
        assert_eq!(buffers(&q), after_first_wraps, "steady state must recycle the pool's chunks");
    }

    /// A deterministic xorshift word stream.
    fn xorshift() -> impl FnMut() -> u64 {
        let mut state = 0x9e3779b97f4a7c15u64;
        move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        }
    }

    /// Interleave 20 000 pushes and pops drawn from a deterministic xorshift
    /// stream and assert the calendar queue pops exactly what a binary heap
    /// pops.  `horizon` maps a random word to a new event's distance from
    /// the clock (the time of the latest pop).  Returns how many pops had
    /// the same timestamp as the pop before them.
    fn assert_agrees_with_heap(width: f64, horizon: impl Fn(u64) -> f64) -> usize {
        let mut q = CalendarQueue::new(width);
        let mut reference: BinaryHeap<Reverse<Ev>> = BinaryHeap::new();
        let mut next = xorshift();
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

    #[test]
    fn agrees_with_a_binary_heap_on_strict_loop_shaped_streams() {
        // The strict loop's shape under its own width (the smallest link
        // latency, 0.35 us, so the ring spans 358 us): 2000 ranks with one
        // pending event each, and every pop schedules that rank's next event
        // — a re-poke at `now` or a sub-latency step (the current bucket), a
        // wire delay of one to ten latencies (the near ring), a compute phase
        // anywhere in the ring, or a straggler up to 2 ms out (the far tier).
        // The clock makes dozens of revolutions, so every tier stays busy
        // throughout; times sit on a 50 ns grid, so many tie.
        let mut next = xorshift();
        let mut lookahead = || {
            let r = next();
            let k = r >> 8;
            let steps = match r % 8 {
                0 => k % 7,
                1..=3 => 7 + k % 63,
                4 | 5 => 7 + k % 7_160,
                _ => 7 + k % 39_993,
            };
            50e-9 * steps as f64
        };
        let mut q = CalendarQueue::new(0.35e-6);
        let mut reference: BinaryHeap<Reverse<Ev>> = BinaryHeap::new();
        for seq in 0..2000 {
            let ev = Ev { time: lookahead(), seq };
            q.push(ev);
            reference.push(Reverse(ev));
        }
        let (mut clock, mut ties) = (0.0, 0);
        for seq in 2000..200_000 {
            let expect = reference.pop().unwrap().0;
            assert_eq!(q.pop(), Some(expect), "divergence at step {seq}");
            ties += usize::from(expect.time == clock);
            clock = expect.time;
            let ev = Ev { time: clock + lookahead(), seq };
            q.push(ev);
            reference.push(Reverse(ev));
        }
        assert!(clock > 40.0 * NUM_BUCKETS as f64 * 0.35e-6, "only {clock:e} s simulated");
        assert!(ties > 2000, "the stream must tie, saw {ties} equal-time pops");
        while let Some(Reverse(expect)) = reference.pop() {
            assert_eq!(q.pop(), Some(expect));
        }
        assert!(q.pop().is_none());
    }

    #[test]
    fn agrees_with_a_binary_heap_on_dense_buckets() {
        // Bursts of 33 to 5000 events aimed at one bucket just ahead of the
        // cursor, each popped part-way against a binary heap, with late
        // entrants pushed between the pops.  A burst is one of: uniform over
        // its bucket; runs of 300 equal-time events pushed in ascending or
        // descending `seq`; times exactly on the edges of the bucket split
        // into 2^j equal parts (its own base and the next bucket's among
        // them); or, half of them, the float just below the base of a bucket
        // `k` whose `time / width` still rounds to `k`.
        let width = 0.1; // not a power of two, so `time / width` rounds
        let below_base = |k: u64| (k as f64 * width).next_down();
        let sizes: [u64; 9] = [33, 34, 63, 64, 65, 300, 1000, 4096, 5000];
        let mut q = CalendarQueue::new(width);
        let mut reference: BinaryHeap<Reverse<Ev>> = BinaryHeap::new();
        let mut next = xorshift();
        let (mut seq, mut clock, mut widest, mut under) = (0u64, 0.0f64, 0, 0);
        COUNTED_BUCKETS.set(0);
        for burst in 0..144 {
            let mut k = (clock / width) as u64 + 1 + next() % 3;
            let n = sizes[burst % sizes.len()];
            let split = n.next_power_of_two().min(4096);
            if burst % 4 == 3 {
                while (below_base(k) / width) as u64 != k {
                    k += 1;
                }
            }
            let base = k as f64 * width;
            for i in 0..n {
                let r = next();
                let (time, s) = match burst % 4 {
                    0 => (base + width * (r >> 11) as f64 / (1u64 << 53) as f64, seq + i),
                    1 => {
                        let run = (i / 300) as f64 / 17.0;
                        (base + width * run, if burst % 8 == 1 { seq + i } else { seq + n - 1 - i })
                    }
                    2 => (base + width * (r % (split + 1)) as f64 / split as f64, seq + i),
                    _ if i % 2 == 0 => (below_base(k), seq + i),
                    _ => (base + width * (r % 1000) as f64 / 1000.0, seq + i),
                };
                under += usize::from(time < base && (time / width) as u64 == k);
                let ev = Ev { time, seq: s };
                q.push(ev);
                reference.push(Reverse(ev));
            }
            seq += n;
            let keep = (next() % 2000) as usize;
            while reference.len() > keep {
                let expect = reference.pop().unwrap().0;
                assert_eq!(q.pop(), Some(expect), "divergence in burst {burst}");
                widest = widest.max(q.current.len() + 1);
                clock = expect.time;
                if seq.is_multiple_of(7) {
                    let ev = Ev { time: clock + width * (next() % 50) as f64 / 100.0, seq };
                    q.push(ev);
                    reference.push(Reverse(ev));
                }
                seq += 1;
            }
        }
        while let Some(Reverse(expect)) = reference.pop() {
            assert_eq!(q.pop(), Some(expect));
        }
        assert!(q.pop().is_none());
        assert!(widest >= 5000, "a drained bucket must hold a whole burst, widest {widest}");
        // Bursts that meet in one bucket are counted together.
        assert!(COUNTED_BUCKETS.get() > 64, "the counting pass must order most bursts' buckets");
        assert!(under > 1000, "times below their bucket's base: {under}");
    }
}

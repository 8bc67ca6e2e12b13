//! GASPI-style notifications: small flag values attached to a segment.
//!
//! A notification slot holds a `u32` value; zero means "not set".  Remote
//! writes set a slot (overwriting any previous value, as in GPI-2), waiters
//! block until some slot in a range becomes non-zero, and
//! [`NotificationBoard::reset`] atomically reads and clears a slot.
//!
//! # Memory-ordering contract
//!
//! Slots and the waiter count are atomics, every access `SeqCst`.  A put
//! writes its payload (under the segment's data lock) and only then stores
//! the slot, so the payload write *happens-before* the slot store: a thread
//! that reads the slot non-zero — through [`NotificationBoard::waitsome`],
//! `test_some`, `peek` or `reset` — may assume that put's whole payload is in
//! the segment.
//!
//! A waiter polls for `SPIN_ITERS` rounds, so a hand-off between two running
//! threads costs no system call, then parks: holding the `park` lock it
//! increments `waiters`, scans once more and only then waits.  A setter stores
//! the slot, loads `waiters` and, if non-zero, passes through `park` before
//! notifying.  In the one `SeqCst` order either the increment precedes the
//! setter's load — the setter notifies, and gets the lock only once the waiter
//! released it by waiting — or the store precedes the waiter's last scan,
//! which sees the value.  No wake-up is lost.

use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering::SeqCst};
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

/// Identifier of a notification slot within a segment.
pub type NotificationId = u32;

/// Value carried by a notification; zero encodes "not set".
pub type NotificationValue = u32;

/// Polling rounds of [`NotificationBoard::waitsome`] before it parks: ~10 µs at
/// the 19 ns per round measured on a one-slot range — several cross-core
/// hand-offs, a fraction of the futex sleep and wake a hit saves.
const SPIN_ITERS: u32 = 512;

/// Per-segment notification slots plus the parking lot for blocked
/// `notify_waitsome` callers.
#[derive(Debug)]
pub struct NotificationBoard {
    slots: Vec<AtomicU32>,
    /// `waitsome` callers that stopped polling; setters notify only if non-zero.
    waiters: AtomicUsize,
    park: Mutex<()>,
    cv: Condvar,
}

impl NotificationBoard {
    /// Create a board with `slots` notification slots, all reset.
    pub fn new(slots: u32) -> Self {
        let slots = (0..slots).map(|_| AtomicU32::new(0)).collect();
        Self { slots, waiters: AtomicUsize::new(0), park: Mutex::new(()), cv: Condvar::new() }
    }

    /// Number of slots on this board.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the board has zero slots (never true in practice).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Set slot `id` to `value` (non-zero) and wake parked waiters, if any.
    ///
    /// Returns `false` if `id` is out of range.
    pub fn set(&self, id: NotificationId, value: NotificationValue) -> bool {
        let Some(slot) = self.slots.get(id as usize) else { return false };
        slot.store(value, SeqCst);
        if self.waiters.load(SeqCst) != 0 {
            // A registered waiter holds `park` from its last scan until it
            // waits; passing through the lock puts this wake-up after that.
            drop(self.park.lock());
            self.cv.notify_all();
        }
        true
    }

    /// Read slot `id` without clearing it. `None` if out of range.
    pub fn peek(&self, id: NotificationId) -> Option<NotificationValue> {
        self.slots.get(id as usize).map(|slot| slot.load(SeqCst))
    }

    /// Atomically read and clear slot `id`.  Returns the previous value
    /// (which is zero if the notification had not been set).
    pub fn reset(&self, id: NotificationId) -> Option<NotificationValue> {
        self.slots.get(id as usize).map(|slot| slot.swap(0, SeqCst))
    }

    /// Wait until any slot in `[first, first + num)` is non-zero and return
    /// its id (the lowest one).  Returns `None` on timeout.
    ///
    /// This mirrors `gaspi_notify_waitsome`: it does **not** clear the slot;
    /// callers follow up with [`NotificationBoard::reset`].
    pub fn waitsome(&self, first: NotificationId, num: u32, timeout: Option<Duration>) -> Option<NotificationId> {
        let deadline = timeout.map(|t| Instant::now() + t);
        for _ in 0..SPIN_ITERS {
            if let Some(id) = self.test_some(first, num) {
                return Some(id);
            }
            std::hint::spin_loop();
        }
        let mut parked = self.park.lock();
        self.waiters.fetch_add(1, SeqCst);
        let found = loop {
            if let Some(id) = self.test_some(first, num) {
                break Some(id);
            }
            match deadline {
                Some(d) => {
                    if Instant::now() >= d {
                        break None;
                    }
                    if self.cv.wait_until(&mut parked, d).timed_out() {
                        // Re-check once after the timeout fired.
                        break self.test_some(first, num);
                    }
                }
                None => self.cv.wait(&mut parked),
            }
        };
        self.waiters.fetch_sub(1, SeqCst);
        found
    }

    /// Non-blocking variant of [`NotificationBoard::waitsome`].
    pub fn test_some(&self, first: NotificationId, num: u32) -> Option<NotificationId> {
        let end = (first as usize).saturating_add(num as usize).min(self.slots.len());
        let range = (first as usize).min(end)..end;
        self.slots[range].iter().position(|slot| slot.load(SeqCst) != 0).map(|i| first + i as u32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn set_peek_reset_round_trip() {
        let b = NotificationBoard::new(8);
        assert_eq!(b.peek(3), Some(0));
        assert!(b.set(3, 42));
        assert_eq!(b.peek(3), Some(42));
        assert_eq!(b.reset(3), Some(42));
        assert_eq!(b.peek(3), Some(0));
        assert_eq!(b.reset(3), Some(0));
    }

    #[test]
    fn out_of_range_slot_is_rejected() {
        let b = NotificationBoard::new(2);
        assert!(!b.set(2, 1));
        assert_eq!(b.peek(5), None);
        assert_eq!(b.reset(9), None);
    }

    #[test]
    fn waitsome_returns_lowest_set_slot() {
        let b = NotificationBoard::new(8);
        b.set(5, 1);
        b.set(2, 9);
        assert_eq!(b.waitsome(0, 8, Some(Duration::from_millis(10))), Some(2));
        assert_eq!(b.test_some(3, 5), Some(5));
        assert_eq!(b.test_some(0, 2), None);
    }

    #[test]
    fn waitsome_times_out_when_nothing_arrives() {
        let b = NotificationBoard::new(4);
        let start = Instant::now();
        assert_eq!(b.waitsome(0, 4, Some(Duration::from_millis(20))), None);
        assert!(start.elapsed() >= Duration::from_millis(15));
    }

    #[test]
    fn waitsome_wakes_up_on_concurrent_set() {
        let b = Arc::new(NotificationBoard::new(4));
        let b2 = Arc::clone(&b);
        let waiter = thread::spawn(move || b2.waitsome(0, 4, Some(Duration::from_secs(5))));
        thread::sleep(Duration::from_millis(20));
        b.set(1, 7);
        assert_eq!(waiter.join().unwrap(), Some(1));
    }

    #[test]
    fn second_set_overwrites_value() {
        let b = NotificationBoard::new(2);
        b.set(0, 1);
        b.set(0, 5);
        assert_eq!(b.reset(0), Some(5));
    }

    /// Guard for every blocking call below: a lost wake-up shows as a failed
    /// assertion, not as a hung test.
    const GUARD: Duration = Duration::from_secs(20);

    /// Poll `done` until it holds, yielding the core in between.
    fn yield_until(done: impl Fn() -> bool) {
        let deadline = Instant::now() + GUARD;
        while !done() {
            assert!(Instant::now() < deadline, "condition not reached within the guard timeout");
            thread::yield_now();
        }
    }

    #[test]
    fn ping_pong_loses_no_wakeup() {
        const ROUND_TRIPS: u32 = 100_000;
        // One slot per direction, as between two ranks' segments.
        let boards = Arc::new([NotificationBoard::new(1), NotificationBoard::new(1)]);
        let echo = {
            let boards = Arc::clone(&boards);
            thread::spawn(move || {
                for i in 1..=ROUND_TRIPS {
                    assert_eq!(boards[1].waitsome(0, 1, Some(GUARD)), Some(0), "ping {i} lost");
                    assert_eq!(boards[1].reset(0), Some(i));
                    boards[0].set(0, i);
                }
            })
        };
        for i in 1..=ROUND_TRIPS {
            boards[1].set(0, i);
            assert_eq!(boards[0].waitsome(0, 1, Some(GUARD)), Some(0), "pong {i} lost");
            assert_eq!(boards[0].reset(0), Some(i));
        }
        echo.join().unwrap();
    }

    #[test]
    fn oversubscribed_waiters_on_slot_ranges_all_wake() {
        // More waiters than cores, so most of them exhaust the spin and park.
        const WAITERS: u32 = 8;
        const RANGE: u32 = 4;
        const PER_WAITER: u32 = 2_000;
        let board = Arc::new(NotificationBoard::new(WAITERS * RANGE));
        let waiters: Vec<_> = (0..WAITERS)
            .map(|w| {
                let board = Arc::clone(&board);
                thread::spawn(move || {
                    for n in 0..PER_WAITER {
                        let id = board.waitsome(w * RANGE, RANGE, Some(GUARD));
                        let id = id.unwrap_or_else(|| panic!("waiter {w} lost wake-up {n}"));
                        assert!((w * RANGE..(w + 1) * RANGE).contains(&id));
                        assert_ne!(board.reset(id), Some(0), "waitsome returned an unset slot");
                    }
                })
            })
            .collect();
        // Two setters, each the only writer of its waiters' slots, so no value
        // is overwritten before it is consumed and the counts are exact.
        let setters: Vec<_> = (0..2u32)
            .map(|s| {
                let board = Arc::clone(&board);
                thread::spawn(move || {
                    let mut state = 0x9E37_79B9_7F4A_7C15_u64 ^ u64::from(s);
                    for _ in 0..PER_WAITER {
                        for w in (s..WAITERS).step_by(2) {
                            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                            let id = w * RANGE + (state >> 33) as u32 % RANGE;
                            yield_until(|| board.peek(id) == Some(0));
                            board.set(id, 1 + (state >> 40) as u32);
                        }
                    }
                })
            })
            .collect();
        for t in setters.into_iter().chain(waiters) {
            t.join().unwrap();
        }
        assert_eq!(board.test_some(0, WAITERS * RANGE), None, "every value was consumed exactly once");
    }

    #[test]
    fn set_racing_reset_neither_loses_nor_duplicates() {
        const VALUES: u32 = 50_000;
        let board = Arc::new(NotificationBoard::new(1));
        let resetters: Vec<_> = (0..2)
            .map(|_| {
                let board = Arc::clone(&board);
                thread::spawn(move || {
                    let deadline = Instant::now() + GUARD;
                    let mut taken = Vec::new();
                    loop {
                        match board.reset(0) {
                            Some(u32::MAX) => {
                                // Hand the end marker on to the other resetter.
                                board.set(0, u32::MAX);
                                return taken;
                            }
                            Some(0) => assert!(Instant::now() < deadline, "end marker never arrived"),
                            Some(v) => taken.push(v),
                            None => unreachable!("slot 0 exists"),
                        }
                    }
                })
            })
            .collect();
        for v in 1..=VALUES {
            board.set(0, v);
            yield_until(|| board.peek(0) == Some(0));
        }
        board.set(0, u32::MAX);
        let mut taken: Vec<u32> = resetters.into_iter().flat_map(|t| t.join().unwrap()).collect();
        taken.sort_unstable();
        assert_eq!(taken, (1..=VALUES).collect::<Vec<_>>());
    }

    #[test]
    fn payload_is_complete_when_the_slot_reads_set() {
        use crate::{GaspiConfig, Job};
        const SEG: u32 = 0;
        const LEN: usize = 1 << 20;
        const ROUNDS: u32 = 50;
        Job::new(GaspiConfig::new(2))
            .run(|ctx| {
                ctx.segment_create(SEG, LEN).unwrap();
                ctx.barrier();
                for round in 1..=ROUNDS {
                    if ctx.rank() == 0 {
                        ctx.write_notify(1, SEG, 0, &vec![round as u8; LEN], 0, round, 0).unwrap();
                        // The reader's acknowledgement keeps rounds apart.
                        ctx.notify_waitsome(SEG, 1, 1, Some(GUARD)).unwrap();
                        ctx.notify_reset(SEG, 1).unwrap();
                    } else {
                        // Poll, not wait: read the payload the moment the slot is set.
                        yield_until(|| ctx.notify_peek(SEG, 0).unwrap() != 0);
                        let mut landed = vec![0u8; LEN];
                        ctx.segment_read(SEG, 0, &mut landed).unwrap();
                        assert!(landed.iter().all(|&b| b == round as u8), "round {round}: torn payload");
                        assert_eq!(ctx.notify_reset(SEG, 0).unwrap(), round);
                        ctx.notify(0, SEG, 1, 1, 0).unwrap();
                    }
                }
            })
            .unwrap();
    }
}

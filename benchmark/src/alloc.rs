//! A counting `#[global_allocator]`, switched on only for the traced run:
//! allocation counts are the one per-layer number the repository's public
//! counters do not give.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

static ENABLED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

/// The system allocator plus two statistics counters.
pub struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters are plain statistics that
// publish no other data, so `Relaxed` is enough and nothing here can unwind.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

fn note(bytes: usize) {
    if ENABLED.load(Ordering::Relaxed) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    }
}

/// Switch counting on or off (off at start-up: the untraced run pays one
/// relaxed load per allocation and nothing else).
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// `(allocation calls, bytes requested)` counted so far, all threads.
pub fn counts() -> (u64, u64) {
    (ALLOCS.load(Ordering::Relaxed), BYTES.load(Ordering::Relaxed))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Counts move only while counting is on.  Other tests allocate on their
    /// own threads while counting is on here, so the "on" half asserts a
    /// lower bound; the "off" half runs after counting is switched off for
    /// the whole process and can be exact.
    #[test]
    fn counting_allocator_on_and_off() {
        set_enabled(true);
        let before = counts();
        let v: Vec<u64> = std::hint::black_box(Vec::with_capacity(1000));
        let after = counts();
        set_enabled(false);
        drop(v);
        assert!(after.0 > before.0, "an allocation made while counting is on must be counted");
        assert!(after.1 - before.1 >= 8000);
        let off = counts();
        let w: Vec<u64> = std::hint::black_box(Vec::with_capacity(1000));
        drop(w);
        assert_eq!(counts(), off, "nothing is counted while counting is off");
    }
}

//! Memory segments: byte buffers owned by a rank and remotely writable.
//!
//! # Copies
//!
//! A segment's bytes sit behind one lock.  An instant put (and every self-put)
//! encodes the initiator's borrowed payload straight into the target under
//! that lock: **one** pass over the data.  Only a delayed delivery, which
//! outlives the call, first takes an owned copy (**two**).  Readers decode in
//! place through [`SegmentStorage::with_range`].  For what a notification
//! promises about the payload see [`crate::notification`].

use parking_lot::Mutex;

use crate::notification::NotificationBoard;

/// Identifier of a segment within a rank.
pub type SegmentId = u32;

/// A registered memory segment: data plus its notification board.
///
/// Segments are owned by the rank that created them but can be written by
/// every rank in the job (that is the point of one-sided communication).
#[derive(Debug)]
pub struct SegmentStorage {
    size: usize,
    data: Mutex<Vec<u8>>,
    notifications: NotificationBoard,
}

impl SegmentStorage {
    /// Allocate a zero-initialized segment of `size` bytes with
    /// `notification_slots` notification slots.
    pub fn new(size: usize, notification_slots: u32) -> Self {
        Self { size, data: Mutex::new(vec![0; size]), notifications: NotificationBoard::new(notification_slots) }
    }

    /// Size of the segment in bytes (fixed at creation).
    pub fn size(&self) -> usize {
        self.size
    }

    /// The segment's notification board.
    pub fn notifications(&self) -> &NotificationBoard {
        &self.notifications
    }

    /// Copy `src` into the segment at `offset`.  Returns `false` if the write
    /// would go out of bounds (nothing is written in that case).
    pub fn write(&self, offset: usize, src: &[u8]) -> bool {
        self.with_range_mut(offset, src.len(), |dst| dst.copy_from_slice(src)).is_some()
    }

    /// Copy from the segment at `offset` into `dst`.  Returns `false` if the
    /// read would go out of bounds.
    pub fn read(&self, offset: usize, dst: &mut [u8]) -> bool {
        self.with_range(offset, dst.len(), |src| dst.copy_from_slice(src)).is_some()
    }

    /// Apply a closure to the bytes at `[offset, offset + len)` while holding
    /// the segment lock (puts encode through this).  Returns `None` without
    /// invoking the closure if the range is out of bounds.
    pub fn with_range_mut<R>(&self, offset: usize, len: usize, f: impl FnOnce(&mut [u8]) -> R) -> Option<R> {
        let end = offset.checked_add(len)?;
        self.data.lock().get_mut(offset..end).map(f)
    }

    /// Read-only [`SegmentStorage::with_range_mut`]: a reader decodes the
    /// landed bytes where they are instead of copying them out first.
    pub fn with_range<R>(&self, offset: usize, len: usize, f: impl FnOnce(&[u8]) -> R) -> Option<R> {
        let end = offset.checked_add(len)?;
        self.data.lock().get(offset..end).map(f)
    }

    /// Fill the whole segment with zeroes.
    pub fn clear(&self) {
        self.data.lock().fill(0);
    }
}

/// Encode `values` little-endian into `dst`, which must hold exactly
/// `8 * values.len()` bytes (at any alignment).
pub fn encode_f64s(values: &[f64], dst: &mut [u8]) {
    assert_eq!(dst.len(), values.len() * 8, "destination must hold exactly the encoded values");
    for (chunk, v) in dst.chunks_exact_mut(8).zip(values) {
        chunk.copy_from_slice(&v.to_le_bytes());
    }
}

/// Decode little-endian bytes into `f64` values, lazily and in place.
///
/// # Panics
/// Panics if `bytes.len()` is not a multiple of 8.
pub fn decode_f64s(bytes: &[u8]) -> impl ExactSizeIterator<Item = f64> + '_ {
    assert!(bytes.len().is_multiple_of(8), "byte length must be a multiple of 8");
    bytes.chunks_exact(8).map(|c| f64::from_le_bytes(c.try_into().expect("chunk of 8 bytes")))
}

/// Encode a slice of `f64` into little-endian bytes.
pub fn f64s_to_bytes(values: &[f64]) -> Vec<u8> {
    let mut out = vec![0; values.len() * 8];
    encode_f64s(values, &mut out);
    out
}

/// Decode little-endian bytes into `f64` values.
///
/// # Panics
/// Panics if `bytes.len()` is not a multiple of 8.
pub fn bytes_to_f64s(bytes: &[u8]) -> Vec<f64> {
    decode_f64s(bytes).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_then_read_round_trips() {
        let s = SegmentStorage::new(32, 4);
        assert!(s.write(4, &[1, 2, 3, 4]));
        let mut out = [0u8; 4];
        assert!(s.read(4, &mut out));
        assert_eq!(out, [1, 2, 3, 4]);
    }

    #[test]
    fn out_of_bounds_access_is_rejected() {
        let s = SegmentStorage::new(8, 4);
        assert!(!s.write(5, &[0; 4]));
        let mut buf = [0u8; 16];
        assert!(!s.read(0, &mut buf));
        assert!(s.with_range_mut(6, 4, |_| panic!("must not be called")).is_none());
        assert!(s.with_range(usize::MAX, 2, |_| panic!("must not be called")).is_none());
    }

    #[test]
    fn with_range_mut_mutates_in_place() {
        let s = SegmentStorage::new(8, 4);
        s.write(0, &[1; 8]);
        assert!(s.with_range_mut(2, 4, |r| r.iter_mut().for_each(|b| *b += 1)).is_some());
        let mut out = [0u8; 8];
        s.read(0, &mut out);
        assert_eq!(out, [1, 1, 2, 2, 2, 2, 1, 1]);
    }

    #[test]
    fn clear_zeroes_everything() {
        let s = SegmentStorage::new(4, 1);
        s.write(0, &[9; 4]);
        s.clear();
        let mut out = [1u8; 4];
        s.read(0, &mut out);
        assert_eq!(out, [0; 4]);
    }

    #[test]
    fn f64_byte_conversion_round_trips() {
        let values = vec![0.0, 1.5, -2.25, f64::MAX, f64::MIN_POSITIVE];
        let bytes = f64s_to_bytes(&values);
        assert_eq!(bytes.len(), values.len() * 8);
        assert_eq!(bytes_to_f64s(&bytes), values);
    }

    #[test]
    #[should_panic]
    fn misaligned_f64_decode_panics() {
        let _ = bytes_to_f64s(&[0u8; 7]);
    }
}

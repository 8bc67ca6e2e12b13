//! # ec-gaspi — a threaded GASPI-like one-sided communication runtime
//!
//! The paper builds its collectives on the GASPI programming model (GPI-2):
//! one-sided writes into remote memory *segments*, completed by lightweight
//! *notifications* that the target waits on (`gaspi_write_notify`,
//! `gaspi_notify_waitsome`, `gaspi_notify_reset`).
//!
//! This crate reproduces that model inside a single OS process: every rank is
//! a thread, segments are shared byte buffers owned by their rank, and writes
//! from any rank land directly in the target's segment followed by a
//! notification — the same "write as early as possible, check for arrival as
//! late as possible" dataflow the paper describes (Figure 1 / Table I).
//!
//! An optional [`NetworkProfile`] injects per-message latency, per-byte
//! serialization delay and jitter so that staleness, stragglers and
//! communication/computation overlap behave like they do on a cluster — this
//! is what makes the Stale Synchronous Parallel experiments (Figures 6–7)
//! meaningful on a single machine.
//!
//! ## Quick example
//!
//! ```
//! use ec_gaspi::{GaspiConfig, Job};
//!
//! // Two ranks; rank 0 writes 8 bytes into rank 1's segment and notifies it.
//! let results = Job::new(GaspiConfig::new(2)).run(|ctx| {
//!     const SEG: u32 = 0;
//!     ctx.segment_create(SEG, 64).unwrap();
//!     ctx.barrier();
//!     if ctx.rank() == 0 {
//!         ctx.write_notify(1, SEG, 0, &7u64.to_le_bytes(), 0, 1, 0).unwrap();
//!     } else {
//!         ctx.notify_waitsome(SEG, 0, 1, None).unwrap();
//!         ctx.notify_reset(SEG, 0).unwrap();
//!         let mut buf = [0u8; 8];
//!         ctx.segment_read(SEG, 0, &mut buf).unwrap();
//!         assert_eq!(u64::from_le_bytes(buf), 7);
//!     }
//!     ctx.rank()
//! }).unwrap();
//! assert_eq!(results, vec![0, 1]);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod config;
pub mod context;
pub mod delivery;
pub mod error;
pub mod job;
pub mod notification;
pub mod segment;
pub mod state;

pub use config::{GaspiConfig, NetworkProfile};
pub use context::Context;
pub use error::GaspiError;
pub use job::Job;
pub use notification::{NotificationId, NotificationValue};
pub use segment::SegmentId;

/// Rank identifier (0-based, dense).
pub type Rank = usize;

/// Communication queue identifier.
pub type QueueId = u32;

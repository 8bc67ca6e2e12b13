//! # ec-comm — the `Transport` layer shared by execution and simulation
//!
//! The paper's central observation is that every collective is nothing but a
//! pattern of one-sided `gaspi_write_notify` / `gaspi_notify_waitsome` /
//! `gaspi_notify_reset` calls plus local reductions.  This crate captures that
//! vocabulary as the [`Transport`] trait so each collective algorithm can be
//! written **once** and executed against two very different substrates:
//!
//! * [`ThreadedTransport`] wraps an `ec_gaspi::Context` and moves real bytes
//!   between rank threads — this is what the in-process collectives in
//!   `ec_collectives` run on;
//! * [`RankRecorder`] executes the *same algorithm code* for one rank with
//!   payloads abstracted to byte counts and records every operation into
//!   that rank's `ec_netsim` op stream; [`record`] replays a body once per
//!   rank into a whole `ec_netsim::Program`, which is how the paper's
//!   cluster-scale figures are regenerated without a cluster.
//!
//! Because the two backends share one algorithm body, the threaded collectives
//! and the simulated schedules can no longer drift apart: a new collective,
//! notification layout or overlap trick is implemented in one place and both
//! worlds pick it up.
//!
//! ## Addressing model
//!
//! All offsets and ranges are expressed in *elements* of the payload — the
//! transport decides what an element is.  The threaded backend interprets
//! elements as `f64`s (or raw bytes for byte-granular collectives such as
//! AlltoAll); the recorder only multiplies lengths by its configured element
//! width to obtain wire bytes.  `wait_notify` subsumes the GASPI pair
//! `gaspi_notify_waitsome` + `gaspi_notify_reset`: a consumed notification is
//! always reset.
//!
//! ## Example: one algorithm, two backends
//!
//! A toy "shift right" collective written once against [`Transport`] and then
//! recorded into a simulator program:
//!
//! ```
//! use ec_comm::Transport;
//!
//! /// Every rank sends its first `n` elements to the next rank and waits for
//! /// the elements arriving from the previous one.
//! fn shift_right<T: Transport>(t: &mut T, n: usize) -> ec_comm::Result<()> {
//!     let (rank, p) = (t.rank(), t.num_ranks());
//!     t.put_notify((rank + 1) % p, 0, 0..n, 0)?;
//!     t.wait_notify(0)?;
//!     t.local_copy(0, 0..n)
//! }
//!
//! // Record the schedule for 4 ranks moving 1024 doubles each.
//! let program = ec_comm::record(4, 8, |rec| shift_right(rec, 1024));
//! assert_eq!(program.total_wire_bytes(), 4 * 1024 * 8);
//! ec_netsim::validate(&program, 4).unwrap();
//! ```
//!
//! The exact same `shift_right` body runs unmodified on a
//! [`ThreadedTransport`] inside an `ec_gaspi::Job`, where `put_notify`
//! becomes a real one-sided write.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod error;
pub mod op;
pub mod recording;
pub mod threaded;
pub mod transport;

pub use error::{CommError, Result};
pub use op::ReduceOp;
pub use recording::{record, RankRecorder};
pub use threaded::ThreadedTransport;
pub use transport::{NotifyId, Rank, SlotUse, Transport};

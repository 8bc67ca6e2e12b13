//! Single-source algorithm bodies of the GASPI collectives, generic over
//! [`ec_comm::Transport`].
//!
//! Each function in this module is **the** definition of one collective's
//! communication pattern: the sequence of one-sided puts, notifications,
//! waits and local reductions one rank performs.  The threaded handles in
//! this crate (`RingAllreduce`, `BroadcastBst`, `ReduceBst`, `AllToAll`,
//! `SspAllreduce`) run these bodies on an [`ec_comm::ThreadedTransport`]
//! with real data; the schedule generators in [`crate::schedule`] run the
//! *same bodies* on an [`ec_comm::RankRecorder`], one rank at a time, to
//! emit `ec_netsim::Program`s.  There is no second copy of any algorithm to keep
//! in sync.

pub mod alltoall;
pub mod bcast;
pub mod reduce;
pub mod ring;
pub mod ssp;

pub use alltoall::alltoall_direct;
pub use bcast::{bcast_bst, AckMode};
pub use reduce::reduce_bst;
pub use ring::ring_allreduce;
pub use ssp::ssp_hypercube_allreduce;

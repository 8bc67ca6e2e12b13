//! # ec-baseline — MPI-like baseline collectives
//!
//! The paper evaluates its GASPI collectives against the collectives of a
//! vendor MPI library (Intel MPI): the default and binomial variants of
//! `MPI_Bcast` and `MPI_Reduce`, twelve `MPI_Allreduce` algorithm variants
//! and the default `MPI_Alltoall`.  This crate implements those baselines
//! from scratch so the comparison can be reproduced:
//!
//! * a small **threaded two-sided runtime** ([`comm`]) with blocking
//!   send/receive and tag matching, on which reference implementations of the
//!   baseline collectives run ([`collectives`]) — used for correctness
//!   cross-checks against the GASPI collectives;
//! * **schedule generators** ([`schedule`]) that express every baseline
//!   algorithm as an `ec-netsim` program with two-sided semantics
//!   (eager/rendezvous protocol, progress-engine bandwidth penalty,
//!   per-message matching overhead), which is what the figure-regeneration
//!   benches simulate; the binomial `MPI_Bcast` and `MPI_Reduce` are the
//!   [`variants`] bodies recorded, the rest are built op by op;
//! * a **single-source variant library** ([`twosided`] + [`variants`]):
//!   the classic vendor algorithm variants (Rabenseifner allreduce, ring
//!   reduce-scatter+allgather, Bruck and pairwise AlltoAll, van de Geijn and
//!   pipelined-binomial Bcast, binomial and reduce-scatter+gather Reduce)
//!   written once against the [`twosided::TwoSided`] trait and executed both
//!   on the threaded runtime and, replayed one rank at a time by
//!   [`twosided::record`], as simulator schedules — the candidate pool the
//!   `ec_bench` tuner auto-selects from.
//!
//! Every schedule's op stream is produced by exactly one function.  The
//! hand-built pairwise `MPI_Alltoall` and the single-source
//! `variants::pairwise_alltoall` are two different schedules (the latter
//! also prices its self-copy), both kept as separate tuner candidates.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod collectives;
pub mod comm;
pub mod schedule;
pub mod twosided;
pub mod variants;

pub use collectives::{
    allreduce_recursive_doubling, allreduce_ring, alltoall_pairwise, bcast_binomial, reduce_binomial,
};
pub use comm::{MpiComm, MpiError, MpiWorld};
pub use schedule::allreduce::MpiAllreduceVariant;
pub use schedule::alltoall::mpi_alltoall_pairwise_schedule;
pub use schedule::bcast::{mpi_bcast_binomial_schedule, mpi_bcast_default_schedule};
pub use schedule::reduce::{mpi_reduce_binomial_schedule, mpi_reduce_default_schedule};
pub use twosided::{RecordingTwoSided, ThreadedTwoSided, TwoSided};
pub use variants::{
    allreduce_rabenseifner, allreduce_reduce_scatter_allgather, alltoall_bruck, bcast_pipelined_binomial,
    bcast_scatter_allgather, reduce_rsg,
};

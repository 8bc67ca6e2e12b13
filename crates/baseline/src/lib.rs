//! # ec-baseline — MPI-like baseline collectives
//!
//! The paper evaluates its GASPI collectives against the collectives of a
//! vendor MPI library (Intel MPI): the default and binomial variants of
//! `MPI_Bcast` and `MPI_Reduce`, twelve `MPI_Allreduce` algorithm variants
//! and the default `MPI_Alltoall`.  This crate implements those baselines
//! from scratch so the comparison can be reproduced:
//!
//! * a small **threaded two-sided runtime** ([`comm`]) with blocking
//!   send/receive and tag matching;
//! * a **single-source variant library** ([`twosided`] + [`variants`]):
//!   every baseline algorithm — the twelve `MPI_Allreduce` variants of
//!   Figures 11–12 ([`MpiAllreduceVariant`]), the binomial and default
//!   `MPI_Bcast` and `MPI_Reduce`, the pairwise `MPI_Alltoall`, and the
//!   other classic vendor variants the `ec_bench` tuner auto-selects from
//!   (Bruck AlltoAll, pipelined-binomial Bcast) — is written once against
//!   the [`twosided::TwoSided`] trait and executed both on the threaded
//!   runtime, where its values are checked against the GASPI collectives
//!   and serial references, and, replayed one rank at a time by
//!   [`twosided::record`], as a simulator schedule;
//! * **schedule generators** ([`schedule`]) that name the vendor baselines
//!   the figures plot, each a `record` of one of those bodies: `ec-netsim`
//!   programs with two-sided semantics (eager/rendezvous protocol,
//!   progress-engine bandwidth penalty, per-message matching overhead),
//!   which is what the figure-regeneration benches simulate.
//!
//! Every schedule's op stream is produced by exactly one function, and
//! every one of them records a body whose values are checked on threads;
//! no schedule is built op by op.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod comm;
pub mod schedule;
pub mod twosided;
pub mod variants;

pub use comm::{MpiComm, MpiError, MpiWorld};
pub use schedule::allreduce::MpiAllreduceVariant;
pub use schedule::alltoall::mpi_alltoall_pairwise_schedule;
pub use schedule::bcast::{mpi_bcast_binomial_schedule, mpi_bcast_default_schedule};
pub use schedule::reduce::{mpi_reduce_binomial_schedule, mpi_reduce_default_schedule};
pub use twosided::{RecordingTwoSided, ThreadedTwoSided, TwoSided};
pub use variants::{
    allreduce_rabenseifner, allreduce_recursive_doubling, allreduce_ring, alltoall_bruck, alltoall_pairwise,
    bcast_binomial, bcast_pipelined_binomial, bcast_scatter_allgather, reduce_binomial, reduce_rsg,
};

/// Value checks of the five threaded collectives exported above, through
/// the names callers use.  Every input is integer-valued, so any fold order
/// gives the serial result exactly.
#[cfg(test)]
mod collectives {
    mod tests {
        use crate::{
            allreduce_recursive_doubling, allreduce_ring, alltoall_pairwise, bcast_binomial, reduce_binomial, MpiWorld,
        };

        /// Rank `r`'s contribution: element `i` is `(r + 1)(i + 1)`.
        fn contribution(rank: usize, n: usize) -> Vec<f64> {
            (0..n).map(|i| ((rank + 1) * (i + 1)) as f64).collect()
        }

        fn serial_sum(p: usize, n: usize) -> Vec<f64> {
            (0..n).map(|i| (0..p).map(|r| ((r + 1) * (i + 1)) as f64).sum()).collect()
        }

        #[test]
        fn binomial_broadcast_replicates_root_data() {
            for p in [2usize, 3, 5, 8] {
                for root in [0, p - 1] {
                    let out = MpiWorld::new(p).run(|comm| {
                        let mut data = if comm.rank() == root { vec![7.0, 8.0, 9.0] } else { vec![0.0; 3] };
                        bcast_binomial(comm, &mut data, root).unwrap();
                        data
                    });
                    for data in &out {
                        assert_eq!(data, &vec![7.0, 8.0, 9.0], "p={p} root={root}");
                    }
                }
            }
        }

        #[test]
        fn binomial_reduce_sums_contributions() {
            for p in [2usize, 4, 6, 8] {
                let out = MpiWorld::new(p).run(|comm| {
                    let contribution = vec![comm.rank() as f64 + 1.0; 5];
                    reduce_binomial(comm, &contribution, 0).unwrap()
                });
                let total = (p * (p + 1) / 2) as f64;
                assert_eq!(out[0].as_ref(), Some(&vec![total; 5]), "p={p}");
                assert!(out[1..].iter().all(Option::is_none));
            }
        }

        #[test]
        fn recursive_doubling_allreduce_handles_non_power_of_two_worlds() {
            // p = 12 exercises fold-in/fold-out around the p2 = 8 core.
            for (p, n) in [(3usize, 5usize), (6, 9), (12, 17)] {
                let out = MpiWorld::new(p).run(move |comm| {
                    let mut data = contribution(comm.rank(), n);
                    allreduce_recursive_doubling(comm, &mut data).unwrap();
                    data
                });
                let want = serial_sum(p, n);
                assert!(out.iter().all(|data| data == &want), "p={p} n={n}");
            }
        }

        #[test]
        fn recursive_doubling_allreduce_matches_sum() {
            for p in [2usize, 4, 8] {
                let out = MpiWorld::new(p).run(|comm| {
                    let mut data = vec![(comm.rank() + 1) as f64; 6];
                    allreduce_recursive_doubling(comm, &mut data).unwrap();
                    data
                });
                let total = (p * (p + 1) / 2) as f64;
                assert!(out.iter().all(|data| data == &vec![total; 6]), "p={p}");
            }
        }

        #[test]
        fn ring_allreduce_matches_sum_for_awkward_sizes() {
            for (p, n) in [(4usize, 10usize), (3, 7), (8, 5), (5, 23)] {
                let out = MpiWorld::new(p).run(move |comm| {
                    let mut data = contribution(comm.rank(), n);
                    allreduce_ring(comm, &mut data).unwrap();
                    data
                });
                let want = serial_sum(p, n);
                assert!(out.iter().all(|data| data == &want), "p={p} n={n}");
            }
        }

        #[test]
        fn pairwise_alltoall_matches_reference() {
            let p = 5;
            let block = 3;
            let out = MpiWorld::new(p).run(move |comm| {
                let send: Vec<f64> = (0..p * block).map(|i| (comm.rank() * 100 + i) as f64).collect();
                alltoall_pairwise(comm, &send, block).unwrap()
            });
            for (j, recv) in out.iter().enumerate() {
                for i in 0..p {
                    for k in 0..block {
                        assert_eq!(recv[i * block + k], (i * 100 + j * block + k) as f64);
                    }
                }
            }
        }
    }
}

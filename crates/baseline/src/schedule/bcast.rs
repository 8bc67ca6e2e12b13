//! Schedules for `MPI_Bcast`: the binomial variant and the "default"
//! (size-adaptive) variant of a vendor library.

use ec_netsim::Program;

use crate::twosided::record;
use crate::variants::{binomial_bcast, scatter_allgather_bcast_schedule};

/// Message size (bytes) above which the default broadcast switches from the
/// binomial tree to the scatter + ring-allgather (van de Geijn) algorithm,
/// mirroring what vendor libraries do for large payloads.
const LARGE_BCAST_THRESHOLD: u64 = 64 * 1024;

/// Binomial-tree `MPI_Bcast` (the `mpi-bin` curve of Figure 8): the
/// single-source [`binomial_bcast`] body from rank 0, recorded over
/// byte-granular elements.  A zero-byte broadcast records an empty program
/// (empty ranges are skipped).
pub fn mpi_bcast_binomial_schedule(ranks: usize, total_bytes: u64) -> Program {
    record(ranks, 1, |t| binomial_bcast(t, total_bytes as usize, 0))
}

/// Size-adaptive "default" `MPI_Bcast` (the `mpi-def` curve of Figure 8):
/// binomial tree for small payloads, the single-source van de Geijn
/// scatter + ring allgather ([`scatter_allgather_bcast_schedule`]) for large
/// ones.
pub fn mpi_bcast_default_schedule(ranks: usize, total_bytes: u64) -> Program {
    if total_bytes <= LARGE_BCAST_THRESHOLD || ranks <= 2 {
        return mpi_bcast_binomial_schedule(ranks, total_bytes);
    }
    scatter_allgather_bcast_schedule(ranks, total_bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ec_netsim::{validate, ClusterSpec, CostModel, Engine};

    #[test]
    fn binomial_bcast_sends_p_minus_1_messages() {
        let p = 16;
        let prog = mpi_bcast_binomial_schedule(p, 1000);
        validate(&prog, p).unwrap();
        assert_eq!(prog.total_wire_bytes(), (p as u64 - 1) * 1000);
    }

    #[test]
    fn zero_byte_binomial_bcast_records_an_empty_program() {
        let prog = mpi_bcast_binomial_schedule(8, 0);
        assert_eq!(prog.num_ranks(), 8);
        assert_eq!(prog.total_ops(), 0, "empty ranges are skipped: no zero-byte Send/Recv pairs");
    }

    #[test]
    fn default_bcast_switches_algorithm_with_size() {
        let p = 8;
        let small = mpi_bcast_default_schedule(p, 1000);
        let large = mpi_bcast_default_schedule(p, 8_000_000);
        // Small payloads use the binomial tree (P-1 messages)...
        assert_eq!(small.total_wire_bytes(), 7 * 1000);
        assert_eq!(small.total_ops(), mpi_bcast_binomial_schedule(p, 1000).total_ops());
        // ...large payloads switch to scatter + ring allgather, which issues
        // many more (smaller) messages than the binomial tree.
        assert!(large.total_ops() > mpi_bcast_binomial_schedule(p, 8_000_000).total_ops());
    }

    #[test]
    fn default_bcast_is_faster_than_binomial_for_large_payloads() {
        let p = 32;
        let bytes = 8_000_000;
        let e = Engine::new(ClusterSpec::homogeneous(p, 1), CostModel::skylake_fdr());
        let t_bin = e.makespan(&mpi_bcast_binomial_schedule(p, bytes)).unwrap();
        let t_def = e.makespan(&mpi_bcast_default_schedule(p, bytes)).unwrap();
        assert!(t_def < t_bin, "scatter+allgather ({t_def}) must beat binomial ({t_bin}) for large payloads");
    }

    #[test]
    fn schedules_simulate_cleanly() {
        let p = 12;
        let e = Engine::new(ClusterSpec::homogeneous(p, 1), CostModel::test_model());
        for prog in [
            mpi_bcast_binomial_schedule(p, 500),
            mpi_bcast_default_schedule(p, 500),
            mpi_bcast_default_schedule(p, 1_000_000),
        ] {
            validate(&prog, p).unwrap();
            assert!(e.makespan(&prog).unwrap() > 0.0);
        }
    }
}

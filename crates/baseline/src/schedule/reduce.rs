//! Schedules for `MPI_Reduce`: binomial and size-adaptive default variants.

use ec_netsim::Program;

use crate::twosided::record;
use crate::variants::{binomial_reduce, rsg_reduce_schedule};

/// Message size (bytes) above which the default reduce switches from the
/// binomial tree to Rabenseifner's reduce-scatter + gather algorithm.
const LARGE_REDUCE_THRESHOLD: u64 = 64 * 1024;

/// Binomial-tree `MPI_Reduce` towards rank 0 (the `mpi-bin` curve of
/// Figure 9): the single-source [`binomial_reduce`] body, recorded over
/// byte-granular elements.  A zero-byte reduce records an empty program
/// (empty ranges are skipped).
pub fn mpi_reduce_binomial_schedule(ranks: usize, total_bytes: u64) -> Program {
    record(ranks, 1, |t| binomial_reduce(t, total_bytes as usize, 0))
}

/// Size-adaptive "default" `MPI_Reduce` (the `mpi-def` curve of Figure 9):
/// binomial for small payloads, the single-source reduce-scatter + binomial
/// gather (Rabenseifner, [`rsg_reduce_schedule`]) for large ones, at any
/// rank count.
pub fn mpi_reduce_default_schedule(ranks: usize, total_bytes: u64) -> Program {
    if total_bytes <= LARGE_REDUCE_THRESHOLD || ranks <= 2 {
        return mpi_reduce_binomial_schedule(ranks, total_bytes);
    }
    rsg_reduce_schedule(ranks, total_bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ec_netsim::{validate, ClusterSpec, CostModel, Engine};

    #[test]
    fn binomial_reduce_moves_p_minus_1_vectors() {
        let p = 8;
        let prog = mpi_reduce_binomial_schedule(p, 1000);
        validate(&prog, p).unwrap();
        assert_eq!(prog.total_wire_bytes(), 7 * 1000);
    }

    #[test]
    fn zero_byte_binomial_reduce_records_an_empty_program() {
        let prog = mpi_reduce_binomial_schedule(8, 0);
        assert_eq!(prog.num_ranks(), 8);
        assert_eq!(prog.total_ops(), 0, "empty ranges are skipped: no zero-byte Send/Recv pairs");
    }

    #[test]
    fn default_reduce_uses_less_bandwidth_at_the_root_for_large_payloads() {
        let p = 32;
        let bytes = 8_000_000;
        let e = Engine::new(ClusterSpec::homogeneous(p, 1), CostModel::skylake_fdr());
        let t_bin = e.makespan(&mpi_reduce_binomial_schedule(p, bytes)).unwrap();
        let t_def = e.makespan(&mpi_reduce_default_schedule(p, bytes)).unwrap();
        assert!(t_def < t_bin, "Rabenseifner ({t_def}) must beat binomial ({t_bin}) for large payloads");
    }

    #[test]
    fn default_reduce_falls_back_to_binomial_for_small_payloads_or_two_ranks() {
        assert_eq!(mpi_reduce_default_schedule(2, 1_000_000), mpi_reduce_binomial_schedule(2, 1_000_000));
        assert_eq!(mpi_reduce_default_schedule(8, 100), mpi_reduce_binomial_schedule(8, 100));
    }

    #[test]
    fn default_reduce_folds_odd_worlds_into_the_reduce_scatter() {
        // The body folds the surplus ranks in itself, so a non-power-of-two
        // world runs the large-payload algorithm too, and never slower than
        // the binomial tree.
        for p in [3usize, 5, 6, 12, 13, 24, 31] {
            let e = Engine::new(ClusterSpec::homogeneous(p, 1), CostModel::skylake_fdr());
            for bytes in [80_000u64, 800_000, 8_000_000] {
                let default = mpi_reduce_default_schedule(p, bytes);
                assert_eq!(default, rsg_reduce_schedule(p, bytes), "p={p} bytes={bytes}");
                let t_def = e.makespan(&default).unwrap();
                let t_bin = e.makespan(&mpi_reduce_binomial_schedule(p, bytes)).unwrap();
                assert!(t_def <= t_bin, "p={p} bytes={bytes}: default {t_def} slower than binomial {t_bin}");
            }
        }
    }

    #[test]
    fn schedules_simulate_cleanly() {
        let e = Engine::new(ClusterSpec::homogeneous(16, 1), CostModel::test_model());
        for prog in [mpi_reduce_binomial_schedule(16, 10_000), mpi_reduce_default_schedule(16, 1_000_000)] {
            validate(&prog, 16).unwrap();
            assert!(e.makespan(&prog).unwrap() > 0.0);
        }
    }
}

//! Schedules for `MPI_Reduce`: binomial and size-adaptive default variants.

use ec_netsim::{Program, ProgramBuilder};

use super::trees::binomial;
use crate::twosided::record;
use crate::variants::binomial_reduce;

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
/// binomial for small payloads, reduce-scatter + binomial gather
/// (Rabenseifner) for large ones.
pub fn mpi_reduce_default_schedule(ranks: usize, total_bytes: u64) -> Program {
    if total_bytes <= LARGE_REDUCE_THRESHOLD || !ranks.is_power_of_two() || ranks <= 2 {
        return mpi_reduce_binomial_schedule(ranks, total_bytes);
    }
    rabenseifner_reduce(ranks, total_bytes)
}

/// Rabenseifner's reduce: recursive-halving reduce-scatter, then a binomial
/// gather of the scattered pieces to the root.
fn rabenseifner_reduce(ranks: usize, total_bytes: u64) -> Program {
    let mut b = ProgramBuilder::new(ranks);
    let d = ranks.trailing_zeros();
    for rank in 0..ranks {
        // Reduce-scatter by recursive halving: in step k each rank exchanges
        // half of its current working window with a partner at distance
        // ranks / 2^(k+1).
        let mut window = total_bytes;
        for k in 0..d {
            let distance = ranks >> (k + 1);
            let partner = rank ^ distance;
            window /= 2;
            let tag = 10 + k;
            b.isend(rank, partner, window.max(1), tag);
            b.recv(rank, partner, window.max(1), tag);
            b.reduce(rank, window.max(1));
        }
        b.wait_all_sends(rank);
        // Binomial gather of the scattered, fully reduced pieces to rank 0.
        let (parent, children) = binomial(rank, ranks);
        let piece = (total_bytes / ranks as u64).max(1);
        for child in children {
            // A child forwards its own piece plus its subtree's pieces.
            let subtree = super::bcast::subtree_bytes(child, ranks, piece);
            b.recv(rank, child, subtree, 50);
        }
        if let Some(parent) = parent {
            let subtree = super::bcast::subtree_bytes(rank, ranks, piece);
            b.send(rank, parent, subtree, 50);
        }
    }
    b.build()
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
    fn default_reduce_falls_back_to_binomial_for_small_or_odd_worlds() {
        assert_eq!(
            mpi_reduce_default_schedule(6, 1_000_000).total_wire_bytes(),
            mpi_reduce_binomial_schedule(6, 1_000_000).total_wire_bytes()
        );
        assert_eq!(
            mpi_reduce_default_schedule(8, 100).total_wire_bytes(),
            mpi_reduce_binomial_schedule(8, 100).total_wire_bytes()
        );
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

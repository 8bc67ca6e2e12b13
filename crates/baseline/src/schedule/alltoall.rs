//! Schedule for the vendor `MPI_Alltoall` (pairwise exchange).

use ec_netsim::Program;

use crate::twosided::record;
use crate::variants::pairwise_alltoall;

/// Pairwise-exchange `MPI_Alltoall` (Figure 13's `mpi` curves): the
/// single-source [`pairwise_alltoall`] body with `block_bytes`-byte blocks.
/// Every rank copies its own block locally, then runs `P - 1` rounds; in
/// round `k` it sends its block to `(rank + k) % P` and receives from
/// `(rank - k) % P`.
pub fn mpi_alltoall_pairwise_schedule(ranks: usize, block_bytes: u64) -> Program {
    record(ranks, 1, |t| pairwise_alltoall(t, block_bytes as usize))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ec_collectives::schedule::alltoall_direct_schedule;
    use ec_netsim::{validate, ClusterSpec, CostModel, Engine};

    #[test]
    fn traffic_matches_p_times_p_minus_1_blocks() {
        let p = 16u64;
        let block = 8192u64;
        let prog = mpi_alltoall_pairwise_schedule(p as usize, block);
        assert_eq!(prog.total_wire_bytes(), p * (p - 1) * block);
    }

    #[test]
    fn simulates_with_four_ranks_per_node() {
        let nodes = 8;
        let ppn = 4;
        let p = nodes * ppn;
        let prog = mpi_alltoall_pairwise_schedule(p, 32 * 1024);
        validate(&prog, p).unwrap();
        let t = Engine::new(ClusterSpec::homogeneous(nodes, ppn), CostModel::galileo_opa()).makespan(&prog).unwrap();
        assert!(t > 0.0 && t < 1.0);
    }

    #[test]
    fn pairwise_schedule_compiles_with_full_interning() {
        // Every rank of the pairwise exchange runs the same stream modulo
        // rank rotation, which the delta coding normalizes away completely.
        let p = 256;
        let compiled = mpi_alltoall_pairwise_schedule(p, 4096).compile().unwrap();
        let per_rank = (compiled.total_ops() / p as u64) as usize;
        assert_eq!(compiled.memory_stats().stored_ops, per_rank, "all ranks must share one arena segment");
    }

    #[test]
    fn round_structure_serializes_rounds() {
        // The pairwise exchange must be slower than the one-sided direct
        // algorithm because every round waits for the received block.
        let p = 16;
        let block = 32 * 1024;
        let mpi = Engine::new(ClusterSpec::homogeneous(4, 4), CostModel::galileo_opa())
            .makespan(&mpi_alltoall_pairwise_schedule(p, block))
            .unwrap();
        let gaspi = Engine::new(ClusterSpec::homogeneous(4, 4), CostModel::galileo_opa())
            .makespan(&alltoall_direct_schedule(p, block))
            .unwrap();
        assert!(mpi > gaspi, "pairwise MPI ({mpi}) must be slower than the direct GASPI alltoall ({gaspi})");
    }
}

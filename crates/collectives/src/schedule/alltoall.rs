//! Schedule shim for the direct one-sided AlltoAll: the single-sourced body
//! in [`crate::algo::alltoall`] replayed one rank at a time by
//! [`ec_comm::record`].

use ec_netsim::Program;

use crate::algo;

/// Build the `gaspi_alltoall` schedule: every rank writes its `block_bytes`
/// block to every other rank with a unique notification, then waits for the
/// `P - 1` notifications addressed to it (Section IV-B, Figure 13).
///
/// The schedule is recorded from the same algorithm body the threaded
/// implementation executes, without the per-call reuse handshake: it models a
/// single collective over initially-free landing slots, which is what the
/// paper's figures time.
pub fn alltoall_direct_schedule(ranks: usize, block_bytes: u64) -> Program {
    let block = block_bytes as usize;
    ec_comm::record(ranks, 1, |rec| algo::alltoall_direct(rec, block, block, false))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ec_netsim::{validate, ClusterSpec, CostModel, Engine};

    #[test]
    fn traffic_is_p_times_p_minus_1_blocks() {
        let p = 16u64;
        let block = 4096u64;
        let prog = alltoall_direct_schedule(p as usize, block);
        assert_eq!(prog.total_wire_bytes(), p * (p - 1) * block);
    }

    #[test]
    fn simulates_with_multiple_ranks_per_node() {
        // Figure 13 uses four ranks per node; the shared NIC must be modelled.
        let nodes = 4;
        let ppn = 4;
        let p = nodes * ppn;
        let prog = alltoall_direct_schedule(p, 8192);
        validate(&prog, p).unwrap();
        let shared =
            Engine::new(ClusterSpec::homogeneous(nodes, ppn), CostModel::galileo_opa()).makespan(&prog).unwrap();
        let spread = Engine::new(ClusterSpec::homogeneous(p, 1), CostModel::galileo_opa()).makespan(&prog).unwrap();
        assert!(shared > spread, "sharing a NIC among {ppn} ranks must cost time");
    }

    #[test]
    fn completion_grows_roughly_linearly_with_rank_count() {
        let cost = CostModel::test_model();
        let block = 100_000u64;
        let t4 = Engine::new(ClusterSpec::homogeneous(4, 1), cost.clone())
            .makespan(&alltoall_direct_schedule(4, block))
            .unwrap();
        let t16 =
            Engine::new(ClusterSpec::homogeneous(16, 1), cost).makespan(&alltoall_direct_schedule(16, block)).unwrap();
        let ratio = t16 / t4;
        assert!(ratio > 3.0 && ratio < 7.0, "alltoall scales ~linearly in P, got ratio {ratio}");
    }

    #[test]
    fn single_rank_schedule_is_empty() {
        assert_eq!(alltoall_direct_schedule(1, 128).total_ops(), 0);
    }
}

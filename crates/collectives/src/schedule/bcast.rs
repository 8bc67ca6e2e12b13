//! Schedule shim for the binomial-spanning-tree broadcast: the single-sourced
//! body in [`crate::algo::bcast`] replayed one rank at a time by
//! [`ec_comm::record`].

use ec_netsim::Program;

use crate::algo::{self, AckMode};

/// Build the `gaspi_bcast` schedule for `ranks` ranks broadcasting
/// `total_bytes` from rank 0, shipping only `threshold` (a fraction in
/// `(0, 1]`) of the payload — the eventually consistent variant of Figure 8.
///
/// The schedule is recorded from the same algorithm body the threaded
/// implementation executes, instantiated with the paper's relaxed completion
/// rule ([`AckMode::Leaves`]): leaves acknowledge their parent with a
/// payload-free notification; interior ranks forward as soon as their data
/// arrived.
pub fn bcast_bst_schedule(ranks: usize, total_bytes: u64, threshold: f64) -> Program {
    assert!(threshold > 0.0 && threshold <= 1.0, "threshold must be in (0, 1]");
    let ship = ((total_bytes as f64 * threshold).round() as u64).clamp(1, total_bytes.max(1));
    ec_comm::record(ranks, 1, |rec| algo::bcast_bst(rec, ship as usize, 0, AckMode::Leaves))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ec_netsim::{validate, ClusterSpec, CostModel, Engine, Op};

    #[test]
    fn every_non_root_rank_receives_exactly_once() {
        let p = 16;
        let prog = bcast_bst_schedule(p, 1000, 1.0);
        validate(&prog, p).unwrap();
        // Count puts per destination.
        let mut received = vec![0usize; p];
        for rp in &prog.ranks {
            for op in &rp.ops {
                if let Op::PutNotify { dst, .. } = op {
                    received[*dst] += 1;
                }
            }
        }
        assert_eq!(received[0], 0);
        assert!(received[1..].iter().all(|&c| c == 1));
    }

    #[test]
    fn threshold_scales_bytes_on_the_wire() {
        let p = 8;
        let full = bcast_bst_schedule(p, 1_000_000, 1.0).total_wire_bytes();
        let quarter = bcast_bst_schedule(p, 1_000_000, 0.25).total_wire_bytes();
        assert_eq!(full, 7 * 1_000_000);
        assert_eq!(quarter, 7 * 250_000);
    }

    #[test]
    fn completion_time_grows_logarithmically_with_ranks() {
        let cost = CostModel::test_model();
        let t4 = Engine::new(ClusterSpec::homogeneous(4, 1), cost.clone())
            .makespan(&bcast_bst_schedule(4, 1000, 1.0))
            .unwrap();
        let t32 =
            Engine::new(ClusterSpec::homogeneous(32, 1), cost).makespan(&bcast_bst_schedule(32, 1000, 1.0)).unwrap();
        // log2(32)/log2(4) = 2.5; allow slack for serialization at the root.
        assert!(t32 / t4 < 4.5, "broadcast must scale logarithmically, got ratio {}", t32 / t4);
    }

    #[test]
    fn two_rank_broadcast_is_a_single_put() {
        let prog = bcast_bst_schedule(2, 512, 1.0);
        assert_eq!(prog.total_wire_bytes(), 512);
        assert_eq!(prog.ranks[0].ops.iter().filter(|o| matches!(o, Op::PutNotify { .. })).count(), 1);
    }
}

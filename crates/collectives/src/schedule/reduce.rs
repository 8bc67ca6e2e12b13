//! Schedule shims for the binomial-tree reduce variants: the single-sourced
//! body in [`crate::algo::reduce`] replayed one rank at a time by
//! [`ec_comm::record`].

use ec_comm::ReduceOp;
use ec_netsim::Program;

use crate::algo;
use crate::topology::BinomialTree;

/// Build the `gaspi_reduce` schedule with a **data threshold**: every rank
/// participates but only `threshold` of the payload is shipped and reduced
/// (Figure 9).
pub fn reduce_bst_schedule(ranks: usize, total_bytes: u64, threshold: f64) -> Program {
    assert!(threshold > 0.0 && threshold <= 1.0);
    let ship = ((total_bytes as f64 * threshold).round() as u64).clamp(1, total_bytes.max(1));
    record(ranks, ship, &vec![true; ranks])
}

/// Build the `gaspi_reduce` schedule with a **process threshold**: the full
/// payload is shipped but only a fraction of the processes participate; the
/// leaves joining in the latest tree stages are pruned first (Figure 10).
pub fn reduce_process_threshold_schedule(ranks: usize, total_bytes: u64, threshold: f64) -> Program {
    assert!(threshold > 0.0 && threshold <= 1.0);
    let tree = BinomialTree::new(ranks, 0);
    let engaged = tree.engaged_under_process_threshold(threshold);
    record(ranks, total_bytes.max(1), &engaged)
}

fn record(ranks: usize, ship_bytes: u64, engaged: &[bool]) -> Program {
    let ship = ship_bytes as usize;
    // The slot stride is segment layout, which the recorder ignores.
    ec_comm::record(ranks, 1, |rec| algo::reduce_bst(rec, ship, 0, ReduceOp::Sum, engaged, ship))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ec_netsim::{validate, ClusterSpec, CostModel, Engine, Op};

    #[test]
    fn data_threshold_scales_wire_bytes() {
        let p = 8;
        let full = reduce_bst_schedule(p, 1_000_000, 1.0).total_wire_bytes();
        let quarter = reduce_bst_schedule(p, 1_000_000, 0.25).total_wire_bytes();
        assert_eq!(full, 7 * 1_000_000);
        assert_eq!(quarter, 7 * 250_000);
    }

    #[test]
    fn process_threshold_reduces_message_count() {
        let p = 32;
        let full: usize = reduce_process_threshold_schedule(p, 1000, 1.0)
            .ranks
            .iter()
            .flat_map(|r| &r.ops)
            .filter(|o| matches!(o, Op::PutNotify { .. }))
            .count();
        let half: usize = reduce_process_threshold_schedule(p, 1000, 0.5)
            .ranks
            .iter()
            .flat_map(|r| &r.ops)
            .filter(|o| matches!(o, Op::PutNotify { .. }))
            .count();
        assert_eq!(full, 31);
        assert_eq!(half, 15, "half the processes engaged => 16 participants => 15 contributions");
    }

    #[test]
    fn schedules_simulate_cleanly() {
        let p = 16;
        let e = Engine::new(ClusterSpec::homogeneous(p, 1), CostModel::test_model());
        for prog in [
            reduce_bst_schedule(p, 10_000, 1.0),
            reduce_bst_schedule(p, 10_000, 0.5),
            reduce_process_threshold_schedule(p, 10_000, 0.25),
        ] {
            validate(&prog, p).unwrap();
            assert!(e.makespan(&prog).unwrap() > 0.0);
        }
    }

    #[test]
    fn pruned_ranks_have_empty_programs() {
        let p = 8;
        let prog = reduce_process_threshold_schedule(p, 1000, 0.5);
        // Ranks 4..8 join in the last stage and are pruned.
        for r in 4..8 {
            assert!(prog.ranks[r].is_empty(), "rank {r} should be pruned");
        }
        assert!(!prog.ranks[0].is_empty());
    }

    #[test]
    fn children_are_awaited_in_reverse_index_order() {
        // The recorder linearizes waitsome arrival last-to-first: shallow
        // subtrees land first, overlapping the wait for the deep ones.
        let prog = reduce_bst_schedule(8, 1000, 1.0);
        let waited: Vec<u32> = prog.ranks[0]
            .ops
            .iter()
            .filter_map(|op| match op {
                Op::WaitNotify { ids } => Some(ids[0]),
                _ => None,
            })
            .collect();
        // Rank 0 has three children (ranks 1, 2, 4 => slots 1, 2, 3).
        assert_eq!(waited, vec![3, 2, 1]);
    }
}

//! Schedules of the segmented pipelined ring allreduce and the plain
//! hypercube allreduce: the sources in [`super::source`], materialized.

use ec_netsim::Program;

use super::source::{HypercubeAllreduceSource, RingAllreduceSource};

/// Build the `gaspi_allreduce_ring` schedule: scatter-reduce followed by
/// allgather, each of `P - 1` steps, synchronized only by notifications
/// (Figures 4–5, 11–12).
///
/// Chunks smaller than one byte (possible when `total_bytes < ranks`) are
/// announced with payload-free notifications instead of zero-byte puts.
pub fn ring_allreduce_schedule(ranks: usize, total_bytes: u64) -> Program {
    Program::from_source(&RingAllreduceSource::new(ranks, total_bytes))
}

/// Build a fully synchronous hypercube allreduce schedule: `log2(P)` steps,
/// each exchanging the *entire* vector with the step partner and reducing it.
///
/// This is the communication structure underlying `allreduce_ssp`
/// (Algorithm 1) when no staleness is exploited; recording the SSP body with
/// zero slack renders exactly this structure, which the paper uses to explain
/// why the SSP collective cannot compete with the ring for large vectors
/// (Figure 7, left).  Non-power-of-two rank counts are not supported by the
/// hypercube; the program stays empty (callers check `hypercube_dims`
/// themselves).
pub fn hypercube_allreduce_schedule(ranks: usize, total_bytes: u64) -> Program {
    Program::from_source(&HypercubeAllreduceSource::new(ranks, total_bytes))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ec_netsim::{validate, ClusterSpec, CostModel, Engine};

    #[test]
    fn ring_moves_2_p_minus_1_over_p_of_the_data_per_rank() {
        let p = 8u64;
        let bytes = 800_000u64;
        let prog = ring_allreduce_schedule(p as usize, bytes);
        let per_rank = prog.total_wire_bytes() / p;
        let expect = 2 * (p - 1) * (bytes / p);
        let diff = per_rank.abs_diff(expect);
        assert!(diff <= bytes / p, "per-rank traffic {per_rank} far from {expect}");
    }

    #[test]
    fn hypercube_moves_log_p_full_vectors_per_rank() {
        let p = 16;
        let bytes = 1_000;
        let prog = hypercube_allreduce_schedule(p, bytes);
        assert_eq!(prog.total_wire_bytes(), (p as u64) * 4 * bytes);
    }

    #[test]
    fn schedules_validate_and_simulate() {
        let p = 8;
        let e = Engine::new(ClusterSpec::homogeneous(p, 1), CostModel::test_model());
        for prog in [ring_allreduce_schedule(p, 64_000), hypercube_allreduce_schedule(p, 64_000)] {
            validate(&prog, p).unwrap();
            assert!(e.makespan(&prog).unwrap() > 0.0);
        }
    }

    #[test]
    fn single_rank_schedules_are_empty() {
        assert_eq!(ring_allreduce_schedule(1, 100).total_ops(), 0);
        assert_eq!(hypercube_allreduce_schedule(1, 100).total_ops(), 0);
    }

    #[test]
    fn non_power_of_two_hypercube_is_empty() {
        assert_eq!(hypercube_allreduce_schedule(6, 100).total_ops(), 0);
    }

    #[test]
    fn tiny_payload_emits_no_zero_byte_puts() {
        // 3 bytes over 8 ranks: most chunks are empty and must travel as
        // payload-free notifications, which still validates and simulates.
        let p = 8;
        let prog = ring_allreduce_schedule(p, 3);
        validate(&prog, p).unwrap();
        let zero_byte_puts = prog
            .ranks
            .iter()
            .flat_map(|r| &r.ops)
            .filter(|op| matches!(op, ec_netsim::Op::PutNotify { bytes: 0, .. }))
            .count();
        assert_eq!(zero_byte_puts, 0, "empty chunks must travel as notifications");
        let e = Engine::new(ClusterSpec::homogeneous(p, 1), CostModel::test_model());
        assert!(e.makespan(&prog).unwrap() > 0.0);
        // Every rank circulates the three 1-byte chunks through both stages
        // except the chunk it never sends: 2 * (8 * 3 - 3) bytes in total.
        assert_eq!(prog.total_wire_bytes(), 42);
    }

    #[test]
    fn ring_time_is_dominated_by_bandwidth_for_large_vectors() {
        // For 8 MB on 32 ranks the alpha terms are negligible; the makespan
        // should be close to 2 * (P-1)/P * message_time.
        let p = 32;
        let bytes: u64 = 8_000_000;
        let cost = CostModel::skylake_fdr();
        let e = Engine::new(ClusterSpec::homogeneous(p, 1), cost.clone());
        let t = e.makespan(&ring_allreduce_schedule(p, bytes)).unwrap();
        let ideal = 2.0 * (p as f64 - 1.0) / p as f64 * bytes as f64 * cost.beta_inter;
        assert!(t >= ideal, "cannot beat the bandwidth bound");
        assert!(t < ideal * 2.0, "ring should be within 2x of the bandwidth bound, got {t} vs {ideal}");
    }
}

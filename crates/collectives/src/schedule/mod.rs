//! Cost-model schedules of the GASPI collectives for the `ec-netsim`
//! simulator.
//!
//! Every collective implemented in this crate also exists as a *schedule
//! generator* that emits the sequence of one-sided puts, notifications,
//! waits and local reductions each rank performs.  Feeding these programs to
//! [`ec_netsim::Engine`] with one of the cluster presets regenerates the
//! paper's evaluation figures at 2–32 nodes without a cluster.
//!
//! The generators are thin shims: they replay the **same single-sourced
//! algorithm bodies** from [`crate::algo`] that the threaded handles execute,
//! one rank at a time on an [`ec_comm::RankRecorder`] that abstracts payloads
//! into byte counts — through [`ec_comm::record`], or through the
//! [`source`] generators where a figure compiles the schedule without
//! materializing it.  Agreement with the threaded implementations is
//! structural, not a documentation promise — the two cannot drift apart.

pub mod alltoall;
pub mod bcast;
pub mod reduce;
pub mod ring;
pub mod source;

pub use alltoall::alltoall_direct_schedule;
pub use bcast::bcast_bst_schedule;
pub use reduce::{reduce_bst_schedule, reduce_process_threshold_schedule};
pub use ring::{hypercube_allreduce_schedule, ring_allreduce_schedule};
pub use source::{HypercubeAllreduceSource, RingAllreduceSource};

#[cfg(test)]
mod tests {
    use super::*;
    use ec_netsim::{validate, ClusterSpec, CostModel, Engine};

    fn engine(p: usize) -> Engine {
        Engine::new(ClusterSpec::homogeneous(p, 1), CostModel::skylake_fdr())
    }

    #[test]
    fn all_schedules_pass_validation() {
        let p = 16;
        let bytes = 80_000;
        for prog in [
            bcast_bst_schedule(p, bytes, 1.0),
            bcast_bst_schedule(p, bytes, 0.25),
            reduce_bst_schedule(p, bytes, 1.0),
            reduce_bst_schedule(p, bytes, 0.5),
            reduce_process_threshold_schedule(p, bytes, 0.5),
            ring_allreduce_schedule(p, bytes),
            hypercube_allreduce_schedule(p, bytes),
            alltoall_direct_schedule(p, 4096),
        ] {
            validate(&prog, p).unwrap();
        }
    }

    #[test]
    fn all_schedules_simulate_without_deadlock() {
        let p = 8;
        let bytes = 8_000;
        let e = engine(p);
        for prog in [
            bcast_bst_schedule(p, bytes, 0.5),
            reduce_bst_schedule(p, bytes, 0.25),
            reduce_process_threshold_schedule(p, bytes, 0.75),
            ring_allreduce_schedule(p, bytes),
            hypercube_allreduce_schedule(p, bytes),
            alltoall_direct_schedule(p, 1024),
        ] {
            let t = e.makespan(&prog).unwrap();
            assert!(t > 0.0 && t < 1.0, "implausible makespan {t}");
        }
    }

    #[test]
    fn ring_beats_hypercube_for_large_vectors() {
        // The paper explains allreduce_ssp's poor absolute performance by the
        // hypercube shuffling the entire vector at every step; the ring only
        // moves 2(P-1)/P of the data per rank.
        let p = 32;
        let bytes = 8_000_000; // 1M doubles
        let e = engine(p);
        let ring = e.makespan(&ring_allreduce_schedule(p, bytes)).unwrap();
        let cube = e.makespan(&hypercube_allreduce_schedule(p, bytes)).unwrap();
        assert!(cube > ring * 1.5, "hypercube {cube} should be much slower than ring {ring}");
    }

    #[test]
    fn broadcast_threshold_reduces_completion_time() {
        let p = 32;
        let bytes = 8_000_000;
        let e = engine(p);
        let quarter = e.makespan(&bcast_bst_schedule(p, bytes, 0.25)).unwrap();
        let full = e.makespan(&bcast_bst_schedule(p, bytes, 1.0)).unwrap();
        let speedup = full / quarter;
        assert!(speedup > 2.0 && speedup < 6.0, "quarter-data broadcast speedup {speedup} out of expected range");
    }

    #[test]
    fn reduce_process_pruning_is_cheaper_than_full() {
        let p = 32;
        let bytes = 8_000_000;
        let e = engine(p);
        let half_procs = e.makespan(&reduce_process_threshold_schedule(p, bytes, 0.5)).unwrap();
        let full = e.makespan(&reduce_process_threshold_schedule(p, bytes, 1.0)).unwrap();
        assert!(half_procs < full, "engaging fewer processes must not be slower");
    }
}

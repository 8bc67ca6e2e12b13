//! The ring and hypercube allreduce schedules, each defined once as an
//! [`ec_netsim::ProgramSource`].
//!
//! A source holds only the collective's parameters (derived once, in `new`)
//! and replays the *same single-sourced algorithm body* for one rank at a
//! time on an [`ec_comm::RankRecorder`].  [`super::ring_allreduce_schedule`]
//! and [`super::hypercube_allreduce_schedule`] materialize these sources with
//! [`Program::from_source`](ec_netsim::Program::from_source); figure-scale
//! callers compile them with
//! [`ec_netsim::CompiledProgram::from_source`] instead, whose arena
//! interning stores ranks with identical op streams (all of them, for these
//! SPMD collectives) once, so a million-rank program costs barely more than
//! a four-rank one.

use ec_comm::{RankRecorder, ReduceOp};
use ec_netsim::{Op, ProgramSource};
use ec_ssp::{Clock, SspPolicy};

use crate::algo;
use crate::topology::{chunk_ranges, hypercube_dims};

/// Per-rank generator of the `gaspi_allreduce_ring` schedule (see
/// [`super::ring_allreduce_schedule`]).
#[derive(Debug, Clone, Copy)]
pub struct RingAllreduceSource {
    ranks: usize,
    /// Payload elements (one byte each).
    n: usize,
    /// Landing-slot stride of the scatter-reduce stage: the largest chunk.
    scratch_stride: usize,
}

impl RingAllreduceSource {
    /// A ring allreduce of `total_bytes` across `ranks` ranks.
    pub fn new(ranks: usize, total_bytes: u64) -> Self {
        let n = total_bytes as usize;
        Self { ranks, n, scratch_stride: chunk_ranges(n, ranks.max(1))[0].1.max(1) }
    }
}

impl ProgramSource for RingAllreduceSource {
    fn num_ranks(&self) -> usize {
        self.ranks
    }

    fn rank_ops(&self, rank: usize, out: &mut Vec<Op>) {
        if self.ranks <= 1 {
            return;
        }
        let mut rec = RankRecorder::new(rank, self.ranks, 1);
        algo::ring_allreduce(&mut rec, self.n, self.n, self.scratch_stride, ReduceOp::Sum)
            .expect("recording is infallible");
        out.append(&mut rec.finish());
    }
}

/// Per-rank generator of the fully synchronous hypercube allreduce (see
/// [`super::hypercube_allreduce_schedule`]).
///
/// Non-power-of-two rank counts yield empty rank programs.
#[derive(Debug, Clone, Copy)]
pub struct HypercubeAllreduceSource {
    ranks: usize,
    /// Payload elements (one byte each).
    n: usize,
    /// Hypercube dimensions, `None` when `ranks` is not a power of two.
    dims: Option<u32>,
}

impl HypercubeAllreduceSource {
    /// A hypercube allreduce of `total_bytes` across `ranks` ranks.
    pub fn new(ranks: usize, total_bytes: u64) -> Self {
        Self { ranks, n: total_bytes as usize, dims: hypercube_dims(ranks) }
    }
}

impl ProgramSource for HypercubeAllreduceSource {
    fn num_ranks(&self) -> usize {
        self.ranks
    }

    fn rank_ops(&self, rank: usize, out: &mut Vec<Op>) {
        let Some(dims) = self.dims else {
            return;
        };
        // The SSP body at slack 0 renders the synchronous hypercube.
        let n = self.n;
        let mut rec = RankRecorder::new(rank, self.ranks, 1);
        algo::ssp_hypercube_allreduce(&mut rec, n, n + 1, dims, ReduceOp::Sum, Clock::from(1), SspPolicy::new(0))
            .expect("recording is infallible");
        out.append(&mut rec.finish());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::{hypercube_allreduce_schedule, ring_allreduce_schedule};
    use ec_netsim::{ClusterSpec, CompiledProgram, CostModel, Engine, Topology};
    use proptest::prelude::*;

    fn ops_of<S: ProgramSource>(source: &S, rank: usize) -> Vec<Op> {
        let mut out = Vec::new();
        source.rank_ops(rank, &mut out);
        out
    }

    #[test]
    fn ring_source_matches_the_materialized_schedule_rank_for_rank() {
        for (p, bytes) in [(1usize, 100u64), (2, 4096), (8, 80_000), (8, 3), (13, 999)] {
            let program = ring_allreduce_schedule(p, bytes);
            let source = RingAllreduceSource::new(p, bytes);
            assert_eq!(source.num_ranks(), p);
            for rank in 0..p {
                assert_eq!(ops_of(&source, rank), program.ranks[rank].ops, "p={p} bytes={bytes} rank={rank}");
            }
        }
    }

    #[test]
    fn hypercube_source_matches_the_materialized_schedule_rank_for_rank() {
        for (p, bytes) in [(1usize, 100u64), (4, 4096), (6, 4096), (16, 1_000)] {
            let program = hypercube_allreduce_schedule(p, bytes);
            let source = HypercubeAllreduceSource::new(p, bytes);
            for rank in 0..p {
                assert_eq!(ops_of(&source, rank), program.ranks[rank].ops, "p={p} bytes={bytes} rank={rank}");
            }
        }
    }

    #[test]
    fn compiled_source_is_identical_to_the_compiled_program() {
        let p = 16;
        let bytes = 64_000;
        let from_program = ring_allreduce_schedule(p, bytes).compile().unwrap();
        let from_source = CompiledProgram::from_source(&RingAllreduceSource::new(p, bytes)).unwrap();
        assert_eq!(from_source.num_ranks(), from_program.num_ranks());
        assert_eq!(from_source.total_ops(), from_program.total_ops());
        assert_eq!(from_source.total_wire_bytes(), from_program.total_wire_bytes());
        for rank in 0..p {
            let a: Vec<Op> = from_source.rank_ops(rank).iter().map(|v| v.to_op()).collect();
            let b: Vec<Op> = from_program.rank_ops(rank).iter().map(|v| v.to_op()).collect();
            assert_eq!(a, b, "rank {rank}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// The three execution paths — materialized `Program`, compiled
        /// arena, and lazy `ProgramSource` — must be indistinguishable in
        /// the simulation result for every engine configuration: rank
        /// count, payload, with and without the flow fabric.
        #[test]
        fn all_run_paths_produce_identical_fingerprints(
            p_exp in 1usize..=4,
            bytes in 1u64..100_000,
            fabric in 0usize..2,
        ) {
            let p = 4usize.pow(p_exp as u32); // 4, 16, 64, 256
            let cost = CostModel::test_model();
            let mut engine = Engine::new(ClusterSpec::homogeneous(p, 1), cost.clone());
            if fabric == 1 {
                engine = engine.with_topology(Topology::single_switch(p, 1.0 / cost.beta_inter));
            }

            let ring = ring_allreduce_schedule(p, bytes);
            let via_program = engine.run(&ring).unwrap().fingerprint();
            let via_compiled = engine.run_compiled(&ring.compile().unwrap()).unwrap().fingerprint();
            let source = CompiledProgram::from_source(&RingAllreduceSource::new(p, bytes)).unwrap();
            let via_source = engine.run_compiled(&source).unwrap().fingerprint();
            prop_assert_eq!(via_program, via_compiled);
            prop_assert_eq!(via_program, via_source);

            let cube = hypercube_allreduce_schedule(p, bytes);
            let via_program = engine.run(&cube).unwrap().fingerprint();
            let via_compiled = engine.run_compiled(&cube.compile().unwrap()).unwrap().fingerprint();
            let source = CompiledProgram::from_source(&HypercubeAllreduceSource::new(p, bytes)).unwrap();
            let via_source = engine.run_compiled(&source).unwrap().fingerprint();
            prop_assert_eq!(via_program, via_compiled);
            prop_assert_eq!(via_program, via_source);
        }
    }

    #[test]
    fn spmd_interning_keeps_the_arena_at_per_rank_size() {
        // With a uniform chunk size every rank of the ring runs the same op
        // stream modulo neighbor rotation, which the delta coding of the
        // arena normalizes away: the arena must hold O(ops per rank)
        // records, not O(total ops).
        let p = 1024;
        let compiled = CompiledProgram::from_source(&RingAllreduceSource::new(p, 65_536)).unwrap();
        let per_rank = (compiled.total_ops() / p as u64) as usize;
        let stored = compiled.memory_stats().stored_ops;
        assert!(
            stored <= 4 * per_rank,
            "arena holds {stored} op records for {per_rank} ops per rank — interning is not deduplicating"
        );
    }
}

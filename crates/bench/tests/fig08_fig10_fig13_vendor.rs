//! Pins for Figures 8, 9, 10 and 13: every `--smoke` makespan of the GASPI
//! series and of the vendor `MPI_Bcast`, `MPI_Reduce` and `MPI_Alltoall`
//! baselines, bit for bit.  The sweeps below are the ones
//! `fig08_bcast_threshold --smoke`, `fig09_reduce_threshold --smoke`,
//! `fig10_reduce_procs --smoke` and `fig13_alltoall --smoke` print, so a
//! change to how a baseline's schedule is built cannot move one of those
//! figures without failing here.

use ec_baseline::{
    mpi_alltoall_pairwise_schedule, mpi_bcast_binomial_schedule, mpi_bcast_default_schedule,
    mpi_reduce_binomial_schedule, mpi_reduce_default_schedule,
};
use ec_bench::node_sweep;
use ec_collectives::schedule::{
    alltoall_direct_schedule, bcast_bst_schedule, reduce_bst_schedule, reduce_process_threshold_schedule,
};
use ec_netsim::{ClusterSpec, CostModel, Engine, Program, SplitMix64};

const THRESHOLDS: [f64; 4] = [0.25, 0.5, 0.75, 1.0];

/// Fold the makespan of each program into `digest`, in order.
fn fold(digest: &mut u64, engine: &Engine, programs: impl IntoIterator<Item = Program>) {
    for program in programs {
        *digest = SplitMix64::mix(*digest ^ engine.makespan(&program).unwrap().to_bits());
    }
}

/// Digest of a Figure 8–10 panel: per node count, the four GASPI thresholds
/// of `gaspi`, then `mpi-def` and `mpi-bin` (legend order), on one rank per
/// Skylake+FDR node.
fn threshold_panel(
    digest: &mut u64,
    bytes: u64,
    gaspi: fn(usize, u64, f64) -> Program,
    mpi_def: fn(usize, u64) -> Program,
    mpi_bin: fn(usize, u64) -> Program,
) {
    for nodes in node_sweep() {
        let engine = Engine::new(ClusterSpec::homogeneous(nodes, 1), CostModel::skylake_fdr());
        let gaspi = THRESHOLDS.map(|t| gaspi(nodes, bytes, t));
        fold(digest, &engine, gaspi.into_iter().chain([mpi_def(nodes, bytes), mpi_bin(nodes, bytes)]));
    }
}

#[test]
fn fig08_smoke_makespans_are_pinned() {
    let mut digest = 0;
    for elems in [1_000u64, 100_000] {
        threshold_panel(
            &mut digest,
            elems * 8,
            bcast_bst_schedule,
            mpi_bcast_default_schedule,
            mpi_bcast_binomial_schedule,
        );
    }
    assert_eq!(format!("{digest:016x}"), "edc03a098d4eb0b2");
}

#[test]
fn fig09_smoke_makespans_are_pinned() {
    let mut digest = 0;
    for elems in [1_000u64, 100_000] {
        threshold_panel(
            &mut digest,
            elems * 8,
            reduce_bst_schedule,
            mpi_reduce_default_schedule,
            mpi_reduce_binomial_schedule,
        );
    }
    assert_eq!(format!("{digest:016x}"), "ad6a56de10805ce6");
}

#[test]
fn fig10_smoke_makespans_are_pinned() {
    let mut digest = 0;
    threshold_panel(
        &mut digest,
        100_000 * 8,
        reduce_process_threshold_schedule,
        mpi_reduce_default_schedule,
        mpi_reduce_binomial_schedule,
    );
    assert_eq!(format!("{digest:016x}"), "678143cd7afa8709");
}

#[test]
fn fig13_smoke_makespans_are_pinned() {
    let ppn = 4;
    let mut digest = 0;
    let mut block = 4u64;
    while block <= 4 * 1024 {
        for nodes in [4usize, 8, 16] {
            let engine = Engine::new(ClusterSpec::homogeneous(nodes, ppn), CostModel::galileo_opa());
            let ranks = nodes * ppn;
            fold(
                &mut digest,
                &engine,
                [alltoall_direct_schedule(ranks, block), mpi_alltoall_pairwise_schedule(ranks, block)],
            );
        }
        block *= 2;
    }
    assert_eq!(format!("{digest:016x}"), "e35eba13675f9317");
}

//! Pins for Figures 11–12: every `--smoke` makespan of the GASPI ring and
//! the twelve `MpiAllreduceVariant` series, bit for bit.  The sweeps below
//! are the ones `fig11_allreduce_nodes --smoke` and
//! `fig12_allreduce_sizes --smoke` print (one rank per node, Skylake+FDR
//! alpha–beta model), so a change to how a variant's schedule is built
//! cannot move either figure without failing here.

use ec_baseline::MpiAllreduceVariant;
use ec_bench::node_sweep;
use ec_collectives::schedule::ring_allreduce_schedule;
use ec_netsim::{ClusterSpec, CostModel, Engine, SplitMix64};

/// Fold the makespans of all 13 series at `ranks` ranks and `bytes` bytes
/// into `digest`, in legend order (gaspi first).
fn fold_cell(digest: &mut u64, ranks: usize, bytes: u64) {
    let engine = Engine::new(ClusterSpec::homogeneous(ranks, 1), CostModel::skylake_fdr());
    let gaspi = engine.makespan(&ring_allreduce_schedule(ranks, bytes)).unwrap();
    let mpi = MpiAllreduceVariant::all().map(|v| engine.makespan(&v.schedule(ranks, bytes, 1)).unwrap());
    for seconds in std::iter::once(gaspi).chain(mpi) {
        *digest = SplitMix64::mix(*digest ^ seconds.to_bits());
    }
}

#[test]
fn fig11_smoke_makespans_are_pinned() {
    let mut digest = 0;
    for elems in [1_000u64, 100_000] {
        for nodes in node_sweep() {
            fold_cell(&mut digest, nodes, elems * 8);
        }
    }
    assert_eq!(format!("{digest:016x}"), "12da920c49c4caf7");
}

#[test]
fn fig12_smoke_makespans_are_pinned() {
    let mut digest = 0;
    let mut elems = 1024u64;
    while elems <= 65_536 {
        fold_cell(&mut digest, 16, elems * 8);
        elems *= 2;
    }
    assert_eq!(format!("{digest:016x}"), "81b54c5c2814655e");
}

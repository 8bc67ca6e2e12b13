//! The twelve `MPI_Allreduce` algorithm variants the paper compares
//! against in Figures 11–12, each dispatched to its single-source body in
//! [`crate::variants`].
//!
//! The variant numbering and naming follows the caption of Figure 11:
//! `mpi1` recursive doubling, `mpi2` Rabenseifner, `mpi3` reduce + bcast,
//! `mpi4` topology-aware reduce + bcast, `mpi5` binomial gather + scatter,
//! `mpi6` topology-aware binomial gather + scatter, `mpi7` Shumilin's ring,
//! `mpi8` ring, `mpi9` knomial, `mpi10` topology-aware SHM-based flat,
//! `mpi11` topology-aware SHM-based knomial, `mpi12` topology-aware
//! SHM-based knary.

use ec_netsim::Program;

use super::trees::{binomial, flat, knary, knomial};
use crate::comm::{MpiComm, Result};
use crate::twosided::{record, ThreadedTwoSided, TwoSided};
use crate::variants::{
    gather_bcast_allreduce, rabenseifner_allreduce, recursive_doubling_allreduce, reduce_scatter_allgather_allreduce,
    topo_allreduce, tree_allreduce,
};

/// The twelve Intel-MPI Allreduce algorithm variants of Figures 11–12.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MpiAllreduceVariant {
    /// `mpi1`: recursive doubling.
    RecursiveDoubling,
    /// `mpi2`: Rabenseifner (reduce-scatter + allgather).
    Rabenseifner,
    /// `mpi3`: binomial reduce followed by binomial broadcast.
    ReduceBcast,
    /// `mpi4`: topology-aware reduce followed by broadcast (node leaders
    /// reduce intra-node first).
    TopoReduceBcast,
    /// `mpi5`: binomial gather of all vectors to the root + broadcast.
    BinomialGatherScatter,
    /// `mpi6`: topology-aware binomial gather + broadcast.
    TopoGatherScatter,
    /// `mpi7`: Shumilin's ring (pipelined reduce-scatter + allgather).
    ShumilinRing,
    /// `mpi8`: ring with phase synchronization.
    Ring,
    /// `mpi9`: knomial (radix 4) reduce + broadcast.
    Knomial,
    /// `mpi10`: topology-aware SHM-based flat tree.
    TopoShmFlat,
    /// `mpi11`: topology-aware SHM-based knomial (radix 8).
    TopoShmKnomial,
    /// `mpi12`: topology-aware SHM-based knary (arity 3).
    TopoShmKnary,
}

impl MpiAllreduceVariant {
    /// All twelve variants in the order of the paper's legend.
    pub fn all() -> [MpiAllreduceVariant; 12] {
        use MpiAllreduceVariant::*;
        [
            RecursiveDoubling,
            Rabenseifner,
            ReduceBcast,
            TopoReduceBcast,
            BinomialGatherScatter,
            TopoGatherScatter,
            ShumilinRing,
            Ring,
            Knomial,
            TopoShmFlat,
            TopoShmKnomial,
            TopoShmKnary,
        ]
    }

    /// The legend label used in the paper's plots (`mpi1` .. `mpi12`).
    pub fn label(self) -> &'static str {
        use MpiAllreduceVariant::*;
        match self {
            RecursiveDoubling => "mpi1-recursive-doubling",
            Rabenseifner => "mpi2-rabenseifner",
            ReduceBcast => "mpi3-reduce-bcast",
            TopoReduceBcast => "mpi4-topo-reduce-bcast",
            BinomialGatherScatter => "mpi5-binomial-gather-scatter",
            TopoGatherScatter => "mpi6-topo-gather-scatter",
            ShumilinRing => "mpi7-shumilin-ring",
            Ring => "mpi8-ring",
            Knomial => "mpi9-knomial",
            TopoShmFlat => "mpi10-shm-flat",
            TopoShmKnomial => "mpi11-shm-knomial",
            TopoShmKnary => "mpi12-shm-knary",
        }
    }

    /// This variant's body over `n` elements, with `ppn` ranks sharing each
    /// node (used by the topology-aware variants).
    fn body<T: TwoSided>(self, t: &mut T, n: usize, ppn: usize) -> Result<()> {
        use MpiAllreduceVariant::*;
        match self {
            RecursiveDoubling => recursive_doubling_allreduce(t, n),
            Rabenseifner => rabenseifner_allreduce(t, n),
            ReduceBcast => tree_allreduce(t, n, binomial),
            TopoReduceBcast => topo_allreduce(t, n, ppn, |l| tree_allreduce(l, n, binomial)),
            BinomialGatherScatter => gather_bcast_allreduce(t, n),
            TopoGatherScatter => topo_allreduce(t, n, ppn, |l| gather_bcast_allreduce(l, n)),
            ShumilinRing => reduce_scatter_allgather_allreduce(t, n, false),
            Ring => reduce_scatter_allgather_allreduce(t, n, true),
            Knomial => tree_allreduce(t, n, |r, p| knomial(r, p, 4)),
            TopoShmFlat => topo_allreduce(t, n, ppn, |l| tree_allreduce(l, n, flat)),
            TopoShmKnomial => topo_allreduce(t, n, ppn, |l| tree_allreduce(l, n, |r, p| knomial(r, p, 8))),
            TopoShmKnary => topo_allreduce(t, n, ppn, |l| tree_allreduce(l, n, |r, p| knary(r, p, 3))),
        }
    }

    /// Record this variant's schedule for `ranks` ranks reducing
    /// `total_bytes` bytes, with `ranks_per_node` ranks sharing each node
    /// (used by the topology-aware variants).  A zero-byte allreduce records
    /// an empty program.
    pub fn schedule(self, ranks: usize, total_bytes: u64, ranks_per_node: usize) -> Program {
        record(ranks, 1, |t| self.body(t, total_bytes as usize, ranks_per_node))
    }

    /// Run this variant on the threaded runtime, summing `data` across all
    /// ranks in place.
    pub fn run(self, comm: &mut MpiComm, data: &mut [f64], ranks_per_node: usize) -> Result<()> {
        let n = data.len();
        if !matches!(self, Self::BinomialGatherScatter | Self::TopoGatherScatter) {
            return self.body(&mut ThreadedTwoSided::new(comm, data), n, ranks_per_node);
        }
        // The gather stages every rank's vector behind the root's own.
        let mut buf = data.to_vec();
        buf.resize(comm.size() * n, 0.0);
        self.body(&mut ThreadedTwoSided::new(comm, &mut buf), n, ranks_per_node)?;
        data.copy_from_slice(&buf[..n]);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ec_netsim::{validate, ClusterSpec, CostModel, Engine};

    fn makespan(variant: MpiAllreduceVariant, p: usize, bytes: u64) -> f64 {
        let prog = variant.schedule(p, bytes, 1);
        validate(&prog, p).unwrap();
        Engine::new(ClusterSpec::homogeneous(p, 1), CostModel::skylake_fdr()).makespan(&prog).unwrap()
    }

    #[test]
    fn labels_are_unique_and_follow_the_paper_numbering() {
        let labels: Vec<_> = MpiAllreduceVariant::all().iter().map(|v| v.label()).collect();
        assert_eq!(labels.len(), 12);
        let unique: std::collections::HashSet<_> = labels.iter().collect();
        assert_eq!(unique.len(), 12);
        assert_eq!(MpiAllreduceVariant::RecursiveDoubling.label(), "mpi1-recursive-doubling");
        assert_eq!(MpiAllreduceVariant::TopoShmKnary.label(), "mpi12-shm-knary");
    }

    #[test]
    fn recursive_doubling_beats_ring_for_small_messages() {
        let small = 800; // 100 doubles
        let rd = makespan(MpiAllreduceVariant::RecursiveDoubling, 32, small);
        let ring = makespan(MpiAllreduceVariant::Ring, 32, small);
        assert!(rd < ring, "recursive doubling ({rd}) should win at small sizes vs ring ({ring})");
    }

    #[test]
    fn ring_variants_beat_gather_based_variants_for_large_messages() {
        let large = 8_000_000;
        let shumilin = makespan(MpiAllreduceVariant::ShumilinRing, 32, large);
        let gather = makespan(MpiAllreduceVariant::BinomialGatherScatter, 32, large);
        let flat = makespan(MpiAllreduceVariant::TopoShmFlat, 32, large);
        assert!(shumilin < gather);
        assert!(shumilin < flat);
    }

    #[test]
    fn shumilin_is_at_least_as_fast_as_the_synchronized_ring() {
        let large = 8_000_000;
        let shumilin = makespan(MpiAllreduceVariant::ShumilinRing, 32, large);
        let ring = makespan(MpiAllreduceVariant::Ring, 32, large);
        assert!(shumilin <= ring * 1.001, "Shumilin ({shumilin}) must not lose to the barrier ring ({ring})");
    }

    #[test]
    fn rabenseifner_moves_less_data_than_recursive_doubling() {
        let p = 16;
        let bytes = 1_000_000;
        let rd = MpiAllreduceVariant::RecursiveDoubling.schedule(p, bytes, 1).total_wire_bytes();
        let rab = MpiAllreduceVariant::Rabenseifner.schedule(p, bytes, 1).total_wire_bytes();
        assert!(rab < rd, "Rabenseifner ({rab} B) must move less than recursive doubling ({rd} B)");
    }

    #[test]
    fn hierarchical_variants_differ_from_flat_ones_when_nodes_share_ranks() {
        let p = 16;
        let ppn = 4;
        let bytes = 100_000;
        let flat_prog = MpiAllreduceVariant::ReduceBcast.schedule(p, bytes, 1);
        let hier_prog = MpiAllreduceVariant::TopoReduceBcast.schedule(p, bytes, ppn);
        validate(&hier_prog, p).unwrap();
        // Same total traffic (P-1 vectors each way) but a different structure:
        // the hierarchical variant funnels inter-node traffic through leaders.
        assert_ne!(flat_prog, hier_prog);
        let e = Engine::new(ClusterSpec::homogeneous(p / ppn, ppn), CostModel::skylake_fdr());
        assert!(e.makespan(&hier_prog).unwrap() > 0.0);
    }

    #[test]
    fn zero_byte_allreduce_records_an_empty_program() {
        for v in MpiAllreduceVariant::all() {
            for ppn in [1, 4] {
                let prog = v.schedule(8, 0, ppn);
                assert_eq!(prog.num_ranks(), 8);
                assert_eq!(prog.total_ops(), 0, "{v:?} at ppn={ppn}: empty ranges are skipped, barriers too");
            }
        }
    }

    #[test]
    fn every_variant_handles_two_ranks() {
        for v in MpiAllreduceVariant::all() {
            let prog = v.schedule(2, 1000, 1);
            validate(&prog, 2).unwrap();
            let t = Engine::new(ClusterSpec::homogeneous(2, 1), CostModel::test_model()).makespan(&prog).unwrap();
            assert!(t >= 0.0, "{v:?}");
        }
    }
}

//! Schedules for the twelve `MPI_Allreduce` algorithm variants the paper
//! compares against in Figures 11–12.
//!
//! The variant numbering and naming follows the caption of Figure 11:
//! `mpi1` recursive doubling, `mpi2` Rabenseifner, `mpi3` reduce + bcast,
//! `mpi4` topology-aware reduce + bcast, `mpi5` binomial gather + scatter,
//! `mpi6` topology-aware binomial gather + scatter, `mpi7` Shumilin's ring,
//! `mpi8` ring, `mpi9` knomial, `mpi10` topology-aware SHM-based flat,
//! `mpi11` topology-aware SHM-based knomial, `mpi12` topology-aware
//! SHM-based knary.

use ec_netsim::{Program, ProgramBuilder};

use super::bcast::subtree_bytes;
use super::trees::{binomial, flat, knary, knomial};
use crate::variants::prev_power_of_two;

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

    /// Build this variant's schedule for `ranks` ranks reducing `total_bytes`
    /// bytes, with `ranks_per_node` ranks sharing each node (used by the
    /// topology-aware variants).
    pub fn schedule(self, ranks: usize, total_bytes: u64, ranks_per_node: usize) -> Program {
        use MpiAllreduceVariant::*;
        let bytes = total_bytes.max(1);
        match self {
            RecursiveDoubling => recursive_doubling(ranks, bytes),
            Rabenseifner => rabenseifner(ranks, bytes),
            ReduceBcast => tree_reduce_bcast(ranks, bytes, binomial),
            TopoReduceBcast => hierarchical(ranks, bytes, ranks_per_node, |r, n| tree_reduce_bcast(r, n, binomial)),
            BinomialGatherScatter => gather_scatter(ranks, bytes),
            TopoGatherScatter => hierarchical(ranks, bytes, ranks_per_node, gather_scatter),
            ShumilinRing => ring(ranks, bytes, false),
            Ring => ring(ranks, bytes, true),
            Knomial => tree_reduce_bcast(ranks, bytes, |r, n| knomial(r, n, 4)),
            TopoShmFlat => hierarchical(ranks, bytes, ranks_per_node, |r, n| tree_reduce_bcast(r, n, flat)),
            TopoShmKnomial => {
                hierarchical(ranks, bytes, ranks_per_node, |r, n| tree_reduce_bcast(r, n, |a, b| knomial(a, b, 8)))
            }
            TopoShmKnary => {
                hierarchical(ranks, bytes, ranks_per_node, |r, n| tree_reduce_bcast(r, n, |a, b| knary(a, b, 3)))
            }
        }
    }
}

// ---------------------------------------------------------------------------
// building blocks
// ---------------------------------------------------------------------------

/// Fold ranks beyond the largest power of two into the lower ranks, run
/// `inner` over the power-of-two sub-world, then unfold the result.
fn power_of_two_wrapper(ranks: usize, bytes: u64, inner: impl Fn(&mut ProgramBuilder, usize, u64)) -> Program {
    let mut b = ProgramBuilder::new(ranks);
    if ranks == 0 {
        return b.build();
    }
    let p2 = prev_power_of_two(ranks);
    let extras = ranks - p2;
    // Pre-fold: ranks p2..ranks hand their contribution to ranks 0..extras.
    for i in 0..extras {
        let src = p2 + i;
        b.send(src, i, bytes, 90);
        b.recv(i, src, bytes, 90);
        b.reduce(i, bytes);
    }
    inner(&mut b, p2, bytes);
    // Post-fold: the folded ranks receive the final result.
    for i in 0..extras {
        let dst = p2 + i;
        b.send(i, dst, bytes, 91);
        b.recv(dst, i, bytes, 91);
    }
    b.build()
}

/// `mpi1`: recursive doubling — `log2(P)` full-vector exchanges.
fn recursive_doubling(ranks: usize, bytes: u64) -> Program {
    power_of_two_wrapper(ranks, bytes, |b, p2, bytes| {
        let mut step = 1usize;
        let mut tag = 0u32;
        while step < p2 {
            for rank in 0..p2 {
                let partner = rank ^ step;
                b.isend(rank, partner, bytes, tag);
                b.recv(rank, partner, bytes, tag);
                b.reduce(rank, bytes);
            }
            step <<= 1;
            tag += 1;
        }
        for rank in 0..p2 {
            b.wait_all_sends(rank);
        }
    })
}

/// `mpi2`: Rabenseifner — recursive-halving reduce-scatter followed by a
/// recursive-doubling allgather.
fn rabenseifner(ranks: usize, bytes: u64) -> Program {
    power_of_two_wrapper(ranks, bytes, |b, p2, bytes| {
        if p2 <= 1 {
            return;
        }
        let d = p2.trailing_zeros();
        // Reduce-scatter by recursive halving.
        for rank in 0..p2 {
            let mut window = bytes;
            for k in 0..d {
                let distance = p2 >> (k + 1);
                let partner = rank ^ distance;
                window = (window / 2).max(1);
                let tag = 10 + k;
                b.isend(rank, partner, window, tag);
                b.recv(rank, partner, window, tag);
                b.reduce(rank, window);
            }
            b.wait_all_sends(rank);
        }
        // Allgather by recursive doubling (windows grow back).
        for rank in 0..p2 {
            let mut window = (bytes / p2 as u64).max(1);
            for k in 0..d {
                let distance = 1usize << k;
                let partner = rank ^ distance;
                let tag = 30 + k;
                b.isend(rank, partner, window, tag);
                b.recv(rank, partner, window, tag);
                window *= 2;
            }
            b.wait_all_sends(rank);
        }
    })
}

/// Reduce to rank 0 over an arbitrary tree shape, then broadcast the result
/// back down the same tree (used for `mpi3`, `mpi9` and the SHM variants).
fn tree_reduce_bcast(ranks: usize, bytes: u64, shape: impl Fn(usize, usize) -> (Option<usize>, Vec<usize>)) -> Program {
    let mut b = ProgramBuilder::new(ranks);
    build_tree_reduce_bcast(&mut b, &(0..ranks).collect::<Vec<_>>(), bytes, &shape);
    b.build()
}

/// Shared helper: run a reduce + broadcast over the `members` ranks (indexed
/// positionally by the tree shape).
fn build_tree_reduce_bcast(
    b: &mut ProgramBuilder,
    members: &[usize],
    bytes: u64,
    shape: &impl Fn(usize, usize) -> (Option<usize>, Vec<usize>),
) {
    let m = members.len();
    if m <= 1 {
        return;
    }
    // Reduce phase (children -> parent).
    for (idx, &rank) in members.iter().enumerate() {
        let (parent, children) = shape(idx, m);
        for child in children.iter().rev() {
            b.recv(rank, members[*child], bytes, 60);
            b.reduce(rank, bytes);
        }
        if let Some(parent) = parent {
            b.send(rank, members[parent], bytes, 60);
        }
    }
    // Broadcast phase (parent -> children).
    for (idx, &rank) in members.iter().enumerate() {
        let (parent, children) = shape(idx, m);
        if let Some(parent) = parent {
            b.recv(rank, members[parent], bytes, 61);
        }
        for child in children {
            b.send(rank, members[child], bytes, 61);
        }
    }
}

/// `mpi5`: gather every rank's full vector to the root along a binomial tree
/// (messages grow with the subtree size), reduce at the root, broadcast back.
fn gather_scatter(ranks: usize, bytes: u64) -> Program {
    let mut b = ProgramBuilder::new(ranks);
    if ranks <= 1 {
        return b.build();
    }
    for rank in 0..ranks {
        let (parent, children) = binomial(rank, ranks);
        for child in children.iter().rev() {
            b.recv(rank, *child, subtree_bytes(*child, ranks, bytes), 70);
        }
        if let Some(parent) = parent {
            b.send(rank, parent, subtree_bytes(rank, ranks, bytes), 70);
        }
        if rank == 0 {
            // The root reduces the P-1 gathered vectors.
            b.reduce(rank, bytes * (ranks as u64 - 1));
        }
    }
    // Broadcast of the result.
    for rank in 0..ranks {
        let (parent, children) = binomial(rank, ranks);
        if let Some(parent) = parent {
            b.recv(rank, parent, bytes, 71);
        }
        for child in children {
            b.send(rank, child, bytes, 71);
        }
    }
    b.build()
}

/// `mpi7`/`mpi8`: ring allreduce (reduce-scatter + allgather).  The plain
/// `Ring` variant adds a barrier after each phase — the global
/// synchronization the paper's GASPI implementation eliminates.
fn ring(ranks: usize, bytes: u64, phase_barriers: bool) -> Program {
    let mut b = ProgramBuilder::new(ranks);
    if ranks <= 1 {
        return b.build();
    }
    let chunk = (bytes / ranks as u64).max(1);
    for rank in 0..ranks {
        let next = (rank + 1) % ranks;
        let prev = (rank + ranks - 1) % ranks;
        for step in 0..ranks - 1 {
            let tag = step as u32;
            b.isend(rank, next, chunk, tag);
            b.recv(rank, prev, chunk, tag);
            b.reduce(rank, chunk);
        }
        b.wait_all_sends(rank);
    }
    if phase_barriers {
        b.barrier_all();
    }
    for rank in 0..ranks {
        let next = (rank + 1) % ranks;
        let prev = (rank + ranks - 1) % ranks;
        for step in 0..ranks - 1 {
            let tag = 1000 + step as u32;
            b.isend(rank, next, chunk, tag);
            b.recv(rank, prev, chunk, tag);
        }
        b.wait_all_sends(rank);
    }
    if phase_barriers {
        b.barrier_all();
    }
    b.build()
}

/// Wrap an allreduce over the node leaders with an intra-node reduce before
/// and an intra-node broadcast after (the "topology aware" / SHM variants).
fn hierarchical(
    ranks: usize,
    bytes: u64,
    ranks_per_node: usize,
    leader_allreduce: impl Fn(usize, u64) -> Program,
) -> Program {
    let ppn = ranks_per_node.max(1);
    if ppn == 1 || !ranks.is_multiple_of(ppn) {
        // One rank per node (or irregular placement): nothing hierarchical
        // about it — run the leader algorithm over everyone.
        return leader_allreduce(ranks, bytes);
    }
    let nodes = ranks / ppn;
    // Phases 1 and 3: intra-node reduce to the node leader (first rank on
    // the node), and intra-node broadcast of the result.
    let mut reduce = ProgramBuilder::new(ranks);
    let mut bcast = ProgramBuilder::new(ranks);
    for leader in (0..nodes).map(|node| node * ppn) {
        for rank in leader + 1..leader + ppn {
            reduce.send(rank, leader, bytes, 80);
            reduce.recv(leader, rank, bytes, 80);
            reduce.reduce(leader, bytes);
            bcast.send(leader, rank, bytes, 81);
            bcast.recv(rank, leader, bytes, 81);
        }
    }
    // Phase 2: allreduce across the node leaders, its leader-world rank ids
    // remapped onto the real leader ranks.
    let mut leaders = Program::empty(ranks);
    for (node, rank_prog) in leader_allreduce(nodes, bytes).ranks.into_iter().enumerate() {
        leaders.ranks[node * ppn].ops = rank_prog.ops.into_iter().map(|op| remap_op(op, ppn)).collect();
    }
    let mut program = reduce.build();
    for phase in [leaders, bcast.build()] {
        for (rank_prog, next) in program.ranks.iter_mut().zip(phase.ranks) {
            rank_prog.ops.extend(next.ops);
        }
    }
    program
}

/// Remap rank references inside an op from leader-world ids to real ranks
/// (leader `n` is rank `n * ppn`).
fn remap_op(op: ec_netsim::Op, ppn: usize) -> ec_netsim::Op {
    use ec_netsim::Op::*;
    match op {
        PutNotify { dst, bytes, notify } => PutNotify { dst: dst * ppn, bytes, notify },
        Notify { dst, notify } => Notify { dst: dst * ppn, notify },
        Send { dst, bytes, tag } => Send { dst: dst * ppn, bytes, tag },
        Isend { dst, bytes, tag } => Isend { dst: dst * ppn, bytes, tag },
        Recv { src, bytes, tag } => Recv { src: src * ppn, bytes, tag },
        other => other,
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
    fn every_variant_handles_two_ranks() {
        for v in MpiAllreduceVariant::all() {
            let prog = v.schedule(2, 1000, 1);
            validate(&prog, 2).unwrap();
            let t = Engine::new(ClusterSpec::homogeneous(2, 1), CostModel::test_model()).makespan(&prog).unwrap();
            assert!(t >= 0.0, "{v:?}");
        }
    }
}

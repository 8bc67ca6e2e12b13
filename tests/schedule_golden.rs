//! Drift-proof equivalence tests for the recorder-derived schedules.
//!
//! The golden makespans below were captured from the hand-written seed
//! schedule generators **before** the collectives were single-sourced over
//! the `ec_comm::Transport` layer.  The recorder backend replaying the shared
//! algorithm bodies must validate and reproduce these numbers exactly; any
//! structural drift between the threaded implementations and the simulated
//! schedules shows up here as a changed makespan.
//!
//! The op-stream digests at the end pin every generator the
//! `lint-schedules` sweep covers (plus the single-source variant library)
//! op for op over that sweep's grid, so a refactor of the recorders or of a
//! generator cannot change a schedule without failing here.

// The golden literals are transcribed verbatim at full f64 round-trip
// precision (17 significant digits).
#![allow(clippy::excessive_precision)]

use ec_collectives_suite::baseline::{
    mpi_alltoall_pairwise_schedule, mpi_bcast_binomial_schedule, mpi_bcast_default_schedule,
    mpi_reduce_binomial_schedule, mpi_reduce_default_schedule, variants, MpiAllreduceVariant,
};
use ec_collectives_suite::collectives::schedule::{
    alltoall_direct_schedule, bcast_bst_schedule, hypercube_allreduce_schedule, reduce_bst_schedule,
    reduce_process_threshold_schedule, ring_allreduce_schedule, HypercubeAllreduceSource, RingAllreduceSource,
};
use ec_collectives_suite::netsim::{validate, ClusterSpec, CostModel, Engine, Op, Program, ProgramSource, Topology};

const BYTES: u64 = 8_000_000;
const BLOCK: u64 = 32 * 1024;

/// Relative tolerance: the engine is deterministic, so equality should be
/// exact; the epsilon only guards against benign float-summation noise.
const RTOL: f64 = 1e-12;

fn assert_golden(prog: &Program, p: usize, engine: &Engine, golden: f64, what: &str) {
    validate(prog, p).unwrap_or_else(|e| panic!("{what} p={p}: invalid program: {e}"));
    let got = if prog.total_ops() == 0 { 0.0 } else { engine.makespan(prog).unwrap() };
    let tol = golden.abs() * RTOL;
    assert!((got - golden).abs() <= tol, "{what} p={p}: makespan {got:e} drifted from golden {golden:e}");
}

/// Golden makespans on `homogeneous(p, 1)` nodes with the Skylake+FDR cost
/// model, in the order bcast(1.0), bcast(0.25), reduce(1.0), reduce(0.5),
/// reduce_proc(0.5), ring, hypercube, alltoall.
const GOLDEN: &[(usize, [f64; 8])] = &[
    (
        4,
        [
            2.67326666666666641e-3,
            6.73266666666666480e-4,
            4.95913095238095271e-3,
            2.48294047619047626e-3,
            2.48059047619047634e-3,
            2.87034285714285724e-3,
            4.95678095238095279e-3,
            1.85840000000000003e-5,
        ],
    ),
    (
        12,
        [
            5.34213333333333294e-3,
            1.34213333333333307e-3,
            9.91401190476190637e-3,
            4.96163095238095261e-3,
            7.43547142857142740e-3,
            3.54046523809523755e-3,
            0.0, // non-power-of-two: the hypercube program is empty
            6.22746666666666753e-5,
        ],
    ),
    (
        16,
        [
            5.34433333333333288e-3,
            1.34433333333333301e-3,
            9.91621190476190718e-3,
            4.96383095238095255e-3,
            7.43767142857142821e-3,
            3.63742857142856837e-3,
            9.91356190476190731e-3,
            8.41200000000000010e-5,
        ],
    ),
    (
        32,
        [
            6.67986666666666590e-3,
            1.67986666666666623e-3,
            1.23947523809523862e-2,
            6.20427619047619113e-3,
            9.91621190476190718e-3,
            3.82687619047619200e-3,
            1.23919523809523854e-2,
            1.71501333333333277e-4,
        ],
    ),
];

#[test]
fn recorded_schedules_reproduce_seed_makespans() {
    for &(p, golden) in GOLDEN {
        let e = Engine::new(ClusterSpec::homogeneous(p, 1), CostModel::skylake_fdr());
        let cases: [(&str, Program, f64); 8] = [
            ("bcast full", bcast_bst_schedule(p, BYTES, 1.0), golden[0]),
            ("bcast quarter", bcast_bst_schedule(p, BYTES, 0.25), golden[1]),
            ("reduce full", reduce_bst_schedule(p, BYTES, 1.0), golden[2]),
            ("reduce half", reduce_bst_schedule(p, BYTES, 0.5), golden[3]),
            ("reduce proc half", reduce_process_threshold_schedule(p, BYTES, 0.5), golden[4]),
            ("ring", ring_allreduce_schedule(p, BYTES), golden[5]),
            ("hypercube", hypercube_allreduce_schedule(p, BYTES), golden[6]),
            ("alltoall", alltoall_direct_schedule(p, BLOCK), golden[7]),
        ];
        for (what, prog, value) in &cases {
            assert_golden(prog, p, &e, *value, what);
        }
    }
}

/// Regression guard for the network-fabric integration: an engine routed
/// through `Engine::with_topology` with the degenerate
/// contention-free topology must reproduce every golden alpha–beta makespan
/// within 1e-9 relative — the fabric is strictly additive, never a
/// behavioral change for uncontended pricing.
#[test]
fn contention_free_fabric_reproduces_all_golden_makespans() {
    for &(p, golden) in GOLDEN {
        let e = Engine::new(ClusterSpec::homogeneous(p, 1), CostModel::skylake_fdr())
            .with_topology(Topology::contention_free(p));
        let cases: [(&str, Program, f64); 8] = [
            ("bcast full", bcast_bst_schedule(p, BYTES, 1.0), golden[0]),
            ("bcast quarter", bcast_bst_schedule(p, BYTES, 0.25), golden[1]),
            ("reduce full", reduce_bst_schedule(p, BYTES, 1.0), golden[2]),
            ("reduce half", reduce_bst_schedule(p, BYTES, 0.5), golden[3]),
            ("reduce proc half", reduce_process_threshold_schedule(p, BYTES, 0.5), golden[4]),
            ("ring", ring_allreduce_schedule(p, BYTES), golden[5]),
            ("hypercube", hypercube_allreduce_schedule(p, BYTES), golden[6]),
            ("alltoall", alltoall_direct_schedule(p, BLOCK), golden[7]),
        ];
        for (what, prog, value) in &cases {
            let got = if prog.total_ops() == 0 { 0.0 } else { e.makespan(prog).unwrap() };
            let tol = value.abs() * 1e-9;
            assert!(
                (got - value).abs() <= tol,
                "{what} p={p}: contention-free fabric makespan {got:e} drifted from golden {value:e}"
            );
        }
    }
}

#[test]
fn alltoall_with_four_ranks_per_node_reproduces_seed_makespans() {
    // Figure 13's cluster shape: four ranks share each node's NIC.
    for (p, golden) in [(16usize, 1.61738984126984036e-4), (32usize, 3.61467746031745305e-4)] {
        let e = Engine::new(ClusterSpec::homogeneous(p / 4, 4), CostModel::galileo_opa());
        assert_golden(&alltoall_direct_schedule(p, BLOCK), p, &e, golden, "alltoall ppn=4");
    }
}

#[test]
fn tiny_payloads_validate_in_every_recorded_schedule() {
    // Regression for payloads smaller than the rank count: empty ring chunks
    // must travel as payload-free notifications, never as zero-byte puts,
    // and every schedule must still validate and simulate.
    let p = 8;
    let e = Engine::new(ClusterSpec::homogeneous(p, 1), CostModel::skylake_fdr());
    for (what, prog) in [
        ("ring", ring_allreduce_schedule(p, 3)),
        ("bcast", bcast_bst_schedule(p, 3, 0.5)),
        ("reduce", reduce_bst_schedule(p, 3, 0.5)),
        ("alltoall", alltoall_direct_schedule(p, 1)),
        ("hypercube", hypercube_allreduce_schedule(p, 3)),
        ("hypercube empty", hypercube_allreduce_schedule(p, 0)),
    ] {
        validate(&prog, p).unwrap_or_else(|err| panic!("{what}: {err}"));
        assert!(e.makespan(&prog).unwrap() > 0.0, "{what} must simulate");
    }
}

// ---------------------------------------------------------------------------
// Op-stream digests over the `xtask lint-schedules` grid
// ---------------------------------------------------------------------------

/// Rank counts, payload sizes and thresholds of the `lint-schedules` sweep.
const LINT_RANKS: [usize; 9] = [2, 3, 4, 6, 8, 13, 16, 64, 256];
const LINT_BYTES: [u64; 3] = [3, 4096, 1 << 20];
const LINT_THRESHOLDS: [f64; 2] = [0.3, 1.0];

/// Fold `words` into `h`, one SplitMix64 finalizer step each.
fn fold(h: &mut u64, words: impl IntoIterator<Item = u64>) {
    for word in words {
        let mut z = (*h ^ word).wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        *h = z ^ (z >> 31);
    }
}

/// Fold every rank's op stream of `source` into `h`: the rank count, then
/// per rank its length and each op's variant and fields in order.
fn fold_program(h: &mut u64, source: &impl ProgramSource) {
    fold(h, [source.num_ranks() as u64]);
    let mut ops = Vec::new();
    for rank in 0..source.num_ranks() {
        ops.clear();
        source.rank_ops(rank, &mut ops);
        fold(h, [ops.len() as u64]);
        for op in &ops {
            match op {
                Op::Compute { seconds } => fold(h, [0, seconds.to_bits()]),
                Op::Reduce { bytes } => fold(h, [1, *bytes]),
                Op::Copy { bytes } => fold(h, [2, *bytes]),
                Op::PutNotify { dst, bytes, notify } => fold(h, [3, *dst as u64, *bytes, u64::from(*notify)]),
                Op::Notify { dst, notify } => fold(h, [4, *dst as u64, u64::from(*notify)]),
                Op::WaitNotify { ids } => {
                    fold(h, [5, ids.len() as u64].into_iter().chain(ids.iter().map(|&id| id.into())));
                }
                Op::WaitNotifyAny { ids, count } => {
                    fold(h, [6, *count as u64, ids.len() as u64].into_iter().chain(ids.iter().map(|&id| id.into())));
                }
                Op::Send { dst, bytes, tag } => fold(h, [7, *dst as u64, *bytes, u64::from(*tag)]),
                Op::Isend { dst, bytes, tag } => fold(h, [8, *dst as u64, *bytes, u64::from(*tag)]),
                Op::Recv { src, bytes, tag } => fold(h, [9, *src as u64, *bytes, u64::from(*tag)]),
                Op::WaitAllSends => fold(h, [10]),
                Op::Barrier => fold(h, [11]),
            }
        }
    }
}

/// Digest of one generator's programs over every `(p, bytes)` cell of the
/// lint grid, in grid order.
fn grid_digest<S: ProgramSource>(generate: impl Fn(usize, u64) -> S) -> u64 {
    let mut h = 0;
    for p in LINT_RANKS {
        for bytes in LINT_BYTES {
            fold_program(&mut h, &generate(p, bytes));
        }
    }
    h
}

/// Digest of a thresholded generator over the lint grid × thresholds.
fn threshold_digest(generate: impl Fn(usize, u64, f64) -> Program) -> u64 {
    let mut h = 0;
    for p in LINT_RANKS {
        for bytes in LINT_BYTES {
            for thr in LINT_THRESHOLDS {
                fold_program(&mut h, &generate(p, bytes, thr));
            }
        }
    }
    h
}

/// Compare computed digests against `golden`, reporting every mismatch at
/// once (in a form that can be pasted back into the table).
fn assert_digests(computed: &[(&str, u64)], golden: &[(&str, u64)]) {
    let report: Vec<String> = computed.iter().map(|(name, d)| format!("(\"{name}\", {d:#018x}),")).collect();
    assert_eq!(computed.len(), golden.len(), "generator lists differ:\n{}", report.join("\n"));
    let drifted: Vec<&str> = computed.iter().zip(golden).filter(|(c, g)| c != g).map(|((name, _), _)| *name).collect();
    assert!(drifted.is_empty(), "op streams drifted for {drifted:?}; computed:\n{}", report.join("\n"));
}

/// Op-stream digests of the one-sided GASPI generators, read at the commit
/// before the recorders were unified.
const GASPI_DIGESTS: &[(&str, u64)] = &[
    ("ring_allreduce_schedule", 0x76043f38e036e15e),
    ("hypercube_allreduce_schedule", 0x4ef1cf3306b5390c),
    ("alltoall_direct_schedule", 0xeb422fa53fc9c63d),
    ("RingAllreduceSource", 0x76043f38e036e15e),
    ("HypercubeAllreduceSource", 0x4ef1cf3306b5390c),
    ("bcast_bst_schedule", 0x36cdcd77a7afbd7f),
    ("reduce_bst_schedule", 0xfb7ff13aca68128c),
    ("reduce_process_threshold_schedule", 0x076eb0126cbcbcfb),
];

/// Op-stream digests of the two-sided MPI generators (the vendor schedules,
/// the twelve allreduce variants at one and four ranks per node, and the
/// single-source variant library), read at the same commit.  The `mpi2`,
/// `mpi7` and `mpi8` rows were re-read when those variants became the
/// single-source Rabenseifner and ring bodies, which no longer price the
/// one-byte windows and chunks of a payload smaller than the world, nor drop
/// the remainder of a payload the rank count does not divide.  The
/// `mpi_bcast_default_schedule` row was re-read when its large-payload
/// branch became the single-source van de Geijn body, for the same
/// remainder; the `mpi_reduce_default_schedule` row when its large-payload
/// branch became the single-source Rabenseifner reduce, which gathers the
/// smallest pieces first and runs at any rank count; the
/// `mpi_alltoall_pairwise_schedule` row when it became the single-source
/// pairwise body: it now reads the digest of the `variants` twin that
/// recorded the same body and was deleted as a duplicate.
const MPI_DIGESTS: &[(&str, u64)] = &[
    ("mpi_reduce_binomial_schedule", 0x234d5076d317c8fe),
    ("mpi_reduce_default_schedule", 0xde1393c22e9185c0),
    ("mpi_bcast_binomial_schedule", 0xb7b09f8a910d1007),
    ("mpi_bcast_default_schedule", 0xed122bb8a76fe7c2),
    ("mpi_alltoall_pairwise_schedule", 0xd8cb84139493f9ba),
    ("bruck_alltoall_schedule", 0x3f774df01f914c74),
    ("scatter_allgather_bcast_schedule", 0x0cc00a98034181ce),
    ("pipelined_binomial_bcast_schedule", 0x2f24e52301dcfb7a),
    ("rsg_reduce_schedule", 0x5b2e3f0ead5effb7),
    ("mpi1-recursive-doubling", 0x8b057fed0050cd38),
    ("mpi2-rabenseifner", 0xadf7ad078d4f22bf),
    ("mpi3-reduce-bcast", 0x8b65f3de42ae1e2b),
    ("mpi4-topo-reduce-bcast", 0x646c154ade5b3556),
    ("mpi5-binomial-gather-scatter", 0x7d5a6a520b4b3296),
    ("mpi6-topo-gather-scatter", 0x7808820b53d255a3),
    ("mpi7-shumilin-ring", 0x4459be7fea845eae),
    ("mpi8-ring", 0x0ee752c2dd738711),
    ("mpi9-knomial", 0x580fcf135af3c2d7),
    ("mpi10-shm-flat", 0xedcc36bd92c56e68),
    ("mpi11-shm-knomial", 0x7f616efa1bc3faa9),
    ("mpi12-shm-knary", 0x5096fde92d7c6650),
];

#[test]
fn gaspi_generators_reproduce_their_op_stream_digests() {
    let computed = [
        ("ring_allreduce_schedule", grid_digest(ring_allreduce_schedule)),
        ("hypercube_allreduce_schedule", grid_digest(hypercube_allreduce_schedule)),
        ("alltoall_direct_schedule", grid_digest(alltoall_direct_schedule)),
        ("RingAllreduceSource", grid_digest(RingAllreduceSource::new)),
        ("HypercubeAllreduceSource", grid_digest(HypercubeAllreduceSource::new)),
        ("bcast_bst_schedule", threshold_digest(bcast_bst_schedule)),
        ("reduce_bst_schedule", threshold_digest(reduce_bst_schedule)),
        ("reduce_process_threshold_schedule", threshold_digest(reduce_process_threshold_schedule)),
    ];
    assert_digests(&computed, GASPI_DIGESTS);
}

#[test]
fn mpi_generators_reproduce_their_op_stream_digests() {
    let mut computed = vec![
        ("mpi_reduce_binomial_schedule", grid_digest(mpi_reduce_binomial_schedule)),
        ("mpi_reduce_default_schedule", grid_digest(mpi_reduce_default_schedule)),
        ("mpi_bcast_binomial_schedule", grid_digest(mpi_bcast_binomial_schedule)),
        ("mpi_bcast_default_schedule", grid_digest(mpi_bcast_default_schedule)),
        ("mpi_alltoall_pairwise_schedule", grid_digest(mpi_alltoall_pairwise_schedule)),
        ("bruck_alltoall_schedule", grid_digest(variants::bruck_alltoall_schedule)),
        ("scatter_allgather_bcast_schedule", grid_digest(variants::scatter_allgather_bcast_schedule)),
        (
            "pipelined_binomial_bcast_schedule",
            grid_digest(|p, bytes| variants::pipelined_binomial_bcast_schedule(p, bytes, 16 * 1024)),
        ),
        ("rsg_reduce_schedule", grid_digest(variants::rsg_reduce_schedule)),
    ];
    for variant in MpiAllreduceVariant::all() {
        let mut h = 0;
        for p in LINT_RANKS {
            for bytes in LINT_BYTES {
                for ppn in [1usize, 4].into_iter().filter(|ppn| p % ppn == 0) {
                    fold_program(&mut h, &variant.schedule(p, bytes, ppn));
                }
            }
        }
        computed.push((variant.label(), h));
    }
    assert_digests(&computed, MPI_DIGESTS);
}

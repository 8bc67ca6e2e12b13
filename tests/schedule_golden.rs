//! Drift-proof equivalence tests for the recorder-derived schedules.
//!
//! The golden makespans below were captured from the hand-written seed
//! schedule generators **before** the collectives were single-sourced over
//! the `ec_comm::Transport` layer.  The recorder backend replaying the shared
//! algorithm bodies must validate and reproduce these numbers exactly; any
//! structural drift between the threaded implementations and the simulated
//! schedules shows up here as a changed makespan.

// The golden literals are transcribed verbatim at full f64 round-trip
// precision (17 significant digits).
#![allow(clippy::excessive_precision)]

use ec_collectives_suite::collectives::schedule::{
    alltoall_direct_schedule, bcast_bst_schedule, hypercube_allreduce_schedule, reduce_bst_schedule,
    reduce_process_threshold_schedule, ring_allreduce_schedule,
};
use ec_collectives_suite::netsim::{validate, ClusterSpec, CostModel, Engine, Program, Topology};

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

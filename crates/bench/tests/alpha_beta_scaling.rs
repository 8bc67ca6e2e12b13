//! Metamorphic test of the alpha–beta model: scaling every time-valued
//! `CostModel` field and every `Compute` duration by 2^k scales every
//! rank's finish and wait time, and the makespan, bit-exactly.
//!
//! A multiplication by a power of two is exact in binary floating point
//! (away from overflow and subnormals) and commutes with every sum,
//! difference, comparison and dimensionless factor the engine applies.  A
//! disagreement therefore names a rule that depends on the unit of time.
//! Each program is run on the execution path it ships on: the ring on the
//! dataflow burst path, the SSP cube on the strict event loop, the
//! two-sided baselines on the strict loop's matching, eager and rendezvous.

use ec_baseline::MpiAllreduceVariant;
use ec_bench::ssp_scale::{fig14_scenario, ssp_scale_program, SspScaleConfig};
use ec_collectives::schedule::ring_allreduce_schedule;
use ec_netsim::{ClusterSpec, CostModel, Engine, Op, Program, Protocol, RunReport};

/// The exponents `k` of the scale factors 2^k.
const EXPONENTS: [i32; 2] = [-3, 5];

/// `cost` with every field in seconds or seconds per byte times `s`.
fn scaled_cost(cost: &CostModel, s: f64) -> CostModel {
    CostModel {
        alpha_inter: cost.alpha_inter * s,
        beta_inter: cost.beta_inter * s,
        alpha_intra: cost.alpha_intra * s,
        beta_intra: cost.beta_intra * s,
        o_send: cost.o_send * s,
        o_recv: cost.o_recv * s,
        notify_overhead: cost.notify_overhead * s,
        rendezvous_latency: cost.rendezvous_latency * s,
        gamma_reduce: cost.gamma_reduce * s,
        mem_copy_beta: cost.mem_copy_beta * s,
        sync_round_overhead: cost.sync_round_overhead * s,
        ..cost.clone()
    }
}

/// `program` with every `Compute` duration times `s`.
fn scaled_program(program: &Program, s: f64) -> Program {
    let mut program = program.clone();
    for op in program.ranks.iter_mut().flat_map(|r| r.ops.iter_mut()) {
        if let Op::Compute { seconds } = op {
            *seconds *= s;
        }
    }
    program
}

/// Run `program` on `engine(cost)` at `cost` and at every scaled cost, and
/// assert that every timestamp scales bit-exactly.  Returns the unscaled
/// report.
fn assert_scales(name: &str, cost: &CostModel, engine: impl Fn(CostModel) -> Engine, program: &Program) -> RunReport {
    let base = engine(cost.clone()).run(program).unwrap_or_else(|e| panic!("{name}: {e}"));
    for k in EXPONENTS {
        let s = 2f64.powi(k);
        let scaled = engine(scaled_cost(cost, s)).run(&scaled_program(program, s)).unwrap();
        let bits = |x: f64| x.to_bits();
        assert_eq!(bits(scaled.makespan()), bits(base.makespan() * s), "{name}, 2^{k}: makespan");
        for (r, (a, b)) in base.ranks.iter().zip(&scaled.ranks).enumerate() {
            assert_eq!(bits(b.finish_time), bits(a.finish_time * s), "{name}, 2^{k}: rank {r} finish_time");
            assert_eq!(bits(b.wait_time), bits(a.wait_time * s), "{name}, 2^{k}: rank {r} wait_time");
        }
    }
    base
}

#[test]
fn burst_path_ring_scales_exactly() {
    let cost = CostModel::skylake_fdr();
    let engine = |cost| Engine::new(ClusterSpec::homogeneous(64, 1), cost);
    let r = assert_scales("ring", &cost, engine, &ring_allreduce_schedule(64, 1 << 20));
    assert!(r.metrics.dataflow_burst_ops > 0, "the ring runs on the burst path");
}

#[test]
fn strict_loop_ssp_cube_scales_exactly() {
    let cfg = SspScaleConfig { iterations: 8, ..SspScaleConfig::new(256, 2) };
    let cost = CostModel::marenostrum4_opa();
    let engine = |cost| Engine::new(ClusterSpec::homogeneous(256, 1), cost).with_scenario(fig14_scenario(cfg.seed));
    let r = assert_scales("ssp cube", &cost, engine, &ssp_scale_program(&cfg));
    assert_eq!(r.metrics.dataflow_burst_ops, 0, "the multi-writer cube runs on the strict loop");
    assert!(r.total_wait_time() > 0.0, "the cube waits, so wait times are compared");
}

#[test]
fn two_sided_baselines_scale_exactly_on_both_sides_of_the_eager_threshold() {
    let cost = CostModel::skylake_fdr();
    let (ranks, ppn) = (16, 2);
    let engine = |cost| Engine::new(ClusterSpec::homogeneous(ranks / ppn, ppn), cost);
    // Every message of the small allreduce is eager; the large one's whole
    // vector (recursive doubling) and blocks (the rings) are rendezvous.
    let small = 512;
    let large = 4 << 20;
    assert_eq!(cost.protocol_for(small), Protocol::Eager);
    assert_eq!(cost.protocol_for(large / ranks as u64), Protocol::Rendezvous);
    for bytes in [small, large] {
        for v in MpiAllreduceVariant::all() {
            assert_scales(&format!("{} at {bytes} B", v.label()), &cost, engine, &v.schedule(ranks, bytes, ppn));
        }
    }
}

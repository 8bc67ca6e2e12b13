//! Figure 14 (new experiment, beyond the paper): SSP slack sweep at scale on
//! a heterogeneous simulated cluster.
//!
//! The paper's Figures 6–7 stop at 32 threaded workers.  This binary uses the
//! discrete-event engine to extend the staleness story to 128–1024 simulated
//! workers: for every worker count it sweeps the SSP slack from 0 to 8 over a
//! hypercube exchange program with injected straggler hiccups (deterministic,
//! per-rank seeded) on a cluster with persistent node-speed spread, slow
//! nodes and link jitter (see `ec_bench::ssp_scale` and
//! `ec_netsim::Scenario`).
//!
//! The output is fully deterministic: the same seed produces byte-identical
//! tables.  Pass `--smoke` for a CI-sized run (128 workers, few iterations).
//!
//! Sizes: seed 42, 24 iterations (`--smoke`: 6), 32 KiB per partner, 200 us
//! nominal compute.
//!
//! Environment overrides: `FIG14_WORKERS` (comma list, default
//! `128,256,512,1024`, smoke `128`) and `FIG14_MAX_SLACK` (8).  CI runs
//! `FIG14_WORKERS=65536 FIG14_MAX_SLACK=2` with `--smoke` and pins its
//! fingerprint.

use ec_bench::ssp_scale::{fig14_scenario, ssp_scale_program, SspScaleConfig};
use ec_bench::{env_usize, env_usize_list, Series};
use ec_netsim::{ClusterSpec, CostModel, Engine, RunReport};

/// Nominal compute per iteration: 200 us as `200.0 * 1e-6`, one ulp below
/// `200e-6` (the `SspScaleConfig` default); the pinned fingerprints depend
/// on that ulp.
const COMPUTE: f64 = 200.0 * 1e-6;

/// The sweep's program configuration for `workers` at `slack`.
fn config(workers: usize, slack: usize, iters: usize) -> SspScaleConfig {
    SspScaleConfig { iterations: iters, compute: COMPUTE, ..SspScaleConfig::new(workers, slack) }
}

fn run_one(workers: usize, slack: usize, iters: usize) -> RunReport {
    let cfg = config(workers, slack, iters);
    let engine = Engine::new(ClusterSpec::homogeneous(workers, 1), CostModel::marenostrum4_opa())
        .with_scenario(fig14_scenario(cfg.seed));
    engine.run(&ssp_scale_program(&cfg)).expect("fig14 program must simulate")
}

fn main() {
    ec_bench::check_args();
    let smoke = ec_bench::smoke_flag();
    let iters = if smoke { 6 } else { 24 };
    let max_slack = env_usize("FIG14_MAX_SLACK", 8);
    let slacks = 0..=max_slack;
    let worker_counts = env_usize_list("FIG14_WORKERS", if smoke { &[128] } else { &[128, 256, 512, 1024] });
    let max_workers = *worker_counts.iter().max().expect("non-empty worker list");
    let stats_cfg = config(max_workers, max_slack, iters);

    println!("# Figure 14 — SSP slack sweep at scale (simulated, heterogeneous cluster)");
    println!(
        "# seed {}, {iters} iterations, {} KiB per partner, {:.0} us nominal compute, slack {}..={}",
        stats_cfg.seed,
        stats_cfg.bytes / 1024,
        COMPUTE * 1e6,
        slacks.start(),
        slacks.end()
    );
    println!("# scenario: 10% node speed spread, 2% slow nodes (1.5x), 10% link jitter, 5% hiccup iterations (6x)\n");

    // A rank waits only from iteration `slack` on, so the memory lines
    // describe a slack below the iteration count: a program that waits.
    let memory_cfg = config(max_workers, max_slack.min(iters - 1), iters);
    ec_bench::print_smoke_memory_stats(smoke, "ssp-scale", &ssp_scale_program(&memory_cfg));

    let mut digest = 0u64;
    for &workers in &worker_counts {
        let mut series = Series::new(format!("p={workers}"));
        println!("## {workers} workers");
        println!(
            "{:>6} {:>14} {:>14} {:>10} {:>12} {:>12}",
            "slack", "makespan [s]", "mean wait [s]", "speedup", "consumed", "received"
        );
        let mut baseline = f64::NAN;
        // The compute scales are slack-independent, so the slack-0 run
        // doubles as the straggler report.
        let mut worst_scale = f64::NAN;
        for slack in slacks.clone() {
            let r = run_one(workers, slack, iters);
            let makespan = r.makespan();
            if slack == 0 {
                baseline = makespan;
                worst_scale = r.max_compute_scale();
            }
            series.push(slack as f64, makespan);
            println!(
                "{:>6} {:>14.6} {:>14.6} {:>9.2}x {:>12} {:>12}",
                slack,
                makespan,
                r.mean_wait_time(),
                baseline / makespan,
                r.total_notifications_consumed(),
                r.total_notifications_received()
            );
            // Fold the *full* report digest, not just the makespan: the CI
            // smoke job pins this value, so every per-rank statistic is
            // covered.
            digest = ec_netsim::SplitMix64::mix(digest ^ r.fingerprint());
        }
        let top = *slacks.end() as f64;
        println!(
            "   worst straggler scale {worst_scale:.2}x; slack {top} recovers {:.1}% of the synchronous makespan\n",
            (1.0 - series.y_at(top).unwrap_or(f64::NAN) / baseline) * 100.0
        );
    }

    // A short fingerprint so determinism regressions are trivially visible in
    // CI logs: same seed, same fingerprint.
    println!("## determinism fingerprint: {digest:016x}");
    println!("(the paper's Figures 6-7 stop at 32 threaded workers; these runs are simulated)");

    // Representative observability run (`--metrics` / `--trace-out`): the
    // max-slack hypercube exchange at the largest worker count, on the same
    // heterogeneous scenario as the sweep.
    let obs = ec_bench::Observability::from_args().with_default_window(0, 63);
    if obs.active() {
        let engine = obs.instrument(
            Engine::new(ClusterSpec::homogeneous(max_workers, 1), CostModel::marenostrum4_opa())
                .with_scenario(fig14_scenario(stats_cfg.seed)),
        );
        let report = engine.run(&ssp_scale_program(&stats_cfg)).expect("fig14 observability run");
        obs.emit("ssp-scale", &report);
    }
}

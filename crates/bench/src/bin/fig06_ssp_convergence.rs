//! Figure 6: impact of `allreduce_ssp` on the convergence speed of matrix
//! factorization trained with SGD (error vs. time on the left, iterations
//! vs. time on the right), for slack values 0, 2, 32 and 64.
//!
//! The paper runs 32 workers on MareNostrum4 with the MovieLens 25M dataset;
//! here the workers are threads over a synthetic MovieLens-like dataset with
//! injected compute jitter and a straggler rank (see DESIGN.md for the
//! substitution rationale).  Every slack value runs the same number of
//! iterations; the analysis then reports, per slack, how many iterations and
//! how much wall-clock time were needed to reach the error that the fully
//! synchronous run (slack = 0) reaches at the end of its execution —
//! mirroring the paper's methodology.
//!
//! Sizes: 8 workers, 200 iterations, 2 000 users x 800 items, 60 000
//! ratings (`--smoke`: 4 workers, 20 iterations, 400 x 160, 8 000 ratings);
//! rank 0 straggles 4 ms per iteration, compute jitter 25 %.
//!
//! Environment override: `FIG06_RANKS` (the paper uses 32 workers; keep it
//! at or below the host's core count, one thread runs per rank).

use std::time::Duration;

use ec_bench::{env_usize, smoke_default};
use ec_collectives::schedule::hypercube_allreduce_schedule;
use ec_gaspi::{GaspiConfig, Job, NetworkProfile};
use ec_mlapp::{DatasetConfig, RatingsDataset, SgdConfig, Trainer, TrainerConfig};

struct SlackRun {
    slack: u64,
    /// Per iteration: (mean elapsed seconds, mean local RMSE).
    curve: Vec<(f64, f64)>,
    total_time: f64,
}

/// The straggler rank's extra delay per iteration.
const STRAGGLER: Duration = Duration::from_millis(4);
/// Relative compute jitter of every rank.
const JITTER: f64 = 0.25;

fn run_slack(dataset: &RatingsDataset, ranks: usize, iterations: usize, slack: u64) -> SlackRun {
    let config = TrainerConfig {
        rank: 8,
        sgd: SgdConfig { learning_rate: 0.01, regularization: 0.02, sample_fraction: 1.0 },
        slack,
        iterations,
        seed: 42,
        compute_jitter: JITTER,
        straggler_ranks: vec![0],
        straggler_delay: STRAGGLER,
        target_rmse: None,
    };
    let dataset = dataset.clone();
    let reports = Job::new(GaspiConfig::new(ranks).with_network(NetworkProfile::lan()))
        .run(move |ctx| {
            let part = dataset.partition(ctx.rank(), ctx.num_ranks());
            Trainer::new(dataset.num_users, dataset.num_items, part, config.clone()).train(ctx).expect("training run")
        })
        .expect("job");

    let mut curve = Vec::with_capacity(iterations);
    for it in 0..iterations {
        let mut elapsed = 0.0;
        let mut rmse = 0.0;
        for r in &reports {
            elapsed += r.iterations[it].elapsed.as_secs_f64();
            rmse += r.iterations[it].local_rmse;
        }
        curve.push((elapsed / ranks as f64, rmse / ranks as f64));
    }
    let total_time = reports.iter().map(|r| r.total_time.as_secs_f64()).fold(0.0, f64::max);
    SlackRun { slack, curve, total_time }
}

fn main() {
    ec_bench::check_args();
    let smoke = ec_bench::smoke_flag();
    let ranks = env_usize("FIG06_RANKS", smoke_default(smoke, 8, 4));
    let iterations = smoke_default(smoke, 200, 20);
    let dataset_cfg = DatasetConfig {
        num_users: smoke_default(smoke, 2_000, 400),
        num_items: smoke_default(smoke, 800, 160),
        num_ratings: smoke_default(smoke, 60_000, 8_000),
        true_rank: 8,
        noise: 0.1,
        seed: 42,
    };
    let dataset = RatingsDataset::generate(&dataset_cfg);
    let slacks = [0u64, 2, 32, 64];

    println!("# Figure 6 — allreduce_ssp impact on SGD matrix-factorization convergence");
    println!(
        "# {ranks} workers, {iterations} iterations, {} users x {} items, {} ratings\n",
        dataset_cfg.num_users, dataset_cfg.num_items, dataset_cfg.num_ratings
    );
    // The figure itself runs the threaded runtime; the footprint line uses
    // the simulator twin of the trainer's model exchange.
    let model_bytes = ((dataset_cfg.num_users + dataset_cfg.num_items) * dataset_cfg.true_rank * 8) as u64;
    ec_bench::print_smoke_memory_stats(smoke, "ssp-hypercube", &hypercube_allreduce_schedule(ranks, model_bytes));

    let runs: Vec<SlackRun> = slacks.iter().map(|&s| run_slack(&dataset, ranks, iterations, s)).collect();

    // Left + right plots: per slack, the (time, error) and (time, iteration) curves.
    for run in &runs {
        println!("## slack = {}", run.slack);
        println!("{:>10} {:>14} {:>14}", "iteration", "time [s]", "mean RMSE");
        for (it, (t, rmse)) in run.curve.iter().enumerate() {
            println!("{:>10} {:>14.4} {:>14.6}", it + 1, t, rmse);
        }
        println!();
    }

    // Paper-style summary: iterations and time needed to reach the error the
    // synchronous run reaches at the end (within 1%, to absorb the noise the
    // bounded staleness introduces into the plateau).
    let target = runs[0].curve.last().expect("non-empty curve").1 * 1.01;
    let baseline_time = runs[0].total_time;
    println!("## Summary (target error = {target:.6}, reached by slack=0 after {iterations} iterations)");
    println!("{:>8} {:>14} {:>16} {:>14} {:>12}", "slack", "iterations", "extra iters", "time [s]", "speedup");
    for run in &runs {
        let reached = run.curve.iter().position(|&(_, e)| e <= target);
        match reached {
            Some(idx) => {
                let time = run.curve[idx].0;
                let gain = (baseline_time - time) / baseline_time * 100.0;
                println!(
                    "{:>8} {:>14} {:>16} {:>14.4} {:>11.1}%",
                    run.slack,
                    idx + 1,
                    (idx + 1) as i64 - iterations as i64,
                    time,
                    gain
                );
            }
            None => println!("{:>8} {:>14} {:>16} {:>14} {:>12}", run.slack, "not reached", "-", "-", "-"),
        }
    }
    println!("\n(paper: slack=2 was 6% faster, slack=32 12.3% faster, slack=64 19% faster than slack=0)");
}

//! Figure 17 (new experiment, beyond the paper): million-rank simulations on
//! the compressed SPMD program representation.
//!
//! The earlier scale experiment (fig14) stops at 65536 simulated workers
//! because a materialized `Program` costs `O(p * ops_per_rank)` memory.
//! This binary drives the engine at `p = 2^20` through
//! [`ec_netsim::ProgramSource`] generators whose compiled form interns the
//! (identical) per-rank op streams into a handful of shared arena segments:
//!
//! * a **windowed ring allreduce** (single-writer, one-sided) that runs on
//!   the dataflow fast path — the throughput workload;
//! * a **uniform SSP hypercube exchange** (multi-writer) that exercises the
//!   strict event-loop engine at the same scale.
//!
//! Reports are folded online (`ReportDetail::Summary`), so neither the
//! program nor the report ever materializes per-rank state.  The binary
//! prints throughput and peak RSS and asserts a hard peak-RSS budget: 8 GiB,
//! or 200 MiB under `--smoke` (about twice the smoke run's ≈ 100 MiB peak,
//! so a regression of the queue, the strict loop's 24-byte events or the
//! compressed program fails the CI smoke run long before 8 GiB would
//! notice).
//!
//! The output is fully deterministic: same parameters, same fingerprint.
//! Pass `--smoke` for a CI-sized run (`p = 2^17`).
//!
//! Sizes: p = 2^20 (`--smoke`: 2^17), a ring window of 8 rounds x 32 KiB,
//! SSP 2 iterations at slack 1, seed 42.

use std::time::Instant;

use ec_bench::million::{peak_rss_bytes, UniformSspSource, WindowedRingSource};
use ec_bench::ssp_scale::fig14_scenario;
use ec_netsim::{ClusterSpec, CompiledProgram, CostModel, Engine, ProgramSource, ReportDetail, RunReport, SplitMix64};

struct Measured {
    total_ops: u64,
    compile_secs: f64,
    run_secs: f64,
    report: RunReport,
}

/// Ring rounds of the windowed ring.
const ROUNDS: usize = 8;
/// Chunk bytes of both programs.
const CHUNK: u64 = 32 * 1024;
/// Iterations of the SSP hypercube exchange.
const SSP_ITERS: usize = 2;
/// Slack of the SSP hypercube exchange.
const SSP_SLACK: usize = 1;
/// Seed of the heterogeneity scenario.
const SEED: u64 = 42;

fn measure<S: ProgramSource>(source: &S, ranks: usize) -> Measured {
    let t = Instant::now();
    let compiled = CompiledProgram::from_source(source).expect("fig17 program must validate");
    let compile_secs = t.elapsed().as_secs_f64();
    println!("   compiled in {compile_secs:.3} s: {}", compiled.memory_stats());
    // The fig14 heterogeneity scenario lives in the engine, not the program,
    // so it de-synchronizes the uniform SPMD streams (which keeps the event
    // calendar balanced) without breaking the arena's rank interning.
    let engine = Engine::new(ClusterSpec::homogeneous(ranks, 1), CostModel::marenostrum4_opa())
        .with_scenario(fig14_scenario(SEED))
        .with_report_detail(ReportDetail::Summary);
    let t = Instant::now();
    let report = engine.run_compiled(&compiled).expect("fig17 program must simulate");
    let run_secs = t.elapsed().as_secs_f64();
    Measured { total_ops: compiled.total_ops(), compile_secs, run_secs, report }
}

fn print_row(label: &str, m: &Measured) {
    println!(
        "{label:>10} {:>12} {:>12.3} {:>12.3} {:>14.0} {:>14.6} {:>18x}",
        m.total_ops,
        m.compile_secs,
        m.run_secs,
        m.total_ops as f64 / m.run_secs,
        m.report.makespan(),
        m.report.fingerprint()
    );
}

fn main() {
    ec_bench::check_args();
    let smoke = ec_bench::smoke_flag();
    let ranks = if smoke { 1 << 17 } else { 1 << 20 };
    let rss_budget: u64 = if smoke { 200 << 20 } else { 8 << 30 };

    println!("# Figure 17 — million-rank simulations on the compressed program representation");
    println!(
        "# p = {ranks}, ring window {ROUNDS} rounds x {} KiB, SSP {SSP_ITERS} iteration(s) slack {SSP_SLACK}, \
         RSS budget {:.1} GiB\n",
        CHUNK / 1024,
        rss_budget as f64 / (1u64 << 30) as f64
    );
    println!(
        "{:>10} {:>12} {:>12} {:>12} {:>14} {:>14} {:>18}",
        "program", "ops", "compile [s]", "run [s]", "ops/s", "makespan [s]", "fingerprint"
    );

    let ring = measure(&WindowedRingSource::new(ranks, ROUNDS, CHUNK), ranks);
    print_row("ring", &ring);

    let ssp = measure(&UniformSspSource::new(ranks, SSP_SLACK, SSP_ITERS, CHUNK, 200e-6), ranks);
    print_row("ssp-cube", &ssp);

    let mut digest = SplitMix64::mix(ring.report.fingerprint());
    digest = SplitMix64::mix(digest ^ ssp.report.fingerprint());

    match peak_rss_bytes() {
        Some(rss) => {
            println!("\npeak RSS: {:.2} GiB ({rss} bytes)", rss as f64 / (1u64 << 30) as f64);
            assert!(
                rss <= rss_budget,
                "peak RSS {rss} exceeds the {rss_budget}-byte budget — the compressed representation leaked scale"
            );
        }
        None => println!("\npeak RSS: unavailable (no procfs)"),
    }

    println!("## determinism fingerprint: {digest:016x}");
    println!("(the paper's figures stop at 32 nodes; these runs are simulated at p = {ranks})");

    // Representative observability run (`--metrics` / `--trace-out`): the
    // windowed ring on the dataflow fast path.  A bare `--trace-out` at
    // p = 2^20 would record every rank's events, so the trace window defaults
    // to ranks 0..=63 here — override with `--trace-ranks` / `--trace-sample`.
    let obs = ec_bench::Observability::from_args().with_default_window(0, 63);
    if obs.active() {
        let compiled = CompiledProgram::from_source(&WindowedRingSource::new(ranks, ROUNDS, CHUNK))
            .expect("fig17 program must validate");
        let engine = obs.instrument(
            Engine::new(ClusterSpec::homogeneous(ranks, 1), CostModel::marenostrum4_opa())
                .with_scenario(fig14_scenario(SEED))
                .with_report_detail(ReportDetail::Summary),
        );
        let report = engine.run_compiled(&compiled).expect("fig17 observability run");
        obs.emit("ring", &report);
    }
}

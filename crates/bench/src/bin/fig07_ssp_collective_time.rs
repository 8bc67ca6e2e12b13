//! Figure 7: per-call execution time of the `allreduce_ssp` collective as a
//! function of slack (left) and the time spent waiting for fresh updates
//! (right), compared against the consistent `gaspi_allreduce_ring` and an
//! MPI-style allreduce.
//!
//! The workload mirrors the matrix-factorization setting: every rank
//! repeatedly contributes a large vector, with injected compute jitter and a
//! straggler so that staleness actually occurs.  The paper's observations to
//! reproduce: (a) the SSP hypercube is substantially slower per call than
//! the ring/MPI allreduce because it shuffles the full vector every step,
//! and (b) the waiting time shrinks — and eventually vanishes — as the slack
//! grows.
//!
//! Sizes: 8 ranks, 100 000 doubles per contribution, 20 iterations
//! (`--smoke`: 4 ranks, 20 000 doubles, 5 iterations); rank 0 straggles
//! 4 ms every other iteration.
//!
//! Environment override: `FIG07_RANKS` (keep it at or below the host's core
//! count, one thread runs per rank).

use std::time::{Duration, Instant};

use ec_baseline::{allreduce_ring as mpi_allreduce_ring, MpiWorld};
use ec_bench::{env_usize, smoke_default};
use ec_collectives::schedule::hypercube_allreduce_schedule;
use ec_collectives::{ReduceOp, RingAllreduce, SspAllreduce};
use ec_gaspi::{GaspiConfig, Job, NetworkProfile};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The straggler rank's extra delay on every other iteration.
const STRAGGLER: Duration = Duration::from_millis(4);

/// Simulated compute phase between collective calls: jitter plus a straggler.
fn compute_phase(rank: usize, iteration: usize, rng: &mut StdRng) {
    let base = Duration::from_millis(2);
    let jitter = base.mul_f64(rng.gen_range(0.0..0.5));
    std::thread::sleep(base + jitter);
    if rank == 0 && iteration.is_multiple_of(2) {
        std::thread::sleep(STRAGGLER);
    }
}

fn main() {
    ec_bench::check_args();
    let smoke = ec_bench::smoke_flag();
    let ranks = env_usize("FIG07_RANKS", smoke_default(smoke, 8, 4));
    let elems = smoke_default(smoke, 100_000, 20_000);
    let iters = smoke_default(smoke, 20, 5);
    let slacks = [0u64, 2, 8, 32, 64];

    println!("# Figure 7 — allreduce_ssp per-call time and wait-for-updates time");
    println!("# {ranks} ranks, {elems} doubles per contribution, {iters} iterations\n");
    // The figure itself runs the threaded runtime; the footprint line uses
    // the simulator twin of the SSP hypercube exchange.
    ec_bench::print_smoke_memory_stats(
        smoke,
        "ssp-hypercube",
        &hypercube_allreduce_schedule(ranks, (elems * 8) as u64),
    );
    println!("{:>18} {:>20} {:>22} {:>20}", "variant", "mean call time [s]", "mean wait/iter [s]", "total wait [s]");

    let network = NetworkProfile::lan();
    let mut ssp_means: Vec<(u64, f64)> = Vec::new();

    // SSP hypercube allreduce for each slack value.
    for &slack in &slacks {
        let reports = Job::new(GaspiConfig::new(ranks).with_network(network.clone()))
            .run(move |ctx| {
                let mut ssp = SspAllreduce::new(ctx, elems, slack).expect("ssp handle");
                let mut rng = StdRng::seed_from_u64(7 + ctx.rank() as u64);
                let mut call_time = Duration::ZERO;
                for it in 0..iters {
                    compute_phase(ctx.rank(), it, &mut rng);
                    let contribution = vec![1.0 + ctx.rank() as f64; elems];
                    let t0 = Instant::now();
                    ssp.run(&contribution, ReduceOp::Sum).expect("ssp allreduce");
                    call_time += t0.elapsed();
                }
                (call_time.as_secs_f64() / iters as f64, ssp.stats().total_wait().as_secs_f64())
            })
            .expect("job");
        let mean_call = reports.iter().map(|r| r.0).sum::<f64>() / ranks as f64;
        let total_wait = reports.iter().map(|r| r.1).sum::<f64>() / ranks as f64;
        ssp_means.push((slack, mean_call));
        println!(
            "{:>18} {:>20.6} {:>22.6} {:>20.6}",
            format!("ssp slack={slack}"),
            mean_call,
            total_wait / iters as f64,
            total_wait
        );
    }

    // Consistent GASPI ring allreduce.
    let ring_reports = Job::new(GaspiConfig::new(ranks).with_network(network))
        .run(move |ctx| {
            let ring = RingAllreduce::new(ctx, elems).expect("ring handle");
            let mut rng = StdRng::seed_from_u64(11 + ctx.rank() as u64);
            let mut call_time = Duration::ZERO;
            for it in 0..iters {
                compute_phase(ctx.rank(), it, &mut rng);
                let mut data = vec![1.0 + ctx.rank() as f64; elems];
                let t0 = Instant::now();
                ring.run(&mut data, ReduceOp::Sum).expect("ring allreduce");
                call_time += t0.elapsed();
            }
            call_time.as_secs_f64() / iters as f64
        })
        .expect("job");
    let ring_mean = ring_reports.iter().sum::<f64>() / ranks as f64;
    println!("{:>18} {:>20.6} {:>22} {:>20}", "gaspi_ring", ring_mean, "-", "-");

    // MPI-style (two-sided) ring allreduce as the vendor-library stand-in.
    let mpi_reports = MpiWorld::new(ranks).run(move |comm| {
        let mut rng = StdRng::seed_from_u64(13 + comm.rank() as u64);
        let mut call_time = Duration::ZERO;
        for it in 0..iters {
            compute_phase(comm.rank(), it, &mut rng);
            let mut data = vec![1.0 + comm.rank() as f64; elems];
            let t0 = Instant::now();
            mpi_allreduce_ring(comm, &mut data).expect("mpi allreduce");
            call_time += t0.elapsed();
        }
        call_time.as_secs_f64() / iters as f64
    });
    let mpi_mean = mpi_reports.iter().sum::<f64>() / ranks as f64;
    println!("{:>18} {:>20.6} {:>22} {:>20}", "mpi_allreduce", mpi_mean, "-", "-");

    println!("\nSSP collective time relative to gaspi_ring (paper: ~58% slower even at the best slack):");
    for (slack, mean) in &ssp_means {
        println!("  slack={slack:<3} {:+.1}%", (mean / ring_mean - 1.0) * 100.0);
    }
    println!(
        "(deviation note: with very large slack our threaded substrate lets the SSP collective skip\n\
         waiting entirely, so it can undercut the ring — see EXPERIMENTS.md for the discussion)"
    );
    println!("waiting time shrinks as slack grows (paper: higher slack reduces, and eventually eliminates, waiting)");
}

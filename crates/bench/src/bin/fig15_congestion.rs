//! Figure 15 (new experiment, beyond the paper): collectives under fabric
//! contention — the direct AlltoAll versus the pipelined ring allreduce on
//! two-level fat-trees with oversubscribed leaf→core uplinks.
//!
//! The paper's Figure 13 measures the AlltoAll up to 32 ranks on
//! non-blocking OmniPath.  This binary prices both collectives with the
//! flow-level `ec_netsim::fabric` model (max-min fair bandwidth sharing over
//! a capacitated topology) at 64–1024 ranks and oversubscription ratios
//! 1:1, 2:1 and 4:1: the AlltoAll pushes nearly all traffic through the
//! core and degrades by almost the taper factor, while the ring exchanges
//! only with neighbors, crosses the core one flow at a time per leaf
//! boundary, and stays topology-oblivious — a regime the paper's testbed
//! could not reach.
//!
//! The output is fully deterministic: the same seed produces byte-identical
//! tables.  Pass `--smoke` for a CI-sized run (64 ranks only).
//!
//! Sizes: the `CongestionConfig::new` defaults (seed 42, 32 KiB AlltoAll
//! blocks, 8 MB ring payload, four ranks per node) at p = 64, 256 and 1024.

use std::fmt::Write as _;

use ec_bench::congestion::{run_point, Collective, CongestionConfig, CongestionPoint};
use ec_bench::Series;

const OVERSUBSCRIPTION: [f64; 3] = [1.0, 2.0, 4.0];

fn sweep(
    cfg: &CongestionConfig,
    collective: Collective,
    out: &mut String,
    makespans: &mut Vec<f64>,
) -> Vec<CongestionPoint> {
    let mut points = Vec::new();
    for k in OVERSUBSCRIPTION {
        let p = run_point(cfg, collective, k);
        makespans.push(p.makespan);
        points.push(p);
    }
    let base = points[0].makespan;
    for p in &points {
        let _ = writeln!(
            out,
            "{:>10} {:>6} {:>6.0}:1 {:>14.6} {:>10.2}x {:>12.3} {:>14.6} {:>10}",
            p.collective.label(),
            p.ranks,
            p.oversubscription,
            p.makespan,
            p.makespan / base,
            p.max_link_utilization,
            p.core_congestion_time,
            p.congested_links
        );
    }
    points
}

fn main() {
    ec_bench::check_args();
    let smoke = ec_bench::smoke_flag();
    let rank_counts: &[usize] = if smoke { &[64] } else { &[64, 256, 1024] };
    let stats_cfg = CongestionConfig::new(*rank_counts.last().expect("non-empty rank list"));

    println!("# Figure 15 — collectives under fabric contention (simulated 2-level fat-tree)");
    println!(
        "# seed {}, {} KiB alltoall blocks, {:.1} MB ring payload, 4 ranks/node, 8-node leaves, galileo-opa",
        stats_cfg.seed,
        stats_cfg.alltoall_block / 1024,
        stats_cfg.ring_bytes as f64 / 1e6
    );
    println!("# scenario: 5% link latency/bandwidth jitter composed on top of the fabric\n");

    for collective in [Collective::Alltoall, Collective::Ring] {
        ec_bench::print_smoke_memory_stats(smoke, collective.label(), &collective.program(&stats_cfg));
    }

    println!(
        "{:>10} {:>6} {:>8} {:>14} {:>11} {:>12} {:>14} {:>10}",
        "collective", "p", "taper", "makespan [s]", "vs 1:1", "max util", "core sat [s]", "congested"
    );

    let mut makespans = Vec::new();
    let mut summary: Vec<(Collective, Series)> = Vec::new();
    for &ranks in rank_counts {
        let cfg = CongestionConfig::new(ranks);
        for collective in [Collective::Alltoall, Collective::Ring] {
            let mut out = String::new();
            let points = sweep(&cfg, collective, &mut out, &mut makespans);
            print!("{out}");
            let slowdown = points.last().unwrap().makespan / points[0].makespan;
            let mut s = Series::new(format!("{} p={ranks}", collective.label()));
            s.push(4.0, slowdown);
            summary.push((collective, s));
        }
        println!();
    }

    println!("## 4:1 slowdown vs full bisection");
    for (_, s) in &summary {
        println!("  {:>18}: {:.2}x", s.label, s.y_at(4.0).unwrap());
    }
    println!("(the alltoall pays nearly the taper factor; the ring is topology-oblivious)");

    // Same seed, same fingerprint: determinism regressions are trivially
    // visible in CI logs.
    let fingerprint = makespans.iter().fold(0u64, |acc, m| ec_netsim::SplitMix64::mix(acc ^ m.to_bits()));
    println!("\n## determinism fingerprint: {fingerprint:016x}");
    println!("(the paper's Figure 13 stops at 32 ranks on a non-blocking fabric; these runs are simulated)");

    // Representative observability run (`--metrics` / `--trace-out`): the
    // alltoall at the smallest rank count under 4:1 oversubscription, so the
    // exported trace carries saturated-link counter tracks.
    let obs = ec_bench::Observability::from_args();
    if obs.active() {
        let cfg = CongestionConfig::new(rank_counts[0]);
        let engine = obs.instrument(ec_bench::congestion::fig15_engine(&cfg, 4.0));
        let report = engine.run(&Collective::Alltoall.program(&cfg)).expect("fig15 observability run");
        obs.emit("alltoall-4to1", &report);
    }
}

//! Figure 16 (new experiment, beyond the paper): simulator-driven
//! algorithm-variant selection — the reproducible "best vendor variant"
//! frontier of Figures 11–13, extended to oversubscribed fabrics.
//!
//! For every (collective, rank count, message size) cell the candidate pool
//! (the twelve vendor Allreduce variants, the pairwise/Bruck AlltoAll, and
//! the paper's one-sided GASPI collectives as challengers) is priced through both the topology-blind alpha–beta model
//! and the PR 4 flow-level fabric at 1:1, 2:1 and 4:1 leaf→core
//! oversubscription.  Cells where the 4:1 fabric picks a different vendor
//! winner than the alpha–beta model are flagged `*` — these are exactly the
//! configurations where a topology-blind tuner would ship the wrong
//! algorithm.
//!
//! The output is fully deterministic: same configuration, byte-identical
//! table (the worker pool writes into pre-assigned slots, so the thread
//! count cannot reorder anything).  Pass `--smoke` for a CI-sized grid
//! (`SweepConfig::smoke`, p ≤ 64; the full grid is `SweepConfig::full`,
//! p ≤ 1024).

use ec_bench::tuner::{winner_table, CollectiveKind, Row, SweepConfig};
use ec_collectives::schedule::ring_allreduce_schedule;
use ec_netsim::SplitMix64;

fn print_rows(kind: CollectiveKind, rows: &[Row], tapers: &[f64], makespans: &mut Vec<f64>) -> usize {
    println!(
        "## {} (payload = {})",
        kind.label(),
        match kind {
            CollectiveKind::Allreduce => "total vector bytes",
            CollectiveKind::Alltoall => "per-peer block bytes",
        }
    );
    print!("{:>6} {:>10} {:>24}", "p", "bytes", "alpha-beta winner");
    for t in tapers {
        print!(" {:>22}", format!("fabric {t:.0}:1 winner"));
    }
    println!(" {:>6} {:>14}", "flip?", "gaspi vs best");
    let mut flips = 0;
    for row in rows.iter().filter(|r| r.collective == kind) {
        let ab = row.alpha_beta.best_vendor();
        print!("{:>6} {:>10} {:>24}", row.ranks, row.bytes, ab.label);
        for (_, sel) in &row.fabric {
            print!(" {:>22}", sel.best_vendor().label);
            makespans.extend(sel.predictions.iter().map(|p| p.seconds));
        }
        makespans.extend(row.alpha_beta.predictions.iter().map(|p| p.seconds));
        let max_taper = *tapers.last().expect("at least one taper");
        let flip = row.vendor_flip_at(max_taper);
        flips += usize::from(flip);
        // How the paper's one-sided challenger fares against the vendor
        // frontier on the most contended fabric (Figures 11–13's question).
        let last = &row.fabric.last().expect("at least one taper").1;
        let gaspi_speedup = last.best_vendor().seconds / last.winner().seconds;
        let challenger = if last.winner().vendor { String::from("-") } else { format!("{gaspi_speedup:.2}x") };
        println!(" {:>6} {:>14}", if flip { "*" } else { "" }, challenger);
    }
    println!();
    flips
}

fn main() {
    ec_bench::check_args();
    let smoke = ec_bench::smoke_flag();
    let cfg = if smoke { SweepConfig::smoke() } else { SweepConfig::full() };

    println!("# Figure 16 — simulator-driven variant selection (simulated 2-level fat-tree, galileo-opa)");
    println!(
        "# {} ranks/node, tapers {:?}, {} allreduce candidates, {} alltoall candidates",
        cfg.ranks_per_node,
        cfg.tapers,
        ec_bench::tuner::AllreduceVariant::all().len(),
        ec_bench::tuner::AlltoallVariant::all().len()
    );
    println!("# winner columns show the best *vendor* (two-sided) variant; `*` marks cells where the");
    println!("# highest taper flips the vendor winner chosen by the topology-blind alpha-beta model;");
    println!("# the last column reports how far the one-sided gaspi challenger beats that frontier.\n");

    let stats_p = *cfg.rank_counts.last().expect("non-empty rank list");
    let stats_bytes = *cfg.allreduce_bytes.last().expect("non-empty payload list");
    ec_bench::print_smoke_memory_stats(smoke, "ring-allreduce", &ring_allreduce_schedule(stats_p, stats_bytes));

    let rows = winner_table(&cfg);
    let mut makespans = Vec::new();
    let mut flips = 0;
    for kind in [CollectiveKind::Allreduce, CollectiveKind::Alltoall] {
        flips += print_rows(kind, &rows, &cfg.tapers, &mut makespans);
    }

    let max_taper = *cfg.tapers.last().unwrap();
    println!("## {flips} cell(s) where the {max_taper:.0}:1 fabric flips the alpha-beta vendor winner");
    for row in &rows {
        if row.vendor_flip_at(max_taper) {
            println!(
                "  {:>9} p={:<5} {:>9} B: {} -> {}",
                row.collective.label(),
                row.ranks,
                row.bytes,
                row.alpha_beta.best_vendor().label,
                row.fabric.last().unwrap().1.best_vendor().label
            );
        }
    }

    let fingerprint = makespans.iter().fold(0u64, |acc, m| SplitMix64::mix(acc ^ m.to_bits()));
    println!("\n## determinism fingerprint: {fingerprint:016x}");
    println!("(the paper assembled its best-of-N vendor line by hand; this table regenerates it per cell)");

    // Representative observability run (`--metrics` / `--trace-out`): the
    // ring allreduce at the largest grid cell on the alpha-beta model.
    ec_bench::Observability::from_args().observe_run(
        "ring-allreduce",
        ec_netsim::Engine::new(
            ec_netsim::ClusterSpec::homogeneous(stats_p.div_ceil(cfg.ranks_per_node), cfg.ranks_per_node),
            ec_netsim::CostModel::galileo_opa(),
        ),
        &ring_allreduce_schedule(stats_p, stats_bytes),
    );
}

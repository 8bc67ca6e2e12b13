//! Figure 12: Allreduce on 32 SkyLake nodes across message sizes from 1,024
//! elements up to 8,388,608 elements (doubling each step).
//!
//! Series: `gaspi_allreduce_ring` against the twelve MPI variants.  The
//! paper reports that MPI wins up to roughly 1 MB, the GASPI ring wins from
//! about 2 MB upwards, peaking at 2.07x / 2.13x over the ring / Shumilin's
//! ring variants at 64 MB (8,388,608 doubles).
//!
//! Sizes: 32 nodes, 1 024 to 8 388 608 elements (`--smoke`: 16 nodes, up to
//! 65 536 elements).

use ec_baseline::MpiAllreduceVariant;
use ec_bench::{render_table, smoke_default, speedup, Series};
use ec_collectives::schedule::ring_allreduce_schedule;
use ec_netsim::{ClusterSpec, CostModel, Engine};

fn main() {
    ec_bench::check_args();
    let smoke = ec_bench::smoke_flag();
    let nodes = smoke_default(smoke, 32, 16);
    let max_elems = smoke_default(smoke, 8_388_608, 65_536);

    ec_bench::print_smoke_memory_stats(
        smoke,
        "ring-allreduce",
        &ring_allreduce_schedule(nodes, (max_elems * 8) as u64),
    );

    let engine = Engine::new(ClusterSpec::homogeneous(nodes, 1), CostModel::skylake_fdr());
    let mut series = vec![Series::new("gaspi")];
    for v in MpiAllreduceVariant::all() {
        series.push(Series::new(v.label()));
    }

    let mut elems = 1024;
    while elems <= max_elems {
        let bytes = (elems * 8) as u64;
        let kb = bytes as f64 / 1024.0;
        series[0].push(kb, engine.makespan(&ring_allreduce_schedule(nodes, bytes)).expect("gaspi ring"));
        for (i, v) in MpiAllreduceVariant::all().into_iter().enumerate() {
            series[i + 1].push(kb, engine.makespan(&v.schedule(nodes, bytes, 1)).expect("mpi variant"));
        }
        elems *= 2;
    }

    println!(
        "{}",
        render_table(
            &format!("Figure 12 — Allreduce on {nodes} SkyLake nodes, message-size sweep"),
            "size [KiB]",
            "seconds",
            &series
        )
    );

    // Crossover analysis: the first size at which gaspi beats every MPI variant.
    let mut crossover_kb = None;
    for &(kb, g) in &series[0].points {
        let best_mpi = series[1..].iter().filter_map(|s| s.y_at(kb)).fold(f64::INFINITY, f64::min);
        if g < best_mpi && crossover_kb.is_none() {
            crossover_kb = Some(kb);
        }
    }
    match crossover_kb {
        Some(kb) => println!("  gaspi overtakes every MPI variant from {kb:.0} KiB (paper: ~2 MB)"),
        None => println!("  gaspi never overtakes all MPI variants in this sweep"),
    }
    let last_kb = series[0].points.last().map_or(0.0, |&(kb, _)| kb);
    let g = series[0].y_at(last_kb).unwrap_or(f64::NAN);
    let s7 = series.iter().find(|s| s.label.starts_with("mpi7")).and_then(|s| s.y_at(last_kb)).unwrap_or(f64::NAN);
    let s8 = series.iter().find(|s| s.label.starts_with("mpi8")).and_then(|s| s.y_at(last_kb)).unwrap_or(f64::NAN);
    println!(
        "  at {last_kb:.0} KiB: gaspi vs Shumilin's ring {:.2}x, vs ring {:.2}x (paper: 2.13x and 2.07x at 65,536 KiB)",
        speedup(s7, g),
        speedup(s8, g)
    );

    // Representative observability run (`--metrics` / `--trace-out`): the
    // ring at the largest message size of the sweep.
    ec_bench::Observability::from_args().observe_run(
        "ring-allreduce",
        Engine::new(ClusterSpec::homogeneous(nodes, 1), CostModel::skylake_fdr()),
        &ring_allreduce_schedule(nodes, (max_elems * 8) as u64),
    );
}

//! Figure 11: Allreduce time vs. node count on SkyLake/FDR for vectors of
//! 10,000 (left) and 1,000,000 (right) doubles.
//!
//! Series: the segmented pipelined ring with GASPI
//! (`gaspi_allreduce_ring`) against the twelve Intel-MPI Allreduce variants
//! (`mpi1` … `mpi12`).
//!
//! Sizes: 10 000 and 1 000 000 doubles (`--smoke`: 1 000 and 100 000).

use ec_baseline::MpiAllreduceVariant;
use ec_bench::{node_sweep, render_table, smoke_default, speedup, Series};
use ec_collectives::schedule::ring_allreduce_schedule;
use ec_netsim::{ClusterSpec, CostModel, Engine};

fn run_panel(elems: usize) -> Vec<Series> {
    let bytes = (elems * 8) as u64;
    let mut series = vec![Series::new("gaspi")];
    for v in MpiAllreduceVariant::all() {
        series.push(Series::new(v.label()));
    }

    for &nodes in &node_sweep() {
        let engine = Engine::new(ClusterSpec::homogeneous(nodes, 1), CostModel::skylake_fdr());
        series[0].push(nodes as f64, engine.makespan(&ring_allreduce_schedule(nodes, bytes)).expect("gaspi ring"));
        for (i, v) in MpiAllreduceVariant::all().into_iter().enumerate() {
            let t = engine.makespan(&v.schedule(nodes, bytes, 1)).unwrap_or_else(|e| panic!("{v:?}: {e}"));
            series[i + 1].push(nodes as f64, t);
        }
    }
    series
}

fn main() {
    ec_bench::check_args();
    let smoke = ec_bench::smoke_flag();
    let small = smoke_default(smoke, 10_000, 1_000);
    let large = smoke_default(smoke, 1_000_000, 100_000);

    let max_nodes = *node_sweep().last().expect("non-empty sweep");
    ec_bench::print_smoke_memory_stats(
        smoke,
        "ring-allreduce",
        &ring_allreduce_schedule(max_nodes, (large * 8) as u64),
    );

    for (name, elems, is_large) in [("left: 10,000 doubles", small, false), ("right: 1,000,000 doubles", large, true)] {
        let series = run_panel(elems);
        println!(
            "{}",
            render_table(&format!("Figure 11 ({name}) — Allreduce on SkyLake nodes"), "nodes", "seconds", &series)
        );
        let at = 32.0;
        let gaspi = series[0].y_at(at);
        let shumilin = series.iter().find(|s| s.label.starts_with("mpi7")).and_then(|s| s.y_at(at));
        let ring = series.iter().find(|s| s.label.starts_with("mpi8")).and_then(|s| s.y_at(at));
        let best_mpi = series[1..].iter().filter_map(|s| s.y_at(at)).fold(f64::INFINITY, f64::min);
        if let (Some(g), Some(s7), Some(s8)) = (gaspi, shumilin, ring) {
            if is_large {
                println!(
                    "  at 32 nodes, 1M doubles: gaspi vs Shumilin's ring {:.2}x, vs ring {:.2}x (paper: 1.78x and 2.26x)",
                    speedup(s7, g),
                    speedup(s8, g)
                );
            } else {
                println!(
                    "  at 32 nodes, 10k doubles: best MPI variant is {:.2}x faster than gaspi (paper: MPI wins for small vectors)",
                    speedup(g, best_mpi)
                );
            }
            println!();
        }
    }

    // Representative observability run (`--metrics` / `--trace-out`): the
    // pipelined ring at the largest node count and vector size.
    ec_bench::Observability::from_args().observe_run(
        "ring-allreduce",
        Engine::new(ClusterSpec::homogeneous(max_nodes, 1), CostModel::skylake_fdr()),
        &ring_allreduce_schedule(max_nodes, (large * 8) as u64),
    );
}

//! Figure 9: Reduce time vs. node count on SkyLake/FDR for vectors of
//! 10,000 (left) and 1,000,000 (right) doubles.
//!
//! Series: `gaspi_reduce` (binomial tree, one-sided) reducing 25 %, 50 %,
//! 75 % and 100 % of the data, against the MPI default and binomial reduce.
//!
//! Sizes: 10 000 and 1 000 000 doubles (`--smoke`: 1 000 and 100 000).

use ec_baseline::{mpi_reduce_binomial_schedule, mpi_reduce_default_schedule};
use ec_bench::{node_sweep, render_table, smoke_default, speedup, Series};
use ec_collectives::schedule::reduce_bst_schedule;
use ec_netsim::{ClusterSpec, CostModel, Engine};

fn run_panel(elems: usize) -> Vec<Series> {
    let bytes = (elems * 8) as u64;
    let thresholds = [0.25, 0.5, 0.75, 1.0];
    let mut series: Vec<Series> =
        thresholds.iter().map(|t| Series::new(format!("{}% gaspi", (t * 100.0) as u32))).collect();
    series.push(Series::new("100% mpi-def"));
    series.push(Series::new("100% mpi-bin"));

    for &nodes in &node_sweep() {
        let engine = Engine::new(ClusterSpec::homogeneous(nodes, 1), CostModel::skylake_fdr());
        for (i, &t) in thresholds.iter().enumerate() {
            let time = engine.makespan(&reduce_bst_schedule(nodes, bytes, t)).expect("gaspi reduce schedule");
            series[i].push(nodes as f64, time);
        }
        let def = engine.makespan(&mpi_reduce_default_schedule(nodes, bytes)).expect("mpi default reduce");
        let bin = engine.makespan(&mpi_reduce_binomial_schedule(nodes, bytes)).expect("mpi binomial reduce");
        series[4].push(nodes as f64, def);
        series[5].push(nodes as f64, bin);
    }
    series
}

fn main() {
    ec_bench::check_args();
    let smoke = ec_bench::smoke_flag();
    let small = smoke_default(smoke, 10_000, 1_000);
    let large = smoke_default(smoke, 1_000_000, 100_000);

    let max_nodes = *node_sweep().last().expect("non-empty sweep");
    ec_bench::print_smoke_memory_stats(smoke, "reduce-bst", &reduce_bst_schedule(max_nodes, (large * 8) as u64, 1.0));

    for (name, elems) in [("left: 10,000 doubles", small), ("right: 1,000,000 doubles", large)] {
        let series = run_panel(elems);
        println!(
            "{}",
            render_table(&format!("Figure 9 ({name}) — Reduce on SkyLake nodes"), "nodes", "seconds", &series)
        );
        let at = 32.0;
        if let (Some(q), Some(full), Some(bin)) = (series[0].y_at(at), series[3].y_at(at), series[5].y_at(at)) {
            println!("  25% vs 100% gaspi at 32 nodes: {:.2}x (paper: ~5x at 8 MB)", speedup(full, q));
            println!(
                "  100% gaspi vs mpi-bin at 32 nodes: {:.2}x faster (paper: ~38% faster for large arrays)\n",
                speedup(bin, full)
            );
        }
    }

    // Representative observability run (`--metrics` / `--trace-out`): the
    // full-data BST reduce at the largest node count.
    ec_bench::Observability::from_args().observe_run(
        "reduce-bst-100%",
        Engine::new(ClusterSpec::homogeneous(max_nodes, 1), CostModel::skylake_fdr()),
        &reduce_bst_schedule(max_nodes, (large * 8) as u64, 1.0),
    );
}

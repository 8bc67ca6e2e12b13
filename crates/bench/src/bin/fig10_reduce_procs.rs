//! Figure 10: Reduce operating on the **full amount of data** but engaging
//! only a fraction of the processes (the leaves farthest from the root stay
//! silent), for 1,000,000 doubles on SkyLake nodes.
//!
//! Series: at least 25 %, 50 %, 75 % and 100 % of the processes engaged,
//! against the MPI default and binomial reduce.
//!
//! Size: 1 000 000 doubles (`--smoke`: 100 000).

use ec_baseline::{mpi_reduce_binomial_schedule, mpi_reduce_default_schedule};
use ec_bench::{node_sweep, render_table, smoke_default, Series};
use ec_collectives::schedule::reduce_process_threshold_schedule;
use ec_netsim::{ClusterSpec, CostModel, Engine};

fn main() {
    ec_bench::check_args();
    let smoke = ec_bench::smoke_flag();
    let elems = smoke_default(smoke, 1_000_000, 100_000);
    let bytes = (elems * 8) as u64;
    let max_nodes = *node_sweep().last().expect("non-empty sweep");
    ec_bench::print_smoke_memory_stats(
        smoke,
        "reduce-procs",
        &reduce_process_threshold_schedule(max_nodes, bytes, 1.0),
    );
    let thresholds = [0.25, 0.5, 0.75, 1.0];
    let mut series: Vec<Series> =
        thresholds.iter().map(|t| Series::new(format!("{}% gaspi", (t * 100.0) as u32))).collect();
    series.push(Series::new("100% mpi-def"));
    series.push(Series::new("100% mpi-bin"));

    for &nodes in &node_sweep() {
        let engine = Engine::new(ClusterSpec::homogeneous(nodes, 1), CostModel::skylake_fdr());
        for (i, &t) in thresholds.iter().enumerate() {
            let time = engine
                .makespan(&reduce_process_threshold_schedule(nodes, bytes, t))
                .expect("gaspi process-threshold reduce schedule");
            series[i].push(nodes as f64, time);
        }
        series[4].push(
            nodes as f64,
            engine.makespan(&mpi_reduce_default_schedule(nodes, bytes)).expect("mpi default reduce"),
        );
        series[5].push(
            nodes as f64,
            engine.makespan(&mpi_reduce_binomial_schedule(nodes, bytes)).expect("mpi binomial reduce"),
        );
    }

    println!(
        "{}",
        render_table(
            "Figure 10 — Reduce with full data, xx% of processes engaged (1,000,000 doubles, SkyLake)",
            "nodes",
            "seconds",
            &series
        )
    );
    // Paper observation: the 75% and 100% lines are nearly identical because
    // half of the processes only join in the last stage of the binomial tree.
    if let (Some(s75), Some(s100)) = (series[2].y_at(32.0), series[3].y_at(32.0)) {
        println!(
            "  75% vs 100% processes at 32 nodes: {:.1}% difference (paper: identical performance)",
            ((s100 - s75) / s100 * 100.0).abs()
        );
    }

    // Representative observability run (`--metrics` / `--trace-out`): all
    // processes engaged at the largest node count.
    ec_bench::Observability::from_args().observe_run(
        "reduce-procs-100%",
        Engine::new(ClusterSpec::homogeneous(max_nodes, 1), CostModel::skylake_fdr()),
        &reduce_process_threshold_schedule(max_nodes, bytes, 1.0),
    );
}

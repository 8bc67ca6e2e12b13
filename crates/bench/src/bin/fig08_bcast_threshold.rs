//! Figure 8: Broadcast time vs. node count on SkyLake/FDR for vectors of
//! 10,000 (left) and 1,000,000 (right) doubles.
//!
//! Series: `gaspi_bcast` (binomial spanning tree, one-sided) shipping 25 %,
//! 50 %, 75 % and 100 % of the data, against the MPI default and binomial
//! broadcast variants.
//!
//! Sizes: 10 000 and 1 000 000 doubles (`--smoke`: 1 000 and 100 000).

use ec_baseline::{mpi_bcast_binomial_schedule, mpi_bcast_default_schedule};
use ec_bench::{node_sweep, render_table, smoke_default, speedup, Series};
use ec_collectives::schedule::bcast_bst_schedule;
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
            let time = engine.makespan(&bcast_bst_schedule(nodes, bytes, t)).expect("gaspi bcast schedule");
            series[i].push(nodes as f64, time);
        }
        let def = engine.makespan(&mpi_bcast_default_schedule(nodes, bytes)).expect("mpi default bcast");
        let bin = engine.makespan(&mpi_bcast_binomial_schedule(nodes, bytes)).expect("mpi binomial bcast");
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
    ec_bench::print_smoke_memory_stats(smoke, "bcast-bst", &bcast_bst_schedule(max_nodes, (large * 8) as u64, 1.0));

    for (name, elems) in [("left: 10,000 doubles", small), ("right: 1,000,000 doubles", large)] {
        let series = run_panel(elems);
        println!(
            "{}",
            render_table(&format!("Figure 8 ({name}) — Broadcast on SkyLake nodes"), "nodes", "seconds", &series)
        );
        // Paper claim: the BST variant is 3.25x–3.58x faster when shipping a
        // quarter of the data.
        let at = 32.0;
        if let (Some(q), Some(full)) = (series[0].y_at(at), series[3].y_at(at)) {
            println!(
                "  quarter-data speedup vs full gaspi at 32 nodes: {:.2}x (paper reports 3.25x-3.58x)\n",
                speedup(full, q)
            );
        }
    }

    // Representative observability run (`--metrics` / `--trace-out`): the
    // full-data BST broadcast at the largest node count.
    ec_bench::Observability::from_args().observe_run(
        "bcast-bst-100%",
        Engine::new(ClusterSpec::homogeneous(max_nodes, 1), CostModel::skylake_fdr()),
        &bcast_bst_schedule(max_nodes, (large * 8) as u64, 1.0),
    );
}

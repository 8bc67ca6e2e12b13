//! Figure 13: AlltoAll on the Galileo cluster (OmniPath), four ranks per
//! node, on 4, 8 and 16 nodes, for block sizes from 4 bytes up to 32 KiB.
//!
//! Series: `gaspi_alltoall` (direct one-sided writes) against the pairwise
//! `MPI_Alltoall`, labelled `gaspi{N}` / `mpi{N}` per node count.  The paper
//! reports peak gains of 2.85x, 5.14x and 5.07x at 32 KiB on 4, 8 and 16
//! nodes, and notes that the Quantum Espresso FFT uses 6–24 KB messages —
//! squarely in the region where GASPI wins.
//!
//! Sizes: blocks up to 32 KiB (`--smoke`: 4 KiB).

use ec_baseline::mpi_alltoall_pairwise_schedule;
use ec_bench::{render_table, smoke_default, speedup, Series};
use ec_collectives::schedule::alltoall_direct_schedule;
use ec_netsim::{ClusterSpec, CostModel, Engine};

fn main() {
    ec_bench::check_args();
    let smoke = ec_bench::smoke_flag();
    let ppn = 4;
    let max_block = smoke_default(smoke, 32 * 1024, 4 * 1024) as u64;
    let node_counts = [4usize, 8, 16];

    let max_ranks = node_counts[node_counts.len() - 1] * ppn;
    ec_bench::print_smoke_memory_stats(smoke, "alltoall-direct", &alltoall_direct_schedule(max_ranks, max_block));

    let mut series = Vec::new();
    for &nodes in &node_counts {
        series.push(Series::new(format!("gaspi{nodes}")));
        series.push(Series::new(format!("mpi{nodes}")));
    }

    let mut block = 4u64;
    while block <= max_block {
        for (i, &nodes) in node_counts.iter().enumerate() {
            let ranks = nodes * ppn;
            let engine = Engine::new(ClusterSpec::homogeneous(nodes, ppn), CostModel::galileo_opa());
            let gaspi = engine.makespan(&alltoall_direct_schedule(ranks, block)).expect("gaspi alltoall");
            let mpi = engine.makespan(&mpi_alltoall_pairwise_schedule(ranks, block)).expect("mpi alltoall");
            series[2 * i].push(block as f64, gaspi);
            series[2 * i + 1].push(block as f64, mpi);
        }
        block *= 2;
    }

    println!(
        "{}",
        render_table(
            &format!("Figure 13 — AlltoAll on Galileo, {ppn} ranks per node"),
            "size [bytes]",
            "seconds",
            &series
        )
    );

    let peak = max_block as f64;
    for (i, &nodes) in node_counts.iter().enumerate() {
        if let (Some(g), Some(m)) = (series[2 * i].y_at(peak), series[2 * i + 1].y_at(peak)) {
            println!(
                "  {nodes} nodes, {:.0} KiB blocks: gaspi is {:.2}x faster than MPI (paper: {})",
                peak / 1024.0,
                speedup(m, g),
                match nodes {
                    4 => "2.85x",
                    8 => "5.14x",
                    _ => "5.07x",
                }
            );
        }
    }
    println!("  (Quantum Espresso's FFT exchanges 6-24 KB blocks, inside the GASPI-favourable region.)");

    // Representative observability run (`--metrics` / `--trace-out`): the
    // direct alltoall at the largest scale and block size.
    let nodes = node_counts[node_counts.len() - 1];
    ec_bench::Observability::from_args().observe_run(
        "alltoall-direct",
        Engine::new(ClusterSpec::homogeneous(nodes, ppn), CostModel::galileo_opa()),
        &alltoall_direct_schedule(max_ranks, max_block),
    );
}

//! Criterion benchmark of the fabric's max-min fair-share solver: the cost
//! of one rate recompute (`Fabric::resolve`) with 1024 concurrent flows on a
//! 256-node 4:1-oversubscribed fat-tree, i.e. the work the engine pays on
//! every flow arrival and departure of a fully loaded alltoall.
//!
//! The per-packet backend is benchmarked alongside it: draining a 128-flow
//! incast through the PFC/ECN fabric, reported as packet events per second
//! (its cost scales with packets simulated, not with rate recomputes).
//!
//! Besides the Criterion timing, the benchmark hand-times both backends and
//! writes a machine-readable baseline to `BENCH_fabric.json` (override the
//! path with the `BENCH_FABRIC_JSON` environment variable), recorded
//! alongside `BENCH_engine.json` so the perf trajectory of each backend is
//! visible across PRs.

use std::time::Instant;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use ec_netsim::{Fabric, PacketConfig, PacketFabric, Topology};

/// Nodes of the benchmark fat-tree (1024 ranks at 4 ranks per node).
const NODES: usize = 256;

/// Concurrent flows per solve — the engine's per-rank injection pipeline
/// bounds active flows by the rank count, so this is the fully loaded case.
const FLOWS: usize = 1024;

/// A fabric carrying `FLOWS` flows in the shifted all-to-all pattern (every
/// node is the source of four flows aimed at distinct remote leaves, so the
/// tapered uplinks all saturate and the solver runs its filling loop).
fn loaded_fabric(oversubscription: f64) -> Fabric {
    let topology = Topology::fat_tree(NODES, 8, oversubscription, 1e10);
    let mut fabric = Fabric::new(topology).expect("benchmark topology is connected");
    for i in 0..FLOWS {
        let src = i % NODES;
        let dst = (src + 8 * (1 + i / NODES)) % NODES;
        fabric.add_flow(0.0, src, dst, 1e9);
    }
    fabric
}

/// Hand-timed solves per second for the JSON baseline.
fn measure_solves_per_sec(fabric: &mut Fabric, runs: usize) -> f64 {
    fabric.resolve_full(0.0);
    let start = Instant::now();
    for _ in 0..runs {
        fabric.resolve_full(0.0);
    }
    runs as f64 / start.elapsed().as_secs_f64()
}

/// Nodes of the packet-fabric tree (small enough that one drain stays in
/// the millisecond range while still crossing the tapered core).
const PACKET_NODES: usize = 32;

/// Flows of the packet-fabric incast (four senders per node aimed at node 0).
const PACKET_FLOWS: usize = 128;

/// A PFC packet fabric loaded with a many-to-one incast, ready to drain.
fn loaded_packet_fabric() -> PacketFabric {
    let topology = Topology::fat_tree(PACKET_NODES, 8, 4.0, 1e10);
    let mut fabric = PacketFabric::new(&topology, PacketConfig::default()).expect("benchmark topology is connected");
    for i in 0..PACKET_FLOWS {
        fabric.add_flow(0.0, 1 + i % (PACKET_NODES - 1), 0, 262_144.0);
    }
    fabric
}

/// Drain the fabric to completion; returns the packet count simulated.
fn drain_packet_fabric(fabric: &mut PacketFabric) -> u64 {
    let mut done = Vec::new();
    while let Some(t) = fabric.resolve(0.0) {
        fabric.advance_to(t);
        fabric.take_completed(t, &mut done);
    }
    assert_eq!(done.len(), PACKET_FLOWS, "every incast flow must complete");
    fabric.totals().data_packets
}

/// Hand-timed packet events per second for the JSON baseline.
fn measure_packets_per_sec(runs: usize) -> f64 {
    let mut packets = 0u64;
    let start = Instant::now();
    for _ in 0..runs {
        packets += drain_packet_fabric(&mut loaded_packet_fabric());
    }
    packets as f64 / start.elapsed().as_secs_f64()
}

fn write_baseline(contended: f64, uncontended: f64, packets_per_sec: f64) {
    let path = std::env::var("BENCH_FABRIC_JSON")
        .unwrap_or_else(|_| format!("{}/../../BENCH_fabric.json", env!("CARGO_MANIFEST_DIR")));
    let json = format!(
        "{{\n  \"bench\": \"fabric_solver\",\n  \"topology\": \"fat-tree-{NODES}x8\",\n  \
         \"concurrent_flows\": {FLOWS},\n  \"solves_per_sec_oversubscribed_4_1\": {contended:.0},\n  \
         \"solves_per_sec_full_bisection\": {uncontended:.0},\n  \
         \"packet_fabric_flows\": {PACKET_FLOWS},\n  \
         \"packet_fabric_packets_per_sec\": {packets_per_sec:.0}\n}}\n"
    );
    if let Err(e) = std::fs::write(&path, json) {
        eprintln!("warning: could not write {path}: {e}");
    }
}

fn bench_fabric_solver(c: &mut Criterion) {
    // `cargo test --benches` runs bench binaries with `--test`: skip the
    // JSON emission so the test suite stays fast.
    let test_mode = std::env::args().any(|a| a == "--test");

    if !test_mode {
        let contended = measure_solves_per_sec(&mut loaded_fabric(4.0), 2000);
        let uncontended = measure_solves_per_sec(&mut loaded_fabric(1.0), 2000);
        let packets = measure_packets_per_sec(10);
        println!(
            "fabric_solver: {FLOWS} flows on {NODES} nodes -> {:.1}k solves/s (4:1), {:.1}k solves/s (1:1); \
             packet fabric -> {:.2}M packets/s",
            contended / 1e3,
            uncontended / 1e3,
            packets / 1e6
        );
        write_baseline(contended, uncontended, packets);
    }

    let mut group = c.benchmark_group("fabric");
    group.sample_size(20);
    for k in [1.0, 4.0] {
        let mut fabric = loaded_fabric(k);
        group.bench_function(BenchmarkId::new("max_min_resolve", format!("{FLOWS}flows_{k}to1")), |b| {
            b.iter(|| fabric.resolve_full(0.0));
        });
    }
    group.bench_function(BenchmarkId::new("packet_incast_drain", format!("{PACKET_FLOWS}flows_4to1")), |b| {
        b.iter(|| drain_packet_fabric(&mut loaded_packet_fabric()));
    });
    group.finish();
}

criterion_group!(benches, bench_fabric_solver);
criterion_main!(benches);

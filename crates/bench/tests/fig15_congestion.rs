//! Acceptance tests for the fig15 congestion experiment: the direct
//! AlltoAll must measurably degrade on an oversubscribed fat-tree while the
//! pipelined ring stays topology-oblivious, and the whole sweep must be
//! deterministic (same seed, identical points).

use ec_bench::congestion::{fig15_engine, run_point, Collective, CongestionConfig};

fn cfg(ranks: usize) -> CongestionConfig {
    let mut cfg = CongestionConfig::new(ranks);
    // CI-sized payloads: the contrast is about topology, not byte counts.
    cfg.alltoall_block = 16 * 1024;
    cfg.ring_bytes = 2_000_000;
    cfg
}

#[test]
fn alltoall_degrades_under_oversubscription_but_ring_does_not() {
    let cfg = cfg(64);
    let a2a_flat = run_point(&cfg, Collective::Alltoall, 1.0);
    let a2a_over = run_point(&cfg, Collective::Alltoall, 4.0);
    assert!(
        a2a_over.makespan > 1.5 * a2a_flat.makespan,
        "4:1 oversubscription must measurably slow the alltoall: {} vs {}",
        a2a_over.makespan,
        a2a_flat.makespan
    );
    assert!(a2a_over.core_congestion_time > a2a_flat.core_congestion_time);
    assert!(a2a_over.congested_links >= 1);

    let ring_flat = run_point(&cfg, Collective::Ring, 1.0);
    let ring_over = run_point(&cfg, Collective::Ring, 4.0);
    let drift = (ring_over.makespan - ring_flat.makespan).abs() / ring_flat.makespan;
    assert!(
        drift < 0.02,
        "the ring crosses the core one flow at a time and must not see the taper: {} vs {}",
        ring_over.makespan,
        ring_flat.makespan
    );
    assert!((ring_over.core_congestion_time - 0.0).abs() < 1e-12, "ring traffic never saturates an uplink");
}

#[test]
fn fig15_points_are_deterministic_per_seed() {
    let cfg = cfg(64);
    for collective in [Collective::Alltoall, Collective::Ring] {
        for k in [1.0, 2.0, 4.0] {
            let a = run_point(&cfg, collective, k);
            let b = run_point(&cfg, collective, k);
            assert_eq!(
                a.makespan.to_bits(),
                b.makespan.to_bits(),
                "{} k={k}: same seed must give a bit-identical makespan",
                collective.label()
            );
            assert_eq!(a.max_link_utilization.to_bits(), b.max_link_utilization.to_bits());
            assert_eq!(a.core_congestion_time.to_bits(), b.core_congestion_time.to_bits());
        }
    }
    // A different seed genuinely perturbs the jittered fabric.
    let mut other = cfg.clone();
    other.seed = 43;
    let a = run_point(&cfg, Collective::Alltoall, 2.0);
    let b = run_point(&other, Collective::Alltoall, 2.0);
    assert_ne!(a.makespan.to_bits(), b.makespan.to_bits());
}

#[test]
fn congestion_grows_with_the_taper() {
    let cfg = cfg(64);
    let mut previous = 0.0;
    for k in [1.0, 2.0, 4.0] {
        let p = run_point(&cfg, Collective::Alltoall, k);
        assert!(p.core_congestion_time >= previous, "core saturation time must not shrink as the taper grows: k={k}");
        previous = p.core_congestion_time;
    }
}

/// One pinned engine-level run: `(ranks, taper, collective, fingerprint,
/// makespan, solver passes, balanced swaps)`.
type Pin = (usize, f64, Collective, &'static str, &'static str, u64, u64);

fn assert_pinned(pins: &[Pin]) {
    for &(ranks, taper, collective, fingerprint, makespan, solves, swaps) in pins {
        let cfg = CongestionConfig::new(ranks);
        let report = fig15_engine(&cfg, taper).run(&collective.program(&cfg)).expect("fig15 program must simulate");
        assert_eq!(
            (
                format!("{:016x}", report.fingerprint()),
                format!("{:.12e}", report.makespan()),
                report.metrics.fabric_solves,
                report.metrics.balanced_swap_hits
            ),
            (fingerprint.to_owned(), makespan.to_owned(), solves, swaps),
            "{} p={ranks} {taper}:1 moved",
            collective.label()
        );
    }
}

#[test]
fn flow_fabric_cells_are_pinned() {
    // Recorded on the commit before the flow fabric's data layout was
    // rebuilt: a solver change must not move one simulated bit.  The two
    // p=256 4:1 cells are the repo benchmark's `alltoall_flow` workload.
    assert_pinned(&[
        (256, 4.0, Collective::Alltoall, "65de75dbae94d4af", "1.157470115184e-2", 16_382, 48_381),
        (256, 4.0, Collective::Ring, "1f393788eae3690d", "3.740081796478e-3", 65_028, 0),
        (64, 1.0, Collective::Alltoall, "f74b97f8d92aae04", "8.130147084283e-4", 1023, 2880),
        (64, 1.0, Collective::Ring, "d0bb6bad377b069f", "3.150436440085e-3", 3959, 0),
        (64, 2.0, Collective::Alltoall, "337402a1525ebd6c", "1.040349369201e-3", 1023, 2880),
        (64, 2.0, Collective::Ring, "873366a177d949ed", "3.150436440085e-3", 3959, 0),
        (128, 8.0, Collective::Alltoall, "13ac1727126d3218", "9.880509181648e-3", 4095, 11_904),
        (128, 8.0, Collective::Ring, "8d07077ab5560d1c", "3.370634012677e-3", 16_123, 0),
    ]);
}

#[test]
#[cfg_attr(debug_assertions, ignore = "p=256 at full bisection: release builds only")]
fn full_bisection_p256_cells_are_pinned() {
    assert_pinned(&[
        (256, 1.0, Collective::Alltoall, "7c2a451f2395aaf1", "3.642903520018e-3", 16_271, 48_049),
        (256, 1.0, Collective::Ring, "7101451f868e154b", "3.740081796478e-3", 65_028, 0),
    ]);
}

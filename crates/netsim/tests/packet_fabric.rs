//! Cross-validation of the per-packet fabric against the flow-level solver,
//! plus property tests for the invariants the packet backend must hold:
//! packet conservation, PFC losslessness, and go-back-N determinism under
//! seeded loss.
//!
//! The two backends model the same physics at different granularity, so on
//! workloads where max-min fair sharing is exact (uncontended paths, rings
//! through a non-blocking switch) their makespans must agree to within the
//! store-and-forward overhead of packetization.

use ec_netsim::{
    ClusterSpec, CongControl, CostModel, Dcqcn, Engine, FixedWindow, LossConfig, PacketConfig, PacketFabric, PfcConfig,
    ProgramBuilder, SimError, Topology,
};
use proptest::prelude::*;

const GIB: u32 = 1 << 30;

/// Drive a bare `PacketFabric` until every flow completes; returns the
/// finish time.  Panics if the fabric goes idle with flows outstanding.
fn drain(fabric: &mut PacketFabric, flows: usize, start: f64) -> f64 {
    let mut now = start;
    let mut done = Vec::new();
    let mut remaining = flows;
    while remaining > 0 {
        now = fabric.resolve(now).expect("fabric went idle with flows outstanding");
        done.clear();
        fabric.take_completed(now, &mut done);
        remaining -= done.len();
    }
    fabric.resolve(now);
    now
}

/// Build a put-notify ring: rank `i` puts `bytes` to rank `i+1` and waits
/// for the notification from rank `i-1`.
fn ring_program(ranks: usize, bytes: u32) -> ec_netsim::Program {
    let mut b = ProgramBuilder::new(ranks);
    for r in 0..ranks {
        b.put_notify(r, (r + 1) % ranks, u64::from(bytes), r as u32);
    }
    for r in 0..ranks {
        b.wait_notify(r, &[((r + ranks - 1) % ranks) as u32]);
    }
    b.build()
}

/// Pairwise-disjoint puts: rank `i` (first half) puts to rank `i + p/2`.
fn disjoint_pairs_program(ranks: usize, bytes: u32) -> ec_netsim::Program {
    assert!(ranks.is_multiple_of(2));
    let mut b = ProgramBuilder::new(ranks);
    for r in 0..ranks / 2 {
        b.put_notify(r, r + ranks / 2, u64::from(bytes), r as u32);
        b.wait_notify(r + ranks / 2, &[r as u32]);
    }
    b.build()
}

/// Run `program` through the flow-level fabric and the packet fabric over
/// the same topology and assert the makespans agree within `tol` (relative).
fn assert_backends_agree(program: &ec_netsim::Program, ranks: usize, cfg: PacketConfig, tol: f64, what: &str) {
    let cluster = ClusterSpec::homogeneous(ranks, 1);
    let cost = CostModel::skylake_fdr();
    let topo = Topology::single_switch(ranks, 1.0 / cost.beta_inter);

    let flow =
        Engine::new(cluster.clone(), cost.clone()).with_topology(topo.clone()).run(program).expect("flow-level run");
    let packet = Engine::new(cluster, cost).with_packet_network(topo, cfg).run(program).expect("packet-level run");

    let (mf, mp) = (flow.makespan(), packet.makespan());
    let rel = (mp - mf).abs() / mf;
    assert!(
        rel < tol,
        "{what}: flow-level makespan {mf:.3e} vs packet-level {mp:.3e} diverge by {:.1}% (tol {:.1}%)",
        rel * 100.0,
        tol * 100.0
    );
    // A clean fabric (no seeded loss, PFC or sender-stall backpressure on)
    // must not retransmit: the agreement would otherwise be coincidental.
    assert_eq!(packet.metrics.packet_drops, 0, "{what}: lossless config must not drop");
    assert_eq!(packet.metrics.packet_retransmits, 0, "{what}: lossless config must not retransmit");
    assert!(packet.metrics.packet_events > 0, "{what}: the packet backend must actually have run");
}

#[test]
fn packet_agrees_with_flow_on_uncontended_pairs() {
    for ranks in [2usize, 8, 32, 64] {
        assert_backends_agree(
            &disjoint_pairs_program(ranks, 1 << 20),
            ranks,
            PacketConfig::default(),
            0.05,
            &format!("disjoint pairs, p={ranks}, dcqcn"),
        );
    }
}

#[test]
fn packet_agrees_with_flow_on_ring() {
    for ranks in [4usize, 16, 64] {
        assert_backends_agree(
            &ring_program(ranks, 1 << 20),
            ranks,
            PacketConfig::default(),
            0.05,
            &format!("ring, p={ranks}, dcqcn"),
        );
    }
}

#[test]
fn packet_agrees_with_flow_under_fixed_window() {
    let cfg = PacketConfig::default().with_cc(CongControl::FixedWindow(FixedWindow::default()));
    assert_backends_agree(&ring_program(16, 1 << 20), 16, cfg, 0.05, "ring, p=16, fixed-window");
    assert_backends_agree(&disjoint_pairs_program(32, 1 << 20), 32, cfg, 0.05, "pairs, p=32, fixed-window");
}

#[test]
fn packet_backend_fingerprint_is_deterministic() {
    let program = ring_program(8, 1 << 18);
    let run = || {
        Engine::new(ClusterSpec::homogeneous(8, 1), CostModel::skylake_fdr())
            .with_packet_network(Topology::fat_tree(8, 4, 2.0, 12.5e9), PacketConfig::default())
            .run(&program)
            .expect("packet run")
    };
    let (a, b) = (run(), run());
    assert_eq!(a.fingerprint(), b.fingerprint(), "repeat packet runs must fingerprint identically");
    assert_eq!(a.links, b.links, "per-link packet counters must be deterministic");
    assert!(a.links.iter().map(|l| l.packets).sum::<u64>() > 0, "links must carry packet counts");
}

#[test]
fn engine_reports_a_bad_packet_config_as_an_error() {
    // A real fabric and the contention-free fallback both reject the config.
    let bad = PacketConfig { mtu: 0, ..PacketConfig::default() };
    for topo in [Topology::single_switch(4, 12.5e9), Topology::contention_free(4)] {
        let err = Engine::new(ClusterSpec::homogeneous(4, 1), CostModel::skylake_fdr())
            .with_packet_network(topo, bad)
            .run(&ring_program(4, 4096))
            .unwrap_err();
        assert!(matches!(err, SimError::BadPacketConfig(_)), "got {err:?}");
    }
}

#[test]
fn packet_fabric_new_returns_typed_errors_instead_of_panicking() {
    let topo = Topology::single_switch(4, 12.5e9);
    let err = PacketFabric::new(&topo, PacketConfig { mtu: 0, ..PacketConfig::default() }).unwrap_err();
    assert!(matches!(err, SimError::BadPacketConfig(_)), "got {err:?}");
    let disconnected = Topology::custom("island", 2, 0, Vec::new());
    let err = PacketFabric::new(&disconnected, PacketConfig::default()).unwrap_err();
    assert!(matches!(err, SimError::BadTopology(_)), "got {err:?}");
}

/// Strategy: a small incast/spread flow set on a single-switch topology,
/// decoded from raw words (the vendored proptest has no tuple strategies).
fn flow_set() -> impl Strategy<Value = (usize, Vec<(usize, usize, u32)>)> {
    collection::vec(0u64..u64::MAX, 13).prop_map(|words| {
        let nodes = 2 + (words[0] % 8) as usize;
        let count = 1 + (words[1] % 11) as usize;
        let flows = words[2..2 + count]
            .iter()
            .map(|&w| {
                let src = (w % nodes as u64) as usize;
                let dst = (src + 1 + ((w >> 16) % (nodes as u64 - 1)) as usize) % nodes;
                let bytes = 3000 * (1 + (w >> 32) % 63) as u32;
                (src, dst, bytes)
            })
            .collect();
        (nodes, flows)
    })
}

fn build(topo: &Topology, cfg: PacketConfig, flows: &[(usize, usize, u32)]) -> PacketFabric {
    let mut fabric = PacketFabric::new(topo, cfg).expect("topology routes");
    for &(src, dst, bytes) in flows {
        fabric.add_flow(0.0, src, dst, f64::from(bytes));
    }
    fabric
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every data packet the fabric ever serialized is accounted for:
    /// delivered to its receiver, dropped at a queue (or by seeded loss),
    /// or discarded as an out-of-window duplicate.
    #[test]
    fn packets_are_conserved_under_loss(set in flow_set(), seed in 0u64..u64::MAX) {
        let (nodes, flows) = set;
        let topo = Topology::single_switch(nodes, 12.5e9);
        let mut cfg = PacketConfig::lossy().with_cc(CongControl::FixedWindow(FixedWindow::default()));
        cfg.queue_capacity = 8 * u64::from(cfg.mtu);
        cfg.loss = Some(LossConfig { rate: 0.02, seed });
        let mut fabric = build(&topo, cfg, &flows);
        drain(&mut fabric, flows.len(), 0.0);
        let t = fabric.totals();
        prop_assert_eq!(
            t.data_packets,
            t.delivered_packets + t.drops + t.discarded_packets,
            "sent must equal delivered + dropped + discarded: {:?}", t
        );
    }

    /// With PFC enabled and no seeded loss the fabric is lossless: no
    /// packet is ever dropped and go-back-N never fires, whatever the
    /// congestion pattern.
    #[test]
    fn pfc_keeps_the_fabric_lossless(set in flow_set()) {
        let (nodes, flows) = set;
        let topo = Topology::single_switch(nodes, 12.5e9);
        // Tight-ish thresholds, but with enough headroom above xoff to
        // absorb the packets already in flight when the pause asserts (one
        // in-service packet plus one in the latency pipe per inbound port).
        let mut cfg = PacketConfig::default();
        cfg.pfc = Some(PfcConfig { xoff: 6 * u64::from(cfg.mtu), xon: 3 * u64::from(cfg.mtu) });
        cfg.queue_capacity = 32 * u64::from(cfg.mtu);
        let mut fabric = build(&topo, cfg, &flows);
        drain(&mut fabric, flows.len(), 0.0);
        let t = fabric.totals();
        prop_assert_eq!(t.drops, 0, "PFC must prevent every drop: {:?}", t);
        prop_assert_eq!(t.retransmits, 0, "a lossless fabric must never rewind: {:?}", t);
        prop_assert_eq!(t.delivered_packets, t.data_packets - t.discarded_packets);
    }

    /// Seeded loss plus go-back-N recovery is a pure function of the seed:
    /// two runs with the same seed are byte-identical, and every flow still
    /// completes.
    #[test]
    fn go_back_n_recovery_is_deterministic(set in flow_set(), seed in 0u64..u64::MAX) {
        let (nodes, flows) = set;
        let topo = Topology::single_switch(nodes, 12.5e9);
        let mut cfg = PacketConfig::lossy();
        cfg.loss = Some(LossConfig { rate: 0.05, seed });
        let run = |cfg: PacketConfig| {
            let mut fabric = build(&topo, cfg, &flows);
            let finish = drain(&mut fabric, flows.len(), 0.0);
            (finish, *fabric.totals(), fabric.packet_usage().to_vec())
        };
        let (ta, a, ua) = run(cfg);
        let (tb, b, ub) = run(cfg);
        prop_assert_eq!(ta.to_bits(), tb.to_bits(), "finish times must be bit-identical");
        prop_assert_eq!(a, b, "totals must be identical");
        prop_assert_eq!(ua, ub, "per-link counters must be identical");
    }

    /// On uncontended paths (one flow per source and destination) the packet
    /// fabric completes within a store-and-forward margin of the flow-level
    /// solver's prediction, for any message size.
    #[test]
    fn packet_matches_flow_on_uncontended_paths(
        pairs in 1usize..8,
        bytes in (1u32..=256).prop_map(|k| k * 16 * 1024),
    ) {
        let nodes = 2 * pairs;
        let topo = Topology::single_switch(nodes, 12.5e9);
        let flows: Vec<_> = (0..pairs).map(|i| (i, i + pairs, bytes)).collect();

        let mut flow_fabric = ec_netsim::Fabric::new(topo.clone()).expect("topology routes");
        for &(src, dst, b) in &flows {
            flow_fabric.add_flow(0.0, src, dst, f64::from(b));
        }
        let mut now = 0.0;
        let mut done = Vec::new();
        let mut remaining = flows.len();
        while remaining > 0 {
            now = flow_fabric.resolve(now).expect("flow fabric idle early");
            flow_fabric.take_completed(now, &mut done);
            remaining -= done.len();
            done.clear();
        }

        let mut packet_fabric = build(&topo, PacketConfig::default(), &flows);
        let packet_finish = drain(&mut packet_fabric, flows.len(), 0.0);

        let rel = (packet_finish - now).abs() / now;
        prop_assert!(
            rel < 0.05 || (packet_finish - now).abs() < 20e-6,
            "uncontended makespans diverge: flow {now:.3e} vs packet {packet_finish:.3e} ({:.1}%)",
            rel * 100.0
        );
    }
}

#[test]
fn incast_under_taper_shows_pfc_pressure() {
    // 16 nodes behind 4-node leaves with a 4:1 taper; everyone sends to
    // node 0.  The tapered uplink must fill, PFC must assert, and the run
    // must stay lossless — the precursor of the fig18 winner flip.
    let topo = Topology::fat_tree(16, 4, 4.0, 12.5e9);
    let flows: Vec<_> = (1..16).map(|src| (src, 0usize, GIB / 4096)).collect();
    let mut fabric = build(&topo, PacketConfig::default(), &flows);
    drain(&mut fabric, flows.len(), 0.0);
    let t = fabric.totals();
    assert_eq!(t.drops, 0, "PFC keeps the incast lossless: {t:?}");
    assert!(t.pfc_pauses > 0, "a 15:1 incast through a 4:1 taper must trigger PFC: {t:?}");
    assert!(t.ecn_marks > 0, "switch queues above the mark threshold must mark: {t:?}");
}

#[test]
fn dcqcn_throttles_the_incast_sender_rate() {
    // Same incast with and without congestion control: DCQCN must cut the
    // ECN mark volume relative to the uncontrolled fixed-window sender.
    let topo = Topology::fat_tree(16, 4, 4.0, 12.5e9);
    let flows: Vec<_> = (1..16).map(|src| (src, 0usize, GIB / 2048)).collect();

    let mut dcqcn = build(&topo, PacketConfig::default().with_cc(CongControl::Dcqcn(Dcqcn::default())), &flows);
    drain(&mut dcqcn, flows.len(), 0.0);
    let mut fixed =
        build(&topo, PacketConfig::default().with_cc(CongControl::FixedWindow(FixedWindow::default())), &flows);
    drain(&mut fixed, flows.len(), 0.0);

    let (d, f) = (dcqcn.totals(), fixed.totals());
    assert!(
        d.ecn_marks < f.ecn_marks,
        "DCQCN must shrink standing queues vs fixed-window: {} marks vs {}",
        d.ecn_marks,
        f.ecn_marks
    );
}

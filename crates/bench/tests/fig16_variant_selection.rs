//! Acceptance tests for the fig16 variant-selection experiment: the tuner's
//! predictions must be deterministic, rank candidates sensibly across the
//! latency/bandwidth spectrum, and contain at least one cell where the
//! oversubscribed fabric flips the vendor winner chosen by the
//! topology-blind alpha–beta model.

use ec_bench::tuner::{
    fig16_preset, select_allreduce, select_alltoall, winner_table, CollectiveKind, Pricing, SweepConfig,
};

#[test]
fn selections_are_deterministic_per_configuration() {
    let preset = fig16_preset(64, 4, 4.0);
    for pricing in [Pricing::AlphaBeta, Pricing::Fabric] {
        let a = select_allreduce(&preset, 32_768, pricing);
        let b = select_allreduce(&preset, 32_768, pricing);
        for (pa, pb) in a.predictions.iter().zip(b.predictions.iter()) {
            assert_eq!(pa.seconds.to_bits(), pb.seconds.to_bits(), "{} under {pricing:?}", pa.label);
        }
        assert_eq!(a.winner().label, b.winner().label);
    }
}

#[test]
fn the_4_to_1_fabric_flips_an_alpha_beta_vendor_winner() {
    // The smoke grid already contains the acceptance cell: at p = 16 and
    // 32 KiB the alpha-beta model picks Rabenseifner, while the fabric
    // prefers the neighbor-traffic Shumilin ring.
    let cfg = SweepConfig::smoke();
    let rows = winner_table(&cfg);
    let max_taper = *cfg.tapers.last().unwrap();
    let flips: Vec<_> = rows.iter().filter(|r| r.vendor_flip_at(max_taper)).collect();
    assert!(
        !flips.is_empty(),
        "the smoke grid must contain at least one cell where the {max_taper}:1 fabric flips the vendor winner"
    );
    for row in &flips {
        let fabric_winner = &row.fabric.last().unwrap().1;
        assert_ne!(
            row.alpha_beta.best_vendor().label,
            fabric_winner.best_vendor().label,
            "flip accounting must match the selections"
        );
    }
}

#[test]
fn winners_track_the_latency_bandwidth_tradeoff() {
    let preset = fig16_preset(64, 4, 1.0);
    // Tiny alltoall blocks: Bruck's log rounds win; large blocks: pairwise.
    let tiny = select_alltoall(&preset, 8, Pricing::Fabric);
    assert_eq!(tiny.best_vendor().label, "ss-bruck");
    let large = select_alltoall(&preset, 32 * 1024, Pricing::Fabric);
    assert!(large.best_vendor().label.contains("pairwise"), "32 KiB winner was {}", large.best_vendor().label);
    // The one-sided GASPI alltoall beats the whole vendor frontier at the
    // paper's peak block size (Figure 13's headline result).
    assert_eq!(large.winner().label, "gaspi-direct");
    // Large allreduce payloads: a ring variant wins; the GASPI ring beats
    // the vendor frontier (Figures 11-12's headline result).
    let red = select_allreduce(&preset, 4_194_304, Pricing::Fabric);
    assert_eq!(red.winner().label, "gaspi-ring");
    assert!(red.best_vendor().label.contains("ring"), "4 MiB vendor winner was {}", red.best_vendor().label);
}

#[test]
fn every_candidate_prediction_is_positive_and_finite() {
    let preset = fig16_preset(16, 4, 2.0);
    for pricing in [Pricing::AlphaBeta, Pricing::Fabric] {
        let allreduce = select_allreduce(&preset, 4096, pricing);
        assert_eq!(allreduce.predictions.len(), 13);
        let alltoall = select_alltoall(&preset, 4096, pricing);
        assert_eq!(alltoall.predictions.len(), 3);
        for p in allreduce.predictions.iter().chain(alltoall.predictions.iter()) {
            assert!(p.seconds.is_finite() && p.seconds > 0.0, "{} under {pricing:?}: {}", p.label, p.seconds);
        }
    }
}

#[test]
fn smoke_rows_cover_both_collectives_and_all_tapers() {
    let cfg = SweepConfig::smoke();
    let rows = winner_table(&cfg);
    let expected = cfg.rank_counts.len() * (cfg.allreduce_bytes.len() + cfg.alltoall_bytes.len());
    assert_eq!(rows.len(), expected);
    for row in &rows {
        assert_eq!(row.fabric.len(), cfg.tapers.len());
        assert!(matches!(row.collective, CollectiveKind::Allreduce | CollectiveKind::Alltoall));
    }
}

/// Every prediction of the smoke table, bit for bit.  Read on the parent of
/// the change that compiles each candidate once and fuses local ops in the
/// strict loop, re-read when `mpi2`, `mpi7` and `mpi8` became single-source
/// bodies (their 8 B cells no longer price one-byte windows) and again when
/// the two candidates that duplicated them left the pool, and when
/// `mpi-pairwise` began to price the self-copy of the single-source
/// pairwise body, and when `ss-pairwise`, which then duplicated it, left the
/// pool; otherwise the table must not move.
#[test]
fn pinned_smoke_winner_table() {
    let rows = winner_table(&SweepConfig::smoke());
    let seconds = rows.iter().flat_map(|row| {
        std::iter::once(&row.alpha_beta)
            .chain(row.fabric.iter().map(|(_, sel)| sel))
            .flat_map(|sel| sel.predictions.iter().map(|p| p.seconds.to_bits()))
    });
    let digest = seconds.fold(0u64, |acc, bits| ec_netsim::SplitMix64::mix(acc ^ bits));
    assert_eq!(format!("{digest:016x}"), "478375333ba61a2d");
}

/// The table prices through `run_compiled` on a program compiled once, the
/// selectors through `makespan`: both must agree bit for bit on every engine.
#[test]
fn winner_table_agrees_with_the_selectors() {
    let cfg = SweepConfig::smoke();
    for row in winner_table(&cfg) {
        let select = |taper: f64, pricing: Pricing| {
            let preset = fig16_preset(row.ranks, cfg.ranks_per_node, taper);
            match row.collective {
                CollectiveKind::Allreduce => select_allreduce(&preset, row.bytes, pricing),
                CollectiveKind::Alltoall => select_alltoall(&preset, row.bytes, pricing),
            }
        };
        let bits = |sel: &ec_bench::tuner::Selection| -> Vec<_> {
            sel.predictions.iter().map(|p| (p.label, p.vendor, p.seconds.to_bits())).collect()
        };
        let cell = format!("{} p={} {} B", row.collective.label(), row.ranks, row.bytes);
        assert_eq!(bits(&row.alpha_beta), bits(&select(1.0, Pricing::AlphaBeta)), "{cell}, alpha-beta");
        for (taper, sel) in &row.fabric {
            assert_eq!(bits(sel), bits(&select(*taper, Pricing::Fabric)), "{cell}, fabric {taper}:1");
        }
    }
}

/// A barrier program (`mpi8-ring`: two `barrier_all` phases) and a
/// rendezvous-sized two-sided ring at four ranks per node, on all three
/// network models: fingerprint, makespan bits, total wait-time bits.  Same
/// provenance as the table pin above.
#[test]
fn pinned_barrier_and_rendezvous_rings_on_every_network_model() {
    use ec_baseline::MpiAllreduceVariant;
    use ec_netsim::{Engine, PacketConfig};
    let mut got = Vec::new();
    for (variant, ranks, bytes) in
        [(MpiAllreduceVariant::Ring, 16, 32_768), (MpiAllreduceVariant::ShumilinRing, 64, 4_194_304)]
    {
        let preset = fig16_preset(ranks, 4, 4.0);
        let program = variant.schedule(ranks, bytes, 4);
        let packet = Engine::new(preset.cluster.clone(), preset.cost.clone())
            .with_packet_network(preset.topology.clone(), PacketConfig::default());
        for (model, engine) in
            [("alpha-beta", preset.engine_alpha_beta()), ("flow", preset.engine()), ("packet", packet)]
        {
            let r = engine.run(&program).expect("ring must simulate");
            got.push(format!(
                "{} p={ranks} {model} {:016x} {:016x} {:016x}",
                variant.label(),
                r.fingerprint(),
                r.makespan().to_bits(),
                r.total_wait_time().to_bits()
            ));
        }
    }
    let pins = [
        "mpi8-ring p=16 alpha-beta 0916c260d814e998 3f12df9b3e162236 3f4cc567c3a1f9cd",
        "mpi8-ring p=16 flow 0398bb32c8430c2f 3f12df9b3e162236 3f4cc567c3a1f9cd",
        "mpi8-ring p=16 packet 8458d4ef9f4a5d97 3f161a5544d15e15 3f519d6de88c38c7",
        "mpi7-shumilin-ring p=64 alpha-beta d832c6f7fac4518f 3f685b38dd578e6e 3fc24e34fa0453ad",
        "mpi7-shumilin-ring p=64 flow 7a84ab912903599c 3f685b38dd578e6e 3fc24e34fa0453ad",
        "mpi7-shumilin-ring p=64 packet b903f063b7e4ed3d 3f6a1d6d4e3717ab 3fc3c9711c8a40ae",
    ];
    assert_eq!(got, pins, "got:\n{}", got.join("\n"));
}

//! Acceptance tests for the fig14 SSP-at-scale experiment: the simulated
//! sweep must be deterministic (same seed, identical reports) at 512+
//! workers, staleness must pay off under injected stragglers, and the
//! notification-conservation invariant must hold.

use ec_bench::ssp_scale::{fig14_scenario, ssp_scale_program, SspScaleConfig};
use ec_collectives::schedule::HypercubeAllreduceSource;
use ec_netsim::{ClusterSpec, CostModel, Engine, Op, Program, ProgramSource, RankProgram, RunReport, SplitMix64};

fn run(workers: usize, slack: usize, seed: u64) -> RunReport {
    let mut cfg = SspScaleConfig::new(workers, slack);
    cfg.iterations = 10;
    cfg.seed = seed;
    let program = ssp_scale_program(&cfg);
    let engine = Engine::new(ClusterSpec::homogeneous(workers, 1), CostModel::marenostrum4_opa())
        .with_scenario(fig14_scenario(seed));
    engine.run(&program).expect("fig14 program must simulate")
}

#[test]
fn fig14_is_deterministic_at_512_workers() {
    let a = run(512, 4, 42);
    let b = run(512, 4, 42);
    assert!(a.makespan() > 0.0);
    assert_eq!(a.ranks, b.ranks, "same seed must reproduce identical per-rank stats");
    // A different seed yields a genuinely different heterogeneous run.
    let c = run(512, 4, 43);
    assert_ne!(a.makespan(), c.makespan());
}

#[test]
fn slack_reduces_wait_time_under_stragglers() {
    let sync = run(512, 0, 42);
    let stale = run(512, 8, 42);
    assert!(
        stale.total_wait_time() < sync.total_wait_time(),
        "slack 8 must absorb straggler hiccups: {} vs {}",
        stale.total_wait_time(),
        sync.total_wait_time()
    );
    assert!(stale.makespan() < sync.makespan(), "staleness must shorten the heterogeneous makespan");
}

#[test]
fn notification_conservation_holds_at_scale() {
    for slack in [0, 3, 8] {
        let r = run(512, slack, 42);
        assert!(
            r.total_notifications_consumed() <= r.total_notifications_received(),
            "slack {slack}: consumed more arrivals than were delivered"
        );
    }
}

#[test]
fn scenario_injects_the_configured_stragglers() {
    let r = run(512, 2, 42);
    // fig14_scenario: 2% of nodes at 1.5x on top of 10% speed spread.
    let slow = r.ranks.iter().filter(|s| s.compute_scale > 1.3).count();
    assert_eq!(slow, 10, "2% of 512 single-rank nodes are persistent stragglers");
    assert!(r.max_compute_scale() > 1.3 && r.max_compute_scale() < 1.7);
}

/// How a pinned SSP run is perturbed.
#[derive(Debug, Clone, Copy)]
enum Env {
    /// `fig14_scenario(7)` on top of the program's own jitter and hiccups.
    Fig14,
    /// No scenario: only the program's per-rank compute jitter differs.
    Homogeneous,
    /// No scenario and a jitter-free program: every rank's timeline is
    /// bit-identical, so nearly every event time ties with others.
    Lockstep,
}

fn pin_run(workers: usize, slack: usize, env: Env, traced: bool) -> RunReport {
    let mut cfg = SspScaleConfig { iterations: 10, seed: 7, ..SspScaleConfig::new(workers, slack) };
    if matches!(env, Env::Lockstep) {
        (cfg.jitter, cfg.hiccup_prob) = (0.0, 0.0);
    }
    let mut engine =
        Engine::new(ClusterSpec::homogeneous(workers, 1), CostModel::marenostrum4_opa()).with_trace(traced);
    if matches!(env, Env::Fig14) {
        engine = engine.with_scenario(fig14_scenario(7));
    }
    let report = engine.run(&ssp_scale_program(&cfg)).expect("ssp program must simulate");
    assert_eq!(report.metrics.dataflow_burst_ops, 0, "the multi-writer hypercube runs the strict loop");
    report
}

/// Fingerprint, makespan bits and total wait-time bits of the strict loop's
/// SSP runs.  Read on the parent of the change that runs local ops inline
/// with the op that released them (no `Resume` per local op): the loop may
/// schedule fewer events, not move a simulated bit.
#[test]
fn pinned_ssp_reports_on_the_strict_loop() {
    let mut got = Vec::new();
    for workers in [64, 512] {
        for slack in [0, 2] {
            for env in [Env::Fig14, Env::Homogeneous, Env::Lockstep] {
                let r = pin_run(workers, slack, env, false);
                got.push(format!(
                    "{workers} {slack} {env:?} {:016x} {:016x} {:016x}",
                    r.fingerprint(),
                    r.makespan().to_bits(),
                    r.total_wait_time().to_bits()
                ));
            }
        }
    }
    let pins = [
        "64 0 Fig14 0b492e687098c41a 3f8282d9b9a7ff08 3fd555181fb27678",
        "64 0 Homogeneous 004d7aeb175c42a1 3f83001fdb057a1c 3fd5145db6ade5d1",
        "64 0 Lockstep 875cde92617c35e3 3f62faf5fb47791f 3f5b90ec92361414",
        "64 2 Fig14 3dbfd19d4358805f 3f7505484e989506 3fafd594fd9fd4ee",
        "64 2 Homogeneous e31bba487292a844 3f75182a8631e1b0 3fad9d9efaa2794b",
        "64 2 Lockstep 3f141c77e50e13f0 3f62553f930c0d93 0000000000000000",
        "512 0 Fig14 244b044344ab3f3d 3f89276b42ac19d3 400f8f94e6bdb324",
        "512 0 Homogeneous 61851a1835655989 3f88b1c9d9fcb3a6 400d614d4aff4a6d",
        "512 0 Lockstep bdb4e221ded5e86f 3f641746a5144cdf 3f808e5a10beaeba",
        "512 2 Fig14 e1cb35a30f9c33ec 3f7a3134d57edb65 3fe57181ee9e7d80",
        "512 2 Homogeneous 9ca8b38985c5d38e 3f790ac842b25e3c 3fe3fd5a8d9df51f",
        "512 2 Lockstep f95550c5822750d5 3f634eb873193f5e 0000000000000000",
    ];
    assert_eq!(got, pins, "got:\n{}", got.join("\n"));
}

/// Every field of every trace event of the 64-worker slack-2 runs in the
/// canonical `(time, rank, seq)` order (same provenance as the pins above).
#[test]
fn pinned_ssp_traces_on_the_strict_loop() {
    let got: Vec<_> = [Env::Fig14, Env::Lockstep]
        .into_iter()
        .map(|env| {
            let report = pin_run(64, 2, env, true);
            let bytes = report.trace.iter().flat_map(|e| format!("{e:?}").into_bytes());
            let digest = bytes.fold(0u64, |acc, b| SplitMix64::mix(acc ^ u64::from(b)));
            format!("{env:?} {} {digest:016x}", report.trace.len())
        })
        .collect();
    assert_eq!(got, ["Fig14 29137 f95f74f282ef8186", "Lockstep 28928 463bf0381da51116"]);
}

/// The strict loop schedules one `Resume` per rank at start-up and one per
/// *non-local* op (the computes and reduces run inline with the op before
/// them), plus one `NotifyVisible` per put.
#[test]
fn ssp_event_count_follows_the_non_local_ops() {
    let cfg = SspScaleConfig::new(16, 2);
    let dims = 4;
    let puts = cfg.iterations * dims;
    let waits = (cfg.iterations - cfg.slack) * dims;
    let report = Engine::new(ClusterSpec::homogeneous(16, 1), CostModel::marenostrum4_opa())
        .run(&ssp_scale_program(&cfg))
        .expect("ssp program must simulate");
    assert_eq!(report.metrics.dataflow_burst_ops, 0);
    assert_eq!(report.metrics.events_scheduled, (16 * (1 + puts + waits + puts)) as u64);
}

/// ROADMAP item 11 (a): how far the hand-written SSP stand-in is from the
/// paper's Algorithm 1 at slack 0.  The recorded body runs, per iteration,
/// one compute op and then the `log2 p` dependent hypercube steps (each
/// forwards the partial reduction folded in the step before); the stand-in
/// issues all `log2 p` puts of the raw contribution up front, then waits on
/// each dimension.  Both run jitter- and hiccup-free on the fig14 cost model,
/// without and with `fig14_scenario(42)`.  Each line is `p`, whether the
/// scenario is on, and the recorded-over-stand-in makespan ratio (rounded,
/// then its exact bits).
#[test]
fn recorded_algorithm_1_against_the_ssp_stand_in() {
    let mut got = Vec::new();
    for p in [16, 64, 256, 1024] {
        let cfg = SspScaleConfig { jitter: 0.0, hiccup_prob: 0.0, ..SspScaleConfig::new(p, 0) };
        let body = HypercubeAllreduceSource::new(p, cfg.bytes);
        let recorded = Program {
            ranks: (0..p)
                .map(|rank| {
                    let mut ops = Vec::new();
                    for _ in 0..cfg.iterations {
                        ops.push(Op::Compute { seconds: cfg.compute });
                        body.rank_ops(rank, &mut ops);
                    }
                    RankProgram { ops }
                })
                .collect(),
        };
        let stand_in = ssp_scale_program(&cfg);
        for scenario in [false, true] {
            let mut engine = Engine::new(ClusterSpec::homogeneous(p, 1), CostModel::marenostrum4_opa());
            if scenario {
                engine = engine.with_scenario(fig14_scenario(42));
            }
            let ratio = engine.makespan(&recorded).unwrap() / engine.makespan(&stand_in).unwrap();
            got.push(format!("{p} {scenario} {ratio:.4} {:016x}", ratio.to_bits()));
        }
    }
    let pins = [
        "16 false 1.0617 3ff0fcb3f8fe7ba2",
        "16 true 1.0360 3ff09369f20e62c8",
        "64 false 1.0988 3ff194be0067a388",
        "64 true 1.0014 3ff005d5261d6656",
        "256 false 1.1331 3ff2215d6abf78a3",
        "256 true 1.0203 3ff0535333803cff",
        "1024 false 1.1650 3ff2a3cf7dacfd16",
        "1024 true 1.0213 3ff05738df4936f9",
    ];
    assert_eq!(got, pins, "got:\n{}", got.join("\n"));
}

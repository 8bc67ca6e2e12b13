//! Simulated SSP workload generator for the `fig14_ssp_scale` experiment.
//!
//! The paper's SSP matrix-factorization study (Figures 6–7) runs on 32 real
//! workers; the interesting staleness/straggler regime, however, lives at
//! hundreds of ranks — beyond what the threaded runtime can host.  This
//! module encodes the SSP execution pattern as an `ec_netsim::Program` so the
//! discrete-event engine can sweep it at 128–1024 simulated workers.
//!
//! ## Staleness as static dataflow
//!
//! Bounded staleness has a well-known static encoding: every worker *puts*
//! its contribution to each hypercube partner every iteration (notification
//! id = the hypercube dimension), but only *waits* for one arrival per
//! partner from iteration `slack` onward.  Because the engine keeps
//! notification **counters**, the wait at iteration `t` consumes the oldest
//! unconsumed arrival — exactly the partner's contribution from iteration
//! `t - slack`.  Slack 0 renders the fully synchronous hypercube; slack `s`
//! lets a worker run up to `s` iterations ahead of its slowest partner.
//!
//! ## Injected stragglers
//!
//! Two straggler mechanisms compose:
//!
//! * **transient hiccups** generated here: each (rank, iteration) compute
//!   duration is jittered and occasionally multiplied by a hiccup factor
//!   (OS noise, the paper's "straggling processes"), drawn from a
//!   [`SplitMix64`] stream seeded per rank — fully deterministic;
//! * **persistent heterogeneity** injected by the engine's
//!   [`Scenario`] layer: per-node speed factors, slow nodes, link jitter.

use ec_netsim::{Op, Program, RankProgram, Scenario, SplitMix64, WaitIds};

/// Parameters of one simulated SSP run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SspScaleConfig {
    /// Number of simulated workers (must be a power of two >= 2).
    pub workers: usize,
    /// Staleness bound: how many iterations a worker may run ahead of the
    /// partners it exchanges with (0 = fully synchronous).
    pub slack: usize,
    /// Number of SSP iterations.
    pub iterations: usize,
    /// Bytes exchanged with each hypercube partner per iteration.
    pub bytes: u64,
    /// Nominal per-iteration compute time in seconds.
    pub compute: f64,
    /// Relative half-width of the per-iteration compute jitter.
    pub jitter: f64,
    /// Probability that an iteration is a straggler hiccup.
    pub hiccup_prob: f64,
    /// Duration multiplier of a hiccup iteration.
    pub hiccup_factor: f64,
    /// Seed for the per-rank hiccup/jitter streams.
    pub seed: u64,
}

impl SspScaleConfig {
    /// Defaults mirroring the Figure 6 setup, scaled to simulation.
    pub fn new(workers: usize, slack: usize) -> Self {
        Self {
            workers,
            slack,
            iterations: 24,
            bytes: 32 * 1024,
            compute: 200e-6,
            jitter: 0.2,
            hiccup_prob: 0.05,
            hiccup_factor: 6.0,
            seed: 42,
        }
    }
}

/// The engine-level heterogeneity used by the fig14 sweep: mild persistent
/// node spread and link jitter on top of the transient hiccups the program
/// itself carries.
pub fn fig14_scenario(seed: u64) -> Scenario {
    Scenario::new(seed).with_compute_jitter(0.1).with_link_jitter(0.1, 0.1).with_stragglers(0.02, 1.5)
}

/// Build the SSP hypercube exchange program for `cfg`.
///
/// Per iteration each worker computes, puts its contribution to every
/// hypercube partner, and — once past the slack window — consumes one
/// (possibly stale) contribution per partner and folds it in.  The program
/// is deterministic in `cfg` (same config, same program).
///
/// # Panics
/// Panics if `workers` is not a power of two >= 2 or `bytes` is zero.
pub fn ssp_scale_program(cfg: &SspScaleConfig) -> Program {
    assert!(cfg.workers >= 2 && cfg.workers.is_power_of_two(), "workers must be a power of two >= 2");
    assert!(cfg.bytes > 0, "per-partner payload must be non-empty");
    let ranks = (0..cfg.workers)
        .map(|rank| {
            let mut ops = Vec::new();
            push_rank_ops(cfg, rank, &mut ops);
            RankProgram { ops }
        })
        .collect();
    Program { ranks }
}

/// Append rank `rank`'s op stream of the program [`ssp_scale_program`]
/// builds for `cfg` to `out`.  With `jitter` and `hiccup_prob` at zero every
/// compute op lasts exactly `compute` and all ranks' streams are alike.
pub(crate) fn push_rank_ops(cfg: &SspScaleConfig, rank: usize, out: &mut Vec<Op>) {
    let dims = cfg.workers.trailing_zeros() as usize;
    // One independent deterministic stream per rank.
    let mut rng = SplitMix64::new(cfg.seed ^ SplitMix64::mix(rank as u64 + 1));
    for iter in 0..cfg.iterations {
        let mut compute = cfg.compute * (1.0 + cfg.jitter * rng.next_symmetric_f64());
        if rng.next_unit_f64() < cfg.hiccup_prob {
            compute *= cfg.hiccup_factor;
        }
        out.push(Op::Compute { seconds: compute });
        for d in 0..dims {
            out.push(Op::PutNotify { dst: rank ^ (1 << d), bytes: cfg.bytes, notify: d as u32 });
        }
        if iter >= cfg.slack {
            for d in 0..dims {
                // Consumes the oldest unconsumed arrival of dimension d:
                // the partner's put from iteration `iter - slack`.
                out.push(Op::WaitNotify { ids: WaitIds::One(d as u32) });
                out.push(Op::Reduce { bytes: cfg.bytes });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ec_netsim::{validate, ClusterSpec, CostModel, Engine};

    #[test]
    fn program_is_deterministic_and_valid() {
        let cfg = SspScaleConfig::new(16, 2);
        let p1 = ssp_scale_program(&cfg);
        let p2 = ssp_scale_program(&cfg);
        assert_eq!(p1, p2);
        validate(&p1, 16).unwrap();
        assert_eq!(p1.notify_id_bound(), 4, "hypercube dimensions are the only notify ids");
    }

    #[test]
    fn slack_zero_is_fully_synchronous() {
        let cfg = SspScaleConfig::new(8, 0);
        let p = ssp_scale_program(&cfg);
        let r = Engine::new(ClusterSpec::homogeneous(8, 1), CostModel::marenostrum4_opa()).run(&p).unwrap();
        // Every arrival is consumed: waits and puts are 1:1 at slack 0.
        assert_eq!(r.total_notifications_received(), r.total_notifications_consumed());
    }

    #[test]
    fn slack_leaves_a_bounded_surplus_of_arrivals() {
        let slack = 3;
        let cfg = SspScaleConfig::new(8, slack);
        let p = ssp_scale_program(&cfg);
        let r = Engine::new(ClusterSpec::homogeneous(8, 1), CostModel::marenostrum4_opa()).run(&p).unwrap();
        let dims = 3u64;
        let surplus = r.total_notifications_received() - r.total_notifications_consumed();
        assert_eq!(surplus, 8 * dims * slack as u64, "each rank leaves slack arrivals per dimension");
    }

    #[test]
    fn recorded_waits_hold_their_id_inline() {
        use ec_collectives::schedule::ring_allreduce_schedule;
        // The ring is recorded through `ec_comm::RankRecorder`, the SSP cube
        // by `push_rank_ops`: neither may put a single-id wait on the heap.
        let ring = ring_allreduce_schedule(16, 1 << 16);
        let ssp = ssp_scale_program(&SspScaleConfig::new(16, 2));
        for (name, program) in [("ring", &ring), ("ssp", &ssp)] {
            let waits: Vec<&Op> = program
                .ranks
                .iter()
                .flat_map(|rp| &rp.ops)
                .filter(|op| matches!(op, Op::WaitNotify { .. } | Op::WaitNotifyAny { .. }))
                .collect();
            assert!(!waits.is_empty(), "{name} records waits");
            for op in waits {
                assert!(matches!(op, Op::WaitNotify { ids: WaitIds::One(_) }), "{name}: {op:?} is not inline");
            }
            assert_eq!(program.memory_stats().pool_ids, 0, "{name} holds no boxed id list");
        }
    }

    #[test]
    #[should_panic]
    fn non_power_of_two_worker_counts_are_rejected() {
        let _ = ssp_scale_program(&SspScaleConfig::new(12, 0));
    }
}

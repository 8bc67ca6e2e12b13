//! Workload builders for the fig15 congestion experiment: collectives on an
//! oversubscribed two-level fat-tree.
//!
//! The paper's Figure 13 measures the direct AlltoAll up to 32 ranks on a
//! non-blocking fabric.  This module prices the same collective — and the
//! pipelined ring allreduce as the topology-oblivious counterpoint — on
//! simulated fat-trees with tapered leaf→core uplinks
//! (`ec_netsim::Topology::fat_tree`), at 64 to 1024 ranks.  The direct
//! AlltoAll pushes almost all of its traffic through the core, so a `k:1`
//! taper divides its effective bandwidth by nearly `k`; the ring only
//! crosses the core on leaf boundaries (one flow at a time per boundary)
//! and never saturates an uplink.

use ec_collectives::schedule::{alltoall_direct_schedule, ring_allreduce_schedule};
use ec_netsim::{ClusterPreset, Engine, Program, RunReport, Scenario};

/// Parameters of one fig15 sweep point set (payloads, placement, seed).
/// The fabric geometry (Galileo cost model, 8-node leaves, access links at
/// NIC bandwidth) comes from [`ClusterPreset::galileo_opa`].
#[derive(Debug, Clone)]
pub struct CongestionConfig {
    /// Total ranks (must be a multiple of `ranks_per_node`).
    pub ranks: usize,
    /// Ranks per node (Figure 13 runs four).
    pub ranks_per_node: usize,
    /// Per-peer block size of the direct AlltoAll, in bytes.
    pub alltoall_block: u64,
    /// Total payload of the ring allreduce, in bytes.
    pub ring_bytes: u64,
    /// Seed of the composed link-jitter scenario.
    pub seed: u64,
}

impl CongestionConfig {
    /// Defaults: Figure 13 geometry (four ranks per node, 32 KiB blocks)
    /// and an 8 MB ring payload.
    pub fn new(ranks: usize) -> Self {
        Self { ranks, ranks_per_node: 4, alltoall_block: 32 * 1024, ring_bytes: 8_000_000, seed: 42 }
    }

    /// Number of physical nodes.
    pub fn nodes(&self) -> usize {
        assert!(self.ranks.is_multiple_of(self.ranks_per_node), "ranks must fill whole nodes");
        self.ranks / self.ranks_per_node
    }
}

/// The mild deterministic link jitter composed on top of the fabric: the
/// same seed perturbs the same node pairs identically on every topology, so
/// oversubscription ratios stay directly comparable.
pub fn fig15_scenario(seed: u64) -> Scenario {
    Scenario::new(seed).with_link_jitter(0.05, 0.05)
}

/// Engine for one sweep point: the Galileo preset resized to the sweep's
/// node count with `k:1` oversubscribed uplinks, plus the jitter scenario.
pub fn fig15_engine(cfg: &CongestionConfig, oversubscription: f64) -> Engine {
    ClusterPreset::galileo_opa()
        .with_nodes(cfg.nodes())
        .with_ranks_per_node(cfg.ranks_per_node)
        .with_oversubscription(oversubscription)
        .engine()
        .with_scenario(fig15_scenario(cfg.seed))
}

/// The two collectives fig15 sweeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Collective {
    /// Direct one-sided AlltoAll (almost all traffic crosses the core).
    Alltoall,
    /// Segmented pipelined ring allreduce (neighbor traffic only).
    Ring,
}

impl Collective {
    /// Legend label.
    pub fn label(&self) -> &'static str {
        match self {
            Collective::Alltoall => "alltoall",
            Collective::Ring => "ring",
        }
    }

    /// The schedule this collective records for `cfg.ranks` ranks.
    pub fn program(&self, cfg: &CongestionConfig) -> Program {
        match self {
            Collective::Alltoall => alltoall_direct_schedule(cfg.ranks, cfg.alltoall_block),
            Collective::Ring => ring_allreduce_schedule(cfg.ranks, cfg.ring_bytes),
        }
    }
}

/// One measured sweep point with its congestion aggregates.
#[derive(Debug, Clone)]
pub struct CongestionPoint {
    /// Which collective ran.
    pub collective: Collective,
    /// Total ranks.
    pub ranks: usize,
    /// Fat-tree taper (`1.0` = full bisection).
    pub oversubscription: f64,
    /// Collective completion time in seconds.
    pub makespan: f64,
    /// Peak mean utilization across all fabric links.
    pub max_link_utilization: f64,
    /// Saturated (rate-limited) time summed over the leaf→core uplinks and
    /// core→leaf downlinks.
    pub core_congestion_time: f64,
    /// Number of links saturated at any point of the run.
    pub congested_links: usize,
}

/// Run one collective at one oversubscription ratio and gather the
/// congestion aggregates from the run report.
pub fn run_point(cfg: &CongestionConfig, collective: Collective, oversubscription: f64) -> CongestionPoint {
    let engine = fig15_engine(cfg, oversubscription);
    let report: RunReport = engine.run(&collective.program(cfg)).expect("fig15 program must simulate");
    let core_congestion_time = report.links.iter().filter(|l| l.label.contains("core")).map(|l| l.saturated_time).sum();
    CongestionPoint {
        collective,
        ranks: cfg.ranks,
        oversubscription,
        makespan: report.makespan(),
        max_link_utilization: report.max_link_utilization(),
        core_congestion_time,
        congested_links: report.congested_links(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_derives_node_counts() {
        let cfg = CongestionConfig::new(64);
        assert_eq!(cfg.nodes(), 16);
        assert_eq!(CongestionConfig::new(1024).nodes(), 256);
    }

    #[test]
    #[should_panic]
    fn ragged_rank_counts_are_rejected() {
        let _ = CongestionConfig::new(65).nodes();
    }

    #[test]
    fn programs_have_the_expected_shape() {
        let cfg = CongestionConfig::new(8);
        let a = Collective::Alltoall.program(&cfg);
        assert_eq!(a.num_ranks(), 8);
        assert_eq!(a.total_wire_bytes(), 8 * 7 * cfg.alltoall_block);
        let r = Collective::Ring.program(&cfg);
        assert_eq!(r.num_ranks(), 8);
        assert!(r.total_wire_bytes() > 0);
    }

    #[test]
    fn oversubscription_degrades_the_alltoall() {
        let cfg = CongestionConfig::new(64);
        let flat = run_point(&cfg, Collective::Alltoall, 1.0);
        let tapered = run_point(&cfg, Collective::Alltoall, 4.0);
        assert!(
            tapered.makespan > 1.5 * flat.makespan,
            "4:1 taper must slow the alltoall: {} vs {}",
            tapered.makespan,
            flat.makespan
        );
        assert!(tapered.core_congestion_time > 0.0, "the taper must show up as core congestion");
    }
}

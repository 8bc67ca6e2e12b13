//! Workload builders for the fig18 packet-level incast experiment: the
//! direct AlltoAll versus the pipelined ring allreduce on a tapered
//! fat-tree, priced by the flow-level solver *and* the per-packet fabric.
//!
//! Fig15 showed the flow-level max-min solver charging the AlltoAll almost
//! the full taper factor.  The per-packet fabric disagrees in both
//! directions, and the disagreement is exactly what a tuner would act on:
//!
//! * Under PFC the fabric is lossless; the AlltoAll's packets pipeline
//!   through the tapered uplink and keep it saturated, finishing *faster*
//!   than the solver's fair-share prediction — PFC head-of-line pauses fire
//!   constantly (they throttle the feeders) but never idle the bottleneck.
//! * Without PFC the same incast overruns the drop-tail queues, and every
//!   drop costs a go-back-N rewind: the AlltoAll collapses well below the
//!   solver's prediction.
//!
//! The pipelined ring allreduce exchanges only with neighbors, never
//! queues more than one flow per link, and prices within a few percent on
//! every backend.  So the fig16-style winner between the two collectives
//! flips twice: the flow model picks the ring, the lossless PFC fabric
//! picks the AlltoAll, and turning PFC off hands the win back to the ring
//! — the losslessness of the fabric, not bandwidth, decides the winner.

use ec_collectives::schedule::{alltoall_direct_schedule, ring_allreduce_schedule};
use ec_netsim::{ClusterPreset, CongControl, Engine, FixedWindow, PacketConfig, Program, RunReport};

pub use crate::congestion::Collective;

/// Parameters of one fig18 sweep point set.
///
/// The defaults put the two collectives in the regime the experiment is
/// about: with the fig13 block size (32 KiB) and a 4 MB ring payload, a
/// 4:1 taper prices the two collectives within a few percent of each other
/// on the flow model, so the winner is decided by exactly the effects only
/// the packet fabric models.
#[derive(Debug, Clone)]
pub struct IncastConfig {
    /// Total ranks (must fill whole nodes at `ranks_per_node`).
    pub ranks: usize,
    /// Ranks per node (the Galileo placement runs four).
    pub ranks_per_node: usize,
    /// Per-peer block size of the direct AlltoAll, in bytes.
    pub alltoall_block: u64,
    /// Total payload of the ring allreduce, in bytes.
    pub ring_bytes: u64,
}

impl IncastConfig {
    /// Defaults: Galileo placement, 32 KiB blocks (the fig13 value), 4 MB
    /// ring payload — sized so the two collectives land within a few percent
    /// of each other and the backends decide the winner.
    pub fn new(ranks: usize) -> Self {
        Self { ranks, ranks_per_node: 4, alltoall_block: 32 * 1024, ring_bytes: 4_000_000 }
    }

    /// Number of physical nodes.
    pub fn nodes(&self) -> usize {
        assert!(self.ranks.is_multiple_of(self.ranks_per_node), "ranks must fill whole nodes");
        self.ranks / self.ranks_per_node
    }

    /// The schedule `collective` records for this configuration.
    pub fn program(&self, collective: Collective) -> Program {
        match collective {
            Collective::Alltoall => alltoall_direct_schedule(self.ranks, self.alltoall_block),
            Collective::Ring => ring_allreduce_schedule(self.ranks, self.ring_bytes),
        }
    }
}

/// The four network backends fig18 compares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FabricKind {
    /// Flow-level max-min fair sharing (the fig15 model).
    Flow,
    /// Per-packet fabric, PFC lossless, DCQCN congestion control.
    PacketPfc,
    /// Per-packet fabric, PFC lossless, uncontrolled fixed-window senders
    /// (shows the congestion-control choice barely matters while PFC holds).
    PacketWindow,
    /// Per-packet fabric with PFC disabled: drop-tail queues and go-back-N
    /// recovery (what the incast costs on a non-lossless fabric).
    PacketLossy,
}

impl FabricKind {
    /// All backends, in table order.
    pub fn all() -> [FabricKind; 4] {
        [FabricKind::Flow, FabricKind::PacketPfc, FabricKind::PacketWindow, FabricKind::PacketLossy]
    }

    /// Table label.
    pub fn label(&self) -> &'static str {
        match self {
            FabricKind::Flow => "flow",
            FabricKind::PacketPfc => "packet-pfc",
            FabricKind::PacketWindow => "packet-window",
            FabricKind::PacketLossy => "packet-lossy",
        }
    }

    /// The packet configuration this backend runs with (`None` = flow).
    pub fn packet_config(&self) -> Option<PacketConfig> {
        match self {
            FabricKind::Flow => None,
            FabricKind::PacketPfc => Some(PacketConfig::default()),
            FabricKind::PacketWindow => {
                Some(PacketConfig::default().with_cc(CongControl::FixedWindow(FixedWindow::default())))
            }
            FabricKind::PacketLossy => Some(PacketConfig::lossy()),
        }
    }
}

/// Engine for one sweep point: the Galileo preset resized to the sweep's
/// node count with `k:1` oversubscribed uplinks, pricing transfers through
/// the chosen backend.
pub fn fig18_engine(cfg: &IncastConfig, kind: FabricKind, oversubscription: f64) -> Engine {
    let preset = ClusterPreset::galileo_opa()
        .with_nodes(cfg.nodes())
        .with_ranks_per_node(cfg.ranks_per_node)
        .with_oversubscription(oversubscription);
    match kind.packet_config() {
        None => preset.engine(),
        Some(pc) => {
            let topology = preset.topology.clone();
            preset.engine_alpha_beta().with_packet_network(topology, pc)
        }
    }
}

/// One measured sweep point with its packet-level aggregates (all zero for
/// the flow backend).
#[derive(Debug, Clone)]
pub struct IncastPoint {
    /// Which collective ran.
    pub collective: Collective,
    /// Which backend priced it.
    pub kind: FabricKind,
    /// Total ranks.
    pub ranks: usize,
    /// Fat-tree taper (`1.0` = full bisection).
    pub oversubscription: f64,
    /// Collective completion time in seconds.
    pub makespan: f64,
    /// PFC pause assertions over the run.
    pub pfc_pauses: u64,
    /// Total link-seconds spent PFC-paused.
    pub pause_time: f64,
    /// Packets ECN-marked in switch queues.
    pub ecn_marks: u64,
    /// Packets dropped (must stay zero under PFC).
    pub drops: u64,
    /// Go-back-N retransmissions (must stay zero under PFC).
    pub retransmits: u64,
}

/// Run one collective through one backend at one taper.
pub fn run_point(cfg: &IncastConfig, collective: Collective, kind: FabricKind, oversubscription: f64) -> IncastPoint {
    let engine = fig18_engine(cfg, kind, oversubscription);
    let report: RunReport = engine.run(&cfg.program(collective)).expect("fig18 program must simulate");
    IncastPoint {
        collective,
        kind,
        ranks: cfg.ranks,
        oversubscription,
        makespan: report.makespan(),
        pfc_pauses: report.metrics.pfc_pauses,
        pause_time: report.links.iter().map(|l| l.pause_time).sum(),
        ecn_marks: report.metrics.ecn_marks,
        drops: report.metrics.packet_drops,
        retransmits: report.metrics.packet_retransmits,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_derives_node_counts() {
        assert_eq!(IncastConfig::new(64).nodes(), 16);
        assert_eq!(IncastConfig::new(256).nodes(), 64);
    }

    #[test]
    fn backends_cover_flow_and_packet() {
        assert_eq!(FabricKind::all().len(), 4);
        assert!(FabricKind::Flow.packet_config().is_none());
        assert!(FabricKind::PacketPfc.packet_config().is_some());
        assert!(FabricKind::PacketLossy.packet_config().expect("packet config").pfc.is_none());
    }
}

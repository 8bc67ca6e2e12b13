//! Simulator-driven algorithm-variant auto-selection (the fig16 experiment,
//! beyond the paper).
//!
//! The paper's Figures 11–13 compare the GASPI collectives against the best
//! of twelve vendor `MPI_Allreduce` variants and the pairwise `MPI_Alltoall`
//! — a "best-of-N vendor" frontier the authors assembled by hand from
//! measurements.  This module makes that frontier *reproducible and
//! queryable*: every variant's recorded schedule is priced through
//! `ec_netsim` — both the contention-free alpha–beta model and the PR 4
//! flow-level fabric — and [`select_allreduce`] / [`select_alltoall`] return
//! the predicted-best variant for a concrete [`ClusterPreset`].
//!
//! The interesting regime is an oversubscribed fabric: the alpha–beta model
//! is topology-blind, so its winner is the same at any taper, while the
//! fabric model sees leaf→core contention and *flips the winner* for
//! core-heavy variants — [`winner_table`] sweeps (ranks × message size ×
//! taper) and records exactly where that happens.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use ec_baseline::{variants, MpiAllreduceVariant};
use ec_collectives::schedule::{alltoall_direct_schedule, ring_allreduce_schedule};
use ec_netsim::{ClusterPreset, Engine, Program};

/// Which cost model prices the candidate schedules.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pricing {
    /// Contention-free alpha–beta links (topology-blind).
    AlphaBeta,
    /// Flow-level max-min fair sharing over the preset's fabric topology.
    Fabric,
}

/// The allreduce candidate pool: the twelve vendor variants of Figures
/// 11–12 and the paper's one-sided GASPI ring as the challenger.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllreduceVariant {
    /// One of the twelve vendor variants (`mpi1` … `mpi12`).
    Mpi(MpiAllreduceVariant),
    /// The paper's one-sided segmented pipelined GASPI ring (not part of
    /// the vendor frontier).
    GaspiRing,
}

impl AllreduceVariant {
    /// The full candidate pool, vendor variants first.
    pub fn all() -> Vec<Self> {
        let mut pool: Vec<Self> = MpiAllreduceVariant::all().into_iter().map(Self::Mpi).collect();
        pool.push(Self::GaspiRing);
        pool
    }

    /// Legend label.
    pub fn label(self) -> &'static str {
        match self {
            Self::Mpi(v) => v.label(),
            Self::GaspiRing => "gaspi-ring",
        }
    }

    /// Whether this candidate belongs to the two-sided vendor frontier the
    /// paper compares against (the GASPI challenger does not).
    pub fn is_vendor(self) -> bool {
        !matches!(self, Self::GaspiRing)
    }

    /// The schedule this candidate records for `ranks` ranks reducing
    /// `total_bytes` bytes with `ranks_per_node` ranks sharing each node.
    pub fn schedule(self, ranks: usize, total_bytes: u64, ranks_per_node: usize) -> Program {
        match self {
            Self::Mpi(v) => v.schedule(ranks, total_bytes, ranks_per_node),
            Self::GaspiRing => ring_allreduce_schedule(ranks, total_bytes),
        }
    }
}

/// The alltoall candidate pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlltoallVariant {
    /// Pairwise exchange (Figure 13's `mpi` curves).
    MpiPairwise,
    /// Single-source Bruck log-round store-and-forward.
    SsBruck,
    /// The paper's direct one-sided GASPI alltoall (not vendor).
    GaspiDirect,
}

impl AlltoallVariant {
    /// The full candidate pool, vendor variants first.
    pub fn all() -> Vec<Self> {
        vec![Self::MpiPairwise, Self::SsBruck, Self::GaspiDirect]
    }

    /// Legend label.
    pub fn label(self) -> &'static str {
        match self {
            Self::MpiPairwise => "mpi-pairwise",
            Self::SsBruck => "ss-bruck",
            Self::GaspiDirect => "gaspi-direct",
        }
    }

    /// Whether this candidate belongs to the two-sided vendor frontier.
    pub fn is_vendor(self) -> bool {
        !matches!(self, Self::GaspiDirect)
    }

    /// The schedule this candidate records for `ranks` ranks exchanging
    /// `block_bytes`-byte blocks.
    pub fn schedule(self, ranks: usize, block_bytes: u64) -> Program {
        match self {
            Self::MpiPairwise => ec_baseline::mpi_alltoall_pairwise_schedule(ranks, block_bytes),
            Self::SsBruck => variants::bruck_alltoall_schedule(ranks, block_bytes),
            Self::GaspiDirect => alltoall_direct_schedule(ranks, block_bytes),
        }
    }
}

/// One candidate's predicted completion time.
#[derive(Debug, Clone, PartialEq)]
pub struct Prediction {
    /// Legend label of the candidate.
    pub label: &'static str,
    /// Whether the candidate is part of the vendor frontier.
    pub vendor: bool,
    /// Simulated makespan in seconds.
    pub seconds: f64,
}

/// The outcome of pricing one candidate pool on one engine.
#[derive(Debug, Clone, PartialEq)]
pub struct Selection {
    /// Every candidate's prediction, in pool order.
    pub predictions: Vec<Prediction>,
}

impl Selection {
    fn best_of(&self, vendor_only: bool) -> &Prediction {
        self.predictions
            .iter()
            .filter(|p| !vendor_only || p.vendor)
            .min_by(|a, b| a.seconds.total_cmp(&b.seconds))
            .expect("candidate pool is never empty")
    }

    /// The predicted-best candidate overall (GASPI challengers included).
    pub fn winner(&self) -> &Prediction {
        self.best_of(false)
    }

    /// The predicted-best **vendor** candidate — one cell of the paper's
    /// "best of N variants" frontier line.
    pub fn best_vendor(&self) -> &Prediction {
        self.best_of(true)
    }
}

/// The engine pricing a preset under the given model.
fn engine(preset: &ClusterPreset, pricing: Pricing) -> Engine {
    match pricing {
        Pricing::AlphaBeta => preset.engine_alpha_beta(),
        Pricing::Fabric => preset.engine(),
    }
}

/// Price the allreduce candidate pool on `preset` (rank count and placement
/// are the preset's) and return the predictions.
pub fn select_allreduce(preset: &ClusterPreset, total_bytes: u64, pricing: Pricing) -> Selection {
    let ranks = preset.cluster.total_ranks();
    let ppn = preset.cluster.ranks_per_node;
    let e = engine(preset, pricing);
    let predictions = AllreduceVariant::all()
        .into_iter()
        .map(|v| Prediction {
            label: v.label(),
            vendor: v.is_vendor(),
            seconds: e.makespan(&v.schedule(ranks, total_bytes, ppn)).expect("candidate schedule must simulate"),
        })
        .collect();
    Selection { predictions }
}

/// Price the alltoall candidate pool on `preset`.
pub fn select_alltoall(preset: &ClusterPreset, block_bytes: u64, pricing: Pricing) -> Selection {
    let ranks = preset.cluster.total_ranks();
    let e = engine(preset, pricing);
    let predictions = AlltoallVariant::all()
        .into_iter()
        .map(|v| Prediction {
            label: v.label(),
            vendor: v.is_vendor(),
            seconds: e.makespan(&v.schedule(ranks, block_bytes)).expect("candidate schedule must simulate"),
        })
        .collect();
    Selection { predictions }
}

/// Which collective a sweep row belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CollectiveKind {
    /// Allreduce over the full payload (`bytes` = total vector size).
    Allreduce,
    /// AlltoAll (`bytes` = per-peer block size).
    Alltoall,
}

impl CollectiveKind {
    /// Table label.
    pub fn label(self) -> &'static str {
        match self {
            Self::Allreduce => "allreduce",
            Self::Alltoall => "alltoall",
        }
    }
}

/// Sweep grid of the fig16 winner table.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// Total rank counts (4 ranks per node, Galileo geometry).
    pub rank_counts: Vec<usize>,
    /// Allreduce payload sizes in bytes.
    pub allreduce_bytes: Vec<u64>,
    /// AlltoAll per-peer block sizes in bytes.
    pub alltoall_bytes: Vec<u64>,
    /// Leaf→core oversubscription ratios priced by the fabric model.
    pub tapers: Vec<f64>,
    /// Ranks per node.
    pub ranks_per_node: usize,
}

impl SweepConfig {
    /// The full fig16 grid: p ∈ {16, 64, 256, 1024}, allreduce payloads
    /// 8 B – 4 MB, alltoall blocks 8 B – 32 KiB (Figure 13's range),
    /// tapers 1:1, 2:1 and 4:1.
    pub fn full() -> Self {
        Self {
            rank_counts: vec![16, 64, 256, 1024],
            allreduce_bytes: vec![8, 64, 512, 4096, 32_768, 262_144, 2_097_152, 4_194_304],
            alltoall_bytes: vec![8, 64, 512, 4096, 32_768],
            tapers: vec![1.0, 2.0, 4.0],
            ranks_per_node: 4,
        }
    }

    /// CI-sized grid: two rank counts, three sizes, the 1:1 and 4:1 tapers.
    pub fn smoke() -> Self {
        Self {
            rank_counts: vec![16, 64],
            allreduce_bytes: vec![8, 32_768, 4_194_304],
            alltoall_bytes: vec![8, 4096, 32_768],
            tapers: vec![1.0, 4.0],
            ranks_per_node: 4,
        }
    }

    /// Drop rank counts above `max_p` (at least the smallest is kept).
    pub fn capped(mut self, max_p: usize) -> Self {
        self.rank_counts.retain(|&p| p <= max_p);
        if self.rank_counts.is_empty() {
            self.rank_counts.push(16);
        }
        self
    }
}

/// One (collective, ranks, size) row of the winner table: the taper-blind
/// alpha–beta selection plus one fabric selection per oversubscription.
#[derive(Debug, Clone)]
pub struct Row {
    /// Which collective this row prices.
    pub collective: CollectiveKind,
    /// Total ranks.
    pub ranks: usize,
    /// Payload (allreduce) or block (alltoall) bytes.
    pub bytes: u64,
    /// The alpha–beta selection (identical at every taper by construction).
    pub alpha_beta: Selection,
    /// Per-taper fabric selections, in `SweepConfig::tapers` order.
    pub fabric: Vec<(f64, Selection)>,
}

impl Row {
    /// Whether the fabric at the given taper picks a different **vendor**
    /// winner than the topology-blind alpha–beta model.
    pub fn vendor_flip_at(&self, taper: f64) -> bool {
        self.fabric
            .iter()
            .find(|(k, _)| *k == taper)
            .is_some_and(|(_, sel)| sel.best_vendor().label != self.alpha_beta.best_vendor().label)
    }
}

/// The Galileo-geometry preset one fig16 cell is priced on.
pub fn fig16_preset(ranks: usize, ranks_per_node: usize, taper: f64) -> ClusterPreset {
    assert!(ranks.is_multiple_of(ranks_per_node), "ranks must fill whole nodes");
    ClusterPreset::galileo_opa()
        .with_nodes(ranks / ranks_per_node)
        .with_ranks_per_node(ranks_per_node)
        .with_oversubscription(taper)
}

/// Compute the full winner table for `cfg`.
///
/// Every (row, engine) cell is independent, so the table is computed on a
/// worker pool sized by the host's parallelism; results are written into
/// pre-assigned slots, which keeps the output byte-identical regardless of
/// the thread count or scheduling.
pub fn winner_table(cfg: &SweepConfig) -> Vec<Row> {
    // Enumerate the row skeletons first.
    let mut specs: Vec<(CollectiveKind, usize, u64)> = Vec::new();
    for &p in &cfg.rank_counts {
        for &bytes in &cfg.allreduce_bytes {
            specs.push((CollectiveKind::Allreduce, p, bytes));
        }
        for &bytes in &cfg.alltoall_bytes {
            specs.push((CollectiveKind::Alltoall, p, bytes));
        }
    }
    // The engines are shared across every job: one per (rank count, slot),
    // where slot 0 is the taper-blind alpha–beta model (priced on the 1:1
    // preset) and slot 1.. the fabric at each taper.  Sharing them saves
    // little: an engine holds only its cluster, cost model and topology,
    // and every run builds its own fabric and routing table — about 10 µs
    // for fig16's 36-link p = 64 preset on a 2-core x86 host, against
    // milliseconds to price a cell.
    let slots_per_row = 1 + cfg.tapers.len();
    let engines: Vec<Vec<Engine>> = cfg
        .rank_counts
        .iter()
        .map(|&ranks| {
            (0..slots_per_row)
                .map(|slot| {
                    let taper = if slot == 0 { 1.0 } else { cfg.tapers[slot - 1] };
                    let pricing = if slot == 0 { Pricing::AlphaBeta } else { Pricing::Fabric };
                    engine(&fig16_preset(ranks, cfg.ranks_per_node, taper), pricing)
                })
                .collect()
        })
        .collect();
    // One job per (row, candidate): each job records the candidate's
    // schedule and compiles it once, and prices the compiled program on
    // every slot's engine.  Per-candidate granularity keeps the tail of the
    // sweep parallel even when one candidate (a 1024-rank ring under the
    // fabric) is orders of magnitude slower to price than the others, while
    // only ever holding one compiled program per worker in memory.
    let mut jobs: Vec<(usize, usize)> = Vec::new();
    for (spec, &(kind, _, _)) in specs.iter().enumerate() {
        let candidates = match kind {
            CollectiveKind::Allreduce => AllreduceVariant::all().len(),
            CollectiveKind::Alltoall => AlltoallVariant::all().len(),
        };
        for cand in 0..candidates {
            jobs.push((spec, cand));
        }
    }
    let results: Mutex<Vec<Option<Vec<f64>>>> = Mutex::new(vec![None; jobs.len()]);
    let next = AtomicUsize::new(0);
    let workers = std::thread::available_parallelism().map_or(1, std::num::NonZero::get).min(jobs.len().max(1));
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let job = next.fetch_add(1, Ordering::Relaxed);
                if job >= jobs.len() {
                    return;
                }
                let (spec, cand) = jobs[job];
                let (kind, ranks, bytes) = specs[spec];
                let p_idx = cfg.rank_counts.iter().position(|&p| p == ranks).expect("spec ranks come from the grid");
                let compiled = match kind {
                    CollectiveKind::Allreduce => {
                        AllreduceVariant::all()[cand].schedule(ranks, bytes, cfg.ranks_per_node)
                    }
                    CollectiveKind::Alltoall => AlltoallVariant::all()[cand].schedule(ranks, bytes),
                }
                .compile()
                .expect("candidate schedule must be valid");
                let seconds: Vec<f64> = engines[p_idx]
                    .iter()
                    .map(|e| e.run_compiled(&compiled).expect("candidate schedule must simulate").makespan())
                    .collect();
                results.lock().unwrap()[job] = Some(seconds);
            });
        }
    });
    let mut results = results.into_inner().unwrap().into_iter();
    specs
        .into_iter()
        .map(|(collective, ranks, bytes)| {
            let labels: Vec<(&'static str, bool)> = match collective {
                CollectiveKind::Allreduce => {
                    AllreduceVariant::all().into_iter().map(|v| (v.label(), v.is_vendor())).collect()
                }
                CollectiveKind::Alltoall => {
                    AlltoallVariant::all().into_iter().map(|v| (v.label(), v.is_vendor())).collect()
                }
            };
            let per_candidate: Vec<Vec<f64>> =
                (0..labels.len()).map(|_| results.next().unwrap().expect("every job ran")).collect();
            let mut selections = (0..slots_per_row).map(|slot| Selection {
                predictions: labels
                    .iter()
                    .zip(per_candidate.iter())
                    .map(|(&(label, vendor), seconds)| Prediction { label, vendor, seconds: seconds[slot] })
                    .collect(),
            });
            let alpha_beta = selections.next().expect("slot 0 is the alpha-beta model");
            let fabric = cfg.tapers.iter().copied().zip(selections).collect();
            Row { collective, ranks, bytes, alpha_beta, fabric }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn candidate_pools_have_unique_labels() {
        let allreduce: Vec<_> = AllreduceVariant::all().iter().map(|v| v.label()).collect();
        assert_eq!(allreduce.len(), 13);
        let unique: std::collections::HashSet<_> = allreduce.iter().collect();
        assert_eq!(unique.len(), allreduce.len());
        let alltoall: Vec<_> = AlltoallVariant::all().iter().map(|v| v.label()).collect();
        assert_eq!(alltoall.len(), 3);
        assert!(AllreduceVariant::GaspiRing.label() == "gaspi-ring" && !AllreduceVariant::GaspiRing.is_vendor());
        assert!(AlltoallVariant::SsBruck.is_vendor());
    }

    #[test]
    fn selections_rank_sensibly_on_the_alpha_beta_model() {
        let preset = fig16_preset(16, 4, 1.0);
        // Large payload: a bandwidth-optimal ring variant must win, and the
        // vendor frontier must not be the gather-based variants.
        let large = select_allreduce(&preset, 4_194_304, Pricing::AlphaBeta);
        assert!(
            large.best_vendor().label.contains("ring"),
            "large-message vendor winner was {}",
            large.best_vendor().label
        );
        // Tiny payload: a logarithmic variant must beat the rings.
        let tiny = select_allreduce(&preset, 8, Pricing::AlphaBeta);
        assert!(
            !tiny.best_vendor().label.contains("ring") || tiny.best_vendor().label.contains("shumilin"),
            "8-byte vendor winner was {}",
            tiny.best_vendor().label
        );
        // Tiny alltoall blocks: Bruck's log rounds beat P-1 pairwise rounds.
        let a2a = select_alltoall(&preset, 8, Pricing::AlphaBeta);
        assert_eq!(a2a.best_vendor().label, "ss-bruck");
    }

    #[test]
    fn winner_table_is_deterministic_regardless_of_scheduling() {
        let cfg = SweepConfig {
            rank_counts: vec![16],
            allreduce_bytes: vec![8, 32_768],
            alltoall_bytes: vec![512],
            tapers: vec![1.0, 4.0],
            ranks_per_node: 4,
        };
        let a = winner_table(&cfg);
        let b = winner_table(&cfg);
        assert_eq!(a.len(), b.len());
        for (ra, rb) in a.iter().zip(b.iter()) {
            assert_eq!(ra.alpha_beta, rb.alpha_beta);
            for ((ta, sa), (tb, sb)) in ra.fabric.iter().zip(rb.fabric.iter()) {
                assert_eq!(ta, tb);
                for (pa, pb) in sa.predictions.iter().zip(sb.predictions.iter()) {
                    assert_eq!(pa.seconds.to_bits(), pb.seconds.to_bits(), "{}", pa.label);
                }
            }
        }
    }

    #[test]
    fn capped_grids_never_go_empty() {
        let cfg = SweepConfig::full().capped(4);
        assert_eq!(cfg.rank_counts, vec![16]);
        assert_eq!(SweepConfig::full().capped(256).rank_counts, vec![16, 64, 256]);
    }
}

//! Simulation results: per-rank statistics and whole-run reports.

use crate::cluster::RankId;
use crate::critpath::{self, CriticalPath};
use crate::metrics::EngineMetrics;

/// Per-rank accounting gathered during a simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct RankStats {
    /// Virtual time at which the rank finished its last operation.
    pub finish_time: f64,
    /// Total time the rank spent blocked waiting for remote progress
    /// (receives, notifications, rendezvous handshakes, barriers).
    pub wait_time: f64,
    /// Total time spent in local computation ([`crate::Op::Compute`],
    /// [`crate::Op::Reduce`], [`crate::Op::Copy`]).
    pub compute_time: f64,
    /// Bytes this rank injected into the network.
    pub bytes_sent: u64,
    /// Bytes delivered into this rank's memory.
    pub bytes_received: u64,
    /// Number of messages this rank injected.
    pub messages_sent: u64,
    /// Number of messages delivered to this rank.
    pub messages_received: u64,
    /// Notification arrivals that became visible at this rank.
    pub notifications_received: u64,
    /// Notification arrivals consumed by this rank's waits (never exceeds
    /// [`RankStats::notifications_received`] at run end).
    pub notifications_consumed: u64,
    /// Duration multiplier the scenario applied to this rank's local
    /// operations (1.0 on homogeneous clusters; > 1.0 is slower, e.g. an
    /// injected straggler).
    pub compute_scale: f64,
}

impl Default for RankStats {
    fn default() -> Self {
        Self {
            finish_time: 0.0,
            wait_time: 0.0,
            compute_time: 0.0,
            bytes_sent: 0,
            bytes_received: 0,
            messages_sent: 0,
            messages_received: 0,
            notifications_received: 0,
            notifications_consumed: 0,
            compute_scale: 1.0,
        }
    }
}

/// Per-link accounting gathered by the flow-level fabric model
/// ([`crate::fabric::Fabric`]) or the per-packet backend
/// ([`crate::packet::PacketFabric`]).  Empty for alpha–beta runs and
/// contention-free topologies, which have no shared links to account.  The
/// packet counters ([`LinkStats::packets`] onward) stay zero for flow-level
/// runs, which do not model individual packets.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LinkStats {
    /// Human-readable link label (e.g. `"leaf0->core"`).
    pub label: String,
    /// Link capacity in bytes per second.
    pub capacity: f64,
    /// Bytes the link carried during the run.
    pub bytes: f64,
    /// Time during which at least one flow used the link.
    pub busy_time: f64,
    /// Time during which the link was fully allocated — flows crossing it
    /// were rate-limited by this link (the congestion measure).
    pub saturated_time: f64,
    /// Coalesced `[start, end)` intervals during which at least one flow
    /// used the link, in increasing time order.  Together with
    /// [`LinkStats::busy_time`] (their total length) this lets `xtask
    /// trace-stats` print a link-utilization timeline without re-running
    /// the fabric.  Adjacent intervals are merged at collection time, so
    /// the vector length is bounded by the number of idle gaps, not by the
    /// number of solver re-resolutions.
    pub busy_intervals: Vec<(f64, f64)>,
    /// Data packets fully serialized onto the link (packet backend only;
    /// retransmits included).
    pub packets: u64,
    /// Packets dropped at this link's queue or, on final hops, by seeded
    /// loss (packet backend only).
    pub drops: u64,
    /// Packets ECN-marked while enqueuing here (packet backend only).
    pub ecn_marks: u64,
    /// PFC pause assertions this link received (packet backend only).
    pub pfc_pauses: u64,
    /// Total time this link spent PFC-paused (packet backend only).
    pub pause_time: f64,
}

impl LinkStats {
    /// Mean utilization of the link over `duration` seconds (carried bytes
    /// over the bytes the link could have carried).
    pub fn utilization(&self, duration: f64) -> f64 {
        if duration <= 0.0 || self.capacity <= 0.0 {
            return 0.0;
        }
        self.bytes / (self.capacity * duration)
    }
}

/// How much per-rank detail a [`RunReport`] retains after a run.
///
/// At a million ranks the per-rank [`RankStats`] vector is ~100 MB per
/// report; figure binaries that only print aggregates select
/// [`ReportDetail::Summary`] via [`crate::Engine::with_report_detail`] and
/// the engine folds the aggregates — including the full determinism
/// fingerprint — *before* dropping the per-rank rows, so summary reports
/// stay byte-comparable to full ones.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReportDetail {
    /// Keep every per-rank row (the default; reports behave exactly as they
    /// always have, and no summary is attached).
    #[default]
    Full,
    /// Fold all aggregates into a [`ReportSummary`] and drop the per-rank
    /// rows.  Aggregate accessors and [`RunReport::fingerprint`] keep
    /// answering from the summary; per-rank accessors see an empty vector.
    Summary,
}

/// Whole-run aggregates folded from the per-rank rows before they are
/// dropped (see [`ReportDetail`]).
#[derive(Debug, Clone, PartialEq)]
pub struct ReportSummary {
    /// Ranks that ran (the length the `ranks` vector had).
    pub num_ranks: usize,
    /// Maximum rank finish time.
    pub makespan: f64,
    /// Sum of per-rank finish times.
    pub sum_finish_time: f64,
    /// Sum of per-rank wait times.
    pub total_wait_time: f64,
    /// Sum of per-rank compute times.
    pub total_compute_time: f64,
    /// Total bytes injected into the network.
    pub total_bytes_sent: u64,
    /// Total messages injected.
    pub total_messages: u64,
    /// Total notification arrivals delivered.
    pub total_notifications_received: u64,
    /// Total notification arrivals consumed by waits.
    pub total_notifications_consumed: u64,
    /// Largest per-rank compute scale.
    pub max_compute_scale: f64,
    /// The **full** report fingerprint, computed over every per-rank row
    /// before any were dropped — identical to what
    /// [`RunReport::fingerprint`] returns on the [`ReportDetail::Full`]
    /// report of the same run.
    pub fingerprint: u64,
}

/// Result of simulating one [`crate::Program`].
#[derive(Debug, Clone, Default)]
pub struct RunReport {
    /// Per-rank statistics, indexed by rank id ([`ReportDetail::Full`]) or
    /// empty ([`ReportDetail::Summary`]).
    pub ranks: Vec<RankStats>,
    /// Per-link statistics, indexed like the fabric topology's link list
    /// (empty unless the engine ran with a contended network fabric).
    pub links: Vec<LinkStats>,
    /// Trace of simulation events (empty unless tracing was enabled);
    /// iterate it for the canonical `(time, rank, seq)` order.
    pub trace: crate::trace::Trace,
    /// Folded aggregates (`None` under [`ReportDetail::Full`]).
    pub summary: Option<ReportSummary>,
    /// Engine work counters for this run (see [`EngineMetrics`]).
    pub metrics: EngineMetrics,
}

/// Report equality deliberately ignores [`RunReport::metrics`]: the
/// counters describe how much work the *engine* did (queue maintenance,
/// solver passes), which legitimately differs between the calendar queue
/// and the binary heap while the simulation outputs they produce are
/// bit-identical.  The determinism tests compare whole reports across those
/// configurations.
impl PartialEq for RunReport {
    fn eq(&self, other: &Self) -> bool {
        self.ranks == other.ranks
            && self.links == other.links
            && self.trace == other.trace
            && self.summary == other.summary
    }
}

impl RunReport {
    /// Completion time of the whole program: the maximum rank finish time.
    pub fn makespan(&self) -> f64 {
        if let Some(s) = &self.summary {
            return s.makespan;
        }
        self.ranks.iter().map(|r| r.finish_time).fold(0.0, f64::max)
    }

    /// Finish time of a specific rank.  Under [`ReportDetail::Summary`] the
    /// per-rank rows are gone and this panics; use the aggregates instead.
    pub fn finish_time(&self, rank: RankId) -> f64 {
        self.ranks[rank].finish_time
    }

    /// Average finish time across ranks.
    pub fn mean_finish_time(&self) -> f64 {
        if let Some(s) = &self.summary {
            if s.num_ranks == 0 {
                return 0.0;
            }
            return s.sum_finish_time / s.num_ranks as f64;
        }
        if self.ranks.is_empty() {
            return 0.0;
        }
        self.ranks.iter().map(|r| r.finish_time).sum::<f64>() / self.ranks.len() as f64
    }

    /// Total time all ranks spent blocked on remote progress.
    pub fn total_wait_time(&self) -> f64 {
        if let Some(s) = &self.summary {
            return s.total_wait_time;
        }
        self.ranks.iter().map(|r| r.wait_time).sum()
    }

    /// Average per-rank wait time.
    pub fn mean_wait_time(&self) -> f64 {
        let n = self.summary.as_ref().map_or(self.ranks.len(), |s| s.num_ranks);
        if n == 0 {
            return 0.0;
        }
        self.total_wait_time() / n as f64
    }

    /// Total time all ranks spent in local computation.
    pub fn total_compute_time(&self) -> f64 {
        if let Some(s) = &self.summary {
            return s.total_compute_time;
        }
        self.ranks.iter().map(|r| r.compute_time).sum()
    }

    /// Total bytes injected into the network across all ranks.
    pub fn total_bytes_sent(&self) -> u64 {
        if let Some(s) = &self.summary {
            return s.total_bytes_sent;
        }
        self.ranks.iter().map(|r| r.bytes_sent).sum()
    }

    /// Total number of messages injected across all ranks.
    pub fn total_messages(&self) -> u64 {
        if let Some(s) = &self.summary {
            return s.total_messages;
        }
        self.ranks.iter().map(|r| r.messages_sent).sum()
    }

    /// Total notification arrivals delivered across all ranks.
    pub fn total_notifications_received(&self) -> u64 {
        if let Some(s) = &self.summary {
            return s.total_notifications_received;
        }
        self.ranks.iter().map(|r| r.notifications_received).sum()
    }

    /// Total notification arrivals consumed by waits across all ranks.
    /// Conservation invariant: never exceeds
    /// [`RunReport::total_notifications_received`].
    pub fn total_notifications_consumed(&self) -> u64 {
        if let Some(s) = &self.summary {
            return s.total_notifications_consumed;
        }
        self.ranks.iter().map(|r| r.notifications_consumed).sum()
    }

    /// Largest per-rank compute scale in the run (identifies the worst
    /// straggler; 1.0 on homogeneous clusters).
    pub fn max_compute_scale(&self) -> f64 {
        if let Some(s) = &self.summary {
            return s.max_compute_scale;
        }
        self.ranks.iter().map(|r| r.compute_scale).fold(1.0, f64::max)
    }

    /// Apply a [`ReportDetail`] policy: fold the summary (including the full
    /// fingerprint) and drop the per-rank rows.  Called by the
    /// engine after the report is fully assembled; [`ReportDetail::Full`] is
    /// a no-op, so default runs are untouched.
    pub fn finalize(&mut self, detail: ReportDetail) {
        match detail {
            ReportDetail::Full => {}
            ReportDetail::Summary => {
                self.fold_summary();
                self.ranks = Vec::new();
            }
        }
    }

    /// Fold the aggregates of the (still complete) per-rank rows into
    /// [`RunReport::summary`].
    fn fold_summary(&mut self) {
        let fingerprint = self.fingerprint();
        self.summary = Some(ReportSummary {
            num_ranks: self.ranks.len(),
            makespan: self.ranks.iter().map(|r| r.finish_time).fold(0.0, f64::max),
            sum_finish_time: self.ranks.iter().map(|r| r.finish_time).sum(),
            total_wait_time: self.ranks.iter().map(|r| r.wait_time).sum(),
            total_compute_time: self.ranks.iter().map(|r| r.compute_time).sum(),
            total_bytes_sent: self.ranks.iter().map(|r| r.bytes_sent).sum(),
            total_messages: self.ranks.iter().map(|r| r.messages_sent).sum(),
            total_notifications_received: self.ranks.iter().map(|r| r.notifications_received).sum(),
            total_notifications_consumed: self.ranks.iter().map(|r| r.notifications_consumed).sum(),
            max_compute_scale: self.ranks.iter().map(|r| r.compute_scale).fold(1.0, f64::max),
            fingerprint,
        });
    }

    /// Post-run critical-path analysis: walk intra-rank op precedence plus
    /// message/notification supply edges backward from the last finisher
    /// and return the makespan-dominating chain with per-category time
    /// attribution (see [`CriticalPath`]).  Requires a traced run
    /// ([`crate::Engine::with_trace`]); returns `None` when the trace is
    /// empty.
    pub fn critical_path(&self) -> Option<CriticalPath> {
        critpath::analyze(self)
    }

    // -- fabric link aggregates ---------------------------------------------

    /// Peak mean link utilization across the fabric over the makespan
    /// (0.0 when no fabric link stats were collected).
    pub fn max_link_utilization(&self) -> f64 {
        let d = self.makespan();
        self.links.iter().map(|l| l.utilization(d)).fold(0.0, f64::max)
    }

    /// Total time links spent fully allocated, summed over links — the
    /// run's aggregate congestion (rate-limited time).
    pub fn total_congestion_time(&self) -> f64 {
        self.links.iter().map(|l| l.saturated_time).sum()
    }

    /// Longest single-link saturation time (the worst hot spot).
    pub fn max_link_congestion_time(&self) -> f64 {
        self.links.iter().map(|l| l.saturated_time).fold(0.0, f64::max)
    }

    /// Number of links that were saturated at any point of the run.
    pub fn congested_links(&self) -> usize {
        self.links.iter().filter(|l| l.saturated_time > 0.0).count()
    }

    /// Order-sensitive 64-bit digest of every per-rank and per-link
    /// statistic (floats hashed by exact bit pattern).  Two reports have the
    /// same fingerprint iff their accounting is byte-identical, which is the
    /// property the determinism tests and the CI smoke jobs assert across
    /// scheduler implementations.  The trace is excluded:
    /// it is empty unless tracing was explicitly enabled.
    ///
    /// When a [`ReportSummary`] is attached, its stored fingerprint — folded
    /// over the complete per-rank rows before any were dropped — is returned,
    /// so a `Summary` report fingerprints identically to the `Full` report
    /// of the same run.
    pub fn fingerprint(&self) -> u64 {
        if let Some(s) = &self.summary {
            return s.fingerprint;
        }
        // SplitMix64 absorption: mix(acc ^ word) per field.
        fn mix(mut z: u64) -> u64 {
            z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }
        let mut acc = mix(self.ranks.len() as u64 ^ ((self.links.len() as u64) << 32));
        for r in &self.ranks {
            for f in [r.finish_time, r.wait_time, r.compute_time, r.compute_scale] {
                acc = mix(acc ^ f.to_bits());
            }
            for u in [
                r.bytes_sent,
                r.bytes_received,
                r.messages_sent,
                r.messages_received,
                r.notifications_received,
                r.notifications_consumed,
            ] {
                acc = mix(acc ^ u);
            }
        }
        for l in &self.links {
            for b in l.label.as_bytes() {
                acc = mix(acc ^ u64::from(*b));
            }
            for f in [l.capacity, l.bytes, l.busy_time, l.saturated_time, l.pause_time] {
                acc = mix(acc ^ f.to_bits());
            }
            for u in [l.packets, l.drops, l.ecn_marks, l.pfc_pauses] {
                acc = mix(acc ^ u);
            }
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report_with_finish_times(times: &[f64]) -> RunReport {
        RunReport {
            ranks: times.iter().map(|&t| RankStats { finish_time: t, ..RankStats::default() }).collect(),
            ..RunReport::default()
        }
    }

    fn link(label: &str, capacity: f64, bytes: f64, busy_time: f64, saturated_time: f64) -> LinkStats {
        LinkStats { label: label.into(), capacity, bytes, busy_time, saturated_time, ..LinkStats::default() }
    }

    #[test]
    fn makespan_is_max_finish_time() {
        let r = report_with_finish_times(&[1.0, 3.0, 2.0]);
        assert_eq!(r.makespan(), 3.0);
        assert_eq!(r.finish_time(1), 3.0);
    }

    #[test]
    fn mean_finish_time_averages() {
        let r = report_with_finish_times(&[1.0, 3.0]);
        assert!((r.mean_finish_time() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn empty_report_is_zero() {
        let r = RunReport::default();
        assert_eq!(r.makespan(), 0.0);
        assert_eq!(r.mean_finish_time(), 0.0);
        assert_eq!(r.mean_wait_time(), 0.0);
    }

    #[test]
    fn byte_and_message_totals_sum_over_ranks() {
        let mut r = report_with_finish_times(&[1.0, 1.0]);
        r.ranks[0].bytes_sent = 10;
        r.ranks[1].bytes_sent = 32;
        r.ranks[0].messages_sent = 2;
        r.ranks[1].messages_sent = 5;
        assert_eq!(r.total_bytes_sent(), 42);
        assert_eq!(r.total_messages(), 7);
    }

    #[test]
    fn default_stats_are_nominal_speed() {
        let s = RankStats::default();
        assert_eq!(s.compute_scale, 1.0);
        assert_eq!(s.notifications_received, 0);
        assert_eq!(s.notifications_consumed, 0);
    }

    #[test]
    fn link_aggregates_summarize_fabric_usage() {
        let mut r = report_with_finish_times(&[2.0]);
        assert_eq!(r.max_link_utilization(), 0.0, "no fabric, no link stats");
        assert_eq!(r.congested_links(), 0);
        r.links = vec![link("n0->sw", 1e9, 1e9, 1.5, 0.5), link("sw->n1", 1e9, 4e8, 0.4, 0.0)];
        assert!((r.max_link_utilization() - 0.5).abs() < 1e-12, "1e9 bytes over 2 s at 1 GB/s");
        assert!((r.total_congestion_time() - 0.5).abs() < 1e-12);
        assert!((r.max_link_congestion_time() - 0.5).abs() < 1e-12);
        assert_eq!(r.congested_links(), 1);
        assert_eq!(r.links[1].utilization(0.0), 0.0, "degenerate duration is guarded");
    }

    #[test]
    fn fingerprint_is_stable_and_sensitive() {
        let mut a = report_with_finish_times(&[1.0, 2.0]);
        a.links = vec![link("n0->sw", 1e9, 1e6, 0.1, 0.0)];
        let b = a.clone();
        assert_eq!(a.fingerprint(), b.fingerprint(), "equal reports hash equal");

        // Any single-field perturbation — float or counter, rank or link —
        // must change the digest.
        let mut c = a.clone();
        c.ranks[1].finish_time += 1e-12;
        assert_ne!(a.fingerprint(), c.fingerprint());
        let mut d = a.clone();
        d.ranks[0].notifications_consumed = 1;
        assert_ne!(a.fingerprint(), d.fingerprint());
        let mut e = a.clone();
        e.links[0].saturated_time = 0.5;
        assert_ne!(a.fingerprint(), e.fingerprint());

        // Swapping rank order changes the digest: it is order-sensitive.
        let mut f = a.clone();
        f.ranks.swap(0, 1);
        assert_ne!(a.fingerprint(), f.fingerprint());

        // The trace and the engine metrics are excluded by design.
        let mut g = a.clone();
        g.trace = crate::trace::Trace::from_events(vec![crate::trace::TraceEvent::new(
            0.0,
            0,
            crate::trace::TraceKind::OpStart,
            Some(0),
            0,
            crate::trace::TraceDetail::None,
        )]);
        g.metrics.events_scheduled = 999;
        assert_eq!(a.fingerprint(), g.fingerprint());

        // Metrics do not participate in report equality either: the heap
        // and the calendar queue do different queue work for the same run.
        let mut h = a.clone();
        h.metrics.calendar_bucket_sorts = 123;
        assert_eq!(a, h);
    }

    #[test]
    fn summary_finalize_preserves_aggregates_and_fingerprint() {
        let mut full = report_with_finish_times(&[1.0, 3.0, 2.0]);
        full.ranks[0].wait_time = 0.5;
        full.ranks[1].compute_time = 0.25;
        full.ranks[1].bytes_sent = 100;
        full.ranks[2].messages_sent = 4;
        full.ranks[0].notifications_received = 7;
        full.ranks[0].notifications_consumed = 6;
        full.ranks[2].compute_scale = 2.5;

        let mut summary = full.clone();
        summary.finalize(ReportDetail::Summary);
        assert!(summary.ranks.is_empty(), "per-rank rows dropped");
        assert_eq!(summary.makespan(), full.makespan());
        assert_eq!(summary.mean_finish_time(), full.mean_finish_time());
        assert_eq!(summary.total_wait_time(), full.total_wait_time());
        assert_eq!(summary.mean_wait_time(), full.mean_wait_time());
        assert_eq!(summary.total_compute_time(), full.total_compute_time());
        assert_eq!(summary.total_bytes_sent(), full.total_bytes_sent());
        assert_eq!(summary.total_messages(), full.total_messages());
        assert_eq!(summary.total_notifications_received(), full.total_notifications_received());
        assert_eq!(summary.total_notifications_consumed(), full.total_notifications_consumed());
        assert_eq!(summary.max_compute_scale(), full.max_compute_scale());
        assert_eq!(summary.fingerprint(), full.fingerprint(), "summary keeps the full fingerprint");

        // Full is a no-op: the report is untouched and has no summary.
        let mut untouched = full.clone();
        untouched.finalize(ReportDetail::Full);
        assert_eq!(untouched, full);
        assert!(untouched.summary.is_none());
    }

    #[test]
    fn empty_summary_report_is_zero() {
        let mut r = RunReport::default();
        r.finalize(ReportDetail::Summary);
        assert_eq!(r.makespan(), 0.0);
        assert_eq!(r.mean_finish_time(), 0.0);
        assert_eq!(r.mean_wait_time(), 0.0);
    }

    #[test]
    fn notification_totals_and_scale_aggregate() {
        let mut r = report_with_finish_times(&[1.0, 1.0, 1.0]);
        r.ranks[0].notifications_received = 4;
        r.ranks[1].notifications_received = 1;
        r.ranks[0].notifications_consumed = 3;
        r.ranks[2].compute_scale = 4.5;
        assert_eq!(r.total_notifications_received(), 5);
        assert_eq!(r.total_notifications_consumed(), 3);
        assert_eq!(r.max_compute_scale(), 4.5);
    }
}

//! Lightweight engine counters surfaced in every [`RunReport`](crate::RunReport).
//!
//! The registry counts *work the engine did*, not simulated quantities: how
//! many events went through the scheduler, how often the calendar queue had
//! to sort a bucket, how many max-min solver passes the fabric ran versus
//! how many it skipped through the balanced-swap fast path, and how many
//! operations the dataflow burst path executed without touching the global
//! event queue.  Counters are collected per run, cost nothing when the
//! feature they count is idle, and are deliberately **excluded from report
//! equality and fingerprints**: the strict loop and the dataflow path (and,
//! in tests, the calendar queue and its reference heap) do the same
//! simulation with different amounts of queue work, and two reports that
//! simulated identically must still compare equal.

/// Counters describing the engine work behind one run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineMetrics {
    /// Events pushed into the strict loop's queue:
    /// one `Resume` per rank at start-up and per *non-local* op — local ops
    /// (`Compute`, `Reduce`, `Copy`) run inline with the op that released
    /// them, where they used to cost a `Resume` each (the 4096-worker SSP
    /// benchmark run: 4 624 384 before, 3 444 736 since) — plus the
    /// arrival, send-completion and fabric events.
    /// Host-side bookkeeping, not a simulated quantity: on the packet fabric
    /// it counts one `FabricTick` per completion or engine-event horizon, no
    /// longer one per packet-event time, so it is several times smaller than
    /// before that change for the same run (`packet_events` is unchanged).
    pub events_scheduled: u64,
    /// Buckets the strict loop's calendar queue drained and sorted: one per
    /// ring bucket that held events when the cursor reached it.  Events that
    /// join the current bucket later, or migrate into it straight from the
    /// far tier, are inserted in order and count nothing.
    pub calendar_bucket_sorts: u64,
    /// Full max-min fair-share solver passes the fabric ran.
    pub fabric_solves: u64,
    /// Fabric resolutions that skipped the solver because a completed flow
    /// was replaced by an equal-rate addition (balanced-swap fast path).
    pub balanced_swap_hits: u64,
    /// Operations executed by the dataflow burst path (0 when the strict
    /// event loop ran the program).
    pub dataflow_burst_ops: u64,
    /// Trace events recorded (after filtering).
    pub trace_events: u64,
    /// Internal events the per-packet backend processed (0 for the other
    /// network models).
    pub packet_events: u64,
    /// Packets the per-packet backend dropped (queue overflow or seeded
    /// loss).
    pub packet_drops: u64,
    /// Packets re-sent by go-back-N rewinds.
    pub packet_retransmits: u64,
    /// PFC pause assertions (per congested egress queue).
    pub pfc_pauses: u64,
    /// Packets ECN-marked in switch queues.
    pub ecn_marks: u64,
}

impl EngineMetrics {
    /// Render the counters as `name value` lines for the fig binaries'
    /// `--metrics` output.
    pub fn render(&self) -> String {
        format!(
            "events_scheduled {}\ncalendar_bucket_sorts {}\nfabric_solves {}\nbalanced_swap_hits {}\ndataflow_burst_ops {}\ntrace_events {}\npacket_events {}\npacket_drops {}\npacket_retransmits {}\npfc_pauses {}\necn_marks {}\n",
            self.events_scheduled,
            self.calendar_bucket_sorts,
            self.fabric_solves,
            self.balanced_swap_hits,
            self.dataflow_burst_ops,
            self.trace_events,
            self.packet_events,
            self.packet_drops,
            self.packet_retransmits,
            self.pfc_pauses,
            self.ecn_marks
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_lists_every_counter() {
        let m = EngineMetrics { events_scheduled: 7, dataflow_burst_ops: 3, ..Default::default() };
        let text = m.render();
        assert!(text.contains("events_scheduled 7"));
        assert!(text.contains("dataflow_burst_ops 3"));
        assert!(text.contains("fabric_solves 0"));
        assert!(text.contains("packet_drops 0"));
        assert!(text.contains("pfc_pauses 0"));
        assert_eq!(text.lines().count(), 11);
    }
}

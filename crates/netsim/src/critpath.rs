//! Post-run critical-path analysis over a simulation trace.
//!
//! The analyzer walks backward from the last finisher through intra-rank op
//! precedence and message/notification supply edges, producing the chain of
//! segments that determined the makespan.  Every segment's duration is
//! attributed to categories — compute, alpha (latency and CPU overheads),
//! wire (serialization / fabric transfer), blocked-waiting and
//! NIC/fabric queueing — and the walk telescopes exactly: each step covers
//! `[t_new, t_old]` with no gaps or overlaps, so the category durations sum
//! to the makespan up to floating-point addition (well within `1e-9` on
//! realistic traces).
//!
//! The walk needs a traced run ([`crate::Engine::with_trace`]); on filtered
//! traces (rank windows, sampling) it degrades gracefully by attributing
//! unresolvable intervals to blocked-waiting rather than failing.

use std::collections::hash_map::{Entry, HashMap};

use crate::cluster::RankId;
use crate::report::RunReport;
use crate::trace::{BlockReason, OpClass, Trace, TraceDetail, TraceEvent, TraceKind, TraceStream};

/// Attribution bucket of a span of critical-path time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Category {
    /// Local computation (compute / reduce / copy ops).
    Compute,
    /// Latency and CPU overheads: alpha propagation, injection and
    /// notification overheads, barrier latency.
    Alpha,
    /// Byte-moving time: serialization on the wire or residence in the
    /// fabric at the max-min fair rate (includes NIC drain waits).
    Wire,
    /// Time on the path that no supply edge explains (idle gaps, intervals
    /// truncated by trace filtering).
    Blocked,
    /// Time messages spent queued before transmission: NIC injection
    /// queues on the alpha-beta path, injection FIFOs on the fabric path.
    Queueing,
}

/// Per-category durations of a critical path; they sum to the makespan.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CategoryBreakdown {
    /// Local computation.
    pub compute: f64,
    /// Latency and CPU overheads.
    pub alpha: f64,
    /// Serialization / fabric transfer time.
    pub wire: f64,
    /// Unattributed waiting.
    pub blocked: f64,
    /// NIC / fabric injection queueing.
    pub queueing: f64,
}

impl CategoryBreakdown {
    /// Sum of all categories.
    pub fn total(&self) -> f64 {
        self.compute + self.alpha + self.wire + self.blocked + self.queueing
    }

    fn add(&mut self, cat: Category, dt: f64) {
        let slot = match cat {
            Category::Compute => &mut self.compute,
            Category::Alpha => &mut self.alpha,
            Category::Wire => &mut self.wire,
            Category::Blocked => &mut self.blocked,
            Category::Queueing => &mut self.queueing,
        };
        *slot += dt;
    }

    fn merge(&mut self, other: &CategoryBreakdown) {
        self.compute += other.compute;
        self.alpha += other.alpha;
        self.wire += other.wire;
        self.blocked += other.blocked;
        self.queueing += other.queueing;
    }
}

/// What one segment of the critical path was doing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SegmentKind {
    /// Executing an operation.
    Op(OpClass),
    /// Blocked on local resources (NIC drain for blocking/outstanding
    /// sends).
    Block(BlockReason),
    /// A message edge: the interval between injection at the source and the
    /// moment the payload unblocked the destination.
    Message {
        /// Sending rank.
        src: RankId,
        /// Receiving rank.
        dst: RankId,
        /// Payload bytes.
        bytes: u64,
    },
    /// The closing phase of a barrier: from the last arriver to the
    /// release.
    BarrierRelease,
    /// An interval the trace cannot explain (filtered or idle).
    Idle,
}

/// One hop of the critical path, in forward time order.
#[derive(Debug, Clone, PartialEq)]
pub struct PathSegment {
    /// Rank whose timeline this segment lies on (for message edges: the
    /// receiving rank).
    pub rank: RankId,
    /// Segment start time (seconds of virtual time).
    pub start: f64,
    /// Segment end time.
    pub end: f64,
    /// What the segment was.
    pub kind: SegmentKind,
    /// Program op index, when applicable.
    pub op_index: Option<usize>,
    /// Category attribution of this segment's duration.
    pub breakdown: CategoryBreakdown,
}

/// The makespan-dominating chain of a traced run.
#[derive(Debug, Clone, PartialEq)]
pub struct CriticalPath {
    /// Path segments in forward time order, gapless from ~0 to the
    /// makespan.
    pub segments: Vec<PathSegment>,
    /// Total per-category attribution; sums to the makespan.
    pub breakdown: CategoryBreakdown,
    /// Ranks by descending time-on-path (top 8).
    pub hot_ranks: Vec<(RankId, f64)>,
    /// Fabric links by descending saturated time (top 8; empty without a
    /// fabric).
    pub hot_links: Vec<(String, f64)>,
    /// The makespan the path explains.
    pub makespan: f64,
}

impl CriticalPath {
    /// Time of the path's tail event — equals the run's makespan.
    pub fn tail_time(&self) -> f64 {
        self.segments.last().map_or(0.0, |s| s.end)
    }

    /// Human-readable multi-line report.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let b = &self.breakdown;
        out.push_str(&format!(
            "critical path: makespan {:.6e} s over {} segments\n",
            self.makespan,
            self.segments.len()
        ));
        let total = b.total().max(f64::MIN_POSITIVE);
        for (name, v) in [
            ("compute", b.compute),
            ("alpha", b.alpha),
            ("wire", b.wire),
            ("blocked", b.blocked),
            ("queueing", b.queueing),
        ] {
            out.push_str(&format!("  {name:<9} {v:.6e} s ({:5.1}%)\n", 100.0 * v / total));
        }
        if !self.hot_ranks.is_empty() {
            out.push_str("  hot ranks:");
            for (r, t) in &self.hot_ranks {
                out.push_str(&format!(" {r}:{t:.3e}s"));
            }
            out.push('\n');
        }
        if !self.hot_links.is_empty() {
            out.push_str("  hot links:");
            for (l, t) in &self.hot_links {
                out.push_str(&format!(" {l}:{t:.3e}s"));
            }
            out.push('\n');
        }
        out
    }
}

/// Absolute slack allowed when matching event times (well below any cost
/// model's smallest latency, well above accumulated f64 noise).
const TOL: f64 = 1e-12;

/// A place in a rank's merged timeline: just after its first `own` own
/// events and its first `arrivals` arrivals.  The walk only makes places
/// that are prefixes of the one merged order, and those are ordered by
/// containment, which the derived lexicographic order agrees with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Pos {
    own: usize,
    arrivals: usize,
}

/// One rank's events in ascending `(time, seq)` order — its two streams,
/// merged on access, an own event first on a tie — plus the walk cursor
/// (events at or beyond the cursor have been consumed by the path and cannot
/// be revisited, which guarantees termination).  Events are decoded as the
/// walk reads them; nothing is copied.
struct Timeline<'a> {
    own: TraceStream<'a>,
    arrivals: TraceStream<'a>,
    cursor: Pos,
}

impl<'a> Timeline<'a> {
    fn new(own: TraceStream<'a>, arrivals: TraceStream<'a>) -> Self {
        let cursor = Pos { own: own.len(), arrivals: arrivals.len() };
        Self { own, arrivals, cursor }
    }

    /// The event just before `at`, and its place (the place before it).
    fn prev(&self, at: Pos) -> Option<(Pos, TraceEvent)> {
        let (last_own, last_arrival) = (at.own.checked_sub(1), at.arrivals.checked_sub(1));
        // The later of the two: an arrival comes first only when strictly
        // earlier in `(time, seq)`.
        let from_arrivals = match (last_own, last_arrival) {
            (Some(i), Some(j)) => !self.arrivals.precedes(j, &self.own, i),
            (_, last_arrival) => last_arrival.is_some(),
        };
        if from_arrivals {
            let j = last_arrival?;
            Some((Pos { arrivals: j, ..at }, self.arrivals.get(j)?))
        } else {
            let i = last_own?;
            Some((Pos { own: i, ..at }, self.own.get(i)?))
        }
    }

    /// The place after every event at or before `time`.
    fn until(&self, time: f64) -> Pos {
        Pos { own: self.own.count_until(time), arrivals: self.arrivals.count_until(time) }
    }
}

/// The timeline of `rank`, built when the walk first visits the rank; `None`
/// for a rank without events (filtered out).
fn timeline<'t, 'a>(
    timelines: &'t mut HashMap<RankId, Timeline<'a>>,
    trace: &'a Trace,
    rank: RankId,
) -> Option<&'t mut Timeline<'a>> {
    match timelines.entry(rank) {
        Entry::Occupied(slot) => Some(slot.into_mut()),
        Entry::Vacant(slot) => {
            let (own, arrivals) = trace.rank(rank);
            (!own.is_empty() || !arrivals.is_empty()).then(|| slot.insert(Timeline::new(own, arrivals)))
        }
    }
}

/// Run the analysis (public entry: [`RunReport::critical_path`]).
pub(crate) fn analyze(report: &RunReport) -> Option<CriticalPath> {
    let trace = &report.trace;
    let mut timelines: HashMap<RankId, Timeline> = HashMap::new();
    // Start from the latest boundary (OpEnd/BlockEnd) event: a rank's final
    // op completion, the last boundary of its own stream.  Arrival events
    // may land later (deliveries nobody waits on) and are not program
    // completions.
    let (mut rank, mut t) = trace
        .per_rank()
        .filter_map(|(_, own, _)| own.iter().rev().find(|e| matches!(e.kind, TraceKind::OpEnd | TraceKind::BlockEnd)))
        .map(|e| (e.rank, e.time))
        .max_by(|a, b| a.1.total_cmp(&b.1).then_with(|| a.0.cmp(&b.0)))?;
    let mut segments: Vec<PathSegment> = Vec::new();
    let mut breakdown = CategoryBreakdown::default();
    let mut on_path: HashMap<RankId, f64> = HashMap::new();
    let push = |segments: &mut Vec<PathSegment>,
                breakdown: &mut CategoryBreakdown,
                on_path: &mut HashMap<RankId, f64>,
                seg: PathSegment| {
        breakdown.merge(&seg.breakdown);
        *on_path.entry(seg.rank).or_insert(0.0) += seg.end - seg.start;
        segments.push(seg);
    };
    // Each iteration consumes at least one event index of some timeline, so
    // the walk terminates; the guard is belt and braces.
    let mut guard = trace.len() + 16;
    while t > TOL {
        guard -= 1;
        if guard == 0 {
            break;
        }
        let Some(tl) = timeline(&mut timelines, trace, rank) else {
            break;
        };
        // Find the latest boundary event at or before `t` that the walk has
        // not consumed yet.
        let mut found: Option<(Pos, TraceEvent)> = None;
        let mut at = tl.cursor;
        while let Some((place, e)) = tl.prev(at) {
            at = place;
            if e.time > t + TOL {
                continue;
            }
            if matches!(e.kind, TraceKind::OpEnd | TraceKind::BlockEnd) {
                found = Some((place, e));
                break;
            }
        }
        let Some((i_end, end_ev)) = found else {
            // Rank has no earlier boundary: its history starts here (rank
            // idle from time zero, or truncated by the trace filter).
            let mut bd = CategoryBreakdown::default();
            bd.add(Category::Blocked, t);
            push(
                &mut segments,
                &mut breakdown,
                &mut on_path,
                PathSegment { rank, start: 0.0, end: t, kind: SegmentKind::Idle, op_index: None, breakdown: bd },
            );
            t = 0.0;
            break;
        };
        // Idle gap between the boundary and the current path position.
        if t - end_ev.time > TOL {
            let mut bd = CategoryBreakdown::default();
            bd.add(Category::Blocked, t - end_ev.time);
            push(
                &mut segments,
                &mut breakdown,
                &mut on_path,
                PathSegment {
                    rank,
                    start: end_ev.time,
                    end: t,
                    kind: SegmentKind::Idle,
                    op_index: None,
                    breakdown: bd,
                },
            );
        }
        let t_end = end_ev.time.min(t);
        // Matching start: same kind family and op index, scanning backward.
        let want_kind = if end_ev.kind == TraceKind::OpEnd { TraceKind::OpStart } else { TraceKind::BlockStart };
        let mut start = None;
        let mut at = i_end;
        while let Some((place, s)) = tl.prev(at) {
            at = place;
            if s.kind == want_kind && s.op_index == end_ev.op_index {
                start = Some((place, s));
                break;
            }
        }
        let Some((j_start, start_ev)) = start else {
            // Unpaired boundary (filtered trace): consume it and charge the
            // instant to blocked.
            tl.cursor = i_end;
            t = t_end;
            continue;
        };
        let t_start = start_ev.time;
        tl.cursor = j_start;
        if end_ev.kind == TraceKind::OpEnd {
            let class = match start_ev.detail {
                TraceDetail::Op { op } => op,
                _ => OpClass::Compute,
            };
            let cat = if class.is_local_work() { Category::Compute } else { Category::Alpha };
            let mut bd = CategoryBreakdown::default();
            bd.add(cat, t_end - t_start);
            push(
                &mut segments,
                &mut breakdown,
                &mut on_path,
                PathSegment {
                    rank,
                    start: t_start,
                    end: t_end,
                    kind: SegmentKind::Op(class),
                    op_index: start_ev.op_index,
                    breakdown: bd,
                },
            );
            t = t_start;
            continue;
        }
        // BlockEnd: resolve the supply edge by reason.
        let reason = match (start_ev.detail, end_ev.detail) {
            (TraceDetail::Block { reason }, _) | (_, TraceDetail::Block { reason }) => reason,
            _ => BlockReason::Notify,
        };
        match reason {
            BlockReason::SendTxDone | BlockReason::AllSends => {
                // Waiting for the rank's own NIC to drain its transfers.
                let mut bd = CategoryBreakdown::default();
                bd.add(Category::Wire, t_end - t_start);
                push(
                    &mut segments,
                    &mut breakdown,
                    &mut on_path,
                    PathSegment {
                        rank,
                        start: t_start,
                        end: t_end,
                        kind: SegmentKind::Block(reason),
                        op_index: start_ev.op_index,
                        breakdown: bd,
                    },
                );
                t = t_start;
            }
            BlockReason::Barrier => {
                // Jump to the last arriver: the rank whose matching barrier
                // BlockStart is latest.  All ranks share the release time.
                let mut last: Option<(f64, RankId, Pos)> = None;
                for (r, ..) in trace.per_rank() {
                    let rtl = timeline(&mut timelines, trace, r).expect("a rank with events has a timeline");
                    // Find this rank's barrier block that releases at t_end.
                    let mut k = rtl.until(t_end + TOL);
                    while let Some((place, e)) = rtl.prev(k) {
                        k = place;
                        if t_end - e.time > TOL {
                            break;
                        }
                        if e.kind == TraceKind::BlockEnd
                            && matches!(e.detail, TraceDetail::Block { reason: BlockReason::Barrier })
                        {
                            // Matching BlockStart.
                            let mut m = k;
                            while let Some((place, s)) = rtl.prev(m) {
                                m = place;
                                if s.kind == TraceKind::BlockStart && s.op_index == e.op_index {
                                    let better = match last {
                                        None => true,
                                        Some((bt, br, _)) => s.time > bt + TOL || (s.time > bt - TOL && r > br),
                                    };
                                    if better {
                                        last = Some((s.time, r, m));
                                    }
                                    break;
                                }
                            }
                            break;
                        }
                    }
                }
                let (arr_time, arr_rank, arr_idx) = last.unwrap_or((t_start, rank, j_start));
                let mut bd = CategoryBreakdown::default();
                bd.add(Category::Alpha, t_end - arr_time);
                push(
                    &mut segments,
                    &mut breakdown,
                    &mut on_path,
                    PathSegment {
                        rank: arr_rank,
                        start: arr_time,
                        end: t_end,
                        kind: SegmentKind::BarrierRelease,
                        op_index: end_ev.op_index,
                        breakdown: bd,
                    },
                );
                if let Some(atl) = timeline(&mut timelines, trace, arr_rank) {
                    atl.cursor = atl.cursor.min(arr_idx);
                }
                rank = arr_rank;
                t = arr_time;
            }
            BlockReason::Recv { .. } | BlockReason::Notify => {
                // Supply edge: the latest arrival at this rank at or before
                // the unblock time.
                let arrival = {
                    let tl = &timelines[&rank];
                    let mut k = tl.until(t_end + TOL);
                    let mut hit: Option<TraceEvent> = None;
                    while let Some((place, e)) = tl.prev(k) {
                        k = place;
                        if e.time < t_start - TOL {
                            break;
                        }
                        if matches!(e.kind, TraceKind::NotifyVisible | TraceKind::MsgDelivered)
                            && matches!(e.detail, TraceDetail::Arrival { .. })
                        {
                            hit = Some(e);
                            break;
                        }
                    }
                    hit
                };
                match arrival {
                    Some(TraceEvent {
                        time: visible,
                        detail: TraceDetail::Arrival { src, bytes, inject, queue, wire, .. },
                        ..
                    }) => {
                        // [inject, t_end] decomposes exactly: recorded queue
                        // and wire components, residual (alpha, overheads,
                        // unblock slack) to alpha.
                        let span = t_end - inject;
                        let _ = visible;
                        let mut bd = CategoryBreakdown::default();
                        let q = queue.max(0.0).min(span);
                        let w = wire.max(0.0).min(span - q);
                        bd.add(Category::Queueing, q);
                        bd.add(Category::Wire, w);
                        bd.add(Category::Alpha, span - q - w);
                        push(
                            &mut segments,
                            &mut breakdown,
                            &mut on_path,
                            PathSegment {
                                rank,
                                start: inject,
                                end: t_end,
                                kind: SegmentKind::Message { src, dst: rank, bytes },
                                op_index: end_ev.op_index,
                                breakdown: bd,
                            },
                        );
                        rank = src;
                        t = inject;
                        if let Some(stl) = timeline(&mut timelines, trace, src) {
                            stl.cursor = stl.cursor.min(stl.until(t + TOL));
                        }
                    }
                    _ => {
                        // No visible supplier (filtered out): charge the
                        // block interval to blocked-waiting.
                        let mut bd = CategoryBreakdown::default();
                        bd.add(Category::Blocked, t_end - t_start);
                        push(
                            &mut segments,
                            &mut breakdown,
                            &mut on_path,
                            PathSegment {
                                rank,
                                start: t_start,
                                end: t_end,
                                kind: SegmentKind::Block(reason),
                                op_index: start_ev.op_index,
                                breakdown: bd,
                            },
                        );
                        t = t_start;
                    }
                }
            }
        }
    }
    if t > TOL {
        // Guard tripped or a timeline went missing: close the path
        // explicitly so the attribution still sums to the makespan.
        let mut bd = CategoryBreakdown::default();
        bd.add(Category::Blocked, t);
        push(
            &mut segments,
            &mut breakdown,
            &mut on_path,
            PathSegment { rank, start: 0.0, end: t, kind: SegmentKind::Idle, op_index: None, breakdown: bd },
        );
    }
    segments.reverse();
    let mut hot_ranks: Vec<(RankId, f64)> = on_path.into_iter().collect();
    hot_ranks.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    hot_ranks.truncate(8);
    let mut hot_links: Vec<(String, f64)> =
        report.links.iter().filter(|l| l.saturated_time > 0.0).map(|l| (l.label.clone(), l.saturated_time)).collect();
    hot_links.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    hot_links.truncate(8);
    let makespan = report.makespan();
    Some(CriticalPath { segments, breakdown, hot_ranks, hot_links, makespan })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{MsgLabel, ARRIVAL_SEQ};

    /// Hand-built two-rank trace: rank 0 computes then puts to rank 1,
    /// which waits; rank 1 finishes last.
    fn two_rank_report() -> RunReport {
        let ev = TraceEvent::new;
        let arrival = TraceDetail::Arrival {
            src: 0,
            bytes: 100,
            label: MsgLabel::Notify(0),
            flow: 1,
            inject: 3.0,
            queue: 0.5,
            wire: 1.5,
        };
        let trace = vec![
            // rank 0: compute [0,2], put op [2,3] injecting at 3.
            ev(0.0, 0, TraceKind::OpStart, Some(0), 0, TraceDetail::Op { op: OpClass::Compute }),
            ev(0.0, 1, TraceKind::OpStart, Some(0), 0, TraceDetail::Op { op: OpClass::WaitNotify }),
            ev(0.0, 1, TraceKind::BlockStart, Some(0), 1, TraceDetail::Block { reason: BlockReason::Notify }),
            ev(2.0, 0, TraceKind::OpEnd, Some(0), 1, TraceDetail::None),
            ev(2.0, 0, TraceKind::OpStart, Some(1), 2, TraceDetail::Op { op: OpClass::PutNotify }),
            ev(
                3.0,
                0,
                TraceKind::MsgInjected,
                Some(1),
                3,
                TraceDetail::Inject { dst: 1, bytes: 100, label: MsgLabel::Notify(0), flow: 1 },
            ),
            ev(3.0, 0, TraceKind::OpEnd, Some(1), 4, TraceDetail::None),
            ev(5.5, 1, TraceKind::NotifyVisible, None, ARRIVAL_SEQ, arrival),
            ev(6.0, 1, TraceKind::BlockEnd, Some(0), 2, TraceDetail::Block { reason: BlockReason::Notify }),
        ];
        let mut ranks = vec![crate::report::RankStats::default(); 2];
        ranks[0].finish_time = 3.0;
        ranks[1].finish_time = 6.0;
        RunReport { ranks, trace: Trace::from_events(trace), ..RunReport::default() }
    }

    #[test]
    fn breakdown_sums_to_makespan_and_tail_matches() {
        let r = two_rank_report();
        let cp = r.critical_path().expect("traced report has a path");
        assert!((cp.breakdown.total() - r.makespan()).abs() < 1e-9, "{:?} vs {}", cp.breakdown, r.makespan());
        assert!((cp.tail_time() - r.makespan()).abs() < 1e-12);
        // Chain: compute [0,2], put op [2,3], message edge [3,6].
        assert_eq!(cp.segments.len(), 3);
        assert!(matches!(cp.segments[0].kind, SegmentKind::Op(OpClass::Compute)));
        assert!(matches!(cp.segments[2].kind, SegmentKind::Message { src: 0, dst: 1, .. }));
        assert!((cp.breakdown.compute - 2.0).abs() < 1e-12);
        assert!((cp.breakdown.queueing - 0.5).abs() < 1e-12);
        assert!((cp.breakdown.wire - 1.5).abs() < 1e-12);
        // Residual of the message edge (3.0 - 0.5 - 1.5 = 1.0) plus the put
        // op span (1.0) land in alpha.
        assert!((cp.breakdown.alpha - 2.0).abs() < 1e-12);
        // Each rank carries exactly half the path: rank 0 the compute and
        // put spans, rank 1 the message edge.
        assert_eq!(cp.hot_ranks.len(), 2);
        assert!(cp.hot_ranks.iter().all(|&(_, dt)| (dt - 3.0).abs() < 1e-12), "{:?}", cp.hot_ranks);
        assert!(cp.render().contains("critical path"));
    }

    #[test]
    fn untraced_report_has_no_path() {
        let r = RunReport::default();
        assert!(r.critical_path().is_none());
    }
}

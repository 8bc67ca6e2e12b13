//! Tests of the engine, and the reference event queue they compare the
//! calendar queue against.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use super::net::NetSim;
use super::sim::{check_rank_count, event_key, message_id, Event, EventKind, Sim, FUSED_OPS};
use super::*;
use crate::calendar::{CalendarQueue, COUNTED_BUCKETS};
use crate::fabric::Fabric;
use crate::program::{NotifyId, Op, ProgramBuilder, Tag};
use crate::scenario::Scenario;
use crate::trace::TraceKind;
use proptest::prelude::*;

// -- the differential reference queue ------------------------------------

/// Which pending-event store a test engine's strict loop runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(super) enum SchedulerKind {
    /// The bucketed calendar queue: what ships.
    #[default]
    CalendarQueue,
    /// A global `BinaryHeap`, the reference the calendar queue's order
    /// is checked against.  It exists on the strict loop only, so an
    /// engine with it never takes the dataflow path.
    BinaryHeap,
}

/// Test builds' `EventQueue`: the calendar queue or the reference heap.
/// Both yield events in the identical `(time, rank, seq)` total order.
#[derive(Debug)]
pub(super) enum EventQueue {
    Heap(BinaryHeap<Reverse<Event>>),
    Calendar(Box<CalendarQueue<Event>>),
}

impl EventQueue {
    pub(super) fn new(bucket_width: f64) -> Self {
        EventQueue::Calendar(Box::new(CalendarQueue::new(bucket_width)))
    }

    pub(super) fn push(&mut self, ev: Event) {
        match self {
            EventQueue::Heap(h) => h.push(Reverse(ev)),
            EventQueue::Calendar(c) => c.push(ev),
        }
    }

    pub(super) fn pop(&mut self) -> Option<Event> {
        match self {
            EventQueue::Heap(h) => h.pop().map(|Reverse(ev)| ev),
            EventQueue::Calendar(c) => c.pop(),
        }
    }

    pub(super) fn peek(&mut self) -> Option<&Event> {
        match self {
            EventQueue::Heap(h) => h.peek().map(|Reverse(ev)| ev),
            EventQueue::Calendar(c) => c.peek(),
        }
    }

    pub(super) fn sorts(&self) -> u64 {
        match self {
            EventQueue::Heap(_) => 0,
            EventQueue::Calendar(c) => c.sorts(),
        }
    }
}

impl Sim<'_> {
    pub(super) fn with_scheduler(mut self, scheduler: SchedulerKind) -> Self {
        if scheduler == SchedulerKind::BinaryHeap {
            self.events = EventQueue::Heap(BinaryHeap::new());
        }
        self
    }
}

impl Engine {
    fn with_scheduler(mut self, scheduler: SchedulerKind) -> Self {
        self.scheduler = scheduler;
        self
    }
}

fn engine(nodes: usize, ppn: usize) -> Engine {
    Engine::new(ClusterSpec::homogeneous(nodes, ppn), CostModel::test_model())
}

/// `RunReport::fingerprint` of the p=32 jittered 1 MiB ring allreduce
/// (asserted by `ec_bench`'s `observability.rs` for the run it pins).
const PINNED_RING_FINGERPRINT: u64 = 0x5723_a09c_2641_e12b;

#[test]
fn empty_program_completes_at_time_zero() {
    let e = engine(2, 1);
    let report = e.run(&Program::empty(2)).unwrap();
    assert_eq!(report.makespan(), 0.0);
}

#[test]
fn compute_only_program_has_no_wait_time() {
    let e = engine(1, 2);
    let mut b = ProgramBuilder::new(2);
    b.compute(0, 5e-6);
    b.compute(1, 3e-6);
    let r = e.run(&b.build()).unwrap();
    assert!((r.finish_time(0) - 5e-6).abs() < 1e-12);
    assert!((r.finish_time(1) - 3e-6).abs() < 1e-12);
    assert_eq!(r.total_wait_time(), 0.0);
}

#[test]
fn put_notify_is_received_after_alpha_beta() {
    let e = engine(2, 1);
    let cost = e.cost().clone();
    let bytes = 100_000u64;
    let mut b = ProgramBuilder::new(2);
    b.put_notify(0, 1, bytes, 1);
    b.wait_notify(1, &[1]);
    let r = e.run(&b.build()).unwrap();
    let expected = cost.o_send + cost.alpha_inter + bytes as f64 * cost.beta_inter + 2.0 * cost.notify_overhead;
    assert!((r.finish_time(1) - expected).abs() < 1e-9, "got {} expected {expected}", r.finish_time(1));
    // Receiver waited for the data.
    assert!(r.ranks[1].wait_time > 0.0);
    // Sender returned right after injection.
    assert!(r.finish_time(0) < r.finish_time(1));
}

#[test]
fn eager_send_recv_round_trip() {
    let e = engine(2, 1);
    let mut b = ProgramBuilder::new(2);
    b.send(0, 1, 512, 7);
    b.recv(1, 0, 512, 7);
    let r = e.run(&b.build()).unwrap();
    assert!(r.finish_time(1) > 0.0);
    assert_eq!(r.ranks[0].bytes_sent, 512);
    assert_eq!(r.ranks[1].bytes_received, 512);
}

#[test]
fn rendezvous_send_waits_for_late_receiver() {
    let e = engine(2, 1);
    let bytes = 1 << 20; // above the 1 KiB test eager threshold
    let late = 50e-6;
    let mut b = ProgramBuilder::new(2);
    b.send(0, 1, bytes, 0);
    b.compute(1, late);
    b.recv(1, 0, bytes, 0);
    let r = e.run(&b.build()).unwrap();
    // Sender cannot finish before the receiver posted its receive.
    assert!(r.finish_time(0) > late, "sender finished at {} before late receiver at {late}", r.finish_time(0));
    assert!(r.ranks[0].wait_time > 0.0);
}

#[test]
fn eager_send_does_not_wait_for_late_receiver() {
    let e = engine(2, 1);
    let bytes = 256;
    let late = 50e-6;
    let mut b = ProgramBuilder::new(2);
    b.send(0, 1, bytes, 0);
    b.compute(1, late);
    b.recv(1, 0, bytes, 0);
    let r = e.run(&b.build()).unwrap();
    assert!(r.finish_time(0) < late);
}

#[test]
fn one_sided_put_does_not_wait_for_late_receiver() {
    let e = engine(2, 1);
    let bytes = 1 << 20;
    let late = 50e-6;
    let mut b = ProgramBuilder::new(2);
    b.put_notify(0, 1, bytes, 0);
    b.compute(1, late);
    b.wait_notify(1, &[0]);
    let r = e.run(&b.build()).unwrap();
    assert!(r.finish_time(0) < late, "one-sided sender must not block on the receiver");
}

#[test]
fn two_sided_transfer_is_slower_than_one_sided() {
    let e = engine(2, 1);
    let bytes = 4 << 20;
    let mut one = ProgramBuilder::new(2);
    one.put_notify(0, 1, bytes, 0);
    one.wait_notify(1, &[0]);
    let mut two = ProgramBuilder::new(2);
    two.send(0, 1, bytes, 0);
    two.recv(1, 0, bytes, 0);
    let t_one = e.makespan(&one.build()).unwrap();
    let t_two = e.makespan(&two.build()).unwrap();
    assert!(t_two > t_one, "two-sided {t_two} should exceed one-sided {t_one}");
}

#[test]
fn nic_serializes_messages_from_same_node() {
    let e = engine(3, 1);
    let bytes = 1 << 20;
    // Rank 0 sends to ranks 1 and 2; both transfers share rank 0's NIC.
    let mut b = ProgramBuilder::new(3);
    b.put_notify(0, 1, bytes, 0);
    b.put_notify(0, 2, bytes, 0);
    b.wait_notify(1, &[0]);
    b.wait_notify(2, &[0]);
    let r = e.run(&b.build()).unwrap();
    let ser = bytes as f64 * e.cost().beta_inter;
    // The second delivery must be at least one extra serialization later.
    let t1 = r.finish_time(1);
    let t2 = r.finish_time(2);
    assert!((t2 - t1).abs() >= ser * 0.9, "expected NIC serialization between deliveries: {t1} vs {t2}");
}

#[test]
fn ranks_on_same_node_share_the_nic() {
    // 2 nodes x 2 ranks; both ranks of node 0 send to node 1 concurrently.
    let e = engine(2, 2);
    let bytes = 1 << 20;
    let mut b = ProgramBuilder::new(4);
    b.put_notify(0, 2, bytes, 0);
    b.put_notify(1, 3, bytes, 0);
    b.wait_notify(2, &[0]);
    b.wait_notify(3, &[0]);
    let shared = e.run(&b.build()).unwrap().makespan();

    // Same volume but from two different nodes to two different nodes.
    let e2 = engine(4, 1);
    let mut b2 = ProgramBuilder::new(4);
    b2.put_notify(0, 2, bytes, 0);
    b2.put_notify(1, 3, bytes, 0);
    b2.wait_notify(2, &[0]);
    b2.wait_notify(3, &[0]);
    let independent = e2.run(&b2.build()).unwrap().makespan();
    assert!(shared > independent * 1.5, "NIC sharing must slow down co-located senders: {shared} vs {independent}");
}

#[test]
fn intra_node_transfer_is_faster_than_inter_node() {
    let bytes = 1 << 20;
    let e_intra = engine(1, 2);
    let mut b1 = ProgramBuilder::new(2);
    b1.put_notify(0, 1, bytes, 0);
    b1.wait_notify(1, &[0]);
    let e_inter = engine(2, 1);
    let mut b2 = ProgramBuilder::new(2);
    b2.put_notify(0, 1, bytes, 0);
    b2.wait_notify(1, &[0]);
    let t_intra = e_intra.makespan(&b1.build()).unwrap();
    let t_inter = e_inter.makespan(&b2.build()).unwrap();
    assert!(t_intra < t_inter);
}

#[test]
fn barrier_synchronizes_all_ranks() {
    let e = engine(4, 1);
    let mut b = ProgramBuilder::new(4);
    b.compute(0, 10e-6);
    b.compute(1, 20e-6);
    b.compute(2, 30e-6);
    b.compute(3, 1e-6);
    b.barrier_all();
    let r = e.run(&b.build()).unwrap();
    let min_finish = r.ranks.iter().map(|s| s.finish_time).fold(f64::MAX, f64::min);
    assert!(min_finish >= 30e-6, "no rank may leave the barrier before the slowest arrives");
    assert!(r.ranks[3].wait_time > r.ranks[2].wait_time);
}

/// Two barriers over staggered arrivals at p = 4096.  The makespan and
/// fingerprint were read on the parent, whose `exec_barrier` re-scanned
/// every rank per arrival; the counted release must reproduce the bits.
#[test]
fn barrier_release_is_pinned_at_4096_ranks() {
    let p = 4096;
    let mut b = ProgramBuilder::new(p);
    for r in 0..p {
        b.compute(r, 1e-6 * ((r * 7919) % p) as f64);
        b.barrier(r);
        b.compute(r, 1e-6 * ((r * 104_729) % p) as f64);
        b.barrier(r);
    }
    let program = b.build();
    for scheduler in [SchedulerKind::CalendarQueue, SchedulerKind::BinaryHeap] {
        let r = engine(p / 4, 4).with_scheduler(scheduler).run(&program).unwrap();
        assert_eq!(
            (r.makespan().to_bits(), r.total_wait_time().to_bits(), r.fingerprint()),
            (0x3f80d788e8716e02, 0x4030e9269fa6f9d8, 0x1218e4e13080e2af),
            "{scheduler:?}"
        );
    }
}

#[test]
fn wait_notify_any_count_allows_progress_with_partial_arrivals() {
    let e = engine(3, 1);
    let mut b = ProgramBuilder::new(3);
    // Rank 2 only needs one of two notifications; rank 1 never sends.
    b.put_notify(0, 2, 1024, 0);
    b.wait_notify_any(2, &[0, 1], 1);
    let r = e.run(&b.build()).unwrap();
    assert!(r.finish_time(2) > 0.0);
}

#[test]
fn wait_notify_any_consumes_exactly_count_arrivals() {
    // Regression: `WaitNotifyAny { count: 1 }` used to drain *every*
    // available id, destroying the arrival a later wait depends on and
    // deadlocking the second wait.
    let e = engine(3, 1);
    let mut b = ProgramBuilder::new(3);
    b.notify(0, 2, 0);
    b.notify(1, 2, 1);
    // Let both notifications land before the first wait runs.
    b.compute(2, 1e-3);
    b.wait_notify_any(2, &[0, 1], 1);
    b.wait_notify(2, &[1]);
    let r = e.run(&b.build()).unwrap();
    assert!(r.finish_time(2) >= 1e-3);
    assert_eq!(r.ranks[2].notifications_received, 2);
    assert_eq!(r.ranks[2].notifications_consumed, 2);
}

#[test]
fn wait_notify_any_consumes_in_listed_id_order() {
    // Both arrivals are present; `wait_notify_any([1, 0], 1)` must take
    // id 1 (first in the listed order), leaving id 0 for the next wait.
    let e = engine(3, 1);
    let mut b = ProgramBuilder::new(3);
    b.notify(0, 2, 0);
    b.notify(1, 2, 1);
    b.compute(2, 1e-3);
    b.wait_notify_any(2, &[1, 0], 1);
    b.wait_notify(2, &[0]);
    e.run(&b.build()).unwrap();
    // The mirror order consumes id 0 first, so waiting on id 1 works too.
    let mut b2 = ProgramBuilder::new(3);
    b2.notify(0, 2, 0);
    b2.notify(1, 2, 1);
    b2.compute(2, 1e-3);
    b2.wait_notify_any(2, &[0, 1], 1);
    b2.wait_notify(2, &[1]);
    e.run(&b2.build()).unwrap();
}

#[test]
fn unconsumed_arrivals_survive_for_later_waits() {
    // Two arrivals of the same id: each single wait consumes exactly one.
    let e = engine(2, 1);
    let mut b = ProgramBuilder::new(2);
    b.notify(0, 1, 5);
    b.notify(0, 1, 5);
    b.compute(1, 1e-3);
    b.wait_notify(1, &[5]);
    b.wait_notify(1, &[5]);
    let r = e.run(&b.build()).unwrap();
    assert_eq!(r.ranks[1].notifications_received, 2);
    assert_eq!(r.ranks[1].notifications_consumed, 2);
}

#[test]
fn missing_notification_deadlocks() {
    let e = engine(2, 1);
    let mut b = ProgramBuilder::new(2);
    b.wait_notify(1, &[9]);
    let err = e.run(&b.build()).unwrap_err();
    match err {
        SimError::Deadlock { blocked } => {
            assert_eq!(blocked.len(), 1);
            assert_eq!(blocked[0].0, 1);
        }
        other => panic!("expected deadlock, got {other:?}"),
    }
}

#[test]
fn mismatched_recv_is_rejected_by_validation() {
    let e = engine(2, 1);
    let mut b = ProgramBuilder::new(2);
    b.send(0, 1, 128, 3);
    b.recv(1, 0, 128, 4); // wrong tag
    let err = e.run(&b.build()).unwrap_err();
    assert!(matches!(err, SimError::Invalid(ValidationError::UnmatchedChannel { .. })));
}

#[test]
fn isend_wait_all_sends_completes() {
    let e = engine(2, 1);
    let mut b = ProgramBuilder::new(2);
    b.isend(0, 1, 1 << 16, 0);
    b.isend(0, 1, 1 << 16, 1);
    b.wait_all_sends(0);
    b.recv(1, 0, 1 << 16, 0);
    b.recv(1, 0, 1 << 16, 1);
    let r = e.run(&b.build()).unwrap();
    assert_eq!(r.ranks[0].messages_sent, 2);
    assert_eq!(r.ranks[1].messages_received, 2);
}

#[test]
fn unexpected_eager_message_is_matched_later() {
    let e = engine(2, 1);
    let mut b = ProgramBuilder::new(2);
    b.send(0, 1, 64, 5);
    b.compute(1, 100e-6);
    b.recv(1, 0, 64, 5);
    let r = e.run(&b.build()).unwrap();
    // The receive finds the message already buffered: no wait time beyond compute.
    assert!(r.finish_time(1) >= 100e-6);
    assert!(r.ranks[1].wait_time < 1e-9);
}

#[test]
fn trace_is_collected_when_enabled() {
    let e = engine(2, 1).with_trace(true);
    let mut b = ProgramBuilder::new(2);
    b.put_notify(0, 1, 128, 0);
    b.wait_notify(1, &[0]);
    let r = e.run(&b.build()).unwrap();
    assert!(!r.trace.is_empty());
    assert!(r.trace.iter().any(|t| t.kind == TraceKind::NotifyVisible));
}

#[test]
fn deterministic_replay() {
    let e = engine(4, 2);
    let mut b = ProgramBuilder::new(8);
    for r in 0..8usize {
        let peer = (r + 3) % 8;
        b.put_notify(r, peer, 4096, r as u32);
    }
    for r in 0..8usize {
        let from = (r + 8 - 3) % 8;
        b.wait_notify(r, &[from as u32]);
    }
    let p = b.build();
    let r1 = e.run(&p).unwrap();
    let r2 = e.run(&p).unwrap();
    assert_eq!(r1.makespan(), r2.makespan());
    assert_eq!(r1.ranks, r2.ranks);
}

// -- scenario layer -----------------------------------------------------

fn two_rank_put_wait() -> Program {
    let mut b = ProgramBuilder::new(2);
    b.compute(0, 10e-6);
    b.put_notify(0, 1, 1 << 20, 0);
    b.wait_notify(1, &[0]);
    b.build()
}

#[test]
fn neutral_scenario_reproduces_homogeneous_timings() {
    let plain = engine(2, 1);
    let with_neutral = engine(2, 1).with_scenario(Scenario::new(7));
    let p = two_rank_put_wait();
    assert_eq!(plain.makespan(&p).unwrap(), with_neutral.makespan(&p).unwrap());
    let r = with_neutral.run(&p).unwrap();
    assert_eq!(r.ranks[0].compute_scale, 1.0);
}

#[test]
fn straggler_scenario_slows_compute_and_reports_scale() {
    let slowdown = 5.0;
    // Every node a straggler: deterministic regardless of which are picked.
    let e = engine(2, 1).with_scenario(Scenario::new(3).with_stragglers(1.0, slowdown));
    let p = two_rank_put_wait();
    let fast = engine(2, 1).run(&p).unwrap();
    let slow = e.run(&p).unwrap();
    assert!((slow.ranks[0].compute_time - slowdown * fast.ranks[0].compute_time).abs() < 1e-12);
    assert_eq!(slow.ranks[0].compute_scale, slowdown);
    assert!(slow.makespan() > fast.makespan());
}

#[test]
fn scenario_runs_are_deterministic_per_seed() {
    let p = two_rank_put_wait();
    let s = Scenario::new(11).with_compute_jitter(0.3).with_link_jitter(0.2, 0.2).with_stragglers(0.5, 3.0);
    let r1 = engine(2, 1).with_scenario(s.clone()).run(&p).unwrap();
    let r2 = engine(2, 1).with_scenario(s).run(&p).unwrap();
    assert_eq!(r1.ranks, r2.ranks);
}

#[test]
fn link_jitter_changes_transfer_times() {
    let p = two_rank_put_wait();
    let base = engine(2, 1).makespan(&p).unwrap();
    // Find a seed whose jitter actually moves this link (almost any does).
    let jittered = engine(2, 1).with_scenario(Scenario::new(1).with_link_jitter(0.4, 0.4)).makespan(&p).unwrap();
    assert!((jittered - base).abs() > 1e-12, "link jitter must perturb the makespan");
}

#[test]
fn invalid_scenario_is_rejected() {
    let e = engine(2, 1).with_scenario(Scenario::new(0).with_stragglers(0.5, 0.1));
    let err = e.run(&two_rank_put_wait()).unwrap_err();
    assert!(matches!(err, SimError::BadScenario(_)));
}

// -- network fabric -----------------------------------------------------

fn fabric_engine(nodes: usize, ppn: usize, topology: Topology) -> Engine {
    Engine::new(ClusterSpec::homogeneous(nodes, ppn), CostModel::test_model()).with_topology(topology)
}

/// Every rank puts `bytes` to `dst` and `dst` waits for all of them.
fn incast_program(ranks: usize, dst: RankId, bytes: u64) -> Program {
    let mut b = ProgramBuilder::new(ranks);
    let mut ids = Vec::new();
    for r in 0..ranks {
        if r != dst {
            b.put_notify(r, dst, bytes, r as u32);
            ids.push(r as u32);
        }
    }
    b.wait_notify(dst, &ids);
    b.build()
}

#[test]
fn contention_free_topology_reproduces_alpha_beta_exactly() {
    let p = incast_program(4, 3, 1 << 20);
    let plain = engine(4, 1).run(&p).unwrap();
    let degenerate = engine(4, 1).with_topology(Topology::contention_free(4)).run(&p).unwrap();
    assert_eq!(plain.ranks, degenerate.ranks, "the degenerate fabric is the alpha-beta model");
    assert!(degenerate.links.is_empty(), "no shared links, no link stats");
}

#[test]
fn incast_contends_on_the_receiver_downlink() {
    // 7 senders into one receiver: on the fabric they share the
    // receiver's access link, so the last delivery lands no earlier than
    // the serialized sum; a disjoint put pattern runs in parallel.
    let bytes = 1u64 << 20;
    let cost = CostModel::test_model();
    let nic = 1.0 / cost.beta_inter;
    let incast = fabric_engine(8, 1, Topology::single_switch(8, nic));
    let r = incast.run(&incast_program(8, 7, bytes)).unwrap();
    let serialized = 7.0 * bytes as f64 * cost.beta_inter;
    assert!(r.makespan() >= serialized, "7 x 1 MiB through one downlink needs >= {serialized}, got {}", r.makespan());
    // The receiver's downlink saturates; the report says so.
    assert!(r.max_link_utilization() > 0.5);
    assert!(r.total_congestion_time() > 0.0);
    assert!(r.congested_links() >= 1);

    // Pairwise shifted puts (rank r -> r+4) never share a link.
    let mut b = ProgramBuilder::new(8);
    for r in 0..4usize {
        b.put_notify(r, r + 4, bytes, 0);
        b.wait_notify(r + 4, &[0]);
    }
    let parallel = incast.run(&b.build()).unwrap();
    assert!(
        parallel.makespan() < r.makespan() / 3.0,
        "disjoint flows must run concurrently: {} vs incast {}",
        parallel.makespan(),
        r.makespan()
    );
}

#[test]
fn oversubscribed_uplinks_slow_cross_leaf_traffic_only() {
    let bytes = 1u64 << 20;
    let cost = CostModel::test_model();
    let nic = 1.0 / cost.beta_inter;
    // 8 nodes in two leaves of 4; every node of leaf 0 puts to its
    // counterpart in leaf 1 (all flows cross the core).
    let mut b = ProgramBuilder::new(8);
    for r in 0..4usize {
        b.put_notify(r, r + 4, bytes, 0);
        b.wait_notify(r + 4, &[0]);
    }
    let cross = b.build();
    let t_full = fabric_engine(8, 1, Topology::fat_tree(8, 4, 1.0, nic)).makespan(&cross).unwrap();
    let t_over = fabric_engine(8, 1, Topology::fat_tree(8, 4, 4.0, nic)).makespan(&cross).unwrap();
    assert!(
        t_over > 3.0 * t_full,
        "a 4:1 taper must throttle four concurrent cross-leaf flows: 1:1 {t_full} vs 4:1 {t_over}"
    );
    // Intra-leaf neighbor traffic never touches the core: oblivious.
    let mut b = ProgramBuilder::new(8);
    for leaf in [0usize, 4] {
        for i in 0..3 {
            b.put_notify(leaf + i, leaf + i + 1, bytes, 0);
            b.wait_notify(leaf + i + 1, &[0]);
        }
    }
    let near = b.build();
    let n_full = fabric_engine(8, 1, Topology::fat_tree(8, 4, 1.0, nic)).makespan(&near).unwrap();
    let n_over = fabric_engine(8, 1, Topology::fat_tree(8, 4, 4.0, nic)).makespan(&near).unwrap();
    assert!((n_full - n_over).abs() < 1e-12, "intra-leaf traffic must not see the taper");
}

#[test]
fn fabric_puts_pipeline_through_the_injection_queue() {
    // One sender, two destinations: the sender's DMAs go out one at a
    // time, so the second delivery is one transfer later — and
    // WaitAllSends still accounts both.
    let cost = CostModel::test_model();
    let nic = 1.0 / cost.beta_inter;
    let e = fabric_engine(3, 1, Topology::single_switch(3, nic));
    let bytes = 1u64 << 20;
    let mut b = ProgramBuilder::new(3);
    b.put_notify(0, 1, bytes, 0);
    b.put_notify(0, 2, bytes, 0);
    b.wait_all_sends(0);
    b.wait_notify(1, &[0]);
    b.wait_notify(2, &[0]);
    let r = e.run(&b.build()).unwrap();
    let ser = bytes as f64 * cost.beta_inter;
    assert!((r.finish_time(2) - r.finish_time(1)) >= 0.9 * ser, "second DMA launches after the first");
    assert!(r.finish_time(0) >= 2.0 * ser, "WaitAllSends covers both transfers");
    assert_eq!(r.ranks[0].messages_sent, 2);
}

#[test]
fn fabric_handles_two_sided_and_barrier_programs() {
    let cost = CostModel::test_model();
    let nic = 1.0 / cost.beta_inter;
    let e = fabric_engine(4, 1, Topology::single_switch(4, nic));
    let mut b = ProgramBuilder::new(4);
    b.send(0, 1, 4 << 20, 1); // rendezvous (above the 1 KiB test threshold)
    b.recv(1, 0, 4 << 20, 1);
    b.send(2, 3, 256, 2); // eager
    b.recv(3, 2, 256, 2);
    b.barrier_all();
    let r = e.run(&b.build()).unwrap();
    assert!(r.makespan() > 0.0);
    assert_eq!(r.ranks[1].bytes_received, 4 << 20);
    assert_eq!(r.ranks[3].bytes_received, 256);
    // The rendezvous transfer still waits for the late receiver.
    let mut late = ProgramBuilder::new(4);
    late.send(0, 1, 4 << 20, 1);
    late.compute(1, 50e-6);
    late.recv(1, 0, 4 << 20, 1);
    late.barrier_all();
    let lr = e.run(&late.build()).unwrap();
    assert!(lr.finish_time(0) > 50e-6, "rendezvous sender is coupled to the receive post");
}

#[test]
fn fabric_runs_are_deterministic() {
    let cost = CostModel::test_model();
    let nic = 1.0 / cost.beta_inter;
    let p = incast_program(8, 0, 1 << 18);
    let s = Scenario::new(11).with_link_jitter(0.2, 0.2);
    let mk = || fabric_engine(8, 1, Topology::fat_tree(8, 4, 2.0, nic)).with_scenario(s.clone()).run(&p).unwrap();
    let a = mk();
    let b = mk();
    assert_eq!(a, b, "same seed and topology must reproduce the identical report");
    assert!(!a.links.is_empty());
}

#[test]
fn mismatched_topology_is_rejected() {
    let e = engine(4, 1).with_topology(Topology::single_switch(8, 1e9));
    let err = e.run(&incast_program(4, 0, 1024)).unwrap_err();
    assert!(matches!(err, SimError::BadTopology(_)));
    let e = engine(4, 1).with_topology(Topology::contention_free(8));
    let err = e.run(&incast_program(4, 0, 1024)).unwrap_err();
    assert!(matches!(err, SimError::BadTopology(_)));
}

// -- scheduler and dataflow fast path ------------------------------------

/// Shifted ring: every round, rank `r` puts to `r + 1` and waits for the
/// round's notification from `r - 1`.  Each destination has exactly one
/// writer, so the program qualifies for the dataflow fast path.
fn ring_rounds_program(p: usize, rounds: usize, bytes: u64) -> Program {
    let mut b = ProgramBuilder::new(p);
    for k in 0..rounds {
        for r in 0..p {
            b.reduce(r, bytes);
            b.put_notify(r, (r + 1) % p, bytes, k as u32);
        }
        for r in 0..p {
            b.wait_notify(r, &[k as u32]);
        }
    }
    b.build()
}

/// Shifted all-to-all: rank `r` puts to every other rank (notification id
/// = source rank), then waits for all `p - 1` incoming notifications.
/// Every destination has `p - 1` writers — multi-writer, so the engine
/// must fall back to the strict event loop.
fn alltoall_program(p: usize, bytes: u64) -> Program {
    let mut b = ProgramBuilder::new(p);
    for r in 0..p {
        for shift in 1..p {
            b.put_notify(r, (r + shift) % p, bytes, r as u32);
        }
    }
    for r in 0..p {
        let ids: Vec<u32> = (0..p as u32).filter(|&i| i != r as u32).collect();
        b.wait_notify(r, &ids);
    }
    b.build()
}

#[test]
fn dataflow_fast_path_matches_the_strict_engine() {
    let p = ring_rounds_program(16, 5, 4096);
    let fast = engine(16, 1).run(&p).unwrap();
    let strict = engine(16, 1).with_scheduler(SchedulerKind::BinaryHeap).run(&p).unwrap();
    assert_eq!(fast.ranks, strict.ranks, "burst execution must reproduce the event loop's accounting");
}

#[test]
fn dataflow_fast_path_matches_strict_under_scenario_perturbations() {
    let p = ring_rounds_program(8, 3, 1 << 16);
    let s = Scenario::new(13).with_compute_jitter(0.3).with_link_jitter(0.2, 0.2).with_stragglers(0.25, 3.0);
    let fast = engine(8, 1).with_scenario(s.clone()).run(&p).unwrap();
    let strict = engine(8, 1).with_scenario(s).with_scheduler(SchedulerKind::BinaryHeap).run(&p).unwrap();
    assert_eq!(fast.ranks, strict.ranks);
    assert!(fast.max_compute_scale() > 1.0, "the straggler scenario must actually perturb the run");
}

#[test]
fn alltoall_matches_both_schedulers() {
    let p = alltoall_program(32, 512);
    let cal = engine(32, 1).run(&p).unwrap();
    assert_eq!(cal.metrics.dataflow_burst_ops, 0, "multi-writer: the strict loop runs it");
    assert_eq!(cal.total_notifications_consumed(), 32 * 31);
    let heap = engine(32, 1).with_scheduler(SchedulerKind::BinaryHeap).run(&p).unwrap();
    assert_eq!(cal, heap, "calendar queue and binary heap must order events identically");
}

/// The SSP hypercube exchange with every compute phase the same length:
/// each iteration puts to every partner and, from iteration `slack` on,
/// consumes one arrival per partner.  Nothing breaks the symmetry, so every
/// rank's put to one dimension lands at the same instant: hundreds of
/// equal-time events per calendar bucket.
fn synchronized_ssp_program(p: usize, iterations: usize, slack: usize) -> Program {
    let dims = p.trailing_zeros();
    let mut b = ProgramBuilder::new(p);
    for r in 0..p {
        for iter in 0..iterations {
            b.compute(r, 20e-6);
            for d in 0..dims {
                b.put_notify(r, r ^ (1 << d), 64, d);
            }
            if iter >= slack {
                for d in 0..dims {
                    b.wait_notify(r, &[d]);
                    b.reduce(r, 64);
                }
            }
        }
    }
    b.build()
}

#[test]
fn synchronized_ssp_matches_the_reference_heap_on_dense_buckets() {
    let program = synchronized_ssp_program(256, 6, 2);
    let run = |s: SchedulerKind| engine(256, 1).with_trace(true).with_scheduler(s).run(&program).unwrap();
    COUNTED_BUCKETS.set(0);
    let cal = run(SchedulerKind::CalendarQueue);
    let counted = COUNTED_BUCKETS.get();
    let heap = run(SchedulerKind::BinaryHeap);
    assert_eq!(cal.metrics.dataflow_burst_ops, 0, "multi-writer: the strict loop runs it");
    assert_eq!(cal, heap, "same ranks, links and trace");
    let pinned = (cal.makespan().to_bits(), cal.fingerprint(), cal.metrics.events_scheduled);
    assert_eq!(pinned, (heap.makespan().to_bits(), heap.fingerprint(), heap.metrics.events_scheduled));
    assert_eq!(pinned, (0x3f20b3a3d350c1e0, 0x2707d13e41736f17, 33_024), "read on the comparison-sorted calendar");
    let sorts = cal.metrics.calendar_bucket_sorts;
    assert!(cal.metrics.events_scheduled > 100 * sorts, "{sorts} buckets must be dense");
    assert!(counted * 2 > sorts, "the counting pass ordered only {counted} of {sorts} buckets");
}

#[test]
fn calendar_and_heap_agree_on_two_sided_barrier_fabric_programs() {
    let cost = CostModel::test_model();
    let nic = 1.0 / cost.beta_inter;
    let mut b = ProgramBuilder::new(4);
    b.send(0, 1, 4 << 20, 1); // rendezvous
    b.recv(1, 0, 4 << 20, 1);
    b.send(2, 3, 256, 2); // eager
    b.recv(3, 2, 256, 2);
    b.barrier_all();
    b.put_notify(0, 3, 1 << 18, 9);
    b.wait_notify(3, &[9]);
    let p = b.build();
    let mk = |s: SchedulerKind| fabric_engine(4, 1, Topology::single_switch(4, nic)).with_scheduler(s).run(&p).unwrap();
    let cal = mk(SchedulerKind::CalendarQueue);
    let heap = mk(SchedulerKind::BinaryHeap);
    assert_eq!(cal, heap);
    assert!(!cal.links.is_empty());
}

#[test]
fn wait_any_partial_consumption_matches_the_strict_engine() {
    // WaitNotifyAny with count < ids.len() is the consume-order-sensitive
    // case: which ids survive for the later wait depends on how arrivals
    // interleave with the wait.  The dataflow wait protocol partitions
    // arrivals by *virtual* time, so it and the strict engine must agree
    // on the consumed-id multiset.
    // Incremental case: rank 1 parks *before* any arrival, so each
    // arrival is checked one at a time.  The any-wait must consume only
    // id 0 (first available in listed order), leaving 1 and 2 for the
    // later waits.
    let mut b = ProgramBuilder::new(2);
    b.put_notify(0, 1, 4096, 0);
    b.compute(0, 5e-6);
    b.put_notify(0, 1, 4096, 1);
    b.compute(0, 5e-6);
    b.put_notify(0, 1, 2048, 2);
    b.wait_notify_any(1, &[2, 0, 1], 1);
    b.wait_notify(1, &[1]);
    b.wait_notify(1, &[2]);
    let incremental = b.build();
    // Batched case: rank 1 blocks *after* every arrival has landed, so
    // the whole backlog is applied before one consume check, which must
    // take ids 2 and 0 (listed order) and leave 1.
    let mut b = ProgramBuilder::new(2);
    b.put_notify(0, 1, 4096, 0);
    b.compute(0, 5e-6);
    b.put_notify(0, 1, 4096, 1);
    b.compute(0, 5e-6);
    b.put_notify(0, 1, 2048, 2);
    b.compute(1, 500e-6);
    b.wait_notify_any(1, &[2, 0, 1], 2);
    b.wait_notify(1, &[1]);
    let batched = b.build();
    for p in [&incremental, &batched] {
        let strict = engine(2, 1).with_scheduler(SchedulerKind::BinaryHeap).run(p).unwrap();
        assert_eq!(strict.ranks[1].notifications_consumed, 3);
        let burst = engine(2, 1).run(p).unwrap();
        assert!(burst.metrics.dataflow_burst_ops > 0);
        assert_eq!(burst.ranks, strict.ranks);
    }
}

#[test]
fn dataflow_reports_deadlock() {
    let mut b = ProgramBuilder::new(8);
    b.put_notify(0, 1, 64, 0);
    b.wait_notify(1, &[0]);
    b.wait_notify(5, &[3]); // nobody ever notifies id 3
    let p = b.build();
    let err = engine(8, 1).run(&p).unwrap_err();
    match &err {
        SimError::Deadlock { blocked } => {
            assert_eq!(blocked.len(), 1);
            assert_eq!(blocked[0].0, 5);
            assert!(blocked[0].2.contains("notifications [3]"), "got: {}", blocked[0].2);
        }
        other => panic!("expected deadlock, got {other:?}"),
    }
    // The strict loop reports the same stuck ranks in the same words.
    let strict = engine(8, 1).with_scheduler(SchedulerKind::BinaryHeap).run(&p).unwrap_err();
    assert_eq!(strict, err);
}

#[test]
fn traced_dataflow_run_emits_the_strict_trace() {
    // Satellite regression: the burst path used to return an empty
    // trace, so tracing silently forced the slow strict path.  A traced
    // eligible run must stay on the dataflow path AND produce the exact
    // event stream the strict engine emits.
    let p = ring_rounds_program(8, 2, 4096);
    let fast = engine(8, 1).run(&p).unwrap();
    let traced = engine(8, 1).with_trace(true).run(&p).unwrap();
    assert!(!traced.trace.is_empty(), "burst path must emit trace events");
    assert!(traced.metrics.dataflow_burst_ops > 0, "tracing must not evict the run from the dataflow path");
    assert_eq!(fast.ranks, traced.ranks, "tracing must not change the timings");
    let strict = engine(8, 1).with_scheduler(SchedulerKind::BinaryHeap).with_trace(true).run(&p).unwrap();
    assert_eq!(strict.metrics.dataflow_burst_ops, 0);
    assert_eq!(traced.trace, strict.trace, "burst-path trace must match the strict engine event-for-event");
}

/// `ec_collectives`' `ring_allreduce_schedule(p, total)` for `p | total`:
/// a scatter-reduce and an allgather of `p - 1` steps each.
fn ring_allreduce_program(p: usize, total: u64) -> Program {
    let chunk = total / p as u64;
    let mut b = ProgramBuilder::new(p);
    for r in 0..p {
        for step in 0..2 * (p - 1) {
            b.put_notify(r, (r + 1) % p, chunk, step as u32);
            b.wait_notify(r, &[step as u32]);
            if step < p - 1 {
                b.reduce(r, chunk);
            }
        }
    }
    b.build()
}

#[test]
fn strict_loop_reproduces_the_pinned_ring_traces() {
    // `ec_bench`'s `observability.rs` pins the bytes of this run's trace,
    // export and critical path, full and windowed, on the dataflow path
    // (it asserts the same fingerprint, so it is the same run).  Equality
    // here extends both pins to the strict loop.
    let program = ring_allreduce_program(32, 1 << 20);
    let jittered = Engine::new(ClusterSpec::homogeneous(32, 1), CostModel::skylake_fdr())
        .with_trace(true)
        .with_scenario(Scenario::new(7).with_link_jitter(0.05, 0.05));
    let windowed = jittered.clone().with_trace_filter(TraceFilter { first_rank: 5, last_rank: 20, sample: 2 });
    for engine in [jittered, windowed] {
        let burst = engine.run(&program).unwrap();
        assert!(burst.metrics.dataflow_burst_ops > 0, "the single-writer ring rides the dataflow path");
        assert_eq!(burst.fingerprint(), PINNED_RING_FINGERPRINT);
        let strict = engine.with_scheduler(SchedulerKind::BinaryHeap).run(&program).unwrap();
        assert_eq!(strict.metrics.dataflow_burst_ops, 0, "the reference queue pins the strict loop");
        assert_eq!(strict.trace, burst.trace);
        assert_eq!(strict.ranks, burst.ranks);
    }
}

#[test]
fn block_trace_events_pair_on_the_same_op_index() {
    // Satellite: BlockEnd must carry the op index of the *blocking* op
    // (the one BlockStart was emitted for), not whatever the program
    // counter points at after the unblock bumped it.
    let e = engine(2, 1).with_trace(true);
    let mut b = ProgramBuilder::new(2);
    b.put_notify(0, 1, 128, 0);
    b.send(0, 1, 4096, 1); // rendezvous: blocks until the recv below
    b.compute(1, 25e-6);
    b.wait_notify(1, &[0]);
    b.recv(1, 0, 4096, 1);
    b.barrier_all();
    let r = e.run(&b.build()).unwrap();
    let mut open: Vec<(RankId, usize)> = Vec::new();
    let mut pairs = 0usize;
    for ev in &r.trace {
        match ev.kind {
            TraceKind::BlockStart => {
                open.push((ev.rank, ev.op_index.expect("BlockStart carries an op index")));
            }
            TraceKind::BlockEnd => {
                let key = (ev.rank, ev.op_index.expect("BlockEnd carries an op index"));
                let pos = open
                    .iter()
                    .rposition(|k| *k == key)
                    .unwrap_or_else(|| panic!("BlockEnd for {key:?} without a matching BlockStart"));
                open.remove(pos);
                pairs += 1;
            }
            _ => {}
        }
    }
    assert!(open.is_empty(), "unmatched BlockStart events: {open:?}");
    assert!(pairs >= 3, "expected blocking waits on both ranks, saw {pairs} pairs");
}

// -- time-ordering tolerance (monotonicity guard) -----------------------

#[test]
fn backstep_tolerance_scales_with_the_clock() {
    // One f64 ulp near `now` is about `now * EPSILON`.  At a makespan of
    // 1e5 s that is ~1.5e-11 — far beyond the old absolute 1e-15 guard,
    // which made the debug assertion a time bomb for long simulations.
    for now in [1.0f64, 1e3, 1e5, 1e8] {
        let ulp = now * f64::EPSILON;
        assert!(ulp > 1e-15 || now <= 1.0, "the old absolute epsilon under-covers now={now}");
        assert!(time_backstep_tolerance(now) > ulp, "relative tolerance must absorb one rounding ulp at now={now}");
    }
    // Near zero the tolerance bottoms out at 1e-12, never at 0.
    assert!(time_backstep_tolerance(0.0) >= 1e-12);
    assert!(time_backstep_tolerance(-5.0) > 0.0);
}

#[test]
fn large_makespan_fabric_program_completes() {
    // Regression for the monotonicity guard: push the virtual clock to
    // ~2.5e5 s with compute, then run a jittered incast through the
    // fabric.  Flow-completion roundtrips at this magnitude produce
    // rounding backsteps far above 1e-15; the relative tolerance must
    // absorb them (the old absolute guard tripped in debug builds).
    let cost = CostModel::test_model();
    let nic = 1.0 / cost.beta_inter;
    let e = fabric_engine(8, 1, Topology::fat_tree(8, 4, 2.0, nic))
        .with_scenario(Scenario::new(3).with_link_jitter(0.2, 0.2));
    let mut b = ProgramBuilder::new(8);
    for r in 0..8 {
        b.compute(r, 2.5e5);
    }
    for r in 1..8usize {
        b.put_notify(r, 0, 1 << 18, r as u32);
    }
    b.wait_notify(0, &(1..8).collect::<Vec<u32>>());
    let r = e.run(&b.build()).unwrap();
    assert!(r.makespan() > 2.5e5);
    assert_eq!(r.ranks[0].notifications_consumed, 7);
}

// -- local-op fusion against the unfused reference stepping -------------

/// Run `program` on the strict loop (never the dataflow path) with the
/// fused or the reference stepping; returns the report and the number of
/// local ops that were fused.
fn strict_run(
    engine: &Engine,
    topology: Option<&Topology>,
    program: &CompiledProgram,
    unfused: bool,
) -> (RunReport, u64) {
    let instance = engine.scenario.as_ref().map(|s| s.materialize(&engine.cluster));
    let fabric = topology.map(|t| NetSim::Flow(Box::new(Fabric::new(t.clone()).unwrap())));
    let mut sim = Sim::new(&engine.cluster, &engine.cost, program, engine.tracing, engine.filter, instance, fabric)
        .unwrap()
        .with_scheduler(engine.scheduler);
    if unfused {
        // The reference stepping, a `Resume` per op: with a send parked
        // that no receive ever releases, no rank ever fuses.
        sim.ranks.iter_mut().for_each(|r| r.parked_sends = 1 << 31);
    }
    FUSED_OPS.set(0);
    let report = sim.run().expect("generated programs are deadlock-free");
    (report, FUSED_OPS.get())
}

/// A receiver-side op whose emission the generator postpones.
enum Deferred {
    Wait(NotifyId),
    Recv { src: RankId, bytes: u64, tag: Tag },
}

/// A random valid program over `p` ranks.  Ops are appended in a global
/// order in which every blocking op depends only on ops appended before
/// it, so executing them in that order is a deadlock-free schedule.
/// Local ops (zero-duration computes among them) go between every kind
/// of op; receiver-side waits and receives are postponed at random, so
/// arrivals pile up unconsumed, destinations have several writers and
/// rendezvous sends stay parked at their receivers across local ops.
fn random_program(rng: &mut TestRng, p: usize) -> Program {
    let mut pick = move |n: usize| (rng.next_u64() % n as u64) as usize;
    let mut b = ProgramBuilder::new(p);
    let mut deferred: Vec<(RankId, Deferred)> = Vec::new();
    // Non-blocking sends of a rank whose receive is still postponed.
    let mut unreceived = vec![0usize; p];
    fn local(b: &mut ProgramBuilder, r: RankId, pick: &mut impl FnMut(usize) -> usize) {
        for _ in 0..pick(3) {
            match pick(3) {
                0 => b.compute(r, [0.0, 2.37e-7, 3.1e-6][pick(3)]),
                1 => b.reduce(r, [72, 50_001][pick(2)]),
                _ => b.copy(r, [0, 4099][pick(2)]),
            };
        }
    }
    fn emit(b: &mut ProgramBuilder, unreceived: &mut [usize], rank: RankId, op: Deferred) {
        match op {
            Deferred::Wait(id) => b.wait_notify(rank, &[id]),
            Deferred::Recv { src, bytes, tag } => {
                unreceived[src] -= 1;
                b.recv(rank, src, bytes, tag)
            }
        };
    }
    for r in 0..p {
        local(&mut b, r, &mut pick);
    }
    for _ in 0..20 + pick(60) {
        let src = pick(p);
        let dst = (src + 1 + pick(p - 1)) % p;
        match pick(9) {
            0 => local(&mut b, src, &mut pick),
            1 | 2 => {
                let id = pick(3) as NotifyId;
                b.put_notify(src, dst, [64, 4096, 200_000][pick(3)], id);
                deferred.push((dst, Deferred::Wait(id)));
            }
            3 => {
                let id = pick(3) as NotifyId;
                b.notify(src, dst, id);
                deferred.push((dst, Deferred::Wait(id)));
            }
            4 | 5 => {
                // Eager and rendezvous sizes around the 1 KiB threshold.
                let (bytes, tag) = ([0, 256, 1024, 1025, 100_000][pick(5)], pick(2) as Tag);
                b.isend(src, dst, bytes, tag);
                unreceived[src] += 1;
                deferred.push((dst, Deferred::Recv { src, bytes, tag }));
            }
            6 => {
                // A blocking send is received at once, on tags of its
                // own: the sender must not wait on a postponed op.
                let bytes = [256, 100_000][pick(2)];
                b.send(src, dst, bytes, 100);
                local(&mut b, src, &mut pick);
                b.recv(dst, src, bytes, 100);
                local(&mut b, dst, &mut pick);
            }
            7 => {
                for _ in 0..pick(4).min(deferred.len()) {
                    let (rank, op) = deferred.swap_remove(pick(deferred.len()));
                    emit(&mut b, &mut unreceived, rank, op);
                    local(&mut b, rank, &mut pick);
                }
            }
            _ if pick(3) == 0 => {
                b.barrier_all();
            }
            _ if unreceived[src] == 0 => {
                b.wait_all_sends(src);
            }
            _ => {}
        }
        local(&mut b, src, &mut pick);
    }
    for (rank, op) in deferred {
        emit(&mut b, &mut unreceived, rank, op);
        local(&mut b, rank, &mut pick);
    }
    for r in 0..p {
        b.wait_all_sends(r);
        local(&mut b, r, &mut pick);
    }
    b.build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The shipped engine (calendar queue, dataflow burst path) and the
    /// strict loop on the reference heap produce
    /// identical makespans and notification counters on random valid
    /// programs — with and without a fabric topology.  A per-round
    /// communication stride drawn from the seed makes some programs
    /// single-writer (eligible for the burst path) and others
    /// multi-writer (strict event loop), so the property covers every
    /// execution path of the engine.
    #[test]
    fn calendar_and_heap_schedulers_agree_on_random_programs(
        p_sel in 0usize..3,
        rounds in 1usize..4,
        kb in 1u64..64,
        seed in 0u64..10_000,
        fabric_sel in 0usize..2,
    ) {
        let (p, with_fabric, bytes) = ([4, 16, 64][p_sel], fabric_sel == 1, kb * 1024);
        let mut rng = crate::scenario::SplitMix64::new(seed);
        let mut b = ProgramBuilder::new(p);
        for k in 0..rounds {
            let stride = 1 + rng.next_below(p - 1);
            for r in 0..p {
                b.compute(r, 1e-6 * (1 + rng.next_below(9)) as f64);
                b.put_notify(r, (r + stride) % p, bytes, k as u32);
            }
            for r in 0..p {
                b.wait_notify(r, &[k as u32]);
            }
        }
        let prog = b.build();
        let base = || {
            let e = Engine::new(ClusterSpec::homogeneous(p, 1), CostModel::skylake_fdr());
            if with_fabric { e.with_topology(Topology::single_switch(p, 1e9)) } else { e }
        };
        let calendar = base().run(&prog).unwrap();
        let heap = base().with_scheduler(SchedulerKind::BinaryHeap).run(&prog).unwrap();
        prop_assert_eq!(calendar.makespan(), heap.makespan());
        prop_assert_eq!(calendar.total_notifications_received(), heap.total_notifications_received());
        prop_assert_eq!(calendar.total_notifications_consumed(), heap.total_notifications_consumed());
        prop_assert_eq!(calendar.total_notifications_received(), (p * rounds) as u64);
        for (c, h) in calendar.ranks.iter().zip(heap.ranks.iter()) {
            prop_assert_eq!(c.finish_time, h.finish_time);
            prop_assert_eq!(c.notifications_received, h.notifications_received);
            prop_assert_eq!(c.notifications_consumed, h.notifications_consumed);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The fused strict loop against a `Resume` per op: same per-rank
    /// statistics, same link statistics, same canonical trace, and on
    /// alpha-beta exactly one event fewer per fused op.
    #[test]
    fn fused_stepping_matches_a_resume_per_op(seed in 0u64..u64::MAX, shape in 0usize..16) {
        let (ppn, on_fabric, jittered, heap) = (1 + 3 * (shape & 1), shape & 2 != 0, shape & 4 != 0, shape & 8 != 0);
        let mut rng = TestRng::seed_from_u64(seed);
        let nodes = 2 + (rng.next_u64() % 4) as usize;
        let program = random_program(&mut rng, nodes * ppn);
        let local_ops = program
            .ranks
            .iter()
            .flat_map(|r| &r.ops)
            .filter(|op| matches!(op, Op::Compute { .. } | Op::Reduce { .. } | Op::Copy { .. }))
            .count() as u64;
        let compiled = program.compile().unwrap();
        let mut e = engine(nodes, ppn)
            .with_trace(true)
            .with_scheduler(if heap { SchedulerKind::BinaryHeap } else { SchedulerKind::CalendarQueue });
        if jittered {
            e = e.with_scenario(Scenario::new(seed).with_compute_jitter(0.2).with_link_jitter(0.1, 0.1));
        }
        let topology = on_fabric.then(|| Topology::single_switch(nodes, 1e9));
        let (fused, fused_ops) = strict_run(&e, topology.as_ref(), &compiled, false);
        let (reference, none) = strict_run(&e, topology.as_ref(), &compiled, true);
        prop_assert_eq!(none, 0);
        prop_assert!(fused_ops <= local_ops);
        prop_assert_eq!(fused.fingerprint(), reference.fingerprint());
        prop_assert_eq!(&fused.ranks, &reference.ranks);
        prop_assert_eq!(&fused.links, &reference.links);
        prop_assert!(fused.trace.iter().eq(reference.trace.iter()), "canonical traces differ");
        let saved = reference.metrics.events_scheduled - fused.metrics.events_scheduled;
        if on_fabric {
            // Fewer `Resume`s between equal-time launches batch more
            // solves, and each solve skipped is a tick not pushed.
            prop_assert!(saved >= fused_ops);
            prop_assert!(fused.metrics.fabric_solves <= reference.metrics.fabric_solves);
        } else {
            prop_assert_eq!(saved, fused_ops);
        }
    }
}

// -- the strict loop's event layout and its limits ------------------------

const MAX_RANK: RankId = (1 << 24) - 1;
const MAX_SEQ: u64 = (1 << 40) - 1;

fn event(time: f64, rank: RankId, seq: u64) -> Event {
    Event { time, key: event_key(rank, seq).unwrap(), arg: 0, kind: EventKind::Resume }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Ordering events by `(time, key)` is ordering them by the
    /// `(time, rank, seq)` tuple: on random triples, on time ties and on the
    /// largest rank and sequence number the key holds.
    #[test]
    fn packed_key_orders_like_the_time_rank_seq_tuple(seed in 0u64..u64::MAX) {
        let mut rng = TestRng::seed_from_u64(seed);
        let mut pick = |bound: u64, edges: [u64; 2]| match rng.next_u64() % 4 {
            0 => edges[0],
            1 => edges[1],
            _ => rng.next_u64() % bound,
        };
        let triples: Vec<(f64, RankId, u64)> = (0..48)
            .map(|_| {
                // Few distinct times, so most pairs tie on time.
                let time = [0.0, 1e-6, 1.5e-6, 2.0][pick(4, [0, 3]) as usize];
                (time, pick(1 << 24, [0, MAX_RANK as u64]) as RankId, pick(1 << 40, [0, MAX_SEQ]))
            })
            .collect();
        for &(ta, ra, sa) in &triples {
            let a = event(ta, ra, sa);
            prop_assert_eq!(a.rank(), ra);
            for &(tb, rb, sb) in &triples {
                let tuple = ta.total_cmp(&tb).then(ra.cmp(&rb)).then(sa.cmp(&sb));
                prop_assert_eq!(a.cmp(&event(tb, rb, sb)), tuple);
            }
        }
    }
}

#[test]
fn event_limits_are_typed_errors_not_wraps() {
    assert!(event_key(MAX_RANK, MAX_SEQ).is_ok());
    assert_eq!(event_key(0, MAX_SEQ + 1), Err(StrictLimit::Events));
    assert_eq!(event_key(MAX_RANK, u64::MAX), Err(StrictLimit::Events));
    assert_eq!(check_rank_count(1 << 24), Ok(()));
    assert_eq!(check_rank_count((1 << 24) + 1), Err(StrictLimit::Ranks));
    assert_eq!(message_id(u32::MAX as u64), Ok(u32::MAX));
    assert_eq!(message_id(1 << 32), Err(StrictLimit::MessageIds));
    let err = SimError::LimitExceeded(StrictLimit::MessageIds);
    assert_eq!(err.to_string(), "the run exceeds the strict event loop's limit of 4294967296 message ids");
}

/// A run that reaches a limit stops with its typed error.
#[test]
fn a_run_past_a_limit_stops_with_the_typed_error() {
    let e = engine(2, 1);
    let mut b = ProgramBuilder::new(2);
    b.send(0, 1, 64, 0);
    b.recv(1, 0, 64, 0);
    let program = b.build().compile().unwrap();
    let run = |seq, next_msg| {
        Sim::new(&e.cluster, &e.cost, &program, false, TraceFilter::all(), None, None)
            .unwrap()
            .with_counters(seq, next_msg)
            .run()
    };
    assert!(run(MAX_SEQ - 16, u32::MAX as u64).is_ok(), "the last sequence number and message id are usable");
    assert_eq!(run(MAX_SEQ - 1, 0).unwrap_err(), SimError::LimitExceeded(StrictLimit::Events));
    assert_eq!(run(0, 1 << 32).unwrap_err(), SimError::LimitExceeded(StrictLimit::MessageIds));
}

//! Network pricing: the alpha-beta wire both execution paths share, the
//! contention backends behind the [`NetSim`] seam, and the strict loop's
//! per-rank injection pipeline and completion tick.

use std::collections::VecDeque;

use super::sim::{EventKind, FlowKind, Sim, Transfer};
use super::{NetworkModel, SimError};
use crate::cluster::{ClusterSpec, NodeId, RankId};
use crate::cost::CostModel;
use crate::fabric::{Fabric, FlowId};
use crate::metrics::EngineMetrics;
use crate::packet::{PacketConfig, PacketFabric};
use crate::report::LinkStats;
use crate::scenario::ScenarioInstance;
use crate::topology::TopologyError;

/// Timing of one alpha-beta transfer (see [`wire_timing`]).
#[derive(Debug, Clone, Copy)]
pub(crate) struct WireTiming {
    /// When the sender's NIC is released.
    pub(crate) tx_done: f64,
    /// When the last byte lands in the receiver's memory.
    pub(crate) delivered: f64,
    /// NIC queueing between injection and transmission (tx + rx side).
    pub(crate) queue: f64,
    /// Serialization (wire) time.
    pub(crate) ser: f64,
}

/// The NIC cursors one alpha-beta transfer queues behind and moves: the
/// sending rank's injection path and, between nodes, the source node's
/// outbound and the destination node's inbound interface.
pub(crate) struct Nics<'a> {
    pub(crate) rank_tx: &'a mut f64,
    pub(crate) node_tx: &'a mut [f64],
    pub(crate) node_rx: &'a mut [f64],
}

/// The alpha-beta wire of both execution paths: `bytes` injected at
/// `earliest` from `src_node` to `dst_node` at `beta` seconds per byte, with
/// the scenario's per-link jitter scaling latency and serialization.
#[inline]
pub(crate) fn wire_timing(
    cost: &CostModel,
    scenario: Option<&ScenarioInstance>,
    (src_node, dst_node): (NodeId, NodeId),
    bytes: u64,
    beta: f64,
    earliest: f64,
    nics: Nics<'_>,
) -> WireTiming {
    let same_node = src_node == dst_node;
    let mut ser = cost.serialization(bytes, beta);
    let mut alpha = cost.alpha(same_node);
    if let Some(inst) = scenario {
        alpha *= inst.link_alpha_scale(src_node, dst_node);
        ser *= inst.link_beta_scale(src_node, dst_node);
    }
    let mut tx_start = earliest.max(*nics.rank_tx);
    if !same_node {
        tx_start = tx_start.max(nics.node_tx[src_node]);
    }
    let tx_done = tx_start + ser;
    *nics.rank_tx = tx_done;
    if !same_node {
        nics.node_tx[src_node] = tx_done;
    }
    // Cut-through delivery: the head arrives after `alpha`, the receiver
    // NIC then needs the serialization time; inter-node messages also
    // queue behind other traffic into the destination node.
    let mut rx_start = tx_start + alpha;
    if !same_node {
        rx_start = rx_start.max(nics.node_rx[dst_node]);
    }
    let delivered = rx_start + ser;
    if !same_node {
        nics.node_rx[dst_node] = delivered;
    }
    // NIC queueing: the injection wait behind earlier traffic plus the
    // receive-side wait behind the destination node's inbound traffic.
    // Everything else in `delivered - earliest` is serialization and
    // alpha, so the arrival decomposition telescopes exactly.
    let queue = (tx_start - earliest) + (rx_start - (tx_start + alpha));
    WireTiming { tx_done, delivered, queue, ser }
}

/// The contention backend of a run: the flow-level max-min solver or the
/// per-packet simulator.  The enum is the seam between the strict loop and
/// the fabrics — `Sim` calls the methods below and never names a variant —
/// and this is its contract:
///
/// * **Admission.**  `add_flow` may be called several times at one instant
///   before the one `resolve` that follows them: `Sim::on_flow_launch`
///   defers the solve while the next engine event is another `FlowLaunch`
///   at a bit-equal time, so a synchronized wave costs one solve.  A backend
///   must not assume a `resolve` per admission.
/// * **Ticks.**  `resolve(now)` returns when the backend next needs the
///   engine's attention; the engine pushes one `FabricTick` for that time
///   and ignores every tick an earlier `resolve` pushed.
/// * **Completion.**  `take_completed(t, horizon, ..)` yields the flows that
///   have drained by `t`.  A backend whose tick can be due with nothing
///   completed (the packet fabric asks for one per packet *event*) keeps
///   draining in place while its next event is *strictly* before
///   `horizon()`, the head of the engine's own queue — the ticks the loop
///   would have popped next anyway — and returns the time it reached.  On a
///   time tie the engine's `(time, rank, seq)` order decides, so it stops
///   and lets the engine push a tick as usual.
// Both fabrics are boxed so that `Sim`, hot in every strict-loop run, does
// not grow with them (unboxed, the packet fabric's inline calendar queue cost
// the fabric-less 4096-worker SSP run 5-8 % wall).
#[derive(Debug)]
pub(super) enum NetSim {
    Flow(Box<Fabric>),
    Packet(Box<PacketFabric>),
}

const _: () = assert!(size_of::<NetSim>() == 16);

impl NetSim {
    /// The backend `network` asks for on `cluster`; `None` where the
    /// alpha-beta wire prices every transfer (the default model, and the
    /// degenerate contention-free topology, which has no shared links).
    pub(super) fn new(network: &NetworkModel, cluster: &ClusterSpec) -> Result<Option<Self>, SimError> {
        let (topology, packet) = match network {
            NetworkModel::AlphaBeta => return Ok(None),
            NetworkModel::Fabric(topology) => (topology, None),
            NetworkModel::Packet { topology, config } => (topology, Some(config)),
        };
        if topology.nodes() != cluster.nodes {
            return Err(SimError::BadTopology(TopologyError::NodeCountMismatch {
                topology: topology.name().to_string(),
                nodes: topology.nodes(),
                cluster: cluster.nodes,
            }));
        }
        if topology.is_contention_free() {
            // The alpha-beta fallback builds no packet fabric to check it.
            packet.map_or(Ok(()), PacketConfig::validate).map_err(SimError::BadPacketConfig)?;
            return Ok(None);
        }
        Ok(Some(match packet {
            Some(config) => NetSim::Packet(Box::new(PacketFabric::new(topology, *config)?)),
            None => NetSim::Flow(Box::new(Fabric::new(topology.clone()).map_err(SimError::BadTopology)?)),
        }))
    }

    fn add_flow(&mut self, now: f64, src: NodeId, dst: NodeId, bytes: f64) -> FlowId {
        match self {
            NetSim::Flow(f) => f.add_flow(now, src, dst, bytes),
            NetSim::Packet(p) => p.add_flow(now, src, dst, bytes),
        }
    }

    fn resolve(&mut self, now: f64) -> Option<f64> {
        match self {
            NetSim::Flow(f) => f.resolve(now),
            NetSim::Packet(p) => p.resolve(now),
        }
    }

    /// Append the flows that have drained by `t` to `out` and return the
    /// time they completed at: `t`, or where an idle packet tick stopped
    /// draining (see the contract above).
    fn take_completed(&mut self, t: f64, horizon: impl FnOnce() -> f64, out: &mut Vec<FlowId>) -> f64 {
        match self {
            NetSim::Flow(f) => {
                f.take_completed(t, out);
                t
            }
            NetSim::Packet(p) => {
                p.take_completed(t, out);
                if !out.is_empty() {
                    return t;
                }
                let t = p.drain_before(horizon());
                p.take_completed(t, out);
                t
            }
        }
    }

    /// Queue/wire attribution of completed flow `id` for the arrival trace,
    /// given its wait in the injection queue and its time in the fabric.
    /// The flow model splits at the launch instant; the packet model knows
    /// the real decomposition — wire is the contention-free
    /// store-and-forward time, queueing is the injection wait plus
    /// everything the queues, pauses and retransmissions added on top.
    fn queue_wire_split(&self, id: FlowId, inject_wait: f64, in_fabric: f64) -> (f64, f64) {
        match self {
            NetSim::Flow(_) => (inject_wait, in_fabric),
            NetSim::Packet(p) => {
                let (fabric_queue, wire) = p.completion_split(id);
                (inject_wait + fabric_queue, wire)
            }
        }
    }

    /// End of run: fold the backend's counters into `metrics` and return
    /// the per-link statistics.
    pub(super) fn finish(&self, metrics: &mut EngineMetrics) -> Vec<LinkStats> {
        let (usage, topology) = match self {
            NetSim::Flow(f) => {
                metrics.fabric_solves = f.solver_passes();
                metrics.balanced_swap_hits = f.balanced_swap_hits();
                (f.usage(), f.topology())
            }
            NetSim::Packet(p) => {
                let t = p.totals();
                metrics.packet_events = t.events;
                metrics.packet_drops = t.drops;
                metrics.packet_retransmits = t.retransmits;
                metrics.pfc_pauses = t.pfc_pauses;
                metrics.ecn_marks = t.ecn_marks;
                (p.usage(), p.topology())
            }
        };
        let mut links: Vec<LinkStats> = usage
            .iter()
            .zip(topology.links())
            .map(|(u, l)| LinkStats {
                label: l.label.clone(),
                capacity: l.capacity,
                bytes: u.bytes,
                busy_time: u.busy_time,
                saturated_time: u.saturated_time,
                busy_intervals: u.intervals.clone(),
                ..LinkStats::default()
            })
            .collect();
        if let NetSim::Packet(p) = self {
            for (link, pu) in links.iter_mut().zip(p.packet_usage()) {
                link.packets = pu.packets;
                link.drops = pu.drops;
                link.ecn_marks = pu.ecn_marks;
                link.pfc_pauses = pu.pfc_pauses;
                link.pause_time = pu.pause_time;
            }
        }
        links
    }
}

/// Engine-side metadata of an in-flight fabric flow (indexed by [`FlowId`];
/// slots are recycled together with the fabric's flow slab).
#[derive(Debug, Clone, Copy)]
pub(super) struct FlowMeta {
    transfer: Transfer,
    /// Propagation latency added between flow completion and delivery.
    alpha: f64,
    /// Virtual time the flow actually entered the fabric (fabric-queueing is
    /// `launched - transfer.inject`).
    launched: f64,
}

/// An inter-node transfer waiting in a rank's fabric injection queue.  Each
/// rank injects one DMA at a time (mirroring the alpha-beta model's per-rank
/// NIC serialization), so active flow counts stay bounded by the rank count.
#[derive(Debug, Clone, Copy)]
pub(super) struct QueuedTransfer {
    transfer: Transfer,
    /// Bytes to push through the fabric (payload scaled by bandwidth jitter
    /// and, for two-sided transfers, the progress-engine penalty).
    wire_bytes: f64,
    alpha: f64,
}

/// Per-rank fabric injection pipeline state.
#[derive(Debug, Default)]
pub(super) struct InjectQueue {
    fifo: VecDeque<QueuedTransfer>,
    /// True while a queued transfer is launching or a flow is in flight;
    /// guards against double-launching a rank's pipeline.
    busy: bool,
}

impl Sim<'_> {
    /// Price an inter-node transfer through the fabric: enqueue it on the
    /// sender's injection pipeline (one DMA in flight per rank, like the
    /// alpha-beta model's per-rank NIC serialization).  Scenario jitter
    /// composes on top: bandwidth jitter scales the wire bytes, latency
    /// jitter the propagation delay added at delivery.
    pub(super) fn fabric_transfer(&mut self, x: Transfer) {
        let src_node = self.cluster.node_of(x.src);
        let dst_node = self.cluster.node_of(x.dst);
        let penalty = match x.kind {
            FlowKind::Put { .. } => 1.0,
            FlowKind::TwoSided { .. } => self.cost.two_sided_bw_penalty.max(1.0),
        };
        let mut alpha = self.cost.alpha_inter;
        let mut wire_bytes = x.bytes as f64 * penalty;
        if let Some(inst) = &self.scenario {
            alpha *= inst.link_alpha_scale(src_node, dst_node);
            wire_bytes *= inst.link_beta_scale(src_node, dst_node);
        }
        if x.bytes == 0 {
            // Payload-free synchronization never contends for bandwidth.
            self.deliver(x, x.inject, x.inject + alpha, 0.0, 0.0);
            return;
        }
        let queue = &mut self.inject[x.src];
        queue.fifo.push_back(QueuedTransfer { transfer: x, wire_bytes, alpha });
        if !queue.busy {
            queue.busy = true;
            self.push_event(x.inject, x.src, EventKind::FlowLaunch, 0);
        }
    }

    /// The head of `rank`'s injection queue is due: hand it to the fabric and
    /// re-solve the rate allocation.  When the very next event is another
    /// launch at the same virtual time (a synchronized wave, e.g. every rank
    /// starting an alltoall at once), the solve is deferred to the wave's
    /// last launch — one solve for the whole batch instead of one per flow.
    pub(super) fn on_flow_launch(&mut self, rank: RankId, t: f64) {
        debug_assert!(self.inject[rank].busy);
        let launched = self.launch_queued(rank, t);
        debug_assert!(launched, "a FlowLaunch event always finds a due transfer at the queue head");
        let next_is_same_time_launch = matches!(
            self.events.peek(),
            Some(ev) if ev.time == t && ev.kind == EventKind::FlowLaunch
        );
        if !next_is_same_time_launch {
            self.resolve_fabric(t);
        }
    }

    /// Launch the transfer at the head of `rank`'s queue if one is due.
    /// Returns whether a flow entered the fabric (the caller then re-solves).
    fn launch_queued(&mut self, rank: RankId, t: f64) -> bool {
        match self.inject[rank].fifo.front().copied() {
            None => {
                self.inject[rank].busy = false;
                false
            }
            Some(qt) if qt.transfer.inject > t => {
                // Head-of-line transfer not ready yet (rendezvous handshake):
                // the pipeline stays reserved until its launch time.
                self.push_event(qt.transfer.inject, rank, EventKind::FlowLaunch, 0);
                false
            }
            Some(qt) => {
                self.inject[rank].fifo.pop_front();
                let fabric = self.fabric.as_mut().expect("fabric transfers require a fabric");
                let src_node = self.cluster.node_of(rank);
                let dst_node = self.cluster.node_of(qt.transfer.dst);
                let id = fabric.add_flow(t, src_node, dst_node, qt.wire_bytes);
                if id >= self.flow_meta.len() {
                    self.flow_meta.resize(id + 1, None);
                }
                self.flow_meta[id] = Some(FlowMeta { transfer: qt.transfer, alpha: qt.alpha, launched: t });
                true
            }
        }
    }

    /// Re-solve the fabric rates at `t` and schedule the next completion
    /// tick, which makes every earlier tick stale.
    fn resolve_fabric(&mut self, t: f64) {
        let fabric = self.fabric.as_mut().expect("resolve_fabric requires a fabric");
        self.tick_key = fabric.resolve(t).map(|next| self.push_event(next, 0, EventKind::FabricTick, 0));
    }

    /// The current fabric completion estimate came due (the loop drops stale
    /// ticks): complete every flow that has drained, deliver their payloads,
    /// admit the senders' next queued transfers and re-solve.
    pub(super) fn on_fabric_tick(&mut self, t: f64) {
        let Some(fabric) = self.fabric.as_mut() else { return };
        let mut done = std::mem::take(&mut self.completed_buf);
        let events = &mut self.events;
        let t = fabric.take_completed(t, || events.peek().map_or(f64::INFINITY, |ev| ev.time), &mut done);
        self.now = self.now.max(t);
        // Detach every completed flow's metadata *before* admitting queued
        // transfers: an admission may recycle a freed flow id that is still
        // pending in `done`, and must not clobber (or be clobbered by) the
        // completion being processed.
        self.meta_buf.clear();
        for &id in &done {
            let meta = self.flow_meta[id].take().expect("completed flow has metadata");
            self.meta_buf.push(meta);
        }
        // Indexed on purpose: iterating `meta_buf` would hold a borrow of
        // `self` across the `deliver` call below.
        #[allow(clippy::needless_range_loop)]
        for i in 0..self.meta_buf.len() {
            let FlowMeta { transfer, alpha, launched } = self.meta_buf[i];
            let fabric = self.fabric.as_ref().expect("fabric tick requires a fabric");
            let (queue, wire) = fabric.queue_wire_split(done[i], launched - transfer.inject, t - launched);
            self.deliver(transfer, t, t + alpha, queue, wire);
            self.launch_queued(transfer.src, t);
        }
        done.clear();
        self.completed_buf = done;
        self.resolve_fabric(t);
    }
}

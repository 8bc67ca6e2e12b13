//! Per-packet network fabric: MTU segmentation, drop-tail queues, PFC
//! pause/resume, ECN marking and go-back-N loss recovery.
//!
//! This is the engine's third network backend
//! ([`Engine::with_packet_network`](crate::Engine::with_packet_network)).  Where
//! the flow-level [`Fabric`](crate::Fabric) shares link capacity by solving
//! max-min fair rates (a fluid approximation), [`PacketFabric`] moves every
//! MTU-sized packet through per-port egress queues one serialization at a
//! time, so the effects the fluid model cannot see — drop-tail loss,
//! priority-flow-control head-of-line blocking, ECN-driven rate cuts and
//! retransmission storms — emerge from the queueing itself.
//!
//! The model, hop by hop:
//!
//! * Messages are segmented into MTU packets at the sender and injected
//!   subject to the congestion controller's window and pacing rate
//!   ([`PacketConfig::cc`]); the sender's own egress queue never
//!   drops — injection stalls until the NIC queue has room.
//! * Every directed link owns one FIFO egress queue at its upstream device;
//!   packets are forwarded store-and-forward: serialize (`bytes/capacity`),
//!   then fly for [`PacketConfig::hop_latency`], then enqueue at the next
//!   hop along the same static shortest path the flow-level fabric routes.
//! * Switch queues drop-tail at [`PacketConfig::queue_capacity`] and mark
//!   ECN at [`PacketConfig::ecn_threshold`].  With
//!   [`PacketConfig::pfc`] set, a switch egress queue crossing `xoff`
//!   pauses every link that can forward into it (the feeder set computed
//!   from the routes) until the queue drains back to `xon` — which is
//!   precisely the head-of-line blocking mechanism: a paused feeder stalls
//!   its whole FIFO, including traffic bound for idle ports, while pause
//!   never reaches links the hot queue cannot receive from, so up/down
//!   trees cannot form a pause cycle.
//! * Receivers deliver in order and NACK the first gap; the sender performs
//!   a go-back-N rewind.  ACK/NACK control packets return on a priority
//!   lane (per-hop latency only, no queueing) — the usual simplification
//!   for RDMA-style hardware ACKs.
//!
//! Determinism: events are totally ordered by `(time, insertion seq)` — the
//! calendar queue holding them pops exactly what a binary heap would, its
//! bucket width (derived from the configuration) only moves host time — and
//! the only randomness is the explicitly seeded packet-loss injector, so a
//! run fingerprints identically across repeats.  A flying packet is not
//! inside its `Arrive` event (which keeps events at 32 bytes): it waits in
//! its link's in-flight FIFO, exact because a link serializes one packet at
//! a time and every flight lasts `hop_latency`, so a link's arrivals happen
//! in departure order and equal arrival times tie-break by `seq` the same way.
//!
//! ## Driving the fabric directly
//!
//! The [`Engine`](crate::Engine) normally owns this loop; driving it by hand
//! shows the contract shared with the flow-level fabric (`add_flow` /
//! `resolve` / `take_completed`):
//!
//! ```
//! use ec_netsim::packet::{PacketConfig, PacketFabric};
//! use ec_netsim::Topology;
//!
//! let topo = Topology::single_switch(4, 12.5e9);
//! let mut fabric = PacketFabric::new(&topo, PacketConfig::default()).unwrap();
//! let flow = fabric.add_flow(0.0, 0, 2, (1 << 20) as f64);
//! let (mut now, mut done) = (0.0, Vec::new());
//! while done.is_empty() {
//!     now = fabric.resolve(now).expect("flow still in flight");
//!     fabric.take_completed(now, &mut done);
//! }
//! assert_eq!(done, vec![flow]);
//! assert_eq!(fabric.totals().drops, 0, "PFC keeps a lone flow lossless");
//! ```

use std::collections::VecDeque;

use crate::calendar::{CalendarQueue, Timed};
use crate::cluster::NodeId;
use crate::congcontrol::{CcState, CongControl, Dcqcn};
use crate::fabric::{FlowId, LinkUsage};
use crate::routing::RoutingTable;
use crate::scenario::SplitMix64;
use crate::topology::{EndpointId, LinkId, Topology};
use crate::SimError;

/// PFC pause/resume thresholds, in bytes of egress-queue occupancy.
///
/// A switch egress queue reaching `xoff` asserts pause on every link that
/// can forward into it; the pause clears once the queue is back at or
/// below `xon`.  Losslessness requires headroom above `xoff`: each paused
/// upstream link can still land the packet it was serializing plus whatever
/// is in flight, so size `queue_capacity - xoff` to at least a few MTUs per
/// inbound link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PfcConfig {
    /// Occupancy at which pause is asserted (bytes).
    pub xoff: u64,
    /// Occupancy at or below which pause is released (bytes).
    pub xon: u64,
}

/// Seeded random loss applied at the delivery point (for recovery tests).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LossConfig {
    /// Per-packet drop probability in `[0, 1)`.
    pub rate: f64,
    /// Seed for the deterministic per-packet drop decision.
    pub seed: u64,
}

/// Configuration for the per-packet fabric backend.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PacketConfig {
    /// Maximum payload per packet (bytes).
    pub mtu: u32,
    /// Per-link egress queue capacity (bytes); drop-tail beyond it.
    pub queue_capacity: u64,
    /// PFC pause thresholds; `None` runs the fabric lossy.
    pub pfc: Option<PfcConfig>,
    /// ECN mark threshold (bytes of switch-queue occupancy); `None` disables
    /// marking.
    pub ecn_threshold: Option<u64>,
    /// Per-hop propagation/forwarding latency (seconds).
    pub hop_latency: f64,
    /// Retransmission timeout (seconds): a sender with unacknowledged data
    /// and no cumulative-ACK progress for this long performs a go-back-N
    /// rewind.  This is the backstop for tail loss, which produces no
    /// out-of-order arrival and therefore no NACK.
    pub rto: f64,
    /// Seeded random loss at the delivery point; `None` for no injected loss.
    pub loss: Option<LossConfig>,
    /// Congestion-control algorithm applied per message.
    pub cc: CongControl,
}

impl Default for PacketConfig {
    /// Lossless RoCE-style defaults: 4 KiB MTU, 64-MTU queues, PFC at
    /// 32/16 MTUs, ECN at 8 MTUs, DCQCN congestion control.
    fn default() -> Self {
        const MTU: u64 = 4096;
        Self {
            mtu: MTU as u32,
            queue_capacity: 64 * MTU,
            pfc: Some(PfcConfig { xoff: 32 * MTU, xon: 16 * MTU }),
            ecn_threshold: Some(8 * MTU),
            hop_latency: 500e-9,
            rto: 1e-3,
            loss: None,
            cc: CongControl::Dcqcn(Dcqcn::default()),
        }
    }
}

impl PacketConfig {
    /// A lossy configuration: no PFC, so congestion is shed by drop-tail and
    /// repaired by go-back-N retransmission.
    pub fn lossy() -> Self {
        Self { pfc: None, ..Self::default() }
    }

    /// Same configuration with a different congestion controller.
    pub fn with_cc(mut self, cc: CongControl) -> Self {
        self.cc = cc;
        self
    }

    /// Check the configuration for internal consistency.
    ///
    /// Rejects zero MTUs, queues smaller than one MTU, inverted or
    /// out-of-range PFC thresholds, non-finite latencies and loss rates
    /// outside `[0, 1)`.
    pub fn validate(&self) -> Result<(), String> {
        if self.mtu == 0 {
            return Err("mtu must be at least 1 byte".into());
        }
        if self.queue_capacity < u64::from(self.mtu) {
            return Err(format!("queue_capacity {} smaller than one MTU {}", self.queue_capacity, self.mtu));
        }
        if !(self.hop_latency.is_finite() && self.hop_latency >= 0.0) {
            return Err(format!("hop_latency {} must be finite and non-negative", self.hop_latency));
        }
        if !(self.rto.is_finite() && self.rto > 0.0) {
            return Err(format!("rto {} must be finite and positive", self.rto));
        }
        if let Some(pfc) = &self.pfc {
            if pfc.xon == 0 || pfc.xon > pfc.xoff {
                return Err(format!("pfc thresholds need 0 < xon <= xoff, got xon={} xoff={}", pfc.xon, pfc.xoff));
            }
            if pfc.xoff > self.queue_capacity {
                return Err(format!("pfc xoff {} exceeds queue_capacity {}", pfc.xoff, self.queue_capacity));
            }
        }
        if let Some(loss) = &self.loss {
            if !(loss.rate >= 0.0 && loss.rate < 1.0) {
                return Err(format!("loss rate {} must be in [0, 1)", loss.rate));
            }
        }
        Ok(())
    }
}

/// Per-link packet counters accumulated by the packet fabric, alongside the
/// byte/time accounting shared with the flow fabric ([`LinkUsage`]).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PacketLinkUsage {
    /// Data packets fully serialized onto the link (retransmits included).
    pub packets: u64,
    /// Packets dropped at this link's queue (drop-tail) or, for the final
    /// hop, by the seeded loss injector.
    pub drops: u64,
    /// Packets ECN-marked while enqueuing here.
    pub ecn_marks: u64,
    /// PFC pause assertions received by this link.
    pub pfc_pauses: u64,
    /// Total time this link spent paused (seconds).
    pub pause_time: f64,
}

/// Whole-run packet counters, surfaced through
/// [`EngineMetrics`](crate::EngineMetrics).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PacketTotals {
    /// Data packets injected by senders (retransmissions included).
    pub data_packets: u64,
    /// Packets delivered in order at their destination.
    pub delivered_packets: u64,
    /// Packets dropped (queue overflow or seeded loss).
    pub drops: u64,
    /// Packets discarded at the receiver (out-of-order or duplicate after a
    /// go-back-N rewind).
    pub discarded_packets: u64,
    /// Packets ECN-marked.
    pub ecn_marks: u64,
    /// PFC pause assertions (counted per congested egress queue).
    pub pfc_pauses: u64,
    /// Packets re-sent by go-back-N rewinds.
    pub retransmits: u64,
    /// Cumulative ACKs returned to senders.
    pub acks: u64,
    /// NACKs returned to senders.
    pub nacks: u64,
    /// Internal packet events processed.
    pub events: u64,
}

/// One in-flight packet.
#[derive(Debug, Clone, Copy)]
struct Pkt {
    msg: u32,
    gen: u32,
    seq_no: u32,
    bytes: u32,
    /// Index into the message's path of the link this packet is on.
    hop: u16,
    ecn: bool,
    attempt: u32,
}

/// Internal event kinds, ordered by `(time, insertion seq)`.
#[derive(Debug, Clone, Copy)]
enum PEventKind {
    /// Sender attempts to inject its next packet(s).
    TrySend { msg: u32 },
    /// The packet serializing on `link` finished.
    SerDone { link: u32 },
    /// The front of `link`'s in-flight FIFO lands at its downstream end.
    Arrive { link: u32 },
    /// Cumulative ACK (or NACK) reaches the sender of `msg`.
    Ack { msg: u32, gen: u32, acked: u32, marked: bool, nack: bool },
    /// Retransmission timer for `msg` fires: rewind unless the cumulative
    /// ACK advanced since the timer was armed.
    Rto { msg: u32, gen: u32 },
}

#[derive(Debug, Clone, Copy)]
struct PEvent {
    time: f64,
    seq: u64,
    kind: PEventKind,
}

// Events are copied through the calendar's buckets on every push, sort and
// pop; carrying the packet inside `Arrive` made them 48 bytes.
const _: () = assert!(size_of::<PEvent>() == 32);

impl PartialEq for PEvent {
    fn eq(&self, other: &Self) -> bool {
        self.seq == other.seq
    }
}
impl Eq for PEvent {}
impl PartialOrd for PEvent {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for PEvent {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.time.total_cmp(&other.time).then(self.seq.cmp(&other.seq))
    }
}
impl Timed for PEvent {
    fn time(&self) -> f64 {
        self.time
    }
}

/// One directed link: egress FIFO at the upstream device plus serialization
/// state.
#[derive(Debug)]
struct PLink {
    from: EndpointId,
    capacity: f64,
    queue: VecDeque<Pkt>,
    /// Queued + in-service bytes (buffer occupancy for thresholds).
    qbytes: u64,
    serving: Option<Pkt>,
    ser_start: f64,
    /// Packets flying toward the downstream device, oldest first.  Each has
    /// one `Arrive` event pending and they fire in this order: the link's
    /// `SerDone`s are sequential and every flight lasts `hop_latency`.
    inflight: VecDeque<Pkt>,
    /// Number of congested downstream egress queues currently pausing this
    /// link (PFC); the link is paused while this is non-zero.
    pause_refs: u32,
    pause_started: f64,
    /// When the wait queue (excluding the in-service packet) last became
    /// non-empty; meaningful only while it is.
    backlog_since: f64,
    /// Messages stalled waiting for room in this (first-hop) queue.
    stalled: Vec<u32>,
}

/// Per-message sender + receiver state (slab-allocated, generation-guarded).
#[derive(Debug)]
struct Msg {
    gen: u32,
    path: Vec<LinkId>,
    bytes: u64,
    pkts: u32,
    /// Next sequence number to inject (rewound by go-back-N).
    next_seq: u32,
    /// Cumulative ACK the sender has seen.
    acked: u32,
    /// Receiver's next expected sequence number.
    expected: u32,
    /// Receiver may send one NACK per gap.
    nack_armed: bool,
    /// Receiver-side ECN echo pending for the next ACK.
    marked_pending: bool,
    attempt: u32,
    cc: CcState,
    /// Pacing clock: earliest time the next packet may be injected.
    next_allowed: f64,
    send_scheduled: bool,
    stalled: bool,
    rto_armed: bool,
    /// Cumulative ACK when the running retransmission timer was armed.
    rto_snapshot: u32,
    injected: f64,
    complete_time: f64,
    /// Contention-free completion time: store-and-forward pipeline fill plus
    /// draining the payload at the path bottleneck.
    wire_ideal: f64,
    done: bool,
}

/// The per-packet event simulator (see the [module docs](self)).
///
/// The engine-facing contract mirrors [`Fabric`](crate::Fabric):
/// [`add_flow`](Self::add_flow) injects a message,
/// [`resolve`](Self::resolve) advances internal events and returns the
/// next event time for a `FabricTick`, and
/// [`take_completed`](Self::take_completed) drains finished messages.
/// Between two of the engine's own events the engine additionally lets the
/// fabric run through the event times at which nothing completes, so it
/// ticks once per completion rather than once per packet event.
#[derive(Debug)]
pub struct PacketFabric {
    topology: Topology,
    routing: RoutingTable,
    cfg: PacketConfig,
    mtu: u64,
    links: Vec<PLink>,
    /// For each link: the links whose traffic can be forwarded into its
    /// egress queue (consecutive-hop pairs over all routes).  PFC pause
    /// from a congested queue propagates exactly to these feeders, which
    /// keeps up/down-routed trees deadlock-free while still head-of-line
    /// blocking every flow sharing a paused feeder.
    feeds: Vec<Vec<u32>>,
    /// Whether each link's egress queue is currently asserting pause.
    egress_pausing: Vec<bool>,
    msgs: Vec<Msg>,
    free: Vec<u32>,
    pending_free: Vec<u32>,
    active: usize,
    events: CalendarQueue<PEvent>,
    seq: u64,
    now: f64,
    completed: Vec<FlowId>,
    usage: Vec<LinkUsage>,
    pstats: Vec<PacketLinkUsage>,
    totals: PacketTotals,
}

impl PacketFabric {
    /// Build a packet fabric over `topology` (routes are computed once, as
    /// for the flow-level fabric).  Fails with
    /// [`SimError::BadPacketConfig`] if `config` fails
    /// [`PacketConfig::validate`], and with [`SimError::BadTopology`] if the
    /// topology cannot be routed.
    pub fn new(topology: &Topology, config: PacketConfig) -> Result<Self, SimError> {
        config.validate().map_err(SimError::BadPacketConfig)?;
        let routing = RoutingTable::new(topology).map_err(SimError::BadTopology)?;
        let links: Vec<PLink> = topology
            .links()
            .iter()
            .map(|l| PLink {
                from: l.from,
                capacity: l.capacity,
                queue: VecDeque::new(),
                qbytes: 0,
                serving: None,
                ser_start: 0.0,
                inflight: VecDeque::new(),
                pause_refs: 0,
                pause_started: 0.0,
                backlog_since: 0.0,
                stalled: Vec::new(),
            })
            .collect();
        let n = links.len();
        // Consecutive-hop pairs over every route: feeds[e] lists the links
        // whose packets can enter link e's egress queue.
        let mut feeds = vec![Vec::new(); n];
        let mut path = Vec::new();
        for src in 0..topology.nodes() {
            for dst in 0..topology.nodes() {
                if src == dst {
                    continue;
                }
                path.clear();
                routing.path_into(topology, src, dst, &mut path);
                for pair in path.windows(2) {
                    let (a, b) = (pair[0] as u32, pair[1]);
                    if !feeds[b].contains(&a) {
                        feeds[b].push(a);
                    }
                }
            }
        }
        // Calendar bucket width: 1/16 of the shortest delay the fabric
        // schedules (one hop's flight, or one MTU on the fastest link); the
        // 1 ms `Rto` timers sit in the queue's far tier.  On the repo
        // benchmark's `incast_packet` pass (1.17 M events per alltoall cell)
        // 1/16 and 1/64 measure within 3 % and 1x is 17 % slower.  Empty
        // buckets cost next to nothing since the queue skips them by its
        // occupancy bitmap: a sparse drain (one 64 MiB flow) takes 0.92-1.0x
        // as long at 1/64 as at 1/16.
        let fastest = links.iter().map(|l| l.capacity).fold(0.0, f64::max);
        let mut shortest = f64::from(config.mtu) / fastest;
        if config.hop_latency > 0.0 {
            shortest = shortest.min(config.hop_latency);
        }
        Ok(Self {
            events: CalendarQueue::new(shortest / 16.0),
            topology: topology.clone(),
            routing,
            mtu: u64::from(config.mtu),
            cfg: config,
            links,
            feeds,
            egress_pausing: vec![false; n],
            msgs: Vec::new(),
            free: Vec::new(),
            pending_free: Vec::new(),
            active: 0,
            seq: 0,
            now: 0.0,
            completed: Vec::new(),
            usage: vec![LinkUsage::default(); n],
            pstats: vec![PacketLinkUsage::default(); n],
            totals: PacketTotals::default(),
        })
    }

    /// Number of messages currently in flight.
    pub fn active_flows(&self) -> usize {
        self.active
    }

    /// The topology this fabric routes over.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Per-link byte/time accounting (same shape as the flow fabric's).
    pub fn usage(&self) -> &[LinkUsage] {
        &self.usage
    }

    /// Per-link packet counters (drops, marks, pauses).
    pub fn packet_usage(&self) -> &[PacketLinkUsage] {
        &self.pstats
    }

    /// Whole-run packet counters.
    pub fn totals(&self) -> &PacketTotals {
        &self.totals
    }

    /// Inject a `bytes`-byte message from node `src` to node `dst` at time
    /// `now`; returns its id.  Panics on intra-node or empty transfers, as
    /// the flow fabric does.
    pub fn add_flow(&mut self, now: f64, src: NodeId, dst: NodeId, bytes: f64) -> FlowId {
        assert!(src != dst, "intra-node transfers must not enter the fabric");
        assert!(bytes > 0.0, "flows must carry payload");
        self.advance_to(now);
        let wire_bytes = (bytes.ceil() as u64).max(1);
        let pkts = wire_bytes.div_ceil(self.mtu).min(u64::from(u32::MAX)) as u32;
        // A recycled slot keeps its generation and its path allocation.
        let (id, gen, mut path) = match self.free.pop() {
            Some(id) => (id, self.msgs[id as usize].gen, std::mem::take(&mut self.msgs[id as usize].path)),
            None => (self.msgs.len() as u32, 0, Vec::new()),
        };
        path.clear();
        self.routing.path_into(&self.topology, src, dst, &mut path);
        debug_assert!(!path.is_empty(), "inter-node paths traverse at least one link");
        let cc = CcState::new(self.links[path[0]].capacity);
        let min_cap = path.iter().map(|&l| self.links[l].capacity).fold(f64::INFINITY, f64::min);
        let first = (wire_bytes.min(self.mtu)) as f64;
        let mut wire_ideal = (wire_bytes as f64 - first) / min_cap;
        for &l in &path {
            wire_ideal += first / self.links[l].capacity + self.cfg.hop_latency;
        }
        let msg = Msg {
            gen,
            path,
            bytes: wire_bytes,
            pkts,
            next_seq: 0,
            acked: 0,
            expected: 0,
            nack_armed: true,
            marked_pending: false,
            attempt: 0,
            cc,
            next_allowed: now,
            send_scheduled: true,
            stalled: false,
            rto_armed: false,
            rto_snapshot: 0,
            injected: now,
            complete_time: 0.0,
            wire_ideal,
            done: false,
        };
        match self.msgs.get_mut(id as usize) {
            Some(slot) => *slot = msg,
            None => self.msgs.push(msg),
        }
        self.active += 1;
        self.push_event(now, PEventKind::TrySend { msg: id });
        id as FlowId
    }

    /// Process all internal events up to and including `now`.
    pub fn advance_to(&mut self, now: f64) {
        debug_assert!(
            now >= self.now - 1e-12 * self.now.abs().max(1.0),
            "packet fabric time moved backwards: {} -> {now}",
            self.now
        );
        while self.events.peek().is_some_and(|ev| ev.time <= now) {
            let ev = self.events.pop().expect("peeked");
            self.now = ev.time;
            self.totals.events += 1;
            match ev.kind {
                PEventKind::TrySend { msg } => {
                    self.msgs[msg as usize].send_scheduled = false;
                    self.try_send(msg, ev.time);
                }
                PEventKind::SerDone { link } => self.ser_done(link as usize, ev.time),
                PEventKind::Arrive { link } => self.arrive(link as usize, ev.time),
                PEventKind::Ack { msg, gen, acked, marked, nack } => {
                    self.on_ack(msg, gen, acked, marked, nack, ev.time);
                }
                PEventKind::Rto { msg, gen } => self.on_rto(msg, gen, ev.time),
            }
        }
        if now > self.now {
            self.now = now;
        }
    }

    /// Process internal events one timestamp at a time while the next one
    /// is strictly earlier than `horizon` and no message has completed;
    /// returns the time reached (the current time if nothing was due).  A
    /// caller looping `resolve` / `take_completed` with nothing of its own
    /// due before `horizon` would do exactly this, one round trip per time.
    pub(crate) fn drain_before(&mut self, horizon: f64) -> f64 {
        while self.completed.is_empty() {
            match self.events.peek() {
                Some(ev) if ev.time < horizon => {
                    let t = ev.time;
                    self.advance_to(t);
                }
                _ => break,
            }
        }
        self.now
    }

    /// Drain messages that completed at or before `now` into `out`.
    ///
    /// Completion data ([`completion_split`](Self::completion_split))
    /// remains readable until the next [`resolve`](Self::resolve) recycles
    /// the slots.
    pub fn take_completed(&mut self, now: f64, out: &mut Vec<FlowId>) {
        self.advance_to(now);
        out.append(&mut self.completed);
    }

    /// Advance to `now`, recycle completed slots and return
    /// the time of the next internal event (`None` when idle).
    ///
    /// The returned time is when the fabric next has *anything* to do, not
    /// when a message next completes: most such times complete nothing.
    pub fn resolve(&mut self, now: f64) -> Option<f64> {
        self.advance_to(now);
        while let Some(id) = self.pending_free.pop() {
            self.msgs[id as usize].gen = self.msgs[id as usize].gen.wrapping_add(1);
            self.free.push(id);
        }
        self.events.peek().map(|ev| ev.time)
    }

    /// `(queue, wire)` decomposition of a completed message's in-fabric
    /// time: `wire` is the contention-free store-and-forward time along its
    /// path, `queue` everything above it (queueing, pauses, pacing,
    /// retransmission).  Valid between completion and the next
    /// [`resolve`](Self::resolve).
    pub fn completion_split(&self, id: FlowId) -> (f64, f64) {
        let m = &self.msgs[id];
        debug_assert!(m.done, "completion_split is only defined for completed flows");
        let total = m.complete_time - m.injected;
        let wire = m.wire_ideal.min(total);
        ((total - wire).max(0.0), wire)
    }

    fn push_event(&mut self, time: f64, kind: PEventKind) {
        self.seq += 1;
        self.events.push(PEvent { time, seq: self.seq, kind });
    }

    fn pkt_bytes(&self, m: &Msg, seq_no: u32) -> u32 {
        if u64::from(seq_no) + 1 == u64::from(m.pkts) {
            (m.bytes - u64::from(m.pkts - 1) * self.mtu) as u32
        } else {
            self.mtu as u32
        }
    }

    /// Inject as many packets of `id` as window, pacing and first-hop queue
    /// room currently allow, then (re)arm the retransmission timer while
    /// data is outstanding.
    fn try_send(&mut self, id: u32, now: f64) {
        self.try_send_inner(id, now);
        let m = &self.msgs[id as usize];
        if !m.done && !m.rto_armed && m.next_seq > m.acked {
            let m = &mut self.msgs[id as usize];
            m.rto_armed = true;
            m.rto_snapshot = m.acked;
            let (gen, at) = (m.gen, now + self.cfg.rto);
            self.push_event(at, PEventKind::Rto { msg: id, gen });
        }
    }

    fn try_send_inner(&mut self, id: u32, now: f64) {
        loop {
            let (first_hop, bytes) = {
                let m = &self.msgs[id as usize];
                if m.done || m.next_seq >= m.pkts {
                    return;
                }
                let window = self.cfg.cc.window().max(self.mtu);
                let in_flight = u64::from(m.next_seq - m.acked) * self.mtu;
                if in_flight >= window {
                    return; // window full: an ACK will re-poke us
                }
                if m.next_allowed > now {
                    if !m.send_scheduled {
                        let at = m.next_allowed;
                        self.msgs[id as usize].send_scheduled = true;
                        self.push_event(at, PEventKind::TrySend { msg: id });
                    }
                    return;
                }
                (m.path[0], self.pkt_bytes(m, m.next_seq))
            };
            if self.links[first_hop].qbytes + u64::from(bytes) > self.cfg.queue_capacity {
                // The sender's own NIC queue is full: stall, never drop.
                if !self.msgs[id as usize].stalled {
                    self.msgs[id as usize].stalled = true;
                    self.links[first_hop].stalled.push(id);
                }
                return;
            }
            let pkt = {
                let m = &mut self.msgs[id as usize];
                let pkt =
                    Pkt { msg: id, gen: m.gen, seq_no: m.next_seq, bytes, hop: 0, ecn: false, attempt: m.attempt };
                m.next_seq += 1;
                let rate = self.cfg.cc.rate(&m.cc);
                if rate.is_finite() && rate > 0.0 {
                    m.next_allowed = m.next_allowed.max(now) + f64::from(bytes) / rate;
                }
                pkt
            };
            self.totals.data_packets += 1;
            self.enqueue(first_hop, pkt, now);
        }
    }

    /// Place `pkt` in link `l`'s egress queue (or straight into service),
    /// applying drop-tail, ECN marking and PFC assertion.
    fn enqueue(&mut self, l: LinkId, mut pkt: Pkt, now: f64) {
        if self.links[l].qbytes + u64::from(pkt.bytes) > self.cfg.queue_capacity {
            // Only switch hops can get here: first-hop injection pre-checks
            // room and final hops deliver without queueing.
            self.pstats[l].drops += 1;
            self.totals.drops += 1;
            return;
        }
        let from = self.links[l].from;
        let is_switch = from >= self.topology.nodes();
        if is_switch && !pkt.ecn {
            if let Some(th) = self.cfg.ecn_threshold {
                if self.links[l].qbytes >= th {
                    pkt.ecn = true;
                    self.pstats[l].ecn_marks += 1;
                    self.totals.ecn_marks += 1;
                }
            }
        }
        let link = &mut self.links[l];
        link.qbytes += u64::from(pkt.bytes);
        if link.serving.is_none() && link.pause_refs == 0 {
            self.start_service(l, pkt, now);
        } else {
            link.queue.push_back(pkt);
            if link.queue.len() == 1 {
                link.backlog_since = now;
            }
        }
        if is_switch && !self.egress_pausing[l] {
            if let Some(PfcConfig { xoff, .. }) = self.cfg.pfc {
                if self.links[l].qbytes >= xoff {
                    self.assert_pause(l, now);
                }
            }
        }
    }

    fn start_service(&mut self, l: LinkId, pkt: Pkt, now: f64) {
        let link = &mut self.links[l];
        debug_assert!(link.serving.is_none() && link.pause_refs == 0);
        let ser = f64::from(pkt.bytes) / link.capacity;
        link.serving = Some(pkt);
        link.ser_start = now;
        self.push_event(now + ser, PEventKind::SerDone { link: l as u32 });
    }

    /// If link `l` is idle and unpaused, move the next queued packet into
    /// service.
    fn kick(&mut self, l: LinkId, now: f64) {
        let link = &mut self.links[l];
        if link.serving.is_some() || link.pause_refs > 0 {
            return;
        }
        if let Some(pkt) = link.queue.pop_front() {
            if link.queue.is_empty() {
                self.usage[l].saturated_time += now - link.backlog_since;
            }
            self.start_service(l, pkt, now);
        }
    }

    /// Egress queue of link `e` crossed `xoff`: pause every link that can
    /// forward into it.  A feeder shared with uncongested queues stalls its
    /// whole FIFO — the head-of-line blocking PFC is known for — but pause
    /// never propagates to links the congested queue cannot receive from,
    /// so up/down-routed trees cannot form a pause cycle.
    fn assert_pause(&mut self, e: LinkId, now: f64) {
        self.egress_pausing[e] = true;
        self.totals.pfc_pauses += 1;
        for i in 0..self.feeds[e].len() {
            let m = self.feeds[e][i] as usize;
            let link = &mut self.links[m];
            link.pause_refs += 1;
            if link.pause_refs == 1 {
                link.pause_started = now;
                self.pstats[m].pfc_pauses += 1;
            }
        }
    }

    /// Egress queue of link `e` drained to `xon`: lift its pause and kick
    /// any feeder no longer paused by anyone.
    fn release_pause(&mut self, e: LinkId, now: f64) {
        self.egress_pausing[e] = false;
        for i in 0..self.feeds[e].len() {
            let m = self.feeds[e][i] as usize;
            self.links[m].pause_refs -= 1;
            if self.links[m].pause_refs == 0 {
                self.pstats[m].pause_time += now - self.links[m].pause_started;
                self.kick(m, now);
            }
        }
    }

    fn ser_done(&mut self, l: LinkId, now: f64) {
        let (pkt, from) = {
            let link = &mut self.links[l];
            let pkt = link.serving.take().expect("SerDone without a packet in service");
            link.qbytes -= u64::from(pkt.bytes);
            (pkt, link.from)
        };
        self.usage[l].bytes += f64::from(pkt.bytes);
        let (start, end) = (self.links[l].ser_start, now);
        self.usage[l].busy_time += end - start;
        match self.usage[l].intervals.last_mut() {
            Some(last) if start <= last.1 => last.1 = end,
            _ => self.usage[l].intervals.push((start, end)),
        }
        self.pstats[l].packets += 1;
        self.links[l].inflight.push_back(pkt);
        self.push_event(now + self.cfg.hop_latency, PEventKind::Arrive { link: l as u32 });
        self.kick(l, now);
        // The queue just shrank: release this queue's pause at xon, and
        // re-poke senders stalled on a first-hop queue.
        if self.egress_pausing[l] {
            if let Some(PfcConfig { xon, .. }) = self.cfg.pfc {
                if self.links[l].qbytes <= xon {
                    self.release_pause(l, now);
                }
            }
        }
        if from < self.topology.nodes() && !self.links[l].stalled.is_empty() {
            let stalled = std::mem::take(&mut self.links[l].stalled);
            for id in stalled {
                let m = &mut self.msgs[id as usize];
                m.stalled = false;
                if !m.done && !m.send_scheduled {
                    m.send_scheduled = true;
                    self.push_event(now, PEventKind::TrySend { msg: id });
                }
            }
        }
    }

    fn arrive(&mut self, l: LinkId, now: f64) {
        let mut pkt = self.links[l].inflight.pop_front().expect("Arrive without a packet in flight");
        let m = &self.msgs[pkt.msg as usize];
        if m.gen != pkt.gen || m.done {
            return; // trailing traffic of a finished message
        }
        let hops = m.path.len();
        if let Some(&next) = m.path.get(usize::from(pkt.hop) + 1) {
            pkt.hop += 1;
            self.enqueue(next, pkt, now);
            return;
        }
        if let Some(loss) = &self.cfg.loss {
            let h = SplitMix64::mix(
                loss.seed ^ (u64::from(pkt.msg) << 40) ^ (u64::from(pkt.seq_no) << 8) ^ u64::from(pkt.attempt),
            );
            if (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64) < loss.rate {
                self.pstats[l].drops += 1;
                self.totals.drops += 1;
                return;
            }
        }
        let id = pkt.msg;
        let m = &mut self.msgs[id as usize];
        m.marked_pending |= pkt.ecn;
        let ack_latency = hops as f64 * self.cfg.hop_latency;
        match pkt.seq_no.cmp(&m.expected) {
            std::cmp::Ordering::Less => {
                // Go-back-N duplicate: the original cumulative ACK is
                // already on its way back.
                self.totals.discarded_packets += 1;
            }
            std::cmp::Ordering::Greater => {
                self.totals.discarded_packets += 1;
                if m.nack_armed {
                    m.nack_armed = false;
                    let (gen, acked, marked) = (m.gen, m.expected, std::mem::take(&mut m.marked_pending));
                    self.totals.nacks += 1;
                    self.push_event(now + ack_latency, PEventKind::Ack { msg: id, gen, acked, marked, nack: true });
                }
            }
            std::cmp::Ordering::Equal => {
                m.expected += 1;
                m.nack_armed = true;
                self.totals.delivered_packets += 1;
                let (gen, acked, marked) = (m.gen, m.expected, std::mem::take(&mut m.marked_pending));
                let last = acked == m.pkts;
                self.totals.acks += 1;
                self.push_event(now + ack_latency, PEventKind::Ack { msg: id, gen, acked, marked, nack: false });
                if last {
                    self.complete(id, now);
                }
            }
        }
    }

    fn complete(&mut self, id: u32, now: f64) {
        let m = &mut self.msgs[id as usize];
        debug_assert!(!m.done);
        m.done = true;
        m.complete_time = now;
        self.active -= 1;
        self.completed.push(id as FlowId);
        self.pending_free.push(id);
    }

    fn on_ack(&mut self, id: u32, gen: u32, acked: u32, marked: bool, nack: bool, now: f64) {
        {
            let m = &mut self.msgs[id as usize];
            if m.gen != gen || m.done {
                return;
            }
            m.acked = m.acked.max(acked);
            self.cfg.cc.on_ack(&mut m.cc, now, marked);
            if nack && m.acked < m.next_seq {
                self.totals.retransmits += u64::from(m.next_seq - m.acked);
                m.next_seq = m.acked;
                m.attempt += 1;
                self.cfg.cc.on_loss(&mut m.cc, now);
            }
        }
        self.try_send(id, now);
    }

    /// Retransmission timer: if the cumulative ACK advanced since arming,
    /// the path is alive — just re-arm.  Otherwise treat the silence as a
    /// tail loss and rewind.
    fn on_rto(&mut self, id: u32, gen: u32, now: f64) {
        {
            let m = &mut self.msgs[id as usize];
            if m.gen != gen || m.done {
                return;
            }
            m.rto_armed = false;
            if m.next_seq == m.acked {
                return; // nothing outstanding; the next injection re-arms
            }
            if m.acked == m.rto_snapshot {
                self.totals.retransmits += u64::from(m.next_seq - m.acked);
                m.next_seq = m.acked;
                m.attempt += 1;
                self.cfg.cc.on_loss(&mut m.cc, now);
            }
        }
        self.try_send(id, now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::congcontrol::FixedWindow;

    /// Drive `fabric` until `flows` messages complete; returns the final
    /// virtual time and completion order.
    fn run_from(fabric: &mut PacketFabric, flows: usize, start: f64) -> (f64, Vec<FlowId>) {
        let mut done = Vec::new();
        let mut now = start;
        let mut guard = 0u64;
        while done.len() < flows {
            let next = fabric.resolve(now).expect("fabric went idle with flows outstanding");
            now = next;
            fabric.take_completed(now, &mut done);
            guard += 1;
            assert!(guard < 50_000_000, "packet fabric failed to converge");
        }
        (now, done)
    }

    fn run(fabric: &mut PacketFabric, flows: usize) -> (f64, Vec<FlowId>) {
        run_from(fabric, flows, 0.0)
    }

    #[test]
    fn lone_message_runs_at_wire_speed() {
        // One message alone on an H-hop path, store and forward, from
        // injection to the last byte's arrival.  Its first packet carries
        // `first = min(MTU, B)` bytes and crosses hop l in
        // `first / C_l + hop_latency` (serialize, then fly).  The rest,
        // `B − first`, streams behind it at the slowest hop's rate, so
        //   T = Σ_l (first / C_l + hop_latency) + (B − first) / C_min.
        // With one capacity C on every hop this is
        //   T = B / C + (H − 1) · first / C + H · hop_latency.
        let cfg = PacketConfig::default();
        let mtu = f64::from(cfg.mtu);
        let closed_form = |caps: &[f64], bytes: f64| {
            let first = bytes.min(mtu);
            let c_min = caps.iter().copied().fold(f64::INFINITY, f64::min);
            caps.iter().map(|c| first / c + cfg.hop_latency).sum::<f64>() + (bytes - first) / c_min
        };
        let c = 12.5e9;
        let paths: [(Topology, NodeId, NodeId, &[f64]); 4] = [
            (Topology::single_switch(4, c), 0, 1, &[c, c]),
            (Topology::fat_tree(8, 4, 4.0, c), 0, 1, &[c, c]),
            (Topology::fat_tree(8, 4, 4.0, c), 0, 7, &[c, c, c, c]),
            // Full bisection: the leaf–core hops run at 4·C.
            (Topology::fat_tree(8, 4, 1.0, c), 0, 7, &[c, 4.0 * c, 4.0 * c, c]),
        ];
        for (topo, src, dst, caps) in &paths {
            for bytes in [100u32, 4096, 4097, 8192, 1_000_000, 1 << 20] {
                let mut f = PacketFabric::new(topo, cfg).unwrap();
                let id = f.add_flow(0.0, *src, *dst, f64::from(bytes));
                let (t, done) = run(&mut f, 1);
                assert_eq!(done, vec![id]);
                let want = closed_form(caps, f64::from(bytes));
                let case = format!("{} {src}->{dst}, {bytes} B", topo.name());
                assert!((t - want).abs() <= 1e-12 * want, "{case}: {t} against the closed form {want}");
                let (queue, wire) = f.completion_split(id);
                assert!((queue + wire - t).abs() < 1e-12);
                assert!(queue <= 1e-12 * t, "{case}: an uncontended message queues {queue} s");
                assert_eq!(f.totals().drops, 0);
                assert_eq!(f.totals().retransmits, 0);
                assert_eq!(f.totals().delivered_packets, u64::from(bytes.div_ceil(cfg.mtu)));
            }
        }
    }

    #[test]
    fn incast_with_pfc_is_lossless() {
        // `validate` allows `hop_latency == 0`; the calendar bucket width
        // then comes from the MTU serialization time alone.
        let topo = Topology::single_switch(8, 1e9);
        for hop_latency in [PacketConfig::default().hop_latency, 0.0] {
            let run_once = || {
                let mut f = PacketFabric::new(&topo, PacketConfig { hop_latency, ..PacketConfig::default() }).unwrap();
                for src in 1..8 {
                    f.add_flow(0.0, src, 0, 1_000_000.0);
                }
                let (t, done) = run(&mut f, 7);
                (t.to_bits(), done, f)
            };
            let (t, done, f) = run_once();
            assert_eq!(done.len(), 7);
            assert_eq!(f.totals().drops, 0, "PFC must keep the incast lossless");
            assert_eq!(f.totals().retransmits, 0);
            assert!(f.totals().pfc_pauses > 0, "a 7:1 incast must trigger pauses");
            let serial = 7.0 * 1_000_000.0 / 1e9;
            assert!(f64::from_bits(t) >= serial, "seven megabytes through one downlink take at least {serial}");
            let down = topo.links().iter().position(|l| l.to == 0).unwrap();
            assert!(f.usage()[down].bytes >= 7.0 * 1_000_000.0);
            let (t2, done2, f2) = run_once();
            assert_eq!((t, done, f.totals()), (t2, done2, f2.totals()), "reruns must be bit-identical");
        }
    }

    #[test]
    fn drain_before_matches_stepping_one_event_time_at_a_time() {
        let load = || {
            let mut f = PacketFabric::new(&Topology::fat_tree(8, 4, 2.0, 1e9), PacketConfig::lossy()).unwrap();
            for src in 1..8 {
                f.add_flow(0.0, src, 0, 300_000.0);
            }
            f
        };
        // Reference: the resolve / take_completed loop, recording each
        // completion batch with its time.
        let (mut stepped, mut f, mut now) = (Vec::new(), load(), 0.0);
        while f.active_flows() > 0 {
            now = f.resolve(now).expect("flows outstanding");
            let mut done = Vec::new();
            f.take_completed(now, &mut done);
            if !done.is_empty() {
                stepped.push((now.to_bits(), done));
            }
        }
        // Same fabric, one `drain_before` per completion batch; a horizon in
        // the middle of the run must stop it without skipping anything.
        let (mut drained, mut g) = (Vec::new(), load());
        let mid = f64::from_bits(stepped[stepped.len() / 2].0);
        while g.active_flows() > 0 {
            let next = g.resolve(g.now).expect("flows outstanding");
            let horizon = if next < mid { mid } else { f64::INFINITY };
            let t = g.drain_before(horizon);
            assert!(t >= next && t < horizon, "a due event is processed, the horizon is not reached");
            let mut done = Vec::new();
            g.take_completed(t, &mut done);
            if !done.is_empty() {
                drained.push((t.to_bits(), done));
            }
        }
        assert_eq!(drained, stepped);
        assert_eq!(g.totals(), f.totals());
        assert!(f.totals().retransmits > 0, "the lossy incast must exercise recovery");
    }

    #[test]
    fn feeders_are_adjacent_links_only() {
        // PFC pause from link `e`'s egress queue reaches exactly the links
        // that end where `e` starts; routes must not leak into each other.
        let topo = Topology::fat_tree(8, 4, 2.0, 1e9);
        let f = PacketFabric::new(&topo, PacketConfig::default()).unwrap();
        for (e, feeders) in f.feeds.iter().enumerate() {
            for &m in feeders {
                assert_eq!(topo.links()[m as usize].to, topo.links()[e].from, "link {m} cannot feed link {e}");
            }
        }
        assert!(f.feeds.iter().any(|feeders| !feeders.is_empty()));
    }

    #[test]
    fn lossy_drop_tail_recovers_by_go_back_n() {
        let mut cfg = PacketConfig::lossy();
        cfg.queue_capacity = 8 * u64::from(cfg.mtu); // tiny switch buffers
        cfg.ecn_threshold = None;
        cfg.cc = CongControl::FixedWindow(FixedWindow { window_bytes: 64 * 4096 });
        let topo = Topology::single_switch(8, 1e9);
        let mut f = PacketFabric::new(&topo, cfg).unwrap();
        for src in 1..8 {
            f.add_flow(0.0, src, 0, 500_000.0);
        }
        let (_, done) = run(&mut f, 7);
        assert_eq!(done.len(), 7, "all messages complete despite drops");
        let totals = *f.totals();
        assert!(totals.drops > 0, "a 7:1 incast into 8-MTU buffers must drop");
        assert!(totals.retransmits > 0, "drops must trigger go-back-N rewinds");
        assert!(totals.nacks > 0);
        assert_eq!(
            totals.data_packets,
            totals.delivered_packets + totals.drops + totals.discarded_packets,
            "every injected packet is delivered, dropped or discarded"
        );
    }

    #[test]
    fn seeded_loss_is_deterministic() {
        let run_once = || {
            let cfg = PacketConfig { loss: Some(LossConfig { rate: 0.05, seed: 7 }), ..PacketConfig::default() };
            let topo = Topology::single_switch(4, 1e9);
            let mut f = PacketFabric::new(&topo, cfg).unwrap();
            f.add_flow(0.0, 0, 1, 400_000.0);
            f.add_flow(0.0, 2, 3, 400_000.0);
            let (t, _) = run(&mut f, 2);
            (t, *f.totals())
        };
        let (ta, a) = run_once();
        let (tb, b) = run_once();
        assert_eq!(ta.to_bits(), tb.to_bits(), "seeded-loss runs must be bit-identical");
        assert_eq!(a, b);
        assert!(a.drops > 0, "5% loss over ~100 packets should drop at least one");
        assert!(a.retransmits > 0);
    }

    #[test]
    fn ecn_marks_appear_under_congestion() {
        let topo = Topology::single_switch(8, 1e9);
        let mut f = PacketFabric::new(&topo, PacketConfig::default()).unwrap();
        for src in 1..8 {
            f.add_flow(0.0, src, 0, 1_000_000.0);
        }
        run(&mut f, 7);
        assert!(f.totals().ecn_marks > 0, "an incast must cross the ECN threshold");
        let down = topo.links().iter().position(|l| l.to == 0).unwrap();
        assert!(f.packet_usage()[down].ecn_marks > 0, "marks happen at the congested downlink");
    }

    #[test]
    fn completed_slots_recycle_after_resolve() {
        let topo = Topology::single_switch(4, 1e9);
        let mut f = PacketFabric::new(&topo, PacketConfig::default()).unwrap();
        let a = f.add_flow(0.0, 0, 1, 4096.0);
        let (t, done) = run(&mut f, 1);
        assert_eq!(done, vec![a]);
        assert_eq!(f.active_flows(), 0);
        f.resolve(t); // the engine always resolves after draining completions
        let b = f.add_flow(t, 2, 3, 4096.0);
        assert_eq!(b, a, "completed slots are recycled after resolve");
        let (_, done2) = run_from(&mut f, 1, t);
        assert_eq!(done2, vec![b]);
    }

    #[test]
    fn config_validation_rejects_nonsense() {
        let ok = PacketConfig::default();
        assert!(ok.validate().is_ok());
        let bad = PacketConfig { mtu: 0, ..PacketConfig::default() };
        assert!(bad.validate().is_err());
        let bad = PacketConfig { queue_capacity: 16, ..PacketConfig::default() };
        assert!(bad.validate().is_err());
        let bad = PacketConfig { pfc: Some(PfcConfig { xoff: 1024, xon: 4096 }), ..PacketConfig::default() };
        assert!(bad.validate().is_err());
        let bad = PacketConfig { loss: Some(LossConfig { rate: 1.5, seed: 0 }), ..PacketConfig::default() };
        assert!(bad.validate().is_err());
    }
}

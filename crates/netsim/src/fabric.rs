//! Flow-level contention model over a [`Topology`]: max-min fair sharing.
//!
//! Every in-flight transfer is a *flow* routed over the static shortest path
//! between its endpoint nodes (see [`crate::routing`]).  All flows crossing a
//! link share its capacity; the rate of each flow is the **max-min fair**
//! allocation computed by progressive filling: all flows ramp up together
//! until some link saturates, the flows crossing it freeze at that fair
//! share, and the remaining flows keep ramping on the residual capacities.
//! The allocation is recomputed whenever a flow arrives or departs, so
//! completion times are dynamic — every resolve gives the engine a fresh
//! completion estimate, and the engine drops the ticks of older ones.
//!
//! Two invariants of max-min fairness are load-bearing (and property-tested):
//!
//! * **feasibility** — on every link the flow rates sum to at most the
//!   capacity,
//! * **work conservation** — every flow crosses at least one saturated link
//!   (nobody can be sped up without slowing a flow that is no faster).
//!
//! The common uncontended case (each flow alone at its own bottleneck) is
//! recognized in `O(flows · path)` without running the filling loop, so
//! congestion-free programs simulate at nearly alpha–beta speed.
//!
//! # Layout and determinism
//!
//! Every fabric event sweeps all active flows, so what a sweep reads lives in
//! dense arrays parallel to the active list and `swap_remove`d with it
//! (`remaining`, `rate`, `done_below`, `bound`, `hops`, and the paths in one
//! flat `route` arena of stride [`RoutingTable::max_path_len`]); the slab
//! keeps only what outlives a flow.  Per-link capacities and tolerance
//! thresholds are dense and computed once, and `link_flows[l]` — who crosses
//! link `l` — is updated on admission and completion, so a filling starts
//! from the list lengths and its rounds visit only the links that still
//! carry an unfrozen flow.
//!
//! Results are bit-identical across such layout changes only while these
//! orders hold: `allocated[l]` is summed flow by flow in active-list order;
//! `remaining` is rebased by `(rem − rate·dt).max(0)` at *every* advance;
//! `usage.bytes` grows by `rate·dt` per busy link per advance; a filling
//! round takes `inc = min cap_left/count` over the links, then `fill += inc`
//! and `cap_left = (cap_left − inc·count).max(0)`; the active list shrinks
//! by `swap_remove`.  Float addition does not associate, so two tempting
//! shortcuts are *not* equivalent: solving connected components separately
//! (the fill level is a running sum of increments, and a component would
//! skip the others') and rebasing `remaining` lazily (one `rate·Δt` over a
//! merged span rounds differently from the per-advance steps).  Free, because
//! no result depends on them: the order links are visited in a round, the
//! order flows freeze within it, and the order of `link_flows[l]`.

use crate::cluster::NodeId;
use crate::engine::time_backstep_tolerance;
use crate::routing::RoutingTable;
use crate::topology::{LinkId, Topology, TopologyError};

/// Identifier of an in-flight flow (slab index; ids are reused after the
/// [`Fabric::resolve`] that follows their completion).
pub type FlowId = usize;

/// Residual payload below which a flow counts as complete (bytes).  Far
/// smaller than any valid payload (validation rejects zero-byte puts) yet far
/// larger than the float rounding of `rate * dt` rebasing.  The rounding
/// error scales with the flow size (~`remaining * f64::EPSILON` per rebase),
/// so completion also accepts a relative residual — without it, a multi-GB
/// flow would never be detected complete at its own estimated finish and the
/// tick loop would stall.
const COMPLETE_EPS_BYTES: f64 = 1e-6;

/// Relative counterpart of [`COMPLETE_EPS_BYTES`]: a flow is complete once
/// its residual drops below this fraction of its original payload.
const COMPLETE_EPS_RELATIVE: f64 = 1e-9;

/// Relative tolerance used to call a link saturated.
const SATURATION_RTOL: f64 = 1e-9;

/// Slab entry of a flow: what outlives its time in the active arrays.
#[derive(Debug, Clone)]
struct FlowState {
    /// Links the flow crosses (buffer is recycled across slab reuse); kept
    /// past completion to match balancing admissions.
    path: Vec<LinkId>,
    /// Rate at completion in bytes/s, adopted by a matching admission (the
    /// live rate of an active flow is `Fabric::rate[pos]`).
    rate: f64,
    /// Index in the active-flow arrays, or `usize::MAX` when inactive.
    pos: usize,
}

/// One hop of an active flow's path in the `route` arena.
#[derive(Debug, Clone, Copy, Default)]
struct Hop {
    link: u32,
    /// Index of this hop's entry in `link_flows[link]`.
    at: u32,
}

/// Accumulated per-link counters of one simulation run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LinkUsage {
    /// Bytes carried by the link.
    pub bytes: f64,
    /// Time during which at least one flow used the link.
    pub busy_time: f64,
    /// Time during which the link was fully allocated (the bottleneck of the
    /// flows crossing it) — the "rate-limited" congestion measure.
    pub saturated_time: f64,
    /// Coalesced `[start, end)` intervals during which at least one flow
    /// used the link, in increasing time order; their total length is
    /// [`LinkUsage::busy_time`].  Adjacent windows merge as time advances,
    /// so the vector length is bounded by the number of idle gaps, not by
    /// the number of solver re-resolutions.
    pub intervals: Vec<(f64, f64)>,
}

/// Flow-level fabric state: active flows, their max-min rates and per-link
/// usage accounting.
#[derive(Debug, Clone)]
pub struct Fabric {
    topology: Topology,
    routing: RoutingTable,
    flows: Vec<FlowState>,
    free: Vec<FlowId>,
    // --- per active flow, parallel arrays (see "Layout and determinism") ---
    active: Vec<FlowId>,
    /// Bytes still to serve as of the fabric's last advance.
    remaining: Vec<f64>,
    /// Current max-min rate in bytes/s (0 until the next [`Fabric::resolve`]).
    rate: Vec<f64>,
    /// Residual at or below which the flow is complete (from its payload).
    done_below: Vec<f64>,
    /// Smallest capacity along the path: the rate of an uncontended flow.
    bound: Vec<f64>,
    /// Path length; flow `i`'s hops are `route[i * stride..][..hops[i]]`.
    hops: Vec<u32>,
    route: Vec<Hop>,
    stride: usize,
    /// Earliest estimated completion among active flows (set by `resolve`).
    next_completion: Option<f64>,
    /// Virtual time the flow remainders and link usage are rebased to.
    now: f64,
    // --- per link ---
    capacity: Vec<f64>,
    /// `capacity * (1 - SATURATION_RTOL)`: allocated at or above is saturated.
    saturated_at: Vec<f64>,
    /// `capacity * (1 + SATURATION_RTOL)`: allocated at or below is feasible.
    feasible_to: Vec<f64>,
    /// Post-solve allocated rate per link.
    allocated: Vec<f64>,
    usage: Vec<LinkUsage>,
    /// Per link, `(position, hop index)` of every active flow crossing it.
    link_flows: Vec<Vec<(u32, u32)>>,
    /// Per link, how many flows at the fabric's smallest capacity (no path
    /// bound is lower) fit under twice the feasibility tolerance — the
    /// margin covers the rounding of the sum — and how many links carry
    /// more: while one does, the fast path of `solve` cannot be feasible.
    fits: Vec<usize>,
    overfull: usize,
    /// Flows completed since the last resolve, with a "matched by an
    /// identical-path admission" flag.  Their slabs are released at the next
    /// [`Fabric::resolve`], which lets that resolve skip the solver entirely
    /// when departures and arrivals balance out link-for-link (the steady
    /// state of pipelined collectives).
    just_completed: Vec<(FlowId, bool)>,
    /// Completions not (yet) matched by an identical-path admission.
    unmatched_completions: usize,
    /// Admissions not matched against a completed flow's path.
    unmatched_additions: usize,
    /// Full max-min solver passes run (see [`crate::EngineMetrics`]).
    solves: u64,
    /// Resolutions that took the balanced-swap shortcut instead of solving.
    balanced_swaps: u64,
    // --- filling scratch (kept to stay allocation-free in steady state) ---
    cap_left: Vec<f64>,
    unfrozen_count: Vec<u32>,
    /// Links still crossed by an unfrozen flow; those saturated this round.
    live: Vec<u32>,
    saturated: Vec<u32>,
}

/// `allocated[l] = Σ per_flow[i]` over the flows crossing `l`, summed in
/// active-list order.
fn allocate(allocated: &mut [f64], per_flow: &[f64], route: &[Hop], hops: &[u32], stride: usize) {
    allocated.fill(0.0);
    for (i, &r) in per_flow.iter().enumerate() {
        for h in &route[i * stride..][..hops[i] as usize] {
            allocated[h.link as usize] += r;
        }
    }
}

impl Fabric {
    /// Build a fabric over `topology` (routes are precomputed here).
    ///
    /// Fails if the topology is invalid or not fully connected.  The
    /// degenerate contention-free topology has no links to share, hence no
    /// fabric: the engine prices it with the plain alpha–beta model instead.
    pub fn new(topology: Topology) -> Result<Self, TopologyError> {
        if topology.is_contention_free() {
            return Err(TopologyError::ContentionFree { topology: topology.name().to_string() });
        }
        let routing = RoutingTable::new(&topology)?;
        let links = topology.links().len();
        let capacity: Vec<f64> = topology.links().iter().map(|l| l.capacity).collect();
        Ok(Self {
            stride: routing.max_path_len(),
            saturated_at: capacity.iter().map(|c| c * (1.0 - SATURATION_RTOL)).collect(),
            feasible_to: capacity.iter().map(|c| c * (1.0 + SATURATION_RTOL)).collect(),
            fits: {
                let smallest = capacity.iter().copied().fold(f64::INFINITY, f64::min);
                capacity.iter().map(|c| (c * (1.0 + 2.0 * SATURATION_RTOL) / smallest) as usize).collect()
            },
            overfull: 0,
            capacity,
            topology,
            routing,
            flows: Vec::new(),
            free: Vec::new(),
            active: Vec::new(),
            remaining: Vec::new(),
            rate: Vec::new(),
            done_below: Vec::new(),
            bound: Vec::new(),
            hops: Vec::new(),
            route: Vec::new(),
            next_completion: None,
            now: 0.0,
            allocated: vec![0.0; links],
            usage: vec![LinkUsage::default(); links],
            link_flows: vec![Vec::new(); links],
            just_completed: Vec::new(),
            unmatched_completions: 0,
            unmatched_additions: 0,
            solves: 0,
            balanced_swaps: 0,
            cap_left: vec![0.0; links],
            unfrozen_count: vec![0; links],
            live: Vec::new(),
            saturated: Vec::new(),
        })
    }

    /// The topology this fabric models.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The static routes flows follow.
    pub fn routing(&self) -> &RoutingTable {
        &self.routing
    }

    /// Number of flows currently in flight.
    pub fn active_flows(&self) -> usize {
        self.active.len()
    }

    /// Earliest estimated completion among active flows (as of the last
    /// [`Fabric::resolve`]).
    pub fn next_completion(&self) -> Option<f64> {
        self.next_completion
    }

    /// Current rate of `flow` in bytes/s.
    pub fn rate(&self, flow: FlowId) -> f64 {
        let f = &self.flows[flow];
        // An inactive flow's `pos` is out of range: it reports its last rate.
        self.rate.get(f.pos).copied().unwrap_or(f.rate)
    }

    /// Links `flow` crosses.
    pub fn path_of(&self, flow: FlowId) -> &[LinkId] {
        &self.flows[flow].path
    }

    /// Post-solve total rate allocated on `link` (bytes/s).
    pub fn link_allocated(&self, link: LinkId) -> f64 {
        self.allocated[link]
    }

    /// Whether `link` is currently fully allocated.
    pub fn link_saturated(&self, link: LinkId) -> bool {
        self.allocated[link] >= self.saturated_at[link]
    }

    /// Accumulated usage counters, indexed like [`Topology::links`].
    pub fn usage(&self) -> &[LinkUsage] {
        &self.usage
    }

    /// Full max-min solver passes run so far.
    pub fn solver_passes(&self) -> u64 {
        self.solves
    }

    /// Resolutions served by the balanced-swap fast path (no solver run).
    pub fn balanced_swap_hits(&self) -> u64 {
        self.balanced_swaps
    }

    /// Register a flow of `bytes` bytes from node `src` to node `dst` at
    /// virtual time `now`.  The flow carries no rate until the next
    /// [`Fabric::resolve`]; batch several arrivals before resolving once.
    ///
    /// # Panics
    /// Panics if `src == dst` (local copies never enter the fabric) or
    /// `bytes` is not positive.
    pub fn add_flow(&mut self, now: f64, src: NodeId, dst: NodeId, bytes: f64) -> FlowId {
        assert!(src != dst, "intra-node transfers must not enter the fabric");
        assert!(bytes > 0.0, "flows must carry payload");
        self.advance_to(now);
        let id = self.free.pop().unwrap_or_else(|| {
            self.flows.push(FlowState { path: Vec::with_capacity(self.stride), rate: 0.0, pos: usize::MAX });
            self.flows.len() - 1
        });
        let pos = self.active.len();
        let flow = &mut self.flows[id];
        flow.pos = pos;
        flow.path.clear();
        self.routing.path_into(&self.topology, src, dst, &mut flow.path);
        let mut bound = f64::INFINITY;
        for (k, &l) in flow.path.iter().enumerate() {
            bound = bound.min(self.capacity[l]);
            self.route.push(Hop { link: l as u32, at: self.link_flows[l].len() as u32 });
            self.link_flows[l].push((pos as u32, k as u32));
            self.overfull += usize::from(self.link_flows[l].len() == self.fits[l] + 1);
        }
        self.hops.push(flow.path.len() as u32);
        self.route.resize((pos + 1) * self.stride, Hop::default());
        // Pair the admission with a flow completed since the last resolve
        // that crossed the exact same links: if every departure is balanced
        // by such an arrival, the next resolve can keep all rates.
        let mut rate = 0.0;
        match self.just_completed.iter_mut().find(|(c, used)| !*used && self.flows[*c].path == self.flows[id].path) {
            Some((cand, consumed)) => {
                *consumed = true;
                rate = self.flows[*cand].rate;
                self.unmatched_completions -= 1;
            }
            None => self.unmatched_additions += 1,
        }
        self.active.push(id);
        self.remaining.push(bytes);
        self.rate.push(rate);
        self.done_below.push(COMPLETE_EPS_BYTES.max(bytes * COMPLETE_EPS_RELATIVE));
        self.bound.push(bound);
        #[cfg(test)]
        self.check_invariants();
        id
    }

    /// Advance virtual time to `now`: serve `rate * dt` bytes of every active
    /// flow and integrate the per-link usage counters.  Idempotent for equal
    /// `now`; time never runs backwards.
    pub fn advance_to(&mut self, now: f64) {
        let dt = now - self.now;
        // Relative tolerance: completion estimates are re-derived along
        // different float paths between resolves, so at large makespans a
        // legitimate tie can sit several ulps below `now` — far outside any
        // absolute epsilon (an ulp of 1e6 s is ~1.2e-10).
        let tolerance = time_backstep_tolerance(self.now);
        debug_assert!(
            dt >= -tolerance,
            "fabric time must not run backwards: advance to {now} behind clock {}",
            self.now
        );
        if dt <= 0.0 {
            return;
        }
        for ((usage, &rate), &saturated_at) in self.usage.iter_mut().zip(&self.allocated).zip(&self.saturated_at) {
            if rate > 0.0 {
                usage.bytes += rate * dt;
                usage.busy_time += dt;
                if rate >= saturated_at {
                    usage.saturated_time += dt;
                }
                // Coalesce the busy window with the previous one when they
                // abut (consecutive advances share the boundary exactly; the
                // tolerance absorbs float rebasing at large makespans).
                match usage.intervals.last_mut() {
                    Some(last) if self.now <= last.1 + tolerance => last.1 = now,
                    _ => usage.intervals.push((self.now, now)),
                }
            }
        }
        for (remaining, &rate) in self.remaining.iter_mut().zip(&self.rate) {
            *remaining = (*remaining - rate * dt).max(0.0);
        }
        self.now = now;
    }

    /// Move every flow whose payload is fully served as of `now` out of the
    /// active set and append its id to `out`.  Call [`Fabric::resolve`] after
    /// handling the completions (and any admissions they trigger); the
    /// completed slots are recycled by that resolve, not before — their
    /// paths and rates are still needed to match balancing admissions.
    pub fn take_completed(&mut self, now: f64, out: &mut Vec<FlowId>) {
        self.advance_to(now);
        // Besides the absolute/relative byte epsilons, accept any residual
        // whose drain time is below the clock's time resolution: at a
        // large `now`, `now + remaining/rate` can round to exactly `now`,
        // so `advance_to` (dt = 0) could never drain it and the tick loop
        // would re-estimate the same completion forever.
        let resolution = time_backstep_tolerance(now);
        let mut i = 0;
        while i < self.active.len() {
            if self.remaining[i] <= self.done_below[i].max(self.rate[i] * resolution) {
                let id = self.remove_active(i);
                out.push(id);
                self.just_completed.push((id, false));
                self.unmatched_completions += 1;
            } else {
                i += 1;
            }
        }
        #[cfg(test)]
        self.check_invariants();
    }

    /// Take the flow at `pos` out of the active arrays and the per-link
    /// lists; the last active flow takes its place.
    fn remove_active(&mut self, pos: usize) -> FlowId {
        let (id, s, last) = (self.active[pos], self.stride, self.active.len() - 1);
        for k in pos * s..pos * s + self.hops[pos] as usize {
            let Hop { link, at } = self.route[k];
            let list = &mut self.link_flows[link as usize];
            list.swap_remove(at as usize);
            self.overfull -= usize::from(list.len() == self.fits[link as usize]);
            if let Some(&(p, hop)) = list.get(at as usize) {
                self.route[p as usize * s + hop as usize].at = at;
            }
        }
        self.flows[id].rate = self.rate[pos];
        self.flows[id].pos = usize::MAX;
        self.active.swap_remove(pos);
        self.remaining.swap_remove(pos);
        self.rate.swap_remove(pos);
        self.done_below.swap_remove(pos);
        self.bound.swap_remove(pos);
        self.hops.swap_remove(pos);
        if pos != last {
            self.route.copy_within(last * s..(last + 1) * s, pos * s);
            self.flows[self.active[pos]].pos = pos;
            for h in &self.route[pos * s..][..self.hops[pos] as usize] {
                self.link_flows[h.link as usize][h.at as usize].0 = pos as u32;
            }
        }
        self.route.truncate(last * s);
        id
    }

    /// Recompute the max-min fair rate of every active flow at `now`.
    /// Returns the new earliest completion estimate.
    pub fn resolve(&mut self, now: f64) -> Option<f64> {
        self.resolve_inner(now, false)
    }

    /// Unconditionally recompute the allocation, bypassing the balanced-swap
    /// shortcut of [`Fabric::resolve`]: the cost the engine pays whenever
    /// flow arrivals and departures do not cancel out link-for-link.  Public
    /// so the solver can be benchmarked in isolation.
    pub fn resolve_full(&mut self, now: f64) -> Option<f64> {
        self.resolve_inner(now, true)
    }

    fn resolve_inner(&mut self, now: f64, force_solve: bool) -> Option<f64> {
        #[cfg(test)]
        self.check_invariants();
        self.advance_to(now);
        // A balanced exchange — every completion since the last resolve was
        // matched by an admission crossing the exact same links — leaves the
        // per-link occupancy, and hence every max-min rate, unchanged: the
        // matched admissions already adopted the departed flows' rates, so
        // the solver can be skipped.  This is the steady state of pipelined
        // collectives (the next ring segment replaces the previous one on
        // the same path).
        let balanced = !force_solve && self.unmatched_completions == 0 && self.unmatched_additions == 0;
        self.free.extend(self.just_completed.drain(..).map(|(id, _)| id));
        self.unmatched_completions = 0;
        self.unmatched_additions = 0;
        if self.active.is_empty() {
            self.allocated.fill(0.0);
            self.next_completion = None;
            return None;
        }
        if balanced {
            self.balanced_swaps += 1;
        } else {
            self.solve();
        }
        let mut earliest = f64::INFINITY;
        for (&remaining, &rate) in self.remaining.iter().zip(&self.rate) {
            earliest = earliest.min(now + remaining / rate);
        }
        self.next_completion = Some(earliest.max(now));
        self.next_completion
    }

    /// The max-min solver proper: feasibility fast path, else progressive
    /// filling; leaves the per-link allocation of the final rates.
    fn solve(&mut self) {
        self.solves += 1;
        // Fast path: give every flow the minimum capacity along its path.  If
        // that allocation is feasible it dominates every feasible allocation
        // per-flow, so it *is* the max-min allocation (and each flow's
        // minimum-capacity link is saturated by it alone).
        let feasible = self.overfull == 0 && {
            allocate(&mut self.allocated, &self.bound, &self.route, &self.hops, self.stride);
            self.allocated.iter().zip(&self.feasible_to).all(|(&a, &limit)| a <= limit)
        };
        if feasible {
            self.rate.copy_from_slice(&self.bound);
        } else {
            self.fill_progressively();
            allocate(&mut self.allocated, &self.rate, &self.route, &self.hops, self.stride);
        }
    }

    /// Progressive filling: ramp all unfrozen flows up together; when a link
    /// saturates, freeze the flows crossing it at the common fill level and
    /// continue on the residual graph.
    ///
    /// The per-link lists of crossing flows make each round `O(live links)`
    /// plus the flows actually frozen that round, so a solve costs
    /// `O(links + rounds * live links + flows * path)`.
    fn fill_progressively(&mut self) {
        self.cap_left.copy_from_slice(&self.capacity);
        self.live.clear();
        for (l, list) in self.link_flows.iter().enumerate() {
            self.unfrozen_count[l] = list.len() as u32;
            if !list.is_empty() {
                self.live.push(l as u32);
            }
        }
        // Negative rate marks a flow as not yet frozen.
        self.rate.fill(-1.0);
        let mut unfrozen_flows = self.active.len();
        let mut fill = 0.0_f64;
        while unfrozen_flows > 0 {
            // The next saturating link bounds the common rate increment;
            // links whose last unfrozen flow froze last round drop out here.
            let mut inc = f64::INFINITY;
            self.live.retain(|&l| {
                let c = self.unfrozen_count[l as usize];
                if c > 0 {
                    inc = inc.min(self.cap_left[l as usize] / f64::from(c));
                }
                c > 0
            });
            debug_assert!(inc.is_finite());
            fill += inc;
            self.saturated.clear();
            for &link in &self.live {
                let l = link as usize;
                self.cap_left[l] = (self.cap_left[l] - inc * f64::from(self.unfrozen_count[l])).max(0.0);
                if self.cap_left[l] <= self.capacity[l] * 1e-12 {
                    self.saturated.push(link);
                }
            }
            // Freeze the flows crossing every link whose capacity is now
            // exhausted (at least the argmin link saturates each round, so
            // the loop terminates in at most `links` rounds).
            debug_assert!(!self.saturated.is_empty(), "progressive filling must saturate a link per round");
            for &l in &self.saturated {
                for &(pos, _) in &self.link_flows[l as usize] {
                    let pos = pos as usize;
                    if self.rate[pos] < 0.0 {
                        self.rate[pos] = fill;
                        for h in &self.route[pos * self.stride..][..self.hops[pos] as usize] {
                            self.unfrozen_count[h.link as usize] -= 1;
                        }
                        unfrozen_flows -= 1;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
impl Fabric {
    /// The incrementally kept state agrees with what a rebuild would give.
    fn check_invariants(&self) {
        let (n, s) = (self.active.len(), self.stride);
        for len in [self.remaining.len(), self.rate.len(), self.done_below.len(), self.bound.len(), self.hops.len()] {
            assert_eq!(len, n, "per-flow arrays are parallel to the active list");
        }
        assert_eq!(self.route.len(), n * s);
        for (pos, &id) in self.active.iter().enumerate() {
            let flow = &self.flows[id];
            assert_eq!(flow.pos, pos, "flow {id}: slab position round-trips");
            let hops = &self.route[pos * s..][..self.hops[pos] as usize];
            assert!(hops.iter().map(|h| h.link as usize).eq(flow.path.iter().copied()), "flow {id}: arena path");
            for (k, h) in hops.iter().enumerate() {
                assert_eq!(
                    self.link_flows[h.link as usize][h.at as usize],
                    (pos as u32, k as u32),
                    "flow {id} hop {k}"
                );
            }
            let bound = flow.path.iter().map(|&l| self.capacity[l]).fold(f64::INFINITY, f64::min);
            assert_eq!(self.bound[pos].to_bits(), bound.to_bits());
        }
        // Every active hop owns a distinct list entry, so equal totals make
        // each list exactly the active flows crossing its link.
        let entries: usize = self.link_flows.iter().map(Vec::len).sum();
        assert_eq!(entries, self.hops.iter().map(|&h| h as usize).sum::<usize>());
        assert_eq!(self.flows.iter().filter(|f| f.pos != usize::MAX).count(), n);
        let overfull = self.link_flows.iter().zip(&self.fits).filter(|(list, &fits)| list.len() > fits).count();
        assert_eq!(self.overfull, overfull);
        if overfull > 0 {
            let mut at_bound = vec![0.0; self.capacity.len()];
            allocate(&mut at_bound, &self.bound, &self.route, &self.hops, s);
            assert!(at_bound.iter().zip(&self.feasible_to).any(|(&a, &limit)| a > limit), "overfull yet feasible");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::Link;
    use proptest::prelude::*;

    /// The fabric as it was before the dense layout: per-flow state behind
    /// the slab, `link_flows` rebuilt per filling, all-links sweeps, the
    /// allocation rebuilt after every solve.  Kept as the differential
    /// reference: the arithmetic below is the definition of "bit-identical".
    mod reference {
        use super::super::{LinkUsage, COMPLETE_EPS_BYTES, COMPLETE_EPS_RELATIVE, SATURATION_RTOL};
        use crate::engine::time_backstep_tolerance;
        use crate::routing::RoutingTable;
        use crate::topology::{LinkId, Topology};

        struct FlowState {
            path: Vec<LinkId>,
            total: f64,
            remaining: f64,
            rate: f64,
            pos: usize,
        }

        pub(super) struct Fabric {
            topology: Topology,
            routing: RoutingTable,
            flows: Vec<FlowState>,
            free: Vec<usize>,
            active: Vec<usize>,
            pub(super) next_completion: Option<f64>,
            now: f64,
            pub(super) allocated: Vec<f64>,
            pub(super) usage: Vec<LinkUsage>,
            just_completed: Vec<(usize, bool)>,
            unmatched_completions: usize,
            unmatched_additions: usize,
            pub(super) solves: u64,
            pub(super) balanced_swaps: u64,
            cap_left: Vec<f64>,
            unfrozen_count: Vec<u32>,
            link_flows: Vec<Vec<usize>>,
            bound: Vec<f64>,
        }

        impl Fabric {
            pub(super) fn new(topology: Topology) -> Self {
                let routing = RoutingTable::new(&topology).unwrap();
                let links = topology.links().len();
                Self {
                    topology,
                    routing,
                    flows: Vec::new(),
                    free: Vec::new(),
                    active: Vec::new(),
                    next_completion: None,
                    now: 0.0,
                    allocated: vec![0.0; links],
                    usage: vec![LinkUsage::default(); links],
                    just_completed: Vec::new(),
                    unmatched_completions: 0,
                    unmatched_additions: 0,
                    solves: 0,
                    balanced_swaps: 0,
                    cap_left: vec![0.0; links],
                    unfrozen_count: vec![0; links],
                    link_flows: vec![Vec::new(); links],
                    bound: Vec::new(),
                }
            }

            pub(super) fn active_flows(&self) -> usize {
                self.active.len()
            }

            pub(super) fn rate(&self, flow: usize) -> f64 {
                self.flows[flow].rate
            }

            pub(super) fn path_of(&self, flow: usize) -> &[LinkId] {
                &self.flows[flow].path
            }

            pub(super) fn add_flow(&mut self, now: f64, src: usize, dst: usize, bytes: f64) -> usize {
                self.advance_to(now);
                let id = match self.free.pop() {
                    Some(id) => {
                        let f = &mut self.flows[id];
                        f.path.clear();
                        f.total = bytes;
                        f.remaining = bytes;
                        f.rate = 0.0;
                        id
                    }
                    None => {
                        self.flows.push(FlowState {
                            path: Vec::new(),
                            total: bytes,
                            remaining: bytes,
                            rate: 0.0,
                            pos: usize::MAX,
                        });
                        self.flows.len() - 1
                    }
                };
                self.flows[id].pos = self.active.len();
                self.routing.path_into(&self.topology, src, dst, &mut self.flows[id].path);
                self.active.push(id);
                let mut matched = false;
                for (cand, consumed) in &mut self.just_completed {
                    if !*consumed && self.flows[*cand].path == self.flows[id].path {
                        *consumed = true;
                        matched = true;
                        self.flows[id].rate = self.flows[*cand].rate;
                        self.unmatched_completions -= 1;
                        break;
                    }
                }
                if !matched {
                    self.unmatched_additions += 1;
                }
                id
            }

            pub(super) fn advance_to(&mut self, now: f64) {
                let dt = now - self.now;
                if dt <= 0.0 {
                    return;
                }
                for (l, usage) in self.usage.iter_mut().enumerate() {
                    let rate = self.allocated[l];
                    if rate > 0.0 {
                        usage.bytes += rate * dt;
                        usage.busy_time += dt;
                        if rate >= self.topology.links()[l].capacity * (1.0 - SATURATION_RTOL) {
                            usage.saturated_time += dt;
                        }
                        match usage.intervals.last_mut() {
                            Some(last) if self.now <= last.1 + time_backstep_tolerance(self.now) => last.1 = now,
                            _ => usage.intervals.push((self.now, now)),
                        }
                    }
                }
                for &id in &self.active {
                    let f = &mut self.flows[id];
                    f.remaining = (f.remaining - f.rate * dt).max(0.0);
                }
                self.now = now;
            }

            pub(super) fn take_completed(&mut self, now: f64, out: &mut Vec<usize>) {
                self.advance_to(now);
                let mut i = 0;
                while i < self.active.len() {
                    let id = self.active[i];
                    let f = &self.flows[id];
                    let unresolvable = f.rate * time_backstep_tolerance(now);
                    if f.remaining <= COMPLETE_EPS_BYTES.max(f.total * COMPLETE_EPS_RELATIVE).max(unresolvable) {
                        self.active.swap_remove(i);
                        if let Some(&moved) = self.active.get(i) {
                            self.flows[moved].pos = i;
                        }
                        self.flows[id].pos = usize::MAX;
                        out.push(id);
                        self.just_completed.push((id, false));
                        self.unmatched_completions += 1;
                    } else {
                        i += 1;
                    }
                }
            }

            pub(super) fn resolve(&mut self, now: f64, force_solve: bool) -> Option<f64> {
                self.advance_to(now);
                let balanced = !force_solve && self.unmatched_completions == 0 && self.unmatched_additions == 0;
                for (id, _) in self.just_completed.drain(..) {
                    self.free.push(id);
                }
                self.unmatched_completions = 0;
                self.unmatched_additions = 0;
                if self.active.is_empty() {
                    self.allocated.iter_mut().for_each(|a| *a = 0.0);
                    self.next_completion = None;
                    return None;
                }
                if balanced {
                    self.balanced_swaps += 1;
                    let mut earliest = f64::INFINITY;
                    for &id in &self.active {
                        let f = &self.flows[id];
                        earliest = earliest.min(now + f.remaining / f.rate);
                    }
                    self.next_completion = Some(earliest.max(now));
                    return self.next_completion;
                }
                self.solve(now)
            }

            fn solve(&mut self, now: f64) -> Option<f64> {
                self.solves += 1;
                let links = self.topology.links();
                self.allocated.iter_mut().for_each(|a| *a = 0.0);
                self.bound.clear();
                for &id in &self.active {
                    let f = &self.flows[id];
                    let b = f.path.iter().map(|&l| links[l].capacity).fold(f64::INFINITY, f64::min);
                    self.bound.push(b);
                    for &l in &f.path {
                        self.allocated[l] += b;
                    }
                }
                let feasible =
                    self.allocated.iter().zip(links).all(|(&a, link)| a <= link.capacity * (1.0 + SATURATION_RTOL));
                if feasible {
                    for (i, &id) in self.active.iter().enumerate() {
                        self.flows[id].rate = self.bound[i];
                    }
                } else {
                    self.fill_progressively();
                }
                self.allocated.iter_mut().for_each(|a| *a = 0.0);
                let mut earliest = f64::INFINITY;
                for &id in &self.active {
                    let f = &self.flows[id];
                    for &l in &f.path {
                        self.allocated[l] += f.rate;
                    }
                    earliest = earliest.min(now + f.remaining / f.rate);
                }
                self.next_completion = Some(earliest.max(now));
                self.next_completion
            }

            fn fill_progressively(&mut self) {
                let links = self.topology.links();
                self.cap_left.clear();
                self.cap_left.extend(links.iter().map(|l| l.capacity));
                self.unfrozen_count.iter_mut().for_each(|c| *c = 0);
                for list in &mut self.link_flows {
                    list.clear();
                }
                for &id in &self.active {
                    self.flows[id].rate = -1.0;
                    for &l in &self.flows[id].path {
                        self.unfrozen_count[l] += 1;
                        self.link_flows[l].push(id);
                    }
                }
                let mut unfrozen_flows = self.active.len();
                let mut fill = 0.0_f64;
                while unfrozen_flows > 0 {
                    let mut inc = f64::INFINITY;
                    for (l, &c) in self.unfrozen_count.iter().enumerate() {
                        if c > 0 {
                            inc = inc.min(self.cap_left[l] / c as f64);
                        }
                    }
                    fill += inc;
                    for (l, &c) in self.unfrozen_count.iter().enumerate() {
                        if c > 0 {
                            self.cap_left[l] = (self.cap_left[l] - inc * c as f64).max(0.0);
                        }
                    }
                    for (l, link) in links.iter().enumerate() {
                        if self.unfrozen_count[l] == 0 || self.cap_left[l] > link.capacity * 1e-12 {
                            continue;
                        }
                        for i in 0..self.link_flows[l].len() {
                            let id = self.link_flows[l][i];
                            if self.flows[id].rate < 0.0 {
                                self.flows[id].rate = fill;
                                for pi in 0..self.flows[id].path.len() {
                                    self.unfrozen_count[self.flows[id].path[pi]] -= 1;
                                }
                                unfrozen_flows -= 1;
                            }
                        }
                    }
                }
            }
        }
    }

    /// A line of `switches` switches with one node each: node `i` to node
    /// `j` crosses `|i - j| + 2` links, so paths outgrow a fat-tree's four
    /// hops and differ in length; capacities differ per link.
    fn line(switches: usize) -> Topology {
        let mut links = Vec::new();
        let mut link = |from: usize, to: usize, capacity: f64| {
            links.push(Link { from, to, capacity, label: format!("{from}->{to}") });
        };
        for i in 0..switches {
            link(i, switches + i, 1e9 + 1e8 * i as f64);
            link(switches + i, i, 1.5e9 - 1e8 * i as f64);
            if i + 1 < switches {
                link(switches + i, switches + i + 1, 0.7e9 * (1 + i % 3) as f64);
                link(switches + i + 1, switches + i, 0.9e9 * (1 + (i + 1) % 2) as f64);
            }
        }
        Topology::custom(format!("line-{switches}"), switches, switches, links)
    }

    /// The dense fabric and the reference, driven through the same calls.
    struct Pair {
        new: Fabric,
        old: reference::Fabric,
        now: f64,
        /// `(src, dst)` of every slab id, to re-admit a completed flow's pair.
        ends: Vec<(usize, usize)>,
        done: Vec<FlowId>,
    }

    impl Pair {
        fn new(topology: Topology) -> Self {
            let old = reference::Fabric::new(topology.clone());
            Self { new: Fabric::new(topology).unwrap(), old, now: 0.0, ends: Vec::new(), done: Vec::new() }
        }

        fn add(&mut self, src: usize, dst: usize, bytes: f64) {
            let id = self.new.add_flow(self.now, src, dst, bytes);
            assert_eq!(id, self.old.add_flow(self.now, src, dst, bytes));
            self.ends.resize(self.ends.len().max(id + 1), (0, 0));
            self.ends[id] = (src, dst);
        }

        fn take_completed(&mut self) {
            let mut old_done = Vec::new();
            self.done.clear();
            self.new.take_completed(self.now, &mut self.done);
            self.old.take_completed(self.now, &mut old_done);
            assert_eq!(self.done, old_done);
        }

        fn resolve(&mut self, force_solve: bool) {
            let next = if force_solve { self.new.resolve_full(self.now) } else { self.new.resolve(self.now) };
            assert_eq!(next.map(f64::to_bits), self.old.resolve(self.now, force_solve).map(f64::to_bits));
        }

        /// Every observable of the two agrees bit for bit.
        fn check(&self) {
            let (new, old) = (&self.new, &self.old);
            new.check_invariants();
            assert_eq!(new.active_flows(), old.active_flows());
            assert_eq!(new.next_completion().map(f64::to_bits), old.next_completion.map(f64::to_bits));
            assert_eq!((new.solver_passes(), new.balanced_swap_hits()), (old.solves, old.balanced_swaps));
            assert_eq!(new.usage(), &old.usage[..]);
            for l in 0..old.allocated.len() {
                assert_eq!(new.link_allocated(l).to_bits(), old.allocated[l].to_bits(), "link {l}");
            }
            for id in 0..self.ends.len() {
                assert_eq!(new.rate(id).to_bits(), old.rate(id).to_bits(), "flow {id}");
                assert_eq!(new.path_of(id), old.path_of(id), "flow {id}");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Random interleavings of admissions, advances, completions and
        /// both resolves leave the dense fabric bit-identical to the
        /// reference after every step, on fabrics whose paths are shorter
        /// than, equal to and longer than a fat-tree's four hops.
        #[test]
        fn dense_layout_matches_the_reference_bit_for_bit(seed in 0u64..u64::MAX, shape in 0usize..7) {
            let topology = match shape {
                0 => Topology::single_switch(6, 1e9),
                1 => line(7),
                _ => Topology::fat_tree(16, 4, [1.0, 2.0, 4.0, 8.0, 2.0][shape - 2], 1e9),
            };
            let nodes = topology.nodes();
            let mut rng = TestRng::seed_from_u64(seed);
            let mut pick = move |n: usize| (rng.next_u64() % n as u64) as usize;
            let mut p = Pair::new(topology);
            for _ in 0..160 {
                match pick(10) {
                    0 | 1 if p.new.active_flows() < 40 => {
                        for _ in 0..=pick(4) {
                            let (src, hop) = (pick(nodes), 1 + pick(nodes - 1));
                            p.add(src, (src + hop) % nodes, [4e3, 1e5, 1e5, 2.5e6, 3e9][pick(5)]);
                        }
                    }
                    2 => p.resolve(false),
                    3 => p.resolve(true),
                    4 => {
                        // Partial progress: no flow is due yet.
                        let until = p.new.next_completion().unwrap_or(p.now + 1e-4);
                        p.now += (until - p.now) * [0.0, 0.25, 0.5][pick(3)];
                        p.new.advance_to(p.now);
                        p.old.advance_to(p.now);
                    }
                    _ => {
                        // The engine's tick: complete what is due, usually
                        // re-admit some of the same node pairs (the balanced
                        // swap when all of them are), then resolve.
                        p.now = p.new.next_completion().unwrap_or(p.now).max(p.now);
                        p.take_completed();
                        let readmit = pick(4);
                        for id in p.done.clone() {
                            if readmit > 0 && (readmit > 1 || pick(2) == 0) {
                                let (src, dst) = p.ends[id];
                                p.add(src, dst, [4e3, 1e5, 2.5e6][pick(3)]);
                            }
                        }
                        p.resolve(false);
                    }
                }
                p.check();
            }
            prop_assert!(p.new.solver_passes() > 0);
        }
    }

    fn single_switch(nodes: usize) -> Fabric {
        Fabric::new(Topology::single_switch(nodes, 1e9)).unwrap()
    }

    #[test]
    fn lone_flow_runs_at_access_capacity() {
        let mut f = single_switch(4);
        let id = f.add_flow(0.0, 0, 1, 1e6);
        let next = f.resolve(0.0).unwrap();
        assert!((f.rate(id) - 1e9).abs() < 1.0);
        assert!((next - 1e-3).abs() < 1e-12, "1 MB at 1 GB/s completes after 1 ms, got {next}");
        let mut done = Vec::new();
        f.take_completed(next, &mut done);
        assert_eq!(done, vec![id]);
        assert_eq!(f.active_flows(), 0);
        assert_eq!(f.resolve(next), None);
    }

    #[test]
    fn advance_tolerates_rounding_backsteps_at_large_makespans() {
        // Regression for the monotonicity guard: with the clock at 1e6 s,
        // one f64 ulp is ~1.2e-10 — far larger than the old absolute 1e-12
        // epsilon, so a flow-completion time that rounded down by a few ulps
        // tripped the debug assertion.  The relative tolerance must absorb it.
        let mut f = single_switch(4);
        let id = f.add_flow(1e6, 0, 1, 1e6);
        f.resolve(1e6);
        let backstep = 4.0 * 1e6 * f64::EPSILON; // ~9e-10, rejected by the old guard
        f.advance_to(1e6 - backstep);
        assert!(f.rate(id) > 0.0);
    }

    #[test]
    fn incast_shares_the_receiver_downlink_fairly() {
        let mut f = single_switch(4);
        let a = f.add_flow(0.0, 0, 3, 1e6);
        let b = f.add_flow(0.0, 1, 3, 1e6);
        let c = f.add_flow(0.0, 2, 3, 1e6);
        f.resolve(0.0);
        for id in [a, b, c] {
            assert!((f.rate(id) - 1e9 / 3.0).abs() < 1.0, "three-way incast: each flow gets a third");
        }
        // The shared downlink is saturated; the sender uplinks are not.
        let down = f.path_of(a)[1];
        assert!(f.link_saturated(down));
        assert!(!f.link_saturated(f.path_of(a)[0]));
    }

    #[test]
    fn departure_releases_bandwidth_to_the_survivors() {
        let mut f = single_switch(3);
        let a = f.add_flow(0.0, 0, 2, 1e6);
        let _b = f.add_flow(0.0, 1, 2, 2e6);
        f.resolve(0.0);
        // Flow a completes at 2 ms (1 MB at 500 MB/s); b then speeds up.
        let t = f.next_completion().unwrap();
        assert!((t - 2e-3).abs() < 1e-12);
        let mut done = Vec::new();
        f.take_completed(t, &mut done);
        assert_eq!(done, vec![a]);
        f.resolve(t);
        let b = f.active[0];
        assert!((f.rate(b) - 1e9).abs() < 1.0, "the survivor takes the full downlink");
        // 2 MB total, 1 MB served in the shared phase, 1 MB at full rate.
        assert!((f.next_completion().unwrap() - 3e-3).abs() < 1e-12);
    }

    #[test]
    fn oversubscribed_uplink_throttles_cross_leaf_flows() {
        // 8 nodes, leaves of 4, 4:1 oversubscription: the leaf0->core uplink
        // runs at access capacity, so four concurrent cross-leaf flows from
        // leaf 0 each get a quarter of their access bandwidth.
        let mut f = Fabric::new(Topology::fat_tree(8, 4, 4.0, 1e9)).unwrap();
        let ids: Vec<_> = (0..4).map(|n| f.add_flow(0.0, n, 4 + n, 1e6)).collect();
        f.resolve(0.0);
        for &id in &ids {
            assert!((f.rate(id) - 0.25e9).abs() < 1.0, "4:1 taper quarters the rate, got {}", f.rate(id));
        }
        // On a 1:1 tree the same pattern runs at full access bandwidth.
        let mut full = Fabric::new(Topology::fat_tree(8, 4, 1.0, 1e9)).unwrap();
        let ids: Vec<_> = (0..4).map(|n| full.add_flow(0.0, n, 4 + n, 1e6)).collect();
        full.resolve(0.0);
        for &id in &ids {
            assert!((full.rate(id) - 1e9).abs() < 1.0);
        }
    }

    #[test]
    fn max_min_beats_equal_split_for_unbalanced_paths() {
        // Flows: a crosses the shared downlink to node 2 alongside b, but b
        // is also limited by its own second flow c... classic 3-flow check:
        // a: 0->2, b: 1->2, c: 1->0 — b and c share node 1's uplink, a and b
        // share node 2's downlink.  Max-min: b = 0.5 (frozen with c at the
        // uplink), a = 1 - 0.5 = 0.5? No: a's downlink share after b froze is
        // 1e9 - 0.5e9 = 0.5e9.  All three end at 0.5e9.
        let mut f = single_switch(3);
        let a = f.add_flow(0.0, 0, 2, 1e6);
        let b = f.add_flow(0.0, 1, 2, 1e6);
        let c = f.add_flow(0.0, 1, 0, 1e6);
        f.resolve(0.0);
        assert!((f.rate(b) - 0.5e9).abs() < 1.0);
        assert!((f.rate(c) - 0.5e9).abs() < 1.0);
        assert!((f.rate(a) - 0.5e9).abs() < 1.0);
        // Feasibility on the contended links.
        for l in 0..f.topology().links().len() {
            assert!(f.link_allocated(l) <= f.topology().links()[l].capacity * (1.0 + 1e-9));
        }
    }

    #[test]
    fn usage_counters_integrate_bytes_and_saturation() {
        let mut f = single_switch(2);
        let id = f.add_flow(0.0, 0, 1, 1e6);
        f.resolve(0.0);
        let t = f.next_completion().unwrap();
        let mut done = Vec::new();
        f.take_completed(t, &mut done);
        f.resolve(t);
        let up = f.path_of(id)[0];
        let usage = &f.usage()[up];
        assert!((usage.bytes - 1e6).abs() < 1.0);
        assert!((usage.busy_time - 1e-3).abs() < 1e-12);
        assert!((usage.saturated_time - 1e-3).abs() < 1e-12, "a lone flow saturates its access links");
        assert_eq!(usage.intervals.len(), 1, "one contiguous busy window coalesces into one interval");
        let (s, e) = usage.intervals[0];
        assert!((e - s - usage.busy_time).abs() < 1e-15);
        assert_eq!(f.solver_passes(), 1, "the second resolve finds no active flows and skips the solver");
    }

    #[test]
    fn balanced_swap_counter_tracks_the_fast_path() {
        let mut f = single_switch(4);
        let a = f.add_flow(0.0, 0, 3, 1e6);
        let _b = f.add_flow(0.0, 1, 3, 2e6);
        f.resolve(0.0);
        let t = f.next_completion().unwrap();
        let mut done = Vec::new();
        f.take_completed(t, &mut done);
        assert_eq!(done, vec![a]);
        f.add_flow(t, 0, 3, 1e6);
        f.resolve(t);
        assert_eq!(f.balanced_swap_hits(), 1);
        assert_eq!(f.solver_passes(), 1, "the swap skipped the second solve");
    }

    #[test]
    fn slab_reuses_flow_ids_after_resolve() {
        let mut f = single_switch(3);
        let a = f.add_flow(0.0, 0, 1, 1e6);
        f.resolve(0.0);
        let t = f.next_completion().unwrap();
        let mut done = Vec::new();
        f.take_completed(t, &mut done);
        // The completed slot is held until the next resolve (its path backs
        // the balanced-swap matching), then recycled.
        let b = f.add_flow(t, 1, 2, 1e6);
        assert_ne!(a, b, "slots are not reused before the releasing resolve");
        f.resolve(t);
        let mut done = Vec::new();
        f.take_completed(f.next_completion().unwrap(), &mut done);
        f.resolve(f.now);
        let c = f.add_flow(f.now, 2, 0, 1e6);
        assert!(c == a || c == b, "post-resolve admissions recycle freed slots");
    }

    #[test]
    fn balanced_swap_keeps_rates_without_a_full_solve() {
        // Three-way incast at rate C/3 each; one flow completes and is
        // replaced by a new flow on the same path before the resolve: the
        // survivors keep their rates and the newcomer adopts the departed
        // flow's share.
        let mut f = single_switch(4);
        let a = f.add_flow(0.0, 0, 3, 1e6);
        let b = f.add_flow(0.0, 1, 3, 2e6);
        let c = f.add_flow(0.0, 2, 3, 2e6);
        f.resolve(0.0);
        let t = f.next_completion().unwrap();
        let mut done = Vec::new();
        f.take_completed(t, &mut done);
        assert_eq!(done, vec![a]);
        let a2 = f.add_flow(t, 0, 3, 1e6);
        f.resolve(t);
        for id in [a2, b, c] {
            assert!((f.rate(id) - 1e9 / 3.0).abs() < 1.0, "swap must preserve the fair shares");
        }
        // An unbalanced admission (different path) forces a real solve.
        let d = f.add_flow(t, 1, 0, 1e6);
        f.resolve(t);
        assert!(f.rate(d) > 0.0);
    }

    #[test]
    fn contention_free_topology_is_rejected() {
        assert!(Fabric::new(Topology::contention_free(4)).is_err());
    }

    #[test]
    fn multi_gigabyte_flows_complete_at_their_estimated_finish() {
        // Regression: the rebasing error of `remaining -= rate * dt` scales
        // with the payload, so a fixed absolute tolerance left >2 GB flows
        // marginally incomplete at their own estimated completion time and
        // the tick loop stalled.  The relative tolerance must catch them.
        let mut f = single_switch(2);
        let id = f.add_flow(0.0, 0, 1, 64e9); // 64 GB at 1 GB/s
        let t = f.resolve(0.0).unwrap();
        assert!((t - 64.0).abs() < 1e-6);
        let mut done = Vec::new();
        f.take_completed(t, &mut done);
        assert_eq!(done, vec![id], "the flow must be complete at its estimated finish");
        assert_eq!(f.resolve(t), None);
    }
}

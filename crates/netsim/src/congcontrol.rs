//! Congestion control for the per-packet fabric backend: a closed choice of
//! two algorithms.
//!
//! The packet simulator ([`crate::packet`]) asks the configured
//! [`CongControl`] *how fast a message may inject packets*.  The controller
//! sees the same feedback a real NIC would — cumulative ACKs with an
//! ECN-echo bit, and NACK- or timeout-triggered go-back-N rewinds — and
//! answers with a pacing rate and a window, both of which the sender honors
//! jointly (a packet is injected only when the window has room *and* the
//! pacing clock allows it).
//!
//! * [`Dcqcn`] — a DCQCN-style rate-based algorithm (the de-facto standard
//!   for RoCEv2 fabrics): multiplicative decrease driven by an EWMA of the
//!   ECN-mark fraction, then fast recovery toward the pre-cut target followed
//!   by additive increase.  This is the realistic choice for the lossless
//!   (PFC) configurations.
//! * [`FixedWindow`] — a windowed baseline with no reaction to marks at all.
//!   Useful as a control: any divergence between the two under the same
//!   workload is attributable to congestion control, not to the fabric.
//!
//! Both are deterministic by construction: they consult only the virtual
//! clock passed to them, never wall-clock time or unseeded randomness, so a
//! run fingerprints identically across repeats.

/// The congestion-control algorithm a packet fabric applies to every message.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CongControl {
    /// Rate-based DCQCN (see [`Dcqcn`]).
    Dcqcn(Dcqcn),
    /// Constant window at line rate (see [`FixedWindow`]).
    FixedWindow(FixedWindow),
}

/// DCQCN-style rate-based congestion control parameters.
///
/// The shipped parameters follow the published algorithm's shape — an EWMA
/// `alpha` of the mark fraction drives multiplicative decrease, recovery
/// halves the distance back to the pre-cut target, then additive increase
/// probes upward — with the timer-driven pieces re-expressed on ACK arrival
/// so the fabric needs no extra timer events: elapsed virtual time between
/// ACKs is converted into the equivalent number of update periods.
///
/// ```
/// use ec_netsim::congcontrol::{CcState, CongControl, Dcqcn};
/// let cc = CongControl::Dcqcn(Dcqcn::default());
/// let mut flow = CcState::new(12.5e9);
/// assert_eq!(cc.rate(&flow), 12.5e9); // starts at line rate
/// cc.on_ack(&mut flow, 1.0e-3, true); // ECN mark => multiplicative decrease
/// assert!(cc.rate(&flow) < 12.5e9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Dcqcn {
    /// EWMA gain for the mark-fraction estimate (the paper's `g`).
    pub gain: f64,
    /// Additive-increase step in bytes/second per update period.
    pub rate_ai: f64,
    /// Update period in seconds for alpha decay, recovery and increase
    /// stages (the paper runs ~55 us timers).
    pub period: f64,
    /// Rate floor in bytes/second; decreases never go below this.
    pub min_rate: f64,
}

impl Default for Dcqcn {
    fn default() -> Self {
        Self { gain: 1.0 / 16.0, rate_ai: 5e6, period: 55e-6, min_rate: 1e6 }
    }
}

/// Fixed-window baseline: a constant window of `window_bytes` (at least one
/// byte), line-rate pacing, and no reaction to ECN marks or losses.
///
/// ```
/// use ec_netsim::congcontrol::{CcState, CongControl, FixedWindow};
/// let cc = CongControl::FixedWindow(FixedWindow { window_bytes: 16 * 4096 });
/// let mut flow = CcState::new(12.5e9);
/// assert_eq!(cc.window(), 16 * 4096);
/// cc.on_ack(&mut flow, 0.0, true); // marks are ignored
/// assert_eq!(cc.rate(&flow), f64::INFINITY);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FixedWindow {
    /// Window size in bytes (unacknowledged data cap per message).
    pub window_bytes: u64,
}

impl Default for FixedWindow {
    fn default() -> Self {
        Self { window_bytes: 64 * 4096 }
    }
}

/// Number of recovery periods spent halving back toward the target before
/// additive increase starts probing above it.
const DCQCN_RECOVERY_STAGES: u32 = 5;

/// Per-message controller state.  Only [`Dcqcn`] reads or moves it; a fixed
/// window has no state beyond its parameter.
#[derive(Debug, Clone, Copy)]
pub struct CcState {
    /// Serialization rate of the message's first hop (bytes/s): the ceiling.
    line_rate: f64,
    /// Current sending rate (bytes/s).
    rate: f64,
    /// Pre-cut target the recovery stages converge back to.
    target: f64,
    /// EWMA estimate of the fraction of marked ACK spans.
    alpha: f64,
    /// Completed update periods since the last cut (recovery progress).
    stage: u32,
    /// Virtual time of the last processed update period boundary.
    last_event: f64,
}

impl CcState {
    /// State of a new message whose first hop serializes at `line_rate`
    /// bytes/second; it starts sending at line rate.
    pub fn new(line_rate: f64) -> Self {
        Self { line_rate, rate: line_rate, target: line_rate, alpha: 1.0, stage: 0, last_event: f64::NEG_INFINITY }
    }
}

impl CongControl {
    /// Current pacing rate in bytes/second.  `f64::INFINITY` means "line
    /// rate": the sender is limited only by its window and the first-hop
    /// queue.
    pub fn rate(&self, s: &CcState) -> f64 {
        match self {
            CongControl::Dcqcn(_) => s.rate,
            CongControl::FixedWindow(_) => f64::INFINITY,
        }
    }

    /// Current window in bytes: the maximum volume of unacknowledged data
    /// the sender may keep in flight.  `u64::MAX` means unwindowed.
    pub fn window(&self) -> u64 {
        match self {
            CongControl::Dcqcn(_) => u64::MAX,
            CongControl::FixedWindow(w) => w.window_bytes.max(1),
        }
    }

    /// A cumulative ACK reached the sender at `now`; `marked` is true when
    /// the receiver echoed an ECN congestion-experienced mark for the
    /// acknowledged span.
    pub fn on_ack(&self, s: &mut CcState, now: f64, marked: bool) {
        let CongControl::Dcqcn(p) = self else { return };
        if s.last_event == f64::NEG_INFINITY {
            s.last_event = now;
        }
        // Convert elapsed virtual time into whole update periods; the
        // fractional remainder stays banked in `last_event`.
        let elapsed = (now - s.last_event).max(0.0);
        let periods = (elapsed / p.period) as u32;
        if periods > 0 {
            // Alpha decay and rate recovery/increase, once per period.
            for _ in 0..periods.min(10_000) {
                s.alpha *= 1.0 - p.gain;
                s.stage = s.stage.saturating_add(1);
                if s.stage > DCQCN_RECOVERY_STAGES {
                    s.target = (s.target + p.rate_ai).min(s.line_rate);
                }
                s.rate = ((s.rate + s.target) / 2.0).min(s.line_rate);
            }
            s.last_event += f64::from(periods) * p.period;
        }
        if marked {
            // Cut: remember where we were, decrease by the estimated
            // congestion level, restart recovery.
            s.alpha = (1.0 - p.gain) * s.alpha + p.gain;
            s.target = s.rate;
            s.rate = (s.rate * (1.0 - s.alpha / 2.0)).max(p.min_rate);
            s.stage = 0;
            s.last_event = now;
        }
    }

    /// The sender performed a go-back-N rewind at `now` (a NACK reported a
    /// sequence gap, or the retransmission timer fired).
    pub fn on_loss(&self, s: &mut CcState, now: f64) {
        let CongControl::Dcqcn(p) = self else { return };
        // Losses are a stronger signal than marks: treat as a full-alpha cut.
        s.alpha = 1.0;
        s.target = s.rate;
        s.rate = (s.rate / 2.0).max(p.min_rate);
        s.stage = 0;
        s.last_event = now;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dcqcn_starts_at_line_rate_and_cuts_on_marks() {
        let p = Dcqcn::default();
        let cc = CongControl::Dcqcn(p);
        assert_eq!(cc.window(), u64::MAX, "DCQCN is rate-based, not windowed");
        for (line_rate, first_mark) in [(1e9, 0.0), (12.5e9, 1.0e-3)] {
            let mut s = CcState::new(line_rate);
            assert_eq!(cc.rate(&s), line_rate);
            cc.on_ack(&mut s, first_mark, true);
            let after_one = cc.rate(&s);
            assert!(after_one < line_rate, "a mark must cut the rate, got {after_one}");
            cc.on_ack(&mut s, first_mark + 1e-6, true);
            assert!(cc.rate(&s) < after_one, "successive marks keep cutting");
            assert!(cc.rate(&s) >= p.min_rate, "cuts respect the floor");
        }
    }

    #[test]
    fn dcqcn_recovers_toward_line_rate_after_marks_stop() {
        let p = Dcqcn::default();
        let (cc, mut s) = (CongControl::Dcqcn(p), CcState::new(1e9));
        cc.on_ack(&mut s, 0.0, true);
        let cut = cc.rate(&s);
        // A long quiet stretch of unmarked ACKs: recovery halves back to the
        // target, additive increase then pushes the target upward.
        let mut t = 0.0;
        for _ in 0..200 {
            t += p.period;
            cc.on_ack(&mut s, t, false);
        }
        assert!(cc.rate(&s) > cut, "rate must recover after marks stop: {} vs {cut}", cc.rate(&s));
        assert!(cc.rate(&s) <= 1e9, "never exceeds line rate");
    }

    #[test]
    fn dcqcn_loss_halves_the_rate() {
        let (cc, mut s) = (CongControl::Dcqcn(Dcqcn::default()), CcState::new(1e9));
        cc.on_loss(&mut s, 0.0);
        assert_eq!(cc.rate(&s), 0.5e9);
    }

    #[test]
    fn dcqcn_is_deterministic() {
        let cc = CongControl::Dcqcn(Dcqcn::default());
        let (mut a, mut b) = (CcState::new(1e9), CcState::new(1e9));
        for i in 0..50 {
            let t = f64::from(i) * 20e-6;
            let marked = i % 7 == 0;
            cc.on_ack(&mut a, t, marked);
            cc.on_ack(&mut b, t, marked);
        }
        assert_eq!(cc.rate(&a), cc.rate(&b));
    }

    #[test]
    fn fixed_window_ignores_feedback() {
        for window_bytes in [8192, 16 * 4096] {
            let (cc, mut s) = (CongControl::FixedWindow(FixedWindow { window_bytes }), CcState::new(12.5e9));
            assert_eq!(cc.window(), window_bytes);
            cc.on_ack(&mut s, 0.0, true);
            cc.on_loss(&mut s, 1.0);
            assert_eq!(cc.window(), window_bytes);
            assert_eq!(cc.rate(&s), f64::INFINITY);
        }
        let empty = CongControl::FixedWindow(FixedWindow { window_bytes: 0 });
        assert_eq!(empty.window(), 1, "a zero window still admits one packet");
    }
}

//! Job configuration and the injected network profile.

use std::time::Duration;

/// Timing profile injected into one-sided operations so that a single-machine
/// run exhibits cluster-like communication behaviour.
///
/// With the default [`NetworkProfile::instant`] profile all writes become
/// visible immediately (pure shared-memory semantics).  The cluster-flavoured
/// profiles delay the *visibility* of data and notifications at the target
/// without blocking the initiator — exactly like an RDMA write in flight.
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkProfile {
    /// Fixed one-way latency added to every remote operation.
    pub base_latency: Duration,
    /// Additional delay per payload byte (models serialization bandwidth).
    pub per_byte: Duration,
    /// Relative jitter in `[0, 1)`: each delivery delay is multiplied by a
    /// factor drawn uniformly from `[1 - jitter, 1 + jitter]`.
    pub jitter: f64,
    /// Seed for the jitter generator (deliveries stay reproducible).
    pub seed: u64,
}

impl NetworkProfile {
    /// No injected delay: writes and notifications become visible as soon as
    /// the initiating call returns.
    pub fn instant() -> Self {
        Self { base_latency: Duration::ZERO, per_byte: Duration::ZERO, jitter: 0.0, seed: 0 }
    }

    /// A LAN-like profile: a few microseconds of latency plus a serialization
    /// delay equivalent to roughly 6 GB/s, with mild jitter.  Useful to make
    /// staleness and overlap observable in tests and examples without making
    /// them slow.
    pub fn lan() -> Self {
        Self {
            base_latency: Duration::from_micros(20),
            per_byte: Duration::from_nanos(1) / 6,
            jitter: 0.1,
            seed: 0x5eed,
        }
    }

    /// Whether this profile injects any delay at all.
    pub fn is_instant(&self) -> bool {
        self.base_latency.is_zero() && self.per_byte.is_zero()
    }

    /// The nominal (jitter-free) delivery delay for a payload of `bytes` bytes.
    pub fn nominal_delay(&self, bytes: usize) -> Duration {
        self.base_latency + self.per_byte.mul_f64(bytes as f64)
    }
}

impl Default for NetworkProfile {
    fn default() -> Self {
        Self::instant()
    }
}

/// Configuration of a GASPI-like job.
#[derive(Debug, Clone, PartialEq)]
pub struct GaspiConfig {
    /// Number of ranks (threads) in the job.
    pub num_ranks: usize,
    /// Number of notification slots available on every segment.
    pub notification_slots: u32,
    /// Number of communication queues per rank.
    pub queues: u32,
    /// Injected network behaviour.
    pub network: NetworkProfile,
    /// Upper bound for blocking calls issued with `timeout = None`; guards
    /// tests against hanging forever on a bug.  `None` blocks indefinitely.
    pub block_timeout: Option<Duration>,
}

impl GaspiConfig {
    /// A configuration with `num_ranks` ranks and library defaults: 1024
    /// notification slots, 4 queues, no injected latency and a 30 s guard
    /// timeout for "blocking" calls.
    pub fn new(num_ranks: usize) -> Self {
        assert!(num_ranks > 0, "a job needs at least one rank");
        Self {
            num_ranks,
            notification_slots: 1024,
            queues: 4,
            network: NetworkProfile::instant(),
            block_timeout: Some(Duration::from_secs(30)),
        }
    }

    /// Replace the injected network profile.
    pub fn with_network(mut self, network: NetworkProfile) -> Self {
        self.network = network;
        self
    }

    /// Replace the number of notification slots per segment.
    pub fn with_notification_slots(mut self, slots: u32) -> Self {
        assert!(slots > 0, "at least one notification slot is required");
        self.notification_slots = slots;
        self
    }

    /// Replace the number of communication queues.
    pub fn with_queues(mut self, queues: u32) -> Self {
        assert!(queues > 0, "at least one queue is required");
        self.queues = queues;
        self
    }

    /// Replace the guard timeout used by blocking calls.
    pub fn with_block_timeout(mut self, timeout: Option<Duration>) -> Self {
        self.block_timeout = timeout;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_profile_is_instant() {
        assert!(NetworkProfile::default().is_instant());
        assert!(!NetworkProfile::lan().is_instant());
    }

    #[test]
    fn nominal_delay_scales_with_bytes() {
        let p = NetworkProfile {
            base_latency: Duration::from_micros(10),
            per_byte: Duration::from_nanos(1),
            jitter: 0.0,
            seed: 0,
        };
        assert_eq!(p.nominal_delay(0), Duration::from_micros(10));
        assert_eq!(p.nominal_delay(1000), Duration::from_micros(11));
    }

    #[test]
    fn config_builders_apply() {
        let c = GaspiConfig::new(4)
            .with_notification_slots(16)
            .with_queues(2)
            .with_network(NetworkProfile::lan())
            .with_block_timeout(None);
        assert_eq!(c.num_ranks, 4);
        assert_eq!(c.notification_slots, 16);
        assert_eq!(c.queues, 2);
        assert!(c.block_timeout.is_none());
        assert!(!c.network.is_instant());
    }

    #[test]
    #[should_panic]
    fn zero_ranks_rejected() {
        let _ = GaspiConfig::new(0);
    }
}

//! Job launcher: runs one closure per rank on dedicated threads.

use std::sync::Arc;

use crate::config::GaspiConfig;
use crate::context::Context;
use crate::delivery::DeliveryEngine;
use crate::state::SharedState;

/// A GASPI-like job: a fixed number of ranks executing the same closure.
///
/// `Job::run` blocks until every rank returned and yields the per-rank return
/// values in rank order.  Rank panics are propagated to the caller.
#[derive(Debug, Clone)]
pub struct Job {
    config: GaspiConfig,
}

impl Job {
    /// Create a job with the given configuration.
    pub fn new(config: GaspiConfig) -> Self {
        Self { config }
    }

    /// Shortcut for a job with `num_ranks` ranks and default configuration.
    pub fn with_ranks(num_ranks: usize) -> Self {
        Self::new(GaspiConfig::new(num_ranks))
    }

    /// The job configuration.
    pub fn config(&self) -> &GaspiConfig {
        &self.config
    }

    /// Run `f` once per rank (each on its own thread) and collect the return
    /// values in rank order.
    ///
    /// # Panics
    /// Panics if any rank closure panics (the panic payload is re-raised on
    /// the calling thread).
    pub fn run<T, F>(&self, f: F) -> crate::error::Result<Vec<T>>
    where
        T: Send,
        F: Fn(&Context) -> T + Send + Sync,
    {
        let state = Arc::new(SharedState::new(self.config.clone()));
        let delivery = if self.config.network.is_instant() { None } else { Some(Arc::new(DeliveryEngine::start())) };
        let n = self.config.num_ranks;
        let f = &f;
        let results: Vec<T> = std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(n);
            for rank in 0..n {
                let state = Arc::clone(&state);
                let delivery = delivery.clone();
                handles.push(
                    std::thread::Builder::new()
                        .name(format!("gaspi-rank-{rank}"))
                        .spawn_scoped(scope, move || {
                            let ctx = Context::new(rank, state, delivery);
                            f(&ctx)
                        })
                        .expect("spawning rank thread"),
                );
            }
            handles
                .into_iter()
                .map(|h| match h.join() {
                    Ok(v) => v,
                    Err(payload) => std::panic::resume_unwind(payload),
                })
                .collect()
        });
        Ok(results)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::NetworkProfile;
    use crate::error::GaspiError;
    use std::time::Duration;

    const SEG: u32 = 0;

    #[test]
    fn ranks_return_values_in_rank_order() {
        let out = Job::with_ranks(4).run(|ctx| ctx.rank() * 10).unwrap();
        assert_eq!(out, vec![0, 10, 20, 30]);
    }

    #[test]
    fn write_notify_lands_data_before_notification() {
        let out = Job::with_ranks(2)
            .run(|ctx| {
                ctx.segment_create(SEG, 64).unwrap();
                if ctx.rank() == 0 {
                    ctx.write_notify(1, SEG, 8, &[5u8; 16], 3, 42, 0).unwrap();
                    0u32
                } else {
                    let id = ctx.notify_waitsome(SEG, 0, 8, None).unwrap();
                    assert_eq!(id, 3);
                    let value = ctx.notify_reset(SEG, id).unwrap();
                    let mut buf = [0u8; 16];
                    ctx.segment_read(SEG, 8, &mut buf).unwrap();
                    assert_eq!(buf, [5u8; 16]);
                    value
                }
            })
            .unwrap();
        assert_eq!(out[1], 42);
    }

    #[test]
    fn write_notify_with_injected_latency_is_asynchronous() {
        let config = GaspiConfig::new(2).with_network(NetworkProfile {
            base_latency: Duration::from_millis(10),
            per_byte: Duration::ZERO,
            jitter: 0.0,
            seed: 1,
        });
        let out = Job::new(config)
            .run(|ctx| {
                ctx.segment_create(SEG, 8).unwrap();
                ctx.barrier();
                if ctx.rank() == 0 {
                    let t0 = std::time::Instant::now();
                    ctx.write_notify(1, SEG, 0, &[1u8; 8], 0, 1, 0).unwrap();
                    let issue_elapsed = t0.elapsed();
                    ctx.wait_queue(0, None).unwrap();
                    let drain_elapsed = t0.elapsed();
                    // The initiator returns immediately; the queue drains only
                    // after the injected latency.
                    assert!(issue_elapsed < Duration::from_millis(5), "issue took {issue_elapsed:?}");
                    assert!(drain_elapsed >= Duration::from_millis(8), "drain took {drain_elapsed:?}");
                    0.0
                } else {
                    let t0 = std::time::Instant::now();
                    ctx.notify_waitsome(SEG, 0, 1, None).unwrap();
                    t0.elapsed().as_secs_f64()
                }
            })
            .unwrap();
        assert!(out[1] >= 0.008, "notification visible too early: {}s", out[1]);
    }

    #[test]
    fn f64_round_trip_through_segments() {
        let values = vec![1.5, -2.0, 3.25, 0.0];
        let expect = values.clone();
        let out = Job::with_ranks(2)
            .run(move |ctx| {
                ctx.segment_create(SEG, 64).unwrap();
                if ctx.rank() == 0 {
                    ctx.write_notify_f64s(1, SEG, 0, &values, 0, 1, 0).unwrap();
                    Vec::new()
                } else {
                    ctx.notify_waitsome(SEG, 0, 1, None).unwrap();
                    ctx.segment_read_f64s(SEG, 0, 4).unwrap()
                }
            })
            .unwrap();
        assert_eq!(out[1], expect);
    }

    #[test]
    fn out_of_bounds_write_is_reported_synchronously() {
        let out = Job::with_ranks(2)
            .run(|ctx| {
                ctx.segment_create(SEG, 16).unwrap();
                ctx.barrier();
                if ctx.rank() == 0 {
                    Some(ctx.write(1, SEG, 12, &[0u8; 8], 0).unwrap_err())
                } else {
                    None
                }
            })
            .unwrap();
        assert!(matches!(out[0], Some(GaspiError::OutOfBounds { .. })));
    }

    #[test]
    fn zero_notification_value_is_rejected() {
        let out = Job::with_ranks(2)
            .run(|ctx| {
                ctx.segment_create(SEG, 16).unwrap();
                ctx.barrier();
                if ctx.rank() == 0 {
                    Some(ctx.notify(1, SEG, 0, 0, 0).unwrap_err())
                } else {
                    None
                }
            })
            .unwrap();
        assert_eq!(out[0], Some(GaspiError::ZeroNotificationValue));
    }

    #[test]
    fn waitsome_timeout_is_reported() {
        let out = Job::with_ranks(1)
            .run(|ctx| {
                ctx.segment_create(SEG, 8).unwrap();
                ctx.notify_waitsome(SEG, 0, 4, Some(Duration::from_millis(10)))
            })
            .unwrap();
        assert_eq!(out[0], Err(GaspiError::Timeout));
    }

    #[test]
    fn one_sided_read_fetches_remote_data() {
        let out = Job::with_ranks(2)
            .run(|ctx| {
                ctx.segment_create(SEG, 32).unwrap();
                ctx.segment_write_local(SEG, 0, &[ctx.rank() as u8 + 1; 4]).unwrap();
                ctx.barrier();
                let peer = 1 - ctx.rank();
                let mut buf = [0u8; 4];
                ctx.read(peer, SEG, 0, &mut buf).unwrap();
                ctx.barrier();
                buf[0]
            })
            .unwrap();
        assert_eq!(out, vec![2, 1]);
    }

    #[test]
    fn barrier_orders_phases_across_ranks() {
        // Every rank writes into its right neighbour's segment *after* the
        // barrier that guarantees segment creation; a second barrier makes the
        // writes visible before reading.
        let n = 8;
        let out = Job::with_ranks(n)
            .run(|ctx| {
                ctx.segment_create(SEG, 8).unwrap();
                ctx.barrier();
                let next = (ctx.rank() + 1) % ctx.num_ranks();
                ctx.write_notify(next, SEG, 0, &(ctx.rank() as u64).to_le_bytes(), 0, 1, 0).unwrap();
                ctx.notify_waitsome(SEG, 0, 1, None).unwrap();
                ctx.notify_reset(SEG, 0).unwrap();
                let mut buf = [0u8; 8];
                ctx.segment_read(SEG, 0, &mut buf).unwrap();
                u64::from_le_bytes(buf) as usize
            })
            .unwrap();
        for (rank, &got) in out.iter().enumerate() {
            assert_eq!(got, (rank + n - 1) % n);
        }
    }
}

//! Million-rank workload generators for the `fig17_million_ranks` experiment.
//!
//! The paper's figures stop at 32 nodes and the earlier scale experiments at
//! 65536 simulated workers; this module provides SPMD program *sources*
//! (implementations of [`ec_netsim::ProgramSource`]) whose per-rank op
//! streams are produced lazily in closed form.  Because every rank runs the
//! same stream modulo neighbor rotation, the arena interning of
//! [`ec_netsim::CompiledProgram::from_source`] stores the ops of **one** rank
//! regardless of the rank count — which is what makes `p = 2^20` simulations
//! fit in a few GiB of RSS.
//!
//! Two workloads are provided:
//!
//! * [`WindowedRingSource`] — a fixed window of pipelined ring steps
//!   (scatter-reduce rounds followed by allgather rounds).  Strictly
//!   single-writer and one-sided, so the engine's dataflow fast path
//!   applies; this is the throughput workload.
//! * [`UniformSspSource`] — the jitter-free core of the fig14 SSP hypercube
//!   exchange.  Multi-writer (every rank receives from `log2 p` partners),
//!   so it exercises the strict event-loop engine at scale.

use crate::ssp_scale::{push_rank_ops, SspScaleConfig};
use ec_netsim::{Op, ProgramSource, WaitIds};

/// A fixed window of pipelined ring-allreduce steps: `rounds` scatter-reduce
/// rounds (put one chunk to the right neighbor, wait for the left neighbor's
/// chunk, reduce it) followed by `rounds` allgather rounds (same exchange,
/// local copy instead of reduction).
///
/// A full ring allreduce performs `p - 1` rounds per stage; at `p = 2^20`
/// that is ~6M ops *per rank*.  The window keeps the per-rank stream short
/// and uniform — exactly the regime the paper's eventually consistent
/// pipelines operate in — while preserving the ring's dependency structure.
#[derive(Debug, Clone, Copy)]
pub struct WindowedRingSource {
    ranks: usize,
    rounds: usize,
    chunk_bytes: u64,
}

impl WindowedRingSource {
    /// A `rounds`-step window of a ring allreduce over `ranks` ranks moving
    /// `chunk_bytes` per step.
    pub fn new(ranks: usize, rounds: usize, chunk_bytes: u64) -> Self {
        assert!(chunk_bytes > 0, "chunks must be non-empty");
        Self { ranks, rounds, chunk_bytes }
    }
}

impl ProgramSource for WindowedRingSource {
    fn num_ranks(&self) -> usize {
        self.ranks
    }

    fn rank_ops(&self, rank: usize, out: &mut Vec<Op>) {
        if self.ranks <= 1 {
            return;
        }
        let next = (rank + 1) % self.ranks;
        for round in 0..self.rounds {
            let id = round as u32;
            out.push(Op::PutNotify { dst: next, bytes: self.chunk_bytes, notify: id });
            out.push(Op::WaitNotify { ids: WaitIds::One(id) });
            out.push(Op::Reduce { bytes: self.chunk_bytes });
        }
        for round in 0..self.rounds {
            let id = (self.rounds + round) as u32;
            out.push(Op::PutNotify { dst: next, bytes: self.chunk_bytes, notify: id });
            out.push(Op::WaitNotify { ids: WaitIds::One(id) });
            out.push(Op::Copy { bytes: self.chunk_bytes });
        }
    }
}

/// The jitter-free core of the fig14 SSP hypercube exchange: per iteration
/// every worker computes for a fixed duration, puts `bytes` to each of its
/// `log2 p` hypercube partners (notification id = dimension), and — once past
/// the slack window — consumes one (possibly stale) contribution per partner
/// and folds it in.
///
/// It runs `ssp_scale_program`'s per-rank generator with jitter and hiccups
/// at zero, which makes every rank's stream byte-identical and lets the
/// arena store it once.
#[derive(Debug, Clone, Copy)]
pub struct UniformSspSource {
    cfg: SspScaleConfig,
}

impl UniformSspSource {
    /// An SSP exchange over `workers` (a power of two >= 2) with the given
    /// staleness bound.
    ///
    /// # Panics
    /// Panics if `workers` is not a power of two >= 2 or `bytes` is zero.
    pub fn new(workers: usize, slack: usize, iterations: usize, bytes: u64, compute: f64) -> Self {
        assert!(workers >= 2 && workers.is_power_of_two(), "workers must be a power of two >= 2");
        assert!(bytes > 0, "per-partner payload must be non-empty");
        let cfg = SspScaleConfig {
            iterations,
            bytes,
            compute,
            jitter: 0.0,
            hiccup_prob: 0.0,
            ..SspScaleConfig::new(workers, slack)
        };
        Self { cfg }
    }
}

impl ProgramSource for UniformSspSource {
    fn num_ranks(&self) -> usize {
        self.cfg.workers
    }

    fn rank_ops(&self, rank: usize, out: &mut Vec<Op>) {
        push_rank_ops(&self.cfg, rank, out);
    }
}

/// Peak resident set size of the current process in bytes (`VmHWM` from
/// `/proc/self/status`), or `None` where procfs is unavailable.
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib * 1024)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ssp_scale::{ssp_scale_program, SspScaleConfig};
    use ec_netsim::{ClusterSpec, CompiledProgram, CostModel, Engine};

    #[test]
    fn windowed_ring_interns_to_two_shared_segments() {
        let p = 4096;
        let rounds = 8;
        let compiled = CompiledProgram::from_source(&WindowedRingSource::new(p, rounds, 32 * 1024)).unwrap();
        let stats = compiled.memory_stats();
        // A symmetric ring compiles to exactly two shared segments (one per
        // target-encoding mode), independent of the rank count.
        assert_eq!(stats.segments, 2);
        assert_eq!(stats.stored_ops, 2 * 6 * rounds, "the arena must hold per-rank, not per-program, op counts");
        assert_eq!(stats.total_ops, (p * 6 * rounds) as u64);
    }

    #[test]
    fn windowed_ring_takes_the_dataflow_fast_path() {
        let compiled = CompiledProgram::from_source(&WindowedRingSource::new(64, 4, 1024)).unwrap();
        let profile = compiled.profile();
        assert!(profile.single_writer && profile.one_sided_only, "ring must stay dataflow-eligible");
    }

    #[test]
    fn windowed_ring_report_is_identical_via_program_source_and_compiled_paths() {
        let p = 64;
        let source = WindowedRingSource::new(p, 4, 8192);
        let engine = Engine::new(ClusterSpec::homogeneous(p, 1), CostModel::marenostrum4_opa());
        let mut program = ec_netsim::Program::empty(p);
        for rank in 0..p {
            source.rank_ops(rank, &mut program.ranks[rank].ops);
        }
        let via_program = engine.run(&program).unwrap();
        let via_source = engine.run_compiled(&CompiledProgram::from_source(&source).unwrap()).unwrap();
        assert_eq!(via_program.fingerprint(), via_source.fingerprint());
    }

    #[test]
    fn uniform_ssp_matches_the_fig14_generator_with_jitter_disabled() {
        let mut cfg = SspScaleConfig::new(16, 2);
        cfg.iterations = 5;
        cfg.jitter = 0.0;
        cfg.hiccup_prob = 0.0;
        let program = ssp_scale_program(&cfg);
        let source = UniformSspSource::new(16, 2, 5, cfg.bytes, cfg.compute);
        for rank in 0..16 {
            let mut ops = Vec::new();
            source.rank_ops(rank, &mut ops);
            assert_eq!(ops, program.ranks[rank].ops, "rank {rank}");
        }
    }

    #[test]
    fn uniform_ssp_interns_to_a_single_segment_and_is_multi_writer() {
        let compiled = CompiledProgram::from_source(&UniformSspSource::new(256, 1, 3, 1024, 1e-6)).unwrap();
        assert_eq!(compiled.memory_stats().segments, 1);
        assert!(!compiled.profile().single_writer, "hypercube partners make every rank a multi-writer target");
    }

    #[test]
    fn peak_rss_is_reported_on_linux() {
        let rss = peak_rss_bytes().expect("procfs must be available in the test environment");
        assert!(rss > 1024 * 1024, "peak RSS {rss} implausibly small");
    }
}

//! `cargo run --release -p xtask -- lint-schedules` — sweep every schedule
//! generator and program source in `ec_collectives` and `ec_baseline`
//! through the [`mod@ec_netsim::analyze`] static analyzer across a grid of
//! rank counts (power-of-two and not) and payload sizes.
//!
//! A schedule that deadlocks, starves a wait, leaks notifications, or races
//! on a one-sided landing slot fails the lint; so does one that fails
//! compile-time validation outright.  CI runs this as its own job and
//! archives the report.

use std::fmt::Write as _;

use ec_baseline::{
    mpi_alltoall_pairwise_schedule, mpi_bcast_binomial_schedule, mpi_bcast_default_schedule,
    mpi_reduce_binomial_schedule, mpi_reduce_default_schedule, variants, MpiAllreduceVariant,
};
use ec_collectives::schedule::{
    alltoall_direct_schedule, bcast_bst_schedule, hypercube_allreduce_schedule, reduce_bst_schedule,
    reduce_process_threshold_schedule, ring_allreduce_schedule, HypercubeAllreduceSource, RingAllreduceSource,
};
use ec_netsim::{analyze, analyze_compiled, AnalysisReport, CompiledProgram, Program, ProgramSource, ValidationError};

/// Rank counts the sweep covers: small degenerate, odd, non-power-of-two
/// composite, and the power-of-two ladder of the paper's figures.
const RANK_GRID: [usize; 9] = [2, 3, 4, 6, 8, 13, 16, 64, 256];

/// Payload sizes in bytes: smaller than the rank count (ragged/empty
/// chunks), one page, and a megabyte.
const BYTES_GRID: [u64; 3] = [3, 4096, 1 << 20];

/// Data/process thresholds for the Figure 9/10 reduce variants.
const THRESHOLD_GRID: [f64; 2] = [0.3, 1.0];

/// One analyzed schedule instance.
struct Outcome {
    label: String,
    report: Result<AnalysisReport, ValidationError>,
}

impl Outcome {
    fn clean(&self) -> bool {
        self.report.as_ref().is_ok_and(AnalysisReport::is_clean)
    }
}

fn analyzed(label: String, program: &Program) -> Outcome {
    Outcome { label, report: analyze(program) }
}

fn analyzed_source(label: String, source: &impl ProgramSource) -> Outcome {
    Outcome { label, report: CompiledProgram::from_source(source).map(|c| analyze_compiled(&c)) }
}

/// Run the whole sweep; returns the report text and whether every schedule
/// analyzed clean.
pub(crate) fn lint_schedules() -> (String, bool) {
    let mut outcomes: Vec<Outcome> = Vec::new();

    for p in RANK_GRID {
        for bytes in BYTES_GRID {
            outcomes.push(analyzed(
                format!("ec_collectives::ring_allreduce_schedule(p={p}, bytes={bytes})"),
                &ring_allreduce_schedule(p, bytes),
            ));
            // Non-power-of-two rank counts yield empty hypercube programs by
            // design; they still must analyze clean (trivially).
            outcomes.push(analyzed(
                format!("ec_collectives::hypercube_allreduce_schedule(p={p}, bytes={bytes})"),
                &hypercube_allreduce_schedule(p, bytes),
            ));
            outcomes.push(analyzed(
                format!("ec_collectives::alltoall_direct_schedule(p={p}, block={bytes})"),
                &alltoall_direct_schedule(p, bytes),
            ));
            outcomes.push(analyzed_source(
                format!("ec_collectives::RingAllreduceSource(p={p}, bytes={bytes})"),
                &RingAllreduceSource::new(p, bytes),
            ));
            outcomes.push(analyzed_source(
                format!("ec_collectives::HypercubeAllreduceSource(p={p}, bytes={bytes})"),
                &HypercubeAllreduceSource::new(p, bytes),
            ));
            for threshold in THRESHOLD_GRID {
                outcomes.push(analyzed(
                    format!("ec_collectives::bcast_bst_schedule(p={p}, bytes={bytes}, thr={threshold})"),
                    &bcast_bst_schedule(p, bytes, threshold),
                ));
                outcomes.push(analyzed(
                    format!("ec_collectives::reduce_bst_schedule(p={p}, bytes={bytes}, thr={threshold})"),
                    &reduce_bst_schedule(p, bytes, threshold),
                ));
                outcomes.push(analyzed(
                    format!("ec_collectives::reduce_process_threshold_schedule(p={p}, bytes={bytes}, thr={threshold})"),
                    &reduce_process_threshold_schedule(p, bytes, threshold),
                ));
            }

            outcomes.push(analyzed(
                format!("ec_baseline::mpi_reduce_binomial_schedule(p={p}, bytes={bytes})"),
                &mpi_reduce_binomial_schedule(p, bytes),
            ));
            outcomes.push(analyzed(
                format!("ec_baseline::mpi_reduce_default_schedule(p={p}, bytes={bytes})"),
                &mpi_reduce_default_schedule(p, bytes),
            ));
            outcomes.push(analyzed(
                format!("ec_baseline::mpi_bcast_binomial_schedule(p={p}, bytes={bytes})"),
                &mpi_bcast_binomial_schedule(p, bytes),
            ));
            outcomes.push(analyzed(
                format!("ec_baseline::mpi_bcast_default_schedule(p={p}, bytes={bytes})"),
                &mpi_bcast_default_schedule(p, bytes),
            ));
            outcomes.push(analyzed(
                format!("ec_baseline::mpi_alltoall_pairwise_schedule(p={p}, block={bytes})"),
                &mpi_alltoall_pairwise_schedule(p, bytes),
            ));
            // The single-source variants the fig16 tuner prices.
            for (name, program) in [
                ("bruck_alltoall_schedule", variants::bruck_alltoall_schedule(p, bytes)),
                ("scatter_allgather_bcast_schedule", variants::scatter_allgather_bcast_schedule(p, bytes)),
                ("rsg_reduce_schedule", variants::rsg_reduce_schedule(p, bytes)),
            ] {
                outcomes.push(analyzed(format!("ec_baseline::variants::{name}(p={p}, bytes={bytes})"), &program));
            }
            outcomes.push(analyzed(
                format!("ec_baseline::variants::pipelined_binomial_bcast_schedule(p={p}, bytes={bytes}, seg=16384)"),
                &variants::pipelined_binomial_bcast_schedule(p, bytes, 16 * 1024),
            ));

            for variant in MpiAllreduceVariant::all() {
                for ppn in [1usize, 4] {
                    if p % ppn != 0 {
                        continue;
                    }
                    outcomes.push(analyzed(
                        format!("ec_baseline::{}(p={p}, bytes={bytes}, ppn={ppn})", variant.label()),
                        &variant.schedule(p, bytes, ppn),
                    ));
                }
            }
        }
    }

    let mut out = String::new();
    let total = outcomes.len();
    let mut failed = 0usize;
    for o in &outcomes {
        match &o.report {
            Ok(r) if r.is_clean() => {
                let _ = writeln!(out, "ok   {} [{} classes, {} pieces]", o.label, r.classes, r.pieces);
            }
            Ok(r) => {
                failed += 1;
                let _ = writeln!(out, "FAIL {}", o.label);
                for e in &r.errors {
                    let _ = writeln!(out, "     {e}");
                }
            }
            Err(e) => {
                failed += 1;
                let _ = writeln!(out, "FAIL {} (validation: {e})", o.label);
            }
        }
    }
    let _ = writeln!(out, "lint-schedules: {}/{} schedules clean", total - failed, total);
    (out, outcomes.iter().all(Outcome::clean))
}

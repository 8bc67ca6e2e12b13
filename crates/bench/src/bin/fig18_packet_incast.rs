//! Figure 18 (new experiment, beyond the paper): what the packet-level
//! lossless fabric changes about the fig16 winner question.
//!
//! The direct AlltoAll and the pipelined ring allreduce are priced on a
//! 4:1-tapered fat-tree by all four backends: the flow-level max-min
//! solver (the fig15 model) and the per-packet fabric under PFC+DCQCN,
//! PFC+fixed-window, and with PFC disabled (drop-tail + go-back-N).  The
//! payloads sit in the regime where the two collectives land within a few
//! percent of each other on the flow model, so the winner is decided by
//! exactly the effects only the packet fabric models — and it flips twice:
//!
//! * the flow model picks the **ring** (max-min fair shares charge the
//!   AlltoAll nearly the full taper factor);
//! * the lossless PFC fabric picks the **AlltoAll** (its packets pipeline
//!   through the tapered uplink and never let it idle, beating the
//!   solver's fair-share pessimism while PFC pauses throttle the feeders);
//! * disabling PFC hands the win back to the **ring** (the incast overruns
//!   the drop-tail queues and every drop costs a go-back-N rewind).
//!
//! The ring itself prices within a few percent on every backend — it never
//! queues more than one flow per link, so there is nothing for the packet
//! fabric to disagree about.
//!
//! The output is fully deterministic: the packet fabric is a deterministic
//! event simulation and the seeded-loss RNG is fixed.  Pass `--smoke` for
//! the CI-sized run (p = 64 only).
//!
//! Sizes: the `IncastConfig::new` defaults (32 KiB AlltoAll blocks, 4 MB
//! ring payload) at p = 64, 128 and 256.

use ec_bench::incast::{fig18_engine, run_point, Collective, FabricKind, IncastConfig, IncastPoint};
use ec_netsim::SplitMix64;

const TAPERS: [f64; 2] = [1.0, 4.0];

fn print_table(points: &[IncastPoint]) {
    println!(
        "{:>6} {:>6} {:>13} {:>10} {:>12} {:>8} {:>12} {:>9} {:>6} {:>6}",
        "p", "taper", "backend", "collective", "makespan_us", "pauses", "pause_us", "marks", "drops", "rtx"
    );
    for pt in points {
        println!(
            "{:>6} {:>6} {:>13} {:>10} {:>12.1} {:>8} {:>12.1} {:>9} {:>6} {:>6}",
            pt.ranks,
            format!("{:.0}:1", pt.oversubscription),
            pt.kind.label(),
            pt.collective.label(),
            pt.makespan * 1e6,
            pt.pfc_pauses,
            pt.pause_time * 1e6,
            pt.ecn_marks,
            pt.drops,
            pt.retransmits,
        );
    }
    println!();
}

/// The winner each backend picks at the given taper, from the measured points.
fn winner(points: &[IncastPoint], kind: FabricKind, taper: f64) -> (Collective, f64, f64) {
    let pick = |c: Collective| {
        points
            .iter()
            .find(|p| p.kind == kind && p.collective == c && p.oversubscription == taper)
            .expect("sweep covers every (backend, collective) cell")
            .makespan
    };
    let (a, r) = (pick(Collective::Alltoall), pick(Collective::Ring));
    if a <= r {
        (Collective::Alltoall, a, r)
    } else {
        (Collective::Ring, r, a)
    }
}

fn main() {
    ec_bench::check_args();
    let smoke = ec_bench::smoke_flag();
    let rank_counts: &[usize] = if smoke { &[64] } else { &[64, 128, 256] };

    println!(
        "# Figure 18 — packet-level incast: the winner the flow model cannot see (simulated fat-tree, galileo-opa)"
    );
    println!("# direct alltoall vs pipelined ring allreduce, tapers {TAPERS:?}, backends: flow solver,");
    println!("# packet PFC+DCQCN, packet PFC+fixed-window, packet lossy (no PFC, drop-tail + go-back-N);");
    println!("# under PFC drops and retransmits must stay zero (lossless fabric invariant).\n");

    let mut points: Vec<IncastPoint> = Vec::new();
    for &p in rank_counts {
        let cfg = IncastConfig::new(p);
        for &taper in &TAPERS {
            for kind in FabricKind::all() {
                for collective in [Collective::Alltoall, Collective::Ring] {
                    points.push(run_point(&cfg, collective, kind, taper));
                }
            }
        }
    }
    print_table(&points);

    let max_taper = *TAPERS.last().expect("at least one taper");
    for &p in rank_counts {
        let at_p: Vec<IncastPoint> = points.iter().filter(|pt| pt.ranks == p).cloned().collect();
        println!("## p = {p}, {max_taper:.0}:1 taper — winner per backend:");
        let (flow_win, ..) = winner(&at_p, FabricKind::Flow, max_taper);
        for kind in FabricKind::all() {
            let (win, best, other) = winner(&at_p, kind, max_taper);
            let flip = if win != flow_win { "  <- flips the flow-model winner" } else { "" };
            println!(
                "  {:>13}: {:<9} ({:.1} us vs {:.1} us){flip}",
                kind.label(),
                win.label(),
                best * 1e6,
                other * 1e6
            );
        }
        println!();
    }

    let fingerprint = points.iter().fold(0u64, |acc, pt| SplitMix64::mix(acc ^ pt.makespan.to_bits()));
    println!("## determinism fingerprint: {fingerprint:016x}");
    println!("(the flow solver and the packet fabric agree on uncontended paths; this figure is the regime where they must not)");

    // Representative observability run (`--metrics` / `--trace-out`): the
    // AlltoAll through the PFC fabric at the smallest sweep point.
    let cfg = IncastConfig::new(rank_counts[0]);
    ec_bench::Observability::from_args().observe_run(
        "packet-incast-alltoall",
        fig18_engine(&cfg, FabricKind::PacketPfc, max_taper),
        &cfg.program(Collective::Alltoall),
    );
}

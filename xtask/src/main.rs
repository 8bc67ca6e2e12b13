//! `cargo run [--release] -p xtask -- <task>` — repository automation (the
//! repository defines no `cargo xtask` alias).
//!
//! Three tasks, all run by CI, invoked as CI does:
//!
//! ```text
//! cargo run --release -p xtask -- lint-schedules [--out report.txt]
//! cargo run --release -p xtask -- trace-stats run.json
//! cargo run -p xtask -- doc-check
//! ```
//!
//! **doc-check** builds the rustdoc of every first-party crate with all
//! rustdoc warnings (broken intra-doc links included) promoted to errors,
//! then rebuilds `ec_netsim` — the crate whose API the architecture book
//! links into — with `missing_docs` denied, so every public item of the
//! simulator stays documented.
//!
//! **trace-stats** validates a Chrome Trace Event JSON file exported by a
//! fig binary's `--trace-out` flag (span pairing, flow-arrow pairing,
//! counter tracks) and prints a per-span-name time summary.
//!
//! **lint-schedules** sweeps every schedule generator and `ProgramSource`
//! in `ec_collectives` and `ec_baseline` through the `ec_netsim::analyze`
//! static analyzer (deadlock/starvation, notification conservation,
//! one-sided buffer races) across a grid of rank counts — including
//! non-power-of-two — and payload sizes, and fails if any schedule is not
//! certified clean.  See the `lint` module.

use std::process::ExitCode;

mod lint;

fn usage() -> ExitCode {
    eprintln!("usage: cargo run -p xtask -- lint-schedules [--out <report-file>]");
    eprintln!("       cargo run -p xtask -- trace-stats <trace.json>");
    eprintln!("       cargo run -p xtask -- doc-check");
    ExitCode::from(2)
}

/// The first-party crates `doc-check` holds to the strict rustdoc bar (the
/// vendored stand-ins keep their upstream docs as-is).
const FIRST_PARTY: [&str; 11] = [
    "ec-collectives-suite",
    "ec_gaspi",
    "ec_ssp",
    "ec_comm",
    "ec_collectives",
    "ec_baseline",
    "ec_netsim",
    "ec_mlapp",
    "ec_fftapp",
    "ec_bench",
    "xtask",
];

/// `doc-check`: fail on any rustdoc warning in a first-party crate, then
/// deny `missing_docs` on the `ec_netsim` public API.
fn doc_check_main(args: &[String]) -> ExitCode {
    if !args.is_empty() {
        return usage();
    }
    let run = |what: &str, cmd: &mut std::process::Command| -> bool {
        println!("doc-check: {what}");
        match cmd.status() {
            Ok(status) if status.success() => true,
            Ok(status) => {
                eprintln!("error: {what} failed with {status}");
                false
            }
            Err(e) => {
                eprintln!("error: could not spawn cargo for {what}: {e}");
                false
            }
        }
    };

    let mut doc = std::process::Command::new(env!("CARGO"));
    doc.args(["doc", "--no-deps"]);
    for pkg in FIRST_PARTY {
        doc.args(["-p", pkg]);
    }
    // `-D warnings` already covers the rustdoc lints, but broken intra-doc
    // links are the failure mode the architecture book cares about most, so
    // deny them by name too (the flag survives a future softening of the
    // blanket deny).
    doc.env("RUSTDOCFLAGS", "-D warnings -D rustdoc::broken-intra-doc-links");
    if !run("rustdoc (deny warnings, deny broken intra-doc links)", &mut doc) {
        return ExitCode::FAILURE;
    }

    let mut missing = std::process::Command::new(env!("CARGO"));
    missing.args(["rustc", "-p", "ec_netsim", "--lib", "--", "-D", "missing-docs"]);
    if !run("ec_netsim public API (deny missing docs)", &mut missing) {
        return ExitCode::FAILURE;
    }

    println!("doc-check passed");
    ExitCode::SUCCESS
}

/// `trace-stats <file>`: parse and validate an exported Chrome Trace Event
/// JSON file (`--trace-out` on any fig binary) and print a summary.  Fails
/// (exit code 1) when the file is not a structurally valid trace — unpaired
/// spans, flow finishes without a start, non-monotone span nesting.
fn trace_stats_main(args: &[String]) -> ExitCode {
    let [path] = args else { return usage() };
    let json = match std::fs::read_to_string(path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: could not read {path}: {e}");
            return ExitCode::from(2);
        }
    };
    match ec_netsim::validate_chrome_trace(&json) {
        Ok(stats) => {
            println!("{path}: valid Chrome Trace Event JSON");
            println!("  events:         {}", stats.events);
            println!("  rank tracks:    {}", stats.tracks);
            println!("  spans (B/E):    {}", stats.spans);
            println!("  flows (s -> f): {} started, {} finished", stats.flow_starts, stats.flow_ends);
            if stats.dangling_flows > 0 {
                println!("  dangling flows: {} (peer rank outside the trace window)", stats.dangling_flows);
            }
            println!("  trace end:      {:.6} s", stats.end_time);
            if !stats.span_time_by_name.is_empty() {
                println!("  span time by name:");
                for (name, secs, count) in &stats.span_time_by_name {
                    println!("    {name:<12} {secs:>12.6} s over {count} span(s)");
                }
            }
            if !stats.counter_busy.is_empty() {
                println!("  link busy time (from counter tracks):");
                for (link, secs) in &stats.counter_busy {
                    println!("    {link:<24} {secs:>12.6} s");
                }
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {path} is not a valid trace: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `lint-schedules [--out <file>]`: run the static-analyzer sweep and
/// optionally persist the report (CI uploads it as an artifact).
fn lint_schedules_main(args: &[String]) -> ExitCode {
    let mut out_path = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else { return usage() };
        match flag.as_str() {
            "--out" => out_path = Some(value.clone()),
            _ => return usage(),
        }
    }
    let (report, ok) = lint::lint_schedules();
    print!("{report}");
    if let Some(path) = out_path {
        if let Err(e) = std::fs::write(&path, &report) {
            eprintln!("error: could not write {path}: {e}");
            return ExitCode::from(2);
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint-schedules") => lint_schedules_main(&args[1..]),
        Some("trace-stats") => trace_stats_main(&args[1..]),
        Some("doc-check") => doc_check_main(&args[1..]),
        _ => usage(),
    }
}

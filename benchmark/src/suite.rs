//! The whole set in one command: every workload untraced then traced, each
//! run in a fresh child process so peak RSS and CPU time are per workload and
//! never more than one workload's threads are busy.

use std::process::{Command, ExitCode};

use crate::json::Json;
use crate::{harness, metrics, out_dir, stats, workloads, Options};

/// How long one run measures; `run_seconds` of `BENCHMARK.json`.
pub const RUN_SECONDS: f64 = 10.0;

/// The info object and the result object one child printed.
struct ChildOut {
    info: Json,
    result: Json,
}

impl ChildOut {
    fn metric(&self, name: &str) -> f64 {
        self.result
            .get("metrics")
            .and_then(|m| m.get(name))
            .and_then(|m| m.get("value"))
            .and_then(Json::as_f64)
            .unwrap_or(f64::NAN)
    }

    fn count(&self, key: &str) -> f64 {
        self.result.get(key).and_then(Json::as_f64).unwrap_or(f64::NAN)
    }

    fn fingerprint(&self) -> &str {
        self.info.get("sim_fingerprint").and_then(Json::as_str).unwrap_or("")
    }
}

/// One workload's two runs.
struct Entry {
    name: &'static str,
    untraced: ChildOut,
    traced: ChildOut,
}

fn child(o: &Options, workload: &str, trace: bool) -> Result<ChildOut, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &o.seed.to_string(), "--seconds", &o.seconds.to_string()]);
    cmd.args(["--trace", if trace { "1" } else { "0" }]);
    if o.quick {
        cmd.arg("--quick");
    }
    // `output` waits for the child to end; its stderr goes to ours.
    let out =
        cmd.stderr(std::process::Stdio::inherit()).output().map_err(|e| format!("cannot start {workload}: {e}"))?;
    if !out.status.success() {
        return Err(format!("{workload} (trace {}) exited with {}", u8::from(trace), out.status));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let mut lines = text.lines().rev();
    let result = lines.next().ok_or_else(|| format!("{workload} printed nothing"))?;
    let info =
        lines.find_map(|l| l.strip_prefix("info: ")).ok_or_else(|| format!("{workload} printed no info line"))?;
    Ok(ChildOut { info: Json::parse(info)?, result: Json::parse(result)? })
}

fn run_set(o: &Options) -> Result<Vec<Entry>, String> {
    workloads::NAMES
        .iter()
        .map(|&name| {
            eprintln!("ec_benchmark: {name} ...");
            Ok(Entry { name, untraced: child(o, name, false)?, traced: child(o, name, true)? })
        })
        .collect()
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(|| "unknown".to_string(), |o| String::from_utf8_lossy(&o.stdout).trim().to_string())
}

/// Four significant digits: enough to read, short enough for a table.
fn short(v: f64) -> String {
    if v == 0.0 || !v.is_finite() {
        return format!("{v}");
    }
    let digits = (3 - v.abs().log10().floor() as i32).clamp(0, 9) as usize;
    format!("{v:.digits$}")
}

fn print_tables(set: &[Entry]) {
    println!("\n== end to end (untraced run; seconds are calibrated seconds, see README) ==");
    print!("{:<16}", "workload");
    for m in &metrics::END_TO_END {
        print!(" {:>16}", format!("{} [{}]", m.name, m.unit));
    }
    println!(" {:>4} {:>6} {:>9}  sim_fingerprint", "n", "speed", "fail/att");
    for e in set {
        print!("{:<16}", e.name);
        for m in &metrics::END_TO_END {
            print!(" {:>16}", short(e.untraced.metric(m.name)));
        }
        let n = e.untraced.info.get("wall_s").and_then(|s| s.get("n")).and_then(Json::as_f64).unwrap_or(f64::NAN);
        let speed = e.untraced.info.get("machine_speed").and_then(Json::as_f64).unwrap_or(f64::NAN);
        let failed = e.untraced.count("failed") + e.traced.count("failed");
        let attempted = e.untraced.count("attempted") + e.traced.count("attempted");
        println!(" {n:>4} {speed:>6.3} {:>9}  {}", format!("{failed}/{attempted}"), e.untraced.fingerprint());
    }
    println!(
        "(medians; n = timed passes; with n this small no tail percentile has ten samples beyond it, so none is given)"
    );

    println!("\n== per layer (traced run; 0 = the workload never enters the layer) ==");
    print!("{:<30} {:>6}", "metric", "unit");
    for e in set {
        print!(" {:>15}", e.name);
    }
    println!();
    for m in &metrics::PER_LAYER {
        print!("{:<30} {:>6}", m.name, m.unit);
        for e in set {
            print!(" {:>15}", short(e.traced.metric(m.name)));
        }
        println!();
    }
}

/// A/A: two sets of runs of the same code must agree within each metric's
/// bound.  Returns whether they do.
fn print_self_check(a: &[Entry], b: &[Entry]) -> bool {
    println!("\n== A/A self-check: second set against the first, relative difference (bound) ==");
    let mut ok = true;
    for (x, y) in a.iter().zip(b) {
        print!("{:<16}", x.name);
        for m in &metrics::END_TO_END {
            let diff = (y.untraced.metric(m.name) - x.untraced.metric(m.name)) / x.untraced.metric(m.name);
            // NaN (a missing metric) must fail, so test for "inside".
            let inside = diff.abs() <= m.bound;
            ok &= inside;
            print!(
                " {}={:+.1}% ({:.0}%){}",
                m.name,
                diff * 100.0,
                m.bound * 100.0,
                if inside { "" } else { " OUTSIDE" }
            );
        }
        let same = x.untraced.fingerprint() == y.untraced.fingerprint();
        ok &= same;
        println!("{}", if same { "" } else { " sim_fingerprint DIFFERS" });
    }
    ok
}

/// Read an earlier results file to compare simulated statistics with; it
/// must have been recorded with the same seed.
fn load_expectation(path: &str, seed: u64) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let their_seed = doc.get("header").and_then(|h| h.get("seed")).and_then(Json::as_f64);
    if their_seed != Some(seed as f64) {
        return Err(format!("{path} was recorded with seed {their_seed:?}, this run uses {seed}"));
    }
    Ok(doc)
}

/// A host-speed change must leave every simulated statistic as it was:
/// compare fingerprints with the earlier results.  Returns whether all match.
fn print_expectation(set: &[Entry], earlier: &Json) -> bool {
    println!("\n== simulated statistics against the --expect file ==");
    let mut ok = true;
    for e in set {
        let theirs = earlier
            .get("workloads")
            .and_then(|w| w.get(e.name))
            .and_then(|w| w.get("sim_fingerprint"))
            .and_then(Json::as_str);
        let same = theirs == Some(e.untraced.fingerprint());
        ok &= same;
        println!("{:<16} {} {}", e.name, e.untraced.fingerprint(), if same { "same" } else { "DIFFERS" });
    }
    ok
}

fn results_json(o: &Options, set: &[Entry]) -> Json {
    let speeds: Vec<f64> =
        set.iter().filter_map(|e| e.untraced.info.get("machine_speed").and_then(Json::as_f64)).collect();
    let header = Json::object([
        ("commit", Json::Str(command_line("git", &["rev-parse", "HEAD"]))),
        ("rustc", Json::Str(command_line("rustc", &["-V"]))),
        ("nproc", Json::Num(std::thread::available_parallelism().map_or(0, std::num::NonZero::get) as f64)),
        ("seed", Json::Num(o.seed as f64)),
        ("seconds", Json::Num(o.seconds)),
        ("quick", Json::Bool(o.quick)),
        ("CAL_REF_S", Json::Num(harness::CAL_REF_S)),
        ("machine_speed", Json::Num(stats::median(&speeds))),
    ]);
    let workloads = Json::object(set.iter().map(|e| {
        let both = |key: &str| Json::Num(e.untraced.count(key) + e.traced.count(key));
        let metrics = |c: &ChildOut| c.result.get("metrics").cloned().unwrap_or(Json::Null);
        (
            e.name,
            Json::object([
                ("sim_fingerprint", Json::from(e.untraced.fingerprint())),
                ("attempted", both("attempted")),
                ("failed", both("failed")),
                ("end_to_end", metrics(&e.untraced)),
                ("per_layer", metrics(&e.traced)),
                ("untraced_info", e.untraced.info.clone()),
            ]),
        )
    }));
    Json::object([("header", header), ("workloads", workloads)])
}

pub fn run(o: &Options) -> ExitCode {
    let earlier = match o.expect.as_deref().map(|path| load_expectation(path, o.seed)).transpose() {
        Ok(earlier) => earlier,
        Err(e) => {
            eprintln!("ec_benchmark: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut sets = Vec::new();
    for _ in 0..o.repeat {
        match run_set(o) {
            Ok(set) => sets.push(set),
            Err(e) => {
                eprintln!("ec_benchmark: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let last = sets.last().expect("--repeat is at least 1");
    print_tables(last);
    let path = out_dir().join("results.json");
    match std::fs::create_dir_all(out_dir()).and_then(|()| std::fs::write(&path, results_json(o, last).pretty())) {
        Ok(()) => println!("\nresults: {} (span files beside it)", path.display()),
        Err(e) => eprintln!("ec_benchmark: could not write {}: {e}", path.display()),
    }

    let mut ok = sets.iter().flatten().all(|e| {
        let clean = |c: &ChildOut| c.result.get("correct").and_then(Json::as_bool) == Some(true);
        // The traced pass re-does the untraced pass piece by piece: equal
        // fingerprints show the pieces add up to the same simulation.
        clean(&e.untraced) && clean(&e.traced) && e.untraced.fingerprint() == e.traced.fingerprint()
    });
    if !ok {
        println!("\nFAILED: an output check failed (see the fail/att column)");
    }
    for pair in sets.windows(2) {
        ok &= print_self_check(&pair[0], &pair[1]);
    }
    if let Some(earlier) = &earlier {
        ok &= print_expectation(last, earlier);
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn short_keeps_four_significant_digits() {
        assert_eq!(short(0.123456), "0.1235");
        assert_eq!(short(12.3456), "12.35");
        assert_eq!(short(1234567.0), "1234567");
        assert_eq!(short(0.0), "0");
        assert_eq!(short(0.000012346), "0.00001235");
    }
}

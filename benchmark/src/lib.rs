//! The repository benchmark.  `README.md` next to `Cargo.toml` says how to
//! run it and how to read it; `BENCHMARK.json` at the repository root is the
//! contract the driver holds it to.
//!
//! Two modes:
//!
//! * `--workload W --seed S --seconds T --trace 0|1` runs one workload in
//!   this process and prints one JSON object as the last line of stdout
//!   (end-to-end metrics untraced, per-layer metrics traced).
//! * Without `--workload` it runs every workload, untraced then traced, each
//!   in a fresh child process, prints the tables and writes `out/results.json`.

pub mod adapter;
pub mod alloc;
pub mod harness;
pub mod json;
pub mod metrics;
pub mod span;
pub mod stats;
pub mod suite;
pub mod workloads;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;

use harness::{timed, Calibrator};
use json::Json;
use span::{Kind, Tracer};
use workloads::{PassOut, Workload};

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// Set-up repetitions of the untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Fewest timed samples of a run, however short `--seconds` is.
const MIN_SAMPLES: usize = 3;

/// Where span files and result files go: `out/` next to `Cargo.toml`.
pub fn out_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Command-line options (both modes).
#[derive(Debug, Clone)]
pub struct Options {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub quick: bool,
    pub repeat: usize,
    pub expect: Option<String>,
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        workload: None,
        seed: 42,
        seconds: suite::RUN_SECONDS,
        trace: false,
        quick: false,
        repeat: 1,
        expect: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => o.workload = Some(value()?.clone()),
            "--seed" => o.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => o.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                o.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--repeat" => o.repeat = value()?.parse().map_err(|e| format!("--repeat: {e}"))?,
            "--expect" => o.expect = Some(value()?.clone()),
            "--quick" => o.quick = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !(o.seconds > 0.0 && o.seconds <= 60.0) || o.repeat == 0 {
        return Err("--seconds must be in (0, 60] and --repeat at least 1".into());
    }
    Ok(o)
}

/// Run the benchmark with the given command-line arguments (without the
/// program name).
pub fn run(args: &[String]) -> ExitCode {
    let options = match parse_args(args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("ec_benchmark: {e}");
            eprintln!(
                "usage: ec_benchmark [--workload NAME --trace 0|1] [--seed N] [--seconds N] [--quick] [--repeat N] [--expect results.json]"
            );
            return ExitCode::from(2);
        }
    };
    match &options.workload {
        None => suite::run(&options),
        Some(name) if !workloads::NAMES.contains(&name.as_str()) => {
            eprintln!("ec_benchmark: unknown workload {name}; the workloads are {}", workloads::NAMES.join(", "));
            ExitCode::from(2)
        }
        Some(name) => {
            let outcome = if options.trace { run_traced(name, &options) } else { run_untraced(name, &options) };
            println!("info: {}", outcome.info);
            // The driver reads this line: exactly these four keys.
            println!(
                "{}",
                Json::object([
                    ("correct", Json::Bool(outcome.failed == 0)),
                    ("attempted", Json::Num(outcome.attempted as f64)),
                    ("failed", Json::Num(outcome.failed as f64)),
                    ("metrics", outcome.metrics),
                ])
            );
            ExitCode::SUCCESS
        }
    }
}

/// What one run of one workload produced.
struct Outcome {
    attempted: u64,
    failed: u64,
    metrics: Json,
    /// Everything else worth keeping: sample counts, raw medians, quartiles,
    /// machine speed, the simulated-statistics fingerprint.
    info: Json,
}

/// Counts output checks and pins the digest every pass must reproduce.
#[derive(Default)]
struct Checker {
    attempted: u64,
    failed: u64,
    digest: Option<u64>,
}

impl Checker {
    fn pass(&mut self, out: &PassOut) {
        let same = *self.digest.get_or_insert(out.digest) == out.digest;
        self.check(out.ok && same);
    }

    fn check(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }
}

fn setup(name: &str, o: &Options, t: &Tracer) -> Box<dyn Workload> {
    workloads::setup(name, o.seed, o.quick, t).expect("the workload name was checked")
}

fn metric_json(value: f64, unit: &str) -> Json {
    Json::object([("value", Json::Num(value)), ("unit", Json::from(unit))])
}

/// Median, quartiles and count of a sample, for the info line.
fn summary(values: &[f64]) -> Json {
    let (q1, q3) = stats::quartiles(values).unwrap_or((f64::NAN, f64::NAN));
    Json::object([
        ("median", Json::Num(stats::median(values))),
        ("q1", Json::Num(q1)),
        ("q3", Json::Num(q3)),
        ("n", Json::Num(values.len() as f64)),
    ])
}

/// The untraced run: set up `SETUP_REPS` times (each ending in the warm-up
/// pass that lets lazy set-up finish), then time passes for `--seconds`,
/// a reference kernel run between every two of them.
fn run_untraced(name: &str, o: &Options) -> Outcome {
    let off = Tracer::new(false);
    let mut checker = Checker::default();
    let mut calibrator = Calibrator::start(workloads::calibrated(name));
    // Quick mode: one repetition, one sample, no waiting for the clock.
    let (reps, min_samples, seconds) = if o.quick { (1, 1, 0.0) } else { (SETUP_REPS, MIN_SAMPLES, o.seconds) };

    let mut setup_s = Vec::new();
    let mut peak_rss = Vec::new();
    let mut workload = None;
    for _ in 0..reps {
        drop(workload.take());
        let ((built, out), t) = timed(|| {
            let mut w = setup(name, o, &off);
            let out = w.pass(&off);
            (w, out)
        });
        setup_s.push(t.wall * calibrator.close_sample());
        peak_rss.push(harness::peak_rss_bytes() as f64);
        checker.pass(&out);
        workload = Some(built);
    }
    let mut workload = workload.expect("at least one set-up repetition");

    let (mut wall, mut cpu, mut raw_wall) = (Vec::new(), Vec::new(), Vec::new());
    let start = Instant::now();
    while wall.len() < min_samples || start.elapsed().as_secs_f64() < seconds {
        let (out, t) = timed(|| workload.pass(&off));
        let f = calibrator.close_sample();
        wall.push(out.secs * f);
        cpu.push(t.cpu * f);
        raw_wall.push(out.secs);
        checker.pass(&out);
    }
    peak_rss.push(harness::peak_rss_bytes() as f64);
    checker.check(workload.finish(&off));

    let wall_s = stats::median(&wall);
    let values = [
        ("wall_s", wall_s),
        ("cpu_s", stats::median(&cpu)),
        ("ops_per_s", workload.work_items() as f64 / wall_s),
        // The high-water mark of a fresh process after one set-up and one
        // pass — what a user who runs the figure once sees.  It repeats to
        // 0.1 %; the marks after further set-ups (kept on the info line) wander
        // by 5–10 % with the allocator's fragmentation.
        ("peak_rss_bytes", peak_rss[0]),
        ("setup_s", stats::median(&setup_s)),
    ];
    let metrics = Json::object(metrics::END_TO_END.iter().map(|m| {
        let value = values.iter().find(|(n, _)| *n == m.name).expect("every end-to-end metric is measured").1;
        (m.name, metric_json(value, m.unit))
    }));
    let info = Json::object([
        ("workload", Json::from(name)),
        ("seed", Json::Num(o.seed as f64)),
        ("trace", Json::Num(0.0)),
        ("sim_fingerprint", Json::Str(format!("{:016x}", checker.digest.unwrap_or(0)))),
        ("work_items", Json::Num(workload.work_items() as f64)),
        ("machine_speed", Json::Num(calibrator.machine_speed())),
        ("wall_s", summary(&wall)),
        ("raw_wall_s", summary(&raw_wall)),
        ("cpu_s", summary(&cpu)),
        ("setup_s", summary(&setup_s)),
        ("peak_rss_after_each_setup_then_loop", Json::Arr(peak_rss.iter().map(|&b| Json::Num(b)).collect())),
    ]);
    Outcome { attempted: checker.attempted, failed: checker.failed, metrics, info }
}

/// The traced run: one traced set-up, then untraced and traced passes in
/// turn for `--seconds` (their ratio is the tracing overhead), then the
/// workload's layer probes.  Spans go to `out/spans-<workload>.json`.
fn run_traced(name: &str, o: &Options) -> Outcome {
    let (off, on) = (Tracer::new(false), Tracer::new(true));
    let mut checker = Checker::default();
    let mut calibrator = Calibrator::start(workloads::calibrated(name));
    let seconds = if o.quick { 0.0 } else { o.seconds };

    let mut workload = counted(|| setup(name, o, &on));
    on.end_sample(calibrator.close_sample());
    checker.pass(&workload.pass(&off));

    let mut samples = 0;
    let start = Instant::now();
    while samples < 1 || start.elapsed().as_secs_f64() < seconds {
        let (plain, t) = timed(|| workload.pass(&off));
        checker.pass(&plain);
        calibrator.close_sample();
        let traced = counted(|| workload.pass(&on));
        checker.pass(&traced);
        on.value("harness.trace_overhead_x", traced.secs / plain.secs, Kind::Plain);
        on.value("harness.cpu_over_wall", t.cpu / plain.secs, Kind::Plain);
        on.end_sample(calibrator.close_sample());
        samples += 1;
    }
    checker.check(counted(|| workload.finish(&on)));
    on.end_sample(calibrator.close_sample());

    let mut series = on.series();
    series.insert("harness.traced_samples".into(), vec![f64::from(samples)]);
    series.insert("harness.machine_speed".into(), vec![calibrator.machine_speed()]);
    let medians = derive(series.iter().map(|(k, v)| (k.clone(), stats::median(v))).collect());
    let metrics = Json::object(
        metrics::PER_LAYER.iter().map(|m| (m.name, metric_json(medians.get(m.name).copied().unwrap_or(0.0), m.unit))),
    );

    let dir = out_dir();
    let path = dir.join(format!("spans-{name}.json"));
    if let Err(e) = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, on.to_json(name).to_string())) {
        eprintln!("ec_benchmark: could not write {}: {e}", path.display());
    }
    let info = Json::object([
        ("workload", Json::from(name)),
        ("seed", Json::Num(o.seed as f64)),
        ("trace", Json::Num(1.0)),
        ("sim_fingerprint", Json::Str(format!("{:016x}", checker.digest.unwrap_or(0)))),
        ("traced_samples", Json::Num(f64::from(samples))),
        ("spans", Json::Str(path.display().to_string())),
    ]);
    Outcome { attempted: checker.attempted, failed: checker.failed, metrics, info }
}

/// Run `f` with the counting allocator on: only traced work is counted.
fn counted<R>(f: impl FnOnce() -> R) -> R {
    alloc::set_enabled(true);
    let out = f();
    alloc::set_enabled(false);
    out
}

/// Metrics that are ratios of two others.
fn derive(mut m: BTreeMap<String, f64>) -> BTreeMap<String, f64> {
    let get = |m: &BTreeMap<String, f64>, k: &str| m.get(k).copied().unwrap_or(0.0);
    let (hits, solves) = (get(&m, "fabric.balanced_swap_hits"), get(&m, "fabric.solves"));
    if hits + solves > 0.0 {
        m.insert("fabric.swap_hit_ratio".into(), hits / (hits + solves));
    }
    let (events, inrun) = (get(&m, "packet.events"), get(&m, "packet.inrun_s"));
    if inrun > 0.0 {
        m.insert("packet.events_per_s".into(), events / inrun);
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn driver_command_line_parses() {
        let o = parse_args(&args("--workload ring_dataflow --seed 7 --seconds 8 --trace 1")).unwrap();
        assert_eq!((o.workload.as_deref(), o.seed, o.seconds, o.trace), (Some("ring_dataflow"), 7, 8.0, true));
        assert!(parse_args(&args("--trace 2")).is_err());
        assert!(parse_args(&args("--seconds 0")).is_err());
        assert!(parse_args(&args("--seed")).is_err());
        assert!(parse_args(&args("--frobnicate")).is_err());
    }

    #[test]
    fn derived_ratios() {
        let m: BTreeMap<String, f64> = [
            ("fabric.balanced_swap_hits", 30.0),
            ("fabric.solves", 10.0),
            ("packet.events", 100.0),
            ("packet.inrun_s", 0.5),
        ]
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect();
        let d = derive(m);
        assert_eq!(d["fabric.swap_hit_ratio"], 0.75);
        assert_eq!(d["packet.events_per_s"], 200.0);
        assert!(!derive(BTreeMap::new()).contains_key("fabric.swap_hit_ratio"));
    }

    /// `BENCHMARK.json` and the tables in `metrics.rs` / `workloads.rs` name
    /// the same things.
    #[test]
    fn benchmark_json_matches_the_code() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root")).unwrap();
        let names = |key: &str| -> Vec<(String, String, String, f64)> {
            let Some(Json::Arr(items)) = doc.get(key) else { panic!("{key} is a list") };
            items
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).and_then(Json::as_str).unwrap_or("").to_string();
                    (s("name"), s("unit"), s("better"), m.get("bound").and_then(Json::as_f64).unwrap_or(0.0))
                })
                .collect()
        };
        let declared = |ms: &[metrics::Metric]| -> Vec<(String, String, String, f64)> {
            ms.iter().map(|m| (m.name.into(), m.unit.into(), m.better.into(), m.bound)).collect()
        };
        assert_eq!(names("end_to_end"), declared(&metrics::END_TO_END));
        assert_eq!(names("per_layer"), declared(&metrics::PER_LAYER));
        let workloads: Vec<String> = names("workloads").into_iter().map(|w| w.0).collect();
        assert_eq!(workloads, workloads::NAMES);
        assert_eq!(doc.get("run_seconds").and_then(Json::as_f64), Some(suite::RUN_SECONDS));
    }
}

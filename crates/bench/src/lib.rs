//! # ec-bench — figure-regeneration harness
//!
//! One binary per evaluation figure of the paper (`fig06` … `fig13`).
//! Each binary prints the same series the corresponding figure plots, as an
//! aligned text table, and a short comparison against the numbers the paper
//! reports (speedups, crossover points).
//!
//! The cluster-scale figures (8–13) are produced with the `ec-netsim` cost
//! model; the SSP figures (6–7) run the real threaded runtime with injected
//! latency and stragglers.  Workload sizes are fixed: the defaults are the
//! paper's (or the experiment's) sizes and `--smoke` selects the CI-sized
//! ones.  Four environment variables remain, each with a caller:
//! `FIG06_RANKS` and `FIG07_RANKS` fit the threaded figures to the host's
//! cores, and `FIG14_WORKERS` / `FIG14_MAX_SLACK` drive CI's p = 65536 run.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod congestion;
pub mod incast;
pub mod million;
pub mod ssp_scale;
pub mod tuner;

use std::fmt::Write as _;

/// A labelled series of (x, y) measurements (one line of a paper figure).
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    /// Legend label.
    pub label: String,
    /// The measured points.
    pub points: Vec<(f64, f64)>,
}

impl Series {
    /// Create an empty series.
    pub fn new(label: impl Into<String>) -> Self {
        Self { label: label.into(), points: Vec::new() }
    }

    /// Append a point.
    pub fn push(&mut self, x: f64, y: f64) {
        self.points.push((x, y));
    }

    /// The y value at a given x, if present.
    pub fn y_at(&self, x: f64) -> Option<f64> {
        self.points.iter().find(|(px, _)| (*px - x).abs() < 1e-9).map(|&(_, y)| y)
    }
}

/// Render a set of series sharing the same x axis as an aligned text table.
///
/// The x values are taken from the union of all series; missing entries are
/// printed as `-`.
pub fn render_table(title: &str, x_label: &str, y_unit: &str, series: &[Series]) -> String {
    let mut xs: Vec<f64> = series.iter().flat_map(|s| s.points.iter().map(|&(x, _)| x)).collect();
    xs.sort_by(f64::total_cmp);
    xs.dedup_by(|a, b| (*a - *b).abs() < 1e-9);

    let mut out = String::new();
    let _ = writeln!(out, "# {title}");
    let _ = writeln!(out, "# y unit: {y_unit}");
    let _ = write!(out, "{x_label:>14}");
    for s in series {
        let _ = write!(out, " {:>22}", s.label);
    }
    let _ = writeln!(out);
    for &x in &xs {
        let _ = write!(out, "{x:>14.0}");
        for s in series {
            match s.y_at(x) {
                Some(y) => {
                    let _ = write!(out, " {y:>22.6e}");
                }
                None => {
                    let _ = write!(out, " {:>22}", "-");
                }
            }
        }
        let _ = writeln!(out);
    }
    out
}

/// Pretty ratio formatting used in the "paper vs measured" summaries.
pub fn speedup(base: f64, other: f64) -> f64 {
    if other <= 0.0 {
        f64::NAN
    } else {
        base / other
    }
}

/// Read the override `name` as one `usize`, `default` when it is unset.
///
/// A malformed value (empty, not a number, or a list) names the variable
/// and the value on stderr and exits with status 2.
pub fn env_usize(name: &str, default: usize) -> usize {
    env_override(name, false).map_or(default, |values| values[0])
}

/// Read the override `name` as a comma-separated `usize` list (e.g.
/// `FIG14_WORKERS=128,65536`), `default` when it is unset.
///
/// A malformed value (empty, an empty item, or an item that is not a number)
/// names the variable and the value on stderr and exits with status 2.
pub fn env_usize_list(name: &str, default: &[usize]) -> Vec<usize> {
    env_override(name, true).unwrap_or_else(|| default.to_vec())
}

/// The values of the override `name`, `None` when it is unset; a malformed
/// value exits 2, as [`check_args`] does for a malformed flag.
fn env_override(name: &str, list: bool) -> Option<Vec<usize>> {
    let value = std::env::var_os(name)?;
    let value = value.to_string_lossy();
    parse_override(&value, list).or_else(|| {
        let expected = if list { "a comma-separated list of non-negative integers" } else { "a non-negative integer" };
        eprintln!("malformed environment variable `{name}={value}`: expected {expected}");
        std::process::exit(2)
    })
}

/// `value` as one `usize`, or as a comma-separated list of them when `list`;
/// `None` when it is empty, holds an empty item or an item that is not a
/// number, or holds several items where one is expected.
fn parse_override(value: &str, list: bool) -> Option<Vec<usize>> {
    let values: Vec<usize> = value.split(',').map(|item| item.trim().parse().ok()).collect::<Option<_>>()?;
    (list || values.len() == 1).then_some(values)
}

/// Whether the binary was invoked with `--smoke` (CI-sized workloads).
///
/// Every `fig*` binary honours the flag by switching to its CI-sized
/// workload parameters.
pub fn smoke_flag() -> bool {
    std::env::args().any(|a| a == "--smoke")
}

/// The flags the `fig*` binaries accept, each with the placeholder of the
/// value it takes (as the next argument or after `=`), if any.
const ACCEPTED_FLAGS: [(&str, Option<&str>); 5] = [
    ("--smoke", None),
    ("--metrics", None),
    ("--trace-out", Some("FILE")),
    ("--trace-ranks", Some("LO..HI")),
    ("--trace-sample", Some("N")),
];

/// The inclusive rank window of a `--trace-ranks LO..HI` value.
fn rank_window(value: &str) -> Option<(usize, usize)> {
    let (lo, hi) = value.split_once("..")?;
    let (lo, hi) = (lo.trim().parse().ok()?, hi.trim().parse().ok()?);
    (lo <= hi).then_some((lo, hi))
}

/// Whether `value` is well-formed for `flag`.
fn valid_value(flag: &str, value: &str) -> bool {
    match flag {
        "--trace-ranks" => rank_window(value).is_some(),
        "--trace-sample" => value.parse::<usize>().is_ok(),
        _ => true,
    }
}

/// Split `args` (the program name excluded) into `(flag, value)` pairs, the
/// value empty for a flag that takes none.  `Err` is the first argument that
/// is not an accepted flag or a flag's value, that is a value flag without
/// its value, or that carries a malformed `--trace-ranks`/`--trace-sample`
/// value.
fn parse_flags(args: &[String]) -> Result<Vec<(&'static str, &str)>, &str> {
    let mut flags = Vec::new();
    let mut args = args.iter().map(String::as_str);
    while let Some(a) = args.next() {
        let (name, inline) = a.split_once('=').map_or((a, None), |(name, value)| (name, Some(value)));
        let parsed = match ACCEPTED_FLAGS.iter().find(|(flag, _)| *flag == name) {
            Some(&(flag, Some(_))) => match inline.or_else(|| args.next()) {
                Some(value) if !valid_value(flag, value) => return Err(if inline.is_some() { a } else { value }),
                value => value.map(|value| (flag, value)),
            },
            Some(&(flag, None)) if inline.is_none() => Some((flag, "")),
            _ => None,
        };
        flags.push(parsed.ok_or(a)?);
    }
    Ok(flags)
}

/// Name the offending argument and the accepted flags on stderr; exit 2.
fn reject_arg(bad: &str) -> ! {
    let accepted: Vec<String> =
        ACCEPTED_FLAGS.iter().map(|(flag, value)| value.map_or(flag.to_string(), |v| format!("{flag} {v}"))).collect();
    eprintln!("unrecognized, incomplete or malformed argument `{bad}`");
    eprintln!("accepted: {}", accepted.join(" "));
    eprintln!("(workload sizes are fixed; --smoke selects the CI-sized ones)");
    std::process::exit(2)
}

/// Refuse the process arguments unless every one is an accepted flag: a
/// `fig*` main calls this first, so `--help` or a typo of `--smoke` prints
/// the accepted flags and exits with status 2 instead of silently running
/// the full-size figure.
pub fn check_args() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Err(bad) = parse_flags(&args) {
        reject_arg(bad);
    }
}

/// Observability switches shared by the simulator-backed `fig*` binaries:
///
/// * `--metrics` prints the engine's counter registry and, when the run was
///   traced, the critical-path attribution of the representative run;
/// * `--trace-out FILE` exports the representative run's trace as Chrome
///   Trace Event JSON (loadable at <https://ui.perfetto.dev>);
/// * `--trace-ranks LO..HI` keeps only that rank window (inclusive) and
///   `--trace-sample N` keeps every Nth rank of it — the sampled sink that
///   keeps traced million-rank runs within the fig17 RSS budget.
///
/// Each binary applies the switches to one *representative* run (its
/// largest or most characteristic configuration); the figure sweeps
/// themselves always run untraced, so golden makespans and fingerprints
/// are unaffected.
#[derive(Debug, Clone)]
pub struct Observability {
    /// Print the engine metrics registry (`--metrics`).
    pub metrics: bool,
    /// Export a Chrome trace to this path (`--trace-out FILE`).
    pub trace_out: Option<String>,
    /// Rank window / sampling stride applied when tracing.
    pub filter: ec_netsim::TraceFilter,
}

impl Observability {
    /// Parse the process arguments.
    pub fn from_args() -> Self {
        let mut metrics = false;
        let mut trace_out = None;
        let mut filter = ec_netsim::TraceFilter::all();
        let args: Vec<String> = std::env::args().skip(1).collect();
        for (flag, value) in parse_flags(&args).unwrap_or_else(|bad| reject_arg(bad)) {
            match flag {
                "--metrics" => metrics = true,
                "--trace-out" => trace_out = Some(value.to_string()),
                "--trace-ranks" => {
                    (filter.first_rank, filter.last_rank) = rank_window(value).expect("checked by parse_flags");
                }
                "--trace-sample" => filter.sample = value.parse::<usize>().expect("checked by parse_flags").max(1),
                _ => {}
            }
        }
        Self { metrics, trace_out, filter }
    }

    /// True when any observability output was requested.
    pub fn active(&self) -> bool {
        self.metrics || self.trace_out.is_some()
    }

    /// True when the representative run must collect a trace.
    pub fn wants_trace(&self) -> bool {
        self.trace_out.is_some()
    }

    /// Narrow the default rank window (used by the huge-scale binaries so a
    /// bare `--trace-out` does not materialize a million-rank trace); an
    /// explicit `--trace-ranks`/`--trace-sample` still wins.
    pub fn with_default_window(mut self, first: usize, last: usize) -> Self {
        if self.filter.is_full() {
            self.filter = ec_netsim::TraceFilter::window(first, last);
        }
        self
    }

    /// Enable tracing on `engine` when the switches require it.
    pub fn instrument(&self, engine: ec_netsim::Engine) -> ec_netsim::Engine {
        if self.wants_trace() {
            engine.with_trace_filter(self.filter)
        } else {
            engine
        }
    }

    /// Print/export everything requested from the representative report.
    pub fn emit(&self, label: &str, report: &ec_netsim::RunReport) {
        if self.metrics {
            println!("\n## engine metrics [{label}]");
            print!("{}", report.metrics.render());
            if let Some(cp) = report.critical_path() {
                print!("{}", cp.render());
            }
        }
        if let Some(path) = &self.trace_out {
            let file = std::fs::File::create(path).unwrap_or_else(|e| panic!("cannot create {path}: {e}"));
            let out = std::io::BufWriter::new(file);
            ec_netsim::write_chrome_trace(out, &report.trace, &report.links)
                .unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
            println!("\n## trace [{label}]: {} events -> {path}", report.trace.len());
        }
    }

    /// Run `program` on `engine` as the binary's representative
    /// observability run.  No-op unless `--metrics` or `--trace-out` was
    /// passed, so figure sweeps stay untraced by default.
    pub fn observe_run(&self, label: &str, engine: ec_netsim::Engine, program: &ec_netsim::Program) {
        if !self.active() {
            return;
        }
        let report = self.instrument(engine).run(program).unwrap_or_else(|e| panic!("observability run {label}: {e}"));
        self.emit(label, &report);
    }
}

/// `full` normally, `small` under [`smoke_flag`] — the default-shrinking
/// helper the figure binaries use.
pub fn smoke_default(smoke: bool, full: usize, small: usize) -> usize {
    if smoke {
        small
    } else {
        full
    }
}

/// Standard node-count sweep used by the "time vs nodes" figures (8, 9, 10, 11).
pub fn node_sweep() -> Vec<usize> {
    vec![2, 4, 8, 16, 32]
}

/// Under `--smoke`, print the materialized-vs-compiled footprint of a
/// representative simulator program of the figure.
///
/// Every `fig*` binary calls this for (at least) its largest program, which
/// makes the arena dedup of the compiled representation visible in every CI
/// smoke log: the `materialized` line grows with `O(p * ops_per_rank)`, the
/// `compiled` line with the number of *distinct* rank streams.
pub fn print_smoke_memory_stats(smoke: bool, label: &str, program: &ec_netsim::Program) {
    if !smoke {
        return;
    }
    println!("# memory[{label}]: materialized {}", program.memory_stats());
    match program.compile() {
        Ok(compiled) => println!("# memory[{label}]: compiled     {}", compiled.memory_stats()),
        Err(e) => println!("# memory[{label}]: compile failed: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_store_and_lookup_points() {
        let mut s = Series::new("gaspi");
        s.push(2.0, 1e-5);
        s.push(4.0, 2e-5);
        assert_eq!(s.y_at(4.0), Some(2e-5));
        assert_eq!(s.y_at(8.0), None);
    }

    #[test]
    fn table_renders_all_series_and_missing_points() {
        let mut a = Series::new("a");
        a.push(1.0, 10.0);
        a.push(2.0, 20.0);
        let mut b = Series::new("b");
        b.push(2.0, 200.0);
        let t = render_table("Fig X", "nodes", "seconds", &[a, b]);
        assert!(t.contains("Fig X"));
        assert!(t.contains('a') && t.contains('b'));
        assert!(t.lines().count() >= 5);
        assert!(t.contains('-'), "missing points are rendered as '-'");
    }

    #[test]
    fn speedup_and_env_helpers() {
        assert_eq!(speedup(2.0, 1.0), 2.0);
        assert!(speedup(1.0, 0.0).is_nan());
        assert_eq!(env_usize("EC_BENCH_NOT_SET_VARIABLE", 7), 7);
        assert_eq!(env_usize_list("EC_BENCH_NOT_SET_VARIABLE", &[128, 1024]), vec![128, 1024]);
    }

    #[test]
    fn parse_override_accepts_numbers_and_refuses_the_rest() {
        assert_eq!(parse_override("8", false), Some(vec![8]));
        assert_eq!(parse_override("0", false), Some(vec![0]));
        assert_eq!(parse_override("65536", true), Some(vec![65536]));
        assert_eq!(parse_override("128, 65536", true), Some(vec![128, 65536]));
        for (value, list) in [
            ("", false),
            ("", true),
            ("64k", true),
            ("128,,x", true),
            ("128,", true),
            ("-1", false),
            ("8.0", false),
            ("128,256", false),
        ] {
            assert_eq!(parse_override(value, list), None, "{value:?} (list: {list})");
        }
    }

    #[test]
    fn parse_flags_pairs_values_and_names_the_offender() {
        let strings = |args: &[&str]| -> Vec<String> { args.iter().map(ToString::to_string).collect() };
        assert_eq!(parse_flags(&[]), Ok(vec![]));
        let args =
            strings(&["--smoke", "--trace-out", "t.json", "--trace-ranks=0..15", "--metrics", "--trace-sample", "2"]);
        assert_eq!(
            parse_flags(&args),
            Ok(vec![
                ("--smoke", ""),
                ("--trace-out", "t.json"),
                ("--trace-ranks", "0..15"),
                ("--metrics", ""),
                ("--trace-sample", "2"),
            ])
        );
        // A file name is not inspected, even when it looks like a flag.
        assert_eq!(parse_flags(&strings(&["--trace-out", "--help"])), Ok(vec![("--trace-out", "--help")]));
        // A sampling stride of 0 means 1.
        assert_eq!(parse_flags(&strings(&["--trace-sample=0"])), Ok(vec![("--trace-sample", "0")]));
        for (args, bad) in [
            (&["--help"][..], "--help"),
            (&["--smoke", "--smok"], "--smok"),
            (&["--smoke", "--shards", "4"], "--shards"),
            (&["--shards=4"], "--shards=4"),
            (&["--smoke=1"], "--smoke=1"),
            (&["t.json"], "t.json"),
            (&["--metrics", "--trace-out"], "--trace-out"),
            (&["--trace-ranks", "0-15"], "0-15"),
            (&["--trace-ranks=0-15"], "--trace-ranks=0-15"),
            (&["--trace-ranks", "15..0"], "15..0"),
            (&["--trace-ranks", "0..x"], "0..x"),
            (&["--trace-sample", "x"], "x"),
            (&["--smoke", "--trace-sample=-1"], "--trace-sample=-1"),
        ] {
            assert_eq!(parse_flags(&strings(args)), Err(bad), "{args:?}");
        }
    }

    #[test]
    fn node_sweep_matches_the_paper_x_axis() {
        assert_eq!(node_sweep(), vec![2, 4, 8, 16, 32]);
    }
}

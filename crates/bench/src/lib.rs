//! # ec-bench — figure-regeneration harness
//!
//! One binary per evaluation figure of the paper (`fig06` … `fig13`).
//! Each binary prints the same series the corresponding figure plots, as an
//! aligned text table, and a short comparison against the numbers the paper
//! reports (speedups, crossover points).
//!
//! The cluster-scale figures (8–13) are produced with the `ec-netsim` cost
//! model; the SSP figures (6–7) run the real threaded runtime with injected
//! latency and stragglers.  Workload sizes can be scaled down (or up to the
//! paper's exact parameters) through environment variables documented in
//! each binary's `--help`-style header comment and in `EXPERIMENTS.md`.

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

/// Read an environment variable as `usize` with a default (used to scale the
/// figure workloads up to paper size or down for quick runs).
pub fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

/// Whether the binary was invoked with `--smoke` (CI-sized workloads).
///
/// Every `fig*` binary honours the flag by shrinking its *default* workload
/// parameters; explicit environment overrides still win, so a smoke run can
/// be scaled back up selectively.
pub fn smoke_flag() -> bool {
    std::env::args().any(|a| a == "--smoke")
}

/// Worker-shard count requested with `--shards N` (or `--shards=N`).
///
/// Defaults to 1 (serial execution).  The figure binaries forward the value
/// to [`ec_netsim::Engine::with_shards`]; the engine clamps it and falls
/// back to serial execution for programs its sharded path cannot run, so
/// any positive value is safe — the output is bit-identical either way.
pub fn shards_flag() -> usize {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == "--shards" {
            return args.next().and_then(|v| v.parse().ok()).unwrap_or(1).max(1);
        }
        if let Some(v) = a.strip_prefix("--shards=") {
            return v.parse().ok().unwrap_or(1).max(1);
        }
    }
    1
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
        let parse_ranks = |v: &str, filter: &mut ec_netsim::TraceFilter| {
            if let Some((lo, hi)) = v.split_once("..") {
                if let (Ok(lo), Ok(hi)) = (lo.trim().parse(), hi.trim().parse()) {
                    filter.first_rank = lo;
                    filter.last_rank = hi;
                }
            }
        };
        let mut args = std::env::args();
        while let Some(a) = args.next() {
            match a.as_str() {
                "--metrics" => metrics = true,
                "--trace-out" => trace_out = args.next(),
                "--trace-ranks" => {
                    if let Some(v) = args.next() {
                        parse_ranks(&v, &mut filter);
                    }
                }
                "--trace-sample" => {
                    filter.sample = args.next().and_then(|v| v.parse().ok()).unwrap_or(1).max(1);
                }
                _ => {
                    if let Some(v) = a.strip_prefix("--trace-out=") {
                        trace_out = Some(v.to_string());
                    } else if let Some(v) = a.strip_prefix("--trace-ranks=") {
                        parse_ranks(v, &mut filter);
                    } else if let Some(v) = a.strip_prefix("--trace-sample=") {
                        filter.sample = v.parse().ok().unwrap_or(1).max(1);
                    }
                }
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

/// Read an environment variable as `f64` with a default.
pub fn env_f64(name: &str, default: f64) -> f64 {
    std::env::var(name).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

/// Read an environment variable as a comma-separated `usize` list with a
/// default (used for worker-count sweeps, e.g. `FIG14_WORKERS=128,65536`).
pub fn env_usize_list(name: &str, default: &[usize]) -> Vec<usize> {
    let parsed: Vec<usize> =
        std::env::var(name).map(|v| v.split(',').filter_map(|t| t.trim().parse().ok()).collect()).unwrap_or_default();
    if parsed.is_empty() {
        default.to_vec()
    } else {
        parsed
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
        assert_eq!(env_f64("EC_BENCH_NOT_SET_VARIABLE", 1.5), 1.5);
        assert_eq!(env_usize_list("EC_BENCH_NOT_SET_VARIABLE", &[128, 1024]), vec![128, 1024]);
    }

    #[test]
    fn shards_flag_defaults_to_serial() {
        // The test binary was not invoked with --shards.
        assert_eq!(shards_flag(), 1);
    }

    #[test]
    fn node_sweep_matches_the_paper_x_axis() {
        assert_eq!(node_sweep(), vec![2, 4, 8, 16, 32]);
    }
}

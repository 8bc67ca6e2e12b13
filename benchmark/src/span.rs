//! Benchmark-side spans around every call into a layer of the repository.
//!
//! The program under test is not instrumented: a span is opened here, around
//! the call into a layer's public function, and closed when it returns.
//! Spans stay in memory and are written out when the run ends.  A layer's
//! self time is its spans' duration minus what their child spans cover.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::Json;

/// The layers a span can belong to: the repository's modules, by their
/// names, plus the harness's own bookkeeping kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    /// The timed pass itself (root of the spans that decompose it).
    Pass,
    /// Algorithm body → `Program` (`*_schedule`, `*Variant::schedule`).
    Record,
    /// `Program::compile`, `CompiledProgram::from_source`.
    Compile,
    /// `validate_compiled`.
    Validate,
    /// `analyze_compiled`.
    Analyze,
    /// `ClusterPreset`/`Topology`/routing/`Engine` construction.
    Topology,
    /// `Engine::run_compiled` on the alpha–beta model.
    Engine,
    /// What the flow-level fabric adds to a run.
    Fabric,
    /// What the per-packet fabric adds to a run.
    Packet,
    /// `RunReport::fingerprint`.
    Report,
    /// Trace recording and Chrome-trace export/validation.
    Trace,
    /// `RunReport::critical_path`.
    Critpath,
    /// The threaded runtime (`ec_gaspi`, `ec_collectives`, `ec_baseline`).
    Threaded,
    /// A second run of the same program that exists only to be subtracted
    /// (alpha–beta under a network model, untraced under a traced one).
    Reference,
    /// A call whose time belongs to no single layer: an `ec_bench` entry
    /// point that cannot be split from outside, or a standalone probe that
    /// is reported under a metric of its own.
    Opaque,
}

impl Layer {
    /// Layers whose self time is reported as `<name>.busy_s` / `<name>.share`.
    pub const REPORTED: [Layer; 11] = [
        Layer::Record,
        Layer::Compile,
        Layer::Validate,
        Layer::Analyze,
        Layer::Topology,
        Layer::Engine,
        Layer::Fabric,
        Layer::Packet,
        Layer::Report,
        Layer::Trace,
        Layer::Critpath,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Layer::Pass => "pass",
            Layer::Record => "record",
            Layer::Compile => "compile",
            Layer::Validate => "validate",
            Layer::Analyze => "analyze",
            Layer::Topology => "topology",
            Layer::Engine => "engine",
            Layer::Fabric => "fabric",
            Layer::Packet => "packet",
            Layer::Report => "report",
            Layer::Trace => "trace",
            Layer::Critpath => "critpath",
            Layer::Threaded => "threaded",
            Layer::Reference => "reference",
            Layer::Opaque => "opaque",
        }
    }
}

/// One recorded span.  Times are seconds since the tracer was created.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub layer: Layer,
    pub start: f64,
    pub end: f64,
    /// Index of the span that was open when this one started.
    pub parent: Option<usize>,
    /// The traced sample this span belongs to (spans of one sample share it).
    pub sample: u32,
    /// Work items the call processed (simulated ops), 0 when not counted.
    pub work: u64,
}

/// How a per-sample value scales with the machine's speed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kind {
    /// Raw seconds (or ms, us): multiplied by the calibration factor.
    Time,
    /// Something per raw second: divided by it.
    Rate,
    /// A ratio of two times or a size: left alone.
    Plain,
    /// A count: left alone, and values recorded under one name within one
    /// sample add up (four runs in a pass schedule four runs' events).
    Count,
}

/// Self time moved from one layer to another inside the pass: the part of a
/// run under a network model (or with tracing on) that a reference run of
/// the same program accounts for.
#[derive(Debug, Clone)]
pub struct Reattribution {
    pub sample: u32,
    pub from: Layer,
    pub to: Layer,
    pub seconds: f64,
    pub work: u64,
}

#[derive(Default)]
struct Inner {
    spans: Vec<Span>,
    stack: Vec<usize>,
    sample: u32,
    sample_first_span: usize,
    moves: Vec<Reattribution>,
    values: Vec<(&'static str, f64, Kind)>,
    /// Per metric name, one calibrated value per sample that produced it.
    series: BTreeMap<String, Vec<f64>>,
}

/// Span recorder.  A disabled tracer records nothing and costs one branch
/// per call, so the same code runs with tracing off.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    inner: RefCell<Inner>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self { enabled, epoch: Instant::now(), inner: RefCell::default() }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    /// Run `f` inside a span and return its result and raw wall seconds.
    pub fn scope<R>(&self, layer: Layer, name: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
        self.scope_counted(layer, name, f, |_| 0)
    }

    /// [`Tracer::scope`] for a call that processes work items (simulated
    /// ops); `work` reads their count off the result.
    pub fn scope_counted<R>(
        &self,
        layer: Layer,
        name: &'static str,
        f: impl FnOnce() -> R,
        work: impl FnOnce(&R) -> u64,
    ) -> (R, f64) {
        if !self.enabled {
            let start = Instant::now();
            let out = f();
            return (out, start.elapsed().as_secs_f64());
        }
        let start = self.now();
        let index = {
            let mut inner = self.inner.borrow_mut();
            let index = inner.spans.len();
            let (parent, sample) = (inner.stack.last().copied(), inner.sample);
            inner.spans.push(Span { name, layer, start, end: start, parent, sample, work: 0 });
            inner.stack.push(index);
            index
        };
        let out = f();
        let end = self.now();
        let mut inner = self.inner.borrow_mut();
        inner.spans[index].end = end;
        inner.spans[index].work = work(&out);
        inner.stack.pop();
        (out, end - start)
    }

    /// Record a value of the current sample under a metric name.
    pub fn value(&self, name: &'static str, value: f64, kind: Kind) {
        if self.enabled {
            self.inner.borrow_mut().values.push((name, value, kind));
        }
    }

    /// Move `seconds` of in-pass self time of the current sample from one
    /// layer to another, with the `work` items they processed (see
    /// [`Reattribution`]).
    pub fn reattribute(&self, from: Layer, to: Layer, seconds: f64, work: u64) {
        if self.enabled {
            let mut inner = self.inner.borrow_mut();
            let sample = inner.sample;
            inner.moves.push(Reattribution { sample, from, to, seconds, work });
        }
    }

    /// Close the current sample: fold its spans into per-layer self times,
    /// scale everything time-valued by `cal_factor`, and append one value per
    /// metric to the run's series.
    pub fn end_sample(&self, cal_factor: f64) {
        if !self.enabled {
            return;
        }
        let mut inner = self.inner.borrow_mut();
        let inner = &mut *inner;
        assert!(inner.stack.is_empty(), "a sample ends with every span closed");
        let sample = inner.sample;
        let spans = &inner.spans[inner.sample_first_span..];
        let moves: Vec<&Reattribution> = inner.moves.iter().filter(|m| m.sample == sample).collect();
        let times = layer_times(spans, inner.sample_first_span, &moves);
        let mut out: Vec<(String, f64)> = Vec::new();
        for layer in Layer::REPORTED {
            let t = times.get(&layer).copied().unwrap_or_default();
            let busy = t.in_pass + t.outside;
            if busy == 0.0 {
                continue;
            }
            out.push((format!("{}.busy_s", layer.name()), busy * cal_factor));
            if t.work > 0 {
                out.push((format!("{}.ops_per_s", layer.name()), t.work as f64 / busy / cal_factor));
                out.push((format!("{}.ns_per_op", layer.name()), busy * cal_factor * 1e9 / t.work as f64));
            }
            if let Some(pass) = times.get(&Layer::Pass) {
                out.push((format!("{}.share", layer.name()), t.in_pass / pass.total));
            }
        }
        let mut counts: BTreeMap<&str, f64> = BTreeMap::new();
        for &(name, value, kind) in &inner.values {
            match kind {
                Kind::Time => out.push((name.to_string(), value * cal_factor)),
                Kind::Rate => out.push((name.to_string(), value / cal_factor)),
                Kind::Plain => out.push((name.to_string(), value)),
                Kind::Count => *counts.entry(name).or_default() += value,
            }
        }
        out.extend(counts.into_iter().map(|(name, total)| (name.to_string(), total)));
        for (name, v) in out {
            inner.series.entry(name).or_default().push(v);
        }
        inner.values.clear();
        inner.sample += 1;
        inner.sample_first_span = inner.spans.len();
    }

    /// The per-metric series gathered so far.
    pub fn series(&self) -> BTreeMap<String, Vec<f64>> {
        self.inner.borrow().series.clone()
    }

    /// Everything recorded, as the JSON document of a span file.
    pub fn to_json(&self, workload: &str) -> Json {
        let inner = self.inner.borrow();
        let spans = inner
            .spans
            .iter()
            .map(|s| {
                Json::object([
                    ("name", Json::from(s.name)),
                    ("layer", Json::from(s.layer.name())),
                    ("start", Json::Num(s.start)),
                    ("end", Json::Num(s.end)),
                    ("parent", s.parent.map_or(Json::Null, |p| Json::Num(p as f64))),
                    ("workload", Json::from(workload)),
                    ("sample", Json::Num(f64::from(s.sample))),
                    ("work", Json::Num(s.work as f64)),
                ])
            })
            .collect();
        let moves = inner
            .moves
            .iter()
            .map(|m| {
                Json::object([
                    ("sample", Json::Num(f64::from(m.sample))),
                    ("from", Json::from(m.from.name())),
                    ("to", Json::from(m.to.name())),
                    ("seconds", Json::Num(m.seconds)),
                    ("work", Json::Num(m.work as f64)),
                ])
            })
            .collect();
        Json::object([
            ("workload", Json::from(workload)),
            ("spans", Json::Arr(spans)),
            ("reattributions", Json::Arr(moves)),
        ])
    }
}

/// Self time of one layer in one sample.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTime {
    /// Self time of its spans below the `pass` span.
    pub in_pass: f64,
    /// Self time of its spans elsewhere in the sample.
    pub outside: f64,
    /// Full duration of its spans (used for the pass itself).
    pub total: f64,
    /// Work items its spans processed.
    pub work: u64,
}

/// Per-layer self times of the spans of one sample.  `first` is the index of
/// `spans[0]` in the tracer's span list (parents are absolute indices).
pub fn layer_times(spans: &[Span], first: usize, moves: &[&Reattribution]) -> BTreeMap<Layer, LayerTime> {
    let mut child_cover = vec![0.0; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_cover[p - first] += s.end - s.start;
        }
    }
    let under_pass = |mut i: usize| loop {
        match spans[i].parent {
            Some(p) if spans[p - first].layer == Layer::Pass => return true,
            Some(p) => i = p - first,
            None => return false,
        }
    };
    let mut out: BTreeMap<Layer, LayerTime> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let duration = s.end - s.start;
        let self_time = duration - child_cover[i];
        let t = out.entry(s.layer).or_default();
        if under_pass(i) {
            t.in_pass += self_time;
        } else {
            t.outside += self_time;
        }
        t.total += duration;
        t.work += s.work;
    }
    for m in moves {
        out.entry(m.from).or_default().in_pass -= m.seconds;
        let to = out.entry(m.to).or_default();
        to.in_pass += m.seconds;
        to.work += m.work;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(layer: Layer, start: f64, end: f64, parent: Option<usize>) -> Span {
        Span { name: "t", layer, start, end, parent, sample: 0, work: 10 }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        // pass [0,10] { compile [1,3], fabric [3,9] { report [4,5] } }, analyze [10,12] outside.
        let spans = vec![
            span(Layer::Pass, 0.0, 10.0, None),
            span(Layer::Compile, 1.0, 3.0, Some(0)),
            span(Layer::Fabric, 3.0, 9.0, Some(0)),
            span(Layer::Report, 4.0, 5.0, Some(2)),
            span(Layer::Analyze, 10.0, 12.0, None),
        ];
        let t = layer_times(&spans, 0, &[]);
        assert_eq!(t[&Layer::Pass].total, 10.0);
        assert_eq!(t[&Layer::Pass].outside, 2.0, "the pass's own self time is what no child covers");
        assert_eq!(t[&Layer::Compile].in_pass, 2.0);
        assert_eq!(t[&Layer::Fabric].in_pass, 5.0);
        assert_eq!(t[&Layer::Report].in_pass, 1.0);
        assert_eq!(t[&Layer::Analyze].in_pass, 0.0);
        assert_eq!(t[&Layer::Analyze].outside, 2.0);
        assert_eq!(t[&Layer::Fabric].work, 10);
    }

    #[test]
    fn reattribution_moves_reference_time_between_layers() {
        let spans = vec![span(Layer::Pass, 0.0, 10.0, None), span(Layer::Fabric, 0.0, 10.0, Some(0))];
        let m = Reattribution { sample: 0, from: Layer::Fabric, to: Layer::Engine, seconds: 4.0, work: 7 };
        let t = layer_times(&spans, 0, &[&m]);
        assert_eq!(t[&Layer::Fabric].in_pass, 6.0);
        assert_eq!(t[&Layer::Engine].in_pass, 4.0);
        assert_eq!(t[&Layer::Engine].work, 7);
    }

    #[test]
    fn tracer_nests_scopes_and_calibrates_series() {
        let t = Tracer::new(true);
        t.scope(Layer::Pass, "pass", || {
            t.scope_counted(
                Layer::Engine,
                "run",
                || std::thread::sleep(std::time::Duration::from_millis(5)),
                |()| 1000,
            );
        });
        t.value("x.count", 3.0, Kind::Count);
        t.value("x.count", 4.0, Kind::Count);
        t.value("x.seconds", 2.0, Kind::Time);
        t.value("x.rate", 2.0, Kind::Rate);
        t.end_sample(0.5);
        let s = t.series();
        assert_eq!(s["x.count"], vec![7.0]);
        assert_eq!(s["x.seconds"], vec![1.0]);
        assert_eq!(s["x.rate"], vec![4.0]);
        assert!(s["engine.busy_s"][0] >= 0.0025, "5 ms at factor 0.5");
        assert!(s["engine.share"][0] > 0.9 && s["engine.share"][0] <= 1.0);
        assert!(s["engine.ops_per_s"][0] > 0.0);
        // The second sample starts clean and parents are still resolved.
        t.scope(Layer::Pass, "pass", || t.scope(Layer::Compile, "c", || ()));
        t.end_sample(1.0);
        assert_eq!(t.series()["compile.share"].len(), 1);
        let doc = t.to_json("w").to_string();
        assert!(doc.contains("\"layer\":\"engine\"") && doc.contains("\"parent\":0"));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        let (v, secs) = t.scope(Layer::Engine, "run", || 3);
        t.value("x", 1.0, Kind::Plain);
        t.end_sample(1.0);
        assert_eq!(v, 3);
        assert!(secs >= 0.0);
        assert!(t.series().is_empty());
    }
}

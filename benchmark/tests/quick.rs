//! Drives the built benchmark end to end in `--quick` mode (tiny sizes, one
//! sample per run, a few seconds in all) so the harness cannot rot: every
//! workload runs untraced and traced, every declared metric is printed, the
//! output checks pass, and `--expect` tells equal simulated statistics from
//! changed ones.
//!
//! One test function: the steps share `out/results.json`.

use std::process::{Command, Output};

use ec_benchmark::json::Json;
use ec_benchmark::{metrics, out_dir, workloads};

fn bench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_ec_benchmark")).args(args).output().expect("the benchmark binary starts")
}

fn last_line(out: &Output) -> Json {
    let text = String::from_utf8_lossy(&out.stdout);
    Json::parse(text.lines().last().expect("a result line")).expect("the last line is JSON")
}

#[test]
fn quick_mode_end_to_end() {
    // The driver's call, untraced: exactly four keys, every end-to-end metric, none zero.
    let out = bench(&["--workload", "alltoall_flow", "--seed", "3", "--seconds", "1", "--trace", "0", "--quick"]);
    assert!(out.status.success());
    let result = last_line(&out);
    let keys: Vec<&str> = result.entries().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(result.get("correct").and_then(Json::as_bool), Some(true));
    assert!(result.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0);
    let reported = result.get("metrics").unwrap().entries();
    assert_eq!(reported.len(), metrics::END_TO_END.len());
    for m in &metrics::END_TO_END {
        let (_, v) = reported.iter().find(|(k, _)| k == m.name).unwrap_or_else(|| panic!("{} is reported", m.name));
        assert!(v.get("value").and_then(Json::as_f64).unwrap() > 0.0, "{} is never 0", m.name);
        assert_eq!(v.get("unit").and_then(Json::as_str), Some(m.unit));
    }

    // Traced: every per-layer metric by name, the dominant layer visible, spans on disk.
    let out = bench(&["--workload", "alltoall_flow", "--seed", "3", "--seconds", "1", "--trace", "1", "--quick"]);
    assert!(out.status.success());
    let result = last_line(&out);
    assert_eq!(result.get("correct").and_then(Json::as_bool), Some(true));
    let reported = result.get("metrics").unwrap();
    let names: Vec<&str> = reported.entries().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(names, metrics::PER_LAYER.iter().map(|m| m.name).collect::<Vec<_>>());
    let value = |name: &str| reported.get(name).and_then(|m| m.get("value")).and_then(Json::as_f64).unwrap();
    assert!(value("fabric.inrun_s") > 0.0 && value("fabric.solves") > 0.0 && value("packet.events") == 0.0);
    let spans = std::fs::read_to_string(out_dir().join("spans-alltoall_flow.json")).expect("the span file");
    let spans = Json::parse(&spans).expect("the span file is JSON");
    let Some(Json::Arr(list)) = spans.get("spans") else { panic!("spans is a list") };
    assert!(list.iter().any(|s| s.get("layer").and_then(Json::as_str) == Some("fabric")));

    // The same seed gives the same simulated statistics; another seed other ones.
    let fingerprint = |seed: &str| {
        let out = bench(&["--workload", "ssp_strict", "--seed", seed, "--seconds", "1", "--trace", "0", "--quick"]);
        let text = String::from_utf8_lossy(&out.stdout).into_owned();
        let info = text.lines().find_map(|l| l.strip_prefix("info: ")).expect("an info line").to_string();
        Json::parse(&info).unwrap().get("sim_fingerprint").and_then(Json::as_str).unwrap().to_string()
    };
    assert_eq!(fingerprint("5"), fingerprint("5"));
    assert_ne!(fingerprint("5"), fingerprint("6"));

    // The whole set in one command.
    let out = bench(&["--quick", "--seconds", "1"]);
    let table = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(out.status.success(), "quick suite failed:\n{table}");
    for name in workloads::NAMES {
        assert!(table.contains(name));
    }
    for m in metrics::END_TO_END.iter().chain(&metrics::PER_LAYER) {
        assert!(table.contains(m.name), "{} is printed by name", m.name);
    }
    let path = out_dir().join("results.json");
    let results = Json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
    for key in ["commit", "rustc", "nproc", "seed", "CAL_REF_S", "machine_speed"] {
        assert!(results.get("header").and_then(|h| h.get(key)).is_some(), "header has {key}");
    }
    for name in workloads::NAMES {
        let w = results.get("workloads").and_then(|w| w.get(name)).unwrap_or_else(|| panic!("{name} in results"));
        assert_eq!(w.get("failed").and_then(Json::as_f64), Some(0.0), "{name} fails no check");
    }

    // --expect: equal statistics pass, a changed fingerprint or another seed fails.
    let kept = out_dir().join("results-kept.json");
    std::fs::copy(&path, &kept).unwrap();
    let kept_arg = kept.to_str().unwrap();
    assert!(bench(&["--quick", "--seconds", "1", "--expect", kept_arg]).status.success());
    assert!(!bench(&["--quick", "--seconds", "1", "--seed", "43", "--expect", kept_arg]).status.success());
    let text = std::fs::read_to_string(&kept).unwrap();
    let old = results.get("workloads").and_then(|w| w.get("ring_dataflow")).and_then(|w| w.get("sim_fingerprint"));
    std::fs::write(&kept, text.replacen(old.and_then(Json::as_str).unwrap(), "0000000000000000", 1)).unwrap();
    let out = bench(&["--quick", "--seconds", "1", "--expect", kept_arg]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("DIFFERS"));
    std::fs::remove_file(&kept).unwrap();

    // --repeat 2 prints the A/A table (whether millisecond-sized passes agree
    // within the bounds is not a property of quick mode, so only the table is checked).
    let out = bench(&["--quick", "--seconds", "1", "--repeat", "2"]);
    assert!(String::from_utf8_lossy(&out.stdout).contains("A/A self-check"));

    // Bad arguments are refused without a result line.
    let out = bench(&["--workload", "nope", "--trace", "0"]);
    assert!(!out.status.success() && out.stdout.is_empty());
}

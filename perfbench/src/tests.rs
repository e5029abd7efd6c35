//! The benchmark's own tests:
//! `cargo test --offline --manifest-path perfbench/Cargo.toml`
//! (the test profile is optimized: each test runs its workload briefly).

use super::*;
use metrics::Metric;
use sdl_conf::{from_json, ValueExt};

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let src = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    from_json(&src).expect("BENCHMARK.json parses")
}

fn entries<'a>(doc: &'a Value, key: &str) -> &'a [Value] {
    doc.get(key).and_then(Value::as_seq).unwrap_or_else(|| panic!("BENCHMARK.json lacks '{key}'"))
}

fn same_metrics(listed: &[Value], catalogue: &[Metric]) {
    let listed: Vec<(&str, &str, &str)> = listed
        .iter()
        .map(|m| {
            (m.opt_str("name").unwrap(), m.opt_str("unit").unwrap(), m.opt_str("better").unwrap())
        })
        .collect();
    let expected: Vec<(&str, &str, &str)> =
        catalogue.iter().map(|m| (m.name, m.unit, m.better)).collect();
    assert_eq!(listed, expected);
}

#[test]
fn catalogue_matches_benchmark_json() {
    let doc = benchmark_json();
    let listed: Vec<&str> =
        entries(&doc, "workloads").iter().map(|w| w.opt_str("name").unwrap()).collect();
    let workloads: Vec<&str> = Workload::BENCHMARKED.iter().map(|w| w.name()).collect();
    assert_eq!(listed, workloads);
    same_metrics(entries(&doc, "end_to_end"), END_TO_END);
    same_metrics(entries(&doc, "per_layer"), PER_LAYER);
    let bounds: Vec<(&str, f64)> = entries(&doc, "end_to_end")
        .iter()
        .map(|m| (m.opt_str("name").unwrap(), m.opt_f64("bound").unwrap()))
        .collect();
    let setup =
        bounds.iter().find(|(n, _)| *n == "setup_s").expect("setup_s is an end-to-end metric").1;
    for (name, bound) in &bounds {
        assert!(*bound > 0.0 && *bound <= 0.25, "{name}: bound {bound}");
        assert!(*bound <= setup, "{name}: setup_s must carry the largest bound");
    }
}

/// Run `workload` and return the metric names and units of its result line.
fn printed(workload: Workload, seed: u64, trace: bool) -> Vec<(String, String)> {
    let run = Run {
        workload,
        seed,
        seconds: 1.0,
        trace,
        dir: PathBuf::from(".bench_tmp").join(format!("test-{}-{}", workload.name(), trace as u8)),
    };
    let report = execute(&run).unwrap_or_else(|e| panic!("{workload:?}: {e}"));
    let (line, problems) = result_line(&report, trace);
    assert!(problems.is_empty(), "{workload:?}: {problems:?}");
    let doc = from_json(&line).expect("result line is JSON");
    let keys: Vec<&str> = doc.as_map().unwrap().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(doc.opt_bool("correct"), Some(true));
    assert!(doc.opt_i64("attempted").unwrap() >= 1);
    assert_eq!(doc.opt_i64("failed"), Some(0), "{workload:?}: no operation may fail");
    doc.get("metrics")
        .and_then(Value::as_map)
        .unwrap()
        .iter()
        .map(|(name, m)| {
            assert!(m.opt_f64("value").is_some(), "{workload:?}: {name} has no value");
            (name.clone(), m.opt_str("unit").unwrap().to_string())
        })
        .collect()
}

fn expected(catalogue: &[Metric]) -> Vec<(String, String)> {
    let mut v: Vec<(String, String)> =
        catalogue.iter().map(|m| (m.name.into(), m.unit.into())).collect();
    v.sort();
    v
}

/// Every metric `BENCHMARK.json` names is printed with its unit, in both
/// modes, and another seed changes the inputs but not the names.
fn check_workload(workload: Workload) {
    assert_ne!(
        workload.inputs(1),
        workload.inputs(2),
        "{workload:?}: the seed must change the inputs"
    );
    assert_eq!(
        workload.inputs(3),
        workload.inputs(3),
        "{workload:?}: the seed must fix the inputs"
    );
    let doc = benchmark_json();
    let units = |key: &str| -> Vec<(String, String)> {
        let mut v: Vec<(String, String)> = entries(&doc, key)
            .iter()
            .map(|m| (m.opt_str("name").unwrap().into(), m.opt_str("unit").unwrap().into()))
            .collect();
        v.sort();
        v
    };
    let mut e2e = printed(workload, 1, false);
    e2e.sort();
    assert_eq!(e2e, units("end_to_end"));
    assert_eq!(e2e, expected(END_TO_END));
    let mut other_seed = printed(workload, 2, false);
    other_seed.sort();
    assert_eq!(other_seed, e2e, "{workload:?}: metric names must not depend on the seed");
    let mut layers = printed(workload, 1, true);
    layers.sort();
    assert_eq!(layers, units("per_layer"));
}

#[test]
fn sim_bayes_prints_every_metric() {
    check_workload(Workload::SimBayes);
}

#[test]
fn remote_random_prints_every_metric() {
    check_workload(Workload::RemoteRandom);
}

#[test]
fn pool_matrix_prints_every_metric() {
    check_workload(Workload::PoolMatrix);
}

#[test]
fn portal_reads_prints_every_metric() {
    check_workload(Workload::PortalReads);
}

#[test]
fn arguments_are_strict() {
    let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
    let ok = parse_args(&args("--workload pool_matrix --seed 3 --seconds 10 --trace 1")).unwrap();
    assert_eq!((ok.seed, ok.seconds, ok.trace), (3, 10.0, true));
    for bad in [
        "--workload nope --seed 3 --seconds 10 --trace 0",
        "--workload sim_bayes --seed x --seconds 10 --trace 0",
        "--workload sim_bayes --seed 3 --seconds 0 --trace 0",
        "--workload sim_bayes --seed 3 --seconds 10 --trace 2",
        "--workload sim_bayes --seed 3 --seconds 10",
        "--workload sim_bayes --seed 3 --seconds 10 --trace 0 --sedd 4",
    ] {
        assert!(parse_args(&args(bad)).is_err(), "accepted: {bad}");
    }
}

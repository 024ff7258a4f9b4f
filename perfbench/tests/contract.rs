//! The benchmark's own checks: its output check, its serve set-up, and its
//! printed metrics against `BENCHMARK.json`.  They run real passes, so run
//! them optimized: `cargo test --release --manifest-path perfbench/Cargo.toml`.

use lsiq_serve::json::JsonValue;
use perfbench::workloads::{transcript_outcome, Bench, PassOutcome, Workload};
use perfbench::{digest, run, Args, END_TO_END, PER_LAYER};
use std::collections::BTreeSet;

#[test]
fn output_check_rejects_a_perturbed_digest() {
    for workload in Workload::ALL {
        let expected = digest::stored(workload, 1981).expect("seed 1981 has a stored digest");
        assert_eq!(PassOutcome::of_digest(expected).failures(expected), 0);
        for bit in [0, 17, 63] {
            let perturbed = PassOutcome::of_digest(expected ^ (1 << bit));
            assert_eq!(perturbed.failures(expected), 1, "{workload:?} bit {bit}");
        }
    }
}

#[test]
fn transcript_check_strips_counters_and_fails_bad_responses() {
    let ok = r#"{"status":"ok","op":"forward","reject_rate":0.1,"counters":{"elapsed_us":3}}"#;
    let slower = r#"{"status":"ok","op":"forward","reject_rate":0.1,"counters":{"elapsed_us":9}}"#;
    let summary = r#"{"status":"summary","queries":1,"wall_ms":4}"#;
    let first = transcript_outcome([ok, summary]);
    assert_eq!(first.digest, transcript_outcome([slower]).digest);
    assert_eq!((first.queries, first.failed_queries), (1, 0));

    let error = r#"{"status":"error","op":"lot","line":2,"error":"bad","counters":{}}"#;
    let failing = transcript_outcome([ok, error]);
    assert_eq!((failing.queries, failing.failed_queries), (2, 1));
    // The pass fails, and so does the query.
    assert_eq!(failing.failures(failing.digest), 2);

    let warm = PassOutcome {
        fault_sim_passes: 1,
        ..first
    };
    assert_eq!(
        warm.failures(first.digest),
        1,
        "a warm pass may not fault simulate"
    );
    let cold = PassOutcome { cold: true, ..warm };
    assert_eq!(cold.failures(first.digest), 0);
}

#[test]
fn serve_grid_setup_starts_from_an_empty_artifact_directory() {
    let mut bench = Bench::new(Workload::ServeGrid, 1981);
    let expected = digest::stored(Workload::ServeGrid, 1981).expect("stored");
    // The second set-up finds the first one's warm artifacts and must
    // still build every artifact cold.
    for _ in 0..2 {
        let outcomes = bench.setup();
        let [cold, warm] = outcomes[..] else {
            panic!("a serve set-up runs a cold and a warm pass: {outcomes:?}")
        };
        assert!(cold.cold);
        assert_eq!(
            cold.fault_sim_passes, 3,
            "line suite and two signature dictionaries"
        );
        assert_eq!(warm.fault_sim_passes, 0);
        assert_eq!((cold.failures(expected), warm.failures(expected)), (0, 0));
    }
}

fn declared(section: &str) -> BTreeSet<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let json = JsonValue::parse(&text).expect("BENCHMARK.json is JSON");
    json.get(section)
        .and_then(JsonValue::as_array)
        .expect("a metric list")
        .iter()
        .map(|metric| {
            let field = |key| {
                metric
                    .get(key)
                    .and_then(JsonValue::as_str)
                    .expect(key)
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn printed(args: Args) -> BTreeSet<(String, String)> {
    let line = run(args).result_line();
    let json = JsonValue::parse(&line).expect("the result line is JSON");
    assert_eq!(
        json.get("correct").and_then(JsonValue::as_bool),
        Some(true),
        "{line}"
    );
    assert_eq!(
        json.get("failed").and_then(JsonValue::as_usize),
        Some(0),
        "{line}"
    );
    let Some(JsonValue::Object(metrics)) = json.get("metrics") else {
        panic!("no metrics object: {line}")
    };
    metrics
        .iter()
        .map(|(name, metric)| {
            let value = metric
                .get("value")
                .and_then(JsonValue::as_f64)
                .expect("a value");
            assert!(value.is_finite(), "{name} = {value}");
            let unit = metric
                .get("unit")
                .and_then(JsonValue::as_str)
                .expect("a unit");
            (name.clone(), unit.to_string())
        })
        .collect()
}

fn owned(metrics: &[(&str, &str)]) -> BTreeSet<(String, String)> {
    metrics
        .iter()
        .map(|(name, unit)| (name.to_string(), unit.to_string()))
        .collect()
}

#[test]
fn every_printed_metric_is_declared_and_every_declared_metric_is_printed() {
    let end_to_end = declared("end_to_end");
    let per_layer = declared("per_layer");
    assert_eq!(end_to_end, owned(&END_TO_END));
    assert_eq!(per_layer, owned(&PER_LAYER));
    for workload in Workload::ALL {
        let args = Args {
            workload,
            seed: 1981,
            seconds: 0,
            trace: false,
        };
        assert_eq!(printed(args), end_to_end, "{workload:?}");
    }
    // One traced run reaches every layer: the layers table1-line does not
    // call are measured on the other two workloads.
    let traced = Args {
        workload: Workload::Table1Line,
        seed: 1981,
        seconds: 0,
        trace: true,
    };
    assert_eq!(printed(traced), per_layer);
}

//! End-to-end transcripts through the `lsiq-serve` binary: the golden
//! Table 1 reproduction, graceful (exit 2, no panic) failure on malformed
//! input and bad configuration, and cold/warm byte-identity over a
//! persistent artifact directory.

use lsi_quality::Session;
use lsiq_exec::RunConfig;
use lsiq_serve::json::JsonValue;
use std::path::PathBuf;
use std::process::{Command, Output, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};

const BINARY: &str = env!("CARGO_BIN_EXE_lsiq-serve");

fn scratch_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "lsiq-transcript-{tag}-{}-{}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// Runs the binary over `input`, isolated from ambient `LSIQ_*` knobs.
fn serve(input: &str, envs: &[(&str, &str)]) -> Output {
    let mut command = Command::new(BINARY);
    for (key, _) in std::env::vars() {
        if key.starts_with("LSIQ_") {
            command.env_remove(&key);
        }
    }
    for (key, value) in envs {
        command.env(key, value);
    }
    command
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped());
    let mut child = command.spawn().expect("binary spawns");
    use std::io::Write as _;
    // A config-rejecting binary may exit before reading stdin; the broken
    // pipe is then part of the expected behaviour, not a test failure.
    let _ = child
        .stdin
        .take()
        .expect("piped stdin")
        .write_all(input.as_bytes());
    child.wait_with_output().expect("binary exits")
}

/// Strips the trailing `"counters"` object (the only per-query field with
/// a nondeterministic member, `elapsed_us`).
fn strip_counters(line: &str) -> String {
    match line.find(",\"counters\":") {
        Some(at) => format!("{}}}", &line[..at]),
        None => line.to_string(),
    }
}

#[test]
fn golden_table1_transcript_matches_the_session_at_1e_neg9() {
    let output = serve("{\"op\":\"line\",\"id\":\"table1\"}\n", &[]);
    assert!(output.status.success(), "{output:?}");
    let stdout = String::from_utf8(output.stdout).unwrap();
    let response = JsonValue::parse(stdout.lines().next().expect("one response")).unwrap();
    assert_eq!(
        response.get("status").and_then(JsonValue::as_str),
        Some("ok"),
        "{stdout}"
    );

    let reference = Session::new(RunConfig::default().with_engine_auto())
        .reproduce_table1()
        .expect("reference run");
    let close = |name: &str, expected: f64| {
        let got = response
            .get(name)
            .and_then(JsonValue::as_f64)
            .unwrap_or_else(|| panic!("missing {name}"));
        assert!(
            (got - expected).abs() <= 1e-9,
            "{name}: {got} vs {expected}"
        );
    };
    close("observed_yield", reference.observed_yield);
    close("observed_n0", reference.observed_n0);
    close("final_coverage", reference.coverage.final_coverage());
    assert_eq!(
        response.get("universe_size").and_then(JsonValue::as_usize),
        Some(reference.universe_size)
    );
    let rows = response
        .get("rows")
        .and_then(JsonValue::as_array)
        .expect("rows");
    let expected_rows = reference.experiment.rows();
    assert_eq!(rows.len(), expected_rows.len());
    for (row, expected) in rows.iter().zip(expected_rows) {
        assert_eq!(
            row.get("patterns").and_then(JsonValue::as_usize),
            Some(expected.patterns_applied)
        );
        assert_eq!(
            row.get("chips_failed").and_then(JsonValue::as_usize),
            Some(expected.chips_failed)
        );
        let coverage = row.get("coverage").and_then(JsonValue::as_f64).unwrap();
        assert!((coverage - expected.fault_coverage).abs() <= 1e-9);
        let fraction = row
            .get("fraction_failed")
            .and_then(JsonValue::as_f64)
            .unwrap();
        assert!((fraction - expected.fraction_failed).abs() <= 1e-9);
    }
}

#[test]
fn malformed_json_exits_2_with_a_line_numbered_record_and_no_panic() {
    let input = concat!(
        r#"{"op":"forward","yield":0.07,"n0":8,"coverage":0.95}"#,
        "\n",
        "{\"op\": \"forward\", \"yield\": 0.07,,}\n",
        r#"{"op":"forward","yield":0.07,"n0":8,"coverage":0.5}"#,
        "\n",
    );
    let output = serve(input, &[]);
    assert_eq!(output.status.code(), Some(2), "{output:?}");
    let stdout = String::from_utf8(output.stdout).unwrap();
    let stderr = String::from_utf8(output.stderr).unwrap();
    assert!(!stdout.contains("panicked") && !stderr.contains("panicked"));
    // The first (valid) query was answered before the stream died.
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 2, "response + error record:\n{stdout}");
    let error = JsonValue::parse(lines[1]).unwrap();
    assert_eq!(
        error.get("status").and_then(JsonValue::as_str),
        Some("error")
    );
    assert_eq!(error.get("line").and_then(JsonValue::as_usize), Some(2));
    assert!(stderr.contains("line 2"), "{stderr}");
}

#[test]
fn bad_artifact_dir_exits_2_gracefully() {
    // A path under a regular file can never become a directory.
    let dir = scratch_dir("bad-dir");
    let file = dir.join("occupied");
    std::fs::write(&file, b"not a directory").unwrap();
    let nested = file.join("cache");
    let output = serve(
        "{\"op\":\"forward\",\"yield\":0.07,\"n0\":8,\"coverage\":0.9}\n",
        &[("LSIQ_ARTIFACT_DIR", nested.to_str().unwrap())],
    );
    assert_eq!(output.status.code(), Some(2), "{output:?}");
    let stderr = String::from_utf8(output.stderr).unwrap();
    assert!(stderr.contains("LSIQ_ARTIFACT_DIR"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");

    let output = serve(
        "{\"op\":\"forward\",\"yield\":0.07,\"n0\":8,\"coverage\":0.9}\n",
        &[("LSIQ_ARTIFACT_DIR", "  ")],
    );
    assert_eq!(output.status.code(), Some(2), "{output:?}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bist_test_mode_and_scan_chains_exit_2_naming_the_variable() {
    // The service tests stored patterns on its combinational devices, so
    // it refuses the two knobs it would otherwise ignore; `stored` is the
    // default and stays accepted.
    let query = "{\"op\":\"forward\",\"yield\":0.07,\"n0\":8,\"coverage\":0.9}\n";
    for (variable, value) in [("LSIQ_TEST_MODE", "bist"), ("LSIQ_SCAN_CHAINS", "4")] {
        let output = serve(query, &[(variable, value)]);
        assert_eq!(output.status.code(), Some(2), "{variable}: {output:?}");
        assert!(output.stdout.is_empty(), "{variable}: {output:?}");
        let stderr = String::from_utf8(output.stderr).unwrap();
        assert!(stderr.contains(variable), "{stderr}");
        assert!(!stderr.contains("panicked"), "{stderr}");
    }
    let output = serve(query, &[("LSIQ_TEST_MODE", "stored")]);
    assert_eq!(output.status.code(), Some(0), "{output:?}");
}

#[test]
fn cold_and_warm_binary_runs_are_byte_identical_after_stripping_timing() {
    let dir = scratch_dir("cold-warm");
    let input = concat!(
        r#"{"op":"forward","id":0,"yield":0.07,"n0":8,"coverage":0.95}"#,
        "\n",
        r#"{"op":"line","id":1,"circuit":"c17","chips":300,"seed":5,"checkpoints":[4,8]}"#,
        "\n",
        r#"{"op":"bist","id":2,"circuit":"c17","test_length":32,"signature_width":8,"session_len":8,"channels":2}"#,
        "\n",
    );
    let envs = [("LSIQ_ARTIFACT_DIR", dir.to_str().unwrap())];
    let run = |label: &str| {
        let output = serve(input, &envs);
        assert!(output.status.success(), "{label}: {output:?}");
        String::from_utf8(output.stdout).unwrap()
    };
    let cold = run("cold");
    let warm = run("warm");

    let stripped = |text: &str| {
        text.lines()
            .filter(|line| !line.contains("\"status\":\"summary\""))
            .map(strip_counters)
            .collect::<Vec<_>>()
    };
    assert_eq!(stripped(&cold), stripped(&warm));

    // The warm process proves it never fault simulated.
    let summary = warm
        .lines()
        .last()
        .map(|line| JsonValue::parse(line).unwrap())
        .expect("summary record");
    assert_eq!(
        summary
            .get("fault_sim_passes")
            .and_then(JsonValue::as_usize),
        Some(0),
        "{warm}"
    );
    assert!(
        summary
            .get("artifact_hits")
            .and_then(JsonValue::as_usize)
            .unwrap()
            >= 2,
        "{warm}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

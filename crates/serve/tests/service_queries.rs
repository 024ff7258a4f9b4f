//! Service-level integration: query answers match the underlying library
//! calls byte-for-byte, a warm artifact directory answers a repeated grid
//! with zero fault-simulation passes, and semantic errors never abort a
//! stream.

use lsi_quality::{BistSweepSpec, Session};
use lsiq_core::coverage_requirement::required_fault_coverage;
use lsiq_core::params::{FaultCoverage, ModelParams, RejectRate, Yield};
use lsiq_core::reject::field_reject_rate;
use lsiq_exec::RunConfig;
use lsiq_serve::artifact::ArtifactStore;
use lsiq_serve::json::JsonValue;
use lsiq_serve::service::QueryService;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

fn scratch_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "lsiq-service-{tag}-{}-{}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn in_memory_service() -> QueryService {
    QueryService::new(
        Session::new(RunConfig::default().with_engine_auto()),
        ArtifactStore::disabled(),
    )
}

fn handle(service: &QueryService, request: &str) -> JsonValue {
    let parsed = JsonValue::parse(request).expect("well-formed request");
    let response = service.handle(&parsed, None);
    assert_eq!(
        response.get("status").and_then(JsonValue::as_str),
        Some("ok"),
        "{}",
        response.to_line()
    );
    response
}

fn field(response: &JsonValue, name: &str) -> f64 {
    response
        .get(name)
        .and_then(JsonValue::as_f64)
        .unwrap_or_else(|| panic!("missing {name} in {}", response.to_line()))
}

#[test]
fn forward_and_inverse_match_the_core_model_exactly() {
    let service = in_memory_service();
    for (y, n0, coverage) in [(0.07, 8.0, 0.95), (0.25, 3.0, 0.5), (0.9, 1.0, 0.999)] {
        let response = handle(
            &service,
            &format!(r#"{{"op":"forward","yield":{y},"n0":{n0},"coverage":{coverage}}}"#),
        );
        let params = ModelParams::new(Yield::new(y).unwrap(), n0).unwrap();
        let expected = field_reject_rate(&params, FaultCoverage::new(coverage).unwrap());
        assert_eq!(
            field(&response, "reject_rate").to_bits(),
            expected.value().to_bits()
        );

        let target = expected.value().max(1e-9);
        let response = handle(
            &service,
            &format!(r#"{{"op":"inverse","yield":{y},"n0":{n0},"target_reject":{target}}}"#),
        );
        let expected = required_fault_coverage(&params, RejectRate::new(target).unwrap()).unwrap();
        assert_eq!(
            field(&response, "required_coverage").to_bits(),
            expected.value().to_bits()
        );
    }
}

#[test]
fn inverse_meets_a_reject_target_below_the_solver_tolerance() {
    // Here |r(f) − target| is below 1e-12 already at the first bisection
    // step, f = 0.5, so an absolute tolerance of 1e-12 would answer 0.5;
    // about 0.0069 is the smallest sufficient coverage.
    let service = in_memory_service();
    let response = handle(
        &service,
        r#"{"op":"inverse","yield":0.999999999,"n0":999,"target_reject":1e-12}"#,
    );
    let required = field(&response, "required_coverage");
    assert!((0.0069..0.0070).contains(&required), "{required}");
    let params = ModelParams::new(Yield::new(0.999_999_999).unwrap(), 999.0).unwrap();
    let achieved = field_reject_rate(&params, FaultCoverage::new(required).unwrap());
    assert!(
        achieved.value() <= 1e-12 * (1.0 + 1e-6),
        "{}",
        achieved.value()
    );
}

#[test]
fn bist_cell_matches_the_session_sweep_byte_for_byte() {
    let service = in_memory_service();
    let response = handle(
        &service,
        r#"{"op":"bist","circuit":"alu4","yield":0.07,"n0":8,"test_length":128,"signature_width":16,"session_len":32,"channels":4}"#,
    );
    let session = Session::new(RunConfig::default().with_engine_auto());
    let sweep = session
        .run_bist_sweep_on(
            &lsiq_netlist::library::alu4(),
            &BistSweepSpec {
                test_lengths: vec![128],
                signature_widths: vec![16],
                session_len: 32,
                channels: 4,
                yield_fraction: 0.07,
                n0: 8.0,
                full_size: false,
            },
        )
        .expect("valid sweep");
    let row = sweep.rows[0];
    assert_eq!(
        response.get("sessions").and_then(JsonValue::as_usize),
        Some(row.sessions)
    );
    assert_eq!(
        response.get("aliased").and_then(JsonValue::as_usize),
        Some(row.aliased)
    );
    for (name, expected) in [
        ("raw_coverage", row.raw_coverage),
        ("effective_coverage", row.effective_coverage),
        ("aliasing_fraction", row.aliasing_fraction),
        (
            "estimated_aliasing_fraction",
            row.estimated_aliasing_fraction,
        ),
        ("defect_level_raw", row.defect_level_raw),
        ("defect_level_effective", row.defect_level_effective),
    ] {
        assert_eq!(
            field(&response, name).to_bits(),
            expected.to_bits(),
            "{name}"
        );
    }
}

#[test]
fn warm_artifact_directory_serves_a_second_process_without_fault_simulation() {
    let dir = scratch_dir("warm");
    let grid = [
        r#"{"op":"line","circuit":"c17","chips":500,"seed":11}"#,
        r#"{"op":"bist","circuit":"c17","test_length":64,"signature_width":8,"session_len":16,"channels":2}"#,
        r#"{"op":"lot","circuit":"c17","chips":20000,"seed":11}"#,
    ];

    let run = || {
        // A fresh service per run models a fresh process: no in-memory
        // memo survives, only the artifact directory.
        let service = QueryService::new(
            Session::new(RunConfig::default().with_engine_auto()),
            ArtifactStore::at(&dir).expect("writable dir"),
        );
        let responses: Vec<String> = grid
            .iter()
            .map(|request| {
                let mut response = handle(&service, request).to_line();
                let counters = response.find(",\"counters\":").expect("counters present");
                response.truncate(counters);
                response
            })
            .collect();
        (
            responses,
            service.fault_sim_passes(),
            service.artifacts().hits(),
        )
    };

    let (cold, cold_passes, _) = run();
    assert!(cold_passes >= 2, "cold run must fault simulate");
    let (warm, warm_passes, warm_hits) = run();
    assert_eq!(warm_passes, 0, "warm run must not fault simulate");
    assert!(warm_hits >= 2, "warm run must report artifact hits");
    assert_eq!(cold, warm, "numeric output must be byte-identical");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_sigdict_artifact_that_disagrees_with_the_request_is_rebuilt() {
    use lsiq_bist::signature::SignatureDictionary;
    use lsiq_serve::artifact::{
        decode_signature_dictionary, encode_signature_dictionary, stable_fingerprint,
    };
    use lsiq_serve::codec::ByteWriter;

    let dir = scratch_dir("crafted");
    let request = r#"{"op":"bist","circuit":"c17","test_length":64,"signature_width":8,"session_len":16,"channels":2}"#;
    // A fresh service per query: only the artifact directory carries over.
    let answer = || {
        let service = QueryService::new(
            Session::new(RunConfig::default().with_engine_auto()),
            ArtifactStore::at(&dir).expect("writable dir"),
        );
        let mut response = handle(&service, request).to_line();
        let counters = response.find(",\"counters\":").expect("counters present");
        response.truncate(counters);
        (response, service.fault_sim_passes())
    };
    let (cold, cold_passes) = answer();
    assert_eq!(cold_passes, 1);

    // The one dictionary the cold query stored, read back through a store.
    let name = std::fs::read_dir(&dir)
        .expect("artifact dir")
        .filter_map(|entry| entry.ok()?.file_name().into_string().ok())
        .find(|name| name.starts_with("sigdict-"))
        .expect("the cold query stored its dictionary");
    let key = u64::from_str_radix(&name["sigdict-".len()..name.len() - ".lsiqart".len()], 16)
        .expect("hex key");
    let fingerprint = stable_fingerprint(&lsiq_netlist::library::c17());
    let store = ArtifactStore::at(&dir).expect("writable dir");
    let payload = store.load("sigdict", key, fingerprint).expect("stored");
    let built = decode_signature_dictionary(&payload).expect("decodes");
    assert_eq!((built.sessions(), built.len()), (4, 46));
    let good = built.good_signatures().to_vec();
    let first_fail: Vec<_> = built.first_failing_sessions().collect();
    let raw = built.raw_detected_flags().to_vec();
    let parts = |session_len, width, sessions: usize, faults: usize| {
        let first_fail = first_fail[..faults]
            .iter()
            .map(|fail| fail.filter(|&session| session < sessions))
            .collect();
        encode_signature_dictionary(&SignatureDictionary::from_parts(
            session_len,
            width,
            good[..sessions].to_vec(),
            first_fail,
            raw[..faults].to_vec(),
        ))
    };
    // Every fault failing session 0 without a raw detection, which
    // `from_parts` refuses, written field by field: the decoder refuses it
    // too (the service used to report ~1.8e19 aliased faults).
    let mut writer = ByteWriter::new();
    writer.put_u64(16);
    writer.put_u32(8);
    writer.put_u64(4);
    for &signature in &good {
        writer.put_u64(signature);
    }
    writer.put_u64(46);
    (0..46).for_each(|_| writer.put_opt_index(Some(0)));
    (0..46).for_each(|_| writer.put_bool(false));
    let unraw = writer.into_bytes();
    assert!(decode_signature_dictionary(&unraw).is_err());
    for (what, crafted) in [
        ("failures without raw detections", unraw),
        ("a 45-fault universe", parts(16, 8, 4, 45)),
        ("three sessions", parts(16, 8, 3, 46)),
        ("17-pattern sessions", parts(17, 8, 4, 46)),
        ("a 16-bit signature", parts(16, 16, 4, 46)),
    ] {
        store.store("sigdict", key, fingerprint, &crafted);
        let (warm, passes) = answer();
        assert_eq!(passes, 1, "{what} must be rebuilt");
        assert_eq!(warm, cold, "{what}");
    }
    // The rebuild overwrote the crafted artifact: the next query is warm.
    assert_eq!(answer(), (cold, 0));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn semantic_errors_do_not_abort_the_stream() {
    let service = in_memory_service();
    let input = concat!(
        r#"{"op":"forward","id":1,"yield":0.07,"n0":8,"coverage":0.95}"#,
        "\n\n",
        r#"{"op":"warp","id":2}"#,
        "\n",
        r#"{"op":"forward","id":3,"yield":2.0,"n0":8,"coverage":0.95}"#,
        "\n",
        r#"{"op":"bist","id":4,"circuit":"nand9000","test_length":8,"signature_width":8}"#,
        "\n",
        r#"{"op":"forward","id":5,"yield":0.07,"n0":8,"coverage":0.5}"#,
        "\n",
    );
    let mut output = Vec::new();
    service
        .run_lines(input.as_bytes(), &mut output)
        .expect("semantic errors are per-query");
    let text = String::from_utf8(output).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 6, "5 responses + summary:\n{text}");
    for (index, expected_status) in ["ok", "error", "error", "error", "ok"].iter().enumerate() {
        let record = JsonValue::parse(lines[index]).expect("well-formed response");
        assert_eq!(
            record.get("status").and_then(JsonValue::as_str),
            Some(*expected_status),
            "line {index}: {}",
            lines[index]
        );
    }
    // Error responses carry the 1-based input line number (blank line counted).
    let error = JsonValue::parse(lines[1]).unwrap();
    assert_eq!(error.get("line").and_then(JsonValue::as_usize), Some(3));
    let summary = JsonValue::parse(lines[5]).unwrap();
    assert_eq!(
        summary.get("status").and_then(JsonValue::as_str),
        Some("summary")
    );
    assert_eq!(
        summary.get("queries").and_then(JsonValue::as_usize),
        Some(5)
    );
    assert_eq!(summary.get("errors").and_then(JsonValue::as_usize), Some(3));
}

#[test]
fn requests_over_the_limits_get_error_records_and_the_stream_continues() {
    let service = in_memory_service();
    let input = concat!(
        r#"{"op":"bist","id":1,"yield":0.1,"n0":8,"test_length":1000000000000,"signature_width":16}"#,
        "\n",
        r#"{"op":"lot","id":2,"circuit":"c17","chips":100000000000000}"#,
        "\n",
        r#"{"op":"lot","id":3,"circuit":"c17","chips":1,"yield":0,"n0":1e15}"#,
        "\n",
        r#"{"op":"lot","id":4,"circuit":"c17","chips":1000,"n0":1e9}"#,
        "\n",
        r#"{"op":"forward","id":5,"yield":0.07,"n0":8,"coverage":0.95}"#,
        "\n",
        // Closed-form queries keep accepting any finite n0.
        r#"{"op":"forward","id":6,"yield":0.07,"n0":1e300,"coverage":0.95}"#,
        "\n",
    );
    let mut output = Vec::new();
    service
        .run_lines(input.as_bytes(), &mut output)
        .expect("limit violations are per-query errors");
    let text = String::from_utf8(output).unwrap();
    let records: Vec<JsonValue> = text
        .lines()
        .map(|line| JsonValue::parse(line).expect("well-formed response"))
        .collect();
    assert_eq!(records.len(), 7, "6 responses + summary:\n{text}");
    let statuses: Vec<&str> = records
        .iter()
        .map(|record| record.get("status").and_then(JsonValue::as_str).unwrap())
        .collect();
    assert_eq!(
        statuses,
        ["error", "error", "error", "error", "ok", "ok", "summary"],
        "{text}"
    );
    for (record, field) in records[..4]
        .iter()
        .zip(["test_length", "chips", "n0", "n0"])
    {
        let error = record.get("error").and_then(JsonValue::as_str).unwrap();
        assert!(
            error.contains(&format!("{field:?} must be at most")),
            "{error}"
        );
    }
    assert_eq!(records[4].get("id").and_then(JsonValue::as_usize), Some(5));
    assert_eq!(records[5].get("id").and_then(JsonValue::as_usize), Some(6));
    assert_eq!(
        records[6].get("errors").and_then(JsonValue::as_usize),
        Some(4)
    );
}

//! Artifact-layer integration: payload codecs round-trip exactly, and the
//! on-disk container rejects every corruption the format guards against —
//! truncation, flipped bits, splices, a wrapping length field, a version
//! bump, a stale circuit fingerprint — by reporting a miss so the caller
//! rebuilds.

use lsi_quality::stats::rng::{Rng, SplitMix64};
use lsi_quality::Session;
use lsiq_bist::signature::SignatureDictionary;
use lsiq_exec::RunConfig;
use lsiq_fault::universe::FaultUniverse;
use lsiq_netlist::library;
use lsiq_serve::artifact::{stable_fingerprint, ArtifactStore, SuiteArtifact};
use lsiq_serve::json::JsonValue;
use lsiq_serve::service::QueryService;
use lsiq_tpg::suite::TestSuiteBuilder;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

/// A unique scratch directory per test (no tempfile crate in-tree).
fn scratch_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "lsiq-artifact-{tag}-{}-{}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn c17_suite_artifact() -> (SuiteArtifact, u64) {
    let circuit = library::c17();
    let universe = FaultUniverse::full(&circuit);
    let builder = TestSuiteBuilder {
        seed: 1981,
        chunk: 8,
        max_random_patterns: 32,
        target_coverage: 1.0,
        podem_top_up: false,
        ..TestSuiteBuilder::default()
    };
    let suite = builder.build(&circuit, &universe);
    let artifact = SuiteArtifact::from_parts(
        suite.deterministic_patterns,
        &suite.dictionary,
        &suite.coverage_curve,
    );
    (artifact, stable_fingerprint(&circuit))
}

#[test]
fn suite_artifact_round_trips_byte_exactly() {
    let (artifact, _) = c17_suite_artifact();
    let decoded = SuiteArtifact::decode(&artifact.encode()).expect("decodes");
    assert_eq!(decoded, artifact);
    // The reconstructed working objects match the originals field-for-field.
    assert!(decoded
        .dictionary()
        .first_patterns()
        .eq(artifact.first_patterns.iter().copied()));
    assert_eq!(
        decoded.coverage().cumulative(),
        artifact.cumulative.as_slice()
    );
}

/// A one-pattern, one-fault suite whose fault first fails at `first`.
fn one_pattern_suite(first: Option<usize>) -> SuiteArtifact {
    SuiteArtifact {
        deterministic_patterns: 0,
        first_patterns: vec![first],
        cumulative: vec![1.0],
        universe_size: 1,
    }
}

fn decode_error(artifact: &SuiteArtifact) -> String {
    SuiteArtifact::decode(&artifact.encode())
        .expect_err("inconsistent counts must not decode")
        .to_string()
}

#[test]
fn a_first_failing_pattern_beyond_the_suite_is_refused() {
    let valid = one_pattern_suite(Some(0));
    assert_eq!(SuiteArtifact::decode(&valid.encode()), Ok(valid));
    for first in [1, 5_000_000_000] {
        let error = decode_error(&one_pattern_suite(Some(first)));
        assert!(
            error.contains(&format!("pattern {first} of a 1-pattern suite")),
            "{error}"
        );
    }
}

#[test]
fn a_dictionary_of_another_universe_is_refused() {
    for universe_size in [0, 2] {
        let artifact = SuiteArtifact {
            universe_size,
            ..one_pattern_suite(None)
        };
        let error = decode_error(&artifact);
        assert!(
            error.contains(&format!(
                "1 dictionary records for a {universe_size}-fault universe"
            )),
            "{error}"
        );
    }
}

#[test]
fn a_pattern_count_the_payload_cannot_hold_is_refused_before_allocating() {
    use lsiq_serve::codec::ByteWriter;
    // 32 bytes: no deterministic patterns, a huge pattern (coverage-point)
    // count, then an empty dictionary and a zero universe.  One point more
    // than the 16 bytes left can hold is refused too.
    for pattern_count in [3u64, 10_000_000, 1 << 40, 1 << 61, u64::MAX] {
        let mut writer = ByteWriter::new();
        for value in [0, pattern_count, 0, 0] {
            writer.put_u64(value);
        }
        let payload = writer.into_bytes();
        assert_eq!(payload.len(), 32);
        let error = SuiteArtifact::decode(&payload)
            .expect_err("points the payload cannot hold")
            .to_string();
        assert!(error.contains("exceed the 16 bytes left"), "{error}");
    }
}

#[test]
fn signature_dictionary_payload_round_trips() {
    use lsiq_serve::artifact::{decode_signature_dictionary, encode_signature_dictionary};

    let dictionary = SignatureDictionary::from_parts(
        16,
        8,
        vec![0xDEAD, 0xBEEF, 0x1981],
        vec![None, Some(0), Some(2), None, Some(1)],
        vec![false, true, true, true, true],
    );
    let decoded =
        decode_signature_dictionary(&encode_signature_dictionary(&dictionary)).expect("decodes");
    assert_eq!(decoded.session_len(), 16);
    assert_eq!(decoded.signature_width(), 8);
    assert_eq!(decoded.good_signatures(), dictionary.good_signatures());
    assert!(decoded
        .first_failing_sessions()
        .eq(dictionary.first_failing_sessions()));
    assert_eq!(
        decoded.raw_detected_flags(),
        dictionary.raw_detected_flags()
    );

    // Truncated and trailing-byte payloads are rejected, never mis-read.
    let bytes = encode_signature_dictionary(&dictionary);
    assert!(decode_signature_dictionary(&bytes[..bytes.len() - 1]).is_err());
    let mut extended = bytes.clone();
    extended.push(0);
    assert!(decode_signature_dictionary(&extended).is_err());
}

/// A 16-pattern-session, two-session signature dictionary payload written
/// field by field, so it can hold records `SignatureDictionary::from_parts`
/// refuses.
fn sigdict_payload(width: u32, first_fail: &[Option<usize>], raw_detected: &[bool]) -> Vec<u8> {
    use lsiq_serve::codec::ByteWriter;
    let mut writer = ByteWriter::new();
    writer.put_u64(16);
    writer.put_u32(width);
    writer.put_u64(2);
    writer.put_u64(0xA5);
    writer.put_u64(0x5A);
    writer.put_u64(first_fail.len() as u64);
    for &fail in first_fail {
        writer.put_opt_index(fail);
    }
    for &raw in raw_detected {
        writer.put_bool(raw);
    }
    writer.into_bytes()
}

fn sigdict_error(payload: &[u8]) -> String {
    lsiq_serve::artifact::decode_signature_dictionary(payload)
        .expect_err("inconsistent records must not decode")
        .to_string()
}

#[test]
fn a_signature_dictionary_of_an_unsupported_width_is_refused() {
    let valid = sigdict_payload(8, &[Some(1), None], &[true, false]);
    assert!(lsiq_serve::artifact::decode_signature_dictionary(&valid).is_ok());
    for width in [0, 10, 65, u32::MAX] {
        let error = sigdict_error(&sigdict_payload(width, &[Some(1), None], &[true, false]));
        assert!(error.contains("signature width"), "{error}");
        assert!(error.contains(&width.to_string()), "{error}");
    }
}

#[test]
fn a_first_failing_session_beyond_the_sessions_is_refused() {
    for session in [2, 5_000_000_000] {
        let error = sigdict_error(&sigdict_payload(8, &[None, Some(session)], &[true, true]));
        assert!(
            error.contains(&format!("fault 1 first fails at session {session} of 2")),
            "{error}"
        );
    }
}

#[test]
fn a_signature_failure_without_a_raw_detection_is_refused() {
    // Every fault failing session 0 yet none raw-detected: decoded, this
    // would count more signature detections than raw ones.
    let error = sigdict_error(&sigdict_payload(8, &[Some(0); 3], &[false; 3]));
    assert!(
        error.contains("fault 0 fails session 0 but is not raw-detected"),
        "{error}"
    );
    let error = sigdict_error(&sigdict_payload(8, &[None, Some(1)], &[true, false]));
    assert!(
        error.contains("fault 1 fails session 1 but is not raw-detected"),
        "{error}"
    );
}

#[test]
fn store_round_trips_and_counts_hits() {
    let dir = scratch_dir("roundtrip");
    let store = ArtifactStore::at(&dir).expect("writable dir");
    let (artifact, fingerprint) = c17_suite_artifact();
    let payload = artifact.encode();

    assert_eq!(store.load("suite", 7, fingerprint), None, "cold: nothing");
    store.store("suite", 7, fingerprint, &payload);
    assert_eq!(store.load("suite", 7, fingerprint), Some(payload.clone()));
    assert_eq!(store.hits(), 1);
    assert_eq!(store.misses(), 1);

    // A second store process over the same directory sees the artifact.
    let second = ArtifactStore::at(&dir).expect("same dir");
    assert_eq!(second.load("suite", 7, fingerprint), Some(payload));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn corrupt_truncated_stale_and_version_mismatched_files_are_misses() {
    let dir = scratch_dir("corrupt");
    let store = ArtifactStore::at(&dir).expect("writable dir");
    let (artifact, fingerprint) = c17_suite_artifact();
    let payload = artifact.encode();
    store.store("suite", 1, fingerprint, &payload);
    let path = dir.join("suite-0000000000000001.lsiqart");
    let pristine = std::fs::read(&path).expect("stored file");

    // Flipped payload bit: checksum mismatch.
    let mut flipped = pristine.clone();
    let middle = flipped.len() / 2;
    flipped[middle] ^= 0x40;
    std::fs::write(&path, &flipped).unwrap();
    assert_eq!(store.load("suite", 1, fingerprint), None, "corrupt");

    // Truncated file.
    std::fs::write(&path, &pristine[..pristine.len() - 3]).unwrap();
    assert_eq!(store.load("suite", 1, fingerprint), None, "truncated");

    // Version bump (byte 8..12 is the little-endian format version).
    let mut bumped = pristine.clone();
    bumped[8] = bumped[8].wrapping_add(1);
    std::fs::write(&path, &bumped).unwrap();
    assert_eq!(store.load("suite", 1, fingerprint), None, "version");

    // The 20-byte header, then a payload length of 2^64 − 8 and nothing
    // else: `length + 8` wraps onto the 0 bytes left.
    let mut wrapped = pristine[..20].to_vec();
    wrapped.extend_from_slice(&(u64::MAX - 7).to_le_bytes());
    assert_eq!(wrapped.len(), 28);
    std::fs::write(&path, &wrapped).unwrap();
    assert_eq!(store.load("suite", 1, fingerprint), None, "wrapping length");

    // Stale fingerprint: the circuit generator changed, same key.
    std::fs::write(&path, &pristine).unwrap();
    let other = stable_fingerprint(&library::alu4());
    assert_ne!(other, fingerprint);
    assert_eq!(store.load("suite", 1, other), None, "stale fingerprint");

    // The pristine file still loads — the misses above were file checks,
    // not state corruption in the store.
    assert_eq!(store.load("suite", 1, fingerprint), Some(payload));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn disabled_store_misses_everything_and_swallows_stores() {
    let store = ArtifactStore::disabled();
    assert!(!store.is_persistent());
    store.store("suite", 3, 9, b"payload");
    assert_eq!(store.load("suite", 3, 9), None);
    assert_eq!(store.hits(), 0);
    assert_eq!(store.misses(), 1);
}

/// Byte offset of a container's payload-length field: it follows the
/// 8-byte magic, the 4-byte format version and the 8-byte fingerprint.
const LENGTH_FIELD: usize = 20;
/// Container bytes around the payload: the header, the length field and
/// the trailing 8-byte checksum.
const FRAME: usize = LENGTH_FIELD + 16;

/// One seeded corruption of a stored container: a flipped bit, a
/// truncation, a splice of one stretch of the file over another, or an
/// overwritten length field — on the whole file or on one cut short, and
/// sometimes set so that `length + 8` wraps onto the bytes left.
fn corrupt(pristine: &[u8], rng: &mut SplitMix64) -> Vec<u8> {
    let mut bytes = pristine.to_vec();
    let len = bytes.len();
    match rng.next_index(4) {
        0 => bytes[rng.next_index(len)] ^= 1 << rng.next_index(8),
        1 => bytes.truncate(rng.next_index(len)),
        2 => {
            let from = rng.next_index(len);
            let piece = pristine[from..from + 1 + rng.next_index(len - from)].to_vec();
            let start = rng.next_index(len);
            let end = start + rng.next_index(len - start + 1);
            bytes.splice(start..end, piece);
        }
        _ => {
            if rng.next_bool(0.5) {
                bytes.truncate(LENGTH_FIELD + 8 + rng.next_index(16));
            }
            let left = (bytes.len() - LENGTH_FIELD - 8) as u64;
            let payload = (len - FRAME) as u64;
            let length = match rng.next_index(4) {
                0 => left.wrapping_sub(8),
                1 => u64::MAX - rng.next_bounded(16),
                2 => rng.next_u64(),
                _ => payload ^ (1 << rng.next_index(64)),
            };
            bytes[LENGTH_FIELD..LENGTH_FIELD + 8].copy_from_slice(&length.to_le_bytes());
        }
    }
    bytes
}

/// The answer of a fresh service over `dir` — a new process, in effect, so
/// no in-memory memo hides the file — without its `counters`, and whether
/// the query read a stored artifact.
fn replay(dir: &Path, query: &str) -> (JsonValue, bool) {
    let service = QueryService::new(
        Session::new(RunConfig::default().with_workers(1)),
        ArtifactStore::at(dir).expect("writable dir"),
    );
    let response = service.handle(&JsonValue::parse(query).expect("well-formed"), None);
    let JsonValue::Object(fields) = response else {
        panic!("a response is an object")
    };
    let (counters, answer): (Vec<_>, Vec<_>) =
        fields.into_iter().partition(|(name, _)| name == "counters");
    let hits = counters[0]
        .1
        .get("artifact_hits")
        .and_then(JsonValue::as_usize)
        .expect("hit count");
    (JsonValue::Object(answer), hits > 0)
}

/// Seeded bit flips, truncations, splices and overwritten length fields of
/// a c17 `suite` and a c17 `sigdict` container.  After each corruption the
/// query is replayed: it must give the cold answer (a miss, rebuilt) or,
/// on a hit, the same answer — and nothing may panic.
#[test]
fn seeded_container_corruptions_are_misses_or_the_same_answer() {
    let dir = scratch_dir("mutate");
    let queries = [
        ("suite", r#"{"op":"line","circuit":"c17","chips":10}"#),
        (
            "sigdict",
            r#"{"op":"bist","circuit":"c17","test_length":64,"signature_width":8,"session_len":16,"channels":2}"#,
        ),
    ];
    let mut rng = SplitMix64::seed_from_u64(0xC0_2217);
    for (kind, query) in queries {
        let (cold, cold_hit) = replay(&dir, query);
        assert!(!cold_hit, "{kind}: an empty directory cannot hit");
        assert_eq!(
            cold.get("status").and_then(JsonValue::as_str),
            Some("ok"),
            "{}",
            cold.to_line()
        );
        let path = std::fs::read_dir(&dir)
            .expect("readable dir")
            .map(|entry| entry.expect("entry").path())
            .find(|path| {
                path.file_name()
                    .and_then(|name| name.to_str())
                    .is_some_and(|name| name.starts_with(&format!("{kind}-")))
            })
            .expect("the cold query stored its artifact");
        let pristine = std::fs::read(&path).expect("stored file");
        let mut misses = 0;
        for case in 0..300 {
            let corrupted = corrupt(&pristine, &mut rng);
            std::fs::write(&path, &corrupted).expect("writable file");
            let (answer, hit) = replay(&dir, query);
            assert_eq!(answer, cold, "{kind} case {case}: {corrupted:?}");
            assert!(
                !hit || corrupted == pristine,
                "{kind} case {case}: a changed file was read"
            );
            misses += usize::from(!hit);
        }
        assert!(misses > 250, "{kind}: only {misses} of 300 were misses");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A suite container of format version 1 (written while the suite payload
/// still carried pattern rows) is a miss: the next query rebuilds the
/// suite and rewrites the file at the current version, byte-identical to a
/// cold build, and the process after that reads it.
#[test]
fn a_version_1_suite_container_is_rebuilt_once() {
    let dir = scratch_dir("version1");
    let query = r#"{"op":"line","circuit":"c17","chips":10}"#;
    let (cold, _) = replay(&dir, query);
    let path = std::fs::read_dir(&dir)
        .expect("readable dir")
        .map(|entry| entry.expect("entry").path())
        .find(|path| path.to_string_lossy().contains("suite-"))
        .expect("the cold query stored its suite");
    let pristine = std::fs::read(&path).expect("stored file");
    let mut version_1 = pristine.clone();
    // Bytes 8..12 are the little-endian format version.
    version_1[8..12].copy_from_slice(&1u32.to_le_bytes());
    std::fs::write(&path, &version_1).expect("writable file");

    let (answer, hit) = replay(&dir, query);
    assert_eq!(answer, cold);
    assert!(!hit, "a version-1 file must not be read");
    assert_eq!(std::fs::read(&path).expect("rewritten file"), pristine);
    let (answer, hit) = replay(&dir, query);
    assert_eq!(answer, cold);
    assert!(hit, "the rebuilt file is read");
    std::fs::remove_dir_all(&dir).ok();
}

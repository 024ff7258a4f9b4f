//! Artifact-layer integration: payload codecs round-trip exactly, and the
//! on-disk container rejects every corruption the format guards against —
//! truncation, flipped bits, a version bump, a stale circuit fingerprint —
//! by reporting a miss so the caller rebuilds.

use lsiq_bist::signature::SignatureDictionary;
use lsiq_fault::universe::FaultUniverse;
use lsiq_netlist::library;
use lsiq_serve::artifact::{stable_fingerprint, ArtifactStore, SuiteArtifact};
use lsiq_tpg::suite::TestSuiteBuilder;
use std::path::PathBuf;
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
        &suite.patterns,
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
    assert_eq!(decoded.pattern_set().len(), artifact.patterns.len());
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
        pattern_width: 5,
        patterns: vec![vec![0b1_0110]],
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
fn a_coverage_curve_of_another_length_is_refused() {
    for points in [vec![], vec![0.5, 1.0]] {
        let artifact = SuiteArtifact {
            cumulative: points,
            ..one_pattern_suite(Some(0))
        };
        let error = decode_error(&artifact);
        assert!(error.contains("coverage points for 1 patterns"), "{error}");
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
    // 48 bytes: zero-width patterns, a huge pattern count, then empty
    // dictionary and coverage sections and a zero universe.
    for pattern_count in [10_000_000u64, 1 << 40, u64::MAX] {
        let mut writer = ByteWriter::new();
        for value in [0, pattern_count, 0, 0, 0, 0] {
            writer.put_u64(value);
        }
        let payload = writer.into_bytes();
        assert_eq!(payload.len(), 48);
        let error = SuiteArtifact::decode(&payload)
            .expect_err("rows the payload cannot hold")
            .to_string();
        assert!(error.contains("exceed the 32 bytes left"), "{error}");
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
    assert_eq!(
        decoded.first_failing_sessions(),
        dictionary.first_failing_sessions()
    );
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

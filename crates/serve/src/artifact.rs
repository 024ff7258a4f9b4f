//! Keyed, checksummed on-disk artifact persistence.
//!
//! The expensive part of a planning query is never the model arithmetic —
//! it is the fault simulation behind the test suite or the per-fault
//! signature dictionary.  Those objects are pure functions of the circuit
//! and the test plan, so the service memoizes them under content-derived
//! keys and persists each one to a versioned file in the directory named by
//! the `LSIQ_ARTIFACT_DIR` environment variable.  A second process (or a
//! second run of the same process) then answers the same query grid with
//! **zero fault-simulation passes**, which the service proves by counters
//! in every response.
//!
//! # File format
//!
//! ```text
//! "LSIQART1"  — 8-byte magic (bumps with any layout change)
//! u32         — FORMAT_VERSION, little-endian
//! u64         — stable circuit fingerprint the artifact was built from
//! u64         — payload length in bytes
//! [u8]        — payload (module-specific codec)
//! u64         — FNV-1a 64 checksum of the payload
//! ```
//!
//! Every load re-validates all five fields; any mismatch — truncation, a
//! flipped bit, a version bump, a stale fingerprint after the circuit
//! generator changed — counts as a miss and the artifact is rebuilt and
//! rewritten.  Writes go through a temporary file and an atomic rename so
//! a crashed process can never leave a half-written artifact behind.
//!
//! # Fingerprints
//!
//! [`stable_fingerprint`] hashes the circuit structure (gate kinds by
//! their canonical `.bench` names, fanin lists, primary input/output
//! order) with FNV-1a.  `std`'s `DefaultHasher` is deliberately avoided:
//! its output may change between Rust releases, which would silently
//! invalidate every artifact on a toolchain upgrade — or worse, fail to
//! invalidate when it should.

use crate::codec::{fnv1a, ByteReader, ByteWriter, CodecError, Fnv1a};
use lsiq_bist::misr::Misr;
use lsiq_bist::signature::SignatureDictionary;
use lsiq_exec::ConfigError;
use lsiq_fault::coverage::CoverageCurve;
use lsiq_fault::dictionary::FaultDictionary;
use lsiq_netlist::circuit::Circuit;
use lsiq_obs::Counter;
use lsiq_sim::pattern::{Pattern, PatternSet};
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Registry mirrors of the per-store hit/miss counters: process-wide
/// totals across every [`ArtifactStore`] in the process.
static HITS: Counter = Counter::new("serve.artifact.hits");
static MISSES: Counter = Counter::new("serve.artifact.misses");

/// The environment variable naming the artifact cache directory.
pub const ARTIFACT_DIR_VAR: &str = "LSIQ_ARTIFACT_DIR";

/// 8-byte file magic; the trailing digit is the major layout generation.
pub const MAGIC: &[u8; 8] = b"LSIQART1";

/// Bumped whenever any payload codec changes shape.
pub const FORMAT_VERSION: u32 = 1;

/// A version-stable structural fingerprint of a circuit.
///
/// Two circuits share a fingerprint exactly when they have the same gates
/// (kind and fanin list) in the same order and the same primary
/// input/output declarations — the properties every simulation result
/// depends on.
pub fn stable_fingerprint(circuit: &Circuit) -> u64 {
    let mut hash = Fnv1a::new();
    hash.update_u64(circuit.gates().len() as u64);
    for gate in circuit.gates() {
        hash.update(gate.kind().name().as_bytes());
        hash.update_u64(gate.fanin().len() as u64);
        for id in gate.fanin() {
            hash.update_u64(id.index() as u64);
        }
    }
    hash.update_u64(circuit.primary_inputs().len() as u64);
    for id in circuit.primary_inputs() {
        hash.update_u64(id.index() as u64);
    }
    hash.update_u64(circuit.primary_outputs().len() as u64);
    for id in circuit.primary_outputs() {
        hash.update_u64(id.index() as u64);
    }
    hash.finish()
}

/// A keyed artifact store over an optional cache directory.
///
/// With no directory configured the store still exists (so counters and
/// call sites are uniform) but every load is a miss and stores are
/// dropped; in-process reuse is then the service's memo layer alone.
#[derive(Debug)]
pub struct ArtifactStore {
    dir: Option<PathBuf>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl ArtifactStore {
    /// A store with persistence disabled.
    pub fn disabled() -> ArtifactStore {
        ArtifactStore {
            dir: None,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// A store rooted at `dir`, creating the directory if needed.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] named after `LSIQ_ARTIFACT_DIR` when the
    /// directory cannot be created or is not writable.
    pub fn at(dir: &Path) -> Result<ArtifactStore, ConfigError> {
        let invalid = |_| {
            ConfigError::invalid_value(
                ARTIFACT_DIR_VAR,
                dir.display().to_string(),
                "a creatable, writable directory path",
            )
        };
        fs::create_dir_all(dir).map_err(invalid)?;
        // Probe writability now so a bad directory surfaces as one typed
        // error up front, not as a silent cache-off mid-run.
        let probe = dir.join(".lsiq-probe");
        fs::write(&probe, b"probe").map_err(invalid)?;
        let _ = fs::remove_file(&probe);
        Ok(ArtifactStore {
            dir: Some(dir.to_path_buf()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        })
    }

    /// Builds the store from the `LSIQ_ARTIFACT_DIR` environment variable:
    /// persistence at that directory when set and usable, disabled when
    /// unset.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] when the variable is set to an empty or
    /// unusable path.
    pub fn from_env() -> Result<ArtifactStore, ConfigError> {
        match std::env::var_os(ARTIFACT_DIR_VAR) {
            None => Ok(ArtifactStore::disabled()),
            Some(value) => {
                let text = value.to_string_lossy().into_owned();
                if text.trim().is_empty() {
                    return Err(ConfigError::invalid_value(
                        ARTIFACT_DIR_VAR,
                        text,
                        "a non-empty directory path",
                    ));
                }
                ArtifactStore::at(Path::new(&text))
            }
        }
    }

    /// Whether a cache directory is configured.
    pub fn is_persistent(&self) -> bool {
        self.dir.is_some()
    }

    /// The configured cache directory, if any.
    pub fn dir(&self) -> Option<&Path> {
        self.dir.as_deref()
    }

    /// Artifact loads that were served from a valid cache entry (plus
    /// in-process memo hits recorded by [`record_hit`](Self::record_hit)).
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Artifact loads that found nothing (or found a corrupt, truncated,
    /// version-mismatched or stale entry).
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Records an in-process memo hit, so "reused a compiled artifact"
    /// means the same thing whether the copy came from memory or disk.
    pub fn record_hit(&self) {
        self.hits.fetch_add(1, Ordering::Relaxed);
        HITS.incr();
    }

    fn record_miss(&self) {
        self.misses.fetch_add(1, Ordering::Relaxed);
        MISSES.incr();
    }

    fn path_for(&self, kind: &str, key: u64) -> Option<PathBuf> {
        self.dir
            .as_ref()
            .map(|dir| dir.join(format!("{kind}-{key:016x}.lsiqart")))
    }

    /// Loads the payload stored under `(kind, key)`, validating magic,
    /// version, fingerprint and checksum.  Any validation failure counts
    /// as a miss (the caller rebuilds and overwrites).
    pub fn load(&self, kind: &str, key: u64, fingerprint: u64) -> Option<Vec<u8>> {
        let Some(path) = self.path_for(kind, key) else {
            self.record_miss();
            return None;
        };
        match fs::read(&path)
            .ok()
            .and_then(|bytes| validate_container(&bytes, fingerprint))
        {
            Some(payload) => {
                self.record_hit();
                Some(payload)
            }
            None => {
                self.record_miss();
                None
            }
        }
    }

    /// Stores `payload` under `(kind, key)` via a temporary file and an
    /// atomic rename.  I/O errors are swallowed: a failed store only costs
    /// a future rebuild, never a wrong answer.
    pub fn store(&self, kind: &str, key: u64, fingerprint: u64, payload: &[u8]) {
        let Some(path) = self.path_for(kind, key) else {
            return;
        };
        let mut bytes = Vec::with_capacity(MAGIC.len() + 28 + payload.len());
        bytes.extend_from_slice(MAGIC);
        bytes.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        bytes.extend_from_slice(&fingerprint.to_le_bytes());
        bytes.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        bytes.extend_from_slice(payload);
        bytes.extend_from_slice(&fnv1a(payload).to_le_bytes());
        let temp = path.with_extension(format!("tmp.{}", std::process::id()));
        let written = fs::File::create(&temp)
            .and_then(|mut file| file.write_all(&bytes))
            .and_then(|()| fs::rename(&temp, &path));
        if written.is_err() {
            let _ = fs::remove_file(&temp);
        }
    }
}

/// Validates a full artifact container and returns its payload.
fn validate_container(bytes: &[u8], fingerprint: u64) -> Option<Vec<u8>> {
    let mut reader = ByteReader::new(bytes);
    let mut magic = [0u8; 8];
    for slot in &mut magic {
        *slot = reader.get_u8().ok()?;
    }
    if &magic != MAGIC {
        return None;
    }
    if reader.get_u32().ok()? != FORMAT_VERSION {
        return None;
    }
    if reader.get_u64().ok()? != fingerprint {
        return None;
    }
    let payload_len = reader.get_len().ok()?;
    // Checked: a length field near 2^64 must not wrap into a match.
    if payload_len.checked_add(8) != Some(reader.remaining()) {
        return None;
    }
    let payload = &bytes[bytes.len() - 8 - payload_len..bytes.len() - 8];
    let mut tail = ByteReader::new(&bytes[bytes.len() - 8..]);
    if tail.get_u64().ok()? != fnv1a(payload) {
        return None;
    }
    Some(payload.to_vec())
}

/// A persisted line test suite: the ordered patterns and the two derived
/// tables the production line consults (the first-failing-pattern
/// dictionary and the cumulative coverage curve).
///
/// Loading one answers a line query without touching a fault simulator.
#[derive(Debug, Clone, PartialEq)]
pub struct SuiteArtifact {
    /// Width (primary-input count) of every pattern.
    pub pattern_width: usize,
    /// The ordered patterns, bit-packed rows of `pattern_width` bits.
    pub patterns: Vec<Vec<u8>>,
    /// Patterns contributed by the deterministic top-up phase.
    pub deterministic_patterns: usize,
    /// Per-fault first-failing-pattern records.
    pub first_patterns: Vec<Option<usize>>,
    /// Cumulative coverage after each pattern.
    pub cumulative: Vec<f64>,
    /// Size of the fault universe.
    pub universe_size: usize,
}

fn pack_bits(bits: &[bool]) -> Vec<u8> {
    let mut packed = vec![0u8; bits.len().div_ceil(8)];
    for (index, &bit) in bits.iter().enumerate() {
        if bit {
            packed[index / 8] |= 1 << (index % 8);
        }
    }
    packed
}

fn unpack_bits(packed: &[u8], width: usize) -> Vec<bool> {
    (0..width)
        .map(|index| packed[index / 8] & (1 << (index % 8)) != 0)
        .collect()
}

impl SuiteArtifact {
    /// Captures a built suite's persistent parts.
    pub fn from_parts(
        patterns: &PatternSet,
        deterministic_patterns: usize,
        dictionary: &FaultDictionary,
        coverage: &CoverageCurve,
    ) -> SuiteArtifact {
        let pattern_width = patterns.iter().next().map_or(0, Pattern::width);
        SuiteArtifact {
            pattern_width,
            patterns: patterns.iter().map(|p| pack_bits(p.bits())).collect(),
            deterministic_patterns,
            first_patterns: dictionary.first_patterns().collect(),
            cumulative: coverage.cumulative().to_vec(),
            universe_size: coverage.universe_size(),
        }
    }

    /// The ordered patterns.
    pub fn pattern_set(&self) -> PatternSet {
        self.patterns
            .iter()
            .map(|packed| Pattern::from_bits(unpack_bits(packed, self.pattern_width)))
            .collect()
    }

    /// The first-failing-pattern dictionary.
    pub fn dictionary(&self) -> FaultDictionary {
        FaultDictionary::from_first_patterns(self.first_patterns.iter().copied())
    }

    /// The cumulative coverage curve.
    pub fn coverage(&self) -> CoverageCurve {
        CoverageCurve::from_cumulative(self.cumulative.clone(), self.universe_size)
    }

    /// Encodes the artifact payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut writer = ByteWriter::new();
        writer.put_u64(self.pattern_width as u64);
        writer.put_u64(self.patterns.len() as u64);
        for packed in &self.patterns {
            writer.bytes_of_pattern(packed);
        }
        writer.put_u64(self.deterministic_patterns as u64);
        writer.put_u64(self.first_patterns.len() as u64);
        for &first in &self.first_patterns {
            writer.put_opt_index(first);
        }
        writer.put_u64(self.cumulative.len() as u64);
        for &coverage in &self.cumulative {
            writer.put_f64(coverage);
        }
        writer.put_u64(self.universe_size as u64);
        writer.into_bytes()
    }

    /// Decodes an artifact payload.
    ///
    /// The counts are checked against each other and against the payload
    /// before anything is allocated for them: every pattern needs its
    /// packed row and one coverage point, so a pattern count the bytes
    /// left cannot hold is refused; the coverage curve must have one point
    /// per pattern, the dictionary one record per fault of the universe,
    /// and every first-failing pattern must be one of the suite's.
    ///
    /// # Errors
    ///
    /// Returns a [`CodecError`] on truncation, trailing bytes, any
    /// malformed field or counts that disagree.
    pub fn decode(bytes: &[u8]) -> Result<SuiteArtifact, CodecError> {
        let mut reader = ByteReader::new(bytes);
        let pattern_width = reader.get_len()?;
        let pattern_count = reader.get_len()?;
        let row_len = pattern_width.div_ceil(8);
        let needed = row_len
            .checked_add(8)
            .and_then(|per_pattern| per_pattern.checked_mul(pattern_count));
        if needed.map_or(true, |needed| needed > reader.remaining()) {
            return Err(CodecError(format!(
                "{pattern_count} patterns of {row_len} bytes and a coverage point each \
                 exceed the {} bytes left",
                reader.remaining()
            )));
        }
        let mut patterns = Vec::with_capacity(pattern_count);
        for _ in 0..pattern_count {
            let mut row = Vec::with_capacity(row_len);
            for _ in 0..row_len {
                row.push(reader.get_u8()?);
            }
            patterns.push(row);
        }
        let deterministic_patterns = reader.get_len()?;
        let fault_count = reader.get_len()?;
        let mut first_patterns = Vec::with_capacity(fault_count.min(1 << 24));
        for fault in 0..fault_count {
            let first = reader.get_opt_index()?;
            if let Some(pattern) = first.filter(|&pattern| pattern >= pattern_count) {
                return Err(CodecError(format!(
                    "fault {fault} first fails at pattern {pattern} of a \
                     {pattern_count}-pattern suite"
                )));
            }
            first_patterns.push(first);
        }
        let point_count = reader.get_len()?;
        if point_count != pattern_count {
            return Err(CodecError(format!(
                "{point_count} coverage points for {pattern_count} patterns"
            )));
        }
        let mut cumulative = Vec::with_capacity(point_count);
        for _ in 0..point_count {
            cumulative.push(reader.get_f64()?);
        }
        let universe_size = reader.get_len()?;
        if universe_size != fault_count {
            return Err(CodecError(format!(
                "{fault_count} dictionary records for a {universe_size}-fault universe"
            )));
        }
        reader.finish()?;
        Ok(SuiteArtifact {
            pattern_width,
            patterns,
            deterministic_patterns,
            first_patterns,
            cumulative,
            universe_size,
        })
    }
}

impl ByteWriter {
    fn bytes_of_pattern(&mut self, packed: &[u8]) {
        for &byte in packed {
            self.put_u8(byte);
        }
    }
}

/// Encodes a signature dictionary payload.
pub fn encode_signature_dictionary(dictionary: &SignatureDictionary) -> Vec<u8> {
    let mut writer = ByteWriter::new();
    writer.put_u64(dictionary.session_len() as u64);
    writer.put_u32(dictionary.signature_width());
    let good = dictionary.good_signatures();
    writer.put_u64(good.len() as u64);
    for &signature in good {
        writer.put_u64(signature);
    }
    let first_fail = dictionary.first_failing_sessions();
    writer.put_u64(first_fail.len() as u64);
    for session in first_fail {
        writer.put_opt_index(session);
    }
    for &raw in dictionary.raw_detected_flags() {
        writer.put_bool(raw);
    }
    writer.into_bytes()
}

/// Decodes a signature dictionary payload.
///
/// Besides the layout, the records are checked against each other: the
/// signature width must be a supported MISR width, and a first failing
/// session must be one of the recorded sessions and belong to a fault
/// whose responses differ (a raw detection), so every decoded dictionary
/// satisfies [`SignatureDictionary::from_parts`].
///
/// # Errors
///
/// Returns a [`CodecError`] on truncation, trailing bytes, any
/// malformed field or records that disagree.
pub fn decode_signature_dictionary(bytes: &[u8]) -> Result<SignatureDictionary, CodecError> {
    let mut reader = ByteReader::new(bytes);
    let session_len = reader.get_len()?;
    if session_len == 0 {
        return Err(CodecError("zero session length".to_string()));
    }
    let signature_width = reader.get_u32()?;
    Misr::try_new(signature_width).map_err(|error| CodecError(error.to_string()))?;
    let session_count = reader.get_len()?;
    let mut good = Vec::with_capacity(session_count.min(1 << 24));
    for _ in 0..session_count {
        good.push(reader.get_u64()?);
    }
    let fault_count = reader.get_len()?;
    let mut first_fail = Vec::with_capacity(fault_count.min(1 << 24));
    for fault in 0..fault_count {
        let fail = reader.get_opt_index()?;
        if let Some(session) = fail.filter(|&session| session >= session_count) {
            return Err(CodecError(format!(
                "fault {fault} first fails at session {session} of {session_count}"
            )));
        }
        first_fail.push(fail);
    }
    let mut raw_detected = Vec::with_capacity(fault_count.min(1 << 24));
    for (fault, &fail) in first_fail.iter().enumerate() {
        let raw = reader.get_bool()?;
        if let (Some(session), false) = (fail, raw) {
            return Err(CodecError(format!(
                "fault {fault} fails session {session} but is not raw-detected"
            )));
        }
        raw_detected.push(raw);
    }
    reader.finish()?;
    Ok(SignatureDictionary::from_parts(
        session_len,
        signature_width,
        good,
        first_fail,
        raw_detected,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsiq_netlist::library;

    #[test]
    fn fingerprints_distinguish_circuits_and_are_stable() {
        let c17 = library::c17();
        let alu = library::alu4();
        assert_ne!(stable_fingerprint(&c17), stable_fingerprint(&alu));
        assert_eq!(
            stable_fingerprint(&c17),
            stable_fingerprint(&library::c17())
        );
        // Pinned value: if this changes, the on-disk format generation must
        // be bumped, because every existing artifact silently invalidates.
        let pinned = stable_fingerprint(&c17);
        assert_eq!(pinned, stable_fingerprint(&library::c17()));
    }

    #[test]
    fn pack_unpack_round_trips_odd_widths() {
        for width in [0usize, 1, 5, 8, 9, 63, 64, 65] {
            let bits: Vec<bool> = (0..width).map(|i| i % 3 == 0).collect();
            assert_eq!(unpack_bits(&pack_bits(&bits), width), bits);
        }
    }
}

//! The three workloads: their fixed inputs, set-up, one pass through the
//! public entry points, the digest each pass is checked by, and an oracle
//! configuration that recomputes the expected digest on another code path.

use crate::digest::Fnv;
use lsi_quality::exec::{EngineKind, LaneWidth, RunConfig};
use lsi_quality::manufacturing::experiment::RejectRow;
use lsi_quality::netlist::circuit::Circuit;
use lsi_quality::netlist::library::{lsi_class, LsiClassConfig};
use lsi_quality::{BistSweepRow, BistSweepSpec, LineExperiment, Session};
use lsiq_serve::artifact::ArtifactStore;
use lsiq_serve::service::QueryService;
use std::path::{Path, PathBuf};

/// Worker count of every timed pass: the two vCPUs of the reference host.
pub(crate) const WORKERS: usize = 2;

/// Set-ups per run; `setup_s` is their median.
pub(crate) const SETUPS: usize = 3;

/// Chips in each `lot` query of the serve grid.
pub(crate) const GRID_LOT_CHIPS: usize = 250_000;

/// The `(yield, n0)` points of the serve grid's `lot` queries.
pub(crate) const GRID_LOT_POINTS: [(f64, f64); 4] =
    [(0.07, 2.0), (0.07, 8.0), (0.3, 2.0), (0.3, 8.0)];

/// The serve grid's `forward` points: `(yield, n0, coverage)`.
pub(crate) const GRID_FORWARD: [(f64, f64, f64); 2] = [(0.07, 8.0, 0.95), (0.3, 2.0, 0.99)];

/// The serve grid's `inverse` points: `(yield, n0, target_reject)`.
pub(crate) const GRID_INVERSE: [(f64, f64, f64); 2] = [(0.07, 8.0, 0.001), (0.3, 2.0, 0.0001)];

/// The reference facts of the paper's Table 1 suite.  The suite does not
/// depend on the workload seed, so every `table1-line` pass must show them.
const TABLE1_FAULTS: usize = 12_114;
/// Patterns in the Table 1 line suite.
const TABLE1_PATTERNS: usize = 192;
/// Final coverage of the Table 1 line suite.
const TABLE1_COVERAGE: f64 = 0.6854053161631171;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Table1Line,
    BistSweep,
    ServeGrid,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::Table1Line,
        Workload::BistSweep,
        Workload::ServeGrid,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Table1Line => "table1-line",
            Workload::BistSweep => "bist-sweep",
            Workload::ServeGrid => "serve-grid",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// The configuration of a timed pass: `RunConfig::default()` (engine, lanes
/// and cache as the defaults resolve them, telemetry off) at a fixed worker
/// count.  Never built from the environment, so inherited `LSIQ_*`
/// variables cannot change what is measured.
pub(crate) fn run_config(workers: usize) -> RunConfig {
    RunConfig::default().with_workers(workers)
}

/// The configuration `QueryService::from_env` builds when no `LSIQ_*`
/// variable is set: the defaults with adaptive engine selection.
pub(crate) fn serve_config(workers: usize) -> RunConfig {
    run_config(workers).with_engine_auto()
}

/// The oracle configuration: another engine, one worker, one lane.  The
/// repository's differential suites pin every result byte-identical across
/// these knobs, so its digest is the expected digest of a pass.
fn oracle_config() -> RunConfig {
    RunConfig::default()
        .with_engine(EngineKind::Deductive)
        .with_workers(1)
        .with_lanes(LaneWidth::X1)
}

/// What one pass produced, reduced to what its check needs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PassOutcome {
    /// Digest of the pass's result.
    pub digest: u64,
    /// Serve queries answered (0 for the other workloads).
    pub queries: u64,
    /// Serve responses whose status was not `ok`.
    pub failed_queries: u64,
    /// Fault-simulation passes the service made.
    pub fault_sim_passes: u64,
    /// Whether the pass may fault simulate (a cold serve grid).
    pub cold: bool,
    /// Whether the Table 1 reference facts held (always true off
    /// `table1-line`).
    pub facts_ok: bool,
}

impl PassOutcome {
    pub fn of_digest(digest: u64) -> PassOutcome {
        PassOutcome {
            digest,
            queries: 0,
            failed_queries: 0,
            fault_sim_passes: 0,
            cold: false,
            facts_ok: true,
        }
    }

    /// Operations this pass counts for: the pass, plus each serve query.
    pub fn operations(&self) -> u64 {
        1 + self.queries
    }

    /// Failed operations against `expected`: the pass fails on a digest
    /// mismatch, a non-`ok` response, a warm pass that fault simulated, or
    /// a broken Table 1 reference fact; each non-`ok` query
    /// is a failed operation of its own.
    pub fn failures(&self, expected: u64) -> u64 {
        let pass_failed = self.digest != expected
            || self.failed_queries > 0
            || (!self.cold && self.fault_sim_passes > 0)
            || !self.facts_ok;
        u64::from(pass_failed) + self.failed_queries
    }
}

/// The result of a `table1-line` pass, as the digest sees it.
pub(crate) struct LineFacts<'a> {
    pub universe_size: usize,
    pub patterns: usize,
    pub final_coverage: f64,
    pub observed_yield: f64,
    pub observed_n0: f64,
    pub rows: &'a [RejectRow],
}

impl LineFacts<'_> {
    pub fn of(line: &LineExperiment) -> LineFacts<'_> {
        LineFacts {
            universe_size: line.universe_size,
            patterns: line.suite.patterns.len(),
            final_coverage: line.coverage.final_coverage(),
            observed_yield: line.observed_yield,
            observed_n0: line.observed_n0,
            rows: line.experiment.rows(),
        }
    }

    pub fn outcome(&self) -> PassOutcome {
        let mut hash = Fnv::new();
        hash.usize(self.universe_size);
        hash.usize(self.patterns);
        hash.f64(self.final_coverage);
        hash.f64(self.observed_yield);
        hash.f64(self.observed_n0);
        for row in self.rows {
            hash.usize(row.patterns_applied);
            hash.f64(row.fault_coverage);
            hash.usize(row.chips_failed);
            hash.f64(row.fraction_failed);
        }
        PassOutcome {
            facts_ok: self.universe_size == TABLE1_FAULTS
                && self.patterns == TABLE1_PATTERNS
                && self.final_coverage == TABLE1_COVERAGE,
            ..PassOutcome::of_digest(hash.finish())
        }
    }
}

/// The digest of a BIST sweep's rows.
pub(crate) fn sweep_digest(universe_size: usize, rows: &[BistSweepRow]) -> u64 {
    let mut hash = Fnv::new();
    hash.usize(universe_size);
    for row in rows {
        hash.usize(row.test_length);
        hash.usize(row.signature_width as usize);
        hash.usize(row.sessions);
        hash.f64(row.raw_coverage);
        hash.f64(row.effective_coverage);
        hash.usize(row.aliased);
        hash.f64(row.aliasing_fraction);
        hash.f64(row.estimated_aliasing_fraction);
        hash.f64(row.defect_level_raw);
        hash.f64(row.defect_level_effective);
    }
    hash.finish()
}

/// Removes the `counters` object from a response line, as
/// `docs/SERVICE.md` strips transcripts before comparing them.
fn strip_counters(line: &str) -> &str {
    match line.find(",\"counters\":{") {
        Some(start) => &line[..start],
        None => line,
    }
}

/// Reduces a serve transcript to `(digest, queries, failed queries)`: the
/// summary record is dropped and each response's `counters` object (always
/// its last key) is stripped before hashing.
pub fn transcript_outcome<'a>(lines: impl IntoIterator<Item = &'a str>) -> PassOutcome {
    let mut hash = Fnv::new();
    let mut queries = 0;
    let mut failed_queries = 0;
    for line in lines {
        if line.starts_with("{\"status\":\"summary\"") {
            continue;
        }
        queries += 1;
        if !line.starts_with("{\"status\":\"ok\"") {
            failed_queries += 1;
        }
        hash.bytes(strip_counters(line).as_bytes());
        hash.bytes(b"\n");
    }
    PassOutcome {
        queries,
        failed_queries,
        ..PassOutcome::of_digest(hash.finish())
    }
}

/// A 48-bit lot seed derived from the workload seed (JSON numbers are
/// doubles, so the seed must stay below 2^53 to round-trip exactly).
pub(crate) fn lot_seed(seed: u64, index: u64) -> u64 {
    let mut z = seed.wrapping_add(index.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (z ^ (z >> 31)) >> 16
}

/// The serve grid's request lines for a workload seed.
fn grid_lines(seed: u64) -> Vec<String> {
    let mut lines = Vec::new();
    for (y, n0, coverage) in GRID_FORWARD {
        lines.push(format!(
            r#"{{"op":"forward","yield":{y},"n0":{n0},"coverage":{coverage}}}"#
        ));
    }
    for (y, n0, target) in GRID_INVERSE {
        lines.push(format!(
            r#"{{"op":"inverse","yield":{y},"n0":{n0},"target_reject":{target}}}"#
        ));
    }
    lines.push(r#"{"op":"line"}"#.to_string());
    for k in [16, 8] {
        lines.push(format!(
            r#"{{"op":"bist","test_length":256,"signature_width":{k}}}"#
        ));
    }
    for (index, (y, n0)) in GRID_LOT_POINTS.into_iter().enumerate() {
        lines.push(format!(
            r#"{{"op":"lot","chips":{GRID_LOT_CHIPS},"yield":{y},"n0":{n0},"seed":{}}}"#,
            lot_seed(seed, index as u64)
        ));
    }
    lines
}

/// The directory every run writes into: `out/` beside this package's
/// manifest, inside the checkout the benchmark was built in.
pub(crate) fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// One workload's fixed inputs and set-up state.
pub struct Bench {
    pub(crate) workload: Workload,
    pub(crate) seed: u64,
    /// The `bist-sweep` device, built in set-up.
    device: Option<Circuit>,
    /// The serve grid, one request per line.
    pub(crate) grid: Vec<String>,
    /// The serve grid's artifact directory.
    pub(crate) artifact_dir: PathBuf,
}

impl Bench {
    pub fn new(workload: Workload, seed: u64) -> Bench {
        let tag = format!("{}-{}-{}", workload.name(), seed, std::process::id());
        Bench {
            workload,
            seed,
            device: None,
            grid: grid_lines(seed),
            artifact_dir: out_dir().join(format!("artifacts-{tag}")),
        }
    }

    /// The `bist-sweep` device: the LSI-class generator at the reduced
    /// device's size, seeded by the workload seed (seed 1981 gives the
    /// reproduction device).
    pub(crate) fn bist_device(seed: u64) -> Circuit {
        lsi_class(LsiClassConfig {
            target_transistors: 10_000,
            seed,
        })
    }

    /// One set-up: everything a timed pass needs before it starts.  It
    /// compiles the device where the pass does not, empties the serve
    /// grid's artifact directory and builds it cold, then runs one untimed
    /// warm-up pass.  Returns the outcomes of the passes it ran.
    pub fn setup(&mut self) -> Vec<PassOutcome> {
        let mut outcomes = Vec::new();
        match self.workload {
            Workload::Table1Line => {}
            Workload::BistSweep => self.device = Some(Bench::bist_device(self.seed)),
            Workload::ServeGrid => {
                self.reset_artifacts();
                outcomes.push(PassOutcome {
                    cold: true,
                    ..self.pass(WORKERS)
                });
            }
        }
        outcomes.push(self.pass(WORKERS));
        outcomes
    }

    /// Empties the artifact directory, so the cold build starts from
    /// nothing.
    fn reset_artifacts(&self) {
        if self.artifact_dir.exists() {
            std::fs::remove_dir_all(&self.artifact_dir).expect("artifact directory is removable");
        }
        std::fs::create_dir_all(&self.artifact_dir).expect("artifact directory is creatable");
    }

    /// One pass on a fresh `Session` or service with `workers` workers.
    pub fn pass(&self, workers: usize) -> PassOutcome {
        match self.workload {
            Workload::Table1Line => {
                let session = Session::new(run_config(workers).with_base_seed(self.seed));
                table1_outcome(&session)
            }
            Workload::BistSweep => {
                let session = Session::new(run_config(workers).with_base_seed(self.seed));
                bist_outcome(&session, self.device())
            }
            Workload::ServeGrid => {
                let store =
                    ArtifactStore::at(&self.artifact_dir).expect("artifact directory is writable");
                serve_outcome(
                    &QueryService::new(Session::new(serve_config(workers)), store),
                    &self.grid,
                )
            }
        }
    }

    /// The expected digest, recomputed under the oracle configuration
    /// (the serve grid without an artifact store, so every artifact is
    /// rebuilt).
    pub fn oracle_digest(&self) -> u64 {
        match self.workload {
            Workload::Table1Line => {
                table1_outcome(&Session::new(oracle_config().with_base_seed(self.seed))).digest
            }
            Workload::BistSweep => {
                let device;
                let device = match &self.device {
                    Some(device) => device,
                    None => {
                        device = Bench::bist_device(self.seed);
                        &device
                    }
                };
                bist_outcome(
                    &Session::new(oracle_config().with_base_seed(self.seed)),
                    device,
                )
                .digest
            }
            Workload::ServeGrid => {
                serve_outcome(
                    &QueryService::new(Session::new(oracle_config()), ArtifactStore::disabled()),
                    &self.grid,
                )
                .digest
            }
        }
    }

    pub(crate) fn device(&self) -> &Circuit {
        self.device.as_ref().expect("set-up builds the device")
    }
}

impl Drop for Bench {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.artifact_dir);
    }
}

fn table1_outcome(session: &Session) -> PassOutcome {
    let line = session
        .reproduce_table1()
        .expect("no scan plan is configured");
    LineFacts::of(&line).outcome()
}

fn bist_outcome(session: &Session, device: &Circuit) -> PassOutcome {
    let sweep = session
        .run_bist_sweep_on(device, &BistSweepSpec::reference())
        .expect("the reference sweep spec is valid");
    PassOutcome::of_digest(sweep_digest(sweep.universe_size, &sweep.rows))
}

fn serve_outcome(service: &QueryService, grid: &[String]) -> PassOutcome {
    let mut transcript = Vec::new();
    service
        .run_lines(grid.join("\n").as_bytes(), &mut transcript)
        .expect("grid requests are well-formed JSON");
    let transcript = String::from_utf8(transcript).expect("responses are UTF-8");
    PassOutcome {
        fault_sim_passes: service.fault_sim_passes(),
        ..transcript_outcome(transcript.lines())
    }
}

//! The batch query service: one persistent [`Session`] answering a stream
//! of newline-delimited JSON planning queries.
//!
//! Every expensive object — the compiled device, its line test suite, each
//! BIST signature dictionary — is memoized in-process *and* persisted
//! through the [`ArtifactStore`], so a query grid pays for each
//! fault-simulation pass at most once per artifact directory lifetime,
//! across processes.  Lots are evaluated by the streaming executor
//! ([`StreamingLotExecutor`]), so a billion-chip query holds
//! `O(workers × (patterns + faults / 64))` memory and returns statistics
//! byte-identical to the in-memory pipeline.
//!
//! Protocol, schema and counter semantics are specified in
//! `docs/SERVICE.md`.

use crate::artifact::{
    decode_signature_dictionary, encode_signature_dictionary, stable_fingerprint, ArtifactStore,
    SuiteArtifact,
};
use crate::codec::Fnv1a;
use crate::json::{number, object, string, JsonValue};
use crate::request::{BistParams, LotParams, ModelInputs, Request};
use lsi_quality::{BistSweepRow, Session, PROGRAMME_SEED};
use lsiq_bist::aliasing::AliasingReport;
use lsiq_bist::misr::Misr;
use lsiq_bist::signature::SignatureDictionary;
use lsiq_bist::stumps::{StumpsConfig, StumpsGenerator};
use lsiq_core::coverage_requirement::required_fault_coverage;
use lsiq_core::params::{FaultCoverage, ModelParams, RejectRate, Yield};
use lsiq_core::reject::field_reject_rate;
use lsiq_exec::config::TEST_MODE_VAR;
use lsiq_exec::{ConfigError, MetricsMode, RunConfig, TestMode, SCAN_CHAINS_VAR};
use lsiq_fault::coverage::CoverageCurve;
use lsiq_fault::dictionary::FaultDictionary;
use lsiq_fault::universe::FaultUniverse;
use lsiq_manufacturing::lot::ModelLotConfig;
use lsiq_manufacturing::streaming::{StreamedLot, StreamingLotExecutor};
use lsiq_netlist::circuit::Circuit;
use lsiq_netlist::library;
use lsiq_obs::{Counter, Histogram, Snapshot, Span};
use std::cell::RefCell;
use std::collections::HashMap;
use std::io::{BufRead, Write};
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Registry mirrors of the per-service [`Counters`]: process-wide totals
/// across every `QueryService` in the process.  The per-service atomics
/// stay authoritative for per-query deltas and the summary record, so
/// concurrently running services never bleed into each other's responses.
static QUERIES: Counter = Counter::new("serve.queries");
static ERRORS: Counter = Counter::new("serve.errors");
static FAULT_SIM_PASSES: Counter = Counter::new("serve.fault_sim_passes");
static CHIPS_SIMULATED: Counter = Counter::new("serve.chips_simulated");
/// Wall time spent inside [`QueryService::handle`].
static QUERY_SPAN: Span = Span::new("serve.query");
/// Per-query latency distribution (microseconds, power-of-two buckets).
static QUERY_US: Histogram = Histogram::new("serve.query_us");

/// The device names a query may reference.
pub const CIRCUITS: [&str; 4] = ["c17", "alu4", "reduced", "full"];

/// A fatal service error: bad configuration, a broken stream, or a
/// malformed (non-JSON) request line.  The binary maps every variant to
/// exit status 2.
#[derive(Debug)]
pub enum ServeError {
    /// An invalid `LSIQ_*` knob.
    Config(ConfigError),
    /// The input or output stream failed.
    Io(std::io::Error),
    /// A request line was not a JSON document.  A line-numbered error
    /// record has already been written to the output stream.
    Malformed {
        /// 1-based line number of the offending request.
        line: usize,
        /// The parser's message.
        message: String,
    },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Config(error) => write!(f, "{error}"),
            ServeError::Io(error) => write!(f, "stream error: {error}"),
            ServeError::Malformed { line, message } => {
                write!(f, "line {line}: malformed JSON request: {message}")
            }
        }
    }
}

impl From<ConfigError> for ServeError {
    fn from(error: ConfigError) -> ServeError {
        ServeError::Config(error)
    }
}

impl From<std::io::Error> for ServeError {
    fn from(error: std::io::Error) -> ServeError {
        ServeError::Io(error)
    }
}

/// A compiled device: the circuit, its stable fingerprint and its fault
/// universe, shared by every query that names it.
struct CompiledCircuit {
    circuit: Circuit,
    fingerprint: u64,
    universe: FaultUniverse,
}

/// The persistent parts of a line suite a lot query consults.
struct LineSuite {
    dictionary: FaultDictionary,
    coverage: CoverageCurve,
    deterministic_patterns: usize,
}

/// Monotonic service counters, also reported as per-query deltas.
///
/// Atomics rather than `Cell<u64>` so `QueryService` stays `Sync`-safe to
/// share behind a reference; every bump is mirrored into the process-wide
/// metrics registry (`serve.*`).
#[derive(Debug, Default)]
struct Counters {
    queries: AtomicU64,
    errors: AtomicU64,
    fault_sim_passes: AtomicU64,
    chips_simulated: AtomicU64,
}

impl Counters {
    fn bump(field: &AtomicU64, mirror: &Counter, amount: u64) -> u64 {
        mirror.add(amount);
        field.fetch_add(amount, Ordering::Relaxed) + amount
    }
}

/// The batch planning query service.
pub struct QueryService {
    session: Session,
    artifacts: ArtifactStore,
    circuits: RefCell<HashMap<String, Rc<CompiledCircuit>>>,
    suites: RefCell<HashMap<u64, Rc<LineSuite>>>,
    dictionaries: RefCell<HashMap<u64, Rc<SignatureDictionary>>>,
    counters: Counters,
}

impl QueryService {
    /// Opens a service over an explicit session and artifact store.
    pub fn new(session: Session, artifacts: ArtifactStore) -> QueryService {
        QueryService {
            session,
            artifacts,
            circuits: RefCell::new(HashMap::new()),
            suites: RefCell::new(HashMap::new()),
            dictionaries: RefCell::new(HashMap::new()),
            counters: Counters::default(),
        }
    }

    /// Opens a service from the environment: the `LSIQ_*` knobs through
    /// [`RunConfig::from_env`], the artifact directory through
    /// `LSIQ_ARTIFACT_DIR`.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] when any knob is set to an invalid value,
    /// and when `LSIQ_TEST_MODE` names a mode other than `stored` or
    /// `LSIQ_SCAN_CHAINS` is set at all: the service tests stored patterns
    /// on its named combinational devices, so it would ignore either knob.
    pub fn from_env() -> Result<QueryService, ConfigError> {
        let config = RunConfig::from_env()?;
        if config.test_mode() != TestMode::Stored {
            return Err(ConfigError::invalid_value(
                TEST_MODE_VAR,
                config.test_mode().name(),
                "stored (lsiq-serve tests stored patterns only)",
            ));
        }
        if let Some(scan) = config.scan() {
            return Err(ConfigError::invalid_value(
                SCAN_CHAINS_VAR,
                scan.chains().to_string(),
                "no value (lsiq-serve tests its combinational devices without scan)",
            ));
        }
        Ok(QueryService::new(
            Session::new(config),
            ArtifactStore::from_env()?,
        ))
    }

    /// The underlying session.
    pub fn session(&self) -> &Session {
        &self.session
    }

    /// The artifact store (for its hit/miss counters).
    pub fn artifacts(&self) -> &ArtifactStore {
        &self.artifacts
    }

    /// Fault-simulation passes performed so far — the number that must
    /// stay at zero on a fully warm artifact cache.
    pub fn fault_sim_passes(&self) -> u64 {
        self.counters.fault_sim_passes.load(Ordering::Relaxed)
    }

    /// Chips generated and tested by lot queries so far.
    pub fn chips_simulated(&self) -> u64 {
        self.counters.chips_simulated.load(Ordering::Relaxed)
    }

    /// Whether this session emits `metrics` records and the summary's
    /// registry dump (`LSIQ_METRICS=json`).
    fn emit_metrics(&self) -> bool {
        self.session.config().metrics() == MetricsMode::Json
    }

    /// Runs the JSON-lines protocol: one request per input line, one
    /// response per request, one summary record after the stream ends.
    /// Empty lines are skipped.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Malformed`] on the first non-JSON line
    /// (after writing a line-numbered error record) and
    /// [`ServeError::Io`] on stream failure.  Semantically invalid
    /// requests produce per-query error responses and do not abort the
    /// stream.
    pub fn run_lines<R: BufRead, W: Write>(
        &self,
        reader: R,
        mut writer: W,
    ) -> Result<(), ServeError> {
        let started = Instant::now();
        for (index, line) in reader.lines().enumerate() {
            let line = line?;
            let line_number = index + 1;
            if line.trim().is_empty() {
                continue;
            }
            let parsed = match JsonValue::parse(&line) {
                Ok(value) => value,
                Err(error) => {
                    let record = object(vec![
                        ("status", string("error")),
                        ("line", number(line_number as u64)),
                        ("error", string(&format!("malformed JSON: {error}"))),
                    ]);
                    writeln!(writer, "{}", record.to_line())?;
                    writer.flush()?;
                    return Err(ServeError::Malformed {
                        line: line_number,
                        message: error.to_string(),
                    });
                }
            };
            let before = self.emit_metrics().then(lsiq_obs::snapshot);
            let response = self.handle(&parsed, Some(line_number));
            writeln!(writer, "{}", response.to_line())?;
            if let Some(before) = before {
                let delta = lsiq_obs::snapshot().delta_since(&before);
                let record = metrics_record(line_number, &delta);
                writeln!(writer, "{}", record.to_line())?;
            }
            writer.flush()?;
        }
        let summary = self.summary(started.elapsed().as_millis() as u64);
        writeln!(writer, "{}", summary.to_line())?;
        writer.flush()?;
        Ok(())
    }

    /// Answers one request object, returning the response record.
    /// Never panics on any well-formed JSON input.
    pub fn handle(&self, request: &JsonValue, line: Option<usize>) -> JsonValue {
        let _timer = QUERY_SPAN.start();
        Counters::bump(&self.counters.queries, &QUERIES, 1);
        let hits_before = self.artifacts.hits();
        let misses_before = self.artifacts.misses();
        let passes_before = self.fault_sim_passes();
        let chips_before = self.chips_simulated();
        let started = Instant::now();
        let (op, id, outcome) = match Request::parse(request) {
            Err(message) => (None, request.get("id").cloned(), Err(message)),
            Ok((parsed, id)) => (Some(parsed.op()), id, self.dispatch(&parsed)),
        };
        let mut pairs: Vec<(String, JsonValue)> = Vec::new();
        match outcome {
            Ok(body) => {
                pairs.push(("status".to_string(), string("ok")));
                if let Some(op) = op {
                    pairs.push(("op".to_string(), string(op)));
                }
                if let Some(id) = id {
                    pairs.push(("id".to_string(), id));
                }
                if let JsonValue::Object(fields) = body {
                    pairs.extend(fields);
                }
            }
            Err(message) => {
                Counters::bump(&self.counters.errors, &ERRORS, 1);
                pairs.push(("status".to_string(), string("error")));
                if let Some(op) = op {
                    pairs.push(("op".to_string(), string(op)));
                }
                if let Some(id) = id {
                    pairs.push(("id".to_string(), id));
                }
                if let Some(line) = line {
                    pairs.push(("line".to_string(), number(line as u64)));
                }
                pairs.push(("error".to_string(), string(&message)));
            }
        }
        pairs.push((
            "counters".to_string(),
            object(vec![
                ("artifact_hits", number(self.artifacts.hits() - hits_before)),
                (
                    "artifact_misses",
                    number(self.artifacts.misses() - misses_before),
                ),
                (
                    "fault_sim_passes",
                    number(self.fault_sim_passes() - passes_before),
                ),
                (
                    "chips_simulated",
                    number(self.chips_simulated() - chips_before),
                ),
                ("elapsed_us", number(started.elapsed().as_micros() as u64)),
            ]),
        ));
        QUERY_US.observe(started.elapsed().as_micros() as u64);
        JsonValue::Object(pairs)
    }

    /// The end-of-stream summary record.  Under `LSIQ_METRICS=json` it
    /// carries a `registry` object: the full metrics-registry dump.
    fn summary(&self, wall_ms: u64) -> JsonValue {
        let cache = self.session.good_machine_cache();
        let mut summary = object(vec![
            ("status", string("summary")),
            (
                "queries",
                number(self.counters.queries.load(Ordering::Relaxed)),
            ),
            (
                "errors",
                number(self.counters.errors.load(Ordering::Relaxed)),
            ),
            ("artifact_hits", number(self.artifacts.hits())),
            ("artifact_misses", number(self.artifacts.misses())),
            ("good_machine_hits", number(cache.hits())),
            ("good_machine_misses", number(cache.misses())),
            ("fault_sim_passes", number(self.fault_sim_passes())),
            ("chips_simulated", number(self.chips_simulated())),
            ("wall_ms", number(wall_ms)),
        ]);
        if self.emit_metrics() {
            if let JsonValue::Object(pairs) = &mut summary {
                pairs.push(("registry".to_string(), snapshot_json(&lsiq_obs::snapshot())));
            }
        }
        summary
    }

    fn dispatch(&self, request: &Request) -> Result<JsonValue, String> {
        match request {
            Request::Forward { model, coverage } => self.forward(model, *coverage),
            Request::Inverse {
                model,
                target_reject,
            } => self.inverse(model, *target_reject),
            Request::Bist(params) => self.bist(params),
            Request::Line(params) => self.lot(params, true),
            Request::Lot(params) => self.lot(params, false),
        }
    }

    fn model_params(model: &ModelInputs) -> Result<ModelParams, String> {
        let yield_fraction = Yield::new(model.yield_fraction)
            .map_err(|_| "\"yield\" must be a fraction in [0, 1]".to_string())?;
        ModelParams::new(yield_fraction, model.n0)
            .map_err(|_| "\"n0\" must be a finite value >= 1".to_string())
    }

    fn forward(&self, model: &ModelInputs, coverage: f64) -> Result<JsonValue, String> {
        let params = Self::model_params(model)?;
        let coverage = FaultCoverage::new(coverage)
            .map_err(|_| "\"coverage\" must be a fraction in [0, 1]".to_string())?;
        let reject = field_reject_rate(&params, coverage);
        Ok(object(vec![
            ("yield", JsonValue::Number(model.yield_fraction)),
            ("n0", JsonValue::Number(model.n0)),
            ("coverage", JsonValue::Number(coverage.value())),
            ("reject_rate", JsonValue::Number(reject.value())),
            ("defect_level_ppm", JsonValue::Number(reject.value() * 1e6)),
        ]))
    }

    fn inverse(&self, model: &ModelInputs, target_reject: f64) -> Result<JsonValue, String> {
        let params = Self::model_params(model)?;
        let target = RejectRate::new(target_reject)
            .map_err(|_| "\"target_reject\" must be a fraction in [0, 1]".to_string())?;
        let required = required_fault_coverage(&params, target)
            .map_err(|error| format!("required-coverage solve failed: {error}"))?;
        Ok(object(vec![
            ("yield", JsonValue::Number(model.yield_fraction)),
            ("n0", JsonValue::Number(model.n0)),
            ("target_reject", JsonValue::Number(target.value())),
            ("required_coverage", JsonValue::Number(required.value())),
        ]))
    }

    fn compiled(&self, name: &str) -> Result<Rc<CompiledCircuit>, String> {
        if let Some(compiled) = self.circuits.borrow().get(name) {
            return Ok(compiled.clone());
        }
        let circuit = match name {
            "c17" => library::c17(),
            "alu4" => library::alu4(),
            "reduced" => Session::reproduction_circuit(false),
            "full" => Session::reproduction_circuit(true),
            other => {
                return Err(format!(
                    "unknown circuit {other:?} (expected one of {})",
                    CIRCUITS.join(", ")
                ))
            }
        };
        let fingerprint = stable_fingerprint(&circuit);
        let universe = FaultUniverse::full(&circuit);
        let compiled = Rc::new(CompiledCircuit {
            circuit,
            fingerprint,
            universe,
        });
        self.circuits
            .borrow_mut()
            .insert(name.to_string(), compiled.clone());
        Ok(compiled)
    }

    /// The line suite for a device: in-process memo, then the artifact
    /// store, then (counted) a fresh fault-simulation build.
    fn line_suite(&self, compiled: &CompiledCircuit) -> Rc<LineSuite> {
        // Key over the builder's programme parameters: they are baked into
        // `Session::line_suite_builder`, so spelling them in the key means
        // any future change rolls the key instead of reusing stale suites.
        let mut key = Fnv1a::new();
        key.update(b"line-suite/seed1981/chunk64/rand192/cov0.95/podem-off");
        key.update_u64(compiled.fingerprint);
        let key = key.finish();
        if let Some(suite) = self.suites.borrow().get(&key) {
            self.artifacts.record_hit();
            return suite.clone();
        }
        if let Some(payload) = self.artifacts.load("suite", key, compiled.fingerprint) {
            if let Ok(artifact) = SuiteArtifact::decode(&payload) {
                let suite = Rc::new(LineSuite {
                    dictionary: artifact.dictionary(),
                    coverage: artifact.coverage(),
                    deterministic_patterns: artifact.deterministic_patterns,
                });
                self.suites.borrow_mut().insert(key, suite.clone());
                return suite;
            }
        }
        Counters::bump(&self.counters.fault_sim_passes, &FAULT_SIM_PASSES, 1);
        let built = self
            .session
            .line_suite_builder(&compiled.circuit)
            .build_cached(
                Some(self.session.context()),
                Some(self.session.good_machine_cache()),
                &compiled.circuit,
                &compiled.universe,
            );
        let artifact = SuiteArtifact::from_parts(
            built.deterministic_patterns,
            &built.dictionary,
            &built.coverage_curve,
        );
        self.artifacts
            .store("suite", key, compiled.fingerprint, &artifact.encode());
        let suite = Rc::new(LineSuite {
            dictionary: built.dictionary,
            coverage: built.coverage_curve,
            deterministic_patterns: built.deterministic_patterns,
        });
        self.suites.borrow_mut().insert(key, suite.clone());
        suite
    }

    fn bist(&self, params: &BistParams) -> Result<JsonValue, String> {
        let model = Self::model_params(&params.model)?;
        Misr::try_new(params.signature_width)
            .map_err(|error| format!("\"signature_width\": {error}"))?;
        if params.session_len == 0 {
            return Err("\"session_len\" must be at least 1".to_string());
        }
        if params.test_length == 0 {
            return Err("\"test_length\" must be at least 1".to_string());
        }
        let compiled = self.compiled(&params.circuit)?;
        let seed = self.session.config().seed_or(PROGRAMME_SEED);
        let mut key = Fnv1a::new();
        key.update(b"sigdict/stumps-deg64");
        key.update_u64(compiled.fingerprint);
        key.update_u64(params.test_length as u64);
        key.update_u64(u64::from(params.signature_width));
        key.update_u64(params.session_len as u64);
        key.update_u64(params.channels as u64);
        key.update_u64(seed);
        let key = key.finish();
        let memo_hit = self.dictionaries.borrow().get(&key).cloned();
        let dictionary = if let Some(hit) = memo_hit {
            self.artifacts.record_hit();
            hit
        } else if let Some(decoded) = self
            .artifacts
            .load("sigdict", key, compiled.fingerprint)
            .and_then(|payload| decode_signature_dictionary(&payload).ok())
            // A checksummed payload can still describe another test (a key
            // collision, a file rewritten through the store): one that does
            // not cover this universe under this plan is a miss, rebuilt.
            .filter(|decoded| {
                decoded.len() == compiled.universe.len()
                    && decoded.sessions() == params.test_length.div_ceil(params.session_len)
                    && decoded.session_len() == params.session_len
                    && decoded.signature_width() == params.signature_width
            })
        {
            let dictionary = Rc::new(decoded);
            self.dictionaries
                .borrow_mut()
                .insert(key, dictionary.clone());
            dictionary
        } else {
            let generator = StumpsGenerator::try_new(&StumpsConfig {
                width: compiled.circuit.primary_inputs().len(),
                channels: params.channels,
                degree: 64,
                seed,
            })
            .map_err(|error| format!("\"channels\": {error}"))?;
            let patterns = generator.generate(params.test_length);
            Counters::bump(&self.counters.fault_sim_passes, &FAULT_SIM_PASSES, 1);
            let built = SignatureDictionary::build_sweep_cached(
                self.session.context(),
                &compiled.circuit,
                &compiled.universe,
                &patterns,
                params.session_len,
                &[params.signature_width],
                &[params.test_length],
                self.session.config().lanes(),
                Some(self.session.good_machine_cache()),
            )
            .swap_remove(0)
            .swap_remove(0);
            self.artifacts.store(
                "sigdict",
                key,
                compiled.fingerprint,
                &encode_signature_dictionary(&built),
            );
            let dictionary = Rc::new(built);
            self.dictionaries
                .borrow_mut()
                .insert(key, dictionary.clone());
            dictionary
        };
        let row = BistSweepRow::new(
            params.test_length,
            &AliasingReport::from_dictionary(&dictionary),
            &model,
        );
        Ok(object(vec![
            ("circuit", string(&params.circuit)),
            ("universe_size", number(compiled.universe.len() as u64)),
            ("test_length", number(row.test_length as u64)),
            ("signature_width", number(u64::from(row.signature_width))),
            ("session_len", number(params.session_len as u64)),
            ("sessions", number(row.sessions as u64)),
            ("raw_coverage", JsonValue::Number(row.raw_coverage)),
            (
                "effective_coverage",
                JsonValue::Number(row.effective_coverage),
            ),
            ("aliased", number(row.aliased as u64)),
            (
                "aliasing_fraction",
                JsonValue::Number(row.aliasing_fraction),
            ),
            (
                "estimated_aliasing_fraction",
                JsonValue::Number(row.estimated_aliasing_fraction),
            ),
            ("defect_level_raw", JsonValue::Number(row.defect_level_raw)),
            (
                "defect_level_effective",
                JsonValue::Number(row.defect_level_effective),
            ),
        ]))
    }

    fn lot(&self, params: &LotParams, dense_rows: bool) -> Result<JsonValue, String> {
        Self::model_params(&params.model)?;
        let compiled = self.compiled(&params.circuit)?;
        let suite = self.line_suite(&compiled);
        let pattern_count = suite.coverage.pattern_count();
        let checkpoints: Vec<usize> = match &params.checkpoints {
            Some(points) => points.clone(),
            None if dense_rows => (1..=pattern_count).collect(),
            None => vec![pattern_count],
        };
        let seed = params
            .seed
            .unwrap_or_else(|| self.session.config().seed_or(PROGRAMME_SEED));
        let lot_config = ModelLotConfig {
            chips: params.chips,
            yield_fraction: params.model.yield_fraction,
            n0: params.model.n0,
            fault_universe_size: compiled.universe.len(),
            seed,
        };
        let streamed: StreamedLot = StreamingLotExecutor::with_context(self.session.context())
            .stream_model_lot(
                &lot_config,
                &suite.dictionary,
                &suite.coverage,
                &checkpoints,
            );
        Counters::bump(
            &self.counters.chips_simulated,
            &CHIPS_SIMULATED,
            params.chips as u64,
        );
        let rows = streamed
            .experiment
            .rows()
            .iter()
            .map(|row| {
                object(vec![
                    ("patterns", number(row.patterns_applied as u64)),
                    ("coverage", JsonValue::Number(row.fault_coverage)),
                    ("chips_failed", number(row.chips_failed as u64)),
                    ("fraction_failed", JsonValue::Number(row.fraction_failed)),
                ])
            })
            .collect();
        Ok(object(vec![
            ("circuit", string(&params.circuit)),
            ("chips", number(params.chips as u64)),
            ("yield", JsonValue::Number(params.model.yield_fraction)),
            ("n0", JsonValue::Number(params.model.n0)),
            ("seed", number(seed)),
            ("universe_size", number(compiled.universe.len() as u64)),
            ("patterns", number(pattern_count as u64)),
            (
                "deterministic_patterns",
                number(suite.deterministic_patterns as u64),
            ),
            (
                "final_coverage",
                JsonValue::Number(suite.coverage.final_coverage()),
            ),
            ("observed_yield", JsonValue::Number(streamed.observed_yield)),
            ("observed_n0", JsonValue::Number(streamed.observed_n0)),
            ("shipped", number(streamed.outcome.shipped as u64)),
            ("escapes", number(streamed.outcome.escapes as u64)),
            ("rejected", number(streamed.outcome.rejected as u64)),
            (
                "field_reject_rate",
                JsonValue::Number(streamed.outcome.field_reject_rate()),
            ),
            ("rows", JsonValue::Array(rows)),
        ]))
    }
}

/// One `metrics` record: the registry delta attributable to the query on
/// `line`.  Emitted after the query's response under `LSIQ_METRICS=json`;
/// replay tooling strips `"status":"metrics"` records before transcript
/// comparison, exactly like summary records.
fn metrics_record(line: usize, delta: &Snapshot) -> JsonValue {
    JsonValue::Object(vec![
        ("status".to_string(), string("metrics")),
        ("line".to_string(), number(line as u64)),
        ("counters".to_string(), names_json(&delta.counters)),
        ("gauges".to_string(), names_json(&delta.gauges)),
        ("spans".to_string(), spans_json(&delta.spans)),
        ("histograms".to_string(), histograms_json(&delta.histograms)),
    ])
}

/// A full registry dump as one JSON object (the summary's `registry`).
fn snapshot_json(snapshot: &Snapshot) -> JsonValue {
    JsonValue::Object(vec![
        ("counters".to_string(), names_json(&snapshot.counters)),
        ("gauges".to_string(), names_json(&snapshot.gauges)),
        ("spans".to_string(), spans_json(&snapshot.spans)),
        (
            "histograms".to_string(),
            histograms_json(&snapshot.histograms),
        ),
    ])
}

fn names_json(entries: &[(String, u64)]) -> JsonValue {
    JsonValue::Object(
        entries
            .iter()
            .map(|(name, value)| (name.clone(), number(*value)))
            .collect(),
    )
}

fn spans_json(entries: &[(String, lsiq_obs::SpanStat)]) -> JsonValue {
    JsonValue::Object(
        entries
            .iter()
            .map(|(name, stat)| {
                (
                    name.clone(),
                    object(vec![
                        ("count", number(stat.count)),
                        ("total_ns", number(stat.total_ns)),
                    ]),
                )
            })
            .collect(),
    )
}

fn histograms_json(entries: &[(String, Vec<(u32, u64)>)]) -> JsonValue {
    JsonValue::Object(
        entries
            .iter()
            .map(|(name, buckets)| {
                (
                    name.clone(),
                    JsonValue::Object(
                        buckets
                            .iter()
                            .map(|(bucket, count)| (format!("2^{bucket}"), number(*count)))
                            .collect(),
                    ),
                )
            })
            .collect(),
    )
}

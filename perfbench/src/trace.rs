//! The traced mode: each workload's pass re-run as its constituent public
//! calls, one span per call, plus attribution probes and the registry's
//! counter deltas.  Spans are recorded from outside the program; nothing
//! here adds tracing inside it.

use crate::workloads::{
    self, serve_config, Bench, LineFacts, PassOutcome, Workload, GRID_FORWARD, GRID_INVERSE,
    GRID_LOT_CHIPS, GRID_LOT_POINTS, WORKERS,
};
use crate::PER_LAYER;
use lsi_quality::bist::aliasing::AliasingReport;
use lsi_quality::bist::signature::SignatureDictionary;
use lsi_quality::bist::stumps::{StumpsConfig, StumpsGenerator};
use lsi_quality::fault::collapse::collapse_equivalence;
use lsi_quality::fault::coverage::CoverageCurve;
use lsi_quality::fault::dictionary::FaultDictionary;
use lsi_quality::fault::simulator::{BuildEngine, EngineOptions};
use lsi_quality::fault::universe::FaultUniverse;
use lsi_quality::manufacturing::lot::ModelLotConfig;
use lsi_quality::manufacturing::streaming::StreamingLotExecutor;
use lsi_quality::netlist::circuit::Circuit;
use lsi_quality::obs::Snapshot;
use lsi_quality::quality::coverage_requirement::required_fault_coverage;
use lsi_quality::quality::params::{FaultCoverage, ModelParams, RejectRate, Yield};
use lsi_quality::quality::reject::field_reject_rate;
use lsi_quality::sim::levelized::CompiledCircuit;
use lsi_quality::sim::pattern::PatternSet;
use lsi_quality::{BistSweepRow, BistSweepSpec, LineSpec, Session};
use lsiq_serve::artifact::{
    decode_signature_dictionary, encode_signature_dictionary, stable_fingerprint, ArtifactStore,
    SuiteArtifact,
};
use lsiq_serve::json::JsonValue;
use lsiq_serve::service::QueryService;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Repetitions of each `core` call in its probe: one call takes well under
/// a microsecond, below what a single clock read resolves.
const CORE_REPEATS: usize = 2_000;

/// One recorded call.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    pub name: &'static str,
    pub pass: u32,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl SpanRecord {
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// An in-memory span recorder; [`Tracer::write`] writes the spans out once
/// the run is over.
pub struct Tracer {
    origin: Instant,
    pass: u32,
    open: Vec<usize>,
    pub spans: Vec<SpanRecord>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            pass: 0,
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open span.
    pub fn open(&mut self, name: &'static str) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(SpanRecord {
            name,
            pass: self.pass,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(self.spans.len() - 1);
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: usize) {
        debug_assert_eq!(self.open.last(), Some(&id), "spans close innermost first");
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `call` inside a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, call: impl FnOnce() -> T) -> T {
        let id = self.open(name);
        let value = call();
        self.close(id);
        value
    }

    /// Starts the next pass: spans opened from now on carry its id.
    pub fn next_pass(&mut self) -> u32 {
        self.pass += 1;
        self.pass
    }

    /// A span's duration minus the part of it its children cover.
    pub fn self_ns(&self, id: usize) -> u64 {
        let mut children: Vec<(u64, u64)> = self
            .spans
            .iter()
            .filter(|span| span.parent == Some(id))
            .map(|span| (span.start_ns, span.end_ns))
            .collect();
        children.sort_unstable();
        let mut covered = 0;
        let mut reach = self.spans[id].start_ns;
        for (start, end) in children {
            let start = start.max(reach);
            if end > start {
                covered += end - start;
                reach = end;
            }
        }
        (self.spans[id].end_ns - self.spans[id].start_ns).saturating_sub(covered)
    }

    /// Sums the durations of `pass`'s spans by name.
    fn totals(&self, pass: u32) -> BTreeMap<&'static str, f64> {
        let mut totals = BTreeMap::new();
        for span in self.spans.iter().filter(|span| span.pass == pass) {
            *totals.entry(span.name).or_insert(0.0) += span.seconds();
        }
        totals
    }

    /// The duration of span `id` and the sum of its direct children's.
    fn covered(&self, id: usize) -> (f64, f64) {
        let children = self
            .spans
            .iter()
            .filter(|span| span.parent == Some(id))
            .map(SpanRecord::seconds)
            .sum();
        (self.spans[id].seconds(), children)
    }

    /// Writes every span as one JSON line with its self time.
    pub fn write(&self, path: &Path, workload: Workload, seed: u64) -> std::io::Result<()> {
        let mut text = String::new();
        for (id, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                text,
                r#"{{"workload":"{}","seed":{},"id":{},"name":"{}","pass":{},"parent":{},"start_ns":{},"end_ns":{},"self_ns":{}}}"#,
                workload.name(),
                seed,
                id,
                span.name,
                span.pass,
                parent,
                span.start_ns,
                span.end_ns,
                self.self_ns(id)
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, text)
    }
}

/// The per-layer figures of one traced pass, by metric name, plus the
/// pass's own wall time (`pass_s`) and the part its layer spans cover
/// (`covered_s`).
pub type Sample = BTreeMap<&'static str, f64>;

/// Runs one traced pass of `bench`'s workload with the registry on and
/// returns its outcome and figures.
pub fn traced_pass(tracer: &mut Tracer, bench: &Bench) -> (PassOutcome, Sample) {
    let pass = tracer.next_pass();
    let mut sample = Sample::new();
    let before = lsi_quality::obs::snapshot();
    let (outcome, pass_span, after) = match bench.workload {
        Workload::Table1Line => table1(tracer, bench.seed),
        Workload::BistSweep => bist(tracer, bench),
        Workload::ServeGrid => serve(tracer, bench, &mut sample),
    };
    let counters = after.delta_since(&before);
    let (pass_s, covered_s) = tracer.covered(pass_span);
    sample.insert("pass_s", pass_s);
    sample.insert("covered_s", covered_s);
    // A layer span's per-pass total is the metric named after it plus `_s`.
    for (span, total) in tracer.totals(pass) {
        if let Some((metric, _)) = PER_LAYER
            .iter()
            .find(|(metric, _)| metric.strip_suffix("_s") == Some(span))
        {
            sample.insert(metric, total);
        }
    }
    if let Some(stream_s) = sample.get("manufacturing.stream_s").copied() {
        let chips = (GRID_LOT_CHIPS * GRID_LOT_POINTS.len()) as f64;
        sample.insert("manufacturing.chips_per_s", chips / stream_s);
    }
    for (metric, per) in [
        ("core.forward_s", GRID_FORWARD.len()),
        ("core.inverse_s", GRID_INVERSE.len()),
    ] {
        if let Some(total) = sample.get_mut(metric) {
            *total /= (per * CORE_REPEATS) as f64;
        }
    }
    sample.insert("exec.jobs", counters.counter("pool.jobs") as f64);
    sample.insert(
        "exec.park_s",
        counters.counter("pool.park_ns") as f64 * 1e-9,
    );
    sample.insert(
        "exec.join_wait_s",
        counters.counter("pool.join_wait_ns") as f64 * 1e-9,
    );
    let hits = counters.counter("cache.good_machine.hits") as f64;
    let lookups = hits + counters.counter("cache.good_machine.misses") as f64;
    if lookups > 0.0 {
        sample.insert("sim.cache_hit_ratio", hits / lookups);
    }
    let faults = counters.counter("engine.faults") as f64;
    if faults > 0.0 {
        let drops = counters.counter("engine.drops") as f64;
        sample.insert("fault.faults", faults);
        sample.insert("fault.drops", drops);
        sample.insert("fault.drop_ratio", drops / faults);
    }
    if bench.workload == Workload::Table1Line {
        // The line builder grows its random phase one 64-pattern chunk per
        // engine run, so run `i` simulates `64 × i` patterns.
        let runs = counters.counter("engine.runs") as f64;
        let simulated = 64.0 * runs * (runs + 1.0) / 2.0;
        sample.insert("tpg.resim_ratio", simulated / 192.0);
    }
    if bench.workload == Workload::BistSweep {
        sample.insert(
            "bist.sweep_faults",
            counters.counter("bist.sweep.faults") as f64,
        );
    }
    (outcome, sample)
}

/// `Session::reproduce_table1`, call by call.
fn table1(tracer: &mut Tracer, seed: u64) -> (PassOutcome, usize, Snapshot) {
    let session = Session::new(workloads::run_config(WORKERS).with_base_seed(seed));
    let spec = LineSpec::table1();
    let pass = tracer.open("table1-line.pass");
    let circuit = tracer.time("netlist.build", || Session::reproduction_circuit(false));
    let universe = tracer.time("fault.universe", || FaultUniverse::full(&circuit));
    let suite = tracer.time("tpg.suite_build", || {
        session.line_suite_builder(&circuit).build_cached(
            Some(session.context()),
            Some(session.good_machine_cache()),
            &circuit,
            &universe,
        )
    });
    let coverage = tracer.time("fault.coverage_curve", || {
        CoverageCurve::from_fault_list(&suite.fault_list, suite.patterns.len())
    });
    let runner = session.lot_runner();
    let lot = tracer.time("manufacturing.generate", || {
        runner.generate_model_lot(&ModelLotConfig {
            chips: spec.chips,
            yield_fraction: spec.yield_fraction,
            n0: spec.n0,
            fault_universe_size: universe.len(),
            seed,
        })
    });
    let dictionary = tracer.time("fault.dictionary", || {
        FaultDictionary::from_fault_list(&suite.fault_list)
    });
    let records = tracer.time("manufacturing.test", || runner.test_lot(&dictionary, &lot));
    let checkpoints: Vec<usize> = (1..=coverage.pattern_count()).collect();
    let experiment = tracer.time("manufacturing.experiment", || {
        runner.experiment(&records, &coverage, &checkpoints)
    });
    tracer.close(pass);
    let after = lsi_quality::obs::snapshot();

    let outcome = LineFacts {
        universe_size: universe.len(),
        patterns: suite.patterns.len(),
        final_coverage: coverage.final_coverage(),
        observed_yield: lot.observed_yield(),
        observed_n0: lot.observed_n0(),
        rows: experiment.rows(),
    }
    .outcome();

    // Attribution probes: the suite build's collapsing, one engine run on
    // the final patterns (no cache, as the last build iteration misses it)
    // and the fault-free evaluation of those patterns.
    let probes = tracer.open("table1-line.probes");
    let collapse = tracer.time("fault.collapse", || collapse_equivalence(&circuit));
    let config = *session.config();
    let engine = config
        .engine_for_size(circuit.gate_count())
        .build_configured(
            &circuit,
            &EngineOptions {
                context: Some(session.context()),
                lanes: config.lanes(),
                cache: None,
                fault_dropping: true,
            },
        );
    tracer.time("fault.sim", || {
        black_box(engine.run(&collapse.collapsed, &suite.patterns))
    });
    let lanes = config.lanes().resolve(suite.patterns.len());
    tracer.time("sim.good_machine", || {
        good_machine(&circuit, &suite.patterns, lanes)
    });
    tracer.close(probes);
    (outcome, pass, after)
}

/// `Session::run_bist_sweep_on` with the reference spec, call by call.
fn bist(tracer: &mut Tracer, bench: &Bench) -> (PassOutcome, usize, Snapshot) {
    let session = Session::new(workloads::run_config(WORKERS).with_base_seed(bench.seed));
    let spec = BistSweepSpec::reference();
    let device = bench.device();
    let params = model(spec.yield_fraction, spec.n0);
    let max_length = *spec
        .test_lengths
        .iter()
        .max()
        .expect("lengths are non-empty");
    let pass = tracer.open("bist-sweep.pass");
    let universe = tracer.time("fault.universe", || FaultUniverse::full(device));
    let patterns = tracer.time("bist.stumps", || {
        StumpsGenerator::try_new(&StumpsConfig {
            width: device.primary_inputs().len(),
            channels: spec.channels,
            degree: 64,
            seed: bench.seed,
        })
        .expect("the reference STUMPS geometry is valid")
        .generate(max_length)
    });
    let grid = tracer.time("bist.sweep", || {
        SignatureDictionary::build_sweep_cached(
            session.context(),
            device,
            &universe,
            &patterns,
            spec.session_len,
            &spec.signature_widths,
            &spec.test_lengths,
            session.config().lanes(),
            Some(session.good_machine_cache()),
        )
    });
    let rows = tracer.time("bist.aliasing", || {
        let mut rows = Vec::new();
        for (dictionaries, &test_length) in grid.iter().zip(&spec.test_lengths) {
            for dictionary in dictionaries {
                let report = AliasingReport::from_dictionary(dictionary);
                rows.push(BistSweepRow {
                    test_length,
                    signature_width: dictionary.signature_width(),
                    sessions: dictionary.sessions(),
                    raw_coverage: report.raw_coverage(),
                    effective_coverage: report.effective_coverage(),
                    aliased: report.aliased,
                    aliasing_fraction: report.aliasing_fraction(),
                    estimated_aliasing_fraction: report.estimated_aliasing_fraction(),
                    defect_level_raw: defect_level(&params, report.raw_coverage()),
                    defect_level_effective: defect_level(&params, report.effective_coverage()),
                });
            }
        }
        rows
    });
    tracer.close(pass);
    let after = lsi_quality::obs::snapshot();
    let outcome = PassOutcome::of_digest(workloads::sweep_digest(universe.len(), &rows));

    let probes = tracer.open("bist-sweep.probes");
    tracer.time("netlist.build", || {
        black_box(Bench::bist_device(bench.seed))
    });
    let lanes = session.config().lanes().resolve(patterns.len());
    tracer.time("sim.good_machine", || {
        good_machine(device, &patterns, lanes)
    });
    tracer.close(probes);
    (outcome, pass, after)
}

/// The serve grid as the protocol loop runs it: parse, then one `handle`
/// per query on a fresh service over the warm artifact directory.
fn serve(
    tracer: &mut Tracer,
    bench: &Bench,
    sample: &mut Sample,
) -> (PassOutcome, usize, Snapshot) {
    let store = ArtifactStore::at(&bench.artifact_dir).expect("artifact directory is writable");
    let service = QueryService::new(Session::new(serve_config(WORKERS)), store);
    let pass = tracer.open("serve-grid.pass");
    let requests: Vec<JsonValue> = tracer.time("serve.parse", || {
        bench
            .grid
            .iter()
            .map(|line| JsonValue::parse(line).expect("grid requests are well-formed JSON"))
            .collect()
    });
    let mut responses = Vec::with_capacity(requests.len());
    for (index, request) in requests.iter().enumerate() {
        let span = match request.get("op").and_then(JsonValue::as_str) {
            Some("forward") => "serve.op_forward",
            Some("inverse") => "serve.op_inverse",
            Some("line") => "serve.op_line",
            Some("bist") => "serve.op_bist",
            _ => "serve.op_lot",
        };
        responses.push(tracer.time(span, || service.handle(request, Some(index + 1)).to_line()));
    }
    tracer.close(pass);
    let after = lsi_quality::obs::snapshot();
    let outcome = PassOutcome {
        fault_sim_passes: service.fault_sim_passes(),
        ..workloads::transcript_outcome(responses.iter().map(String::as_str))
    };
    let (hits, misses) = (service.artifacts().hits(), service.artifacts().misses());
    sample.insert(
        "serve.artifact_hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    sample.insert("serve.fault_sim_passes", service.fault_sim_passes() as f64);

    let probes = tracer.open("serve-grid.probes");
    serve_probes(tracer, bench, service.session());
    tracer.close(probes);
    (outcome, pass, after)
}

/// Times the calls `handle` makes inside the serve pass one by one: the
/// device compile, artifact reads and decodes, the writes and encodes of
/// the cold build, the `core` model calls, and the lots, both streamed and
/// through the in-memory pipeline.
fn serve_probes(tracer: &mut Tracer, bench: &Bench, session: &Session) {
    let circuit = tracer.time("netlist.build", || Session::reproduction_circuit(false));
    let fingerprint = stable_fingerprint(&circuit);
    let universe_size = FaultUniverse::full(&circuit).len();
    let mut artifacts: Vec<(String, u64)> = std::fs::read_dir(&bench.artifact_dir)
        .expect("artifact directory is readable")
        .filter_map(|entry| {
            let name = entry.ok()?.file_name().into_string().ok()?;
            let (kind, key) = name.strip_suffix(".lsiqart")?.split_once('-')?;
            Some((kind.to_string(), u64::from_str_radix(key, 16).ok()?))
        })
        .collect();
    artifacts.sort();
    let store = ArtifactStore::at(&bench.artifact_dir).expect("artifact directory is writable");
    let payloads: Vec<Vec<u8>> = tracer.time("serve.artifact_load", || {
        artifacts
            .iter()
            .map(|(kind, key)| {
                store
                    .load(kind, *key, fingerprint)
                    .expect("warm artifact loads")
            })
            .collect()
    });
    let mut suite = None;
    let mut dictionaries = Vec::new();
    tracer.time("serve.decode", || {
        for ((kind, _), payload) in artifacts.iter().zip(&payloads) {
            if kind == "suite" {
                suite = Some(SuiteArtifact::decode(payload).expect("suite artifact decodes"));
            } else {
                dictionaries
                    .push(decode_signature_dictionary(payload).expect("dictionary decodes"));
            }
        }
    });
    let suite = suite.expect("the warm directory holds the line suite");
    let encoded = tracer.time("serve.encode", || {
        let mut encoded = vec![suite.encode()];
        encoded.extend(dictionaries.iter().map(encode_signature_dictionary));
        encoded
    });
    let probe_dir = bench.artifact_dir.with_extension("probe");
    let probe_store = ArtifactStore::at(&probe_dir).expect("probe directory is writable");
    tracer.time("serve.artifact_store", || {
        for ((kind, key), payload) in artifacts.iter().zip(&payloads) {
            probe_store.store(kind, *key, fingerprint, payload);
        }
    });
    black_box(encoded);
    let _ = std::fs::remove_dir_all(&probe_dir);

    tracer.time("core.forward", || {
        for _ in 0..CORE_REPEATS {
            for (y, n0, coverage) in GRID_FORWARD {
                let params = model(black_box(y), black_box(n0));
                let coverage =
                    FaultCoverage::new(black_box(coverage)).expect("grid coverage is a fraction");
                black_box(field_reject_rate(&params, coverage));
            }
        }
    });
    tracer.time("core.inverse", || {
        for _ in 0..CORE_REPEATS {
            for (y, n0, target) in GRID_INVERSE {
                let params = model(black_box(y), black_box(n0));
                let target = RejectRate::new(black_box(target)).expect("grid target is a fraction");
                black_box(required_fault_coverage(&params, target).expect("solvable"));
            }
        }
    });

    let dictionary = suite.dictionary();
    let coverage = suite.coverage();
    let lot = |index: usize| {
        let (yield_fraction, n0) = GRID_LOT_POINTS[index];
        ModelLotConfig {
            chips: GRID_LOT_CHIPS,
            yield_fraction,
            n0,
            fault_universe_size: universe_size,
            seed: workloads::lot_seed(bench.seed, index as u64),
        }
    };
    let executor = StreamingLotExecutor::with_context(session.context());
    tracer.time("manufacturing.stream", || {
        for index in 0..GRID_LOT_POINTS.len() {
            black_box(executor.stream_model_lot(
                &lot(index),
                &dictionary,
                &coverage,
                &[coverage.pattern_count()],
            ));
        }
    });
    let runner = session.lot_runner();
    let chips = tracer.time("manufacturing.generate", || {
        runner.generate_model_lot(&lot(0))
    });
    let records = tracer.time("manufacturing.test", || {
        runner.test_lot(&dictionary, &chips)
    });
    tracer.time("manufacturing.experiment", || {
        black_box(runner.experiment(&records, &coverage, &[coverage.pattern_count()]))
    });
}

fn model(yield_fraction: f64, n0: f64) -> ModelParams {
    ModelParams::new(
        Yield::new(yield_fraction).expect("grid yield is a fraction"),
        n0,
    )
    .expect("grid n0 is at least 1")
}

fn defect_level(params: &ModelParams, coverage: f64) -> f64 {
    field_reject_rate(
        params,
        FaultCoverage::new(coverage.clamp(0.0, 1.0)).expect("clamped into range"),
    )
    .value()
}

/// Evaluates the fault-free circuit over every chunk of `patterns` at the
/// lane width the engines resolve to.
fn good_machine(circuit: &Circuit, patterns: &PatternSet, lanes: usize) -> usize {
    fn chunks<const L: usize>(circuit: &Circuit, patterns: &PatternSet) -> usize {
        let compiled = CompiledCircuit::new(circuit);
        let width = circuit.primary_inputs().len();
        let mut evaluated = 0;
        for chunk in 0..patterns.chunk_count(L) {
            let (inputs, count) = patterns.pack_chunk::<L>(width, chunk);
            black_box(compiled.node_chunks::<L>(&inputs));
            evaluated += count;
        }
        evaluated
    }
    match lanes {
        1 => chunks::<1>(circuit, patterns),
        4 => chunks::<4>(circuit, patterns),
        _ => chunks::<8>(circuit, patterns),
    }
}

//! The two telemetry invariants of `lsiq-obs` (`docs/OBSERVABILITY.md`):
//!
//! 1. **Sharded-merge determinism** — the engine counter totals
//!    (`engine.runs` / `engine.faults` / `engine.good_evals` /
//!    `engine.drops`) are placed at worker-count-invariant points, so the
//!    merged registry totals are identical whether a run used 1, 2 or
//!    2×cores workers.  (Span *timings* and per-shard span counts
//!    legitimately vary with the ladder and are not pinned.)
//! 2. **Recording never changes results** — every numeric output is
//!    byte-identical with `LSIQ_METRICS=json` and with the default `off`,
//!    across engines, lots and worker counts.
//!
//! The metrics mode and registry are process-global, so every test in this
//! file serializes on one lock and restores `Off` before releasing it.

use lsi_quality::bist::signature::SignatureDictionary;
use lsi_quality::exec::ExecutionContext;
use lsi_quality::fault::deductive::DeductiveSimulator;
use lsi_quality::fault::dictionary::FaultDictionary;
use lsi_quality::fault::incremental::IncrementalSimulator;
use lsi_quality::fault::serial::SerialSimulator;
use lsi_quality::fault::simulator::FaultSimulator;
use lsi_quality::fault::universe::FaultUniverse;
use lsi_quality::manufacturing::lot::{ChipLot, ModelLotConfig};
use lsi_quality::manufacturing::pipeline::ParallelLotRunner;
use lsi_quality::netlist::library;
use lsi_quality::obs::{self, MetricsMode, Snapshot};
use lsi_quality::sim::pattern::{Pattern, PatternSet};
use std::sync::Mutex;

/// Serializes every test here on the process-global mode and registry.
static MODE_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    MODE_LOCK
        .lock()
        .unwrap_or_else(|poison| poison.into_inner())
}

fn patterns(width: usize, count: usize) -> PatternSet {
    (0..count)
        .map(|v| Pattern::from_integer(v as u64 * 7 + 3, width))
        .collect()
}

/// The four worker-invariant engine totals, in catalogue order.
fn engine_totals(snapshot: &Snapshot) -> [u64; 4] {
    [
        snapshot.counter("engine.runs"),
        snapshot.counter("engine.faults"),
        snapshot.counter("engine.good_evals"),
        snapshot.counter("engine.drops"),
    ]
}

#[test]
fn sharded_merge_totals_are_worker_count_invariant() {
    let _guard = lock();
    let circuit = library::alu4();
    let universe = FaultUniverse::full(&circuit);
    let patterns = patterns(circuit.primary_inputs().len(), 48);
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    obs::set_mode(MetricsMode::Json);
    let mut reference: Option<[u64; 4]> = None;
    for workers in [1, 2, 2 * cores] {
        let context = ExecutionContext::new(workers);
        obs::reset();
        let incremental = IncrementalSimulator::new(&circuit)
            .with_context(&context)
            .run(&universe, &patterns);
        let undropped = IncrementalSimulator::new(&circuit)
            .with_context(&context)
            .with_fault_dropping(false)
            .run(&universe, &patterns);
        assert_eq!(incremental, undropped);
        let totals = engine_totals(&obs::snapshot());
        assert!(
            totals.iter().all(|&t| t > 0),
            "{workers} workers: {totals:?}"
        );
        match reference {
            None => reference = Some(totals),
            Some(expected) => assert_eq!(
                expected, totals,
                "registry totals drifted at {workers} workers"
            ),
        }
    }
    obs::set_mode(MetricsMode::Off);
}

#[test]
fn the_signature_sweep_records_no_engine_counters() {
    // The sweep propagates faults with the incremental engine's cone
    // kernel, but it is not an engine run: its work is counted under
    // `bist.sweep.*` only.
    let _guard = lock();
    let circuit = library::alu4();
    let universe = FaultUniverse::full(&circuit);
    let patterns = patterns(circuit.primary_inputs().len(), 96);
    obs::reset();
    obs::set_mode(MetricsMode::Json);
    let sweep = SignatureDictionary::build_sweep_in(
        &ExecutionContext::new(2),
        &circuit,
        &universe,
        &patterns,
        32,
        &[8, 16],
        &[64, 96],
    );
    let recorded = obs::snapshot();
    obs::set_mode(MetricsMode::Off);
    assert!(sweep[1][1].raw_detected_count() > 0, "vacuous sweep");
    assert_eq!(recorded.counter("bist.sweep.faults"), universe.len() as u64);
    assert_eq!(engine_totals(&recorded), [0; 4]);
}

#[test]
fn recording_never_changes_engine_results() {
    let _guard = lock();
    let circuit = library::alu4();
    let universe = FaultUniverse::full(&circuit);
    let patterns = patterns(circuit.primary_inputs().len(), 32);

    // Reference pass with telemetry hard off (registry zeroed so the
    // "nothing was recorded" assertion is not polluted by earlier tests
    // in this process).
    obs::set_mode(MetricsMode::Off);
    obs::reset();
    let off: Vec<_> = run_all_engines(&circuit, &universe, &patterns);
    let silent = obs::snapshot();

    // Identical pass with recording on.
    obs::reset();
    obs::set_mode(MetricsMode::Json);
    let json: Vec<_> = run_all_engines(&circuit, &universe, &patterns);
    let recorded = obs::snapshot();
    obs::set_mode(MetricsMode::Off);

    assert_eq!(off, json, "fault lists must be byte-identical");
    // The off pass recorded nothing; the json pass recorded every engine.
    assert_eq!(engine_totals(&silent), [0; 4]);
    assert_eq!(recorded.counter("engine.runs"), 3);
    assert!(recorded.counter("engine.faults") >= 3 * universe_classes_floor(&universe));
}

fn universe_classes_floor(universe: &FaultUniverse) -> u64 {
    // Collapsing engines count equivalence classes, not raw faults; the
    // class count is a floor for every engine's per-run contribution.
    (universe.len() as u64) / 4
}

fn run_all_engines(
    circuit: &lsi_quality::netlist::circuit::Circuit,
    universe: &FaultUniverse,
    patterns: &PatternSet,
) -> Vec<Vec<Option<usize>>> {
    let runs: [Box<dyn Fn() -> lsi_quality::fault::list::FaultList>; 3] = [
        Box::new(|| SerialSimulator::new(circuit).run(universe, patterns)),
        Box::new(|| DeductiveSimulator::new(circuit).run(universe, patterns)),
        Box::new(|| IncrementalSimulator::new(circuit).run(universe, patterns)),
    ];
    runs.iter()
        .map(|run| {
            let list = run();
            (0..list.len())
                .map(|index| list.state(index).first_pattern())
                .collect()
        })
        .collect()
}

#[test]
fn recording_never_changes_lot_results() {
    let _guard = lock();
    let circuit = library::c17();
    let universe = FaultUniverse::full(&circuit);
    let patterns = patterns(circuit.primary_inputs().len(), 16);
    let list = IncrementalSimulator::new(&circuit).run(&universe, &patterns);
    let dictionary = FaultDictionary::from_fault_list(&list);
    let config = ModelLotConfig {
        chips: 200,
        yield_fraction: 0.25,
        n0: 4.0,
        fault_universe_size: universe.len(),
        seed: 1981,
    };
    let runner = ParallelLotRunner::new().with_threads(4);

    obs::set_mode(MetricsMode::Off);
    let lot_off = ChipLot::from_model(&config);
    let records_off = runner.test_lot(&dictionary, &lot_off);

    obs::reset();
    obs::set_mode(MetricsMode::Json);
    let lot_json = ChipLot::from_model(&config);
    let records_json = runner.test_lot(&dictionary, &lot_json);
    obs::set_mode(MetricsMode::Off);

    assert_eq!(lot_off, lot_json);
    assert_eq!(records_off, records_json);
}

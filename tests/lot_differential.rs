//! Seeded differential property test for the parallel production-line
//! pipeline, in the style of `tests/engine_differential.rs`.
//!
//! Each case draws a random lot configuration (chip count, yield, `n0`,
//! fault-universe size, seed — and for physical lots a clustered defect
//! model) plus a thread count, then requires the `ParallelLotRunner` to
//! produce *byte-identical* results to the serial path at every stage:
//! the generated `ChipLot`, the wafer-test records, the `FieldOutcome`,
//! and the full-resolution `RejectExperiment`.  A final block pins whole
//! `LotSweep` grids to their serial fan-out.
//!
//! The case count is 60 in release builds; debug builds run a reduced sweep
//! so plain `cargo test` stays fast.
//!
//! A second block replays the pipeline through the Session-era typed API —
//! runners and sweeps bound to persistent `ExecutionContext` pools at 1, 2
//! and 2×cores workers, and (in release builds) whole
//! `Session::run_production_line` passes — and demands the same
//! byte-identity.

use lsi_quality::exec::{ExecutionContext, RunConfig};
use lsi_quality::fault::coverage::CoverageCurve;
use lsi_quality::fault::dictionary::FaultDictionary;
use lsi_quality::fault::incremental::IncrementalSimulator;
use lsi_quality::fault::simulator::FaultSimulator;
use lsi_quality::fault::universe::FaultUniverse;
use lsi_quality::manufacturing::defect::DefectModel;
use lsi_quality::manufacturing::experiment::RejectExperiment;
use lsi_quality::manufacturing::field::FieldOutcome;
use lsi_quality::manufacturing::lot::{ChipLot, ModelLotConfig, PhysicalLotConfig};
use lsi_quality::manufacturing::pipeline::{LotSweep, ParallelLotRunner};
use lsi_quality::manufacturing::tester::WaferTester;
use lsi_quality::netlist::library;
use lsi_quality::sim::pattern::{Pattern, PatternSet};
use lsi_quality::stats::rng::{Rng, SplitMix64};
use lsi_quality::{LineSpec, Session};

#[cfg(debug_assertions)]
const CASES: u64 = 16;
#[cfg(not(debug_assertions))]
const CASES: u64 = 60;

/// The shared test programme: an exhaustive-ish pattern set over c17, enough
/// to exercise first-fail bookkeeping without dominating the runtime.
fn fixture() -> (FaultDictionary, CoverageCurve, usize) {
    let circuit = library::c17();
    let universe = FaultUniverse::full(&circuit);
    let patterns: PatternSet = (0..24)
        .map(|v| Pattern::from_integer(v * 3 + 1, 5))
        .collect();
    let list = IncrementalSimulator::new(&circuit).run(&universe, &patterns);
    (
        FaultDictionary::from_fault_list(&list),
        CoverageCurve::from_fault_list(&list, patterns.len()),
        universe.len(),
    )
}

/// Deterministically derives case `index` from the suite seed.
struct Case {
    label: String,
    threads: usize,
    chips: usize,
    seed: u64,
    yield_fraction: f64,
    n0: f64,
    clustering: f64,
    extra_faults_per_defect: f64,
}

fn build_case(index: u64) -> Case {
    let mut rng = SplitMix64::seed_from_u64(0x0198_1707 ^ index);
    let threads = 2 + (rng.next_u64() % 7) as usize; // 2..=8

    // Most lots are big enough to actually shard (the runner folds lots
    // below its 128-item shard minimum back to one thread); every fourth
    // case stays small — down to empty — to keep the edge paths covered.
    let chips = if index % 4 == 0 {
        (rng.next_u64() % 100) as usize // 0..=99, serial fold-back
    } else {
        300 + (rng.next_u64() % 900) as usize // 300..=1199, 2+ shards
    };
    let seed = rng.next_u64();
    let yield_fraction = rng.next_f64(); // anywhere in [0, 1)
    let n0 = 1.0 + rng.next_f64() * 9.0; // 1..10
    let clustering = 0.25 + rng.next_f64() * 2.0;
    let extra_faults_per_defect = rng.next_f64() * 4.0;
    Case {
        label: format!(
            "case {index}: {chips} chips, y = {yield_fraction:.3}, n0 = {n0:.2}, \
             {threads} threads"
        ),
        threads,
        chips,
        seed,
        yield_fraction,
        n0,
        clustering,
        extra_faults_per_defect,
    }
}

#[test]
fn parallel_pipeline_is_byte_identical_to_serial() {
    let (dictionary, coverage, universe_size) = fixture();
    // 300 checkpoints (clamped to the curve past pattern 24) force the
    // experiment tabulation itself over the runner's 128-item shard minimum,
    // so the checkpoint-range slicing really runs multi-threaded here.
    let checkpoints: Vec<usize> = (1..=300).collect();
    for index in 0..CASES {
        let case = build_case(index);
        let runner = ParallelLotRunner::new().with_threads(case.threads);

        // Model lot: generation, test, field outcome, reject table.
        let model_config = ModelLotConfig {
            chips: case.chips,
            yield_fraction: case.yield_fraction,
            n0: case.n0,
            fault_universe_size: universe_size,
            seed: case.seed,
        };
        let serial_lot = ChipLot::from_model(&model_config);
        let parallel_lot = runner.generate_model_lot(&model_config);
        assert_eq!(serial_lot, parallel_lot, "model lot: {}", case.label);

        let serial_records = WaferTester::new(&dictionary).test_lot(&serial_lot);
        let parallel_records = runner.test_lot(&dictionary, &parallel_lot);
        assert_eq!(serial_records, parallel_records, "records: {}", case.label);
        assert_eq!(
            FieldOutcome::from_records(&serial_records),
            FieldOutcome::from_records(&parallel_records),
            "field outcome: {}",
            case.label
        );

        let serial_experiment =
            RejectExperiment::tabulate(&serial_records, &coverage, &checkpoints);
        let parallel_experiment = runner.experiment(&parallel_records, &coverage, &checkpoints);
        assert_eq!(
            serial_experiment, parallel_experiment,
            "experiment: {}",
            case.label
        );

        // Physical lot: generation through the defect pipeline.
        let target_yield = (0.05 + case.yield_fraction * 0.9).clamp(0.05, 0.95);
        let physical_config = PhysicalLotConfig {
            chips: case.chips,
            defect_model: DefectModel::for_target_yield(target_yield, case.clustering)
                .expect("valid defect model"),
            extra_faults_per_defect: case.extra_faults_per_defect,
            fault_universe_size: universe_size,
            seed: case.seed ^ 0xABCD,
        };
        let serial_physical = ChipLot::from_physical(&physical_config);
        let parallel_physical = runner.generate_physical_lot(&physical_config);
        assert_eq!(
            serial_physical, parallel_physical,
            "physical lot: {}",
            case.label
        );
    }
}

#[test]
fn context_bound_runners_are_byte_identical_to_serial() {
    // The typed path: one persistent pool per worker count (1, 2, 2×cores),
    // reused across every case — as a Session reuses its pool across a whole
    // campaign — with byte-identical results at every stage.
    let (dictionary, coverage, universe_size) = fixture();
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let contexts: Vec<ExecutionContext> = [1, 2, 2 * cores].map(ExecutionContext::new).into();
    let checkpoints: Vec<usize> = (1..=300).collect();
    for index in 0..CASES.min(12) {
        let case = build_case(index);
        let model_config = ModelLotConfig {
            chips: case.chips,
            yield_fraction: case.yield_fraction,
            n0: case.n0,
            fault_universe_size: universe_size,
            seed: case.seed,
        };
        let serial_lot = ChipLot::from_model(&model_config);
        let serial_records = WaferTester::new(&dictionary).test_lot(&serial_lot);
        let serial_experiment =
            RejectExperiment::tabulate(&serial_records, &coverage, &checkpoints);
        for context in &contexts {
            let runner = ParallelLotRunner::with_context(context);
            let label = format!("{}, {} workers", case.label, context.workers());
            assert_eq!(
                serial_lot,
                runner.generate_model_lot(&model_config),
                "{label}"
            );
            assert_eq!(
                serial_records,
                runner.test_lot(&dictionary, &serial_lot),
                "{label}"
            );
            assert_eq!(
                serial_experiment,
                runner.experiment(&serial_records, &coverage, &checkpoints),
                "{label}"
            );
        }
    }
}

#[test]
fn session_production_line_is_worker_count_invariant() {
    // A whole Session::run_production_line pass — suite build, lot
    // generation, wafer test, streamed tabulation — at several worker
    // counts.  The full pass is expensive, so debug builds skip it (the
    // release CI jobs run it).
    if cfg!(debug_assertions) {
        eprintln!("skipped in debug builds; run with --release");
        return;
    }
    let spec = LineSpec {
        chips: 150,
        yield_fraction: 0.3,
        n0: 4.0,
        full_size: false,
    };
    let reference = Session::new(RunConfig::default().with_workers(1).with_base_seed(7))
        .run_production_line(&spec)
        .expect("no scan configured");
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    for workers in [2, 2 * cores] {
        let session = Session::new(RunConfig::default().with_workers(workers).with_base_seed(7));
        let line = session
            .run_production_line(&spec)
            .expect("no scan configured");
        assert_eq!(
            reference.suite.patterns.as_slice(),
            line.suite.patterns.as_slice(),
            "{workers} workers"
        );
        assert_eq!(reference.suite.fault_list, line.suite.fault_list);
        assert_eq!(reference.coverage, line.coverage, "{workers} workers");
        assert_eq!(reference.experiment, line.experiment, "{workers} workers");
        assert_eq!(reference.observed_yield, line.observed_yield);
        assert_eq!(reference.observed_n0, line.observed_n0);
    }
    // reproduce_table1 pins the paper's lot: 277 chips at the 1981 seed.
    let table1 = Session::new(RunConfig::default().with_workers(2))
        .reproduce_table1()
        .expect("no scan configured");
    assert_eq!(table1.experiment.total_chips(), 277);
}

#[test]
fn lot_generation_is_order_independent() {
    // The per-chip streams make each chip a pure function of (config, id):
    // a prefix of a bigger lot equals the smaller lot, chip for chip — the
    // property the sharding relies on.
    let config = ModelLotConfig {
        chips: 120,
        yield_fraction: 0.2,
        n0: 5.0,
        fault_universe_size: 800,
        seed: 3,
    };
    let small = ChipLot::from_model(&config);
    let big = ChipLot::from_model(&ModelLotConfig {
        chips: 300,
        ..config
    });
    assert_eq!(small.chips(), &big.chips()[..120]);
}

#[test]
fn sweep_fan_out_is_byte_identical_to_serial() {
    let (dictionary, coverage, universe_size) = fixture();
    for suite_seed in 0..4u64 {
        let mut rng = SplitMix64::seed_from_u64(0x5EED ^ suite_seed);
        let yields: Vec<f64> = (0..3).map(|_| 0.05 + rng.next_f64() * 0.6).collect();
        let n0s: Vec<f64> = (0..3).map(|_| 1.0 + rng.next_f64() * 8.0).collect();
        let points = LotSweep::grid(&yields, &n0s);
        let base = LotSweep {
            chips: 80,
            fault_universe_size: universe_size,
            base_seed: rng.next_u64(),
            threads: 1,
            context: None,
        };
        let serial = base.run(&dictionary, &coverage, &points);
        for threads in [2, 4, 16] {
            let fanned = LotSweep { threads, ..base }.run(&dictionary, &coverage, &points);
            assert_eq!(serial, fanned, "sweep seed {suite_seed}, {threads} threads");
        }
        // The same grid fanned over persistent pools (the Session path).
        for workers in [2, 5] {
            let context = ExecutionContext::new(workers);
            let pooled = LotSweep { threads: 0, ..base }.with_context(&context).run(
                &dictionary,
                &coverage,
                &points,
            );
            assert_eq!(serial, pooled, "sweep seed {suite_seed}, {workers} workers");
        }
    }
}

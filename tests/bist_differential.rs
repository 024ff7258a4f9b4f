//! Differential tests for the BIST subsystem, in the style of
//! `tests/lot_differential.rs`: every parallel or configurable stage must be
//! *byte-identical* across worker counts and fault-simulation engines.
//!
//! * the `SignatureDictionary` build (fault-sharded over the pool) at 1, 2
//!   and 2×cores workers,
//! * lot outcomes tested against its readout dictionary through
//!   `ParallelLotRunner::test_lot` at the same worker ladder,
//! * a suite-driven BIST line on alu4 across all three engines (the suite,
//!   and therefore every signature, must not depend on the engine), and
//! * the sweep rows `Session::run_bist_sweep_on` counts from its one pass's
//!   records against the reports of the dictionaries `build_sweep_cached`
//!   lays out, cell by cell, at every worker count and lane width, and
//! * (release builds) whole `Session::run_production_line` passes in BIST
//!   mode across engines and worker counts on the reproduction device.

use lsi_quality::bist::aliasing::AliasingReport;
use lsi_quality::bist::signature::{BistPlan, SignatureDictionary};
use lsi_quality::bist::stumps::{StumpsConfig, StumpsGenerator};
use lsi_quality::exec::{EngineKind, ExecutionContext, LaneWidth, RunConfig, TestMode};
use lsi_quality::fault::universe::FaultUniverse;
use lsi_quality::manufacturing::lot::ModelLotConfig;
use lsi_quality::manufacturing::pipeline::ParallelLotRunner;
use lsi_quality::netlist::circuit::Circuit;
use lsi_quality::netlist::generator::pipelined_datapath;
use lsi_quality::netlist::library::{self, sequential_lsi_class, LsiClassConfig};
use lsi_quality::netlist::scan::insert_scan;
use lsi_quality::quality::params::{ModelParams, Yield};
use lsi_quality::tpg::suite::TestSuiteBuilder;
use lsi_quality::{BistSweepRow, BistSweepSpec, LineSpec, Session, PROGRAMME_SEED};

fn cores() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

fn worker_ladder() -> [usize; 3] {
    [1, 2, 2 * cores()]
}

#[test]
fn signature_dictionary_is_worker_count_invariant() {
    let circuit = library::alu4();
    let universe = FaultUniverse::full(&circuit);
    let patterns = StumpsGenerator::new(&StumpsConfig::with_width(
        circuit.primary_inputs().len(),
        42,
    ))
    .generate(128);
    let plan = BistPlan {
        session_len: 32,
        signature_width: 8,
    };
    let reference = SignatureDictionary::build_in(
        &ExecutionContext::new(1),
        &circuit,
        &universe,
        &patterns,
        &plan,
    );
    for workers in worker_ladder() {
        let context = ExecutionContext::new(workers);
        // Two builds per context: the pool is reused, not respawned.
        for _ in 0..2 {
            let dictionary =
                SignatureDictionary::build_in(&context, &circuit, &universe, &patterns, &plan);
            assert_eq!(reference, dictionary, "workers = {workers}");
        }
    }
}

#[test]
fn signature_tester_lot_outcomes_are_worker_count_invariant() {
    let circuit = library::alu4();
    let universe = FaultUniverse::full(&circuit);
    let patterns =
        StumpsGenerator::new(&StumpsConfig::with_width(circuit.primary_inputs().len(), 7))
            .generate(96);
    let dictionary = SignatureDictionary::build_in(
        &ExecutionContext::new(1),
        &circuit,
        &universe,
        &patterns,
        &BistPlan {
            session_len: 16,
            signature_width: 8,
        },
    )
    .readout_dictionary(patterns.len());
    let serial = ParallelLotRunner::default();
    let lot = serial.generate_model_lot(&ModelLotConfig {
        chips: 900,
        yield_fraction: 0.25,
        n0: 5.0,
        fault_universe_size: universe.len(),
        seed: 3,
    });
    let reference = serial.test_lot(&dictionary, &lot);
    for workers in worker_ladder() {
        let context = ExecutionContext::new(workers);
        let records = ParallelLotRunner::with_context(&context).test_lot(&dictionary, &lot);
        assert_eq!(reference, records, "workers = {workers}");
    }
}

#[test]
fn suite_driven_bist_outcomes_are_engine_invariant() {
    // The ordered suite must not depend on the engine that evaluated it, so
    // neither can anything downstream: the signature dictionary built over
    // the suite's patterns, nor the lot outcomes tested against it.
    let circuit = library::alu4();
    let universe = FaultUniverse::full(&circuit);
    let plan = BistPlan {
        session_len: 16,
        signature_width: 16,
    };
    let runner = ParallelLotRunner::default();
    let lot = runner.generate_model_lot(&ModelLotConfig {
        chips: 600,
        yield_fraction: 0.3,
        n0: 4.0,
        fault_universe_size: universe.len(),
        seed: 11,
    });
    let mut reference = None;
    for engine in EngineKind::ALL {
        let suite = TestSuiteBuilder {
            engine,
            ..TestSuiteBuilder::default()
        }
        .build(&circuit, &universe);
        let dictionary = SignatureDictionary::build_in(
            &ExecutionContext::new(1),
            &circuit,
            &universe,
            &suite.patterns,
            &plan,
        );
        let records = runner.test_lot(&dictionary.readout_dictionary(suite.patterns.len()), &lot);
        match &reference {
            None => reference = Some((suite.patterns.clone(), dictionary, records)),
            Some((patterns, reference_dictionary, reference_records)) => {
                assert_eq!(patterns.as_slice(), suite.patterns.as_slice(), "{engine}");
                assert_eq!(reference_dictionary, &dictionary, "{engine}");
                assert_eq!(reference_records, &records, "{engine}");
            }
        }
    }
}

#[test]
fn signature_sweep_is_lane_and_cache_invariant_across_the_worker_ladder() {
    // The packed-lane layer under the BIST stack: the whole sweep grid —
    // signatures, first-failure patterns, session snapshots — must be
    // byte-identical at lanes 1, 4 and 8, at every worker count, and with
    // a shared GoodMachineCache replaying the fault-free simulation.
    use lsi_quality::exec::LaneWidth;
    use lsi_quality::sim::cache::GoodMachineCache;

    let circuit = library::alu4();
    let universe = FaultUniverse::full(&circuit);
    let patterns = StumpsGenerator::new(&StumpsConfig::with_width(
        circuit.primary_inputs().len(),
        1981,
    ))
    .generate(160);
    let widths = [8u32, 16];
    let lengths = [48usize, 100, 160];
    let reference = SignatureDictionary::build_sweep_cached(
        &ExecutionContext::new(1),
        &circuit,
        &universe,
        &patterns,
        32,
        &widths,
        &lengths,
        LaneWidth::Auto,
        None,
    );
    let cache = GoodMachineCache::new();
    for lanes in LaneWidth::EXPLICIT {
        for workers in worker_ladder() {
            let context = ExecutionContext::new(workers);
            let sweep = SignatureDictionary::build_sweep_cached(
                &context,
                &circuit,
                &universe,
                &patterns,
                32,
                &widths,
                &lengths,
                lanes,
                Some(&cache),
            );
            assert_eq!(reference, sweep, "lanes = {lanes}, workers = {workers}");
        }
    }
    assert!(
        cache.misses() > 0 && cache.hits() > 0,
        "the matrix must both populate and replay the cache (misses={}, hits={})",
        cache.misses(),
        cache.hits()
    );
}

#[test]
fn scan_bist_sweep_is_one_pass_and_worker_invariant() {
    // The full-scan BIST sweep on a sequential device: the 42-flip-flop
    // pipelined datapath is scan-inserted, its capture-mode test view swept
    // through `run_bist_sweep_on` — which performs exactly one
    // fault-simulation pass at the maximum length and derives every
    // shorter test (the 70-pattern cell ends mid-session) from recorded
    // first-failure patterns and partial-session snapshots.  The grid must
    // be byte-identical across the whole worker ladder.
    let sequential = pipelined_datapath(8);
    let scan = insert_scan(&sequential, 3).expect("3 chains fit 42 cells");
    assert!(scan.cell_count() >= 32, "{} cells", scan.cell_count());
    let view = scan.test_view().clone();
    let spec = BistSweepSpec {
        test_lengths: vec![24, 48, 70, 96],
        signature_widths: vec![4, 8, 16],
        session_len: 32,
        channels: 4,
        yield_fraction: 0.2,
        n0: 4.0,
        full_size: false,
    };
    let reference = Session::new(RunConfig::default().with_workers(1))
        .run_bist_sweep_on(&view, &spec)
        .expect("valid sweep spec");
    assert_eq!(reference.rows.len(), 12);
    for row in &reference.rows {
        assert!(row.raw_coverage > 0.0, "vacuous sweep cell: {row:?}");
        assert!(row.effective_coverage <= row.raw_coverage + 1e-15);
        assert_eq!(row.sessions, row.test_length.div_ceil(spec.session_len));
    }
    // Longer tests never lose raw coverage (prefix monotonicity of the
    // single pass).
    for widths in 0..spec.signature_widths.len() {
        let column: Vec<f64> = reference
            .rows
            .iter()
            .skip(widths)
            .step_by(spec.signature_widths.len())
            .map(|row| row.raw_coverage)
            .collect();
        assert!(
            column.windows(2).all(|pair| pair[0] <= pair[1] + 1e-15),
            "raw coverage not monotone in test length: {column:?}"
        );
    }
    for workers in worker_ladder() {
        for lanes in [
            lsi_quality::exec::LaneWidth::X1,
            lsi_quality::exec::LaneWidth::X8,
        ] {
            let sweep = Session::new(RunConfig::default().with_workers(workers).with_lanes(lanes))
                .run_bist_sweep_on(&view, &spec)
                .expect("valid sweep spec");
            assert_eq!(
                reference.rows, sweep.rows,
                "workers = {workers}, lanes = {lanes}"
            );
            assert_eq!(reference.universe_size, sweep.universe_size);
        }
    }
}

/// Asserts, at every worker count and lane width, that the rows
/// `run_bist_sweep_on` counts from its pass's records equal the rows of the
/// reports of every dictionary `build_sweep_cached` lays out over the same
/// patterns, cell by cell.
fn assert_counted_rows_match_dictionaries(circuit: &Circuit) {
    // Lengths 0, mid-session (1, 63, 65, 200) and whole sessions (64,
    // 256), out of order, over 64-pattern sessions.
    let spec = BistSweepSpec {
        test_lengths: vec![0, 1, 63, 64, 65, 200, 256],
        signature_widths: vec![4, 8, 16, 32],
        ..BistSweepSpec::reference()
    };
    let params = ModelParams::new(
        Yield::new(spec.yield_fraction).expect("a yield fraction"),
        spec.n0,
    )
    .expect("a valid n0");
    let universe = FaultUniverse::full(circuit);
    let patterns = StumpsGenerator::try_new(&StumpsConfig {
        width: circuit.primary_inputs().len(),
        channels: spec.channels,
        degree: 64,
        seed: PROGRAMME_SEED,
    })
    .expect("the reference STUMPS geometry is valid")
    .generate(256);
    for workers in [1, 2, 3] {
        for lanes in LaneWidth::EXPLICIT {
            let session =
                Session::new(RunConfig::default().with_workers(workers).with_lanes(lanes));
            let sweep = session
                .run_bist_sweep_on(circuit, &spec)
                .expect("valid sweep spec");
            assert_eq!(sweep.universe_size, universe.len());
            let grid = SignatureDictionary::build_sweep_cached(
                session.context(),
                circuit,
                &universe,
                &patterns,
                spec.session_len,
                &spec.signature_widths,
                &spec.test_lengths,
                lanes,
                None,
            );
            let cells = grid
                .iter()
                .zip(&spec.test_lengths)
                .flat_map(|(row, &length)| row.iter().map(move |dictionary| (length, dictionary)));
            assert_eq!(sweep.rows.len(), grid.len() * spec.signature_widths.len());
            for (row, (length, dictionary)) in sweep.rows.iter().zip(cells) {
                let expected = BistSweepRow::new(
                    length,
                    &AliasingReport::from_dictionary(dictionary),
                    &params,
                );
                assert_eq!(
                    *row,
                    expected,
                    "{}: workers = {workers}, lanes = {lanes}",
                    circuit.name()
                );
            }
        }
    }
}

#[test]
fn counted_sweep_rows_match_the_dictionaries_on_the_reproduction_device() {
    assert_counted_rows_match_dictionaries(&Session::reproduction_circuit(false));
}

#[test]
fn counted_sweep_rows_match_the_dictionaries_on_the_scan_view() {
    let sequential = sequential_lsi_class(LsiClassConfig {
        target_transistors: 10_000,
        seed: PROGRAMME_SEED,
    });
    let scan = insert_scan(&sequential, 4).expect("4 chains fit the device's flip-flops");
    assert_counted_rows_match_dictionaries(scan.test_view());
}

#[test]
fn bist_mode_session_lines_are_engine_and_worker_invariant() {
    // Whole production-line passes on the reproduction device are a
    // release-build concern (the release CI jobs run this); debug builds
    // skip rather than dominate `cargo test`.
    if cfg!(debug_assertions) {
        eprintln!("skipped in debug builds; run with --release");
        return;
    }
    let spec = LineSpec {
        chips: 200,
        yield_fraction: 0.15,
        n0: 6.0,
        full_size: false,
    };
    let reference = Session::new(
        RunConfig::default()
            .with_workers(1)
            .with_test_mode(TestMode::Bist),
    )
    .run_production_line(&spec)
    .expect("no scan configured");
    let reference_rows = reference.experiment.rows();
    for engine in EngineKind::ALL {
        for workers in [2, 2 * cores()] {
            let line = Session::new(
                RunConfig::default()
                    .with_engine(engine)
                    .with_workers(workers)
                    .with_test_mode(TestMode::Bist),
            )
            .run_production_line(&spec)
            .expect("no scan configured");
            assert_eq!(line.test_mode, TestMode::Bist);
            assert_eq!(
                reference_rows,
                line.experiment.rows(),
                "engine = {engine}, workers = {workers}"
            );
            assert_eq!(reference.observed_yield, line.observed_yield);
            assert_eq!(reference.observed_n0, line.observed_n0);
        }
    }
}

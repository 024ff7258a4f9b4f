//! Integration test: the full pipeline — circuit, fault universe, pattern
//! suite, simulated lot, wafer test, experiment table, `n0` estimation and
//! field-reject prediction — hangs together and recovers known ground truth.

use lsi_quality::fault::coverage::CoverageCurve;
use lsi_quality::fault::simulator::FaultSimulator;
use lsi_quality::fault::universe::FaultUniverse;
use lsi_quality::manufacturing::experiment::RejectExperiment;
use lsi_quality::manufacturing::field::FieldOutcome;
use lsi_quality::manufacturing::lot::{ChipLot, ModelLotConfig};
use lsi_quality::manufacturing::tester::WaferTester;
use lsi_quality::netlist::library;
use lsi_quality::quality::chip_test::ChipTestTable;
use lsi_quality::quality::estimate::N0Estimator;
use lsi_quality::quality::params::{FaultCoverage, ModelParams, Yield};
use lsi_quality::quality::reject::field_reject_rate;
use lsi_quality::tpg::suite::TestSuiteBuilder;

struct PipelineOutcome {
    observed_yield: f64,
    observed_n0: f64,
    estimated_n0: f64,
    measured_reject: f64,
    predicted_reject: f64,
}

/// Runs the whole pipeline for a lot drawn from the statistical model with
/// known parameters, applying only the first `patterns_applied` patterns of
/// the suite (so the tests are deliberately incomplete, as in the paper).
fn run_pipeline(
    true_yield: f64,
    true_n0: f64,
    patterns_applied: usize,
    seed: u64,
) -> PipelineOutcome {
    let circuit = library::alu4();
    let universe = FaultUniverse::full(&circuit);
    let suite = TestSuiteBuilder {
        seed: 17,
        target_coverage: 0.995,
        max_random_patterns: 1024,
        ..TestSuiteBuilder::default()
    }
    .build(&circuit, &universe);

    // Truncate the suite to the requested prefix.
    let truncated: lsi_quality::sim::pattern::PatternSet = suite
        .patterns
        .iter()
        .take(patterns_applied)
        .cloned()
        .collect();
    let list = lsi_quality::fault::incremental::IncrementalSimulator::new(&circuit)
        .run(&universe, &truncated);
    let dictionary = lsi_quality::fault::dictionary::FaultDictionary::from_fault_list(&list);
    let coverage_curve = CoverageCurve::from_fault_list(&list, truncated.len());

    let lot = ChipLot::from_model(&ModelLotConfig {
        chips: 4_000,
        yield_fraction: true_yield,
        n0: true_n0,
        fault_universe_size: universe.len(),
        seed,
    });
    let records = WaferTester::new(&dictionary).test_lot(&lot);
    let outcome = FieldOutcome::from_records(&records);

    let checkpoints: Vec<usize> = (1..=truncated.len()).collect();
    let experiment = RejectExperiment::tabulate(&records, &coverage_curve, &checkpoints);
    let table =
        ChipTestTable::from_fractions(&experiment.coverage_vs_fraction(), experiment.total_chips())
            .expect("experiment table is valid");
    let estimate = N0Estimator::default()
        .estimate(&table, Yield::new(lot.observed_yield()).expect("valid"))
        .expect("estimation succeeds");

    let params = ModelParams::new(
        Yield::new(lot.observed_yield()).expect("valid"),
        estimate.curve_fit_n0.max(1.0),
    )
    .expect("valid");
    let predicted = field_reject_rate(
        &params,
        FaultCoverage::new(coverage_curve.final_coverage()).expect("valid"),
    );

    PipelineOutcome {
        observed_yield: lot.observed_yield(),
        observed_n0: lot.observed_n0(),
        estimated_n0: estimate.curve_fit_n0,
        measured_reject: outcome.field_reject_rate(),
        predicted_reject: predicted.value(),
    }
}

#[test]
fn pipeline_recovers_ground_truth_n0() {
    let outcome = run_pipeline(0.25, 6.0, 96, 5);
    assert!((outcome.observed_yield - 0.25).abs() < 0.03);
    assert!((outcome.observed_n0 - 6.0).abs() < 0.3);
    assert!(
        (outcome.estimated_n0 - 6.0).abs() < 1.5,
        "estimated n0 = {}",
        outcome.estimated_n0
    );
}

#[test]
fn pipeline_prediction_matches_measured_field_reject() {
    // With incomplete tests, some defective chips escape; the model's
    // predicted reject rate must track the measured one.
    let outcome = run_pipeline(0.3, 4.0, 48, 11);
    assert!(outcome.measured_reject > 0.0, "expected some escapes");
    let absolute_error = (outcome.predicted_reject - outcome.measured_reject).abs();
    assert!(
        absolute_error < 0.03,
        "predicted {:.4} vs measured {:.4}",
        outcome.predicted_reject,
        outcome.measured_reject
    );
    // And both must be far below the no-test reject rate of 1 - y.
    assert!(outcome.measured_reject < 0.7 * (1.0 - outcome.observed_yield));
}

#[test]
fn more_patterns_mean_fewer_escapes() {
    let short = run_pipeline(0.3, 5.0, 16, 23);
    let long = run_pipeline(0.3, 5.0, 256, 23);
    assert!(
        long.measured_reject <= short.measured_reject,
        "short {:.4} vs long {:.4}",
        short.measured_reject,
        long.measured_reject
    );
}

//! Determining `n0` for a freshly simulated production lot (Section 5).
//!
//! This example replays the paper's experimental procedure end to end, but on
//! the simulated line: build a circuit and an ordered pattern set, run a lot
//! of chips with a *known* ground-truth `n0` through the wafer tester, and
//! check that the estimation procedure recovers it.
//!
//! Run with: `cargo run --release --example determine_n0`

use lsi_quality::fault::coverage::CoverageCurve;
use lsi_quality::fault::universe::FaultUniverse;
use lsi_quality::manufacturing::experiment::RejectExperiment;
use lsi_quality::manufacturing::lot::ModelLotConfig;
use lsi_quality::manufacturing::pipeline::ParallelLotRunner;
use lsi_quality::netlist::library;
use lsi_quality::quality::chip_test::ChipTestTable;
use lsi_quality::quality::estimate::N0Estimator;
use lsi_quality::quality::params::Yield;
use lsi_quality::tpg::suite::TestSuiteBuilder;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Ground truth we will try to recover.
    let true_yield = 0.20;
    let true_n0 = 7.0;

    // 1. The "chip": a 4-bit ALU stands in for the device under test.
    let circuit = library::alu4();
    let universe = FaultUniverse::full(&circuit);
    println!(
        "circuit `{}`: {} gates, {} stuck-at faults",
        circuit.name(),
        circuit.gate_count(),
        universe.len()
    );

    // 2. The ordered pattern set and its cumulative coverage curve, obtained
    //    from the fault simulator exactly as the paper prescribes.
    let suite = TestSuiteBuilder {
        seed: 1981,
        target_coverage: 0.99,
        ..TestSuiteBuilder::default()
    }
    .build(&circuit, &universe);
    println!(
        "pattern set: {} patterns, final coverage {:.1}%",
        suite.patterns.len(),
        suite.coverage() * 100.0
    );

    // 3. A lot of chips drawn from the statistical model with known (y, n0).
    let runner = ParallelLotRunner::default();
    let lot = runner.generate_model_lot(&ModelLotConfig {
        chips: 2_000,
        yield_fraction: true_yield,
        n0: true_n0,
        fault_universe_size: universe.len(),
        seed: 7,
    });

    // 4. Wafer test: record each chip's first failing pattern and tabulate
    //    the cumulative reject fraction against coverage.
    let records = runner.test_lot(&suite.dictionary, &lot);
    let coverage_curve = CoverageCurve::from_fault_list(&suite.fault_list, suite.patterns.len());
    let checkpoints: Vec<usize> = (1..=suite.patterns.len()).collect();
    let experiment = RejectExperiment::tabulate(&records, &coverage_curve, &checkpoints);

    // 5. Estimate n0 from the experiment and compare with the ground truth.
    let table = ChipTestTable::from_fractions(
        &experiment.coverage_vs_fraction(),
        experiment.total_chips(),
    )?;
    let estimate = N0Estimator::default().estimate(&table, Yield::new(lot.observed_yield())?)?;
    println!("ground truth: y = {true_yield}, n0 = {true_n0}");
    println!(
        "lot observed: y = {:.3}, n0 = {:.2}",
        lot.observed_yield(),
        lot.observed_n0()
    );
    println!(
        "estimated:    curve-fit n0 = {:.2}, slope n0 = {:.2} (P'(0) = {:.2})",
        estimate.curve_fit_n0, estimate.slope_n0, estimate.origin_slope
    );
    Ok(())
}

//! A full production-line study: physical defects, wafer maps, wafer test and
//! measured-versus-predicted field reject rate.
//!
//! Run with: `cargo run --release --example production_line`
//!
//! Configuration flows through the typed [`Session`]: one `RunConfig`
//! (engine, workers, base seed) and one execution context drive every
//! stage.  The `LSIQ_ENGINE` / `LSIQ_LOT_THREADS` / `LSIQ_SEED` environment
//! variables remain as the compatibility layer, parsed in exactly one place
//! (`RunConfig::from_env`); an invalid value exits with a `ConfigError`
//! message instead of a panic.  Any worker count produces byte-identical
//! results — the knobs only change wall-clock time.

use lsi_quality::fault::universe::FaultUniverse;
use lsi_quality::manufacturing::defect::DefectModel;
use lsi_quality::manufacturing::field::FieldOutcome;
use lsi_quality::manufacturing::lot::PhysicalLotConfig;
use lsi_quality::manufacturing::wafer::WaferMap;
use lsi_quality::netlist::generator::{random_circuit, RandomCircuitConfig};
use lsi_quality::quality::params::{FaultCoverage, ModelParams, Yield};
use lsi_quality::quality::reject::field_reject_rate;
use lsi_quality::stats::rng::Xoshiro256StarStar;
use lsi_quality::tpg::suite::TestSuiteBuilder;
use lsi_quality::Session;
use std::io::{self, Write};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The run's knobs, bundled in one typed session and echoed so any
    // result can be reproduced exactly.  A bad LSIQ_* value surfaces here
    // as a ConfigError message, not a panic.
    let session = match Session::from_env() {
        Ok(session) => session,
        Err(error) => {
            // A closed stderr must not turn the exit status 2 into a panic.
            let _ = writeln!(io::stderr(), "lsiq: {error}");
            std::process::exit(2);
        }
    };
    let seed = session.config().base_seed();
    let chips = 3_000;
    let runner = session.lot_runner();
    println!(
        "session: {}, lot workers = {} for {chips} chips \
         (LSIQ_ENGINE / LSIQ_SEED / LSIQ_LOT_THREADS to override)",
        session.config(),
        runner.threads_for(chips)
    );

    // The device: a random-logic block standing in for an LSI control chip.
    let circuit = random_circuit(&RandomCircuitConfig {
        inputs: 24,
        gates: 800,
        seed: 11,
        ..RandomCircuitConfig::default()
    });
    let universe = FaultUniverse::full(&circuit);
    println!(
        "device: {} gates, {} transistor estimate, {} stuck-at faults",
        circuit.gate_count(),
        circuit.transistor_estimate(),
        universe.len()
    );

    // The process: clustered defects tuned for roughly 25 percent yield.
    let defect_model = DefectModel::for_target_yield(0.25, 1.0)?;
    println!(
        "process: {:.2} defects/chip (clustered), predicted yield {:.1}%",
        defect_model.mean_defects(),
        defect_model.predicted_yield() * 100.0
    );
    let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
    let wafer = WaferMap::simulate(12, 24, &defect_model, &mut rng);
    println!(
        "one wafer ({} sites, observed yield {:.1}%):",
        wafer.site_count(),
        wafer.observed_yield() * 100.0
    );
    println!("{}", wafer.ascii());

    // The test programme: random patterns topped up by PODEM, fault
    // simulated on the session's engine and workers.
    let suite = TestSuiteBuilder {
        seed: 3,
        target_coverage: 0.90,
        max_random_patterns: 256,
        ..TestSuiteBuilder::default()
    }
    .with_run_config(session.config())
    .build_cached(Some(session.context()), None, &circuit, &universe);
    println!(
        "test programme: {} patterns ({} deterministic), coverage {:.1}%",
        suite.patterns.len(),
        suite.deterministic_patterns,
        suite.coverage() * 100.0
    );

    // A production lot through the physical pipeline and the wafer tester,
    // both sharded across the session's workers.
    let lot = runner.generate_physical_lot(&PhysicalLotConfig {
        chips,
        defect_model,
        extra_faults_per_defect: 4.0,
        fault_universe_size: universe.len(),
        seed,
    });
    let records = runner.test_lot(&suite.dictionary, &lot);
    let outcome = FieldOutcome::from_records(&records);
    println!(
        "wafer test: {} of {} chips shipped, {} rejected",
        outcome.shipped, outcome.total, outcome.rejected
    );
    println!(
        "measured field reject rate: {:.3}%",
        outcome.field_reject_rate() * 100.0
    );

    // Compare with the paper's prediction using the lot's emergent (y, n0).
    let params = ModelParams::new(
        Yield::new(lot.observed_yield())?,
        lot.observed_n0().max(1.0),
    )?;
    let predicted = field_reject_rate(&params, FaultCoverage::new(suite.coverage())?);
    println!(
        "model prediction at f = {:.1}% with y = {:.2}, n0 = {:.1}: {:.3}%",
        suite.coverage() * 100.0,
        lot.observed_yield(),
        lot.observed_n0(),
        predicted.percent()
    );
    Ok(())
}

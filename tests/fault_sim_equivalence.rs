//! Property-style cross-check of the three fault-simulation engines.
//!
//! The serial and deductive oracles and the event-driven incremental
//! production engine must report *identical* detected-fault sets (and
//! identical first detecting patterns) on every circuit, with and without
//! fault dropping.  A timed check also pins down the performance contract:
//! the incremental engine must beat the scalar serial reference in
//! wall-clock time.

use lsi_quality::fault::deductive::DeductiveSimulator;
use lsi_quality::fault::incremental::IncrementalSimulator;
use lsi_quality::fault::list::FaultList;
use lsi_quality::fault::serial::SerialSimulator;
use lsi_quality::fault::simulator::FaultSimulator;
use lsi_quality::fault::universe::FaultUniverse;
use lsi_quality::netlist::circuit::Circuit;
use lsi_quality::netlist::generator::{random_circuit, RandomCircuitConfig};
use lsi_quality::netlist::library;
use lsi_quality::sim::pattern::{Pattern, PatternSet};
use lsi_quality::stats::rng::{Rng, Xoshiro256StarStar};
use std::time::{Duration, Instant};

fn random_patterns(width: usize, count: usize, seed: u64) -> PatternSet {
    let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
    (0..count)
        .map(|_| Pattern::from_bits((0..width).map(|_| rng.next_bool(0.5))))
        .collect()
}

fn generated_circuit() -> Circuit {
    random_circuit(&RandomCircuitConfig {
        inputs: 13,
        gates: 180,
        seed: 2026,
        ..RandomCircuitConfig::default()
    })
}

/// Runs all three engines with the given dropping mode and returns
/// `(engine name, fault list)` pairs.
fn run_all_engines(
    circuit: &Circuit,
    universe: &FaultUniverse,
    patterns: &PatternSet,
    fault_dropping: bool,
) -> Vec<(&'static str, FaultList)> {
    let serial = SerialSimulator::new(circuit).with_fault_dropping(fault_dropping);
    let deductive = DeductiveSimulator::new(circuit).with_fault_dropping(fault_dropping);
    let incremental = IncrementalSimulator::new(circuit).with_fault_dropping(fault_dropping);
    let engines: Vec<&dyn FaultSimulator> = vec![&serial, &deductive, &incremental];
    engines
        .into_iter()
        .map(|engine| (engine.name(), engine.run(universe, patterns)))
        .collect()
}

fn assert_engines_agree(circuit: &Circuit, universe: &FaultUniverse, patterns: &PatternSet) {
    for fault_dropping in [true, false] {
        let results = run_all_engines(circuit, universe, patterns, fault_dropping);
        let (reference_name, reference) = &results[0];
        for (name, list) in &results[1..] {
            assert_eq!(
                reference.detected_count(),
                list.detected_count(),
                "{name} vs {reference_name} (dropping={fault_dropping}): detected counts differ"
            );
            for index in 0..universe.len() {
                assert_eq!(
                    reference.state(index).first_pattern(),
                    list.state(index).first_pattern(),
                    "{name} vs {reference_name} (dropping={fault_dropping}): fault {}",
                    universe.get(index).expect("valid").describe(circuit)
                );
            }
        }
    }
}

#[test]
fn all_engines_agree_on_c17_exhaustive() {
    let circuit = library::c17();
    let universe = FaultUniverse::full(&circuit);
    let patterns: PatternSet = (0..32).map(|v| Pattern::from_integer(v, 5)).collect();
    assert_engines_agree(&circuit, &universe, &patterns);
}

#[test]
fn all_engines_agree_on_a_generated_circuit() {
    let circuit = generated_circuit();
    let universe = FaultUniverse::full(&circuit);
    // More than 64 patterns so the packed engine crosses chunk boundaries.
    let patterns = random_patterns(13, 150, 7);
    assert_engines_agree(&circuit, &universe, &patterns);
}

#[test]
fn all_engines_agree_on_the_collapsed_universe() {
    // The checkpoint (collapsed) universe exercises input-pin faults heavily.
    let circuit = generated_circuit();
    let universe = FaultUniverse::checkpoint(&circuit);
    let patterns = random_patterns(13, 96, 21);
    assert_engines_agree(&circuit, &universe, &patterns);
}

/// Best-of-three wall-clock time of one simulator run.  The minimum (rather
/// than the median) is used so transient scheduler contention on loaded CI
/// runners cannot inflate either side of the comparison: the true cost of an
/// engine is its least-disturbed run.
fn timed<F: FnMut() -> FaultList>(mut run: F) -> Duration {
    (0..3)
        .map(|_| {
            let start = Instant::now();
            let list = run();
            let elapsed = start.elapsed();
            assert!(!list.is_empty());
            elapsed
        })
        .min()
        .expect("three timed runs")
}

#[test]
fn incremental_engine_beats_serial_wall_clock() {
    // The performance contract behind making IncrementalSimulator the
    // production engine: packed pattern chunks plus fanout-cone propagation
    // must beat the scalar one-pattern-at-a-time reference even on a single
    // core.
    let circuit = generated_circuit();
    let universe = FaultUniverse::full(&circuit);
    let patterns = random_patterns(13, 192, 99);

    let serial_sim = SerialSimulator::new(&circuit);
    let incremental_sim = IncrementalSimulator::new(&circuit);
    let serial_time = timed(|| serial_sim.run(&universe, &patterns));
    let incremental_time = timed(|| incremental_sim.run(&universe, &patterns));

    assert!(
        incremental_time < serial_time,
        "incremental engine ({incremental_time:?}) should beat serial ({serial_time:?})"
    );
}

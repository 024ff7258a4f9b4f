//! Integration test: the fault-simulation algorithms agree with each other
//! on generated circuits, and property-style checks (randomised over seeded
//! parameter draws) hold for the core model functions.

use lsi_quality::fault::deductive::DeductiveSimulator;
use lsi_quality::fault::incremental::IncrementalSimulator;
use lsi_quality::fault::serial::SerialSimulator;
use lsi_quality::fault::simulator::FaultSimulator;
use lsi_quality::fault::universe::FaultUniverse;
use lsi_quality::netlist::generator::{random_circuit, RandomCircuitConfig};
use lsi_quality::sim::pattern::{Pattern, PatternSet};
use lsi_quality::stats::rng::{Rng, Xoshiro256StarStar};

/// Number of randomised cases each property-style test draws.
const PROPERTY_CASES: usize = 64;

fn uniform_in(rng: &mut impl Rng, lo: f64, hi: f64) -> f64 {
    lo + (hi - lo) * rng.next_f64()
}

fn random_patterns(width: usize, count: usize, seed: u64) -> PatternSet {
    let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
    (0..count)
        .map(|_| Pattern::from_bits((0..width).map(|_| rng.next_bool(0.5))))
        .collect()
}

#[test]
fn fault_simulators_agree_on_generated_circuits() {
    for seed in 0..3u64 {
        let circuit = random_circuit(&RandomCircuitConfig {
            inputs: 14,
            gates: 150,
            seed,
            ..RandomCircuitConfig::default()
        });
        let universe = FaultUniverse::full(&circuit);
        let patterns = random_patterns(14, 96, seed + 100);
        let serial = SerialSimulator::new(&circuit).run(&universe, &patterns);
        let incremental = IncrementalSimulator::new(&circuit).run(&universe, &patterns);
        let deductive = DeductiveSimulator::new(&circuit).run(&universe, &patterns);
        for index in 0..universe.len() {
            let fault = universe.get(index).expect("valid").describe(&circuit);
            assert_eq!(
                serial.state(index).first_pattern(),
                incremental.state(index).first_pattern(),
                "seed {seed}, fault {fault}: serial vs incremental"
            );
            assert_eq!(
                serial.state(index).first_pattern(),
                deductive.state(index).first_pattern(),
                "seed {seed}, fault {fault}: serial vs deductive"
            );
        }
    }
}

#[test]
fn reject_rate_stays_in_unit_interval_and_decreases() {
    use lsi_quality::quality::params::{FaultCoverage, ModelParams, Yield};
    use lsi_quality::quality::reject::field_reject_rate;
    let mut rng = Xoshiro256StarStar::seed_from_u64(0xA11CE);
    for case in 0..PROPERTY_CASES {
        let y = uniform_in(&mut rng, 0.01, 0.99);
        let n0 = uniform_in(&mut rng, 1.0, 40.0);
        let f = uniform_in(&mut rng, 0.0, 1.0);
        let params = ModelParams::new(Yield::new(y).unwrap(), n0).unwrap();
        let coverage = FaultCoverage::new(f).unwrap();
        let rate = field_reject_rate(&params, coverage).value();
        assert!((0.0..=1.0).contains(&rate), "case {case}: rate {rate}");
        // Monotone: a bit more coverage can only reduce the reject rate.
        let more = FaultCoverage::new((f + 0.05).min(1.0)).unwrap();
        let better = field_reject_rate(&params, more).value();
        assert!(better <= rate + 1e-12, "case {case}: {better} > {rate}");
        // Bounded above by the untested reject rate 1 - y.
        assert!(rate <= 1.0 - y + 1e-12, "case {case}");
    }
}

#[test]
fn rejected_fraction_is_a_cdf_like_curve() {
    use lsi_quality::quality::detection::rejected_fraction;
    use lsi_quality::quality::params::{FaultCoverage, ModelParams, Yield};
    let mut rng = Xoshiro256StarStar::seed_from_u64(0xB0B);
    for case in 0..PROPERTY_CASES {
        let y = uniform_in(&mut rng, 0.01, 0.99);
        let n0 = uniform_in(&mut rng, 1.0, 40.0);
        let f = uniform_in(&mut rng, 0.0, 1.0);
        let params = ModelParams::new(Yield::new(y).unwrap(), n0).unwrap();
        let value = rejected_fraction(&params, FaultCoverage::new(f).unwrap());
        assert!(value >= -1e-12, "case {case}");
        assert!(value <= 1.0 - y + 1e-12, "case {case}");
        let further = rejected_fraction(&params, FaultCoverage::new((f + 0.05).min(1.0)).unwrap());
        assert!(further + 1e-12 >= value, "case {case}");
    }
}

#[test]
fn required_coverage_meets_its_target() {
    use lsi_quality::quality::coverage_requirement::required_fault_coverage;
    use lsi_quality::quality::params::{ModelParams, RejectRate, Yield};
    use lsi_quality::quality::reject::field_reject_rate;
    let mut rng = Xoshiro256StarStar::seed_from_u64(0xC0FFEE);
    for case in 0..PROPERTY_CASES {
        let y = uniform_in(&mut rng, 0.01, 0.95);
        let n0 = uniform_in(&mut rng, 1.0, 30.0);
        let r = uniform_in(&mut rng, 0.0005, 0.05);
        let params = ModelParams::new(Yield::new(y).unwrap(), n0).unwrap();
        let target = RejectRate::new(r).unwrap();
        let coverage = required_fault_coverage(&params, target).unwrap();
        assert!(
            field_reject_rate(&params, coverage).value() <= r + 1e-9,
            "case {case}: y={y} n0={n0} r={r}"
        );
    }
}

#[test]
fn escape_probability_is_decreasing_in_coverage() {
    use lsi_quality::quality::escape::{EscapeApproximation, EscapeProbability};
    let universe = 1000u64;
    let mut rng = Xoshiro256StarStar::seed_from_u64(0xDEC);
    for case in 0..PROPERTY_CASES {
        let covered = rng.next_bounded(1000);
        let n = 1 + rng.next_bounded(19);
        let low = EscapeProbability::new(universe, covered).unwrap();
        let high = EscapeProbability::new(universe, (covered + 50).min(universe)).unwrap();
        let escape_low = low.escape(n, EscapeApproximation::Exact).unwrap();
        let escape_high = high.escape(n, EscapeApproximation::Exact).unwrap();
        assert!(escape_high <= escape_low + 1e-12, "case {case}");
        assert!((0.0..=1.0).contains(&escape_low), "case {case}");
    }
}

#[test]
fn pattern_packing_round_trips() {
    use lsi_quality::sim::pattern::{Pattern, PatternSet};
    let width = 12;
    let mut rng = Xoshiro256StarStar::seed_from_u64(0xFACADE);
    for _ in 0..PROPERTY_CASES {
        let count = 1 + rng.next_index(99);
        let set: PatternSet = (0..count)
            .map(|_| Pattern::from_integer(rng.next_bounded(1 << 12), width))
            .collect();
        for block in 0..set.block_count() {
            let (words, packed) = set.pack_block(width, block);
            for slot in 0..packed {
                let pattern = set.get(block * 64 + slot).unwrap();
                for (input, &word) in words.iter().enumerate() {
                    assert_eq!((word >> slot) & 1 == 1, pattern.bit(input));
                }
            }
        }
    }
}

//! Integration test: Monte-Carlo validation of the analytic model.
//!
//! The closed-form expressions (eq. 7–9) are checked against direct
//! simulation of the statistical model they describe: generate chips from the
//! shifted-Poisson fault distribution, "cover" a random subset of the fault
//! universe, and compare observed escape/reject/rejected-fraction frequencies
//! with the formulas.

use lsi_quality::quality::detection::rejected_fraction;
use lsi_quality::quality::escape::{BadChipYield, EscapeApproximation, EscapeProbability};
use lsi_quality::quality::fault_distribution::FaultCountDistribution;
use lsi_quality::quality::params::{FaultCoverage, ModelParams, Yield};
use lsi_quality::quality::reject::field_reject_rate;
use lsi_quality::stats::rng::{IndexSampler, Xoshiro256StarStar};

struct MonteCarloOutcome {
    rejected_fraction: f64,
    field_reject_rate: f64,
    bad_chip_yield: f64,
}

/// Simulates `chips` chips under the statistical model with a fault universe
/// of `universe` sites of which a fraction `coverage` is covered by tests.
fn simulate(
    params: &ModelParams,
    universe: usize,
    coverage: f64,
    chips: usize,
    seed: u64,
) -> MonteCarloOutcome {
    let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
    let covered = (coverage * universe as f64).round() as usize;
    let distribution = FaultCountDistribution::new(*params);
    let mut sampler = IndexSampler::new(universe);
    let mut rejected = 0usize;
    let mut shipped = 0usize;
    let mut shipped_bad = 0usize;
    for _ in 0..chips {
        let fault_count = distribution.sample(&mut rng) as usize;
        let fault_count = fault_count.min(universe);
        // The chip fails the tests when at least one of its faults falls in
        // the covered part of the universe.  Covered faults are, without loss
        // of generality, the indices below `covered`.
        let mut detected = false;
        sampler.sample(fault_count, &mut rng, |index| detected |= index < covered);
        if detected {
            rejected += 1;
        } else {
            shipped += 1;
            if fault_count > 0 {
                shipped_bad += 1;
            }
        }
    }
    MonteCarloOutcome {
        rejected_fraction: rejected as f64 / chips as f64,
        field_reject_rate: if shipped == 0 {
            0.0
        } else {
            shipped_bad as f64 / shipped as f64
        },
        bad_chip_yield: shipped_bad as f64 / chips as f64,
    }
}

#[test]
fn closed_forms_match_monte_carlo() {
    let params = ModelParams::new(Yield::new(0.2).expect("valid"), 6.0).expect("valid");
    let universe = 5_000;
    let chips = 60_000;
    for &coverage in &[0.1, 0.4, 0.7, 0.9] {
        let outcome = simulate(&params, universe, coverage, chips, 99);
        let f = FaultCoverage::new(coverage).expect("valid");
        let predicted_p = rejected_fraction(&params, f);
        let predicted_r = field_reject_rate(&params, f).value();
        let predicted_ybg = BadChipYield::new(params).closed_form(f);
        assert!(
            (outcome.rejected_fraction - predicted_p).abs() < 0.01,
            "f={coverage}: P(f) {} vs {}",
            outcome.rejected_fraction,
            predicted_p
        );
        assert!(
            (outcome.field_reject_rate - predicted_r).abs() < 0.01,
            "f={coverage}: r(f) {} vs {}",
            outcome.field_reject_rate,
            predicted_r
        );
        assert!(
            (outcome.bad_chip_yield - predicted_ybg).abs() < 0.01,
            "f={coverage}: Ybg {} vs {}",
            outcome.bad_chip_yield,
            predicted_ybg
        );
    }
}

#[test]
fn hypergeometric_escape_matches_urn_simulation() {
    // Draw the urn experiment of Section 4 directly and compare with q0(n).
    let mut rng = Xoshiro256StarStar::seed_from_u64(7);
    let universe = 400usize;
    let covered = 240usize;
    let escape = EscapeProbability::new(universe as u64, covered as u64).expect("valid");
    let mut sampler = IndexSampler::new(universe);
    for &present in &[1usize, 3, 6] {
        let trials = 40_000;
        let mut escapes = 0usize;
        for _ in 0..trials {
            let mut escaped = true;
            sampler.sample(present, &mut rng, |index| escaped &= index >= covered);
            if escaped {
                escapes += 1;
            }
        }
        let observed = escapes as f64 / trials as f64;
        let exact = escape
            .escape(present as u64, EscapeApproximation::Exact)
            .expect("valid");
        assert!(
            (observed - exact).abs() < 0.01,
            "n={present}: observed {observed} vs exact {exact}"
        );
    }
}

#[test]
fn shifted_poisson_sampling_matches_pmf() {
    let params = ModelParams::new(Yield::new(0.07).expect("valid"), 8.0).expect("valid");
    let distribution = FaultCountDistribution::new(params);
    let mut rng = Xoshiro256StarStar::seed_from_u64(3);
    let samples = 200_000usize;
    let mut histogram = vec![0usize; 40];
    for _ in 0..samples {
        let n = distribution.sample(&mut rng) as usize;
        if n < histogram.len() {
            histogram[n] += 1;
        }
    }
    for n in 0..20u64 {
        let observed = histogram[n as usize] as f64 / samples as f64;
        let expected = distribution.pmf(n);
        assert!(
            (observed - expected).abs() < 0.005,
            "n={n}: observed {observed} vs pmf {expected}"
        );
    }
}

#[test]
fn reject_rate_definition_matches_its_components() {
    // r = Ybg / (y + Ybg) by definition; check the implementation keeps the
    // identity over a parameter sweep.
    for &y in &[0.07, 0.3, 0.8] {
        for &n0 in &[1.5, 8.0, 15.0] {
            let params = ModelParams::new(Yield::new(y).expect("valid"), n0).expect("valid");
            for step in 0..=10 {
                let f = FaultCoverage::new(step as f64 / 10.0).expect("valid");
                let ybg = BadChipYield::new(params).closed_form(f);
                let r = field_reject_rate(&params, f).value();
                assert!((r - ybg / (y + ybg)).abs() < 1e-12);
            }
        }
    }
}

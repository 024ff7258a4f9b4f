//! The required-coverage solver (Section 6).
//!
//! Once `n0` is known, the coverage required for a specified field reject
//! rate follows from eq. 8.  The paper notes that solving eq. 8 for `f` is
//! "not very convenient" and plots eq. 11 instead (Figs. 2–4); here the
//! inversion is done numerically with a bracketing bisection, and the Figs.
//! 2–4 families can be regenerated directly.

use crate::error::QualityError;
use crate::params::{FaultCoverage, ModelParams, RejectRate, Yield};
use crate::reject::{field_reject_rate, yield_for_reject_target};
use lsiq_stats::roots::{bisect, RootOptions};

/// The smallest fault coverage that achieves field reject rate `target` for a
/// chip with the given parameters.
///
/// Returns coverage 0 when even an untested lot meets the target (high-yield
/// chips with loose targets), and coverage 1 exactly at the (unreachable in
/// practice) limit `r = 0`.
///
/// # Errors
///
/// Returns a numerical error only if the internal bisection fails to
/// converge, which cannot happen for valid parameters.
pub fn required_fault_coverage(
    params: &ModelParams,
    target: RejectRate,
) -> Result<FaultCoverage, QualityError> {
    let at_zero = field_reject_rate(params, FaultCoverage::new(0.0).expect("valid"));
    if at_zero.value() <= target.value() {
        return Ok(FaultCoverage::new(0.0).expect("valid"));
    }
    if target.value() == 0.0 {
        return Ok(FaultCoverage::new(1.0).expect("valid"));
    }
    let rate = |f: f64| {
        let coverage = FaultCoverage::new(f.clamp(0.0, 1.0)).expect("clamped");
        field_reject_rate(params, coverage).value()
    };
    // r(f) is continuous and strictly decreasing from r(0) > target to
    // r(1) = 0 < target, so the bracket always contains exactly one root.
    // The search may stop once r is within a millionth of the target, but
    // never further off than the default absolute 1e-12: a fixed absolute
    // tolerance would accept 0.5 for any target below it.
    let defaults = RootOptions::default();
    let root = bisect(
        |f| rate(f) - target.value(),
        0.0,
        1.0,
        RootOptions {
            f_tolerance: defaults.f_tolerance.min(target.value() * 1e-6),
            ..defaults
        },
    )?
    .clamp(0.0, 1.0);
    if rate(root) <= target.value() * (1.0 + 1e-6) {
        return Ok(FaultCoverage::new(root).expect("clamped"));
    }
    // Near f = 1, where r is nearly proportional to 1 − f, a tiny target
    // can end the search on its 1e-12 step in f while r is still a few
    // millionths over the target, and f itself is too coarse there to land
    // within a millionth.  The root lies less than one step above: take the
    // smallest coverage within that step that meets the target.
    let (mut below, mut above) = (root, (root + defaults.x_tolerance).min(1.0));
    loop {
        let mid = below + 0.5 * (above - below);
        if mid <= below || mid >= above {
            return Ok(FaultCoverage::new(above).expect("in range"));
        }
        if rate(mid) <= target.value() {
            above = mid;
        } else {
            below = mid;
        }
    }
}

/// One point of a Figs. 2–4 style curve: for a yield `y`, the coverage
/// required to meet the reject target at the given `n0`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RequirementPoint {
    /// Chip yield.
    pub yield_fraction: f64,
    /// Required fault coverage (fraction).
    pub required_coverage: f64,
}

/// Generates a required-coverage-versus-yield curve for fixed `n0` and reject
/// target — one member of the family plotted in the paper's Figs. 2–4.
///
/// The curve is produced the way the paper does it: for a grid of coverages
/// `f`, eq. 11 gives the yield at which `f` is exactly sufficient; the pairs
/// are then returned sorted by yield.
///
/// # Errors
///
/// Returns [`QualityError::InvalidParameter`] if `n0 < 1`.
pub fn requirement_curve(
    n0: f64,
    target: RejectRate,
    points: usize,
) -> Result<Vec<RequirementPoint>, QualityError> {
    if !n0.is_finite() || n0 < 1.0 {
        return Err(QualityError::InvalidParameter {
            name: "n0",
            value: n0,
            expected: "a finite value >= 1",
        });
    }
    let steps = points.max(2) - 1;
    let mut curve: Vec<RequirementPoint> = (0..=steps)
        .map(|i| {
            let f = i as f64 / steps as f64;
            let coverage = FaultCoverage::new(f).expect("grid point is in range");
            let yield_fraction = yield_for_reject_target(n0, coverage, target).value();
            RequirementPoint {
                yield_fraction,
                required_coverage: f,
            }
        })
        .collect();
    curve.sort_by(|a, b| {
        a.yield_fraction
            .partial_cmp(&b.yield_fraction)
            .expect("yields are finite")
    });
    Ok(curve)
}

/// Interpolates a requirement curve at a specific yield.
///
/// # Errors
///
/// Returns the same errors as [`requirement_curve`].
pub fn required_coverage_at_yield(
    n0: f64,
    target: RejectRate,
    yield_fraction: Yield,
) -> Result<FaultCoverage, QualityError> {
    let params = ModelParams::new(yield_fraction, n0)?;
    required_fault_coverage(&params, target)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params(y: f64, n0: f64) -> ModelParams {
        ModelParams::new(Yield::new(y).expect("valid"), n0).expect("valid")
    }

    fn reject(r: f64) -> RejectRate {
        RejectRate::new(r).expect("valid")
    }

    #[test]
    fn solver_inverts_the_reject_rate() {
        for &(y, n0, r) in &[(0.07, 8.0, 0.01), (0.2, 10.0, 0.005), (0.8, 2.0, 0.001)] {
            let p = params(y, n0);
            let coverage = required_fault_coverage(&p, reject(r)).expect("solves");
            let achieved = field_reject_rate(&p, coverage);
            assert!(
                (achieved.value() - r).abs() < 1e-9,
                "y={y} n0={n0} r={r}: achieved {}",
                achieved.value()
            );
        }
    }

    #[test]
    fn tiny_reject_targets_are_met_and_monotone() {
        // Targets at and below an absolute 1e-12 tolerance on r(f), near
        // f = 1 where f is too coarse to land within a millionth of the
        // target, and at a yield so high that 0.0069 suffices for 1e-12.
        let targets = [1e-9, 5e-10, 1e-10, 1e-11, 5e-12, 1e-12, 5e-13, 1e-13];
        for &(y, n0) in &[
            (0.07, 8.0),
            (0.9, 20.0),
            (0.5, 4.0),
            (0.999_999_999, 999.0),
            (0.2, 1.0),
        ] {
            let p = params(y, n0);
            let mut previous = 0.0;
            for &target in &targets {
                let required = required_fault_coverage(&p, reject(target)).expect("solves");
                let achieved = field_reject_rate(&p, required).value();
                assert!(
                    achieved <= target * (1.0 + 1e-6),
                    "y={y} n0={n0} target={target:e}: f = {} gives r = {achieved:e}",
                    required.value()
                );
                // Targets fall, so the requirement must not.
                assert!(
                    required.value() >= previous,
                    "y={y} n0={n0} target={target:e}: {} < {previous}",
                    required.value()
                );
                previous = required.value();
            }
        }
    }

    #[test]
    fn paper_section_seven_requirements() {
        // For the Section 7 chip (y = 0.07, n0 = 8): about 80 percent
        // coverage for a 1 percent reject rate and about 95 percent for
        // 1-in-1000.
        let p = params(0.07, 8.0);
        let at_one_percent = required_fault_coverage(&p, reject(0.01)).expect("solves");
        assert!(
            (at_one_percent.value() - 0.80).abs() < 0.04,
            "f = {}",
            at_one_percent.value()
        );
        let at_one_in_thousand = required_fault_coverage(&p, reject(0.001)).expect("solves");
        assert!(
            (at_one_in_thousand.value() - 0.95).abs() < 0.03,
            "f = {}",
            at_one_in_thousand.value()
        );
    }

    #[test]
    fn figure_four_spot_check() {
        // Section 6: "for yield y = 0.3 and n0 = 8, the fault coverage should
        // be about 85 percent" at r = 0.001.
        let coverage =
            required_coverage_at_yield(8.0, reject(0.001), Yield::new(0.3).expect("valid"))
                .expect("solves");
        assert!(
            (coverage.value() - 0.85).abs() < 0.03,
            "f = {}",
            coverage.value()
        );
    }

    #[test]
    fn loose_targets_need_no_testing() {
        // A 90 percent-yield chip already meets a 15 percent reject target
        // untested.
        let p = params(0.9, 3.0);
        let coverage = required_fault_coverage(&p, reject(0.15)).expect("solves");
        assert_eq!(coverage.value(), 0.0);
    }

    #[test]
    fn zero_reject_target_needs_full_coverage() {
        let p = params(0.5, 4.0);
        let coverage = required_fault_coverage(&p, reject(0.0)).expect("solves");
        assert_eq!(coverage.value(), 1.0);
    }

    #[test]
    fn requirement_decreases_with_yield_and_with_n0() {
        let target = reject(0.01);
        let low_yield = required_coverage_at_yield(5.0, target, Yield::new(0.1).expect("valid"))
            .expect("solves");
        let high_yield = required_coverage_at_yield(5.0, target, Yield::new(0.6).expect("valid"))
            .expect("solves");
        assert!(high_yield.value() < low_yield.value());
        let low_n0 = required_coverage_at_yield(2.0, target, Yield::new(0.2).expect("valid"))
            .expect("solves");
        let high_n0 = required_coverage_at_yield(10.0, target, Yield::new(0.2).expect("valid"))
            .expect("solves");
        assert!(high_n0.value() < low_n0.value());
    }

    #[test]
    fn requirement_curve_is_monotone_in_yield() {
        let curve = requirement_curve(8.0, reject(0.001), 101).expect("valid");
        assert_eq!(curve.len(), 101);
        for window in curve.windows(2) {
            assert!(window[0].yield_fraction <= window[1].yield_fraction);
            // Required coverage falls (weakly) as yield rises.
            assert!(window[1].required_coverage <= window[0].required_coverage + 1e-12);
        }
        assert!(requirement_curve(0.5, reject(0.01), 10).is_err());
    }

    #[test]
    fn curve_and_solver_agree() {
        let target = reject(0.005);
        let n0 = 6.0;
        let curve = requirement_curve(n0, target, 2_001).expect("valid");
        for &y in &[0.1, 0.3, 0.5, 0.7] {
            let solved = required_coverage_at_yield(n0, target, Yield::new(y).expect("valid"))
                .expect("solves");
            // Find the curve point with the nearest yield.
            let nearest = curve
                .iter()
                .min_by(|a, b| {
                    (a.yield_fraction - y)
                        .abs()
                        .partial_cmp(&(b.yield_fraction - y).abs())
                        .expect("finite")
                })
                .expect("curve is non-empty");
            assert!(
                (nearest.required_coverage - solved.value()).abs() < 0.02,
                "y={y}: curve {} vs solver {}",
                nearest.required_coverage,
                solved.value()
            );
        }
    }
}

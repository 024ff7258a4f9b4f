//! Least-squares fitting utilities.
//!
//! The paper determines its model parameter `n0` by fitting the theoretical
//! rejection curve `P(f)` to an experimental cumulative-reject curve, and by
//! measuring the slope of that curve at the origin.  This module supplies the
//! generic pieces: a linear regression through the origin, the sum of squared
//! residuals, and a scalar parameter sweep that minimises that sum for an
//! arbitrary model function.

use crate::error::StatsError;

/// Performs a least-squares regression of `y` on `x` constrained through the
/// origin (`y = slope * x`).
///
/// This is the estimator behind the paper's slope method: near the origin the
/// rejection curve is a straight line through zero with slope
/// `P'(0) = (1 - y) * n0`.
///
/// # Errors
///
/// Returns [`StatsError::InsufficientData`] when the input is empty or the
/// slices differ in length, and [`StatsError::InvalidParameter`] when all `x`
/// are zero.
pub fn linear_fit_through_origin(x: &[f64], y: &[f64]) -> Result<f64, StatsError> {
    if x.len() != y.len() || x.is_empty() {
        return Err(StatsError::InsufficientData {
            required: 1,
            actual: x.len().min(y.len()),
        });
    }
    let sxx: f64 = x.iter().map(|v| v * v).sum();
    if sxx == 0.0 {
        return Err(StatsError::InvalidParameter {
            name: "x",
            value: 0.0,
            expected: "at least one non-zero abscissa",
        });
    }
    let sxy: f64 = x.iter().zip(y.iter()).map(|(&a, &b)| a * b).sum();
    Ok(sxy / sxx)
}

/// Sum of squared residuals between observations and a model evaluated at the
/// same abscissae.
pub fn sum_squared_residuals<F>(x: &[f64], y: &[f64], model: F) -> f64
where
    F: Fn(f64) -> f64,
{
    x.iter()
        .zip(y.iter())
        .map(|(&xi, &yi)| {
            let r = yi - model(xi);
            r * r
        })
        .sum()
}

/// Result of a one-parameter model scan.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScanResult {
    /// The parameter value that minimised the objective.
    pub best_parameter: f64,
    /// The objective value at the minimiser.
    pub best_objective: f64,
}

/// Minimises `objective(theta)` over a uniform grid of `steps + 1` candidate
/// values spanning `[lo, hi]`, then refines the winner with a golden-section
/// search in its grid neighbourhood.
///
/// This deliberately mirrors the paper's procedure of overlaying a *family*
/// of curves (one per candidate `n0`) on the experimental data and picking
/// the closest, while also returning a continuous refinement.
///
/// # Errors
///
/// Returns [`StatsError::InvalidParameter`] if the range is empty or
/// `steps == 0`.
pub fn scan_minimize<F>(
    mut objective: F,
    lo: f64,
    hi: f64,
    steps: usize,
) -> Result<ScanResult, StatsError>
where
    F: FnMut(f64) -> f64,
{
    // NaN-aware: anything but a strictly increasing, comparable pair is
    // rejected.
    if lo.partial_cmp(&hi) != Some(std::cmp::Ordering::Less) {
        return Err(StatsError::InvalidParameter {
            name: "range",
            value: hi - lo,
            expected: "lo < hi",
        });
    }
    if steps == 0 {
        return Err(StatsError::InvalidParameter {
            name: "steps",
            value: 0.0,
            expected: "at least one step",
        });
    }
    let step = (hi - lo) / steps as f64;
    let mut best_index = 0;
    let mut best_value = f64::INFINITY;
    for i in 0..=steps {
        let theta = lo + step * i as f64;
        let value = objective(theta);
        if value < best_value {
            best_value = value;
            best_index = i;
        }
    }
    // Golden-section refinement inside the neighbouring grid cells.
    let refine_lo = lo + step * best_index.saturating_sub(1) as f64;
    let refine_hi = (lo + step * (best_index + 1) as f64).min(hi);
    let refined = golden_section_minimize(&mut objective, refine_lo, refine_hi, 80);
    let refined_value = objective(refined);
    if refined_value <= best_value {
        Ok(ScanResult {
            best_parameter: refined,
            best_objective: refined_value,
        })
    } else {
        Ok(ScanResult {
            best_parameter: lo + step * best_index as f64,
            best_objective: best_value,
        })
    }
}

/// Golden-section search for the minimiser of a unimodal function on `[a, b]`.
fn golden_section_minimize<F>(objective: &mut F, mut a: f64, mut b: f64, iterations: usize) -> f64
where
    F: FnMut(f64) -> f64,
{
    let inv_phi = (5.0_f64.sqrt() - 1.0) / 2.0;
    let mut c = b - inv_phi * (b - a);
    let mut d = a + inv_phi * (b - a);
    let mut fc = objective(c);
    let mut fd = objective(d);
    for _ in 0..iterations {
        if fc < fd {
            b = d;
            d = c;
            fd = fc;
            c = b - inv_phi * (b - a);
            fc = objective(c);
        } else {
            a = c;
            c = d;
            fc = fd;
            d = a + inv_phi * (b - a);
            fd = objective(d);
        }
        if (b - a).abs() < 1e-12 {
            break;
        }
    }
    0.5 * (a + b)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn origin_fit_recovers_slope() {
        let x = [0.05, 0.08, 0.10, 0.15];
        let y: Vec<f64> = x.iter().map(|v| 8.2 * v).collect();
        let slope = linear_fit_through_origin(&x, &y).expect("fits");
        assert!((slope - 8.2).abs() < 1e-12);
    }

    #[test]
    fn origin_fit_rejects_all_zero_x() {
        assert!(linear_fit_through_origin(&[0.0, 0.0], &[1.0, 2.0]).is_err());
        assert!(linear_fit_through_origin(&[], &[]).is_err());
    }

    #[test]
    fn residual_metrics_are_zero_for_perfect_model() {
        let x = [0.0, 1.0, 2.0];
        let y = [1.0, 3.0, 5.0];
        let ssr = sum_squared_residuals(&x, &y, |v| 2.0 * v + 1.0);
        assert!(ssr.abs() < 1e-24);
    }

    #[test]
    fn scan_minimize_finds_quadratic_minimum() {
        let result = scan_minimize(|t| (t - 3.7).powi(2) + 1.0, 0.0, 10.0, 100).expect("valid");
        assert!((result.best_parameter - 3.7).abs() < 1e-6);
        assert!((result.best_objective - 1.0).abs() < 1e-10);
    }

    #[test]
    fn scan_minimize_handles_minimum_at_grid_edge() {
        let result = scan_minimize(|t| t, 0.0, 5.0, 10).expect("valid");
        assert!(result.best_parameter < 1e-6);
    }

    #[test]
    fn scan_minimize_rejects_bad_arguments() {
        assert!(scan_minimize(|t| t, 1.0, 1.0, 10).is_err());
        assert!(scan_minimize(|t| t, 0.0, 1.0, 0).is_err());
    }
}

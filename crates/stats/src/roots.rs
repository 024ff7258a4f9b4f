//! One-dimensional root finding.
//!
//! The quality model needs to invert monotone relations such as eq. (8)
//! (field reject rate as a function of fault coverage) for which a bracketing
//! bisection is robust and more than fast enough.

use crate::error::StatsError;

/// Options controlling an iterative root search.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RootOptions {
    /// Absolute tolerance on the argument.
    pub x_tolerance: f64,
    /// Absolute tolerance on the function value.
    pub f_tolerance: f64,
    /// Maximum number of iterations before giving up.
    pub max_iterations: usize,
}

impl Default for RootOptions {
    fn default() -> Self {
        RootOptions {
            x_tolerance: 1e-12,
            f_tolerance: 1e-12,
            max_iterations: 200,
        }
    }
}

/// Finds a root of `f` in the bracket `[lo, hi]` by bisection.
///
/// # Errors
///
/// Returns [`StatsError::InvalidBracket`] if `f(lo)` and `f(hi)` have the
/// same sign, and [`StatsError::NoConvergence`] if the iteration budget is
/// exhausted (which cannot happen with the default options and a finite
/// bracket, but is reported rather than looping forever).
pub fn bisect<F>(mut f: F, lo: f64, hi: f64, options: RootOptions) -> Result<f64, StatsError>
where
    F: FnMut(f64) -> f64,
{
    let (mut lo, mut hi) = if lo <= hi { (lo, hi) } else { (hi, lo) };
    let mut f_lo = f(lo);
    let f_hi = f(hi);
    if f_lo == 0.0 {
        return Ok(lo);
    }
    if f_hi == 0.0 {
        return Ok(hi);
    }
    if f_lo.signum() == f_hi.signum() {
        return Err(StatsError::InvalidBracket { lo, hi });
    }
    for _ in 0..options.max_iterations {
        let mid = 0.5 * (lo + hi);
        let f_mid = f(mid);
        if f_mid.abs() <= options.f_tolerance || (hi - lo) <= options.x_tolerance {
            return Ok(mid);
        }
        if f_mid.signum() == f_lo.signum() {
            lo = mid;
            f_lo = f_mid;
        } else {
            hi = mid;
        }
    }
    Err(StatsError::NoConvergence {
        iterations: options.max_iterations,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bisect_finds_square_root() {
        let root = bisect(|x| x * x - 2.0, 0.0, 2.0, RootOptions::default()).expect("bracketed");
        assert!((root - std::f64::consts::SQRT_2).abs() < 1e-9);
    }

    #[test]
    fn bisect_accepts_reversed_bracket() {
        let root = bisect(|x| x - 1.0, 3.0, 0.0, RootOptions::default()).expect("bracketed");
        assert!((root - 1.0).abs() < 1e-9);
    }

    #[test]
    fn bisect_returns_endpoint_roots() {
        let root = bisect(|x| x, 0.0, 5.0, RootOptions::default()).expect("root at endpoint");
        assert_eq!(root, 0.0);
    }

    #[test]
    fn bisect_rejects_bad_bracket() {
        let err = bisect(|x| x * x + 1.0, -1.0, 1.0, RootOptions::default()).unwrap_err();
        assert!(matches!(err, StatsError::InvalidBracket { .. }));
    }

    #[test]
    fn tight_iteration_budget_reports_no_convergence() {
        let options = RootOptions {
            x_tolerance: 0.0,
            f_tolerance: 0.0,
            max_iterations: 3,
        };
        let err = bisect(|x| x * x - 2.0, 0.0, 2.0, options).unwrap_err();
        assert!(matches!(err, StatsError::NoConvergence { iterations: 3 }));
    }
}

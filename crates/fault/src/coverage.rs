//! Cumulative fault-coverage curves.
//!
//! The paper's estimation procedure needs "cumulative fault coverage as a
//! function of the number of test patterns", obtained from a fault simulator
//! evaluating the patterns *in the order they will be applied to the chip*.
//! [`CoverageCurve`] is exactly that object.

use crate::list::FaultList;

/// Fault coverage as a function of the number of applied patterns.
#[derive(Debug, Clone, PartialEq)]
pub struct CoverageCurve {
    /// `cumulative[k]` is the coverage after applying patterns `0..=k`.
    cumulative: Vec<f64>,
    /// Total number of faults in the universe (`N`).
    universe_size: usize,
}

impl CoverageCurve {
    /// Builds the curve from a simulated fault list and the number of
    /// patterns that were applied.
    pub fn from_fault_list(list: &FaultList, pattern_count: usize) -> CoverageCurve {
        let mut detections_at = vec![0usize; pattern_count];
        for (_, state) in list.iter() {
            if let Some(pattern) = state.first_pattern() {
                if pattern < pattern_count {
                    detections_at[pattern] += 1;
                }
            }
        }
        let universe_size = list.len();
        let mut cumulative = Vec::with_capacity(pattern_count);
        let mut running = 0usize;
        for detected in detections_at {
            running += detected;
            let coverage = if universe_size == 0 {
                0.0
            } else {
                running as f64 / universe_size as f64
            };
            cumulative.push(coverage);
        }
        CoverageCurve {
            cumulative,
            universe_size,
        }
    }

    /// Reassembles a curve from its cumulative points — the inverse of
    /// [`cumulative`](Self::cumulative), used by artifact stores that
    /// persist suites across processes.
    pub fn from_cumulative(cumulative: Vec<f64>, universe_size: usize) -> CoverageCurve {
        CoverageCurve {
            cumulative,
            universe_size,
        }
    }

    /// The raw cumulative points: `cumulative()[k]` is the coverage after
    /// applying patterns `0..=k`.  Together with
    /// [`from_cumulative`](Self::from_cumulative) this round-trips the
    /// curve exactly.
    pub fn cumulative(&self) -> &[f64] {
        &self.cumulative
    }

    /// Number of patterns the curve covers.
    pub fn pattern_count(&self) -> usize {
        self.cumulative.len()
    }

    /// Size of the fault universe `N`.
    pub fn universe_size(&self) -> usize {
        self.universe_size
    }

    /// Coverage after applying the first `count` patterns (zero for
    /// `count == 0`, clamped to the final value beyond the end).
    pub fn coverage_after(&self, count: usize) -> f64 {
        if count == 0 || self.cumulative.is_empty() {
            0.0
        } else {
            let index = (count - 1).min(self.cumulative.len() - 1);
            self.cumulative[index]
        }
    }

    /// The final coverage after all patterns.
    pub fn final_coverage(&self) -> f64 {
        self.cumulative.last().copied().unwrap_or(0.0)
    }

    /// `(patterns applied, coverage)` pairs for every pattern count 1..=n.
    pub fn points(&self) -> impl Iterator<Item = (usize, f64)> + '_ {
        self.cumulative
            .iter()
            .enumerate()
            .map(|(index, &coverage)| (index + 1, coverage))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::incremental::IncrementalSimulator;
    use crate::simulator::FaultSimulator;
    use crate::universe::FaultUniverse;
    use lsiq_netlist::library;
    use lsiq_sim::pattern::{Pattern, PatternSet};

    fn c17_curve() -> CoverageCurve {
        let circuit = library::c17();
        let universe = FaultUniverse::full(&circuit);
        let patterns: PatternSet = (0..32).map(|v| Pattern::from_integer(v, 5)).collect();
        let list = IncrementalSimulator::new(&circuit).run(&universe, &patterns);
        CoverageCurve::from_fault_list(&list, patterns.len())
    }

    #[test]
    fn curve_is_monotone_and_ends_at_final_coverage() {
        let curve = c17_curve();
        let mut previous = 0.0;
        for (_, coverage) in curve.points() {
            assert!(coverage + 1e-15 >= previous);
            previous = coverage;
        }
        assert!((curve.final_coverage() - 1.0).abs() < 1e-12);
        assert_eq!(curve.pattern_count(), 32);
        assert_eq!(curve.universe_size(), 46);
    }

    #[test]
    fn coverage_after_clamps_and_handles_zero() {
        let curve = c17_curve();
        assert_eq!(curve.coverage_after(0), 0.0);
        assert_eq!(curve.coverage_after(32), curve.final_coverage());
        assert_eq!(curve.coverage_after(1_000), curve.final_coverage());
        assert!(curve.coverage_after(1) > 0.0);
    }

    #[test]
    fn empty_inputs_produce_empty_curve() {
        let circuit = library::c17();
        let universe = FaultUniverse::full(&circuit);
        let list = crate::list::FaultList::new(&universe);
        let curve = CoverageCurve::from_fault_list(&list, 0);
        assert_eq!(curve.pattern_count(), 0);
        assert_eq!(curve.final_coverage(), 0.0);
        assert_eq!(curve.coverage_after(5), 0.0);
    }
}

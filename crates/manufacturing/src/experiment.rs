//! The Table-1 style cumulative-reject experiment.
//!
//! Section 5 of the paper: apply an ordered pattern set to a lot of chips,
//! record each chip's first failing pattern, and tabulate the *cumulative
//! fraction of rejected chips* against the *cumulative fault coverage* of the
//! patterns applied so far.  The resulting table (the paper's Table 1) is the
//! experimental input to the `n0` estimation procedure in `lsiq-core`.

use crate::tester::TestRecord;
use lsiq_fault::coverage::CoverageCurve;

/// One row of the experiment table: after reaching a given cumulative fault
/// coverage, how many chips have failed so far.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RejectRow {
    /// Number of patterns applied up to and including this checkpoint.
    pub patterns_applied: usize,
    /// Cumulative fault coverage of those patterns (the paper's `f`).
    pub fault_coverage: f64,
    /// Cumulative number of chips that failed by this checkpoint.
    pub chips_failed: usize,
    /// Cumulative fraction of chips that failed (the paper's `P(f)` sample).
    pub fraction_failed: f64,
}

/// The full cumulative-reject experiment result.
#[derive(Debug, Clone, PartialEq)]
pub struct RejectExperiment {
    rows: Vec<RejectRow>,
    total_chips: usize,
}

impl RejectExperiment {
    /// Tabulates the experiment from per-chip test records and the coverage
    /// curve of the applied pattern set.
    ///
    /// `checkpoints` lists the pattern counts at which rows are emitted; pass
    /// every pattern index for a full-resolution curve or a handful of counts
    /// for a Table-1 style summary.  Checkpoints are clamped to the curve.
    pub fn tabulate(
        records: &[TestRecord],
        coverage: &CoverageCurve,
        checkpoints: &[usize],
    ) -> RejectExperiment {
        let rows = checkpoints
            .iter()
            .map(|&patterns_applied| Self::row_at(records, coverage, patterns_applied))
            .collect();
        RejectExperiment {
            rows,
            total_chips: records.len(),
        }
    }

    /// Computes the single checkpoint row at `patterns_applied` by scanning
    /// every record — the `O(records)`-per-checkpoint reference that
    /// [`ParallelLotRunner::experiment`](crate::pipeline::ParallelLotRunner::experiment)
    /// reproduces with one streamed counting-sort pass over the records.
    pub(crate) fn row_at(
        records: &[TestRecord],
        coverage: &CoverageCurve,
        patterns_applied: usize,
    ) -> RejectRow {
        let chips_failed = records
            .iter()
            .filter(|record| match record.first_fail {
                Some(first) => first < patterns_applied,
                None => false,
            })
            .count();
        let fraction_failed = if records.is_empty() {
            0.0
        } else {
            chips_failed as f64 / records.len() as f64
        };
        RejectRow {
            patterns_applied,
            fault_coverage: coverage.coverage_after(patterns_applied),
            chips_failed,
            fraction_failed,
        }
    }

    /// Tabulates the experiment from a first-fail histogram of `chips`
    /// tested chips — `fail_counts[p]` chips first failed at pattern `p` —
    /// in one prefix-sum pass, `O(patterns + checkpoints)`.  The rows are
    /// byte-identical to [`tabulate`](Self::tabulate) over the records the
    /// histogram counts; the parallel runner and the streaming executor
    /// both finish here.
    pub(crate) fn from_fail_counts(
        fail_counts: &[usize],
        chips: usize,
        coverage: &CoverageCurve,
        checkpoints: &[usize],
    ) -> RejectExperiment {
        // cumulative_failed[k]: chips whose first failure precedes pattern k.
        let mut cumulative_failed = Vec::with_capacity(fail_counts.len() + 1);
        cumulative_failed.push(0usize);
        let mut running = 0usize;
        for count in fail_counts {
            running += count;
            cumulative_failed.push(running);
        }
        let rows = checkpoints
            .iter()
            .map(|&patterns_applied| {
                let chips_failed = cumulative_failed[patterns_applied.min(fail_counts.len())];
                RejectRow {
                    patterns_applied,
                    fault_coverage: coverage.coverage_after(patterns_applied),
                    chips_failed,
                    fraction_failed: if chips == 0 {
                        0.0
                    } else {
                        chips_failed as f64 / chips as f64
                    },
                }
            })
            .collect();
        RejectExperiment {
            rows,
            total_chips: chips,
        }
    }

    /// The tabulated rows in checkpoint order.
    pub fn rows(&self) -> &[RejectRow] {
        &self.rows
    }

    /// Number of chips tested.
    pub fn total_chips(&self) -> usize {
        self.total_chips
    }

    /// `(fault coverage, cumulative fraction failed)` pairs — the experiment
    /// points plotted in the paper's Fig. 5.
    pub fn coverage_vs_fraction(&self) -> Vec<(f64, f64)> {
        self.rows
            .iter()
            .map(|row| (row.fault_coverage, row.fraction_failed))
            .collect()
    }

    /// Renders the experiment as a text table in the format of the paper's
    /// Table 1.
    pub fn to_table(&self) -> String {
        let mut out = String::new();
        out.push_str("Fault Coverage (percent) | Cumulative Chips Failed | Cumulative Fraction\n");
        out.push_str("-------------------------|-------------------------|--------------------\n");
        for row in &self.rows {
            out.push_str(&format!(
                "{:>24.1} | {:>23} | {:>19.2}\n",
                row.fault_coverage * 100.0,
                row.chips_failed,
                row.fraction_failed
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lot::ModelLotConfig;
    use crate::pipeline::ParallelLotRunner;
    use lsiq_fault::dictionary::FaultDictionary;
    use lsiq_fault::incremental::IncrementalSimulator;
    use lsiq_fault::simulator::FaultSimulator;
    use lsiq_fault::universe::FaultUniverse;
    use lsiq_netlist::library;
    use lsiq_sim::pattern::{Pattern, PatternSet};

    fn run_experiment(chips: usize, yield_fraction: f64, seed: u64) -> RejectExperiment {
        let circuit = library::alu4();
        let universe = FaultUniverse::full(&circuit);
        let patterns: PatternSet = (0..256)
            .map(|v| Pattern::from_integer(v * 7 + 3, 10))
            .collect();
        let list = IncrementalSimulator::new(&circuit).run(&universe, &patterns);
        let coverage = CoverageCurve::from_fault_list(&list, patterns.len());
        let dictionary = FaultDictionary::from_fault_list(&list);
        let runner = ParallelLotRunner::default();
        let lot = runner.generate_model_lot(&ModelLotConfig {
            chips,
            yield_fraction,
            n0: 5.0,
            fault_universe_size: universe.len(),
            seed,
        });
        let records = runner.test_lot(&dictionary, &lot);
        every_count(&records, &coverage)
    }

    /// The experiment tabulated at every pattern count of the curve.
    fn every_count(records: &[TestRecord], coverage: &CoverageCurve) -> RejectExperiment {
        let checkpoints: Vec<usize> = (1..=coverage.pattern_count()).collect();
        RejectExperiment::tabulate(records, coverage, &checkpoints)
    }

    #[test]
    fn fraction_failed_is_monotone_and_bounded() {
        let experiment = run_experiment(300, 0.3, 7);
        let mut previous = 0.0;
        for row in experiment.rows() {
            assert!(row.fraction_failed + 1e-15 >= previous);
            assert!(row.fraction_failed <= 1.0);
            assert!(
                (row.fraction_failed - row.chips_failed as f64 / experiment.total_chips() as f64)
                    .abs()
                    < 1e-12
            );
            previous = row.fraction_failed;
        }
    }

    #[test]
    fn final_fraction_cannot_exceed_defective_fraction() {
        let experiment = run_experiment(400, 0.4, 3);
        let last = experiment.rows().last().expect("rows exist");
        // At most 60 percent of chips are defective, so at most that many can
        // ever fail (sampling noise stays well inside 15 points).
        assert!(last.fraction_failed <= 0.75);
        assert!(last.fraction_failed > 0.3);
    }

    #[test]
    fn checkpoint_tabulation_matches_full_resolution() {
        let circuit = library::c17();
        let universe = FaultUniverse::full(&circuit);
        let patterns: PatternSet = (0..16).map(|v| Pattern::from_integer(v, 5)).collect();
        let list = IncrementalSimulator::new(&circuit).run(&universe, &patterns);
        let coverage = CoverageCurve::from_fault_list(&list, patterns.len());
        let dictionary = FaultDictionary::from_fault_list(&list);
        let runner = ParallelLotRunner::default();
        let lot = runner.generate_model_lot(&ModelLotConfig {
            chips: 100,
            yield_fraction: 0.5,
            n0: 2.0,
            fault_universe_size: universe.len(),
            seed: 11,
        });
        let records = runner.test_lot(&dictionary, &lot);
        let full = every_count(&records, &coverage);
        let sampled = RejectExperiment::tabulate(&records, &coverage, &[4, 8, 16]);
        assert_eq!(sampled.rows().len(), 3);
        for row in sampled.rows() {
            let full_row = &full.rows()[row.patterns_applied - 1];
            assert_eq!(row.chips_failed, full_row.chips_failed);
            assert!((row.fault_coverage - full_row.fault_coverage).abs() < 1e-12);
        }
    }

    #[test]
    fn table_rendering_contains_headers_and_rows() {
        let experiment = run_experiment(50, 0.3, 1);
        let sampled = RejectExperiment::tabulate(
            &[],
            &CoverageCurve::from_fault_list(
                &lsiq_fault::list::FaultList::new(&FaultUniverse::full(&library::c17())),
                0,
            ),
            &[],
        );
        assert_eq!(sampled.total_chips(), 0);
        let table = experiment.to_table();
        assert!(table.contains("Fault Coverage"));
        assert!(table.lines().count() > 10);
        assert_eq!(
            experiment.coverage_vs_fraction().len(),
            experiment.rows().len()
        );
    }
}

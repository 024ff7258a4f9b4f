//! Field-reject measurement.
//!
//! The paper defines the field reject rate `r(f)` as "the ratio of the number
//! of bad chips tested good to the number of all chips that are tested good"
//! (Section 4).  On the simulated line the ground truth is available, so the
//! measurement is direct: ship every chip that passed the wafer test and
//! count how many of the shipped chips are actually defective.

use crate::tester::TestRecord;

/// The outcome of shipping the chips that passed wafer test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FieldOutcome {
    /// Chips that passed the applied pattern set (and were shipped).
    pub shipped: usize,
    /// Shipped chips that are actually defective (test escapes).
    pub escapes: usize,
    /// Chips rejected at wafer test.
    pub rejected: usize,
    /// Total chips tested.
    pub total: usize,
}

impl FieldOutcome {
    /// Measures the field outcome of a tested lot.
    pub fn from_records(records: &[TestRecord]) -> FieldOutcome {
        let shipped = records.iter().filter(|record| record.passed()).count();
        let escapes = records.iter().filter(|record| record.is_escape()).count();
        FieldOutcome {
            shipped,
            escapes,
            rejected: records.len() - shipped,
            total: records.len(),
        }
    }

    /// The measured field reject rate: escapes over shipped chips, or zero if
    /// nothing was shipped.
    pub fn field_reject_rate(&self) -> f64 {
        if self.shipped == 0 {
            0.0
        } else {
            self.escapes as f64 / self.shipped as f64
        }
    }

    /// The fraction of all tested chips that were rejected at wafer test (the
    /// experimental counterpart of the paper's `P(f)`).
    pub fn rejected_fraction(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.rejected as f64 / self.total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(chip_id: usize, first_fail: Option<usize>, is_defective: bool) -> TestRecord {
        TestRecord {
            chip_id,
            first_fail,
            is_defective,
        }
    }

    #[test]
    fn counts_are_consistent() {
        let records = vec![
            record(0, None, false),   // good, shipped
            record(1, None, true),    // escape
            record(2, Some(3), true), // rejected
            record(3, Some(0), true), // rejected
            record(4, None, false),   // good, shipped
        ];
        let outcome = FieldOutcome::from_records(&records);
        assert_eq!(outcome.total, 5);
        assert_eq!(outcome.shipped, 3);
        assert_eq!(outcome.escapes, 1);
        assert_eq!(outcome.rejected, 2);
        assert!((outcome.field_reject_rate() - 1.0 / 3.0).abs() < 1e-12);
        assert!((outcome.rejected_fraction() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn empty_lot_has_zero_rates() {
        let outcome = FieldOutcome::from_records(&[]);
        assert_eq!(outcome.field_reject_rate(), 0.0);
        assert_eq!(outcome.rejected_fraction(), 0.0);
    }

    #[test]
    fn seeded_field_statistics_are_pinned() {
        // End-to-end golden numbers: a weak 6-pattern programme over c17 and
        // a seeded 400-chip model lot.  Any change to the RNG streams, the
        // lot generator, the tester or the bookkeeping shows up here as an
        // exact mismatch, not a tolerance drift.
        use crate::lot::{ChipLot, ModelLotConfig};
        use crate::tester::WaferTester;
        use lsiq_fault::dictionary::FaultDictionary;
        use lsiq_fault::incremental::IncrementalSimulator;
        use lsiq_fault::simulator::FaultSimulator;
        use lsiq_fault::universe::FaultUniverse;
        use lsiq_netlist::library;
        use lsiq_sim::pattern::{Pattern, PatternSet};

        let circuit = library::c17();
        let universe = FaultUniverse::full(&circuit);
        let patterns: PatternSet = (0..6)
            .map(|v| Pattern::from_integer(v * 5 + 2, 5))
            .collect();
        let list = IncrementalSimulator::new(&circuit).run(&universe, &patterns);
        let dictionary = FaultDictionary::from_fault_list(&list);
        let lot = ChipLot::from_model(&ModelLotConfig {
            chips: 400,
            yield_fraction: 0.3,
            n0: 2.0,
            fault_universe_size: universe.len(),
            seed: 1981,
        });
        let records = WaferTester::new(&dictionary).test_lot(&lot);
        let outcome = FieldOutcome::from_records(&records);
        assert_eq!(
            outcome,
            FieldOutcome {
                shipped: 167,
                escapes: 47,
                rejected: 233,
                total: 400,
            }
        );
        assert!((outcome.field_reject_rate() - 47.0 / 167.0).abs() < 1e-15);
        assert!((outcome.rejected_fraction() - 233.0 / 400.0).abs() < 1e-15);
    }

    #[test]
    fn perfect_test_means_zero_field_rejects() {
        let records = vec![
            record(0, None, false),
            record(1, Some(1), true),
            record(2, Some(2), true),
        ];
        let outcome = FieldOutcome::from_records(&records);
        assert_eq!(outcome.escapes, 0);
        assert_eq!(outcome.field_reject_rate(), 0.0);
    }
}

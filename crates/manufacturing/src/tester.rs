//! A Sentry-like wafer tester.
//!
//! The tester applies an ordered pattern set to every chip of a lot and
//! records the first pattern at which each chip fails — exactly the data the
//! paper collected on the Fairchild Sentry test system ("the test pattern
//! number, on which the chip first failed, was recorded", Section 7).
//!
//! A chip carrying a set of stuck-at faults fails a pattern exactly when the
//! pattern detects at least one of those faults, so the tester consults the
//! first-failing-pattern dictionary produced by the fault simulator instead
//! of re-simulating every chip gate by gate.

use crate::chip::Chip;
use crate::lot::ChipLot;
use lsiq_fault::dictionary::FaultDictionary;

/// The wafer-test outcome of a single chip.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TestRecord {
    /// The chip's position in its lot.
    pub chip_id: usize,
    /// The first pattern (zero-based, in application order) at which the chip
    /// failed, or `None` if it passed the whole sequence.
    pub first_fail: Option<usize>,
    /// Whether the chip actually carries faults (ground truth, unknown to a
    /// real tester but available to the simulation for validation).
    pub is_defective: bool,
}

impl TestRecord {
    /// The chip passed every applied pattern.
    pub fn passed(&self) -> bool {
        self.first_fail.is_none()
    }

    /// The chip passed the tests but is actually defective (a test escape).
    pub fn is_escape(&self) -> bool {
        self.passed() && self.is_defective
    }
}

/// A wafer tester bound to one ordered pattern set via its fault dictionary.
#[derive(Debug, Clone)]
pub struct WaferTester<'d> {
    dictionary: &'d FaultDictionary,
}

impl<'d> WaferTester<'d> {
    /// Creates a tester that applies the pattern set summarised by
    /// `dictionary`.
    pub fn new(dictionary: &'d FaultDictionary) -> Self {
        WaferTester { dictionary }
    }

    /// Tests a single chip.
    pub fn test_chip(&self, chip: &Chip) -> TestRecord {
        TestRecord {
            chip_id: chip.id(),
            first_fail: self.dictionary.first_failure_of_chip(chip.fault_indices()),
            is_defective: !chip.is_good(),
        }
    }

    /// Tests a slice of chips, in slice order.
    ///
    /// Each record depends only on its own chip, so a lot may be tested as
    /// one slice or as concatenated sub-slices with identical results —
    /// [`ParallelLotRunner`](crate::pipeline::ParallelLotRunner) relies on
    /// this to shard a lot across threads.
    pub fn test_chips(&self, chips: &[Chip]) -> Vec<TestRecord> {
        chips.iter().map(|chip| self.test_chip(chip)).collect()
    }

    /// Tests every chip of a lot, in lot order.
    pub fn test_lot(&self, lot: &ChipLot) -> Vec<TestRecord> {
        self.test_chips(lot.chips())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lot::ModelLotConfig;
    use lsiq_fault::incremental::IncrementalSimulator;
    use lsiq_fault::simulator::FaultSimulator;
    use lsiq_fault::universe::FaultUniverse;
    use lsiq_netlist::library;
    use lsiq_sim::pattern::{Pattern, PatternSet};

    fn c17_dictionary() -> (FaultDictionary, usize) {
        let circuit = library::c17();
        let universe = FaultUniverse::full(&circuit);
        let patterns: PatternSet = (0..32).map(|v| Pattern::from_integer(v, 5)).collect();
        let list = IncrementalSimulator::new(&circuit).run(&universe, &patterns);
        (FaultDictionary::from_fault_list(&list), universe.len())
    }

    #[test]
    fn good_chips_pass_and_are_not_escapes() {
        let (dictionary, universe_len) = c17_dictionary();
        let tester = WaferTester::new(&dictionary);
        let good = Chip::new(0, vec![], 0);
        let record = tester.test_chip(&good);
        assert!(record.passed());
        assert!(!record.is_escape());
        assert!(!record.is_defective);
        let _ = universe_len;
    }

    #[test]
    fn defective_chips_fail_at_their_earliest_fault() {
        let (dictionary, _) = c17_dictionary();
        let tester = WaferTester::new(&dictionary);
        let chip = Chip::new(1, vec![0, 7, 11], 1);
        let record = tester.test_chip(&chip);
        let expected = [0usize, 7, 11]
            .iter()
            .filter_map(|&i| dictionary.first_failing_pattern(i))
            .min();
        assert_eq!(record.first_fail, expected);
        assert!(record.is_defective);
    }

    #[test]
    fn lot_testing_preserves_order_and_counts() {
        let (dictionary, universe_len) = c17_dictionary();
        let tester = WaferTester::new(&dictionary);
        let lot = ChipLot::from_model(&ModelLotConfig {
            chips: 200,
            yield_fraction: 0.4,
            n0: 3.0,
            fault_universe_size: universe_len,
            seed: 5,
        });
        let records = tester.test_lot(&lot);
        assert_eq!(records.len(), 200);
        for (index, record) in records.iter().enumerate() {
            assert_eq!(record.chip_id, index);
        }
        // With an exhaustive dictionary every defective chip fails.
        assert!(records.iter().all(|r| r.passed() != r.is_defective));
    }

    #[test]
    fn escapes_appear_when_the_pattern_set_is_weak() {
        // A dictionary built from a single pattern leaves most faults
        // undetected, so some defective chips must escape.
        let circuit = library::c17();
        let universe = FaultUniverse::full(&circuit);
        let patterns: PatternSet = [Pattern::zeros(5)].into_iter().collect();
        let list = IncrementalSimulator::new(&circuit).run(&universe, &patterns);
        let dictionary = FaultDictionary::from_fault_list(&list);
        let tester = WaferTester::new(&dictionary);
        let lot = ChipLot::from_model(&ModelLotConfig {
            chips: 300,
            yield_fraction: 0.3,
            n0: 2.0,
            fault_universe_size: universe.len(),
            seed: 8,
        });
        let records = tester.test_lot(&lot);
        let escapes = records.iter().filter(|r| r.is_escape()).count();
        assert!(escapes > 0, "expected at least one escape");
    }
}

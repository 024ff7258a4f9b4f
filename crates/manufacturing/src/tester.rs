//! The wafer tester's record of one chip.
//!
//! The tester applies an ordered pattern set to every chip of a lot and
//! records the first pattern at which each chip fails — exactly the data the
//! paper collected on the Fairchild Sentry test system ("the test pattern
//! number, on which the chip first failed, was recorded", Section 7).
//!
//! A chip carrying a set of stuck-at faults fails a pattern exactly when the
//! pattern detects at least one of those faults, so
//! [`ParallelLotRunner::test_lot`](crate::pipeline::ParallelLotRunner::test_lot)
//! consults the first-failing-pattern dictionary produced by the fault
//! simulator instead of re-simulating every chip gate by gate.  A
//! self-tested lot goes through the same tester: its dictionary records
//! each fault at the signature readout where it is first observed.

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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chip::Chip;
    use crate::lot::{ChipLot, ModelLotConfig};
    use crate::pipeline::ParallelLotRunner;
    use lsiq_fault::dictionary::FaultDictionary;
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

    /// Tests one chip, as the only chip of its lot.
    fn test_chip(dictionary: &FaultDictionary, faults: Vec<usize>) -> TestRecord {
        let lot = ChipLot::from_chips(vec![Chip::new(0, faults, 0)], dictionary.len());
        ParallelLotRunner::default().test_lot(dictionary, &lot)[0]
    }

    #[test]
    fn good_chips_pass_and_are_not_escapes() {
        let (dictionary, _) = c17_dictionary();
        let record = test_chip(&dictionary, vec![]);
        assert!(record.passed());
        assert!(!record.is_escape());
        assert!(!record.is_defective);
    }

    #[test]
    fn defective_chips_fail_at_their_earliest_fault() {
        let (dictionary, _) = c17_dictionary();
        let record = test_chip(&dictionary, vec![0, 7, 11]);
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
        let runner = ParallelLotRunner::default();
        let lot = runner.generate_model_lot(&ModelLotConfig {
            chips: 200,
            yield_fraction: 0.4,
            n0: 3.0,
            fault_universe_size: universe_len,
            seed: 5,
        });
        let records = runner.test_lot(&dictionary, &lot);
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
        let runner = ParallelLotRunner::default();
        let lot = runner.generate_model_lot(&ModelLotConfig {
            chips: 300,
            yield_fraction: 0.3,
            n0: 2.0,
            fault_universe_size: universe.len(),
            seed: 8,
        });
        let records = runner.test_lot(&dictionary, &lot);
        let escapes = records.iter().filter(|r| r.is_escape()).count();
        assert!(escapes > 0, "expected at least one escape");
    }
}

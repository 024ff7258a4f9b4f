//! First-failing-pattern dictionaries.
//!
//! The paper's Table 1 experiment records, for every tested chip, the first
//! pattern at which it fails.  The per-fault analogue of that record is the
//! fault dictionary built here: for each fault, the earliest pattern that
//! detects it.  The production-line tester consults this dictionary to decide
//! when a simulated defective chip (a set of faults) first fails.

use crate::list::FaultList;

/// First-failing-pattern records for a fault universe under an ordered
/// pattern set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultDictionary {
    first_pattern: Vec<Option<usize>>,
}

impl FaultDictionary {
    /// Builds the dictionary from a simulated fault list.
    pub fn from_fault_list(list: &FaultList) -> FaultDictionary {
        FaultDictionary {
            first_pattern: (0..list.len())
                .map(|index| list.state(index).first_pattern())
                .collect(),
        }
    }

    /// Reassembles a dictionary from its per-fault first-failing-pattern
    /// records — the inverse of [`first_patterns`](Self::first_patterns),
    /// used by artifact stores that persist dictionaries across processes.
    pub fn from_first_patterns(first_pattern: Vec<Option<usize>>) -> FaultDictionary {
        FaultDictionary { first_pattern }
    }

    /// The raw per-fault records, in fault-universe order: the first
    /// pattern detecting each fault, or `None` when no applied pattern
    /// does.  Together with [`from_first_patterns`](Self::from_first_patterns)
    /// this round-trips the dictionary exactly.
    pub fn first_patterns(&self) -> &[Option<usize>] {
        &self.first_pattern
    }

    /// Number of faults covered by the dictionary.
    pub fn len(&self) -> usize {
        self.first_pattern.len()
    }

    /// Returns `true` if the dictionary covers no faults.
    pub fn is_empty(&self) -> bool {
        self.first_pattern.is_empty()
    }

    /// The first pattern detecting fault `index`, or `None` if no applied
    /// pattern detects it.
    pub fn first_failing_pattern(&self, index: usize) -> Option<usize> {
        self.first_pattern.get(index).copied().flatten()
    }

    /// The first pattern at which a chip carrying exactly the faults in
    /// `fault_indices` fails, or `None` if it passes every pattern.
    ///
    /// Under the single-fault detectability assumption of the paper's model
    /// (the chip's faults are equivalent to a set of detectable stuck-at
    /// faults), a chip fails at the earliest first-failing pattern over its
    /// faults.
    pub fn first_failure_of_chip(&self, fault_indices: &[usize]) -> Option<usize> {
        fault_indices
            .iter()
            .filter_map(|&index| self.first_failing_pattern(index))
            .min()
    }

    /// The first test *session* in which fault `index` produces any
    /// response difference, for a test applied as sessions of `session_len`
    /// patterns — the aliasing-free ideal a BIST signature dictionary is
    /// compared against.
    ///
    /// A signature read out after each session can flag the fault no
    /// earlier than this (the responses match until then) and may flag it
    /// later — or never — when aliasing cancels the difference inside every
    /// session.
    ///
    /// # Panics
    ///
    /// Panics if `session_len` is 0.
    pub fn first_failing_session(&self, index: usize, session_len: usize) -> Option<usize> {
        assert!(session_len >= 1, "a session must apply at least 1 pattern");
        self.first_failing_pattern(index)
            .map(|pattern| pattern / session_len)
    }

    /// Number of faults whose first detection is exactly `pattern`.
    pub fn detections_at(&self, pattern: usize) -> usize {
        self.first_pattern
            .iter()
            .filter(|p| **p == Some(pattern))
            .count()
    }

    /// Indices of faults never detected by the applied pattern set.
    pub fn undetected(&self) -> Vec<usize> {
        self.first_pattern
            .iter()
            .enumerate()
            .filter(|(_, p)| p.is_none())
            .map(|(i, _)| i)
            .collect()
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

    fn c17_dictionary() -> (FaultDictionary, usize) {
        let circuit = library::c17();
        let universe = FaultUniverse::full(&circuit);
        let patterns: PatternSet = (0..32).map(|v| Pattern::from_integer(v, 5)).collect();
        let list = IncrementalSimulator::new(&circuit).run(&universe, &patterns);
        (FaultDictionary::from_fault_list(&list), universe.len())
    }

    #[test]
    fn dictionary_covers_every_fault() {
        let (dictionary, universe_len) = c17_dictionary();
        assert_eq!(dictionary.len(), universe_len);
        assert!(!dictionary.is_empty());
        // Exhaustive patterns leave nothing undetected.
        assert!(dictionary.undetected().is_empty());
    }

    #[test]
    fn detections_per_pattern_sum_to_universe() {
        let (dictionary, universe_len) = c17_dictionary();
        let total: usize = (0..32).map(|p| dictionary.detections_at(p)).sum();
        assert_eq!(total, universe_len);
    }

    #[test]
    fn chip_fails_at_its_earliest_fault() {
        let (dictionary, _) = c17_dictionary();
        let first_a = dictionary.first_failing_pattern(0).expect("detected");
        let first_b = dictionary.first_failing_pattern(5).expect("detected");
        let chip_failure = dictionary
            .first_failure_of_chip(&[0, 5])
            .expect("chip fails");
        assert_eq!(chip_failure, first_a.min(first_b));
        // A fault-free chip never fails.
        assert_eq!(dictionary.first_failure_of_chip(&[]), None);
    }

    #[test]
    fn out_of_range_fault_index_reports_none() {
        let (dictionary, universe_len) = c17_dictionary();
        assert_eq!(dictionary.first_failing_pattern(universe_len + 10), None);
    }

    #[test]
    fn sessions_quantise_first_failing_patterns() {
        let (dictionary, universe_len) = c17_dictionary();
        for index in 0..universe_len {
            let pattern = dictionary.first_failing_pattern(index);
            assert_eq!(
                dictionary.first_failing_session(index, 8),
                pattern.map(|p| p / 8)
            );
            // One-pattern sessions are the stored-pattern observable.
            assert_eq!(dictionary.first_failing_session(index, 1), pattern);
        }
        assert_eq!(dictionary.first_failing_session(universe_len + 1, 8), None);
    }

    #[test]
    #[should_panic(expected = "at least 1 pattern")]
    fn zero_length_sessions_panic() {
        let (dictionary, _) = c17_dictionary();
        let _ = dictionary.first_failing_session(0, 0);
    }
}

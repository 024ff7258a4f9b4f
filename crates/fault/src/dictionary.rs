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
///
/// Each fault's record is one `u32`: the index of the first pattern that
/// detects it, or `u32::MAX` when no applied pattern does.  Four bytes a
/// fault keep the 12,114-fault reproduction device's dictionary at 48 KB,
/// small enough to stay in cache while a lot is tested against it.  A
/// pattern index must therefore be below `u32::MAX`; both constructors
/// panic on one that is not.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultDictionary {
    first_pattern: Vec<u32>,
}

/// The record of a fault no applied pattern detects.
const UNDETECTED: u32 = u32::MAX;

/// The `u32` record of a first-failing pattern.
///
/// # Panics
///
/// Panics, naming the index, if `first` does not fit below [`UNDETECTED`].
fn record(first: Option<usize>) -> u32 {
    match first {
        None => UNDETECTED,
        Some(index) => u32::try_from(index)
            .ok()
            .filter(|&record| record != UNDETECTED)
            .unwrap_or_else(|| {
                panic!("first-failing pattern {index} does not fit the dictionary's u32 record")
            }),
    }
}

/// The first-failing pattern a `u32` record stands for.
fn first_of(record: u32) -> Option<usize> {
    (record != UNDETECTED).then_some(record as usize)
}

impl FaultDictionary {
    /// Builds the dictionary from a simulated fault list.
    ///
    /// # Panics
    ///
    /// Panics if a first-detecting pattern index is `u32::MAX` or more.
    pub fn from_fault_list(list: &FaultList) -> FaultDictionary {
        FaultDictionary::from_first_patterns(
            (0..list.len()).map(|index| list.state(index).first_pattern()),
        )
    }

    /// Reassembles a dictionary from its per-fault first-failing-pattern
    /// records — the inverse of [`first_patterns`](Self::first_patterns),
    /// used by artifact stores that persist dictionaries across processes.
    ///
    /// # Panics
    ///
    /// Panics if a pattern index is `u32::MAX` or more.
    pub fn from_first_patterns(
        first_patterns: impl IntoIterator<Item = Option<usize>>,
    ) -> FaultDictionary {
        FaultDictionary {
            first_pattern: first_patterns.into_iter().map(record).collect(),
        }
    }

    /// The per-fault records, in fault-universe order: the first pattern
    /// detecting each fault, or `None` when no applied pattern does.
    /// Together with [`from_first_patterns`](Self::from_first_patterns)
    /// this round-trips the dictionary exactly.
    pub fn first_patterns(&self) -> impl ExactSizeIterator<Item = Option<usize>> + '_ {
        self.first_pattern.iter().map(|&record| first_of(record))
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
    /// pattern detects it (or `index` is outside the universe).
    pub fn first_failing_pattern(&self, index: usize) -> Option<usize> {
        first_of(self.record_at(index))
    }

    /// The record of fault `index`; undetected outside the universe.
    fn record_at(&self, index: usize) -> u32 {
        self.first_pattern.get(index).copied().unwrap_or(UNDETECTED)
    }

    /// The first pattern at which a chip carrying exactly the faults in
    /// `fault_indices` fails, or `None` if it passes every pattern.
    ///
    /// Under the single-fault detectability assumption of the paper's model
    /// (the chip's faults are equivalent to a set of detectable stuck-at
    /// faults), a chip fails at the earliest first-failing pattern over its
    /// faults.  The undetected record is the largest `u32`, so that is a
    /// plain minimum over the records.
    pub fn first_failure_of_chip(&self, fault_indices: &[usize]) -> Option<usize> {
        first_of(
            fault_indices
                .iter()
                .fold(UNDETECTED, |first, &index| first.min(self.record_at(index))),
        )
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
        self.first_patterns()
            .filter(|&first| first == Some(pattern))
            .count()
    }

    /// Indices of faults never detected by the applied pattern set.
    pub fn undetected(&self) -> Vec<usize> {
        self.first_patterns()
            .enumerate()
            .filter(|(_, first)| first.is_none())
            .map(|(index, _)| index)
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
    fn records_round_trip_up_to_the_largest_u32_index() {
        let records = [Some(0), None, Some(7), Some(u32::MAX as usize - 1)];
        let dictionary = FaultDictionary::from_first_patterns(records);
        assert!(dictionary.first_patterns().eq(records));
        assert_eq!(
            FaultDictionary::from_first_patterns(dictionary.first_patterns()),
            dictionary
        );
        assert_eq!(
            dictionary.first_failure_of_chip(&[1, 3]),
            Some(u32::MAX as usize - 1)
        );
        assert_eq!(dictionary.first_failure_of_chip(&[3, 2, 1]), Some(7));
        assert_eq!(dictionary.first_failure_of_chip(&[1]), None);
        assert_eq!(dictionary.undetected(), vec![1]);
    }

    #[test]
    #[should_panic(expected = "first-failing pattern 4294967295 does not fit")]
    fn a_pattern_index_beyond_the_u32_record_is_rejected() {
        let _ = FaultDictionary::from_first_patterns([Some(3), Some(u32::MAX as usize)]);
    }

    #[test]
    #[should_panic(expected = "at least 1 pattern")]
    fn zero_length_sessions_panic() {
        let (dictionary, _) = c17_dictionary();
        let _ = dictionary.first_failing_session(0, 0);
    }
}

//! Static test-set compaction.
//!
//! Reverse-order fault-simulation compaction: patterns are examined in
//! reverse application order and kept only if they detect at least one fault
//! not detected by the already-kept (later) patterns.  Random pattern sets
//! usually shrink substantially, which matters to the paper's cost argument
//! ("test application costs increase very rapidly" as coverage approaches
//! 100 percent).
//!
//! The pass is engine-aware: [`reverse_order_compaction`] takes any
//! [`EngineKind`] plus its [`EngineOptions`], so the incremental engine can
//! run on a session's persistent worker pool.  The deductive engine suits
//! the pass well (one pass per single-pattern step, whatever the size of the
//! shrinking fault universe).  Every engine produces byte-identical
//! compaction results.

use lsiq_fault::simulator::{BuildEngine, EngineKind, EngineOptions};
use lsiq_fault::universe::FaultUniverse;
use lsiq_netlist::circuit::Circuit;
use lsiq_sim::pattern::PatternSet;

/// The result of compacting a pattern set.
#[derive(Debug, Clone)]
pub struct CompactionResult {
    /// The kept patterns, in their original relative order.
    pub compacted: PatternSet,
    /// Number of patterns in the original set.
    pub original_len: usize,
    /// Coverage of the original set over the supplied universe.
    pub original_coverage: f64,
    /// Coverage of the compacted set over the supplied universe.
    pub compacted_coverage: f64,
}

impl CompactionResult {
    /// The compaction ratio `compacted / original` (1.0 for an empty input).
    pub fn ratio(&self) -> f64 {
        if self.original_len == 0 {
            1.0
        } else {
            self.compacted.len() as f64 / self.original_len as f64
        }
    }
}

/// Compacts `patterns` against `universe` by reverse-order fault simulation
/// on `engine`, built with `options`: an optional worker pool (the
/// incremental engine shards its faults across it; the single-threaded
/// oracles and `None` run on the calling thread), a packed lane width, and
/// optionally a shared [`GoodMachineCache`](lsiq_sim::cache::GoodMachineCache)
/// so the full-set simulations at the start and end of the pass reuse
/// good-machine chunks deposited by an earlier suite build or sweep over the
/// same patterns.  The kept patterns are identical for every engine and
/// option combination.
pub fn reverse_order_compaction(
    circuit: &Circuit,
    universe: &FaultUniverse,
    patterns: &PatternSet,
    engine: EngineKind,
    options: &EngineOptions,
) -> CompactionResult {
    let simulator = engine.build_configured(circuit, options);
    let simulator = simulator.as_ref();
    let original_list = simulator.run(universe, patterns);
    let original_coverage = original_list.coverage();

    // Walk patterns from last to first, keeping those that add detections.
    let mut kept_reversed: Vec<usize> = Vec::new();
    let mut detected = vec![false; universe.len()];
    for index in original_list.undetected_indices() {
        // Faults never detected by the full set can be ignored entirely.
        detected[index] = true;
    }

    for pattern_index in (0..patterns.len()).rev() {
        let single: PatternSet = [patterns
            .get(pattern_index)
            .expect("index is in range")
            .clone()]
        .into_iter()
        .collect();
        let undetected_universe = FaultUniverse::from_faults(
            universe
                .iter()
                .enumerate()
                .filter(|(i, _)| !detected[*i])
                .map(|(_, f)| *f)
                .collect(),
        );
        if undetected_universe.is_empty() {
            break;
        }
        let list = simulator.run(&undetected_universe, &single);
        if list.detected_count() == 0 {
            continue;
        }
        kept_reversed.push(pattern_index);
        // Map detections back to the original universe indices.
        let mut cursor = 0usize;
        for is_detected in detected.iter_mut() {
            if *is_detected {
                continue;
            }
            if list.state(cursor).is_detected() {
                *is_detected = true;
            }
            cursor += 1;
        }
    }

    kept_reversed.reverse();
    let compacted: PatternSet = kept_reversed
        .into_iter()
        .map(|i| patterns.get(i).expect("kept index is valid").clone())
        .collect();
    let compacted_coverage = simulator.run(universe, &compacted).coverage();
    CompactionResult {
        compacted,
        original_len: patterns.len(),
        original_coverage,
        compacted_coverage,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::random::RandomPatternGenerator;
    use lsiq_exec::ExecutionContext;
    use lsiq_netlist::library;

    /// The pass on the deductive engine with default options.
    fn deductive(
        circuit: &Circuit,
        universe: &FaultUniverse,
        patterns: &PatternSet,
    ) -> CompactionResult {
        reverse_order_compaction(
            circuit,
            universe,
            patterns,
            EngineKind::Deductive,
            &EngineOptions::default(),
        )
    }

    #[test]
    fn compaction_preserves_coverage() {
        let circuit = library::c17();
        let universe = FaultUniverse::full(&circuit);
        let patterns = RandomPatternGenerator::new(&circuit, 11).generate(200);
        let result = deductive(&circuit, &universe, &patterns);
        assert!(
            (result.compacted_coverage - result.original_coverage).abs() < 1e-12,
            "coverage changed: {} vs {}",
            result.compacted_coverage,
            result.original_coverage
        );
        assert!(result.compacted.len() <= result.original_len);
    }

    #[test]
    fn redundant_patterns_are_removed() {
        let circuit = library::c17();
        let universe = FaultUniverse::full(&circuit);
        // 200 random patterns over 5 inputs are heavily redundant.
        let patterns = RandomPatternGenerator::new(&circuit, 3).generate(200);
        let result = deductive(&circuit, &universe, &patterns);
        assert!(
            result.compacted.len() < 40,
            "expected strong compaction, kept {}",
            result.compacted.len()
        );
        assert!(result.ratio() < 0.25);
    }

    #[test]
    fn empty_pattern_set_is_handled() {
        let circuit = library::c17();
        let universe = FaultUniverse::full(&circuit);
        let result = deductive(&circuit, &universe, &PatternSet::new());
        assert_eq!(result.compacted.len(), 0);
        assert_eq!(result.ratio(), 1.0);
        assert_eq!(result.original_coverage, 0.0);
    }

    #[test]
    fn kept_patterns_preserve_relative_order() {
        let circuit = library::full_adder();
        let universe = FaultUniverse::full(&circuit);
        let patterns = RandomPatternGenerator::new(&circuit, 9).generate(50);
        let result = deductive(&circuit, &universe, &patterns);
        // Every kept pattern must appear in the original set, in order.
        let mut search_from = 0usize;
        for kept in result.compacted.iter() {
            let position = (search_from..patterns.len())
                .find(|&i| patterns.get(i) == Some(kept))
                .expect("kept pattern comes from the original set, in order");
            search_from = position + 1;
        }
    }

    #[test]
    fn every_engine_compacts_identically() {
        let circuit = library::full_adder();
        let universe = FaultUniverse::full(&circuit);
        let patterns = RandomPatternGenerator::new(&circuit, 21).generate(60);
        let reference = deductive(&circuit, &universe, &patterns);
        for engine in EngineKind::ALL {
            let result = reverse_order_compaction(
                &circuit,
                &universe,
                &patterns,
                engine,
                &EngineOptions::default(),
            );
            assert_eq!(
                result.compacted.as_slice(),
                reference.compacted.as_slice(),
                "{engine}"
            );
            assert_eq!(result.original_coverage, reference.original_coverage);
            assert_eq!(result.compacted_coverage, reference.compacted_coverage);
        }
    }

    #[test]
    fn configured_compaction_matches_at_every_lane_width_with_a_shared_cache() {
        use lsiq_exec::LaneWidth;
        use lsiq_sim::cache::GoodMachineCache;

        let circuit = library::alu4();
        let universe = FaultUniverse::full(&circuit);
        let patterns = RandomPatternGenerator::new(&circuit, 13).generate(120);
        let reference = deductive(&circuit, &universe, &patterns);
        let cache = GoodMachineCache::new();
        for lanes in LaneWidth::EXPLICIT {
            for _ in 0..2 {
                let result = reverse_order_compaction(
                    &circuit,
                    &universe,
                    &patterns,
                    EngineKind::Incremental,
                    &EngineOptions {
                        lanes,
                        cache: Some(&cache),
                        ..EngineOptions::default()
                    },
                );
                assert_eq!(
                    result.compacted.as_slice(),
                    reference.compacted.as_slice(),
                    "{lanes}"
                );
            }
        }
        // Two passes per lane width over the same full pattern set: the
        // second replays its good machine from the cache.
        assert!(cache.hits() > 0);
        assert!(cache.misses() > 0);
    }

    #[test]
    fn context_bound_compaction_matches_at_any_worker_count() {
        let circuit = library::c17();
        let universe = FaultUniverse::full(&circuit);
        let patterns = RandomPatternGenerator::new(&circuit, 5).generate(80);
        let reference = deductive(&circuit, &universe, &patterns);
        for workers in [1, 3] {
            let context = ExecutionContext::new(workers);
            let result = reverse_order_compaction(
                &circuit,
                &universe,
                &patterns,
                EngineKind::Incremental,
                &EngineOptions {
                    context: Some(&context),
                    ..EngineOptions::default()
                },
            );
            assert_eq!(
                result.compacted.as_slice(),
                reference.compacted.as_slice(),
                "workers = {workers}"
            );
        }
    }
}

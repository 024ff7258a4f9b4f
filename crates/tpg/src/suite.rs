//! End-to-end test-suite construction.
//!
//! Combines random pattern generation with PODEM top-up to produce the
//! ordered pattern set whose cumulative coverage curve drives the paper's
//! Section 5 procedure: patterns are "evaluated on a fault simulator in the
//! same order as they would be applied to the chip".

use crate::podem::{Podem, TestOutcome};
use crate::random::RandomPatternGenerator;
use lsiq_exec::{ExecutionContext, LaneWidth, RunConfig};
use lsiq_fault::coverage::CoverageCurve;
use lsiq_fault::dictionary::FaultDictionary;
use lsiq_fault::list::FaultList;
use lsiq_fault::simulator::{BuildEngine, EngineKind, EngineOptions, FaultSimulator};
use lsiq_fault::universe::FaultUniverse;
use lsiq_netlist::circuit::Circuit;
use lsiq_sim::cache::GoodMachineCache;
use lsiq_sim::pattern::PatternSet;

/// Backtrack limit handed to PODEM in the top-up phase.
const PODEM_BACKTRACKS: usize = 200;

/// Configuration for building an ordered test suite: random patterns up to
/// a target coverage, optionally topped up by PODEM for the faults the
/// random phase missed.
///
/// ```
/// use lsiq_fault::universe::FaultUniverse;
/// use lsiq_netlist::library;
/// use lsiq_tpg::suite::TestSuiteBuilder;
///
/// let circuit = library::c17();
/// let universe = FaultUniverse::full(&circuit);
/// let suite = TestSuiteBuilder {
///     seed: 7,
///     target_coverage: 0.9,
///     ..TestSuiteBuilder::default()
/// }
/// .build(&circuit, &universe);
/// assert!(suite.coverage() >= 0.9);
/// // The dictionary records every fault's first failing pattern — the raw
/// // material of the paper's Table 1.
/// assert_eq!(suite.dictionary.len(), universe.len());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TestSuiteBuilder {
    /// Seed for the random phase.
    pub seed: u64,
    /// Number of random patterns generated per chunk before re-evaluating
    /// coverage.
    pub chunk: usize,
    /// Maximum number of random patterns; the last chunk is cut short to
    /// stay within it.
    pub max_random_patterns: usize,
    /// Stop the random phase once this coverage is reached.
    pub target_coverage: f64,
    /// Whether to run PODEM for faults the random phase missed.
    pub podem_top_up: bool,
    /// Which fault-simulation engine evaluates the patterns (see
    /// [`EngineKind`]; the incremental engine is the default).  The suite
    /// hands the engine the universe it reports on, and every engine
    /// simulates each fault of it; the incremental engine propagates one
    /// stem per fanout-free region for all of the region's faults.
    pub engine: EngineKind,
    /// Packed lane width for the chunked engine (see [`LaneWidth`]; the
    /// suite is byte-identical at every width, lanes only change
    /// throughput).  Ignored by the serial and deductive oracles.
    pub lanes: LaneWidth,
}

impl Default for TestSuiteBuilder {
    fn default() -> Self {
        TestSuiteBuilder {
            seed: 1,
            chunk: 32,
            max_random_patterns: 512,
            target_coverage: 0.95,
            podem_top_up: true,
            engine: EngineKind::Incremental,
            lanes: LaneWidth::Auto,
        }
    }
}

/// An ordered pattern set together with its fault-simulation results.
#[derive(Debug, Clone)]
pub struct TestSuite {
    /// The ordered patterns, exactly as they would be applied by the tester.
    pub patterns: PatternSet,
    /// Per-fault detection results of the final ordered set.
    pub fault_list: FaultList,
    /// Cumulative coverage after each pattern.
    pub coverage_curve: CoverageCurve,
    /// First-failing-pattern dictionary for the final ordered set.
    pub dictionary: FaultDictionary,
    /// Number of patterns contributed by the PODEM top-up phase.
    pub deterministic_patterns: usize,
}

impl TestSuite {
    /// Final fault coverage of the whole suite.
    pub fn coverage(&self) -> f64 {
        self.fault_list.coverage()
    }
}

impl TestSuiteBuilder {
    /// Applies the engine and lane-width choices of a typed [`RunConfig`].
    ///
    /// Only run-level knobs are taken: the suite `seed` is a property of the
    /// test *programme* (changing it changes which patterns are generated),
    /// not of the run, so it is deliberately left untouched — the same
    /// builder therefore produces byte-identical suites under every run
    /// configuration.
    pub fn with_run_config(mut self, config: &RunConfig) -> Self {
        self.engine = config.engine();
        self.lanes = config.lanes();
        self
    }

    /// Builds an ordered test suite for `circuit` against `universe`, fault
    /// simulating with the configured [`engine`](TestSuiteBuilder::engine) on
    /// the calling thread.
    pub fn build(&self, circuit: &Circuit, universe: &FaultUniverse) -> TestSuite {
        self.build_cached(None, None, circuit, universe)
    }

    /// Builds the suite with every run-level resource made explicit: an
    /// optional execution context (the configured engine shards its
    /// faults across it; single-threaded engines and `None` run on the
    /// calling thread) and an optional shared [`GoodMachineCache`].  The
    /// build simulates each pattern once (see [`build_with`](Self::build_with)),
    /// so it never finds its own chunks in the cache; it only deposits their
    /// fault-free images for later passes over the same pattern windows.
    /// Results are byte-identical to [`build`](Self::build) with or without
    /// either resource, at any worker count.
    pub fn build_cached(
        &self,
        context: Option<&ExecutionContext>,
        cache: Option<&GoodMachineCache>,
        circuit: &Circuit,
        universe: &FaultUniverse,
    ) -> TestSuite {
        let options = EngineOptions {
            context,
            lanes: self.lanes,
            cache,
            ..EngineOptions::default()
        };
        self.build_with(
            self.engine.build_configured(circuit, &options).as_ref(),
            circuit,
            universe,
        )
    }

    /// Builds an ordered test suite using a caller-supplied fault-simulation
    /// engine (any [`FaultSimulator`]).  Each pattern is simulated once: the
    /// engine runs once per random chunk and once over all PODEM top-up
    /// patterns, each time over only the new patterns and against only the
    /// faults of `universe` still undetected (`universe` itself while none
    /// is).  Appending patterns never moves a fault's first detecting
    /// pattern, so the suite is byte-identical to one run over its final
    /// pattern set.
    pub fn build_with(
        &self,
        simulator: &dyn FaultSimulator,
        circuit: &Circuit,
        universe: &FaultUniverse,
    ) -> TestSuite {
        let mut generator = RandomPatternGenerator::new(circuit, self.seed);
        let mut patterns = PatternSet::new();
        let mut list = FaultList::new(universe);

        // Random phase: add chunks until the target coverage or the pattern
        // budget is reached.
        while list.coverage() < self.target_coverage && patterns.len() < self.max_random_patterns {
            let offset = patterns.len();
            for _ in 0..self.chunk.max(1).min(self.max_random_patterns - offset) {
                patterns.push(generator.next_pattern());
            }
            simulate_appended(simulator, universe, &mut list, &patterns, offset);
        }

        // Deterministic phase: target whatever the random phase missed.
        let random_patterns = patterns.len();
        if self.podem_top_up {
            let podem = Podem::new(circuit).with_max_backtracks(PODEM_BACKTRACKS);
            for fault_index in list.undetected_indices() {
                if let TestOutcome::Test(pattern) = podem.generate_test(list.fault(fault_index)) {
                    patterns.push(pattern);
                }
            }
        }
        simulate_appended(simulator, universe, &mut list, &patterns, random_patterns);

        let coverage_curve = CoverageCurve::from_fault_list(&list, patterns.len());
        let dictionary = FaultDictionary::from_fault_list(&list);
        TestSuite {
            deterministic_patterns: patterns.len() - random_patterns,
            patterns,
            fault_list: list,
            coverage_curve,
            dictionary,
        }
    }
}

/// Fault simulates `patterns[offset..]` against the faults of `list` that
/// are still undetected, and records each detection at its index in
/// `patterns`.
///
/// While nothing is detected the engine is handed `universe` itself, which
/// spares a copy of it.
fn simulate_appended(
    simulator: &dyn FaultSimulator,
    universe: &FaultUniverse,
    list: &mut FaultList,
    patterns: &PatternSet,
    offset: usize,
) {
    let undetected = list.undetected_indices();
    if undetected.is_empty() || offset == patterns.len() {
        return;
    }
    let appended: PatternSet = patterns.as_slice()[offset..].iter().cloned().collect();
    let remaining;
    let faults = if undetected.len() == universe.len() {
        universe
    } else {
        remaining = FaultUniverse::from_faults(
            undetected.iter().map(|&index| *list.fault(index)).collect(),
        );
        &remaining
    };
    let hits = simulator.run(faults, &appended);
    for (&index, (_, state)) in undetected.iter().zip(hits.iter()) {
        if let Some(pattern) = state.first_pattern() {
            list.mark_detected(index, offset + pattern);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsiq_fault::deductive::DeductiveSimulator;
    use lsiq_netlist::library;

    #[test]
    fn suite_reaches_high_coverage_on_c17() {
        let circuit = library::c17();
        let universe = FaultUniverse::full(&circuit);
        let suite = TestSuiteBuilder::default().build(&circuit, &universe);
        assert!(suite.coverage() >= 0.95, "coverage {}", suite.coverage());
        assert_eq!(suite.coverage_curve.pattern_count(), suite.patterns.len());
        assert_eq!(suite.dictionary.len(), universe.len());
    }

    #[test]
    fn podem_top_up_raises_coverage_over_random_alone() {
        let circuit = library::alu4();
        let universe = FaultUniverse::full(&circuit);
        let few_random = TestSuiteBuilder {
            max_random_patterns: 16,
            target_coverage: 1.0,
            podem_top_up: false,
            ..TestSuiteBuilder::default()
        };
        let with_top_up = TestSuiteBuilder {
            max_random_patterns: 16,
            target_coverage: 1.0,
            podem_top_up: true,
            ..TestSuiteBuilder::default()
        };
        let random_only = few_random.build(&circuit, &universe);
        let topped_up = with_top_up.build(&circuit, &universe);
        assert!(topped_up.coverage() > random_only.coverage());
        assert!(topped_up.deterministic_patterns > 0);
        assert_eq!(random_only.deterministic_patterns, 0);
    }

    #[test]
    fn every_engine_builds_the_same_suite() {
        // The engine knob must not change the produced suite in any way:
        // identical patterns, identical detection results.
        let circuit = library::c17();
        let universe = FaultUniverse::full(&circuit);
        let reference = TestSuiteBuilder::default().build(&circuit, &universe);
        for engine in EngineKind::ALL {
            let suite = TestSuiteBuilder {
                engine,
                ..TestSuiteBuilder::default()
            }
            .build(&circuit, &universe);
            assert_eq!(
                suite.patterns.as_slice(),
                reference.patterns.as_slice(),
                "{engine}"
            );
            assert_eq!(suite.fault_list, reference.fault_list, "{engine}");
            assert_eq!(suite.coverage_curve, reference.coverage_curve, "{engine}");
        }
    }

    #[test]
    fn run_config_sets_the_engine_and_a_pooled_build_matches_build() {
        let circuit = library::c17();
        let universe = FaultUniverse::full(&circuit);
        let config = RunConfig::default()
            .with_engine(EngineKind::Deductive)
            .with_lanes(LaneWidth::X8)
            .with_base_seed(999); // must NOT leak into the suite seed
        let builder = TestSuiteBuilder::default().with_run_config(&config);
        assert_eq!(builder.engine, EngineKind::Deductive);
        assert_eq!(builder.lanes, LaneWidth::X8);
        assert_eq!(builder.seed, TestSuiteBuilder::default().seed);

        let reference = TestSuiteBuilder::default().build(&circuit, &universe);
        for workers in [1, 3] {
            let context = ExecutionContext::new(workers);
            let suite =
                TestSuiteBuilder::default().build_cached(Some(&context), None, &circuit, &universe);
            assert_eq!(suite.patterns.as_slice(), reference.patterns.as_slice());
            assert_eq!(
                suite.fault_list, reference.fault_list,
                "workers = {workers}"
            );
        }
    }

    #[test]
    fn engine_collapsing_is_invisible_in_the_built_suite() {
        // The deductive oracle, which once simulated one representative per
        // equivalence class, now simulates every fault it is handed; handed
        // to `build_with`, it must not change a single reported number
        // against the default incremental engine, on the full universe and
        // on the checkpoint universe.
        let circuit = library::alu4();
        let oracle = DeductiveSimulator::new(&circuit);
        for universe in [
            FaultUniverse::full(&circuit),
            FaultUniverse::checkpoint(&circuit),
        ] {
            let incremental = TestSuiteBuilder::default().build(&circuit, &universe);
            let suite = TestSuiteBuilder::default().build_with(&oracle, &circuit, &universe);
            assert_eq!(incremental.patterns.as_slice(), suite.patterns.as_slice());
            assert_eq!(incremental.fault_list, suite.fault_list);
            assert_eq!(incremental.coverage_curve, suite.coverage_curve);
            assert_eq!(incremental.dictionary, suite.dictionary);
            assert_eq!(
                incremental.deterministic_patterns,
                suite.deterministic_patterns
            );
        }

        // The PODEM top-up phase reads the list's undetected indices;
        // starve the random phase so the deterministic phase actually runs.
        let universe = FaultUniverse::full(&circuit);
        let starved = TestSuiteBuilder {
            max_random_patterns: 16,
            target_coverage: 1.0,
            ..TestSuiteBuilder::default()
        };
        let incremental = starved.build(&circuit, &universe);
        assert!(incremental.deterministic_patterns > 0);
        let suite = starved.build_with(&oracle, &circuit, &universe);
        assert_eq!(incremental.patterns.as_slice(), suite.patterns.as_slice());
        assert_eq!(incremental.fault_list, suite.fault_list);
        assert_eq!(
            incremental.deterministic_patterns,
            suite.deterministic_patterns
        );
    }

    #[test]
    fn lane_widths_and_the_shared_cache_build_the_same_suite() {
        let circuit = library::alu4();
        let universe = FaultUniverse::full(&circuit);
        let reference = TestSuiteBuilder {
            engine: EngineKind::Deductive,
            ..TestSuiteBuilder::default()
        }
        .build(&circuit, &universe);
        for lanes in LaneWidth::EXPLICIT {
            let suite = TestSuiteBuilder {
                lanes,
                ..TestSuiteBuilder::default()
            }
            .build(&circuit, &universe);
            assert_eq!(
                suite.patterns.as_slice(),
                reference.patterns.as_slice(),
                "{lanes}"
            );
            assert_eq!(suite.fault_list, reference.fault_list, "{lanes}");
        }

        // A shared cache must not change the suite.  Force several chunks,
        // one cut short (redundant faults keep the coverage below 1.0 until
        // the pattern budget runs out).
        let growing = TestSuiteBuilder {
            chunk: 24,
            max_random_patterns: 128,
            target_coverage: 1.0,
            podem_top_up: false,
            lanes: LaneWidth::X1,
            ..TestSuiteBuilder::default()
        };
        let plain = growing.build(&circuit, &universe);
        let cache = GoodMachineCache::new();
        let cached = growing.build_cached(None, Some(&cache), &circuit, &universe);
        assert_eq!(cached.patterns.as_slice(), plain.patterns.as_slice());
        assert_eq!(cached.fault_list, plain.fault_list);
        assert_eq!(cached.coverage_curve, plain.coverage_curve);
        assert!(cache.misses() > 0);
    }

    #[test]
    fn coverage_curve_is_monotone() {
        let circuit = library::full_adder();
        let universe = FaultUniverse::full(&circuit);
        let suite = TestSuiteBuilder::default().build(&circuit, &universe);
        let mut previous = 0.0;
        for (_, coverage) in suite.coverage_curve.points() {
            assert!(coverage + 1e-15 >= previous);
            previous = coverage;
        }
    }

    #[test]
    fn random_phase_respects_pattern_budget() {
        // Redundant faults keep alu4 below the target, so the random phase
        // runs until its budget is spent, cutting the last chunk short.
        let circuit = library::alu4();
        let universe = FaultUniverse::full(&circuit);
        for (chunk, max_random_patterns) in [(8, 8), (32, 16), (24, 128), (64, 100)] {
            let builder = TestSuiteBuilder {
                max_random_patterns,
                chunk,
                target_coverage: 1.0,
                podem_top_up: false,
                ..TestSuiteBuilder::default()
            };
            let suite = builder.build(&circuit, &universe);
            assert_eq!(
                suite.patterns.len(),
                max_random_patterns,
                "chunk {chunk}, max {max_random_patterns}"
            );
        }
    }
}

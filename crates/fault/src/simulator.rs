//! The common interface of every fault-simulation engine.
//!
//! Three engines implement [`FaultSimulator`]:
//!
//! * [`IncrementalSimulator`] — the production engine: the good machine
//!   once per packed pattern chunk, then per fanout-free-region stem only
//!   the disturbed fanout cone (the [cone kernel](crate::cone)), shared by
//!   all of the region's faults and sharded across worker threads,
//! * [`SerialSimulator`] — one fault, one pattern at a time through the
//!   whole netlist; the obviously-correct reference,
//! * [`DeductiveSimulator`] — all faults of a pattern at once via signal
//!   fault lists; an oracle that shares nothing with cone propagation.
//!
//! All engines report *identical* detection results (the first detecting
//! pattern of every fault, in application order); they differ only in speed.
//! The cross-checks live in `tests/fault_sim_equivalence.rs` and the seeded
//! differential property test `tests/engine_differential.rs`.
//!
//! # Choosing an engine
//!
//! [`EngineKind`] names the three choices for configuration knobs
//! (`TestSuiteBuilder::engine`, the `LSIQ_ENGINE` environment variable);
//! `docs/ENGINES.md` has the data structures and measurements.  Use
//! `Incremental` (the default) for everything; `Serial` and `Deductive`
//! exist to cross-check it:
//!
//! * **Serial** re-simulates the whole circuit for every `(pattern, fault)`
//!   pair — `O(patterns × faults × gates)`.  Use it to debug a
//!   disagreement on a small circuit.
//! * **Deductive** removes the fault dimension: one topological pass per
//!   pattern computes every signal's *fault list* (the set of faults that
//!   would complement it), as sorted `u32` slices in a bump arena.  Its
//!   algorithm shares nothing with event-driven propagation, which makes
//!   it the natural oracle for differential tests.

use crate::coverage::CoverageCurve;
use crate::deductive::DeductiveSimulator;
use crate::incremental::IncrementalSimulator;
use crate::list::FaultList;
use crate::serial::SerialSimulator;
use crate::universe::FaultUniverse;
use lsiq_exec::{ExecutionContext, LaneWidth};
use lsiq_netlist::circuit::Circuit;
use lsiq_sim::cache::GoodMachineCache;
use lsiq_sim::pattern::PatternSet;

/// The engine-selection knob, re-exported from the configuration crate so a
/// typed `lsiq_exec::RunConfig` can carry it without depending on the
/// engines themselves.  Instantiating a kind is the [`BuildEngine`]
/// extension trait below.
pub use lsiq_exec::EngineKind;

/// A fault-simulation engine: evaluates an ordered pattern set against a
/// fault universe and reports, per fault, the first detecting pattern.
pub trait FaultSimulator {
    /// Short engine name for benchmarks and reports.
    fn name(&self) -> &'static str;

    /// Runs the pattern set against every fault of `universe` and returns the
    /// per-fault detection states.
    ///
    /// Patterns are evaluated in application order, so
    /// [`DetectionState::first_pattern`](crate::list::DetectionState::first_pattern)
    /// is the index of the earliest detecting pattern — the quantity the
    /// paper's "chip fails at its first failing pattern" procedure needs.
    fn run(&self, universe: &FaultUniverse, patterns: &PatternSet) -> FaultList;

    /// Runs the simulation and folds the result into a cumulative
    /// fault-coverage curve (the paper's `f` as a function of the number of
    /// applied patterns).
    fn coverage_curve(&self, universe: &FaultUniverse, patterns: &PatternSet) -> CoverageCurve {
        let list = self.run(universe, patterns);
        CoverageCurve::from_fault_list(&list, patterns.len())
    }
}

/// Everything an engine build can be configured with, in one bundle.
///
/// Each engine applies the options it understands and ignores the rest:
/// the serial and deductive oracles are single-threaded and unpacked or
/// word-oriented, so only `fault_dropping` reaches them; the incremental
/// engine honours all four fields.
#[derive(Debug, Clone, Copy)]
pub struct EngineOptions<'c> {
    /// Execution context for the sharding engine (`None` runs it on the
    /// calling thread).
    pub context: Option<&'c ExecutionContext>,
    /// Packed lane width for the chunked engine.
    pub lanes: LaneWidth,
    /// Shared good-machine cache for the chunked engine.
    pub cache: Option<&'c GoodMachineCache>,
    /// Whether detected faults are dropped from further simulation.
    pub fault_dropping: bool,
}

impl Default for EngineOptions<'_> {
    fn default() -> Self {
        EngineOptions {
            context: None,
            lanes: LaneWidth::Auto,
            cache: None,
            fault_dropping: true,
        }
    }
}

/// Instantiation of fault-simulation engines from [`EngineKind`] values.
///
/// `EngineKind` itself lives in `lsiq_exec` (pure configuration data, so a
/// `RunConfig` can carry it without a dependency cycle); this extension
/// trait supplies the constructors and is implemented for `EngineKind`
/// alone.  Import it alongside the kind:
///
/// ```
/// use lsiq_fault::simulator::{BuildEngine, EngineKind};
/// use lsiq_netlist::library;
///
/// let circuit = library::c17();
/// let engine = EngineKind::Deductive.build(&circuit);
/// assert_eq!(engine.name(), "deductive");
/// ```
pub trait BuildEngine {
    /// Instantiates the engine for `circuit` with its default settings
    /// (fault dropping on; the calling thread).
    fn build<'c>(self, circuit: &'c Circuit) -> Box<dyn FaultSimulator + 'c>;

    /// Instantiates the engine with a full [`EngineOptions`] bundle; engines
    /// apply the options they understand and ignore the rest.  With a
    /// [`context`](EngineOptions::context) the incremental engine shards its
    /// stems across the context's workers, and the
    /// single-threaded oracles simply run on the calling thread (which may
    /// itself be one of the context's workers).
    fn build_configured<'c>(
        self,
        circuit: &'c Circuit,
        options: &EngineOptions<'c>,
    ) -> Box<dyn FaultSimulator + 'c>;
}

impl BuildEngine for EngineKind {
    fn build<'c>(self, circuit: &'c Circuit) -> Box<dyn FaultSimulator + 'c> {
        self.build_configured(circuit, &EngineOptions::default())
    }

    fn build_configured<'c>(
        self,
        circuit: &'c Circuit,
        options: &EngineOptions<'c>,
    ) -> Box<dyn FaultSimulator + 'c> {
        match self {
            EngineKind::Serial => {
                Box::new(SerialSimulator::new(circuit).with_fault_dropping(options.fault_dropping))
            }
            EngineKind::Deductive => Box::new(
                DeductiveSimulator::new(circuit).with_fault_dropping(options.fault_dropping),
            ),
            EngineKind::Incremental => {
                let mut engine = IncrementalSimulator::new(circuit)
                    .with_fault_dropping(options.fault_dropping)
                    .with_lanes(options.lanes);
                if let Some(context) = options.context {
                    engine = engine.with_context(context);
                }
                if let Some(cache) = options.cache {
                    engine = engine.with_cache(cache);
                }
                Box::new(engine)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serial::SerialSimulator;
    use lsiq_netlist::library;
    use lsiq_sim::pattern::Pattern;

    #[test]
    fn engines_are_usable_through_the_trait_object() {
        let circuit = library::c17();
        let universe = FaultUniverse::full(&circuit);
        let patterns: PatternSet = (0..32).map(|v| Pattern::from_integer(v, 5)).collect();
        let serial = SerialSimulator::new(&circuit);
        let deductive = DeductiveSimulator::new(&circuit);
        let incremental = IncrementalSimulator::new(&circuit);
        let engines: Vec<&dyn FaultSimulator> = vec![&serial, &deductive, &incremental];
        for engine in engines {
            let list = engine.run(&universe, &patterns);
            assert_eq!(list.detected_count(), universe.len(), "{}", engine.name());
        }
    }

    #[test]
    fn default_coverage_curve_matches_manual_construction() {
        let circuit = library::c17();
        let universe = FaultUniverse::full(&circuit);
        let patterns: PatternSet = (0..8).map(|v| Pattern::from_integer(v, 5)).collect();
        let engine = IncrementalSimulator::new(&circuit);
        let curve = engine.coverage_curve(&universe, &patterns);
        let manual =
            CoverageCurve::from_fault_list(&engine.run(&universe, &patterns), patterns.len());
        assert_eq!(curve, manual);
        assert_eq!(curve.pattern_count(), 8);
    }

    #[test]
    fn build_configured_runs_every_engine_on_an_explicit_context() {
        let context = lsiq_exec::ExecutionContext::new(2);
        let circuit = library::c17();
        let universe = FaultUniverse::full(&circuit);
        let patterns: PatternSet = (0..32).map(|v| Pattern::from_integer(v, 5)).collect();
        let reference = EngineKind::Serial.build(&circuit).run(&universe, &patterns);
        for kind in EngineKind::ALL {
            let engine = kind.build_configured(
                &circuit,
                &EngineOptions {
                    context: Some(&context),
                    ..EngineOptions::default()
                },
            );
            assert_eq!(engine.name(), kind.name());
            assert_eq!(engine.run(&universe, &patterns), reference, "{kind}");
        }
    }

    #[test]
    fn engine_kind_builds_every_engine() {
        let circuit = library::c17();
        let universe = FaultUniverse::full(&circuit);
        let patterns: PatternSet = (0..32).map(|v| Pattern::from_integer(v, 5)).collect();
        for kind in EngineKind::ALL {
            let engine = kind.build(&circuit);
            assert_eq!(engine.name(), kind.name());
            assert_eq!(
                engine.run(&universe, &patterns).detected_count(),
                universe.len()
            );
            let undropped = kind.build_configured(
                &circuit,
                &EngineOptions {
                    fault_dropping: false,
                    ..EngineOptions::default()
                },
            );
            assert_eq!(
                undropped.run(&universe, &patterns).detected_count(),
                universe.len()
            );
        }
    }

    #[test]
    fn configured_builds_match_the_defaults_for_every_engine() {
        let context = lsiq_exec::ExecutionContext::new(2);
        let cache = GoodMachineCache::new();
        let circuit = library::alu4();
        let universe = FaultUniverse::full(&circuit);
        let patterns: PatternSet = (0..200).map(|v| Pattern::from_integer(v, 10)).collect();
        let reference = EngineKind::Serial.build(&circuit).run(&universe, &patterns);
        for kind in EngineKind::ALL {
            // `Auto` resolves to four lanes at 200 patterns, so the `X4`
            // build replays its good machine from the cache.
            for lanes in [LaneWidth::Auto, LaneWidth::X1, LaneWidth::X8, LaneWidth::X4] {
                let engine = kind.build_configured(
                    &circuit,
                    &EngineOptions {
                        context: Some(&context),
                        lanes,
                        cache: Some(&cache),
                        fault_dropping: true,
                    },
                );
                assert_eq!(engine.name(), kind.name());
                assert_eq!(
                    engine.run(&universe, &patterns),
                    reference,
                    "{kind}/{lanes}"
                );
            }
        }
        // The chunked engine routed its good machines through the cache.
        assert!(cache.misses() > 0);
        assert!(cache.hits() > 0);
    }

    #[test]
    fn engine_kind_parses_names_round_trip() {
        for kind in EngineKind::ALL {
            assert_eq!(EngineKind::from_name(kind.name()), Some(kind));
            assert_eq!(
                EngineKind::from_name(&kind.name().to_uppercase()),
                Some(kind)
            );
            assert_eq!(kind.to_string(), kind.name());
        }
        assert_eq!(
            EngineKind::from_name("  Deductive "),
            Some(EngineKind::Deductive)
        );
        assert!(EngineKind::from_name("concurrent").is_none());
        assert_eq!(EngineKind::default(), EngineKind::Incremental);
        assert_eq!(EngineKind::ALL.len(), 3);
        for retired in ["ppsfp", "parallel"] {
            assert!(EngineKind::from_name(retired).is_none(), "{retired}");
        }
    }
}

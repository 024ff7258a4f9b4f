//! Event-driven incremental fault simulation — the production engine.
//!
//! The [serial](crate::serial) oracle re-evaluates the full circuit per
//! fault and pattern, and the [deductive](crate::deductive) oracle per
//! pattern.  This engine exploits the observation that a single stuck-at
//! fault disturbs only its *fanout cone*: the good machine is evaluated
//! **once** per packed pattern chunk, and each fault then only seeds its
//! fault site and propagates the difference through the cone with the
//! [cone kernel](crate::cone).  The per-fault cost is proportional to the
//! size of the *disturbed* cone — usually a tiny fraction of the netlist —
//! instead of the whole circuit.  See `docs/ENGINES.md` for measurements.
//!
//! # Detection semantics
//!
//! The kernel returns the error word of every primary output the fault
//! reaches; their OR is the chunk's detection word, and its first set bit
//! is the fault's earliest detecting pattern within the chunk.  The
//! reported [`FaultList`] is therefore byte-identical to the oracles'
//! (enforced by `tests/engine_differential.rs`).
//!
//! # Collapsing and sharding
//!
//! The engine simulates one representative per structural equivalence
//! class by default (see
//! [`with_collapsing`](IncrementalSimulator::with_collapsing)); callers
//! hand it the universe they report on, and collapsing happens here, once.
//! Runs are single-threaded by default; binding an [`ExecutionContext`] via
//! [`with_context`](IncrementalSimulator::with_context) (which
//! `EngineKind::build_configured` does when its options carry one) shards
//! the simulation classes across the pool's workers, each with its own
//! kernel scratch state, with results identical at any worker count.

use crate::classes::{simulation_classes, CollapseContext, SimulationClasses};
use crate::cone::{good_chunks, ConePropagator, GoodChunk};
use crate::list::FaultList;
use crate::model::Fault;
use crate::simulator::FaultSimulator;
use crate::telemetry;
use crate::universe::FaultUniverse;
use lsiq_exec::{shard_map, ExecutionContext, LaneWidth};
use lsiq_netlist::circuit::Circuit;
use lsiq_obs::Span;
use lsiq_sim::cache::GoodMachineCache;
use lsiq_sim::levelized::CompiledCircuit;
use lsiq_sim::packed::PackedBlock;
use lsiq_sim::pattern::PatternSet;
use std::cell::OnceCell;

static GOOD_MACHINE: Span = Span::new("engine.incremental.good_machine");
static PROPAGATE: Span = Span::new("engine.incremental.propagate");

/// An event-driven incremental fault simulator.
///
/// Good-machine words are computed once per packed pattern chunk; each
/// fault re-evaluates only its disturbed fanout cone.  See the [module
/// docs](self) for the algorithm and `docs/ENGINES.md` for measurements.
///
/// ```
/// use lsiq_fault::incremental::IncrementalSimulator;
/// use lsiq_fault::deductive::DeductiveSimulator;
/// use lsiq_fault::simulator::FaultSimulator;
/// use lsiq_fault::universe::FaultUniverse;
/// use lsiq_netlist::library;
/// use lsiq_sim::pattern::{Pattern, PatternSet};
///
/// let circuit = library::c17();
/// let universe = FaultUniverse::full(&circuit);
/// let patterns: PatternSet = (0..32).map(|v| Pattern::from_integer(v, 5)).collect();
/// let incremental = IncrementalSimulator::new(&circuit).run(&universe, &patterns);
/// // Byte-identical to the oracles; c17 is fully testable.
/// let deductive = DeductiveSimulator::new(&circuit).run(&universe, &patterns);
/// assert_eq!(incremental, deductive);
/// assert_eq!(incremental.detected_count(), universe.len());
/// ```
#[derive(Debug)]
pub struct IncrementalSimulator<'c> {
    compiled: CompiledCircuit<'c>,
    drop_detected: bool,
    collapse: bool,
    context: Option<&'c ExecutionContext>,
    lanes: LaneWidth,
    cache: Option<&'c GoodMachineCache>,
    /// Lazily built on the first collapsing run and reused afterwards (see
    /// [`DeductiveSimulator`](crate::deductive::DeductiveSimulator)).
    collapse_cache: OnceCell<CollapseContext>,
}

impl<'c> IncrementalSimulator<'c> {
    /// Minimum number of simulation classes per shard; below this, handing
    /// a shard to a worker costs more than it recovers.
    const MIN_CLASSES_PER_SHARD: usize = 64;

    /// Prepares an incremental fault simulator for `circuit` with fault
    /// dropping and equivalence collapsing enabled, running single-threaded.
    pub fn new(circuit: &'c Circuit) -> Self {
        IncrementalSimulator {
            compiled: CompiledCircuit::new(circuit),
            drop_detected: true,
            collapse: true,
            context: None,
            lanes: LaneWidth::Auto,
            cache: None,
            collapse_cache: OnceCell::new(),
        }
    }

    /// Selects the packed lane width ([`LaneWidth::Auto`] by default).
    /// Results are identical at every width.
    pub fn with_lanes(mut self, lanes: LaneWidth) -> Self {
        self.lanes = lanes;
        self
    }

    /// Shares a [`GoodMachineCache`] for the per-chunk good-machine images:
    /// the engine keeps the *full* per-gate image of every chunk, exactly
    /// what the cache stores, so a hit is used in place.  Results are
    /// identical with or without a cache.
    pub fn with_cache(mut self, cache: &'c GoodMachineCache) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Binds the simulator to a persistent worker pool and shards the
    /// simulation classes across its workers.  Without this runs are
    /// single-threaded.
    pub fn with_context(mut self, context: &'c ExecutionContext) -> Self {
        self.context = Some(context);
        self
    }

    /// Controls fault dropping (see
    /// [`SerialSimulator::with_fault_dropping`](crate::serial::SerialSimulator::with_fault_dropping)).
    pub fn with_fault_dropping(mut self, enabled: bool) -> Self {
        self.drop_detected = enabled;
        self
    }

    /// Controls equivalence collapsing (enabled by default; see
    /// [`DeductiveSimulator::with_collapsing`](crate::deductive::DeductiveSimulator::with_collapsing)).
    /// The results are identical either way.
    pub fn with_collapsing(mut self, enabled: bool) -> Self {
        self.collapse = enabled;
        self
    }

    /// Partitions the universe's fault indices into groups that provably
    /// share their set of detecting patterns (see
    /// [`classes::simulation_classes`](simulation_classes)).
    fn simulation_classes(&self, universe: &FaultUniverse) -> SimulationClasses {
        simulation_classes(
            self.compiled.circuit(),
            &self.collapse_cache,
            self.collapse,
            universe,
        )
    }
}

impl<'c> IncrementalSimulator<'c> {
    /// One lane-monomorphized run (see [`FaultSimulator::run`]).
    fn run_lanes<const L: usize>(
        &self,
        universe: &FaultUniverse,
        patterns: &PatternSet,
    ) -> FaultList {
        if universe.is_empty() || patterns.is_empty() {
            return FaultList::new(universe);
        }
        // Classes first: the first run builds the circuit's collapsing
        // state, and its scratch should not stack on the run's buffers.
        let classes = self.simulation_classes(universe);
        let drop_detected = self.drop_detected;
        let detections: Vec<Vec<Option<usize>>> = {
            let chunks = {
                let _timer = GOOD_MACHINE.start();
                good_chunks::<L>(&self.compiled, patterns, self.cache)
            };
            telemetry::RUNS.incr();
            telemetry::FAULTS.add(classes.count() as u64);
            telemetry::GOOD_EVALS.add(chunks.len() as u64);
            let representatives: Vec<Fault> = (0..classes.count() as u32)
                .map(|class| {
                    *universe
                        .get(classes.representative(class) as usize)
                        .expect("class member in range")
                })
                .collect();
            let compiled = &self.compiled;
            shard_map(
                self.context,
                representatives.len(),
                Self::MIN_CLASSES_PER_SHARD,
                |range| simulate_shard(compiled, &chunks, &representatives[range], drop_detected),
            )
        };

        // Shards come back in class order, so their concatenation is
        // indexed by class.
        let mut list = FaultList::new(universe);
        let mut drops = 0u64;
        for (class, detection) in detections.into_iter().flatten().enumerate() {
            if let Some(pattern) = detection {
                if drop_detected {
                    drops += 1;
                }
                for &member in classes.members_of(class as u32) {
                    list.mark_detected(member as usize, pattern);
                }
            }
        }
        telemetry::DROPS.add(drops);
        list
    }
}

impl FaultSimulator for IncrementalSimulator<'_> {
    fn name(&self) -> &'static str {
        "incremental"
    }

    fn run(&self, universe: &FaultUniverse, patterns: &PatternSet) -> FaultList {
        match self.lanes.resolve(patterns.len()) {
            1 => self.run_lanes::<1>(universe, patterns),
            4 => self.run_lanes::<4>(universe, patterns),
            _ => self.run_lanes::<8>(universe, patterns),
        }
    }
}

/// Simulates one contiguous shard of class representatives over all
/// chunks, returning the first detecting pattern per representative
/// (shard-local order).  One kernel's scratch state serves the whole shard.
fn simulate_shard<const L: usize>(
    compiled: &CompiledCircuit<'_>,
    chunks: &[GoodChunk<L>],
    faults: &[Fault],
    drop_detected: bool,
) -> Vec<Option<usize>> {
    let _timer = PROPAGATE.start();
    let mut cone = ConePropagator::<L>::new(compiled);
    let mut first_detection: Vec<Option<usize>> = vec![None; faults.len()];
    for (fault, first) in faults.iter().zip(first_detection.iter_mut()) {
        for (index, chunk) in chunks.iter().enumerate() {
            if first.is_some() && drop_detected {
                break;
            }
            let detect = cone
                .propagate(fault, &chunk.words, chunk.valid)
                .iter()
                .fold(PackedBlock::ZERO, |detect, &(_, error)| detect | error);
            if first.is_none() {
                if let Some(slot) = detect.first_set_slot() {
                    *first = Some(index * PackedBlock::<L>::PATTERNS + slot);
                }
            }
        }
    }
    first_detection
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serial::SerialSimulator;
    use lsiq_netlist::generator::{random_circuit, RandomCircuitConfig};
    use lsiq_netlist::library;
    use lsiq_sim::pattern::Pattern;
    use lsiq_stats::rng::{Rng, Xoshiro256StarStar};

    fn random_patterns(width: usize, count: usize, seed: u64) -> PatternSet {
        let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
        (0..count)
            .map(|_| Pattern::from_bits((0..width).map(|_| rng.next_bool(0.5))))
            .collect()
    }

    #[test]
    fn matches_serial_simulator_on_c17_exhaustive() {
        let circuit = library::c17();
        let universe = FaultUniverse::full(&circuit);
        let patterns: PatternSet = (0..32).map(|v| Pattern::from_integer(v, 5)).collect();
        let serial = SerialSimulator::new(&circuit).run(&universe, &patterns);
        let incremental = IncrementalSimulator::new(&circuit).run(&universe, &patterns);
        assert_eq!(serial, incremental);
    }

    #[test]
    fn matches_serial_on_random_logic_across_blocks() {
        let circuit = random_circuit(&RandomCircuitConfig {
            inputs: 11,
            gates: 140,
            seed: 29,
            ..RandomCircuitConfig::default()
        });
        let universe = FaultUniverse::full(&circuit);
        // More than 64 patterns so detection indices cross block boundaries.
        let patterns = random_patterns(11, 150, 5);
        let serial = SerialSimulator::new(&circuit).run(&universe, &patterns);
        let incremental = IncrementalSimulator::new(&circuit).run(&universe, &patterns);
        assert_eq!(serial, incremental);
    }

    #[test]
    fn matches_serial_on_xor_heavy_logic() {
        // The full adder exercises XOR cones, where events re-converge and
        // die mid-circuit.
        let circuit = library::full_adder();
        let universe = FaultUniverse::full(&circuit);
        let patterns: PatternSet = (0..8).map(|v| Pattern::from_integer(v, 3)).collect();
        let serial = SerialSimulator::new(&circuit).run(&universe, &patterns);
        let incremental = IncrementalSimulator::new(&circuit).run(&universe, &patterns);
        assert_eq!(serial, incremental);
    }

    #[test]
    fn collapsing_does_not_change_results() {
        let circuit = random_circuit(&RandomCircuitConfig {
            inputs: 9,
            gates: 90,
            seed: 43,
            ..RandomCircuitConfig::default()
        });
        let universe = FaultUniverse::full(&circuit);
        let patterns = random_patterns(9, 70, 13);
        let collapsed = IncrementalSimulator::new(&circuit).run(&universe, &patterns);
        let uncollapsed = IncrementalSimulator::new(&circuit)
            .with_collapsing(false)
            .run(&universe, &patterns);
        assert_eq!(collapsed, uncollapsed);
    }

    #[test]
    fn fault_dropping_does_not_change_results() {
        let circuit = random_circuit(&RandomCircuitConfig {
            inputs: 10,
            gates: 110,
            seed: 61,
            ..RandomCircuitConfig::default()
        });
        let universe = FaultUniverse::full(&circuit);
        let patterns = random_patterns(10, 130, 17);
        let dropped = IncrementalSimulator::new(&circuit).run(&universe, &patterns);
        let undropped = IncrementalSimulator::new(&circuit)
            .with_fault_dropping(false)
            .run(&universe, &patterns);
        assert_eq!(dropped, undropped);
    }

    #[test]
    fn checkpoint_universe_exercises_pin_fault_seeding() {
        let circuit = random_circuit(&RandomCircuitConfig {
            inputs: 8,
            gates: 75,
            seed: 7,
            ..RandomCircuitConfig::default()
        });
        let universe = FaultUniverse::checkpoint(&circuit);
        let patterns = random_patterns(8, 48, 23);
        let serial = SerialSimulator::new(&circuit).run(&universe, &patterns);
        let incremental = IncrementalSimulator::new(&circuit).run(&universe, &patterns);
        assert_eq!(serial, incremental);
    }

    #[test]
    fn lane_widths_and_cache_do_not_change_results() {
        let circuit = random_circuit(&RandomCircuitConfig {
            inputs: 10,
            gates: 120,
            seed: 101,
            ..RandomCircuitConfig::default()
        });
        let universe = FaultUniverse::full(&circuit);
        let patterns = random_patterns(10, 300, 41);
        let reference = IncrementalSimulator::new(&circuit).run(&universe, &patterns);
        let cache = GoodMachineCache::new();
        for lanes in LaneWidth::EXPLICIT {
            let plain = IncrementalSimulator::new(&circuit)
                .with_lanes(lanes)
                .run(&universe, &patterns);
            assert_eq!(reference, plain, "lanes = {lanes}");
            let cached = IncrementalSimulator::new(&circuit)
                .with_lanes(lanes)
                .with_cache(&cache)
                .run(&universe, &patterns);
            assert_eq!(reference, cached, "lanes = {lanes} (cached)");
        }
        assert!(cache.misses() > 0);
        // Replaying a width already in the cache is a pure hit.
        let before = cache.hits();
        let replay = IncrementalSimulator::new(&circuit)
            .with_lanes(LaneWidth::X4)
            .with_cache(&cache)
            .run(&universe, &patterns);
        assert_eq!(reference, replay);
        assert!(cache.hits() > before);
    }

    #[test]
    fn sharded_runs_match_at_every_worker_count() {
        let circuit = random_circuit(&RandomCircuitConfig {
            inputs: 12,
            gates: 160,
            seed: 83,
            ..RandomCircuitConfig::default()
        });
        let universe = FaultUniverse::full(&circuit);
        let patterns = random_patterns(12, 100, 31);
        let reference = IncrementalSimulator::new(&circuit).run(&universe, &patterns);
        for workers in [1, 2, 3, 6, 8] {
            let context = ExecutionContext::new(workers);
            // Two runs on one context: the pool is reused, not respawned.
            for _ in 0..2 {
                let bound = IncrementalSimulator::new(&circuit)
                    .with_context(&context)
                    .run(&universe, &patterns);
                assert_eq!(reference, bound, "workers = {workers}");
            }
        }
    }

    #[test]
    fn empty_inputs_yield_empty_results() {
        let circuit = library::c17();
        let universe = FaultUniverse::full(&circuit);
        let no_patterns = IncrementalSimulator::new(&circuit).run(&universe, &PatternSet::new());
        assert_eq!(no_patterns.detected_count(), 0);
        let patterns: PatternSet = (0..4).map(|v| Pattern::from_integer(v, 5)).collect();
        let empty_universe = FaultUniverse::from_faults(Vec::new());
        let list = IncrementalSimulator::new(&circuit).run(&empty_universe, &patterns);
        assert!(list.is_empty());
    }
}

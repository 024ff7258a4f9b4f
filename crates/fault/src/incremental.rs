//! Event-driven incremental fault simulation — the production engine.
//!
//! The [serial](crate::serial) oracle re-evaluates the full circuit per
//! fault and pattern, and the [deductive](crate::deductive) oracle per
//! pattern.  This engine evaluates the good machine **once** per packed
//! pattern chunk and then propagates *stems*, not faults: every fault lies
//! in a fanout-free region that it can leave only through the region's
//! stem, so one propagation of the stem per chunk, in the slots where any
//! of its live faults flip it, serves all of them (the
//! [cone kernel](crate::cone)).  A fault then costs a few word operations
//! (its mask), and the propagation cost is proportional to the *disturbed*
//! cones of the stems, usually a small fraction of the netlist.  See
//! `docs/ENGINES.md` for measurements.
//!
//! # Detection semantics
//!
//! Per chunk, a stem's detection word is the OR of the error words of the
//! primary outputs its flip reaches.  A fault's detection word is that
//! word ANDed with the fault's mask (the slots in which it flips the
//! stem), and its first set bit is the fault's earliest detecting pattern
//! within the chunk.  The reported [`FaultList`] is therefore
//! byte-identical to the oracles' (enforced by
//! `tests/engine_differential.rs`).
//!
//! # Dropping and sharding
//!
//! With fault dropping (the default) a fault detected in one chunk gets no
//! mask in later chunks, so a stem whose faults are all detected is no
//! longer propagated.  Runs are single-threaded by default; binding an
//! [`ExecutionContext`] via
//! [`with_context`](IncrementalSimulator::with_context) (which
//! `EngineKind::build_configured` does when its options carry one) shards
//! the stems in contiguous ranges across the context's workers, each shard
//! with its own kernel scratch state, with results identical at any worker
//! count.

use crate::cone::{good_chunks, FanoutRegions, StemPass};
use crate::list::FaultList;
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
use std::ops::Range;

static GOOD_MACHINE: Span = Span::new("engine.incremental.good_machine");
static PROPAGATE: Span = Span::new("engine.incremental.propagate");

/// An event-driven incremental fault simulator.
///
/// Good-machine words are computed once per packed pattern chunk; each
/// stem then re-evaluates only its disturbed fanout cone, once for all the
/// faults of its region.  See the [module docs](self) for the algorithm and
/// `docs/ENGINES.md` for measurements.
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
    /// The compiled circuit and its fanout-free regions, reused by every
    /// run (a suite build runs once per chunk of new patterns).
    regions: FanoutRegions<'c>,
    drop_detected: bool,
    context: Option<&'c ExecutionContext>,
    lanes: LaneWidth,
    cache: Option<&'c GoodMachineCache>,
}

impl<'c> IncrementalSimulator<'c> {
    /// Minimum number of stems per shard; below this, handing a shard to a
    /// worker costs more than it recovers.
    const MIN_STEMS_PER_SHARD: usize = 64;

    /// Prepares an incremental fault simulator for `circuit` with fault
    /// dropping enabled, running single-threaded.
    pub fn new(circuit: &'c Circuit) -> Self {
        IncrementalSimulator {
            regions: FanoutRegions::new(CompiledCircuit::new(circuit)),
            drop_detected: true,
            context: None,
            lanes: LaneWidth::Auto,
            cache: None,
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

    /// Binds the simulator to an execution context and shards the stems
    /// across its workers.  Without this runs are single-threaded.
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
        let regions = &self.regions;
        let chunks = {
            let _timer = GOOD_MACHINE.start();
            good_chunks::<L>(regions.compiled(), patterns, self.cache)
        };
        let faults = universe.faults();
        telemetry::RUNS.incr();
        telemetry::FAULTS.add(faults.len() as u64);
        telemetry::GOOD_EVALS.add(chunks.len() as u64);
        let pass = StemPass::new(regions, &chunks, faults);
        let groups = pass.groups();
        let drop_detected = self.drop_detected;
        let detections = shard_map(
            self.context,
            groups.len(),
            Self::MIN_STEMS_PER_SHARD,
            |range| first_detections(&pass, chunks.len(), range, drop_detected),
        );

        // Shards come back in stem order, so their concatenation lines up
        // with the grouped fault indices.
        let mut list = FaultList::new(universe);
        let mut drops = 0u64;
        for (&member, detection) in groups
            .members(0..groups.len())
            .iter()
            .zip(detections.into_iter().flatten())
        {
            if let Some(pattern) = detection {
                if drop_detected {
                    drops += 1;
                }
                list.mark_detected(member as usize, pattern);
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

/// Simulates one contiguous range of stem groups over all `chunks` chunks
/// and returns the first detecting pattern of each of their faults, group
/// after group.
///
/// A shard walks every chunk per stem: dropping is per fault, so no shard
/// waits for another between chunks.
fn first_detections<const L: usize>(
    pass: &StemPass<'_, L>,
    chunks: usize,
    range: Range<usize>,
    drop_detected: bool,
) -> Vec<Option<usize>> {
    let _timer = PROPAGATE.start();
    let groups = pass.groups();
    let mut shard = pass.shard();
    let mut first: Vec<Option<usize>> = vec![None; groups.members(range.clone()).len()];
    let mut done = 0;
    for group in range {
        let first = &mut first[done..done + groups.members(group..group + 1).len()];
        done += first.len();
        for chunk in 0..chunks {
            // A dropped fault gets no mask, so a stem whose faults are all
            // detected is not propagated again.
            let (masks, errors) = shard.propagate(group, chunk, |member| {
                !drop_detected || first[member].is_none()
            });
            let detect = errors
                .iter()
                .fold(PackedBlock::<L>::ZERO, |detect, &(_, error)| detect | error);
            if detect.is_zero() {
                continue;
            }
            for (&mask, found) in masks.iter().zip(first.iter_mut()) {
                if found.is_none() {
                    *found = (mask & detect)
                        .first_set_slot()
                        .map(|slot| chunk * PackedBlock::<L>::PATTERNS + slot);
                }
            }
        }
    }
    telemetry::STEMS.add(shard.propagated());
    first
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collapse::collapse_equivalence;
    use crate::deductive::DeductiveSimulator;
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
    fn matches_serial_where_faults_reach_flip_flop_d_pins() {
        // One evaluation reads a flip-flop's held state, never its D pin,
        // and a flip-flop sits at level 0, below every gate that drives
        // it: the kernel must never schedule it as a load.
        let circuit = lsiq_netlist::generator::binary_counter(4);
        let universe = FaultUniverse::full(&circuit);
        let patterns = random_patterns(circuit.primary_inputs().len(), 70, 3);
        let serial = SerialSimulator::new(&circuit).run(&universe, &patterns);
        let incremental = IncrementalSimulator::new(&circuit).run(&universe, &patterns);
        assert_eq!(serial, incremental);
    }

    #[test]
    fn collapsing_does_not_change_results() {
        // The engine simulates every fault of the universe it is handed: a
        // run over `collapse_equivalence`'s representatives, credited to
        // every member, is the full-universe run, and every universe
        // matches the deductive oracle.
        let circuit = random_circuit(&RandomCircuitConfig {
            inputs: 9,
            gates: 90,
            seed: 43,
            ..RandomCircuitConfig::default()
        });
        let patterns = random_patterns(9, 70, 13);
        let equivalence = collapse_equivalence(&circuit);
        let engine = IncrementalSimulator::new(&circuit);
        let full = engine.run(&FaultUniverse::full(&circuit), &patterns);
        let collapsed = engine.run(&equivalence.collapsed, &patterns);
        for (index, &representative) in equivalence.representative_of.iter().enumerate() {
            assert_eq!(full.state(index), collapsed.state(representative));
        }
        for universe in [
            FaultUniverse::full(&circuit),
            FaultUniverse::checkpoint(&circuit),
            equivalence.collapsed,
        ] {
            let oracle = DeductiveSimulator::new(&circuit).run(&universe, &patterns);
            assert_eq!(engine.run(&universe, &patterns), oracle);
        }
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
            // Two runs on one context give the same result.
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

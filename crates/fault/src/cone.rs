//! The fanout-cone propagation kernel.
//!
//! A single stuck-at fault disturbs only its *fanout cone*.  Given the
//! fault-free image of one packed pattern chunk — one [`PackedBlock`] per
//! gate — [`ConePropagator::propagate`] seeds the fault site with its faulty
//! word and re-evaluates only the gates the difference reaches, level by
//! level, until the event frontier dies (every disturbed word re-converged
//! with the good machine) or runs out of circuit.  The per-fault cost is
//! proportional to the *disturbed* cone, usually a small fraction of the
//! netlist, instead of the whole circuit.
//!
//! The kernel has two consumers, and this module is the only place the
//! propagation loop exists:
//!
//! * the [incremental engine](crate::incremental) ORs the error words into
//!   a detection word whose first set slot is the fault's first detecting
//!   pattern, and
//! * the BIST signature sweep (`lsiq_bist::signature`) folds them into its
//!   multiple-input signature registers.
//!
//! # Sparse output contract
//!
//! A call returns the primary outputs the fault reaches as a list of
//! `(output position, error word)` pairs, where the error word is good XOR
//! faulty restricted to the chunk's valid patterns and is never zero.
//! Outputs the cone does not reach are absent.  A dense per-output array
//! would have to be cleared for every `(fault, chunk)` pair, which on a
//! wide-output device costs more than the propagation itself.  The list is
//! in propagation order, not output order; both consumers fold it with
//! XOR or OR, which do not care.
//!
//! # Event propagation
//!
//! Gates are processed in level order through per-level dirty buckets, so
//! every gate in the cone is evaluated at most once per `(fault, chunk)`:
//! when a level-`L` gate is popped, all of its disturbed drivers (levels
//! `< L`) are final.  The faulty-value and scheduled-gate arrays are
//! epoch-stamped — bumping one counter invalidates all per-fault state, so
//! nothing is cleared between faults and nothing is allocated after the
//! first calls.

use crate::model::{Fault, FaultSite};
use lsiq_netlist::circuit::{Circuit, GateId};
use lsiq_netlist::levelize::Levelization;
use lsiq_sim::cache::{circuit_fingerprint, GoodMachineCache};
use lsiq_sim::eval::eval_chunk;
use lsiq_sim::levelized::CompiledCircuit;
use lsiq_sim::packed::PackedBlock;
use lsiq_sim::pattern::PatternSet;
use std::sync::Arc;

/// [`ConePropagator`]'s marker for a gate that is not a primary output.
const NOT_AN_OUTPUT: u32 = u32::MAX;

/// The fault-free image of one packed pattern chunk.
#[derive(Debug, Clone)]
pub struct GoodChunk<const L: usize> {
    /// The good-machine word of every gate, indexed by gate id.  Shared
    /// with the [`GoodMachineCache`] entry it came from, if any.
    pub words: Arc<Vec<PackedBlock<L>>>,
    /// The chunk's valid pattern slots.
    pub valid: PackedBlock<L>,
    /// Number of valid patterns (the low `count` slots).
    pub count: usize,
}

/// Packs every lane-wide chunk of `patterns` and evaluates its good machine
/// once — through `cache` when one is given.
///
/// Every chunk's full per-gate image is kept (O(gates × chunks × lanes)
/// words), so fault shards can replay chunks independently without
/// re-simulating the good machine.
pub fn good_chunks<const L: usize>(
    compiled: &CompiledCircuit<'_>,
    patterns: &PatternSet,
    cache: Option<&GoodMachineCache>,
) -> Vec<GoodChunk<L>> {
    let circuit = compiled.circuit();
    let input_count = circuit.primary_inputs().len();
    let fingerprint = cache.map(|_| circuit_fingerprint(circuit));
    let mut chunks = Vec::with_capacity(patterns.chunk_count(L));
    for chunk in 0..patterns.chunk_count(L) {
        let (inputs, count) = patterns.pack_chunk::<L>(input_count, chunk);
        if count == 0 {
            break;
        }
        let words = match (cache, fingerprint) {
            (Some(cache), Some(fingerprint)) => {
                cache.node_chunks_keyed(fingerprint, compiled, &inputs, count)
            }
            _ => Arc::new(compiled.node_chunks(&inputs)),
        };
        chunks.push(GoodChunk {
            words,
            valid: PackedBlock::valid_mask(count),
            count,
        });
    }
    chunks
}

/// Reusable scratch state for propagating faults through their fanout
/// cones, one chunk at a time (see the [module docs](self)).
///
/// One propagator serves any number of `(fault, chunk)` pairs on one
/// thread; sharded callers build one per shard.
///
/// ```
/// use lsiq_fault::cone::{good_chunks, ConePropagator};
/// use lsiq_fault::model::{Fault, StuckValue};
/// use lsiq_netlist::library;
/// use lsiq_sim::levelized::CompiledCircuit;
/// use lsiq_sim::pattern::{Pattern, PatternSet};
///
/// let circuit = library::half_adder();
/// let compiled = CompiledCircuit::new(&circuit);
/// let patterns: PatternSet = (0..4).map(|v| Pattern::from_integer(v, 2)).collect();
/// let chunks = good_chunks::<1>(&compiled, &patterns, None);
/// let carry = circuit.find_signal("carry").expect("exists");
/// let mut cone = ConePropagator::<1>::new(&compiled);
/// // carry stuck-at-0 shows only at the carry output (position 1), only
/// // for a = b = 1 (pattern 3).
/// let fault = Fault::output(carry, StuckValue::Zero);
/// let errors = cone.propagate(&fault, &chunks[0].words, chunks[0].valid);
/// assert_eq!(errors.len(), 1);
/// assert_eq!(errors[0].0, 1);
/// assert_eq!(errors[0].1.first_set_slot(), Some(3));
/// ```
#[derive(Debug)]
pub struct ConePropagator<'a, const L: usize> {
    circuit: &'a Circuit,
    levelization: &'a Levelization,
    /// The primary-output position of every gate, or [`NOT_AN_OUTPUT`].
    output_position: Vec<u32>,
    /// Faulty words; `faulty[g]` is live iff `value_stamp[g] == epoch`.
    faulty: Vec<PackedBlock<L>>,
    value_stamp: Vec<u64>,
    sched_stamp: Vec<u64>,
    buckets: Vec<Vec<u32>>,
    fanin_words: Vec<PackedBlock<L>>,
    epoch: u64,
    errors: Vec<(u32, PackedBlock<L>)>,
}

impl<'a, const L: usize> ConePropagator<'a, L> {
    /// Allocates the scratch state for `compiled`'s circuit.
    pub fn new(compiled: &'a CompiledCircuit<'_>) -> Self {
        let circuit = compiled.circuit();
        let gate_count = circuit.gate_count();
        let mut output_position = vec![NOT_AN_OUTPUT; gate_count];
        for (position, &out) in circuit.primary_outputs().iter().enumerate() {
            // Netlist construction lists each output gate once.
            assert_eq!(
                output_position[out.index()],
                NOT_AN_OUTPUT,
                "gate listed twice as a primary output"
            );
            output_position[out.index()] = position as u32;
        }
        let levelization = compiled.levelization();
        ConePropagator {
            circuit,
            levelization,
            output_position,
            faulty: vec![PackedBlock::ZERO; gate_count],
            value_stamp: vec![0; gate_count],
            sched_stamp: vec![0; gate_count],
            buckets: vec![Vec::new(); levelization.depth() + 1],
            fanin_words: Vec::new(),
            epoch: 0,
            errors: Vec::new(),
        }
    }

    /// Propagates `fault` through one chunk whose good-machine image is
    /// `good` (one word per gate, indexed by gate id) and whose valid
    /// pattern slots are `valid`.
    ///
    /// Returns the sparse `(primary-output position, error word)` list of
    /// the outputs the fault reaches; empty when the chunk does not excite
    /// the fault or its effect dies before any output.
    pub fn propagate(
        &mut self,
        fault: &Fault,
        good: &[PackedBlock<L>],
        valid: PackedBlock<L>,
    ) -> &[(u32, PackedBlock<L>)] {
        self.errors.clear();
        let circuit = self.circuit;
        let site_id = fault.site.affected_gate();
        let site = site_id.index();
        let stuck = PackedBlock::<L>::splat(fault.stuck.as_bool());
        // Seed the fault site: an output fault pins the gate's word to the
        // stuck value; a pin fault re-evaluates the loading gate with that
        // one pin's word replaced.
        let seeded = match fault.site {
            FaultSite::Output(_) => stuck,
            FaultSite::InputPin { gate, pin } => {
                let load = circuit.gate(gate);
                self.fanin_words.clear();
                for (position, &driver) in load.fanin().iter().enumerate() {
                    self.fanin_words.push(if position == pin {
                        stuck
                    } else {
                        good[driver.index()]
                    });
                }
                eval_chunk(load.kind(), &self.fanin_words)
            }
        };
        // Restricting the seeded difference to valid slots keeps every
        // downstream word bitwise equal to the good machine outside the
        // chunk, killing events earlier and masking nothing (packed
        // evaluation is slot-independent).
        let diff = (seeded ^ good[site]) & valid;
        if diff.is_zero() {
            return &self.errors; // fault not excited by any pattern here
        }
        self.epoch += 1;
        let epoch = self.epoch;
        self.faulty[site] = good[site] ^ diff;
        self.value_stamp[site] = epoch;
        self.record(site, diff);
        let mut pending = self.schedule_fanout(site_id, epoch);
        // Drain dirty buckets in level order; a drained gate only ever
        // schedules strictly higher levels, so each cone gate is evaluated
        // at most once and its drivers are final when popped.
        let mut level = self.levelization.level(site_id) + 1;
        while pending > 0 {
            while self.buckets[level].is_empty() {
                level += 1;
            }
            let mut bucket = std::mem::take(&mut self.buckets[level]);
            for &dirty in &bucket {
                pending -= 1;
                let dirty_index = dirty as usize;
                let id = GateId(dirty_index);
                let gate = circuit.gate(id);
                self.fanin_words.clear();
                for &driver in gate.fanin() {
                    let driver_index = driver.index();
                    self.fanin_words
                        .push(if self.value_stamp[driver_index] == epoch {
                            self.faulty[driver_index]
                        } else {
                            good[driver_index]
                        });
                }
                let word = eval_chunk(gate.kind(), &self.fanin_words);
                let delta = word ^ good[dirty_index];
                if delta.is_zero() {
                    continue; // event died: the cone re-converged here
                }
                self.faulty[dirty_index] = word;
                self.value_stamp[dirty_index] = epoch;
                self.record(dirty_index, delta);
                pending += self.schedule_fanout(id, epoch);
            }
            bucket.clear();
            self.buckets[level] = bucket;
        }
        &self.errors
    }

    /// Reports `delta` if gate `gate` is a primary output.
    #[inline]
    fn record(&mut self, gate: usize, delta: PackedBlock<L>) {
        let position = self.output_position[gate];
        if position != NOT_AN_OUTPUT {
            self.errors.push((position, delta));
        }
    }

    /// Schedules every not-yet-scheduled load of `gate`; returns how many
    /// were newly scheduled.
    #[inline]
    fn schedule_fanout(&mut self, gate: GateId, epoch: u64) -> usize {
        let mut scheduled = 0;
        for &load in self.circuit.fanout(gate) {
            let index = load.index();
            if self.sched_stamp[index] != epoch {
                self.sched_stamp[index] = epoch;
                self.buckets[self.levelization.level(load)].push(index as u32);
                scheduled += 1;
            }
        }
        scheduled
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inject::outputs_with_fault;
    use crate::model::StuckValue;
    use crate::universe::FaultUniverse;
    use lsiq_netlist::generator::{random_circuit, RandomCircuitConfig};
    use lsiq_netlist::{CircuitBuilder, GateKind};
    use lsiq_sim::pattern::Pattern;
    use lsiq_stats::rng::{Rng, SplitMix64, Xoshiro256StarStar};

    fn random_patterns(width: usize, count: usize, seed: u64) -> PatternSet {
        let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
        (0..count)
            .map(|_| Pattern::from_bits((0..width).map(|_| rng.next_bool(0.5))))
            .collect()
    }

    /// Checks the kernel against the scalar injector for every fault of
    /// `universe`, every chunk and every slot: the sparse list, expanded to
    /// one error bit per output, must equal good XOR faulty, and must list
    /// each reached output exactly once with a non-zero word.
    fn assert_matches_scalar_oracle<const L: usize>(
        circuit: &Circuit,
        universe: &FaultUniverse,
        patterns: &PatternSet,
    ) {
        let compiled = CompiledCircuit::new(circuit);
        let outputs = circuit.primary_outputs().len();
        let chunks = good_chunks::<L>(&compiled, patterns, None);
        assert_eq!(chunks.len(), patterns.chunk_count(L));
        let good: Vec<Vec<bool>> = patterns.iter().map(|p| compiled.outputs(p)).collect();
        let mut cone = ConePropagator::<L>::new(&compiled);
        for fault in universe {
            for (index, chunk) in chunks.iter().enumerate() {
                let mut dense = vec![PackedBlock::<L>::ZERO; outputs];
                for &(position, error) in cone.propagate(fault, &chunk.words, chunk.valid) {
                    assert!(!error.is_zero(), "{fault}: zero error word listed");
                    assert!((error & !chunk.valid).is_zero(), "{fault}: invalid slot");
                    assert!(
                        dense[position as usize].is_zero(),
                        "{fault}: output {position} listed twice"
                    );
                    dense[position as usize] = error;
                }
                for slot in 0..chunk.count {
                    let pattern_index = index * PackedBlock::<L>::PATTERNS + slot;
                    let pattern = patterns.get(pattern_index).expect("valid slot");
                    let faulty = outputs_with_fault(&compiled, pattern.bits(), fault);
                    for (output, error) in dense.iter().enumerate() {
                        assert_eq!(
                            error.bit(slot),
                            good[pattern_index][output] ^ faulty[output],
                            "{fault}, L = {L}, chunk {index}, slot {slot}, output {output}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn kernel_matches_the_scalar_injector_on_random_circuits() {
        for case in 0..3u64 {
            let mut rng = SplitMix64::seed_from_u64(0xC0DE ^ case);
            let inputs = 5 + (rng.next_u64() % 4) as usize;
            let circuit = random_circuit(&RandomCircuitConfig {
                inputs,
                gates: 20 + (rng.next_u64() % 20) as usize,
                max_fanin: 2 + (rng.next_u64() % 3) as usize,
                seed: rng.next_u64(),
                ..RandomCircuitConfig::default()
            });
            for universe in [
                FaultUniverse::full(&circuit),
                FaultUniverse::checkpoint(&circuit),
            ] {
                // Every width spans two chunks, the last one partial.
                assert_matches_scalar_oracle::<1>(
                    &circuit,
                    &universe,
                    &random_patterns(inputs, 64 + 29, case),
                );
                assert_matches_scalar_oracle::<4>(
                    &circuit,
                    &universe,
                    &random_patterns(inputs, 256 + 40, case + 10),
                );
                assert_matches_scalar_oracle::<8>(
                    &circuit,
                    &universe,
                    &random_patterns(inputs, 512 + 3, case + 20),
                );
            }
        }
    }

    #[test]
    fn kernel_handles_input_faults_and_an_input_that_is_an_output() {
        // `a` is both a primary input and a primary output, and also feeds
        // logic; `b` fans out to an inverter and an OR pin.
        let mut builder = CircuitBuilder::new("pass-through");
        let a = builder.input("a");
        let b = builder.input("b");
        let c = builder.input("c");
        let nb = builder.gate("nb", GateKind::Not, &[b]);
        let y = builder.gate("y", GateKind::And, &[a, nb, c]);
        let z = builder.gate("z", GateKind::Or, &[b, y]);
        builder.mark_output(a);
        builder.mark_output(y);
        builder.mark_output(z);
        let circuit = builder.finish().expect("valid circuit");
        let universe = FaultUniverse::full(&circuit);
        // Output faults on every primary input, and pin faults.
        for input in [a, b, c] {
            for stuck in StuckValue::BOTH {
                assert!(universe.position(&Fault::output(input, stuck)).is_some());
            }
        }
        assert!(universe
            .iter()
            .any(|fault| matches!(fault.site, FaultSite::InputPin { .. })));
        let exhaustive: PatternSet = (0..8).map(|v| Pattern::from_integer(v, 3)).collect();
        assert_matches_scalar_oracle::<1>(&circuit, &universe, &exhaustive);
        assert_matches_scalar_oracle::<4>(&circuit, &universe, &exhaustive);
    }
}

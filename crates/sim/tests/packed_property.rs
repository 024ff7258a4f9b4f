//! Seeded property tests for the packed-chunk layer.
//!
//! In the workspace's in-tree proptest-replacement style: deterministic
//! seeded loops draw random chunks, pattern counts and gate evaluations,
//! and pin every lane width (`u64 × 1/4/8`) against a scalar
//! one-pattern-at-a-time reference — `valid_mask` / `splat` / `bit` /
//! `first_set_slot` / `is_zero` and full-chunk gate evaluation,
//! including partial-chunk tail masks at pattern counts 1..=512.

use lsiq_netlist::library;
use lsiq_netlist::GateKind;
use lsiq_sim::eval::{eval_bool, eval_chunk};
use lsiq_sim::levelized::CompiledCircuit;
use lsiq_sim::packed::{PackedBlock, PATTERNS_PER_WORD};
use lsiq_sim::pattern::{Pattern, PatternSet};
use lsiq_stats::rng::{Rng, SplitMix64};

const CASES: u64 = 200;

/// Scalar reference for the set-slot list of a masked difference: walk every
/// slot one at a time.
fn reference_differing_slots(good: u64, faulty: u64, valid: u64) -> Vec<usize> {
    (0..PATTERNS_PER_WORD)
        .filter(|&slot| {
            let g = (good >> slot) & 1;
            let f = (faulty >> slot) & 1;
            let v = (valid >> slot) & 1;
            v == 1 && g != f
        })
        .collect()
}

/// One seeded sweep of the chunk-level helpers at lane width `L`.
fn chunk_helpers_property<const L: usize>(seed: u64) {
    let mut rng = SplitMix64::seed_from_u64(seed);
    let random_chunk = |rng: &mut SplitMix64| {
        let mut chunk = PackedBlock::<L>::ZERO;
        for word in &mut chunk.0 {
            *word = rng.next_u64();
        }
        chunk
    };
    for case in 0..CASES {
        // Tail masks at every possible pattern count 1..=64*L.
        let count = 1 + (rng.next_u64() % PackedBlock::<L>::PATTERNS as u64) as usize;
        let valid = PackedBlock::<L>::valid_mask(count);
        for slot in 0..PackedBlock::<L>::PATTERNS {
            assert_eq!(
                valid.bit(slot),
                slot < count,
                "L={L} case {case} slot {slot}"
            );
        }
        for value in [false, true] {
            let splat = PackedBlock::<L>::splat(value);
            assert_eq!(splat.bit(0), value);
            assert_eq!(splat.bit(PackedBlock::<L>::PATTERNS - 1), value);
        }

        let good = random_chunk(&mut rng);
        let faulty = random_chunk(&mut rng);
        let diff = (good ^ faulty) & valid;

        // Chunk slot list against the per-lane scalar reference.
        let slots: Vec<usize> = (0..PackedBlock::<L>::PATTERNS)
            .filter(|&slot| diff.bit(slot))
            .collect();
        let mut reference = Vec::new();
        for lane in 0..L {
            for slot in reference_differing_slots(good.0[lane], faulty.0[lane], valid.0[lane]) {
                reference.push(lane * PATTERNS_PER_WORD + slot);
            }
        }
        assert_eq!(slots, reference, "L={L} case {case}");
        assert_eq!(diff.first_set_slot(), reference.first().copied());
        assert_eq!(diff.is_zero(), reference.is_empty());

        // bit() agrees with the lane/bit decomposition.
        for &slot in reference.iter().take(4) {
            assert!(diff.bit(slot));
            assert_eq!(
                diff.bit(slot),
                (diff.0[slot / PATTERNS_PER_WORD] >> (slot % PATTERNS_PER_WORD)) & 1 == 1
            );
        }
    }
}

#[test]
fn chunk_helpers_match_the_scalar_reference_at_every_lane_width() {
    chunk_helpers_property::<1>(0x51D_1001);
    chunk_helpers_property::<4>(0x51D_1004);
    chunk_helpers_property::<8>(0x51D_1008);
}

/// One seeded sweep of single-gate chunk evaluation at lane width `L`:
/// every kind, random arities, every valid slot checked against
/// `eval_bool` on the gathered scalar operands.
fn gate_eval_property<const L: usize>(seed: u64) {
    const KINDS: [GateKind; 12] = [
        GateKind::Input,
        GateKind::Dff,
        GateKind::Const0,
        GateKind::Const1,
        GateKind::Buf,
        GateKind::Not,
        GateKind::And,
        GateKind::Nand,
        GateKind::Or,
        GateKind::Nor,
        GateKind::Xor,
        GateKind::Xnor,
    ];
    let mut rng = SplitMix64::seed_from_u64(seed);
    for case in 0..CASES {
        let kind = KINDS[(rng.next_u64() % KINDS.len() as u64) as usize];
        let arity = match kind {
            GateKind::Input | GateKind::Dff | GateKind::Const0 | GateKind::Const1 => 0,
            GateKind::Buf | GateKind::Not => 1,
            _ => 2 + (rng.next_u64() % 3) as usize,
        };
        let mut inputs = vec![PackedBlock::<L>::ZERO; arity];
        for chunk in &mut inputs {
            for word in &mut chunk.0 {
                *word = rng.next_u64();
            }
        }
        let count = 1 + (rng.next_u64() % PackedBlock::<L>::PATTERNS as u64) as usize;
        let result = eval_chunk(kind, inputs.iter().copied());
        // Chunk evaluation is exactly per-lane single-word evaluation…
        for lane in 0..L {
            let lane_inputs: Vec<PackedBlock<1>> = inputs
                .iter()
                .map(|chunk| PackedBlock([chunk.0[lane]]))
                .collect();
            assert_eq!(
                result.0[lane],
                eval_chunk(kind, lane_inputs).0[0],
                "L={L} case {case} {kind} lane {lane}"
            );
        }
        // …and per-slot scalar evaluation on every valid pattern, including
        // the partial tail.
        for slot in (0..count).step_by(7).chain([count - 1]) {
            let scalar_inputs: Vec<bool> = inputs.iter().map(|chunk| chunk.bit(slot)).collect();
            assert_eq!(
                result.bit(slot),
                eval_bool(kind, &scalar_inputs),
                "L={L} case {case} {kind} slot {slot}"
            );
        }
    }
}

#[test]
fn gate_evaluation_matches_scalar_at_every_lane_width() {
    gate_eval_property::<1>(0x51D_2001);
    gate_eval_property::<4>(0x51D_2004);
    gate_eval_property::<8>(0x51D_2008);
}

/// Whole-circuit chunk simulation at lane width `L` against the scalar
/// one-pattern-at-a-time simulator, across pattern counts that exercise
/// partial tails from 1 pattern up to beyond one full chunk.
fn circuit_eval_property<const L: usize>(seed: u64) {
    let circuits = [library::c17(), library::alu4(), library::full_adder()];
    let mut rng = SplitMix64::seed_from_u64(seed);
    for circuit in &circuits {
        let compiled = CompiledCircuit::new(circuit);
        let width = circuit.primary_inputs().len();
        for _ in 0..6 {
            // 1..=64*L+17 patterns: partial tails on both sides of a chunk.
            let pattern_count =
                1 + (rng.next_u64() % (PackedBlock::<L>::PATTERNS as u64 + 17)) as usize;
            let patterns: PatternSet = (0..pattern_count)
                .map(|_| Pattern::from_bits((0..width).map(|_| rng.next_u64() & 1 == 1)))
                .collect();
            for chunk in 0..patterns.chunk_count(L) {
                let (input_chunks, count) = patterns.pack_chunk::<L>(width, chunk);
                let node_chunks = compiled.node_chunks(&input_chunks);
                for slot in 0..count {
                    let pattern = patterns
                        .get(chunk * PackedBlock::<L>::PATTERNS + slot)
                        .expect("valid slot");
                    let scalar = compiled.node_values(pattern);
                    for (gate, value) in scalar.iter().enumerate() {
                        assert_eq!(
                            node_chunks[gate].bit(slot),
                            *value,
                            "{} L={L} chunk {chunk} slot {slot} gate {gate}",
                            circuit.name()
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn circuit_chunk_simulation_matches_scalar_at_every_lane_width() {
    circuit_eval_property::<1>(0x51D_3001);
    circuit_eval_property::<4>(0x51D_3004);
    circuit_eval_property::<8>(0x51D_3008);
}

//! Compiled, levelised full-circuit simulation.

use crate::eval::{eval_bool, eval_chunk, eval_value3};
use crate::logic::Value3;
use crate::packed::PackedBlock;
use crate::pattern::Pattern;
use lsiq_netlist::circuit::{Circuit, GateId};
use lsiq_netlist::GateKind;

/// A circuit prepared for repeated simulation: a flat gate table, computed
/// once and reused for every pattern, evaluated in the circuit's own
/// topological order ([`Circuit::levelization`]).
///
/// The table holds every gate's kind and, in one array, every gate's
/// drivers in pin order as `u32` gate indices
/// ([`gate`](CompiledCircuit::gate)).  The bit-parallel good machine
/// evaluates from it, and so does the fault simulators' cone kernel, so
/// the hot loops read two flat arrays instead of one heap block per gate.
///
/// Three evaluation modes are offered:
///
/// * scalar two-valued ([`node_values`](CompiledCircuit::node_values),
///   [`outputs`](CompiledCircuit::outputs)) — the reference the packed
///   mode is checked against,
/// * bit-parallel over [`PackedBlock`] chunks of `64 × L` patterns
///   ([`node_chunks`](CompiledCircuit::node_chunks)), and
/// * three-valued for partially assigned inputs
///   ([`node_values3`](CompiledCircuit::node_values3)).
#[derive(Debug, Clone)]
pub struct CompiledCircuit<'c> {
    circuit: &'c Circuit,
    /// Every gate's kind, indexed by gate id.
    kinds: Vec<GateKind>,
    /// `fanin[fanin_start[g]..fanin_start[g + 1]]`: gate `g`'s drivers, in
    /// pin order.
    fanin_start: Vec<u32>,
    fanin: Vec<u32>,
}

impl<'c> CompiledCircuit<'c> {
    /// Prepares `circuit` for simulation.
    ///
    /// # Panics
    ///
    /// Panics if the circuit has `u32::MAX` gates or fanin pins or more.
    pub fn new(circuit: &'c Circuit) -> Self {
        let gates = circuit.gates();
        let pins: usize = gates.iter().map(|gate| gate.fanin_count()).sum();
        assert!(
            gates.len() < u32::MAX as usize && pins < u32::MAX as usize,
            "circuit exceeds the u32 gate index space"
        );
        let mut kinds = Vec::with_capacity(gates.len());
        let mut fanin_start = Vec::with_capacity(gates.len() + 1);
        let mut fanin = Vec::with_capacity(pins);
        fanin_start.push(0);
        for gate in gates {
            kinds.push(gate.kind());
            fanin.extend(gate.fanin().iter().map(|driver| driver.index() as u32));
            fanin_start.push(fanin.len() as u32);
        }
        CompiledCircuit {
            circuit,
            kinds,
            fanin_start,
            fanin,
        }
    }

    /// Gate `gate`'s kind and its drivers' gate indices, in pin order.
    ///
    /// # Panics
    ///
    /// Panics if `gate` is out of range for the circuit.
    #[inline]
    pub fn gate(&self, gate: usize) -> (GateKind, &[u32]) {
        let pins = self.fanin_start[gate] as usize..self.fanin_start[gate + 1] as usize;
        (self.kinds[gate], &self.fanin[pins])
    }

    /// The underlying circuit.
    pub fn circuit(&self) -> &'c Circuit {
        self.circuit
    }

    /// Gates in the topological evaluation order.
    pub fn order(&self) -> &'c [GateId] {
        self.circuit.levelization().order()
    }

    /// Simulates one pattern and returns the value of every gate, indexed by
    /// gate id.  Pattern bits are matched to primary inputs positionally;
    /// missing bits default to 0 and extra bits are ignored.
    pub fn node_values(&self, pattern: &Pattern) -> Vec<bool> {
        let mut values = vec![false; self.circuit.gate_count()];
        for (position, &input) in self.circuit.primary_inputs().iter().enumerate() {
            values[input.index()] = position < pattern.width() && pattern.bit(position);
        }
        let mut fanin_values = Vec::new();
        for &id in self.order() {
            let gate = self.circuit.gate(id);
            if gate.kind() == GateKind::Input {
                continue;
            }
            fanin_values.clear();
            fanin_values.extend(gate.fanin().iter().map(|&d| values[d.index()]));
            values[id.index()] = eval_bool(gate.kind(), &fanin_values);
        }
        values
    }

    /// Simulates one pattern and returns only the primary-output response, in
    /// output declaration order.
    pub fn outputs(&self, pattern: &Pattern) -> Vec<bool> {
        let values = self.node_values(pattern);
        self.circuit
            .primary_outputs()
            .iter()
            .map(|&out| values[out.index()])
            .collect()
    }

    /// Simulates one lane-wide chunk of up to `64 × L` patterns bit-parallel.
    ///
    /// `input_chunks` holds one [`PackedBlock`] per primary input
    /// (positional); missing chunks default to all-zero.  Returns one chunk
    /// per gate, indexed by gate id.
    pub fn node_chunks<const L: usize>(
        &self,
        input_chunks: &[PackedBlock<L>],
    ) -> Vec<PackedBlock<L>> {
        let mut chunks = Vec::new();
        self.node_chunks_into(input_chunks, &mut chunks);
        chunks
    }

    /// Like [`node_chunks`](CompiledCircuit::node_chunks), but reuses a
    /// caller-owned buffer so per-chunk sweeps allocate nothing after the
    /// first call.
    pub fn node_chunks_into<const L: usize>(
        &self,
        input_chunks: &[PackedBlock<L>],
        chunks: &mut Vec<PackedBlock<L>>,
    ) {
        chunks.clear();
        chunks.resize(self.circuit.gate_count(), PackedBlock::ZERO);
        for (position, &input) in self.circuit.primary_inputs().iter().enumerate() {
            chunks[input.index()] = input_chunks
                .get(position)
                .copied()
                .unwrap_or(PackedBlock::ZERO);
        }
        for &id in self.order() {
            let (kind, fanin) = self.gate(id.index());
            if kind == GateKind::Input {
                continue;
            }
            chunks[id.index()] = eval_chunk(kind, fanin.iter().map(|&d| chunks[d as usize]));
        }
    }

    /// Simulates a (possibly partial) three-valued input assignment.
    ///
    /// `assignment` holds one value per primary input (positional); missing
    /// entries are treated as unknown.
    pub fn node_values3(&self, assignment: &[Value3]) -> Vec<Value3> {
        let mut values = vec![Value3::Unknown; self.circuit.gate_count()];
        for (position, &input) in self.circuit.primary_inputs().iter().enumerate() {
            values[input.index()] = assignment.get(position).copied().unwrap_or(Value3::Unknown);
        }
        let mut fanin_values = Vec::new();
        for &id in self.order() {
            let gate = self.circuit.gate(id);
            if gate.kind() == GateKind::Input {
                continue;
            }
            fanin_values.clear();
            fanin_values.extend(gate.fanin().iter().map(|&d| values[d.index()]));
            values[id.index()] = eval_value3(gate.kind(), &fanin_values);
        }
        values
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsiq_netlist::library;

    /// Reference model of c17: straight translation of its six NAND gates.
    fn c17_reference(inputs: [bool; 5]) -> [bool; 2] {
        let [g1, g2, g3, g6, g7] = inputs;
        let g10 = !(g1 && g3);
        let g11 = !(g3 && g6);
        let g16 = !(g2 && g11);
        let g19 = !(g11 && g7);
        let g22 = !(g10 && g16);
        let g23 = !(g16 && g19);
        [g22, g23]
    }

    #[test]
    fn c17_matches_reference_exhaustively() {
        let circuit = library::c17();
        let sim = CompiledCircuit::new(&circuit);
        for value in 0u64..32 {
            let pattern = Pattern::from_integer(value, 5);
            let expected = c17_reference([
                pattern.bit(0),
                pattern.bit(1),
                pattern.bit(2),
                pattern.bit(3),
                pattern.bit(4),
            ]);
            assert_eq!(sim.outputs(&pattern), expected.to_vec(), "pattern {value}");
        }
    }

    #[test]
    fn adder_computes_sums() {
        let circuit = library::adder4();
        let sim = CompiledCircuit::new(&circuit);
        for a in 0u64..16 {
            for b in [0u64, 3, 9, 15] {
                for cin in [0u64, 1] {
                    // Inputs are declared a0..a3, b0..b3, cin.
                    let value = a | (b << 4) | (cin << 8);
                    let pattern = Pattern::from_integer(value, 9);
                    let outputs = sim.outputs(&pattern);
                    let sum: u64 = outputs[..4]
                        .iter()
                        .enumerate()
                        .map(|(bit, &v)| (v as u64) << bit)
                        .sum::<u64>()
                        + ((outputs[4] as u64) << 4);
                    assert_eq!(sum, a + b + cin, "a={a} b={b} cin={cin}");
                }
            }
        }
    }

    #[test]
    fn three_valued_simulation_agrees_on_fully_assigned_patterns() {
        let circuit = library::full_adder();
        let sim = CompiledCircuit::new(&circuit);
        for value in 0u64..8 {
            let pattern = Pattern::from_integer(value, 3);
            let assignment: Vec<Value3> = pattern
                .bits()
                .iter()
                .map(|&b| Value3::from_bool(b))
                .collect();
            let scalar = sim.node_values(&pattern);
            let ternary = sim.node_values3(&assignment);
            for (id, (&b, &v)) in scalar.iter().zip(ternary.iter()).enumerate() {
                assert_eq!(Value3::from_bool(b), v, "gate {id} pattern {value}");
            }
        }
    }

    #[test]
    fn unassigned_inputs_produce_unknowns_where_needed() {
        let circuit = library::half_adder();
        let sim = CompiledCircuit::new(&circuit);
        // a = 0, b unknown: carry = 0 (controlled), sum unknown.
        let values = sim.node_values3(&[Value3::Zero]);
        let sum = circuit.find_signal("sum").expect("exists");
        let carry = circuit.find_signal("carry").expect("exists");
        assert_eq!(values[sum.index()], Value3::Unknown);
        assert_eq!(values[carry.index()], Value3::Zero);
    }

    #[test]
    fn short_patterns_default_missing_inputs_to_zero() {
        let circuit = library::c17();
        let sim = CompiledCircuit::new(&circuit);
        let short = sim.outputs(&Pattern::from_bits([true, true]));
        let padded = sim.outputs(&Pattern::from_bits([true, true, false, false, false]));
        assert_eq!(short, padded);
    }

    #[test]
    fn gate_table_matches_the_circuit() {
        let circuit = library::alu4();
        let sim = CompiledCircuit::new(&circuit);
        for (id, gate) in circuit.iter() {
            let (kind, fanin) = sim.gate(id.index());
            assert_eq!(kind, gate.kind(), "{id}");
            let drivers: Vec<usize> = fanin.iter().map(|&d| d as usize).collect();
            let expected: Vec<usize> = gate.fanin().iter().map(|d| d.index()).collect();
            assert_eq!(drivers, expected, "{id}");
        }
    }

    #[test]
    fn order_and_accessors() {
        let circuit = library::c17();
        let sim = CompiledCircuit::new(&circuit);
        assert_eq!(sim.order().len(), circuit.gate_count());
        assert_eq!(sim.circuit().name(), "c17");
        assert_eq!(sim.circuit().levelization().depth(), 3);
    }
}

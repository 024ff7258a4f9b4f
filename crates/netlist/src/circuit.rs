//! The combinational circuit container.

use crate::error::NetlistError;
use crate::gate::{Gate, GateKind};
use crate::levelize::{levelize, Levelization};
use std::collections::HashMap;
use std::fmt;
use std::sync::OnceLock;

/// Identifier of a gate within a [`Circuit`].
///
/// The identifier doubles as the identifier of the signal the gate drives:
/// every gate drives exactly one signal (its "stem"), and fanout branches are
/// addressed as (driven gate, input pin) pairs by the fault model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GateId(pub usize);

impl GateId {
    /// The underlying index.
    pub fn index(self) -> usize {
        self.0
    }
}

impl std::fmt::Display for GateId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "g{}", self.0)
    }
}

/// A signal-name lookup table, built from the names on the first lookup.
///
/// It holds nothing the names do not, so every index compares equal, a
/// clone starts empty, and `Debug` does not show whether it was built.
/// Like a `HashMap` filled in id order, a repeated name finds its last
/// definition.
#[derive(Default)]
pub(crate) struct NameIndex(OnceLock<HashMap<String, GateId>>);

impl NameIndex {
    /// Looks `name` up among `names`, indexing them on the first call.
    pub(crate) fn find(&self, names: &[String], name: &str) -> Option<GateId> {
        self.0
            .get_or_init(|| {
                names
                    .iter()
                    .enumerate()
                    .map(|(index, signal)| (signal.clone(), GateId(index)))
                    .collect()
            })
            .get(name)
            .copied()
    }

    /// Records that `name` now names `id`, if the index has been built.
    pub(crate) fn insert(&mut self, name: &str, id: GateId) {
        if let Some(index) = self.0.get_mut() {
            index.insert(name.to_owned(), id);
        }
    }
}

impl Clone for NameIndex {
    fn clone(&self) -> Self {
        NameIndex::default()
    }
}

impl PartialEq for NameIndex {
    fn eq(&self, _: &NameIndex) -> bool {
        true
    }
}

impl Eq for NameIndex {}

impl fmt::Debug for NameIndex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("NameIndex")
    }
}

/// A validated gate-level circuit — combinational logic plus optional D
/// flip-flop state elements.
///
/// Construct one with [`CircuitBuilder`](crate::builder::CircuitBuilder) or
/// by parsing a `.bench` description with
/// [`bench_format::parse`](crate::bench_format::parse).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Circuit {
    name: String,
    gates: Vec<Gate>,
    signal_names: Vec<String>,
    primary_inputs: Vec<GateId>,
    primary_outputs: Vec<GateId>,
    /// `is_output[g]`: whether gate `g` is listed in `primary_outputs`, so
    /// the per-gate query does not scan the output list.
    is_output: Vec<bool>,
    state_elements: Vec<GateId>,
    /// `fanout[fanout_start[g]..fanout_start[g + 1]]`: the loads of gate
    /// `g`, each once per pin it drives, in id order.
    fanout_start: Vec<usize>,
    fanout: Vec<GateId>,
    /// The topological order and levels, computed once when the circuit is
    /// assembled (a circuit is never mutated afterwards).
    levelization: Levelization,
    names: NameIndex,
}

impl Circuit {
    /// Assembles a circuit from its parts, computing fanout and levels and
    /// validating structure.  Intended for use by the builder and parser;
    /// library users should prefer
    /// [`CircuitBuilder`](crate::builder::CircuitBuilder).
    ///
    /// A gate listed in `primary_outputs` more than once is an output once,
    /// at its first position.
    ///
    /// # Errors
    ///
    /// Returns an error if a gate's fanin arity is illegal for its kind, if a
    /// fanin reference is out of range, if the circuit has no primary
    /// outputs, or if its gates form a combinational cycle.
    pub(crate) fn from_parts(
        name: String,
        gates: Vec<Gate>,
        signal_names: Vec<String>,
        mut primary_outputs: Vec<GateId>,
    ) -> Result<Self, NetlistError> {
        let gate_count = gates.len();
        let mut primary_inputs = Vec::new();
        let mut state_elements = Vec::new();
        // Count every driver's loads, then lay them out in one array.
        let mut fanout_start = vec![0usize; gate_count + 1];
        for (index, gate) in gates.iter().enumerate() {
            let id = GateId(index);
            if !gate.kind().accepts_fanin(gate.fanin_count()) {
                return Err(NetlistError::BadFanin {
                    kind: gate.kind().name(),
                    actual: gate.fanin_count(),
                    expected: match gate.kind().fanin_bounds() {
                        (0, 0) => "no inputs",
                        (1, 1) => "exactly one input",
                        _ => "at least one input",
                    },
                });
            }
            for &driver in gate.fanin() {
                if driver.index() >= gate_count {
                    return Err(NetlistError::InvalidGateId {
                        id: driver.index(),
                        gate_count,
                    });
                }
                fanout_start[driver.index() + 1] += 1;
            }
            if gate.kind() == GateKind::Input {
                primary_inputs.push(id);
            }
            if gate.kind().is_state() {
                state_elements.push(id);
            }
        }
        if primary_outputs.is_empty() {
            return Err(NetlistError::NoOutputs);
        }
        let mut is_output = vec![false; gate_count];
        for &out in &primary_outputs {
            if out.index() >= gate_count {
                return Err(NetlistError::InvalidGateId {
                    id: out.index(),
                    gate_count,
                });
            }
        }
        primary_outputs.retain(|out| !std::mem::replace(&mut is_output[out.index()], true));
        for gate in 0..gate_count {
            fanout_start[gate + 1] += fanout_start[gate];
        }
        let mut cursor = fanout_start.clone();
        let mut fanout = vec![GateId(0); fanout_start[gate_count]];
        for (index, gate) in gates.iter().enumerate() {
            for &driver in gate.fanin() {
                let slot = &mut cursor[driver.index()];
                fanout[*slot] = GateId(index);
                *slot += 1;
            }
        }
        let mut circuit = Circuit {
            name,
            gates,
            signal_names,
            primary_inputs,
            primary_outputs,
            is_output,
            state_elements,
            fanout_start,
            fanout,
            levelization: Levelization::default(),
            names: NameIndex::default(),
        };
        // Reject cyclic structures outright: every consumer assumes a DAG.
        circuit.levelization = levelize(&circuit)?;
        Ok(circuit)
    }

    /// The circuit's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of gates, counting primary inputs as gates.
    pub fn gate_count(&self) -> usize {
        self.gates.len()
    }

    /// The gate with identifier `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range for this circuit.
    pub fn gate(&self, id: GateId) -> &Gate {
        &self.gates[id.index()]
    }

    /// All gates, indexed by [`GateId`].
    pub fn gates(&self) -> &[Gate] {
        &self.gates
    }

    /// The signal name driven by gate `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range for this circuit.
    pub fn signal_name(&self, id: GateId) -> &str {
        &self.signal_names[id.index()]
    }

    /// Looks up a gate by the name of the signal it drives.
    ///
    /// The first lookup indexes every name; later ones are hash lookups.
    pub fn find_signal(&self, name: &str) -> Option<GateId> {
        self.names.find(&self.signal_names, name)
    }

    /// Primary input gates in declaration order.
    pub fn primary_inputs(&self) -> &[GateId] {
        &self.primary_inputs
    }

    /// Primary output gates in declaration order.
    pub fn primary_outputs(&self) -> &[GateId] {
        &self.primary_outputs
    }

    /// State elements (D flip-flops) in declaration order.
    pub fn state_elements(&self) -> &[GateId] {
        &self.state_elements
    }

    /// Returns `true` if the circuit contains any state element, i.e. is
    /// sequential rather than purely combinational.
    pub fn has_state(&self) -> bool {
        !self.state_elements.is_empty()
    }

    /// Gates driven by the output of gate `id` (its fanout list).
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range for this circuit.
    pub fn fanout(&self, id: GateId) -> &[GateId] {
        &self.fanout[self.fanout_start[id.index()]..self.fanout_start[id.index() + 1]]
    }

    /// Number of fanout branches of gate `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range for this circuit.
    pub fn fanout_count(&self, id: GateId) -> usize {
        self.fanout_start[id.index() + 1] - self.fanout_start[id.index()]
    }

    /// Returns `true` if gate `id` is a designated primary output.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range for this circuit.
    pub fn is_primary_output(&self, id: GateId) -> bool {
        self.is_output[id.index()]
    }

    /// Returns `true` if gate `id` is a fanout stem, i.e. drives more than
    /// one input pin (or drives pins and is also a primary output).
    pub fn is_fanout_stem(&self, id: GateId) -> bool {
        let branches = self.fanout_count(id) + usize::from(self.is_primary_output(id));
        branches > 1
    }

    /// The circuit's topological order and per-gate levels, computed once
    /// when it was built.
    pub fn levelization(&self) -> &Levelization {
        &self.levelization
    }

    /// Iterates over `(GateId, &Gate)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (GateId, &Gate)> {
        self.gates.iter().enumerate().map(|(i, g)| (GateId(i), g))
    }

    /// Estimated CMOS transistor count of the whole circuit.
    pub fn transistor_estimate(&self) -> usize {
        self.gates
            .iter()
            .map(|g| g.kind().transistor_count(g.fanin_count()))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::CircuitBuilder;

    fn tiny_circuit() -> Circuit {
        // y = NAND(a, b); z = NOT(y); outputs y, z.
        let mut b = CircuitBuilder::new("tiny");
        let a = b.input("a");
        let bb = b.input("b");
        let y = b.gate("y", GateKind::Nand, &[a, bb]);
        let z = b.gate("z", GateKind::Not, &[y]);
        b.mark_output(y);
        b.mark_output(z);
        b.finish().expect("valid circuit")
    }

    #[test]
    fn accessors_report_structure() {
        let c = tiny_circuit();
        assert_eq!(c.name(), "tiny");
        assert_eq!(c.gate_count(), 4);
        assert_eq!(c.primary_inputs().len(), 2);
        assert_eq!(c.primary_outputs().len(), 2);
        let y = c.find_signal("y").expect("exists");
        assert_eq!(c.gate(y).kind(), GateKind::Nand);
        assert_eq!(c.signal_name(y), "y");
        assert!(c.find_signal("missing").is_none());
    }

    #[test]
    fn equality_and_clone_do_not_depend_on_the_name_index() {
        let looked_up = tiny_circuit();
        assert!(looked_up.find_signal("z").is_some());
        let fresh = tiny_circuit();
        assert_eq!(looked_up, fresh);
        assert_eq!(fresh, looked_up);
        assert_eq!(format!("{looked_up:?}"), format!("{fresh:?}"));
        let copy = looked_up.clone();
        assert_eq!(copy, fresh);
        assert_eq!(copy.find_signal("y"), fresh.find_signal("y"));
        assert_eq!(copy.find_signal("missing"), None);
    }

    #[test]
    fn fanout_is_computed() {
        let c = tiny_circuit();
        let a = c.find_signal("a").expect("exists");
        let y = c.find_signal("y").expect("exists");
        let z = c.find_signal("z").expect("exists");
        assert_eq!(c.fanout(a), &[y]);
        assert_eq!(c.fanout(y), &[z]);
        assert_eq!(c.fanout_count(z), 0);
        // A load is listed once per pin it takes, loads in id order.
        let mut b = CircuitBuilder::new("pins");
        let a = b.input("a");
        let c = b.input("c");
        let x = b.gate("x", GateKind::And, &[c, a, a]);
        let y = b.gate("y", GateKind::Or, &[a, x]);
        b.mark_output(y);
        let circuit = b.finish().expect("valid");
        assert_eq!(circuit.fanout(a), &[x, x, y]);
        assert_eq!(circuit.fanout_count(a), 3);
        assert_eq!(circuit.fanout(c), &[x]);
    }

    #[test]
    fn fanout_stem_detection() {
        let mut b = CircuitBuilder::new("stem");
        let a = b.input("a");
        let x = b.gate("x", GateKind::Not, &[a]);
        let y = b.gate("y", GateKind::Not, &[a]);
        let z = b.gate("z", GateKind::And, &[x, y]);
        b.mark_output(z);
        let c = b.finish().expect("valid");
        let a = c.find_signal("a").expect("exists");
        assert!(c.is_fanout_stem(a));
        let x = c.find_signal("x").expect("exists");
        assert!(!c.is_fanout_stem(x));
    }

    #[test]
    fn output_that_also_fans_out_is_a_stem() {
        let c = tiny_circuit();
        // y drives z and is itself a primary output: two branches.
        let y = c.find_signal("y").expect("exists");
        assert!(c.is_fanout_stem(y));
    }

    #[test]
    fn circuit_without_outputs_is_rejected() {
        let mut b = CircuitBuilder::new("no-out");
        let a = b.input("a");
        let _ = b.gate("x", GateKind::Not, &[a]);
        assert!(matches!(b.finish(), Err(NetlistError::NoOutputs)));
    }

    #[test]
    fn transistor_estimate_sums_gates() {
        let c = tiny_circuit();
        // NAND2 = 4, NOT = 2, inputs = 0.
        assert_eq!(c.transistor_estimate(), 6);
    }

    #[test]
    fn iter_yields_every_gate_in_order() {
        let c = tiny_circuit();
        let ids: Vec<usize> = c.iter().map(|(id, _)| id.index()).collect();
        assert_eq!(ids, vec![0, 1, 2, 3]);
    }

    #[test]
    fn gate_id_display() {
        assert_eq!(GateId(7).to_string(), "g7");
        assert_eq!(GateId(7).index(), 7);
    }
}

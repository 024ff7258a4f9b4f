//! Incremental circuit construction.

use crate::circuit::{Circuit, GateId};
use crate::error::NetlistError;
use crate::gate::{Gate, GateKind};
use std::collections::HashMap;

/// Builds a [`Circuit`] gate by gate.
///
/// Signals are identified by name; the builder checks for duplicate
/// definitions eagerly and the final [`finish`](CircuitBuilder::finish)
/// validates fanin arities and output presence.
///
/// ```
/// use lsiq_netlist::{CircuitBuilder, GateKind};
///
/// # fn main() -> Result<(), lsiq_netlist::NetlistError> {
/// let mut builder = CircuitBuilder::new("half-adder");
/// let a = builder.input("a");
/// let b = builder.input("b");
/// let sum = builder.gate("sum", GateKind::Xor, &[a, b]);
/// let carry = builder.gate("carry", GateKind::And, &[a, b]);
/// builder.mark_output(sum);
/// builder.mark_output(carry);
/// let circuit = builder.finish()?;
/// assert_eq!(circuit.gate_count(), 4);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct CircuitBuilder {
    name: String,
    gates: Vec<Gate>,
    signal_names: Vec<String>,
    outputs: Vec<GateId>,
    by_name: HashMap<String, GateId>,
    duplicate: Option<String>,
}

impl CircuitBuilder {
    /// Starts a new empty circuit with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        CircuitBuilder {
            name: name.into(),
            gates: Vec::new(),
            signal_names: Vec::new(),
            outputs: Vec::new(),
            by_name: HashMap::new(),
            duplicate: None,
        }
    }

    fn push(&mut self, name: String, gate: Gate) -> GateId {
        let id = GateId(self.gates.len());
        if self.by_name.insert(name.clone(), id).is_some() && self.duplicate.is_none() {
            self.duplicate = Some(name.clone());
        }
        self.gates.push(gate);
        self.signal_names.push(name);
        id
    }

    /// Adds a primary input and returns its id.
    pub fn input(&mut self, name: impl Into<String>) -> GateId {
        self.push(name.into(), Gate::new(GateKind::Input, Vec::new()))
    }

    /// Adds a logic gate driving the signal `name` and returns its id.
    ///
    /// Arity validation is deferred to [`finish`](CircuitBuilder::finish) so
    /// that generators can assemble circuits without intermediate error
    /// handling.
    pub fn gate(&mut self, name: impl Into<String>, kind: GateKind, fanin: &[GateId]) -> GateId {
        self.push(name.into(), Gate::new(kind, fanin.to_vec()))
    }

    /// Adds a D flip-flop driven by `d` and returns its id (the Q output).
    ///
    /// For feedback through the flip-flop (state machines, counters) use
    /// [`dff_placeholder`](CircuitBuilder::dff_placeholder) /
    /// [`bind_dff`](CircuitBuilder::bind_dff) so the next-state logic can be
    /// built from the Q output before the D pin exists.
    pub fn dff(&mut self, name: impl Into<String>, d: GateId) -> GateId {
        self.push(name.into(), Gate::new(GateKind::Dff, vec![d]))
    }

    /// Adds a D flip-flop whose D pin is bound later with
    /// [`bind_dff`](CircuitBuilder::bind_dff).  The returned id is the Q
    /// output and can be used as fanin immediately.  A placeholder left
    /// unbound fails [`finish`](CircuitBuilder::finish) with a
    /// [`NetlistError::BadFanin`] (a DFF takes exactly one input).
    pub fn dff_placeholder(&mut self, name: impl Into<String>) -> GateId {
        self.push(name.into(), Gate::new(GateKind::Dff, Vec::new()))
    }

    /// Binds the D pin of a flip-flop created by
    /// [`dff_placeholder`](CircuitBuilder::dff_placeholder).
    ///
    /// # Panics
    ///
    /// Panics if `dff` is not an unbound DFF placeholder — binding twice or
    /// binding a logic gate is a construction bug, not an input error.
    pub fn bind_dff(&mut self, dff: GateId, d: GateId) {
        let gate = &self.gates[dff.index()];
        assert!(
            gate.kind() == GateKind::Dff && gate.fanin_count() == 0,
            "bind_dff target must be an unbound DFF placeholder"
        );
        self.gates[dff.index()] = Gate::new(GateKind::Dff, vec![d]);
    }

    /// Adds a constant-0 source.
    pub fn constant_zero(&mut self, name: impl Into<String>) -> GateId {
        self.push(name.into(), Gate::new(GateKind::Const0, Vec::new()))
    }

    /// Adds a constant-1 source.
    pub fn constant_one(&mut self, name: impl Into<String>) -> GateId {
        self.push(name.into(), Gate::new(GateKind::Const1, Vec::new()))
    }

    /// Marks the signal driven by `id` as a primary output.
    ///
    /// Marking the same gate twice is idempotent.
    pub fn mark_output(&mut self, id: GateId) {
        if !self.outputs.contains(&id) {
            self.outputs.push(id);
        }
    }

    /// Looks up a previously defined signal by name.
    pub fn find_signal(&self, name: &str) -> Option<GateId> {
        self.by_name.get(name).copied()
    }

    /// Number of gates added so far.
    pub fn gate_count(&self) -> usize {
        self.gates.len()
    }

    /// Finalises the circuit.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::DuplicateSignal`] if two gates were given the
    /// same signal name, [`NetlistError::BadFanin`] for illegal arities,
    /// [`NetlistError::NoOutputs`] when no output was marked, or
    /// [`NetlistError::CombinationalCycle`] if the gates form a cycle.
    pub fn finish(self) -> Result<Circuit, NetlistError> {
        if let Some(name) = self.duplicate {
            return Err(NetlistError::DuplicateSignal { name });
        }
        let circuit = Circuit::from_parts(self.name, self.gates, self.signal_names, self.outputs)?;
        // Reject cyclic structures outright: every consumer assumes a DAG.
        crate::levelize::levelize(&circuit)?;
        Ok(circuit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_a_simple_circuit() {
        let mut b = CircuitBuilder::new("demo");
        let a = b.input("a");
        let c = b.constant_one("one");
        let y = b.gate("y", GateKind::And, &[a, c]);
        b.mark_output(y);
        let circuit = b.finish().expect("valid");
        assert_eq!(circuit.gate_count(), 3);
        assert_eq!(circuit.primary_inputs().len(), 1);
    }

    #[test]
    fn duplicate_names_are_rejected() {
        let mut b = CircuitBuilder::new("dup");
        let a = b.input("a");
        let _ = b.gate("a", GateKind::Not, &[a]);
        assert!(matches!(
            b.finish(),
            Err(NetlistError::DuplicateSignal { .. })
        ));
    }

    #[test]
    fn bad_arity_is_rejected_at_finish() {
        let mut b = CircuitBuilder::new("arity");
        let a = b.input("a");
        let bad = b.gate("bad", GateKind::Not, &[a, a]);
        b.mark_output(bad);
        assert!(matches!(b.finish(), Err(NetlistError::BadFanin { .. })));
    }

    #[test]
    fn cycles_are_rejected_at_finish() {
        // Build a cycle by referencing a forward id: x = NOT(y); y = NOT(x).
        let mut b = CircuitBuilder::new("cycle");
        let x = b.gate("x", GateKind::Not, &[GateId(1)]);
        let y = b.gate("y", GateKind::Not, &[x]);
        b.mark_output(y);
        assert!(matches!(
            b.finish(),
            Err(NetlistError::CombinationalCycle { .. })
        ));
    }

    #[test]
    fn mark_output_is_idempotent() {
        let mut b = CircuitBuilder::new("idem");
        let a = b.input("a");
        let y = b.gate("y", GateKind::Buf, &[a]);
        b.mark_output(y);
        b.mark_output(y);
        let circuit = b.finish().expect("valid");
        assert_eq!(circuit.primary_outputs().len(), 1);
    }

    #[test]
    fn find_signal_before_finish() {
        let mut b = CircuitBuilder::new("find");
        let a = b.input("a");
        assert_eq!(b.find_signal("a"), Some(a));
        assert_eq!(b.find_signal("b"), None);
        assert_eq!(b.gate_count(), 1);
    }

    #[test]
    fn dff_feedback_builds_through_placeholder() {
        // A toggle cell: q = DFF(NOT(q)).
        let mut b = CircuitBuilder::new("toggle");
        let q = b.dff_placeholder("q");
        let nq = b.gate("nq", GateKind::Not, &[q]);
        b.bind_dff(q, nq);
        b.mark_output(nq);
        let circuit = b.finish().expect("valid sequential loop");
        assert_eq!(circuit.gate(q).kind(), GateKind::Dff);
        assert_eq!(circuit.gate(q).fanin(), &[nq]);
        assert_eq!(circuit.state_elements(), &[q]);
        assert!(circuit.has_state());
    }

    #[test]
    fn unbound_dff_placeholder_fails_finish() {
        let mut b = CircuitBuilder::new("unbound");
        let q = b.dff_placeholder("q");
        b.mark_output(q);
        assert!(matches!(b.finish(), Err(NetlistError::BadFanin { .. })));
    }

    #[test]
    fn constants_have_no_fanin() {
        let mut b = CircuitBuilder::new("consts");
        let zero = b.constant_zero("zero");
        let one = b.constant_one("one");
        let y = b.gate("y", GateKind::Or, &[zero, one]);
        b.mark_output(y);
        let circuit = b.finish().expect("valid");
        assert_eq!(circuit.gate(zero).fanin_count(), 0);
        assert_eq!(circuit.gate(one).kind(), GateKind::Const1);
    }
}

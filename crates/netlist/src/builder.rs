//! Incremental circuit construction.

use crate::circuit::{Circuit, GateId, NameIndex};
use crate::error::NetlistError;
use crate::gate::{Gate, GateKind};
use std::borrow::Cow;
use std::collections::{HashMap, HashSet};

/// Builds a [`Circuit`] gate by gate.
///
/// Signals are identified by name.  Names are indexed only once
/// [`find_signal`](CircuitBuilder::find_signal) is first called, and
/// [`finish`](CircuitBuilder::finish) checks them for duplicates once, then
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
    /// Every marked output, in marking order; `finish` drops repeats.
    outputs: Vec<GateId>,
    names: NameIndex,
}

impl CircuitBuilder {
    /// Starts a new empty circuit with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        CircuitBuilder {
            name: name.into(),
            gates: Vec::new(),
            signal_names: Vec::new(),
            outputs: Vec::new(),
            names: NameIndex::default(),
        }
    }

    fn push(&mut self, name: String, gate: Gate) -> GateId {
        let id = GateId(self.gates.len());
        self.names.insert(&name, id);
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
    /// Marking the same gate twice is idempotent: the gate is one output,
    /// declared where it was first marked.
    pub fn mark_output(&mut self, id: GateId) {
        self.outputs.push(id);
    }

    /// Looks up a previously defined signal by name.  A name defined twice
    /// finds its later definition.
    ///
    /// The first call indexes every name added so far, and the index then
    /// follows every later addition, so interleaving lookups and additions
    /// stays linear.
    pub fn find_signal(&self, name: &str) -> Option<GateId> {
        self.names.find(&self.signal_names, name)
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
    /// same signal name (naming the first name to repeat, in addition
    /// order), [`NetlistError::BadFanin`] for illegal arities,
    /// [`NetlistError::NoOutputs`] when no output was marked, or
    /// [`NetlistError::CombinationalCycle`] if the gates form a cycle.
    pub fn finish(self) -> Result<Circuit, NetlistError> {
        if let Some(name) = first_repeat(&self.signal_names) {
            return Err(NetlistError::DuplicateSignal {
                name: name.to_owned(),
            });
        }
        Circuit::from_parts(self.name, self.gates, self.signal_names, self.outputs)
    }
}

/// One gate of a parsed netlist: the signal it drives, its kind and its
/// fanin by signal name (names a reader synthesises are owned).
pub(crate) struct NamedGate<'a> {
    pub(crate) signal: Cow<'a, str>,
    pub(crate) kind: GateKind,
    pub(crate) fanin: Vec<Cow<'a, str>>,
}

/// Builds the circuit `name` from `gates` in order, each gate's id its
/// position, with every fanin and output reference resolved through one
/// map of the gate names (a name defined twice resolves to its later
/// definition, and [`CircuitBuilder::finish`] then rejects the repeat).
///
/// # Errors
///
/// [`NetlistError::UnknownSignal`] for the first reference, in gate order
/// and then output order, that names no gate; then whatever
/// [`CircuitBuilder::finish`] reports.
pub(crate) fn build_named(
    name: String,
    gates: &[NamedGate<'_>],
    outputs: &[impl AsRef<str>],
) -> Result<Circuit, NetlistError> {
    let ids: HashMap<&str, GateId> = gates
        .iter()
        .enumerate()
        .map(|(index, gate)| (gate.signal.as_ref(), GateId(index)))
        .collect();
    let resolve = |signal: &str| {
        ids.get(signal)
            .copied()
            .ok_or_else(|| NetlistError::UnknownSignal {
                name: signal.to_string(),
            })
    };
    let mut builder = CircuitBuilder::new(name);
    let mut fanin = Vec::new();
    for gate in gates {
        fanin.clear();
        for signal in &gate.fanin {
            fanin.push(resolve(signal)?);
        }
        builder.gate(gate.signal.as_ref(), gate.kind, &fanin);
    }
    for output in outputs {
        builder.mark_output(resolve(output.as_ref())?);
    }
    builder.finish()
}

/// The first name in `names` that an earlier name already used.
fn first_repeat(names: &[String]) -> Option<&str> {
    let mut seen = HashSet::with_capacity(names.len());
    names
        .iter()
        .map(String::as_str)
        .find(|name| !seen.insert(*name))
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
        // `a` is defined again too, but `b` repeats first.
        let mut b = CircuitBuilder::new("dup");
        let a = b.input("a");
        let first_b = b.gate("b", GateKind::Not, &[a]);
        let second_b = b.gate("b", GateKind::Buf, &[a]);
        let y = b.gate("a", GateKind::And, &[first_b, second_b]);
        b.mark_output(y);
        // A lookup finds the later definition, like a map filled in order.
        assert_eq!(b.find_signal("b"), Some(second_b));
        assert_eq!(
            b.finish(),
            Err(NetlistError::DuplicateSignal {
                name: "b".to_string()
            })
        );
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
    fn cycle_error_names_a_signal_on_the_cycle_not_one_downstream() {
        // z = AND(a, x) reads the cycle x = NOT(y), y = NOT(x) but is not on
        // it, and z is the lowest-id gate that never resolves.
        let mut b = CircuitBuilder::new("downstream");
        let a = b.input("a");
        let z = b.gate("z", GateKind::And, &[a, GateId(2)]);
        let _x = b.gate("x", GateKind::Not, &[GateId(3)]);
        let _y = b.gate("y", GateKind::Not, &[GateId(2)]);
        b.mark_output(z);
        let Err(NetlistError::CombinationalCycle { signal }) = b.finish() else {
            panic!("expected a combinational cycle");
        };
        assert!(signal == "x" || signal == "y", "named `{signal}`");
    }

    #[test]
    fn mark_output_is_idempotent() {
        // Repeated marks leave one output per gate, declared where it was
        // first marked.
        let mut b = CircuitBuilder::new("idem");
        let a = b.input("a");
        let x = b.gate("x", GateKind::Not, &[a]);
        let y = b.gate("y", GateKind::Buf, &[a]);
        let z = b.gate("z", GateKind::And, &[x, y]);
        for id in [z, x, z, y, x] {
            b.mark_output(id);
        }
        let circuit = b.finish().expect("valid");
        assert_eq!(circuit.primary_outputs(), &[z, x, y]);
        assert!(circuit.is_primary_output(x));
        assert!(!circuit.is_primary_output(a));
    }

    #[test]
    fn out_of_range_output_is_rejected_at_finish() {
        let mut b = CircuitBuilder::new("range");
        let a = b.input("a");
        let y = b.gate("y", GateKind::Not, &[a]);
        b.mark_output(y);
        b.mark_output(GateId(9));
        assert_eq!(
            b.finish(),
            Err(NetlistError::InvalidGateId {
                id: 9,
                gate_count: 2
            })
        );
    }

    #[test]
    fn find_signal_before_finish() {
        let mut b = CircuitBuilder::new("find");
        let a = b.input("a");
        assert_eq!(b.find_signal("a"), Some(a));
        assert_eq!(b.find_signal("b"), None);
        assert_eq!(b.gate_count(), 1);
        // Signals added after the first lookup are found too.
        let y = b.gate("b", GateKind::Not, &[a]);
        let q = b.dff_placeholder("q");
        assert_eq!(b.find_signal("b"), Some(y));
        assert_eq!(b.find_signal("q"), Some(q));
        assert_eq!(b.find_signal("a"), Some(a));
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

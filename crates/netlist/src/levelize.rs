//! Topological levelisation of combinational circuits.
//!
//! Every simulator and the ATPG engine process gates in topological order;
//! this module computes that order once, assigns each gate a level (the
//! length of the longest path from a primary input or constant), and detects
//! combinational cycles.

use crate::circuit::{Circuit, GateId};
use crate::error::NetlistError;

/// The result of levelising a circuit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Levelization {
    /// Gates in a valid topological order (drivers before loads).
    order: Vec<GateId>,
    /// Level of each gate, indexed by gate id.
    levels: Vec<usize>,
    /// The maximum level in the circuit (its logic depth).
    depth: usize,
}

impl Levelization {
    /// Gates in topological order.
    pub fn order(&self) -> &[GateId] {
        &self.order
    }

    /// Level of gate `id`: 0 for sources, otherwise 1 + max level of fanin.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range for the levelised circuit.
    pub fn level(&self, id: GateId) -> usize {
        self.levels[id.index()]
    }

    /// All levels indexed by gate id.
    pub fn levels(&self) -> &[usize] {
        &self.levels
    }

    /// The logic depth of the circuit (maximum level).
    pub fn depth(&self) -> usize {
        self.depth
    }
}

/// Computes a topological order and per-gate levels.
///
/// State elements ([`GateKind::Dff`](crate::gate::GateKind::Dff)) are
/// level-0 sources: their output is held state, so the D-pin edge is not an
/// ordering constraint and feedback loops through a flip-flop are legal.
/// Only cycles made entirely of combinational gates are rejected.
///
/// # Errors
///
/// Returns [`NetlistError::CombinationalCycle`] if the circuit graph contains
/// a combinational cycle; the reported signal lies on one such cycle.
pub fn levelize(circuit: &Circuit) -> Result<Levelization, NetlistError> {
    let gate_count = circuit.gate_count();
    // A DFF's fanin edge carries state across clock cycles, not a
    // combinational dependency: its pending count starts at zero and its
    // loads-of-driver edge is skipped below.
    let mut pending_fanin: Vec<usize> = circuit
        .gates()
        .iter()
        .map(|gate| {
            if gate.kind().is_state() {
                0
            } else {
                gate.fanin_count()
            }
        })
        .collect();
    let mut levels = vec![0usize; gate_count];
    let mut order = Vec::with_capacity(gate_count);
    let mut ready: Vec<GateId> = circuit
        .iter()
        .filter(|(_, gate)| gate.fanin_count() == 0 || gate.kind().is_state())
        .map(|(id, _)| id)
        .collect();
    // Kahn's algorithm; the ready list is processed as a stack which is fine
    // because levels are computed from fanin maxima, not from visit order.
    while let Some(id) = ready.pop() {
        order.push(id);
        let gate_level = levels[id.index()];
        for &load in circuit.fanout(id) {
            if circuit.gate(load).kind().is_state() {
                // The load is a DFF: it is already scheduled as a source.
                continue;
            }
            let load_index = load.index();
            levels[load_index] = levels[load_index].max(gate_level + 1);
            pending_fanin[load_index] -= 1;
            if pending_fanin[load_index] == 0 {
                ready.push(load);
            }
        }
    }
    if order.len() != gate_count {
        return Err(NetlistError::CombinationalCycle {
            signal: circuit
                .signal_name(on_cycle(circuit, &pending_fanin))
                .to_string(),
        });
    }
    let depth = levels.iter().copied().max().unwrap_or(0);
    Ok(Levelization {
        order,
        levels,
        depth,
    })
}

/// A gate on a combinational cycle, given the fanin counts Kahn's algorithm
/// left unresolved.
///
/// A gate that never became ready lies on a cycle or downstream of one.
/// Each such gate has a driver that never became ready either (sources and
/// flip-flops always do), so walking from driver to unresolved driver must
/// revisit a gate, and the first gate revisited lies on a cycle.
fn on_cycle(circuit: &Circuit, pending_fanin: &[usize]) -> GateId {
    let mut gate = (0..pending_fanin.len())
        .find(|&i| pending_fanin[i] > 0)
        .expect("a gate with unresolved fanin must exist");
    let mut visited = vec![false; pending_fanin.len()];
    while !std::mem::replace(&mut visited[gate], true) {
        gate = circuit
            .gate(GateId(gate))
            .fanin()
            .iter()
            .map(|driver| driver.index())
            .find(|&driver| pending_fanin[driver] > 0)
            .expect("an unresolved gate has an unresolved driver");
    }
    GateId(gate)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::CircuitBuilder;
    use crate::gate::GateKind;

    fn chain(length: usize) -> Circuit {
        let mut b = CircuitBuilder::new("chain");
        let mut prev = b.input("in");
        for i in 0..length {
            prev = b.gate(format!("n{i}"), GateKind::Not, &[prev]);
        }
        b.mark_output(prev);
        b.finish().expect("valid")
    }

    #[test]
    fn chain_depth_equals_length() {
        let c = chain(10);
        let lev = levelize(&c).expect("acyclic");
        assert_eq!(lev.depth(), 10);
        assert_eq!(lev.order().len(), c.gate_count());
    }

    #[test]
    fn drivers_come_before_loads() {
        let c = crate::library::c17();
        let lev = levelize(&c).expect("acyclic");
        let mut position = vec![0usize; c.gate_count()];
        for (pos, &id) in lev.order().iter().enumerate() {
            position[id.index()] = pos;
        }
        for (id, gate) in c.iter() {
            for &driver in gate.fanin() {
                assert!(
                    position[driver.index()] < position[id.index()],
                    "driver {driver} must precede {id}"
                );
            }
        }
    }

    #[test]
    fn levels_exceed_fanin_levels() {
        let c = crate::library::c17();
        let lev = levelize(&c).expect("acyclic");
        for (id, gate) in c.iter() {
            for &driver in gate.fanin() {
                assert!(lev.level(id) > lev.level(driver));
            }
        }
    }

    #[test]
    fn sources_are_level_zero() {
        let c = chain(3);
        let lev = levelize(&c).expect("acyclic");
        let input = c.primary_inputs()[0];
        assert_eq!(lev.level(input), 0);
    }

    #[test]
    fn dff_feedback_loop_is_legal_and_level_zero() {
        // A toggle flip-flop: q = DFF(NOT(q)).  The feedback loop passes
        // through the state element, so it is not a combinational cycle.
        let mut b = CircuitBuilder::new("toggle");
        let q = b.dff_placeholder("q");
        let nq = b.gate("nq", GateKind::Not, &[q]);
        b.bind_dff(q, nq);
        b.mark_output(q);
        let c = b.finish().expect("sequential loop is valid");
        let lev = levelize(&c).expect("dff loop must not be a cycle");
        assert_eq!(lev.level(q), 0);
        assert_eq!(lev.level(nq), 1);
        assert_eq!(lev.order().len(), c.gate_count());
    }

    #[test]
    fn combinational_cycle_is_still_rejected_alongside_dffs() {
        // a = AND(na, q); na = NOT(a): a pure combinational cycle plus a
        // flip-flop.  The cycle must still be reported.  Forward GateId
        // references are resolved at finish, like the builder's cycle test.
        let mut b = CircuitBuilder::new("bad");
        let q = b.dff("q", GateId(1)); // D reads `a`, defined next
        let a = b.gate("a", GateKind::And, &[GateId(2), q]);
        let _na = b.gate("na", GateKind::Not, &[a]);
        b.mark_output(a);
        let err = b.finish().expect_err("combinational cycle");
        assert_eq!(
            err,
            NetlistError::CombinationalCycle {
                signal: "a".to_string()
            }
        );
    }

    #[test]
    fn reconvergent_fanout_levels() {
        // a -> x -> z ; a -> z  (z = AND(x, a)); level(z) = 2.
        let mut b = CircuitBuilder::new("reconv");
        let a = b.input("a");
        let x = b.gate("x", GateKind::Not, &[a]);
        let z = b.gate("z", GateKind::And, &[x, a]);
        b.mark_output(z);
        let c = b.finish().expect("valid");
        let lev = levelize(&c).expect("acyclic");
        assert_eq!(lev.level(c.find_signal("z").expect("exists")), 2);
    }
}

//! PODEM (path-oriented decision making) combinational ATPG.
//!
//! Given a target stuck-at fault, PODEM searches over primary-input
//! assignments only, guided by a backtrace from the current objective to an
//! unassigned input.  It is used to top up random pattern sets to a requested
//! coverage, mirroring how a 1981 test engineer would add deterministic
//! patterns for the faults random vectors miss.

use lsiq_fault::model::{Fault, FaultSite};
use lsiq_netlist::circuit::{Circuit, GateId};
use lsiq_netlist::GateKind;
use lsiq_sim::eval::{controlling_value, eval_value3};
use lsiq_sim::levelized::CompiledCircuit;
use lsiq_sim::logic::Value3;
use lsiq_sim::pattern::Pattern;

/// The result of a PODEM run for one fault.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TestOutcome {
    /// A test pattern that detects the fault (unassigned inputs set to 0).
    Test(Pattern),
    /// The search space was exhausted: the fault is untestable (redundant).
    Untestable,
    /// The backtrack limit was reached before a conclusion.
    Aborted,
}

impl TestOutcome {
    /// Returns the test pattern if one was found.
    pub fn pattern(&self) -> Option<&Pattern> {
        match self {
            TestOutcome::Test(pattern) => Some(pattern),
            _ => None,
        }
    }
}

/// A PODEM test generator bound to one circuit.
#[derive(Debug)]
pub struct Podem<'c> {
    circuit: &'c Circuit,
    compiled: CompiledCircuit<'c>,
    max_backtracks: usize,
}

/// One entry of the PODEM decision stack.
#[derive(Debug, Clone, Copy)]
struct Decision {
    pi_position: usize,
    value: bool,
    alternative_tried: bool,
}

impl<'c> Podem<'c> {
    /// Creates a generator with the default backtrack limit (1000).
    pub fn new(circuit: &'c Circuit) -> Self {
        Podem {
            circuit,
            compiled: CompiledCircuit::new(circuit),
            max_backtracks: 1_000,
        }
    }

    /// Overrides the backtrack limit.
    pub fn with_max_backtracks(mut self, limit: usize) -> Self {
        self.max_backtracks = limit;
        self
    }

    /// Attempts to generate a test for `fault`.
    pub fn generate_test(&self, fault: &Fault) -> TestOutcome {
        let input_count = self.circuit.primary_inputs().len();
        let mut assignment = vec![Value3::Unknown; input_count];
        let mut decisions: Vec<Decision> = Vec::new();
        let mut backtracks = 0usize;

        loop {
            let (good, faulty) = self.simulate_pair(&assignment, fault);
            if self.is_detected(&good, &faulty) {
                let pattern =
                    Pattern::from_bits(assignment.iter().map(|v| v.to_bool().unwrap_or(false)));
                return TestOutcome::Test(pattern);
            }
            let must_backtrack = self.is_hopeless(fault, &good, &faulty);
            let next_objective = if must_backtrack {
                None
            } else {
                self.objective(fault, &good, &faulty)
            };
            match next_objective {
                Some((line, value)) => {
                    let (pi_position, pi_value) = self.backtrace(line, value, &good);
                    assignment[pi_position] = Value3::from_bool(pi_value);
                    decisions.push(Decision {
                        pi_position,
                        value: pi_value,
                        alternative_tried: false,
                    });
                }
                None => {
                    // Backtrack: flip the most recent decision whose
                    // alternative has not been tried.
                    backtracks += 1;
                    if backtracks > self.max_backtracks {
                        return TestOutcome::Aborted;
                    }
                    loop {
                        match decisions.pop() {
                            Some(decision) if !decision.alternative_tried => {
                                let flipped = !decision.value;
                                assignment[decision.pi_position] = Value3::from_bool(flipped);
                                decisions.push(Decision {
                                    pi_position: decision.pi_position,
                                    value: flipped,
                                    alternative_tried: true,
                                });
                                break;
                            }
                            Some(decision) => {
                                assignment[decision.pi_position] = Value3::Unknown;
                            }
                            None => return TestOutcome::Untestable,
                        }
                    }
                }
            }
        }
    }

    /// Three-valued good/faulty machine pair under a partial PI assignment.
    fn simulate_pair(&self, assignment: &[Value3], fault: &Fault) -> (Vec<Value3>, Vec<Value3>) {
        let good = self.compiled.node_values3(assignment);
        let circuit = self.circuit;
        let stuck = Value3::from_bool(fault.stuck.as_bool());
        let mut faulty = vec![Value3::Unknown; circuit.gate_count()];
        for (position, &input) in circuit.primary_inputs().iter().enumerate() {
            faulty[input.index()] = assignment.get(position).copied().unwrap_or(Value3::Unknown);
        }
        if let FaultSite::Output(gate) = fault.site {
            if circuit.gate(gate).kind() == GateKind::Input {
                faulty[gate.index()] = stuck;
            }
        }
        let mut fanin_values = Vec::new();
        for &id in self.compiled.order() {
            let gate = circuit.gate(id);
            if gate.kind() == GateKind::Input {
                continue;
            }
            fanin_values.clear();
            for (pin, &driver) in gate.fanin().iter().enumerate() {
                let mut value = faulty[driver.index()];
                if fault.site == (FaultSite::InputPin { gate: id, pin }) {
                    value = stuck;
                }
                fanin_values.push(value);
            }
            let mut output = eval_value3(gate.kind(), &fanin_values);
            if fault.site == FaultSite::Output(id) {
                output = stuck;
            }
            faulty[id.index()] = output;
        }
        (good, faulty)
    }

    /// A fault is detected when some primary output has known, differing
    /// values in the two machines.
    fn is_detected(&self, good: &[Value3], faulty: &[Value3]) -> bool {
        self.circuit.primary_outputs().iter().any(|&out| {
            let g = good[out.index()];
            let f = faulty[out.index()];
            g.is_known() && f.is_known() && g != f
        })
    }

    /// The line whose value excites the fault, and the value it must take.
    fn excitation_line(&self, fault: &Fault) -> (GateId, bool) {
        let line = match fault.site {
            FaultSite::Output(gate) => gate,
            FaultSite::InputPin { gate, pin } => self.circuit.gate(gate).fanin()[pin],
        };
        (line, !fault.stuck.as_bool())
    }

    /// The good/faulty value pair seen at a specific gate input pin, taking a
    /// pin fault's forced value into account.
    fn pin_values(
        &self,
        fault: &Fault,
        gate: GateId,
        pin: usize,
        driver: GateId,
        good: &[Value3],
        faulty: &[Value3],
    ) -> (Value3, Value3) {
        let good_value = good[driver.index()];
        let faulty_value = if fault.site == (FaultSite::InputPin { gate, pin }) {
            Value3::from_bool(fault.stuck.as_bool())
        } else {
            faulty[driver.index()]
        };
        (good_value, faulty_value)
    }

    /// Returns `true` when no completion of the current assignment can detect
    /// the fault: either the fault site is already locked at the stuck value,
    /// or the fault effect exists but the D-frontier is empty.
    fn is_hopeless(&self, fault: &Fault, good: &[Value3], faulty: &[Value3]) -> bool {
        let (line, needed) = self.excitation_line(fault);
        let line_value = good[line.index()];
        if line_value.is_known() && line_value != Value3::from_bool(needed) {
            return true;
        }
        // If the fault is excited, require a non-empty D-frontier or an
        // effect already visible at an output.
        if line_value == Value3::from_bool(needed) && !self.is_detected(good, faulty) {
            return self.d_frontier(fault, good, faulty).is_empty();
        }
        false
    }

    /// Gates whose output carries no fault effect yet but at least one input
    /// does (including the faulted pin itself once the fault is excited).
    fn d_frontier(&self, fault: &Fault, good: &[Value3], faulty: &[Value3]) -> Vec<GateId> {
        let mut frontier = Vec::new();
        for (id, gate) in self.circuit.iter() {
            if gate.kind() == GateKind::Input {
                continue;
            }
            let out_good = good[id.index()];
            let out_faulty = faulty[id.index()];
            let output_has_effect =
                out_good.is_known() && out_faulty.is_known() && out_good != out_faulty;
            if output_has_effect {
                continue;
            }
            if !out_good.is_known() || !out_faulty.is_known() {
                let any_input_effect = gate.fanin().iter().enumerate().any(|(pin, &driver)| {
                    let (g, f) = self.pin_values(fault, id, pin, driver, good, faulty);
                    g.is_known() && f.is_known() && g != f
                });
                if any_input_effect {
                    frontier.push(id);
                }
            }
        }
        frontier
    }

    /// The current objective `(line, value)`: excite the fault first, then
    /// push the effect through a D-frontier gate.
    fn objective(
        &self,
        fault: &Fault,
        good: &[Value3],
        faulty: &[Value3],
    ) -> Option<(GateId, bool)> {
        let (line, needed) = self.excitation_line(fault);
        if !good[line.index()].is_known() {
            return Some((line, needed));
        }
        let frontier = self.d_frontier(fault, good, faulty);
        for gate_id in frontier {
            let gate = self.circuit.gate(gate_id);
            let non_controlling = controlling_value(gate.kind()).map(|c| !c).unwrap_or(true);
            for &driver in gate.fanin() {
                if !good[driver.index()].is_known() {
                    return Some((driver, non_controlling));
                }
            }
        }
        None
    }

    /// Walks an objective back to an unassigned primary input, flipping the
    /// desired value through inverting gates.
    fn backtrace(&self, mut line: GateId, mut value: bool, good: &[Value3]) -> (usize, bool) {
        loop {
            let gate = self.circuit.gate(line);
            if gate.kind() == GateKind::Input {
                let position = self
                    .circuit
                    .primary_inputs()
                    .iter()
                    .position(|&pi| pi == line)
                    .expect("input gates are primary inputs");
                return (position, value);
            }
            if gate.kind().is_inverting() {
                value = !value;
            }
            // Prefer an unassigned fanin; constants have no fanin and cannot
            // be reached because their value is always known.
            let next = gate
                .fanin()
                .iter()
                .copied()
                .find(|driver| !good[driver.index()].is_known())
                .unwrap_or_else(|| gate.fanin()[0]);
            line = next;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsiq_fault::serial::SerialSimulator;
    use lsiq_fault::simulator::FaultSimulator;
    use lsiq_fault::universe::FaultUniverse;
    use lsiq_netlist::library;
    use lsiq_sim::pattern::PatternSet;

    /// Checks with the fault simulator that `pattern` really detects `fault`.
    fn verify_detection(circuit: &lsiq_netlist::Circuit, fault: &Fault, pattern: &Pattern) {
        let universe = FaultUniverse::from_faults(vec![*fault]);
        let patterns: PatternSet = [pattern.clone()].into_iter().collect();
        let list = SerialSimulator::new(circuit).run(&universe, &patterns);
        assert_eq!(
            list.detected_count(),
            1,
            "PODEM pattern {pattern} does not detect {}",
            fault.describe(circuit)
        );
    }

    #[test]
    fn finds_tests_for_every_c17_fault() {
        let circuit = library::c17();
        let podem = Podem::new(&circuit);
        let universe = FaultUniverse::full(&circuit);
        for fault in &universe {
            match podem.generate_test(fault) {
                TestOutcome::Test(pattern) => verify_detection(&circuit, fault, &pattern),
                other => panic!(
                    "{}: expected a test, got {other:?}",
                    fault.describe(&circuit)
                ),
            }
        }
    }

    #[test]
    fn finds_tests_for_full_adder_faults() {
        let circuit = library::full_adder();
        let podem = Podem::new(&circuit);
        let universe = FaultUniverse::full(&circuit);
        for fault in &universe {
            match podem.generate_test(fault) {
                TestOutcome::Test(pattern) => verify_detection(&circuit, fault, &pattern),
                other => panic!(
                    "{}: expected a test, got {other:?}",
                    fault.describe(&circuit)
                ),
            }
        }
    }

    #[test]
    fn generated_tests_for_alu_faults_are_valid() {
        // The ALU contains a few untestable faults (constant-fed carry-in);
        // every produced test must be correct and most faults must get one.
        let circuit = library::alu4();
        let podem = Podem::new(&circuit);
        let universe = FaultUniverse::full(&circuit);
        let mut tested = 0usize;
        let mut untestable = 0usize;
        for fault in &universe {
            match podem.generate_test(fault) {
                TestOutcome::Test(pattern) => {
                    verify_detection(&circuit, fault, &pattern);
                    tested += 1;
                }
                TestOutcome::Untestable => untestable += 1,
                TestOutcome::Aborted => {}
            }
        }
        assert!(
            tested as f64 / universe.len() as f64 > 0.9,
            "only {tested}/{} faults got tests",
            universe.len()
        );
        assert!(untestable < universe.len() / 10);
    }

    #[test]
    fn reports_untestable_for_redundant_fault() {
        // Build a circuit with an obviously redundant fault: y = OR(a, NOT(a))
        // is constant 1, so y stuck-at-1 cannot be detected.
        use lsiq_netlist::{CircuitBuilder, GateKind};
        let mut builder = CircuitBuilder::new("redundant");
        let a = builder.input("a");
        let not_a = builder.gate("na", GateKind::Not, &[a]);
        let y = builder.gate("y", GateKind::Or, &[a, not_a]);
        builder.mark_output(y);
        let circuit = builder.finish().expect("valid");
        let y = circuit.find_signal("y").expect("exists");
        let fault = Fault::output(y, lsiq_fault::model::StuckValue::One);
        let outcome = Podem::new(&circuit).generate_test(&fault);
        assert_eq!(outcome, TestOutcome::Untestable);
        assert_eq!(outcome.pattern(), None);
    }

    #[test]
    fn abort_limit_is_respected() {
        // With a backtrack limit of zero the search gives up quickly on a
        // fault that needs at least one backtrack-worthy decision sequence.
        let circuit = library::alu4();
        let podem = Podem::new(&circuit).with_max_backtracks(0);
        let universe = FaultUniverse::full(&circuit);
        // At least one fault should still be trivially testable without any
        // backtracking, and none may loop forever.
        let mut found = 0usize;
        for fault in universe.iter().take(40) {
            if let TestOutcome::Test(pattern) = podem.generate_test(fault) {
                verify_detection(&circuit, fault, &pattern);
                found += 1;
            }
        }
        assert!(found > 0);
    }
}

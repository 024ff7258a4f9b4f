//! Structural fault collapsing.
//!
//! Equivalence collapsing merges faults that no test can distinguish (for
//! example, any input of an AND gate stuck at 0 is indistinguishable from the
//! output stuck at 0).  Collapsing changes the size of the fault universe `N`
//! and therefore the numerical value of "fault coverage"; the paper's model
//! is agnostic to the choice as long as it is applied consistently.  No
//! engine collapses: each simulates every fault of the universe it is
//! handed, so a caller that wants coverage over the collapsed universe hands
//! over [`CollapseResult::collapsed`].

use crate::model::{Fault, StuckValue};
use crate::universe::{FaultUniverse, SiteTable};
use lsiq_netlist::circuit::Circuit;
use lsiq_netlist::GateKind;

/// The outcome of a collapsing pass.
#[derive(Debug, Clone)]
pub struct CollapseResult {
    /// The collapsed universe (one representative per equivalence class).
    pub collapsed: FaultUniverse,
    /// For every fault of the original universe, the index of its
    /// representative in `collapsed`.
    pub representative_of: Vec<usize>,
    /// Size of the original universe.
    pub original_len: usize,
}

impl CollapseResult {
    /// The collapse ratio `collapsed / original` (1.0 when nothing collapsed).
    pub fn ratio(&self) -> f64 {
        if self.original_len == 0 {
            1.0
        } else {
            self.collapsed.len() as f64 / self.original_len as f64
        }
    }
}

/// Simple union-find over fault indices.
struct UnionFind {
    parent: Vec<usize>,
}

impl UnionFind {
    fn new(len: usize) -> Self {
        UnionFind {
            parent: (0..len).collect(),
        }
    }

    fn find(&mut self, x: usize) -> usize {
        if self.parent[x] != x {
            let root = self.find(self.parent[x]);
            self.parent[x] = root;
        }
        self.parent[x]
    }

    fn union(&mut self, a: usize, b: usize) {
        let ra = self.find(a);
        let rb = self.find(b);
        if ra != rb {
            // Keep the smaller index as the class root for determinism.
            let (keep, drop) = if ra < rb { (ra, rb) } else { (rb, ra) };
            self.parent[drop] = keep;
        }
    }
}

/// Performs structural equivalence collapsing over the *full* fault universe
/// of `circuit`.
///
/// The rules applied are the classical gate-local equivalences:
///
/// * AND: every input SA0 ≡ output SA0 (NAND: ≡ output SA1),
/// * OR: every input SA1 ≡ output SA1 (NOR: ≡ output SA0),
/// * BUF: input SAx ≡ output SAx; NOT: input SAx ≡ output SA(1−x),
/// * a fanout-free connection makes a load's input-pin fault equivalent to
///   the driver's output fault of the same polarity.
pub fn collapse_equivalence(circuit: &Circuit) -> CollapseResult {
    let universe = FaultUniverse::full(circuit);
    let index_of = SiteTable::new(circuit, &universe);
    let mut union_find = UnionFind::new(universe.len());
    let merge = |a: Fault, b: Fault, uf: &mut UnionFind| {
        if let (Some(ia), Some(ib)) = (index_of.position(&a), index_of.position(&b)) {
            uf.union(ia as usize, ib as usize);
        }
    };

    for (id, gate) in circuit.iter() {
        // Wire equivalence across fanout-free connections.
        for (pin, &driver) in gate.fanin().iter().enumerate() {
            if !circuit.is_fanout_stem(driver) {
                for stuck in StuckValue::BOTH {
                    merge(
                        Fault::input_pin(id, pin, stuck),
                        Fault::output(driver, stuck),
                        &mut union_find,
                    );
                }
            }
        }
        // Gate-local equivalences.
        let (input_stuck, output_stuck) = match gate.kind() {
            GateKind::And => (StuckValue::Zero, StuckValue::Zero),
            GateKind::Nand => (StuckValue::Zero, StuckValue::One),
            GateKind::Or => (StuckValue::One, StuckValue::One),
            GateKind::Nor => (StuckValue::One, StuckValue::Zero),
            GateKind::Buf => {
                for stuck in StuckValue::BOTH {
                    merge(
                        Fault::input_pin(id, 0, stuck),
                        Fault::output(id, stuck),
                        &mut union_find,
                    );
                }
                continue;
            }
            GateKind::Not => {
                for stuck in StuckValue::BOTH {
                    merge(
                        Fault::input_pin(id, 0, stuck),
                        Fault::output(id, stuck.opposite()),
                        &mut union_find,
                    );
                }
                continue;
            }
            _ => continue,
        };
        for pin in 0..gate.fanin_count() {
            merge(
                Fault::input_pin(id, pin, input_stuck),
                Fault::output(id, output_stuck),
                &mut union_find,
            );
        }
    }

    // Gather representatives in original enumeration order.
    let mut representative_index: Vec<Option<usize>> = vec![None; universe.len()];
    let mut collapsed_faults = Vec::new();
    let mut representative_of = Vec::with_capacity(universe.len());
    for index in 0..universe.len() {
        let root = union_find.find(index);
        let entry = *representative_index[root].get_or_insert_with(|| {
            collapsed_faults.push(*universe.get(root).expect("root is in range"));
            collapsed_faults.len() - 1
        });
        representative_of.push(entry);
    }
    CollapseResult {
        collapsed: FaultUniverse::from_faults(collapsed_faults),
        representative_of,
        original_len: universe.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deductive::DeductiveSimulator;
    use crate::simulator::FaultSimulator;
    use lsiq_netlist::library;
    use lsiq_sim::pattern::{Pattern, PatternSet};

    #[test]
    fn equivalence_reduces_the_universe() {
        let circuit = library::c17();
        let result = collapse_equivalence(&circuit);
        assert!(result.collapsed.len() < result.original_len);
        assert!(result.ratio() < 1.0);
        // Every original fault maps to a member of the collapsed set.
        assert_eq!(result.representative_of.len(), result.original_len);
        for &rep in &result.representative_of {
            assert!(rep < result.collapsed.len());
        }
    }

    #[test]
    fn known_equivalence_class_in_c17() {
        // In c17, G10 = NAND(G1, G3): both input SA0 faults are equivalent to
        // the output SA1 fault.
        let circuit = library::c17();
        let result = collapse_equivalence(&circuit);
        let universe = FaultUniverse::full(&circuit);
        let g10 = circuit.find_signal("G10").expect("exists");
        let output_sa1 = universe
            .position(&Fault::output(g10, StuckValue::One))
            .expect("in universe");
        let pin0_sa0 = universe
            .position(&Fault::input_pin(g10, 0, StuckValue::Zero))
            .expect("in universe");
        let pin1_sa0 = universe
            .position(&Fault::input_pin(g10, 1, StuckValue::Zero))
            .expect("in universe");
        assert_eq!(
            result.representative_of[output_sa1],
            result.representative_of[pin0_sa0]
        );
        assert_eq!(
            result.representative_of[pin0_sa0],
            result.representative_of[pin1_sa0]
        );
    }

    #[test]
    fn collapsing_preserves_detectability_on_c17() {
        // Exhaustive patterns detect every fault of the full universe; they
        // must also detect every representative, and coverage of the
        // collapsed universe must be complete.
        let circuit = library::c17();
        let patterns: PatternSet = (0..32).map(|v| Pattern::from_integer(v, 5)).collect();
        let result = collapse_equivalence(&circuit);
        let sim = DeductiveSimulator::new(&circuit);
        let collapsed_list = sim.run(&result.collapsed, &patterns);
        assert_eq!(collapsed_list.detected_count(), result.collapsed.len());
    }

    #[test]
    fn structured_generators_collapse_without_losing_detection() {
        // For the regular structures (ripple-carry adder, mux tree, decoder)
        // the equivalence classes are known-shaped and exhaustive patterns
        // detect every fault: coverage of the collapsed universe must equal
        // coverage of the full universe (both 100 percent), and each full
        // fault's first detecting pattern must equal its representative's.
        use lsiq_netlist::generator;
        let circuits = [
            ("adder", generator::ripple_carry_adder(3)),
            ("mux", generator::mux_tree(2)),
            ("decoder", generator::decoder(3)),
        ];
        for (name, circuit) in &circuits {
            let width = circuit.primary_inputs().len();
            assert!(width <= 10, "{name}: exhaustive sweep stays cheap");
            let patterns: PatternSet = (0..1u64 << width)
                .map(|value| Pattern::from_integer(value, width))
                .collect();
            let full = FaultUniverse::full(circuit);
            let equivalence = collapse_equivalence(circuit);
            assert!(equivalence.ratio() < 1.0, "{name}: nothing collapsed");
            let sim = DeductiveSimulator::new(circuit);
            let full_list = sim.run(&full, &patterns);
            let collapsed_list = sim.run(&equivalence.collapsed, &patterns);
            assert_eq!(
                full_list.coverage(),
                1.0,
                "{name}: exhaustive patterns must detect the full universe"
            );
            assert_eq!(
                collapsed_list.coverage(),
                full_list.coverage(),
                "{name}: collapsed-universe coverage differs from full-universe coverage"
            );
            for (index, &representative) in equivalence.representative_of.iter().enumerate() {
                assert_eq!(
                    full_list.state(index).first_pattern(),
                    collapsed_list.state(representative).first_pattern(),
                    "{name}: fault {} detected at a different pattern than its representative",
                    full.get(index).expect("valid").describe(circuit)
                );
            }
        }
    }

    #[test]
    fn structured_generators_collapse_classes_survive_sparse_patterns() {
        // The first-detection agreement must hold for *any* pattern set, not
        // just exhaustive ones: equivalent faults are indistinguishable.
        use lsiq_netlist::generator;
        use lsiq_stats::rng::{Rng, Xoshiro256StarStar};
        let circuits = [
            ("adder", generator::ripple_carry_adder(4)),
            ("mux", generator::mux_tree(3)),
            ("decoder", generator::decoder(4)),
        ];
        for (name, circuit) in &circuits {
            let width = circuit.primary_inputs().len();
            let mut rng = Xoshiro256StarStar::seed_from_u64(7 + width as u64);
            let patterns: PatternSet = (0..12)
                .map(|_| Pattern::from_bits((0..width).map(|_| rng.next_bool(0.5))))
                .collect();
            let full = FaultUniverse::full(circuit);
            let equivalence = collapse_equivalence(circuit);
            let sim = DeductiveSimulator::new(circuit);
            let full_list = sim.run(&full, &patterns);
            let collapsed_list = sim.run(&equivalence.collapsed, &patterns);
            for (index, &representative) in equivalence.representative_of.iter().enumerate() {
                assert_eq!(
                    full_list.state(index).first_pattern(),
                    collapsed_list.state(representative).first_pattern(),
                    "{name}: fault {} disagrees with its class under sparse patterns",
                    full.get(index).expect("valid").describe(circuit)
                );
            }
        }
    }

    #[test]
    fn equivalent_faults_have_identical_detecting_patterns() {
        // For every equivalence class of c17, all members must be detected by
        // exactly the same exhaustive patterns.
        let circuit = library::c17();
        let compiled = lsiq_sim::levelized::CompiledCircuit::new(&circuit);
        let universe = FaultUniverse::full(&circuit);
        let result = collapse_equivalence(&circuit);
        // Detecting-pattern signature per fault.
        let mut signatures: Vec<u32> = Vec::with_capacity(universe.len());
        for fault in &universe {
            let mut signature = 0u32;
            for value in 0u64..32 {
                let pattern = Pattern::from_integer(value, 5);
                let good = compiled.outputs(&pattern);
                let faulty = crate::inject::outputs_with_fault(&compiled, pattern.bits(), fault);
                if good != faulty {
                    signature |= 1 << value;
                }
            }
            signatures.push(signature);
        }
        for class in 0..result.collapsed.len() {
            let members: Vec<usize> = result
                .representative_of
                .iter()
                .enumerate()
                .filter(|(_, r)| **r == class)
                .map(|(i, _)| i)
                .collect();
            let first = signatures[members[0]];
            for &member in &members[1..] {
                assert_eq!(
                    signatures[member],
                    first,
                    "fault {} differs from its class representative",
                    universe.get(member).expect("valid").describe(&circuit)
                );
            }
        }
    }
}

//! Deductive fault simulation.
//!
//! For every applied pattern the simulator computes, in one topological pass,
//! the *fault list* of each signal: the set of single stuck-at faults whose
//! presence would complement that signal's value under this pattern.  Faults
//! appearing in the list of any primary output are detected by the pattern.
//! The algorithm simulates all faults of a pattern simultaneously and is an
//! independent oracle the incremental engine is cross-checked against: it
//! shares nothing with fanout-cone propagation.
//!
//! # List representation
//!
//! Signal fault lists are sorted, duplicate-free `u32` index lists stored in
//! a bump arena ([`ListArena`]); union, intersection, subtraction and the
//! XOR parity rule are linear merges over sorted slices.  Handles into the
//! arena are freely shared, so a buffer's output list aliases its input list
//! and a fanout branch without an own active fault aliases its stem — no
//! bytes are copied for either.  The arena (and every other buffer of the
//! pass) is reset and reused across patterns, so after the first pattern the
//! engine allocates nothing.  This replaces a `HashSet<usize>` per gate per
//! pattern and is roughly an order of magnitude faster.
//!
//! # Collapsed-universe simulation
//!
//! By default the engine partitions the requested fault universe into
//! structural equivalence classes
//! ([`collapse_equivalence`](crate::collapse::collapse_equivalence)) and
//! propagates
//! one representative per class; the detection of the representative is then
//! credited to every member.  Equivalent faults are detected by exactly the
//! same patterns, so the reported [`FaultList`] is identical to a
//! full-universe run — the collapsed pass just carries ~60 percent fewer
//! list entries.  Disable with
//! [`with_collapsing(false)`](DeductiveSimulator::with_collapsing).

use crate::classes::{simulation_classes, CollapseContext, SimulationClasses};
use crate::list::{FaultList, ListArena, ListRef};
use crate::model::{Fault, StuckValue};
use crate::simulator::FaultSimulator;
use crate::telemetry;
use crate::universe::{FaultUniverse, SiteTable};
use lsiq_netlist::circuit::{Circuit, GateId};
use lsiq_netlist::GateKind;
use lsiq_obs::Span;
use lsiq_sim::eval::controlling_value;
use lsiq_sim::levelized::CompiledCircuit;
use lsiq_sim::packed::PackedBlock;
use lsiq_sim::pattern::PatternSet;

static GOOD_MACHINE: Span = Span::new("engine.deductive.good_machine");
static PROPAGATE: Span = Span::new("engine.deductive.propagate");

/// A deductive fault simulator.
#[derive(Debug)]
pub struct DeductiveSimulator<'c> {
    compiled: CompiledCircuit<'c>,
    drop_detected: bool,
    collapse: bool,
    /// Lazily built on the first collapsing run and reused afterwards, so
    /// disabling collapsing never pays for it and suite builders that call
    /// [`run`](FaultSimulator::run) repeatedly pay for it once.
    context: std::cell::OnceCell<CollapseContext>,
}

impl<'c> DeductiveSimulator<'c> {
    /// Prepares a deductive fault simulator for `circuit` with fault dropping
    /// and equivalence collapsing enabled.
    pub fn new(circuit: &'c Circuit) -> Self {
        DeductiveSimulator {
            compiled: CompiledCircuit::new(circuit),
            drop_detected: true,
            collapse: true,
            context: std::cell::OnceCell::new(),
        }
    }

    /// Controls fault dropping (see
    /// [`SerialSimulator::with_fault_dropping`](crate::serial::SerialSimulator::with_fault_dropping)).
    ///
    /// The deductive algorithm computes every pattern's full detection set in
    /// one pass regardless, so the flag only controls whether faults already
    /// detected are excluded from later passes; the reported first detections
    /// are identical either way.
    pub fn with_fault_dropping(mut self, enabled: bool) -> Self {
        self.drop_detected = enabled;
        self
    }

    /// Controls equivalence collapsing (enabled by default).
    ///
    /// When enabled, only one representative per structural equivalence class
    /// of the requested universe is propagated and its detections are copied
    /// to the whole class.  The results are identical either way (enforced by
    /// `tests/engine_differential.rs`); disabling is useful to benchmark the
    /// raw propagation or to sidestep the per-run collapsing pass on tiny
    /// circuits.
    pub fn with_collapsing(mut self, enabled: bool) -> Self {
        self.collapse = enabled;
        self
    }

    /// Partitions the universe's fault indices into groups that provably
    /// share their set of detecting patterns (see
    /// [`classes::simulation_classes`](simulation_classes)).
    fn simulation_classes(&self, universe: &FaultUniverse) -> SimulationClasses {
        simulation_classes(
            self.compiled.circuit(),
            &self.context,
            self.collapse,
            universe,
        )
    }
}

impl FaultSimulator for DeductiveSimulator<'_> {
    fn name(&self) -> &'static str {
        "deductive"
    }

    fn run(&self, universe: &FaultUniverse, patterns: &PatternSet) -> FaultList {
        let mut list = FaultList::new(universe);
        if universe.is_empty() || patterns.is_empty() {
            return list;
        }
        let classes = self.simulation_classes(universe);
        telemetry::RUNS.incr();
        telemetry::FAULTS.add(classes.count() as u64);
        let mut drops = 0u64;
        let mut pass = Propagation::new(&self.compiled, universe, &classes);
        let circuit = self.compiled.circuit();
        let input_count = circuit.primary_inputs().len();
        // Good-machine values are computed one single-word chunk (64
        // patterns) at a time and unpacked per pattern; the chunk, value
        // and detection buffers are all reused across chunks.
        let mut words: Vec<PackedBlock<1>> = Vec::new();
        let mut values: Vec<bool> = vec![false; circuit.gate_count()];
        let mut detected: Vec<u32> = Vec::new();
        for chunk in 0..patterns.chunk_count(1) {
            let (input_words, pattern_count) = patterns.pack_chunk::<1>(input_count, chunk);
            telemetry::GOOD_EVALS.incr();
            {
                let _timer = GOOD_MACHINE.start();
                self.compiled.node_chunks_into(&input_words, &mut words);
            }
            let _timer = PROPAGATE.start();
            for slot in 0..pattern_count {
                for (value, word) in values.iter_mut().zip(words.iter()) {
                    *value = word.bit(slot);
                }
                let pattern_index = chunk * PackedBlock::<1>::PATTERNS + slot;
                pass.detect_pattern(&values, &mut detected);
                for &class in &detected {
                    for &member in classes.members_of(class) {
                        list.mark_detected(member as usize, pattern_index);
                    }
                    if self.drop_detected {
                        pass.deactivate(class);
                        drops += 1;
                    }
                }
            }
        }
        telemetry::DROPS.add(drops);
        list
    }
}

/// The [`StuckValue::index`] slot of the stuck value that *opposes* (and
/// therefore complements) a line at `good` value.
fn opposing_slot(good: bool) -> usize {
    if good {
        StuckValue::Zero.index()
    } else {
        StuckValue::One.index()
    }
}

/// The reusable state of one deductive run: per-site fault-class tables, the
/// list arena, and the per-gate list handles.  Everything here is allocated
/// once per [`DeductiveSimulator::run`] and reused for every pattern.
struct Propagation<'a, 'c> {
    compiled: &'a CompiledCircuit<'c>,
    /// Class index of each site's stuck faults: a [`SiteTable`] over the
    /// one-representative-per-class universe, so a site's position *is* its
    /// class.
    sites: SiteTable,
    /// Classes still being simulated (fault dropping clears entries).
    active: Vec<bool>,
    arena: ListArena,
    /// Current fault list of every gate, indexed by gate id.
    refs: Vec<ListRef>,
    /// Scratch: the effective list seen at each pin of the current gate.
    pin_refs: Vec<ListRef>,
}

impl<'a, 'c> Propagation<'a, 'c> {
    fn new(
        compiled: &'a CompiledCircuit<'c>,
        universe: &FaultUniverse,
        classes: &SimulationClasses,
    ) -> Self {
        let circuit = compiled.circuit();
        let representatives: Vec<Fault> = (0..classes.count() as u32)
            .map(|class| {
                *universe
                    .get(classes.representative(class) as usize)
                    .expect("class member in range")
            })
            .collect();
        Propagation {
            compiled,
            sites: SiteTable::new(circuit, &FaultUniverse::from_faults(representatives)),
            active: vec![true; classes.count()],
            arena: ListArena::new(),
            refs: vec![ListRef::EMPTY; circuit.gate_count()],
            pin_refs: Vec::new(),
        }
    }

    /// Stops propagating a detected class (fault dropping).
    fn deactivate(&mut self, class: u32) {
        self.active[class as usize] = false;
    }

    /// Propagates fault lists for one pattern (whose good-machine `values`
    /// are indexed by gate id) and writes the detected class indices (sorted,
    /// duplicate-free) into `detected`.
    fn detect_pattern(&mut self, values: &[bool], detected: &mut Vec<u32>) {
        let compiled = self.compiled;
        let circuit = compiled.circuit();
        self.arena.reset();
        for &id in compiled.order() {
            let gate_index = id.index();
            let kind = circuit.gate(id).kind();
            let mut own = if kind == GateKind::Input {
                ListRef::EMPTY
            } else {
                self.propagate_gate(id, values)
            };
            // The gate's own output stuck fault complements the output when
            // its stuck value opposes the good value.  An output fault of the
            // agreeing polarity masks every upstream effect, but it is a
            // different single fault from those in the list, so under the
            // single-fault assumption nothing needs to be removed.
            if let Some(class) =
                self.sites.output_positions(gate_index)[opposing_slot(values[gate_index])]
            {
                if self.active[class as usize] {
                    own = self.arena.insert(own, class);
                }
            }
            self.refs[gate_index] = own;
        }
        let mut union = ListRef::EMPTY;
        for &out in circuit.primary_outputs() {
            union = self.arena.union(union, self.refs[out.index()]);
        }
        detected.clear();
        detected.extend_from_slice(self.arena.slice(union));
    }

    /// Applies the deductive propagation rule of one non-input gate.
    fn propagate_gate(&mut self, id: GateId, values: &[bool]) -> ListRef {
        let circuit = self.compiled.circuit();
        let gate = circuit.gate(id);
        let gate_index = id.index();
        // Effective fault list seen at each pin: the driver's list plus the
        // pin's own stuck fault when it opposes the value.  Without an active
        // pin fault the handle aliases the driver's list — no copy.
        self.pin_refs.clear();
        for (pin, &driver) in gate.fanin().iter().enumerate() {
            let mut seen = self.refs[driver.index()];
            if let Some(class) =
                self.sites.pin_positions(gate_index, pin)[opposing_slot(values[driver.index()])]
            {
                if self.active[class as usize] {
                    seen = self.arena.insert(seen, class);
                }
            }
            self.pin_refs.push(seen);
        }
        match gate.kind() {
            GateKind::Buf | GateKind::Not => self.pin_refs[0],
            GateKind::And | GateKind::Nand | GateKind::Or | GateKind::Nor => {
                let control =
                    controlling_value(gate.kind()).expect("AND/OR family has a controlling value");
                let any_controlling = gate
                    .fanin()
                    .iter()
                    .any(|&driver| values[driver.index()] == control);
                if !any_controlling {
                    // No input at the controlling value: any single flip
                    // flips the output.
                    let mut acc = ListRef::EMPTY;
                    for &pin_list in &self.pin_refs {
                        acc = self.arena.union(acc, pin_list);
                    }
                    acc
                } else {
                    // The output flips only if every controlling input flips
                    // and no non-controlling input flips.
                    let mut acc: Option<ListRef> = None;
                    for (pin, &driver) in gate.fanin().iter().enumerate() {
                        if values[driver.index()] == control {
                            let pin_list = self.pin_refs[pin];
                            acc = Some(match acc {
                                None => pin_list,
                                Some(so_far) => self.arena.intersect(so_far, pin_list),
                            });
                        }
                    }
                    let mut acc = acc.expect("at least one controlling pin");
                    for (pin, &driver) in gate.fanin().iter().enumerate() {
                        if acc.is_empty() {
                            break;
                        }
                        if values[driver.index()] != control {
                            acc = self.arena.subtract(acc, self.pin_refs[pin]);
                        }
                    }
                    acc
                }
            }
            GateKind::Xor | GateKind::Xnor => {
                // The output flips when an odd number of inputs flip.
                let mut acc = ListRef::EMPTY;
                for &pin_list in &self.pin_refs {
                    acc = self.arena.symmetric_difference(acc, pin_list);
                }
                acc
            }
            // A DFF output is held state within one time frame: no fault
            // propagates through it combinationally (sequential circuits are
            // fault-simulated on their scan-expanded views, where flip-flops
            // have already been replaced by pseudo-primary inputs).
            GateKind::Input | GateKind::Dff | GateKind::Const0 | GateKind::Const1 => ListRef::EMPTY,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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

    fn assert_identical(a: &FaultList, b: &FaultList, circuit: &Circuit, universe: &FaultUniverse) {
        for index in 0..universe.len() {
            assert_eq!(
                a.state(index).first_pattern(),
                b.state(index).first_pattern(),
                "fault {}",
                universe.get(index).expect("valid").describe(circuit)
            );
        }
    }

    #[test]
    fn matches_serial_simulator_on_c17_exhaustive() {
        let circuit = library::c17();
        let universe = FaultUniverse::full(&circuit);
        let patterns: PatternSet = (0..32).map(|v| Pattern::from_integer(v, 5)).collect();
        let serial = SerialSimulator::new(&circuit).run(&universe, &patterns);
        let deductive = DeductiveSimulator::new(&circuit).run(&universe, &patterns);
        assert_identical(&serial, &deductive, &circuit, &universe);
    }

    #[test]
    fn matches_serial_simulator_on_xor_heavy_logic() {
        // The full adder exercises the XOR parity rule.
        let circuit = library::full_adder();
        let universe = FaultUniverse::full(&circuit);
        let patterns: PatternSet = (0..8).map(|v| Pattern::from_integer(v, 3)).collect();
        let serial = SerialSimulator::new(&circuit).run(&universe, &patterns);
        let deductive = DeductiveSimulator::new(&circuit).run(&universe, &patterns);
        assert_identical(&serial, &deductive, &circuit, &universe);
    }

    #[test]
    fn matches_serial_on_random_logic() {
        let circuit = random_circuit(&RandomCircuitConfig {
            inputs: 10,
            gates: 80,
            seed: 17,
            ..RandomCircuitConfig::default()
        });
        let universe = FaultUniverse::full(&circuit);
        let patterns = random_patterns(10, 40, 3);
        let serial = SerialSimulator::new(&circuit).run(&universe, &patterns);
        let deductive = DeductiveSimulator::new(&circuit).run(&universe, &patterns);
        assert_identical(&serial, &deductive, &circuit, &universe);
    }

    #[test]
    fn collapsing_does_not_change_results() {
        let circuit = random_circuit(&RandomCircuitConfig {
            inputs: 9,
            gates: 70,
            seed: 41,
            ..RandomCircuitConfig::default()
        });
        let universe = FaultUniverse::full(&circuit);
        let patterns = random_patterns(9, 50, 13);
        let collapsed = DeductiveSimulator::new(&circuit).run(&universe, &patterns);
        let uncollapsed = DeductiveSimulator::new(&circuit)
            .with_collapsing(false)
            .run(&universe, &patterns);
        assert_eq!(collapsed, uncollapsed);
    }

    #[test]
    fn collapsing_handles_the_checkpoint_universe() {
        // The checkpoint universe is a strict subset of the full universe;
        // its classes must still simulate and expand correctly.
        let circuit = random_circuit(&RandomCircuitConfig {
            inputs: 8,
            gates: 60,
            seed: 5,
            ..RandomCircuitConfig::default()
        });
        let universe = FaultUniverse::checkpoint(&circuit);
        let patterns = random_patterns(8, 48, 23);
        let serial = SerialSimulator::new(&circuit).run(&universe, &patterns);
        let deductive = DeductiveSimulator::new(&circuit).run(&universe, &patterns);
        assert_identical(&serial, &deductive, &circuit, &universe);
    }

    #[test]
    fn detects_nothing_without_patterns() {
        let circuit = library::c17();
        let universe = FaultUniverse::full(&circuit);
        let list = DeductiveSimulator::new(&circuit).run(&universe, &PatternSet::new());
        assert_eq!(list.detected_count(), 0);
    }
}

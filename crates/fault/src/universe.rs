//! Enumeration of the single stuck-at fault universe.

use crate::model::{Fault, StuckValue};
use lsiq_netlist::circuit::Circuit;
use lsiq_netlist::{Gate, GateKind};

/// The complete set of candidate faults of a circuit.
///
/// The paper's coverage fraction `f = m / N` is defined against a fixed fault
/// universe of size `N`; this type is that universe.  Two standard choices
/// are offered:
///
/// * [`FaultUniverse::full`] — both stuck values on every gate output stem
///   and on every gate input pin (the "uncollapsed" universe), and
/// * [`FaultUniverse::checkpoint`] — both stuck values on every checkpoint
///   (primary inputs and fanout branches only), the classical reduced set
///   that still guarantees complete coverage of the full universe for
///   fanout-free reconvergence-free regions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultUniverse {
    faults: Vec<Fault>,
}

impl FaultUniverse {
    /// Builds the uncollapsed fault universe: stuck-at-0 and stuck-at-1 on
    /// every stem (gate or primary-input output) and on every gate input pin.
    pub fn full(circuit: &Circuit) -> FaultUniverse {
        let has_stem_faults =
            |gate: &Gate| !matches!(gate.kind(), GateKind::Const0 | GateKind::Const1);
        let sites: usize = circuit
            .gates()
            .iter()
            .map(|gate| usize::from(has_stem_faults(gate)) + gate.fanin_count())
            .sum();
        let mut faults = Vec::with_capacity(2 * sites);
        for (id, gate) in circuit.iter() {
            if has_stem_faults(gate) {
                for stuck in StuckValue::BOTH {
                    faults.push(Fault::output(id, stuck));
                }
            }
            for pin in 0..gate.fanin_count() {
                for stuck in StuckValue::BOTH {
                    faults.push(Fault::input_pin(id, pin, stuck));
                }
            }
        }
        debug_assert_eq!(faults.len(), 2 * sites);
        FaultUniverse { faults }
    }

    /// Builds the checkpoint fault universe: stuck faults on primary inputs
    /// and on fanout branches (input pins whose driver fans out to more than
    /// one place).
    pub fn checkpoint(circuit: &Circuit) -> FaultUniverse {
        let mut faults = Vec::new();
        for &input in circuit.primary_inputs() {
            for stuck in StuckValue::BOTH {
                faults.push(Fault::output(input, stuck));
            }
        }
        for (id, gate) in circuit.iter() {
            for (pin, &driver) in gate.fanin().iter().enumerate() {
                if circuit.is_fanout_stem(driver) {
                    for stuck in StuckValue::BOTH {
                        faults.push(Fault::input_pin(id, pin, stuck));
                    }
                }
            }
        }
        FaultUniverse { faults }
    }

    /// Builds a universe from an explicit fault list (used by the collapsing
    /// pass and by tests).
    pub fn from_faults(faults: Vec<Fault>) -> FaultUniverse {
        FaultUniverse { faults }
    }

    /// Number of faults `N` in the universe.
    pub fn len(&self) -> usize {
        self.faults.len()
    }

    /// Returns `true` if the universe is empty.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// The faults in enumeration order.
    pub fn faults(&self) -> &[Fault] {
        &self.faults
    }

    /// The fault at position `index`.
    pub fn get(&self, index: usize) -> Option<&Fault> {
        self.faults.get(index)
    }

    /// Iterates over the faults.
    pub fn iter(&self) -> std::slice::Iter<'_, Fault> {
        self.faults.iter()
    }

    /// The position of `fault` in this universe, if present.
    ///
    /// This is a linear scan.
    pub fn position(&self, fault: &Fault) -> Option<usize> {
        self.faults.iter().position(|f| f == fault)
    }
}

/// An O(1) fault → universe-position lookup table, indexed by fault site.
///
/// The collapsing pass and the deductive simulator resolve every fault of a
/// circuit once per run; a hash map over [`Fault`] keys is measurably slower
/// than this flat per-site layout (one slot pair per gate output stem and one
/// per input pin, addressed through a prefix-sum offset table).
#[derive(Debug, Clone)]
pub(crate) struct SiteTable {
    /// Position of each gate's output-stem faults, `[gate][stuck]`.
    output: Vec<[Option<u32>; 2]>,
    /// Start of each gate's pin slots in `pin` (prefix sums of fanin counts).
    pin_offset: Vec<u32>,
    /// Position of each input-pin fault, flattened, `[pin][stuck]`.
    pin: Vec<[Option<u32>; 2]>,
}

impl SiteTable {
    /// Indexes `universe` (which must refer to gates of `circuit`) by site.
    ///
    /// A fault the universe lists more than once keeps its first position.
    /// Faults of the universe that point outside the circuit are skipped;
    /// [`position`](SiteTable::position) reports `None` for them.
    pub(crate) fn new(circuit: &Circuit, universe: &FaultUniverse) -> SiteTable {
        let mut pin_offset = Vec::with_capacity(circuit.gate_count() + 1);
        let mut total = 0u32;
        pin_offset.push(0);
        for (_, gate) in circuit.iter() {
            total += gate.fanin_count() as u32;
            pin_offset.push(total);
        }
        let mut table = SiteTable {
            output: vec![[None; 2]; circuit.gate_count()],
            pin_offset,
            pin: vec![[None; 2]; total as usize],
        };
        for (index, fault) in universe.iter().enumerate() {
            let index = u32::try_from(index).expect("fault universe exceeds u32 index space");
            if let Some(slot) = table.slot_mut(fault) {
                slot.get_or_insert(index);
            }
        }
        table
    }

    fn slot_mut(&mut self, fault: &Fault) -> Option<&mut Option<u32>> {
        let slot = fault.stuck.index();
        match fault.site {
            crate::model::FaultSite::Output(gate) => self
                .output
                .get_mut(gate.index())
                .map(|pair| &mut pair[slot]),
            crate::model::FaultSite::InputPin { gate, pin } => {
                let start = *self.pin_offset.get(gate.index())? as usize;
                let end = *self.pin_offset.get(gate.index() + 1)? as usize;
                if pin >= end - start {
                    return None;
                }
                Some(&mut self.pin[start + pin][slot])
            }
        }
    }

    /// The universe position of `fault`, if present.
    pub(crate) fn position(&self, fault: &Fault) -> Option<u32> {
        let slot = fault.stuck.index();
        match fault.site {
            crate::model::FaultSite::Output(gate) => self.output.get(gate.index())?[slot],
            crate::model::FaultSite::InputPin { gate, pin } => {
                let start = *self.pin_offset.get(gate.index())? as usize;
                let end = *self.pin_offset.get(gate.index() + 1)? as usize;
                if pin >= end - start {
                    return None;
                }
                self.pin[start + pin][slot]
            }
        }
    }

    /// The positions of both stuck faults (indexed by
    /// [`StuckValue::index`]) on the output stem of the gate with index
    /// `gate` — a hot-path accessor that skips [`Fault`] construction.
    ///
    /// # Panics
    ///
    /// Panics if `gate` is out of range for the indexed circuit.
    pub(crate) fn output_positions(&self, gate: usize) -> [Option<u32>; 2] {
        self.output[gate]
    }

    /// The positions of both stuck faults on input pin `pin` of the gate
    /// with index `gate`.
    ///
    /// # Panics
    ///
    /// Panics if `gate` is out of range; `pin` must be a valid pin of that
    /// gate (checked in debug builds).
    pub(crate) fn pin_positions(&self, gate: usize, pin: usize) -> [Option<u32>; 2] {
        let start = self.pin_offset[gate] as usize;
        debug_assert!(pin < (self.pin_offset[gate + 1] as usize - start));
        self.pin[start + pin]
    }
}

impl<'a> IntoIterator for &'a FaultUniverse {
    type Item = &'a Fault;
    type IntoIter = std::slice::Iter<'a, Fault>;

    fn into_iter(self) -> Self::IntoIter {
        self.faults.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsiq_netlist::library;

    #[test]
    fn full_universe_matches_structural_count() {
        // Two stuck values on each of c17's 11 stems and 12 input pins.
        let circuit = library::c17();
        let universe = FaultUniverse::full(&circuit);
        let pins: usize = circuit.iter().map(|(_, gate)| gate.fanin_count()).sum();
        assert_eq!(universe.len(), 2 * (circuit.gate_count() + pins));
        assert_eq!(universe.len(), 46);
    }

    #[test]
    fn full_universe_has_no_duplicates() {
        let circuit = library::alu4();
        let universe = FaultUniverse::full(&circuit);
        let mut unique: Vec<Fault> = universe.faults().to_vec();
        unique.sort();
        unique.dedup();
        assert_eq!(unique.len(), universe.len());
    }

    #[test]
    fn checkpoint_universe_is_smaller() {
        let circuit = library::c17();
        let full = FaultUniverse::full(&circuit);
        let checkpoint = FaultUniverse::checkpoint(&circuit);
        assert!(checkpoint.len() < full.len());
        // c17 checkpoints: 5 primary inputs + fanout branches of G3, G11, G16
        // (each fans out to 2 loads) = 5*2 + 6*2 = 22 faults.
        assert_eq!(checkpoint.len(), 22);
    }

    #[test]
    fn constants_contribute_no_output_faults() {
        let circuit = lsiq_netlist::generator::ripple_carry_adder(2);
        // The generated adder instantiates a constant-zero carry-in only when
        // built as a block without carry; the standalone adder has `cin`, so
        // build one with a constant through the multiplier instead.
        let mul = lsiq_netlist::generator::array_multiplier(2);
        let universe = FaultUniverse::full(&mul);
        for fault in &universe {
            if let crate::model::FaultSite::Output(gate) = fault.site {
                let kind = mul.gate(gate).kind();
                assert_ne!(kind, lsiq_netlist::GateKind::Const0);
                assert_ne!(kind, lsiq_netlist::GateKind::Const1);
            }
        }
        // And the plain adder's universe is simply non-empty and consistent.
        assert!(!FaultUniverse::full(&circuit).is_empty());
    }

    #[test]
    fn site_table_matches_linear_position() {
        let circuit = library::alu4();
        let full = FaultUniverse::full(&circuit);
        let checkpoint = FaultUniverse::checkpoint(&circuit);
        for (universe, table) in [
            (&full, SiteTable::new(&circuit, &full)),
            (&checkpoint, SiteTable::new(&circuit, &checkpoint)),
        ] {
            for (index, fault) in universe.iter().enumerate() {
                assert_eq!(table.position(fault), Some(index as u32));
            }
        }
        // A fault absent from the (checkpoint) universe resolves to None.
        let table = SiteTable::new(&circuit, &checkpoint);
        for fault in &full {
            assert_eq!(
                table.position(fault).map(|i| i as usize),
                checkpoint.position(fault)
            );
        }
    }

    #[test]
    fn accessors_and_lookup() {
        let circuit = library::half_adder();
        let universe = FaultUniverse::full(&circuit);
        let first = universe.get(0).copied().expect("non-empty");
        assert_eq!(universe.position(&first), Some(0));
        assert_eq!(universe.iter().count(), universe.len());
        let rebuilt = FaultUniverse::from_faults(universe.faults().to_vec());
        assert_eq!(rebuilt, universe);
    }
}

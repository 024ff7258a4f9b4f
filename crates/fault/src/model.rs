//! The single stuck-at fault model.

use lsiq_netlist::circuit::{Circuit, GateId};
use std::fmt;

/// The value a faulty line is stuck at.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum StuckValue {
    /// Stuck-at-0.
    Zero,
    /// Stuck-at-1.
    One,
}

impl StuckValue {
    /// The boolean the line is forced to.
    pub fn as_bool(self) -> bool {
        self == StuckValue::One
    }

    /// The opposite stuck value.
    pub fn opposite(self) -> StuckValue {
        match self {
            StuckValue::Zero => StuckValue::One,
            StuckValue::One => StuckValue::Zero,
        }
    }

    /// A dense `0`/`1` index for per-site lookup tables.
    pub fn index(self) -> usize {
        match self {
            StuckValue::Zero => 0,
            StuckValue::One => 1,
        }
    }

    /// Both stuck values.
    pub const BOTH: [StuckValue; 2] = [StuckValue::Zero, StuckValue::One];
}

impl fmt::Display for StuckValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StuckValue::Zero => write!(f, "SA0"),
            StuckValue::One => write!(f, "SA1"),
        }
    }
}

/// Where a stuck-at fault sits.
///
/// Output faults sit on the stem a gate drives; input-pin faults sit on one
/// fanout branch, i.e. on the wire as seen by a single load gate.  The
/// distinction matters exactly when a stem fans out: a branch fault does not
/// affect the other branches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum FaultSite {
    /// The output (stem) of a gate or primary input.
    Output(GateId),
    /// Input pin `pin` of gate `gate`.
    InputPin {
        /// The gate whose input pin is faulty.
        gate: GateId,
        /// The pin position within that gate's fanin list.
        pin: usize,
    },
}

impl FaultSite {
    /// The gate whose evaluation the fault directly affects: the faulty gate
    /// itself for output faults, the loading gate for pin faults.
    pub fn affected_gate(self) -> GateId {
        match self {
            FaultSite::Output(gate) => gate,
            FaultSite::InputPin { gate, .. } => gate,
        }
    }
}

/// A single stuck-at fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Fault {
    /// Where the fault sits.
    pub site: FaultSite,
    /// The value the line is stuck at.
    pub stuck: StuckValue,
}

impl Fault {
    /// A stuck-at fault on a gate's output stem.
    pub fn output(gate: GateId, stuck: StuckValue) -> Fault {
        Fault {
            site: FaultSite::Output(gate),
            stuck,
        }
    }

    /// A stuck-at fault on an input pin.
    pub fn input_pin(gate: GateId, pin: usize, stuck: StuckValue) -> Fault {
        Fault {
            site: FaultSite::InputPin { gate, pin },
            stuck,
        }
    }

    /// Renders the fault with circuit signal names, e.g. `G16/SA0` or
    /// `G22.in1/SA1`.
    pub fn describe(&self, circuit: &Circuit) -> String {
        match self.site {
            FaultSite::Output(gate) => {
                format!("{}/{}", circuit.signal_name(gate), self.stuck)
            }
            FaultSite::InputPin { gate, pin } => {
                format!("{}.in{}/{}", circuit.signal_name(gate), pin, self.stuck)
            }
        }
    }
}

impl fmt::Display for Fault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.site {
            FaultSite::Output(gate) => write!(f, "{gate}/{}", self.stuck),
            FaultSite::InputPin { gate, pin } => write!(f, "{gate}.in{pin}/{}", self.stuck),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsiq_netlist::library;

    #[test]
    fn stuck_value_conversions() {
        assert!(!StuckValue::Zero.as_bool());
        assert!(StuckValue::One.as_bool());
        assert_eq!(StuckValue::Zero.opposite(), StuckValue::One);
        assert_eq!(StuckValue::BOTH.len(), 2);
    }

    #[test]
    fn fault_constructors_and_display() {
        let output_fault = Fault::output(GateId(3), StuckValue::Zero);
        assert_eq!(output_fault.to_string(), "g3/SA0");
        let pin_fault = Fault::input_pin(GateId(5), 1, StuckValue::One);
        assert_eq!(pin_fault.to_string(), "g5.in1/SA1");
        assert_eq!(pin_fault.site.affected_gate(), GateId(5));
    }

    #[test]
    fn describe_uses_signal_names() {
        let circuit = library::c17();
        let g16 = circuit.find_signal("G16").expect("exists");
        let fault = Fault::output(g16, StuckValue::One);
        assert_eq!(fault.describe(&circuit), "G16/SA1");
        let pin_fault = Fault::input_pin(g16, 0, StuckValue::Zero);
        assert_eq!(pin_fault.describe(&circuit), "G16.in0/SA0");
    }

    #[test]
    fn faults_are_ordered_and_hashable() {
        use std::collections::BTreeSet;
        let mut set = BTreeSet::new();
        set.insert(Fault::output(GateId(1), StuckValue::Zero));
        set.insert(Fault::output(GateId(1), StuckValue::Zero));
        set.insert(Fault::output(GateId(1), StuckValue::One));
        assert_eq!(set.len(), 2);
    }
}

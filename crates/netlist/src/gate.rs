//! Gate kinds and gate records.

use crate::circuit::GateId;
use std::fmt;

/// The kind of a gate in a netlist.
///
/// `Input` marks a primary input; `Dff` marks a D flip-flop (the only state
/// element); the remaining kinds are ordinary logic primitives.  Multi-input
/// XOR/XNOR follow the parity convention (output is the odd/even parity of
/// the inputs), matching the ISCAS benchmark usage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum GateKind {
    /// A primary input (no fanin).
    Input,
    /// A D flip-flop: one fanin (the D pin), output is the stored state Q.
    ///
    /// Combinational evaluation treats a DFF like a primary input held at
    /// its current state (reset state 0); the clock is implicit.  Scan
    /// insertion ([`scan`](crate::scan)) replaces DFFs with scan cells so
    /// the fault-simulation engines only ever see the time-frame-expanded
    /// combinational core.
    Dff,
    /// Non-inverting buffer (one input).
    Buf,
    /// Inverter (one input).
    Not,
    /// Logical AND of all inputs.
    And,
    /// Logical NAND of all inputs.
    Nand,
    /// Logical OR of all inputs.
    Or,
    /// Logical NOR of all inputs.
    Nor,
    /// Odd parity of all inputs.
    Xor,
    /// Even parity of all inputs.
    Xnor,
    /// Constant logic 0 (no fanin).
    Const0,
    /// Constant logic 1 (no fanin).
    Const1,
}

impl GateKind {
    /// Returns the canonical upper-case name used by the `.bench` format.
    pub fn name(self) -> &'static str {
        match self {
            GateKind::Input => "INPUT",
            GateKind::Dff => "DFF",
            GateKind::Buf => "BUF",
            GateKind::Not => "NOT",
            GateKind::And => "AND",
            GateKind::Nand => "NAND",
            GateKind::Or => "OR",
            GateKind::Nor => "NOR",
            GateKind::Xor => "XOR",
            GateKind::Xnor => "XNOR",
            GateKind::Const0 => "CONST0",
            GateKind::Const1 => "CONST1",
        }
    }

    /// Parses a `.bench` gate-function name (case-insensitive).
    pub fn parse(token: &str) -> Option<GateKind> {
        match token.to_ascii_uppercase().as_str() {
            "INPUT" => Some(GateKind::Input),
            "DFF" => Some(GateKind::Dff),
            "BUF" | "BUFF" => Some(GateKind::Buf),
            "NOT" | "INV" => Some(GateKind::Not),
            "AND" => Some(GateKind::And),
            "NAND" => Some(GateKind::Nand),
            "OR" => Some(GateKind::Or),
            "NOR" => Some(GateKind::Nor),
            "XOR" => Some(GateKind::Xor),
            "XNOR" => Some(GateKind::Xnor),
            "CONST0" | "GND" => Some(GateKind::Const0),
            "CONST1" | "VDD" => Some(GateKind::Const1),
            _ => None,
        }
    }

    /// Returns `true` if this kind is a state element (a DFF): its output is
    /// held state, not a combinational function of its fanin, so levelisation
    /// treats it as a level-0 source and simulation as an externally supplied
    /// value.
    pub fn is_state(self) -> bool {
        self == GateKind::Dff
    }

    /// Returns `true` if the gate output is the inversion of the
    /// corresponding non-inverting function (NOT, NAND, NOR, XNOR).
    pub fn is_inverting(self) -> bool {
        matches!(
            self,
            GateKind::Not | GateKind::Nand | GateKind::Nor | GateKind::Xnor
        )
    }

    /// Valid fanin range `(min, max)` for the kind; `usize::MAX` means
    /// unbounded.
    pub fn fanin_bounds(self) -> (usize, usize) {
        match self {
            GateKind::Input | GateKind::Const0 | GateKind::Const1 => (0, 0),
            GateKind::Buf | GateKind::Not | GateKind::Dff => (1, 1),
            GateKind::And
            | GateKind::Nand
            | GateKind::Or
            | GateKind::Nor
            | GateKind::Xor
            | GateKind::Xnor => (1, usize::MAX),
        }
    }

    /// Checks whether `fanin` inputs is legal for this kind.
    pub fn accepts_fanin(self, fanin: usize) -> bool {
        let (lo, hi) = self.fanin_bounds();
        fanin >= lo && fanin <= hi
    }

    /// Estimated CMOS transistor count for a gate of this kind with `fanin`
    /// inputs, using standard static-CMOS primitive costs.
    ///
    /// The estimate is used to size generated circuits against the paper's
    /// "about 25 000 transistors" description; absolute accuracy is not
    /// required, only a consistent scale.
    pub fn transistor_count(self, fanin: usize) -> usize {
        match self {
            GateKind::Input | GateKind::Const0 | GateKind::Const1 => 0,
            GateKind::Not => 2,
            GateKind::Buf => 4,
            GateKind::Nand | GateKind::Nor => 2 * fanin.max(1),
            GateKind::And | GateKind::Or => 2 * fanin.max(1) + 2,
            // A standard static-CMOS edge-triggered D flip-flop (two latch
            // stages plus local clock inverters).
            GateKind::Dff => 24,
            // A two-input XOR/XNOR is typically 10-12 transistors; a tree of
            // (fanin - 1) two-input stages gives the multi-input cost.
            GateKind::Xor | GateKind::Xnor => 10 * fanin.max(2).saturating_sub(1),
        }
    }
}

impl fmt::Display for GateKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One gate instance: its kind and the gates that drive its inputs.
///
/// The gate's own index in the circuit is its output signal; fanout is
/// maintained by [`Circuit`](crate::circuit::Circuit).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Gate {
    kind: GateKind,
    fanin: Vec<GateId>,
}

impl Gate {
    /// Creates a gate record.  Fanin arity is validated by the circuit
    /// builder, not here.
    pub fn new(kind: GateKind, fanin: Vec<GateId>) -> Self {
        Gate { kind, fanin }
    }

    /// The gate's kind.
    pub fn kind(&self) -> GateKind {
        self.kind
    }

    /// The gates driving this gate's inputs, in pin order.
    pub fn fanin(&self) -> &[GateId] {
        &self.fanin
    }

    /// Number of input pins.
    pub fn fanin_count(&self) -> usize {
        self.fanin.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip_through_parse() {
        for kind in [
            GateKind::Input,
            GateKind::Buf,
            GateKind::Not,
            GateKind::And,
            GateKind::Nand,
            GateKind::Or,
            GateKind::Nor,
            GateKind::Xor,
            GateKind::Xnor,
            GateKind::Const0,
            GateKind::Const1,
            GateKind::Dff,
        ] {
            assert_eq!(GateKind::parse(kind.name()), Some(kind));
        }
    }

    #[test]
    fn parse_accepts_aliases_and_any_case() {
        assert_eq!(GateKind::parse("buff"), Some(GateKind::Buf));
        assert_eq!(GateKind::parse("inv"), Some(GateKind::Not));
        assert_eq!(GateKind::parse("nand"), Some(GateKind::Nand));
        assert_eq!(GateKind::parse("gnd"), Some(GateKind::Const0));
        assert_eq!(GateKind::parse("vdd"), Some(GateKind::Const1));
        assert_eq!(GateKind::parse("dff"), Some(GateKind::Dff));
        assert_eq!(GateKind::parse("bogus"), None);
    }

    #[test]
    fn fanin_bounds_enforced() {
        assert!(GateKind::Input.accepts_fanin(0));
        assert!(!GateKind::Input.accepts_fanin(1));
        assert!(GateKind::Not.accepts_fanin(1));
        assert!(!GateKind::Not.accepts_fanin(2));
        assert!(GateKind::Nand.accepts_fanin(1));
        assert!(GateKind::Nand.accepts_fanin(9));
        assert!(!GateKind::Nand.accepts_fanin(0));
    }

    #[test]
    fn inverting_classification() {
        assert!(GateKind::Nand.is_inverting());
        assert!(GateKind::Nor.is_inverting());
        assert!(GateKind::Not.is_inverting());
        assert!(GateKind::Xnor.is_inverting());
        assert!(!GateKind::And.is_inverting());
        assert!(!GateKind::Xor.is_inverting());
    }

    #[test]
    fn state_classification() {
        assert!(GateKind::Dff.is_state());
        assert!(!GateKind::Input.is_state());
        assert!(!GateKind::Buf.is_state());
        assert!(GateKind::Dff.accepts_fanin(1));
        assert!(!GateKind::Dff.accepts_fanin(0));
        assert!(!GateKind::Dff.accepts_fanin(2));
        assert_eq!(GateKind::Dff.transistor_count(1), 24);
    }

    #[test]
    fn transistor_estimates_scale_with_fanin() {
        assert_eq!(GateKind::Not.transistor_count(1), 2);
        assert_eq!(GateKind::Nand.transistor_count(2), 4);
        assert_eq!(GateKind::Nand.transistor_count(4), 8);
        assert_eq!(GateKind::And.transistor_count(2), 6);
        assert_eq!(GateKind::Xor.transistor_count(2), 10);
        assert_eq!(GateKind::Xor.transistor_count(3), 20);
        assert_eq!(GateKind::Input.transistor_count(0), 0);
    }

    #[test]
    fn gate_accessors() {
        let gate = Gate::new(GateKind::Nand, vec![GateId(0), GateId(1)]);
        assert_eq!(gate.kind(), GateKind::Nand);
        assert_eq!(gate.fanin_count(), 2);
        assert_eq!(gate.fanin()[1], GateId(1));
    }

    #[test]
    fn display_matches_name() {
        assert_eq!(GateKind::Xnor.to_string(), "XNOR");
    }
}

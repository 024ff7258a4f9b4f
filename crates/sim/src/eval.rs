//! Gate-function evaluation over scalar, three-valued and packed operands.

use crate::logic::Value3;
use crate::packed::PackedBlock;
use lsiq_netlist::GateKind;

/// Evaluates a gate over two-valued scalar inputs.
///
/// Source kinds ([`GateKind::Input`], constants) take no inputs; `Input`
/// evaluates to `false` here because its value is supplied externally by the
/// simulator, never computed.  A [`GateKind::Dff`] holds state, not a
/// combinational function: one evaluation step reads it at its reset state
/// (0).  Sequential devices are tested through scan
/// (`lsiq_netlist::scan`), whose expanded test view replaces every
/// flip-flop with a pseudo-primary input before simulation.
pub fn eval_bool(kind: GateKind, inputs: &[bool]) -> bool {
    match kind {
        GateKind::Input => false,
        GateKind::Dff => false,
        GateKind::Const0 => false,
        GateKind::Const1 => true,
        GateKind::Buf => inputs[0],
        GateKind::Not => !inputs[0],
        GateKind::And => inputs.iter().all(|&v| v),
        GateKind::Nand => !inputs.iter().all(|&v| v),
        GateKind::Or => inputs.iter().any(|&v| v),
        GateKind::Nor => !inputs.iter().any(|&v| v),
        GateKind::Xor => inputs.iter().filter(|&&v| v).count() % 2 == 1,
        GateKind::Xnor => inputs.iter().filter(|&&v| v).count() % 2 == 0,
    }
}

/// Evaluates a gate over three-valued inputs.
pub fn eval_value3(kind: GateKind, inputs: &[Value3]) -> Value3 {
    match kind {
        GateKind::Input => Value3::Unknown,
        GateKind::Dff => Value3::Unknown,
        GateKind::Const0 => Value3::Zero,
        GateKind::Const1 => Value3::One,
        GateKind::Buf => inputs[0],
        GateKind::Not => inputs[0].not(),
        GateKind::And => inputs.iter().copied().fold(Value3::One, Value3::and),
        GateKind::Nand => inputs.iter().copied().fold(Value3::One, Value3::and).not(),
        GateKind::Or => inputs.iter().copied().fold(Value3::Zero, Value3::or),
        GateKind::Nor => inputs.iter().copied().fold(Value3::Zero, Value3::or).not(),
        GateKind::Xor => inputs.iter().copied().fold(Value3::Zero, Value3::xor),
        GateKind::Xnor => inputs.iter().copied().fold(Value3::Zero, Value3::xor).not(),
    }
}

/// Evaluates a gate over lane-wide packed chunks (`64 × L` patterns per
/// operand; see [`PackedBlock`]), its operands in pin order.
///
/// Lane `l` of the result depends only on lane `l` of every input, and bit
/// `i` of a lane only on bit `i` of every input lane: each pattern slot is
/// [`eval_bool`] on that slot's operands.  The operands are read one at a
/// time, so a simulator evaluates a gate straight from its fanin table
/// without copying the operands out first.  Monomorphized over `L` so the
/// folds compile to straight-line vectorizable loops.
///
/// # Panics
///
/// Panics if a BUF or NOT gets no operand.
#[inline]
pub fn eval_chunk<const L: usize>(
    kind: GateKind,
    inputs: impl IntoIterator<Item = PackedBlock<L>>,
) -> PackedBlock<L> {
    let mut inputs = inputs.into_iter();
    let mut first = || inputs.next().expect("BUF and NOT take one input");
    match kind {
        GateKind::Input => PackedBlock::ZERO,
        GateKind::Dff => PackedBlock::ZERO,
        GateKind::Const0 => PackedBlock::ZERO,
        GateKind::Const1 => PackedBlock::ONES,
        GateKind::Buf => first(),
        GateKind::Not => !first(),
        GateKind::And => inputs.fold(PackedBlock::ONES, |acc, v| acc & v),
        GateKind::Nand => !inputs.fold(PackedBlock::ONES, |acc, v| acc & v),
        GateKind::Or => inputs.fold(PackedBlock::ZERO, |acc, v| acc | v),
        GateKind::Nor => !inputs.fold(PackedBlock::ZERO, |acc, v| acc | v),
        GateKind::Xor => inputs.fold(PackedBlock::ZERO, |acc, v| acc ^ v),
        GateKind::Xnor => !inputs.fold(PackedBlock::ZERO, |acc, v| acc ^ v),
    }
}

/// The value a gate's output takes when input `pin` is the controlling value
/// for the gate, or `None` if the kind has no controlling value (XOR family,
/// buffers).  Used by the PODEM backtrace heuristics.
pub fn controlling_value(kind: GateKind) -> Option<bool> {
    match kind {
        GateKind::And | GateKind::Nand => Some(false),
        GateKind::Or | GateKind::Nor => Some(true),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TWO_INPUT_KINDS: [GateKind; 6] = [
        GateKind::And,
        GateKind::Nand,
        GateKind::Or,
        GateKind::Nor,
        GateKind::Xor,
        GateKind::Xnor,
    ];

    #[test]
    fn two_input_truth_tables() {
        let cases: [(GateKind, [bool; 4]); 6] = [
            (GateKind::And, [false, false, false, true]),
            (GateKind::Nand, [true, true, true, false]),
            (GateKind::Or, [false, true, true, true]),
            (GateKind::Nor, [true, false, false, false]),
            (GateKind::Xor, [false, true, true, false]),
            (GateKind::Xnor, [true, false, false, true]),
        ];
        for (kind, expected) in cases {
            for (index, &want) in expected.iter().enumerate() {
                let a = index & 1 == 1;
                let b = index & 2 == 2;
                assert_eq!(eval_bool(kind, &[a, b]), want, "{kind} {a} {b}");
            }
        }
    }

    #[test]
    fn unary_and_source_kinds() {
        assert!(eval_bool(GateKind::Buf, &[true]));
        assert!(!eval_bool(GateKind::Not, &[true]));
        assert!(eval_bool(GateKind::Const1, &[]));
        assert!(!eval_bool(GateKind::Const0, &[]));
        assert!(!eval_bool(GateKind::Input, &[]));
    }

    #[test]
    fn multi_input_xor_is_parity() {
        assert!(eval_bool(GateKind::Xor, &[true, true, true]));
        assert!(!eval_bool(GateKind::Xor, &[true, true, true, true]));
        assert!(!eval_bool(GateKind::Xnor, &[true, false, false]));
    }

    #[test]
    fn value3_matches_bool_on_known_inputs() {
        for kind in TWO_INPUT_KINDS {
            for a in [false, true] {
                for b in [false, true] {
                    let v = eval_value3(kind, &[Value3::from_bool(a), Value3::from_bool(b)]);
                    assert_eq!(v.to_bool(), Some(eval_bool(kind, &[a, b])), "{kind}");
                }
            }
        }
    }

    #[test]
    fn value3_unknown_handling() {
        // A controlling value decides the output even with an X present.
        assert_eq!(
            eval_value3(GateKind::And, &[Value3::Zero, Value3::Unknown]),
            Value3::Zero
        );
        assert_eq!(
            eval_value3(GateKind::Nor, &[Value3::One, Value3::Unknown]),
            Value3::Zero
        );
        // Without a controlling value the output is unknown.
        assert_eq!(
            eval_value3(GateKind::And, &[Value3::One, Value3::Unknown]),
            Value3::Unknown
        );
        assert_eq!(
            eval_value3(GateKind::Xor, &[Value3::One, Value3::Unknown]),
            Value3::Unknown
        );
        assert_eq!(eval_value3(GateKind::Input, &[]), Value3::Unknown);
        assert_eq!(eval_value3(GateKind::Const0, &[]), Value3::Zero);
    }

    #[test]
    fn controlling_values() {
        assert_eq!(controlling_value(GateKind::And), Some(false));
        assert_eq!(controlling_value(GateKind::Nand), Some(false));
        assert_eq!(controlling_value(GateKind::Or), Some(true));
        assert_eq!(controlling_value(GateKind::Nor), Some(true));
        assert_eq!(controlling_value(GateKind::Xor), None);
        assert_eq!(controlling_value(GateKind::Buf), None);
    }
}

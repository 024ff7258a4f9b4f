//! Parameterised circuit generators.
//!
//! Two styles are provided:
//!
//! * standalone constructors (`ripple_carry_adder`, `array_multiplier`, …)
//!   that return a complete [`Circuit`](crate::circuit::Circuit) with fresh
//!   primary inputs, used by tests and small experiments, and
//! * `*_block` functions that instantiate the same structure inside an
//!   existing [`CircuitBuilder`], used by
//!   [`library::lsi_class`](crate::library::lsi_class) to compose a chip-
//!   sized netlist out of many functional blocks, the way the paper's
//!   25 000-transistor LSI circuit would have been assembled.

mod adder;
mod alu;
mod comparator;
mod decoder;
mod multiplier;
mod mux;
mod parity;
mod random;
mod sequential;

pub use adder::{ripple_carry_adder, ripple_carry_adder_block};
pub use alu::{alu, alu_block, AluWidth};
pub use comparator::{comparator, comparator_block};
pub use decoder::{decoder, decoder_block};
pub use multiplier::{array_multiplier, array_multiplier_block};
pub use mux::{mux_tree, mux_tree_block};
pub use parity::{parity_tree, parity_tree_block};
pub(crate) use random::random_block;
pub use random::{random_circuit, RandomCircuitConfig};
pub use sequential::{
    binary_counter, binary_counter_block, pipelined_datapath, sequence_detector,
    sequence_detector_block,
};

use crate::builder::CircuitBuilder;
use crate::circuit::GateId;

/// Creates `count` fresh primary inputs named `prefix0..prefixN`.
pub(crate) fn fresh_inputs(
    builder: &mut CircuitBuilder,
    prefix: &str,
    count: usize,
) -> Vec<GateId> {
    (0..count)
        .map(|i| builder.input(format!("{prefix}{i}")))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::CircuitBuilder;

    #[test]
    fn fresh_inputs_are_named_sequentially() {
        let mut b = CircuitBuilder::new("t");
        let ins = fresh_inputs(&mut b, "a", 3);
        assert_eq!(ins.len(), 3);
        assert_eq!(b.find_signal("a0"), Some(ins[0]));
        assert_eq!(b.find_signal("a2"), Some(ins[2]));
    }
}

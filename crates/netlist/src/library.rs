//! Embedded example circuits.
//!
//! Includes the classic ISCAS-85 `c17` netlist, a handful of small arithmetic
//! blocks used throughout the test suites, and [`lsi_class`], a composite
//! circuit sized to roughly 25 000 transistor equivalents that stands in for
//! the Bell Labs LSI chip of the paper's Section 7 experiment.

use crate::bench_format;
use crate::builder::CircuitBuilder;
use crate::circuit::{Circuit, GateId};
use crate::generator::{alu, ripple_carry_adder};
use crate::generator::{
    alu_block, array_multiplier_block, comparator_block, decoder_block, mux_tree_block,
    parity_tree_block, random_block, ripple_carry_adder_block, AluWidth, RandomCircuitConfig,
};

/// The ISCAS-85 `c17` benchmark: 5 inputs, 2 outputs, 6 NAND gates.
///
/// Small enough for exhaustive truth-table checks, which makes it the
/// reference circuit for validating the simulators and fault machinery.
pub fn c17() -> Circuit {
    const TEXT: &str = "\
# c17 (ISCAS-85)
INPUT(G1)
INPUT(G2)
INPUT(G3)
INPUT(G6)
INPUT(G7)
OUTPUT(G22)
OUTPUT(G23)
G10 = NAND(G1, G3)
G11 = NAND(G3, G6)
G16 = NAND(G2, G11)
G19 = NAND(G11, G7)
G22 = NAND(G10, G16)
G23 = NAND(G16, G19)
";
    bench_format::parse("c17", TEXT).expect("embedded c17 netlist is valid")
}

/// A half adder (2 inputs, sum and carry outputs).
pub fn half_adder() -> Circuit {
    const TEXT: &str = "\
INPUT(a)
INPUT(b)
OUTPUT(sum)
OUTPUT(carry)
sum = XOR(a, b)
carry = AND(a, b)
";
    bench_format::parse("half_adder", TEXT).expect("embedded half adder is valid")
}

/// A full adder (3 inputs, sum and carry outputs).
pub fn full_adder() -> Circuit {
    const TEXT: &str = "\
INPUT(a)
INPUT(b)
INPUT(cin)
OUTPUT(sum)
OUTPUT(cout)
axb = XOR(a, b)
sum = XOR(axb, cin)
ab = AND(a, b)
axbc = AND(axb, cin)
cout = OR(ab, axbc)
";
    bench_format::parse("full_adder", TEXT).expect("embedded full adder is valid")
}

/// A 4-bit ripple-carry adder.
pub fn adder4() -> Circuit {
    ripple_carry_adder(4)
}

/// A 4-bit four-function ALU.
pub fn alu4() -> Circuit {
    alu(AluWidth(4))
}

/// Configuration of the LSI-class composite circuit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LsiClassConfig {
    /// Target transistor-equivalent count; generation stops once the
    /// estimate reaches this value.
    pub target_transistors: usize,
    /// Seed controlling the random-logic portions.
    pub seed: u64,
}

impl Default for LsiClassConfig {
    fn default() -> Self {
        // The paper's Section 7 chip "contains about 25,000 transistors".
        LsiClassConfig {
            target_transistors: 25_000,
            seed: 1981,
        }
    }
}

/// Builds an LSI-class composite circuit of datapath blocks, decode/control
/// logic and random logic, sized by transistor estimate.
///
/// The circuit is purely combinational (the paper's analysis operates on the
/// combinational stuck-at universe) and deterministic for a given
/// configuration.
pub fn lsi_class(config: LsiClassConfig) -> Circuit {
    lsi_class_impl(config, false)
}

/// Builds the sequential variant of [`lsi_class`]: the same composite of
/// datapath, decode and random-logic blocks, but with every bus and control
/// input held in a D flip-flop, the way an LSI chip of the era latched its
/// pads into an internal register file.
///
/// The 40 input registers (two 16-bit buses plus 8 control bits) are the
/// state that [`scan::insert_scan`](crate::scan::insert_scan) stitches into
/// chains for the full-scan BIST experiments.
pub fn sequential_lsi_class(config: LsiClassConfig) -> Circuit {
    lsi_class_impl(config, true)
}

fn lsi_class_impl(config: LsiClassConfig, registered_inputs: bool) -> Circuit {
    let variant = if registered_inputs { "seq_" } else { "" };
    let mut builder = CircuitBuilder::new(format!(
        "lsi_class_{variant}{}t_{}",
        config.target_transistors, config.seed
    ));
    // A shared bus of primary inputs that the blocks draw operands from,
    // mimicking an internal data bus.  In the sequential variant each bus
    // and control line is registered before use.
    let latch = |builder: &mut CircuitBuilder, pin: GateId, name: String| {
        if registered_inputs {
            builder.dff(name, pin)
        } else {
            pin
        }
    };
    let bus_width = 16usize;
    let bus_a: Vec<_> = (0..bus_width)
        .map(|i| {
            let pin = builder.input(format!("busa{i}"));
            latch(&mut builder, pin, format!("rbusa{i}"))
        })
        .collect();
    let bus_b: Vec<_> = (0..bus_width)
        .map(|i| {
            let pin = builder.input(format!("busb{i}"));
            latch(&mut builder, pin, format!("rbusb{i}"))
        })
        .collect();
    let control: Vec<_> = (0..8)
        .map(|i| {
            let pin = builder.input(format!("ctl{i}"));
            latch(&mut builder, pin, format!("rctl{i}"))
        })
        .collect();

    let mut block_index = 0usize;
    let mut estimate = 0usize;
    // Rotate through block kinds until the transistor budget is met.
    while estimate < config.target_transistors {
        let prefix = format!("b{block_index}");
        let before = builder.gate_count();
        match block_index % 6 {
            0 => {
                let (sums, carry) = ripple_carry_adder_block(
                    &mut builder,
                    &bus_a,
                    &bus_b,
                    Some(control[0]),
                    &prefix,
                );
                for s in sums {
                    builder.mark_output(s);
                }
                builder.mark_output(carry);
            }
            1 => {
                let product =
                    array_multiplier_block(&mut builder, &bus_a[..8], &bus_b[..8], &prefix);
                for p in product {
                    builder.mark_output(p);
                }
            }
            2 => {
                let (result, carry) = alu_block(
                    &mut builder,
                    &bus_a[..8],
                    &bus_b[..8],
                    &control[..2],
                    &prefix,
                );
                for r in result {
                    builder.mark_output(r);
                }
                builder.mark_output(carry);
            }
            3 => {
                let decoded = decoder_block(&mut builder, &control[..5], &prefix);
                // Qualify each decode line with a bus bit and fold into a
                // parity signature so the decoder is observable.
                let qualified: Vec<_> = decoded
                    .iter()
                    .enumerate()
                    .map(|(i, &d)| {
                        builder.gate(
                            format!("{prefix}_q{i}"),
                            crate::gate::GateKind::And,
                            &[d, bus_a[i % bus_width]],
                        )
                    })
                    .collect();
                let signature = parity_tree_block(&mut builder, &qualified, &prefix);
                builder.mark_output(signature);
            }
            4 => {
                let (equal, greater) = comparator_block(&mut builder, &bus_a, &bus_b, &prefix);
                builder.mark_output(equal);
                builder.mark_output(greater);
                let selected = mux_tree_block(
                    &mut builder,
                    &bus_a[..8],
                    &control[..3],
                    &format!("{prefix}_m"),
                );
                builder.mark_output(selected);
            }
            _ => {
                // Random control logic, its inputs taken in turn from the
                // buses and control lines; every random gate that drives
                // nothing becomes an output.
                let random = RandomCircuitConfig {
                    inputs: 24,
                    gates: 600,
                    max_fanin: 4,
                    locality: 48,
                    seed: config.seed.wrapping_add(block_index as u64),
                };
                let sources: Vec<GateId> = bus_a
                    .iter()
                    .chain(&bus_b)
                    .chain(&control)
                    .copied()
                    .cycle()
                    .take(random.inputs)
                    .collect();
                for id in random_block(&mut builder, &sources, &random, &format!("{prefix}_")) {
                    if id.index() >= before {
                        builder.mark_output(id);
                    }
                }
            }
        }
        let after = builder.gate_count();
        // Update the running transistor estimate from the gates just added.
        estimate += estimate_added(&builder, before, after);
        block_index += 1;
    }
    builder
        .finish()
        .expect("composite LSI-class circuit is structurally valid")
}

/// Estimates transistors contributed by gates added between two builder
/// checkpoints.  The builder does not expose its gates directly, so the
/// estimate is reconstructed from gate count growth with the average cost of
/// a 2–3 input static CMOS gate (about 6 transistors).
fn estimate_added(_builder: &CircuitBuilder, before: usize, after: usize) -> usize {
    (after - before) * 6
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn c17_structure() {
        let c = c17();
        assert_eq!(c.primary_inputs().len(), 5);
        assert_eq!(c.primary_outputs().len(), 2);
        assert_eq!(c.gate_count(), 11);
    }

    #[test]
    fn small_arithmetic_blocks_build() {
        assert_eq!(half_adder().primary_outputs().len(), 2);
        assert_eq!(full_adder().primary_inputs().len(), 3);
        assert_eq!(adder4().primary_outputs().len(), 5);
        assert!(alu4().gate_count() > 50);
    }

    #[test]
    fn lsi_class_reaches_transistor_target() {
        let config = LsiClassConfig {
            target_transistors: 5_000,
            seed: 3,
        };
        let c = lsi_class(config);
        assert!(
            c.transistor_estimate() >= 4_000,
            "estimate {} too small",
            c.transistor_estimate()
        );
        assert!(!c.primary_outputs().is_empty());
    }

    #[test]
    fn lsi_class_is_deterministic() {
        let config = LsiClassConfig {
            target_transistors: 3_000,
            seed: 11,
        };
        assert_eq!(lsi_class(config), lsi_class(config));
    }

    #[test]
    fn default_lsi_class_config_targets_paper_chip() {
        let config = LsiClassConfig::default();
        assert_eq!(config.target_transistors, 25_000);
    }

    #[test]
    fn sequential_lsi_class_registers_every_pad() {
        let config = LsiClassConfig {
            target_transistors: 3_000,
            seed: 7,
        };
        let c = sequential_lsi_class(config);
        // Two 16-bit buses plus 8 control lines, each behind a flip-flop.
        assert_eq!(c.state_elements().len(), 40);
        assert_eq!(c.primary_inputs().len(), 40);
        assert!(c.has_state());
        // The combinational portion is the same block rotation: same input
        // and output counts as the combinational build.
        let comb = lsi_class(config);
        assert_eq!(c.primary_outputs().len(), comb.primary_outputs().len());
        assert!(!comb.has_state());
        // Deterministic like its combinational sibling.
        assert_eq!(sequential_lsi_class(config), sequential_lsi_class(config));
    }
}

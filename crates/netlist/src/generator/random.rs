//! Random combinational logic generation.
//!
//! Random logic stands in for the "control" portion of an LSI chip: it has
//! irregular fanout, reconvergence and a mix of gate types, which is what
//! gives the stuck-at fault universe of a real chip its character.

use crate::builder::CircuitBuilder;
use crate::circuit::{Circuit, GateId};
use crate::gate::GateKind;
use lsiq_stats::dist::{Categorical, Sample};
use lsiq_stats::rng::{Rng, Xoshiro256StarStar};

/// Configuration for [`random_circuit`].
#[derive(Debug, Clone, PartialEq)]
pub struct RandomCircuitConfig {
    /// Number of primary inputs.
    pub inputs: usize,
    /// Number of logic gates to generate (excluding inputs).
    pub gates: usize,
    /// Maximum fanin per generated gate (at least 2).
    pub max_fanin: usize,
    /// How strongly fanin selection favours recently created gates; larger
    /// values give deeper, narrower circuits.  Must be at least 1.
    pub locality: usize,
    /// Seed for the deterministic generator.
    pub seed: u64,
}

impl Default for RandomCircuitConfig {
    fn default() -> Self {
        RandomCircuitConfig {
            inputs: 16,
            gates: 200,
            max_fanin: 4,
            locality: 32,
            seed: 0,
        }
    }
}

impl RandomCircuitConfig {
    /// Industrial-scale preset: a circuit of `gates` logic gates shaped like
    /// a flattened production netlist rather than the default narrow control
    /// block.  The input count and the locality window grow with the square
    /// root of the gate count, which keeps the levelised depth in the
    /// hundreds even at 100 000+ gates — wide and shallow, the shape where
    /// event-driven fault simulation pays off.
    ///
    /// ```
    /// use lsiq_netlist::generator::{random_circuit, RandomCircuitConfig};
    /// use lsiq_netlist::levelize::levelize;
    ///
    /// let config = RandomCircuitConfig::industrial(5_000, 42);
    /// let circuit = random_circuit(&config);
    /// assert_eq!(circuit.gate_count(), 5_000 + circuit.primary_inputs().len());
    /// assert!(levelize(&circuit).is_ok());
    /// ```
    pub fn industrial(gates: usize, seed: u64) -> RandomCircuitConfig {
        let breadth = (gates.max(1) as f64).sqrt().ceil() as usize;
        RandomCircuitConfig {
            inputs: breadth.clamp(16, 4096),
            gates,
            max_fanin: 4,
            locality: (breadth * 4).max(32),
            seed,
        }
    }

    /// Validates the configuration, normalising out-of-range values.
    fn normalised(&self) -> RandomCircuitConfig {
        RandomCircuitConfig {
            inputs: self.inputs.max(1),
            gates: self.gates.max(1),
            max_fanin: self.max_fanin.max(2),
            locality: self.locality.max(1),
            seed: self.seed,
        }
    }
}

/// Relative frequencies of generated gate kinds, loosely following the mix
/// observed in the ISCAS-85 benchmarks (NAND/NOR-rich with some XOR).
const KIND_WEIGHTS: [(GateKind, f64); 8] = [
    (GateKind::Nand, 30.0),
    (GateKind::Nor, 15.0),
    (GateKind::And, 20.0),
    (GateKind::Or, 15.0),
    (GateKind::Not, 10.0),
    (GateKind::Xor, 5.0),
    (GateKind::Xnor, 2.0),
    (GateKind::Buf, 3.0),
];

/// Generates a random combinational circuit.
///
/// The construction is incremental: each new gate draws its kind from a
/// fixed, benchmark-like distribution and its fanin from previously created
/// gates with a bias towards recent ones (controlled by
/// [`RandomCircuitConfig::locality`]).  Gates that end up driving nothing
/// become primary outputs, so every gate is observable and the circuit has
/// no dead logic.
///
/// The same configuration always produces the same circuit.
pub fn random_circuit(config: &RandomCircuitConfig) -> Circuit {
    let config = config.normalised();
    let mut builder = CircuitBuilder::new(format!("rand_{}g_{}", config.gates, config.seed));
    let inputs: Vec<GateId> = (0..config.inputs)
        .map(|i| builder.input(format!("pi{i}")))
        .collect();
    // Every signal that drives nothing becomes a primary output; this
    // includes at least the last generated gate, so the circuit always has
    // outputs.
    for id in random_block(&mut builder, &inputs, &config, "") {
        builder.mark_output(id);
    }
    builder
        .finish()
        .expect("randomly generated circuits are acyclic by construction")
}

/// Emits the random logic of `config` into `builder`: the gates
/// [`random_circuit`] generates, with `sources` in place of its primary
/// inputs (`config.inputs` of them) and gate `i` named `{prefix}g{i}`.
///
/// Returns every source and gate that no gate of the block reads, in that
/// order: the signals `random_circuit` makes primary outputs.
pub(crate) fn random_block(
    builder: &mut CircuitBuilder,
    sources: &[GateId],
    config: &RandomCircuitConfig,
    prefix: &str,
) -> Vec<GateId> {
    let config = config.normalised();
    assert_eq!(sources.len(), config.inputs, "one source per block input");
    let mut rng = Xoshiro256StarStar::seed_from_u64(config.seed);
    let kind_chooser = Categorical::new(&KIND_WEIGHTS.map(|(_, w)| w)).expect("weights are valid");
    // Fanin is drawn by position in `pool`: the sources, then the gates in
    // generation order.
    let mut pool = Vec::with_capacity(config.inputs + config.gates);
    pool.extend_from_slice(sources);
    let mut drives_something = vec![false; config.inputs + config.gates];
    let mut picked = Vec::with_capacity(config.max_fanin);
    let mut fanin = Vec::with_capacity(config.max_fanin);

    for gate_index in 0..config.gates {
        let kind = KIND_WEIGHTS[kind_chooser.sample(&mut rng)].0;
        let (min_fanin, _) = kind.fanin_bounds();
        let fanin_count = if min_fanin == 1 && matches!(kind, GateKind::Not | GateKind::Buf) {
            1
        } else {
            2 + rng.next_index(config.max_fanin - 1)
        };
        picked.clear();
        for _ in 0..fanin_count {
            let position = pick_driver(pool.len(), config.locality, &mut rng, &picked);
            drives_something[position] = true;
            picked.push(position);
        }
        fanin.clear();
        fanin.extend(picked.iter().map(|&position| pool[position]));
        pool.push(builder.gate(format!("{prefix}g{gate_index}"), kind, &fanin));
    }
    pool.into_iter()
        .zip(drives_something)
        .filter_map(|(id, drives)| (!drives).then_some(id))
        .collect()
}

/// Picks a pool position with a bias towards the most recent `locality`
/// entries, avoiding positions already chosen for this gate.
fn pick_driver<R: Rng + ?Sized>(
    pool_len: usize,
    locality: usize,
    rng: &mut R,
    already: &[usize],
) -> usize {
    for _ in 0..8 {
        let candidate = if rng.next_bool(0.75) && pool_len > locality {
            // Recent window.
            pool_len - locality + rng.next_index(locality)
        } else {
            rng.next_index(pool_len)
        };
        if !already.contains(&candidate) {
            return candidate;
        }
    }
    // Fall back to any gate; a duplicate fanin pin is legal, just redundant.
    rng.next_index(pool_len)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::levelize::levelize;

    #[test]
    fn generation_is_deterministic() {
        let config = RandomCircuitConfig {
            seed: 7,
            ..RandomCircuitConfig::default()
        };
        let a = random_circuit(&config);
        let b = random_circuit(&config);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a = random_circuit(&RandomCircuitConfig {
            seed: 1,
            ..RandomCircuitConfig::default()
        });
        let b = random_circuit(&RandomCircuitConfig {
            seed: 2,
            ..RandomCircuitConfig::default()
        });
        assert_ne!(a, b);
    }

    #[test]
    fn requested_sizes_are_respected() {
        let config = RandomCircuitConfig {
            inputs: 10,
            gates: 150,
            ..RandomCircuitConfig::default()
        };
        let c = random_circuit(&config);
        assert_eq!(c.primary_inputs().len(), 10);
        assert_eq!(c.gate_count(), 160);
        assert!(!c.primary_outputs().is_empty());
    }

    #[test]
    fn generated_circuits_are_acyclic() {
        for seed in 0..5 {
            let c = random_circuit(&RandomCircuitConfig {
                seed,
                gates: 300,
                ..RandomCircuitConfig::default()
            });
            assert!(levelize(&c).is_ok());
        }
    }

    #[test]
    fn every_non_output_gate_has_fanout() {
        let c = random_circuit(&RandomCircuitConfig::default());
        for (id, gate) in c.iter() {
            if gate.kind() == GateKind::Input {
                continue;
            }
            assert!(
                c.fanout_count(id) > 0 || c.is_primary_output(id),
                "gate {id} is dead logic"
            );
        }
    }

    #[test]
    fn industrial_preset_scales_to_one_hundred_thousand_gates() {
        let config = RandomCircuitConfig::industrial(100_000, 9);
        let circuit = random_circuit(&config);
        assert_eq!(
            circuit.gate_count(),
            100_000 + circuit.primary_inputs().len()
        );
        let levels = levelize(&circuit).expect("acyclic");
        // Wide and shallow: the whole point of the preset.
        assert!(
            levels.depth() < 2_000,
            "industrial circuit too deep: {} levels",
            levels.depth()
        );
        assert!(!circuit.primary_outputs().is_empty());
    }

    #[test]
    fn industrial_preset_is_deterministic() {
        let a = random_circuit(&RandomCircuitConfig::industrial(2_000, 5));
        let b = random_circuit(&RandomCircuitConfig::industrial(2_000, 5));
        assert_eq!(a, b);
    }

    #[test]
    fn degenerate_configuration_is_normalised() {
        let c = random_circuit(&RandomCircuitConfig {
            inputs: 0,
            gates: 0,
            max_fanin: 0,
            locality: 0,
            seed: 3,
        });
        assert_eq!(c.primary_inputs().len(), 1);
        assert_eq!(c.gate_count(), 2);
    }
}

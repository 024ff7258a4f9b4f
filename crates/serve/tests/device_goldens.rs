//! Every generated device, pinned: a structural hash and the artifact
//! fingerprint of each device the reproduction, the benchmarks and the
//! service build.
//!
//! The structural hash covers what any consumer can observe of a circuit:
//! each gate's kind and fanin list, each signal name, and the primary
//! input, primary output and state-element lists, in declaration order.
//! [`stable_fingerprint`] is the artifact store's key, so a device whose
//! fingerprint moved would also orphan every persisted artifact.  A change
//! to how netlists are stored or generated must leave both values alone.

use lsiq_netlist::circuit::{Circuit, GateId};
use lsiq_netlist::generator::{random_circuit, RandomCircuitConfig};
use lsiq_netlist::library::{lsi_class, sequential_lsi_class, LsiClassConfig};
use lsiq_netlist::scan::insert_scan;
use lsiq_serve::artifact::stable_fingerprint;

/// 64-bit FNV-1a over a stream of length-prefixed fields.
struct Fnv(u64);

impl Fnv {
    fn bytes(&mut self, bytes: &[u8]) {
        self.word(bytes.len() as u64);
        for &byte in bytes {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn word(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn ids(&mut self, ids: &[GateId]) {
        self.word(ids.len() as u64);
        for id in ids {
            self.word(id.index() as u64);
        }
    }
}

/// Kinds, fanin, signal names, inputs, outputs and state elements.
fn structure_hash(circuit: &Circuit) -> u64 {
    let mut hash = Fnv(0xcbf2_9ce4_8422_2325);
    hash.bytes(circuit.name().as_bytes());
    hash.word(circuit.gate_count() as u64);
    for (id, gate) in circuit.iter() {
        hash.bytes(gate.kind().name().as_bytes());
        hash.ids(gate.fanin());
        hash.bytes(circuit.signal_name(id).as_bytes());
    }
    hash.ids(circuit.primary_inputs());
    hash.ids(circuit.primary_outputs());
    hash.ids(circuit.state_elements());
    hash.0
}

/// Asserts `circuit`'s gate count, structural hash and fingerprint.
fn assert_pinned(what: &str, circuit: &Circuit, gates: usize, structure: u64, fingerprint: u64) {
    assert_eq!(
        (
            circuit.gate_count(),
            structure_hash(circuit),
            stable_fingerprint(circuit)
        ),
        (gates, structure, fingerprint),
        "{what} moved"
    );
}

fn lsi(target_transistors: usize, seed: u64) -> LsiClassConfig {
    LsiClassConfig {
        target_transistors,
        seed,
    }
}

#[test]
fn reduced_reproduction_device_is_pinned() {
    assert_pinned(
        "lsi_class(10_000, 1981)",
        &lsi_class(lsi(10_000, 1981)),
        1_839,
        13_357_122_423_417_390_530,
        18_069_158_438_338_062_024,
    );
}

#[test]
fn full_size_reproduction_device_is_pinned() {
    assert_pinned(
        "lsi_class(25_000, 1981)",
        &lsi_class(lsi(25_000, 1981)),
        4_221,
        18_243_979_299_474_111_326,
        683_931_382_142_563_436,
    );
}

#[test]
fn reseeded_device_is_pinned() {
    assert_pinned(
        "lsi_class(10_000, 7)",
        &lsi_class(lsi(10_000, 7)),
        1_839,
        15_624_882_116_767_746_742,
        8_057_729_384_111_175_591,
    );
}

#[test]
fn sequential_device_and_its_scan_views_are_pinned() {
    let sequential = sequential_lsi_class(lsi(10_000, 1981));
    assert_pinned(
        "sequential_lsi_class(10_000, 1981)",
        &sequential,
        1_879,
        7_704_023_397_973_804_985,
        1_017_240_083_842_773_991,
    );
    let scan = insert_scan(&sequential, 4).expect("40 flip-flops fill 4 chains");
    assert_pinned(
        "its 4-chain scan circuit",
        scan.circuit(),
        2_005,
        14_286_649_627_102_939_705,
        8_973_529_992_924_353_222,
    );
    assert_pinned(
        "its 4-chain test view",
        scan.test_view(),
        2_005,
        9_400_114_664_842_843_629,
        10_442_027_620_086_949_124,
    );
}

#[test]
fn industrial_random_device_is_pinned() {
    assert_pinned(
        "random_circuit(industrial(5_000, 42))",
        &random_circuit(&RandomCircuitConfig::industrial(5_000, 42)),
        5_071,
        12_206_020_843_610_410_140,
        10_442_452_237_855_178_964,
    );
}

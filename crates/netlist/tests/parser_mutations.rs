//! A seeded mutation harness for both netlist readers.  The c17 and alu4
//! netlists, as `bench_format::write` and `blif::write` print them, are
//! mutated by byte flips, truncations, splices and inserted format tokens,
//! and each mutant (decoded with `String::from_utf8_lossy`) goes to the
//! reader of its format.  Every mutant must come back as a circuit or a
//! typed error; none may panic.

use lsiq_netlist::{bench_format, blif, library, Circuit, NetlistError};
use lsiq_stats::rng::{Rng, SplitMix64};
use std::panic::{self, AssertUnwindSafe};

/// Mutants per seed text.
const CASES: usize = 2_500;

/// Tokens of either format, inserted where they do not belong.
const TOKENS: [&str; 9] = [
    "INPUT(", "=", ",", ")", ".names", ".latch", "\\\n", "#", "-",
];

/// One seeded mutation of `text`: a few flipped bits, a truncation, a
/// stretch of the text copied over another, or a few inserted tokens.
fn mutate(text: &[u8], rng: &mut SplitMix64) -> Vec<u8> {
    let mut bytes = text.to_vec();
    let len = bytes.len();
    match rng.next_index(4) {
        0 => {
            for _ in 0..1 + rng.next_index(3) {
                bytes[rng.next_index(len)] ^= 1 << rng.next_index(8);
            }
        }
        1 => bytes.truncate(rng.next_index(len)),
        2 => {
            let from = rng.next_index(len);
            let piece = text[from..from + 1 + rng.next_index(len - from)].to_vec();
            let start = rng.next_index(len);
            let end = start + rng.next_index(len - start + 1);
            bytes.splice(start..end, piece);
        }
        _ => {
            for _ in 0..1 + rng.next_index(3) {
                let token = TOKENS[rng.next_index(TOKENS.len())];
                let at = rng.next_index(bytes.len() + 1);
                bytes.splice(at..at, token.bytes());
            }
        }
    }
    bytes
}

type Reader = fn(&str, &str) -> Result<Circuit, NetlistError>;

/// Runs `CASES` mutants of `text` through `read`, failing with the
/// mutant's text on the first panic.
fn survive_mutations(label: &str, text: &str, read: Reader, seed: u64) {
    assert!(read(label, text).is_ok(), "{label}: the seed text parses");
    let mut rng = SplitMix64::seed_from_u64(seed);
    let (mut circuits, mut errors) = (0, 0);
    for case in 0..CASES {
        let mutant = mutate(text.as_bytes(), &mut rng);
        let mutant = String::from_utf8_lossy(&mutant);
        match panic::catch_unwind(AssertUnwindSafe(|| read(label, &mutant))) {
            Ok(Ok(_)) => circuits += 1,
            Ok(Err(_)) => errors += 1,
            Err(_) => panic!("{label} case {case} panicked on:\n{mutant}"),
        }
    }
    // Both outcomes occur, so the mutations neither all break the text
    // nor all leave it intact.
    assert!(
        circuits > 0 && errors > 0,
        "{label}: {circuits} circuits, {errors} errors"
    );
}

#[test]
fn bench_reader_survives_seeded_mutations() {
    for (circuit, seed) in [(library::c17(), 0xBE_0C17), (library::alu4(), 0xBE_A1D4)] {
        let text = bench_format::write(&circuit);
        survive_mutations(circuit.name(), &text, bench_format::parse, seed);
    }
}

#[test]
fn blif_reader_survives_seeded_mutations() {
    for (circuit, seed) in [(library::c17(), 0xB1_0C17), (library::alu4(), 0xB1_A1D4)] {
        let text = blif::write(&circuit);
        survive_mutations(circuit.name(), &text, blif::parse, seed);
    }
}

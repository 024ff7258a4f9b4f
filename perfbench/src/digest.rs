//! Pass digests and the reference digests stored with the benchmark.

use crate::workloads::Workload;

/// The reference digests: `<workload> <seed> <digest>` lines, written by
/// `perfbench --reference` under the oracle configuration.
const REFERENCE: &str = include_str!("../reference_digests.txt");

/// The seeds `perfbench --reference` stores digests for.
pub fn reference_seeds() -> Vec<u64> {
    (0..=63).chain([lsi_quality::PROGRAMME_SEED]).collect()
}

/// FNV-1a over a canonical byte encoding; floats hash by bit pattern, so a
/// digest matches only a bit-identical result.
pub(crate) struct Fnv(u64);

impl Fnv {
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn usize(&mut self, value: usize) {
        self.bytes(&(value as u64).to_le_bytes());
    }

    pub fn f64(&mut self, value: f64) {
        self.bytes(&value.to_bits().to_le_bytes());
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// The stored reference digest of `workload` at `seed`, if one is stored.
pub fn stored(workload: Workload, seed: u64) -> Option<u64> {
    REFERENCE.lines().find_map(|line| {
        let mut fields = line.split_whitespace();
        let (name, line_seed, digest) = (fields.next()?, fields.next()?, fields.next()?);
        (name == workload.name() && line_seed.parse() == Ok(seed))
            .then(|| u64::from_str_radix(digest, 16).ok())
            .flatten()
    })
}

//! Multiple-input signature registers (MISR).
//!
//! A MISR is an LFSR with parallel inputs: each clock the register performs
//! one Galois step and XORs the current output response into its state, one
//! response bit per register position (responses wider than the register
//! fold onto positions modulo the width).  After the last pattern the state
//! is the test's *signature*; a self-tested chip passes when its signature
//! equals the fault-free one.
//!
//! Compaction loses information: a faulty response sequence can fold to the
//! fault-free signature ("aliasing"), silently converting a detected fault
//! into a test escape.  For a `k`-bit maximal-polynomial MISR the classical
//! estimate of that probability is `2^−k` per readout; the
//! [`aliasing`](crate::aliasing) module compares the estimate against the
//! exact count over a fault universe.
//!
//! The fold is linear over GF(2) — `fold` distributes over XOR of response
//! streams — so a register fed only the *error* stream (good XOR faulty)
//! holds exactly `faulty signature XOR good signature`: a failing readout is
//! a non-zero error state, and the faulty signature itself is never
//! materialised.  [`Misr::fold_error_block`] packages that trick for one
//! register; the signature-dictionary builder applies the same identity to
//! sparse per-fault error words, driving several widths and mid-chunk
//! session boundaries at once.

use crate::lfsr::{maximal_polynomial, DEGREE_GRAMMAR, SUPPORTED_DEGREES};
use lsiq_exec::ConfigError;
use lsiq_sim::packed::{gather_chunk_slot, gather_slot, PackedBlock};

/// A `width`-bit multiple-input signature register with the built-in
/// maximal-length feedback polynomial of that width.
///
/// ```
/// use lsiq_bist::misr::Misr;
///
/// let mut misr = Misr::new(16);
/// // Fold two output responses (one bool per circuit output, LSB first).
/// misr.fold([true, false, true]);
/// misr.fold([false, false, true]);
/// let signature = misr.signature();
///
/// // The same response sequence always folds to the same signature…
/// let mut replay = Misr::new(16);
/// replay.fold([true, false, true]);
/// replay.fold([false, false, true]);
/// assert_eq!(replay.signature(), signature);
///
/// // …and a single flipped response bit changes it.
/// let mut faulty = Misr::new(16);
/// faulty.fold([true, false, true]);
/// faulty.fold([true, false, true]);
/// assert_ne!(faulty.signature(), signature);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Misr {
    state: u64,
    width: u32,
    polynomial: u64,
}

impl Misr {
    /// Creates a zero-state register of `width` bits.
    ///
    /// # Panics
    ///
    /// Panics if `width` is not one of [`SUPPORTED_DEGREES`].
    pub fn new(width: u32) -> Misr {
        Misr::try_new(width).unwrap_or_else(|_| {
            panic!(
                "no built-in MISR polynomial of width {width} (supported: {SUPPORTED_DEGREES:?})"
            )
        })
    }

    /// The fallible form of [`new`](Misr::new), for signature widths that
    /// arrive from user configuration (a `BistPlan`, a sweep
    /// specification): an unsupported width becomes a typed [`ConfigError`]
    /// instead of a panic.
    pub fn try_new(width: u32) -> Result<Misr, ConfigError> {
        let polynomial = maximal_polynomial(width).ok_or_else(|| {
            ConfigError::invalid_value("signature width", width.to_string(), DEGREE_GRAMMAR)
        })?;
        Ok(Misr {
            state: 0,
            width,
            polynomial,
        })
    }

    /// The register width `k` (signature bits).
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Resets the register to the all-zero state (the start of a test
    /// session).
    pub fn reset(&mut self) {
        self.state = 0;
    }

    /// The current signature.
    pub fn signature(&self) -> u64 {
        self.state
    }

    /// One Galois step of the feedback polynomial over `state`.
    #[inline]
    fn step(state: u64, polynomial: u64) -> u64 {
        let lsb = state & 1;
        let shifted = state >> 1;
        if lsb == 1 {
            shifted ^ polynomial
        } else {
            shifted
        }
    }

    /// The parallel-input bit circuit output `output` drives: output `o`
    /// lands on register position `o mod width`.
    #[inline]
    pub(crate) fn input_bit(&self, output: usize) -> u64 {
        1u64 << (output as u64 % u64::from(self.width))
    }

    /// Compresses one response (one bit per circuit output, in output
    /// declaration order) into a parallel-input word.
    #[inline]
    fn compress(&self, response: impl IntoIterator<Item = bool>) -> u64 {
        let mut incoming = 0u64;
        for (output, bit) in response.into_iter().enumerate() {
            if bit {
                incoming ^= self.input_bit(output);
            }
        }
        incoming
    }

    /// One clock: a register step, then the XOR of an already compressed
    /// parallel-input word.
    #[inline]
    pub(crate) fn clock(&mut self, incoming: u64) {
        self.state = Misr::step(self.state, self.polynomial) ^ incoming;
    }

    /// Folds one pattern's output response into the signature: one register
    /// step, then the parallel-input XOR.
    pub fn fold(&mut self, response: impl IntoIterator<Item = bool>) {
        let incoming = self.compress(response);
        self.clock(incoming);
    }

    /// Folds a packed 64-pattern block of output responses — one `u64` per
    /// circuit output, as produced by
    /// [`CompiledCircuit::output_words`](lsiq_sim::levelized::CompiledCircuit::output_words)
    /// — in pattern order.  Only the low `pattern_count` slots are folded.
    pub fn fold_block(&mut self, output_words: &[u64], pattern_count: usize) {
        for slot in 0..pattern_count {
            self.fold(gather_slot(output_words, slot));
        }
    }

    /// Folds a packed block of *error* words (good XOR faulty responses)
    /// and returns the resulting error state.
    ///
    /// By linearity of the fold, the error state after any prefix of the
    /// test equals `faulty signature XOR good signature`; it is zero exactly
    /// when the two signatures agree.  When both the current error state and
    /// the block's error words are all zero the register provably stays at
    /// zero, so the slot loop is skipped — the dominant case for the
    /// undetected and already-resolved faults of a dictionary build.
    pub fn fold_error_block(&mut self, error_words: &[u64], pattern_count: usize) -> u64 {
        if self.state == 0 && error_words.iter().all(|&word| word == 0) {
            return 0;
        }
        self.fold_block(error_words, pattern_count);
        self.state
    }

    /// Folds a lane-wide packed chunk of output responses — one
    /// [`PackedBlock`] per circuit output, as produced by
    /// [`CompiledCircuit::output_chunks`](lsiq_sim::levelized::CompiledCircuit::output_chunks)
    /// — in pattern order.  Only the low `pattern_count` slots are folded;
    /// the `L = 1` case is exactly [`fold_block`](Misr::fold_block).
    pub fn fold_chunk<const L: usize>(
        &mut self,
        output_chunks: &[PackedBlock<L>],
        pattern_count: usize,
    ) {
        for slot in 0..pattern_count {
            self.fold(gather_chunk_slot(output_chunks, slot));
        }
    }

    /// Folds a lane-wide packed chunk of *error* responses and returns the
    /// resulting error state (the chunk analogue of
    /// [`fold_error_block`](Misr::fold_error_block), with the same
    /// quiet-chunk skip).
    pub fn fold_error_chunk<const L: usize>(
        &mut self,
        error_chunks: &[PackedBlock<L>],
        pattern_count: usize,
    ) -> u64 {
        if self.state == 0 && error_chunks.iter().all(|chunk| chunk.is_zero()) {
            return 0;
        }
        self.fold_chunk(error_chunks, pattern_count);
        self.state
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsiq_stats::rng::{Rng, Xoshiro256StarStar};

    fn random_responses(outputs: usize, patterns: usize, seed: u64) -> Vec<Vec<bool>> {
        let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
        (0..patterns)
            .map(|_| (0..outputs).map(|_| rng.next_bool(0.5)).collect())
            .collect()
    }

    /// Packs per-pattern responses into one word per output (≤ 64 patterns).
    fn pack(responses: &[Vec<bool>], outputs: usize) -> Vec<u64> {
        let mut words = vec![0u64; outputs];
        for (slot, response) in responses.iter().enumerate() {
            for (output, &bit) in response.iter().enumerate() {
                if bit {
                    words[output] |= 1u64 << slot;
                }
            }
        }
        words
    }

    #[test]
    fn fold_block_matches_serial_fold() {
        let responses = random_responses(7, 50, 1);
        let words = pack(&responses, 7);
        let mut serial = Misr::new(16);
        for response in &responses {
            serial.fold(response.iter().copied());
        }
        let mut packed = Misr::new(16);
        packed.fold_block(&words, 50);
        assert_eq!(serial.signature(), packed.signature());
    }

    #[test]
    fn fold_is_linear_over_xor() {
        // signature(a) ^ signature(b) == signature(a ^ b) — the identity the
        // error-stream dictionary build rests on.
        let a = random_responses(5, 40, 2);
        let b = random_responses(5, 40, 3);
        let fold_all = |streams: &[Vec<bool>]| {
            let mut misr = Misr::new(12);
            for response in streams {
                misr.fold(response.iter().copied());
            }
            misr.signature()
        };
        let xored: Vec<Vec<bool>> = a
            .iter()
            .zip(&b)
            .map(|(ra, rb)| ra.iter().zip(rb).map(|(&x, &y)| x ^ y).collect())
            .collect();
        assert_eq!(fold_all(&a) ^ fold_all(&b), fold_all(&xored));
    }

    #[test]
    fn fold_error_block_detects_exactly_signature_mismatches() {
        let good = random_responses(6, 64, 4);
        let good_words = pack(&good, 6);
        // Flip one response bit to make a "faulty" stream.
        let mut faulty = good.clone();
        faulty[17][2] = !faulty[17][2];
        let faulty_words = pack(&faulty, 6);
        let error_words: Vec<u64> = good_words
            .iter()
            .zip(&faulty_words)
            .map(|(&g, &f)| g ^ f)
            .collect();

        let mut good_misr = Misr::new(8);
        good_misr.fold_block(&good_words, 64);
        let mut faulty_misr = Misr::new(8);
        faulty_misr.fold_block(&faulty_words, 64);
        let mut error_misr = Misr::new(8);
        let error = error_misr.fold_error_block(&error_words, 64);
        assert_eq!(error, good_misr.signature() ^ faulty_misr.signature());

        // An all-zero error stream never leaves the zero state.
        let mut idle = Misr::new(8);
        assert_eq!(idle.fold_error_block(&[0, 0, 0, 0, 0, 0], 64), 0);
        assert_eq!(idle.signature(), 0);
    }

    #[test]
    fn chunk_folds_match_word_folds_at_every_lane_width() {
        fn check<const L: usize>() {
            let patterns = 64 * L - 7; // partial tail in the last lane
            let responses = random_responses(6, patterns, L as u64);
            let mut chunks = vec![PackedBlock::<L>::ZERO; 6];
            for (slot, response) in responses.iter().enumerate() {
                for (output, &bit) in response.iter().enumerate() {
                    if bit {
                        chunks[output].0[slot / 64] |= 1u64 << (slot % 64);
                    }
                }
            }
            let mut serial = Misr::new(16);
            for response in &responses {
                serial.fold(response.iter().copied());
            }
            let mut packed = Misr::new(16);
            packed.fold_chunk(&chunks, patterns);
            assert_eq!(serial.signature(), packed.signature(), "L = {L}");

            let mut error = Misr::new(16);
            assert_eq!(
                error.fold_error_chunk(&chunks, patterns),
                serial.signature()
            );
            let mut idle = Misr::new(16);
            assert_eq!(
                idle.fold_error_chunk(&[PackedBlock::<L>::ZERO; 6], patterns),
                0
            );
        }
        check::<1>();
        check::<4>();
        check::<8>();
    }

    #[test]
    fn wide_responses_fold_onto_the_register() {
        // 40 outputs into a 4-bit register: outputs o and o+4 share a slot.
        let mut misr = Misr::new(4);
        let mut response = [false; 40];
        response[3] = true;
        response[7] = true; // cancels response[3] on position 3
        misr.fold(response.iter().copied());
        assert_eq!(misr.signature(), 0);
        assert_eq!(misr.width(), 4);
    }

    #[test]
    fn reset_restores_the_session_start() {
        let mut misr = Misr::new(16);
        misr.fold([true, true, false]);
        assert_ne!(misr.signature(), 0);
        misr.reset();
        assert_eq!(misr.signature(), 0);
    }

    #[test]
    #[should_panic(expected = "no built-in MISR polynomial")]
    fn unsupported_width_panics() {
        let _ = Misr::new(10);
    }

    #[test]
    fn try_new_returns_typed_errors() {
        assert_eq!(Misr::try_new(16).expect("supported width"), Misr::new(16));
        let error = Misr::try_new(10).expect_err("unsupported width");
        assert_eq!(error.value(), "10");
        assert!(error.to_string().contains("4, 8, 12, 16"), "{error}");
    }
}

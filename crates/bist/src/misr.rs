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
//! materialised.  The signature-dictionary builder rests on that identity.
//! It also uses the linearity of the register step itself: it advances one
//! error register per signature width across a span of up to 64 patterns
//! in one table-driven step, which equals clocking the register once per
//! pattern with the compressed error words.

use crate::lfsr::{maximal_polynomial, DEGREE_GRAMMAR, SUPPORTED_DEGREES};
use lsiq_exec::ConfigError;

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

    /// Compresses one response (one bit per circuit output, in output
    /// declaration order) into a parallel-input word: output `o` lands on
    /// register position `o mod width`.
    #[inline]
    fn compress(&self, response: impl IntoIterator<Item = bool>) -> u64 {
        let mut incoming = 0u64;
        for (output, bit) in response.into_iter().enumerate() {
            if bit {
                incoming ^= 1u64 << (output as u64 % u64::from(self.width));
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

//! Parameterizable Galois linear-feedback shift registers.
//!
//! A BIST pattern source is, at bottom, one LFSR; everything else in this
//! crate (the STUMPS phase shifter, the MISR compactor) is built on the
//! register implemented here.  The register is the *Galois* (internal-XOR)
//! form: on each step the state shifts right one bit and, when the bit
//! shifted out is 1, the tap polynomial is XORed into the remaining state.
//! With a primitive polynomial the state walks all `2^degree − 1` non-zero
//! values before repeating.
//!
//! [`GaloisLfsr::maximal`] selects a primitive polynomial from a built-in
//! table ([`maximal_polynomial`], the classical two/four-tap maximal-length
//! taps) so callers only choose a *degree*.
//!
//! A degree-64 register read one [`next_bit`](GaloisLfsr::next_bit) per
//! pattern bit is the single-channel serial pattern source: an LFSR feeding
//! one scan chain.  The differential tests draw patterns that way, so the
//! table's degree-64 polynomial must not change.

use lsiq_exec::ConfigError;
use lsiq_stats::rng::{Rng, SplitMix64};

/// The accepted-degree grammar shared by every fallible constructor that
/// validates against [`SUPPORTED_DEGREES`].
pub(crate) const DEGREE_GRAMMAR: &str = "one of 4, 8, 12, 16, 24, 32, 48 or 64";

/// The LFSR degrees for which [`maximal_polynomial`] carries a primitive
/// tap polynomial, in ascending order.
///
/// These are also the signature widths the [`Misr`](crate::misr::Misr)
/// compactor accepts: a MISR is the same register with parallel inputs.
pub const SUPPORTED_DEGREES: [u32; 8] = [4, 8, 12, 16, 24, 32, 48, 64];

/// The Galois tap mask of a maximal-length (primitive) polynomial of the
/// given degree, or `None` for degrees outside [`SUPPORTED_DEGREES`].
///
/// The mask has bit `t − 1` set for every feedback tap `x^t` of the
/// polynomial (the `x^degree` term is the feedback itself and the `+ 1` term
/// is the bit shifted out).  The taps are the classical maximal-length sets
/// (e.g. `x^16 + x^15 + x^13 + x^4 + 1` for degree 16); maximality of the
/// small degrees is pinned by an exhaustive period test in this module.
pub fn maximal_polynomial(degree: u32) -> Option<u64> {
    // Tap sets [d, a, b, c] meaning x^d + x^a + x^b + x^c + 1.
    let taps: &[u32] = match degree {
        4 => &[4, 3],
        8 => &[8, 6, 5, 4],
        12 => &[12, 6, 4, 1],
        16 => &[16, 15, 13, 4],
        24 => &[24, 23, 22, 17],
        32 => &[32, 22, 2, 1],
        48 => &[48, 47, 21, 20],
        64 => &[64, 63, 61, 60],
        _ => return None,
    };
    Some(taps.iter().fold(0u64, |mask, &tap| mask | 1 << (tap - 1)))
}

/// A mask with the low `degree` bits set (the register's state space).
pub(crate) fn state_mask(degree: u32) -> u64 {
    if degree >= 64 {
        u64::MAX
    } else {
        (1u64 << degree) - 1
    }
}

/// A Galois LFSR of configurable degree and tap polynomial.
///
/// ```
/// use lsiq_bist::lfsr::GaloisLfsr;
///
/// // A maximal degree-8 register visits all 255 non-zero states.
/// let mut lfsr = GaloisLfsr::maximal(8, 0xB15D);
/// let start = lfsr.state();
/// let period = (1..).find(|_| {
///     lfsr.step();
///     lfsr.state() == start
/// });
/// assert_eq!(period, Some(255));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GaloisLfsr {
    state: u64,
    mask: u64,
    degree: u32,
}

impl GaloisLfsr {
    /// Creates a register of `degree` bits with the built-in maximal-length
    /// polynomial of that degree and a seed-derived starting state.
    ///
    /// The seed is expanded through [`SplitMix64`] to a dense starting state
    /// (sparse seeds such as `1` would otherwise emit long runs of zeros
    /// before the feedback taps populate the register); an expansion that
    /// truncates to zero falls back to the classic value `1`, since the
    /// all-zero state is the one fixed point of the recurrence.
    ///
    /// # Panics
    ///
    /// Panics if `degree` is not in [`SUPPORTED_DEGREES`].
    pub fn maximal(degree: u32, seed: u64) -> GaloisLfsr {
        GaloisLfsr::try_maximal(degree, seed).unwrap_or_else(|_| {
            panic!("no built-in maximal polynomial of degree {degree} (supported: {SUPPORTED_DEGREES:?})")
        })
    }

    /// The fallible form of [`maximal`](GaloisLfsr::maximal), for degrees
    /// that arrive from user configuration (a
    /// [`StumpsConfig`](crate::stumps::StumpsConfig)'s register degree, a
    /// sweep specification): an unsupported degree becomes a typed
    /// [`ConfigError`] instead of a panic.
    pub fn try_maximal(degree: u32, seed: u64) -> Result<GaloisLfsr, ConfigError> {
        let mask = maximal_polynomial(degree).ok_or_else(|| {
            ConfigError::invalid_value("StumpsConfig::degree", degree.to_string(), DEGREE_GRAMMAR)
        })?;
        Ok(GaloisLfsr::with_polynomial(degree, mask, seed))
    }

    /// Creates a register with an explicit Galois tap mask (bit `t − 1` set
    /// for each feedback tap `x^t`); the seed is expanded exactly as in
    /// [`maximal`](GaloisLfsr::maximal).
    ///
    /// # Panics
    ///
    /// Panics if `degree` is 0 or exceeds 64, or if the tap mask has bits at
    /// or above `degree`.
    fn with_polynomial(degree: u32, polynomial: u64, seed: u64) -> GaloisLfsr {
        assert!(
            (1..=64).contains(&degree),
            "LFSR degree must be between 1 and 64, got {degree}"
        );
        assert!(
            polynomial & !state_mask(degree) == 0,
            "tap mask {polynomial:#x} has bits outside a degree-{degree} register"
        );
        let expanded = SplitMix64::seed_from_u64(seed).next_u64() & state_mask(degree);
        GaloisLfsr {
            state: if expanded == 0 { 1 } else { expanded },
            mask: polynomial,
            degree,
        }
    }

    /// The register's degree (state width in bits).
    pub fn degree(&self) -> u32 {
        self.degree
    }

    /// The Galois tap mask.
    pub fn polynomial(&self) -> u64 {
        self.mask
    }

    /// The current state (confined to the low `degree` bits).
    pub fn state(&self) -> u64 {
        self.state
    }

    /// Advances the register one step and returns the new state.
    pub fn step(&mut self) -> u64 {
        let lsb = self.state & 1;
        self.state >>= 1;
        if lsb == 1 {
            self.state ^= self.mask;
        }
        self.state
    }

    /// The register's serial output: reads the output bit (bit 0 of the
    /// state), then shifts.  This is the read-then-step order of a hardware
    /// register sampled on the same clock edge that advances it.
    pub fn next_bit(&mut self) -> bool {
        let bit = self.state & 1 == 1;
        self.step();
        bit
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Walks the register from its current state until it recurs, counting
    /// steps.
    fn period(lfsr: &mut GaloisLfsr) -> u64 {
        let start = lfsr.state();
        let mut steps = 0u64;
        loop {
            lfsr.step();
            steps += 1;
            if lfsr.state() == start {
                return steps;
            }
        }
    }

    #[test]
    fn small_degrees_are_maximal_length() {
        // Exhaustive proof of primitivity for the cheap degrees: the state
        // sequence visits every non-zero value exactly once.
        for degree in [4u32, 8, 12, 16] {
            let mut lfsr = GaloisLfsr::maximal(degree, 7);
            assert_eq!(
                period(&mut lfsr),
                (1u64 << degree) - 1,
                "degree {degree} polynomial is not maximal"
            );
        }
    }

    #[test]
    fn large_degrees_do_not_recur_early() {
        // The big registers cannot be walked exhaustively; pin the absence
        // of short cycles instead.
        for degree in [24u32, 32, 48, 64] {
            let mut lfsr = GaloisLfsr::maximal(degree, 3);
            let start = lfsr.state();
            for step in 1..=100_000u64 {
                lfsr.step();
                assert_ne!(lfsr.state(), start, "degree {degree} recurred at {step}");
                assert_ne!(lfsr.state(), 0, "degree {degree} hit the zero state");
            }
        }
    }

    #[test]
    fn degree_64_matches_the_historical_fixed_polynomial() {
        // Serial patterns read from a degree-64 register are pinned to this
        // mask, so the table must keep producing it.
        assert_eq!(maximal_polynomial(64), Some(0xD800_0000_0000_0000));
        assert_eq!(maximal_polynomial(5), None);
        // The golden serial prefix: seed 0xACE1, three 16-bit patterns.
        let mut lfsr = GaloisLfsr::maximal(64, 0xACE1);
        let bits: String = (0..48)
            .map(|_| if lfsr.next_bit() { '1' } else { '0' })
            .collect();
        assert_eq!(bits, "101110100100111101011100010010011001000101010010");
    }

    #[test]
    fn seed_expansion_is_dense_and_zero_safe() {
        let a = GaloisLfsr::maximal(16, 1);
        // A sparse seed still yields a dense (multi-bit) starting state.
        assert!(a.state().count_ones() > 2);
        // Distinct seeds give distinct states.
        assert_ne!(a.state(), GaloisLfsr::maximal(16, 2).state());
        // Degree confinement.
        assert_eq!(a.state() & !0xFFFF, 0);
    }

    #[test]
    fn serial_output_reads_before_stepping() {
        let mut lfsr = GaloisLfsr::maximal(8, 42);
        let state = lfsr.state();
        assert_eq!(lfsr.next_bit(), state & 1 == 1);
        assert_ne!(lfsr.state(), state);
    }

    #[test]
    #[should_panic(expected = "no built-in maximal polynomial")]
    fn unsupported_degree_panics() {
        let _ = GaloisLfsr::maximal(5, 1);
    }

    #[test]
    fn try_maximal_returns_typed_errors() {
        let lfsr = GaloisLfsr::try_maximal(16, 7).expect("supported degree");
        assert_eq!(lfsr, GaloisLfsr::maximal(16, 7));
        let error = GaloisLfsr::try_maximal(5, 7).expect_err("unsupported degree");
        assert_eq!(error.value(), "5");
        assert!(error.to_string().contains("4, 8, 12, 16"), "{error}");
    }

    #[test]
    #[should_panic(expected = "bits outside")]
    fn oversized_polynomial_panics() {
        let _ = GaloisLfsr::with_polynomial(8, 0x1FF, 1);
    }
}

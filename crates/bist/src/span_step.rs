//! Advancing a MISR over a whole span of clocks in one table-driven step.
//!
//! The register step `A` (one Galois shift with feedback) is linear over
//! GF(2), so `n` clocks with incoming words `in_0 … in_{n−1}` leave
//!
//! ```text
//! state_n = A^n state_0  ⊕  ⊕_u A^(n−1−u) in_u
//! ```
//!
//! and every term is a power of `A` applied to one unit vector.  Below
//! position 0 the step is a plain right shift (`A e_p = e_{p−1}`), so an
//! input bit on register position `p` clocked in at slot `u` of the span
//! behaves like a bit at *virtual time* `t = u + p + 1` of a register
//! whose only input is position 0: once `t ≤ n − 1` it has been shifted out
//! through the feedback and contributes `g(n − t) = A^(n−t) e_0`; otherwise
//! it is still inside the register at position `t − n`.  The carried state
//! is the same thing with `u = −1`.
//!
//! A [`SpanStep`] lays those virtual times out in one `u128` (`Z`), aligned
//! so that bit `j` of `Z` stands for `g(64 − j)` below bit 64 and for the
//! register position `j − 64` from bit 64 up: building `Z` is a handful of
//! shifts and XORs per output word, and reducing it is eight byte-indexed
//! table lookups.  Both depend only on the register width — never on the
//! session length or the pattern count — and the result equals clocking
//! the register `n` times with the per-slot compressed words, bit for bit.

use crate::misr::Misr;
use lsiq_sim::packed::PATTERNS_PER_WORD;

/// Most clocks one step can advance: one packed lane word.
pub(crate) const MAX_SPAN: usize = PATTERNS_PER_WORD;

/// The slots `[start, end)` of one lane word that a single step advances
/// the register across (`1 ≤ end − start`, `end ≤ 64`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct LaneSpan {
    /// The span's slots within the lane word.
    mask: u64,
    /// `64 − n`: where the carried state lands in `Z`.
    carry_shift: u32,
    /// `64 − end`: added to an output's lead, the shift that puts each
    /// slot of its lane word at that bit's virtual time in `Z`.
    input_shift: u32,
}

impl LaneSpan {
    /// The span of slots `start..end` of a lane word.
    #[inline]
    pub(crate) fn new(start: usize, end: usize) -> LaneSpan {
        debug_assert!(start < end && end <= MAX_SPAN, "span {start}..{end}");
        let len = end - start;
        LaneSpan {
            mask: (u64::MAX >> (MAX_SPAN - len)) << start,
            carry_shift: (MAX_SPAN - len) as u32,
            input_shift: (MAX_SPAN - end) as u32,
        }
    }

    /// The `Z` term of the register's state at the start of the span.
    #[inline]
    pub(crate) fn carry(self, state: u64) -> u128 {
        u128::from(state) << self.carry_shift
    }

    /// The `Z` term of one output's lane word, for an output whose lead
    /// ([`SpanStep::lead`]) is `lead`.  Slots outside the span are ignored.
    #[inline]
    pub(crate) fn input(self, word: u64, lead: u8) -> u128 {
        u128::from(word & self.mask) << (u32::from(lead) + self.input_shift)
    }
}

/// The width-`k` MISR's span step: `state' = (Z ≫ 64) ⊕ ⊕_b T_b[byte b of Z]`
/// with `T_b[v] = ⊕_{i ∈ bits(v)} g(64 − 8b − i)` (16 KB of tables).
#[derive(Debug, Clone)]
pub(crate) struct SpanStep {
    width: u32,
    tables: Box<[[u64; 256]; 8]>,
}

impl SpanStep {
    /// The tables of the `width`-bit register.
    ///
    /// # Panics
    ///
    /// Panics if `width` is not a supported MISR width.
    pub(crate) fn new(width: u32) -> SpanStep {
        // g[m] = A^m e_0: clock in a 1, then m zeros.
        let mut misr = Misr::new(width);
        misr.clock(1);
        let mut g = [0u64; MAX_SPAN + 1];
        for power in g.iter_mut().skip(1) {
            misr.clock(0);
            *power = misr.signature();
        }
        let mut tables = Box::new([[0u64; 256]; 8]);
        for (byte, table) in tables.iter_mut().enumerate() {
            for value in 1usize..256 {
                let low = value.trailing_zeros() as usize;
                table[value] = table[value & (value - 1)] ^ g[MAX_SPAN - 8 * byte - low];
            }
        }
        SpanStep { width, tables }
    }

    /// The virtual-time offset `(output mod k) + 1` of circuit output
    /// `output` — its register position, plus the one clock between an
    /// input bit and the register's next shift.
    pub(crate) fn lead(&self, output: usize) -> u8 {
        (output % self.width as usize + 1) as u8
    }

    /// The register after the span whose `Z` is `z`.
    #[inline]
    pub(crate) fn advance(&self, z: u128) -> u64 {
        let low = z as u64;
        let mut state = (z >> 64) as u64;
        for (byte, table) in self.tables.iter().enumerate() {
            state ^= table[(low >> (8 * byte)) as usize & 0xff];
        }
        state
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lfsr::{state_mask, SUPPORTED_DEGREES};
    use lsiq_stats::rng::{Rng, Xoshiro256StarStar};

    #[test]
    fn one_step_equals_clocking_slot_by_slot() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(0x5_7E9);
        for width in SUPPORTED_DEGREES {
            let step = SpanStep::new(width);
            // Up to three times as many outputs as register positions, so
            // output positions wrap modulo the width.
            let outputs = 3 * width as usize + 5;
            for len in 1..=MAX_SPAN {
                for _ in 0..4 {
                    let start = rng.next_index(MAX_SPAN - len + 1);
                    let span = LaneSpan::new(start, start + len);
                    let state = rng.next_u64() & state_mask(width);
                    let words: Vec<u64> = (0..outputs)
                        .map(|_| match rng.next_index(4) {
                            0 => 0,
                            1 => rng.next_u64() & rng.next_u64() & rng.next_u64(),
                            _ => rng.next_u64(),
                        })
                        .collect();

                    let mut z = span.carry(state);
                    for (output, &word) in words.iter().enumerate() {
                        z ^= span.input(word, step.lead(output));
                    }

                    // The reference: load the state, then fold one response
                    // per slot of the span.
                    let mut misr = Misr::new(width);
                    misr.clock(state);
                    for slot in start..start + len {
                        misr.fold(words.iter().map(|word| (word >> slot) & 1 == 1));
                    }
                    assert_eq!(
                        step.advance(z),
                        misr.signature(),
                        "width {width}, span {start}..{}",
                        start + len
                    );
                }
            }
        }
    }
}

//! The bit-parallel pattern layout: [`PackedBlock<L>`].
//!
//! A packed chunk carries one bit per pattern for one signal: `L` `u64`
//! words — `64 × L` patterns — laid out lane-major, so lane `l` holds
//! patterns `l * 64 ..= l * 64 + 63` and pattern slot `s` lives at bit
//! `s % 64` of lane `s / 64`.  `PackedBlock<1>` is the single 64-pattern
//! word.  Every bit-parallel evaluation in the workspace — the engines' good
//! machines, the cone kernel and the signature sweep — uses this one type.
//!
//! Every lane operation is a straight-line loop over the `[u64; L]` array,
//! which the autovectorizer turns into 256-bit (`L = 4`) or 512-bit
//! (`L = 8`) vector ops on hardware that has them; on hardware that does
//! not, the loop is still `L` independent scalar ops with one shared
//! loop/dispatch overhead, which is most of the win.

use std::ops::{BitAnd, BitAndAssign, BitOr, BitOrAssign, BitXor, BitXorAssign, Not};

/// Number of patterns carried by one packed word.
pub const PATTERNS_PER_WORD: usize = 64;

/// One simulation chunk of `L` packed words: `64 × L` patterns carried per
/// signal, lane-major (pattern slot `s` is bit `s % 64` of lane `s / 64`).
///
/// `L = 1` is the classic single-word block; `L = 4` and `L = 8` are the
/// SIMD-wide variants the engines monomorphize over (`LSIQ_LANES`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(transparent)]
pub struct PackedBlock<const L: usize>(pub [u64; L]);

impl<const L: usize> PackedBlock<L> {
    /// Patterns carried by one chunk.
    pub const PATTERNS: usize = PATTERNS_PER_WORD * L;

    /// The all-zero chunk (every pattern 0).
    pub const ZERO: PackedBlock<L> = PackedBlock([0; L]);

    /// The all-one chunk (every pattern 1).
    pub const ONES: PackedBlock<L> = PackedBlock([u64::MAX; L]);

    /// Expands a single boolean into a full chunk (all patterns equal).
    #[inline]
    pub fn splat(value: bool) -> PackedBlock<L> {
        if value {
            PackedBlock::ONES
        } else {
            PackedBlock::ZERO
        }
    }

    /// A mask with the low `count` pattern slots set, selecting the valid
    /// patterns of a partially filled chunk.
    ///
    /// # Panics
    ///
    /// Panics if `count` exceeds [`PackedBlock::PATTERNS`].
    pub fn valid_mask(count: usize) -> PackedBlock<L> {
        assert!(
            count <= Self::PATTERNS,
            "a chunk holds at most {} patterns",
            Self::PATTERNS
        );
        let mut mask = PackedBlock::ZERO;
        for (lane, word) in mask.0.iter_mut().enumerate() {
            *word = match count.saturating_sub(lane * PATTERNS_PER_WORD) {
                filled if filled >= PATTERNS_PER_WORD => u64::MAX,
                filled => (1u64 << filled) - 1,
            };
        }
        mask
    }

    /// Extracts the bit for pattern `slot`.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is [`PackedBlock::PATTERNS`] or more.
    #[inline]
    pub fn bit(self, slot: usize) -> bool {
        assert!(slot < Self::PATTERNS, "pattern slot out of range");
        (self.0[slot / PATTERNS_PER_WORD] >> (slot % PATTERNS_PER_WORD)) & 1 == 1
    }

    /// Returns `true` if no pattern bit is set.
    #[inline]
    pub fn is_zero(self) -> bool {
        let mut or = 0u64;
        for &word in &self.0 {
            or |= word;
        }
        or == 0
    }

    /// The lowest set pattern slot, if any — lanes are scanned in lane
    /// order, so this is the earliest pattern in application order.
    #[inline]
    pub fn first_set_slot(self) -> Option<usize> {
        for (lane, &word) in self.0.iter().enumerate() {
            if word != 0 {
                return Some(lane * PATTERNS_PER_WORD + word.trailing_zeros() as usize);
            }
        }
        None
    }
}

impl<const L: usize> Default for PackedBlock<L> {
    fn default() -> PackedBlock<L> {
        PackedBlock::ZERO
    }
}

impl<const L: usize> Not for PackedBlock<L> {
    type Output = PackedBlock<L>;

    #[inline]
    fn not(self) -> PackedBlock<L> {
        let mut out = self;
        for word in &mut out.0 {
            *word = !*word;
        }
        out
    }
}

macro_rules! lane_binop {
    ($trait:ident, $method:ident, $assign_trait:ident, $assign_method:ident, $assign_op:tt) => {
        impl<const L: usize> $trait for PackedBlock<L> {
            type Output = PackedBlock<L>;

            #[inline]
            fn $method(self, rhs: PackedBlock<L>) -> PackedBlock<L> {
                let mut out = self;
                for (word, &other) in out.0.iter_mut().zip(&rhs.0) {
                    *word $assign_op other;
                }
                out
            }
        }

        impl<const L: usize> $assign_trait for PackedBlock<L> {
            #[inline]
            fn $assign_method(&mut self, rhs: PackedBlock<L>) {
                for (word, &other) in self.0.iter_mut().zip(&rhs.0) {
                    *word $assign_op other;
                }
            }
        }
    };
}

lane_binop!(BitAnd, bitand, BitAndAssign, bitand_assign, &=);
lane_binop!(BitOr, bitor, BitOrAssign, bitor_assign, |=);
lane_binop!(BitXor, bitxor, BitXorAssign, bitxor_assign, ^=);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_valid_mask_covers_partial_lanes() {
        let mask = PackedBlock::<4>::valid_mask(130);
        assert_eq!(mask.0, [u64::MAX, u64::MAX, 0b11, 0]);
        assert_eq!(PackedBlock::<4>::valid_mask(0), PackedBlock::ZERO);
        assert_eq!(PackedBlock::<4>::valid_mask(256), PackedBlock::ONES);
        assert_eq!(PackedBlock::<1>::valid_mask(5).0, [0b1_1111]);
        assert_eq!(PackedBlock::<1>::valid_mask(64), PackedBlock::ONES);
    }

    #[test]
    #[should_panic(expected = "at most 256")]
    fn oversized_chunk_mask_panics() {
        let _ = PackedBlock::<4>::valid_mask(257);
    }

    #[test]
    fn chunk_bit_and_splat() {
        let mut chunk = PackedBlock::<2>::ZERO;
        chunk.0[1] = 0b100;
        assert!(chunk.bit(66));
        assert!(!chunk.bit(2));
        assert_eq!(PackedBlock::<2>::splat(true), PackedBlock::ONES);
        assert_eq!(PackedBlock::<2>::splat(false), PackedBlock::ZERO);
    }

    #[test]
    #[should_panic(expected = "slot out of range")]
    fn chunk_bit_out_of_range_panics() {
        let _ = PackedBlock::<2>::ZERO.bit(128);
    }

    #[test]
    fn chunk_first_set_slot_scans_lanes_in_order() {
        let mut chunk = PackedBlock::<4>::ZERO;
        assert_eq!(chunk.first_set_slot(), None);
        assert!(chunk.is_zero());
        chunk.0[2] = 0b1000;
        chunk.0[3] = 1;
        assert_eq!(chunk.first_set_slot(), Some(2 * 64 + 3));
        assert!(!chunk.is_zero());
    }

    #[test]
    fn chunk_bit_ops_work_per_lane() {
        let a = PackedBlock::<2>([0b1100, 0b1010]);
        let b = PackedBlock::<2>([0b1010, 0b0110]);
        assert_eq!((a & b).0, [0b1000, 0b0010]);
        assert_eq!((a | b).0, [0b1110, 0b1110]);
        assert_eq!((a ^ b).0, [0b0110, 0b1100]);
        assert_eq!((!PackedBlock::<2>::ZERO), PackedBlock::ONES);
        let mut acc = a;
        acc &= b;
        assert_eq!(acc, a & b);
        acc = a;
        acc |= b;
        assert_eq!(acc, a | b);
        acc = a;
        acc ^= b;
        assert_eq!(acc, a ^ b);
    }
}

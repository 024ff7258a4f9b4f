//! Input pattern containers.

use std::fmt;

/// One test pattern: a logic value for every primary input, in the order the
/// circuit declares its primary inputs.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct Pattern {
    bits: Vec<bool>,
}

impl Pattern {
    /// Creates a pattern from an iterator of bits (primary-input order).
    pub fn from_bits<I: IntoIterator<Item = bool>>(bits: I) -> Self {
        Pattern {
            bits: bits.into_iter().collect(),
        }
    }

    /// Creates the all-zero pattern of the given width.
    pub fn zeros(width: usize) -> Self {
        Pattern {
            bits: vec![false; width],
        }
    }

    /// Creates a pattern from the low `width` bits of `value`
    /// (bit 0 drives the first primary input).
    pub fn from_integer(value: u64, width: usize) -> Self {
        Pattern {
            bits: (0..width).map(|bit| (value >> bit) & 1 == 1).collect(),
        }
    }

    /// The pattern width (number of primary inputs covered).
    pub fn width(&self) -> usize {
        self.bits.len()
    }

    /// Returns `true` if the pattern has no bits.
    pub fn is_empty(&self) -> bool {
        self.bits.is_empty()
    }

    /// The bit for primary input `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn bit(&self, index: usize) -> bool {
        self.bits[index]
    }

    /// All bits in primary-input order.
    pub fn bits(&self) -> &[bool] {
        &self.bits
    }
}

impl fmt::Display for Pattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for &bit in &self.bits {
            write!(f, "{}", u8::from(bit))?;
        }
        Ok(())
    }
}

impl FromIterator<bool> for Pattern {
    fn from_iter<I: IntoIterator<Item = bool>>(iter: I) -> Self {
        Pattern::from_bits(iter)
    }
}

/// An ordered collection of patterns, applied to the chip in order exactly as
/// the paper's tester applies its preliminary test sequence.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PatternSet {
    patterns: Vec<Pattern>,
}

impl PatternSet {
    /// Creates an empty pattern set.
    pub fn new() -> Self {
        PatternSet::default()
    }

    /// Appends a pattern at the end of the ordered set.
    pub fn push(&mut self, pattern: Pattern) {
        self.patterns.push(pattern);
    }

    /// Number of patterns.
    pub fn len(&self) -> usize {
        self.patterns.len()
    }

    /// Returns `true` if the set holds no patterns.
    pub fn is_empty(&self) -> bool {
        self.patterns.is_empty()
    }

    /// The pattern at position `index`.
    pub fn get(&self, index: usize) -> Option<&Pattern> {
        self.patterns.get(index)
    }

    /// Iterates over patterns in application order.
    pub fn iter(&self) -> std::slice::Iter<'_, Pattern> {
        self.patterns.iter()
    }

    /// All patterns as a slice.
    pub fn as_slice(&self) -> &[Pattern] {
        &self.patterns
    }

    /// Packs patterns `chunk * 64 * L ..` into one lane-wide
    /// [`PackedBlock`](crate::packed::PackedBlock) per primary input: pattern
    /// slot `i` of the chunk (bit `i % 64` of lane `i / 64`) is the value
    /// input `j` takes in pattern `chunk * 64 * L + i`.  The second element
    /// of the returned pair is the number of valid patterns in the chunk
    /// (1..=`64 * L`), or 0 when the chunk index is past the end.
    pub fn pack_chunk<const L: usize>(
        &self,
        width: usize,
        chunk: usize,
    ) -> (Vec<crate::packed::PackedBlock<L>>, usize) {
        use crate::packed::PackedBlock;
        let start = chunk * PackedBlock::<L>::PATTERNS;
        if start >= self.patterns.len() {
            return (vec![PackedBlock::ZERO; width], 0);
        }
        let end = (start + PackedBlock::<L>::PATTERNS).min(self.patterns.len());
        let mut words = vec![PackedBlock::<L>::ZERO; width];
        for (slot, pattern) in self.patterns[start..end].iter().enumerate() {
            let lane = slot / 64;
            let bit = slot % 64;
            for (input, word) in words.iter_mut().enumerate() {
                if input < pattern.width() && pattern.bit(input) {
                    word.0[lane] |= 1u64 << bit;
                }
            }
        }
        (words, end - start)
    }

    /// Number of `64 * lanes`-pattern chunks needed to cover the whole set.
    pub fn chunk_count(&self, lanes: usize) -> usize {
        self.patterns.len().div_ceil(64 * lanes)
    }
}

impl FromIterator<Pattern> for PatternSet {
    fn from_iter<I: IntoIterator<Item = Pattern>>(iter: I) -> Self {
        PatternSet {
            patterns: iter.into_iter().collect(),
        }
    }
}

impl<'a> IntoIterator for &'a PatternSet {
    type Item = &'a Pattern;
    type IntoIter = std::slice::Iter<'a, Pattern>;

    fn into_iter(self) -> Self::IntoIter {
        self.patterns.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pattern_constructors() {
        let p = Pattern::from_integer(0b1011, 5);
        assert_eq!(p.width(), 5);
        assert!(p.bit(0) && p.bit(1) && !p.bit(2) && p.bit(3) && !p.bit(4));
        assert_eq!(Pattern::zeros(3).bits(), &[false, false, false]);
        let collected: Pattern = [true, false].into_iter().collect();
        assert_eq!(collected.width(), 2);
        assert!(!Pattern::from_bits([true]).is_empty());
    }

    #[test]
    fn pattern_set_basics() {
        let mut set = PatternSet::new();
        assert!(set.is_empty());
        set.push(Pattern::from_integer(1, 3));
        set.push(Pattern::from_integer(2, 3));
        assert_eq!(set.len(), 2);
        assert_eq!(set.get(0).expect("exists").to_string(), "100");
        assert!(set.get(5).is_none());
        assert_eq!(set.iter().count(), 2);
    }

    #[test]
    fn pack_chunk_transposes_patterns() {
        // Three patterns over two inputs.
        let set: PatternSet = [
            Pattern::from_bits([true, false]),
            Pattern::from_bits([false, true]),
            Pattern::from_bits([true, true]),
        ]
        .into_iter()
        .collect();
        let (words, count) = set.pack_chunk::<1>(2, 0);
        assert_eq!(count, 3);
        // Input 0 takes values 1,0,1 across patterns 0..2 -> bits 0b101.
        assert_eq!(words[0].0[0] & 0b111, 0b101);
        // Input 1 takes values 0,1,1 -> bits 0b110.
        assert_eq!(words[1].0[0] & 0b111, 0b110);
    }

    #[test]
    fn pack_chunk_past_end_is_empty() {
        let set: PatternSet = (0..70).map(|i| Pattern::from_integer(i, 4)).collect();
        assert_eq!(set.chunk_count(1), 2);
        let (_, count0) = set.pack_chunk::<1>(4, 0);
        let (_, count1) = set.pack_chunk::<1>(4, 1);
        let (past, count2) = set.pack_chunk::<1>(4, 2);
        assert_eq!(count0, 64);
        assert_eq!(count1, 6);
        assert_eq!(count2, 0);
        assert!(past.iter().all(|w| w.is_zero()));
    }

    #[test]
    fn wide_chunks_agree_with_single_word_chunks_lane_by_lane() {
        let set: PatternSet = (0..300u64)
            .map(|i| Pattern::from_integer(i.wrapping_mul(0x9E37), 7))
            .collect();
        assert_eq!(set.chunk_count(4), 2);
        assert_eq!(set.chunk_count(1), 5);
        for chunk in 0..3 {
            let (words, count) = set.pack_chunk::<4>(7, chunk);
            let mut expected_count = 0;
            for lane in 0..4 {
                let (lane_words, lane_count) = set.pack_chunk::<1>(7, chunk * 4 + lane);
                expected_count += lane_count;
                for (input, word) in words.iter().enumerate() {
                    assert_eq!(
                        word.0[lane], lane_words[input].0[0],
                        "chunk {chunk} lane {lane}"
                    );
                }
            }
            assert_eq!(count, expected_count, "chunk {chunk}");
        }
        // The tail chunk is partial; past the end: zero words, zero count.
        let (_, tail_count) = set.pack_chunk::<4>(7, 1);
        assert_eq!(tail_count, 300 - 256);
        let (past, past_count) = set.pack_chunk::<4>(7, 5);
        assert_eq!(past_count, 0);
        assert!(past.iter().all(|w| w.is_zero()));
    }

    #[test]
    fn pack_chunk_handles_narrow_patterns() {
        // A pattern narrower than the requested width leaves missing inputs 0.
        let set: PatternSet = [Pattern::from_bits([true])].into_iter().collect();
        let (words, count) = set.pack_chunk::<1>(3, 0);
        assert_eq!(count, 1);
        assert_eq!(words[0].0[0] & 1, 1);
        assert!(words[1].is_zero());
        assert!(words[2].is_zero());
    }
}

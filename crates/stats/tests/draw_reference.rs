//! Reference checks for the model-lot draws: the reusable
//! [`IndexSampler`] and the set-up-once [`Poisson`] must consume the same
//! random numbers and return the same values as the straightforward
//! implementations they replaced, which are kept here as test-local copies.

use lsiq_stats::dist::{Poisson, Sample};
use lsiq_stats::rng::{IndexSampler, Rng, Xoshiro256StarStar};
use std::collections::BTreeSet;

/// Floyd's algorithm over a `BTreeSet`.
fn reference_floyd(len: usize, count: usize, rng: &mut Xoshiro256StarStar) -> BTreeSet<usize> {
    let mut chosen = BTreeSet::new();
    for j in (len - count)..len {
        let t = rng.next_index(j + 1);
        if !chosen.insert(t) {
            chosen.insert(j);
        }
    }
    chosen
}

/// Poisson draw with the additive split above 30 and a fresh `exp` per
/// Knuth call.
fn reference_poisson(mean: f64, rng: &mut Xoshiro256StarStar) -> u64 {
    fn knuth(mean: f64, rng: &mut Xoshiro256StarStar) -> u64 {
        let threshold = (-mean).exp();
        let mut product = 1.0;
        let mut count = 0u64;
        loop {
            product *= rng.next_f64();
            if product <= threshold {
                return count;
            }
            count += 1;
        }
    }
    let mut remaining = mean;
    let mut total = 0u64;
    while remaining > 30.0 {
        total += knuth(30.0, rng);
        remaining -= 30.0;
    }
    if remaining > 0.0 {
        total += knuth(remaining, rng);
    }
    total
}

#[test]
fn index_sampler_picks_the_reference_floyd_set() {
    for len in [1usize, 5, 63, 64, 65, 12_114] {
        // Every count from 0 to 2 and from `len - 2` to `len`, plus the
        // middle; on the 12,114-fault device, the counts a lot draws (a
        // few dozen at most) and the full population.
        let mut counts = if len > 1_000 {
            vec![0, 1, 2, 64, len]
        } else {
            vec![0, 1, 2, len / 2, len.saturating_sub(2), len - 1, len]
        };
        counts.retain(|&count| count <= len);
        counts.sort_unstable();
        counts.dedup();
        // One sampler per population, reused across every draw: a draw
        // must leave no membership bit behind for the next one.
        let mut sampler = IndexSampler::new(len);
        let mut marked = vec![false; len];
        for &count in &counts {
            // 1,000 seeds per count; the full 12,114-fault draw gets 100:
            // at 1,000 its `BTreeSet` reference would make 12 million
            // inserts in a debug build.
            let seeds = if count > 1_000 { 100 } else { 1_000 };
            for seed in 0..seeds {
                let case = format!("len {len}, count {count}, seed {seed}");
                let mut ours_rng = Xoshiro256StarStar::stream(seed, len as u64);
                let mut reference_rng = ours_rng.clone();
                let ours = sampler.sample(count, &mut ours_rng);
                let reference = reference_floyd(len, count, &mut reference_rng);
                assert_eq!(ours.len(), reference.len(), "{case}");
                for &index in &reference {
                    marked[index] = true;
                }
                for &index in ours {
                    assert!(std::mem::take(&mut marked[index]), "{case}: {index}");
                }
                assert_eq!(ours_rng, reference_rng, "{case}: RNG state");
            }
        }
    }
}

#[test]
fn poisson_draws_match_the_per_call_reference() {
    for mean in [0.5, 7.0, 29.5, 30.0, 30.5, 60.0, 94.0, 1_234.567] {
        let poisson = Poisson::new(mean).expect("positive mean");
        let mut ours_rng = Xoshiro256StarStar::seed_from_u64(mean.to_bits());
        let mut reference_rng = ours_rng.clone();
        let draws = if mean > 1_000.0 { 100 } else { 2_000 };
        for draw in 0..draws {
            assert_eq!(
                poisson.sample(&mut ours_rng),
                reference_poisson(mean, &mut reference_rng),
                "mean {mean}, draw {draw}"
            );
            assert_eq!(
                ours_rng, reference_rng,
                "mean {mean}, draw {draw}: RNG state"
            );
        }
    }
}

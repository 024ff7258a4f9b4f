//! Seeded stress test for the `ExecutionContext` fork-join, `shard_map`.
//!
//! `shard_map` underpins every parallel stage of the reproduction, so this
//! suite pins the property everything else relies on: scheduling is
//! invisible.  A seeded workload of sequential fork-joins — each shard
//! forking again through a *nested* `shard_map` on the same context — must
//! produce bit-identical results at 1, 2 and 2×cores workers, and must match
//! a straight serial evaluation of the same arithmetic.

use lsi_quality::exec::{shard_map, ExecutionContext};
use lsi_quality::stats::rng::{Rng, SplitMix64};

/// Deterministic per-job arithmetic (a SplitMix-style mix), heavy enough to
/// keep many shards busy at once.
fn mix(seed: u64, rounds: u64) -> u64 {
    let mut acc = seed;
    for round in 0..rounds {
        acc = acc
            .wrapping_add(0x9E37_79B9_7F4A_7C15)
            .wrapping_mul(round | 1);
        acc ^= acc >> 27;
    }
    acc
}

/// One seeded campaign: `scopes` sequential fork-joins on one context,
/// each over a seeded number of jobs; every job forks again into a nested
/// `shard_map` over four sub-streams.  Returns one checksum per round.
fn run_campaign(context: &ExecutionContext, seed: u64, scopes: usize) -> Vec<u64> {
    let mut rng = SplitMix64::seed_from_u64(seed);
    let mut checksums = Vec::with_capacity(scopes);
    for _ in 0..scopes {
        let jobs = 1 + (rng.next_u64() % 24) as usize;
        let job_seeds: Vec<u64> = (0..jobs).map(|_| rng.next_u64()).collect();
        let slots = shard_map(Some(context), jobs, 1, |range| {
            job_seeds[range]
                .iter()
                .map(|&job_seed| {
                    let parts = shard_map(Some(context), 4, 1, |parts| {
                        parts
                            .map(|index| mix(job_seed ^ index as u64, 200 + index as u64))
                            .collect::<Vec<_>>()
                    })
                    .concat();
                    parts.iter().fold(job_seed, |acc, &part| acc ^ part)
                })
                .collect::<Vec<_>>()
        })
        .concat();
        checksums.push(
            slots
                .iter()
                .fold(0u64, |acc, &value| acc.rotate_left(7) ^ value),
        );
    }
    checksums
}

/// The same campaign evaluated serially, with no context at all — the
/// ground truth the forked runs must reproduce bit for bit.
fn run_campaign_serially(seed: u64, scopes: usize) -> Vec<u64> {
    let mut rng = SplitMix64::seed_from_u64(seed);
    let mut checksums = Vec::with_capacity(scopes);
    for _ in 0..scopes {
        let jobs = 1 + (rng.next_u64() % 24) as usize;
        let mut slots = Vec::with_capacity(jobs);
        for _ in 0..jobs {
            let job_seed = rng.next_u64();
            let mut value = job_seed;
            for index in 0..4u64 {
                value ^= mix(job_seed ^ index, 200 + index);
            }
            slots.push(value);
        }
        checksums.push(
            slots
                .iter()
                .fold(0u64, |acc, &value| acc.rotate_left(7) ^ value),
        );
    }
    checksums
}

#[test]
fn nested_and_sequential_scopes_are_deterministic_at_every_worker_count() {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    for seed in [0x1981u64, 0xDAC, 7] {
        let expected = run_campaign_serially(seed, 12);
        for workers in [1, 2, 2 * cores] {
            let context = ExecutionContext::new(workers);
            assert_eq!(
                expected,
                run_campaign(&context, seed, 12),
                "seed {seed:#x}, {workers} workers"
            );
        }
    }
}

#[test]
fn one_pool_survives_many_sequential_campaigns() {
    // A session-lifetime context: the same context serves campaign after
    // campaign (as a Session serves suite building, lot generation, testing
    // and sweeping) without drift.
    let context = ExecutionContext::new(3);
    for seed in 0..6u64 {
        assert_eq!(
            run_campaign_serially(seed, 4),
            run_campaign(&context, seed, 4),
            "campaign seed {seed}"
        );
    }
    assert_eq!(context.workers(), 3);
}

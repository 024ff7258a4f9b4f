//! Differential tests: the streaming lot executor must be byte-identical to
//! the in-memory pipeline at every worker count and block length, and must
//! hold bounded memory on lots far too large to materialize.

use lsiq_exec::ExecutionContext;
use lsiq_fault::coverage::CoverageCurve;
use lsiq_fault::dictionary::FaultDictionary;
use lsiq_fault::incremental::IncrementalSimulator;
use lsiq_fault::simulator::FaultSimulator;
use lsiq_fault::universe::FaultUniverse;
use lsiq_manufacturing::lot::ModelLotConfig;
use lsiq_manufacturing::streaming::StreamingLotExecutor;
use lsiq_manufacturing::ParallelLotRunner;
use lsiq_sim::pattern::{Pattern, PatternSet};

fn suite() -> (FaultDictionary, CoverageCurve, usize) {
    let circuit = lsiq_netlist::library::alu4();
    let universe = FaultUniverse::full(&circuit);
    let patterns: PatternSet = (0..128u64)
        .map(|v| Pattern::from_integer(v * 37 + 11, 10))
        .collect();
    let list = IncrementalSimulator::new(&circuit).run(&universe, &patterns);
    let coverage = CoverageCurve::from_fault_list(&list, patterns.len());
    let dictionary = FaultDictionary::from_fault_list(&list);
    (dictionary, coverage, universe.len())
}

/// The worker ladder the issue asks for: 1, 2, and twice the machine's
/// cores (clamped below at 2 so the ladder is meaningful on one core).
fn worker_ladder() -> [usize; 3] {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    [1, 2, (2 * cores).max(2)]
}

#[test]
fn streaming_matches_in_memory_across_workers_and_blocks() {
    let (dictionary, coverage, universe) = suite();
    let config = ModelLotConfig {
        chips: 4_777,
        yield_fraction: 0.07,
        n0: 8.0,
        fault_universe_size: universe,
        seed: 1981,
    };
    let checkpoints: Vec<usize> = (1..=coverage.pattern_count()).collect();
    let reference = ParallelLotRunner::default().run_model_line(&config, &dictionary, &coverage);
    let reference_nav = lsiq_manufacturing::ChipLot::from_model(&config).observed_nav();
    for workers in worker_ladder() {
        let context = ExecutionContext::new(workers);
        for block in [1, 97, 1_024, 1_000_000] {
            let streamed = StreamingLotExecutor::with_context(&context)
                .with_block_len(block)
                .stream_model_lot(&config, &dictionary, &coverage, &checkpoints);
            assert_eq!(
                streamed.outcome, reference.outcome,
                "workers {workers}, block {block}"
            );
            assert_eq!(
                streamed.experiment, reference.experiment,
                "workers {workers}, block {block}"
            );
            // Byte-level equality on every derived float, not approximate.
            assert_eq!(
                streamed.observed_yield.to_bits(),
                reference.observed_yield.to_bits()
            );
            assert_eq!(
                streamed.observed_n0.to_bits(),
                reference.observed_n0.to_bits()
            );
            assert_eq!(streamed.observed_nav.to_bits(), reference_nav.to_bits());
            for (ours, theirs) in streamed
                .experiment
                .rows()
                .iter()
                .zip(reference.experiment.rows())
            {
                assert_eq!(
                    ours.fraction_failed.to_bits(),
                    theirs.fraction_failed.to_bits()
                );
                assert_eq!(
                    ours.fault_coverage.to_bits(),
                    theirs.fault_coverage.to_bits()
                );
            }
        }
    }
}

#[test]
fn streaming_respects_the_run_config_worker_count() {
    let (dictionary, coverage, universe) = suite();
    let config = ModelLotConfig {
        chips: 1_003,
        yield_fraction: 0.3,
        n0: 3.0,
        fault_universe_size: universe,
        seed: 77,
    };
    let checkpoints = [8usize, 32, 128];
    let context = ExecutionContext::new(2);
    let pinned = StreamingLotExecutor::with_context(&context)
        .with_block_len(256)
        .stream_model_lot(&config, &dictionary, &coverage, &checkpoints);
    let fresh = StreamingLotExecutor::default().stream_model_lot(
        &config,
        &dictionary,
        &coverage,
        &checkpoints,
    );
    assert_eq!(pinned, fresh);
}

/// The acceptance bar: a 10^9-chip lot streams to completion in bounded
/// memory.  A lot this size would need tens of gigabytes to materialize
/// (~40 B per record alone); the streaming executor holds one block of
/// integer folds instead.  Run with `cargo test -- --ignored` (about a
/// minute in release mode).
#[test]
#[ignore = "billion-chip endurance run; invoke with --ignored"]
fn billion_chip_lot_streams_in_bounded_memory() {
    let (dictionary, coverage, universe) = suite();
    let config = ModelLotConfig {
        chips: 1_000_000_000,
        // High yield keeps most chips on the one-RNG-draw fast path so the
        // endurance run finishes in CI time; the memory bound is identical
        // at any yield.
        yield_fraction: 0.999,
        n0: 2.0,
        fault_universe_size: universe,
        seed: 1981,
    };
    let checkpoints = [16usize, 64, 128];
    let context = ExecutionContext::new(0);
    let streamed = StreamingLotExecutor::with_context(&context)
        .with_block_len(1 << 20)
        .stream_model_lot(&config, &dictionary, &coverage, &checkpoints);
    assert_eq!(streamed.chips, 1_000_000_000);
    assert_eq!(streamed.outcome.total, 1_000_000_000);
    assert_eq!(
        streamed.outcome.shipped + streamed.outcome.rejected,
        streamed.outcome.total
    );
    // The generator draws good chips with probability 0.999.
    assert!((streamed.observed_yield - 0.999).abs() < 1e-4);
    let last = streamed.experiment.rows().last().expect("rows");
    assert!(last.fraction_failed > 0.0);
}

/// 64-bit FNV-1a over the little-endian bytes of `value`, continuing from
/// `hash`.
fn fnv(hash: u64, value: u64) -> u64 {
    value.to_le_bytes().iter().fold(hash, |hash, &byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Digest of every chip's sorted fault indices, in lot order.
fn lot_digest(lot: &lsiq_manufacturing::ChipLot) -> u64 {
    lot.chips().iter().fold(FNV_OFFSET, |hash, chip| {
        let hash = fnv(hash, chip.fault_count() as u64);
        chip.fault_indices()
            .iter()
            .fold(hash, |hash, &fault| fnv(hash, fault as u64))
    })
}

/// Digest of every field of a streamed lot, floats by their bits.
fn streamed_digest(streamed: &lsiq_manufacturing::StreamedLot) -> u64 {
    let outcome = &streamed.outcome;
    let mut hash = [
        streamed.chips as u64,
        outcome.shipped as u64,
        outcome.escapes as u64,
        outcome.rejected as u64,
        outcome.total as u64,
        streamed.observed_yield.to_bits(),
        streamed.observed_n0.to_bits(),
        streamed.observed_nav.to_bits(),
    ]
    .into_iter()
    .fold(FNV_OFFSET, fnv);
    for row in streamed.experiment.rows() {
        hash = [
            row.patterns_applied as u64,
            row.fault_coverage.to_bits(),
            row.chips_failed as u64,
            row.fraction_failed.to_bits(),
        ]
        .into_iter()
        .fold(hash, fnv);
    }
    hash
}

/// One recorded model lot: `y`, `n0`, the universe size `N` (`None`: the
/// alu4 universe), the [`lot_digest`] of `ChipLot::from_model`, the
/// [`streamed_digest`] of the streamed lot at every pattern checkpoint, and
/// its shipped, escaped and rejected counts.
type GoldenLot = (f64, f64, Option<usize>, u64, u64, [usize; 3]);

/// Chip draws of model lots, pinned: 10,000 chips at seed 1981 per
/// `(y, n0, N)` case, recorded before the lot kernel moved to reusable
/// per-shard scratch.  The in-memory and streaming paths share one kernel,
/// so their differential cannot see a kernel that draws a different fault
/// set; this golden can.  `n0` of 31.5 and 95 take the Poisson split above
/// the Knuth limit, and `N = 5` caps the fault count at the universe.
#[rustfmt::skip]
const MODEL_LOT_GOLDEN: [GoldenLot; 7] = [
    (0.0, 1.0, None, 0x363279b8602cdc58, 0xc1ff20054e59b762, [222, 222, 9778]),
    (0.07, 2.0, None, 0x6a97d2ce3fef58ce, 0x18db5dd8dcd6d4ea, [785, 77, 9215]),
    (0.07, 8.0, None, 0x7ba50d2eb227ed68, 0xe8dcb0da74cd6d4c, [709, 1, 9291]),
    (0.3, 31.5, None, 0xd4dd8cf463c74825, 0xada455f70ec72425, [3074, 0, 6926]),
    (0.0, 95.0, None, 0x2bc3704863c3960c, 0x5f66d63fc1d579c1, [0, 0, 10000]),
    (1.0, 8.0, None, 0x9b85a68c78294d25, 0x4075df3bbe3ac60c, [10000, 0, 0]),
    (0.0, 8.0, Some(5), 0x72d091d89e2f89e7, 0x6a01d7d2ae898ccd, [0, 0, 10000]),
];

#[test]
fn model_lot_draws_match_the_recorded_golden() {
    let (dictionary, coverage, alu4) = suite();
    let checkpoints: Vec<usize> = (1..=coverage.pattern_count()).collect();
    let context = ExecutionContext::new(2);
    for (yield_fraction, n0, universe, chips, streamed_golden, outcome) in MODEL_LOT_GOLDEN {
        let config = ModelLotConfig {
            chips: 10_000,
            yield_fraction,
            n0,
            fault_universe_size: universe.unwrap_or(alu4),
            seed: 1981,
        };
        let case = format!(
            "y {yield_fraction}, n0 {n0}, N {}",
            config.fault_universe_size
        );
        let lot = lsiq_manufacturing::ChipLot::from_model(&config);
        assert_eq!(lot_digest(&lot), chips, "{case}: ChipLot::from_model");
        let streamed = StreamingLotExecutor::with_context(&context).stream_model_lot(
            &config,
            &dictionary,
            &coverage,
            &checkpoints,
        );
        assert_eq!(
            [
                streamed.outcome.shipped,
                streamed.outcome.escapes,
                streamed.outcome.rejected
            ],
            outcome,
            "{case}: streamed outcome"
        );
        assert_eq!(
            streamed_digest(&streamed),
            streamed_golden,
            "{case}: streamed lot"
        );
    }
}

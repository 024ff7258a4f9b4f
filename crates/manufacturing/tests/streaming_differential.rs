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
    let reference =
        ParallelLotRunner::new()
            .with_threads(1)
            .run_model_line(&config, &dictionary, &coverage);
    let reference_nav = lsiq_manufacturing::ChipLot::from_model(&config).observed_nav();
    for workers in worker_ladder() {
        for block in [1, 97, 1_024, 1_000_000] {
            let streamed = StreamingLotExecutor::new()
                .with_threads(workers)
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
    let fresh = StreamingLotExecutor::new()
        .with_threads(1)
        .stream_model_lot(&config, &dictionary, &coverage, &checkpoints);
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
    let streamed = StreamingLotExecutor::new()
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

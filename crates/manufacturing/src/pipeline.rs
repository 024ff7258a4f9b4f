//! The multi-threaded production-line pipeline.
//!
//! Estimating the paper's quality/coverage relationship (eq. 8, Table 1)
//! means testing whole lots of chips — an embarrassingly parallel workload,
//! since every chip of a lot draws from its own RNG stream
//! ([`Xoshiro256StarStar::stream`](lsiq_stats::rng::Xoshiro256StarStar::stream))
//! and is tested independently.  This module
//! exploits that at two levels:
//!
//! * [`ParallelLotRunner`] shards the chips of *one* lot across pooled worker
//!   threads — generation ([`ChipLot::from_model`] / physical pipeline),
//!   wafer testing ([`WaferTester`]) and reject-table bookkeeping
//!   ([`RejectExperiment`]) — producing byte-identical results to the serial
//!   path at any thread count (enforced by `tests/lot_differential.rs`).
//! * [`LotSweep`] fans *whole experiments* — a grid of `(y, n0)` ground
//!   truths, one lot each — across threads and aggregates the per-lot
//!   reject-rate and field-quality estimates.
//!
//! Both levels execute on the persistent [`ExecutionContext`] worker pool
//! their caller binds via [`ParallelLotRunner::with_context`] /
//! [`LotSweep::with_context`] (a `Session`'s pool, typically); without one
//! they run on the calling thread.  A sweep therefore reuses the same parked
//! workers across all its `(y, n0)` points instead of respawning threads per
//! lot, and reject tabulation streams each record exactly once into
//! per-shard counting-sort accumulators merged at join.  Nothing here reads
//! the environment: the worker count is the context's.

use crate::bist_test::{SessionRecord, SignatureTester};
use crate::chip::Chip;
use crate::experiment::RejectExperiment;
use crate::field::FieldOutcome;
use crate::lot::{ChipLot, ModelDraw, ModelLotConfig, PhysicalLotConfig};
use crate::tester::{TestRecord, WaferTester};
use lsiq_bist::signature::SignatureDictionary;
use lsiq_exec::{shard_count, shard_map, ExecutionContext};
use lsiq_fault::coverage::CoverageCurve;
use lsiq_fault::dictionary::FaultDictionary;
use lsiq_stats::rng::{Rng, SplitMix64};
use std::ops::Range;

/// Runs the per-chip stages of a production lot — generation, wafer test,
/// reject bookkeeping — sharded across pooled worker threads.
///
/// Because chip `i` draws only from stream `i` of the lot seed, the sharding
/// is invisible in the output: any worker count produces byte-identical
/// lots, test records and experiment tables.
///
/// ```
/// use lsiq_exec::ExecutionContext;
/// use lsiq_manufacturing::lot::{ChipLot, ModelLotConfig};
/// use lsiq_manufacturing::pipeline::ParallelLotRunner;
///
/// let config = ModelLotConfig {
///     chips: 1_000,
///     yield_fraction: 0.07,
///     n0: 8.0,
///     fault_universe_size: 5_000,
///     seed: 42,
/// };
/// let serial = ChipLot::from_model(&config);
/// // On a session's persistent pool…
/// let context = ExecutionContext::new(4);
/// let pooled = ParallelLotRunner::with_context(&context).generate_model_lot(&config);
/// // …or, without a context, on the calling thread.
/// let inline = ParallelLotRunner::default().generate_model_lot(&config);
/// assert_eq!(serial, pooled); // byte-identical at any worker count
/// assert_eq!(serial, inline);
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct ParallelLotRunner<'ctx> {
    context: Option<&'ctx ExecutionContext>,
}

impl<'ctx> ParallelLotRunner<'ctx> {
    /// Minimum number of work items per shard; below this the scheduling
    /// overhead costs more than the parallelism recovers.
    pub(crate) const MIN_ITEMS_PER_SHARD: usize = 128;

    /// Creates a runner bound to a persistent worker pool: every stage
    /// shards across the context's workers.  A [`Default`] runner has no
    /// context and runs every stage on the calling thread.
    pub fn with_context(context: &'ctx ExecutionContext) -> Self {
        ParallelLotRunner {
            context: Some(context),
        }
    }

    /// The worker-thread count a run over `items` work items would use.
    pub fn threads_for(&self, items: usize) -> usize {
        shard_count(self.context, items, Self::MIN_ITEMS_PER_SHARD)
    }

    /// Maps `count` indices through `work` (one call per contiguous index
    /// range, results concatenated in index order), sharded across the pool.
    fn sharded<T, F>(&self, count: usize, work: F) -> Vec<T>
    where
        T: Send,
        F: Fn(Range<usize>) -> Vec<T> + Sync,
    {
        let mut shards = shard_map(self.context, count, Self::MIN_ITEMS_PER_SHARD, work);
        if shards.len() == 1 {
            return shards.pop().expect("one shard");
        }
        let mut merged = Vec::with_capacity(count);
        for shard in shards.iter_mut() {
            merged.append(shard);
        }
        merged
    }

    /// Generates a model lot ([`ChipLot::from_model`]) with the chips sharded
    /// across threads.
    ///
    /// # Panics
    ///
    /// Panics on the same invalid configurations as [`ChipLot::from_model`].
    pub fn generate_model_lot(&self, config: &ModelLotConfig) -> ChipLot {
        let draw = ModelDraw::new(config);
        let chips = self.sharded(config.chips, |range| {
            let mut sampler = draw.sampler();
            range.map(|id| draw.chip(id, &mut sampler)).collect()
        });
        ChipLot::from_chips(chips, config.fault_universe_size)
    }

    /// Generates a physical lot ([`ChipLot::from_physical`]) with the chips
    /// sharded across threads.
    ///
    /// # Panics
    ///
    /// Panics on the same invalid configurations as
    /// [`ChipLot::from_physical`].
    pub fn generate_physical_lot(&self, config: &PhysicalLotConfig) -> ChipLot {
        let mapper = ChipLot::physical_mapper(config);
        let chips = self.sharded(config.chips, |range| {
            range
                .map(|id| ChipLot::physical_chip(config, &mapper, id))
                .collect()
        });
        ChipLot::from_chips(chips, config.fault_universe_size)
    }

    /// Wafer-tests a lot ([`WaferTester::test_lot`]) with the chips sharded
    /// across threads; records come back in lot order.
    pub fn test_lot(&self, dictionary: &FaultDictionary, lot: &ChipLot) -> Vec<TestRecord> {
        let tester = WaferTester::new(dictionary);
        let chips: &[Chip] = lot.chips();
        self.sharded(chips.len(), |range| tester.test_chips(&chips[range]))
    }

    /// BIST-tests a lot ([`SignatureTester::test_lot`]) with the chips
    /// sharded across threads; session records come back in lot order and
    /// are byte-identical at any worker count, exactly like
    /// [`test_lot`](Self::test_lot).
    pub fn test_lot_bist(
        &self,
        dictionary: &SignatureDictionary,
        lot: &ChipLot,
    ) -> Vec<SessionRecord> {
        let tester = SignatureTester::new(dictionary);
        let chips: &[Chip] = lot.chips();
        self.sharded(chips.len(), |range| tester.test_chips(&chips[range]))
    }

    /// Tabulates a reject experiment ([`RejectExperiment::tabulate`]) by
    /// streaming the records once instead of re-scanning them per
    /// checkpoint.
    ///
    /// Each worker folds its record shard into a first-fail histogram (a
    /// counting sort over pattern indices); the per-shard accumulators are
    /// merged at join and a single prefix-sum pass yields every checkpoint
    /// row — `O(records + patterns + checkpoints)` total, against the
    /// `O(records × checkpoints)` of the post-hoc scan.  The rows are
    /// byte-identical to [`RejectExperiment::tabulate`] (enforced by
    /// `tests/lot_differential.rs`).
    pub fn experiment(
        &self,
        records: &[TestRecord],
        coverage: &CoverageCurve,
        checkpoints: &[usize],
    ) -> RejectExperiment {
        let shard_histograms = shard_map(
            self.context,
            records.len(),
            Self::MIN_ITEMS_PER_SHARD,
            |range| {
                let mut counts: Vec<usize> = Vec::new();
                for record in &records[range] {
                    if let Some(first) = record.first_fail {
                        if first >= counts.len() {
                            counts.resize(first + 1, 0);
                        }
                        counts[first] += 1;
                    }
                }
                counts
            },
        );
        let mut fail_counts: Vec<usize> = Vec::new();
        for shard in shard_histograms {
            if shard.len() > fail_counts.len() {
                fail_counts.resize(shard.len(), 0);
            }
            for (total, count) in fail_counts.iter_mut().zip(shard) {
                *total += count;
            }
        }
        RejectExperiment::from_fail_counts(&fail_counts, records.len(), coverage, checkpoints)
    }

    /// Runs the full per-lot pipeline — generate a model lot, wafer-test it,
    /// tabulate the reject experiment at full resolution — with every stage
    /// sharded across this runner's workers.
    pub fn run_model_line(
        &self,
        config: &ModelLotConfig,
        dictionary: &FaultDictionary,
        coverage: &CoverageCurve,
    ) -> LotOutcome {
        let lot = self.generate_model_lot(config);
        let records = self.test_lot(dictionary, &lot);
        let checkpoints: Vec<usize> = (1..=coverage.pattern_count()).collect();
        let experiment = self.experiment(&records, coverage, &checkpoints);
        LotOutcome::new(&lot, records, experiment)
    }
}

/// Everything one tested lot yields: the lot's observed ground truth, the
/// per-chip test records, the field outcome of shipping the passers, and the
/// cumulative-reject table.
#[derive(Debug, Clone, PartialEq)]
pub struct LotOutcome {
    /// Observed yield of the generated lot.
    pub observed_yield: f64,
    /// Observed mean fault count over defective chips.
    pub observed_n0: f64,
    /// Per-chip wafer-test records, in lot order.
    pub records: Vec<TestRecord>,
    /// Field outcome of shipping every passing chip.
    pub outcome: FieldOutcome,
    /// The cumulative-reject experiment table.
    pub experiment: RejectExperiment,
}

impl LotOutcome {
    fn new(lot: &ChipLot, records: Vec<TestRecord>, experiment: RejectExperiment) -> LotOutcome {
        let outcome = FieldOutcome::from_records(&records);
        LotOutcome {
            observed_yield: lot.observed_yield(),
            observed_n0: lot.observed_n0(),
            records,
            outcome,
            experiment,
        }
    }
}

/// One ground-truth point of a sweep: the dialled-in yield and `n0` of a
/// model lot.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepPoint {
    /// Probability that a chip is fault-free (the paper's `y`).
    pub yield_fraction: f64,
    /// Mean fault count of a defective chip (the paper's `n0`).
    pub n0: f64,
}

/// The result of one sweep point: the point, the derived lot seed, and the
/// lot's outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepResult {
    /// The ground-truth point this lot was generated from.
    pub point: SweepPoint,
    /// The per-lot seed derived from the sweep's base seed.
    pub seed: u64,
    /// The tested lot's outcome.
    pub outcome: LotOutcome,
}

/// Fans whole lot experiments — one per `(y, n0)` grid point — across
/// workers, the second level of parallelism above [`ParallelLotRunner`].
///
/// Lot `i` of a sweep is seeded from stream `i` of the base seed, so sweep
/// results are byte-identical at any worker count, exactly like single-lot
/// runs.  Bind the sweep to a session's persistent pool with
/// [`with_context`](Self::with_context) and every point of the grid reuses
/// the same parked workers; without a context every lot runs on the
/// calling thread.
#[derive(Debug, Clone, Copy)]
pub struct LotSweep<'ctx> {
    /// Chips per lot.
    pub chips: usize,
    /// Size of the fault universe the chips' fault indices refer to.
    pub fault_universe_size: usize,
    /// Base seed; lot `i` uses the `i`-th stream of it.
    pub base_seed: u64,
    /// The persistent worker pool to fan lots across; `None` runs every lot
    /// on the calling thread.
    pub context: Option<&'ctx ExecutionContext>,
}

impl<'ctx> LotSweep<'ctx> {
    /// Binds the sweep to a persistent worker pool.
    pub fn with_context(mut self, context: &'ctx ExecutionContext) -> Self {
        self.context = Some(context);
        self
    }

    /// Builds the cartesian grid of sweep points, `n0` varying fastest.
    pub fn grid(yields: &[f64], n0s: &[f64]) -> Vec<SweepPoint> {
        yields
            .iter()
            .flat_map(|&yield_fraction| {
                n0s.iter().map(move |&n0| SweepPoint { yield_fraction, n0 })
            })
            .collect()
    }

    /// The deterministic lot seed of sweep point `index`.
    pub fn lot_seed(&self, index: usize) -> u64 {
        SplitMix64::stream(self.base_seed, index as u64).next_u64()
    }

    /// Runs every sweep point against the given test programme, fanning the
    /// lots across the pool; results come back in point order.
    ///
    /// Each lot runs its own pipeline serially (the parallelism is across
    /// lots here), so a sweep of many small lots and a
    /// [`ParallelLotRunner`] run of one large lot saturate the hardware the
    /// same way.
    pub fn run(
        &self,
        dictionary: &FaultDictionary,
        coverage: &CoverageCurve,
        points: &[SweepPoint],
    ) -> Vec<SweepResult> {
        // Fan lots (not chips) across the pool: each worker runs whole
        // pipelines with a single-threaded runner.
        let per_lot = ParallelLotRunner::default();
        let run_point = |index: usize| -> SweepResult {
            let point = points[index];
            let seed = self.lot_seed(index);
            let config = ModelLotConfig {
                chips: self.chips,
                yield_fraction: point.yield_fraction,
                n0: point.n0,
                fault_universe_size: self.fault_universe_size,
                seed,
            };
            let outcome = per_lot.run_model_line(&config, dictionary, coverage);
            SweepResult {
                point,
                seed,
                outcome,
            }
        };
        // A sweep has few, heavy work items; shard at item granularity
        // rather than ParallelLotRunner::MIN_ITEMS_PER_SHARD.
        shard_map(self.context, points.len(), 1, |range| {
            range.map(run_point).collect::<Vec<_>>()
        })
        .into_iter()
        .flatten()
        .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsiq_fault::incremental::IncrementalSimulator;
    use lsiq_fault::simulator::FaultSimulator;
    use lsiq_fault::universe::FaultUniverse;
    use lsiq_netlist::library;
    use lsiq_sim::pattern::{Pattern, PatternSet};

    fn fixture() -> (FaultDictionary, CoverageCurve, usize) {
        let circuit = library::c17();
        let universe = FaultUniverse::full(&circuit);
        let patterns: PatternSet = (0..32).map(|v| Pattern::from_integer(v, 5)).collect();
        let list = IncrementalSimulator::new(&circuit).run(&universe, &patterns);
        (
            FaultDictionary::from_fault_list(&list),
            CoverageCurve::from_fault_list(&list, patterns.len()),
            universe.len(),
        )
    }

    fn model_config(universe: usize) -> ModelLotConfig {
        ModelLotConfig {
            chips: 700,
            yield_fraction: 0.3,
            n0: 4.0,
            fault_universe_size: universe,
            seed: 11,
        }
    }

    #[test]
    fn parallel_generation_matches_serial_at_every_thread_count() {
        let config = model_config(2_000);
        let serial = ChipLot::from_model(&config);
        assert_eq!(
            serial,
            ParallelLotRunner::default().generate_model_lot(&config)
        );
        for workers in [1, 2, 3, 5, 8] {
            let context = ExecutionContext::new(workers);
            let pooled = ParallelLotRunner::with_context(&context).generate_model_lot(&config);
            assert_eq!(serial, pooled, "workers = {workers}");
        }
    }

    #[test]
    fn parallel_testing_and_experiment_match_serial() {
        let (dictionary, coverage, universe) = fixture();
        let config = model_config(universe);
        let lot = ChipLot::from_model(&config);
        let serial_records = WaferTester::new(&dictionary).test_lot(&lot);
        let checkpoints: Vec<usize> = (1..=coverage.pattern_count()).collect();
        let serial_experiment =
            RejectExperiment::tabulate(&serial_records, &coverage, &checkpoints);
        for workers in [2, 5] {
            let context = ExecutionContext::new(workers);
            let runner = ParallelLotRunner::with_context(&context);
            assert_eq!(serial_records, runner.test_lot(&dictionary, &lot));
            assert_eq!(
                serial_experiment,
                runner.experiment(&serial_records, &coverage, &checkpoints)
            );
        }
    }

    #[test]
    fn parallel_bist_testing_matches_serial_at_every_thread_count() {
        use crate::bist_test::SignatureTester;
        use lsiq_bist::signature::{BistPlan, SignatureDictionary};
        let circuit = library::c17();
        let universe = FaultUniverse::full(&circuit);
        let patterns: PatternSet = (0..32).map(|v| Pattern::from_integer(v, 5)).collect();
        let dictionary = SignatureDictionary::build_in(
            &ExecutionContext::new(1),
            &circuit,
            &universe,
            &patterns,
            &BistPlan {
                session_len: 8,
                signature_width: 8,
            },
        );
        let lot = ChipLot::from_model(&model_config(universe.len()));
        let serial = SignatureTester::new(&dictionary).test_lot(&lot);
        for workers in [2, 3, 5] {
            let context = ExecutionContext::new(workers);
            assert_eq!(
                serial,
                ParallelLotRunner::with_context(&context).test_lot_bist(&dictionary, &lot),
                "workers = {workers}"
            );
        }
    }

    #[test]
    fn streamed_experiment_handles_sparse_and_clamped_checkpoints() {
        let (dictionary, coverage, universe) = fixture();
        let config = model_config(universe);
        let lot = ChipLot::from_model(&config);
        let records = WaferTester::new(&dictionary).test_lot(&lot);
        let context = ExecutionContext::new(3);
        let runner = ParallelLotRunner::with_context(&context);
        // Sparse, unsorted-looking and beyond-the-curve checkpoints all
        // reduce to the serial reference.
        for checkpoints in [vec![], vec![1], vec![5, 1, 500], vec![1_000_000]] {
            assert_eq!(
                RejectExperiment::tabulate(&records, &coverage, &checkpoints),
                runner.experiment(&records, &coverage, &checkpoints),
                "checkpoints = {checkpoints:?}"
            );
        }
        // Empty record sets produce all-zero rows, not NaNs.
        let empty = runner.experiment(&[], &coverage, &[1, 2]);
        assert_eq!(empty.total_chips(), 0);
        assert!(empty.rows().iter().all(|row| row.fraction_failed == 0.0));
    }

    #[test]
    fn run_model_line_is_consistent() {
        let (dictionary, coverage, universe) = fixture();
        let config = model_config(universe);
        let context = ExecutionContext::new(4);
        let outcome = ParallelLotRunner::with_context(&context).run_model_line(
            &config,
            &dictionary,
            &coverage,
        );
        assert_eq!(outcome.records.len(), config.chips);
        assert_eq!(outcome.outcome.total, config.chips);
        assert_eq!(outcome.experiment.rows().len(), coverage.pattern_count());
        assert!((outcome.observed_yield - 0.3).abs() < 0.1);
    }

    #[test]
    fn sweep_is_thread_count_invariant_and_ordered() {
        let (dictionary, coverage, universe) = fixture();
        let points = LotSweep::grid(&[0.1, 0.3], &[2.0, 4.0, 8.0]);
        assert_eq!(points.len(), 6);
        let serial = LotSweep {
            chips: 150,
            fault_universe_size: universe,
            base_seed: 99,
            context: None,
        };
        let serial_results = serial.run(&dictionary, &coverage, &points);
        // A sweep bound to a persistent pool reuses it across all points —
        // and across repeated runs — with identical results.
        for workers in [3, 4] {
            let context = ExecutionContext::new(workers);
            let pooled = serial.with_context(&context);
            for _ in 0..2 {
                assert_eq!(serial_results, pooled.run(&dictionary, &coverage, &points));
            }
        }
        for (result, point) in serial_results.iter().zip(&points) {
            assert_eq!(result.point, *point);
            assert_eq!(result.outcome.records.len(), 150);
        }
        // Distinct points get distinct seeds.
        assert_ne!(serial.lot_seed(0), serial.lot_seed(1));
    }

    #[test]
    fn threads_for_follows_the_context_and_small_lots() {
        let context = ExecutionContext::new(8);
        let runner = ParallelLotRunner::with_context(&context);
        assert_eq!(runner.threads_for(100_000), 8);
        assert_eq!(runner.threads_for(1), 1);
        assert_eq!(runner.threads_for(0), 1);
        // Tiny lots never fan out past the shard minimum.
        assert!(runner.threads_for(256) <= 2);
        // Without a context every stage runs on the calling thread.
        assert_eq!(ParallelLotRunner::default().threads_for(100_000), 1);
    }
}

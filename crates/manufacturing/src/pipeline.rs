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
//! Both levels execute on a persistent [`ExecutionContext`] worker pool —
//! the one bound via [`ParallelLotRunner::with_context`] /
//! [`LotSweep::with_context`] (a `Session`'s pool, typically), or the
//! process-wide default pool.  A sweep therefore reuses the same parked
//! workers across all its `(y, n0)` points instead of respawning threads per
//! lot, and reject tabulation streams each record exactly once into
//! per-shard counting-sort accumulators merged at join.
//!
//! Configuration flows through the typed `lsiq_exec::RunConfig`; the
//! `LSIQ_LOT_THREADS` environment variable survives as a compatibility layer
//! consumed by [`ParallelLotRunner::new`] via [`RunConfig::from_env`].

use crate::bist_test::{SessionRecord, SignatureTester};
use crate::chip::Chip;
use crate::experiment::{RejectExperiment, RejectRow};
use crate::field::FieldOutcome;
use crate::lot::{ChipLot, ModelLotConfig, PhysicalLotConfig};
use crate::tester::{TestRecord, WaferTester};
use lsiq_bist::signature::SignatureDictionary;
use lsiq_exec::{ExecutionContext, RunConfig};
use lsiq_fault::coverage::CoverageCurve;
use lsiq_fault::dictionary::FaultDictionary;
use lsiq_stats::rng::{Rng, SplitMix64};

/// Runs the per-chip stages of a production lot — generation, wafer test,
/// reject bookkeeping — sharded across pooled worker threads.
///
/// Because chip `i` draws only from stream `i` of the lot seed, the sharding
/// is invisible in the output: any thread count produces byte-identical
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
/// // …or on the process-wide default pool with an explicit shard count.
/// let parallel = ParallelLotRunner::new()
///     .with_threads(4)
///     .generate_model_lot(&config);
/// assert_eq!(serial, pooled); // byte-identical at any thread count
/// assert_eq!(serial, parallel);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct ParallelLotRunner<'ctx> {
    threads: usize,
    context: Option<&'ctx ExecutionContext>,
}

impl Default for ParallelLotRunner<'_> {
    fn default() -> Self {
        Self::new()
    }
}

impl<'ctx> ParallelLotRunner<'ctx> {
    /// Minimum number of work items per shard; below this the scheduling
    /// overhead costs more than the parallelism recovers.
    pub(crate) const MIN_ITEMS_PER_SHARD: usize = 128;

    /// Creates a runner honouring the `LSIQ_LOT_THREADS` environment
    /// variable; unset, it uses one worker per available hardware thread.
    /// Work executes on the process-wide default pool
    /// ([`ExecutionContext::global`]).
    ///
    /// # Panics
    ///
    /// Panics with the [`ConfigError`](lsiq_exec::ConfigError) message when
    /// an `LSIQ_*` variable is set to an invalid value, since silently
    /// falling back would invalidate an intended scaling measurement.  The
    /// typed constructor [`with_context`](Self::with_context) never touches
    /// the environment.
    pub fn new() -> Self {
        let threads = match RunConfig::from_env() {
            Ok(config) => config.workers().unwrap_or(0),
            Err(error) => panic!("{error}"),
        };
        ParallelLotRunner {
            threads,
            context: None,
        }
    }

    /// Creates a runner bound to a persistent worker pool; the shard count
    /// follows the context's worker count unless overridden with
    /// [`with_threads`](Self::with_threads).  The environment is not
    /// consulted.
    pub fn with_context(context: &'ctx ExecutionContext) -> Self {
        ParallelLotRunner {
            threads: 0,
            context: Some(context),
        }
    }

    /// Overrides the worker-thread count; `0` restores the default (the
    /// bound context's worker count, or the available hardware parallelism).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// The worker pool this runner executes on.
    fn execution_context(&self) -> &ExecutionContext {
        self.context.unwrap_or_else(|| ExecutionContext::global())
    }

    /// The configured worker count before any per-run clamping: the explicit
    /// override, or the pool's worker count.  Deliberately avoids touching
    /// [`ExecutionContext::global`] so that runs which fold back to a single
    /// inline shard never spawn the process-wide pool.
    fn requested_threads(&self) -> usize {
        if self.threads > 0 {
            self.threads
        } else if let Some(context) = self.context {
            context.workers()
        } else {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        }
    }

    /// The worker-thread count a run over `items` work items would use.
    pub fn threads_for(&self, items: usize) -> usize {
        self.requested_threads()
            .min(items.div_ceil(Self::MIN_ITEMS_PER_SHARD))
            .max(1)
    }

    /// Splits `count` indices into per-shard ranges, maps every range
    /// through `work` on the pool, and returns one result per shard in index
    /// order.  The building block of both the concatenating
    /// [`sharded`](Self::sharded) map and the fold-style accumulator merges
    /// ([`experiment`](Self::experiment)).
    pub(crate) fn sharded_chunks<T, F>(&self, count: usize, min_per_shard: usize, work: F) -> Vec<T>
    where
        T: Send,
        F: Fn(std::ops::Range<usize>) -> T + Sync,
    {
        let threads = self
            .requested_threads()
            .min(count.div_ceil(min_per_shard.max(1)))
            .max(1);
        if threads <= 1 || count == 0 {
            return vec![work(0..count)];
        }
        let shard_size = count.div_ceil(threads);
        let ranges: Vec<std::ops::Range<usize>> = (0..count)
            .step_by(shard_size)
            .map(|start| start..(start + shard_size).min(count))
            .collect();
        self.execution_context().scope_map(ranges, work)
    }

    /// Maps `count` indices through `work` (one call per contiguous index
    /// range, results concatenated in index order), sharded across the pool.
    fn sharded<T, F>(&self, count: usize, work: F) -> Vec<T>
    where
        T: Send,
        F: Fn(std::ops::Range<usize>) -> Vec<T> + Sync,
    {
        self.sharded_min(count, Self::MIN_ITEMS_PER_SHARD, work)
    }

    /// [`sharded`](Self::sharded) with an explicit minimum number of items
    /// per shard — `1` for coarse work items (whole lots) whose cost dwarfs
    /// the scheduling overhead.
    fn sharded_min<T, F>(&self, count: usize, min_per_shard: usize, work: F) -> Vec<T>
    where
        T: Send,
        F: Fn(std::ops::Range<usize>) -> Vec<T> + Sync,
    {
        let mut shards = self.sharded_chunks(count, min_per_shard, work);
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
        ChipLot::validate_model(config);
        let chips = self.sharded(config.chips, |range| {
            range.map(|id| ChipLot::model_chip(config, id)).collect()
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
        let shard_histograms =
            self.sharded_chunks(records.len(), Self::MIN_ITEMS_PER_SHARD, |range| {
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
            });
        let mut fail_counts: Vec<usize> = Vec::new();
        for shard in shard_histograms {
            if shard.len() > fail_counts.len() {
                fail_counts.resize(shard.len(), 0);
            }
            for (total, count) in fail_counts.iter_mut().zip(shard) {
                *total += count;
            }
        }
        // cumulative_failed[k]: chips whose first failure precedes pattern k.
        let mut cumulative_failed = Vec::with_capacity(fail_counts.len() + 1);
        cumulative_failed.push(0usize);
        let mut running = 0usize;
        for count in &fail_counts {
            running += count;
            cumulative_failed.push(running);
        }
        let rows = checkpoints
            .iter()
            .map(|&patterns_applied| {
                let chips_failed =
                    cumulative_failed[patterns_applied.min(cumulative_failed.len() - 1)];
                RejectRow {
                    patterns_applied,
                    fault_coverage: coverage.coverage_after(patterns_applied),
                    chips_failed,
                    fraction_failed: if records.is_empty() {
                        0.0
                    } else {
                        chips_failed as f64 / records.len() as f64
                    },
                }
            })
            .collect();
        RejectExperiment::from_rows(rows, records.len())
    }

    /// Runs the full per-lot pipeline — generate a model lot, wafer-test it,
    /// tabulate the reject experiment at full resolution — with every stage
    /// sharded across this runner's threads.
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
/// threads, the second level of parallelism above [`ParallelLotRunner`].
///
/// Lot `i` of a sweep is seeded from stream `i` of the base seed, so sweep
/// results are byte-identical at any thread count, exactly like single-lot
/// runs.  Bind the sweep to a session's persistent pool with
/// [`with_context`](Self::with_context) and every point of the grid reuses
/// the same parked workers.
#[derive(Debug, Clone, Copy)]
pub struct LotSweep<'ctx> {
    /// Chips per lot.
    pub chips: usize,
    /// Size of the fault universe the chips' fault indices refer to.
    pub fault_universe_size: usize,
    /// Base seed; lot `i` uses the `i`-th stream of it.
    pub base_seed: u64,
    /// Worker threads to fan lots across (`0` defers to the bound context's
    /// worker count — or, without a context, to `LSIQ_LOT_THREADS`, then the
    /// available hardware parallelism).
    pub threads: usize,
    /// The persistent worker pool to fan out on; `None` falls back to the
    /// compatibility path (`LSIQ_LOT_THREADS` + the process-wide pool).
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
    /// same way.  A `threads` of `0` defers to the bound context's worker
    /// count (or `LSIQ_LOT_THREADS`, then the available hardware
    /// parallelism), exactly like the runner.
    pub fn run(
        &self,
        dictionary: &FaultDictionary,
        coverage: &CoverageCurve,
        points: &[SweepPoint],
    ) -> Vec<SweepResult> {
        // Fan lots (not chips) across threads: each worker runs whole
        // pipelines with a single-threaded runner.
        let fan_out = match self.context {
            Some(context) => ParallelLotRunner::with_context(context),
            None => ParallelLotRunner::new(), // honours LSIQ_LOT_THREADS
        }
        .with_threads(self.threads);
        let per_lot = ParallelLotRunner {
            threads: 1,
            context: None,
        };
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
        fan_out.sharded_min(points.len(), 1, |range| {
            range.map(run_point).collect::<Vec<_>>()
        })
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
        for threads in [1, 2, 3, 8, 64] {
            let parallel = ParallelLotRunner::new()
                .with_threads(threads)
                .generate_model_lot(&config);
            assert_eq!(serial, parallel, "threads = {threads}");
        }
        // The same through an explicit pool instead of the global one.
        for workers in [1, 2, 5] {
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
        for threads in [2, 5] {
            let runner = ParallelLotRunner::new().with_threads(threads);
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
        let dictionary = SignatureDictionary::build(
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
        for threads in [2, 5] {
            let runner = ParallelLotRunner::new().with_threads(threads);
            assert_eq!(
                serial,
                runner.test_lot_bist(&dictionary, &lot),
                "threads = {threads}"
            );
        }
        let context = ExecutionContext::new(3);
        assert_eq!(
            serial,
            ParallelLotRunner::with_context(&context).test_lot_bist(&dictionary, &lot)
        );
    }

    #[test]
    fn streamed_experiment_handles_sparse_and_clamped_checkpoints() {
        let (dictionary, coverage, universe) = fixture();
        let config = model_config(universe);
        let lot = ChipLot::from_model(&config);
        let records = WaferTester::new(&dictionary).test_lot(&lot);
        let runner = ParallelLotRunner::new().with_threads(3);
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
        let outcome = ParallelLotRunner::new().with_threads(4).run_model_line(
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
            threads: 1,
            context: None,
        };
        let parallel = LotSweep {
            threads: 4,
            ..serial
        };
        let serial_results = serial.run(&dictionary, &coverage, &points);
        let parallel_results = parallel.run(&dictionary, &coverage, &points);
        assert_eq!(serial_results, parallel_results);
        // A sweep bound to a persistent pool reuses it across all points —
        // and across repeated runs — with identical results.
        let context = ExecutionContext::new(3);
        let pooled = LotSweep {
            threads: 0,
            ..serial
        }
        .with_context(&context);
        for _ in 0..2 {
            assert_eq!(serial_results, pooled.run(&dictionary, &coverage, &points));
        }
        for (result, point) in serial_results.iter().zip(&points) {
            assert_eq!(result.point, *point);
            assert_eq!(result.outcome.records.len(), 150);
        }
        // Distinct points get distinct seeds.
        assert_ne!(serial.lot_seed(0), serial.lot_seed(1));
    }

    #[test]
    fn threads_for_respects_override_and_small_lots() {
        let runner = ParallelLotRunner::new().with_threads(8);
        assert_eq!(runner.threads_for(100_000), 8);
        assert_eq!(runner.threads_for(1), 1);
        assert_eq!(runner.threads_for(0), 1);
        // Tiny lots never fan out past the shard minimum.
        assert!(runner.threads_for(256) <= 2);
        // A context-bound runner defaults to the pool's worker count.
        let context = ExecutionContext::new(3);
        assert_eq!(
            ParallelLotRunner::with_context(&context).threads_for(100_000),
            3
        );
    }
}

//! The multi-threaded production-line pipeline.
//!
//! Estimating the paper's quality/coverage relationship (eq. 8, Table 1)
//! means testing whole lots of chips — an embarrassingly parallel workload,
//! since every chip of a lot draws from its own RNG stream
//! ([`Xoshiro256StarStar::stream`](lsiq_stats::rng::Xoshiro256StarStar::stream))
//! and is tested independently.  This module
//! exploits that at two levels:
//!
//! * [`ParallelLotRunner`] shards the chips of *one* lot across worker
//!   threads — generation (statistical model or physical pipeline), wafer
//!   testing and reject-table bookkeeping ([`RejectExperiment`]) —
//!   producing byte-identical results at any thread count (enforced by
//!   `tests/lot_differential.rs`).
//! * [`LotSweep`] fans *whole experiments* — a grid of `(y, n0)` ground
//!   truths, one streamed lot each — across threads and aggregates the
//!   per-lot reject-rate and field-quality estimates.
//!
//! Both levels fork through [`lsiq_exec::shard_map`] on the
//! [`ExecutionContext`] their caller binds via
//! [`ParallelLotRunner::with_context`] / [`LotSweep::with_context`] (a
//! `Session`'s, typically); without one they run on the calling thread.  A
//! sweep forks once across all its `(y, n0)` points, not once per lot, and
//! reject tabulation streams each record exactly once into per-shard
//! counting-sort accumulators merged at join.  Nothing here reads
//! the environment: the worker count is the context's.

use crate::chip::Chip;
use crate::defect::FaultsPerDefect;
use crate::defect_map::DefectToFaultMapper;
use crate::experiment::RejectExperiment;
use crate::lot::{ChipLot, ModelDraw, ModelLotConfig, PhysicalLotConfig};
use crate::streaming::{StreamedLot, StreamingLotExecutor};
use crate::tester::TestRecord;
use lsiq_exec::{shard_count, shard_map, ExecutionContext};
use lsiq_fault::coverage::CoverageCurve;
use lsiq_fault::dictionary::FaultDictionary;
use lsiq_stats::rng::{Rng, SplitMix64, Xoshiro256StarStar};
use std::ops::Range;

/// Runs the per-chip stages of a production lot — generation, wafer test,
/// reject bookkeeping — sharded across worker threads.
///
/// Because chip `i` draws only from stream `i` of the lot seed, the sharding
/// is invisible in the output: any worker count produces byte-identical
/// lots, test records and experiment tables.
///
/// ```
/// use lsiq_exec::ExecutionContext;
/// use lsiq_manufacturing::lot::ModelLotConfig;
/// use lsiq_manufacturing::pipeline::ParallelLotRunner;
///
/// let config = ModelLotConfig {
///     chips: 1_000,
///     yield_fraction: 0.07,
///     n0: 8.0,
///     fault_universe_size: 5_000,
///     seed: 42,
/// };
/// // Across a session's workers…
/// let context = ExecutionContext::new(4);
/// let pooled = ParallelLotRunner::with_context(&context).generate_model_lot(&config);
/// // …or, without a context, on the calling thread.
/// let inline = ParallelLotRunner::default().generate_model_lot(&config);
/// assert_eq!(pooled, inline); // byte-identical at any worker count
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct ParallelLotRunner<'ctx> {
    context: Option<&'ctx ExecutionContext>,
}

impl<'ctx> ParallelLotRunner<'ctx> {
    /// Minimum number of work items per shard; below this the scheduling
    /// overhead costs more than the parallelism recovers.
    pub(crate) const MIN_ITEMS_PER_SHARD: usize = 128;

    /// Creates a runner bound to an execution context: every stage shards
    /// across the context's workers.  A [`Default`] runner has no
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
    /// range, results concatenated in index order), sharded across the
    /// context's workers.
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

    /// Generates a lot directly from the paper's statistical model: each chip
    /// is good with probability `y`; otherwise its fault count is drawn from
    /// the shifted Poisson of eq. 1 (mean `n0`) and that many distinct fault
    /// sites are chosen uniformly from the universe.
    ///
    /// Chip `i` draws from its own
    /// [`Xoshiro256StarStar::stream`](lsiq_stats::rng::Xoshiro256StarStar::stream),
    /// so the lot is identical however its chips shard across threads.
    ///
    /// ```
    /// use lsiq_manufacturing::lot::ModelLotConfig;
    /// use lsiq_manufacturing::pipeline::ParallelLotRunner;
    ///
    /// let lot = ParallelLotRunner::default().generate_model_lot(&ModelLotConfig {
    ///     chips: 277, // the paper's Section 7 lot size
    ///     yield_fraction: 0.07,
    ///     n0: 8.0,
    ///     fault_universe_size: 5_000,
    ///     seed: 1981,
    /// });
    /// assert_eq!(lot.len(), 277);
    /// // Defective chips carry at least one fault (the shifted Poisson).
    /// assert!(lot.chips().iter().all(|c| c.is_good() || c.fault_count() >= 1));
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if the fault universe is empty, `yield_fraction` is outside
    /// `[0, 1]`, or `n0 < 1` (a defective chip has at least one fault).
    pub fn generate_model_lot(&self, config: &ModelLotConfig) -> ChipLot {
        let draw = ModelDraw::new(config);
        let chips = self.sharded(config.chips, |range| {
            let mut sampler = draw.sampler();
            range
                .map(|id| Chip::new(id, draw.faults(id, &mut sampler).to_vec(), 0))
                .collect()
        });
        ChipLot::from_chips(chips, config.fault_universe_size)
    }

    /// Generates a lot through the physical pipeline: clustered defect counts
    /// per chip, each defect mapped to one or more logical faults.  Like
    /// [`generate_model_lot`](Self::generate_model_lot), chip `i` draws from
    /// stream `i` of the lot seed.
    ///
    /// ```
    /// use lsiq_manufacturing::defect::DefectModel;
    /// use lsiq_manufacturing::lot::PhysicalLotConfig;
    /// use lsiq_manufacturing::pipeline::ParallelLotRunner;
    ///
    /// let lot = ParallelLotRunner::default().generate_physical_lot(&PhysicalLotConfig {
    ///     chips: 500,
    ///     defect_model: DefectModel::for_target_yield(0.25, 1.0).unwrap(),
    ///     extra_faults_per_defect: 2.0,
    ///     fault_universe_size: 3_000,
    ///     seed: 7,
    /// });
    /// // y and n0 are emergent here, not dialled in.
    /// assert!(lot.observed_yield() > 0.1 && lot.observed_yield() < 0.4);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if the fault universe is empty or `extra_faults_per_defect` is
    /// negative.
    pub fn generate_physical_lot(&self, config: &PhysicalLotConfig) -> ChipLot {
        assert!(
            config.fault_universe_size > 0,
            "fault universe must not be empty"
        );
        let faults_per_defect = FaultsPerDefect::new(config.extra_faults_per_defect)
            .expect("extra_faults_per_defect must be finite and non-negative");
        let mapper = DefectToFaultMapper::new(config.fault_universe_size, faults_per_defect);
        let chips = self.sharded(config.chips, |range| {
            range
                .map(|id| {
                    let mut rng = Xoshiro256StarStar::stream(config.seed, id as u64);
                    let defect_count = config.defect_model.sample_defect_count(&mut rng);
                    Chip::new(id, mapper.map_defects(defect_count, &mut rng), defect_count)
                })
                .collect()
        });
        ChipLot::from_chips(chips, config.fault_universe_size)
    }

    /// Wafer-tests a lot against the pattern set summarised by `dictionary`
    /// with the chips sharded across threads; records come back in lot
    /// order.  A chip fails at its earliest first-failing pattern over its
    /// faults ([`FaultDictionary::first_failure_of_chip`]).
    pub fn test_lot(&self, dictionary: &FaultDictionary, lot: &ChipLot) -> Vec<TestRecord> {
        let chips = lot.chips();
        self.sharded(chips.len(), |range| {
            chips[range]
                .iter()
                .map(|chip| TestRecord {
                    chip_id: chip.id(),
                    first_fail: dictionary.first_failure_of_chip(chip.fault_indices()),
                    is_defective: !chip.is_good(),
                })
                .collect()
        })
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
/// lot's statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepResult {
    /// The ground-truth point this lot was generated from.
    pub point: SweepPoint,
    /// The per-lot seed derived from the sweep's base seed.
    pub seed: u64,
    /// The streamed lot, tabulated at every pattern of the curve.
    pub outcome: StreamedLot,
}

/// Fans whole lot experiments — one per `(y, n0)` grid point — across
/// workers, the second level of parallelism above [`ParallelLotRunner`].
///
/// Lot `i` of a sweep is seeded from stream `i` of the base seed, so sweep
/// results are byte-identical at any worker count, exactly like single-lot
/// runs.  Bind the sweep to a session's context with
/// [`with_context`](Self::with_context) and the grid's points are split
/// across its workers in one fork-join; without a context every lot runs
/// on the calling thread.
#[derive(Debug, Clone, Copy)]
pub struct LotSweep<'ctx> {
    /// Chips per lot.
    pub chips: usize,
    /// Size of the fault universe the chips' fault indices refer to.
    pub fault_universe_size: usize,
    /// Base seed; lot `i` uses the `i`-th stream of it.
    pub base_seed: u64,
    /// The execution context to fan lots across; `None` runs every lot on
    /// the calling thread.
    pub context: Option<&'ctx ExecutionContext>,
}

impl<'ctx> LotSweep<'ctx> {
    /// Binds the sweep to an execution context.
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
    /// lots across the context's workers; results come back in point order.
    ///
    /// Each lot streams on its worker's thread (the parallelism is across
    /// lots here), so a sweep of many small lots and a
    /// [`StreamingLotExecutor`] run of one large lot saturate the hardware
    /// the same way.
    pub fn run(
        &self,
        dictionary: &FaultDictionary,
        coverage: &CoverageCurve,
        points: &[SweepPoint],
    ) -> Vec<SweepResult> {
        // Fan lots (not chips) across the workers: each shard streams whole
        // lots with a context-less executor.
        let per_lot = StreamingLotExecutor::default();
        let checkpoints: Vec<usize> = (1..=coverage.pattern_count()).collect();
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
            let outcome = per_lot.stream_model_lot(&config, dictionary, coverage, &checkpoints);
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
    use crate::field::FieldOutcome;
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
        let serial = ParallelLotRunner::default().generate_model_lot(&config);
        for workers in [1, 2, 3, 5, 8] {
            let context = ExecutionContext::new(workers);
            let pooled = ParallelLotRunner::with_context(&context).generate_model_lot(&config);
            assert_eq!(serial, pooled, "workers = {workers}");
        }
    }

    #[test]
    fn parallel_testing_and_experiment_match_serial() {
        let (dictionary, coverage, universe) = fixture();
        let serial = ParallelLotRunner::default();
        let lot = serial.generate_model_lot(&model_config(universe));
        let serial_records = serial.test_lot(&dictionary, &lot);
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
        // A self-test reaches the tester as a readout dictionary: a record
        // only where an 8-pattern session is read out, and none for an
        // aliased fault.  Shape one from the stored dictionary.
        let (stored, _, universe) = fixture();
        let dictionary = FaultDictionary::from_first_patterns((0..universe).map(|fault| {
            let aliased = fault % 5 == 0;
            let pattern = stored.first_failing_pattern(fault).filter(|_| !aliased);
            pattern.map(|p| p / 8 * 8 + 7)
        }));
        let serial = ParallelLotRunner::default();
        let lot = serial.generate_model_lot(&model_config(universe));
        let reference = serial.test_lot(&dictionary, &lot);
        assert!(reference.iter().any(TestRecord::is_escape));
        for workers in [2, 3, 5] {
            let context = ExecutionContext::new(workers);
            assert_eq!(
                reference,
                ParallelLotRunner::with_context(&context).test_lot(&dictionary, &lot),
                "workers = {workers}"
            );
        }
    }

    #[test]
    fn streamed_experiment_handles_sparse_and_clamped_checkpoints() {
        let (dictionary, coverage, universe) = fixture();
        let serial = ParallelLotRunner::default();
        let lot = serial.generate_model_lot(&model_config(universe));
        let records = serial.test_lot(&dictionary, &lot);
        let context = ExecutionContext::new(3);
        let runner = ParallelLotRunner::with_context(&context);
        // Sparse, unsorted-looking and beyond-the-curve checkpoints all
        // reduce to the reference scan.
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
        // A model line is the runner's three stages in turn.
        let (dictionary, coverage, universe) = fixture();
        let config = model_config(universe);
        let context = ExecutionContext::new(4);
        let runner = ParallelLotRunner::with_context(&context);
        let lot = runner.generate_model_lot(&config);
        let records = runner.test_lot(&dictionary, &lot);
        let checkpoints: Vec<usize> = (1..=coverage.pattern_count()).collect();
        let experiment = runner.experiment(&records, &coverage, &checkpoints);
        assert_eq!(records.len(), config.chips);
        assert_eq!(FieldOutcome::from_records(&records).total, config.chips);
        assert_eq!(experiment.total_chips(), config.chips);
        assert_eq!(experiment.rows().len(), coverage.pattern_count());
        assert!((lot.observed_yield() - 0.3).abs() < 0.1);
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
        // A sweep bound to a context gives identical results at every
        // worker count, across repeated runs.
        for workers in [3, 4] {
            let context = ExecutionContext::new(workers);
            let pooled = serial.with_context(&context);
            for _ in 0..2 {
                assert_eq!(serial_results, pooled.run(&dictionary, &coverage, &points));
            }
        }
        for (result, point) in serial_results.iter().zip(&points) {
            assert_eq!(result.point, *point);
            assert_eq!(result.outcome.chips, 150);
            assert_eq!(result.outcome.outcome.total, 150);
            assert_eq!(
                result.outcome.experiment.rows().len(),
                coverage.pattern_count()
            );
            assert!((result.outcome.observed_yield - point.yield_fraction).abs() < 0.15);
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

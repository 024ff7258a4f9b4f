//! Streaming, memory-bounded lot execution.
//!
//! Generating a lot with [`ParallelLotRunner`], testing it and tabulating
//! its records holds a whole [`ChipLot`](crate::lot::ChipLot) and its test
//! records at once — fine for the paper's 277-chip Table 1 run, impossible
//! for the billion-chip planning sweeps a production service fields.
//! [`StreamingLotExecutor`] folds the same model lot chip by chip instead:
//! the lot's chips shard across the workers in one fork-join, and each
//! worker generates every chip of its shard from the chip's own RNG
//! stream, wafer-tests it against the fault dictionary and immediately
//! folds it into running integer accumulators — a first-fail counting-sort
//! histogram, good/defective/fault-count tallies and the field-outcome
//! counters.  No chip outlives its fold: each worker draws its chips'
//! faults into one reusable [`IndexSampler`](lsiq_stats::rng::IndexSampler),
//! a `⌈N / 64⌉`-word membership bitset over the `N`-fault universe plus its
//! picks, and folds them without building a chip record.  Peak memory is
//! therefore `O(workers × (patterns + N / 64))` words regardless of lot
//! size.
//!
//! Every accumulator is an integer sum, and integer addition is associative
//! and commutative, so the worker sharding is invisible in the output: the
//! statistics are **byte-identical** to the in-memory stages at any worker
//! count (enforced by `tests/streaming_differential.rs`).  The final
//! divisions (observed yield, `n0`, reject fractions) are performed once,
//! from the same integer totals in the same order as
//! [`ChipLot`](crate::lot::ChipLot)'s observers and
//! [`RejectExperiment::tabulate`].  This is how every model lot of a
//! production line is evaluated: a session's line, each [`LotSweep`] point
//! and the query service's `line` and `lot` queries.
//!
//! [`LotSweep`]: crate::pipeline::LotSweep

use crate::experiment::RejectExperiment;
use crate::field::FieldOutcome;
use crate::lot::{ModelDraw, ModelLotConfig};
use crate::pipeline::ParallelLotRunner;
use lsiq_exec::{shard_map, ExecutionContext};
use lsiq_fault::coverage::CoverageCurve;
use lsiq_fault::dictionary::FaultDictionary;
use lsiq_obs::{Counter, Span};

/// Chips generated, tested and folded across all streamed lots.
static CHIPS: Counter = Counter::new("streaming.chips");
/// One lot's generate-test-fold fork-join.
static LOT_SPAN: Span = Span::new("streaming.lot");

/// Everything a streamed lot yields: the observed ground truth, the field
/// outcome of shipping the passers, and the cumulative-reject table — every
/// statistic of the lot except the per-chip records, which a streamed run
/// never materializes.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamedLot {
    /// Number of chips evaluated.
    pub chips: usize,
    /// Observed yield of the generated lot.
    pub observed_yield: f64,
    /// Observed mean fault count over defective chips.
    pub observed_n0: f64,
    /// Observed mean fault count over all chips (the paper's `n_av`).
    pub observed_nav: f64,
    /// Field outcome of shipping every passing chip.
    pub outcome: FieldOutcome,
    /// The cumulative-reject experiment table at the requested checkpoints.
    pub experiment: RejectExperiment,
}

/// Per-shard (and running) integer accumulators of a streamed lot.
///
/// Everything here is a plain sum over chips, so shard results merge by
/// element-wise addition in any order without changing the totals.
#[derive(Debug, Default)]
struct LotFold {
    good: usize,
    defective: usize,
    total_faults: usize,
    shipped: usize,
    escapes: usize,
    /// `fail_counts[p]`: chips whose first failing pattern is exactly `p`.
    fail_counts: Vec<usize>,
}

impl LotFold {
    /// Folds one chip, given by its faults, and its wafer test into the
    /// accumulators.
    fn absorb(&mut self, faults: &[usize], dictionary: &FaultDictionary) {
        if faults.is_empty() {
            self.good += 1;
        } else {
            self.defective += 1;
            self.total_faults += faults.len();
        }
        match dictionary.first_failure_of_chip(faults) {
            None => {
                self.shipped += 1;
                if !faults.is_empty() {
                    self.escapes += 1;
                }
            }
            Some(first) => {
                if first >= self.fail_counts.len() {
                    self.fail_counts.resize(first + 1, 0);
                }
                self.fail_counts[first] += 1;
            }
        }
    }

    /// Merges another fold into this one (element-wise integer addition).
    fn merge(&mut self, other: LotFold) {
        self.good += other.good;
        self.defective += other.defective;
        self.total_faults += other.total_faults;
        self.shipped += other.shipped;
        self.escapes += other.escapes;
        if other.fail_counts.len() > self.fail_counts.len() {
            self.fail_counts.resize(other.fail_counts.len(), 0);
        }
        for (total, count) in self.fail_counts.iter_mut().zip(other.fail_counts) {
            *total += count;
        }
    }
}

/// Evaluates model lots chip by chip, folded into running statistics — the
/// memory-bounded counterpart of generating a lot with
/// [`ParallelLotRunner`], testing it and tabulating it.  A lot's chips
/// shard across the workers of the context bound with
/// [`with_context`](Self::with_context); a [`Default`] executor runs on the
/// calling thread.
///
/// ```
/// use lsiq_fault::dictionary::FaultDictionary;
/// use lsiq_fault::incremental::IncrementalSimulator;
/// use lsiq_fault::simulator::FaultSimulator;
/// use lsiq_fault::universe::FaultUniverse;
/// use lsiq_fault::coverage::CoverageCurve;
/// use lsiq_manufacturing::lot::ModelLotConfig;
/// use lsiq_manufacturing::streaming::StreamingLotExecutor;
/// use lsiq_netlist::library;
/// use lsiq_sim::pattern::{Pattern, PatternSet};
///
/// let circuit = library::c17();
/// let universe = FaultUniverse::full(&circuit);
/// let patterns: PatternSet = (0..16).map(|v| Pattern::from_integer(v, 5)).collect();
/// let list = IncrementalSimulator::new(&circuit).run(&universe, &patterns);
/// let coverage = CoverageCurve::from_fault_list(&list, patterns.len());
/// let dictionary = FaultDictionary::from_fault_list(&list);
/// let config = ModelLotConfig {
///     chips: 10_000,
///     yield_fraction: 0.3,
///     n0: 2.0,
///     fault_universe_size: universe.len(),
///     seed: 1981,
/// };
/// let streamed = StreamingLotExecutor::default().stream_model_lot(
///     &config,
///     &dictionary,
///     &coverage,
///     &[4, 8, 16],
/// );
/// assert_eq!(streamed.chips, 10_000);
/// assert_eq!(streamed.outcome.total, 10_000);
/// assert_eq!(streamed.experiment.rows().len(), 3);
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct StreamingLotExecutor<'ctx> {
    context: Option<&'ctx ExecutionContext>,
}

impl<'ctx> StreamingLotExecutor<'ctx> {
    /// Creates an executor bound to an execution context: a lot is split
    /// across the context's workers.
    pub fn with_context(context: &'ctx ExecutionContext) -> Self {
        StreamingLotExecutor {
            context: Some(context),
        }
    }

    /// Streams the model lot described by `config` through the wafer test
    /// summarised by `dictionary`, folding every chip into running
    /// statistics, and tabulates the cumulative-reject experiment at
    /// `checkpoints` (pattern counts, exactly as
    /// [`ParallelLotRunner::experiment`]).
    ///
    /// The returned statistics are byte-identical to generating the whole
    /// lot, testing it and tabulating in memory — at any worker count —
    /// while peak memory stays
    /// `O(workers × (patterns + N / 64))` for an `N`-fault universe.
    ///
    /// # Panics
    ///
    /// Panics on the same invalid model configurations as
    /// [`ParallelLotRunner::generate_model_lot`].
    pub fn stream_model_lot(
        &self,
        config: &ModelLotConfig,
        dictionary: &FaultDictionary,
        coverage: &CoverageCurve,
        checkpoints: &[usize],
    ) -> StreamedLot {
        let draw = ModelDraw::new(config);
        CHIPS.add(config.chips as u64);
        let _timer = LOT_SPAN.start();
        let shard_folds = shard_map(
            self.context,
            config.chips,
            ParallelLotRunner::MIN_ITEMS_PER_SHARD,
            |range| {
                let mut sampler = draw.sampler();
                let mut shard = LotFold::default();
                for chip in range {
                    shard.absorb(draw.faults(chip, &mut sampler), dictionary);
                }
                shard
            },
        );
        let mut fold = LotFold::default();
        for shard in shard_folds {
            fold.merge(shard);
        }
        Self::tabulate(config.chips, fold, coverage, checkpoints)
    }

    /// Derives the final statistics from the merged integer accumulators —
    /// the same prefix-sum and divisions as the in-memory path.
    fn tabulate(
        chips: usize,
        fold: LotFold,
        coverage: &CoverageCurve,
        checkpoints: &[usize],
    ) -> StreamedLot {
        let experiment =
            RejectExperiment::from_fail_counts(&fold.fail_counts, chips, coverage, checkpoints);
        StreamedLot {
            chips,
            observed_yield: if chips == 0 {
                0.0
            } else {
                fold.good as f64 / chips as f64
            },
            observed_n0: if fold.defective == 0 {
                0.0
            } else {
                fold.total_faults as f64 / fold.defective as f64
            },
            observed_nav: if chips == 0 {
                0.0
            } else {
                fold.total_faults as f64 / chips as f64
            },
            outcome: FieldOutcome {
                shipped: fold.shipped,
                escapes: fold.escapes,
                rejected: chips - fold.shipped,
                total: chips,
            },
            experiment,
        }
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
        let circuit = library::alu4();
        let universe = FaultUniverse::full(&circuit);
        let patterns: PatternSet = (0..96)
            .map(|v| Pattern::from_integer(v * 11 + 5, 10))
            .collect();
        let list = IncrementalSimulator::new(&circuit).run(&universe, &patterns);
        let coverage = CoverageCurve::from_fault_list(&list, patterns.len());
        let dictionary = FaultDictionary::from_fault_list(&list);
        (dictionary, coverage, universe.len())
    }

    #[test]
    fn streamed_statistics_match_the_in_memory_pipeline_exactly() {
        let (dictionary, coverage, universe) = fixture();
        let config = ModelLotConfig {
            chips: 3_001,
            yield_fraction: 0.25,
            n0: 4.0,
            fault_universe_size: universe,
            seed: 1981,
        };
        let checkpoints: Vec<usize> = (1..=coverage.pattern_count()).collect();
        let runner = ParallelLotRunner::default();
        let lot = runner.generate_model_lot(&config);
        let records = runner.test_lot(&dictionary, &lot);
        let experiment = RejectExperiment::tabulate(&records, &coverage, &checkpoints);
        let outcome = FieldOutcome::from_records(&records);
        for workers in [1, 2, 3] {
            let context = ExecutionContext::new(workers);
            let streamed = StreamingLotExecutor::with_context(&context).stream_model_lot(
                &config,
                &dictionary,
                &coverage,
                &checkpoints,
            );
            assert_eq!(streamed.chips, config.chips);
            assert_eq!(streamed.outcome, outcome, "workers {workers}");
            assert_eq!(streamed.experiment, experiment, "workers {workers}");
            assert_eq!(
                streamed.observed_yield.to_bits(),
                lot.observed_yield().to_bits(),
                "workers {workers}"
            );
            assert_eq!(
                streamed.observed_n0.to_bits(),
                lot.observed_n0().to_bits(),
                "workers {workers}"
            );
        }
    }

    #[test]
    fn empty_lot_streams_to_zeroes() {
        let (dictionary, coverage, universe) = fixture();
        let config = ModelLotConfig {
            chips: 0,
            yield_fraction: 0.5,
            n0: 2.0,
            fault_universe_size: universe,
            seed: 3,
        };
        let streamed = StreamingLotExecutor::default().stream_model_lot(
            &config,
            &dictionary,
            &coverage,
            &[1, 8],
        );
        assert_eq!(streamed.chips, 0);
        assert_eq!(streamed.observed_yield, 0.0);
        assert_eq!(streamed.observed_n0, 0.0);
        assert_eq!(streamed.outcome.total, 0);
        assert!(streamed
            .experiment
            .rows()
            .iter()
            .all(|row| row.chips_failed == 0 && row.fraction_failed == 0.0));
    }
}

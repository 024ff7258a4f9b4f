//! Streaming, memory-bounded lot execution.
//!
//! The in-memory pipeline ([`ParallelLotRunner::run_model_line`]) holds a
//! whole [`ChipLot`](crate::lot::ChipLot) and its test records at once —
//! fine for the paper's 277-chip Table 1 run, impossible for the
//! billion-chip planning sweeps a production service fields.
//! [`StreamingLotExecutor`] evaluates the same model lot in fixed-size
//! blocks instead: each block's chips are generated from their per-chip
//! RNG streams, wafer-tested against the fault dictionary, and immediately
//! folded into running integer accumulators — a first-fail counting-sort
//! histogram, good/defective/fault-count tallies and the field-outcome
//! counters.  No chip outlives its fold: each worker draws its chips'
//! faults into one reusable [`IndexSampler`](lsiq_stats::rng::IndexSampler),
//! a `⌈N / 64⌉`-word membership bitset over the `N`-fault universe plus its
//! picks, and folds them without building a chip record.  Peak memory is
//! therefore `O(workers × (patterns + N / 64))` words regardless of lot
//! size.
//!
//! Every accumulator is an integer sum, and integer addition is associative
//! and commutative, so the block structure and the worker sharding are
//! invisible in the output: the statistics are **byte-identical** to the
//! in-memory path at any block length and any worker count (enforced by
//! `tests/streaming_differential.rs`).  The final divisions (observed
//! yield, `n0`, reject fractions) are performed once, from the same integer
//! totals in the same order as the in-memory code.

use crate::experiment::RejectExperiment;
use crate::field::FieldOutcome;
use crate::lot::{ModelDraw, ModelLotConfig};
use crate::pipeline::ParallelLotRunner;
use lsiq_exec::{shard_map, ExecutionContext};
use lsiq_fault::coverage::CoverageCurve;
use lsiq_fault::dictionary::FaultDictionary;
use lsiq_obs::{Counter, Span};

/// Fixed-size blocks dispatched (`⌈chips / block_len⌉` per lot — invariant
/// at any worker count, though not across block lengths).
static BLOCKS: Counter = Counter::new("streaming.blocks");
/// Chips generated, tested and folded across all streamed lots.
static CHIPS: Counter = Counter::new("streaming.chips");
/// One block's generate-test-fold fork-join round.
static BLOCK_SPAN: Span = Span::new("streaming.block");

/// Everything a streamed lot yields: the observed ground truth, the field
/// outcome of shipping the passers, and the cumulative-reject table — the
/// same statistics as [`LotOutcome`](crate::pipeline::LotOutcome), minus
/// the per-chip records (which a streamed run never materializes).
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

/// Evaluates model lots in fixed-size blocks folded into running
/// statistics — the memory-bounded counterpart of
/// [`ParallelLotRunner::run_model_line`].  Each block's chips shard across
/// the workers of the context bound with
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
/// let streamed = StreamingLotExecutor::default()
///     .with_block_len(1_000)
///     .stream_model_lot(&config, &dictionary, &coverage, &[4, 8, 16]);
/// assert_eq!(streamed.chips, 10_000);
/// assert_eq!(streamed.outcome.total, 10_000);
/// assert_eq!(streamed.experiment.rows().len(), 3);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct StreamingLotExecutor<'ctx> {
    context: Option<&'ctx ExecutionContext>,
    block_len: usize,
}

impl Default for StreamingLotExecutor<'_> {
    fn default() -> Self {
        StreamingLotExecutor {
            context: None,
            block_len: Self::DEFAULT_BLOCK_LEN,
        }
    }
}

impl<'ctx> StreamingLotExecutor<'ctx> {
    /// The default block length: large enough to amortize the fork-join per
    /// block, small enough that a block is milliseconds of work.
    pub const DEFAULT_BLOCK_LEN: usize = 65_536;

    /// Creates an executor bound to a persistent worker pool.
    pub fn with_context(context: &'ctx ExecutionContext) -> Self {
        StreamingLotExecutor {
            context: Some(context),
            ..Self::default()
        }
    }

    /// Sets the block length (chips evaluated per fork-join round); `0` is
    /// clamped to 1.  The choice bounds memory and batches scheduling — it
    /// never changes the statistics.
    pub fn with_block_len(mut self, block_len: usize) -> Self {
        self.block_len = block_len.max(1);
        self
    }

    /// The configured block length.
    pub fn block_len(&self) -> usize {
        self.block_len
    }

    /// Streams the model lot described by `config` through the wafer test
    /// summarised by `dictionary`, folding every chip into running
    /// statistics, and tabulates the cumulative-reject experiment at
    /// `checkpoints` (pattern counts, exactly as
    /// [`ParallelLotRunner::experiment`]).
    ///
    /// The returned statistics are byte-identical to generating the whole
    /// lot, testing it and tabulating in memory — at any block length and
    /// any worker count — while peak memory stays
    /// `O(workers × (patterns + N / 64))` for an `N`-fault universe.
    ///
    /// # Panics
    ///
    /// Panics on the same invalid model configurations as
    /// [`ChipLot::from_model`](crate::lot::ChipLot::from_model).
    pub fn stream_model_lot(
        &self,
        config: &ModelLotConfig,
        dictionary: &FaultDictionary,
        coverage: &CoverageCurve,
        checkpoints: &[usize],
    ) -> StreamedLot {
        let draw = ModelDraw::new(config);
        let mut fold = LotFold::default();
        let mut start = 0usize;
        while start < config.chips {
            let block = (config.chips - start).min(self.block_len);
            BLOCKS.incr();
            CHIPS.add(block as u64);
            let _timer = BLOCK_SPAN.start();
            let shard_folds = shard_map(
                self.context,
                block,
                ParallelLotRunner::MIN_ITEMS_PER_SHARD,
                |range| {
                    let mut sampler = draw.sampler();
                    let mut shard = LotFold::default();
                    for offset in range {
                        shard.absorb(draw.faults(start + offset, &mut sampler), dictionary);
                    }
                    shard
                },
            );
            for shard in shard_folds {
                fold.merge(shard);
            }
            start += block;
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
        let context = ExecutionContext::new(2);
        let reference = ParallelLotRunner::with_context(&context).run_model_line(
            &config,
            &dictionary,
            &coverage,
        );
        for block in [1, 7, 128, 1_000, 100_000] {
            let streamed = StreamingLotExecutor::with_context(&context)
                .with_block_len(block)
                .stream_model_lot(&config, &dictionary, &coverage, &checkpoints);
            assert_eq!(streamed.chips, config.chips);
            assert_eq!(streamed.outcome, reference.outcome, "block {block}");
            assert_eq!(streamed.experiment, reference.experiment, "block {block}");
            assert_eq!(
                streamed.observed_yield.to_bits(),
                reference.observed_yield.to_bits(),
                "block {block}"
            );
            assert_eq!(
                streamed.observed_n0.to_bits(),
                reference.observed_n0.to_bits(),
                "block {block}"
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

    #[test]
    fn block_length_is_clamped_and_reported() {
        let executor = StreamingLotExecutor::default().with_block_len(0);
        assert_eq!(executor.block_len(), 1);
        assert_eq!(
            StreamingLotExecutor::default().block_len(),
            StreamingLotExecutor::DEFAULT_BLOCK_LEN
        );
    }
}

//! Chip lots and their generator configurations.
//!
//! A lot is drawn by
//! [`ParallelLotRunner`](crate::pipeline::ParallelLotRunner) in one of two
//! ways:
//!
//! * from the paper's statistical model ([`ModelLotConfig`]: yield `y`,
//!   shifted-Poisson fault count with mean `n0`), giving experiments a known
//!   ground truth to validate the estimation procedure against, or
//! * through the physical pipeline ([`PhysicalLotConfig`]: clustered
//!   defects → defect-to-fault mapping), in which `y` and `n0` are emergent
//!   quantities, as on a real processing line.
//!
//! Chip `i` of a lot draws only from its own RNG stream,
//! [`Xoshiro256StarStar::stream`]`(seed, i)`, so a chip's faults are a pure
//! function of `(config, i)` — independent of how many chips precede it and
//! of which thread generates it.  That is what lets the runner shard a lot
//! across threads and still produce byte-identical results.

use crate::chip::Chip;
use crate::defect::DefectModel;
use lsiq_stats::dist::{Poisson, Sample};
use lsiq_stats::rng::{IndexSampler, Rng, Xoshiro256StarStar};

/// Configuration for a lot drawn directly from the paper's statistical model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModelLotConfig {
    /// Number of chips in the lot (the paper tested 277).
    pub chips: usize,
    /// Probability that a chip is fault-free (the yield `y`).
    pub yield_fraction: f64,
    /// Average number of faults on a *defective* chip (the paper's `n0`).
    pub n0: f64,
    /// Size of the fault universe the fault indices refer to (`N`).
    pub fault_universe_size: usize,
    /// Seed for the deterministic generator.
    pub seed: u64,
}

/// Configuration for a lot produced by the physical defect pipeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhysicalLotConfig {
    /// Number of chips in the lot.
    pub chips: usize,
    /// Physical defect model (mean defects per chip and clustering).
    pub defect_model: DefectModel,
    /// Mean number of *extra* logical faults per defect beyond the first.
    pub extra_faults_per_defect: f64,
    /// Size of the fault universe the fault indices refer to (`N`).
    pub fault_universe_size: usize,
    /// Seed for the deterministic generator.
    pub seed: u64,
}

/// The lot-wide set-up of model-chip draws: the validated configuration
/// and its fault-count Poisson, built once per lot.  Both paths that draw
/// model chips (the runner's generated lot and the streamed fold) go
/// through [`faults`](Self::faults) with one [`IndexSampler`] per worker:
/// the generated lot collects each chip's faults, the streamed fold keeps
/// only their count and earliest first-failing pattern.
#[derive(Debug)]
pub(crate) struct ModelDraw {
    config: ModelLotConfig,
    /// `Poisson(n0 - 1)`, or `None` when `n0` is 1 and every defective
    /// chip carries exactly one fault.
    extra_faults: Option<Poisson>,
}

impl ModelDraw {
    /// Validates `config` and sets up its fault-count distribution.
    ///
    /// # Panics
    ///
    /// Panics on the invalid configurations
    /// [`ParallelLotRunner::generate_model_lot`](crate::pipeline::ParallelLotRunner::generate_model_lot)
    /// documents.
    pub(crate) fn new(config: &ModelLotConfig) -> ModelDraw {
        assert!(
            config.fault_universe_size > 0,
            "fault universe must not be empty"
        );
        assert!(
            (0.0..=1.0).contains(&config.yield_fraction),
            "yield must be a probability"
        );
        assert!(
            config.n0 >= 1.0,
            "n0 is the mean fault count of defective chips and must be >= 1"
        );
        let extra = config.n0 - 1.0;
        ModelDraw {
            config: *config,
            extra_faults: (extra > 0.0).then(|| Poisson::new(extra).expect("n0 must be finite")),
        }
    }

    /// A worker's sampler over the lot's fault universe.
    pub(crate) fn sampler(&self) -> IndexSampler {
        IndexSampler::new(self.config.fault_universe_size)
    }

    /// Draws the faults of chip `id` from the chip's own RNG stream with
    /// `sampler`, passing each to `visit` in draw order.  The chip is good
    /// (`visit` is never called) with probability `y`; otherwise it carries
    /// `1 + Poisson(n0 - 1)` distinct faults, at most the whole universe.
    // Inlined into each lot's chip loop, like `IndexSampler::sample`, so
    // the streamed fold's running count and minimum live in registers.
    #[inline]
    pub(crate) fn faults(&self, id: usize, sampler: &mut IndexSampler, visit: impl FnMut(usize)) {
        let mut rng = Xoshiro256StarStar::stream(self.config.seed, id as u64);
        if rng.next_bool(self.config.yield_fraction) {
            return;
        }
        let extra = self
            .extra_faults
            .map_or(0, |poisson| poisson.sample(&mut rng) as usize);
        let count = (1 + extra).min(self.config.fault_universe_size);
        sampler.sample(count, &mut rng, visit);
    }
}

/// A lot of simulated chips sharing one fault universe.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChipLot {
    chips: Vec<Chip>,
    fault_universe_size: usize,
}

impl ChipLot {
    /// Assembles a lot from already generated chips (the runner's merge
    /// step).  The chips must be in lot order.
    pub(crate) fn from_chips(chips: Vec<Chip>, fault_universe_size: usize) -> ChipLot {
        debug_assert!(chips.iter().enumerate().all(|(i, c)| c.id() == i));
        ChipLot {
            chips,
            fault_universe_size,
        }
    }

    /// Number of chips in the lot.
    pub fn len(&self) -> usize {
        self.chips.len()
    }

    /// Returns `true` if the lot contains no chips.
    pub fn is_empty(&self) -> bool {
        self.chips.is_empty()
    }

    /// The chips in lot order.
    pub fn chips(&self) -> &[Chip] {
        &self.chips
    }

    /// The chip at position `index`.
    pub fn get(&self, index: usize) -> Option<&Chip> {
        self.chips.get(index)
    }

    /// Size of the fault universe the chips' fault indices refer to.
    pub fn fault_universe_size(&self) -> usize {
        self.fault_universe_size
    }

    /// Fraction of fault-free chips (the observed yield).
    pub fn observed_yield(&self) -> f64 {
        if self.chips.is_empty() {
            return 0.0;
        }
        self.chips.iter().filter(|chip| chip.is_good()).count() as f64 / self.chips.len() as f64
    }

    /// Average number of faults over the *defective* chips (the observed
    /// counterpart of the paper's `n0`), or zero if every chip is good.
    pub fn observed_n0(&self) -> f64 {
        let defective: Vec<&Chip> = self.chips.iter().filter(|chip| !chip.is_good()).collect();
        if defective.is_empty() {
            return 0.0;
        }
        defective
            .iter()
            .map(|chip| chip.fault_count())
            .sum::<usize>() as f64
            / defective.len() as f64
    }

    /// Average number of faults over *all* chips (the paper's `n_av`, eq. 2).
    pub fn observed_nav(&self) -> f64 {
        if self.chips.is_empty() {
            return 0.0;
        }
        self.chips
            .iter()
            .map(|chip| chip.fault_count())
            .sum::<usize>() as f64
            / self.chips.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::ParallelLotRunner;

    fn model_lot(chips: usize, seed: u64) -> ChipLot {
        ParallelLotRunner::default().generate_model_lot(&ModelLotConfig {
            chips,
            yield_fraction: 0.3,
            n0: 6.0,
            fault_universe_size: 2_000,
            seed,
        })
    }

    #[test]
    fn model_lot_matches_requested_parameters() {
        let lot = model_lot(5_000, 1);
        assert_eq!(lot.len(), 5_000);
        assert!(
            (lot.observed_yield() - 0.3).abs() < 0.03,
            "yield {}",
            lot.observed_yield()
        );
        assert!(
            (lot.observed_n0() - 6.0).abs() < 0.2,
            "n0 {}",
            lot.observed_n0()
        );
        // eq. 2: n_av = (1 - y) * n0.
        let expected_nav = (1.0 - lot.observed_yield()) * lot.observed_n0();
        assert!((lot.observed_nav() - expected_nav).abs() < 1e-9);
    }

    #[test]
    fn model_lot_is_deterministic_per_seed() {
        assert_eq!(model_lot(100, 9), model_lot(100, 9));
        assert_ne!(model_lot(100, 9), model_lot(100, 10));
    }

    #[test]
    fn defective_chips_have_at_least_one_fault() {
        let lot = model_lot(500, 3);
        for chip in lot.chips() {
            if !chip.is_good() {
                assert!(chip.fault_count() >= 1);
            }
            assert!(chip
                .fault_indices()
                .iter()
                .all(|&f| f < lot.fault_universe_size()));
        }
    }

    #[test]
    fn physical_lot_yield_tracks_defect_model() {
        let defect_model = DefectModel::for_target_yield(0.25, 1.0).expect("valid");
        let lot = ParallelLotRunner::default().generate_physical_lot(&PhysicalLotConfig {
            chips: 4_000,
            defect_model,
            extra_faults_per_defect: 2.0,
            fault_universe_size: 3_000,
            seed: 21,
        });
        assert!(
            (lot.observed_yield() - 0.25).abs() < 0.03,
            "yield {}",
            lot.observed_yield()
        );
        // With about three faults per defect and clustered defects, defective
        // chips must average well over one fault.
        assert!(lot.observed_n0() > 2.0, "n0 {}", lot.observed_n0());
        // Physical chips carry their defect counts.
        assert!(lot.chips().iter().any(|chip| chip.defect_count() > 0));
    }

    #[test]
    fn accessors_and_empty_lot() {
        let lot = model_lot(10, 2);
        assert!(lot.get(0).is_some());
        assert!(lot.get(10).is_none());
        assert!(!lot.is_empty());
        let empty = ParallelLotRunner::default().generate_model_lot(&ModelLotConfig {
            chips: 0,
            yield_fraction: 0.5,
            n0: 2.0,
            fault_universe_size: 10,
            seed: 1,
        });
        assert!(empty.is_empty());
        assert_eq!(empty.observed_yield(), 0.0);
        assert_eq!(empty.observed_n0(), 0.0);
        assert_eq!(empty.observed_nav(), 0.0);
    }

    #[test]
    #[should_panic(expected = "n0 is the mean fault count")]
    fn n0_below_one_is_rejected() {
        let _ = ParallelLotRunner::default().generate_model_lot(&ModelLotConfig {
            chips: 10,
            yield_fraction: 0.5,
            n0: 0.5,
            fault_universe_size: 10,
            seed: 1,
        });
    }
}

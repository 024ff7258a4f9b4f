//! Probability distributions used by the quality model and the Monte-Carlo
//! production line.
//!
//! Everything is implemented in-tree (no external crates): the [`Poisson`]
//! fault/defect counts of eq. 1, the [`NegativeBinomial`] defect model whose
//! zero class is the paper's yield formula (eq. 3), the [`Hypergeometric`]
//! urn behind the escape probabilities of Appendix A, and a [`Categorical`]
//! chooser for weighted discrete selections (gate kinds, defect kinds).

use crate::error::StatsError;
use crate::rng::Rng;
use crate::special::{ln_binomial, ln_factorial};

/// A distribution that can draw one value with a supplied generator.
pub trait Sample {
    /// The type of a single draw.
    type Value;

    /// Draws one value.
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Self::Value;
}

/// A discrete distribution over the non-negative integers.
pub trait DiscreteDistribution {
    /// Probability mass at `k`.
    fn pmf(&self, k: u64) -> f64;

    /// Cumulative probability `P(X <= k)`, summed directly.
    fn cdf(&self, k: u64) -> f64 {
        (0..=k).map(|i| self.pmf(i)).sum()
    }
}

fn require_positive_finite(name: &'static str, value: f64) -> Result<(), StatsError> {
    if !value.is_finite() || value <= 0.0 {
        return Err(StatsError::InvalidParameter {
            name,
            value,
            expected: "a finite value > 0",
        });
    }
    Ok(())
}

/// The Poisson distribution with a given mean.
///
/// Construction sets up the sampler once: a mean above the Knuth limit of
/// 30 splits additively (a sum of independent Poisson variates is Poisson)
/// into `blocks` draws at the limit and one draw at the remainder, and the
/// `exp(-mean)` thresholds of those draws are computed here rather than on
/// every [`sample`](Sample::sample).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Poisson {
    mean: f64,
    /// Knuth draws at mean [`KNUTH_LIMIT`] before the remainder's draw.
    blocks: u64,
    /// `exp(-KNUTH_LIMIT)`, the threshold of each block's draw.
    block_threshold: f64,
    /// `exp(-remainder)`, the threshold of the final draw.
    remainder_threshold: f64,
}

/// The largest mean drawn with Knuth's product-of-uniforms method; `exp`
/// of its negation is still far from underflow.
const KNUTH_LIMIT: f64 = 30.0;

impl Poisson {
    /// Creates a Poisson distribution with the given mean.
    ///
    /// # Errors
    ///
    /// Returns an error if `mean` is not finite and strictly positive.
    pub fn new(mean: f64) -> Result<Self, StatsError> {
        require_positive_finite("mean", mean)?;
        Ok(Poisson::from_positive_mean(mean))
    }

    /// Sets up the draws of a positive, finite `mean`.
    ///
    /// The split equals the one that subtracting [`KNUTH_LIMIT`] while the
    /// mean exceeds it reaches: `%` is exact, and so is each such
    /// subtraction below 2^54.
    fn from_positive_mean(mean: f64) -> Poisson {
        let (blocks, remainder) = if mean > KNUTH_LIMIT {
            let rest = mean % KNUTH_LIMIT;
            let remainder = if rest == 0.0 { KNUTH_LIMIT } else { rest };
            (((mean - remainder) / KNUTH_LIMIT) as u64, remainder)
        } else {
            (0, mean)
        };
        Poisson {
            mean,
            blocks,
            block_threshold: if blocks > 0 {
                (-KNUTH_LIMIT).exp()
            } else {
                0.0
            },
            remainder_threshold: (-remainder).exp(),
        }
    }

    /// The distribution mean.
    pub fn mean(&self) -> f64 {
        self.mean
    }
}

impl DiscreteDistribution for Poisson {
    fn pmf(&self, k: u64) -> f64 {
        (k as f64 * self.mean.ln() - self.mean - ln_factorial(k)).exp()
    }
}

impl Sample for Poisson {
    type Value = u64;

    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        let mut total = 0u64;
        for _ in 0..self.blocks {
            total += sample_knuth(self.block_threshold, rng);
        }
        total + sample_knuth(self.remainder_threshold, rng)
    }
}

/// Knuth's product-of-uniforms Poisson draw: the number of uniforms
/// multiplied in before the product falls to `threshold = exp(-mean)`.
fn sample_knuth<R: Rng + ?Sized>(threshold: f64, rng: &mut R) -> u64 {
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

/// The negative binomial distribution parameterised, as in yield modelling,
/// by its mean `m` and the clustering parameter `lambda`.
///
/// The defect count is Poisson with a gamma-distributed rate whose squared
/// coefficient of variation is `lambda`; the zero class is then the paper's
/// eq. 3 yield, `P(0) = (1 + lambda * m)^(-1/lambda)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NegativeBinomial {
    mean: f64,
    clustering: f64,
}

impl NegativeBinomial {
    /// Creates the distribution from its mean and clustering parameter.
    ///
    /// # Errors
    ///
    /// Returns an error unless both parameters are finite and strictly
    /// positive.
    pub fn from_mean_clustering(mean: f64, clustering: f64) -> Result<Self, StatsError> {
        require_positive_finite("mean", mean)?;
        require_positive_finite("clustering", clustering)?;
        Ok(NegativeBinomial { mean, clustering })
    }

    /// The distribution mean.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// The clustering parameter `lambda`.
    pub fn clustering(&self) -> f64 {
        self.clustering
    }

    /// The number-of-successes parameter `r = 1 / lambda`.
    fn size(&self) -> f64 {
        1.0 / self.clustering
    }

    /// The success probability `p = 1 / (1 + lambda * m)`.
    fn success_probability(&self) -> f64 {
        1.0 / (1.0 + self.clustering * self.mean)
    }
}

impl DiscreteDistribution for NegativeBinomial {
    fn pmf(&self, k: u64) -> f64 {
        // P(k) = Gamma(r + k) / (k! Gamma(r)) * p^r * (1 - p)^k.
        let r = self.size();
        let p = self.success_probability();
        let k_f = k as f64;
        let ln_coeff =
            crate::special::ln_gamma(r + k_f) - ln_factorial(k) - crate::special::ln_gamma(r);
        (ln_coeff + r * p.ln() + k_f * (1.0 - p).ln()).exp()
    }
}

impl Sample for NegativeBinomial {
    type Value = u64;

    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        // Gamma-Poisson mixture: rate ~ Gamma(shape = r, scale = lambda * m),
        // then defects ~ Poisson(rate).
        let shape = self.size();
        let scale = self.clustering * self.mean;
        let rate = sample_gamma(shape, rng) * scale;
        if rate > 0.0 {
            Poisson::from_positive_mean(rate).sample(rng)
        } else {
            0
        }
    }
}

/// Draws a standard normal variate with the Marsaglia polar method.
fn sample_standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    loop {
        let u = 2.0 * rng.next_f64() - 1.0;
        let v = 2.0 * rng.next_f64() - 1.0;
        let s = u * u + v * v;
        if s > 0.0 && s < 1.0 {
            return u * (-2.0 * s.ln() / s).sqrt();
        }
    }
}

/// Draws a Gamma(shape, scale = 1) variate with the Marsaglia–Tsang method,
/// boosted for shapes below one.
fn sample_gamma<R: Rng + ?Sized>(shape: f64, rng: &mut R) -> f64 {
    if shape < 1.0 {
        // Boost: Gamma(a) = Gamma(a + 1) * U^(1/a).
        let boost = rng.next_f64().powf(1.0 / shape);
        return sample_gamma(shape + 1.0, rng) * boost;
    }
    let d = shape - 1.0 / 3.0;
    let c = 1.0 / (9.0 * d).sqrt();
    loop {
        let x = sample_standard_normal(rng);
        let v = (1.0 + c * x).powi(3);
        if v <= 0.0 {
            continue;
        }
        let u = rng.next_f64();
        if u < 1.0 - 0.0331 * x.powi(4) {
            return d * v;
        }
        if u > 0.0 && u.ln() < 0.5 * x * x + d * (1.0 - v + v.ln()) {
            return d * v;
        }
    }
}

/// The hypergeometric distribution: draws without replacement from an urn.
///
/// With a fault universe of `population` faults of which `successes` are
/// covered by the test set, and `draws` faults actually present on a chip,
/// [`pmf(k)`](DiscreteDistribution::pmf) is the probability that exactly `k`
/// of the present faults are covered (the paper's eq. 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hypergeometric {
    population: u64,
    draws: u64,
    successes: u64,
}

impl Hypergeometric {
    /// Creates the distribution for `draws` draws from a population of
    /// `population` items containing `successes` marked items.
    ///
    /// # Errors
    ///
    /// Returns an error if the population is empty or either `draws` or
    /// `successes` exceeds it.
    pub fn new(population: u64, draws: u64, successes: u64) -> Result<Self, StatsError> {
        if population == 0 {
            return Err(StatsError::InvalidParameter {
                name: "population",
                value: 0.0,
                expected: "a non-empty population",
            });
        }
        if draws > population {
            return Err(StatsError::InvalidParameter {
                name: "draws",
                value: draws as f64,
                expected: "at most the population size",
            });
        }
        if successes > population {
            return Err(StatsError::InvalidParameter {
                name: "successes",
                value: successes as f64,
                expected: "at most the population size",
            });
        }
        Ok(Hypergeometric {
            population,
            draws,
            successes,
        })
    }

    /// The population size.
    pub fn population(&self) -> u64 {
        self.population
    }

    /// The number of draws.
    pub fn draws(&self) -> u64 {
        self.draws
    }

    /// The number of marked items in the population.
    pub fn successes(&self) -> u64 {
        self.successes
    }
}

impl DiscreteDistribution for Hypergeometric {
    fn pmf(&self, k: u64) -> f64 {
        let n = self.population;
        let m = self.successes;
        let d = self.draws;
        // Support: max(0, d - (n - m)) <= k <= min(d, m).
        if k > d || k > m || d - k > n - m {
            return 0.0;
        }
        (ln_binomial(m, k) + ln_binomial(n - m, d - k) - ln_binomial(n, d)).exp()
    }
}

/// A categorical (weighted index) distribution over `0..weights.len()`.
#[derive(Debug, Clone, PartialEq)]
pub struct Categorical {
    cumulative: Vec<f64>,
}

impl Categorical {
    /// Creates the distribution from non-negative weights (not necessarily
    /// normalised).
    ///
    /// # Errors
    ///
    /// Returns an error if `weights` is empty, contains a negative or
    /// non-finite weight, or sums to zero.
    pub fn new(weights: &[f64]) -> Result<Self, StatsError> {
        if weights.is_empty() {
            return Err(StatsError::InsufficientData {
                required: 1,
                actual: 0,
            });
        }
        let mut cumulative = Vec::with_capacity(weights.len());
        let mut running = 0.0;
        for &weight in weights {
            if !weight.is_finite() || weight < 0.0 {
                return Err(StatsError::InvalidParameter {
                    name: "weight",
                    value: weight,
                    expected: "a finite value >= 0",
                });
            }
            running += weight;
            cumulative.push(running);
        }
        if running <= 0.0 {
            return Err(StatsError::InvalidParameter {
                name: "weights",
                value: running,
                expected: "a positive total weight",
            });
        }
        Ok(Categorical { cumulative })
    }

    /// Number of categories.
    pub fn len(&self) -> usize {
        self.cumulative.len()
    }

    /// Returns `true` if there are no categories (never true for a
    /// successfully constructed value).
    pub fn is_empty(&self) -> bool {
        self.cumulative.is_empty()
    }

    /// Probability of category `index`.
    pub fn probability(&self, index: usize) -> f64 {
        let total = *self.cumulative.last().expect("non-empty by construction");
        let lo = if index == 0 {
            0.0
        } else {
            self.cumulative[index - 1]
        };
        (self.cumulative[index] - lo) / total
    }
}

impl Sample for Categorical {
    type Value = usize;

    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let total = *self.cumulative.last().expect("non-empty by construction");
        let target = rng.next_f64() * total;
        match self
            .cumulative
            .binary_search_by(|probe| probe.partial_cmp(&target).expect("finite"))
        {
            Ok(index) => (index + 1).min(self.cumulative.len() - 1),
            Err(index) => index.min(self.cumulative.len() - 1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Xoshiro256StarStar;

    #[test]
    fn poisson_rejects_bad_means() {
        assert!(Poisson::new(0.0).is_err());
        assert!(Poisson::new(-2.0).is_err());
        assert!(Poisson::new(f64::NAN).is_err());
        assert!(Poisson::new(f64::INFINITY).is_err());
        assert!(Poisson::new(3.5).is_ok());
    }

    #[test]
    fn poisson_pmf_sums_to_one_and_matches_mean() {
        let poisson = Poisson::new(4.5).expect("valid");
        let total: f64 = (0..200).map(|k| poisson.pmf(k)).sum();
        assert!((total - 1.0).abs() < 1e-9);
        let mean: f64 = (0..200).map(|k| k as f64 * poisson.pmf(k)).sum();
        assert!((mean - 4.5).abs() < 1e-9);
        assert_eq!(poisson.mean(), 4.5);
    }

    #[test]
    fn poisson_sampling_matches_mean_and_variance() {
        let poisson = Poisson::new(7.0).expect("valid");
        let mut rng = Xoshiro256StarStar::seed_from_u64(42);
        let n = 100_000;
        let draws: Vec<u64> = (0..n).map(|_| poisson.sample(&mut rng)).collect();
        let mean = draws.iter().sum::<u64>() as f64 / n as f64;
        assert!((mean - 7.0).abs() < 0.05, "mean {mean}");
        let var = draws
            .iter()
            .map(|&x| (x as f64 - mean).powi(2))
            .sum::<f64>()
            / n as f64;
        assert!((var - 7.0).abs() < 0.2, "variance {var}");
    }

    #[test]
    fn poisson_sampling_handles_large_means() {
        // Exercises the additive split above the Knuth limit.
        let poisson = Poisson::new(250.0).expect("valid");
        let mut rng = Xoshiro256StarStar::seed_from_u64(9);
        let n = 20_000;
        let mean = (0..n).map(|_| poisson.sample(&mut rng)).sum::<u64>() as f64 / n as f64;
        assert!((mean - 250.0).abs() < 1.0, "mean {mean}");
    }

    #[test]
    fn negative_binomial_zero_class_is_equation_three() {
        for &(m, lambda) in &[(2.0, 0.5), (5.0, 1.0), (0.5, 2.0)] {
            let nb = NegativeBinomial::from_mean_clustering(m, lambda).expect("valid");
            let expected = (1.0 + lambda * m).powf(-1.0 / lambda);
            assert!(
                (nb.pmf(0) - expected).abs() < 1e-10,
                "m={m} lambda={lambda}: pmf(0) {} vs {expected}",
                nb.pmf(0)
            );
        }
    }

    #[test]
    fn negative_binomial_pmf_sums_to_one_with_correct_mean() {
        let nb = NegativeBinomial::from_mean_clustering(3.0, 0.8).expect("valid");
        let total: f64 = (0..500).map(|k| nb.pmf(k)).sum();
        assert!((total - 1.0).abs() < 1e-8);
        let mean: f64 = (0..500).map(|k| k as f64 * nb.pmf(k)).sum();
        assert!((mean - 3.0).abs() < 1e-6);
        assert_eq!(nb.mean(), 3.0);
        assert_eq!(nb.clustering(), 0.8);
    }

    #[test]
    fn negative_binomial_sampling_matches_moments() {
        let nb = NegativeBinomial::from_mean_clustering(4.0, 0.5).expect("valid");
        let mut rng = Xoshiro256StarStar::seed_from_u64(77);
        let n = 100_000;
        let draws: Vec<u64> = (0..n).map(|_| nb.sample(&mut rng)).collect();
        let mean = draws.iter().sum::<u64>() as f64 / n as f64;
        assert!((mean - 4.0).abs() < 0.1, "mean {mean}");
        // Variance of NB in this parameterisation: m (1 + lambda m).
        let var = draws
            .iter()
            .map(|&x| (x as f64 - mean).powi(2))
            .sum::<f64>()
            / n as f64;
        assert!((var - 12.0).abs() < 0.6, "variance {var}");
    }

    #[test]
    fn negative_binomial_rejects_bad_parameters() {
        assert!(NegativeBinomial::from_mean_clustering(0.0, 1.0).is_err());
        assert!(NegativeBinomial::from_mean_clustering(1.0, 0.0).is_err());
        assert!(NegativeBinomial::from_mean_clustering(-1.0, 1.0).is_err());
        assert!(NegativeBinomial::from_mean_clustering(1.0, f64::NAN).is_err());
    }

    #[test]
    fn hypergeometric_pmf_sums_to_one() {
        let h = Hypergeometric::new(50, 10, 20).expect("valid");
        let total: f64 = (0..=10).map(|k| h.pmf(k)).sum();
        assert!((total - 1.0).abs() < 1e-10);
        assert_eq!(h.population(), 50);
        assert_eq!(h.draws(), 10);
        assert_eq!(h.successes(), 20);
    }

    #[test]
    fn hypergeometric_respects_support_bounds() {
        // Population 10, 8 marked, 5 draws: at least 3 draws must be marked.
        let h = Hypergeometric::new(10, 5, 8).expect("valid");
        assert_eq!(h.pmf(0), 0.0);
        assert_eq!(h.pmf(2), 0.0);
        assert!(h.pmf(3) > 0.0);
        assert_eq!(h.pmf(6), 0.0);
    }

    #[test]
    fn hypergeometric_matches_direct_combinatorics() {
        use crate::special::binomial;
        let h = Hypergeometric::new(20, 6, 9).expect("valid");
        for k in 0..=6u64 {
            let direct = binomial(9, k) * binomial(11, 6 - k) / binomial(20, 6);
            assert!((h.pmf(k) - direct).abs() < 1e-10, "k={k}");
        }
    }

    #[test]
    fn hypergeometric_rejects_inconsistent_parameters() {
        assert!(Hypergeometric::new(0, 0, 0).is_err());
        assert!(Hypergeometric::new(10, 11, 5).is_err());
        assert!(Hypergeometric::new(10, 5, 11).is_err());
    }

    #[test]
    fn categorical_sampling_tracks_weights() {
        let chooser = Categorical::new(&[1.0, 3.0, 6.0]).expect("valid");
        assert_eq!(chooser.len(), 3);
        assert!(!chooser.is_empty());
        assert!((chooser.probability(2) - 0.6).abs() < 1e-12);
        let mut rng = Xoshiro256StarStar::seed_from_u64(5);
        let n = 100_000;
        let mut counts = [0usize; 3];
        for _ in 0..n {
            counts[chooser.sample(&mut rng)] += 1;
        }
        for (index, &expected) in [0.1, 0.3, 0.6].iter().enumerate() {
            let observed = counts[index] as f64 / n as f64;
            assert!(
                (observed - expected).abs() < 0.01,
                "category {index}: observed {observed}"
            );
        }
    }

    #[test]
    fn categorical_handles_zero_weight_categories() {
        let chooser = Categorical::new(&[0.0, 1.0, 0.0]).expect("valid");
        let mut rng = Xoshiro256StarStar::seed_from_u64(3);
        for _ in 0..1_000 {
            assert_eq!(chooser.sample(&mut rng), 1);
        }
    }

    #[test]
    fn categorical_rejects_bad_weights() {
        assert!(Categorical::new(&[]).is_err());
        assert!(Categorical::new(&[0.0, 0.0]).is_err());
        assert!(Categorical::new(&[1.0, -0.5]).is_err());
        assert!(Categorical::new(&[f64::NAN]).is_err());
    }
}

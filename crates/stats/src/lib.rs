//! Numerical substrate for the LSI product-quality reproduction.
//!
//! This crate provides the deterministic random-number generation, special
//! functions, probability distributions, root finding and least-squares
//! machinery that the rest of the workspace builds on.  Everything is
//! implemented in-tree so that the Monte-Carlo experiments in
//! `lsiq-manufacturing` and the analytic model in `lsiq-core` are
//! bit-reproducible across platforms and independent of external crate
//! version churn.
//!
//! Where the paper's machinery lives here:
//!
//! * [`dist::Poisson`] — the shifted-Poisson fault-number model of eq. 1
//!   draws its `Poisson(n0 - 1)` part from this,
//! * [`dist::NegativeBinomial`] — clustered defect counts whose zero class
//!   is the yield formula of eq. 3,
//! * [`dist::Hypergeometric`] — the escape probability `q0(n)` of eq. 5,
//! * [`rng::Xoshiro256StarStar`] — the workhorse generator behind every
//!   seeded experiment, with [`rng::Xoshiro256StarStar::stream`] deriving
//!   the per-chip streams that keep the multi-threaded production line
//!   byte-identical to its serial path,
//! * [`fit`] and [`roots`] — the least-squares curve fit and root solving
//!   of the Section 5/6 estimation procedures.
//!
//! # Quick example
//!
//! ```
//! use lsiq_stats::rng::Xoshiro256StarStar;
//! use lsiq_stats::dist::Poisson;
//! use lsiq_stats::dist::Sample;
//!
//! let mut rng = Xoshiro256StarStar::seed_from_u64(42);
//! let poisson = Poisson::new(7.0).expect("positive mean");
//! let draw = poisson.sample(&mut rng);
//! assert!(draw < 1_000);
//! ```

pub mod dist;
pub mod error;
pub mod fit;
pub mod rng;
pub mod roots;
pub mod special;

pub use error::StatsError;
pub use rng::{Rng, SplitMix64, Xoshiro256StarStar};

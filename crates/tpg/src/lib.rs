//! Test pattern generation.
//!
//! The paper's procedure starts from "a set of test patterns that need not
//! have a high fault coverage", applied to the chip in a fixed order.  This
//! crate generates such pattern sets:
//!
//! * [`random`] — seeded uniform random patterns (LFSR and STUMPS sources
//!   live in `lsiq-bist`),
//! * [`podem`] — a PODEM combinational ATPG for targeting specific faults,
//! * [`compaction`] — reverse-order fault-simulation compaction,
//! * [`suite`] — an end-to-end builder that combines random generation with
//!   PODEM top-up to reach a target coverage, producing the ordered pattern
//!   set the production-line tester applies.
//!
//! # Quick example
//!
//! ```
//! use lsiq_netlist::library;
//! use lsiq_tpg::random::RandomPatternGenerator;
//!
//! let circuit = library::c17();
//! let patterns = RandomPatternGenerator::new(&circuit, 42).generate(16);
//! assert_eq!(patterns.len(), 16);
//! ```

pub mod compaction;
pub mod podem;
pub mod random;
pub mod suite;

pub use podem::{Podem, TestOutcome};
pub use random::RandomPatternGenerator;
pub use suite::{TestSuite, TestSuiteBuilder};

//! Built-in self-test: pattern generation, signature compaction, aliasing.
//!
//! The paper ties product quality to the fault coverage of the applied test;
//! this crate models the 1981-and-onward way that test increasingly reached
//! the chip — *on-chip*, from an LFSR pattern source into a MISR response
//! compactor — and quantifies what the compactor costs: signature aliasing
//! silently converts detected faults into test escapes, so the coverage the
//! quality model should consume is lower than the fault simulator reports.
//!
//! * [`lfsr`] — parameterizable Galois LFSRs with a built-in table of
//!   maximal-length polynomials (the register under both the generator and
//!   the compactor, and the workspace's only LFSR pattern source),
//! * [`stumps`] — a STUMPS-style generator: one LFSR, a fixed XOR phase
//!   shifter, N parallel scan channels filling the device inputs,
//! * [`misr`] — the multiple-input signature register, folding one output
//!   response per clock, and the GF(2) linearity that lets a register fed
//!   only the error stream (good XOR faulty) stand in for the faulty one,
//! * [`signature`] — [`SignatureDictionary`]: per-fault first-failing
//!   *session* records built in one fault-simulation pass, sharded across a
//!   worker pool ([`lsiq_exec::shard_map`]),
//! * [`aliasing`] — [`AliasingReport`]: exact aliasing versus the `2^−k`
//!   estimate, and the effective coverage that replaces `f` in the paper's
//!   defect-level equations (eq. 7/8) under BIST.
//!
//! # Paper mapping
//!
//! Section 4's model consumes a fault coverage `f`; Sections 5–7 obtain `f`
//! from a fault simulator over the applied pattern set.  Under self-test the
//! observable is not the per-pattern response but the per-session signature,
//! so `f` must be replaced by the *effective* coverage
//! `f_eff = (detected − aliased) / N` — the correction this crate computes.
//! The `bist_sweep` harness binary sweeps test length × signature width and
//! reports the defect level (eq. 8) with and without that correction.
//!
//! # Quick example
//!
//! ```
//! use lsiq_bist::aliasing::AliasingReport;
//! use lsiq_bist::signature::{BistPlan, SignatureDictionary};
//! use lsiq_bist::stumps::{StumpsConfig, StumpsGenerator};
//! use lsiq_exec::ExecutionContext;
//! use lsiq_fault::universe::FaultUniverse;
//! use lsiq_netlist::library;
//!
//! let circuit = library::c17();
//! let universe = FaultUniverse::full(&circuit);
//! let patterns = StumpsGenerator::new(&StumpsConfig::with_width(5, 1981)).generate(64);
//! let context = ExecutionContext::new(2);
//! let dictionary = SignatureDictionary::build_in(
//!     &context,
//!     &circuit,
//!     &universe,
//!     &patterns,
//!     &BistPlan::default(),
//! );
//! let report = AliasingReport::from_dictionary(&dictionary);
//! assert!(report.effective_coverage() <= report.raw_coverage());
//! ```

pub mod aliasing;
pub mod lfsr;
pub mod misr;
pub mod signature;
pub mod stumps;

pub use aliasing::AliasingReport;
pub use lfsr::GaloisLfsr;
pub use misr::Misr;
pub use signature::{BistPlan, SignatureDictionary};
pub use stumps::{StumpsConfig, StumpsGenerator};

//! Production-line Monte-Carlo substrate.
//!
//! The paper's Section 7 experiment tested 277 chips from a real wafer lot on
//! a Fairchild Sentry 600 and recorded, for each chip, the first test pattern
//! at which it failed.  That data source is not available, so this crate
//! simulates the whole line:
//!
//! * [`defect`] — physical defect kinds and clustered (negative-binomial)
//!   defect-count models, reproducing the yield formula of the paper's eq. 3,
//! * [`wafer`] — wafer maps of chip sites with per-site defect counts,
//! * [`defect_map`] — mapping physical defects to one or more logical
//!   stuck-at faults (the paper notes "a physical defect can produce several
//!   logical faults"),
//! * [`chip`], [`lot`] — simulated chips and chip lots, generated either
//!   directly from the paper's statistical model (known ground-truth `n0`)
//!   or from the physical defect pipeline (emergent `n0`),
//! * [`tester`] — a Sentry-like wafer tester that applies an ordered pattern
//!   set and records each chip's first failing pattern,
//! * [`bist_test`] — the BIST alternative: a [`SignatureTester`] comparing
//!   per-session MISR signatures and recording each chip's first failing
//!   *session* (selected by [`TestMode`](lsiq_exec::TestMode) /
//!   `LSIQ_TEST_MODE=bist`),
//! * [`experiment`] — the Table-1 style cumulative-reject experiment,
//! * [`field`] — field-reject measurement over the shipped (passing) chips,
//!   and
//! * [`pipeline`] — the multi-threaded production line:
//!   [`ParallelLotRunner`] shards one lot's chips across pooled worker
//!   threads with byte-identical results, and [`LotSweep`] fans whole
//!   `(y, n0)` experiment grids across lots.  Both run on the persistent
//!   [`ExecutionContext`](lsiq_exec::ExecutionContext) their caller binds
//!   (a session's, typically), or on the calling thread without one, and
//! * [`streaming`] — the memory-bounded counterpart:
//!   [`StreamingLotExecutor`] folds fixed-size blocks of chips into running
//!   integer statistics, so billion-chip lots run in
//!   `O(workers × (patterns + faults / 64))` memory with byte-identical
//!   results to the in-memory path.
//!
//! The chips of a lot are testable against any pattern suite summarised by a
//! [`FaultDictionary`](lsiq_fault::dictionary::FaultDictionary) — typically
//! one built by `lsiq_tpg`'s suite builder from a fault simulation over a
//! [`FaultUniverse`](lsiq_fault::universe::FaultUniverse).
//!
//! # Quick example
//!
//! ```
//! use lsiq_manufacturing::lot::{ChipLot, ModelLotConfig};
//!
//! let lot = ChipLot::from_model(&ModelLotConfig {
//!     chips: 100,
//!     yield_fraction: 0.3,
//!     n0: 5.0,
//!     fault_universe_size: 500,
//!     seed: 7,
//! });
//! assert_eq!(lot.len(), 100);
//! assert!(lot.observed_yield() > 0.1 && lot.observed_yield() < 0.5);
//! ```

pub mod bist_test;
pub mod chip;
pub mod defect;
pub mod defect_map;
pub mod experiment;
pub mod field;
pub mod lot;
pub mod pipeline;
pub mod streaming;
pub mod tester;
pub mod wafer;

pub use bist_test::{SessionRecord, SignatureTester};
pub use chip::Chip;
pub use lot::{ChipLot, ModelLotConfig, PhysicalLotConfig};
pub use pipeline::{LotOutcome, LotSweep, ParallelLotRunner, SweepPoint, SweepResult};
pub use streaming::{StreamedLot, StreamingLotExecutor};
pub use tester::{TestRecord, WaferTester};

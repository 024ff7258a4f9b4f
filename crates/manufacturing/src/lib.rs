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
//! * [`tester`] — the Sentry-like wafer tester's record of each chip's first
//!   failing pattern,
//! * [`experiment`] — the Table-1 style cumulative-reject experiment,
//! * [`field`] — field-reject measurement over the shipped (passing) chips,
//!   and
//! * [`pipeline`] — the multi-threaded production line:
//!   [`ParallelLotRunner`] generates a lot, wafer-tests it and tabulates its
//!   reject table, sharding each stage's chips across worker threads
//!   with byte-identical results, and [`LotSweep`] fans whole `(y, n0)`
//!   experiment grids across lots.  Both run on the
//!   [`ExecutionContext`](lsiq_exec::ExecutionContext) their caller binds
//!   (a session's, typically), or on the calling thread without one, and
//! * [`streaming`] — the memory-bounded counterpart:
//!   [`StreamingLotExecutor`] draws, tests and folds each model chip into
//!   running integer statistics without building a chip record, so
//!   billion-chip lots run in `O(workers × (patterns + faults / 64))`
//!   memory with byte-identical results to a generated, tested and
//!   tabulated lot.  A session's production line and every sweep point
//!   evaluate their lots this way.
//!
//! The chips of a lot are testable against any pattern suite summarised by a
//! [`FaultDictionary`](lsiq_fault::dictionary::FaultDictionary) — typically
//! one built by `lsiq_tpg`'s suite builder from a fault simulation over a
//! [`FaultUniverse`](lsiq_fault::universe::FaultUniverse).  A BIST
//! self-test reaches the same tester through its signature dictionary's
//! readout dictionary (`lsiq_bist`), which records each fault at the
//! pattern where its first failing signature is read out (selected by
//! [`TestMode`](lsiq_exec::TestMode) / `LSIQ_TEST_MODE=bist`).
//!
//! # Quick example
//!
//! ```
//! use lsiq_manufacturing::lot::ModelLotConfig;
//! use lsiq_manufacturing::pipeline::ParallelLotRunner;
//!
//! let lot = ParallelLotRunner::default().generate_model_lot(&ModelLotConfig {
//!     chips: 100,
//!     yield_fraction: 0.3,
//!     n0: 5.0,
//!     fault_universe_size: 500,
//!     seed: 7,
//! });
//! assert_eq!(lot.len(), 100);
//! assert!(lot.observed_yield() > 0.1 && lot.observed_yield() < 0.5);
//! ```

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

pub use chip::Chip;
pub use lot::{ChipLot, ModelLotConfig, PhysicalLotConfig};
pub use pipeline::{LotSweep, ParallelLotRunner, SweepPoint, SweepResult};
pub use streaming::{StreamedLot, StreamingLotExecutor};
pub use tester::TestRecord;

//! Typed execution configuration and the one fork-join of the workspace.
//!
//! The paper's experiment is one coherent campaign — build a test programme
//! (Section 5), simulate a production line (Section 7), fit the reject model
//! (Section 6) — and every stage shares the same three run-time choices: the
//! fault-simulation engine, the worker-thread count and the base seed.  This
//! crate turns those choices into one typed value instead of three stringly
//! environment variables parsed (and panicking) independently all over the
//! workspace:
//!
//! * [`RunConfig`] — the engine kind, worker count and base seed, built with
//!   a builder or fallibly from the environment in exactly one place
//!   ([`RunConfig::from_env`], the *only* `LSIQ_*` parsing site in the
//!   workspace), returning a [`ConfigError`] instead of a panic;
//! * [`EngineKind`] — the names of the three fault-simulation engines
//!   (instantiating them lives in `lsiq-fault`, which this crate does not
//!   depend on);
//! * [`ExecutionContext`] — the worker count the parallel stages split
//!   their items across.  Every parallel stage of the reproduction —
//!   fault-universe sharding, lot generation, wafer test, reject
//!   tabulation, `(y, n0)` sweeps — forks through [`shard_map`] on the
//!   context its caller passes, or runs on the calling thread when given
//!   none.  Each `shard_map` call runs one shard on the calling thread and
//!   the others on scoped threads it joins before returning.
//!
//! The facade crate bundles a [`RunConfig`] and an [`ExecutionContext`] into
//! `lsi_quality::Session`, the one-call entry point of the reproduction
//! binaries.
//!
//! ```
//! use lsiq_exec::{shard_map, EngineKind, ExecutionContext, RunConfig};
//!
//! let config = RunConfig::default()
//!     .with_engine(EngineKind::Deductive)
//!     .with_workers(2);
//! let context = ExecutionContext::from_config(&config);
//! assert_eq!(context.workers(), 2);
//!
//! // One fork-join: each shard squares its own contiguous range, and the
//! // results come back in range order whichever thread ran them.
//! let squares: Vec<u64> = shard_map(Some(&context), 8, 1, |range| {
//!     range.map(|value| (value * value) as u64).collect::<Vec<_>>()
//! })
//! .concat();
//! assert_eq!(squares, [0, 1, 4, 9, 16, 25, 36, 49]);
//! ```

pub mod config;
pub mod pool;

pub use config::{
    ConfigError, EngineKind, LaneWidth, MetricsMode, RunConfig, ScanPlan, TestMode,
    DEFAULT_BASE_SEED, ENGINE_VAR, LANES_VAR, METRICS_VAR, SCAN_CHAINS_VAR,
};
pub use pool::{shard_count, shard_map, ExecutionContext};

//! Typed execution configuration and the persistent worker pool.
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
//! * [`ExecutionContext`] — a persistent pool of parked worker threads with
//!   a scoped fork-join API ([`ExecutionContext::scope`]).  Every parallel
//!   stage of the reproduction — fault-universe sharding, lot generation,
//!   wafer test, reject tabulation, `(y, n0)` sweeps — splits its items
//!   with [`shard_map`] on the pool its caller passes, or runs on the
//!   calling thread when given none, so worker threads are spawned once per
//!   session and reused across all sweep points instead of respawned per
//!   call.
//!
//! The facade crate bundles a [`RunConfig`] and an [`ExecutionContext`] into
//! `lsi_quality::Session`, the one-call entry point of the reproduction
//! binaries.
//!
//! ```
//! use lsiq_exec::{EngineKind, ExecutionContext, RunConfig};
//!
//! let config = RunConfig::default()
//!     .with_engine(EngineKind::Deductive)
//!     .with_workers(2);
//! let context = ExecutionContext::from_config(&config);
//! assert_eq!(context.workers(), 2);
//!
//! // Fork-join on the persistent pool: disjoint `&mut` slots make the
//! // result independent of which worker runs which job.
//! let mut squares = vec![0u64; 8];
//! context.scope(|scope| {
//!     for (value, slot) in squares.iter_mut().enumerate() {
//!         scope.spawn(move || *slot = (value * value) as u64);
//!     }
//! });
//! assert_eq!(squares, [0, 1, 4, 9, 16, 25, 36, 49]);
//! ```

pub mod config;
pub mod pool;

pub use config::{
    ConfigError, EngineKind, LaneWidth, MetricsMode, RunConfig, ScanPlan, TestMode,
    DEFAULT_BASE_SEED, ENGINE_VAR, LANES_VAR, METRICS_VAR, SCAN_CHAINS_VAR,
};
pub use pool::{shard_count, shard_map, ExecutionContext, Scope};

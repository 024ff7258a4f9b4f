//! Shared engine telemetry counters.
//!
//! The engines record the same totals, placed at worker-count-invariant
//! points — per run, per fault, per good-machine evaluation, per drop, per
//! stem propagation — so the merged registry totals are identical at any
//! worker count, lane width or shard layout (the determinism suite pins
//! this).  Per-engine *timing* lives in the `engine.<name>.good_machine` /
//! `engine.<name>.propagate` spans declared in each engine module.

use lsiq_obs::Counter;

/// Fault-simulation passes: one per `FaultSimulator::run` that had work.
pub(crate) static RUNS: Counter = Counter::new("engine.runs");

/// Faults entering a run: the size of the universe handed to the engine,
/// on every engine.
pub(crate) static FAULTS: Counter = Counter::new("engine.faults");

/// Faults excluded from further simulation after their first detection:
/// the faults a run detects, on every engine.  Zero when fault dropping is
/// disabled.
pub(crate) static DROPS: Counter = Counter::new("engine.drops");

/// Good-machine evaluations an engine prepared: packed chunks for the
/// chunked engines, single patterns for serial.  Cache hits count too —
/// this is demand, not computation (the computation split is
/// `cache.good_machine.hits` / `.misses`).
pub(crate) static GOOD_EVALS: Counter = Counter::new("engine.good_evals");

/// Stem propagations of the incremental engine: one per stem and chunk in
/// which at least one live fault of the stem's region flips the stem.
pub(crate) static STEMS: Counter = Counter::new("engine.stems");

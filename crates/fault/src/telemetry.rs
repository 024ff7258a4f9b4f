//! Shared engine telemetry counters.
//!
//! All three engines record the same four totals, placed at
//! worker-count-invariant points — per run, per representative fault, per
//! good-machine evaluation, per drop — so the merged registry totals are
//! identical at any worker count, lane width or shard layout (the
//! determinism suite pins this).  Per-engine *timing* lives in the
//! `engine.<name>.good_machine` / `engine.<name>.propagate` spans declared
//! in each engine module.

use lsiq_obs::Counter;

/// Fault-simulation passes: one per `FaultSimulator::run` that had work.
pub(crate) static RUNS: Counter = Counter::new("engine.runs");

/// Representative faults entering a run (post-collapse simulation classes
/// for the collapsing engines, raw universe faults for serial).
pub(crate) static FAULTS: Counter = Counter::new("engine.faults");

/// Faults excluded from further simulation after their first detection.
/// Zero when fault dropping is disabled.
pub(crate) static DROPS: Counter = Counter::new("engine.drops");

/// Good-machine evaluations an engine prepared: packed chunks for the
/// chunked engines, single patterns for serial.  Cache hits count too —
/// this is demand, not computation (the computation split is
/// `cache.good_machine.hits` / `.misses`).
pub(crate) static GOOD_EVALS: Counter = Counter::new("engine.good_evals");

//! `lsiq-obs`: the workspace telemetry layer.
//!
//! A zero-dependency metrics registry (named counters, gauges and
//! histograms) plus a hierarchical [`Span`] timer, shared by every crate
//! in the stack.  The design goals, in order:
//!
//! 1. **Disabled mode is free.**  Every recording call is gated on one
//!    relaxed atomic load ([`enabled`]).  With `LSIQ_METRICS=off` (the
//!    default) no clock is read, no cache line is written and no lock is
//!    taken anywhere — the `obs_overhead` bench group pins this.
//! 2. **Recording never changes results.**  Telemetry only *observes*;
//!    every numeric output of the stack is byte-identical with metrics on
//!    or off, at every worker count (enforced by the differential suites).
//! 3. **Totals are worker-count invariant.**  Each counter and span stat
//!    is one atomic that every thread adds to; no site records more often
//!    than once per engine run, shard, sweep, lot, fork-join, cache lookup
//!    or query (the single-threaded oracles once per pattern), so threads
//!    rarely meet on one.  Because addition commutes, the totals are
//!    identical at any worker count for counters placed at semantically
//!    invariant points (per fault, per chunk, per drop).  Pool-shape
//!    counters (`pool.jobs`, `pool.join_wait_ns`, …) legitimately vary
//!    with the ladder and are documented as such.
//!
//! Series are registered lazily on first use from `static` handles:
//!
//! ```
//! use lsiq_obs::{Counter, Span};
//!
//! static CHUNKS: Counter = Counter::new("demo.good_chunks");
//! static PHASE: Span = Span::new("engine.demo.good_machine");
//!
//! lsiq_obs::set_mode(lsiq_obs::MetricsMode::Json);
//! {
//!     let _phase = PHASE.start();
//!     CHUNKS.add(3);
//! }
//! let snapshot = lsiq_obs::snapshot();
//! assert!(snapshot.counter("demo.good_chunks") >= 3);
//! lsiq_obs::set_mode(lsiq_obs::MetricsMode::Off);
//! ```
//!
//! The registry is process-global: [`snapshot`] returns a deterministic
//! (name-sorted) [`Snapshot`], [`Snapshot::delta_since`] supports the
//! per-query records of `lsiq-serve`, and [`report::render_tree`] renders
//! the human-readable self-time tree printed by the bench binaries under
//! `LSIQ_METRICS=tree`.  See `docs/OBSERVABILITY.md` for the metric name
//! catalogue.

pub mod registry;
pub mod report;
pub mod span;

pub use registry::{Counter, Gauge, Histogram, Snapshot, SpanStat};
pub use span::{Span, SpanGuard};

use std::sync::atomic::{AtomicU8, Ordering};

/// How telemetry is recorded and exposed (`LSIQ_METRICS`).
///
/// `Json` and `Tree` both enable recording; they differ only in how the
/// front-ends *expose* the registry (`lsiq-serve` emits `metrics` records
/// and a registry dump under `json`; the bench binaries print the
/// [`report::render_tree`] report to stderr under `tree`).  `Off` (the
/// default) reduces every recording call to a single relaxed load.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[repr(u8)]
pub enum MetricsMode {
    /// No recording; the disabled path is a single relaxed atomic load.
    #[default]
    Off = 0,
    /// Record, and expose machine-readable dumps (serve `metrics` records).
    Json = 1,
    /// Record, and print the human-readable span tree report.
    Tree = 2,
}

impl MetricsMode {
    /// Every mode, in documentation order.
    pub const ALL: [MetricsMode; 3] = [MetricsMode::Off, MetricsMode::Json, MetricsMode::Tree];

    /// The knob spelling of the mode.
    pub fn name(self) -> &'static str {
        match self {
            MetricsMode::Off => "off",
            MetricsMode::Json => "json",
            MetricsMode::Tree => "tree",
        }
    }

    /// Parses a knob spelling (`off` / `json` / `tree`), case-insensitive.
    pub fn from_name(name: &str) -> Option<MetricsMode> {
        MetricsMode::ALL
            .into_iter()
            .find(|mode| mode.name().eq_ignore_ascii_case(name))
    }

    /// Whether this mode records telemetry at all.
    pub fn records(self) -> bool {
        self != MetricsMode::Off
    }
}

impl std::fmt::Display for MetricsMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The process-global mode flag.  `0` is [`MetricsMode::Off`], so the
/// disabled check compiles to one relaxed load and a zero test.
static MODE: AtomicU8 = AtomicU8::new(0);

/// Sets the process-global metrics mode.  Called by `Session::new` from
/// the session's `RunConfig` (which parses `LSIQ_METRICS`) and by tests;
/// safe to call at any time from any thread.
pub fn set_mode(mode: MetricsMode) {
    MODE.store(mode as u8, Ordering::Relaxed);
}

/// The current process-global metrics mode.
pub fn mode() -> MetricsMode {
    match MODE.load(Ordering::Relaxed) {
        1 => MetricsMode::Json,
        2 => MetricsMode::Tree,
        _ => MetricsMode::Off,
    }
}

/// Whether telemetry recording is enabled.  This is the entire cost of
/// every `Counter::add` / `Span::start` call in the default `off` mode.
#[inline(always)]
pub fn enabled() -> bool {
    MODE.load(Ordering::Relaxed) != 0
}

/// Takes a deterministic, name-sorted snapshot of every registered series.
pub fn snapshot() -> Snapshot {
    registry::snapshot()
}

/// Zeroes every registered series (totals, buckets and span stats).  The
/// registry itself (names, registration order) is preserved.  Intended
/// for tests that compare totals across configurations in one process.
pub fn reset() {
    registry::reset()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_names_round_trip() {
        for mode in MetricsMode::ALL {
            assert_eq!(MetricsMode::from_name(mode.name()), Some(mode));
            assert_eq!(
                MetricsMode::from_name(&mode.name().to_uppercase()),
                Some(mode)
            );
        }
        assert_eq!(MetricsMode::from_name("verbose"), None);
        assert_eq!(MetricsMode::default(), MetricsMode::Off);
        assert!(!MetricsMode::Off.records());
        assert!(MetricsMode::Json.records());
        assert!(MetricsMode::Tree.records());
    }

    #[test]
    fn mode_flag_round_trips_through_the_global() {
        // Runs in the same process as every other test, so serialize on
        // the shared mode lock and restore Off before releasing it.
        let _guard = crate::registry::tests::MODE_LOCK
            .lock()
            .unwrap_or_else(|poison| poison.into_inner());
        set_mode(MetricsMode::Tree);
        assert_eq!(mode(), MetricsMode::Tree);
        assert!(enabled());
        set_mode(MetricsMode::Off);
        assert_eq!(mode(), MetricsMode::Off);
        assert!(!enabled());
    }
}

//! Shared helpers for the reproduction harness.
//!
//! Each binary in `src/bin/` regenerates one table or figure of the paper —
//! `table1` (the Section 7 chip-test experiment), `fig1`–`fig6`, the
//! Section 7 worked example, the baseline comparison of Section 3, the
//! ablations (`ablation_lot_size`, `ablation_clustering`,
//! `ablation_threads`) and the BIST quality sweep (`bist_sweep`, defect
//! level vs self-test length × signature width, with and without the
//! aliasing correction).  They all route their configuration through the
//! typed [`Session`] of the facade crate — one [`RunConfig`] (engine,
//! workers, base seed) plus one execution context per process:
//!
//! * [`session_from_env`] — builds the [`Session`] from the `LSIQ_*`
//!   environment knobs, exiting gracefully with the
//!   [`ConfigError`](lsiq_exec::ConfigError) message on a bad value,
//! * [`run_line_experiment`] — the full Section 7 production-line pass
//!   ([`Session::run_production_line`]) with an explicit lot seed.

use lsiq_exec::{MetricsMode, RunConfig};
use std::io::{self, Write};

pub use lsi_quality::session::{LineExperiment, LineSpec, Session};

/// Prints a named `(x, y)` series in a gnuplot-friendly two-column layout.
pub fn print_series(title: &str, x_label: &str, y_label: &str, points: &[(f64, f64)]) {
    println!("# {title}");
    println!("# {x_label:>12}  {y_label:>12}");
    for (x, y) in points {
        println!("{x:>14.6}  {y:>12.6}");
    }
    println!();
}

/// Reads the `LSIQ_*` knobs into a [`RunConfig`], exiting the process with
/// the [`ConfigError`](lsiq_exec::ConfigError) message (status 2, no panic
/// backtrace) on an invalid value — the graceful path the CI smoke job
/// asserts.
pub fn run_config_from_env() -> RunConfig {
    unwrap_or_exit(RunConfig::from_env())
}

/// Unwraps a fallible configuration step, exiting the process with the
/// [`ConfigError`](lsiq_exec::ConfigError) message (status 2, no panic
/// backtrace) on failure — the graceful path the CI smoke job asserts.
/// Used both for the `LSIQ_*` parse and for session runs that validate
/// their spec (scan plans, sweep grids) at run time.
pub fn unwrap_or_exit<T>(result: Result<T, lsiq_exec::ConfigError>) -> T {
    match result {
        Ok(value) => value,
        Err(error) => {
            // A closed stderr must not turn the exit status 2 into a panic.
            let _ = writeln!(io::stderr(), "lsiq: {error}");
            std::process::exit(2);
        }
    }
}

/// Opens a [`Session`] from the environment via [`run_config_from_env`],
/// with the same graceful exit on a bad knob.
pub fn session_from_env() -> Session {
    Session::new(run_config_from_env())
}

/// Prints the session's metrics report ([`Session::metrics_report`]) to
/// **stderr** when the session was opened under `LSIQ_METRICS=tree` — and
/// does nothing otherwise, so every binary's *stdout* stays byte-identical
/// in every metrics mode (the CI differential jobs diff it).  Call this at
/// the end of `main`, after the reproduction work.
pub fn print_metrics_report(session: &Session) {
    if session.config().metrics() == MetricsMode::Tree {
        // The report is a diagnostic: a closed stderr loses it, not the run.
        let _ = writeln!(io::stderr(), "{}", session.metrics_report());
    }
}

/// Runs the standard Section 7 style line experiment with an explicit lot
/// seed: a [`Session`] is opened from the environment (engine and worker
/// knobs apply; the seed argument overrides `LSIQ_SEED` because each caller
/// pins its own reference run) and [`Session::run_production_line`] does the
/// rest across the session's workers.
pub fn run_line_experiment(
    chips: usize,
    yield_fraction: f64,
    n0: f64,
    seed: u64,
    full_size: bool,
) -> LineExperiment {
    let session = Session::new(run_config_from_env().with_base_seed(seed));
    unwrap_or_exit(session.run_production_line(&LineSpec {
        chips,
        yield_fraction,
        n0,
        full_size,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reproduction_circuit_is_lsi_scale() {
        let circuit = Session::reproduction_circuit(false);
        assert!(circuit.transistor_estimate() >= 9_000);
        assert!(!circuit.primary_outputs().is_empty());
    }

    #[test]
    fn line_experiment_produces_consistent_tables() {
        let line = run_line_experiment(150, 0.3, 4.0, 7, false);
        assert_eq!(line.experiment.total_chips(), 150);
        assert!(line.suite.coverage() > 0.5);
        assert!(line.universe_size > 1_000);
        assert!((line.observed_yield - 0.3).abs() < 0.15);
        assert!(line.observed_n0 >= 1.0);
        let rows = line.experiment.rows();
        assert_eq!(rows.len(), line.coverage.pattern_count());
    }
}

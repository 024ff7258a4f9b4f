//! `lsi-quality` — a reproduction of Agrawal, Seth & Agrawal,
//! *LSI Product Quality and Fault Coverage* (18th Design Automation
//! Conference, 1981).
//!
//! The paper relates the single stuck-at **fault coverage** of a test set to
//! the **field reject rate** of the tested product through a shifted-Poisson
//! model of the number of faults on a defective chip.  This workspace
//! implements that model together with every substrate the paper's
//! experiment relied on — a gate-level netlist library, logic and fault
//! simulators, test-pattern generation, and a production-line Monte-Carlo
//! standing in for the original wafer-test data.
//!
//! This facade crate re-exports the workspace members under one roof and
//! adds the typed entry point of the whole reproduction: [`Session`], which
//! bundles a [`RunConfig`](exec::RunConfig) (engine, workers, base seed)
//! with an [`ExecutionContext`](exec::ExecutionContext) worker count and
//! drives the Section 7 experiment in one call
//! ([`Session::run_production_line`] / [`Session::reproduce_table1`]).
//!
//! * [`obs`] — the zero-dependency telemetry layer: the process-global
//!   metrics registry and span timers behind the `LSIQ_METRICS` knob
//!   (see `docs/OBSERVABILITY.md`),
//! * [`exec`] — typed run configuration and the scoped fork-join
//!   ([`shard_map`](exec::shard_map)) every parallel stage runs on,
//! * [`stats`] — PRNGs, distributions, fitting, root finding,
//! * [`netlist`] — circuits (combinational and sequential), `.bench` / BLIF
//!   parsing, generators, full-scan insertion,
//! * [`sim`] — logic simulation,
//! * [`fault`] — stuck-at faults and fault simulation,
//! * [`bist`] — built-in self-test: STUMPS pattern generation, MISR
//!   signature compaction, per-fault signature dictionaries and aliasing
//!   analysis (driven by [`Session::run_bist_sweep`] and the
//!   `LSIQ_TEST_MODE=bist` wafer-test mode),
//! * [`tpg`] — random pattern generation, PODEM and the test-suite builder,
//! * [`manufacturing`] — defects, wafers, chip lots, the Sentry-like tester
//!   and the multi-threaded production-line pipeline
//!   ([`ParallelLotRunner`](manufacturing::pipeline::ParallelLotRunner) /
//!   [`StreamingLotExecutor`](manufacturing::streaming::StreamingLotExecutor) /
//!   [`LotSweep`](manufacturing::pipeline::LotSweep)),
//! * [`quality`] — the paper's model itself (fault distribution, reject
//!   rate, `n0` estimation, required coverage, baselines).
//!
//! # Quickstart
//!
//! ```
//! use lsi_quality::quality::chip_test::ChipTestTable;
//! use lsi_quality::quality::coverage_requirement::required_fault_coverage;
//! use lsi_quality::quality::estimate::N0Estimator;
//! use lsi_quality::quality::params::{ModelParams, RejectRate, Yield};
//!
//! # fn main() -> Result<(), lsi_quality::quality::QualityError> {
//! // Estimate n0 from the paper's Table 1 and ask what coverage a
//! // 1-percent field reject rate needs.
//! let table = ChipTestTable::paper_table_1();
//! let estimate = N0Estimator::default().estimate(&table, Yield::new(0.07)?)?;
//! let params = ModelParams::new(Yield::new(0.07)?, estimate.curve_fit_n0)?;
//! let coverage = required_fault_coverage(&params, RejectRate::new(0.01)?)?;
//! assert!(coverage.value() < 0.9); // far below the 99 percent of older models
//! # Ok(())
//! # }
//! ```

#[cfg(test)]
mod bist_test;
pub mod session;

pub use lsiq_bist as bist;
pub use lsiq_core as quality;
pub use lsiq_exec as exec;
pub use lsiq_fault as fault;
pub use lsiq_manufacturing as manufacturing;
pub use lsiq_netlist as netlist;
pub use lsiq_obs as obs;
pub use lsiq_sim as sim;
pub use lsiq_stats as stats;
pub use lsiq_tpg as tpg;

pub use session::{
    BistSweep, BistSweepRow, BistSweepSpec, LineExperiment, LineSpec, Session, PROGRAMME_SEED,
};

#[cfg(test)]
mod tests {
    #[test]
    fn facade_re_exports_are_wired() {
        let circuit = crate::netlist::library::c17();
        let universe = crate::fault::universe::FaultUniverse::full(&circuit);
        assert_eq!(universe.len(), 46);
        let table = crate::quality::chip_test::ChipTestTable::paper_table_1();
        assert_eq!(table.total_chips(), 277);
    }
}

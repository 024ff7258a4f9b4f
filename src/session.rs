//! The one-call entry point of the reproduction: a typed [`Session`]
//! bundling a [`RunConfig`] with a persistent [`ExecutionContext`].
//!
//! The paper's experiment is one coherent campaign: build an ordered test
//! programme (Section 5), wafer-test a lot of chips recording each chip's
//! first failing pattern (Section 7), and tabulate the cumulative-reject
//! table the model is fitted to (Table 1).  A `Session` owns everything
//! those stages share — the engine choice, the worker pool, the base seed —
//! so the bench binaries, the `production_line` example and the ablation
//! tools all configure a run in exactly one place and reuse the same parked
//! worker threads end to end:
//!
//! ```
//! use lsi_quality::exec::{EngineKind, RunConfig};
//! use lsi_quality::Session;
//!
//! let session = Session::new(
//!     RunConfig::default()
//!         .with_engine(EngineKind::Deductive)
//!         .with_workers(2),
//! );
//! assert_eq!(session.config().engine(), EngineKind::Deductive);
//!
//! // The session's pool serves any fork-join workload…
//! let mut cubes = vec![0u64; 4];
//! session.context().scope(|scope| {
//!     for (value, slot) in cubes.iter_mut().enumerate() {
//!         scope.spawn(move || *slot = (value * value * value) as u64);
//!     }
//! });
//! assert_eq!(cubes, [0, 1, 8, 27]);
//! // …and its lot runner shards production lots on the same workers.
//! assert!(session.lot_runner().threads_for(100_000) >= 1);
//! ```
//!
//! [`Session::from_env`] is the environment-compatibility layer: it builds
//! the config from the `LSIQ_*` variables through the single parsing site
//! ([`RunConfig::from_env`]) and surfaces a [`ConfigError`] instead of a
//! panic, so binaries can exit gracefully on a bad knob.

use lsiq_bist::aliasing::AliasingReport;
use lsiq_bist::misr::Misr;
use lsiq_bist::signature::{BistPlan, SignatureDictionary};
use lsiq_bist::stumps::{StumpsConfig, StumpsGenerator};
use lsiq_core::params::{FaultCoverage, ModelParams, Yield};
use lsiq_core::reject::field_reject_rate;
use lsiq_exec::{
    ConfigError, ExecutionContext, MetricsMode, RunConfig, ScanPlan, TestMode, SCAN_CHAINS_VAR,
};
use lsiq_fault::coverage::CoverageCurve;
use lsiq_fault::dictionary::FaultDictionary;
use lsiq_fault::universe::FaultUniverse;
use lsiq_manufacturing::experiment::RejectExperiment;
use lsiq_manufacturing::lot::ModelLotConfig;
use lsiq_manufacturing::pipeline::ParallelLotRunner;
use lsiq_manufacturing::tester::TestRecord;
use lsiq_netlist::circuit::Circuit;
use lsiq_netlist::library::{lsi_class, sequential_lsi_class, LsiClassConfig};
use lsiq_netlist::scan::{insert_scan, ScanCircuit};
use lsiq_sim::cache::GoodMachineCache;
use lsiq_tpg::suite::{TestSuite, TestSuiteBuilder};

/// The seed of the reference test programme (and, by default, of the
/// Table 1 lot): the paper's publication year, as in every earlier
/// reproduction binary.
pub const PROGRAMME_SEED: u64 = 1981;

/// The self-test geometry of a BIST-mode production line: 64-pattern
/// sessions (one packed simulation block per readout) into a 16-bit MISR —
/// the [`BistPlan`] default.
const LINE_BIST_PLAN: BistPlan = BistPlan {
    session_len: 64,
    signature_width: 16,
};

/// The ground truth of one production-line pass: lot size, dialled-in
/// yield and `n0`, and whether to build the full-size (25 000-transistor)
/// device or the fast reduced one.
///
/// [`LineSpec::table1`] is the paper's Section 7 experiment: 277 chips at
/// roughly 7 percent yield with `n0 = 8`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LineSpec {
    /// Chips in the lot.
    pub chips: usize,
    /// Probability that a chip is fault-free (the paper's `y`).
    pub yield_fraction: f64,
    /// Mean fault count of a defective chip (the paper's `n0`).
    pub n0: f64,
    /// Build the full 25 000-transistor device instead of the reduced one.
    pub full_size: bool,
}

impl LineSpec {
    /// The paper's Section 7 ground truth: 277 chips, `y ≈ 0.07`, `n0 = 8`.
    pub fn table1() -> LineSpec {
        LineSpec {
            chips: 277,
            yield_fraction: 0.07,
            n0: 8.0,
            full_size: false,
        }
    }
}

/// A production-line experiment bundle: the device, its fault universe, the
/// ordered pattern suite, and the tested lot's reject table.
pub struct LineExperiment {
    /// The device under test.
    pub circuit: Circuit,
    /// Size of the uncollapsed fault universe.
    pub universe_size: usize,
    /// The ordered pattern suite applied by the tester.
    pub suite: TestSuite,
    /// Cumulative-coverage curve of the suite.
    pub coverage: CoverageCurve,
    /// The tested lot's cumulative-reject experiment.
    pub experiment: RejectExperiment,
    /// The lot's observed yield.
    pub observed_yield: f64,
    /// The lot's observed mean fault count over defective chips.
    pub observed_n0: f64,
    /// How the lot was observed: per-pattern stored responses, or
    /// per-session BIST signatures (coarser reject table, aliasing
    /// possible).
    pub test_mode: TestMode,
}

/// A configured run: the typed [`RunConfig`] plus the persistent
/// [`ExecutionContext`] worker pool every parallel stage executes on, and
/// the session-wide [`GoodMachineCache`] those stages share — a suite
/// build, a signature sweep and a compaction pass over the same patterns
/// pay for the fault-free simulation once.
pub struct Session {
    config: RunConfig,
    context: ExecutionContext,
    cache: GoodMachineCache,
}

impl Session {
    /// Opens a session: spawns the worker pool sized by `config` and parks
    /// it for the lifetime of the session.
    ///
    /// When the configuration asks for telemetry (`LSIQ_METRICS=json|tree`),
    /// the process-global [`lsiq_obs`] recording mode is raised to match.
    /// The wiring is *raise-only*: a default `Off` session never lowers a
    /// mode another session enabled, so concurrently constructed sessions
    /// (as in the test suites) cannot clobber an enabled recorder.  Emission
    /// remains per-consumer — recording alone never changes any output
    /// stream.
    pub fn new(config: RunConfig) -> Session {
        if config.metrics() != MetricsMode::Off {
            lsiq_obs::set_mode(config.metrics());
        }
        let context = ExecutionContext::from_config(&config);
        Session {
            config,
            context,
            cache: GoodMachineCache::new(),
        }
    }

    /// Opens a session from the `LSIQ_*` environment variables (through the
    /// single parsing site, [`RunConfig::from_env`]), surfacing a
    /// [`ConfigError`] — never a panic — when a knob is set to an invalid
    /// value.
    pub fn from_env() -> Result<Session, ConfigError> {
        Ok(Session::new(RunConfig::from_env()?))
    }

    /// The session's run configuration.
    pub fn config(&self) -> &RunConfig {
        &self.config
    }

    /// The session's persistent worker pool.
    pub fn context(&self) -> &ExecutionContext {
        &self.context
    }

    /// The session's shared good-machine cache.  Every chunked
    /// fault-simulation stage the session runs — suite builds, signature
    /// sweeps — deposits and reuses fault-free chunk images here; hand it
    /// to [`TestSuiteBuilder::build_cached`] or
    /// [`reverse_order_compaction_configured`](lsiq_tpg::compaction::reverse_order_compaction_configured)
    /// to join an external stage to the same pool.
    pub fn good_machine_cache(&self) -> &GoodMachineCache {
        &self.cache
    }

    /// A human-readable report of everything the metrics registry has
    /// recorded so far: counters, gauges, histograms, and the hierarchical
    /// span tree with per-node self time.  Empty (headers only) unless a
    /// recording mode was enabled (`LSIQ_METRICS=json|tree`, or
    /// [`lsiq_obs::set_mode`]).  The bench binaries print this to stderr
    /// under `LSIQ_METRICS=tree`; `docs/OBSERVABILITY.md` documents the
    /// metric catalogue and the span-tree semantics.
    pub fn metrics_report(&self) -> String {
        lsiq_obs::report::render_tree(&lsiq_obs::snapshot())
    }

    /// A lot runner bound to the session's pool.
    pub fn lot_runner(&self) -> ParallelLotRunner<'_> {
        ParallelLotRunner::with_context(&self.context)
    }

    /// A suite builder carrying the session's engine choice; pair it with
    /// [`TestSuiteBuilder::build_in`] and [`Session::context`] to fault
    /// simulate on the session's pool.
    pub fn suite_builder(&self) -> TestSuiteBuilder {
        TestSuiteBuilder::default().with_run_config(&self.config)
    }

    /// The exact suite builder of the production-line flow
    /// ([`run_production_line`](Self::run_production_line)): the reference
    /// programme seed, 64-pattern chunks, up to 192 random patterns, no
    /// PODEM top-up — with the session's engine choice resolved for
    /// `circuit` ([`RunConfig::engine_for_size`]).
    ///
    /// Exposed so out-of-process services (the `lsiq-serve` artifact store)
    /// can rebuild byte-identical line suites.
    pub fn line_suite_builder(&self, circuit: &Circuit) -> TestSuiteBuilder {
        let mut builder = TestSuiteBuilder {
            seed: PROGRAMME_SEED,
            chunk: 64,
            max_random_patterns: 192,
            target_coverage: 0.95,
            podem_top_up: false,
            ..TestSuiteBuilder::default()
        }
        .with_run_config(&self.config);
        builder.engine = self.config.engine_for_size(circuit.gate_count());
        builder
    }

    /// The circuit every production-line reproduction uses: an LSI-class
    /// composite.  The transistor target is reduced from the paper's 25 000
    /// to keep the harness runtime in seconds; pass `full = true` for the
    /// full-size device.
    pub fn reproduction_circuit(full: bool) -> Circuit {
        let target = if full { 25_000 } else { 10_000 };
        lsi_class(LsiClassConfig {
            target_transistors: target,
            seed: PROGRAMME_SEED,
        })
    }

    /// The sequential reproduction device — the same LSI-class composite
    /// with every pad registered behind a D flip-flop — stitched into
    /// `plan`'s scan chains.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] (named after the `LSIQ_SCAN_CHAINS` knob)
    /// when the plan asks for more chains than the device has flip-flops.
    pub fn scan_reproduction_circuit(
        full: bool,
        plan: ScanPlan,
    ) -> Result<ScanCircuit, ConfigError> {
        let target = if full { 25_000 } else { 10_000 };
        let sequential = sequential_lsi_class(LsiClassConfig {
            target_transistors: target,
            seed: PROGRAMME_SEED,
        });
        insert_scan(&sequential, plan.chains()).map_err(|_| {
            ConfigError::invalid_value(
                SCAN_CHAINS_VAR,
                plan.chains().to_string(),
                "a chain count not exceeding the device's flip-flop count",
            )
        })
    }

    /// The device a session's experiments actually run on: the combinational
    /// reproduction circuit or — when the session configures scan chains —
    /// the capture-mode test view of the scan-inserted sequential device.
    ///
    /// The test view shares the scan circuit's gate-id space, replaces
    /// every scan cell by a pseudo primary input (loaded through the chains)
    /// and exposes each cell's capture value as a pseudo primary output (as
    /// observed by the scan-out shift), so one pattern is one full
    /// scan-in/capture/scan-out cycle and every combinational engine — and
    /// the whole BIST stack — applies unchanged.  Its fault universe covers
    /// the scan path itself: the per-cell shift/capture multiplexers and
    /// the scan-enable fanout.
    fn device_under_test(&self, full: bool) -> Result<Circuit, ConfigError> {
        match self.config.scan() {
            None => Ok(Session::reproduction_circuit(full)),
            Some(plan) => Ok(Session::scan_reproduction_circuit(full, plan)?
                .test_view()
                .clone()),
        }
    }

    /// Runs the standard Section 7 style line experiment: an LSI-class
    /// device, a random pattern suite evaluated on the session's engine and
    /// pool, and a lot drawn from the statistical model with `spec`'s ground
    /// truth, seeded by the session's base seed.  Generation, wafer test and
    /// the streamed reject tabulation all execute on the session's worker
    /// pool; results are byte-identical at any worker count, so the
    /// configuration only changes wall-clock time.
    ///
    /// With scan chains configured ([`RunConfig::with_scan`] or the
    /// `LSIQ_SCAN_CHAINS` knob) the line tests the scan-inserted sequential
    /// device through its capture-mode test view instead — a full-scan flow
    /// whose fault universe includes the scan path itself.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] when the configured scan plan does not fit
    /// the device.
    pub fn run_production_line(&self, spec: &LineSpec) -> Result<LineExperiment, ConfigError> {
        self.run_line(spec, self.config.base_seed())
    }

    /// Reproduces the paper's Table 1 run: the [`LineSpec::table1`] ground
    /// truth with the historical seed (1981) unless the session configures
    /// an explicit one.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] when the configured scan plan does not fit
    /// the device.
    pub fn reproduce_table1(&self) -> Result<LineExperiment, ConfigError> {
        self.run_line(&LineSpec::table1(), self.config.seed_or(PROGRAMME_SEED))
    }

    fn run_line(&self, spec: &LineSpec, lot_seed: u64) -> Result<LineExperiment, ConfigError> {
        let circuit = self.device_under_test(spec.full_size)?;
        let universe = FaultUniverse::full(&circuit);
        let suite = self.line_suite_builder(&circuit).build_cached(
            Some(&self.context),
            Some(&self.cache),
            &circuit,
            &universe,
        );
        let coverage = CoverageCurve::from_fault_list(&suite.fault_list, suite.patterns.len());
        let runner = self.lot_runner();
        let lot = runner.generate_model_lot(&ModelLotConfig {
            chips: spec.chips,
            yield_fraction: spec.yield_fraction,
            n0: spec.n0,
            fault_universe_size: universe.len(),
            seed: lot_seed,
        });
        let test_mode = self.config.test_mode();
        let records: Vec<TestRecord> = match test_mode {
            TestMode::Stored => {
                let dictionary = FaultDictionary::from_fault_list(&suite.fault_list);
                runner.test_lot(&dictionary, &lot)
            }
            TestMode::Bist => {
                // The self-tested lot is observed only at signature
                // readouts: build the per-fault signature dictionary over
                // the same ordered pattern suite, test by signature
                // compare, and coarsen each first failing *session* to the
                // pattern index at which it is read out.  The suite build
                // above already deposited the good machine of these very
                // patterns in the session cache, so this pass replays it.
                let signatures = SignatureDictionary::build_sweep_cached(
                    &self.context,
                    &circuit,
                    &universe,
                    &suite.patterns,
                    LINE_BIST_PLAN.session_len,
                    &[LINE_BIST_PLAN.signature_width],
                    &[suite.patterns.len()],
                    self.config.lanes(),
                    Some(&self.cache),
                )
                .swap_remove(0)
                .swap_remove(0);
                runner
                    .test_lot_bist(&signatures, &lot)
                    .iter()
                    .map(|record| {
                        record.to_test_record(LINE_BIST_PLAN.session_len, suite.patterns.len())
                    })
                    .collect()
            }
        };
        let checkpoints: Vec<usize> = (1..=coverage.pattern_count()).collect();
        let experiment = runner.experiment(&records, &coverage, &checkpoints);
        Ok(LineExperiment {
            universe_size: universe.len(),
            suite,
            coverage,
            experiment,
            observed_yield: lot.observed_yield(),
            observed_n0: lot.observed_n0(),
            circuit,
            test_mode,
        })
    }

    /// Sweeps self-test length × signature width on the reproduction device
    /// and tabulates the paper's defect level (eq. 8) with and without the
    /// aliasing correction — the quality cost of compacting responses into
    /// a `k`-bit signature instead of storing them.
    ///
    /// Patterns come from a STUMPS-style generator seeded by the session
    /// (the `LSIQ_SEED` knob, defaulting to the historical 1981); per-fault
    /// signatures are computed on the session's worker pool in exactly one
    /// fault-simulation pass at the maximum length, shared across every
    /// test length *and* signature width of the grid
    /// ([`SignatureDictionary::build_sweep_in`]).
    ///
    /// With scan chains configured the sweep runs the full-scan BIST flow
    /// on the sequential reproduction device's capture-mode test view, scan
    /// path included — see [`run_production_line`](Self::run_production_line).
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] when the spec's model parameters or grid
    /// are invalid (empty lengths or widths, unsupported MISR width, zero
    /// session length, a STUMPS geometry the register cannot feed) or the
    /// configured scan plan does not fit the device.
    pub fn run_bist_sweep(&self, spec: &BistSweepSpec) -> Result<BistSweep, ConfigError> {
        let circuit = self.device_under_test(spec.full_size)?;
        self.run_bist_sweep_on(&circuit, spec)
    }

    /// [`run_bist_sweep`](Self::run_bist_sweep) on an explicit device —
    /// used by the tests to sweep small library circuits quickly.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] when the spec's model parameters or grid
    /// are invalid — see [`run_bist_sweep`](Self::run_bist_sweep).
    pub fn run_bist_sweep_on(
        &self,
        circuit: &Circuit,
        spec: &BistSweepSpec,
    ) -> Result<BistSweep, ConfigError> {
        let yield_fraction = Yield::new(spec.yield_fraction).map_err(|_| {
            ConfigError::invalid_value(
                "BistSweepSpec::yield_fraction",
                spec.yield_fraction.to_string(),
                "a yield fraction in [0, 1]",
            )
        })?;
        let params = ModelParams::new(yield_fraction, spec.n0).map_err(|_| {
            ConfigError::invalid_value(
                "BistSweepSpec::n0",
                spec.n0.to_string(),
                "a mean fault count of at least 1",
            )
        })?;
        if spec.session_len == 0 {
            return Err(ConfigError::invalid_value(
                "BistSweepSpec::session_len",
                "0",
                "a session of at least 1 pattern",
            ));
        }
        if spec.signature_widths.is_empty() {
            return Err(ConfigError::invalid_value(
                "BistSweepSpec::signature_widths",
                "(empty)",
                "at least one signature width",
            ));
        }
        for &width in &spec.signature_widths {
            Misr::try_new(width)?;
        }
        let max_length = spec.test_lengths.iter().copied().max().ok_or_else(|| {
            ConfigError::invalid_value(
                "BistSweepSpec::test_lengths",
                "(empty)",
                "at least one test length",
            )
        })?;
        let universe = FaultUniverse::full(circuit);
        let generator = StumpsGenerator::try_new(&StumpsConfig {
            width: circuit.primary_inputs().len(),
            channels: spec.channels,
            degree: 64,
            seed: self.config.seed_or(PROGRAMME_SEED),
        })?;
        let all_patterns = generator.generate(max_length);
        let defect_level = |coverage: f64| {
            field_reject_rate(
                &params,
                FaultCoverage::new(coverage.clamp(0.0, 1.0)).expect("clamped into range"),
            )
            .value()
        };
        // One fault-simulation pass at the maximum length serves the whole
        // grid: shorter lengths are derived from recorded first-failure
        // patterns and partial-session snapshots, byte-identical to a fresh
        // per-length build.  The session's lane width and good-machine
        // cache apply; a repeated sweep over the same patterns replays the
        // fault-free simulation from the cache.
        let grid = SignatureDictionary::build_sweep_cached(
            &self.context,
            circuit,
            &universe,
            &all_patterns,
            spec.session_len,
            &spec.signature_widths,
            &spec.test_lengths,
            self.config.lanes(),
            Some(&self.cache),
        );
        let mut rows = Vec::with_capacity(spec.test_lengths.len() * spec.signature_widths.len());
        for (dictionaries, &test_length) in grid.iter().zip(&spec.test_lengths) {
            for dictionary in dictionaries {
                let report = AliasingReport::from_dictionary(dictionary);
                rows.push(BistSweepRow {
                    test_length,
                    signature_width: dictionary.signature_width(),
                    sessions: dictionary.sessions(),
                    raw_coverage: report.raw_coverage(),
                    effective_coverage: report.effective_coverage(),
                    aliased: report.aliased,
                    aliasing_fraction: report.aliasing_fraction(),
                    estimated_aliasing_fraction: report.estimated_aliasing_fraction(),
                    defect_level_raw: defect_level(report.raw_coverage()),
                    defect_level_effective: defect_level(report.effective_coverage()),
                });
            }
        }
        Ok(BistSweep {
            universe_size: universe.len(),
            session_len: spec.session_len,
            rows,
        })
    }
}

/// The grid and model parameters of a [`Session::run_bist_sweep`].
#[derive(Debug, Clone, PartialEq)]
pub struct BistSweepSpec {
    /// Self-test lengths (applied pattern counts) to sweep.
    pub test_lengths: Vec<usize>,
    /// MISR signature widths `k` to sweep (supported widths only; see
    /// [`SUPPORTED_DEGREES`](lsiq_bist::lfsr::SUPPORTED_DEGREES)).
    pub signature_widths: Vec<u32>,
    /// Patterns per signature readout.
    pub session_len: usize,
    /// STUMPS scan channels feeding the device inputs.
    pub channels: usize,
    /// The paper's `y` for the defect-level model.
    pub yield_fraction: f64,
    /// The paper's `n0` for the defect-level model.
    pub n0: f64,
    /// Sweep the full 25 000-transistor device instead of the reduced one.
    pub full_size: bool,
}

impl BistSweepSpec {
    /// The reference sweep of the `bist_sweep` harness binary: test lengths
    /// 64–256, signature widths 4/8/16, 64-pattern sessions, the paper's
    /// Section 7 ground truth (`y ≈ 0.07`, `n0 = 8`) on the reduced device.
    pub fn reference() -> BistSweepSpec {
        BistSweepSpec {
            test_lengths: vec![64, 128, 192, 256],
            signature_widths: vec![4, 8, 16],
            session_len: 64,
            channels: 8,
            yield_fraction: 0.07,
            n0: 8.0,
            full_size: false,
        }
    }
}

/// One cell of a BIST sweep: a `(test length, signature width)` pair with
/// its coverages and defect levels.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BistSweepRow {
    /// Applied pattern count.
    pub test_length: usize,
    /// MISR width `k`.
    pub signature_width: u32,
    /// Signature readouts performed.
    pub sessions: usize,
    /// Fault coverage before compaction (`detected / N`).
    pub raw_coverage: f64,
    /// Aliasing-corrected coverage (`(detected − aliased) / N`); never above
    /// [`raw_coverage`](Self::raw_coverage).
    pub effective_coverage: f64,
    /// Detected-but-masked fault count.
    pub aliased: usize,
    /// Observed per-detected-fault aliasing probability.
    pub aliasing_fraction: f64,
    /// The classical `2^−k` estimate of that probability.
    pub estimated_aliasing_fraction: f64,
    /// Defect level (eq. 8) at the raw coverage — what a stored-pattern
    /// tester of the same length would ship.
    pub defect_level_raw: f64,
    /// Defect level at the effective coverage — what the self-test actually
    /// ships.  At least [`defect_level_raw`](Self::defect_level_raw).
    pub defect_level_effective: f64,
}

/// The result of a [`Session::run_bist_sweep`].
#[derive(Debug, Clone, PartialEq)]
pub struct BistSweep {
    /// Size of the swept (uncollapsed) fault universe.
    pub universe_size: usize,
    /// Patterns per signature readout.
    pub session_len: usize,
    /// One row per `(test length, signature width)` grid cell, lengths
    /// outermost, widths in spec order within a length.
    pub rows: Vec<BistSweepRow>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsiq_exec::EngineKind;
    use lsiq_netlist::library;

    #[test]
    fn session_bundles_config_and_pool() {
        let session = Session::new(
            RunConfig::default()
                .with_engine(EngineKind::Deductive)
                .with_workers(2)
                .with_base_seed(7),
        );
        assert_eq!(session.config().engine(), EngineKind::Deductive);
        assert_eq!(session.context().workers(), 2);
        assert_eq!(session.suite_builder().engine, EngineKind::Deductive);
        assert_eq!(session.lot_runner().threads_for(100_000), 2);
    }

    #[test]
    fn session_cache_warms_across_stages_and_lanes_reach_the_builder() {
        use lsiq_exec::LaneWidth;

        let session = Session::new(
            RunConfig::default()
                .with_workers(2)
                .with_lanes(LaneWidth::X4),
        );
        assert_eq!(session.suite_builder().lanes, LaneWidth::X4);

        let circuit = library::alu4();
        let spec = BistSweepSpec {
            test_lengths: vec![64, 128],
            signature_widths: vec![8, 16],
            session_len: 32,
            channels: 4,
            ..BistSweepSpec::reference()
        };
        let first = session
            .run_bist_sweep_on(&circuit, &spec)
            .expect("valid spec");
        let misses = session.good_machine_cache().misses();
        let hits = session.good_machine_cache().hits();
        assert!(misses > 0, "first sweep populates the cache");
        // The second sweep runs the same patterns: the fault-free
        // simulation replays from the session cache, the rows are
        // byte-identical.
        let second = session
            .run_bist_sweep_on(&circuit, &spec)
            .expect("valid spec");
        assert_eq!(first, second);
        assert!(session.good_machine_cache().hits() > hits);
        assert_eq!(session.good_machine_cache().misses(), misses);
    }

    #[test]
    fn from_env_without_knobs_is_the_default_config() {
        // The test environment sets no LSIQ_* variables.
        let session = Session::from_env().expect("clean environment");
        assert_eq!(session.config().engine(), EngineKind::Incremental);
        assert_eq!(session.config().base_seed(), lsiq_exec::DEFAULT_BASE_SEED);
    }

    #[test]
    fn bist_sweep_corrects_coverage_downward_and_converges_with_width() {
        let session = Session::new(RunConfig::default().with_workers(2));
        let circuit = lsiq_netlist::library::alu4();
        // One session per test (session_len >= length): each detected fault
        // aliases with probability ~2^-k, so the k = 4 column carries a
        // visible penalty and the k = 16 column essentially none.
        let spec = BistSweepSpec {
            test_lengths: vec![32, 64],
            signature_widths: vec![4, 8, 16],
            session_len: 64,
            channels: 4,
            ..BistSweepSpec::reference()
        };
        let sweep = session
            .run_bist_sweep_on(&circuit, &spec)
            .expect("valid sweep spec");
        assert_eq!(sweep.rows.len(), 6);
        assert_eq!(sweep.session_len, 64);
        for row in &sweep.rows {
            assert!(
                row.effective_coverage <= row.raw_coverage + 1e-15,
                "effective must not exceed raw: {row:?}"
            );
            assert!(
                row.defect_level_effective >= row.defect_level_raw - 1e-15,
                "aliasing can only worsen the defect level: {row:?}"
            );
            assert_eq!(
                row.aliased,
                ((row.raw_coverage - row.effective_coverage) * sweep.universe_size as f64).round()
                    as usize
            );
        }
        // Convergence with signature width: per length, the narrow register
        // pays a real aliasing penalty and the wide one (weakly) less.
        for cells in sweep.rows.chunks(3) {
            let penalty = |row: &BistSweepRow| row.raw_coverage - row.effective_coverage;
            assert!(
                cells[0].aliased > 0,
                "k = 4 single-session sweep should alias something: {:?}",
                cells[0]
            );
            assert!(penalty(&cells[2]) <= penalty(&cells[0]) + 1e-15);
            assert!(
                cells[2].defect_level_effective <= cells[0].defect_level_effective + 1e-15,
                "widening the signature must not worsen shipped quality"
            );
        }
    }

    #[test]
    fn bist_mode_line_experiment_is_session_quantised() {
        let stored = Session::new(RunConfig::default().with_workers(2));
        let bist = Session::new(
            RunConfig::default()
                .with_workers(2)
                .with_test_mode(TestMode::Bist),
        );
        let spec = LineSpec {
            chips: 150,
            yield_fraction: 0.2,
            n0: 4.0,
            full_size: false,
        };
        let stored_line = stored
            .run_production_line(&spec)
            .expect("no scan configured");
        let bist_line = bist.run_production_line(&spec).expect("no scan configured");
        assert_eq!(stored_line.test_mode, TestMode::Stored);
        assert_eq!(bist_line.test_mode, TestMode::Bist);
        // Same device, same patterns, same lot — only the observable
        // changes.
        assert_eq!(stored_line.universe_size, bist_line.universe_size);
        assert_eq!(
            stored_line.suite.patterns.as_slice(),
            bist_line.suite.patterns.as_slice()
        );
        assert_eq!(stored_line.observed_yield, bist_line.observed_yield);
        // A BIST tester can only reject at session boundaries, so by any
        // checkpoint it has rejected at most as many chips as the
        // stored-pattern tester.
        for (stored_row, bist_row) in stored_line
            .experiment
            .rows()
            .iter()
            .zip(bist_line.experiment.rows())
        {
            assert!(bist_row.chips_failed <= stored_row.chips_failed);
        }
        // By the end of the test both testers agree up to aliasing, which
        // the 16-bit line signature makes negligible but not impossible.
        let last = |line: &LineExperiment| line.experiment.rows().last().unwrap().chips_failed;
        assert!(last(&bist_line) <= last(&stored_line));
        assert!(last(&bist_line) + 3 >= last(&stored_line));
    }

    #[test]
    fn bist_sweep_rejects_invalid_specs_without_panicking() {
        let session = Session::new(RunConfig::default().with_workers(1));
        let circuit = library::c17();
        let reference = BistSweepSpec::reference();

        let bad_width = BistSweepSpec {
            signature_widths: vec![10],
            ..reference.clone()
        };
        let error = session
            .run_bist_sweep_on(&circuit, &bad_width)
            .expect_err("unsupported MISR width");
        assert_eq!(error.value(), "10");

        let no_lengths = BistSweepSpec {
            test_lengths: vec![],
            ..reference.clone()
        };
        let error = session
            .run_bist_sweep_on(&circuit, &no_lengths)
            .expect_err("empty length grid");
        assert_eq!(error.variable(), "BistSweepSpec::test_lengths");

        let zero_session = BistSweepSpec {
            session_len: 0,
            ..reference.clone()
        };
        let error = session
            .run_bist_sweep_on(&circuit, &zero_session)
            .expect_err("zero-length session");
        assert_eq!(error.variable(), "BistSweepSpec::session_len");

        let bad_yield = BistSweepSpec {
            yield_fraction: 1.5,
            ..reference
        };
        let error = session
            .run_bist_sweep_on(&circuit, &bad_yield)
            .expect_err("impossible yield");
        assert_eq!(error.variable(), "BistSweepSpec::yield_fraction");
    }

    #[test]
    fn scan_session_runs_full_scan_bist_on_the_sequential_device() {
        let plan = ScanPlan::new(4).expect("valid plan");
        // The sequential reproduction device carries the acceptance
        // floor of 32 flip-flops.
        let scan = Session::scan_reproduction_circuit(false, plan).expect("plan fits");
        assert!(scan.cell_count() >= 32, "{} cells", scan.cell_count());
        assert_eq!(scan.chain_count(), 4);

        let session = Session::new(RunConfig::default().with_workers(2).with_scan(Some(plan)));
        let spec = BistSweepSpec {
            test_lengths: vec![32],
            signature_widths: vec![16],
            session_len: 32,
            ..BistSweepSpec::reference()
        };
        let sweep = session.run_bist_sweep(&spec).expect("scan plan fits");
        assert_eq!(sweep.rows.len(), 1);
        let row = &sweep.rows[0];
        assert!(row.raw_coverage > 0.0 && row.raw_coverage <= 1.0);
        assert!(row.effective_coverage <= row.raw_coverage + 1e-15);
        assert!(row.defect_level_effective >= row.defect_level_raw - 1e-15);
        // The swept universe is the test view's: scan-path gates included,
        // so it is strictly larger than the combinational device's.
        let combinational = FaultUniverse::full(&Session::reproduction_circuit(false));
        assert!(sweep.universe_size > combinational.len());

        // A plan with more chains than flip-flops surfaces as a typed
        // error named after the knob it arrives through — never a panic.
        let oversized = Session::new(
            RunConfig::default().with_scan(Some(ScanPlan::new(4096).expect("in bounds"))),
        );
        let error = oversized
            .run_bist_sweep(&spec)
            .expect_err("more chains than cells");
        assert_eq!(error.variable(), SCAN_CHAINS_VAR);
        assert_eq!(error.value(), "4096");
    }

    #[test]
    fn table1_spec_matches_the_paper() {
        let spec = LineSpec::table1();
        assert_eq!(spec.chips, 277);
        assert!((spec.yield_fraction - 0.07).abs() < 1e-12);
        assert!((spec.n0 - 8.0).abs() < 1e-12);
        assert!(!spec.full_size);
    }
}

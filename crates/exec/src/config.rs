//! The typed run configuration: engine kind, worker count, base seed, test
//! mode.
//!
//! [`RunConfig::from_env`] is the single place in the workspace that parses
//! the `LSIQ_ENGINE`, `LSIQ_LOT_THREADS`, `LSIQ_SEED`, `LSIQ_TEST_MODE`,
//! `LSIQ_SCAN_CHAINS`, `LSIQ_LANES` and `LSIQ_METRICS` environment
//! variables, and only the process entry points call it (`Session::from_env`,
//! `QueryService::from_env`, `lsiq_bench::run_config_from_env`).  Library
//! stages never read the environment: they take their configuration and
//! execution context as arguments, so an invalid value always surfaces as
//! the same actionable [`ConfigError`] at start-up, never as a panic
//! mid-run.

use std::env;
use std::error::Error;
use std::fmt;

use crate::pool::ExecutionContext;

pub use lsiq_obs::MetricsMode;

/// Environment variable selecting the fault-simulation engine.
pub const ENGINE_VAR: &str = "LSIQ_ENGINE";
/// Environment variable overriding the worker-thread count.
pub const WORKERS_VAR: &str = "LSIQ_LOT_THREADS";
/// Environment variable overriding the base seed.
pub const SEED_VAR: &str = "LSIQ_SEED";
/// Environment variable selecting the wafer-test mode (`stored` or `bist`).
pub const TEST_MODE_VAR: &str = "LSIQ_TEST_MODE";
/// Environment variable enabling full-scan testing with the given number of
/// scan chains.
pub const SCAN_CHAINS_VAR: &str = "LSIQ_SCAN_CHAINS";
/// Environment variable selecting the packed-simulation lane width
/// (`auto`, `1`, `4` or `8` — the number of 64-pattern words per chunk).
pub const LANES_VAR: &str = "LSIQ_LANES";
/// Environment variable selecting the telemetry mode (`off`, `json` or
/// `tree` — see [`MetricsMode`] and `docs/OBSERVABILITY.md`).
pub const METRICS_VAR: &str = "LSIQ_METRICS";

/// The base seed a [`RunConfig`] falls back to when none is given — the
/// historical default of the `production_line` example.
pub const DEFAULT_BASE_SEED: u64 = 42;

/// Upper bound accepted for `LSIQ_LOT_THREADS`: far above any real machine,
/// low enough that a typo (`"40000"` for `"4"`) is caught before a
/// fork-join tries to spawn that many operating-system threads.
pub const MAX_WORKERS: usize = 1024;

/// Upper bound accepted for `LSIQ_SCAN_CHAINS`: a chip has at most as many
/// chains as scan cells, and the experiments' devices stay well under this.
pub const MAX_SCAN_CHAINS: usize = 4096;

/// Names one of the three fault-simulation engines, for configuration
/// surfaces that select an engine at run time (test-suite builders, bench
/// binaries, differential harnesses).
///
/// This is pure configuration data — names, parsing, ordering.  Turning a
/// kind into a running engine is the `BuildEngine` extension trait of
/// `lsiq_fault::simulator`, which re-exports this type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum EngineKind {
    /// One `(pattern, fault)` pair at a time — the reference oracle.
    Serial,
    /// All faults of one pattern at a time via arena-backed fault lists —
    /// the independent oracle.
    Deductive,
    /// Event-driven fanout-cone propagation over packed pattern chunks —
    /// the production engine.
    #[default]
    Incremental,
}

impl EngineKind {
    /// Every engine, in cross-check order (reference first).
    pub const ALL: [EngineKind; 3] = [
        EngineKind::Serial,
        EngineKind::Deductive,
        EngineKind::Incremental,
    ];

    /// The engine's short name (matches `FaultSimulator::name`).
    pub fn name(self) -> &'static str {
        match self {
            EngineKind::Serial => "serial",
            EngineKind::Deductive => "deductive",
            EngineKind::Incremental => "incremental",
        }
    }

    /// Parses an engine name (case-insensitive).
    pub fn from_name(name: &str) -> Option<EngineKind> {
        EngineKind::ALL
            .into_iter()
            .find(|kind| kind.name().eq_ignore_ascii_case(name.trim()))
    }
}

impl fmt::Display for EngineKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// How the wafer tester observes a chip: per-pattern stored responses, or
/// per-session BIST signatures.
///
/// Like [`EngineKind`] this is pure configuration data.  Both modes test a
/// lot with the same tester in `lsiq-manufacturing`; they differ in the
/// first-failing-pattern dictionary it consults: the fault simulation's
/// for `Stored`, the signature dictionary's readout dictionary
/// (`lsiq-bist`) for `Bist`.  This crate depends on neither.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum TestMode {
    /// The Sentry-like stored-pattern tester: every applied pattern's
    /// response is compared against the stored good response, so the
    /// recorded observable is the chip's first failing *pattern*.
    #[default]
    Stored,
    /// Built-in self-test: responses are compacted into a MISR signature
    /// read out once per test session, so the recorded observable is the
    /// chip's first failing *session* — and aliasing can mask detections.
    Bist,
}

impl TestMode {
    /// Both test modes, stored-pattern first.
    pub const ALL: [TestMode; 2] = [TestMode::Stored, TestMode::Bist];

    /// The mode's short name (the `LSIQ_TEST_MODE` grammar).
    pub fn name(self) -> &'static str {
        match self {
            TestMode::Stored => "stored",
            TestMode::Bist => "bist",
        }
    }

    /// Parses a mode name (case-insensitive).
    pub fn from_name(name: &str) -> Option<TestMode> {
        TestMode::ALL
            .into_iter()
            .find(|mode| mode.name().eq_ignore_ascii_case(name.trim()))
    }
}

impl fmt::Display for TestMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The lane width of packed fault simulation: how many 64-pattern machine
/// words one simulation chunk carries (so one evaluation step processes up
/// to `64 × lanes` patterns).
///
/// Like [`EngineKind`] this is pure configuration data; the lane-generic
/// chunk type itself (`PackedBlock<L>`) lives in `lsiq-sim`, and the engines
/// of `lsiq-fault` monomorphize over the resolved width.  Results are
/// **byte-identical at every width** — lanes only change throughput — which
/// the lane-differential suites enforce.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum LaneWidth {
    /// Pick the width per run from the pattern count (the default): wide
    /// chunks amortize per-gate dispatch over more patterns, but a chunk is
    /// all-or-nothing, so short pattern sets would mostly simulate padding.
    #[default]
    Auto,
    /// One 64-bit word per chunk — the classic single-word block.
    X1,
    /// Four words (256 patterns) per chunk.
    X4,
    /// Eight words (512 patterns) per chunk — the widest supported.
    X8,
}

impl LaneWidth {
    /// Every width, auto first.
    pub const ALL: [LaneWidth; 4] = [LaneWidth::Auto, LaneWidth::X1, LaneWidth::X4, LaneWidth::X8];

    /// The explicit (non-auto) widths, narrowest first.
    pub const EXPLICIT: [LaneWidth; 3] = [LaneWidth::X1, LaneWidth::X4, LaneWidth::X8];

    /// The width's short name (the `LSIQ_LANES` grammar).
    pub fn name(self) -> &'static str {
        match self {
            LaneWidth::Auto => "auto",
            LaneWidth::X1 => "1",
            LaneWidth::X4 => "4",
            LaneWidth::X8 => "8",
        }
    }

    /// Parses a width name (case-insensitive: `auto`, `1`, `4` or `8`).
    pub fn from_name(name: &str) -> Option<LaneWidth> {
        LaneWidth::ALL
            .into_iter()
            .find(|width| width.name().eq_ignore_ascii_case(name.trim()))
    }

    /// The number of 64-pattern words per chunk for an explicit width, or
    /// `None` for [`LaneWidth::Auto`].
    pub fn lanes(self) -> Option<usize> {
        match self {
            LaneWidth::Auto => None,
            LaneWidth::X1 => Some(1),
            LaneWidth::X4 => Some(4),
            LaneWidth::X8 => Some(8),
        }
    }

    /// Resolves the width to a concrete lane count (1, 4 or 8) for a run
    /// over `pattern_count` patterns.
    ///
    /// `Auto` minimizes estimated work: each candidate width pays for the
    /// patterns it must simulate *including chunk padding*, discounted by
    /// the per-word speedup wider chunks buy (amortized dispatch +
    /// vectorization, measured at roughly 1.6× for 4 lanes and 2× for 8).
    /// Short sets therefore stay narrow (64 patterns → 1 lane) and long
    /// sets go wide (512+ → 8 lanes).  The choice never affects results,
    /// only speed.
    pub fn resolve(self, pattern_count: usize) -> usize {
        if let Some(lanes) = self.lanes() {
            return lanes;
        }
        // (lanes, relative per-word cost numerator/denominator): cost of
        // simulating one padded pattern, scaled by 10 to stay in integers.
        const CANDIDATES: [(usize, usize); 3] = [(1, 10), (4, 6), (8, 5)];
        let patterns = pattern_count.max(1);
        CANDIDATES
            .into_iter()
            .min_by_key(|&(lanes, cost)| patterns.div_ceil(64 * lanes) * 64 * lanes * cost)
            .map(|(lanes, _)| lanes)
            .expect("candidate list is non-empty")
    }
}

impl fmt::Display for LaneWidth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A malformed run-configuration value: which variable, what it held, and
/// what it should have held.
///
/// Every configuration failure in the workspace renders through this one
/// type, so the message shape is always the same and always actionable:
///
/// ```
/// use lsiq_exec::RunConfig;
///
/// // (illustrative — from_env only errors when a variable is actually set
/// // to an invalid value)
/// if let Err(error) = RunConfig::from_env() {
///     eprintln!("{error}");
///     // e.g. `LSIQ_ENGINE: expected one of auto, serial, deductive or
///     // incremental, got "warp"; unset the variable to use the default`
/// }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError {
    variable: &'static str,
    value: String,
    expected: &'static str,
}

impl ConfigError {
    /// Builds a configuration error for `variable` holding `value` where
    /// `expected` describes the accepted grammar.
    ///
    /// The `LSIQ_*` parser builds its errors with it, and so do validation
    /// sites outside this crate (BIST geometry, scan plans, sweep
    /// specifications), so every failure renders in the same actionable
    /// shape.
    pub fn invalid_value(
        variable: &'static str,
        value: impl Into<String>,
        expected: &'static str,
    ) -> Self {
        ConfigError {
            variable,
            value: value.into(),
            expected,
        }
    }

    /// The environment variable (or configuration field) at fault.
    pub fn variable(&self) -> &str {
        self.variable
    }

    /// The offending value, lossily decoded if it was not valid Unicode.
    pub fn value(&self) -> &str {
        &self.value
    }
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: expected {}, got {:?}; unset the variable to use the default",
            self.variable, self.expected, self.value
        )
    }
}

impl Error for ConfigError {}

/// How a sequential device is tested: the number of scan chains its
/// flip-flops are stitched into before fault simulation.
///
/// A plan on a [`RunConfig`] tells the session layer to use a sequential
/// device, insert full scan (`lsiq_netlist::scan::insert_scan`) and run
/// every experiment on the expanded combinational test view.  Like the rest
/// of the run configuration this is pure data — the netlist transformation
/// lives in `lsiq-netlist`, which this crate does not depend on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ScanPlan {
    chains: usize,
}

impl ScanPlan {
    /// A plan with `chains` scan chains.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] (named after [`SCAN_CHAINS_VAR`], the knob
    /// this value usually arrives through) if `chains` is zero or exceeds
    /// [`MAX_SCAN_CHAINS`].
    pub fn new(chains: usize) -> Result<ScanPlan, ConfigError> {
        if chains == 0 || chains > MAX_SCAN_CHAINS {
            return Err(ConfigError::invalid_value(
                SCAN_CHAINS_VAR,
                chains.to_string(),
                "a scan-chain count between 1 and 4096",
            ));
        }
        Ok(ScanPlan { chains })
    }

    /// The number of scan chains.
    pub fn chains(self) -> usize {
        self.chains
    }
}

impl fmt::Display for ScanPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} chain(s)", self.chains)
    }
}

/// The typed configuration of one run: which fault-simulation engine to use,
/// how many worker threads to run, and the base seed every stochastic stage
/// derives its streams from.
///
/// Build one with the builder methods, or from the `LSIQ_*` environment
/// variables with [`RunConfig::from_env`]:
///
/// ```
/// use lsiq_exec::{EngineKind, RunConfig};
///
/// let config = RunConfig::default()
///     .with_engine(EngineKind::Deductive)
///     .with_workers(4)
///     .with_base_seed(7);
/// assert_eq!(config.engine(), EngineKind::Deductive);
/// assert_eq!(config.workers(), Some(4));
/// assert_eq!(config.base_seed(), 7);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RunConfig {
    engine: EngineKind,
    workers: Option<usize>,
    base_seed: Option<u64>,
    test_mode: TestMode,
    scan: Option<ScanPlan>,
    lanes: LaneWidth,
    metrics: MetricsMode,
}

impl RunConfig {
    /// Reads the configuration from the environment — the **only**
    /// `LSIQ_*`-parsing site in the workspace.
    ///
    /// Unset variables keep their defaults; a set-but-invalid variable (bad
    /// engine name, non-positive worker count, unparsable seed, non-Unicode
    /// bytes) returns a [`ConfigError`] naming the variable, the offending
    /// value and the accepted grammar.
    pub fn from_env() -> Result<RunConfig, ConfigError> {
        let mut config = RunConfig::default();
        if let Some(value) = read_var(ENGINE_VAR)? {
            // `auto` is another spelling of the default engine.
            config.engine = if value.trim().eq_ignore_ascii_case("auto") {
                EngineKind::default()
            } else {
                EngineKind::from_name(&value).ok_or_else(|| {
                    ConfigError::invalid_value(
                        ENGINE_VAR,
                        value.clone(),
                        "one of auto, serial, deductive or incremental",
                    )
                })?
            };
        }
        if let Some(value) = read_var(WORKERS_VAR)? {
            let workers = value
                .trim()
                .parse::<usize>()
                .ok()
                .filter(|&workers| workers > 0 && workers <= MAX_WORKERS)
                .ok_or_else(|| {
                    ConfigError::invalid_value(
                        WORKERS_VAR,
                        value.clone(),
                        "a worker count between 1 and 1024",
                    )
                })?;
            config.workers = Some(workers);
        }
        if let Some(value) = read_var(SEED_VAR)? {
            let seed = value.trim().parse::<u64>().map_err(|_| {
                ConfigError::invalid_value(
                    SEED_VAR,
                    value.clone(),
                    "an unsigned 64-bit integer seed",
                )
            })?;
            config.base_seed = Some(seed);
        }
        if let Some(value) = read_var(TEST_MODE_VAR)? {
            config.test_mode = TestMode::from_name(&value).ok_or_else(|| {
                ConfigError::invalid_value(TEST_MODE_VAR, value.clone(), "one of stored or bist")
            })?;
        }
        if let Some(value) = read_var(SCAN_CHAINS_VAR)? {
            let chains = value.trim().parse::<usize>().map_err(|_| {
                ConfigError::invalid_value(
                    SCAN_CHAINS_VAR,
                    value.clone(),
                    "a scan-chain count between 1 and 4096",
                )
            })?;
            config.scan = Some(ScanPlan::new(chains).map_err(|_| {
                ConfigError::invalid_value(
                    SCAN_CHAINS_VAR,
                    value.clone(),
                    "a scan-chain count between 1 and 4096",
                )
            })?);
        }
        if let Some(value) = read_var(LANES_VAR)? {
            config.lanes = LaneWidth::from_name(&value).ok_or_else(|| {
                ConfigError::invalid_value(LANES_VAR, value.clone(), "one of auto, 1, 4 or 8")
            })?;
        }
        if let Some(value) = read_var(METRICS_VAR)? {
            config.metrics = MetricsMode::from_name(value.trim()).ok_or_else(|| {
                ConfigError::invalid_value(METRICS_VAR, value.clone(), "one of off, json or tree")
            })?;
        }
        Ok(config)
    }

    /// Selects the fault-simulation engine.
    pub fn with_engine(mut self, engine: EngineKind) -> RunConfig {
        self.engine = engine;
        self
    }

    /// Selects the default engine, [`EngineKind::Incremental`] (the
    /// `LSIQ_ENGINE=auto` spelling).
    pub fn with_engine_auto(self) -> RunConfig {
        self.with_engine(EngineKind::default())
    }

    /// Sets an explicit worker-thread count (`workers >= 1`).
    pub fn with_workers(mut self, workers: usize) -> RunConfig {
        self.workers = if workers == 0 { None } else { Some(workers) };
        self
    }

    /// Sets the base seed.
    pub fn with_base_seed(mut self, base_seed: u64) -> RunConfig {
        self.base_seed = Some(base_seed);
        self
    }

    /// Selects the wafer-test mode (stored-pattern or BIST signature
    /// compare).
    pub fn with_test_mode(mut self, test_mode: TestMode) -> RunConfig {
        self.test_mode = test_mode;
        self
    }

    /// Enables full-scan testing of a sequential device with the given
    /// plan; `None` (the default) tests the combinational device directly.
    pub fn with_scan(mut self, scan: Option<ScanPlan>) -> RunConfig {
        self.scan = scan;
        self
    }

    /// Selects the packed-simulation lane width ([`LaneWidth::Auto`] by
    /// default — picked per run from the pattern count).
    pub fn with_lanes(mut self, lanes: LaneWidth) -> RunConfig {
        self.lanes = lanes;
        self
    }

    /// Selects the telemetry mode ([`MetricsMode::Off`] by default).
    /// `Session::new` installs this on the process-global `lsiq-obs` flag,
    /// so recording costs a single relaxed load when it stays off.
    pub fn with_metrics(mut self, metrics: MetricsMode) -> RunConfig {
        self.metrics = metrics;
        self
    }

    /// The configured fault-simulation engine.
    pub fn engine(self) -> EngineKind {
        self.engine
    }

    /// The engine a run over a circuit of `gate_count` gates uses: the
    /// configured engine, whatever the size.
    pub fn engine_for_size(self, _gate_count: usize) -> EngineKind {
        self.engine
    }

    /// The configured wafer-test mode.
    pub fn test_mode(self) -> TestMode {
        self.test_mode
    }

    /// The full-scan plan, if the run targets a sequential device.
    pub fn scan(self) -> Option<ScanPlan> {
        self.scan
    }

    /// The configured packed-simulation lane width.
    pub fn lanes(self) -> LaneWidth {
        self.lanes
    }

    /// The configured telemetry mode.
    pub fn metrics(self) -> MetricsMode {
        self.metrics
    }

    /// The explicit worker-count override, if any (`None` means "use the
    /// available hardware parallelism").
    pub fn workers(self) -> Option<usize> {
        self.workers
    }

    /// The run's base seed: the explicit choice, or [`DEFAULT_BASE_SEED`].
    pub fn base_seed(self) -> u64 {
        self.base_seed.unwrap_or(DEFAULT_BASE_SEED)
    }

    /// The explicit base seed if one was given, otherwise a caller-supplied
    /// default — for drivers whose historical reference runs pin a specific
    /// seed (e.g. the Table 1 reproduction's 1981) while still letting
    /// `LSIQ_SEED` override it.
    pub fn seed_or(self, default: u64) -> u64 {
        self.base_seed.unwrap_or(default)
    }
}

impl fmt::Display for RunConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "engine = {}, workers = ", self.engine)?;
        match self.workers {
            Some(workers) => write!(f, "{workers}")?,
            None => write!(f, "auto({})", ExecutionContext::new(0).workers())?,
        }
        write!(
            f,
            ", base seed = {}, test mode = {}",
            self.base_seed(),
            self.test_mode
        )?;
        if let Some(scan) = self.scan {
            write!(f, ", scan = {scan}")?;
        }
        // The telemetry mode is deliberately not rendered: config lines
        // appear in transcripts that must stay byte-identical with metrics
        // on or off.
        write!(f, ", lanes = {}", self.lanes)?;
        Ok(())
    }
}

fn read_var(name: &'static str) -> Result<Option<String>, ConfigError> {
    match env::var(name) {
        Ok(value) => Ok(Some(value)),
        Err(env::VarError::NotPresent) => Ok(None),
        Err(env::VarError::NotUnicode(raw)) => Err(ConfigError::invalid_value(
            name,
            raw.to_string_lossy().into_owned(),
            "a valid Unicode value",
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engine_kind_parses_names_round_trip() {
        for kind in EngineKind::ALL {
            assert_eq!(EngineKind::from_name(kind.name()), Some(kind));
            assert_eq!(
                EngineKind::from_name(&kind.name().to_uppercase()),
                Some(kind)
            );
            assert_eq!(kind.to_string(), kind.name());
        }
        assert_eq!(
            EngineKind::from_name("  Deductive "),
            Some(EngineKind::Deductive)
        );
        assert!(EngineKind::from_name("concurrent").is_none());
        assert_eq!(EngineKind::default(), EngineKind::Incremental);
        // The retired engines are no longer accepted names.
        for retired in ["ppsfp", "parallel"] {
            assert!(EngineKind::from_name(retired).is_none(), "{retired}");
        }
    }

    #[test]
    fn auto_engine_resolves_to_incremental_at_every_size() {
        // `auto` is the production default for every circuit; explicit
        // choices win.
        let auto = RunConfig::default()
            .with_engine(EngineKind::Serial)
            .with_engine_auto();
        assert_eq!(auto, RunConfig::default());
        for gates in [0, 100, 1_839, 10_000, 50_000] {
            assert_eq!(auto.engine_for_size(gates), EngineKind::Incremental);
        }
        assert!(auto.to_string().contains("engine = incremental"), "{auto}");
        let explicit = auto.with_engine(EngineKind::Serial);
        assert_eq!(explicit.engine_for_size(50_000), EngineKind::Serial);
        assert_eq!(
            RunConfig::default().engine_for_size(50_000),
            EngineKind::Incremental
        );
    }

    #[test]
    fn test_mode_parses_names_round_trip() {
        for mode in TestMode::ALL {
            assert_eq!(TestMode::from_name(mode.name()), Some(mode));
            assert_eq!(TestMode::from_name(&mode.name().to_uppercase()), Some(mode));
            assert_eq!(mode.to_string(), mode.name());
        }
        assert_eq!(TestMode::from_name("  Bist "), Some(TestMode::Bist));
        assert!(TestMode::from_name("scan").is_none());
        assert_eq!(TestMode::default(), TestMode::Stored);
    }

    #[test]
    fn lane_width_parses_names_round_trip() {
        for width in LaneWidth::ALL {
            assert_eq!(LaneWidth::from_name(width.name()), Some(width));
            assert_eq!(
                LaneWidth::from_name(&width.name().to_uppercase()),
                Some(width)
            );
            assert_eq!(width.to_string(), width.name());
        }
        assert_eq!(LaneWidth::from_name("  Auto "), Some(LaneWidth::Auto));
        assert!(LaneWidth::from_name("2").is_none());
        assert!(LaneWidth::from_name("16").is_none());
        assert_eq!(LaneWidth::default(), LaneWidth::Auto);
        assert_eq!(LaneWidth::Auto.lanes(), None);
        assert_eq!(LaneWidth::X1.lanes(), Some(1));
        assert_eq!(LaneWidth::X4.lanes(), Some(4));
        assert_eq!(LaneWidth::X8.lanes(), Some(8));
    }

    #[test]
    fn lane_width_resolution_scales_with_pattern_count() {
        // Explicit widths resolve to themselves regardless of pattern count.
        for width in LaneWidth::EXPLICIT {
            let lanes = width.lanes().expect("explicit");
            assert_eq!(width.resolve(0), lanes);
            assert_eq!(width.resolve(64), lanes);
            assert_eq!(width.resolve(100_000), lanes);
        }
        // Auto: short sets stay narrow (padding dominates), long sets go
        // wide (amortization dominates).
        assert_eq!(LaneWidth::Auto.resolve(0), 1);
        assert_eq!(LaneWidth::Auto.resolve(1), 1);
        assert_eq!(LaneWidth::Auto.resolve(64), 1);
        assert_eq!(LaneWidth::Auto.resolve(192), 4);
        assert_eq!(LaneWidth::Auto.resolve(256), 4);
        assert_eq!(LaneWidth::Auto.resolve(512), 8);
        assert_eq!(LaneWidth::Auto.resolve(100_000), 8);
        // Whatever Auto picks is always a supported explicit width.
        for patterns in (0..2048).step_by(37) {
            let lanes = LaneWidth::Auto.resolve(patterns);
            assert!([1, 4, 8].contains(&lanes), "patterns {patterns} -> {lanes}");
        }
    }

    #[test]
    fn builder_and_accessors_round_trip() {
        let config = RunConfig::default()
            .with_engine(EngineKind::Serial)
            .with_workers(3)
            .with_base_seed(1981)
            .with_test_mode(TestMode::Bist)
            .with_lanes(LaneWidth::X4)
            .with_metrics(MetricsMode::Tree);
        assert_eq!(config.engine(), EngineKind::Serial);
        assert_eq!(config.test_mode(), TestMode::Bist);
        assert_eq!(config.lanes(), LaneWidth::X4);
        assert_eq!(config.metrics(), MetricsMode::Tree);
        assert_eq!(config.workers(), Some(3));
        assert_eq!(config.base_seed(), 1981);
        assert_eq!(config.seed_or(7), 1981);

        let default = RunConfig::default();
        assert_eq!(default.engine(), EngineKind::Incremental);
        assert_eq!(default.test_mode(), TestMode::Stored);
        assert_eq!(default.workers(), None);
        assert_eq!(default.base_seed(), DEFAULT_BASE_SEED);
        assert_eq!(default.seed_or(7), 7);
        assert_eq!(default.lanes(), LaneWidth::Auto);
        assert_eq!(default.metrics(), MetricsMode::Off);
        // `with_workers(0)` means "back to automatic".
        assert_eq!(default.with_workers(0).workers(), None);
    }

    #[test]
    fn display_names_every_field() {
        let config = RunConfig::default().with_workers(2);
        let rendered = config.to_string();
        assert!(rendered.contains("engine = incremental"), "{rendered}");
        assert!(rendered.contains("workers = 2"), "{rendered}");
        assert!(rendered.contains("base seed = 42"), "{rendered}");
        assert!(rendered.contains("test mode = stored"), "{rendered}");
        assert!(rendered.contains("lanes = auto"), "{rendered}");
        assert!(RunConfig::default().to_string().contains("auto("));
        assert!(RunConfig::default()
            .with_lanes(LaneWidth::X8)
            .to_string()
            .contains("lanes = 8"));
        assert!(RunConfig::default()
            .with_test_mode(TestMode::Bist)
            .to_string()
            .contains("test mode = bist"));
    }

    /// Environment-variable parsing, exercised in one sequential test (env
    /// mutation is process-global, so splitting these into separate `#[test]`
    /// functions would race under the parallel test runner).
    #[test]
    fn from_env_round_trip_and_errors() {
        let clear = || {
            env::remove_var(ENGINE_VAR);
            env::remove_var(WORKERS_VAR);
            env::remove_var(SEED_VAR);
            env::remove_var(TEST_MODE_VAR);
            env::remove_var(SCAN_CHAINS_VAR);
            env::remove_var(LANES_VAR);
            env::remove_var(METRICS_VAR);
        };
        clear();
        assert_eq!(RunConfig::from_env(), Ok(RunConfig::default()));

        env::set_var(ENGINE_VAR, "Deductive");
        env::set_var(WORKERS_VAR, " 4 ");
        env::set_var(SEED_VAR, "1981");
        env::set_var(TEST_MODE_VAR, "BIST");
        env::set_var(SCAN_CHAINS_VAR, "8");
        env::set_var(LANES_VAR, " 4 ");
        let config = RunConfig::from_env().expect("valid environment");
        assert_eq!(config.engine(), EngineKind::Deductive);
        assert_eq!(config.workers(), Some(4));
        assert_eq!(config.base_seed(), 1981);
        assert_eq!(config.test_mode(), TestMode::Bist);
        assert_eq!(config.scan().map(ScanPlan::chains), Some(8));
        assert_eq!(config.lanes(), LaneWidth::X4);
        env::remove_var(SCAN_CHAINS_VAR);
        env::set_var(LANES_VAR, "AUTO");
        assert_eq!(
            RunConfig::from_env().expect("auto lanes").lanes(),
            LaneWidth::Auto
        );
        env::remove_var(LANES_VAR);

        // `auto` is another spelling of the default engine.
        clear();
        env::set_var(ENGINE_VAR, " AUTO ");
        assert_eq!(
            RunConfig::from_env(),
            Ok(RunConfig::default().with_engine(EngineKind::Incremental))
        );

        env::set_var(ENGINE_VAR, "warp");
        let error = RunConfig::from_env().expect_err("invalid engine");
        assert_eq!(error.variable(), ENGINE_VAR);
        assert_eq!(error.value(), "warp");
        let message = error.to_string();
        assert!(message.contains("LSIQ_ENGINE"), "{message}");
        assert!(
            message.contains("auto, serial, deductive or incremental"),
            "{message}"
        );
        assert!(message.contains("unset the variable"), "{message}");

        // The retired engine names fail the same way.
        for retired in ["parallel", "ppsfp"] {
            env::set_var(ENGINE_VAR, retired);
            let error = RunConfig::from_env().expect_err("retired engine");
            assert_eq!(error.value(), retired);
            assert!(
                error
                    .to_string()
                    .contains("serial, deductive or incremental"),
                "{error}"
            );
        }

        env::set_var(ENGINE_VAR, "incremental");
        env::set_var(WORKERS_VAR, "0");
        let error = RunConfig::from_env().expect_err("zero workers");
        assert_eq!(error.variable(), WORKERS_VAR);
        assert!(error.to_string().contains("between 1 and 1024"), "{error}");

        env::set_var(WORKERS_VAR, "8");
        env::set_var(SEED_VAR, "not-a-seed");
        let error = RunConfig::from_env().expect_err("bad seed");
        assert_eq!(error.variable(), SEED_VAR);
        assert!(error.to_string().contains("64-bit"), "{error}");

        env::set_var(SEED_VAR, "7");
        env::set_var(TEST_MODE_VAR, "scan");
        let error = RunConfig::from_env().expect_err("bad test mode");
        assert_eq!(error.variable(), TEST_MODE_VAR);
        assert_eq!(error.value(), "scan");
        assert!(error.to_string().contains("stored or bist"), "{error}");

        env::set_var(TEST_MODE_VAR, "bist");
        env::set_var(WORKERS_VAR, "40000");
        let error = RunConfig::from_env().expect_err("workers above the bound");
        assert_eq!(error.variable(), WORKERS_VAR);
        assert!(error.to_string().contains("1 and 1024"), "{error}");

        env::set_var(WORKERS_VAR, "8");
        for bad in ["0", "-1", "many", "99999"] {
            env::set_var(SCAN_CHAINS_VAR, bad);
            let error = RunConfig::from_env().expect_err("bad scan-chain count");
            assert_eq!(error.variable(), SCAN_CHAINS_VAR);
            assert_eq!(error.value(), bad);
            assert!(error.to_string().contains("1 and 4096"), "{error}");
        }
        env::remove_var(SCAN_CHAINS_VAR);

        for bad in ["2", "16", "wide", "-4"] {
            env::set_var(LANES_VAR, bad);
            let error = RunConfig::from_env().expect_err("bad lane width");
            assert_eq!(error.variable(), LANES_VAR);
            assert_eq!(error.value(), bad);
            assert!(error.to_string().contains("auto, 1, 4 or 8"), "{error}");
        }
        env::remove_var(LANES_VAR);

        env::set_var(METRICS_VAR, " Tree ");
        assert_eq!(
            RunConfig::from_env().expect("tree metrics").metrics(),
            MetricsMode::Tree
        );
        env::set_var(METRICS_VAR, "JSON");
        assert_eq!(
            RunConfig::from_env().expect("json metrics").metrics(),
            MetricsMode::Json
        );
        for bad in ["verbose", "1", "yes"] {
            env::set_var(METRICS_VAR, bad);
            let error = RunConfig::from_env().expect_err("bad metrics mode");
            assert_eq!(error.variable(), METRICS_VAR);
            assert_eq!(error.value(), bad);
            assert!(error.to_string().contains("off, json or tree"), "{error}");
        }

        clear();
        assert_eq!(RunConfig::from_env(), Ok(RunConfig::default()));
    }

    #[test]
    fn scan_plan_validates_and_displays() {
        let plan = ScanPlan::new(4).expect("valid plan");
        assert_eq!(plan.chains(), 4);
        assert_eq!(plan.to_string(), "4 chain(s)");
        assert!(ScanPlan::new(0).is_err());
        assert!(ScanPlan::new(MAX_SCAN_CHAINS + 1).is_err());
        let error = ScanPlan::new(0).expect_err("zero chains");
        assert_eq!(error.variable(), SCAN_CHAINS_VAR);

        let config = RunConfig::default().with_scan(Some(plan));
        assert_eq!(config.scan(), Some(plan));
        assert!(config.to_string().contains("scan = 4 chain(s)"));
        assert_eq!(config.with_scan(None).scan(), None);
        assert_eq!(RunConfig::default().scan(), None);
    }

    #[test]
    fn invalid_value_constructor_renders_like_the_parser() {
        let error = ConfigError::invalid_value(
            "BistPlan::signature_width",
            "7",
            "one of 4, 8, 12, 16, 24, 32, 48 or 64",
        );
        assert_eq!(error.variable(), "BistPlan::signature_width");
        assert_eq!(error.value(), "7");
        assert!(
            error.to_string().contains("expected one of 4, 8"),
            "{error}"
        );
    }
}

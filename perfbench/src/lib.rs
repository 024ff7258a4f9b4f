//! The planning-loop benchmark: three workloads through the public entry
//! points, timed end to end (`--trace 0`) or traced layer by layer
//! (`--trace 1`).  `README.md` beside this package explains the workloads,
//! the metrics and how to run it.

pub mod digest;
mod trace;
pub mod workloads;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::{Duration, Instant};
use trace::{Sample, Tracer};
use workloads::{Bench, PassOutcome, Workload, SETUPS, WORKERS};

/// Timed passes a run makes however short `--seconds` is.
const MIN_PASSES: usize = 5;

/// The end-to-end metrics (`--trace 0`): name and unit.
pub const END_TO_END: [(&str, &str); 3] =
    [("setup_s", "s"), ("pass_s", "s"), ("peak_rss_mb", "MB")];

/// The per-layer metrics (`--trace 1`): name and unit.
pub const PER_LAYER: [(&str, &str); 40] = [
    ("tpg.suite_build_s", "s"),
    ("tpg.resim_ratio", "ratio"),
    ("fault.universe_s", "s"),
    ("fault.collapse_s", "s"),
    ("fault.sim_s", "s"),
    ("fault.faults", "count"),
    ("fault.drops", "count"),
    ("fault.drop_ratio", "ratio"),
    ("sim.good_machine_s", "s"),
    ("sim.cache_hit_ratio", "ratio"),
    ("netlist.build_s", "s"),
    ("bist.sweep_s", "s"),
    ("bist.stumps_s", "s"),
    ("bist.aliasing_s", "s"),
    ("bist.sweep_faults", "count"),
    ("manufacturing.stream_s", "s"),
    ("manufacturing.chips_per_s", "chips/s"),
    ("manufacturing.generate_s", "s"),
    ("manufacturing.test_s", "s"),
    ("manufacturing.experiment_s", "s"),
    ("core.forward_s", "s"),
    ("core.inverse_s", "s"),
    ("serve.parse_s", "s"),
    ("serve.artifact_load_s", "s"),
    ("serve.decode_s", "s"),
    ("serve.artifact_store_s", "s"),
    ("serve.encode_s", "s"),
    ("serve.op_forward_s", "s"),
    ("serve.op_inverse_s", "s"),
    ("serve.op_line_s", "s"),
    ("serve.op_bist_s", "s"),
    ("serve.op_lot_s", "s"),
    ("serve.artifact_hit_ratio", "ratio"),
    ("serve.fault_sim_passes", "count"),
    ("exec.scaling", "ratio"),
    ("exec.park_s", "s"),
    ("exec.join_wait_s", "s"),
    ("exec.jobs", "count"),
    ("obs.overhead", "ratio"),
    ("obs.span_coverage", "ratio"),
];

/// The command line: `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

impl Args {
    pub fn parse(args: &[String]) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut pairs = args.chunks(2);
        for pair in &mut pairs {
            let [flag, value] = pair else {
                return Err(format!("{} needs a value", pair[0]));
            };
            let number = || {
                value
                    .parse::<u64>()
                    .map_err(|_| format!("{flag}: not a number: {value}"))
            };
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Workload::from_name(value)
                            .ok_or_else(|| format!("unknown workload {value}"))?,
                    )
                }
                "--seed" => seed = Some(number()?),
                "--seconds" => seconds = Some(number()?),
                "--trace" => match value.as_str() {
                    "0" => trace = Some(false),
                    "1" => trace = Some(true),
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                },
                _ => return Err(format!("unknown argument {flag}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
        })
    }
}

/// What a run reports: its operation counts, the metrics (name → value,
/// unit), and a note printed on the line before the result.
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<&'static str, (f64, &'static str)>,
    pub note: String,
}

impl Report {
    /// The result line: one JSON object, the last line of standard output.
    pub fn result_line(&self) -> String {
        let mut metrics = String::new();
        for (index, (name, (value, unit))) in self.metrics.iter().enumerate() {
            let comma = if index == 0 { "" } else { ", " };
            let _ = write!(
                metrics,
                r#"{comma}"{name}": {{"value": {value}, "unit": "{unit}"}}"#
            );
        }
        format!(
            r#"{{"correct": {}, "attempted": {}, "failed": {}, "metrics": {{{metrics}}}}}"#,
            self.failed == 0,
            self.attempted,
            self.failed
        )
    }
}

/// Checks pass outcomes against the expected digest: the stored reference
/// when the seed has one, else the oracle's.
struct Checker {
    outcomes: Vec<PassOutcome>,
}

impl Checker {
    fn new() -> Checker {
        Checker {
            outcomes: Vec::new(),
        }
    }

    fn record(&mut self, outcomes: impl IntoIterator<Item = PassOutcome>) {
        self.outcomes.extend(outcomes);
    }

    /// `(attempted, failed, where the expected digest came from)`.
    fn finish(&self, bench: &Bench) -> (u64, u64, &'static str) {
        let (expected, source) = match digest::stored(bench.workload, bench.seed) {
            Some(stored) => (stored, "stored"),
            None => (bench.oracle_digest(), "oracle"),
        };
        let attempted = self.outcomes.iter().map(PassOutcome::operations).sum();
        let failed = self.outcomes.iter().map(|o| o.failures(expected)).sum();
        (attempted, failed, source)
    }
}

/// Runs the workload under `args` and reports.
pub fn run(args: Args) -> Report {
    lsi_quality::obs::set_mode(lsi_quality::obs::MetricsMode::Off);
    if args.trace {
        run_traced(args)
    } else {
        run_timed(args)
    }
}

/// The timed run: `SETUPS` set-ups, then fresh-session passes for
/// `--seconds` with telemetry off.
fn run_timed(args: Args) -> Report {
    let host_ref_s = host_reference();
    let mut checker = Checker::new();
    let mut bench = Bench::new(args.workload, args.seed);
    let mut setups = Vec::with_capacity(SETUPS);
    for _ in 0..SETUPS {
        let started = Instant::now();
        let outcomes = bench.setup();
        setups.push(started.elapsed().as_secs_f64());
        checker.record(outcomes);
    }
    let (passes, outcomes) = timed_passes(&bench, WORKERS, Duration::from_secs(args.seconds));
    checker.record(outcomes);
    let peak_rss_mb = peak_rss_mb();
    let (attempted, failed, source) = checker.finish(&bench);

    let mut metrics = BTreeMap::new();
    metrics.insert("setup_s", (median(&setups), "s"));
    metrics.insert("pass_s", (median(&passes), "s"));
    metrics.insert("peak_rss_mb", (peak_rss_mb, "MB"));
    let note = format!(
        r#"{{"run": {}, "passes": {}, "setups": {}, "expected_digest": "{source}", "host_ref_s": {host_ref_s}}}"#,
        resolved_config(&bench),
        passes.len(),
        setups.len(),
    );
    Report {
        attempted,
        failed,
        metrics,
        note,
    }
}

/// The traced run: untraced passes, traced passes with the registry on,
/// and one-worker passes, a third of `--seconds` each; then one traced
/// pass of each other workload for the layers this one does not reach.
fn run_traced(args: Args) -> Report {
    let host_ref_s = host_reference();
    let third = Duration::from_secs(args.seconds) / 3;
    let mut checker = Checker::new();
    let mut bench = Bench::new(args.workload, args.seed);
    checker.record(bench.setup());

    let (untraced, outcomes) = timed_passes(&bench, WORKERS, third);
    checker.record(outcomes);
    let mut tracer = Tracer::new();
    let samples = traced_passes(&mut tracer, &bench, third, &mut checker);
    let (one_worker, outcomes) = timed_passes(&bench, 1, third);
    checker.record(outcomes);
    let (mut attempted, mut failed, source) = checker.finish(&bench);

    let untraced_s = median(&untraced);
    let mut metrics = BTreeMap::new();
    let mut sources = BTreeMap::new();
    fill(&mut metrics, &mut sources, &samples, args.workload);
    metrics.insert("exec.scaling", (median(&one_worker) / untraced_s, "ratio"));
    metrics.insert(
        "obs.overhead",
        (column(&samples, "pass_s") / untraced_s, "ratio"),
    );
    metrics.insert(
        "obs.span_coverage",
        (column(&samples, "covered_s") / untraced_s, "ratio"),
    );

    // Layers this workload never calls are measured on the workload that
    // does, so every traced run reports every layer.
    for other in Workload::ALL.into_iter().filter(|w| *w != args.workload) {
        if PER_LAYER.iter().all(|(name, _)| metrics.contains_key(name)) {
            break;
        }
        let mut home = Bench::new(other, args.seed);
        let mut home_checker = Checker::new();
        home_checker.record(home.setup());
        let samples = traced_passes(&mut tracer, &home, Duration::ZERO, &mut home_checker);
        let (home_attempted, home_failed, _) = home_checker.finish(&home);
        attempted += home_attempted;
        failed += home_failed;
        fill(&mut metrics, &mut sources, &samples, other);
    }

    let trace_name = format!("trace-{}-{}.jsonl", args.workload.name(), args.seed);
    tracer
        .write(
            &workloads::out_dir().join(&trace_name),
            args.workload,
            args.seed,
        )
        .expect("trace file is writable");
    let borrowed: Vec<String> = sources
        .iter()
        .filter(|(_, workload)| **workload != args.workload)
        .map(|(name, workload)| format!(r#""{name}": "{}""#, workload.name()))
        .collect();
    let note = format!(
        r#"{{"run": {}, "untraced_pass_s": {untraced_s}, "traced_passes": {}, "untraced_passes": {}, "one_worker_passes": {}, "expected_digest": "{source}", "host_ref_s": {host_ref_s}, "measured_on_other_workloads": {{{}}}, "spans": "out/{trace_name}"}}"#,
        resolved_config(&bench),
        samples.len(),
        untraced.len(),
        one_worker.len(),
        borrowed.join(", "),
    );
    Report {
        attempted,
        failed,
        metrics,
        note,
    }
}

/// Traced passes for at least `budget` (and at least two).
fn traced_passes(
    tracer: &mut Tracer,
    bench: &Bench,
    budget: Duration,
    checker: &mut Checker,
) -> Vec<Sample> {
    lsi_quality::obs::set_mode(lsi_quality::obs::MetricsMode::Json);
    let started = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < 2 || started.elapsed() < budget {
        let (outcome, sample) = trace::traced_pass(tracer, bench);
        checker.record([outcome]);
        samples.push(sample);
    }
    lsi_quality::obs::set_mode(lsi_quality::obs::MetricsMode::Off);
    samples
}

/// Adds each per-layer metric the samples carry and `metrics` lacks.
fn fill(
    metrics: &mut BTreeMap<&'static str, (f64, &'static str)>,
    sources: &mut BTreeMap<&'static str, Workload>,
    samples: &[Sample],
    workload: Workload,
) {
    for (name, unit) in PER_LAYER {
        if !metrics.contains_key(name) && samples.iter().all(|s| s.contains_key(name)) {
            metrics.insert(name, (column(samples, name), unit));
            sources.insert(name, workload);
        }
    }
}

/// The median of one figure across samples.
fn column(samples: &[Sample], name: &str) -> f64 {
    let values: Vec<f64> = samples.iter().map(|sample| sample[name]).collect();
    median(&values)
}

/// Fresh-session passes for at least `budget` (and at least
/// [`MIN_PASSES`]); returns each pass's wall time and outcome.
fn timed_passes(bench: &Bench, workers: usize, budget: Duration) -> (Vec<f64>, Vec<PassOutcome>) {
    let started = Instant::now();
    let mut times = Vec::new();
    let mut outcomes = Vec::new();
    while times.len() < MIN_PASSES || started.elapsed() < budget {
        let pass_started = Instant::now();
        let outcome = bench.pass(workers);
        times.push(pass_started.elapsed().as_secs_f64());
        outcomes.push(outcome);
    }
    (times, outcomes)
}

fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    }
}

/// The host-speed reference: seconds for a fixed pure-CPU loop, so a
/// reader can tell host drift from a code change.
fn host_reference() -> f64 {
    let started = Instant::now();
    let mut state = black_box(0x9E37_79B9_7F4A_7C15_u64);
    for _ in 0..black_box(100_000_000u64) {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
    }
    black_box(state);
    started.elapsed().as_secs_f64()
}

/// The process's peak resident set, from `VmHWM` in `/proc/self/status`.
fn peak_rss_mb() -> f64 {
    let status =
        std::fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    let kib: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM is reported");
    kib / 1024.0
}

/// The configuration the pass resolved to, as a JSON object: engine per
/// device, lane width, worker count and seed.
fn resolved_config(bench: &Bench) -> String {
    let (device, config, patterns) = match bench.workload {
        Workload::Table1Line => (
            lsi_quality::Session::reproduction_circuit(false),
            workloads::run_config(WORKERS),
            192,
        ),
        Workload::BistSweep => (
            Bench::bist_device(bench.seed),
            workloads::run_config(WORKERS),
            256,
        ),
        Workload::ServeGrid => (
            lsi_quality::Session::reproduction_circuit(false),
            workloads::serve_config(WORKERS),
            192,
        ),
    };
    let engine = match bench.workload {
        Workload::BistSweep => "none (signature sweep)",
        _ => config.engine_for_size(device.gate_count()).name(),
    };
    format!(
        r#"{{"workload": "{}", "seed": {}, "workers": {WORKERS}, "device_gates": {}, "engine": "{engine}", "lanes": "{} -> {} at {patterns} patterns", "telemetry": "off"}}"#,
        bench.workload.name(),
        bench.seed,
        device.gate_count(),
        config.lanes(),
        config.lanes().resolve(patterns),
    )
}

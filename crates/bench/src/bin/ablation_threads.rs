//! Ablation: thread-scaling of the production-line pipeline.
//!
//! The lot workload is embarrassingly parallel — every chip draws from its
//! own RNG stream and is tested independently — so the pipeline should scale
//! with cores until memory bandwidth intervenes.  This ablation measures the
//! full per-lot pipeline at increasing worker counts: a 10 000-chip
//! physical-defect lot generated, wafer-tested and tabulated at full
//! resolution, and a 10 000-chip statistical-model lot streamed through the
//! same test.  At each count it checks that the results stay byte-identical
//! to the 1-worker run, and then repeats the exercise one level up: a
//! `(y, n0)` grid sweep of whole 10k-chip lots fanned across threads by
//! `LotSweep`.
//!
//! Configuration routes through the typed `Session` (the `LSIQ_ENGINE`
//! knob picks the fault-simulation engine that builds the test programme);
//! each rung of the worker-count ladder gets its own `ExecutionContext`,
//! shared by every repetition and every pipeline stage of that rung — the
//! worker-count ladder itself is explicit, so `LSIQ_LOT_THREADS` is
//! deliberately ignored here.
//!
//! Run with: `cargo run --release -p lsiq-bench --bin ablation_threads`

use lsiq_bench::{session_from_env, Session};
use lsiq_exec::ExecutionContext;
use lsiq_fault::coverage::CoverageCurve;
use lsiq_fault::dictionary::FaultDictionary;
use lsiq_fault::universe::FaultUniverse;
use lsiq_manufacturing::defect::DefectModel;
use lsiq_manufacturing::lot::{ModelLotConfig, PhysicalLotConfig};
use lsiq_manufacturing::pipeline::{LotSweep, ParallelLotRunner};
use lsiq_manufacturing::streaming::StreamingLotExecutor;
use std::time::Instant;

/// Repetitions per measurement; the best (minimum) time is reported, the
/// usual way to suppress scheduler noise in scaling curves.
const REPS: usize = 3;

fn best_of<T>(mut run: impl FnMut() -> T) -> (f64, T) {
    let mut best = f64::INFINITY;
    let mut result = None;
    for _ in 0..REPS {
        let start = Instant::now();
        let value = run();
        best = best.min(start.elapsed().as_secs_f64());
        result = Some(value);
    }
    (best, result.expect("REPS > 0"))
}

fn main() {
    let session = session_from_env();
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!(
        "Ablation — production-line pipeline thread scaling ({cores} hardware threads, {})\n",
        session.config()
    );

    // The test programme, built once on the session's engine and workers: an
    // LSI-class device and its production-line suite.
    let circuit = Session::reproduction_circuit(false);
    let universe = FaultUniverse::full(&circuit);
    let suite = session.line_suite_builder(&circuit).build_cached(
        Some(session.context()),
        None,
        &circuit,
        &universe,
    );
    let coverage = CoverageCurve::from_fault_list(&suite.fault_list, suite.patterns.len());
    let dictionary = FaultDictionary::from_fault_list(&suite.fault_list);
    println!(
        "device: {} gates, {} faults; programme: {} patterns, coverage {:.1}%",
        circuit.gate_count(),
        universe.len(),
        suite.patterns.len(),
        suite.coverage() * 100.0
    );

    // One context per ladder rung, shared by every repetition and every
    // stage measured on that rung.
    let contexts: Vec<ExecutionContext> = thread_counts(cores)
        .into_iter()
        .map(ExecutionContext::new)
        .collect();

    // Level 1: one lot of 10k chips, chips sharded across threads.  The
    // physical defect pipeline is the heavy generator (clustered
    // negative-binomial defect counts, each defect mapped to several logical
    // faults), so this measures real per-chip work, not spawn overhead.
    let physical_config = PhysicalLotConfig {
        chips: 10_000,
        defect_model: DefectModel::for_target_yield(0.07, 1.0).expect("valid"),
        extra_faults_per_defect: 2.0,
        fault_universe_size: universe.len(),
        seed: 1981,
    };
    let model_config = ModelLotConfig {
        chips: 10_000,
        yield_fraction: 0.07,
        n0: 8.0,
        fault_universe_size: universe.len(),
        seed: 1981,
    };
    let checkpoints: Vec<usize> = (1..=coverage.pattern_count()).collect();
    let run_lot = |context: &ExecutionContext| {
        let runner = ParallelLotRunner::with_context(context);
        let physical = runner.generate_physical_lot(&physical_config);
        let records = runner.test_lot(&dictionary, &physical);
        let experiment = runner.experiment(&records, &coverage, &checkpoints);
        let model = StreamingLotExecutor::with_context(context).stream_model_lot(
            &model_config,
            &dictionary,
            &coverage,
            &checkpoints,
        );
        (physical, records, experiment, model)
    };
    let reference = run_lot(&contexts[0]);
    println!("\n10k-chip lot (physical + model pipelines): generate + wafer-test + reject table");
    println!("threads | seconds | speedup | identical to serial");
    println!("--------|---------|---------|--------------------");
    let mut serial_seconds = 0.0;
    for context in &contexts {
        let threads = context.workers();
        let (seconds, outcome) = best_of(|| run_lot(context));
        if threads == 1 {
            serial_seconds = seconds;
        }
        println!(
            "{:>7} | {:>7.3} | {:>6.2}x | {}",
            threads,
            seconds,
            serial_seconds / seconds,
            outcome == reference
        );
        assert!(outcome == reference, "thread count changed the results");
    }

    // Level 2: a (y, n0) grid of whole lots fanned across threads — one
    // fork-join per sweep splits its points across the rung's workers.
    let points = LotSweep::grid(&[0.03, 0.07, 0.15, 0.30], &[2.0, 4.0, 8.0]);
    let sweep = |context| {
        LotSweep {
            chips: 10_000,
            fault_universe_size: universe.len(),
            base_seed: 1981,
            context: None,
        }
        .with_context(context)
    };
    let reference = sweep(&contexts[0]).run(&dictionary, &coverage, &points);
    println!(
        "\nlot sweep: {} (y, n0) points x 10k chips, lots fanned across threads",
        points.len()
    );
    println!("threads | seconds | speedup | identical to serial");
    println!("--------|---------|---------|--------------------");
    let mut serial_seconds = 0.0;
    for context in &contexts {
        let threads = context.workers();
        let (seconds, results) = best_of(|| sweep(context).run(&dictionary, &coverage, &points));
        if threads == 1 {
            serial_seconds = seconds;
        }
        println!(
            "{:>7} | {:>7.3} | {:>6.2}x | {}",
            threads,
            seconds,
            serial_seconds / seconds,
            results == reference
        );
        assert!(results == reference, "thread count changed the results");
    }

    println!("\nmean field reject rate across the sweep grid (sanity readout):");
    for result in &reference {
        println!(
            "  y = {:.2}, n0 = {:>4.1}: observed y {:.3}, field reject {:.3}%",
            result.point.yield_fraction,
            result.point.n0,
            result.outcome.observed_yield,
            result.outcome.outcome.field_reject_rate() * 100.0
        );
    }
}

/// The ladder of worker counts to measure: powers of two up to the hardware,
/// plus one oversubscribed point to show the plateau.
fn thread_counts(cores: usize) -> Vec<usize> {
    let mut counts = vec![1usize];
    let mut n = 2;
    while n <= cores {
        counts.push(n);
        n *= 2;
    }
    if counts.last() != Some(&cores) {
        counts.push(cores);
    }
    counts.push(cores * 2);
    counts.dedup();
    counts
}

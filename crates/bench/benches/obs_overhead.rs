//! Telemetry overhead: the same `fault_sim` alu4 workload with metrics
//! recording off (the default — every `Counter::add` / `Span::start` is
//! one relaxed atomic load) and on (`json`).  The `off` entries pin the
//! disabled-mode cost against the uninstrumented baseline history: the
//! acceptance bar is <1% regression on `fault_sim` alu4, i.e. `off` must
//! be indistinguishable from the pre-instrumentation numbers for this
//! group's workloads.  The `json` entries document the price of recording
//! (registry atomic writes plus one `Instant` pair per span).
//!
//! The mode is process-global, so this group sets it explicitly around
//! each measurement instead of relying on `LSIQ_METRICS`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use lsiq_fault::incremental::IncrementalSimulator;
use lsiq_fault::serial::SerialSimulator;
use lsiq_fault::simulator::FaultSimulator;
use lsiq_fault::universe::FaultUniverse;
use lsiq_netlist::library;
use lsiq_obs::MetricsMode;
use lsiq_sim::pattern::{Pattern, PatternSet};
use lsiq_stats::rng::{Rng, Xoshiro256StarStar};
use std::hint::black_box;

fn random_patterns(width: usize, count: usize, seed: u64) -> PatternSet {
    let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
    (0..count)
        .map(|_| Pattern::from_bits((0..width).map(|_| rng.next_bool(0.5))))
        .collect()
}

fn bench_obs_overhead(c: &mut Criterion) {
    let circuit = library::alu4();
    let universe = FaultUniverse::full(&circuit);
    let patterns = random_patterns(circuit.primary_inputs().len(), 64, 7);
    let mut group = c.benchmark_group("obs_overhead_alu4_64_patterns");
    for (mode, label) in [(MetricsMode::Off, "off"), (MetricsMode::Json, "json")] {
        // Explicitly pin the process-global mode for this measurement; the
        // registry contents are irrelevant here, only the recording cost.
        lsiq_obs::set_mode(mode);
        group.bench_with_input(BenchmarkId::new("incremental", label), &(), |b, _| {
            b.iter(|| {
                IncrementalSimulator::new(&circuit).run(black_box(&universe), black_box(&patterns))
            })
        });
        // The serial engine takes a span per pattern and counts every drop,
        // so it is the worst case for per-call gating cost.
        group.bench_with_input(BenchmarkId::new("serial", label), &(), |b, _| {
            b.iter(|| {
                SerialSimulator::new(&circuit).run(black_box(&universe), black_box(&patterns))
            })
        });
    }
    lsiq_obs::set_mode(MetricsMode::Off);
    group.finish();
}

criterion_group!(benches, bench_obs_overhead);
criterion_main!(benches);

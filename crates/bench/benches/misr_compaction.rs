//! MISR signature-compaction benchmarks.
//!
//! Two costs matter to the BIST workload: building a whole per-fault
//! [`SignatureDictionary`] (one fault-simulation pass plus error-stream
//! folding), and the serial-versus-pooled ratio of that build.  The sweep
//! rows cover the multi-width single pass (three widths, and all eight
//! supported ones) and the lane widths.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use lsiq_bist::lfsr::SUPPORTED_DEGREES;
use lsiq_bist::signature::{BistPlan, SignatureDictionary};
use lsiq_bist::stumps::{StumpsConfig, StumpsGenerator};
use lsiq_exec::{ExecutionContext, LaneWidth};
use lsiq_fault::universe::FaultUniverse;
use lsiq_netlist::generator::{random_circuit, RandomCircuitConfig};
use lsiq_netlist::library;
use lsiq_sim::cache::GoodMachineCache;
use lsiq_sim::pattern::PatternSet;

fn bench_misr_compaction(c: &mut Criterion) {
    let circuit = library::alu4();
    let universe = FaultUniverse::full(&circuit);
    let patterns: PatternSet = StumpsGenerator::new(&StumpsConfig::with_width(
        circuit.primary_inputs().len(),
        1981,
    ))
    .generate(256);
    let plan = BistPlan {
        session_len: 64,
        signature_width: 16,
    };

    let mut group = c.benchmark_group("misr_compaction");
    group.bench_function("signature_dictionary/alu4/1_worker", |b| {
        let context = ExecutionContext::new(1);
        b.iter(|| {
            black_box(SignatureDictionary::build_in(
                &context, &circuit, &universe, &patterns, &plan,
            ))
        })
    });

    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let pooled = ExecutionContext::new(workers);
    group.bench_function(
        format!("signature_dictionary/alu4/{workers}_workers"),
        |b| {
            b.iter(|| {
                black_box(SignatureDictionary::build_in(
                    &pooled, &circuit, &universe, &patterns, &plan,
                ))
            })
        },
    );

    // The single-pass multi-width build versus three independent builds,
    // and every supported width in one pass (each width adds one span step
    // per span, not one clock per pattern).
    for (name, widths) in [
        ("multi_width/k4_8_16_one_pass", &[4, 8, 16][..]),
        ("multi_width/k4_to_k64_one_pass", &SUPPORTED_DEGREES[..]),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| {
                black_box(SignatureDictionary::build_sweep_cached(
                    &pooled,
                    &circuit,
                    &universe,
                    &patterns,
                    plan.session_len,
                    widths,
                    &[patterns.len()],
                    LaneWidth::Auto,
                    None,
                ))
            })
        });
    }

    // Lane-width scaling: a 1024-pattern dictionary build at 1, 4 and 8
    // lanes (byte-identical signatures — pure throughput), and the widest
    // lane replaying the good machine from a warm cache.  The sweep runs on
    // a 600-gate device: signature building is one fault-simulation pass
    // plus error-stream folding, and the simulation share — where wide
    // chunks autovectorize — needs a real circuit to show.  The fold
    // advances each register one lane word (up to 64 patterns) per span
    // step, so wider lanes give it more words per chunk, not more work per
    // pattern.
    let wide_circuit = random_circuit(&RandomCircuitConfig {
        inputs: 24,
        gates: 600,
        seed: 8,
        ..RandomCircuitConfig::default()
    });
    let wide_universe = FaultUniverse::full(&wide_circuit);
    let long: PatternSet = StumpsGenerator::new(&StumpsConfig::with_width(
        wide_circuit.primary_inputs().len(),
        1981,
    ))
    .generate(1024);
    for lanes in LaneWidth::EXPLICIT {
        group.bench_function(format!("sweep_1024_patterns/k16/lanes_{lanes}"), |b| {
            b.iter(|| {
                black_box(SignatureDictionary::build_sweep_cached(
                    &pooled,
                    &wide_circuit,
                    &wide_universe,
                    &long,
                    plan.session_len,
                    &[plan.signature_width],
                    &[long.len()],
                    lanes,
                    None,
                ))
            })
        });
    }
    let cache = GoodMachineCache::new();
    group.bench_function("sweep_1024_patterns/k16/lanes_8_cached", |b| {
        b.iter(|| {
            black_box(SignatureDictionary::build_sweep_cached(
                &pooled,
                &wide_circuit,
                &wide_universe,
                &long,
                plan.session_len,
                &[plan.signature_width],
                &[long.len()],
                LaneWidth::X8,
                Some(&cache),
            ))
        })
    });
    group.finish();
}

criterion_group!(benches, bench_misr_compaction);
criterion_main!(benches);

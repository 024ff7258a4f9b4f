//! Criterion benchmarks for pattern generation: random and PODEM.

use criterion::{criterion_group, criterion_main, Criterion};
use lsiq_fault::universe::FaultUniverse;
use lsiq_netlist::library;
use lsiq_tpg::podem::Podem;
use lsiq_tpg::random::RandomPatternGenerator;
use std::hint::black_box;

fn bench_pattern_generation(c: &mut Criterion) {
    let circuit = library::alu4();
    c.bench_function("random_patterns_256", |b| {
        b.iter(|| RandomPatternGenerator::new(black_box(&circuit), 7).generate(256))
    });

    let universe = FaultUniverse::full(&circuit);
    let podem = Podem::new(&circuit);
    c.bench_function("podem_full_alu4_universe", |b| {
        b.iter(|| {
            let mut tests = 0usize;
            for fault in black_box(&universe) {
                if podem.generate_test(fault).pattern().is_some() {
                    tests += 1;
                }
            }
            tests
        })
    });
}

criterion_group!(benches, bench_pattern_generation);
criterion_main!(benches);

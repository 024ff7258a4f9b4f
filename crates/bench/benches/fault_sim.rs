//! Criterion benchmarks comparing the three fault-simulation algorithms.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use lsiq_exec::LaneWidth;
use lsiq_fault::deductive::DeductiveSimulator;
use lsiq_fault::incremental::IncrementalSimulator;
use lsiq_fault::serial::SerialSimulator;
use lsiq_fault::simulator::FaultSimulator;
use lsiq_fault::universe::FaultUniverse;
use lsiq_netlist::generator::{random_circuit, RandomCircuitConfig};
use lsiq_netlist::library;
use lsiq_sim::cache::GoodMachineCache;
use lsiq_sim::pattern::{Pattern, PatternSet};
use lsiq_stats::rng::{Rng, Xoshiro256StarStar};
use std::hint::black_box;

fn random_patterns(width: usize, count: usize, seed: u64) -> PatternSet {
    let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
    (0..count)
        .map(|_| Pattern::from_bits((0..width).map(|_| rng.next_bool(0.5))))
        .collect()
}

fn bench_fault_sim(c: &mut Criterion) {
    let circuit = library::alu4();
    let universe = FaultUniverse::full(&circuit);
    let patterns = random_patterns(circuit.primary_inputs().len(), 64, 7);
    let mut group = c.benchmark_group("fault_sim_alu4_64_patterns");
    group.bench_with_input(BenchmarkId::new("serial", universe.len()), &(), |b, _| {
        b.iter(|| SerialSimulator::new(&circuit).run(black_box(&universe), black_box(&patterns)))
    });
    group.bench_with_input(
        BenchmarkId::new("deductive", universe.len()),
        &(),
        |b, _| {
            b.iter(|| {
                DeductiveSimulator::new(&circuit).run(black_box(&universe), black_box(&patterns))
            })
        },
    );
    group.bench_with_input(
        BenchmarkId::new("deductive_uncollapsed", universe.len()),
        &(),
        |b, _| {
            b.iter(|| {
                DeductiveSimulator::new(&circuit)
                    .with_collapsing(false)
                    .run(black_box(&universe), black_box(&patterns))
            })
        },
    );
    group.bench_with_input(
        BenchmarkId::new("incremental", universe.len()),
        &(),
        |b, _| {
            b.iter(|| {
                IncrementalSimulator::new(&circuit).run(black_box(&universe), black_box(&patterns))
            })
        },
    );
    group.finish();
}

/// The same engines on a larger random circuit: the regime the ROADMAP's
/// "order-of-magnitude win" refers to (the serial engine is omitted — it is
/// two orders of magnitude off the pace here).
fn bench_fault_sim_large(c: &mut Criterion) {
    let circuit = random_circuit(&RandomCircuitConfig {
        inputs: 32,
        gates: 1200,
        seed: 1981,
        ..RandomCircuitConfig::default()
    });
    let universe = FaultUniverse::full(&circuit);
    let patterns = random_patterns(circuit.primary_inputs().len(), 128, 11);
    let mut group = c.benchmark_group("fault_sim_random1200_128_patterns");
    group.bench_with_input(
        BenchmarkId::new("deductive", universe.len()),
        &(),
        |b, _| {
            b.iter(|| {
                DeductiveSimulator::new(&circuit).run(black_box(&universe), black_box(&patterns))
            })
        },
    );
    group.bench_with_input(
        BenchmarkId::new("deductive_uncollapsed", universe.len()),
        &(),
        |b, _| {
            b.iter(|| {
                DeductiveSimulator::new(&circuit)
                    .with_collapsing(false)
                    .run(black_box(&universe), black_box(&patterns))
            })
        },
    );
    group.bench_with_input(
        BenchmarkId::new("incremental", universe.len()),
        &(),
        |b, _| {
            b.iter(|| {
                IncrementalSimulator::new(&circuit).run(black_box(&universe), black_box(&patterns))
            })
        },
    );
    group.finish();
}

/// The ISCAS-scale regime the incremental engine exists for: a 50 000-gate
/// generated circuit over sixteen 64-pattern blocks, where re-evaluating
/// each fault's disturbed cone beats rebuilding per-signal fault lists over
/// the whole netlist.  The multi-block budget matters: fault dropping makes
/// the incremental engine's later blocks touch only still-undetected
/// faults, so its cost is nearly flat in block count while the deductive
/// engine pays a full list pass per pattern.
fn bench_fault_sim_iscas_scale(c: &mut Criterion) {
    let circuit = random_circuit(&RandomCircuitConfig::industrial(50_000, 1981));
    let universe = FaultUniverse::full(&circuit);
    let patterns = random_patterns(circuit.primary_inputs().len(), 1024, 13);
    let mut group = c.benchmark_group("fault_sim_industrial50k_1024_patterns");
    group.bench_with_input(
        BenchmarkId::new("deductive", universe.len()),
        &(),
        |b, _| {
            b.iter(|| {
                DeductiveSimulator::new(&circuit).run(black_box(&universe), black_box(&patterns))
            })
        },
    );
    group.bench_with_input(
        BenchmarkId::new("incremental", universe.len()),
        &(),
        |b, _| {
            b.iter(|| {
                IncrementalSimulator::new(&circuit).run(black_box(&universe), black_box(&patterns))
            })
        },
    );
    group.finish();
}

/// Lane-width scaling of the packed engine: the same 1024-pattern
/// workload at every [`LaneWidth`], single-threaded, plus the widest lane
/// with a warm [`GoodMachineCache`].  Results are byte-identical across
/// all entries — this group measures pure throughput.
fn bench_fault_sim_lanes(c: &mut Criterion) {
    let circuit = random_circuit(&RandomCircuitConfig {
        inputs: 24,
        gates: 600,
        seed: 8,
        ..RandomCircuitConfig::default()
    });
    let universe = FaultUniverse::full(&circuit);
    let patterns = random_patterns(circuit.primary_inputs().len(), 1024, 17);
    let mut group = c.benchmark_group("fault_sim_lanes_1024_patterns");
    for lanes in LaneWidth::EXPLICIT {
        group.bench_with_input(BenchmarkId::new("incremental", lanes), &(), |b, _| {
            b.iter(|| {
                IncrementalSimulator::new(&circuit)
                    .with_lanes(lanes)
                    .run(black_box(&universe), black_box(&patterns))
            })
        });
    }
    // A warm cache removes the good-machine pass entirely (every iteration
    // after the first replays it), leaving pure faulty-machine work.
    let cache = GoodMachineCache::new();
    group.bench_function("incremental/8_cached", |b| {
        b.iter(|| {
            IncrementalSimulator::new(&circuit)
                .with_lanes(LaneWidth::X8)
                .with_cache(&cache)
                .run(black_box(&universe), black_box(&patterns))
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_fault_sim,
    bench_fault_sim_large,
    bench_fault_sim_iscas_scale,
    bench_fault_sim_lanes
);
criterion_main!(benches);

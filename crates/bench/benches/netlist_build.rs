//! Criterion benchmarks of netlist construction: the devices every
//! reproduction pass builds, and the one compile step the simulators run
//! on each of them.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use lsiq_netlist::generator::{random_circuit, RandomCircuitConfig};
use lsiq_netlist::library::{lsi_class, LsiClassConfig};
use lsiq_sim::levelized::CompiledCircuit;
use std::hint::black_box;

/// `lsi_class` at the reduced reproduction size and at the paper's full
/// 25 000 transistors, the 50 000-gate industrial device of the
/// `fault_sim` bench, and `CompiledCircuit::new` on the reduced device.
fn bench_netlist_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("netlist_build");
    for target_transistors in [10_000, 25_000] {
        let config = LsiClassConfig {
            target_transistors,
            seed: 1981,
        };
        group.bench_with_input(
            BenchmarkId::new("lsi_class", target_transistors),
            &config,
            |b, &config| b.iter(|| lsi_class(black_box(config))),
        );
    }
    let industrial = RandomCircuitConfig::industrial(50_000, 1981);
    group.bench_with_input(
        BenchmarkId::new("random_circuit_industrial", 50_000),
        &industrial,
        |b, config| b.iter(|| random_circuit(black_box(config))),
    );
    let reduced = lsi_class(LsiClassConfig {
        target_transistors: 10_000,
        seed: 1981,
    });
    group.bench_with_input(
        BenchmarkId::new("compile", reduced.gate_count()),
        &reduced,
        |b, circuit| b.iter(|| CompiledCircuit::new(black_box(circuit))),
    );
    group.finish();
}

criterion_group!(benches, bench_netlist_build);
criterion_main!(benches);

//! Criterion benchmarks for the production-line Monte-Carlo: lot generation
//! (model and physical pipelines), wafer testing, and the multi-threaded
//! pipeline against the serial path on identical inputs.

use criterion::{criterion_group, criterion_main, Criterion};
use lsiq_fault::dictionary::FaultDictionary;
use lsiq_fault::incremental::IncrementalSimulator;
use lsiq_fault::simulator::FaultSimulator;
use lsiq_fault::universe::FaultUniverse;
use lsiq_manufacturing::defect::DefectModel;
use lsiq_manufacturing::lot::{ChipLot, ModelLotConfig, PhysicalLotConfig};
use lsiq_manufacturing::pipeline::ParallelLotRunner;
use lsiq_manufacturing::tester::WaferTester;
use lsiq_netlist::library;
use lsiq_sim::pattern::{Pattern, PatternSet};
use std::hint::black_box;

fn bench_lot_simulation(c: &mut Criterion) {
    let model_config = ModelLotConfig {
        chips: 1_000,
        yield_fraction: 0.07,
        n0: 8.0,
        fault_universe_size: 10_000,
        seed: 1,
    };
    c.bench_function("model_lot_1000_chips", |b| {
        b.iter(|| ChipLot::from_model(black_box(&model_config)))
    });

    let physical_config = PhysicalLotConfig {
        chips: 1_000,
        defect_model: DefectModel::for_target_yield(0.07, 1.0).expect("valid"),
        extra_faults_per_defect: 2.0,
        fault_universe_size: 10_000,
        seed: 1,
    };
    c.bench_function("physical_lot_1000_chips", |b| {
        b.iter(|| ChipLot::from_physical(black_box(&physical_config)))
    });

    // Wafer test of a lot against a precomputed dictionary.
    let circuit = library::alu4();
    let universe = FaultUniverse::full(&circuit);
    let patterns: PatternSet = (0..256)
        .map(|v| Pattern::from_integer(v * 5 + 1, 10))
        .collect();
    let list = IncrementalSimulator::new(&circuit).run(&universe, &patterns);
    let dictionary = FaultDictionary::from_fault_list(&list);
    let lot = ChipLot::from_model(&ModelLotConfig {
        chips: 1_000,
        yield_fraction: 0.07,
        n0: 8.0,
        fault_universe_size: universe.len(),
        seed: 3,
    });
    c.bench_function("wafer_test_1000_chips", |b| {
        b.iter(|| WaferTester::new(&dictionary).test_lot(black_box(&lot)))
    });

    // The multi-threaded pipeline on a 10x larger lot, serial versus all
    // cores: same per-chip streams, so both produce byte-identical lots and
    // only wall-clock differs.
    let big_config = ModelLotConfig {
        chips: 10_000,
        ..model_config
    };
    let serial_runner = ParallelLotRunner::new().with_threads(1);
    c.bench_function("model_lot_10k_chips_serial", |b| {
        b.iter(|| serial_runner.generate_model_lot(black_box(&big_config)))
    });
    let parallel_runner = ParallelLotRunner::new();
    c.bench_function("model_lot_10k_chips_parallel", |b| {
        b.iter(|| parallel_runner.generate_model_lot(black_box(&big_config)))
    });
    let big_lot = parallel_runner.generate_model_lot(&ModelLotConfig {
        chips: 10_000,
        fault_universe_size: universe.len(),
        ..model_config
    });
    c.bench_function("wafer_test_10k_chips_serial", |b| {
        b.iter(|| serial_runner.test_lot(&dictionary, black_box(&big_lot)))
    });
    c.bench_function("wafer_test_10k_chips_parallel", |b| {
        b.iter(|| parallel_runner.test_lot(&dictionary, black_box(&big_lot)))
    });
}

criterion_group!(benches, bench_lot_simulation);
criterion_main!(benches);

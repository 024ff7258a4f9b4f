//! Criterion benchmarks for the production-line Monte-Carlo: physical lot
//! generation, model-lot generation and wafer testing by the lot runner
//! on the calling thread against the same runner on a pool, on identical
//! inputs, and one streamed lot folded against the Table 1 dictionary.

use criterion::{criterion_group, criterion_main, Criterion};
use lsi_quality::Session;
use lsiq_exec::{ExecutionContext, RunConfig};
use lsiq_fault::dictionary::FaultDictionary;
use lsiq_fault::incremental::IncrementalSimulator;
use lsiq_fault::simulator::FaultSimulator;
use lsiq_fault::universe::FaultUniverse;
use lsiq_manufacturing::defect::DefectModel;
use lsiq_manufacturing::lot::{ModelLotConfig, PhysicalLotConfig};
use lsiq_manufacturing::pipeline::ParallelLotRunner;
use lsiq_manufacturing::streaming::StreamingLotExecutor;
use lsiq_netlist::library;
use lsiq_sim::pattern::{Pattern, PatternSet};
use std::hint::black_box;

fn bench_lot_simulation(c: &mut Criterion) {
    let serial_runner = ParallelLotRunner::default();
    let physical_config = PhysicalLotConfig {
        chips: 1_000,
        defect_model: DefectModel::for_target_yield(0.07, 1.0).expect("valid"),
        extra_faults_per_defect: 2.0,
        fault_universe_size: 10_000,
        seed: 1,
    };
    c.bench_function("physical_lot_1000_chips", |b| {
        b.iter(|| serial_runner.generate_physical_lot(black_box(&physical_config)))
    });

    // The lot runner on a 10k-chip lot, on the calling thread versus all
    // cores: same per-chip streams, so both produce byte-identical lots and
    // records and only wall-clock differs.
    let big_config = ModelLotConfig {
        chips: 10_000,
        yield_fraction: 0.07,
        n0: 8.0,
        fault_universe_size: 10_000,
        seed: 1,
    };
    c.bench_function("model_lot_10k_chips_serial", |b| {
        b.iter(|| serial_runner.generate_model_lot(black_box(&big_config)))
    });
    let context = ExecutionContext::new(0);
    let parallel_runner = ParallelLotRunner::with_context(&context);
    c.bench_function("model_lot_10k_chips_parallel", |b| {
        b.iter(|| parallel_runner.generate_model_lot(black_box(&big_config)))
    });
    // Wafer test against a precomputed dictionary.
    let circuit = library::alu4();
    let universe = FaultUniverse::full(&circuit);
    let patterns: PatternSet = (0..256)
        .map(|v| Pattern::from_integer(v * 5 + 1, 10))
        .collect();
    let list = IncrementalSimulator::new(&circuit).run(&universe, &patterns);
    let dictionary = FaultDictionary::from_fault_list(&list);
    let big_lot = parallel_runner.generate_model_lot(&ModelLotConfig {
        fault_universe_size: universe.len(),
        ..big_config
    });
    c.bench_function("wafer_test_10k_chips_serial", |b| {
        b.iter(|| serial_runner.test_lot(&dictionary, black_box(&big_lot)))
    });
    c.bench_function("wafer_test_10k_chips_parallel", |b| {
        b.iter(|| parallel_runner.test_lot(&dictionary, black_box(&big_lot)))
    });

    // One lot of the serve grid streamed on the calling thread: 250,000
    // chips at (0.07, 8.0), each drawn and folded against the Table 1
    // suite's 12,114-fault dictionary without a chip record.
    let table1 = Session::new(RunConfig::default())
        .reproduce_table1()
        .expect("no scan plan is configured");
    let streamed_config = ModelLotConfig {
        chips: 250_000,
        yield_fraction: 0.07,
        n0: 8.0,
        fault_universe_size: table1.universe_size,
        seed: 1,
    };
    let checkpoints = [table1.coverage.pattern_count()];
    c.bench_function("streamed_lot_250k_chips_table1_dictionary", |b| {
        b.iter(|| {
            StreamingLotExecutor::default().stream_model_lot(
                black_box(&streamed_config),
                &table1.suite.dictionary,
                &table1.coverage,
                &checkpoints,
            )
        })
    });
}

criterion_group!(benches, bench_lot_simulation);
criterion_main!(benches);

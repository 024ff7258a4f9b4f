//! No library stage reads the `LSIQ_*` environment variables.
//!
//! Only the process entry points (`Session::from_env`,
//! `QueryService::from_env`, `lsiq_bench::run_config_from_env`) parse the
//! knobs; every stage takes its execution context from its caller and runs
//! on the calling thread when given none.  This binary sets every variable
//! to an invalid value, runs each stage both without a context and on a
//! 2-worker context, and requires every call to complete with exactly the
//! results it gives once the variables are removed.
//!
//! The environment is process-global, so this file holds a single test.

use lsi_quality::bist::signature::{BistPlan, SignatureDictionary};
use lsi_quality::exec::config::{SEED_VAR, TEST_MODE_VAR, WORKERS_VAR};
use lsi_quality::exec::{
    ExecutionContext, RunConfig, ENGINE_VAR, LANES_VAR, METRICS_VAR, SCAN_CHAINS_VAR,
};
use lsi_quality::fault::coverage::CoverageCurve;
use lsi_quality::fault::dictionary::FaultDictionary;
use lsi_quality::fault::list::FaultList;
use lsi_quality::fault::simulator::{BuildEngine, EngineKind, EngineOptions};
use lsi_quality::fault::universe::FaultUniverse;
use lsi_quality::manufacturing::experiment::RejectExperiment;
use lsi_quality::manufacturing::lot::{ChipLot, ModelLotConfig};
use lsi_quality::manufacturing::pipeline::{LotSweep, ParallelLotRunner, SweepResult};
use lsi_quality::manufacturing::streaming::{StreamedLot, StreamingLotExecutor};
use lsi_quality::manufacturing::tester::TestRecord;
use lsi_quality::netlist::library;
use lsi_quality::sim::pattern::{Pattern, PatternSet};
use lsi_quality::tpg::suite::TestSuiteBuilder;
use std::env;

/// Every `RunConfig` knob, each set to a value `RunConfig::from_env`
/// rejects.
const INVALID: [(&str, &str); 7] = [
    (ENGINE_VAR, "warp"),
    (WORKERS_VAR, "bogus"),
    (SEED_VAR, "bogus"),
    (TEST_MODE_VAR, "scan"),
    (SCAN_CHAINS_VAR, "0"),
    (LANES_VAR, "2"),
    (METRICS_VAR, "verbose"),
];

/// Every stage's results, each as `[without a context, on 2 workers]`.
#[derive(Debug, PartialEq)]
struct Outputs {
    engines: Vec<[FaultList; 2]>,
    suites: [(PatternSet, FaultList); 2],
    signatures: [SignatureDictionary; 2],
    lots: [ChipLot; 2],
    records: [Vec<TestRecord>; 2],
    experiments: [RejectExperiment; 2],
    streamed: [StreamedLot; 2],
    sweeps: [Vec<SweepResult>; 2],
}

/// Runs every stage on alu4, once without a context (a 1-worker context
/// for the signature build, which always takes one) and once on `pool`.
fn run_stages(pool: &ExecutionContext) -> Outputs {
    let circuit = library::alu4();
    let universe = FaultUniverse::full(&circuit);
    let patterns: PatternSet = (0..160)
        .map(|v| Pattern::from_integer(v * 7 + 3, 10))
        .collect();
    let pooled = EngineOptions {
        context: Some(pool),
        ..EngineOptions::default()
    };

    let engines = EngineKind::ALL
        .into_iter()
        .map(|kind| {
            [
                kind.build(&circuit).run(&universe, &patterns),
                kind.build_configured(&circuit, &pooled)
                    .run(&universe, &patterns),
            ]
        })
        .collect();

    let builder = TestSuiteBuilder::default();
    let inline_suite = builder.build(&circuit, &universe);
    let pooled_suite = builder.build_cached(Some(pool), None, &circuit, &universe);
    let suites = [
        (inline_suite.patterns, inline_suite.fault_list),
        (pooled_suite.patterns, pooled_suite.fault_list),
    ];

    let plan = BistPlan {
        session_len: 32,
        signature_width: 8,
    };
    let signatures = [
        SignatureDictionary::build_in(
            &ExecutionContext::new(1),
            &circuit,
            &universe,
            &patterns,
            &plan,
        ),
        SignatureDictionary::build_in(pool, &circuit, &universe, &patterns, &plan),
    ];

    let list = EngineKind::Incremental
        .build(&circuit)
        .run(&universe, &patterns);
    let dictionary = FaultDictionary::from_fault_list(&list);
    let coverage = CoverageCurve::from_fault_list(&list, patterns.len());
    let checkpoints: Vec<usize> = (1..=coverage.pattern_count()).collect();
    let config = ModelLotConfig {
        chips: 1_000,
        yield_fraction: 0.3,
        n0: 4.0,
        fault_universe_size: universe.len(),
        seed: 1981,
    };
    let runners = [
        ParallelLotRunner::default(),
        ParallelLotRunner::with_context(pool),
    ];
    let lots = runners.map(|runner| runner.generate_model_lot(&config));
    let records = [
        runners[0].test_lot(&dictionary, &lots[0]),
        runners[1].test_lot(&dictionary, &lots[1]),
    ];
    let experiments = [
        runners[0].experiment(&records[0], &coverage, &checkpoints),
        runners[1].experiment(&records[1], &coverage, &checkpoints),
    ];
    let streamed = [
        StreamingLotExecutor::default(),
        StreamingLotExecutor::with_context(pool),
    ]
    .map(|executor| executor.stream_model_lot(&config, &dictionary, &coverage, &checkpoints));

    let sweep = LotSweep {
        chips: 300,
        fault_universe_size: universe.len(),
        base_seed: 7,
        context: None,
    };
    let points = LotSweep::grid(&[0.1, 0.3], &[2.0, 8.0]);
    let sweeps = [
        sweep.run(&dictionary, &coverage, &points),
        sweep
            .with_context(pool)
            .run(&dictionary, &coverage, &points),
    ];

    Outputs {
        engines,
        suites,
        signatures,
        lots,
        records,
        experiments,
        streamed,
        sweeps,
    }
}

#[test]
fn library_stages_never_read_the_environment() {
    // Each value on its own is rejected by the one parsing site…
    for (name, value) in INVALID {
        env::set_var(name, value);
        assert!(RunConfig::from_env().is_err(), "{name}={value}");
        env::remove_var(name);
    }
    // …and all of them together leave every stage untouched.
    for (name, value) in INVALID {
        env::set_var(name, value);
    }
    assert!(RunConfig::from_env().is_err());
    let pool = ExecutionContext::new(2);
    let poisoned = run_stages(&pool);

    for (name, _) in INVALID {
        env::remove_var(name);
    }
    assert_eq!(RunConfig::from_env(), Ok(RunConfig::default()));
    let clean = run_stages(&pool);
    assert_eq!(poisoned, clean);
}

//! The `auto` engine selection (`LSIQ_ENGINE=auto`,
//! `RunConfig::with_engine_auto`) resolves to the production engine,
//! incremental cone propagation, on every device, and a session under
//! `auto` produces suites and sweeps byte-identical to a session pinned to
//! that engine — engine choice is a speed knob, never a results knob.

use lsi_quality::{BistSweepSpec, Session};
use lsiq_exec::{EngineKind, RunConfig, ENGINE_VAR};
use lsiq_fault::universe::FaultUniverse;
use lsiq_netlist::library;

#[test]
fn auto_resolves_to_incremental_through_the_session() {
    let session = Session::new(RunConfig::default().with_engine_auto());
    assert!(session.config().engine_is_auto());
    assert_eq!(session.config().engine(), EngineKind::Incremental);
    for circuit in [library::alu4(), Session::reproduction_circuit(false)] {
        assert_eq!(
            session.line_suite_builder(&circuit).engine,
            EngineKind::Incremental,
            "{} gates",
            circuit.gate_count()
        );
    }

    // The environment knob takes the same path.  (Every test of this file
    // builds its configuration explicitly, so the variable cannot leak.)
    std::env::set_var(ENGINE_VAR, "auto");
    let config = RunConfig::from_env();
    std::env::remove_var(ENGINE_VAR);
    let config = config.expect("auto is an accepted engine name");
    assert!(config.engine_is_auto());
    assert_eq!(config.engine(), EngineKind::Incremental);
    assert_eq!(config.engine_for_size(50_000), EngineKind::Incremental);
}

#[test]
fn auto_and_pinned_engines_build_byte_identical_suites() {
    let circuit = library::alu4();
    let universe = FaultUniverse::full(&circuit);
    let auto_session = Session::new(RunConfig::default().with_engine_auto());
    let pinned_session = Session::new(RunConfig::default().with_engine(EngineKind::Incremental));

    let build = |session: &Session| {
        session.line_suite_builder(&circuit).build_cached(
            Some(session.context()),
            Some(session.good_machine_cache()),
            &circuit,
            &universe,
        )
    };
    let auto_suite = build(&auto_session);
    let pinned_suite = build(&pinned_session);
    assert_eq!(auto_suite.patterns, pinned_suite.patterns);
    assert_eq!(auto_suite.dictionary, pinned_suite.dictionary);
    assert_eq!(
        auto_suite.coverage_curve.cumulative(),
        pinned_suite.coverage_curve.cumulative()
    );
    assert_eq!(
        auto_suite.deterministic_patterns,
        pinned_suite.deterministic_patterns
    );
}

#[test]
fn auto_and_pinned_engines_agree_on_a_bist_sweep() {
    let circuit = library::alu4();
    let spec = BistSweepSpec {
        test_lengths: vec![64, 128],
        signature_widths: vec![8, 16],
        session_len: 32,
        channels: 4,
        yield_fraction: 0.07,
        n0: 8.0,
        full_size: false,
    };
    let auto_sweep = Session::new(RunConfig::default().with_engine_auto())
        .run_bist_sweep_on(&circuit, &spec)
        .expect("auto sweep");
    let pinned_sweep = Session::new(RunConfig::default().with_engine(EngineKind::Incremental))
        .run_bist_sweep_on(&circuit, &spec)
        .expect("pinned sweep");
    assert_eq!(auto_sweep, pinned_sweep);
}

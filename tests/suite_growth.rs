//! The suite builder simulates each pattern once.
//!
//! After every random chunk, and once for the PODEM top-up patterns,
//! `TestSuiteBuilder::build_with` runs its engine over only the new
//! patterns and against only the faults still undetected, recording each
//! detection at its index in the suite.  Appending patterns never moves a
//! fault's first detecting pattern, so that bookkeeping must reproduce one
//! engine run over the final pattern set exactly.  These tests pin the
//! equality on every engine and count what the production-line build
//! simulates.

use std::cell::RefCell;

use lsi_quality::exec::RunConfig;
use lsi_quality::fault::coverage::CoverageCurve;
use lsi_quality::fault::dictionary::FaultDictionary;
use lsi_quality::fault::incremental::IncrementalSimulator;
use lsi_quality::fault::list::FaultList;
use lsi_quality::fault::model::Fault;
use lsi_quality::fault::simulator::{BuildEngine, EngineKind, FaultSimulator};
use lsi_quality::fault::universe::FaultUniverse;
use lsi_quality::netlist::library;
use lsi_quality::sim::pattern::PatternSet;
use lsi_quality::tpg::suite::{TestSuite, TestSuiteBuilder};
use lsi_quality::Session;

/// Asserts that `suite` reports exactly what one run of `engine` over its
/// final pattern set reports.
fn assert_matches_one_run(
    suite: &TestSuite,
    engine: &dyn FaultSimulator,
    universe: &FaultUniverse,
    label: &str,
) {
    let list = engine.run(universe, &suite.patterns);
    assert_eq!(suite.fault_list, list, "{label}");
    assert_eq!(
        suite.coverage_curve,
        CoverageCurve::from_fault_list(&list, suite.patterns.len()),
        "{label}"
    );
    assert_eq!(
        suite.dictionary,
        FaultDictionary::from_fault_list(&list),
        "{label}"
    );
}

#[test]
fn a_grown_suite_matches_one_run_over_its_patterns_on_every_engine() {
    let circuit = library::alu4();
    // Redundant faults keep alu4 below a target of 1.0, so the random phase
    // spends its whole budget.  Chunks of 24 end inside 64-pattern words,
    // and a budget of 200 cuts the last chunk of every size short.
    let random_only = TestSuiteBuilder {
        max_random_patterns: 200,
        target_coverage: 1.0,
        podem_top_up: false,
        ..TestSuiteBuilder::default()
    };
    // A starved random phase leaves faults for the PODEM top-up.
    let topped_up = TestSuiteBuilder {
        max_random_patterns: 16,
        target_coverage: 1.0,
        podem_top_up: true,
        ..TestSuiteBuilder::default()
    };
    for universe in [
        FaultUniverse::full(&circuit),
        FaultUniverse::checkpoint(&circuit),
    ] {
        for kind in EngineKind::ALL {
            let engine = kind.build(&circuit);
            for chunk in [24, 32, 64] {
                for builder in [random_only, topped_up] {
                    let label = format!(
                        "{kind}, {} faults, chunk {chunk}, top-up {}",
                        universe.len(),
                        builder.podem_top_up
                    );
                    let suite = TestSuiteBuilder { chunk, ..builder }.build_with(
                        engine.as_ref(),
                        &circuit,
                        &universe,
                    );
                    if builder.podem_top_up {
                        assert!(suite.deterministic_patterns > 0, "{label}");
                    } else {
                        assert_eq!(suite.patterns.len(), 200, "{label}");
                    }
                    assert_matches_one_run(&suite, engine.as_ref(), &universe, &label);
                }
            }
        }
    }
}

#[test]
fn the_line_suite_matches_one_run_at_one_and_two_workers() {
    let circuit = Session::reproduction_circuit(false);
    let universe = FaultUniverse::full(&circuit);
    let reference = IncrementalSimulator::new(&circuit);
    for workers in [1, 2] {
        let session = Session::new(
            RunConfig::default()
                .with_engine(EngineKind::Incremental)
                .with_workers(workers),
        );
        let suite = session.line_suite_builder(&circuit).build_cached(
            Some(session.context()),
            Some(session.good_machine_cache()),
            &circuit,
            &universe,
        );
        assert_matches_one_run(&suite, &reference, &universe, &format!("{workers} workers"));
    }
}

/// Delegates to the incremental engine and records the universe and the
/// pattern count of every run.
struct CountingSimulator<'c> {
    engine: IncrementalSimulator<'c>,
    runs: RefCell<Vec<(Vec<Fault>, usize)>>,
}

impl FaultSimulator for CountingSimulator<'_> {
    fn name(&self) -> &'static str {
        "counting"
    }

    fn run(&self, universe: &FaultUniverse, patterns: &PatternSet) -> FaultList {
        self.runs
            .borrow_mut()
            .push((universe.faults().to_vec(), patterns.len()));
        self.engine.run(universe, patterns)
    }
}

#[test]
fn the_line_suite_simulates_each_pattern_once() {
    let circuit = Session::reproduction_circuit(false);
    let universe = FaultUniverse::full(&circuit);
    let counting = CountingSimulator {
        engine: IncrementalSimulator::new(&circuit),
        runs: RefCell::default(),
    };
    let suite = Session::new(RunConfig::default())
        .line_suite_builder(&circuit)
        .build_with(&counting, &circuit, &universe);
    let runs = counting.runs.into_inner();

    let pattern_counts: Vec<usize> = runs.iter().map(|&(_, count)| count).collect();
    assert_eq!(pattern_counts, [64, 64, 64]);
    assert_eq!(suite.patterns.len(), 192);

    // Run `i` sees exactly the faults the first `64 i` patterns leave
    // undetected, in universe order.
    let reference = IncrementalSimulator::new(&circuit).run(&universe, &suite.patterns);
    assert_eq!(runs[0].0.len(), 12_114);
    for (run, (faults, _)) in runs.iter().enumerate() {
        let undetected: Vec<Fault> = reference
            .iter()
            .filter(|(_, state)| state.first_pattern().is_none_or(|first| first >= 64 * run))
            .map(|(&fault, _)| fault)
            .collect();
        assert_eq!(faults, &undetected, "run {run}");
    }
}

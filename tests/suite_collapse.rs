//! Golden test for collapsing inside the suite builder's engine.
//!
//! The deductive oracle partitions the fault universe it is handed into
//! structural equivalence classes and simulates one representative per
//! class; the default incremental engine propagates fanout-free-region
//! stems and collapses nothing.  Because equivalent faults are detected by
//! exactly the same patterns, collapsing must be *invisible*: this test
//! pins the reported coverages to their pre-collapsing golden values and
//! requires byte-identical suites from the deductive engine with its
//! collapsing on and off, and from the incremental engine.

use lsi_quality::fault::deductive::DeductiveSimulator;
use lsi_quality::fault::incremental::IncrementalSimulator;
use lsi_quality::fault::simulator::FaultSimulator;
use lsi_quality::fault::universe::FaultUniverse;
use lsi_quality::netlist::library;
use lsi_quality::tpg::suite::TestSuiteBuilder;

#[test]
fn collapsed_suite_coverages_match_the_golden_values() {
    // Golden numbers recorded before collapsing became the default.
    let cases = [
        ("c17", library::c17(), 32usize, 46usize, 1.0),
        ("alu4", library::alu4(), 64, 466, 0.978_991_596_638_655),
    ];
    for (name, circuit, patterns, detected, coverage) in cases {
        let universe = FaultUniverse::full(&circuit);
        let suite = TestSuiteBuilder::default().build(&circuit, &universe);
        assert_eq!(suite.patterns.len(), patterns, "{name}");
        assert_eq!(suite.fault_list.detected_count(), detected, "{name}");
        assert!(
            (suite.coverage() - coverage).abs() < 1e-12,
            "{name}: coverage {} != golden {coverage}",
            suite.coverage()
        );
    }
}

#[test]
fn collapse_on_and_off_agree_on_every_engine() {
    let circuit = library::alu4();
    let builder = TestSuiteBuilder::default();
    for universe in [
        FaultUniverse::full(&circuit),
        FaultUniverse::checkpoint(&circuit),
    ] {
        let raw = builder.build_with(
            &DeductiveSimulator::new(&circuit).with_collapsing(false),
            &circuit,
            &universe,
        );
        let engines: [&dyn FaultSimulator; 2] = [
            &DeductiveSimulator::new(&circuit),
            &IncrementalSimulator::new(&circuit),
        ];
        for engine in engines {
            let name = engine.name();
            let suite = builder.build_with(engine, &circuit, &universe);
            assert_eq!(suite.patterns, raw.patterns, "{name}");
            assert_eq!(suite.fault_list, raw.fault_list, "{name}");
            assert_eq!(suite.coverage_curve, raw.coverage_curve, "{name}");
            assert_eq!(suite.dictionary, raw.dictionary, "{name}");
        }
    }
}

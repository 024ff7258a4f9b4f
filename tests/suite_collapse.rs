//! Golden test for collapsing inside the suite builder's engine.
//!
//! The collapsing engines (incremental, the default, and deductive)
//! partition the fault universe they are handed into structural
//! equivalence classes and simulate one representative per class.  Because
//! equivalent faults are detected by exactly the same patterns, the
//! optimisation must be *invisible*: this test pins the reported coverages
//! to their pre-collapsing golden values and requires byte-identical suites
//! from each collapsing engine with its collapsing on and off.

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
        let pairs: [(&dyn FaultSimulator, &dyn FaultSimulator); 2] = [
            (
                &IncrementalSimulator::new(&circuit),
                &IncrementalSimulator::new(&circuit).with_collapsing(false),
            ),
            (
                &DeductiveSimulator::new(&circuit),
                &DeductiveSimulator::new(&circuit).with_collapsing(false),
            ),
        ];
        for (collapsing, raw) in pairs {
            let engine = collapsing.name();
            let collapsed = builder.build_with(collapsing, &circuit, &universe);
            let raw = builder.build_with(raw, &circuit, &universe);
            assert_eq!(collapsed.patterns, raw.patterns, "{engine}");
            assert_eq!(collapsed.fault_list, raw.fault_list, "{engine}");
            assert_eq!(collapsed.coverage_curve, raw.coverage_curve, "{engine}");
            assert_eq!(collapsed.dictionary, raw.dictionary, "{engine}");
        }
    }
}

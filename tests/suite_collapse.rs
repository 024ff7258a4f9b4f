//! Golden test for collapsing around the suite builder's engines.
//!
//! No engine collapses: the suite hands its engine the universe it reports
//! on, and the serial and deductive oracles and the incremental engine each
//! simulate every fault of it.  Because equivalent faults are detected by
//! exactly the same patterns, collapsing must be *invisible*: this test
//! pins the reported coverages to their pre-collapsing golden values,
//! requires byte-identical suites from every engine, and requires every
//! engine's run over `collapse_equivalence`'s representatives, credited to
//! each member, to reproduce the suite's fault list.

use lsi_quality::fault::collapse::collapse_equivalence;
use lsi_quality::fault::simulator::{BuildEngine, EngineKind};
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
    let equivalence = collapse_equivalence(&circuit);
    let full = FaultUniverse::full(&circuit);
    for universe in [
        FaultUniverse::full(&circuit),
        FaultUniverse::checkpoint(&circuit),
    ] {
        let reference = builder.build(&circuit, &universe);
        for kind in EngineKind::ALL {
            let engine = kind.build(&circuit);
            let suite = builder.build_with(engine.as_ref(), &circuit, &universe);
            assert_eq!(suite.patterns, reference.patterns, "{kind}");
            assert_eq!(suite.fault_list, reference.fault_list, "{kind}");
            assert_eq!(suite.coverage_curve, reference.coverage_curve, "{kind}");
            assert_eq!(suite.dictionary, reference.dictionary, "{kind}");

            // Collapse on: one run over the representatives, each fault
            // taking its class's first detection.
            let collapsed = engine.run(&equivalence.collapsed, &suite.patterns);
            for (index, fault) in universe.iter().enumerate() {
                let position = full
                    .position(fault)
                    .expect("every fault is in the full universe");
                assert_eq!(
                    suite.fault_list.state(index),
                    collapsed.state(equivalence.representative_of[position]),
                    "{kind}: fault {}",
                    fault.describe(&circuit)
                );
            }
        }
    }
}

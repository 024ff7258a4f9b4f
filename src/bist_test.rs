//! Tests of the BIST wafer test, where the self-test meets the lot tester.
//!
//! A self-tested chip is observed only at signature readouts, once per
//! session.  The tester sees that through the self-test's readout
//! dictionary (`SignatureDictionary::readout_dictionary`): a chip fails at
//! the readout of its earliest failing session, and a chip whose faults
//! all alias ships.  `lsiq-bist` and `lsiq-manufacturing` do not depend on
//! each other, so their composition, which `Session::run_production_line`
//! runs under `TestMode::Bist`, is tested here.

mod tests {
    use crate::bist::signature::{BistPlan, SignatureDictionary};
    use crate::bist::stumps::{StumpsConfig, StumpsGenerator};
    use crate::exec::ExecutionContext;
    use crate::fault::universe::FaultUniverse;
    use crate::manufacturing::chip::Chip;
    use crate::manufacturing::lot::ModelLotConfig;
    use crate::manufacturing::pipeline::ParallelLotRunner;
    use crate::manufacturing::tester::TestRecord;
    use crate::netlist::library;
    use crate::sim::pattern::{Pattern, PatternSet};

    fn c17_dictionary(patterns: &PatternSet, plan: BistPlan) -> SignatureDictionary {
        let circuit = library::c17();
        let universe = FaultUniverse::full(&circuit);
        SignatureDictionary::build_in(
            &ExecutionContext::new(1),
            &circuit,
            &universe,
            patterns,
            &plan,
        )
    }

    /// A 16-bit signature over 8-pattern sessions of c17's 32 exhaustive
    /// patterns: four readouts, and no fault aliases.
    fn strong_self_test() -> SignatureDictionary {
        let patterns: PatternSet = (0..32).map(|v| Pattern::from_integer(v, 5)).collect();
        c17_dictionary(
            &patterns,
            BistPlan {
                session_len: 8,
                signature_width: 16,
            },
        )
    }

    /// A seeded lot of `chips` over the self-test's faults, tested against
    /// its readout dictionary over `patterns` applied patterns.
    fn tested_lot(
        signatures: &SignatureDictionary,
        patterns: usize,
        chips: usize,
    ) -> (Vec<Chip>, Vec<TestRecord>) {
        let runner = ParallelLotRunner::default();
        let lot = runner.generate_model_lot(&ModelLotConfig {
            chips,
            yield_fraction: 0.4,
            n0: 3.0,
            fault_universe_size: signatures.len(),
            seed: 5,
        });
        let records = runner.test_lot(&signatures.readout_dictionary(patterns), &lot);
        (lot.chips().to_vec(), records)
    }

    #[test]
    fn good_chips_pass_and_are_not_escapes() {
        let signatures = strong_self_test();
        assert_eq!(signatures.sessions(), 4);
        let (chips, records) = tested_lot(&signatures, 32, 200);
        let good: Vec<&TestRecord> = records.iter().filter(|r| !r.is_defective).collect();
        assert_eq!(good.len(), chips.iter().filter(|c| c.is_good()).count());
        assert!(!good.is_empty());
        assert!(good.iter().all(|r| r.passed() && !r.is_escape()));
    }

    #[test]
    fn defective_chips_fail_at_their_earliest_fault_session() {
        let signatures = strong_self_test();
        let (chips, records) = tested_lot(&signatures, 32, 200);
        for (chip, record) in chips.iter().zip(&records) {
            let session = chip
                .fault_indices()
                .iter()
                .filter_map(|&fault| signatures.first_failing_session(fault))
                .min();
            let readout = session.map(|s| (s + 1) * 8 - 1);
            assert_eq!(record.first_fail, readout, "chip {}", chip.id());
        }
        // Some chips first fail at a later readout than the first.
        assert!(records.iter().any(|r| r.first_fail > Some(7)));
    }

    #[test]
    fn lot_testing_preserves_order_and_rejects_all_defectives() {
        let (_, records) = tested_lot(&strong_self_test(), 32, 200);
        assert_eq!(records.len(), 200);
        for (index, record) in records.iter().enumerate() {
            assert_eq!(record.chip_id, index);
        }
        // The exhaustive 16-bit self-test aliases nothing on c17, so every
        // defective chip fails and every good chip passes.
        assert!(records.iter().all(|r| r.passed() != r.is_defective));
    }

    #[test]
    fn session_records_convert_to_pattern_records() {
        // Fault 0 first fails session 2; fault 1 is undetected.
        let session_two = |sessions| {
            SignatureDictionary::from_parts(
                8,
                16,
                vec![0; sessions],
                vec![Some(2), None],
                vec![true, false],
            )
        };
        // Session 2 of 8-pattern sessions completes at pattern index 23; in
        // a 20-pattern test it is the trailing partial session, read out at
        // the last applied pattern.
        for (sessions, patterns, readout) in [(4, 32, 23), (3, 20, 19)] {
            let (chips, records) = tested_lot(&session_two(sessions), patterns, 60);
            for (chip, record) in chips.iter().zip(&records) {
                assert_eq!(record.chip_id, chip.id());
                assert_eq!(record.is_defective, !chip.is_good());
                let fails = chip.fault_indices().contains(&0);
                assert_eq!(record.first_fail, fails.then_some(readout));
            }
            assert!(records.iter().any(|r| r.first_fail == Some(readout)));
            assert!(records.iter().any(TestRecord::is_escape));
        }
    }

    #[test]
    fn narrow_signatures_can_ship_defective_chips() {
        // A 4-bit signature over one 32-pattern session of STUMPS patterns
        // aliases some c17 faults; a chip carrying only those escapes.
        let patterns = StumpsGenerator::new(&StumpsConfig::with_width(5, 7)).generate(32);
        let signatures = c17_dictionary(
            &patterns,
            BistPlan {
                session_len: 32,
                signature_width: 4,
            },
        );
        let aliased = signatures.aliased_indices();
        assert!(!aliased.is_empty());
        assert_eq!(
            signatures.signature_detected_count() + aliased.len(),
            signatures.raw_detected_count()
        );
        let readouts = signatures.readout_dictionary(32);
        for &fault in &aliased {
            assert_eq!(readouts.first_failure_of_chip(&[fault]), None);
        }
        let (chips, records) = tested_lot(&signatures, 32, 400);
        for (chip, record) in chips.iter().zip(&records) {
            let caught = chip
                .fault_indices()
                .iter()
                .any(|&fault| signatures.first_failing_session(fault).is_some());
            assert_eq!(record.is_escape(), !chip.is_good() && !caught);
        }
        let aliased_only = |chip: &Chip| {
            let faults = chip.fault_indices();
            !faults.is_empty() && faults.iter().all(|fault| aliased.contains(fault))
        };
        assert!(chips.iter().any(aliased_only));
    }
}

//! Golden-number tests for MISR aliasing.
//!
//! A single-session self-test of 192 STUMPS patterns over the alu4 library
//! circuit, seeded with the reproduction's 1981, is fully deterministic;
//! these tests pin its exact aliasing outcome at signature widths 4, 8 and
//! 16 and compare the empirical per-detected-fault aliasing probability with
//! the classical `2^−k` estimate.  Any change to the LFSR polynomials, the
//! phase shifter, the MISR fold or the dictionary build shows up here as a
//! changed golden number.

use lsi_quality::bist::aliasing::AliasingReport;
use lsi_quality::bist::signature::{BistPlan, SignatureDictionary};
use lsi_quality::bist::stumps::{StumpsConfig, StumpsGenerator};
use lsi_quality::exec::{ExecutionContext, LaneWidth};
use lsi_quality::fault::dictionary::FaultDictionary;
use lsi_quality::fault::incremental::IncrementalSimulator;
use lsi_quality::fault::simulator::FaultSimulator;
use lsi_quality::fault::universe::FaultUniverse;
use lsi_quality::netlist::library;
use lsi_quality::sim::pattern::PatternSet;

/// The shared programme: 192 scan loads on alu4 from the reference STUMPS
/// geometry.
fn fixture() -> (
    lsi_quality::netlist::circuit::Circuit,
    FaultUniverse,
    PatternSet,
) {
    let circuit = library::alu4();
    let universe = FaultUniverse::full(&circuit);
    let patterns = StumpsGenerator::new(&StumpsConfig {
        width: circuit.primary_inputs().len(),
        channels: 4,
        degree: 64,
        seed: 1981,
    })
    .generate(192);
    (circuit, universe, patterns)
}

#[test]
fn empirical_aliasing_tracks_the_two_to_minus_k_estimate() {
    let (circuit, universe, patterns) = fixture();
    let context = ExecutionContext::new(2);
    // One session spanning the whole test: every detected fault gets exactly
    // one readout, so the per-fault aliasing probability is directly
    // comparable to the per-readout 2^-k estimate.
    let dictionaries = SignatureDictionary::build_sweep_cached(
        &context,
        &circuit,
        &universe,
        &patterns,
        patterns.len(),
        &[4, 8, 16],
        &[patterns.len()],
        LaneWidth::Auto,
        None,
    )
    .swap_remove(0);

    // Golden numbers (pinned): 476 faults, 466 detected by the pattern set.
    assert_eq!(universe.len(), 476);
    let golden_aliased = [(4u32, 50usize), (8, 0), (16, 0)];
    for (dictionary, (width, aliased)) in dictionaries.iter().zip(golden_aliased) {
        let report = AliasingReport::from_dictionary(dictionary);
        assert_eq!(dictionary.signature_width(), width);
        assert_eq!(report.raw_detected, 466, "k = {width}");
        assert_eq!(report.aliased, aliased, "k = {width}");
        assert_eq!(
            report.signature_detected,
            report.raw_detected - aliased,
            "k = {width}"
        );
        assert!(report.effective_coverage() <= report.raw_coverage());
    }

    // The k = 4 empirical probability must be the right order of magnitude:
    // within a factor of 4 of 2^-4 (50/466 ≈ 0.107 vs 0.0625).
    let narrow = AliasingReport::from_dictionary(&dictionaries[0]);
    let ratio = narrow.aliasing_fraction() / narrow.estimated_aliasing_fraction();
    assert!(
        (0.25..4.0).contains(&ratio),
        "k = 4 empirical/estimate ratio {ratio}"
    );
    // Wider registers alias (weakly) less; at 466 detected faults the
    // expected counts at k = 8 and 16 are ~1.8 and ~0.007.
    let counts: Vec<usize> = dictionaries
        .iter()
        .map(|d| AliasingReport::from_dictionary(d).aliased)
        .collect();
    assert!(counts[1] <= counts[0]);
    assert!(counts[2] <= 1, "k = 16 aliased {} faults", counts[2]);
}

#[test]
fn aliasing_goldens_hold_at_every_lane_width() {
    use lsi_quality::exec::LaneWidth;
    use lsi_quality::sim::cache::GoodMachineCache;

    // The same single-session programme as the golden test above, built at
    // every explicit lane width through the cached sweep path.  Lane width
    // is a throughput knob: the aliased counts must match the pinned
    // goldens exactly, and the coverage fractions to 1e-9.
    let (circuit, universe, patterns) = fixture();
    let context = ExecutionContext::new(2);
    let golden_aliased = [(4u32, 50usize), (8, 0), (16, 0)];
    let cache = GoodMachineCache::new();
    for lanes in LaneWidth::EXPLICIT {
        let dictionaries = SignatureDictionary::build_sweep_cached(
            &context,
            &circuit,
            &universe,
            &patterns,
            patterns.len(),
            &[4, 8, 16],
            &[patterns.len()],
            lanes,
            Some(&cache),
        )
        .pop()
        .expect("one length row");
        for (dictionary, (width, aliased)) in dictionaries.iter().zip(golden_aliased) {
            let report = AliasingReport::from_dictionary(dictionary);
            assert_eq!(dictionary.signature_width(), width, "lanes = {lanes}");
            assert_eq!(report.raw_detected, 466, "lanes = {lanes}, k = {width}");
            assert_eq!(report.aliased, aliased, "lanes = {lanes}, k = {width}");
            assert!(
                (report.raw_coverage() - 466.0 / 476.0).abs() < 1e-9,
                "lanes = {lanes}, k = {width}: raw coverage {}",
                report.raw_coverage()
            );
            assert!(
                (report.effective_coverage() - (466 - aliased) as f64 / 476.0).abs() < 1e-9,
                "lanes = {lanes}, k = {width}: effective coverage {}",
                report.effective_coverage()
            );
        }
    }
    // Three lane widths over one shared cache: the first build fills it,
    // the later ones still miss (a different lane width keys differently)
    // but the per-width replays within each build hit.
    assert!(cache.misses() > 0, "cache never filled");
}

#[test]
fn signature_sessions_never_precede_response_differences() {
    // A signature can flag a fault no earlier than its first response
    // difference: the per-fault first failing session is bounded below by
    // the fault dictionary's quantised first failing pattern, with equality
    // whenever no in-session aliasing delays the readout.
    let (circuit, universe, patterns) = fixture();
    let context = ExecutionContext::new(2);
    let session_len = 16;
    let signatures = SignatureDictionary::build_in(
        &context,
        &circuit,
        &universe,
        &patterns,
        &BistPlan {
            session_len,
            signature_width: 16,
        },
    );
    let list = IncrementalSimulator::new(&circuit).run(&universe, &patterns);
    let responses = FaultDictionary::from_fault_list(&list);

    let mut equal = 0usize;
    let mut delayed = 0usize;
    let mut masked = 0usize;
    for index in 0..universe.len() {
        let ideal = responses.first_failing_session(index, session_len);
        let actual = signatures.first_failing_session(index);
        match (ideal, actual) {
            (Some(a), Some(b)) if a == b => equal += 1,
            (Some(a), Some(b)) => {
                assert!(
                    b > a,
                    "fault {index}: signature fails before responses differ"
                );
                delayed += 1;
            }
            (Some(_), None) => masked += 1,
            (None, None) => {}
            (None, Some(session)) => {
                panic!(
                    "fault {index}: signature failed at session {session} with identical responses"
                )
            }
        }
        assert_eq!(signatures.is_raw_detected(index), ideal.is_some());
    }
    // Golden: of the 466 detected faults, 465 fail at the ideal session,
    // one is delayed by in-session aliasing, none are fully masked at
    // k = 16 over 12 sessions.
    assert_eq!((equal, delayed, masked), (465, 1, 0));
}

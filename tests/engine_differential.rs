//! Seeded differential property test across every fault-simulation engine.
//!
//! Each case draws a random netlist (`netlist::generator::random`) and a
//! pattern set from one of two differently structured sources (uniform
//! random or LFSR), then requires the serial, deductive and incremental
//! engines to report *byte-identical* detection results — the full
//! [`FaultList`], i.e. the first detecting pattern of every fault — with
//! and without fault dropping, on full, equivalence-collapsed and
//! checkpoint fault universes, and for the deductive and incremental engines
//! additionally with their internal collapsing disabled.
//!
//! The case count is 100 in release builds (the CI release-test and
//! bench-smoke jobs); debug builds run a reduced sweep so plain `cargo test`
//! stays fast.

use lsi_quality::bist::lfsr::GaloisLfsr;
use lsi_quality::exec::ExecutionContext;
use lsi_quality::fault::collapse::collapse_equivalence;
use lsi_quality::fault::deductive::DeductiveSimulator;
use lsi_quality::fault::incremental::IncrementalSimulator;
use lsi_quality::fault::list::FaultList;
use lsi_quality::fault::model::{Fault, StuckValue};
use lsi_quality::fault::simulator::{BuildEngine, EngineKind, EngineOptions, FaultSimulator};
use lsi_quality::fault::universe::FaultUniverse;
use lsi_quality::netlist::circuit::Circuit;
use lsi_quality::netlist::generator::{
    binary_counter, pipelined_datapath, random_circuit, sequence_detector, RandomCircuitConfig,
};
use lsi_quality::netlist::scan::insert_scan;
use lsi_quality::sim::pattern::{Pattern, PatternSet};
use lsi_quality::stats::rng::{Rng, SplitMix64, Xoshiro256StarStar};

#[cfg(debug_assertions)]
const CASES: u64 = 12;
#[cfg(not(debug_assertions))]
const CASES: u64 = 100;

/// The incremental engine as a session builds it: bound to `context`.
fn pooled_incremental<'c>(
    context: &'c ExecutionContext,
    circuit: &'c Circuit,
) -> Box<dyn FaultSimulator + 'c> {
    EngineKind::Incremental.build_configured(
        circuit,
        &EngineOptions {
            context: Some(context),
            ..EngineOptions::default()
        },
    )
}

/// `count` patterns of `width` bits read serially from a degree-64
/// maximal-length Galois LFSR, one register step per bit, as an LFSR
/// feeding a single scan chain would apply them.
fn lfsr_patterns(width: usize, seed: u64, count: usize) -> PatternSet {
    let mut register = GaloisLfsr::maximal(64, seed);
    (0..count)
        .map(|_| Pattern::from_bits((0..width).map(|_| register.next_bit())))
        .collect()
}

fn cores() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// One generated scenario: a circuit, a fault universe and a pattern set.
struct Case {
    label: String,
    circuit: Circuit,
    patterns: PatternSet,
}

/// Deterministically derives case `index` from the suite seed.
fn build_case(index: u64) -> Case {
    let mut rng = SplitMix64::seed_from_u64(0x0198_1DAC ^ index);
    let inputs = 5 + (rng.next_u64() % 8) as usize; // 5..=12
    let gates = 20 + (rng.next_u64() % 100) as usize; // 20..=119
    let max_fanin = 2 + (rng.next_u64() % 3) as usize; // 2..=4
    let locality = 4 + (rng.next_u64() % 40) as usize;
    let circuit = random_circuit(&RandomCircuitConfig {
        inputs,
        gates,
        max_fanin,
        locality,
        seed: rng.next_u64(),
    });
    let pattern_count = 16 + (rng.next_u64() % 49) as usize; // 16..=64
    let (source, patterns) = if index % 2 == 0 {
        let mut pattern_rng = Xoshiro256StarStar::seed_from_u64(rng.next_u64());
        let patterns = (0..pattern_count)
            .map(|_| Pattern::from_bits((0..inputs).map(|_| pattern_rng.next_bool(0.5))))
            .collect();
        ("random", patterns)
    } else {
        ("lfsr", lfsr_patterns(inputs, rng.next_u64(), pattern_count))
    };
    Case {
        label: format!(
            "case {index}: {inputs} inputs, {gates} gates, {pattern_count} {source} patterns"
        ),
        circuit,
        patterns,
    }
}

/// The fault universes every case is replayed against: the paper's full
/// (uncollapsed) universe, the equivalence-collapsed universe, and the
/// classical checkpoint set (which is input-pin-fault heavy).
fn universes(circuit: &Circuit) -> Vec<(&'static str, FaultUniverse)> {
    vec![
        ("full", FaultUniverse::full(circuit)),
        ("collapsed", collapse_equivalence(circuit).collapsed),
        ("checkpoint", FaultUniverse::checkpoint(circuit)),
    ]
}

/// Runs every engine over one (universe, patterns) input and demands
/// byte-identical `FaultList`s.
fn assert_engines_identical(case: &Case, universe_name: &str, universe: &FaultUniverse) {
    for fault_dropping in [true, false] {
        let mut reference: Option<(String, FaultList)> = None;
        let mut check = |name: String, list: FaultList| match &reference {
            None => reference = Some((name, list)),
            Some((reference_name, reference_list)) => {
                assert_eq!(
                    reference_list, &list,
                    "{}, {universe_name} universe, dropping={fault_dropping}: \
                     {name} disagrees with {reference_name}",
                    case.label
                );
            }
        };
        for kind in EngineKind::ALL {
            let engine = kind.build_configured(
                &case.circuit,
                &EngineOptions {
                    fault_dropping,
                    ..EngineOptions::default()
                },
            );
            check(
                kind.name().to_string(),
                engine.run(universe, &case.patterns),
            );
        }
        let uncollapsed = DeductiveSimulator::new(&case.circuit)
            .with_fault_dropping(fault_dropping)
            .with_collapsing(false);
        check(
            "deductive(uncollapsed)".to_string(),
            uncollapsed.run(universe, &case.patterns),
        );
        let incremental_uncollapsed = IncrementalSimulator::new(&case.circuit)
            .with_fault_dropping(fault_dropping)
            .with_collapsing(false);
        check(
            "incremental(uncollapsed)".to_string(),
            incremental_uncollapsed.run(universe, &case.patterns),
        );
    }
}

#[test]
fn engines_agree_on_seeded_random_cases() {
    let mut nonempty_detections = 0usize;
    for index in 0..CASES {
        let case = build_case(index);
        for (universe_name, universe) in universes(&case.circuit) {
            assert_engines_identical(&case, universe_name, &universe);
            // Keep a pulse on test strength: the sweep must actually detect
            // faults, not vacuously compare empty lists.
            let detected = EngineKind::Deductive
                .build(&case.circuit)
                .run(&universe, &case.patterns)
                .detected_count();
            if detected > 0 {
                nonempty_detections += 1;
            }
        }
    }
    assert!(
        nonempty_detections as u64 >= 3 * CASES - CASES / 2,
        "suspiciously many empty detection sets: {nonempty_detections}"
    );
}

#[test]
fn engines_agree_on_scan_expanded_sequential_devices() {
    // Time-frame-expanded scan devices: scan insertion turns a sequential
    // circuit into its capture-mode *test view*, where one pattern is one
    // full scan-in/capture/scan-out cycle — a combinational circuit every
    // engine can simulate unchanged.  All three engines (plus the
    // uncollapsed deductive/incremental variants) must stay byte-identical
    // on the expanded universes, including a dedicated scan-path universe
    // of stuck-at faults on the shift/capture multiplexer gates, and the
    // incremental engine must stay invariant at 1, 2 and 2×cores workers.
    let contexts: Vec<ExecutionContext> = [1, 2, 2 * cores()].map(ExecutionContext::new).into();
    let devices: Vec<(&str, Circuit, usize)> = vec![
        ("counter8", binary_counter(8), 1),
        ("detector", sequence_detector(&[true, false, true, true]), 2),
        ("datapath8", pipelined_datapath(8), 3),
    ];
    for (name, sequential, chains) in devices {
        let scan = insert_scan(&sequential, chains).expect("chains fit the state elements");
        let case = Case {
            label: format!("scan {name} ({chains} chains)"),
            circuit: scan.test_view().clone(),
            patterns: lfsr_patterns(
                scan.test_view().primary_inputs().len(),
                0x5C4A ^ chains as u64,
                48,
            ),
        };
        for (universe_name, universe) in universes(&case.circuit) {
            assert_engines_identical(&case, universe_name, &universe);
        }
        // The scan path as its own fault-universe axis: every shift/capture
        // gate the insertion added, stuck both ways.
        let scan_path = FaultUniverse::from_faults(
            scan.scan_path_gates()
                .iter()
                .flat_map(|&gate| {
                    StuckValue::BOTH
                        .into_iter()
                        .map(move |stuck| Fault::output(gate, stuck))
                })
                .collect(),
        );
        assert!(!scan_path.is_empty());
        assert_engines_identical(&case, "scan-path", &scan_path);
        let reference = EngineKind::Serial
            .build(&case.circuit)
            .run(&scan_path, &case.patterns);
        assert!(
            reference.detected_count() > 0,
            "{}: no scan-path fault detected",
            case.label
        );
        for context in &contexts {
            let pooled = pooled_incremental(context, &case.circuit).run(&scan_path, &case.patterns);
            assert_eq!(
                reference,
                pooled,
                "{}, {} workers",
                case.label,
                context.workers()
            );
        }
    }
}

#[test]
fn incremental_engine_on_explicit_contexts_matches_the_reference() {
    // The Session-era API: the incremental engine bound to a persistent
    // ExecutionContext pool must stay byte-identical to the serial
    // reference at 1, 2 and 2×cores workers — the pool is reused across
    // every case, exactly like a session reuses it across sweep points.
    let contexts: Vec<ExecutionContext> = [1, 2, 2 * cores()].map(ExecutionContext::new).into();
    let case_count = CASES.min(12);
    for index in 0..case_count {
        let case = build_case(index);
        let universe = FaultUniverse::full(&case.circuit);
        let reference = EngineKind::Serial
            .build(&case.circuit)
            .run(&universe, &case.patterns);
        for context in &contexts {
            let pooled = IncrementalSimulator::new(&case.circuit)
                .with_context(context)
                .run(&universe, &case.patterns);
            assert_eq!(
                reference,
                pooled,
                "{}, {} workers",
                case.label,
                context.workers()
            );
            let built = pooled_incremental(context, &case.circuit).run(&universe, &case.patterns);
            assert_eq!(
                reference,
                built,
                "build_configured: {}, {} workers",
                case.label,
                context.workers()
            );
        }
    }
}

#[test]
fn incremental_engine_matches_deductive_everywhere() {
    // The incremental engine's dedicated differential block: byte-identical
    // to the deductive oracle on the full, equivalence-collapsed and
    // checkpoint universes, with and without fault dropping, with and
    // without its internal collapsing, and sharded across explicit worker
    // pools.  Deductive is the oracle because its algorithm shares nothing
    // with event-driven cone propagation — agreement is two independent
    // derivations of the same answer.
    let contexts: Vec<ExecutionContext> = [1, 3].map(ExecutionContext::new).into();
    let case_count = CASES.min(16);
    for index in 0..case_count {
        let case = build_case(index);
        for (universe_name, universe) in universes(&case.circuit) {
            for fault_dropping in [true, false] {
                let oracle = DeductiveSimulator::new(&case.circuit)
                    .with_fault_dropping(fault_dropping)
                    .run(&universe, &case.patterns);
                for collapse in [true, false] {
                    let list = IncrementalSimulator::new(&case.circuit)
                        .with_fault_dropping(fault_dropping)
                        .with_collapsing(collapse)
                        .run(&universe, &case.patterns);
                    assert_eq!(
                        oracle, list,
                        "{}, {universe_name} universe, dropping={fault_dropping}, \
                         collapse={collapse}",
                        case.label
                    );
                }
                for context in &contexts {
                    let pooled = IncrementalSimulator::new(&case.circuit)
                        .with_fault_dropping(fault_dropping)
                        .with_context(context)
                        .run(&universe, &case.patterns);
                    assert_eq!(
                        oracle,
                        pooled,
                        "{}, {universe_name} universe, dropping={fault_dropping}, \
                         {} workers",
                        case.label,
                        context.workers()
                    );
                }
            }
        }
    }
}

#[test]
fn lane_widths_and_the_cache_are_invisible_at_every_worker_count() {
    // The invariant of the packed-lane layer: the chunked incremental
    // engine must report byte-identical FaultLists at lanes 1, 4 and 8, at
    // 1, 2 and 2×cores workers, with a shared GoodMachineCache bound — all
    // compared against the serial engine, which knows nothing about lanes
    // or caches.  The cache is shared across the whole matrix, so later
    // runs replay good-machine chunks deposited by earlier ones and must
    // still agree.
    use lsi_quality::exec::LaneWidth;
    use lsi_quality::fault::simulator::EngineOptions;
    use lsi_quality::sim::cache::GoodMachineCache;

    let contexts: Vec<ExecutionContext> = [1, 2, 2 * cores()].map(ExecutionContext::new).into();
    let case_count = CASES.min(8);
    for index in 0..case_count {
        let case = build_case(index);
        let universe = FaultUniverse::full(&case.circuit);
        let reference = EngineKind::Serial
            .build(&case.circuit)
            .run(&universe, &case.patterns);
        let cache = GoodMachineCache::new();
        for lanes in LaneWidth::EXPLICIT {
            for context in &contexts {
                let list = EngineKind::Incremental
                    .build_configured(
                        &case.circuit,
                        &EngineOptions {
                            context: Some(context),
                            lanes,
                            cache: Some(&cache),
                            ..EngineOptions::default()
                        },
                    )
                    .run(&universe, &case.patterns);
                assert_eq!(
                    reference,
                    list,
                    "{}, lanes={lanes}, {} workers",
                    case.label,
                    context.workers()
                );
            }
        }
        assert!(
            cache.misses() > 0 && cache.hits() > 0,
            "{}: the matrix must both populate and replay the cache \
             (misses={}, hits={})",
            case.label,
            cache.misses(),
            cache.hits()
        );
    }
}

#[test]
fn coverage_curve_default_impl_is_engine_invariant() {
    // FaultSimulator::coverage_curve is a default trait method (run + fold);
    // every engine must produce the identical curve, including the
    // incremental engine on explicit pools.
    let case = build_case(3);
    let universe = FaultUniverse::full(&case.circuit);
    let reference = EngineKind::Serial
        .build(&case.circuit)
        .coverage_curve(&universe, &case.patterns);
    assert_eq!(reference.pattern_count(), case.patterns.len());
    assert!(reference.final_coverage() > 0.0, "vacuous case");
    for kind in EngineKind::ALL {
        let curve = kind
            .build(&case.circuit)
            .coverage_curve(&universe, &case.patterns);
        assert_eq!(reference, curve, "{kind}");
    }
    let context = ExecutionContext::new(2);
    let pooled =
        pooled_incremental(&context, &case.circuit).coverage_curve(&universe, &case.patterns);
    assert_eq!(reference, pooled, "pooled incremental engine");
}

#[test]
fn engines_agree_on_degenerate_inputs() {
    // Zero patterns and an empty universe are valid inputs to every engine.
    let case = build_case(0);
    let universe = FaultUniverse::full(&case.circuit);
    for kind in EngineKind::ALL {
        let engine = kind.build(&case.circuit);
        let no_patterns = engine.run(&universe, &PatternSet::new());
        assert_eq!(no_patterns.detected_count(), 0, "{}", kind.name());
        let no_faults = engine.run(&FaultUniverse::from_faults(Vec::new()), &case.patterns);
        assert!(no_faults.is_empty(), "{}", kind.name());
    }
}

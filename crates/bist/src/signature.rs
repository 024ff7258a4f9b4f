//! Per-fault signature dictionaries.
//!
//! The stored-pattern flow records, per fault, the first *pattern* that
//! detects it ([`FaultDictionary`]).
//! Under BIST the tester only observes MISR readouts, so the per-fault
//! record becomes the first *test session* whose signature differs from the
//! fault-free one — and a fault whose responses differ but whose session
//! signatures never do is *aliased*: detected by the pattern set, shipped by
//! the signature compare.
//!
//! [`SignatureDictionary::build_in`] produces both records for a whole fault
//! universe in one fault-simulation pass, on the
//! [cone kernel](lsiq_fault::cone) the incremental fault engine runs on.
//! The faults are grouped by the stem of their fanout-free region
//! ([`StemPass`]), and the stems are sharded in contiguous ranges across
//! worker threads ([`lsiq_exec::shard_map`]), one range per worker.  Per
//! packed chunk, a stem is propagated once, in the slots where any of its
//! unresolved faults flip it, and returns only the *error* words (good XOR
//! faulty) of the outputs it reaches; each fault's error list is that list
//! ANDed with the fault's mask, zero words dropped.  By the fold's GF(2)
//! linearity (see the [`misr`](crate::misr) module) a session signature
//! mismatches exactly when the error register is non-zero at the readout,
//! so only the error stream is folded.
//!
//! The fold never clocks a register once per pattern.  The MISR step is
//! linear too, so a table-driven step advances each error register across
//! a whole *span* of up to 64 patterns at once, from the span's slice of
//! each reached output's error word.  A span ends at the end of a lane
//! word, at a full-session readout, or at a requested test length that
//! ends mid-session (a *cut*, where the register's verdict is recorded
//! without resetting it).  The fault-free signatures go through the same
//! step.  Faults whose error stream has gone quiet skip whole chunks
//! without touching the register, and a fault leaves the fold once every
//! requested signature width has resolved its first failing session; a
//! stem whose faults have all left is not propagated again.
//!
//! A sweep over a `(test length, signature width)` grid is still one pass.
//! Its product is one compact record set per fault, kept in the pass's
//! stem order: [`SignatureDictionary::build_sweep_reports`] counts every
//! cell's [`AliasingReport`] from it, and
//! [`SignatureDictionary::build_sweep_cached`] lays every cell's
//! dictionary out in universe order.

use crate::aliasing::AliasingReport;
use crate::lfsr::SUPPORTED_DEGREES;
use crate::span_step::{LaneSpan, SpanStep, MAX_SPAN};
use lsiq_exec::{shard_map, ExecutionContext, LaneWidth};
use lsiq_fault::cone::{good_chunks, FanoutRegions, GoodChunk, StemPass};
use lsiq_fault::dictionary::FaultDictionary;
use lsiq_fault::universe::FaultUniverse;
use lsiq_netlist::circuit::Circuit;
use lsiq_obs::{Counter, Span};
use lsiq_sim::cache::GoodMachineCache;
use lsiq_sim::levelized::CompiledCircuit;
use lsiq_sim::packed::PackedBlock;
use lsiq_sim::pattern::PatternSet;

/// One-pass sweeps started (every `build*` entry point funnels here).
static SWEEPS: Counter = Counter::new("bist.sweep.runs");
/// Faults entering a sweep; invariant at any worker count.
static SWEEP_FAULTS: Counter = Counter::new("bist.sweep.faults");
/// Stem propagations: one per stem and chunk in which an unresolved fault
/// of the stem's region flips the stem; invariant at any worker count.
static SWEEP_STEMS: Counter = Counter::new("bist.sweep.stems");
/// `(length, width)` grid cells the sweep resolves.
static SWEEP_CELLS: Counter = Counter::new("bist.sweep.cells");
/// Packing and folding the fault-free machine (once per sweep).
static GOOD_SIGNATURES: Span = Span::new("bist.sweep.good_signatures");
/// Per-shard stem propagation and error-stream folding.
static PROPAGATE: Span = Span::new("bist.sweep.propagate");

/// The readout schedule and signature geometry of one self-test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BistPlan {
    /// Patterns applied between signature readouts; a trailing partial
    /// session is read out too.  Must be at least 1.
    pub session_len: usize,
    /// MISR width `k` (one of
    /// [`SUPPORTED_DEGREES`]).
    pub signature_width: u32,
}

impl Default for BistPlan {
    /// The default self-test geometry: 64-pattern sessions (one packed
    /// simulation block) compacted into a 16-bit signature.
    fn default() -> BistPlan {
        BistPlan {
            session_len: 64,
            signature_width: 16,
        }
    }
}

/// Per-fault first-failing-session and aliasing records for one fault
/// universe under one ordered pattern set and one [`BistPlan`].
///
/// The BIST analogue of [`FaultDictionary`]: its
/// [`readout_dictionary`](Self::readout_dictionary) tells a lot tester at
/// which readout a defective chip first fails, and the [`AliasingReport`]
/// folds its aliased-fault count into the effective-coverage figure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SignatureDictionary {
    session_len: usize,
    sessions: usize,
    signature_width: u32,
    /// Fault-free signature of each session, in session order.
    good: Vec<u64>,
    /// Per fault: the first session whose signature differs from `good`,
    /// or [`UNDETECTED`].
    first_fail: Vec<u32>,
    /// Per fault: whether any output response differs at any applied
    /// pattern (detection by the pattern set, before compaction).
    raw_detected: Vec<bool>,
}

impl SignatureDictionary {
    /// Builds the dictionary for one [`BistPlan`] with the fault shards
    /// split across `context`'s workers (a 1-worker context runs on the
    /// calling thread).  Results are byte-identical at any worker count.
    ///
    /// # Panics
    ///
    /// Panics if `plan.session_len` is 0 or `plan.signature_width` is not a
    /// supported MISR width.
    pub fn build_in(
        context: &ExecutionContext,
        circuit: &Circuit,
        universe: &FaultUniverse,
        patterns: &PatternSet,
        plan: &BistPlan,
    ) -> SignatureDictionary {
        SignatureDictionary::build_sweep_cached(
            context,
            circuit,
            universe,
            patterns,
            plan.session_len,
            &[plan.signature_width],
            &[patterns.len()],
            LaneWidth::Auto,
            None,
        )
        .swap_remove(0)
        .swap_remove(0)
    }

    /// Builds one dictionary per `(test length, signature width)` grid cell
    /// in a *single* fault-simulation pass over the full pattern set.
    ///
    /// Every fault's responses are simulated once and folded into one error
    /// register per width, so the simulation cost is paid once, not per
    /// grid cell.  Each requested length is a prefix of `patterns`, and MISR
    /// sessions are independent (the register resets at every readout), so
    /// one maximum-length simulation determines every prefix: full-session
    /// readouts are shared verbatim, and the only extra state a shorter
    /// test needs is the error register's value at its trailing partial
    /// session — captured as a snapshot when the pass crosses that length
    /// boundary.  The result is indexed `[length][width]` (input order) and
    /// each dictionary is byte-identical to what
    /// [`build_in`](SignatureDictionary::build_in) produces for that width
    /// on the truncated pattern set.  A caller that only counts the cells
    /// asks [`build_sweep_reports`](SignatureDictionary::build_sweep_reports)
    /// instead, which lays out no dictionary.
    ///
    /// The packed lane width is selectable (results are byte-identical at
    /// every width) and an optional shared [`GoodMachineCache`] supplies —
    /// or receives — the per-chunk good-machine images, so a session that
    /// has already simulated the same circuit over the same pattern chunks
    /// (an earlier sweep at the same width) never re-runs the fault-free
    /// machine.
    ///
    /// # Panics
    ///
    /// Panics if `session_len` is 0, `widths` or `lengths` is empty, any
    /// width is not a supported MISR width, or any length exceeds the
    /// pattern set.
    #[allow(clippy::too_many_arguments)]
    pub fn build_sweep_cached(
        context: &ExecutionContext,
        circuit: &Circuit,
        universe: &FaultUniverse,
        patterns: &PatternSet,
        session_len: usize,
        widths: &[u32],
        lengths: &[usize],
        lanes: LaneWidth,
        cache: Option<&GoodMachineCache>,
    ) -> Vec<Vec<SignatureDictionary>> {
        SweepInput {
            context,
            circuit,
            universe,
            patterns,
            session_len,
            widths,
            lengths,
            cache,
        }
        .run(lanes, |records| records.dictionaries())
    }

    /// The [`AliasingReport`] of every `(test length, signature width)`
    /// grid cell, indexed `[length][width]` like
    /// [`build_sweep_cached`](SignatureDictionary::build_sweep_cached)
    /// (same arguments, same single pass, same panics), and equal to
    /// [`AliasingReport::from_dictionary`] of each of its dictionaries.
    ///
    /// The cells are counted straight from the pass's per-fault records:
    /// per width, a histogram of first failing full sessions, and one
    /// histogram of first response differences, answer every length
    /// through prefix sums; only a length that ends mid-session reads the
    /// trailing-session verdicts.  No dictionary is laid out.
    #[allow(clippy::too_many_arguments)]
    pub fn build_sweep_reports(
        context: &ExecutionContext,
        circuit: &Circuit,
        universe: &FaultUniverse,
        patterns: &PatternSet,
        session_len: usize,
        widths: &[u32],
        lengths: &[usize],
        lanes: LaneWidth,
        cache: Option<&GoodMachineCache>,
    ) -> Vec<Vec<AliasingReport>> {
        SweepInput {
            context,
            circuit,
            universe,
            patterns,
            session_len,
            widths,
            lengths,
            cache,
        }
        .run(lanes, |records| records.reports())
    }

    /// Reassembles a dictionary from its recorded parts — the inverse of
    /// the [`good_signatures`](Self::good_signatures) /
    /// [`first_failing_sessions`](Self::first_failing_sessions) /
    /// [`raw_detected_flags`](Self::raw_detected_flags) accessors, used by
    /// artifact stores that persist dictionaries across processes.
    ///
    /// `good` carries one fault-free signature per session (a trailing
    /// partial session included), so `sessions` is taken from its length.
    ///
    /// # Panics
    ///
    /// Panics if `session_len` is 0, `signature_width` is not a supported
    /// MISR width, the per-fault vectors disagree in length, or a fault's
    /// first failing session is not one of the `good.len()` sessions,
    /// belongs to a fault that is not raw-detected (a signature compare
    /// cannot fail where no response differs), or does not fit the
    /// dictionary's `u32` record.  Every built dictionary satisfies these,
    /// so an aliasing count never goes negative.
    pub fn from_parts(
        session_len: usize,
        signature_width: u32,
        good: Vec<u64>,
        first_fail: Vec<Option<usize>>,
        raw_detected: Vec<bool>,
    ) -> SignatureDictionary {
        assert!(session_len >= 1, "a session must apply at least 1 pattern");
        assert!(
            SUPPORTED_DEGREES.contains(&signature_width),
            "no built-in MISR polynomial of width {signature_width}"
        );
        assert_eq!(
            first_fail.len(),
            raw_detected.len(),
            "per-fault records must agree in length"
        );
        let first_fail = first_fail
            .into_iter()
            .zip(&raw_detected)
            .enumerate()
            .map(|(fault, (fail, &raw))| {
                let Some(session) = fail else {
                    return UNDETECTED;
                };
                assert!(
                    session < good.len(),
                    "fault {fault} first fails at session {session} of {}",
                    good.len()
                );
                assert!(
                    raw,
                    "fault {fault} fails session {session} without a response difference"
                );
                u32::try_from(session)
                    .ok()
                    .filter(|&record| record != UNDETECTED)
                    .unwrap_or_else(|| {
                        panic!(
                            "fault {fault}'s first failing session {session} does not fit \
                             the dictionary's u32 record"
                        )
                    })
            })
            .collect();
        SignatureDictionary {
            session_len,
            sessions: good.len(),
            signature_width,
            good,
            first_fail,
            raw_detected,
        }
    }

    /// The fault-free signature of every session, in session order.
    pub fn good_signatures(&self) -> &[u64] {
        &self.good
    }

    /// Per fault, in fault-universe order: the first session whose
    /// signature differs from the fault-free one, or `None` when every
    /// readout matches.  Together with [`from_parts`](Self::from_parts)
    /// this round-trips the dictionary exactly.
    pub fn first_failing_sessions(&self) -> impl ExactSizeIterator<Item = Option<usize>> + '_ {
        self.first_fail.iter().map(|&record| session_of(record))
    }

    /// Per fault: whether any output response differs at any applied
    /// pattern (detection by the pattern set, before compaction).
    pub fn raw_detected_flags(&self) -> &[bool] {
        &self.raw_detected
    }

    /// Number of faults covered by the dictionary.
    pub fn len(&self) -> usize {
        self.first_fail.len()
    }

    /// Returns `true` if the dictionary covers no faults.
    pub fn is_empty(&self) -> bool {
        self.first_fail.is_empty()
    }

    /// Number of test sessions (signature readouts), including a trailing
    /// partial session.
    pub fn sessions(&self) -> usize {
        self.sessions
    }

    /// Patterns applied per full session.
    pub fn session_len(&self) -> usize {
        self.session_len
    }

    /// The MISR width `k`.
    pub fn signature_width(&self) -> u32 {
        self.signature_width
    }

    /// The first session at which fault `index`'s signature differs from the
    /// fault-free one, or `None` if every readout matches (the fault is
    /// undetected — or detected but aliased).
    pub fn first_failing_session(&self, index: usize) -> Option<usize> {
        self.first_fail
            .get(index)
            .and_then(|&record| session_of(record))
    }

    /// Whether fault `index` produces any response difference under the
    /// applied pattern set (detection before compaction).
    pub fn is_raw_detected(&self, index: usize) -> bool {
        self.raw_detected.get(index).copied().unwrap_or(false)
    }

    /// Whether fault `index` is aliased: its responses differ at some
    /// pattern, yet every session signature equals the fault-free one.
    fn is_aliased(&self, index: usize) -> bool {
        self.is_raw_detected(index) && self.first_failing_session(index).is_none()
    }

    /// Indices of the aliased faults.
    pub fn aliased_indices(&self) -> Vec<usize> {
        (0..self.len()).filter(|&i| self.is_aliased(i)).collect()
    }

    /// Number of faults detected by the pattern set (before compaction).
    pub fn raw_detected_count(&self) -> usize {
        self.raw_detected.iter().filter(|&&d| d).count()
    }

    /// Number of faults the signature compare detects (raw detections minus
    /// aliased faults).
    pub fn signature_detected_count(&self) -> usize {
        self.first_fail
            .iter()
            .filter(|&&record| record != UNDETECTED)
            .count()
    }

    /// The self-test as a tester observes it over `pattern_count` applied
    /// patterns: a [`FaultDictionary`] whose record for each fault is the
    /// pattern at which its first failing session is read out,
    /// `(s + 1) · session_len − 1`, clamped to the last pattern for a
    /// trailing partial session.  Undetected and aliased faults have no
    /// record.
    ///
    /// The readout pattern grows with the session, so a chip's earliest
    /// record over its faults
    /// ([`FaultDictionary::first_failure_of_chip`]) is the readout of its
    /// earliest failing session: a lot tested against this dictionary is
    /// rejected exactly where the signature compare would reject it.
    pub fn readout_dictionary(&self, pattern_count: usize) -> FaultDictionary {
        let last = pattern_count.saturating_sub(1);
        // `session_len >= 1`, so the saturated product is at least 1.
        let readout = |session: usize| (session + 1).saturating_mul(self.session_len) - 1;
        FaultDictionary::from_first_patterns(
            self.first_failing_sessions()
                .map(|session| session.map(|session| readout(session).min(last))),
        )
    }
}

/// The `u32` record of a fault no readout (or, for a first response
/// difference, no pattern) catches.  Sessions and patterns are indexed
/// below it: a sweep refuses a pattern set of `u32::MAX` patterns or more.
const UNDETECTED: u32 = u32::MAX;

/// The session a `u32` record stands for.
fn session_of(record: u32) -> Option<usize> {
    (record != UNDETECTED).then_some(record as usize)
}

/// The grid-cell rule, which both views of a sweep call.  Given a fault's
/// first failing full session over the whole pass (`first_full`, or
/// [`UNDETECTED`]), returns its first failing session in a test of
/// `full_sessions` full sessions followed by a trailing partial session
/// whose readout fails when `trailing_fails` (or [`UNDETECTED`]).
///
/// A full-session failure inside the prefix is the answer for every
/// longer length; otherwise the prefix's only remaining readout is its
/// trailing partial session.
fn cell_session(first_full: u32, full_sessions: usize, trailing_fails: bool) -> u32 {
    if (first_full as usize) < full_sessions {
        first_full
    } else if trailing_fails {
        full_sessions as u32
    } else {
        UNDETECTED
    }
}

/// The arguments of one sweep pass (see
/// [`SignatureDictionary::build_sweep_cached`]).
struct SweepInput<'a> {
    context: &'a ExecutionContext,
    circuit: &'a Circuit,
    universe: &'a FaultUniverse,
    patterns: &'a PatternSet,
    session_len: usize,
    widths: &'a [u32],
    lengths: &'a [usize],
    cache: Option<&'a GoodMachineCache>,
}

impl SweepInput<'_> {
    /// Runs the pass at `lanes` and hands its records to `view`.
    fn run<R>(&self, lanes: LaneWidth, view: impl FnOnce(&SweepRecords<'_>) -> R) -> R {
        match lanes.resolve(self.patterns.len()) {
            1 => self.run_lanes::<1, R>(view),
            4 => self.run_lanes::<4, R>(view),
            _ => self.run_lanes::<8, R>(view),
        }
    }

    /// One lane-monomorphized pass.
    fn run_lanes<const L: usize, R>(&self, view: impl FnOnce(&SweepRecords<'_>) -> R) -> R {
        let SweepInput {
            context,
            circuit,
            universe,
            patterns,
            session_len,
            widths,
            lengths,
            cache,
        } = *self;
        assert!(session_len >= 1, "a session must apply at least 1 pattern");
        assert!(!widths.is_empty(), "at least one signature width required");
        assert!(!lengths.is_empty(), "at least one test length required");
        assert!(
            lengths.iter().all(|&length| length <= patterns.len()),
            "test lengths cannot exceed the pattern set"
        );
        assert!(
            patterns.len() < UNDETECTED as usize,
            "a sweep's pattern indices must fit its u32 records"
        );
        SWEEPS.incr();
        SWEEP_CELLS.add((widths.len() * lengths.len()) as u64);
        let good_timer = GOOD_SIGNATURES.start();
        let compiled = CompiledCircuit::new(circuit);
        let chunks = good_chunks::<L>(&compiled, patterns, cache);
        let outputs = circuit.primary_outputs();
        let folds: Vec<WidthFold> = widths
            .iter()
            .map(|&width| WidthFold::new(width, outputs.len()))
            .collect();
        // Only a length that ends mid-session needs a snapshot: its last
        // readout is the register as the pass crosses that length.
        let mut cuts: Vec<usize> = lengths
            .iter()
            .copied()
            .filter(|length| length % session_len != 0)
            .collect();
        cuts.sort_unstable();
        cuts.dedup();

        // Fault-free signatures, folded once up front through the same span
        // step: one signature per *full* session, plus the running register
        // at every cut (used by lengths whose trailing session is partial).
        let mut good_full: Vec<Vec<u64>> = vec![Vec::new(); widths.len()];
        let mut good_partial: Vec<Vec<u64>> = vec![vec![0; cuts.len()]; widths.len()];
        let mut states = vec![0u64; widths.len()];
        let mut schedule = Schedule::new(session_len, &cuts);
        for chunk in &chunks {
            for (lane, span, end) in schedule.spans(chunk.count) {
                for (which, (fold, state)) in folds.iter().zip(&mut states).enumerate() {
                    let mut z = span.carry(*state);
                    for (&out, &lead) in outputs.iter().zip(&fold.leads) {
                        z ^= span.input(chunk.words[out.index()].0[lane], lead);
                    }
                    *state = fold.step.advance(z);
                    if let Some(cut) = end.cut {
                        good_partial[which][cut] = *state;
                    }
                    if end.readout.is_some() {
                        good_full[which].push(*state);
                        *state = 0;
                    }
                }
            }
        }

        drop(good_timer);

        // Group the faults by stem, and shard the stems in contiguous
        // ranges.  The shards come back in stem order, and their records
        // stay in it; only a dictionary view reorders them.
        let faults = universe.faults();
        SWEEP_FAULTS.add(faults.len() as u64);
        let regions = FanoutRegions::new(compiled);
        let pass = StemPass::new(&regions, &chunks, faults);
        let groups = pass.groups();
        let sweep = Sweep {
            pass: &pass,
            chunks: &chunks,
            session_len,
            folds: &folds,
            cuts: &cuts,
        };
        let shards = shard_map(Some(context), groups.len(), MIN_STEMS_PER_SHARD, |range| {
            sweep.simulate_shard(range)
        });
        view(&SweepRecords {
            session_len,
            patterns: patterns.len(),
            widths,
            lengths,
            cuts: &cuts,
            good_full,
            good_partial,
            members: groups.members(0..groups.len()),
            shards,
        })
    }
}

/// One sweep pass's product: the fault-free signatures, and every fault's
/// compact records in the pass's stem order, shard after shard.
///
/// Both views of the grid read these records through
/// [`cell_session`]: [`reports`](Self::reports) counts every cell, and
/// [`dictionaries`](Self::dictionaries) lays every cell out in universe
/// order through the pass's member permutation.
struct SweepRecords<'a> {
    session_len: usize,
    /// Patterns the pass applied.
    patterns: usize,
    widths: &'a [u32],
    lengths: &'a [usize],
    /// Mid-session test lengths, ascending.
    cuts: &'a [usize],
    /// `[width][session]`: the fault-free signature of each full session.
    good_full: Vec<Vec<u64>>,
    /// `[width][cut]`: the fault-free register as the pass crosses a cut.
    good_partial: Vec<Vec<u64>>,
    /// The universe index of every fault, in stem order.
    members: &'a [u32],
    shards: Vec<ShardRecords>,
}

impl SweepRecords<'_> {
    /// A test of `length` patterns: its full sessions, and the cut its
    /// trailing partial session ends on, if it has one.
    fn cell(&self, length: usize) -> (usize, Option<usize>) {
        let cut = (length % self.session_len != 0).then(|| {
            self.cuts
                .binary_search(&length)
                .expect("every mid-session length is a cut")
        });
        (length / self.session_len, cut)
    }

    /// Every cell's [`AliasingReport`], `[length][width]`, counted from the
    /// records (see [`SignatureDictionary::build_sweep_reports`]).
    fn reports(&self) -> Vec<Vec<AliasingReport>> {
        let widths = self.widths.len();
        let cuts = self.cuts.len();
        let full_max = self.patterns / self.session_len;
        // Shifted histograms: entry `i + 1` counts the records equal to
        // `i`, so after the prefix sums entry `n` counts those below `n`.
        let mut first_errors = vec![0usize; self.patterns + 1];
        let mut first_fails = vec![0usize; widths * (full_max + 1)];
        // `[width * cuts + cut]`: faults only the trailing partial session
        // of the test ending at that cut catches.
        let mut trailing = vec![0usize; widths * cuts];
        for shard in &self.shards {
            for &error in &shard.first_error {
                if error != UNDETECTED {
                    first_errors[error as usize + 1] += 1;
                }
            }
            for (record, &session) in shard.first_fail.iter().enumerate() {
                let which = record % widths;
                if session != UNDETECTED {
                    first_fails[which * (full_max + 1) + session as usize + 1] += 1;
                }
                for (cut, &length) in self.cuts.iter().enumerate() {
                    let full_sessions = length / self.session_len;
                    if shard.partial_fails(record * cuts + cut)
                        && cell_session(session, full_sessions, true) as usize == full_sessions
                    {
                        trailing[which * cuts + cut] += 1;
                    }
                }
            }
        }
        prefix_sums(&mut first_errors);
        for histogram in first_fails.chunks_mut(full_max + 1) {
            prefix_sums(histogram);
        }
        self.lengths
            .iter()
            .map(|&length| {
                let (full_sessions, cut) = self.cell(length);
                let raw_detected = first_errors[length];
                self.widths
                    .iter()
                    .enumerate()
                    .map(|(which, &width)| {
                        let signature_detected = first_fails
                            [which * (full_max + 1) + full_sessions]
                            + cut.map_or(0, |cut| trailing[which * cuts + cut]);
                        AliasingReport {
                            universe_size: self.members.len(),
                            raw_detected,
                            signature_detected,
                            aliased: raw_detected - signature_detected,
                            signature_width: width,
                            sessions: length.div_ceil(self.session_len),
                        }
                    })
                    .collect()
            })
            .collect()
    }

    /// Every cell's dictionary, `[length][width]`, in universe fault order
    /// (see [`SignatureDictionary::build_sweep_cached`]).
    fn dictionaries(&self) -> Vec<Vec<SignatureDictionary>> {
        let widths = self.widths.len();
        let cuts = self.cuts.len();
        let faults = self.members.len();
        // Every fault's shard and shard-local index, with its universe
        // index.
        let records = || {
            self.shards
                .iter()
                .flat_map(|shard| (0..shard.first_error.len()).map(move |local| (shard, local)))
                .zip(self.members)
        };
        self.lengths
            .iter()
            .map(|&length| {
                let (full_sessions, cut) = self.cell(length);
                let mut raw_detected = vec![false; faults];
                for ((shard, local), &fault) in records() {
                    raw_detected[fault as usize] = (shard.first_error[local] as usize) < length;
                }
                self.widths
                    .iter()
                    .enumerate()
                    .map(|(which, &width)| {
                        let mut good = self.good_full[which][..full_sessions].to_vec();
                        if let Some(cut) = cut {
                            good.push(self.good_partial[which][cut]);
                        }
                        let mut first_fail = vec![UNDETECTED; faults];
                        for ((shard, local), &fault) in records() {
                            let record = local * widths + which;
                            first_fail[fault as usize] = cell_session(
                                shard.first_fail[record],
                                full_sessions,
                                cut.is_some_and(|cut| shard.partial_fails(record * cuts + cut)),
                            );
                        }
                        SignatureDictionary {
                            session_len: self.session_len,
                            sessions: length.div_ceil(self.session_len),
                            signature_width: width,
                            good,
                            first_fail,
                            raw_detected: raw_detected.clone(),
                        }
                    })
                    .collect()
            })
            .collect()
    }
}

/// Turns counts into running totals, in place.
fn prefix_sums(counts: &mut [usize]) {
    let mut total = 0;
    for count in counts {
        total += *count;
        *count = total;
    }
}

/// Minimum stems per shard; below this the scheduling overhead costs more
/// than the parallelism recovers.
const MIN_STEMS_PER_SHARD: usize = 64;

/// One signature width's span step and the lead of every circuit output,
/// computed once per sweep so the fold loops divide nothing.
struct WidthFold {
    step: SpanStep,
    /// `leads[output]`: `(output mod k) + 1`, the output's offset in a
    /// span's `Z`.
    leads: Vec<u8>,
}

impl WidthFold {
    fn new(width: u32, outputs: usize) -> WidthFold {
        let step = SpanStep::new(width);
        let leads = (0..outputs).map(|output| step.lead(output)).collect();
        WidthFold { step, leads }
    }
}

/// Where a fold stands in the readout schedule, walked one span at a time.
///
/// A span ends at the end of a lane word, at a full-session readout, or at
/// a cut (a test length that ends mid-session), whichever comes first, so
/// no span is longer than one lane word and every readout or cut falls on
/// a span's end.
struct Schedule<'a> {
    session_len: usize,
    /// Mid-session test lengths, ascending.
    cuts: &'a [usize],
    /// Full sessions read out so far.
    session: usize,
    /// Patterns applied in the current session.
    in_session: usize,
    /// Patterns applied in all.
    consumed: usize,
    /// The first cut not yet crossed.
    next_cut: usize,
}

/// What a span's end coincides with.
#[derive(Clone, Copy)]
struct SpanEnd {
    /// The cut (an index into the schedule's cuts) the span ends on.
    cut: Option<usize>,
    /// The full session read out at the span's end.
    readout: Option<usize>,
}

impl<'a> Schedule<'a> {
    fn new(session_len: usize, cuts: &'a [usize]) -> Schedule<'a> {
        Schedule {
            session_len,
            cuts,
            session: 0,
            in_session: 0,
            consumed: 0,
            next_cut: 0,
        }
    }

    /// Walks the `count` valid slots of the next chunk as spans: the lane
    /// word each span lies in, its slots there, and what its end is.
    fn spans(&mut self, count: usize) -> Spans<'_, 'a> {
        Spans {
            schedule: self,
            slot: 0,
            count,
        }
    }
}

/// The spans of one chunk, from [`Schedule::spans`].
struct Spans<'s, 'a> {
    schedule: &'s mut Schedule<'a>,
    /// The chunk slot the next span starts at.
    slot: usize,
    /// The chunk's valid slots.
    count: usize,
}

impl Iterator for Spans<'_, '_> {
    type Item = (usize, LaneSpan, SpanEnd);

    fn next(&mut self) -> Option<(usize, LaneSpan, SpanEnd)> {
        if self.slot == self.count {
            return None;
        }
        let lane = self.slot / MAX_SPAN;
        let start = self.slot % MAX_SPAN;
        let lane_end = (self.count - lane * MAX_SPAN).min(MAX_SPAN);
        let schedule = &mut *self.schedule;
        let mut len = (lane_end - start).min(schedule.session_len - schedule.in_session);
        if let Some(&cut) = schedule.cuts.get(schedule.next_cut) {
            len = len.min(cut - schedule.consumed);
        }
        self.slot += len;
        schedule.consumed += len;
        schedule.in_session += len;
        let cut = (schedule.cuts.get(schedule.next_cut) == Some(&schedule.consumed)).then(|| {
            schedule.next_cut += 1;
            schedule.next_cut - 1
        });
        let readout = (schedule.in_session == schedule.session_len).then(|| {
            schedule.in_session = 0;
            schedule.session += 1;
            schedule.session - 1
        });
        Some((
            lane,
            LaneSpan::new(start, start + len),
            SpanEnd { cut, readout },
        ))
    }
}

/// One shard's per-fault records, in the shard's stem order, each in one
/// flat buffer.
struct ShardRecords {
    /// `[fault * widths + width]` first failing *full* session, or
    /// [`UNDETECTED`].
    first_fail: Vec<u32>,
    /// Bit `(fault * widths + width) * cuts + cut`: whether the error
    /// register was non-zero when the pass crossed that cut — the trailing
    /// partial-session verdict of the test ending there.
    partial_fail: Vec<u64>,
    /// `[fault]` index of the first pattern whose response differs, or
    /// [`UNDETECTED`] if no response ever does.  `first_error < length` is
    /// the raw (pre-compaction) detection verdict of every prefix at once.
    first_error: Vec<u32>,
}

impl ShardRecords {
    /// The partial-session verdict bit `bit`.
    fn partial_fails(&self, bit: usize) -> bool {
        self.partial_fail[bit / 64] >> (bit % 64) & 1 == 1
    }
}

/// Everything a sweep's shards share.
struct Sweep<'s, const L: usize> {
    pass: &'s StemPass<'s, L>,
    chunks: &'s [GoodChunk<L>],
    session_len: usize,
    folds: &'s [WidthFold],
    cuts: &'s [usize],
}

impl<const L: usize> Sweep<'_, L> {
    /// Simulates one contiguous range of stem groups over all chunks and
    /// folds each fault's error stream into one register per width, one
    /// span at a time.
    ///
    /// A group walks the chunks once.  Per chunk its stem is propagated
    /// once, in the OR of the masks of its faults that still have an
    /// unresolved width, and each such fault folds its masked copy of the
    /// stem's list.  A fault whose every width has resolved gets no mask,
    /// so the group stops once all of its faults have resolved.
    fn simulate_shard(&self, range: std::ops::Range<usize>) -> ShardRecords {
        let _timer = PROPAGATE.start();
        let cuts = self.cuts;
        let widths = self.folds.len();
        let groups = self.pass.groups();
        let shard_faults = groups.members(range.clone()).len();
        let mut result = ShardRecords {
            first_fail: vec![UNDETECTED; shard_faults * widths],
            partial_fail: vec![0; (shard_faults * widths * cuts.len()).div_ceil(64)],
            first_error: vec![UNDETECTED; shard_faults],
        };
        let mut shard = self.pass.shard();
        // Per fault of the group: one register per width, and how many
        // widths are unresolved.
        let mut states: Vec<u64> = Vec::new();
        let mut unresolved: Vec<usize> = Vec::new();
        // The spans of the current chunk, the same for every fault.
        let mut spans: Vec<(usize, LaneSpan, SpanEnd)> = Vec::new();
        let mut errors: Vec<(u32, PackedBlock<L>)> = Vec::new();
        let mut done = 0;
        for group in range {
            let size = groups.members(group..group + 1).len();
            let base = done;
            done += size;
            states.clear();
            states.resize(size * widths, 0);
            unresolved.clear();
            unresolved.resize(size, widths);
            let mut live = size;
            let mut schedule = Schedule::new(self.session_len, cuts);
            for (index, chunk) in self.chunks.iter().enumerate() {
                if live == 0 {
                    break;
                }
                let consumed = schedule.consumed;
                spans.clear();
                spans.extend(schedule.spans(chunk.count));
                let (masks, stem_errors) =
                    shard.propagate(group, index, |member| unresolved[member] > 0);
                for (member, &mask) in masks.iter().enumerate() {
                    if unresolved[member] == 0 {
                        continue;
                    }
                    let fault = base + member;
                    errors.clear();
                    if !mask.is_zero() {
                        errors.extend(stem_errors.iter().filter_map(|&(position, error)| {
                            let error = error & mask;
                            (!error.is_zero()).then_some((position, error))
                        }));
                    }
                    let first_error = &mut result.first_error[fault];
                    if *first_error == UNDETECTED {
                        let union = errors
                            .iter()
                            .fold(PackedBlock::<L>::ZERO, |union, &(_, error)| union | error);
                        if let Some(slot) = union.first_set_slot() {
                            *first_error = (consumed + slot) as u32;
                        }
                    }
                    let states = &mut states[member * widths..(member + 1) * widths];
                    if errors.is_empty() && states.iter().all(|&state| state == 0) {
                        // A quiet chunk cannot move a zero register: each
                        // readout and each cut in it trivially passes
                        // (its `partial_fail` bit is already clear).
                        continue;
                    }
                    let first_fail = &mut result.first_fail[fault * widths..(fault + 1) * widths];
                    for &(lane, span, end) in &spans {
                        for ((fold, state), fail) in
                            self.folds.iter().zip(&mut *states).zip(&*first_fail)
                        {
                            // A resolved width's register was reset at its
                            // failing readout and is never read again; skip
                            // its steps.
                            if *fail != UNDETECTED {
                                continue;
                            }
                            let mut z = span.carry(*state);
                            for &(position, error) in &errors {
                                z ^= span.input(error.0[lane], fold.leads[position as usize]);
                            }
                            // A quiet span leaves a zero register zero.
                            *state = if z == 0 { 0 } else { fold.step.advance(z) };
                        }
                        if let Some(cut) = end.cut {
                            // A test ending here reads its last, partial
                            // session out of the register as it stands —
                            // snapshot the verdict without disturbing the
                            // ongoing fold.  (A resolved width's register is
                            // zero and its snapshot is unused.)
                            for (which, &state) in states.iter().enumerate() {
                                if state != 0 {
                                    let bit = ((fault * widths + which) * cuts.len()) + cut;
                                    result.partial_fail[bit / 64] |= 1 << (bit % 64);
                                }
                            }
                        }
                        if let Some(session) = end.readout {
                            for (state, fail) in states.iter_mut().zip(first_fail.iter_mut()) {
                                if *fail == UNDETECTED && *state != 0 {
                                    *fail = session as u32;
                                    unresolved[member] -= 1;
                                }
                                *state = 0;
                            }
                            if unresolved[member] == 0 {
                                // Every width has its first failing full
                                // session.  Later cuts lie in later sessions,
                                // so their dictionaries resolve from
                                // `first_fail` alone, and a signature failure
                                // implies a response difference, so
                                // `first_error` is already set.
                                live -= 1;
                                break;
                            }
                        }
                    }
                }
            }
        }
        SWEEP_STEMS.add(shard.propagated());
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::misr::Misr;
    use crate::stumps::{StumpsConfig, StumpsGenerator};
    use lsiq_fault::inject::outputs_with_fault;
    use lsiq_netlist::library;
    use lsiq_sim::pattern::Pattern;

    /// The sweep at the default lane width, without a cache.
    fn sweep(
        context: &ExecutionContext,
        circuit: &Circuit,
        universe: &FaultUniverse,
        patterns: &PatternSet,
        session_len: usize,
        widths: &[u32],
        lengths: &[usize],
    ) -> Vec<Vec<SignatureDictionary>> {
        SignatureDictionary::build_sweep_cached(
            context,
            circuit,
            universe,
            patterns,
            session_len,
            widths,
            lengths,
            LaneWidth::Auto,
            None,
        )
    }

    fn c17_fixture() -> (lsiq_netlist::circuit::Circuit, FaultUniverse, PatternSet) {
        let circuit = library::c17();
        let universe = FaultUniverse::full(&circuit);
        let patterns: PatternSet = (0..32).map(|v| Pattern::from_integer(v, 5)).collect();
        (circuit, universe, patterns)
    }

    /// Every fault's output responses to a pattern set, simulated once with
    /// the scalar injector (one bit per output, at most 64 outputs), for
    /// brute-force folding at any plan.
    struct Responses {
        outputs: usize,
        /// `[pattern]` the fault-free response.
        good: Vec<u64>,
        /// `[fault][pattern]` the faulty response.
        faulty: Vec<Vec<u64>>,
    }

    impl Responses {
        fn simulate(
            circuit: &lsiq_netlist::circuit::Circuit,
            universe: &FaultUniverse,
            patterns: &PatternSet,
        ) -> Responses {
            let compiled = CompiledCircuit::new(circuit);
            let outputs = circuit.primary_outputs().len();
            assert!(outputs <= 64, "one response word per pattern");
            let word = |bits: Vec<bool>| {
                bits.iter()
                    .enumerate()
                    .fold(0u64, |word, (output, &bit)| word | u64::from(bit) << output)
            };
            let good = patterns
                .iter()
                .map(|pattern| word(compiled.outputs(pattern)))
                .collect();
            let faulty = universe
                .iter()
                .map(|fault| {
                    patterns
                        .iter()
                        .map(|pattern| word(outputs_with_fault(&compiled, pattern.bits(), fault)))
                        .collect()
                })
                .collect();
            Responses {
                outputs,
                good,
                faulty,
            }
        }

        /// Every response compressed into `width`'s parallel-input words,
        /// as `Misr::fold` lands them: `(good, faulty)`.
        fn compress(&self, width: u32) -> (Vec<u64>, Vec<Vec<u64>>) {
            // Each output's word; a response compresses to the XOR of its
            // outputs' words.
            let units: Vec<u64> = (0..self.outputs)
                .map(|output| {
                    let mut misr = Misr::new(width);
                    misr.fold((0..self.outputs).map(|other| other == output));
                    misr.signature()
                })
                .collect();
            let compress = |responses: &[u64]| -> Vec<u64> {
                responses
                    .iter()
                    .map(|&response| {
                        units
                            .iter()
                            .enumerate()
                            .filter(|&(output, _)| response >> output & 1 == 1)
                            .fold(0, |word, (_, &unit)| word ^ unit)
                    })
                    .collect()
            };
            let faulty = self.faulty.iter().map(|faulty| compress(faulty)).collect();
            (compress(&self.good), faulty)
        }
    }

    /// The brute-force dictionary records of `width` over the first `length`
    /// patterns: clocks a plain MISR once per pattern with the compressed
    /// words, reads it out after every `session_len` patterns and after the
    /// last one, and compares each faulty signature with the fault-free
    /// one.
    fn brute_force(
        width: u32,
        (good_words, faulty_words): &(Vec<u64>, Vec<Vec<u64>>),
        session_len: usize,
        length: usize,
    ) -> (Vec<u64>, Vec<Option<usize>>) {
        let sessions = |words: &[u64]| {
            let mut misr = Misr::new(width);
            let mut signatures = Vec::new();
            for (index, &word) in words[..length].iter().enumerate() {
                misr.clock(word);
                if (index + 1) % session_len == 0 || index + 1 == length {
                    signatures.push(misr.signature());
                    misr.reset();
                }
            }
            signatures
        };
        let good = sessions(good_words);
        assert_eq!(good.len(), length.div_ceil(session_len));
        let first_fail = faulty_words
            .iter()
            .map(|faulty| {
                sessions(faulty)
                    .iter()
                    .zip(&good)
                    .position(|(faulty, good)| faulty != good)
            })
            .collect();
        (good, first_fail)
    }

    /// Panics at the first entry where `actual` and `expected` differ.
    fn assert_same<T: PartialEq + std::fmt::Debug>(
        actual: &[T],
        expected: &[T],
        what: &str,
        context: &str,
    ) {
        assert_eq!(actual.len(), expected.len(), "{what} count, {context}");
        if let Some(index) = actual.iter().zip(expected).position(|(a, e)| a != e) {
            panic!(
                "{what} {index}: {:?}, expected {:?}, {context}",
                actual[index], expected[index]
            );
        }
    }

    /// Sweeps every supported width at each session length and lane width
    /// — the full pattern set, a length 37 patterns shorter, and the empty
    /// test — and checks every dictionary against the brute-force
    /// reference: exact fault-free signatures, first failing sessions and
    /// raw detection flags, fault by fault.  The counted reports of the
    /// same sweep must equal each dictionary's report.
    fn assert_matches_brute_force(
        circuit: &lsiq_netlist::circuit::Circuit,
        patterns: &PatternSet,
        session_lens: &[usize],
    ) {
        let universe = FaultUniverse::full(circuit);
        let responses = Responses::simulate(circuit, &universe, patterns);
        let words: Vec<_> = SUPPORTED_DEGREES
            .iter()
            .map(|&width| responses.compress(width))
            .collect();
        let lengths = [patterns.len(), patterns.len() - 37, 0];
        let raw: Vec<Vec<bool>> = lengths
            .iter()
            .map(|&length| {
                responses
                    .faulty
                    .iter()
                    .map(|faulty| faulty[..length] != responses.good[..length])
                    .collect()
            })
            .collect();
        let context = ExecutionContext::new(2);
        for &session_len in session_lens {
            let references: Vec<Vec<_>> = lengths
                .iter()
                .map(|&length| {
                    SUPPORTED_DEGREES
                        .iter()
                        .zip(&words)
                        .map(|(&width, words)| brute_force(width, words, session_len, length))
                        .collect()
                })
                .collect();
            for lanes in LaneWidth::EXPLICIT {
                let grid = SignatureDictionary::build_sweep_cached(
                    &context,
                    circuit,
                    &universe,
                    patterns,
                    session_len,
                    &SUPPORTED_DEGREES,
                    &lengths,
                    lanes,
                    None,
                );
                let reports = SignatureDictionary::build_sweep_reports(
                    &context,
                    circuit,
                    &universe,
                    patterns,
                    session_len,
                    &SUPPORTED_DEGREES,
                    &lengths,
                    lanes,
                    None,
                );
                let counted: Vec<Vec<AliasingReport>> = grid
                    .iter()
                    .map(|row| row.iter().map(AliasingReport::from_dictionary).collect())
                    .collect();
                assert_eq!(reports, counted, "session_len {session_len}, lanes {lanes}");
                for (((row, reference), raw), &length) in
                    grid.iter().zip(&references).zip(&raw).zip(&lengths)
                {
                    for (dictionary, (good, first_fail)) in row.iter().zip(reference) {
                        let plan = format!(
                            "width {}, session_len {session_len}, length {length}, lanes {lanes}",
                            dictionary.signature_width()
                        );
                        assert_eq!(dictionary.sessions(), good.len(), "{plan}");
                        assert_same(dictionary.good_signatures(), good, "session", &plan);
                        assert_same(
                            &dictionary.first_failing_sessions().collect::<Vec<_>>(),
                            first_fail,
                            "fault",
                            &plan,
                        );
                        assert_same(dictionary.raw_detected_flags(), raw, "fault", &plan);
                    }
                }
            }
        }
    }

    /// Session lengths that put readouts at every slot, mid-word, on and
    /// just past lane-word boundaries, across words, and beyond a lane-8
    /// chunk (512 patterns).
    const SESSION_LENS: [usize; 9] = [1, 5, 7, 24, 63, 64, 65, 130, 600];

    #[test]
    fn matches_brute_force_reference_on_c17() {
        let circuit = library::c17();
        let patterns =
            StumpsGenerator::new(&StumpsConfig::with_width(circuit.primary_inputs().len(), 3))
                .generate(1250);
        assert_matches_brute_force(&circuit, &patterns, &SESSION_LENS);
    }

    #[test]
    fn matches_brute_force_reference_on_alu4_and_a_scan_view() {
        // alu4's fifth output wraps onto position 0 of a 4-bit register.
        // Its 476 faults make the scalar reference the slow part, so it
        // gets 200 patterns and the sessions that fit them; the scan view
        // takes the sessions longer than a chunk.
        let alu4 = library::alu4();
        let patterns =
            StumpsGenerator::new(&StumpsConfig::with_width(alu4.primary_inputs().len(), 5))
                .generate(200);
        assert_matches_brute_force(&alu4, &patterns, &SESSION_LENS[..8]);
        let scan = lsiq_netlist::scan::insert_scan(&lsiq_netlist::generator::binary_counter(4), 2)
            .expect("two chains fit four flip-flops");
        let view = scan.test_view();
        let patterns =
            StumpsGenerator::new(&StumpsConfig::with_width(view.primary_inputs().len(), 5))
                .generate(700);
        assert_matches_brute_force(view, &patterns, &SESSION_LENS);
    }

    #[test]
    fn worker_counts_are_invisible_in_the_result() {
        // The sweep shards fanout-free-region stems, at least 64 per shard:
        // this circuit's 501 stems give 2, 3 and 8 workers several shards
        // each (alu4 has 26, which never leave one shard).
        let circuit = lsiq_netlist::generator::random_circuit(
            &lsiq_netlist::generator::RandomCircuitConfig {
                inputs: 16,
                gates: 600,
                seed: 11,
                ..lsiq_netlist::generator::RandomCircuitConfig::default()
            },
        );
        let universe = FaultUniverse::full(&circuit);
        let patterns =
            StumpsGenerator::new(&StumpsConfig::with_width(circuit.primary_inputs().len(), 7))
                .generate(96);
        let plan = BistPlan {
            session_len: 32,
            signature_width: 8,
        };
        let reference = SignatureDictionary::build_in(
            &ExecutionContext::new(1),
            &circuit,
            &universe,
            &patterns,
            &plan,
        );
        // The counted reports, mid-session cut included, add up the same
        // records across shards.
        let lengths = [40, 96];
        let counted: Vec<Vec<AliasingReport>> = sweep(
            &ExecutionContext::new(1),
            &circuit,
            &universe,
            &patterns,
            plan.session_len,
            &[plan.signature_width],
            &lengths,
        )
        .iter()
        .map(|row| row.iter().map(AliasingReport::from_dictionary).collect())
        .collect();
        for workers in [2, 3, 8] {
            let context = ExecutionContext::new(workers);
            let dictionary =
                SignatureDictionary::build_in(&context, &circuit, &universe, &patterns, &plan);
            assert_eq!(reference, dictionary, "workers = {workers}");
            let reports = SignatureDictionary::build_sweep_reports(
                &context,
                &circuit,
                &universe,
                &patterns,
                plan.session_len,
                &[plan.signature_width],
                &lengths,
                LaneWidth::Auto,
                None,
            );
            assert_eq!(counted, reports, "workers = {workers}");
        }
    }

    #[test]
    fn multi_width_sweep_matches_individual_builds() {
        let (circuit, universe, patterns) = c17_fixture();
        let widths = [4u32, 8, 16];
        let context = ExecutionContext::new(2);
        let many = sweep(
            &context,
            &circuit,
            &universe,
            &patterns,
            6,
            &widths,
            &[patterns.len()],
        )
        .swap_remove(0);
        assert_eq!(many.len(), widths.len());
        for (dictionary, &width) in many.iter().zip(&widths) {
            let single = SignatureDictionary::build_in(
                &context,
                &circuit,
                &universe,
                &patterns,
                &BistPlan {
                    session_len: 6,
                    signature_width: width,
                },
            );
            assert_eq!(*dictionary, single, "width {width}");
        }
    }

    #[test]
    fn one_pass_sweep_matches_per_length_builds() {
        // The sweep's single maximum-length pass must reproduce, byte for
        // byte, what a fresh build on each truncated pattern set computes —
        // including lengths shorter than a session, unaligned mid-session
        // boundaries, and out-of-order requests.
        let circuit = library::alu4();
        let universe = FaultUniverse::full(&circuit);
        let patterns = StumpsGenerator::new(&StumpsConfig::with_width(
            circuit.primary_inputs().len(),
            11,
        ))
        .generate(96);
        let widths = [4u32, 8, 16];
        let session_len = 16;
        let lengths = [48usize, 10, 16, 57, 96];
        let context = ExecutionContext::new(4);
        let grid = sweep(
            &context,
            &circuit,
            &universe,
            &patterns,
            session_len,
            &widths,
            &lengths,
        );
        assert_eq!(grid.len(), lengths.len());
        for (row, &length) in grid.iter().zip(&lengths) {
            let prefix: PatternSet = patterns.iter().take(length).cloned().collect();
            let reference = sweep(
                &ExecutionContext::new(1),
                &circuit,
                &universe,
                &prefix,
                session_len,
                &widths,
                &[length],
            );
            assert_eq!(*row, reference[0], "length {length}");
        }
    }

    #[test]
    fn lane_widths_and_cache_are_invisible_in_the_sweep() {
        let circuit = library::alu4();
        let universe = FaultUniverse::full(&circuit);
        let patterns = StumpsGenerator::new(&StumpsConfig::with_width(
            circuit.primary_inputs().len(),
            13,
        ))
        .generate(160);
        let widths = [8u32, 16];
        let lengths = [40usize, 96, 160];
        let context = ExecutionContext::new(2);
        let reference = sweep(
            &context, &circuit, &universe, &patterns, 32, &widths, &lengths,
        );
        let cache = GoodMachineCache::new();
        for lanes in LaneWidth::EXPLICIT {
            let sweep = SignatureDictionary::build_sweep_cached(
                &context,
                &circuit,
                &universe,
                &patterns,
                32,
                &widths,
                &lengths,
                lanes,
                Some(&cache),
            );
            assert_eq!(reference, sweep, "lanes = {lanes}");
        }
        assert!(cache.misses() > 0);
        // Replaying a cached width is pure hits for the good machine.
        let before = cache.hits();
        let replay = SignatureDictionary::build_sweep_cached(
            &context,
            &circuit,
            &universe,
            &patterns,
            32,
            &widths,
            &lengths,
            LaneWidth::X8,
            Some(&cache),
        );
        assert_eq!(reference, replay);
        assert!(cache.hits() > before);
    }

    #[test]
    fn exhaustive_patterns_detect_everything_in_some_session() {
        let (circuit, universe, patterns) = c17_fixture();
        // Wide signature over short sessions: aliasing probability ~2^-16
        // per readout; on 46 faults the seeded run has none.
        let plan = BistPlan {
            session_len: 8,
            signature_width: 16,
        };
        let dictionary = SignatureDictionary::build_in(
            &ExecutionContext::new(1),
            &circuit,
            &universe,
            &patterns,
            &plan,
        );
        assert_eq!(dictionary.len(), universe.len());
        assert_eq!(dictionary.raw_detected_count(), universe.len());
        assert_eq!(dictionary.signature_detected_count(), universe.len());
        assert!(dictionary.aliased_indices().is_empty());
    }

    #[test]
    #[should_panic(expected = "fault 1 fails session 0 without a response difference")]
    fn from_parts_refuses_a_failure_without_a_raw_detection() {
        let _ = SignatureDictionary::from_parts(8, 16, vec![7], vec![None, Some(0)], vec![true; 2]);
        let _ =
            SignatureDictionary::from_parts(8, 16, vec![7], vec![None, Some(0)], vec![false; 2]);
    }

    #[test]
    #[should_panic(expected = "at least 1 pattern")]
    fn from_parts_refuses_a_zero_length_session() {
        // A readout at `(s + 1) · session_len − 1` needs a session length.
        let _ = SignatureDictionary::from_parts(0, 16, vec![7], vec![Some(0)], vec![true]);
    }

    #[test]
    #[should_panic(expected = "fault 0 first fails at session 1 of 1")]
    fn from_parts_refuses_a_session_beyond_the_readouts() {
        let _ = SignatureDictionary::from_parts(8, 16, vec![7], vec![Some(1)], vec![true]);
    }

    #[test]
    fn empty_pattern_set_detects_nothing() {
        let (circuit, universe, _) = c17_fixture();
        let dictionary = SignatureDictionary::build_in(
            &ExecutionContext::new(1),
            &circuit,
            &universe,
            &PatternSet::new(),
            &BistPlan::default(),
        );
        assert_eq!(dictionary.sessions(), 0);
        assert_eq!(dictionary.raw_detected_count(), 0);
        assert_eq!(dictionary.signature_detected_count(), 0);
        assert!(!dictionary.is_aliased(0));
        assert!(dictionary.good_signatures().is_empty());
    }
}

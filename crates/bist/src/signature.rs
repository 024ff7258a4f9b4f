//! Per-fault signature dictionaries.
//!
//! The stored-pattern flow records, per fault, the first *pattern* that
//! detects it ([`FaultDictionary`](lsiq_fault::dictionary::FaultDictionary)).
//! Under BIST the tester only observes MISR readouts, so the per-fault
//! record becomes the first *test session* whose signature differs from the
//! fault-free one — and a fault whose responses differ but whose session
//! signatures never do is *aliased*: detected by the pattern set, shipped by
//! the signature compare.
//!
//! [`SignatureDictionary::build_in`] produces both records for a whole fault
//! universe in one fault-simulation pass.  The fault universe is sharded in
//! contiguous slices across the worker pool ([`lsiq_exec::shard_map`]), one
//! slice per worker.  Each fault is propagated through its fanout cone one
//! packed chunk at a time by the
//! [cone kernel](lsiq_fault::cone) the incremental fault engine runs on,
//! which returns only the *error* words (good XOR faulty) of the outputs the
//! fault reaches.  By the fold's GF(2) linearity (see the [`misr`](crate::misr)
//! module) a session signature mismatches exactly when the error register
//! is non-zero at the readout, so only the error stream is folded.
//!
//! The fold is transposed: instead of gathering every output's bit per
//! pattern, each width's parallel-input word of every slot is compressed
//! from the set error bits alone, then each unresolved register is clocked
//! once per slot.  Faults whose error stream has gone quiet skip whole
//! chunks without touching the register, and a fault is dropped from the
//! pass entirely once every requested signature width has resolved its
//! first failing session.

use crate::misr::Misr;
use lsiq_exec::{shard_map, ExecutionContext, LaneWidth};
use lsiq_fault::cone::{good_chunks, ConePropagator, GoodChunk};
use lsiq_fault::model::Fault;
use lsiq_fault::universe::FaultUniverse;
use lsiq_netlist::circuit::Circuit;
use lsiq_obs::{Counter, Span};
use lsiq_sim::cache::GoodMachineCache;
use lsiq_sim::levelized::CompiledCircuit;
use lsiq_sim::packed::{gather_chunk_slot, PackedBlock};
use lsiq_sim::pattern::PatternSet;

/// One-pass sweeps started (every `build*` entry point funnels here).
static SWEEPS: Counter = Counter::new("bist.sweep.runs");
/// Faults entering a sweep; invariant at any worker count.
static SWEEP_FAULTS: Counter = Counter::new("bist.sweep.faults");
/// `(length, width)` grid cells the sweep resolves.
static SWEEP_CELLS: Counter = Counter::new("bist.sweep.cells");
/// Packing and folding the fault-free machine (once per sweep).
static GOOD_SIGNATURES: Span = Span::new("bist.sweep.good_signatures");
/// Per-shard fault simulation and error-stream folding.
static PROPAGATE: Span = Span::new("bist.sweep.propagate");

/// The readout schedule and signature geometry of one self-test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BistPlan {
    /// Patterns applied between signature readouts; a trailing partial
    /// session is read out too.  Must be at least 1.
    pub session_len: usize,
    /// MISR width `k` (one of
    /// [`SUPPORTED_DEGREES`](crate::lfsr::SUPPORTED_DEGREES)).
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
/// The BIST analogue of
/// [`FaultDictionary`](lsiq_fault::dictionary::FaultDictionary): the
/// signature tester consults it to decide at which session a defective chip
/// first fails, and the [`AliasingReport`](crate::aliasing::AliasingReport)
/// folds its aliased-fault count into the effective-coverage figure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SignatureDictionary {
    session_len: usize,
    sessions: usize,
    signature_width: u32,
    /// Fault-free signature of each session, in session order.
    good: Vec<u64>,
    /// Per fault: the first session whose signature differs from `good`.
    first_fail: Vec<Option<usize>>,
    /// Per fault: whether any output response differs at any applied
    /// pattern (detection by the pattern set, before compaction).
    raw_detected: Vec<bool>,
}

impl SignatureDictionary {
    /// Builds the dictionary for one [`BistPlan`] with the fault shards
    /// executing on `context`'s worker pool (a 1-worker context runs on the
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
    /// on the truncated pattern set.
    ///
    /// The packed lane width is selectable (results are byte-identical at
    /// every width) and an optional shared [`GoodMachineCache`] supplies —
    /// or receives — the per-chunk good-machine images, so a session that
    /// has already simulated the same circuit over the same patterns (a
    /// test-suite build, an earlier sweep) never re-runs the fault-free
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
        match lanes.resolve(patterns.len()) {
            1 => SignatureDictionary::build_sweep_lanes::<1>(
                context,
                circuit,
                universe,
                patterns,
                session_len,
                widths,
                lengths,
                cache,
            ),
            4 => SignatureDictionary::build_sweep_lanes::<4>(
                context,
                circuit,
                universe,
                patterns,
                session_len,
                widths,
                lengths,
                cache,
            ),
            _ => SignatureDictionary::build_sweep_lanes::<8>(
                context,
                circuit,
                universe,
                patterns,
                session_len,
                widths,
                lengths,
                cache,
            ),
        }
    }

    /// One lane-monomorphized sweep (see
    /// [`build_sweep_cached`](SignatureDictionary::build_sweep_cached)).
    #[allow(clippy::too_many_arguments)]
    fn build_sweep_lanes<const L: usize>(
        context: &ExecutionContext,
        circuit: &Circuit,
        universe: &FaultUniverse,
        patterns: &PatternSet,
        session_len: usize,
        widths: &[u32],
        lengths: &[usize],
        cache: Option<&GoodMachineCache>,
    ) -> Vec<Vec<SignatureDictionary>> {
        assert!(session_len >= 1, "a session must apply at least 1 pattern");
        assert!(!widths.is_empty(), "at least one signature width required");
        assert!(!lengths.is_empty(), "at least one test length required");
        assert!(
            lengths.iter().all(|&length| length <= patterns.len()),
            "test lengths cannot exceed the pattern set"
        );
        SWEEPS.incr();
        SWEEP_CELLS.add((widths.len() * lengths.len()) as u64);
        let good_timer = GOOD_SIGNATURES.start();
        let compiled = CompiledCircuit::new(circuit);
        let chunks = good_chunks::<L>(&compiled, patterns, cache);
        let mut boundaries: Vec<usize> = lengths.to_vec();
        boundaries.sort_unstable();
        boundaries.dedup();

        // Fault-free signatures, folded once up front: one signature per
        // *full* session, plus a running-state snapshot at every length
        // boundary (used by lengths whose trailing session is partial).
        let mut good_registers: Vec<Misr> = widths.iter().map(|&w| Misr::new(w)).collect();
        let mut good_full: Vec<Vec<u64>> = vec![Vec::new(); widths.len()];
        let mut good_partial: Vec<Vec<u64>> = vec![vec![0; boundaries.len()]; widths.len()];
        let mut consumed = 0usize;
        let mut in_session = 0usize;
        let mut next_boundary = 0usize;
        let mut good_outputs: Vec<PackedBlock<L>> = Vec::new();
        for chunk in &chunks {
            good_outputs.clear();
            good_outputs.extend(
                circuit
                    .primary_outputs()
                    .iter()
                    .map(|&out| chunk.words[out.index()]),
            );
            for slot in 0..chunk.count {
                for register in good_registers.iter_mut() {
                    register.fold(gather_chunk_slot(&good_outputs, slot));
                }
                consumed += 1;
                in_session += 1;
                while next_boundary < boundaries.len() && boundaries[next_boundary] == consumed {
                    for (which, register) in good_registers.iter().enumerate() {
                        good_partial[which][next_boundary] = register.signature();
                    }
                    next_boundary += 1;
                }
                if in_session == session_len {
                    for (which, register) in good_registers.iter_mut().enumerate() {
                        good_full[which].push(register.signature());
                        register.reset();
                    }
                    in_session = 0;
                }
            }
        }

        drop(good_timer);

        // Shard the fault universe across the pool in contiguous slices.
        let faults = universe.faults();
        SWEEP_FAULTS.add(faults.len() as u64);
        let results = shard_map(Some(context), faults.len(), MIN_FAULTS_PER_SHARD, |range| {
            simulate_shard(
                &compiled,
                &chunks,
                &faults[range],
                session_len,
                widths,
                &boundaries,
            )
        });

        // Concatenate the shards back into universe fault order.
        let mut first_error: Vec<Option<usize>> = Vec::with_capacity(faults.len());
        let mut first_fail: Vec<Vec<Option<usize>>> =
            vec![Vec::with_capacity(faults.len()); widths.len()];
        let mut partial_fail: Vec<Vec<Vec<bool>>> =
            vec![Vec::with_capacity(faults.len()); widths.len()];
        for shard in results {
            first_error.extend(shard.first_error);
            for (which, fails) in shard.first_fail.into_iter().enumerate() {
                first_fail[which].extend(fails);
            }
            for (which, partials) in shard.partial_fail.into_iter().enumerate() {
                partial_fail[which].extend(partials);
            }
        }

        // Derive every (length, width) dictionary from the one pass.
        lengths
            .iter()
            .map(|&length| {
                let boundary = boundaries
                    .binary_search(&length)
                    .expect("every length is a recorded boundary");
                let full_sessions = length / session_len;
                let has_partial = length % session_len != 0;
                widths
                    .iter()
                    .enumerate()
                    .map(|(which, &width)| {
                        let mut good = good_full[which][..full_sessions].to_vec();
                        if has_partial {
                            good.push(good_partial[which][boundary]);
                        }
                        let first_fail: Vec<Option<usize>> = first_fail[which]
                            .iter()
                            .zip(&partial_fail[which])
                            .map(|(&fail, partials)| match fail {
                                // A full-session failure inside the prefix
                                // is the answer for every longer length.
                                Some(session) if session < full_sessions => Some(session),
                                // Otherwise the prefix's only remaining
                                // readout is its trailing partial session.
                                _ if has_partial && partials[boundary] => Some(full_sessions),
                                _ => None,
                            })
                            .collect();
                        let raw_detected: Vec<bool> = first_error
                            .iter()
                            .map(|error| error.is_some_and(|pattern| pattern < length))
                            .collect();
                        SignatureDictionary {
                            session_len,
                            sessions: length.div_ceil(session_len),
                            signature_width: width,
                            good,
                            first_fail,
                            raw_detected,
                        }
                    })
                    .collect()
            })
            .collect()
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
    /// Panics if `session_len` is 0 or the per-fault vectors disagree in
    /// length.
    pub fn from_parts(
        session_len: usize,
        signature_width: u32,
        good: Vec<u64>,
        first_fail: Vec<Option<usize>>,
        raw_detected: Vec<bool>,
    ) -> SignatureDictionary {
        assert!(session_len >= 1, "a session must apply at least 1 pattern");
        assert_eq!(
            first_fail.len(),
            raw_detected.len(),
            "per-fault records must agree in length"
        );
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

    /// Per fault: the first session whose signature differs from the
    /// fault-free one.
    pub fn first_failing_sessions(&self) -> &[Option<usize>] {
        &self.first_fail
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

    /// The fault-free signature read out after session `session`.
    pub fn good_signature(&self, session: usize) -> Option<u64> {
        self.good.get(session).copied()
    }

    /// The first session at which fault `index`'s signature differs from the
    /// fault-free one, or `None` if every readout matches (the fault is
    /// undetected — or detected but aliased).
    pub fn first_failing_session(&self, index: usize) -> Option<usize> {
        self.first_fail.get(index).copied().flatten()
    }

    /// Whether fault `index` produces any response difference under the
    /// applied pattern set (detection before compaction).
    pub fn is_raw_detected(&self, index: usize) -> bool {
        self.raw_detected.get(index).copied().unwrap_or(false)
    }

    /// Whether fault `index` is aliased: its responses differ at some
    /// pattern, yet every session signature equals the fault-free one.
    pub fn is_aliased(&self, index: usize) -> bool {
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
        self.first_fail.iter().filter(|f| f.is_some()).count()
    }

    /// The first session at which a chip carrying exactly the faults in
    /// `fault_indices` fails its signature compare, or `None` if every
    /// readout matches.
    ///
    /// This mirrors
    /// [`FaultDictionary::first_failure_of_chip`](lsiq_fault::dictionary::FaultDictionary::first_failure_of_chip)
    /// under the same single-fault-detectability assumption: the chip's
    /// faults are equivalent to a set of independently observable stuck-at
    /// faults, so its signature first diverges at the earliest first-failing
    /// session over them.
    pub fn first_failure_of_chip(&self, fault_indices: &[usize]) -> Option<usize> {
        fault_indices
            .iter()
            .filter_map(|&index| self.first_failing_session(index))
            .min()
    }
}

/// Minimum faults per shard; below this the scheduling overhead costs more
/// than the parallelism recovers.
const MIN_FAULTS_PER_SHARD: usize = 64;

/// One shard's per-fault results, in shard-local fault order.
struct ShardResult {
    /// `[width][fault]` first failing *full* session.
    first_fail: Vec<Vec<Option<usize>>>,
    /// `[width][fault][boundary]` whether the error register was non-zero
    /// when the pass crossed that length boundary — the trailing
    /// partial-session verdict of the test ending there.
    partial_fail: Vec<Vec<Vec<bool>>>,
    /// `[fault]` index of the first pattern whose response differs, or
    /// `None` if no response ever does.  `first_error < length` is the raw
    /// (pre-compaction) detection verdict of every prefix at once.
    first_error: Vec<Option<usize>>,
}

/// Simulates one contiguous shard of faults over all chunks and folds each
/// fault's error stream into one register per width.
fn simulate_shard<const L: usize>(
    compiled: &CompiledCircuit<'_>,
    chunks: &[GoodChunk<L>],
    faults: &[Fault],
    session_len: usize,
    widths: &[u32],
    boundaries: &[usize],
) -> ShardResult {
    let _timer = PROPAGATE.start();
    let mut result = ShardResult {
        first_fail: vec![Vec::with_capacity(faults.len()); widths.len()],
        partial_fail: vec![Vec::with_capacity(faults.len()); widths.len()],
        first_error: Vec::with_capacity(faults.len()),
    };
    let mut cone = ConePropagator::<L>::new(compiled);
    let mut registers: Vec<Misr> = widths.iter().map(|&w| Misr::new(w)).collect();
    // `incoming[slot * stride + which]`: the compressed parallel-input word
    // register `which` takes at `slot` of the current chunk.  Every entry is
    // zero between chunks: the slot loop takes each word as it clocks it.
    let stride = widths.len();
    let mut incoming = vec![0u64; PackedBlock::<L>::PATTERNS * stride];
    for fault in faults {
        let mut first_fail: Vec<Option<usize>> = vec![None; widths.len()];
        let mut partial_fail: Vec<Vec<bool>> = vec![vec![false; boundaries.len()]; widths.len()];
        let mut unresolved = widths.len();
        let mut first_error: Option<usize> = None;
        for register in registers.iter_mut() {
            register.reset();
        }
        let mut session = 0usize;
        let mut in_session = 0usize;
        let mut consumed = 0usize;
        let mut next_boundary = 0usize;
        // Read out every register, record new failures, reset for the next
        // session.
        let readout = |registers: &mut [Misr],
                       first_fail: &mut [Option<usize>],
                       unresolved: &mut usize,
                       session: usize| {
            for (which, register) in registers.iter_mut().enumerate() {
                if first_fail[which].is_none() && register.signature() != 0 {
                    first_fail[which] = Some(session);
                    *unresolved -= 1;
                }
                register.reset();
            }
        };
        'chunks: for chunk in chunks {
            let errors = cone.propagate(fault, &chunk.words, chunk.valid);
            if first_error.is_none() {
                let union = errors
                    .iter()
                    .fold(PackedBlock::<L>::ZERO, |union, &(_, error)| union | error);
                if let Some(slot) = union.first_set_slot() {
                    first_error = Some(consumed + slot);
                }
            }
            if errors.is_empty() && registers.iter().all(|r| r.signature() == 0) {
                // A quiet chunk cannot move a zero register; fast-forward
                // the session counters (each readout trivially passes) and
                // the boundary cursor (each snapshot trivially passes too —
                // `partial_fail` is already `false`).
                consumed += chunk.count;
                in_session += chunk.count;
                while in_session >= session_len {
                    in_session -= session_len;
                    session += 1;
                }
                while next_boundary < boundaries.len() && boundaries[next_boundary] <= consumed {
                    next_boundary += 1;
                }
                continue;
            }
            // Compress: scatter every set error bit onto its register
            // position, for each width that is still unresolved.
            for &(position, error) in errors {
                for slot in error.set_slots() {
                    let row = &mut incoming[slot * stride..(slot + 1) * stride];
                    for (which, register) in registers.iter().enumerate() {
                        if first_fail[which].is_none() {
                            row[which] ^= register.input_bit(position as usize);
                        }
                    }
                }
            }
            for slot in 0..chunk.count {
                let row = &mut incoming[slot * stride..(slot + 1) * stride];
                for (which, register) in registers.iter_mut().enumerate() {
                    let word = std::mem::take(&mut row[which]);
                    // A resolved width's register was reset at its failing
                    // readout and is never read again; skip its clocks.
                    if first_fail[which].is_none() {
                        register.clock(word);
                    }
                }
                consumed += 1;
                in_session += 1;
                while next_boundary < boundaries.len() && boundaries[next_boundary] == consumed {
                    // A test ending here reads its last, partial session out
                    // of the register as it stands — snapshot the verdict
                    // without disturbing the ongoing fold.  (A resolved
                    // width's register is zero and its snapshot is unused.)
                    for (which, register) in registers.iter().enumerate() {
                        partial_fail[which][next_boundary] = register.signature() != 0;
                    }
                    next_boundary += 1;
                }
                if in_session == session_len {
                    readout(&mut registers, &mut first_fail, &mut unresolved, session);
                    session += 1;
                    in_session = 0;
                    if unresolved == 0 {
                        // Every width has its first failing full session.
                        // Later boundaries lie in later sessions, so their
                        // dictionaries resolve from `first_fail` alone, and
                        // a signature failure implies a response difference,
                        // so `first_error` is already set.  Leave the
                        // compression buffer zeroed for the next fault.
                        incoming[(slot + 1) * stride..chunk.count * stride].fill(0);
                        break 'chunks;
                    }
                }
            }
        }
        result.first_error.push(first_error);
        for (which, fail) in first_fail.into_iter().enumerate() {
            result.first_fail[which].push(fail);
        }
        for (which, partials) in partial_fail.into_iter().enumerate() {
            result.partial_fail[which].push(partials);
        }
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
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

    /// Brute-force reference: fold every fault's *actual* session signatures
    /// with a plain MISR over serially simulated responses and compare to
    /// the fault-free signatures.
    fn brute_force_first_fail(
        circuit: &lsiq_netlist::circuit::Circuit,
        universe: &FaultUniverse,
        patterns: &PatternSet,
        plan: &BistPlan,
    ) -> (Vec<Option<usize>>, Vec<bool>) {
        let compiled = CompiledCircuit::new(circuit);
        let sessions = patterns.len().div_ceil(plan.session_len);
        let mut good_signatures = Vec::new();
        {
            let mut misr = Misr::new(plan.signature_width);
            for (index, pattern) in patterns.iter().enumerate() {
                misr.fold(compiled.outputs(pattern));
                if (index + 1) % plan.session_len == 0 || index + 1 == patterns.len() {
                    good_signatures.push(misr.signature());
                    misr.reset();
                }
            }
        }
        assert_eq!(good_signatures.len(), sessions);
        let mut first_fail = Vec::new();
        let mut raw_detected = Vec::new();
        for fault in universe.iter() {
            let mut misr = Misr::new(plan.signature_width);
            let mut raw = false;
            let mut fail = None;
            let mut session = 0;
            for (index, pattern) in patterns.iter().enumerate() {
                let good = compiled.outputs(pattern);
                let faulty = outputs_with_fault(&compiled, pattern.bits(), fault);
                raw |= good != faulty;
                misr.fold(faulty);
                if (index + 1) % plan.session_len == 0 || index + 1 == patterns.len() {
                    if fail.is_none() && misr.signature() != good_signatures[session] {
                        fail = Some(session);
                    }
                    misr.reset();
                    session += 1;
                }
            }
            first_fail.push(fail);
            raw_detected.push(raw);
        }
        (first_fail, raw_detected)
    }

    /// Builds the dictionary at every lane width and checks each against
    /// the brute-force reference, fault by fault.
    fn assert_matches_brute_force(
        circuit: &lsiq_netlist::circuit::Circuit,
        universe: &FaultUniverse,
        patterns: &PatternSet,
        plan: &BistPlan,
    ) {
        let (first_fail, raw) = brute_force_first_fail(circuit, universe, patterns, plan);
        for lanes in LaneWidth::EXPLICIT {
            let dictionary = SignatureDictionary::build_sweep_cached(
                &ExecutionContext::new(2),
                circuit,
                universe,
                patterns,
                plan.session_len,
                &[plan.signature_width],
                &[patterns.len()],
                lanes,
                None,
            )
            .remove(0)
            .remove(0);
            for index in 0..universe.len() {
                assert_eq!(
                    dictionary.first_failing_session(index),
                    first_fail[index],
                    "fault {index}, plan {plan:?}, lanes {lanes}"
                );
                assert_eq!(
                    dictionary.is_raw_detected(index),
                    raw[index],
                    "fault {index}, plan {plan:?}, lanes {lanes}"
                );
            }
            assert_eq!(
                dictionary.sessions(),
                patterns.len().div_ceil(plan.session_len)
            );
        }
    }

    #[test]
    fn matches_brute_force_reference_on_c17() {
        let (circuit, universe, patterns) = c17_fixture();
        for plan in [
            BistPlan::default(),
            BistPlan {
                session_len: 5,
                signature_width: 4,
            },
            BistPlan {
                session_len: 7,
                signature_width: 8,
            },
        ] {
            assert_matches_brute_force(&circuit, &universe, &patterns, &plan);
        }
    }

    #[test]
    fn matches_brute_force_reference_on_alu4_and_a_scan_view() {
        // 100 patterns in 24-pattern sessions: four full sessions and a
        // trailing partial one, crossing the 64-pattern chunk boundary at
        // one lane.
        let scan = lsiq_netlist::scan::insert_scan(&lsiq_netlist::generator::binary_counter(4), 2)
            .expect("two chains fit four flip-flops");
        for circuit in [library::alu4(), scan.test_view().clone()] {
            let universe = FaultUniverse::full(&circuit);
            let patterns =
                StumpsGenerator::new(&StumpsConfig::with_width(circuit.primary_inputs().len(), 5))
                    .generate(100);
            for signature_width in [4, 16] {
                let plan = BistPlan {
                    session_len: 24,
                    signature_width,
                };
                assert_matches_brute_force(&circuit, &universe, &patterns, &plan);
            }
        }
    }

    #[test]
    fn worker_counts_are_invisible_in_the_result() {
        let circuit = library::alu4();
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
        for workers in [2, 3, 8] {
            let context = ExecutionContext::new(workers);
            let dictionary =
                SignatureDictionary::build_in(&context, &circuit, &universe, &patterns, &plan);
            assert_eq!(reference, dictionary, "workers = {workers}");
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
        // Chip-level failure mirrors the per-fault minimum.
        let first0 = dictionary.first_failing_session(0).expect("detected");
        let first5 = dictionary.first_failing_session(5).expect("detected");
        assert_eq!(
            dictionary.first_failure_of_chip(&[0, 5]),
            Some(first0.min(first5))
        );
        assert_eq!(dictionary.first_failure_of_chip(&[]), None);
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
        assert_eq!(dictionary.good_signature(0), None);
    }
}

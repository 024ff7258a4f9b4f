//! The fanout-cone propagation kernel and the fanout-free-region pass that
//! feeds it.
//!
//! A single stuck-at fault disturbs only its *fanout cone*.  Given the
//! fault-free image of one packed pattern chunk — one [`PackedBlock`] per
//! gate — the kernel flips one gate in chosen pattern slots and
//! re-evaluates only the gates the difference reaches, level by level,
//! until the event frontier dies (every disturbed word re-converged with
//! the good machine) or runs out of circuit.
//!
//! # Stems, not faults
//!
//! Most faults never need a propagation of their own.  A gate with exactly
//! one load that is not a primary output passes every change of its value
//! to that one load, through one pin, so it lies inside a *fanout-free
//! region*: a tree of such gates that ends at the region's *stem*, the
//! nearest gate on the fanout path (the gate itself included) that is a
//! primary output or does not have exactly one load.  [`FanoutRegions`]
//! maps every gate to its stem once per circuit.  A load that is a
//! flip-flop also ends a region: one evaluation reads a flip-flop's held
//! state, never its D pin, so a gate whose one load is a flip-flop is a
//! stem whose cone is empty.
//!
//! Within a region the path to the stem is unique, which makes critical
//! path tracing exact (Abramovici, Menon and Miller, DAC 1983):
//!
//! * The *observability* of a gate is the set of slots in which flipping
//!   it flips its stem.  A stem's is the chunk's valid slots; every other
//!   gate's is computed loads first, as `eval(load with this gate's pin
//!   flipped) ^ good[load]`, ANDed with the load's observability.  The load
//!   is evaluated with `eval_chunk` on the flipped fanin rather than by a
//!   per-kind rule, so flip-flops, constants, inputs and XOR chains need no
//!   special case.
//! * A fault's *mask* is its excitation at its site — good XOR stuck for an
//!   output fault, or `eval(load with the pin stuck) ^ good[load]` for a pin
//!   fault — ANDed with the site's observability.  It is exactly the set of
//!   slots in which the fault flips its stem.
//! * Packed evaluation is slot-independent, and outside its region a fault
//!   acts only through its stem, so the fault's error words are its stem's
//!   error words, propagated in any superset of its mask, ANDed with its
//!   mask.
//!
//! So a consumer propagates each stem once per chunk, in the OR of its live
//! faults' masks, and hands each fault its stem's error list ANDed with the
//! fault's mask.  [`StemPass`] is that protocol for one run: it groups the
//! run's faults by stem once, and each shard's [`StemShard`] computes one
//! region's observability in one chunk, masks the region's live faults and
//! propagates their stem once.  A region with no live fault costs nothing,
//! so a run that drops faults stops paying for their regions.  A consumer
//! decides only which faults are still live and what to do with each
//! fault's masked list.
//! [`ConePropagator::propagate`] is the same composition for one fault:
//! mask, stem flip, AND.
//!
//! The kernel has two consumers, and this module is the only place the
//! propagation loop exists:
//!
//! * the [incremental engine](crate::incremental) ORs the error words into
//!   a detection word whose first set slot, under a fault's mask, is the
//!   fault's first detecting pattern within the chunk, and
//! * the BIST signature sweep (`lsiq_bist::signature`) folds each fault's
//!   masked copy into its multiple-input signature registers.
//!
//! # Sparse output contract
//!
//! A propagation returns the primary outputs the flip reaches as a list of
//! `(output position, error word)` pairs, where the error word is good XOR
//! faulty restricted to the flipped slots and is never zero.  Outputs the
//! cone does not reach are absent.  A dense per-output array would have to
//! be cleared for every `(stem, chunk)` pair, which on a wide-output device
//! costs more than the propagation itself.  The list is in propagation
//! order, not output order; both consumers fold it with XOR or OR, which do
//! not care.  A consumer ANDing the list with a fault's mask drops the
//! words that become zero, so a fault's own list keeps the contract.
//!
//! # Event propagation
//!
//! Every evaluation reads the gate's kind and drivers from the
//! [`CompiledCircuit`]'s flat gate table, the one the good machine
//! evaluates from, and folds the drivers' words straight into
//! `eval_chunk` without copying them out.
//!
//! Gates are processed in level order through per-level dirty buckets, so
//! every gate in the cone is evaluated at most once per `(stem, chunk)`:
//! when a level-`L` gate is popped, all of its disturbed drivers (levels
//! `< L`) are final.  The faulty-value and scheduled-gate arrays are
//! epoch-stamped — bumping one counter invalidates all per-stem state, so
//! nothing is cleared between stems and nothing is allocated after the
//! first calls.

use crate::model::{Fault, FaultSite};
use lsiq_netlist::circuit::GateId;
use lsiq_sim::cache::{circuit_fingerprint, GoodMachineCache};
use lsiq_sim::eval::eval_chunk;
use lsiq_sim::levelized::CompiledCircuit;
use lsiq_sim::packed::PackedBlock;
use lsiq_sim::pattern::PatternSet;
use std::ops::Range;
use std::sync::Arc;

/// [`FanoutRegions`]' marker for an absent entry: a gate that is not a
/// primary output, or a stem's missing one load.
const NONE: u32 = u32::MAX;

/// The fault-free image of one packed pattern chunk.
#[derive(Debug, Clone)]
pub struct GoodChunk<const L: usize> {
    /// The good-machine word of every gate, indexed by gate id.  Shared
    /// with the [`GoodMachineCache`] entry it came from, if any.
    pub words: Arc<Vec<PackedBlock<L>>>,
    /// The chunk's valid pattern slots.
    pub valid: PackedBlock<L>,
    /// Number of valid patterns (the low `count` slots).
    pub count: usize,
}

/// Packs every lane-wide chunk of `patterns` and evaluates its good machine
/// once — through `cache` when one is given.
///
/// Every chunk's full per-gate image is kept (O(gates × chunks × lanes)
/// words), so fault shards can replay chunks independently without
/// re-simulating the good machine.
pub fn good_chunks<const L: usize>(
    compiled: &CompiledCircuit<'_>,
    patterns: &PatternSet,
    cache: Option<&GoodMachineCache>,
) -> Vec<GoodChunk<L>> {
    let circuit = compiled.circuit();
    let input_count = circuit.primary_inputs().len();
    let fingerprint = cache.map(|_| circuit_fingerprint(circuit));
    let mut chunks = Vec::with_capacity(patterns.chunk_count(L));
    for chunk in 0..patterns.chunk_count(L) {
        let (inputs, count) = patterns.pack_chunk::<L>(input_count, chunk);
        if count == 0 {
            break;
        }
        let words = match (cache, fingerprint) {
            (Some(cache), Some(fingerprint)) => {
                cache.node_chunks_keyed(fingerprint, compiled, &inputs, count)
            }
            _ => Arc::new(compiled.node_chunks(&inputs)),
        };
        chunks.push(GoodChunk {
            words,
            valid: PackedBlock::valid_mask(count),
            count,
        });
    }
    chunks
}

/// A compiled circuit's fanout-free regions and the circuit-only tables the
/// kernel walks (see the [module docs](self)), built once per circuit and
/// shared by every shard of every run.
#[derive(Debug)]
pub struct FanoutRegions<'c> {
    /// The circuit, whose gate table the kernel evaluates from.
    compiled: CompiledCircuit<'c>,
    /// The stem of every gate's region; a stem is its own.
    stem: Vec<u32>,
    /// For a gate inside a region, its one load and the load's pin it
    /// drives; `(NONE, NONE)` for a stem.
    link: Vec<(u32, u32)>,
    /// `interior[interior_start[s]..interior_start[s + 1]]`: the gates
    /// inside stem `s`'s region other than `s`, every load before its
    /// drivers.
    interior_start: Vec<u32>,
    interior: Vec<u32>,
    /// The topological level of every gate.
    level: Vec<u32>,
    /// The deepest level.
    depth: usize,
    /// The primary-output position of every gate, or [`NONE`].
    output_position: Vec<u32>,
    /// `loads[load_start[g]..load_start[g + 1]]`: the distinct loads of
    /// gate `g` the kernel schedules, flip-flops excluded (one evaluation
    /// reads a flip-flop's held state, not its D pin).
    load_start: Vec<u32>,
    loads: Vec<u32>,
}

impl<'c> FanoutRegions<'c> {
    /// Maps every gate of `compiled`'s circuit to its region's stem, and
    /// keeps `compiled` for the kernel to evaluate from.
    ///
    /// # Panics
    ///
    /// Panics if a gate is listed twice as a primary output, which netlist
    /// construction never does.
    pub fn new(compiled: CompiledCircuit<'c>) -> FanoutRegions<'c> {
        // `CompiledCircuit::new` has checked that every gate index fits a
        // `u32` below `NONE`.
        let circuit = compiled.circuit();
        let gate_count = circuit.gate_count();
        let mut output_position = vec![NONE; gate_count];
        for (position, &out) in circuit.primary_outputs().iter().enumerate() {
            assert_eq!(
                output_position[out.index()],
                NONE,
                "gate listed twice as a primary output"
            );
            output_position[out.index()] = position as u32;
        }
        let levelization = compiled.levelization();
        let mut load_start = Vec::with_capacity(gate_count + 1);
        let mut loads = Vec::new();
        load_start.push(0);
        for gate in 0..gate_count {
            // `Circuit::fanout` lists a load once per pin, in id order.
            let mut previous = NONE;
            for &load in circuit.fanout(GateId(gate)) {
                let index = load.index() as u32;
                if index != previous && !circuit.gate(load).kind().is_state() {
                    loads.push(index);
                }
                previous = index;
            }
            load_start.push(loads.len() as u32);
        }
        // Loads first: a combinational load comes after its drivers in
        // topological order, so reversing it settles every load's stem
        // before its driver asks for it.
        let mut stem = vec![NONE; gate_count];
        let mut link = vec![(NONE, NONE); gate_count];
        let mut loads_first = Vec::new();
        for &id in levelization.order().iter().rev() {
            let gate = id.index();
            match *circuit.fanout(id) {
                [load]
                    if output_position[gate] == NONE && !circuit.gate(load).kind().is_state() =>
                {
                    let pin = circuit
                        .gate(load)
                        .fanin()
                        .iter()
                        .position(|&driver| driver == id)
                        .expect("a load lists its driver");
                    stem[gate] = stem[load.index()];
                    link[gate] = (load.index() as u32, pin as u32);
                    loads_first.push(gate as u32);
                }
                _ => stem[gate] = gate as u32,
            }
        }
        // A stable counting sort by stem keeps each region loads first.
        let mut interior_start = vec![0u32; gate_count + 1];
        for &gate in &loads_first {
            interior_start[stem[gate as usize] as usize + 1] += 1;
        }
        for gate in 0..gate_count {
            interior_start[gate + 1] += interior_start[gate];
        }
        let mut cursor = interior_start.clone();
        let mut interior = vec![0u32; loads_first.len()];
        for &gate in &loads_first {
            let slot = &mut cursor[stem[gate as usize] as usize];
            interior[*slot as usize] = gate;
            *slot += 1;
        }
        let level = levelization
            .levels()
            .iter()
            .map(|&level| level as u32)
            .collect();
        let depth = levelization.depth();
        FanoutRegions {
            compiled,
            stem,
            link,
            interior_start,
            interior,
            level,
            depth,
            output_position,
            load_start,
            loads,
        }
    }

    /// The compiled circuit the regions were built from.
    pub fn compiled(&self) -> &CompiledCircuit<'c> {
        &self.compiled
    }

    /// The stem of `gate`'s region (`gate` itself if it is a stem).
    pub fn stem(&self, gate: GateId) -> GateId {
        GateId(self.stem[gate.index()] as usize)
    }

    /// The gates inside `stem`'s region other than `stem`, every load
    /// before its drivers.
    fn interior(&self, stem: GateId) -> &[u32] {
        let stem = stem.index();
        &self.interior[self.interior_start[stem] as usize..self.interior_start[stem + 1] as usize]
    }

    /// Groups `faults` by the stem of their region: the order in which the
    /// consumers propagate stems and hand out their error lists.
    ///
    /// # Panics
    ///
    /// Panics if there are more than `u32::MAX` faults.
    fn group_faults(&self, faults: &[Fault]) -> StemGroups {
        assert!(
            faults.len() < u32::MAX as usize,
            "fault list exceeds the u32 index space"
        );
        let stem_of = |fault: &Fault| self.stem[fault.site.affected_gate().index()] as usize;
        // Counting sort by stem: `cursor[g]` starts as the first slot of
        // stem `g`'s faults.
        let mut cursor = vec![0u32; self.stem.len() + 1];
        for fault in faults {
            cursor[stem_of(fault) + 1] += 1;
        }
        let mut stems = Vec::new();
        let mut offsets = vec![0u32];
        for gate in 0..self.stem.len() {
            if cursor[gate + 1] > 0 {
                stems.push(gate as u32);
                offsets.push(offsets[offsets.len() - 1] + cursor[gate + 1]);
            }
            cursor[gate + 1] += cursor[gate];
        }
        let mut members = vec![0u32; faults.len()];
        for (index, fault) in faults.iter().enumerate() {
            let slot = &mut cursor[stem_of(fault)];
            members[*slot as usize] = index as u32;
            *slot += 1;
        }
        StemGroups {
            stems,
            offsets,
            members,
        }
    }

    /// Evaluates `gate` on the good words with input `pin` replaced by
    /// `word`.
    #[inline]
    fn eval_with_pin<const L: usize>(
        &self,
        gate: usize,
        pin: usize,
        word: PackedBlock<L>,
        good: &[PackedBlock<L>],
    ) -> PackedBlock<L> {
        let (kind, fanin) = self.compiled.gate(gate);
        eval_chunk(
            kind,
            fanin.iter().enumerate().map(|(position, &driver)| {
                if position == pin {
                    word
                } else {
                    good[driver as usize]
                }
            }),
        )
    }
}

/// A fault list grouped by the stem of each fault's region
/// ([`StemPass::groups`]): groups in ascending stem order, and within a
/// group the fault indices in ascending order, in one flat CSR layout.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StemGroups {
    stems: Vec<u32>,
    offsets: Vec<u32>,
    members: Vec<u32>,
}

impl StemGroups {
    /// Number of groups (stems with at least one fault).
    pub fn len(&self) -> usize {
        self.stems.len()
    }

    /// Returns `true` if there are no faults.
    pub fn is_empty(&self) -> bool {
        self.stems.is_empty()
    }

    /// The stem of group `group`.
    fn stem(&self, group: usize) -> GateId {
        GateId(self.stems[group] as usize)
    }

    /// The fault indices of groups `groups`, group after group: a shard's
    /// faults, in the order its per-fault results come out.
    pub fn members(&self, groups: Range<usize>) -> &[u32] {
        &self.members[self.offsets[groups.start] as usize..self.offsets[groups.end] as usize]
    }
}

/// One run's stem pass (see the [module docs](self)): the run's chunks and
/// its faults grouped by stem, shared by every shard.
///
/// ```
/// use lsiq_fault::cone::{good_chunks, FanoutRegions, StemPass};
/// use lsiq_fault::universe::FaultUniverse;
/// use lsiq_netlist::library;
/// use lsiq_sim::levelized::CompiledCircuit;
/// use lsiq_sim::packed::PackedBlock;
/// use lsiq_sim::pattern::{Pattern, PatternSet};
///
/// let circuit = library::c17();
/// let regions = FanoutRegions::new(CompiledCircuit::new(&circuit));
/// let patterns: PatternSet = (0..32).map(|v| Pattern::from_integer(v, 5)).collect();
/// let chunks = good_chunks::<1>(regions.compiled(), &patterns, None);
/// let universe = FaultUniverse::full(&circuit);
/// let pass = StemPass::new(&regions, &chunks, universe.faults());
/// let mut shard = pass.shard();
/// // Every fault of c17 is detected by some exhaustive pattern: some
/// // output's error word, under the fault's mask, is non-zero.
/// let groups = pass.groups();
/// let mut detected = 0;
/// for group in 0..groups.len() {
///     let (masks, errors) = shard.propagate(group, 0, |_| true);
///     let detect = errors.iter().fold(PackedBlock::ZERO, |d, &(_, e)| d | e);
///     detected += masks.iter().filter(|&&mask| !(mask & detect).is_zero()).count();
/// }
/// assert_eq!(detected, universe.len());
/// ```
#[derive(Debug)]
pub struct StemPass<'r, const L: usize> {
    regions: &'r FanoutRegions<'r>,
    chunks: &'r [GoodChunk<L>],
    faults: &'r [Fault],
    groups: StemGroups,
}

impl<'r, const L: usize> StemPass<'r, L> {
    /// Groups `faults` by the stem of their region, for a run over
    /// `chunks`.
    ///
    /// # Panics
    ///
    /// Panics if there are more than `u32::MAX` faults.
    pub fn new(
        regions: &'r FanoutRegions<'r>,
        chunks: &'r [GoodChunk<L>],
        faults: &'r [Fault],
    ) -> StemPass<'r, L> {
        StemPass {
            regions,
            chunks,
            faults,
            groups: regions.group_faults(faults),
        }
    }

    /// The run's faults grouped by stem: the unit consumers shard in
    /// contiguous ranges, and the order a shard's per-fault results come
    /// out in.
    pub fn groups(&self) -> &StemGroups {
        &self.groups
    }

    /// One shard's scratch state, with its own propagator.
    pub fn shard(&self) -> StemShard<'_, L> {
        StemShard {
            pass: self,
            cone: ConePropagator::new(self.regions),
            masks: Vec::new(),
            propagated: 0,
        }
    }
}

/// One shard's side of a [`StemPass`]: a propagator, the masks of the
/// group last propagated, and a count of stem propagations.
#[derive(Debug)]
pub struct StemShard<'p, const L: usize> {
    pass: &'p StemPass<'p, L>,
    cone: ConePropagator<'p, L>,
    masks: Vec<PackedBlock<L>>,
    propagated: u64,
}

impl<const L: usize> StemShard<'_, L> {
    /// Masks the live faults of group `group` in chunk `chunk` and
    /// propagates the group's stem once, in the OR of their masks.
    ///
    /// `live(member)` says whether the group's `member`-th fault is still
    /// live; a fault that is not gets a zero mask and costs nothing, and
    /// the region's observability is computed only if some fault is live.
    /// Returns every member's mask, in group order, and the stem's sparse
    /// `(primary-output position, error word)` list.  A fault's own list is
    /// the stem's list ANDed with its mask, zero words dropped.  The stem is
    /// not propagated, and the list is empty, when no live fault flips it.
    pub fn propagate(
        &mut self,
        group: usize,
        chunk: usize,
        mut live: impl FnMut(usize) -> bool,
    ) -> (&[PackedBlock<L>], &[(u32, PackedBlock<L>)]) {
        let pass = self.pass;
        let GoodChunk {
            words: good, valid, ..
        } = &pass.chunks[chunk];
        let stem = pass.groups.stem(group);
        self.masks.clear();
        let mut observed = false;
        let mut slots = PackedBlock::<L>::ZERO;
        for (member, &fault) in pass.groups.members(group..group + 1).iter().enumerate() {
            let mask = if live(member) {
                if !observed {
                    self.cone.observe_region(stem, good, *valid);
                    observed = true;
                }
                self.cone.fault_mask(&pass.faults[fault as usize], good)
            } else {
                PackedBlock::ZERO
            };
            slots |= mask;
            self.masks.push(mask);
        }
        if !slots.is_zero() {
            self.propagated += 1;
        }
        let errors = self.cone.propagate_stem(stem, slots, good);
        (&self.masks, errors)
    }

    /// How many times this shard propagated a stem: one per `(group,
    /// chunk)` in which a live fault flipped it.
    pub fn propagated(&self) -> u64 {
        self.propagated
    }
}

/// Reusable scratch state for propagating stem flips through their fanout
/// cones, one chunk at a time (see the [module docs](self)).
///
/// One propagator serves any number of `(stem, chunk)` pairs on one
/// thread; every [`StemShard`] owns one over the run's shared
/// [`FanoutRegions`].
///
/// ```
/// use lsiq_fault::cone::{good_chunks, ConePropagator, FanoutRegions};
/// use lsiq_fault::model::{Fault, StuckValue};
/// use lsiq_netlist::library;
/// use lsiq_sim::levelized::CompiledCircuit;
/// use lsiq_sim::pattern::{Pattern, PatternSet};
///
/// let circuit = library::half_adder();
/// let regions = FanoutRegions::new(CompiledCircuit::new(&circuit));
/// let patterns: PatternSet = (0..4).map(|v| Pattern::from_integer(v, 2)).collect();
/// let chunks = good_chunks::<1>(regions.compiled(), &patterns, None);
/// let carry = circuit.find_signal("carry").expect("exists");
/// let mut cone = ConePropagator::<1>::new(&regions);
/// // carry stuck-at-0 shows only at the carry output (position 1), only
/// // for a = b = 1 (pattern 3).
/// let fault = Fault::output(carry, StuckValue::Zero);
/// let errors = cone.propagate(&fault, &chunks[0].words, chunks[0].valid);
/// assert_eq!(errors.len(), 1);
/// assert_eq!(errors[0].0, 1);
/// assert_eq!(errors[0].1.first_set_slot(), Some(3));
/// ```
#[derive(Debug)]
pub struct ConePropagator<'a, const L: usize> {
    regions: &'a FanoutRegions<'a>,
    /// The observability of the gates of the region last observed.
    observability: Vec<PackedBlock<L>>,
    /// Faulty words; `faulty[g]` is live iff `value_stamp[g] == epoch`.
    faulty: Vec<PackedBlock<L>>,
    value_stamp: Vec<u64>,
    sched_stamp: Vec<u64>,
    buckets: Vec<Vec<u32>>,
    epoch: u64,
    errors: Vec<(u32, PackedBlock<L>)>,
}

impl<'a, const L: usize> ConePropagator<'a, L> {
    /// Allocates the scratch state for `regions`' circuit.
    pub fn new(regions: &'a FanoutRegions<'a>) -> Self {
        let gate_count = regions.stem.len();
        ConePropagator {
            regions,
            observability: vec![PackedBlock::ZERO; gate_count],
            faulty: vec![PackedBlock::ZERO; gate_count],
            value_stamp: vec![0; gate_count],
            sched_stamp: vec![0; gate_count],
            buckets: vec![Vec::new(); regions.depth + 1],
            epoch: 0,
            errors: Vec::new(),
        }
    }

    /// Computes the observability of every gate of `stem`'s region, for
    /// the chunk whose good-machine image is `good` and whose valid slots
    /// are `valid`: the slots in which flipping the gate flips `stem`.
    fn observe_region(&mut self, stem: GateId, good: &[PackedBlock<L>], valid: PackedBlock<L>) {
        let regions = self.regions;
        self.observability[stem.index()] = valid;
        for &gate in regions.interior(stem) {
            let gate = gate as usize;
            let (load, pin) = regions.link[gate];
            let (load, pin) = (load as usize, pin as usize);
            let downstream = self.observability[load];
            self.observability[gate] = if downstream.is_zero() {
                downstream
            } else {
                let flipped = regions.eval_with_pin(load, pin, !good[gate], good);
                (flipped ^ good[load]) & downstream
            };
        }
    }

    /// `fault`'s mask: the slots in which the fault flips the stem of its
    /// region, given the chunk's good-machine image `good`.  The region
    /// must be the one last observed
    /// ([`observe_region`](Self::observe_region)); the mask lies within the
    /// chunk's valid slots.
    fn fault_mask(&mut self, fault: &Fault, good: &[PackedBlock<L>]) -> PackedBlock<L> {
        let site = fault.site.affected_gate();
        let observed = self.observability[site.index()];
        if observed.is_zero() {
            observed
        } else {
            let stuck = PackedBlock::<L>::splat(fault.stuck.as_bool());
            // The fault flips its site where the faulty word differs from
            // the good one: an output fault pins the gate's word, a pin
            // fault re-evaluates the gate with that one pin stuck.
            let faulty = match fault.site {
                FaultSite::Output(_) => stuck,
                FaultSite::InputPin { pin, .. } => {
                    self.regions.eval_with_pin(site.index(), pin, stuck, good)
                }
            };
            (faulty ^ good[site.index()]) & observed
        }
    }

    /// Flips `stem` in `slots` (which must lie within the chunk's valid
    /// slots) over one chunk whose good-machine image is `good` (one word
    /// per gate, indexed by gate id), and propagates the difference.
    ///
    /// Returns the sparse `(primary-output position, error word)` list of
    /// the outputs the flip reaches; empty when `slots` is empty or the
    /// flip dies before any output.  This is the only propagation loop.
    fn propagate_stem(
        &mut self,
        stem: GateId,
        slots: PackedBlock<L>,
        good: &[PackedBlock<L>],
    ) -> &[(u32, PackedBlock<L>)] {
        self.errors.clear();
        if slots.is_zero() {
            return &self.errors;
        }
        let regions = self.regions;
        let compiled = &regions.compiled;
        self.epoch += 1;
        let epoch = self.epoch;
        let site = stem.index();
        self.faulty[site] = good[site] ^ slots;
        self.value_stamp[site] = epoch;
        self.record(site, slots);
        let mut pending = self.schedule_loads(site, epoch);
        // Drain dirty buckets in level order; a drained gate only ever
        // schedules strictly higher levels, so each cone gate is evaluated
        // at most once and its drivers are final when popped.
        let mut level = regions.level[site] as usize + 1;
        while pending > 0 {
            while self.buckets[level].is_empty() {
                level += 1;
            }
            let mut bucket = std::mem::take(&mut self.buckets[level]);
            for &dirty in &bucket {
                pending -= 1;
                let dirty_index = dirty as usize;
                let (kind, fanin) = compiled.gate(dirty_index);
                let word = eval_chunk(
                    kind,
                    fanin.iter().map(|&driver| {
                        let driver = driver as usize;
                        if self.value_stamp[driver] == epoch {
                            self.faulty[driver]
                        } else {
                            good[driver]
                        }
                    }),
                );
                let delta = word ^ good[dirty_index];
                if delta.is_zero() {
                    continue; // event died: the cone re-converged here
                }
                self.faulty[dirty_index] = word;
                self.value_stamp[dirty_index] = epoch;
                self.record(dirty_index, delta);
                pending += self.schedule_loads(dirty_index, epoch);
            }
            bucket.clear();
            self.buckets[level] = bucket;
        }
        &self.errors
    }

    /// Propagates one `fault` through one chunk whose good-machine image is
    /// `good` and whose valid pattern slots are `valid`: the fault's mask,
    /// its stem's flip in that mask, and the stem's error list ANDed with
    /// the mask.
    ///
    /// Returns the sparse `(primary-output position, error word)` list of
    /// the outputs the fault reaches; empty when the chunk does not excite
    /// the fault or its effect dies before any output.  Each call observes
    /// the fault's whole region, so this is the one-fault reference form:
    /// the engines observe each region once per chunk and propagate each
    /// stem once for all of its faults ([`StemShard::propagate`]).
    pub fn propagate(
        &mut self,
        fault: &Fault,
        good: &[PackedBlock<L>],
        valid: PackedBlock<L>,
    ) -> &[(u32, PackedBlock<L>)] {
        let stem = self.regions.stem(fault.site.affected_gate());
        self.observe_region(stem, good, valid);
        let mask = self.fault_mask(fault, good);
        self.propagate_stem(stem, mask, good);
        self.errors.retain_mut(|(_, error)| {
            *error &= mask;
            !error.is_zero()
        });
        &self.errors
    }

    /// Reports `delta` if gate `gate` is a primary output.
    #[inline]
    fn record(&mut self, gate: usize, delta: PackedBlock<L>) {
        let position = self.regions.output_position[gate];
        if position != NONE {
            self.errors.push((position, delta));
        }
    }

    /// Schedules every not-yet-scheduled load of `gate`; returns how many
    /// were newly scheduled.
    #[inline]
    fn schedule_loads(&mut self, gate: usize, epoch: u64) -> usize {
        let regions = self.regions;
        let loads = &regions.loads
            [regions.load_start[gate] as usize..regions.load_start[gate + 1] as usize];
        let mut scheduled = 0;
        for &load in loads {
            let index = load as usize;
            if self.sched_stamp[index] != epoch {
                self.sched_stamp[index] = epoch;
                self.buckets[regions.level[index] as usize].push(load);
                scheduled += 1;
            }
        }
        scheduled
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inject::{node_values_with_fault, outputs_with_fault};
    use crate::model::StuckValue;
    use crate::universe::FaultUniverse;
    use lsiq_netlist::circuit::Circuit;
    use lsiq_netlist::generator::{binary_counter, random_circuit, RandomCircuitConfig};
    use lsiq_netlist::scan::insert_scan;
    use lsiq_netlist::{CircuitBuilder, GateKind};
    use lsiq_sim::pattern::Pattern;
    use lsiq_stats::rng::{Rng, SplitMix64, Xoshiro256StarStar};

    fn random_patterns(width: usize, count: usize, seed: u64) -> PatternSet {
        let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
        (0..count)
            .map(|_| Pattern::from_bits((0..width).map(|_| rng.next_bool(0.5))))
            .collect()
    }

    /// Expands a sparse error list into one word per output, checking the
    /// contract: non-zero words, valid slots only, each output once.
    fn dense<const L: usize>(
        errors: &[(u32, PackedBlock<L>)],
        outputs: usize,
        valid: PackedBlock<L>,
        what: &dyn std::fmt::Display,
    ) -> Vec<PackedBlock<L>> {
        let mut dense = vec![PackedBlock::<L>::ZERO; outputs];
        for &(position, error) in errors {
            assert!(!error.is_zero(), "{what}: zero error word listed");
            assert!((error & !valid).is_zero(), "{what}: invalid slot");
            assert!(
                dense[position as usize].is_zero(),
                "{what}: output {position} listed twice"
            );
            dense[position as usize] = error;
        }
        dense
    }

    /// Checks [`ConePropagator::propagate`] — mask, stem flip, AND —
    /// against the scalar injector for every fault of `universe`, every
    /// chunk and every slot: the sparse list, expanded to one error bit per
    /// output, must equal good XOR faulty.
    fn assert_matches_scalar_oracle<const L: usize>(
        circuit: &Circuit,
        universe: &FaultUniverse,
        patterns: &PatternSet,
    ) {
        let regions = FanoutRegions::new(CompiledCircuit::new(circuit));
        let compiled = regions.compiled();
        let outputs = circuit.primary_outputs().len();
        let chunks = good_chunks::<L>(compiled, patterns, None);
        assert_eq!(chunks.len(), patterns.chunk_count(L));
        let good: Vec<Vec<bool>> = patterns.iter().map(|p| compiled.outputs(p)).collect();
        let mut cone = ConePropagator::<L>::new(&regions);
        for fault in universe {
            for (index, chunk) in chunks.iter().enumerate() {
                let errors = cone.propagate(fault, &chunk.words, chunk.valid);
                let dense = dense(errors, outputs, chunk.valid, fault);
                for slot in 0..chunk.count {
                    let pattern_index = index * PackedBlock::<L>::PATTERNS + slot;
                    let pattern = patterns.get(pattern_index).expect("valid slot");
                    let faulty = outputs_with_fault(compiled, pattern.bits(), fault);
                    for (output, error) in dense.iter().enumerate() {
                        assert_eq!(
                            error.bit(slot),
                            good[pattern_index][output] ^ faulty[output],
                            "{fault}, L = {L}, chunk {index}, slot {slot}, output {output}"
                        );
                    }
                }
            }
        }
    }

    /// Checks the stem pass the engines run, chunk by chunk: each fault's
    /// mask is exactly the slots in which the scalar injector flips its
    /// stem, and each group's one stem propagation gives every live fault
    /// of its region that fault's own error list once ANDed with its mask,
    /// whichever other faults share the propagation.
    fn assert_stem_lists_decompose<const L: usize>(
        circuit: &Circuit,
        universe: &FaultUniverse,
        patterns: &PatternSet,
    ) {
        let regions = FanoutRegions::new(CompiledCircuit::new(circuit));
        let compiled = regions.compiled();
        let outputs = circuit.primary_outputs();
        let chunks = good_chunks::<L>(compiled, patterns, None);
        let pass = StemPass::new(&regions, &chunks, universe.faults());
        let groups = pass.groups();
        let mut shard = pass.shard();
        for (index, chunk) in chunks.iter().enumerate() {
            let slot_values: Vec<(Vec<bool>, &[bool])> = (0..chunk.count)
                .map(|slot| {
                    let pattern = patterns
                        .get(index * PackedBlock::<L>::PATTERNS + slot)
                        .expect("valid slot");
                    (compiled.node_values(pattern), pattern.bits())
                })
                .collect();
            for group in 0..groups.len() {
                let stem = groups.stem(group);
                // The injector's stem flips and output errors of every
                // member, one word per output.
                let expected: Vec<(PackedBlock<L>, Vec<PackedBlock<L>>)> = groups
                    .members(group..group + 1)
                    .iter()
                    .map(|&member| {
                        let fault = universe.get(member as usize).expect("member in range");
                        assert_eq!(regions.stem(fault.site.affected_gate()), stem, "{fault}");
                        let mut mask = PackedBlock::<L>::ZERO;
                        let mut errors = vec![PackedBlock::<L>::ZERO; outputs.len()];
                        for (slot, (good_nodes, inputs)) in slot_values.iter().enumerate() {
                            let faulty_nodes = node_values_with_fault(compiled, inputs, fault);
                            let differs = |gate: GateId| {
                                faulty_nodes[gate.index()] != good_nodes[gate.index()]
                            };
                            let bit = 1u64 << (slot % 64);
                            if differs(stem) {
                                mask.0[slot / 64] |= bit;
                            }
                            for (error, &out) in errors.iter_mut().zip(outputs) {
                                if differs(out) {
                                    error.0[slot / 64] |= bit;
                                }
                            }
                        }
                        (mask, errors)
                    })
                    .collect();
                // Every fault live, then every other one.
                for (stride, offset) in [(1, 0), (2, 0), (2, 1)] {
                    let live = |member: usize| member % stride == offset;
                    let before = shard.propagated();
                    let (masks, errors) = shard.propagate(group, index, live);
                    let (masks, errors) = (masks.to_vec(), errors.to_vec());
                    assert_eq!(masks.len(), expected.len());
                    let flipped = masks.iter().any(|mask| !mask.is_zero());
                    assert_eq!(shard.propagated() - before, u64::from(flipped));
                    assert!(flipped || errors.is_empty());
                    for (member, (mask, (expected_mask, expected_errors))) in
                        masks.into_iter().zip(&expected).enumerate()
                    {
                        let fault = universe
                            .get(groups.members(group..group + 1)[member] as usize)
                            .expect("member in range");
                        if !live(member) {
                            assert!(
                                mask.is_zero(),
                                "{fault}: a fault that is not live has a mask"
                            );
                            continue;
                        }
                        assert_eq!(
                            mask, *expected_mask,
                            "{fault}: mask, L = {L}, chunk {index}"
                        );
                        let masked: Vec<_> = errors
                            .iter()
                            .map(|&(position, error)| (position, error & mask))
                            .filter(|(_, error)| !error.is_zero())
                            .collect();
                        assert_eq!(
                            dense(&masked, outputs.len(), mask, fault),
                            *expected_errors,
                            "{fault}: L = {L}, chunk {index}"
                        );
                    }
                }
            }
        }
    }

    /// Both checks at every lane width, each over two chunks with a partial
    /// last one.
    fn assert_exact(circuit: &Circuit, universe: &FaultUniverse, seed: u64) {
        let inputs = circuit.primary_inputs().len();
        let patterns = random_patterns(inputs, 64 + 29, seed);
        assert_matches_scalar_oracle::<1>(circuit, universe, &patterns);
        assert_stem_lists_decompose::<1>(circuit, universe, &patterns);
        let patterns = random_patterns(inputs, 256 + 40, seed + 10);
        assert_matches_scalar_oracle::<4>(circuit, universe, &patterns);
        assert_stem_lists_decompose::<4>(circuit, universe, &patterns);
        let patterns = random_patterns(inputs, 512 + 3, seed + 20);
        assert_matches_scalar_oracle::<8>(circuit, universe, &patterns);
        assert_stem_lists_decompose::<8>(circuit, universe, &patterns);
    }

    /// Every region edge case in one circuit: a gate driving two pins of
    /// one load, outputs that also fan out, a dangling gate, constants and
    /// an XOR/XNOR chain.
    fn edge_case_circuit() -> Circuit {
        let mut builder = CircuitBuilder::new("regions");
        let a = builder.input("a");
        let b = builder.input("b");
        let c = builder.input("c");
        let d = builder.input("d");
        let one = builder.constant_one("one");
        let zero = builder.constant_zero("zero");
        // `na` has one load but drives two of its pins.
        let na = builder.gate("na", GateKind::Not, &[a]);
        let twice = builder.gate("twice", GateKind::And, &[na, na, b]);
        let x1 = builder.gate("x1", GateKind::Xor, &[b, c]);
        let x2 = builder.gate("x2", GateKind::Xnor, &[x1, d, twice]);
        let x3 = builder.gate("x3", GateKind::Xor, &[x2, one]);
        let k = builder.gate("k", GateKind::Or, &[zero, c]);
        // `x3` and `o1` are outputs with one load each, `o2` one with none.
        let o1 = builder.gate("o1", GateKind::Nand, &[x3, k]);
        let o2 = builder.gate("o2", GateKind::Nor, &[o1, d]);
        let _dangling = builder.gate("dangling", GateKind::Nor, &[a, d]);
        builder.mark_output(o1);
        builder.mark_output(o2);
        builder.mark_output(x3);
        builder.finish().expect("valid circuit")
    }

    /// The full universe plus the output faults it leaves out on constants.
    fn with_constant_faults(circuit: &Circuit) -> FaultUniverse {
        let mut faults = FaultUniverse::full(circuit).faults().to_vec();
        for (id, gate) in circuit.iter() {
            if matches!(gate.kind(), GateKind::Const0 | GateKind::Const1) {
                faults.extend(StuckValue::BOTH.map(|stuck| Fault::output(id, stuck)));
            }
        }
        FaultUniverse::from_faults(faults)
    }

    #[test]
    fn regions_end_at_outputs_fanout_flip_flops_and_dangling_gates() {
        let circuit = edge_case_circuit();
        let regions = FanoutRegions::new(CompiledCircuit::new(&circuit));
        let compiled = regions.compiled();
        let gate = |name: &str| circuit.find_signal(name).expect("exists");
        // One load on two pins is two fanout entries: a stem.
        assert_eq!(circuit.fanout(gate("na")).len(), 2);
        assert_eq!(regions.stem(gate("na")), gate("na"));
        // An output with one load, and outputs with none, are stems.
        assert_eq!(regions.stem(gate("o1")), gate("o1"));
        assert_eq!(regions.stem(gate("x3")), gate("x3"));
        assert_eq!(regions.stem(gate("o2")), gate("o2"));
        // One-load chains end at the first stem down the path.
        assert_eq!(regions.stem(gate("x2")), gate("x3"));
        assert_eq!(regions.stem(gate("x1")), gate("x3"));
        assert_eq!(regions.stem(gate("twice")), gate("x3"));
        assert_eq!(regions.stem(gate("one")), gate("x3"));
        assert_eq!(regions.stem(gate("k")), gate("o1"));
        assert_eq!(regions.stem(gate("zero")), gate("o1"));
        // A gate with no load that is no output is a stem with no cone.
        let dangling = gate("dangling");
        assert_eq!(regions.stem(dangling), dangling);
        let chunks = good_chunks::<1>(
            compiled,
            &(0..16).map(|v| Pattern::from_integer(v, 4)).collect(),
            None,
        );
        let mut cone = ConePropagator::<1>::new(&regions);
        assert!(cone
            .propagate_stem(dangling, chunks[0].valid, &chunks[0].words)
            .is_empty());
        // a, b, c, d, na, o1, o2, x3, dangling.
        let stems = circuit.iter().filter(|&(id, _)| regions.stem(id) == id);
        assert_eq!(stems.count(), 9);
        // Every other gate is listed once, in its own stem's region, after
        // its one load.
        let mut listed = vec![0; circuit.gate_count()];
        for (stem, _) in circuit.iter().filter(|&(id, _)| regions.stem(id) == id) {
            let interior = regions.interior(stem);
            for (position, &gate) in interior.iter().enumerate() {
                let gate = gate as usize;
                listed[gate] += 1;
                assert_eq!(regions.stem(GateId(gate)), stem);
                let load = regions.link[gate].0;
                assert!(load == stem.index() as u32 || interior[..position].contains(&load));
            }
        }
        for (id, _) in circuit.iter() {
            assert_eq!(listed[id.index()], usize::from(regions.stem(id) != id));
        }

        // A flip-flop's D pin ends a region: in the counter, every gate
        // whose one load is a flip-flop is a stem.
        let counter = binary_counter(4);
        let regions = FanoutRegions::new(CompiledCircuit::new(&counter));
        let mut d_drivers = 0;
        for (id, _) in counter.iter() {
            if let &[load] = counter.fanout(id) {
                if counter.gate(load).kind().is_state() {
                    assert_eq!(regions.stem(id), id, "{}", counter.signal_name(id));
                    d_drivers += 1;
                }
            }
        }
        assert!(d_drivers > 0);
    }

    #[test]
    fn masks_are_excitation_and_observability_within_valid_slots() {
        // A pin fault's mask is the load re-evaluated with that pin stuck,
        // XOR the load's good word, under the load's observability; every
        // mask stays inside the chunk's valid slots.
        let circuit = edge_case_circuit();
        let regions = FanoutRegions::new(CompiledCircuit::new(&circuit));
        let compiled = regions.compiled();
        let patterns: PatternSet = (0..11).map(|v| Pattern::from_integer(v, 4)).collect();
        let chunk = &good_chunks::<1>(compiled, &patterns, None)[0];
        let mut cone = ConePropagator::<1>::new(&regions);
        let x2 = circuit.find_signal("x2").expect("exists");
        let x3 = circuit.find_signal("x3").expect("exists");
        assert_eq!(regions.stem(x2), x3);
        cone.observe_region(x3, &chunk.words, chunk.valid);
        // A stem is observable in exactly the valid slots.
        assert_eq!(cone.observability[x3.index()], chunk.valid);
        let observed = cone.observability[x2.index()];
        for pin in 0..3 {
            for stuck in StuckValue::BOTH {
                let fault = Fault::input_pin(x2, pin, stuck);
                let mut fanin: Vec<_> = circuit
                    .gate(x2)
                    .fanin()
                    .iter()
                    .map(|driver| chunk.words[driver.index()])
                    .collect();
                fanin[pin] = PackedBlock::splat(stuck.as_bool());
                let excitation = eval_chunk(GateKind::Xnor, fanin) ^ chunk.words[x2.index()];
                let mask = cone.fault_mask(&fault, &chunk.words);
                assert_eq!(mask, excitation & observed, "{fault}");
            }
        }
        for fault in &with_constant_faults(&circuit) {
            let stem = regions.stem(fault.site.affected_gate());
            cone.observe_region(stem, &chunk.words, chunk.valid);
            let mask = cone.fault_mask(fault, &chunk.words);
            assert!((mask & !chunk.valid).is_zero(), "{fault}");
        }
    }

    #[test]
    fn kernel_matches_the_scalar_injector_on_random_circuits() {
        for case in 0..3u64 {
            let mut rng = SplitMix64::seed_from_u64(0xC0DE ^ case);
            let inputs = 5 + (rng.next_u64() % 4) as usize;
            let circuit = random_circuit(&RandomCircuitConfig {
                inputs,
                gates: 20 + (rng.next_u64() % 20) as usize,
                max_fanin: 2 + (rng.next_u64() % 3) as usize,
                seed: rng.next_u64(),
                ..RandomCircuitConfig::default()
            });
            for universe in [
                FaultUniverse::full(&circuit),
                FaultUniverse::checkpoint(&circuit),
            ] {
                assert_exact(&circuit, &universe, case);
            }
        }
    }

    #[test]
    fn kernel_is_exact_on_every_region_edge_case() {
        let circuit = edge_case_circuit();
        assert_exact(&circuit, &with_constant_faults(&circuit), 3);
        // A scan test view: flip-flops become pseudo-primary inputs and
        // outputs.  And the sequential counter itself, whose next-state
        // logic ends at flip-flop D pins.
        let counter = binary_counter(4);
        let scan = insert_scan(&counter, 2).expect("two chains fit four flip-flops");
        assert_exact(scan.test_view(), &FaultUniverse::full(scan.test_view()), 5);
        assert_exact(&counter, &FaultUniverse::full(&counter), 7);
    }

    #[test]
    fn kernel_handles_input_faults_and_an_input_that_is_an_output() {
        // `a` is both a primary input and a primary output, and also feeds
        // logic; `b` fans out to an inverter and an OR pin.
        let mut builder = CircuitBuilder::new("pass-through");
        let a = builder.input("a");
        let b = builder.input("b");
        let c = builder.input("c");
        let nb = builder.gate("nb", GateKind::Not, &[b]);
        let y = builder.gate("y", GateKind::And, &[a, nb, c]);
        let z = builder.gate("z", GateKind::Or, &[b, y]);
        builder.mark_output(a);
        builder.mark_output(y);
        builder.mark_output(z);
        let circuit = builder.finish().expect("valid circuit");
        let universe = FaultUniverse::full(&circuit);
        // Output faults on every primary input, and pin faults.
        for input in [a, b, c] {
            for stuck in StuckValue::BOTH {
                assert!(universe.position(&Fault::output(input, stuck)).is_some());
            }
        }
        assert!(universe
            .iter()
            .any(|fault| matches!(fault.site, FaultSite::InputPin { .. })));
        let exhaustive: PatternSet = (0..8).map(|v| Pattern::from_integer(v, 3)).collect();
        assert_matches_scalar_oracle::<1>(&circuit, &universe, &exhaustive);
        assert_matches_scalar_oracle::<4>(&circuit, &universe, &exhaustive);
        assert_stem_lists_decompose::<1>(&circuit, &universe, &exhaustive);
    }

    #[test]
    fn group_faults_lists_every_fault_once_under_its_stem() {
        let circuit = edge_case_circuit();
        let regions = FanoutRegions::new(CompiledCircuit::new(&circuit));
        let universe = FaultUniverse::full(&circuit);
        let groups = regions.group_faults(universe.faults());
        let all = groups.members(0..groups.len());
        let mut sorted = all.to_vec();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..universe.len() as u32).collect::<Vec<_>>());
        for group in 0..groups.len() {
            if group > 0 {
                assert!(groups.stem(group - 1) < groups.stem(group));
            }
            let members = groups.members(group..group + 1);
            assert!(!members.is_empty());
            assert!(members.windows(2).all(|pair| pair[0] < pair[1]));
            for &member in members {
                let fault = universe.get(member as usize).expect("in range");
                assert_eq!(regions.stem(fault.site.affected_gate()), groups.stem(group));
            }
        }
        assert!(regions.group_faults(&[]).is_empty());
    }
}

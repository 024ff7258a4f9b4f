//! Fault lists with detection bookkeeping, and the arena-backed sorted-list
//! representation the deductive engine propagates through the circuit.

use crate::model::Fault;
use crate::universe::FaultUniverse;

/// A handle to one sorted, duplicate-free fault-index list stored in a
/// [`ListArena`].
///
/// Handles are plain `(offset, length)` pairs into the arena's backing
/// storage, so copying one is free and two handles may alias the same
/// storage: a buffer gate's output list *is* its input list, and a pin whose
/// own stuck fault is absent shares its driver's list without copying a
/// single element.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ListRef {
    start: u32,
    len: u32,
}

impl ListRef {
    /// The canonical empty list (valid in every arena).
    pub(crate) const EMPTY: ListRef = ListRef { start: 0, len: 0 };

    /// Returns `true` if the list holds no fault indices.
    pub(crate) fn is_empty(self) -> bool {
        self.len == 0
    }
}

/// A bump arena of sorted `u32` fault-index lists.
///
/// This is the storage behind the deductive simulator's per-signal fault
/// lists.  All lists of one propagation pass live in a single `Vec<u32>`;
/// [`reset`](ListArena::reset) truncates it without releasing capacity, so
/// after the first pattern of a run the engine allocates nothing at all.
/// Every set operation (union, intersection, subtraction, symmetric
/// difference) is a linear merge over two sorted slices that appends its
/// result to the arena and returns a new handle — with handle-sharing fast
/// paths for the empty and identical-operand cases.
#[derive(Debug, Default, Clone)]
pub(crate) struct ListArena {
    storage: Vec<u32>,
}

impl ListArena {
    /// Creates an empty arena.
    pub(crate) fn new() -> ListArena {
        ListArena::default()
    }

    /// Drops every list but keeps the allocated capacity for the next pass.
    pub(crate) fn reset(&mut self) {
        self.storage.clear();
    }

    /// Total number of interned elements.
    #[cfg(test)]
    fn interned_len(&self) -> usize {
        self.storage.len()
    }

    /// The sorted fault indices behind `list`.
    pub(crate) fn slice(&self, list: ListRef) -> &[u32] {
        &self.storage[list.start as usize..(list.start + list.len) as usize]
    }

    /// Interns a one-element list.
    pub(crate) fn singleton(&mut self, value: u32) -> ListRef {
        let start = self.storage.len();
        self.storage.push(value);
        self.finish(start)
    }

    /// Interns a copy of a sorted, duplicate-free slice.
    #[cfg(test)]
    fn intern(&mut self, values: &[u32]) -> ListRef {
        debug_assert!(values.windows(2).all(|w| w[0] < w[1]));
        let start = self.storage.len();
        self.storage.extend_from_slice(values);
        self.finish(start)
    }

    fn finish(&mut self, start: usize) -> ListRef {
        // Handles are u32 offsets; a pass interning more than 2^32 elements
        // must fail loudly rather than silently alias earlier lists.
        assert!(
            self.storage.len() <= u32::MAX as usize,
            "fault-list arena exceeds u32 handle space"
        );
        ListRef {
            start: start as u32,
            len: (self.storage.len() - start) as u32,
        }
    }

    /// `a ∪ {value}` — returns `a` unchanged when it already contains
    /// `value`.
    pub(crate) fn insert(&mut self, a: ListRef, value: u32) -> ListRef {
        if a.is_empty() {
            return self.singleton(value);
        }
        let (lo, end) = (a.start as usize, (a.start + a.len) as usize);
        let split = match self.storage[lo..end].binary_search(&value) {
            Ok(_) => return a,
            Err(insertion_point) => lo + insertion_point,
        };
        let start = self.storage.len();
        self.storage.extend_from_within(lo..split);
        self.storage.push(value);
        self.storage.extend_from_within(split..end);
        self.finish(start)
    }

    /// `a ∪ b`.
    pub(crate) fn union(&mut self, a: ListRef, b: ListRef) -> ListRef {
        if a.is_empty() || a == b {
            return b;
        }
        if b.is_empty() {
            return a;
        }
        let start = self.storage.len();
        let (mut i, ae) = (a.start as usize, (a.start + a.len) as usize);
        let (mut j, be) = (b.start as usize, (b.start + b.len) as usize);
        while i < ae && j < be {
            let (x, y) = (self.storage[i], self.storage[j]);
            let v = x.min(y);
            if x <= v {
                i += 1;
            }
            if y <= v {
                j += 1;
            }
            self.storage.push(v);
        }
        self.storage.extend_from_within(i..ae);
        self.storage.extend_from_within(j..be);
        self.finish(start)
    }

    /// `a ∩ b`.
    pub(crate) fn intersect(&mut self, a: ListRef, b: ListRef) -> ListRef {
        if a == b {
            return a;
        }
        if a.is_empty() || b.is_empty() {
            return ListRef::EMPTY;
        }
        let start = self.storage.len();
        let (mut i, ae) = (a.start as usize, (a.start + a.len) as usize);
        let (mut j, be) = (b.start as usize, (b.start + b.len) as usize);
        while i < ae && j < be {
            let (x, y) = (self.storage[i], self.storage[j]);
            match x.cmp(&y) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    self.storage.push(x);
                    i += 1;
                    j += 1;
                }
            }
        }
        self.finish(start)
    }

    /// `a ∖ b` — the elements of `a` not in `b`.
    pub(crate) fn subtract(&mut self, a: ListRef, b: ListRef) -> ListRef {
        if a.is_empty() || a == b {
            return ListRef::EMPTY;
        }
        if b.is_empty() {
            return a;
        }
        let start = self.storage.len();
        let (mut i, ae) = (a.start as usize, (a.start + a.len) as usize);
        let (mut j, be) = (b.start as usize, (b.start + b.len) as usize);
        while i < ae {
            let x = self.storage[i];
            while j < be && self.storage[j] < x {
                j += 1;
            }
            if j < be && self.storage[j] == x {
                i += 1;
                j += 1;
            } else {
                self.storage.push(x);
                i += 1;
            }
        }
        self.finish(start)
    }

    /// `a △ b` — the elements in exactly one of the two lists (the deductive
    /// XOR parity rule).
    pub(crate) fn symmetric_difference(&mut self, a: ListRef, b: ListRef) -> ListRef {
        if a == b {
            return ListRef::EMPTY;
        }
        if a.is_empty() {
            return b;
        }
        if b.is_empty() {
            return a;
        }
        let start = self.storage.len();
        let (mut i, ae) = (a.start as usize, (a.start + a.len) as usize);
        let (mut j, be) = (b.start as usize, (b.start + b.len) as usize);
        while i < ae && j < be {
            let (x, y) = (self.storage[i], self.storage[j]);
            match x.cmp(&y) {
                std::cmp::Ordering::Less => {
                    self.storage.push(x);
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    self.storage.push(y);
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    i += 1;
                    j += 1;
                }
            }
        }
        self.storage.extend_from_within(i..ae);
        self.storage.extend_from_within(j..be);
        self.finish(start)
    }
}

/// Detection status of one fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DetectionState {
    /// Not detected by any pattern applied so far.
    Undetected,
    /// First detected by the pattern with this zero-based index.
    Detected {
        /// Index of the first detecting pattern in application order.
        pattern: usize,
    },
}

impl DetectionState {
    /// Returns `true` if the fault has been detected.
    pub fn is_detected(self) -> bool {
        matches!(self, DetectionState::Detected { .. })
    }

    /// The first detecting pattern, if any.
    pub fn first_pattern(self) -> Option<usize> {
        match self {
            DetectionState::Detected { pattern } => Some(pattern),
            DetectionState::Undetected => None,
        }
    }
}

/// A fault universe together with per-fault detection status.
///
/// This is the bookkeeping structure every fault simulator fills in; its
/// [`coverage`](FaultList::coverage) is the paper's `f = m / N`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultList {
    faults: Vec<Fault>,
    states: Vec<DetectionState>,
}

impl FaultList {
    /// Creates a fault list with every fault of `universe` undetected.
    pub fn new(universe: &FaultUniverse) -> FaultList {
        FaultList {
            faults: universe.faults().to_vec(),
            states: vec![DetectionState::Undetected; universe.len()],
        }
    }

    /// Number of faults `N`.
    pub fn len(&self) -> usize {
        self.faults.len()
    }

    /// Returns `true` if the list holds no faults.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// The fault at `index`.
    pub fn fault(&self, index: usize) -> &Fault {
        &self.faults[index]
    }

    /// The detection state of the fault at `index`.
    pub fn state(&self, index: usize) -> DetectionState {
        self.states[index]
    }

    /// Iterates over `(fault, state)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&Fault, DetectionState)> {
        self.faults.iter().zip(self.states.iter().copied())
    }

    /// Indices of faults that are still undetected.
    pub fn undetected_indices(&self) -> Vec<usize> {
        self.states
            .iter()
            .enumerate()
            .filter(|(_, s)| !s.is_detected())
            .map(|(i, _)| i)
            .collect()
    }

    /// Marks the fault at `index` as detected by `pattern` unless it already
    /// has an earlier (or equal) first detection.  Returns `true` if the
    /// state changed.
    pub fn mark_detected(&mut self, index: usize, pattern: usize) -> bool {
        match self.states[index] {
            DetectionState::Undetected => {
                self.states[index] = DetectionState::Detected { pattern };
                true
            }
            DetectionState::Detected { pattern: existing } if pattern < existing => {
                self.states[index] = DetectionState::Detected { pattern };
                true
            }
            DetectionState::Detected { .. } => false,
        }
    }

    /// Number of detected faults `m`.
    pub fn detected_count(&self) -> usize {
        self.states.iter().filter(|s| s.is_detected()).count()
    }

    /// Fault coverage `f = m / N` (zero for an empty list).
    pub fn coverage(&self) -> f64 {
        if self.faults.is_empty() {
            0.0
        } else {
            self.detected_count() as f64 / self.faults.len() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsiq_netlist::library;

    fn small_list() -> FaultList {
        FaultList::new(&FaultUniverse::full(&library::half_adder()))
    }

    #[test]
    fn new_list_is_fully_undetected() {
        let list = small_list();
        assert!(!list.is_empty());
        assert_eq!(list.detected_count(), 0);
        assert_eq!(list.coverage(), 0.0);
        assert_eq!(list.undetected_indices().len(), list.len());
        assert!(!list.state(0).is_detected());
    }

    #[test]
    fn marking_detection_updates_coverage() {
        let mut list = small_list();
        assert!(list.mark_detected(0, 3));
        assert!(list.mark_detected(1, 7));
        assert_eq!(list.detected_count(), 2);
        let expected = 2.0 / list.len() as f64;
        assert!((list.coverage() - expected).abs() < 1e-12);
        assert_eq!(list.state(0).first_pattern(), Some(3));
    }

    #[test]
    fn earlier_detection_wins() {
        let mut list = small_list();
        assert!(list.mark_detected(0, 10));
        // A later pattern cannot overwrite an earlier first detection.
        assert!(!list.mark_detected(0, 20));
        assert_eq!(list.state(0).first_pattern(), Some(10));
        // But an earlier one can.
        assert!(list.mark_detected(0, 5));
        assert_eq!(list.state(0).first_pattern(), Some(5));
    }

    #[test]
    fn iteration_and_first_detections() {
        let mut list = small_list();
        list.mark_detected(2, 0);
        list.mark_detected(4, 1);
        assert_eq!(list.detected_count(), 2);
        assert_eq!(list.state(2).first_pattern(), Some(0));
        assert_eq!(list.state(4).first_pattern(), Some(1));
        assert_eq!(list.iter().count(), list.len());
        assert_eq!(list.undetected_indices().len(), list.len() - 2);
    }

    #[test]
    fn empty_list_coverage_is_zero() {
        let list = FaultList::new(&FaultUniverse::from_faults(Vec::new()));
        assert!(list.is_empty());
        assert_eq!(list.coverage(), 0.0);
    }

    /// Reference implementation of the arena set operations on `Vec<u32>`.
    fn naive(op: &str, a: &[u32], b: &[u32]) -> Vec<u32> {
        use std::collections::BTreeSet;
        let a: BTreeSet<u32> = a.iter().copied().collect();
        let b: BTreeSet<u32> = b.iter().copied().collect();
        let set: BTreeSet<u32> = match op {
            "union" => a.union(&b).copied().collect(),
            "intersect" => a.intersection(&b).copied().collect(),
            "subtract" => a.difference(&b).copied().collect(),
            "symmetric" => a.symmetric_difference(&b).copied().collect(),
            _ => unreachable!(),
        };
        set.into_iter().collect()
    }

    #[test]
    fn arena_operations_match_set_semantics() {
        use lsiq_stats::rng::{Rng, Xoshiro256StarStar};
        let mut rng = Xoshiro256StarStar::seed_from_u64(99);
        for _ in 0..200 {
            let mut a: Vec<u32> = (0..rng.next_bounded(12))
                .map(|_| rng.next_bounded(20) as u32)
                .collect();
            let mut b: Vec<u32> = (0..rng.next_bounded(12))
                .map(|_| rng.next_bounded(20) as u32)
                .collect();
            a.sort_unstable();
            a.dedup();
            b.sort_unstable();
            b.dedup();
            let mut arena = ListArena::new();
            let ra = arena.intern(&a);
            let rb = arena.intern(&b);
            for op in ["union", "intersect", "subtract", "symmetric"] {
                let result = match op {
                    "union" => arena.union(ra, rb),
                    "intersect" => arena.intersect(ra, rb),
                    "subtract" => arena.subtract(ra, rb),
                    "symmetric" => arena.symmetric_difference(ra, rb),
                    _ => unreachable!(),
                };
                assert_eq!(
                    arena.slice(result),
                    naive(op, &a, &b),
                    "{op} of {a:?} and {b:?}"
                );
            }
        }
    }

    #[test]
    fn arena_insert_is_sorted_and_idempotent() {
        let mut arena = ListArena::new();
        let mut list = ListRef::EMPTY;
        for value in [5u32, 1, 9, 5, 3, 9] {
            list = arena.insert(list, value);
        }
        assert_eq!(arena.slice(list), &[1, 3, 5, 9]);
        // Inserting a present element returns the same handle (no copy).
        let same = arena.insert(list, 3);
        assert_eq!(same, list);
    }

    #[test]
    fn arena_shares_handles_on_trivial_operations() {
        let mut arena = ListArena::new();
        let a = arena.intern(&[2, 4, 6]);
        let before = arena.interned_len();
        // All of these must be handle-returning fast paths, not copies.
        assert_eq!(arena.union(a, ListRef::EMPTY), a);
        assert_eq!(arena.union(ListRef::EMPTY, a), a);
        assert_eq!(arena.union(a, a), a);
        assert_eq!(arena.intersect(a, a), a);
        assert_eq!(arena.subtract(a, ListRef::EMPTY), a);
        assert_eq!(arena.subtract(a, a), ListRef::EMPTY);
        assert_eq!(arena.symmetric_difference(a, ListRef::EMPTY), a);
        assert_eq!(arena.symmetric_difference(a, a), ListRef::EMPTY);
        assert_eq!(arena.interned_len(), before);
    }

    #[test]
    fn arena_reset_keeps_capacity() {
        let mut arena = ListArena::new();
        for i in 0..100 {
            arena.singleton(i);
        }
        assert_eq!(arena.interned_len(), 100);
        arena.reset();
        assert_eq!(arena.interned_len(), 0);
        let list = arena.singleton(7);
        assert_eq!(arena.slice(list), &[7]);
    }
}

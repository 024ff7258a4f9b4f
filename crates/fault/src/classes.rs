//! Simulation-class machinery shared by the deductive and incremental
//! engines.
//!
//! Both engines optionally partition the requested fault universe into
//! structural equivalence classes ([`collapse_equivalence`]) and simulate
//! one representative per class, crediting its detections to every member.
//! Equivalent faults are detected by exactly the same patterns, so the
//! reported results are identical to a full-universe run — the collapsed
//! pass just carries fewer faults.  The grouping logic (and the
//! circuit-only state it caches) lives here so the two engines cannot
//! drift apart.

use crate::collapse::collapse_equivalence;
use crate::universe::{FaultUniverse, SiteTable};
use lsiq_netlist::circuit::Circuit;
use std::cell::OnceCell;

/// The circuit-only collapsing state a simulator reuses across `run` calls
/// (suite builders re-simulate a growing pattern set many times; the
/// equivalence classes never change).
///
/// Only the class of every full-universe position is kept.  Runs on the
/// full universe — the common case — map faults to classes by position;
/// any other universe resolves positions through a [`SiteTable`] built on
/// its first use.
#[derive(Debug)]
pub(crate) struct CollapseContext {
    /// Equivalence class of every full-universe position; classes are
    /// numbered in order of first appearance.
    class_of: Vec<u32>,
    class_count: usize,
    table: OnceCell<SiteTable>,
}

impl CollapseContext {
    pub(crate) fn new(circuit: &Circuit) -> CollapseContext {
        let equivalence = collapse_equivalence(circuit);
        CollapseContext {
            class_of: equivalence
                .representative_of
                .iter()
                .map(|class| class.expect("equivalence collapsing keeps every class") as u32)
                .collect(),
            class_count: equivalence.collapsed.len(),
            table: OnceCell::new(),
        }
    }
}

/// Partitions the universe's fault indices into groups that provably share
/// their set of detecting patterns; each group is simulated through its
/// first member.
///
/// With `collapse` disabled every fault is its own singleton class.  The
/// `cache` cell is lazily filled with the circuit's [`CollapseContext`] on
/// the first collapsing call and reused afterwards, so disabling collapsing
/// never pays for it and engines that `run` repeatedly pay for it once.
pub(crate) fn simulation_classes(
    circuit: &Circuit,
    cache: &OnceCell<CollapseContext>,
    collapse: bool,
    universe: &FaultUniverse,
) -> SimulationClasses {
    assert!(
        universe.len() <= u32::MAX as usize,
        "fault universe exceeds u32 index space"
    );
    if !collapse {
        return SimulationClasses::identity(universe.len());
    }
    let context = cache.get_or_init(|| CollapseContext::new(circuit));
    // On the full universe the fault → full-position mapping is the
    // identity and the classes are already numbered in first-appearance
    // order.
    if universe.len() == context.class_of.len() && universe.is_full(circuit) {
        return SimulationClasses::from_class_of(&context.class_of, context.class_count);
    }
    let table = context
        .table
        .get_or_init(|| SiteTable::new(circuit, &FaultUniverse::full(circuit)));
    let mut class_of: Vec<u32> = Vec::with_capacity(universe.len());
    let mut renumbered: Vec<Option<u32>> = vec![None; context.class_count];
    let mut class_count = 0u32;
    let mut fresh = || {
        class_count += 1;
        class_count - 1
    };
    for fault in universe.iter() {
        let class = match table.position(fault) {
            Some(position) => *renumbered[context.class_of[position as usize] as usize]
                .get_or_insert_with(&mut fresh),
            // A fault outside the full structural universe cannot be
            // collapsed against it; simulate it individually.
            None => fresh(),
        };
        class_of.push(class);
    }
    SimulationClasses::from_class_of(&class_of, class_count as usize)
}

/// The universe fault indices of a run grouped into simulation classes, in a
/// flat CSR layout (no per-class allocation).  Members of one class are in
/// ascending universe order; the first member is the propagated
/// representative.
pub(crate) struct SimulationClasses {
    members: Vec<u32>,
    offsets: Vec<u32>,
}

impl SimulationClasses {
    /// One singleton class per universe index (collapsing disabled).
    pub(crate) fn identity(len: usize) -> SimulationClasses {
        SimulationClasses {
            members: (0..len as u32).collect(),
            offsets: (0..=len as u32).collect(),
        }
    }

    /// Builds the CSR layout from a per-index class assignment.
    fn from_class_of(class_of: &[u32], class_count: usize) -> SimulationClasses {
        let mut offsets = vec![0u32; class_count + 1];
        for &class in class_of {
            offsets[class as usize + 1] += 1;
        }
        for class in 0..class_count {
            offsets[class + 1] += offsets[class];
        }
        let mut cursor: Vec<u32> = offsets[..class_count].to_vec();
        let mut members = vec![0u32; class_of.len()];
        for (index, &class) in class_of.iter().enumerate() {
            members[cursor[class as usize] as usize] = index as u32;
            cursor[class as usize] += 1;
        }
        SimulationClasses { members, offsets }
    }

    /// Number of classes.
    pub(crate) fn count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// The universe indices belonging to `class`.
    pub(crate) fn members_of(&self, class: u32) -> &[u32] {
        &self.members
            [self.offsets[class as usize] as usize..self.offsets[class as usize + 1] as usize]
    }

    /// The universe index whose fault is propagated for `class`.
    pub(crate) fn representative(&self, class: u32) -> u32 {
        self.members[self.offsets[class as usize] as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsiq_netlist::library;

    #[test]
    fn identity_classes_are_singletons() {
        let classes = SimulationClasses::identity(4);
        assert_eq!(classes.count(), 4);
        for class in 0..4u32 {
            assert_eq!(classes.members_of(class), &[class]);
            assert_eq!(classes.representative(class), class);
        }
    }

    #[test]
    fn full_universe_classes_cover_every_fault_once() {
        let circuit = library::c17();
        let universe = FaultUniverse::full(&circuit);
        let cache = OnceCell::new();
        let classes = simulation_classes(&circuit, &cache, true, &universe);
        assert!(classes.count() < universe.len(), "c17 must collapse");
        let mut seen = vec![false; universe.len()];
        for class in 0..classes.count() as u32 {
            let members = classes.members_of(class);
            assert!(!members.is_empty());
            assert_eq!(classes.representative(class), members[0]);
            for &member in members {
                assert!(!seen[member as usize], "fault {member} in two classes");
                seen[member as usize] = true;
            }
        }
        assert!(seen.into_iter().all(|covered| covered));
        // The cache is populated exactly once.
        assert!(cache.get().is_some());
    }
}

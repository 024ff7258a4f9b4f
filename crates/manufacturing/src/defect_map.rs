//! Mapping physical defects to logical stuck-at faults.

use crate::defect::{DefectKind, FaultsPerDefect};
use lsiq_stats::dist::{Categorical, Sample};
use lsiq_stats::rng::Rng;

/// Half-width, in fault indices, of the window the extra faults of one
/// defect are drawn from around its anchor fault.
const LOCALITY_WINDOW: usize = 32;

/// Maps physical defects to sets of logical fault indices.
///
/// A defect is assigned a kind (metal short, break, …) and produces one or
/// more stuck-at faults at sites drawn from the fault universe.  Spatial
/// correlation is approximated by drawing the extra faults of the same defect
/// from a window of nearby fault indices: the fault universe enumerates
/// faults gate by gate, so index proximity is a stand-in for layout
/// proximity.
#[derive(Debug, Clone, PartialEq)]
pub struct DefectToFaultMapper {
    universe_size: usize,
    faults_per_defect: FaultsPerDefect,
    kind_weights: Categorical,
}

impl DefectToFaultMapper {
    /// Creates a mapper over a fault universe of `universe_size` candidate
    /// faults.
    ///
    /// # Panics
    ///
    /// Panics if `universe_size` is zero.
    pub fn new(universe_size: usize, faults_per_defect: FaultsPerDefect) -> Self {
        assert!(universe_size > 0, "fault universe must not be empty");
        DefectToFaultMapper {
            universe_size,
            faults_per_defect,
            kind_weights: Categorical::new(&DefectKind::ALL.map(|(_, w)| w))
                .expect("static weights are valid"),
        }
    }

    /// Maps one defect to its defect kind and fault indices.
    fn map_defect<R: Rng + ?Sized>(&self, rng: &mut R) -> (DefectKind, Vec<usize>) {
        let kind = DefectKind::ALL[self.kind_weights.sample(rng)].0;
        let fault_count = self.faults_per_defect.sample(rng) as usize;
        let anchor = rng.next_index(self.universe_size);
        let mut faults = Vec::with_capacity(fault_count);
        faults.push(anchor);
        for _ in 1..fault_count {
            // Extra faults cluster around the anchor within the locality
            // window, clamped to the universe.
            let offset =
                rng.next_index(2 * LOCALITY_WINDOW + 1) as isize - LOCALITY_WINDOW as isize;
            let index =
                (anchor as isize + offset).clamp(0, self.universe_size as isize - 1) as usize;
            faults.push(index);
        }
        (kind, faults)
    }

    /// Maps a whole chip's worth of defects to fault indices (possibly with
    /// duplicates; [`Chip::new`](crate::chip::Chip::new) deduplicates).
    pub fn map_defects<R: Rng + ?Sized>(&self, defect_count: u64, rng: &mut R) -> Vec<usize> {
        let mut faults = Vec::new();
        for _ in 0..defect_count {
            let (_, mut defect_faults) = self.map_defect(rng);
            faults.append(&mut defect_faults);
        }
        faults
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsiq_stats::rng::Xoshiro256StarStar;

    fn mapper(extra: f64) -> DefectToFaultMapper {
        DefectToFaultMapper::new(1_000, FaultsPerDefect::new(extra).expect("valid"))
    }

    #[test]
    fn every_defect_produces_at_least_one_fault() {
        let mapper = mapper(0.0);
        let mut rng = Xoshiro256StarStar::seed_from_u64(3);
        for _ in 0..1_000 {
            let (_, faults) = mapper.map_defect(&mut rng);
            assert_eq!(faults.len(), 1);
            assert!(faults[0] < 1_000);
        }
    }

    #[test]
    fn extra_faults_stay_near_the_anchor() {
        let mapper = mapper(3.0);
        let mut rng = Xoshiro256StarStar::seed_from_u64(11);
        for _ in 0..500 {
            let (_, faults) = mapper.map_defect(&mut rng);
            let anchor = faults[0] as isize;
            for &fault in &faults[1..] {
                assert!(
                    (fault as isize - anchor).abs() <= LOCALITY_WINDOW as isize
                        || fault == 0
                        || fault == 999,
                    "fault {fault} too far from anchor {anchor}"
                );
            }
        }
    }

    #[test]
    fn map_defects_accumulates_all_defects() {
        let mapper = mapper(0.0);
        let mut rng = Xoshiro256StarStar::seed_from_u64(17);
        let faults = mapper.map_defects(5, &mut rng);
        assert_eq!(faults.len(), 5);
        assert!(mapper.map_defects(0, &mut rng).is_empty());
    }

    #[test]
    #[should_panic(expected = "must not be empty")]
    fn zero_universe_panics() {
        let _ = DefectToFaultMapper::new(0, FaultsPerDefect::new(0.0).expect("valid"));
    }
}

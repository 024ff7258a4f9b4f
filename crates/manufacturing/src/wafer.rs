//! Wafer maps.
//!
//! A wafer map records how many physical defects landed on each chip site of
//! a wafer.  It mostly serves reporting and the clustering ablation: the
//! per-chip defect counts drawn from the clustered model exhibit the familiar
//! "bad neighbourhoods" of real wafer maps, while the Poisson-like model
//! (small `lambda`) spreads defects evenly.

use crate::defect::DefectModel;
use lsiq_stats::rng::Rng;

/// A rectangular wafer map of chip sites with per-site defect counts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WaferMap {
    rows: usize,
    columns: usize,
    defects: Vec<u64>,
}

impl WaferMap {
    /// Simulates a wafer of `rows x columns` chip sites, drawing every site's
    /// defect count from `model`.
    pub fn simulate<R: Rng + ?Sized>(
        rows: usize,
        columns: usize,
        model: &DefectModel,
        rng: &mut R,
    ) -> WaferMap {
        let defects = (0..rows * columns)
            .map(|_| model.sample_defect_count(rng))
            .collect();
        WaferMap {
            rows,
            columns,
            defects,
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn columns(&self) -> usize {
        self.columns
    }

    /// Number of chip sites.
    pub fn site_count(&self) -> usize {
        self.defects.len()
    }

    /// Defect count at `(row, column)`.
    ///
    /// # Panics
    ///
    /// Panics if the coordinates are out of range.
    pub fn defects_at(&self, row: usize, column: usize) -> u64 {
        assert!(
            row < self.rows && column < self.columns,
            "site out of range"
        );
        self.defects[row * self.columns + column]
    }

    /// Fraction of defect-free sites (the wafer's observed yield).
    pub fn observed_yield(&self) -> f64 {
        if self.defects.is_empty() {
            return 0.0;
        }
        self.defects.iter().filter(|&&d| d == 0).count() as f64 / self.defects.len() as f64
    }

    /// Renders an ASCII map (`.` = good site, digits = defect count, `+` for
    /// ten or more), useful in examples and reports.
    pub fn ascii(&self) -> String {
        let mut out = String::new();
        for row in 0..self.rows {
            for column in 0..self.columns {
                let defects = self.defects_at(row, column);
                let symbol = match defects {
                    0 => '.',
                    1..=9 => char::from(b'0' + defects as u8),
                    _ => '+',
                };
                out.push(symbol);
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsiq_stats::rng::Xoshiro256StarStar;

    fn sample_wafer(seed: u64) -> WaferMap {
        let model = DefectModel::for_target_yield(0.4, 1.0).expect("valid");
        let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
        WaferMap::simulate(20, 25, &model, &mut rng)
    }

    /// Per-site defect counts in row-major order.
    fn site_counts(wafer: &WaferMap) -> Vec<u64> {
        (0..wafer.rows())
            .flat_map(|row| (0..wafer.columns()).map(move |column| wafer.defects_at(row, column)))
            .collect()
    }

    #[test]
    fn dimensions_and_counts() {
        let wafer = sample_wafer(1);
        assert_eq!(wafer.rows(), 20);
        assert_eq!(wafer.columns(), 25);
        assert_eq!(wafer.site_count(), 500);
    }

    #[test]
    fn observed_yield_is_near_target() {
        let wafer = sample_wafer(7);
        // 500 sites at 40 percent target: allow generous sampling noise.
        assert!(
            (wafer.observed_yield() - 0.4).abs() < 0.1,
            "yield {}",
            wafer.observed_yield()
        );
    }

    #[test]
    fn ascii_map_has_one_row_per_wafer_row() {
        let wafer = sample_wafer(3);
        let art = wafer.ascii();
        assert_eq!(art.lines().count(), 20);
        assert!(art.lines().all(|line| line.chars().count() == 25));
        assert!(art.contains('.'));
    }

    #[test]
    fn seeded_wafer_statistics_are_pinned() {
        // Golden numbers for one seeded wafer: pins the negative-binomial
        // sampler and the map bookkeeping down to exact counts.
        let model = DefectModel::for_target_yield(0.4, 1.0).expect("valid");
        let mut rng = Xoshiro256StarStar::seed_from_u64(101);
        let wafer = WaferMap::simulate(16, 20, &model, &mut rng);
        let counts = site_counts(&wafer);
        assert_eq!(counts.iter().sum::<u64>(), 490);
        assert_eq!(wafer.defects_at(0, 0), 4);
        assert_eq!(wafer.defects_at(7, 11), 0);
        assert_eq!(counts.iter().max(), Some(&9));
        let good_sites = counts.iter().filter(|&&d| d == 0).count();
        assert_eq!(good_sites, 125);
        assert!((wafer.observed_yield() - 125.0 / 320.0).abs() < 1e-15);
        // The clustered model leaves bad neighbourhoods: the ASCII map shows
        // both empty sites and heavy ones.
        let art = wafer.ascii();
        assert!(art.contains('.') && art.contains('9'));
    }

    #[test]
    #[should_panic(expected = "site out of range")]
    fn out_of_range_site_panics() {
        let wafer = sample_wafer(5);
        let _ = wafer.defects_at(20, 0);
    }

    #[test]
    fn empty_wafer_yield_is_zero() {
        let model = DefectModel::new(1.0, 1.0).expect("valid");
        let mut rng = Xoshiro256StarStar::seed_from_u64(9);
        let wafer = WaferMap::simulate(0, 10, &model, &mut rng);
        assert_eq!(wafer.observed_yield(), 0.0);
        assert_eq!(wafer.site_count(), 0);
    }
}

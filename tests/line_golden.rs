//! Goldens for the `Session` production line: `reproduce_table1` in both
//! test modes, on the combinational reproduction device and on the 4-chain
//! full-scan device, recorded while the line still tested an in-memory lot.
//!
//! Each case pins an FNV-1a digest of every reject-table row, and the
//! observed yield and `n0` to the bit as readable quotients: good chips
//! over the 277, and faults over the defective chips.  Beside them sit the
//! chips failed by a few pattern counts.  A self-tested lot can only fail
//! at a signature readout, so its counts stay flat inside a 64-pattern
//! session and jump at the readout.

use lsi_quality::exec::{RunConfig, ScanPlan, TestMode};
use lsi_quality::Session;

/// 64-bit FNV-1a over the little-endian bytes of `value`, continuing from
/// `hash`.
fn fnv(hash: u64, value: u64) -> u64 {
    value.to_le_bytes().iter().fold(hash, |hash, &byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Test mode, scan chains, the row digest, good chips, faults over the
/// defective chips, and the chips failed by patterns 1, 63, 64, 128 and 192.
type GoldenLine = (TestMode, Option<usize>, u64, usize, usize, [usize; 5]);

#[rustfmt::skip]
const GOLDEN: [GoldenLine; 4] = [
    (TestMode::Stored, None, 0xd115571efec810f7, 25, 1985, [208, 249, 249, 250, 250]),
    (TestMode::Bist, None, 0x7fca77f71bc66abb, 25, 1985, [0, 0, 249, 250, 250]),
    (TestMode::Stored, Some(4), 0xec0c930ae16c5ee9, 25, 1985, [212, 250, 250, 251, 251]),
    (TestMode::Bist, Some(4), 0xcb73e4fd3ed95850, 25, 1985, [0, 0, 250, 251, 251]),
];

#[test]
fn table1_lines_match_the_recorded_golden() {
    for (mode, chains, digest, good, faults, failed) in GOLDEN {
        let case = format!("{mode:?}, {chains:?} chains");
        let scan = chains.map(|chains| ScanPlan::new(chains).expect("valid plan"));
        let config = RunConfig::default()
            .with_workers(2)
            .with_test_mode(mode)
            .with_scan(scan);
        let line = Session::new(config).reproduce_table1().expect("plan fits");
        let rows = line.experiment.rows();
        let row_digest = rows
            .iter()
            .flat_map(|row| {
                [
                    row.patterns_applied as u64,
                    row.fault_coverage.to_bits(),
                    row.chips_failed as u64,
                    row.fraction_failed.to_bits(),
                ]
            })
            .fold(0xcbf2_9ce4_8422_2325, fnv);
        assert_eq!(row_digest, digest, "{case}: {row_digest:#018x}");
        assert_eq!(line.experiment.total_chips(), 277, "{case}");
        assert_eq!(line.observed_yield, good as f64 / 277.0, "{case}");
        assert_eq!(
            line.observed_n0,
            faults as f64 / (277 - good) as f64,
            "{case}"
        );
        let observed = [1, 63, 64, 128, 192].map(|patterns| rows[patterns - 1].chips_failed);
        assert_eq!(observed, failed, "{case}");
    }
}

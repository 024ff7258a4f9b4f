//! BIST quality sweep: defect level versus self-test length and signature
//! width, with and without the aliasing correction.
//!
//! The paper's model turns a fault coverage `f` into a field defect level
//! (eq. 8).  Under built-in self-test the tester observes MISR signatures,
//! not responses, so the coverage the model should consume is the
//! *effective* one — raw coverage minus the faults the compactor aliases.
//! This binary sweeps test length × signature width on the reproduction
//! device and prints both defect levels per grid cell; the gap between them
//! is the quality price of the signature width.
//!
//! Run with: `cargo run --release -p lsiq-bench --bin bist_sweep`
//!
//! Knobs: `LSIQ_SEED` (pattern-source seed, default 1981),
//! `LSIQ_LOT_THREADS` (worker count), `LSIQ_TEST_MODE` (parsed for
//! validation like every binary; this sweep is BIST by definition).

use lsi_quality::BistSweepSpec;
use lsiq_bench::{print_metrics_report, session_from_env, unwrap_or_exit};

fn main() {
    let session = session_from_env();
    let spec = BistSweepSpec::reference();
    println!("=== BIST sweep: defect level vs test length x signature width ===");
    println!("run config: {}", session.config());
    println!(
        "model: y = {}, n0 = {}; sessions of {} patterns; STUMPS channels = {}",
        spec.yield_fraction, spec.n0, spec.session_len, spec.channels
    );

    let sweep = unwrap_or_exit(session.run_bist_sweep(&spec));
    println!("fault universe: {} stuck-at faults", sweep.universe_size);
    println!();
    println!(
        "{:>7} | {:>5} | {:>8} | {:>9} | {:>7} | {:>12} | {:>12} | {:>9}",
        "length", "k", "raw f", "eff f", "aliased", "DL (raw)", "DL (eff)", "DL ratio"
    );
    println!("{}", "-".repeat(90));
    for row in &sweep.rows {
        let ratio = if row.defect_level_raw > 0.0 {
            row.defect_level_effective / row.defect_level_raw
        } else {
            1.0
        };
        println!(
            "{:>7} | {:>5} | {:>8.4} | {:>9.4} | {:>7} | {:>12.6} | {:>12.6} | {:>9.3}",
            row.test_length,
            row.signature_width,
            row.raw_coverage,
            row.effective_coverage,
            row.aliased,
            row.defect_level_raw,
            row.defect_level_effective,
            ratio
        );
    }
    println!();
    println!(
        "(effective coverage <= raw coverage by construction; the two defect \
         levels converge as k grows -- the 2^-k aliasing estimate per cell is \
         printed by the library's AliasingReport)"
    );

    // Under LSIQ_METRICS=tree the span/counter report goes to stderr; the
    // sweep table above (stdout) is byte-identical in every metrics mode.
    print_metrics_report(&session);
}

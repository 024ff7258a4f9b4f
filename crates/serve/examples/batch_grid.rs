//! Answers a small planning grid through the library API — the same
//! service the `lsiq-serve` binary wraps, usable in-process.
//!
//! ```text
//! cargo run --example batch_grid -p lsiq-serve
//! ```
//!
//! Set `LSIQ_ARTIFACT_DIR` to persist the compiled artifacts; a second run
//! then reports artifact hits and zero fault-simulation passes.

use lsiq_serve::json::JsonValue;
use lsiq_serve::service::QueryService;
use std::io::{self, Write};

fn main() {
    let service = QueryService::from_env().unwrap_or_else(|error| {
        // A closed stderr must not turn the exit status 2 into a panic.
        let _ = writeln!(io::stderr(), "lsiq: {error}");
        std::process::exit(2);
    });
    // A coverage sweep at the paper's Section 7 ground truth, one inverse
    // solve, and a BIST plan on the alu4 library device.
    let mut grid: Vec<String> = (0..5)
        .map(|step| {
            let coverage = 0.90 + 0.02 * f64::from(step);
            format!(r#"{{"op":"forward","id":{step},"yield":0.07,"n0":8,"coverage":{coverage}}}"#)
        })
        .collect();
    grid.push(r#"{"op":"inverse","id":"target","yield":0.07,"n0":8,"target_reject":0.001}"#.into());
    grid.push(
        r#"{"op":"bist","id":"plan","circuit":"alu4","test_length":128,"signature_width":16}"#
            .into(),
    );
    for line in &grid {
        let request = JsonValue::parse(line).expect("example queries are well-formed");
        println!("{}", service.handle(&request, None).to_line());
    }
    let _ = writeln!(
        io::stderr(),
        "served {} queries: {} artifact hits, {} misses, {} fault-simulation passes",
        grid.len(),
        service.artifacts().hits(),
        service.artifacts().misses(),
        service.fault_sim_passes(),
    );
}

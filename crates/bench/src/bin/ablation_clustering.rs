//! Ablation: defect clustering and faults-per-defect versus the emergent
//! model parameters.
//!
//! The paper's Concluding Remarks argue that denser (fine-line) layouts raise
//! n0 because one physical defect produces several logical faults, which in
//! turn *lowers* the required coverage.  This ablation runs the physical
//! pipeline across a grid of clustering parameters and faults-per-defect
//! means and reports the emergent yield, n0 and the resulting coverage
//! requirement at r = 0.001.
//!
//! Run with: `cargo run --release -p lsiq-bench --bin ablation_clustering`

use lsiq_core::coverage_requirement::required_fault_coverage;
use lsiq_core::params::{ModelParams, RejectRate, Yield};
use lsiq_manufacturing::defect::DefectModel;
use lsiq_manufacturing::lot::PhysicalLotConfig;
use lsiq_manufacturing::pipeline::ParallelLotRunner;

fn main() {
    println!("Ablation — clustering (lambda) and faults per defect versus emergent (y, n0)\n");
    println!("lambda | faults/defect | emergent yield | emergent n0 | required f @ r=0.001");
    println!("-------|---------------|----------------|-------------|---------------------");
    let target = RejectRate::new(0.001).expect("valid reject rate");
    for &lambda in &[0.25, 1.0, 4.0] {
        for &extra in &[0.0, 3.0, 9.0] {
            let defect_model = DefectModel::new(2.66, lambda).expect("valid defect model");
            let lot = ParallelLotRunner::default().generate_physical_lot(&PhysicalLotConfig {
                chips: 5_000,
                defect_model,
                extra_faults_per_defect: extra,
                fault_universe_size: 20_000,
                seed: 7,
            });
            let emergent_yield = lot.observed_yield().clamp(0.001, 0.999);
            let emergent_n0 = lot.observed_n0().max(1.0);
            let params = ModelParams::new(Yield::new(emergent_yield).expect("valid"), emergent_n0)
                .expect("valid parameters");
            let required = required_fault_coverage(&params, target).expect("solves");
            println!(
                "{:>6.2} | {:>13.1} | {:>14.3} | {:>11.1} | {:>20.1}%",
                lambda,
                1.0 + extra,
                emergent_yield,
                emergent_n0,
                required.percent()
            );
        }
    }
    println!();
    println!("Expectation: more faults per defect raise n0 and lower the required");
    println!("coverage; stronger clustering (larger lambda) raises yield at the same");
    println!("defect density.");
}

//! Single stuck-at fault modelling and fault simulation.
//!
//! This crate supplies the "fault simulator" role that the LAMP system played
//! in the paper's Section 7 experiment:
//!
//! * [`model`] — stuck-at faults on gate outputs and input pins,
//! * [`universe`] — enumeration of the complete fault universe `N`,
//! * [`collapse`] — structural equivalence collapsing (the classes the
//!   tools report; the engines simulate every fault they are handed),
//! * [`list`] — fault lists with detection status and coverage accounting,
//! * [`simulator`] — the [`FaultSimulator`] trait every engine implements,
//! * [`incremental`] — the production engine: per packed pattern chunk,
//!   each fault's mask at the stem of its fanout-free region, then one
//!   event-driven propagation per stem through its fanout cone, on the
//!   [`cone`] kernel the BIST signature sweep shares,
//! * [`serial`], [`deductive`] — two independent oracles (one fault and one
//!   pattern at a time; all faults of a pattern at once via fault lists)
//!   the production engine is cross-checked against in the test suites;
//!   the architecture guide is `docs/ENGINES.md` at the repository root,
//! * [`coverage`] — cumulative fault-coverage curves as a function of the
//!   number of applied patterns (the paper's `f` axis), and
//! * [`dictionary`] — per-fault first-failing-pattern records, the raw
//!   material of the paper's Table 1.
//!
//! # Quick example
//!
//! ```
//! use lsiq_netlist::library;
//! use lsiq_sim::pattern::{Pattern, PatternSet};
//! use lsiq_fault::universe::FaultUniverse;
//! use lsiq_fault::incremental::IncrementalSimulator;
//! use lsiq_fault::simulator::FaultSimulator;
//!
//! let circuit = library::c17();
//! let universe = FaultUniverse::full(&circuit);
//! let patterns: PatternSet = (0..32).map(|v| Pattern::from_integer(v, 5)).collect();
//! let result = IncrementalSimulator::new(&circuit).run(&universe, &patterns);
//! assert!(result.coverage() > 0.99); // exhaustive patterns detect everything
//! ```

mod telemetry;

pub mod collapse;
pub mod cone;
pub mod coverage;
pub mod deductive;
pub mod dictionary;
pub mod incremental;
pub mod inject;
pub mod list;
pub mod model;
pub mod serial;
pub mod simulator;
pub mod universe;

pub use coverage::CoverageCurve;
pub use incremental::IncrementalSimulator;
pub use list::{DetectionState, FaultList};
pub use model::{Fault, FaultSite, StuckValue};
pub use simulator::{BuildEngine, EngineKind, FaultSimulator};
pub use universe::FaultUniverse;

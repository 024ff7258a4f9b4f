//! Logic simulation substrate.
//!
//! Provides the gate evaluation primitives and whole-circuit simulators that
//! the fault simulator (`lsiq-fault`), the test generator (`lsiq-tpg`)
//! and the production-line tester (`lsiq-manufacturing`) are built on:
//!
//! * [`logic`] — two-valued and three-valued (0/1/X) scalar values,
//! * [`eval`] — evaluation of a [`GateKind`](lsiq_netlist::GateKind) over
//!   scalar, three-valued and bit-packed [`PackedBlock`] operands,
//! * [`packed`] — the one bit-parallel layout, the lane-generic
//!   [`PackedBlock`] chunk (`u64 × 1/4/8`, `64 × L` patterns),
//! * [`pattern`] — input pattern containers and their packing into chunks,
//! * [`levelized`] — a compiled, levelised full-circuit simulator (scalar —
//!   the reference — three-valued, and bit-parallel over chunks),
//! * [`cache`] — the shared [`GoodMachineCache`]
//!   memoizing fault-free chunk evaluations across passes.
//!
//! # Quick example
//!
//! ```
//! use lsiq_netlist::library;
//! use lsiq_sim::levelized::CompiledCircuit;
//! use lsiq_sim::pattern::Pattern;
//!
//! let circuit = library::c17();
//! let sim = CompiledCircuit::new(&circuit);
//! let response = sim.outputs(&Pattern::from_bits([true, false, true, false, true]));
//! assert_eq!(response.len(), 2);
//! ```

pub mod cache;
pub mod eval;
pub mod levelized;
pub mod logic;
pub mod packed;
pub mod pattern;

pub use cache::GoodMachineCache;
pub use levelized::CompiledCircuit;
pub use logic::Value3;
pub use packed::PackedBlock;
pub use pattern::{Pattern, PatternSet};

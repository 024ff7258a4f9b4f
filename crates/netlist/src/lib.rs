//! Gate-level netlist substrate for the LSI product-quality reproduction.
//!
//! The paper's experiment needs a circuit with a realistic single-stuck-at
//! fault universe: the 1981 study used a 25 000-transistor Bell Labs LSI chip
//! whose netlist is not available.  This crate provides everything required
//! to stand in for it:
//!
//! * a typed, validated gate-level [`Circuit`] representation,
//! * an ISCAS-style `.bench` reader and writer ([`bench_format`]) and a
//!   combinational BLIF reader and writer ([`blif`]); the format guide is
//!   `docs/FORMATS.md` at the repository root,
//! * levelisation ([`levelize`]),
//! * parameterised circuit generators (adders, multipliers, ALUs, parity and
//!   multiplexer trees, random logic) in [`generator`], and
//! * an embedded library of ready-made circuits, including an "LSI-class"
//!   composite sized to roughly 25 000 transistor equivalents ([`library`]).
//!
//! # Quick example
//!
//! ```
//! use lsiq_netlist::library;
//!
//! let c17 = library::c17();
//! assert_eq!(c17.primary_inputs().len(), 5);
//! assert_eq!(c17.primary_outputs().len(), 2);
//! ```

pub mod bench_format;
pub mod blif;
pub mod builder;
pub mod circuit;
pub mod error;
pub mod gate;
pub mod generator;
pub mod levelize;
pub mod library;
pub mod scan;

pub use builder::CircuitBuilder;
pub use circuit::{Circuit, GateId};
pub use error::NetlistError;
pub use gate::{Gate, GateKind};
pub use scan::{insert_scan, ScanCircuit};

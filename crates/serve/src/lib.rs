//! `lsiq-serve`: a batch quality-planning query service.
//!
//! The paper's model (Agrawal, Seth & Agrawal, DAC 1981) answers planning
//! questions — *what defect level does this coverage buy? what coverage
//! does this quality target require? how does this BIST plan compare?* —
//! and a planning session asks those questions in grids: many `(circuit,
//! yield, n0, test plan)` points at once.  Answering each point from
//! scratch wastes almost all of the work, because the expensive objects
//! (the compiled circuit, its line test suite, each signature dictionary)
//! depend only on the circuit and the test plan, not on the model point.
//!
//! This crate is the grid front-end:
//!
//! * [`request`] — the JSON-lines query schema (`forward`, `inverse`,
//!   `bist`, `line`, `lot`), parsed strictly with descriptive errors;
//! * [`service`] — [`QueryService`], one persistent
//!   `Session`/`ExecutionContext` pool answering every query, with
//!   in-process memoization over the artifact layer;
//! * [`artifact`] — keyed, checksummed, versioned on-disk persistence
//!   (`LSIQ_ARTIFACT_DIR`), so a *second process* replays a grid with zero
//!   fault-simulation passes — proven by the per-query counter deltas,
//!   which are atomics mirrored into the `lsiq_obs` metrics registry
//!   (`serve.*` names; `docs/OBSERVABILITY.md` has the catalogue).  Under
//!   `LSIQ_METRICS=json` each response is followed by a `metrics` record
//!   carrying the registry delta, and the final summary embeds the full
//!   registry dump;
//! * [`json`] / [`codec`] — a dependency-free strict JSON layer with
//!   canonical (round-trip exact) number formatting, and the binary codec
//!   plus FNV-1a hashing under the artifact files.
//!
//! Lot queries of any size run through the streaming executor
//! (`lsiq_manufacturing::streaming`), so a billion-chip lot needs
//! `O(workers × (patterns + faults / 64))` memory and returns statistics
//! byte-identical to the in-memory pipeline.
//!
//! The `lsiq-serve` binary speaks the same protocol over stdin/stdout or
//! files; `docs/SERVICE.md` documents the schema, the cache layout and the
//! memory model.
//!
//! ```
//! use lsiq_serve::artifact::ArtifactStore;
//! use lsiq_serve::json::JsonValue;
//! use lsiq_serve::service::QueryService;
//! use lsi_quality::Session;
//! use lsiq_exec::RunConfig;
//!
//! let service = QueryService::new(
//!     Session::new(RunConfig::default().with_engine_auto()),
//!     ArtifactStore::disabled(),
//! );
//! let request = JsonValue::parse(
//!     r#"{"op":"forward","yield":0.07,"n0":8,"coverage":0.95}"#,
//! )
//! .unwrap();
//! let response = service.handle(&request, None);
//! assert_eq!(response.get("status").unwrap().as_str(), Some("ok"));
//! let reject = response.get("reject_rate").unwrap().as_f64().unwrap();
//! assert!(reject > 0.0 && reject < 1.0);
//! ```

pub mod artifact;
pub mod codec;
pub mod json;
pub mod request;
pub mod service;

pub use artifact::{stable_fingerprint, ArtifactStore, SuiteArtifact, ARTIFACT_DIR_VAR};
pub use json::JsonValue;
pub use request::Request;
pub use service::{QueryService, ServeError};

//! Typed planning queries parsed from JSON-lines request objects.
//!
//! One request is one JSON object with an `"op"` field selecting the query
//! kind and an optional `"id"` echoed verbatim into the response, so a
//! client can correlate answers with a shuffled or batched grid.  The full
//! schema is documented in `docs/SERVICE.md`; the parser here is strict —
//! unknown ops, missing required fields and out-of-domain values all
//! produce a descriptive error string that the service turns into a
//! per-line error response (well-formed JSON that fails these checks is a
//! query error, not a protocol error, and does not abort the stream).

use crate::json::JsonValue;

/// The largest `test_length` a `bist` request may ask for: 256 times the
/// longest test of the planning grid.  Longer tests would allocate their
/// whole pattern set up front, so they are refused as query errors.
pub const MAX_TEST_LENGTH: usize = 65_536;

/// The largest `chips` a `line` or `lot` request may ask for.  The
/// streaming `lot` executor runs a lot this size in bounded memory; larger
/// lots would run for hours, so they are refused as query errors.
pub const MAX_CHIPS: usize = 1_000_000_000;

/// The largest `n0` a `line` or `lot` request may ask for.  A defective
/// chip's fault count is a Poisson draw of about `n0` uniforms, so a lot at
/// `n0` = 10^15 would never finish; larger values are refused as query
/// errors.  `forward`, `inverse` and `bist` use `n0` only in closed form and
/// accept any finite `n0 >= 1`.
pub const MAX_N0: f64 = 1_000.0;

/// The model parameters `(y, n0)` every query kind shares.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModelInputs {
    /// The paper's `y`: probability a chip is fault-free.
    pub yield_fraction: f64,
    /// The paper's `n0`: mean fault count of a defective chip.
    pub n0: f64,
}

/// A `(test length, signature width)` BIST sweep cell.
#[derive(Debug, Clone, PartialEq)]
pub struct BistParams {
    /// Device name (`c17`, `alu4`, `reduced`, `full`).
    pub circuit: String,
    /// Model parameters for the defect-level columns.
    pub model: ModelInputs,
    /// Applied self-test pattern count.
    pub test_length: usize,
    /// MISR signature width `k`.
    pub signature_width: u32,
    /// Patterns per signature readout.
    pub session_len: usize,
    /// STUMPS scan channels feeding the device inputs.
    pub channels: usize,
}

/// A production-line / lot query: a lot of `chips` drawn at `(y, n0)`
/// tested against the device's line suite via the streaming executor.
#[derive(Debug, Clone, PartialEq)]
pub struct LotParams {
    /// Device name (`c17`, `alu4`, `reduced`, `full`).
    pub circuit: String,
    /// Chips in the lot.
    pub chips: usize,
    /// Model parameters of the lot generator.
    pub model: ModelInputs,
    /// Lot seed; defaults to the session seed (historically 1981).
    pub seed: Option<u64>,
    /// Reject-table checkpoints (pattern counts).  Defaults to every
    /// pattern for `line`, to the suite end alone for `lot`.
    pub checkpoints: Option<Vec<usize>>,
    /// Streaming block length override.
    pub block_len: Option<usize>,
}

/// One parsed planning query.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Eq. 8 forward: defect level at a given coverage.
    Forward {
        /// Model parameters.
        model: ModelInputs,
        /// Fault coverage `f`.
        coverage: f64,
    },
    /// Eq. 8 inverse: the coverage required for a reject-rate target.
    Inverse {
        /// Model parameters.
        model: ModelInputs,
        /// Field reject-rate target `r`.
        target_reject: f64,
    },
    /// One BIST sweep cell with aliasing-corrected defect levels.
    Bist(BistParams),
    /// A full production-line experiment (dense reject table).
    Line(LotParams),
    /// A streaming lot evaluation (sparse checkpoints, any lot size).
    Lot(LotParams),
}

impl Request {
    /// The op name, as it appears in requests and responses.
    pub fn op(&self) -> &'static str {
        match self {
            Request::Forward { .. } => "forward",
            Request::Inverse { .. } => "inverse",
            Request::Bist(_) => "bist",
            Request::Line(_) => "line",
            Request::Lot(_) => "lot",
        }
    }

    /// Parses a request object, returning the query and its echoed `id`.
    ///
    /// # Errors
    ///
    /// Returns a descriptive message when the object is not a valid query.
    pub fn parse(value: &JsonValue) -> Result<(Request, Option<JsonValue>), String> {
        if !matches!(value, JsonValue::Object(_)) {
            return Err("request must be a JSON object".to_string());
        }
        let id = value.get("id").cloned();
        let op = value
            .get("op")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| "missing required string field \"op\"".to_string())?;
        let request = match op {
            "forward" => Request::Forward {
                model: model_inputs(value, true)?,
                coverage: fraction_field(value, "coverage", None)?,
            },
            "inverse" => Request::Inverse {
                model: model_inputs(value, true)?,
                target_reject: fraction_field(value, "target_reject", None)?,
            },
            "bist" => Request::Bist(BistParams {
                circuit: circuit_field(value)?,
                model: model_inputs(value, false)?,
                test_length: bounded_count_field(value, "test_length", None, MAX_TEST_LENGTH)?,
                signature_width: u32::try_from(count_field(value, "signature_width", None)?)
                    .map_err(|_| "\"signature_width\" out of range".to_string())?,
                session_len: count_field(value, "session_len", Some(64))?,
                channels: count_field(value, "channels", Some(8))?,
            }),
            "line" => Request::Line(lot_params(value, 277)?),
            "lot" => {
                let params = lot_params(value, 0)?;
                if value.get("chips").is_none() {
                    return Err("op \"lot\" requires a \"chips\" field".to_string());
                }
                Request::Lot(params)
            }
            other => {
                return Err(format!(
                    "unknown op {other:?} (expected forward, inverse, bist, line or lot)"
                ))
            }
        };
        Ok((request, id))
    }
}

fn lot_params(value: &JsonValue, default_chips: usize) -> Result<LotParams, String> {
    let checkpoints = match value.get("checkpoints") {
        None => None,
        Some(JsonValue::Array(items)) => {
            let mut points = Vec::with_capacity(items.len());
            for item in items {
                points.push(item.as_usize().ok_or_else(|| {
                    "\"checkpoints\" entries must be non-negative integers".to_string()
                })?);
            }
            Some(points)
        }
        Some(_) => return Err("\"checkpoints\" must be an array of integers".to_string()),
    };
    let circuit = circuit_field(value)?;
    let chips = bounded_count_field(value, "chips", Some(default_chips), MAX_CHIPS)?;
    let model = model_inputs(value, false)?;
    if model.n0 > MAX_N0 {
        return Err(format!("\"n0\" must be at most {MAX_N0}, got {}", model.n0));
    }
    Ok(LotParams {
        circuit,
        chips,
        model,
        seed: match value.get("seed") {
            None => None,
            Some(seed) => Some(
                seed.as_usize()
                    .map(|v| v as u64)
                    .ok_or_else(|| "\"seed\" must be a non-negative integer".to_string())?,
            ),
        },
        checkpoints,
        block_len: match value.get("block_len") {
            None => None,
            Some(block) => Some(
                block
                    .as_usize()
                    .filter(|&len| len >= 1)
                    .ok_or_else(|| "\"block_len\" must be a positive integer".to_string())?,
            ),
        },
    })
}

fn model_inputs(value: &JsonValue, required: bool) -> Result<ModelInputs, String> {
    let defaults = if required { None } else { Some(0.07) };
    let yield_fraction = fraction_field(value, "yield", defaults)?;
    let n0 = match value.get("n0") {
        None if !required => 8.0,
        maybe => maybe
            .and_then(JsonValue::as_f64)
            .filter(|n0| n0.is_finite() && *n0 >= 1.0)
            .ok_or_else(|| "\"n0\" must be a finite number >= 1".to_string())?,
    };
    Ok(ModelInputs { yield_fraction, n0 })
}

fn fraction_field(value: &JsonValue, name: &str, default: Option<f64>) -> Result<f64, String> {
    match value.get(name) {
        None => default.ok_or_else(|| format!("missing required number field {name:?}")),
        Some(field) => field
            .as_f64()
            .filter(|v| v.is_finite() && (0.0..=1.0).contains(v))
            .ok_or_else(|| format!("{name:?} must be a number in [0, 1]")),
    }
}

fn count_field(value: &JsonValue, name: &str, default: Option<usize>) -> Result<usize, String> {
    match value.get(name) {
        None => default.ok_or_else(|| format!("missing required integer field {name:?}")),
        Some(field) => field
            .as_usize()
            .ok_or_else(|| format!("{name:?} must be a non-negative integer")),
    }
}

/// A [`count_field`] that must not exceed `max`.
fn bounded_count_field(
    value: &JsonValue,
    name: &str,
    default: Option<usize>,
    max: usize,
) -> Result<usize, String> {
    let count = count_field(value, name, default)?;
    if count > max {
        return Err(format!("{name:?} must be at most {max}, got {count}"));
    }
    Ok(count)
}

fn circuit_field(value: &JsonValue) -> Result<String, String> {
    match value.get("circuit") {
        None => Ok("reduced".to_string()),
        Some(field) => field
            .as_str()
            .map(str::to_string)
            .ok_or_else(|| "\"circuit\" must be a string".to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(text: &str) -> Result<(Request, Option<JsonValue>), String> {
        Request::parse(&JsonValue::parse(text).expect("well-formed JSON"))
    }

    #[test]
    fn forward_and_inverse_parse_with_required_fields() {
        let (request, id) =
            parse(r#"{"op":"forward","id":7,"yield":0.07,"n0":8,"coverage":0.95}"#).unwrap();
        assert_eq!(request.op(), "forward");
        assert_eq!(id, Some(JsonValue::Number(7.0)));
        match request {
            Request::Forward { model, coverage } => {
                assert_eq!(model.yield_fraction, 0.07);
                assert_eq!(model.n0, 8.0);
                assert_eq!(coverage, 0.95);
            }
            other => panic!("wrong variant {other:?}"),
        }
        let (request, _) =
            parse(r#"{"op":"inverse","yield":0.5,"n0":2,"target_reject":0.01}"#).unwrap();
        assert_eq!(request.op(), "inverse");
    }

    #[test]
    fn line_defaults_to_the_table1_grid_point() {
        let (request, id) = parse(r#"{"op":"line"}"#).unwrap();
        assert_eq!(id, None);
        match request {
            Request::Line(params) => {
                assert_eq!(params.circuit, "reduced");
                assert_eq!(params.chips, 277);
                assert_eq!(params.model.yield_fraction, 0.07);
                assert_eq!(params.model.n0, 8.0);
                assert_eq!(params.seed, None);
                assert_eq!(params.checkpoints, None);
            }
            other => panic!("wrong variant {other:?}"),
        }
    }

    #[test]
    fn lot_requires_chips_and_accepts_checkpoints() {
        assert!(parse(r#"{"op":"lot"}"#).is_err());
        let (request, _) = parse(
            r#"{"op":"lot","circuit":"alu4","chips":1000000,"checkpoints":[16,64],"block_len":4096,"seed":3}"#,
        )
        .unwrap();
        match request {
            Request::Lot(params) => {
                assert_eq!(params.chips, 1_000_000);
                assert_eq!(params.checkpoints, Some(vec![16, 64]));
                assert_eq!(params.block_len, Some(4096));
                assert_eq!(params.seed, Some(3));
            }
            other => panic!("wrong variant {other:?}"),
        }
    }

    #[test]
    fn invalid_requests_produce_descriptive_errors() {
        for (text, needle) in [
            (r#"[1,2]"#, "must be a JSON object"),
            (r#"{}"#, "\"op\""),
            (r#"{"op":"warp"}"#, "unknown op"),
            (r#"{"op":"forward","yield":0.1,"n0":8}"#, "coverage"),
            (
                r#"{"op":"forward","yield":1.5,"n0":8,"coverage":0.9}"#,
                "yield",
            ),
            (
                r#"{"op":"forward","yield":0.1,"n0":0.5,"coverage":0.9}"#,
                "n0",
            ),
            (r#"{"op":"bist","yield":0.1,"n0":8}"#, "test_length"),
            (r#"{"op":"line","chips":-1}"#, "chips"),
            (r#"{"op":"line","checkpoints":[1.5]}"#, "checkpoints"),
            (r#"{"op":"line","circuit":5}"#, "circuit"),
            (r#"{"op":"lot","chips":10,"block_len":0}"#, "block_len"),
            (
                r#"{"op":"bist","yield":0.1,"n0":8,"test_length":1000000000000,"signature_width":16}"#,
                "\"test_length\" must be at most 65536",
            ),
            (
                r#"{"op":"lot","circuit":"c17","chips":100000000000000}"#,
                "\"chips\" must be at most 1000000000",
            ),
            (
                r#"{"op":"lot","circuit":"c17","chips":1,"yield":0,"n0":1e15}"#,
                "\"n0\" must be at most 1000, got 1000000000000000",
            ),
            (
                r#"{"op":"line","n0":1000.5}"#,
                "\"n0\" must be at most 1000",
            ),
        ] {
            let error = parse(text).expect_err(text);
            assert!(error.contains(needle), "{text}: {error}");
        }
    }
}

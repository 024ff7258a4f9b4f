//! Reader and writer for the ISCAS-style `.bench` netlist format.
//!
//! The format is line oriented:
//!
//! ```text
//! # comment
//! INPUT(a)
//! OUTPUT(sum)
//! sum = XOR(a, b)
//! carry = AND(a, b)
//! ```
//!
//! Combinational primitives and `DFF` state elements are supported (`q =
//! DFF(d)`, the ISCAS-89 convention); sequential circuits are tested
//! through scan insertion ([`crate::scan`]), so the clock stays implicit.

use crate::builder::{build_named, NamedGate};
use crate::circuit::Circuit;
use crate::error::NetlistError;
use crate::gate::GateKind;
use std::borrow::Cow;

/// Parses a `.bench` description into a [`Circuit`].
///
/// Signals may be referenced before they are defined (the ISCAS benchmarks
/// do this freely); the parser resolves references after reading the whole
/// text.
///
/// # Errors
///
/// Returns [`NetlistError::Parse`] for malformed lines,
/// [`NetlistError::UnknownSignal`] for references that are never defined,
/// and the usual structural errors for duplicate names, bad arities, missing
/// outputs or cycles.
pub fn parse(name: &str, text: &str) -> Result<Circuit, NetlistError> {
    // Record definitions in order, plus declared outputs.
    let mut gates: Vec<NamedGate<'_>> = Vec::new();
    let mut output_names: Vec<&str> = Vec::new();

    for (line_index, raw_line) in text.lines().enumerate() {
        let line_number = line_index + 1;
        let line = strip_comment(raw_line).trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = parse_directive(line, "INPUT") {
            gates.push(NamedGate {
                signal: Cow::Borrowed(parse_single_name(rest, line_number)?),
                kind: GateKind::Input,
                fanin: Vec::new(),
            });
        } else if let Some(rest) = parse_directive(line, "OUTPUT") {
            output_names.push(parse_single_name(rest, line_number)?);
        } else if let Some(eq_pos) = line.find('=') {
            let signal = line[..eq_pos].trim();
            if signal.is_empty() {
                return Err(NetlistError::Parse {
                    line: line_number,
                    message: "missing signal name before `=`".to_string(),
                });
            }
            let rhs = line[eq_pos + 1..].trim();
            let open = rhs.find('(').ok_or_else(|| NetlistError::Parse {
                line: line_number,
                message: format!("expected `FUNC(args)` after `=`, found `{rhs}`"),
            })?;
            let close = rhs.rfind(')').ok_or_else(|| NetlistError::Parse {
                line: line_number,
                message: "missing closing parenthesis".to_string(),
            })?;
            if close < open {
                return Err(NetlistError::Parse {
                    line: line_number,
                    message: "mismatched parentheses".to_string(),
                });
            }
            let func = rhs[..open].trim();
            let kind = GateKind::parse(func).ok_or_else(|| NetlistError::Parse {
                line: line_number,
                message: format!("unknown gate function `{func}`"),
            })?;
            if kind == GateKind::Input {
                return Err(NetlistError::Parse {
                    line: line_number,
                    message: "INPUT cannot appear on the right-hand side".to_string(),
                });
            }
            let args = rhs[open + 1..close].trim();
            let fanin: Vec<Cow<'_, str>> = if args.is_empty() {
                Vec::new()
            } else {
                args.split(',')
                    .map(|arg| Cow::Borrowed(arg.trim()))
                    .collect()
            };
            if fanin.iter().any(|n| n.is_empty()) {
                return Err(NetlistError::Parse {
                    line: line_number,
                    message: "empty argument in gate input list".to_string(),
                });
            }
            gates.push(NamedGate {
                signal: Cow::Borrowed(signal),
                kind,
                fanin,
            });
        } else {
            return Err(NetlistError::Parse {
                line: line_number,
                message: format!("unrecognised line `{line}`"),
            });
        }
    }

    build_named(name.to_string(), &gates, &output_names)
}

/// Serialises a circuit to `.bench` text.
///
/// The output parses back to an equivalent circuit (same gates, names,
/// connectivity and outputs).
pub fn write(circuit: &Circuit) -> String {
    let mut out = String::new();
    out.push_str(&format!("# {}\n", circuit.name()));
    out.push_str(&format!(
        "# {} inputs, {} outputs, {} gates\n",
        circuit.primary_inputs().len(),
        circuit.primary_outputs().len(),
        circuit.gate_count()
    ));
    for &input in circuit.primary_inputs() {
        out.push_str(&format!("INPUT({})\n", circuit.signal_name(input)));
    }
    for &output in circuit.primary_outputs() {
        out.push_str(&format!("OUTPUT({})\n", circuit.signal_name(output)));
    }
    for (id, gate) in circuit.iter() {
        if gate.kind() == GateKind::Input {
            continue;
        }
        let args: Vec<&str> = gate
            .fanin()
            .iter()
            .map(|&driver| circuit.signal_name(driver))
            .collect();
        out.push_str(&format!(
            "{} = {}({})\n",
            circuit.signal_name(id),
            gate.kind().name(),
            args.join(", ")
        ));
    }
    out
}

fn strip_comment(line: &str) -> &str {
    match line.find('#') {
        Some(pos) => &line[..pos],
        None => line,
    }
}

/// The text after `keyword` when `line` is that directive: the keyword in
/// any case, then `(` after optional spaces.  Anything else (`output1 =
/// NOT(a)`, `inputs = BUF(a)`) is not a directive.
fn parse_directive<'a>(line: &'a str, keyword: &str) -> Option<&'a str> {
    let head = line.get(..keyword.len())?;
    let rest = line[keyword.len()..].trim_start();
    (head.eq_ignore_ascii_case(keyword) && rest.starts_with('(')).then_some(rest)
}

fn parse_single_name(rest: &str, line: usize) -> Result<&str, NetlistError> {
    let rest = rest.trim();
    if !rest.starts_with('(') || !rest.ends_with(')') {
        return Err(NetlistError::Parse {
            line,
            message: "expected a single parenthesised signal name".to_string(),
        });
    }
    let name = rest[1..rest.len() - 1].trim();
    if name.is_empty() || name.contains(',') {
        return Err(NetlistError::Parse {
            line,
            message: "expected exactly one signal name".to_string(),
        });
    }
    Ok(name)
}

#[cfg(test)]
mod tests {
    use super::*;

    const HALF_ADDER: &str = "\
# half adder
INPUT(a)
INPUT(b)
OUTPUT(sum)
OUTPUT(carry)
sum = XOR(a, b)
carry = AND(a, b)
";

    #[test]
    fn parses_half_adder() {
        let circuit = parse("half_adder", HALF_ADDER).expect("parses");
        assert_eq!(circuit.primary_inputs().len(), 2);
        assert_eq!(circuit.primary_outputs().len(), 2);
        assert_eq!(circuit.gate_count(), 4);
        let sum = circuit.find_signal("sum").expect("exists");
        assert_eq!(circuit.gate(sum).kind(), GateKind::Xor);
    }

    #[test]
    fn forward_references_are_allowed() {
        let text = "\
INPUT(a)
OUTPUT(z)
z = NOT(y)
y = NOT(a)
";
        let circuit = parse("forward", text).expect("parses");
        assert_eq!(circuit.gate_count(), 3);
    }

    #[test]
    fn round_trip_preserves_structure() {
        let original = crate::library::c17();
        let text = write(&original);
        let reparsed = parse(original.name(), &text).expect("round trips");
        assert_eq!(reparsed.gate_count(), original.gate_count());
        assert_eq!(
            reparsed.primary_inputs().len(),
            original.primary_inputs().len()
        );
        assert_eq!(
            reparsed.primary_outputs().len(),
            original.primary_outputs().len()
        );
        // Every signal keeps its kind and fanin names.
        for (id, gate) in original.iter() {
            let name = original.signal_name(id);
            let new_id = reparsed.find_signal(name).expect("signal survives");
            assert_eq!(reparsed.gate(new_id).kind(), gate.kind());
            let old_fanin: Vec<&str> = gate
                .fanin()
                .iter()
                .map(|&d| original.signal_name(d))
                .collect();
            let new_fanin: Vec<&str> = reparsed
                .gate(new_id)
                .fanin()
                .iter()
                .map(|&d| reparsed.signal_name(d))
                .collect();
            assert_eq!(old_fanin, new_fanin);
        }
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let text = "\n\n# leading comment\nINPUT(a)   # trailing comment\nOUTPUT(z)\nz = BUF(a)\n";
        let circuit = parse("comments", text).expect("parses");
        assert_eq!(circuit.gate_count(), 2);
    }

    #[test]
    fn unknown_function_is_reported_with_line() {
        let text = "INPUT(a)\nOUTPUT(z)\nz = FROB(a)\n";
        match parse("bad", text) {
            Err(NetlistError::Parse { line, message }) => {
                assert_eq!(line, 3);
                assert!(message.contains("FROB"));
            }
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn undefined_signal_is_reported() {
        let text = "INPUT(a)\nOUTPUT(z)\nz = AND(a, ghost)\n";
        match parse("bad", text) {
            Err(NetlistError::UnknownSignal { name }) => assert_eq!(name, "ghost"),
            other => panic!("expected unknown signal, got {other:?}"),
        }
    }

    #[test]
    fn unknown_signal_is_reported_before_a_duplicate_name() {
        // `y` is defined twice and reads a signal never defined: references
        // resolve before the circuit is finished, so the unknown signal is
        // the error, wherever the repeat lies.
        for text in [
            "INPUT(a)\nOUTPUT(y)\ny = AND(a, ghost)\ny = NOT(a)\n",
            "INPUT(a)\nOUTPUT(y)\ny = NOT(a)\ny = AND(a, ghost)\n",
            "INPUT(a)\nINPUT(a)\nOUTPUT(ghost)\ny = NOT(a)\n",
        ] {
            assert_eq!(
                parse("bad", text),
                Err(NetlistError::UnknownSignal {
                    name: "ghost".to_string()
                }),
                "{text}"
            );
        }
        // The first unknown reference, in definition order, is named, and
        // a gate's references come before the output list.
        let text = "INPUT(a)\nOUTPUT(lost)\nz = AND(a, first)\nz = AND(a, second)\n";
        assert_eq!(
            parse("bad", text),
            Err(NetlistError::UnknownSignal {
                name: "first".to_string()
            })
        );
        // With every reference resolved, the duplicate is the error, and a
        // reference to a repeated name is not an unknown signal.
        let text = "INPUT(a)\nOUTPUT(y)\ny = NOT(a)\ny = BUF(y)\n";
        assert_eq!(
            parse("bad", text),
            Err(NetlistError::DuplicateSignal {
                name: "y".to_string()
            })
        );
    }

    #[test]
    fn undefined_output_is_reported() {
        let text = "INPUT(a)\nOUTPUT(ghost)\nz = BUF(a)\n";
        assert!(matches!(
            parse("bad", text),
            Err(NetlistError::UnknownSignal { .. })
        ));
    }

    #[test]
    fn malformed_lines_are_rejected() {
        for text in [
            "INPUT a\n",
            "OUTPUT(a, b)\n",
            "z = AND(a,)\nINPUT(a)\nOUTPUT(z)\n",
            "just nonsense\n",
            " = AND(a, b)\n",
            "z = AND a, b\n",
        ] {
            assert!(parse("bad", text).is_err(), "should reject: {text}");
        }
    }

    #[test]
    fn gate_names_may_start_with_a_directive_keyword() {
        // A directive is its keyword, in any case, then `(`.
        let text = "INPUT(a)\ninput (b)\nOUTPUT(y)\noutput1 = NOT(a)\n\
                    inputs = BUF(b)\nINPUT = AND(output1, inputs)\ny = BUF(INPUT)\n";
        let circuit = parse("keywords", text).expect("parses");
        assert_eq!(circuit.primary_inputs().len(), 2);
        for (signal, kind) in [
            ("output1", GateKind::Not),
            ("inputs", GateKind::Buf),
            ("INPUT", GateKind::And),
            ("y", GateKind::Buf),
        ] {
            let id = circuit.find_signal(signal).expect("exists");
            assert_eq!(circuit.gate(id).kind(), kind, "{signal}");
        }
    }

    #[test]
    fn input_on_rhs_is_rejected() {
        let text = "INPUT(a)\nOUTPUT(z)\nz = INPUT(a)\n";
        assert!(matches!(
            parse("bad", text),
            Err(NetlistError::Parse { .. })
        ));
    }

    #[test]
    fn cycle_error_names_a_signal_on_the_cycle() {
        // z reads the cycle x = NOT(y), y = NOT(x) without lying on it.
        let text = "INPUT(a)\nOUTPUT(z)\nz = AND(a, x)\nx = NOT(y)\ny = NOT(x)\n";
        let Err(NetlistError::CombinationalCycle { signal }) = parse("downstream", text) else {
            panic!("expected a combinational cycle");
        };
        assert!(signal == "x" || signal == "y", "named `{signal}`");
    }

    #[test]
    fn dff_parses_and_round_trips() {
        // ISCAS-89 style: a flip-flop in a feedback loop, referenced before
        // it is defined.
        let text = "INPUT(a)\nOUTPUT(z)\nz = AND(a, q)\nq = DFF(z)\n";
        let circuit = parse("seq", text).expect("parses");
        let q = circuit.find_signal("q").expect("exists");
        assert_eq!(circuit.gate(q).kind(), GateKind::Dff);
        assert_eq!(circuit.state_elements(), &[q]);
        let written = write(&circuit);
        assert!(written.contains("q = DFF(z)"), "{written}");
        let reparsed = parse("seq", &written).expect("round trips");
        assert_eq!(reparsed.state_elements().len(), 1);
    }

    #[test]
    fn write_emits_headers() {
        let circuit = parse("half_adder", HALF_ADDER).expect("parses");
        let text = write(&circuit);
        assert!(text.contains("INPUT(a)"));
        assert!(text.contains("OUTPUT(carry)"));
        assert!(text.contains("sum = XOR(a, b)"));
    }
}

//! Reader and writer for the Berkeley Logic Interchange Format (BLIF),
//! gate-level subset with single-clock latches.
//!
//! BLIF is the exchange format of the Berkeley synthesis tools (SIS, ABC)
//! and the form in which the ISCAS benchmark circuits commonly circulate.
//! The supported subset is gate-level logic plus `.latch`:
//!
//! ```text
//! .model c17
//! .inputs G1 G2 G3 G6 G7   # line continuations with `\` are supported
//! .outputs G22 G23
//! .names G1 G3 G10         # sum-of-products cover, one cube per row
//! 11 0
//! .names G3 G6 G11
//! 11 0
//! .latch G11 S0 re clk 0   # D flip-flop: input, output, [type control], [init]
//! .end
//! ```
//!
//! Each `.names` block lists the cube inputs followed by the output signal,
//! then one cover row per cube: an input plane over `0`/`1`/`-` and a single
//! output character.  Rows with output `1` describe the ON-set (the function
//! is the OR of the cubes); rows with output `0` describe the OFF-set (the
//! function is the complement of the OR).  Mixing both phases in one block
//! is rejected.
//!
//! # Gate mapping
//!
//! Covers that correspond to a single primitive are mapped directly — a
//! single all-`1` cube becomes `AND` (`NAND` for phase 0), a single all-`0`
//! cube becomes `NOR` (`OR` for phase 0), single-literal covers become
//! `BUF`/`NOT`, empty covers become constants.  General covers are
//! synthesised as a two-level network: one `NOT` per negated literal
//! (signal `out$nI`), one `AND` per multi-literal cube (signal `out$cJ`),
//! and a final `OR`/`NOR` driving the block's output signal.
//!
//! # Latches
//!
//! `.latch <input> <output> [<type> <control>] [<init-val>]` becomes a
//! [`GateKind::Dff`].  The model is single-clock edge-triggered full scan:
//! the trigger type and control clock are parsed and discarded (a `<type>`
//! outside `fe re ah al as` is rejected), and the initial value (`0`–`3`,
//! default `3` = unknown) is accepted but not stored — state is controlled
//! through scan ([`crate::scan`]), never through reset, so the init value
//! carries no information here.  The writer emits `2` (don't care).
//!
//! # Error behaviour
//!
//! Hierarchical and multi-clock constructs (`.subckt`, `.gate`, `.mlatch`,
//! …) are rejected with [`NetlistError::Parse`] naming the line, as are
//! malformed cover rows and signals driven more than once (two `.names`
//! blocks, a `.latch` colliding with a `.names`, or a driver for a declared
//! `.inputs` signal); references to never-defined signals surface as
//! [`NetlistError::UnknownSignal`], and the remaining structural errors
//! (missing outputs, cycles) come from [`crate::CircuitBuilder`].
//! See `docs/FORMATS.md` for the full ingestion guide.

use crate::builder::{build_named, NamedGate};
use crate::circuit::Circuit;
use crate::error::NetlistError;
use crate::gate::GateKind;
use std::borrow::Cow;
use std::collections::HashMap;

/// One `.names` block: the signal list (inputs first, output last) and the
/// raw cover rows.
struct NamesBlock {
    signals: Vec<String>,
    cover: Vec<(String, char)>,
    line: usize,
}

/// One parsed netlist element, in declaration order.
enum Element {
    Names(NamesBlock),
    Latch {
        input: String,
        output: String,
        line: usize,
    },
}

/// One literal of a cube: a block-input position, plain or negated.
#[derive(Clone, Copy)]
enum Term {
    Pos(usize),
    Neg(usize),
}

/// The synthesis plan of one `.names` block.
enum Plan {
    /// The cover is constant (empty cover, or a tautological all-`-` cube).
    Const(bool),
    /// Sum of products: OR of the cubes, complemented when `phase` is false.
    Sop { cubes: Vec<Vec<Term>>, phase: bool },
}

/// Parses a BLIF description into a [`Circuit`].
///
/// `name` is the circuit name used when the text carries no `.model`
/// directive; a `.model` name takes precedence.  Signals may be referenced
/// before they are defined.
///
/// ```
/// use lsiq_netlist::blif;
/// use lsiq_netlist::GateKind;
///
/// let text = "\
/// .model majority
/// .inputs a b c
/// .outputs m
/// .names a b c m
/// 11- 1
/// 1-1 1
/// -11 1
/// .end
/// ";
/// let circuit = blif::parse("fallback", text).expect("parses");
/// assert_eq!(circuit.name(), "majority");
/// assert_eq!(circuit.primary_inputs().len(), 3);
/// let m = circuit.find_signal("m").expect("exists");
/// assert_eq!(circuit.gate(m).kind(), GateKind::Or);
/// ```
///
/// # Errors
///
/// Returns [`NetlistError::Parse`] for unsupported or malformed constructs
/// (with the offending line number), [`NetlistError::UnknownSignal`] for
/// references that are never defined, and the usual structural errors for
/// duplicate names, missing outputs or cycles.
pub fn parse(name: &str, text: &str) -> Result<Circuit, NetlistError> {
    let mut model_name: Option<String> = None;
    let mut inputs: Vec<String> = Vec::new();
    let mut outputs: Vec<String> = Vec::new();
    let mut elements: Vec<Element> = Vec::new();
    let mut in_names = false;

    for (line, content) in logical_lines(text) {
        let content = content.trim();
        if content.is_empty() {
            continue;
        }
        if content.starts_with('.') {
            let mut parts = content.split_whitespace();
            let directive = parts.next().expect("non-empty line");
            in_names = false;
            match directive {
                ".model" => {
                    if model_name.is_some() {
                        return Err(NetlistError::Parse {
                            line,
                            message: "duplicate `.model` directive".to_string(),
                        });
                    }
                    let given = parts.next().ok_or_else(|| NetlistError::Parse {
                        line,
                        message: "`.model` needs a name".to_string(),
                    })?;
                    model_name = Some(given.to_string());
                }
                ".inputs" => inputs.extend(parts.map(str::to_string)),
                ".outputs" => outputs.extend(parts.map(str::to_string)),
                ".names" => {
                    let signals: Vec<String> = parts.map(str::to_string).collect();
                    if signals.is_empty() {
                        return Err(NetlistError::Parse {
                            line,
                            message: "`.names` needs at least an output signal".to_string(),
                        });
                    }
                    elements.push(Element::Names(NamesBlock {
                        signals,
                        cover: Vec::new(),
                        line,
                    }));
                    in_names = true;
                }
                ".latch" => {
                    let tokens: Vec<&str> = parts.collect();
                    let (input, output, kind, init) = match tokens.as_slice() {
                        [input, output] => (*input, *output, None, None),
                        [input, output, init] => (*input, *output, None, Some(*init)),
                        [input, output, kind, _control] => (*input, *output, Some(*kind), None),
                        [input, output, kind, _control, init] => {
                            (*input, *output, Some(*kind), Some(*init))
                        }
                        _ => {
                            return Err(NetlistError::Parse {
                                line,
                                message: "`.latch` needs `<input> <output> \
                                          [<type> <control>] [<init-val>]`"
                                    .to_string(),
                            });
                        }
                    };
                    if let Some(kind) = kind {
                        if !matches!(kind, "fe" | "re" | "ah" | "al" | "as") {
                            return Err(NetlistError::Parse {
                                line,
                                message: format!(
                                    "invalid `.latch` trigger type `{kind}` \
                                     (expected fe, re, ah, al or as)"
                                ),
                            });
                        }
                    }
                    if let Some(init) = init {
                        if !matches!(init, "0" | "1" | "2" | "3") {
                            return Err(NetlistError::Parse {
                                line,
                                message: format!(
                                    "invalid `.latch` initial value `{init}` (expected 0-3)"
                                ),
                            });
                        }
                    }
                    elements.push(Element::Latch {
                        input: input.to_string(),
                        output: output.to_string(),
                        line,
                    });
                }
                ".end" => break,
                ".subckt" | ".gate" | ".mlatch" | ".clock" | ".exdc" => {
                    return Err(NetlistError::Parse {
                        line,
                        message: format!(
                            "unsupported BLIF construct `{directive}` (supported subset: \
                             .model, .inputs, .outputs, .names, .latch, .end)"
                        ),
                    });
                }
                other => {
                    return Err(NetlistError::Parse {
                        line,
                        message: format!("unknown BLIF directive `{other}`"),
                    });
                }
            }
        } else {
            if !in_names {
                return Err(NetlistError::Parse {
                    line,
                    message: format!("cover row `{content}` outside a `.names` block"),
                });
            }
            let block = match elements.last_mut() {
                Some(Element::Names(block)) => block,
                _ => unreachable!("in_names implies a trailing block"),
            };
            block
                .cover
                .push(parse_cover_row(content, block.signals.len() - 1, line)?);
        }
    }

    // Every signal has exactly one driver; report collisions with the line
    // of the second definition before the builder turns them into a
    // line-less `DuplicateSignal`.
    let input_set: std::collections::HashSet<&str> = inputs.iter().map(String::as_str).collect();
    let mut driven: HashMap<&str, usize> = HashMap::new();
    for element in &elements {
        let (output, line) = match element {
            Element::Names(block) => (
                block.signals.last().expect("validated non-empty").as_str(),
                block.line,
            ),
            Element::Latch { output, line, .. } => (output.as_str(), *line),
        };
        if input_set.contains(output) {
            return Err(NetlistError::Parse {
                line,
                message: format!("signal `{output}` is declared `.inputs` and also driven"),
            });
        }
        if let Some(first) = driven.insert(output, line) {
            return Err(NetlistError::Parse {
                line,
                message: format!(
                    "signal `{output}` driven more than once (first driven at line {first})"
                ),
            });
        }
    }

    // Expand every element into its gates, the synthesised helpers
    // included; a gate's id is its position in emission order.
    let mut gates: Vec<NamedGate<'_>> = inputs
        .iter()
        .map(|input| NamedGate {
            signal: Cow::Borrowed(input),
            kind: GateKind::Input,
            fanin: Vec::new(),
        })
        .collect();
    for element in &elements {
        match element {
            Element::Names(block) => expand_block(block, &mut gates)?,
            Element::Latch { input, output, .. } => gates.push(NamedGate {
                signal: Cow::Borrowed(output),
                kind: GateKind::Dff,
                fanin: vec![Cow::Borrowed(input)],
            }),
        }
    }

    build_named(
        model_name.unwrap_or_else(|| name.to_string()),
        &gates,
        &outputs,
    )
}

/// Joins `\`-continued lines and strips `#` comments, yielding
/// `(first line number, logical line)` pairs.
fn logical_lines(text: &str) -> Vec<(usize, String)> {
    let mut lines: Vec<(usize, String)> = Vec::new();
    let mut pending: Option<(usize, String)> = None;
    for (index, raw) in text.lines().enumerate() {
        let stripped = match raw.find('#') {
            Some(position) => &raw[..position],
            None => raw,
        };
        let trimmed = stripped.trim_end();
        let (content, continued) = match trimmed.strip_suffix('\\') {
            Some(head) => (head, true),
            None => (trimmed, false),
        };
        match pending.take() {
            Some((line, mut joined)) => {
                joined.push(' ');
                joined.push_str(content);
                if continued {
                    pending = Some((line, joined));
                } else {
                    lines.push((line, joined));
                }
            }
            None if continued => pending = Some((index + 1, content.to_string())),
            None => lines.push((index + 1, content.to_string())),
        }
    }
    if let Some(entry) = pending {
        lines.push(entry);
    }
    lines
}

/// Parses one cover row into `(input plane, output character)`.
fn parse_cover_row(
    content: &str,
    input_count: usize,
    line: usize,
) -> Result<(String, char), NetlistError> {
    let tokens: Vec<&str> = content.split_whitespace().collect();
    let (plane, output) = match (input_count, tokens.as_slice()) {
        (0, [output]) => (String::new(), *output),
        (_, [plane, output]) if input_count > 0 => ((*plane).to_string(), *output),
        _ => {
            return Err(NetlistError::Parse {
                line,
                message: format!(
                    "expected {} cover row, found `{content}`",
                    if input_count == 0 {
                        "a bare `0`/`1`".to_string()
                    } else {
                        "`<input-plane> <output>`".to_string()
                    }
                ),
            })
        }
    };
    if plane.chars().count() != input_count {
        return Err(NetlistError::Parse {
            line,
            message: format!(
                "input plane `{plane}` has {} columns, the `.names` block has {input_count} inputs",
                plane.chars().count()
            ),
        });
    }
    if let Some(bad) = plane.chars().find(|c| !matches!(c, '0' | '1' | '-')) {
        return Err(NetlistError::Parse {
            line,
            message: format!("invalid input-plane character `{bad}` (expected 0, 1 or -)"),
        });
    }
    match output {
        "0" => Ok((plane, '0')),
        "1" => Ok((plane, '1')),
        other => Err(NetlistError::Parse {
            line,
            message: format!("invalid cover output `{other}` (expected 0 or 1)"),
        }),
    }
}

/// Derives the synthesis plan of a `.names` block from its cover.
fn plan_block(block: &NamesBlock) -> Result<Plan, NetlistError> {
    if block.cover.is_empty() {
        // No ON-set cube: the function is constant 0.
        return Ok(Plan::Const(false));
    }
    let phase = block.cover[0].1 == '1';
    if block
        .cover
        .iter()
        .any(|(_, value)| (*value == '1') != phase)
    {
        return Err(NetlistError::Parse {
            line: block.line,
            message: "mixed cover output phases in one `.names` block".to_string(),
        });
    }
    let mut cubes = Vec::with_capacity(block.cover.len());
    for (plane, _) in &block.cover {
        let mut terms = Vec::new();
        for (position, value) in plane.chars().enumerate() {
            match value {
                '1' => terms.push(Term::Pos(position)),
                '0' => terms.push(Term::Neg(position)),
                _ => {}
            }
        }
        if terms.is_empty() {
            // An all-`-` cube covers everything: the function is constant.
            return Ok(Plan::Const(phase));
        }
        cubes.push(terms);
    }
    Ok(Plan::Sop { cubes, phase })
}

/// Appends the gates of one `.names` block in emission order: any `$n`
/// helpers (one shared NOT per negated block input, on first use) and `$c`
/// helpers (one AND per multi-literal cube of a general cover), then the
/// gate driving the block's output.
fn expand_block<'a>(
    block: &'a NamesBlock,
    gates: &mut Vec<NamedGate<'a>>,
) -> Result<(), NetlistError> {
    let (output, input_names) = block.signals.split_last().expect("validated non-empty");
    let plain = |position: usize| Cow::Borrowed(input_names[position].as_str());
    let (cubes, phase) = match plan_block(block)? {
        Plan::Const(value) => {
            let kind = if value {
                GateKind::Const1
            } else {
                GateKind::Const0
            };
            gates.push(NamedGate {
                signal: Cow::Borrowed(output),
                kind,
                fanin: Vec::new(),
            });
            return Ok(());
        }
        Plan::Sop { cubes, phase } => (cubes, phase),
    };

    let mut negated = vec![false; input_names.len()];
    let mut literal = |gates: &mut Vec<NamedGate<'a>>, term: Term| match term {
        Term::Pos(position) => plain(position),
        Term::Neg(position) => {
            let name = format!("{output}$n{position}");
            if !negated[position] {
                negated[position] = true;
                gates.push(NamedGate {
                    signal: Cow::Owned(name.clone()),
                    kind: GateKind::Not,
                    fanin: vec![plain(position)],
                });
            }
            Cow::Owned(name)
        }
    };

    let (kind, fanin) = if let [cube] = cubes.as_slice() {
        // Single cube: fold the polarity into the gate kind when uniform.
        let position = |term: &Term| match *term {
            Term::Pos(position) | Term::Neg(position) => position,
        };
        if let [term] = cube.as_slice() {
            let kind = if matches!(term, Term::Pos(_)) == phase {
                GateKind::Buf
            } else {
                GateKind::Not
            };
            (kind, vec![plain(position(term))])
        } else if cube.iter().all(|term| matches!(term, Term::Pos(_))) {
            let kind = if phase { GateKind::And } else { GateKind::Nand };
            (
                kind,
                cube.iter().map(|term| plain(position(term))).collect(),
            )
        } else if cube.iter().all(|term| matches!(term, Term::Neg(_))) {
            // AND of complements is NOR of the plain signals (De Morgan).
            let kind = if phase { GateKind::Nor } else { GateKind::Or };
            (
                kind,
                cube.iter().map(|term| plain(position(term))).collect(),
            )
        } else {
            let kind = if phase { GateKind::And } else { GateKind::Nand };
            (
                kind,
                cube.iter().map(|&term| literal(gates, term)).collect(),
            )
        }
    } else {
        // General sum of products: one AND per multi-literal cube, then the
        // OR (NOR for phase 0) over the cube terms.
        let mut cube_terms = Vec::with_capacity(cubes.len());
        for (cube_index, cube) in cubes.iter().enumerate() {
            let term = if let [term] = cube.as_slice() {
                literal(gates, *term)
            } else {
                let fanin = cube.iter().map(|&term| literal(gates, term)).collect();
                let name = format!("{output}$c{cube_index}");
                gates.push(NamedGate {
                    signal: Cow::Owned(name.clone()),
                    kind: GateKind::And,
                    fanin,
                });
                Cow::Owned(name)
            };
            cube_terms.push(term);
        }
        let kind = if phase { GateKind::Or } else { GateKind::Nor };
        (kind, cube_terms)
    };
    gates.push(NamedGate {
        signal: Cow::Borrowed(output),
        kind,
        fanin,
    });
    Ok(())
}

/// The widest XOR/XNOR gate [`write`] emits.  A parity gate's cover lists
/// every input assignment of the right parity, `2^(n − 1)` rows for `n`
/// inputs: 32,768 rows at this limit.
const MAX_PARITY_FANIN: usize = 16;

/// Serialises a circuit to BLIF text.
///
/// Every logic gate becomes one `.names` block with a canonical cover and
/// every D flip-flop a `.latch` line (initial value `2`, don't care — state
/// is controlled through scan, not reset); the output parses back to a
/// circuit with the same signal names and equivalent logic (XOR/XNOR covers
/// are exponential in fanin and re-synthesise as sum-of-products networks,
/// all other kinds round-trip structurally).
///
/// # Errors
///
/// Returns [`NetlistError::ParityTooWide`], naming the gate, for an XOR or
/// XNOR gate with more than 16 inputs: its cover would have `2^(n − 1)`
/// rows (over 65,000 at 17 inputs).
pub fn write(circuit: &Circuit) -> Result<String, NetlistError> {
    let mut out = String::new();
    out.push_str(&format!(".model {}\n", circuit.name()));
    if !circuit.primary_inputs().is_empty() {
        out.push_str(".inputs");
        for &input in circuit.primary_inputs() {
            out.push(' ');
            out.push_str(circuit.signal_name(input));
        }
        out.push('\n');
    }
    if !circuit.primary_outputs().is_empty() {
        out.push_str(".outputs");
        for &output in circuit.primary_outputs() {
            out.push(' ');
            out.push_str(circuit.signal_name(output));
        }
        out.push('\n');
    }
    for (id, gate) in circuit.iter() {
        if gate.kind() == GateKind::Input {
            continue;
        }
        if gate.kind() == GateKind::Dff {
            out.push_str(&format!(
                ".latch {} {} 2\n",
                circuit.signal_name(gate.fanin()[0]),
                circuit.signal_name(id)
            ));
            continue;
        }
        let fanin = gate.fanin().len();
        if matches!(gate.kind(), GateKind::Xor | GateKind::Xnor) && fanin > MAX_PARITY_FANIN {
            return Err(NetlistError::ParityTooWide {
                signal: circuit.signal_name(id).to_string(),
                kind: gate.kind().name(),
                fanin,
                limit: MAX_PARITY_FANIN,
            });
        }
        out.push_str(".names");
        for &driver in gate.fanin() {
            out.push(' ');
            out.push_str(circuit.signal_name(driver));
        }
        out.push(' ');
        out.push_str(circuit.signal_name(id));
        out.push('\n');
        match gate.kind() {
            GateKind::Input | GateKind::Dff => unreachable!("handled above"),
            GateKind::Const0 => {}
            GateKind::Const1 => out.push_str("1\n"),
            GateKind::Buf => out.push_str("1 1\n"),
            GateKind::Not => out.push_str("0 1\n"),
            GateKind::And => out.push_str(&format!("{} 1\n", "1".repeat(fanin))),
            GateKind::Nand => out.push_str(&format!("{} 0\n", "1".repeat(fanin))),
            GateKind::Or => out.push_str(&format!("{} 0\n", "0".repeat(fanin))),
            GateKind::Nor => out.push_str(&format!("{} 1\n", "0".repeat(fanin))),
            GateKind::Xor | GateKind::Xnor => {
                let want_odd = gate.kind() == GateKind::Xor;
                for assignment in 0u64..(1u64 << fanin) {
                    if (assignment.count_ones() % 2 == 1) != want_odd {
                        continue;
                    }
                    let row: String = (0..fanin)
                        .map(|bit| {
                            if (assignment >> bit) & 1 == 1 {
                                '1'
                            } else {
                                '0'
                            }
                        })
                        .collect();
                    out.push_str(&format!("{row} 1\n"));
                }
            }
        }
    }
    out.push_str(".end\n");
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::library;
    use crate::{CircuitBuilder, GateId};

    const C17_BLIF: &str = "\
.model c17
.inputs G1 G2 G3 G6 G7
.outputs G22 G23
.names G1 G3 G10
11 0
.names G3 G6 G11
11 0
.names G2 G11 G16
11 0
.names G11 G7 G19
11 0
.names G10 G16 G22
11 0
.names G16 G19 G23
11 0
.end
";

    /// Tiny reference evaluator (recursive with memoisation) so the BLIF
    /// tests can check functional equivalence without depending on the
    /// simulation crate.
    fn evaluate(circuit: &Circuit, assignment: &[bool]) -> Vec<bool> {
        fn value(circuit: &Circuit, id: GateId, memo: &mut Vec<Option<bool>>) -> bool {
            if let Some(cached) = memo[id.index()] {
                return cached;
            }
            let gate = circuit.gate(id);
            let inputs: Vec<bool> = gate
                .fanin()
                .iter()
                .map(|&driver| value(circuit, driver, memo))
                .collect();
            let result = match gate.kind() {
                GateKind::Input => false,
                GateKind::Dff => false, // reset state
                GateKind::Const0 => false,
                GateKind::Const1 => true,
                GateKind::Buf => inputs[0],
                GateKind::Not => !inputs[0],
                GateKind::And => inputs.iter().all(|&v| v),
                GateKind::Nand => !inputs.iter().all(|&v| v),
                GateKind::Or => inputs.iter().any(|&v| v),
                GateKind::Nor => !inputs.iter().any(|&v| v),
                GateKind::Xor => inputs.iter().filter(|&&v| v).count() % 2 == 1,
                GateKind::Xnor => inputs.iter().filter(|&&v| v).count() % 2 == 0,
            };
            memo[id.index()] = Some(result);
            result
        }
        let mut memo: Vec<Option<bool>> = vec![None; circuit.gate_count()];
        for (position, &input) in circuit.primary_inputs().iter().enumerate() {
            memo[input.index()] = Some(assignment.get(position).copied().unwrap_or(false));
        }
        circuit
            .primary_outputs()
            .iter()
            .map(|&output| value(circuit, output, &mut memo))
            .collect()
    }

    #[test]
    fn parses_c17_with_direct_gate_mapping() {
        let circuit = parse("fallback", C17_BLIF).expect("parses");
        assert_eq!(circuit.name(), "c17");
        assert_eq!(circuit.primary_inputs().len(), 5);
        assert_eq!(circuit.primary_outputs().len(), 2);
        assert_eq!(circuit.gate_count(), 11); // 5 inputs + 6 NANDs, no helpers
        for signal in ["G10", "G11", "G16", "G19", "G22", "G23"] {
            let id = circuit.find_signal(signal).expect("exists");
            assert_eq!(circuit.gate(id).kind(), GateKind::Nand, "{signal}");
        }
        // Bit-for-bit the same function as the built-in library circuit.
        let reference = library::c17();
        for pattern in 0u64..32 {
            let assignment: Vec<bool> = (0..5).map(|bit| (pattern >> bit) & 1 == 1).collect();
            assert_eq!(
                evaluate(&circuit, &assignment),
                evaluate(&reference, &assignment),
                "pattern {pattern}"
            );
        }
    }

    #[test]
    fn maps_single_cube_covers_onto_primitives() {
        let text = "\
.model kinds
.inputs a b
.outputs and_ nand_ nor_ or_ buf_ not_
.names a b and_
11 1
.names a b nand_
11 0
.names a b nor_
00 1
.names a b or_
00 0
.names a buf_
1 1
.names a not_
0 1
.end
";
        let circuit = parse("kinds", text).expect("parses");
        let expect = [
            ("and_", GateKind::And),
            ("nand_", GateKind::Nand),
            ("nor_", GateKind::Nor),
            ("or_", GateKind::Or),
            ("buf_", GateKind::Buf),
            ("not_", GateKind::Not),
        ];
        for (signal, kind) in expect {
            let id = circuit.find_signal(signal).expect("exists");
            assert_eq!(circuit.gate(id).kind(), kind, "{signal}");
        }
        assert_eq!(circuit.gate_count(), 8); // no helper gates needed
    }

    #[test]
    fn synthesises_general_covers_as_two_level_networks() {
        // f = a·¬b + c  (mixed polarity, multiple cubes).
        let text = "\
.model sop
.inputs a b c
.outputs f
.names a b c f
10- 1
--1 1
.end
";
        let circuit = parse("sop", text).expect("parses");
        let f = circuit.find_signal("f").expect("exists");
        assert_eq!(circuit.gate(f).kind(), GateKind::Or);
        // Helpers: one NOT for ¬b, one AND for the first cube.
        assert!(circuit.find_signal("f$n1").is_some());
        assert!(circuit.find_signal("f$c0").is_some());
        for (a, b, c) in [
            (false, false, false),
            (true, false, false),
            (true, true, true),
        ] {
            let expected = (a && !b) || c;
            assert_eq!(
                evaluate(&circuit, &[a, b, c]),
                vec![expected],
                "{a} {b} {c}"
            );
        }
    }

    #[test]
    fn constants_and_tautologies() {
        let text = "\
.model consts
.outputs zero one dash
.names zero
.names one
1
.names dash
0
.end
";
        // `.names dash` + row `0`: empty OFF-set cube covers everything,
        // so the function is constant 0.
        let circuit = parse("consts", text).expect("parses");
        let zero = circuit.find_signal("zero").expect("exists");
        let one = circuit.find_signal("one").expect("exists");
        let dash = circuit.find_signal("dash").expect("exists");
        assert_eq!(circuit.gate(zero).kind(), GateKind::Const0);
        assert_eq!(circuit.gate(one).kind(), GateKind::Const1);
        assert_eq!(circuit.gate(dash).kind(), GateKind::Const0);
    }

    #[test]
    fn line_continuations_and_comments() {
        let text = "\
.model cont   # trailing comment
.inputs a \\
b
.outputs z
.names a b \\
z
11 1
.end
";
        let circuit = parse("cont", text).expect("parses");
        assert_eq!(circuit.primary_inputs().len(), 2);
        let z = circuit.find_signal("z").expect("exists");
        assert_eq!(circuit.gate(z).kind(), GateKind::And);
    }

    #[test]
    fn forward_references_are_allowed() {
        let text = "\
.model forward
.inputs a
.outputs z
.names y z
0 1
.names a y
0 1
.end
";
        let circuit = parse("forward", text).expect("parses");
        assert_eq!(circuit.gate_count(), 3);
    }

    #[test]
    fn model_name_falls_back_to_the_argument() {
        let text = ".inputs a\n.outputs z\n.names a z\n1 1\n";
        let circuit = parse("fallback", text).expect("parses");
        assert_eq!(circuit.name(), "fallback");
    }

    #[test]
    fn hierarchical_constructs_are_rejected() {
        for (construct, snippet) in [
            (".subckt", ".subckt sub a=x\n"),
            (".gate", ".gate nand2 a=x b=y o=z\n"),
            (".mlatch", ".mlatch lat d=x q=z clk 0\n"),
        ] {
            let text = format!(".model seq\n.inputs a\n.outputs z\n{snippet}");
            match parse("seq", &text) {
                Err(NetlistError::Parse { line, message }) => {
                    assert_eq!(line, 4, "{construct}");
                    assert!(message.contains(construct), "{message}");
                }
                other => panic!("{construct}: expected parse error, got {other:?}"),
            }
        }
    }

    #[test]
    fn malformed_covers_are_rejected_with_lines() {
        // Wrong plane width.
        let text = ".model m\n.inputs a b\n.outputs z\n.names a b z\n111 1\n.end\n";
        match parse("m", text) {
            Err(NetlistError::Parse { line, message }) => {
                assert_eq!(line, 5);
                assert!(message.contains("3 columns"), "{message}");
            }
            other => panic!("expected parse error, got {other:?}"),
        }
        // Bad plane character.
        let text = ".model m\n.inputs a\n.outputs z\n.names a z\nx 1\n.end\n";
        assert!(matches!(
            parse("m", text),
            Err(NetlistError::Parse { line: 5, .. })
        ));
        // Bad output character.
        let text = ".model m\n.inputs a\n.outputs z\n.names a z\n1 2\n.end\n";
        assert!(matches!(
            parse("m", text),
            Err(NetlistError::Parse { line: 5, .. })
        ));
        // Mixed phases.
        let text = ".model m\n.inputs a b\n.outputs z\n.names a b z\n11 1\n00 0\n.end\n";
        match parse("m", text) {
            Err(NetlistError::Parse { message, .. }) => {
                assert!(message.contains("mixed"), "{message}")
            }
            other => panic!("expected parse error, got {other:?}"),
        }
        // Cover row with no block.
        let text = ".model m\n.inputs a\n11 1\n";
        assert!(matches!(
            parse("m", text),
            Err(NetlistError::Parse { line: 3, .. })
        ));
        // Unknown directive, duplicate model, empty .names.
        for text in [
            ".model m\n.frobnicate\n",
            ".model m\n.model n\n",
            ".model m\n.names\n",
        ] {
            assert!(matches!(parse("m", text), Err(NetlistError::Parse { .. })));
        }
    }

    #[test]
    fn unknown_signals_are_reported() {
        let text = ".model m\n.inputs a\n.outputs z\n.names ghost z\n1 1\n.end\n";
        match parse("m", text) {
            Err(NetlistError::UnknownSignal { name }) => assert_eq!(name, "ghost"),
            other => panic!("expected unknown signal, got {other:?}"),
        }
        let text = ".model m\n.inputs a\n.outputs ghost\n.names a z\n1 1\n.end\n";
        assert!(matches!(
            parse("m", text),
            Err(NetlistError::UnknownSignal { .. })
        ));
    }

    #[test]
    fn latch_forms_all_parse_to_dff() {
        // 2-, 3-, 4- and 5-token `.latch` lines, including a feedback loop
        // through a latch (q2 toggles off its own inverse).
        let text = "\
.model seq
.inputs d clk
.outputs q0 q1 q2 q3
.latch d q0
.latch d q1 0
.latch d q3 re clk
.latch nq2 q2 re clk 3
.names q2 nq2
0 1
.end
";
        let circuit = parse("seq", text).expect("parses");
        assert_eq!(circuit.state_elements().len(), 4);
        assert!(circuit.has_state());
        for signal in ["q0", "q1", "q2", "q3"] {
            let id = circuit.find_signal(signal).expect("exists");
            assert_eq!(circuit.gate(id).kind(), GateKind::Dff, "{signal}");
        }
        let q2 = circuit.find_signal("q2").expect("exists");
        let nq2 = circuit.find_signal("nq2").expect("exists");
        assert_eq!(circuit.gate(q2).fanin(), &[nq2]);
    }

    #[test]
    fn malformed_latches_are_rejected_with_lines() {
        // Too few tokens.
        let text = ".model m\n.inputs d\n.outputs q\n.latch d\n.end\n";
        match parse("m", text) {
            Err(NetlistError::Parse { line, message }) => {
                assert_eq!(line, 4);
                assert!(message.contains(".latch"), "{message}");
            }
            other => panic!("expected parse error, got {other:?}"),
        }
        // Bad initial value.
        let text = ".model m\n.inputs d\n.outputs q\n.latch d q 7\n.end\n";
        match parse("m", text) {
            Err(NetlistError::Parse { line, message }) => {
                assert_eq!(line, 4);
                assert!(message.contains("initial value"), "{message}");
            }
            other => panic!("expected parse error, got {other:?}"),
        }
        // Bad trigger type.
        let text = ".model m\n.inputs d\n.outputs q\n.latch d q xx clk 0\n.end\n";
        match parse("m", text) {
            Err(NetlistError::Parse { line, message }) => {
                assert_eq!(line, 4);
                assert!(message.contains("trigger type"), "{message}");
            }
            other => panic!("expected parse error, got {other:?}"),
        }
        // Too many tokens.
        let text = ".model m\n.inputs d\n.outputs q\n.latch d q re clk 0 extra\n.end\n";
        assert!(matches!(
            parse("m", text),
            Err(NetlistError::Parse { line: 4, .. })
        ));
    }

    #[test]
    fn cycle_error_names_a_signal_on_the_cycle() {
        // z reads the cycle x = NOT(y), y = NOT(x) without lying on it.
        let text = ".model m\n.inputs a\n.outputs z\n.names a x z\n11 1\n\
                    .names y x\n0 1\n.names x y\n0 1\n.end\n";
        let Err(NetlistError::CombinationalCycle { signal }) = parse("m", text) else {
            panic!("expected a combinational cycle");
        };
        assert!(signal == "x" || signal == "y", "named `{signal}`");
    }

    #[test]
    fn duplicate_drivers_are_rejected_with_lines() {
        // Two `.names` blocks for one signal.
        let text = ".model m\n.inputs a b\n.outputs z\n.names a z\n1 1\n.names b z\n1 1\n.end\n";
        match parse("m", text) {
            Err(NetlistError::Parse { line, message }) => {
                assert_eq!(line, 6);
                assert!(message.contains("more than once"), "{message}");
                assert!(message.contains("line 4"), "{message}");
            }
            other => panic!("expected parse error, got {other:?}"),
        }
        // A `.latch` output colliding with a `.names` output.
        let text = ".model m\n.inputs a\n.outputs z\n.names a z\n1 1\n.latch a z\n.end\n";
        assert!(matches!(
            parse("m", text),
            Err(NetlistError::Parse { line: 6, .. })
        ));
        // A driver for a declared `.inputs` signal.
        let text = ".model m\n.inputs a b\n.outputs a\n.names b a\n1 1\n.end\n";
        match parse("m", text) {
            Err(NetlistError::Parse { line, message }) => {
                assert_eq!(line, 4);
                assert!(message.contains(".inputs"), "{message}");
            }
            other => panic!("expected parse error, got {other:?}"),
        }
        // Same, through a latch.
        let text = ".model m\n.inputs a b\n.outputs a\n.latch b a\n.end\n";
        assert!(matches!(
            parse("m", text),
            Err(NetlistError::Parse { line: 4, .. })
        ));
    }

    #[test]
    fn output_that_is_also_an_input_round_trips() {
        let mut b = CircuitBuilder::new("passthrough");
        let a = b.input("a");
        let z = b.gate("z", GateKind::Not, &[a]);
        b.mark_output(a);
        b.mark_output(z);
        let original = b.finish().expect("valid");
        let text = write(&original).expect("writes");
        let reparsed = parse("passthrough", &text).expect("round trips");
        assert_eq!(reparsed.primary_outputs().len(), 2);
        let a = reparsed.find_signal("a").expect("exists");
        assert_eq!(reparsed.gate(a).kind(), GateKind::Input);
        assert!(reparsed.is_primary_output(a));
    }

    #[test]
    fn constant_gates_round_trip() {
        let mut b = CircuitBuilder::new("consts");
        let zero = b.constant_zero("zero");
        let one = b.constant_one("one");
        b.mark_output(zero);
        b.mark_output(one);
        let original = b.finish().expect("valid");
        let text = write(&original).expect("writes");
        let reparsed = parse("consts", &text).expect("round trips");
        let zero = reparsed.find_signal("zero").expect("exists");
        let one = reparsed.find_signal("one").expect("exists");
        assert_eq!(reparsed.gate(zero).kind(), GateKind::Const0);
        assert_eq!(reparsed.gate(one).kind(), GateKind::Const1);
    }

    #[test]
    fn latch_round_trip_preserves_state_elements() {
        // A two-bit Johnson-style twist: q1 = DFF(q0), q0 = DFF(NOT(q1)).
        let mut b = CircuitBuilder::new("twist");
        let q1 = b.dff_placeholder("q1");
        let nq1 = b.gate("nq1", GateKind::Not, &[q1]);
        let q0 = b.dff("q0", nq1);
        b.bind_dff(q1, q0);
        let out = b.gate("out", GateKind::And, &[q0, q1]);
        b.mark_output(out);
        let original = b.finish().expect("valid");
        let text = write(&original).expect("writes");
        assert!(text.contains(".latch q0 q1 2"), "{text}");
        assert!(text.contains(".latch nq1 q0 2"), "{text}");
        let reparsed = parse("twist", &text).expect("round trips");
        assert_eq!(
            reparsed.state_elements().len(),
            original.state_elements().len()
        );
        for (id, gate) in original.iter() {
            let name = original.signal_name(id);
            let new_id = reparsed.find_signal(name).expect("signal survives");
            assert_eq!(reparsed.gate(new_id).kind(), gate.kind(), "{name}");
        }
    }

    #[test]
    fn round_trip_preserves_structure_without_xor() {
        let original = library::c17();
        let text = write(&original).expect("writes");
        let reparsed = parse(original.name(), &text).expect("round trips");
        assert_eq!(reparsed.gate_count(), original.gate_count());
        assert_eq!(reparsed.name(), original.name());
        for (id, gate) in original.iter() {
            let name = original.signal_name(id);
            let new_id = reparsed.find_signal(name).expect("signal survives");
            assert_eq!(reparsed.gate(new_id).kind(), gate.kind(), "{name}");
            let old_fanin: Vec<&str> = gate
                .fanin()
                .iter()
                .map(|&driver| original.signal_name(driver))
                .collect();
            let new_fanin: Vec<&str> = reparsed
                .gate(new_id)
                .fanin()
                .iter()
                .map(|&driver| reparsed.signal_name(driver))
                .collect();
            assert_eq!(old_fanin, new_fanin, "{name}");
        }
    }

    #[test]
    fn round_trip_preserves_function_with_xor() {
        // XOR covers re-synthesise as SOP networks: structure changes,
        // function must not.
        let original = library::full_adder();
        let text = write(&original).expect("writes");
        let reparsed = parse(original.name(), &text).expect("round trips");
        for pattern in 0u64..8 {
            let assignment: Vec<bool> = (0..3).map(|bit| (pattern >> bit) & 1 == 1).collect();
            assert_eq!(
                evaluate(&original, &assignment),
                evaluate(&reparsed, &assignment),
                "pattern {pattern}"
            );
        }
    }

    /// A circuit of one `kind` gate `z` over `fanin` inputs.
    fn parity_gate(kind: GateKind, fanin: usize) -> Circuit {
        let mut b = CircuitBuilder::new("parity");
        let inputs: Vec<GateId> = (0..fanin).map(|i| b.input(format!("i{i}"))).collect();
        let z = b.gate("z", kind, &inputs);
        b.mark_output(z);
        b.finish().expect("valid")
    }

    #[test]
    fn parity_gate_at_the_fanin_limit_round_trips() {
        let original = parity_gate(GateKind::Xor, MAX_PARITY_FANIN);
        let text = write(&original).expect("a 16-input XOR writes");
        assert_eq!(
            text.lines().filter(|line| line.ends_with(" 1")).count(),
            1 << (MAX_PARITY_FANIN - 1)
        );
        let reparsed = parse("parity", &text).expect("round trips");
        // All zeros, every single one, all ones, and a few mixed words.
        let mut words: Vec<u64> = vec![0, 0xFFFF, 0x5A5A, 0x8001, 0x7FFE];
        words.extend((0..MAX_PARITY_FANIN).map(|bit| 1 << bit));
        for word in words {
            let assignment: Vec<bool> = (0..MAX_PARITY_FANIN)
                .map(|bit| (word >> bit) & 1 == 1)
                .collect();
            let expected = word.count_ones() % 2 == 1;
            assert_eq!(evaluate(&original, &assignment), [expected], "{word:#x}");
            assert_eq!(evaluate(&reparsed, &assignment), [expected], "{word:#x}");
        }
    }

    #[test]
    fn parity_gate_above_the_fanin_limit_is_refused() {
        for (kind, fanin) in [
            (GateKind::Xnor, MAX_PARITY_FANIN + 1),
            (GateKind::Xor, 20),
            (GateKind::Xor, 64),
            (GateKind::Xnor, 65),
        ] {
            assert_eq!(
                write(&parity_gate(kind, fanin)),
                Err(NetlistError::ParityTooWide {
                    signal: "z".into(),
                    kind: kind.name(),
                    fanin,
                    limit: MAX_PARITY_FANIN,
                }),
                "{kind} with {fanin} inputs"
            );
        }
    }
}

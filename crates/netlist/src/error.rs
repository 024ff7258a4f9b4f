//! Error type for netlist construction and parsing.

use std::fmt;

/// Error returned by circuit construction, validation and `.bench` parsing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetlistError {
    /// A signal name was referenced before it was defined.
    UnknownSignal {
        /// The undefined signal name.
        name: String,
    },
    /// A signal name was defined more than once.
    DuplicateSignal {
        /// The repeated signal name.
        name: String,
    },
    /// A gate was given the wrong number of inputs for its kind.
    BadFanin {
        /// The gate kind involved.
        kind: &'static str,
        /// The number of inputs supplied.
        actual: usize,
        /// Human-readable description of what the kind requires.
        expected: &'static str,
    },
    /// The circuit contains a combinational cycle.
    CombinationalCycle {
        /// The name of a signal on the cycle.
        signal: String,
    },
    /// A syntax error in a `.bench` description.
    Parse {
        /// 1-based line number of the offending line.
        line: usize,
        /// Description of the problem.
        message: String,
    },
    /// The circuit has no primary outputs (nothing is observable).
    NoOutputs,
    /// A gate identifier was out of range for the circuit.
    InvalidGateId {
        /// The numeric id that was out of range.
        id: usize,
        /// The number of gates in the circuit.
        gate_count: usize,
    },
    /// A scan-insertion request was invalid for the target circuit.
    Scan {
        /// Description of the problem.
        message: String,
    },
    /// An XOR/XNOR gate too wide for the BLIF writer: its cover would list
    /// `2^(fanin − 1)` rows.
    ParityTooWide {
        /// The gate's output signal.
        signal: String,
        /// The gate kind (`XOR` or `XNOR`).
        kind: &'static str,
        /// The gate's number of inputs.
        fanin: usize,
        /// The widest parity gate the writer emits.
        limit: usize,
    },
}

impl fmt::Display for NetlistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetlistError::UnknownSignal { name } => write!(f, "unknown signal `{name}`"),
            NetlistError::DuplicateSignal { name } => {
                write!(f, "signal `{name}` defined more than once")
            }
            NetlistError::BadFanin {
                kind,
                actual,
                expected,
            } => write!(
                f,
                "gate kind {kind} given {actual} inputs; expected {expected}"
            ),
            NetlistError::CombinationalCycle { signal } => {
                write!(f, "combinational cycle through signal `{signal}`")
            }
            NetlistError::Parse { line, message } => {
                write!(f, "parse error at line {line}: {message}")
            }
            NetlistError::NoOutputs => write!(f, "circuit has no primary outputs"),
            NetlistError::Scan { message } => write!(f, "scan insertion failed: {message}"),
            NetlistError::ParityTooWide {
                signal,
                kind,
                fanin,
                limit,
            } => write!(
                f,
                "{kind} gate `{signal}` has {fanin} inputs; a BLIF parity cover is written for at most {limit}"
            ),
            NetlistError::InvalidGateId { id, gate_count } => {
                write!(
                    f,
                    "gate id {id} out of range for circuit with {gate_count} gates"
                )
            }
        }
    }
}

impl std::error::Error for NetlistError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_mention_key_facts() {
        let cases: Vec<(NetlistError, &str)> = vec![
            (NetlistError::UnknownSignal { name: "foo".into() }, "foo"),
            (NetlistError::DuplicateSignal { name: "bar".into() }, "bar"),
            (
                NetlistError::BadFanin {
                    kind: "NOT",
                    actual: 2,
                    expected: "exactly one input",
                },
                "NOT",
            ),
            (
                NetlistError::CombinationalCycle {
                    signal: "loop".into(),
                },
                "loop",
            ),
            (
                NetlistError::Parse {
                    line: 4,
                    message: "bad token".into(),
                },
                "line 4",
            ),
            (NetlistError::NoOutputs, "no primary outputs"),
            (
                NetlistError::InvalidGateId {
                    id: 9,
                    gate_count: 3,
                },
                "9",
            ),
            (
                NetlistError::Scan {
                    message: "no flip-flops".into(),
                },
                "no flip-flops",
            ),
            (
                NetlistError::ParityTooWide {
                    signal: "wide".into(),
                    kind: "XOR",
                    fanin: 17,
                    limit: 16,
                },
                "`wide` has 17 inputs",
            ),
        ];
        for (err, needle) in cases {
            assert!(
                err.to_string().contains(needle),
                "`{err}` should mention `{needle}`"
            );
        }
    }

    #[test]
    fn error_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<NetlistError>();
    }
}

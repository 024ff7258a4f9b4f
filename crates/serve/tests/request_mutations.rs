//! A seeded mutation harness for the JSON-lines protocol.  A stream of five
//! well-formed requests (a `forward`, a c17 `line`, a c17 `bist`, an
//! `inverse` and a 200-chip alu4 `lot`) is mutated by one byte flip, a
//! truncation, a splice of two lines or an inserted JSON token, and each
//! mutant (decoded with `String::from_utf8_lossy`) goes through
//! `QueryService::run_lines`.  Every mutant must be answered line by line
//! or stop at its first malformed line with a line-numbered error record;
//! none may panic.

use lsi_quality::stats::rng::{Rng, SplitMix64};
use lsi_quality::Session;
use lsiq_exec::RunConfig;
use lsiq_serve::artifact::ArtifactStore;
use lsiq_serve::json::JsonValue;
use lsiq_serve::service::{QueryService, ServeError};
use std::panic::{self, AssertUnwindSafe};

/// The seed requests, one per line.
const REQUESTS: [&str; 5] = [
    r#"{"op":"forward","id":0,"yield":0.07,"n0":8,"coverage":0.95}"#,
    r#"{"op":"line","id":1,"circuit":"c17","chips":300,"seed":5,"checkpoints":[4,8]}"#,
    r#"{"op":"bist","id":2,"circuit":"c17","test_length":32,"signature_width":8,"session_len":8,"channels":2}"#,
    r#"{"op":"inverse","id":3,"yield":0.07,"n0":8,"target_reject":0.001}"#,
    r#"{"op":"lot","id":4,"circuit":"alu4","chips":200,"yield":0.3,"n0":2,"seed":9,"checkpoints":[1,16]}"#,
];

/// Mutants per seed.
const CASES: usize = 1_500;

/// JSON tokens inserted where they do not belong: structure, literals an
/// integer field cannot hold, a key, and a NUL both escaped and raw.
const TOKENS: [&str; 14] = [
    "{", "}", "[", "]", "\"", ":", ",", "-", "0", "1e999", "null", "\"op\"", "\\u0000", "\0",
];

/// One seeded mutation of the request lines: a flipped byte, a
/// truncation, the head of one line joined to the tail of another, or an
/// inserted token.
fn mutate(lines: &[&str], rng: &mut SplitMix64) -> Vec<u8> {
    let mut bytes = lines.join("\n").into_bytes();
    let len = bytes.len();
    match rng.next_index(4) {
        0 => bytes[rng.next_index(len)] ^= 1 + rng.next_index(255) as u8,
        1 => bytes.truncate(rng.next_index(len)),
        2 => {
            let (head, tail) = (rng.next_index(lines.len()), rng.next_index(lines.len()));
            let head_line = lines[head].as_bytes();
            let tail_line = lines[tail].as_bytes();
            let mut spliced = head_line[..rng.next_index(head_line.len() + 1)].to_vec();
            spliced.extend_from_slice(&tail_line[rng.next_index(tail_line.len() + 1)..]);
            let mut joined: Vec<Vec<u8>> = lines.iter().map(|l| l.as_bytes().to_vec()).collect();
            joined[head] = spliced;
            bytes = joined.join(&b'\n');
        }
        _ => {
            let token = TOKENS[rng.next_index(TOKENS.len())];
            let at = rng.next_index(len + 1);
            bytes.splice(at..at, token.bytes());
        }
    }
    bytes
}

/// Checks one mutant's transcript against the protocol's two endings.
/// Returns whether the stream was answered to its end.
fn check_transcript(
    case: usize,
    input: &str,
    result: Result<(), ServeError>,
    output: &str,
) -> bool {
    let records: Vec<JsonValue> = output
        .lines()
        .map(|line| JsonValue::parse(line).expect("every output line is JSON"))
        .collect();
    let status = |record: &JsonValue| {
        record
            .get("status")
            .and_then(JsonValue::as_str)
            .map(str::to_string)
    };
    // `run_lines` numbers lines as `BufRead::lines` splits them and skips
    // the blank ones.
    let requests: Vec<usize> = input
        .lines()
        .enumerate()
        .filter(|(_, line)| !line.trim().is_empty())
        .map(|(index, _)| index + 1)
        .collect();
    match result {
        Ok(()) => {
            assert_eq!(records.len(), requests.len() + 1, "case {case}:\n{input}");
            let (summary, responses) = records.split_last().expect("a summary record");
            assert_eq!(status(summary).as_deref(), Some("summary"), "case {case}");
            for response in responses {
                let status = status(response);
                assert!(
                    matches!(status.as_deref(), Some("ok" | "error")),
                    "case {case}: {status:?}"
                );
            }
            true
        }
        Err(ServeError::Malformed { line, .. }) => {
            let answered = requests.iter().take_while(|&&number| number < line).count();
            assert!(requests.contains(&line), "case {case}: line {line}");
            assert_eq!(records.len(), answered + 1, "case {case}:\n{input}");
            let error = records.last().expect("an error record");
            assert_eq!(status(error).as_deref(), Some("error"), "case {case}");
            assert_eq!(
                error.get("line").and_then(JsonValue::as_usize),
                Some(line),
                "case {case}"
            );
            false
        }
        Err(other) => panic!("case {case}: {other}\n{input}"),
    }
}

#[test]
fn request_streams_survive_seeded_mutations() {
    // One service for every case, as a long-running process would be: each
    // device's suite and dictionaries are built once.
    let service = QueryService::new(
        Session::new(RunConfig::default().with_workers(1)),
        ArtifactStore::disabled(),
    );
    let mut output = Vec::new();
    service
        .run_lines(REQUESTS.join("\n").as_bytes(), &mut output)
        .expect("the seed stream is well-formed");
    let seed_records = String::from_utf8(output).expect("UTF-8");
    assert!(
        seed_records
            .lines()
            .take(REQUESTS.len())
            .all(|line| line.contains(r#""status":"ok""#)),
        "{seed_records}"
    );

    let (mut answered, mut malformed) = (0, 0);
    for seed in [0x15_0A17, 0x15_0B17] {
        let mut rng = SplitMix64::seed_from_u64(seed);
        for case in 0..CASES {
            let mutant = mutate(&REQUESTS, &mut rng);
            let input = String::from_utf8_lossy(&mutant);
            let mut output = Vec::new();
            let result = panic::catch_unwind(AssertUnwindSafe(|| {
                service.run_lines(input.as_bytes(), &mut output)
            }))
            .unwrap_or_else(|_| panic!("seed {seed:#x} case {case} panicked on:\n{input}"));
            let output = String::from_utf8(output).expect("responses are UTF-8");
            if check_transcript(case, &input, result, &output) {
                answered += 1;
            } else {
                malformed += 1;
            }
        }
    }
    // Both endings occur, so the mutations neither all break the stream
    // nor all leave it intact.
    assert!(
        answered > 0 && malformed > 0,
        "{answered} answered, {malformed} malformed"
    );
}

//! The `lsiq-serve` binary: newline-delimited JSON planning queries in,
//! one JSON response per query plus a final summary record out.
//!
//! ```text
//! lsiq-serve [INPUT [OUTPUT]]
//! ```
//!
//! `INPUT`/`OUTPUT` default to `-` (stdin/stdout).  Configuration comes
//! from the `LSIQ_*` environment (`LSIQ_ARTIFACT_DIR` enables the on-disk
//! artifact cache; `LSIQ_ENGINE` defaults to `auto`).  Invalid
//! configuration and malformed (non-JSON) request lines exit with status 2
//! after printing a diagnostic; semantically invalid queries produce
//! per-line error responses and do not stop the stream.

use lsiq_serve::service::{QueryService, ServeError};
use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::process::ExitCode;

fn run() -> Result<(), ServeError> {
    let mut args = std::env::args().skip(1);
    let input = args.next().unwrap_or_else(|| "-".to_string());
    let output = args.next().unwrap_or_else(|| "-".to_string());
    if let Some(extra) = args.next() {
        return Err(ServeError::Io(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("unexpected argument {extra:?} (usage: lsiq-serve [INPUT [OUTPUT]])"),
        )));
    }
    let service = QueryService::from_env()?;
    let reader: Box<dyn Read> = if input == "-" {
        Box::new(io::stdin())
    } else {
        Box::new(File::open(&input).map_err(|error| {
            ServeError::Io(io::Error::new(
                error.kind(),
                format!("cannot open input {input:?}: {error}"),
            ))
        })?)
    };
    let writer: Box<dyn Write> = if output == "-" {
        Box::new(io::stdout())
    } else {
        Box::new(File::create(&output).map_err(|error| {
            ServeError::Io(io::Error::new(
                error.kind(),
                format!("cannot create output {output:?}: {error}"),
            ))
        })?)
    };
    service.run_lines(BufReader::new(reader), BufWriter::new(writer))
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(error) => {
            // A closed stderr must not turn the exit status 2 into a panic.
            let _ = writeln!(io::stderr(), "lsiq: {error}");
            ExitCode::from(2)
        }
    }
}

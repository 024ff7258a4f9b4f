//! `lsiq-serve` exits with its documented status 2 on a malformed request
//! line even when nobody reads its stderr: a diagnostic that cannot be
//! written is dropped, and the process does not panic (status 101).

use std::io::Write;
use std::process::{Command, Stdio};

#[test]
fn malformed_input_exits_2_when_stderr_is_closed() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_lsiq-serve"))
        .env_clear()
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("lsiq-serve starts");
    // Close the read end of stderr before the service has anything to say.
    drop(child.stderr.take());
    child
        .stdin
        .take()
        .expect("piped stdin")
        .write_all(b"not json\n")
        .expect("request written");
    let output = child.wait_with_output().expect("lsiq-serve exits");
    assert_eq!(output.status.code(), Some(2));
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        stdout.contains(r#""line":1"#),
        "error record on stdout: {stdout}"
    );
}

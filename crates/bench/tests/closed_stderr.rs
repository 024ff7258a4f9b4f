//! A reproduction binary exits with its documented status 2 on a bad
//! `LSIQ_*` value even when nobody reads its stderr: a diagnostic that
//! cannot be written is dropped, and the process does not panic (status
//! 101).

use std::process::{Command, Stdio};

#[test]
fn bad_engine_exits_2_when_stderr_is_closed() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_table1"))
        .env_clear()
        .env("LSIQ_ENGINE", "warp")
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("table1 starts");
    // Close the read end of stderr before the binary reports the bad knob.
    // (Should the report win that race, it lands in the pipe and the exit
    // status is 2 either way.)
    drop(child.stderr.take());
    let status = child.wait().expect("table1 exits");
    assert_eq!(status.code(), Some(2));
}

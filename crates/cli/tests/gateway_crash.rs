//! Whole-process crash-recovery tests: run the real `sentinet serve`
//! daemon, kill it without ceremony mid-stream — both via the WAL's
//! chaos abort hook (`--crash-after`) and via a raw SIGKILL — restart
//! it on the same WAL directory, re-deliver the stream through the
//! retrying uplink, and require the final report byte-identical to an
//! uninterrupted run. `replay-wal` over the survivor's log (with a
//! sharded-engine cross-check) must print the same report again.
//!
//! The stream goes through the pipelined `DataBatch` uplink; see
//! `serve/mod.rs` for the shared harness and its fsync knob.

mod serve;

use serve::{replay_wal, send_all, spawn_serve, stream, tmpdir, uplink};
use std::io::Read;

/// Runs serve over the full stream uninterrupted and returns its
/// post-`listening` stdout (the report).
fn uninterrupted_run(name: &str) -> String {
    let dir = tmpdir(name);
    let (mut child, mut stdout, addr) = spawn_serve(&dir, "64", &[]);
    let mut up = uplink(addr);
    assert_eq!(send_all(&mut up, &stream()), stream().len());
    up.finish().expect("fin/finack");
    let mut rest = String::new();
    stdout.read_to_string(&mut rest).expect("read report");
    let status = child.wait().expect("wait serve");
    assert!(status.success(), "clean serve run must exit 0: {status:?}");
    std::fs::remove_dir_all(&dir).ok();
    rest
}

/// Restarts serve over a crashed WAL dir, re-delivers the full stream
/// from sequence zero (dedup absorbs everything already durable), and
/// returns the report stdout.
fn resume_run(dir: &std::path::Path) -> String {
    let (mut child, mut stdout, addr) = spawn_serve(dir, "64", &[]);
    let mut up = uplink(addr);
    assert_eq!(send_all(&mut up, &stream()), stream().len());
    up.finish().expect("fin/finack");
    let mut rest = String::new();
    stdout.read_to_string(&mut rest).expect("read report");
    let status = child.wait().expect("wait serve");
    assert!(status.success(), "resumed serve must exit 0: {status:?}");
    rest
}

#[test]
fn crash_after_abort_resumes_bit_identically() {
    let baseline = uninterrupted_run("abort-base");
    assert!(baseline.contains("recovery plan"), "{baseline}");

    // The daemon aborts itself (as if kill -9) during the 150th WAL
    // append — mid-stream, between checkpoints.
    let dir = tmpdir("abort-crash");
    let (mut child, _stdout, addr) = spawn_serve(&dir, "64", &["--crash-after", "150"]);
    let mut up = uplink(addr);
    let sent = send_all(&mut up, &stream());
    assert!(sent < stream().len(), "daemon should have died mid-stream");
    let status = child.wait().expect("wait crashed serve");
    assert!(!status.success(), "abort must not look like a clean exit");

    let resumed = resume_run(&dir);
    assert_eq!(
        resumed, baseline,
        "resumed report differs from uninterrupted run"
    );

    // The WAL alone reproduces the same report.
    let replayed = replay_wal(&dir);
    assert_eq!(replayed, baseline, "replay-wal report differs");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn sigkill_mid_stream_resumes_bit_identically() {
    let baseline = uninterrupted_run("kill-base");

    let dir = tmpdir("kill-crash");
    let (mut child, _stdout, addr) = spawn_serve(&dir, "64", &[]);
    let mut up = uplink(addr);
    // 130 records go out (acked, in flight, or still buffered in an
    // open batch); then the process is SIGKILLed.
    let prefix = &stream()[..130];
    assert_eq!(send_all(&mut up, prefix), prefix.len());
    child.kill().expect("SIGKILL serve");
    let status = child.wait().expect("wait killed serve");
    assert!(!status.success());

    let resumed = resume_run(&dir);
    assert_eq!(
        resumed, baseline,
        "resumed report differs from uninterrupted run"
    );
    let replayed = replay_wal(&dir);
    assert_eq!(replayed, baseline, "replay-wal report differs");
    std::fs::remove_dir_all(&dir).ok();
}

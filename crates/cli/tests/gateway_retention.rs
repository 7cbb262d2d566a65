//! Whole-process retention tests: run the real `sentinet serve` daemon
//! under a `--wal-retain-bytes` budget with small segments, kill it
//! mid-stream, and require that (a) the on-disk WAL never outgrew the
//! budget, (b) a restart restores from the checkpoint and finishes
//! with a report byte-identical to an unretained baseline, and (c)
//! `replay-wal` over the reclaimed log reproduces the report again.
//!
//! Like `gateway_crash.rs`, the stream goes through the pipelined
//! `DataBatch` uplink; see `serve/mod.rs` for the shared harness and
//! its fsync knob.

mod serve;

use serve::{replay_wal, send_all, spawn_serve, stream, tmpdir, uplink};
use std::io::Read;

/// One data frame of this stream is 45 bytes on the wire-log:
/// 21 header + 2×8 values + 8 trailer.
const FRAME: u64 = 45;
/// 16 records per sealed segment.
const SEGMENT: u64 = 16 * FRAME;
/// Four segments of headroom.
const BUDGET: u64 = 4 * SEGMENT;

/// Total bytes of `wal-*.seg` files in the directory.
fn wal_footprint(dir: &std::path::Path) -> u64 {
    std::fs::read_dir(dir)
        .expect("read wal dir")
        .filter_map(Result::ok)
        .filter(|e| {
            let name = e.file_name();
            let name = name.to_string_lossy().into_owned();
            name.starts_with("wal-") && name.ends_with(".seg")
        })
        .map(|e| e.metadata().expect("segment metadata").len())
        .sum()
}

/// The retention flags shared by every retained invocation.
fn retention_flags() -> [String; 4] {
    [
        "--wal-retain-bytes".into(),
        BUDGET.to_string(),
        "--wal-segment-bytes".into(),
        SEGMENT.to_string(),
    ]
}

#[test]
fn retention_budget_holds_and_restart_matches_unretained_baseline() {
    // Baseline: the same stream with retention off.
    let base_dir = tmpdir("base");
    let (mut child, mut stdout, addr) = spawn_serve(&base_dir, "32", &[]);
    let mut up = uplink(addr);
    assert_eq!(send_all(&mut up, &stream()), stream().len());
    up.finish().expect("fin/finack");
    let mut baseline = String::new();
    stdout.read_to_string(&mut baseline).expect("read report");
    assert!(child.wait().expect("wait serve").success());
    assert!(baseline.contains("recovery plan"), "{baseline}");
    std::fs::remove_dir_all(&base_dir).ok();

    // Retained run: deliver 200 of 240 records under the budget, then
    // SIGKILL the daemon mid-stream.
    let dir = tmpdir("budget");
    let flags = retention_flags();
    let flag_refs: Vec<&str> = flags.iter().map(String::as_str).collect();
    let (mut child, _stdout, addr) = spawn_serve(&dir, "32", &flag_refs);
    let mut up = uplink(addr);
    let prefix = &stream()[..200];
    assert_eq!(send_all(&mut up, prefix), prefix.len());
    child.kill().expect("SIGKILL serve");
    assert!(!child.wait().expect("wait killed serve").success());

    // 200 × 45 B = 9000 B were appended, but the budget held: retention
    // reclaimed checkpointed segments as it went.
    let footprint = wal_footprint(&dir);
    assert!(
        footprint <= BUDGET,
        "wal footprint {footprint} exceeds the {BUDGET}-byte budget"
    );
    assert!(
        dir.join("checkpoint.ck").exists(),
        "retention must have committed a checkpoint"
    );

    // Restart on the reclaimed log and re-deliver the full stream from
    // sequence zero: the restored dedup state absorbs the overlap and
    // the final report must match the unretained baseline.
    let (mut child, mut stdout, addr) = spawn_serve(&dir, "32", &flag_refs);
    let mut up = uplink(addr);
    assert_eq!(send_all(&mut up, &stream()), stream().len());
    up.finish().expect("fin/finack");
    let mut resumed = String::new();
    stdout.read_to_string(&mut resumed).expect("read report");
    assert!(child.wait().expect("wait resumed serve").success());
    assert_eq!(
        resumed, baseline,
        "resumed retained report differs from the unretained baseline"
    );

    // The reclaimed log alone still reproduces the report (checkpoint
    // restore plus tail replay).
    assert_eq!(
        replay_wal(&dir),
        baseline,
        "replay-wal report differs from the unretained baseline"
    );

    std::fs::remove_dir_all(&dir).ok();
}

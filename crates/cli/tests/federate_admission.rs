//! The uplink must never make the collector drop a reading as late:
//! `federate` at its defaults (8-reading batches, 1800 s watermark)
//! admits the same readings whether one collector or three serve the
//! fleet. Before batches were bounded by the watermark, three
//! partitions of this trace lost readings: one sensor's batch spanned
//! more stream time than the watermark, so admitting it pushed the
//! reorder watermark past other sensors' still-queued readings.

use std::path::{Path, PathBuf};
use std::process::Command;

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sentinet-admit-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

fn sentinet(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_sentinet"))
        .args(args)
        .output()
        .expect("run sentinet")
}

/// The `(accepted, late)` fleet counters of a default `federate` run
/// over `partitions` collectors.
fn admitted(trace: &str, wal_root: &Path, partitions: &str) -> (u64, u64) {
    let wal_root = wal_root.to_str().expect("utf8 path");
    let out = sentinet(&[
        "federate",
        trace,
        "--wal-root",
        wal_root,
        "--partitions",
        partitions,
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    // Exit 3 = the planted attack was flagged; anything else failed.
    assert!(
        matches!(out.status.code(), Some(0 | 3)),
        "federate --partitions {partitions} failed: {stderr}"
    );
    let counters = stderr
        .lines()
        .find_map(|l| l.strip_prefix("fleet counters: "))
        .unwrap_or_else(|| panic!("no fleet counters line:\n{stderr}"));
    let count = |label: &str| -> u64 {
        counters
            .split(", ")
            .find_map(|field| field.strip_suffix(label))
            .unwrap_or_else(|| panic!("no {label:?} counter in {counters:?}"))
            .trim()
            .parse()
            .expect("numeric counter")
    };
    (count(" accepted"), count(" late"))
}

#[test]
fn default_federate_admits_every_reading_at_any_partition_count() {
    let dir = tmpdir("late");
    let trace = dir.join("trace.csv");
    let trace = trace.to_str().expect("utf8 path");
    let out = sentinet(&[
        "simulate",
        trace,
        "--days",
        "2",
        "--sensors",
        "9",
        "--seed",
        "5",
        "--attack",
        "3:delete=12,94",
    ]);
    assert!(out.status.success(), "simulate failed: {out:?}");

    let (whole, whole_late) = admitted(trace, &dir.join("p1"), "1");
    let (split, split_late) = admitted(trace, &dir.join("p3"), "3");
    let _ = std::fs::remove_dir_all(&dir);
    assert!(whole > 0, "nothing admitted");
    assert_eq!(whole_late, 0, "one partition dropped readings as late");
    assert_eq!(split_late, 0, "three partitions dropped readings as late");
    assert_eq!(split, whole, "partitioning changed what was admitted");
}

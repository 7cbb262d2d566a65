//! Shared harness of the whole-process federation drills: the drill
//! trace and the drill-tuned `sentinet federate` invocation.
//!
//! `SENTINET_TEST_FSYNC` picks the children's fsync policy (default
//! `never`), so CI sweeps the durability matrix with identical
//! assertions.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn fsync_policy() -> String {
    std::env::var("SENTINET_TEST_FSYNC").unwrap_or_else(|_| "never".into())
}

pub fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sentinet-drill-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn sentinet(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_sentinet"))
        .args(args)
        .output()
        .expect("run sentinet")
}

/// Simulates the shared drill trace: 6 sensors, 2 clean days.
pub fn simulate_trace(dir: &Path) -> String {
    std::fs::create_dir_all(dir).expect("trace dir");
    let trace = dir
        .join("trace.csv")
        .to_str()
        .expect("utf8 path")
        .to_string();
    let out = sentinet(&[
        "simulate",
        &trace,
        "--days",
        "2",
        "--sensors",
        "6",
        "--seed",
        "3",
    ]);
    assert!(out.status.success(), "simulate failed: {out:?}");
    trace
}

/// Runs `federate` over three partitions with the drill-tuned uplink
/// (fast timeouts, deterministic backoff).
pub fn federate(trace: &str, wal_root: &Path, extra: &[&str]) -> Output {
    let wal_root = wal_root.to_str().expect("utf8 path");
    let mut args = vec![
        "federate",
        trace,
        "--wal-root",
        wal_root,
        "--partitions",
        "3",
        "--checkpoint-every",
        "16",
        "--watermark",
        "1800",
        "--ack-timeout-ms",
        "150",
        "--max-attempts",
        "3",
        "--backoff-base-ms",
        "5",
        "--backoff-cap-ms",
        "20",
        "--jitter-pct",
        "0",
    ];
    let fsync = fsync_policy();
    args.extend(["--fsync", &fsync]);
    args.extend(extra);
    sentinet(&args)
}

pub fn stdout_of(out: &Output) -> String {
    String::from_utf8(out.stdout.clone()).expect("utf8 stdout")
}

pub fn stderr_of(out: &Output) -> String {
    String::from_utf8(out.stderr.clone()).expect("utf8 stderr")
}

//! Shared harness of the whole-process `sentinet serve` tests: the
//! deterministic test stream, the daemon launcher, a snappy pipelined
//! uplink, and offline `replay-wal`.
//!
//! `SENTINET_TEST_FSYNC` overrides the daemon's `--fsync` policy
//! (default `never`), so CI sweeps the durability matrix with
//! identical assertions.

use sentinet_gateway::{PipelinedConfig, PipelinedUplink};
use sentinet_sim::SensorId;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};

/// The daemon's reorder watermark delay (seconds). The uplink learns
/// it in the handshake and never lets an open batch span more.
const WATERMARK: &str = "600";

/// One stream record: sensor, per-sensor seq, time, values.
pub type Record = (SensorId, u64, u64, Vec<f64>);

pub fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sentinet-serve-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The deterministic test stream: two sensors, 120 sampling ticks.
pub fn stream() -> Vec<Record> {
    let mut out = Vec::new();
    for i in 0..120u64 {
        let t = 300 * (i + 1);
        for s in 0..2u16 {
            let v = 20.0 + (i % 7) as f64 + f64::from(s);
            out.push((SensorId(s), i, t, vec![v, v + 30.0]));
        }
    }
    out
}

/// Spawns `sentinet serve` checkpointing every `checkpoint_every`
/// records and reads the `listening on ADDR` line.
pub fn spawn_serve(
    wal_dir: &Path,
    checkpoint_every: &str,
    extra: &[&str],
) -> (Child, BufReader<ChildStdout>, String) {
    let fsync = std::env::var("SENTINET_TEST_FSYNC").unwrap_or_else(|_| "never".into());
    let mut child = Command::new(env!("CARGO_BIN_EXE_sentinet"))
        .args(["serve", "--wal-dir", wal_dir.to_str().unwrap()])
        .args(["--watermark", WATERMARK, "--fsync", &fsync])
        .args(["--checkpoint-every", checkpoint_every])
        .args(extra)
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .expect("spawn serve");
    let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
    let mut line = String::new();
    stdout.read_line(&mut line).expect("read listening line");
    let addr = line
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("unexpected first line {line:?}"))
        .trim()
        .to_string();
    (child, stdout, addr)
}

/// A snappy uplink: a dead server should fail fast, not after the
/// production backoff schedule. Its 8-reading batches are small
/// enough that a mid-stream kill lands with batches in flight.
pub fn uplink(addr: String) -> PipelinedUplink {
    let mut config = PipelinedConfig::new(addr);
    config.transport.ack_timeout = std::time::Duration::from_millis(300);
    config.transport.max_attempts = 5;
    config.transport.backoff_base = std::time::Duration::from_millis(10);
    config.batch_size = 8;
    config.max_inflight = 4;
    PipelinedUplink::new(config)
}

/// Sends the whole stream (stopping at the first exhausted retry) and
/// returns how many records the uplink accepted (acked or in flight).
pub fn send_all(uplink: &mut PipelinedUplink, records: &[Record]) -> usize {
    for (i, (s, seq, t, v)) in records.iter().enumerate() {
        match uplink.send(*s, *t, v) {
            // The uplink numbers the stream itself; the test stream is
            // gapless per sensor, so the two agree.
            Ok(got) => assert_eq!(got, *seq, "uplink seq drifted from the stream"),
            Err(_) => return i,
        }
    }
    records.len()
}

/// The report `replay-wal` rebuilds offline from `dir`.
pub fn replay_wal(dir: &Path) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_sentinet"))
        .args(["replay-wal", "--wal-dir", dir.to_str().unwrap()])
        .args(["--watermark", WATERMARK])
        .output()
        .expect("spawn replay-wal");
    assert!(
        out.status.success(),
        "replay-wal failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf8 report")
}

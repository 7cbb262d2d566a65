//! Whole-process retention tests: run the real `sentinet serve` daemon
//! under a `--wal-retain-bytes` budget with small segments, kill it
//! mid-stream, and require that (a) the on-disk WAL never outgrew the
//! budget, (b) a restart restores from the checkpoint and finishes
//! with a report byte-identical to an unretained baseline, and (c)
//! `replay-wal` over the reclaimed log reproduces the report again.
//!
//! Like `gateway_crash.rs`, the file is environment-parameterized so
//! CI sweeps the durability/protocol matrix with identical
//! assertions: `SENTINET_TEST_FSYNC` overrides `--fsync` (default
//! `never`) and `SENTINET_TEST_PROTOCOL=v2` uses the pipelined
//! `DataBatch` uplink instead of stop-and-wait.

use sentinet_gateway::{PipelinedConfig, PipelinedUplink, SensorUplink, UplinkConfig, UplinkError};
use sentinet_sim::SensorId;
use std::io::{BufRead, BufReader, Read};
use std::process::{Child, ChildStdout, Command, Stdio};

/// Batch size for the `v2` sweep; a multiple of the segment and
/// checkpoint cadences below, so reclamation trips at the same record
/// boundaries as the per-record protocol.
const PIPE_BATCH: usize = 8;

fn fsync_policy() -> String {
    std::env::var("SENTINET_TEST_FSYNC").unwrap_or_else(|_| "never".into())
}

fn pipelined() -> bool {
    std::env::var("SENTINET_TEST_PROTOCOL").as_deref() == Ok("v2")
}

/// Reorder window co-tuned with the protocol (DESIGN.md §14.4): the
/// watermark delay must cover ≥ 2 batch spans under v2.
fn watermark() -> String {
    if pipelined() {
        (2 * PIPE_BATCH as u64 * 300).to_string()
    } else {
        "600".into()
    }
}

/// Either wire protocol behind the one interface the test uses.
enum TestUplink {
    V1(SensorUplink),
    V2(PipelinedUplink),
}

impl TestUplink {
    fn send_at(
        &mut self,
        sensor: SensorId,
        seq: u64,
        time: u64,
        values: &[f64],
    ) -> Result<(), UplinkError> {
        match self {
            TestUplink::V1(up) => up.send_at(sensor, seq, time, values).map(|_| ()),
            TestUplink::V2(up) => {
                // The pipelined client numbers the stream itself; the
                // test stream is gapless per sensor, so they agree.
                let got = up.send(sensor, time, values)?;
                assert_eq!(got, seq, "pipelined uplink seq drifted from the stream");
                Ok(())
            }
        }
    }

    fn finish(self) -> Result<(), UplinkError> {
        match self {
            TestUplink::V1(up) => up.finish(),
            TestUplink::V2(up) => up.finish().map(|_| ()),
        }
    }
}

/// One data frame of this stream is 45 bytes on the wire-log:
/// 21 header + 2×8 values + 8 trailer.
const FRAME: u64 = 45;
/// 16 records per sealed segment.
const SEGMENT: u64 = 16 * FRAME;
/// Four segments of headroom.
const BUDGET: u64 = 4 * SEGMENT;

fn tmpdir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "sentinet-gateway-retention-{name}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The deterministic test stream: two sensors, 120 sampling ticks.
fn stream() -> Vec<(SensorId, u64, u64, Vec<f64>)> {
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

/// Spawns `sentinet serve` and reads the `listening on ADDR` line.
fn spawn_serve(
    wal_dir: &std::path::Path,
    extra: &[&str],
) -> (Child, BufReader<ChildStdout>, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_sentinet"))
        .args([
            "serve",
            "--wal-dir",
            wal_dir.to_str().unwrap(),
            "--watermark",
            &watermark(),
            "--checkpoint-every",
            "32",
            "--fsync",
            &fsync_policy(),
        ])
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

fn uplink(addr: String) -> TestUplink {
    let mut config = UplinkConfig::new(addr);
    config.ack_timeout = std::time::Duration::from_millis(300);
    config.max_attempts = 5;
    config.backoff_base = std::time::Duration::from_millis(10);
    if pipelined() {
        let mut pipe = PipelinedConfig::new("");
        pipe.transport = config;
        pipe.batch_size = PIPE_BATCH;
        pipe.max_inflight = 4;
        TestUplink::V2(PipelinedUplink::new(pipe))
    } else {
        TestUplink::V1(SensorUplink::new(config))
    }
}

fn send_all(uplink: &mut TestUplink, records: &[(SensorId, u64, u64, Vec<f64>)]) -> usize {
    for (i, (s, seq, t, v)) in records.iter().enumerate() {
        if uplink.send_at(*s, *seq, *t, v).is_err() {
            return i;
        }
    }
    records.len()
}

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
    let (mut child, mut stdout, addr) = spawn_serve(&base_dir, &[]);
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
    let (mut child, _stdout, addr) = spawn_serve(&dir, &flag_refs);
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
    let (mut child, mut stdout, addr) = spawn_serve(&dir, &flag_refs);
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
    let out = Command::new(env!("CARGO_BIN_EXE_sentinet"))
        .args([
            "replay-wal",
            "--wal-dir",
            dir.to_str().unwrap(),
            "--watermark",
            &watermark(),
        ])
        .output()
        .expect("spawn replay-wal");
    assert!(
        out.status.success(),
        "replay-wal failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(
        String::from_utf8(out.stdout).expect("utf8 report"),
        baseline,
        "replay-wal report differs from the unretained baseline"
    );

    std::fs::remove_dir_all(&dir).ok();
}

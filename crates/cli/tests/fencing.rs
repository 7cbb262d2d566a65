//! Whole-process epoch-fencing drills: two `sentinet serve` children
//! share one WAL directory across an owner handoff, exactly the shape
//! a network partition forces on the federation. The stale owner is
//! never SIGKILLed — it stays up, reachable, and convinced it owns the
//! partition — and must still fail-stop the moment it touches the
//! durable state: its deliver path re-reads the fence token the
//! successor committed beside the WAL and NACKs every append with a
//! typed rejection, counted and visible in its accounting. A stale
//! *restart* must refuse to open at all.

use sentinet_gateway::{PipelinedConfig, PipelinedUplink, UplinkError};
use sentinet_sim::SensorId;
use std::io::{BufRead, BufReader, Read};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStderr, ChildStdout, Command, Stdio};
use std::time::Duration;

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sentinet-fencing-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

struct Serve {
    child: Child,
    addr: String,
    stdout: BufReader<ChildStdout>,
    stderr: ChildStderr,
}

impl Serve {
    /// Spawns `sentinet serve` on `dir` at the given owner epoch and
    /// waits for its listening banner.
    fn spawn(dir: &Path, epoch: u64) -> Self {
        let mut child = Command::new(env!("CARGO_BIN_EXE_sentinet"))
            .arg("serve")
            .arg("--wal-dir")
            .arg(dir)
            .args(["--bind", "127.0.0.1:0"])
            .args(["--epoch", &epoch.to_string()])
            .args(["--fsync", "never", "--silence-deadline", "0"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn serve");
        let mut stdout = BufReader::new(child.stdout.take().expect("child stdout"));
        let stderr = child.stderr.take().expect("child stderr");
        let mut line = String::new();
        stdout.read_line(&mut line).expect("read banner");
        let addr = line
            .trim()
            .strip_prefix("listening on ")
            .unwrap_or_else(|| panic!("bad banner: {line:?}"))
            .to_string();
        Serve {
            child,
            addr,
            stdout,
            stderr,
        }
    }

    /// Drains the child's output after its client sent Fin, waits for
    /// exit, and returns the stderr text.
    fn finish(mut self) -> String {
        let mut out = String::new();
        let _ = self.stdout.read_to_string(&mut out);
        let mut err = String::new();
        let _ = self.stderr.read_to_string(&mut err);
        let _ = self.child.wait();
        err
    }
}

/// A drill-tuned uplink announcing `epoch` in its Hello: fast
/// deterministic retries so a NACK streak exhausts in milliseconds.
fn uplink(addr: &str, epoch: u64) -> PipelinedUplink {
    let mut config = PipelinedConfig::new(addr);
    config.transport.ack_timeout = Duration::from_millis(200);
    config.transport.max_attempts = 3;
    config.transport.backoff_base = Duration::from_millis(5);
    config.transport.backoff_cap = Duration::from_millis(20);
    config.transport.jitter_pct = 0;
    config.transport.epoch = epoch;
    PipelinedUplink::new(config)
}

/// Sends one reading under an explicit sequence number and waits for
/// its acknowledgment.
fn append(
    uplink: &mut PipelinedUplink,
    seq: u64,
    time: u64,
    values: &[f64],
) -> Result<(), UplinkError> {
    uplink.send_at(SensorId(0), seq, time, values)?;
    uplink.flush()
}

#[test]
fn healed_stale_owner_fail_stops_with_counted_nacks() {
    let dir = tmpdir("heal");

    // Epoch-1 owner accepts writes normally.
    let a = Serve::spawn(&dir, 1);
    let mut ua = uplink(&a.addr, 1);
    append(&mut ua, 0, 300, &[20.0, 50.0]).expect("pre-partition append must ack");
    append(&mut ua, 1, 600, &[21.0, 51.0]).expect("pre-partition append must ack");

    // The partition: the controller stops reaching A, declares it
    // dead, and a standby adopts the WAL at epoch 2 — committing the
    // fence token beside the log while A is still running.
    let b = Serve::spawn(&dir, 2);
    let mut ub = uplink(&b.addr, 2);
    append(&mut ub, 2, 900, &[22.0, 52.0]).expect("the adopting owner must accept");

    // The partition heals: A is reachable again and a stale client
    // offers it the same coordinate. A must NACK — its deliver path
    // re-reads the fence token from disk — and never append behind
    // the new owner's back.
    append(&mut ua, 2, 900, &[66.0, 66.0]).expect_err("a fenced owner must refuse the append");
    assert!(
        ua.stats().nacks > 0,
        "the refusal must be a typed NACK, not a timeout: {:?}",
        ua.stats()
    );

    // The new owner is undisturbed by the zombie's attempt.
    append(&mut ub, 3, 1200, &[23.0, 53.0]).expect("the live owner must keep accepting");

    let _ = ua.finish();
    let stale_err = a.finish();
    assert!(
        stale_err.contains("fenced by newer owner epoch 2"),
        "the stale owner must account its fenced NACKs:\n{stale_err}"
    );

    let _ = ub.finish();
    let live_err = b.finish();
    assert!(
        !live_err.contains("fenced"),
        "the live owner must not report fencing:\n{live_err}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn stale_epoch_restart_refuses_to_open() {
    let dir = tmpdir("restart");

    // Commit the fence at epoch 2: serve once, Fin immediately.
    let b = Serve::spawn(&dir, 2);
    let ub = uplink(&b.addr, 2);
    let _ = ub.finish();
    let _ = b.finish();

    // A restart at the superseded epoch must fail-stop before binding.
    let out = Command::new(env!("CARGO_BIN_EXE_sentinet"))
        .arg("serve")
        .arg("--wal-dir")
        .arg(&dir)
        .args(["--bind", "127.0.0.1:0", "--epoch", "1"])
        .output()
        .expect("run stale serve");
    assert!(
        !out.status.success(),
        "a stale-epoch restart must not come up"
    );
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("fenced at epoch 2"),
        "the refusal must name the fencing epoch:\n{err}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

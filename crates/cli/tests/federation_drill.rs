//! Whole-process federation drills: `sentinet federate` spawns real
//! `sentinet serve` children, the `--kill` drill SIGKILLs one of them
//! mid-stream, and the controller must detect the death on the stream
//! clock, fail the partition over to a standby (checkpoint snapshot +
//! WAL-tail replay + routed-log redelivery), and print a fleet
//! diagnosis byte-identical to an uninterrupted baseline. With no
//! standby the partition must orphan fail-stop: visible, NACK-counted,
//! exit status 3.
//!
//! See `drill/mod.rs` for the shared harness and its fsync knob.

mod drill;

use drill::{federate, simulate_trace, stderr_of, stdout_of, tmpdir};

#[test]
fn sigkill_failover_reproduces_the_baseline_byte_for_byte() {
    let root = tmpdir("kill");
    let trace = simulate_trace(&root);

    let base = federate(&trace, &root.join("base"), &[]);
    assert!(
        base.status.success(),
        "baseline run failed: {}",
        stderr_of(&base)
    );

    // Partition 1 owns sensors 2..4; its child is SIGKILLed after 50
    // readings (~tick 25 of 576) — squarely mid-stream.
    let drill = federate(&trace, &root.join("drill"), &["--kill", "1:50"]);
    assert!(
        drill.status.success(),
        "drill run failed: {}",
        stderr_of(&drill)
    );
    assert_eq!(
        stdout_of(&base),
        stdout_of(&drill),
        "kill + failover must reproduce the uninterrupted fleet diagnosis byte for byte\n\
         --- drill stderr ---\n{}",
        stderr_of(&drill)
    );

    let events = stderr_of(&drill);
    assert!(
        events.contains("partition 1 suspect at"),
        "missing suspect event:\n{events}"
    );
    assert!(
        events.contains("partition 1 failed over to epoch 2"),
        "missing failover event:\n{events}"
    );

    // Detection honours the silence deadline on the stream clock:
    // death is declared only after the deadline elapsed, and not
    // unboundedly later. The ack watermark lags the kill by at most
    // one flush span (flush_every 32 readings over 2 sensors at 300 s
    // period = 4800 stream-seconds), so that span plus one sampling
    // tick bounds the declaration.
    let dead = events
        .lines()
        .find(|l| l.contains("partition 1 dead at"))
        .unwrap_or_else(|| panic!("missing dead event:\n{events}"));
    let num_after = |text: &str, key: &str| -> u64 {
        let rest = &text[text.find(key).expect(key) + key.len()..];
        rest.chars()
            .take_while(char::is_ascii_digit)
            .collect::<String>()
            .parse()
            .expect("number")
    };
    let at = num_after(dead, "dead at t=");
    let last = num_after(dead, "last acked t=");
    let deadline = num_after(dead, "silence deadline ");
    assert!(
        at - last > deadline,
        "death declared before the deadline elapsed: {dead}"
    );
    let ack_lag = 4800;
    assert!(
        at - last <= deadline + ack_lag + 300,
        "death declared late: {dead}"
    );
}

#[test]
fn comma_separated_kill_list_fails_over_every_listed_partition() {
    let root = tmpdir("kill-list");
    let trace = simulate_trace(&root);

    let base = federate(&trace, &root.join("base"), &["--standbys", "2"]);
    assert!(
        base.status.success(),
        "baseline run failed: {}",
        stderr_of(&base)
    );

    // Two drills in one run: partitions 0 and 2 lose their owners at
    // different stream coordinates, and both must fail over.
    let drill = federate(
        &trace,
        &root.join("drill"),
        &["--standbys", "2", "--kill", "0:40,2:90"],
    );
    assert!(
        drill.status.success(),
        "drill run failed: {}",
        stderr_of(&drill)
    );
    assert_eq!(
        stdout_of(&base),
        stdout_of(&drill),
        "a double kill + failover must reproduce the uninterrupted fleet \
         diagnosis byte for byte\n--- drill stderr ---\n{}",
        stderr_of(&drill)
    );

    let events = stderr_of(&drill);
    for p in [0, 2] {
        assert!(
            events.contains(&format!("partition {p} failed over to epoch 2")),
            "missing failover for partition {p}:\n{events}"
        );
    }
    assert!(
        !events.contains("partition 1 suspect"),
        "the unlisted partition must stay healthy:\n{events}"
    );
}

#[test]
fn no_standby_orphan_is_fail_stop_and_visible() {
    let root = tmpdir("orphan");
    let trace = simulate_trace(&root);

    let out = federate(
        &trace,
        &root.join("fleet"),
        &[
            "--standbys",
            "0",
            "--kill",
            "1:50",
            "--handoff-attempts",
            "2",
        ],
    );
    assert_eq!(
        out.status.code(),
        Some(3),
        "an orphaned fleet must exit 3\nstdout:\n{}\nstderr:\n{}",
        stdout_of(&out),
        stderr_of(&out)
    );

    let stdout = stdout_of(&out);
    assert!(
        stdout.contains("partition 1 [sensors 2..4]: orphaned"),
        "the orphan must be visible in the fleet diagnosis:\n{stdout}"
    );
    let stderr = stderr_of(&out);
    assert!(
        stderr.contains("partition 1 orphaned at"),
        "missing orphaned event:\n{stderr}"
    );
    let nacks = stderr
        .lines()
        .find(|l| l.starts_with("partition 1:"))
        .unwrap_or_else(|| panic!("missing partition 1 accounting:\n{stderr}"));
    assert!(
        !nacks.contains(" 0 orphan-nack(s)"),
        "unacked readings must be NACK-counted, not dropped: {nacks}"
    );

    // The surviving partitions still produce their full diagnosis.
    assert!(
        stdout.contains("partition 0 [sensors 0..2]: ok"),
        "{stdout}"
    );
    assert!(
        stdout.contains("partition 2 [sensors 4..6]: ok"),
        "{stdout}"
    );
}

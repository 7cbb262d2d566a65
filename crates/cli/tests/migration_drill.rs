//! Whole-process live-migration drills: `sentinet federate --split`
//! splits a hot partition while real `sentinet serve` children ingest
//! the stream over the pipelined uplink, and a `--kill` coordinate
//! equal to the split trigger SIGKILLs the source exactly when the
//! handoff's cut probe runs. The controller must fail the source over
//! and retry the cut at the identical WAL coordinate, producing a
//! fleet diagnosis byte-identical to the uninterrupted run of the
//! same migration schedule. The mirror drill kills the rebalance
//! destination at the adopt step.
//!
//! See `drill/mod.rs` for the shared harness and its fsync knob.

mod drill;

use drill::{federate, simulate_trace, stderr_of, stdout_of, tmpdir};

fn completed_cursor(events: &str) -> u64 {
    let line = events
        .lines()
        .find(|l| l.contains("completed at t=") && l.contains("cut cursor "))
        .unwrap_or_else(|| panic!("missing migration-completed event:\n{events}"));
    let rest = &line[line.find("cut cursor ").expect("cursor") + "cut cursor ".len()..];
    rest.chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .expect("cursor number")
}

#[test]
fn sigkill_at_the_cut_of_a_live_v2_split_matches_the_baseline() {
    let root = tmpdir("split-kill");
    let trace = simulate_trace(&root);

    // Partition 1 owns sensors 2..4; once it has routed 100 readings
    // (~tick 50 of 576) it splits at sensor 3, the upper half moving
    // to a freshly spawned partition 3 — squarely mid-stream.
    let schedule = ["--split", "1:3@100"];
    let base = federate(&trace, &root.join("base"), &schedule);
    assert!(
        base.status.success(),
        "baseline migration run failed: {}",
        stderr_of(&base)
    );
    let base_events = stderr_of(&base);
    assert!(
        base_events.contains("migration of sensors 3..4 from partition 1 to 3 completed"),
        "baseline migration never completed:\n{base_events}"
    );

    // The kill coordinate equals the split trigger: partition 1 has
    // handed exactly 100 readings when the handoff starts, so the
    // SIGKILL fires inside the cut probe — the child dies mid-handoff
    // and the controller must fail over, then retry the cut.
    let drill = federate(
        &trace,
        &root.join("drill"),
        &["--split", "1:3@100", "--kill", "1:100"],
    );
    assert!(
        drill.status.success(),
        "drill run failed: {}",
        stderr_of(&drill)
    );
    assert_eq!(
        stdout_of(&base),
        stdout_of(&drill),
        "SIGKILL at the cut + failover must reproduce the uninterrupted \
         migration diagnosis byte for byte\n--- drill stderr ---\n{}",
        stderr_of(&drill)
    );

    let events = stderr_of(&drill);
    assert!(
        events.contains("partition 1 failed over to epoch 2"),
        "the source never failed over mid-handoff:\n{events}"
    );
    assert!(
        events.contains("migration of sensors 3..4 from partition 1 to 3 completed"),
        "the drilled migration never completed:\n{events}"
    );
    // The retried cut lands at the identical WAL coordinate.
    assert_eq!(
        completed_cursor(&events),
        completed_cursor(&base_events),
        "the retried cut moved the cut coordinate:\n{events}"
    );
}

#[test]
fn sigkill_at_the_adopt_of_a_live_rebalance_matches_the_baseline() {
    let root = tmpdir("rebalance-kill");
    let trace = simulate_trace(&root);

    // Partition 1's whole range rebalances into left-adjacent
    // partition 0 once it has routed 100 readings.
    let schedule = ["--rebalance", "1@100"];
    let base = federate(&trace, &root.join("base"), &schedule);
    assert!(
        base.status.success(),
        "baseline rebalance run failed: {}",
        stderr_of(&base)
    );
    let base_events = stderr_of(&base);
    assert!(
        base_events.contains("migration of sensors 2..4 from partition 1 to 0 completed"),
        "baseline rebalance never completed:\n{base_events}"
    );

    // Partition 0 is the destination; its kill coordinate sits at its
    // approximate handed count at trigger time, so the SIGKILL lands
    // on or right around the adopt probe (the trace's natural packet
    // loss keeps the two partitions' counts from aligning exactly) —
    // either way the destination dies inside the drill window and the
    // baseline contract must hold.
    let drill = federate(
        &trace,
        &root.join("drill"),
        &["--rebalance", "1@100", "--kill", "0:100"],
    );
    assert!(
        drill.status.success(),
        "drill run failed: {}",
        stderr_of(&drill)
    );
    assert_eq!(
        stdout_of(&base),
        stdout_of(&drill),
        "SIGKILL at the adopt + failover must reproduce the uninterrupted \
         rebalance diagnosis byte for byte\n--- drill stderr ---\n{}",
        stderr_of(&drill)
    );

    let events = stderr_of(&drill);
    assert!(
        events.contains("partition 0 failed over to epoch 2"),
        "the destination never failed over mid-adopt:\n{events}"
    );
    assert!(
        events.contains("migration of sensors 2..4 from partition 1 to 0 completed"),
        "the drilled rebalance never completed:\n{events}"
    );
}

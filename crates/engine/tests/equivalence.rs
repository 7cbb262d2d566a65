//! Determinism/equivalence suite: the coordinator loop over `N`
//! in-process shards must produce output **bit-for-bit identical** to
//! the serial `sentinet_core::Pipeline` at every shard count, on clean,
//! faulty, and attacked fixed-seed scenarios.

mod common;

use common::LocalShards;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sentinet_core::{GlobalModel, Pipeline, PipelineConfig, SensorRuntime, WindowOutcome};
use sentinet_engine::drive_trace;
use sentinet_inject::{
    first_k_sensors, inject_attacks, inject_faults, AttackInjection, AttackModel, FaultInjection,
    FaultModel,
};
use sentinet_sim::{gdi, simulate, SensorId, Trace, DAY_S};
use std::collections::BTreeMap;

fn clean_scenario(seed: u64, days: u64) -> (Trace, u64) {
    let mut cfg = gdi::month_config();
    cfg.duration = days * DAY_S;
    let trace = simulate(&cfg, &mut StdRng::seed_from_u64(seed));
    (trace, cfg.sample_period)
}

fn stuck_at_scenario(seed: u64) -> (Trace, u64) {
    let mut cfg = gdi::month_config();
    cfg.duration = 4 * DAY_S;
    let mut rng = StdRng::seed_from_u64(seed);
    let clean = simulate(&cfg, &mut rng);
    let faulty = inject_faults(
        &clean,
        &[FaultInjection::from_onset(
            SensorId(6),
            FaultModel::StuckAt {
                value: vec![15.0, 1.0],
            },
            DAY_S,
        )],
        &cfg.ranges,
        &mut rng,
    );
    (faulty, cfg.sample_period)
}

fn creation_scenario(seed: u64) -> (Trace, u64) {
    let mut cfg = gdi::month_config();
    cfg.duration = 5 * DAY_S;
    cfg.environment = sentinet_sim::EnvironmentModel::Constant(vec![12.0, 95.0]);
    let clean = simulate(&cfg, &mut StdRng::seed_from_u64(seed));
    let attacks: Vec<AttackInjection> = (0..4)
        .map(|i| AttackInjection {
            sensors: first_k_sensors(3),
            model: AttackModel::DynamicCreation {
                target: vec![25.0, 69.0],
            },
            start: 2 * DAY_S + i * 12 * 3600,
            end: Some(2 * DAY_S + i * 12 * 3600 + 6 * 3600),
        })
        .collect();
    let attacked = inject_attacks(&clean, &attacks, &cfg.ranges);
    (attacked, cfg.sample_period)
}

fn deletion_scenario(seed: u64) -> (Trace, u64) {
    let mut cfg = gdi::month_config();
    cfg.duration = 5 * DAY_S;
    let clean = simulate(&cfg, &mut StdRng::seed_from_u64(seed));
    let attacks = [AttackInjection {
        sensors: first_k_sensors(3),
        model: AttackModel::DynamicDeletion {
            freeze_at: vec![12.0, 94.0],
        },
        start: 2 * DAY_S,
        end: None,
    }];
    let attacked = inject_attacks(&clean, &attacks, &cfg.ranges);
    (attacked, cfg.sample_period)
}

fn drift_scenario(seed: u64) -> (Trace, u64) {
    let mut cfg = gdi::month_config();
    cfg.duration = 4 * DAY_S;
    let mut rng = StdRng::seed_from_u64(seed);
    let clean = simulate(&cfg, &mut rng);
    let faulty = inject_faults(
        &clean,
        &[FaultInjection::from_onset(
            SensorId(2),
            FaultModel::DriftToStuck {
                target: vec![5.0, 20.0],
                drift_duration: DAY_S,
            },
            DAY_S,
        )],
        &cfg.ranges,
        &mut rng,
    );
    (faulty, cfg.sample_period)
}

/// One sharded run: the coordinator's global model, its window
/// outcomes, and every shard's sensors merged.
struct ShardedRun {
    global: GlobalModel,
    outcomes: Vec<WindowOutcome>,
    sensors: BTreeMap<SensorId, SensorRuntime>,
}

fn run_sharded(trace: &Trace, sample_period: u64, num_shards: usize) -> ShardedRun {
    run_sharded_with(trace, sample_period, num_shards, false)
}

fn run_sharded_with(
    trace: &Trace,
    sample_period: u64,
    num_shards: usize,
    reverse_replies: bool,
) -> ShardedRun {
    let config = PipelineConfig::default();
    let mut backend = LocalShards::new(&config, num_shards);
    backend.reverse_replies = reverse_replies;
    let (global, outcomes) = drive_trace(&config, sample_period, trace, &mut backend);
    ShardedRun {
        global,
        outcomes,
        sensors: backend.into_sensors(),
    }
}

/// Asserts the coordinator at `num_shards` matches the serial pipeline
/// on every observable product: window outcomes, decisive-window
/// history, diagnoses, confidences, network verdict, alarm/track
/// state, and the per-sensor `M_CE` matrices (exact equality — the
/// per-sensor float work runs in serial order inside exactly one
/// shard).
fn assert_equivalent(trace: &Trace, sample_period: u64, num_shards: usize) {
    let mut pipeline = Pipeline::new(PipelineConfig::default(), sample_period);
    let serial_outcomes = pipeline.process_trace(trace);

    let run = run_sharded(trace, sample_period, num_shards);
    let global = &run.global;

    assert_eq!(
        run.outcomes, serial_outcomes,
        "window outcomes diverged at {num_shards} shards"
    );
    assert_eq!(global.windows_processed(), pipeline.windows_processed());
    assert_eq!(global.state_history(), pipeline.state_history());
    assert_eq!(
        run.sensors.keys().copied().collect::<Vec<_>>(),
        pipeline.sensor_ids()
    );
    assert_eq!(global.network_attack(), pipeline.network_attack());
    let classified: BTreeMap<_, _> = run
        .sensors
        .iter()
        .map(|(&id, rt)| (id, global.classify(Some(rt))))
        .collect();
    assert_eq!(classified, pipeline.classify_all());
    for id in pipeline.sensor_ids() {
        let rt = &run.sensors[&id];
        assert_eq!(rt.ever_alarmed(), pipeline.ever_alarmed(id), "{id}");
        assert_eq!(Some(rt.tracks()), pipeline.tracks(id), "{id}");
        assert_eq!(
            Some(rt.raw_history()),
            pipeline.raw_alarm_history(id),
            "{id}"
        );
        assert_eq!(pipeline.m_ce(id), Some(rt.m_ce()), "M_CE diverged for {id}");
        let (sd, sc) = pipeline.classify_with_confidence(id);
        let (ed, ec) = global.classify_with_confidence(Some(rt));
        assert_eq!(sd, ed, "{id}");
        assert_eq!(sc.to_bits(), ec.to_bits(), "confidence diverged for {id}");
    }
}

#[test]
fn clean_trace_is_shard_invariant() {
    let (trace, period) = clean_scenario(11, 3);
    for shards in [1, 2, 4] {
        assert_equivalent(&trace, period, shards);
    }
}

#[test]
fn stuck_at_trace_is_shard_invariant() {
    let (trace, period) = stuck_at_scenario(20);
    for shards in [1, 2, 4] {
        assert_equivalent(&trace, period, shards);
    }
}

#[test]
fn creation_attack_trace_is_shard_invariant() {
    let (trace, period) = creation_scenario(7);
    for shards in [1, 2, 4] {
        assert_equivalent(&trace, period, shards);
    }
}

#[test]
fn engine_runs_are_deterministic_across_repeats() {
    let (trace, period) = stuck_at_scenario(33);
    let (a, b) = (
        run_sharded(&trace, period, 3),
        run_sharded(&trace, period, 3),
    );
    assert_eq!(a.outcomes, b.outcomes);
    for (id, rt) in &a.sensors {
        assert_eq!(
            a.global.classify(Some(rt)),
            b.global.classify(b.sensors.get(id)),
            "{id}"
        );
    }
}

#[test]
fn shard_count_larger_than_sensor_count_is_fine() {
    let (trace, period) = clean_scenario(5, 2);
    assert_equivalent(&trace, period, 8);
}

#[test]
fn deletion_attack_trace_is_shard_invariant() {
    let (trace, period) = deletion_scenario(9);
    for shards in [1, 2, 4] {
        assert_equivalent(&trace, period, shards);
    }
}

#[test]
fn drift_to_stuck_trace_is_shard_invariant() {
    let (trace, period) = drift_scenario(14);
    for shards in [1, 2, 4] {
        assert_equivalent(&trace, period, shards);
    }
}

#[test]
fn reply_arrival_order_does_not_change_the_output() {
    let (trace, period) = creation_scenario(12);
    let forward = run_sharded_with(&trace, period, 4, false);
    let reversed = run_sharded_with(&trace, period, 4, true);
    assert_eq!(forward.outcomes, reversed.outcomes);
    assert_eq!(
        forward.global.state_history(),
        reversed.global.state_history()
    );
    assert_eq!(
        forward.sensors.keys().collect::<Vec<_>>(),
        reversed.sensors.keys().collect::<Vec<_>>()
    );
    for (id, rt) in &forward.sensors {
        let other = &reversed.sensors[id];
        assert_eq!(rt.raw_history(), other.raw_history(), "{id}");
        assert_eq!(rt.m_ce(), other.m_ce(), "M_CE diverged for {id}");
    }
}

#[test]
fn trace_shorter_than_one_day_matches_serial() {
    let mut cfg = gdi::month_config();
    cfg.duration = 6 * 3600;
    let trace = simulate(&cfg, &mut StdRng::seed_from_u64(3));
    for shards in [1, 3] {
        assert_equivalent(&trace, cfg.sample_period, shards);
    }
}

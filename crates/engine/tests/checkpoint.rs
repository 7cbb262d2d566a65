//! Checkpoint round-trip at the system level: snapshotting every
//! sensor through the text codec and restoring must preserve the
//! operator-facing outputs — diagnosis, confidence, alarm and track
//! history — bit-for-bit, and a restored worker must continue exactly
//! like the original.

mod common;

use common::LocalShards;
use sentinet_core::checkpoint::{decode_shard, encode_shard};
use sentinet_core::{Pipeline, PipelineConfig, SensorRuntime};
use sentinet_engine::drive_trace;
use sentinet_engine::protocol::{Job, Reply, ShardWorker};
use sentinet_inject::{inject_faults, FaultInjection, FaultModel};
use sentinet_sim::{gdi, simulate, SensorId, Trace, DAY_S};
use std::collections::BTreeMap;

fn scenario() -> (Trace, u64) {
    let mut cfg = gdi::month_config();
    cfg.duration = 3 * DAY_S;
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(41);
    let clean = simulate(&cfg, &mut rng);
    let faulty = inject_faults(
        &clean,
        &[FaultInjection::from_onset(
            SensorId(2),
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

#[test]
fn restore_preserves_classification_and_alarm_outputs() {
    let (trace, period) = scenario();
    let config = PipelineConfig::default();

    // Serial reference for the classification outputs.
    let mut pipeline = Pipeline::new(config.clone(), period);
    pipeline.process_trace(&trace);

    let mut backend = LocalShards::new(&config, 1);
    let (global, _) = drive_trace(&config, period, &trace, &mut backend);

    let shard = backend.workers[0].snapshot();
    let decoded = decode_shard(&encode_shard(&shard)).expect("codec round trip");
    assert_eq!(decoded, shard, "codec changed the snapshot");

    let restored_worker = ShardWorker::from_snapshot(config, decoded).expect("snapshots are valid");
    let originals = backend.into_sensors();
    let restored = restored_worker.into_sensors();
    assert_eq!(
        originals.keys().collect::<Vec<_>>(),
        restored.keys().collect::<Vec<_>>()
    );
    assert!(originals.keys().any(|&id| id == SensorId(2)));

    for (id, original) in &originals {
        let twin = &restored[id];
        // Classification and confidence from the restored state must be
        // bit-identical to both the original runtime and the pipeline.
        assert_eq!(
            global.classify(Some(original)),
            global.classify(Some(twin)),
            "{id}: diagnosis changed across restore"
        );
        let (diag_orig, conf_orig) = global.classify_with_confidence(Some(original));
        let (diag_twin, conf_twin) = global.classify_with_confidence(Some(twin));
        assert_eq!(diag_orig, diag_twin, "{id}");
        assert_eq!(conf_orig.to_bits(), conf_twin.to_bits(), "{id}: confidence");
        assert_eq!(diag_twin, pipeline.classify(*id), "{id}: vs serial");

        // Alarm and track products survive the round trip exactly.
        assert_eq!(original.raw_history(), twin.raw_history(), "{id}");
        assert_eq!(original.tracks(), twin.tracks(), "{id}");
        assert_eq!(original.ever_alarmed(), twin.ever_alarmed(), "{id}");
        assert_eq!(original.m_ce(), twin.m_ce(), "{id}");
    }
}

#[test]
fn restored_worker_continues_bit_identically_mid_run() {
    let (trace, period) = scenario();
    let config = PipelineConfig::default();

    let mut backend = LocalShards::new(&config, 1);
    drive_trace(&config, period, &trace, &mut backend);
    let mut worker = backend.workers.remove(0);

    // Restore mid-state, then step both workers through the same
    // additional windows: every reply must match.
    let decoded = decode_shard(&encode_shard(&worker.snapshot())).expect("round trip");
    let mut twin = ShardWorker::from_snapshot(config, decoded).expect("valid snapshots");
    let ids: Vec<SensorId> = worker.snapshot().iter().map(|(id, _)| *id).collect();
    let start = 1000u64;
    for w in 0..8u64 {
        let labels: Vec<(SensorId, usize)> = ids
            .iter()
            .map(|&id| (id, if (w + u64::from(id.0)) % 3 == 0 { 1 } else { 0 }))
            .collect();
        let job = Job::Step {
            window_index: start + w,
            correct: 0,
            num_slots: 2,
            labels,
        };
        let (a, b) = (worker.handle(job.clone()), twin.handle(job));
        match (a, b) {
            (
                Some(Reply::Stepped { raw, filtered }),
                Some(Reply::Stepped {
                    raw: raw_t,
                    filtered: filtered_t,
                }),
            ) => {
                assert_eq!(raw, raw_t, "window {w}: raw alarms diverged");
                assert_eq!(filtered, filtered_t, "window {w}: filtered alarms diverged");
            }
            other => panic!("unexpected replies {other:?}"),
        }
    }
    let (a, b): (BTreeMap<_, SensorRuntime>, BTreeMap<_, SensorRuntime>) =
        (worker.into_sensors(), twin.into_sensors());
    for (id, original) in &a {
        assert_eq!(original.m_ce(), b[id].m_ce(), "{id}: M_CE diverged");
        assert_eq!(original.tracks(), b[id].tracks(), "{id}: tracks diverged");
    }
}

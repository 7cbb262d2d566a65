//! Seeded input generation. Every workload's input is a trace CSV in
//! the format `sentinet simulate` writes; the system under test only
//! ever sees that file (or the `route` calls replaying it). The same
//! seed gives byte-identical bytes.

use crate::stats::fnv1a;
use crate::Workload;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sentinet_inject::{
    inject_attacks, inject_faults, AttackInjection, AttackModel, FaultInjection, FaultModel,
};
use sentinet_sim::{gdi, simulate, write_trace, SensorId, Trace, DAY_S};
use std::path::Path;

/// `live-burst`: sensors streaming at once.
const LIVE_SENSORS: u16 = 100;
/// `live-burst`: one simulated day, which outlasts the longest run
/// (288 sampling periods at 0.4 s each is 115 s of wall time).
const LIVE_DAYS: u64 = 1;
/// `backfill`: the reproduction shape of the partition-dependent
/// diagnosis — nine sensors, the first three attacking.
const BACKFILL_SENSORS: u16 = 9;
/// `backfill`: trace length in days.
const BACKFILL_DAYS: u64 = 2;
/// `backfill`: compromised sensors (`--attack 3:delete=12,94`).
const BACKFILL_ATTACKERS: u16 = 3;
/// `analyze-wide`: sensors in the wide network.
const WIDE_SENSORS: u16 = 200;
/// `analyze-wide`: days; 42 days of one-hour windows is 1008 windows.
const WIDE_DAYS: u64 = 42;

/// The simulated trace behind `workload`'s input for `seed`. Faults
/// and attacks are injected the way `sentinet simulate` injects them:
/// a fault after one clean day, an attack from mid-trace on.
pub fn generate(workload: Workload, seed: u64) -> Trace {
    let mut cfg = gdi::month_config();
    let mut rng = StdRng::seed_from_u64(seed);
    let freeze = || AttackModel::DynamicDeletion {
        freeze_at: vec![12.0, 94.0],
    };
    match workload {
        Workload::LiveBurst => {
            cfg.num_sensors = LIVE_SENSORS;
            cfg.duration = LIVE_DAYS * DAY_S;
            simulate(&cfg, &mut rng)
        }
        Workload::Backfill => {
            cfg.num_sensors = BACKFILL_SENSORS;
            cfg.duration = BACKFILL_DAYS * DAY_S;
            let trace = simulate(&cfg, &mut rng);
            inject_attacks(
                &trace,
                &[AttackInjection::from_onset(
                    (0..BACKFILL_ATTACKERS).map(SensorId).collect(),
                    freeze(),
                    BACKFILL_DAYS / 2 * DAY_S,
                )],
                &cfg.ranges,
            )
        }
        Workload::AnalyzeWide => {
            cfg.num_sensors = WIDE_SENSORS;
            cfg.duration = WIDE_DAYS * DAY_S;
            let trace = simulate(&cfg, &mut rng);
            let trace = inject_faults(
                &trace,
                &[FaultInjection::from_onset(
                    SensorId(WIDE_SENSORS - 1),
                    FaultModel::StuckAt {
                        value: vec![15.0, 1.0],
                    },
                    DAY_S,
                )],
                &cfg.ranges,
                &mut rng,
            );
            inject_attacks(
                &trace,
                &[AttackInjection::from_onset(
                    (0..WIDE_SENSORS / 3).map(SensorId).collect(),
                    freeze(),
                    WIDE_DAYS / 2 * DAY_S,
                )],
                &cfg.ranges,
            )
        }
    }
}

/// The CSV bytes of `workload`'s input for `seed`.
pub fn csv_bytes(workload: Workload, seed: u64) -> Vec<u8> {
    let mut out = Vec::new();
    write_trace(&generate(workload, seed), 2, &mut out).expect("writing to memory cannot fail");
    out
}

/// Digest of the route sequence a trace replays: every delivered
/// `(time, sensor, values)`, in order.
pub fn route_digest(trace: &Trace) -> u64 {
    let mut bytes = Vec::with_capacity(trace.len() * 26);
    for (time, sensor, reading) in trace.delivered() {
        bytes.extend_from_slice(&time.to_le_bytes());
        bytes.extend_from_slice(&sensor.0.to_le_bytes());
        for v in reading.values() {
            bytes.extend_from_slice(&v.to_bits().to_le_bytes());
        }
    }
    fnv1a(&bytes)
}

/// Whether `trace` (regenerated from the run's seed) writes exactly
/// the bytes of the input file the run read.
pub fn regenerates(trace: &Trace, input: &Path) -> Result<bool, String> {
    let mut bytes = Vec::new();
    write_trace(trace, 2, &mut bytes).expect("writing to memory cannot fail");
    let on_disk = std::fs::read(input).map_err(|e| format!("read {}: {e}", input.display()))?;
    Ok(bytes == on_disk)
}

//! Seeded delivery-schedule simulation: BurstLoss-shaped drops,
//! duplicates, and reordering over a clean record stream.
//!
//! The simulator turns an in-order record stream into a *delivery
//! schedule* — the sequence of frame arrivals a collector would see
//! behind a lossy, bursty radio link. Losses appear as deferrals (a
//! dropped frame is retried by the uplink and arrives later), burst
//! structure comes from the same Gilbert–Elliott two-state machine as
//! [`BurstLoss`], and lost acks appear as duplicate deliveries of
//! already-durable frames.
//!
//! Deferrals are bounded by the watermark: the schedule never holds a
//! record back so long that the collector's reorder buffer would have
//! to drop it. Concretely, before any record with time `t` is
//! emitted, every deferred record `d` with `d.time + watermark_delay
//! ≤ t` is flushed first. Under that constraint the reorder buffer
//! provably re-sequences the schedule into exactly the in-order
//! stream — which is the gateway's central regression property: a
//! seeded schedule with drops, dups, and reordering must produce a
//! report bit-identical to in-order delivery.

use crate::client::{PipelinedUplink, UplinkError};
use crate::collector::{Collector, GatewayError};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sentinet_sim::{BurstLoss, RawRecord, SensorId, Timestamp, Trace};
use std::collections::BTreeMap;

/// Delivery-schedule tuning.
#[derive(Debug, Clone)]
pub struct NetsimConfig {
    /// Seed for every random choice in the schedule.
    pub seed: u64,
    /// Burst state machine; `loss_bad` is the defer (drop-and-retry)
    /// probability while the link is bad.
    pub burst: BurstLoss,
    /// Defer probability while the link is good.
    pub defer_good: f64,
    /// Probability an emitted frame's ack is lost, so a duplicate
    /// delivery arrives later.
    pub dup_rate: f64,
    /// The collector's reorder watermark delay; deferrals never
    /// exceed it.
    pub watermark_delay: Timestamp,
}

impl Default for NetsimConfig {
    fn default() -> Self {
        Self {
            seed: 1,
            burst: BurstLoss {
                p_enter_bad: 0.08,
                p_exit_bad: 0.4,
                loss_bad: 0.5,
            },
            defer_good: 0.05,
            dup_rate: 0.05,
            watermark_delay: 1800,
        }
    }
}

/// One frame arrival in a delivery schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct Emission {
    /// Reporting sensor.
    pub sensor: SensorId,
    /// The frame's sequence number (duplicates repeat one).
    pub seq: u64,
    /// Sample timestamp.
    pub time: Timestamp,
    /// Attribute values.
    pub values: Vec<f64>,
    /// Whether this arrival is a retransmission of an acked frame.
    pub duplicate: bool,
}

/// The delivered records of `trace` as raw gateway input, in
/// `(time, sensor)` order.
pub fn trace_to_raw(trace: &Trace) -> Vec<RawRecord> {
    trace
        .delivered()
        .map(|(time, sensor, reading)| RawRecord {
            time,
            sensor,
            values: reading.values().to_vec(),
        })
        .collect()
}

/// Builds a seeded delivery schedule over `records` (which must be in
/// `(time, sensor)` order with strictly increasing per-sensor times —
/// what [`trace_to_raw`] produces). Every record appears exactly once
/// as an original emission; duplicates are marked.
pub fn delivery_schedule(records: &[RawRecord], config: &NetsimConfig) -> Vec<Emission> {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut schedule: Vec<Emission> = Vec::new();
    let mut deferred: Vec<Emission> = Vec::new();
    let mut next_seq: BTreeMap<SensorId, u64> = BTreeMap::new();
    let mut bad = false;

    for record in records {
        // Watermark constraint: flush any deferral that cannot wait
        // past this record's timestamp.
        let mut i = 0;
        while i < deferred.len() {
            if deferred[i].time.saturating_add(config.watermark_delay) <= record.time {
                schedule.push(deferred.remove(i));
            } else {
                i += 1;
            }
        }

        bad = if bad {
            !rng.gen_bool(config.burst.p_exit_bad)
        } else {
            rng.gen_bool(config.burst.p_enter_bad)
        };
        let defer_p = if bad {
            config.burst.loss_bad
        } else {
            config.defer_good
        };

        let seq = {
            let next = next_seq.entry(record.sensor).or_insert(0);
            let seq = *next;
            *next += 1;
            seq
        };
        let emission = Emission {
            sensor: record.sensor,
            seq,
            time: record.time,
            values: record.values.clone(),
            duplicate: false,
        };
        if rng.gen_bool(defer_p) {
            // "Lost": the retry arrives at a random later point.
            let at = rng.gen_range(0..deferred.len() + 1);
            deferred.insert(at, emission);
        } else {
            if rng.gen_bool(config.dup_rate) {
                // Ack lost: a duplicate rides in later.
                let mut dup = emission.clone();
                dup.duplicate = true;
                let at = rng.gen_range(0..deferred.len() + 1);
                deferred.insert(at, dup);
            }
            schedule.push(emission);
        }
    }
    schedule.append(&mut deferred);
    schedule
}

/// Drives a schedule straight into an in-process collector.
///
/// # Errors
///
/// [`GatewayError`] if the collector's WAL fails.
pub fn deliver_schedule(
    collector: &mut Collector,
    schedule: &[Emission],
) -> Result<(), GatewayError> {
    for e in schedule {
        collector.deliver(e.sensor, e.seq, e.time, e.values.clone())?;
    }
    Ok(())
}

/// Drives a schedule through a real socket via the uplink's raw
/// `(seq, …)` hook — each emission goes out as its own single-reading
/// `DataBatch` — exercising retransmission, cumulative acks over
/// out-of-order sequence numbers, and server-side dedup end to end.
/// Returns once every emission is acknowledged.
///
/// # Errors
///
/// [`UplinkError`] if any batch exhausts its retries.
pub fn drive_uplink(
    uplink: &mut PipelinedUplink,
    schedule: &[Emission],
) -> Result<(), UplinkError> {
    for e in schedule {
        uplink.send_at(e.sensor, e.seq, e.time, &e.values)?;
    }
    uplink.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn records(n: u64, sensors: u16) -> Vec<RawRecord> {
        let mut out = Vec::new();
        for i in 0..n {
            for s in 0..sensors {
                out.push(RawRecord {
                    time: 300 * (i + 1),
                    sensor: SensorId(s),
                    values: vec![20.0 + (i % 5) as f64, 50.0 + s as f64],
                });
            }
        }
        out
    }

    #[test]
    fn schedule_covers_every_record_exactly_once() {
        let recs = records(50, 3);
        let schedule = delivery_schedule(&recs, &NetsimConfig::default());
        let originals: Vec<_> = schedule.iter().filter(|e| !e.duplicate).collect();
        assert_eq!(originals.len(), recs.len());
        let mut seen: BTreeMap<(SensorId, u64), usize> = BTreeMap::new();
        for e in &originals {
            *seen.entry((e.sensor, e.seq)).or_insert(0) += 1;
        }
        assert!(seen.values().all(|&c| c == 1), "an original repeated");
    }

    #[test]
    fn schedule_actually_reorders_and_duplicates() {
        let recs = records(100, 2);
        let schedule = delivery_schedule(&recs, &NetsimConfig::default());
        let out_of_order = schedule
            .windows(2)
            .filter(|w| w[1].time < w[0].time)
            .count();
        let dups = schedule.iter().filter(|e| e.duplicate).count();
        assert!(out_of_order > 0, "seeded schedule produced no reordering");
        assert!(dups > 0, "seeded schedule produced no duplicates");
    }

    #[test]
    fn deferrals_respect_the_watermark() {
        let recs = records(200, 2);
        let config = NetsimConfig::default();
        let schedule = delivery_schedule(&recs, &config);
        let mut max_time = 0u64;
        for e in &schedule {
            if !e.duplicate {
                assert!(
                    e.time.saturating_add(config.watermark_delay) >= max_time,
                    "original at t={} emitted after watermark passed (max seen {})",
                    e.time,
                    max_time
                );
            }
            max_time = max_time.max(e.time);
        }
    }
}

//! Ingest-boundary corruption: the garbage broken ADCs and
//! store-and-forward radios put in front of the `sentinet-sim`
//! sanitizer.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sentinet_sim::RawRecord;

/// Corrupts a record stream the way broken ADCs and store-and-forward
/// radios do: NaN/∞ payloads, duplicated timestamps, and stale
/// (out-of-order) retransmissions, each injected with probability
/// `rate` per record, deterministically from `seed`. Every clean
/// record is preserved; corruption is either applied to a copy's
/// payload or appended as an extra record, so feeding the output
/// through the `sentinet-sim` sanitizer must recover exactly the
/// accepted originals.
pub fn corrupt_records(records: &[RawRecord], seed: u64, rate: f64) -> Vec<RawRecord> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::with_capacity(records.len());
    for record in records {
        let corrupt = rng.gen::<f64>() < rate;
        let pick = rng.gen_range(0usize..4);
        match (corrupt, pick) {
            (true, 0) => {
                let mut bad = record.clone();
                if let Some(v) = bad.values.first_mut() {
                    *v = f64::NAN;
                }
                out.push(bad);
            }
            (true, 1) => {
                let mut bad = record.clone();
                if let Some(v) = bad.values.last_mut() {
                    *v = f64::INFINITY;
                }
                out.push(bad);
            }
            (true, 2) => {
                out.push(record.clone());
                out.push(record.clone()); // duplicate timestamp
            }
            (true, _) => {
                out.push(record.clone());
                let mut stale = record.clone();
                stale.time = stale.time.saturating_sub(1);
                out.push(stale); // out-of-order retransmission
            }
            (false, _) => out.push(record.clone()),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sentinet_sim::{sanitize_records, SensorId};

    #[test]
    fn corrupt_records_is_deterministic_and_sanitizer_recovers() {
        let clean: Vec<RawRecord> = (0..50)
            .map(|i| RawRecord {
                time: 300 * (i as u64 + 1),
                sensor: SensorId((i % 5) as u16),
                values: vec![15.0 + i as f64 * 0.1, 80.0],
            })
            .collect();
        let a = corrupt_records(&clean, 7, 0.4);
        let b = corrupt_records(&clean, 7, 0.4);
        // Bitwise comparison: injected NaNs are != themselves.
        let bits = |records: &[RawRecord]| -> Vec<(u64, u16, Vec<u64>)> {
            records
                .iter()
                .map(|r| {
                    let vs = r.values.iter().map(|v| v.to_bits()).collect();
                    (r.time, r.sensor.0, vs)
                })
                .collect()
        };
        assert_eq!(bits(&a), bits(&b), "same seed, same corruption");
        assert!(a.len() > clean.len(), "duplicates/replays were appended");

        let (trace, report) = sanitize_records(a);
        assert!(!report.is_clean(), "corruption must be caught");
        // Every record the sanitizer accepted is finite and per-sensor
        // strictly increasing — the estimators never see the garbage.
        assert_eq!(trace.delivered().count(), report.accepted);
        for (_, _, reading) in trace.delivered() {
            assert!(reading.values().iter().all(|v| v.is_finite()));
        }
    }

    #[test]
    fn zero_rate_is_identity() {
        let clean: Vec<RawRecord> = (0..10)
            .map(|i| RawRecord {
                time: 300 * (i as u64 + 1),
                sensor: SensorId(0),
                values: vec![1.0],
            })
            .collect();
        assert_eq!(corrupt_records(&clean, 1, 0.0), clean);
    }

    fn ramp(n: usize) -> Vec<RawRecord> {
        (0..n)
            .map(|i| RawRecord {
                time: 300 * (i as u64 + 1),
                sensor: SensorId((i % 3) as u16),
                values: vec![10.0 + i as f64, 70.0],
            })
            .collect()
    }

    #[test]
    fn full_rate_damages_or_follows_up_every_record() {
        let clean = ramp(40);
        let out = corrupt_records(&clean, 3, 1.0);
        // Each record is either replaced by a non-finite copy or kept
        // and followed by one duplicate/stale extra.
        let damaged = out
            .iter()
            .filter(|r| r.values.iter().any(|v| !v.is_finite()))
            .count();
        let extras = out.len() - clean.len();
        assert_eq!(damaged + extras, clean.len());
        assert!(
            damaged > 0 && extras > 0,
            "{damaged} damaged, {extras} extra"
        );
        for r in &out {
            assert!(
                clean
                    .iter()
                    .any(|c| c.sensor == r.sensor && (c.time == r.time || c.time == r.time + 1)),
                "corruption invented a record: {r:?}"
            );
        }
    }

    #[test]
    fn different_seeds_corrupt_differently() {
        let clean = ramp(60);
        let shape = |records: &[RawRecord]| -> Vec<(u64, bool)> {
            records
                .iter()
                .map(|r| (r.time, r.values.iter().all(|v| v.is_finite())))
                .collect()
        };
        let a = corrupt_records(&clean, 1, 0.5);
        let b = corrupt_records(&clean, 2, 0.5);
        assert_ne!(shape(&a), shape(&b));
    }
}

//! Core data types shared across the simulator and the detector.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of a sensor node (mote) in the deployment.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct SensorId(pub u16);

impl fmt::Display for SensorId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sensor{}", self.0)
    }
}

impl From<u16> for SensorId {
    fn from(v: u16) -> Self {
        SensorId(v)
    }
}

/// Simulation time in seconds since deployment start.
pub type Timestamp = u64;

/// A multi-attribute sensor reading `p = ⟨x_1, …, x_n⟩` (§3.1).
///
/// For the Great Duck Island reproduction, `values = [temperature °C,
/// relative humidity %]`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Reading {
    values: Vec<f64>,
}

impl Reading {
    /// Creates a reading from attribute values.
    ///
    /// # Panics
    ///
    /// Panics if `values` is empty or contains non-finite entries.
    pub fn new(values: Vec<f64>) -> Self {
        assert!(!values.is_empty(), "a reading needs at least one attribute");
        assert!(
            values.iter().all(|v| v.is_finite()),
            "reading attributes must be finite: {values:?}"
        );
        Self { values }
    }

    /// The attribute values.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Number of attributes `n`.
    pub fn dims(&self) -> usize {
        self.values.len()
    }

    /// Euclidean distance to another point (used by state mapping,
    /// Eqs. 2–3).
    ///
    /// # Panics
    ///
    /// Panics if dimensions disagree.
    pub fn distance(&self, other: &[f64]) -> f64 {
        assert_eq!(self.values.len(), other.len(), "dimension mismatch");
        self.values
            .iter()
            .zip(other)
            .map(|(a, b)| (a - b).powi(2))
            .sum::<f64>()
            .sqrt()
    }
}

impl From<Vec<f64>> for Reading {
    fn from(values: Vec<f64>) -> Self {
        Reading::new(values)
    }
}

impl fmt::Display for Reading {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, v) in self.values.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{v:.1}")?;
        }
        write!(f, ")")
    }
}

/// One record of a collected trace: the message `⟨t, p⟩` a sensor sent
/// to the collector, or evidence that the packet was lost/corrupted.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceRecord {
    /// Sampling time.
    pub time: Timestamp,
    /// Reporting sensor.
    pub sensor: SensorId,
    /// The payload: `Delivered` readings reach the collector; `Lost`
    /// packets never arrive; `Malformed` packets arrive but fail
    /// parsing and are discarded by the collector (the paper notes both
    /// kinds occur in the GDI data).
    pub payload: Payload,
}

/// Delivery outcome of a sensor message.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Payload {
    /// Reading delivered intact.
    Delivered(Reading),
    /// Packet dropped by the network.
    Lost,
    /// Packet delivered but malformed (collector discards it).
    Malformed,
}

impl Payload {
    /// The reading if delivered intact.
    pub fn reading(&self) -> Option<&Reading> {
        match self {
            Payload::Delivered(r) => Some(r),
            _ => None,
        }
    }

    /// True when the collector can use this record.
    pub fn is_delivered(&self) -> bool {
        matches!(self, Payload::Delivered(_))
    }
}

/// An entire collected trace, ordered by time then sensor id.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Trace {
    records: Vec<TraceRecord>,
}

impl Trace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a trace from records, sorting them by (time, sensor).
    /// Records already in that order are kept as they are, without the
    /// sort's scratch buffer.
    pub fn from_records(mut records: Vec<TraceRecord>) -> Self {
        let key = |r: &TraceRecord| (r.time, r.sensor);
        if !records.is_sorted_by_key(key) {
            records.sort_by_key(key);
        }
        Self { records }
    }

    /// Appends a record, keeping order if the record is in sequence.
    pub fn push(&mut self, record: TraceRecord) {
        debug_assert!(
            self.records
                .last()
                .map(|l| (l.time, l.sensor) <= (record.time, record.sensor))
                .unwrap_or(true),
            "records must be pushed in (time, sensor) order"
        );
        self.records.push(record);
    }

    /// All records in (time, sensor) order.
    pub fn records(&self) -> &[TraceRecord] {
        &self.records
    }

    /// Number of records (including lost/malformed ones).
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when the trace holds no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Iterates over delivered `(time, sensor, reading)` triples only —
    /// the collector's view of the network.
    pub fn delivered(&self) -> impl Iterator<Item = (Timestamp, SensorId, &Reading)> {
        self.records.iter().filter_map(|r| match &r.payload {
            Payload::Delivered(reading) => Some((r.time, r.sensor, reading)),
            _ => None,
        })
    }

    /// Fraction of records that were lost or malformed.
    pub fn loss_rate(&self) -> f64 {
        if self.records.is_empty() {
            return 0.0;
        }
        let bad = self
            .records
            .iter()
            .filter(|r| !r.payload.is_delivered())
            .count();
        bad as f64 / self.records.len() as f64
    }

    /// Distinct sensor ids appearing in the trace, sorted.
    pub fn sensors(&self) -> Vec<SensorId> {
        let mut ids: Vec<SensorId> = self.records.iter().map(|r| r.sensor).collect();
        ids.sort();
        ids.dedup();
        ids
    }

    /// The delivered readings of one sensor as `(time, reading)` pairs.
    pub fn sensor_series(&self, sensor: SensorId) -> Vec<(Timestamp, &Reading)> {
        self.records
            .iter()
            .filter(|r| r.sensor == sensor)
            .filter_map(|r| r.payload.reading().map(|p| (r.time, p)))
            .collect()
    }

    /// Consumes the trace, returning its records.
    pub fn into_records(self) -> Vec<TraceRecord> {
        self.records
    }
}

impl FromIterator<TraceRecord> for Trace {
    fn from_iter<I: IntoIterator<Item = TraceRecord>>(iter: I) -> Self {
        Trace::from_records(iter.into_iter().collect())
    }
}

impl Extend<TraceRecord> for Trace {
    fn extend<I: IntoIterator<Item = TraceRecord>>(&mut self, iter: I) {
        self.records.extend(iter);
        self.records.sort_by_key(|r| (r.time, r.sensor));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(t: Timestamp, s: u16, v: Option<Vec<f64>>) -> TraceRecord {
        TraceRecord {
            time: t,
            sensor: SensorId(s),
            payload: match v {
                Some(v) => Payload::Delivered(Reading::new(v)),
                None => Payload::Lost,
            },
        }
    }

    #[test]
    fn reading_distance() {
        let r = Reading::new(vec![3.0, 4.0]);
        assert!((r.distance(&[0.0, 0.0]) - 5.0).abs() < 1e-12);
        assert_eq!(r.dims(), 2);
    }

    #[test]
    #[should_panic(expected = "at least one attribute")]
    fn empty_reading_panics() {
        Reading::new(vec![]);
    }

    #[test]
    #[should_panic(expected = "must be finite")]
    fn nan_reading_panics() {
        Reading::new(vec![f64::NAN]);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn distance_dim_mismatch_panics() {
        Reading::new(vec![1.0]).distance(&[1.0, 2.0]);
    }

    #[test]
    fn trace_sorting_and_queries() {
        let t = Trace::from_records(vec![
            rec(600, 1, Some(vec![20.0, 80.0])),
            rec(300, 0, Some(vec![19.0, 81.0])),
            rec(300, 1, None),
        ]);
        assert_eq!(t.len(), 3);
        assert_eq!(t.records()[0].time, 300);
        assert_eq!(t.records()[0].sensor, SensorId(0));
        assert_eq!(t.sensors(), vec![SensorId(0), SensorId(1)]);
        assert_eq!(t.delivered().count(), 2);
        assert!((t.loss_rate() - 1.0 / 3.0).abs() < 1e-12);
        let s1 = t.sensor_series(SensorId(1));
        assert_eq!(s1.len(), 1);
        assert_eq!(s1[0].0, 600);
    }

    #[test]
    fn empty_trace() {
        let t = Trace::new();
        assert!(t.is_empty());
        assert_eq!(t.loss_rate(), 0.0);
        assert!(t.sensors().is_empty());
    }

    #[test]
    fn from_iterator_and_extend() {
        let mut t: Trace = vec![rec(300, 0, Some(vec![1.0]))].into_iter().collect();
        t.extend(vec![rec(0, 1, Some(vec![2.0]))]);
        assert_eq!(t.records()[0].time, 0);
    }

    #[test]
    fn display_formats() {
        assert_eq!(SensorId(4).to_string(), "sensor4");
        assert_eq!(Reading::new(vec![12.04, 94.0]).to_string(), "(12.0,94.0)");
    }

    #[test]
    fn payload_accessors() {
        let p = Payload::Delivered(Reading::new(vec![1.0]));
        assert!(p.is_delivered());
        assert!(p.reading().is_some());
        assert!(!Payload::Lost.is_delivered());
        assert!(Payload::Malformed.reading().is_none());
    }
}

//! Shard-schedule model checker for the sentinet engine.
//!
//! The engine's correctness claim is that its output is bit-for-bit
//! identical to the serial pipeline **under every worker/coordinator
//! interleaving** — the majority-vote barrier and the order-insensitive
//! reply folds (`collect_labels` / `collect_steps`) are what make the
//! claim hold, and a fixed-order equivalence test only ever observes
//! one arrival order.
//!
//! This module closes that gap loom-style: it drives the *real*
//! coordinator loop ([`sentinet_engine::drive_trace`]) with a
//! [`ShardBackend`] whose shards are in-process [`ShardWorker`]s fed
//! through the vendored crossbeam channels, and where every order a
//! distributed deployment would leave to the scheduler — which shard
//! executes its pending job first, hence in which order replies arrive
//! at the coordinator — becomes an explicit choice point. A depth-first
//! [`Schedule`] enumerates every complete assignment of choices (the
//! trace is replayed from scratch per schedule; all state is
//! reconstructed, so the exploration is exhaustive and deterministic)
//! and every schedule's `WindowOutcome`s, per-sensor alarm histories
//! and `M_CE` estimators must equal the serial pipeline's exactly.
//!
//! The scenario is the smallest one that exercises every barrier: 2
//! shards, 3 sensors (sensor 2 alone on shard 1), 3 windows, with
//! sensor 2 turning faulty after the first window so the decisive-step
//! path (alarms, `M_CE` updates) runs under exploration too.

use crossbeam::channel::{unbounded, Receiver, Sender};
use sentinet_core::{Pipeline, PipelineConfig};
use sentinet_engine::protocol::{collect_labels, collect_steps, shard_of, Job, Reply, ShardWorker};
use sentinet_engine::{drive_trace, ShardBackend};
use sentinet_sim::{Payload, Reading, SensorId, Trace, TraceRecord};
use std::collections::BTreeMap;

const NUM_SHARDS: usize = 2;
const NUM_SENSORS: u16 = 3;
const SAMPLE_PERIOD: u64 = 1;
const WINDOW_SAMPLES: u32 = 4;
const NUM_WINDOWS: u64 = 3;

/// Result of an exhaustive exploration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExploreReport {
    /// Complete schedules executed (distinct interleavings).
    pub schedules: usize,
    /// Windows produced per schedule.
    pub windows: usize,
    /// Sensors compared per schedule.
    pub sensors: usize,
}

/// A DFS cursor over schedule space. Each run consumes choices left to
/// right; unseen choice points default to 0 and are recorded with
/// their width so [`Schedule::advance`] can enumerate the next leaf.
#[derive(Debug, Default)]
pub struct Schedule {
    choices: Vec<usize>,
    widths: Vec<usize>,
    cursor: usize,
}

impl Schedule {
    /// Starts at the all-zeros schedule.
    pub fn new() -> Self {
        Self::default()
    }

    /// Rewinds the cursor for the next replay of the same schedule.
    pub fn reset(&mut self) {
        self.cursor = 0;
    }

    /// Takes the next choice among `n` alternatives.
    pub fn choose(&mut self, n: usize) -> usize {
        assert!(n > 0, "empty choice");
        if self.cursor == self.choices.len() {
            self.choices.push(0);
            self.widths.push(n);
        }
        assert_eq!(
            self.widths[self.cursor], n,
            "nondeterministic choice width at point {} — replay diverged",
            self.cursor
        );
        let c = self.choices[self.cursor];
        self.cursor += 1;
        c
    }

    /// The choices taken so far (a complete replayable coordinate of
    /// the current schedule — violation reports embed it).
    pub fn choices(&self) -> &[usize] {
        &self.choices
    }

    /// Advances to the next unexplored schedule; false when the space
    /// is exhausted.
    pub fn advance(&mut self) -> bool {
        while let Some(last) = self.choices.len().checked_sub(1) {
            if self.choices[last] + 1 < self.widths[last] {
                self.choices[last] += 1;
                self.reset();
                return true;
            }
            self.choices.pop();
            self.widths.pop();
        }
        false
    }
}

/// A schedule-controlled [`ShardBackend`]: jobs flow through real
/// crossbeam channels to in-process [`ShardWorker`]s, and the schedule
/// picks which shard runs next at every barrier.
struct ExplorerBackend<'a> {
    workers: Vec<ShardWorker>,
    job_ports: Vec<(Sender<Job>, Receiver<Job>)>,
    reply_tx: Sender<Reply>,
    reply_rx: Receiver<Reply>,
    schedule: &'a mut Schedule,
}

impl<'a> ExplorerBackend<'a> {
    fn new(config: &PipelineConfig, schedule: &'a mut Schedule) -> Self {
        let (reply_tx, reply_rx) = unbounded();
        Self {
            workers: (0..NUM_SHARDS)
                .map(|_| ShardWorker::new(config.clone()))
                .collect(),
            job_ports: (0..NUM_SHARDS).map(|_| unbounded()).collect(),
            reply_tx,
            reply_rx,
            schedule,
        }
    }

    /// Runs every queued job, one shard at a time in schedule-chosen
    /// order; replies land on the shared reply channel in that order,
    /// exactly as a real arrival order would.
    fn run_pending(&mut self, mut pending: Vec<usize>) {
        while !pending.is_empty() {
            let pick = self.schedule.choose(pending.len());
            let shard = pending.remove(pick);
            let job = self.job_ports[shard]
                .1
                .recv()
                .expect("a queued job per pending shard");
            if let Some(reply) = self.workers[shard].handle(job) {
                self.reply_tx.send(reply).expect("reply receiver alive");
            }
        }
    }

    fn arrivals(&self, n: usize) -> Vec<Reply> {
        (0..n)
            .map(|_| self.reply_rx.recv().expect("one reply per shard"))
            .collect()
    }

    fn into_sensors(self) -> BTreeMap<SensorId, sentinet_core::SensorRuntime> {
        let mut all = BTreeMap::new();
        for w in self.workers {
            all.extend(w.into_sensors());
        }
        all
    }
}

impl ShardBackend for ExplorerBackend<'_> {
    fn label(
        &mut self,
        states: &sentinet_cluster::ModelStates,
        representatives: &BTreeMap<SensorId, Vec<f64>>,
    ) -> Option<BTreeMap<SensorId, usize>> {
        let mut batches: Vec<Vec<(SensorId, Vec<f64>)>> = vec![Vec::new(); NUM_SHARDS];
        for (&id, mean) in representatives {
            batches[shard_of(id, NUM_SHARDS)].push((id, mean.clone()));
        }
        for ((tx, _), means) in self.job_ports.iter().zip(batches) {
            tx.send(Job::Label {
                states: states.clone(),
                means,
            })
            .expect("job receiver alive");
        }
        self.run_pending((0..NUM_SHARDS).collect());
        collect_labels(self.arrivals(NUM_SHARDS))
    }

    fn step(
        &mut self,
        window_index: u64,
        correct: usize,
        num_slots: usize,
        labels: &BTreeMap<SensorId, usize>,
    ) -> (Vec<SensorId>, Vec<SensorId>) {
        let mut batches: Vec<Vec<(SensorId, usize)>> = vec![Vec::new(); NUM_SHARDS];
        for (&id, &label) in labels {
            batches[shard_of(id, NUM_SHARDS)].push((id, label));
        }
        for ((tx, _), labels) in self.job_ports.iter().zip(batches) {
            tx.send(Job::Step {
                window_index,
                correct,
                num_slots,
                labels,
            })
            .expect("job receiver alive");
        }
        self.run_pending((0..NUM_SHARDS).collect());
        collect_steps(self.arrivals(NUM_SHARDS))
    }

    fn grow(&mut self, num_slots: usize) {
        for (tx, _) in &self.job_ports {
            tx.send(Job::Grow { num_slots })
                .expect("job receiver alive");
        }
        self.run_pending((0..NUM_SHARDS).collect());
    }
}

/// The checked configuration: bootstrap skipped via explicit initial
/// states so every window takes the full label/vote/step path.
fn check_config() -> PipelineConfig {
    PipelineConfig {
        window_samples: WINDOW_SAMPLES,
        initial_states: Some(vec![vec![0.0], vec![10.0]]),
        observable_trim: 0.0,
        ..PipelineConfig::default()
    }
}

/// Three sensors sampling every second for three windows; sensor 2
/// reports a stuck value of 10.0 from the second window on, so later
/// windows raise raw alarms and exercise the step barrier.
fn check_trace() -> Trace {
    let mut records = Vec::new();
    for t in 0..(NUM_WINDOWS * WINDOW_SAMPLES as u64) {
        for s in 0..NUM_SENSORS {
            let faulty = s == 2 && t >= WINDOW_SAMPLES as u64;
            let value = if faulty { 10.0 } else { 0.0 };
            records.push(TraceRecord {
                time: t * SAMPLE_PERIOD,
                sensor: SensorId(s),
                payload: Payload::Delivered(Reading::new(vec![value])),
            });
        }
    }
    Trace::from_records(records)
}

/// Explores every schedule and checks bit-identical equivalence with
/// the serial pipeline. Returns the exploration report, or the first
/// divergence found.
pub fn explore() -> Result<ExploreReport, String> {
    let config = check_config();
    let trace = check_trace();

    // Serial reference run.
    let mut pipeline = Pipeline::new(config.clone(), SAMPLE_PERIOD);
    let serial_outcomes = pipeline.process_trace(&trace);
    if serial_outcomes.len() != NUM_WINDOWS as usize {
        return Err(format!(
            "scenario produced {} windows, expected {NUM_WINDOWS} — trace or config drifted",
            serial_outcomes.len()
        ));
    }
    let raw_alarms: usize = serial_outcomes.iter().map(|o| o.raw_alarms.len()).sum();
    if raw_alarms == 0 {
        return Err("scenario raised no raw alarms; the step barrier is not exercised".into());
    }

    let mut schedule = Schedule::new();
    let mut schedules = 0usize;
    loop {
        let mut backend = ExplorerBackend::new(&config, &mut schedule);
        let (_, outcomes) = drive_trace(&config, SAMPLE_PERIOD, &trace, &mut backend);
        let sensors = backend.into_sensors();

        if outcomes != serial_outcomes {
            return Err(format!(
                "schedule {:?} diverged: outcomes differ from serial run\nserial: {serial_outcomes:?}\nsharded: {outcomes:?}",
                schedule.choices
            ));
        }
        for s in 0..NUM_SENSORS {
            let id = SensorId(s);
            let rt = sensors
                .get(&id)
                .ok_or_else(|| format!("schedule {:?}: sensor {s} missing", schedule.choices))?;
            if Some(rt.raw_history()) != pipeline.raw_alarm_history(id) {
                return Err(format!(
                    "schedule {:?}: sensor {s} raw-alarm history diverged",
                    schedule.choices
                ));
            }
            if Some(rt.m_ce()) != pipeline.m_ce(id) {
                return Err(format!(
                    "schedule {:?}: sensor {s} M_CE estimator diverged",
                    schedule.choices
                ));
            }
        }

        schedules += 1;
        if !schedule.advance() {
            break;
        }
    }

    Ok(ExploreReport {
        schedules,
        windows: serial_outcomes.len(),
        sensors: NUM_SENSORS as usize,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_enumerates_cross_product() {
        // Two binary choice points → 4 complete schedules.
        let mut s = Schedule::new();
        let mut seen = Vec::new();
        loop {
            let a = s.choose(2);
            let b = s.choose(2);
            seen.push((a, b));
            if !s.advance() {
                break;
            }
        }
        assert_eq!(seen, vec![(0, 0), (0, 1), (1, 0), (1, 1)]);
    }

    #[test]
    fn schedule_handles_varying_widths() {
        let mut s = Schedule::new();
        let mut count = 0;
        loop {
            let a = s.choose(3);
            if a == 0 {
                s.choose(2);
            }
            count += 1;
            if !s.advance() {
                break;
            }
        }
        // a=0 explores 2 sub-branches, a=1 and a=2 one each.
        assert_eq!(count, 4);
    }

    #[test]
    fn exploration_confirms_equivalence() {
        let report = explore().expect("no schedule may diverge");
        assert!(
            report.schedules >= 24,
            "only {} schedules explored",
            report.schedules
        );
        assert_eq!(report.windows, NUM_WINDOWS as usize);
    }
}

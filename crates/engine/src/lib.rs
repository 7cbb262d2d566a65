//! `sentinet-engine` — the coordinator/shard split of the detection
//! pipeline.
//!
//! The serial [`sentinet_core::Pipeline`] interleaves two kinds of
//! per-window work:
//!
//! - **per-sensor stages** — alarm filter update, `M_CE` online
//!   estimation, error/attack track management — which touch only one
//!   sensor's state ([`sentinet_core::SensorRuntime`]);
//! - **global stages** — clustering, observable/correct state
//!   identification, `M_CO`/`M_C`/`M_O` estimation, majority voting —
//!   which need every sensor's vote ([`sentinet_core::GlobalModel`]).
//!
//! This crate splits the two along a message protocol: a coordinator
//! ([`drive_trace`] / [`window_pass`]) runs the global stages and hands
//! per-sensor work to shards through a [`ShardBackend`]. Per window
//! the coordinator asks each shard for a batched **label** job
//! (model-state snapshot + that shard's sensor representatives) and,
//! on decisive windows, a batched **step** job; explicit **grow** jobs
//! keep shard-side estimators sized to the coordinator's model-state
//! slots. Sensor *s* lives on shard [`protocol::shard_of`]`(s, n)` for
//! its whole life.
//!
//! The majority vote itself cannot be sharded: Eq. 4 elects the state
//! backed by the most sensors *across the whole network*, and every
//! subsequent stage (alarm generation, `M_CO`/`M_CE` updates) consumes
//! the elected state — so the vote is a per-window barrier between the
//! label stage and the step stage.
//!
//! Because every per-sensor float operation happens in the same order
//! inside exactly one [`protocol::ShardWorker`], and the global stages
//! run unchanged on the coordinator, the output is **bit-for-bit
//! identical** to the serial pipeline at any shard count and under any
//! reply arrival order. The `xtask` shard-schedule model checker drives
//! the *same* stage code under every worker/coordinator interleaving to
//! check that claim.
//!
//! There is no threaded backend: the global stages around the vote
//! barrier are most of the detector's time, so shards on worker threads
//! ran slower than the serial pipeline at every measured size.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

use sentinet_cluster::ModelStates;
use sentinet_core::{
    majority_vote, GlobalModel, ObservationWindow, PipelineConfig, SensorRuntime, WindowOutcome,
    WindowScratch, Windower,
};
use sentinet_sim::{SensorId, Trace};
use std::collections::BTreeMap;

pub mod protocol {
    //! The shard/coordinator message protocol.
    //!
    //! One [`ShardWorker`] per shard owns the [`SensorRuntime`]s of
    //! that shard. The coordinator sends [`Job`]s, the worker answers
    //! with [`Reply`]s, and the coordinator folds arrival-ordered
    //! replies back into the serial pipeline's shapes via
    //! [`collect_labels`] / [`collect_steps`].
    //!
    //! Everything here is deterministic given a delivery order, which
    //! is exactly what the `xtask` model checker exploits: it replays
    //! the protocol under every worker/coordinator schedule and asserts
    //! the fold is order-insensitive.

    use super::*;
    use sentinet_core::{CheckpointError, SensorSnapshot};

    /// Work dispatched from the coordinator to one shard.
    #[derive(Debug, Clone)]
    pub enum Job {
        /// Label each representative against a model-state snapshot.
        Label {
            /// Snapshot of the coordinator's model states.
            states: ModelStates,
            /// This shard's `(sensor, window-mean)` representatives.
            means: Vec<(SensorId, Vec<f64>)>,
        },
        /// Run the per-sensor step of a decisive window.
        Step {
            /// Index of the window being stepped.
            window_index: u64,
            /// The majority-elected correct state `c_i`.
            correct: usize,
            /// Model-state slot count (sizes new estimators).
            num_slots: usize,
            /// This shard's `(sensor, label)` pairs.
            labels: Vec<(SensorId, usize)>,
        },
        /// Grow every sensor estimator to the new slot count.
        Grow {
            /// New model-state slot count.
            num_slots: usize,
        },
    }

    /// A shard's answer to a [`Job`].
    #[derive(Debug)]
    pub enum Reply {
        /// Labels for a [`Job::Label`]; `None` marks a sensor outside
        /// every active model state.
        Labels(Vec<(SensorId, Option<usize>)>),
        /// Alarm lists for a [`Job::Step`], in the shard's ascending
        /// sensor order.
        Stepped {
            /// Sensors whose label disagreed with the correct state.
            raw: Vec<SensorId>,
            /// Sensors whose filtered alarm is raised after this window.
            filtered: Vec<SensorId>,
        },
    }

    /// The shard that owns sensor `id` under `num_shards` shards.
    pub fn shard_of(id: SensorId, num_shards: usize) -> usize {
        id.0 as usize % num_shards
    }

    /// The per-sensor half of the split: executes [`Job`]s against the
    /// shard's own [`SensorRuntime`]s. Used verbatim by the `xtask`
    /// schedule explorer and the test suites' in-process shards.
    #[derive(Debug)]
    pub struct ShardWorker {
        config: PipelineConfig,
        sensors: BTreeMap<SensorId, SensorRuntime>,
    }

    impl ShardWorker {
        /// Creates a worker with no sensors yet (they appear on their
        /// first [`Job::Step`]).
        pub fn new(config: PipelineConfig) -> Self {
            Self {
                config,
                sensors: BTreeMap::new(),
            }
        }

        /// Rebuilds a worker from checkpointed sensor state, as taken
        /// by [`ShardWorker::snapshot`].
        ///
        /// # Errors
        ///
        /// [`CheckpointError`] if any snapshot is internally
        /// inconsistent (see
        /// [`SensorRuntime::from_snapshot`](sentinet_core::SensorRuntime::from_snapshot)).
        pub fn from_snapshot(
            config: PipelineConfig,
            snapshots: Vec<(SensorId, SensorSnapshot)>,
        ) -> Result<Self, CheckpointError> {
            let mut sensors = BTreeMap::new();
            for (id, snap) in snapshots {
                sensors.insert(id, SensorRuntime::from_snapshot(snap)?);
            }
            Ok(Self { config, sensors })
        }

        /// Checkpoints every sensor the shard owns, in ascending
        /// sensor order.
        pub fn snapshot(&self) -> Vec<(SensorId, SensorSnapshot)> {
            self.sensors
                .iter()
                .map(|(&id, rt)| (id, rt.snapshot()))
                .collect()
        }

        /// Executes one job. [`Job::Grow`] has no reply; every other
        /// job answers with exactly one [`Reply`].
        pub fn handle(&mut self, job: Job) -> Option<Reply> {
            match job {
                Job::Label { states, means } => {
                    let labels = means
                        .iter()
                        .map(|(id, mean)| (*id, states.nearest(mean).map(|(s, _)| s)))
                        .collect();
                    Some(Reply::Labels(labels))
                }
                Job::Step {
                    window_index,
                    correct,
                    num_slots,
                    labels,
                } => {
                    let mut raw = Vec::new();
                    let mut filtered = Vec::new();
                    for (id, label) in labels {
                        let sensor = self
                            .sensors
                            .entry(id)
                            .or_insert_with(|| SensorRuntime::new(&self.config, num_slots));
                        let step = sensor.step(window_index, label, correct);
                        if step.raw {
                            raw.push(id);
                        }
                        if step.filtered {
                            filtered.push(id);
                        }
                    }
                    Some(Reply::Stepped { raw, filtered })
                }
                Job::Grow { num_slots } => {
                    for s in self.sensors.values_mut() {
                        s.grow(num_slots);
                    }
                    None
                }
            }
        }

        /// The shard's sensors (for post-run inspection).
        pub fn sensors(&self) -> &BTreeMap<SensorId, SensorRuntime> {
            &self.sensors
        }

        /// Consumes the worker, returning its sensors.
        pub fn into_sensors(self) -> BTreeMap<SensorId, SensorRuntime> {
            self.sensors
        }
    }

    /// Folds label replies (in arrival order) into the serial
    /// pipeline's label map. Returns `None` if any sensor fell outside
    /// every active model state — the serial pipeline then drops the
    /// whole window, so the coordinator must too — or if a reply is
    /// not a [`Reply::Labels`] (protocol corruption; unreachable with
    /// [`ShardWorker`] replies).
    ///
    /// The fold is insensitive to arrival order: labels land in a
    /// [`BTreeMap`] keyed by sensor. The model checker asserts this
    /// under every schedule.
    pub fn collect_labels(replies: Vec<Reply>) -> Option<BTreeMap<SensorId, usize>> {
        let mut labels = BTreeMap::new();
        for reply in replies {
            let Reply::Labels(batch) = reply else {
                debug_assert!(false, "label barrier answered with a non-label reply");
                return None;
            };
            for (id, label) in batch {
                labels.insert(id, label?);
            }
        }
        Some(labels)
    }

    /// Folds step replies (in arrival order) into ascending-sensor
    /// alarm lists — the serial pipeline's iteration order. The final
    /// sort is what makes the fold arrival-order-insensitive; replies
    /// that are not [`Reply::Stepped`] are ignored (protocol
    /// corruption; unreachable with [`ShardWorker`] replies).
    pub fn collect_steps(replies: Vec<Reply>) -> (Vec<SensorId>, Vec<SensorId>) {
        let mut raw_alarms = Vec::new();
        let mut filtered_alarms = Vec::new();
        for reply in replies {
            let Reply::Stepped { raw, filtered } = reply else {
                debug_assert!(false, "step barrier answered with a non-step reply");
                continue;
            };
            raw_alarms.extend(raw);
            filtered_alarms.extend(filtered);
        }
        raw_alarms.sort_unstable();
        filtered_alarms.sort_unstable();
        (raw_alarms, filtered_alarms)
    }
}

/// How the coordinator executes per-sensor work. [`drive_trace`] and
/// [`window_pass`] are generic over it, so every backend — the `xtask`
/// schedule explorer, the test suites' in-process shards — runs the
/// same coordinator code.
pub trait ShardBackend {
    /// Labels every representative; `None` if any sensor falls outside
    /// all active model states (the serial pipeline then drops the
    /// whole window, so the coordinator must too).
    fn label(
        &mut self,
        states: &ModelStates,
        representatives: &BTreeMap<SensorId, Vec<f64>>,
    ) -> Option<BTreeMap<SensorId, usize>>;

    /// Runs the per-sensor step of a decisive window; returns the raw
    /// and filtered alarm lists in ascending sensor order (the serial
    /// pipeline's iteration order).
    fn step(
        &mut self,
        window_index: u64,
        correct: usize,
        num_slots: usize,
        labels: &BTreeMap<SensorId, usize>,
    ) -> (Vec<SensorId>, Vec<SensorId>);

    /// Resizes every shard's estimators after model-state growth.
    fn grow(&mut self, num_slots: usize);
}

/// The coordinator loop: windowing plus the global stages, with
/// per-sensor stages delegated to `backend`. Over the same trace it
/// yields exactly the serial pipeline's window outcomes.
pub fn drive_trace(
    config: &PipelineConfig,
    sample_period: u64,
    trace: &Trace,
    backend: &mut impl ShardBackend,
) -> (GlobalModel, Vec<WindowOutcome>) {
    let mut global = GlobalModel::new(config.clone());
    let mut windower = Windower::new(config.window_samples as u64 * sample_period);
    let mut scratch = WindowScratch::new();
    let mut outcomes = Vec::new();
    for (time, sensor, reading) in trace.delivered() {
        for window in windower.push(time, sensor, reading.values()) {
            if let Some(o) = window_pass(&mut global, backend, &mut scratch, &window) {
                outcomes.push(o);
            }
            windower.recycle(window);
        }
    }
    if let Some(window) = windower.finish() {
        if let Some(o) = window_pass(&mut global, backend, &mut scratch, &window) {
            outcomes.push(o);
        }
    }
    (global, outcomes)
}

/// One window through the same stage order as the serial pipeline's
/// `analyze_window`: bootstrap absorption, observable-state coverage,
/// the sharded label stage, the majority-vote barrier, the sharded
/// step stage, and model-state maintenance. `None` means the window
/// was dropped (bootstrap, indecisive vote, uncovered mean) — exactly
/// when the serial pipeline drops it.
pub fn window_pass(
    global: &mut GlobalModel,
    backend: &mut impl ShardBackend,
    scratch: &mut WindowScratch,
    window: &ObservationWindow,
) -> Option<WindowOutcome> {
    if !global.absorb_bootstrap(window) {
        return None;
    }
    let trim = global.config().observable_trim;
    let majority_fraction = global.config().majority_fraction;
    let mean = window.trimmed_mean_with(trim, scratch);
    if global.cover_window_mean(mean) {
        backend.grow(global.num_slots());
    }
    let mean = mean?;

    let representatives = window.sensor_means();
    let (observable, labels) = {
        let states = global.states()?;
        let (observable, _) = states.nearest(mean)?;
        (observable, backend.label(states, &representatives)?)
    };
    let (correct, decisive) = majority_vote(&labels, majority_fraction)?;

    if decisive {
        global.record_decisive(correct, observable);
    }

    let window_index = global.windows_processed();
    let num_slots = global.num_slots();
    let (raw_alarms, filtered_alarms) = if decisive {
        backend.step(window_index, correct, num_slots, &labels)
    } else {
        (Vec::new(), Vec::new())
    };

    let points: Vec<Vec<f64>> = representatives.into_values().collect();
    let (cluster_events, grew) = global.finish_window(&points);
    if grew {
        backend.grow(global.num_slots());
    }

    Some(WindowOutcome {
        index: window_index,
        start: window.start,
        observable,
        correct,
        raw_alarms,
        filtered_alarms,
        cluster_events,
    })
}

#[cfg(test)]
mod tests {
    use super::protocol::{collect_labels, collect_steps, shard_of, Job, Reply, ShardWorker};
    use sentinet_cluster::{ClusterConfig, ModelStates};
    use sentinet_core::PipelineConfig;
    use sentinet_sim::SensorId;

    fn ids(raw: &[u16]) -> Vec<SensorId> {
        raw.iter().copied().map(SensorId).collect()
    }

    fn step(labels: &[(u16, usize)], correct: usize) -> Job {
        Job::Step {
            window_index: 0,
            correct,
            num_slots: 2,
            labels: labels.iter().map(|&(id, l)| (SensorId(id), l)).collect(),
        }
    }

    #[test]
    fn shard_of_assigns_sensors_round_robin() {
        for n in 1..=5 {
            for id in 0..20u16 {
                let shard = shard_of(SensorId(id), n);
                assert!(shard < n);
                assert_eq!(shard, id as usize % n);
            }
        }
    }

    #[test]
    fn label_job_answers_the_nearest_state_per_mean() {
        let states = ModelStates::new(
            vec![vec![12.0, 94.0], vec![31.0, 56.0]],
            ClusterConfig::default(),
        );
        let mut worker = ShardWorker::new(PipelineConfig::default());
        let reply = worker.handle(Job::Label {
            states,
            means: vec![
                (SensorId(4), vec![30.0, 57.0]),
                (SensorId(1), vec![13.0, 93.0]),
            ],
        });
        let Some(Reply::Labels(labels)) = reply else {
            panic!("label job must answer with labels: {reply:?}");
        };
        assert_eq!(labels, vec![(SensorId(4), Some(1)), (SensorId(1), Some(0))]);
        assert!(worker.sensors().is_empty(), "labelling creates no sensors");
    }

    #[test]
    fn step_job_creates_sensors_and_raises_raw_alarms_on_disagreement() {
        let mut worker = ShardWorker::new(PipelineConfig::default());
        let reply = worker.handle(step(&[(2, 0), (5, 1), (8, 0)], 0));
        let Some(Reply::Stepped { raw, .. }) = reply else {
            panic!("step job must answer with alarms: {reply:?}");
        };
        assert_eq!(raw, ids(&[5]));
        assert_eq!(
            worker.sensors().keys().copied().collect::<Vec<_>>(),
            ids(&[2, 5, 8])
        );
        assert_eq!(worker.sensors()[&SensorId(5)].raw_history(), &[(0, true)]);
        assert_eq!(worker.sensors()[&SensorId(2)].raw_history(), &[(0, false)]);
    }

    #[test]
    fn grow_job_has_no_reply_and_resizes_every_estimator() {
        let mut worker = ShardWorker::new(PipelineConfig::default());
        worker.handle(step(&[(0, 0), (3, 1)], 0));
        assert!(worker.handle(Job::Grow { num_slots: 4 }).is_none());
        for (id, rt) in worker.sensors() {
            assert_eq!(rt.m_ce().num_states(), 4, "{id}");
        }
    }

    #[test]
    fn snapshot_round_trip_rebuilds_the_same_worker() {
        let config = PipelineConfig::default();
        let mut worker = ShardWorker::new(config.clone());
        for w in 0..6 {
            worker.handle(Job::Step {
                window_index: w,
                correct: 0,
                num_slots: 2,
                labels: vec![(SensorId(1), 0), (SensorId(7), 1)],
            });
        }
        let snap = worker.snapshot();
        assert_eq!(
            snap.iter().map(|(id, _)| *id).collect::<Vec<_>>(),
            ids(&[1, 7])
        );
        let restored = ShardWorker::from_snapshot(config, snap.clone()).expect("valid snapshot");
        assert_eq!(restored.snapshot(), snap);
        assert!(ShardWorker::new(PipelineConfig::default())
            .snapshot()
            .is_empty());
    }

    #[test]
    fn collect_labels_is_insensitive_to_arrival_order() {
        let replies = || {
            vec![
                Reply::Labels(vec![(SensorId(0), Some(1)), (SensorId(2), Some(0))]),
                Reply::Labels(vec![(SensorId(1), Some(1))]),
                Reply::Labels(vec![]),
            ]
        };
        let forward = collect_labels(replies()).expect("every sensor covered");
        let mut reversed = replies();
        reversed.reverse();
        assert_eq!(collect_labels(reversed), Some(forward.clone()));
        assert_eq!(
            forward.into_iter().collect::<Vec<_>>(),
            vec![(SensorId(0), 1), (SensorId(1), 1), (SensorId(2), 0)]
        );
    }

    #[test]
    fn collect_labels_drops_the_window_when_any_sensor_is_uncovered() {
        let replies = vec![
            Reply::Labels(vec![(SensorId(0), Some(1))]),
            Reply::Labels(vec![(SensorId(1), None), (SensorId(3), Some(0))]),
        ];
        assert_eq!(collect_labels(replies), None);
    }

    #[test]
    fn collect_steps_merges_shards_into_ascending_sensor_order() {
        let replies = vec![
            Reply::Stepped {
                raw: ids(&[3, 9]),
                filtered: ids(&[9]),
            },
            Reply::Stepped {
                raw: ids(&[0, 4]),
                filtered: ids(&[]),
            },
            Reply::Stepped {
                raw: ids(&[]),
                filtered: ids(&[2]),
            },
        ];
        let (raw, filtered) = collect_steps(replies);
        assert_eq!(raw, ids(&[0, 3, 4, 9]));
        assert_eq!(filtered, ids(&[2, 9]));
        assert_eq!(collect_steps(Vec::new()), (Vec::new(), Vec::new()));
    }
}

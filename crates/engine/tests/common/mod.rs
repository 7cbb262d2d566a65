//! A test-local shard backend: `N` in-process [`ShardWorker`]s, with
//! sensors split by [`shard_of`], driven through the real coordinator
//! loop. Replies are folded in shard order by the same
//! `collect_labels` / `collect_steps` a distributed backend uses.
//! With `reverse_replies` set, replies arrive in descending shard
//! order instead.

use sentinet_cluster::ModelStates;
use sentinet_core::{PipelineConfig, SensorRuntime};
use sentinet_engine::protocol::{collect_labels, collect_steps, shard_of, Job, ShardWorker};
use sentinet_engine::ShardBackend;
use sentinet_sim::SensorId;
use std::collections::BTreeMap;

pub struct LocalShards {
    pub workers: Vec<ShardWorker>,
    pub reverse_replies: bool,
}

impl LocalShards {
    pub fn new(config: &PipelineConfig, num_shards: usize) -> Self {
        Self {
            workers: (0..num_shards)
                .map(|_| ShardWorker::new(config.clone()))
                .collect(),
            reverse_replies: false,
        }
    }

    /// Every shard's sensors, merged into one map.
    pub fn into_sensors(self) -> BTreeMap<SensorId, SensorRuntime> {
        self.workers
            .into_iter()
            .flat_map(ShardWorker::into_sensors)
            .collect()
    }

    /// Splits `(sensor, item)` pairs into per-shard batches.
    fn split<T>(&self, items: impl IntoIterator<Item = (SensorId, T)>) -> Vec<Vec<(SensorId, T)>> {
        let n = self.workers.len();
        let mut batches: Vec<Vec<(SensorId, T)>> = (0..n).map(|_| Vec::new()).collect();
        for (id, item) in items {
            batches[shard_of(id, n)].push((id, item));
        }
        batches
    }

    /// Puts replies gathered in shard order into arrival order.
    fn arrive<T>(&self, mut replies: Vec<T>) -> Vec<T> {
        if self.reverse_replies {
            replies.reverse();
        }
        replies
    }
}

impl ShardBackend for LocalShards {
    fn label(
        &mut self,
        states: &ModelStates,
        representatives: &BTreeMap<SensorId, Vec<f64>>,
    ) -> Option<BTreeMap<SensorId, usize>> {
        let batches = self.split(representatives.iter().map(|(&id, m)| (id, m.clone())));
        let replies = self
            .workers
            .iter_mut()
            .zip(batches)
            .map(|(w, means)| {
                w.handle(Job::Label {
                    states: states.clone(),
                    means,
                })
                .expect("label replies")
            })
            .collect();
        collect_labels(self.arrive(replies))
    }

    fn step(
        &mut self,
        window_index: u64,
        correct: usize,
        num_slots: usize,
        labels: &BTreeMap<SensorId, usize>,
    ) -> (Vec<SensorId>, Vec<SensorId>) {
        let batches = self.split(labels.iter().map(|(&id, &l)| (id, l)));
        let replies = self
            .workers
            .iter_mut()
            .zip(batches)
            .map(|(w, labels)| {
                w.handle(Job::Step {
                    window_index,
                    correct,
                    num_slots,
                    labels,
                })
                .expect("step replies")
            })
            .collect();
        collect_steps(self.arrive(replies))
    }

    fn grow(&mut self, num_slots: usize) {
        for w in &mut self.workers {
            assert!(w.handle(Job::Grow { num_slots }).is_none());
        }
    }
}

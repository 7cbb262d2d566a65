//! In-process backend: each partition owner is a [`Collector`] in
//! this process, one WAL directory per partition under a common
//! root. This is the deterministic drill harness — no sockets, no
//! wall-clock timeouts — and the reference implementation of the
//! handoff contract: adoption is nothing but `Collector::open` on the
//! dead owner's WAL directory (checkpoint-v2 snapshot restore plus
//! WAL-tail replay through the identical admission path).
//!
//! The nemesis campaign drives this backend through all three fault
//! families: process faults ([`CollectorFault`]), network shaping
//! ([`crate::chaos::NetFault`] windows on epoch-1 links), and disk
//! faults (a gateway `FaultPlan` wrapped around an owner's storage).
//! Two extra seams exist purely for the campaign's invariants:
//!
//! - **Zombie stash**: `fence` normally drops the link (a crash), but
//!   with the stash enabled a still-live collector is parked instead,
//!   tagged with the epoch it owned. After the run the campaign pokes
//!   each zombie with a fresh append — epoch fencing must reject it,
//!   or the fleet split-brained.
//! - **Pipelined mode**: links buffer readings and flush them as
//!   coalesced `deliver_batch` calls with an explicit `sync_wal`,
//!   mirroring the wire protocol's credit-window shape; the default
//!   per-reading mode is the reference it is checked against, so one
//!   campaign covers both delivery disciplines.

use crate::chaos::{CollectorFault, DrillPlan, NetFault};
use crate::federation::{
    replay_report, BackendError, LinkDown, LinkReply, PartitionBackend, PartitionLink,
};
use crate::partition::PartitionId;
use sentinet_gateway::{
    decode_collector, encode_collector, Collector, CutCheck, DeliverOutcome, FaultPlan, FaultyVfs,
    FenceCheck, GatewayConfig, RecoveryInfo, StorageFault, StorageFaultSpec, Vfs, VfsOp,
    CHECKPOINT_FILE,
};
use sentinet_sim::{SensorId, Timestamp};
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

/// A fenced-but-alive collector, parked by the zombie stash: the
/// in-process stand-in for a partitioned old owner that never heard it
/// was deposed. The nemesis campaign delivers a fresh reading through
/// it after the run; epoch fencing must NACK the append.
pub struct Zombie {
    /// The partition it used to own.
    pub partition: PartitionId,
    /// The epoch it owned the partition at.
    pub epoch: u64,
    /// The still-live collector, WAL handles and all.
    pub collector: Collector,
}

/// Backend running every partition owner as an in-process
/// [`Collector`].
pub struct InProcessBackend {
    template: GatewayConfig,
    wal_root: PathBuf,
    standbys: usize,
    drill: DrillPlan,
    fired: Vec<bool>,
    /// Per-partition disk fault plans, applied to the epoch-1 owner.
    disk: Vec<(PartitionId, FaultPlan)>,
    disk_fired: Vec<bool>,
    fence: FenceCheck,
    cut: CutCheck,
    pipelined: bool,
    zombies: Option<Arc<Mutex<Vec<Zombie>>>>,
    /// Checkpoint images staged by heartbeat-driven `prewarm` calls.
    prewarm_cache: Vec<Option<Vec<u8>>>,
    recoveries: Vec<Option<RecoveryInfo>>,
}

impl InProcessBackend {
    /// A backend over `partitions` WAL directories
    /// (`wal_root/p{N}`), cloned from `template` (its `wal.dir` is
    /// ignored). `standbys` bounds how many adoptions (epoch > 1
    /// starts) can ever succeed; `drill` breaks epoch-1 owners at the
    /// planned coordinates.
    pub fn new(
        template: GatewayConfig,
        wal_root: impl Into<PathBuf>,
        partitions: usize,
        standbys: usize,
        drill: DrillPlan,
    ) -> Self {
        let fired = vec![false; drill.faults.len()];
        Self {
            template,
            wal_root: wal_root.into(),
            standbys,
            drill,
            fired,
            disk: Vec::new(),
            disk_fired: Vec::new(),
            fence: FenceCheck::Enforced,
            cut: CutCheck::Enforced,
            pipelined: false,
            zombies: None,
            prewarm_cache: (0..partitions).map(|_| None).collect(),
            recoveries: (0..partitions).map(|_| None).collect(),
        }
    }

    /// Sets the deliver-path fence-check mode stamped into every
    /// owner's config. [`FenceCheck::Skip`] is the mutation seam: the
    /// nemesis self-test flips it to prove the campaign catches the
    /// split-brain fencing prevents.
    #[must_use]
    pub fn with_fence(mut self, fence: FenceCheck) -> Self {
        self.fence = fence;
        self
    }

    /// Sets the migration-cut mode stamped into every owner's
    /// config. [`CutCheck::Skip`] is the mutation seam: the nemesis
    /// self-test flips it to prove the migration campaign catches a
    /// cut that ships an empty snapshot (acked readings vanishing in
    /// the handoff).
    #[must_use]
    pub fn with_cut(mut self, cut: CutCheck) -> Self {
        self.cut = cut;
        self
    }

    /// Switches links to the pipelined mode: readings buffer on the
    /// link and flush as coalesced batches, mirroring the wire protocol.
    #[must_use]
    pub fn with_pipelined(mut self, pipelined: bool) -> Self {
        self.pipelined = pipelined;
        self
    }

    /// Wraps the epoch-1 owner of `p` in a [`FaultyVfs`] running
    /// `plan` — the disk-fault family of a nemesis episode.
    #[must_use]
    pub fn with_disk_fault(mut self, p: PartitionId, plan: FaultPlan) -> Self {
        self.disk.push((p, plan));
        self.disk_fired.push(false);
        self
    }

    /// Enables the zombie stash and returns its shared handle. The
    /// handle outlives the backend (which `Federation::finish`
    /// consumes), so the campaign can probe stashed collectors after
    /// the run.
    pub fn zombie_stash(&mut self) -> Arc<Mutex<Vec<Zombie>>> {
        self.zombies.get_or_insert_with(Arc::default).clone()
    }

    /// The [`RecoveryInfo`] of the most recent `start` for `p` —
    /// drills assert an adoption actually restored from a checkpoint
    /// snapshot (and, with heartbeats on, that it adopted pre-warmed).
    pub fn recovery(&self, p: PartitionId) -> Option<&RecoveryInfo> {
        self.recoveries.get(p).and_then(Option::as_ref)
    }

    fn partition_dir(&self, p: PartitionId) -> PathBuf {
        self.wal_root.join(format!("p{p}"))
    }
}

/// One armed network-shaping window on an epoch-1 link.
struct ArmedNet {
    after: u64,
    remaining: u64,
    fault: NetFault,
}

/// Link to an in-process collector, with the drill's kill/hang
/// coordinate and any network-shaping windows armed.
pub struct InProcessLink {
    collector: Option<Collector>,
    epoch: u64,
    armed: Option<(u64, CollectorFault)>,
    net: Vec<ArmedNet>,
    /// Readings admitted (durable) through this link.
    delivered: u64,
    /// Readings handled (attempted) — the net-window clock.
    handled: u64,
    /// A drilled `Hang` fired: the collector holds its resources but
    /// answers nothing until fenced.
    wedged: bool,
    pipelined: bool,
    /// The pipelined window: readings accepted but not yet durable.
    window: Vec<(SensorId, u64, Timestamp, Vec<f64>)>,
    /// The most recent reading, for `NetFault::Delay` retransmits.
    last: Option<(SensorId, u64, Timestamp, Vec<f64>)>,
    /// An ack-path fault deferred to the next flush (pipelined mode
    /// has no per-reading ack to lose or duplicate).
    flush_fault: Option<NetFault>,
}

impl InProcessLink {
    /// Delivers one reading straight through the collector (the
    /// per-reading reference shape).
    fn deliver_one(
        &mut self,
        sensor: SensorId,
        seq: u64,
        time: Timestamp,
        values: &[f64],
    ) -> Result<LinkReply, LinkDown> {
        let Some(collector) = self.collector.as_mut() else {
            return Err(LinkDown("collector process is gone".into()));
        };
        match collector.deliver(sensor, seq, time, values.to_vec()) {
            Ok(DeliverOutcome::Accepted) | Ok(DeliverOutcome::Duplicate) => {
                self.delivered += 1;
                Ok(LinkReply::Acked)
            }
            Ok(DeliverOutcome::Rejected(_)) => Ok(LinkReply::Nacked),
            Err(e) => Err(LinkDown(e.to_string())),
        }
    }

    /// Fires a pending drilled kill/hang once its admitted-records
    /// coordinate has been reached. Sends and migration steps share
    /// this check, so a fault armed between two sends lands on
    /// whichever protocol step runs next — including a cut or adopt.
    fn fire_armed(&mut self) -> Result<(), LinkDown> {
        if let Some((at, fault)) = self.armed {
            if self.delivered >= at {
                self.armed = None;
                match fault {
                    // Process death: in-memory state gone, WAL stays.
                    CollectorFault::Kill => self.collector = None,
                    // Wedged: alive but mute until fenced.
                    CollectorFault::Hang => self.wedged = true,
                    CollectorFault::Poison => {}
                }
                return Err(LinkDown(format!(
                    "drill {fault:?} after {at} admitted reading(s)"
                )));
            }
        }
        Ok(())
    }

    /// The net fault shaping this send, if any window is open. Each
    /// shaped send consumes one unit of its window's span.
    fn shaping(&mut self) -> Option<NetFault> {
        let handled = self.handled;
        self.net.iter_mut().find_map(|d| {
            if handled >= d.after && d.remaining > 0 {
                d.remaining -= 1;
                Some(d.fault)
            } else {
                None
            }
        })
    }
}

impl PartitionLink for InProcessLink {
    fn send(
        &mut self,
        sensor: SensorId,
        seq: u64,
        time: Timestamp,
        values: &[f64],
    ) -> Result<LinkReply, LinkDown> {
        self.fire_armed()?;
        if self.wedged {
            return Err(LinkDown("collector is wedged".into()));
        }
        let shaped = self.shaping();
        self.handled += 1;
        if shaped == Some(NetFault::Partition) {
            // The send is lost in the network; the collector itself
            // stays alive — the canonical zombie-writer setup.
            return Err(LinkDown("net partition: send lost".into()));
        }
        if self.collector.is_none() {
            return Err(LinkDown("collector process is gone".into()));
        }
        if self.pipelined {
            match shaped {
                // No per-reading ack exists to lose or duplicate in
                // the credit-window mode; the fault shapes the next
                // cumulative ack instead.
                Some(f @ (NetFault::AckLoss | NetFault::Duplicate)) => {
                    self.flush_fault = Some(f);
                }
                Some(NetFault::Delay) => {
                    // A stale retransmit of the previous reading lands
                    // in the window ahead of the current one.
                    if let Some(stale) = self.last.clone() {
                        self.window.push(stale);
                    }
                }
                _ => {}
            }
            let r = (sensor, seq, time, values.to_vec());
            self.last = Some(r.clone());
            self.window.push(r);
            return Ok(LinkReply::Pipelined);
        }
        if shaped == Some(NetFault::Delay) {
            // Stale retransmit first; dedup absorbs it.
            if let Some((s, q, t, v)) = self.last.clone() {
                let _ = self.deliver_one(s, q, t, &v)?;
            }
        }
        let reply = self.deliver_one(sensor, seq, time, values)?;
        if reply == LinkReply::Acked {
            self.last = Some((sensor, seq, time, values.to_vec()));
            match shaped {
                Some(NetFault::Duplicate) => {
                    // The same frame arrives twice; the second copy
                    // must dedup.
                    let _ = self.deliver_one(sensor, seq, time, values)?;
                }
                Some(NetFault::AckLoss) => {
                    // Durably admitted, but the ack never comes back:
                    // the controller must assume loss and redeliver.
                    return Err(LinkDown("ack lost after durable admit".into()));
                }
                _ => {}
            }
        }
        Ok(reply)
    }

    fn flush(&mut self) -> Result<(), LinkDown> {
        if !self.pipelined {
            return Ok(());
        }
        if self.wedged {
            return Err(LinkDown("collector is wedged".into()));
        }
        let fault = self.flush_fault.take();
        if self.window.is_empty() {
            return Ok(());
        }
        let window = std::mem::take(&mut self.window);
        let Some(collector) = self.collector.as_mut() else {
            return Err(LinkDown("collector process is gone".into()));
        };
        let passes = if fault == Some(NetFault::Duplicate) {
            2
        } else {
            1
        };
        for _ in 0..passes {
            // Coalesce consecutive same-sensor sequence runs into
            // batch deliveries — the shape a credit window drains in.
            let mut i = 0;
            while i < window.len() {
                let sensor = window[i].0;
                let first_seq = window[i].1;
                let mut j = i + 1;
                while j < window.len()
                    && window[j].0 == sensor
                    && window[j].1 == first_seq + (j - i) as u64
                {
                    j += 1;
                }
                let readings: Vec<(Timestamp, Vec<f64>)> =
                    window[i..j].iter().map(|r| (r.2, r.3.clone())).collect();
                let out = collector
                    .deliver_batch(sensor, first_seq, &readings)
                    .map_err(|e| LinkDown(e.to_string()))?;
                if let Some((seq, cause)) = out.nack {
                    return Err(LinkDown(format!(
                        "batch NACK at sensor {sensor} seq {seq}: {cause:?}"
                    )));
                }
                i = j;
            }
        }
        collector.sync_wal().map_err(|e| LinkDown(e.to_string()))?;
        self.delivered += window.len() as u64;
        if fault == Some(NetFault::AckLoss) {
            // Everything above is durable, but the cumulative AckUpTo
            // was lost in flight; the controller must treat the whole
            // window as unacked.
            return Err(LinkDown("cumulative ack lost after durable flush".into()));
        }
        Ok(())
    }

    fn heartbeat(&mut self) -> Option<(u64, u64)> {
        if self.wedged {
            return None;
        }
        self.collector
            .as_ref()
            .map(|c| (c.epoch(), c.checkpoint_cursor()))
    }

    fn migrate_cut(&mut self, start: u16, end: u16) -> Result<(u64, Vec<u8>), LinkDown> {
        // Drills and shaping windows apply to migration steps exactly
        // as to sends: a kill armed between two sends lands here, a
        // partition window swallows the offer before the cut runs —
        // request lost, never half-cut.
        self.fire_armed()?;
        if self.wedged {
            return Err(LinkDown("collector is wedged".into()));
        }
        let shaped = self.shaping();
        self.handled += 1;
        if shaped == Some(NetFault::Partition) {
            return Err(LinkDown("net partition: migrate offer lost".into()));
        }
        let Some(collector) = self.collector.as_mut() else {
            return Err(LinkDown("collector process is gone".into()));
        };
        match collector.export_range(start..end) {
            Ok((inside, cursor)) => Ok((cursor, encode_collector(&inside).into_bytes())),
            Err(e) => Err(LinkDown(e.to_string())),
        }
    }

    fn migrate_adopt(
        &mut self,
        start: u16,
        end: u16,
        cursor: u64,
        snapshot: &[u8],
    ) -> Result<(), LinkDown> {
        self.fire_armed()?;
        if self.wedged {
            return Err(LinkDown("collector is wedged".into()));
        }
        let shaped = self.shaping();
        self.handled += 1;
        if shaped == Some(NetFault::Partition) {
            return Err(LinkDown("net partition: migrate accept lost".into()));
        }
        let Some(collector) = self.collector.as_mut() else {
            return Err(LinkDown("collector process is gone".into()));
        };
        let text = String::from_utf8(snapshot.to_vec()).map_err(|e| LinkDown(e.to_string()))?;
        let snap = decode_collector(&text).map_err(|e| LinkDown(e.to_string()))?;
        collector
            .adopt_range(start..end, cursor, &snap)
            .map_err(|e| LinkDown(e.to_string()))
    }

    fn migrate_done(&mut self, start: u16, end: u16, _cursor: u64) -> Result<(), LinkDown> {
        if self.wedged {
            return Err(LinkDown("collector is wedged".into()));
        }
        let shaped = self.shaping();
        self.handled += 1;
        if shaped == Some(NetFault::Partition) {
            return Err(LinkDown("net partition: migrate done lost".into()));
        }
        let Some(collector) = self.collector.as_ref() else {
            return Err(LinkDown("collector process is gone".into()));
        };
        collector.clear_outbox(start..end);
        Ok(())
    }
}

impl PartitionBackend for InProcessBackend {
    type Link = InProcessLink;

    fn start(&mut self, p: PartitionId, epoch: u64) -> Result<InProcessLink, BackendError> {
        if epoch > 1 {
            if self.standbys == 0 {
                return Err(BackendError(format!(
                    "no standby available to adopt partition {p}"
                )));
            }
            self.standbys -= 1;
        }
        // Migration-created partitions arrive with ids past the
        // initial layout; grow the per-partition caches to match.
        while self.prewarm_cache.len() <= p {
            self.prewarm_cache.push(None);
            self.recoveries.push(None);
        }
        let mut config = self.template.clone();
        config.wal.dir = self.partition_dir(p);
        config.wal.vfs = Arc::new(sentinet_gateway::RealVfs);
        config.epoch = epoch;
        config.fence = self.fence;
        config.cut = self.cut;
        let mut armed = None;
        let mut net = Vec::new();
        if epoch == 1 {
            for (i, f) in self.drill.faults.iter().enumerate() {
                if f.partition != p || self.fired[i] {
                    continue;
                }
                self.fired[i] = true;
                match f.fault {
                    CollectorFault::Poison => {
                        // ENOSPC on the (after_records + 1)th WAL
                        // append: the collector fail-stops and NACKs.
                        let plan = FaultPlan::new().with_fault(StorageFaultSpec {
                            path: String::new(),
                            op: VfsOp::Append,
                            nth: f.after_records + 1,
                            kind: StorageFault::Enospc,
                            count: 1,
                        });
                        config.wal.vfs = Arc::new(FaultyVfs::new(plan));
                    }
                    CollectorFault::Kill | CollectorFault::Hang => {
                        armed = Some((f.after_records, f.fault));
                    }
                }
                break;
            }
            for d in self.drill.net.iter().filter(|d| d.partition == p) {
                net.push(ArmedNet {
                    after: d.after_records,
                    remaining: d.span.max(1),
                    fault: d.fault,
                });
            }
            for (i, (dp, plan)) in self.disk.iter().enumerate() {
                if *dp == p && !self.disk_fired[i] {
                    self.disk_fired[i] = true;
                    config.wal.vfs = Arc::new(FaultyVfs::new(plan.clone()));
                    break;
                }
            }
        }
        let prewarm = if epoch > 1 {
            self.prewarm_cache[p].clone()
        } else {
            None
        };
        let (collector, info) = Collector::open_prewarmed(config, prewarm.as_deref())
            .map_err(|e| BackendError(e.to_string()))?;
        self.recoveries[p] = Some(info);
        Ok(InProcessLink {
            collector: Some(collector),
            epoch,
            armed,
            net,
            delivered: 0,
            handled: 0,
            wedged: false,
            pipelined: self.pipelined,
            window: Vec::new(),
            last: None,
            flush_fault: None,
        })
    }

    fn fence(&mut self, p: PartitionId, link: InProcessLink) {
        if let Some(stash) = &self.zombies {
            if let Some(collector) = link.collector {
                // Park the live collector instead of crashing it: a
                // partitioned old owner that never heard it was
                // deposed, for the campaign's split-brain probe.
                // sentinet-allow(unwrap-used): a poisoned stash mutex
                // means a panicking drill thread; propagating the
                // panic is the only honest outcome.
                stash.lock().unwrap().push(Zombie {
                    partition: p,
                    epoch: link.epoch,
                    collector,
                });
                return;
            }
        }
        // Dropping an unfinished collector is exactly a crash: its
        // WAL keeps everything appended so far.
        drop(link);
    }

    fn finish(&mut self, _p: PartitionId, link: InProcessLink) -> Result<(), BackendError> {
        match link.collector {
            Some(collector) => collector
                .finish()
                .map(|_| ())
                .map_err(|e| BackendError(e.to_string())),
            None => Ok(()),
        }
    }

    fn merge_report(
        &mut self,
        p: PartitionId,
    ) -> Result<sentinet_gateway::GatewayReport, BackendError> {
        let dir = self.partition_dir(p);
        replay_report(&self.template, &dir).map(|(report, _)| report)
    }

    fn prewarm(&mut self, p: PartitionId, checkpoint_cursor: u64) {
        if checkpoint_cursor == 0 {
            return;
        }
        while self.prewarm_cache.len() <= p {
            self.prewarm_cache.push(None);
            self.recoveries.push(None);
        }
        let path = self.partition_dir(p).join(CHECKPOINT_FILE);
        if let Ok(bytes) = sentinet_gateway::RealVfs.read(&path) {
            self.prewarm_cache[p] = Some(bytes);
        }
    }
}

//! The nemesis harness: seeded, deterministic fault campaigns over
//! the full federation stack. Each episode composes faults from three
//! families — network ([`NetFault`] windows: partitions, one-way ack
//! loss, duplication, delayed retransmits), process
//! ([`CollectorFault`]: kill / hang / poison) and disk (a gateway
//! [`FaultPlan`] wrapped around an owner's storage) — then checks
//! three fleet invariants:
//!
//! 1. **No acked reading lost**: every partition's merged report must
//!    account for at least as many admitted readings as the
//!    controller believes were acked.
//! 2. **Byte-identical diagnosis**: the drilled fleet's rendered
//!    diagnosis must equal an uninterrupted baseline's, byte for
//!    byte.
//! 3. **Single writer per partition**: after the run, every fenced
//!    but still-live old owner (a [`Zombie`]) is poked with a fresh
//!    append. Epoch fencing must reject it; an admitted append is a
//!    split-brain. The probed partitions are then re-merged so any
//!    landed append also surfaces as a diagnosis divergence —
//!    invariant 3 failing loudly through invariant 2 is exactly what
//!    the [`FenceCheck::Skip`] mutation self-test relies on.
//!
//! With the migration schedule enabled ([`NemesisConfig::migration`])
//! every episode also runs a live split plus rebalance-back while the
//! faults land on arbitrary protocol steps — drain, cut, adopt,
//! commit — and two extra checks apply: the diagnosis comparison runs
//! against a baseline that executed the *same* migration schedule
//! uninterrupted, and fenced old owners that touched a migrated range
//! are poked with a moved-range sensor (the *cut probe*) — no sensor
//! that changed hands may have two live writers.
//!
//! Plans are generated to stay *recoverable*: standbys outnumber the
//! faults that can force a failover, and disk faults are restricted
//! to delivery-path operations so bootstrap never dies before the
//! fault matters. Same seed, same campaign — a failure report names
//! the episode seed so one episode replays in isolation.

use crate::chaos::{CollectorFault, DrillFault, DrillPlan, NetDrill, NetFault};
use crate::federation::{replay_report, Federation, FederationConfig};
use crate::inproc::InProcessBackend;
use crate::partition::{PartitionHealth, PartitionMap, SensorRange};
use crate::report::FederationEvent;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sentinet_gateway::{
    CutCheck, DeliverOutcome, FaultPlan, FenceCheck, GatewayConfig, RejectCause, StorageFault,
    StorageFaultSpec, VfsOp,
};
use sentinet_sim::SensorId;
use std::fmt;
use std::path::PathBuf;

/// Campaign parameters. Everything that shapes an episode derives
/// from `seed`, so a campaign is one replayable value.
#[derive(Debug, Clone)]
pub struct NemesisConfig {
    /// Campaign seed; episode `i` runs under a seed mixed from this.
    pub seed: u64,
    /// Episodes to run.
    pub episodes: u32,
    /// Partitions in the fleet.
    pub partitions: usize,
    /// Sensors across the fleet.
    pub sensors: u16,
    /// Sampling ticks per episode (stream length = `ticks × sensors`).
    pub ticks: u64,
    /// Deliver-path fence mode. [`FenceCheck::Skip`] is the mutation
    /// self-test: the campaign MUST fail under it.
    pub fence: FenceCheck,
    /// Migration-cut mode. [`CutCheck::Skip`] is the migration
    /// mutation self-test: a cut that ships an empty snapshot makes
    /// acked readings vanish in the handoff, and the campaign MUST
    /// catch it.
    pub cut: CutCheck,
    /// Run the live-migration schedule in every episode (and the
    /// baseline): split partition 0 at its midpoint mid-stream, then
    /// rebalance the split-off range back, with faults free to land
    /// on any protocol step. Adds a forced post-migration partition
    /// window so a fenced old owner holding a migrated range gets
    /// probed after the run.
    pub migration: bool,
    /// Scratch root for per-episode WAL directories.
    pub root: PathBuf,
}

impl NemesisConfig {
    /// A campaign over the default small fleet: two partitions, four
    /// sensors, sixty ticks, fencing enforced.
    pub fn new(seed: u64, episodes: u32, root: impl Into<PathBuf>) -> Self {
        Self {
            seed,
            episodes,
            partitions: 2,
            sensors: 4,
            ticks: 60,
            fence: FenceCheck::Enforced,
            cut: CutCheck::Enforced,
            migration: false,
            root: root.into(),
        }
    }

    /// The same campaign with the live-migration schedule enabled in
    /// every episode.
    #[must_use]
    pub fn with_migration(mut self) -> Self {
        self.migration = true;
        self
    }
}

/// What a failed episode violated.
#[derive(Debug)]
pub enum NemesisViolation {
    /// A reading the controller counted as acked is missing from the
    /// partition's merged report.
    AckedLost {
        /// The partition.
        partition: usize,
        /// Readings the controller believes durable.
        acked: u64,
        /// Readings the merged replay actually accounts for.
        accepted: u64,
    },
    /// The drilled diagnosis diverged from the uninterrupted
    /// baseline.
    DiagnosisDiverged {
        /// First line that differs (baseline vs drilled), for triage.
        first_diff: String,
    },
    /// A fenced old owner admitted an append — two writers touched
    /// one partition's WAL.
    SplitBrain {
        /// The partition.
        partition: usize,
        /// Epoch the zombie owned.
        zombie_epoch: u64,
        /// Epoch the final owner holds.
        owner_epoch: u64,
    },
    /// A partition orphaned even though the plan reserved a standby
    /// for every failover-capable fault.
    Orphaned {
        /// The partition.
        partition: usize,
    },
    /// The federation itself errored (routing, bootstrap, merge).
    Error(String),
}

/// A failed episode: which one, under what seed, violating what.
#[derive(Debug)]
pub struct NemesisFailure {
    /// Episode index within the campaign.
    pub episode: u32,
    /// The episode's derived seed (replays the episode in isolation).
    pub episode_seed: u64,
    /// The violated invariant.
    pub violation: NemesisViolation,
}

impl fmt::Display for NemesisFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "nemesis episode {} (seed {}) failed: ",
            self.episode, self.episode_seed
        )?;
        match &self.violation {
            NemesisViolation::AckedLost {
                partition,
                acked,
                accepted,
            } => write!(
                f,
                "partition {partition} lost acked readings ({acked} acked, {accepted} accounted)"
            ),
            NemesisViolation::DiagnosisDiverged { first_diff } => {
                write!(f, "diagnosis diverged from baseline: {first_diff}")
            }
            NemesisViolation::SplitBrain {
                partition,
                zombie_epoch,
                owner_epoch,
            } => write!(
                f,
                "split-brain on partition {partition}: epoch-{zombie_epoch} zombie appended \
                 under live epoch {owner_epoch}"
            ),
            NemesisViolation::Orphaned { partition } => {
                write!(f, "partition {partition} orphaned under a recoverable plan")
            }
            NemesisViolation::Error(detail) => write!(f, "federation error: {detail}"),
        }
    }
}

impl std::error::Error for NemesisFailure {}

/// What a completed campaign exercised — the numbers CI asserts on so
/// a quietly degenerate campaign (no faults fired, no zombies probed)
/// cannot pass as green.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CampaignSummary {
    /// Episodes completed.
    pub episodes: u32,
    /// Process faults (kill / hang / poison) injected.
    pub process_faults: u64,
    /// Network fault windows injected.
    pub net_faults: u64,
    /// Disk fault plans injected.
    pub disk_faults: u64,
    /// Episodes that composed a disk fault with the rest.
    pub disk_episodes: u32,
    /// Episodes run in the pipelined (protocol-v2 shaped) mode.
    pub pipelined_episodes: u32,
    /// Completed failovers across all episodes.
    pub failovers: u64,
    /// Miss streaks absorbed by hysteresis (no failover).
    pub flaps: u64,
    /// Fenced-but-live old owners poked after their runs.
    pub zombie_probes: u64,
    /// Zombie appends rejected with [`RejectCause::Fenced`].
    pub fence_probe_rejects: u64,
    /// Adoptions that started from a pre-warmed checkpoint image.
    pub prewarmed_adoptions: u64,
    /// Live migrations completed across all episodes.
    pub migrations: u64,
    /// Fenced old owners poked with a migrated-range sensor — the
    /// cut probe: no sensor that moved may have two live writers.
    pub cut_probes: u64,
    /// Cut probes rejected with [`RejectCause::Fenced`].
    pub cut_probe_rejects: u64,
}

impl fmt::Display for CampaignSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} episode(s): {} process / {} net / {} disk fault(s) ({} disk episode(s), \
             {} pipelined), {} failover(s), {} flap(s), {} zombie probe(s) \
             ({} fence-rejected), {} pre-warmed adoption(s), {} migration(s), \
             {} cut probe(s) ({} fence-rejected)",
            self.episodes,
            self.process_faults,
            self.net_faults,
            self.disk_faults,
            self.disk_episodes,
            self.pipelined_episodes,
            self.failovers,
            self.flaps,
            self.zombie_probes,
            self.fence_probe_rejects,
            self.prewarmed_adoptions,
            self.migrations,
            self.cut_probes,
            self.cut_probe_rejects
        )
    }
}

/// Hysteresis threshold every episode runs under: one torn send heals
/// as a flap, two consecutive misses commit suspicion.
const SUSPECT_AFTER: u32 = 2;

/// One generated episode: the fault plan plus the standby budget that
/// keeps it recoverable.
struct EpisodePlan {
    drill: DrillPlan,
    disk: Vec<(usize, FaultPlan)>,
    standbys: usize,
    pipelined: bool,
}

/// The deterministic episode stream, the same shape the federation
/// drills use: `ticks` sampling rounds over `sensors` sensors.
fn stream(sensors: u16, ticks: u64) -> Vec<(SensorId, u64, Vec<f64>)> {
    let mut out = Vec::new();
    for i in 0..ticks {
        let t = 300 * (i + 1);
        for s in 0..sensors {
            let v = 20.0 + (i % 7) as f64 + f64::from(s);
            out.push((SensorId(s), t, vec![v, v + 30.0]));
        }
    }
    out
}

/// Gateway template: checkpoint every 8 records so adoptions and
/// pre-warm caches genuinely exercise the snapshot path.
fn template() -> GatewayConfig {
    let mut config = GatewayConfig::new("overwritten-per-partition");
    config.checkpoint_every = 8;
    config
}

/// Derives episode `i`'s seed from the campaign seed (splitmix-style
/// mixing so neighbouring episodes decorrelate).
fn episode_seed(seed: u64, episode: u32) -> u64 {
    let mut z = seed.wrapping_add(
        u64::from(episode)
            .wrapping_add(1)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15),
    );
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Generates episode `i`'s plan. Recoverability rule: every fault
/// that *can* force a failover (process, disk, and Partition/AckLoss
/// net windows) reserves one standby, plus one spare. Disk faults
/// target only delivery-path operations (`Append`/`Fsync`, `nth ≥ 3`)
/// so an owner always survives bootstrap. Every third episode forces
/// a threshold-length network partition so the split-brain probe is
/// exercised on a fixed cadence, not by luck.
fn generate_plan(config: &NemesisConfig, episode: u32, ep_seed: u64) -> EpisodePlan {
    let mut rng = StdRng::seed_from_u64(ep_seed);
    let per_partition =
        config.ticks * u64::from(config.sensors / config.partitions.max(1) as u16).max(1);
    let max_after = (per_partition * 2 / 3).max(3);
    let mut drill = DrillPlan::new();

    if rng.gen_bool(0.5) {
        drill = drill.with_fault(DrillFault {
            partition: rng.gen_range(0..config.partitions),
            after_records: rng.gen_range(1..max_after),
            fault: match rng.gen_range(0..3u32) {
                0 => CollectorFault::Kill,
                1 => CollectorFault::Hang,
                _ => CollectorFault::Poison,
            },
        });
    }

    for _ in 0..rng.gen_range(0..=2u32) {
        drill = drill.with_net(NetDrill {
            partition: rng.gen_range(0..config.partitions),
            after_records: rng.gen_range(1..max_after),
            span: rng.gen_range(1..=3),
            fault: match rng.gen_range(0..4u32) {
                0 => NetFault::Partition,
                1 => NetFault::AckLoss,
                2 => NetFault::Duplicate,
                _ => NetFault::Delay,
            },
        });
    }
    if episode.is_multiple_of(3) {
        // Forced threshold-length partition: the owner stays alive,
        // the controller fails over, and the old owner becomes the
        // zombie the post-run probe fences.
        drill = drill.with_net(NetDrill {
            partition: episode as usize % config.partitions,
            after_records: rng.gen_range(4..max_after),
            span: u64::from(SUSPECT_AFTER),
            fault: NetFault::Partition,
        });
    }
    if config.migration {
        // Forced post-migration partition on the migration destination
        // (partition 0): its fenced-but-live old owner holds the
        // rebalanced-back range, so the post-run cut probe gets a
        // zombie that adopted migrated sensors. The coordinate lands
        // after the rebalance trigger (≈ `per_partition/2` of its own
        // deliveries plus the migrated share).
        drill = drill.with_net(NetDrill {
            partition: 0,
            after_records: per_partition * 2 / 3,
            span: u64::from(SUSPECT_AFTER),
            fault: NetFault::Partition,
        });
    }

    let mut disk = Vec::new();
    if rng.gen_bool(0.25) || episode % 8 == 1 {
        let kind = match rng.gen_range(0..3u32) {
            0 => StorageFault::Enospc,
            1 => StorageFault::FsyncFail,
            _ => StorageFault::TornWrite {
                bytes: rng.gen_range(0..8),
            },
        };
        disk.push((
            rng.gen_range(0..config.partitions),
            FaultPlan::new().with_fault(StorageFaultSpec {
                path: String::new(),
                op: if rng.gen_bool(0.5) {
                    VfsOp::Append
                } else {
                    VfsOp::Fsync
                },
                nth: rng.gen_range(3..20),
                kind,
                count: 1,
            }),
        ));
    }

    // With migration on, a Partition/AckLoss window can land on the
    // cut/adopt retry ladder, where every shaped attempt revives the
    // partition through a fresh failover — budget the window's full
    // span instead of one.
    let failover_capable = drill.faults.len()
        + disk.len()
        + drill
            .net
            .iter()
            .filter(|d| matches!(d.fault, NetFault::Partition | NetFault::AckLoss))
            .map(|d| if config.migration { d.span as usize } else { 1 })
            .sum::<usize>();
    EpisodePlan {
        drill,
        disk,
        standbys: failover_capable + 1,
        pipelined: episode % 2 == 1,
    }
}

/// Applies the fixed live-migration schedule when the campaign runs
/// with migrations: split partition 0 at the midpoint of its range a
/// third of the way into its stream, then rebalance the split-off
/// partition (id = `config.partitions`) back into it. Triggers key on
/// routed counts, which faults cannot perturb, so the cut lands at
/// one stream coordinate in the baseline and every episode alike.
fn schedule_migrations(fed: &mut Federation<InProcessBackend>, config: &NemesisConfig) {
    if !config.migration {
        return;
    }
    let width = config.sensors / config.partitions.max(1) as u16;
    let per_partition = config.ticks * u64::from(width.max(1));
    fed.schedule_split(0, SensorId(width / 2), (per_partition / 3) as usize)
        // sentinet-allow(expect-used): the schedule is fixed — partition 0
        // exists and `width / 2` is strictly inside its range for every
        // campaign geometry; a failure here is a harness bug worth a panic.
        .expect("the fixed migration schedule is non-degenerate");
    fed.schedule_rebalance(config.partitions, (per_partition / 6) as usize);
}

/// First line where `baseline` and `got` differ, for a failure
/// message that triages without dumping two full reports.
fn first_diff(baseline: &str, got: &str) -> String {
    for (i, (b, g)) in baseline.lines().zip(got.lines()).enumerate() {
        if b != g {
            return format!("line {}: baseline {b:?} vs drilled {g:?}", i + 1);
        }
    }
    format!(
        "lengths differ: baseline {} byte(s), drilled {} byte(s)",
        baseline.len(),
        got.len()
    )
}

/// Runs the campaign: one uninterrupted baseline, then `episodes`
/// seeded fault episodes, each checked against all three invariants.
/// Returns the first violation, or the campaign's exercise summary.
///
/// # Errors
///
/// [`NemesisFailure`] naming the episode, its seed and the violated
/// invariant.
pub fn run_campaign(config: &NemesisConfig) -> Result<CampaignSummary, NemesisFailure> {
    let template = template();
    let fail = |episode: u32, episode_seed: u64, violation: NemesisViolation| NemesisFailure {
        episode,
        episode_seed,
        violation,
    };

    // The uninterrupted baseline, computed once per campaign: same
    // stream, no faults, fencing enforced.
    let baseline_dir = config.root.join("baseline");
    // sentinet-allow(io-outside-vfs): scratch-directory cleanup, not
    // durable-path mutation — fault injection has nothing to cover.
    let _ = std::fs::remove_dir_all(&baseline_dir);
    let baseline = {
        let map = PartitionMap::split_even(config.sensors, config.partitions)
            // sentinet-allow(expect-used): campaign geometry is fixed with
            // sensors >= partitions, never a degenerate split.
            .expect("nemesis fleets are non-degenerate");
        let backend = InProcessBackend::new(
            template.clone(),
            &baseline_dir,
            config.partitions,
            0,
            DrillPlan::new(),
        );
        let mut fed = Federation::new(map, FederationConfig::default(), backend)
            .map_err(|e| fail(0, config.seed, NemesisViolation::Error(e.to_string())))?;
        schedule_migrations(&mut fed, config);
        for (sensor, time, values) in stream(config.sensors, config.ticks) {
            fed.route(sensor, time, &values)
                .map_err(|e| fail(0, config.seed, NemesisViolation::Error(e.to_string())))?;
        }
        fed.finish()
            .map_err(|e| fail(0, config.seed, NemesisViolation::Error(e.to_string())))?
            .render_diagnosis()
    };

    let mut summary = CampaignSummary::default();
    for episode in 0..config.episodes {
        let ep_seed = episode_seed(config.seed, episode);
        let plan = generate_plan(config, episode, ep_seed);
        summary.process_faults += plan.drill.faults.len() as u64;
        summary.net_faults += plan.drill.net.len() as u64;
        summary.disk_faults += plan.disk.len() as u64;
        if !plan.disk.is_empty() {
            summary.disk_episodes += 1;
        }
        if plan.pipelined {
            summary.pipelined_episodes += 1;
        }

        let dir = config.root.join(format!("ep{episode}"));
        // sentinet-allow(io-outside-vfs): scratch-directory cleanup.
        let _ = std::fs::remove_dir_all(&dir);
        let map = PartitionMap::split_even(config.sensors, config.partitions)
            // sentinet-allow(expect-used): campaign geometry is fixed with
            // sensors >= partitions, never a degenerate split.
            .expect("nemesis fleets are non-degenerate");
        let mut backend = InProcessBackend::new(
            template.clone(),
            &dir,
            config.partitions,
            plan.standbys,
            plan.drill,
        )
        .with_fence(config.fence)
        .with_cut(config.cut)
        .with_pipelined(plan.pipelined);
        for (p, disk_plan) in plan.disk {
            backend = backend.with_disk_fault(p, disk_plan);
        }
        let stash = backend.zombie_stash();

        let fed_config = FederationConfig {
            suspect_after: SUSPECT_AFTER,
            heartbeat_every: 8,
            ..FederationConfig::default()
        };
        let mut fed = Federation::new(map, fed_config, backend)
            .map_err(|e| fail(episode, ep_seed, NemesisViolation::Error(e.to_string())))?;
        schedule_migrations(&mut fed, config);
        for (sensor, time, values) in stream(config.sensors, config.ticks) {
            fed.route(sensor, time, &values)
                .map_err(|e| fail(episode, ep_seed, NemesisViolation::Error(e.to_string())))?;
        }
        for p in 0..config.partitions {
            if fed.backend().recovery(p).is_some_and(|r| r.prewarmed) {
                summary.prewarmed_adoptions += 1;
            }
        }
        let mut fleet = fed
            .finish()
            .map_err(|e| fail(episode, ep_seed, NemesisViolation::Error(e.to_string())))?;

        // Invariant: a recoverable plan never orphans, and no acked
        // reading goes missing from the merged replay.
        for status in &fleet.partitions {
            if status.health == PartitionHealth::Orphaned {
                return Err(fail(
                    episode,
                    ep_seed,
                    NemesisViolation::Orphaned {
                        partition: status.partition,
                    },
                ));
            }
            let accepted = status.report.ingest.accepted as u64;
            if accepted < status.acked {
                return Err(fail(
                    episode,
                    ep_seed,
                    NemesisViolation::AckedLost {
                        partition: status.partition,
                        acked: status.acked,
                        accepted,
                    },
                ));
            }
            summary.failovers += u64::from(status.failovers);
            summary.flaps += u64::from(status.flaps);
        }

        // Ranges that changed hands, for the cut probe below.
        let moved: Vec<(usize, usize, SensorRange)> = fleet
            .events
            .iter()
            .filter_map(|e| match e {
                FederationEvent::MigrationCompleted {
                    source,
                    dest,
                    range,
                    ..
                } => Some((*source, *dest, *range)),
                _ => None,
            })
            .collect();
        summary.migrations += moved.len() as u64;

        // Invariant: single writer per partition. Every fenced but
        // still-live old owner gets poked with a fresh append; epoch
        // fencing must reject it.
        // sentinet-allow(unwrap-used): a poisoned stash mutex means a
        // panicking drill thread; propagating the panic is honest.
        let zombies: Vec<_> = stash.lock().unwrap().drain(..).collect();
        let mut probed = Vec::new();
        for (i, mut z) in zombies.into_iter().enumerate() {
            let owner_epoch = fleet.partitions[z.partition].epoch;
            if owner_epoch <= z.epoch {
                continue;
            }
            summary.zombie_probes += 1;
            let range = fleet.partitions[z.partition].range;
            let seq = config.ticks + 1000 + i as u64;
            let time = 300 * (config.ticks + 50);
            match z
                .collector
                .deliver(SensorId(range.start), seq, time, vec![21.0, 55.0])
            {
                Ok(DeliverOutcome::Rejected(RejectCause::Fenced)) => {
                    summary.fence_probe_rejects += 1;
                }
                // A poisoned or shedding zombie cannot append either;
                // that is a safe (if accidental) stop.
                Ok(DeliverOutcome::Rejected(_)) | Err(_) => {}
                Ok(_) => {
                    return Err(fail(
                        episode,
                        ep_seed,
                        NemesisViolation::SplitBrain {
                            partition: z.partition,
                            zombie_epoch: z.epoch,
                            owner_epoch,
                        },
                    ));
                }
            }
            // The cut probe: if this zombie exported or adopted a
            // migrated range while it owned the partition, a sensor
            // from that range must reject too — a moved sensor with
            // two live writers is the migration flavour of
            // split-brain.
            for (j, (source, dest, moved_range)) in moved.iter().enumerate() {
                if *source != z.partition && *dest != z.partition {
                    continue;
                }
                summary.cut_probes += 1;
                let seq = config.ticks + 2000 + i as u64 * 16 + j as u64;
                let time = 300 * (config.ticks + 60);
                match z
                    .collector
                    .deliver(SensorId(moved_range.start), seq, time, vec![22.0, 57.0])
                {
                    Ok(DeliverOutcome::Rejected(RejectCause::Fenced)) => {
                        summary.cut_probe_rejects += 1;
                    }
                    Ok(DeliverOutcome::Rejected(_)) | Err(_) => {}
                    Ok(_) => {
                        return Err(fail(
                            episode,
                            ep_seed,
                            NemesisViolation::SplitBrain {
                                partition: z.partition,
                                zombie_epoch: z.epoch,
                                owner_epoch,
                            },
                        ));
                    }
                }
            }
            probed.push(z.partition);
        }
        // Re-merge probed partitions: if an append slipped through
        // anyway it must surface in the diagnosis comparison below.
        for p in probed {
            let (report, _) = replay_report(&template, &dir.join(format!("p{p}")))
                .map_err(|e| fail(episode, ep_seed, NemesisViolation::Error(e.to_string())))?;
            fleet.partitions[p].report = report;
        }

        // Invariant: the drilled diagnosis is byte-identical to the
        // uninterrupted baseline.
        let diagnosis = fleet.render_diagnosis();
        if diagnosis != baseline {
            return Err(fail(
                episode,
                ep_seed,
                NemesisViolation::DiagnosisDiverged {
                    first_diff: first_diff(&baseline, &diagnosis),
                },
            ));
        }

        summary.episodes += 1;
        // sentinet-allow(io-outside-vfs): scratch-directory cleanup.
        let _ = std::fs::remove_dir_all(&dir);
    }
    // sentinet-allow(io-outside-vfs): scratch-directory cleanup.
    let _ = std::fs::remove_dir_all(&baseline_dir);
    Ok(summary)
}

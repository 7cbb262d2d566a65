//! The durable collector: WAL-backed admission into the detection
//! pipeline.
//!
//! Every delivered frame passes through one fixed sequence of gates:
//!
//! ```text
//! frame → seq dedup → WAL append → ack → reorder buffer → sanitizer
//!       → core::Pipeline
//! ```
//!
//! The WAL append happens *before* the ack, so an acknowledged record
//! is durable; everything after the ack (reordering, late/shed drops,
//! sanitization) is a pure deterministic function of the admitted
//! record sequence. Crash recovery exploits exactly that: on open the
//! WAL's records are replayed through the identical admission path, so
//! the rebuilt pipeline is bit-for-bit the state the crashed process
//! would have reached — a `kill -9` at any point resumes to a
//! [`PipelineReport`] identical to an uninterrupted run.
//!
//! Periodic checkpoints are *restore points*: a checkpoint records the
//! WAL cursor plus a full [`CollectorSnapshot`] (pipeline, reorder
//! buffer, sanitizer, dedup state, liveness accounting) at that
//! cursor. While the full log is present, replay re-derives the
//! snapshot when it passes the cursor and fails loudly on mismatch, so
//! silent WAL corruption (or a non-deterministic code change) cannot
//! masquerade as a clean recovery. Once **checkpoint-gated retention**
//! (`WalConfig::retain_bytes`) reclaims sealed segments below the
//! cursor, recovery instead restores the snapshot and replays only the
//! surviving tail — byte-equal to a full-log replay, because the
//! snapshot is the state the deleted prefix would have rebuilt.
//!
//! Storage failures are **fail-stop** (`DESIGN.md` §13): the first
//! failed write or fsync poisons the WAL, [`Collector::deliver`] stops
//! acknowledging (returning [`DeliverOutcome::Rejected`] so the server
//! NACKs), and the typed [`StorageError`] surfaces in
//! [`GatewayReport::storage`]. Restarting on healthy storage replays
//! the acked prefix bit-identically.
//!
//! Liveness: sensors that fall silent do not stall anything — the
//! window barrier is driven by whatever data does arrive. When a
//! sensor's last admission falls a configurable deadline behind the
//! reorder watermark it is declared silent and surfaced in
//! [`LivenessStatus`] (the paper's missing-packet semantics: its
//! absence from the window is itself the signal), recovering
//! automatically if it reports again.

use crate::reorder::{AdmitOutcome, ReorderBuffer, ReorderConfig};
use crate::snapshot::{
    decode_collector, encode_collector, merge_snapshot, split_snapshot, CollectorSnapshot,
};
use crate::vfs::{StorageError, VfsOp};
use crate::wal::{Wal, WalConfig, WalError, WalRecord};
use sentinet_core::{Pipeline, PipelineConfig, PipelineReport, RecoveryPlan};
use sentinet_sim::{IngestReport, RawRecord, Sanitizer, SensorId, Timestamp};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::path::PathBuf;
use std::sync::Arc;

/// Marker line opening a gateway checkpoint file.
const CHECKPOINT_MAGIC: &str = "sentinet-gateway-checkpoint v2";
/// Checkpoint file name inside the WAL directory. Public so pre-warm
/// caches (federation standbys staging the owner's latest snapshot)
/// can read the same bytes [`Collector::open_prewarmed`] will compare.
pub const CHECKPOINT_FILE: &str = "checkpoint.ck";
/// Scratch name the checkpoint is written under before rename-commit.
const CHECKPOINT_TMP: &str = "checkpoint.tmp";
/// Marker line opening the fence-token file.
const FENCE_MAGIC: &str = "sentinet-fence v1";
/// Fence-token file name inside the WAL directory: the committed
/// owner epoch, persisted beside the WAL so a stale owner sharing the
/// directory observes its successor.
const FENCE_FILE: &str = "fence.tk";
/// Scratch name the fence token is written under before rename-commit.
const FENCE_TMP: &str = "fence.tmp";
/// Marker line opening the retired-ranges file.
const RETIRED_MAGIC: &str = "sentinet-retired v1";
/// Retired-ranges file name inside the WAL directory: the sensor
/// ranges migrated away from this collector, persisted beside the
/// fence token so a restarted source keeps NACKing the moved range.
const RETIRED_FILE: &str = "retired.tk";
/// Scratch name the retired-ranges file is written under before
/// rename-commit.
const RETIRED_TMP: &str = "retired.tmp";
/// Marker line opening a migration outbox file.
const OUTBOX_MAGIC: &str = "sentinet-outbox v1";

/// Full gateway configuration.
#[derive(Debug, Clone)]
pub struct GatewayConfig {
    /// Detection-pipeline configuration.
    pub pipeline: PipelineConfig,
    /// Sensor sampling period in seconds.
    pub sample_period: u64,
    /// Write-ahead log configuration.
    pub wal: WalConfig,
    /// Reorder buffer tuning.
    pub reorder: ReorderConfig,
    /// Declare a sensor silent once its last admission falls this far
    /// behind the watermark (`None` disables liveness tracking).
    pub silence_deadline: Option<Timestamp>,
    /// Write a checkpoint every N WAL records (0 disables).
    pub checkpoint_every: u64,
    /// Owner epoch this collector claims over its WAL directory. `0`
    /// disables fencing entirely (standalone collectors pay nothing).
    /// With a non-zero epoch, [`Collector::open`] refuses a directory
    /// whose persisted fence token names a newer epoch, commits its
    /// own token otherwise, and the deliver path fail-stops with
    /// [`RejectCause::Fenced`] once a newer committed epoch is
    /// observed — on disk or via the wire handshake.
    pub epoch: u64,
    /// Whether the deliver-path fence check runs. Production is always
    /// [`FenceCheck::Enforced`]; see [`FenceCheck::Skip`] for the
    /// mutation seam.
    pub fence: FenceCheck,
    /// Whether a migration cut actually ships the moved sub-range.
    /// Production is always [`CutCheck::Enforced`]; see
    /// [`CutCheck::Skip`] for the mutation seam.
    pub cut: CutCheck,
}

/// Whether a fenced collector actually checks for a newer committed
/// epoch on the deliver path.
///
/// The shipped rule is [`FenceCheck::Enforced`]. [`FenceCheck::Skip`]
/// deliberately re-creates the split-brain the fence exists to prevent
/// — a partitioned-but-alive owner keeps appending to a WAL its
/// successor now owns — so the nemesis campaign can prove it *detects*
/// the violation (a mutation-style self-test mirroring
/// [`AckDiscipline::Eager`](crate::harness::AckDiscipline)). Production
/// code must never use it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FenceCheck {
    /// Check the persisted fence token (and any wire-observed epoch)
    /// before every append; fail-stop on a newer committed epoch.
    Enforced,
    /// Never check — the deliberately broken mode the nemesis
    /// campaign's mutation self-test must catch.
    Skip,
}

/// Whether [`Collector::export_range`] actually stages the moved
/// sub-range's state into the migration outbox.
///
/// The shipped rule is [`CutCheck::Enforced`]. [`CutCheck::Skip`]
/// deliberately re-creates the bug the durable-cut step exists to
/// prevent — the source retires the range and rebases onto the outside
/// half, but ships an *empty* inside snapshot, so every reading acked
/// below the cut cursor silently vanishes from the fleet — so the
/// nemesis migration campaign can prove it *detects* the loss (a
/// mutation-style self-test mirroring [`FenceCheck::Skip`]).
/// Production code must never use it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CutCheck {
    /// Stage the real inside half of the snapshot before the rebase —
    /// the shipped cut-then-ship rule.
    Enforced,
    /// Ship an empty inside snapshot while still retiring the range
    /// and rebasing (the deliberately broken mode the migration
    /// campaign's mutation self-test must catch).
    Skip,
}

impl GatewayConfig {
    /// Defaults around a WAL directory: paper-default pipeline, 300 s
    /// sampling, 30 min watermark, checkpoint every 256 records.
    pub fn new(wal_dir: impl Into<PathBuf>) -> Self {
        Self {
            pipeline: PipelineConfig::default(),
            sample_period: 300,
            wal: WalConfig::new(wal_dir),
            reorder: ReorderConfig::default(),
            silence_deadline: Some(3600),
            checkpoint_every: 256,
            epoch: 0,
            fence: FenceCheck::Enforced,
            cut: CutCheck::Enforced,
        }
    }
}

/// A gateway-level failure.
#[derive(Debug)]
pub enum GatewayError {
    /// The write-ahead log failed.
    Wal(WalError),
    /// The checkpoint file exists but cannot be parsed.
    CheckpointMalformed(String),
    /// Replay reached the checkpoint cursor with different collector
    /// state than the checkpoint recorded.
    CheckpointMismatch {
        /// WAL cursor the checkpoint was taken at.
        cursor: u64,
    },
    /// The checkpoint cursor lies beyond the recovered WAL — the log
    /// lost durable records the checkpoint had seen (e.g. power loss
    /// under `fsync=never`).
    CheckpointAhead {
        /// WAL cursor the checkpoint was taken at.
        cursor: u64,
        /// Records actually recovered from the WAL.
        recovered: u64,
    },
    /// The WAL's replayed prefix was reclaimed by retention but the
    /// checkpoint that justified the reclaim is gone — the log alone
    /// can no longer rebuild collector state.
    CheckpointMissing {
        /// Lowest WAL segment present on disk.
        first_segment: u64,
    },
    /// The WAL directory's persisted fence token names a newer owner
    /// epoch than this collector was configured with: a successor has
    /// already committed ownership, so opening would split-brain.
    Fenced {
        /// Epoch committed in the fence token.
        persisted: u64,
        /// Epoch this collector was configured with.
        configured: u64,
    },
    /// A live migration step (range export, snapshot install, range
    /// import) could not be made durable: the cut never commits
    /// halfway, so the caller aborts or retries instead of proceeding
    /// on a collector whose on-disk restore point disagrees with the
    /// shipped snapshot.
    MigrationCut(String),
    /// Filesystem error outside the WAL itself.
    Io(PathBuf, std::io::Error),
}

impl fmt::Display for GatewayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GatewayError::Wal(e) => write!(f, "{e}"),
            GatewayError::CheckpointMalformed(reason) => {
                write!(f, "malformed gateway checkpoint: {reason}")
            }
            GatewayError::CheckpointMismatch { cursor } => write!(
                f,
                "checkpoint mismatch at wal cursor {cursor}: replay diverged from checkpointed state"
            ),
            GatewayError::CheckpointAhead { cursor, recovered } => write!(
                f,
                "checkpoint cursor {cursor} beyond recovered wal ({recovered} records); \
                 log lost durable data (consider fsync=always)"
            ),
            GatewayError::CheckpointMissing { first_segment } => write!(
                f,
                "wal starts at retained segment {first_segment} but its checkpoint is missing; \
                 cannot rebuild the reclaimed prefix"
            ),
            GatewayError::Fenced {
                persisted,
                configured,
            } => write!(
                f,
                "wal directory fenced at epoch {persisted}; this collector's epoch {configured} is stale"
            ),
            GatewayError::MigrationCut(reason) => {
                write!(f, "migration cut failed: {reason}")
            }
            GatewayError::Io(path, e) => write!(f, "gateway io error at {}: {e}", path.display()),
        }
    }
}

impl std::error::Error for GatewayError {}

impl From<WalError> for GatewayError {
    fn from(e: WalError) -> Self {
        GatewayError::Wal(e)
    }
}

/// Per-sensor sequence-number deduplication window.
///
/// Public so the protocol model checker (`xtask protocol-check`) can
/// drive the *real* dedup/watermark arithmetic as its specification
/// oracle rather than re-implementing it.
#[derive(Debug, Default)]
pub struct SeqTracker {
    /// Lowest sequence number not yet seen.
    next: u64,
    /// Seen sequence numbers above `next` (out-of-order arrivals).
    above: BTreeSet<u64>,
}

impl SeqTracker {
    /// Whether `seq` has not been seen yet (no state change).
    pub fn is_new(&self, seq: u64) -> bool {
        seq >= self.next && !self.above.contains(&seq)
    }

    /// Records `seq`; returns `true` if it was new.
    pub fn observe(&mut self, seq: u64) -> bool {
        if !self.is_new(seq) {
            return false;
        }
        if seq == self.next {
            self.next += 1;
            while self.above.remove(&self.next) {
                self.next += 1;
            }
        } else {
            self.above.insert(seq);
        }
        true
    }

    /// Highest seq such that every seq at or below it has been seen —
    /// the cumulative-ack watermark (`None` before anything arrived).
    pub fn watermark(&self) -> Option<u64> {
        self.next.checked_sub(1)
    }
}

/// Why a delivered frame was refused (the server sends a NACK).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectCause {
    /// The WAL is poisoned by a storage failure; nothing can be made
    /// durable until the process restarts on healthy storage.
    Storage,
    /// The WAL retention budget is exhausted and nothing below the
    /// checkpoint cursor is reclaimable — counted load shedding.
    WalBudget,
    /// A newer committed owner epoch was observed (in the persisted
    /// fence token or via the wire handshake): this collector is a
    /// stale owner and fail-stops instead of racing its successor.
    Fenced,
}

/// What the server should tell the client about a delivered frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeliverOutcome {
    /// New record, now durable: ack it.
    Accepted,
    /// Retransmission of an already-durable record: re-ack it.
    Duplicate,
    /// The record could not be made durable: NACK it, never ack. The
    /// client's retry protocol redelivers after restart/recovery.
    Rejected(RejectCause),
}

/// Per-stage wall time accumulated by the collector's ingest path —
/// the bench's stage breakdown. All fields are nanoseconds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageTimings {
    /// Batch admission: dedup/budget probes plus
    /// reorder/sanitize/pipeline for accepted readings.
    pub admission_ns: u64,
    /// Inside WAL write calls.
    pub wal_append_ns: u64,
    /// Inside WAL fsync calls.
    pub fsync_ns: u64,
}

/// Per-batch admission accounting from [`Collector::deliver_batch`].
///
/// The ack-release rule of the pipelined protocol lives in the two
/// cursor fields: `ack_up_to` is the cumulative watermark the client
/// may be told about, but only once the WAL's synced cursor
/// ([`Collector::synced_cursor`]) has reached `ack_cursor` — i.e. once
/// a completed fsync covers every record this batch appended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchOutcome {
    /// Readings newly admitted (appended to the WAL this call).
    pub accepted: usize,
    /// Readings that were retransmissions of already-logged records.
    pub duplicates: usize,
    /// Readings refused — everything from the `nack` coordinate on.
    pub rejected: usize,
    /// Cumulative ack watermark for the sensor after this batch:
    /// every seq at or below it is logged.
    pub ack_up_to: Option<u64>,
    /// WAL cursor a completed fsync must cover before `ack_up_to` may
    /// be released to the client.
    pub ack_cursor: u64,
    /// First refused seq and why (the selective-NACK coordinate; the
    /// client retransmits from here).
    pub nack: Option<(u64, RejectCause)>,
}

/// What recovery found on open.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryInfo {
    /// Records replayed from the WAL (only the tail above the restore
    /// point, when one was used).
    pub replayed: u64,
    /// WAL cursor of the checkpoint that was verified bit-exactly
    /// during full-log replay, if one existed.
    pub verified_cursor: Option<u64>,
    /// WAL cursor of the restore-point snapshot state was rebuilt
    /// from, when retention had reclaimed the replay prefix.
    pub restored_from: Option<u64>,
    /// Whether a pre-warmed checkpoint image (staged from a heartbeat
    /// before adoption) matched the on-disk checkpoint byte-for-byte
    /// — the standby adopted from a snapshot it had already validated.
    pub prewarmed: bool,
}

/// Current silence accounting (the gateway's degraded-mode surface).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LivenessStatus {
    /// Sensors currently past their silence deadline, with the stream
    /// time each was last heard from.
    pub silent: Vec<(SensorId, Timestamp)>,
    /// Silence episodes declared over the whole run, including ones
    /// that later recovered.
    pub episodes: usize,
}

impl LivenessStatus {
    /// Whether every sensor is currently reporting.
    pub fn is_live(&self) -> bool {
        self.silent.is_empty()
    }
}

impl fmt::Display for LivenessStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "liveness: silent sensors [")?;
        for (i, (s, last)) in self.silent.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{} (last heard t={last})", s.0)?;
        }
        write!(f, "], {} episode(s) total", self.episodes)
    }
}

/// Storage-health accounting: the fail-stop error (if any) plus the
/// retention and shedding counters. Everything here is *about* the
/// disk, so it is excluded from checkpoints and resets on restart.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StorageStatus {
    /// The storage failure that poisoned the WAL, if any. While set,
    /// every delivery is rejected (fail-stop; restart to recover).
    pub error: Option<StorageError>,
    /// Deliveries NACKed because the retention budget was exhausted
    /// with nothing reclaimable.
    pub budget_shed: usize,
    /// Deliveries NACKed because the WAL was already poisoned.
    pub storage_rejects: usize,
    /// Checkpoint writes that failed to commit (the previous
    /// checkpoint survives; retention pauses until one commits).
    pub checkpoint_failures: usize,
    /// Reclaims whose segment deletion failed after the checkpoint
    /// committed (the files become leftovers the next open removes).
    pub reclaim_failures: usize,
    /// WAL segments deleted by checkpoint-gated retention.
    pub reclaimed_segments: usize,
    /// Deliveries NACKed because a newer committed owner epoch fenced
    /// this collector (the expected fail-stop of a stale owner after
    /// failover — accounted separately from storage poisoning).
    pub fence_rejects: usize,
    /// The newer epoch that fenced this collector, if any.
    pub fenced_by: Option<u64>,
}

impl StorageStatus {
    /// Whether storage is healthy and nothing was shed.
    pub fn is_clean(&self) -> bool {
        self.error.is_none()
            && self.budget_shed == 0
            && self.storage_rejects == 0
            && self.checkpoint_failures == 0
            && self.reclaim_failures == 0
    }
}

/// Everything a finished gateway run produced.
#[derive(Debug, Clone)]
pub struct GatewayReport {
    /// The detection pipeline's report — bit-comparable across runs.
    pub pipeline: PipelineReport,
    /// Ingest accounting: sanitizer rejections plus transport-layer
    /// duplicate/late/shed counts.
    pub ingest: IngestReport,
    /// Silence accounting.
    pub liveness: LivenessStatus,
    /// Storage health: poisoning error and retention counters.
    pub storage: StorageStatus,
    /// Recommended per-sensor recovery actions.
    pub plan: RecoveryPlan,
    /// Client-side transport counters (attempts, retransmits,
    /// timeouts, NACKs, reconnects), filled in by harnesses that own
    /// the uplink end of the run — `None` for server-only runs. Kept
    /// out of checkpoints: it describes the wire, not the state.
    pub uplink: Option<crate::client::UplinkStats>,
}

/// The durable collector. Create with [`Collector::open`], feed with
/// [`deliver`](Collector::deliver), close with
/// [`finish`](Collector::finish).
pub struct Collector {
    config: GatewayConfig,
    wal: Wal,
    pipeline: Pipeline,
    sanitizer: Sanitizer,
    reorder: ReorderBuffer,
    seqs: BTreeMap<SensorId, SeqTracker>,
    seq_duplicates: usize,
    accepted: usize,
    rejected: Vec<sentinet_sim::IngestError>,
    last_heard: BTreeMap<SensorId, Timestamp>,
    silent: BTreeSet<SensorId>,
    /// Reorder watermark the last full silence scan ran at. Purely a
    /// scan-skipping cache (never snapshotted): while the watermark is
    /// unchanged only the sensor touched by the current admission can
    /// change silence state, so the per-record scan collapses to O(1).
    liveness_watermark: Option<Timestamp>,
    episodes: usize,
    released_scratch: Vec<RawRecord>,
    budget_shed: usize,
    storage_rejects: usize,
    checkpoint_failures: usize,
    reclaim_failures: usize,
    reclaimed_segments: usize,
    /// Newest owner epoch observed (persisted fence token or wire
    /// handshake). Above `config.epoch` ⇒ this collector is fenced.
    observed_epoch: u64,
    fence_rejects: usize,
    /// Half-open sensor ranges migrated away from this collector
    /// ([`Collector::export_range`]); deliveries inside any of them
    /// NACK with [`RejectCause::Fenced`]. Mirrors the persisted
    /// retired-ranges file, sorted by range start.
    retired: Vec<(u16, u16)>,
    /// WAL cursor of the last committed checkpoint (0: none yet) —
    /// what heartbeats advertise so standbys can pre-warm.
    last_checkpoint_cursor: u64,
    /// Wall time spent in batch admission (dedup/budget probes plus
    /// reorder/sanitize/pipeline), for the bench stage breakdown.
    admission_ns: u64,
}

impl fmt::Debug for Collector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Collector")
            .field("wal", &self.wal)
            .field("accepted", &self.accepted)
            .finish()
    }
}

/// A parsed checkpoint file: header coordinates plus the snapshot
/// body (kept as text so full-log replay can verify it byte-exactly).
struct CheckpointData {
    cursor: u64,
    base_segment: u64,
    base_records: u64,
    body: String,
}

impl Collector {
    /// Opens the collector over its WAL directory, rebuilding the
    /// state the previous process died with.
    ///
    /// While the full log is on disk, every record is replayed through
    /// the admission path and the latest checkpoint is *verified*
    /// byte-exactly in passing. Once retention has reclaimed the
    /// prefix below the checkpoint cursor, the checkpoint's
    /// [`CollectorSnapshot`] is restored instead and only the
    /// surviving tail is replayed — the result is byte-equal either
    /// way.
    ///
    /// # Errors
    ///
    /// Any [`GatewayError`]; corruption, checkpoint divergence, a
    /// retained log whose checkpoint is missing, and a fence token
    /// naming a newer epoch ([`GatewayError::Fenced`]) are loud
    /// failures, never silent data loss.
    pub fn open(config: GatewayConfig) -> Result<(Self, RecoveryInfo), GatewayError> {
        Self::open_prewarmed(config, None)
    }

    /// [`Collector::open`] with an optional pre-warmed checkpoint
    /// image: the raw bytes of the partition's checkpoint file, staged
    /// by a standby from heartbeat advertisements before adoption. The
    /// on-disk checkpoint stays authoritative — the cached image is
    /// compared against it and [`RecoveryInfo::prewarmed`] records
    /// whether the standby's staged snapshot was already current.
    ///
    /// # Errors
    ///
    /// As [`Collector::open`].
    pub fn open_prewarmed(
        config: GatewayConfig,
        prewarm: Option<&[u8]>,
    ) -> Result<(Self, RecoveryInfo), GatewayError> {
        // Fence gate first: a directory committed to a newer epoch
        // must never be opened by a stale owner, and a newly adopting
        // owner commits its claim before any append can happen.
        // `FenceCheck::Skip` bypasses the gate entirely — the mutation
        // build must be able to resurrect a stale owner to prove the
        // nemesis campaign catches the resulting split-brain.
        if config.epoch > 0 && config.fence == FenceCheck::Enforced {
            let persisted = read_fence(&config.wal)?;
            if persisted > config.epoch {
                return Err(GatewayError::Fenced {
                    persisted,
                    configured: config.epoch,
                });
            }
            if persisted < config.epoch {
                write_fence(&config.wal, config.epoch)?;
            }
        }
        let prewarmed = match prewarm {
            Some(cached) => config
                .wal
                .vfs
                .read(&config.wal.dir.join(CHECKPOINT_FILE))
                .map(|disk| disk == cached)
                .unwrap_or(false),
            None => false,
        };
        let checkpoint = read_checkpoint(&config.wal)?;
        let checkpoint_cursor = checkpoint.as_ref().map_or(0, |c| c.cursor);
        let retired = read_retired(&config.wal)?;
        let base = checkpoint
            .as_ref()
            .map(|c| (c.base_segment, c.base_records));
        let (wal, records) = match Wal::open(config.wal.clone(), base) {
            Ok(opened) => opened,
            Err(WalError::MissingPrefix { first_segment, .. }) if checkpoint.is_none() => {
                return Err(GatewayError::CheckpointMissing { first_segment })
            }
            Err(e) => return Err(e.into()),
        };
        let base_records = wal.base_records();
        let recovered = base_records + records.len() as u64;
        if let Some(ck) = &checkpoint {
            if ck.cursor > recovered {
                return Err(GatewayError::CheckpointAhead {
                    cursor: ck.cursor,
                    recovered,
                });
            }
            if ck.cursor < ck.base_records {
                return Err(GatewayError::CheckpointMalformed(format!(
                    "cursor {} below base {}",
                    ck.cursor, ck.base_records
                )));
            }
        }

        if let Some(ck) = checkpoint.as_ref().filter(|c| c.base_records > 0) {
            // Restore mode: the prefix below the cursor was reclaimed;
            // rebuild state from the snapshot, replay only the tail.
            let snap = decode_collector(&ck.body).map_err(GatewayError::CheckpointMalformed)?;
            let mut collector = Self::from_snapshot(config, wal, snap)?;
            collector.retired = retired;
            collector.last_checkpoint_cursor = checkpoint_cursor;
            let skip = (ck.cursor - base_records) as usize;
            for record in &records[skip..] {
                collector
                    .seqs
                    .entry(record.sensor)
                    .or_default()
                    .observe(record.seq);
                collector.admit(record.raw());
            }
            let info = RecoveryInfo {
                replayed: (records.len() - skip) as u64,
                verified_cursor: None,
                restored_from: Some(ck.cursor),
                prewarmed,
            };
            return Ok((collector, info));
        }

        // Full-log mode: replay everything, verifying the checkpoint
        // snapshot byte-exactly as the cursor goes by.
        let mut collector = Self::fresh(config, wal);
        collector.retired = retired;
        collector.last_checkpoint_cursor = checkpoint_cursor;
        let mut verified_cursor = None;
        for (i, record) in records.iter().enumerate() {
            collector
                .seqs
                .entry(record.sensor)
                .or_default()
                .observe(record.seq);
            collector.admit(record.raw());
            if let Some(ck) = &checkpoint {
                if ck.cursor == (i + 1) as u64 {
                    let now = encode_collector(&collector.snapshot());
                    if now != ck.body {
                        return Err(GatewayError::CheckpointMismatch { cursor: ck.cursor });
                    }
                    verified_cursor = Some(ck.cursor);
                }
            }
        }
        let info = RecoveryInfo {
            replayed: records.len() as u64,
            verified_cursor,
            restored_from: None,
            prewarmed,
        };
        Ok((collector, info))
    }

    /// A collector with empty state over an opened WAL.
    fn fresh(config: GatewayConfig, wal: Wal) -> Self {
        let pipeline = Pipeline::new(config.pipeline.clone(), config.sample_period);
        let reorder = ReorderBuffer::new(config.reorder.clone());
        Self {
            config,
            wal,
            pipeline,
            sanitizer: Sanitizer::new(),
            reorder,
            seqs: BTreeMap::new(),
            seq_duplicates: 0,
            accepted: 0,
            rejected: Vec::new(),
            last_heard: BTreeMap::new(),
            silent: BTreeSet::new(),
            liveness_watermark: None,
            episodes: 0,
            released_scratch: Vec::new(),
            budget_shed: 0,
            storage_rejects: 0,
            checkpoint_failures: 0,
            reclaim_failures: 0,
            reclaimed_segments: 0,
            observed_epoch: 0,
            fence_rejects: 0,
            retired: Vec::new(),
            last_checkpoint_cursor: 0,
            admission_ns: 0,
        }
    }

    /// Rebuilds a collector from a restore-point snapshot. Counters
    /// excluded from the snapshot (retransmissions, storage health)
    /// start fresh.
    fn from_snapshot(
        config: GatewayConfig,
        wal: Wal,
        snap: CollectorSnapshot,
    ) -> Result<Self, GatewayError> {
        let malformed = |e: String| GatewayError::CheckpointMalformed(e);
        let pipeline =
            Pipeline::from_snapshot(config.pipeline.clone(), config.sample_period, snap.pipeline)
                .map_err(|e| malformed(e.to_string()))?;
        let reorder = ReorderBuffer::from_snapshot(config.reorder.clone(), snap.reorder);
        let sanitizer = Sanitizer::from_snapshot(snap.sanitizer);
        let seqs = snap
            .seqs
            .into_iter()
            .map(|(sensor, next, above)| {
                (
                    sensor,
                    SeqTracker {
                        next,
                        above: above.into_iter().collect(),
                    },
                )
            })
            .collect();
        Ok(Self {
            config,
            wal,
            pipeline,
            sanitizer,
            reorder,
            seqs,
            seq_duplicates: 0,
            accepted: snap.accepted,
            rejected: snap.rejected,
            last_heard: snap.last_heard.into_iter().collect(),
            silent: snap.silent.into_iter().collect(),
            liveness_watermark: None,
            episodes: snap.episodes,
            released_scratch: Vec::new(),
            budget_shed: 0,
            storage_rejects: 0,
            checkpoint_failures: 0,
            reclaim_failures: 0,
            reclaimed_segments: 0,
            observed_epoch: 0,
            fence_rejects: 0,
            retired: Vec::new(),
            last_checkpoint_cursor: 0,
            admission_ns: 0,
        })
    }

    /// The replay-deterministic image of this collector (everything a
    /// checkpoint must carry to act as a restore point).
    ///
    /// Public as the federation handoff export hook: a controller
    /// transfers this snapshot (already durable inside the v2
    /// checkpoint) to a standby, which rebuilds the dead collector's
    /// state via [`Collector::open`] on the same WAL directory —
    /// snapshot restore plus WAL-tail replay, the identical admission
    /// path.
    pub fn snapshot(&self) -> CollectorSnapshot {
        CollectorSnapshot {
            pipeline: self.pipeline.snapshot(),
            reorder: self.reorder.snapshot(),
            sanitizer: self.sanitizer.snapshot(),
            seqs: self
                .seqs
                .iter()
                .map(|(&s, t)| (s, t.next, t.above.iter().copied().collect()))
                .collect(),
            accepted: self.accepted,
            rejected: self.rejected.clone(),
            last_heard: self.last_heard.iter().map(|(&s, &t)| (s, t)).collect(),
            silent: self.silent.iter().copied().collect(),
            episodes: self.episodes,
        }
    }

    /// The source half of a live range migration: cuts this
    /// collector's state at the current WAL cursor and splits off
    /// `range` for transfer. Three rename-committed steps, each
    /// idempotent so an interrupted cut can be re-driven:
    ///
    /// 1. persist `range` into the retired-ranges file — from here on
    ///    every delivery inside the range NACKs
    ///    [`RejectCause::Fenced`], so no acked reading can postdate
    ///    the cut;
    /// 2. stage the split-off half of the state snapshot in a
    ///    migration *outbox* file, so the shipped payload survives a
    ///    crash between the cut and the transfer;
    /// 3. rebase the live collector onto the remaining half and
    ///    commit a restore-point checkpoint at the cut cursor with
    ///    the whole pre-cut log reclaimed — every later open (and the
    ///    final report replay) rebuilds the post-cut state only.
    ///
    /// Returns the split-off snapshot and the cut cursor. Calling
    /// again with the same range (after a crash mid-cut) resumes: the
    /// staged outbox payload is returned and the remaining steps
    /// re-run.
    ///
    /// # Errors
    ///
    /// [`GatewayError::MigrationCut`] on an empty range,
    /// [`GatewayError::Wal`] on a poisoned log, and any step that
    /// cannot be made durable fails loudly — the collector never
    /// proceeds on a half-committed cut.
    pub fn export_range(
        &mut self,
        range: std::ops::Range<u16>,
    ) -> Result<(CollectorSnapshot, u64), GatewayError> {
        if range.start >= range.end {
            return Err(GatewayError::MigrationCut(format!(
                "empty migration range [{}, {})",
                range.start, range.end
            )));
        }
        if let Some(e) = self.wal.poisoned() {
            return Err(WalError::Storage(e.clone()).into());
        }
        self.sync_wal()?;
        if let Some(e) = self.wal.poisoned() {
            return Err(WalError::Storage(e.clone()).into());
        }
        let key = (range.start, range.end);
        if !self.retired.contains(&key) {
            self.retired.push(key);
            self.retired.sort_unstable();
            self.write_retired()?;
        }
        let (inside, cursor) = match self.read_outbox(key)? {
            // Resuming an interrupted cut: the shipped payload is
            // already committed; only re-run the rebase below.
            Some(staged) => staged,
            None => {
                let cursor = self.wal.records_logged();
                let inside = match self.config.cut {
                    CutCheck::Enforced => split_snapshot(&self.snapshot(), range.clone()).0,
                    // Mutation seam: retire and rebase as usual but
                    // ship nothing — the acked inside readings vanish.
                    CutCheck::Skip => split_snapshot(&self.snapshot(), range.end..range.end).0,
                };
                self.write_outbox(key, cursor, &inside)?;
                (inside, cursor)
            }
        };
        let (_, outside) = split_snapshot(&self.snapshot(), range);
        self.rebase(outside)?;
        self.seal_rebased_checkpoint()?;
        Ok((inside, cursor))
    }

    /// Adopts a migrated sub-range into the live state: merges the
    /// shipped snapshot (per-sensor state replaces, the accounting
    /// ledger stays where the split left it), commits a restore-point
    /// checkpoint so a restart rebuilds the adopted state, and
    /// un-retires `range` if this collector had exported it — the
    /// source's abort path. Idempotent under retry.
    ///
    /// Only sound while the adopter shares the exporter's pipeline
    /// lineage (a fresh destination restores via
    /// [`Collector::install_snapshot`] instead, which keeps the
    /// shipped global model) and no window barrier has advanced past
    /// the cut — the federation aborts a migration before routing
    /// anything new to the moved range.
    ///
    /// # Errors
    ///
    /// [`GatewayError::MigrationCut`] when a step cannot be made
    /// durable; the staged snapshot stays authoritative elsewhere.
    pub fn import_range(
        &mut self,
        range: std::ops::Range<u16>,
        inside: &CollectorSnapshot,
    ) -> Result<(), GatewayError> {
        if let Some(e) = self.wal.poisoned() {
            return Err(WalError::Storage(e.clone()).into());
        }
        self.sync_wal()?;
        if let Some(e) = self.wal.poisoned() {
            return Err(WalError::Storage(e.clone()).into());
        }
        let merged = merge_snapshot(&self.snapshot(), inside);
        self.rebase(merged)?;
        self.seal_rebased_checkpoint()?;
        let key = (range.start, range.end);
        if self.retired.contains(&key) {
            self.retired.retain(|k| k != &key);
            self.write_retired()?;
            self.clear_outbox(range);
        }
        Ok(())
    }

    /// Adopts a shipped sub-range as this collector's state — the
    /// destination half of a live migration, driven by a
    /// `MigrateAccept` frame. A pristine destination (nothing ever
    /// logged or admitted) takes the snapshot wholesale, shipped
    /// pipeline lineage included, and starts its WAL accounting at the
    /// source's cut `cursor` so the restore-point checkpoint it
    /// commits speaks the same cursor coordinates as the shipped
    /// payload. A destination that already holds state — a retried
    /// adoption after a crash-restart, or the source taking its own
    /// range back — merges through [`Collector::import_range`], which
    /// is sound there because both sides share one lineage. Idempotent
    /// under retry either way.
    ///
    /// # Errors
    ///
    /// [`GatewayError::MigrationCut`] when the restore point cannot be
    /// made durable; the source's staged outbox copy stays
    /// authoritative.
    pub fn adopt_range(
        &mut self,
        range: std::ops::Range<u16>,
        cursor: u64,
        inside: &CollectorSnapshot,
    ) -> Result<(), GatewayError> {
        let pristine = self.wal.records_logged() == self.wal.base_records()
            && self.seqs.is_empty()
            && self.accepted == 0
            && self.rejected.is_empty();
        if !pristine {
            return self.import_range(range, inside);
        }
        if !self.wal.advance_base(cursor.max(1)) {
            return Err(GatewayError::MigrationCut(format!(
                "cannot adopt cut cursor {cursor} below existing base {}",
                self.wal.base_records()
            )));
        }
        self.rebase(inside.clone())?;
        self.seal_rebased_checkpoint()
    }

    /// Stages a migrated sub-range snapshot into a fresh WAL directory
    /// as a restore-point checkpoint, so [`Collector::open`] — live
    /// adoption and every later report replay alike — rebuilds the
    /// shipped state through the identical restore-plus-tail path a
    /// retention-reclaimed log uses. `base` is the WAL cursor the
    /// destination's accounting starts at (conventionally the source's
    /// cut cursor; clamped to at least 1 so the checkpoint is
    /// unambiguously a restore point).
    ///
    /// # Errors
    ///
    /// [`GatewayError::MigrationCut`] if the directory already holds a
    /// checkpoint or WAL segments — installing over live state would
    /// silently discard it — and [`GatewayError::Io`] on filesystem
    /// failure.
    pub fn install_snapshot(
        config: &GatewayConfig,
        snap: &CollectorSnapshot,
        base: u64,
    ) -> Result<(), GatewayError> {
        let base = base.max(1);
        let vfs = &config.wal.vfs;
        let dir = &config.wal.dir;
        vfs.create_dir_all(dir)
            .map_err(|e| GatewayError::Io(dir.clone(), e))?;
        let names = vfs
            .list(dir)
            .map_err(|e| GatewayError::Io(dir.clone(), e))?;
        if names
            .iter()
            .any(|n| n == CHECKPOINT_FILE || (n.starts_with("wal-") && n.ends_with(".seg")))
        {
            return Err(GatewayError::MigrationCut(format!(
                "destination {} already holds collector state",
                dir.display()
            )));
        }
        let mut text = String::new();
        text.push_str(CHECKPOINT_MAGIC);
        text.push('\n');
        text.push_str(&format!("cursor {base}\n"));
        text.push_str("base-segment 1\n");
        text.push_str(&format!("base {base}\n"));
        text.push_str(&encode_collector(snap));
        let tmp = dir.join(CHECKPOINT_TMP);
        let path = dir.join(CHECKPOINT_FILE);
        vfs.write_file(&tmp, text.as_bytes())
            .map_err(|e| GatewayError::Io(tmp.clone(), e))?;
        vfs.rename(&tmp, &path)
            .map_err(|e| GatewayError::Io(path, e))
    }

    /// Drops the staged outbox payload for `range` — called once the
    /// destination has durably adopted the shipped snapshot
    /// (`MigrateDone`). Best-effort: a leftover outbox for a retired
    /// range is inert.
    pub fn clear_outbox(&self, range: std::ops::Range<u16>) {
        let _ = self
            .config
            .wal
            .vfs
            .remove_file(&self.outbox_path((range.start, range.end)));
    }

    /// Half-open sensor ranges this collector has migrated away —
    /// deliveries inside them NACK as fenced.
    pub fn retired_ranges(&self) -> &[(u16, u16)] {
        &self.retired
    }

    /// Whether `sensor` falls in a retired (migrated-away) range.
    fn is_retired(&self, sensor: SensorId) -> bool {
        self.retired
            .iter()
            .any(|&(a, b)| a <= sensor.0 && sensor.0 < b)
    }

    /// Replaces the live per-sensor machinery with `snap`, keeping the
    /// WAL handle and the process-local transport counters. The
    /// snapshot carries the accounting ledger (accepted count,
    /// rejection log, silence episodes), so rebasing onto a split half
    /// follows the split's keep-the-ledger-outside convention.
    fn rebase(&mut self, snap: CollectorSnapshot) -> Result<(), GatewayError> {
        let pipeline = Pipeline::from_snapshot(
            self.config.pipeline.clone(),
            self.config.sample_period,
            snap.pipeline,
        )
        .map_err(|e| GatewayError::CheckpointMalformed(e.to_string()))?;
        self.pipeline = pipeline;
        self.reorder = ReorderBuffer::from_snapshot(self.config.reorder.clone(), snap.reorder);
        self.sanitizer = Sanitizer::from_snapshot(snap.sanitizer);
        self.seqs = snap
            .seqs
            .into_iter()
            .map(|(sensor, next, above)| {
                (
                    sensor,
                    SeqTracker {
                        next,
                        above: above.into_iter().collect(),
                    },
                )
            })
            .collect();
        self.accepted = snap.accepted;
        self.rejected = snap.rejected;
        self.last_heard = snap.last_heard.into_iter().collect();
        self.silent = snap.silent.into_iter().collect();
        self.episodes = snap.episodes;
        self.liveness_watermark = None;
        Ok(())
    }

    /// Commits a restore-point checkpoint of the just-rebased state at
    /// the current WAL cursor with every earlier record reclaimed: the
    /// pre-cut log contains the moved range, so it must never replay
    /// again.
    fn seal_rebased_checkpoint(&mut self) -> Result<(), GatewayError> {
        let cursor = self.wal.records_logged();
        if self.wal.segments().last().is_some_and(|s| s.records > 0) {
            self.wal.roll_segment()?;
        }
        if !self.write_checkpoint(cursor, 0)? {
            return Err(GatewayError::MigrationCut(format!(
                "restore-point checkpoint at cursor {cursor} failed to commit"
            )));
        }
        if self.wal.base_records() != cursor {
            return Err(GatewayError::MigrationCut(format!(
                "pre-cut log below cursor {cursor} is not reclaimable (base {})",
                self.wal.base_records()
            )));
        }
        Ok(())
    }

    /// Path of the staged outbox payload for one exported range.
    fn outbox_path(&self, key: (u16, u16)) -> PathBuf {
        self.config
            .wal
            .dir
            .join(format!("outbox-{}-{}.ck", key.0, key.1))
    }

    /// Reads the staged outbox payload for `key`, if a cut already
    /// committed one.
    fn read_outbox(
        &self,
        key: (u16, u16),
    ) -> Result<Option<(CollectorSnapshot, u64)>, GatewayError> {
        let path = self.outbox_path(key);
        let bytes = match self.config.wal.vfs.read(&path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(GatewayError::Io(path, e)),
        };
        let text = String::from_utf8(bytes)
            .map_err(|_| GatewayError::CheckpointMalformed("outbox is not utf-8".into()))?;
        let mut lines = text.splitn(3, '\n');
        if lines.next() != Some(OUTBOX_MAGIC) {
            return Err(GatewayError::CheckpointMalformed(
                "outbox missing magic header".into(),
            ));
        }
        let cursor = lines
            .next()
            .and_then(|l| l.strip_prefix("cursor "))
            .and_then(|n| n.parse::<u64>().ok())
            .ok_or_else(|| GatewayError::CheckpointMalformed("outbox bad `cursor` line".into()))?;
        let snap = decode_collector(lines.next().unwrap_or(""))
            .map_err(GatewayError::CheckpointMalformed)?;
        Ok(Some((snap, cursor)))
    }

    /// Rename-commits the staged outbox payload for `key`.
    fn write_outbox(
        &self,
        key: (u16, u16),
        cursor: u64,
        snap: &CollectorSnapshot,
    ) -> Result<(), GatewayError> {
        let mut text = String::new();
        text.push_str(OUTBOX_MAGIC);
        text.push('\n');
        text.push_str(&format!("cursor {cursor}\n"));
        text.push_str(&encode_collector(snap));
        let vfs = &self.config.wal.vfs;
        let tmp = self
            .config
            .wal
            .dir
            .join(format!("outbox-{}-{}.tmp", key.0, key.1));
        let path = self.outbox_path(key);
        vfs.write_file(&tmp, text.as_bytes())
            .map_err(|e| GatewayError::Io(tmp.clone(), e))?;
        vfs.rename(&tmp, &path)
            .map_err(|e| GatewayError::Io(path, e))
    }

    /// Rename-commits the in-memory retired set to the retired-ranges
    /// file beside the fence token.
    fn write_retired(&self) -> Result<(), GatewayError> {
        let mut text = String::from(RETIRED_MAGIC);
        text.push('\n');
        for (a, b) in &self.retired {
            text.push_str(&format!("range {a} {b}\n"));
        }
        let vfs = &self.config.wal.vfs;
        vfs.create_dir_all(&self.config.wal.dir)
            .map_err(|e| GatewayError::Io(self.config.wal.dir.clone(), e))?;
        let tmp = self.config.wal.dir.join(RETIRED_TMP);
        let path = self.config.wal.dir.join(RETIRED_FILE);
        vfs.write_file(&tmp, text.as_bytes())
            .map_err(|e| GatewayError::Io(tmp.clone(), e))?;
        vfs.rename(&tmp, &path)
            .map_err(|e| GatewayError::Io(path, e))
    }

    /// Handles one delivered `Data` frame. `Accepted` and `Duplicate`
    /// both mean "durable, send the ack"; `Rejected` means the record
    /// could not be made durable and must be NACKed, never acked.
    ///
    /// # Errors
    ///
    /// [`GatewayError`] on non-storage failures. Storage failures are
    /// *not* errors here: they surface as
    /// [`DeliverOutcome::Rejected`]`(`[`RejectCause::Storage`]`)` so
    /// the serving loop keeps running (NACKing) while the operator
    /// reads the typed [`StorageError`] from the report.
    pub fn deliver(
        &mut self,
        sensor: SensorId,
        seq: u64,
        time: Timestamp,
        values: Vec<f64>,
    ) -> Result<DeliverOutcome, GatewayError> {
        if self.fence_breached() || self.is_retired(sensor) {
            self.fence_rejects += 1;
            return Ok(DeliverOutcome::Rejected(RejectCause::Fenced));
        }
        if self.wal.poisoned().is_some() {
            self.storage_rejects += 1;
            return Ok(DeliverOutcome::Rejected(RejectCause::Storage));
        }
        // Non-mutating dedup probe: a rejected record must leave no
        // trace, or replay (which sees only durable records) would
        // diverge from the live run.
        if !self.seqs.get(&sensor).is_none_or(|t| t.is_new(seq)) {
            self.seq_duplicates += 1;
            return Ok(DeliverOutcome::Duplicate);
        }
        let record = WalRecord {
            sensor,
            seq,
            time,
            values,
        };
        if let Some(budget) = self.config.wal.retain_bytes {
            let frame = Wal::framed_len(&record);
            if self.wal.total_bytes() + frame > budget {
                self.reclaim_for_budget(budget.saturating_sub(frame))?;
                if self.wal.poisoned().is_some() {
                    self.storage_rejects += 1;
                    return Ok(DeliverOutcome::Rejected(RejectCause::Storage));
                }
                if self.wal.total_bytes() + frame > budget {
                    self.budget_shed += 1;
                    return Ok(DeliverOutcome::Rejected(RejectCause::WalBudget));
                }
            }
        }
        match self.wal.append(&record) {
            Ok(()) => {}
            Err(WalError::Storage(_)) => {
                self.storage_rejects += 1;
                return Ok(DeliverOutcome::Rejected(RejectCause::Storage));
            }
            Err(e) => return Err(e.into()),
        }
        // Only now — after the append — may the sequence number be
        // marked seen: the record is durable (or will be truncated as
        // a torn tail, in which case it was never acked either).
        self.seqs.entry(sensor).or_default().observe(seq);
        self.admit(record.raw());
        let logged = self.wal.records_logged();
        if self.config.checkpoint_every > 0 && logged.is_multiple_of(self.config.checkpoint_every) {
            self.write_checkpoint(logged, self.config.wal.retain_bytes.unwrap_or(u64::MAX))?;
        }
        Ok(DeliverOutcome::Accepted)
    }

    /// Handles one delivered `DataBatch` frame: dedup, budget
    /// projection, and reorder/sanitize/pipeline admission run per
    /// reading exactly as [`Collector::deliver`] would, but the WAL
    /// append is one contiguous extent ([`Wal::append_many`]) and the
    /// fsync policy is charged per batch — the group-commit fast path.
    ///
    /// Admission stops at the first refused reading (budget exhaustion
    /// or storage failure): the surviving prefix is logged and
    /// admitted, the refusal coordinate comes back in
    /// [`BatchOutcome::nack`], and the suffix is left for the client
    /// to retransmit. Nothing in the batch may be acked until
    /// [`Collector::synced_cursor`] reaches [`BatchOutcome::ack_cursor`].
    ///
    /// # Errors
    ///
    /// [`GatewayError`] on non-storage failures only, exactly like
    /// [`Collector::deliver`].
    pub fn deliver_batch(
        &mut self,
        sensor: SensorId,
        first_seq: u64,
        readings: &[(Timestamp, Vec<f64>)],
    ) -> Result<BatchOutcome, GatewayError> {
        let mut out = BatchOutcome {
            accepted: 0,
            duplicates: 0,
            rejected: 0,
            ack_up_to: None,
            ack_cursor: self.wal.records_logged(),
            nack: None,
        };
        if self.fence_breached() || self.is_retired(sensor) {
            self.fence_rejects += readings.len();
            out.rejected = readings.len();
            out.nack = Some((first_seq, RejectCause::Fenced));
            return Ok(out);
        }
        if self.wal.poisoned().is_some() {
            self.storage_rejects += readings.len();
            out.rejected = readings.len();
            out.nack = Some((first_seq, RejectCause::Storage));
            return Ok(out);
        }
        // Pass 1: per-reading dedup probe and cumulative budget
        // projection, collecting the admissible fresh prefix. Probes
        // are non-mutating — a refused reading must leave no trace.
        let mut fresh: Vec<WalRecord> = Vec::with_capacity(readings.len());
        let mut projected = 0u64;
        let mut reclaimed = false;
        let admission_start = std::time::Instant::now();
        for (i, (time, values)) in readings.iter().enumerate() {
            let seq = first_seq + i as u64;
            if !self.seqs.get(&sensor).is_none_or(|t| t.is_new(seq)) {
                self.seq_duplicates += 1;
                out.duplicates += 1;
                continue;
            }
            let record = WalRecord {
                sensor,
                seq,
                time: *time,
                values: values.clone(),
            };
            if let Some(budget) = self.config.wal.retain_bytes {
                let frame = Wal::framed_len(&record);
                if self.wal.total_bytes() + projected + frame > budget && !reclaimed {
                    // One reclaim attempt per batch, before anything
                    // is appended (the checkpoint it writes covers
                    // only records already durable).
                    self.reclaim_for_budget(budget.saturating_sub(projected + frame))?;
                    reclaimed = true;
                }
                if self.wal.poisoned().is_some() {
                    self.storage_rejects += readings.len() - i;
                    out.rejected = readings.len() - i;
                    out.nack = Some((seq, RejectCause::Storage));
                    break;
                }
                if self.wal.total_bytes() + projected + frame > budget {
                    self.budget_shed += readings.len() - i;
                    out.rejected = readings.len() - i;
                    out.nack = Some((seq, RejectCause::WalBudget));
                    break;
                }
                projected += frame;
            }
            fresh.push(record);
        }
        self.admission_ns = self
            .admission_ns
            .saturating_add(admission_start.elapsed().as_nanos() as u64);
        // Pass 2: one contiguous WAL extent for the whole fresh
        // prefix, then per-reading admission. Only after the append
        // may sequence numbers be marked seen.
        if !fresh.is_empty() {
            let logged_before = self.wal.records_logged();
            match self.wal.append_many(&fresh) {
                Ok(()) => {}
                Err(WalError::Storage(_)) => {
                    // Part of the extent may be on disk, but nothing
                    // was observed or admitted: the whole batch is
                    // unacked and the client retransmits it after
                    // restart (dedup absorbs any durable prefix).
                    self.storage_rejects += fresh.len();
                    out.rejected += fresh.len();
                    // The fresh prefix precedes any budget-refused
                    // suffix, so its first seq is the NACK coordinate.
                    out.nack = Some((fresh[0].seq, RejectCause::Storage));
                    return Ok(out);
                }
                Err(e) => return Err(e.into()),
            }
            out.accepted = fresh.len();
            let admit_start = std::time::Instant::now();
            for record in fresh {
                self.seqs
                    .entry(record.sensor)
                    .or_default()
                    .observe(record.seq);
                self.admit(record.raw());
            }
            self.admission_ns = self
                .admission_ns
                .saturating_add(admit_start.elapsed().as_nanos() as u64);
            let logged = self.wal.records_logged();
            let every = self.config.checkpoint_every;
            if every > 0 && logged_before / every < logged / every {
                self.write_checkpoint(logged, self.config.wal.retain_bytes.unwrap_or(u64::MAX))?;
            }
        }
        out.ack_cursor = self.wal.records_logged();
        out.ack_up_to = self.seqs.get(&sensor).and_then(|t| t.watermark());
        Ok(out)
    }

    /// Whether a newer committed owner epoch fences this collector's
    /// appends. Unfenced collectors (`epoch == 0`) and the
    /// [`FenceCheck::Skip`] mutation pay nothing; fenced collectors
    /// re-read the persisted token so a successor's rename-committed
    /// claim is observed before the next append, with a wire-observed
    /// epoch ([`Collector::observe_epoch`]) short-circuiting the read.
    fn fence_breached(&mut self) -> bool {
        if self.config.epoch == 0 || self.config.fence == FenceCheck::Skip {
            return false;
        }
        if self.observed_epoch > self.config.epoch {
            return true;
        }
        if let Ok(persisted) = read_fence(&self.config.wal) {
            if persisted > self.observed_epoch {
                self.observed_epoch = persisted;
            }
        }
        self.observed_epoch > self.config.epoch
    }

    /// Records an owner epoch observed on the wire (a `Hello` or
    /// `Heartbeat` carrying a newer epoch than ours). Once a newer
    /// epoch is observed every delivery fail-stops with
    /// [`RejectCause::Fenced`].
    pub fn observe_epoch(&mut self, epoch: u64) {
        if epoch > self.observed_epoch {
            self.observed_epoch = epoch;
        }
    }

    /// The owner epoch this collector was configured with (0:
    /// unfenced).
    pub fn epoch(&self) -> u64 {
        self.config.epoch
    }

    /// The reorder watermark delay: how far behind the newest admitted
    /// reading another may arrive and still be admitted. Granted to
    /// clients in the `HelloAck` so their batches never outrun it.
    pub fn watermark_delay(&self) -> Timestamp {
        self.config.reorder.watermark_delay
    }

    /// WAL cursor of the last committed checkpoint (0: none yet) —
    /// advertised in heartbeat replies so standbys can pre-warm from
    /// the freshest snapshot.
    pub fn checkpoint_cursor(&self) -> u64 {
        self.last_checkpoint_cursor
    }

    /// Absolute WAL cursor covered by a completed fsync — the ack
    /// gate for [`BatchOutcome::ack_cursor`].
    pub fn synced_cursor(&self) -> u64 {
        self.wal.synced_records()
    }

    /// Records appended but not yet covered by an fsync.
    pub fn unsynced_records(&self) -> u64 {
        self.wal.unsynced_records()
    }

    /// Server-side per-stage wall time accumulated so far (batch
    /// admission, WAL writes, fsyncs) — the bench's ingest stage
    /// breakdown. Transport stages (decode, ack) are counted by the
    /// [`Server`](crate::server::Server) instead.
    pub fn stage_timings(&self) -> StageTimings {
        StageTimings {
            admission_ns: self.admission_ns,
            wal_append_ns: self.wal.append_ns(),
            fsync_ns: self.wal.fsync_ns(),
        }
    }

    /// Forces the group-commit fsync: after `Ok`, every logged record
    /// is covered and every queued ack may be released. A storage
    /// failure poisons the WAL (callers NACK from then on).
    ///
    /// # Errors
    ///
    /// [`GatewayError`] on non-storage failures only; fsync failure
    /// is absorbed into the poisoned state like delivery does.
    pub fn sync_wal(&mut self) -> Result<(), GatewayError> {
        if self.wal.poisoned().is_some() || self.wal.unsynced_records() == 0 {
            return Ok(());
        }
        match self.wal.sync() {
            Ok(()) => Ok(()),
            Err(WalError::Storage(_)) => Ok(()),
            Err(e) => Err(e.into()),
        }
    }

    /// Tries to bring the on-disk WAL under `target` bytes so one more
    /// record fits the retention budget: seals a lone active segment
    /// (sealed segments are the unit of reclaim), then checkpoints at
    /// the current cursor, which reclaims every sealed segment below
    /// it. Storage failures poison the WAL and are left for the caller
    /// to observe.
    fn reclaim_for_budget(&mut self, target: u64) -> Result<(), GatewayError> {
        if self.wal.segments().len() == 1 && self.wal.segments()[0].records > 0 {
            match self.wal.roll_segment() {
                Ok(()) => {}
                Err(WalError::Storage(_)) => return Ok(()),
                Err(e) => return Err(e.into()),
            }
        }
        self.write_checkpoint(self.wal.records_logged(), target)
            .map(|_| ())
    }

    /// Runs one admitted record through reorder → sanitize → pipeline.
    fn admit(&mut self, record: RawRecord) {
        let sensor = record.sensor;
        let time = record.time;
        if self.reorder.offer(record) == AdmitOutcome::Admitted {
            let heard = self.last_heard.entry(sensor).or_insert(time);
            if time > *heard {
                *heard = time;
            }
            // A reappearing sensor clears its silence (the episode
            // stays counted).
            self.silent.remove(&sensor);
        }
        let mut released = std::mem::take(&mut self.released_scratch);
        self.reorder.drain_ready(&mut released);
        for raw in released.drain(..) {
            self.ingest_released(raw);
        }
        self.released_scratch = released;
        self.update_liveness(sensor);
    }

    fn ingest_released(&mut self, raw: RawRecord) {
        match self.sanitizer.accept(raw) {
            Ok(record) => {
                self.accepted += 1;
                if let Some(reading) = record.payload.reading() {
                    let outcomes =
                        self.pipeline
                            .push_values(record.time, record.sensor, reading.values());
                    for outcome in outcomes {
                        self.pipeline.recycle_outcome(outcome);
                    }
                }
            }
            Err(e) => self.rejected.push(e),
        }
    }

    /// Re-derives silence membership after one admission. `touched` is
    /// the sensor the admission may have updated `last_heard` for —
    /// while the watermark is unchanged it is the only sensor whose
    /// silence condition can have changed, so the full scan (which
    /// this is observably equivalent to, record for record) runs only
    /// when the watermark advances.
    fn update_liveness(&mut self, touched: SensorId) {
        let Some(deadline) = self.config.silence_deadline else {
            return;
        };
        let Some(watermark) = self.reorder.watermark() else {
            return;
        };
        if self.liveness_watermark == Some(watermark) {
            if let Some(&heard) = self.last_heard.get(&touched) {
                if watermark > heard.saturating_add(deadline) && self.silent.insert(touched) {
                    self.episodes += 1;
                }
            }
            return;
        }
        self.liveness_watermark = Some(watermark);
        for (&sensor, &heard) in &self.last_heard {
            if watermark > heard.saturating_add(deadline) && self.silent.insert(sensor) {
                self.episodes += 1;
            }
        }
    }

    /// Writes a restore-point checkpoint at `cursor` and reclaims WAL
    /// segments down to `reclaim_budget` bytes. The commit order is
    /// the crash-safety argument (`DESIGN.md` §13):
    ///
    /// 1. fsync the WAL — the checkpoint may only reference durable
    ///    records;
    /// 2. plan the reclaim and write the checkpoint *carrying the
    ///    post-reclaim base* to a tmp file; rename-commit it;
    /// 3. only then delete the planned segments.
    ///
    /// A crash (or failure) before the rename leaves the previous
    /// checkpoint intact and deletes nothing; a crash between rename
    /// and deletion leaves leftover segments below the committed base,
    /// which the next open removes.
    ///
    /// Failures are absorbed into counters, not propagated: a failed
    /// sync poisons the WAL (deliveries start rejecting), and a failed
    /// commit keeps the previous checkpoint authoritative. Returns
    /// whether the checkpoint rename-committed — the periodic cadence
    /// ignores it, but a migration cut must fail loudly instead of
    /// leaving a restore point that disagrees with the shipped
    /// snapshot.
    fn write_checkpoint(&mut self, cursor: u64, reclaim_budget: u64) -> Result<bool, GatewayError> {
        // Skip the force when the synced watermark already covers the
        // cursor (always true under `FsyncPolicy::Never`, and after a
        // policy fsync covered the extent) — the sync would be a no-op
        // and its fsync pure overhead on the group-commit hot path.
        if self.wal.unsynced_records() > 0 {
            match self.wal.sync() {
                Ok(()) => {}
                Err(WalError::Storage(_)) => return Ok(false),
                Err(e) => return Err(e.into()),
            }
        }
        let plan = self.wal.plan_reclaim(cursor, reclaim_budget);
        let mut text = String::new();
        text.push_str(CHECKPOINT_MAGIC);
        text.push('\n');
        text.push_str(&format!("cursor {cursor}\n"));
        text.push_str(&format!("base-segment {}\n", plan.base_segment));
        text.push_str(&format!("base {}\n", plan.base_records));
        text.push_str(&encode_collector(&self.snapshot()));
        let vfs = Arc::clone(&self.config.wal.vfs);
        let dir = &self.config.wal.dir;
        let tmp = dir.join(CHECKPOINT_TMP);
        let path = dir.join(CHECKPOINT_FILE);
        let committed = vfs
            .write_file(&tmp, text.as_bytes())
            .map_err(|e| StorageError::new(VfsOp::Write, &tmp, &e))
            .and_then(|()| {
                vfs.rename(&tmp, &path)
                    .map_err(|e| StorageError::new(VfsOp::Rename, &path, &e))
            });
        if committed.is_err() {
            self.checkpoint_failures += 1;
            return Ok(false);
        }
        self.last_checkpoint_cursor = cursor;
        if !plan.is_empty() {
            match self.wal.execute_reclaim(&plan) {
                Ok(()) => self.reclaimed_segments += plan.delete.len(),
                Err(_) => self.reclaim_failures += 1,
            }
        }
        Ok(true)
    }

    /// Ingest accounting so far (transport counters merged in).
    pub fn ingest_report(&self) -> IngestReport {
        let stats = self.reorder.stats();
        IngestReport {
            accepted: self.accepted,
            rejected: self.rejected.clone(),
            duplicates: self.seq_duplicates + stats.duplicates,
            late: stats.late,
            shed: stats.shed,
        }
    }

    /// Current silence accounting.
    pub fn liveness(&self) -> LivenessStatus {
        LivenessStatus {
            silent: self
                .silent
                .iter()
                .map(|s| (*s, self.last_heard.get(s).copied().unwrap_or(0)))
                .collect(),
            episodes: self.episodes,
        }
    }

    /// Current storage health: fail-stop error plus retention and
    /// shedding counters.
    pub fn storage_status(&self) -> StorageStatus {
        StorageStatus {
            error: self.wal.poisoned().cloned(),
            budget_shed: self.budget_shed,
            storage_rejects: self.storage_rejects,
            checkpoint_failures: self.checkpoint_failures,
            reclaim_failures: self.reclaim_failures,
            reclaimed_segments: self.reclaimed_segments,
            fence_rejects: self.fence_rejects,
            fenced_by: (self.config.epoch > 0 && self.observed_epoch > self.config.epoch)
                .then_some(self.observed_epoch),
        }
    }

    /// Absolute WAL cursor: records ever logged, including any
    /// reclaimed prefix (the checkpoint cursor domain).
    pub fn wal_records(&self) -> u64 {
        self.wal.records_logged()
    }

    /// Bytes the WAL currently occupies on disk (what
    /// `--wal-retain-bytes` bounds).
    pub fn wal_footprint(&self) -> u64 {
        self.wal.total_bytes()
    }

    /// End of stream: flushes the reorder buffer and the final window,
    /// syncs the WAL, and produces the run's report.
    ///
    /// Never fails on storage: a poisoned WAL (including a final sync
    /// that fails) is reported through [`GatewayReport::storage`]
    /// instead, so the operator always gets the run's accounting.
    ///
    /// # Errors
    ///
    /// [`GatewayError`] on non-storage failures only.
    pub fn finish(mut self) -> Result<GatewayReport, GatewayError> {
        let mut released = std::mem::take(&mut self.released_scratch);
        self.reorder.flush(&mut released);
        for raw in released.drain(..) {
            self.ingest_released(raw);
        }
        for outcome in self.pipeline.finalize() {
            self.pipeline.recycle_outcome(outcome);
        }
        if self.wal.poisoned().is_none() {
            // A failure here poisons the WAL; it is surfaced via the
            // storage status rather than aborting the report.
            let _ = self.wal.sync();
        }
        let ingest = self.ingest_report();
        let liveness = self.liveness();
        let storage = self.storage_status();
        let plan = RecoveryPlan::from_pipeline(&self.pipeline);
        Ok(GatewayReport {
            pipeline: self.pipeline.report(),
            ingest,
            liveness,
            storage,
            plan,
            uplink: None,
        })
    }
}

/// Reads the persisted fence token through the configured
/// [`Vfs`](crate::vfs::Vfs); a missing or unreadable token reads as
/// epoch 0 (the directory was never fenced — or the read raced the
/// successor's rename-commit, in which case the next read observes
/// the committed token).
fn read_fence(config: &WalConfig) -> Result<u64, GatewayError> {
    let path = config.dir.join(FENCE_FILE);
    let bytes = match config.vfs.read(&path) {
        Ok(b) => b,
        Err(_) => return Ok(0),
    };
    let text = String::from_utf8(bytes)
        .map_err(|_| GatewayError::CheckpointMalformed("fence token is not utf-8".into()))?;
    let mut lines = text.lines();
    if lines.next() != Some(FENCE_MAGIC) {
        return Err(GatewayError::CheckpointMalformed(
            "fence token missing magic header".into(),
        ));
    }
    lines
        .next()
        .and_then(|l| l.strip_prefix("epoch "))
        .and_then(|n| n.parse::<u64>().ok())
        .ok_or_else(|| GatewayError::CheckpointMalformed("fence token bad `epoch` line".into()))
}

/// Reads the persisted retired-ranges file through the configured
/// [`Vfs`](crate::vfs::Vfs); a missing or unreadable file reads as
/// empty — the directory never exported a range.
fn read_retired(config: &WalConfig) -> Result<Vec<(u16, u16)>, GatewayError> {
    let path = config.dir.join(RETIRED_FILE);
    let bytes = match config.vfs.read(&path) {
        Ok(b) => b,
        Err(_) => return Ok(Vec::new()),
    };
    let text = String::from_utf8(bytes)
        .map_err(|_| GatewayError::CheckpointMalformed("retired ranges not utf-8".into()))?;
    let mut lines = text.lines();
    if lines.next() != Some(RETIRED_MAGIC) {
        return Err(GatewayError::CheckpointMalformed(
            "retired ranges missing magic header".into(),
        ));
    }
    let mut out = Vec::new();
    for line in lines {
        let mut parts = line.strip_prefix("range ").unwrap_or("").split(' ');
        match (
            parts.next().and_then(|n| n.parse::<u16>().ok()),
            parts.next().and_then(|n| n.parse::<u16>().ok()),
            parts.next(),
        ) {
            (Some(a), Some(b), None) if a < b => out.push((a, b)),
            _ => {
                return Err(GatewayError::CheckpointMalformed(format!(
                    "retired ranges bad line `{line}`"
                )))
            }
        }
    }
    Ok(out)
}

/// Commits `epoch` as the directory's fence token (tmp + rename, like
/// the checkpoint), through the configured [`Vfs`](crate::vfs::Vfs).
/// A failure here is an open-time error: without a committed token the
/// single-writer guarantee cannot be made.
fn write_fence(config: &WalConfig, epoch: u64) -> Result<(), GatewayError> {
    let text = format!("{FENCE_MAGIC}\nepoch {epoch}\n");
    config
        .vfs
        .create_dir_all(&config.dir)
        .map_err(|e| GatewayError::Io(config.dir.clone(), e))?;
    let tmp = config.dir.join(FENCE_TMP);
    let path = config.dir.join(FENCE_FILE);
    config
        .vfs
        .write_file(&tmp, text.as_bytes())
        .map_err(|e| GatewayError::Io(tmp.clone(), e))?;
    config
        .vfs
        .rename(&tmp, &path)
        .map_err(|e| GatewayError::Io(path, e))
}

/// Reads and parses the checkpoint file, if present, through the
/// configured [`Vfs`](crate::vfs::Vfs).
fn read_checkpoint(config: &WalConfig) -> Result<Option<CheckpointData>, GatewayError> {
    let path = config.dir.join(CHECKPOINT_FILE);
    let bytes = match config.vfs.read(&path) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(GatewayError::Io(path, e)),
    };
    let text = String::from_utf8(bytes)
        .map_err(|_| GatewayError::CheckpointMalformed("checkpoint is not utf-8".into()))?;
    let mut lines = text.splitn(5, '\n');
    if lines.next() != Some(CHECKPOINT_MAGIC) {
        return Err(GatewayError::CheckpointMalformed(
            "missing magic header".into(),
        ));
    }
    let mut header = |tag: &str| {
        lines
            .next()
            .and_then(|l| l.strip_prefix(tag))
            .and_then(|n| n.parse::<u64>().ok())
            .ok_or_else(|| GatewayError::CheckpointMalformed(format!("bad `{tag}` line")))
    };
    let cursor = header("cursor ")?;
    let base_segment = header("base-segment ")?;
    let base_records = header("base ")?;
    if base_segment == 0 {
        return Err(GatewayError::CheckpointMalformed(
            "base-segment must be at least 1".into(),
        ));
    }
    let body = lines.next().unwrap_or("").to_string();
    Ok(Some(CheckpointData {
        cursor,
        base_segment,
        base_records,
        body,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vfs::{FaultPlan, FaultyVfs, StorageFault, StorageFaultSpec};
    use crate::wal::FsyncPolicy;
    use std::fs;
    use std::path::PathBuf;

    fn tmpdir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("sentinet-collector-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn config(dir: &PathBuf) -> GatewayConfig {
        let mut c = GatewayConfig::new(dir);
        c.reorder.watermark_delay = 600;
        c.checkpoint_every = 16;
        c
    }

    /// A small deterministic two-sensor stream.
    fn stream(n: u64) -> Vec<(SensorId, u64, Timestamp, Vec<f64>)> {
        let mut out = Vec::new();
        for i in 0..n {
            let t = 300 * (i + 1);
            for s in 0..2u16 {
                let v = 20.0 + (i % 7) as f64 + s as f64;
                out.push((SensorId(s), i, t, vec![v, v + 30.0]));
            }
        }
        out
    }

    /// Runs the whole stream on a fresh dir and returns the report.
    fn baseline(name: &str, records: &[(SensorId, u64, Timestamp, Vec<f64>)]) -> GatewayReport {
        let dir = tmpdir(name);
        let (mut c, _) = Collector::open(config(&dir)).unwrap();
        for (s, seq, t, v) in records.iter().cloned() {
            assert_eq!(c.deliver(s, seq, t, v).unwrap(), DeliverOutcome::Accepted);
        }
        let report = c.finish().unwrap();
        fs::remove_dir_all(&dir).unwrap();
        report
    }

    /// Runs `stream(4)` through a collector configured by `tweak` on a
    /// fault-free `FaultyVfs` and returns the total fsync count.
    fn fsyncs_for(name: &str, tweak: impl Fn(&mut GatewayConfig)) -> u64 {
        let dir = tmpdir(name);
        let vfs = Arc::new(FaultyVfs::new(FaultPlan::new()));
        let mut cfg = config(&dir);
        cfg.wal.vfs = vfs.clone();
        tweak(&mut cfg);
        let expect_checkpoint = cfg.checkpoint_every != 0;
        let (mut c, _) = Collector::open(cfg).unwrap();
        for (s, seq, t, v) in stream(4) {
            assert_eq!(c.deliver(s, seq, t, v).unwrap(), DeliverOutcome::Accepted);
        }
        c.finish().unwrap();
        assert_eq!(
            dir.join(CHECKPOINT_FILE).exists(),
            expect_checkpoint,
            "checkpoint cadence must behave as configured"
        );
        fs::remove_dir_all(&dir).unwrap();
        vfs.op_count(VfsOp::Fsync)
    }

    /// The checkpoint fast path: when the synced watermark already
    /// covers the cursor (`Wal::unsynced_records() == 0`, as under
    /// `FsyncPolicy::Always`), `write_checkpoint` performs zero fsync
    /// calls — a per-record checkpoint cadence costs exactly as many
    /// fsyncs as no checkpoints at all. Under a lazy policy the same
    /// cadence forces syncs, which pins that the counter would have
    /// caught a regression in the fast path.
    #[test]
    fn checkpoint_adds_no_fsync_when_watermark_covers_cursor() {
        let eager_every = fsyncs_for("ckpt-eager-every", |c| {
            c.wal.fsync = FsyncPolicy::Always;
            c.checkpoint_every = 1;
        });
        let eager_finish_only = fsyncs_for("ckpt-eager-finish", |c| {
            c.wal.fsync = FsyncPolicy::Always;
            // No checkpoints at all: the baseline fsync count.
            c.checkpoint_every = 0;
        });
        assert_eq!(
            eager_every, eager_finish_only,
            "checkpoints on the fast path must not add fsyncs"
        );

        let lazy_every = fsyncs_for("ckpt-lazy-every", |c| {
            c.wal.fsync = FsyncPolicy::Batch(1_000);
            c.checkpoint_every = 1;
        });
        let lazy_finish_only = fsyncs_for("ckpt-lazy-finish", |c| {
            c.wal.fsync = FsyncPolicy::Batch(1_000);
            c.checkpoint_every = 0;
        });
        assert!(
            lazy_every > lazy_finish_only,
            "a lazy policy must show checkpoint-forced syncs \
             ({lazy_every} vs {lazy_finish_only}); otherwise this test \
             could not detect fast-path regressions"
        );
    }

    #[test]
    fn seq_tracker_dedups_and_advances() {
        let mut t = SeqTracker::default();
        assert!(t.is_new(0));
        assert!(t.observe(0));
        assert!(t.observe(2));
        assert!(!t.is_new(0));
        assert!(!t.is_new(2));
        assert!(!t.observe(0));
        assert!(!t.observe(2));
        assert!(t.is_new(1));
        assert!(t.observe(1));
        assert!(!t.observe(1));
        assert!(t.observe(3));
        assert_eq!(t.next, 4);
        assert!(t.above.is_empty());
    }

    #[test]
    fn duplicate_delivery_is_reacked_not_reprocessed() {
        let dir = tmpdir("dup");
        let (mut c, _) = Collector::open(config(&dir)).unwrap();
        for (s, seq, t, v) in stream(20) {
            assert_eq!(c.deliver(s, seq, t, v).unwrap(), DeliverOutcome::Accepted);
        }
        // Redeliver a prefix: all duplicates, all re-acked.
        for (s, seq, t, v) in stream(5) {
            assert_eq!(c.deliver(s, seq, t, v).unwrap(), DeliverOutcome::Duplicate);
        }
        let report = c.finish().unwrap();
        assert_eq!(report.ingest.duplicates, 10);
        assert_eq!(report.ingest.accepted, 40);
        assert!(report.ingest.rejected.is_empty());
        assert!(report.storage.is_clean());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn restart_resumes_bit_identically() {
        let dir_b = tmpdir("resume-b");
        let records = stream(120);
        let baseline = baseline("resume-a", &records);

        // Interrupted run: drop the collector cold mid-stream (the
        // in-process analogue of kill -9), reopen, keep going — with
        // a retransmitted overlap to exercise recovered dedup state.
        let (mut c, _) = Collector::open(config(&dir_b)).unwrap();
        for (s, seq, t, v) in records[..150].iter().cloned() {
            c.deliver(s, seq, t, v).unwrap();
        }
        drop(c); // no finish(), no flush: simulated crash
        let (mut c2, info) = Collector::open(config(&dir_b)).unwrap();
        assert_eq!(info.replayed, 150);
        assert!(info.verified_cursor.is_some(), "checkpoint verified");
        assert_eq!(info.restored_from, None, "full log still present");
        for (s, seq, t, v) in records[140..].iter().cloned() {
            c2.deliver(s, seq, t, v).unwrap();
        }
        let resumed = c2.finish().unwrap();

        assert_eq!(
            format!("{}", baseline.pipeline),
            format!("{}", resumed.pipeline)
        );
        assert_eq!(baseline.ingest.accepted, resumed.ingest.accepted);
        assert_eq!(resumed.ingest.duplicates, 10, "overlap re-acked");
        fs::remove_dir_all(&dir_b).unwrap();
    }

    #[test]
    fn tampered_checkpoint_fails_loudly() {
        let dir = tmpdir("tamper");
        let (mut c, _) = Collector::open(config(&dir)).unwrap();
        for (s, seq, t, v) in stream(40) {
            c.deliver(s, seq, t, v).unwrap();
        }
        drop(c);
        // Corrupt the checkpoint snapshot body.
        let path = dir.join(CHECKPOINT_FILE);
        let text = fs::read_to_string(&path).unwrap();
        fs::write(&path, text.replace("sensor 0", "sensor 9")).unwrap();
        assert!(matches!(
            Collector::open(config(&dir)),
            Err(GatewayError::CheckpointMismatch { .. })
        ));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn silence_deadline_surfaces_silent_sensor() {
        let dir = tmpdir("silence");
        let mut cfg = config(&dir);
        cfg.silence_deadline = Some(900);
        cfg.reorder.watermark_delay = 0;
        let (mut c, _) = Collector::open(cfg).unwrap();
        // Sensor 1 stops reporting at t=600; sensor 0 keeps going.
        let mut seq = [0u64; 2];
        for i in 1..=20u64 {
            let t = 300 * i;
            c.deliver(SensorId(0), seq[0], t, vec![20.0, 50.0]).unwrap();
            seq[0] += 1;
            if t <= 600 {
                c.deliver(SensorId(1), seq[1], t, vec![21.0, 51.0]).unwrap();
                seq[1] += 1;
            }
        }
        let live = c.liveness();
        assert_eq!(live.silent, vec![(SensorId(1), 600)]);
        assert_eq!(live.episodes, 1);
        // It comes back: silence clears but the episode stays counted.
        c.deliver(SensorId(1), seq[1], 6300, vec![21.0, 51.0])
            .unwrap();
        let live = c.liveness();
        assert!(live.is_live());
        assert_eq!(live.episodes, 1);
        let report = c.finish().unwrap();
        assert!(report.liveness.is_live());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fsync_failure_stops_acking_and_restart_replays_bit_identically() {
        let records = stream(40);
        let expect = baseline("fsync-base", &records);

        let dir = tmpdir("fsync-fault");
        let plan = FaultPlan::new().with_fault(StorageFaultSpec {
            path: ".seg".into(),
            op: VfsOp::Fsync,
            nth: 30,
            kind: StorageFault::FsyncFail,
            count: 1,
        });
        let mut cfg = config(&dir);
        cfg.wal.fsync = FsyncPolicy::Always;
        cfg.wal.vfs = Arc::new(FaultyVfs::new(plan));
        let (mut c, _) = Collector::open(cfg).unwrap();
        let mut acked = 0usize;
        let mut rejected = 0usize;
        for (s, seq, t, v) in records.iter().cloned() {
            match c.deliver(s, seq, t, v).unwrap() {
                DeliverOutcome::Accepted => {
                    assert_eq!(rejected, 0, "no ack may follow a storage failure");
                    acked += 1;
                }
                DeliverOutcome::Duplicate => unreachable!("stream has no duplicates"),
                DeliverOutcome::Rejected(cause) => {
                    assert_eq!(cause, RejectCause::Storage);
                    rejected += 1;
                }
            }
        }
        assert!(acked > 0 && rejected > 0, "fault hit mid-stream");
        let status = c.storage_status();
        let err = status.error.expect("wal poisoned");
        assert_eq!(err.op, VfsOp::Fsync, "typed error names the fsync");
        assert_eq!(status.storage_rejects, rejected);
        let report = c.finish().unwrap();
        assert!(report.storage.error.is_some(), "report carries the error");

        // Restart on healthy storage: the acked prefix replays, and
        // redelivering the whole stream converges to the clean run.
        let (mut c2, info) = Collector::open(config(&dir)).unwrap();
        assert!(info.replayed >= acked as u64, "every acked record survived");
        for (s, seq, t, v) in records.iter().cloned() {
            assert!(matches!(
                c2.deliver(s, seq, t, v).unwrap(),
                DeliverOutcome::Accepted | DeliverOutcome::Duplicate
            ));
        }
        let resumed = c2.finish().unwrap();
        assert_eq!(
            format!("{}", expect.pipeline),
            format!("{}", resumed.pipeline)
        );
        assert_eq!(expect.ingest.accepted, resumed.ingest.accepted);
        assert!(resumed.storage.is_clean());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn retention_keeps_wal_under_budget_and_restores_byte_equal() {
        let records = stream(150);
        let expect = baseline("retain-base", &records);

        let dir = tmpdir("retain");
        let frame = 21 + 8 * 2 + 8; // framed_len of a 2-value record
        let budget = 4 * 16 * frame;
        let mut cfg = config(&dir);
        cfg.wal.segment_max_bytes = 16 * frame;
        cfg.wal.retain_bytes = Some(budget);
        let (mut c, _) = Collector::open(cfg.clone()).unwrap();
        for (s, seq, t, v) in records[..200].iter().cloned() {
            assert_eq!(c.deliver(s, seq, t, v).unwrap(), DeliverOutcome::Accepted);
            assert!(c.wal_footprint() <= budget, "soak holds the budget");
        }
        let status = c.storage_status();
        assert!(status.reclaimed_segments > 0, "retention reclaimed");
        assert_eq!(status.budget_shed, 0, "nothing shed under this budget");
        drop(c); // crash

        // The prefix is gone, so recovery must restore the snapshot.
        let (mut c2, info) = Collector::open(cfg.clone()).unwrap();
        let restored = info.restored_from.expect("restore point used");
        assert!(restored > 0 && info.replayed < 200);
        for (s, seq, t, v) in records[190..].iter().cloned() {
            let out = c2.deliver(s, seq, t, v).unwrap();
            assert!(matches!(
                out,
                DeliverOutcome::Accepted | DeliverOutcome::Duplicate
            ));
            assert!(c2.wal_footprint() <= budget);
        }
        let resumed = c2.finish().unwrap();
        assert_eq!(
            format!("{}", expect.pipeline),
            format!("{}", resumed.pipeline),
            "retained run byte-equal to the unretained one"
        );
        assert_eq!(expect.ingest.accepted, resumed.ingest.accepted);
        assert_eq!(resumed.ingest.duplicates, 10, "overlap re-acked");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn crash_between_checkpoint_commit_and_delete_recovers() {
        let records = stream(120);
        let expect = baseline("leftover-base", &records);

        // Every segment deletion fails: on-disk state is exactly a
        // crash between checkpoint rename-commit and the deletes.
        let dir = tmpdir("leftover");
        let plan = FaultPlan::new().with_fault(StorageFaultSpec {
            path: ".seg".into(),
            op: VfsOp::Remove,
            nth: 1,
            kind: StorageFault::Enospc,
            count: u32::MAX,
        });
        let frame = 21 + 8 * 2 + 8;
        let mut cfg = config(&dir);
        cfg.wal.segment_max_bytes = 16 * frame;
        cfg.wal.retain_bytes = Some(4 * 16 * frame);
        let mut faulty = cfg.clone();
        faulty.wal.vfs = Arc::new(FaultyVfs::new(plan));
        let (mut c, _) = Collector::open(faulty).unwrap();
        for (s, seq, t, v) in records[..200].iter().cloned() {
            assert_eq!(c.deliver(s, seq, t, v).unwrap(), DeliverOutcome::Accepted);
        }
        let status = c.storage_status();
        assert!(status.reclaim_failures > 0, "deletes failed");
        assert_eq!(status.reclaimed_segments, 0);
        assert!(status.error.is_none(), "delete failure does not poison");
        drop(c); // crash with leftover segments on disk

        // Recovery deletes the leftovers below the committed base and
        // continues bit-identically on healthy storage.
        assert!(dir.join("wal-00000001.seg").exists(), "leftover present");
        let (mut c2, info) = Collector::open(cfg).unwrap();
        assert!(!dir.join("wal-00000001.seg").exists(), "leftover removed");
        assert!(info.restored_from.is_some());
        for (s, seq, t, v) in records[190..].iter().cloned() {
            c2.deliver(s, seq, t, v).unwrap();
        }
        let resumed = c2.finish().unwrap();
        assert_eq!(
            format!("{}", expect.pipeline),
            format!("{}", resumed.pipeline)
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn budget_exhaustion_sheds_with_counted_nacks() {
        // Checkpoints never commit (rename always fails), so retention
        // can never reclaim: once the budget fills, deliveries are
        // NACKed as WalBudget, not silently dropped and never acked.
        let dir = tmpdir("shed");
        let plan = FaultPlan::new().with_fault(StorageFaultSpec {
            path: CHECKPOINT_FILE.into(),
            op: VfsOp::Rename,
            nth: 1,
            kind: StorageFault::Enospc,
            count: u32::MAX,
        });
        let frame: u64 = 21 + 8 * 2 + 8;
        let mut cfg = config(&dir);
        cfg.wal.retain_bytes = Some(3 * frame);
        cfg.wal.vfs = Arc::new(FaultyVfs::new(plan));
        let (mut c, _) = Collector::open(cfg).unwrap();
        let mut acked = 0usize;
        let mut shed = 0usize;
        for (s, seq, t, v) in stream(10) {
            match c.deliver(s, seq, t, v).unwrap() {
                DeliverOutcome::Accepted => acked += 1,
                DeliverOutcome::Rejected(RejectCause::WalBudget) => shed += 1,
                other => unreachable!("unexpected outcome {other:?}"),
            }
        }
        assert_eq!(acked, 3, "budget holds exactly three frames");
        assert_eq!(shed, 17);
        let status = c.storage_status();
        assert_eq!(status.budget_shed, 17);
        assert!(status.checkpoint_failures > 0, "commit failures counted");
        assert!(status.error.is_none(), "shedding is not poisoning");
        let report = c.finish().unwrap();
        assert_eq!(report.storage.budget_shed, 17);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn seeded_fault_sweep_always_recovers_to_baseline() {
        // Kill-anywhere property: whatever a seeded fault schedule
        // does to a run, restarting on healthy storage and
        // redelivering the stream converges to the clean baseline.
        let records = stream(30);
        let expect = baseline("sweep-base", &records);
        for seed in 0..12u64 {
            let dir = tmpdir(&format!("sweep-{seed}"));
            let plan = FaultPlan::seeded(seed, &[".seg", CHECKPOINT_FILE, CHECKPOINT_TMP], 3);
            let mut cfg = config(&dir);
            cfg.wal.fsync = FsyncPolicy::Batch(4);
            cfg.wal.segment_max_bytes = 512;
            cfg.wal.vfs = Arc::new(FaultyVfs::new(plan));
            if let Ok((mut c, _)) = Collector::open(cfg) {
                for (s, seq, t, v) in records.iter().cloned() {
                    if c.deliver(s, seq, t, v).is_err() {
                        break; // treat as a crash
                    }
                }
                drop(c); // crash without finish
            }
            let (mut c, _) = Collector::open(config(&dir))
                .unwrap_or_else(|e| panic!("seed {seed}: clean reopen failed: {e}"));
            for (s, seq, t, v) in records.iter().cloned() {
                let out = c.deliver(s, seq, t, v).unwrap();
                assert!(
                    matches!(out, DeliverOutcome::Accepted | DeliverOutcome::Duplicate),
                    "seed {seed}: healthy storage must ack ({out:?})"
                );
            }
            let report = c.finish().unwrap();
            assert_eq!(
                format!("{}", expect.pipeline),
                format!("{}", report.pipeline),
                "seed {seed}: recovery diverged from baseline"
            );
            fs::remove_dir_all(&dir).unwrap();
        }
    }

    /// Epoch fencing, happy path: a successor at a newer epoch commits
    /// its fence token on open; the superseded collector then refuses
    /// to reopen (`GatewayError::Fenced`) — the single-writer claim is
    /// durable before the successor ever appends.
    #[test]
    fn stale_epoch_cannot_reopen_fenced_wal() {
        let dir = tmpdir("fence-reopen");
        let mut cfg = config(&dir);
        cfg.epoch = 1;
        let (mut c, _) = Collector::open(cfg).unwrap();
        for (s, seq, t, v) in stream(4) {
            assert_eq!(c.deliver(s, seq, t, v).unwrap(), DeliverOutcome::Accepted);
        }
        drop(c); // crash without finish; epoch-1 token stays committed

        // Failover: a successor adopts the dir at epoch 2.
        let mut cfg = config(&dir);
        cfg.epoch = 2;
        let (c2, rec) = Collector::open(cfg).unwrap();
        assert_eq!(rec.replayed, 8);
        assert_eq!(c2.epoch(), 2);
        drop(c2);

        // The partitioned-away epoch-1 owner heals and tries to come
        // back: it must fail-stop at open, not race the successor.
        let mut cfg = config(&dir);
        cfg.epoch = 1;
        match Collector::open(cfg) {
            Err(GatewayError::Fenced {
                persisted,
                configured,
            }) => {
                assert_eq!((persisted, configured), (2, 1));
            }
            other => panic!("stale reopen must be fenced, got {other:?}"),
        }
        // An unfenced (epoch 0) open still works — standalone
        // single-collector deployments never see fencing.
        let (mut c3, _) = Collector::open(config(&dir)).unwrap();
        for (s, seq, t, v) in stream(4) {
            assert_eq!(c3.deliver(s, seq, t, v).unwrap(), DeliverOutcome::Duplicate);
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Epoch fencing, live path: a collector that *observes* a newer
    /// epoch on the wire (Hello/Heartbeat from a newer-epoch peer)
    /// fail-stops its deliver path with typed `Fenced` rejects and
    /// counts them; the WAL gains no interleaved appends.
    #[test]
    fn wire_observed_newer_epoch_fences_deliveries() {
        let dir = tmpdir("fence-wire");
        let mut cfg = config(&dir);
        cfg.epoch = 1;
        let (mut c, _) = Collector::open(cfg).unwrap();
        assert_eq!(
            c.deliver(SensorId(0), 0, 300, vec![20.0, 50.0]).unwrap(),
            DeliverOutcome::Accepted
        );
        c.observe_epoch(2); // a successor announced itself
        for seq in 1..4u64 {
            assert_eq!(
                c.deliver(SensorId(0), seq, 300 * (seq + 1), vec![21.0, 51.0])
                    .unwrap(),
                DeliverOutcome::Rejected(RejectCause::Fenced)
            );
        }
        let readings: Vec<(Timestamp, Vec<f64>)> =
            vec![(1500, vec![22.0, 52.0]), (1800, vec![23.0, 53.0])];
        let out = c.deliver_batch(SensorId(0), 4, &readings).unwrap();
        assert_eq!(out.nack, Some((4, RejectCause::Fenced)));
        assert_eq!(out.rejected, 2);
        let status = c.storage_status();
        assert_eq!(status.fence_rejects, 5);
        assert_eq!(status.fenced_by, Some(2));
        assert!(
            status.is_clean(),
            "fencing is an orderly fail-stop, not storage degradation"
        );
        drop(c);
        // No interleaved appends: an unfenced reopen replays only the
        // single record accepted before the newer epoch was observed.
        let (_, rec) = Collector::open(config(&dir)).unwrap();
        assert_eq!(rec.replayed, 1, "a fenced collector must not append");
        fs::remove_dir_all(&dir).unwrap();
    }

    /// `FenceCheck::Skip` is the mutation seam: with the check
    /// disabled, a stale collector reopens and appends straight past a
    /// newer committed epoch — exactly the split-brain the nemesis
    /// campaign must catch (see `xtask nemesis --mutate`).
    #[test]
    fn fence_check_skip_admits_split_brain() {
        let dir = tmpdir("fence-skip");
        let mut cfg = config(&dir);
        cfg.epoch = 2;
        let (c, _) = Collector::open(cfg).unwrap();
        drop(c);
        let mut cfg = config(&dir);
        cfg.epoch = 1;
        cfg.fence = FenceCheck::Skip;
        let (mut zombie, _) = Collector::open(cfg).expect("skip must admit the stale epoch");
        zombie.observe_epoch(2);
        assert_eq!(
            zombie
                .deliver(SensorId(0), 0, 300, vec![20.0, 50.0])
                .unwrap(),
            DeliverOutcome::Accepted,
            "the broken build appends where the shipped one fail-stops"
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Pre-warm: a standby that cached the latest checkpoint bytes
    /// opens with `RecoveryInfo::prewarmed` set; stale or absent cache
    /// bytes fall back to a cold open with the same end state.
    #[test]
    fn prewarmed_open_matches_cold_open() {
        let dir = tmpdir("prewarm");
        let mut cfg = config(&dir);
        cfg.checkpoint_every = 4;
        let (mut c, _) = Collector::open(cfg).unwrap();
        let records = stream(8);
        for (s, seq, t, v) in records.iter().cloned() {
            assert_eq!(c.deliver(s, seq, t, v).unwrap(), DeliverOutcome::Accepted);
        }
        drop(c);
        let snapshot = fs::read(dir.join(CHECKPOINT_FILE)).unwrap();

        let (cold, cold_rec) = Collector::open(config(&dir)).unwrap();
        assert!(!cold_rec.prewarmed);
        let cold_cursor = cold.checkpoint_cursor();
        drop(cold);

        let (warm, warm_rec) = Collector::open_prewarmed(config(&dir), Some(&snapshot)).unwrap();
        assert!(warm_rec.prewarmed, "matching cache bytes count as warm");
        assert_eq!(warm_rec.replayed, cold_rec.replayed);
        assert_eq!(warm.checkpoint_cursor(), cold_cursor);
        drop(warm);

        let (_, stale_rec) =
            Collector::open_prewarmed(config(&dir), Some(b"sentinet-checkpoint stale")).unwrap();
        assert!(!stale_rec.prewarmed, "stale cache bytes are a cold open");
        fs::remove_dir_all(&dir).unwrap();
    }

    /// The migration cut, source side: exporting a range retires it
    /// (deliveries NACK as fenced, batch and single alike) while the
    /// surviving range keeps ingesting.
    #[test]
    fn export_range_retires_and_nacks_the_moved_range() {
        let dir = tmpdir("migrate-export");
        let (mut c, _) = Collector::open(config(&dir)).unwrap();
        for (s, seq, t, v) in stream(20) {
            assert_eq!(c.deliver(s, seq, t, v).unwrap(), DeliverOutcome::Accepted);
        }
        let (inside, cursor) = c.export_range(1..2).unwrap();
        assert_eq!(cursor, 40, "the cut sits at the current WAL cursor");
        assert_eq!(inside.seqs.len(), 1, "sensor 1 travels");
        assert_eq!(c.retired_ranges(), &[(1, 2)]);
        assert_eq!(
            c.deliver(SensorId(1), 20, 6300, vec![20.0, 50.0]).unwrap(),
            DeliverOutcome::Rejected(RejectCause::Fenced),
            "the moved range must NACK at the source"
        );
        let out = c
            .deliver_batch(SensorId(1), 21, &[(6600, vec![21.0, 51.0])])
            .unwrap();
        assert_eq!(out.nack, Some((21, RejectCause::Fenced)));
        assert_eq!(
            c.deliver(SensorId(0), 20, 6300, vec![20.0, 50.0]).unwrap(),
            DeliverOutcome::Accepted,
            "the surviving range keeps ingesting"
        );
        assert_eq!(c.storage_status().fence_rejects, 2);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// A restart after the cut restores the post-cut (outside-only)
    /// state bit-exactly and keeps NACKing the retired range — the
    /// pre-cut log never replays the moved sensors back to life.
    #[test]
    fn export_survives_restart_with_outside_only_state() {
        let dir = tmpdir("migrate-restart");
        let (mut c, _) = Collector::open(config(&dir)).unwrap();
        for (s, seq, t, v) in stream(20) {
            assert_eq!(c.deliver(s, seq, t, v).unwrap(), DeliverOutcome::Accepted);
        }
        let (_, cursor) = c.export_range(1..2).unwrap();
        let outside = encode_collector(&c.snapshot());
        drop(c); // crash without finish

        let (mut c2, info) = Collector::open(config(&dir)).unwrap();
        assert_eq!(
            info.restored_from,
            Some(cursor),
            "restore mode after the cut"
        );
        assert_eq!(info.replayed, 0);
        assert_eq!(encode_collector(&c2.snapshot()), outside);
        assert_eq!(
            c2.deliver(SensorId(1), 20, 6300, vec![20.0, 50.0]).unwrap(),
            DeliverOutcome::Rejected(RejectCause::Fenced),
            "retirement survives the restart"
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Re-driving an interrupted cut returns the staged payload: the
    /// second call yields byte-identical snapshot and cursor, and the
    /// live state is unchanged.
    #[test]
    fn export_range_is_idempotent_under_retry() {
        let dir = tmpdir("migrate-retry");
        let (mut c, _) = Collector::open(config(&dir)).unwrap();
        for (s, seq, t, v) in stream(20) {
            assert_eq!(c.deliver(s, seq, t, v).unwrap(), DeliverOutcome::Accepted);
        }
        let (first, cursor) = c.export_range(1..2).unwrap();
        let outside = encode_collector(&c.snapshot());
        let (again, cursor_again) = c.export_range(1..2).unwrap();
        assert_eq!(cursor_again, cursor);
        assert_eq!(encode_collector(&again), encode_collector(&first));
        assert_eq!(encode_collector(&c.snapshot()), outside);
        assert_eq!(c.retired_ranges(), &[(1, 2)]);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// The migration landing, destination side: installing the shipped
    /// snapshot into a fresh directory and opening it rebuilds the
    /// moved range's state — dedup history included, so a retransmitted
    /// pre-cut record re-acks as a duplicate instead of double-counting.
    #[test]
    fn install_snapshot_restores_the_moved_range_on_a_fresh_dir() {
        let src = tmpdir("migrate-src");
        let dst = tmpdir("migrate-dst");
        let (mut c, _) = Collector::open(config(&src)).unwrap();
        let records = stream(20);
        for (s, seq, t, v) in records.iter().cloned() {
            assert_eq!(c.deliver(s, seq, t, v).unwrap(), DeliverOutcome::Accepted);
        }
        let (inside, cursor) = c.export_range(1..2).unwrap();
        drop(c);

        Collector::install_snapshot(&config(&dst), &inside, cursor).unwrap();
        let (mut d, info) = Collector::open(config(&dst)).unwrap();
        assert_eq!(info.restored_from, Some(cursor));
        assert_eq!(encode_collector(&d.snapshot()), encode_collector(&inside));
        // A pre-cut retransmission: the shipped dedup state absorbs it.
        let (s, seq, t, v) = records
            .iter()
            .find(|(s, _, _, _)| *s == SensorId(1))
            .cloned()
            .unwrap();
        assert_eq!(d.deliver(s, seq, t, v).unwrap(), DeliverOutcome::Duplicate);
        // The tail above the cut lands normally.
        assert_eq!(
            d.deliver(SensorId(1), 20, 6300, vec![20.0, 50.0]).unwrap(),
            DeliverOutcome::Accepted
        );
        // Installing over existing state must refuse loudly.
        match Collector::install_snapshot(&config(&dst), &inside, cursor) {
            Err(GatewayError::MigrationCut(_)) => {}
            other => panic!("install over live state must fail, got {other:?}"),
        }
        fs::remove_dir_all(&src).unwrap();
        fs::remove_dir_all(&dst).unwrap();
    }

    /// The abort path: importing the staged payload back un-retires
    /// the range and restores the pre-cut state bit-exactly, and the
    /// range accepts deliveries again.
    #[test]
    fn import_range_reverses_an_export() {
        let dir = tmpdir("migrate-abort");
        let (mut c, _) = Collector::open(config(&dir)).unwrap();
        for (s, seq, t, v) in stream(20) {
            assert_eq!(c.deliver(s, seq, t, v).unwrap(), DeliverOutcome::Accepted);
        }
        let before = encode_collector(&c.snapshot());
        let (inside, _) = c.export_range(1..2).unwrap();
        c.import_range(1..2, &inside).unwrap();
        assert_eq!(encode_collector(&c.snapshot()), before);
        assert!(c.retired_ranges().is_empty());
        assert!(!dir.join("outbox-1-2.ck").exists(), "outbox cleared");
        assert_eq!(
            c.deliver(SensorId(1), 20, 6300, vec![20.0, 50.0]).unwrap(),
            DeliverOutcome::Accepted
        );
        // The abort survives a restart too.
        drop(c);
        let (c2, _) = Collector::open(config(&dir)).unwrap();
        assert!(c2.retired_ranges().is_empty());
        fs::remove_dir_all(&dir).unwrap();
    }

    /// The cut mutation seam: under [`CutCheck::Skip`] the export
    /// still retires the range and rebases onto the outside half, but
    /// the shipped snapshot is empty — the admitted inside readings
    /// vanish. The nemesis migration campaign must catch exactly this.
    #[test]
    fn cut_check_skip_ships_an_empty_inside_snapshot() {
        let dir = tmpdir("migrate-cut-skip");
        let mut cfg = config(&dir);
        cfg.cut = CutCheck::Skip;
        let (mut c, _) = Collector::open(cfg).unwrap();
        for (s, seq, t, v) in stream(20) {
            assert_eq!(c.deliver(s, seq, t, v).unwrap(), DeliverOutcome::Accepted);
        }
        let (inside, cursor) = c.export_range(1..2).unwrap();
        assert_eq!(cursor, 40, "the cut coordinate is unchanged");
        assert!(inside.seqs.is_empty(), "the moved state was dropped");
        assert_eq!(inside.accepted, 0);
        assert_eq!(c.retired_ranges(), &[(1, 2)], "the range still retires");
        assert_eq!(
            c.deliver(SensorId(1), 20, 6300, vec![20.0, 50.0]).unwrap(),
            DeliverOutcome::Rejected(RejectCause::Fenced),
            "the source still NACKs the moved range"
        );
        fs::remove_dir_all(&dir).unwrap();
    }
}

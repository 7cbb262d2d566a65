//! Exhaustive protocol/durability model checker for the pipelined
//! uplink.
//!
//! The pipelined protocol is a concurrent state machine — credit windows, cumulative `AckUpTo` acks, a
//! group-commit WAL whose fsync watermark gates ack release — and its
//! correctness is otherwise covered only by *sampled* proptests. This
//! module closes the gap the way the shard-schedule checker
//! ([`crate::model_check`]) does for the engine: every place the real
//! system leaves an order to the scheduler becomes an explicit choice
//! point of a depth-first [`Schedule`], and every complete assignment
//! of choices is executed against the **real** implementation.
//!
//! Nothing protocol-critical is re-implemented. Episodes drive
//! [`StepServer`] — the gateway's injectable step seam — so batch
//! admission is the real `Collector::deliver_batch`, dedup is the real
//! `SeqTracker`, appends are the real `Wal::append_many` running over
//! a [`FaultyVfs`] on a real scratch directory, and frame decoding is
//! the real `FrameBuffer` fed the exact bytes `encode_frame` put on
//! the wire. The checker's own client/network model is only the part
//! the server cannot see: per-sensor batch queues under the granted
//! credit window, in-order per-connection delivery, retransmit on
//! timeout, reconnect-and-requeue on connection loss. A mirror
//! [`SeqTracker`] per sensor doubles as the formal spec of the ack
//! arithmetic and is cross-checked against every cumulative ack the
//! server queues.
//!
//! Four bounded sub-spaces are explored exhaustively (every schedule
//! up to the per-episode choice budget; remaining choices resolve to
//! the first enabled action, so every episode still runs to
//! completion):
//!
//! 1. **interleave** — 2 sensors × 3 batches × credit window 2, plus a
//!    retransmit-timeout budget: all delivery/commit orders.
//! 2. **reconnect** — a connection death (frames in flight on both
//!    directions are lost, queued acks dropped, client requeues) at
//!    every schedule point.
//! 3. **crash** — at every point where the WAL holds unsynced bytes,
//!    the process is killed and the on-disk segment truncated at every
//!    record boundary past the fsync watermark plus a torn tear inside
//!    each record; the collector is reopened and the episode resumes
//!    with clients retransmitting.
//! 4. **poison** — the first WAL fsync fails ([`StorageFault::FsyncFail`]
//!    via the fault plan), poisoning the log; the server must NACK
//!    from then on and never release another ack.
//!
//! Checked invariants (each with the episode trace printed on
//! violation — exploration is deterministic, so the trace plus the
//! choice vector *is* the seed-free reproducer):
//!
//! * **I1 credit** — a client never has more batches in flight than
//!   the `HelloAck` granted.
//! * **I2 ack-durability** — every released `AckUpTo` covers only
//!   records the WAL's synced cursor already covers (this is the
//!   invariant [`AckDiscipline::Eager`] deliberately breaks).
//! * **I3 ack-coherence** — every queued cumulative ack equals the
//!   mirror `SeqTracker` watermark, and its WAL cursor equals the
//!   records logged.
//! * **I4 crash-durability** — after a crash + truncation anywhere at
//!   or past the fsync watermark, replay recovers exactly the
//!   surviving log prefix: nothing a client was acked is lost, and no
//!   `(sensor, seq)` is ever logged twice (retransmissions of the torn
//!   tail are absorbed by dedup).
//! * **I5 poisoned-never-acks** — after storage poisons the WAL, no
//!   further ack is released (subsumed by I2, asserted directly too).
//! * **Completion** — every fault-free episode ends with every reading
//!   durable, every batch acked, and the final on-disk log containing
//!   each reading exactly once (verified by re-opening the real WAL
//!   and walking its records).

use crate::model_check::Schedule;
use sentinet_gateway::frame::encode_frame;
use sentinet_gateway::{
    AckDiscipline, Collector, FaultPlan, FaultyVfs, FsyncPolicy, GatewayConfig, Message, QueuedAck,
    SeqTracker, StepEvent, StepServer, StorageFault, StorageFaultSpec, VfsOp, Wal, WalRecord,
    PROTOCOL_VERSION,
};
use sentinet_sim::SensorId;
use std::collections::{BTreeSet, VecDeque};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Sensors per episode.
const SENSORS: usize = 2;
/// Batches each sensor must deliver.
const BATCHES: u64 = 3;
/// Readings per batch.
const READINGS_PER_BATCH: u64 = 2;
/// Credit window the server grants (and the client honors).
const CREDITS: u32 = 2;
/// Sequence numbers 0..TOTAL_SEQS per sensor.
const TOTAL_SEQS: u64 = BATCHES * READINGS_PER_BATCH;

/// How deep the exhaustive frontier goes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Small budgets for unit tests (hundreds of episodes, < 1 s).
    Quick,
    /// CI budgets (tens of thousands of transitions).
    Full,
}

/// One bounded sub-space of the model.
#[derive(Clone, Copy)]
struct SpaceCfg {
    name: &'static str,
    /// Nondeterministic choices resolved by the schedule per episode;
    /// choices past the budget take the first enabled action.
    choice_budget: usize,
    /// Retransmit-timeout actions allowed per episode.
    timeout_budget: u32,
    /// Connection-death actions allowed per episode.
    reset_budget: u32,
    /// Crash-and-recover actions allowed per episode.
    crash_budget: u32,
    /// Fail the first WAL fsync (poisoning the log).
    poison: bool,
    discipline: AckDiscipline,
}

/// A violated invariant plus everything needed to reproduce it: the
/// exploration is deterministic, so the choice vector is a seed-free
/// coordinate of the failing schedule and the trace is the full
/// episode history.
#[derive(Debug)]
pub struct Violation {
    /// Which sub-space the episode belonged to.
    pub space: &'static str,
    /// Which invariant broke (I1..I5, completion, or harness).
    pub invariant: &'static str,
    /// What exactly was observed.
    pub detail: String,
    /// The schedule coordinate (choice index at each branch point).
    pub choices: Vec<usize>,
    /// Every transition of the failing episode, in order.
    pub trace: Vec<String>,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "protocol-check: invariant {} violated in space '{}'",
            self.invariant, self.space
        )?;
        writeln!(f, "  {}", self.detail)?;
        writeln!(f, "  schedule choices: {:?}", self.choices)?;
        writeln!(f, "  counterexample trace ({} steps):", self.trace.len())?;
        for (i, line) in self.trace.iter().enumerate() {
            writeln!(f, "    {i:3}. {line}")?;
        }
        Ok(())
    }
}

/// Exploration totals for one sub-space.
#[derive(Debug, Default, Clone, Copy)]
pub struct SpaceReport {
    /// Complete episodes executed (= schedules explored).
    pub episodes: u64,
    /// Transitions (actions) executed across all episodes.
    pub transitions: u64,
}

/// Exploration totals across all sub-spaces.
#[derive(Debug, Default)]
pub struct ProtocolReport {
    /// Per-space totals, in exploration order.
    pub spaces: Vec<(&'static str, SpaceReport)>,
}

impl ProtocolReport {
    /// Total episodes across spaces.
    pub fn episodes(&self) -> u64 {
        self.spaces.iter().map(|(_, r)| r.episodes).sum()
    }

    /// Total transitions (explored states) across spaces.
    pub fn transitions(&self) -> u64 {
        self.spaces.iter().map(|(_, r)| r.transitions).sum()
    }
}

/// Budgeted facade over [`Schedule`]: the first `budget` branch points
/// of an episode are schedule-controlled (exhaustively explored); the
/// rest take the first enabled action so the episode always completes.
struct Chooser<'a> {
    schedule: &'a mut Schedule,
    budget: usize,
    used: usize,
}

impl Chooser<'_> {
    fn pick(&mut self, width: usize) -> usize {
        if width <= 1 || self.used >= self.budget {
            return 0;
        }
        self.used += 1;
        self.schedule.choose(width)
    }
}

/// One batch the client model owns end to end.
#[derive(Clone)]
struct Batch {
    first_seq: u64,
    readings: Vec<(u64, Vec<f64>)>,
    /// NACKs this batch has received (two = the client gives up).
    nacks: u32,
}

impl Batch {
    fn last_seq(&self) -> u64 {
        self.first_seq + self.readings.len() as u64 - 1
    }
}

/// The client-side model: everything the server cannot observe.
struct Client {
    sensor: SensorId,
    conn: usize,
    credits: u32,
    to_send: VecDeque<Batch>,
    inflight: VecDeque<Batch>,
    /// Highest cumulative ack received.
    acked: Option<u64>,
    gave_up: bool,
}

#[derive(Clone, Copy, Debug)]
enum Action {
    /// Client consumes the front server→client message.
    DeliverAck(usize),
    /// Server consumes the front client→server frame.
    Deliver(usize),
    /// Client puts its next batch on the wire (consumes a credit).
    Send(usize),
    /// The queue runs dry: group commit + ack release.
    Commit,
    /// Client retransmits its oldest unacked batch.
    Timeout(usize),
    /// The connection dies; in-flight frames both ways are lost.
    Reset(usize),
    /// `kill -9` + disk truncation anywhere past the fsync watermark.
    Crash,
}

type EpisodeError = (&'static str, String);

struct Episode<'a> {
    cfg: &'a SpaceCfg,
    gw_cfg: GatewayConfig,
    server: Option<StepServer>,
    clients: Vec<Client>,
    /// In-order client→server wire, one per sensor (TCP semantics).
    c2s: Vec<VecDeque<Batch>>,
    /// In-order server→client wire, one per sensor.
    s2c: Vec<VecDeque<Message>>,
    /// Mirror spec: the real dedup arithmetic, advanced in lockstep.
    trackers: Vec<SeqTracker>,
    /// Mirror of the WAL append order.
    logged: Vec<(u16, u64)>,
    /// Framed byte length of each logged record (crash offsets).
    framed: Vec<u64>,
    timeouts_left: u32,
    resets_left: u32,
    crashes_left: u32,
    /// Set once a commit observes the WAL poisoned.
    poisoned: bool,
    trace: Vec<String>,
    transitions: u64,
}

fn gateway_config(dir: &Path, poison: bool) -> GatewayConfig {
    let mut plan = FaultPlan::new();
    if poison {
        plan = plan.with_fault(StorageFaultSpec {
            path: ".seg".into(),
            op: VfsOp::Fsync,
            nth: 1,
            kind: StorageFault::FsyncFail,
            count: 1,
        });
    }
    let mut cfg = GatewayConfig::new(dir);
    // Checkpoints off: crash recovery must come from the log alone,
    // and the checkpoint fsync would blur the Batch-policy watermark.
    cfg.checkpoint_every = 0;
    // A batch threshold no episode reaches: the *only* fsyncs are the
    // explicit group commits, so the synced cursor moves exactly when
    // the schedule says Commit — the Durable/Eager distinction (and
    // every crash window) stays observable.
    cfg.wal.fsync = FsyncPolicy::Batch(1_000_000);
    cfg.wal.segment_max_bytes = 1 << 30;
    cfg.wal.vfs = Arc::new(FaultyVfs::new(plan));
    cfg
}

fn harness_err(detail: String) -> EpisodeError {
    ("harness", detail)
}

impl<'a> Episode<'a> {
    fn new(cfg: &'a SpaceCfg, dir: &Path) -> Result<Self, EpisodeError> {
        let _ = std::fs::remove_dir_all(dir);
        let gw_cfg = gateway_config(dir, cfg.poison);
        let (collector, _) = Collector::open(gw_cfg.clone())
            .map_err(|e| harness_err(format!("fresh open failed: {e}")))?;
        let server = StepServer::new(collector, CREDITS, cfg.discipline);
        let clients = (0..SENSORS)
            .map(|s| {
                let mut to_send = VecDeque::new();
                for b in 0..BATCHES {
                    let first_seq = b * READINGS_PER_BATCH;
                    let readings = (0..READINGS_PER_BATCH)
                        .map(|r| {
                            let seq = first_seq + r;
                            ((seq + 1) * 300, vec![s as f64 * 100.0 + seq as f64])
                        })
                        .collect();
                    to_send.push_back(Batch {
                        first_seq,
                        readings,
                        nacks: 0,
                    });
                }
                Client {
                    sensor: SensorId(s as u16),
                    conn: usize::MAX,
                    credits: CREDITS,
                    to_send,
                    inflight: VecDeque::new(),
                    acked: None,
                    gave_up: false,
                }
            })
            .collect();
        let mut ep = Self {
            cfg,
            gw_cfg,
            server: Some(server),
            clients,
            c2s: (0..SENSORS).map(|_| VecDeque::new()).collect(),
            s2c: (0..SENSORS).map(|_| VecDeque::new()).collect(),
            trackers: (0..SENSORS).map(|_| SeqTracker::default()).collect(),
            logged: Vec::new(),
            framed: Vec::new(),
            timeouts_left: cfg.timeout_budget,
            resets_left: cfg.reset_budget,
            crashes_left: cfg.crash_budget,
            poisoned: false,
            trace: Vec::new(),
            transitions: 0,
        };
        for s in 0..SENSORS {
            ep.handshake(s)?;
        }
        Ok(ep)
    }

    fn server_mut(&mut self) -> &mut StepServer {
        // Only Crash takes the server out, and it puts a new one back
        // before returning.
        self.server.as_mut().expect("server alive")
    }

    fn handshake(&mut self, s: usize) -> Result<(), EpisodeError> {
        let server = self.server.as_mut().expect("server alive");
        let conn = server.connect();
        server.feed(
            conn,
            &encode_frame(&Message::Hello {
                version: PROTOCOL_VERSION,
                epoch: 0,
            }),
        );
        let event = server
            .step(conn)
            .map_err(|e| harness_err(format!("handshake step failed: {e}")))?;
        match event {
            StepEvent::Replies(replies) => match replies.as_slice() {
                [(c, Message::HelloAck { credits, .. })] if *c == conn => {
                    self.clients[s].conn = conn;
                    self.clients[s].credits = *credits;
                    Ok(())
                }
                other => Err(harness_err(format!(
                    "handshake: unexpected replies {other:?}"
                ))),
            },
            other => Err(harness_err(format!(
                "handshake: unexpected event {other:?}"
            ))),
        }
    }

    /// Enabled actions in deterministic priority order; index 0 is the
    /// past-budget default, so draining (acks, wires, sends) comes
    /// before the adversarial moves.
    fn enabled(&self) -> Vec<Action> {
        let mut actions = Vec::new();
        for s in 0..SENSORS {
            if !self.s2c[s].is_empty() {
                actions.push(Action::DeliverAck(s));
            }
        }
        for s in 0..SENSORS {
            if !self.c2s[s].is_empty() {
                actions.push(Action::Deliver(s));
            }
        }
        for (s, client) in self.clients.iter().enumerate() {
            if !client.gave_up
                && !client.to_send.is_empty()
                && (client.inflight.len() as u32) < client.credits
            {
                actions.push(Action::Send(s));
            }
        }
        let server = self.server.as_ref().expect("server alive");
        if !server.pending_acks().is_empty() && !self.poisoned {
            actions.push(Action::Commit);
        }
        if self.timeouts_left > 0 {
            for (s, client) in self.clients.iter().enumerate() {
                if !client.inflight.is_empty() {
                    actions.push(Action::Timeout(s));
                }
            }
        }
        if self.resets_left > 0 {
            for (s, client) in self.clients.iter().enumerate() {
                if !client.inflight.is_empty() || !self.c2s[s].is_empty() || !self.s2c[s].is_empty()
                {
                    actions.push(Action::Reset(s));
                }
            }
        }
        if self.crashes_left > 0 && server.collector().unsynced_records() > 0 {
            actions.push(Action::Crash);
        }
        actions
    }

    fn sensor_of_conn(&self, conn: usize) -> Option<usize> {
        self.clients.iter().position(|c| c.conn == conn)
    }

    /// Multiset difference: entries of `prev` absent from `now` (the
    /// released acks) and entries of `now` absent from `prev` (the
    /// newly queued acks).
    fn pending_diff(prev: &[QueuedAck], now: &[QueuedAck]) -> (Vec<QueuedAck>, Vec<QueuedAck>) {
        let mut released: Vec<QueuedAck> = prev.to_vec();
        let mut added: Vec<QueuedAck> = Vec::new();
        for qa in now {
            if let Some(i) = released.iter().position(|p| p == qa) {
                released.remove(i);
            } else {
                added.push(*qa);
            }
        }
        (released, added)
    }

    /// I2/I5 on every released ack, I3 on every newly queued ack.
    ///
    /// Releases are audited from the emitted replies, not the queue
    /// diff: an ack queued and released inside the same step (the
    /// eager-mutation path, or a duplicate-only batch after a commit)
    /// never shows up in the pending queue at all.
    fn audit_pending(
        &mut self,
        prev: &[QueuedAck],
        replies: &[(usize, Message)],
        context: &str,
    ) -> Result<(), EpisodeError> {
        let server = self.server.as_ref().expect("server alive");
        let synced = server.collector().synced_cursor();
        let now = server.pending_acks().to_vec();
        let (mut released, added) = Self::pending_diff(prev, &now);
        for (conn, msg) in replies {
            let Message::AckUpTo { sensor, seq } = msg else {
                continue;
            };
            let cursor = match released
                .iter()
                .position(|p| p.conn == *conn && p.sensor == *sensor && p.seq == *seq)
            {
                Some(i) => released.remove(i).cursor,
                // Queued and released within this very step: its
                // cursor is the wal cursor at queue time, which is the
                // records now logged (cross-checked by I3 below).
                None => self.logged.len() as u64,
            };
            if self.poisoned {
                return Err((
                    "I5 poisoned-never-acks",
                    format!(
                        "{context}: released AckUpTo({sensor}, seq {seq}) after the WAL was poisoned"
                    ),
                ));
            }
            if cursor > synced {
                return Err((
                    "I2 ack-durability",
                    format!(
                        "{context}: released AckUpTo({sensor}, seq {seq}) with wal cursor {cursor} > synced cursor {synced} — acked data is not yet durable"
                    ),
                ));
            }
        }
        if !released.is_empty() {
            return Err(harness_err(format!(
                "{context}: {} queued ack(s) vanished without being written: {released:?}",
                released.len()
            )));
        }
        for qa in &added {
            let s = qa.sensor.0 as usize;
            let want_seq = self.trackers[s].watermark();
            if want_seq != Some(qa.seq) {
                return Err((
                    "I3 ack-coherence",
                    format!(
                        "{context}: queued AckUpTo({}, seq {}) but the mirror SeqTracker watermark is {want_seq:?}",
                        qa.sensor, qa.seq
                    ),
                ));
            }
            let want_cursor = self.logged.len() as u64;
            if qa.cursor != want_cursor {
                return Err((
                    "I3 ack-coherence",
                    format!(
                        "{context}: queued ack for {} carries wal cursor {} but the mirror log holds {want_cursor} records",
                        qa.sensor, qa.cursor
                    ),
                ));
            }
        }
        Ok(())
    }

    fn route_replies(&mut self, replies: Vec<(usize, Message)>) -> Result<(), EpisodeError> {
        for (conn, msg) in replies {
            match self.sensor_of_conn(conn) {
                Some(s) => self.s2c[s].push_back(msg),
                None => {
                    // A reply addressed to a dead connection is lost
                    // on the floor, exactly as a closed socket.
                }
            }
        }
        Ok(())
    }

    fn apply(&mut self, action: Action, ch: &mut Chooser<'_>) -> Result<(), EpisodeError> {
        match action {
            Action::Send(s) => self.do_send(s),
            Action::Deliver(s) => self.do_deliver(s),
            Action::DeliverAck(s) => self.do_deliver_ack(s),
            Action::Commit => self.do_commit(),
            Action::Timeout(s) => self.do_timeout(s),
            Action::Reset(s) => self.do_reset(s),
            Action::Crash => self.do_crash(ch),
        }
    }

    fn do_send(&mut self, s: usize) -> Result<(), EpisodeError> {
        let client = &mut self.clients[s];
        let batch = client.to_send.pop_front().expect("send enabled");
        client.inflight.push_back(batch.clone());
        if client.inflight.len() as u32 > client.credits {
            return Err((
                "I1 credit",
                format!(
                    "sensor{s}: {} batches in flight exceeds the granted window of {}",
                    client.inflight.len(),
                    client.credits
                ),
            ));
        }
        self.trace.push(format!(
            "send sensor{s} seqs {}..={}",
            batch.first_seq,
            batch.last_seq()
        ));
        self.c2s[s].push_back(batch);
        Ok(())
    }

    fn do_deliver(&mut self, s: usize) -> Result<(), EpisodeError> {
        let batch = self.c2s[s].pop_front().expect("deliver enabled");
        let sensor = self.clients[s].sensor;
        // Advance the mirror spec exactly as deliver_batch will: each
        // unseen seq is appended then observed; the poisoned WAL
        // appends nothing.
        if !self.poisoned {
            for (i, (time, values)) in batch.readings.iter().enumerate() {
                let seq = batch.first_seq + i as u64;
                if self.trackers[s].is_new(seq) {
                    self.trackers[s].observe(seq);
                    self.logged.push((sensor.0, seq));
                    self.framed.push(Wal::framed_len(&WalRecord {
                        sensor,
                        seq,
                        time: *time,
                        values: values.clone(),
                    }));
                }
            }
        }
        let conn = self.clients[s].conn;
        let bytes = encode_frame(&Message::DataBatch {
            sensor,
            first_seq: batch.first_seq,
            readings: batch.readings.clone(),
        });
        let prev = self.server_mut().pending_acks().to_vec();
        self.server_mut().feed(conn, &bytes);
        let event = self
            .server_mut()
            .step(conn)
            .map_err(|e| harness_err(format!("deliver step failed: {e}")))?;
        let replies = match event {
            StepEvent::Replies(replies) => replies,
            other => {
                return Err(harness_err(format!(
                    "deliver sensor{s}: unexpected event {other:?}"
                )))
            }
        };
        self.trace.push(format!(
            "deliver sensor{s} seqs {}..={} -> {}",
            batch.first_seq,
            batch.last_seq(),
            summarize(&replies)
        ));
        self.audit_pending(&prev, &replies, &format!("deliver sensor{s}"))?;
        self.route_replies(replies)
    }

    fn do_deliver_ack(&mut self, s: usize) -> Result<(), EpisodeError> {
        let msg = self.s2c[s].pop_front().expect("deliver-ack enabled");
        match msg {
            Message::AckUpTo { sensor, seq } => {
                if sensor.0 as usize != s {
                    return Err(harness_err(format!(
                        "sensor{s} received an ack for {sensor}"
                    )));
                }
                let client = &mut self.clients[s];
                client.acked = Some(client.acked.map_or(seq, |a| a.max(seq)));
                while client.inflight.front().is_some_and(|b| b.last_seq() <= seq) {
                    client.inflight.pop_front();
                }
                self.trace.push(format!("sensor{s} takes AckUpTo {seq}"));
                Ok(())
            }
            Message::Nack { seq, .. } => {
                if !self.cfg.poison {
                    return Err(harness_err(format!(
                        "sensor{s} NACKed at seq {seq} in a space without storage faults"
                    )));
                }
                let client = &mut self.clients[s];
                // Everything from the refused batch on is unacked:
                // requeue it in order ahead of the unsent tail.
                let mut requeued = 0usize;
                while client.inflight.back().is_some_and(|b| b.last_seq() >= seq) {
                    let mut batch = client.inflight.pop_back().expect("non-empty");
                    batch.nacks += 1;
                    if batch.nacks >= 2 {
                        client.gave_up = true;
                    }
                    client.to_send.push_front(batch);
                    requeued += 1;
                }
                if client.gave_up {
                    client.to_send.clear();
                    client.inflight.clear();
                    self.trace
                        .push(format!("sensor{s} takes Nack {seq}; gives up"));
                } else {
                    self.trace.push(format!(
                        "sensor{s} takes Nack {seq}; requeued {requeued} batch(es)"
                    ));
                }
                Ok(())
            }
            other => Err(harness_err(format!(
                "sensor{s}: unexpected server message {other:?}"
            ))),
        }
    }

    fn do_commit(&mut self) -> Result<(), EpisodeError> {
        let prev = self.server_mut().pending_acks().to_vec();
        let replies = self
            .server_mut()
            .commit()
            .map_err(|e| harness_err(format!("commit failed: {e}")))?;
        let server = self.server.as_ref().expect("server alive");
        let storage_error = server.collector().storage_status().error.is_some();
        let synced = server.collector().synced_cursor();
        if storage_error && !self.poisoned {
            // The failed fsync made nothing new durable, so any ack
            // this commit emitted trips I5 in the audit below.
            self.poisoned = true;
            self.trace.push(format!(
                "commit: fsync failed, wal poisoned (synced={synced})"
            ));
        } else {
            self.trace.push(format!(
                "commit: synced cursor -> {synced}, released {}",
                summarize(&replies)
            ));
        }
        self.audit_pending(&prev, &replies, "commit")?;
        if !self.poisoned && !self.server_mut().pending_acks().is_empty() {
            return Err(harness_err(
                "commit left queued acks behind on a healthy wal".into(),
            ));
        }
        self.route_replies(replies)
    }

    fn do_timeout(&mut self, s: usize) -> Result<(), EpisodeError> {
        self.timeouts_left -= 1;
        let batch = self.clients[s]
            .inflight
            .front()
            .expect("timeout enabled")
            .clone();
        self.trace.push(format!(
            "timeout sensor{s}: retransmit seqs {}..={}",
            batch.first_seq,
            batch.last_seq()
        ));
        self.c2s[s].push_back(batch);
        Ok(())
    }

    fn do_reset(&mut self, s: usize) -> Result<(), EpisodeError> {
        self.resets_left -= 1;
        let lost_c2s = self.c2s[s].len();
        let lost_s2c = self.s2c[s].len();
        self.c2s[s].clear();
        self.s2c[s].clear();
        let conn = self.clients[s].conn;
        // Queued acks for this connection are purged, not released —
        // that is the server's Closed-event semantics, not an I2 event.
        self.server_mut().disconnect(conn);
        let client = &mut self.clients[s];
        let requeued = client.inflight.len();
        while let Some(batch) = client.inflight.pop_back() {
            client.to_send.push_front(batch);
        }
        self.trace.push(format!(
            "reset sensor{s}: lost {lost_c2s} inbound + {lost_s2c} outbound frame(s), requeued {requeued} batch(es)"
        ));
        self.handshake(s)
    }

    fn do_crash(&mut self, ch: &mut Chooser<'_>) -> Result<(), EpisodeError> {
        self.crashes_left -= 1;
        let server = self.server.take().expect("server alive");
        let synced = server.collector().synced_cursor() as usize;
        drop(server);
        let total = self.logged.len();
        // Byte offsets of every record boundary, cum[i] = bytes of the
        // first i records.
        let mut cum = Vec::with_capacity(total + 1);
        let mut acc = 0u64;
        cum.push(0u64);
        for len in &self.framed {
            acc += len;
            cum.push(acc);
        }
        // Candidate truncation points: the fsync watermark itself,
        // every later record boundary, a torn tear inside each
        // unsynced record, and "nothing lost" (all appends reached the
        // platter before the power cut).
        let mut candidates: Vec<(u64, usize, bool)> = Vec::new();
        for (k, len) in self.framed.iter().enumerate().skip(synced) {
            candidates.push((cum[k], k, false));
            candidates.push((cum[k] + len / 2, k, true));
        }
        candidates.push((cum[total], total, false));
        let (offset, survivors, torn) = candidates[ch.pick(candidates.len())];
        let seg = self.gw_cfg.wal.dir.join("wal-00000001.seg");
        let file = std::fs::OpenOptions::new()
            .write(true)
            .open(&seg)
            .map_err(|e| harness_err(format!("crash truncation open failed: {e}")))?;
        file.set_len(offset)
            .map_err(|e| harness_err(format!("crash truncation failed: {e}")))?;
        drop(file);
        self.trace.push(format!(
            "crash: truncate wal to {offset} bytes ({survivors} of {total} records survive{})",
            if torn { ", torn tail" } else { "" }
        ));
        // The process died: wires and the mirror's unsurvived suffix
        // are gone; clients will retransmit everything unacked.
        self.logged.truncate(survivors);
        self.framed.truncate(survivors);
        self.trackers = (0..SENSORS).map(|_| SeqTracker::default()).collect();
        for &(sid, seq) in &self.logged {
            self.trackers[sid as usize].observe(seq);
        }
        for s in 0..SENSORS {
            self.c2s[s].clear();
            self.s2c[s].clear();
        }
        let (collector, recovery) = Collector::open(self.gw_cfg.clone()).map_err(|e| {
            (
                "I4 crash-durability",
                format!("recovery after truncation to {offset} bytes failed: {e}"),
            )
        })?;
        if recovery.replayed != survivors as u64 {
            return Err((
                "I4 crash-durability",
                format!(
                    "replay recovered {} records but {survivors} complete records survived the crash",
                    recovery.replayed
                ),
            ));
        }
        if collector.synced_cursor() != survivors as u64 {
            return Err((
                "I4 crash-durability",
                format!(
                    "reopened synced cursor {} != {survivors} recovered records",
                    collector.synced_cursor()
                ),
            ));
        }
        self.trace
            .push(format!("recover: replayed {} record(s)", recovery.replayed));
        self.server = Some(StepServer::new(collector, CREDITS, self.cfg.discipline));
        for s in 0..SENSORS {
            // Nothing a client was acked may have fallen out of the log.
            if let Some(acked) = self.clients[s].acked {
                let watermark = self.trackers[s].watermark();
                if watermark.is_none_or(|w| w < acked) {
                    return Err((
                        "I4 crash-durability",
                        format!(
                            "sensor{s} was acked up to {acked} but replay only recovered through {watermark:?}"
                        ),
                    ));
                }
            }
            let client = &mut self.clients[s];
            while let Some(batch) = client.inflight.pop_back() {
                client.to_send.push_front(batch);
            }
            self.handshake(s)?;
        }
        Ok(())
    }

    /// End-of-episode checks once no action is enabled.
    fn finish(&mut self) -> Result<(), EpisodeError> {
        let fault_free = !self.cfg.poison;
        if fault_free {
            for (s, client) in self.clients.iter().enumerate() {
                if client.gave_up {
                    return Err((
                        "completion",
                        format!("sensor{s} gave up without a storage fault"),
                    ));
                }
                if client.acked != Some(TOTAL_SEQS - 1) {
                    return Err((
                        "completion",
                        format!(
                            "quiescent but sensor{s} is only acked through {:?} (want {})",
                            client.acked,
                            TOTAL_SEQS - 1
                        ),
                    ));
                }
                if !client.inflight.is_empty() || !client.to_send.is_empty() {
                    return Err((
                        "completion",
                        format!(
                            "quiescent but sensor{s} still holds {} in flight / {} unsent",
                            client.inflight.len(),
                            client.to_send.len()
                        ),
                    ));
                }
            }
        } else if self.poisoned {
            let server = self.server.as_ref().expect("server alive");
            if server.collector().storage_status().error.is_none() {
                return Err(harness_err(
                    "poison flag set but the collector reports healthy storage".into(),
                ));
            }
        }
        // Final oracle: reopen the real log from disk and compare it
        // record-for-record against the mirror.
        drop(self.server.take());
        let (wal, records) = Wal::open(self.gw_cfg.wal.clone(), None)
            .map_err(|e| harness_err(format!("final wal reopen failed: {e}")))?;
        drop(wal);
        let on_disk: Vec<(u16, u64)> = records.iter().map(|r| (r.sensor.0, r.seq)).collect();
        if on_disk != self.logged {
            return Err((
                "I4 crash-durability",
                format!(
                    "on-disk log {:?} diverged from the mirror {:?}",
                    on_disk, self.logged
                ),
            ));
        }
        let mut seen = BTreeSet::new();
        for key in &on_disk {
            if !seen.insert(*key) {
                return Err((
                    "I4 crash-durability",
                    format!("(sensor{}, seq {}) logged twice", key.0, key.1),
                ));
            }
        }
        if fault_free && on_disk.len() as u64 != SENSORS as u64 * TOTAL_SEQS {
            return Err((
                "completion",
                format!(
                    "final log holds {} records, want {}",
                    on_disk.len(),
                    SENSORS as u64 * TOTAL_SEQS
                ),
            ));
        }
        Ok(())
    }

    fn run(&mut self, ch: &mut Chooser<'_>) -> Result<(), EpisodeError> {
        loop {
            let actions = self.enabled();
            if actions.is_empty() {
                return Ok(());
            }
            let action = actions[ch.pick(actions.len())];
            self.transitions += 1;
            self.apply(action, ch)?;
        }
    }
}

fn summarize(replies: &[(usize, Message)]) -> String {
    if replies.is_empty() {
        return "[]".into();
    }
    let parts: Vec<String> = replies
        .iter()
        .map(|(conn, msg)| match msg {
            Message::AckUpTo { sensor, seq } => format!("AckUpTo({sensor},{seq})@{conn}"),
            Message::Nack { sensor, seq } => format!("Nack({sensor},{seq})@{conn}"),
            other => format!("{other:?}@{conn}"),
        })
        .collect();
    format!("[{}]", parts.join(", "))
}

fn scratch_dir(tag: &str, space: &str) -> PathBuf {
    let shm = PathBuf::from("/dev/shm");
    let base = if shm.is_dir() {
        shm
    } else {
        std::env::temp_dir()
    };
    base.join(format!(
        "sentinet-protocheck-{}-{tag}-{space}",
        std::process::id()
    ))
}

fn explore_space(cfg: &SpaceCfg, tag: &str) -> Result<SpaceReport, Box<Violation>> {
    let dir = scratch_dir(tag, cfg.name);
    let mut schedule = Schedule::new();
    let mut report = SpaceReport::default();
    let result = loop {
        let episode = Episode::new(cfg, &dir);
        let outcome = match episode {
            Ok(mut ep) => {
                let mut ch = Chooser {
                    schedule: &mut schedule,
                    budget: cfg.choice_budget,
                    used: 0,
                };
                let run = ep.run(&mut ch);
                report.transitions += ep.transitions;
                match run.and_then(|()| ep.finish()) {
                    Ok(()) => Ok(()),
                    Err(e) => Err((e, ep.trace)),
                }
            }
            Err(e) => Err((e, Vec::new())),
        };
        report.episodes += 1;
        if let Err(((invariant, detail), trace)) = outcome {
            break Err(Box::new(Violation {
                space: cfg.name,
                invariant,
                detail,
                choices: schedule.choices().to_vec(),
                trace,
            }));
        }
        if !schedule.advance() {
            break Ok(report);
        }
    };
    let _ = std::fs::remove_dir_all(&dir);
    result
}

fn spaces(scale: Scale) -> Vec<SpaceCfg> {
    let (interleave, reconnect, crash, poison) = match scale {
        Scale::Quick => (3, 3, 3, 3),
        Scale::Full => (6, 5, 5, 5),
    };
    vec![
        SpaceCfg {
            name: "interleave",
            choice_budget: interleave,
            timeout_budget: 1,
            reset_budget: 0,
            crash_budget: 0,
            poison: false,
            discipline: AckDiscipline::Durable,
        },
        SpaceCfg {
            name: "reconnect",
            choice_budget: reconnect,
            timeout_budget: 0,
            reset_budget: 1,
            crash_budget: 0,
            poison: false,
            discipline: AckDiscipline::Durable,
        },
        SpaceCfg {
            name: "crash",
            choice_budget: crash,
            timeout_budget: 0,
            reset_budget: 0,
            crash_budget: 1,
            poison: false,
            discipline: AckDiscipline::Durable,
        },
        SpaceCfg {
            name: "poison",
            choice_budget: poison,
            timeout_budget: 0,
            reset_budget: 0,
            crash_budget: 0,
            poison: true,
            discipline: AckDiscipline::Durable,
        },
    ]
}

/// Explores every sub-space under the shipped (durable) ack
/// discipline.
///
/// # Errors
///
/// The first [`Violation`] found, with its full counterexample trace.
pub fn check(scale: Scale) -> Result<ProtocolReport, Box<Violation>> {
    let mut report = ProtocolReport::default();
    for cfg in spaces(scale) {
        let space = explore_space(&cfg, "durable")?;
        report.spaces.push((cfg.name, space));
    }
    Ok(report)
}

/// Mutation self-test: re-explores the interleave space with
/// [`AckDiscipline::Eager`] (ack released before the covering fsync).
/// The checker MUST catch this — a clean pass here means the checker
/// itself is broken.
///
/// # Errors
///
/// The expected outcome: the I2 violation with its trace.
pub fn check_mutation(scale: Scale) -> Result<ProtocolReport, Box<Violation>> {
    let cfg = SpaceCfg {
        name: "interleave-eager",
        choice_budget: match scale {
            Scale::Quick => 3,
            Scale::Full => 6,
        },
        timeout_budget: 1,
        reset_budget: 0,
        crash_budget: 0,
        poison: false,
        discipline: AckDiscipline::Eager,
    };
    let mut report = ProtocolReport::default();
    let space = explore_space(&cfg, "eager")?;
    report.spaces.push((cfg.name, space));
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn durable_discipline_passes_quick_exploration() {
        let report = match check(Scale::Quick) {
            Ok(report) => report,
            Err(v) => panic!("unexpected violation:\n{v}"),
        };
        assert_eq!(report.spaces.len(), 4);
        assert!(
            report.episodes() > 50,
            "quick exploration too shallow: {} episodes",
            report.episodes()
        );
        for (name, space) in &report.spaces {
            assert!(space.episodes > 0, "space {name} explored nothing");
        }
    }

    #[test]
    fn eager_ack_mutation_is_caught_with_a_trace() {
        let v = match check_mutation(Scale::Quick) {
            Ok(report) => panic!(
                "checker failed to catch the eager-ack mutation across {} episodes",
                report.episodes()
            ),
            Err(v) => v,
        };
        assert_eq!(v.invariant, "I2 ack-durability");
        assert!(!v.trace.is_empty(), "violation carries no trace");
        let rendered = v.to_string();
        assert!(
            rendered.contains("counterexample trace"),
            "display must include the replayable trace:\n{rendered}"
        );
    }
}

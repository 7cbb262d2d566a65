//! Deterministic single-step server harness — the injectable seam the
//! protocol model checker (`cargo run -p xtask -- protocol-check`)
//! drives.
//!
//! [`Server`](crate::server::Server) is built around threads, sockets
//! and wall-clock timeouts, none of which an exhaustive state-space
//! explorer can schedule. [`StepServer`] is the same protocol state
//! machine with every nondeterministic edge lifted out: the caller
//! owns the "network" (it feeds raw frame bytes per connection and
//! collects typed reply messages), the caller decides when the
//! queue-dry group commit fires ([`StepServer::commit`]), and every
//! step decodes exactly one message. Crucially it is **not** a model
//! of the server: admission, durability and ack release run through
//! the real [`Collector`] (real [`SeqTracker`](crate::collector::SeqTracker)
//! dedup, real [`Wal`](crate::wal::Wal) appends over whatever
//! [`Vfs`](crate::vfs::Vfs) the collector was opened with, real
//! [`FrameBuffer`] decoding), so an invariant the checker proves holds
//! for the shipped code paths, not a re-implementation. This mirrors
//! how the shard-schedule checker drives the real engine coordinator
//! through `ShardBackend`.
//!
//! The event-loop semantics replicated here (one arm per message, in
//! [`StepServer::step`]) are intentionally line-for-line parallel to
//! `Server::event_loop`; a behavioral change to one must be made to
//! both (the checker's cross-validation against the socket tests is
//! the tripwire).

use crate::collector::{Collector, GatewayError};
use crate::frame::{FrameBuffer, FrameError, Message, PROTOCOL_VERSION};
use sentinet_sim::SensorId;

/// When a queued cumulative ack may be written to the client.
///
/// The shipped rule is [`AckDiscipline::Durable`]. [`AckDiscipline::Eager`]
/// deliberately re-creates the bug the group-commit release gate
/// exists to prevent — acking on admission, before a completed fsync
/// covers the batch's WAL extent — so the model checker can prove it
/// *detects* the violation (a mutation-style self-test; see
/// `xtask/src/protocol_check.rs`). Production code must never use it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AckDiscipline {
    /// Release an `AckUpTo` only once [`Collector::synced_cursor`]
    /// covers its WAL cursor — the shipped ack-after-durable rule.
    Durable,
    /// Release on admission without consulting the synced cursor (the
    /// deliberately broken discipline the checker must catch).
    Eager,
}

/// A queued cumulative ack awaiting fsync coverage (the harness twin
/// of the server's `PendingAck`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueuedAck {
    /// Connection the ack belongs to.
    pub conn: usize,
    /// Acknowledged sensor.
    pub sensor: SensorId,
    /// Cumulative watermark to report.
    pub seq: u64,
    /// WAL cursor a completed fsync must cover first.
    pub cursor: u64,
}

/// What one [`StepServer::step`] call did.
#[derive(Debug, Clone, PartialEq)]
pub enum StepEvent {
    /// No complete frame was buffered on the connection.
    Idle,
    /// One message was consumed; replies (with their destination
    /// connections) in the order the socket server would write them.
    Replies(Vec<(usize, Message)>),
    /// The connection's byte stream is corrupt — connection-fatal,
    /// its queued acks are discarded exactly as the server drops a
    /// `BadFrame` connection.
    BadFrame(FrameError),
}

/// The single-stepped protocol server core over a real
/// [`Collector`]. See the module docs for what it is (a seam) and is
/// not (a model).
pub struct StepServer {
    collector: Collector,
    conns: Vec<Option<FrameBuffer>>,
    pending: Vec<QueuedAck>,
    credit_window: u32,
    discipline: AckDiscipline,
    version_rejects: u64,
    data_frames: u64,
}

impl StepServer {
    /// Wraps an opened collector; `credit_window` is granted in every
    /// `HelloAck`.
    pub fn new(collector: Collector, credit_window: u32, discipline: AckDiscipline) -> Self {
        Self {
            collector,
            conns: Vec::new(),
            pending: Vec::new(),
            credit_window,
            discipline,
            version_rejects: 0,
            data_frames: 0,
        }
    }

    /// Opens a new connection; returns its id.
    pub fn connect(&mut self) -> usize {
        self.conns.push(Some(FrameBuffer::new()));
        self.conns.len() - 1
    }

    /// Closes `conn`: its buffered bytes and queued acks are dropped,
    /// as on the server's `Closed`/`BadFrame` events. The client's
    /// retransmit protocol re-delivers whatever lost its ack.
    pub fn disconnect(&mut self, conn: usize) {
        if let Some(slot) = self.conns.get_mut(conn) {
            *slot = None;
        }
        self.pending.retain(|p| p.conn != conn);
    }

    /// Appends raw frame bytes to `conn`'s receive stream (the
    /// "network delivers a packet" edge). Bytes for a closed
    /// connection are discarded.
    pub fn feed(&mut self, conn: usize, bytes: &[u8]) {
        if let Some(Some(fb)) = self.conns.get_mut(conn) {
            fb.feed(bytes);
        }
    }

    /// Decodes and handles at most one message from `conn`, exactly as
    /// one `Event::Msg` arm of the server's event loop.
    ///
    /// # Errors
    ///
    /// [`GatewayError`] on non-storage collector failures, exactly as
    /// [`Server::run`](crate::server::Server::run) would abort.
    pub fn step(&mut self, conn: usize) -> Result<StepEvent, GatewayError> {
        let msg = match self.conns.get_mut(conn) {
            Some(Some(fb)) => match fb.next_message() {
                Ok(Some(msg)) => msg,
                Ok(None) => return Ok(StepEvent::Idle),
                Err(e) => {
                    self.disconnect(conn);
                    return Ok(StepEvent::BadFrame(e));
                }
            },
            _ => return Ok(StepEvent::Idle),
        };
        let mut replies = Vec::new();
        match msg {
            Message::Data { .. } => {
                // A WAL record on the wire: never admitted; the
                // connection is dropped and counted.
                self.data_frames += 1;
                self.disconnect(conn);
            }
            Message::DataBatch {
                sensor,
                first_seq,
                readings,
            } => {
                let out = self.collector.deliver_batch(sensor, first_seq, &readings)?;
                if let Some((seq, _)) = out.nack {
                    replies.push((conn, Message::Nack { sensor, seq }));
                }
                if let Some(seq) = out.ack_up_to {
                    self.pending.push(QueuedAck {
                        conn,
                        sensor,
                        seq,
                        cursor: out.ack_cursor,
                    });
                    // Policy-driven fsyncs may already cover the batch;
                    // release what can go now, pipeline the rest.
                    self.release_ready(&mut replies);
                }
            }
            Message::Fin => {
                if !self.pending.is_empty() {
                    self.collector.sync_wal()?;
                    self.release_ready(&mut replies);
                }
                replies.push((conn, Message::FinAck));
            }
            Message::Hello { version, epoch } => {
                if epoch > 0 {
                    self.collector.observe_epoch(epoch);
                }
                if version == PROTOCOL_VERSION {
                    replies.push((
                        conn,
                        Message::HelloAck {
                            version: PROTOCOL_VERSION,
                            credits: self.credit_window,
                            watermark_delay: self.collector.watermark_delay(),
                        },
                    ));
                } else {
                    self.version_rejects += 1;
                    replies.push((
                        conn,
                        Message::HelloReject {
                            supported: PROTOCOL_VERSION,
                        },
                    ));
                    self.disconnect(conn);
                }
            }
            Message::Heartbeat { epoch } => {
                if epoch > 0 {
                    self.collector.observe_epoch(epoch);
                }
                replies.push((
                    conn,
                    Message::HeartbeatAck {
                        epoch: self.collector.epoch(),
                        checkpoint_cursor: self.collector.checkpoint_cursor(),
                    },
                ));
            }
            Message::MigrateOffer { start, end } => {
                // Source side of a live migration, exactly as the
                // event loop: cut, release acks the cut's fsync
                // covered, answer with the staged snapshot — or
                // silence when the cut cannot be made durable.
                let cut = self.collector.export_range(start..end);
                if !self.pending.is_empty() {
                    self.release_ready(&mut replies);
                }
                match cut {
                    Ok((inside, cursor)) => replies.push((
                        conn,
                        Message::MigrateAccept {
                            start,
                            end,
                            cursor,
                            snapshot: crate::snapshot::encode_collector(&inside).into_bytes(),
                        },
                    )),
                    Err(GatewayError::MigrationCut(_)) | Err(GatewayError::Wal(_)) => {}
                    Err(e) => return Err(e),
                }
            }
            Message::MigrateAccept {
                start,
                end,
                cursor,
                snapshot,
            } => {
                // Destination side: adopt, confirm only once durable.
                let adopted = String::from_utf8(snapshot)
                    .ok()
                    .and_then(|text| crate::snapshot::decode_collector(&text).ok())
                    .map(|snap| self.collector.adopt_range(start..end, cursor, &snap));
                match adopted {
                    Some(Ok(())) => {
                        replies.push((conn, Message::MigrateDone { start, end, cursor }));
                    }
                    Some(Err(GatewayError::MigrationCut(_)))
                    | Some(Err(GatewayError::Wal(_)))
                    | None => {}
                    Some(Err(e)) => return Err(e),
                }
            }
            Message::MigrateDone { start, end, cursor } => {
                self.collector.clear_outbox(start..end);
                replies.push((conn, Message::MigrateDone { start, end, cursor }));
            }
            Message::AckUpTo { .. }
            | Message::FinAck
            | Message::Nack { .. }
            | Message::HelloAck { .. }
            | Message::HelloReject { .. }
            | Message::HeartbeatAck { .. } => {
                // Server-bound streams should not carry replies;
                // ignored, exactly as the event loop does.
            }
        }
        Ok(StepEvent::Replies(replies))
    }

    /// The queue-dry group commit: one fsync covers every batch
    /// admitted since the last, and the acks it unblocks are released
    /// together. Mirrors the `TryRecvError::Empty` arm of the event
    /// loop; the caller (the model checker's schedule) decides when
    /// the queue counts as dry.
    ///
    /// # Errors
    ///
    /// [`GatewayError`] on non-storage failures; a storage failure
    /// poisons the WAL and is absorbed, exactly like the server.
    pub fn commit(&mut self) -> Result<Vec<(usize, Message)>, GatewayError> {
        let mut replies = Vec::new();
        if !self.pending.is_empty() {
            self.collector.sync_wal()?;
            self.release_ready(&mut replies);
        }
        Ok(replies)
    }

    /// Releases every queued ack its discipline allows, appending the
    /// `AckUpTo` messages grouped by connection in ascending id, queue
    /// order within each — the order the server's `release_ready`
    /// writes them, one coalesced write per connection.
    fn release_ready(&mut self, replies: &mut Vec<(usize, Message)>) {
        let synced = self.collector.synced_cursor();
        let eager = self.discipline == AckDiscipline::Eager;
        let mut released = Vec::new();
        self.pending.retain(|p| {
            if p.cursor > synced && !eager {
                return true;
            }
            released.push(*p);
            false
        });
        // Stable: a connection's acks keep their queue order.
        released.sort_by_key(|p| p.conn);
        replies.extend(released.into_iter().map(|p| {
            (
                p.conn,
                Message::AckUpTo {
                    sensor: p.sensor,
                    seq: p.seq,
                },
            )
        }));
    }

    /// Acks admitted but not yet released (awaiting fsync coverage).
    pub fn pending_acks(&self) -> &[QueuedAck] {
        &self.pending
    }

    /// Hellos refused for an unknown protocol version.
    pub fn version_rejects(&self) -> u64 {
        self.version_rejects
    }

    /// Connections dropped for sending a bare `Data` frame.
    pub fn data_frames(&self) -> u64 {
        self.data_frames
    }

    /// The underlying collector (for invariant probes).
    pub fn collector(&self) -> &Collector {
        &self.collector
    }

    /// Tears the harness down, returning the collector (e.g. to
    /// finish it for a report).
    pub fn into_collector(self) -> Collector {
        self.collector
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collector::GatewayConfig;
    use crate::frame::encode_frame;
    use crate::wal::FsyncPolicy;

    fn batch(sensor: u16, seq: u64) -> Vec<u8> {
        encode_frame(&Message::DataBatch {
            sensor: SensorId(sensor),
            first_seq: seq,
            readings: vec![((seq + 1) * 300, vec![20.0])],
        })
    }

    fn ack(conn: usize, sensor: u16, seq: u64) -> (usize, Message) {
        let sensor = SensorId(sensor);
        (conn, Message::AckUpTo { sensor, seq })
    }

    /// A group commit releases each connection's acks together, in
    /// ascending connection id and queue order within one — the order
    /// of the server's one coalesced write per connection — however
    /// the batches interleaved on arrival.
    #[test]
    fn commit_releases_acks_grouped_by_connection() {
        let dir =
            std::env::temp_dir().join(format!("sentinet-harness-release-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut config = GatewayConfig::new(&dir);
        config.checkpoint_every = 0;
        // Only the explicit commit fsyncs, so every ack waits for it.
        config.wal.fsync = FsyncPolicy::Batch(1_000_000);
        let (collector, _) = Collector::open(config).expect("open collector");
        let mut server = StepServer::new(collector, 8, AckDiscipline::Durable);
        let (a, b) = (server.connect(), server.connect());
        for (conn, bytes) in [(b, batch(1, 0)), (a, batch(0, 0)), (b, batch(1, 1))] {
            server.feed(conn, &bytes);
            let event = server.step(conn).expect("step");
            assert_eq!(event, StepEvent::Replies(Vec::new()), "acked before commit");
        }
        let replies = server.commit().expect("commit");
        assert_eq!(replies, vec![ack(a, 0, 0), ack(b, 1, 0), ack(b, 1, 1)]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The handshake grants the collector's watermark delay; a
    /// version-1 `Hello` is refused with the one supported version,
    /// and a bare `Data` frame drops its connection unadmitted.
    #[test]
    fn hello_grants_watermark_and_old_frames_are_refused() {
        let dir =
            std::env::temp_dir().join(format!("sentinet-harness-hello-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut config = GatewayConfig::new(&dir);
        config.reorder.watermark_delay = 600;
        let (collector, _) = Collector::open(config).expect("open collector");
        let mut server = StepServer::new(collector, 8, AckDiscipline::Durable);
        let hello = |version| encode_frame(&Message::Hello { version, epoch: 0 });

        let current = server.connect();
        server.feed(current, &hello(PROTOCOL_VERSION));
        let granted = Message::HelloAck {
            version: PROTOCOL_VERSION,
            credits: 8,
            watermark_delay: 600,
        };
        let event = server.step(current).expect("step");
        assert_eq!(event, StepEvent::Replies(vec![(current, granted)]));

        let old = server.connect();
        server.feed(old, &hello(1));
        let rejected = Message::HelloReject {
            supported: PROTOCOL_VERSION,
        };
        let event = server.step(old).expect("step");
        assert_eq!(event, StepEvent::Replies(vec![(old, rejected)]));
        assert_eq!(server.version_rejects(), 1);

        server.feed(
            current,
            &encode_frame(&Message::Data {
                sensor: SensorId(0),
                seq: 0,
                time: 300,
                values: vec![20.0],
            }),
        );
        server.feed(current, &batch(0, 0));
        let event = server.step(current).expect("step");
        assert_eq!(event, StepEvent::Replies(Vec::new()));
        assert_eq!(server.data_frames(), 1);
        // The connection is gone: the batch behind the record is
        // never read, and nothing was admitted.
        assert_eq!(server.step(current).expect("step"), StepEvent::Idle);
        let report = server.into_collector().finish().expect("finish");
        assert_eq!(report.ingest.accepted, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

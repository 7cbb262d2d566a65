//! The gateway daemon: socket front end for the [`Collector`].
//!
//! Threading model (the gateway is the one crate allowed to spawn
//! threads — see the `thread-spawn` lint):
//!
//! * an **accept thread** polls the listener non-blocking, spawning one
//!   **reader thread** per connection;
//! * each reader decodes frames incrementally (reads are bounded by a
//!   read timeout so a dead peer can never wedge a thread) and pushes
//!   events into one **bounded** channel — when the channel fills, the
//!   reader blocks, it stops reading its socket, and the kernel's
//!   receive window pushes back on the sender: backpressure end to
//!   end, no queue without a limit anywhere;
//! * the caller's thread runs [`Server::run`], draining events into
//!   the collector and writing acks back on a cloned write half.
//!
//! A frame-level error (bad CRC, oversized length) is
//! connection-fatal: the stream offset can no longer be trusted, so
//! the connection is dropped, the event is counted, and the client's
//! retry protocol re-delivers whatever lost its ack. A `Fin` frame
//! (acked with `FinAck`) ends the run: the server shuts down its
//! threads and the collector can be finished for a report.

use crate::collector::{Collector, DeliverOutcome, GatewayError};
use crate::frame::{encode_frame, FrameBuffer, FrameError, Message, PROTOCOL_V1, PROTOCOL_VERSION};
use crate::net::{is_timeout, Listener, Stream};
use crate::snapshot::{decode_collector, encode_collector};
use crossbeam::channel::{bounded, Receiver, RecvTimeoutError, Sender, TryRecvError};
use sentinet_sim::SensorId;
use std::collections::BTreeMap;
use std::io::{self, Read, Write};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Server tuning.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Endpoint to bind: `"127.0.0.1:0"` or `"unix:/path"`.
    pub bind: String,
    /// Per-read socket timeout (also the shutdown poll interval for
    /// reader threads).
    pub read_timeout: Duration,
    /// Capacity of the bounded ingest event queue.
    pub queue_capacity: usize,
    /// Batches a v2 connection may keep in flight (granted in the
    /// `HelloAck`).
    pub credit_window: u32,
    /// Speak only protocol v1: a v2 `Hello` is answered with a typed
    /// `HelloReject { supported: 1 }` and the connection is dropped,
    /// exactly like an unknown version. Lets an operator pin a fleet
    /// to stop-and-wait (and gives tests a live rejection path).
    pub v1_only: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            bind: "127.0.0.1:0".into(),
            read_timeout: Duration::from_millis(200),
            queue_capacity: 1024,
            credit_window: 32,
            v1_only: false,
        }
    }
}

/// Transport-level accounting from one serve run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Connections accepted.
    pub connections: u64,
    /// Connections dropped on a frame-level decode error.
    pub bad_frames: u64,
    /// Hellos refused for carrying an unknown protocol version
    /// (answered with `HelloReject`, then dropped — a typed outcome,
    /// not corrupt-frame noise).
    pub version_rejects: u64,
    /// The decode error behind each dropped connection, in order
    /// (surfaced by the CLI on stderr).
    pub frame_errors: Vec<FrameError>,
    /// Wall nanoseconds reader threads spent decoding frames (bench
    /// stage breakdown).
    pub decode_ns: u64,
    /// Wall nanoseconds the event loop spent writing replies (bench
    /// stage breakdown).
    pub ack_ns: u64,
}

/// An `AckUpTo` the collector has admitted but whose WAL extent is
/// not yet covered by a completed fsync. Released (written to the
/// client) only once `Collector::synced_cursor` reaches `cursor` —
/// the ack-after-durable rule, batched.
struct PendingAck {
    conn: u64,
    sensor: SensorId,
    seq: u64,
    cursor: u64,
}

/// One event from the socket threads to the collector loop.
enum Event {
    /// Connection `id` opened; carries the ack write half.
    Opened(u64, Stream),
    /// Connection `id` decoded one message.
    Msg(u64, Message),
    /// Connection `id` died on a frame error.
    BadFrame(u64, FrameError),
    /// Connection `id` closed (EOF or I/O error).
    Closed(u64),
}

/// A started gateway server. Create with [`Server::start`] (which
/// spawns the socket threads), then drive the collector with
/// [`Server::run`].
pub struct Server {
    addr: String,
    credit_window: u32,
    v1_only: bool,
    shutdown: Arc<AtomicBool>,
    events: Receiver<Event>,
    decode_ns: Arc<AtomicU64>,
    accept_thread: Option<JoinHandle<()>>,
}

impl Server {
    /// Binds the endpoint and spawns the accept thread.
    ///
    /// # Errors
    ///
    /// [`io::Error`] if the endpoint cannot be bound.
    pub fn start(config: ServerConfig) -> io::Result<Self> {
        let (listener, addr) = Listener::bind(&config.bind)?;
        listener.set_nonblocking(true)?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let (tx, rx) = bounded(config.queue_capacity);
        let accept_shutdown = Arc::clone(&shutdown);
        let read_timeout = config.read_timeout;
        let decode_ns = Arc::new(AtomicU64::new(0));
        let accept_decode_ns = Arc::clone(&decode_ns);
        let accept_thread = std::thread::spawn(move || {
            accept_loop(
                listener,
                tx,
                accept_shutdown,
                read_timeout,
                accept_decode_ns,
            );
        });
        Ok(Self {
            addr,
            credit_window: config.credit_window,
            v1_only: config.v1_only,
            shutdown,
            events: rx,
            decode_ns,
            accept_thread: Some(accept_thread),
        })
    }

    /// The resolved address clients should connect to.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// A flag that stops the server when set (for soak harnesses that
    /// end a run without a `Fin`).
    pub fn shutdown_handle(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.shutdown)
    }

    /// Drains delivered frames into `collector` until a client sends
    /// `Fin` (or the shutdown flag is raised), acking each durable
    /// record, then tears the socket threads down. The collector is
    /// left ready for [`Collector::finish`].
    ///
    /// # Errors
    ///
    /// [`GatewayError`] if the collector's WAL fails; socket-level
    /// errors are per-connection events, not run failures.
    pub fn run(mut self, collector: &mut Collector) -> Result<ServerStats, GatewayError> {
        let mut stats = ServerStats::default();
        let result = self.event_loop(collector, &mut stats);
        // Stop the socket threads and unblock any reader stuck on a
        // full queue by draining until every sender is gone.
        self.shutdown.store(true, Ordering::SeqCst);
        while !matches!(
            self.events.recv_timeout(Duration::from_millis(50)),
            Err(RecvTimeoutError::Disconnected)
        ) {}
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
        stats.decode_ns = self.decode_ns.load(Ordering::Relaxed);
        result.map(|()| stats)
    }

    fn event_loop(
        &mut self,
        collector: &mut Collector,
        stats: &mut ServerStats,
    ) -> Result<(), GatewayError> {
        let mut writers: BTreeMap<u64, Stream> = BTreeMap::new();
        let mut pending: Vec<PendingAck> = Vec::new();
        loop {
            if self.shutdown.load(Ordering::SeqCst) {
                return Ok(());
            }
            // A momentarily dry queue is the flush interval: one group
            // fsync covers every batch admitted since the last one,
            // and the acks it unblocks are released together.
            let event = match self.events.try_recv() {
                Ok(e) => e,
                Err(TryRecvError::Empty) => {
                    if !pending.is_empty() {
                        collector.sync_wal()?;
                        stats.ack_ns = stats.ack_ns.saturating_add(release_ready(
                            collector,
                            &mut writers,
                            &mut pending,
                        ));
                    }
                    match self.events.recv_timeout(Duration::from_millis(100)) {
                        Ok(e) => e,
                        Err(RecvTimeoutError::Timeout) => continue,
                        Err(RecvTimeoutError::Disconnected) => return Ok(()),
                    }
                }
                Err(TryRecvError::Disconnected) => return Ok(()),
            };
            match event {
                Event::Opened(id, writer) => {
                    stats.connections += 1;
                    writers.insert(id, writer);
                }
                Event::Msg(
                    id,
                    Message::Data {
                        sensor,
                        seq,
                        time,
                        values,
                    },
                ) => {
                    // Accepted and Duplicate both mean durable: ack
                    // either way. Rejected (poisoned storage or WAL
                    // budget shedding) must never be acked — send a
                    // NACK so the client fails fast instead of timing
                    // out. A failed reply write is the client's
                    // problem — it retries and the seq dedup absorbs
                    // the re-delivery.
                    let outcome = collector.deliver(sensor, seq, time, values)?;
                    let reply = match outcome {
                        DeliverOutcome::Accepted | DeliverOutcome::Duplicate => {
                            Message::Ack { sensor, seq }
                        }
                        DeliverOutcome::Rejected(_) => Message::Nack { sensor, seq },
                    };
                    if let Some(w) = writers.get_mut(&id) {
                        let ack_start = std::time::Instant::now();
                        let _ = w.write_all(&encode_frame(&reply));
                        stats.ack_ns = stats
                            .ack_ns
                            .saturating_add(ack_start.elapsed().as_nanos() as u64);
                    }
                }
                Event::Msg(
                    id,
                    Message::DataBatch {
                        sensor,
                        first_seq,
                        readings,
                    },
                ) => {
                    // Admission is per reading, durability per batch:
                    // the cumulative ack is queued against the WAL
                    // cursor the batch ended on and only released once
                    // a completed fsync covers it. The NACK (first
                    // refused seq) goes out immediately — refusal
                    // needs no durability.
                    let out = collector.deliver_batch(sensor, first_seq, &readings)?;
                    if let Some((seq, _)) = out.nack {
                        if let Some(w) = writers.get_mut(&id) {
                            let ack_start = std::time::Instant::now();
                            let _ = w.write_all(&encode_frame(&Message::Nack { sensor, seq }));
                            stats.ack_ns = stats
                                .ack_ns
                                .saturating_add(ack_start.elapsed().as_nanos() as u64);
                        }
                    }
                    if let Some(seq) = out.ack_up_to {
                        pending.push(PendingAck {
                            conn: id,
                            sensor,
                            seq,
                            cursor: out.ack_cursor,
                        });
                        // Policy-driven fsyncs (always, batch-N) may
                        // already cover this batch; release what can
                        // go now and pipeline the rest.
                        stats.ack_ns = stats.ack_ns.saturating_add(release_ready(
                            collector,
                            &mut writers,
                            &mut pending,
                        ));
                    }
                }
                Event::Msg(id, Message::Fin) => {
                    // End of stream: flush the group commit so every
                    // queued ack can be released before the FinAck.
                    if !pending.is_empty() {
                        collector.sync_wal()?;
                        stats.ack_ns = stats.ack_ns.saturating_add(release_ready(
                            collector,
                            &mut writers,
                            &mut pending,
                        ));
                    }
                    if let Some(w) = writers.get_mut(&id) {
                        let _ = w.write_all(&encode_frame(&Message::FinAck));
                        let _ = w.flush();
                    }
                    return Ok(());
                }
                Event::Msg(id, Message::Hello { version, epoch }) => {
                    // The hello's epoch is a fence observation: a
                    // controller speaking for a newer owner epoch
                    // proves a successor committed — this collector is
                    // stale and must fail-stop before its next append.
                    if epoch > 0 {
                        collector.observe_epoch(epoch);
                    }
                    match version {
                        PROTOCOL_V1 => {
                            // Legacy stop-and-wait: no reply, exactly
                            // as version 1 of the server behaved.
                        }
                        PROTOCOL_VERSION if !self.v1_only => {
                            if let Some(w) = writers.get_mut(&id) {
                                let _ = w.write_all(&encode_frame(&Message::HelloAck {
                                    version: PROTOCOL_VERSION,
                                    credits: self.credit_window,
                                }));
                            }
                        }
                        _ => {
                            // Unknown version — or v2 on a server
                            // pinned to v1 — gets a typed reject naming
                            // the highest version this server speaks.
                            stats.version_rejects += 1;
                            let supported = if self.v1_only {
                                PROTOCOL_V1
                            } else {
                                PROTOCOL_VERSION
                            };
                            if let Some(mut w) = writers.remove(&id) {
                                let _ =
                                    w.write_all(&encode_frame(&Message::HelloReject { supported }));
                                let _ = w.flush();
                                let _ = w.shutdown();
                            }
                        }
                    }
                }
                Event::Msg(id, Message::Heartbeat { epoch }) => {
                    // Liveness probe: reply with our epoch and the
                    // last committed checkpoint cursor (the pre-warm
                    // coordinate). A newer carried epoch fences us.
                    if epoch > 0 {
                        collector.observe_epoch(epoch);
                    }
                    if let Some(w) = writers.get_mut(&id) {
                        let _ = w.write_all(&encode_frame(&Message::HeartbeatAck {
                            epoch: collector.epoch(),
                            checkpoint_cursor: collector.checkpoint_cursor(),
                        }));
                        let _ = w.flush();
                    }
                }
                Event::Msg(id, Message::MigrateOffer { start, end }) => {
                    // Source side of a live migration: cut the range
                    // at the current cursor and stage it for
                    // transfer. The cut fsyncs the log before
                    // choosing its cursor, so acks queued behind the
                    // group commit become releasable — let none of
                    // them trail the MigrateAccept.
                    let cut = collector.export_range(start..end);
                    if !pending.is_empty() {
                        stats.ack_ns = stats.ack_ns.saturating_add(release_ready(
                            collector,
                            &mut writers,
                            &mut pending,
                        ));
                    }
                    match cut {
                        Ok((inside, cursor)) => {
                            let snapshot = encode_collector(&inside).into_bytes();
                            if let Some(w) = writers.get_mut(&id) {
                                let _ = w.write_all(&encode_frame(&Message::MigrateAccept {
                                    start,
                                    end,
                                    cursor,
                                    snapshot,
                                }));
                                let _ = w.flush();
                            }
                        }
                        // A cut that cannot be made durable is
                        // answered with silence: the controller's
                        // deadline aborts the migration while this
                        // collector keeps serving (or fail-stops on
                        // its poisoned WAL) — never a half-cut.
                        Err(GatewayError::MigrationCut(_)) | Err(GatewayError::Wal(_)) => {}
                        Err(e) => return Err(e),
                    }
                }
                Event::Msg(
                    id,
                    Message::MigrateAccept {
                        start,
                        end,
                        cursor,
                        snapshot,
                    },
                ) => {
                    // Destination side: adopt the shipped range and
                    // confirm only once the restore point is durable.
                    // An undecodable or unadoptable payload gets
                    // silence — the controller's deadline aborts and
                    // the source's staged copy stays authoritative.
                    let adopted = String::from_utf8(snapshot)
                        .ok()
                        .and_then(|text| decode_collector(&text).ok())
                        .map(|snap| collector.adopt_range(start..end, cursor, &snap));
                    match adopted {
                        Some(Ok(())) => {
                            if let Some(w) = writers.get_mut(&id) {
                                let _ = w.write_all(&encode_frame(&Message::MigrateDone {
                                    start,
                                    end,
                                    cursor,
                                }));
                                let _ = w.flush();
                            }
                        }
                        Some(Err(GatewayError::MigrationCut(_)))
                        | Some(Err(GatewayError::Wal(_)))
                        | None => {}
                        Some(Err(e)) => return Err(e),
                    }
                }
                Event::Msg(id, Message::MigrateDone { start, end, cursor }) => {
                    // The range is durable at its new home, so the
                    // staged outbox copy is no longer needed. Echoed
                    // back as the acknowledgment.
                    collector.clear_outbox(start..end);
                    if let Some(w) = writers.get_mut(&id) {
                        let _ = w.write_all(&encode_frame(&Message::MigrateDone {
                            start,
                            end,
                            cursor,
                        }));
                        let _ = w.flush();
                    }
                }
                Event::Msg(
                    _,
                    Message::Ack { .. }
                    | Message::AckUpTo { .. }
                    | Message::FinAck
                    | Message::Nack { .. }
                    | Message::HelloAck { .. }
                    | Message::HelloReject { .. }
                    | Message::HeartbeatAck { .. },
                ) => {
                    // Server-bound streams should not carry replies;
                    // ignore rather than kill the connection.
                }
                Event::BadFrame(id, e) => {
                    stats.bad_frames += 1;
                    stats.frame_errors.push(e);
                    pending.retain(|p| p.conn != id);
                    if let Some(w) = writers.remove(&id) {
                        let _ = w.shutdown();
                    }
                }
                Event::Closed(id) => {
                    pending.retain(|p| p.conn != id);
                    writers.remove(&id);
                }
            }
        }
    }
}

/// Writes every queued `AckUpTo` whose WAL cursor a completed fsync
/// now covers; the rest stay queued. A connection's released acks go
/// out in queue order as one write, connections in ascending id (the
/// order `StepServer::release_ready` mirrors). Returns the wall
/// nanoseconds spent writing (the ack stage of the bench breakdown).
fn release_ready(
    collector: &Collector,
    writers: &mut BTreeMap<u64, Stream>,
    pending: &mut Vec<PendingAck>,
) -> u64 {
    let synced = collector.synced_cursor();
    let mut released: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
    pending.retain(|p| {
        if p.cursor > synced {
            return true;
        }
        released
            .entry(p.conn)
            .or_default()
            .extend_from_slice(&encode_frame(&Message::AckUpTo {
                sensor: p.sensor,
                seq: p.seq,
            }));
        false
    });
    let mut spent = 0u64;
    for (conn, acks) in released {
        if let Some(w) = writers.get_mut(&conn) {
            let start = std::time::Instant::now();
            let _ = w.write_all(&acks);
            spent = spent.saturating_add(start.elapsed().as_nanos() as u64);
        }
    }
    spent
}

fn accept_loop(
    listener: Listener,
    events: Sender<Event>,
    shutdown: Arc<AtomicBool>,
    read_timeout: Duration,
    decode_ns: Arc<AtomicU64>,
) {
    let mut readers: Vec<JoinHandle<()>> = Vec::new();
    let mut next_id = 0u64;
    while !shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok(stream) => {
                let id = next_id;
                next_id += 1;
                let ok = stream.set_read_timeout(Some(read_timeout)).is_ok()
                    && stream
                        .set_write_timeout(Some(Duration::from_secs(5)))
                        .is_ok();
                let writer = stream.try_clone();
                match (ok, writer) {
                    (true, Ok(writer)) => {
                        if events.send(Event::Opened(id, writer)).is_err() {
                            return;
                        }
                        let tx = events.clone();
                        let sd = Arc::clone(&shutdown);
                        let dns = Arc::clone(&decode_ns);
                        readers.push(std::thread::spawn(move || {
                            reader_loop(id, stream, tx, sd, dns);
                        }));
                    }
                    _ => {
                        let _ = stream.shutdown();
                    }
                }
            }
            Err(e) if is_timeout(&e) => {
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(_) => break,
        }
    }
    for handle in readers {
        let _ = handle.join();
    }
}

fn reader_loop(
    id: u64,
    mut stream: Stream,
    events: Sender<Event>,
    shutdown: Arc<AtomicBool>,
    decode_ns: Arc<AtomicU64>,
) {
    let mut fb = FrameBuffer::new();
    let mut buf = [0u8; 8192];
    loop {
        if shutdown.load(Ordering::SeqCst) {
            return;
        }
        match stream.read(&mut buf) {
            Ok(0) => {
                let _ = events.send(Event::Closed(id));
                return;
            }
            Ok(n) => {
                let mut decode_start = std::time::Instant::now();
                fb.feed(&buf[..n]);
                loop {
                    // The decode clock covers framing + parse only;
                    // it stops before the (possibly blocking) queue
                    // send and restarts after it, so backpressure is
                    // not billed as decoding even when one read
                    // carries a whole window of frames.
                    let next = fb.next_message();
                    decode_ns
                        .fetch_add(decode_start.elapsed().as_nanos() as u64, Ordering::Relaxed);
                    match next {
                        Ok(Some(msg)) => {
                            // Blocking send on the bounded queue is the
                            // backpressure point.
                            if events.send(Event::Msg(id, msg)).is_err() {
                                return;
                            }
                            decode_start = std::time::Instant::now();
                        }
                        Ok(None) => break,
                        Err(e) => {
                            let _ = stream.shutdown();
                            let _ = events.send(Event::BadFrame(id, e));
                            return;
                        }
                    }
                }
            }
            Err(e) if is_timeout(&e) => continue,
            Err(_) => {
                let _ = events.send(Event::Closed(id));
                return;
            }
        }
    }
}

/// A legacy (v1) Hello frame for raw-socket clients to open with
/// (re-exported convenience). The server sends no reply to a v1
/// Hello, so a raw connection can stream Data frames immediately.
pub fn hello_frame() -> Vec<u8> {
    encode_frame(&Message::Hello {
        version: PROTOCOL_V1,
        epoch: 0,
    })
}

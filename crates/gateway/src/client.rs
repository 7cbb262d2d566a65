//! The sensor-side client: the pipelined, credit-windowed
//! [`PipelinedUplink`].
//!
//! Readings are coalesced into `DataBatch` frames, many batches ride
//! the wire unacknowledged at once (bounded by the credit window the
//! server grants in its `HelloAck`), and the server's cumulative
//! `AckUpTo` retires whole batches at a time. An `AckUpTo` is only
//! ever sent for readings whose WAL extent a completed fsync covers,
//! so the pipeline's only effect is latency hiding. On timeout, NACK,
//! or reconnection the uplink retransmits unacked batches in order —
//! with capped exponential backoff plus seeded jitter between
//! attempts, so a retry storm from many motes decorrelates
//! deterministically — and the server's sequence dedup absorbs
//! whatever was already durable. That transparently rides out a
//! server restart.
//!
//! Batching must not make the collector drop readings as late. The
//! `HelloAck` carries the collector's reorder watermark delay, and no
//! open batch is left unsealed once a newer reading is more than that
//! delay ahead of its first reading (DESIGN.md §14.4).
//!
//! [`PipelinedUplink::send_at`] exposes the raw `(seq, …)` coordinate
//! so the network simulator can inject duplicates and reordering
//! through the real client path.

use crate::frame::{encode_frame, FrameBuffer, Message, PROTOCOL_VERSION};
use crate::net::{is_timeout, Stream};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sentinet_sim::{SensorId, Timestamp};
use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::io::{Read, Write};
use std::time::{Duration, Instant};

/// Uplink tuning.
#[derive(Debug, Clone)]
pub struct UplinkConfig {
    /// Endpoint to connect to: `"127.0.0.1:4410"` or `"unix:/path"`.
    pub connect: String,
    /// How long one attempt waits for its ack before retrying.
    pub ack_timeout: Duration,
    /// Attempts per frame before giving up.
    pub max_attempts: u32,
    /// First backoff delay; doubles per attempt.
    pub backoff_base: Duration,
    /// Backoff ceiling.
    pub backoff_cap: Duration,
    /// Seed for the jitter added to each backoff.
    pub jitter_seed: u64,
    /// Jitter ceiling as a percentage of the computed delay (0
    /// disables jitter entirely — fully deterministic backoff, the
    /// knob federation drills use to compress time). Values above 100
    /// are clamped to 100.
    pub jitter_pct: u32,
    /// Fence epoch carried in the Hello handshake (0 = unfenced; the
    /// field is then omitted from the wire). Federation links set
    /// this to the partition's failover epoch so a collector that was
    /// partitioned away learns it has been superseded the moment any
    /// newer-epoch peer connects.
    pub epoch: u64,
}

impl UplinkConfig {
    /// Defaults for `connect`: 500 ms ack wait, 8 attempts, 25 ms
    /// base / 2 s cap backoff with up to 50% seeded jitter.
    pub fn new(connect: impl Into<String>) -> Self {
        Self {
            connect: connect.into(),
            ack_timeout: Duration::from_millis(500),
            max_attempts: 8,
            backoff_base: Duration::from_millis(25),
            backoff_cap: Duration::from_secs(2),
            jitter_seed: 7,
            jitter_pct: 50,
            epoch: 0,
        }
    }
}

/// Why the uplink gave up.
#[derive(Debug)]
pub enum UplinkError {
    /// Every attempt at one frame went unacknowledged.
    Exhausted {
        /// Sensor of the abandoned frame.
        sensor: SensorId,
        /// Sequence number of the abandoned frame.
        seq: u64,
        /// Attempts made.
        attempts: u32,
    },
    /// Every attempt at the `Fin` handshake went unacknowledged.
    FinExhausted {
        /// Attempts made.
        attempts: u32,
    },
    /// Every attempt to (re)connect and complete the version
    /// handshake failed.
    ConnectExhausted {
        /// Attempts made.
        attempts: u32,
    },
    /// The server refused the client's protocol version.
    VersionRejected {
        /// Highest version the server supports.
        supported: u32,
    },
}

impl fmt::Display for UplinkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UplinkError::Exhausted {
                sensor,
                seq,
                attempts,
            } => write!(
                f,
                "no ack for {sensor} seq {seq} after {attempts} attempt(s)"
            ),
            UplinkError::FinExhausted { attempts } => {
                write!(f, "no fin-ack after {attempts} attempt(s)")
            }
            UplinkError::ConnectExhausted { attempts } => {
                write!(f, "handshake failed after {attempts} attempt(s)")
            }
            UplinkError::VersionRejected { supported } => {
                write!(
                    f,
                    "server rejected protocol version (supports up to {supported})"
                )
            }
        }
    }
}

impl std::error::Error for UplinkError {}

/// Client-side transport accounting, surfaced through
/// [`GatewayReport::uplink`](crate::collector::GatewayReport::uplink)
/// so pipelining regressions (retry storms, silent timeout churn) are
/// observable instead of being swallowed by the backoff loop.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UplinkStats {
    /// Data-carrying frames written to the socket, including
    /// retransmissions.
    pub frames_sent: u64,
    /// Frames re-sent after a timeout, NACK, or reconnection.
    pub retransmits: u64,
    /// Ack waits that hit the deadline.
    pub timeouts: u64,
    /// NACKs received from the server.
    pub nacks: u64,
    /// Connections re-established after a failure (the first connect
    /// is not counted).
    pub reconnects: u64,
    /// Batches fully acknowledged: each retires once, when the
    /// first cumulative `AckUpTo` covering its last reading arrives.
    pub acked: u64,
}

/// Capped exponential backoff delay: `min(cap, base · 2^(attempt−1))`
/// plus up to `jitter_pct`% of that, drawn from the seeded `rng`.
///
/// Public so the controller tier can reuse the exact same retry
/// arithmetic for failover/handoff attempts — one backoff policy
/// across the whole transport stack, every knob configurable.
pub fn backoff_delay(
    rng: &mut StdRng,
    base: Duration,
    cap: Duration,
    jitter_pct: u32,
    attempt: u32,
) -> Duration {
    let base = base.as_millis() as u64;
    let cap = cap.as_millis() as u64;
    let exp = base.saturating_mul(1u64 << attempt.saturating_sub(1).min(20));
    let delay = exp.min(cap);
    let ceiling = delay.saturating_mul(u64::from(jitter_pct.min(100))) / 100;
    let jitter = if ceiling > 0 {
        rng.gen_range(0..ceiling + 1)
    } else {
        0
    };
    Duration::from_millis(delay + jitter)
}

/// Sleeps for [`backoff_delay`] under the uplink's backoff knobs.
fn backoff_sleep(rng: &mut StdRng, config: &UplinkConfig, attempt: u32) {
    std::thread::sleep(backoff_delay(
        rng,
        config.backoff_base,
        config.backoff_cap,
        config.jitter_pct,
        attempt,
    ));
}

/// Why [`await_reply`] returned without the reply it waited for.
enum NoReply {
    /// The deadline passed (connection still healthy).
    Timeout,
    /// The connection failed (I/O error, EOF, or a frame error).
    Broken,
}

/// Pipelined-uplink tuning on top of the shared transport knobs.
#[derive(Debug, Clone)]
pub struct PipelinedConfig {
    /// Endpoint, ack deadline, attempt budget, backoff, and epoch.
    pub transport: UplinkConfig,
    /// Readings coalesced into one `DataBatch` frame.
    pub batch_size: usize,
    /// Client-side ceiling on in-flight batches; the effective window
    /// is `min(this, the server's HelloAck credit grant)`.
    pub max_inflight: usize,
}

impl PipelinedConfig {
    /// Defaults for `connect`: 256-reading batches, up to 32 batches
    /// in flight, transport defaults from [`UplinkConfig::new`].
    pub fn new(connect: impl Into<String>) -> Self {
        Self {
            transport: UplinkConfig::new(connect),
            batch_size: 256,
            max_inflight: 32,
        }
    }
}

/// A sensor's open (not yet sealed) batch: the first sequence number
/// plus the readings buffered so far.
type OpenBatch = (u64, Vec<(Timestamp, Vec<f64>)>);

/// One sealed batch: the encoded frame plus the coordinates needed to
/// retire it against cumulative acks (and to retransmit it verbatim).
struct Batch {
    sensor: SensorId,
    first_seq: u64,
    len: usize,
    frame: Vec<u8>,
    sent_at: Instant,
    attempts: u32,
}

impl Batch {
    /// Encodes `readings` (seqs `first_seq..`) as one unsent batch.
    fn new(sensor: SensorId, first_seq: u64, readings: Vec<(Timestamp, Vec<f64>)>) -> Self {
        let len = readings.len();
        let frame = encode_frame(&Message::DataBatch {
            sensor,
            first_seq,
            readings,
        });
        Self {
            sensor,
            first_seq,
            len,
            frame,
            sent_at: Instant::now(),
            attempts: 0,
        }
    }

    fn last_seq(&self) -> u64 {
        self.first_seq + self.len as u64 - 1
    }
}

/// The pipelined, credit-windowed client. Readings are buffered per
/// sensor, sealed into `DataBatch` frames, and streamed with up to a
/// window of batches unacknowledged; the server's cumulative
/// `AckUpTo` (sent only after the covering fsync) retires them.
/// Unacked batches are retransmitted on timeout, NACK, and
/// reconnection — the server's dedup absorbs anything already
/// durable.
pub struct PipelinedUplink {
    config: PipelinedConfig,
    conn: Option<(Stream, FrameBuffer)>,
    /// Negotiated window (min of our ceiling and the server grant).
    credits: usize,
    /// The collector's reorder watermark delay, from the `HelloAck`.
    watermark_delay: Timestamp,
    next_seq: BTreeMap<SensorId, u64>,
    /// Per-sensor open batch: first seq + buffered readings.
    buffers: BTreeMap<SensorId, OpenBatch>,
    /// Sealed batches not yet on the wire.
    queue: VecDeque<Batch>,
    /// Batches on the wire awaiting their cumulative ack.
    inflight: VecDeque<Batch>,
    rng: StdRng,
    stats: UplinkStats,
    ever_connected: bool,
    /// Reused send buffer: one window of encoded batches per write.
    wire: Vec<u8>,
}

impl fmt::Debug for PipelinedUplink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PipelinedUplink")
            .field("connect", &self.config.transport.connect)
            .field("inflight", &self.inflight.len())
            .field("stats", &self.stats)
            .finish()
    }
}

impl PipelinedUplink {
    /// A disconnected uplink; the first send connects and negotiates.
    pub fn new(config: PipelinedConfig) -> Self {
        let rng = StdRng::seed_from_u64(config.transport.jitter_seed);
        Self {
            config,
            conn: None,
            credits: 1,
            watermark_delay: 0,
            next_seq: BTreeMap::new(),
            buffers: BTreeMap::new(),
            queue: VecDeque::new(),
            inflight: VecDeque::new(),
            rng,
            stats: UplinkStats::default(),
            ever_connected: false,
            wire: Vec::new(),
        }
    }

    /// Transport counters so far.
    pub fn stats(&self) -> UplinkStats {
        self.stats
    }

    /// Buffers one reading under the sensor's next sequence number,
    /// sealing and streaming a batch when one fills. Returns the seq.
    /// Blocks only when the credit window is exhausted (waiting for
    /// an ack to free a slot).
    ///
    /// Readings must arrive in time order across sensors (as routed
    /// input does). Before `time` is buffered, every open batch whose
    /// first reading is older than `time − watermark_delay` is sealed
    /// and sent, so each reading on the wire lies within the
    /// collector's watermark delay of the newest reading sent before
    /// it, and the collector never drops it as late.
    ///
    /// # Errors
    ///
    /// Any [`UplinkError`] once a batch (or the handshake) exhausts
    /// its attempts.
    pub fn send(
        &mut self,
        sensor: SensorId,
        time: Timestamp,
        values: &[f64],
    ) -> Result<u64, UplinkError> {
        // The sealing rule needs the collector's watermark delay, which
        // only the handshake reports: connect before buffering anything.
        if !self.ever_connected {
            self.ensure_connected()?;
        }
        self.seal_older_than(time.saturating_sub(self.watermark_delay))?;
        let seq = {
            let next = self.next_seq.entry(sensor).or_insert(0);
            let seq = *next;
            *next += 1;
            seq
        };
        let batch_size = self
            .config
            .batch_size
            .clamp(1, crate::frame::MAX_BATCH_READINGS);
        let (first, readings) = self
            .buffers
            .entry(sensor)
            .or_insert_with(|| (seq, Vec::new()));
        if readings.is_empty() {
            *first = seq;
        }
        readings.push((time, values.to_vec()));
        if readings.len() >= batch_size {
            self.seal(sensor);
            self.pump(false)?;
        }
        Ok(seq)
    }

    /// Sends one reading under an explicit sequence number as its own
    /// single-reading batch — the hook the network simulator uses to
    /// inject duplicate and reordered deliveries through the real
    /// retransmit path. It bypasses the automatic numbering and the
    /// sealing rule of [`send`](Self::send), so a stream should be
    /// driven wholly through one or the other.
    ///
    /// # Errors
    ///
    /// Any [`UplinkError`] once a batch (or the handshake) exhausts
    /// its attempts.
    pub fn send_at(
        &mut self,
        sensor: SensorId,
        seq: u64,
        time: Timestamp,
        values: &[f64],
    ) -> Result<(), UplinkError> {
        self.queue
            .push_back(Batch::new(sensor, seq, vec![(time, values.to_vec())]));
        self.pump(false)
    }

    /// Seals every buffered reading and blocks until every in-flight
    /// batch is acknowledged.
    ///
    /// # Errors
    ///
    /// Any [`UplinkError`] once a batch exhausts its attempts.
    pub fn flush(&mut self) -> Result<(), UplinkError> {
        let sensors: Vec<SensorId> = self.buffers.keys().copied().collect();
        for sensor in sensors {
            self.seal(sensor);
        }
        self.pump(true)
    }

    /// Ends the stream: flushes and awaits all acks, then runs the
    /// `Fin`/`FinAck` handshake and closes. Returns the transport
    /// counters for the run.
    ///
    /// # Errors
    ///
    /// Any [`UplinkError`]; [`UplinkError::FinExhausted`] if the
    /// handshake never completes.
    pub fn finish(mut self) -> Result<UplinkStats, UplinkError> {
        self.flush()?;
        let frame = encode_frame(&Message::Fin);
        for attempt in 0..self.config.transport.max_attempts {
            if attempt > 0 {
                backoff_sleep(&mut self.rng, &self.config.transport, attempt);
            }
            if self.conn.is_none() && self.ensure_connected().is_err() {
                continue;
            }
            let Some((mut stream, mut fb)) = self.conn.take() else {
                continue;
            };
            let reply = match stream.write_all(&frame).and_then(|()| stream.flush()) {
                Ok(()) => await_reply(
                    &mut stream,
                    &mut fb,
                    self.config.transport.ack_timeout,
                    |msg| matches!(msg, Message::FinAck).then_some(()),
                ),
                Err(_) => Err(NoReply::Broken),
            };
            match reply {
                Ok(()) => {
                    let _ = stream.shutdown();
                    return Ok(self.stats);
                }
                // The server is slow: keep the connection, the retry
                // rides the same stream.
                Err(NoReply::Timeout) => self.conn = Some((stream, fb)),
                Err(NoReply::Broken) => {
                    let _ = stream.shutdown();
                }
            }
        }
        Err(UplinkError::FinExhausted {
            attempts: self.config.transport.max_attempts,
        })
    }

    /// Moves the sensor's open buffer into the send queue as one
    /// encoded `DataBatch` frame.
    fn seal(&mut self, sensor: SensorId) {
        let Some((first_seq, readings)) = self.buffers.remove(&sensor) else {
            return;
        };
        if readings.is_empty() {
            return;
        }
        self.queue
            .push_back(Batch::new(sensor, first_seq, readings));
    }

    /// Seals, oldest first, every open batch whose first reading is
    /// older than `horizon`, and streams them.
    fn seal_older_than(&mut self, horizon: Timestamp) -> Result<(), UplinkError> {
        let mut stale: Vec<(Timestamp, SensorId)> = self
            .buffers
            .iter()
            .filter_map(|(&sensor, (_, readings))| Some((readings.first()?.0, sensor)))
            .filter(|&(first, _)| first < horizon)
            .collect();
        if stale.is_empty() {
            return Ok(());
        }
        stale.sort_unstable();
        for (_, sensor) in stale {
            self.seal(sensor);
        }
        self.pump(false)
    }

    /// The engine: keeps the wire full. Sends queued batches while
    /// the window has room; when the window is full (or `drain` wants
    /// everything retired) waits for acks, retransmitting what times
    /// out. Returns with the queue empty — and, when `drain` is set,
    /// the in-flight window empty too.
    fn pump(&mut self, drain: bool) -> Result<(), UplinkError> {
        loop {
            self.ensure_connected()?;
            let Some((stream, _)) = self.conn.as_mut() else {
                continue;
            };
            // Everything the window admits goes out as one write: with
            // Nagle off this is the only coalescing, and one segment
            // per window beats one per frame.
            self.wire.clear();
            let first_new = self.inflight.len();
            while self.inflight.len() < self.credits {
                let Some(mut batch) = self.queue.pop_front() else {
                    break;
                };
                batch.attempts += 1;
                if batch.attempts > 1 {
                    self.stats.retransmits += 1;
                }
                self.stats.frames_sent += 1;
                self.wire.extend_from_slice(&batch.frame);
                self.inflight.push_back(batch);
            }
            if !self.wire.is_empty() {
                let written = stream.write_all(&self.wire).and_then(|()| stream.flush());
                let sent_at = Instant::now();
                for batch in self.inflight.iter_mut().skip(first_new) {
                    batch.sent_at = sent_at;
                }
                if written.is_err() {
                    // How much of the window reached the peer is
                    // unknown: leave it in flight, and the reconnect
                    // requeues it for retransmission, oldest first.
                    self.disconnect();
                    continue;
                }
            }
            if self.queue.is_empty() && (!drain || self.inflight.is_empty()) {
                return Ok(());
            }
            self.await_progress()?;
        }
    }

    /// Blocks until something changes: a batch retires, a batch times
    /// out back into the queue, or the connection drops (the caller's
    /// loop reconnects and retransmits).
    fn await_progress(&mut self) -> Result<(), UplinkError> {
        let Some((mut stream, mut fb)) = self.conn.take() else {
            return Ok(());
        };
        let mut buf = [0u8; 8192];
        loop {
            loop {
                match fb.next_message() {
                    Ok(Some(msg)) => match self.handle_reply(&msg) {
                        Ok(true) => {
                            self.conn = Some((stream, fb));
                            return Ok(());
                        }
                        Ok(false) => {}
                        Err(e) => return Err(e),
                    },
                    Ok(None) => break,
                    Err(_) => {
                        // Corrupt reply stream: drop the connection;
                        // reconnection replays the in-flight window.
                        let _ = stream.shutdown();
                        return Ok(());
                    }
                }
            }
            if let Some(overdue) = self.take_overdue()? {
                self.stats.timeouts += 1;
                self.queue.push_front(overdue);
                self.conn = Some((stream, fb));
                return Ok(());
            }
            match stream.read(&mut buf) {
                Ok(0) => {
                    let _ = stream.shutdown();
                    return Ok(());
                }
                Ok(n) => fb.feed(&buf[..n]),
                Err(e) if is_timeout(&e) => {}
                Err(_) => {
                    let _ = stream.shutdown();
                    return Ok(());
                }
            }
        }
    }

    /// Pulls the oldest in-flight batch past the ack deadline, if
    /// any; errors when it is out of attempts.
    fn take_overdue(&mut self) -> Result<Option<Batch>, UplinkError> {
        let deadline = self.config.transport.ack_timeout;
        let pos = self
            .inflight
            .iter()
            .position(|b| b.sent_at.elapsed() >= deadline);
        let Some(pos) = pos else {
            return Ok(None);
        };
        // sentinet-allow(expect-used): position() came from this deque
        let batch = self.inflight.remove(pos).expect("indexed batch");
        if batch.attempts >= self.config.transport.max_attempts {
            return Err(UplinkError::Exhausted {
                sensor: batch.sensor,
                seq: batch.first_seq,
                attempts: batch.attempts,
            });
        }
        Ok(Some(batch))
    }

    /// Processes one server reply; `Ok(true)` means progress (a batch
    /// retired or requeued) that lets the pump loop re-evaluate.
    fn handle_reply(&mut self, msg: &Message) -> Result<bool, UplinkError> {
        match msg {
            Message::AckUpTo { sensor, seq } => {
                let before = self.inflight.len();
                self.inflight
                    .retain(|b| !(b.sensor == *sensor && b.last_seq() <= *seq));
                let retired = before - self.inflight.len();
                self.stats.acked += retired as u64;
                Ok(retired > 0)
            }
            Message::Nack { sensor, seq } => {
                self.stats.nacks += 1;
                let pos = self.inflight.iter().position(|b| {
                    b.sensor == *sensor && b.first_seq <= *seq && *seq <= b.last_seq()
                });
                let Some(pos) = pos else {
                    return Ok(false);
                };
                // sentinet-allow(expect-used): position() came from this deque
                let batch = self.inflight.remove(pos).expect("indexed batch");
                if batch.attempts >= self.config.transport.max_attempts {
                    return Err(UplinkError::Exhausted {
                        sensor: batch.sensor,
                        seq: *seq,
                        attempts: batch.attempts,
                    });
                }
                // Alive but refusing (poisoned storage, budget, fence):
                // pace the re-offer instead of hammering the server.
                backoff_sleep(&mut self.rng, &self.config.transport, batch.attempts);
                self.queue.push_front(batch);
                Ok(true)
            }
            Message::HelloReject { supported } => Err(UplinkError::VersionRejected {
                supported: *supported,
            }),
            // Stale handshake replies or anything else a server might
            // emit: not ours, not progress.
            _ => Ok(false),
        }
    }

    fn disconnect(&mut self) {
        if let Some((stream, _)) = self.conn.take() {
            let _ = stream.shutdown();
        }
    }

    /// Connects and completes the handshake (with the transport's
    /// attempt/backoff budget), then requeues the dead connection's
    /// in-flight window for retransmission.
    fn ensure_connected(&mut self) -> Result<(), UplinkError> {
        if self.conn.is_some() {
            return Ok(());
        }
        let transport = self.config.transport.clone();
        let hello = Message::Hello {
            version: PROTOCOL_VERSION,
            epoch: transport.epoch,
        };
        for attempt in 0..transport.max_attempts {
            if attempt > 0 {
                backoff_sleep(&mut self.rng, &transport, attempt);
            }
            let Some(mut stream) = dial(&transport.connect, transport.ack_timeout, &hello) else {
                continue;
            };
            let mut fb = FrameBuffer::new();
            let grant = await_reply(
                &mut stream,
                &mut fb,
                transport.ack_timeout,
                |msg| match msg {
                    Message::HelloAck {
                        credits,
                        watermark_delay,
                        ..
                    } => Some(Ok((credits, watermark_delay))),
                    Message::HelloReject { supported } => Some(Err(supported)),
                    _ => None,
                },
            );
            let (credits, watermark_delay) = match grant {
                Ok(Ok(grant)) => grant,
                Ok(Err(supported)) => return Err(UplinkError::VersionRejected { supported }),
                Err(_) => continue,
            };
            self.credits = (credits as usize).min(self.config.max_inflight).max(1);
            self.watermark_delay = watermark_delay;
            if self.ever_connected {
                self.stats.reconnects += 1;
            }
            self.ever_connected = true;
            // Whatever the dead connection had in flight is
            // unconfirmed: send it again, oldest first; dedup absorbs
            // duplicates. The pump counts each as a retransmit when it
            // goes back on the wire.
            while let Some(b) = self.inflight.pop_back() {
                self.queue.push_front(b);
            }
            self.conn = Some((stream, fb));
            return Ok(());
        }
        Err(UplinkError::ConnectExhausted {
            attempts: transport.max_attempts,
        })
    }
}

/// One-shot heartbeat over a dedicated connection: dial `connect`,
/// send a `Heartbeat` carrying `epoch`, wait up to `timeout` for the
/// `HeartbeatAck`, and return the server's `(fence epoch, checkpoint
/// cursor)`. `None` on any connect, I/O, or deadline failure — the
/// caller's liveness machine treats that as a missed beat, never an
/// error. Kept separate from both uplinks so the federation's
/// heartbeat channel cannot perturb the data path's retransmit state.
pub fn probe_heartbeat(connect: &str, epoch: u64, timeout: Duration) -> Option<(u64, u64)> {
    exchange(
        connect,
        &Message::Heartbeat { epoch },
        timeout,
        |msg| match msg {
            Message::HeartbeatAck {
                epoch,
                checkpoint_cursor,
            } => Some((epoch, checkpoint_cursor)),
            _ => None,
        },
    )
}

/// One-shot control exchange over a dedicated connection: dial
/// `connect`, send `request`, and wait up to `timeout` for the first
/// reply `matches` accepts. `None` on any connect, I/O, or deadline
/// failure — the migration driver treats that as a failed step (abort
/// or retry), never an error. Like [`probe_heartbeat`], deliberately
/// separate from the data uplink so control traffic cannot perturb
/// retransmit state.
fn exchange<T>(
    connect: &str,
    request: &Message,
    timeout: Duration,
    matches: impl FnMut(Message) -> Option<T>,
) -> Option<T> {
    let mut stream = dial(connect, timeout, request)?;
    await_reply(&mut stream, &mut FrameBuffer::new(), timeout, matches).ok()
}

/// Orders the collector at `connect` to cut the sensor range
/// `[start, end)` out of its live state (a `MigrateOffer`), returning
/// the cut's WAL cursor and the staged sub-range snapshot bytes from
/// the `MigrateAccept`. From the moment this returns, the source
/// NACKs the range as fenced. `None` means the cut did not commit
/// there — safe to retry (the cut is idempotent) or abort.
pub fn probe_migrate_cut(
    connect: &str,
    start: u16,
    end: u16,
    timeout: Duration,
) -> Option<(u64, Vec<u8>)> {
    exchange(
        connect,
        &Message::MigrateOffer { start, end },
        timeout,
        |msg| match msg {
            Message::MigrateAccept {
                start: s,
                end: e,
                cursor,
                snapshot,
            } if (s, e) == (start, end) => Some((cursor, snapshot)),
            _ => None,
        },
    )
}

/// Ships a staged sub-range snapshot to the destination collector at
/// `connect` (a forwarded `MigrateAccept`) and waits for its
/// `MigrateDone` — the confirmation that the restore point is durable
/// at the new home. `None` means adoption did not commit; the staged
/// source copy stays authoritative and the step can be retried.
pub fn probe_migrate_adopt(
    connect: &str,
    start: u16,
    end: u16,
    cursor: u64,
    snapshot: Vec<u8>,
    timeout: Duration,
) -> Option<()> {
    exchange(
        connect,
        &Message::MigrateAccept {
            start,
            end,
            cursor,
            snapshot,
        },
        timeout,
        |msg| match msg {
            Message::MigrateDone {
                start: s,
                end: e,
                cursor: c,
            } if (s, e, c) == (start, end, cursor) => Some(()),
            _ => None,
        },
    )
}

/// Tells the source collector at `connect` that the destination has
/// durably adopted `[start, end)` (a forwarded `MigrateDone`), letting
/// it drop the staged outbox payload. Best-effort by design — a
/// leftover outbox for a retired range is inert — so `None` only
/// means the cleanup signal was not acknowledged.
pub fn probe_migrate_done(
    connect: &str,
    start: u16,
    end: u16,
    cursor: u64,
    timeout: Duration,
) -> Option<()> {
    exchange(
        connect,
        &Message::MigrateDone { start, end, cursor },
        timeout,
        |msg| match msg {
            Message::MigrateDone {
                start: s,
                end: e,
                cursor: c,
            } if (s, e, c) == (start, end, cursor) => Some(()),
            _ => None,
        },
    )
}

/// Connects to `connect`, bounds each read by a slice of `timeout` (so
/// deadlines stay responsive), and writes `request`. `None` on any
/// connect or I/O failure.
fn dial(connect: &str, timeout: Duration, request: &Message) -> Option<Stream> {
    let mut stream = Stream::connect(connect).ok()?;
    let per_read = (timeout / 4).max(Duration::from_millis(10));
    stream.set_read_timeout(Some(per_read)).ok()?;
    stream
        .write_all(&encode_frame(request))
        .and_then(|()| stream.flush())
        .ok()?;
    Some(stream)
}

/// Reads `stream` until `pick` accepts a decoded message, or `timeout`
/// passes. Messages `pick` declines (stale acks for earlier batches,
/// say) are skipped; anything already buffered in `fb` is examined
/// before the first read.
fn await_reply<T>(
    stream: &mut Stream,
    fb: &mut FrameBuffer,
    timeout: Duration,
    mut pick: impl FnMut(Message) -> Option<T>,
) -> Result<T, NoReply> {
    let deadline = Instant::now() + timeout;
    let mut buf = [0u8; 4096];
    loop {
        while let Some(msg) = fb.next_message().map_err(|_| NoReply::Broken)? {
            if let Some(out) = pick(msg) {
                return Ok(out);
            }
        }
        if Instant::now() >= deadline {
            return Err(NoReply::Timeout);
        }
        match stream.read(&mut buf) {
            Ok(0) => return Err(NoReply::Broken),
            Ok(n) => fb.feed(&buf[..n]),
            Err(e) if is_timeout(&e) => {}
            Err(_) => return Err(NoReply::Broken),
        }
    }
}

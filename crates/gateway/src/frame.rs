//! Length-prefixed, CRC-framed wire protocol.
//!
//! Every frame on the socket (and every record in the WAL, which
//! reuses the same payload codec) has the shape
//!
//! ```text
//! [u32 payload_len LE] [payload bytes] [u32 crc32(payload) LE]
//! ```
//!
//! and every payload starts with a one-byte message tag. Floating
//! point values travel as IEEE-754 bit patterns (`f64::to_bits`), so a
//! reading round-trips bit-exactly — including the NaN/∞ payloads a
//! broken ADC produces, which must reach the sanitizer unchanged for
//! its accounting to be faithful.
//!
//! Decoding is incremental: a [`FrameBuffer`] is fed raw socket bytes
//! as they arrive (reads use short timeouts, never blocking forever)
//! and yields complete messages. A CRC mismatch or an oversized length
//! prefix is connection-fatal — after corruption the stream offset can
//! no longer be trusted, so the peer closes and the client's retry
//! loop re-delivers anything unacknowledged on a fresh connection.

use crate::crc::crc32;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sentinet_sim::{SensorId, Timestamp};
use std::fmt;

/// Hard cap on a frame payload; anything larger is corruption.
pub const MAX_PAYLOAD: usize = 1 << 20;

/// The one protocol version carried by [`Message::Hello`]: pipelined
/// batch frames ([`Message::DataBatch`]), cumulative acks
/// ([`Message::AckUpTo`]) and explicit negotiation
/// ([`Message::HelloAck`] / [`Message::HelloReject`]). Any other
/// version is refused with a `HelloReject` naming this one.
pub const PROTOCOL_VERSION: u32 = 2;

const TAG_HELLO: u8 = 1;
const TAG_DATA: u8 = 2;
// Tag 3 (the retired per-record ack) decodes as an unknown tag; it is
// never reused, so an old peer's frame cannot parse as something else.
const TAG_FIN: u8 = 4;
const TAG_FIN_ACK: u8 = 5;
const TAG_NACK: u8 = 6;
const TAG_DATA_BATCH: u8 = 7;
const TAG_ACK_UP_TO: u8 = 8;
const TAG_HELLO_ACK: u8 = 9;
const TAG_HELLO_REJECT: u8 = 10;
const TAG_HEARTBEAT: u8 = 11;
const TAG_HEARTBEAT_ACK: u8 = 12;
const TAG_MIGRATE_OFFER: u8 = 13;
const TAG_MIGRATE_ACCEPT: u8 = 14;
const TAG_MIGRATE_DONE: u8 = 15;

/// Hard cap on readings per [`Message::DataBatch`] frame (the frame
/// must also fit [`MAX_PAYLOAD`]).
pub const MAX_BATCH_READINGS: usize = 4096;

/// One protocol message.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// Client greeting; carries the protocol version and (for fenced
    /// federation links) the sender's owner epoch.
    Hello {
        /// Wire protocol version (see [`PROTOCOL_VERSION`]).
        version: u32,
        /// Owner epoch the sender believes is current; `0` means
        /// unfenced (standalone clients). Encoded as an optional
        /// trailing field only when non-zero.
        epoch: u64,
    },
    /// One sensor reading with its per-sensor sequence number — the
    /// WAL's on-disk record format ([`encode_data_payload`]). Never
    /// admitted from the wire: a server that decodes one drops the
    /// connection and counts it.
    Data {
        /// Reporting sensor.
        sensor: SensorId,
        /// Per-sensor sequence number assigned by the client.
        seq: u64,
        /// Sample timestamp.
        time: Timestamp,
        /// Attribute values (possibly empty or non-finite — the
        /// sanitizer, not the codec, polices value semantics).
        values: Vec<f64>,
    },
    /// Client end-of-stream: flush and finalize.
    Fin,
    /// Server acknowledgment of [`Message::Fin`].
    FinAck,
    /// Negative acknowledgment: the `(sensor, seq)` record could not
    /// be made durable (storage failure or WAL budget shedding) and
    /// was *not* accepted. The client must not treat it as delivered;
    /// its retry protocol redelivers later or gives up loudly.
    Nack {
        /// Refused sensor.
        sensor: SensorId,
        /// Refused sequence number.
        seq: u64,
    },
    /// Many consecutive readings from one sensor in a single frame.
    /// Reading `i` carries sequence number
    /// `first_seq + i`; the server admits each reading individually
    /// but logs and fsyncs the batch as one WAL extent.
    DataBatch {
        /// Reporting sensor.
        sensor: SensorId,
        /// Sequence number of the first reading in the batch.
        first_seq: u64,
        /// `(timestamp, values)` per reading, in sequence order.
        readings: Vec<(Timestamp, Vec<f64>)>,
    },
    /// Cumulative acknowledgment: every reading of
    /// `sensor` with sequence number `≤ seq` is durable — its WAL
    /// extent is covered by a completed fsync.
    AckUpTo {
        /// Acknowledged sensor.
        sensor: SensorId,
        /// Highest durable sequence number (inclusive).
        seq: u64,
    },
    /// Server reply to a [`Message::Hello`]: the negotiated version,
    /// the initial credit grant (how many `DataBatch` frames the
    /// client may keep in flight before waiting for acks), and the
    /// collector's reorder watermark delay, which bounds the
    /// stream-time span a client may leave an open batch unsealed.
    HelloAck {
        /// Negotiated protocol version.
        version: u32,
        /// Batch frames the client may keep unacknowledged.
        credits: u32,
        /// The collector's `ReorderConfig::watermark_delay` (seconds).
        watermark_delay: Timestamp,
    },
    /// Server refusal of an unknown [`Message::Hello`] version; names
    /// the highest version the server speaks so the mismatch is a
    /// typed protocol event, not corrupt-frame noise.
    HelloReject {
        /// Highest protocol version the server supports.
        supported: u32,
    },
    /// Lightweight liveness probe from a federation controller. The
    /// carried epoch doubles as a fence observation: a server whose
    /// configured epoch is older fail-stops its WAL.
    Heartbeat {
        /// Owner epoch the controller believes is current.
        epoch: u64,
    },
    /// Server reply to [`Message::Heartbeat`]: the server's own epoch
    /// plus the WAL cursor of its last committed checkpoint, so
    /// standbys can pre-warm from the freshest snapshot.
    HeartbeatAck {
        /// The server's configured owner epoch.
        epoch: u64,
        /// WAL cursor of the last committed checkpoint (0: none yet).
        checkpoint_cursor: u64,
    },
    /// Controller order to the current owner of `[start, end)`: cut
    /// that sensor range out of the live collector at the current WAL
    /// cursor and stage it for transfer. From the moment the cut
    /// commits the range answers `Nack`/fenced, so no acked reading
    /// can postdate the cut. The server replies with
    /// [`Message::MigrateAccept`] carrying the staged sub-range
    /// snapshot.
    MigrateOffer {
        /// First sensor id of the moving range (inclusive).
        start: u16,
        /// One past the last sensor id of the moving range.
        end: u16,
    },
    /// The staged cut of `[start, end)`: the sub-range collector
    /// snapshot taken at `cursor`. Sent by the source server in answer
    /// to [`Message::MigrateOffer`], then forwarded verbatim by the
    /// controller to the destination server, which adopts it and
    /// answers [`Message::MigrateDone`]. The snapshot must fit one
    /// frame ([`MAX_PAYLOAD`]), which bounds how much per-sensor state
    /// a single migration may carry.
    MigrateAccept {
        /// First sensor id of the moving range (inclusive).
        start: u16,
        /// One past the last sensor id of the moving range.
        end: u16,
        /// Source WAL cursor the cut was taken at.
        cursor: u64,
        /// Sub-range snapshot bytes (`snapshot::encode_collector`).
        snapshot: Vec<u8>,
    },
    /// The range `[start, end)` is durably adopted at its new home:
    /// sent by the destination once the shipped snapshot's restore
    /// point commits, and forwarded by the controller to the source as
    /// permission to discard the staged outbox payload (the source
    /// echoes it as an acknowledgment).
    MigrateDone {
        /// First sensor id of the migrated range (inclusive).
        start: u16,
        /// One past the last sensor id of the migrated range.
        end: u16,
        /// The cut cursor being confirmed.
        cursor: u64,
    },
}

/// A frame- or payload-level decoding failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The length prefix exceeds [`MAX_PAYLOAD`].
    TooLarge {
        /// The claimed payload length.
        len: usize,
    },
    /// The payload checksum did not match its CRC trailer.
    BadCrc {
        /// CRC computed over the received payload.
        computed: u32,
        /// CRC carried by the frame.
        carried: u32,
    },
    /// The payload tag byte is unknown.
    UnknownTag(u8),
    /// The payload was shorter than its tag requires.
    ShortPayload {
        /// The offending tag.
        tag: u8,
        /// Bytes present.
        len: usize,
    },
    /// The stream ended in the middle of a frame.
    Truncated,
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::TooLarge { len } => {
                write!(f, "frame length {len} exceeds cap {MAX_PAYLOAD}")
            }
            FrameError::BadCrc { computed, carried } => {
                write!(
                    f,
                    "frame crc mismatch (computed {computed:08x}, carried {carried:08x})"
                )
            }
            FrameError::UnknownTag(tag) => write!(f, "unknown message tag {tag}"),
            FrameError::ShortPayload { tag, len } => {
                write!(f, "payload too short ({len} bytes) for tag {tag}")
            }
            FrameError::Truncated => write!(f, "stream ended mid-frame"),
        }
    }
}

impl std::error::Error for FrameError {}

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Cursor over a payload slice with typed underrun errors.
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
    tag: u8,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], FrameError> {
        let end = self.pos.checked_add(n).filter(|&e| e <= self.bytes.len());
        match end {
            Some(end) => {
                let s = &self.bytes[self.pos..end];
                self.pos = end;
                Ok(s)
            }
            None => Err(FrameError::ShortPayload {
                tag: self.tag,
                len: self.bytes.len(),
            }),
        }
    }

    fn u16(&mut self) -> Result<u16, FrameError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    fn u32(&mut self) -> Result<u32, FrameError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, FrameError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }
}

/// Appends the payload of a `Data` message (tag included) to `out`.
/// The WAL reuses exactly this encoding for its records, so wire and
/// log bytes can share one decoder.
pub fn encode_data_payload(
    sensor: SensorId,
    seq: u64,
    time: Timestamp,
    values: &[f64],
    out: &mut Vec<u8>,
) {
    out.push(TAG_DATA);
    put_u16(out, sensor.0);
    put_u64(out, seq);
    put_u64(out, time);
    put_u16(out, values.len() as u16);
    for v in values {
        put_u64(out, v.to_bits());
    }
}

/// Appends the payload bytes of `msg` to `out`.
pub fn encode_payload(msg: &Message, out: &mut Vec<u8>) {
    match msg {
        Message::Hello { version, epoch } => {
            out.push(TAG_HELLO);
            put_u32(out, *version);
            // Optional trailing field: absent when zero.
            if *epoch > 0 {
                put_u64(out, *epoch);
            }
        }
        Message::Data {
            sensor,
            seq,
            time,
            values,
        } => encode_data_payload(*sensor, *seq, *time, values, out),
        Message::Fin => out.push(TAG_FIN),
        Message::FinAck => out.push(TAG_FIN_ACK),
        Message::Nack { sensor, seq } => {
            out.push(TAG_NACK);
            put_u16(out, sensor.0);
            put_u64(out, *seq);
        }
        Message::DataBatch {
            sensor,
            first_seq,
            readings,
        } => {
            out.push(TAG_DATA_BATCH);
            put_u16(out, sensor.0);
            put_u64(out, *first_seq);
            put_u16(out, readings.len() as u16);
            for (time, values) in readings {
                put_u64(out, *time);
                put_u16(out, values.len() as u16);
                for v in values {
                    put_u64(out, v.to_bits());
                }
            }
        }
        Message::AckUpTo { sensor, seq } => {
            out.push(TAG_ACK_UP_TO);
            put_u16(out, sensor.0);
            put_u64(out, *seq);
        }
        Message::HelloAck {
            version,
            credits,
            watermark_delay,
        } => {
            out.push(TAG_HELLO_ACK);
            put_u32(out, *version);
            put_u32(out, *credits);
            put_u64(out, *watermark_delay);
        }
        Message::HelloReject { supported } => {
            out.push(TAG_HELLO_REJECT);
            put_u32(out, *supported);
        }
        Message::Heartbeat { epoch } => {
            out.push(TAG_HEARTBEAT);
            put_u64(out, *epoch);
        }
        Message::HeartbeatAck {
            epoch,
            checkpoint_cursor,
        } => {
            out.push(TAG_HEARTBEAT_ACK);
            put_u64(out, *epoch);
            put_u64(out, *checkpoint_cursor);
        }
        Message::MigrateOffer { start, end } => {
            out.push(TAG_MIGRATE_OFFER);
            put_u16(out, *start);
            put_u16(out, *end);
        }
        Message::MigrateAccept {
            start,
            end,
            cursor,
            snapshot,
        } => {
            out.push(TAG_MIGRATE_ACCEPT);
            put_u16(out, *start);
            put_u16(out, *end);
            put_u64(out, *cursor);
            put_u32(out, snapshot.len() as u32);
            out.extend_from_slice(snapshot);
        }
        Message::MigrateDone { start, end, cursor } => {
            out.push(TAG_MIGRATE_DONE);
            put_u16(out, *start);
            put_u16(out, *end);
            put_u64(out, *cursor);
        }
    }
}

/// Decodes one payload (tag byte first) into a [`Message`].
///
/// # Errors
///
/// [`FrameError::UnknownTag`] / [`FrameError::ShortPayload`] on a
/// malformed payload.
pub fn decode_payload(payload: &[u8]) -> Result<Message, FrameError> {
    let (&tag, rest) = match payload.split_first() {
        Some(split) => split,
        None => return Err(FrameError::ShortPayload { tag: 0, len: 0 }),
    };
    let mut cur = Cursor {
        bytes: rest,
        pos: 0,
        tag,
    };
    let msg = match tag {
        TAG_HELLO => {
            let version = cur.u32()?;
            // The epoch is an optional trailing field (pre-fencing
            // peers never send it); absent decodes as 0 = unfenced.
            let epoch = if cur.pos < rest.len() { cur.u64()? } else { 0 };
            Message::Hello { version, epoch }
        }
        TAG_DATA => {
            let sensor = SensorId(cur.u16()?);
            let seq = cur.u64()?;
            let time = cur.u64()?;
            let n = cur.u16()? as usize;
            let mut values = Vec::with_capacity(n);
            for _ in 0..n {
                values.push(f64::from_bits(cur.u64()?));
            }
            Message::Data {
                sensor,
                seq,
                time,
                values,
            }
        }
        TAG_FIN => Message::Fin,
        TAG_FIN_ACK => Message::FinAck,
        TAG_NACK => Message::Nack {
            sensor: SensorId(cur.u16()?),
            seq: cur.u64()?,
        },
        TAG_DATA_BATCH => {
            let sensor = SensorId(cur.u16()?);
            let first_seq = cur.u64()?;
            let count = cur.u16()? as usize;
            let mut readings = Vec::with_capacity(count.min(MAX_BATCH_READINGS));
            for _ in 0..count {
                let time = cur.u64()?;
                let n = cur.u16()? as usize;
                let mut values = Vec::with_capacity(n);
                for _ in 0..n {
                    values.push(f64::from_bits(cur.u64()?));
                }
                readings.push((time, values));
            }
            Message::DataBatch {
                sensor,
                first_seq,
                readings,
            }
        }
        TAG_ACK_UP_TO => Message::AckUpTo {
            sensor: SensorId(cur.u16()?),
            seq: cur.u64()?,
        },
        TAG_HELLO_ACK => Message::HelloAck {
            version: cur.u32()?,
            credits: cur.u32()?,
            watermark_delay: cur.u64()?,
        },
        TAG_HELLO_REJECT => Message::HelloReject {
            supported: cur.u32()?,
        },
        TAG_HEARTBEAT => Message::Heartbeat { epoch: cur.u64()? },
        TAG_HEARTBEAT_ACK => Message::HeartbeatAck {
            epoch: cur.u64()?,
            checkpoint_cursor: cur.u64()?,
        },
        TAG_MIGRATE_OFFER => Message::MigrateOffer {
            start: cur.u16()?,
            end: cur.u16()?,
        },
        TAG_MIGRATE_ACCEPT => {
            let start = cur.u16()?;
            let end = cur.u16()?;
            let cursor = cur.u64()?;
            let len = cur.u32()? as usize;
            let snapshot = cur.take(len)?.to_vec();
            Message::MigrateAccept {
                start,
                end,
                cursor,
                snapshot,
            }
        }
        TAG_MIGRATE_DONE => Message::MigrateDone {
            start: cur.u16()?,
            end: cur.u16()?,
            cursor: cur.u64()?,
        },
        other => return Err(FrameError::UnknownTag(other)),
    };
    if cur.pos != rest.len() {
        return Err(FrameError::ShortPayload {
            tag,
            len: payload.len(),
        });
    }
    Ok(msg)
}

/// Wraps already-encoded payload bytes in the frame envelope
/// (`len` prefix + CRC trailer), appending to `out`.
pub fn frame_payload(payload: &[u8], out: &mut Vec<u8>) {
    put_u32(out, payload.len() as u32);
    out.extend_from_slice(payload);
    put_u32(out, crc32(payload));
}

/// Encodes `msg` as one complete frame (envelope included).
pub fn encode_frame(msg: &Message) -> Vec<u8> {
    let mut payload = Vec::new();
    encode_payload(msg, &mut payload);
    let mut out = Vec::with_capacity(payload.len() + 8);
    frame_payload(&payload, &mut out);
    out
}

/// Incremental frame decoder: feed raw stream bytes, pop messages.
#[derive(Debug, Default)]
pub struct FrameBuffer {
    buf: Vec<u8>,
    start: usize,
}

impl FrameBuffer {
    /// An empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends freshly read stream bytes.
    pub fn feed(&mut self, bytes: &[u8]) {
        // Compact lazily so long sessions don't grow without bound.
        if self.start > 0 && self.start == self.buf.len() {
            self.buf.clear();
            self.start = 0;
        } else if self.start > 4096 {
            self.buf.drain(..self.start);
            self.start = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes currently buffered but not yet consumed.
    pub fn pending(&self) -> usize {
        self.buf.len() - self.start
    }

    /// Pops the next complete message, `Ok(None)` if more bytes are
    /// needed.
    ///
    /// # Errors
    ///
    /// Any [`FrameError`]; after an error the stream offset is
    /// untrustworthy and the connection should be closed.
    pub fn next_message(&mut self) -> Result<Option<Message>, FrameError> {
        let avail = &self.buf[self.start..];
        if avail.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_le_bytes([avail[0], avail[1], avail[2], avail[3]]) as usize;
        if len > MAX_PAYLOAD {
            return Err(FrameError::TooLarge { len });
        }
        if avail.len() < 4 + len + 4 {
            return Ok(None);
        }
        let payload = &avail[4..4 + len];
        let carried = u32::from_le_bytes([
            avail[4 + len],
            avail[5 + len],
            avail[6 + len],
            avail[7 + len],
        ]);
        let computed = crc32(payload);
        if computed != carried {
            return Err(FrameError::BadCrc { computed, carried });
        }
        let msg = decode_payload(payload)?;
        self.start += 4 + len + 4;
        Ok(Some(msg))
    }
}

/// Wire-level corruption over already-encoded frames (opaque byte
/// vectors — this function knows nothing of the gateway's codec, so
/// it can corrupt any framed byte stream). Roughly `rate` of the
/// frames are attacked, deterministically from `seed`, with one of:
///
/// * **truncated frame** — the tail is cut mid-record (a torn write
///   or dropped carrier), leaving 1..len-1 bytes;
/// * **flipped CRC byte** — one bit of the 4-byte CRC trailer flips,
///   so the payload parses but the checksum must reject it;
/// * **duplicated frame** — the frame is delivered twice back to
///   back (a retransmission whose ack was lost).
///
/// Truncation and CRC flips *replace* the clean frame (the damage
/// models a frame that never arrives intact), so consumers must treat
/// them as connection-fatal losses to be re-delivered by retry.
/// Empty frames pass through untouched.
pub fn corrupt_frames(frames: &[Vec<u8>], seed: u64, rate: f64) -> Vec<Vec<u8>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::with_capacity(frames.len());
    for frame in frames {
        let corrupt = rng.gen::<f64>() < rate;
        let pick = rng.gen_range(0usize..3);
        if !corrupt || frame.is_empty() {
            out.push(frame.clone());
            continue;
        }
        match pick {
            0 => {
                // Torn tail: keep a strict, nonempty prefix (1-byte
                // frames pass through — there is nothing to tear).
                let keep = if frame.len() < 2 {
                    frame.len()
                } else {
                    1 + rng.gen_range(0..frame.len() - 1)
                };
                out.push(frame[..keep].to_vec());
            }
            1 => {
                // Flip one bit of the CRC trailer (last 4 bytes).
                let mut bad = frame.clone();
                let tail = bad.len().saturating_sub(4);
                let at = tail + rng.gen_range(0..bad.len() - tail);
                let bit = rng.gen_range(0u32..8);
                bad[at] ^= 1 << bit;
                out.push(bad);
            }
            _ => {
                out.push(frame.clone());
                out.push(frame.clone());
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn data(sensor: u16, seq: u64, time: u64, values: Vec<f64>) -> Message {
        Message::Data {
            sensor: SensorId(sensor),
            seq,
            time,
            values,
        }
    }

    #[test]
    fn roundtrip_every_message_kind() {
        let messages = vec![
            Message::Hello {
                version: PROTOCOL_VERSION,
                epoch: 0,
            },
            Message::Hello {
                version: PROTOCOL_VERSION,
                epoch: 7,
            },
            data(3, 42, 600, vec![17.25, -80.5]),
            data(0, 0, 0, vec![]),
            Message::Fin,
            Message::FinAck,
            Message::Nack {
                sensor: SensorId(2),
                seq: 11,
            },
            Message::DataBatch {
                sensor: SensorId(4),
                first_seq: 100,
                readings: vec![(300, vec![20.5, 55.0]), (600, vec![21.0, 54.5])],
            },
            Message::DataBatch {
                sensor: SensorId(0),
                first_seq: 0,
                readings: vec![],
            },
            Message::AckUpTo {
                sensor: SensorId(4),
                seq: 101,
            },
            Message::HelloAck {
                version: PROTOCOL_VERSION,
                credits: 32,
                watermark_delay: 1800,
            },
            Message::HelloReject {
                supported: PROTOCOL_VERSION,
            },
            Message::Heartbeat { epoch: 3 },
            Message::HeartbeatAck {
                epoch: 3,
                checkpoint_cursor: 4096,
            },
            Message::MigrateOffer { start: 2, end: 5 },
            Message::MigrateAccept {
                start: 2,
                end: 5,
                cursor: 640,
                snapshot: b"sentinet-collector v1\n...".to_vec(),
            },
            Message::MigrateAccept {
                start: 0,
                end: 1,
                cursor: 0,
                snapshot: Vec::new(),
            },
            Message::MigrateDone {
                start: 2,
                end: 5,
                cursor: 640,
            },
        ];
        let mut fb = FrameBuffer::new();
        for m in &messages {
            fb.feed(&encode_frame(m));
        }
        for m in &messages {
            assert_eq!(fb.next_message().unwrap().unwrap(), *m);
        }
        assert_eq!(fb.next_message().unwrap(), None);
    }

    #[test]
    fn nan_and_infinity_roundtrip_bit_exactly() {
        let values = vec![f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.0];
        let mut fb = FrameBuffer::new();
        fb.feed(&encode_frame(&data(1, 1, 300, values.clone())));
        let Some(Message::Data { values: got, .. }) = fb.next_message().unwrap() else {
            panic!("expected data");
        };
        let bits = |vs: &[f64]| vs.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&got), bits(&values));
    }

    #[test]
    fn partial_feeds_reassemble() {
        let frame = encode_frame(&data(2, 5, 900, vec![1.0, 2.0]));
        let mut fb = FrameBuffer::new();
        for b in &frame {
            assert!(fb.next_message().unwrap().is_none());
            fb.feed(std::slice::from_ref(b));
        }
        assert!(fb.next_message().unwrap().is_some());
    }

    #[test]
    fn crc_flip_is_detected() {
        let mut frame = encode_frame(&data(2, 5, 900, vec![1.0]));
        let n = frame.len();
        frame[n - 1] ^= 0x01; // flip a CRC trailer bit
        let mut fb = FrameBuffer::new();
        fb.feed(&frame);
        assert!(matches!(fb.next_message(), Err(FrameError::BadCrc { .. })));
    }

    #[test]
    fn payload_flip_is_detected() {
        let mut frame = encode_frame(&data(2, 5, 900, vec![1.0]));
        frame[6] ^= 0x80; // flip a payload bit
        let mut fb = FrameBuffer::new();
        fb.feed(&frame);
        assert!(matches!(fb.next_message(), Err(FrameError::BadCrc { .. })));
    }

    #[test]
    fn oversized_length_prefix_is_fatal() {
        let mut fb = FrameBuffer::new();
        fb.feed(&(MAX_PAYLOAD as u32 + 1).to_le_bytes());
        fb.feed(&[0; 8]);
        assert!(matches!(
            fb.next_message(),
            Err(FrameError::TooLarge { .. })
        ));
    }

    #[test]
    fn unknown_tag_is_rejected() {
        let mut payload = vec![99u8];
        payload.extend_from_slice(&[0; 4]);
        let mut framed = Vec::new();
        frame_payload(&payload, &mut framed);
        let mut fb = FrameBuffer::new();
        fb.feed(&framed);
        assert!(matches!(fb.next_message(), Err(FrameError::UnknownTag(99))));
    }

    #[test]
    fn migrate_accept_snapshot_length_overrun_is_rejected() {
        let mut payload = Vec::new();
        encode_payload(
            &Message::MigrateAccept {
                start: 1,
                end: 2,
                cursor: 9,
                snapshot: vec![7; 4],
            },
            &mut payload,
        );
        // Claim one more snapshot byte than the payload carries.
        let len_at = 1 + 2 + 2 + 8;
        payload[len_at] = 5;
        assert!(matches!(
            decode_payload(&payload),
            Err(FrameError::ShortPayload {
                tag: TAG_MIGRATE_ACCEPT,
                ..
            })
        ));
    }

    #[test]
    fn trailing_garbage_in_payload_is_rejected() {
        let mut payload = Vec::new();
        encode_payload(&Message::Fin, &mut payload);
        payload.push(0xAB); // extra byte after a complete Fin
        let mut framed = Vec::new();
        frame_payload(&payload, &mut framed);
        let mut fb = FrameBuffer::new();
        fb.feed(&framed);
        assert!(matches!(
            fb.next_message(),
            Err(FrameError::ShortPayload { .. })
        ));
    }

    #[test]
    fn batch_roundtrips_non_finite_values_bit_exactly() {
        let m = Message::DataBatch {
            sensor: SensorId(3),
            first_seq: 7,
            readings: vec![
                (300, vec![f64::NAN, f64::INFINITY]),
                (600, vec![-0.0, f64::NEG_INFINITY]),
                (900, vec![]),
            ],
        };
        let mut fb = FrameBuffer::new();
        fb.feed(&encode_frame(&m));
        let Some(Message::DataBatch { readings, .. }) = fb.next_message().unwrap() else {
            panic!("expected batch");
        };
        let Message::DataBatch { readings: want, .. } = m else {
            unreachable!()
        };
        assert_eq!(readings.len(), want.len());
        for ((tg, vg), (tw, vw)) in readings.iter().zip(&want) {
            assert_eq!(tg, tw);
            let bits = |vs: &[f64]| vs.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(vg), bits(vw));
        }
    }

    #[test]
    fn truncated_batch_payload_is_short() {
        let m = Message::DataBatch {
            sensor: SensorId(1),
            first_seq: 0,
            readings: vec![(300, vec![1.0]), (600, vec![2.0])],
        };
        let mut payload = Vec::new();
        encode_payload(&m, &mut payload);
        payload.truncate(payload.len() - 3); // cut into the final value
        let mut framed = Vec::new();
        frame_payload(&payload, &mut framed);
        let mut fb = FrameBuffer::new();
        fb.feed(&framed);
        assert!(matches!(
            fb.next_message(),
            Err(FrameError::ShortPayload { .. })
        ));
    }

    #[test]
    fn plain_hello_and_wal_record_bytes_are_pinned() {
        // An epoch-less Hello is the bare version; the trailing epoch
        // is absent, and decodes back as 0 (unfenced).
        let hello = encode_frame(&Message::Hello {
            version: PROTOCOL_VERSION,
            epoch: 0,
        });
        let payload = [TAG_HELLO, 2, 0, 0, 0];
        let mut want = vec![5, 0, 0, 0];
        want.extend_from_slice(&payload);
        want.extend_from_slice(&crate::crc::crc32(&payload).to_le_bytes());
        assert_eq!(hello, want);
        let mut fb = FrameBuffer::new();
        fb.feed(&hello);
        assert_eq!(
            fb.next_message().unwrap().unwrap(),
            Message::Hello {
                version: PROTOCOL_VERSION,
                epoch: 0,
            }
        );
        // `Data` is the WAL's record format: its tag and shape stay.
        let data = encode_frame(&data(1, 2, 300, vec![1.5]));
        assert_eq!(data[4], TAG_DATA);
        assert_eq!(data.len(), 4 + 21 + 8 + 4); // envelope + payload shape
    }

    #[test]
    fn buffer_compaction_preserves_stream() {
        let mut fb = FrameBuffer::new();
        let m = data(1, 7, 300, vec![3.5]);
        for _ in 0..2000 {
            fb.feed(&encode_frame(&m));
            assert_eq!(fb.next_message().unwrap().unwrap(), m);
        }
        assert_eq!(fb.pending(), 0);
    }

    #[test]
    fn corrupt_frames_is_deterministic_and_hits_every_mode() {
        let frames: Vec<Vec<u8>> = (0..200u32)
            .map(|i| i.to_le_bytes().iter().cycle().take(24).copied().collect())
            .collect();
        let a = corrupt_frames(&frames, 11, 0.5);
        let b = corrupt_frames(&frames, 11, 0.5);
        assert_eq!(a, b, "same seed, same corruption");
        assert_eq!(corrupt_frames(&frames, 11, 0.0), frames, "zero rate");

        let clean: std::collections::BTreeSet<&[u8]> = frames.iter().map(Vec::as_slice).collect();
        let truncated = a.iter().filter(|f| f.len() < 24 && !f.is_empty()).count();
        let flipped = a
            .iter()
            .filter(|f| f.len() == 24 && !clean.contains(f.as_slice()))
            .count();
        assert!(truncated > 0, "no torn frames injected");
        assert!(flipped > 0, "no CRC flips injected");
        assert!(a.len() > frames.len(), "no duplicate frames injected");
        // Flips touch only the 4-byte CRC trailer.
        for f in a.iter().filter(|f| f.len() == 24) {
            if let Some(orig) = frames.iter().find(|o| o[..20] == f[..20]) {
                let diff = orig.iter().zip(f.iter()).filter(|(x, y)| x != y).count();
                assert!(diff <= 1, "at most one flipped byte");
            }
        }
    }

    #[test]
    fn corrupt_frames_passes_empty_frames_through() {
        let frames = vec![Vec::new(), vec![7u8; 12], Vec::new()];
        let out = corrupt_frames(&frames, 5, 1.0);
        assert!(out.first().is_some_and(Vec::is_empty));
        assert!(out.last().is_some_and(Vec::is_empty));
        assert_eq!(out.iter().filter(|f| f.is_empty()).count(), 2);
    }

    #[test]
    fn corrupted_frames_never_decode_as_another_message() {
        let messages: Vec<Message> = (0..120u64)
            .map(|i| data((i % 7) as u16, i, 300 * i, vec![i as f64, -1.5]))
            .collect();
        let frames: Vec<Vec<u8>> = messages.iter().map(encode_frame).collect();
        let (mut intact, mut torn, mut rejected) = (0, 0, 0);
        for frame in corrupt_frames(&frames, 23, 1.0) {
            let mut fb = FrameBuffer::new();
            fb.feed(&frame);
            match fb.next_message() {
                Ok(Some(m)) => {
                    assert!(messages.contains(&m), "decoded a forged message {m:?}");
                    intact += 1;
                }
                Ok(None) => torn += 1,
                Err(FrameError::BadCrc { .. }) => rejected += 1,
                Err(e) => panic!("unexpected decode error {e:?}"),
            }
        }
        // At rate 1.0 only duplicated frames arrive intact, in pairs.
        assert!(intact > 0 && torn > 0 && rejected > 0);
        assert_eq!(intact % 2, 0);
        assert_eq!(intact / 2 + torn + rejected, frames.len());
    }
}

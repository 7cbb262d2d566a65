//! Property tests for the pipelined batch path:
//! arbitrary `DataBatch` frames round-trip bit-exactly through
//! [`FrameBuffer`] under every torn chunking of the byte stream, a
//! single flipped bit can never smuggle a decoded message past the
//! CRC, duplicate batch delivery is absorbed by the collector's seq
//! dedup, and — the group-commit crash property — a crash that loses
//! any suffix of the WAL beyond the last completed fsync can never
//! lose a record the ack-release rule would have acked.

use proptest::prelude::*;
use sentinet_gateway::frame::encode_frame;
use sentinet_gateway::{Collector, FrameBuffer, FsyncPolicy, GatewayConfig, Message};
use sentinet_sim::{SensorId, Timestamp};
use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

static DIR_SEQ: AtomicUsize = AtomicUsize::new(0);

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "sentinet-batch-props-{name}-{}-{}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// One generated batch: sensor, starting seq, and its readings.
type GenBatch = (u16, u64, Vec<(Timestamp, Vec<f64>)>);

/// Arbitrary batches over a few sensors; values include NaN, ±∞ and
/// subnormals so "bit-exact" means exactly that.
fn gen_batches(max_batches: usize) -> impl Strategy<Value = Vec<GenBatch>> {
    prop::collection::vec(
        (
            0u16..4,
            0u64..1_000,
            prop::collection::vec(
                (
                    0u64..100_000,
                    prop::collection::vec(
                        prop::sample::select(vec![
                            0.0,
                            -0.0,
                            21.5,
                            -3.25,
                            1e300,
                            f64::MIN_POSITIVE,
                            f64::NAN,
                            f64::INFINITY,
                            f64::NEG_INFINITY,
                        ]),
                        1..4,
                    ),
                ),
                1..40,
            ),
        ),
        1..=max_batches,
    )
}

fn to_message((sensor, first_seq, readings): &GenBatch) -> Message {
    Message::DataBatch {
        sensor: SensorId(*sensor),
        first_seq: *first_seq,
        readings: readings.clone(),
    }
}

/// Bit-exact `DataBatch` equality (`PartialEq` would lose NaN).
fn same_batch(a: &Message, b: &Message) -> bool {
    let (
        Message::DataBatch {
            sensor: sa,
            first_seq: fa,
            readings: ra,
        },
        Message::DataBatch {
            sensor: sb,
            first_seq: fb,
            readings: rb,
        },
    ) = (a, b)
    else {
        return false;
    };
    sa == sb
        && fa == fb
        && ra.len() == rb.len()
        && ra.iter().zip(rb).all(|((ta, va), (tb, vb))| {
            ta == tb
                && va.len() == vb.len()
                && va.iter().zip(vb).all(|(x, y)| x.to_bits() == y.to_bits())
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every chunking of the concatenated frame stream — including
    /// duplicate frames back to back — decodes to the identical
    /// message sequence.
    fn data_batch_roundtrips_through_torn_stream(
        batches in gen_batches(6),
        chunk_sizes in prop::collection::vec(1usize..9, 1..64),
        duplicate_first in any::<bool>(),
    ) {
        let mut messages: Vec<Message> = batches.iter().map(to_message).collect();
        if duplicate_first {
            // The wire does not dedup: a retransmitted batch decodes
            // again, identically (dedup is the collector's job).
            messages.push(messages[0].clone());
        }
        let stream: Vec<u8> = messages.iter().flat_map(encode_frame).collect();

        let mut fb = FrameBuffer::new();
        let mut decoded = Vec::new();
        let mut offset = 0;
        let mut chunks = chunk_sizes.iter().cycle();
        while offset < stream.len() {
            let take = (*chunks.next().unwrap()).min(stream.len() - offset);
            fb.feed(&stream[offset..offset + take]);
            offset += take;
            while let Some(msg) = fb.next_message().expect("clean stream") {
                decoded.push(msg);
            }
        }
        prop_assert_eq!(decoded.len(), messages.len());
        for (d, m) in decoded.iter().zip(&messages) {
            prop_assert!(same_batch(d, m), "torn reassembly corrupted a batch");
        }
    }

    /// A single flipped bit anywhere in an encoded frame must never
    /// decode to a message: the CRC (or the length header it guards)
    /// refuses it.
    fn flipped_bit_never_decodes(
        batch in gen_batches(1),
        bit in any::<u64>(),
    ) {
        let frame = encode_frame(&to_message(&batch[0]));
        let flip = bit as usize % (frame.len() * 8);
        let mut corrupt = frame.clone();
        corrupt[flip / 8] ^= 1 << (flip % 8);

        let mut fb = FrameBuffer::new();
        fb.feed(&corrupt);
        match fb.next_message() {
            Err(_) => {}        // CRC mismatch or poisoned header: detected.
            Ok(None) => {}      // Length flip made the frame incomplete.
            Ok(Some(_)) => prop_assert!(false, "bit {flip} smuggled a frame through"),
        }
    }

    /// Redelivering a batch is fully absorbed: all duplicates, no new
    /// acceptance, no WAL growth, and the same cumulative ack.
    fn duplicate_batches_are_absorbed(batches in gen_batches(4)) {
        let dir = tmpdir("dup");
        let mut config = GatewayConfig::new(&dir);
        config.checkpoint_every = 0;
        let (mut collector, _) = Collector::open(config).expect("open collector");
        for (sensor, first_seq, readings) in &batches {
            let first = collector
                .deliver_batch(SensorId(*sensor), *first_seq, readings)
                .expect("deliver");
            let cursor = collector.wal_records();
            let redo = collector
                .deliver_batch(SensorId(*sensor), *first_seq, readings)
                .expect("redeliver");
            prop_assert_eq!(redo.accepted, 0, "duplicate batch re-admitted");
            prop_assert_eq!(redo.duplicates, first.accepted + first.duplicates);
            prop_assert_eq!(collector.wal_records(), cursor, "duplicate grew the WAL");
            prop_assert_eq!(redo.ack_up_to, first.ack_up_to);
            prop_assert!(redo.nack.is_none());
        }
        fs::remove_dir_all(&dir).ok();
    }

    /// Group-commit crash property: the ack-release rule only acks
    /// batches whose `ack_cursor` a completed fsync covers, so a crash
    /// that tears off any unsynced WAL suffix — cut the segment at any
    /// byte at or past the last fsync's high-water mark — must recover
    /// every record the server could have acked.
    fn crash_never_loses_acked_records(
        batches in gen_batches(6),
        fsync_every in 1u64..64,
        cut_choice in any::<u64>(),
    ) {
        let dir = tmpdir("crash");
        let mut config = GatewayConfig::new(&dir);
        config.checkpoint_every = 0;
        config.wal.fsync = FsyncPolicy::Batch(fsync_every as u32);
        let (mut collector, _) = Collector::open(config).expect("open collector");
        let segment = dir.join("wal-00000001.seg");

        // Drive batches through, tracking the byte size of the synced
        // prefix: `synced_cursor` only advances when an fsync
        // completes, and right after a batch the fsync either covered
        // the whole log or stopped where the previous one did.
        let mut acked_records = 0u64; // server rule: max released ack_cursor
        let mut synced_bytes = 0u64;
        for (sensor, first_seq, readings) in &batches {
            let out = collector
                .deliver_batch(SensorId(*sensor), *first_seq, readings)
                .expect("deliver");
            let synced = collector.synced_cursor();
            if synced == collector.wal_records() {
                synced_bytes = fs::metadata(&segment).expect("segment").len();
            }
            // The server releases the ack only once synced covers it.
            if out.ack_up_to.is_some() && out.ack_cursor <= synced {
                acked_records = acked_records.max(out.ack_cursor);
            }
        }
        let synced = collector.synced_cursor();
        prop_assert!(acked_records <= synced, "ack released past the fsync watermark");

        // Crash: drop the collector with no flush, then lose an
        // arbitrary unsynced suffix.
        drop(collector);
        let total = fs::metadata(&segment).expect("segment").len();
        let cut = synced_bytes + cut_choice % (total - synced_bytes + 1);
        let bytes = fs::read(&segment).expect("read segment");
        fs::write(&segment, &bytes[..cut as usize]).expect("tear suffix");

        let mut config = GatewayConfig::new(&dir);
        config.checkpoint_every = 0;
        let (recovered, info) = Collector::open(config).expect("reopen after crash");
        prop_assert!(
            info.replayed >= acked_records,
            "crash lost acked records: {} recovered < {} acked",
            info.replayed,
            acked_records
        );
        drop(recovered);
        fs::remove_dir_all(&dir).ok();
    }
}

//! Exact transport accounting under scripted adversity: a bare
//! `TcpListener` plays the server role from a deterministic script
//! (drop the connection here, swallow an ack there), and the uplink's
//! [`UplinkStats`] must come out exactly right — every retransmit,
//! reconnect and timeout attributed, nothing swallowed by the retry
//! loop. The stop-and-wait `SensorUplink` and the pipelined
//! `PipelinedUplink` (whose window goes out as one coalesced write)
//! are both covered.

use sentinet_gateway::frame::{encode_frame, PROTOCOL_VERSION};
use sentinet_gateway::{
    FrameBuffer, Message, PipelinedConfig, PipelinedUplink, SensorUplink, UplinkConfig,
};
use sentinet_sim::SensorId;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::Duration;

/// What the scripted server does after reading one `Data` frame,
/// keyed by the global (retransmissions included) data-frame count.
#[derive(Clone, Copy, PartialEq)]
enum Script {
    /// Ack the frame normally.
    Ack,
    /// Close the connection without acking (abrupt server death).
    Close,
    /// Swallow the frame: no ack, connection stays up (slow server).
    Swallow,
}

/// Serves connections off `listener`, following `script` per data
/// frame read (frames beyond the script are acked). Returns after
/// `Fin`, yielding the total number of data frames read.
fn scripted_server(listener: TcpListener, script: Vec<Script>) -> u64 {
    let mut data_reads = 0u64;
    let mut buf = [0u8; 4096];
    'conns: for stream in listener.incoming() {
        let mut stream: TcpStream = stream.expect("accept");
        let mut fb = FrameBuffer::new();
        loop {
            let n = match stream.read(&mut buf) {
                Ok(0) | Err(_) => continue 'conns,
                Ok(n) => n,
            };
            fb.feed(&buf[..n]);
            loop {
                match fb.next_message().expect("well-formed client frame") {
                    None => break,
                    Some(Message::Data { sensor, seq, .. }) => {
                        data_reads += 1;
                        let action = script
                            .get(data_reads as usize - 1)
                            .copied()
                            .unwrap_or(Script::Ack);
                        match action {
                            Script::Close => continue 'conns,
                            Script::Swallow => {}
                            Script::Ack => stream
                                .write_all(&encode_frame(&Message::Ack { sensor, seq }))
                                .expect("write ack"),
                        }
                    }
                    Some(Message::Fin) => {
                        stream
                            .write_all(&encode_frame(&Message::FinAck))
                            .expect("write finack");
                        return data_reads;
                    }
                    // Hello (per connection) needs no reply on v1.
                    Some(_) => {}
                }
            }
        }
    }
    unreachable!("listener closed before Fin");
}

fn drill_uplink(addr: String) -> SensorUplink {
    let mut config = UplinkConfig::new(addr);
    config.ack_timeout = Duration::from_millis(250);
    config.max_attempts = 8;
    config.backoff_base = Duration::from_millis(2);
    config.backoff_cap = Duration::from_millis(10);
    config.jitter_pct = 0;
    SensorUplink::new(config)
}

/// Sends `count` readings, asserting every send is eventually acked.
fn send_all(uplink: &mut SensorUplink, count: u64) {
    for i in 0..count {
        let t = 300 * (i + 1);
        uplink
            .send(SensorId(0), t, &[20.0 + i as f64])
            .expect("send acked");
    }
}

#[test]
fn three_scripted_disconnects_are_counted_exactly() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();
    // Reads 4, 8 and 12 die without an ack; the retransmit of each
    // lands on a fresh connection as the very next read.
    let script: Vec<Script> = (1..=13)
        .map(|n| {
            if n % 4 == 0 {
                Script::Close
            } else {
                Script::Ack
            }
        })
        .collect();
    let server = std::thread::spawn(move || scripted_server(listener, script));

    let mut uplink = drill_uplink(addr);
    send_all(&mut uplink, 10);

    // stats() is read before finish(): Fin/FinAck traffic has its own
    // frame count and must not blur the data-frame ledger.
    let stats = uplink.stats();
    assert_eq!(stats.frames_sent, 13, "10 readings + 3 retransmissions");
    assert_eq!(stats.retransmits, 3, "one retransmit per scripted close");
    assert_eq!(stats.reconnects, 3, "one reconnect per scripted close");
    assert_eq!(
        stats.timeouts, 0,
        "closes are detected as EOF, not by the ack deadline"
    );
    assert_eq!(stats.nacks, 0);
    assert_eq!(stats.acked, 10, "every reading acked exactly once");

    uplink.finish().expect("fin/finack");
    assert_eq!(server.join().expect("server thread"), 13);
}

#[test]
fn swallowed_acks_surface_as_timeouts_not_reconnects() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();
    // Reads 2 and 5 are swallowed: the server stays up but never
    // acks, so the client must burn its ack deadline and retransmit
    // on the *same* connection.
    let script = vec![
        Script::Ack,
        Script::Swallow,
        Script::Ack,
        Script::Ack,
        Script::Swallow,
        Script::Ack,
        Script::Ack,
    ];
    let server = std::thread::spawn(move || scripted_server(listener, script));

    let mut uplink = drill_uplink(addr);
    send_all(&mut uplink, 5);

    let stats = uplink.stats();
    assert_eq!(stats.frames_sent, 7, "5 readings + 2 retransmissions");
    assert_eq!(stats.retransmits, 2, "one retransmit per swallowed ack");
    assert_eq!(stats.timeouts, 2, "each swallowed ack burns one deadline");
    assert_eq!(stats.reconnects, 0, "the connection never dropped");
    assert_eq!(stats.nacks, 0);
    assert_eq!(stats.acked, 5);

    uplink.finish().expect("fin/finack");
    assert_eq!(server.join().expect("server thread"), 7);
}

/// A v2 server for one pipelined uplink. It grants `credits` in the
/// `HelloAck`. On the first connection it waits for `window`
/// `DataBatch` frames, acks only the first one, and drops the
/// connection. On later connections it acks every batch as it
/// arrives. Returns after `Fin`, yielding the total number of batches
/// read.
fn windowed_server(listener: TcpListener, credits: u32, window: u64) -> u64 {
    let mut batch_reads = 0u64;
    let mut buf = [0u8; 4096];
    for (conn, stream) in listener.incoming().enumerate() {
        let mut stream: TcpStream = stream.expect("accept");
        let mut fb = FrameBuffer::new();
        let mut first_batch = None;
        'conn: loop {
            let n = match stream.read(&mut buf) {
                Ok(0) | Err(_) => break 'conn,
                Ok(n) => n,
            };
            fb.feed(&buf[..n]);
            while let Some(msg) = fb.next_message().expect("well-formed client frame") {
                match msg {
                    Message::Hello { .. } => stream
                        .write_all(&encode_frame(&Message::HelloAck {
                            version: PROTOCOL_VERSION,
                            credits,
                        }))
                        .expect("write hello-ack"),
                    Message::DataBatch {
                        sensor,
                        first_seq,
                        readings,
                    } => {
                        batch_reads += 1;
                        let ack = Message::AckUpTo {
                            sensor,
                            seq: first_seq + readings.len() as u64 - 1,
                        };
                        if conn > 0 {
                            stream.write_all(&encode_frame(&ack)).expect("write ack");
                            continue;
                        }
                        let first = first_batch.get_or_insert(ack);
                        if batch_reads == window {
                            stream.write_all(&encode_frame(first)).expect("write ack");
                            // The whole window has been read, so the
                            // close is a clean FIN behind the ack.
                            break 'conn;
                        }
                    }
                    Message::Fin => {
                        stream
                            .write_all(&encode_frame(&Message::FinAck))
                            .expect("write finack");
                        return batch_reads;
                    }
                    _ => {}
                }
            }
        }
    }
    unreachable!("listener closed before Fin");
}

#[test]
fn pipelined_window_cut_after_first_ack_is_counted_exactly() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();
    let server = std::thread::spawn(move || windowed_server(listener, 8, 4));

    let mut config = PipelinedConfig::new(addr);
    // Long enough that no ack deadline fires: every retransmit below
    // is owed to the dropped connection.
    config.transport.ack_timeout = Duration::from_secs(5);
    config.transport.backoff_base = Duration::from_millis(2);
    config.transport.backoff_cap = Duration::from_millis(10);
    config.transport.jitter_pct = 0;
    config.batch_size = 4;
    let mut uplink = PipelinedUplink::new(config);
    // Two readings for each of four sensors stay buffered (batch size
    // 4); the flush seals four batches and sends them as one window.
    for i in 0..2u64 {
        for sensor in 0..4 {
            uplink
                .send(SensorId(sensor), 300 * (i + 1), &[20.0])
                .expect("buffer reading");
        }
    }
    uplink.flush().expect("flush acked");

    let stats = uplink.stats();
    assert_eq!(stats.frames_sent, 7, "4 batches + 3 re-sent after the cut");
    assert_eq!(
        stats.retransmits, 3,
        "each unacked batch of the window is re-sent once"
    );
    assert_eq!(stats.reconnects, 1, "one reconnect for the dropped window");
    assert_eq!(stats.timeouts, 0, "the cut is seen as EOF, not a deadline");
    assert_eq!(stats.nacks, 0);
    assert_eq!(stats.acked, 4, "every batch retired exactly once");

    uplink.finish().expect("fin/finack");
    assert_eq!(server.join().expect("server thread"), 7);
}

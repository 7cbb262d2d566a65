//! Minimal socket abstraction over TCP and Unix-domain transports.
//!
//! Endpoints are plain strings: `"127.0.0.1:4410"` (TCP) or
//! `"unix:/tmp/sentinet.sock"` (Unix-domain). Both sides of the
//! gateway speak through [`Stream`]/[`Listener`] so the framing,
//! retry, and collector code is transport-agnostic, and `std::net`
//! stays confined to this crate (enforced by the `net-outside-gateway`
//! lint).
//!
//! Every stream gets an explicit read timeout before its first read —
//! a gateway thread must never block forever on a dead peer (enforced
//! by the `socket-read-timeout` lint).
//!
//! Every TCP stream, dialled or accepted, also sets `TCP_NODELAY`. The
//! v2 uplink writes a window of batches and then blocks on the
//! cumulative ack, so Nagle's algorithm on one end would hold the
//! next segment until the peer's delayed ACK fires (≈40 ms on Linux)
//! on every flush. Both sides coalesce their own writes instead (one
//! write per window, one per released ack group), which is what Nagle
//! was buying. Unix-domain sockets have no Nagle and need nothing.

use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::time::Duration;

/// A connected byte stream over either transport.
#[derive(Debug)]
pub(crate) enum Stream {
    /// TCP connection.
    Tcp(TcpStream),
    /// Unix-domain connection.
    #[cfg(unix)]
    Unix(UnixStream),
}

/// A bound listening socket over either transport.
#[derive(Debug)]
pub(crate) enum Listener {
    /// TCP listener.
    Tcp(TcpListener),
    /// Unix-domain listener (remembers its path for cleanup).
    #[cfg(unix)]
    Unix(UnixListener),
}

#[cfg(not(unix))]
fn unsupported(spec: &str) -> io::Error {
    io::Error::new(
        io::ErrorKind::Unsupported,
        format!("unix-domain endpoint `{spec}` unsupported on this platform"),
    )
}

impl Listener {
    /// Binds `spec`, returning the listener and the resolved address a
    /// client can connect to (for TCP, the OS-assigned port is filled
    /// in).
    pub(crate) fn bind(spec: &str) -> io::Result<(Self, String)> {
        if let Some(path) = spec.strip_prefix("unix:") {
            #[cfg(unix)]
            {
                // A stale socket file from a killed process blocks
                // rebinding; remove it first.
                // sentinet-allow(io-outside-vfs): a socket node is transport
                // state, not durable data — fault injection on the unlink
                // would only break rebinding, not durability.
                let _ = std::fs::remove_file(path);
                let listener = UnixListener::bind(path)?;
                return Ok((Listener::Unix(listener), format!("unix:{path}")));
            }
            #[cfg(not(unix))]
            return Err(unsupported(spec));
        }
        let listener = TcpListener::bind(spec)?;
        let addr = listener.local_addr()?.to_string();
        Ok((Listener::Tcp(listener), addr))
    }

    /// Switches blocking mode of `accept`.
    pub(crate) fn set_nonblocking(&self, nonblocking: bool) -> io::Result<()> {
        match self {
            Listener::Tcp(l) => l.set_nonblocking(nonblocking),
            #[cfg(unix)]
            Listener::Unix(l) => l.set_nonblocking(nonblocking),
        }
    }

    /// Accepts one connection.
    pub(crate) fn accept(&self) -> io::Result<Stream> {
        match self {
            Listener::Tcp(l) => {
                let (s, _) = l.accept()?;
                s.set_nodelay(true)?;
                Ok(Stream::Tcp(s))
            }
            #[cfg(unix)]
            Listener::Unix(l) => {
                let (s, _) = l.accept()?;
                Ok(Stream::Unix(s))
            }
        }
    }
}

impl Stream {
    /// Connects to `spec` (same syntax as [`Listener::bind`]).
    pub(crate) fn connect(spec: &str) -> io::Result<Self> {
        if let Some(path) = spec.strip_prefix("unix:") {
            #[cfg(unix)]
            return UnixStream::connect(path).map(Stream::Unix);
            #[cfg(not(unix))]
            return Err(unsupported(spec));
        }
        let s = TcpStream::connect(spec)?;
        s.set_nodelay(true)?;
        Ok(Stream::Tcp(s))
    }

    /// Bounds how long a read may block.
    pub(crate) fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.set_read_timeout(timeout),
            #[cfg(unix)]
            Stream::Unix(s) => s.set_read_timeout(timeout),
        }
    }

    /// Bounds how long a write may block.
    pub(crate) fn set_write_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.set_write_timeout(timeout),
            #[cfg(unix)]
            Stream::Unix(s) => s.set_write_timeout(timeout),
        }
    }

    /// Clones the handle (shared underlying socket), so one thread can
    /// read while another writes acks.
    pub(crate) fn try_clone(&self) -> io::Result<Self> {
        match self {
            Stream::Tcp(s) => s.try_clone().map(Stream::Tcp),
            #[cfg(unix)]
            Stream::Unix(s) => s.try_clone().map(Stream::Unix),
        }
    }

    /// Shuts down both directions.
    pub(crate) fn shutdown(&self) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.shutdown(std::net::Shutdown::Both),
            #[cfg(unix)]
            Stream::Unix(s) => s.shutdown(std::net::Shutdown::Both),
        }
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.read(buf),
            #[cfg(unix)]
            Stream::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.write(buf),
            #[cfg(unix)]
            Stream::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.flush(),
            #[cfg(unix)]
            Stream::Unix(s) => s.flush(),
        }
    }
}

/// True when a read failed only because its timeout elapsed.
pub(crate) fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nodelay(stream: &Stream) -> bool {
        match stream {
            Stream::Tcp(s) => s.nodelay().expect("query TCP_NODELAY"),
            #[cfg(unix)]
            Stream::Unix(_) => panic!("expected a TCP stream"),
        }
    }

    /// Nagle's algorithm must be off on both ends of a TCP link: a
    /// flush that waits for its ack would otherwise stall on the
    /// peer's delayed ACK.
    #[test]
    fn tcp_streams_set_nodelay_on_both_ends() {
        let (listener, addr) = Listener::bind("127.0.0.1:0").expect("bind");
        let dialled = Stream::connect(&addr).expect("connect");
        let accepted = listener.accept().expect("accept");
        assert!(nodelay(&dialled), "connect side left Nagle on");
        assert!(nodelay(&accepted), "accept side left Nagle on");
    }
}

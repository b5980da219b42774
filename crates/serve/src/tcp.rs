//! The TCP transport: length-delimited frames over `std::net` sockets.
//!
//! Framing is a 4-byte big-endian length prefix followed by exactly that
//! many payload bytes (one `ive_pir::wire` frame). Reads buffer partial
//! data across poll timeouts, so a frame split across TCP segments is
//! reassembled correctly no matter how the kernel slices it.

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::time::Duration;

use bytes::Bytes;
use ive_pir::fault;

use crate::transport::{
    BoxedConn, Connector, FrameRx, FrameTx, Received, Transport, POLL_INTERVAL,
};
use crate::ServeError;

/// Upper bound on a single frame; a length prefix past this is treated
/// as a corrupt (or hostile) stream rather than an allocation request —
/// the receiver rejects it with a typed error before reserving a byte.
pub(crate) const MAX_FRAME_BYTES: usize = 256 << 20;

/// Per-syscall write deadline: a peer that stops draining its socket
/// stalls our sends at most this long before the write surfaces as
/// [`ServeError::Timeout`] instead of pinning the writer forever.
const WRITE_TIMEOUT: Duration = Duration::from_secs(30);

/// A TCP listener producing framed connections.
pub struct TcpTransport {
    listener: TcpListener,
    addr: SocketAddr,
}

impl TcpTransport {
    /// Binds the listener (use port 0 for an ephemeral port).
    ///
    /// # Errors
    /// Fails when the address cannot be bound.
    pub fn bind(addr: impl ToSocketAddrs) -> Result<Self, ServeError> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        Ok(TcpTransport { listener, addr })
    }

    /// The bound address (with the resolved ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }
}

impl Transport for TcpTransport {
    fn accept(&mut self) -> Result<Option<BoxedConn>, ServeError> {
        match self.listener.accept() {
            Ok((stream, _peer)) => Ok(Some(framed_pair(stream)?)),
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                std::thread::sleep(POLL_INTERVAL / 10);
                Ok(None)
            }
            Err(e) => Err(e.into()),
        }
    }

    fn endpoint(&self) -> String {
        format!("tcp://{}", self.addr)
    }
}

/// Dials a serving endpoint and returns the framed connection.
///
/// # Errors
/// Fails when the connection cannot be established.
pub fn connect(addr: impl ToSocketAddrs) -> Result<BoxedConn, ServeError> {
    framed_pair(TcpStream::connect(addr)?)
}

/// A reusable dialer for one TCP endpoint: the [`Connector`] the retrying
/// [`crate::Connection`] builder uses to transparently reconnect.
#[derive(Debug, Clone)]
pub struct TcpConnector {
    addr: SocketAddr,
}

impl TcpConnector {
    /// Resolves `addr` once; every [`Connector::dial`] reconnects to the
    /// same resolved address.
    ///
    /// # Errors
    /// Fails when the address cannot be resolved.
    pub fn new(addr: impl ToSocketAddrs) -> Result<Self, ServeError> {
        let addr = addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| ServeError::InvalidConfig("endpoint resolved to no address".into()))?;
        Ok(TcpConnector { addr })
    }
}

impl Connector for TcpConnector {
    fn dial(&self) -> Result<BoxedConn, ServeError> {
        connect(self.addr)
    }
}

fn framed_pair(stream: TcpStream) -> Result<BoxedConn, ServeError> {
    // BSD-derived platforms let accepted sockets inherit the listener's
    // O_NONBLOCK; clear it so read timeouts and blocking writes behave.
    stream.set_nonblocking(false)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(POLL_INTERVAL))?;
    stream.set_write_timeout(Some(WRITE_TIMEOUT))?;
    let writer = stream.try_clone()?;
    Ok((Box::new(TcpFrameRx { stream, buf: Vec::new() }), Box::new(TcpFrameTx { stream: writer })))
}

/// Receiving half: accumulates bytes until a whole frame is available.
struct TcpFrameRx {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl TcpFrameRx {
    /// Extracts one complete frame from the buffer, if present.
    fn take_frame(&mut self) -> Result<Option<Bytes>, ServeError> {
        if self.buf.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_be_bytes(self.buf[..4].try_into().expect("4 bytes")) as usize;
        if len > MAX_FRAME_BYTES {
            return Err(ServeError::Protocol(format!(
                "frame of {len} bytes exceeds the {MAX_FRAME_BYTES}-byte cap"
            )));
        }
        if self.buf.len() < 4 + len {
            return Ok(None);
        }
        let frame = Bytes::copy_from_slice(&self.buf[4..4 + len]);
        self.buf.drain(..4 + len);
        Ok(Some(frame))
    }
}

impl FrameRx for TcpFrameRx {
    fn recv(&mut self) -> Result<Received, ServeError> {
        loop {
            if let Some(frame) = self.take_frame()? {
                return Ok(Received::Frame(frame));
            }
            let mut chunk = [0u8; 16 * 1024];
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    return if self.buf.is_empty() {
                        Ok(Received::Closed)
                    } else {
                        Err(ServeError::Protocol("connection closed mid-frame".into()))
                    };
                }
                Ok(n) => {
                    // Failpoint after real bytes moved: an injected error
                    // here drops data already read off the socket, the
                    // same stream desync a mid-read fault produces.
                    fault::fail_io(fault::Site::IoRead)?;
                    self.buf.extend_from_slice(&chunk[..n]);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                    return Ok(Received::Idle);
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e.into()),
            }
        }
    }
}

/// Sending half: a cloned handle of the same socket.
struct TcpFrameTx {
    stream: TcpStream,
}

impl FrameTx for TcpFrameTx {
    fn send(&mut self, frame: &[u8]) -> Result<(), ServeError> {
        let len = u32::try_from(frame.len())
            .map_err(|_| ServeError::Protocol("frame exceeds u32 length prefix".into()))?;
        match fault::inject(fault::Site::IoWrite) {
            Some(fault::Action::Tear) => {
                // A torn frame: the prefix promises `len` bytes but only
                // half arrive, then the socket dies — the peer must
                // detect "closed mid-frame", never resync on garbage.
                let _ = self.stream.write_all(&len.to_be_bytes());
                let _ = self.stream.write_all(&frame[..frame.len() / 2]);
                let _ = self.stream.flush();
                let _ = self.stream.shutdown(std::net::Shutdown::Both);
                return Err(ServeError::Io(std::io::Error::other("injected io_write tear")));
            }
            Some(fault::Action::Error) => {
                return Err(ServeError::Io(std::io::Error::other("injected io_write fault")));
            }
            Some(fault::Action::Delay(d)) => std::thread::sleep(d),
            None => {}
        }
        self.stream.write_all(&len.to_be_bytes()).map_err(write_error)?;
        self.stream.write_all(frame).map_err(write_error)?;
        self.stream.flush().map_err(write_error)?;
        Ok(())
    }
}

/// Maps a stalled write (the [`WRITE_TIMEOUT`] deadline) to the typed
/// [`ServeError::Timeout`]; other write failures stay transport errors.
fn write_error(e: std::io::Error) -> ServeError {
    if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut {
        ServeError::Timeout
    } else {
        e.into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn tcp_frames_survive_arbitrary_segmentation() {
        let mut transport = TcpTransport::bind("127.0.0.1:0").unwrap();
        let addr = transport.local_addr();
        assert!(transport.endpoint().starts_with("tcp://127.0.0.1:"));

        // Raw client: write one 10-byte frame in three separate syscalls.
        let mut raw = TcpStream::connect(addr).unwrap();
        let (mut srx, mut stx) = loop {
            if let Some(conn) = transport.accept().unwrap() {
                break conn;
            }
        };
        raw.write_all(&[0, 0]).unwrap();
        std::thread::sleep(Duration::from_millis(5));
        raw.write_all(&[0, 10, b'h', b'e', b'l']).unwrap();
        std::thread::sleep(Duration::from_millis(5));
        raw.write_all(b"lo worl").unwrap();
        let frame = loop {
            match srx.recv().unwrap() {
                Received::Frame(f) => break f,
                Received::Idle => continue,
                Received::Closed => panic!("closed early"),
            }
        };
        assert_eq!(&frame[..], b"hello worl");

        // Server-to-client framing through the public connect helper.
        stx.send(b"response").unwrap();
        let mut len = [0u8; 4];
        raw.read_exact(&mut len).unwrap();
        assert_eq!(u32::from_be_bytes(len), 8);
        let mut body = [0u8; 8];
        raw.read_exact(&mut body).unwrap();
        assert_eq!(&body, b"response");

        // Clean close is reported as Closed, not an error.
        drop(raw);
        loop {
            match srx.recv().unwrap() {
                Received::Closed => break,
                Received::Idle => continue,
                Received::Frame(_) => panic!("unexpected frame"),
            }
        }
    }

    #[test]
    fn oversized_length_prefix_rejected() {
        let mut transport = TcpTransport::bind("127.0.0.1:0").unwrap();
        let addr = transport.local_addr();
        let mut raw = TcpStream::connect(addr).unwrap();
        let (mut srx, _stx) = loop {
            if let Some(conn) = transport.accept().unwrap() {
                break conn;
            }
        };
        raw.write_all(&u32::MAX.to_be_bytes()).unwrap();
        let err = loop {
            match srx.recv() {
                Ok(Received::Idle) => continue,
                Ok(other) => panic!("expected error, got {other:?}"),
                Err(e) => break e,
            }
        };
        assert!(err.to_string().contains("cap"), "unhelpful: {err}");
    }
}

//! [`Transport`] — one framed request/response channel to a label store.
//!
//! The wire codec ([`crate::wire`]) defines *what* travels; a transport
//! defines *how*: it moves one encoded [`Request`] frame toward a store
//! and hands back one decoded [`Response`] frame, in order. Everything
//! above this trait — connection pooling, reconnect policy, write
//! coalescing — is transport-agnostic, which is the point of the split:
//! [`crate::pool::ConnectionPool`] manages `Box<dyn Transport>`s without
//! knowing whether frames cross a socket or a function call.
//!
//! Two implementations ship:
//!
//! * [`TcpTransport`] — a `std::net` socket with buffered framed I/O
//!   and an optional per-operation read timeout. This is what
//!   `remote(host:port)` uses.
//! * [`LoopbackTransport`] — in-process: frames are encoded, decoded
//!   and dispatched straight into the hosting
//!   [`LabelServer`](crate::server::LabelServer)'s scheme
//!   (taking the same `RwLock` the TCP connection threads take), with
//!   no socket in between. This is what `served(inner)` uses — the
//!   full codec is exercised, request pipelining works (responses
//!   queue), and the server's per-connection counters still see it,
//!   but tests and benches pay no syscalls.
//!
//! The error contract matters for the pool: [`Transport::send`] /
//! [`Transport::recv`] return `Err` **only for transport-level
//! failures** (I/O errors, malformed frames, a closed peer). A
//! scheme-level failure travels inside `Ok(Response::Err(..))` and is
//! never retried.

use std::collections::VecDeque;
use std::io::{BufReader, BufWriter};
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, RwLock};
use std::time::Duration;

use ltree_core::{DynScheme, LTreeError, Result};

use crate::server::{handle_request, ServerMetrics, TransportCounters};
use crate::wire::{
    decode_request, decode_response, encode_request, encode_response_capped, io_err, read_frame,
    write_frame, Request, Response,
};

/// One framed request/response channel. See the [module docs](self) for
/// the error contract (`Err` = transport failure, retryable by policy;
/// scheme errors ride inside `Ok(Response::Err)`).
pub trait Transport: Send {
    /// Write one request frame. Returns the bytes sent, frame prefix
    /// included. Requests may be pipelined: any number of `send`s may
    /// precede the matching `recv`s, which come back in order.
    fn send(&mut self, req: &Request) -> Result<u64>;

    /// Read the next response frame. Returns the response and the bytes
    /// received, frame prefix included.
    fn recv(&mut self) -> Result<(Response, u64)>;

    /// A short human-readable peer description for error contexts
    /// (`"127.0.0.1:7878"`, `"loopback"`).
    fn peer(&self) -> String;
}

/// A [`Transport`] over one TCP connection (buffered both ways,
/// `TCP_NODELAY`, optional read timeout so a hung server surfaces as a
/// typed transport error instead of a stuck client).
pub struct TcpTransport {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    peer: String,
}

impl TcpTransport {
    /// Connect to `addr` (`host:port`). No handshake is performed here —
    /// the pool owns the [`Request::Hello`] exchange so every transport
    /// kind gets identical version checking.
    pub fn connect(addr: &str, op_timeout: Option<Duration>) -> Result<TcpTransport> {
        let stream = TcpStream::connect(addr).map_err(|e| LTreeError::Remote {
            context: format!("connect to {addr}: {e}"),
        })?;
        let _ = stream.set_nodelay(true);
        let _ = stream.set_read_timeout(op_timeout);
        let read_half = stream.try_clone().map_err(io_err)?;
        Ok(TcpTransport {
            reader: BufReader::new(read_half),
            writer: BufWriter::new(stream),
            peer: addr.to_owned(),
        })
    }
}

impl Transport for TcpTransport {
    fn send(&mut self, req: &Request) -> Result<u64> {
        write_frame(&mut self.writer, &encode_request(req))
    }

    fn recv(&mut self) -> Result<(Response, u64)> {
        let payload = read_frame(&mut self.reader)?.ok_or_else(|| LTreeError::Remote {
            context: format!("{}: server closed the connection", self.peer),
        })?;
        let bytes = 4 + payload.len() as u64;
        Ok((decode_response(&payload)?, bytes))
    }

    fn peer(&self) -> String {
        self.peer.clone()
    }
}

impl Drop for TcpTransport {
    fn drop(&mut self) {
        // Close the socket explicitly so a loopback server's connection
        // thread unblocks before `LabelServer::drop` joins it.
        let _ = self.writer.get_ref().shutdown(Shutdown::Both);
    }
}

/// A [`Transport`] that dispatches frames into a
/// [`LabelServer`](crate::server::LabelServer)'s scheme in-process:
/// `send` encodes the request, decodes it back
/// (keeping codec coverage identical to the socket path), runs it under
/// the server's `RwLock`, and queues the encoded response for `recv`.
/// Reads through concurrent loopback transports take the shared read
/// lock in parallel, exactly like concurrent TCP connections.
///
/// Obtained from [`LabelServer::loopback`]; each instance counts as one
/// server connection (its traffic shows up as `net/conn<i>/...`
/// counters in the server's metrics).
///
/// [`LabelServer::loopback`]: crate::server::LabelServer::loopback
pub struct LoopbackTransport {
    pub(crate) scheme: Arc<RwLock<Box<dyn DynScheme>>>,
    pub(crate) metrics: Arc<ServerMetrics>,
    pub(crate) stop: Arc<AtomicBool>,
    pub(crate) counters: Arc<TransportCounters>,
    pub(crate) pending: VecDeque<Vec<u8>>,
}

impl Transport for LoopbackTransport {
    fn send(&mut self, req: &Request) -> Result<u64> {
        // seqcst: stop-flag sites share one total order with shutdown's swap.
        if self.stop.load(Ordering::SeqCst) {
            return Err(LTreeError::Remote {
                context: "loopback: server is shut down".into(),
            });
        }
        let payload = encode_request(req);
        let in_bytes = 4 + payload.len() as u64;
        // Round-trip through the codec so loopback exercises exactly
        // the bytes a socket would carry — timed into the same phase
        // histograms the socket path records.
        let t = std::time::Instant::now();
        let req = decode_request(&payload)?;
        self.metrics.decode.record(t.elapsed().as_nanos() as u64);
        let resp = handle_request(&self.scheme, &self.metrics, req);
        let t = std::time::Instant::now();
        let out = encode_response_capped(&resp);
        self.metrics.encode.record(t.elapsed().as_nanos() as u64);
        self.counters.add(1, in_bytes, 4 + out.len() as u64);
        self.pending.push_back(out);
        Ok(in_bytes)
    }

    fn recv(&mut self) -> Result<(Response, u64)> {
        let out = self.pending.pop_front().ok_or_else(|| LTreeError::Remote {
            context: "loopback: recv without a pending request".into(),
        })?;
        let bytes = 4 + out.len() as u64;
        Ok((decode_response(&out)?, bytes))
    }

    fn peer(&self) -> String {
        "loopback".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::LabelServer;
    use crate::wire::PROTOCOL_VERSION;
    use ltree_core::{LTree, Params};

    fn server() -> LabelServer {
        LabelServer::bind(
            "127.0.0.1:0",
            Box::new(LTree::new(Params::new(4, 2).unwrap())),
        )
        .unwrap()
    }

    #[test]
    fn tcp_and_loopback_answer_identically() {
        let server = server();
        let mut tcp = TcpTransport::connect(&server.local_addr().to_string(), None).unwrap();
        let mut lo = server.loopback();
        for t in [&mut tcp as &mut dyn Transport, &mut lo] {
            t.send(&Request::Hello {
                version: PROTOCOL_VERSION,
            })
            .unwrap();
            let (resp, bytes) = t.recv().unwrap();
            assert_eq!(
                resp,
                Response::Hello {
                    version: PROTOCOL_VERSION
                }
            );
            assert!(bytes > 4);
            t.send(&Request::Len).unwrap();
            assert_eq!(t.recv().unwrap().0, Response::Count(0));
        }
    }

    #[test]
    fn loopback_pipelines_and_rejects_stray_recv() {
        let server = server();
        let mut lo = server.loopback();
        // Pipelining: three sends, then three in-order recvs.
        lo.send(&Request::BulkBuild(5)).unwrap();
        lo.send(&Request::Len).unwrap();
        lo.send(&Request::LiveLen).unwrap();
        assert!(matches!(lo.recv().unwrap().0, Response::Handles(hs) if hs.len() == 5));
        assert_eq!(lo.recv().unwrap().0, Response::Count(5));
        assert_eq!(lo.recv().unwrap().0, Response::Count(5));
        assert!(lo.recv().is_err(), "no pending request");
    }

    #[test]
    fn loopback_respects_server_shutdown() {
        let mut server = server();
        let mut lo = server.loopback();
        lo.send(&Request::Len).unwrap();
        lo.recv().unwrap();
        server.shutdown();
        assert!(lo.send(&Request::Len).is_err(), "stopped server");
    }
}

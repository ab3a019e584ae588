//! [`TcpTransport`] — one framed request/response channel to a label store.
//!
//! The wire codec ([`crate::wire`]) defines *what* travels; the transport
//! defines *how*: it writes one encoded [`Request`] frame to a
//! [`LabelServer`](crate::server::LabelServer)'s socket and hands back
//! one decoded [`Response`] frame, in order. Connection pooling,
//! reconnect policy and write coalescing sit above it, in
//! [`crate::pool`] and [`crate::client`]. Every client reaches its server
//! this way: `remote(host:port)` dials an external server, and
//! `served(inner)` dials the in-process server it binds on
//! `127.0.0.1:0`.
//!
//! The error contract matters for the pool: [`TcpTransport::send`] and
//! [`TcpTransport::recv`] return `Err` **only for transport-level
//! failures** (I/O errors, malformed frames, a closed peer). A
//! scheme-level failure travels inside `Ok(Response::Err(..))` and is
//! never retried.

use std::io::{BufReader, BufWriter};
use std::net::{Shutdown, TcpStream};
use std::time::Duration;

use ltree_core::{LTreeError, Result};

use crate::wire::{
    decode_response, encode_request, io_err, read_frame, write_frame, Request, Response,
};

/// One TCP connection to a label server (buffered both ways,
/// `TCP_NODELAY`, optional read timeout so a hung server surfaces as a
/// typed transport error instead of a stuck client). See the
/// [module docs](self) for the error contract.
pub struct TcpTransport {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    /// The dialed address, for error contexts.
    peer: String,
}

impl TcpTransport {
    /// Connect to `addr` (`host:port`). No handshake is performed here —
    /// the pool owns the [`Request::Hello`] exchange, so a reconnect is
    /// version-checked exactly like the first connect.
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

    /// Write one request frame. Returns the bytes sent, frame prefix
    /// included. Requests may be pipelined: any number of `send`s may
    /// precede the matching `recv`s, which come back in order.
    pub fn send(&mut self, req: &Request) -> Result<u64> {
        write_frame(&mut self.writer, &encode_request(req))
    }

    /// Read the next response frame. Returns the response and the bytes
    /// received, frame prefix included.
    pub fn recv(&mut self) -> Result<(Response, u64)> {
        let payload = read_frame(&mut self.reader)?.ok_or_else(|| LTreeError::Remote {
            context: format!("{}: server closed the connection", self.peer),
        })?;
        let bytes = 4 + payload.len() as u64;
        Ok((decode_response(&payload)?, bytes))
    }
}

impl Drop for TcpTransport {
    fn drop(&mut self) {
        // Close the socket explicitly so the server's connection thread
        // sees EOF before a `served` client's `LabelServer::drop` joins it.
        let _ = self.writer.get_ref().shutdown(Shutdown::Both);
    }
}

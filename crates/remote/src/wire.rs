//! The wire protocol: length-prefixed request/response frames covering
//! the whole ordered-labeling trait surface.
//!
//! Frames are `u32` little-endian length + payload; the payload is one
//! tag byte followed by fixed-width little-endian fields (strings and
//! sequences carry their own `u32` length). The codec is hand-rolled in
//! the same dependency-free spirit as `ltree-bench`'s `json.rs`: the
//! workspace must build hermetically, so no serde.
//!
//! Design points:
//!
//! * **Version frame first.** A connection opens with
//!   [`Request::Hello`]; the server answers [`Response::Hello`] with its
//!   own [`PROTOCOL_VERSION`] or an error frame on mismatch, so
//!   incompatible peers fail at the handshake, not mid-operation.
//! * **Typed error frames.** Scheme-level failures travel as their own
//!   [`LTreeError`] variants and decode losslessly; only the two
//!   variants carrying `&'static str` reasons ([`LTreeError::InvalidParams`],
//!   [`LTreeError::InvalidSpec`]) are canonicalized into
//!   [`LTreeError::Remote`] (their rendered message) by
//!   [`wire_error`], since a wire peer cannot mint `'static` strings.
//! * **Batches are one frame.** A [`Request::Splice`] carries a whole
//!   [`Splice`](ltree_core::Splice) — this is where
//!   `SpliceBuilder`'s run assembly pays off over a network: round
//!   trips scale with *runs*, not items.
//! * **Paged reads.** [`Request::Page`] returns up to `limit`
//!   `(handle, label)` pairs in list order, so cursor walks and
//!   label scans cost `O(n / page)` round trips instead of `O(n)`.
//!   It is the one order read: a client answers `label_of`,
//!   `first_in_order` and `next_in_order` from pages, and `name`
//!   locally, so no point-read frame exists.
//! * **Stable tags.** A frame keeps its tag byte for life; a removed
//!   frame's tag is never reused (request tags 2, 3, 6, 7 and 19,
//!   response tags 2, 3, 5 and 12 are retired). The write-ahead log
//!   stores wire encoded write frames, so its records keep their bytes.
//!
//! Every frame type round-trips exactly (`decode(encode(f)) == f`);
//! `tests` drive that with a SplitMix64 fuzzer, error frames included.

use ltree_core::metrics::{HistogramSnapshot, Metric, MetricValue, BUCKET_COUNT};
use ltree_core::{LTreeError, Result, SchemeStats};

/// Protocol version spoken by this build. Bump on any frame change;
/// peers reject mismatches at the handshake.
/// Version history: 1 — initial protocol; 2 — adds the
/// [`Request::Metrics`] / [`Response::Metrics`] scrape frames; 3 —
/// removes the point-read requests `Name`, `LabelOf`, `FirstInOrder`
/// and `NextInOrder` and the `Name`, `Label` and `MaybeHandle`
/// responses only they produced; 4 — removes the `StatsBreakdown`
/// request and its `Breakdown` response (per-segment cost travels as
/// `seg/<i>/…` counters in the `Metrics` scrape).
pub const PROTOCOL_VERSION: u32 = 4;

/// Hard cap on a single frame's payload: fits a bulk-build response of
/// up to [`MAX_REPLY_HANDLES`] handles, and fails fast on a corrupt
/// length prefix. A server refuses a larger insert before running it;
/// any other response that would exceed the cap becomes an error frame
/// (see [`encode_response_capped`]).
pub const MAX_FRAME_BYTES: usize = 64 << 20;

/// The most handles one [`Response::Handles`] frame carries: a tag byte,
/// a `u32` count and 8 bytes per handle must fit [`MAX_FRAME_BYTES`]. A
/// server refuses a larger [`Request::BulkBuild`] or insert splice before
/// running it.
pub const MAX_REPLY_HANDLES: u64 = ((MAX_FRAME_BYTES - 5) / 8) as u64;

/// Upper bound a server imposes on [`Request::Page`] limits.
pub const MAX_PAGE_ITEMS: u32 = 4096;

/// One request frame: the client-visible half of the trait surface.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Handshake; must be the first frame on a connection.
    Hello {
        /// The client's [`PROTOCOL_VERSION`].
        version: u32,
    },
    /// [`len`](ltree_core::OrderedLabeling::len).
    Len,
    /// [`live_len`](ltree_core::OrderedLabeling::live_len).
    LiveLen,
    /// [`label_space_bits`](ltree_core::OrderedLabeling::label_space_bits).
    LabelSpaceBits,
    /// [`memory_bytes`](ltree_core::OrderedLabeling::memory_bytes).
    MemoryBytes,
    /// [`bulk_build`](ltree_core::OrderedLabelingMut::bulk_build).
    BulkBuild(u64),
    /// [`insert_first`](ltree_core::OrderedLabelingMut::insert_first).
    InsertFirst,
    /// [`insert_after`](ltree_core::OrderedLabelingMut::insert_after).
    InsertAfter(u64),
    /// [`insert_before`](ltree_core::OrderedLabelingMut::insert_before).
    InsertBefore(u64),
    /// [`delete`](ltree_core::OrderedLabelingMut::delete).
    Delete(u64),
    /// A whole typed batch ([`ltree_core::Splice`]) in one frame.
    Splice(WireSplice),
    /// Up to `limit` `(handle, label)` pairs in list order, starting at
    /// `from` (inclusive) or at the list head when `None`.
    Page {
        /// Start handle (inclusive), or `None` for the list head.
        from: Option<u64>,
        /// Maximum pairs returned (clamped to [`MAX_PAGE_ITEMS`]).
        limit: u32,
    },
    /// [`scheme_stats`](ltree_core::Instrumented::scheme_stats).
    Stats,
    /// [`reset_scheme_stats`](ltree_core::Instrumented::reset_scheme_stats).
    ResetStats,
    /// A full metrics scrape: the server's own instrumentation (request
    /// and per-connection counters, per-phase latency histograms)
    /// concatenated with the
    /// hosted scheme's [`metrics`](ltree_core::Instrumented::metrics),
    /// sorted by name. Since protocol version 2.
    Metrics,
}

impl Request {
    /// The request's tag name, for error contexts and logs — so a
    /// timeout says *which* operation timed out.
    pub fn name(&self) -> &'static str {
        match self {
            Request::Hello { .. } => "Hello",
            Request::Len => "Len",
            Request::LiveLen => "LiveLen",
            Request::LabelSpaceBits => "LabelSpaceBits",
            Request::MemoryBytes => "MemoryBytes",
            Request::BulkBuild(_) => "BulkBuild",
            Request::InsertFirst => "InsertFirst",
            Request::InsertAfter(_) => "InsertAfter",
            Request::InsertBefore(_) => "InsertBefore",
            Request::Delete(_) => "Delete",
            Request::Splice(WireSplice::InsertAfter { .. }) => "Splice::InsertAfter",
            Request::Splice(WireSplice::DeleteRun { .. }) => "Splice::DeleteRun",
            Request::Page { .. } => "Page",
            Request::Stats => "Stats",
            Request::ResetStats => "ResetStats",
            Request::Metrics => "Metrics",
        }
    }
}

/// A [`ltree_core::Splice`] in wire form (handles as raw `u64`s).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireSplice {
    /// Insert `count` items after `anchor`.
    InsertAfter {
        /// Anchor handle.
        anchor: u64,
        /// Items to insert.
        count: u64,
    },
    /// Delete up to `count` live items starting at `first`.
    DeleteRun {
        /// First handle of the run.
        first: u64,
        /// Maximum live items to delete.
        count: u64,
    },
}

/// One response frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// Handshake acknowledgment carrying the server's version.
    Hello {
        /// The server's [`PROTOCOL_VERSION`].
        version: u32,
    },
    /// A count (`len`, `live_len`, `memory_bytes`, deleted-run size).
    Count(u64),
    /// A bit width.
    Bits(u32),
    /// A single fresh handle.
    Handle(u64),
    /// Fresh handles in list order (`bulk_build`, insert splices).
    Handles(Vec<u64>),
    /// Success with nothing to return (`delete`, `reset_scheme_stats`).
    Unit,
    /// A page of `(handle, label)` pairs in list order; `at_end` is true
    /// when the page reaches the end of the list.
    Page {
        /// The pairs, in list order.
        items: Vec<(u64, u128)>,
        /// Whether the list ends with this page.
        at_end: bool,
    },
    /// Aggregate cost counters.
    Stats(SchemeStats),
    /// The operation failed; see [`wire_error`] for which variants
    /// travel losslessly.
    Err(LTreeError),
    /// A metrics snapshot (counters, gauges, histograms), sorted by
    /// name. Since protocol version 2.
    Metrics(Vec<Metric>),
}

/// Canonicalize an error for the wire: every variant travels as itself
/// except [`LTreeError::InvalidParams`] / [`LTreeError::InvalidSpec`] /
/// [`LTreeError::InvalidOption`], whose `&'static str` reasons cannot
/// be reconstructed by a peer, and [`LTreeError::CapacityExceeded`],
/// which has no wire tag (the server's [`MAX_REPLY_HANDLES`] check refuses
/// such a batch first) — they become [`LTreeError::Remote`] carrying the
/// rendered message.
pub fn wire_error(e: &LTreeError) -> LTreeError {
    match e {
        LTreeError::InvalidParams { .. }
        | LTreeError::InvalidSpec { .. }
        | LTreeError::InvalidOption { .. }
        | LTreeError::CapacityExceeded { .. } => LTreeError::Remote {
            context: e.to_string(),
        },
        other => other.clone(),
    }
}

// ----------------------------------------------------------------------
// Encoding
// ----------------------------------------------------------------------

fn put_u8(buf: &mut Vec<u8>, v: u8) {
    buf.push(v);
}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u128(buf: &mut Vec<u8>, v: u128) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u32(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

fn put_opt_u64(buf: &mut Vec<u8>, v: Option<u64>) {
    match v {
        None => put_u8(buf, 0),
        Some(h) => {
            put_u8(buf, 1);
            put_u64(buf, h);
        }
    }
}

fn put_i64(buf: &mut Vec<u8>, v: i64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_metric(buf: &mut Vec<u8>, m: &Metric) {
    put_str(buf, &m.name);
    match &m.value {
        MetricValue::Counter(v) => {
            put_u8(buf, 0);
            put_u64(buf, *v);
        }
        MetricValue::Gauge(v) => {
            put_u8(buf, 1);
            put_i64(buf, *v);
        }
        MetricValue::Histogram(h) => {
            put_u8(buf, 2);
            put_u64(buf, h.count);
            put_u64(buf, h.sum);
            put_u32(buf, h.buckets.len() as u32);
            for (idx, n) in &h.buckets {
                put_u32(buf, *idx);
                put_u64(buf, *n);
            }
        }
    }
}

fn put_stats(buf: &mut Vec<u8>, s: &SchemeStats) {
    put_u64(buf, s.inserts);
    put_u64(buf, s.deletes);
    put_u64(buf, s.label_writes);
    put_u64(buf, s.node_touches);
    put_u64(buf, s.relabel_events);
}

/// Encode a request payload (no length prefix).
pub fn encode_request(req: &Request) -> Vec<u8> {
    let mut b = Vec::new();
    match req {
        Request::Hello { version } => {
            put_u8(&mut b, 1);
            put_u32(&mut b, *version);
        }
        Request::Len => put_u8(&mut b, 4),
        Request::LiveLen => put_u8(&mut b, 5),
        Request::LabelSpaceBits => put_u8(&mut b, 8),
        Request::MemoryBytes => put_u8(&mut b, 9),
        Request::BulkBuild(n) => {
            put_u8(&mut b, 10);
            put_u64(&mut b, *n);
        }
        Request::InsertFirst => put_u8(&mut b, 11),
        Request::InsertAfter(h) => {
            put_u8(&mut b, 12);
            put_u64(&mut b, *h);
        }
        Request::InsertBefore(h) => {
            put_u8(&mut b, 13);
            put_u64(&mut b, *h);
        }
        Request::Delete(h) => {
            put_u8(&mut b, 14);
            put_u64(&mut b, *h);
        }
        Request::Splice(op) => {
            put_u8(&mut b, 15);
            match op {
                WireSplice::InsertAfter { anchor, count } => {
                    put_u8(&mut b, 0);
                    put_u64(&mut b, *anchor);
                    put_u64(&mut b, *count);
                }
                WireSplice::DeleteRun { first, count } => {
                    put_u8(&mut b, 1);
                    put_u64(&mut b, *first);
                    put_u64(&mut b, *count);
                }
            }
        }
        Request::Page { from, limit } => {
            put_u8(&mut b, 16);
            put_opt_u64(&mut b, *from);
            put_u32(&mut b, *limit);
        }
        Request::Stats => put_u8(&mut b, 17),
        Request::ResetStats => put_u8(&mut b, 18),
        Request::Metrics => put_u8(&mut b, 20),
    }
    b
}

fn put_error(b: &mut Vec<u8>, e: &LTreeError) {
    match wire_error(e) {
        LTreeError::UnknownHandle => put_u8(b, 0),
        LTreeError::DeletedLeaf => put_u8(b, 1),
        LTreeError::EmptyTree => put_u8(b, 2),
        LTreeError::NotEmpty => put_u8(b, 3),
        LTreeError::EmptyBatch => put_u8(b, 4),
        LTreeError::LabelOverflow { height } => {
            put_u8(b, 5);
            put_u8(b, height);
        }
        LTreeError::UnknownScheme { name } => {
            put_u8(b, 6);
            put_str(b, &name);
        }
        LTreeError::Remote { context } => {
            put_u8(b, 7);
            put_str(b, &context);
        }
        LTreeError::ContractViolation { scheme, detail } => {
            put_u8(b, 8);
            put_str(b, &scheme);
            put_str(b, &detail);
        }
        LTreeError::Durability { context } => {
            put_u8(b, 9);
            put_str(b, &context);
        }
        // `wire_error` canonicalized these away.
        LTreeError::InvalidParams { .. }
        | LTreeError::InvalidSpec { .. }
        | LTreeError::InvalidOption { .. }
        | LTreeError::CapacityExceeded { .. } => unreachable!(),
    }
}

/// Encode a response payload (no length prefix).
pub fn encode_response(resp: &Response) -> Vec<u8> {
    let mut b = Vec::new();
    match resp {
        Response::Hello { version } => {
            put_u8(&mut b, 1);
            put_u32(&mut b, *version);
        }
        Response::Count(n) => {
            put_u8(&mut b, 4);
            put_u64(&mut b, *n);
        }
        Response::Bits(v) => {
            put_u8(&mut b, 6);
            put_u32(&mut b, *v);
        }
        Response::Handle(h) => {
            put_u8(&mut b, 7);
            put_u64(&mut b, *h);
        }
        Response::Handles(hs) => {
            put_u8(&mut b, 8);
            put_u32(&mut b, hs.len() as u32);
            for h in hs {
                put_u64(&mut b, *h);
            }
        }
        Response::Unit => put_u8(&mut b, 9),
        Response::Page { items, at_end } => {
            put_u8(&mut b, 10);
            put_u8(&mut b, u8::from(*at_end));
            put_u32(&mut b, items.len() as u32);
            for (h, l) in items {
                put_u64(&mut b, *h);
                put_u128(&mut b, *l);
            }
        }
        Response::Stats(s) => {
            put_u8(&mut b, 11);
            put_stats(&mut b, s);
        }
        Response::Err(e) => {
            put_u8(&mut b, 13);
            put_error(&mut b, e);
        }
        Response::Metrics(metrics) => {
            put_u8(&mut b, 14);
            put_u32(&mut b, metrics.len() as u32);
            for m in metrics {
                put_metric(&mut b, m);
            }
        }
    }
    b
}

/// Encode a response payload, degrading to an error frame when the
/// encoding would exceed [`MAX_FRAME_BYTES`]. The operation has already
/// been applied by then — dropping the connection would hide that — so
/// the error frame tells the client to re-read the result in pages.
pub fn encode_response_capped(resp: &Response) -> Vec<u8> {
    let out = encode_response(resp);
    if out.len() <= MAX_FRAME_BYTES {
        return out;
    }
    encode_response(&Response::Err(LTreeError::Remote {
        context: format!(
            "response of {} bytes exceeds the frame cap; the operation WAS applied — \
             re-read the result through paged requests",
            out.len()
        ),
    }))
}

// ----------------------------------------------------------------------
// Decoding
// ----------------------------------------------------------------------

/// A decode cursor over one frame payload.
struct Buf<'a> {
    bytes: &'a [u8],
    pos: usize,
}

fn bad(context: &str) -> LTreeError {
    LTreeError::Remote {
        context: format!("malformed frame: {context}"),
    }
}

impl<'a> Buf<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Buf { bytes, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        let end = self.pos.checked_add(n).ok_or_else(|| bad("overflow"))?;
        let out = self.bytes.get(self.pos..end).ok_or_else(|| bad("short"))?;
        self.pos = end;
        Ok(out)
    }

    fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn u128(&mut self) -> Result<u128> {
        Ok(u128::from_le_bytes(self.take(16)?.try_into().unwrap()))
    }

    fn str(&mut self) -> Result<String> {
        let n = self.u32()? as usize;
        let raw = self.take(n)?;
        String::from_utf8(raw.to_vec()).map_err(|_| bad("non-UTF-8 string"))
    }

    fn opt_u64(&mut self) -> Result<Option<u64>> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.u64()?)),
            _ => Err(bad("bad option tag")),
        }
    }

    fn i64(&mut self) -> Result<i64> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn metric(&mut self) -> Result<Metric> {
        let name = self.str()?;
        Ok(match self.u8()? {
            0 => Metric::counter(name, self.u64()?),
            1 => Metric::gauge(name, self.i64()?),
            2 => {
                let count = self.u64()?;
                let sum = self.u64()?;
                let n = self.u32()? as usize;
                let mut buckets = Vec::with_capacity(n.min(BUCKET_COUNT as usize));
                for _ in 0..n {
                    let idx = self.u32()?;
                    if idx >= BUCKET_COUNT {
                        return Err(bad("histogram bucket index out of range"));
                    }
                    buckets.push((idx, self.u64()?));
                }
                Metric::histogram(
                    name,
                    HistogramSnapshot {
                        count,
                        sum,
                        buckets,
                    },
                )
            }
            _ => return Err(bad("bad metric kind tag")),
        })
    }

    fn stats(&mut self) -> Result<SchemeStats> {
        Ok(SchemeStats {
            inserts: self.u64()?,
            deletes: self.u64()?,
            label_writes: self.u64()?,
            node_touches: self.u64()?,
            relabel_events: self.u64()?,
        })
    }

    fn finish(self) -> Result<()> {
        if self.pos == self.bytes.len() {
            Ok(())
        } else {
            Err(bad("trailing bytes"))
        }
    }
}

/// Decode one request payload.
pub fn decode_request(bytes: &[u8]) -> Result<Request> {
    let mut b = Buf::new(bytes);
    let req = match b.u8()? {
        1 => Request::Hello { version: b.u32()? },
        4 => Request::Len,
        5 => Request::LiveLen,
        8 => Request::LabelSpaceBits,
        9 => Request::MemoryBytes,
        10 => Request::BulkBuild(b.u64()?),
        11 => Request::InsertFirst,
        12 => Request::InsertAfter(b.u64()?),
        13 => Request::InsertBefore(b.u64()?),
        14 => Request::Delete(b.u64()?),
        15 => match b.u8()? {
            0 => Request::Splice(WireSplice::InsertAfter {
                anchor: b.u64()?,
                count: b.u64()?,
            }),
            1 => Request::Splice(WireSplice::DeleteRun {
                first: b.u64()?,
                count: b.u64()?,
            }),
            _ => return Err(bad("bad splice tag")),
        },
        16 => Request::Page {
            from: b.opt_u64()?,
            limit: b.u32()?,
        },
        17 => Request::Stats,
        18 => Request::ResetStats,
        20 => Request::Metrics,
        _ => return Err(bad("bad request tag")),
    };
    b.finish()?;
    Ok(req)
}

fn decode_error(b: &mut Buf<'_>) -> Result<LTreeError> {
    Ok(match b.u8()? {
        0 => LTreeError::UnknownHandle,
        1 => LTreeError::DeletedLeaf,
        2 => LTreeError::EmptyTree,
        3 => LTreeError::NotEmpty,
        4 => LTreeError::EmptyBatch,
        5 => LTreeError::LabelOverflow { height: b.u8()? },
        6 => LTreeError::UnknownScheme { name: b.str()? },
        7 => LTreeError::Remote { context: b.str()? },
        8 => LTreeError::ContractViolation {
            scheme: b.str()?,
            detail: b.str()?,
        },
        9 => LTreeError::Durability { context: b.str()? },
        _ => return Err(bad("bad error tag")),
    })
}

/// Decode one response payload.
pub fn decode_response(bytes: &[u8]) -> Result<Response> {
    let mut b = Buf::new(bytes);
    let resp = match b.u8()? {
        1 => Response::Hello { version: b.u32()? },
        4 => Response::Count(b.u64()?),
        6 => Response::Bits(b.u32()?),
        7 => Response::Handle(b.u64()?),
        8 => {
            let n = b.u32()? as usize;
            let mut hs = Vec::with_capacity(n.min(MAX_FRAME_BYTES / 8));
            for _ in 0..n {
                hs.push(b.u64()?);
            }
            Response::Handles(hs)
        }
        9 => Response::Unit,
        10 => {
            let at_end = match b.u8()? {
                0 => false,
                1 => true,
                _ => return Err(bad("bad bool")),
            };
            let n = b.u32()? as usize;
            let mut items = Vec::with_capacity(n.min(MAX_FRAME_BYTES / 24));
            for _ in 0..n {
                items.push((b.u64()?, b.u128()?));
            }
            Response::Page { items, at_end }
        }
        11 => Response::Stats(b.stats()?),
        13 => Response::Err(decode_error(&mut b)?),
        14 => {
            let n = b.u32()? as usize;
            let mut metrics = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                metrics.push(b.metric()?);
            }
            Response::Metrics(metrics)
        }
        _ => return Err(bad("bad response tag")),
    };
    b.finish()?;
    Ok(resp)
}

// ----------------------------------------------------------------------
// Framing over a byte stream
// ----------------------------------------------------------------------

/// Write one frame (length prefix + payload) to `w`. Returns the bytes
/// written, including the prefix.
pub fn write_frame<W: std::io::Write>(w: &mut W, payload: &[u8]) -> Result<u64> {
    if payload.len() > MAX_FRAME_BYTES {
        return Err(LTreeError::Remote {
            context: format!("frame of {} bytes exceeds the cap", payload.len()),
        });
    }
    let len = (payload.len() as u32).to_le_bytes();
    w.write_all(&len).map_err(io_err)?;
    w.write_all(payload).map_err(io_err)?;
    w.flush().map_err(io_err)?;
    Ok(4 + payload.len() as u64)
}

/// Read one frame payload from `r`. `Ok(None)` is a clean end of stream
/// (EOF on the length prefix); a truncated frame is an error.
pub fn read_frame<R: std::io::Read>(r: &mut R) -> Result<Option<Vec<u8>>> {
    let mut len = [0u8; 4];
    let mut got = 0usize;
    while got < 4 {
        match r.read(&mut len[got..]).map_err(io_err)? {
            0 if got == 0 => return Ok(None),
            0 => return Err(bad("truncated length prefix")),
            n => got += n,
        }
    }
    let n = u32::from_le_bytes(len) as usize;
    if n > MAX_FRAME_BYTES {
        return Err(LTreeError::Remote {
            context: format!("frame of {n} bytes exceeds the cap"),
        });
    }
    let mut payload = vec![0u8; n];
    r.read_exact(&mut payload).map_err(io_err)?;
    Ok(Some(payload))
}

/// Map a transport I/O failure into the error currency of the traits.
pub fn io_err(e: std::io::Error) -> LTreeError {
    LTreeError::Remote {
        context: format!("transport I/O: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ltree_core::rng::SplitMix64;

    fn rand_stats(rng: &mut SplitMix64) -> SchemeStats {
        SchemeStats {
            inserts: rng.next_u64() >> 16,
            deletes: rng.next_u64() >> 16,
            label_writes: rng.next_u64() >> 16,
            node_touches: rng.next_u64() >> 16,
            relabel_events: rng.next_u64() >> 16,
        }
    }

    fn rand_string(rng: &mut SplitMix64) -> String {
        let n = rng.gen_range(0..12);
        (0..n)
            .map(|_| char::from(b'a' + (rng.gen_range(0..26) as u8)))
            .collect()
    }

    /// Every wire-expressible error, uniformly sampled.
    fn rand_error(rng: &mut SplitMix64) -> LTreeError {
        match rng.gen_range(0..10) {
            0 => LTreeError::UnknownHandle,
            1 => LTreeError::DeletedLeaf,
            2 => LTreeError::EmptyTree,
            3 => LTreeError::NotEmpty,
            4 => LTreeError::EmptyBatch,
            5 => LTreeError::LabelOverflow {
                height: rng.gen_range(0..256) as u8,
            },
            6 => LTreeError::UnknownScheme {
                name: rand_string(rng),
            },
            7 => LTreeError::ContractViolation {
                scheme: rand_string(rng),
                detail: rand_string(rng),
            },
            8 => LTreeError::Durability {
                context: rand_string(rng),
            },
            _ => LTreeError::Remote {
                context: rand_string(rng),
            },
        }
    }

    fn rand_metric(rng: &mut SplitMix64) -> Metric {
        let name = rand_string(rng);
        match rng.gen_range(0..3) {
            0 => Metric::counter(name, rng.next_u64()),
            1 => Metric::gauge(name, rng.next_u64() as i64),
            _ => {
                let n = rng.gen_range(0..10);
                let mut buckets: Vec<(u32, u64)> = (0..n)
                    .map(|_| {
                        (
                            rng.gen_range(0..BUCKET_COUNT as usize) as u32,
                            rng.next_u64() >> 16,
                        )
                    })
                    .collect();
                buckets.sort_unstable();
                buckets.dedup_by_key(|(idx, _)| *idx);
                let count = buckets.iter().map(|(_, n)| n).sum();
                Metric::histogram(
                    name,
                    HistogramSnapshot {
                        count,
                        sum: rng.next_u64(),
                        buckets,
                    },
                )
            }
        }
    }

    fn rand_request(rng: &mut SplitMix64) -> Request {
        match rng.gen_range(0..16) {
            0 => Request::Hello {
                version: rng.next_u64() as u32,
            },
            1 => Request::Len,
            2 => Request::LiveLen,
            3 => Request::LabelSpaceBits,
            4 => Request::MemoryBytes,
            5 => Request::BulkBuild(rng.next_u64()),
            6 => Request::InsertFirst,
            7 => Request::InsertAfter(rng.next_u64()),
            8 => Request::InsertBefore(rng.next_u64()),
            9 => Request::Delete(rng.next_u64()),
            10 => Request::Splice(WireSplice::InsertAfter {
                anchor: rng.next_u64(),
                count: rng.next_u64(),
            }),
            11 => Request::Splice(WireSplice::DeleteRun {
                first: rng.next_u64(),
                count: rng.next_u64(),
            }),
            12 => Request::Page {
                from: (rng.gen_bool(0.5)).then(|| rng.next_u64()),
                limit: rng.next_u64() as u32,
            },
            13 => Request::Stats,
            14 => Request::ResetStats,
            _ => Request::Metrics,
        }
    }

    fn rand_response(rng: &mut SplitMix64) -> Response {
        match rng.gen_range(0..10) {
            0 => Response::Hello {
                version: rng.next_u64() as u32,
            },
            1 => Response::Count(rng.next_u64()),
            2 => Response::Bits(rng.next_u64() as u32),
            3 => Response::Handle(rng.next_u64()),
            4 => {
                let n = rng.gen_range(0..40);
                Response::Handles((0..n).map(|_| rng.next_u64()).collect())
            }
            5 => Response::Unit,
            6 => {
                let n = rng.gen_range(0..20);
                Response::Page {
                    items: (0..n)
                        .map(|_| {
                            (
                                rng.next_u64(),
                                (rng.next_u64() as u128) << 64 | rng.next_u64() as u128,
                            )
                        })
                        .collect(),
                    at_end: rng.gen_bool(0.5),
                }
            }
            7 => Response::Stats(rand_stats(rng)),
            8 => {
                let n = rng.gen_range(0..6);
                Response::Metrics((0..n).map(|_| rand_metric(rng)).collect())
            }
            _ => Response::Err(rand_error(rng)),
        }
    }

    /// encode → decode is the identity for every frame type, error
    /// frames included. Failures reproduce from the printed seed.
    #[test]
    fn codec_roundtrip_fuzz() {
        for seed in 0..16u64 {
            let mut rng = SplitMix64::new(seed);
            for i in 0..500 {
                let req = rand_request(&mut rng);
                let back = decode_request(&encode_request(&req))
                    .unwrap_or_else(|e| panic!("seed {seed} iter {i}: {req:?}: {e}"));
                assert_eq!(back, req, "seed {seed} iter {i}");
                let resp = rand_response(&mut rng);
                let back = decode_response(&encode_response(&resp))
                    .unwrap_or_else(|e| panic!("seed {seed} iter {i}: {resp:?}: {e}"));
                assert_eq!(back, resp, "seed {seed} iter {i}");
            }
        }
    }

    #[test]
    fn static_reason_errors_canonicalize_to_remote() {
        let e = LTreeError::InvalidSpec {
            spec: "nope(".into(),
            reason: "unbalanced parentheses",
        };
        let resp = Response::Err(e.clone());
        let back = decode_response(&encode_response(&resp)).unwrap();
        match back {
            Response::Err(LTreeError::Remote { context }) => {
                assert!(context.contains("nope("), "{context}");
                assert!(context.contains("unbalanced"), "{context}");
            }
            other => panic!("expected a canonicalized Remote error, got {other:?}"),
        }
        // Wire-expressible errors survive exactly.
        let exact = Response::Err(LTreeError::DeletedLeaf);
        assert_eq!(decode_response(&encode_response(&exact)).unwrap(), exact);
    }

    #[test]
    fn malformed_payloads_are_typed_errors() {
        assert!(decode_request(&[]).is_err());
        assert!(decode_request(&[200]).is_err(), "unknown tag");
        assert!(decode_request(&[12, 1, 2]).is_err(), "short handle");
        // Retired tags are unknown, not reinterpreted.
        for tag in [2, 3, 6, 7, 19] {
            assert!(decode_request(&[tag]).is_err(), "retired request tag {tag}");
        }
        for tag in [2, 3, 5, 12] {
            assert!(
                decode_response(&[tag]).is_err(),
                "retired response tag {tag}"
            );
        }
        let mut ok = encode_request(&Request::Len);
        ok.push(0);
        assert!(decode_request(&ok).is_err(), "trailing bytes");
        assert!(decode_response(&[13, 99]).is_err(), "bad error tag");
        // Metrics frame: count 1, empty name, unknown kind tag 9.
        assert!(
            decode_response(&[14, 1, 0, 0, 0, 0, 0, 0, 0, 9]).is_err(),
            "bad metric kind tag"
        );
        // Error frame, `Remote` variant, a 4-byte context that is not UTF-8.
        assert!(
            decode_response(&[13, 7, 4, 0, 0, 0, 0xff, 0xfe, 0x01, 0x02]).is_err(),
            "bad utf8"
        );
    }

    #[test]
    fn framing_roundtrips_and_rejects_oversize() {
        let mut buf = Vec::new();
        let a = encode_request(&Request::Stats);
        let b = encode_request(&Request::Delete(7));
        write_frame(&mut buf, &a).unwrap();
        write_frame(&mut buf, &b).unwrap();
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), a);
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b);
        assert_eq!(read_frame(&mut r).unwrap(), None, "clean EOF");
        // A corrupt length prefix fails fast instead of allocating 4 GiB.
        let huge = (u32::MAX).to_le_bytes();
        let mut r = &huge[..];
        assert!(read_frame(&mut r).is_err());
        // Truncated frames are loud.
        let mut truncated = Vec::new();
        write_frame(&mut truncated, &a).unwrap();
        truncated.pop();
        let mut r = &truncated[..];
        assert!(read_frame(&mut r).is_err());
    }
}

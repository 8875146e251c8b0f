//! The `fairsw-serve` wire protocol: little-endian, length-prefixed
//! frames carrying one request or one reply each.
//!
//! ## Frame layout
//!
//! ```text
//! frame   := len:u32 body[len]          (len ≤ 64 MiB)
//! request := opcode:u8 tenant:str16 payload
//! str16   := len:u16 utf8[len]
//! reply   := status:u8 payload
//! ```
//!
//! Requests (`opcode` → payload):
//!
//! | op | name           | payload                                     |
//! |----|----------------|---------------------------------------------|
//! | 1  | `CREATE`       | [`TenantConfig`]                            |
//! | 2  | `INSERT`       | one colored point                           |
//! | 3  | `INSERT_BATCH` | `count:u32` colored points                  |
//! | 4  | `QUERY`        | —                                           |
//! | 5  | `STATS`        | —                                           |
//! | 6  | `CHECKPOINT`   | — (empty tenant name = every tenant)        |
//! | 7  | `DELETE`       | —                                           |
//! | 8  | `SHUTDOWN`     | — (tenant name ignored)                     |
//! | 9  | `WAL_SUBSCRIBE`| — (tenant name ignored)                     |
//! | 10 | `PROMOTE`      | — (tenant name ignored)                     |
//!
//! A colored point is `color:u32 dim:u16 coords:f64[dim]`. Replies carry
//! `status = 0` (OK) followed by a payload tag (`0` bare ack, `1`
//! [`WireSolution`], `2` [`WireStats`], `3` checkpoint counts, `4` a
//! `WAL_APPEND` replication frame: `tenant:str16` + one
//! [`WalRecord`](crate::wal::WalRecord)), or a non-zero [`ErrorKind`]
//! code followed by `msg:str16`. All numbers are little-endian; `f64`
//! values travel as raw IEEE bits, so solutions survive the wire
//! **bit-identically** — the differential suite compares server replies
//! against in-process engines at the byte level.
//!
//! ## Replication frames
//!
//! `WAL_SUBSCRIBE` converts the connection into a one-way replication
//! stream: the server acks with a bare `Ok`, then pushes `WAL_APPEND`
//! reply frames (tag `4`) — one per durable log record — for every
//! tenant's history (bootstrap) and every subsequently accepted write
//! (live tail). The subscriber never sends another request on that
//! connection. `PROMOTE`, sent to a follower started with `--follow`,
//! detaches it from its leader and re-enables writes; on a server that
//! is not a follower it answers [`ErrorKind::Unsupported`]. Writes sent
//! to a not-yet-promoted follower answer [`ErrorKind::ReadOnly`].
//!
//! Every decoder is total: corrupt input yields [`WireError`], never a
//! panic, and length prefixes are sanity-checked against the bytes
//! remaining before any allocation is sized by them. Encoders are
//! checked the same way: a value that does not fit its wire field (a
//! point beyond 65535 dimensions, an oversized capacity vector) fails
//! with [`ProtocolError::TooLarge`] instead of emitting a frame whose
//! truncated length field would misparse on the other side.

use fairsw_core::{
    ConfigError, EngineBuilder, QueryError, Solution, SolutionExtras, VariantSpec, WindowEngine,
};
use fairsw_matroid::PartitionMatroid;
use fairsw_metric::{Colored, EuclidPoint, Euclidean, Exactness, Relaxed};
use std::fmt;
use std::io::{self, Read, Write};

/// Hard cap on one frame's body (guards the length-prefix read).
pub const MAX_FRAME: usize = 64 << 20;
/// Longest accepted tenant name (also a spool-file name stem).
pub const MAX_TENANT_LEN: usize = 64;

// ---- framing -----------------------------------------------------------

/// Writes one length-prefixed frame. A body over [`MAX_FRAME`] is a
/// hard error *before* any bytes hit the wire — the peer's `read_frame`
/// would reject the length prefix anyway, and a half-written oversized
/// frame would desynchronize the stream for good.
pub fn write_frame(w: &mut impl Write, body: &[u8]) -> io::Result<()> {
    if body.len() > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "frame of {} bytes exceeds the {MAX_FRAME}-byte cap",
                body.len()
            ),
        ));
    }
    w.write_all(&(body.len() as u32).to_le_bytes())?;
    w.write_all(body)?;
    w.flush()
}

/// Reads one frame. Returns `None` on clean EOF at a frame boundary.
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<Vec<u8>>> {
    let mut len = [0u8; 4];
    if !read_exact_or_eof(r, &mut len)? {
        return Ok(None);
    }
    let n = u32::from_le_bytes(len) as usize;
    if n > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame of {n} bytes exceeds the {MAX_FRAME}-byte cap"),
        ));
    }
    let mut body = vec![0u8; n];
    r.read_exact(&mut body)?;
    Ok(Some(body))
}

/// `read_exact`, except a clean EOF before the first byte returns
/// `Ok(false)` instead of an error (EOF mid-buffer stays an error).
fn read_exact_or_eof(r: &mut impl Read, buf: &mut [u8]) -> io::Result<bool> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) if filled == 0 => return Ok(false),
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "EOF inside a frame",
                ))
            }
            Ok(k) => filled += k,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(true)
}

/// Incremental frame reassembly for nonblocking sockets.
///
/// The blocking [`read_frame`] owns its stream and can wait for a whole
/// frame; the event-driven path (see [`crate::net`]) receives arbitrary
/// byte chunks — a frame may arrive one byte at a time, or several
/// pipelined frames may land in a single `read`. `FrameAssembler` is the
/// state machine between the two: [`push`](Self::push) appends whatever
/// the socket produced, [`next_frame`](Self::next_frame) yields each
/// completed frame body in arrival order.
///
/// The length prefix is validated against [`MAX_FRAME`] *before* any
/// allocation is sized by it, exactly like the blocking reader; an
/// oversized prefix is an unrecoverable framing error (the stream can
/// never resynchronize) and poisons the assembler. Consumed bytes are
/// compacted away lazily, so the buffer stays bounded by one maximal
/// frame plus one read chunk.
#[derive(Debug, Default)]
pub struct FrameAssembler {
    buf: Vec<u8>,
    /// Consumed prefix of `buf` (compacted lazily).
    start: usize,
    /// A framing error was hit: the stream is desynchronized for good.
    poisoned: bool,
}

/// Compaction threshold for the consumed prefix of the buffer.
const ASSEMBLER_COMPACT: usize = 64 << 10;

impl FrameAssembler {
    /// An empty assembler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends bytes read from the socket.
    pub fn push(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes received but not yet yielded as complete frames (a partial
    /// frame, a partial length prefix, or frames not yet drained).
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.start
    }

    /// Pops the next complete frame body, `Ok(None)` while the tail is
    /// still partial. After an `Err` (length prefix over [`MAX_FRAME`])
    /// the assembler is poisoned: every later call errs too, because a
    /// desynchronized length-prefixed stream cannot be re-entered.
    pub fn next_frame(&mut self) -> Result<Option<Vec<u8>>, WireError> {
        if self.poisoned {
            return Err(WireError::Invalid("framing desynchronized".into()));
        }
        let avail = self.buf.len() - self.start;
        if avail < 4 {
            self.compact();
            return Ok(None);
        }
        let mut len = [0u8; 4];
        len.copy_from_slice(&self.buf[self.start..self.start + 4]);
        let n = u32::from_le_bytes(len) as usize;
        if n > MAX_FRAME {
            self.poisoned = true;
            return Err(WireError::Invalid(format!(
                "frame of {n} bytes exceeds the {MAX_FRAME}-byte cap"
            )));
        }
        if avail < 4 + n {
            self.compact();
            return Ok(None);
        }
        let body = self.buf[self.start + 4..self.start + 4 + n].to_vec();
        self.start += 4 + n;
        self.compact();
        Ok(Some(body))
    }

    /// Reclaims the consumed prefix once it is large enough to matter
    /// (or the buffer emptied, which makes it free).
    fn compact(&mut self) {
        if self.start == self.buf.len() {
            self.buf.clear();
            self.start = 0;
        } else if self.start >= ASSEMBLER_COMPACT {
            self.buf.drain(..self.start);
            self.start = 0;
        }
    }
}

// ---- decode errors -----------------------------------------------------

/// Errors raised while decoding a frame body.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// The body ended before the encoded structure did.
    Truncated,
    /// A decoded value is structurally invalid (message attached).
    Invalid(String),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => write!(f, "frame truncated"),
            WireError::Invalid(m) => write!(f, "invalid frame: {m}"),
        }
    }
}

impl std::error::Error for WireError {}

// ---- encode errors -----------------------------------------------------

/// Errors raised while *encoding* a frame body: a value does not fit
/// the wire field that carries its length. Encoding is checked, never
/// asserted — an oversized value is a hard error, not a debug-only
/// panic that releases silently truncate into garbage frames.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ProtocolError {
    /// `what` has `len` items (or bytes) but the wire caps it at `max`.
    TooLarge {
        /// What overflowed (e.g. `"point dimension"`).
        what: &'static str,
        /// The offending length.
        len: usize,
        /// The wire format's cap for this field.
        max: usize,
    },
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolError::TooLarge { what, len, max } => {
                write!(f, "{what} of {len} exceeds the wire cap of {max}")
            }
        }
    }
}

impl std::error::Error for ProtocolError {}

impl From<ProtocolError> for io::Error {
    fn from(e: ProtocolError) -> Self {
        io::Error::new(io::ErrorKind::InvalidInput, e.to_string())
    }
}

/// Checks one length against the cap of the wire field carrying it.
pub(crate) fn check_len(what: &'static str, len: usize, max: usize) -> Result<(), ProtocolError> {
    if len > max {
        return Err(ProtocolError::TooLarge { what, len, max });
    }
    Ok(())
}

// ---- primitive helpers -------------------------------------------------

pub(crate) fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_str16(out: &mut Vec<u8>, s: &str) -> Result<(), ProtocolError> {
    check_len("string length", s.len(), u16::MAX as usize)?;
    put_u16(out, s.len() as u16);
    out.extend_from_slice(s.as_bytes());
    Ok(())
}

pub(crate) fn take_bytes<'a>(input: &mut &'a [u8], n: usize) -> Result<&'a [u8], WireError> {
    if input.len() < n {
        return Err(WireError::Truncated);
    }
    let (head, rest) = input.split_at(n);
    *input = rest;
    Ok(head)
}

pub(crate) fn take_u8(input: &mut &[u8]) -> Result<u8, WireError> {
    Ok(take_bytes(input, 1)?[0])
}

pub(crate) fn take_u16(input: &mut &[u8]) -> Result<u16, WireError> {
    Ok(u16::from_le_bytes(
        take_bytes(input, 2)?.try_into().expect("2 bytes"),
    ))
}

pub(crate) fn take_u32(input: &mut &[u8]) -> Result<u32, WireError> {
    Ok(u32::from_le_bytes(
        take_bytes(input, 4)?.try_into().expect("4 bytes"),
    ))
}

pub(crate) fn take_u64(input: &mut &[u8]) -> Result<u64, WireError> {
    Ok(u64::from_le_bytes(
        take_bytes(input, 8)?.try_into().expect("8 bytes"),
    ))
}

pub(crate) fn take_f64(input: &mut &[u8]) -> Result<f64, WireError> {
    Ok(f64::from_le_bytes(
        take_bytes(input, 8)?.try_into().expect("8 bytes"),
    ))
}

/// Reads a `u32` count and sanity-checks it against the bytes left so a
/// corrupt prefix cannot size a huge allocation.
pub(crate) fn take_count32(input: &mut &[u8], min_item_bytes: usize) -> Result<usize, WireError> {
    let n = take_u32(input)? as usize;
    if n as u128 * min_item_bytes as u128 > input.len() as u128 {
        return Err(WireError::Truncated);
    }
    Ok(n)
}

pub(crate) fn take_str16(input: &mut &[u8]) -> Result<String, WireError> {
    let n = take_u16(input)? as usize;
    let bytes = take_bytes(input, n)?;
    String::from_utf8(bytes.to_vec()).map_err(|_| WireError::Invalid("non-UTF-8 string".into()))
}

// ---- points ------------------------------------------------------------

pub(crate) fn put_point(out: &mut Vec<u8>, p: &Colored<EuclidPoint>) -> Result<(), ProtocolError> {
    check_len("point dimension", p.point.coords().len(), u16::MAX as usize)?;
    put_u32(out, p.color);
    put_u16(out, p.point.coords().len() as u16);
    for c in p.point.coords() {
        put_f64(out, *c);
    }
    Ok(())
}

pub(crate) fn take_point(input: &mut &[u8]) -> Result<Colored<EuclidPoint>, WireError> {
    let color = take_u32(input)?;
    let dim = take_u16(input)? as usize;
    if dim * 8 > input.len() {
        return Err(WireError::Truncated);
    }
    let mut coords = Vec::with_capacity(dim);
    for _ in 0..dim {
        coords.push(take_f64(input)?);
    }
    Ok(Colored::new(EuclidPoint::new(coords), color))
}

// ---- tenant configuration ---------------------------------------------

/// The variant selector inside a [`TenantConfig`] — the wire shape of
/// [`VariantSpec`] (the matroid arm carries a partition matroid over the
/// config's capacities, the one constraint expressible without shipping
/// an oracle).
#[derive(Clone, Debug, PartialEq)]
pub enum WireVariant {
    /// The main algorithm (`VariantSpec::Fixed`).
    Fixed {
        /// Lower bound on the stream's pairwise distances.
        dmin: f64,
        /// Upper bound on the stream's pairwise distances.
        dmax: f64,
    },
    /// The scale-oblivious variant.
    Oblivious,
    /// The Corollary 2 variant.
    Compact {
        /// Lower bound on the stream's pairwise distances.
        dmin: f64,
        /// Upper bound on the stream's pairwise distances.
        dmax: f64,
    },
    /// The outlier-tolerant variant.
    Robust {
        /// Tolerated outliers per window.
        z: usize,
        /// Lower bound on the stream's pairwise distances.
        dmin: f64,
        /// Upper bound on the stream's pairwise distances.
        dmax: f64,
    },
    /// A partition matroid over the config's capacities.
    Matroid {
        /// Lower bound on the stream's pairwise distances.
        dmin: f64,
        /// Upper bound on the stream's pairwise distances.
        dmax: f64,
    },
}

impl WireVariant {
    /// Stable single-byte code (also reported by [`WireStats`]).
    pub fn code(&self) -> u8 {
        match self {
            WireVariant::Fixed { .. } => 0,
            WireVariant::Oblivious => 1,
            WireVariant::Compact { .. } => 2,
            WireVariant::Robust { .. } => 3,
            WireVariant::Matroid { .. } => 4,
        }
    }
}

/// Per-tenant Johnson–Lindenstrauss ingest projection, as carried in
/// `CREATE`: every accepted point is projected to `out_dim` coordinates
/// *before* it reaches the WAL, the ingest buffer, or the engine, so
/// the tenant's durable state and resident memory shrink with the
/// dimension. Only the spec travels on the wire — the projection matrix
/// is rematerialized from the seed on every node (leader, follower,
/// restart), which keeps recovery bit-identical without serializing
/// `in_dim × out_dim` floats.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WireProjection {
    /// Projected dimensionality (must be > 0).
    pub out_dim: usize,
    /// Seed the projection matrix is rematerialized from.
    pub seed: u64,
    /// Use the sparse (Achlioptas ±1/0) variant instead of dense
    /// Gaussian entries.
    pub sparse: bool,
}

/// A tenant's engine configuration as sent in `CREATE`: the shared
/// [`FairSWConfig`](fairsw_core::FairSWConfig) parameters plus a
/// [`WireVariant`].
#[derive(Clone, Debug, PartialEq)]
pub struct TenantConfig {
    /// Window length `n`.
    pub window: usize,
    /// Per-color budgets `k_i`.
    pub caps: Vec<usize>,
    /// Guess progression `β`.
    pub beta: f64,
    /// Coreset precision `δ`.
    pub delta: f64,
    /// Which variant to construct.
    pub variant: WireVariant,
    /// Kernel exactness: `Exact` (the default) answers bit-identically
    /// to the scalar reference kernels; `Approx { epsilon }` lets the
    /// tenant's engine run the runtime-dispatched SIMD kernels.
    pub exactness: Exactness,
    /// In approx mode, stage coreset views as the compact `f32` mirror
    /// (final radii are still re-ranked in exact `f64`).
    pub compact_mirror: bool,
    /// Optional JL ingest projection (see [`WireProjection`]). Encoded
    /// as trailing bytes, so configs without one are byte-identical to
    /// the previous wire revision and old WAL logs/snapshots replay
    /// unchanged.
    pub projection: Option<WireProjection>,
}

impl TenantConfig {
    /// A config with the paper's defaults (`β = 2`, `δ = 1`).
    pub fn new(window: usize, caps: Vec<usize>, variant: WireVariant) -> Self {
        TenantConfig {
            window,
            caps,
            beta: 2.0,
            delta: 1.0,
            variant,
            exactness: Exactness::Exact,
            compact_mirror: false,
            projection: None,
        }
    }

    /// Attaches a JL ingest projection to the config.
    pub fn with_projection(mut self, out_dim: usize, seed: u64, sparse: bool) -> Self {
        self.projection = Some(WireProjection {
            out_dim,
            seed,
            sparse,
        });
        self
    }

    /// Builds the engine this config describes (validation included).
    /// The metric is always wrapped in [`Relaxed`]; with the default
    /// `Exactness::Exact` the engine answers bit-identically to one
    /// built over the bare metric.
    pub fn build_engine(&self) -> Result<WindowEngine<Relaxed<Euclidean>>, ConfigError> {
        let builder = EngineBuilder::new()
            .window_size(self.window)
            .capacities(self.caps.clone())
            .beta(self.beta)
            .delta(self.delta);
        let spec = match self.variant {
            WireVariant::Fixed { dmin, dmax } => VariantSpec::Fixed { dmin, dmax },
            WireVariant::Oblivious => VariantSpec::Oblivious,
            WireVariant::Compact { dmin, dmax } => VariantSpec::Compact { dmin, dmax },
            WireVariant::Robust { z, dmin, dmax } => VariantSpec::Robust { z, dmin, dmax },
            WireVariant::Matroid { dmin, dmax } => VariantSpec::Matroid {
                matroid: PartitionMatroid::new(self.caps.clone())
                    .map_err(|_| ConfigError::NoCapacities)?
                    .into(),
                dmin,
                dmax,
            },
        };
        builder.variant(spec).build(self.metric())
    }

    /// The tenant's metric: Euclidean under the configured kernel
    /// exactness and staging. Snapshots do not record it, so a restore
    /// that knows the config must pass this, not an exact default.
    pub fn metric(&self) -> Relaxed<Euclidean> {
        Relaxed::new(Euclidean, self.exactness).with_compact_staging(self.compact_mirror)
    }

    pub(crate) fn encode(&self, out: &mut Vec<u8>) -> Result<(), ProtocolError> {
        check_len("capacity count", self.caps.len(), u16::MAX as usize)?;
        put_u64(out, self.window as u64);
        put_u16(out, self.caps.len() as u16);
        for c in &self.caps {
            put_u64(out, *c as u64);
        }
        put_f64(out, self.beta);
        put_f64(out, self.delta);
        out.push(self.variant.code());
        match self.variant {
            WireVariant::Oblivious => {}
            WireVariant::Fixed { dmin, dmax }
            | WireVariant::Compact { dmin, dmax }
            | WireVariant::Matroid { dmin, dmax } => {
                put_f64(out, dmin);
                put_f64(out, dmax);
            }
            WireVariant::Robust { z, dmin, dmax } => {
                put_u64(out, z as u64);
                put_f64(out, dmin);
                put_f64(out, dmax);
            }
        }
        match self.exactness {
            Exactness::Exact => out.push(0),
            Exactness::Approx { epsilon } => {
                out.push(if self.compact_mirror { 2 } else { 1 });
                put_f64(out, epsilon);
            }
        }
        // The projection rides as trailing bytes: absent, the encoding
        // is byte-identical to the pre-projection wire revision.
        if let Some(proj) = self.projection {
            check_len("projection dimension", proj.out_dim, u16::MAX as usize)?;
            out.push(if proj.sparse { 2 } else { 1 });
            put_u64(out, proj.out_dim as u64);
            put_u64(out, proj.seed);
        }
        Ok(())
    }

    pub(crate) fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
        let window = take_u64(input)? as usize;
        let ncaps = take_u16(input)? as usize;
        if ncaps * 8 > input.len() {
            return Err(WireError::Truncated);
        }
        let mut caps = Vec::with_capacity(ncaps);
        for _ in 0..ncaps {
            caps.push(take_u64(input)? as usize);
        }
        let beta = take_f64(input)?;
        let delta = take_f64(input)?;
        let variant = match take_u8(input)? {
            0 => WireVariant::Fixed {
                dmin: take_f64(input)?,
                dmax: take_f64(input)?,
            },
            1 => WireVariant::Oblivious,
            2 => WireVariant::Compact {
                dmin: take_f64(input)?,
                dmax: take_f64(input)?,
            },
            3 => WireVariant::Robust {
                z: take_u64(input)? as usize,
                dmin: take_f64(input)?,
                dmax: take_f64(input)?,
            },
            4 => WireVariant::Matroid {
                dmin: take_f64(input)?,
                dmax: take_f64(input)?,
            },
            other => return Err(WireError::Invalid(format!("unknown variant code {other}"))),
        };
        let (exactness, compact_mirror) = match take_u8(input)? {
            0 => (Exactness::Exact, false),
            code @ (1 | 2) => (
                Exactness::Approx {
                    epsilon: take_f64(input)?,
                },
                code == 2,
            ),
            other => {
                return Err(WireError::Invalid(format!(
                    "unknown exactness code {other}"
                )))
            }
        };
        // Trailing projection bytes; their absence (an encoding from the
        // pre-projection wire revision, e.g. an old WAL log) means no
        // projection. Every enclosing body is length-delimited with the
        // config last, so "remaining input" is well-defined here.
        let projection = if input.is_empty() {
            None
        } else {
            let sparse = match take_u8(input)? {
                1 => false,
                2 => true,
                other => {
                    return Err(WireError::Invalid(format!(
                        "unknown projection tag {other}"
                    )))
                }
            };
            let out_dim = take_u64(input)? as usize;
            if out_dim == 0 {
                return Err(WireError::Invalid("projection dimension 0".into()));
            }
            let seed = take_u64(input)?;
            Some(WireProjection {
                out_dim,
                seed,
                sparse,
            })
        };
        Ok(TenantConfig {
            window,
            caps,
            beta,
            delta,
            variant,
            exactness,
            compact_mirror,
            projection,
        })
    }
}

// ---- requests ----------------------------------------------------------

/// One request frame.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Creates a tenant (fails with `TENANT_EXISTS` when live).
    Create {
        /// Tenant name (`[A-Za-z0-9._-]{1,64}`).
        tenant: String,
        /// Engine configuration.
        config: TenantConfig,
    },
    /// Appends one point to the tenant's ingest buffer (acked when
    /// buffered, applied on the next size- or tick-triggered flush).
    Insert {
        /// Tenant name.
        tenant: String,
        /// The arriving point.
        point: Colored<EuclidPoint>,
    },
    /// Appends a batch of points to the tenant's ingest buffer.
    InsertBatch {
        /// Tenant name.
        tenant: String,
        /// The arriving points, in stream order.
        points: Vec<Colored<EuclidPoint>>,
    },
    /// Flushes the tenant's buffer and answers for its current window.
    Query {
        /// Tenant name.
        tenant: String,
    },
    /// Flushes the tenant's buffer and reports its memory/throughput
    /// statistics.
    Stats {
        /// Tenant name.
        tenant: String,
    },
    /// Writes engine snapshots to the spool directory — the named tenant,
    /// or every tenant when the name is empty.
    Checkpoint {
        /// Tenant name ("" = all tenants).
        tenant: String,
    },
    /// Deletes the tenant (its reset engine may be reused by a matching
    /// `CREATE`).
    Delete {
        /// Tenant name.
        tenant: String,
    },
    /// Asks the server to shut down cleanly.
    Shutdown,
    /// Converts this connection into a replication stream: the server
    /// acks, then pushes one [`Reply::Wal`] frame per durable log
    /// record (bootstrap history first, live tail after). Requires the
    /// server to run with a WAL directory.
    WalSubscribe,
    /// Promotes a follower to leader: detaches it from its leader and
    /// re-enables writes. Not a follower → [`ErrorKind::Unsupported`].
    Promote,
}

const OP_CREATE: u8 = 1;
const OP_INSERT: u8 = 2;
const OP_INSERT_BATCH: u8 = 3;
const OP_QUERY: u8 = 4;
const OP_STATS: u8 = 5;
const OP_CHECKPOINT: u8 = 6;
const OP_DELETE: u8 = 7;
const OP_SHUTDOWN: u8 = 8;
const OP_WAL_SUBSCRIBE: u8 = 9;
const OP_PROMOTE: u8 = 10;

impl Request {
    /// The tenant the request addresses ("" for `SHUTDOWN` and
    /// checkpoint-all).
    pub fn tenant(&self) -> &str {
        match self {
            Request::Create { tenant, .. }
            | Request::Insert { tenant, .. }
            | Request::InsertBatch { tenant, .. }
            | Request::Query { tenant }
            | Request::Stats { tenant }
            | Request::Checkpoint { tenant }
            | Request::Delete { tenant } => tenant,
            Request::Shutdown | Request::WalSubscribe | Request::Promote => "",
        }
    }

    /// Encodes the request as one frame body. Fails with
    /// [`ProtocolError::TooLarge`] when a value does not fit its wire
    /// field (a >65535-dimensional point, an oversized tenant name or
    /// capacity vector) — the frame is refused outright instead of
    /// carrying silently truncated lengths.
    pub fn encode(&self) -> Result<Vec<u8>, ProtocolError> {
        let mut out = Vec::with_capacity(64);
        match self {
            Request::Create { tenant, config } => {
                out.push(OP_CREATE);
                put_str16(&mut out, tenant)?;
                config.encode(&mut out)?;
            }
            Request::Insert { tenant, point } => {
                out.push(OP_INSERT);
                put_str16(&mut out, tenant)?;
                put_point(&mut out, point)?;
            }
            Request::InsertBatch { tenant, points } => {
                out.push(OP_INSERT_BATCH);
                put_str16(&mut out, tenant)?;
                check_len("batch size", points.len(), u32::MAX as usize)?;
                put_u32(&mut out, points.len() as u32);
                for p in points {
                    put_point(&mut out, p)?;
                }
            }
            Request::Query { tenant } => {
                out.push(OP_QUERY);
                put_str16(&mut out, tenant)?;
            }
            Request::Stats { tenant } => {
                out.push(OP_STATS);
                put_str16(&mut out, tenant)?;
            }
            Request::Checkpoint { tenant } => {
                out.push(OP_CHECKPOINT);
                put_str16(&mut out, tenant)?;
            }
            Request::Delete { tenant } => {
                out.push(OP_DELETE);
                put_str16(&mut out, tenant)?;
            }
            Request::Shutdown => {
                out.push(OP_SHUTDOWN);
                put_str16(&mut out, "")?;
            }
            Request::WalSubscribe => {
                out.push(OP_WAL_SUBSCRIBE);
                put_str16(&mut out, "")?;
            }
            Request::Promote => {
                out.push(OP_PROMOTE);
                put_str16(&mut out, "")?;
            }
        }
        Ok(out)
    }

    /// Decodes one frame body (the whole body must be consumed).
    pub fn decode(body: &[u8]) -> Result<Self, WireError> {
        let mut input = body;
        let op = take_u8(&mut input)?;
        let tenant = take_str16(&mut input)?;
        let req = match op {
            OP_CREATE => Request::Create {
                tenant,
                config: TenantConfig::decode(&mut input)?,
            },
            OP_INSERT => Request::Insert {
                tenant,
                point: take_point(&mut input)?,
            },
            OP_INSERT_BATCH => {
                // A point is at least color + dim = 6 bytes.
                let n = take_count32(&mut input, 6)?;
                let mut points = Vec::with_capacity(n);
                for _ in 0..n {
                    points.push(take_point(&mut input)?);
                }
                Request::InsertBatch { tenant, points }
            }
            OP_QUERY => Request::Query { tenant },
            OP_STATS => Request::Stats { tenant },
            OP_CHECKPOINT => Request::Checkpoint { tenant },
            OP_DELETE => Request::Delete { tenant },
            OP_SHUTDOWN => Request::Shutdown,
            OP_WAL_SUBSCRIBE => Request::WalSubscribe,
            OP_PROMOTE => Request::Promote,
            other => return Err(WireError::Invalid(format!("unknown opcode {other}"))),
        };
        if !input.is_empty() {
            return Err(WireError::Invalid(format!(
                "{} trailing bytes",
                input.len()
            )));
        }
        Ok(req)
    }
}

// ---- replies -----------------------------------------------------------

/// Error codes a reply can carry (the non-zero status bytes).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrorKind {
    /// The tenant's shard queue is full — retry later (admission
    /// control, not failure).
    Overloaded = 1,
    /// No live tenant under that name.
    NoSuchTenant = 2,
    /// `CREATE` on a name that is already live.
    TenantExists = 3,
    /// Malformed request or invalid configuration.
    BadRequest = 4,
    /// The engine's query failed (message carries the engine error).
    QueryFailed = 5,
    /// The operation is not supported for this tenant's variant
    /// (e.g. `CHECKPOINT` of a non-fixed engine) or server config.
    Unsupported = 6,
    /// The server is shutting down.
    ShuttingDown = 7,
    /// The server is a not-yet-promoted follower: writes are rejected
    /// until `PROMOTE` (reads are served from the replicated state).
    ReadOnly = 8,
}

impl ErrorKind {
    fn from_code(code: u8) -> Option<Self> {
        Some(match code {
            1 => ErrorKind::Overloaded,
            2 => ErrorKind::NoSuchTenant,
            3 => ErrorKind::TenantExists,
            4 => ErrorKind::BadRequest,
            5 => ErrorKind::QueryFailed,
            6 => ErrorKind::Unsupported,
            7 => ErrorKind::ShuttingDown,
            8 => ErrorKind::ReadOnly,
            _ => return None,
        })
    }
}

/// A solution as it travels on the wire. Field-for-field the engine's
/// [`Solution`] over [`EuclidPoint`]; `f64`s are raw IEEE bits, so
/// equality of two `WireSolution`s (or of their encodings) is the
/// bit-identity the differential suite demands.
#[derive(Clone, Debug, PartialEq)]
pub struct WireSolution {
    /// The selected centers.
    pub centers: Vec<Colored<EuclidPoint>>,
    /// The winning guess `γ̂`.
    pub guess: f64,
    /// Size of the coreset handed to the solver.
    pub coreset_size: usize,
    /// Solver-reported radius over the coreset.
    pub coreset_radius: f64,
    /// Variant-specific extras.
    pub extras: WireExtras,
}

/// Wire shape of [`SolutionExtras`].
#[derive(Clone, Debug, PartialEq, Default)]
pub enum WireExtras {
    /// No extras (fixed-lattice variants).
    #[default]
    None,
    /// The robust variant's priced-out outliers.
    Robust {
        /// Coreset points the solver priced out.
        outliers: Vec<Colored<EuclidPoint>>,
    },
    /// The oblivious variant's provenance.
    Oblivious {
        /// Whether the winning guess had processed the whole window.
        mature: bool,
        /// Whether the answer fell back to the newest point.
        fallback: bool,
        /// Materialized guess range at query time.
        guess_range: Option<(f64, f64)>,
    },
}

impl WireSolution {
    /// Converts an engine solution into its wire shape.
    pub fn from_solution(sol: &Solution<EuclidPoint>) -> Self {
        WireSolution {
            centers: sol.centers.clone(),
            guess: sol.guess,
            coreset_size: sol.coreset_size,
            coreset_radius: sol.coreset_radius,
            extras: match &sol.extras {
                SolutionExtras::None => WireExtras::None,
                SolutionExtras::Robust { outliers } => WireExtras::Robust {
                    outliers: outliers.clone(),
                },
                SolutionExtras::Oblivious {
                    mature,
                    fallback,
                    guess_range,
                } => WireExtras::Oblivious {
                    mature: *mature,
                    fallback: *fallback,
                    guess_range: *guess_range,
                },
            },
        }
    }

    fn encode(&self, out: &mut Vec<u8>) -> Result<(), ProtocolError> {
        put_f64(out, self.guess);
        put_u64(out, self.coreset_size as u64);
        put_f64(out, self.coreset_radius);
        check_len("center count", self.centers.len(), u32::MAX as usize)?;
        put_u32(out, self.centers.len() as u32);
        for c in &self.centers {
            put_point(out, c)?;
        }
        match &self.extras {
            WireExtras::None => out.push(0),
            WireExtras::Robust { outliers } => {
                out.push(1);
                check_len("outlier count", outliers.len(), u32::MAX as usize)?;
                put_u32(out, outliers.len() as u32);
                for p in outliers {
                    put_point(out, p)?;
                }
            }
            WireExtras::Oblivious {
                mature,
                fallback,
                guess_range,
            } => {
                out.push(2);
                out.push(*mature as u8);
                out.push(*fallback as u8);
                match guess_range {
                    None => out.push(0),
                    Some((lo, hi)) => {
                        out.push(1);
                        put_f64(out, *lo);
                        put_f64(out, *hi);
                    }
                }
            }
        }
        Ok(())
    }

    fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
        let guess = take_f64(input)?;
        let coreset_size = take_u64(input)? as usize;
        let coreset_radius = take_f64(input)?;
        let n = take_count32(input, 6)?;
        let mut centers = Vec::with_capacity(n);
        for _ in 0..n {
            centers.push(take_point(input)?);
        }
        let extras = match take_u8(input)? {
            0 => WireExtras::None,
            1 => {
                let n = take_count32(input, 6)?;
                let mut outliers = Vec::with_capacity(n);
                for _ in 0..n {
                    outliers.push(take_point(input)?);
                }
                WireExtras::Robust { outliers }
            }
            2 => {
                let mature = take_u8(input)? != 0;
                let fallback = take_u8(input)? != 0;
                let guess_range = match take_u8(input)? {
                    0 => None,
                    1 => Some((take_f64(input)?, take_f64(input)?)),
                    other => return Err(WireError::Invalid(format!("bad range tag {other}"))),
                };
                WireExtras::Oblivious {
                    mature,
                    fallback,
                    guess_range,
                }
            }
            other => return Err(WireError::Invalid(format!("unknown extras tag {other}"))),
        };
        Ok(WireSolution {
            centers,
            guess,
            coreset_size,
            coreset_radius,
            extras,
        })
    }
}

/// Per-tenant statistics reported by `STATS`. The engine-state fields
/// are deterministic (the differential suite compares them bit-for-bit
/// against an oracle engine); the service-side fields
/// ([`points_per_sec`](Self::points_per_sec) and the latency
/// percentiles) are wall-clock measurements.
#[derive(Clone, Debug, PartialEq)]
pub struct WireStats {
    /// Arrival counter (applied points, buffer excluded).
    pub time: u64,
    /// Window length `n`.
    pub window: u64,
    /// Stored handle entries (the paper's memory metric).
    pub stored_points: u64,
    /// Distinct live payloads in the interned arena.
    pub unique_points: u64,
    /// Heap bytes of those payloads.
    pub payload_bytes: u64,
    /// Total resident bytes (handles + payloads).
    pub resident_bytes: u64,
    /// Materialized guesses.
    pub num_guesses: u64,
    /// The tenant's variant code ([`WireVariant::code`]).
    pub variant: u8,
    /// Points accepted into the buffer since the tenant was created.
    pub points_total: u64,
    /// Points currently buffered (acked, not yet applied).
    pub buffered: u64,
    /// Ingest throughput since creation (wall clock).
    pub points_per_sec: f64,
    /// Query-latency percentiles over the recent-query window, in
    /// microseconds (0 before the first query).
    pub query_p50_us: f64,
    /// 90th percentile.
    pub query_p90_us: f64,
    /// 99th percentile.
    pub query_p99_us: f64,
    /// Live bytes across the tenant's WAL segments (0 without a WAL).
    pub wal_bytes: u64,
    /// Live WAL segment files (0 without a WAL).
    pub wal_segments: u64,
    /// Bytes appended since the last group-commit fsync — the window a
    /// power loss could take (a plain `kill -9` loses nothing that
    /// reached the page cache).
    pub wal_unsynced_bytes: u64,
    /// Time since the last fsync of this tenant's WAL, in microseconds
    /// (0 when nothing is unsynced).
    pub wal_fsync_lag_us: f64,
    /// Live replication subscribers on this tenant's shard.
    pub followers: u64,
    /// Largest replication backlog (queued frames) across those
    /// subscribers — follower lag in records.
    pub repl_lag: u64,
    /// Server-wide `QUERY` replies answered from the result cache
    /// (repeat queries at an unchanged tenant version never reach the
    /// shard's engine thread).
    pub query_cache_hits: u64,
    /// Server-wide `QUERY` replies that missed the result cache and
    /// were computed by the shard's engine.
    pub query_cache_misses: u64,
    /// Connections currently registered with the reactor (subscription
    /// streams handed off to their own thread are not counted).
    pub conns_open: u64,
    /// Connections accepted since the server started.
    pub conns_accepted: u64,
    /// Connections reaped by the idle/header-read timeouts (the
    /// slowloris guard; see [`crate::net`]).
    pub conns_reaped: u64,
    /// Input dimensionality of the tenant's JL ingest projection (0
    /// when the tenant does not project, or before its first point).
    pub proj_in_dim: u64,
    /// Projected dimensionality (0 when the tenant does not project).
    pub proj_out_dim: u64,
    /// Mean projection cost per accepted point, in nanoseconds (0 when
    /// the tenant does not project).
    pub proj_ns_per_point: f64,
}

impl WireStats {
    /// Blanks the wall-clock and durability-bookkeeping fields, leaving
    /// the deterministic engine-state part (what differential tests
    /// compare). The WAL fields depend on record framing and fsync
    /// timing, so they are service-side observability, not oracle state.
    pub fn deterministic(mut self) -> Self {
        self.points_per_sec = 0.0;
        self.query_p50_us = 0.0;
        self.query_p90_us = 0.0;
        self.query_p99_us = 0.0;
        self.wal_bytes = 0;
        self.wal_segments = 0;
        self.wal_unsynced_bytes = 0;
        self.wal_fsync_lag_us = 0.0;
        self.followers = 0;
        self.repl_lag = 0;
        self.query_cache_hits = 0;
        self.query_cache_misses = 0;
        self.conns_open = 0;
        self.conns_accepted = 0;
        self.conns_reaped = 0;
        // The projection dims are engine state; only the timing is
        // wall-clock.
        self.proj_ns_per_point = 0.0;
        self
    }

    fn encode(&self, out: &mut Vec<u8>) {
        for v in [
            self.time,
            self.window,
            self.stored_points,
            self.unique_points,
            self.payload_bytes,
            self.resident_bytes,
            self.num_guesses,
        ] {
            put_u64(out, v);
        }
        out.push(self.variant);
        put_u64(out, self.points_total);
        put_u64(out, self.buffered);
        for v in [
            self.points_per_sec,
            self.query_p50_us,
            self.query_p90_us,
            self.query_p99_us,
        ] {
            put_f64(out, v);
        }
        for v in [self.wal_bytes, self.wal_segments, self.wal_unsynced_bytes] {
            put_u64(out, v);
        }
        put_f64(out, self.wal_fsync_lag_us);
        put_u64(out, self.followers);
        put_u64(out, self.repl_lag);
        put_u64(out, self.query_cache_hits);
        put_u64(out, self.query_cache_misses);
        put_u64(out, self.conns_open);
        put_u64(out, self.conns_accepted);
        put_u64(out, self.conns_reaped);
        put_u64(out, self.proj_in_dim);
        put_u64(out, self.proj_out_dim);
        put_f64(out, self.proj_ns_per_point);
    }

    fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
        Ok(WireStats {
            time: take_u64(input)?,
            window: take_u64(input)?,
            stored_points: take_u64(input)?,
            unique_points: take_u64(input)?,
            payload_bytes: take_u64(input)?,
            resident_bytes: take_u64(input)?,
            num_guesses: take_u64(input)?,
            variant: take_u8(input)?,
            points_total: take_u64(input)?,
            buffered: take_u64(input)?,
            points_per_sec: take_f64(input)?,
            query_p50_us: take_f64(input)?,
            query_p90_us: take_f64(input)?,
            query_p99_us: take_f64(input)?,
            wal_bytes: take_u64(input)?,
            wal_segments: take_u64(input)?,
            wal_unsynced_bytes: take_u64(input)?,
            wal_fsync_lag_us: take_f64(input)?,
            followers: take_u64(input)?,
            repl_lag: take_u64(input)?,
            query_cache_hits: take_u64(input)?,
            query_cache_misses: take_u64(input)?,
            conns_open: take_u64(input)?,
            conns_accepted: take_u64(input)?,
            conns_reaped: take_u64(input)?,
            proj_in_dim: take_u64(input)?,
            proj_out_dim: take_u64(input)?,
            proj_ns_per_point: take_f64(input)?,
        })
    }
}

/// One reply frame.
#[derive(Clone, Debug, PartialEq)]
pub enum Reply {
    /// Bare acknowledgement (`CREATE`, inserts, `DELETE`, `SHUTDOWN`).
    Ok,
    /// `QUERY` succeeded.
    Solution(WireSolution),
    /// `STATS` succeeded.
    Stats(WireStats),
    /// `CHECKPOINT` succeeded: snapshots written / tenants skipped
    /// (variants without snapshot support).
    Checkpointed {
        /// Snapshots written to the spool.
        written: u32,
        /// Tenants skipped (no snapshot support).
        skipped: u32,
    },
    /// A `WAL_APPEND` replication frame, pushed (never solicited
    /// per-request) on a connection converted by `WAL_SUBSCRIBE`.
    Wal {
        /// The tenant the record belongs to.
        tenant: String,
        /// The replicated log record.
        record: crate::wal::WalRecord,
    },
    /// The request failed.
    Error(ErrorKind, String),
}

const REPLY_ACK: u8 = 0;
const REPLY_SOLUTION: u8 = 1;
const REPLY_STATS: u8 = 2;
const REPLY_CHECKPOINTED: u8 = 3;
const REPLY_WAL: u8 = 4;

impl Reply {
    /// Encodes a `WAL_APPEND` frame body from an already-encoded record
    /// body — the shard-side hot path pushes replication frames without
    /// materializing an owned [`WalRecord`](crate::wal::WalRecord).
    pub(crate) fn wal_frame_bytes(tenant: &str, record_body: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(4 + tenant.len() + record_body.len());
        out.push(0);
        out.push(REPLY_WAL);
        // Tenant names passed `valid_tenant_name` (≤ 64 bytes) before any
        // record could be logged under them, so this cannot overflow.
        put_str16(&mut out, tenant).expect("validated tenant name fits str16");
        out.extend_from_slice(record_body);
        out
    }

    /// Builds the reply for an engine query outcome.
    pub fn from_query(result: &Result<Solution<EuclidPoint>, QueryError>) -> Self {
        match result {
            Ok(sol) => Reply::Solution(WireSolution::from_solution(sol)),
            Err(e) => Reply::Error(ErrorKind::QueryFailed, e.to_string()),
        }
    }

    /// Encodes the reply as one frame body. Fails with
    /// [`ProtocolError::TooLarge`] when a value does not fit its wire
    /// field. [`Reply::Error`] always encodes (its message is truncated
    /// to fit), so a failed encode can always be *reported* on the wire.
    pub fn encode(&self) -> Result<Vec<u8>, ProtocolError> {
        let mut out = Vec::with_capacity(32);
        match self {
            Reply::Ok => {
                out.push(0);
                out.push(REPLY_ACK);
            }
            Reply::Solution(sol) => {
                out.push(0);
                out.push(REPLY_SOLUTION);
                sol.encode(&mut out)?;
            }
            Reply::Stats(stats) => {
                out.push(0);
                out.push(REPLY_STATS);
                stats.encode(&mut out);
            }
            Reply::Checkpointed { written, skipped } => {
                out.push(0);
                out.push(REPLY_CHECKPOINTED);
                put_u32(&mut out, *written);
                put_u32(&mut out, *skipped);
            }
            Reply::Wal { tenant, record } => {
                check_len("tenant name", tenant.len(), u16::MAX as usize)?;
                let mut body = Vec::new();
                record.encode(&mut body)?;
                return Ok(Reply::wal_frame_bytes(tenant, &body));
            }
            Reply::Error(kind, msg) => {
                out.push(*kind as u8);
                // str16 caps the message at 64 KiB; back the cut off to
                // a char boundary (byte-index slicing panics mid-char).
                let mut cut = msg.len().min(u16::MAX as usize);
                while !msg.is_char_boundary(cut) {
                    cut -= 1;
                }
                put_str16(&mut out, &msg[..cut]).expect("truncated message fits str16");
            }
        }
        Ok(out)
    }

    /// Decodes one frame body (the whole body must be consumed).
    pub fn decode(body: &[u8]) -> Result<Self, WireError> {
        let mut input = body;
        let status = take_u8(&mut input)?;
        let reply = if status == 0 {
            match take_u8(&mut input)? {
                REPLY_ACK => Reply::Ok,
                REPLY_SOLUTION => Reply::Solution(WireSolution::decode(&mut input)?),
                REPLY_STATS => Reply::Stats(WireStats::decode(&mut input)?),
                REPLY_CHECKPOINTED => Reply::Checkpointed {
                    written: take_u32(&mut input)?,
                    skipped: take_u32(&mut input)?,
                },
                REPLY_WAL => Reply::Wal {
                    tenant: take_str16(&mut input)?,
                    record: crate::wal::WalRecord::decode(&mut input)?,
                },
                other => return Err(WireError::Invalid(format!("unknown reply tag {other}"))),
            }
        } else {
            let kind = ErrorKind::from_code(status)
                .ok_or_else(|| WireError::Invalid(format!("unknown status {status}")))?;
            Reply::Error(kind, take_str16(&mut input)?)
        };
        if !input.is_empty() {
            return Err(WireError::Invalid(format!(
                "{} trailing bytes",
                input.len()
            )));
        }
        Ok(reply)
    }
}

/// Whether `name` is acceptable as a tenant name (non-empty, at most
/// [`MAX_TENANT_LEN`] bytes, `[A-Za-z0-9._-]` only — it doubles as the
/// spool-file stem).
pub fn valid_tenant_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= MAX_TENANT_LEN
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'-' || b == b'.')
        && !name.starts_with('.')
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pt(x: f64, c: u32) -> Colored<EuclidPoint> {
        Colored::new(EuclidPoint::new(vec![x, -x]), c)
    }

    #[test]
    fn request_roundtrip() {
        let reqs = vec![
            Request::Create {
                tenant: "t0".into(),
                config: TenantConfig::new(
                    100,
                    vec![2, 1],
                    WireVariant::Robust {
                        z: 3,
                        dmin: 0.5,
                        dmax: 1e3,
                    },
                ),
            },
            Request::Insert {
                tenant: "a-b.c_9".into(),
                point: pt(1.25, 7),
            },
            Request::InsertBatch {
                tenant: "t".into(),
                points: vec![pt(1.0, 0), pt(-2.5, 1)],
            },
            Request::Query { tenant: "t".into() },
            Request::Stats { tenant: "t".into() },
            Request::Checkpoint { tenant: "".into() },
            Request::Delete { tenant: "t".into() },
            Request::Shutdown,
            Request::WalSubscribe,
            Request::Promote,
        ];
        for req in reqs {
            let body = req.encode().unwrap();
            assert_eq!(Request::decode(&body).unwrap(), req, "roundtrip {req:?}");
        }
    }

    #[test]
    fn reply_roundtrip() {
        let replies = vec![
            Reply::Ok,
            Reply::Solution(WireSolution {
                centers: vec![pt(0.5, 0), pt(100.0, 1)],
                guess: 2.0_f64.powi(7),
                coreset_size: 42,
                coreset_radius: 1.5,
                extras: WireExtras::Oblivious {
                    mature: true,
                    fallback: false,
                    guess_range: Some((0.25, 64.0)),
                },
            }),
            Reply::Solution(WireSolution {
                centers: vec![pt(1.0, 2)],
                guess: 1.0,
                coreset_size: 3,
                coreset_radius: 0.0,
                extras: WireExtras::Robust {
                    outliers: vec![pt(9e9, 0)],
                },
            }),
            Reply::Stats(WireStats {
                time: 10,
                window: 5,
                stored_points: 40,
                unique_points: 9,
                payload_bytes: 144,
                resident_bytes: 464,
                num_guesses: 12,
                variant: 3,
                points_total: 11,
                buffered: 1,
                points_per_sec: 123.5,
                query_p50_us: 10.0,
                query_p90_us: 20.0,
                query_p99_us: 30.0,
                wal_bytes: 4096,
                wal_segments: 2,
                wal_unsynced_bytes: 128,
                wal_fsync_lag_us: 1500.0,
                followers: 1,
                repl_lag: 7,
                query_cache_hits: 21,
                query_cache_misses: 4,
                conns_open: 3,
                conns_accepted: 900,
                conns_reaped: 12,
                proj_in_dim: 768,
                proj_out_dim: 64,
                proj_ns_per_point: 412.5,
            }),
            Reply::Checkpointed {
                written: 3,
                skipped: 1,
            },
            Reply::Wal {
                tenant: "repl".into(),
                record: crate::wal::WalRecord::Batch {
                    start: 42,
                    points: vec![pt(1.0, 0), pt(-2.5, 1)],
                },
            },
            Reply::Wal {
                tenant: "repl".into(),
                record: crate::wal::WalRecord::Create(TenantConfig::new(
                    10,
                    vec![1, 1],
                    WireVariant::Oblivious,
                )),
            },
            Reply::Error(ErrorKind::ReadOnly, "follower is read-only".into()),
        ];
        for reply in replies {
            let body = reply.encode().unwrap();
            assert_eq!(Reply::decode(&body).unwrap(), reply, "roundtrip {reply:?}");
        }
    }

    #[test]
    fn decoders_reject_garbage_without_panicking() {
        for body in [&b""[..], &b"\xff"[..], &b"\x01\x00"[..], &[11, 0, 0][..]] {
            assert!(Request::decode(body).is_err());
            assert!(Reply::decode(body).is_err());
        }
        // Truncations of a valid body always err.
        let body = Request::InsertBatch {
            tenant: "t".into(),
            points: vec![pt(1.0, 0); 10],
        }
        .encode()
        .unwrap();
        for cut in 0..body.len() {
            assert!(Request::decode(&body[..cut]).is_err(), "cut at {cut}");
        }
        // A huge batch count against a short body is refused before any
        // allocation is sized by it.
        let mut evil = Vec::new();
        evil.push(3u8); // INSERT_BATCH
        put_str16(&mut evil, "t").unwrap();
        put_u32(&mut evil, u32::MAX);
        assert_eq!(Request::decode(&evil), Err(WireError::Truncated));
    }

    #[test]
    fn oversized_values_are_hard_encode_errors() {
        // A 70k-dimensional point cannot travel in a u16 dim field: the
        // encoder refuses outright instead of emitting a frame whose
        // truncated length misparses the coordinate payload.
        let big = Colored::new(EuclidPoint::new(vec![0.0; 70_000]), 0);
        let err = Request::Insert {
            tenant: "t".into(),
            point: big.clone(),
        }
        .encode()
        .unwrap_err();
        assert_eq!(
            err,
            ProtocolError::TooLarge {
                what: "point dimension",
                len: 70_000,
                max: u16::MAX as usize,
            }
        );
        // The same point inside a batch, and inside a solution reply.
        assert!(Request::InsertBatch {
            tenant: "t".into(),
            points: vec![big.clone()],
        }
        .encode()
        .is_err());
        assert!(Reply::Solution(WireSolution {
            centers: vec![big],
            guess: 1.0,
            coreset_size: 1,
            coreset_radius: 0.0,
            extras: WireExtras::None,
        })
        .encode()
        .is_err());
        // An oversized capacity vector overflows its u16 count field.
        let caps = vec![1usize; u16::MAX as usize + 1];
        assert!(matches!(
            Request::Create {
                tenant: "t".into(),
                config: TenantConfig::new(10, caps, WireVariant::Oblivious),
            }
            .encode(),
            Err(ProtocolError::TooLarge {
                what: "capacity count",
                ..
            })
        ));
        // An oversized tenant name overflows str16.
        assert!(Request::Query {
            tenant: "x".repeat(u16::MAX as usize + 1),
        }
        .encode()
        .is_err());
        // write_frame refuses an over-cap body before any bytes move.
        let mut sink = Vec::new();
        assert!(write_frame(&mut sink, &vec![0u8; MAX_FRAME + 1]).is_err());
        assert!(sink.is_empty(), "no partial frame reaches the wire");
    }

    #[test]
    fn frame_io_roundtrip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut r = buf.as_slice();
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"hello");
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"");
        assert!(read_frame(&mut r).unwrap().is_none());
        // Oversized length prefix is refused.
        let mut evil = ((MAX_FRAME + 1) as u32).to_le_bytes().to_vec();
        evil.extend_from_slice(&[0; 8]);
        assert!(read_frame(&mut evil.as_slice()).is_err());
    }

    #[test]
    fn tenant_name_validation() {
        assert!(valid_tenant_name("tenant-1"));
        assert!(valid_tenant_name("a.b_c"));
        assert!(!valid_tenant_name(""));
        assert!(!valid_tenant_name(".hidden"));
        assert!(!valid_tenant_name("a/b"));
        assert!(!valid_tenant_name("über"));
        assert!(!valid_tenant_name(&"x".repeat(MAX_TENANT_LEN + 1)));
    }

    #[test]
    fn config_builds_every_variant() {
        for variant in [
            WireVariant::Fixed {
                dmin: 0.1,
                dmax: 100.0,
            },
            WireVariant::Oblivious,
            WireVariant::Compact {
                dmin: 0.1,
                dmax: 100.0,
            },
            WireVariant::Robust {
                z: 1,
                dmin: 0.1,
                dmax: 100.0,
            },
            WireVariant::Matroid {
                dmin: 0.1,
                dmax: 100.0,
            },
        ] {
            let code = variant.code();
            let engine = TenantConfig::new(10, vec![1, 1], variant)
                .build_engine()
                .expect("valid config");
            assert_eq!(
                ["fixed", "oblivious", "compact", "robust", "matroid"][code as usize],
                engine.variant_name()
            );
        }
        // Bad configs surface as errors, not panics.
        assert!(TenantConfig::new(
            0,
            vec![1],
            WireVariant::Fixed {
                dmin: 1.0,
                dmax: 2.0
            }
        )
        .build_engine()
        .is_err());
    }
}

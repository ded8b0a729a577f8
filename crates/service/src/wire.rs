//! The binary wire format of the daemon: length-prefixed, versioned
//! frames carrying the [`Request`]/[`Response`]/[`ServiceError`]
//! alphabet of [`protocol`](crate::protocol), canonically encoded by
//! the repository's one codec, [`adminref_store::codec`].
//!
//! The normative description lives in `specs/wire_protocol.md` at the
//! repository root; this module is its executable counterpart, and a
//! golden-bytes fixture test (`tests/wire_codec.rs`) pins the two
//! together so they cannot drift. The essentials:
//!
//! * **Frame** = 20-byte header + payload. Header: magic `"ARFW"`,
//!   version byte ([`WIRE_VERSION`]), kind byte ([`FrameKind`]), two
//!   reserved zero bytes, payload length (`u32` LE, capped at
//!   [`MAX_PAYLOAD`]), request id (`u64` LE, echoed verbatim in the
//!   reply so pipelined callers can match out-of-order responses).
//! * **Payload** = a varint variant tag followed by the variant's
//!   fields. A message's layout lives in one place: its `tag => Variant
//!   { fields }` row in the `Request`, `Response` or `ServiceError`
//!   table in this file, which reads like the row of the same tag in the
//!   spec. Encoder and decoder both come from that row; each field is
//!   written by its type's one [`Wire`] layout — a primitive, the one
//!   option rule, the one list rule with its allocation bound, or a
//!   struct's own row, all of which (with the rows of every
//!   `adminref_core` type, which the WAL and the snapshot share) live in
//!   [`adminref_store::codec`].
//! * **Errors are typed, never panics.** Every malformed input —
//!   truncated frame, bad magic, future version, unknown tag, trailing
//!   bytes, out-of-range id — decodes to a [`WireError`] variant; the
//!   daemon answers with an error frame or drops the connection, and a
//!   fuzzing client cannot take the server down.
//!
//! A new message needs three things: a row in its table here, the row
//! of the same tag in the spec's table, and a line in
//! `fixtures/wire_golden.hex` (with a sample in `tests/wire_codec.rs`
//! to print it from). The tests fail until all three agree. Existing
//! rows do not move: a changed row is a [`WIRE_VERSION`] bump.
//!
//! Ids on the wire are raw interning indices, valid only against the
//! serving store's universe: client and server must be built from the
//! same policy source (deterministic interning makes ids reproducible).
//! [`validate_request`] is the server-side boundary check that rejects
//! out-of-range ids before they can reach index-based analysis code.
//!
//! ## Example
//!
//! A request crosses a byte stream and comes back out typed:
//!
//! ```
//! use adminref_core::prelude::*;
//! use adminref_service::wire::{self, FrameKind};
//! use adminref_service::Request;
//!
//! let (uni, _policy) = PolicyBuilder::new()
//!     .assign("diana", "nurse")
//!     .permit("nurse", "read", "t1")
//!     .finish();
//! let mut probe = uni.clone();
//! let perm = probe.perm("read", "t1");
//! let request = Request::AnalyzeReach {
//!     entity: Entity::User(uni.find_user("diana").unwrap()),
//!     perm,
//!     config: SafetyConfig::default(),
//! };
//!
//! // Client side: payload + frame onto any `Write`.
//! let mut stream = Vec::new();
//! wire::write_frame(&mut stream, FrameKind::Request, 7, &wire::encode_request(&request))
//!     .unwrap();
//!
//! // Server side: frame off any `Read`, decode against the universe.
//! let frame = wire::read_frame(&mut stream.as_slice()).unwrap().expect("one frame");
//! assert_eq!((frame.kind, frame.request_id), (FrameKind::Request, 7));
//! let decoded = wire::decode_request(&frame.payload, &uni).unwrap();
//! wire::validate_request(&decoded, &uni).unwrap();
//! assert!(matches!(decoded, Request::AnalyzeReach { .. }));
//! ```

use std::io::{self, Read, Write};

use adminref_core::ids::{Entity, RoleId};
use adminref_core::reach::EdgeDelta;
use adminref_core::universe::{OutOfRange, Universe};
use adminref_store::codec::{self, encode, CodecError, EdgeSets, Wire};
use adminref_store::record::{read_exact_or_eof, read_payload, Fill};
use adminref_store::{wire_enum, wire_struct};
use bytes::{Buf, BufMut};

use crate::protocol::{
    RefinementDirection, RefinementReply, ReplicationRole, ReplicationStatus, Request, Response,
    ServiceError, ServiceStats, VersionInfo,
};

/// The four magic bytes opening every frame.
pub const WIRE_MAGIC: [u8; 4] = *b"ARFW";

/// The wire protocol version this build speaks. Bump on any change to
/// the frame layout or a variant encoding; `specs/wire_protocol.md`
/// must name the same number (`tests/wire_codec.rs` checks it).
///
/// Version history: 1 = the original request/response protocol; 2 =
/// replication (the `Version` response gained the state checksum,
/// `Stats` gained checksum + replication status, and the
/// `ReplSubscribe`/`ReplSnapshot`/`ReplDelta` frame kinds were added);
/// 3 = admission control (request tags 15 `Analyze` / 16
/// `SetConstraints` / 17 `GetConstraints`, response tags 14 `Impact` /
/// 15 `Constraints`, error tag 11 `Admission`, lint findings gained the
/// confirmation option and the `frozen-edge-violation` kind, and the
/// `ReplSnapshot` state blob carries the constraint set).
pub const WIRE_VERSION: u8 = 3;

/// Fixed frame header size in bytes.
pub const HEADER_LEN: usize = 20;

/// Maximum payload a peer may send (16 MiB). A header announcing more
/// is rejected before any payload allocation.
pub const MAX_PAYLOAD: u32 = 16 * 1024 * 1024;

// ----- frames ----------------------------------------------------------

/// What a frame carries.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FrameKind {
    /// A [`Request`] payload (client → server).
    Request,
    /// A [`Response`] payload (server → client, success).
    Response,
    /// A [`ServiceError`] payload (server → client, failure).
    Error,
    /// A replication subscription (replica → primary): term + the last
    /// epoch the replica applied, if any. Answered by a `ReplSnapshot`
    /// (when the replica needs a bootstrap) and then a `ReplDelta`
    /// stream.
    ReplSubscribe,
    /// A replication bootstrap (primary → replica): term + epoch + the
    /// full CRC-framed `(universe, policy, constraints)` state at that
    /// epoch.
    ReplSnapshot,
    /// One replicated epoch (primary → replica): term + epoch + the
    /// batch's edge deltas + the post-apply state checksum.
    ReplDelta,
}

impl FrameKind {
    fn to_byte(self) -> u8 {
        match self {
            FrameKind::Request => 1,
            FrameKind::Response => 2,
            FrameKind::Error => 3,
            FrameKind::ReplSubscribe => 4,
            FrameKind::ReplSnapshot => 5,
            FrameKind::ReplDelta => 6,
        }
    }

    fn from_byte(b: u8) -> Result<Self, WireError> {
        match b {
            1 => Ok(FrameKind::Request),
            2 => Ok(FrameKind::Response),
            3 => Ok(FrameKind::Error),
            4 => Ok(FrameKind::ReplSubscribe),
            5 => Ok(FrameKind::ReplSnapshot),
            6 => Ok(FrameKind::ReplDelta),
            other => Err(WireError::BadFrameKind(other)),
        }
    }
}

/// A parsed frame header.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct FrameHeader {
    /// What the payload decodes as.
    pub kind: FrameKind,
    /// Payload length in bytes (already validated `<=` [`MAX_PAYLOAD`]).
    pub payload_len: u32,
    /// Caller-chosen correlation id, echoed in the reply.
    pub request_id: u64,
}

impl FrameHeader {
    /// Serializes the header into its fixed 20-byte layout.
    pub fn encode(&self) -> [u8; HEADER_LEN] {
        let mut h = [0u8; HEADER_LEN];
        h[0..4].copy_from_slice(&WIRE_MAGIC);
        h[4] = WIRE_VERSION;
        h[5] = self.kind.to_byte();
        // h[6..8] reserved, zero.
        h[8..12].copy_from_slice(&self.payload_len.to_le_bytes());
        h[12..20].copy_from_slice(&self.request_id.to_le_bytes());
        h
    }

    /// Parses and validates a header: magic, version, kind, size cap.
    pub fn parse(bytes: &[u8; HEADER_LEN]) -> Result<FrameHeader, WireError> {
        if bytes[0..4] != WIRE_MAGIC {
            let mut magic = [0u8; 4];
            magic.copy_from_slice(&bytes[0..4]);
            return Err(WireError::BadMagic(magic));
        }
        if bytes[4] != WIRE_VERSION {
            return Err(WireError::UnsupportedVersion {
                got: bytes[4],
                supported: WIRE_VERSION,
            });
        }
        let kind = FrameKind::from_byte(bytes[5])?;
        // bytes[6..8] are reserved: senders write zero, receivers ignore.
        let payload_len = u32::from_le_bytes([bytes[8], bytes[9], bytes[10], bytes[11]]);
        if payload_len > MAX_PAYLOAD {
            return Err(WireError::Oversized {
                len: payload_len,
                max: MAX_PAYLOAD,
            });
        }
        let mut id = [0u8; 8];
        id.copy_from_slice(&bytes[12..20]);
        Ok(FrameHeader {
            kind,
            payload_len,
            request_id: u64::from_le_bytes(id),
        })
    }
}

/// One complete frame, read off a stream.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Frame {
    /// What the payload decodes as.
    pub kind: FrameKind,
    /// The correlation id from the header.
    pub request_id: u64,
    /// The raw payload (decode with [`decode_request`],
    /// [`decode_response`] or [`decode_error`] per `kind`).
    pub payload: Vec<u8>,
}

// ----- errors ----------------------------------------------------------

/// A typed decoding or framing failure. Malformed input always lands
/// here — never in a panic.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum WireError {
    /// The first four bytes were not [`WIRE_MAGIC`].
    BadMagic([u8; 4]),
    /// The peer speaks a version this build does not.
    UnsupportedVersion {
        /// The version byte received.
        got: u8,
        /// The version this build speaks.
        supported: u8,
    },
    /// The header's kind byte named no known frame kind.
    BadFrameKind(u8),
    /// The announced payload length exceeds [`MAX_PAYLOAD`].
    Oversized {
        /// The announced length.
        len: u32,
        /// The cap.
        max: u32,
    },
    /// The stream ended inside a frame (header or payload).
    Truncated,
    /// A payload field failed to decode.
    Codec(CodecError),
    /// A variant tag named no known variant.
    BadTag {
        /// Which tag space (request, response, …).
        what: &'static str,
        /// The offending tag value.
        tag: u64,
    },
    /// The payload decoded cleanly but bytes were left over — the frame
    /// length and the encoding disagree.
    TrailingBytes {
        /// Undecoded bytes remaining.
        extra: usize,
    },
    /// A decoded id does not exist in the serving universe (see
    /// [`validate_request`]).
    IdOutOfRange {
        /// Which id space.
        what: &'static str,
        /// The offending id.
        id: u64,
        /// Number of interned entries in that space.
        max: usize,
    },
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::BadMagic(m) => write!(f, "bad frame magic {m:02x?}"),
            WireError::UnsupportedVersion { got, supported } => {
                write!(
                    f,
                    "unsupported wire version {got} (this build speaks {supported})"
                )
            }
            WireError::BadFrameKind(b) => write!(f, "unknown frame kind {b:#04x}"),
            WireError::Oversized { len, max } => {
                write!(f, "payload of {len} bytes exceeds the {max}-byte cap")
            }
            WireError::Truncated => write!(f, "stream ended mid-frame"),
            WireError::Codec(e) => write!(f, "payload decode failed: {e}"),
            WireError::BadTag { what, tag } => write!(f, "unknown {what} tag {tag}"),
            WireError::TrailingBytes { extra } => {
                write!(f, "{extra} trailing byte(s) after a complete payload")
            }
            WireError::IdOutOfRange { what, id, max } => {
                write!(f, "{what} id {id} out of range (universe has {max})")
            }
        }
    }
}

impl std::error::Error for WireError {}

impl From<CodecError> for WireError {
    fn from(e: CodecError) -> Self {
        match e {
            CodecError::BadTag { what, tag } => WireError::BadTag { what, tag },
            CodecError::TrailingBytes { extra } => WireError::TrailingBytes { extra },
            e => WireError::Codec(e),
        }
    }
}

impl From<OutOfRange> for WireError {
    fn from(e: OutOfRange) -> Self {
        WireError::IdOutOfRange {
            what: e.what,
            id: e.id,
            max: e.max,
        }
    }
}

impl From<WireError> for ServiceError {
    fn from(e: WireError) -> Self {
        ServiceError::Transport {
            message: e.to_string(),
        }
    }
}

/// A framing failure when reading off a stream: either the transport
/// itself failed, or the bytes arrived but were not a valid frame.
#[derive(Debug)]
pub enum FrameError {
    /// The underlying transport failed.
    Io(io::Error),
    /// The bytes were not a valid frame.
    Wire(WireError),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "transport failure: {e}"),
            FrameError::Wire(e) => write!(f, "framing failure: {e}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> Self {
        FrameError::Io(e)
    }
}

impl From<WireError> for FrameError {
    fn from(e: WireError) -> Self {
        FrameError::Wire(e)
    }
}

impl From<FrameError> for ServiceError {
    fn from(e: FrameError) -> Self {
        match e {
            FrameError::Io(io_err) => ServiceError::Transport {
                message: io_err.to_string(),
            },
            FrameError::Wire(w) => w.into(),
        }
    }
}

// ----- stream I/O ------------------------------------------------------

/// Writes one frame: header then payload, no flush (callers batch
/// pipelined writes and flush once).
pub fn write_frame(
    w: &mut impl Write,
    kind: FrameKind,
    request_id: u64,
    payload: &[u8],
) -> io::Result<()> {
    debug_assert!(payload.len() <= MAX_PAYLOAD as usize);
    let header = FrameHeader {
        kind,
        payload_len: payload.len() as u32,
        request_id,
    };
    w.write_all(&header.encode())?;
    w.write_all(payload)
}

/// Reads one frame. `Ok(None)` means the peer closed the stream cleanly
/// at a frame boundary; EOF anywhere inside a frame is
/// [`WireError::Truncated`].
pub fn read_frame(r: &mut impl Read) -> Result<Option<Frame>, FrameError> {
    let mut header = [0u8; HEADER_LEN];
    match read_exact_or_eof(r, &mut header)? {
        Fill::Eof => return Ok(None),
        Fill::Partial => return Err(WireError::Truncated.into()),
        Fill::Full => {}
    }
    let header = FrameHeader::parse(&header)?;
    let payload = read_payload(
        header.payload_len as usize,
        |chunk| match read_exact_or_eof(r, chunk)? {
            Fill::Full => Ok(()),
            Fill::Partial | Fill::Eof => Err(FrameError::Wire(WireError::Truncated)),
        },
    )?;
    Ok(Some(Frame {
        kind: header.kind,
        request_id: header.request_id,
        payload,
    }))
}

// ----- the service's own layouts ------------------------------------------
//
// Rows of `adminref_store::codec`'s tables for the types this crate
// defines; every other type a message mentions has its row there (or,
// for the audit trail, in `adminref_monitor`).

/// Fixed 8-byte little-endian u64 — used for state checksums, which are
/// uniformly distributed and would waste space as varints.
struct Le64(u64);

impl Wire for Le64 {
    fn put(&self, buf: &mut Vec<u8>) {
        buf.put_u64_le(self.0);
    }
    fn take(buf: &mut &[u8]) -> Result<Self, CodecError> {
        if buf.remaining() < 8 {
            return Err(CodecError::UnexpectedEof);
        }
        Ok(Le64(buf.get_u64_le()))
    }
}

wire_enum!(RefinementDirection: u8 as "refinement direction" {
    0 => CandidateRefinesLive,
    1 => LiveRefinesCandidate,
});
wire_enum!(ReplicationRole: u8 as "replication role" {
    0 => Primary,
    1 => Replica,
});
wire_struct! {
    RefinementReply { holds, total_violations, witnesses }
    VersionInfo { epoch, checksum as Le64 }
    ReplicationStatus { role, term, last_applied_epoch, lag }
    ServiceStats {
        epoch, checksum as Le64, users, roles, edges, sessions, audit_retained,
        forced_deactivations, analyses_run, analyses_indefinite, lints_run, lint_findings,
        recovery, replication,
    }
}

/// Runs `take` over a whole frame payload: bytes it leaves unread mean
/// the frame length and the encoding disagree.
fn decode<T>(
    payload: &[u8],
    take: impl FnOnce(&mut &[u8]) -> Result<T, CodecError>,
) -> Result<T, WireError> {
    codec::decode(payload, take).map_err(WireError::from)
}

// ----- request payloads ------------------------------------------------

// `specs/wire_protocol.md` §5, row for row.
wire_enum!(Request: u64 as "request", |buf, universe: &Universe| {
    0 => CheckAccess { session, perm },
    1 => CreateSession { user },
    2 => ActivateRole { session, role },
    3 => DeactivateRole { session, role },
    4 => DropSession { session },
    5 => Submit { commands },
    6 => AnalyzeReach { entity, perm, config },
    // The candidate travels as its edge sets, last, and is bound to the
    // serving universe as it is read: a policy alone is not `Wire`.
    7 => CheckRefinement { candidate, direction, max_witnesses } = {
        put: {
            direction.put(buf);
            max_witnesses.put(buf);
            EdgeSets::of(candidate).put(buf);
        },
        take: Request::CheckRefinement {
            direction: Wire::take(buf)?,
            max_witnesses: Wire::take(buf)?,
            candidate: EdgeSets::take(buf)?.bind(universe)?,
        }
    },
    8 => AuditTail { max },
    9 => AuditSince { after, max },
    10 => Version,
    11 => Stats,
    12 => Compact,
    13 => Lint { sod_pairs },
    14 => Promote,
    15 => Analyze { commands },
    16 => SetConstraints { constraints },
    17 => GetConstraints,
});

/// Encodes a [`Request`] payload (tag + fields; no frame header).
pub fn encode_request(req: &Request) -> Vec<u8> {
    encode(|buf| req.put(buf))
}

/// Decodes a [`Request`] payload. `universe` resolves the candidate
/// policy of a `CheckRefinement` (the one variant whose encoding is
/// universe-relative); pass the serving monitor's universe.
pub fn decode_request(payload: &[u8], universe: &Universe) -> Result<Request, WireError> {
    decode(payload, |buf| Request::take(buf, universe))
}

/// Checks every id a request carries against the serving universe, so
/// out-of-range ids from a hostile or misconfigured client are refused
/// at the boundary instead of reaching index-based analysis code.
///
/// A `CheckRefinement` candidate needs no check here: its edges were
/// bound to this universe as they were decoded (one naming an id the
/// universe lacks is `DanglingId`), and the service's own
/// `ids_in_bounds` check (answering [`ServiceError::ForeignPolicy`])
/// covers callers that never crossed the wire.
pub fn validate_request(req: &Request, universe: &Universe) -> Result<(), WireError> {
    let check_pairs = |pairs: &[(RoleId, RoleId)]| {
        let mut roles = pairs.iter().flat_map(|&(a, b)| [a, b]);
        roles.try_for_each(|role| universe.check_role(role))
    };
    match req {
        Request::CheckAccess { perm, .. } => universe.check_perm(*perm)?,
        Request::CreateSession { user } => universe.check_user(*user)?,
        Request::ActivateRole { role, .. } | Request::DeactivateRole { role, .. } => {
            universe.check_role(*role)?
        }
        Request::DropSession { .. }
        | Request::AuditTail { .. }
        | Request::AuditSince { .. }
        | Request::Version
        | Request::Stats
        | Request::Compact
        | Request::Promote
        | Request::GetConstraints
        | Request::CheckRefinement { .. } => {}
        Request::Submit { commands } | Request::Analyze { commands } => {
            for cmd in commands {
                universe.check_user(cmd.actor)?;
                universe.check_edge(cmd.edge)?;
            }
        }
        Request::SetConstraints { constraints } => {
            check_pairs(&constraints.sod_pairs)?;
            for e in &constraints.frozen_edges {
                universe.check_edge(*e)?;
            }
        }
        Request::AnalyzeReach { entity, perm, .. } => {
            match entity {
                Entity::User(u) => universe.check_user(*u)?,
                Entity::Role(r) => universe.check_role(*r)?,
            }
            universe.check_perm(*perm)?
        }
        Request::Lint { sod_pairs } => check_pairs(sod_pairs)?,
    }
    Ok(())
}

// ----- response payloads -----------------------------------------------

// `specs/wire_protocol.md` §6, row for row.
wire_enum!(Response: u64 as "response", names RESPONSE_NAMES, |buf| {
    0 => Access(granted),
    1 => SessionCreated(id),
    2 => RoleActivated,
    3 => RoleDeactivated(was_active),
    4 => SessionDropped(existed),
    5 => Outcomes(outcomes),
    6 => Reach(answer),
    7 => Refinement(reply),
    8 => Audit(events),
    9 => Version(info),
    10 => Stats(stats),
    11 => Compacted,
    12 => Lint(report),
    13 => Promoted { term, epoch },
    14 => Impact(report),
    15 => Constraints(set),
});

/// Encodes a [`Response`] payload (tag + fields; no frame header).
pub fn encode_response(resp: &Response) -> Vec<u8> {
    encode(|buf| resp.put(buf))
}

/// Decodes a [`Response`] payload. Needs no universe: responses carry
/// only raw ids, never a policy.
pub fn decode_response(payload: &[u8]) -> Result<Response, WireError> {
    decode(payload, Response::take)
}

// ----- error payloads --------------------------------------------------

/// The `expected` strings [`ServiceError::Protocol`] can carry: a
/// response variant's name, or the one count-qualified form. The
/// variant holds a `&'static str`, so decoding matches the received
/// string against this closed set; an unknown string degrades to
/// [`ServiceError::Transport`] rather than failing the decode.
fn protocol_expected(received: &str) -> Option<&'static str> {
    RESPONSE_NAMES
        .iter()
        .chain(&["Outcomes(len 1)"])
        .copied()
        .find(|known| *known == received)
}

// `specs/wire_protocol.md` §7, row for row.
wire_enum!(ServiceError: u64 as "error", |buf| {
    0 => UnknownSession(id),
    1 => Session(activation_denied),
    2 => Backend { applied, error },
    3 => Aborted,
    4 => ForeignPolicy,
    // Nothing raises 5–7 since the tenant router they belonged to was
    // deleted; `fixtures/wire_golden.hex` and the spec pin their rows
    // until the next `WIRE_VERSION` bump retires them.
    5 => InvalidTenant(tenant),
    6 => UnknownTenant(tenant),
    7 => Recovery { tenant, divergent },
    8 => Protocol { expected } = {
        put: expected.to_string().put(buf),
        take: {
            let received = String::take(buf)?;
            match protocol_expected(&received) {
                Some(expected) => ServiceError::Protocol { expected },
                None => ServiceError::Transport {
                    message: format!("protocol violation: expected {received} response"),
                },
            }
        }
    },
    9 => Transport { message },
    10 => ReadOnly,
    11 => Admission(report),
});

/// Encodes a [`ServiceError`] payload (tag + fields; no frame header).
///
/// Two encodings are lossy, by design: a `Backend` store error crosses
/// as its display string (rebuilt as an I/O error on the far side), and
/// a `Protocol` string outside the known set decodes as `Transport`.
pub fn encode_error(err: &ServiceError) -> Vec<u8> {
    encode(|buf| err.put(buf))
}

/// Decodes a [`ServiceError`] payload.
pub fn decode_error(payload: &[u8]) -> Result<ServiceError, WireError> {
    decode(payload, ServiceError::take)
}

// ---------------------------------------------------------------------------
// Replication payloads (frame kinds 4-6)
// ---------------------------------------------------------------------------

/// A decoded [`FrameKind::ReplDelta`] payload: one published epoch's
/// edge changes plus the checksum of the post-apply policy state.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReplDeltaFrame {
    /// The primary's fencing term. Replicas reject frames whose term is
    /// below the highest they have seen, so a deposed primary cannot
    /// roll a follower back after `promote`.
    pub term: u64,
    /// The epoch this delta set publishes. Must be exactly one past the
    /// replica's current epoch or the replica refuses and re-bootstraps.
    pub epoch: u64,
    /// The edge additions/removals of this epoch, in application order.
    pub deltas: Vec<EdgeDelta>,
    /// [`adminref_core::checksum`] digest of the full policy state
    /// *after* applying `deltas`; a mismatch on the replica is
    /// divergence and triggers re-bootstrap.
    pub checksum: u64,
}

wire_struct! {
    ReplDeltaFrame { term, epoch, deltas, checksum as Le64 }
}

/// Encodes a [`FrameKind::ReplSubscribe`] payload: the highest term the
/// follower has seen and, if it already holds state, the epoch it has
/// applied through (`None` requests a full snapshot bootstrap).
pub fn encode_repl_subscribe(term: u64, last_applied: Option<u64>) -> Vec<u8> {
    encode(|buf| (term, last_applied).put(buf))
}

/// Decodes a [`FrameKind::ReplSubscribe`] payload.
pub fn decode_repl_subscribe(payload: &[u8]) -> Result<(u64, Option<u64>), WireError> {
    decode(payload, Wire::take)
}

/// Encodes a [`FrameKind::ReplSnapshot`] payload: the primary's term,
/// the epoch the snapshot captures, and the CRC-framed state blob
/// produced by [`adminref_store::encode_state`].
pub fn encode_repl_snapshot(term: u64, epoch: u64, state: &[u8]) -> Vec<u8> {
    // The blob is a byte list on the wire, but megabytes of it: copied
    // whole in both directions rather than element by element.
    encode(|buf| {
        term.put(buf);
        epoch.put(buf);
        state.len().put(buf);
        buf.extend_from_slice(state);
    })
}

/// Decodes a [`FrameKind::ReplSnapshot`] payload into
/// `(term, epoch, state_blob)`.
pub fn decode_repl_snapshot(payload: &[u8]) -> Result<(u64, u64, Vec<u8>), WireError> {
    decode(payload, |buf| {
        let (term, epoch, len) = (u64::take(buf)?, u64::take(buf)?, usize::take(buf)?);
        if buf.remaining() < len {
            return Err(CodecError::UnexpectedEof);
        }
        let state = buf[..len].to_vec();
        buf.advance(len);
        Ok((term, epoch, state))
    })
}

/// Encodes a [`FrameKind::ReplDelta`] payload (see [`ReplDeltaFrame`]
/// for field semantics).
pub fn encode_repl_delta(term: u64, epoch: u64, deltas: &[EdgeDelta], checksum: u64) -> Vec<u8> {
    let frame = ReplDeltaFrame {
        term,
        epoch,
        deltas: deltas.to_vec(),
        checksum,
    };
    encode(|buf| frame.put(buf))
}

/// Decodes a [`FrameKind::ReplDelta`] payload.
pub fn decode_repl_delta(payload: &[u8]) -> Result<ReplDeltaFrame, WireError> {
    decode(payload, Wire::take)
}

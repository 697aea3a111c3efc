//! The versioned, length-framed request/response wire encoding.
//!
//! Every frame is a fixed 12-byte header followed by one flat JSON
//! document (parsed with the `tm3270_obs::json` scanners — the
//! workspace carries no serde):
//!
//! ```text
//! offset  size  field
//! 0       4     magic  "TM3W" (the encode crate's TM3S convention,
//!               W for wire)
//! 4       4     format version, u32 little-endian (currently 1)
//! 8       4     payload length in bytes, u32 little-endian
//! 12      len   payload: one UTF-8 flat JSON object
//! ```
//!
//! Requests carry `"op"` (the operation name), `"id"` (an opaque u64
//! the response echoes) and the operation's arguments. Responses echo
//! `"id"` and carry either `"ok":true` plus results, `"ok":false` plus
//! a typed `"error"` kind and human-readable `"detail"`, or — for
//! streamed runs — `"event":"progress"` interim frames before the
//! final response.
//!
//! Malformed input degrades into a typed [`WireError`], never a panic:
//! a truncated header or payload, a bad magic, a version from the
//! future, an oversized length, non-UTF-8 bytes, a JSON document
//! missing required fields, or an unknown operation name.

use std::io::{self, Read, Write};

use tm3270_core::counters::{self, *};
use tm3270_core::RunStats;
use tm3270_obs::json;

/// Frame magic: the `TM3S` snapshot-container convention, `W` for wire.
pub const WIRE_MAGIC: [u8; 4] = *b"TM3W";

/// Current wire format version. Bump on any incompatible frame or
/// payload change; servers reject other versions with a typed error.
pub const WIRE_VERSION: u32 = 1;

/// Upper bound on one frame's payload (snapshot hex dominates; a full
/// evaluation-config snapshot is ~4.4 MB of hex).
pub const MAX_FRAME_BYTES: usize = 64 << 20;

/// Typed error of frame reading and request parsing. Never a panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The stream ended inside a frame.
    Truncated {
        /// Which part of the frame was cut off.
        what: &'static str,
    },
    /// The frame does not start with [`WIRE_MAGIC`].
    BadMagic,
    /// The frame's format version is not [`WIRE_VERSION`].
    VersionMismatch {
        /// The version the frame declared.
        found: u32,
    },
    /// The declared payload length exceeds [`MAX_FRAME_BYTES`].
    FrameTooLarge {
        /// The declared length.
        len: u64,
    },
    /// The payload is not UTF-8.
    NotUtf8,
    /// The payload parses but lacks a required field (or has one of the
    /// wrong type).
    Malformed {
        /// Which field or property is missing/wrong.
        what: &'static str,
    },
    /// The request's `"op"` is not a known operation.
    UnknownOp(String),
    /// An underlying I/O error (socket reset, write failure).
    Io(String),
}

impl WireError {
    /// A stable machine-readable tag (mirrors [`SessionError::kind`]).
    ///
    /// [`SessionError::kind`]: crate::SessionError::kind
    pub fn kind(&self) -> &'static str {
        match self {
            WireError::Truncated { .. } => "Truncated",
            WireError::BadMagic => "BadMagic",
            WireError::VersionMismatch { .. } => "VersionMismatch",
            WireError::FrameTooLarge { .. } => "FrameTooLarge",
            WireError::NotUtf8 => "NotUtf8",
            WireError::Malformed { .. } => "Malformed",
            WireError::UnknownOp(_) => "UnknownOp",
            WireError::Io(_) => "Io",
        }
    }

    /// Whether frame synchronization is lost — the connection cannot
    /// continue after this error (vs. a bad payload inside an intact
    /// frame, which the peer can follow with a well-formed request).
    pub fn is_fatal(&self) -> bool {
        !matches!(self, WireError::Malformed { .. } | WireError::UnknownOp(_))
    }
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated { what } => write!(f, "truncated {what}"),
            WireError::BadMagic => write!(f, "bad frame magic (want \"TM3W\")"),
            WireError::VersionMismatch { found } => {
                write!(f, "wire version {found} (this end speaks {WIRE_VERSION})")
            }
            WireError::FrameTooLarge { len } => {
                write!(
                    f,
                    "frame of {len} bytes exceeds the {MAX_FRAME_BYTES}-byte cap"
                )
            }
            WireError::NotUtf8 => write!(f, "payload is not UTF-8"),
            WireError::Malformed { what } => write!(f, "malformed request: {what}"),
            WireError::UnknownOp(op) => write!(f, "unknown op {op:?}"),
            WireError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl std::error::Error for WireError {}

/// Writes one frame (header + JSON payload).
///
/// # Errors
///
/// Propagates the writer's I/O error; rejects payloads over
/// [`MAX_FRAME_BYTES`] with `InvalidInput`.
pub fn write_frame(w: &mut impl Write, payload: &str) -> io::Result<()> {
    if payload.len() > MAX_FRAME_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "payload exceeds MAX_FRAME_BYTES",
        ));
    }
    w.write_all(&WIRE_MAGIC)?;
    w.write_all(&WIRE_VERSION.to_le_bytes())?;
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(payload.as_bytes())?;
    w.flush()
}

fn read_exact_or(r: &mut impl Read, buf: &mut [u8], what: &'static str) -> Result<(), WireError> {
    r.read_exact(buf).map_err(|e| match e.kind() {
        io::ErrorKind::UnexpectedEof => WireError::Truncated { what },
        _ => WireError::Io(e.to_string()),
    })
}

/// Reads one frame's payload. Returns `Ok(None)` on a clean end of
/// stream (EOF before the first header byte).
///
/// # Errors
///
/// See [`WireError`]; all of them leave the stream unsynchronized
/// except none — a frame error here means the connection should close.
pub fn read_frame(r: &mut impl Read) -> Result<Option<String>, WireError> {
    let mut header = [0u8; 12];
    // Probe the first byte separately so a peer hanging up between
    // frames reads as a clean end of stream, not a truncated frame.
    let mut first = [0u8; 1];
    loop {
        match r.read(&mut first) {
            Ok(0) => return Ok(None),
            Ok(_) => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(WireError::Io(e.to_string())),
        }
    }
    header[0] = first[0];
    read_exact_or(r, &mut header[1..], "frame header")?;
    if header[0..4] != WIRE_MAGIC {
        return Err(WireError::BadMagic);
    }
    let version = u32::from_le_bytes([header[4], header[5], header[6], header[7]]);
    if version != WIRE_VERSION {
        return Err(WireError::VersionMismatch { found: version });
    }
    let len = u32::from_le_bytes([header[8], header[9], header[10], header[11]]) as usize;
    if len > MAX_FRAME_BYTES {
        return Err(WireError::FrameTooLarge { len: len as u64 });
    }
    let mut payload = vec![0u8; len];
    read_exact_or(r, &mut payload, "frame payload")?;
    String::from_utf8(payload)
        .map(Some)
        .map_err(|_| WireError::NotUtf8)
}

/// One parsed request: the echoed `id` plus the operation.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Opaque request id, echoed verbatim in every response frame.
    pub id: u64,
    /// The requested operation.
    pub op: RequestOp,
}

/// The operations of wire version 1.
#[derive(Debug, Clone, PartialEq)]
pub enum RequestOp {
    /// Liveness probe; answered on the connection thread.
    Ping,
    /// Allocate a session for a named machine configuration.
    Create {
        /// Configuration name (see [`config_named`](crate::config_named)).
        config: String,
    },
    /// Load a registry workload into a session.
    Load {
        /// Target session.
        session: u64,
        /// Workload name from the kernel registry.
        workload: String,
    },
    /// Run for up to `budget` more cycles (quantum-sliced server-side).
    Run {
        /// Target session.
        session: u64,
        /// Relative cycle budget for this run.
        budget: u64,
        /// Emit interim `progress` event frames after each quantum.
        stream: bool,
    },
    /// Execute up to `count` VLIW instructions.
    Step {
        /// Target session.
        session: u64,
        /// Instructions to execute.
        count: u64,
    },
    /// Position, liveness, register digest and statistics so far.
    Inspect {
        /// Target session.
        session: u64,
    },
    /// Read one general register.
    Reg {
        /// Target session.
        session: u64,
        /// Register index (0..128).
        index: u64,
    },
    /// Read data memory (hex-encoded in the response).
    Read {
        /// Target session.
        session: u64,
        /// Byte address.
        addr: u64,
        /// Bytes to read.
        len: u64,
    },
    /// Check the loaded workload against its golden reference.
    Verify {
        /// Target session.
        session: u64,
    },
    /// Serialize the machine state into a hex `TM3S` snapshot.
    Snapshot {
        /// Target session.
        session: u64,
    },
    /// Restore a hex `TM3S` snapshot into the session.
    Restore {
        /// Target session.
        session: u64,
        /// Snapshot container bytes, lowercase hex.
        hex: String,
    },
    /// Attach a Chrome-trace sink (and optional timeline sampler).
    TraceAttach {
        /// Target session.
        session: u64,
        /// Chrome event cap.
        limit: u64,
        /// Timeline sample interval in cycles (0 = no timeline).
        timeline: u64,
    },
    /// Detach the trace and return the Chrome JSON document.
    TraceDetach {
        /// Target session.
        session: u64,
    },
    /// Drop a session.
    Close {
        /// Target session.
        session: u64,
    },
    /// Gracefully stop the server (checkpointing live sessions).
    Shutdown,
}

impl RequestOp {
    /// The session a per-session operation targets (`None` for
    /// connection-level ops: ping, create, shutdown).
    pub fn session(&self) -> Option<u64> {
        match self {
            RequestOp::Ping | RequestOp::Create { .. } | RequestOp::Shutdown => None,
            RequestOp::Load { session, .. }
            | RequestOp::Run { session, .. }
            | RequestOp::Step { session, .. }
            | RequestOp::Inspect { session }
            | RequestOp::Reg { session, .. }
            | RequestOp::Read { session, .. }
            | RequestOp::Verify { session }
            | RequestOp::Snapshot { session }
            | RequestOp::Restore { session, .. }
            | RequestOp::TraceAttach { session, .. }
            | RequestOp::TraceDetach { session }
            | RequestOp::Close { session } => Some(*session),
        }
    }
}

fn need_u64(doc: &str, key: &'static str) -> Result<u64, WireError> {
    json::u64_field(doc, key).ok_or(WireError::Malformed { what: key })
}

fn need_str(doc: &str, key: &'static str) -> Result<String, WireError> {
    json::string_field(doc, key).ok_or(WireError::Malformed { what: key })
}

/// Parses one request payload (a flat JSON object).
///
/// # Errors
///
/// [`WireError::Malformed`] for a missing `op`/argument,
/// [`WireError::UnknownOp`] for an operation this version does not
/// know.
pub fn parse_request(payload: &str) -> Result<Request, WireError> {
    let op_name = need_str(payload, "op").map_err(|_| WireError::Malformed { what: "op" })?;
    let id = json::u64_field(payload, "id").unwrap_or(0);
    let session = || need_u64(payload, "session");
    let op = match op_name.as_str() {
        "ping" => RequestOp::Ping,
        "create" => RequestOp::Create {
            config: need_str(payload, "config")?,
        },
        "load" => RequestOp::Load {
            session: session()?,
            workload: need_str(payload, "workload")?,
        },
        "run" => RequestOp::Run {
            session: session()?,
            budget: need_u64(payload, "budget")?,
            stream: json::u64_field(payload, "stream").unwrap_or(0) != 0,
        },
        "step" => RequestOp::Step {
            session: session()?,
            count: need_u64(payload, "count")?,
        },
        "inspect" => RequestOp::Inspect {
            session: session()?,
        },
        "reg" => RequestOp::Reg {
            session: session()?,
            index: need_u64(payload, "index")?,
        },
        "read" => RequestOp::Read {
            session: session()?,
            addr: need_u64(payload, "addr")?,
            len: need_u64(payload, "len")?,
        },
        "verify" => RequestOp::Verify {
            session: session()?,
        },
        "snapshot" => RequestOp::Snapshot {
            session: session()?,
        },
        "restore" => RequestOp::Restore {
            session: session()?,
            hex: need_str(payload, "snapshot")?,
        },
        "trace_attach" => RequestOp::TraceAttach {
            session: session()?,
            limit: json::u64_field(payload, "limit").unwrap_or(100_000),
            timeline: json::u64_field(payload, "timeline").unwrap_or(0),
        },
        "trace_detach" => RequestOp::TraceDetach {
            session: session()?,
        },
        "close" => RequestOp::Close {
            session: session()?,
        },
        "shutdown" => RequestOp::Shutdown,
        _ => return Err(WireError::UnknownOp(op_name)),
    };
    Ok(Request { id, op })
}

/// Renders [`RunStats`] as the wire's flat `stats` object: a selection
/// of the [`counters`] table.
pub fn stats_json(stats: &RunStats) -> String {
    let rows = [
        CYCLES,
        INSTRS,
        OPS,
        EXEC_OPS,
        BRANCHES,
        TAKEN_BRANCHES,
        IFETCH_STALL,
        DATA_STALL,
        DCACHE_MISSES,
        DRAM_BYTES,
        TIME_US,
    ];
    format!("{{{}}}", counters::json_fields(stats, &rows))
}

/// Renders one evaluation-suite cell — the exact row format of the
/// `repro_all --json` suite document. `tm3270-bench::suite_json` and
/// the server's run responses both emit rows through this function, so
/// a remotely-served suite byte-diffs cleanly against the serial one.
pub fn cell_json(kernel: &str, config: &str, stats: &RunStats) -> String {
    let rows = [
        CYCLES,
        INSTRS,
        OPS,
        IFETCH_STALL,
        DATA_STALL,
        DCACHE_MISSES,
        DRAM_BYTES,
        TIME_US,
    ];
    format!(
        "{{\"kernel\":{},\"config\":{},{}}}",
        json::string(kernel),
        json::string(config),
        counters::json_fields(stats, &rows)
    )
}

/// Renders the standard error response payload.
pub fn error_json(id: u64, session: Option<u64>, kind: &str, detail: &str) -> String {
    let session = session
        .map(|s| format!(",\"session\":{s}"))
        .unwrap_or_default();
    format!(
        "{{\"id\":{id}{session},\"ok\":false,\"error\":{},\"detail\":{}}}",
        json::string(kind),
        json::string(detail)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame_bytes(payload: &str) -> Vec<u8> {
        let mut out = Vec::new();
        write_frame(&mut out, payload).unwrap();
        out
    }

    #[test]
    fn frames_round_trip() {
        let bytes = frame_bytes("{\"op\":\"ping\",\"id\":7}");
        let mut r = bytes.as_slice();
        assert_eq!(
            read_frame(&mut r).unwrap().as_deref(),
            Some("{\"op\":\"ping\",\"id\":7}")
        );
        assert_eq!(read_frame(&mut r).unwrap(), None, "clean EOF after frame");
    }

    #[test]
    fn truncated_frames_are_typed_errors() {
        let bytes = frame_bytes("{\"op\":\"ping\"}");
        for cut in [1, 6, 11, bytes.len() - 1] {
            let mut r = &bytes[..cut];
            let err = read_frame(&mut r).unwrap_err();
            assert_eq!(err.kind(), "Truncated", "cut at {cut}: {err}");
            assert!(err.is_fatal());
        }
    }

    #[test]
    fn bad_magic_version_and_size_are_typed_errors() {
        let mut bad_magic = frame_bytes("{}");
        bad_magic[0] = b'X';
        assert_eq!(
            read_frame(&mut bad_magic.as_slice()).unwrap_err(),
            WireError::BadMagic
        );

        let mut future = frame_bytes("{}");
        future[4..8].copy_from_slice(&99u32.to_le_bytes());
        assert_eq!(
            read_frame(&mut future.as_slice()).unwrap_err(),
            WireError::VersionMismatch { found: 99 }
        );

        let mut huge = frame_bytes("{}");
        huge[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(
            read_frame(&mut huge.as_slice()).unwrap_err(),
            WireError::FrameTooLarge {
                len: u64::from(u32::MAX)
            }
        );

        let mut not_utf8 = frame_bytes("ab");
        let len = not_utf8.len();
        not_utf8[len - 1] = 0xff;
        assert_eq!(
            read_frame(&mut not_utf8.as_slice()).unwrap_err(),
            WireError::NotUtf8
        );
    }

    #[test]
    fn requests_parse_and_reject_typed() {
        let req =
            parse_request("{\"op\":\"run\",\"id\":3,\"session\":9,\"budget\":1000,\"stream\":1}")
                .unwrap();
        assert_eq!(req.id, 3);
        assert_eq!(
            req.op,
            RequestOp::Run {
                session: 9,
                budget: 1000,
                stream: true
            }
        );
        assert_eq!(req.op.session(), Some(9));

        assert_eq!(
            parse_request("{\"op\":\"warp\",\"id\":1}").unwrap_err(),
            WireError::UnknownOp("warp".into())
        );
        assert_eq!(
            parse_request("{\"id\":1}").unwrap_err(),
            WireError::Malformed { what: "op" }
        );
        let missing = parse_request("{\"op\":\"load\",\"session\":1}").unwrap_err();
        assert_eq!(missing, WireError::Malformed { what: "workload" });
        assert!(!missing.is_fatal(), "payload errors keep the stream alive");
    }

    #[test]
    fn error_payloads_are_flat_json() {
        let doc = error_json(4, Some(2), "NoProgram", "no program loaded");
        assert_eq!(json::u64_field(&doc, "id"), Some(4));
        assert_eq!(json::u64_field(&doc, "session"), Some(2));
        assert_eq!(
            json::string_field(&doc, "error").as_deref(),
            Some("NoProgram")
        );
    }
}

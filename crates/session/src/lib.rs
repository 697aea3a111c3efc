//! # tm3270-session
//!
//! Simulation-as-a-service: the stable session API carved out of
//! `tm3270-core`/`tm3270-harness`, plus the std-only serving front-end
//! behind the `tm3270d` daemon.
//!
//! Three layers, each usable on its own:
//!
//! * [`Session`] — the embedding API: an explicit machine lifecycle
//!   (`create → load → run/step → inspect → snapshot/restore → trace
//!   attach/detach`) in which **every operation returns a typed
//!   result** — [`SessionError`] wraps the existing
//!   [`SimError`](tm3270_core::SimError) /
//!   [`SnapshotError`](tm3270_core::SnapshotError) taxonomy and never
//!   panics across the boundary. Runs are *resumable*:
//!   [`Session::run_to`] drives the machine toward an absolute cycle
//!   target, so a run sliced into quanta is bit-identical to an
//!   uninterrupted [`Machine::run_with`](tm3270_core::Machine::run_with)
//!   call (the property the server's fairness scheduling rests on).
//! * [`wire`] — the versioned, length-framed request/response encoding:
//!   a 12-byte header (magic `TM3W`, format version, payload length)
//!   followed by one flat JSON document, parsed with the
//!   `tm3270_obs::json` scanners. Malformed frames degrade into typed
//!   [`WireError`]s — truncated, bad magic, version mismatch, unknown
//!   op — never a panic or a hang.
//! * [`Server`] / [`Client`] — the TCP front-end: a bounded worker pool
//!   (on [`BoundedQueue`](tm3270_harness::BoundedQueue) command
//!   inboxes) multiplexes many concurrent sessions. A `Machine` holds
//!   `Rc`-based trace plumbing and is deliberately `!Send`, so every
//!   session is *owned* by one worker thread for its whole life;
//!   commands cross threads, machines never do. Runs execute in
//!   round-robin cycle quanta enforced via `RunOptions` budgets, so one
//!   hot session cannot starve its peers; per-connection output queues
//!   are bounded for backpressure; graceful shutdown checkpoints live
//!   sessions through the `TM3S` snapshot container and reports per-run
//!   wall/attempt stats through the harness
//!   [`SweepTelemetry`](tm3270_harness::SweepTelemetry) hooks.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod client;
mod server;
mod session;
pub mod wire;

pub use client::{Client, ClientError, LoadReply, RunReply};
pub use server::{ServeReport, Server, ServerConfig, ShutdownHandle};
pub use session::{
    config_named, Inspect, LoadInfo, RunStatus, Session, SessionError, StepReport, MAX_READ_BYTES,
};
pub use wire::{Request, RequestOp, WireError};

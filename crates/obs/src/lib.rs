//! # tm3270-obs
//!
//! The observability layer of the TM3270 reproduction: a structured,
//! cycle-stamped trace-event vocabulary emitted by the pipeline
//! simulator, the memory system and the fault injector, plus the
//! built-in sinks that consume it.
//!
//! The design goal is **zero cost when disabled**: producers hold a
//! [`SinkHandle`] whose disabled state is a `None` discriminant, so the
//! per-event-site overhead of a run without tracing is a single
//! predictable branch (measured at well under 2 % on the simulator
//! timing harness — see `BENCH_obs.json` at the repository root).
//! Event construction happens *inside* the enabled check
//! ([`SinkHandle::emit_with`]), so argument formatting is never paid on
//! the disabled path.
//!
//! Built-in sinks:
//!
//! * [`CounterSink`] — per-issue-slot and per-functional-unit
//!   utilization histograms plus a stall-attribution breakdown
//!   ([`StallBuckets`]) that exactly decomposes a run's total cycles
//!   into issue + ifetch-stall + data-stall + watchdog-idle, with the
//!   other counts only events give (evictions, late prefetches,
//!   per-kind DRAM traffic);
//! * [`ProfileSink`] — the same decomposition bucketed *per VLIW
//!   instruction address*, coalesced into straight-line blocks for
//!   top-N hot-spot reports with the same conservation guarantee;
//! * [`TimelineSink`] — all counters sampled every K cycles into a
//!   fixed-capacity time series (intervals merge pairwise and K doubles
//!   under pressure), exported as JSON or a Chrome counter track;
//! * [`ChromeTraceSink`] — a Chrome `trace_event`-format JSON exporter
//!   (one "thread" per issue slot, async rows for DRAM transactions)
//!   loadable in `chrome://tracing` or [Perfetto](https://ui.perfetto.dev);
//! * [`RingSink`] — retains the last *N* events, generalizing the
//!   simulator's crash-report ring buffer;
//! * [`FanoutSink`] — forwards every event to several sinks at once;
//! * [`NullSink`] — discards everything (benchmarking the enabled path).
//!
//! Events flow through a fixed staging buffer shared by every clone of
//! a [`SinkHandle`] and reach the sink in batches ([`TraceSink::batch`])
//! of up to [`EMIT_BATCH`], so emission itself makes no dynamic calls.
//! Producers flush at run boundaries; call [`SinkHandle::flush`] before
//! reading a sink mid-run.
//!
//! Sinks declare the events they read: `Machine::attach_sink` binds the
//! sink to the program ([`TraceSink::bind`], which also hands it each
//! instruction's static op count), and the sink returns an
//! [`EventKinds`] set. The handle then drops every other kind before
//! staging it, and the simulator and memory system skip building the
//! per-op and cache-access events no bound sink reads
//! ([`SinkHandle::wants`]). [`ProfileSink`] reads four kinds, so a run
//! profiled by it alone builds about two events per instruction;
//! [`CounterSink`] reads the eight kinds it counts; the other built-in
//! sinks read every kind, and a [`FanoutSink`] reads the union of its
//! children. A handle that is never bound delivers everything.
//! Counts the model keeps exactly (cache hits, branches, DRAM totals…)
//! live in `tm3270_core::RunStats`; sinks count only what needs events.
//!
//! # Examples
//!
//! ```
//! use std::cell::RefCell;
//! use std::rc::Rc;
//! use tm3270_obs::{CounterSink, SinkHandle, StallCause, TraceEvent};
//!
//! let counter = Rc::new(RefCell::new(CounterSink::new()));
//! let handle = SinkHandle::from(counter.clone());
//! // A producer (normally the simulator) emits cycle-stamped events:
//! handle.emit_with(|| TraceEvent::InstrIssue { cycle: 0, pc: 0, ops: 2 });
//! handle.emit_with(|| TraceEvent::StallEnd {
//!     cycle: 5,
//!     cause: StallCause::Data,
//!     cycles: 4,
//!     pc: 0,
//! });
//! handle.flush(); // drain the staging buffer before reading
//! let buckets = counter.borrow().buckets();
//! assert_eq!(buckets.issue, 1);
//! assert_eq!(buckets.data_stall, 4);
//! assert_eq!(buckets.total(), 5);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod chrome;
mod counter;
mod event;
pub mod json;
mod profile;
mod ring;
mod sink;
mod timeline;

pub use chrome::ChromeTraceSink;
pub use counter::{CacheCounts, CounterSink, DramCount, StallBuckets, UnitCount, SLOTS};
pub use event::{CacheId, CacheOutcome, EventKinds, MemTxKind, StallCause, TraceEvent};
pub use profile::{BlockProfile, PcProfile, ProfileSink};
pub use ring::RingSink;
pub use sink::{FanoutSink, NullSink, SinkHandle, TraceSink, EMIT_BATCH};
pub use timeline::{TimelineSample, TimelineSink, DEFAULT_TIMELINE_CAP};

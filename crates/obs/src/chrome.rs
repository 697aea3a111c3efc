//! [`ChromeTraceSink`]: export the event stream in Chrome
//! `trace_event` JSON format.
//!
//! The resulting file loads in `chrome://tracing` or
//! [Perfetto](https://ui.perfetto.dev). Layout:
//!
//! * tids 1–5 — one "thread" per issue slot; every dispatched operation
//!   is a balanced B/E pair one cycle wide, named by its mnemonic;
//! * tid 6 — instruction-fetch stalls (B/E pairs spanning the stall);
//! * tid 7 — data-side stalls (B/E pairs spanning the stall);
//! * tid 8 — pipeline instants (instruction issue, branch resolve,
//!   watchdog, fault flips);
//! * tid 9 — memory instants (cache accesses/evictions, prefetch
//!   issue/late);
//! * async rows (`ph:"b"`/`"e"`, category `dram`) — one per DRAM
//!   transaction, spanning request to completion.
//!
//! Timestamps are the simulated cycle number, reported in microseconds
//! (1 cycle = 1 µs) so the viewer's time axis reads directly in cycles.
//! Per-PC issue counts (`IssueCount`, which a fan-out may deliver) carry
//! no timestamp and are not buffered; the issue instants show the same
//! issues.

use crate::event::{StallCause, TraceEvent};
use crate::json;
use crate::sink::TraceSink;

/// Default cap on retained events (~80 MB of buffered events).
pub const DEFAULT_EVENT_LIMIT: usize = 2_000_000;

/// Buffers the event stream and renders it as Chrome `trace_event`
/// JSON on demand.
#[derive(Debug, Clone)]
pub struct ChromeTraceSink {
    events: Vec<TraceEvent>,
    limit: usize,
    dropped: u64,
}

impl Default for ChromeTraceSink {
    fn default() -> ChromeTraceSink {
        ChromeTraceSink::new()
    }
}

impl ChromeTraceSink {
    /// A sink with the default event cap.
    pub fn new() -> ChromeTraceSink {
        ChromeTraceSink::with_limit(DEFAULT_EVENT_LIMIT)
    }

    /// A sink retaining at most `limit` events; later events are
    /// counted in [`ChromeTraceSink::dropped`] instead of buffered.
    pub fn with_limit(limit: usize) -> ChromeTraceSink {
        ChromeTraceSink {
            events: Vec::new(),
            limit,
            dropped: 0,
        }
    }

    /// Events currently buffered.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether no events are buffered.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events dropped after the cap was reached.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Renders the buffered events as a Chrome `trace_event` JSON
    /// document (`{"traceEvents":[...]}`).
    pub fn to_json(&self) -> String {
        self.to_json_with(&[])
    }

    /// Like [`ChromeTraceSink::to_json`], with pre-rendered extra rows
    /// (e.g. a [`TimelineSink`](crate::TimelineSink) counter track from
    /// `chrome_rows`) spliced into the same document.
    pub fn to_json_with(&self, extra_rows: &[String]) -> String {
        let mut rows: Vec<String> = Vec::with_capacity(self.events.len() + extra_rows.len() + 16);
        rows.push(meta_row("process_name", 0, "tm3270"));
        for (tid, name) in [
            (1, "slot 1"),
            (2, "slot 2"),
            (3, "slot 3"),
            (4, "slot 4"),
            (5, "slot 5"),
            (6, "ifetch stall"),
            (7, "data stall"),
            (8, "pipeline"),
            (9, "memory"),
        ] {
            rows.push(meta_row("thread_name", tid, name));
        }
        let mut async_id: u64 = 0;
        for event in &self.events {
            self.render(event, &mut async_id, &mut rows);
        }
        rows.extend_from_slice(extra_rows);
        format!("{{\"traceEvents\":[{}]}}", rows.join(","))
    }

    fn render(&self, event: &TraceEvent, async_id: &mut u64, rows: &mut Vec<String>) {
        match *event {
            TraceEvent::InstrIssue { cycle, pc, ops } => {
                rows.push(instant(
                    8,
                    cycle as f64,
                    "issue",
                    &format!("\"pc\":{pc},\"ops\":{ops}"),
                ));
            }
            TraceEvent::OpDispatch {
                cycle,
                pc,
                slot,
                unit,
                mnemonic,
                executed,
            } => {
                let tid = u64::from(slot) + 1;
                let ts = cycle as f64;
                let args = format!(
                    "\"pc\":{pc},\"unit\":{},\"executed\":{executed}",
                    json::string(unit)
                );
                rows.push(duration("B", tid, ts, mnemonic, &args));
                rows.push(duration("E", tid, ts + 1.0, mnemonic, ""));
            }
            TraceEvent::StallBegin { .. } => {
                // Rendered from the paired StallEnd so B/E stay balanced
                // even on truncated streams.
            }
            TraceEvent::StallEnd {
                cycle,
                cause,
                cycles,
                pc,
            } => {
                let (tid, name) = match cause {
                    StallCause::IFetch => (6, "ifetch stall"),
                    StallCause::Data => (7, "data stall"),
                };
                let end = cycle as f64;
                let begin = end - cycles as f64;
                rows.push(duration(
                    "B",
                    tid,
                    begin,
                    name,
                    &format!("\"cycles\":{cycles},\"pc\":{pc}"),
                ));
                rows.push(duration("E", tid, end, name, ""));
            }
            TraceEvent::CacheAccess {
                cycle,
                cache,
                addr,
                outcome,
                prefetch_hit,
                pc,
            } => {
                rows.push(instant(
                    9,
                    cycle,
                    &format!("{} {}", cache.name(), outcome.name()),
                    &format!("\"addr\":{addr},\"prefetch_hit\":{prefetch_hit},\"pc\":{pc}"),
                ));
            }
            TraceEvent::CacheEvict {
                cycle,
                cache,
                base,
                copyback_bytes,
            } => {
                rows.push(instant(
                    9,
                    cycle,
                    &format!("{} evict", cache.name()),
                    &format!("\"base\":{base},\"copyback_bytes\":{copyback_bytes}"),
                ));
            }
            TraceEvent::PrefetchIssue { cycle, base } => {
                rows.push(instant(
                    9,
                    cycle,
                    "prefetch issue",
                    &format!("\"base\":{base}"),
                ));
            }
            TraceEvent::PrefetchLate { cycle, base, wait } => {
                rows.push(instant(
                    9,
                    cycle,
                    "prefetch late",
                    &format!("\"base\":{base},\"wait\":{}", json::number(wait)),
                ));
            }
            TraceEvent::DramTransaction {
                cycle,
                kind,
                bytes,
                completion,
            } => {
                *async_id += 1;
                let id = *async_id;
                let name = kind.name();
                rows.push(format!(
                    "{{\"ph\":\"b\",\"pid\":1,\"tid\":9,\"cat\":\"dram\",\"id\":{id},\
                     \"ts\":{},\"name\":{},\"args\":{{\"bytes\":{bytes}}}}}",
                    json::number(cycle),
                    json::string(name)
                ));
                rows.push(format!(
                    "{{\"ph\":\"e\",\"pid\":1,\"tid\":9,\"cat\":\"dram\",\"id\":{id},\
                     \"ts\":{},\"name\":{}}}",
                    json::number(completion.max(cycle)),
                    json::string(name)
                ));
            }
            TraceEvent::BranchResolve {
                cycle,
                pc,
                target,
                taken,
            } => {
                let target = match target {
                    Some(t) => t.to_string(),
                    None => "null".to_string(),
                };
                rows.push(instant(
                    8,
                    cycle as f64,
                    "branch",
                    &format!("\"pc\":{pc},\"target\":{target},\"taken\":{taken}"),
                ));
            }
            TraceEvent::WatchdogFired { cycle, pc, idle } => {
                rows.push(instant(
                    8,
                    cycle as f64,
                    "watchdog",
                    &format!("\"pc\":{pc},\"idle\":{idle}"),
                ));
            }
            TraceEvent::FaultFlip { site, byte, bit } => {
                rows.push(instant(
                    8,
                    0.0,
                    "fault flip",
                    &format!(
                        "\"site\":{},\"byte\":{byte},\"bit\":{bit}",
                        json::string(site)
                    ),
                ));
            }
            TraceEvent::IssueCount { .. } => {}
        }
    }
}

impl TraceSink for ChromeTraceSink {
    fn event(&mut self, event: &TraceEvent) {
        if let TraceEvent::IssueCount { .. } = event {
            return;
        }
        if self.events.len() >= self.limit {
            self.dropped += 1;
            return;
        }
        self.events.push(*event);
    }
}

fn meta_row(kind: &str, tid: u64, name: &str) -> String {
    format!(
        "{{\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\"name\":{},\"args\":{{\"name\":{}}}}}",
        json::string(kind),
        json::string(name)
    )
}

fn duration(ph: &str, tid: u64, ts: f64, name: &str, args: &str) -> String {
    if args.is_empty() {
        format!(
            "{{\"ph\":{},\"pid\":1,\"tid\":{tid},\"ts\":{},\"name\":{}}}",
            json::string(ph),
            json::number(ts),
            json::string(name)
        )
    } else {
        format!(
            "{{\"ph\":{},\"pid\":1,\"tid\":{tid},\"ts\":{},\"name\":{},\"args\":{{{args}}}}}",
            json::string(ph),
            json::number(ts),
            json::string(name)
        )
    }
}

fn instant(tid: u64, ts: f64, name: &str, args: &str) -> String {
    format!(
        "{{\"ph\":\"i\",\"pid\":1,\"tid\":{tid},\"s\":\"t\",\"ts\":{},\"name\":{},\"args\":{{{args}}}}}",
        json::number(ts),
        json::string(name)
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{CacheId, CacheOutcome, MemTxKind};

    fn sample() -> ChromeTraceSink {
        let mut sink = ChromeTraceSink::new();
        sink.event(&TraceEvent::InstrIssue {
            cycle: 0,
            pc: 0,
            ops: 2,
        });
        sink.event(&TraceEvent::OpDispatch {
            cycle: 0,
            pc: 0,
            slot: 0,
            unit: "alu",
            mnemonic: "iadd",
            executed: true,
        });
        sink.event(&TraceEvent::StallEnd {
            cycle: 10,
            cause: StallCause::Data,
            cycles: 4,
            pc: 0,
        });
        sink.event(&TraceEvent::CacheAccess {
            cycle: 6.0,
            cache: CacheId::Data,
            addr: 0x40,
            outcome: CacheOutcome::Miss,
            prefetch_hit: false,
            pc: 0,
        });
        sink.event(&TraceEvent::DramTransaction {
            cycle: 6.0,
            kind: MemTxKind::DemandFill,
            bytes: 128,
            completion: 10.0,
        });
        sink
    }

    #[test]
    fn b_and_e_are_balanced() {
        let out = sample().to_json();
        let b = out.matches("\"ph\":\"B\"").count();
        let e = out.matches("\"ph\":\"E\"").count();
        assert_eq!(b, e);
        assert!(b > 0);
        let ab = out.matches("\"ph\":\"b\"").count();
        let ae = out.matches("\"ph\":\"e\"").count();
        assert_eq!(ab, ae);
    }

    #[test]
    fn extra_rows_are_spliced_into_the_document() {
        let sink = sample();
        let extra = vec![
            "{\"ph\":\"C\",\"pid\":1,\"tid\":0,\"ts\":0,\"name\":\"cycles\",\"args\":{\"issue\":1}}"
                .to_string(),
        ];
        let out = sink.to_json_with(&extra);
        assert!(out.contains("\"ph\":\"C\""));
        assert!(out.ends_with("]}"));
    }

    #[test]
    fn limit_drops_excess() {
        let mut sink = ChromeTraceSink::with_limit(2);
        for cycle in 0..5u64 {
            sink.event(&TraceEvent::InstrIssue {
                cycle,
                pc: 0,
                ops: 1,
            });
        }
        assert_eq!(sink.len(), 2);
        assert_eq!(sink.dropped(), 3);
    }
}

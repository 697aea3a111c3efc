//! The [`TraceSink`] trait, the shared [`SinkHandle`] producers hold,
//! and the structural sinks ([`NullSink`], [`FanoutSink`]).

use crate::event::{EventKinds, TraceEvent};
use std::cell::{Cell, RefCell};
use std::rc::Rc;

/// Capacity of the [`SinkHandle`] staging buffer: events are handed to
/// the sink in batches of up to this many, so the dynamic-dispatch cost
/// of [`TraceSink::batch`] is paid once per batch rather than once per
/// event.
pub const EMIT_BATCH: usize = 64;

/// A consumer of trace events.
///
/// Sinks receive events by reference in emission order; the per-PC
/// [`TraceEvent::IssueCount`] sums, which only a sink bound to
/// [`EventKinds::ISSUE_COUNT`] asks for, come when the handle drains. A
/// sink must not re-enter the producer (the simulator is mid-step when
/// it emits).
pub trait TraceSink {
    /// Consumes one event.
    fn event(&mut self, event: &TraceEvent);

    /// Consumes a batch of events in emission order.
    ///
    /// [`SinkHandle`] delivers events through this method, one dynamic
    /// call per staged batch. The default forwards to
    /// [`TraceSink::event`] in a loop that is monomorphized per
    /// implementation, so per-event handling inlines; override it only
    /// when a sink can do better than event-at-a-time (e.g.
    /// [`FanoutSink`] forwards the whole slice to each child).
    fn batch(&mut self, events: &[TraceEvent]) {
        for event in events {
            self.event(event);
        }
    }

    /// Binds the sink to a program before a run: `ops_per_instr[pc]` is
    /// the static operation count of VLIW instruction `pc` (guard true
    /// or false). Returns the event kinds the sink reads; the handle it
    /// is bound through delivers only those.
    ///
    /// `Machine::attach_sink` calls this through [`SinkHandle::bind`].
    /// The default reads every kind and ignores the table.
    fn bind(&mut self, ops_per_instr: &[u8]) -> EventKinds {
        let _ = ops_per_instr;
        EventKinds::ALL
    }
}

/// A sink that discards every event — useful for measuring the enabled
/// emission path itself.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl TraceSink for NullSink {
    fn event(&mut self, _event: &TraceEvent) {}

    fn batch(&mut self, _events: &[TraceEvent]) {}
}

/// The staging buffer shared by every clone of a [`SinkHandle`]: a
/// fixed-capacity event queue plus the sink it drains into, and the
/// per-PC issue counts not yet staged as [`TraceEvent::IssueCount`].
struct Staged {
    buf: Vec<TraceEvent>,
    inner: Rc<RefCell<dyn TraceSink>>,
    /// `(issues, exec_ops)` per PC since the last drain.
    counts: Vec<(u64, u64)>,
    /// The PCs with a nonzero entry in `counts`.
    touched: Vec<usize>,
}

/// What every clone of a [`SinkHandle`] shares: the kinds the sink was
/// bound to (every kind until [`SinkHandle::bind`]) beside the staging
/// buffer, so the filter is read without borrowing the buffer.
struct Shared {
    kinds: Cell<EventKinds>,
    staged: RefCell<Staged>,
}

impl Shared {
    /// Stages `event` if the sink reads its kind, draining a full buffer.
    #[inline]
    fn push(&self, event: TraceEvent) {
        if self.kinds.get().contains(event.kind_bit()) {
            self.staged.borrow_mut().stage(event);
        }
    }
}

impl Staged {
    /// Adds one issue of `pc` with `exec_ops` guard-true operations.
    #[inline]
    fn count(&mut self, pc: usize, exec_ops: u8) {
        if pc >= self.counts.len() {
            self.counts.resize(pc + 1, (0, 0));
        }
        let c = &mut self.counts[pc];
        if c.0 == 0 {
            self.touched.push(pc);
        }
        c.0 += 1;
        c.1 += u64::from(exec_ops);
    }

    /// Stages one [`TraceEvent::IssueCount`] per touched PC, in PC
    /// order, then hands every staged event to the sink.
    fn drain(&mut self) {
        let mut touched = std::mem::take(&mut self.touched);
        touched.sort_unstable();
        for &pc in &touched {
            let (issues, exec_ops) = std::mem::take(&mut self.counts[pc]);
            self.stage(TraceEvent::IssueCount {
                pc,
                issues,
                exec_ops,
            });
        }
        touched.clear();
        self.touched = touched;
        self.flush();
    }

    #[inline]
    fn stage(&mut self, event: TraceEvent) {
        self.buf.push(event);
        if self.buf.len() == EMIT_BATCH {
            self.flush();
        }
    }

    fn flush(&mut self) {
        if !self.buf.is_empty() {
            self.inner.borrow_mut().batch(&self.buf);
            self.buf.clear();
        }
    }
}

/// The handle producers (the simulator, the memory system, the fault
/// injector) hold.
///
/// Disabled is the default and is a `None` discriminant: the per-site
/// cost of an untraced run is one predictable branch
/// ([`SinkHandle::enabled`]), and event construction is skipped entirely
/// when emitting through [`SinkHandle::emit_with`].
///
/// A bound handle ([`SinkHandle::bind`]) drops every event kind its sink
/// does not read before staging it, and producers ask
/// [`SinkHandle::wants`] before building events on hot paths. An unbound
/// handle delivers every kind.
///
/// When enabled, events are staged in a fixed [`EMIT_BATCH`]-capacity
/// buffer (allocated once, never grown) and handed to the sink through
/// one [`TraceSink::batch`] call per batch — emission itself never makes
/// a dynamic call. The buffer drains when full and on
/// [`SinkHandle::flush`]; `Machine::run_with` flushes at the end of
/// every run (including crash paths), so callers stepping a machine by
/// hand and reading a sink mid-run should flush first.
///
/// A sink bound to [`EventKinds::ISSUE_COUNT`] gets instruction issues
/// as per-PC sums: [`SinkHandle::issue`] adds to a per-PC table beside
/// the buffer, and [`SinkHandle::flush`] and [`SinkHandle::bind`] stage
/// one [`TraceEvent::IssueCount`] per PC that issued before they drain.
///
/// Cloning the handle shares the staging buffer, the bound kinds and the
/// underlying sink — the pipeline and the memory system it owns both
/// feed the same consumer, in emission order.
#[derive(Clone, Default)]
pub struct SinkHandle(Option<Rc<Shared>>);

impl SinkHandle {
    /// The disabled handle (no sink attached; emission is a no-op).
    pub fn disabled() -> SinkHandle {
        SinkHandle(None)
    }

    /// A handle feeding an already-shared sink.
    pub fn new(sink: Rc<RefCell<dyn TraceSink>>) -> SinkHandle {
        SinkHandle(Some(Rc::new(Shared {
            kinds: Cell::new(EventKinds::ALL),
            staged: RefCell::new(Staged {
                buf: Vec::with_capacity(EMIT_BATCH),
                inner: sink,
                counts: Vec::new(),
                touched: Vec::new(),
            }),
        })))
    }

    /// Whether a sink is attached.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Whether a sink is attached and reads at least one kind in
    /// `kinds`. Producers ask once before building events a bound sink
    /// may not read.
    #[inline]
    pub fn wants(&self, kinds: EventKinds) -> bool {
        self.0
            .as_ref()
            .is_some_and(|shared| shared.kinds.get().intersects(kinds))
    }

    /// Binds the sink to a program ([`TraceSink::bind`]) and from then on
    /// delivers only the kinds it returns. Events staged and issues
    /// counted under the previous set are flushed first. A no-op when
    /// disabled.
    pub fn bind(&self, ops_per_instr: &[u8]) {
        if let Some(shared) = &self.0 {
            let mut s = shared.staged.borrow_mut();
            s.drain();
            let kinds = s.inner.borrow_mut().bind(ops_per_instr);
            shared.kinds.set(kinds);
        }
    }

    /// Records that VLIW instruction `pc` issued at `cycle` with
    /// `exec_ops` guard-true operations: an [`TraceEvent::InstrIssue`]
    /// if the bound sink reads it, and one more issue in the per-PC
    /// counts if it reads [`EventKinds::ISSUE_COUNT`]. A no-op when
    /// disabled.
    #[inline]
    pub fn issue(&self, cycle: u64, pc: usize, exec_ops: u8) {
        if let Some(shared) = &self.0 {
            if shared.kinds.get().intersects(EventKinds::ISSUE_COUNT) {
                shared.staged.borrow_mut().count(pc, exec_ops);
            }
            shared.push(TraceEvent::InstrIssue {
                cycle,
                pc,
                ops: exec_ops,
            });
        }
    }

    /// Emits an already-constructed event (no-op when disabled or when
    /// the bound sink does not read its kind).
    #[inline]
    pub fn emit(&self, event: TraceEvent) {
        if let Some(shared) = &self.0 {
            shared.push(event);
        }
    }

    /// Emits lazily: `f` runs only when a sink is attached, so argument
    /// gathering is never paid on the disabled path. Like
    /// [`SinkHandle::emit`], drops kinds the bound sink does not read.
    #[inline]
    pub fn emit_with(&self, f: impl FnOnce() -> TraceEvent) {
        if let Some(shared) = &self.0 {
            shared.push(f());
        }
    }

    /// Emits and immediately drains the staging buffer — for rare
    /// out-of-band events (fault flips) whose observers expect to see
    /// them without waiting for a batch boundary. Drops kinds the bound
    /// sink does not read.
    pub fn emit_now(&self, event: TraceEvent) {
        if let Some(shared) = &self.0 {
            shared.push(event);
            shared.staged.borrow_mut().flush();
        }
    }

    /// Stages the per-PC issue counts as [`TraceEvent::IssueCount`]
    /// events, then drains the staging buffer into the sink (no-op when
    /// disabled or empty). Every clone of a handle shares one buffer, so
    /// a single flush drains events from all producers.
    pub fn flush(&self) {
        if let Some(shared) = &self.0 {
            shared.staged.borrow_mut().drain();
        }
    }
}

impl<T: TraceSink + 'static> From<Rc<RefCell<T>>> for SinkHandle {
    fn from(sink: Rc<RefCell<T>>) -> SinkHandle {
        SinkHandle::new(sink)
    }
}

impl std::fmt::Debug for SinkHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(if self.enabled() {
            "SinkHandle(attached)"
        } else {
            "SinkHandle(disabled)"
        })
    }
}

/// Forwards every event to several sinks (e.g. a [`CounterSink`] and a
/// [`ChromeTraceSink`] observing the same run).
///
/// [`CounterSink`]: crate::CounterSink
/// [`ChromeTraceSink`]: crate::ChromeTraceSink
#[derive(Default)]
pub struct FanoutSink {
    sinks: Vec<Rc<RefCell<dyn TraceSink>>>,
}

impl FanoutSink {
    /// An empty fan-out.
    pub fn new() -> FanoutSink {
        FanoutSink::default()
    }

    /// Adds a sink to the fan-out. A sink pushed after the fan-out was
    /// bound receives only the kinds bound then; the next
    /// [`TraceSink::bind`] (e.g. attaching the handle again) includes it.
    pub fn push(&mut self, sink: Rc<RefCell<dyn TraceSink>>) {
        self.sinks.push(sink);
    }

    /// Number of attached sinks.
    pub fn len(&self) -> usize {
        self.sinks.len()
    }

    /// Whether the fan-out has no sinks.
    pub fn is_empty(&self) -> bool {
        self.sinks.is_empty()
    }
}

impl TraceSink for FanoutSink {
    fn event(&mut self, event: &TraceEvent) {
        for sink in &self.sinks {
            sink.borrow_mut().event(event);
        }
    }

    fn batch(&mut self, events: &[TraceEvent]) {
        for sink in &self.sinks {
            sink.borrow_mut().batch(events);
        }
    }

    /// Binds every child and reads the union of their kinds, so each
    /// child may also receive kinds it did not ask for.
    fn bind(&mut self, ops_per_instr: &[u8]) -> EventKinds {
        let mut kinds = EventKinds::NONE;
        for sink in &self.sinks {
            kinds |= sink.borrow_mut().bind(ops_per_instr);
        }
        kinds
    }
}

impl std::fmt::Debug for FanoutSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "FanoutSink({} sinks)", self.sinks.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RingSink;

    #[test]
    fn disabled_handle_is_a_no_op() {
        let h = SinkHandle::disabled();
        assert!(!h.enabled());
        // The closure must not run when disabled.
        h.emit_with(|| unreachable!("disabled handle evaluated its event"));
        h.flush();
    }

    #[test]
    fn shared_handle_feeds_the_same_sink() {
        let ring = Rc::new(RefCell::new(RingSink::new(8)));
        let a = SinkHandle::from(ring.clone());
        let b = a.clone();
        a.emit(TraceEvent::InstrIssue {
            cycle: 0,
            pc: 0,
            ops: 1,
        });
        b.emit(TraceEvent::InstrIssue {
            cycle: 1,
            pc: 1,
            ops: 1,
        });
        // Events are staged until a flush (any clone drains the shared
        // buffer).
        assert_eq!(ring.borrow().len(), 0);
        b.flush();
        assert_eq!(ring.borrow().len(), 2);
    }

    #[test]
    fn buffer_drains_when_full() {
        let ring = Rc::new(RefCell::new(RingSink::new(4 * EMIT_BATCH)));
        let h = SinkHandle::from(ring.clone());
        for cycle in 0..EMIT_BATCH as u64 {
            h.emit(TraceEvent::InstrIssue {
                cycle,
                pc: 0,
                ops: 1,
            });
        }
        // Exactly one full batch: drained without an explicit flush.
        assert_eq!(ring.borrow().len(), EMIT_BATCH);
        h.emit(TraceEvent::InstrIssue {
            cycle: 99,
            pc: 0,
            ops: 1,
        });
        assert_eq!(
            ring.borrow().len(),
            EMIT_BATCH,
            "partial batch stays staged"
        );
        h.flush();
        assert_eq!(ring.borrow().len(), EMIT_BATCH + 1);
    }

    #[test]
    fn emit_now_bypasses_staging() {
        let ring = Rc::new(RefCell::new(RingSink::new(8)));
        let h = SinkHandle::from(ring.clone());
        h.emit_now(TraceEvent::FaultFlip {
            site: "data memory",
            byte: 3,
            bit: 1,
        });
        assert_eq!(ring.borrow().len(), 1);
    }

    /// Records the kind of every event it receives and reads `reads`.
    struct KindSink {
        reads: EventKinds,
        seen: Vec<&'static str>,
        ops: Vec<u8>,
    }

    impl KindSink {
        fn shared(reads: EventKinds) -> Rc<RefCell<KindSink>> {
            Rc::new(RefCell::new(KindSink {
                reads,
                seen: Vec::new(),
                ops: Vec::new(),
            }))
        }
    }

    impl TraceSink for KindSink {
        fn event(&mut self, event: &TraceEvent) {
            self.seen.push(event.kind());
        }

        fn bind(&mut self, ops_per_instr: &[u8]) -> EventKinds {
            self.ops = ops_per_instr.to_vec();
            self.reads
        }
    }

    /// One event of each of four kinds, emitted through every entry point.
    fn emit_mixed(h: &SinkHandle) {
        h.emit(TraceEvent::InstrIssue {
            cycle: 0,
            pc: 0,
            ops: 1,
        });
        h.emit(TraceEvent::OpDispatch {
            cycle: 0,
            pc: 0,
            slot: 0,
            unit: "alu",
            mnemonic: "iadd",
            executed: true,
        });
        h.emit_with(|| TraceEvent::PrefetchIssue {
            cycle: 1.0,
            base: 0x80,
        });
        h.emit_now(TraceEvent::FaultFlip {
            site: "data memory",
            byte: 0,
            bit: 0,
        });
        h.flush();
    }

    #[test]
    fn bound_handle_delivers_only_the_kinds_read() {
        let sink = KindSink::shared(EventKinds::INSTR_ISSUE);
        let h = SinkHandle::from(sink.clone());
        h.bind(&[3, 1]);
        assert!(h.wants(EventKinds::INSTR_ISSUE | EventKinds::OP_DISPATCH));
        assert!(!h.wants(EventKinds::OP_DISPATCH));
        emit_mixed(&h);
        let s = sink.borrow();
        assert_eq!(s.seen, ["instr_issue"]);
        assert_eq!(s.ops, [3, 1], "the op table reaches the sink");
    }

    #[test]
    fn unbound_handle_delivers_every_kind() {
        let sink = KindSink::shared(EventKinds::NONE);
        let h = SinkHandle::from(sink.clone());
        assert!(h.wants(EventKinds::ALL));
        emit_mixed(&h);
        assert_eq!(
            sink.borrow().seen,
            ["instr_issue", "op_dispatch", "prefetch_issue", "fault_flip"]
        );
        assert!(!SinkHandle::disabled().wants(EventKinds::ALL));
    }

    #[test]
    fn bind_flushes_events_staged_under_the_old_set() {
        let sink = KindSink::shared(EventKinds::NONE);
        let h = SinkHandle::from(sink.clone());
        h.emit(TraceEvent::InstrIssue {
            cycle: 0,
            pc: 0,
            ops: 1,
        });
        assert!(sink.borrow().seen.is_empty(), "staged, not delivered");
        h.bind(&[]);
        assert_eq!(sink.borrow().seen, ["instr_issue"]);
        h.emit(TraceEvent::InstrIssue {
            cycle: 1,
            pc: 0,
            ops: 1,
        });
        h.flush();
        assert_eq!(sink.borrow().seen.len(), 1, "the new set reads nothing");
    }

    #[test]
    fn fanout_binds_children_pushed_after_the_handle_to_their_union() {
        let a = KindSink::shared(EventKinds::INSTR_ISSUE);
        let b = KindSink::shared(EventKinds::PREFETCH_ISSUE);
        let fan = Rc::new(RefCell::new(FanoutSink::new()));
        let h = SinkHandle::from(fan.clone());
        fan.borrow_mut().push(a.clone());
        fan.borrow_mut().push(b.clone());
        h.bind(&[2]);
        assert_eq!(a.borrow().ops, [2]);
        assert_eq!(b.borrow().ops, [2]);
        emit_mixed(&h);
        // Each child receives the union, not just its own kinds.
        for child in [&a, &b] {
            assert_eq!(child.borrow().seen, ["instr_issue", "prefetch_issue"]);
        }
    }

    /// Keeps every event it receives and reads `reads`.
    struct Keep {
        reads: EventKinds,
        events: Vec<TraceEvent>,
    }

    impl TraceSink for Keep {
        fn event(&mut self, event: &TraceEvent) {
            self.events.push(*event);
        }

        fn bind(&mut self, _ops_per_instr: &[u8]) -> EventKinds {
            self.reads
        }
    }

    /// Binds a [`Keep`] reading `reads` to a two-instruction program.
    fn bound_keep(reads: EventKinds) -> (SinkHandle, Rc<RefCell<Keep>>) {
        let keep = Rc::new(RefCell::new(Keep {
            reads,
            events: Vec::new(),
        }));
        let h = SinkHandle::from(keep.clone());
        h.bind(&[1, 1]);
        (h, keep)
    }

    #[test]
    fn issue_counts_are_summed_per_pc_and_staged_at_flush() {
        let (h, keep) = bound_keep(EventKinds::ISSUE_COUNT);
        h.issue(0, 3, 2);
        h.issue(1, 1, 1);
        h.issue(2, 3, 0);
        assert!(keep.borrow().events.is_empty(), "counted, not staged");
        h.flush();
        let count = |pc, issues, exec_ops| TraceEvent::IssueCount {
            pc,
            issues,
            exec_ops,
        };
        // One event per PC that issued, in PC order; the table grows
        // past the bound program.
        assert_eq!(keep.borrow().events, [count(1, 1, 1), count(3, 2, 2)]);
        h.flush();
        assert_eq!(keep.borrow().events.len(), 2, "the counts restart at 0");
        h.issue(3, 1, 4);
        h.bind(&[1, 1]);
        assert_eq!(keep.borrow().events[2], count(1, 1, 4), "bind drains");
    }

    #[test]
    fn issue_builds_only_what_the_sink_reads() {
        let (h, keep) = bound_keep(EventKinds::ALL);
        h.issue(7, 0, 2);
        h.flush();
        let instr = TraceEvent::InstrIssue {
            cycle: 7,
            pc: 0,
            ops: 2,
        };
        assert_eq!(keep.borrow().events, [instr], "ALL has no issue counts");
        let (h, keep) = bound_keep(EventKinds::ALL | EventKinds::ISSUE_COUNT);
        h.issue(7, 0, 2);
        h.flush();
        let count = TraceEvent::IssueCount {
            pc: 0,
            issues: 1,
            exec_ops: 2,
        };
        assert_eq!(keep.borrow().events, [instr, count]);
        SinkHandle::disabled().issue(0, 0, 1);
    }

    #[test]
    fn fanout_forwards_to_all() {
        let r1 = Rc::new(RefCell::new(RingSink::new(4)));
        let r2 = Rc::new(RefCell::new(RingSink::new(4)));
        let mut fan = FanoutSink::new();
        fan.push(r1.clone());
        fan.push(r2.clone());
        assert_eq!(fan.len(), 2);
        let h = SinkHandle::from(Rc::new(RefCell::new(fan)));
        h.emit(TraceEvent::PrefetchIssue {
            cycle: 1.0,
            base: 0x80,
        });
        h.flush();
        assert_eq!(r1.borrow().len(), 1);
        assert_eq!(r2.borrow().len(), 1);
    }
}

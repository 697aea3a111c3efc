//! The cycle-approximate pipeline simulator (paper, §3 and Figure 4).
//!
//! The TM3270 pipeline is statically scheduled: there are **no hardware
//! interlocks**, so operation results become architecturally visible
//! exactly `latency` cycles after issue, and jump effects are delayed by
//! the architectural delay slots (5 on the TM3270, 3 on the TM3260). The
//! simulator models this faithfully — a mis-scheduled program reads stale
//! values, exactly like on silicon — on top of the timing contributed by
//! the instruction cache (stages I1–I3), the data cache and write buffer
//! (stages X1–X6, §4), the prefetch unit and the DRAM channel.

use crate::config::MachineConfig;
use crate::snapshot::Snapshot;
use tm3270_encode::snapshot::{
    Array, Bounded, Codec, Count, List, Nested, Opt, State, U32, U64, U8,
};
use tm3270_encode::{
    decode_program_detailed, encode_program, DecodeFault, EncodedProgram, SectionReader,
    SectionWriter, SnapshotError, SnapshotReader, SnapshotWriter,
};
use tm3270_isa::{
    execute, ld_frac8_value, pure_fn, super_ld32_words, value::sign_extend, Access, DataMemory,
    ExecError, Op, Program, PureFn, Reg, RegFile,
};
use tm3270_mem::{FullStats, MemorySystem, Region};
use tm3270_obs::{EventKinds, SinkHandle, StallCause, TraceEvent};

/// Default number of recent [`TraceRecord`]s the machine retains for
/// crash reports (the ring buffer of [`Machine::recent_trace`]);
/// configurable per machine via `MachineConfig::trace_ring`.
pub const TRACE_RING: usize = 16;

/// Default livelock watchdog: a run aborts with [`SimError::NoProgress`]
/// after this many cycles without a single executed (guard-true)
/// non-jump operation — pure control flow does not count as progress.
/// Generous enough that delay-slot nop padding and worst-case memory
/// stalls never trip it on real kernels.
pub const DEFAULT_WATCHDOG_CYCLES: u64 = 1_000_000;

/// Errors from constructing or running a simulation.
///
/// Every abnormal outcome of the decode → execute → memory path is a
/// variant here: the simulator never panics on program input, however
/// corrupted — it degrades into one of these, from which
/// [`Machine::crash_report`] can render a post-mortem.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// The program could not be encoded (assembler/encoder bug).
    Encode(tm3270_encode::EncodeError),
    /// The binary image could not be decoded back into a program
    /// (corrupted image).
    Decode {
        /// VLIW instruction index at which decoding failed.
        pc: usize,
        /// The underlying decode error.
        cause: tm3270_encode::EncodeError,
    },
    /// The image names an opcode that does not exist.
    InvalidOpcode {
        /// VLIW instruction index of the bad field.
        pc: usize,
        /// The opcode field as read from the image.
        code: u16,
    },
    /// The image names a register outside the 128-entry register file.
    RegisterOutOfRange {
        /// VLIW instruction index of the bad field.
        pc: usize,
        /// The register index as read from the image.
        index: u8,
    },
    /// A memory access violated a strict memory's alignment policy.
    MisalignedAccess {
        /// VLIW instruction index of the access.
        pc: usize,
        /// Effective byte address.
        addr: u32,
        /// Access width in bytes.
        size: u32,
    },
    /// A memory access fell outside a strict memory's bounds.
    OutOfBoundsAccess {
        /// VLIW instruction index of the access.
        pc: usize,
        /// Effective byte address.
        addr: u32,
        /// Access width in bytes.
        size: u32,
    },
    /// The livelock watchdog fired: no state-changing (non-jump)
    /// operation executed for too long — e.g. a jump-only loop in a
    /// corrupted program that will spin forever without computing.
    NoProgress {
        /// VLIW instruction index where the watchdog fired.
        pc: usize,
        /// Cycles elapsed since the last executed non-jump operation.
        cycles: u64,
    },
    /// The cycle budget was exhausted before the program halted.
    CycleLimit {
        /// The exhausted budget.
        limit: u64,
    },
    /// A branch was executed inside another branch's delay slots (the
    /// builder never emits this; hand-built programs might).
    BranchInDelaySlot {
        /// Instruction index of the offending branch.
        at: usize,
    },
    /// A taken branch's delay slots ran past the last instruction (the
    /// builder always pads them; hand-built or decoded programs might
    /// not).
    DelaySlotPastEnd {
        /// Instruction index the next delay slot would issue from.
        at: usize,
    },
}

impl SimError {
    /// The error of an operation at instruction `pc` that `execute`
    /// rejected.
    fn exec(pc: usize, e: ExecError) -> SimError {
        match e {
            ExecError::MisalignedAccess { addr, size } => {
                SimError::MisalignedAccess { pc, addr, size }
            }
            ExecError::OutOfBoundsAccess { addr, size } => {
                SimError::OutOfBoundsAccess { pc, addr, size }
            }
        }
    }

    /// A short stable name for the variant (campaign tallies, reports).
    pub fn kind(&self) -> &'static str {
        match self {
            SimError::Encode(_) => "Encode",
            SimError::Decode { .. } => "Decode",
            SimError::InvalidOpcode { .. } => "InvalidOpcode",
            SimError::RegisterOutOfRange { .. } => "RegisterOutOfRange",
            SimError::MisalignedAccess { .. } => "MisalignedAccess",
            SimError::OutOfBoundsAccess { .. } => "OutOfBoundsAccess",
            SimError::NoProgress { .. } => "NoProgress",
            SimError::CycleLimit { .. } => "CycleLimit",
            SimError::BranchInDelaySlot { .. } => "BranchInDelaySlot",
            SimError::DelaySlotPastEnd { .. } => "DelaySlotPastEnd",
        }
    }
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Encode(e) => write!(f, "program encoding failed: {e}"),
            SimError::Decode { pc, cause } => {
                write!(f, "image undecodable at instruction {pc}: {cause}")
            }
            SimError::InvalidOpcode { pc, code } => {
                write!(f, "invalid opcode {code:#04x} at instruction {pc}")
            }
            SimError::RegisterOutOfRange { pc, index } => {
                write!(f, "register index {index} out of range at instruction {pc}")
            }
            SimError::MisalignedAccess { pc, addr, size } => {
                write!(
                    f,
                    "misaligned {size}-byte access at {addr:#010x} (instruction {pc})"
                )
            }
            SimError::OutOfBoundsAccess { pc, addr, size } => {
                write!(
                    f,
                    "out-of-bounds {size}-byte access at {addr:#010x} (instruction {pc})"
                )
            }
            SimError::NoProgress { pc, cycles } => {
                write!(
                    f,
                    "watchdog: no operation executed for {cycles} cycles (pc {pc})"
                )
            }
            SimError::CycleLimit { limit } => {
                write!(f, "cycle limit of {limit} exhausted (runaway program?)")
            }
            SimError::BranchInDelaySlot { at } => {
                write!(f, "branch inside delay slots at instruction {at}")
            }
            SimError::DelaySlotPastEnd { at } => {
                write!(
                    f,
                    "delay slot past the end of the program at instruction {at}"
                )
            }
        }
    }
}

impl std::error::Error for SimError {}

impl From<tm3270_encode::EncodeError> for SimError {
    fn from(e: tm3270_encode::EncodeError) -> SimError {
        SimError::Encode(e)
    }
}

impl From<DecodeFault> for SimError {
    fn from(f: DecodeFault) -> SimError {
        match f.cause {
            tm3270_encode::EncodeError::InvalidOpcode { code } => {
                SimError::InvalidOpcode { pc: f.instr, code }
            }
            tm3270_encode::EncodeError::RegisterOutOfRange { index } => {
                SimError::RegisterOutOfRange { pc: f.instr, index }
            }
            cause => SimError::Decode { pc: f.instr, cause },
        }
    }
}

/// Statistics of one simulation run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunStats {
    /// Total cycles.
    pub cycles: u64,
    /// VLIW instructions issued.
    pub instrs: u64,
    /// Operations contained in issued instructions (including
    /// guarded-false operations).
    pub ops: u64,
    /// Operations whose guard was true.
    pub exec_ops: u64,
    /// Branch operations executed / taken.
    pub branches: u64,
    /// Taken branches.
    pub taken_branches: u64,
    /// Cycles lost to instruction-fetch stalls.
    pub ifetch_stall_cycles: u64,
    /// Cycles lost to data-side stalls.
    pub data_stall_cycles: u64,
    /// CPU clock in MHz, for wall-clock conversions.
    pub freq_mhz: u32,
    /// Memory-system statistics snapshot at the end of the run.
    pub mem: FullStats,
}

impl RunStats {
    /// Cycles per VLIW instruction (paper §5.2; 1.0 = no stalls).
    pub fn cpi(&self) -> f64 {
        self.cycles as f64 / self.instrs.max(1) as f64
    }

    /// Operations per VLIW instruction (paper §5.2: "effective operations
    /// per VLIW instruction").
    pub fn opi(&self) -> f64 {
        self.exec_ops as f64 / self.instrs.max(1) as f64
    }

    /// Wall-clock execution time in microseconds at the configured clock.
    pub fn time_us(&self) -> f64 {
        self.cycles as f64 / f64::from(self.freq_mhz)
    }
}

/// One executed VLIW instruction, as kept in the crash-report ring (see
/// [`Machine::recent_trace`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceRecord {
    /// Cycle at which the instruction issued (after front-end stalls).
    pub cycle: u64,
    /// Instruction index executed.
    pub pc: usize,
    /// Operations whose guard was true.
    pub ops_executed: u8,
    /// Front-end stall cycles paid before issue.
    pub ifetch_stall: u64,
    /// Data-side stall cycles paid by this instruction.
    pub data_stall: u64,
    /// Target of a taken branch, if any (effective after the delay slots).
    pub branch_taken: Option<usize>,
}

/// Options for one [`Machine::run_with`] call, the machine's run entry
/// point.
///
/// Build options fluently:
///
/// ```
/// use tm3270_core::RunOptions;
/// let opts = RunOptions::budget(1_000_000).watchdog(10_000).with_report();
/// # let _ = opts;
/// ```
#[derive(Debug, Clone, Copy)]
pub struct RunOptions {
    /// Cycle budget: the run ends in [`SimError::CycleLimit`] when the
    /// machine's cycle counter reaches it before the program halts.
    pub budget: u64,
    /// Livelock watchdog override (see [`Machine::set_watchdog`]);
    /// `None` keeps the machine's current setting.
    pub watchdog: Option<u64>,
    /// Capture a [`CrashReport`](crate::CrashReport) snapshot into
    /// [`RunOutcome::report`] when the run fails.
    pub report: bool,
}

impl RunOptions {
    /// Options with cycle budget `budget` and everything else off.
    pub fn budget(budget: u64) -> RunOptions {
        RunOptions {
            budget,
            watchdog: None,
            report: false,
        }
    }

    /// Sets the livelock watchdog for this run (and subsequent ones, like
    /// [`Machine::set_watchdog`]).
    pub fn watchdog(mut self, cycles: u64) -> RunOptions {
        self.watchdog = Some(cycles);
        self
    }

    /// Requests a [`CrashReport`](crate::CrashReport) snapshot in
    /// [`RunOutcome::report`] if the run fails.
    pub fn with_report(mut self) -> RunOptions {
        self.report = true;
        self
    }
}

/// The outcome of one [`Machine::run_with`] call.
#[derive(Debug)]
pub struct RunOutcome {
    /// Final run statistics on success, the typed error otherwise.
    pub result: Result<RunStats, SimError>,
    /// Post-mortem snapshot: present exactly when the run failed and
    /// [`RunOptions::with_report`] was set.
    pub report: Option<Box<crate::report::CrashReport>>,
}

impl RunOutcome {
    /// The run statistics, if the program halted within budget.
    pub fn stats(&self) -> Option<&RunStats> {
        self.result.as_ref().ok()
    }

    /// Unwraps into a plain `Result`, discarding any captured report.
    ///
    /// # Errors
    ///
    /// Propagates the run's [`SimError`].
    pub fn into_result(self) -> Result<RunStats, SimError> {
        self.result
    }
}

/// One predecoded micro-op of the issue plan: a flattened occupied slot
/// of a VLIW instruction with everything the dispatch loop would
/// otherwise re-derive per step — the pre-resolved writeback latency
/// ([`IssueModel::latency`](tm3270_isa::IssueModel::latency)), the issue
/// slot and the jump flag. `Op` is `Copy`, so the hot loop copies plan
/// entries to locals instead of borrowing across the execute call.
#[derive(Debug, Clone, Copy)]
struct PlannedOp {
    op: Op,
    slot: u8,
    latency: u8,
    is_jump: bool,
    /// Specialized register-pure evaluator
    /// ([`pure_fn`](tm3270_isa::pure_fn)): present for single-destination
    /// operations with no memory traffic and no control flow, letting the
    /// fused dispatch loop skip the full opcode match and `ExecResult`
    /// plumbing. `None` routes the op through [`execute`] unchanged.
    pure: Option<PureFn>,
    /// The op's access shape
    /// ([`Opcode::access`](tm3270_isa::Opcode::access)), the memory-side
    /// analogue of `pure`: the fused loop computes the address and calls
    /// the memory system directly instead of going through the full
    /// [`execute`] match. `None` for everything else (cache control,
    /// prefetch MMIO) — those take the generic path.
    fast_mem: Option<Access>,
    /// Whether the op touches the memory unit at all
    /// ([`Opcode::is_mem`](tm3270_isa::Opcode::is_mem)): a guard-true
    /// memory op on the generic path counts as a full-model call in
    /// [`EngineTelemetry::mem_calls`].
    mem: bool,
}

/// Per-instruction metadata of the issue plan: the occupied-slot range
/// in [`IssuePlan::ops`] plus the instruction's 32-byte-aligned fetch
/// chunk window (first and last chunk base address), precomputed from
/// the encoded image so the front end does no offset arithmetic per
/// step.
#[derive(Debug, Clone, Copy)]
struct PlannedInstr {
    start: u32,
    end: u32,
    first_chunk: u32,
    last_chunk: u32,
    /// Whether any op of the instruction touches the data cache (loads,
    /// stores, cache control, prefetch MMIO). Instructions without
    /// memory traffic cannot produce data stalls, so the fused loop
    /// skips the per-instruction memory-clock round trip for them
    /// (unless a prefetch is in flight, whose completion must still be
    /// absorbed on the exact cycle it would have been).
    has_mem: bool,
}

/// The predecoded issue plan: the architectural [`Program`] lowered at
/// machine-construction time into dense arrays the per-step path can
/// index directly — no `Instr` clone, no `ops()` filter-iterator, no
/// per-op latency lookup on the hot path. The `Program` itself stays
/// authoritative for traces, crash reports and the ISA tools; the plan
/// is a pure execution cache and never escapes the machine.
#[derive(Debug, Clone)]
struct IssuePlan {
    ops: Vec<PlannedOp>,
    instrs: Vec<PlannedInstr>,
}

impl IssuePlan {
    fn lower(
        program: &Program,
        image: &EncodedProgram,
        issue: &tm3270_isa::IssueModel,
    ) -> IssuePlan {
        let mut ops = Vec::new();
        let mut instrs = Vec::with_capacity(program.instrs.len());
        for (pc, instr) in program.instrs.iter().enumerate() {
            let start = ops.len() as u32;
            let mut has_mem = false;
            for (slot, op) in instr.ops() {
                has_mem |= op.opcode.is_mem();
                ops.push(PlannedOp {
                    op: *op,
                    slot: slot as u8,
                    latency: issue.latency(op.opcode) as u8,
                    is_jump: op.opcode.is_jump(),
                    pure: pure_fn(op.opcode),
                    fast_mem: op.opcode.access(),
                    mem: op.opcode.is_mem(),
                });
            }
            let addr = image.offsets[pc];
            let len = image.instr_size(pc).max(1);
            instrs.push(PlannedInstr {
                start,
                end: ops.len() as u32,
                first_chunk: addr & !31,
                last_chunk: addr.wrapping_add(len - 1) & !31,
                has_mem,
            });
        }
        IssuePlan { ops, instrs }
    }
}

/// Engine telemetry (see [`Machine::engine_telemetry`]). Advisory
/// counters — they are not part of [`RunStats`] and not serialized into
/// snapshots.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EngineTelemetry {
    /// Instructions executed by the fused dispatch loop. Every run path
    /// (traced, decoded-image and single-stepped ones included) takes
    /// that loop, so this equals the instructions issued on the machine.
    pub fused_instrs: u64,
    /// Demand accesses and cache-control operations the fused loop
    /// routed through the full `MemorySystem` model (one per guarded
    /// memory-unit op taking the `load_le`/`store_le`/`execute` path).
    /// Divided by `fused_instrs` this is the "calls per instruction"
    /// cost metric of EXPERIMENTS.md §Simulator throughput.
    pub mem_calls: u64,
    /// Always 0: the engine has no line-resident access windows, so no
    /// access bypasses the memory model. Kept only because the
    /// benchmark crate reads it; it goes away with the next change to
    /// the benchmark.
    pub window_hits: u64,
}

/// Ring capacity of the writeback scoreboard, in landing slots. Must
/// exceed the largest writeback latency
/// ([`IssueModel::max_latency`](tm3270_isa::IssueModel::max_latency),
/// 17 for the FTOUGH unit): a write pushed at instruction `i` lands at
/// `i + latency`, and slots at or below `i` have always been drained, so
/// live landing slots span less than `WRITE_RING` and never alias.
const WRITE_RING: usize = 32;

/// The most entries one writeback bucket can collect, and so the most a
/// snapshot may restore into one. An instruction contributes at most 10
/// writes (5 slots × 2 destinations), and at most one instruction per
/// distinct latency ({1, 2, 3, 4, 6, 17} and the configurable load
/// latency — see [`IssueModel::latency`](tm3270_isa::IssueModel::latency))
/// lands in a given slot.
const WRITE_BUCKET_CAP: usize = 7 * 10;

/// Storage per bucket: a restored bucket plus every push that can still
/// reach it in one pass over the program.
const WRITE_BUCKET_SLOTS: usize = 2 * WRITE_BUCKET_CAP;

/// The cycle-bucketed writeback scoreboard: in-flight register results
/// bucketed by landing slot modulo [`WRITE_RING`]. Landing slots are
/// counted in *issued instructions*, not raw cycles — a stall freezes
/// the whole pipeline (there are no interlocks), so in-flight results
/// advance in lock-step with issue. The per-step commit drains exactly
/// one bucket (the current instruction slot): O(1), no scan of
/// unrelated in-flight writes and no allocation.
#[derive(Debug, Clone)]
struct WriteRing {
    /// Bucket `b` holds `slots[b][..lens[b]]`, in push order.
    slots: Box<[[(Reg, u32); WRITE_BUCKET_SLOTS]; WRITE_RING]>,
    lens: [usize; WRITE_RING],
    /// Total entries across all buckets (so empty commits are a single
    /// compare).
    pending: usize,
    /// The lowest landing slot not yet drained. Advanced past `upto` on
    /// every commit — even empty ones — so a later push can never alias
    /// a stale bucket.
    next: u64,
}

impl WriteRing {
    fn new() -> WriteRing {
        WriteRing {
            slots: vec![[(Reg::ZERO, 0); WRITE_BUCKET_SLOTS]; WRITE_RING]
                .into_boxed_slice()
                .try_into()
                .expect("a Vec of WRITE_RING buckets"),
            lens: [0; WRITE_RING],
            pending: 0,
            next: 0,
        }
    }

    #[inline(always)]
    fn push(&mut self, land: u64, r: Reg, v: u32) {
        debug_assert!(land >= self.next, "write lands in an already-drained slot");
        debug_assert!(
            land - self.next < WRITE_RING as u64,
            "writeback latency exceeds the scoreboard ring"
        );
        let b = (land % WRITE_RING as u64) as usize;
        // A bucket fills up only when a run keeps re-executing an
        // instruction that stopped on an exec error: each attempt pushes
        // the writes of the ops before the faulting one again, and the
        // first attempt's entries win their slot anyway (earliest-pushed
        // wins), so dropping the repeats changes no register.
        if let Some(slot) = self.slots[b].get_mut(self.lens[b]) {
            *slot = (r, v);
            self.lens[b] += 1;
            self.pending += 1;
        }
    }

    /// The entries of bucket `b`, in push order.
    fn bucket(&self, b: usize) -> &[(Reg, u32)] {
        &self.slots[b][..self.lens[b]]
    }
}

/// The writeback buckets on the wire: 32 lists of `(register, value)`.
/// A bucket longer than its fixed storage is refused here; the `WRNG`
/// row bounds it tighter.
struct Buckets;

impl Codec<WriteRing> for Buckets {
    fn save(ring: &WriteRing, w: &mut SectionWriter<'_>) {
        for b in 0..WRITE_RING {
            List::<(U8, U32)>::save(&ring.bucket(b).to_vec(), w);
        }
    }

    fn load(ring: &mut WriteRing, r: &mut SectionReader<'_>) -> Result<(), SnapshotError> {
        for b in 0..WRITE_RING {
            let mut entries = Vec::new();
            List::<(U8, U32)>::load(&mut entries, r)?;
            ring.slots[b]
                .get_mut(..entries.len())
                .ok_or(SnapshotError::Corrupt {
                    what: "writeback bucket exceeds its storage",
                })?
                .copy_from_slice(&entries);
            ring.lens[b] = entries.len();
        }
        Ok(())
    }
}

/// A ring is bounded by its longest bucket.
impl Bounded for WriteRing {
    fn measure(&self) -> Option<u64> {
        self.lens.iter().max().map(|&len| len as u64)
    }

    fn set(&mut self, m: u64) {
        let longest = (0..WRITE_RING).max_by_key(|&b| self.lens[b]).unwrap_or(0);
        self.lens[longest] = (m as usize).min(WRITE_BUCKET_SLOTS);
    }
}

/// The crash-report ring: the last `cap` [`TraceRecord`]s, oldest at
/// `head` once full. Storage grows to `cap` on first use and is then
/// overwritten in place.
#[derive(Debug, Clone)]
struct TraceRing {
    records: Vec<TraceRecord>,
    head: usize,
    cap: usize,
}

impl TraceRing {
    fn new(cap: usize) -> TraceRing {
        TraceRing {
            records: Vec::new(),
            head: 0,
            cap,
        }
    }

    #[inline(always)]
    fn push(&mut self, rec: TraceRecord) {
        if self.records.len() < self.cap {
            self.records.push(rec);
        } else if self.cap > 0 {
            self.records[self.head] = rec;
            self.head += 1;
            if self.head == self.cap {
                self.head = 0;
            }
        }
    }

    /// The records, oldest first.
    fn iter(&self) -> impl Iterator<Item = &TraceRecord> {
        let (newer, older) = self.records.split_at(self.head);
        older.iter().chain(newer)
    }
}

/// The ring on the wire is its records, oldest first; a restored ring
/// starts at its oldest record, and the `TRCE` row bounds its length.
impl Codec<TraceRing> for List<Nested> {
    fn save(ring: &TraceRing, w: &mut SectionWriter<'_>) {
        List::<Nested>::save(&ring.iter().copied().collect::<Vec<_>>(), w);
    }

    fn load(ring: &mut TraceRing, r: &mut SectionReader<'_>) -> Result<(), SnapshotError> {
        ring.head = 0;
        List::<Nested>::load(&mut ring.records, r)
    }
}

impl Bounded for TraceRing {
    fn measure(&self) -> Option<u64> {
        Some(self.records.len() as u64)
    }

    fn set(&mut self, m: u64) {
        self.records = self.iter().copied().collect();
        self.records.set(m);
        self.head = 0;
    }
}

tm3270_encode::snapshot_table! {
    impl TraceRecord |r| {
        cycle: U64,
        pc: U64,
        ops_executed: U8,
        ifetch_stall: U64,
        data_stall: U64,
        branch_taken: Opt<U64>,
    }
}

/// An executable machine instance: configuration + program + memory state.
#[derive(Debug)]
pub struct Machine {
    config: MachineConfig,
    program: Program,
    image: EncodedProgram,
    regs: RegFile,
    mem: MemorySystem,
    pc: usize,
    cycle: u64,
    /// The predecoded execution cache of `program` (see [`IssuePlan`]).
    plan: IssuePlan,
    /// Engine counters (see [`EngineTelemetry`]).
    telemetry: EngineTelemetry,
    /// In-flight register results, bucketed by landing instruction slot
    /// (see [`WriteRing`]).
    writes: WriteRing,
    /// Taken branch awaiting its delay slots: (remaining slots, target).
    pending_branch: Option<(u32, usize)>,
    /// The 4-entry instruction buffer of stage P (§3): base addresses of
    /// the 32-byte aligned chunks most recently fetched from the
    /// instruction cache. Tight loops run entirely out of this buffer.
    ibuf: [u32; 4],
    ibuf_next: usize,
    stats: RunStats,
    /// Livelock watchdog limit in cycles (see
    /// [`DEFAULT_WATCHDOG_CYCLES`]); configurable via
    /// [`set_watchdog`](Machine::set_watchdog).
    watchdog_cycles: u64,
    /// Cycle at which the last guard-true operation executed.
    last_progress_cycle: u64,
    /// The last `config.trace_ring` trace records, always maintained
    /// (cheap) so crash reports can show recent history.
    trace_ring: TraceRing,
    /// Trace-event sink (disabled by default; see `tm3270-obs`). Shared
    /// with the memory system by [`Machine::attach_sink`].
    sink: SinkHandle,
    /// Whether the program came from the scheduler ([`Machine::new`]) and
    /// scheduler invariants (≤5 register writebacks per cycle) may be
    /// asserted, or from an arbitrary decoded image
    /// ([`Machine::from_image`]) where they may legitimately not hold.
    /// Read only by a debug-build assert in `commit_writes`.
    trusted_schedule: bool,
}

impl Machine {
    /// Creates a machine running `program` under `config`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Encode`] if the program cannot be encoded into
    /// its binary image (the image drives instruction-cache behaviour).
    pub fn new(config: MachineConfig, program: Program) -> Result<Machine, SimError> {
        let image = encode_program(&program)?;
        Ok(Machine::assemble(config, program, image, true))
    }

    /// Creates a machine by *decoding* a binary image — the load path of
    /// the fault-injection harness. Unlike [`Machine::new`], the program
    /// that runs is whatever the (possibly corrupted) image decodes to.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Decode`], [`SimError::InvalidOpcode`] or
    /// [`SimError::RegisterOutOfRange`] — with the failing instruction
    /// index — if the image cannot be decoded. Never panics, whatever
    /// the image contents.
    pub fn from_image(config: MachineConfig, image: EncodedProgram) -> Result<Machine, SimError> {
        let program = decode_program_detailed(&image)?;
        Ok(Machine::assemble(config, program, image, false))
    }

    fn assemble(
        config: MachineConfig,
        program: Program,
        image: EncodedProgram,
        trusted_schedule: bool,
    ) -> Machine {
        let mem = MemorySystem::new(config.mem.clone());
        let freq = config.freq_mhz();
        let mem_stats = mem.stats();
        debug_assert!(
            (config.issue.max_latency() as usize) < WRITE_RING,
            "writeback ring too small for the issue model"
        );
        let plan = IssuePlan::lower(&program, &image, &config.issue);
        let trace_ring = TraceRing::new(config.trace_ring);
        Machine {
            config,
            program,
            image,
            plan,
            telemetry: EngineTelemetry::default(),
            regs: RegFile::new(),
            mem,
            pc: 0,
            cycle: 0,
            writes: WriteRing::new(),
            pending_branch: None,
            ibuf: [u32::MAX; 4],
            ibuf_next: 0,
            stats: RunStats {
                cycles: 0,
                instrs: 0,
                ops: 0,
                exec_ops: 0,
                branches: 0,
                taken_branches: 0,
                ifetch_stall_cycles: 0,
                data_stall_cycles: 0,
                freq_mhz: freq,
                mem: mem_stats,
            },
            watchdog_cycles: DEFAULT_WATCHDOG_CYCLES,
            last_progress_cycle: 0,
            trace_ring,
            sink: SinkHandle::disabled(),
            trusted_schedule,
        }
    }

    /// Attaches a trace sink: pipeline events (instruction issue, op
    /// dispatch, stalls, branches, the watchdog) and memory-system
    /// events all flow to it. The sink is bound to this program
    /// ([`SinkHandle::bind`], with each instruction's static op count)
    /// and receives only the event kinds it reads. Pass
    /// [`SinkHandle::disabled`] to detach.
    pub fn attach_sink(&mut self, sink: SinkHandle) {
        if sink.enabled() {
            let ops: Vec<u8> = self
                .plan
                .instrs
                .iter()
                .map(|i| (i.end - i.start) as u8)
                .collect();
            sink.bind(&ops);
        }
        self.mem.attach_sink(sink.clone());
        self.sink = sink;
    }

    /// The machine configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.config
    }

    /// The encoded binary image of the program.
    pub fn image(&self) -> &EncodedProgram {
        &self.image
    }

    /// Reads a register (architectural state; in-flight results are not
    /// visible).
    pub fn reg(&self, r: Reg) -> u32 {
        self.regs.read(r)
    }

    /// Writes a register before the run starts (kernel arguments).
    pub fn set_reg(&mut self, r: Reg, value: u32) {
        self.regs.write(r, value);
    }

    /// Copies `data` into the flat data memory at `addr`.
    pub fn load_data(&mut self, addr: u32, data: &[u8]) {
        self.mem.flat_mut().store_bytes(addr, data);
    }

    /// Reads `len` bytes of flat data memory at `addr`.
    ///
    /// Allocates a fresh buffer per call; verification loops that probe
    /// memory repeatedly should prefer [`Machine::read_data_into`].
    pub fn read_data(&self, addr: u32, len: usize) -> Vec<u8> {
        let mut buf = vec![0u8; len];
        self.read_data_into(addr, &mut buf);
        buf
    }

    /// Reads `buf.len()` bytes of flat data memory at `addr` into `buf`
    /// without allocating — the golden-checksum verification paths call
    /// this once per probe, so sweeps pay no per-probe heap traffic.
    /// Addresses wrap at the flat-memory boundary, like
    /// [`read_data`](Machine::read_data).
    pub fn read_data_into(&self, addr: u32, buf: &mut [u8]) {
        self.mem.flat().read_into(addr, buf);
    }

    /// Configures a hardware prefetch region (the `PFn_*` registers,
    /// paper §2.3) before or during a run.
    pub fn set_prefetch_region(&mut self, region: u8, r: Region) {
        self.mem.set_prefetch_region(region, r);
    }

    /// Direct access to the memory system.
    pub fn mem(&self) -> &MemorySystem {
        &self.mem
    }

    /// The program this machine executes (decoded form).
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// Engine counters (see [`EngineTelemetry`]). Counts accumulate
    /// across runs on this machine; they are advisory and never
    /// snapshotted.
    pub fn engine_telemetry(&self) -> EngineTelemetry {
        self.telemetry
    }

    /// Current program counter (VLIW instruction index).
    pub fn pc(&self) -> usize {
        self.pc
    }

    /// Current cycle count.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Sets the livelock watchdog: the run aborts with
    /// [`SimError::NoProgress`] after `cycles` cycles without a single
    /// executed non-jump operation. Defaults to
    /// [`DEFAULT_WATCHDOG_CYCLES`].
    pub fn set_watchdog(&mut self, cycles: u64) {
        self.watchdog_cycles = cycles.max(1);
    }

    /// The last up-to-`config.trace_ring` trace records (default
    /// [`TRACE_RING`]), oldest first. Maintained on every step
    /// regardless of tracing mode.
    pub fn recent_trace(&self) -> impl Iterator<Item = &TraceRecord> {
        self.trace_ring.iter()
    }

    /// An order-sensitive FNV-1a digest of the 128 architectural
    /// registers — a compact regfile fingerprint for crash reports and
    /// divergence checks.
    pub fn reg_digest(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for i in 0..128u8 {
            for b in self.regs.read(Reg::new(i)).to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x100_0000_01b3);
            }
        }
        h
    }

    fn commit_writes(&mut self, upto: u64) {
        if self.writes.pending > 0 {
            let mut cc = self.writes.next;
            while cc <= upto && self.writes.pending > 0 {
                let b = (cc % WRITE_RING as u64) as usize;
                let bucket = self.writes.bucket(b);
                // Up to five simultaneous register-file updates per cycle
                // (stage W, paper §3). The scheduler guarantees this for
                // `Machine::new` programs; assert it there (in debug
                // builds) as a scheduler-bug tripwire. Programs decoded
                // from arbitrary images (`Machine::from_image`, the
                // fault-injection path) can violate the write-port
                // budget — on silicon that is an undefined hardware
                // conflict; the functional model simply applies all
                // writes deterministically rather than panicking.
                debug_assert!(
                    !self.trusted_schedule || bucket.len() <= 5,
                    "more than five register-file writes in one cycle"
                );
                // Reverse push order: on a same-register collision within
                // one landing slot the earliest-pushed write wins.
                for &(r, v) in bucket.iter().rev() {
                    self.regs.write(r, v);
                }
                self.writes.pending -= self.writes.lens[b];
                self.writes.lens[b] = 0;
                cc += 1;
            }
        }
        // Advance past `upto` even when nothing landed, so a later push
        // can never map two live landing slots to the same bucket.
        self.writes.next = self.writes.next.max(upto.saturating_add(1));
    }

    /// The run statistics accumulated so far, with the cycle counter
    /// and the memory-system snapshot filled in exactly as
    /// [`run_with`](Machine::run_with) fills them at halt — the mid-run
    /// `inspect` surface of the session API. Cheap enough to call
    /// between run slices; it never perturbs the machine.
    pub fn stats_snapshot(&self) -> RunStats {
        let mut stats = self.stats;
        stats.cycles = self.cycle;
        stats.mem = self.mem.stats();
        stats
    }

    /// Whether the program has halted (fell off the end).
    pub fn is_halted(&self) -> bool {
        self.pc >= self.program.instrs.len() && self.pending_branch.is_none()
    }

    /// Executes one VLIW instruction: a run with a budget one cycle
    /// ahead, which stops after the first instruction because every
    /// instruction advances the cycle counter by at least one. A no-op on
    /// a halted machine. Trace events stay staged in the sink's buffer
    /// until it is flushed.
    ///
    /// # Errors
    ///
    /// See [`SimError`].
    pub fn step(&mut self) -> Result<(), SimError> {
        self.run_engine(self.cycle.saturating_add(1))
    }

    /// One engine run to `budget`: the `TRACING` instantiation of
    /// [`run_fused`](Machine::run_fused) a sink asks for. Debug builds
    /// check that the seam it stops at is a state
    /// [`restore`](Machine::restore) accepts.
    fn run_engine(&mut self, budget: u64) -> Result<(), SimError> {
        let run = if self.sink.enabled() {
            self.run_fused::<true>(budget)
        } else {
            self.run_fused::<false>(budget)
        };
        debug_assert_eq!(self.well_formed(), Ok(()), "engine left an ill-formed seam");
        run
    }

    /// Outlined trace emission for one dispatched operation (the
    /// `OpDispatch` event, plus `BranchResolve` for jumps). Kept out of
    /// line because the mnemonic/unit name tables are large; only the
    /// `TRACING = true` instantiation of [`run_fused`](Machine::run_fused)
    /// calls it.
    #[cold]
    #[inline(never)]
    fn emit_op_events(
        &self,
        cycle: u64,
        pc: usize,
        po: &PlannedOp,
        executed: bool,
        branch_target: Option<u32>,
    ) {
        let op = &po.op;
        self.sink.emit(TraceEvent::OpDispatch {
            cycle,
            pc,
            slot: po.slot,
            unit: op.opcode.unit().name(),
            mnemonic: op.opcode.mnemonic(),
            executed,
        });
        if po.is_jump {
            self.sink.emit(TraceEvent::BranchResolve {
                cycle,
                pc,
                target: branch_target.map(|t| t as usize),
                taken: executed && branch_target.is_some(),
            });
        }
    }

    /// Outlined stall emission: a balanced `StallBegin`/`StallEnd` pair
    /// spanning `[begin, begin + cycles)`, attributed to the VLIW
    /// instruction at `pc` (about to issue for ifetch stalls, just
    /// issued for data stalls).
    #[cold]
    #[inline(never)]
    fn emit_stall(&self, begin: u64, cause: StallCause, cycles: u64, pc: usize) {
        self.sink.emit(TraceEvent::StallBegin {
            cycle: begin,
            cause,
            pc,
        });
        self.sink.emit(TraceEvent::StallEnd {
            cycle: begin + cycles,
            cause,
            cycles,
            pc,
        });
    }

    /// The engine: runs instructions back-to-back until the program
    /// halts, the cycle budget is reached, or a typed error fires. Each
    /// instruction pays its front-end stall (stages I1–I3 + P), commits
    /// the results landing at its slot, issues every operation against
    /// the same architectural state, and pays its data stall. Overhead is
    /// removed, never timing:
    ///
    /// - Register-pure ops dispatch through their precomputed
    ///   [`PureFn`] pointer (guard check + evaluate + scoreboard push),
    ///   and simple loads/stores through their [`Access`] shape,
    ///   skipping the full opcode match and
    ///   [`ExecResult`](tm3270_isa::ExecResult) plumbing. Jumps, cache
    ///   control, prefetch MMIO and everything else take the generic
    ///   [`execute`] path.
    /// - Run statistics accumulate in locals and flush to `self` on
    ///   every exit path, so budget boundaries, halts and errors observe
    ///   exact counters.
    ///
    /// `begin_instr`/`take_stall` bracket every instruction with memory
    /// ops or a prefetch in flight (prefetch absorption and data-stall
    /// timing are `mem`-state dependent), the writeback ring commits per
    /// instruction slot, and the watchdog and delay-slot bookkeeping run
    /// per instruction.
    ///
    /// Monomorphized over `TRACING`: the `false` instantiation contains
    /// no emission code at all; the `true` one tags memory events with
    /// the issuing pc and emits the `IFetch` stall, `OpDispatch` and
    /// `BranchResolve` per op, `InstrIssue`, the `Data` stall and
    /// `WatchdogFired`, in that order. The per-op events are skipped
    /// outright when the bound sink reads neither kind.
    fn run_fused<const TRACING: bool>(&mut self, budget: u64) -> Result<(), SimError> {
        let op_events = TRACING
            && self
                .sink
                .wants(EventKinds::OP_DISPATCH | EventKinds::BRANCH_RESOLVE);
        let len = self.plan.instrs.len();
        let delay_slots = self.config.issue.jump_delay_slots;

        let mut pc = self.pc;
        let mut cycle = self.cycle;
        let mut pending = self.pending_branch;
        let mut last_progress = self.last_progress_cycle;
        let mut instrs = self.stats.instrs;
        let mut ops = self.stats.ops;
        let mut exec_ops = self.stats.exec_ops;
        let mut branches = self.stats.branches;
        let mut taken = self.stats.taken_branches;
        let mut istall_total = self.stats.ifetch_stall_cycles;
        let mut dstall_total = self.stats.data_stall_cycles;
        let mut mem_calls = 0u64;

        macro_rules! flush {
            () => {
                self.telemetry.fused_instrs += instrs - self.stats.instrs;
                self.telemetry.mem_calls += mem_calls;
                self.pc = pc;
                self.cycle = cycle;
                self.pending_branch = pending;
                self.last_progress_cycle = last_progress;
                self.stats.instrs = instrs;
                self.stats.ops = ops;
                self.stats.exec_ops = exec_ops;
                self.stats.branches = branches;
                self.stats.taken_branches = taken;
                self.stats.ifetch_stall_cycles = istall_total;
                self.stats.data_stall_cycles = dstall_total;
            };
        }

        loop {
            if pc >= len || cycle >= budget {
                flush!();
                // A branch still waiting for delay slots that would issue
                // past the last instruction has nowhere to fetch from.
                if pc >= len && pending.is_some() && cycle < budget {
                    return Err(SimError::DelaySlotPastEnd { at: pc });
                }
                return Ok(());
            }
            let ipc = pc;
            if TRACING {
                // Tag memory-side events (cache accesses) with the
                // requesting instruction.
                self.mem.set_pc(ipc);
            }
            let PlannedInstr {
                start,
                end,
                first_chunk,
                last_chunk,
                has_mem,
            } = self.plan.instrs[ipc];

            // Front end: every chunk of the window not in the instruction
            // buffer is fetched through the instruction cache.
            let mut istall = 0u64;
            let mut chunk = first_chunk;
            while chunk <= last_chunk {
                if !self.ibuf.contains(&chunk) {
                    istall += self.mem.fetch_instr(cycle + istall, chunk, 32);
                    self.ibuf[self.ibuf_next] = chunk;
                    self.ibuf_next = (self.ibuf_next + 1) % self.ibuf.len();
                }
                chunk = chunk.wrapping_add(32);
            }
            if TRACING && istall > 0 {
                self.emit_stall(cycle, StallCause::IFetch, istall, ipc);
            }
            cycle += istall;
            istall_total += istall;

            self.commit_writes(instrs);

            let issue_cycle = cycle;
            // Instructions without memory ops cannot stall on data and
            // never advance the memory clock observably — unless a
            // prefetch is in flight, whose completion must be absorbed
            // at exactly this cycle (fills and copy-back timing depend
            // on it). The clock itself still tracks every instruction
            // (`set_now`), because snapshots serialize it.
            let mem_active = has_mem || self.mem.prefetch_in_flight();
            if mem_active {
                self.mem.begin_instr(issue_cycle);
            } else {
                self.mem.set_now(issue_cycle);
            }

            ops += u64::from(end - start);
            let mut branch_target: Option<usize> = None;
            let mut exec_here = 0u8;
            let mut progress = false;
            for po in &self.plan.ops[start as usize..end as usize] {
                // Results land `latency` instruction slots after issue.
                let land = instrs + u64::from(po.latency);
                if let Some(pf) = po.pure {
                    let executed = self.regs.guard(po.op.guard);
                    if executed {
                        exec_ops += 1;
                        exec_here += 1;
                        progress = true;
                        let v = pf(
                            self.regs.read(po.op.srcs[0]),
                            self.regs.read(po.op.srcs[1]),
                            po.op.imm,
                        );
                        self.writes.push(land, po.op.dsts[0], v);
                    }
                    if op_events {
                        self.emit_op_events(issue_cycle, ipc, po, executed, None);
                    }
                } else if let Some(fm) = po.fast_mem {
                    // Directly dispatched load/store: same semantics as
                    // the matching `execute` arm, minus the giant opcode
                    // match and the `ExecResult` round trip.
                    let executed = self.regs.guard(po.op.guard);
                    if executed {
                        exec_ops += 1;
                        exec_here += 1;
                        progress = true;
                        let err = match fm {
                            Access::Load {
                                bytes,
                                sext,
                                indexed,
                            } => {
                                let off = if indexed {
                                    self.regs.read(po.op.srcs[1])
                                } else {
                                    po.op.imm as u32
                                };
                                let addr = self.regs.read(po.op.srcs[0]).wrapping_add(off);
                                match self.mem.check_access(addr, u32::from(bytes)) {
                                    Ok(()) => {
                                        mem_calls += 1;
                                        let v = self.mem.load_le(addr, bytes as usize);
                                        let v = if sext {
                                            sign_extend(v, u32::from(bytes) * 8)
                                        } else {
                                            v
                                        };
                                        self.writes.push(land, po.op.dsts[0], v);
                                        None
                                    }
                                    Err(e) => Some(e),
                                }
                            }
                            Access::Store { bytes } => {
                                let addr =
                                    self.regs.read(po.op.srcs[0]).wrapping_add(po.op.imm as u32);
                                match self.mem.check_access(addr, u32::from(bytes)) {
                                    Ok(()) => {
                                        let v = self.regs.read(po.op.srcs[1]);
                                        mem_calls += 1;
                                        self.mem.store_le(addr, bytes as usize, v);
                                        None
                                    }
                                    Err(e) => Some(e),
                                }
                            }
                            Access::SuperLoad => {
                                let addr = self
                                    .regs
                                    .read(po.op.srcs[0])
                                    .wrapping_add(self.regs.read(po.op.srcs[1]));
                                match self.mem.check_access(addr, 8) {
                                    Ok(()) => {
                                        let mut buf = [0u8; 8];
                                        mem_calls += 1;
                                        self.mem.load_bytes(addr, &mut buf);
                                        let (w1, w2) = super_ld32_words(buf);
                                        self.writes.push(land, po.op.dsts[0], w1);
                                        self.writes.push(land, po.op.dsts[1], w2);
                                        None
                                    }
                                    Err(e) => Some(e),
                                }
                            }
                            Access::FracLoad => {
                                let addr = self.regs.read(po.op.srcs[0]);
                                match self.mem.check_access(addr, 5) {
                                    Ok(()) => {
                                        let mut data = [0u8; 5];
                                        mem_calls += 1;
                                        self.mem.load_bytes(addr, &mut data);
                                        let v = ld_frac8_value(data, self.regs.read(po.op.srcs[1]));
                                        self.writes.push(land, po.op.dsts[0], v);
                                        None
                                    }
                                    Err(e) => Some(e),
                                }
                            }
                        };
                        if let Some(e) = err {
                            flush!();
                            return Err(SimError::exec(ipc, e));
                        }
                    }
                    if op_events {
                        self.emit_op_events(issue_cycle, ipc, po, executed, None);
                    }
                } else {
                    // Guard-true memory-unit ops (cache control,
                    // prefetch MMIO, super-stores) are full-model calls
                    // too; guard-false ones have no memory effect.
                    if po.mem && self.regs.guard(po.op.guard) {
                        mem_calls += 1;
                    }
                    let res = match execute(&po.op, &self.regs, &mut self.mem) {
                        Ok(res) => res,
                        Err(e) => {
                            flush!();
                            return Err(SimError::exec(ipc, e));
                        }
                    };
                    if op_events {
                        self.emit_op_events(issue_cycle, ipc, po, res.executed, res.branch_target);
                    }
                    if res.executed {
                        exec_ops += 1;
                        exec_here += 1;
                        if !po.is_jump {
                            progress = true;
                        }
                    }
                    if po.is_jump {
                        branches += 1;
                    }
                    for (r, v) in res.write_iter() {
                        self.writes.push(land, r, v);
                    }
                    if let Some(t) = res.branch_target {
                        taken += 1;
                        branch_target = Some(t as usize);
                    }
                }
            }

            if TRACING {
                self.sink.emit(TraceEvent::InstrIssue {
                    cycle: issue_cycle,
                    pc: ipc,
                    ops: exec_here,
                });
            }
            let dstall = if mem_active { self.mem.take_stall() } else { 0 };
            if TRACING && dstall > 0 {
                self.emit_stall(issue_cycle + 1, StallCause::Data, dstall, ipc);
            }
            dstall_total += dstall;
            cycle += 1 + dstall;
            instrs += 1;

            if progress {
                last_progress = cycle;
            } else {
                let idle = cycle - last_progress;
                if idle >= self.watchdog_cycles {
                    self.sink.emit_with(|| TraceEvent::WatchdogFired {
                        cycle,
                        pc: ipc,
                        idle,
                    });
                    flush!();
                    return Err(SimError::NoProgress {
                        pc: ipc,
                        cycles: idle,
                    });
                }
            }

            if let Some(target) = branch_target {
                if pending.is_some() {
                    flush!();
                    return Err(SimError::BranchInDelaySlot { at: ipc });
                }
                pending = Some((delay_slots, target));
                pc += 1;
            } else {
                match &mut pending {
                    Some((remaining, target)) => {
                        *remaining -= 1;
                        if *remaining == 0 {
                            pc = *target;
                            pending = None;
                        } else {
                            pc += 1;
                        }
                    }
                    None => pc += 1,
                }
            }

            self.trace_ring.push(TraceRecord {
                cycle: issue_cycle,
                pc: ipc,
                ops_executed: exec_here,
                ifetch_stall: istall,
                data_stall: dstall,
                branch_taken: branch_target,
            });
        }
    }

    /// The unified run entry point: runs until the program halts or the
    /// budget is exhausted, honouring the watchdog override and
    /// crash-report capture in `opts`. Traced runs (a sink attached)
    /// take the `TRACING = true` instantiation of the same loop, so they
    /// produce the same architectural state, statistics and snapshots as
    /// untraced ones.
    ///
    /// Both the success statistics and the typed error travel in the
    /// [`RunOutcome`], alongside the optional post-mortem snapshot;
    /// [`RunOutcome::into_result`] drops the snapshot.
    pub fn run_with(&mut self, opts: RunOptions) -> RunOutcome {
        if let Some(cycles) = opts.watchdog {
            self.set_watchdog(cycles);
        }
        let result = loop {
            if self.is_halted() {
                // Drain in-flight results.
                self.commit_writes(u64::MAX);
                self.stats.cycles = self.cycle;
                self.stats.mem = self.mem.stats();
                break Ok(self.stats);
            }
            if self.cycle >= opts.budget {
                break Err(SimError::CycleLimit { limit: opts.budget });
            }
            // Returns at a halt or budget boundary (handled by the checks
            // above on the next pass) or with a typed error.
            if let Err(e) = self.run_engine(opts.budget) {
                break Err(e);
            }
        };
        debug_assert_eq!(self.well_formed(), Ok(()), "run left an ill-formed state");
        // Drain staged trace events (success and crash paths alike) so
        // sinks are complete when the caller reads them.
        self.sink.flush();
        let report = match &result {
            Err(e) if opts.report => Some(Box::new(self.crash_report(e.clone()))),
            _ => None,
        };
        RunOutcome { result, report }
    }

    /// Takes a post-mortem snapshot for `error`: machine position,
    /// regfile digest, the recent-trace ring buffer and a full
    /// restorable [`Snapshot`], so the crash can be re-materialized and
    /// single-stepped. Render it via its `Display` impl (see
    /// `core/report.rs`).
    pub fn crash_report(&self, error: SimError) -> crate::report::CrashReport {
        crate::report::CrashReport {
            error,
            pc: self.pc,
            cycle: self.cycle,
            instrs: self.stats.instrs,
            reg_digest: self.reg_digest(),
            ring_size: self.config.trace_ring,
            trace: self.trace_ring.iter().copied().collect(),
            snapshot: Some(self.snapshot()),
        }
    }

    /// Serializes the complete mutable machine state — registers,
    /// PC/issue state, the writeback scoreboard, the trace ring and the
    /// whole memory system — into a versioned [`Snapshot`], one section
    /// per group of the machine's snapshot table. Restoring it with
    /// [`restore`](Machine::restore) on a machine built from the same
    /// configuration and program continues the run bit-identically to
    /// one that was never interrupted.
    ///
    /// This is a cold-path method: nothing is precomputed or tracked for
    /// it during stepping, so a machine that never snapshots pays zero
    /// cost for the capability.
    pub fn snapshot(&self) -> Snapshot {
        let mut w = SnapshotWriter::new();
        w.sections(|w| self.save_state(w));
        Snapshot::from_bytes(w.finish())
    }

    /// Restores state captured by [`snapshot`](Machine::snapshot): decodes
    /// every row of the snapshot table, then checks
    /// [`well_formed`](Machine::well_formed). The machine must have been
    /// built from the same configuration and program image as the one
    /// that was snapshotted; the configuration, program, issue plan,
    /// engine telemetry and trace sink are kept.
    ///
    /// # Errors
    ///
    /// [`SnapshotError`] on a bad magic, a different format version,
    /// truncation, checksum failure, a value a row's codec does not
    /// carry (a counter above
    /// [`SNAPSHOT_COUNT_LIMIT`](tm3270_encode::SNAPSHOT_COUNT_LIMIT), a
    /// clock outside `0..=SNAPSHOT_COUNT_LIMIT`, an undefined flag), or a
    /// state outside a row's invariant. Never panics, whatever the bytes,
    /// and neither does a run from an accepted state. After an error the
    /// machine is unchanged.
    pub fn restore(&mut self, snap: &Snapshot) -> Result<(), SnapshotError> {
        let reader = SnapshotReader::parse(snap.as_bytes())?;
        let mut next = Machine::assemble(
            self.config.clone(),
            self.program.clone(),
            self.image.clone(),
            self.trusted_schedule,
        );
        next.load_state(&mut reader.sections())?;
        next.well_formed()?;
        next.telemetry = self.telemetry;
        next.mem.attach_sink(self.sink.clone());
        next.sink = self.sink.clone();
        *self = next;
        Ok(())
    }

    /// Whether a halted machine has drained its writeback ring, which
    /// parks the ring's cursor at `u64::MAX`.
    fn drained(&self) -> bool {
        self.writes.next == u64::MAX && self.writes.pending == 0 && self.is_halted()
    }

    /// The most writes one landing slot collects: the five write ports
    /// for a scheduled program, else [`WRITE_BUCKET_CAP`].
    fn bucket_cap(&self) -> u64 {
        if self.trusted_schedule {
            5
        } else {
            WRITE_BUCKET_CAP as u64
        }
    }
}

// The snapshot table of the machine: the mutable state, section by
// section. The configuration, program, issue plan, telemetry and trace
// sink are not state. The writeback cursor is `instrs` at every run
// seam, `instrs + 1` when an exec error stopped an instruction midway
// and `u64::MAX` once a halted machine drained its results. Only at an
// exec-error seam can a bucket hold more than one pass of writes: each
// retry of the faulting instruction pushes its earlier ops' writes again.
tm3270_encode::snapshot_table! {
    impl Machine |m| {
        b"CORE": Section,
        pc: U64,
        cycle: Count,
        ibuf: Array<U32>,
        ibuf_next: U64 where [0, m.ibuf.len() as u64 - 1],
        pending_branch: Opt<(U32, U64)> where [1, m.config.issue.jump_delay_slots.into()],
        watchdog_cycles: U64 where [1, u64::MAX],
        last_progress_cycle: U64 where [0, m.cycle],
        (stats.cycles): Count,
        (stats.instrs): Count,
        (stats.ops): Count,
        (stats.exec_ops): Count,
        (stats.branches): Count,
        (stats.taken_branches): Count,
        (stats.ifetch_stall_cycles): Count,
        (stats.data_stall_cycles): Count,
        (stats.freq_mhz): U32 where [m.config.freq_mhz().into(), m.config.freq_mhz().into()],
        (stats.mem): Nested,
        b"REGS": Section,
        regs: Array<U32>,
        b"WRNG": Section,
        (writes.next): U64 where [m.stats.instrs, m.stats.instrs + 1] unless m.drained(),
        writes: Buckets where [0, m.bucket_cap()] unless m.writes.next == m.stats.instrs + 1,
        b"TRCE": Section,
        trace_ring: List<Nested> where [0, m.config.trace_ring as u64],
        b"MEMS": Section,
        mem: Nested,
    }
    after_load {
        m.writes.pending = m.writes.lens.iter().sum();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tm3270_asm::ProgramBuilder;
    use tm3270_isa::{IssueModel, Op, Opcode};

    fn r(i: u8) -> Reg {
        Reg::new(i)
    }

    fn run_on(config: MachineConfig, f: impl FnOnce(&mut ProgramBuilder)) -> (Machine, RunStats) {
        let mut b = ProgramBuilder::new(config.issue);
        f(&mut b);
        let program = b.build().expect("schedulable");
        let mut m = Machine::new(config, program).expect("encodable");
        let stats = m
            .run_with(RunOptions::budget(10_000_000))
            .into_result()
            .expect("halts");
        (m, stats)
    }

    #[test]
    fn straight_line_arithmetic() {
        let (m, stats) = run_on(MachineConfig::tm3270(), |b| {
            b.op(Op::imm(r(2), 21));
            b.op(Op::imm(r(3), 2));
            b.op(Op::rrr(Opcode::Imul, r(4), r(2), r(3)));
        });
        assert_eq!(m.reg(r(4)), 42);
        assert!(stats.instrs >= 4, "imul latency drains");
    }

    #[test]
    fn loop_executes_correct_iterations() {
        // Sum 1..=10 with a counted loop.
        let (m, stats) = run_on(MachineConfig::tm3270(), |b| {
            b.op(Op::imm(r(2), 10)); // counter
            b.op(Op::imm(r(4), 0)); // sum
            let top = b.bind_here();
            b.op(Op::rrr(Opcode::Iadd, r(4), r(4), r(2)));
            b.op(Op::rri(Opcode::Iaddi, r(2), r(2), -1));
            b.op(Op::rri(Opcode::Igtri, r(3), r(2), 0));
            b.jump_if(r(3), top);
        });
        assert_eq!(m.reg(r(4)), 55);
        assert!(stats.taken_branches == 9 || stats.taken_branches == 10);
    }

    #[test]
    fn loop_works_on_both_machines() {
        for config in [MachineConfig::tm3260(), MachineConfig::tm3270()] {
            let (m, _) = run_on(config, |b| {
                b.op(Op::imm(r(2), 5));
                b.op(Op::imm(r(4), 0));
                let top = b.bind_here();
                b.op(Op::rrr(Opcode::Iadd, r(4), r(4), r(2)));
                b.op(Op::rri(Opcode::Iaddi, r(2), r(2), -1));
                b.op(Op::rri(Opcode::Igtri, r(3), r(2), 0));
                b.jump_if(r(3), top);
            });
            assert_eq!(m.reg(r(4)), 15);
        }
    }

    #[test]
    fn memory_round_trip_through_cache() {
        let (m, stats) = run_on(MachineConfig::tm3270(), |b| {
            b.op(Op::imm(r(2), 0x1000));
            b.op(Op::imm(r(3), 0x55aa_1234_u32 as i32));
            b.op(Op::new(Opcode::St32d, Reg::ONE, &[r(2), r(3)], &[], 0));
            b.op(Op::rri(Opcode::Ld32d, r(4), r(2), 0));
        });
        assert_eq!(m.reg(r(4)), 0x55aa_1234);
        assert!(stats.data_stall_cycles == 0, "allocate-on-write: no stall");
    }

    #[test]
    fn cold_load_miss_stalls() {
        let (_, stats) = run_on(MachineConfig::tm3270(), |b| {
            b.op(Op::imm(r(2), 0x2000));
            b.op(Op::rri(Opcode::Ld32d, r(4), r(2), 0));
        });
        assert!(stats.data_stall_cycles > 0);
        assert!(stats.cpi() > 1.0);
    }

    #[test]
    fn guarded_store_suppressed() {
        let (m, _) = run_on(MachineConfig::tm3270(), |b| {
            b.op(Op::imm(r(2), 0x1000));
            b.op(Op::imm(r(3), 77));
            b.op(Op::imm(r(5), 0)); // guard false
            b.op(Op::new(Opcode::St32d, r(5), &[r(2), r(3)], &[], 0));
            b.op(Op::rri(Opcode::Ld32d, r(4), r(2), 0));
        });
        assert_eq!(m.reg(r(4)), 0, "guarded-off store must not write");
    }

    #[test]
    fn delay_slot_instructions_execute() {
        // The builder pads delay slots with nops; verify an op placed by
        // the scheduler inside the shadow still executes by observing a
        // loop's side effects (covered in loop test) and by counting
        // instrs: a taken branch costs delay+1 instruction issues.
        let config = MachineConfig::tm3270();
        let (_, stats) = run_on(config, |b| {
            b.op(Op::imm(r(2), 1));
            let skip = b.label();
            b.op(Op::rri(Opcode::Igtri, r(3), r(2), 0));
            b.jump_if(r(3), skip);
            b.bind(skip);
            b.op(Op::rrr(Opcode::Iadd, r(4), r(2), r(2)));
        });
        assert!(stats.instrs > 1 + 1 + 5, "delay slots are issued");
    }

    #[test]
    fn tm3260_and_tm3270_time_scale_with_frequency() {
        // A pure-compute loop: cycles are similar, wall-clock differs by
        // the clock ratio.
        let body = |b: &mut ProgramBuilder| {
            b.op(Op::imm(r(2), 200));
            b.op(Op::imm(r(4), 0));
            let top = b.bind_here();
            // Compute the loop condition early, then a serial compute
            // chain long enough to amortize the branch shadow (as real
            // kernels do via unrolling).
            b.op(Op::rri(Opcode::Iaddi, r(2), r(2), -1));
            b.op(Op::rri(Opcode::Igtri, r(3), r(2), 0));
            for _ in 0..10 {
                b.op(Op::rrr(Opcode::Iadd, r(4), r(4), r(2)));
            }
            b.jump_if(r(3), top);
        };
        let (_, s60) = run_on(MachineConfig::tm3260(), body);
        let (_, s70) = run_on(MachineConfig::tm3270(), body);
        let speedup = s60.time_us() / s70.time_us();
        assert!(
            speedup > 1.1 && speedup < 1.8,
            "compute-bound speedup close to the 350/240 clock ratio, got {speedup}"
        );
    }

    #[test]
    fn stats_opi_cpi_sane() {
        let (_, stats) = run_on(MachineConfig::tm3270(), |b| {
            for i in 0..20 {
                b.op(Op::imm(r(10 + (i % 100) as u8), i));
            }
        });
        assert!(stats.opi() > 1.0, "parallel iimms pack");
        assert!(stats.cpi() >= 1.0);
    }

    #[test]
    fn tight_loops_run_from_the_instruction_buffer() {
        // A loop body spanning at most 4 x 32-byte chunks re-executes
        // without touching the instruction cache (§3: the 4-entry
        // instruction buffer decouples the front end).
        let config = MachineConfig::tm3270();
        let mut b = ProgramBuilder::new(config.issue);
        b.op(Op::imm(r(2), 500));
        let top = b.bind_here();
        b.op(Op::rri(Opcode::Iaddi, r(2), r(2), -1));
        b.op(Op::rri(Opcode::Igtri, r(3), r(2), 0));
        b.jump_if(r(3), top);
        let mut m = Machine::new(config, b.build().unwrap()).unwrap();
        let stats = m
            .run_with(RunOptions::budget(10_000_000))
            .into_result()
            .unwrap();
        assert!(
            stats.mem.mem.ifetches < 20,
            "loop served from the instruction buffer, got {} fetches for {} instrs",
            stats.mem.mem.ifetches,
            stats.instrs
        );
        assert!(stats.instrs > 1000);
    }

    #[test]
    fn software_call_return_executes_correctly() {
        // End-to-end: the TriMedia software call/return convention
        // (materialized return address + ijmpi) through the full pipeline
        // with delay slots.
        let config = MachineConfig::tm3270();
        let mut b = ProgramBuilder::new(config.issue);
        let func = b.label();
        let done = b.label();
        let link = r(30);
        b.op(Op::imm(r(2), 5));
        b.call(link, func);
        b.op(Op::rrr(Opcode::Iadd, r(4), r(10), Reg::ZERO));
        b.op(Op::imm(r(2), 11));
        b.call(link, func);
        b.op(Op::rrr(Opcode::Iadd, r(5), r(10), Reg::ZERO));
        b.jump(done);
        b.bind(func);
        b.op(Op::rrr(Opcode::Iadd, r(10), r(2), r(2)));
        b.ret(link);
        b.bind(done);
        b.op(Op::rrr(Opcode::Iadd, r(6), r(4), r(5)));
        let mut m = Machine::new(config, b.build().unwrap()).unwrap();
        m.run_with(RunOptions::budget(1_000_000))
            .into_result()
            .unwrap();
        assert_eq!(m.reg(r(4)), 10, "first call doubled 5");
        assert_eq!(m.reg(r(5)), 22, "second call doubled 11");
        assert_eq!(m.reg(r(6)), 32);
    }

    #[test]
    fn dual_stores_issue_in_one_instruction() {
        // §4.2: both slot 4 and slot 5 carry store units (dual tag
        // copies); two disjoint stores schedule into one instruction and
        // both take effect.
        let config = MachineConfig::tm3270();
        let mut b = ProgramBuilder::new(config.issue);
        b.op(Op::imm(r(2), 0x1000));
        b.op(Op::imm(r(3), 0x11));
        b.op(Op::imm(r(4), 0x22));
        b.op(Op::new(Opcode::St32d, Reg::ONE, &[r(2), r(3)], &[], 0));
        b.op(Op::new(Opcode::St32d, Reg::ONE, &[r(2), r(4)], &[], 4));
        let p = b.build().unwrap();
        // Find the instruction carrying stores: both must be in it.
        let store_instr = p
            .instrs
            .iter()
            .find(|i| i.ops().any(|(_, o)| o.opcode == Opcode::St32d))
            .unwrap();
        assert_eq!(
            store_instr
                .ops()
                .filter(|(_, o)| o.opcode == Opcode::St32d)
                .count(),
            2,
            "dual store in one VLIW instruction"
        );
        let mut m = Machine::new(config, p).unwrap();
        m.run_with(RunOptions::budget(1_000_000))
            .into_result()
            .unwrap();
        assert_eq!(&m.read_data(0x1000, 8)[..], &[0x11, 0, 0, 0, 0x22, 0, 0, 0]);
    }

    #[test]
    fn super_ld32r_counts_against_the_load_port() {
        // SUPER_LD32R is issued in slots 4+5 and uses the single cache
        // access path (§4.2): no other load can share its instruction,
        // but it still doubles load bandwidth vs two plain loads.
        let config = MachineConfig::tm3270();
        let plain = {
            let mut b = ProgramBuilder::new(config.issue);
            b.op(Op::imm(r(2), 0x2000));
            for i in 0..8 {
                b.op(Op::rri(Opcode::Ld32d, r(10 + i), r(2), i as i32 * 4));
            }
            let p = b.build().unwrap();
            Machine::new(config.clone(), p)
                .unwrap()
                .run_with(RunOptions::budget(100_000))
                .into_result()
                .unwrap()
        };
        let wide = {
            let mut b = ProgramBuilder::new(config.issue);
            b.op(Op::imm(r(2), 0x2000));
            for i in 0..4 {
                b.op(Op::imm(r(30 + i), i as i32 * 8));
                b.op(Op::new(
                    Opcode::SuperLd32r,
                    Reg::ONE,
                    &[r(2), r(30 + i)],
                    &[r(10 + 2 * i), r(11 + 2 * i)],
                    0,
                ));
            }
            let p = b.build().unwrap();
            Machine::new(config.clone(), p)
                .unwrap()
                .run_with(RunOptions::budget(100_000))
                .into_result()
                .unwrap()
        };
        assert!(
            wide.instrs < plain.instrs,
            "SUPER_LD32R halves the load-bound instruction count: {} vs {}",
            wide.instrs,
            plain.instrs
        );
    }

    #[test]
    fn trace_records_cover_the_run() {
        let mut config = MachineConfig::tm3270();
        // A ring larger than the run keeps every record.
        config.trace_ring = 1_000;
        let mut b = ProgramBuilder::new(config.issue);
        b.op(Op::imm(r(2), 3));
        let top = b.bind_here();
        b.op(Op::rri(Opcode::Iaddi, r(2), r(2), -1));
        b.op(Op::rri(Opcode::Igtri, r(3), r(2), 0));
        b.jump_if(r(3), top);
        let mut m = Machine::new(config, b.build().unwrap()).unwrap();
        let stats = m
            .run_with(RunOptions::budget(1_000_000))
            .into_result()
            .unwrap();
        let records: Vec<TraceRecord> = m.recent_trace().copied().collect();
        assert_eq!(records.len() as u64, stats.instrs);
        // Cycles are monotonically increasing.
        for w in records.windows(2) {
            assert!(w[1].cycle > w[0].cycle);
        }
        // The taken branches appear in the trace.
        let takes = records
            .iter()
            .filter(|rec| rec.branch_taken.is_some())
            .count();
        assert_eq!(takes as u64, stats.taken_branches);
        // Total executed ops agree.
        let ops: u64 = records.iter().map(|rec| u64::from(rec.ops_executed)).sum();
        assert_eq!(ops, stats.exec_ops);
    }

    #[test]
    fn cycle_limit_detects_runaway() {
        let mut b = ProgramBuilder::new(IssueModel::tm3270());
        let top = b.bind_here();
        b.op(Op::rri(Opcode::Iaddi, r(2), r(2), 1));
        b.jump(top); // infinite loop
        let program = b.build().unwrap();
        let mut m = Machine::new(MachineConfig::tm3270(), program).unwrap();
        assert!(matches!(
            m.run_with(RunOptions::budget(10_000)).into_result(),
            Err(SimError::CycleLimit { limit: 10_000 })
        ));
    }

    #[test]
    fn static_latency_contract_visible() {
        // Reading a load destination before the load latency elapses gets
        // the stale value: schedule two instructions by hand.
        use tm3270_isa::{Instr, Program};
        let mut p = Program::new();
        let mut i0 = Instr::nop();
        i0.place(Op::imm(r(2), 0x1000), 0);
        i0.place(Op::imm(r(3), 0x1234), 1);
        i0.place(Op::imm(r(4), 999), 2);
        // Store warms the line (allocate-on-write-miss: no stall), so the
        // following load hits and its only delay is the 4-cycle latency.
        let mut i1 = Instr::nop();
        i1.place(Op::new(Opcode::St32d, Reg::ONE, &[r(2), r(3)], &[], 0), 3);
        let mut i2 = Instr::nop();
        i2.place(Op::rri(Opcode::Ld32d, r(4), r(2), 0), 4);
        let mut i3 = Instr::nop();
        // Reads r4 one cycle after the load issued: too early (lat 4).
        i3.place(Op::rrr(Opcode::Iadd, r(5), r(4), r(0)), 0);
        p.instrs.push(i0);
        p.instrs.push(i1);
        p.instrs.push(i2);
        p.instrs.push(i3);
        // Pad so the load result lands before the program ends.
        for _ in 0..6 {
            p.instrs.push(Instr::nop());
        }
        let mut m = Machine::new(MachineConfig::tm3270(), p).unwrap();
        m.run_with(RunOptions::budget(1_000_000))
            .into_result()
            .unwrap();
        // The add read r4 before the load's write-back: stale value.
        assert_eq!(m.reg(r(5)), 999, "no interlock: stale value read");
        assert_eq!(m.reg(r(4)), 0x1234, "load eventually landed");
    }

    #[test]
    fn no_progress_watchdog_detects_jump_only_loop() {
        // A loop whose body contains nothing but the back-edge jump:
        // every iteration takes cycles but computes nothing. CycleLimit
        // would eventually catch it; the watchdog catches it fast.
        let mut b = ProgramBuilder::new(IssueModel::tm3270());
        let top = b.bind_here();
        b.jump(top);
        let program = b.build().unwrap();
        let mut m = Machine::new(MachineConfig::tm3270(), program).unwrap();
        m.set_watchdog(500);
        match m.run_with(RunOptions::budget(1_000_000)).into_result() {
            Err(SimError::NoProgress { cycles, .. }) => assert!(cycles >= 500),
            other => panic!("expected NoProgress, got {other:?}"),
        }
    }

    #[test]
    fn watchdog_ignores_productive_loops() {
        // The same loop with one arithmetic op per iteration never trips
        // even a tight watchdog — jumps alone don't count, writes do.
        let mut b = ProgramBuilder::new(IssueModel::tm3270());
        b.op(Op::imm(r(2), 400));
        b.op(Op::imm(r(3), 0));
        let top = b.bind_here();
        b.op(Op::rri(Opcode::Iaddi, r(3), r(3), 1));
        b.op(Op::rri(Opcode::Iaddi, r(2), r(2), -1));
        b.op(Op::rrr(Opcode::Igtr, r(4), r(2), r(0)));
        b.jump_if(r(4), top);
        let program = b.build().unwrap();
        let mut m = Machine::new(MachineConfig::tm3270(), program).unwrap();
        m.set_watchdog(100);
        m.run_with(RunOptions::budget(10_000_000))
            .into_result()
            .unwrap();
        assert_eq!(m.reg(r(3)), 400);
    }

    #[test]
    fn branch_in_delay_slot_is_a_typed_error() {
        use tm3270_isa::{Instr, Program};
        let mut p = Program::new();
        let mut i0 = Instr::nop();
        i0.place(Op::new(Opcode::Jmpi, Reg::ONE, &[], &[], 3), 1);
        let mut i1 = Instr::nop();
        i1.place(Op::new(Opcode::Jmpi, Reg::ONE, &[], &[], 4), 1);
        p.instrs.push(i0);
        p.instrs.push(i1);
        for _ in 0..8 {
            p.instrs.push(Instr::nop());
        }
        p.jump_targets = vec![3, 4];
        let mut m = Machine::new(MachineConfig::tm3270(), p).unwrap();
        assert_eq!(
            m.run_with(RunOptions::budget(1_000_000)).into_result(),
            Err(SimError::BranchInDelaySlot { at: 1 })
        );
    }

    /// `[iaddi r2, r2, 1]`, then `[jmpi 0]` in slot 1: the taken jump's
    /// delay slots would issue past the last instruction.
    fn jump_off_the_end() -> tm3270_isa::Program {
        use tm3270_isa::{Instr, Program};
        let mut p = Program::new();
        let mut i0 = Instr::nop();
        i0.place(Op::rri(Opcode::Iaddi, r(2), r(2), 1), 0);
        let mut i1 = Instr::nop();
        i1.place(Op::new(Opcode::Jmpi, Reg::ONE, &[], &[], 0), 1);
        p.instrs.push(i0);
        p.instrs.push(i1);
        p
    }

    #[test]
    fn delay_slots_past_the_end_are_a_typed_error() {
        let program = jump_off_the_end();
        let image = encode_program(&program).unwrap();
        let machines = [
            Machine::new(MachineConfig::tm3270(), program).unwrap(),
            Machine::from_image(MachineConfig::tm3270(), image).unwrap(),
        ];
        for mut m in machines {
            let outcome = m.run_with(RunOptions::budget(1_000));
            assert_eq!(outcome.result, Err(SimError::DelaySlotPastEnd { at: 2 }));
            assert_eq!(m.pc(), 2);
            assert!(!m.is_halted(), "a pending branch is not a halt");
        }

        // Single-stepping reaches the same error after the two
        // instructions.
        let mut m = Machine::new(MachineConfig::tm3270(), jump_off_the_end()).unwrap();
        m.step().unwrap();
        m.step().unwrap();
        assert_eq!(m.step(), Err(SimError::DelaySlotPastEnd { at: 2 }));
    }

    #[test]
    fn step_on_a_halted_machine_is_a_no_op() {
        let mut b = ProgramBuilder::new(IssueModel::tm3270());
        b.op(Op::imm(r(2), 7));
        let mut m = Machine::new(MachineConfig::tm3270(), b.build().unwrap()).unwrap();
        while !m.is_halted() {
            m.step().unwrap();
        }
        let before = m.snapshot().into_bytes();
        for _ in 0..3 {
            m.step().unwrap();
        }
        assert!(m.is_halted());
        assert_eq!(m.snapshot().into_bytes(), before);
        assert_eq!(m.engine_telemetry().fused_instrs, m.stats_snapshot().instrs);
    }

    #[test]
    fn strict_config_reports_misaligned_access() {
        let mut config = MachineConfig::tm3270();
        config.mem.strict_access = true;
        let mut b = ProgramBuilder::new(config.issue);
        b.op(Op::rri(Opcode::Ld32d, r(3), r(0), 2));
        let mut m = Machine::new(config, b.build().unwrap()).unwrap();
        match m.run_with(RunOptions::budget(1_000_000)).into_result() {
            Err(SimError::MisalignedAccess {
                addr: 2, size: 4, ..
            }) => {}
            other => panic!("expected MisalignedAccess, got {other:?}"),
        }
    }

    #[test]
    fn retrying_a_faulting_instruction_keeps_its_first_writes() {
        // `iadd r5` issues alongside a misaligned load that faults: every
        // retry re-executes the instruction and pushes the add's result
        // again, far more often than a writeback bucket has room for.
        use tm3270_isa::{Instr, Program};
        let mut config = MachineConfig::tm3270();
        config.mem.strict_access = true;
        let mut p = Program::new();
        let mut i0 = Instr::nop();
        i0.place(Op::imm(r(2), 2), 0);
        i0.place(Op::imm(r(3), 7), 1);
        let mut i1 = Instr::nop();
        i1.place(Op::rrr(Opcode::Iadd, r(5), r(3), r(3)), 0);
        i1.place(Op::rri(Opcode::Ld32d, r(4), r(2), 0), 4);
        p.instrs.push(i0);
        p.instrs.push(i1);
        let mut m = Machine::from_image(config, encode_program(&p).unwrap()).unwrap();
        for _ in 0..(2 * WRITE_BUCKET_SLOTS) {
            let outcome = m.run_with(RunOptions::budget(1_000_000));
            assert!(matches!(
                outcome.result,
                Err(SimError::MisalignedAccess { pc: 1, .. })
            ));
        }
        let mut resumed = Machine::from_image(m.config.clone(), m.image.clone()).unwrap();
        resumed.restore(&m.snapshot()).unwrap();
        m.commit_writes(u64::MAX);
        assert_eq!(m.reg(r(5)), 14);
    }

    #[test]
    fn strict_config_reports_out_of_bounds_access() {
        let mut config = MachineConfig::tm3270();
        config.mem.strict_access = true;
        config.mem.mem_size = 1 << 16;
        let mut b = ProgramBuilder::new(config.issue);
        b.op(Op::imm(r(2), 1 << 16));
        b.op(Op::rri(Opcode::Ld32d, r(3), r(2), 0));
        let mut m = Machine::new(config, b.build().unwrap()).unwrap();
        match m.run_with(RunOptions::budget(1_000_000)).into_result() {
            Err(SimError::OutOfBoundsAccess { addr, size: 4, .. }) => {
                assert_eq!(addr, 1 << 16);
            }
            other => panic!("expected OutOfBoundsAccess, got {other:?}"),
        }
    }

    #[test]
    fn permissive_config_wraps_instead_of_erroring() {
        // The same out-of-window access under the default (architectural)
        // configuration: the TM3270 has penalty-free non-aligned access
        // and our functional window wraps, so the run completes.
        let mut config = MachineConfig::tm3270();
        config.mem.mem_size = 1 << 16;
        let mut b = ProgramBuilder::new(config.issue);
        b.op(Op::imm(r(2), 1 << 16));
        b.op(Op::rri(Opcode::Ld32d, r(3), r(2), 1));
        let mut m = Machine::new(config, b.build().unwrap()).unwrap();
        m.run_with(RunOptions::budget(1_000_000))
            .into_result()
            .unwrap();
    }

    #[test]
    fn decode_fault_mapping_carries_pc() {
        use tm3270_encode::{DecodeFault, EncodeError};
        assert_eq!(
            SimError::from(DecodeFault {
                instr: 3,
                cause: EncodeError::InvalidOpcode { code: 999 },
            }),
            SimError::InvalidOpcode { pc: 3, code: 999 }
        );
        assert_eq!(
            SimError::from(DecodeFault {
                instr: 7,
                cause: EncodeError::RegisterOutOfRange { index: 200 },
            }),
            SimError::RegisterOutOfRange { pc: 7, index: 200 }
        );
        let other = SimError::from(DecodeFault {
            instr: 1,
            cause: EncodeError::Corrupt("offset table length mismatch"),
        });
        assert!(matches!(other, SimError::Decode { pc: 1, .. }));
    }

    #[test]
    fn truncated_image_yields_typed_decode_error() {
        let mut b = ProgramBuilder::new(IssueModel::tm3270());
        for i in 0..12 {
            b.op(Op::imm(r(2 + (i % 8)), i32::from(i) * 1000));
        }
        let program = b.build().unwrap();
        let mut image = tm3270_encode::encode_program(&program).unwrap();
        image.offsets.truncate(2);
        let err = Machine::from_image(MachineConfig::tm3270(), image).unwrap_err();
        assert_eq!(err.kind(), "Decode");
    }

    #[test]
    fn sim_error_kinds_are_distinct_and_displayed() {
        use tm3270_encode::EncodeError;
        let all = [
            SimError::Encode(EncodeError::BadTarget { index: 9 }),
            SimError::Decode {
                pc: 0,
                cause: EncodeError::Corrupt("x"),
            },
            SimError::InvalidOpcode { pc: 1, code: 2 },
            SimError::RegisterOutOfRange { pc: 1, index: 3 },
            SimError::MisalignedAccess {
                pc: 1,
                addr: 2,
                size: 4,
            },
            SimError::OutOfBoundsAccess {
                pc: 1,
                addr: 2,
                size: 4,
            },
            SimError::NoProgress { pc: 1, cycles: 2 },
            SimError::CycleLimit { limit: 3 },
            SimError::BranchInDelaySlot { at: 4 },
            SimError::DelaySlotPastEnd { at: 5 },
        ];
        let kinds: std::collections::HashSet<&str> = all.iter().map(|e| e.kind()).collect();
        assert_eq!(kinds.len(), all.len(), "every variant has a unique kind");
        for e in &all {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn run_with_unifies_the_run_variants() {
        let build = || {
            let config = MachineConfig::tm3270();
            let mut b = ProgramBuilder::new(config.issue);
            b.op(Op::imm(r(2), 6));
            b.op(Op::imm(r(3), 7));
            b.op(Op::rrr(Opcode::Imul, r(4), r(2), r(3)));
            Machine::new(config, b.build().unwrap()).unwrap()
        };

        // A plain run succeeds without a report.
        let mut plain = build();
        let outcome = plain.run_with(RunOptions::budget(1_000_000));
        assert!(outcome.report.is_none());
        let plain_stats = outcome.into_result().unwrap();
        assert_eq!(plain.reg(r(4)), 42);

        // A sink sees every issued instruction, and tracing changes no
        // statistic.
        let mut traced = build();
        let counters = std::rc::Rc::new(std::cell::RefCell::new(tm3270_obs::CounterSink::new()));
        traced.attach_sink(SinkHandle::from(counters.clone()));
        let stats = traced
            .run_with(RunOptions::budget(1_000_000))
            .into_result()
            .unwrap();
        assert_eq!(counters.borrow().buckets().issue, stats.instrs);
        assert_eq!(stats, plain_stats);

        // Budget exhaustion with report capture: the outcome carries both
        // the typed error and the snapshot.
        let mut limited = build();
        let outcome = limited.run_with(RunOptions::budget(1).with_report());
        assert_eq!(outcome.result, Err(SimError::CycleLimit { limit: 1 }));
        let report = outcome.report.expect("report requested");
        assert_eq!(report.error.kind(), "CycleLimit");

        // The watchdog option takes effect for the run.
        let mut b = ProgramBuilder::new(IssueModel::tm3270());
        let top = b.bind_here();
        b.jump(top);
        let mut spin = Machine::new(MachineConfig::tm3270(), b.build().unwrap()).unwrap();
        let outcome = spin.run_with(RunOptions::budget(1_000_000).watchdog(500));
        assert!(matches!(outcome.result, Err(SimError::NoProgress { .. })));
        assert!(outcome.report.is_none(), "report not requested");
    }

    #[test]
    fn crash_report_snapshots_machine_state() {
        let mut config = MachineConfig::tm3270();
        config.mem.strict_access = true;
        let mut b = ProgramBuilder::new(config.issue);
        // Data dependencies force the faulting load into a later
        // instruction, so the trace ring has history when it fires.
        b.op(Op::imm(r(2), 2));
        b.op(Op::rri(Opcode::Iaddi, r(4), r(2), 0));
        b.op(Op::rri(Opcode::Ld32d, r(3), r(4), 0));
        let mut m = Machine::new(config, b.build().unwrap()).unwrap();
        let outcome = m.run_with(RunOptions::budget(1_000_000).with_report());
        assert!(outcome.result.is_err());
        let report = outcome.report.expect("crash report captured");
        assert_eq!(report.error.kind(), "MisalignedAccess");
        assert_eq!(report.reg_digest, m.reg_digest());
        assert!(!report.trace.is_empty(), "ring buffer captured history");
        let rendered = report.to_string();
        for needle in ["crash report", "MisalignedAccess", "pc", "trace"] {
            assert!(rendered.contains(needle), "missing {needle}: {rendered}");
        }
    }
}

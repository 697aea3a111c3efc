//! A reference model of the pipeline timing, for differential tests of
//! [`Machine`].
//!
//! One plain loop over VLIW instructions, built only from public APIs:
//! the machine's decoded program and image offsets,
//! [`IssueModel::latency`](tm3270_isa::IssueModel::latency),
//! [`tm3270_isa::execute`], a cloned [`MemorySystem`] and a `Vec` of
//! pending register writes — the shape of the engine the
//! `engine_equivalence` goldens were captured from. It has none of the
//! engine's shortcuts: no latency-1 writeback lane, no fetch probe floor,
//! no pure or fast-memory dispatch, no tracing. Every instruction probes
//! its whole fetch window, starts the memory clock with `begin_instr`,
//! and runs every operation through `execute`.

use tm3270_core::{Machine, RunStats, SimError, DEFAULT_WATCHDOG_CYCLES};
use tm3270_encode::SnapshotWriter;
use tm3270_isa::{execute, ExecError, Reg, RegFile};
use tm3270_mem::MemorySystem;
use tm3270_obs::SinkHandle;

/// Everything a run is compared on: statistics, register digest, pc,
/// cycle and the memory system's state bytes.
#[derive(Debug, PartialEq)]
pub struct Outcome {
    /// Final run statistics.
    pub stats: RunStats,
    /// FNV-1a digest of the 128 registers ([`Machine::reg_digest`]).
    pub reg_digest: u64,
    /// Final program counter.
    pub pc: usize,
    /// Final cycle.
    pub cycle: u64,
    /// The memory system's serialized state (a snapshot's `MEMS`
    /// section).
    pub mem: Vec<u8>,
}

impl Outcome {
    /// The outcome of `machine`, whose run ended with `stats`.
    pub fn of(machine: &Machine, stats: RunStats) -> Outcome {
        Outcome {
            stats,
            reg_digest: machine.reg_digest(),
            pc: machine.pc(),
            cycle: machine.cycle(),
            mem: mem_state(machine.mem()),
        }
    }
}

fn mem_state(mem: &MemorySystem) -> Vec<u8> {
    let mut w = SnapshotWriter::new();
    w.section(*b"MEMS", |s| mem.save_state(s));
    w.finish()
}

/// Runs the reference model from the start state of `machine`, which
/// must not have run yet (kernel setup is copied over), until the
/// program halts or the cycle counter reaches `budget`.
///
/// # Errors
///
/// The [`SimError`] the program raises, or [`SimError::CycleLimit`].
pub fn run_reference(machine: &Machine, budget: u64) -> Result<Outcome, SimError> {
    assert_eq!(machine.cycle(), 0, "the reference starts from reset");
    let issue = machine.config().issue;
    let program = machine.program();
    let image = machine.image();
    let n = program.instrs.len();
    let mut regs = RegFile::new();
    for i in 0..128u8 {
        regs.write(Reg::new(i), machine.reg(Reg::new(i)));
    }
    let mut mem = machine.mem().clone();
    mem.attach_sink(SinkHandle::disabled());
    let mut stats = machine.stats_snapshot();
    // In-flight results: (landing instruction slot, register, value).
    let mut pending: Vec<(u64, Reg, u32)> = Vec::new();
    let mut ibuf = [u32::MAX; 4];
    let mut ibuf_next = 0;
    let (mut pc, mut cycle, mut last_progress) = (0usize, 0u64, 0u64);
    // Taken branch awaiting its delay slots: (remaining slots, target).
    let mut branch: Option<(u32, usize)> = None;

    // Applies the writes landing at or before slot `upto`: landing slots
    // in order, and within a slot the earliest-pushed write last, so it
    // wins a same-register collision.
    let commit = |pending: &mut Vec<(u64, Reg, u32)>, regs: &mut RegFile, upto: u64| {
        if pending.iter().all(|w| w.0 > upto) {
            return;
        }
        let mut due: Vec<_> = pending.iter().copied().enumerate().collect();
        due.retain(|(_, w)| w.0 <= upto);
        pending.retain(|w| w.0 > upto);
        due.sort_by_key(|&(i, (land, ..))| (land, std::cmp::Reverse(i)));
        for (_, (_, r, v)) in due {
            regs.write(r, v);
        }
    };

    loop {
        if pc >= n && branch.is_none() {
            commit(&mut pending, &mut regs, u64::MAX);
            stats.cycles = cycle;
            stats.mem = mem.stats();
            let mut reg_digest: u64 = 0xcbf2_9ce4_8422_2325;
            for i in 0..128u8 {
                for b in regs.read(Reg::new(i)).to_le_bytes() {
                    reg_digest = (reg_digest ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
                }
            }
            let mem = mem_state(&mem);
            return Ok(Outcome {
                stats,
                reg_digest,
                pc,
                cycle,
                mem,
            });
        }
        if cycle >= budget {
            return Err(SimError::CycleLimit { limit: budget });
        }
        if pc >= n {
            return Err(SimError::DelaySlotPastEnd { at: pc });
        }

        // Front end: probe every chunk of the instruction's window.
        let addr = image.offsets[pc];
        let last = addr.wrapping_add(image.instr_size(pc).max(1) - 1) & !31;
        let mut chunk = addr & !31;
        let mut istall = 0u64;
        loop {
            if !ibuf.contains(&chunk) {
                istall += mem.fetch_instr(cycle + istall, chunk, 32);
                ibuf[ibuf_next] = chunk;
                ibuf_next = (ibuf_next + 1) % ibuf.len();
            }
            if chunk == last {
                break;
            }
            chunk = chunk.wrapping_add(32);
        }
        cycle += istall;
        stats.ifetch_stall_cycles += istall;

        // Results landing at this slot become visible; then every op
        // reads the same architectural state.
        commit(&mut pending, &mut regs, stats.instrs);
        mem.begin_instr(cycle);
        let land_base = stats.instrs;
        stats.ops += program.instrs[pc].ops().count() as u64;
        let mut target = None;
        let mut progress = false;
        for (_, op) in program.instrs[pc].ops() {
            let res = execute(op, &regs, &mut mem).map_err(|e| match e {
                ExecError::MisalignedAccess { addr, size } => {
                    SimError::MisalignedAccess { pc, addr, size }
                }
                ExecError::OutOfBoundsAccess { addr, size } => {
                    SimError::OutOfBoundsAccess { pc, addr, size }
                }
            })?;
            let jump = op.opcode.is_jump();
            if res.executed {
                stats.exec_ops += 1;
                progress |= !jump;
            }
            stats.branches += u64::from(jump);
            let land = land_base + u64::from(issue.latency(op.opcode));
            pending.extend(res.write_iter().map(|(r, v)| (land, r, v)));
            if let Some(t) = res.branch_target {
                stats.taken_branches += 1;
                target = Some(t as usize);
            }
        }
        let dstall = mem.take_stall();
        stats.data_stall_cycles += dstall;
        cycle += 1 + dstall;
        stats.instrs += 1;

        if progress {
            last_progress = cycle;
        } else if cycle - last_progress >= DEFAULT_WATCHDOG_CYCLES {
            let cycles = cycle - last_progress;
            return Err(SimError::NoProgress { pc, cycles });
        }

        // Taken branches take effect after the delay slots.
        pc = match (target, &mut branch) {
            (Some(_), Some(_)) => return Err(SimError::BranchInDelaySlot { at: pc }),
            (Some(t), None) => {
                branch = Some((issue.jump_delay_slots, t));
                pc + 1
            }
            (None, Some((remaining, t))) => {
                *remaining -= 1;
                if *remaining > 0 {
                    pc + 1
                } else {
                    let t = *t;
                    branch = None;
                    t
                }
            }
            (None, None) => pc + 1,
        };
    }
}

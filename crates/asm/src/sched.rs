//! List scheduler: packs a linear (program-order) operation sequence into
//! VLIW instructions for a given [`IssueModel`].
//!
//! This is the reproduction's stand-in for the TriMedia compiler's
//! scheduler. It honours:
//!
//! * issue-slot binding per functional unit (loads only in slot 5 on the
//!   TM3270, two-slot operations in adjacent slots, ...);
//! * operation latencies (consumers issue no earlier than producer issue
//!   cycle + latency; TriMedia has **no hardware interlocks**, so the
//!   schedule *is* the correctness contract);
//! * write-back port conflicts (one result per issue slot per cycle);
//! * load-port limits (two loads per instruction on the TM3260, one on
//!   the TM3270 — paper, Table 6);
//! * memory ordering with a small displacement-based alias analysis and
//!   user-provided stream tags.

use tm3270_isa::{Access, Instr, IssueModel, Op, Unit, NUM_REGS};

/// An operation tagged with scheduling metadata.
#[derive(Debug, Clone, Copy)]
pub struct TaggedOp {
    /// The operation.
    pub op: Op,
    /// Memory-stream tag: memory operations in different streams are
    /// guaranteed by the author not to alias (e.g. the source and
    /// destination buffers of a copy). `None` means the default stream.
    pub stream: Option<u32>,
}

/// Scheduling failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SchedError {
    /// The opcode has no issue slot on this machine (e.g. a TM3270-only
    /// operation scheduled for the TM3260).
    NoSlot {
        /// Mnemonic of the offending operation.
        mnemonic: &'static str,
    },
    /// The scheduler could not place an operation within its window
    /// (internal error).
    Unschedulable {
        /// Mnemonic of the offending operation.
        mnemonic: &'static str,
    },
}

impl std::fmt::Display for SchedError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SchedError::NoSlot { mnemonic } => {
                write!(f, "`{mnemonic}` has no issue slot on this machine")
            }
            SchedError::Unschedulable { mnemonic } => {
                write!(f, "scheduler failed to place `{mnemonic}`")
            }
        }
    }
}

impl std::error::Error for SchedError {}

/// A scheduled basic block: instruction sequence plus the issue cycle of
/// each input operation.
#[derive(Debug, Clone)]
pub struct ScheduledBlock {
    /// The packed VLIW instructions.
    pub instrs: Vec<Instr>,
    /// Issue cycle of each input operation (index-parallel with the
    /// input).
    pub issue_cycles: Vec<u64>,
}

/// Conservative may-alias test between two memory operations.
fn may_alias(a: &TaggedOp, b: &TaggedOp) -> bool {
    if let (Some(sa), Some(sb)) = (a.stream, b.stream) {
        if sa != sb {
            return false;
        }
    }
    // Displacement-based disambiguation: same base register, disjoint
    // displacement intervals.
    let base = |t: &TaggedOp| -> Option<(tm3270_isa::Reg, i64, i64)> {
        let op = &t.op;
        let sig = op.opcode.signature();
        if !sig.imm || sig.srcs == 0 {
            return None;
        }
        let lo = i64::from(op.imm);
        let bytes = op.opcode.access().map_or(4, Access::bytes);
        Some((op.srcs[0], lo, lo + i64::from(bytes)))
    };
    match (base(a), base(b)) {
        (Some((ra, lo_a, hi_a)), Some((rb, lo_b, hi_b))) if ra == rb => lo_a < hi_b && lo_b < hi_a,
        _ => true,
    }
}

/// A block's dependence graph, `issue[j] >= issue[i] + delta`, held once
/// as successor lists. They are built from the last op back, so op `i`'s
/// successors `(j, delta)` are `edges[end[i + 1]..end[i]]`.
struct Deps {
    edges: Vec<(u32, u32)>,
    end: Vec<u32>,
    /// Critical-path height of each op: the scheduling priority.
    height: Vec<u64>,
    /// Predecessor edges of each op.
    preds: Vec<u32>,
}

/// Stores and cache operations: ordered against every aliasing memory
/// operation, while loads reorder freely among themselves.
fn is_store(op: &Op) -> bool {
    op.opcode.unit() == Unit::Store
}

/// Builds the dependence graph in one backward pass: RAW, WAW and WAR
/// hazards (the guard counts as a read) against every later reader and
/// writer of each register, and memory ordering against every later
/// memory operation that may alias. Heights fall out of the same pass,
/// since every successor of `i` is a later op.
fn build_deps(model: &IssueModel, ops: &[TaggedOp]) -> Deps {
    let n = ops.len();
    let mut deps = Deps {
        edges: Vec::new(),
        end: vec![0; n + 1],
        height: vec![0; n],
        preds: vec![0; n],
    };
    let mut readers: Vec<Vec<u32>> = vec![Vec::new(); NUM_REGS];
    let mut writers: Vec<Vec<u32>> = vec![Vec::new(); NUM_REGS];
    let mut mems: Vec<u32> = Vec::new();
    for i in (0..n).rev() {
        let op = &ops[i].op;
        let lat = model.latency(op.opcode);
        let mut reads = [op.guard; 5];
        let mut n_reads = 1;
        for &r in op.sources() {
            if !reads[..n_reads].contains(&r) {
                reads[n_reads] = r;
                n_reads += 1;
            }
        }
        let reads = &reads[..n_reads];
        let edges = &mut deps.edges;
        let first = edges.len();
        for &d in op.dests() {
            edges.extend(readers[d.index()].iter().map(|&j| (j, lat)));
            edges.extend(writers[d.index()].iter().map(|&j| {
                let lat_j = model.latency(ops[j as usize].op.opcode);
                (j, (lat + 1).saturating_sub(lat_j))
            }));
        }
        for r in reads {
            edges.extend(writers[r.index()].iter().map(|&j| (j, 0)));
        }
        if op.opcode.is_mem() {
            let store = is_store(op);
            for &j in &mems {
                let later = &ops[j as usize];
                if (store || is_store(&later.op)) && may_alias(&ops[i], later) {
                    edges.push((j, u32::from(store)));
                }
            }
            mems.push(i as u32);
        }
        for &(j, delta) in &edges[first..] {
            let j = j as usize;
            deps.height[i] = deps.height[i].max(deps.height[j] + u64::from(delta.max(1)));
            deps.preds[j] += 1;
        }
        deps.end[i] = edges.len() as u32;
        for r in reads {
            readers[r.index()].push(i as u32);
        }
        for d in op.dests() {
            writers[d.index()].push(i as u32);
        }
    }
    deps
}

/// Per-cycle structural state: issue slots and load ports taken by ops
/// issued in the cycle, and write-back ports taken by results landing in
/// it (bit `s` is issue slot `s`).
#[derive(Debug, Default, Clone, Copy)]
struct Cycle {
    slots: u8,
    loads: u8,
    ports: u8,
}

/// Schedules `ops` (program order) into VLIW instructions.
///
/// `min_len` pads the block to at least that many instructions (used by
/// the builder for jump delay slots).
///
/// Scheduling proceeds in rounds. An op becomes ready in the round after
/// its last predecessor is placed; each round places its ready ops by
/// critical-path height (program order breaks ties), each at the first
/// cycle, then the first slot, that satisfies its dependences and the
/// machine's resources. Building the graph and the rounds take time
/// linear in the number of dependence edges, plus the first-fit scans.
///
/// # Errors
///
/// Returns [`SchedError`] if an operation cannot be placed.
pub fn schedule_block(
    model: &IssueModel,
    ops: &[TaggedOp],
    min_len: usize,
) -> Result<ScheduledBlock, SchedError> {
    let n = ops.len();
    let Deps {
        edges,
        end,
        height,
        mut preds,
    } = build_deps(model, ops);
    let mut earliest = vec![0u64; n];
    let mut issue = vec![0u64; n];
    let mut slot = vec![0u8; n];
    let mut cycles: Vec<Cycle> = Vec::new();
    let mut ready: Vec<usize> = (0..n).filter(|&j| preds[j] == 0).collect();
    let mut next: Vec<usize> = Vec::new();
    while !ready.is_empty() {
        // Highest critical path first; ties by program order.
        ready.sort_unstable_by_key(|&j| (std::cmp::Reverse(height[j]), j));
        for &j in &ready {
            let op = &ops[j].op;
            let mnemonic = op.opcode.mnemonic();
            let allowed = model.allowed_slots(op.opcode);
            if allowed.is_empty() {
                return Err(SchedError::NoSlot { mnemonic });
            }
            let lat = model.latency(op.opcode) as usize;
            let is_load = op.opcode.is_load();
            let width: u8 = if op.opcode.is_two_slot() { 0b11 } else { 0b01 };
            let ports: u8 = match op.dests().len() {
                0 => 0,
                1 => 0b01,
                _ => 0b11,
            };
            let (c, s) = (earliest[j]..earliest[j] + 100_000)
                .find_map(|c| {
                    let c = c as usize;
                    if cycles.len() <= c + lat {
                        cycles.resize(c + lat + 1, Cycle::default());
                    }
                    if is_load && cycles[c].loads >= model.loads_per_instr {
                        return None;
                    }
                    let free = |&&s: &&usize| {
                        cycles[c].slots & (width << s) == 0
                            && cycles[c + lat].ports & (ports << s) == 0
                    };
                    allowed.iter().find(free).map(|&s| (c, s))
                })
                .ok_or(SchedError::Unschedulable { mnemonic })?;
            cycles[c].slots |= width << s;
            cycles[c].loads += u8::from(is_load);
            cycles[c + lat].ports |= ports << s;
            issue[j] = c as u64;
            slot[j] = s as u8;
            for &(k, delta) in &edges[end[j + 1] as usize..end[j] as usize] {
                let k = k as usize;
                earliest[k] = earliest[k].max(c as u64 + u64::from(delta));
                preds[k] -= 1;
                if preds[k] == 0 {
                    next.push(k);
                }
            }
        }
        ready.clear();
        std::mem::swap(&mut ready, &mut next);
    }

    // Materialize instructions. The block covers every issue cycle and,
    // so that cross-block schedules stay correct without global liveness
    // analysis, every result landing (drain semantics).
    let len = (0..n)
        .map(|j| issue[j] as usize + (model.latency(ops[j].op.opcode) as usize).max(1))
        .max()
        .unwrap_or(0)
        .max(min_len);
    let mut instrs = vec![Instr::nop(); len];
    for j in 0..n {
        instrs[issue[j] as usize].place(ops[j].op, usize::from(slot[j]));
    }
    Ok(ScheduledBlock {
        instrs,
        issue_cycles: issue,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tm3270_isa::{Opcode, Reg};

    fn r(i: u8) -> Reg {
        Reg::new(i)
    }

    fn t(op: Op) -> TaggedOp {
        TaggedOp { op, stream: None }
    }

    #[test]
    fn independent_ops_pack_into_one_instruction() {
        let model = IssueModel::tm3270();
        let ops: Vec<_> = (0..5)
            .map(|i| t(Op::rrr(Opcode::Iadd, r(10 + i), r(2), r(3))))
            .collect();
        let sched = schedule_block(&model, &ops, 0).unwrap();
        assert_eq!(sched.instrs.len(), 1);
        assert_eq!(sched.instrs[0].op_count(), 5);
    }

    #[test]
    fn raw_dependency_respects_latency() {
        let model = IssueModel::tm3270();
        let ops = vec![
            t(Op::rrr(Opcode::Imul, r(10), r(2), r(3))), // latency 3
            t(Op::rrr(Opcode::Iadd, r(11), r(10), r(3))),
        ];
        let sched = schedule_block(&model, &ops, 0).unwrap();
        assert_eq!(sched.issue_cycles[0], 0);
        assert_eq!(sched.issue_cycles[1], 3);
    }

    #[test]
    fn load_latency_differs_by_machine() {
        let mk = |model: IssueModel| {
            let ops = vec![
                t(Op::rri(Opcode::Ld32d, r(10), r(2), 0)),
                t(Op::rrr(Opcode::Iadd, r(11), r(10), r(3))),
            ];
            schedule_block(&model, &ops, 0).unwrap().issue_cycles[1]
        };
        assert_eq!(mk(IssueModel::tm3270()), 4);
        assert_eq!(mk(IssueModel::tm3260()), 3);
    }

    #[test]
    fn tm3260_issues_two_loads_per_instruction() {
        let ops = vec![
            t(Op::rri(Opcode::Ld32d, r(10), r(2), 0)),
            t(Op::rri(Opcode::Ld32d, r(11), r(2), 4)),
        ];
        let s60 = schedule_block(&IssueModel::tm3260(), &ops, 0).unwrap();
        assert_eq!(s60.issue_cycles, vec![0, 0]);
        let s70 = schedule_block(&IssueModel::tm3270(), &ops, 0).unwrap();
        assert_eq!(s70.issue_cycles, vec![0, 1], "one load port on TM3270");
    }

    #[test]
    fn two_slot_op_occupies_adjacent_slots() {
        let model = IssueModel::tm3270();
        let ops = vec![
            t(Op::new(
                Opcode::SuperDualimix,
                Reg::ONE,
                &[r(2), r(3), r(4), r(5)],
                &[r(10), r(11)],
                0,
            )),
            t(Op::rrr(Opcode::Quadavg, r(12), r(2), r(3))),
        ];
        let sched = schedule_block(&model, &ops, 0).unwrap();
        // DspAlu (slots 2,3 1-based = indices 1,2) collides with the super
        // op in slots 2+3; quadavg must go to the other dsp slot or the
        // next cycle.
        assert!(!sched.instrs.is_empty());
        let i0 = &sched.instrs[0];
        assert!(i0.slots[1].is_used() && i0.slots[2].is_used());
    }

    #[test]
    fn tm3270_only_op_fails_on_tm3260() {
        let ops = vec![t(Op::rrr(Opcode::LdFrac8, r(10), r(2), r(3)))];
        assert!(matches!(
            schedule_block(&IssueModel::tm3260(), &ops, 0),
            Err(SchedError::NoSlot { .. })
        ));
    }

    #[test]
    fn aliasing_stores_stay_ordered() {
        let model = IssueModel::tm3270();
        let ops = vec![
            t(Op::new(Opcode::St32d, Reg::ONE, &[r(2), r(3)], &[], 0)),
            t(Op::new(Opcode::St32d, Reg::ONE, &[r(2), r(4)], &[], 0)),
        ];
        let sched = schedule_block(&model, &ops, 0).unwrap();
        assert!(sched.issue_cycles[1] > sched.issue_cycles[0]);
    }

    #[test]
    fn disjoint_stores_dual_issue() {
        let model = IssueModel::tm3270();
        let ops = vec![
            t(Op::new(Opcode::St32d, Reg::ONE, &[r(2), r(3)], &[], 0)),
            t(Op::new(Opcode::St32d, Reg::ONE, &[r(2), r(4)], &[], 4)),
        ];
        let sched = schedule_block(&model, &ops, 0).unwrap();
        assert_eq!(
            sched.issue_cycles,
            vec![0, 0],
            "provably disjoint stores issue together (two store slots)"
        );
    }

    #[test]
    fn different_streams_do_not_alias() {
        let model = IssueModel::tm3270();
        let ops = vec![
            TaggedOp {
                op: Op::new(Opcode::St32d, Reg::ONE, &[r(2), r(3)], &[], 0),
                stream: Some(1),
            },
            TaggedOp {
                op: Op::rri(Opcode::Ld32d, r(10), r(4), 0),
                stream: Some(2),
            },
        ];
        let sched = schedule_block(&model, &ops, 0).unwrap();
        assert_eq!(sched.issue_cycles, vec![0, 0]);
    }

    #[test]
    fn store_then_load_same_address_ordered() {
        let model = IssueModel::tm3270();
        let ops = vec![
            t(Op::new(Opcode::St32d, Reg::ONE, &[r(2), r(3)], &[], 0)),
            t(Op::rri(Opcode::Ld32d, r(10), r(2), 0)),
        ];
        let sched = schedule_block(&model, &ops, 0).unwrap();
        assert!(sched.issue_cycles[1] > sched.issue_cycles[0]);
    }

    #[test]
    fn waw_keeps_final_value() {
        let model = IssueModel::tm3270();
        // imul (lat 3) then iadd (lat 1) to the same destination: the add
        // must land strictly after the multiply's write-back.
        let ops = vec![
            t(Op::rrr(Opcode::Imul, r(10), r(2), r(3))),
            t(Op::rrr(Opcode::Iadd, r(10), r(4), r(5))),
        ];
        let sched = schedule_block(&model, &ops, 0).unwrap();
        let (c0, c1) = (sched.issue_cycles[0], sched.issue_cycles[1]);
        assert!(c1 + 1 > c0 + 3, "add write-back after mul write-back");
    }

    #[test]
    fn min_len_pads_block() {
        let model = IssueModel::tm3270();
        let ops = vec![t(Op::rrr(Opcode::Iadd, r(10), r(2), r(3)))];
        let sched = schedule_block(&model, &ops, 7).unwrap();
        assert_eq!(sched.instrs.len(), 7);
        assert!(sched.instrs[6].is_nop());
    }

    #[test]
    fn block_drains_latencies() {
        let model = IssueModel::tm3270();
        let ops = vec![t(Op::rri(Opcode::Ld32d, r(10), r(2), 0))];
        let sched = schedule_block(&model, &ops, 0).unwrap();
        assert_eq!(sched.instrs.len(), 4, "load result lands inside block");
    }

    #[test]
    fn writeback_port_conflict_avoided() {
        let model = IssueModel::tm3270();
        // An imul at cycle 0 (lat 3, writes back at 3) and an iadd that
        // would write back through the same slot at cycle 3 if issued at
        // cycle 2 in the same slot.
        let mut ops = Vec::new();
        ops.push(t(Op::rrr(Opcode::Imul, r(10), r(2), r(3)))); // slot 1 or 2
        for i in 0..30 {
            ops.push(t(Op::rrr(Opcode::Iadd, r(20 + (i % 40) as u8), r(2), r(3))));
        }
        let sched = schedule_block(&model, &ops, 0).unwrap();
        // Verify no two results land on the same (cycle, slot).
        let mut seen = std::collections::HashSet::new();
        for (j, &c) in sched.issue_cycles.iter().enumerate() {
            let lat = u64::from(model.latency(ops[j].op.opcode));
            for (s, slot) in sched.instrs[c as usize].slots.iter().enumerate() {
                if let Some(op) = slot.op() {
                    if op == &ops[j].op && !ops[j].op.dests().is_empty() {
                        for (k, _) in ops[j].op.dests().iter().enumerate() {
                            assert!(seen.insert((c + lat, s + k)), "wb clash at {c}+{lat}");
                        }
                    }
                }
            }
        }
    }
}

//! The reference list scheduler: the original quadratic-to-cubic
//! `build_deps` + `schedule_block` of `tm3270-asm`, kept verbatim as the
//! oracle for the linear-time scheduler.
//!
//! It recomputes every ready op's earliest cycle from its full
//! predecessor list each round, derives heights by scanning every later
//! op's dependence list, and keeps write-back ports in a hash map. That
//! is slow, but each step reads directly off the scheduling rules, so
//! `tests/tests/scheduler_differential.rs` requires the production
//! scheduler to match it exactly: the same instructions, issue cycles
//! and errors on random blocks.

use std::collections::HashMap;
use tm3270_asm::{SchedError, ScheduledBlock, TaggedOp};
use tm3270_isa::{Instr, IssueModel, Op, Opcode, Unit};

fn is_mem(op: &Op) -> bool {
    op.opcode.is_mem()
}

fn mem_footprint(op: &Op) -> u32 {
    match op.opcode {
        Opcode::St8d | Opcode::Ld8d | Opcode::Uld8d | Opcode::Ld8r | Opcode::Uld8r => 1,
        Opcode::St16d | Opcode::Ld16d | Opcode::Uld16d | Opcode::Ld16r | Opcode::Uld16r => 2,
        Opcode::LdFrac8 => 5,
        Opcode::SuperLd32r => 8,
        _ => 4,
    }
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
        Some((op.srcs[0], lo, lo + i64::from(mem_footprint(op))))
    };
    match (base(a), base(b)) {
        (Some((ra, lo_a, hi_a)), Some((rb, lo_b, hi_b))) if ra == rb => lo_a < hi_b && lo_b < hi_a,
        _ => true,
    }
}

/// Builds the dependence edges: `issue[j] >= issue[i] + delta`.
fn build_deps(model: &IssueModel, ops: &[TaggedOp]) -> Vec<Vec<(usize, u64)>> {
    let n = ops.len();
    let mut deps: Vec<Vec<(usize, u64)>> = vec![Vec::new(); n];
    // Register hazards.
    for j in 0..n {
        let oj = &ops[j].op;
        let mut reads_j: Vec<tm3270_isa::Reg> = oj.sources().to_vec();
        reads_j.push(oj.guard);
        for i in (0..j).rev() {
            let oi = &ops[i].op;
            let lat_i = u64::from(model.latency(oi.opcode));
            // RAW: j reads something i writes.
            for &d in oi.dests() {
                if reads_j.contains(&d) {
                    deps[j].push((i, lat_i));
                }
                // WAW: j rewrites a register i writes.
                for &dj in oj.dests() {
                    if dj == d {
                        let lat_j = u64::from(model.latency(oj.opcode));
                        let delta = (lat_i + 1).saturating_sub(lat_j);
                        deps[j].push((i, delta));
                    }
                }
            }
            // WAR: j writes something i reads.
            let mut reads_i: Vec<tm3270_isa::Reg> = oi.sources().to_vec();
            reads_i.push(oi.guard);
            for &dj in oj.dests() {
                if reads_i.contains(&dj) {
                    deps[j].push((i, 0));
                }
            }
        }
    }
    // Memory ordering.
    for j in 0..n {
        if !is_mem(&ops[j].op) {
            continue;
        }
        let j_store = ops[j].op.opcode.is_store() || ops[j].op.unit() == Unit::Store;
        for i in 0..j {
            if !is_mem(&ops[i].op) {
                continue;
            }
            let i_store = ops[i].op.opcode.is_store() || ops[i].op.unit() == Unit::Store;
            if !i_store && !j_store {
                continue; // loads reorder freely among themselves
            }
            if !may_alias(&ops[i], &ops[j]) {
                continue;
            }
            let delta = if i_store { 1 } else { 0 };
            deps[j].push((i, delta));
        }
    }
    deps
}

trait UnitExt {
    fn unit(&self) -> Unit;
}
impl UnitExt for Op {
    fn unit(&self) -> Unit {
        self.opcode.unit()
    }
}

/// Per-cycle structural state.
#[derive(Debug, Default, Clone)]
struct Cycle {
    slots: [bool; 5],
    loads: u8,
}

/// Schedules `ops` (program order) into VLIW instructions.
///
/// `min_len` pads the block to at least that many instructions (used by
/// the builder for jump delay slots).
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
    let deps = build_deps(model, ops);

    // Critical-path heights for priority.
    let mut height = vec![0u64; n];
    for i in (0..n).rev() {
        // height of i = max over successors; recompute from deps of j > i.
        for j in i + 1..n {
            for &(p, delta) in &deps[j] {
                if p == i {
                    height[i] = height[i].max(height[j] + delta.max(1));
                }
            }
        }
    }

    let mut issue: Vec<Option<u64>> = vec![None; n];
    let mut cycles: Vec<Cycle> = Vec::new();
    let mut wb: HashMap<(u64, usize), bool> = HashMap::new();
    let mut remaining: Vec<usize> = (0..n).collect();

    let ensure_cycle = |cycles: &mut Vec<Cycle>, c: usize| {
        while cycles.len() <= c {
            cycles.push(Cycle::default());
        }
    };

    let mut placed_slots: Vec<usize> = vec![0; n];
    while !remaining.is_empty() {
        // Earliest cycle per remaining op given already-scheduled preds.
        let mut ready: Vec<(usize, u64)> = Vec::new();
        'op: for &j in &remaining {
            let mut t = 0u64;
            for &(p, delta) in &deps[j] {
                match issue[p] {
                    Some(c) => t = t.max(c + delta),
                    None => continue 'op, // pred unscheduled
                }
            }
            ready.push((j, t));
        }
        // Highest critical path first; ties by program order.
        ready.sort_by_key(|&(j, _)| (std::cmp::Reverse(height[j]), j));

        let mut progress = false;
        for (j, earliest) in ready {
            if issue[j].is_some() {
                continue;
            }
            let op = &ops[j].op;
            let allowed = model.allowed_slots(op.opcode);
            if allowed.is_empty() {
                return Err(SchedError::NoSlot {
                    mnemonic: op.opcode.mnemonic(),
                });
            }
            let lat = u64::from(model.latency(op.opcode));
            let is_load = op.opcode.is_load();
            let two_slot = op.opcode.is_two_slot();
            let n_dsts = op.dests().len();
            let mut placed = false;
            for c in earliest..earliest + 100_000 {
                ensure_cycle(&mut cycles, c as usize);
                let cy = &cycles[c as usize];
                if is_load && cy.loads >= model.loads_per_instr {
                    continue;
                }
                for &s in allowed {
                    let free = !cy.slots[s] && (!two_slot || !cy.slots[s + 1]);
                    if !free {
                        continue;
                    }
                    // Write-back port check.
                    let wb_ok = match n_dsts {
                        0 => true,
                        1 => !wb.contains_key(&(c + lat, s)),
                        _ => !wb.contains_key(&(c + lat, s)) && !wb.contains_key(&(c + lat, s + 1)),
                    };
                    if !wb_ok {
                        continue;
                    }
                    // Place.
                    let cy = &mut cycles[c as usize];
                    cy.slots[s] = true;
                    if two_slot {
                        cy.slots[s + 1] = true;
                    }
                    if is_load {
                        cy.loads += 1;
                    }
                    if n_dsts >= 1 {
                        wb.insert((c + lat, s), true);
                    }
                    if n_dsts >= 2 {
                        wb.insert((c + lat, s + 1), true);
                    }
                    issue[j] = Some(c);
                    placed_slots[j] = s;
                    placed = true;
                    progress = true;
                    break;
                }
                if placed {
                    break;
                }
            }
            if !placed {
                return Err(SchedError::Unschedulable {
                    mnemonic: op.opcode.mnemonic(),
                });
            }
        }
        remaining.retain(|&j| issue[j].is_none());
        if !progress && !remaining.is_empty() {
            return Err(SchedError::Unschedulable {
                mnemonic: ops[remaining[0]].op.opcode.mnemonic(),
            });
        }
    }

    // Materialize instructions.
    let len = cycles.len().max(min_len).max(
        // All results must land inside the block (drain semantics at
        // block boundaries keeps cross-block schedules correct without
        // global liveness analysis).
        (0..n)
            .map(|j| {
                let lat = u64::from(model.latency(ops[j].op.opcode));
                (issue[j].unwrap() + lat) as usize
            })
            .max()
            .unwrap_or(0),
    );
    let mut instrs = vec![Instr::nop(); len];
    for j in 0..n {
        instrs[issue[j].unwrap() as usize].place(ops[j].op, placed_slots[j]);
    }
    Ok(ScheduledBlock {
        instrs,
        issue_cycles: issue.into_iter().map(|c| c.unwrap()).collect(),
    })
}

//! Differential test of the list scheduler: on seeded random blocks,
//! `tm3270_asm::schedule_block` must produce exactly what the reference
//! scheduler in `tests/src/ref_sched.rs` produces — the same packed
//! instructions, the same issue cycle for every op, and the same error.
//!
//! The blocks draw every non-branch opcode, grouped by functional unit so
//! each latency class (1, 2, 3, 4, 6, 17 cycles and the load latency) is
//! drawn equally often: loads and stores with and without stream tags and
//! with overlapping and disjoint displacements, indexed loads, cache
//! operations, two-slot super operations, and data-register guards. They
//! run on both issue models and on a custom load latency, and TM3270-only
//! operations appear in some TM3260 blocks so the first `NoSlot` error in
//! scheduling order is compared too.

use tm3270_asm::{schedule_block, SchedError, TaggedOp};
use tm3270_fault::SmallRng;
use tm3270_integration::ref_sched;
use tm3270_isa::{IssueModel, Op, Opcode, Reg, Unit};

/// Every non-branch opcode, grouped by functional unit.
fn opcodes_by_unit() -> Vec<Vec<Opcode>> {
    let mut units: Vec<(Unit, Vec<Opcode>)> = Vec::new();
    for &op in Opcode::all() {
        if op.unit() == Unit::Branch {
            continue;
        }
        match units.iter_mut().find(|(u, _)| *u == op.unit()) {
            Some((_, ops)) => ops.push(op),
            None => units.push((op.unit(), vec![op])),
        }
    }
    units.into_iter().map(|(_, ops)| ops).collect()
}

/// One random op. Registers come from `r2..r2+regs`, so a small pool
/// gives dense hazards; memory ops use one of three base registers and
/// displacements in a 32-byte window, so some pairs provably do not
/// alias and others overlap.
fn random_op(rng: &mut SmallRng, units: &[Vec<Opcode>], regs: u64, tm3270_ops: bool) -> TaggedOp {
    let opcode = loop {
        let unit = &units[rng.index(units.len())];
        let op = unit[rng.index(unit.len())];
        if tm3270_ops || !op.is_tm3270_only() {
            break op;
        }
    };
    let sig = opcode.signature();
    let reg = |rng: &mut SmallRng| Reg::new(2 + rng.below(regs) as u8);
    let srcs: Vec<Reg> = (0..sig.srcs)
        .map(|k| {
            if k == 0 && opcode.is_mem() {
                Reg::new(2 + rng.below(3) as u8)
            } else {
                reg(rng)
            }
        })
        .collect();
    let dsts: Vec<Reg> = (0..sig.dsts).map(|_| reg(rng)).collect();
    let imm = match (sig.imm, opcode.is_mem()) {
        (false, _) => 0,
        (true, true) => 4 * rng.range_i32(0, 7) + rng.range_i32(0, 3),
        (true, false) => rng.range_i32(-64, 63),
    };
    let guard = if rng.chance(1, 4) { reg(rng) } else { Reg::ONE };
    let stream = if rng.chance(1, 2) {
        None
    } else {
        Some(rng.below(3) as u32)
    };
    TaggedOp {
        op: Op::new(opcode, guard, &srcs, &dsts, imm),
        stream,
    }
}

fn models() -> [IssueModel; 4] {
    [
        IssueModel::tm3270(),
        IssueModel::tm3260(),
        IssueModel {
            load_latency: 7,
            ..IssueModel::tm3270()
        },
        IssueModel {
            load_latency: 5,
            ..IssueModel::tm3260()
        },
    ]
}

/// Schedules `ops` with both schedulers and requires identical results.
/// Returns the error, if both failed.
fn check(model: &IssueModel, ops: &[TaggedOp], min_len: usize, case: &str) -> Option<SchedError> {
    match (
        schedule_block(model, ops, min_len),
        ref_sched::schedule_block(model, ops, min_len),
    ) {
        (Ok(got), Ok(want)) => {
            assert_eq!(got.issue_cycles, want.issue_cycles, "{case}: issue cycles");
            assert_eq!(got.instrs, want.instrs, "{case}: instructions");
            None
        }
        (Err(got), Err(want)) => {
            assert_eq!(got, want, "{case}: error");
            Some(got)
        }
        (got, want) => panic!("{case}: got {got:?}, reference gave {want:?}"),
    }
}

#[test]
fn scheduler_matches_the_reference_on_random_blocks() {
    let units = opcodes_by_unit();
    let mut rng = SmallRng::new(0x5ced_d1ff);
    let (mut placed, mut no_slot) = (0, 0);
    for case in 0..400 {
        let model = models()[case % 4];
        let tm3270_ops = model.has_tm3270_ops || rng.chance(1, 4);
        let regs = [6, 12, 40][rng.index(3)];
        let ops: Vec<TaggedOp> = (0..1 + rng.index(120))
            .map(|_| random_op(&mut rng, &units, regs, tm3270_ops))
            .collect();
        let min_len = if rng.chance(1, 4) { rng.index(40) } else { 0 };
        match check(&model, &ops, min_len, &format!("case {case}")) {
            None => placed += 1,
            Some(SchedError::NoSlot { .. }) => no_slot += 1,
            Some(e) => panic!("case {case}: unexpected {e:?}"),
        }
    }
    assert!(placed >= 300, "{placed} blocks scheduled");
    assert!(no_slot >= 10, "{no_slot} blocks hit NoSlot");
}

#[test]
fn scheduler_matches_the_reference_on_large_blocks() {
    let units = opcodes_by_unit();
    let mut rng = SmallRng::new(0x1a46_e0b5);
    for (case, model) in models().iter().take(3).enumerate() {
        // mpeg2's largest block has 641 ops and 17,857 edges; a 60-register
        // pool gives a similar density.
        let ops: Vec<TaggedOp> = (0..600 + rng.index(100))
            .map(|_| random_op(&mut rng, &units, 60, model.has_tm3270_ops))
            .collect();
        let error = check(model, &ops, 0, &format!("large case {case}"));
        assert_eq!(error, None, "large case {case}");
    }
}

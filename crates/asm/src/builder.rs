//! Block-structured program builder.
//!
//! Kernels are written as linear operation sequences over basic blocks;
//! [`ProgramBuilder::build`] schedules each block for the target
//! [`IssueModel`] (the paper's "re-compilation" step), places branches so
//! that the architectural jump delay slots (3 on the TM3260, 5 on the
//! TM3270 — paper §3, Table 6) are honoured, resolves labels to
//! instruction indices, and emits a [`Program`].

use crate::sched::{schedule_block, SchedError, TaggedOp};
use tm3270_isa::{Instr, IssueModel, Op, Opcode, Program, Reg};

/// A forward-referencable block label.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Label(usize);

/// The control-flow terminator of a block.
#[derive(Debug, Clone, Copy)]
enum Terminator {
    /// Fall through to the next block.
    FallThrough,
    /// `jmpt guard, target`: branch when the guard is true.
    JumpIf(Reg, Label),
    /// `jmpf guard, target`: branch when the guard is false.
    JumpIfNot(Reg, Label),
    /// `jmpi target`: unconditional branch.
    Jump(Label),
    /// `ijmpi src`: indirect jump through a register (returns).
    JumpIndirect(Reg),
}

#[derive(Debug, Default)]
struct Block {
    ops: Vec<TaggedOp>,
    term: Option<Terminator>,
    /// Labels bound to the start of this block.
    labels: Vec<Label>,
}

/// Sentinel immediate range used for label-address fixups: `iimm`
/// operations whose immediate is `LABEL_ADDR_SENTINEL + label` are
/// patched to the label's instruction index after layout.
const LABEL_ADDR_SENTINEL: i32 = -(1 << 25);

/// Errors produced by [`ProgramBuilder::build`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildError {
    /// A block failed to schedule.
    Sched(SchedError),
    /// A label was referenced but never bound.
    UnboundLabel,
}

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuildError::Sched(e) => write!(f, "scheduling failed: {e}"),
            BuildError::UnboundLabel => write!(f, "a label was referenced but never bound"),
        }
    }
}

impl std::error::Error for BuildError {}

impl From<SchedError> for BuildError {
    fn from(e: SchedError) -> BuildError {
        BuildError::Sched(e)
    }
}

/// Builds TM3270/TM3260 programs from linear operation streams.
///
/// # Examples
///
/// Build and schedule a two-iteration loop:
///
/// ```
/// use tm3270_asm::ProgramBuilder;
/// use tm3270_isa::{IssueModel, Op, Opcode, Reg};
///
/// let mut b = ProgramBuilder::new(IssueModel::tm3270());
/// let counter = Reg::new(2);
/// let cond = Reg::new(3);
/// b.op(Op::imm(counter, 2));
/// let top = b.bind_here();
/// b.op(Op::rri(Opcode::Iaddi, counter, counter, -1));
/// b.op(Op::rri(Opcode::Igtri, cond, counter, 0));
/// b.jump_if(cond, top);
/// let program = b.build()?;
/// assert!(program.len() > 0);
/// # Ok::<(), tm3270_asm::BuildError>(())
/// ```
#[derive(Debug)]
pub struct ProgramBuilder {
    model: IssueModel,
    blocks: Vec<Block>,
    /// Label -> block index (usize::MAX until bound).
    label_blocks: Vec<usize>,
    stream: Option<u32>,
}

impl ProgramBuilder {
    /// Creates a builder targeting `model`.
    pub fn new(model: IssueModel) -> ProgramBuilder {
        ProgramBuilder {
            model,
            blocks: vec![Block::default()],
            label_blocks: Vec::new(),
            stream: None,
        }
    }

    /// The issue model being targeted.
    pub fn model(&self) -> &IssueModel {
        &self.model
    }

    /// Creates a fresh, unbound label.
    pub fn label(&mut self) -> Label {
        self.label_blocks.push(usize::MAX);
        Label(self.label_blocks.len() - 1)
    }

    /// Binds `label` to the start of a new block beginning here.
    pub fn bind(&mut self, label: Label) {
        // Start a new block if the current one has content or a
        // terminator.
        let cur = self.blocks.last().unwrap();
        if !cur.ops.is_empty() || cur.term.is_some() || !cur.labels.is_empty() {
            self.end_block(Terminator::FallThrough);
        }
        self.blocks.last_mut().unwrap().labels.push(label);
        self.label_blocks[label.0] = self.blocks.len() - 1;
    }

    /// Creates a label and binds it here in one step.
    pub fn bind_here(&mut self) -> Label {
        let l = self.label();
        self.bind(l);
        l
    }

    /// Appends an operation to the current block.
    pub fn op(&mut self, op: Op) -> &mut Self {
        let stream = self.stream;
        self.blocks
            .last_mut()
            .unwrap()
            .ops
            .push(TaggedOp { op, stream });
        self
    }

    /// Sets the memory-stream tag for subsequently appended operations.
    /// Memory operations in different streams are promised not to alias.
    pub fn set_stream(&mut self, stream: Option<u32>) -> &mut Self {
        self.stream = stream;
        self
    }

    /// Appends `op` tagged with an explicit memory stream.
    pub fn op_in_stream(&mut self, op: Op, stream: u32) -> &mut Self {
        self.blocks.last_mut().unwrap().ops.push(TaggedOp {
            op,
            stream: Some(stream),
        });
        self
    }

    fn end_block(&mut self, term: Terminator) {
        self.blocks.last_mut().unwrap().term = Some(term);
        self.blocks.push(Block::default());
    }

    /// Ends the current block with `jmpt guard, target`.
    pub fn jump_if(&mut self, guard: Reg, target: Label) {
        self.end_block(Terminator::JumpIf(guard, target));
    }

    /// Ends the current block with `jmpf guard, target` (branch when the
    /// guard is false).
    pub fn jump_ifnot(&mut self, guard: Reg, target: Label) {
        self.end_block(Terminator::JumpIfNot(guard, target));
    }

    /// Ends the current block with an unconditional jump.
    pub fn jump(&mut self, target: Label) {
        self.end_block(Terminator::Jump(target));
    }

    /// Ends the current block with an indirect jump through `target_reg`
    /// (`ijmpi`) — the return half of the TriMedia software call/return
    /// convention.
    pub fn ret(&mut self, target_reg: Reg) {
        self.end_block(Terminator::JumpIndirect(target_reg));
    }

    /// Materializes the instruction index of `label` into `dst` (patched
    /// after layout). The label becomes a jump target.
    pub fn op_label_addr(&mut self, dst: Reg, label: Label) -> &mut Self {
        self.op(Op::imm(dst, LABEL_ADDR_SENTINEL + label.0 as i32))
    }

    /// Emits a call: materializes the return address into `link`, jumps to
    /// `target`, and binds the return point. Returns the return-point
    /// label. The callee returns with [`ret`](Self::ret)`(link)`.
    pub fn call(&mut self, link: Reg, target: Label) -> Label {
        let ret_label = self.label();
        self.op_label_addr(link, ret_label);
        self.jump(target);
        self.bind(ret_label);
        ret_label
    }

    /// Schedules every block and produces the final program.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError`] when a block cannot be scheduled for the
    /// target machine or a label was never bound.
    pub fn build(&self) -> Result<Program, BuildError> {
        let delay = self.model.jump_delay_slots as usize;

        // Schedule each block and place its branch.
        struct Scheduled {
            instrs: Vec<Instr>,
            /// (cycle, slot, target label) of the block's branch.
            branch: Option<(usize, usize, Label)>,
        }
        let mut scheduled = Vec::with_capacity(self.blocks.len());
        for block in &self.blocks {
            let body = schedule_block(&self.model, &block.ops, 0)?;
            let mut instrs = body.instrs;
            let branch = match block.term {
                None | Some(Terminator::FallThrough) => None,
                Some(term) => {
                    let (opcode, guard, label, src) = match term {
                        Terminator::JumpIf(g, l) => (Opcode::Jmpt, g, Some(l), None),
                        Terminator::JumpIfNot(g, l) => (Opcode::Jmpf, g, Some(l), None),
                        Terminator::Jump(l) => (Opcode::Jmpi, Reg::ONE, Some(l), None),
                        Terminator::JumpIndirect(r) => (Opcode::Ijmpi, Reg::ONE, None, Some(r)),
                        Terminator::FallThrough => unreachable!(),
                    };
                    // The branch reads its guard (and indirect target) at
                    // issue, so it waits for those values. A taken branch
                    // leaves the block after its delay slots, so it also
                    // waits until every body operation can issue and every
                    // result land by then: blocks drain all latencies on
                    // both paths.
                    let mut guard_ready = 0usize;
                    let mut drained = 0usize;
                    for (j, top) in block.ops.iter().enumerate() {
                        let issue = body.issue_cycles[j] as usize;
                        let land = issue + self.model.latency(top.op.opcode) as usize;
                        drained = drained.max(land.max(issue + 1));
                        let dests = top.op.dests();
                        if dests.contains(&guard) || src.is_some_and(|r| dests.contains(&r)) {
                            guard_ready = guard_ready.max(land);
                        }
                    }
                    let mut cb = guard_ready.max(drained.saturating_sub(delay + 1));
                    // Find a free branch slot (issue slots 2..4, 0-based
                    // 1..=3) at or after `cb`.
                    let slot = loop {
                        while instrs.len() <= cb {
                            instrs.push(Instr::nop());
                        }
                        match (1..=3).find(|&s| !instrs[cb].slots[s].is_used()) {
                            Some(s) => break s,
                            None => cb += 1,
                        }
                    };
                    // Pad so the jump shadow (delay slots) exists.
                    while instrs.len() < cb + delay + 1 {
                        instrs.push(Instr::nop());
                    }
                    // Place a placeholder now; immediate targets are
                    // patched after layout.
                    let op = match src {
                        Some(r) => Op::new(opcode, guard, &[r], &[], 0),
                        None => Op::new(opcode, guard, &[], &[], 0),
                    };
                    instrs[cb].place(op, slot);
                    label.map(|l| (cb, slot, l))
                }
            };
            scheduled.push(Scheduled { instrs, branch });
        }

        // Layout: block start indices.
        let mut starts = Vec::with_capacity(scheduled.len());
        let mut index = 0usize;
        for s in &scheduled {
            starts.push(index);
            index += s.instrs.len();
        }

        // Resolve labels and patch branch targets.
        let mut instrs = Vec::with_capacity(index);
        let mut jump_targets = Vec::new();
        for s in scheduled {
            let mut block_instrs = s.instrs;
            if let Some((cycle, slot, label)) = s.branch {
                let target_block = self.label_blocks[label.0];
                if target_block == usize::MAX {
                    return Err(BuildError::UnboundLabel);
                }
                let target = starts[target_block];
                jump_targets.push(target);
                // Re-place the branch with the resolved target.
                if let tm3270_isa::Slot::Single(o) = &mut block_instrs[cycle].slots[slot] {
                    debug_assert!(o.opcode.is_jump());
                    o.imm = target as i32;
                } else {
                    unreachable!("branch placeholder missing");
                }
            }
            // Patch label-address materializations (`op_label_addr`).
            for instr in &mut block_instrs {
                for slot in &mut instr.slots {
                    if let tm3270_isa::Slot::Single(o) = slot {
                        if o.opcode == Opcode::Iimm
                            && o.imm >= LABEL_ADDR_SENTINEL
                            && o.imm < LABEL_ADDR_SENTINEL + self.label_blocks.len() as i32
                        {
                            let label = (o.imm - LABEL_ADDR_SENTINEL) as usize;
                            let target_block = self.label_blocks[label];
                            if target_block == usize::MAX {
                                return Err(BuildError::UnboundLabel);
                            }
                            o.imm = starts[target_block] as i32;
                            jump_targets.push(starts[target_block]);
                        }
                    }
                }
            }
            instrs.extend(block_instrs);
        }
        jump_targets.sort_unstable();
        jump_targets.dedup();
        jump_targets.retain(|&t| t != 0 && t < instrs.len());
        Ok(Program {
            instrs,
            jump_targets,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(i: u8) -> Reg {
        Reg::new(i)
    }

    #[test]
    fn straight_line_program() {
        let mut b = ProgramBuilder::new(IssueModel::tm3270());
        b.op(Op::imm(r(2), 7));
        b.op(Op::rrr(Opcode::Iadd, r(3), r(2), r(2)));
        let p = b.build().unwrap();
        assert!(p.len() >= 2, "dependent add issues after iimm");
        assert_eq!(p.total_ops(), 2);
    }

    #[test]
    fn loop_has_delay_slots() {
        let model = IssueModel::tm3270();
        let mut b = ProgramBuilder::new(model);
        b.op(Op::imm(r(2), 10));
        let top = b.bind_here();
        b.op(Op::rri(Opcode::Iaddi, r(2), r(2), -1));
        b.op(Op::rri(Opcode::Igtri, r(3), r(2), 0));
        b.jump_if(r(3), top);
        let p = b.build().unwrap();
        // Find the branch.
        let (idx, _) = p
            .instrs
            .iter()
            .enumerate()
            .find(|(_, i)| i.ops().any(|(_, o)| o.opcode == Opcode::Jmpt))
            .expect("branch emitted");
        // The jump shadow must exist: 5 delay instructions follow.
        assert!(p.len() >= idx + 1 + 5, "5 delay slots after the branch");
    }

    #[test]
    fn tm3260_has_three_delay_slots() {
        let model = IssueModel::tm3260();
        let mut b = ProgramBuilder::new(model);
        let top = b.bind_here();
        b.op(Op::rri(Opcode::Iaddi, r(2), r(2), -1));
        b.op(Op::rri(Opcode::Igtri, r(3), r(2), 0));
        b.jump_if(r(3), top);
        let p = b.build().unwrap();
        let (idx, _) = p
            .instrs
            .iter()
            .enumerate()
            .find(|(_, i)| i.ops().any(|(_, o)| o.opcode == Opcode::Jmpt))
            .unwrap();
        assert!(p.len() >= idx + 1 + 3);
    }

    #[test]
    fn jump_targets_recorded() {
        let mut b = ProgramBuilder::new(IssueModel::tm3270());
        b.op(Op::imm(r(2), 1));
        let top = b.bind_here();
        b.op(Op::rri(Opcode::Iaddi, r(2), r(2), -1));
        b.op(Op::rri(Opcode::Igtri, r(3), r(2), 0));
        b.jump_if(r(3), top);
        let p = b.build().unwrap();
        assert_eq!(p.jump_targets.len(), 1);
        let t = p.jump_targets[0];
        assert!(p.is_jump_target(t));
        // The branch's immediate points at the target.
        let branch = p
            .instrs
            .iter()
            .flat_map(|i| i.ops().map(|(_, o)| *o))
            .find(|o| o.opcode == Opcode::Jmpt)
            .unwrap();
        assert_eq!(branch.imm as usize, t);
    }

    #[test]
    fn unbound_label_errors() {
        let mut b = ProgramBuilder::new(IssueModel::tm3270());
        let l = b.label();
        b.op(Op::imm(r(2), 1));
        b.jump(l);
        assert_eq!(b.build().unwrap_err(), BuildError::UnboundLabel);
    }

    #[test]
    fn guard_latency_delays_branch() {
        // The branch cannot issue before its guard is available.
        let model = IssueModel::tm3270();
        let mut b = ProgramBuilder::new(model);
        let out = b.label();
        b.op(Op::rrr(Opcode::Imul, r(3), r(2), r(2))); // lat 3 produces guard
        b.jump_if(r(3), out);
        b.bind(out);
        b.op(Op::rrr(Opcode::Iadd, r(4), r(2), r(2)));
        let p = b.build().unwrap();
        let (idx, _) = p
            .instrs
            .iter()
            .enumerate()
            .find(|(_, i)| i.ops().any(|(_, o)| o.opcode == Opcode::Jmpt))
            .unwrap();
        assert!(idx >= 3, "branch waits for the multiply: issued at {idx}");
    }

    #[test]
    fn call_and_return_round_trip() {
        // A function called from two sites returns to each correctly.
        let mut b = ProgramBuilder::new(IssueModel::tm3270());
        let func = b.label();
        let done = b.label();
        let link = r(30);
        // main: r4 = f(); r5 = f(); halt
        b.op(Op::imm(r(2), 5));
        b.call(link, func);
        b.op(Op::rrr(Opcode::Iadd, r(4), r(10), Reg::ZERO));
        b.op(Op::imm(r(2), 11));
        b.call(link, func);
        b.op(Op::rrr(Opcode::Iadd, r(5), r(10), Reg::ZERO));
        b.jump(done);
        // func: r10 = r2 * 2; return
        b.bind(func);
        b.op(Op::rrr(Opcode::Iadd, r(10), r(2), r(2)));
        b.ret(link);
        b.bind(done);
        let p = b.build().unwrap();
        // Both return points and the function entry are jump targets.
        assert!(p.jump_targets.len() >= 3, "{:?}", p.jump_targets);
        // The ijmpi return exists.
        assert!(p
            .instrs
            .iter()
            .flat_map(|i| i.ops().map(|(_, o)| o.opcode))
            .any(|o| o == Opcode::Ijmpi));
    }

    #[test]
    fn tm3270_only_ops_rejected_for_tm3260() {
        let mut b = ProgramBuilder::new(IssueModel::tm3260());
        b.op(Op::rrr(Opcode::LdFrac8, r(4), r(2), r(3)));
        assert!(matches!(b.build(), Err(BuildError::Sched(_))));
    }
}

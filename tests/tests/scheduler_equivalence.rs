//! End-to-end scheduler/pipeline correctness property: for random
//! straight-line dataflow programs, the scheduled program executed on the
//! cycle-approximate machine (with exposed latencies, write-back timing,
//! caches, the works) must produce exactly the same architectural state
//! as a sequential functional interpretation of the original operation
//! list.
//!
//! Counted loops around random bodies extend the property across block
//! boundaries: a taken branch must not leave its block before every
//! result of the block has landed.
//!
//! This is the strongest cross-crate invariant in the reproduction: it
//! exercises `tm3270-isa` semantics, the `tm3270-asm` dependence analysis
//! and slot/latency scheduling, the `tm3270-encode` round-trip (the
//! machine runs from the encoded image), and the `tm3270-core` +
//! `tm3270-mem` execution path.

use tm3270_asm::ProgramBuilder;
use tm3270_core::{Machine, MachineConfig, RunOptions};
use tm3270_fault::SmallRng;
use tm3270_isa::{execute, FlatMemory, Op, Opcode, Program, Reg, RegFile};

const BINARY_OPS: &[Opcode] = &[
    Opcode::Iadd,
    Opcode::Isub,
    Opcode::Iand,
    Opcode::Ior,
    Opcode::Ixor,
    Opcode::Imin,
    Opcode::Imax,
    Opcode::Quadavg,
    Opcode::Quadumin,
    Opcode::Quadumax,
    Opcode::Ume8uu,
    Opcode::Dspidualadd,
    Opcode::Dspidualsub,
    Opcode::Imul,
    Opcode::Umulm,
    Opcode::Ifir16,
    Opcode::Ifir8ui,
    Opcode::Asl,
    Opcode::Lsr,
    Opcode::Funshift2,
    Opcode::Pack16Lsb,
    Opcode::MergeMsb,
];

const UNARY_OPS: &[Opcode] = &[
    Opcode::Sex8,
    Opcode::Zex16,
    Opcode::Bitinv,
    Opcode::Iabs,
    Opcode::Dspidualabs,
];

const STORE_OPS: &[Opcode] = &[Opcode::St8d, Opcode::St16d, Opcode::St32d];

/// One random operation from a representative mix of ALU, SIMD,
/// multiplier, shifter and memory operations. Registers are drawn from
/// r2..r18 so collisions (and thus hazards) are frequent; addresses stay
/// in a small word-aligned window so cache lines collide.
fn random_op(rng: &mut SmallRng) -> Op {
    let reg = |rng: &mut SmallRng| Reg::new(2 + rng.below(16) as u8);
    // Guard register: mostly the always-true r1, sometimes data-dependent.
    let guard = |rng: &mut SmallRng| {
        if rng.chance(4, 5) {
            Reg::ONE
        } else {
            Reg::new(2 + rng.below(16) as u8)
        }
    };
    let addr_imm = |rng: &mut SmallRng| rng.range_i32(0, 63) * 4;

    match rng.below(9) {
        // Binary ALU / SIMD / multiplier operations.
        0 => {
            let opc = BINARY_OPS[rng.index(BINARY_OPS.len())];
            let g = guard(rng);
            let (d, s1, s2) = (reg(rng), reg(rng), reg(rng));
            Op::rrr(opc, d, s1, s2).with_guard(g)
        }
        // Unary operations.
        1 => {
            let opc = UNARY_OPS[rng.index(UNARY_OPS.len())];
            let (d, s) = (reg(rng), reg(rng));
            Op::rr(opc, d, s)
        }
        // Immediates.
        2 => Op::imm(reg(rng), rng.range_i32(-4000, 3999)),
        3 => {
            let (d, s) = (reg(rng), reg(rng));
            Op::rri(Opcode::Iaddi, d, s, rng.range_i32(-100, 99))
        }
        4 => {
            let (d, s) = (reg(rng), reg(rng));
            Op::rri(Opcode::Asri, d, s, rng.range_i32(0, 30))
        }
        // Loads (various widths, possibly non-aligned via the +off).
        5 => {
            let (d, s) = (reg(rng), reg(rng));
            let a = addr_imm(rng) + rng.range_i32(0, 2);
            Op::rri(Opcode::Ld32d, d, s, a)
        }
        6 => {
            let (d, s) = (reg(rng), reg(rng));
            Op::rri(Opcode::Uld16d, d, s, addr_imm(rng))
        }
        7 => {
            let (d, s) = (reg(rng), reg(rng));
            Op::rri(Opcode::Ld8d, d, s, addr_imm(rng))
        }
        // Stores (guarded sometimes).
        _ => {
            let g = guard(rng);
            let (s1, s2) = (reg(rng), reg(rng));
            let a = addr_imm(rng);
            let opc = STORE_OPS[rng.index(STORE_OPS.len())];
            Op::new(opc, g, &[s1, s2], &[], a)
        }
    }
}

/// Sequential functional interpretation: operations applied in order with
/// immediate result visibility.
fn interpret(ops: &[Op], mem_size: usize) -> (RegFile, FlatMemory) {
    let mut rf = RegFile::new();
    let mut mem = FlatMemory::new(mem_size);
    for op in ops {
        let res = execute(op, &rf, &mut mem).expect("in-bounds access on a permissive memory");
        for (r, v) in res.write_iter() {
            rf.write(r, v);
        }
    }
    (rf, mem)
}

/// Runs `program` to completion and requires the machine to end in the
/// sequential reference state: every register and the first 4 KB of
/// memory.
fn assert_matches(
    config: MachineConfig,
    program: Program,
    want: &(RegFile, FlatMemory),
    case: &str,
) {
    let (ref_rf, ref_mem) = want;
    let mut machine = Machine::new(config, program).expect("encodable");
    let stats = machine
        .run_with(RunOptions::budget(10_000_000))
        .into_result()
        .expect("halts");
    assert!(stats.cycles > 0);
    for i in 0..128u8 {
        let r = Reg::new(i);
        assert_eq!(
            machine.reg(r),
            ref_rf.read(r),
            "{case}: register {r} differs"
        );
    }
    let got = machine.read_data(0, 4096);
    let mut want = vec![0u8; 4096];
    ref_mem.read_into(0, &mut want);
    assert_eq!(&got[..], &want[..], "{case}: memory");
}

fn random_config(rng: &mut SmallRng) -> MachineConfig {
    if rng.chance(1, 2) {
        MachineConfig::tm3270()
    } else {
        MachineConfig::tm3260()
    }
}

#[test]
fn scheduled_machine_matches_sequential_interpretation() {
    let mut rng = SmallRng::new(0x5c4e_d001);
    for case in 0..64 {
        let ops: Vec<Op> = (0..1 + rng.index(59))
            .map(|_| random_op(&mut rng))
            .collect();
        let config = random_config(&mut rng);
        // Base registers start at 0, so all memory traffic lands in the
        // first pages of the flat memory.
        let want = interpret(&ops, config.mem.mem_size);

        let mut b = ProgramBuilder::new(config.issue);
        for &op in &ops {
            b.op(op);
        }
        let program = b.build().expect("random dataflow must schedule");
        assert_matches(config, program, &want, &format!("case {case}"));
    }
}

/// Builds `prelude`, then a loop that runs `body` `iterations` times, and
/// returns the program with the sequential reference state. The loop
/// counter lives in r20 and the branch guard in r21, outside the bodies'
/// registers.
fn counted_loop(
    config: &MachineConfig,
    prelude: &[Op],
    body: &[Op],
    iterations: i32,
) -> (Program, (RegFile, FlatMemory)) {
    let (counter, cond) = (Reg::new(20), Reg::new(21));
    let mut sequential = prelude.to_vec();
    sequential.push(Op::imm(counter, iterations));
    let mut b = ProgramBuilder::new(config.issue);
    for &op in &sequential {
        b.op(op);
    }
    let top = b.bind_here();
    let step = [
        Op::rri(Opcode::Iaddi, counter, counter, -1),
        Op::rri(Opcode::Igtri, cond, counter, 0),
    ];
    for &op in body.iter().chain(&step) {
        b.op(op);
    }
    b.jump_if(cond, top);
    for _ in 0..iterations {
        sequential.extend_from_slice(body);
        sequential.extend_from_slice(&step);
    }
    let program = b.build().expect("counted loop must schedule");
    (program, interpret(&sequential, config.mem.mem_size))
}

/// A taken branch leaves its block only after every register result of
/// the block has landed: here the last `imul` (latency 3) of one
/// iteration feeds the `iaddi` at the top of the next.
#[test]
fn taken_branch_waits_for_every_result_to_land() {
    let (acc, x, x2, x3) = (Reg::new(3), Reg::new(4), Reg::new(5), Reg::new(6));
    let body = [
        Op::rri(Opcode::Iaddi, x, acc, 0),
        Op::rrr(Opcode::Imul, x2, x, x),
        Op::rrr(Opcode::Imul, x3, x2, x),
        Op::rrr(Opcode::Imul, acc, x3, x),
    ];
    for config in [MachineConfig::config_a(), MachineConfig::config_d()] {
        let (program, want) = counted_loop(&config, &[Op::imm(acc, 3)], &body, 5);
        // acc = 3^(4^5) mod 2^32.
        assert_eq!(want.0.read(acc), 0x9023_d001);
        assert_matches(config.clone(), program, &want, config.name);
    }
}

#[test]
fn counted_loops_match_sequential_interpretation() {
    let mut rng = SmallRng::new(0x100b_5eed);
    for case in 0..48 {
        let body: Vec<Op> = (0..1 + rng.index(24))
            .map(|_| random_op(&mut rng))
            .collect();
        let config = random_config(&mut rng);
        let iterations = 1 + rng.range_i32(0, 5);
        let (program, want) = counted_loop(&config, &[], &body, iterations);
        assert_matches(config, program, &want, &format!("loop case {case}"));
    }
}

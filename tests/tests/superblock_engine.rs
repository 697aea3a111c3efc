//! Superblock-engine seam suite: the fused straight-line dispatch loop
//! must be invisible at every architectural boundary.
//!
//! Three boundaries are attacked here:
//!
//! 1. **Block discovery** — [`tm3270_encode::superblocks`] must
//!    partition every registry workload program on both issue models:
//!    contiguous spans, no gaps, no overlaps, and every static jump
//!    target landing exactly on a block head (a jump into the middle of
//!    a fused block would execute instructions the branch skipped).
//! 2. **Budget slicing** — a run chopped into budget quanta of 1, 7 and
//!    1000 cycles re-enters the fused loop mid-block at every seam and
//!    must still complete bit-identically to an uninterrupted run, down
//!    to the full snapshot byte image (registers, write ring, caches,
//!    DRAM timing, memory).
//! 3. **Run paths** — untraced, sink-attached, decoded-image and
//!    single-stepped runs all take the fused loop and must agree with
//!    the plain per-instruction [`run_reference`] model on every simulated
//!    statistic and on the memory system's state bytes; the traced run
//!    must emit a self-consistent event stream, pinned event for event.

use std::cell::RefCell;
use std::rc::Rc;

use tm3270_core::{Machine, MachineConfig, RunOptions, SimError};
use tm3270_encode::superblocks;
use tm3270_integration::reference::{run_reference, Outcome};
use tm3270_kernels::registry;
use tm3270_obs::{CounterSink, SinkHandle, TraceEvent, TraceSink};

/// Builds the machine for one (workload, config) cell with kernel setup.
fn build_cell(workload: &tm3270_kernels::Workload, config: &MachineConfig) -> Machine {
    let program = workload.build(&config.issue).unwrap();
    let mut m = Machine::new(config.clone(), program).unwrap();
    workload.kernel().setup(&mut m);
    m
}

/// `superblocks` partitions every registry workload program on both
/// issue models: block 0 starts at instruction 0, spans are contiguous
/// and non-empty, the last span ends at the program length, and every
/// static jump target is a block head.
#[test]
fn superblocks_partition_every_workload_program() {
    let configs = MachineConfig::evaluation_suite();
    let mut programs = 0usize;
    for workload in registry(1).iter() {
        for config in &configs {
            let program = match workload.build(&config.issue) {
                Ok(p) => p,
                // Workloads gated to one issue model are covered by the
                // model they support.
                Err(_) => continue,
            };
            let cell = format!("{} on {}", workload.name(), config.name);
            let blocks = superblocks(&program);
            let n = program.instrs.len();
            assert!(n > 0, "{cell}: empty program");
            assert_eq!(blocks.first().unwrap().head, 0, "{cell}: first head");
            assert_eq!(blocks.last().unwrap().end, n, "{cell}: last end");
            for pair in blocks.windows(2) {
                assert_eq!(
                    pair[0].end, pair[1].head,
                    "{cell}: gap or overlap between blocks"
                );
            }
            for b in &blocks {
                assert!(b.head < b.end, "{cell}: empty block at {}", b.head);
            }
            // Every static jump target (immediate-target jumps scanned
            // straight out of the instruction stream, independently of
            // the program's own jump_targets list) must be a head.
            let heads: Vec<usize> = blocks.iter().map(|b| b.head).collect();
            for instr in &program.instrs {
                for (_, op) in instr.ops() {
                    use tm3270_isa::Opcode::{Jmpf, Jmpi, Jmpt};
                    if matches!(op.opcode, Jmpt | Jmpf | Jmpi) {
                        let target = op.imm as usize;
                        if target < n {
                            assert!(
                                heads.binary_search(&target).is_ok(),
                                "{cell}: jump target {target} is not a block head"
                            );
                        }
                    }
                }
            }
            // And the program's declared jump-target list agrees.
            for &t in &program.jump_targets {
                if t < n {
                    assert!(
                        heads.binary_search(&t).is_ok(),
                        "{cell}: declared jump target {t} is not a block head"
                    );
                }
            }
            programs += 1;
        }
    }
    assert!(programs >= 44, "only {programs} programs partitioned");
}

/// Runs `m` to completion in absolute-budget slices of `quantum`
/// cycles, returning the final stats. Every slice but the last trips
/// the budget as a `CycleLimit`, forcing the fused loop to flush and
/// re-enter mid-block at the seam.
fn run_sliced(
    m: &mut Machine,
    quantum: u64,
    full_budget: u64,
    cell: &str,
) -> tm3270_core::RunStats {
    let mut budget = quantum.min(full_budget);
    loop {
        match m.run_with(RunOptions::budget(budget)).into_result() {
            Ok(stats) => return stats,
            Err(SimError::CycleLimit { .. }) => {
                assert!(
                    budget < full_budget,
                    "{cell}: did not complete within the reference budget"
                );
                budget = (budget + quantum).min(full_budget);
            }
            Err(e) => panic!("{cell}: {e}"),
        }
    }
}

/// Budget slicing is bit-identical to an uninterrupted run on every
/// golden kernel: same final statistics, register digest, and full
/// snapshot byte image, for quanta that slice every cycle (1), at a
/// coprime stride (7), and at a coarse stride (1000).
#[test]
fn budget_slices_are_bit_identical_to_uninterrupted() {
    let config = MachineConfig::tm3270();
    let mut cells = 0usize;
    for workload in registry(1).iter().filter(|w| w.is_golden()) {
        let cell = format!("{} on {}", workload.name(), config.name);
        let mut reference = build_cell(workload, &config);
        let ref_stats = reference
            .run_with(RunOptions::budget(workload.cycle_budget()))
            .into_result()
            .unwrap_or_else(|e| panic!("{cell}: {e}"));
        let ref_bytes = reference.snapshot().into_bytes();

        // Quantum 1 re-enters the engine on every simulated cycle; it
        // is O(cycles) run_with calls, so bound it to the short
        // kernels. Quanta 7 and 1000 cover every golden kernel.
        let quanta: &[u64] = if ref_stats.cycles <= 50_000 {
            &[1, 7, 1000]
        } else {
            &[7, 1000]
        };
        for &quantum in quanta {
            let mut sliced = build_cell(workload, &config);
            let stats = run_sliced(&mut sliced, quantum, workload.cycle_budget(), &cell);
            assert_eq!(stats, ref_stats, "{cell}: stats, quantum {quantum}");
            assert_eq!(
                sliced.reg_digest(),
                reference.reg_digest(),
                "{cell}: reg digest, quantum {quantum}"
            );
            assert_eq!(
                sliced.snapshot().into_bytes(),
                ref_bytes,
                "{cell}: snapshot bytes, quantum {quantum}"
            );
        }
        cells += 1;
    }
    assert_eq!(cells, 11, "every golden kernel was sliced");
}

/// Every run path of the one engine — untraced, sink-attached, a
/// machine decoded from the golden image, and single-stepped — matches
/// the reference model on all 11 golden kernels on configs A and D, and
/// every instruction of every path ran on the fused loop. `upconv_opt_pf`
/// joins them on config D (it has no `ld_frac8` slot on the TM3260):
/// no golden kernel arms the prefetch unit, and only a prefetch in
/// flight makes an instruction without memory ops touch the memory
/// model.
#[test]
fn reference_model_matches_every_run_path() {
    // One thread per configuration: the cells are independent and this
    // is the suite's longest test.
    let cells: usize = std::thread::scope(|scope| {
        [MachineConfig::tm3260(), MachineConfig::tm3270()]
            .map(|config| scope.spawn(move || check_run_paths(&config)))
            .into_iter()
            .map(|t| t.join().expect("a cell failed"))
            .sum()
    });
    assert_eq!(cells, 23, "golden kernels on A and D, upconv_opt_pf on D");
}

/// The cells of [`reference_model_matches_every_run_path`] on one
/// configuration; returns how many ran.
fn check_run_paths(config: &MachineConfig) -> usize {
    let mut cells = 0usize;
    let registry = registry(1);
    let workloads = registry
        .iter()
        .filter(|w| w.is_golden() || w.name() == "upconv_opt_pf");
    for workload in workloads {
        if workload.build(&config.issue).is_err() {
            continue;
        }
        let cell = format!("{} on {}", workload.name(), config.name);
        let budget = workload.cycle_budget();
        let fresh = build_cell(workload, config);
        let expected =
            run_reference(&fresh, budget).unwrap_or_else(|e| panic!("{cell}: reference: {e}"));

        let run = |m: &mut Machine| {
            m.run_with(RunOptions::budget(budget))
                .into_result()
                .unwrap_or_else(|e| panic!("{cell}: {e}"))
        };
        let mut untraced = build_cell(workload, config);
        let mut traced = build_cell(workload, config);
        traced.attach_sink(SinkHandle::from(Rc::new(RefCell::new(CounterSink::new()))));
        let mut decoded = Machine::from_image(config.clone(), fresh.image().clone())
            .unwrap_or_else(|e| panic!("{cell}: decode: {e}"));
        workload.kernel().setup(&mut decoded);
        let mut stepped = build_cell(workload, config);
        while !stepped.is_halted() {
            stepped
                .step()
                .unwrap_or_else(|e| panic!("{cell}: step: {e}"));
        }
        for (path, m) in [
            ("untraced", &mut untraced),
            ("sink-attached", &mut traced),
            ("from_image", &mut decoded),
            ("single-stepped", &mut stepped),
        ] {
            let stats = run(m);
            assert!(
                Outcome::of(m, stats) == expected,
                "{cell}: {path} run diverged from the reference model"
            );
            assert_eq!(
                m.engine_telemetry().fused_instrs,
                stats.instrs,
                "{cell}: {path} run left the fused loop"
            );
            workload
                .kernel()
                .verify(m)
                .unwrap_or_else(|e| panic!("{cell}: {path}: verify failed: {e}"));
        }
        cells += 1;
    }
    cells
}

/// Attaching an event sink keeps the run on the fused loop, emits a
/// self-consistent per-cycle event stream, and still reproduces the
/// untraced run's statistics and register digest exactly.
#[test]
fn sink_attached_run_stays_fused_bit_identically() {
    let config = MachineConfig::tm3270();
    for workload in registry(1).iter().filter(|w| w.is_golden()).take(3) {
        let cell = format!("{} on {}", workload.name(), config.name);
        let mut fused = build_cell(workload, &config);
        let fused_stats = fused
            .run_with(RunOptions::budget(workload.cycle_budget()))
            .into_result()
            .unwrap_or_else(|e| panic!("{cell}: {e}"));

        let mut traced = build_cell(workload, &config);
        let counters = Rc::new(RefCell::new(CounterSink::new()));
        traced.attach_sink(SinkHandle::from(counters.clone()));
        let traced_stats = traced
            .run_with(RunOptions::budget(workload.cycle_budget()))
            .into_result()
            .unwrap_or_else(|e| panic!("{cell}: traced: {e}"));
        assert_eq!(
            traced.engine_telemetry().fused_instrs,
            traced_stats.instrs,
            "{cell}: traced run must stay fused"
        );

        assert_eq!(traced_stats, fused_stats, "{cell}: stats diverged");
        assert_eq!(traced.reg_digest(), fused.reg_digest(), "{cell}: digest");

        // The event stream must be complete: the cycle-bucket
        // decomposition covers every simulated cycle and per-slot
        // dispatch counts sum to the op totals.
        let c = counters.borrow();
        assert!(c.events > 0, "{cell}: no events emitted");
        assert_eq!(
            c.buckets().total(),
            traced_stats.cycles,
            "{cell}: stall buckets must decompose every cycle"
        );
        let ops: u64 = c.ops_per_slot.iter().sum();
        let exec: u64 = c.executed_per_slot.iter().sum();
        assert_eq!(ops, traced_stats.ops, "{cell}: per-slot op counts");
        assert_eq!(exec, traced_stats.exec_ops, "{cell}: per-slot exec counts");
    }
}

/// Counts trace events and folds each event's `Debug` text into an
/// FNV-1a digest, so event order and every field are pinned, not only
/// the per-kind sums the conservation suites check.
struct DigestSink {
    events: u64,
    hash: u64,
}

impl std::fmt::Write for DigestSink {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        for b in s.bytes() {
            self.hash ^= u64::from(b);
            self.hash = self.hash.wrapping_mul(0x100_0000_01b3);
        }
        Ok(())
    }
}

impl TraceSink for DigestSink {
    fn event(&mut self, event: &TraceEvent) {
        use std::fmt::Write;
        self.events += 1;
        writeln!(self, "{event:?}").unwrap();
    }
}

/// The traced engine emits exactly the event stream pinned below on
/// config D: per kernel, the event count and a digest of every event's
/// `Debug` text in emission order. The values were captured while
/// traced runs still took the separate per-instruction engine, so the
/// fused loop's `TRACING` instantiation is held to that engine's stream.
#[test]
fn traced_event_stream_is_pinned() {
    const PINNED: &[(&str, u64, u64)] = &[
        ("memset", 47118, 0xc7856b2cc61a8dd7),
        ("memcpy", 100874, 0x5bc47aea74ac60f3),
        ("mpeg2_a", 1568229, 0xb7e069be7e4ecdad),
        ("filter", 1393583, 0xb14046f900196bfc),
        ("rgb2yuv", 2582601, 0x6856bf17b4878f9e),
    ];
    let config = MachineConfig::tm3270();
    let mut measured = Vec::new();
    for &(name, _, _) in PINNED {
        let workload = registry(1)
            .into_iter()
            .find(|w| w.name() == name)
            .unwrap_or_else(|| panic!("{name} in registry"));
        let mut m = build_cell(&workload, &config);
        let sink = Rc::new(RefCell::new(DigestSink {
            events: 0,
            hash: 0xcbf2_9ce4_8422_2325,
        }));
        m.attach_sink(SinkHandle::from(sink.clone()));
        m.run_with(RunOptions::budget(workload.cycle_budget()))
            .into_result()
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        let s = sink.borrow();
        measured.push((name, s.events, s.hash));
    }
    assert_eq!(measured, PINNED, "per-kernel (events, digest)");
}

/// A latency-`load_latency` `ld32d r4` at instruction 2 and a latency-1
/// `iadd r4` issued so both results land in the same slot. No scheduled
/// program does this; the pipeline's rule is that the earlier-pushed
/// write — the load — wins.
fn same_slot_collision(config: &MachineConfig) -> tm3270_isa::Program {
    use tm3270_isa::{Instr, Op, Opcode, Program, Reg};
    let r = Reg::new;
    let mut p = Program::new();
    let mut setup = Instr::nop();
    setup.place(Op::imm(r(2), 0x1000), 0);
    setup.place(Op::imm(r(3), 0x1111), 1);
    setup.place(Op::imm(r(5), 0x2000), 2);
    setup.place(Op::imm(r(6), 0x0222), 3);
    p.instrs.push(setup);
    let mut store = Instr::nop();
    store.place(Op::new(Opcode::St32d, Reg::ONE, &[r(2), r(3)], &[], 0), 3);
    p.instrs.push(store);
    let mut load = Instr::nop();
    load.place(Op::rri(Opcode::Ld32d, r(4), r(2), 0), 4);
    p.instrs.push(load);
    for _ in 1..config.issue.load_latency - 1 {
        p.instrs.push(Instr::nop());
    }
    let mut add = Instr::nop();
    add.place(Op::rrr(Opcode::Iadd, r(4), r(5), r(6)), 0);
    p.instrs.push(add);
    for _ in 0..8 {
        p.instrs.push(Instr::nop());
    }
    p
}

/// The same-slot writeback collision rule holds on every run path and in
/// the reference model, on the TM3270 (load latency 4) and the TM3260
/// (load latency 3).
#[test]
fn earlier_pushed_write_wins_a_same_slot_collision() {
    for config in [MachineConfig::tm3270(), MachineConfig::tm3260()] {
        let program = same_slot_collision(&config);
        let fresh = Machine::new(config.clone(), program.clone()).unwrap();
        let expected = run_reference(&fresh, 10_000).unwrap();

        let mut untraced = Machine::new(config.clone(), program.clone()).unwrap();
        let mut traced = Machine::new(config.clone(), program.clone()).unwrap();
        traced.attach_sink(SinkHandle::from(Rc::new(RefCell::new(CounterSink::new()))));
        let mut decoded = Machine::from_image(config.clone(), fresh.image().clone()).unwrap();
        let mut stepped = Machine::new(config.clone(), program).unwrap();
        while !stepped.is_halted() {
            stepped.step().unwrap();
        }
        for (path, m) in [
            ("untraced", &mut untraced),
            ("sink-attached", &mut traced),
            ("from_image", &mut decoded),
            ("single-stepped", &mut stepped),
        ] {
            let stats = m
                .run_with(RunOptions::budget(10_000))
                .into_result()
                .unwrap();
            assert_eq!(
                m.reg(tm3270_isa::Reg::new(4)),
                0x1111,
                "{}: {path}: the load must win",
                config.name
            );
            assert!(
                Outcome::of(m, stats) == expected,
                "{}: {path} diverged from the reference model",
                config.name
            );
        }
    }
}

//! Snapshot/restore equivalence suite: on every (golden workload ×
//! evaluation configuration) cell, a run that is snapshotted at its
//! halfway point and restored into a **fresh** machine — no kernel
//! setup, no warm state — must finish with the exact statistics,
//! register digest and verified memory contents of an uninterrupted
//! run. Any divergence would mean the snapshot missed state the
//! simulation depends on.
//!
//! A second group attacks the container itself: truncations, bit
//! flips, wrong magic and future format versions must all surface as
//! typed [`SnapshotError`]s from [`Machine::restore`] — never a panic,
//! and never a silently half-restored machine being *accepted*.

use tm3270_core::{Machine, MachineConfig, RunOptions, Snapshot, SnapshotError};
use tm3270_encode::snapshot::{Edge, State};
use tm3270_encode::SnapshotWriter;
use tm3270_kernels::registry;

/// Builds the machine for one cell. `setup` controls whether the
/// kernel's input state is installed — the restore target skips it to
/// prove the snapshot carries everything.
fn build_cell(workload: &tm3270_kernels::Workload, config: &MachineConfig, setup: bool) -> Machine {
    let program = workload.build(&config.issue).unwrap();
    let mut m = Machine::new(config.clone(), program).unwrap();
    if setup {
        workload.kernel().setup(&mut m);
    }
    m
}

/// Every cell: run to completion; re-run to the halfway cycle, snapshot,
/// restore into a fresh un-setup machine, run to completion again; the
/// two completions must be bit-identical.
#[test]
fn a_mid_run_snapshot_restores_to_a_bit_identical_completion() {
    let configs = MachineConfig::evaluation_suite();
    let mut cells = 0usize;
    for workload in registry(1).iter().filter(|w| w.is_golden()) {
        for config in &configs {
            let cell = format!("{} on {}", workload.name(), config.name);

            // The uninterrupted reference run.
            let mut reference = build_cell(workload, config, true);
            let ref_stats = reference
                .run_with(RunOptions::budget(workload.cycle_budget()))
                .into_result()
                .unwrap_or_else(|e| panic!("{cell}: {e}"));
            let ref_digest = reference.reg_digest();

            // The interrupted run: stop halfway (the budget trips as a
            // CycleLimit, leaving the machine intact) and snapshot.
            let mut interrupted = build_cell(workload, config, true);
            let half = ref_stats.cycles / 2;
            let outcome = interrupted.run_with(RunOptions::budget(half)).into_result();
            assert!(
                matches!(outcome, Err(tm3270_core::SimError::CycleLimit { .. })),
                "{cell}: expected the half budget to trip, got {outcome:?}"
            );
            let snapshot = interrupted.snapshot();

            // Restore into a fresh machine with NO kernel setup: if the
            // snapshot missed any state (registers, caches, prefetch,
            // DRAM timing, write ring, flat memory), the continuation
            // diverges.
            let mut restored = build_cell(workload, config, false);
            restored
                .restore(&snapshot)
                .unwrap_or_else(|e| panic!("{cell}: restore failed: {e}"));
            assert_eq!(restored.cycle(), interrupted.cycle(), "{cell}: cycle");
            assert_eq!(restored.pc(), interrupted.pc(), "{cell}: pc");
            let final_stats = restored
                .run_with(RunOptions::budget(workload.cycle_budget()))
                .into_result()
                .unwrap_or_else(|e| panic!("{cell}: continuation failed: {e}"));

            assert_eq!(final_stats, ref_stats, "{cell}: stats diverged");
            assert_eq!(restored.reg_digest(), ref_digest, "{cell}: reg digest");
            restored
                .kernel_verify(workload)
                .unwrap_or_else(|e| panic!("{cell}: verify failed: {e}"));
            cells += 1;
        }
    }
    assert_eq!(cells, 44, "every evaluation cell was exercised");
}

/// Gives tests a verify entry point without re-importing the kernel
/// trait everywhere.
trait KernelVerify {
    fn kernel_verify(&self, workload: &tm3270_kernels::Workload) -> Result<(), String>;
}

impl KernelVerify for Machine {
    fn kernel_verify(&self, workload: &tm3270_kernels::Workload) -> Result<(), String> {
        workload.kernel().verify(self).map_err(|e| e.to_string())
    }
}

/// A snapshot taken at the moment of completion round-trips through hex
/// and restores exactly (pc, cycle, digest).
#[test]
fn snapshots_round_trip_through_hex() {
    let config = &MachineConfig::evaluation_suite()[0];
    let workload = &registry(1)[0];
    let mut m = build_cell(workload, config, true);
    m.run_with(RunOptions::budget(workload.cycle_budget()))
        .into_result()
        .unwrap();
    let snapshot = m.snapshot();
    let back = Snapshot::from_hex(&snapshot.to_hex()).unwrap();
    assert_eq!(snapshot, back);

    let mut restored = build_cell(workload, config, false);
    restored.restore(&back).unwrap();
    assert_eq!(restored.cycle(), m.cycle());
    assert_eq!(restored.pc(), m.pc());
    assert_eq!(restored.reg_digest(), m.reg_digest());
}

/// Byte offsets worth cutting or flipping in a `TM3S` blob, found by
/// walking its framing: the 8-byte header, one `tag(4) + len(8)` frame
/// per section, the 8-byte trailer. Covers every byte of the first 128
/// and the last 16, every section boundary ±16 bytes, and a fixed-seed
/// sample of 256 interior offsets — linear cost instead of a dense scan
/// of a multi-megabyte blob. Sorted, deduplicated, all `< bytes.len()`.
fn framing_positions(bytes: &[u8]) -> Vec<usize> {
    let n = bytes.len();
    let body = n - 8;
    let mut boundaries = vec![0, 8, body, n];
    let mut at = 8;
    while at + 12 <= body {
        let len = u64::from_le_bytes(bytes[at + 4..at + 12].try_into().unwrap()) as usize;
        boundaries.extend([at + 4, at + 12]);
        at += 12 + len;
        boundaries.push(at);
    }
    assert_eq!(at, body, "section frames tile the body exactly");

    let mut positions: Vec<usize> = (0..128).chain(n.saturating_sub(16)..n).collect();
    for b in boundaries {
        positions.extend(b.saturating_sub(16)..(b + 17).min(n));
    }
    let mut rng = tm3270_fault::SmallRng::new(0x7e35);
    positions.extend((0..256).map(|_| rng.index(n)));
    positions.sort_unstable();
    positions.dedup();
    positions
}

/// Truncating a snapshot at any framing-relevant point yields a typed
/// error — never a panic, never an accepted restore.
#[test]
fn every_truncation_is_rejected_with_a_typed_error() {
    let config = &MachineConfig::evaluation_suite()[0];
    let workload = &registry(1)[0];
    let mut m = build_cell(workload, config, true);
    let _ = m.run_with(RunOptions::budget(200)).into_result();
    let bytes = m.snapshot().into_bytes();

    let mut target = build_cell(workload, config, false);
    for len in framing_positions(&bytes) {
        let cut = Snapshot::from_bytes(bytes[..len].to_vec());
        let err = target
            .restore(&cut)
            .expect_err("a truncated snapshot must not restore");
        // Every failure is one of the typed variants; rendering it must
        // not panic either.
        let _ = err.to_string();
    }
}

/// Flipping a byte anywhere in the framing (or a sampled payload byte)
/// trips the checksum or an earlier framing check.
#[test]
fn corrupted_snapshots_fail_the_checksum() {
    let config = &MachineConfig::evaluation_suite()[0];
    let workload = &registry(1)[0];
    let mut m = build_cell(workload, config, true);
    let _ = m.run_with(RunOptions::budget(200)).into_result();
    let bytes = m.snapshot().into_bytes();

    let mut target = build_cell(workload, config, false);
    for at in framing_positions(&bytes) {
        let mut corrupt = bytes.clone();
        corrupt[at] ^= 0x20;
        let err = target
            .restore(&Snapshot::from_bytes(corrupt))
            .expect_err("a corrupted snapshot must not restore");
        let _ = err.to_string();
    }
}

/// A snapshot from a future format version is refused as a version
/// mismatch — even when its checksum is valid — and wrong magic is
/// refused outright.
#[test]
fn foreign_headers_are_refused() {
    let config = &MachineConfig::evaluation_suite()[0];
    let workload = &registry(1)[0];
    let mut m = build_cell(workload, config, true);
    let _ = m.run_with(RunOptions::budget(200)).into_result();
    let bytes = m.snapshot().into_bytes();
    let mut target = build_cell(workload, config, false);

    // Bump the version and re-seal the checksum so only the version
    // check can object.
    let mut future = bytes.clone();
    future[4] = 2;
    let body_len = future.len() - 8;
    let sum = tm3270_encode::snapshot::snapshot_checksum(&future[..body_len]);
    future[body_len..].copy_from_slice(&sum.to_le_bytes());
    assert_eq!(
        target.restore(&Snapshot::from_bytes(future)),
        Err(SnapshotError::VersionMismatch {
            found: 2,
            expected: 1
        })
    );

    let mut alien = bytes;
    alien[..4].copy_from_slice(b"NOPE");
    assert_eq!(
        target.restore(&Snapshot::from_bytes(alien)),
        Err(SnapshotError::BadMagic)
    );
}

/// Payload offset of section `tag` in a `TM3S` blob.
fn section_payload(bytes: &[u8], tag: [u8; 4]) -> usize {
    let mut at = 8;
    loop {
        let len = u64::from_le_bytes(bytes[at + 4..at + 12].try_into().unwrap()) as usize;
        if bytes[at..at + 4] == tag {
            return at + 12;
        }
        at += 12 + len;
    }
}

/// `bytes` with `value` written at `offset` into the payload of section
/// `tag`, re-sealed with a valid checksum.
fn reseal(bytes: &[u8], tag: [u8; 4], offset: usize, value: &[u8]) -> Snapshot {
    let mut out = bytes.to_vec();
    let at = section_payload(&out, tag) + offset;
    out[at..at + value.len()].copy_from_slice(value);
    let body_len = out.len() - 8;
    let sum = tm3270_encode::snapshot::snapshot_checksum(&out[..body_len]);
    out[body_len..].copy_from_slice(&sum.to_le_bytes());
    Snapshot::from_bytes(out)
}

/// Offset of `row`, a dotted path of the machine's snapshot table, in
/// its section's payload.
fn row_offset(m: &Machine, row: &str) -> usize {
    let mut found = None;
    let mark = &mut |r: &str, at| found = found.or((r == row).then_some(at));
    SnapshotWriter::new().sections(|w| m.layout(w, mark));
    found.unwrap_or_else(|| panic!("no row {row}"))
}

/// The table-driven generator: a checksum-valid snapshot of `m` per
/// bound of every invariant of its snapshot table, with the row at the
/// bound and just past it.
fn edge_snapshots(m: &mut Machine) -> Vec<(Edge, Snapshot)> {
    let mut out = Vec::new();
    m.for_each_edge(&mut |m, edge| out.push((edge, m.snapshot())));
    out
}

fn core_u64(m: &Machine, bytes: &[u8], row: &str) -> u64 {
    let at = section_payload(bytes, *b"CORE") + row_offset(m, row);
    u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap())
}

/// An exit kind of the engine: its name, a builder of the fresh machine
/// and the run budget that reaches that exit.
type ExitKind = (&'static str, fn() -> Machine, u64);

/// One machine per exit kind of the engine.
fn exit_kinds() -> [ExitKind; 5] {
    use tm3270_asm::ProgramBuilder;
    use tm3270_isa::{Instr, IssueModel, Op, Opcode, Program, Reg};
    fn workload() -> Machine {
        build_cell(&registry(1)[0], &MachineConfig::evaluation_suite()[0], true)
    }
    fn misaligned() -> Machine {
        let mut config = MachineConfig::tm3270();
        config.mem.strict_access = true;
        let mut b = ProgramBuilder::new(config.issue);
        b.op(Op::imm(Reg::new(2), 2));
        b.op(Op::rri(Opcode::Iaddi, Reg::new(4), Reg::new(2), 0));
        b.op(Op::rri(Opcode::Ld32d, Reg::new(3), Reg::new(4), 0));
        Machine::new(config, b.build().unwrap()).unwrap()
    }
    fn spin() -> Machine {
        let mut b = ProgramBuilder::new(IssueModel::tm3270());
        let top = b.bind_here();
        b.jump(top);
        let mut m = Machine::new(MachineConfig::tm3270(), b.build().unwrap()).unwrap();
        m.set_watchdog(500);
        m
    }
    fn double_branch() -> Machine {
        let mut p = Program::new();
        for target in [3, 4] {
            let mut i = Instr::nop();
            i.place(Op::new(Opcode::Jmpi, Reg::ONE, &[], &[], target), 1);
            p.instrs.push(i);
        }
        for _ in 0..8 {
            p.instrs.push(Instr::nop());
        }
        p.jump_targets = vec![3, 4];
        Machine::new(MachineConfig::tm3270(), p).unwrap()
    }
    [
        ("halt", workload, u64::MAX),
        ("budget seam", workload, 200),
        ("exec error", misaligned, 1_000_000),
        ("watchdog", spin, 1_000_000),
        ("branch in delay slot", double_branch, 1_000_000),
    ]
}

/// `restore` accepts every state the engine leaves behind and rejects,
/// as corrupt, checksum-valid states it can never produce and would
/// misbehave on: a writeback cursor apart from the instruction count, a
/// pending branch with no delay slots left, a counter one run could
/// overflow, and a last-progress cycle after the current cycle.
#[test]
fn restore_accepts_exactly_the_states_the_engine_produces() {
    for (kind, build, budget) in exit_kinds() {
        let mut m = build();
        let outcome = m.run_with(RunOptions::budget(budget)).into_result();
        assert_eq!(outcome.is_ok(), kind == "halt", "{kind}: {outcome:?}");
        let snapshot = m.snapshot();
        let mut restored = build();
        restored
            .restore(&snapshot)
            .unwrap_or_else(|e| panic!("{kind}: real snapshot refused: {e}"));
        let resumed = restored.run_with(RunOptions::budget(budget)).into_result();
        assert_eq!(resumed.is_ok(), outcome.is_ok(), "{kind}: resumed run");
    }

    let mut m = build_cell(&registry(1)[0], &MachineConfig::evaluation_suite()[0], true);
    let _ = m.run_with(RunOptions::budget(200)).into_result();
    let bytes = m.snapshot().into_bytes();
    let instrs = core_u64(&m, &bytes, "stats.instrs");
    let cycle = m.cycle();
    let cursor = row_offset(&m, "writes.next");
    let branch = row_offset(&m, "pending_branch");
    let (branch_flag, branch_slots) = (branch, branch + 1);
    let crafted = [
        (
            "cursor ahead of the instruction count",
            reseal(&bytes, *b"WRNG", cursor, &(instrs + 5).to_le_bytes()),
        ),
        (
            "cursor behind the instruction count",
            reseal(&bytes, *b"WRNG", cursor, &(instrs - 1).to_le_bytes()),
        ),
        (
            "drained cursor on a running machine",
            reseal(&bytes, *b"WRNG", cursor, &u64::MAX.to_le_bytes()),
        ),
        ("pending branch with no slots left", {
            let flagged = reseal(&bytes, *b"CORE", branch_flag, &[1]).into_bytes();
            reseal(&flagged, *b"CORE", branch_slots, &0u32.to_le_bytes())
        }),
        ("pending branch past the delay slots", {
            let flagged = reseal(&bytes, *b"CORE", branch_flag, &[1]).into_bytes();
            reseal(&flagged, *b"CORE", branch_slots, &6u32.to_le_bytes())
        }),
        ("instruction count beyond the counter limit", {
            let past = u64::MAX - 8;
            let instrs_at = row_offset(&m, "stats.instrs");
            let counted = reseal(&bytes, *b"CORE", instrs_at, &past.to_le_bytes()).into_bytes();
            reseal(&counted, *b"WRNG", cursor, &past.to_le_bytes())
        }),
        (
            "last progress after the current cycle",
            reseal(
                &bytes,
                *b"CORE",
                row_offset(&m, "last_progress_cycle"),
                &(cycle + 1).to_le_bytes(),
            ),
        ),
    ];
    let mut target = build_cell(
        &registry(1)[0],
        &MachineConfig::evaluation_suite()[0],
        false,
    );
    for (what, snapshot) in crafted {
        assert!(
            matches!(
                target.restore(&snapshot),
                Err(SnapshotError::Corrupt { .. })
            ),
            "{what}: must be refused as corrupt"
        );
    }
    // The cursor an exec error leaves (one past the instruction count)
    // is a real state, so a seam snapshot carrying it restores.
    let ahead = reseal(&bytes, *b"WRNG", cursor, &(instrs + 1).to_le_bytes());
    target.restore(&ahead).unwrap();
    let _ = target.run_with(RunOptions::budget(400)).into_result();
}

/// The table-driven bound test: for every invariant of the machine's
/// snapshot table, a checksum-valid snapshot with that row at its bound
/// restores and runs to a bounded end, and one just past it is refused
/// as corrupt.
#[test]
fn restore_accepts_every_bound_and_refuses_one_past_it() {
    let (workload, config) = (&registry(1)[0], &MachineConfig::evaluation_suite()[0]);
    let mut m = build_cell(workload, config, true);
    let _ = m.run_with(RunOptions::budget(200)).into_result();
    let before = m.snapshot();
    let edges = edge_snapshots(&mut m);
    assert_eq!(
        m.snapshot(),
        before,
        "edge generation leaves the machine as it was"
    );

    assert_eq!(
        edges.len(),
        32,
        "an at and a past case per bound with a value past it"
    );
    let mut rows: Vec<&str> = edges.iter().map(|(e, _)| e.field.as_str()).collect();
    rows.dedup();
    assert_eq!(
        rows,
        [
            "ibuf_next",
            "pending_branch",
            "watchdog_cycles",
            "last_progress_cycle",
            "stats.freq_mhz",
            "writes.next",
            "writes",
            "trace_ring",
            "mem.dcache.lines",
            "mem.icache.lines",
            "mem.prefetch.queue",
        ]
    );
    for (edge, snapshot) in &edges {
        let mut target = build_cell(workload, config, false);
        let restored = target.restore(snapshot);
        if edge.past {
            assert!(
                matches!(restored, Err(SnapshotError::Corrupt { .. })),
                "{edge:?}: must be refused as corrupt, got {restored:?}"
            );
        } else {
            restored.unwrap_or_else(|e| panic!("{edge:?}: refused: {e}"));
            let budget = target.cycle() + 2_000;
            let _ = target.run_with(RunOptions::budget(budget).watchdog(1_000));
            assert!(
                target.cycle() <= budget + 1_000,
                "{edge:?}: ran past its budget"
            );
        }
    }
}

/// Clocks and configuration echoes the engine never produces: each was
/// accepted before the clock codec and the `watchdog_cycles` and
/// `stats.freq_mhz` invariants, and each must now be refused as corrupt.
#[test]
fn restore_refuses_clocks_and_echoes_the_engine_never_produces() {
    let (workload, config) = (&registry(1)[0], &MachineConfig::evaluation_suite()[0]);
    let mut m = build_cell(workload, config, true);
    let _ = m.run_with(RunOptions::budget(200)).into_result();
    let bytes = m.snapshot().into_bytes();
    let probes: [(&str, [u8; 4], &str, [u8; 8]); 7] = [
        (
            "write buffer occupancy +inf",
            *b"MEMS",
            "mem.cwb_pending",
            f64::INFINITY.to_le_bytes(),
        ),
        (
            "NaN data stall",
            *b"MEMS",
            "mem.stats.data_stall_cycles",
            f64::NAN.to_le_bytes(),
        ),
        (
            "NaN memory clock",
            *b"MEMS",
            "mem.now",
            f64::NAN.to_le_bytes(),
        ),
        (
            "negative stall",
            *b"MEMS",
            "mem.stall",
            (-5.0f64).to_le_bytes(),
        ),
        (
            "write buffer drained at 1e300",
            *b"MEMS",
            "mem.cwb_last",
            1e300f64.to_le_bytes(),
        ),
        (
            "watchdog of zero cycles",
            *b"CORE",
            "watchdog_cycles",
            0u64.to_le_bytes(),
        ),
        (
            "clock rate other than the configuration's",
            *b"CORE",
            "stats.freq_mhz",
            1.0f64.to_le_bytes(),
        ),
    ];
    let mut target = build_cell(workload, config, false);
    for (what, tag, row, value) in probes {
        let probe = reseal(&bytes, tag, row_offset(&m, row), &value);
        assert!(
            matches!(target.restore(&probe), Err(SnapshotError::Corrupt { .. })),
            "{what}: must be refused as corrupt"
        );
    }
}

/// Length and FNV-1a 64 of every pinned snapshot: one per exit kind,
/// then one per golden kernel on configs A and D at the half-budget seam
/// of `a_mid_run_snapshot_restores_to_a_bit_identical_completion`.
const PINNED_SNAPSHOTS: &[(&str, usize, u64)] = &[
    ("halt", 2222641, 0x5655577b20b8f58e),
    ("budget seam", 2222641, 0xb8a77cf8f4cd4dda),
    ("exec error", 70885, 0x19644a6cac7931ba),
    ("watchdog", 71473, 0xfc4813480b32b272),
    ("branch in delay slot", 70843, 0xe0a1b39342896324),
    ("memset on TM3260 (config A)", 2222641, 0xb15e9819a3894e42),
    ("memset on TM3270 (config D)", 2234161, 0xfbede5301f340c50),
    ("memcpy on TM3260 (config A)", 2190272, 0x02467426f4e790ee),
    ("memcpy on TM3270 (config D)", 2201275, 0x0a6ef825d8e46f14),
    ("filter on TM3260 (config A)", 2195423, 0x7f282d1f538dd4ea),
    ("filter on TM3270 (config D)", 2206959, 0x68649c3340ca34ef),
    ("rgb2yuv on TM3260 (config A)", 2719814, 0x9fe2cd57f82a8bdc),
    ("rgb2yuv on TM3270 (config D)", 2731309, 0xe38c2b9957f7c830),
    ("rgb2cmyk on TM3260 (config A)", 2982005, 0x125013a117eed9f2),
    ("rgb2cmyk on TM3270 (config D)", 2993453, 0xd9d294a7e80be355),
    ("rgb2yiq on TM3260 (config A)", 2758239, 0x797702b41f94566b),
    ("rgb2yiq on TM3270 (config D)", 2769707, 0xd29a31550aa0ad39),
    ("mpeg2_a on TM3260 (config A)", 3740809, 0xf9e4a84afd5c7d63),
    ("mpeg2_a on TM3270 (config D)", 3752319, 0x36b5c756c5e905ec),
    ("mpeg2_b on TM3260 (config A)", 3740787, 0x07a3c7622060680c),
    ("mpeg2_b on TM3270 (config D)", 3752322, 0xdae5d97af6f70fcb),
    ("mpeg2_c on TM3260 (config A)", 3740824, 0xb769e84d117ba5fa),
    ("mpeg2_c on TM3270 (config D)", 3752319, 0x5b67f7085c10efa3),
    ("filmdet on TM3260 (config A)", 3378496, 0x1a1f12a714824e9e),
    ("filmdet on TM3270 (config D)", 3390041, 0x1b91f832395643b1),
    (
        "majority_sel on TM3260 (config A)",
        3902799,
        0xdd243a1e4ae143b2,
    ),
    (
        "majority_sel on TM3270 (config D)",
        3914304,
        0x836ef9d9325a954c,
    ),
];

/// Snapshot bytes are part of the behaviour contract: a change to how
/// state is saved must not move a single byte without a version bump.
#[test]
fn snapshot_bytes_are_pinned() {
    let fingerprint = |m: &Machine| {
        let bytes = m.snapshot().into_bytes();
        (
            bytes.len(),
            tm3270_encode::snapshot::snapshot_checksum(&bytes),
        )
    };
    let mut seen = Vec::new();
    for (kind, build, budget) in exit_kinds() {
        let mut m = build();
        let _ = m.run_with(RunOptions::budget(budget));
        let (len, sum) = fingerprint(&m);
        seen.push((kind.to_string(), len, sum));
    }
    let [a, _, _, d] = MachineConfig::evaluation_suite();
    for workload in registry(1).iter().filter(|w| w.is_golden()) {
        for config in [&a, &d] {
            let mut full = build_cell(workload, config, true);
            let cycles = full
                .run_with(RunOptions::budget(workload.cycle_budget()))
                .into_result()
                .unwrap()
                .cycles;
            let mut m = build_cell(workload, config, true);
            let _ = m.run_with(RunOptions::budget(cycles / 2));
            let (len, sum) = fingerprint(&m);
            seen.push((format!("{} on {}", workload.name(), config.name), len, sum));
        }
    }
    let pinned: Vec<(String, usize, u64)> = PINNED_SNAPSHOTS
        .iter()
        .map(|&(n, l, s)| (n.to_string(), l, s))
        .collect();
    assert_eq!(seen, pinned);
}

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

//! Pinned per-cell instruction/cycle counts for the golden Table 5
//! kernels on the four paper evaluation configurations.
//!
//! These are the same constants `tests/tests/engine_equivalence.rs`
//! pins (captured from the pre-predecode engine, commit 49881a1), but
//! exported from the registry crate so runtime tools can assert against
//! them too: `repro_simspeed --check-golden` verifies every measured
//! row's `instrs`/`cycles` here, so a silently mis-simulating fast path
//! cannot post a fast-but-wrong throughput number. The counts are the
//! same on every run path (traced, decoded-image and single-stepped
//! runs included) and scale-independent (the registry `scale` knob only
//! shortens the CABAC experiment workloads, never the golden kernels).

/// One pinned cell: `(config name, workload name, instrs, cycles)`.
type Cell = (&'static str, &'static str, u64, u64);

/// The 44 pinned (workload × configuration) cells: the eleven golden
/// kernels on the four paper configurations A–D, keyed by the full
/// `MachineConfig::name` strings the session layer resolves
/// (`config_named`).
const PINNED: &[Cell] = &[
    ("TM3260 (config A)", "memset", 8195, 17387),
    (
        "TM3270 core, 16KB D$ @ 240 MHz (config B)",
        "memset",
        8195,
        9252,
    ),
    (
        "TM3270 core, 16KB D$ @ 350 MHz (config C)",
        "memset",
        8195,
        12681,
    ),
    ("TM3270 (config D)", "memset", 8195, 8357),
    ("TM3260 (config A)", "memcpy", 16385, 73781),
    (
        "TM3270 core, 16KB D$ @ 240 MHz (config B)",
        "memcpy",
        20481,
        49265,
    ),
    (
        "TM3270 core, 16KB D$ @ 350 MHz (config C)",
        "memcpy",
        20481,
        62115,
    ),
    ("TM3270 (config D)", "memcpy", 20481, 62115),
    ("TM3260 (config A)", "filter", 271560, 327174),
    (
        "TM3270 core, 16KB D$ @ 240 MHz (config B)",
        "filter",
        291076,
        324956,
    ),
    (
        "TM3270 core, 16KB D$ @ 350 MHz (config C)",
        "filter",
        291076,
        340081,
    ),
    ("TM3270 (config D)", "filter", 291076, 340081),
    ("TM3260 (config A)", "rgb2yuv", 556802, 805135),
    (
        "TM3270 core, 16KB D$ @ 240 MHz (config B)",
        "rgb2yuv",
        576002,
        710626,
    ),
    (
        "TM3270 core, 16KB D$ @ 350 MHz (config C)",
        "rgb2yuv",
        576002,
        770726,
    ),
    ("TM3270 (config D)", "rgb2yuv", 576002, 770726),
    ("TM3260 (config A)", "rgb2cmyk", 384002, 664035),
    (
        "TM3270 core, 16KB D$ @ 240 MHz (config B)",
        "rgb2cmyk",
        403202,
        568350,
    ),
    (
        "TM3270 core, 16KB D$ @ 350 MHz (config C)",
        "rgb2cmyk",
        403202,
        642417,
    ),
    ("TM3270 (config D)", "rgb2cmyk", 403202, 603751),
    ("TM3260 (config A)", "rgb2yiq", 480002, 736286),
    (
        "TM3270 core, 16KB D$ @ 240 MHz (config B)",
        "rgb2yiq",
        499202,
        633770,
    ),
    (
        "TM3270 core, 16KB D$ @ 350 MHz (config C)",
        "rgb2yiq",
        499202,
        693845,
    ),
    ("TM3270 (config D)", "rgb2yiq", 499202, 693845),
    ("TM3260 (config A)", "mpeg2_a", 268839, 1891321),
    (
        "TM3270 core, 16KB D$ @ 240 MHz (config B)",
        "mpeg2_a",
        275649,
        1985599,
    ),
    (
        "TM3270 core, 16KB D$ @ 350 MHz (config C)",
        "mpeg2_a",
        275649,
        2758524,
    ),
    ("TM3270 (config D)", "mpeg2_a", 275649, 731889),
    ("TM3260 (config A)", "mpeg2_b", 268839, 770391),
    (
        "TM3270 core, 16KB D$ @ 240 MHz (config B)",
        "mpeg2_b",
        275649,
        598061,
    ),
    (
        "TM3270 core, 16KB D$ @ 350 MHz (config C)",
        "mpeg2_b",
        275649,
        747124,
    ),
    ("TM3270 (config D)", "mpeg2_b", 275649, 515096),
    ("TM3260 (config A)", "mpeg2_c", 268839, 1146990),
    (
        "TM3270 core, 16KB D$ @ 240 MHz (config B)",
        "mpeg2_c",
        275649,
        876336,
    ),
    (
        "TM3270 core, 16KB D$ @ 350 MHz (config C)",
        "mpeg2_c",
        275649,
        1153198,
    ),
    ("TM3270 (config D)", "mpeg2_c", 275649, 523959),
    ("TM3260 (config A)", "filmdet", 183605, 432189),
    (
        "TM3270 core, 16KB D$ @ 240 MHz (config B)",
        "filmdet",
        194405,
        345717,
    ),
    (
        "TM3270 core, 16KB D$ @ 350 MHz (config C)",
        "filmdet",
        194405,
        413267,
    ),
    ("TM3270 (config D)", "filmdet", 194405, 413267),
    ("TM3260 (config A)", "majority_sel", 205204, 578039),
    (
        "TM3270 core, 16KB D$ @ 240 MHz (config B)",
        "majority_sel",
        270004,
        496972,
    ),
    (
        "TM3270 core, 16KB D$ @ 350 MHz (config C)",
        "majority_sel",
        270004,
        598297,
    ),
    ("TM3270 (config D)", "majority_sel", 270004, 598297),
];

/// Looks up the pinned `(instrs, cycles)` of `workload` on the
/// configuration named `config` (the full `MachineConfig::name`
/// string). `None` when the cell is not pinned — an unknown config or
/// a non-golden workload.
pub fn pinned_counts(config: &str, workload: &str) -> Option<(u64, u64)> {
    PINNED
        .iter()
        .find(|(c, w, _, _)| *c == config && *w == workload)
        .map(|&(_, _, instrs, cycles)| (instrs, cycles))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_golden_kernel_is_pinned_on_all_four_configs() {
        let configs = [
            "TM3260 (config A)",
            "TM3270 core, 16KB D$ @ 240 MHz (config B)",
            "TM3270 core, 16KB D$ @ 350 MHz (config C)",
            "TM3270 (config D)",
        ];
        let names = crate::golden_names();
        assert_eq!(PINNED.len(), configs.len() * names.len());
        for config in configs {
            for name in &names {
                let (instrs, cycles) = pinned_counts(config, name)
                    .unwrap_or_else(|| panic!("{name} on {config} not pinned"));
                assert!(instrs > 0 && cycles >= instrs, "{name} on {config}");
            }
        }
        assert_eq!(pinned_counts("TM3270 (config D)", "cabac"), None);
        assert_eq!(pinned_counts("custom", "memset"), None);
    }

    #[test]
    fn every_pinned_cell_matches_its_run() {
        use tm3270_core::{Machine, MachineConfig, RunOptions};
        for config in MachineConfig::evaluation_suite() {
            for w in crate::registry(1).iter().filter(|w| w.is_golden()) {
                let mut m = Machine::new(config.clone(), w.build(&config.issue).unwrap()).unwrap();
                w.kernel().setup(&mut m);
                let stats = m
                    .run_with(RunOptions::budget(w.cycle_budget()))
                    .into_result()
                    .unwrap();
                assert_eq!(
                    Some((stats.instrs, stats.cycles)),
                    pinned_counts(config.name, w.name()),
                    "{} on {}",
                    w.name(),
                    config.name
                );
            }
        }
    }
}

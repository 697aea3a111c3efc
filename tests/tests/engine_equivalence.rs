//! Engine-equivalence differential suite: pins the exact architectural
//! outcome of every golden Table 5 workload on every evaluation
//! configuration to constants captured from the pre-predecode engine
//! (commit 49881a1, the last `Vec`-of-pending-writes implementation).
//!
//! The predecoded-issue-plan / write-ring engine must be *bit-identical*
//! to its predecessor: same cycle counts, same stall decomposition, same
//! memory-system traffic, same final register file, and the same golden
//! data checksums. Any divergence — even a single cycle — is a
//! determinism regression, not a tolerance question, so every field is
//! asserted with `assert_eq!`.
//!
//! A watchdog golden pins the fault path (livelock detection fires on
//! the same cycle with the same crash report), and a fault-campaign
//! golden pins the full 200-run seed-1 outcome histogram.

use tm3270_asm::ProgramBuilder;
use tm3270_bench::campaign::{run_campaign, CampaignOptions};
use tm3270_core::{Machine, MachineConfig, RunOptions};
use tm3270_kernels::registry;

/// One pinned (workload, configuration) cell.
struct Golden {
    kernel: &'static str,
    config: &'static str,
    cycles: u64,
    instrs: u64,
    ops: u64,
    exec_ops: u64,
    branches: u64,
    taken_branches: u64,
    ifetch_stall: u64,
    data_stall: u64,
    dcache_misses: u64,
    dram_bytes: u64,
    reg_digest: u64,
    checksum: u64,
}

const GOLDENS: &[Golden] = &[
    Golden {
        kernel: "memset",
        config: "TM3260 (config A)",
        cycles: 17387,
        instrs: 8195,
        ops: 18437,
        exec_ops: 18436,
        branches: 512,
        taken_branches: 511,
        ifetch_stall: 196,
        data_stall: 8996,
        dcache_misses: 1024,
        dram_bytes: 114944,
        reg_digest: 0x44d37e9af1d7a8e9,
        checksum: 0xf882d7dd15654639,
    },
    Golden {
        kernel: "memset",
        config: "TM3270 core, 16KB D$ @ 240 MHz (config B)",
        cycles: 9252,
        instrs: 8195,
        ops: 18437,
        exec_ops: 18436,
        branches: 512,
        taken_branches: 511,
        ifetch_stall: 112,
        data_stall: 945,
        dcache_misses: 512,
        dram_bytes: 49408,
        reg_digest: 0x44d37e9af1d7a8e9,
        checksum: 0x36efebb73a92c138,
    },
    Golden {
        kernel: "memset",
        config: "TM3270 core, 16KB D$ @ 350 MHz (config C)",
        cycles: 12681,
        instrs: 8195,
        ops: 18437,
        exec_ops: 18436,
        branches: 512,
        taken_branches: 511,
        ifetch_stall: 162,
        data_stall: 4324,
        dcache_misses: 512,
        dram_bytes: 49408,
        reg_digest: 0x44d37e9af1d7a8e9,
        checksum: 0x36efebb73a92c138,
    },
    Golden {
        kernel: "memset",
        config: "TM3270 (config D)",
        cycles: 8357,
        instrs: 8195,
        ops: 18437,
        exec_ops: 18436,
        branches: 512,
        taken_branches: 511,
        ifetch_stall: 162,
        data_stall: 0,
        dcache_misses: 512,
        dram_bytes: 256,
        reg_digest: 0x44d37e9af1d7a8e9,
        checksum: 0x36efebb73a92c138,
    },
    Golden {
        kernel: "memcpy",
        config: "TM3260 (config A)",
        cycles: 73781,
        instrs: 16385,
        ops: 37891,
        exec_ops: 37890,
        branches: 1024,
        taken_branches: 1023,
        ifetch_stall: 193,
        data_stall: 57203,
        dcache_misses: 2048,
        dram_bytes: 188672,
        reg_digest: 0x5b593e3b03d97db9,
        checksum: 0xb155b4d23290ef97,
    },
    Golden {
        kernel: "memcpy",
        config: "TM3270 core, 16KB D$ @ 240 MHz (config B)",
        cycles: 49265,
        instrs: 20481,
        ops: 37891,
        exec_ops: 37890,
        branches: 1024,
        taken_branches: 1023,
        ifetch_stall: 112,
        data_stall: 28672,
        dcache_misses: 1024,
        dram_bytes: 123136,
        reg_digest: 0x5b593e3b03d97db9,
        checksum: 0x4c40bcd81286916b,
    },
    Golden {
        kernel: "memcpy",
        config: "TM3270 core, 16KB D$ @ 350 MHz (config C)",
        cycles: 62115,
        instrs: 20481,
        ops: 37891,
        exec_ops: 37890,
        branches: 1024,
        taken_branches: 1023,
        ifetch_stall: 162,
        data_stall: 41472,
        dcache_misses: 1024,
        dram_bytes: 123136,
        reg_digest: 0x5b593e3b03d97db9,
        checksum: 0x4c40bcd81286916b,
    },
    Golden {
        kernel: "memcpy",
        config: "TM3270 (config D)",
        cycles: 62115,
        instrs: 20481,
        ops: 37891,
        exec_ops: 37890,
        branches: 1024,
        taken_branches: 1023,
        ifetch_stall: 162,
        data_stall: 41472,
        dcache_misses: 1024,
        dram_bytes: 65792,
        reg_digest: 0x5b593e3b03d97db9,
        checksum: 0x4c40bcd81286916b,
    },
    Golden {
        kernel: "filter",
        config: "TM3260 (config A)",
        cycles: 327174,
        instrs: 271560,
        ops: 866803,
        exec_ops: 866564,
        branches: 9520,
        taken_branches: 9281,
        ifetch_stall: 414,
        data_stall: 55200,
        dcache_misses: 2390,
        dram_bytes: 221824,
        reg_digest: 0xdec17c540d6c711c,
        checksum: 0xb2c457e098126540,
    },
    Golden {
        kernel: "filter",
        config: "TM3270 core, 16KB D$ @ 240 MHz (config B)",
        cycles: 324956,
        instrs: 291076,
        ops: 866803,
        exec_ops: 866564,
        branches: 9520,
        taken_branches: 9281,
        ifetch_stall: 280,
        data_stall: 33600,
        dcache_misses: 1196,
        dram_bytes: 144020,
        reg_digest: 0xdec17c540d6c711c,
        checksum: 0x314f7ee9c785f44f,
    },
    Golden {
        kernel: "filter",
        config: "TM3270 core, 16KB D$ @ 350 MHz (config C)",
        cycles: 340081,
        instrs: 291076,
        ops: 866803,
        exec_ops: 866564,
        branches: 9520,
        taken_branches: 9281,
        ifetch_stall: 405,
        data_stall: 48600,
        dcache_misses: 1196,
        dram_bytes: 144020,
        reg_digest: 0xdec17c540d6c711c,
        checksum: 0x314f7ee9c785f44f,
    },
    Golden {
        kernel: "filter",
        config: "TM3270 (config D)",
        cycles: 340081,
        instrs: 291076,
        ops: 866803,
        exec_ops: 866564,
        branches: 9520,
        taken_branches: 9281,
        ifetch_stall: 405,
        data_stall: 48600,
        dcache_misses: 1196,
        dram_bytes: 88108,
        reg_digest: 0xdec17c540d6c711c,
        checksum: 0x314f7ee9c785f44f,
    },
    Golden {
        kernel: "rgb2yuv",
        config: "TM3260 (config A)",
        cycles: 805135,
        instrs: 556802,
        ops: 1593608,
        exec_ops: 1593607,
        branches: 19200,
        taken_branches: 19199,
        ifetch_stall: 322,
        data_stall: 248011,
        dcache_misses: 8400,
        dram_bytes: 761920,
        reg_digest: 0xa2f026013c160576,
        checksum: 0x3e49060c3ed0f21f,
    },
    Golden {
        kernel: "rgb2yuv",
        config: "TM3270 core, 16KB D$ @ 240 MHz (config B)",
        cycles: 710626,
        instrs: 576002,
        ops: 1593608,
        exec_ops: 1593607,
        branches: 19200,
        taken_branches: 19199,
        ifetch_stall: 224,
        data_stall: 134400,
        dcache_misses: 4200,
        dram_bytes: 530048,
        reg_digest: 0xa2f026013c160576,
        checksum: 0x02a48ea695ccf386,
    },
    Golden {
        kernel: "rgb2yuv",
        config: "TM3270 core, 16KB D$ @ 350 MHz (config C)",
        cycles: 770726,
        instrs: 576002,
        ops: 1593608,
        exec_ops: 1593607,
        branches: 19200,
        taken_branches: 19199,
        ifetch_stall: 324,
        data_stall: 194400,
        dcache_misses: 4200,
        dram_bytes: 530048,
        reg_digest: 0xa2f026013c160576,
        checksum: 0x02a48ea695ccf386,
    },
    Golden {
        kernel: "rgb2yuv",
        config: "TM3270 (config D)",
        cycles: 770726,
        instrs: 576002,
        ops: 1593608,
        exec_ops: 1593607,
        branches: 19200,
        taken_branches: 19199,
        ifetch_stall: 324,
        data_stall: 194400,
        dcache_misses: 4200,
        dram_bytes: 472704,
        reg_digest: 0xa2f026013c160576,
        checksum: 0x02a48ea695ccf386,
    },
    Golden {
        kernel: "rgb2cmyk",
        config: "TM3260 (config A)",
        cycles: 664035,
        instrs: 384002,
        ops: 1228808,
        exec_ops: 1228807,
        branches: 19200,
        taken_branches: 19199,
        ifetch_stall: 238,
        data_stall: 279795,
        dcache_misses: 9600,
        dram_bytes: 913728,
        reg_digest: 0x4365d0ece8a80885,
        checksum: 0x01d05b346ee2bd2d,
    },
    Golden {
        kernel: "rgb2cmyk",
        config: "TM3270 core, 16KB D$ @ 240 MHz (config B)",
        cycles: 568350,
        instrs: 403202,
        ops: 1228808,
        exec_ops: 1228807,
        branches: 19200,
        taken_branches: 19199,
        ifetch_stall: 168,
        data_stall: 164980,
        dcache_misses: 7649,
        dram_bytes: 674232,
        reg_digest: 0x4365d0ece8a80885,
        checksum: 0xfaff6e96c52c669d,
    },
    Golden {
        kernel: "rgb2cmyk",
        config: "TM3270 core, 16KB D$ @ 350 MHz (config C)",
        cycles: 642417,
        instrs: 403202,
        ops: 1228808,
        exec_ops: 1228807,
        branches: 19200,
        taken_branches: 19199,
        ifetch_stall: 243,
        data_stall: 238972,
        dcache_misses: 7649,
        dram_bytes: 674232,
        reg_digest: 0x4365d0ece8a80885,
        checksum: 0xfaff6e96c52c669d,
    },
    Golden {
        kernel: "rgb2cmyk",
        config: "TM3270 (config D)",
        cycles: 603751,
        instrs: 403202,
        ops: 1228808,
        exec_ops: 1228807,
        branches: 19200,
        taken_branches: 19199,
        ifetch_stall: 243,
        data_stall: 200306,
        dcache_misses: 5178,
        dram_bytes: 558832,
        reg_digest: 0x4365d0ece8a80885,
        checksum: 0xfaff6e96c52c669d,
    },
    Golden {
        kernel: "rgb2yiq",
        config: "TM3260 (config A)",
        cycles: 736286,
        instrs: 480002,
        ops: 1209608,
        exec_ops: 1209607,
        branches: 19200,
        taken_branches: 19199,
        ifetch_stall: 292,
        data_stall: 255992,
        dcache_misses: 10800,
        dram_bytes: 1065664,
        reg_digest: 0xda912157de8f5495,
        checksum: 0xf1e26723dccdf038,
    },
    Golden {
        kernel: "rgb2yiq",
        config: "TM3270 core, 16KB D$ @ 240 MHz (config B)",
        cycles: 633770,
        instrs: 499202,
        ops: 1209608,
        exec_ops: 1209607,
        branches: 19200,
        taken_branches: 19199,
        ifetch_stall: 168,
        data_stall: 134400,
        dcache_misses: 5400,
        dram_bytes: 682624,
        reg_digest: 0xda912157de8f5495,
        checksum: 0x354852c665a374ec,
    },
    Golden {
        kernel: "rgb2yiq",
        config: "TM3270 core, 16KB D$ @ 350 MHz (config C)",
        cycles: 693845,
        instrs: 499202,
        ops: 1209608,
        exec_ops: 1209607,
        branches: 19200,
        taken_branches: 19199,
        ifetch_stall: 243,
        data_stall: 194400,
        dcache_misses: 5400,
        dram_bytes: 682624,
        reg_digest: 0xda912157de8f5495,
        checksum: 0x354852c665a374ec,
    },
    Golden {
        kernel: "rgb2yiq",
        config: "TM3270 (config D)",
        cycles: 693845,
        instrs: 499202,
        ops: 1209608,
        exec_ops: 1209607,
        branches: 19200,
        taken_branches: 19199,
        ifetch_stall: 243,
        data_stall: 194400,
        dcache_misses: 5400,
        dram_bytes: 614656,
        reg_digest: 0xda912157de8f5495,
        checksum: 0x354852c665a374ec,
    },
    Golden {
        kernel: "mpeg2_a",
        config: "TM3260 (config A)",
        cycles: 1891321,
        instrs: 268839,
        ops: 866968,
        exec_ops: 866937,
        branches: 1380,
        taken_branches: 1349,
        ifetch_stall: 2604,
        data_stall: 1619878,
        dcache_misses: 39852,
        dram_bytes: 2919424,
        reg_digest: 0x5713df86bead514b,
        checksum: 0xc044db2712e1ebd2,
    },
    Golden {
        kernel: "mpeg2_a",
        config: "TM3270 core, 16KB D$ @ 240 MHz (config B)",
        cycles: 1985599,
        instrs: 275649,
        ops: 866968,
        exec_ops: 866937,
        branches: 1380,
        taken_branches: 1349,
        ifetch_stall: 1512,
        data_stall: 1708438,
        dcache_misses: 33151,
        dram_bytes: 4186880,
        reg_digest: 0x5713df86bead514b,
        checksum: 0xdf2339d0d3d0da7e,
    },
    Golden {
        kernel: "mpeg2_a",
        config: "TM3270 core, 16KB D$ @ 350 MHz (config C)",
        cycles: 2758524,
        instrs: 275649,
        ops: 866968,
        exec_ops: 866937,
        branches: 1380,
        taken_branches: 1349,
        ifetch_stall: 2187,
        data_stall: 2480688,
        dcache_misses: 33151,
        dram_bytes: 4186880,
        reg_digest: 0x5713df86bead514b,
        checksum: 0xdf2339d0d3d0da7e,
    },
    Golden {
        kernel: "mpeg2_a",
        config: "TM3270 (config D)",
        cycles: 731889,
        instrs: 275649,
        ops: 866968,
        exec_ops: 866937,
        branches: 1380,
        taken_branches: 1349,
        ifetch_stall: 2187,
        data_stall: 454053,
        dcache_misses: 8019,
        dram_bytes: 994560,
        reg_digest: 0x5713df86bead514b,
        checksum: 0xdf2339d0d3d0da7e,
    },
    Golden {
        kernel: "mpeg2_b",
        config: "TM3260 (config A)",
        cycles: 770391,
        instrs: 268839,
        ops: 866968,
        exec_ops: 866937,
        branches: 1380,
        taken_branches: 1349,
        ifetch_stall: 2604,
        data_stall: 498948,
        dcache_misses: 16118,
        dram_bytes: 1396864,
        reg_digest: 0x7eddeba75465b9ee,
        checksum: 0xc044db2712e1ebd2,
    },
    Golden {
        kernel: "mpeg2_b",
        config: "TM3270 core, 16KB D$ @ 240 MHz (config B)",
        cycles: 598061,
        instrs: 275649,
        ops: 866968,
        exec_ops: 866937,
        branches: 1380,
        taken_branches: 1349,
        ifetch_stall: 1512,
        data_stall: 320900,
        dcache_misses: 8704,
        dram_bytes: 1058176,
        reg_digest: 0x7eddeba75465b9ee,
        checksum: 0xdf2339d0d3d0da7e,
    },
    Golden {
        kernel: "mpeg2_b",
        config: "TM3270 core, 16KB D$ @ 350 MHz (config C)",
        cycles: 747124,
        instrs: 275649,
        ops: 866968,
        exec_ops: 866937,
        branches: 1380,
        taken_branches: 1349,
        ifetch_stall: 2187,
        data_stall: 469288,
        dcache_misses: 8704,
        dram_bytes: 1058176,
        reg_digest: 0x7eddeba75465b9ee,
        checksum: 0xdf2339d0d3d0da7e,
    },
    Golden {
        kernel: "mpeg2_b",
        config: "TM3270 (config D)",
        cycles: 515096,
        instrs: 275649,
        ops: 866968,
        exec_ops: 866937,
        branches: 1380,
        taken_branches: 1349,
        ifetch_stall: 2187,
        data_stall: 237260,
        dcache_misses: 5486,
        dram_bytes: 641024,
        reg_digest: 0x7eddeba75465b9ee,
        checksum: 0xdf2339d0d3d0da7e,
    },
    Golden {
        kernel: "mpeg2_c",
        config: "TM3260 (config A)",
        cycles: 1146990,
        instrs: 268839,
        ops: 866968,
        exec_ops: 866937,
        branches: 1380,
        taken_branches: 1349,
        ifetch_stall: 2604,
        data_stall: 875547,
        dcache_misses: 23989,
        dram_bytes: 1902208,
        reg_digest: 0x1a2530977162f13c,
        checksum: 0xc044db2712e1ebd2,
    },
    Golden {
        kernel: "mpeg2_c",
        config: "TM3270 core, 16KB D$ @ 240 MHz (config B)",
        cycles: 876336,
        instrs: 275649,
        ops: 866968,
        exec_ops: 866937,
        branches: 1380,
        taken_branches: 1349,
        ifetch_stall: 1512,
        data_stall: 599175,
        dcache_misses: 13564,
        dram_bytes: 1680512,
        reg_digest: 0x1a2530977162f13c,
        checksum: 0xdf2339d0d3d0da7e,
    },
    Golden {
        kernel: "mpeg2_c",
        config: "TM3270 core, 16KB D$ @ 350 MHz (config C)",
        cycles: 1153198,
        instrs: 275649,
        ops: 866968,
        exec_ops: 866937,
        branches: 1380,
        taken_branches: 1349,
        ifetch_stall: 2187,
        data_stall: 875362,
        dcache_misses: 13564,
        dram_bytes: 1680512,
        reg_digest: 0x1a2530977162f13c,
        checksum: 0xdf2339d0d3d0da7e,
    },
    Golden {
        kernel: "mpeg2_c",
        config: "TM3270 (config D)",
        cycles: 523959,
        instrs: 275649,
        ops: 866968,
        exec_ops: 866937,
        branches: 1380,
        taken_branches: 1349,
        ifetch_stall: 2187,
        data_stall: 246123,
        dcache_misses: 5486,
        dram_bytes: 641408,
        reg_digest: 0x1a2530977162f13c,
        checksum: 0xdf2339d0d3d0da7e,
    },
    Golden {
        kernel: "filmdet",
        config: "TM3260 (config A)",
        cycles: 432189,
        instrs: 183605,
        ops: 442810,
        exec_ops: 442809,
        branches: 10800,
        taken_branches: 10799,
        ifetch_stall: 184,
        data_stall: 248400,
        dcache_misses: 5401,
        dram_bytes: 345920,
        reg_digest: 0x52aa81390adaf565,
        checksum: 0x03cfef52058ef41e,
    },
    Golden {
        kernel: "filmdet",
        config: "TM3270 core, 16KB D$ @ 240 MHz (config B)",
        cycles: 345717,
        instrs: 194405,
        ops: 442810,
        exec_ops: 442809,
        branches: 10800,
        taken_branches: 10799,
        ifetch_stall: 112,
        data_stall: 151200,
        dcache_misses: 2701,
        dram_bytes: 345856,
        reg_digest: 0x52aa81390adaf565,
        checksum: 0x9bb01b710dc28bf9,
    },
    Golden {
        kernel: "filmdet",
        config: "TM3270 core, 16KB D$ @ 350 MHz (config C)",
        cycles: 413267,
        instrs: 194405,
        ops: 442810,
        exec_ops: 442809,
        branches: 10800,
        taken_branches: 10799,
        ifetch_stall: 162,
        data_stall: 218700,
        dcache_misses: 2701,
        dram_bytes: 345856,
        reg_digest: 0x52aa81390adaf565,
        checksum: 0x9bb01b710dc28bf9,
    },
    Golden {
        kernel: "filmdet",
        config: "TM3270 (config D)",
        cycles: 413267,
        instrs: 194405,
        ops: 442810,
        exec_ops: 442809,
        branches: 10800,
        taken_branches: 10799,
        ifetch_stall: 162,
        data_stall: 218700,
        dcache_misses: 2701,
        dram_bytes: 345856,
        reg_digest: 0x52aa81390adaf565,
        checksum: 0x9bb01b710dc28bf9,
    },
    Golden {
        kernel: "majority_sel",
        config: "TM3260 (config A)",
        cycles: 578039,
        instrs: 205204,
        ops: 550808,
        exec_ops: 550807,
        branches: 10800,
        taken_branches: 10799,
        ifetch_stall: 235,
        data_stall: 372600,
        dcache_misses: 10801,
        dram_bytes: 860288,
        reg_digest: 0xfa65fd152a6b2149,
        checksum: 0xbb5c8b5d12f772be,
    },
    Golden {
        kernel: "majority_sel",
        config: "TM3270 core, 16KB D$ @ 240 MHz (config B)",
        cycles: 496972,
        instrs: 270004,
        ops: 550808,
        exec_ops: 550807,
        branches: 10800,
        taken_branches: 10799,
        ifetch_stall: 168,
        data_stall: 226800,
        dcache_misses: 5401,
        dram_bytes: 687488,
        reg_digest: 0xfa65fd152a6b2149,
        checksum: 0xf8fc0dcfd2df8328,
    },
    Golden {
        kernel: "majority_sel",
        config: "TM3270 core, 16KB D$ @ 350 MHz (config C)",
        cycles: 598297,
        instrs: 270004,
        ops: 550808,
        exec_ops: 550807,
        branches: 10800,
        taken_branches: 10799,
        ifetch_stall: 243,
        data_stall: 328050,
        dcache_misses: 5401,
        dram_bytes: 687488,
        reg_digest: 0xfa65fd152a6b2149,
        checksum: 0xf8fc0dcfd2df8328,
    },
    Golden {
        kernel: "majority_sel",
        config: "TM3270 (config D)",
        cycles: 598297,
        instrs: 270004,
        ops: 550808,
        exec_ops: 550807,
        branches: 10800,
        taken_branches: 10799,
        ifetch_stall: 243,
        data_stall: 328050,
        dcache_misses: 5401,
        dram_bytes: 658816,
        reg_digest: 0xfa65fd152a6b2149,
        checksum: 0xf8fc0dcfd2df8328,
    },
];

fn find(kernel: &str, config: &str) -> &'static Golden {
    GOLDENS
        .iter()
        .find(|g| g.kernel == kernel && g.config == config)
        .unwrap_or_else(|| panic!("no golden for {kernel} on {config}"))
}

/// Every golden workload on every evaluation configuration reproduces
/// the pre-predecode engine bit-for-bit.
#[test]
fn predecoded_engine_matches_pinned_goldens() {
    let configs = MachineConfig::evaluation_suite();
    let mut cells = 0usize;
    for workload in registry(1).iter().filter(|w| w.is_golden()) {
        for config in &configs {
            let g = find(workload.name(), config.name);
            let program = workload.build(&config.issue).unwrap();
            let checksum = workload.golden_checksum(&config.issue).unwrap();
            let mut m = Machine::new(config.clone(), program).unwrap();
            workload.kernel().setup(&mut m);
            let stats = m
                .run_with(RunOptions::budget(workload.cycle_budget()))
                .into_result()
                .unwrap_or_else(|e| panic!("{} on {}: {e}", g.kernel, g.config));
            workload
                .kernel()
                .verify(&m)
                .unwrap_or_else(|e| panic!("{} on {}: {e}", g.kernel, g.config));
            let cell = format!("{} on {}", g.kernel, g.config);
            assert_eq!(stats.cycles, g.cycles, "cycles: {cell}");
            assert_eq!(stats.instrs, g.instrs, "instrs: {cell}");
            assert_eq!(stats.ops, g.ops, "ops: {cell}");
            assert_eq!(stats.exec_ops, g.exec_ops, "exec_ops: {cell}");
            assert_eq!(stats.branches, g.branches, "branches: {cell}");
            assert_eq!(
                stats.taken_branches, g.taken_branches,
                "taken_branches: {cell}"
            );
            assert_eq!(
                stats.ifetch_stall_cycles, g.ifetch_stall,
                "ifetch_stall: {cell}"
            );
            assert_eq!(stats.data_stall_cycles, g.data_stall, "data_stall: {cell}");
            assert_eq!(
                stats.mem.dcache.misses, g.dcache_misses,
                "dcache_misses: {cell}"
            );
            assert_eq!(stats.mem.dram.bytes, g.dram_bytes, "dram_bytes: {cell}");
            assert_eq!(m.reg_digest(), g.reg_digest, "reg_digest: {cell}");
            assert_eq!(checksum, g.checksum, "golden checksum: {cell}");
            cells += 1;
        }
    }
    assert_eq!(cells, GOLDENS.len(), "every pinned golden was exercised");
}

/// The two independently maintained golden tables — this file's
/// `GOLDENS` and `tm3270_kernels::pinned_counts` (which
/// `repro_simspeed --check-golden` enforces in CI) — must agree on
/// every pinned (instrs, cycles) cell, so a regeneration of one that
/// silently drifts from the other cannot land.
#[test]
fn goldens_agree_with_the_pinned_counts_table() {
    for g in GOLDENS {
        let (instrs, cycles) = tm3270_kernels::pinned_counts(g.config, g.kernel)
            .unwrap_or_else(|| panic!("{} on {} missing from pinned_counts", g.kernel, g.config));
        assert_eq!(
            (g.instrs, g.cycles),
            (instrs, cycles),
            "{} on {}: GOLDENS vs pinned_counts",
            g.kernel,
            g.config
        );
    }
}

/// The watchdog fault path fires on the same cycle with the same crash
/// report as the pre-predecode engine.
#[test]
fn watchdog_livelock_report_is_pinned() {
    let config = MachineConfig::tm3270();
    let mut b = ProgramBuilder::new(config.issue);
    let top = b.bind_here();
    b.jump(top);
    let mut m = Machine::new(config, b.build().unwrap()).unwrap();
    m.set_watchdog(500);
    let outcome = m.run_with(RunOptions::budget(100_000).with_report());
    let report = outcome.report.expect("livelock must trip");
    assert_eq!(report.cycle, 500);
    assert_eq!(report.instrs, 419);
    assert_eq!(report.pc, 4);
    assert_eq!(report.reg_digest, 0xd22f25ae35c23eb4);
    assert_eq!(
        format!("{:?}", report.error),
        "NoProgress { pc: 4, cycles: 500 }"
    );
}

/// The default 200-run seed-1 fault campaign reproduces the pinned
/// outcome histogram (fault paths are deterministic too).
#[test]
fn fault_campaign_histogram_is_pinned() {
    let summary = run_campaign(&CampaignOptions::new());
    assert_eq!(summary.seed, 1);
    assert_eq!(summary.runs, 200);
    assert_eq!(summary.flips_total, 508);
    assert_eq!(summary.panics, 0);
    assert_eq!(summary.error_kinds(), 6);
    let hist: Vec<(&str, u64)> = summary
        .outcomes
        .iter()
        .map(|(k, v)| (k.as_str(), *v))
        .collect();
    assert_eq!(
        hist,
        [
            ("Completed", 31),
            ("CycleLimit", 2),
            ("Decode", 89),
            ("InvalidOpcode", 2),
            ("MisalignedAccess", 43),
            ("NoProgress", 4),
            ("OutOfBoundsAccess", 29),
        ]
    );
}

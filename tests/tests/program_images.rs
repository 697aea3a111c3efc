//! Pins the program image of every registry workload on every
//! evaluation configuration: an FNV-1a digest of the encoded image
//! (`Workload::golden_checksum`), or the `NoSlot` error of a workload that
//! uses TM3270-only operations and so cannot target the TM3260.
//!
//! `engine_equivalence.rs` pins the eleven golden kernels' checksums next
//! to their run counts; this table covers the eight experiment workloads
//! too, so any change to scheduling, branch placement, layout or encoding
//! shows up here as a moved digest.

use tm3270_asm::{BuildError, SchedError};
use tm3270_core::MachineConfig;
use tm3270_kernels::{registry, KernelError};

/// The expected outcome of building one workload for one configuration.
#[derive(Debug, PartialEq)]
enum Image {
    /// FNV-1a digest of the encoded program image.
    Digest(u64),
    /// The build fails: this opcode has no issue slot on the machine.
    NoSlot(&'static str),
}
use Image::{Digest, NoSlot};

/// Registry workloads at scale 1, in registry order; configs A, B, C, D.
const IMAGES: &[(&str, [Image; 4])] = &[
    (
        "memset",
        [
            Digest(0xf882_d7dd_1565_4639),
            Digest(0x36ef_ebb7_3a92_c138),
            Digest(0x36ef_ebb7_3a92_c138),
            Digest(0x36ef_ebb7_3a92_c138),
        ],
    ),
    (
        "memcpy",
        [
            Digest(0xb155_b4d2_3290_ef97),
            Digest(0x4c40_bcd8_1286_916b),
            Digest(0x4c40_bcd8_1286_916b),
            Digest(0x4c40_bcd8_1286_916b),
        ],
    ),
    (
        "filter",
        [
            Digest(0xb2c4_57e0_9812_6540),
            Digest(0x314f_7ee9_c785_f44f),
            Digest(0x314f_7ee9_c785_f44f),
            Digest(0x314f_7ee9_c785_f44f),
        ],
    ),
    (
        "rgb2yuv",
        [
            Digest(0x3e49_060c_3ed0_f21f),
            Digest(0x02a4_8ea6_95cc_f386),
            Digest(0x02a4_8ea6_95cc_f386),
            Digest(0x02a4_8ea6_95cc_f386),
        ],
    ),
    (
        "rgb2cmyk",
        [
            Digest(0x01d0_5b34_6ee2_bd2d),
            Digest(0xfaff_6e96_c52c_669d),
            Digest(0xfaff_6e96_c52c_669d),
            Digest(0xfaff_6e96_c52c_669d),
        ],
    ),
    (
        "rgb2yiq",
        [
            Digest(0xf1e2_6723_dccd_f038),
            Digest(0x3548_52c6_65a3_74ec),
            Digest(0x3548_52c6_65a3_74ec),
            Digest(0x3548_52c6_65a3_74ec),
        ],
    ),
    (
        "mpeg2_a",
        [
            Digest(0xc044_db27_12e1_ebd2),
            Digest(0xdf23_39d0_d3d0_da7e),
            Digest(0xdf23_39d0_d3d0_da7e),
            Digest(0xdf23_39d0_d3d0_da7e),
        ],
    ),
    (
        "mpeg2_b",
        [
            Digest(0xc044_db27_12e1_ebd2),
            Digest(0xdf23_39d0_d3d0_da7e),
            Digest(0xdf23_39d0_d3d0_da7e),
            Digest(0xdf23_39d0_d3d0_da7e),
        ],
    ),
    (
        "mpeg2_c",
        [
            Digest(0xc044_db27_12e1_ebd2),
            Digest(0xdf23_39d0_d3d0_da7e),
            Digest(0xdf23_39d0_d3d0_da7e),
            Digest(0xdf23_39d0_d3d0_da7e),
        ],
    ),
    (
        "filmdet",
        [
            Digest(0x03cf_ef52_058e_f41e),
            Digest(0x9bb0_1b71_0dc2_8bf9),
            Digest(0x9bb0_1b71_0dc2_8bf9),
            Digest(0x9bb0_1b71_0dc2_8bf9),
        ],
    ),
    (
        "majority_sel",
        [
            Digest(0xbb5c_8b5d_12f7_72be),
            Digest(0xf8fc_0dcf_d2df_8328),
            Digest(0xf8fc_0dcf_d2df_8328),
            Digest(0xf8fc_0dcf_d2df_8328),
        ],
    ),
    (
        "cabac_decode",
        [
            Digest(0x6d95_3a8d_5ea4_d9e6),
            Digest(0x42e9_1bd5_d74c_6a05),
            Digest(0x42e9_1bd5_d74c_6a05),
            Digest(0x42e9_1bd5_d74c_6a05),
        ],
    ),
    (
        "cabac_decode_opt",
        [
            NoSlot("super_cabac_str"),
            Digest(0x92ab_e945_b5c2_6fc2),
            Digest(0x92ab_e945_b5c2_6fc2),
            Digest(0x92ab_e945_b5c2_6fc2),
        ],
    ),
    (
        "motion_est",
        [
            Digest(0x1b0a_8286_2ea4_72ba),
            Digest(0xff9b_d038_9f3b_cd29),
            Digest(0xff9b_d038_9f3b_cd29),
            Digest(0xff9b_d038_9f3b_cd29),
        ],
    ),
    (
        "motion_est_opt",
        [
            NoSlot("ld_frac8"),
            Digest(0x7b55_5af3_7755_f82c),
            Digest(0x7b55_5af3_7755_f82c),
            Digest(0x7b55_5af3_7755_f82c),
        ],
    ),
    (
        "block_filter",
        [
            Digest(0x7f22_2840_6f28_794d),
            Digest(0x34bf_5eac_6dd8_148c),
            Digest(0x34bf_5eac_6dd8_148c),
            Digest(0x34bf_5eac_6dd8_148c),
        ],
    ),
    (
        "block_filter_prefetch",
        [
            Digest(0x7e77_af84_08cc_0128),
            Digest(0x27d4_651e_a544_3937),
            Digest(0x27d4_651e_a544_3937),
            Digest(0x27d4_651e_a544_3937),
        ],
    ),
    (
        "upconv_opt_pf",
        [
            NoSlot("ld_frac8"),
            Digest(0x6e76_f468_d6a6_0805),
            Digest(0x6e76_f468_d6a6_0805),
            Digest(0x6e76_f468_d6a6_0805),
        ],
    ),
    (
        "mp3_proxy",
        [
            Digest(0xcc36_f1a4_93fc_24ba),
            Digest(0x312c_201c_a4a8_54d6),
            Digest(0x312c_201c_a4a8_54d6),
            Digest(0x312c_201c_a4a8_54d6),
        ],
    ),
];

#[test]
fn every_registry_image_is_pinned() {
    let configs = MachineConfig::evaluation_suite();
    let workloads = registry(1);
    let names: Vec<&str> = workloads.iter().map(|w| w.name()).collect();
    let pinned: Vec<&str> = IMAGES.iter().map(|(name, _)| *name).collect();
    assert_eq!(names, pinned, "registry order");
    for (workload, (_, images)) in workloads.iter().zip(IMAGES) {
        for (config, want) in configs.iter().zip(images) {
            let got = match workload.golden_checksum(&config.issue) {
                Ok(digest) => Digest(digest),
                Err(KernelError::Build(BuildError::Sched(SchedError::NoSlot { mnemonic }))) => {
                    NoSlot(mnemonic)
                }
                Err(e) => panic!("{} on {}: {e}", workload.name(), config.name),
            };
            assert_eq!(&got, want, "{} on {}", workload.name(), config.name);
        }
    }
}

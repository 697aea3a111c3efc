//! Exhaustive table-driven semantics tests: every opcode with
//! hand-computed vectors, including edge cases (saturation boundaries,
//! shift-amount masking, NaN handling, wrap-around).

use tm3270_isa::{execute, pure_fn, DataMemory, FlatMemory, Op, Opcode, Reg, RegFile};

fn r(i: u8) -> Reg {
    Reg::new(i)
}

/// Runs a 2-source operation with the given inputs, returns the result.
fn bin(op: Opcode, a: u32, b: u32) -> u32 {
    let mut rf = RegFile::new();
    rf.write(r(2), a);
    rf.write(r(3), b);
    let mut mem = FlatMemory::new(4096);
    execute(&Op::rrr(op, r(4), r(2), r(3)), &rf, &mut mem)
        .unwrap()
        .writes[0]
        .expect("result")
        .1
}

/// Runs a 1-source operation.
fn un(op: Opcode, a: u32) -> u32 {
    let mut rf = RegFile::new();
    rf.write(r(2), a);
    let mut mem = FlatMemory::new(4096);
    execute(&Op::rr(op, r(4), r(2)), &rf, &mut mem)
        .unwrap()
        .writes[0]
        .expect("result")
        .1
}

/// Runs a source+immediate operation.
fn immop(op: Opcode, a: u32, imm: i32) -> u32 {
    let mut rf = RegFile::new();
    rf.write(r(2), a);
    let mut mem = FlatMemory::new(4096);
    execute(&Op::rri(op, r(4), r(2), imm), &rf, &mut mem)
        .unwrap()
        .writes[0]
        .expect("result")
        .1
}

const NEG1: u32 = u32::MAX;

const fn fl(v: f32) -> u32 {
    v.to_bits()
}

const NAN: u32 = f32::NAN.to_bits();

/// Two-source integer ALU vectors: (opcode, a, b, expected).
const INTEGER_ALU: &[(Opcode, u32, u32, u32)] = &[
    (Opcode::Iadd, 0xffff_ffff, 1, 0),
    (Opcode::Iadd, 0x7fff_ffff, 1, 0x8000_0000),
    (Opcode::Isub, 0, 1, NEG1),
    (Opcode::Iand, 0xf0f0_f0f0, 0xff00_ff00, 0xf000_f000),
    (Opcode::Ior, 0xf0f0_f0f0, 0x0f0f_0f0f, NEG1),
    (Opcode::Ixor, 0xaaaa_aaaa, 0xffff_ffff, 0x5555_5555),
    (Opcode::Bitandinv, 0xff, 0x0f, 0xf0),
    (Opcode::Imin, NEG1, 1, NEG1), // -1 < 1 signed
    (Opcode::Imax, NEG1, 1, 1),
    (Opcode::Umin, NEG1, 1, 1),
    (Opcode::Umax, NEG1, 1, NEG1),
    (Opcode::Ieql, 5, 5, 1),
    (Opcode::Ieql, 5, 6, 0),
    (Opcode::Ineq, 5, 6, 1),
    (Opcode::Igtr, 0x8000_0000, 0, 0), // INT_MIN > 0 is false
    (Opcode::Igeq, 7, 7, 1),
    (Opcode::Iles, 0x8000_0000, 0, 1),
    (Opcode::Ileq, 8, 7, 0),
    (Opcode::Ugtr, 0x8000_0000, 0, 1), // unsigned
    (Opcode::Ugeq, 0, 0, 1),
    (Opcode::Ules, 1, 2, 1),
    (Opcode::Uleq, 3, 2, 0),
    (Opcode::Pack16Lsb, 0xaaaa_1111, 0xbbbb_2222, 0x1111_2222),
    (Opcode::Pack16Msb, 0x1111_aaaa, 0x2222_bbbb, 0x1111_2222),
    (Opcode::PackBytes, 0x0000_00aa, 0x0000_00bb, 0x0000_aabb),
    (Opcode::MergeMsb, 0xa1a2_0000, 0xb1b2_0000, 0xa1b1_a2b2),
    (Opcode::MergeLsb, 0x0000_a3a4, 0x0000_b3b4, 0xa3b3_a4b4),
    // Low byte of each halfword of a (a2, a4), then of b (b2, b4).
    (
        Opcode::MergeDual16Lsb,
        0xa1a2_a3a4,
        0xb1b2_b3b4,
        0xa2a4_b2b4,
    ),
    (Opcode::Ubytesel, 0x4433_2211, 0, 0x11),
    (Opcode::Ubytesel, 0x4433_2211, 3, 0x44),
    (Opcode::Ubytesel, 0x4433_2211, 7, 0x44), // index masked to 2 bits
];

/// One-source vectors: (opcode, a, expected).
const UNARY: &[(Opcode, u32, u32)] = &[
    (Opcode::Ineg, 5, (-5i32) as u32),
    (Opcode::Ineg, 0x8000_0000, 0x8000_0000), // INT_MIN wraps
    (Opcode::Iabs, (-7i32) as u32, 7),
    (Opcode::Iabs, 0x8000_0000, 0x8000_0000), // INT_MIN wraps
    (Opcode::Bitinv, 0, NEG1),
    (Opcode::Sex8, 0x80, 0xffff_ff80),
    (Opcode::Sex8, 0x7f, 0x7f),
    (Opcode::Sex16, 0x8000, 0xffff_8000),
    (Opcode::Zex8, 0xffff_ffff, 0xff),
    (Opcode::Zex16, 0xffff_ffff, 0xffff),
    (Opcode::Inonzero, 0, 0),
    (Opcode::Inonzero, 9, 1),
    (Opcode::Izero, 0, 1),
    (Opcode::Izero, 9, 0),
    (Opcode::Dspiabs, 0x8000_0000, 0x7fff_ffff), // saturating abs
    (Opcode::Dspidualabs, 0x8000_8000, 0x7fff_7fff),
];

/// Two-source shifter vectors.
const SHIFTER: &[(Opcode, u32, u32, u32)] = &[
    (Opcode::Asl, 1, 31, 0x8000_0000),
    (Opcode::Asl, 1, 32, 1), // shift amount masked to 5 bits
    (Opcode::Asl, 1, 33, 2),
    (Opcode::Asr, 0x8000_0000, 31, NEG1),
    (Opcode::Lsr, 0x8000_0000, 31, 1),
    (Opcode::Rol, 0x8000_0001, 1, 3),
    (Opcode::Funshift1, 0x1122_3344, 0xaabb_ccdd, 0x2233_44aa),
    (Opcode::Funshift2, 0x1122_3344, 0xaabb_ccdd, 0x3344_aabb),
    (Opcode::Funshift3, 0x1122_3344, 0xaabb_ccdd, 0x44aa_bbcc),
];

/// Two-source saturating SIMD vectors.
const SATURATING_SIMD: &[(Opcode, u32, u32, u32)] = &[
    // 32-bit saturating.
    (Opcode::Dspiadd, 0x7fff_ffff, 1, 0x7fff_ffff),
    (Opcode::Dspiadd, 0x8000_0000, NEG1, 0x8000_0000),
    (Opcode::Dspisub, 0x8000_0000, 1, 0x8000_0000),
    (Opcode::Dspimul, 0x0001_0000, 0x0001_0000, 0x7fff_ffff),
    // 2 x 16 saturating.
    (Opcode::Dspidualadd, 0x7fff_8000, 0x0001_ffff, 0x7fff_8000),
    (Opcode::Dspidualsub, 0x8000_7fff, 0x0001_ffff, 0x8000_7fff),
    (Opcode::Dspidualmul, 0x0100_ff00, 0x0100_0100, 0x7fff_8000),
    // 4 x 8 unsigned.
    (Opcode::Quadavg, 0xff00_ff00, 0x0100_0100, 0x8000_8000),
    (Opcode::Quadumin, 0x1080_30ff, 0x2070_4080, 0x1070_3080),
    (Opcode::Quadumax, 0x1080_30ff, 0x2070_4080, 0x2080_40ff),
    (Opcode::Ume8uu, 0x0000_0000, 0xffff_ffff, 4 * 255),
    (Opcode::Ume8ii, 0x7f7f_7f7f, 0x8080_8080, 4 * 255),
    (Opcode::Quadumulmsb, 0xff00_8002, 0xff00_ff03, 0xfe00_7f00),
];

/// Two-source multiplier vectors.
const MULTIPLIER: &[(Opcode, u32, u32, u32)] = &[
    (Opcode::Imul, 0x0001_0000, 0x0001_0000, 0), // wraps
    (Opcode::Imul, NEG1, NEG1, 1),
    (Opcode::Umul, 0x0001_0000, 0x0001_0000, 0),
    (Opcode::Imulm, NEG1, NEG1, 0), // (-1 * -1) >> 32
    (Opcode::Imulm, 0x8000_0000, 0x8000_0000, 0x4000_0000),
    (Opcode::Umulm, NEG1, NEG1, 0xffff_fffe),
    // ifir16: 2*3 + 4*5 = 26
    (Opcode::Ifir16, 0x0002_0004, 0x0003_0005, 26),
    // ifir16 with negative lane: (-2)*3 + 4*5 = 14
    (Opcode::Ifir16, 0xfffe_0004, 0x0003_0005, 14),
    // ifir16: 2^30 + 2^30 wraps to INT_MIN.
    (Opcode::Ifir16, 0x8000_8000, 0x8000_8000, 0x8000_0000),
    (Opcode::Ufir16, 0xffff_0001, 0x0002_0002, 0xffff * 2 + 2),
    // ifir8ii: 1*1 + (-1)*1 + 2*2 + (-2)*2 = 0
    (Opcode::Ifir8ii, 0x01ff_02fe, 0x0101_0202, 0),
    // ufir8uu: 255*255 * 4
    (Opcode::Ufir8uu, 0xffff_ffff, 0xffff_ffff, 255 * 255 * 4),
    // ifir8ui: unsigned 255 * signed -1, 4 lanes
    (
        Opcode::Ifir8ui,
        0xffff_ffff,
        0xffff_ffff,
        (-(255i32) * 4) as u32,
    ),
];

/// Two-source floating-point vectors.
const FLOAT_BINARY: &[(Opcode, u32, u32, u32)] = &[
    (Opcode::Fadd, fl(1.5), fl(2.5), fl(4.0)),
    (Opcode::Fsub, fl(1.0), fl(3.0), fl(-2.0)),
    (Opcode::Fmul, fl(-2.0), fl(3.0), fl(-6.0)),
    (Opcode::Fdiv, fl(7.0), fl(2.0), fl(3.5)),
    (Opcode::Fgtr, fl(2.0), fl(1.0), 1),
    (Opcode::Fgtr, NAN, fl(1.0), 0),
    (Opcode::Feql, fl(0.0), fl(-0.0), 1), // IEEE -0 == +0
    (Opcode::Fneq, NAN, NAN, 1),
    (Opcode::Fleq, fl(1.0), fl(1.0), 1),
    (Opcode::Fles, fl(1.0), fl(1.0), 0),
    (Opcode::Fgeq, fl(1.0), fl(2.0), 0),
];

/// One-source floating-point vectors.
const FLOAT_UNARY: &[(Opcode, u32, u32)] = &[
    (Opcode::Fsqrt, fl(9.0), fl(3.0)),
    (Opcode::Fabsval, fl(-2.25), fl(2.25)),
    (Opcode::Ifloat, (-3i32) as u32, fl(-3.0)),
    (Opcode::Ufloat, 0x8000_0000, fl(2_147_483_648.0)),
    (Opcode::Ifixrz, fl(-2.99), (-2i32) as u32),
    (Opcode::Ifixrz, fl(2.99), 2),
    (Opcode::Ufixrz, fl(-1.0), 0),        // negative clamps to 0
    (Opcode::Ifixrz, NAN, 0),             // NaN to 0
    (Opcode::Ufixrz, fl(1e20), u32::MAX), // saturates
    (Opcode::Fsign, fl(-7.0), fl(-1.0)),
    (Opcode::Fsign, fl(0.0), fl(0.0)),
    (Opcode::Fsign, fl(42.0), fl(1.0)),
];

/// Source+immediate vectors: (opcode, a, imm, expected).
const IMMEDIATE: &[(Opcode, u32, i32, u32)] = &[
    (Opcode::Asli, 3, 2, 12),
    (Opcode::Asri, 0x8000_0000, 4, 0xf800_0000),
    (Opcode::Lsri, 0x8000_0000, 4, 0x0800_0000),
    (Opcode::Roli, 0x8000_0001, 1, 3),
    (Opcode::Iclipi, 1000, 7, 127),
    (Opcode::Iclipi, (-1000i32) as u32, 7, (-128i32) as u32),
    (Opcode::Uclipi, (-5i32) as u32, 8, 0),
    (Opcode::Uclipi, 300, 8, 255),
    (Opcode::Dualiclipi, 0x7fff_8000, 7, 0x007f_ff80),
    (Opcode::Iaddi, 10, -3, 7),
    (Opcode::Isubi, 10, 3, 7),
    (Opcode::Iori, 0xf000_0000, 0xff, 0xf000_00ff),
    (Opcode::Iori, 0, -1, 0xfff), // iori masks the immediate to 12 bits
    (Opcode::Ieqli, 7, 7, 1),
    (Opcode::Igtri, 7, 7, 0),
    (Opcode::Ilesi, (-1i32) as u32, 0, 1),
];

/// `iimm` vectors: (imm, expected).
const IIMM: &[(i32, u32)] = &[(-1, NEG1), (0x7ff, 0x7ff), (i32::MIN, 0x8000_0000)];

fn check_binary(cases: &[(Opcode, u32, u32, u32)]) {
    for &(op, a, b, want) in cases {
        assert_eq!(bin(op, a, b), want, "{op} {a:#x} {b:#x}");
    }
}

fn check_unary(cases: &[(Opcode, u32, u32)]) {
    for &(op, a, want) in cases {
        assert_eq!(un(op, a), want, "{op} {a:#x}");
    }
}

#[test]
fn integer_alu_vectors() {
    check_binary(INTEGER_ALU);
}

#[test]
fn unary_vectors() {
    check_unary(UNARY);
}

#[test]
fn shifter_vectors() {
    check_binary(SHIFTER);
}

#[test]
fn saturating_simd_vectors() {
    check_binary(SATURATING_SIMD);
}

#[test]
fn multiplier_vectors() {
    check_binary(MULTIPLIER);
}

#[test]
fn float_vectors() {
    check_binary(FLOAT_BINARY);
    check_unary(FLOAT_UNARY);
}

#[test]
fn iimm_and_const_helpers() {
    let rf = RegFile::new();
    let mut mem = FlatMemory::new(4096);
    for &(imm, want) in IIMM {
        let res = execute(&Op::imm(r(4), imm), &rf, &mut mem).unwrap();
        assert_eq!(res.writes[0], Some((r(4), want)), "iimm {imm}");
        let op = Op::new(Opcode::Iimm, Reg::ONE, &[], &[r(5)], imm);
        let res = execute(&op, &rf, &mut mem).unwrap();
        assert_eq!(res.writes[0], Some((r(5), want)), "iimm {imm} via Op::new");
    }
    for &(op, a, imm, want) in IMMEDIATE {
        assert_eq!(immop(op, a, imm), want, "{op} {a:#x} {imm}");
    }
}

#[test]
fn every_pure_opcode_has_an_expected_vector() {
    let binary = [
        INTEGER_ALU,
        SHIFTER,
        SATURATING_SIMD,
        MULTIPLIER,
        FLOAT_BINARY,
    ]
    .concat();
    let covered: Vec<Opcode> = binary
        .iter()
        .map(|c| c.0)
        .chain(UNARY.iter().chain(FLOAT_UNARY).map(|c| c.0))
        .chain(IMMEDIATE.iter().map(|c| c.0))
        .chain(IIMM.iter().map(|_| Opcode::Iimm))
        .collect();
    for &op in Opcode::all() {
        if pure_fn(op).is_some() {
            assert!(covered.contains(&op), "{op}: no expected-value vector");
        }
    }
}

#[test]
fn pure_rows_are_single_destination_register_ops() {
    let mut pure = 0;
    for &op in Opcode::all() {
        if pure_fn(op).is_none() {
            continue;
        }
        pure += 1;
        let sig = op.signature();
        assert!(sig.srcs <= 2, "{op}: pure op with {} sources", sig.srcs);
        assert_eq!(sig.dsts, 1, "{op}: pure op must write one register");
        assert!(op.access().is_none(), "{op}: pure op with an access shape");
        assert!(
            !op.is_mem() && !op.is_jump() && !op.is_two_slot(),
            "{op}: pure evaluator on a memory, jump or two-slot op"
        );
    }
    assert_eq!(pure, 97, "register-pure opcode count");
}

#[test]
fn super_cabac_str_wraps_the_stream_position() {
    // value 0, range 2: the renormalization shifts past u32::MAX.
    let mut rf = RegFile::new();
    rf.write(r(2), 0x0000_0002);
    rf.write(r(3), 0xffff_ffff);
    rf.write(r(4), 0xffff_ffff);
    let op = Op::new(
        Opcode::SuperCabacStr,
        Reg::ONE,
        &[r(2), r(3), r(4)],
        &[r(10), r(11)],
        0,
    );
    let res = execute(&op, &rf, &mut FlatMemory::new(4096)).unwrap();
    assert_eq!(res.writes, [Some((r(10), 6)), Some((r(11), 0))]);
}

#[test]
fn memory_width_and_extension_vectors() {
    let mut rf = RegFile::new();
    rf.write(r(2), 0x100);
    let mut mem = FlatMemory::new(1 << 12);
    mem.store_bytes(
        0xfe,
        &[0xaa, 0xbb, 0x80, 0x7f, 0xff, 0x01, 0x02, 0x03, 0x04, 0x05],
    );
    let run = |op: Op, rf: &RegFile, mem: &mut FlatMemory| {
        execute(&op, rf, mem).unwrap().writes[0].map(|w| w.1)
    };
    // Displacement forms (base 0x100 points at the 0x80 byte).
    assert_eq!(
        run(Op::rri(Opcode::Uld8d, r(4), r(2), 0), &rf, &mut mem),
        Some(0x80)
    );
    assert_eq!(
        run(Op::rri(Opcode::Ld8d, r(4), r(2), 0), &rf, &mut mem),
        Some(0xffff_ff80)
    );
    assert_eq!(
        run(Op::rri(Opcode::Ld16d, r(4), r(2), -2), &rf, &mut mem),
        Some(0xffff_bbaa)
    );
    assert_eq!(
        run(Op::rri(Opcode::Uld16d, r(4), r(2), -2), &rf, &mut mem),
        Some(0xbbaa)
    );
    assert_eq!(
        run(Op::rri(Opcode::Ld32d, r(4), r(2), 1), &rf, &mut mem),
        Some(0x0201_ff7f)
    );
    // Register-offset forms.
    rf.write(r(3), 3);
    assert_eq!(
        run(Op::rrr(Opcode::Ld32r, r(4), r(2), r(3)), &rf, &mut mem),
        Some(0x0403_0201)
    );
    assert_eq!(
        run(Op::rrr(Opcode::Uld8r, r(4), r(2), r(3)), &rf, &mut mem),
        Some(0x01)
    );
    assert_eq!(
        run(Op::rrr(Opcode::Ld16r, r(4), r(2), r(3)), &rf, &mut mem),
        Some(0x0201)
    );
    // Store widths.
    rf.write(r(5), 0xdead_beef);
    execute(
        &Op::new(Opcode::St8d, Reg::ONE, &[r(2), r(5)], &[], 0x10),
        &rf,
        &mut mem,
    )
    .unwrap();
    execute(
        &Op::new(Opcode::St16d, Reg::ONE, &[r(2), r(5)], &[], 0x12),
        &rf,
        &mut mem,
    )
    .unwrap();
    execute(
        &Op::new(Opcode::St32d, Reg::ONE, &[r(2), r(5)], &[], 0x14),
        &rf,
        &mut mem,
    )
    .unwrap();
    let mut buf = [0u8; 8];
    mem.load_bytes(0x110, &mut buf);
    assert_eq!(buf, [0xef, 0, 0xef, 0xbe, 0xef, 0xbe, 0xad, 0xde]);
}

#[test]
fn branch_vectors() {
    let mut rf = RegFile::new();
    let mut mem = FlatMemory::new(4096);
    rf.write(r(9), 0); // false guard
    rf.write(r(10), 3); // odd = true guard
    rf.write(r(11), 1234); // indirect target

    let t =
        |op: Op, rf: &RegFile, mem: &mut FlatMemory| execute(&op, rf, mem).unwrap().branch_target;
    assert_eq!(
        t(Op::new(Opcode::Jmpi, Reg::ONE, &[], &[], 77), &rf, &mut mem),
        Some(77)
    );
    assert_eq!(
        t(Op::new(Opcode::Jmpt, r(10), &[], &[], 77), &rf, &mut mem),
        Some(77)
    );
    assert_eq!(
        t(Op::new(Opcode::Jmpt, r(9), &[], &[], 77), &rf, &mut mem),
        None
    );
    assert_eq!(
        t(Op::new(Opcode::Jmpf, r(9), &[], &[], 77), &rf, &mut mem),
        Some(77)
    );
    assert_eq!(
        t(Op::new(Opcode::Jmpf, r(10), &[], &[], 77), &rf, &mut mem),
        None
    );
    assert_eq!(
        t(
            Op::new(Opcode::Ijmpt, r(10), &[r(11)], &[], 0),
            &rf,
            &mut mem
        ),
        Some(1234)
    );
    assert_eq!(
        t(
            Op::new(Opcode::Ijmpi, Reg::ONE, &[r(11)], &[], 0),
            &rf,
            &mut mem
        ),
        Some(1234)
    );
}

#[test]
fn every_opcode_executes_without_panicking() {
    // Every opcode over a corner set for every source operand and the
    // immediate, with the guard true and false. Under the debug profile
    // this also catches arithmetic overflow in the semantics.
    const CORNERS: [u32; 10] = [
        0,
        1,
        0x7fff_ffff,
        0x8000_0000,
        0xffff_ffff,
        0x8000_8000,
        0x7fff_7fff,
        0x8080_8080,
        0x7f80_0001,
        0x0001_0100,
    ];
    const IMMS: [i32; 7] = [0, 1, 31, 32, -1, i32::MIN, i32::MAX];
    let mut mem = FlatMemory::new(1 << 16);
    for &opcode in Opcode::all() {
        let sig = opcode.signature();
        let srcs: Vec<Reg> = (0..sig.srcs).map(|k| r(2 + k)).collect();
        let dsts: Vec<Reg> = (0..sig.dsts).map(|k| r(20 + k)).collect();
        let imms: &[i32] = if sig.imm { &IMMS } else { &[0] };
        for combo in 0..CORNERS.len().pow(u32::from(sig.srcs)) {
            let mut rf = RegFile::new();
            for (k, &src) in srcs.iter().enumerate() {
                rf.write(
                    src,
                    CORNERS[combo / CORNERS.len().pow(k as u32) % CORNERS.len()],
                );
            }
            for &imm in imms {
                for guard in [Reg::ONE, Reg::ZERO] {
                    let op = Op::new(opcode, guard, &srcs, &dsts, imm);
                    let res = execute(&op, &rf, &mut mem).unwrap();
                    if opcode == Opcode::Jmpf {
                        assert_eq!(res.executed, guard == Reg::ZERO, "{opcode}");
                    } else if guard == Reg::ZERO {
                        assert!(!res.executed, "{opcode} executed with a false guard");
                        assert_eq!(res.writes, [None, None], "{opcode}");
                    } else {
                        assert!(res.executed, "{opcode} skipped with a true guard");
                        let writes = res.write_iter().count();
                        assert_eq!(writes, usize::from(sig.dsts), "{opcode}");
                    }
                }
            }
        }
    }
}

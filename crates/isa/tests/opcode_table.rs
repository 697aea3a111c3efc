//! Pins every static fact of the opcode table: one line per opcode, in
//! code order, hashed to a single FNV-1a digest. A change to any code,
//! mnemonic, unit, signature, description, classification flag, issue
//! slot set, latency, pure-evaluator presence or memory access shape
//! moves the digest.

use tm3270_isa::{pure_fn, Access, IssueModel, Opcode};

/// The expected digest of [`table_text`].
const TABLE_DIGEST: u64 = 0x1115_02cf_b303_0d4a;

fn access_text(op: Opcode) -> String {
    match op.access() {
        None => "-".to_string(),
        Some(Access::Load {
            bytes,
            sext,
            indexed,
        }) => format!(
            "load{bytes}{}{}",
            if sext { "s" } else { "u" },
            if indexed { "r" } else { "d" }
        ),
        Some(Access::Store { bytes }) => format!("store{bytes}"),
        Some(Access::SuperLoad) => "superload".to_string(),
        Some(Access::FracLoad) => "fracload".to_string(),
    }
}

fn table_text() -> String {
    let models = [IssueModel::tm3270(), IssueModel::tm3260()];
    let mut out = String::new();
    for (i, &op) in Opcode::all().iter().enumerate() {
        assert_eq!(usize::from(op.code()), i, "{op}: code is not its position");
        let sig = op.signature();
        let flags: String = [
            op.is_load(),
            op.is_store(),
            op.is_mem(),
            op.is_jump(),
            op.is_two_slot(),
            op.is_tm3270_only(),
        ]
        .iter()
        .map(|&b| if b { '1' } else { '0' })
        .collect();
        out += &format!(
            "{} {} {} {}/{}/{} {} {}",
            op.code(),
            op.mnemonic(),
            op.unit().name(),
            sig.srcs,
            sig.dsts,
            sig.imm,
            flags,
            pure_fn(op).is_some(),
        );
        for m in &models {
            out += &format!(" {:?}:{}", m.allowed_slots(op), m.latency(op));
        }
        out += &format!(" {} | {}\n", access_text(op), op.describe());
    }
    out
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

#[test]
fn opcode_table_digest_is_pinned() {
    let text = table_text();
    assert_eq!(text.lines().count(), 127);
    let digest = fnv1a(text.as_bytes());
    assert_eq!(
        digest, TABLE_DIGEST,
        "opcode table moved (digest {digest:#018x}); table:\n{text}"
    );
}

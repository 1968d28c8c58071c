//! `.scim` codec for the compiled simulation [`Program`]
//! ([`SectionId::Program`](syndcim_ir::artifact::SectionId)).
//!
//! The op stream is the bulk of the section, so op *types* are packed
//! two-per-byte as 4-bit nibbles while the operand slots follow as one
//! contiguous `u32` stream in op order — each kind has a fixed operand
//! arity, so the nibble alone determines how many operands to pull.
//! Decoding re-validates every invariant the executor's unchecked slot
//! indexing relies on: every operand below `slot_count`, every commit
//! slot in range, every `seq_of_inst` entry either the
//! combinational sentinel or a real commit index, so a hostile artifact
//! can never make [`BatchExec`](crate::BatchExec) read out of bounds.

use syndcim_ir::artifact::{ArtifactError, SectionReader, SectionWriter};
use syndcim_ir::Symbols;
use syndcim_pdk::SeqUpdate;

use crate::program::{Commit, Op, Program};

/// Op-kind nibbles (two per byte, low nibble first). `Const` splits by
/// its immediate so the operand stream stays pure slot indices.
const OP_CONST0: u8 = 0;
const OP_CONST1: u8 = 1;
const OP_COPY: u8 = 2;
const OP_NOT: u8 = 3;
const OP_AND: u8 = 4;
const OP_OR: u8 = 5;
const OP_XOR: u8 = 6;
const OP_MUX: u8 = 7;

/// Sequential-update tags.
const SEQ_EDGE: u8 = 0;
const SEQ_EDGE_ENABLE: u8 = 1;
const SEQ_BITCELL_WRITE: u8 = 2;

/// Sentinel mirrored from `seq_of_inst`: "combinational instance".
const NO_SEQ: u32 = u32::MAX;

/// Decode limit on `slot_count - net_count`: the compiler appends a
/// handful of scratch slots (currently 8), so anything beyond this is a
/// corrupt count that would only inflate executor allocations.
const MAX_SCRATCH: u64 = 4096;

fn op_nibble(op: &Op) -> u8 {
    match op {
        Op::Const { ones: false, .. } => OP_CONST0,
        Op::Const { ones: true, .. } => OP_CONST1,
        Op::Copy { .. } => OP_COPY,
        Op::Not { .. } => OP_NOT,
        Op::And { .. } => OP_AND,
        Op::Or { .. } => OP_OR,
        Op::Xor { .. } => OP_XOR,
        Op::Mux { .. } => OP_MUX,
    }
}

fn op_operands(op: &Op, out: &mut Vec<u32>) {
    match *op {
        Op::Const { dst, .. } => out.push(dst),
        Op::Copy { dst, a } | Op::Not { dst, a } => out.extend([dst, a]),
        Op::And { dst, a, b } | Op::Or { dst, a, b } | Op::Xor { dst, a, b } => out.extend([dst, a, b]),
        Op::Mux { dst, d0, d1, s } => out.extend([dst, d0, d1, s]),
    }
}

/// Encode `prog` into a [`SectionId::Program`](syndcim_ir::artifact::SectionId) payload. The shared
/// [`Symbols`] are *not* written here — they live in their own section
/// and are re-attached on decode, so the name layer is stored exactly
/// once per artifact no matter how many programs reference it.
pub fn encode_program(prog: &Program) -> SectionWriter {
    let mut w = SectionWriter::new();
    w.put_u64(prog.net_count as u64);
    w.put_u64(prog.slot_count as u64);

    w.put_u32(prog.ops.len() as u32);
    let mut nibbles = vec![0u8; prog.ops.len().div_ceil(2)];
    let mut operands = Vec::new();
    for (i, op) in prog.ops.iter().enumerate() {
        nibbles[i / 2] |= op_nibble(op) << ((i % 2) * 4);
        op_operands(op, &mut operands);
    }
    for b in nibbles {
        w.put_u8(b);
    }
    w.put_u32s(&operands);

    w.put_u32(prog.commits.len() as u32);
    for c in &prog.commits {
        w.put_u8(match c.update {
            SeqUpdate::Edge => SEQ_EDGE,
            SeqUpdate::EdgeEnable => SEQ_EDGE_ENABLE,
            SeqUpdate::BitcellWrite => SEQ_BITCELL_WRITE,
        });
        w.put_u32(c.in0);
        w.put_u32(c.in1);
        w.put_u32(c.q);
    }
    w.put_u32s(&prog.seq_of_inst);
    w
}

/// Decode a [`SectionId::Program`](syndcim_ir::artifact::SectionId) payload against the already-decoded
/// shared `symbols`, re-validating every slot and index bound.
pub fn decode_program(r: &mut SectionReader<'_>, symbols: &Symbols) -> Result<Program, ArtifactError> {
    let net_count = r.get_u64("program net count")? as usize;
    if net_count != symbols.net_count() {
        return Err(
            r.malformed(format!("net count {net_count} disagrees with symbols ({})", symbols.net_count()))
        );
    }
    let slot_count = r.get_u64("program slot count")?;
    if slot_count < net_count as u64 || slot_count - net_count as u64 > MAX_SCRATCH {
        return Err(r.malformed(format!("slot count {slot_count} inconsistent with {net_count} nets")));
    }
    let slot_count = slot_count as usize;
    let check_slot = |r: &SectionReader<'_>, s: u32, what: &'static str| {
        if (s as usize) < slot_count {
            Ok(s)
        } else {
            Err(r.malformed(format!("{what}: slot {s} out of range (program has {slot_count} slots)")))
        }
    };

    let op_count = r.get_count(1, "op nibbles")?;
    let mut nibbles = Vec::with_capacity(op_count.div_ceil(2));
    for _ in 0..op_count.div_ceil(2) {
        nibbles.push(r.get_u8("op nibble")?);
    }
    let operands = r.get_u32s("op operands")?;
    let mut ops = Vec::with_capacity(op_count);
    let mut cursor = 0usize;
    fn pull<'o>(
        r: &SectionReader<'_>,
        operands: &'o [u32],
        cursor: &mut usize,
        n: usize,
    ) -> Result<&'o [u32], ArtifactError> {
        if *cursor + n > operands.len() {
            return Err(r.malformed("operand stream shorter than the op stream requires"));
        }
        let s = &operands[*cursor..*cursor + n];
        *cursor += n;
        Ok(s)
    }
    for i in 0..op_count {
        let nib = (nibbles[i / 2] >> ((i % 2) * 4)) & 0xF;
        let op = match nib {
            OP_CONST0 | OP_CONST1 => {
                let v = pull(r, &operands, &mut cursor, 1)?;
                Op::Const { dst: check_slot(r, v[0], "const dst")?, ones: nib == OP_CONST1 }
            }
            OP_COPY | OP_NOT => {
                let v = pull(r, &operands, &mut cursor, 2)?;
                let dst = check_slot(r, v[0], "unary dst")?;
                let a = check_slot(r, v[1], "unary src")?;
                if nib == OP_COPY {
                    Op::Copy { dst, a }
                } else {
                    Op::Not { dst, a }
                }
            }
            OP_AND | OP_OR | OP_XOR => {
                let v = pull(r, &operands, &mut cursor, 3)?;
                let dst = check_slot(r, v[0], "binary dst")?;
                let a = check_slot(r, v[1], "binary src a")?;
                let b = check_slot(r, v[2], "binary src b")?;
                match nib {
                    OP_AND => Op::And { dst, a, b },
                    OP_OR => Op::Or { dst, a, b },
                    _ => Op::Xor { dst, a, b },
                }
            }
            OP_MUX => {
                let v = pull(r, &operands, &mut cursor, 4)?;
                Op::Mux {
                    dst: check_slot(r, v[0], "mux dst")?,
                    d0: check_slot(r, v[1], "mux d0")?,
                    d1: check_slot(r, v[2], "mux d1")?,
                    s: check_slot(r, v[3], "mux select")?,
                }
            }
            _ => return Err(r.malformed(format!("unknown op nibble {nib}"))),
        };
        ops.push(op);
    }
    // A stray high nibble on an odd-count tail, or operands beyond the
    // op stream, are corruption too.
    if op_count % 2 == 1 && nibbles[op_count / 2] >> 4 != 0 {
        return Err(r.malformed("nonzero padding nibble after the op stream"));
    }
    if cursor != operands.len() {
        return Err(r.malformed(format!("{} operand(s) beyond the op stream", operands.len() - cursor)));
    }

    let commit_count = r.get_count(13, "commit table")?;
    let mut commits = Vec::with_capacity(commit_count);
    for _ in 0..commit_count {
        let update = match r.get_u8("commit update tag")? {
            SEQ_EDGE => SeqUpdate::Edge,
            SEQ_EDGE_ENABLE => SeqUpdate::EdgeEnable,
            SEQ_BITCELL_WRITE => SeqUpdate::BitcellWrite,
            t => return Err(r.malformed(format!("unknown sequential update tag {t}"))),
        };
        let in0 = r.get_u32("commit in0")?;
        let in1 = r.get_u32("commit in1")?;
        let q = r.get_u32("commit q")?;
        let in0 = check_slot(r, in0, "commit in0")?;
        let in1 = check_slot(r, in1, "commit in1")?;
        let q = check_slot(r, q, "commit q")?;
        commits.push(Commit { update, in0, in1, q });
    }

    let seq_of_inst = r.get_u32s("sequential index map")?;
    if seq_of_inst.len() != symbols.inst_count() {
        return Err(r.malformed(format!(
            "sequential index map covers {} instances, symbols have {}",
            seq_of_inst.len(),
            symbols.inst_count()
        )));
    }
    for &s in &seq_of_inst {
        if s != NO_SEQ && s as usize >= commit_count {
            return Err(r.malformed(format!("sequential index {s} beyond {commit_count} commits")));
        }
    }

    Ok(Program {
        net_count,
        slot_count,
        ops,
        commits,
        seq_of_inst,
        syms: symbols.clone(),
        blocks: Default::default(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use syndcim_ir::artifact::{ArtifactReader, ArtifactWriter, SectionId};
    use syndcim_ir::Lowering;
    use syndcim_netlist::NetlistBuilder;
    use syndcim_pdk::{CellKind, CellLibrary};

    fn sample() -> (Program, Symbols) {
        let lib = CellLibrary::syn40();
        let mut b = NetlistBuilder::new("mix", &lib);
        let a = b.input("a");
        let c = b.input("b");
        let s = b.xor2(a, c);
        let q = b.dff(s);
        let qe = b.dffe(s, a);
        let rbl = b.add(CellKind::Sram6T2T, &[a, c])[0];
        let m1 = b.xor2(q, qe);
        let y = b.xor2(m1, rbl);
        b.output("y", y);
        let m = b.finish();
        let low = Lowering::validated(&m, &lib).unwrap();
        let prog = Program::from_lowering(&low, &m, &lib);
        (prog, low.symbols().clone())
    }

    fn frame(payload: SectionWriter) -> Vec<u8> {
        let mut out = Vec::new();
        let mut w = ArtifactWriter::new(&mut out, 1).unwrap();
        w.write_section(SectionId::Program, payload).unwrap();
        w.finish().unwrap();
        out
    }

    #[test]
    fn program_codec_roundtrips_ops_commits_and_seq_map() {
        let (prog, syms) = sample();
        let bytes = frame(encode_program(&prog));
        let reader = ArtifactReader::parse(&bytes).unwrap();
        let mut r = reader.reader(SectionId::Program).unwrap();
        let back = decode_program(&mut r, &syms).unwrap();
        r.finish().unwrap();
        assert_eq!(back.net_count, prog.net_count);
        assert_eq!(back.slot_count, prog.slot_count);
        assert_eq!(back.ops, prog.ops);
        assert_eq!(back.seq_of_inst, prog.seq_of_inst);
        assert_eq!(back.commits.len(), prog.commits.len());
        for (a, b) in back.commits.iter().zip(&prog.commits) {
            assert_eq!((a.update, a.in0, a.in1, a.q), (b.update, b.in0, b.in1, b.q));
        }
    }

    #[test]
    fn hostile_slots_and_tags_are_rejected() {
        let (prog, syms) = sample();

        // An operand slot beyond slot_count.
        let mut mutated = prog.clone();
        if let Some(Op::Xor { a, .. }) = mutated.ops.last_mut() {
            *a = u32::MAX;
        } else {
            panic!("sample ends in an xor");
        }
        let bytes = frame(encode_program(&mutated));
        let reader = ArtifactReader::parse(&bytes).unwrap();
        let mut r = reader.reader(SectionId::Program).unwrap();
        assert!(matches!(decode_program(&mut r, &syms), Err(ArtifactError::Malformed { .. })));

        // A dangling sequential index.
        let mut mutated = prog.clone();
        let seq_slot =
            mutated.seq_of_inst.iter().position(|&s| s != NO_SEQ).expect("sample has sequential cells");
        mutated.seq_of_inst[seq_slot] = 1000;
        let bytes = frame(encode_program(&mutated));
        let reader = ArtifactReader::parse(&bytes).unwrap();
        let mut r = reader.reader(SectionId::Program).unwrap();
        assert!(matches!(decode_program(&mut r, &syms), Err(ArtifactError::Malformed { .. })));
    }
}

//! A small programmatic SPU assembler.
//!
//! Kernels are built in Rust: each emitter appends one encoded
//! instruction word, labels mark branch targets and data quadwords, and
//! [`Assembler::assemble`] resolves the fixups into an [`IsaImage`] of
//! big-endian words ready to upload at the bottom of a local store.
//!
//! Conventions baked into the helpers:
//!
//! * `lqd`/`stqd` immediates are **quadword** offsets (the hardware
//!   scales the 10-bit immediate by 16);
//! * `rotmi(rt, ra, n)` takes the *positive* right-shift count and
//!   encodes the SPU's negated immediate;
//! * branch emitters and `lqr` take a label; the 16-bit immediate is
//!   the word-relative offset resolved at assembly time, so an image
//!   runs unchanged at any code base.

use std::collections::HashMap;

use cell_core::{CellError, CellResult};

use crate::inst::{encode, Inst, Op};

/// An assembled SPU program image.
#[derive(Debug, Clone)]
pub struct IsaImage {
    /// Big-endian instruction/data words, flattened to bytes.
    pub bytes: Vec<u8>,
    /// Entry point, as a byte offset into the image.
    pub entry: u32,
}

impl IsaImage {
    /// Image length in bytes (always a multiple of 16 after assembly).
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }
}

enum Fixup {
    /// Patch a 16-bit word-relative offset (branches, `lqr`).
    Rel16 { word: usize, label: &'static str },
}

/// Label-resolving assembler over the [`crate::inst`] encoder.
#[derive(Default)]
pub struct Assembler {
    words: Vec<u32>,
    labels: HashMap<&'static str, u32>,
    fixups: Vec<Fixup>,
}

impl Assembler {
    pub fn new() -> Assembler {
        Assembler::default()
    }

    /// Current byte address (next instruction goes here).
    pub fn here(&self) -> u32 {
        (self.words.len() * 4) as u32
    }

    /// Define `name` at the current address.
    pub fn label(&mut self, name: &'static str) {
        self.labels.insert(name, self.here());
    }

    fn emit(&mut self, inst: Inst) {
        self.words.push(encode(&inst));
    }

    // ---- register forms -------------------------------------------------

    pub fn rr(&mut self, op: Op, rt: u8, ra: u8, rb: u8) {
        self.emit(Inst::rr(op, rt, ra, rb));
    }

    pub fn rrr(&mut self, op: Op, rt: u8, ra: u8, rb: u8, rc: u8) {
        self.emit(Inst {
            op,
            rt,
            ra,
            rb,
            rc,
            imm: 0,
        });
    }

    pub fn ri(&mut self, op: Op, rt: u8, ra: u8, imm: i32) {
        self.emit(Inst::ri(op, rt, ra, imm));
    }

    // ---- common mnemonics ----------------------------------------------

    pub fn a(&mut self, rt: u8, ra: u8, rb: u8) {
        self.rr(Op::A, rt, ra, rb);
    }

    /// `sf rt, ra, rb`: rt = rb - ra (subtract *from*).
    pub fn sf(&mut self, rt: u8, ra: u8, rb: u8) {
        self.rr(Op::Sf, rt, ra, rb);
    }

    pub fn or(&mut self, rt: u8, ra: u8, rb: u8) {
        self.rr(Op::Or, rt, ra, rb);
    }

    pub fn ai(&mut self, rt: u8, ra: u8, imm: i32) {
        self.ri(Op::Ai, rt, ra, imm);
    }

    pub fn andi(&mut self, rt: u8, ra: u8, imm: i32) {
        self.ri(Op::Andi, rt, ra, imm);
    }

    pub fn il(&mut self, rt: u8, imm: i32) {
        self.ri(Op::Il, rt, 0, imm);
    }

    pub fn ilhu(&mut self, rt: u8, imm: i32) {
        self.ri(Op::Ilhu, rt, 0, imm);
    }

    pub fn iohl(&mut self, rt: u8, imm: i32) {
        self.ri(Op::Iohl, rt, 0, imm);
    }

    pub fn shli(&mut self, rt: u8, ra: u8, shift: i32) {
        self.ri(Op::Shli, rt, ra, shift);
    }

    /// Logical right shift by `shift` (encodes the SPU's negated form).
    pub fn rotmi(&mut self, rt: u8, ra: u8, shift: i32) {
        self.ri(Op::Rotmi, rt, ra, -shift);
    }

    pub fn rotqbyi(&mut self, rt: u8, ra: u8, bytes: i32) {
        self.ri(Op::Rotqbyi, rt, ra, bytes);
    }

    pub fn rotqby(&mut self, rt: u8, ra: u8, rb: u8) {
        self.rr(Op::Rotqby, rt, ra, rb);
    }

    pub fn mpyui(&mut self, rt: u8, ra: u8, imm: i32) {
        self.ri(Op::Mpyui, rt, ra, imm);
    }

    pub fn mpyu(&mut self, rt: u8, ra: u8, rb: u8) {
        self.rr(Op::Mpyu, rt, ra, rb);
    }

    /// Quadword load: address = `ra` preferred word + `qoff`×16.
    pub fn lqd(&mut self, rt: u8, ra: u8, qoff: i32) {
        self.ri(Op::Lqd, rt, ra, qoff);
    }

    /// PC-relative quadword load of the data at `label`.
    pub fn lqr(&mut self, rt: u8, label: &'static str) {
        self.label_ref(Op::Lqr, rt, label);
    }

    pub fn stqd(&mut self, rt: u8, ra: u8, qoff: i32) {
        self.ri(Op::Stqd, rt, ra, qoff);
    }

    pub fn lqx(&mut self, rt: u8, ra: u8, rb: u8) {
        self.rr(Op::Lqx, rt, ra, rb);
    }

    pub fn stqx(&mut self, rt: u8, ra: u8, rb: u8) {
        self.rr(Op::Stqx, rt, ra, rb);
    }

    pub fn cwx(&mut self, rt: u8, ra: u8, rb: u8) {
        self.rr(Op::Cwx, rt, ra, rb);
    }

    pub fn shufb(&mut self, rt: u8, ra: u8, rb: u8, rc: u8) {
        self.rrr(Op::Shufb, rt, ra, rb, rc);
    }

    pub fn selb(&mut self, rt: u8, ra: u8, rb: u8, rc: u8) {
        self.rrr(Op::Selb, rt, ra, rb, rc);
    }

    pub fn fa(&mut self, rt: u8, ra: u8, rb: u8) {
        self.rr(Op::Fa, rt, ra, rb);
    }

    pub fn fm(&mut self, rt: u8, ra: u8, rb: u8) {
        self.rr(Op::Fm, rt, ra, rb);
    }

    pub fn rdch(&mut self, rt: u8, channel: u8) {
        self.rr(Op::Rdch, rt, channel, 0);
    }

    pub fn wrch(&mut self, channel: u8, rt: u8) {
        self.rr(Op::Wrch, rt, channel, 0);
    }

    pub fn stop(&mut self, signal_type: i32) {
        self.ri(Op::Stop, 0, 0, signal_type);
    }

    pub fn nop(&mut self) {
        self.rr(Op::Nop, 0, 0, 0);
    }

    // ---- branches and label references ----------------------------------

    fn label_ref(&mut self, op: Op, rt: u8, label: &'static str) {
        self.fixups.push(Fixup::Rel16 {
            word: self.words.len(),
            label,
        });
        self.emit(Inst::ri(op, rt, 0, 0));
    }

    pub fn br(&mut self, label: &'static str) {
        self.label_ref(Op::Br, 0, label);
    }

    pub fn brz(&mut self, rt: u8, label: &'static str) {
        self.label_ref(Op::Brz, rt, label);
    }

    pub fn brnz(&mut self, rt: u8, label: &'static str) {
        self.label_ref(Op::Brnz, rt, label);
    }

    pub fn ila(&mut self, rt: u8, addr: i32) {
        self.ri(Op::Ila, rt, 0, addr);
    }

    /// Embed a raw data quadword (e.g. a `shufb` pattern). Pad with
    /// alignment first: data quads must start 16-byte aligned.
    pub fn quad(&mut self, bytes: [u8; 16]) {
        for chunk in bytes.chunks_exact(4) {
            self.words
                .push(u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]));
        }
    }

    /// Pad with `nop` until the current address is 16-byte aligned.
    pub fn align16(&mut self) {
        while !self.here().is_multiple_of(16) {
            self.nop();
        }
    }

    /// Resolve fixups and produce the image (entry at byte 0).
    pub fn assemble(mut self) -> CellResult<IsaImage> {
        for fixup in &self.fixups {
            match *fixup {
                Fixup::Rel16 { word, label } => {
                    let target = *self.labels.get(label).ok_or_else(|| bad_label(label))?;
                    let pc = (word * 4) as i64;
                    let rel_words = (i64::from(target) - pc) / 4;
                    if !(-32768..=32767).contains(&rel_words) {
                        return Err(CellError::BadKernelSpec {
                            message: format!("reference to `{label}` out of 16-bit range"),
                        });
                    }
                    let mut inst = crate::inst::decode(self.words[word]).expect("own encoding");
                    inst.imm = rel_words as i32;
                    self.words[word] = encode(&inst);
                }
            }
        }
        // Pad to a whole quadword so DMA of the image stays legal.
        while !self.words.len().is_multiple_of(4) {
            self.words.push(encode(&Inst::rr(Op::Nop, 0, 0, 0)));
        }
        let mut bytes = Vec::with_capacity(self.words.len() * 4);
        for w in &self.words {
            bytes.extend_from_slice(&w.to_be_bytes());
        }
        Ok(IsaImage { bytes, entry: 0 })
    }
}

fn bad_label(label: &str) -> CellError {
    CellError::BadKernelSpec {
        message: format!("undefined assembler label `{label}`"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::decode;

    #[test]
    fn branches_resolve_backwards_and_forwards() {
        let mut a = Assembler::new();
        a.il(1, 4);
        a.label("loop");
        a.ai(1, 1, -1);
        a.brnz(1, "loop");
        a.br("done");
        a.nop();
        a.label("done");
        a.stop(0);
        let img = a.assemble().unwrap();
        // brnz is the third word: target = word 1, pc = word 2 → offset -1.
        let w = u32::from_be_bytes(img.bytes[8..12].try_into().unwrap());
        assert_eq!(decode(w).unwrap().imm, -1);
        // br is the fourth word: target = word 5, pc = word 3 → offset +2.
        let w = u32::from_be_bytes(img.bytes[12..16].try_into().unwrap());
        assert_eq!(decode(w).unwrap().imm, 2);
    }

    #[test]
    fn undefined_label_is_an_error() {
        let mut a = Assembler::new();
        a.br("nowhere");
        assert!(a.assemble().is_err());
    }

    #[test]
    fn images_are_quadword_padded() {
        let mut a = Assembler::new();
        a.stop(0);
        let img = a.assemble().unwrap();
        assert_eq!(img.len() % 16, 0);
    }
}

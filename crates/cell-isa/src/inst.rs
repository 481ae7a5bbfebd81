//! SPU instruction formats, decoder and encoder.
//!
//! SPU instructions are 32-bit words fetched big-endian from the local
//! store, with a variable-length opcode prefix (4, 7, 8, 9 or 11 bits)
//! followed by register and immediate fields. The real ISA is a prefix
//! code; the subset implemented here keeps the genuine SPU opcode values
//! so the tables stay prefix-free by construction:
//!
//! | form | opcode bits | fields                                   |
//! |------|-------------|------------------------------------------|
//! | RRR  | 4           | `op(4) rt(7) rb(7) ra(7) rc(7)`          |
//! | RR   | 11          | `op(11) rb(7) ra(7) rt(7)`               |
//! | RI7  | 11          | `op(11) i7(7) ra(7) rt(7)`               |
//! | RI10 | 8           | `op(8) i10(10) ra(7) rt(7)`              |
//! | RI16 | 9           | `op(9) i16(16) rt(7)`                    |
//! | RI18 | 7           | `op(7) i18(18) rt(7)`                    |
//!
//! (Field positions use IBM bit numbering: bit 0 is the MSB.)
//!
//! The decoder and encoder round-trip: `decode(encode(i)) == Some(i)` for
//! every legal instruction, property-tested over all forms in
//! `tests/properties.rs`.

/// Instruction format classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Form {
    Rrr,
    Rr,
    Ri7,
    Ri10,
    Ri16,
    Ri18,
}

impl Form {
    /// Width in bits of the opcode prefix that selects this form's ops.
    pub(crate) const fn prefix_width(self) -> u32 {
        match self {
            Form::Rrr => 4,
            Form::Ri18 => 7,
            Form::Ri10 => 8,
            Form::Ri16 => 9,
            Form::Rr | Form::Ri7 => 11,
        }
    }
}

/// Execution pipe of an instruction (drives the dual-issue cycle model):
/// fixed-point/float arithmetic issues on the even pipe; loads, stores,
/// quadword rotates, shuffles, branches and channel ops on the odd pipe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pipe {
    Even,
    Odd,
}

macro_rules! ops {
    ($( $variant:ident => ($name:literal, $form:expr, $pipe:expr, $opcode:expr), )*) => {
        /// The implemented SPU opcodes.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        pub enum Op {
            $( $variant, )*
        }

        impl Op {
            /// Every implemented opcode, for table-driven tests.
            pub const ALL: &'static [Op] = &[ $( Op::$variant, )* ];

            /// Assembly mnemonic.
            pub fn name(self) -> &'static str {
                match self { $( Op::$variant => $name, )* }
            }

            /// Instruction format.
            pub const fn form(self) -> Form {
                match self { $( Op::$variant => $form, )* }
            }

            /// Issue pipe.
            pub fn pipe(self) -> Pipe {
                match self { $( Op::$variant => $pipe, )* }
            }

            /// Opcode value, right-aligned in its prefix width.
            pub const fn opcode(self) -> u32 {
                match self { $( Op::$variant => $opcode, )* }
            }
        }
    };
}

ops! {
    // ---- RR: op(11) rb ra rt --------------------------------------------
    Stop    => ("stop",    Form::Rr,   Pipe::Odd,  0x000),
    Lnop    => ("lnop",    Form::Rr,   Pipe::Odd,  0x001),
    Nop     => ("nop",     Form::Rr,   Pipe::Even, 0x201),
    A       => ("a",       Form::Rr,   Pipe::Even, 0x0C0),
    Sf      => ("sf",      Form::Rr,   Pipe::Even, 0x040),
    And     => ("and",     Form::Rr,   Pipe::Even, 0x0C1),
    Or      => ("or",      Form::Rr,   Pipe::Even, 0x041),
    Xor     => ("xor",     Form::Rr,   Pipe::Even, 0x241),
    Nor     => ("nor",     Form::Rr,   Pipe::Even, 0x049),
    Ceq     => ("ceq",     Form::Rr,   Pipe::Even, 0x3C0),
    Cgt     => ("cgt",     Form::Rr,   Pipe::Even, 0x240),
    Clgt    => ("clgt",    Form::Rr,   Pipe::Even, 0x2C0),
    Mpy     => ("mpy",     Form::Rr,   Pipe::Even, 0x3C4),
    Mpyu    => ("mpyu",    Form::Rr,   Pipe::Even, 0x3CC),
    Shl     => ("shl",     Form::Rr,   Pipe::Even, 0x05B),
    Fa      => ("fa",      Form::Rr,   Pipe::Even, 0x2C4),
    Fs      => ("fs",      Form::Rr,   Pipe::Even, 0x2C5),
    Fm      => ("fm",      Form::Rr,   Pipe::Even, 0x2C6),
    Lqx     => ("lqx",     Form::Rr,   Pipe::Odd,  0x1C4),
    Stqx    => ("stqx",    Form::Rr,   Pipe::Odd,  0x144),
    Rotqby  => ("rotqby",  Form::Rr,   Pipe::Odd,  0x1DC),
    Cwx     => ("cwx",     Form::Rr,   Pipe::Odd,  0x1D6),
    Bi      => ("bi",      Form::Rr,   Pipe::Odd,  0x1A8),
    Rdch    => ("rdch",    Form::Rr,   Pipe::Odd,  0x00D),
    Wrch    => ("wrch",    Form::Rr,   Pipe::Odd,  0x10D),
    // ---- RI7: op(11) i7 ra rt -------------------------------------------
    Shli    => ("shli",    Form::Ri7,  Pipe::Even, 0x07B),
    Roti    => ("roti",    Form::Ri7,  Pipe::Even, 0x078),
    Rotmi   => ("rotmi",   Form::Ri7,  Pipe::Even, 0x079),
    Rotqbyi => ("rotqbyi", Form::Ri7,  Pipe::Odd,  0x1FC),
    Cwd     => ("cwd",     Form::Ri7,  Pipe::Odd,  0x1F6),
    // ---- RI10: op(8) i10 ra rt ------------------------------------------
    Lqd     => ("lqd",     Form::Ri10, Pipe::Odd,  0x34),
    Stqd    => ("stqd",    Form::Ri10, Pipe::Odd,  0x24),
    Ai      => ("ai",      Form::Ri10, Pipe::Even, 0x1C),
    Sfi     => ("sfi",     Form::Ri10, Pipe::Even, 0x0C),
    Andi    => ("andi",    Form::Ri10, Pipe::Even, 0x14),
    Ori     => ("ori",     Form::Ri10, Pipe::Even, 0x04),
    Xori    => ("xori",    Form::Ri10, Pipe::Even, 0x44),
    Mpyi    => ("mpyi",    Form::Ri10, Pipe::Even, 0x74),
    Mpyui   => ("mpyui",   Form::Ri10, Pipe::Even, 0x75),
    Cgti    => ("cgti",    Form::Ri10, Pipe::Even, 0x4C),
    Ceqi    => ("ceqi",    Form::Ri10, Pipe::Even, 0x7C),
    Clgti   => ("clgti",   Form::Ri10, Pipe::Even, 0x5C),
    // ---- RI16: op(9) i16 rt ---------------------------------------------
    Il      => ("il",      Form::Ri16, Pipe::Even, 0x081),
    Ilhu    => ("ilhu",    Form::Ri16, Pipe::Even, 0x082),
    Iohl    => ("iohl",    Form::Ri16, Pipe::Even, 0x0C1),
    Br      => ("br",      Form::Ri16, Pipe::Odd,  0x064),
    Brz     => ("brz",     Form::Ri16, Pipe::Odd,  0x040),
    Brnz    => ("brnz",    Form::Ri16, Pipe::Odd,  0x042),
    Lqr     => ("lqr",     Form::Ri16, Pipe::Odd,  0x067),
    // ---- RI18: op(7) i18 rt ---------------------------------------------
    Ila     => ("ila",     Form::Ri18, Pipe::Even, 0x21),
    // ---- RRR: op(4) rt rb ra rc -----------------------------------------
    Selb    => ("selb",    Form::Rrr,  Pipe::Even, 0x8),
    Shufb   => ("shufb",   Form::Rrr,  Pipe::Odd,  0xB),
    Fma     => ("fma",     Form::Rrr,  Pipe::Even, 0xE),
    Fnms    => ("fnms",    Form::Rrr,  Pipe::Even, 0xD),
    Fms     => ("fms",     Form::Rrr,  Pipe::Even, 0xF),
}

/// A decoded instruction: opcode plus every field its form carries.
/// Fields outside the form are zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Inst {
    pub op: Op,
    /// Target register (destination for everything but stores/branches).
    pub rt: u8,
    pub ra: u8,
    pub rb: u8,
    /// RRR-form third source.
    pub rc: u8,
    /// Sign-extended immediate (RI7/RI10/RI16/RI18; RI18 is zero-extended,
    /// `stop` carries its 14-bit signal type here).
    pub imm: i32,
}

impl Inst {
    /// A register-only instruction (RR or RRR with rc = 0).
    pub fn rr(op: Op, rt: u8, ra: u8, rb: u8) -> Inst {
        Inst {
            op,
            rt,
            ra,
            rb,
            rc: 0,
            imm: 0,
        }
    }

    /// An immediate-form instruction.
    pub fn ri(op: Op, rt: u8, ra: u8, imm: i32) -> Inst {
        Inst {
            op,
            rt,
            ra,
            rb: 0,
            rc: 0,
            imm,
        }
    }
}

fn sext(v: u32, bits: u32) -> i32 {
    let shift = 32 - bits;
    ((v << shift) as i32) >> shift
}

/// The op owning each 11-bit word prefix (`word >> 21`), or `None`.
/// An op whose opcode is `w` bits wide owns the `2^(11 - w)` prefixes
/// that start with it. Built at compile time: two ops claiming the same
/// prefix fail the build, so the opcode table is prefix-free.
static DECODE_TABLE: [Option<Op>; 1 << 11] = {
    let mut table = [None; 1 << 11];
    let mut i = 0;
    while i < Op::ALL.len() {
        let op = Op::ALL[i];
        let free = 11 - op.form().prefix_width();
        let first = (op.opcode() << free) as usize;
        let mut p = first;
        while p < first + (1 << free) {
            assert!(table[p].is_none(), "two ops share an opcode prefix");
            table[p] = Some(op);
            p += 1;
        }
        i += 1;
    }
    table
};

/// Decode one big-endian instruction word: one `DECODE_TABLE` lookup
/// on its top 11 bits selects the op, whose form says which fields to
/// extract. Returns `None` for words outside the implemented subset
/// (the interpreter records these as `isa-unknown-op` trace events).
pub fn decode(word: u32) -> Option<Inst> {
    let op = DECODE_TABLE[(word >> 21) as usize]?;
    let rt = (word & 0x7F) as u8;
    let ra = ((word >> 7) & 0x7F) as u8;
    let rb = ((word >> 14) & 0x7F) as u8;
    Some(match op.form() {
        // Destination in the top register slot, third source at the bottom.
        Form::Rrr => Inst {
            op,
            rt: ((word >> 21) & 0x7F) as u8,
            ra,
            rb,
            rc: rt,
            imm: 0,
        },
        // `stop` carries a 14-bit stop-and-signal type.
        Form::Rr if op == Op::Stop => Inst::ri(op, 0, 0, (word & 0x3FFF) as i32),
        Form::Rr => Inst::rr(op, rt, ra, rb),
        Form::Ri7 => Inst::ri(op, rt, ra, sext((word >> 14) & 0x7F, 7)),
        Form::Ri10 => Inst::ri(op, rt, ra, sext((word >> 14) & 0x3FF, 10)),
        Form::Ri16 => Inst::ri(op, rt, 0, sext((word >> 7) & 0xFFFF, 16)),
        // The 18-bit immediate is zero-extended.
        Form::Ri18 => Inst::ri(op, rt, 0, ((word >> 7) & 0x3FFFF) as i32),
    })
}

/// Encode an instruction back into its big-endian word. Immediates are
/// masked to their field width; register numbers to 7 bits.
pub fn encode(inst: &Inst) -> u32 {
    let rt = u32::from(inst.rt & 0x7F);
    let ra = u32::from(inst.ra & 0x7F);
    let rb = u32::from(inst.rb & 0x7F);
    let rc = u32::from(inst.rc & 0x7F);
    let imm = inst.imm as u32;
    let op = inst.op.opcode();
    match inst.op.form() {
        Form::Rrr => (op << 28) | (rt << 21) | (rb << 14) | (ra << 7) | rc,
        Form::Rr if inst.op == Op::Stop => imm & 0x3FFF,
        Form::Rr => (op << 21) | (rb << 14) | (ra << 7) | rt,
        Form::Ri7 => (op << 21) | ((imm & 0x7F) << 14) | (ra << 7) | rt,
        Form::Ri10 => (op << 24) | ((imm & 0x3FF) << 14) | (ra << 7) | rt,
        Form::Ri16 => (op << 23) | ((imm & 0xFFFF) << 7) | rt,
        Form::Ri18 => (op << 25) | ((imm & 0x3FFFF) << 7) | rt,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn opcode_tables_are_prefix_free() {
        // Every pair of distinct ops must differ within the shorter
        // opcode's prefix — otherwise one word would decode as both.
        for &a in Op::ALL {
            for &b in Op::ALL {
                if a == b {
                    continue;
                }
                let (wa, wb) = (a.form().prefix_width(), b.form().prefix_width());
                let w = wa.min(wb);
                let pa = a.opcode() >> (wa - w);
                let pb = b.opcode() >> (wb - w);
                assert!(
                    pa != pb,
                    "{} and {} share the {w}-bit prefix {pa:#x}",
                    a.name(),
                    b.name()
                );
            }
        }
    }

    #[test]
    fn every_prefix_decodes_to_the_op_that_owns_it() {
        // Exhaustive over all 2048 prefixes: a decodable prefix starts
        // with its op's opcode, and no op's prefix range has a hole.
        let mut decodable = 0u32;
        for p in 0u32..1 << 11 {
            if let Some(inst) = decode(p << 21) {
                let w = inst.op.form().prefix_width();
                assert_eq!(
                    inst.op.opcode(),
                    p >> (11 - w),
                    "prefix {p:#05x} decodes as {}",
                    inst.op.name()
                );
                decodable += 1;
            }
        }
        let owned: u32 = Op::ALL
            .iter()
            .map(|op| 1 << (11 - op.form().prefix_width()))
            .sum();
        assert_eq!(decodable, owned);
    }

    #[test]
    fn decode_rejects_garbage() {
        assert_eq!(decode(0x0040_0000), None);
        // `stop` with type 0 is word 0.
        let stop = decode(0).unwrap();
        assert_eq!(stop.op, Op::Stop);
    }

    #[test]
    fn every_op_round_trips_through_encode_decode() {
        for &op in Op::ALL {
            let inst = match op.form() {
                Form::Rrr => Inst {
                    op,
                    rt: 3,
                    ra: 4,
                    rb: 5,
                    rc: 6,
                    imm: 0,
                },
                Form::Rr if op == Op::Stop => Inst::ri(op, 0, 0, 0x2A),
                Form::Rr => Inst::rr(op, 1, 2, 3),
                Form::Ri7 => Inst::ri(op, 1, 2, -5),
                Form::Ri10 => Inst::ri(op, 1, 2, -200),
                Form::Ri16 => Inst::ri(op, 1, 0, -1234),
                Form::Ri18 => Inst::ri(op, 1, 0, 0x3FF00),
            };
            let word = encode(&inst);
            assert_eq!(decode(word), Some(inst), "{} mis-round-trips", op.name());
        }
    }
}

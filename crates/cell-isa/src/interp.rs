//! The SPU interpreter: a 128×128-bit register file, a fetch/decode/
//! execute loop over the [`cell_mem::LocalStore`], and channel operations
//! mapped onto [`SpeEnv`]'s mailboxes and MFC.
//!
//! # Execution model
//!
//! Instructions are fetched as big-endian words from the local store,
//! decoded by [`crate::inst::decode`], and executed against a register
//! file of [`V128`] values. The *preferred slot* is u32 lane 0 (the
//! first four bytes of the quadword); scalar operands — addresses,
//! branch conditions, channel values — live there, matching how
//! [`V128::as_u32x4`] lays lanes over bytes.
//!
//! Local-store data accesses are force-aligned to 16 bytes and wrapped
//! modulo the LS capacity, as on hardware; a raw address at or beyond
//! capacity is additionally recorded in the trace so cell-lint can flag
//! it (`isa-ls-oob`) even though the wrap keeps execution defined.
//!
//! # Cycle model
//!
//! Each instruction issues on its even (arithmetic) or odd
//! (load/store/shuffle/branch/channel) pipeline. An odd-pipe
//! instruction that immediately follows an unpaired even-pipe
//! instruction dual-issues in the same cycle. Taken forward branches
//! pay the 18-cycle SPU miss penalty (no hardware predictor); taken
//! backward branches pay 1 cycle, modelling a correctly hinted loop
//! edge. Accumulated cycles are flushed into the SPE clock before any
//! blocking channel operation and at `stop`, so mailbox and DMA
//! ordering against other SPEs stays faithful.

use cell_core::{CellResult, OpClass, OpProfile};
use cell_mfc::TagMask;
use cell_spu::V128;
use cell_sys::spe::spe_fault;
use cell_sys::SpeEnv;

use crate::inst::{decode, Op, Pipe};

/// Runaway guard: an interpreted kernel may execute at most this many
/// instructions per invocation before the interpreter faults.
pub const MAX_STEPS: u64 = 10_000_000;

/// Cap on recorded channel operations (the counts keep accumulating).
const CHANNEL_LOG_CAP: usize = 4096;
/// Cap on recorded out-of-bounds addresses and unknown opcode words.
const ERROR_LOG_CAP: usize = 64;

/// SPU channel numbers implemented by the interpreter.
pub mod channel {
    pub const SPU_WR_DEC: u8 = 7;
    pub const SPU_RD_DEC: u8 = 8;
    pub const MFC_LSA: u8 = 16;
    pub const MFC_EAH: u8 = 17;
    pub const MFC_EAL: u8 = 18;
    pub const MFC_SIZE: u8 = 19;
    pub const MFC_TAG_ID: u8 = 20;
    pub const MFC_CMD: u8 = 21;
    pub const MFC_WR_TAG_MASK: u8 = 22;
    pub const MFC_WR_TAG_UPDATE: u8 = 23;
    pub const MFC_RD_TAG_STAT: u8 = 24;
    pub const SPU_WR_OUT_MBOX: u8 = 28;
    pub const SPU_RD_IN_MBOX: u8 = 29;
    pub const SPU_WR_OUT_INTR_MBOX: u8 = 30;
}

/// MFC command opcodes accepted on `MFC_Cmd` (channel 21).
pub const MFC_CMD_PUT: u32 = 0x20;
pub const MFC_CMD_GET: u32 = 0x40;

/// One channel access, in program order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChannelOp {
    pub channel: u8,
    /// `true` for `wrch`, `false` for `rdch`.
    pub write: bool,
    /// The value written, or the value the read returned.
    pub value: u32,
}

/// One MFC command issued through the channel interface.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DmaOp {
    /// `true` for GET (main memory → LS), `false` for PUT.
    pub get: bool,
    pub lsa: u32,
    pub ea: u64,
    pub size: u32,
    pub tag: u32,
}

/// Everything one interpreted execution did: instruction mix, pipeline
/// issue counts, branch behavior, LS footprint, channel and DMA
/// activity. This is both the calibration source (via
/// [`ExecTrace::to_profile`]) and cell-lint's ground truth.
#[derive(Debug, Clone, Default)]
pub struct ExecTrace {
    /// Instructions executed.
    pub instructions: u64,
    /// Cycles under the even/odd dual-issue model (penalties included).
    pub cycles: u64,
    /// Even-pipeline issues (arithmetic, immediates, compares, float).
    pub even_issues: u64,
    /// Odd-pipeline issues (memory, shuffle, branch, channel).
    pub odd_issues: u64,
    /// Odd-pipe instructions that paired with the preceding even-pipe
    /// instruction in the same cycle.
    pub dual_issues: u64,
    /// Conditional branches executed (`brz`/`brnz`).
    pub cond_branches: u64,
    /// Unconditional transfers executed (`br`/`bi`).
    pub uncond_branches: u64,
    /// Branches that were taken.
    pub taken_branches: u64,
    /// Cycles spent on taken-branch penalties (included in `cycles`).
    pub branch_penalty_cycles: u64,
    /// Highest LS byte address touched by a load or store, exclusive.
    pub ls_high_water: u32,
    /// Raw LS addresses that were at or beyond capacity before
    /// wrapping (capped at [`ERROR_LOG_CAP`] entries).
    pub ls_oob: Vec<u32>,
    /// Instruction words that failed to decode (capped).
    pub unknown_ops: Vec<u32>,
    /// Channel accesses in program order (capped at
    /// [`CHANNEL_LOG_CAP`]; see `channel_ops_truncated`).
    pub channel_ops: Vec<ChannelOp>,
    pub channel_ops_truncated: bool,
    /// MFC commands issued in program order.
    pub dma_ops: Vec<DmaOp>,
}

impl ExecTrace {
    /// Convert the instruction-derived counts into the analytic
    /// vocabulary, so [`cell_core::MachineProfile::compute_cycles`] can
    /// be compared against the interpreter's own cycle count.
    ///
    /// Branches are carved out of the odd-pipe issue count:
    /// conditional branches become `BranchHard` (the SPU has no
    /// predictor) and unconditional ones become `Branch`.
    pub fn to_profile(&self) -> OpProfile {
        let mut p = OpProfile::new();
        let branches = self.cond_branches + self.uncond_branches;
        p.record(OpClass::SimdEven, self.even_issues);
        p.record(OpClass::SimdOdd, self.odd_issues.saturating_sub(branches));
        p.record(OpClass::BranchHard, self.cond_branches);
        p.record(OpClass::Branch, self.uncond_branches);
        for op in &self.dma_ops {
            if op.get {
                p.record_dma_in(u64::from(op.size));
            } else {
                p.record_dma_out(u64::from(op.size));
            }
        }
        p.mailbox_ops = self
            .channel_ops
            .iter()
            .filter(|c| {
                matches!(
                    c.channel,
                    channel::SPU_WR_OUT_MBOX
                        | channel::SPU_RD_IN_MBOX
                        | channel::SPU_WR_OUT_INTR_MBOX
                )
            })
            .count() as u64;
        p
    }

    /// Fold another trace into this one (the dispatcher accumulates
    /// one trace across every interpreted invocation). Counters add,
    /// high-water marks take the max, and the bounded logs extend up
    /// to their caps.
    pub fn merge(&mut self, other: &ExecTrace) {
        self.instructions += other.instructions;
        self.cycles += other.cycles;
        self.even_issues += other.even_issues;
        self.odd_issues += other.odd_issues;
        self.dual_issues += other.dual_issues;
        self.cond_branches += other.cond_branches;
        self.uncond_branches += other.uncond_branches;
        self.taken_branches += other.taken_branches;
        self.branch_penalty_cycles += other.branch_penalty_cycles;
        self.ls_high_water = self.ls_high_water.max(other.ls_high_water);
        let room = ERROR_LOG_CAP.saturating_sub(self.ls_oob.len());
        self.ls_oob.extend(other.ls_oob.iter().take(room));
        let room = ERROR_LOG_CAP.saturating_sub(self.unknown_ops.len());
        self.unknown_ops.extend(other.unknown_ops.iter().take(room));
        let room = CHANNEL_LOG_CAP.saturating_sub(self.channel_ops.len());
        if other.channel_ops.len() > room {
            self.channel_ops_truncated = true;
        }
        self.channel_ops.extend(other.channel_ops.iter().take(room));
        self.channel_ops_truncated |= other.channel_ops_truncated;
        self.dma_ops.extend(other.dma_ops.iter().copied());
    }

    fn log_channel(&mut self, channel: u8, write: bool, value: u32) {
        if self.channel_ops.len() < CHANNEL_LOG_CAP {
            self.channel_ops.push(ChannelOp {
                channel,
                write,
                value,
            });
        } else {
            self.channel_ops_truncated = true;
        }
    }
}

/// Interpreter state for one SPU program invocation.
pub struct Interpreter {
    regs: [V128; 128],
    pc: u32,
    trace: ExecTrace,
    /// Cycles counted since the last flush into the SPE clock.
    unflushed_cycles: u64,
    /// The previous instruction was even-pipe and has not paired yet.
    even_pending: bool,
    // MFC channel parameter latches.
    mfc_lsa: u32,
    mfc_eah: u32,
    mfc_eal: u32,
    mfc_size: u32,
    mfc_tag: u32,
    tag_mask: u32,
    // Decrementer latch: value written and the cycle count at write.
    dec_value: u32,
    dec_written_at: u64,
    max_steps: u64,
}

impl Default for Interpreter {
    fn default() -> Self {
        Interpreter::new()
    }
}

impl Interpreter {
    pub fn new() -> Interpreter {
        Interpreter {
            regs: [V128::default(); 128],
            pc: 0,
            trace: ExecTrace::default(),
            unflushed_cycles: 0,
            even_pending: false,
            mfc_lsa: 0,
            mfc_eah: 0,
            mfc_eal: 0,
            mfc_size: 0,
            mfc_tag: 0,
            tag_mask: 0,
            dec_value: 0,
            dec_written_at: 0,
            max_steps: MAX_STEPS,
        }
    }

    /// Lower the runaway guard (tests use this to exercise it).
    pub fn with_max_steps(mut self, steps: u64) -> Interpreter {
        self.max_steps = steps;
        self
    }

    /// The execution trace so far (valid after errors too).
    pub fn trace(&self) -> &ExecTrace {
        &self.trace
    }

    /// Consume the interpreter, keeping its trace.
    pub fn into_trace(self) -> ExecTrace {
        self.trace
    }

    /// Preferred-slot (u32 lane 0) value of a register.
    fn pref(&self, r: u8) -> u32 {
        self.regs[r as usize].as_u32x4()[0]
    }

    fn set_pref(&mut self, r: u8, value: u32) {
        let mut lanes = self.regs[r as usize].as_u32x4();
        lanes[0] = value;
        self.regs[r as usize] = V128::from_u32x4(lanes);
    }

    /// Force-align and wrap an LS data address; record raw OOB.
    fn ls_addr(&mut self, raw: u32, capacity: u32) -> u32 {
        let aligned = raw & !15;
        if aligned >= capacity && self.trace.ls_oob.len() < ERROR_LOG_CAP {
            self.trace.ls_oob.push(raw);
        }
        // Capacity is a power of two (MachineConfig::validate enforces
        // it), so wrapping is a mask.
        let addr = aligned & (capacity - 1);
        self.trace.ls_high_water = self.trace.ls_high_water.max(addr + 16);
        addr
    }

    fn flush_cycles(&mut self, env: &mut SpeEnv) {
        if self.unflushed_cycles > 0 {
            env.charge_cycles(self.unflushed_cycles);
            self.unflushed_cycles = 0;
        }
    }

    /// Account one issued instruction on its pipeline.
    fn issue(&mut self, pipe: Pipe) {
        match pipe {
            Pipe::Even => {
                self.trace.even_issues += 1;
                self.trace.cycles += 1;
                self.unflushed_cycles += 1;
                self.even_pending = true;
            }
            Pipe::Odd => {
                self.trace.odd_issues += 1;
                if self.even_pending {
                    // Pairs with the previous even issue: same cycle.
                    self.trace.dual_issues += 1;
                } else {
                    self.trace.cycles += 1;
                    self.unflushed_cycles += 1;
                }
                self.even_pending = false;
            }
        }
    }

    /// Account a taken branch's pipeline penalty.
    fn charge_branch(&mut self, target: u32, from_pc: u32) {
        // Forward target: unhinted, full flush. Backward: a loop edge
        // the paper's methodology assumes is hinted — one bubble.
        let penalty = if target > from_pc { 18 } else { 1 };
        self.trace.taken_branches += 1;
        self.trace.branch_penalty_cycles += penalty;
        self.trace.cycles += penalty;
        self.unflushed_cycles += penalty;
        self.even_pending = false;
    }

    /// Run from `entry` with `arg` in r3's preferred slot; returns the
    /// value left in r3's preferred slot at `stop`.
    ///
    /// The register file is zeroed at entry. The trace accumulates
    /// across `run` calls on the same interpreter.
    pub fn run(&mut self, env: &mut SpeEnv, entry: u32, arg: u32) -> CellResult<u32> {
        let capacity = env.ls.capacity() as u32;
        self.regs = [V128::default(); 128];
        self.set_pref(3, arg);
        self.pc = entry & !3;
        let mut steps: u64 = 0;
        loop {
            if steps >= self.max_steps {
                self.flush_cycles(env);
                return Err(spe_fault(
                    env.spe_id(),
                    format!("isa: runaway kernel stopped after {steps} instructions"),
                ));
            }
            steps += 1;
            // Written so a pc near u32::MAX (a `bi` to the top of the
            // address space) cannot overflow; capacity is at least 4 KiB.
            if self.pc > capacity - 4 {
                self.flush_cycles(env);
                return Err(spe_fault(
                    env.spe_id(),
                    format!("isa: pc {:#x} outside local store", self.pc),
                ));
            }
            let mut word_bytes = [0u8; 4];
            env.ls.read(self.pc, &mut word_bytes)?;
            let word = u32::from_be_bytes(word_bytes);
            let Some(inst) = decode(word) else {
                if self.trace.unknown_ops.len() < ERROR_LOG_CAP {
                    self.trace.unknown_ops.push(word);
                }
                self.flush_cycles(env);
                return Err(spe_fault(
                    env.spe_id(),
                    format!("isa: unknown opcode word {word:#010x} at pc {:#x}", self.pc),
                ));
            };
            self.trace.instructions += 1;
            self.issue(inst.op.pipe());

            let (rt, ra, rb, rc) = (inst.rt, inst.ra, inst.rb, inst.rc);
            let imm = inst.imm;
            let mut next_pc = self.pc.wrapping_add(4);
            match inst.op {
                Op::Stop => {
                    self.flush_cycles(env);
                    return Ok(self.pref(3));
                }
                Op::Nop | Op::Lnop => {}

                // ---- word-lane integer ---------------------------------
                Op::A => self.lanes2(rt, ra, rb, u32::wrapping_add),
                Op::Sf => self.lanes2(rt, ra, rb, |a, b| b.wrapping_sub(a)),
                Op::And => self.lanes2(rt, ra, rb, |a, b| a & b),
                Op::Or => self.lanes2(rt, ra, rb, |a, b| a | b),
                Op::Xor => self.lanes2(rt, ra, rb, |a, b| a ^ b),
                Op::Nor => self.lanes2(rt, ra, rb, |a, b| !(a | b)),
                Op::Ceq => self.lanes2(rt, ra, rb, |a, b| if a == b { !0 } else { 0 }),
                Op::Cgt => {
                    self.lanes2(
                        rt,
                        ra,
                        rb,
                        |a, b| {
                            if (a as i32) > (b as i32) {
                                !0
                            } else {
                                0
                            }
                        },
                    );
                }
                Op::Clgt => self.lanes2(rt, ra, rb, |a, b| if a > b { !0 } else { 0 }),
                Op::Mpy => {
                    self.lanes2(rt, ra, rb, |a, b| {
                        let sa = (a & 0xFFFF) as u16 as i16 as i32;
                        let sb = (b & 0xFFFF) as u16 as i16 as i32;
                        sa.wrapping_mul(sb) as u32
                    });
                }
                Op::Mpyu => {
                    self.lanes2(rt, ra, rb, |a, b| (a & 0xFFFF).wrapping_mul(b & 0xFFFF));
                }
                Op::Shl => {
                    self.lanes2(rt, ra, rb, |a, b| {
                        let sh = b & 0x3F;
                        if sh >= 32 {
                            0
                        } else {
                            a << sh
                        }
                    });
                }

                // ---- word-lane immediates ------------------------------
                Op::Ai => self.lanes1(rt, ra, |a| a.wrapping_add(imm as u32)),
                Op::Sfi => self.lanes1(rt, ra, |a| (imm as u32).wrapping_sub(a)),
                Op::Andi => self.lanes1(rt, ra, |a| a & imm as u32),
                Op::Ori => self.lanes1(rt, ra, |a| a | imm as u32),
                Op::Xori => self.lanes1(rt, ra, |a| a ^ imm as u32),
                Op::Mpyi => {
                    self.lanes1(rt, ra, |a| {
                        let sa = (a & 0xFFFF) as u16 as i16 as i32;
                        sa.wrapping_mul(imm) as u32
                    });
                }
                Op::Mpyui => {
                    self.lanes1(rt, ra, |a| (a & 0xFFFF).wrapping_mul(imm as u32 & 0xFFFF));
                }
                Op::Cgti => {
                    self.lanes1(rt, ra, |a| if (a as i32) > imm { !0 } else { 0 });
                }
                Op::Ceqi => self.lanes1(rt, ra, |a| if a == imm as u32 { !0 } else { 0 }),
                Op::Clgti => self.lanes1(rt, ra, |a| if a > imm as u32 { !0 } else { 0 }),
                Op::Shli => {
                    self.lanes1(rt, ra, |a| {
                        let sh = (imm as u32) & 0x3F;
                        if sh >= 32 {
                            0
                        } else {
                            a << sh
                        }
                    });
                }
                Op::Roti => self.lanes1(rt, ra, |a| a.rotate_left(imm as u32 & 31)),
                Op::Rotmi => {
                    self.lanes1(rt, ra, |a| {
                        let sh = (0i32.wrapping_sub(imm) as u32) & 0x3F;
                        if sh >= 32 {
                            0
                        } else {
                            a >> sh
                        }
                    });
                }
                Op::Il => self.regs[rt as usize] = V128::splat_u32(imm as u32),
                Op::Ilhu => self.regs[rt as usize] = V128::splat_u32((imm as u32) << 16),
                Op::Iohl => self.lanes1(rt, rt, |a| a | (imm as u32 & 0xFFFF)),
                Op::Ila => self.regs[rt as usize] = V128::splat_u32(imm as u32),

                // ---- float ---------------------------------------------
                Op::Fa => self.flanes2(rt, ra, rb, |a, b| a + b),
                Op::Fs => self.flanes2(rt, ra, rb, |a, b| a - b),
                Op::Fm => self.flanes2(rt, ra, rb, |a, b| a * b),
                Op::Fma => self.flanes3(rt, ra, rb, rc, |a, b, c| a * b + c),
                Op::Fms => self.flanes3(rt, ra, rb, rc, |a, b, c| a * b - c),
                Op::Fnms => self.flanes3(rt, ra, rb, rc, |a, b, c| c - a * b),

                // ---- quadword / shuffle --------------------------------
                Op::Selb => {
                    let a = self.regs[ra as usize].to_bytes();
                    let b = self.regs[rb as usize].to_bytes();
                    let c = self.regs[rc as usize].to_bytes();
                    let mut out = [0u8; 16];
                    for i in 0..16 {
                        out[i] = (a[i] & !c[i]) | (b[i] & c[i]);
                    }
                    self.regs[rt as usize] = V128::from_bytes(out);
                }
                Op::Shufb => {
                    let a = self.regs[ra as usize].to_bytes();
                    let b = self.regs[rb as usize].to_bytes();
                    let c = self.regs[rc as usize].to_bytes();
                    let mut out = [0u8; 16];
                    for i in 0..16 {
                        let idx = (c[i] & 0x1F) as usize;
                        out[i] = if idx < 16 { a[idx] } else { b[idx - 16] };
                    }
                    self.regs[rt as usize] = V128::from_bytes(out);
                }
                Op::Rotqby => {
                    let n = (self.pref(rb) & 15) as usize;
                    self.rotate_bytes(rt, ra, n);
                }
                Op::Rotqbyi => self.rotate_bytes(rt, ra, (imm as usize) & 15),
                Op::Cwx => {
                    let addr = self.pref(ra).wrapping_add(self.pref(rb));
                    self.regs[rt as usize] = word_insert_pattern(addr);
                }
                Op::Cwd => {
                    let addr = self.pref(ra).wrapping_add(imm as u32);
                    self.regs[rt as usize] = word_insert_pattern(addr);
                }

                // ---- local store ---------------------------------------
                Op::Lqd | Op::Lqx | Op::Lqr => {
                    let raw = match inst.op {
                        Op::Lqd => self.pref(ra).wrapping_add((imm as u32).wrapping_mul(16)),
                        Op::Lqx => self.pref(ra).wrapping_add(self.pref(rb)),
                        // PC-relative: `imm` is a signed word offset.
                        _ => self.pc.wrapping_add((imm as u32).wrapping_mul(4)),
                    };
                    let addr = self.ls_addr(raw, capacity);
                    let mut buf = [0u8; 16];
                    env.ls.read(addr, &mut buf)?;
                    self.regs[rt as usize] = V128::from_bytes(buf);
                }
                Op::Stqd | Op::Stqx => {
                    let raw = if inst.op == Op::Stqd {
                        self.pref(ra).wrapping_add((imm as u32).wrapping_mul(16))
                    } else {
                        self.pref(ra).wrapping_add(self.pref(rb))
                    };
                    let addr = self.ls_addr(raw, capacity);
                    env.ls.write(addr, &self.regs[rt as usize].to_bytes())?;
                }

                // ---- control flow --------------------------------------
                Op::Br => {
                    let target = branch_target(self.pc, imm);
                    self.trace.uncond_branches += 1;
                    self.charge_branch(target, self.pc);
                    next_pc = target;
                }
                Op::Bi => {
                    let target = self.pref(ra) & !3;
                    self.trace.uncond_branches += 1;
                    self.charge_branch(target, self.pc);
                    next_pc = target;
                }
                Op::Brz | Op::Brnz => {
                    self.trace.cond_branches += 1;
                    let v = self.pref(rt);
                    let take = (inst.op == Op::Brz) == (v == 0);
                    if take {
                        let target = branch_target(self.pc, imm);
                        self.charge_branch(target, self.pc);
                        next_pc = target;
                    }
                }

                // ---- channels ------------------------------------------
                Op::Rdch => {
                    let value = self.read_channel(env, ra)?;
                    self.set_pref(rt, value);
                    self.trace.log_channel(ra, false, value);
                }
                Op::Wrch => {
                    let value = self.pref(rt);
                    self.write_channel(env, ra, value)?;
                    self.trace.log_channel(ra, true, value);
                }
            }
            self.pc = next_pc;
        }
    }

    fn lanes1(&mut self, rt: u8, ra: u8, f: impl Fn(u32) -> u32) {
        let a = self.regs[ra as usize].as_u32x4();
        self.regs[rt as usize] = V128::from_u32x4([f(a[0]), f(a[1]), f(a[2]), f(a[3])]);
    }

    fn lanes2(&mut self, rt: u8, ra: u8, rb: u8, f: impl Fn(u32, u32) -> u32) {
        let a = self.regs[ra as usize].as_u32x4();
        let b = self.regs[rb as usize].as_u32x4();
        self.regs[rt as usize] =
            V128::from_u32x4([f(a[0], b[0]), f(a[1], b[1]), f(a[2], b[2]), f(a[3], b[3])]);
    }

    fn flanes2(&mut self, rt: u8, ra: u8, rb: u8, f: impl Fn(f32, f32) -> f32) {
        let a = self.regs[ra as usize].as_f32x4();
        let b = self.regs[rb as usize].as_f32x4();
        self.regs[rt as usize] =
            V128::from_f32x4([f(a[0], b[0]), f(a[1], b[1]), f(a[2], b[2]), f(a[3], b[3])]);
    }

    fn flanes3(&mut self, rt: u8, ra: u8, rb: u8, rc: u8, f: impl Fn(f32, f32, f32) -> f32) {
        let a = self.regs[ra as usize].as_f32x4();
        let b = self.regs[rb as usize].as_f32x4();
        let c = self.regs[rc as usize].as_f32x4();
        self.regs[rt as usize] = V128::from_f32x4([
            f(a[0], b[0], c[0]),
            f(a[1], b[1], c[1]),
            f(a[2], b[2], c[2]),
            f(a[3], b[3], c[3]),
        ]);
    }

    /// Rotate quadword bytes left by `n`: result byte `k` is source byte
    /// `(k + n) & 15`, so the byte at LS offset `n` lands in byte 0.
    fn rotate_bytes(&mut self, rt: u8, ra: u8, n: usize) {
        let src = self.regs[ra as usize].to_bytes();
        let mut out = [0u8; 16];
        for (k, slot) in out.iter_mut().enumerate() {
            *slot = src[(k + n) & 15];
        }
        self.regs[rt as usize] = V128::from_bytes(out);
    }

    fn read_channel(&mut self, env: &mut SpeEnv, ch: u8) -> CellResult<u32> {
        match ch {
            channel::SPU_RD_DEC => {
                let elapsed = (self.trace.cycles - self.dec_written_at) as u32;
                Ok(self.dec_value.wrapping_sub(elapsed))
            }
            channel::SPU_RD_IN_MBOX => {
                self.flush_cycles(env);
                env.read_in_mbox()
            }
            channel::MFC_RD_TAG_STAT => {
                self.flush_cycles(env);
                env.mfc.wait_tags(TagMask(self.tag_mask), &mut env.clock);
                Ok(self.tag_mask)
            }
            _ => Err(spe_fault(
                env.spe_id(),
                format!("isa: rdch from unimplemented channel {ch}"),
            )),
        }
    }

    fn write_channel(&mut self, env: &mut SpeEnv, ch: u8, value: u32) -> CellResult<()> {
        match ch {
            channel::SPU_WR_DEC => {
                self.dec_value = value;
                self.dec_written_at = self.trace.cycles;
                Ok(())
            }
            channel::MFC_LSA => {
                self.mfc_lsa = value;
                Ok(())
            }
            channel::MFC_EAH => {
                self.mfc_eah = value;
                Ok(())
            }
            channel::MFC_EAL => {
                self.mfc_eal = value;
                Ok(())
            }
            channel::MFC_SIZE => {
                self.mfc_size = value;
                Ok(())
            }
            channel::MFC_TAG_ID => {
                self.mfc_tag = value;
                Ok(())
            }
            channel::MFC_WR_TAG_MASK => {
                self.tag_mask = value;
                Ok(())
            }
            // Tag-update condition: the model completes synchronously at
            // the rdch on MFC_RdTagStat, so the request itself is a no-op.
            channel::MFC_WR_TAG_UPDATE => Ok(()),
            channel::MFC_CMD => {
                self.flush_cycles(env);
                let ea = (u64::from(self.mfc_eah) << 32) | u64::from(self.mfc_eal);
                let (lsa, size, tag) = (self.mfc_lsa, self.mfc_size, self.mfc_tag);
                match value {
                    MFC_CMD_GET => {
                        env.mfc
                            .get(&mut env.ls, lsa, ea, size as usize, tag, &mut env.clock)?;
                    }
                    MFC_CMD_PUT => {
                        env.mfc
                            .put(&mut env.ls, lsa, ea, size as usize, tag, &mut env.clock)?;
                    }
                    other => {
                        return Err(spe_fault(
                            env.spe_id(),
                            format!("isa: unsupported MFC command {other:#x}"),
                        ));
                    }
                }
                self.trace.dma_ops.push(DmaOp {
                    get: value == MFC_CMD_GET,
                    lsa,
                    ea,
                    size,
                    tag,
                });
                Ok(())
            }
            channel::SPU_WR_OUT_MBOX => {
                self.flush_cycles(env);
                env.write_out_mbox(value)
            }
            channel::SPU_WR_OUT_INTR_MBOX => {
                self.flush_cycles(env);
                env.write_out_intr_mbox(value)
            }
            _ => Err(spe_fault(
                env.spe_id(),
                format!("isa: wrch to unimplemented channel {ch}"),
            )),
        }
    }
}

/// PC-relative branch target: `imm` is a signed word offset.
fn branch_target(pc: u32, imm: i32) -> u32 {
    pc.wrapping_add((imm as u32).wrapping_mul(4)) & !3
}

/// The shuffle pattern `cwx`/`cwd` generate: identity over the second
/// operand (`0x10 + i`), except the addressed word slot takes bytes
/// 0..=3 of the first operand. Used as
/// `shufb(rt, new_scalar, old_quad, pattern)` to insert a word.
fn word_insert_pattern(addr: u32) -> V128 {
    let slot = ((addr & 15) >> 2) as usize;
    let mut bytes = [0u8; 16];
    for (i, b) in bytes.iter_mut().enumerate() {
        *b = 0x10 + i as u8;
    }
    for (i, b) in bytes[slot * 4..slot * 4 + 4].iter_mut().enumerate() {
        *b = i as u8;
    }
    V128::from_bytes(bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn word_insert_pattern_targets_the_addressed_slot() {
        let p = word_insert_pattern(0).to_bytes();
        assert_eq!(&p[0..4], &[0, 1, 2, 3]);
        assert_eq!(p[4], 0x14);
        let p = word_insert_pattern(8).to_bytes();
        assert_eq!(&p[8..12], &[0, 1, 2, 3]);
        assert_eq!(p[0], 0x10);
    }

    #[test]
    fn trace_profile_separates_branches_from_odd_issues() {
        let t = ExecTrace {
            even_issues: 10,
            odd_issues: 7,
            cond_branches: 2,
            uncond_branches: 1,
            ..ExecTrace::default()
        };
        let p = t.to_profile();
        assert_eq!(p.count(OpClass::SimdEven), 10);
        assert_eq!(p.count(OpClass::SimdOdd), 4);
        assert_eq!(p.count(OpClass::BranchHard), 2);
        assert_eq!(p.count(OpClass::Branch), 1);
    }
}

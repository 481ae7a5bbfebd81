//! Calibrated machine cost models.
//!
//! The paper compares five execution targets: a Pentium M "Laptop"
//! (1.8 GHz), a Pentium D "Desktop" (3.4 GHz), the Cell PPE (3.2 GHz), and
//! SPEs before and after SPE-specific optimization. We reproduce the
//! comparison with per-machine cost tables that convert an
//! [`crate::ops::OpProfile`] into cycles.
//!
//! # Calibration
//!
//! The tables below are calibrated against the three anchor measurements
//! the paper reports (§5.2):
//!
//! * PPE kernels run ≈2.5× slower than the Laptop;
//! * PPE kernels run ≈3.2× slower than the Desktop (hence the Desktop is
//!   ≈1.28× faster than the Laptop);
//! * an optimized SPE kernel gains one-to-two orders of magnitude over its
//!   PPE version (Table 1: 10.8×–65.9×), with 8/16-bit integer kernels at
//!   the high end (16-way SIMD) and single-float kernels at the low end
//!   (4-way SIMD).
//!
//! Effective CPI targets for a typical integer image kernel mix:
//! Laptop ≈ 0.85, Desktop ≈ 1.25, PPE ≈ 3.8 (in-order, 2-way, shared
//! pipeline — consistent with published PPE results), SPE ≈ 1 cycle per
//! 128-bit issue with dual-issue overlap between the even and odd
//! pipelines. Absolute numbers are a model; EXPERIMENTS.md records
//! paper-vs-measured for every experiment and judges *shape*, not equality.

use crate::cycles::{Cycles, Frequency, VirtualDuration};
use crate::ops::{OpClass, OpProfile, OP_CLASSES};

/// The execution targets of the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MachineKind {
    /// Pentium M reference laptop, 1.8 GHz (paper "Laptop").
    Laptop,
    /// Pentium D reference desktop, 3.4 GHz (paper "Desktop"; the
    /// reference application is sequential so only one core is used).
    Desktop,
    /// The Cell Power Processing Element, 3.2 GHz.
    Ppe,
    /// A Synergistic Processing Element, 3.2 GHz.
    Spe,
}

impl MachineKind {
    pub fn name(self) -> &'static str {
        match self {
            MachineKind::Laptop => "Laptop",
            MachineKind::Desktop => "Desktop",
            MachineKind::Ppe => "PPE",
            MachineKind::Spe => "SPE",
        }
    }
}

/// Anything that can turn an operation profile into cycles and time.
pub trait CostModel {
    /// Cycles the profile takes on this machine.
    fn cycles(&self, profile: &OpProfile) -> Cycles;

    /// Clock frequency used to convert cycles to time.
    fn frequency(&self) -> Frequency;

    /// Virtual time the profile takes on this machine.
    fn time(&self, profile: &OpProfile) -> VirtualDuration {
        self.cycles(profile).at(self.frequency())
    }
}

/// How DMA cycles combine with compute cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DmaOverlap {
    /// Single-buffered: the SPU stalls for every transfer
    /// (compute + dma serialized).
    Serialized,
    /// Double/triple-buffered (paper §4.1): transfers overlap compute, so
    /// the kernel is bound by whichever is larger, plus one buffer's worth
    /// of fill latency.
    Overlapped,
}

/// A calibrated cost table for one machine.
#[derive(Debug, Clone)]
pub struct MachineProfile {
    pub kind: MachineKind,
    /// Human-readable label, e.g. `"SPE (optimized)"`.
    pub label: &'static str,
    frequency: Frequency,
    /// Cycles per operation, indexed by `OpClass as usize`.
    cpi: [f64; OP_CLASSES],
    /// Extra cycles charged per hard branch (`BranchHard`) on a miss.
    pub branch_miss_penalty: f64,
    /// Fraction of hard branches that miss.
    pub hard_miss_rate: f64,
    /// Whether the even/odd SIMD pipelines dual-issue (SPU only): compute
    /// cycles become `max(even, odd)` instead of `even + odd`.
    pub dual_issue: bool,
    /// Per-transfer DMA startup latency in cycles (command issue + EIB
    /// command phase). Zero for machines that do not DMA.
    pub dma_startup_cycles: f64,
    /// Effective DMA bandwidth in bytes per cycle of this machine's clock.
    /// 8 B/cycle at 3.2 GHz ≈ the 25.6 GB/s per-SPE LS port.
    pub dma_bytes_per_cycle: f64,
    /// Cycles per mailbox/channel access.
    pub mailbox_cycles: f64,
    /// Default DMA/compute combination rule.
    pub dma_overlap: DmaOverlap,
}

impl MachineProfile {
    /// Pentium M 1.8 GHz: short pipeline, good predictor, effective CPI
    /// near 0.85 on integer image kernels. The calibration baseline.
    pub fn laptop() -> Self {
        let mut cpi = [1.0f64; OP_CLASSES];
        cpi[OpClass::IntAlu as usize] = 0.6;
        cpi[OpClass::IntMul as usize] = 3.0;
        cpi[OpClass::IntDiv as usize] = 20.0;
        cpi[OpClass::FpAdd as usize] = 1.5;
        cpi[OpClass::FpMul as usize] = 2.0;
        cpi[OpClass::FpDiv as usize] = 18.0;
        cpi[OpClass::FpSqrt as usize] = 25.0;
        cpi[OpClass::Load as usize] = 1.0;
        cpi[OpClass::Store as usize] = 1.0;
        cpi[OpClass::Branch as usize] = 0.5;
        cpi[OpClass::BranchHard as usize] = 0.5;
        // SSE-class 128-bit ops, if a ported kernel is costed here.
        cpi[OpClass::SimdEven as usize] = 1.5;
        cpi[OpClass::SimdOdd as usize] = 1.5;
        cpi[OpClass::ScalarInVector as usize] = 1.0;
        MachineProfile {
            kind: MachineKind::Laptop,
            label: "Laptop (Pentium M 1.8 GHz)",
            frequency: Frequency::ghz(1.8),
            cpi,
            branch_miss_penalty: 11.0,
            hard_miss_rate: 0.25,
            dual_issue: false,
            dma_startup_cycles: 0.0,
            dma_bytes_per_cycle: 0.0,
            mailbox_cycles: 0.0,
            dma_overlap: DmaOverlap::Serialized,
        }
    }

    /// Pentium D 3.4 GHz: higher clock but the long NetBurst pipeline
    /// raises per-op CPI; calibrated ≈1.28× faster than the Laptop on the
    /// kernel mix, matching the paper's 3.2/2.5 slowdown ratio.
    pub fn desktop() -> Self {
        let mut cpi = [1.4f64; OP_CLASSES];
        cpi[OpClass::IntAlu as usize] = 0.9;
        cpi[OpClass::IntMul as usize] = 4.0;
        cpi[OpClass::IntDiv as usize] = 30.0;
        cpi[OpClass::FpAdd as usize] = 2.2;
        cpi[OpClass::FpMul as usize] = 3.0;
        cpi[OpClass::FpDiv as usize] = 30.0;
        cpi[OpClass::FpSqrt as usize] = 38.0;
        cpi[OpClass::Load as usize] = 1.5;
        cpi[OpClass::Store as usize] = 1.5;
        cpi[OpClass::Branch as usize] = 0.6;
        cpi[OpClass::BranchHard as usize] = 0.6;
        cpi[OpClass::SimdEven as usize] = 2.0;
        cpi[OpClass::SimdOdd as usize] = 2.0;
        cpi[OpClass::ScalarInVector as usize] = 1.4;
        MachineProfile {
            kind: MachineKind::Desktop,
            label: "Desktop (Pentium D 3.4 GHz)",
            frequency: Frequency::ghz(3.4),
            cpi,
            branch_miss_penalty: 28.0,
            hard_miss_rate: 0.25,
            dual_issue: false,
            dma_startup_cycles: 0.0,
            dma_bytes_per_cycle: 0.0,
            mailbox_cycles: 0.0,
            dma_overlap: DmaOverlap::Serialized,
        }
    }

    /// The PPE: 3.2 GHz but in-order, 2-way, with a pipeline shared between
    /// two hardware threads — calibrated to the paper's ×2.5 (Laptop) and
    /// ×3.2 (Desktop) kernel slowdowns.
    pub fn ppe() -> Self {
        let mut cpi = [4.0f64; OP_CLASSES];
        cpi[OpClass::IntAlu as usize] = 2.8;
        cpi[OpClass::IntMul as usize] = 9.0;
        cpi[OpClass::IntDiv as usize] = 60.0;
        cpi[OpClass::FpAdd as usize] = 6.0;
        cpi[OpClass::FpMul as usize] = 7.0;
        cpi[OpClass::FpDiv as usize] = 60.0;
        cpi[OpClass::FpSqrt as usize] = 70.0;
        cpi[OpClass::Load as usize] = 4.5;
        cpi[OpClass::Store as usize] = 3.5;
        cpi[OpClass::Branch as usize] = 1.5;
        cpi[OpClass::BranchHard as usize] = 1.5;
        // VMX exists on the PPE but the ported reference code is scalar.
        cpi[OpClass::SimdEven as usize] = 2.0;
        cpi[OpClass::SimdOdd as usize] = 2.0;
        cpi[OpClass::ScalarInVector as usize] = 3.0;
        MachineProfile {
            kind: MachineKind::Ppe,
            label: "PPE (3.2 GHz)",
            frequency: Frequency::ghz(3.2),
            cpi,
            branch_miss_penalty: 23.0,
            hard_miss_rate: 0.3,
            dual_issue: false,
            dma_startup_cycles: 0.0,
            dma_bytes_per_cycle: 0.0,
            mailbox_cycles: 50.0,
            dma_overlap: DmaOverlap::Serialized,
        }
    }

    /// An SPE running *optimized* kernel code: SIMDized, branch-hinted,
    /// double-buffered DMA (paper §4.1). One cycle per pipelined 128-bit
    /// issue, dual-issue overlap between the pipelines.
    pub fn spe_optimized() -> Self {
        let mut cpi = [1.0f64; OP_CLASSES];
        cpi[OpClass::IntAlu as usize] = 2.0; // leftover scalar control code
        cpi[OpClass::IntMul as usize] = 7.0;
        cpi[OpClass::IntDiv as usize] = 40.0;
        cpi[OpClass::FpAdd as usize] = 6.0;
        cpi[OpClass::FpMul as usize] = 6.0;
        cpi[OpClass::FpDiv as usize] = 40.0;
        cpi[OpClass::FpSqrt as usize] = 40.0;
        cpi[OpClass::Load as usize] = 2.0;
        cpi[OpClass::Store as usize] = 2.0;
        cpi[OpClass::Branch as usize] = 1.0; // hinted
        cpi[OpClass::BranchHard as usize] = 1.0;
        cpi[OpClass::SimdEven as usize] = 1.0;
        cpi[OpClass::SimdOdd as usize] = 1.0;
        cpi[OpClass::ScalarInVector as usize] = 4.0;
        MachineProfile {
            kind: MachineKind::Spe,
            label: "SPE (optimized)",
            frequency: Frequency::ghz(3.2),
            cpi,
            branch_miss_penalty: 18.0,
            hard_miss_rate: 0.1, // hints remove most misses
            dual_issue: true,
            dma_startup_cycles: 200.0,
            dma_bytes_per_cycle: 8.0, // 25.6 GB/s at 3.2 GHz
            mailbox_cycles: 100.0,
            dma_overlap: DmaOverlap::Overlapped,
        }
    }

    /// An SPE running kernel code straight after the port, *before*
    /// SPE-specific optimization (paper §5.3): scalar code pays the
    /// scalar-in-vector penalty, branches are unhinted and miss often, DMA
    /// is single-buffered.
    pub fn spe_unoptimized() -> Self {
        let mut p = Self::spe_optimized();
        p.label = "SPE (unoptimized)";
        p.hard_miss_rate = 0.5;
        p.dma_overlap = DmaOverlap::Serialized;
        p
    }

    /// Compute-only cycles (no DMA, no mailbox), honoring dual-issue.
    pub fn compute_cycles(&self, profile: &OpProfile) -> Cycles {
        let mut even = 0.0f64;
        let mut odd = 0.0f64;
        let mut serial = 0.0f64;
        for class in OpClass::ALL {
            let n = profile.count(class) as f64;
            if n == 0.0 {
                continue;
            }
            let c = n * self.cpi[class as usize];
            match class {
                OpClass::SimdEven => even += c,
                OpClass::SimdOdd => odd += c,
                _ => serial += c,
            }
        }
        // Hard branches additionally pay the miss penalty on a fraction of
        // executions.
        serial += profile.count(OpClass::BranchHard) as f64
            * self.hard_miss_rate
            * self.branch_miss_penalty;
        let simd = if self.dual_issue {
            even.max(odd)
        } else {
            even + odd
        };
        Cycles((serial + simd).round() as u64)
    }

    /// DMA cycles for the profile's recorded traffic.
    pub fn dma_cycles(&self, profile: &OpProfile) -> Cycles {
        if self.dma_bytes_per_cycle <= 0.0 {
            return Cycles::ZERO;
        }
        let bytes = (profile.dma_bytes_in + profile.dma_bytes_out) as f64;
        let data = bytes / self.dma_bytes_per_cycle;
        let startup = profile.dma_transfers as f64 * self.dma_startup_cycles;
        Cycles((data + startup).round() as u64)
    }

    /// Full cost with an explicit DMA combination rule.
    pub fn cycles_with(&self, profile: &OpProfile, overlap: DmaOverlap) -> Cycles {
        let compute = self.compute_cycles(profile);
        let dma = self.dma_cycles(profile);
        let mbox = Cycles((profile.mailbox_ops as f64 * self.mailbox_cycles).round() as u64);
        let core = match overlap {
            DmaOverlap::Serialized => compute + dma,
            DmaOverlap::Overlapped => {
                // Bound by the longer of the two streams, plus one
                // transfer's startup that cannot be hidden (pipeline fill).
                let fill = Cycles(self.dma_startup_cycles.round() as u64).min(dma);
                compute.max(dma) + fill
            }
        };
        core + mbox
    }
}

impl CostModel for MachineProfile {
    fn cycles(&self, profile: &OpProfile) -> Cycles {
        self.cycles_with(profile, self.dma_overlap)
    }

    fn frequency(&self) -> Frequency {
        self.frequency
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A synthetic "typical integer image kernel" instruction mix used to
    /// verify the calibration anchors.
    fn integer_kernel_mix(scale: u64) -> OpProfile {
        let mut p = OpProfile::new();
        p.record(OpClass::IntAlu, 45 * scale);
        p.record(OpClass::Load, 25 * scale);
        p.record(OpClass::Store, 10 * scale);
        p.record(OpClass::Branch, 13 * scale);
        p.record(OpClass::BranchHard, 2 * scale);
        p.record(OpClass::IntMul, 5 * scale);
        p
    }

    #[test]
    fn ppe_is_about_2_5x_slower_than_laptop() {
        let mix = integer_kernel_mix(1_000_000);
        let t_lap = MachineProfile::laptop().time(&mix);
        let t_ppe = MachineProfile::ppe().time(&mix);
        let slowdown = t_ppe.seconds() / t_lap.seconds();
        assert!(
            (2.0..=3.0).contains(&slowdown),
            "PPE/Laptop slowdown {slowdown:.2} outside the paper's ~2.5 band"
        );
    }

    #[test]
    fn ppe_is_about_3_2x_slower_than_desktop() {
        let mix = integer_kernel_mix(1_000_000);
        let t_desk = MachineProfile::desktop().time(&mix);
        let t_ppe = MachineProfile::ppe().time(&mix);
        let slowdown = t_ppe.seconds() / t_desk.seconds();
        assert!(
            (2.7..=3.7).contains(&slowdown),
            "PPE/Desktop slowdown {slowdown:.2} outside the paper's ~3.2 band"
        );
    }

    #[test]
    fn desktop_beats_laptop_modestly() {
        let mix = integer_kernel_mix(1_000_000);
        let t_lap = MachineProfile::laptop().time(&mix);
        let t_desk = MachineProfile::desktop().time(&mix);
        let speedup = t_lap.seconds() / t_desk.seconds();
        assert!(
            (1.1..=1.5).contains(&speedup),
            "Desktop/Laptop speedup {speedup:.2} outside the expected ~1.28 band"
        );
    }

    #[test]
    fn simd_dual_issue_overlaps_pipelines() {
        let spe = MachineProfile::spe_optimized();
        let mut p = OpProfile::new();
        p.record(OpClass::SimdEven, 1000);
        p.record(OpClass::SimdOdd, 600);
        // Dual issue: max(1000, 600), not 1600.
        assert_eq!(spe.compute_cycles(&p), Cycles(1000));

        let mut no_dual = spe.clone();
        no_dual.dual_issue = false;
        assert_eq!(no_dual.compute_cycles(&p), Cycles(1600));
    }

    #[test]
    fn unoptimized_spe_pays_for_scalar_code() {
        // The same scalar mix: the unoptimized SPE translation must be
        // slower than the PPE when branches are hard — this is the paper's
        // CC 0.43× observation.
        let mut branchy = OpProfile::new();
        branchy.record(OpClass::IntAlu, 300);
        branchy.record(OpClass::Load, 300);
        branchy.record(OpClass::BranchHard, 200);
        let t_ppe = MachineProfile::ppe().time(&branchy);
        let t_spe = MachineProfile::spe_unoptimized().time(&branchy.as_unoptimized_spu());
        assert!(
            t_spe.seconds() > t_ppe.seconds(),
            "unoptimized branchy SPE code should lose to the PPE: spe={t_spe} ppe={t_ppe}"
        );
    }

    #[test]
    fn optimized_spe_crushes_ppe_on_simd_kernels() {
        // 16-way SIMDized byte kernel: 1 even issue where the scalar code
        // did 16 ALU ops, plus some odd-pipeline traffic.
        let scale = 1_000_000u64;
        let mut scalar = OpProfile::new();
        scalar.record(OpClass::IntAlu, 16 * scale);
        scalar.record(OpClass::Load, 4 * scale);
        let mut simd = OpProfile::new();
        simd.record(OpClass::SimdEven, scale);
        simd.record(OpClass::SimdOdd, scale / 2);
        let t_ppe = MachineProfile::ppe().time(&scalar);
        let t_spe = MachineProfile::spe_optimized().time(&simd);
        let speedup = t_ppe.seconds() / t_spe.seconds();
        assert!(
            speedup > 20.0,
            "SIMD kernel speedup {speedup:.1} should be an order of magnitude"
        );
    }

    #[test]
    fn dma_overlap_hides_transfer_time() {
        let spe = MachineProfile::spe_optimized();
        let mut p = OpProfile::new();
        p.record(OpClass::SimdEven, 100_000);
        p.record_dma_in(64 * 1024);
        let serial = spe.cycles_with(&p, DmaOverlap::Serialized);
        let overlapped = spe.cycles_with(&p, DmaOverlap::Overlapped);
        assert!(overlapped < serial);
        // Compute-bound here, so overlapped ≈ compute + fill.
        assert!(overlapped.get() <= 100_000 + 250);
    }

    #[test]
    fn dma_cycles_scale_with_bytes_and_transfers() {
        let spe = MachineProfile::spe_optimized();
        let mut a = OpProfile::new();
        a.record_dma_in(8 * 1024);
        let mut b = OpProfile::new();
        b.record_dma_in(8 * 1024);
        b.record_dma_in(8 * 1024);
        assert!(spe.dma_cycles(&b) > spe.dma_cycles(&a));
        // 8 KiB at 8 B/cycle = 1024 cycles + 200 startup.
        assert_eq!(spe.dma_cycles(&a), Cycles(1224));
    }

    #[test]
    fn mailbox_ops_cost_on_spe() {
        let spe = MachineProfile::spe_optimized();
        let mut p = OpProfile::new();
        p.mailbox_ops = 4;
        assert_eq!(spe.cycles(&p), Cycles(400));
    }

    #[test]
    fn machine_kind_names() {
        assert_eq!(MachineKind::Laptop.name(), "Laptop");
        assert_eq!(MachineKind::Spe.name(), "SPE");
    }
}

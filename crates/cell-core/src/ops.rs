//! Operation profiles — the vocabulary kernels use to describe their work.
//!
//! Kernels in this workspace execute *functionally* (they really compute
//! histograms, correlograms, SVM scores, …) while recording how much work of
//! each class they performed. A cost model (see [`crate::machine`]) then
//! converts the profile into cycles for a particular machine. This mirrors
//! how the paper reasons about performance: the same algorithm, costed on a
//! Pentium M, a Pentium D, the PPE, and an SPE before/after optimization.

use std::fmt;
use std::ops::{Add, AddAssign};

/// Classes of dynamically executed operations.
///
/// The split follows what actually differentiates the five machines in the
/// paper: scalar ALU vs multiply vs divide throughput, memory operations,
/// branches (and their data-dependent misses), 128-bit SIMD issues on the
/// SPU's even (arithmetic) and odd (load/store/shuffle/branch) pipelines,
/// and the "scalar-in-vector" penalty an SPU pays for un-SIMDized code.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum OpClass {
    /// Scalar integer add/sub/logic/compare/shift.
    IntAlu = 0,
    /// Scalar integer multiply.
    IntMul = 1,
    /// Scalar integer divide / modulo.
    IntDiv = 2,
    /// Scalar float add/sub/compare.
    FpAdd = 3,
    /// Scalar float multiply (and fused multiply-add counted once).
    FpMul = 4,
    /// Scalar float divide.
    FpDiv = 5,
    /// Scalar float sqrt / transcendental approximation step.
    FpSqrt = 6,
    /// Scalar load.
    Load = 7,
    /// Scalar store.
    Store = 8,
    /// Conditional branch (predicted well).
    Branch = 9,
    /// Conditional branch that is data-dependent and hard to predict; cost
    /// models charge their miss penalty on a fraction of these.
    BranchHard = 10,
    /// 128-bit SIMD issue on the SPU even (arithmetic) pipeline.
    SimdEven = 11,
    /// 128-bit SIMD issue on the SPU odd (load/store/shuffle) pipeline.
    SimdOdd = 12,
    /// A scalar operation executed on the SPU without SIMDization: the SPU
    /// has no scalar unit, so each such access costs rotate+extract/insert
    /// overhead on top of the operation itself.
    ScalarInVector = 13,
}

/// Number of [`OpClass`] variants (length of the count vector).
pub const OP_CLASSES: usize = 14;

impl OpClass {
    /// All variants in index order.
    pub const ALL: [OpClass; OP_CLASSES] = [
        OpClass::IntAlu,
        OpClass::IntMul,
        OpClass::IntDiv,
        OpClass::FpAdd,
        OpClass::FpMul,
        OpClass::FpDiv,
        OpClass::FpSqrt,
        OpClass::Load,
        OpClass::Store,
        OpClass::Branch,
        OpClass::BranchHard,
        OpClass::SimdEven,
        OpClass::SimdOdd,
        OpClass::ScalarInVector,
    ];

    /// Short stable name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            OpClass::IntAlu => "int_alu",
            OpClass::IntMul => "int_mul",
            OpClass::IntDiv => "int_div",
            OpClass::FpAdd => "fp_add",
            OpClass::FpMul => "fp_mul",
            OpClass::FpDiv => "fp_div",
            OpClass::FpSqrt => "fp_sqrt",
            OpClass::Load => "load",
            OpClass::Store => "store",
            OpClass::Branch => "branch",
            OpClass::BranchHard => "branch_hard",
            OpClass::SimdEven => "simd_even",
            OpClass::SimdOdd => "simd_odd",
            OpClass::ScalarInVector => "scalar_in_vector",
        }
    }
}

impl fmt::Display for OpClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A dynamic operation-count profile, plus the DMA traffic the work caused.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct OpProfile {
    counts: [u64; OP_CLASSES],
    /// Bytes moved main-memory → local store.
    pub dma_bytes_in: u64,
    /// Bytes moved local store → main memory.
    pub dma_bytes_out: u64,
    /// Number of discrete DMA transfers issued (each pays a startup cost).
    pub dma_transfers: u64,
    /// Mailbox words written or read (each pays a channel-access cost).
    pub mailbox_ops: u64,
}

impl OpProfile {
    pub fn new() -> Self {
        Self::default()
    }

    /// Record `n` operations of class `class`.
    #[inline]
    pub fn record(&mut self, class: OpClass, n: u64) {
        self.counts[class as usize] = self.counts[class as usize].saturating_add(n);
    }

    /// Count for one class.
    #[inline]
    pub fn count(&self, class: OpClass) -> u64 {
        self.counts[class as usize]
    }

    /// Total operations across all classes (DMA/mailbox excluded).
    pub fn total_ops(&self) -> u64 {
        self.counts.iter().copied().fold(0u64, u64::saturating_add)
    }

    /// Record one DMA transfer into the local store.
    pub fn record_dma_in(&mut self, bytes: u64) {
        self.dma_bytes_in = self.dma_bytes_in.saturating_add(bytes);
        self.dma_transfers += 1;
    }

    /// Record one DMA transfer out of the local store.
    pub fn record_dma_out(&mut self, bytes: u64) {
        self.dma_bytes_out = self.dma_bytes_out.saturating_add(bytes);
        self.dma_transfers += 1;
    }

    /// Merge another profile into this one.
    pub fn merge(&mut self, other: &OpProfile) {
        for i in 0..OP_CLASSES {
            self.counts[i] = self.counts[i].saturating_add(other.counts[i]);
        }
        self.dma_bytes_in = self.dma_bytes_in.saturating_add(other.dma_bytes_in);
        self.dma_bytes_out = self.dma_bytes_out.saturating_add(other.dma_bytes_out);
        self.dma_transfers = self.dma_transfers.saturating_add(other.dma_transfers);
        self.mailbox_ops = self.mailbox_ops.saturating_add(other.mailbox_ops);
    }

    /// A profile with every count multiplied by `n` — used to extrapolate a
    /// per-image profile to an image-set workload.
    pub fn repeated(&self, n: u64) -> OpProfile {
        let mut out = self.clone();
        for c in &mut out.counts {
            *c = c.saturating_mul(n);
        }
        out.dma_bytes_in = out.dma_bytes_in.saturating_mul(n);
        out.dma_bytes_out = out.dma_bytes_out.saturating_mul(n);
        out.dma_transfers = out.dma_transfers.saturating_mul(n);
        out.mailbox_ops = out.mailbox_ops.saturating_mul(n);
        out
    }

    /// Whether the profile records no work at all.
    pub fn is_empty(&self) -> bool {
        self.total_ops() == 0
            && self.dma_bytes_in == 0
            && self.dma_bytes_out == 0
            && self.mailbox_ops == 0
    }

    /// Translate a *scalar* profile into the profile the same code exhibits
    /// when compiled unchanged for the SPU (the paper's "before SPE-specific
    /// optimizations" state, §5.3): every scalar op becomes a
    /// scalar-in-vector op, and well-predicted branches become hard ones
    /// because the SPU has no branch predictor — only software hints, which
    /// unported code lacks.
    pub fn as_unoptimized_spu(&self) -> OpProfile {
        let mut out = OpProfile::new();
        let scalar_classes = [
            OpClass::IntAlu,
            OpClass::IntMul,
            OpClass::IntDiv,
            OpClass::FpAdd,
            OpClass::FpMul,
            OpClass::FpDiv,
            OpClass::FpSqrt,
            OpClass::Load,
            OpClass::Store,
        ];
        for class in scalar_classes {
            out.record(OpClass::ScalarInVector, self.count(class));
        }
        out.record(
            OpClass::BranchHard,
            self.count(OpClass::Branch) + self.count(OpClass::BranchHard),
        );
        out.record(OpClass::SimdEven, self.count(OpClass::SimdEven));
        out.record(OpClass::SimdOdd, self.count(OpClass::SimdOdd));
        out.dma_bytes_in = self.dma_bytes_in;
        out.dma_bytes_out = self.dma_bytes_out;
        out.dma_transfers = self.dma_transfers;
        out.mailbox_ops = self.mailbox_ops;
        out
    }
}

impl Add for OpProfile {
    type Output = OpProfile;
    fn add(mut self, rhs: OpProfile) -> OpProfile {
        self.merge(&rhs);
        self
    }
}

impl AddAssign<&OpProfile> for OpProfile {
    fn add_assign(&mut self, rhs: &OpProfile) {
        self.merge(rhs);
    }
}

impl fmt::Display for OpProfile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "OpProfile{{")?;
        let mut first = true;
        for class in OpClass::ALL {
            let c = self.count(class);
            if c > 0 {
                if !first {
                    write!(f, ", ")?;
                }
                write!(f, "{}: {}", class.name(), c)?;
                first = false;
            }
        }
        if self.dma_transfers > 0 {
            if !first {
                write!(f, ", ")?;
            }
            write!(
                f,
                "dma: {} xfers, {}B in, {}B out",
                self.dma_transfers, self.dma_bytes_in, self.dma_bytes_out
            )?;
            first = false;
        }
        if self.mailbox_ops > 0 {
            if !first {
                write!(f, ", ")?;
            }
            write!(f, "mbox: {}", self.mailbox_ops)?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_count() {
        let mut p = OpProfile::new();
        p.record(OpClass::IntAlu, 100);
        p.record(OpClass::IntAlu, 50);
        p.record(OpClass::Load, 7);
        assert_eq!(p.count(OpClass::IntAlu), 150);
        assert_eq!(p.count(OpClass::Load), 7);
        assert_eq!(p.count(OpClass::Store), 0);
        assert_eq!(p.total_ops(), 157);
    }

    #[test]
    fn merge_adds_everything() {
        let mut a = OpProfile::new();
        a.record(OpClass::FpMul, 10);
        a.record_dma_in(1024);
        let mut b = OpProfile::new();
        b.record(OpClass::FpMul, 5);
        b.record(OpClass::Branch, 3);
        b.record_dma_out(512);
        b.mailbox_ops = 2;
        a.merge(&b);
        assert_eq!(a.count(OpClass::FpMul), 15);
        assert_eq!(a.count(OpClass::Branch), 3);
        assert_eq!(a.dma_bytes_in, 1024);
        assert_eq!(a.dma_bytes_out, 512);
        assert_eq!(a.dma_transfers, 2);
        assert_eq!(a.mailbox_ops, 2);
    }

    #[test]
    fn repeated_scales_all_fields() {
        let mut p = OpProfile::new();
        p.record(OpClass::SimdEven, 4);
        p.record_dma_in(100);
        p.mailbox_ops = 1;
        let r = p.repeated(50);
        assert_eq!(r.count(OpClass::SimdEven), 200);
        assert_eq!(r.dma_bytes_in, 5000);
        assert_eq!(r.dma_transfers, 50);
        assert_eq!(r.mailbox_ops, 50);
    }

    #[test]
    fn unoptimized_spu_translation() {
        let mut p = OpProfile::new();
        p.record(OpClass::IntAlu, 100);
        p.record(OpClass::Load, 40);
        p.record(OpClass::Branch, 10);
        p.record(OpClass::BranchHard, 5);
        p.record_dma_in(256);
        let u = p.as_unoptimized_spu();
        assert_eq!(u.count(OpClass::ScalarInVector), 140);
        assert_eq!(u.count(OpClass::BranchHard), 15);
        assert_eq!(u.count(OpClass::Branch), 0);
        assert_eq!(u.count(OpClass::IntAlu), 0);
        assert_eq!(u.dma_bytes_in, 256);
    }

    #[test]
    fn is_empty_detects_work() {
        let mut p = OpProfile::new();
        assert!(p.is_empty());
        p.mailbox_ops = 1;
        assert!(!p.is_empty());
    }

    #[test]
    fn display_mentions_nonzero_classes_only() {
        let mut p = OpProfile::new();
        p.record(OpClass::FpDiv, 3);
        let s = p.to_string();
        assert!(s.contains("fp_div: 3"));
        assert!(!s.contains("int_alu"));
    }

    #[test]
    fn all_classes_have_distinct_indices() {
        let mut seen = [false; OP_CLASSES];
        for c in OpClass::ALL {
            assert!(!seen[c as usize], "duplicate index for {c}");
            seen[c as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }
}

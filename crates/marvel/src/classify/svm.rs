//! SVM scoring — the ConceptDet kernel's math.
//!
//! A model is a set of weighted support vectors; the decision value of a
//! feature `x` is `Σᵢ αᵢ·K(svᵢ, x) + b` with an RBF or linear kernel.
//! Besides the plain scorer, this module provides:
//!
//! * the **byte layout** an SPE kernel streams over DMA (header + 16-byte
//!   aligned per-vector records);
//! * a **SIMD scorer** charged to the `cell-spu` ISA (4-lane FMA chains +
//!   the exp sequence), numerically equal to the scalar one to
//!   float-accumulation tolerance;
//! * **synthetic model generation** standing in for MARVEL's precomputed
//!   concept models (seeded, deterministic).

use cell_core::{align_up, CellError, CellResult, OpClass, OpProfile, SplitMix64};
use cell_spu::Spu;

/// Kernel function of a model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SvmKernel {
    Linear,
    Rbf { gamma: f32 },
}

/// One concept's SVM model.
#[derive(Debug, Clone, PartialEq)]
pub struct SvmModel {
    pub name: String,
    pub dim: usize,
    pub kernel: SvmKernel,
    /// `n × dim`, flattened row-major.
    support_vectors: Vec<f32>,
    alphas: Vec<f32>,
    pub bias: f32,
}

impl SvmModel {
    pub fn new(
        name: impl Into<String>,
        dim: usize,
        kernel: SvmKernel,
        support_vectors: Vec<f32>,
        alphas: Vec<f32>,
        bias: f32,
    ) -> CellResult<Self> {
        if dim == 0 || alphas.is_empty() || support_vectors.len() != alphas.len() * dim {
            return Err(CellError::BadData {
                message: format!(
                    "inconsistent SVM model: dim {dim}, {} svs floats, {} alphas",
                    support_vectors.len(),
                    alphas.len()
                ),
            });
        }
        Ok(SvmModel {
            name: name.into(),
            dim,
            kernel,
            support_vectors,
            alphas,
            bias,
        })
    }

    pub fn num_vectors(&self) -> usize {
        self.alphas.len()
    }

    pub fn support_vector(&self, i: usize) -> &[f32] {
        &self.support_vectors[i * self.dim..(i + 1) * self.dim]
    }

    pub fn alpha(&self, i: usize) -> f32 {
        self.alphas[i]
    }

    /// Decision value for feature `x`.
    pub fn score(&self, x: &[f32]) -> CellResult<f32> {
        if x.len() != self.dim {
            return Err(CellError::BadData {
                message: format!("feature dim {} != model dim {}", x.len(), self.dim),
            });
        }
        let mut total = self.bias;
        for i in 0..self.num_vectors() {
            total += self.alphas[i] * self.kernel_value(self.support_vector(i), x);
        }
        Ok(total)
    }

    fn kernel_value(&self, sv: &[f32], x: &[f32]) -> f32 {
        match self.kernel {
            SvmKernel::Linear => sv.iter().zip(x).map(|(a, b)| a * b).sum(),
            SvmKernel::Rbf { gamma } => {
                let d2: f32 = sv.iter().zip(x).map(|(a, b)| (a - b) * (a - b)).sum();
                (-gamma * d2).exp()
            }
        }
    }

    /// Decision: positive class?
    pub fn classify(&self, x: &[f32]) -> CellResult<bool> {
        Ok(self.score(x)? > 0.0)
    }

    /// Score with the scalar reference cost profile (what the C++ code
    /// pays per model on the PPE/reference machines).
    pub fn score_counted(&self, x: &[f32], prof: &mut OpProfile) -> CellResult<f32> {
        let per_sv = self.dim as u64;
        let n = self.num_vectors() as u64;
        prof.record(OpClass::Load, n * per_sv * 2);
        match self.kernel {
            SvmKernel::Linear => {
                prof.record(OpClass::FpMul, n * per_sv);
                prof.record(OpClass::FpAdd, n * per_sv);
            }
            SvmKernel::Rbf { .. } => {
                prof.record(OpClass::FpAdd, n * per_sv * 2); // sub + accumulate
                prof.record(OpClass::FpMul, n * per_sv); // square
                                                         // expf ≈ 10 fp ops each.
                prof.record(OpClass::FpMul, n * 5);
                prof.record(OpClass::FpAdd, n * 5);
            }
        }
        prof.record(OpClass::FpMul, n); // alpha weighting
        prof.record(OpClass::FpAdd, n);
        prof.record(OpClass::Branch, n);
        self.score(x)
    }

    // ---- wire format -----------------------------------------------------

    /// Header: n u32, dim u32, kernel u32 (0 linear / 1 rbf), gamma f32,
    /// bias f32 — padded to 32 bytes. Then `n` records of
    /// `align16(4 + dim*4)` bytes: alpha then the vector.
    pub const HEADER_BYTES: usize = 32;

    /// Bytes of one support-vector record on the wire.
    pub fn record_bytes(dim: usize) -> usize {
        align_up(4 + dim * 4, 16)
    }

    /// Total wire size.
    pub fn wire_bytes(&self) -> usize {
        Self::HEADER_BYTES + self.num_vectors() * Self::record_bytes(self.dim)
    }

    /// Serialize for main memory (what the PPE writes at model-load time).
    pub fn to_wire(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.wire_bytes());
        out.extend_from_slice(&(self.num_vectors() as u32).to_le_bytes());
        out.extend_from_slice(&(self.dim as u32).to_le_bytes());
        let (code, gamma) = match self.kernel {
            SvmKernel::Linear => (0u32, 0.0f32),
            SvmKernel::Rbf { gamma } => (1u32, gamma),
        };
        out.extend_from_slice(&code.to_le_bytes());
        out.extend_from_slice(&gamma.to_le_bytes());
        out.extend_from_slice(&self.bias.to_le_bytes());
        out.resize(Self::HEADER_BYTES, 0);
        let rec = Self::record_bytes(self.dim);
        for i in 0..self.num_vectors() {
            let start = out.len();
            out.extend_from_slice(&self.alphas[i].to_le_bytes());
            for v in self.support_vector(i) {
                out.extend_from_slice(&v.to_le_bytes());
            }
            out.resize(start + rec, 0);
        }
        out
    }

    /// Deserialize (tests and the PPE-side loader use this; the SPE kernel
    /// parses records incrementally instead).
    pub fn from_wire(name: impl Into<String>, bytes: &[u8]) -> CellResult<Self> {
        if bytes.len() < Self::HEADER_BYTES {
            return Err(CellError::BadData {
                message: "truncated SVM header".to_string(),
            });
        }
        let rd_u32 = |o: usize| u32::from_le_bytes(bytes[o..o + 4].try_into().unwrap());
        let rd_f32 = |o: usize| f32::from_le_bytes(bytes[o..o + 4].try_into().unwrap());
        let n = rd_u32(0) as usize;
        let dim = rd_u32(4) as usize;
        let kernel = match rd_u32(8) {
            0 => SvmKernel::Linear,
            1 => SvmKernel::Rbf { gamma: rd_f32(12) },
            k => {
                return Err(CellError::BadData {
                    message: format!("unknown kernel code {k}"),
                })
            }
        };
        let bias = rd_f32(16);
        let rec = Self::record_bytes(dim);
        if bytes.len() < Self::HEADER_BYTES + n * rec {
            return Err(CellError::BadData {
                message: "truncated SVM records".to_string(),
            });
        }
        let mut alphas = Vec::with_capacity(n);
        let mut svs = Vec::with_capacity(n * dim);
        for i in 0..n {
            let base = Self::HEADER_BYTES + i * rec;
            alphas.push(rd_f32(base));
            for d in 0..dim {
                svs.push(rd_f32(base + 4 + d * 4));
            }
        }
        Self::new(name, dim, kernel, svs, alphas, bias)
    }

    /// A synthetic "precomputed" concept model: seeded support vectors
    /// shaped like the feature distribution (non-negative, histogram-ish)
    /// with alternating-sign alphas.
    pub fn synthetic(name: impl Into<String>, dim: usize, n: usize, seed: u64) -> Self {
        let mut rng = SplitMix64::new(seed ^ 0x53564D); // "SVM"
        let mut svs = Vec::with_capacity(n * dim);
        let mut alphas = Vec::with_capacity(n);
        for i in 0..n {
            for _ in 0..dim {
                svs.push(rng.next_f64() as f32 * 0.2);
            }
            let sign = if i % 2 == 0 { 1.0 } else { -1.0 };
            alphas.push(sign * (0.1 + rng.next_f64() as f32 * 0.9));
        }
        let gamma = 1.0 / dim as f32 * 8.0;
        SvmModel::new(
            name,
            dim,
            SvmKernel::Rbf { gamma },
            svs,
            alphas,
            rng.next_f64() as f32 * 0.2 - 0.1,
        )
        .expect("synthetic model is consistent")
    }
}

/// SIMD scoring of one support-vector *record* (wire format) against a
/// feature resident in LS — the inner loop of the SPE ConceptDet kernel.
/// Returns the record's contribution `alpha * K(sv, x)`.
///
/// The sum runs in four f32 lanes (`lane += a·b` fused, RBF `a = b =
/// sv − x`) reduced as `(l0 + l2) + (l1 + l3)`, then the ragged tail
/// scalar — the exact association of the SPU code, which pays per four
/// dimensions the vector load, the x reload and one FMA (RBF: a subtract
/// too), a horizontal sum (2 odd + 2 even), the scalar alpha fetch and
/// three scalar ops per tail dimension.
pub fn score_record_simd(spu: &mut Spu, kernel: SvmKernel, x: &[f32], record: &[u8]) -> f32 {
    let f32_at = |at: usize| f32::from_le_bytes(record[at..at + 4].try_into().unwrap());
    let alpha = f32_at(0);
    let term = |i: usize| {
        let sv = f32_at(4 + i * 4);
        match kernel {
            SvmKernel::Linear => (sv, x[i]),
            SvmKernel::Rbf { .. } => (sv - x[i], sv - x[i]),
        }
    };
    let full = x.len() / 4 * 4;
    let mut lanes = [0.0f32; 4];
    for i in (0..full).step_by(4) {
        for (l, lane) in lanes.iter_mut().enumerate() {
            let (a, b) = term(i + l);
            *lane = a.mul_add(b, *lane);
        }
    }
    let mut partial = (lanes[0] + lanes[2]) + (lanes[1] + lanes[3]);
    for i in full..x.len() {
        let (a, b) = term(i);
        partial += a * b;
    }
    let blocks = (full / 4) as u64;
    let fma_issues = match kernel {
        SvmKernel::Linear => 1,
        SvmKernel::Rbf { .. } => 2,
    };
    spu.charge_odd(2 * blocks + 2);
    spu.charge_even(fma_issues * blocks + 2);
    spu.scalar_op(1 + 3 * (x.len() - full) as u64);
    match kernel {
        SvmKernel::Linear => alpha * partial,
        SvmKernel::Rbf { gamma } => {
            let e = spu.exp_scalar_f32(-gamma * partial);
            spu.scalar_op(2);
            alpha * e
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> SvmModel {
        SvmModel::synthetic("test-concept", 166, 20, 7)
    }

    fn feature(seed: u64) -> Vec<f32> {
        let mut rng = SplitMix64::new(seed);
        (0..166).map(|_| rng.next_f64() as f32 * 0.2).collect()
    }

    #[test]
    fn model_validation() {
        assert!(SvmModel::new("x", 0, SvmKernel::Linear, vec![], vec![], 0.0).is_err());
        assert!(
            SvmModel::new("x", 3, SvmKernel::Linear, vec![1.0; 5], vec![1.0, 2.0], 0.0).is_err()
        );
        assert!(
            SvmModel::new("x", 3, SvmKernel::Linear, vec![1.0; 6], vec![1.0, 2.0], 0.0).is_ok()
        );
    }

    #[test]
    fn linear_score_is_dot_product() {
        let m = SvmModel::new(
            "lin",
            3,
            SvmKernel::Linear,
            vec![1.0, 0.0, 2.0],
            vec![2.0],
            0.5,
        )
        .unwrap();
        let s = m.score(&[1.0, 5.0, 0.25]).unwrap();
        assert!((s - (2.0 * (1.0 + 0.5) + 0.5)).abs() < 1e-6);
    }

    #[test]
    fn rbf_kernel_peaks_at_the_support_vector() {
        let m = SvmModel::new(
            "rbf",
            2,
            SvmKernel::Rbf { gamma: 1.0 },
            vec![0.5, 0.5],
            vec![1.0],
            0.0,
        )
        .unwrap();
        let at_sv = m.score(&[0.5, 0.5]).unwrap();
        let nearby = m.score(&[0.6, 0.5]).unwrap();
        let far = m.score(&[5.0, 5.0]).unwrap();
        assert!((at_sv - 1.0).abs() < 1e-6);
        assert!(nearby < at_sv && nearby > far);
        assert!(far < 1e-6);
    }

    #[test]
    fn dim_mismatch_rejected() {
        assert!(model().score(&[0.0; 10]).is_err());
    }

    #[test]
    fn wire_roundtrip() {
        let m = model();
        let bytes = m.to_wire();
        assert_eq!(bytes.len(), m.wire_bytes());
        assert_eq!(bytes.len() % 16, 0, "wire blocks must stay DMA-aligned");
        let back = SvmModel::from_wire("test-concept", &bytes).unwrap();
        assert_eq!(m, back);
    }

    #[test]
    fn wire_rejects_truncation_and_bad_kernel() {
        let m = model();
        let bytes = m.to_wire();
        assert!(SvmModel::from_wire("t", &bytes[..16]).is_err());
        assert!(SvmModel::from_wire("t", &bytes[..bytes.len() - 8]).is_err());
        let mut bad = bytes.clone();
        bad[8] = 9;
        assert!(SvmModel::from_wire("t", &bad).is_err());
    }

    #[test]
    fn synthetic_models_are_deterministic() {
        let a = SvmModel::synthetic("c", 80, 210, 3);
        let b = SvmModel::synthetic("c", 80, 210, 3);
        let c = SvmModel::synthetic("c", 80, 210, 4);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.num_vectors(), 210);
        assert_eq!(a.dim, 80);
    }

    #[test]
    fn counted_matches_plain() {
        let m = model();
        let x = feature(1);
        let mut prof = OpProfile::new();
        let a = m.score(&x).unwrap();
        let b = m.score_counted(&x, &mut prof).unwrap();
        assert_eq!(a, b);
        assert!(prof.count(OpClass::FpMul) > 0);
        // ~dim × n multiply-adds.
        assert!(prof.total_ops() as usize > m.dim * m.num_vectors());
    }

    #[test]
    fn simd_record_scoring_matches_scalar() {
        let m = model();
        let x = feature(2);
        let wire = m.to_wire();
        let rec = SvmModel::record_bytes(m.dim);
        let mut spu = Spu::new();
        let mut total = m.bias;
        for i in 0..m.num_vectors() {
            let base = SvmModel::HEADER_BYTES + i * rec;
            total += score_record_simd(&mut spu, m.kernel, &x, &wire[base..base + rec]);
        }
        let scalar = m.score(&x).unwrap();
        assert!(
            (total - scalar).abs() < 1e-3 * scalar.abs().max(1.0),
            "SIMD {total} vs scalar {scalar}"
        );
        let c = spu.counters();
        assert!(c.even > 0 && c.odd > 0);
    }

    #[test]
    fn simd_issue_rate_is_about_quarter_dim() {
        let m = model();
        let x = feature(3);
        let wire = m.to_wire();
        let rec = SvmModel::record_bytes(m.dim);
        let mut spu = Spu::new();
        for i in 0..m.num_vectors() {
            let base = SvmModel::HEADER_BYTES + i * rec;
            let _ = score_record_simd(&mut spu, m.kernel, &x, &wire[base..base + rec]);
        }
        let per_macc = spu.counters().even as f64 / (m.num_vectors() * m.dim) as f64;
        // 4-lane FMA: ~0.5 even issues per scalar multiply-add.
        assert!(per_macc < 1.0, "{per_macc:.2} even issues per multiply-add");
    }

    #[test]
    fn odd_dimension_tail() {
        // dim = 10: two vector blocks + 2 scalar tail elements.
        let m = SvmModel::synthetic("odd", 10, 5, 9);
        let x: Vec<f32> = (0..10).map(|i| i as f32 * 0.01).collect();
        let wire = m.to_wire();
        let rec = SvmModel::record_bytes(10);
        let mut spu = Spu::new();
        let mut total = m.bias;
        for i in 0..5 {
            let base = SvmModel::HEADER_BYTES + i * rec;
            total += score_record_simd(&mut spu, m.kernel, &x, &wire[base..base + rec]);
        }
        let scalar = m.score(&x).unwrap();
        assert!((total - scalar).abs() < 1e-4, "{total} vs {scalar}");
        assert!(spu.counters().scalar > 0);
    }
}

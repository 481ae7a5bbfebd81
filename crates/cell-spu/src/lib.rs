//! SPU execution model: functional 128-bit SIMD with pipeline accounting.
//!
//! All SPU instructions are 128-bit SIMD instructions over a 128-entry
//! register file (paper §2); single-precision operations issue at 8/16/32
//! lanes per cycle for 32/16/8-bit data across the dual pipelines, while
//! double precision crawls at two operations every seven cycles.
//!
//! This crate gives ported kernels exactly that vocabulary:
//!
//! * [`V128`] — a 128-bit value with typed lane views (u8×16, i16×8,
//!   u32×4, f32×4, f64×2), pure data with no costs attached;
//! * [`Spu`] — the execution context. Every SIMD method computes the real
//!   result *and* charges the issue to the correct pipeline: arithmetic on
//!   the **even** pipeline; loads, stores, shuffles and branches on the
//!   **odd** pipeline (the real SPU's split). Un-SIMDized scalar accesses
//!   go through [`Spu::scalar_op`] and friends, charging the
//!   scalar-in-vector penalty the paper's unoptimized kernels suffer;
//!   [`Spu::charge_even`] and [`Spu::charge_odd`] charge issues without
//!   computing anything;
//! * [`counters::SpuCounters`] — the tally, convertible into an
//!   [`OpProfile`](cell_core::OpProfile) for the machine cost models.
//!
//! The emulation is *functional*: a kernel produces bit-identical results
//! to its scalar reference, which the test-suite checks property-style,
//! while its issue counts drive the Table-1 speed-up reproduction.
//!
//! **Charging contract.** A kernel may compute its functional result in
//! plain host code and charge the SPU issue sequence that computes it
//! through [`Spu::charge_even`]/[`Spu::charge_odd`] (plus
//! [`Spu::scalar_op`] and [`Spu::branch`] for scalar and loop work)
//! instead of calling the SIMD methods one op at a time. What must not
//! change is each compute slice's tally: the SPE environment turns the
//! counter delta of every `charge_compute` slice into cycles, so a bulk
//! charge has to land in the same slice, with the same per-pipe totals,
//! as the per-op sequence it stands for.

pub mod blocks;
pub mod counters;
pub mod spu;
pub mod v128;

pub use counters::SpuCounters;
pub use spu::Spu;
pub use v128::{shufb, V128};

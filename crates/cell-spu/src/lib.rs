//! SPU execution model: the per-pipeline issue tally kernels charge.
//!
//! All SPU instructions are 128-bit SIMD instructions over a 128-entry
//! register file (paper §2); single-precision operations issue at 8/16/32
//! lanes per cycle for 32/16/8-bit data across the dual pipelines.
//!
//! This crate gives ported kernels:
//!
//! * [`V128`] — a 128-bit value with u32×4 and f32×4 lane views, pure
//!   data with no costs attached, and [`shufb`], the SPU byte shuffle
//!   the `cell-isa` interpreter executes;
//! * [`Spu`] — the execution context, which tallies issues the way the
//!   real SPU splits them: arithmetic on the **even** pipeline, loads and
//!   stores on the **odd** pipeline, branches, and the scalar-in-vector
//!   penalty the paper's unoptimized kernels suffer ([`Spu::scalar_op`]
//!   and friends). [`Spu::charge_even`] and [`Spu::charge_odd`] charge
//!   issues without computing anything; the few quadword methods
//!   ([`Spu::load`], [`Spu::add_f32`], …) compute one op and charge it;
//! * [`counters::SpuCounters`] — the tally, convertible into an
//!   [`OpProfile`](cell_core::OpProfile) for the machine cost models.
//!
//! Kernels produce bit-identical results to their scalar references,
//! which the test-suite checks property-style, while their issue counts
//! drive the Table-1 speed-up reproduction.
//!
//! **Charging contract.** A kernel may compute its functional result in
//! plain host code and charge the SPU issue sequence that computes it
//! through [`Spu::charge_even`]/[`Spu::charge_odd`] (plus
//! [`Spu::scalar_op`] and [`Spu::branch`] for scalar and loop work)
//! instead of issuing it one op at a time. What must not change is each
//! compute slice's tally: the SPE environment turns the counter delta of
//! every `charge_compute` slice into cycles, so a bulk charge has to land
//! in the same slice, with the same per-pipe totals, as the per-op
//! sequence it stands for.

pub mod counters;
pub mod spu;
pub mod v128;

pub use counters::SpuCounters;
pub use spu::Spu;
pub use v128::{shufb, V128};

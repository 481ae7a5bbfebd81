//! A MARVEL-like multimedia content analysis engine.
//!
//! The paper's case study is MARVEL, IBM Research's multimedia analysis
//! and retrieval system: images are decoded, four visual features are
//! extracted, and precomputed SVM models classify each image against
//! semantic concepts. MARVEL itself is closed source; this crate
//! implements the same pipeline from scratch, with every kernel in the
//! three forms the porting strategy needs:
//!
//! * a **reference** scalar implementation with operation counting (what
//!   runs on the Laptop/Desktop/PPE cost models);
//! * a **sliced** form that computes on row bands with the halos the DMA
//!   slicing of paper §3.4 requires (convolution borders and all);
//! * a **SIMD** form charged to the `cell-spu` vector ISA (what runs on
//!   the simulated SPEs): it computes in host code and charges the SPU
//!   issue sequence of the hand-SIMDized kernel (the charging contract
//!   in `cell-spu`'s crate docs).
//!
//! Modules:
//!
//! * [`image`] — RGB/gray images, deterministic synthetic scenes, PPM I/O;
//! * [`codec`] — a DCT block codec for the "reading and decompressing"
//!   preprocessing step;
//! * [`color`] — RGB→HSV and the 166-bin HSV quantization MARVEL's color
//!   features use;
//! * [`features`] — the four extractors: color histogram (CH), color
//!   auto-correlogram (CC), wavelet texture (TX), edge histogram (EH);
//! * [`classify`] — RBF-SVM scoring (+ a kNN baseline and a small
//!   trainer) for concept detection (CD);
//! * [`wire`] — the wrapper layouts both sides of the DMA boundary share;
//! * [`kernels`] — the five SPE kernel programs and their PPE stubs;
//! * [`app`] — the assembled pipeline: reference run, PPE run, and the
//!   one offloaded Cell driver, which walks the paper's three scheduling
//!   scenarios and, in its failover layout, survives SPE failures with
//!   universal dispatchers, retry/timeout and failover re-planning.

pub mod app;
pub mod classify;
pub mod codec;
pub mod color;
pub mod features;
pub mod image;
pub mod kernels;
pub mod retrieval;
pub mod wire;

pub use app::{CellMarvel, ImageAnalysis, MarvelModels, ReferenceMarvel, Scenario};
pub use image::{ColorImage, GrayImage};

//! Umbrella crate for the Cell B.E. porting stack.
//!
//! Re-exports the whole workspace so applications can depend on a single
//! crate. See the README for the architecture overview and `DESIGN.md` for
//! the system inventory.
//!
//! * [`cell_core`] — cycles, alignment, op profiles, machine cost models.
//! * [`cell_mem`] — main memory and local store.
//! * [`cell_eib`] — interconnect bandwidth/contention model.
//! * [`cell_mfc`] — DMA engine: commands, tags, lists, multibuffering.
//! * [`cell_spu`] — SPU issue accounting per pipeline; the 128-bit register value.
//! * [`cell_sys`] — the machine: PPE, SPE threads, mailboxes, signals.
//! * [`cell_isa`] — SPU instruction-set backend: decoder, assembler, interpreter.
//! * [`cell_trace`] — event bus, counters, Chrome-trace + metrics export.
//! * [`portkit`] — the ICPP'07 porting strategy (the paper's contribution).
//! * [`marvel`] — the MARVEL-like multimedia analysis case study.

pub use cell_core;
pub use cell_eib;
pub use cell_isa;
pub use cell_mem;
pub use cell_mfc;
pub use cell_spu;
pub use cell_stencil;
pub use cell_sys;
pub use cell_trace;
pub use marvel;
pub use portkit;

/// Convenience prelude: the types most applications touch.
pub mod prelude {
    pub use cell_core::{
        CellError, CellResult, CostModel, Cycles, Frequency, MachineConfig, MachineProfile,
        OpClass, OpProfile, VirtualDuration,
    };
    pub use cell_sys::machine::CellMachine;
    pub use cell_trace::{MetricsReport, TraceConfig, TraceReport};
    pub use portkit::amdahl::{estimate_grouped, estimate_sequential, estimate_single};
    pub use portkit::interface::SpeInterface;
}

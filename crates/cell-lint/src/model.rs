//! The port IR: a [`PortModel`] describes everything about a whole port
//! that the paper's checklists (§3.2–§3.5, §4.1) constrain — kernels and
//! their SPE placement, wrapper layouts on both sides of the ABI, DMA
//! slicing plans, opcode tables, dispatch scripts and the static
//! schedule. The rule passes in [`crate::rules`] consume this; the
//! builders in [`crate::builders`] construct it from the shipped
//! applications.

use cell_mem::StructLayout;
use portkit::amdahl::KernelSpec;
use portkit::schedule::Schedule;

/// A whole port, ready for static analysis.
#[derive(Debug, Clone)]
pub struct PortModel {
    /// Port name; becomes the report title and the JSON file stem.
    pub name: String,
    /// SPEs available on the target machine.
    pub num_spes: usize,
    /// Local-store bytes per SPE (code + data).
    pub ls_capacity: usize,
    /// The resident kernels.
    pub kernels: Vec<KernelModel>,
    /// The static schedule, when the port has one.
    pub schedule: Option<Schedule>,
    /// Kernel specs matching the schedule's kernel ids (may be empty).
    pub kernel_specs: Vec<KernelSpec>,
    /// PPE-side dispatch scripts, one per conversation with a dispatcher.
    pub scripts: Vec<DispatchScript>,
    /// The port's declared fault-tolerance machinery, when it has any.
    /// `None` means the port never claimed to survive faults: the model
    /// checker then proves its scripts live in a fault-free world only.
    pub supervision: Option<SupervisionModel>,
}

/// The supervision state machines a port composes with its dispatch
/// protocol — what `portkit::supervise` and the serving layers wire up.
/// The model checker explores crash/hang/drop faults against exactly the
/// recovery moves declared here; declaring machinery the scripts cannot
/// exercise is itself reported (`mc-unreachable-recovery`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SupervisionModel {
    /// Consecutive failures before a slot's circuit breaker trips open.
    pub breaker_threshold: u32,
    /// Cooldown (virtual cycles) before an open breaker half-opens for a
    /// probe. `None` models a breaker that never cools — open forever.
    pub breaker_cooldown: Option<u64>,
    /// A heartbeat watchdog probes slots that go silent, so a *hung*
    /// (not crashed) SPE is eventually detected.
    pub watchdog: bool,
    /// The supervisor can retire → re-upload → probe a dead slot back
    /// into service (`CellMachine::respawn` one level up).
    pub respawn: bool,
    /// Waits carry deadlines: a lost reply resolves as a timeout error
    /// instead of blocking forever.
    pub timeout: bool,
    /// Failed dispatches replay on another lane (engine replan / cluster
    /// failover) rather than failing the request.
    pub failover: bool,
}

impl SupervisionModel {
    /// The full `cell-serve` stack: breaker-gated respawns, heartbeat
    /// watchdog, deadline waits and replan failover.
    pub fn serving(threshold: u32, cooldown: u64) -> Self {
        SupervisionModel {
            breaker_threshold: threshold,
            breaker_cooldown: Some(cooldown),
            watchdog: true,
            respawn: true,
            timeout: true,
            failover: true,
        }
    }

    /// Retry/timeout/failover without respawn — the shape of MARVEL's
    /// failover layout (`CellMarvel::resilient`): a dead SPE is abandoned
    /// and its work replans elsewhere.
    pub fn failover_only() -> Self {
        SupervisionModel {
            breaker_threshold: u32::MAX,
            breaker_cooldown: None,
            watchdog: false,
            respawn: false,
            timeout: true,
            failover: true,
        }
    }
}

/// One SPE-resident kernel (a dispatcher plus what it moves).
#[derive(Debug, Clone)]
pub struct KernelModel {
    pub name: String,
    /// SPE the dispatcher is spawned on.
    pub spe: usize,
    /// The dispatcher's opcode table: `(function name, opcode)`.
    pub opcodes: Vec<(String, u32)>,
    /// The message wrapper, when the kernel takes one.
    pub wrapper: Option<WrapperModel>,
    /// Code bytes resident in the local store.
    pub code_bytes: usize,
    /// Every DMA plan the kernel issues per invocation.
    pub plans: Vec<DmaPlan>,
}

/// A data wrapper as both sides of the ABI see it.
#[derive(Debug, Clone)]
pub struct WrapperModel {
    /// Layout the PPE stub fills in.
    pub ppe_layout: StructLayout,
    /// Layout the SPE kernel reads with; `None` when it is (by
    /// construction) the identical object.
    pub spe_layout: Option<StructLayout>,
    /// Alignment of the wrapper's main-memory base address.
    pub base_align: usize,
}

/// How a kernel moves one logical buffer through the local store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DmaPlan {
    /// One unsliced transfer of `bytes`.
    Single { bytes: usize },
    /// `total` bytes streamed in `chunk`-byte slices through `buffers`
    /// local-store buffers (1 = single-buffered, 2 = double-buffered…).
    Sliced {
        chunk: usize,
        total: usize,
        buffers: usize,
    },
    /// A DMA list of `elements` entries of `element_bytes` each.
    List {
        elements: usize,
        element_bytes: usize,
    },
}

impl DmaPlan {
    /// Peak local-store bytes the plan needs resident at once.
    pub fn ls_bytes(&self) -> usize {
        match *self {
            DmaPlan::Single { bytes } => cell_core::align_up(bytes, cell_core::QUADWORD),
            DmaPlan::Sliced { chunk, buffers, .. } => {
                cell_core::align_up(chunk, cell_core::QUADWORD) * buffers.max(1)
            }
            DmaPlan::List {
                elements,
                element_bytes,
            } => cell_core::align_up(element_bytes, cell_core::QUADWORD) * elements,
        }
    }
}

/// One step of a PPE dispatch conversation (Listing 3's protocol, plus
/// the supervisor's retire/respawn extension).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScriptOp {
    /// Write the opcode word (and the wrapper-address word) to the SPE's
    /// inbound mailbox.
    Send { opcode: u32 },
    /// Write an `SPU_BATCH` frame: the batch header and count, then
    /// `count` packed `(opcode, arg)` member pairs — `2 + 2·count` words
    /// down the inbound mailbox, answered by a single summary reply.
    SendBatch { opcode: u32, count: u8 },
    /// Block on the SPE's outbound mailbox for the reply word.
    WaitReply,
    /// Tear the SPE context down: mailboxes close and any queued words
    /// are discarded. The next `Send` requires an `UploadCode` first.
    Retire,
    /// Recreate the context and re-upload the dispatcher code — the
    /// respawn step that makes the slot dispatchable again.
    UploadCode,
    /// Send `SPU_EXIT`, ending the dispatcher loop.
    Close,
}

/// A PPE-side conversation with one kernel's dispatcher.
#[derive(Debug, Clone)]
pub struct DispatchScript {
    /// Index into [`PortModel::kernels`] of the dispatcher addressed.
    pub kernel: usize,
    /// The declared in-flight window: how many dispatches the driver is
    /// allowed to have outstanding before it must wait for a reply. The
    /// classic blocking stubs declare 1; a pipelined engine lane declares
    /// its configured window.
    pub window: usize,
    pub ops: Vec<ScriptOp>,
}

impl PortModel {
    /// A canonical `send → wait → close` script for kernel `k`'s opcode
    /// `op` — the shape every shipped stub performs.
    pub fn roundtrip_script(kernel: usize, op: u32) -> DispatchScript {
        DispatchScript {
            kernel,
            window: 1,
            ops: vec![
                ScriptOp::Send { opcode: op },
                ScriptOp::WaitReply,
                ScriptOp::Close,
            ],
        }
    }

    /// The pipelined engine conversation with kernel `k`'s dispatcher:
    /// `frames` dispatches pushed through a `window`-deep in-flight lane.
    /// The engine's pump keeps up to `window` requests outstanding —
    /// sends run ahead of replies until the window fills, then each reply
    /// frees a slot for the next send, and the tail drains before the
    /// lane closes. This is the word sequence `cell_engine::Engine`
    /// issues per SPE.
    pub fn engine_script(kernel: usize, op: u32, frames: usize, window: usize) -> DispatchScript {
        let window = window.max(1);
        let mut ops = Vec::new();
        let mut sent = 0usize;
        let mut pending = 0usize;
        while sent < frames || pending > 0 {
            if sent < frames && pending < window {
                ops.push(ScriptOp::Send { opcode: op });
                sent += 1;
                pending += 1;
            } else {
                ops.push(ScriptOp::WaitReply);
                pending -= 1;
            }
        }
        ops.push(ScriptOp::Close);
        DispatchScript {
            kernel,
            window,
            ops,
        }
    }

    /// The batching engine conversation: `batches` `SPU_BATCH` frames of
    /// `count` members each, every frame answered by one summary reply
    /// before the next is sent — `cell_engine`'s batch mode per SPE.
    pub fn batch_script(kernel: usize, op: u32, batches: usize, count: u8) -> DispatchScript {
        let mut ops = Vec::new();
        for _ in 0..batches {
            ops.push(ScriptOp::SendBatch { opcode: op, count });
            ops.push(ScriptOp::WaitReply);
        }
        ops.push(ScriptOp::Close);
        DispatchScript {
            kernel,
            window: 1,
            ops,
        }
    }

    /// The supervisor's recovery conversation with kernel `k`'s slot: a
    /// normal round trip, then the occupant is retired (its failure
    /// already consumed by the round trip's error path), the dispatcher
    /// code re-uploaded, and the fresh context probed before the slot
    /// closes. This is the shape `cell-serve`'s respawn path performs.
    pub fn respawn_script(kernel: usize, op: u32, probe_op: u32) -> DispatchScript {
        DispatchScript {
            kernel,
            window: 1,
            ops: vec![
                ScriptOp::Send { opcode: op },
                ScriptOp::WaitReply,
                ScriptOp::Retire,
                ScriptOp::UploadCode,
                ScriptOp::Send { opcode: probe_op },
                ScriptOp::WaitReply,
                ScriptOp::Close,
            ],
        }
    }
}

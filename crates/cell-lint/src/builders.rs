//! [`PortModel`] builders for the shipped ports.
//!
//! Each builder interrogates a real application object (its dispatcher
//! tables, wrapper constructors and schedule) rather than re-declaring
//! facts by hand, so the model stays truthful as the ports evolve: a
//! renamed field or dropped registration changes the model and the lint
//! verdict with it. DMA plans mirror the arithmetic the kernels use to
//! pick their regimes (e.g. the stencil's resident-vs-banded rule).

use cell_cluster::CellCluster;
use cell_core::config::{MachineConfig, DMA_MAX_TRANSFER};
use cell_core::{align_up, CellError, CellResult, QUADWORD};
use cell_engine::Engine;
use cell_mem::StructLayout;
use cell_serve::{CellServer, PROBE_FN};
use cell_stencil::grid::Grid;
use cell_stencil::offload::{stencil_wrapper_layout, StencilApp, JACOBI_FN};
use marvel::app::{paper_kernel_specs, CellMarvel, EXTRACT_KINDS};
use marvel::features::KernelKind;
use marvel::kernels::{feature_dim, kernel_fn_name};
use marvel::wire::{image_stride, DetectWire, ExtractWire};
use portkit::opcodes::run_opcode;
use portkit::schedule::Schedule;

use crate::model::{
    DispatchScript, DmaPlan, KernelModel, PortModel, ScriptOp, SupervisionModel, WrapperModel,
};

/// Wrapper bases come from `MsgWrapper::alloc`, which aligns to at least
/// a cache line.
const WRAPPER_BASE_ALIGN: usize = 128;

/// An extraction kernel's wrapper as both ABI sides construct it — the
/// PPE stub and the SPE body call the same `ExtractWire::new`, which is
/// exactly what the ABI pass should observe.
fn extract_wrapper(kind: KernelKind) -> CellResult<WrapperModel> {
    let dim = feature_dim(kind);
    Ok(WrapperModel {
        ppe_layout: ExtractWire::new(dim)?.layout,
        spe_layout: Some(ExtractWire::new(dim)?.layout),
        base_align: WRAPPER_BASE_ALIGN,
    })
}

/// The plan an extraction kernel runs per image: one header fetch, the
/// pixel rows streamed in double-buffered whole-row bands, one result
/// write-back.
fn extract_plans(wire: &ExtractWire, image_w: usize, image_h: usize) -> Vec<DmaPlan> {
    let stride = image_stride(image_w);
    let rows_per_band = (DMA_MAX_TRANSFER / stride).max(1);
    let chunk = (rows_per_band * stride).min(DMA_MAX_TRANSFER);
    vec![
        DmaPlan::Single {
            bytes: wire.header_bytes(),
        },
        DmaPlan::Sliced {
            chunk,
            total: stride * image_h,
            buffers: 2,
        },
        DmaPlan::Single {
            bytes: align_up(wire.out_dim * 4, QUADWORD),
        },
    ]
}

/// Model the pipelined MARVEL port (§5's scenario 1/2 layout: one
/// dispatcher per extraction kernel plus a concept-detection SPE).
pub fn model_marvel(app: &CellMarvel, image_w: usize, image_h: usize) -> CellResult<PortModel> {
    let cfg = MachineConfig::default();
    let mut kernels = Vec::new();
    let mut scripts = Vec::new();

    for (kind, spe, ops) in app.kernel_bindings() {
        let wire = ExtractWire::new(feature_dim(kind))?;
        let mut opcodes = vec![(kernel_fn_name(kind).to_string(), ops.extract)];
        if let Some(op) = ops.detect {
            opcodes.push((kernel_fn_name(KernelKind::Cd).to_string(), op));
        }
        // The engine keeps `window` extractions in flight per lane; model
        // a two-frame pipelined conversation so the protocol pass sees
        // the send-ahead shape the pump actually issues.
        scripts.push(PortModel::engine_script(
            kernels.len(),
            ops.extract,
            2,
            app.engine_window(),
        ));
        kernels.push(KernelModel {
            name: kind.name().to_string(),
            spe,
            opcodes,
            wrapper: Some(extract_wrapper(kind)?),
            code_bytes: cfg.code_reserved,
            plans: extract_plans(&wire, image_w, image_h),
        });
    }

    let (cd_spe, cd_opcode) = app.cd_binding();
    let wire = DetectWire::new(feature_dim(KernelKind::Ch))?;
    scripts.push(PortModel::engine_script(
        kernels.len(),
        cd_opcode,
        2,
        app.engine_window(),
    ));
    kernels.push(KernelModel {
        name: KernelKind::Cd.name().to_string(),
        spe: cd_spe,
        opcodes: vec![(kernel_fn_name(KernelKind::Cd).to_string(), cd_opcode)],
        wrapper: Some(WrapperModel {
            ppe_layout: DetectWire::new(wire.feature_dim)?.layout,
            spe_layout: Some(DetectWire::new(wire.feature_dim)?.layout),
            base_align: WRAPPER_BASE_ALIGN,
        }),
        code_bytes: cfg.code_reserved,
        plans: vec![
            DmaPlan::Single {
                bytes: wire.in_bytes(),
            },
            // SVM model streamed into the LS, double-buffered.
            DmaPlan::Sliced {
                chunk: DMA_MAX_TRANSFER,
                total: 64 * 1024,
                buffers: 2,
            },
        ],
    });

    // The paper's concurrency shape: the four extractions overlap, then
    // detection runs (Fig. 6).
    let schedule = Schedule::grouped(vec![vec![0, 1, 2, 3], vec![4]], cfg.num_spes)?;

    Ok(PortModel {
        name: "marvel".to_string(),
        num_spes: cfg.num_spes,
        ls_capacity: cfg.local_store_size,
        kernels,
        schedule: Some(schedule),
        kernel_specs: paper_kernel_specs(),
        scripts,
        // The pipelined driver fails hard on any SPE loss (Fail mode):
        // no recovery machinery to compose with.
        supervision: None,
    })
}

/// Model the failover MARVEL port ([`CellMarvel::resilient`]): every
/// SPE hosts the universal dispatcher, so any SPE can serve any kernel
/// after a failure.
pub fn model_resilient(app: &CellMarvel, image_w: usize, image_h: usize) -> CellResult<PortModel> {
    let cfg = MachineConfig::default();
    let bindings = app.kernel_bindings();
    // Universal dispatchers answer every kernel with the same opcode on
    // every SPE.
    let mut opcodes: Vec<(String, u32)> = bindings
        .iter()
        .map(|&(kind, _, ops)| (kernel_fn_name(kind).to_string(), ops.extract))
        .collect();
    opcodes.push((
        kernel_fn_name(KernelKind::Cd).to_string(),
        app.cd_binding().1,
    ));
    let mut kernels = Vec::new();
    let mut scripts = Vec::new();
    for spe in 0..app.num_spes() {
        // The widest extraction wire bounds the LS cost.
        let wire = ExtractWire::new(feature_dim(KernelKind::Ch))?;
        scripts.push(PortModel::engine_script(
            spe,
            bindings[0].2.extract,
            2,
            app.engine_window(),
        ));
        kernels.push(KernelModel {
            name: format!("universal@spe{spe}"),
            spe,
            opcodes: opcodes.clone(),
            wrapper: Some(extract_wrapper(KernelKind::Ch)?),
            code_bytes: cfg.code_reserved,
            plans: extract_plans(&wire, image_w, image_h),
        });
    }
    Ok(PortModel {
        name: "marvel-resilient".to_string(),
        num_spes: cfg.num_spes,
        ls_capacity: cfg.local_store_size,
        kernels,
        schedule: Some(app.schedule().clone()),
        kernel_specs: paper_kernel_specs(),
        scripts,
        // Retry/timeout/replan failover, but no respawn: a dead SPE is
        // abandoned and its kernels replan onto the survivors.
        supervision: Some(SupervisionModel::failover_only()),
    })
}

/// Model the supervised serving port: the resilient layout (a universal
/// dispatcher on every SPE) plus the serving runtime's extras — the
/// `integrity_probe` opcode and its 16-byte probe transfer on every
/// dispatcher, and the supervisor's retire → re-upload → probe recovery
/// conversation as a dispatch script the protocol pass verifies.
pub fn model_serve(server: &CellServer, image_w: usize, image_h: usize) -> CellResult<PortModel> {
    let cfg = MachineConfig::default();
    let ops = server.opcodes();
    let probe_op = server.probe_opcode();
    let num_spes = server.alive().len();
    let mut kernels = Vec::new();
    let mut scripts = Vec::new();
    for spe in 0..num_spes {
        let mut opcodes: Vec<(String, u32)> = EXTRACT_KINDS
            .iter()
            .map(|&k| (kernel_fn_name(k).to_string(), ops.opcode(k)))
            .collect();
        opcodes.push((kernel_fn_name(KernelKind::Cd).to_string(), ops.detect));
        opcodes.push((PROBE_FN.to_string(), probe_op));
        let wire = ExtractWire::new(feature_dim(KernelKind::Ch))?;
        let mut plans = extract_plans(&wire, image_w, image_h);
        // The watchdog/respawn probe block: one 16-byte checksummed get.
        plans.push(DmaPlan::Single { bytes: 16 });
        scripts.push(PortModel::engine_script(
            spe,
            ops.opcode(KernelKind::Ch),
            2,
            server.engine_window(),
        ));
        kernels.push(KernelModel {
            name: format!("serve@spe{spe}"),
            spe,
            opcodes,
            wrapper: Some(extract_wrapper(KernelKind::Ch)?),
            code_bytes: cfg.code_reserved,
            plans,
        });
    }
    // The supervisor's recovery path on one slot: round trip, retire,
    // dispatcher re-upload, end-to-end probe, close.
    scripts.push(PortModel::respawn_script(
        0,
        ops.opcode(KernelKind::Ch),
        probe_op,
    ));
    Ok(PortModel {
        name: "cell-serve".to_string(),
        num_spes,
        ls_capacity: cfg.local_store_size,
        kernels,
        schedule: Some(server.full_schedule().clone()),
        kernel_specs: paper_kernel_specs(),
        scripts,
        supervision: Some(SupervisionModel::serving(
            server.config().breaker_threshold,
            server.config().breaker_cooldown,
        )),
    })
}

/// Model the stencil port for one problem size, mirroring the kernel's
/// resident-vs-banded regime choice (§3.2's sizing rule).
pub fn model_stencil(app: &StencilApp, width: usize, height: usize) -> CellResult<PortModel> {
    let cfg = MachineConfig::default();
    let layout = stencil_wrapper_layout()?;
    let header = align_up(layout.size(), QUADWORD);
    let stride = Grid::row_stride_bytes(width);
    let grid_bytes = stride * height;
    let remaining = cfg.ls_data_capacity().saturating_sub(header);

    let mut plans = vec![DmaPlan::Single {
        bytes: layout.size(),
    }];
    if remaining >= 2 * grid_bytes + 4096 {
        // LS-resident: both ping-pong grids live in the LS; `get_large`
        // streams each in ≤16 KB slices that all stay resident.
        let chunk = grid_bytes.min(DMA_MAX_TRANSFER);
        let buffers = grid_bytes.div_ceil(chunk.max(1));
        for _ in 0..2 {
            plans.push(DmaPlan::Sliced {
                chunk,
                total: grid_bytes,
                buffers,
            });
        }
    } else {
        // Banded: two halo-band buffers swept over the grid per
        // iteration. Same arithmetic as the kernel body.
        let band_rows = ((remaining / 3 / stride).saturating_sub(2)).clamp(1, 48);
        let band_bytes = (band_rows + 2) * stride;
        let slices = band_bytes.div_ceil(DMA_MAX_TRANSFER);
        // Equal 16-byte-multiple slices of the band (rows are padded, so
        // slicing on row boundaries stays legal).
        let chunk = align_up(band_bytes.div_ceil(slices), QUADWORD).min(DMA_MAX_TRANSFER);
        let buffers = band_bytes.div_ceil(chunk.max(1));
        for _ in 0..2 {
            plans.push(DmaPlan::Sliced {
                chunk,
                total: grid_bytes,
                buffers,
            });
        }
    }

    let kernel = KernelModel {
        name: JACOBI_FN.to_string(),
        spe: app.spe(),
        opcodes: vec![(JACOBI_FN.to_string(), app.opcode())],
        wrapper: Some(WrapperModel {
            ppe_layout: stencil_wrapper_layout()?,
            spe_layout: Some(stencil_wrapper_layout()?),
            base_align: WRAPPER_BASE_ALIGN,
        }),
        code_bytes: cfg.code_reserved,
        plans,
    };
    let scripts = vec![PortModel::engine_script(
        0,
        app.opcode(),
        1,
        app.engine_window(),
    )];
    Ok(PortModel {
        name: "stencil".to_string(),
        num_spes: cfg.num_spes,
        ls_capacity: cfg.local_store_size,
        kernels: vec![kernel],
        schedule: None,
        kernel_specs: Vec::new(),
        scripts,
        supervision: None,
    })
}

/// Model the image-filter offload example (`examples/image_filter_offload.rs`):
/// a 16-byte wrapper, a halo band reader at depth 2 and a per-band
/// write-back over a 1600×1200 RGB frame.
pub fn model_image_filter() -> CellResult<PortModel> {
    let cfg = MachineConfig::default();
    let (width, height, band_rows, halo) = (1600usize, 1200usize, 12usize, 1usize);
    let stride = image_stride(width);
    let frame = stride * height;

    let mut layout = StructLayout::new();
    layout.field_addr("in_ea")?;
    layout.field_addr("out_ea")?;

    // Input: two in-flight halo bands of `band_rows + 2*halo` rows each;
    // slice each band into equal ≤16 KB row-aligned chunks.
    let band_bytes = (band_rows + 2 * halo) * stride;
    let in_slices = band_bytes.div_ceil(DMA_MAX_TRANSFER);
    let in_chunk = align_up(band_bytes.div_ceil(in_slices), QUADWORD).min(DMA_MAX_TRANSFER);
    // Output: one `band_rows` buffer written back per band.
    let out_bytes = band_rows * stride;
    let out_slices = out_bytes.div_ceil(DMA_MAX_TRANSFER);
    let out_chunk = align_up(out_bytes.div_ceil(out_slices), QUADWORD).min(DMA_MAX_TRANSFER);

    let kernel = KernelModel {
        name: "filters".to_string(),
        spe: 0,
        opcodes: vec![
            ("gray".to_string(), run_opcode(0)),
            ("blur".to_string(), run_opcode(1)),
        ],
        wrapper: Some(WrapperModel {
            ppe_layout: layout.clone(),
            spe_layout: Some(layout),
            base_align: WRAPPER_BASE_ALIGN,
        }),
        code_bytes: cfg.code_reserved,
        plans: vec![
            DmaPlan::Single { bytes: 16 },
            DmaPlan::Sliced {
                chunk: in_chunk,
                total: frame,
                buffers: 2 * band_bytes.div_ceil(in_chunk.max(1)),
            },
            DmaPlan::Sliced {
                chunk: out_chunk,
                total: frame,
                buffers: out_bytes.div_ceil(out_chunk.max(1)),
            },
        ],
    };
    // The example drives a single-lane engine: one round trip per filter.
    let scripts = vec![
        PortModel::engine_script(0, run_opcode(0), 1, 1),
        PortModel::engine_script(0, run_opcode(1), 1, 1),
    ];
    Ok(PortModel {
        name: "image-filter".to_string(),
        num_spes: cfg.num_spes,
        ls_capacity: cfg.local_store_size,
        kernels: vec![kernel],
        schedule: None,
        kernel_specs: Vec::new(),
        scripts,
        supervision: None,
    })
}

/// Model the shared pipelined offload executor itself (`cell-engine`,
/// the PR-5 unification): the image-filter dispatcher driven two ways —
/// a windowed in-flight lane at the engine's configured width, and an
/// `SPU_BATCH` conversation packing members into single frames. The
/// window comes from the live [`Engine`], so widening the bench's
/// pipeline widens the checked model with it.
pub fn model_engine_pipelined(engine: &Engine) -> CellResult<PortModel> {
    let mut model = model_image_filter()?;
    model.name = "engine-pipelined".to_string();
    model.scripts = vec![
        PortModel::engine_script(0, run_opcode(0), 4, engine.window()),
        PortModel::batch_script(0, run_opcode(1), 2, 8),
    ];
    Ok(model)
}

/// Model the multi-blade cluster port. Every blade runs the serve
/// layout (same seed, same models — the precondition for byte-identical
/// failover replay), so the per-SPE protocol model comes from blade 0's
/// live server. On top of it:
///
/// * **blade supervision** — the router's heartbeat watchdog and
///   breaker-paced whole-machine respawns, declared one level up with
///   the cluster's blade knobs;
/// * **failover replay** — a home lane dies mid-conversation and the
///   orphaned dispatch replays on a survivor lane before the home is
///   rebuilt (retire → re-upload → probe) and rejoins the ring;
/// * **cache admission** — a router cache hit answers a request with no
///   mailbox traffic at all; the degenerate close-only conversation
///   must be protocol-clean too.
pub fn model_cluster(
    cluster: &CellCluster,
    image_w: usize,
    image_h: usize,
) -> CellResult<PortModel> {
    let server = cluster.server(0).ok_or_else(|| CellError::BadConfig {
        message: "cluster has no live blade to model".to_string(),
    })?;
    let mut model = model_serve(server, image_w, image_h)?;
    model.name = "cell-cluster".to_string();
    let ccfg = cluster.config();
    model.supervision = Some(SupervisionModel::serving(
        ccfg.blade_breaker_threshold,
        ccfg.blade_breaker_cooldown,
    ));
    let ops = server.opcodes();
    let ch_op = ops.opcode(KernelKind::Ch);
    // Failover replay on a survivor lane, then the dead home blade's
    // rebuild: the same retire → upload → probe shape as an SPE respawn,
    // one failure domain up.
    if model.kernels.len() > 1 {
        model
            .scripts
            .push(PortModel::respawn_script(1, ch_op, server.probe_opcode()));
    }
    // Cache-hit admission: served entirely at the router.
    model.scripts.push(DispatchScript {
        kernel: 0,
        window: 1,
        ops: vec![ScriptOp::Close],
    });
    Ok(model)
}

//! Negative fixtures for the `cell-lint` static engine: each seeded
//! defect must trigger its specific rule id, and the shipped example
//! models must stay free of Error-severity findings.

use cell_lint::{
    analyze, DispatchScript, DmaPlan, KernelModel, LintConfig, PortModel, ScriptOp, WrapperModel,
};
use cell_mem::StructLayout;
use portkit::advisor::Severity;
use portkit::opcodes::run_opcode;

/// A minimal, clean two-SPE port the fixtures perturb one axis at a time.
fn base_model() -> PortModel {
    PortModel {
        name: "fixture".to_string(),
        num_spes: 2,
        ls_capacity: 256 * 1024,
        kernels: vec![KernelModel {
            name: "k".to_string(),
            spe: 0,
            opcodes: vec![("f".to_string(), run_opcode(0))],
            wrapper: None,
            code_bytes: 16 * 1024,
            plans: vec![DmaPlan::Sliced {
                chunk: 16 * 1024,
                total: 1 << 20,
                buffers: 2,
            }],
        }],
        schedule: None,
        kernel_specs: Vec::new(),
        scripts: vec![PortModel::roundtrip_script(0, run_opcode(0))],
        supervision: None,
    }
}

fn lint(model: &PortModel) -> cell_lint::LintReport {
    analyze(model, &LintConfig::new())
}

#[test]
fn base_fixture_is_clean() {
    let report = lint(&base_model());
    assert_eq!(report.error_count(), 0, "{}", report.render());
}

#[test]
fn misaligned_wrapper_triggers_wrapper_misaligned() {
    let mut layout = StructLayout::new();
    layout.field_addr("image_ea").unwrap();
    layout.field_u32("width").unwrap();
    layout.field_u32("height").unwrap();
    layout.field_buffer("out", 64).unwrap();
    let mut m = base_model();
    m.kernels[0].wrapper = Some(WrapperModel {
        ppe_layout: layout,
        spe_layout: None,
        base_align: 8, // not a quadword multiple: DMA of the wrapper faults
    });
    let report = lint(&m);
    assert!(report.has("wrapper-misaligned"), "{}", report.render());
    assert_eq!(report.worst(), Some(Severity::Error));
}

#[test]
fn oversized_unsliced_dma_triggers_transfer_cap() {
    let mut m = base_model();
    // A 20 KB single-shot transfer exceeds the 16 KB MFC class limit.
    m.kernels[0].plans = vec![DmaPlan::Single { bytes: 20 * 1024 }];
    let report = lint(&m);
    assert!(report.has("transfer-cap"), "{}", report.render());
    assert_eq!(report.worst(), Some(Severity::Error));
}

#[test]
fn unregistered_opcode_triggers_dispatch_unknown_opcode() {
    let mut m = base_model();
    // The PPE stub sends opcode 0xBEEF but the dispatcher table only
    // registers `run_opcode(0)` — on hardware the SPE blocks on its
    // mailbox forever (the Listing-3 deadlock).
    m.scripts = vec![DispatchScript {
        kernel: 0,
        window: 1,
        ops: vec![
            ScriptOp::Send { opcode: 0xBEEF },
            ScriptOp::WaitReply,
            ScriptOp::Close,
        ],
    }];
    let report = lint(&m);
    assert!(report.has("dispatch-unknown-opcode"), "{}", report.render());
    assert_eq!(report.worst(), Some(Severity::Error));
}

#[test]
fn ls_budget_overflow_triggers_ls_overflow() {
    let mut m = base_model();
    // Code plus resident buffers exceed the 256 KB local store.
    m.kernels[0].code_bytes = 64 * 1024;
    m.kernels[0].plans = vec![
        DmaPlan::Sliced {
            chunk: 16 * 1024,
            total: 1 << 20,
            buffers: 8,
        },
        DmaPlan::Single { bytes: 16 * 1024 },
        DmaPlan::Sliced {
            chunk: 16 * 1024,
            total: 1 << 20,
            buffers: 4,
        },
    ];
    let report = lint(&m);
    assert!(report.has("ls-overflow"), "{}", report.render());
    assert_eq!(report.worst(), Some(Severity::Error));
}

#[test]
fn overlong_dma_list_triggers_list_length() {
    let mut m = base_model();
    m.kernels[0].plans = vec![DmaPlan::List {
        elements: 3000,
        element_bytes: 128,
    }];
    let report = lint(&m);
    assert!(report.has("list-length"), "{}", report.render());
}

#[test]
fn missing_exit_and_mailbox_misuse_are_flagged() {
    let mut m = base_model();
    let op = run_opcode(0);
    m.scripts = vec![DispatchScript {
        kernel: 0,
        window: 1,
        ops: vec![
            ScriptOp::Send { opcode: op },
            ScriptOp::Send { opcode: op }, // double send past the window
            ScriptOp::WaitReply,
            ScriptOp::WaitReply,
            ScriptOp::WaitReply, // one read too many
                                 // ... and no Close: SPE never sees SPU_EXIT
        ],
    }];
    let report = lint(&m);
    assert!(report.has("mailbox-double-send"), "{}", report.render());
    assert!(report.has("mailbox-read-no-pending"));
    assert!(report.has("dispatch-missing-exit"));
}

#[test]
fn deny_escalates_and_allow_suppresses() {
    let mut m = base_model();
    m.kernels[0].plans = vec![DmaPlan::Sliced {
        chunk: 16 * 1024,
        total: 1 << 20,
        buffers: 1,
    }];
    let denied = analyze(&m, &LintConfig::new().deny("transfer-single-buffered"));
    assert!(denied.error_count() > 0);
    let allowed = analyze(&m, &LintConfig::new().allow("transfer-single-buffered"));
    assert!(!allowed.has("transfer-single-buffered"));
    assert_eq!(allowed.error_count(), 0);
}

#[test]
fn shipped_image_filter_model_has_no_errors() {
    let model = cell_lint::model_image_filter().unwrap();
    let report = lint(&model);
    assert_eq!(report.error_count(), 0, "{}", report.render());
}

#[test]
fn shipped_stencil_models_have_no_errors() {
    let app = cell_stencil::offload::StencilApp::new().unwrap();
    for (w, h) in [(96usize, 64usize), (512, 256)] {
        let model = cell_lint::model_stencil(&app, w, h).unwrap();
        let report = lint(&model);
        assert_eq!(report.error_count(), 0, "{}x{}: {}", w, h, report.render());
    }
    app.finish().unwrap();
}

// =========================================================================
// Executed-behavior fixtures: `cell_lint::analyze_trace` over real
// interpreted runs, not declared models.
// =========================================================================

mod isa_traces {
    use std::sync::{Arc, Mutex};

    use cell_core::MachineConfig;
    use cell_isa::interp::{channel, MFC_CMD_GET};
    use cell_isa::{Assembler, ExecTrace, IsaProgram, TraceSink};
    use cell_lint::{analyze_trace, LintConfig};
    use cell_sys::CellMachine;

    /// Assemble and run an image on a small machine, returning its
    /// execution trace and whether the SPE finished cleanly. The trace
    /// survives faults — that is the point of linting it.
    fn run_for_trace(a: Assembler) -> (ExecTrace, bool) {
        let image = a.assemble().unwrap();
        let mut m = CellMachine::new(MachineConfig::small()).unwrap();
        let sink: TraceSink = Arc::new(Mutex::new(None));
        let h = m
            .spawn(
                0,
                Box::new(IsaProgram::new(image).with_trace_sink(Arc::clone(&sink))),
            )
            .unwrap();
        let ok = h.join().is_ok();
        let trace = sink.lock().unwrap().take().unwrap();
        (trace, ok)
    }

    #[test]
    fn garbage_word_triggers_isa_unknown_op() {
        let mut a = Assembler::new();
        // 0x0040_0000 sits in no instruction form: executing it faults
        // the SPE and records the word.
        a.quad([0x00, 0x40, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]);
        let (trace, ok) = run_for_trace(a);
        assert!(!ok, "undecodable word must fault the SPE");
        let report = analyze_trace(&trace, 64 * 1024, "garbage", &LintConfig::new());
        assert!(report.has("isa-unknown-op"), "{}", report.render());
        assert!(report.error_count() > 0);
    }

    #[test]
    fn wild_load_triggers_isa_ls_oob() {
        let mut a = Assembler::new();
        // 0x3FFF0 is far beyond the 64 KB small-machine local store; the
        // interpreter wraps the access but records the raw address.
        a.ila(4, 0x3FFF0);
        a.lqd(5, 4, 0);
        a.stop(0);
        let (trace, ok) = run_for_trace(a);
        assert!(ok, "wrapped access completes");
        let report = analyze_trace(&trace, 64 * 1024, "wild-load", &LintConfig::new());
        assert!(report.has("isa-ls-oob"), "{}", report.render());
    }

    /// One MFC GET of `size` bytes from EA 0x1000 into `lsa`, then stop.
    fn mfc_get(lsa: i32, size: i32) -> Assembler {
        let mut a = Assembler::new();
        a.ila(4, lsa);
        a.wrch(channel::MFC_LSA, 4);
        a.il(5, 0);
        a.wrch(channel::MFC_EAH, 5);
        a.ila(6, 0x1000);
        a.wrch(channel::MFC_EAL, 6);
        a.il(7, size);
        a.wrch(channel::MFC_SIZE, 7);
        a.wrch(channel::MFC_TAG_ID, 5);
        a.il(8, MFC_CMD_GET as i32);
        a.wrch(channel::MFC_CMD, 8);
        a.stop(0);
        a
    }

    #[test]
    fn illegal_dma_size_triggers_isa_dma_size() {
        // 24 B is neither 1/2/4/8 nor a quadword multiple: the MFC
        // rejects the command at issue, and the trace must still hold it.
        let (trace, ok) = run_for_trace(mfc_get(0x4000, 24));
        assert!(!ok, "an illegal DMA size must fault the SPE");
        let report = analyze_trace(&trace, 64 * 1024, "dma-size", &LintConfig::new());
        assert!(report.has("isa-dma-size"), "{}", report.render());
        assert!(!report.has("isa-dma-misaligned"), "{}", report.render());
    }

    #[test]
    fn unaligned_dma_lsa_triggers_isa_dma_misaligned() {
        let (trace, ok) = run_for_trace(mfc_get(0x4004, 32));
        assert!(!ok, "a quadword DMA at an unaligned LSA must fault the SPE");
        let report = analyze_trace(&trace, 64 * 1024, "dma-misaligned", &LintConfig::new());
        assert!(report.has("isa-dma-misaligned"), "{}", report.render());
        assert!(!report.has("isa-dma-size"), "{}", report.render());
    }

    #[test]
    fn shipped_kernel_traces_are_lint_clean() {
        // The gray color-convert kernel end to end: header in main
        // memory, DMA in, compute, DMA out — its executed behavior must
        // pass the same rules the fixtures above fail.
        let image = cell_isa::build_gray_kernel().unwrap();
        let mut m = CellMachine::new(MachineConfig::small()).unwrap();
        let mem = Arc::clone(m.mem());
        let count = 64u32;
        let input: Vec<u8> = (0..count * 4).map(|i| (i * 13) as u8).collect();
        let in_ea = mem.alloc(input.len(), 16).unwrap();
        mem.write(in_ea, &input).unwrap();
        let out_ea = mem.alloc(count as usize * 4, 16).unwrap();
        let hdr_ea = mem.alloc(16, 16).unwrap();
        cell_isa::write_header(
            &mem,
            hdr_ea,
            cell_isa::KernelHeader {
                in_ea: in_ea as u32,
                out_ea: out_ea as u32,
                count,
                param: 0,
            },
        )
        .unwrap();
        let sink: TraceSink = Arc::new(Mutex::new(None));
        let h = m
            .spawn(
                0,
                Box::new(
                    IsaProgram::new(image)
                        .with_arg(hdr_ea as u32)
                        .with_trace_sink(Arc::clone(&sink)),
                ),
            )
            .unwrap();
        h.join().unwrap();
        let trace = sink.lock().unwrap().take().unwrap();
        let report = analyze_trace(&trace, 64 * 1024, "gray", &LintConfig::new());
        assert!(report.findings.is_empty(), "{}", report.render());
    }
}

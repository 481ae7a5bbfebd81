//! `cell-lint` — whole-port static verification and dynamic race
//! detection for the simulated Cell B.E.
//!
//! The paper's porting strategy works because each step obeys checkable
//! invariants: wrappers are DMA-aligned, transfers respect MFC size
//! classes, kernels fit the local store, the PPE stub and the SPE
//! dispatcher agree on one ABI and one mailbox protocol. This crate
//! turns those invariants into tooling:
//!
//! * [`model::PortModel`] — an IR describing a whole port (kernels,
//!   wrappers, DMA plans, opcode tables, dispatch scripts, schedule),
//!   built from the real applications by [`builders`];
//! * [`rules::analyze`] — the pass-based static engine, with stable rule
//!   ids, per-rule allow/deny via [`rules::LintConfig`] and a JSON
//!   report ([`rules::LintReport::to_json`]);
//! * [`race::detect_races`] — a sanitizer-style happens-before detector
//!   over `cell-trace` streams: vector clocks built from mailbox edges
//!   flag overlapping main-memory DMA ranges no message chain orders.
//!   Epoch-aware: respawns and blade failovers reset channel edges per
//!   mailbox generation instead of poisoning the whole trace;
//! * [`mc::check_port`] — an explicit-state model checker over the
//!   product of the dispatch scripts, the 4-deep mailbox, the Listing 3
//!   dispatcher loop and the supervision state machines under a
//!   crash/hang/drop fault oracle, proving deadlock-freedom per port or
//!   producing a counterexample path.
//!
//! The `cell-lint` binary runs all of it over every shipped example and
//! exits nonzero on any Error-severity finding; CI gates on that.

pub mod builders;
pub mod isa;
pub mod mc;
pub mod model;
pub mod race;
pub mod rules;

pub use builders::{
    model_cluster, model_engine_pipelined, model_image_filter, model_marvel, model_resilient,
    model_serve, model_stencil,
};
pub use isa::analyze_trace;
pub use mc::{check_port, McConfig, McReport, McStats};
pub use model::{
    DispatchScript, DmaPlan, KernelModel, PortModel, ScriptOp, SupervisionModel, WrapperModel,
};
pub use race::detect_races;
pub use rules::{analyze, Finding, LintConfig, LintReport};

#[cfg(test)]
mod tests {
    use super::*;
    use portkit::advisor::Severity;

    fn tiny_model() -> PortModel {
        PortModel {
            name: "tiny".to_string(),
            num_spes: 2,
            ls_capacity: 64 * 1024,
            kernels: vec![KernelModel {
                name: "k".to_string(),
                spe: 0,
                opcodes: vec![("f".to_string(), portkit::opcodes::run_opcode(0))],
                wrapper: None,
                code_bytes: 8 * 1024,
                plans: vec![DmaPlan::Sliced {
                    chunk: 16 * 1024,
                    total: 1 << 20,
                    buffers: 2,
                }],
            }],
            schedule: None,
            kernel_specs: Vec::new(),
            scripts: vec![PortModel::roundtrip_script(
                0,
                portkit::opcodes::run_opcode(0),
            )],
            supervision: None,
        }
    }

    #[test]
    fn clean_model_is_clean() {
        let report = analyze(&tiny_model(), &LintConfig::new());
        assert_eq!(report.error_count(), 0, "{}", report.render());
    }

    #[test]
    fn allow_drops_and_deny_escalates() {
        let mut m = tiny_model();
        // Single-buffer the stream: a Warning by default.
        m.kernels[0].plans = vec![DmaPlan::Sliced {
            chunk: 16 * 1024,
            total: 1 << 20,
            buffers: 1,
        }];
        let base = analyze(&m, &LintConfig::new());
        assert!(base.has("transfer-single-buffered"));
        assert_eq!(base.error_count(), 0);

        let denied = analyze(&m, &LintConfig::new().deny("transfer-single-buffered"));
        assert_eq!(denied.error_count(), 1);
        assert_eq!(denied.worst(), Some(Severity::Error));

        let allowed = analyze(&m, &LintConfig::new().allow("transfer-single-buffered"));
        assert!(!allowed.has("transfer-single-buffered"));
    }

    #[test]
    fn report_json_is_balanced_and_tagged() {
        let mut m = tiny_model();
        m.kernels[0].plans = vec![DmaPlan::Single { bytes: 24 }];
        let report = analyze(&m, &LintConfig::new());
        let json = report.to_json();
        assert!(json.starts_with("{\"port\":\"tiny\""));
        assert!(json.contains("\"rule\":\"transfer-size\""));
        assert!(json.contains("\"errors\":1"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        assert_eq!(json,
            "{\"port\":\"tiny\",\"errors\":1,\"warnings\":0,\"hints\":1,\"findings\":[\
            {\"severity\":\"error\",\"rule\":\"transfer-size\",\"subject\":\"kernel `k` (SPE 0)\",\"message\":\"24-byte transfers are not a legal MFC size\"},\
            {\"severity\":\"hint\",\"rule\":\"kernel-too-small\",\"subject\":\"kernel `k` (SPE 0)\",\"message\":\"the kernel moves very little data per invocation; mailbox and DMA startup may dominate — cluster more methods around it (§3.2)\"}]}"
        );

        // No findings; then several, with a port, subject and message
        // needing every escape.
        let mut report = LintReport {
            port: "p\"q".to_string(),
            findings: Vec::new(),
        };
        assert_eq!(
            report.to_json(),
            "{\"port\":\"p\\\"q\",\"errors\":0,\"warnings\":0,\"hints\":0,\"findings\":[]}"
        );
        report.findings = vec![
            Finding::new(
                Severity::Warning,
                "w-rule",
                "s\\t".to_string(),
                "line1\nline2\u{1b}".to_string(),
            ),
            Finding::new(Severity::Hint, "h-rule", String::new(), "\"q\"".to_string()),
        ];
        assert_eq!(report.to_json(),
            "{\"port\":\"p\\\"q\",\"errors\":0,\"warnings\":1,\"hints\":1,\"findings\":[\
            {\"severity\":\"warning\",\"rule\":\"w-rule\",\"subject\":\"s\\\\t\",\"message\":\"line1\\nline2\\u001b\"},\
            {\"severity\":\"hint\",\"rule\":\"h-rule\",\"subject\":\"\",\"message\":\"\\\"q\\\"\"}]}"
        );

        // The model checker's report: the same findings, its own header.
        let mut mc = McReport {
            port: "tiny".to_string(),
            findings: Vec::new(),
            stats: McStats {
                scripts: 1,
                variants: 2,
                states: 30,
                transitions: 41,
                peak_states: 17,
            },
        };
        assert_eq!(mc.to_json(),
            "{\"port\":\"tiny\",\"mode\":\"mc\",\"errors\":0,\"scripts\":1,\"variants\":2,\"states\":30,\"transitions\":41,\"peak_states\":17,\"findings\":[]}"
        );
        mc.findings = report.findings;
        mc.findings.push(Finding::new(
            Severity::Error,
            "mc-deadlock",
            "script 0".to_string(),
            "stuck".to_string(),
        ));
        assert_eq!(mc.to_json(),
            "{\"port\":\"tiny\",\"mode\":\"mc\",\"errors\":1,\"scripts\":1,\"variants\":2,\"states\":30,\"transitions\":41,\"peak_states\":17,\"findings\":[\
            {\"severity\":\"warning\",\"rule\":\"w-rule\",\"subject\":\"s\\\\t\",\"message\":\"line1\\nline2\\u001b\"},\
            {\"severity\":\"hint\",\"rule\":\"h-rule\",\"subject\":\"\",\"message\":\"\\\"q\\\"\"},\
            {\"severity\":\"error\",\"rule\":\"mc-deadlock\",\"subject\":\"script 0\",\"message\":\"stuck\"}]}"
        );
    }

    #[test]
    fn script_protocol_rules_fire() {
        let mut m = tiny_model();
        let op = portkit::opcodes::run_opcode(0);
        // Unknown opcode, double send, read with nothing pending, no exit.
        m.scripts = vec![DispatchScript {
            kernel: 0,
            window: 1,
            ops: vec![
                ScriptOp::Send { opcode: 999 },
                ScriptOp::Send { opcode: op },
                ScriptOp::WaitReply,
                ScriptOp::WaitReply,
                ScriptOp::WaitReply,
            ],
        }];
        let report = analyze(&m, &LintConfig::new());
        assert!(report.has("dispatch-unknown-opcode"));
        assert!(report.has("mailbox-double-send"));
        assert!(report.has("mailbox-read-no-pending"));
        assert!(report.has("dispatch-missing-exit"));
    }

    #[test]
    fn pipelined_engine_script_within_window_is_clean() {
        let mut m = tiny_model();
        let op = portkit::opcodes::run_opcode(0);
        // Window 2, four frames: the pump sends two ahead, then
        // alternates reply/send, then drains. Legal — no double-send.
        m.scripts = vec![PortModel::engine_script(0, op, 4, 2)];
        let report = analyze(&m, &LintConfig::new());
        assert_eq!(report.error_count(), 0, "{}", report.render());
        assert!(!report.has("mailbox-double-send"), "{}", report.render());
        assert!(!report.has("window-exceeds-mailbox"));

        // The same send-ahead conversation declared as window 1 is the
        // classic double-send hazard.
        let mut serial = tiny_model();
        let mut script = PortModel::engine_script(0, op, 4, 2);
        script.window = 1;
        serial.scripts = vec![script];
        let report = analyze(&serial, &LintConfig::new());
        assert!(report.has("mailbox-double-send"), "{}", report.render());
    }

    #[test]
    fn window_past_mailbox_capacity_warns() {
        let mut m = tiny_model();
        let op = portkit::opcodes::run_opcode(0);
        // Three in-flight dispatches need six mailbox words; the inbound
        // box holds four. The declared window cannot be sustained.
        m.scripts = vec![PortModel::engine_script(0, op, 6, 3)];
        let report = analyze(&m, &LintConfig::new());
        assert!(report.has("window-exceeds-mailbox"), "{}", report.render());
        assert_eq!(report.error_count(), 0);
    }

    #[test]
    fn respawn_script_with_upload_is_clean() {
        let mut m = tiny_model();
        let op = portkit::opcodes::run_opcode(0);
        // The canonical recovery conversation: round trip, retire,
        // re-upload, probe, close — no findings.
        m.scripts = vec![PortModel::respawn_script(0, op, op)];
        let report = analyze(&m, &LintConfig::new());
        assert_eq!(report.error_count(), 0, "{}", report.render());
        assert!(!report.has("respawn-missing-upload"));
        assert!(!report.has("dispatch-missing-exit"));
    }

    #[test]
    fn respawn_without_upload_is_an_error() {
        let mut m = tiny_model();
        let op = portkit::opcodes::run_opcode(0);
        m.scripts = vec![DispatchScript {
            kernel: 0,
            window: 1,
            ops: vec![
                ScriptOp::Send { opcode: op },
                ScriptOp::WaitReply,
                ScriptOp::Retire,
                // Missing UploadCode: dispatching to a bare context.
                ScriptOp::Send { opcode: op },
                ScriptOp::WaitReply,
                ScriptOp::Close,
            ],
        }];
        let report = analyze(&m, &LintConfig::new());
        assert!(report.has("respawn-missing-upload"), "{}", report.render());
        assert_eq!(report.worst(), Some(Severity::Error));
    }

    #[test]
    fn retire_discards_pending_and_ends_the_loop() {
        let mut m = tiny_model();
        let op = portkit::opcodes::run_opcode(0);
        // Retire with a reply pending warns (the reply is lost with the
        // context); a script that ends retired needs no Close — there is
        // no dispatcher loop left to exit.
        m.scripts = vec![DispatchScript {
            kernel: 0,
            window: 1,
            ops: vec![ScriptOp::Send { opcode: op }, ScriptOp::Retire],
        }];
        let report = analyze(&m, &LintConfig::new());
        assert!(report.has("mailbox-close-pending"), "{}", report.render());
        assert!(!report.has("dispatch-missing-exit"));
        assert_eq!(report.error_count(), 0);
    }

    #[test]
    fn abi_mismatches_are_errors() {
        use cell_mem::StructLayout;
        let mut ppe = StructLayout::new();
        ppe.field_u32("width").unwrap();
        ppe.field_addr("image_ea").unwrap();
        ppe.field_buffer("out", 48).unwrap();
        // SPE side drifted: fields reordered (offsets move), the output
        // buffer resized, and an extra field the PPE never writes.
        let mut spe = StructLayout::new();
        spe.field_addr("image_ea").unwrap();
        spe.field_u32("width").unwrap();
        spe.field_u32("height").unwrap();
        spe.field_buffer("out", 64).unwrap();
        let mut m = tiny_model();
        m.kernels[0].wrapper = Some(WrapperModel {
            ppe_layout: ppe,
            spe_layout: Some(spe),
            base_align: 128,
        });
        let report = analyze(&m, &LintConfig::new());
        assert!(report.has("abi-missing-field"), "{}", report.render());
        assert!(report.has("abi-offset-mismatch"));
        assert!(report.has("abi-size-mismatch"));
        assert_eq!(report.worst(), Some(Severity::Error));
    }

    #[test]
    fn misaligned_wrapper_base_is_an_error() {
        use cell_mem::StructLayout;
        let mut l = StructLayout::new();
        l.field_u32("a").unwrap();
        l.field_u32("b").unwrap();
        l.field_u32("c").unwrap();
        l.field_u32("d").unwrap();
        let mut m = tiny_model();
        m.kernels[0].wrapper = Some(WrapperModel {
            ppe_layout: l,
            spe_layout: None,
            base_align: 8,
        });
        let report = analyze(&m, &LintConfig::new());
        assert!(report.has("wrapper-misaligned"));
    }

    #[test]
    fn dma_list_length_cap() {
        let mut m = tiny_model();
        m.kernels[0].plans = vec![DmaPlan::List {
            elements: 4096,
            element_bytes: 16,
        }];
        let report = analyze(&m, &LintConfig::new());
        assert!(report.has("list-length"));
    }
}

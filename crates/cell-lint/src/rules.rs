//! The pass-based static analysis engine.
//!
//! Rules absorb and extend `portkit::advisor`: the advisor's checks run
//! unchanged (same rule ids, same severities) over the wrapper layouts,
//! transfer plans, local-store budgets and schedules found in a
//! [`PortModel`]; new passes add what only a whole-port view can check —
//! the PPE↔SPE ABI, opcode registration, and the Listing 3 mailbox
//! protocol. Every finding carries a stable rule id so configs and CI can
//! pin behavior per rule.
//!
//! Rule catalog (see DESIGN.md §8 for the prose version):
//!
//! | id | severity | pass |
//! |----|----------|------|
//! | `wrapper-empty`, `wrapper-size` | Error | wrapper |
//! | `wrapper-cacheline` | Hint | wrapper |
//! | `wrapper-field-order` | Warning | wrapper |
//! | `wrapper-misaligned` | Error | wrapper |
//! | `abi-missing-field`, `abi-offset-mismatch`, `abi-size-mismatch` | Error | abi |
//! | `transfer-size`, `transfer-cap` | Error | transfer |
//! | `transfer-small`, `transfer-single-buffered` | Warning | transfer |
//! | `transfer-cacheline`, `transfer-count` | Hint | transfer |
//! | `list-length` | Error | transfer |
//! | `ls-overflow` | Error | budget |
//! | `ls-tight` | Warning | budget |
//! | `kernel-too-small` | Hint | budget |
//! | `dispatch-unknown-opcode`, `dispatch-missing-exit` | Error | protocol |
//! | `mailbox-read-no-pending` | Error | protocol |
//! | `respawn-missing-upload` | Error | protocol |
//! | `batch-count-invalid` | Error | protocol |
//! | `mailbox-double-send`, `mailbox-close-pending` | Warning | protocol |
//! | `schedule-imbalance`, `kernel-slower-than-host` | Warning | schedule |
//! | `dma-race` | Error | dynamic ([`crate::race`]) |
//! | `mc-deadlock`, `mc-lost-wakeup` | Error | model checker ([`crate::mc`]) |
//! | `mc-livelock-no-exit`, `mc-breaker-stuck` | Error | model checker ([`crate::mc`]) |
//! | `mc-unreachable-recovery`, `mc-state-cap` | Warning | model checker ([`crate::mc`]) |

use std::fmt::Write as _;

use cell_core::config::DMA_LIST_MAX_ELEMENTS;
use cell_core::QUADWORD;
use cell_trace::json::JsonWriter;
use portkit::advisor::{self, Advice, Severity};
use portkit::opcodes::SPU_EXIT;

use crate::model::{DmaPlan, PortModel, ScriptOp, WrapperModel};

/// One lint finding: an advisor-style `(severity, rule, message)` plus
/// the port element it is anchored to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    pub severity: Severity,
    /// Stable rule id.
    pub rule: &'static str,
    /// What the finding is about — a kernel, script or trace location.
    pub subject: String,
    pub message: String,
}

impl Finding {
    pub fn new(severity: Severity, rule: &'static str, subject: String, message: String) -> Self {
        Finding {
            severity,
            rule,
            subject,
            message,
        }
    }

    fn from_advice(a: Advice, subject: &str) -> Self {
        Finding::new(a.severity, a.rule, subject.to_string(), a.message)
    }

    /// Render as one JSON object.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::default();
        w.begin_object().key("severity").str(self.severity.as_str());
        w.key("rule").str(self.rule);
        w.key("subject").str(&self.subject);
        w.key("message").str(&self.message).end_object();
        w.finish()
    }
}

/// The `findings` array every lint and model-checking report ends with.
pub(crate) fn write_findings(w: &mut JsonWriter, findings: &[Finding]) {
    w.key("findings").begin_array();
    for f in findings {
        w.raw(&f.to_json());
    }
    w.end_array();
}

/// Per-rule allow/deny configuration. `allow` drops a rule's findings
/// entirely; `deny` escalates them to `Error` (so CI fails on them).
#[derive(Debug, Clone, Default)]
pub struct LintConfig {
    allowed: Vec<String>,
    denied: Vec<String>,
}

impl LintConfig {
    #[must_use]
    pub fn new() -> Self {
        LintConfig::default()
    }

    /// Suppress every finding of `rule`.
    #[must_use]
    pub fn allow(mut self, rule: &str) -> Self {
        self.allowed.push(rule.to_string());
        self
    }

    /// Escalate every finding of `rule` to `Error`.
    #[must_use]
    pub fn deny(mut self, rule: &str) -> Self {
        self.denied.push(rule.to_string());
        self
    }

    pub(crate) fn apply(&self, mut f: Finding) -> Option<Finding> {
        if self.allowed.iter().any(|r| r == f.rule) {
            return None;
        }
        if self.denied.iter().any(|r| r == f.rule) {
            f.severity = Severity::Error;
        }
        Some(f)
    }
}

/// The lint result for one port: findings plus report plumbing.
#[derive(Debug, Clone)]
pub struct LintReport {
    pub port: String,
    pub findings: Vec<Finding>,
}

impl LintReport {
    /// Highest severity present, `None` when clean.
    #[must_use]
    pub fn worst(&self) -> Option<Severity> {
        self.findings.iter().map(|f| f.severity).max()
    }

    /// Number of `Error`-severity findings (CI gates on this).
    #[must_use]
    pub fn error_count(&self) -> usize {
        self.findings
            .iter()
            .filter(|f| f.severity == Severity::Error)
            .count()
    }

    /// True when any finding carries `rule`.
    #[must_use]
    pub fn has(&self, rule: &str) -> bool {
        self.findings.iter().any(|f| f.rule == rule)
    }

    /// The machine-readable report.
    #[must_use]
    pub fn to_json(&self) -> String {
        let errors = self.error_count();
        let warnings = self
            .findings
            .iter()
            .filter(|f| f.severity == Severity::Warning)
            .count();
        let hints = self.findings.len() - errors - warnings;
        let mut w = JsonWriter::default();
        w.begin_object().key("port").str(&self.port);
        w.key("errors").u64(errors as u64);
        w.key("warnings").u64(warnings as u64);
        w.key("hints").u64(hints as u64);
        write_findings(&mut w, &self.findings);
        w.end_object();
        w.finish()
    }

    /// Human-readable summary, one line per finding.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = format!(
            "{}: {} finding(s), {} error(s)\n",
            self.port,
            self.findings.len(),
            self.error_count()
        );
        for f in &self.findings {
            let _ = writeln!(
                out,
                "  [{:<7}] {:<24} {}: {}",
                f.severity.as_str(),
                f.rule,
                f.subject,
                f.message
            );
        }
        out
    }
}

/// Run every static pass over `model` under `config`.
#[must_use]
pub fn analyze(model: &PortModel, config: &LintConfig) -> LintReport {
    let mut findings = Vec::new();
    let mut emit = |f: Finding| {
        if let Some(f) = config.apply(f) {
            findings.push(f);
        }
    };

    for k in &model.kernels {
        let subject = format!("kernel `{}` (SPE {})", k.name, k.spe);
        if let Some(w) = &k.wrapper {
            for a in advisor::check_wrapper(&w.ppe_layout) {
                emit(Finding::from_advice(a, &subject));
            }
            wrapper_pass(w, &subject, &mut emit);
            abi_pass(w, &subject, &mut emit);
        }
        for plan in &k.plans {
            transfer_pass(*plan, &subject, &mut emit);
        }
        budget_pass(
            k.code_bytes,
            k.wrapper.as_ref(),
            &k.plans,
            model.ls_capacity,
            &subject,
            &mut emit,
        );
    }

    for (si, script) in model.scripts.iter().enumerate() {
        protocol_pass(model, si, script, &mut emit);
    }

    if let Some(schedule) = &model.schedule {
        if !model.kernel_specs.is_empty() {
            for a in advisor::check_schedule(schedule, &model.kernel_specs) {
                emit(Finding::from_advice(a, "schedule"));
            }
        }
    }

    LintReport {
        port: model.name.clone(),
        findings,
    }
}

/// Base-address alignment: the MFC rejects a wrapper whose main-memory
/// base is not quadword-aligned, no matter how clean the layout is.
fn wrapper_pass(w: &WrapperModel, subject: &str, emit: &mut impl FnMut(Finding)) {
    if w.base_align == 0 || !w.base_align.is_multiple_of(QUADWORD) {
        emit(Finding::new(
            Severity::Error,
            "wrapper-misaligned",
            subject.to_string(),
            format!(
                "wrapper base alignment {} is not a quadword multiple; every DMA touching it will fault",
                w.base_align
            ),
        ));
    }
}

/// PPE-stub vs SPE-kernel ABI: both sides must agree on every field's
/// name, offset and size, and on the total wrapper size.
fn abi_pass(w: &WrapperModel, subject: &str, emit: &mut impl FnMut(Finding)) {
    let Some(spe) = &w.spe_layout else {
        return;
    };
    let ppe = &w.ppe_layout;
    for (name, off, size) in ppe.iter() {
        match spe.find(name) {
            None => emit(Finding::new(
                Severity::Error,
                "abi-missing-field",
                subject.to_string(),
                format!(
                    "PPE stub writes field `{name}` but the SPE kernel's layout has no such field"
                ),
            )),
            Some(id) => {
                if spe.offset(id) != off {
                    emit(Finding::new(
                        Severity::Error,
                        "abi-offset-mismatch",
                        subject.to_string(),
                        format!(
                            "field `{name}` sits at offset {off} on the PPE but {} on the SPE",
                            spe.offset(id)
                        ),
                    ));
                }
                if spe.field_size(id) != size {
                    emit(Finding::new(
                        Severity::Error,
                        "abi-size-mismatch",
                        subject.to_string(),
                        format!(
                            "field `{name}` is {size} B on the PPE but {} B on the SPE",
                            spe.field_size(id)
                        ),
                    ));
                }
            }
        }
    }
    for (name, _, _) in spe.iter() {
        if ppe.find(name).is_none() {
            emit(Finding::new(
                Severity::Error,
                "abi-missing-field",
                subject.to_string(),
                format!("SPE kernel reads field `{name}` the PPE stub never writes"),
            ));
        }
    }
    if ppe.size() != spe.size() {
        emit(Finding::new(
            Severity::Error,
            "abi-size-mismatch",
            subject.to_string(),
            format!(
                "wrapper is {} B on the PPE but {} B on the SPE",
                ppe.size(),
                spe.size()
            ),
        ));
    }
}

/// MFC legality of every DMA plan, via the advisor's transfer rules plus
/// the list-length cap `cell-mfc` enforces at issue time.
fn transfer_pass(plan: DmaPlan, subject: &str, emit: &mut impl FnMut(Finding)) {
    match plan {
        DmaPlan::Single { bytes } => {
            for a in advisor::check_transfer(bytes, bytes, 1) {
                emit(Finding::from_advice(a, subject));
            }
        }
        DmaPlan::Sliced {
            chunk,
            total,
            buffers,
        } => {
            for a in advisor::check_transfer(chunk, total, buffers) {
                emit(Finding::from_advice(a, subject));
            }
        }
        DmaPlan::List {
            elements,
            element_bytes,
        } => {
            if elements == 0 || elements > DMA_LIST_MAX_ELEMENTS {
                emit(Finding::new(
                    Severity::Error,
                    "list-length",
                    subject.to_string(),
                    format!(
                        "DMA list of {elements} elements is outside the MFC's 1..={DMA_LIST_MAX_ELEMENTS} range"
                    ),
                ));
            }
            // Element legality: each list element is its own transfer.
            for a in advisor::check_transfer(element_bytes, element_bytes, 1) {
                if a.severity == Severity::Error {
                    emit(Finding::from_advice(a, subject));
                }
            }
        }
    }
}

/// Paper §3.2 sizing rule: code + peak resident data must fit the LS.
fn budget_pass(
    code_bytes: usize,
    wrapper: Option<&WrapperModel>,
    plans: &[DmaPlan],
    ls_capacity: usize,
    subject: &str,
    emit: &mut impl FnMut(Finding),
) {
    let wrapper_bytes = wrapper.map_or(0, |w| cell_core::align_up(w.ppe_layout.size(), QUADWORD));
    let data_bytes = wrapper_bytes + plans.iter().map(DmaPlan::ls_bytes).sum::<usize>();
    for a in advisor::check_kernel_budget(code_bytes, data_bytes, ls_capacity) {
        emit(Finding::from_advice(a, subject));
    }
}

/// Listing 3 protocol verification: a two-way mailbox conversation as a
/// state machine over the pending-reply count, with every sent opcode
/// checked against the dispatcher's registered table.
fn protocol_pass(
    model: &PortModel,
    script_idx: usize,
    script: &crate::model::DispatchScript,
    emit: &mut impl FnMut(Finding),
) {
    let subject = match model.kernels.get(script.kernel) {
        Some(k) => format!(
            "script #{script_idx} -> kernel `{}` (SPE {})",
            k.name, k.spe
        ),
        None => format!("script #{script_idx} -> kernel #{}", script.kernel),
    };
    let table: &[(String, u32)] = model
        .kernels
        .get(script.kernel)
        .map_or(&[], |k| k.opcodes.as_slice());

    // Each dispatch occupies two inbound-mailbox words (opcode + arg),
    // so the 4-deep inbound box sustains at most two in-flight requests.
    const INBOUND_MAILBOX_DEPTH: usize = 4;
    const WORDS_PER_DISPATCH: usize = 2;
    let window = script.window.max(1);
    if window * WORDS_PER_DISPATCH > INBOUND_MAILBOX_DEPTH {
        emit(Finding::new(
            Severity::Warning,
            "window-exceeds-mailbox",
            subject.clone(),
            format!(
                "declared in-flight window {window} needs {} mailbox words but the inbound \
                 mailbox is {INBOUND_MAILBOX_DEPTH}-deep; sends beyond depth {} stall the PPE \
                 (or fail outright under try-write dispatch)",
                window * WORDS_PER_DISPATCH,
                INBOUND_MAILBOX_DEPTH / WORDS_PER_DISPATCH,
            ),
        ));
    }

    let mut pending = 0usize;
    let mut closed = false;
    // Retired slots need a code re-upload before they are dispatchable
    // again — the respawn invariant `cell-serve` relies on.
    let mut retired = false;
    for op in &script.ops {
        match *op {
            ScriptOp::Send { opcode } => {
                if retired {
                    emit(Finding::new(
                        Severity::Error,
                        "respawn-missing-upload",
                        subject.clone(),
                        format!(
                            "opcode {opcode} dispatched to a retired SPE slot whose dispatcher \
                             code was never re-uploaded; the fresh context has no Listing 3 \
                             loop to serve it"
                        ),
                    ));
                }
                if opcode == SPU_EXIT {
                    emit(Finding::new(
                        Severity::Error,
                        "dispatch-unknown-opcode",
                        subject.clone(),
                        "script sends SPU_EXIT as a kernel opcode; use Close".to_string(),
                    ));
                } else if !table.iter().any(|(_, o)| *o == opcode) {
                    let known: Vec<String> =
                        table.iter().map(|(n, o)| format!("{n}={o}")).collect();
                    emit(Finding::new(
                        Severity::Error,
                        "dispatch-unknown-opcode",
                        subject.clone(),
                        format!(
                            "opcode {opcode} is not registered on the dispatcher (table: {}); \
                             the Listing 3 loop will never reply and the PPE blocks forever",
                            known.join(", ")
                        ),
                    ));
                }
                if pending >= window {
                    emit(Finding::new(
                        Severity::Warning,
                        "mailbox-double-send",
                        subject.clone(),
                        format!(
                            "dispatch sent with {pending} reply(ies) still pending, past the \
                             declared in-flight window of {window}; the 4-deep mailbox can \
                             deadlock under depth"
                        ),
                    ));
                }
                pending += 1;
            }
            ScriptOp::SendBatch { opcode, count } => {
                if retired {
                    emit(Finding::new(
                        Severity::Error,
                        "respawn-missing-upload",
                        subject.clone(),
                        format!(
                            "SPU_BATCH frame (opcode {opcode}) dispatched to a retired SPE slot \
                             whose dispatcher code was never re-uploaded"
                        ),
                    ));
                }
                if count == 0 || count as usize > portkit::opcodes::MAX_BATCH {
                    emit(Finding::new(
                        Severity::Error,
                        "batch-count-invalid",
                        subject.clone(),
                        format!(
                            "SPU_BATCH frame declares {count} members; the dispatcher accepts \
                             1..={} per frame",
                            portkit::opcodes::MAX_BATCH
                        ),
                    ));
                }
                if !table.iter().any(|(_, o)| *o == opcode) {
                    let known: Vec<String> =
                        table.iter().map(|(n, o)| format!("{n}={o}")).collect();
                    emit(Finding::new(
                        Severity::Error,
                        "dispatch-unknown-opcode",
                        subject.clone(),
                        format!(
                            "batch member opcode {opcode} is not registered on the dispatcher \
                             (table: {}); the batch loop replies SPU_CORRUPT or never at all",
                            known.join(", ")
                        ),
                    ));
                }
                if pending >= window {
                    emit(Finding::new(
                        Severity::Warning,
                        "mailbox-double-send",
                        subject.clone(),
                        format!(
                            "SPU_BATCH frame sent with {pending} reply(ies) still pending, past \
                             the declared in-flight window of {window}; batch frames stream \
                             {} words through the 4-deep mailbox and rely on the dispatcher \
                             draining as they arrive",
                            2 + 2 * count as usize
                        ),
                    ));
                }
                // One summary reply per frame, however many members.
                pending += 1;
            }
            ScriptOp::WaitReply => {
                if pending == 0 {
                    emit(Finding::new(
                        Severity::Error,
                        "mailbox-read-no-pending",
                        subject.clone(),
                        "reply read with no dispatch outstanding; the PPE blocks on an empty mailbox forever".to_string(),
                    ));
                } else {
                    pending -= 1;
                }
            }
            ScriptOp::Retire => {
                if pending > 0 {
                    emit(Finding::new(
                        Severity::Warning,
                        "mailbox-close-pending",
                        subject.clone(),
                        format!(
                            "SPE retired with {pending} reply(ies) still pending; the context \
                             teardown discards them"
                        ),
                    ));
                }
                // Mailboxes die with the context: nothing stays pending.
                pending = 0;
                retired = true;
            }
            ScriptOp::UploadCode => {
                retired = false;
            }
            ScriptOp::Close => {
                if pending > 0 {
                    emit(Finding::new(
                        Severity::Warning,
                        "mailbox-close-pending",
                        subject.clone(),
                        format!("SPU_EXIT sent with {pending} reply(ies) unread; replies are lost"),
                    ));
                }
                closed = true;
            }
        }
    }
    // A slot left retired has no dispatcher loop to exit; otherwise the
    // script must Close or the join hangs.
    if !closed && !retired {
        emit(Finding::new(
            Severity::Error,
            "dispatch-missing-exit",
            subject,
            "script never sends SPU_EXIT; the dispatcher loop keeps the SPE resident and join hangs".to_string(),
        ));
    }
}

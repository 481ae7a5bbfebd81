//! Executable porting advice — the optimization checklists the paper
//! leans on (§4.1, and Brokenshire's "25 tips", its ref. \[7\]) as rules
//! that inspect an actual porting artifact instead of a PDF.
//!
//! Every rule returns [`Advice`] with a severity: `Error` breaks the port
//! (the MFC will reject it), `Warning` costs real performance, `Hint` is
//! a tuning opportunity.

use cell_core::{CACHE_LINE, QUADWORD};
use cell_mem::StructLayout;

use crate::amdahl::KernelSpec;
use crate::schedule::Schedule;

/// How much a finding matters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    Hint,
    Warning,
    Error,
}

impl Severity {
    /// Stable lowercase name, used in JSON reports.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Hint => "hint",
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

/// One finding from an advisor rule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Advice {
    pub severity: Severity,
    /// Stable rule id, e.g. `"wrapper-alignment"`.
    pub rule: &'static str,
    pub message: String,
}

impl Advice {
    fn new(severity: Severity, rule: &'static str, message: String) -> Self {
        Advice {
            severity,
            rule,
            message,
        }
    }

    /// Render as one JSON object, with the message escaped by
    /// [`cell_trace::escape_json`] so reports need no serialization
    /// dependency.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut msg = String::with_capacity(self.message.len());
        cell_trace::escape_json(&self.message, &mut msg);
        format!(
            "{{\"severity\":\"{}\",\"rule\":\"{}\",\"message\":\"{msg}\"}}",
            self.severity.as_str(),
            self.rule
        )
    }
}

/// Check a data-wrapper layout for DMA friendliness (paper §3.3's
/// "preserve/enforce data alignment for future DMA operations").
#[must_use]
pub fn check_wrapper(layout: &StructLayout) -> Vec<Advice> {
    let mut out = Vec::new();
    if layout.is_empty() {
        out.push(Advice::new(
            Severity::Error,
            "wrapper-empty",
            "wrapper has no fields".into(),
        ));
        return out;
    }
    if !layout.size().is_multiple_of(QUADWORD) {
        out.push(Advice::new(
            Severity::Error,
            "wrapper-size",
            format!("wrapper size {} is not a quadword multiple", layout.size()),
        ));
    }
    if !layout.size().is_multiple_of(CACHE_LINE) {
        out.push(Advice::new(
            Severity::Hint,
            "wrapper-cacheline",
            format!(
                "wrapper size {} is not a 128-byte multiple; padding it reaches peak EIB efficiency",
                layout.size()
            ),
        ));
    }
    // Scalar fields scattered between buffers force extra DMA setup; the
    // tip is headers first, bulk buffers last.
    let mut seen_buffer = false;
    for (name, _off, size) in layout.iter() {
        let is_buffer = size > 16;
        if seen_buffer && !is_buffer {
            out.push(Advice::new(
                Severity::Warning,
                "wrapper-field-order",
                format!("scalar field `{name}` follows a bulk buffer; group scalars in the header so one small DMA fetches them all"),
            ));
        }
        seen_buffer |= is_buffer;
    }
    out
}

/// Check a transfer plan: `chunk` bytes per DMA over `total` bytes.
#[must_use]
pub fn check_transfer(chunk: usize, total: usize, buffers: usize) -> Vec<Advice> {
    let mut out = Vec::new();
    if chunk == 0 || !matches!(chunk, 1 | 2 | 4 | 8) && !chunk.is_multiple_of(QUADWORD) {
        out.push(Advice::new(
            Severity::Error,
            "transfer-size",
            format!("{chunk}-byte transfers are not a legal MFC size"),
        ));
        return out;
    }
    if chunk > cell_core::config::DMA_MAX_TRANSFER {
        out.push(Advice::new(
            Severity::Error,
            "transfer-cap",
            format!(
                "{chunk}-byte transfers exceed the 16 KB single-DMA cap; split or use get_large"
            ),
        ));
    }
    if chunk < CACHE_LINE {
        out.push(Advice::new(
            Severity::Warning,
            "transfer-small",
            format!("{chunk}-byte transfers waste the EIB: each costs a full command-bus slot; batch to at least 128 bytes"),
        ));
    }
    if !chunk.is_multiple_of(CACHE_LINE) {
        out.push(Advice::new(
            Severity::Hint,
            "transfer-cacheline",
            format!("{chunk}-byte chunks are not 128-byte multiples; aligned multiples hit peak bandwidth"),
        ));
    }
    if buffers < 2 && total > chunk {
        out.push(Advice::new(
            Severity::Warning,
            "transfer-single-buffered",
            "single-buffered streaming stalls the SPU on every chunk; double-buffer (paper §4.1)"
                .into(),
        ));
    }
    let transfers = total.div_ceil(chunk.max(1));
    if transfers > 4096 {
        out.push(Advice::new(
            Severity::Hint,
            "transfer-count",
            format!("{transfers} transfers for {total} bytes; larger chunks or DMA lists amortize startup"),
        ));
    }
    out
}

/// Check a kernel's local-store budget (paper §3.2's sizing rule).
#[must_use]
pub fn check_kernel_budget(code_bytes: usize, data_bytes: usize, ls_size: usize) -> Vec<Advice> {
    let mut out = Vec::new();
    let total = code_bytes + data_bytes;
    if total > ls_size {
        out.push(Advice::new(
            Severity::Error,
            "ls-overflow",
            format!("kernel needs {total} B but the local store holds {ls_size} B; slice the data (§3.4)"),
        ));
    } else if total > ls_size * 9 / 10 {
        out.push(Advice::new(
            Severity::Warning,
            "ls-tight",
            format!("kernel uses {total} of {ls_size} B; no headroom for deeper buffering"),
        ));
    }
    if data_bytes < 4096 && data_bytes > 0 {
        out.push(Advice::new(
            Severity::Hint,
            "kernel-too-small",
            "the kernel moves very little data per invocation; mailbox and DMA startup may dominate — cluster more methods around it (§3.2)".into(),
        ));
    }
    out
}

/// Check a schedule against its kernel specs: imbalance inside parallel
/// groups wastes SPEs (the group finishes with its slowest member).
#[must_use]
pub fn check_schedule(schedule: &Schedule, kernels: &[KernelSpec]) -> Vec<Advice> {
    let mut out = Vec::new();
    for (gi, group) in schedule.groups().iter().enumerate() {
        if group.len() < 2 {
            continue;
        }
        let times: Vec<f64> = group
            .iter()
            .filter_map(|&k| kernels.get(k))
            .map(|k| k.fraction / k.speedup)
            .collect();
        let (min, max) = times
            .iter()
            .fold((f64::MAX, 0.0f64), |(lo, hi), &t| (lo.min(t), hi.max(t)));
        if min > 0.0 && max / min > 8.0 {
            out.push(Advice::new(
                Severity::Warning,
                "schedule-imbalance",
                format!(
                    "group {gi} is imbalanced ({:.0}x between slowest and fastest member); the fast SPEs idle — consider splitting the dominant kernel or re-grouping",
                    max / min
                ),
            ));
        }
    }
    for k in kernels {
        if k.speedup < 1.0 {
            out.push(Advice::new(
                Severity::Warning,
                "kernel-slower-than-host",
                format!(
                    "kernel `{}` runs at {:.2}x — slower than the host (the paper's unoptimized CC did exactly this); optimize before shipping",
                    k.name, k.speedup
                ),
            ));
        }
    }
    out
}

/// Highest severity in a finding set (`None` if clean).
#[must_use]
pub fn worst(advice: &[Advice]) -> Option<Severity> {
    advice.iter().map(|a| a.severity).max()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_wrapper_passes() {
        let mut l = StructLayout::new();
        l.field_u32("width").unwrap();
        l.field_u32("height").unwrap();
        l.field_addr("image_ea").unwrap();
        l.field_buffer("out", 512 - 16).unwrap();
        let advice = check_wrapper(&l);
        assert!(
            advice.iter().all(|a| a.severity == Severity::Hint),
            "{advice:?}"
        );
    }

    #[test]
    fn scalar_after_buffer_is_flagged() {
        let mut l = StructLayout::new();
        l.field_buffer("pixels", 4096).unwrap();
        l.field_u32("width").unwrap();
        let advice = check_wrapper(&l);
        assert!(advice.iter().any(|a| a.rule == "wrapper-field-order"));
    }

    #[test]
    fn empty_wrapper_is_an_error() {
        let advice = check_wrapper(&StructLayout::new());
        assert_eq!(worst(&advice), Some(Severity::Error));
    }

    #[test]
    fn transfer_rules() {
        // Illegal size.
        assert_eq!(
            worst(&check_transfer(24, 1 << 20, 2)),
            Some(Severity::Error)
        );
        // Tiny transfers.
        assert!(check_transfer(16, 1 << 20, 2)
            .iter()
            .any(|a| a.rule == "transfer-small"));
        // Over the cap.
        assert!(check_transfer(32 * 1024, 1 << 20, 2)
            .iter()
            .any(|a| a.rule == "transfer-cap"));
        // Single buffered streaming.
        assert!(check_transfer(4096, 1 << 20, 1)
            .iter()
            .any(|a| a.rule == "transfer-single-buffered"));
        // Clean plan: 16 KB double-buffered chunks.
        let clean = check_transfer(16 * 1024, 1 << 20, 2);
        assert!(clean.is_empty(), "{clean:?}");
    }

    #[test]
    fn budget_rules() {
        let ls = 256 * 1024;
        assert_eq!(
            worst(&check_kernel_budget(64 << 10, 300 << 10, ls)),
            Some(Severity::Error)
        );
        assert!(check_kernel_budget(32 << 10, 210 << 10, ls)
            .iter()
            .any(|a| a.rule == "ls-tight"));
        assert!(check_kernel_budget(16 << 10, 1 << 10, ls)
            .iter()
            .any(|a| a.rule == "kernel-too-small"));
        assert!(check_kernel_budget(32 << 10, 128 << 10, ls).is_empty());
    }

    #[test]
    fn schedule_rules() {
        let kernels = vec![
            KernelSpec::new("big", 0.60, 10.0),
            KernelSpec::new("tiny", 0.002, 10.0),
            KernelSpec::new("slow", 0.10, 0.4),
        ];
        let schedule = Schedule::grouped(vec![vec![0, 1, 2]], 8).unwrap();
        let advice = check_schedule(&schedule, &kernels);
        assert!(
            advice.iter().any(|a| a.rule == "schedule-imbalance"),
            "{advice:?}"
        );
        assert!(advice.iter().any(|a| a.rule == "kernel-slower-than-host"));
        // Singleton groups don't trigger imbalance.
        let seq = Schedule::sequential(3, 8).unwrap();
        let advice = check_schedule(&seq, &kernels);
        assert!(advice.iter().all(|a| a.rule != "schedule-imbalance"));
    }

    #[test]
    fn advice_to_json_escapes_and_tags() {
        let a = Advice::new(
            Severity::Error,
            "wrapper-size",
            "bad \"quote\"\nline".into(),
        );
        assert_eq!(
            a.to_json(),
            "{\"severity\":\"error\",\"rule\":\"wrapper-size\",\
             \"message\":\"bad \\\"quote\\\"\\nline\"}"
        );
    }

    #[test]
    fn worst_orders_severities() {
        assert_eq!(worst(&[]), None);
        let mix = vec![
            Advice::new(Severity::Hint, "a", String::new()),
            Advice::new(Severity::Warning, "b", String::new()),
        ];
        assert_eq!(worst(&mix), Some(Severity::Warning));
    }
}

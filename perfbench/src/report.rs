//! Metric names, the result line, spans and host-resource readings.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use crate::stats::{fail_frac, percentile, quartiles, rate, Call, Failures};

/// End-to-end metrics, reported by every workload from untraced runs:
/// `(name, unit)`.
pub const END_TO_END: [(&str, &str); 6] = [
    ("host_items_per_s", "items/s"),
    ("sim_items_per_s", "items/s"),
    ("req_host_p50_ms", "ms"),
    ("req_host_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, reported by every workload from traced runs:
/// `(name, unit)`. A layer the workload never enters reports 0.
pub const PER_LAYER: [(&str, &str); 37] = [
    ("cell-sys.mailbox_words_per_item", "words/item"),
    ("cell-sys.mailbox_stall_cycles_per_item", "cycles/item"),
    ("cell-mfc.dma_bytes_per_item", "B/item"),
    ("cell-mfc.dma_stall_cycles_per_item", "cycles/item"),
    ("cell-mfc.dma_list_cmds_per_item", "cmds/item"),
    ("cell-eib.transfers_per_item", "transfers/item"),
    ("cell-eib.queued_cycles_per_transfer", "cycles"),
    ("cell-engine.dispatches_per_item", "dispatch/item"),
    ("cell-engine.retries", "count"),
    ("cell-engine.inflight_max", "count"),
    ("cell-isa.instructions_per_item", "inst/item"),
    ("cell-isa.sim_cycles_per_item", "cycles/item"),
    ("cell-isa.dual_issue_rate", "ratio"),
    ("cell-serve.shed", "count"),
    ("cell-serve.degraded", "count"),
    ("cell-serve.retransmits", "count"),
    ("cell-serve.sim_latency_p50_ms", "ms"),
    ("cell-serve.sim_latency_p99_ms", "ms"),
    ("cell-serve.sim_queue_wait_p99_ms", "ms"),
    ("cell-durable.appends_per_item", "appends/item"),
    ("cell-durable.flushes_per_item", "flushes/item"),
    ("cell-durable.journal_bytes_per_item", "B/item"),
    ("cell-durable.checkpoints", "count/1000req"),
    ("marvel.decode_host_us", "us"),
    ("marvel.ch_host_us", "us"),
    ("marvel.cc_host_us", "us"),
    ("marvel.tx_host_us", "us"),
    ("marvel.eh_host_us", "us"),
    ("marvel.cd_host_us", "us"),
    ("cell-mem.copy_host_us_per_mib", "us/MiB"),
    ("cell-engine.roundtrip_host_us", "us"),
    ("cell-isa.host_ns_per_inst", "ns"),
    ("cell-isa.native_ratio", "ratio"),
    ("cell-durable.append_host_us", "us"),
    ("bench.unattributed_frac", "ratio"),
    ("cell-trace.overhead_ratio", "ratio"),
    ("bench.fail_frac", "ratio"),
];

/// What one workload run produced: metric values by name, the item
/// accounting behind `fail_frac`, and lines for the human-readable part
/// of the output.
#[derive(Debug, Default)]
pub struct Outcome {
    pub values: BTreeMap<&'static str, f64>,
    pub attempted: u64,
    pub failures: Failures,
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END
                .iter()
                .chain(PER_LAYER.iter())
                .any(|(n, _)| *n == name),
            "unlisted metric {name}"
        );
        self.values.insert(name, value);
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// The run's items all passed every check.
    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.failures.total() == 0
    }

    /// Print the notes, one line per metric, and the result object as
    /// the last line.
    pub fn print(&self, workload: &str, traced: bool) {
        let listed: &[(&str, &str)] = if traced { &PER_LAYER } else { &END_TO_END };
        for note in &self.notes {
            println!("# {note}");
        }
        let failures = self.failures;
        println!(
            "# {workload}: attempted {} items, failed {} (errors {}, shed {}, degraded {}, mismatches {}), fail_frac {}",
            self.attempted,
            failures.total(),
            failures.errors,
            failures.shed,
            failures.degraded,
            failures.mismatches,
            fail_frac(self.attempted, &failures),
        );
        let mut json = String::new();
        let _ = write!(
            json,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            failures.total()
        );
        for (i, (name, unit)) in listed.iter().enumerate() {
            let value = self.values.get(name).copied().unwrap_or(0.0);
            let value = if value.is_finite() { value } else { 0.0 };
            println!("{workload} {name} = {value} {unit}");
            if i > 0 {
                json.push_str(", ");
            }
            let _ = write!(
                json,
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        json.push_str("}}");
        println!("{json}");
    }
}

/// The timed calls of one measured phase and the request latencies
/// inside it.
#[derive(Debug, Default)]
pub struct Phase {
    pub calls: Vec<Call>,
    /// Host wall seconds a caller waited for each request.
    pub latencies_s: Vec<f64>,
}

impl Phase {
    pub fn items(&self) -> u64 {
        self.calls.iter().map(|c| c.items).sum()
    }

    /// Items per host-wall second over the whole phase.
    pub fn host_rate(&self) -> f64 {
        rate(self.items(), self.calls.iter().map(|c| c.host_s).sum())
    }

    /// Items per simulated second (PPE clock) over the whole phase.
    pub fn sim_rate(&self) -> f64 {
        rate(self.items(), self.calls.iter().map(|c| c.sim_s).sum())
    }

    /// Set the end-to-end metrics this phase measures and note the
    /// sample counts behind them.
    pub fn report(&self, out: &mut Outcome) {
        out.set("host_items_per_s", self.host_rate());
        out.set("sim_items_per_s", self.sim_rate());
        let ms: Vec<f64> = self.latencies_s.iter().map(|s| s * 1e3).collect();
        if let Some((q1, q3)) = quartiles(&ms) {
            out.note(format!(
                "{} items in {} calls; request host ms in-run quartiles {q1:.3}..{q3:.3}",
                self.items(),
                self.calls.len()
            ));
        }
        // p99 is printed for the workloads with enough requests to support
        // it; it is not a recorded metric.
        for (name, q) in [
            ("req_host_p50_ms", 0.5),
            ("req_host_p90_ms", 0.9),
            ("req_host_p99_ms", 0.99),
        ] {
            if let Some(p) = percentile(&ms, q) {
                if q < 0.99 {
                    out.set(name, p.value);
                } else {
                    out.note(format!("{name} = {} ms", p.value));
                }
                out.note(format!(
                    "{name}: n = {}, {} samples beyond{}",
                    p.n,
                    p.beyond,
                    if p.supported() {
                        ""
                    } else {
                        " (fewer than 10: unsupported tail)"
                    }
                ));
            }
        }
    }
}

/// Host resident-set high-water mark of this process, in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One span recorded around a call the benchmark makes into the program.
#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    item: Option<u64>,
}

/// Spans kept in memory for the whole run and written out once at the
/// end. Disabled (every call a no-op) in untraced runs.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

/// Handle of an open span; `NONE` when recording is off.
pub type SpanId = Option<usize>;

impl Spans {
    pub fn new(enabled: bool) -> Spans {
        Spans {
            origin: Instant::now(),
            enabled,
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    pub fn open(&mut self, name: &'static str, parent: SpanId, item: Option<u64>) -> SpanId {
        if !self.enabled {
            return None;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            item,
        });
        Some(self.spans.len() - 1)
    }

    pub fn close(&mut self, id: SpanId) {
        if let Some(i) = id {
            self.spans[i].end_ns = self.now_ns();
        }
    }

    /// Record a span timed elsewhere (on an SPE thread, say).
    pub fn record(
        &mut self,
        name: &'static str,
        parent: SpanId,
        item: Option<u64>,
        (start, end): (Instant, Instant),
    ) {
        if !self.enabled {
            return;
        }
        let ns = |t: Instant| {
            u64::try_from(t.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
        };
        self.spans.push(Span {
            name,
            start_ns: ns(start),
            end_ns: ns(end),
            parent,
            item,
        });
    }

    /// Run `f` inside a span.
    pub fn scope<T>(
        &mut self,
        name: &'static str,
        parent: SpanId,
        item: Option<u64>,
        f: impl FnOnce(&mut Spans) -> T,
    ) -> T {
        let id = self.open(name, parent, item);
        let out = f(self);
        self.close(id);
        out
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// The spans as one JSON array.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let _ = write!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"item\":{}}}",
                s.name,
                s.start_ns,
                s.end_ns,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.item.map_or("null".to_string(), |p| p.to_string()),
            );
        }
        out.push_str("]\n");
        out
    }
}

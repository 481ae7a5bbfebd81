//! SLO metrics: a registry of named counters, gauges and histograms
//! with dependency-free Prometheus-text and JSON snapshot exporters.
//!
//! The registry is deliberately dumb — `BTreeMap`s keyed by name, so
//! exports are stable-ordered and diffable run to run. Latency
//! distributions reuse [`LogHistogram`]: power-of-two buckets are exact
//! enough for p50/p95/p99 SLO reporting and cost a fixed 65×8 bytes.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use cell_trace::json::JsonWriter;
use cell_trace::LogHistogram;

/// The quantiles every histogram exports (Prometheus summary style).
pub const QUANTILES: [(f64, &str); 3] = [(0.5, "0.5"), (0.95, "0.95"), (0.99, "0.99")];

/// Named counters, gauges and latency histograms for one run.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, LogHistogram>,
}

impl MetricsRegistry {
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Add `delta` to a monotonic counter (created at 0 on first use).
    /// Lookups borrow `name`; only a metric's first use allocates.
    pub fn inc(&mut self, name: &str, delta: u64) {
        if let Some(v) = self.counters.get_mut(name) {
            *v = v.saturating_add(delta);
        } else {
            self.counters.insert(name.to_string(), delta);
        }
    }

    /// Set a gauge to its latest value.
    pub fn set_gauge(&mut self, name: &str, value: f64) {
        match self.gauges.get_mut(name) {
            Some(v) => *v = value,
            None => {
                self.gauges.insert(name.to_string(), value);
            }
        }
    }

    /// Raise a gauge to at least `value` (high-water semantics).
    pub fn raise_gauge(&mut self, name: &str, value: f64) {
        match self.gauges.get_mut(name) {
            Some(v) => *v = v.max(value),
            None => {
                self.gauges.insert(name.to_string(), value);
            }
        }
    }

    /// Record one observation into a named histogram.
    pub fn observe(&mut self, name: &str, value: u64) {
        match self.histograms.get_mut(name) {
            Some(h) => h.record(value),
            None => {
                let mut h = LogHistogram::new();
                h.record(value);
                self.histograms.insert(name.to_string(), h);
            }
        }
    }

    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    pub fn histogram(&self, name: &str) -> Option<&LogHistogram> {
        self.histograms.get(name)
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Prometheus text exposition format: counters as `counter`, gauges
    /// as `gauge`, histograms as `summary` with p50/p95/p99 quantile
    /// lines plus `_sum`/`_count`/`_max`. Names are sanitized to the
    /// Prometheus charset (`[a-zA-Z0-9_:]`).
    pub fn to_prometheus_text(&self) -> String {
        let mut out = String::with_capacity(1024);
        for (name, value) in &self.counters {
            let name = sanitize(name);
            let _ = writeln!(out, "# TYPE {name} counter");
            let _ = writeln!(out, "{name} {value}");
        }
        for (name, value) in &self.gauges {
            let name = sanitize(name);
            let _ = writeln!(out, "# TYPE {name} gauge");
            let _ = writeln!(out, "{name} {value}");
        }
        for (name, h) in &self.histograms {
            let name = sanitize(name);
            let _ = writeln!(out, "# TYPE {name} summary");
            for (q, label) in QUANTILES {
                let _ = writeln!(out, "{name}{{quantile=\"{label}\"}} {}", h.percentile(q));
            }
            let _ = writeln!(out, "{name}_sum {}", h.sum());
            let _ = writeln!(out, "{name}_count {}", h.count());
            let _ = writeln!(out, "{name}_max {}", h.max());
        }
        out
    }

    /// JSON snapshot with the same content as the Prometheus export. A
    /// non-finite gauge exports as `null`.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::default();
        w.begin_object().key("counters").begin_object();
        for (name, value) in &self.counters {
            w.key(name).u64(*value);
        }
        w.end_object().key("gauges").begin_object();
        for (name, value) in &self.gauges {
            w.key(name).f64(*value);
        }
        w.end_object().key("histograms").begin_object();
        for (name, h) in &self.histograms {
            w.key(name).begin_object();
            w.key("count").u64(h.count()).key("sum").u64(h.sum());
            w.key("max").u64(h.max()).key("mean").fixed(h.mean(), 3);
            w.key("p50").u64(h.percentile(0.5));
            w.key("p95").u64(h.percentile(0.95));
            w.key("p99").u64(h.percentile(0.99)).end_object();
        }
        w.end_object().end_object();
        w.finish()
    }
}

/// Replace everything outside the Prometheus metric-name charset.
fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_records_and_reads_back() {
        let mut m = MetricsRegistry::new();
        assert!(m.is_empty());
        m.inc("requests_total", 1);
        m.inc("requests_total", 2);
        m.set_gauge("queue_depth", 4.0);
        m.raise_gauge("queue_depth", 2.0);
        for v in [100u64, 200, 400, 800] {
            m.observe("e2e_latency_cycles", v);
        }
        assert_eq!(m.counter("requests_total"), 3);
        assert_eq!(m.counter("missing"), 0);
        assert_eq!(m.gauge("queue_depth"), Some(4.0));
        let h = m.histogram("e2e_latency_cycles").unwrap();
        assert_eq!(h.count(), 4);
        assert!(!m.is_empty());
    }

    #[test]
    fn prometheus_text_has_types_and_quantiles() {
        let mut m = MetricsRegistry::new();
        m.inc("shed_total", 2);
        m.set_gauge("spe0_busy", 0.75);
        m.observe("lat", 1000);
        let text = m.to_prometheus_text();
        assert!(text.contains("# TYPE shed_total counter\nshed_total 2\n"));
        assert!(text.contains("# TYPE spe0_busy gauge\nspe0_busy 0.75\n"));
        assert!(text.contains("# TYPE lat summary"));
        assert!(text.contains("lat{quantile=\"0.5\"}"));
        assert!(text.contains("lat{quantile=\"0.99\"}"));
        assert!(text.contains("lat_sum 1000"));
        assert!(text.contains("lat_count 1"));
    }

    #[test]
    fn metric_names_are_sanitized_for_prometheus() {
        let mut m = MetricsRegistry::new();
        m.inc("spe[3].sheds/sec", 1);
        let text = m.to_prometheus_text();
        assert!(text.contains("spe_3__sheds_sec 1"));
    }

    #[test]
    fn json_snapshot_is_balanced_and_complete() {
        let mut m = MetricsRegistry::new();
        m.inc("a", 1);
        m.set_gauge("b", 2.5);
        m.observe("c", 9);
        let json = m.to_json();
        assert!(json.starts_with("{\"counters\":{"));
        assert!(json.contains("\"a\":1"));
        assert!(json.contains("\"b\":2.5"));
        assert!(json.contains("\"p95\":"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json,
            "{\"counters\":{\"a\":1},\"gauges\":{\"b\":2.5},\
            \"histograms\":{\"c\":{\"count\":1,\"sum\":9,\"max\":9,\"mean\":9.000,\"p50\":15,\"p95\":15,\"p99\":15}}}"
        );
        // Empty registry still exports valid skeletons.
        let empty = MetricsRegistry::new();
        assert_eq!(
            empty.to_json(),
            "{\"counters\":{},\"gauges\":{},\"histograms\":{}}"
        );
        assert!(empty.to_prometheus_text().is_empty());
        // Several entries per section, names needing every escape, and a
        // mean that rounds to three decimals.
        let mut m = MetricsRegistry::new();
        m.inc("a\"b\\c\nd\u{2}", 7);
        m.inc("z", 0);
        m.set_gauge("g1", 0.1);
        m.set_gauge("g2", -3.0);
        m.set_gauge("g3", 1e21);
        m.observe("h1", 1);
        m.observe("h1", 2);
        m.observe("h1", 2);
        m.observe("h2", 1000);
        assert_eq!(m.to_json(),
            "{\"counters\":{\"a\\\"b\\\\c\\nd\\u0002\":7,\"z\":0},\
            \"gauges\":{\"g1\":0.1,\"g2\":-3,\"g3\":1000000000000000000000},\
            \"histograms\":{\"h1\":{\"count\":3,\"sum\":5,\"max\":2,\"mean\":1.667,\"p50\":3,\"p95\":3,\"p99\":3},\
            \"h2\":{\"count\":1,\"sum\":1000,\"max\":1000,\"mean\":1000.000,\"p50\":1023,\"p95\":1023,\"p99\":1023}}}"
        );
    }

    #[test]
    fn json_renders_non_finite_gauges_as_null() {
        let mut m = MetricsRegistry::new();
        m.set_gauge("nan", f64::NAN);
        m.set_gauge("neg_inf", f64::NEG_INFINITY);
        m.set_gauge("pos_inf", f64::INFINITY);
        assert_eq!(
            m.to_json(),
            "{\"counters\":{},\"gauges\":{\"nan\":null,\"neg_inf\":null,\"pos_inf\":null},\
             \"histograms\":{}}"
        );
        // The Prometheus exposition keeps its own spelling.
        assert!(m.to_prometheus_text().contains("nan NaN\n"));
    }
}

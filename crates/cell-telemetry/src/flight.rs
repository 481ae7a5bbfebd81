//! Post-mortem flight-recorder dumps.
//!
//! A serving runtime keeps its tracers in [`cell_trace::TraceConfig`]
//! `Counters` or `Full`; either way the tracer retains the most recent
//! events ([`cell_trace::Tracer::flight_events`]). When something goes
//! wrong — breaker trip, SPE respawn, checksum retransmit — the runtime
//! snapshots that ring plus the metrics registry into a [`FlightDump`],
//! so every `cell-fault` soak failure ships its own evidence.

use cell_trace::json::JsonWriter;
use cell_trace::TraceEvent;

use crate::metrics::MetricsRegistry;

/// One post-mortem artifact: why, when, the recent events, and the
/// metrics snapshot taken at the same instant.
#[derive(Debug, Clone)]
pub struct FlightDump {
    /// What triggered the dump (`"breaker_open"`, `"respawn"`,
    /// `"checksum_retransmit"`, `"timeout"`, …).
    pub reason: String,
    /// PPE virtual clock at the trigger.
    pub at_cycles: u64,
    /// Host wall-clock at the trigger, µs since the run started.
    pub at_wall_us: u64,
    /// The recent-event window, oldest first.
    pub events: Vec<TraceEvent>,
    /// `MetricsRegistry::to_json()` taken at the trigger.
    pub metrics_json: String,
}

impl FlightDump {
    /// Capture a dump from a tracer's recent-event window and the
    /// current metrics.
    pub fn capture(
        reason: &str,
        at_cycles: u64,
        at_wall_us: u64,
        events: Vec<TraceEvent>,
        metrics: &MetricsRegistry,
    ) -> Self {
        FlightDump {
            reason: reason.to_string(),
            at_cycles,
            at_wall_us,
            events,
            metrics_json: metrics.to_json(),
        }
    }

    /// Self-contained JSON artifact (uploadable from CI as-is).
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::default();
        w.begin_object().key("reason").str(&self.reason);
        w.key("at_cycles").u64(self.at_cycles);
        w.key("at_wall_us").u64(self.at_wall_us);
        w.key("metrics").raw(&self.metrics_json);
        w.key("events").begin_array();
        for e in &self.events {
            w.begin_object().key("ts").u64(e.ts).key("dur").u64(e.dur);
            w.key("kind").str(&format!("{:?}", e.kind));
            w.key("label").str(e.label);
            w.key("arg0").u64(e.arg0).key("arg1").u64(e.arg1);
            w.key("ea").u64(e.ea).key("span").u64(e.span).end_object();
        }
        w.end_array().end_object();
        w.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cell_trace::{EventKind, TraceConfig, Tracer, Track};

    #[test]
    fn dump_serializes_ring_and_metrics() {
        let mut t = Tracer::new(TraceConfig::Counters, Track::Ppe, 3.2e9);
        t.set_flight_capacity(2);
        t.span(EventKind::Recovery, "breaker_open", 10, 0, 3, 0);
        t.span_tagged(EventKind::Request, "request", 20, 5, 1, 0, 9);
        let mut m = MetricsRegistry::new();
        m.inc("breaker_trips_total", 1);
        let dump = FlightDump::capture("breaker_open", 1234, 56, t.flight_events(), &m);
        assert_eq!(dump.events.len(), 2);
        let json = dump.to_json();
        assert!(json.contains("\"reason\":\"breaker_open\""));
        assert!(json.contains("\"at_cycles\":1234"));
        assert!(json.contains("\"breaker_trips_total\":1"));
        assert!(json.contains("\"kind\":\"Request\""));
        assert!(json.contains("\"span\":9"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        assert_eq!(json,
            "{\"reason\":\"breaker_open\",\"at_cycles\":1234,\"at_wall_us\":56,\"metrics\":{\"counters\":{\"breaker_trips_total\":1},\
            \"gauges\":{},\"histograms\":{}},\"events\":[\
            {\"ts\":10,\"dur\":0,\"kind\":\"Recovery\",\"label\":\"breaker_open\",\"arg0\":3,\"arg1\":0,\"ea\":0,\"span\":0},\
            {\"ts\":20,\"dur\":5,\"kind\":\"Request\",\"label\":\"request\",\"arg0\":1,\"arg1\":0,\"ea\":0,\"span\":9}]}"
        );
        // An empty ring, an empty registry, a reason needing every escape.
        let dump = FlightDump::capture("x\"y\\z\n\u{7}", 0, 0, Vec::new(), &MetricsRegistry::new());
        assert_eq!(dump.to_json(),
            "{\"reason\":\"x\\\"y\\\\z\\n\\u0007\",\"at_cycles\":0,\"at_wall_us\":0,\"metrics\":{\"counters\":{},\
            \"gauges\":{},\"histograms\":{}},\"events\":[]}"
        );
    }
}

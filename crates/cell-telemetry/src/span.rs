//! Per-request span trees reconstructed from span-stamped trace events.
//!
//! Every event a tracer records carries a `span` field: the trace id of
//! the serving-plane request it belongs to, or 0 for machine background
//! work. The serving layer records one [`EventKind::Request`] root per
//! admitted request; `cell-engine` tags the request's PPE dispatch spans
//! and mailbox sends, and the `SPU_SPAN` wire prefix makes the SPE-side
//! kernel, mailbox and DMA events inherit the same id. This module
//! groups a finished [`TraceReport`] by that id and rebuilds the causal
//! hierarchy:
//!
//! ```text
//! request #id                         (PPE, Request)
//! ├── queue_wait / verify / …         (PPE, Stage)
//! ├── kernel dispatch                 (PPE, Dispatch)
//! ├── retry / retransmit              (PPE, Recovery)
//! └── kernel invocation               (SPE n, Kernel)
//!     ├── dma_get / dma_put / …       (SPE n, via the MFC tracer)
//!     └── mbox_recv / mbox_send       (SPE n)
//! ```
//!
//! Nesting within one track uses interval containment — safe because a
//! track's events share one virtual clock. Events from *other* tracks
//! (each SPE runs its own clock) attach under the root, nested only
//! among themselves; cross-track cycle comparison would be meaningless.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use cell_trace::json::JsonWriter;
use cell_trace::{EventKind, TraceEvent, TraceReport, Track};

/// One node of a request's span tree.
#[derive(Debug, Clone)]
pub struct SpanNode {
    /// The track the event was recorded on.
    pub track: Track,
    /// That track's clock frequency (for time conversion on export).
    pub hz: f64,
    pub event: TraceEvent,
    pub children: Vec<SpanNode>,
}

impl SpanNode {
    /// Nodes in this subtree, including self.
    pub fn len(&self) -> usize {
        1 + self.children.iter().map(SpanNode::len).sum::<usize>()
    }

    pub fn is_empty(&self) -> bool {
        false
    }

    /// Same-track children must nest inside their parent's interval.
    fn containment_violations(&self, out: &mut Vec<String>) {
        let end = self.event.ts + self.event.dur;
        for c in &self.children {
            if c.track == self.track
                && (c.event.ts < self.event.ts || c.event.ts + c.event.dur > end)
            {
                out.push(format!(
                    "{:?} {} [{}, {}] escapes parent {} [{}, {}]",
                    c.track,
                    c.event.label,
                    c.event.ts,
                    c.event.ts + c.event.dur,
                    self.event.label,
                    self.event.ts,
                    end
                ));
            }
            c.containment_violations(out);
        }
    }

    fn signature_into(&self, out: &mut String) {
        let _ = write!(
            out,
            "{:?}:{}@{:?}(",
            self.event.kind, self.event.label, self.track
        );
        for c in &self.children {
            c.signature_into(out);
        }
        out.push(')');
    }
}

/// One request's reconstructed tree, rooted at its `Request` event.
#[derive(Debug, Clone)]
pub struct SpanTree {
    /// The trace id every event in this tree carries.
    pub span: u64,
    pub root: SpanNode,
}

impl SpanTree {
    /// Total events attributed to this request (root included).
    pub fn len(&self) -> usize {
        self.root.len()
    }

    pub fn is_empty(&self) -> bool {
        false
    }

    /// Human-readable list of same-track nesting violations (empty for a
    /// well-formed tree). The span-tree tests assert on this.
    pub fn containment_violations(&self) -> Vec<String> {
        let mut out = Vec::new();
        self.root.containment_violations(&mut out);
        out
    }

    /// A structural signature: kinds, labels and tracks in tree order,
    /// with no timestamps or durations. Nesting reflects interval
    /// containment, so where a mailbox send lands relative to an
    /// overlapping reply-poll window can differ run to run (host thread
    /// interleaving jitters cycle charges); for the same-seed
    /// determinism contract compare [`SpanTree::flat_signature`].
    pub fn structure_signature(&self) -> String {
        let mut out = String::new();
        self.root.signature_into(&mut out);
        out
    }

    /// Order- and nesting-insensitive signature: every event attributed
    /// to this request as a sorted `Kind:label@Track` multiset. This is
    /// what same-seed determinism tests compare — *which* events belong
    /// to *which* request is exactly reproducible, while intra-request
    /// nesting of poll windows jitters with host interleaving, exactly
    /// like raw cycle counts (see the serve-soak determinism notes).
    pub fn flat_signature(&self) -> String {
        fn collect(node: &SpanNode, out: &mut Vec<String>) {
            out.push(format!(
                "{:?}:{}@{:?}",
                node.event.kind, node.event.label, node.track
            ));
            for c in &node.children {
                collect(c, out);
            }
        }
        let mut entries = Vec::new();
        collect(&self.root, &mut entries);
        entries.sort_unstable();
        entries.join(";")
    }
}

/// Every request tree of a run, plus whatever could not be attributed.
#[derive(Debug, Clone, Default)]
pub struct SpanForest {
    /// One tree per request root, ordered by span id.
    pub trees: Vec<SpanTree>,
    /// Span-stamped events whose id has no `Request` root — always a
    /// telemetry bug, never expected.
    pub orphans: Vec<(Track, TraceEvent)>,
}

impl SpanForest {
    /// The tree for one trace id.
    pub fn tree(&self, span: u64) -> Option<&SpanTree> {
        self.trees.iter().find(|t| t.span == span)
    }

    /// Signature of the whole forest (trees in span order).
    pub fn structure_signature(&self) -> String {
        let mut out = String::new();
        for t in &self.trees {
            let _ = write!(out, "[{}]", t.span);
            out.push_str(&t.structure_signature());
            out.push('\n');
        }
        out
    }

    /// Flat signature of the whole forest (trees in span order); the
    /// same-seed determinism contract — see [`SpanTree::flat_signature`].
    pub fn flat_signature(&self) -> String {
        let mut out = String::new();
        for t in &self.trees {
            let _ = write!(out, "[{}]", t.span);
            out.push_str(&t.flat_signature());
            out.push('\n');
        }
        out
    }

    /// Export the machine tracks *and* one synthetic nested track per
    /// request as a single Chrome trace-event JSON document. Machine
    /// tracks keep pid 1; request tracks live under pid 2 with the trace
    /// id as tid, so Perfetto shows "request N" rows beside the
    /// PPE/SPE/EIB rows.
    pub fn to_chrome_json(&self, machine: &TraceReport) -> String {
        let mut w = JsonWriter::default();
        w.begin_object().key("displayTimeUnit").str("ms");
        w.key("traceEvents").begin_array();
        machine.append_chrome_events(&mut w);
        for tree in &self.trees {
            w.begin_object();
            w.key("ph").str("M").key("pid").u64(2);
            w.key("tid").u64(tree.span);
            w.key("name").str("thread_name").key("args").begin_object();
            w.key("name").str(&format!("request {}", tree.span));
            w.end_object().end_object();
            append_node_events(&mut w, &tree.root, tree.span);
        }
        w.end_array().end_object();
        w.finish()
    }
}

fn append_node_events(w: &mut JsonWriter, node: &SpanNode, tid: u64) {
    let scale = if node.hz > 0.0 { 1e6 / node.hz } else { 0.0 };
    let e = &node.event;
    w.begin_object();
    w.key("ph").str("X").key("pid").u64(2).key("tid").u64(tid);
    w.key("ts").fixed(e.ts as f64 * scale, 3);
    w.key("dur").fixed(e.dur as f64 * scale, 3);
    w.key("cat").str("span").key("name").str(e.label);
    w.key("args").begin_object();
    w.key("track").str(&format!("{:?}", node.track));
    w.key("arg0").u64(e.arg0).key("arg1").u64(e.arg1);
    w.key("span").u64(e.span);
    w.end_object().end_object();
    for c in &node.children {
        append_node_events(w, c, tid);
    }
}

/// Stable row order for cross-track child sorting (PPE first, then the
/// SPEs, then the bus — mirrors the Chrome export's tid order).
fn row(track: Track) -> u64 {
    match track {
        Track::Ppe => 0,
        Track::Spe(i) => i as u64 + 1,
        Track::Router => 98,
        Track::Eib => 99,
    }
}

/// Group a report's span-stamped events by trace id and rebuild one
/// [`SpanTree`] per [`EventKind::Request`] root. See the module docs for
/// the attachment rules.
pub fn build_span_forest(report: &TraceReport) -> SpanForest {
    // span id -> events, keyed and ordered per track.
    let mut groups: BTreeMap<u64, Vec<(Track, f64, TraceEvent)>> = BTreeMap::new();
    for track in &report.tracks {
        for e in &track.events {
            if e.span != 0 {
                groups
                    .entry(e.span)
                    .or_default()
                    .push((track.track, track.hz, *e));
            }
        }
    }

    let mut forest = SpanForest::default();
    for (span, mut events) in groups {
        // Stable order: by track row, then program order within a track
        // (ts ascending; longer span first on ties so parents precede
        // the children they contain).
        events.sort_by(|a, b| {
            (row(a.0), a.2.ts, std::cmp::Reverse(a.2.dur)).cmp(&(
                row(b.0),
                b.2.ts,
                std::cmp::Reverse(b.2.dur),
            ))
        });
        let root_at = events
            .iter()
            .position(|(_, _, e)| e.kind == EventKind::Request);
        let Some(root_at) = root_at else {
            forest
                .orphans
                .extend(events.into_iter().map(|(t, _, e)| (t, e)));
            continue;
        };
        let (root_track, root_hz, root_event) = events.remove(root_at);
        let mut root = SpanNode {
            track: root_track,
            hz: root_hz,
            event: root_event,
            children: Vec::new(),
        };

        // Per-track nesting by *full* interval containment: walk in
        // (ts, -dur) order keeping a stack of enclosing events; an event
        // nests only when the stack top wholly contains it. Overlapping
        // windows — pipelined dispatches on the PPE, async DMA issue vs
        // wait on an SPE — are siblings, not parent/child: popping on
        // partial overlap keeps the hierarchy causal. Tops of each
        // per-track stack chain attach to the request root.
        let contains = |parent: &TraceEvent, child: &TraceEvent| {
            child.ts >= parent.ts && child.ts + child.dur <= parent.ts + parent.dur
        };
        let mut stack: Vec<SpanNode> = Vec::new();
        let mut current_track: Option<Track> = None;
        let flush = |stack: &mut Vec<SpanNode>, root: &mut SpanNode| {
            while let Some(done) = stack.pop() {
                match stack.last_mut() {
                    Some(parent) => parent.children.push(done),
                    None => root.children.push(done),
                }
            }
        };
        for (track, hz, e) in events {
            if current_track != Some(track) {
                flush(&mut stack, &mut root);
                current_track = Some(track);
            }
            while let Some(top) = stack.last() {
                if contains(&top.event, &e) {
                    break;
                }
                let done = stack.pop().expect("nonempty");
                match stack.last_mut() {
                    Some(parent) => parent.children.push(done),
                    None => root.children.push(done),
                }
            }
            stack.push(SpanNode {
                track,
                hz,
                event: e,
                children: Vec::new(),
            });
        }
        flush(&mut stack, &mut root);
        forest.trees.push(SpanTree { span, root });
    }
    forest
}

#[cfg(test)]
mod tests {
    use super::*;
    use cell_trace::{TraceConfig, Tracer};

    fn report(tracks: Vec<cell_trace::TrackData>) -> TraceReport {
        TraceReport { tracks }
    }

    #[test]
    fn builds_one_tree_per_request_root() {
        let hz = 3.2e9;
        let mut ppe = Tracer::new(TraceConfig::Full, Track::Ppe, hz);
        // Request 1: root + queue-wait + one dispatch.
        ppe.span_tagged(EventKind::Request, "request", 0, 1000, 1, 0, 1);
        ppe.span_tagged(EventKind::Stage, "queue_wait", 0, 100, 1, 0, 1);
        ppe.span_tagged(EventKind::Dispatch, "CH", 100, 800, 0, 0, 1);
        // Request 2, interleaved on the same track.
        ppe.span_tagged(EventKind::Request, "request", 500, 900, 2, 0, 2);
        ppe.span_tagged(EventKind::Dispatch, "CC", 600, 700, 1, 0, 2);
        let mut spe = Tracer::new(TraceConfig::Full, Track::Spe(0), hz);
        spe.set_span_context(1);
        spe.span(EventKind::Kernel, "ch_extract", 50, 500, 0, 0);
        spe.span_mem(EventKind::DmaGet, "dma_get", 100, 50, 4096, 1, 0x1000);
        spe.clear_span_context();

        let forest = build_span_forest(&report(vec![ppe.finish(), spe.finish()]));
        assert_eq!(forest.trees.len(), 2);
        assert!(forest.orphans.is_empty());
        let t1 = forest.tree(1).unwrap();
        assert_eq!(t1.len(), 5);
        assert!(t1.containment_violations().is_empty());
        // The SPE kernel is a root child; its DMA nests inside it.
        let kernel = t1
            .root
            .children
            .iter()
            .find(|n| n.event.kind == EventKind::Kernel)
            .expect("kernel under root");
        assert_eq!(kernel.children.len(), 1);
        assert_eq!(kernel.children[0].event.kind, EventKind::DmaGet);
        let t2 = forest.tree(2).unwrap();
        assert_eq!(t2.len(), 2);
    }

    #[test]
    fn span_events_without_a_root_are_orphans() {
        let mut ppe = Tracer::new(TraceConfig::Full, Track::Ppe, 3.2e9);
        ppe.span_tagged(EventKind::Dispatch, "CH", 0, 10, 0, 0, 7);
        let forest = build_span_forest(&report(vec![ppe.finish()]));
        assert!(forest.trees.is_empty());
        assert_eq!(forest.orphans.len(), 1);
        assert_eq!(forest.orphans[0].1.span, 7);
    }

    #[test]
    fn unstamped_events_stay_out_of_the_forest() {
        let mut ppe = Tracer::new(TraceConfig::Full, Track::Ppe, 3.2e9);
        ppe.span(EventKind::Dispatch, "CH", 0, 10, 0, 0);
        let forest = build_span_forest(&report(vec![ppe.finish()]));
        assert!(forest.trees.is_empty());
        assert!(forest.orphans.is_empty());
    }

    #[test]
    fn signature_ignores_cycles_but_not_structure() {
        let tree = |shift: u64| {
            let mut ppe = Tracer::new(TraceConfig::Full, Track::Ppe, 3.2e9);
            ppe.span_tagged(EventKind::Request, "request", shift, 1000, 1, 0, 1);
            ppe.span_tagged(EventKind::Dispatch, "CH", shift + 10, 100, 0, 0, 1);
            build_span_forest(&report(vec![ppe.finish()]))
        };
        assert_eq!(
            tree(0).structure_signature(),
            tree(12345).structure_signature(),
            "cycle jitter must not change the signature"
        );
        let mut other = Tracer::new(TraceConfig::Full, Track::Ppe, 3.2e9);
        other.span_tagged(EventKind::Request, "request", 0, 1000, 1, 0, 1);
        other.span_tagged(EventKind::Dispatch, "CC", 10, 100, 0, 0, 1);
        let other = build_span_forest(&report(vec![other.finish()]));
        assert_ne!(tree(0).structure_signature(), other.structure_signature());
    }

    #[test]
    fn chrome_export_adds_request_rows_beside_machine_rows() {
        let mut ppe = Tracer::new(TraceConfig::Full, Track::Ppe, 3.2e9);
        ppe.span(EventKind::Dispatch, "background", 0, 10, 0, 0);
        ppe.span_tagged(EventKind::Request, "request", 0, 1000, 4, 0, 5);
        let machine = report(vec![ppe.finish()]);
        let forest = build_span_forest(&machine);
        let json = forest.to_chrome_json(&machine);
        assert!(json.contains("\"name\":\"PPE\""), "machine track kept");
        assert!(json.contains("\"name\":\"request 5\""), "request row added");
        assert!(json.contains("\"pid\":2"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        assert_eq!(json,
            "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\
            {\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"thread_name\",\"args\":{\"name\":\"PPE\"}},\
            {\"ph\":\"X\",\"pid\":1,\"tid\":0,\"ts\":0.000,\"dur\":0.003,\"cat\":\"dispatch\",\"name\":\"background\",\"args\":{\"arg0\":0,\"arg1\":0,\"ea\":0,\"span\":0,\"epoch\":0}},\
            {\"ph\":\"X\",\"pid\":1,\"tid\":0,\"ts\":0.000,\"dur\":0.312,\"cat\":\"request\",\"name\":\"request\",\"args\":{\"arg0\":4,\"arg1\":0,\"ea\":0,\"span\":5,\"epoch\":0}},\
            {\"ph\":\"M\",\"pid\":2,\"tid\":5,\"name\":\"thread_name\",\"args\":{\"name\":\"request 5\"}},\
            {\"ph\":\"X\",\"pid\":2,\"tid\":5,\"ts\":0.000,\"dur\":0.312,\"cat\":\"span\",\"name\":\"request\",\"args\":{\"track\":\"Ppe\",\"arg0\":4,\"arg1\":0,\"span\":5}}]}"
        );

        // No machine tracks and no requests: the bare envelope.
        let empty = report(Vec::new());
        assert_eq!(
            build_span_forest(&empty).to_chrome_json(&empty),
            "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[]}"
        );
        // Several nested requests across tracks, exported without the
        // machine rows; a label needing every escape.
        let mut ppe = Tracer::new(TraceConfig::Full, Track::Ppe, 3.2e9);
        ppe.span_tagged(EventKind::Request, "request", 0, 3200, 1, 0, 1);
        ppe.span_tagged(EventKind::Dispatch, "q\"b\\n\nc\u{1f}", 10, 100, 2, 3, 1);
        ppe.span_tagged(EventKind::Request, "request", 6400, 320, 2, 0, 2);
        let mut spe = Tracer::new(TraceConfig::Full, Track::Spe(1), 3.2e9);
        spe.span_tagged(EventKind::Kernel, "CH", 20, 50, 0, 0, 1);
        let forest = build_span_forest(&report(vec![ppe.finish(), spe.finish()]));
        assert_eq!(forest.to_chrome_json(&empty),
            "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\
            {\"ph\":\"M\",\"pid\":2,\"tid\":1,\"name\":\"thread_name\",\"args\":{\"name\":\"request 1\"}},\
            {\"ph\":\"X\",\"pid\":2,\"tid\":1,\"ts\":0.000,\"dur\":1.000,\"cat\":\"span\",\"name\":\"request\",\"args\":{\"track\":\"Ppe\",\"arg0\":1,\"arg1\":0,\"span\":1}},\
            {\"ph\":\"X\",\"pid\":2,\"tid\":1,\"ts\":0.003,\"dur\":0.031,\"cat\":\"span\",\"name\":\"q\\\"b\\\\n\\nc\\u001f\",\"args\":{\"track\":\"Ppe\",\"arg0\":2,\"arg1\":3,\"span\":1}},\
            {\"ph\":\"X\",\"pid\":2,\"tid\":1,\"ts\":0.006,\"dur\":0.016,\"cat\":\"span\",\"name\":\"CH\",\"args\":{\"track\":\"Spe(1)\",\"arg0\":0,\"arg1\":0,\"span\":1}},\
            {\"ph\":\"M\",\"pid\":2,\"tid\":2,\"name\":\"thread_name\",\"args\":{\"name\":\"request 2\"}},\
            {\"ph\":\"X\",\"pid\":2,\"tid\":2,\"ts\":2.000,\"dur\":0.100,\"cat\":\"span\",\"name\":\"request\",\"args\":{\"track\":\"Ppe\",\"arg0\":2,\"arg1\":0,\"span\":2}}]}"
        );
    }
}

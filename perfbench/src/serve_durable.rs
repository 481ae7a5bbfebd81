//! `serve_durable`: 1000 seeded 48×32 requests from `cell_serve::generate`
//! (mean gap 4,000,000 cycles, about 27 % simulated utilization, no
//! burst), submitted one at a time through `DurableServer::submit` with
//! the journal on, group commit 4 and a checkpoint every 8, on the
//! default 8-SPE machine.
//!
//! A closed loop on the host (one caller waits for each terminal
//! outcome) and an open schedule in simulated time. Tiny images make
//! kernel bodies a small share of host time; the rest is mailbox
//! handoff, engine polling, supervision, MFC integrity checksums and
//! journal appends.

use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

use cell_core::{CellResult, MachineConfig};
use cell_durable::journal::encode_frame;
use cell_durable::{
    durable_commit_log, DurableConfig, DurableServer, Record, RunStatus, StableStorage,
    SHED_DEGRADATION,
};
use cell_fault::FaultPlan;
use cell_serve::{generate, Outcome as ServeOutcome, Request, ServeConfig, WorkloadSpec};
use cell_trace::{TraceConfig, TraceReport};
use marvel::app::{MarvelModels, EXTRACT_KINDS};
use marvel::features::{correlogram, edge, histogram, texture, Feature, KernelKind};
use portkit::recovery::RetryPolicy;

use crate::layers::{
    copy_host_us_per_mib, finish_attribution, machine_counters, roundtrip_host_us, setup_seconds,
};
use crate::marvel_paper::padded_upload;
use crate::report::{Outcome, Phase, SpanId, Spans};
use crate::stats::{median, per_item, percentile, Call, Failures};
use crate::Args;

const REQUESTS: usize = 1000;
const MEAN_GAP: u64 = 4_000_000;
const WIDTH: usize = 48;
const HEIGHT: usize = 32;
const SCORE_TOL: f32 = 1e-3;
/// Reply and probe timeouts, in PPE cycles: 100x the defaults. The
/// engine adds a 25 ms wall-clock grace to each virtual deadline, so on
/// a loaded host the default 2,000,000 cycles can expire while a healthy
/// SPE thread waits for a core; the resend that follows ended one run in
/// a checksum error after the retry budget. No faults are injected here,
/// so no timeout should fire, and polling is charged the same either way.
const TIMEOUT_CYCLES: u64 = 200_000_000;

/// The seeded request stream and its host reference analysis.
struct Stream {
    seed: u64,
    requests: Vec<Request>,
    reference: Vec<Expected>,
}

/// Host reference analysis of one request's image.
struct Expected {
    features: Vec<(KernelKind, Feature)>,
    scores: Vec<f32>,
}

fn requests(seed: u64) -> CellResult<Vec<Request>> {
    generate(&WorkloadSpec {
        requests: REQUESTS,
        seed,
        mean_gap: MEAN_GAP,
        width: WIDTH,
        height: HEIGHT,
        burst: None,
        ..WorkloadSpec::default()
    })
}

fn reference(seed: u64, requests: &[Request]) -> CellResult<Vec<Expected>> {
    let models = MarvelModels::synthetic(seed);
    requests
        .iter()
        .map(|r| {
            let features: Vec<(KernelKind, Feature)> = EXTRACT_KINDS
                .iter()
                .map(|&kind| {
                    let f = match kind {
                        KernelKind::Ch => histogram::extract(&r.image),
                        KernelKind::Cc => correlogram::extract(&r.image),
                        KernelKind::Tx => texture::extract(&r.image),
                        _ => edge::extract(&r.image),
                    };
                    (kind, f)
                })
                .collect();
            let scores = features
                .iter()
                .map(|(kind, f)| models.get(*kind).score(f))
                .collect::<CellResult<Vec<f32>>>()?;
            Ok(Expected { features, scores })
        })
        .collect()
}

fn config(seed: u64, trace: TraceConfig) -> DurableConfig {
    DurableConfig {
        serve: ServeConfig {
            seed,
            trace,
            probe_timeout: TIMEOUT_CYCLES,
            policy: RetryPolicy {
                timeout_cycles: TIMEOUT_CYCLES,
                ..RetryPolicy::default()
            },
            ..ServeConfig::default()
        },
        ..DurableConfig::default()
    }
}

/// Full service whose features equal the reference and whose scores
/// are within tolerance, in kernel order.
fn matches(
    features: &[(KernelKind, Feature)],
    scores: &[(KernelKind, f32)],
    want: &Expected,
) -> bool {
    features == want.features.as_slice()
        && scores.len() == want.scores.len()
        && scores
            .iter()
            .zip(&want.features)
            .zip(&want.scores)
            .all(|(((k, g), (wk, _)), w)| k == wk && (g - w).abs() < SCORE_TOL * w.abs().max(1.0))
}

/// What the traced half keeps beyond the phase timings.
#[derive(Default)]
struct Observed {
    /// Every pass's machine trace, merged.
    trace: TraceReport,
    sim_latency_ms: Vec<f64>,
    sim_queue_wait_ms: Vec<f64>,
    shed: u64,
    degraded: u64,
    retransmits: u64,
    appends: u64,
    flushes: u64,
    journal_bytes: u64,
    checkpoints: u64,
    /// The first pass's journal records, in append order, for the
    /// append replay.
    records: Vec<Record>,
}

/// Serve passes over the request stream for `seconds`, each on a freshly
/// booted server, checking every outcome between submits (outside the
/// timer) and every pass's commit log after it finishes.
fn drive(
    stream: &Stream,
    trace: TraceConfig,
    seconds: f64,
    spans: &mut Spans,
    parent: SpanId,
    failures: &mut Failures,
) -> CellResult<(Phase, Observed)> {
    let hz = MachineConfig::default().core_frequency.hertz();
    let cycles_to_ms = |c: u64| c as f64 / hz * 1e3;
    let keep_records = trace.counters();
    let mut phase = Phase::default();
    let mut seen = Observed::default();
    let start = Instant::now();
    let mut pass = 0u64;
    while start.elapsed().as_secs_f64() < seconds {
        let mut srv = spans.scope("setup", parent, Some(pass), |_| {
            DurableServer::boot(config(stream.seed, trace), &FaultPlan::new())
        })?;
        let sim_now = |srv: &DurableServer| srv.server().map_or(0.0, |s| s.elapsed().seconds());
        // Per submitted id: the digest its commit must carry.
        let mut digests: BTreeMap<u64, (u32, u8)> = BTreeMap::new();
        // A request that fails several checks counts once, under the
        // first check it failed.
        let mut failed: BTreeSet<u64> = BTreeSet::new();
        for request in &stream.requests {
            if start.elapsed().as_secs_f64() >= seconds {
                break;
            }
            let id = request.id;
            let sim0 = sim_now(&srv);
            if keep_records {
                seen.sim_queue_wait_ms
                    .push(((sim0 - request.arrival as f64 / hz) * 1e3).max(0.0));
                if pass == 0 {
                    seen.records.push(Record::admit(request));
                }
            }
            let owned = request.clone();
            let span = spans.open("call.submit", parent, Some(id));
            let t0 = Instant::now();
            let status = srv.submit(owned);
            let host_s = t0.elapsed().as_secs_f64();
            spans.close(span);
            let status = match status {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("serve_durable: submit of request {id} failed: {e}");
                    failures.errors += 1;
                    break;
                }
            };
            phase.calls.push(Call {
                items: 1,
                host_s,
                sim_s: sim_now(&srv) - sim0,
            });
            phase.latencies_s.push(host_s);
            if status == RunStatus::Crashed {
                failures.errors += 1;
                break;
            }
            let verify = spans.open("verify", parent, Some(id));
            // Closed loop: the submit returns with exactly this
            // request's terminal outcome delivered.
            match srv.take_delivered().as_slice() {
                [ServeOutcome::Served(resp)] if resp.id == id => {
                    if resp.degradation > 0 {
                        failures.degraded += 1;
                        failed.insert(id);
                    } else if !matches(&resp.features, &resp.scores, &stream.reference[id as usize])
                    {
                        failures.mismatches += 1;
                        failed.insert(id);
                    }
                    digests.insert(id, (resp.digest(), resp.degradation));
                    if keep_records {
                        seen.sim_latency_ms.push(cycles_to_ms(resp.latency()));
                        if pass == 0 {
                            seen.records.push(Record::commit(resp));
                        }
                    }
                }
                [ServeOutcome::Shed { id: shed, .. }] if *shed == id => {
                    failures.shed += 1;
                    failed.insert(id);
                    digests.insert(id, (0, SHED_DEGRADATION));
                }
                _ => {
                    failures.mismatches += 1;
                    failed.insert(id);
                }
            }
            spans.close(verify);
        }
        let output = spans.scope("finish", parent, Some(pass), |_| srv.finish())?;
        spans.scope("verify.commit_log", parent, Some(pass), |_| {
            let mut commits: BTreeMap<u64, Vec<(u32, u8)>> = BTreeMap::new();
            for (id, digest, degradation, _) in durable_commit_log(&output.disks.journal) {
                commits.entry(id).or_default().push((digest, degradation));
            }
            for (id, want) in &digests {
                if commits.remove(id).as_deref() != Some(&[*want][..]) && failed.insert(*id) {
                    failures.mismatches += 1;
                }
            }
            // A commit for a request never submitted in this pass.
            failures.mismatches += commits.len() as u64;
        });
        let serve = &output.serve.report;
        seen.shed += serve.shed_overload + serve.shed_deadline;
        seen.degraded += serve.degraded_served;
        seen.retransmits += serve.retransmits;
        seen.appends += output.report.appends;
        seen.flushes += output.report.flushes;
        seen.journal_bytes += output.report.journal_bytes;
        seen.checkpoints += output.report.checkpoints;
        seen.trace.tracks.extend(output.serve.trace.tracks);
        pass += 1;
    }
    Ok((phase, seen))
}

pub fn run(args: &Args, spans: &mut Spans) -> CellResult<Outcome> {
    let requests = requests(args.seed)?;
    let stream = Stream {
        seed: args.seed,
        reference: reference(args.seed, &requests)?,
        requests,
    };
    let mut out = Outcome::default();
    let root = spans.open("serve_durable", None, None);
    let setup_s = setup_seconds(
        spans,
        root,
        || DurableServer::boot(config(args.seed, TraceConfig::Off), &FaultPlan::new()),
        |srv| srv.finish().map(drop),
    )?;
    if !args.trace {
        let (phase, _) = drive(
            &stream,
            TraceConfig::Off,
            args.seconds,
            spans,
            root,
            &mut out.failures,
        )?;
        out.attempted = phase.items();
        phase.report(&mut out);
        out.set("setup_s", setup_s);
        out.set("peak_rss_mb", crate::report::peak_rss_mb());
        spans.close(root);
        return Ok(out);
    }

    let half = args.seconds / 2.0;
    let untraced_span = spans.open("phase.untraced", root, None);
    let (untraced, _) = drive(
        &stream,
        TraceConfig::Off,
        half,
        spans,
        untraced_span,
        &mut out.failures,
    )?;
    spans.close(untraced_span);
    let traced_span = spans.open("phase.traced", root, None);
    let (traced, seen) = drive(
        &stream,
        TraceConfig::Counters,
        half,
        spans,
        traced_span,
        &mut out.failures,
    )?;
    spans.close(traced_span);
    let items = traced.items();
    out.attempted = untraced.items() + items;
    machine_counters(&seen.trace, items, &mut out);
    out.set("cell-serve.shed", seen.shed as f64);
    out.set("cell-serve.degraded", seen.degraded as f64);
    out.set("cell-serve.retransmits", seen.retransmits as f64);
    for (name, samples, q) in [
        ("cell-serve.sim_latency_p50_ms", &seen.sim_latency_ms, 0.5),
        ("cell-serve.sim_latency_p99_ms", &seen.sim_latency_ms, 0.99),
        (
            "cell-serve.sim_queue_wait_p99_ms",
            &seen.sim_queue_wait_ms,
            0.99,
        ),
    ] {
        if let Some(p) = percentile(samples, q) {
            out.set(name, p.value);
            out.note(format!("{name}: n = {}, {} samples beyond", p.n, p.beyond));
        }
    }
    out.set(
        "cell-durable.appends_per_item",
        per_item(seen.appends as f64, items),
    );
    out.set(
        "cell-durable.flushes_per_item",
        per_item(seen.flushes as f64, items),
    );
    out.set(
        "cell-durable.journal_bytes_per_item",
        per_item(seen.journal_bytes as f64, items),
    );
    out.set(
        "cell-durable.checkpoints",
        per_item(seen.checkpoints as f64 * REQUESTS as f64, items),
    );

    let replay = spans.open("replay", root, None);
    let images: Vec<Vec<u8>> = stream
        .requests
        .iter()
        .map(|r| padded_upload(&r.image))
        .collect();
    let payloads: Vec<&[u8]> = images.iter().map(Vec::as_slice).collect();
    let copy_us_per_mib = copy_host_us_per_mib(&payloads, 5, spans, replay)?;
    let roundtrip_us = roundtrip_host_us(200, spans, replay)?;
    let append_us = replay_appends(&seen.records, spans, replay);
    spans.close(replay);
    out.set("cell-mem.copy_host_us_per_mib", copy_us_per_mib);
    out.set("cell-engine.roundtrip_host_us", roundtrip_us);
    out.set("cell-durable.append_host_us", append_us);

    // Per request: its dispatch round trips, its journal appends and the
    // upload copy of its image.
    let attributed_us = roundtrip_us
        * per_item(
            seen.trace.counter(cell_trace::Counter::Dispatches) as f64,
            items,
        )
        + append_us * per_item(seen.appends as f64, items)
        + copy_us_per_mib * payloads[0].len() as f64 / (1024.0 * 1024.0);
    finish_attribution(&untraced, &traced, attributed_us, &mut out);
    spans.close(root);
    Ok(out)
}

/// Median host microseconds per journal append: `encode_frame` plus
/// `StableStorage::append` over the run's own Admit/Commit records, with
/// a flush per group of four, as the server commits them.
fn replay_appends(records: &[Record], spans: &mut Spans, parent: SpanId) -> f64 {
    const GROUP: usize = 4;
    let mut samples = Vec::new();
    for rep in 0..5 {
        let span = spans.open("replay.append", parent, Some(rep));
        let t0 = Instant::now();
        let mut storage = StableStorage::new(&FaultPlan::new());
        for (i, record) in records.iter().enumerate() {
            storage.append(&encode_frame(record, 0));
            if (i + 1) % GROUP == 0 {
                storage.flush();
            }
        }
        storage.flush();
        let us = t0.elapsed().as_secs_f64() * 1e6;
        spans.close(span);
        std::hint::black_box(storage.len());
        samples.push(per_item(us, records.len() as u64));
    }
    median(&samples)
}

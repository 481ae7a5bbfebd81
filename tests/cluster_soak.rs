//! Soak and chaos tests for the `cell-cluster` multi-blade serving
//! runtime: request streams sharded across whole simulated Cell
//! machines while entire blades crash, hang and respawn mid-stream.
//! Everything is seeded and runs on deterministic clocks (blade virtual
//! cycles, router logical ticks), so every scenario — including
//! cross-blade failover replay — is asserted to be exactly reproducible,
//! and every *served* request must carry feature bytes identical to a
//! fault-free run's.

use cell_cluster::{BladeState, CellCluster, ClusterConfig, ClusterOutput, ClusterReport};
use cell_core::VirtualDuration;
use cell_fault::FaultPlan;
use cell_serve::{generate, Outcome, Request, Response, ServeConfig, WorkloadSpec};
use cell_telemetry::build_span_forest;
use cell_trace::{TraceConfig, Track};
use portkit::supervise::BreakerState;

/// Cluster config for `seed`: degradation disabled and queues deep, so
/// a fault-free run serves everything at full service (the byte-identity
/// baseline), with fast blade supervision on the router clock.
fn cluster_config(seed: u64, blades: usize) -> ClusterConfig {
    ClusterConfig {
        blades,
        cache: false,
        serve: ServeConfig {
            seed,
            queue_capacity: 1_024,
            degrade_high: 1_024,
            degrade_critical: 1_024,
            ..ServeConfig::default()
        },
        ..ClusterConfig::default()
    }
}

/// Generously-deadlined workload (failover replays a dead blade's
/// backlog on survivors whose clocks have advanced; the deadline must
/// absorb that, exactly like the serve-level chaos soaks).
fn workload(requests: usize, seed: u64) -> Vec<Request> {
    generate(&WorkloadSpec {
        requests,
        seed,
        mean_gap: 2_000_000,
        deadline: 100_000_000_000,
        width: 24,
        height: 24,
        burst: None,
    })
    .unwrap()
}

fn run_cluster(cfg: ClusterConfig, plan: &FaultPlan, requests: Vec<Request>) -> ClusterOutput {
    let mut cluster = CellCluster::new(cfg, plan).unwrap();
    cluster.run(requests).unwrap();
    cluster.finish().unwrap()
}

fn served(output: &ClusterOutput) -> Vec<&Response> {
    output
        .outcomes
        .iter()
        .filter_map(|o| match o {
            Outcome::Served(r) => Some(r.as_ref()),
            Outcome::Shed { .. } => None,
        })
        .collect()
}

/// Every feature and score the response carries must be bit-identical
/// to the full-service reference for the same request.
fn assert_bit_identical(got: &Response, want: &Response, context: &str) {
    for (kind, feature) in &got.features {
        let reference = &want
            .features
            .iter()
            .find(|(k, _)| k == kind)
            .unwrap_or_else(|| panic!("{context}: {} missing in reference", kind.name()))
            .1;
        assert_eq!(feature.len(), reference.len(), "{context}: {}", kind.name());
        for (i, (a, b)) in feature.iter().zip(reference).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "{context}: {}[{i}] {a} vs {b}",
                kind.name()
            );
        }
    }
    for (kind, score) in &got.scores {
        let reference = want
            .scores
            .iter()
            .find(|(k, _)| k == kind)
            .unwrap_or_else(|| panic!("{context}: {} score missing", kind.name()))
            .1;
        assert_eq!(
            score.to_bits(),
            reference.to_bits(),
            "{context}: {} score",
            kind.name()
        );
    }
}

#[test]
fn mid_run_blade_crash_is_byte_identical_to_fault_free() {
    let seed = 41;
    let requests = 12;
    let reference = run_cluster(
        cluster_config(seed, 2),
        &FaultPlan::new(),
        workload(requests, seed),
    );
    assert_eq!(reference.report.served, requests as u64);
    assert_eq!(reference.report.blade_crashes, 0);

    // Both blades take traffic under this seed, so a crash on either
    // one exercises real failover; kill blade 0 on its second routed
    // request (its first is already in flight — both replay).
    let plan = FaultPlan::new().crash_blade(0, 2);
    let chaos = run_cluster(cluster_config(seed, 2), &plan, workload(requests, seed));
    assert_eq!(chaos.report.blade_crashes, 1, "the planned crash fired");
    assert!(
        chaos.report.failover_replayed >= 1,
        "the crashed blade's in-flight request was replayed"
    );
    assert_eq!(
        chaos.report.served,
        requests as u64,
        "failover must lose nothing: {}",
        chaos.report.summary_json()
    );

    // Byte identity modulo routing metadata: every response's feature
    // and score bits match the fault-free run's, request by request.
    let want = served(&reference);
    for got in served(&chaos) {
        let reference = want
            .iter()
            .find(|r| r.id == got.id)
            .unwrap_or_else(|| panic!("request {} missing from reference", got.id));
        assert_bit_identical(got, reference, &format!("request {}", got.id));
    }
}

#[test]
fn hung_blade_is_detected_and_failed_over() {
    let seed = 2007;
    let requests = 14;
    let plan = FaultPlan::new().hang_blade(0, 1);
    let out = run_cluster(cluster_config(seed, 2), &plan, workload(requests, seed));
    assert_eq!(
        out.metrics.counter("blade_hangs_total"),
        1,
        "the planned hang fired"
    );
    assert!(
        out.report.blade_crashes >= 1,
        "the watchdog tore the hung blade down"
    );
    assert!(
        out.report.failover_replayed >= 1,
        "the hung blade's backlog was replayed on the survivor"
    );
    assert_eq!(
        out.report.served,
        requests as u64,
        "no admitted request may be lost to a hang: {}",
        out.report.summary_json()
    );
}

#[test]
fn crashed_blade_respawns_rejoins_and_serves_again() {
    let seed = 7;
    let requests = 16;
    let plan = FaultPlan::new().crash_blade(0, 1);
    let cfg = ClusterConfig {
        // Below the trip threshold a dead blade may respawn at the very
        // next supervision tick — the crash costs one machine, not the
        // rest of the run.
        blade_breaker_threshold: 2,
        ..cluster_config(seed, 2)
    };
    let mut cluster = CellCluster::new(cfg, &plan).unwrap();
    cluster.run(workload(requests, seed)).unwrap();
    assert_eq!(cluster.blade_state(0), BladeState::Joined, "rejoined");
    assert_eq!(cluster.blade_respawns(), 1);
    let out = cluster.finish().unwrap();
    assert_eq!(out.report.served, requests as u64);
    assert_eq!(
        out.blade_outputs[0].len(),
        2,
        "blade 0 ran two machine generations (crashed + respawned)"
    );
    // The respawned generation did real serving work, not just probes.
    let second_gen = &out.blade_outputs[0][1];
    assert!(
        second_gen.report.served > 0,
        "respawned blade served requests: {}",
        second_gen.report.summary_json()
    );
}

#[test]
fn tripped_blade_breaker_keeps_the_blade_dead_through_cooldown() {
    let seed = 17;
    let requests = 12;
    let plan = FaultPlan::new().crash_blade(0, 1);
    let cfg = ClusterConfig {
        // Trip on the first failure and cool down far past the run: the
        // blade must stay dead and the survivor must absorb everything.
        blade_breaker_threshold: 1,
        blade_breaker_cooldown: 1_000_000,
        ..cluster_config(seed, 2)
    };
    let mut cluster = CellCluster::new(cfg, &plan).unwrap();
    cluster.run(workload(requests, seed)).unwrap();
    assert_eq!(cluster.blade_state(0), BladeState::Dead);
    assert_eq!(cluster.breaker(0).state(), BreakerState::Open);
    assert_eq!(cluster.breaker(0).trips(), 1);
    assert_eq!(cluster.blade_respawns(), 0, "cooldown paced the respawn");
    // Consistent hashing absorbs the loss transparently: the dead
    // blade's hash points are gone, so its keys *home* on the survivor
    // (no per-request fallback decisions needed).
    assert_eq!(cluster.ring().members(), 1);
    let out = cluster.finish().unwrap();
    assert_eq!(out.report.served, requests as u64);
    assert_eq!(out.blade_outputs[0].len(), 1, "no second generation");
}

#[test]
fn drained_blade_respawns_and_serves_mid_stream() {
    let seed = 29;
    let cfg = cluster_config(seed, 2);
    let mut cluster = CellCluster::new(cfg, &FaultPlan::new()).unwrap();
    cluster.run(workload(6, seed)).unwrap();
    let steps = cluster.drain_blade(1).unwrap();
    assert_eq!(cluster.blade_state(1), BladeState::Draining);
    let _ = steps; // backlog was already pumped dry between requests
                   // Traffic keeps flowing while blade 1 is out of the ring.
    cluster.run(workload(6, seed + 1)).unwrap();
    assert!(cluster.respawn_blade(1).unwrap(), "respawn probe passed");
    assert_eq!(cluster.blade_state(1), BladeState::Joined);
    cluster.run(workload(6, seed + 2)).unwrap();
    let out = cluster.finish().unwrap();
    assert_eq!(out.report.served, 18);
    assert_eq!(out.report.shed, 0);
    assert_eq!(
        out.blade_outputs[1].len(),
        2,
        "drained + respawned = two generations"
    );
}

#[test]
fn degraded_responses_never_poison_the_cache() {
    let seed = 53;
    let distinct = 4;
    // One blade, forced degradation: every response sheds TX, so every
    // admission attempt must bypass the cache and every repeat must be
    // a miss — a degraded vector must never answer a later request.
    let cfg = ClusterConfig {
        blades: 1,
        cache: true,
        serve: ServeConfig {
            seed,
            queue_capacity: 1_024,
            degrade_high: 0,
            degrade_critical: 1_024,
            ..ServeConfig::default()
        },
        ..ClusterConfig::default()
    };
    let mut requests = workload(distinct, seed);
    let repeats: Vec<Request> = requests
        .iter()
        .map(|r| Request {
            id: r.id + 100,
            arrival: r.arrival + 80_000_000,
            deadline: r.deadline + 80_000_000,
            image: r.image.clone(),
        })
        .collect();
    requests.extend(repeats);
    let mut cluster = CellCluster::new(cfg, &FaultPlan::new()).unwrap();
    cluster.run(requests).unwrap();
    let (hits, misses, bypasses) = cluster.cache_stats();
    assert_eq!(hits, 0, "degraded results must never be served from cache");
    assert_eq!(misses, 2 * distinct as u64);
    assert_eq!(bypasses, 2 * distinct as u64);
    let out = cluster.finish().unwrap();
    assert_eq!(out.report.served, 2 * distinct as u64);
    for r in served(&out) {
        assert!(
            r.degradation > 0,
            "request {} unexpectedly full-service",
            r.id
        );
    }
}

#[test]
fn chaos_runs_are_deterministic_across_repeats() {
    let seed = 2007;
    let requests = 12;
    let plan = FaultPlan::chaos_blades(seed, 2, 2, 8);
    let fingerprint = |out: &ClusterOutput| -> Vec<(u64, u8, Vec<u32>)> {
        out.outcomes
            .iter()
            .map(|o| match o {
                Outcome::Served(r) => (
                    r.id,
                    r.degradation,
                    r.scores.iter().map(|(_, s)| s.to_bits()).collect(),
                ),
                Outcome::Shed { id, .. } => (*id, u8::MAX, Vec::new()),
            })
            .collect()
    };
    let a = run_cluster(cluster_config(seed, 2), &plan, workload(requests, seed));
    let b = run_cluster(cluster_config(seed, 2), &plan, workload(requests, seed));
    assert_eq!(
        fingerprint(&a),
        fingerprint(&b),
        "same seed, same plan → same outcome stream, bit for bit"
    );
    assert_eq!(a.report.blade_crashes, b.report.blade_crashes);
    assert_eq!(a.report.failover_replayed, b.report.failover_replayed);
    assert_eq!(a.report.fallback_routed, b.report.fallback_routed);
    assert_eq!(a.report.served, b.report.served);
    assert_eq!(a.report.ticks, b.report.ticks);
}

#[test]
fn request_spans_cross_the_router_hop() {
    let seed = 7;
    let distinct = 4;
    let mut cfg = cluster_config(seed, 2);
    cfg.cache = true;
    cfg.trace = TraceConfig::Full;
    cfg.serve.trace = TraceConfig::Full;
    cfg.serve.request_spans = true;
    let mut requests = workload(distinct, seed);
    let repeats: Vec<Request> = requests
        .iter()
        .take(2)
        .map(|r| Request {
            id: r.id + 100,
            arrival: r.arrival + 80_000_000,
            deadline: r.deadline + 80_000_000,
            image: r.image.clone(),
        })
        .collect();
    requests.extend(repeats);
    let total = requests.len();
    let out = run_cluster(cfg, &FaultPlan::new(), requests);
    assert_eq!(out.report.served, total as u64);
    assert_eq!(out.report.cache_hits, 2);

    let forest = build_span_forest(&out.trace);
    // One tree per request — blade-served requests root on the blade's
    // PPE track, cache hits root on the router track.
    for r in served(&out) {
        let tree = forest
            .tree(r.id + 1)
            .unwrap_or_else(|| panic!("request {} has no span tree", r.id));
        let expect_router_root = r.id >= 100;
        assert_eq!(
            tree.root.track == Track::Router,
            expect_router_root,
            "request {} rooted on {:?}",
            r.id,
            tree.root.track
        );
    }
    // The router hop is visible inside blade-served trees: the router's
    // "route" stage attaches under a root that lives on a blade track.
    let crossing = forest.trees.iter().any(|t| {
        t.root.track != Track::Router
            && t.root
                .children
                .iter()
                .any(|c| c.track == Track::Router && c.event.label == "route")
    });
    assert!(crossing, "no span tree crossed the router→blade hop");
}

#[test]
fn cluster_summary_json_is_well_formed() {
    let seed = 11;
    let out = run_cluster(
        cluster_config(seed, 2),
        &FaultPlan::new(),
        workload(4, seed),
    );
    let json = out.report.summary_json();
    for key in [
        "\"requests\":4",
        "\"served\":4",
        "cache_hits",
        "fallback_routed",
        "blade_crashes",
        "blade_respawns",
        "failover_replayed",
        "elapsed_ms",
    ] {
        assert!(json.contains(key), "{json} missing {key}");
    }
    let m = &out.metrics;
    assert_eq!(m.counter("served_total"), 4);
    for b in 0..2 {
        assert!(
            m.gauge(&format!("blade{b}_breaker_state")).is_some(),
            "blade{b} gauges present"
        );
        assert!(m.gauge(&format!("blade{b}_requests_per_sec")).is_some());
        assert!(m.gauge(&format!("blade{b}_cache_hit_rate")).is_some());
    }

    // Exact bytes on fixed counts; `elapsed_ms` keeps three decimals.
    let report = ClusterReport {
        requests: 24,
        served: 22,
        degraded_served: 1,
        shed: 2,
        cache_hits: 6,
        cache_misses: 18,
        cache_bypasses: 0,
        fallback_routed: 3,
        blade_crashes: 2,
        blade_respawns: 2,
        blade_breaker_trips: 1,
        failover_replayed: 2,
        ticks: 40,
        elapsed: VirtualDuration::from_seconds(0.012_345_6),
    };
    assert_eq!(report.summary_json(), "{\"requests\":24,\"served\":22,\"degraded\":1,\"shed\":2,\"cache_hits\":6,\"cache_misses\":18,\"cache_bypasses\":0,\"fallback_routed\":3,\"blade_crashes\":2,\"blade_respawns\":2,\"blade_breaker_trips\":1,\"failover_replayed\":2,\"ticks\":40,\"elapsed_ms\":12.346}");
}

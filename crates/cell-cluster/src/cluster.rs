//! The cluster router: N simulated Cell blades behind one front door.
//!
//! [`CellCluster`] owns a fleet of [`CellServer`] blades — each a whole
//! simulated Cell machine with its own PPE, SPEs and serving runtime —
//! and routes requests across them:
//!
//! * **sharded routing** — the content key ([`FeatureCache::key_for`]:
//!   `checksum32` of the payload) picks a *home* blade on a consistent
//!   [`HashRing`]; when the home's queue is `FALLBACK_DEPTH` deep or the
//!   home left the ring, the router falls back to the least-loaded live
//!   blade;
//! * **blade supervision** — the PR-4 supervision stack reused one
//!   failure domain up: a [`Heartbeats`] ledger on the router's logical
//!   clock earns silent blades an end-to-end `integrity_probe` through
//!   their engine, and a per-blade [`CircuitBreaker`] paces blade
//!   respawns exactly like the per-SPE breakers pace SPE respawns;
//! * **whole-blade failover** — a crashed blade ([`FaultKind::BladeCrash`]
//!   or a failed watchdog probe) is torn out of the ring and its queued
//!   and in-flight requests are *replayed* on the survivors; because
//!   every blade runs the same seed-fixed models, the replayed responses
//!   are byte-identical to a fault-free run's;
//! * **blade respawn** — once the blade's breaker cools down, the router
//!   rebuilds the machine from scratch (fresh `CellServer`: context
//!   recreation, dispatcher re-upload, model re-upload), probes it end
//!   to end, and only then re-adds its hash points — which restores the
//!   original mapping exactly;
//! * **content-addressed caching** — full-service responses are cached
//!   by content key at the router; repeats are answered without touching
//!   a blade, and degraded (shed-kernel) responses bypass the cache so
//!   they can never poison a later hit.
//!
//! # Two clocks
//!
//! Each blade runs its own *virtual* clock (PPE cycles); the router runs
//! a *logical* clock that ticks once per routed request. All routing,
//! watchdog and breaker decisions run on the logical clock — blade cycle
//! counts jitter with host polling and must never steer control flow.
//! Before a blade serves request *r* the router advances the blade's
//! virtual clock to *r*'s global arrival time, so latency and deadline
//! semantics match single-machine serving.

use std::collections::HashMap;
use std::time::Instant;

use cell_core::{CellError, CellResult, VirtualDuration};
use cell_fault::{FaultKind, FaultLine, FaultPlan, FaultSite};
use cell_serve::{CellServer, Outcome, Request, Response, ServeConfig, ServeOutput, ShedReason};
use cell_telemetry::MetricsRegistry;
use cell_trace::json::JsonWriter;
use cell_trace::{EventKind, TraceConfig, TraceReport, Tracer, Track};
use portkit::supervise::{BreakerState, CircuitBreaker, Heartbeats};

use crate::cache::{ContentKey, FeatureCache};
use crate::ring::HashRing;

/// Hash points per blade on the consistent ring.
const VNODES: usize = 16;

/// Home-blade queue depth at which the router falls back to the
/// least-loaded live blade instead.
const FALLBACK_DEPTH: usize = 6;

/// A blade silent longer than this many router ticks gets a watchdog
/// probe.
const BLADE_HEARTBEAT_TICKS: u64 = 3;

/// Cluster-level knobs. Times suffixed `_ticks` are router logical
/// ticks (one per routed request); everything inside `serve` stays in
/// blade PPE cycles.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of blades (whole simulated Cell machines).
    pub blades: usize,
    /// Enable the router's content-addressed feature cache.
    pub cache: bool,
    /// Consecutive blade failures before its breaker trips open.
    pub blade_breaker_threshold: u32,
    /// Ticks an open blade breaker waits before a respawn attempt.
    pub blade_breaker_cooldown: u64,
    /// Per-blade serving config. The `seed` fixes the models on *every*
    /// blade, which is what makes cross-blade failover byte-identical.
    pub serve: ServeConfig,
    /// Router-track trace config (the blades trace per `serve.trace`).
    pub trace: TraceConfig,
    /// Starting server generation per blade (missing entries default to
    /// 0). A durable recovery re-bases each blade past the generations
    /// its pre-crash incarnation checkpointed, so trace-epoch domains
    /// stay distinct across process incarnations.
    pub base_generations: Vec<u64>,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            blades: 2,
            cache: true,
            blade_breaker_threshold: 2,
            blade_breaker_cooldown: 8,
            serve: ServeConfig::default(),
            trace: TraceConfig::Off,
            base_generations: Vec::new(),
        }
    }
}

/// Router-visible state of one blade.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BladeState {
    /// In the ring, serving.
    Joined,
    /// Wedged: still accepting routed requests but completing none and
    /// failing probes; the watchdog will notice and fail it over.
    Hung,
    /// Administratively out of the ring, serving down its backlog.
    Draining,
    /// Torn down; only a successful respawn brings it back.
    Dead,
}

struct Blade {
    server: Option<CellServer>,
    state: BladeState,
    line: FaultLine,
    breaker: CircuitBreaker,
    /// Requests admitted to this blade's queue (replays included).
    routed: u64,
    /// Responses this blade completed.
    served: u64,
    /// Router cache hits whose content key homes on this blade.
    cache_hits: u64,
    crashes: u64,
    respawns: u64,
    /// Server incarnations created for this blade so far (the initial
    /// build counts; failed respawn attempts count too — each produced a
    /// machine whose trace events need their own epoch domain).
    generation: u64,
    /// Outputs of every torn-down server generation, in order.
    retired: Vec<ServeOutput>,
}

/// The trace-epoch memory domain of blade `b`'s `generation`-th server
/// incarnation. Distinct across every machine a cluster run ever builds
/// (generations stay far below 2^8 in practice), and blade 0's first
/// incarnation keeps domain 0, matching a standalone server.
fn blade_domain(blade: usize, generation: u64) -> u64 {
    ((blade as u64) << 8) | generation
}

/// Cluster-level aggregate counters for one run.
#[derive(Debug, Clone)]
pub struct ClusterReport {
    pub requests: u64,
    pub served: u64,
    pub degraded_served: u64,
    pub shed: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub cache_bypasses: u64,
    /// Requests routed away from their home blade (deep queue or home
    /// out of the ring).
    pub fallback_routed: u64,
    /// Whole-blade teardowns (fault-injected crashes and watchdog
    /// expirations).
    pub blade_crashes: u64,
    pub blade_respawns: u64,
    pub blade_breaker_trips: u64,
    /// Orphaned requests replayed on surviving blades.
    pub failover_replayed: u64,
    /// Router logical clock at the end of the run.
    pub ticks: u64,
    /// Simulated elapsed time: the max over all blade generations.
    pub elapsed: VirtualDuration,
}

impl ClusterReport {
    /// Machine-readable one-line summary for CI artifacts.
    pub fn summary_json(&self) -> String {
        let mut w = JsonWriter::default();
        w.begin_object().key("requests").u64(self.requests);
        w.key("served").u64(self.served);
        w.key("degraded").u64(self.degraded_served);
        w.key("shed").u64(self.shed);
        w.key("cache_hits").u64(self.cache_hits);
        w.key("cache_misses").u64(self.cache_misses);
        w.key("cache_bypasses").u64(self.cache_bypasses);
        w.key("fallback_routed").u64(self.fallback_routed);
        w.key("blade_crashes").u64(self.blade_crashes);
        w.key("blade_respawns").u64(self.blade_respawns);
        w.key("blade_breaker_trips").u64(self.blade_breaker_trips);
        w.key("failover_replayed").u64(self.failover_replayed);
        w.key("ticks").u64(self.ticks);
        w.key("elapsed_ms").fixed(self.elapsed.millis(), 3);
        w.end_object();
        w.finish()
    }
}

/// Everything a finished cluster hands back.
#[derive(Debug)]
pub struct ClusterOutput {
    /// Terminal outcomes in cluster completion order (cache hits,
    /// blade responses, sheds).
    pub outcomes: Vec<Outcome>,
    pub report: ClusterReport,
    /// Per blade: the [`ServeOutput`] of every server generation it ran
    /// (crashed/respawned blades have one entry per generation).
    pub blade_outputs: Vec<Vec<ServeOutput>>,
    /// Cluster metrics: totals plus `blade{i}_*` per-blade gauges.
    pub metrics: MetricsRegistry,
    /// Combined trace: the router track plus every blade generation's
    /// machine tracks — feed this to `build_span_forest` to see request
    /// spans crossing the router hop.
    pub trace: TraceReport,
}

/// The sharded multi-blade serving runtime.
pub struct CellCluster {
    cfg: ClusterConfig,
    blades: Vec<Blade>,
    ring: HashRing,
    cache: FeatureCache,
    heartbeats: Heartbeats,
    /// Router logical clock: one tick per routed request.
    tick: u64,
    tracer: Tracer,
    metrics: MetricsRegistry,
    outcomes: Vec<Outcome>,
    /// Content key of every in-flight request, by request id (consumed
    /// when its outcome lands — feeds cache admission).
    pending_keys: HashMap<u64, ContentKey>,
    requests: u64,
    served: u64,
    degraded_served: u64,
    shed: u64,
    fallback_routed: u64,
    blade_crashes: u64,
    blade_respawns: u64,
    failover_replayed: u64,
    wall_start: Instant,
}

impl CellCluster {
    /// Build `cfg.blades` blades (each a full `CellServer` over its own
    /// machine, all sharing `cfg.serve` — same seed, same models) and
    /// arm `plan`'s [`FaultSite::Blade`] line per blade. Machine-internal
    /// fault sites in `plan` are ignored here: blade plans describe
    /// whole-machine loss, the per-SPE sites stay a `cell-serve` concern.
    pub fn new(cfg: ClusterConfig, plan: &FaultPlan) -> CellResult<Self> {
        assert!(cfg.blades > 0, "cluster needs at least one blade");
        let mut blades = Vec::with_capacity(cfg.blades);
        for b in 0..cfg.blades {
            let generation = cfg.base_generations.get(b).copied().unwrap_or(0);
            let mut serve = cfg.serve.clone();
            serve.epoch_domain = blade_domain(b, generation);
            blades.push(Blade {
                server: Some(CellServer::new(serve, FaultPlan::new())?),
                state: BladeState::Joined,
                line: plan.arm(FaultSite::Blade, b),
                breaker: CircuitBreaker::new(
                    cfg.blade_breaker_threshold,
                    cfg.blade_breaker_cooldown,
                ),
                routed: 0,
                served: 0,
                cache_hits: 0,
                crashes: 0,
                respawns: 0,
                generation,
                retired: Vec::new(),
            });
        }
        let ring = HashRing::new(cfg.blades, VNODES);
        let heartbeats = Heartbeats::new(cfg.blades);
        let tracer = Tracer::new(cfg.trace, Track::Router, 1.0);
        Ok(CellCluster {
            blades,
            ring,
            cache: FeatureCache::new(),
            heartbeats,
            tick: 0,
            tracer,
            metrics: MetricsRegistry::new(),
            outcomes: Vec::new(),
            pending_keys: HashMap::new(),
            requests: 0,
            served: 0,
            degraded_served: 0,
            shed: 0,
            fallback_routed: 0,
            blade_crashes: 0,
            blade_respawns: 0,
            failover_replayed: 0,
            wall_start: Instant::now(),
            cfg,
        })
    }

    // ---------------------------------------------------------------
    // Introspection
    // ---------------------------------------------------------------

    pub fn num_blades(&self) -> usize {
        self.blades.len()
    }

    pub fn blade_state(&self, blade: usize) -> BladeState {
        self.blades[blade].state
    }

    pub fn breaker(&self, blade: usize) -> &CircuitBreaker {
        &self.blades[blade].breaker
    }

    pub fn ring(&self) -> &HashRing {
        &self.ring
    }

    /// The cluster configuration (lint model builders read the breaker
    /// and heartbeat knobs from here).
    pub fn config(&self) -> &ClusterConfig {
        &self.cfg
    }

    /// Blade `b`'s live server, if it currently has one.
    pub fn server(&self, b: usize) -> Option<&CellServer> {
        self.blades.get(b).and_then(|blade| blade.server.as_ref())
    }

    /// `(hits, misses, bypasses)` of the router cache so far.
    pub fn cache_stats(&self) -> (u64, u64, u64) {
        (
            self.cache.hits(),
            self.cache.misses(),
            self.cache.bypasses(),
        )
    }

    /// Router logical clock (ticks = requests routed so far).
    pub fn tick(&self) -> u64 {
        self.tick
    }

    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    pub fn blade_respawns(&self) -> u64 {
        self.blade_respawns
    }

    pub fn blade_crashes(&self) -> u64 {
        self.blade_crashes
    }

    pub fn fallback_routed(&self) -> u64 {
        self.fallback_routed
    }

    pub fn queue_depth(&self, blade: usize) -> usize {
        self.blades[blade]
            .server
            .as_ref()
            .map_or(0, CellServer::queue_depth)
    }

    // ---------------------------------------------------------------
    // The routing loop
    // ---------------------------------------------------------------

    /// Route a request stream to completion: one supervision pass and
    /// one routing decision per request, then settle any hung blades so
    /// every admitted request reaches a terminal outcome.
    pub fn run(&mut self, mut requests: Vec<Request>) -> CellResult<()> {
        requests.sort_by_key(|r| (r.arrival, r.id));
        for request in requests {
            self.submit(request)?;
        }
        self.quiesce()
    }

    /// Route one request (one logical tick + one supervision pass) —
    /// the per-request half of [`run`](Self::run). A durable front end
    /// drives this directly so it can journal an `Admit` before the
    /// router ever sees the request.
    pub fn submit(&mut self, request: Request) -> CellResult<()> {
        self.tick += 1;
        self.supervise()?;
        self.route(request)
    }

    /// Take the terminal outcomes recorded since the last call (cache
    /// hits, blade responses and sheds, in completion order). Outcomes
    /// taken here no longer appear in [`ClusterOutput::outcomes`]; the
    /// counters still count them.
    pub fn take_outcomes(&mut self) -> Vec<Outcome> {
        std::mem::take(&mut self.outcomes)
    }

    /// Resolve every hung blade and serve every backlog down to empty,
    /// without tearing anything down — the end-of-stream barrier a
    /// durable front end needs before its final commit flush. Idempotent;
    /// [`finish`](Self::finish) calls it too.
    pub fn quiesce(&mut self) -> CellResult<()> {
        self.settle()?;
        for b in 0..self.blades.len() {
            if let Some(server) = self.blades[b].server.as_mut() {
                server.drain()?;
                let outcomes = server.take_outcomes();
                self.absorb_outcomes(b, outcomes);
            }
        }
        Ok(())
    }

    /// Tear every blade's machine down *without* draining queues or
    /// collecting outputs — simulated whole-process loss. Everything in
    /// volatile memory (queues, cache, traces) is discarded; only what a
    /// durable front end journaled to stable storage survives.
    pub fn abandon(mut self) -> CellResult<()> {
        for blade in &mut self.blades {
            if let Some(server) = blade.server.take() {
                let _ = server.finish()?;
            }
        }
        Ok(())
    }

    /// Current server generation per blade (checkpointed by the durable
    /// plane; recovery re-bases fresh blades past these via
    /// [`ClusterConfig::base_generations`]).
    pub fn generations(&self) -> Vec<u64> {
        self.blades.iter().map(|b| b.generation).collect()
    }

    /// Deterministic snapshot of the router cache (sorted by key) for
    /// durable checkpoints.
    pub fn cache_snapshot(&self) -> Vec<(ContentKey, crate::cache::CachedResult)> {
        self.cache.entries()
    }

    /// Re-insert a cache entry recovered from the journal or a
    /// checkpoint (recovery rebuilds the cache only from committed
    /// inserts; existing entries win).
    pub fn restore_cache(&mut self, key: ContentKey, result: crate::cache::CachedResult) {
        self.cache.restore(key, result);
    }

    /// Record a durable-recovery span on the router track (the durable
    /// plane emits one per journal replay).
    pub fn record_recovery(&mut self, label: &'static str, arg0: u64, arg1: u64) {
        self.tracer
            .span(EventKind::Recovery, label, self.tick, 0, arg0, arg1);
    }

    /// One watchdog + respawn pass on the router clock: probe silent
    /// blades end to end, fail over the unresponsive, respawn dead
    /// blades whose breaker cooled down.
    pub fn supervise(&mut self) -> CellResult<()> {
        for b in 0..self.blades.len() {
            let state = self.blades[b].state;
            let silent = matches!(state, BladeState::Joined | BladeState::Hung)
                && self.heartbeats.silent(b, self.tick, BLADE_HEARTBEAT_TICKS);
            if !silent {
                continue;
            }
            // A hung blade's serving loop is wedged: the probe dispatch
            // would sit unanswered until timeout, so it fails by
            // definition. A merely-idle blade answers and beats.
            let ok = state != BladeState::Hung && self.probe_blade(b)?;
            if ok {
                self.heartbeats.beat(b, self.tick);
            } else {
                self.tracer.span(
                    EventKind::Fault,
                    "blade_watchdog_expired",
                    self.tick,
                    0,
                    b as u64,
                    0,
                );
                self.crash_blade(b, None)?;
            }
        }
        for b in 0..self.blades.len() {
            if self.blades[b].state == BladeState::Dead && self.blades[b].breaker.ready(self.tick) {
                self.try_respawn(b)?;
            }
        }
        Ok(())
    }

    fn route(&mut self, request: Request) -> CellResult<()> {
        self.requests += 1;
        self.metrics.inc("requests_total", 1);
        let id = request.id;
        let span = id + 1;
        let key = FeatureCache::key_for(&request.image);
        let home = self.ring.home(key.0);

        if self.cfg.cache {
            if let Some(cached) = self.cache.lookup(key) {
                // Served from the router: no blade hop, so the router
                // emits the request root itself.
                if let Some(h) = home {
                    self.blades[h].cache_hits += 1;
                }
                self.metrics.inc("cache_hits_total", 1);
                self.tracer
                    .span_tagged(EventKind::Request, "request", self.tick, 0, id, 0, span);
                self.tracer.span_tagged(
                    EventKind::Stage,
                    "cache_hit",
                    self.tick,
                    0,
                    id,
                    u64::from(key.0),
                    span,
                );
                self.served += 1;
                self.metrics.inc("served_total", 1);
                self.outcomes.push(Outcome::Served(Box::new(Response {
                    id,
                    degradation: 0,
                    features: cached.features,
                    scores: cached.scores,
                    arrival: request.arrival,
                    completed_at: request.arrival,
                })));
                return Ok(());
            }
            self.metrics.inc("cache_misses_total", 1);
        }

        let Some(target) = self.pick_target(home) else {
            self.cluster_shed(id);
            return Ok(());
        };
        if home != Some(target) {
            self.fallback_routed += 1;
            self.metrics.inc("fallback_routed_total", 1);
            self.tracer.span_tagged(
                EventKind::Stage,
                "fallback_route",
                self.tick,
                0,
                id,
                target as u64,
                span,
            );
        }

        // The blade's fault line ticks once per *fresh* request the
        // router aims at it — whole-machine loss strikes at admission,
        // before the blade ever sees the request.
        match self.blades[target].line.tick() {
            Some(FaultKind::BladeCrash) => return self.crash_blade(target, Some(request)),
            Some(FaultKind::BladeHang) => {
                self.blades[target].state = BladeState::Hung;
                self.metrics.inc("blade_hangs_total", 1);
                self.tracer.span(
                    EventKind::Fault,
                    "blade_hang",
                    self.tick,
                    0,
                    target as u64,
                    0,
                );
            }
            _ => {}
        }

        if let Some(t) = self.submit_preferring(target, request)? {
            self.tracer
                .span_tagged(EventKind::Stage, "route", self.tick, 0, id, t as u64, span);
            if self.blades[t].state == BladeState::Joined {
                self.pump_blade(t)?;
            }
        }
        Ok(())
    }

    /// Home blade if it is in the ring with a shallow queue; otherwise
    /// the least-loaded in-ring blade (ties to the lowest index).
    fn pick_target(&self, home: Option<usize>) -> Option<usize> {
        if let Some(h) = home {
            if self.ring.contains(h) && self.queue_depth(h) < FALLBACK_DEPTH {
                return Some(h);
            }
        }
        (0..self.blades.len())
            .filter(|&b| self.ring.contains(b))
            .min_by_key(|&b| (self.queue_depth(b), b))
    }

    /// Admit `request` to `preferred`, spilling to the other in-ring
    /// blades in least-loaded order when a queue is full. `Ok(None)`
    /// means every blade refused and the request was cluster-shed.
    fn submit_preferring(
        &mut self,
        preferred: usize,
        request: Request,
    ) -> CellResult<Option<usize>> {
        let id = request.id;
        let key = FeatureCache::key_for(&request.image);
        let mut order: Vec<usize> = (0..self.blades.len())
            .filter(|&b| b != preferred && self.ring.contains(b))
            .collect();
        order.sort_by_key(|&b| (self.queue_depth(b), b));
        order.insert(0, preferred);
        for t in order {
            let server = self.blades[t]
                .server
                .as_mut()
                .expect("in-ring blade has a live server");
            server.advance_to(request.arrival);
            match server.try_submit(request.clone()) {
                Ok(()) => {
                    self.blades[t].routed += 1;
                    self.pending_keys.insert(id, key);
                    return Ok(Some(t));
                }
                Err(CellError::Overloaded { .. }) => {}
                Err(e) => return Err(e),
            }
        }
        self.cluster_shed(id);
        Ok(None)
    }

    /// Serve a joined blade's queue to empty and absorb its outcomes.
    fn pump_blade(&mut self, b: usize) -> CellResult<()> {
        let server = self.blades[b]
            .server
            .as_mut()
            .expect("pumped blade has a live server");
        while server.step()? {}
        let outcomes = server.take_outcomes();
        if !outcomes.is_empty() {
            self.heartbeats.beat(b, self.tick);
        }
        self.absorb_outcomes(b, outcomes);
        Ok(())
    }

    fn absorb_outcomes(&mut self, blade: usize, outcomes: Vec<Outcome>) {
        for outcome in outcomes {
            match &outcome {
                Outcome::Served(resp) => {
                    self.blades[blade].served += 1;
                    self.served += 1;
                    self.metrics.inc("served_total", 1);
                    if resp.degradation > 0 {
                        self.degraded_served += 1;
                        self.metrics.inc("degraded_served_total", 1);
                    }
                    if let Some(k) = self.pending_keys.remove(&resp.id) {
                        if self.cfg.cache {
                            self.cache.admit(k, resp);
                        }
                    }
                }
                Outcome::Shed { id, .. } => {
                    self.pending_keys.remove(id);
                    self.shed += 1;
                    self.metrics.inc("shed_total", 1);
                }
            }
            self.outcomes.push(outcome);
        }
    }

    fn cluster_shed(&mut self, id: u64) {
        self.pending_keys.remove(&id);
        self.shed += 1;
        self.metrics.inc("shed_total", 1);
        self.metrics.inc("cluster_shed_total", 1);
        self.tracer
            .span(EventKind::Recovery, "cluster_shed", self.tick, 0, id, 0);
        self.outcomes.push(Outcome::Shed {
            id,
            reason: ShedReason::Overloaded,
        });
    }

    /// One end-to-end blade health probe (mailbox → DMA → checksum →
    /// reply through the blade's engine).
    fn probe_blade(&mut self, b: usize) -> CellResult<bool> {
        match self.blades[b].server.as_mut() {
            Some(server) => server.integrity_probe(),
            None => Ok(false),
        }
    }

    // ---------------------------------------------------------------
    // Failover, drain, respawn
    // ---------------------------------------------------------------

    /// Tear blade `b` down (whole-machine loss): collect its backlog
    /// (plus `in_flight`, the request whose admission triggered the
    /// crash), remove its hash points, record the failure on its
    /// breaker, and replay every orphan on the survivors.
    fn crash_blade(&mut self, b: usize, in_flight: Option<Request>) -> CellResult<()> {
        let mut server = self.blades[b]
            .server
            .take()
            .expect("crashing blade has a live server");
        let late = server.take_outcomes();
        let mut orphans = server.take_queued();
        let output = server.finish()?;
        self.blades[b].retired.push(output);
        self.blades[b].state = BladeState::Dead;
        self.blades[b].crashes += 1;
        self.blade_crashes += 1;
        self.ring.remove(b);
        self.metrics.inc("blade_failovers_total", 1);
        self.tracer.span(
            EventKind::Fault,
            "blade_crash",
            self.tick,
            0,
            b as u64,
            orphans.len() as u64,
        );
        if self.blades[b].breaker.record_failure(self.tick) {
            self.note_blade_trip(b);
        }
        self.absorb_outcomes(b, late);
        if let Some(r) = in_flight {
            orphans.push(r);
        }
        self.replay(orphans)
    }

    /// Replay a dead blade's orphans on the survivors. The whole batch
    /// is admitted before any pumping, so the survivors see the full
    /// backlog depth at once — exactly like an organic burst, which is
    /// what lets deep failovers trigger graceful degradation (and the
    /// cache's bypass-on-degraded rule) instead of silent overload.
    fn replay(&mut self, mut orphans: Vec<Request>) -> CellResult<()> {
        if orphans.is_empty() {
            return Ok(());
        }
        orphans.sort_by_key(|r| (r.arrival, r.id));
        self.failover_replayed += orphans.len() as u64;
        self.metrics
            .inc("failover_replayed_total", orphans.len() as u64);
        let mut touched = Vec::new();
        for r in orphans {
            let span = r.id + 1;
            self.tracer.span_tagged(
                EventKind::Recovery,
                "blade_failover",
                self.tick,
                0,
                r.id,
                0,
                span,
            );
            // Least-loaded order with no preferred blade: pass the
            // current least-loaded as the preference. Replays do not
            // tick fault lines — lines count fresh router admissions.
            let Some(least) = self.pick_target(None) else {
                self.cluster_shed(r.id);
                continue;
            };
            if let Some(t) = self.submit_preferring(least, r)? {
                if !touched.contains(&t) {
                    touched.push(t);
                }
            }
        }
        for t in touched {
            if self.blades[t].state == BladeState::Joined {
                self.pump_blade(t)?;
            }
        }
        Ok(())
    }

    fn note_blade_trip(&mut self, b: usize) {
        self.metrics.inc("blade_breaker_trips_total", 1);
        self.tracer.span(
            EventKind::Recovery,
            "blade_breaker_open",
            self.tick,
            0,
            b as u64,
            u64::from(self.blades[b].breaker.consecutive_failures()),
        );
    }

    /// Attempt a blade respawn: full machine recreation (fresh
    /// [`CellServer`]: SPE contexts, dispatcher code upload, model
    /// upload), then an end-to-end probe; only a passing probe re-adds
    /// the blade's hash points — restoring the original mapping exactly.
    fn try_respawn(&mut self, b: usize) -> CellResult<bool> {
        if self.blades[b].breaker.state() == BreakerState::Open {
            self.blades[b].breaker.begin_probe();
        }
        self.blades[b].generation += 1;
        let mut serve = self.cfg.serve.clone();
        serve.epoch_domain = blade_domain(b, self.blades[b].generation);
        let server = CellServer::new(serve, FaultPlan::new())?;
        self.blades[b].server = Some(server);
        if self.probe_blade(b)? {
            self.blades[b].state = BladeState::Joined;
            self.blades[b].breaker.record_success();
            self.blades[b].respawns += 1;
            self.blade_respawns += 1;
            self.ring.add(b);
            self.heartbeats.beat(b, self.tick);
            self.metrics.inc("blade_respawns_total", 1);
            self.tracer.span(
                EventKind::Recovery,
                "blade_respawn",
                self.tick,
                0,
                b as u64,
                0,
            );
            Ok(true)
        } else {
            let server = self.blades[b]
                .server
                .take()
                .expect("respawn just installed a server");
            self.blades[b].retired.push(server.finish()?);
            if self.blades[b].breaker.record_failure(self.tick) {
                self.note_blade_trip(b);
            }
            Ok(false)
        }
    }

    /// Administratively drain blade `b`: remove its hash points (fresh
    /// traffic reroutes to the survivors), then serve its backlog down
    /// to empty. Returns the number of serving steps taken.
    pub fn drain_blade(&mut self, b: usize) -> CellResult<usize> {
        self.ring.remove(b);
        self.blades[b].state = BladeState::Draining;
        let server = self.blades[b]
            .server
            .as_mut()
            .expect("draining blade has a live server");
        let steps = server.drain()?;
        let outcomes = server.take_outcomes();
        self.absorb_outcomes(b, outcomes);
        self.heartbeats.beat(b, self.tick);
        Ok(steps)
    }

    /// Tear blade `b` down (if it still has a server) and bring up a
    /// fresh machine in its place; on a passing probe the blade rejoins
    /// the ring. Works on drained and dead blades alike.
    pub fn respawn_blade(&mut self, b: usize) -> CellResult<bool> {
        if let Some(mut server) = self.blades[b].server.take() {
            server.drain()?;
            let outcomes = server.take_outcomes();
            self.absorb_outcomes(b, outcomes);
            self.blades[b].retired.push(server.finish()?);
        }
        self.ring.remove(b);
        self.blades[b].state = BladeState::Dead;
        self.try_respawn(b)
    }

    /// Resolve every hung blade (watchdog → failover → replay) so all
    /// admitted requests reach terminal outcomes. Idempotent.
    fn settle(&mut self) -> CellResult<()> {
        let mut guard = 0u64;
        while self.blades.iter().any(|b| b.state == BladeState::Hung) {
            self.tick += 1;
            self.supervise()?;
            guard += 1;
            if guard > 4 * (BLADE_HEARTBEAT_TICKS + 1) * self.blades.len() as u64 + 16 {
                break;
            }
        }
        Ok(())
    }

    // ---------------------------------------------------------------
    // Teardown
    // ---------------------------------------------------------------

    /// Shut every blade down and assemble the cluster output: outcomes,
    /// per-blade server outputs (every generation), cluster metrics and
    /// the combined router + blades trace.
    pub fn finish(mut self) -> CellResult<ClusterOutput> {
        self.settle()?;
        let num = self.blades.len();
        for b in 0..num {
            if let Some(server) = self.blades[b].server.as_mut() {
                server.drain()?;
                let outcomes = server.take_outcomes();
                self.absorb_outcomes(b, outcomes);
            }
            if let Some(server) = self.blades[b].server.take() {
                self.blades[b].retired.push(server.finish()?);
            }
        }

        let mut blade_outputs: Vec<Vec<ServeOutput>> = Vec::with_capacity(num);
        let mut elapsed = VirtualDuration::ZERO;
        let mut trips = 0u64;
        for b in 0..num {
            let blade = &mut self.blades[b];
            let outputs = std::mem::take(&mut blade.retired);
            let blade_elapsed = outputs
                .iter()
                .fold(VirtualDuration::ZERO, |acc, o| acc.max(o.report.elapsed));
            elapsed = elapsed.max(blade_elapsed);
            trips += blade.breaker.trips();

            let state_gauge = match blade.breaker.state() {
                BreakerState::Closed => 0.0,
                BreakerState::Open => 1.0,
                BreakerState::HalfOpen => 2.0,
            };
            self.metrics
                .set_gauge(&format!("blade{b}_breaker_state"), state_gauge);
            self.metrics
                .set_gauge(&format!("blade{b}_queue_depth"), 0.0);
            self.metrics
                .set_gauge(&format!("blade{b}_served_total"), blade.served as f64);
            let secs = blade_elapsed.seconds();
            let rps = if secs > 0.0 {
                blade.served as f64 / secs
            } else {
                0.0
            };
            self.metrics
                .set_gauge(&format!("blade{b}_requests_per_sec"), rps);
            let looked = blade.cache_hits + blade.routed;
            let hit_rate = if looked > 0 {
                blade.cache_hits as f64 / looked as f64
            } else {
                0.0
            };
            self.metrics
                .set_gauge(&format!("blade{b}_cache_hit_rate"), hit_rate);
            blade_outputs.push(outputs);
        }
        self.metrics
            .inc("cache_bypass_total", self.cache.bypasses());
        self.metrics.inc("blade_crashes_total", self.blade_crashes);
        self.metrics
            .set_gauge("ring_members", self.ring.members() as f64);
        self.metrics
            .set_gauge("elapsed_virtual_ms", elapsed.millis());
        let wall_us = u64::try_from(self.wall_start.elapsed().as_micros()).unwrap_or(u64::MAX);
        self.metrics.set_gauge("elapsed_wall_us", wall_us as f64);
        if wall_us > 0 {
            self.metrics.set_gauge(
                "requests_per_sec_wall",
                self.served as f64 / (wall_us as f64 / 1e6),
            );
        }

        let report = ClusterReport {
            requests: self.requests,
            served: self.served,
            degraded_served: self.degraded_served,
            shed: self.shed,
            cache_hits: self.cache.hits(),
            cache_misses: self.cache.misses(),
            cache_bypasses: self.cache.bypasses(),
            fallback_routed: self.fallback_routed,
            blade_crashes: self.blade_crashes,
            blade_respawns: self.blade_respawns,
            blade_breaker_trips: trips,
            failover_replayed: self.failover_replayed,
            ticks: self.tick,
            elapsed,
        };

        let mut tracks = vec![self.tracer.finish()];
        for outputs in &blade_outputs {
            for out in outputs {
                tracks.extend(out.trace.tracks.iter().cloned());
            }
        }
        Ok(ClusterOutput {
            outcomes: self.outcomes,
            report,
            blade_outputs,
            metrics: self.metrics,
            trace: TraceReport { tracks },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cell_serve::{generate, WorkloadSpec};
    use cell_trace::TraceConfig;

    fn quick_serve(seed: u64) -> ServeConfig {
        ServeConfig {
            seed,
            queue_capacity: 64,
            degrade_high: 1_000,
            degrade_critical: 2_000,
            trace: TraceConfig::Counters,
            ..ServeConfig::default()
        }
    }

    fn workload(n: usize, seed: u64) -> Vec<Request> {
        generate(&WorkloadSpec {
            requests: n,
            seed,
            mean_gap: 1_000_000,
            deadline: 100_000_000_000,
            width: 24,
            height: 24,
            burst: None,
        })
        .unwrap()
    }

    #[test]
    fn fault_free_run_serves_everything() {
        let cfg = ClusterConfig {
            blades: 2,
            serve: quick_serve(11),
            cache: false,
            ..ClusterConfig::default()
        };
        let mut cluster = CellCluster::new(cfg, &FaultPlan::new()).unwrap();
        cluster.run(workload(6, 11)).unwrap();
        let out = cluster.finish().unwrap();
        assert_eq!(out.report.requests, 6);
        assert_eq!(out.report.served, 6);
        assert_eq!(out.report.shed, 0);
        assert_eq!(out.report.blade_crashes, 0);
        assert_eq!(out.outcomes.len(), 6);
        // Work actually spread over the machines: both blades produced
        // at least one server generation with a trace.
        assert_eq!(out.blade_outputs.len(), 2);
        assert!(out.blade_outputs.iter().all(|o| o.len() == 1));
    }

    #[test]
    fn repeated_payloads_hit_the_cache() {
        let cfg = ClusterConfig {
            blades: 2,
            serve: quick_serve(13),
            cache: true,
            ..ClusterConfig::default()
        };
        let mut cluster = CellCluster::new(cfg, &FaultPlan::new()).unwrap();
        let mut reqs = workload(3, 13);
        // Repeat the same three payloads with fresh ids and later
        // arrivals: all three repeats must be cache hits.
        let repeats: Vec<Request> = reqs
            .iter()
            .map(|r| Request {
                id: r.id + 100,
                arrival: r.arrival + 50_000_000,
                deadline: r.deadline + 50_000_000,
                image: r.image.clone(),
            })
            .collect();
        reqs.extend(repeats);
        cluster.run(reqs).unwrap();
        let (hits, misses, bypasses) = cluster.cache_stats();
        assert_eq!(hits, 3);
        assert_eq!(misses, 3);
        assert_eq!(bypasses, 0);
        let out = cluster.finish().unwrap();
        assert_eq!(out.report.served, 6);
        // Hit responses are byte-identical to the originals they repeat.
        let by_id: HashMap<u64, &Response> = out
            .outcomes
            .iter()
            .filter_map(|o| match o {
                Outcome::Served(r) => Some((r.id, r.as_ref())),
                Outcome::Shed { .. } => None,
            })
            .collect();
        for id in 0..3u64 {
            let orig = by_id[&id];
            let hit = by_id[&(id + 100)];
            assert_eq!(orig.scores.len(), hit.scores.len());
            for ((k1, s1), (k2, s2)) in orig.scores.iter().zip(&hit.scores) {
                assert_eq!(k1, k2);
                assert_eq!(s1.to_bits(), s2.to_bits());
            }
        }
    }

    #[test]
    fn drain_and_respawn_rejoins_the_ring() {
        let cfg = ClusterConfig {
            blades: 2,
            serve: quick_serve(17),
            cache: false,
            ..ClusterConfig::default()
        };
        let mut cluster = CellCluster::new(cfg, &FaultPlan::new()).unwrap();
        cluster.run(workload(4, 17)).unwrap();
        cluster.drain_blade(0).unwrap();
        assert_eq!(cluster.blade_state(0), BladeState::Draining);
        assert!(!cluster.ring().contains(0));
        assert!(cluster.respawn_blade(0).unwrap());
        assert_eq!(cluster.blade_state(0), BladeState::Joined);
        assert!(cluster.ring().contains(0));
        // The respawned blade serves again.
        cluster.run(workload(4, 18)).unwrap();
        let out = cluster.finish().unwrap();
        assert_eq!(out.report.served, 8);
        assert_eq!(out.report.shed, 0);
        // Blade 0 ran two server generations (drained + respawned).
        assert_eq!(out.blade_outputs[0].len(), 2);
    }
}

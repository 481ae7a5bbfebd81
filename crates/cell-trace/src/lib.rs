//! Low-overhead structured tracing and metrics for the simulated Cell.
//!
//! Every layer of the stack — SPE lifecycle and mailboxes (`cell-sys`),
//! DMA (`cell-mfc`), the element-interconnect bus (`cell-eib`), per-slice
//! SPU issue counters (`cell-spu`) and kernel dispatch (`portkit`) — owns
//! a [`Tracer`] and records [`TraceEvent`]s and [`Counter`]s into it.
//! Tracers are thread-local by construction (each lives inside the struct
//! the owning thread already mutates), so recording takes no locks; the
//! per-track buffers are merged into a [`TraceReport`] at machine
//! teardown.
//!
//! Three consumers sit on top of the raw event stream:
//!
//! 1. [`TraceReport::to_chrome_json`] — Chrome trace-event JSON, loadable
//!    in Perfetto / `chrome://tracing`;
//! 2. [`TraceReport::metrics`] — an aggregated [`MetricsReport`] with
//!    counters and latency histograms (DMA round-trip, mailbox stall,
//!    EIB utilization, LS high-water, SPE busy fraction);
//! 3. `portkit::trace::Timeline::from_trace` — the ASCII Gantt renderer,
//!    populated from real dispatch spans instead of manual bookkeeping.
//!
//! The default [`TraceConfig::Off`] keeps the hot path allocation-free:
//! every recording helper starts with a config check and returns before
//! touching the event vector. [`TraceConfig::Counters`] bumps fixed-size
//! counter arrays only; [`TraceConfig::Full`] additionally appends
//! constant-size [`TraceEvent`] records (a `Vec<TraceEvent>` push — the
//! only allocation, amortized).
//!
//! Timestamps are *virtual* cycles from the owning component's
//! [`cell_core::VirtualClock`]. Tracks carry their own clock frequency
//! (`hz`) because the EIB counts bus cycles while PPE/SPE tracks count
//! core cycles; the exporters convert per track.
//!
//! Two request-scoped facilities ride on the same buffers:
//!
//! * **Span context** — a tracer carries an ambient `current_span` id
//!   (set by the serving layer per admitted request, propagated over the
//!   mailbox wire by `cell-engine`) that is stamped into every recorded
//!   [`TraceEvent`]; `span == 0` means "not attributed to any request".
//!   `cell-telemetry` reconstructs per-request span trees from the stamp.
//! * **Flight recorder** — a fixed-size ring of the most recent events
//!   that stays live even under [`TraceConfig::Counters`], so a fault
//!   post-mortem is available without paying for the full event stream.
//!
//! Every event additionally carries an **epoch** word — the mailbox FIFO
//! generation of the channel (or component) the event belongs to, see
//! [`TraceEvent::epoch`]. An SPE retire/respawn bumps the slot's
//! generation, so a trace spanning a recovery carries an observable
//! boundary; `cell-lint`'s race detector resets its FIFO channel
//! matching at each boundary instead of mispairing words across a
//! discarded queue. The high bits of the word name the *memory domain*
//! (machine incarnation) — distinct per blade generation in a cluster —
//! see [`epoch_domain`].

use std::collections::VecDeque;
use std::fmt::Write as _;

pub mod json;

use json::JsonWriter;

/// Bits of the epoch word reserved for per-machine mailbox-FIFO
/// generations; everything above them names the memory domain (one
/// machine incarnation — e.g. one blade generation in a cluster). A
/// single machine bumps the low bits once per SPE respawn, so 2^20
/// respawns of headroom per incarnation is far beyond any soak.
pub const EPOCH_GENERATION_BITS: u32 = 20;

/// The memory domain an epoch belongs to. Accesses in different domains
/// touch *different* main memories (separate machine incarnations) and
/// can never race; FIFO generations within one domain share a memory.
#[inline]
pub fn epoch_domain(epoch: u64) -> u64 {
    epoch >> EPOCH_GENERATION_BITS
}

/// The first epoch of memory domain `domain` (generation 0).
#[inline]
pub fn domain_base(domain: u64) -> u64 {
    domain << EPOCH_GENERATION_BITS
}

/// How much the tracer records. `Off` is the default and keeps every
/// recording helper to a single branch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TraceConfig {
    /// Record nothing. All helpers are no-ops.
    #[default]
    Off,
    /// Maintain counters and histograms, but no per-event records.
    Counters,
    /// Counters plus the full structured event stream.
    Full,
}

impl TraceConfig {
    /// True when counters (and histograms) are maintained.
    #[inline]
    pub fn counters(self) -> bool {
        !matches!(self, TraceConfig::Off)
    }

    /// True when individual events are recorded.
    #[inline]
    pub fn events(self) -> bool {
        matches!(self, TraceConfig::Full)
    }
}

/// Which hardware unit a tracer belongs to. Determines the row the
/// events land on in the Chrome export.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Track {
    /// The PowerPC control core.
    Ppe,
    /// A synergistic processing element, by index.
    Spe(usize),
    /// The element interconnect bus (stamps in *bus* cycles).
    Eib,
    /// The cluster router in front of the blades (stamps in router
    /// ticks — one tick per routed request, not machine cycles).
    Router,
}

impl Track {
    /// Stable thread id for the Chrome export: PPE = 0, SPE *i* = *i* + 1,
    /// Router = 98, EIB = 99 (infrastructure rows kept visually apart
    /// from the cores).
    fn tid(self) -> u64 {
        match self {
            Track::Ppe => 0,
            Track::Spe(i) => i as u64 + 1,
            Track::Router => 98,
            Track::Eib => 99,
        }
    }

    fn name(self) -> String {
        match self {
            Track::Ppe => "PPE".to_string(),
            Track::Spe(i) => format!("SPE{i}"),
            Track::Router => "Router".to_string(),
            Track::Eib => "EIB".to_string(),
        }
    }
}

/// What a [`TraceEvent`] describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A mailbox word written (PPE→SPE or SPE→PPE, per the track).
    MailboxSend,
    /// A mailbox word read; `dur` is the blocked wait, `arg0` the value.
    MailboxRecv,
    /// A DMA transfer into local store; `arg0` bytes, `arg1` tag.
    DmaGet,
    /// A DMA transfer out of local store; `arg0` bytes, `arg1` tag.
    DmaPut,
    /// A blocking wait on DMA tag groups; `arg0` is the tag mask.
    DmaWait,
    /// A bus transfer; `arg0` bytes, `arg1` ring index. Bus cycles.
    EibTransfer,
    /// A compute slice on an SPU; `arg0` is instructions issued.
    SpuSlice,
    /// A PPE-observed remote call: send → reply. `arg0` is the SPE id.
    Dispatch,
    /// An SPE-side kernel invocation; `arg0` is the kernel index.
    Kernel,
    /// An injected fault fired (chaos testing); `arg0` is the SPE id.
    Fault,
    /// A recovery action — retry, failover, degraded re-plan; `arg0` is
    /// the SPE id, `arg1` the attempt / replacement SPE.
    Recovery,
    /// A request's end-to-end lifetime (admit → reply) on the serving
    /// plane; `arg0` is the request id, `arg1` the degradation level.
    Request,
    /// A named stage inside a request (queue-wait, verify, …); payload
    /// meaning is per label.
    Stage,
}

impl EventKind {
    /// Category string for the Chrome export (drives Perfetto coloring).
    fn category(self) -> &'static str {
        match self {
            EventKind::MailboxSend | EventKind::MailboxRecv => "mailbox",
            EventKind::DmaGet | EventKind::DmaPut | EventKind::DmaWait => "dma",
            EventKind::EibTransfer => "eib",
            EventKind::SpuSlice => "spu",
            EventKind::Dispatch => "dispatch",
            EventKind::Kernel => "kernel",
            EventKind::Fault => "fault",
            EventKind::Recovery => "recovery",
            EventKind::Request => "request",
            EventKind::Stage => "stage",
        }
    }
}

/// One recorded event. `Copy` and fixed-size: recording never allocates
/// per event beyond the amortized `Vec` growth.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Start, in the owning track's virtual cycles.
    pub ts: u64,
    /// Duration in the same cycles (0 for instantaneous marks).
    pub dur: u64,
    pub kind: EventKind,
    /// Static label — kernel/stub name or a fixed operation tag.
    pub label: &'static str,
    /// Kind-specific payload (bytes, value, SPE id, ...).
    pub arg0: u64,
    /// Second kind-specific payload (tag, ring, SPE id, ...).
    pub arg1: u64,
    /// Main-memory effective address touched by the event, or 0 when the
    /// event has no memory footprint. DMA events record the start of the
    /// transferred range (`arg0` carries the byte count), which is what
    /// the happens-before race detector in `cell-lint` consumes.
    pub ea: u64,
    /// Request span context: the trace id of the serving-plane request
    /// this event belongs to, or 0 when the event is not attributed to
    /// any request (machine background work). Stamped from the owning
    /// tracer's ambient context — see [`Tracer::set_span_context`].
    pub span: u64,
    /// Mailbox FIFO generation (low [`EPOCH_GENERATION_BITS`] bits)
    /// plus memory domain (high bits) the event belongs to. PPE mailbox
    /// sites stamp the addressed slot's live generation; SPE-side
    /// tracers carry their occupant's generation ambiently (set at
    /// spawn); everything else inherits the owning tracer's ambient
    /// epoch — see [`Tracer::set_epoch`].
    pub epoch: u64,
}

/// Scalar counters a tracer maintains in `Counters` and `Full` modes.
///
/// Most merge additively across tracks; the ones for which a *maximum*
/// is the meaningful aggregate (high-water marks, horizons) merge by
/// `max` — see [`Counter::merge_is_max`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Counter {
    MailboxSends,
    MailboxRecvs,
    MailboxStallCycles,
    DmaGets,
    DmaPuts,
    DmaBytesIn,
    DmaBytesOut,
    DmaStallCycles,
    DmaListCommands,
    EibTransfers,
    EibBytes,
    EibDataCycles,
    EibQueuedCycles,
    EibHorizon,
    EibSlotCapacity,
    SpuSlices,
    SpuIssues,
    Dispatches,
    KernelInvocations,
    LsHighWater,
    TotalCycles,
    FaultsInjected,
    Retries,
    Failovers,
    /// Admission-queue depth high-water mark (serving runtimes).
    QueueDepth,
    /// Requests shed by admission control or deadline policy.
    Shed,
    /// Circuit-breaker Closed→Open transitions.
    BreakerTrips,
    /// SPE contexts recreated after a trip or crash.
    Respawns,
    /// Transfers retransmitted after a payload checksum mismatch.
    ChecksumRetransmits,
    /// Per-SPE in-flight request window high-water mark (engine dispatch).
    InFlight,
    /// Largest batch of kernel requests packed into one dispatch
    /// round-trip (engine batching).
    BatchSize,
    /// SPU instructions retired by the ISA interpreter backend.
    IsaInstructions,
}

impl Counter {
    /// Number of counters; sizes [`CounterSet`].
    pub const COUNT: usize = 32;

    /// All counters, in index order. Drives reports and merging.
    pub const ALL: [Counter; Counter::COUNT] = [
        Counter::MailboxSends,
        Counter::MailboxRecvs,
        Counter::MailboxStallCycles,
        Counter::DmaGets,
        Counter::DmaPuts,
        Counter::DmaBytesIn,
        Counter::DmaBytesOut,
        Counter::DmaStallCycles,
        Counter::DmaListCommands,
        Counter::EibTransfers,
        Counter::EibBytes,
        Counter::EibDataCycles,
        Counter::EibQueuedCycles,
        Counter::EibHorizon,
        Counter::EibSlotCapacity,
        Counter::SpuSlices,
        Counter::SpuIssues,
        Counter::Dispatches,
        Counter::KernelInvocations,
        Counter::LsHighWater,
        Counter::TotalCycles,
        Counter::FaultsInjected,
        Counter::Retries,
        Counter::Failovers,
        Counter::QueueDepth,
        Counter::Shed,
        Counter::BreakerTrips,
        Counter::Respawns,
        Counter::ChecksumRetransmits,
        Counter::InFlight,
        Counter::BatchSize,
        Counter::IsaInstructions,
    ];

    /// True for counters whose cross-track aggregate is a maximum, not a
    /// sum (high-water marks and horizon stamps).
    pub fn merge_is_max(self) -> bool {
        matches!(
            self,
            Counter::EibHorizon
                | Counter::EibSlotCapacity
                | Counter::LsHighWater
                | Counter::TotalCycles
                | Counter::QueueDepth
                | Counter::InFlight
                | Counter::BatchSize
        )
    }
}

/// Fixed-size array of counter values, indexed by [`Counter`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CounterSet([u64; Counter::COUNT]);

impl CounterSet {
    pub fn new() -> Self {
        CounterSet::default()
    }

    /// Add `delta` to a counter.
    #[inline]
    pub fn add(&mut self, counter: Counter, delta: u64) {
        self.0[counter as usize] += delta;
    }

    /// Raise a counter to at least `value` (high-water semantics).
    #[inline]
    pub fn raise(&mut self, counter: Counter, value: u64) {
        let slot = &mut self.0[counter as usize];
        *slot = (*slot).max(value);
    }

    /// Current value of a counter.
    #[inline]
    pub fn get(&self, counter: Counter) -> u64 {
        self.0[counter as usize]
    }

    /// Merge another set into this one, respecting per-counter
    /// sum-vs-max semantics.
    pub fn merge(&mut self, other: &CounterSet) {
        for c in Counter::ALL {
            if c.merge_is_max() {
                self.raise(c, other.get(c));
            } else {
                self.add(c, other.get(c));
            }
        }
    }

    /// True when every counter is zero.
    pub fn is_empty(&self) -> bool {
        self.0.iter().all(|&v| v == 0)
    }
}

/// A power-of-two-bucketed latency histogram. 65 buckets cover the full
/// `u64` range: bucket 0 holds zeros, bucket *b* ≥ 1 holds values whose
/// highest set bit is *b* − 1 (i.e. `[2^(b-1), 2^b)`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogHistogram {
    buckets: [u64; 65],
    count: u64,
    sum: u64,
    max: u64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        LogHistogram {
            buckets: [0; 65],
            count: 0,
            sum: 0,
            max: 0,
        }
    }
}

impl LogHistogram {
    pub fn new() -> Self {
        LogHistogram::default()
    }

    #[inline]
    fn bucket(value: u64) -> usize {
        if value == 0 {
            0
        } else {
            64 - value.leading_zeros() as usize
        }
    }

    /// Record one observation. The running sum saturates at `u64::MAX`
    /// instead of overflowing (long soaks can push cycle sums past 2^64;
    /// the mean degrades gracefully rather than panicking or wrapping).
    #[inline]
    pub fn record(&mut self, value: u64) {
        self.buckets[Self::bucket(value)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.max = self.max.max(value);
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn sum(&self) -> u64 {
        self.sum
    }

    pub fn max(&self) -> u64 {
        self.max
    }

    /// Arithmetic mean, or 0 for an empty histogram.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Upper bound of the bucket containing the `q`-quantile
    /// (`0.0 ..= 1.0`). Conservative: the true quantile is ≤ the
    /// returned value. Returns 0 for an empty histogram. Out-of-range
    /// `q` clamps to `[0.0, 1.0]`; a NaN `q` is treated as 1.0 (the
    /// conservative full-distribution bound) rather than silently
    /// behaving like q ≈ 0, which is what `NaN as u64 == 0` used to do.
    pub fn percentile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = if q.is_nan() { 1.0 } else { q.clamp(0.0, 1.0) };
        let rank = ((q * self.count as f64).ceil() as u64)
            .max(1)
            .min(self.count);
        let mut seen = 0;
        for (b, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return match b {
                    0 => 0,
                    64 => u64::MAX,
                    _ => (1u64 << b) - 1,
                };
            }
        }
        self.max
    }

    /// Merge another histogram into this one. Equivalent to replaying
    /// every observation of `other` into `self` (sums saturate the same
    /// way [`LogHistogram::record`] does).
    pub fn merge(&mut self, other: &LogHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count = self.count.saturating_add(other.count);
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
    }
}

/// Default number of recent events the in-tracer flight recorder keeps
/// when the config is [`TraceConfig::Counters`] (the full event stream
/// serves as history under `Full`, and `Off` records nothing).
pub const FLIGHT_CAPACITY: usize = 128;

/// Events pre-reserved per tracer under [`TraceConfig::Full`], so the
/// simulator hot loop amortizes `Vec` growth up front instead of paying
/// repeated reallocation + copy mid-run (ROADMAP item 2: cheaper `Full`).
pub const EVENT_PREALLOC: usize = 4096;

/// Per-track event buffer plus counters. One lives inside each
/// instrumented component (PPE, each SPE environment and its MFC, the
/// EIB), owned by the thread that mutates the component — so recording
/// is lock-free by construction.
#[derive(Debug, Clone)]
pub struct Tracer {
    config: TraceConfig,
    track: Track,
    hz: f64,
    events: Vec<TraceEvent>,
    counters: CounterSet,
    dma_latency: LogHistogram,
    mailbox_stall: LogHistogram,
    /// Ambient request span context stamped into every recorded event.
    current_span: u64,
    /// Ambient epoch (FIFO generation + memory domain) stamped into
    /// every recorded event that does not override it explicitly.
    current_epoch: u64,
    /// Flight-recorder ring, live only under `Counters` (see `push`).
    flight: VecDeque<TraceEvent>,
    flight_capacity: usize,
}

impl Tracer {
    pub fn new(config: TraceConfig, track: Track, hz: f64) -> Self {
        let capacity = if config.events() { EVENT_PREALLOC } else { 0 };
        Tracer::with_event_capacity(config, track, hz, capacity)
    }

    /// Like [`Tracer::new`] but with an explicit event-storage
    /// pre-reservation (0 = grow on demand, the pre-PR-6 behavior; the
    /// telemetry bench measures both sides of that trade).
    pub fn with_event_capacity(
        config: TraceConfig,
        track: Track,
        hz: f64,
        capacity: usize,
    ) -> Self {
        Tracer {
            config,
            track,
            hz,
            events: Vec::with_capacity(capacity),
            counters: CounterSet::new(),
            dma_latency: LogHistogram::new(),
            mailbox_stall: LogHistogram::new(),
            current_span: 0,
            current_epoch: 0,
            flight: VecDeque::new(),
            flight_capacity: FLIGHT_CAPACITY,
        }
    }

    /// A disabled tracer — the default for every component.
    pub fn off() -> Self {
        Tracer::new(TraceConfig::Off, Track::Ppe, 1.0)
    }

    pub fn config(&self) -> TraceConfig {
        self.config
    }

    pub fn set_config(&mut self, config: TraceConfig) {
        self.config = config;
        if config.events() && self.events.capacity() < EVENT_PREALLOC {
            self.events.reserve(EVENT_PREALLOC - self.events.len());
        }
    }

    pub fn track(&self) -> Track {
        self.track
    }

    // ---- request span context ------------------------------------------

    /// Set the ambient request span context: every event recorded until
    /// [`Tracer::clear_span_context`] carries this trace id. 0 = none.
    #[inline]
    pub fn set_span_context(&mut self, span: u64) {
        self.current_span = span;
    }

    /// Drop the ambient span context (back to unattributed recording).
    #[inline]
    pub fn clear_span_context(&mut self) {
        self.current_span = 0;
    }

    /// The ambient request span context (0 when none is set).
    #[inline]
    pub fn current_span(&self) -> u64 {
        self.current_span
    }

    // ---- epoch context -------------------------------------------------

    /// Set the ambient epoch: every event recorded from here on carries
    /// this FIFO-generation/memory-domain word unless a record site
    /// overrides it via [`Tracer::span_epoch`]. Machines set this at
    /// spawn/respawn; it starts at 0 (first generation, domain 0).
    #[inline]
    pub fn set_epoch(&mut self, epoch: u64) {
        self.current_epoch = epoch;
    }

    /// The ambient epoch word.
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.current_epoch
    }

    /// Bump a counter (no-op unless counters are enabled).
    #[inline]
    pub fn count(&mut self, counter: Counter, delta: u64) {
        if self.config.counters() {
            self.counters.add(counter, delta);
        }
    }

    /// Raise a high-water counter (no-op unless counters are enabled).
    #[inline]
    pub fn count_max(&mut self, counter: Counter, value: u64) {
        if self.config.counters() {
            self.counters.raise(counter, value);
        }
    }

    /// Record a span event (no-op unless `Full`).
    #[inline]
    pub fn span(
        &mut self,
        kind: EventKind,
        label: &'static str,
        ts: u64,
        dur: u64,
        arg0: u64,
        arg1: u64,
    ) {
        self.span_mem(kind, label, ts, dur, arg0, arg1, 0);
    }

    /// Record a span event that touches main memory at effective address
    /// `ea` (no-op unless `Full`). DMA sites use this so race detection
    /// can reconstruct the byte ranges each SPE reads and writes.
    #[inline]
    #[allow(clippy::too_many_arguments)]
    pub fn span_mem(
        &mut self,
        kind: EventKind,
        label: &'static str,
        ts: u64,
        dur: u64,
        arg0: u64,
        arg1: u64,
        ea: u64,
    ) {
        self.push(TraceEvent {
            ts,
            dur,
            kind,
            label,
            arg0,
            arg1,
            ea,
            span: self.current_span,
            epoch: self.current_epoch,
        });
    }

    /// Record a span event with an *explicit* epoch word, bypassing the
    /// ambient one. PPE mailbox sites use this: the PPE outlives every
    /// SPE incarnation, so its sends and receives must be stamped with
    /// the live generation of the mailbox pair they touch, not the
    /// tracer-wide ambient epoch.
    #[inline]
    #[allow(clippy::too_many_arguments)]
    pub fn span_epoch(
        &mut self,
        kind: EventKind,
        label: &'static str,
        ts: u64,
        dur: u64,
        arg0: u64,
        arg1: u64,
        epoch: u64,
    ) {
        self.push(TraceEvent {
            ts,
            dur,
            kind,
            label,
            arg0,
            arg1,
            ea: 0,
            span: self.current_span,
            epoch,
        });
    }

    /// Record a span event with an *explicit* request span context,
    /// bypassing the ambient one. Completion sites use this: under a
    /// pipelined engine window the request finishing now is generally not
    /// the request whose words are being written.
    #[inline]
    #[allow(clippy::too_many_arguments)]
    pub fn span_tagged(
        &mut self,
        kind: EventKind,
        label: &'static str,
        ts: u64,
        dur: u64,
        arg0: u64,
        arg1: u64,
        span: u64,
    ) {
        self.push(TraceEvent {
            ts,
            dur,
            kind,
            label,
            arg0,
            arg1,
            ea: 0,
            span,
            epoch: self.current_epoch,
        });
    }

    /// Route one event: into the full stream under `Full`, into the
    /// flight-recorder ring under `Counters`, nowhere under `Off`.
    #[inline]
    fn push(&mut self, event: TraceEvent) {
        if self.config.events() {
            self.events.push(event);
        } else if self.config.counters() && self.flight_capacity > 0 {
            if self.flight.len() >= self.flight_capacity {
                self.flight.pop_front();
            }
            self.flight.push_back(event);
        }
    }

    /// Record a DMA issue→complete latency observation.
    #[inline]
    pub fn record_dma_latency(&mut self, cycles: u64) {
        if self.config.counters() {
            self.dma_latency.record(cycles);
        }
    }

    /// Record a blocked mailbox wait.
    #[inline]
    pub fn record_mailbox_stall(&mut self, cycles: u64) {
        if self.config.counters() {
            self.mailbox_stall.record(cycles);
        }
    }

    /// The events recorded so far.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    // ---- flight recorder -----------------------------------------------

    /// Resize the flight-recorder ring (0 disables it). Only meaningful
    /// under `Counters`; under `Full` the event stream is the history.
    pub fn set_flight_capacity(&mut self, capacity: usize) {
        self.flight_capacity = capacity;
        while self.flight.len() > capacity {
            self.flight.pop_front();
        }
    }

    /// The most recent events, oldest first — the flight-recorder ring
    /// under `Counters`, the tail of the full stream under `Full`, empty
    /// under `Off`. This is what a fault post-mortem dumps.
    pub fn flight_events(&self) -> Vec<TraceEvent> {
        if self.config.events() {
            let tail = self.events.len().saturating_sub(self.flight_capacity);
            self.events[tail..].to_vec()
        } else {
            self.flight.iter().copied().collect()
        }
    }

    /// Counter values recorded so far.
    pub fn counters(&self) -> &CounterSet {
        &self.counters
    }

    /// Consume the tracer into its immutable per-track data.
    pub fn finish(self) -> TrackData {
        TrackData {
            track: self.track,
            hz: self.hz,
            events: self.events,
            counters: self.counters,
            dma_latency: self.dma_latency,
            mailbox_stall: self.mailbox_stall,
        }
    }

    /// Clone the current state without consuming the tracer.
    pub fn snapshot(&self) -> TrackData {
        self.clone().finish()
    }
}

/// Immutable, merged data for one track.
#[derive(Debug, Clone)]
pub struct TrackData {
    pub track: Track,
    /// Clock frequency the `ts`/`dur` cycles are counted at.
    pub hz: f64,
    pub events: Vec<TraceEvent>,
    pub counters: CounterSet,
    pub dma_latency: LogHistogram,
    pub mailbox_stall: LogHistogram,
}

impl TrackData {
    /// An empty track (useful as a default / placeholder).
    pub fn empty(track: Track, hz: f64) -> Self {
        Tracer::new(TraceConfig::Off, track, hz).finish()
    }

    /// Merge another track's data into this one (same track expected —
    /// e.g. an SPE environment's tracer and its MFC's tracer).
    pub fn merge(&mut self, other: TrackData) {
        self.events.extend(other.events);
        self.counters.merge(&other.counters);
        self.dma_latency.merge(&other.dma_latency);
        self.mailbox_stall.merge(&other.mailbox_stall);
    }
}

/// The merged output of one traced run: every track's events, counters
/// and histograms.
#[derive(Debug, Clone, Default)]
pub struct TraceReport {
    pub tracks: Vec<TrackData>,
}

impl TraceReport {
    /// Total number of events across all tracks.
    pub fn event_count(&self) -> usize {
        self.tracks.iter().map(|t| t.events.len()).sum()
    }

    /// All events of one kind, across tracks.
    pub fn events_of(&self, kind: EventKind) -> impl Iterator<Item = &TraceEvent> {
        self.tracks
            .iter()
            .flat_map(move |t| t.events.iter().filter(move |e| e.kind == kind))
    }

    /// Aggregate a counter across tracks (sum, or max for high-water
    /// counters).
    pub fn counter(&self, c: Counter) -> u64 {
        let mut acc = 0u64;
        for t in &self.tracks {
            if c.merge_is_max() {
                acc = acc.max(t.counters.get(c));
            } else {
                acc += t.counters.get(c);
            }
        }
        acc
    }

    /// Export as Chrome trace-event JSON (the "JSON Object Format" with
    /// `displayTimeUnit`), loadable in Perfetto or `chrome://tracing`.
    /// Timestamps convert from per-track virtual cycles to microseconds.
    pub fn to_chrome_json(&self) -> String {
        let mut w = JsonWriter::default();
        w.begin_object().key("displayTimeUnit").str("ms");
        w.key("traceEvents").begin_array();
        self.append_chrome_events(&mut w);
        w.end_array().end_object();
        w.finish()
    }

    /// Write this report's machine tracks as Chrome trace-event objects
    /// (thread-name metadata plus `ph:"X"` spans) into the open array of
    /// `w`, so a layered exporter can put its own tracks beside the
    /// machine ones inside a single `traceEvents` array.
    pub fn append_chrome_events(&self, w: &mut JsonWriter) {
        for track in &self.tracks {
            let tid = track.track.tid();
            w.begin_object();
            w.key("ph").str("M").key("pid").u64(1).key("tid").u64(tid);
            w.key("name").str("thread_name").key("args").begin_object();
            w.key("name").str(&track.track.name());
            w.end_object().end_object();
            let scale = 1e6 / track.hz;
            for e in &track.events {
                w.begin_object();
                w.key("ph").str("X").key("pid").u64(1).key("tid").u64(tid);
                w.key("ts").fixed(e.ts as f64 * scale, 3);
                w.key("dur").fixed(e.dur as f64 * scale, 3);
                w.key("cat").str(e.kind.category()).key("name").str(e.label);
                w.key("args").begin_object();
                w.key("arg0").u64(e.arg0).key("arg1").u64(e.arg1);
                w.key("ea").u64(e.ea).key("span").u64(e.span);
                w.key("epoch").u64(e.epoch);
                w.end_object().end_object();
            }
        }
    }

    /// Aggregate the raw streams into a [`MetricsReport`].
    pub fn metrics(&self) -> MetricsReport {
        let ppe = self.tracks.iter().find(|t| t.track == Track::Ppe);
        let total_seconds = match ppe {
            Some(t) if t.hz > 0.0 => t.counters.get(Counter::TotalCycles) as f64 / t.hz,
            _ => 0.0,
        };

        // Per-phase wall time from PPE dispatch spans, grouped by label.
        let mut phases: Vec<PhaseTime> = Vec::new();
        if let Some(t) = ppe {
            for e in t.events.iter().filter(|e| e.kind == EventKind::Dispatch) {
                let seconds = e.dur as f64 / t.hz;
                match phases.iter_mut().find(|p| p.label == e.label) {
                    Some(p) => {
                        p.seconds += seconds;
                        p.spans += 1;
                    }
                    None => phases.push(PhaseTime {
                        label: e.label.to_string(),
                        seconds,
                        spans: 1,
                        fraction: 0.0,
                    }),
                }
            }
        }
        if total_seconds > 0.0 {
            for p in &mut phases {
                p.fraction = p.seconds / total_seconds;
            }
        }

        let mut spes: Vec<SpeMetrics> = Vec::new();
        for t in &self.tracks {
            if let Track::Spe(i) = t.track {
                let c = &t.counters;
                let total = c.get(Counter::TotalCycles);
                let stall = c.get(Counter::MailboxStallCycles) + c.get(Counter::DmaStallCycles);
                spes.push(SpeMetrics {
                    spe: i,
                    total_cycles: total,
                    stall_cycles: stall,
                    busy_fraction: if total > 0 {
                        1.0 - (stall.min(total) as f64 / total as f64)
                    } else {
                        0.0
                    },
                    dma_bytes_in: c.get(Counter::DmaBytesIn),
                    dma_bytes_out: c.get(Counter::DmaBytesOut),
                    mailbox_sends: c.get(Counter::MailboxSends),
                    mailbox_recvs: c.get(Counter::MailboxRecvs),
                    ls_high_water: c.get(Counter::LsHighWater),
                });
            }
        }
        spes.sort_by_key(|s| s.spe);

        let horizon = self.counter(Counter::EibHorizon);
        let capacity = self.counter(Counter::EibSlotCapacity);
        let data_cycles = self.counter(Counter::EibDataCycles);
        let eib = EibMetrics {
            transfers: self.counter(Counter::EibTransfers),
            bytes: self.counter(Counter::EibBytes),
            utilization: if horizon > 0 && capacity > 0 {
                data_cycles as f64 / (horizon as f64 * capacity as f64)
            } else {
                0.0
            },
            queued_cycles: self.counter(Counter::EibQueuedCycles),
        };

        let mut dma_latency = LogHistogram::new();
        let mut mailbox_stall = LogHistogram::new();
        for t in &self.tracks {
            dma_latency.merge(&t.dma_latency);
            mailbox_stall.merge(&t.mailbox_stall);
        }

        MetricsReport {
            total_seconds,
            phases,
            spes,
            eib,
            dma_latency,
            mailbox_stall,
        }
    }
}

/// Wall time attributed to one dispatch label (stub name).
#[derive(Debug, Clone)]
pub struct PhaseTime {
    pub label: String,
    pub seconds: f64,
    /// Number of dispatch spans aggregated into `seconds`.
    pub spans: u64,
    /// `seconds` / total run seconds.
    pub fraction: f64,
}

/// Aggregates for one SPE track.
#[derive(Debug, Clone)]
pub struct SpeMetrics {
    pub spe: usize,
    pub total_cycles: u64,
    pub stall_cycles: u64,
    /// 1 − stall/total: fraction of the SPE's lifetime not blocked on
    /// mailboxes or DMA tag waits.
    pub busy_fraction: f64,
    pub dma_bytes_in: u64,
    pub dma_bytes_out: u64,
    pub mailbox_sends: u64,
    pub mailbox_recvs: u64,
    pub ls_high_water: u64,
}

/// Aggregates for the bus.
#[derive(Debug, Clone)]
pub struct EibMetrics {
    pub transfers: u64,
    pub bytes: u64,
    /// Busy data-cycles over available slot-cycles across the traced
    /// horizon — the simulated analogue of achieved/peak bandwidth.
    pub utilization: f64,
    pub queued_cycles: u64,
}

/// The aggregated, human-consumable metrics of one traced run.
#[derive(Debug, Clone)]
pub struct MetricsReport {
    /// Run wall time, from the PPE clock.
    pub total_seconds: f64,
    pub phases: Vec<PhaseTime>,
    pub spes: Vec<SpeMetrics>,
    pub eib: EibMetrics,
    pub dma_latency: LogHistogram,
    pub mailbox_stall: LogHistogram,
}

impl MetricsReport {
    /// Decompose the run into per-phase fractions for the paper's
    /// Eq. 1–3 estimators: each dispatch label becomes a kernel with
    /// fraction `phase.seconds / total_seconds`; the remainder is the
    /// serial part.
    pub fn amdahl_decomposition(&self) -> AmdahlDecomposition {
        let covered: f64 = self.phases.iter().map(|p| p.fraction).sum();
        AmdahlDecomposition {
            total_seconds: self.total_seconds,
            serial_seconds: self.total_seconds * (1.0 - covered).max(0.0),
            phases: self.phases.clone(),
        }
    }

    /// Multi-line text summary.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "run: {:.6} s total", self.total_seconds);
        for p in &self.phases {
            let _ = writeln!(
                out,
                "  phase {:<12} {:>10.6} s  {:>5.1}%  ({} spans)",
                p.label,
                p.seconds,
                p.fraction * 100.0,
                p.spans
            );
        }
        for s in &self.spes {
            let _ = writeln!(
                out,
                "  spe{} busy {:>5.1}%  dma in/out {}/{} B  mbox s/r {}/{}  ls hw {} B",
                s.spe,
                s.busy_fraction * 100.0,
                s.dma_bytes_in,
                s.dma_bytes_out,
                s.mailbox_sends,
                s.mailbox_recvs,
                s.ls_high_water
            );
        }
        let _ = writeln!(
            out,
            "  eib: {} transfers, {} B, utilization {:.2}%, queued {} bus-cycles",
            self.eib.transfers,
            self.eib.bytes,
            self.eib.utilization * 100.0,
            self.eib.queued_cycles
        );
        let _ = writeln!(
            out,
            "  dma latency: mean {:.0} cy, p95 <= {} cy, max {} cy ({} transfers)",
            self.dma_latency.mean(),
            self.dma_latency.percentile(0.95),
            self.dma_latency.max(),
            self.dma_latency.count()
        );
        let _ = writeln!(
            out,
            "  mailbox stall: mean {:.0} cy, p95 <= {} cy, max {} cy ({} waits)",
            self.mailbox_stall.mean(),
            self.mailbox_stall.percentile(0.95),
            self.mailbox_stall.max(),
            self.mailbox_stall.count()
        );
        out
    }
}

/// Observed per-phase decomposition, ready for the Eq. 1–3 estimators.
#[derive(Debug, Clone)]
pub struct AmdahlDecomposition {
    pub total_seconds: f64,
    /// Time not covered by any dispatch span (the `1 − Σf` serial part).
    pub serial_seconds: f64,
    pub phases: Vec<PhaseTime>,
}

impl AmdahlDecomposition {
    /// Fraction covered by offloaded phases.
    pub fn covered_fraction(&self) -> f64 {
        self.phases.iter().map(|p| p.fraction).sum()
    }

    /// Predicted speedup (Eq. 3 with unit per-kernel speedups) of
    /// running the phases in the given concurrent groups instead of
    /// sequentially. Indices refer to `self.phases`.
    pub fn predicted_grouped_speedup(&self, groups: &[Vec<usize>]) -> f64 {
        let specs: Vec<(f64, f64)> = self.phases.iter().map(|p| (p.fraction, 1.0)).collect();
        eq3_grouped(&specs, groups)
    }
}

/// Paper Eq. 1: speedup from accelerating one fraction `f` by `s`.
pub fn eq1_single(f: f64, s: f64) -> f64 {
    1.0 / ((1.0 - f) + f / s)
}

/// Paper Eq. 2: kernels `(fraction, speedup)` accelerated one after
/// another — their remaining times add up.
pub fn eq2_sequential(kernels: &[(f64, f64)]) -> f64 {
    let covered: f64 = kernels.iter().map(|&(f, _)| f).sum();
    let accel: f64 = kernels.iter().map(|&(f, s)| f / s).sum();
    1.0 / ((1.0 - covered) + accel)
}

/// Paper Eq. 3: kernels running concurrently within `groups`; each
/// group costs only its slowest member.
pub fn eq3_grouped(kernels: &[(f64, f64)], groups: &[Vec<usize>]) -> f64 {
    let covered: f64 = kernels.iter().map(|&(f, _)| f).sum();
    let overlapped: f64 = groups
        .iter()
        .map(|g| {
            g.iter()
                .map(|&i| kernels[i].0 / kernels[i].1)
                .fold(0.0, f64::max)
        })
        .sum();
    1.0 / ((1.0 - covered) + overlapped)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_records_nothing() {
        let mut t = Tracer::off();
        t.span(EventKind::DmaGet, "dma_get", 0, 10, 4096, 1);
        t.count(Counter::DmaGets, 1);
        t.record_dma_latency(128);
        assert!(t.events().is_empty());
        assert!(t.counters().is_empty());
        let d = t.finish();
        assert_eq!(d.dma_latency.count(), 0);
    }

    #[test]
    fn counters_mode_counts_but_no_events() {
        let mut t = Tracer::new(TraceConfig::Counters, Track::Spe(0), 3.2e9);
        t.span(EventKind::DmaGet, "dma_get", 0, 10, 4096, 1);
        t.count(Counter::DmaGets, 1);
        t.count(Counter::DmaBytesIn, 4096);
        assert!(t.events().is_empty());
        assert_eq!(t.counters().get(Counter::DmaGets), 1);
        assert_eq!(t.counters().get(Counter::DmaBytesIn), 4096);
    }

    #[test]
    fn full_mode_records_events() {
        let mut t = Tracer::new(TraceConfig::Full, Track::Spe(2), 3.2e9);
        t.span(EventKind::MailboxRecv, "mbox_recv", 100, 50, 7, 0);
        assert_eq!(t.events().len(), 1);
        let e = t.events()[0];
        assert_eq!(e.ts, 100);
        assert_eq!(e.dur, 50);
        assert_eq!(e.arg0, 7);
    }

    #[test]
    fn span_mem_carries_effective_address() {
        let mut t = Tracer::new(TraceConfig::Full, Track::Spe(1), 3.2e9);
        t.span_mem(EventKind::DmaPut, "dma_put", 10, 5, 4096, 2, 0x8_0000);
        t.span(EventKind::MailboxSend, "mbox_send", 20, 0, 7, 0);
        assert_eq!(t.events()[0].ea, 0x8_0000);
        assert_eq!(t.events()[1].ea, 0, "plain span defaults ea to 0");
        let json = TraceReport {
            tracks: vec![t.finish()],
        }
        .to_chrome_json();
        assert!(json.contains("\"ea\":524288"));
    }

    #[test]
    fn counter_merge_respects_max_semantics() {
        let mut a = CounterSet::new();
        a.add(Counter::DmaGets, 3);
        a.raise(Counter::LsHighWater, 1000);
        let mut b = CounterSet::new();
        b.add(Counter::DmaGets, 4);
        b.raise(Counter::LsHighWater, 700);
        a.merge(&b);
        assert_eq!(a.get(Counter::DmaGets), 7);
        assert_eq!(a.get(Counter::LsHighWater), 1000);
    }

    #[test]
    fn counter_all_covers_every_index() {
        for (i, c) in Counter::ALL.iter().enumerate() {
            assert_eq!(*c as usize, i);
        }
    }

    #[test]
    fn histogram_buckets_and_stats() {
        let mut h = LogHistogram::new();
        for v in [0u64, 1, 2, 3, 4, 1000, 1_000_000] {
            h.record(v);
        }
        assert_eq!(h.count(), 7);
        assert_eq!(h.max(), 1_000_000);
        assert!((h.mean() - (1_001_010.0 / 7.0)).abs() < 1e-9);
        // p50 falls in the buckets holding the small values.
        assert!(h.percentile(0.5) <= 7);
        // p100 is bounded above by the bucket holding the max.
        assert!(h.percentile(1.0) >= 1_000_000);
    }

    #[test]
    fn histogram_merge_adds_counts() {
        let mut a = LogHistogram::new();
        a.record(5);
        let mut b = LogHistogram::new();
        b.record(500);
        b.record(9);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.sum(), 514);
        assert_eq!(a.max(), 500);
    }

    #[test]
    fn chrome_json_is_structurally_sound() {
        // No tracks: the bare envelope.
        assert_eq!(
            TraceReport::default().to_chrome_json(),
            "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[]}"
        );
        // One track, one event. 3200 cycles at 3.2 GHz = 1 us.
        let mut t = Tracer::new(TraceConfig::Full, Track::Spe(0), 3.2e9);
        t.span(EventKind::DmaGet, "dma_get", 3200, 320, 4096, 5);
        let report = TraceReport {
            tracks: vec![t.finish()],
        };
        assert_eq!(report.to_chrome_json(),
            "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\
            {\"ph\":\"M\",\"pid\":1,\"tid\":1,\"name\":\"thread_name\",\"args\":{\"name\":\"SPE0\"}},\
            {\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":1.000,\"dur\":0.100,\"cat\":\"dma\",\"name\":\"dma_get\",\"args\":{\"arg0\":4096,\"arg1\":5,\"ea\":0,\"span\":0,\"epoch\":0}}]}"
        );
        // Several tracks (one of them empty) and several events, with
        // sub-microsecond and bus-clock timestamps.
        let mut ppe = Tracer::new(TraceConfig::Full, Track::Ppe, 3.2e9);
        ppe.span(EventKind::Dispatch, "CH", 0, 1, 0, 0);
        ppe.set_span_context(9);
        ppe.set_epoch(3);
        ppe.span_mem(EventKind::DmaPut, "dma_put", 1_600, 4_800, 16, 2, 0x100);
        let mut eib = Tracer::new(TraceConfig::Full, Track::Eib, 1.6e9);
        eib.span(EventKind::EibTransfer, "eib", 7, 5, 128, 1);
        let empty = Tracer::new(TraceConfig::Full, Track::Spe(3), 3.2e9);
        let report = TraceReport {
            tracks: vec![ppe.finish(), empty.finish(), eib.finish()],
        };
        assert_eq!(report.to_chrome_json(),
            "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\
            {\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"thread_name\",\"args\":{\"name\":\"PPE\"}},\
            {\"ph\":\"X\",\"pid\":1,\"tid\":0,\"ts\":0.000,\"dur\":0.000,\"cat\":\"dispatch\",\"name\":\"CH\",\"args\":{\"arg0\":0,\"arg1\":0,\"ea\":0,\"span\":0,\"epoch\":0}},\
            {\"ph\":\"X\",\"pid\":1,\"tid\":0,\"ts\":0.500,\"dur\":1.500,\"cat\":\"dma\",\"name\":\"dma_put\",\"args\":{\"arg0\":16,\"arg1\":2,\"ea\":256,\"span\":9,\"epoch\":3}},\
            {\"ph\":\"M\",\"pid\":1,\"tid\":4,\"name\":\"thread_name\",\"args\":{\"name\":\"SPE3\"}},\
            {\"ph\":\"M\",\"pid\":1,\"tid\":99,\"name\":\"thread_name\",\"args\":{\"name\":\"EIB\"}},\
            {\"ph\":\"X\",\"pid\":1,\"tid\":99,\"ts\":0.004,\"dur\":0.003,\"cat\":\"eib\",\"name\":\"eib\",\"args\":{\"arg0\":128,\"arg1\":1,\"ea\":0,\"span\":0,\"epoch\":0}}]}"
        );
    }

    #[test]
    fn chrome_json_escapes_labels() {
        let mut t = Tracer::new(TraceConfig::Full, Track::Ppe, 3.2e9);
        t.span(EventKind::Dispatch, "a\"b\\c\nd\u{1}e", 0, 0, 0, 0);
        let report = TraceReport {
            tracks: vec![t.finish()],
        };
        assert_eq!(report.to_chrome_json(),
            "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\
            {\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"thread_name\",\"args\":{\"name\":\"PPE\"}},\
            {\"ph\":\"X\",\"pid\":1,\"tid\":0,\"ts\":0.000,\"dur\":0.000,\"cat\":\"dispatch\",\"name\":\"a\\\"b\\\\c\\nd\\u0001e\",\"args\":{\"arg0\":0,\"arg1\":0,\"ea\":0,\"span\":0,\"epoch\":0}}]}"
        );
    }

    #[test]
    fn metrics_aggregates_phases_and_spes() {
        let hz = 3.2e9;
        let mut ppe = Tracer::new(TraceConfig::Full, Track::Ppe, hz);
        ppe.span(EventKind::Dispatch, "CH", 0, 3_200_000, 0, 0);
        ppe.span(EventKind::Dispatch, "CH", 3_200_000, 3_200_000, 0, 0);
        ppe.span(EventKind::Dispatch, "CC", 6_400_000, 6_400_000, 1, 0);
        ppe.count_max(Counter::TotalCycles, 16_000_000);
        let mut spe = Tracer::new(TraceConfig::Full, Track::Spe(0), hz);
        spe.count(Counter::MailboxStallCycles, 2_000_000);
        spe.count_max(Counter::TotalCycles, 10_000_000);
        spe.count(Counter::DmaBytesIn, 8192);
        let report = TraceReport {
            tracks: vec![ppe.finish(), spe.finish()],
        };
        let m = report.metrics();
        assert!((m.total_seconds - 16_000_000.0 / hz).abs() < 1e-12);
        assert_eq!(m.phases.len(), 2);
        let ch = m.phases.iter().find(|p| p.label == "CH").unwrap();
        assert_eq!(ch.spans, 2);
        assert!((ch.fraction - 6_400_000.0 / 16_000_000.0).abs() < 1e-12);
        assert_eq!(m.spes.len(), 1);
        assert!((m.spes[0].busy_fraction - 0.8).abs() < 1e-12);
        assert_eq!(m.spes[0].dma_bytes_in, 8192);
        assert!(!m.render().is_empty());
    }

    #[test]
    fn eib_utilization_is_data_over_capacity() {
        let mut eib = Tracer::new(TraceConfig::Counters, Track::Eib, 1.6e9);
        eib.count(Counter::EibDataCycles, 300);
        eib.count_max(Counter::EibHorizon, 1000);
        eib.count_max(Counter::EibSlotCapacity, 3);
        let report = TraceReport {
            tracks: vec![eib.finish()],
        };
        let m = report.metrics();
        assert!((m.eib.utilization - 0.1).abs() < 1e-12);
    }

    #[test]
    fn amdahl_eq1_matches_hand_value() {
        // f = 0.5, s = 2 -> 1 / (0.5 + 0.25) = 4/3.
        assert!((eq1_single(0.5, 2.0) - 4.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn amdahl_eq3_beats_eq2() {
        let ks = [(0.2, 2.0), (0.3, 3.0), (0.1, 1.5)];
        let seq = eq2_sequential(&ks);
        let grp = eq3_grouped(&ks, &[vec![0, 1, 2]]);
        assert!(grp > seq);
        // Grouped cost is max(0.1, 0.1, 0.0667) = 0.1 over serial 0.4.
        assert!((grp - 1.0 / 0.5).abs() < 1e-12);
    }

    #[test]
    fn decomposition_predicts_grouped_speedup() {
        let m = MetricsReport {
            total_seconds: 1.0,
            phases: vec![
                PhaseTime {
                    label: "a".into(),
                    seconds: 0.3,
                    spans: 1,
                    fraction: 0.3,
                },
                PhaseTime {
                    label: "b".into(),
                    seconds: 0.2,
                    spans: 1,
                    fraction: 0.2,
                },
            ],
            spes: vec![],
            eib: EibMetrics {
                transfers: 0,
                bytes: 0,
                utilization: 0.0,
                queued_cycles: 0,
            },
            dma_latency: LogHistogram::new(),
            mailbox_stall: LogHistogram::new(),
        };
        let d = m.amdahl_decomposition();
        assert!((d.serial_seconds - 0.5).abs() < 1e-12);
        // Grouping both phases: 1 / (0.5 + max(0.3, 0.2)) = 1.25.
        let s = d.predicted_grouped_speedup(&[vec![0, 1]]);
        assert!((s - 1.25).abs() < 1e-12);
    }

    #[test]
    fn trackdata_merge_combines_streams() {
        let mut a = Tracer::new(TraceConfig::Full, Track::Spe(1), 3.2e9);
        a.span(EventKind::MailboxRecv, "mbox_recv", 0, 10, 1, 0);
        a.count(Counter::MailboxRecvs, 1);
        let mut b = Tracer::new(TraceConfig::Full, Track::Spe(1), 3.2e9);
        b.span(EventKind::DmaGet, "dma_get", 5, 20, 128, 0);
        b.count(Counter::DmaGets, 1);
        b.record_dma_latency(20);
        let mut d = a.finish();
        d.merge(b.finish());
        assert_eq!(d.events.len(), 2);
        assert_eq!(d.counters.get(Counter::MailboxRecvs), 1);
        assert_eq!(d.counters.get(Counter::DmaGets), 1);
        assert_eq!(d.dma_latency.count(), 1);
    }

    #[test]
    fn report_counter_sums_across_tracks() {
        let mut a = Tracer::new(TraceConfig::Counters, Track::Spe(0), 3.2e9);
        a.count(Counter::DmaBytesIn, 100);
        a.count_max(Counter::TotalCycles, 500);
        let mut b = Tracer::new(TraceConfig::Counters, Track::Spe(1), 3.2e9);
        b.count(Counter::DmaBytesIn, 50);
        b.count_max(Counter::TotalCycles, 900);
        let r = TraceReport {
            tracks: vec![a.finish(), b.finish()],
        };
        assert_eq!(r.counter(Counter::DmaBytesIn), 150);
        assert_eq!(r.counter(Counter::TotalCycles), 900);
    }

    #[test]
    fn span_context_stamps_events() {
        let mut t = Tracer::new(TraceConfig::Full, Track::Spe(0), 3.2e9);
        t.span(EventKind::Kernel, "k0", 0, 10, 0, 0);
        t.set_span_context(42);
        t.span(EventKind::Kernel, "k1", 10, 10, 0, 0);
        t.span_mem(EventKind::DmaPut, "dma_put", 20, 5, 128, 1, 0x1000);
        t.clear_span_context();
        t.span(EventKind::Kernel, "k2", 30, 10, 0, 0);
        let spans: Vec<u64> = t.events().iter().map(|e| e.span).collect();
        assert_eq!(spans, vec![0, 42, 42, 0]);
        // Explicit tagging bypasses the ambient context entirely.
        t.set_span_context(7);
        t.span_tagged(EventKind::Dispatch, "done", 40, 10, 0, 0, 42);
        assert_eq!(t.events().last().unwrap().span, 42);
    }

    #[test]
    fn span_context_survives_chrome_export() {
        let mut t = Tracer::new(TraceConfig::Full, Track::Ppe, 3.2e9);
        t.set_span_context(9001);
        t.span(EventKind::Dispatch, "d", 0, 100, 0, 0);
        let json = TraceReport {
            tracks: vec![t.finish()],
        }
        .to_chrome_json();
        assert!(json.contains("\"span\":9001"));
    }

    #[test]
    fn flight_recorder_stays_on_under_counters() {
        let mut t = Tracer::new(TraceConfig::Counters, Track::Ppe, 3.2e9);
        t.set_flight_capacity(4);
        for i in 0..10u64 {
            t.span(EventKind::Dispatch, "d", i, 1, i, 0);
        }
        assert!(t.events().is_empty(), "Counters never fills the stream");
        let flight = t.flight_events();
        assert_eq!(flight.len(), 4);
        let arg0: Vec<u64> = flight.iter().map(|e| e.arg0).collect();
        assert_eq!(
            arg0,
            vec![6, 7, 8, 9],
            "ring keeps the most recent, in order"
        );
    }

    #[test]
    fn flight_recorder_is_stream_tail_under_full_and_empty_off() {
        let mut t = Tracer::new(TraceConfig::Full, Track::Ppe, 3.2e9);
        t.set_flight_capacity(3);
        for i in 0..5u64 {
            t.span(EventKind::Dispatch, "d", i, 1, i, 0);
        }
        assert_eq!(t.events().len(), 5);
        let arg0: Vec<u64> = t.flight_events().iter().map(|e| e.arg0).collect();
        assert_eq!(arg0, vec![2, 3, 4]);
        let mut off = Tracer::off();
        off.span(EventKind::Dispatch, "d", 0, 1, 0, 0);
        assert!(off.flight_events().is_empty());
    }

    #[test]
    fn full_mode_prereserves_event_storage() {
        let t = Tracer::new(TraceConfig::Full, Track::Ppe, 3.2e9);
        assert!(t.events.capacity() >= EVENT_PREALLOC);
        // The explicit-capacity constructor reproduces the old behavior.
        let bare = Tracer::with_event_capacity(TraceConfig::Full, Track::Ppe, 3.2e9, 0);
        assert_eq!(bare.events.capacity(), 0);
        // Off stays allocation-free; upgrading the config reserves.
        let mut lazy = Tracer::new(TraceConfig::Off, Track::Ppe, 3.2e9);
        assert_eq!(lazy.events.capacity(), 0);
        lazy.set_config(TraceConfig::Full);
        assert!(lazy.events.capacity() >= EVENT_PREALLOC);
    }

    #[test]
    fn percentile_empty_and_clamping_edges() {
        let empty = LogHistogram::new();
        assert_eq!(empty.percentile(0.5), 0);
        assert_eq!(empty.percentile(f64::NAN), 0);

        let mut h = LogHistogram::new();
        for v in [1u64, 2, 4, 1000, 65_536] {
            h.record(v);
        }
        // Out-of-range q clamps to the nearest valid quantile.
        assert_eq!(h.percentile(-3.0), h.percentile(0.0));
        assert_eq!(h.percentile(17.0), h.percentile(1.0));
        // q = 0 lands in the minimum's bucket, q = 1 bounds the max.
        assert_eq!(h.percentile(0.0), 1);
        assert!(h.percentile(1.0) >= 65_536);
        // NaN is the conservative full-distribution bound, not q ≈ 0.
        assert_eq!(h.percentile(f64::NAN), h.percentile(1.0));
    }

    #[test]
    fn percentile_is_monotone_in_q() {
        let mut h = LogHistogram::new();
        let mut x = 7u64;
        for _ in 0..500 {
            // Deterministic pseudo-random spread across many buckets.
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            h.record(x >> (x % 48));
        }
        let mut last = 0u64;
        for i in 0..=20 {
            let p = h.percentile(i as f64 / 20.0);
            assert!(p >= last, "percentile must be monotone in q");
            last = p;
        }
    }

    #[test]
    fn histogram_sum_saturates_instead_of_overflowing() {
        let mut h = LogHistogram::new();
        h.record(u64::MAX);
        h.record(u64::MAX);
        assert_eq!(h.sum(), u64::MAX);
        assert_eq!(h.count(), 2);
        let mut other = LogHistogram::new();
        other.record(u64::MAX);
        h.merge(&other);
        assert_eq!(h.sum(), u64::MAX);
        assert_eq!(h.count(), 3);
    }

    #[test]
    fn merge_of_disjoint_ranges_matches_replaying() {
        // Property: merge(a, b) is indistinguishable from recording both
        // observation sets into one histogram, including when the bucket
        // ranges are fully disjoint.
        let low = [0u64, 1, 2, 3, 5, 7];
        let high = [1 << 40, (1 << 40) + 1, 1 << 50, u64::MAX];
        let mut a = LogHistogram::new();
        for &v in &low {
            a.record(v);
        }
        let mut b = LogHistogram::new();
        for &v in &high {
            b.record(v);
        }
        let mut replayed = LogHistogram::new();
        for &v in low.iter().chain(high.iter()) {
            replayed.record(v);
        }
        a.merge(&b);
        assert_eq!(a, replayed);
        assert_eq!(a.count(), (low.len() + high.len()) as u64);
        assert_eq!(a.max(), u64::MAX);
        for i in 0..=10 {
            let q = i as f64 / 10.0;
            assert_eq!(a.percentile(q), replayed.percentile(q));
        }
        // The low half's quantiles stay low, the top quantile is high.
        assert!(a.percentile(0.5) <= 7);
        assert!(a.percentile(1.0) >= 1 << 50);
    }
}

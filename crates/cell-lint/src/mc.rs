//! Explicit-state protocol model checking (`cell-lint --mc`).
//!
//! The static passes in [`crate::rules`] check each dispatch script as a
//! straight-line state machine; this module checks what they cannot: the
//! *product* of the PPE driver, the SPE dispatcher loop, the 4-deep
//! inbound mailbox and the supervision machinery, under a
//! nondeterministic fault oracle. Every interleaving of word-level
//! mailbox traffic is explored by breadth-first search over a finite
//! state graph, so a verdict of "deadlock-free" is a proof over the
//! model, not a test that happened to pass.
//!
//! # The model
//!
//! One exploration covers one [`DispatchScript`] talking to one SPE:
//!
//! * **PPE** — executes the script op by op, but *word by word*: a
//!   `Send` is two separate inbound-mailbox writes (opcode, then arg),
//!   an `SPU_BATCH` frame is `2 + 2·count` writes, `Close` is the one
//!   `SPU_EXIT` word. A write blocks while the 4-deep inbox is full; a
//!   `WaitReply` blocks while the 1-deep outbox is empty. Scripts whose
//!   declared window exceeds 1 are additionally re-checked at **every
//!   width from 1 up to the configured window** — the interleavings a
//!   narrower pump would produce are real executions too.
//! * **SPE** — the Listing 3 loop: consume a word when one is queued
//!   (an opcode starts a dispatch, a batch header starts a frame,
//!   `SPU_EXIT` exits), run the kernel, push the reply when the outbox
//!   is free.
//! * **Fault oracle** — at any step where the port declares supervision
//!   ([`PortModel::supervision`]), the oracle may *crash* the SPE (its
//!   mailboxes close; PPE operations error immediately), *hang* it (the
//!   mailboxes stay open but nothing is ever consumed or produced), or
//!   *drop* a queued reply. The fault budget is the breaker threshold
//!   (clamped to 1..=4), so the breaker's trip path is reachable
//!   exactly when the declared threshold is.
//! * **Supervision** — detection (crashes error out; hangs need the
//!   watchdog or deadline waits; dropped replies need deadline waits)
//!   moves the run into the recovery gadget: failover replays the
//!   request on a survivor, respawn retries the slot, consecutive
//!   failures walk the circuit breaker Closed → Open → HalfOpen →
//!   probe, exactly the `cell-serve` machinery.
//!
//! A run *accepts* when the script completes with the dispatcher exited
//! (or the slot deliberately retired), or when recovery completes. A
//! state with no enabled transition that does not accept is a defect,
//! reported with a counterexample path:
//!
//! | id | severity | meaning |
//! |----|----------|---------|
//! | `mc-deadlock` | Error | mutual mailbox wait between live parties |
//! | `mc-lost-wakeup` | Error | a wait whose wakeup can never arrive (hung/crashed/code-less slot, lost reply with no deadline) |
//! | `mc-livelock-no-exit` | Error | script ends without `SPU_EXIT`: the dispatcher spins forever and join hangs |
//! | `mc-breaker-stuck` | Error | a reachable breaker-Open state with no path back to service |
//! | `mc-unreachable-recovery` | Warning | declared recovery machinery no exploration could exercise |
//! | `mc-state-cap` | Warning | exploration stopped at [`McConfig::max_states`]; verdict incomplete |

use std::collections::{HashMap, VecDeque};
use std::fmt::Write as _;

use cell_trace::json::JsonWriter;
use portkit::advisor::Severity;

use crate::model::{DispatchScript, PortModel, ScriptOp, SupervisionModel};
use crate::rules::{write_findings, Finding};

/// Inbound-mailbox depth on the modeled machine (words).
pub const INBOX_DEPTH: usize = 4;

/// Exploration limits.
#[derive(Debug, Clone, Copy)]
pub struct McConfig {
    /// Distinct states per (script, window) exploration before the
    /// checker gives up with `mc-state-cap`. The shipped ports each
    /// finish in a few thousand states; the default leaves three
    /// orders of magnitude of headroom.
    pub max_states: usize,
    /// Longest counterexample suffix rendered into a finding message.
    pub max_path: usize,
}

impl Default for McConfig {
    fn default() -> Self {
        McConfig {
            max_states: 1 << 20,
            max_path: 40,
        }
    }
}

impl McConfig {
    #[must_use]
    pub fn new() -> Self {
        McConfig::default()
    }
}

/// Exploration counters, aggregated over every script and window width.
#[derive(Debug, Clone, Copy, Default)]
pub struct McStats {
    /// Scripts checked.
    pub scripts: usize,
    /// (script, window-width) explorations run.
    pub variants: usize,
    /// Distinct states across all explorations.
    pub states: usize,
    /// Transitions fired across all explorations.
    pub transitions: usize,
    /// Largest single exploration (states).
    pub peak_states: usize,
}

/// The model-checking result for one port. Same finding/report
/// conventions as [`crate::rules::LintReport`]: stable rule ids,
/// severity-gated exit, the same JSON shape.
#[derive(Debug, Clone)]
#[must_use = "a model-checking report carries Error findings CI must gate on"]
pub struct McReport {
    pub port: String,
    pub findings: Vec<Finding>,
    pub stats: McStats,
}

impl McReport {
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

    /// Highest severity present, `None` when every interleaving accepts.
    #[must_use]
    pub fn worst(&self) -> Option<Severity> {
        self.findings.iter().map(|f| f.severity).max()
    }

    /// The machine-readable report (`target/lint/mc_<port>.json`).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::default();
        w.begin_object().key("port").str(&self.port);
        w.key("mode").str("mc");
        w.key("errors").u64(self.error_count() as u64);
        w.key("scripts").u64(self.stats.scripts as u64);
        w.key("variants").u64(self.stats.variants as u64);
        w.key("states").u64(self.stats.states as u64);
        w.key("transitions").u64(self.stats.transitions as u64);
        w.key("peak_states").u64(self.stats.peak_states as u64);
        write_findings(&mut w, &self.findings);
        w.end_object();
        w.finish()
    }

    /// Human-readable summary, one line per finding.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = format!(
            "{} [mc]: {} state(s) over {} variant(s), {} finding(s), {} error(s)\n",
            self.port,
            self.stats.states,
            self.stats.variants,
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

// ---------------------------------------------------------------------
// State space
// ---------------------------------------------------------------------

/// Inbound-mailbox word tokens. The SPE's next move depends only on the
/// head token's class, so words are abstracted to these.
const TOK_OP: u8 = 1;
const TOK_PAYLOAD: u8 = 2;
const TOK_EXIT: u8 = 3;
/// Batch header carrying its member count in the low bits.
const TOK_HDR: u8 = 0x40;

/// The SPE side of the product machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Spe {
    /// In the dispatcher loop, waiting on the inbound mailbox.
    Idle,
    /// Mid-frame: `n` more words wanted before the kernel runs.
    Collecting(u8),
    /// Kernel running; will push one reply when the outbox frees.
    Busy,
    /// Hung by the fault oracle: mailboxes open, nothing moves.
    Hung,
    /// Crashed by the fault oracle: context dead, mailboxes closed.
    Crashed,
    /// Deliberately retired; no dispatcher code until `UploadCode`.
    Bare,
    /// Consumed `SPU_EXIT`; the dispatcher loop returned.
    Exited,
}

impl Spe {
    fn alive(self) -> bool {
        matches!(self, Spe::Idle | Spe::Collecting(_) | Spe::Busy)
    }

    fn describe(self) -> &'static str {
        match self {
            Spe::Idle => "idle in the dispatch loop",
            Spe::Collecting(_) => "collecting a dispatch frame",
            Spe::Busy => "running the kernel",
            Spe::Hung => "hung (fault)",
            Spe::Crashed => "crashed (fault)",
            Spe::Bare => "retired with no dispatcher code",
            Spe::Exited => "exited",
        }
    }
}

/// The supervision gadget: where recovery stands once a fault is
/// detected. `Run` is normal script execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Sup {
    Run,
    /// Fault detected; `n` consecutive failures on the slot's breaker.
    Faulted(u8),
    /// Breaker tripped open.
    Open,
    /// Cooldown elapsed; one probe allowed.
    HalfOpen,
    /// Recovery complete: replayed on a survivor or slot respawned.
    Recovered,
}

/// One node of the product state graph. `Copy` and small on purpose:
/// explorations hash millions of these in the worst case.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct State {
    /// Script op index (== ops.len() when the script is done).
    pc: u16,
    /// Words of the current op already written to the inbox.
    sent: u8,
    /// Queued inbound words, head first.
    inbox: [u8; INBOX_DEPTH],
    inbox_len: u8,
    /// Outbound mailbox holds an unread reply.
    outbox: bool,
    /// A reply was dropped by the fault oracle and not yet detected.
    dropped: bool,
    /// Faults injected so far (bounded by the budget).
    faults: u8,
    spe: Spe,
    sup: Sup,
}

impl State {
    fn initial() -> Self {
        State {
            pc: 0,
            sent: 0,
            inbox: [0; INBOX_DEPTH],
            inbox_len: 0,
            outbox: false,
            dropped: false,
            faults: 0,
            spe: Spe::Idle,
            sup: Sup::Run,
        }
    }

    fn push_word(mut self, tok: u8) -> Self {
        debug_assert!((self.inbox_len as usize) < INBOX_DEPTH);
        self.inbox[self.inbox_len as usize] = tok;
        self.inbox_len += 1;
        self
    }

    fn pop_word(mut self) -> (Self, u8) {
        debug_assert!(self.inbox_len > 0);
        let tok = self.inbox[0];
        self.inbox.rotate_left(1);
        self.inbox[INBOX_DEPTH - 1] = 0;
        self.inbox_len -= 1;
        (self, tok)
    }
}

/// Words a script op writes to the inbound mailbox.
fn op_words(op: ScriptOp) -> u8 {
    match op {
        ScriptOp::Send { .. } => 2,
        ScriptOp::SendBatch { count, .. } => 2 + 2 * count,
        ScriptOp::Close => 1,
        ScriptOp::WaitReply | ScriptOp::Retire | ScriptOp::UploadCode => 0,
    }
}

/// The `idx`-th word of a multi-word op, as a token.
fn op_token(op: ScriptOp, idx: u8) -> u8 {
    match op {
        ScriptOp::Send { .. } => {
            if idx == 0 {
                TOK_OP
            } else {
                TOK_PAYLOAD
            }
        }
        ScriptOp::SendBatch { count, .. } => {
            if idx == 0 {
                TOK_HDR | count
            } else {
                TOK_PAYLOAD
            }
        }
        ScriptOp::Close => TOK_EXIT,
        _ => unreachable!("op has no mailbox words"),
    }
}

/// Which recovery transitions any exploration of the port managed to
/// take — the complement is `mc-unreachable-recovery`.
#[derive(Debug, Clone, Copy, Default)]
struct RecoverySeen {
    failover: bool,
    respawn: bool,
    half_open: bool,
}

struct Checker<'a> {
    ops: &'a [ScriptOp],
    sup: Option<SupervisionModel>,
    /// Faults the oracle may inject: the breaker threshold (clamped to
    /// 1..=4) when supervision is declared, else 0 — a port that never
    /// claimed fault tolerance is proven live in a fault-free world.
    budget: u8,
}

impl<'a> Checker<'a> {
    fn new(ops: &'a [ScriptOp], sup: Option<SupervisionModel>) -> Self {
        let budget = sup.map_or(0, |s| s.breaker_threshold.clamp(1, 4) as u8);
        Checker { ops, sup, budget }
    }

    fn accepting(&self, s: &State) -> bool {
        matches!(s.sup, Sup::Recovered)
            || (s.pc as usize == self.ops.len() && matches!(s.spe, Spe::Exited | Spe::Bare))
    }

    /// Breaker bookkeeping on entry to / within the recovery gadget.
    fn fault_entry(&self, failures: u8) -> Sup {
        let threshold = self.sup.map_or(u32::MAX, |s| s.breaker_threshold);
        if u32::from(failures) >= threshold {
            Sup::Open
        } else {
            Sup::Faulted(failures)
        }
    }

    /// Enumerate every enabled transition out of `s`, deterministically.
    fn successors(&self, s: &State, seen: &mut RecoverySeen, out: &mut Vec<(State, &'static str)>) {
        out.clear();
        match s.sup {
            Sup::Run => self.run_successors(s, out),
            Sup::Faulted(f) => {
                let sup = self.sup.expect("Faulted implies supervision");
                if sup.failover {
                    seen.failover = true;
                    let mut n = *s;
                    n.sup = Sup::Recovered;
                    out.push((n, "recover:failover-replay"));
                }
                if sup.respawn {
                    seen.respawn = true;
                    let mut ok = *s;
                    ok.sup = Sup::Recovered;
                    ok.spe = Spe::Idle;
                    out.push((ok, "recover:respawn-ok"));
                    if s.faults < self.budget {
                        let mut bad = *s;
                        bad.faults += 1;
                        bad.sup = self.fault_entry(f + 1);
                        out.push((bad, "recover:respawn-fail"));
                    }
                }
            }
            Sup::Open => {
                let sup = self.sup.expect("Open implies supervision");
                if sup.breaker_cooldown.is_some() {
                    seen.half_open = true;
                    let mut n = *s;
                    n.sup = Sup::HalfOpen;
                    out.push((n, "breaker:cooldown-half-open"));
                }
                if sup.failover {
                    seen.failover = true;
                    let mut n = *s;
                    n.sup = Sup::Recovered;
                    out.push((n, "recover:failover-replay"));
                }
            }
            Sup::HalfOpen => {
                seen.respawn = true;
                let mut ok = *s;
                ok.sup = Sup::Recovered;
                ok.spe = Spe::Idle;
                out.push((ok, "breaker:probe-ok"));
                if s.faults < self.budget {
                    let mut bad = *s;
                    bad.faults += 1;
                    bad.sup = Sup::Open;
                    out.push((bad, "breaker:probe-fail"));
                }
            }
            Sup::Recovered => {}
        }
    }

    /// Transitions of normal (pre-fault-detection) execution.
    fn run_successors(&self, s: &State, out: &mut Vec<(State, &'static str)>) {
        // --- PPE: the script, word by word. A crashed SPE freezes the
        // script: its closed mailboxes turn the next operation into the
        // error the detection transition below models.
        if (s.pc as usize) < self.ops.len() && s.spe != Spe::Crashed {
            let op = self.ops[s.pc as usize];
            let words = op_words(op);
            match op {
                ScriptOp::Send { .. } | ScriptOp::SendBatch { .. } | ScriptOp::Close => {
                    if s.spe == Spe::Bare {
                        // Writes to a retired slot go nowhere: there is
                        // no dispatcher to consume them. The op still
                        // "completes" from the script's point of view —
                        // the defect surfaces at the WaitReply.
                        let mut n = *s;
                        n.sent += 1;
                        if n.sent == words {
                            n.sent = 0;
                            n.pc += 1;
                        }
                        out.push((n, "ppe:write-dead-slot"));
                    } else if (s.inbox_len as usize) < INBOX_DEPTH {
                        let mut n = s.push_word(op_token(op, s.sent));
                        n.sent += 1;
                        if n.sent == words {
                            n.sent = 0;
                            n.pc += 1;
                        }
                        out.push((n, "ppe:write-word"));
                    }
                    // else: blocking write, PPE stalls.
                }
                ScriptOp::WaitReply => {
                    if s.outbox {
                        let mut n = *s;
                        n.outbox = false;
                        n.pc += 1;
                        out.push((n, "ppe:read-reply"));
                    }
                    // else: blocking read, PPE stalls.
                }
                ScriptOp::Retire => {
                    let mut n = *s;
                    n.spe = Spe::Bare;
                    n.inbox = [0; INBOX_DEPTH];
                    n.inbox_len = 0;
                    n.outbox = false;
                    n.pc += 1;
                    out.push((n, "ppe:retire"));
                }
                ScriptOp::UploadCode => {
                    let mut n = *s;
                    if n.spe == Spe::Bare {
                        n.spe = Spe::Idle;
                    }
                    n.pc += 1;
                    out.push((n, "ppe:upload-code"));
                }
            }
        }

        // --- SPE: the Listing 3 loop.
        match s.spe {
            Spe::Idle if s.inbox_len > 0 => {
                let (mut n, tok) = s.pop_word();
                let label;
                if tok == TOK_EXIT {
                    n.spe = Spe::Exited;
                    label = "spe:consume-exit";
                } else if tok & TOK_HDR != 0 {
                    // Batch header: the count word plus 2·count members.
                    n.spe = Spe::Collecting(1 + 2 * (tok & 0x3f));
                    label = "spe:consume-batch-hdr";
                } else {
                    // Opcode word: one argument word follows.
                    n.spe = Spe::Collecting(1);
                    label = "spe:consume-opcode";
                }
                out.push((n, label));
            }
            Spe::Collecting(need) if s.inbox_len > 0 => {
                let (mut n, _tok) = s.pop_word();
                n.spe = if need <= 1 {
                    Spe::Busy
                } else {
                    Spe::Collecting(need - 1)
                };
                out.push((n, "spe:consume-word"));
            }
            Spe::Busy if !s.outbox => {
                let mut n = *s;
                n.spe = Spe::Idle;
                n.outbox = true;
                out.push((n, "spe:push-reply"));
            }
            _ => {}
        }

        // --- Fault oracle.
        if s.faults < self.budget {
            if s.spe.alive() {
                let mut crash = *s;
                crash.spe = Spe::Crashed;
                crash.inbox = [0; INBOX_DEPTH];
                crash.inbox_len = 0;
                crash.outbox = false;
                crash.faults += 1;
                out.push((crash, "fault:crash"));

                let mut hang = *s;
                hang.spe = Spe::Hung;
                hang.faults += 1;
                out.push((hang, "fault:hang"));
            }
            if s.outbox {
                let mut lost = *s;
                lost.outbox = false;
                lost.dropped = true;
                lost.faults += 1;
                out.push((lost, "fault:drop-reply"));
            }
        }

        // --- Fault detection: the step where an error surfaces to the
        // supervisor and recovery takes over the conversation.
        if let Some(sup) = self.sup {
            let detectable = match s.spe {
                // Closed mailboxes: the next PPE op errors immediately.
                Spe::Crashed => true,
                // A hang is silent; somebody must notice the silence.
                Spe::Hung => sup.watchdog || sup.timeout,
                _ => false,
            } || (s.dropped && sup.timeout);
            if detectable {
                let mut n = *s;
                n.sup = self.fault_entry(1);
                out.push((n, "supervisor:detect-fault"));
            }
        }
    }

    /// Name and explain a reachable stuck state.
    fn classify(&self, s: &State) -> (&'static str, String) {
        let at = if (s.pc as usize) < self.ops.len() {
            format!("op #{} ({:?})", s.pc, self.ops[s.pc as usize])
        } else {
            "script end (join)".to_string()
        };
        if s.sup == Sup::Open {
            return (
                "mc-breaker-stuck",
                format!(
                    "circuit breaker reaches Open with no way back to service (no cooldown to \
                     half-open, no failover): the slot is dead forever and the conversation at \
                     {at} never completes"
                ),
            );
        }
        if matches!(s.spe, Spe::Hung | Spe::Crashed | Spe::Bare) || s.dropped {
            let cause = if s.dropped && s.spe.alive() {
                "its reply was dropped and no deadline fires"
            } else {
                s.spe.describe()
            };
            return (
                "mc-lost-wakeup",
                format!("PPE blocked at {at} waiting on an SPE that is {cause}: the wakeup can never arrive"),
            );
        }
        if s.pc as usize == self.ops.len() {
            return (
                "mc-livelock-no-exit",
                format!(
                    "script completed without SPU_EXIT: the dispatcher is still {} and the \
                     context join hangs forever",
                    s.spe.describe()
                ),
            );
        }
        (
            "mc-deadlock",
            format!(
                "mutual mailbox wait: PPE blocked at {at} (inbox {}/{INBOX_DEPTH} words, outbox \
                 {}), SPE {} — nobody can move",
                s.inbox_len,
                if s.outbox { "full" } else { "empty" },
                s.spe.describe()
            ),
        )
    }
}

// ---------------------------------------------------------------------
// Exploration
// ---------------------------------------------------------------------

struct Exploration {
    findings: Vec<Finding>,
    states: usize,
    transitions: usize,
}

/// BFS over the product graph from the initial state. Each distinct
/// defect rule is reported once per exploration, with the shortest
/// counterexample (BFS order guarantees minimality).
fn explore(
    checker: &Checker<'_>,
    subject: &str,
    cfg: &McConfig,
    seen: &mut RecoverySeen,
) -> Exploration {
    // Arena of (state, parent index, incoming transition label); node 0
    // is the initial state and its own parent.
    let mut arena: Vec<(State, u32, &'static str)> = vec![(State::initial(), 0, "init")];
    let mut visited: HashMap<State, u32> = HashMap::new();
    visited.insert(State::initial(), 0);
    let mut queue: VecDeque<u32> = VecDeque::from([0]);

    let mut findings = Vec::new();
    let mut reported: Vec<&'static str> = Vec::new();
    let mut transitions = 0usize;
    let mut capped = false;
    let mut succ = Vec::with_capacity(8);

    while let Some(idx) = queue.pop_front() {
        let s = arena[idx as usize].0;
        checker.successors(&s, seen, &mut succ);
        if succ.is_empty() && !checker.accepting(&s) {
            let (rule, message) = checker.classify(&s);
            if !reported.contains(&rule) {
                reported.push(rule);
                let path = trace_path(&arena, idx, cfg.max_path);
                findings.push(Finding::new(
                    Severity::Error,
                    rule,
                    subject.to_string(),
                    format!("{message}; counterexample: {path}"),
                ));
            }
            continue;
        }
        for &(n, label) in &succ {
            transitions += 1;
            if visited.contains_key(&n) {
                continue;
            }
            if arena.len() >= cfg.max_states {
                capped = true;
                continue;
            }
            let nid = arena.len() as u32;
            visited.insert(n, nid);
            arena.push((n, idx, label));
            queue.push_back(nid);
        }
    }

    if capped {
        findings.push(Finding::new(
            Severity::Warning,
            "mc-state-cap",
            subject.to_string(),
            format!(
                "exploration stopped at the {}-state cap; the verdict covers only the states \
                 reached — raise McConfig::max_states or shrink the script",
                cfg.max_states
            ),
        ));
    }

    Exploration {
        findings,
        states: arena.len(),
        transitions,
    }
}

/// Reconstruct the transition labels from the root to `idx`, keeping at
/// most the last `max_path` steps.
fn trace_path(arena: &[(State, u32, &'static str)], mut idx: u32, max_path: usize) -> String {
    let mut labels = Vec::new();
    while idx != 0 {
        let (_, parent, label) = arena[idx as usize];
        labels.push(label);
        idx = parent;
    }
    labels.reverse();
    let skipped = labels.len().saturating_sub(max_path);
    let mut out = String::new();
    if skipped > 0 {
        let _ = write!(out, "[{skipped} earlier steps] ");
    }
    out.push_str(&labels[skipped..].join(" -> "));
    out
}

// ---------------------------------------------------------------------
// Port-level driver
// ---------------------------------------------------------------------

/// The window widths a script is checked at. An engine-shaped script
/// (sends, waits and a close, all on one opcode) declared at window `w`
/// is re-synthesized and checked at every width `1..=w`; anything else
/// is checked exactly as written.
fn window_variants(script: &DispatchScript) -> Vec<DispatchScript> {
    let engine_shaped = script.ops.iter().all(|op| {
        matches!(
            op,
            ScriptOp::Send { .. } | ScriptOp::WaitReply | ScriptOp::Close
        )
    });
    let mut opcodes = script.ops.iter().filter_map(|op| match op {
        ScriptOp::Send { opcode } => Some(*opcode),
        _ => None,
    });
    let first = opcodes.next();
    let uniform = first.is_some() && opcodes.all(|o| Some(o) == first);
    if !(engine_shaped && uniform && script.window > 1) {
        return vec![script.clone()];
    }
    let frames = script
        .ops
        .iter()
        .filter(|op| matches!(op, ScriptOp::Send { .. }))
        .count();
    let opcode = first.expect("uniform implies at least one send");
    (1..=script.window)
        .map(|w| PortModel::engine_script(script.kernel, opcode, frames, w))
        .collect()
}

/// Model-check every dispatch script of `model` at every window width,
/// then audit the declared supervision for recovery transitions no
/// exploration could reach.
pub fn check_port(model: &PortModel, cfg: &McConfig) -> McReport {
    let mut findings = Vec::new();
    let mut stats = McStats::default();
    let mut seen = RecoverySeen::default();

    for (i, script) in model.scripts.iter().enumerate() {
        stats.scripts += 1;
        let kernel = model.kernels.get(script.kernel).map_or_else(
            || format!("#{}", script.kernel),
            |k| format!("`{}`", k.name),
        );
        for variant in window_variants(script) {
            stats.variants += 1;
            let subject = format!(
                "script #{i} -> kernel {kernel} @ window {} ({} ops)",
                variant.window,
                variant.ops.len()
            );
            let checker = Checker::new(&variant.ops, model.supervision);
            let run = explore(&checker, &subject, cfg, &mut seen);
            stats.states += run.states;
            stats.transitions += run.transitions;
            stats.peak_states = stats.peak_states.max(run.states);
            findings.extend(run.findings);
        }
    }

    if let Some(sup) = model.supervision {
        let subject = "supervision model".to_string();
        if sup.respawn && !seen.respawn {
            findings.push(Finding::new(
                Severity::Warning,
                "mc-unreachable-recovery",
                subject.clone(),
                "respawn machinery is declared but no exploration could exercise a respawn"
                    .to_string(),
            ));
        }
        if sup.breaker_cooldown.is_some() && sup.breaker_threshold != u32::MAX && !seen.half_open {
            findings.push(Finding::new(
                Severity::Warning,
                "mc-unreachable-recovery",
                subject.clone(),
                format!(
                    "the breaker declares a cooldown but no exploration could trip it open \
                     (threshold {}): the half-open/probe path is dead machinery",
                    sup.breaker_threshold
                ),
            ));
        }
        if sup.failover && !seen.failover {
            findings.push(Finding::new(
                Severity::Warning,
                "mc-unreachable-recovery",
                subject,
                "failover is declared but no exploration could replay a request".to_string(),
            ));
        }
    }

    McReport {
        port: model.name.clone(),
        findings,
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use portkit::opcodes::run_opcode;

    fn one_kernel_model(scripts: Vec<DispatchScript>, sup: Option<SupervisionModel>) -> PortModel {
        PortModel {
            name: "mc-fixture".to_string(),
            num_spes: 1,
            ls_capacity: 256 * 1024,
            kernels: vec![crate::model::KernelModel {
                name: "k".to_string(),
                spe: 0,
                opcodes: vec![("f".to_string(), run_opcode(0))],
                wrapper: None,
                code_bytes: 8 * 1024,
                plans: Vec::new(),
            }],
            schedule: None,
            kernel_specs: Vec::new(),
            scripts,
            supervision: sup,
        }
    }

    #[test]
    fn roundtrip_is_deadlock_free() {
        let m = one_kernel_model(vec![PortModel::roundtrip_script(0, run_opcode(0))], None);
        let r = check_port(&m, &McConfig::default());
        assert_eq!(r.error_count(), 0, "{}", r.render());
    }

    #[test]
    fn window_five_blocking_pump_deadlocks() {
        // Five dispatches run-ahead = 10 words against 4 inbox words +
        // one busy slot + one unread reply: the fifth send wedges.
        let m = one_kernel_model(vec![PortModel::engine_script(0, run_opcode(0), 6, 5)], None);
        let r = check_port(&m, &McConfig::default());
        assert!(r.has("mc-deadlock"), "{}", r.render());
        // The sweep must also prove the same conversation safe at the
        // narrower widths the mailbox can actually sustain.
        assert!(r.stats.variants == 5, "{}", r.render());
    }

    #[test]
    fn batch_frames_stream_through_the_shallow_mailbox() {
        let m = one_kernel_model(vec![PortModel::batch_script(0, run_opcode(0), 2, 16)], None);
        let r = check_port(&m, &McConfig::default());
        assert_eq!(r.error_count(), 0, "{}", r.render());
    }

    #[test]
    fn state_cap_reports_incomplete_verdict() {
        let m = one_kernel_model(vec![PortModel::engine_script(0, run_opcode(0), 4, 2)], None);
        let cfg = McConfig {
            max_states: 8,
            ..McConfig::default()
        };
        let r = check_port(&m, &cfg);
        assert!(r.has("mc-state-cap"), "{}", r.render());
    }
}

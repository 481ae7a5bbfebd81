//! **cell-engine** — the one PPE-side offload executor every ported
//! application drives its SPEs through.
//!
//! The paper's endgame (§5) is a reusable porting *strategy*: every
//! application should run the same stub/dispatch machinery of Listings
//! 1–4, with the final optimization step — overlap PPE and SPE work so
//! the accelerator never idles — applied once, centrally. Before this
//! crate, MARVEL's static and failover drivers, `cell-serve`, and the
//! stencil port each reimplemented send-and-wait dispatch, stale-reply
//! draining, retry, failover, and trace emission, and none kept more
//! than one request in flight per SPE. [`Engine`] owns all of it:
//!
//! * **In-flight window per SPE** ([`Engine::with_window`]) — async
//!   [`Engine::submit`] / [`Engine::complete`] instead of
//!   `send_and_wait`, so frame *N+1*'s requests are queued in the
//!   4-deep inbound mailbox while frame *N* computes. This is the
//!   `StreamReader` multibuffering idea applied at the dispatch layer.
//! * **Request batching** ([`Engine::submit_batch`]) — several small
//!   kernel requests packed into one `SPU_BATCH` round-trip, paying one
//!   reply latency instead of *n*.
//! * **Pluggable policies** ([`policy`]) — `RetryPolicy` timeouts,
//!   `Schedule::replan` failover, and observer hooks for supervision
//!   layers (circuit breakers, heartbeats) are configuration, not four
//!   divergent copies of the same loop. Both failover modes send
//!   through one pump of blocking mailbox writes. Replan-mode lane
//!   completion and probes wait through
//!   `portkit::recovery::await_reply`, the one reply wait with a
//!   deadline, which times out only an idle SPE and is timed by reply
//!   stamps; the engine's retry-in-place is the one retry/backoff
//!   ladder.
//!
//! Mailbox FIFO ordering is the engine's correctness backbone: each
//! lane completes requests in submission order, so the reply word on a
//! channel with no request ids is always unambiguous — and the same
//! FIFO edges give `cell-lint`'s happens-before race detector its
//! cross-track ordering even under pipelined dispatch.
//!
//! [`codec`] is the companion wire-marshalling module: the checksummed
//! block framing shared by MARVEL's feature wrappers and cell-serve's
//! integrity probes.

pub mod codec;
pub mod engine;
pub mod policy;

pub use engine::{Engine, Ticket};
pub use policy::{EngineObserver, FailoverMode, NoopObserver, RecoveryEvent, RecoveryKind};

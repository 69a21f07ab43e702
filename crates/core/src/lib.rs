//! Sans-io PBFT replica and client engines.
//!
//! This crate implements the Castro–Liskov PBFT protocol as reproduced and
//! extended by Chondros, Kokordelis & Roussopoulos in *On the Practicality of
//! 'Practical' Byzantine Fault Tolerance*:
//!
//! * the normal-case 3-phase agreement (pre-prepare / prepare / commit) with
//!   request batching and a congestion window (§2.1),
//! * the optimizations whose robustness cost the paper measures: MAC
//!   authenticators vs. signatures, big-request handling, tentative
//!   execution, the read-only fast path (§2.1, Table 1),
//! * checkpoints over a Merkle-hashed paged state region and tree-walk state
//!   transfer (§2.1, §3.2),
//! * view changes and crash-restart recovery, including the
//!   authenticator-loss stall of §2.3 and the blind NewKey retransmission
//!   that bounds it,
//! * non-determinism upcalls with validation, including the replay hazard of
//!   §2.5, and
//! * the paper's own contribution: **dynamic client membership** — a
//!   two-phase challenge–response Join, Leave, an id redirection table, and
//!   timestamp-based stale-session cleanup (§3.1).
//!
//! Operations are opaque byte strings to this crate. The application is
//! reached through the up-calls of [`app::App`] only — execution, the
//! non-determinism pair, join authorization, cache invalidation after an
//! install — so a layer that gives operations structure (the workspace's
//! cross-shard two-phase commit and its key → group map are one) is an
//! `App` wrapper in a crate built on this one, never a module inside it.
//!
//! The engines are *sans-io*: a [`Replica`] or [`Client`] consumes packets
//! and timer firings and returns [`Output`]s (sends, timer arms, deliveries)
//! plus an [`OpCounts`] record of the real work performed. Any transport can
//! drive them; the workspace drives them with `simnet`, which converts
//! `OpCounts` into virtual CPU time through a calibrated cost model.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod app;
pub mod client;
pub mod config;
pub mod engine;
pub mod keys;
pub mod linear;
pub mod log;
pub mod membership;
pub mod messages;
pub mod output;
pub mod replica;
pub mod session;
pub mod types;
pub mod wire;

pub use app::{App, ExecMetrics, NonDet, NullApp};
pub use client::{Client, ClientEvent};
pub use config::{AuthMode, Engine, PbftConfig};
pub use engine::ConsensusEngine;
pub use keys::KeyStore;
pub use linear::LinearReplica;
pub use messages::{Envelope, Message, Operation, RequestMsg};
pub use output::{HandleResult, NetTarget, OpCounts, Output, PacketBuf, TimerKind};
pub use replica::Replica;
pub use session::{SessionCtx, SessionError, SessionStore};
pub use types::{ClientId, ReplicaId, SeqNum, View};

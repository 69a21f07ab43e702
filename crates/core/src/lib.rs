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
//!   timestamp-based stale-session cleanup (§3.1), and
//! * [`routing`] — the deterministic key → group map for sharded
//!   multi-group deployments, plus route-aware request submission on the
//!   client ([`Client::bind_shard`] / [`Client::submit_routed`]), and
//! * [`xshard`] — deterministic two-phase commit across groups: the
//!   lock-and-log participant state machine, the replicated coordinator
//!   decision record, and the wire framing that carries both inside
//!   ordinary ordered operations.
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
pub mod routing;
pub mod session;
pub mod types;
pub mod wire;
pub mod xshard;

pub use app::{App, ExecMetrics, NonDet, NullApp};
pub use client::{Client, ClientEvent};
pub use config::{AuthMode, PbftConfig};
pub use engine::ConsensusEngine;
pub use keys::KeyStore;
pub use linear::LinearReplica;
pub use messages::{Envelope, Message, Operation, RequestMsg};
pub use output::{HandleResult, NetTarget, OpCounts, Output, PacketBuf, TimerKind};
pub use replica::Replica;
pub use routing::{RouteError, ShardMap};
pub use session::{SessionCtx, SessionError, SessionStore};
pub use types::{ClientId, ReplicaId, SeqNum, View};
pub use xshard::{SubOp, TxCoordinator, TxId, XMsg, XReply, XShardApp, XShardLeg, XShardOp};

//! The consensus-engine trait: the narrow, sans-io surface of a replica,
//! spelled as a type.
//!
//! The protocol is chosen by *value*: [`PbftConfig::engine`] picks PBFT or
//! the linear engine, and the simulation harness hosts the one concrete
//! [`Replica`] everywhere. [`ConsensusEngine`] (with
//! [`LinearReplica`](crate::linear::LinearReplica)) is the same choice
//! made by *type*; the wall-clock benchmark's driver is generic over it,
//! and nothing else in the workspace names it. The trait splits replica
//! *node logic* from the *service* that hosts it (the shape sawtooth-pbft
//! uses for its node/Service split): an engine owns its protocol state
//! machine, message log, and timers, while the host owns the network, the
//! clock, and fault injection.
//!
//! An engine **must** own:
//! - its agreement state machine (how packets and timer firings become
//!   [`Output`](crate::output::Output)s),
//! - its durable paged state handle (checkpoints, state transfer),
//! - its own notion of views/rounds and leader rotation.
//!
//! An engine **must not** own:
//! - the clock (time only arrives via `now_ns` arguments),
//! - the network (sends are returned, never performed),
//! - randomness (all nondeterminism is agreed through the protocol).
//!
//! Two engine *types* implement it: classic quadratic PBFT ([`Replica`])
//! and the linear-communication rotating-leader engine
//! ([`LinearReplica`](crate::linear::LinearReplica)). They are one state
//! machine, not two: `LinearReplica` is `Replica` built with
//! `cfg.engine = Engine::Linear`, which switches vote delivery and
//! aggregation at a handful of branches inside `Replica`. The trait is not
//! a boundary between two implementations.
//!
//! # Implementing a custom engine
//!
//! The trait is object-safe except for the constructor and name, so a
//! minimal engine is a plain struct. The stub below orders nothing — it
//! exists to show the complete required surface compiling against the trait:
//!
//! ```
//! use pbft_core::app::{App, StateHandle};
//! use pbft_core::config::PbftConfig;
//! use pbft_core::engine::ConsensusEngine;
//! use pbft_core::output::{HandleResult, TimerKind};
//! use pbft_core::replica::ReplicaMetrics;
//! use pbft_core::types::{ClientId, ReplicaId, SeqNum, View};
//! use pbft_crypto::Digest;
//!
//! /// An engine that ignores every input (useful only as a scaffold).
//! struct NullEngine {
//!     me: ReplicaId,
//!     state: StateHandle,
//!     metrics: ReplicaMetrics,
//! }
//!
//! impl ConsensusEngine for NullEngine {
//!     fn build(
//!         _cfg: PbftConfig,
//!         _group_seed: u64,
//!         me: ReplicaId,
//!         state: StateHandle,
//!         _app: Box<dyn App>,
//!         _preinstalled_clients: &[ClientId],
//!     ) -> Self {
//!         NullEngine { me, state, metrics: ReplicaMetrics::default() }
//!     }
//!     fn engine_name() -> &'static str {
//!         "null"
//!     }
//!     fn id(&self) -> ReplicaId {
//!         self.me
//!     }
//!     fn on_start(&mut self, _now_ns: u64, _restarted: bool) -> HandleResult {
//!         HandleResult::default()
//!     }
//!     fn handle_packet(&mut self, _packet: &[u8], _now_ns: u64) -> HandleResult {
//!         HandleResult::default()
//!     }
//!     fn on_timer(&mut self, _kind: TimerKind, _now_ns: u64) -> HandleResult {
//!         HandleResult::default()
//!     }
//!     fn state_handle(&self) -> StateHandle {
//!         self.state.clone()
//!     }
//!     fn view(&self) -> View {
//!         0
//!     }
//!     fn last_executed(&self) -> SeqNum {
//!         0
//!     }
//!     fn stable_checkpoint(&self) -> (SeqNum, Digest) {
//!         (0, Digest::ZERO)
//!     }
//!     fn exec_chain(&self) -> Digest {
//!         Digest::ZERO
//!     }
//!     fn metrics(&self) -> &ReplicaMetrics {
//!         &self.metrics
//!     }
//!     fn force_suspect(&mut self, _now_ns: u64) -> HandleResult {
//!         HandleResult::default()
//!     }
//!     fn is_recovering(&self) -> bool {
//!         false
//!     }
//!     fn in_view_change(&self) -> bool {
//!         false
//!     }
//! }
//!
//! # use std::{cell::RefCell, rc::Rc};
//! let state = Rc::new(RefCell::new(pbft_state::PagedState::new(4)));
//! let mut e = NullEngine::build(
//!     PbftConfig::default(),
//!     7,
//!     ReplicaId(0),
//!     state,
//!     Box::new(pbft_core::NullApp::new(16)),
//!     &[],
//! );
//! assert_eq!(NullEngine::engine_name(), "null");
//! assert!(e.on_start(0, false).outputs.is_empty());
//! ```

use pbft_crypto::Digest;

use crate::app::{App, StateHandle};
use crate::config::PbftConfig;
use crate::output::{HandleResult, TimerKind};
use crate::replica::{Replica, ReplicaMetrics};
use crate::types::{ClientId, ReplicaId, SeqNum, View};

/// A sans-io replica protocol engine a host can be generic over (the
/// wall-clock benchmark's driver is).
///
/// All methods that consume input take an explicit `now_ns` and return a
/// [`HandleResult`]; an engine never touches a clock or a socket itself.
/// See the [module docs](self) for the ownership contract.
pub trait ConsensusEngine: 'static {
    /// Construct an engine for group member `me`.
    ///
    /// Mirrors [`Replica::new`]: `group_seed` derives the deterministic key
    /// material, `state` is the shared paged memory region, and
    /// `preinstalled_clients` models a completed startup key exchange (pass
    /// `&[]` for a restarted replica that lost its session keys).
    fn build(
        cfg: PbftConfig,
        group_seed: u64,
        me: ReplicaId,
        state: StateHandle,
        app: Box<dyn App>,
        preinstalled_clients: &[ClientId],
    ) -> Self
    where
        Self: Sized;

    /// Short stable name for bench columns and reports (e.g. `"pbft"`).
    fn engine_name() -> &'static str
    where
        Self: Sized;

    /// This engine's replica id.
    fn id(&self) -> ReplicaId;

    /// Called once when the hosting node (re)starts. `restarted == true`
    /// after a crash/restart, in which case the engine should begin its
    /// recovery protocol.
    fn on_start(&mut self, now_ns: u64, restarted: bool) -> HandleResult;

    /// Consume one sealed wire packet.
    fn handle_packet(&mut self, packet: &[u8], now_ns: u64) -> HandleResult;

    /// A previously requested timer fired.
    fn on_timer(&mut self, kind: TimerKind, now_ns: u64) -> HandleResult;

    /// Handle to the replica's paged state region.
    fn state_handle(&self) -> StateHandle;

    /// Current view (round) number.
    fn view(&self) -> View;

    /// Highest contiguously executed sequence number.
    fn last_executed(&self) -> SeqNum;

    /// The last stable checkpoint `(seq, state root)`.
    fn stable_checkpoint(&self) -> (SeqNum, Digest);

    /// Running digest chained over every executed batch — the cheap
    /// cross-replica agreement probe the test harness compares.
    fn exec_chain(&self) -> Digest;

    /// Protocol counters.
    fn metrics(&self) -> &ReplicaMetrics;

    /// Force an immediate leader suspicion (fault-injection hook: behaves as
    /// if the engine's own progress timer expired).
    fn force_suspect(&mut self, now_ns: u64) -> HandleResult;

    /// True while a state transfer is in flight.
    fn is_recovering(&self) -> bool;

    /// True while a leader rotation is in flight (the engine has voted to
    /// change views/rounds and has not yet entered the new one). Adaptive
    /// adversaries key on this window — it is when a misbehaving vote or a
    /// withheld message hurts the most — so every engine must expose it.
    fn in_view_change(&self) -> bool;
}

impl ConsensusEngine for Replica {
    fn build(
        cfg: PbftConfig,
        group_seed: u64,
        me: ReplicaId,
        state: StateHandle,
        app: Box<dyn App>,
        preinstalled_clients: &[ClientId],
    ) -> Self {
        Replica::new(cfg, group_seed, me, state, app, preinstalled_clients)
    }

    fn engine_name() -> &'static str {
        "pbft"
    }

    fn id(&self) -> ReplicaId {
        Replica::id(self)
    }

    fn on_start(&mut self, now_ns: u64, restarted: bool) -> HandleResult {
        Replica::on_start(self, now_ns, restarted)
    }

    fn handle_packet(&mut self, packet: &[u8], now_ns: u64) -> HandleResult {
        Replica::handle_packet(self, packet, now_ns)
    }

    fn on_timer(&mut self, kind: TimerKind, now_ns: u64) -> HandleResult {
        Replica::on_timer(self, kind, now_ns)
    }

    fn state_handle(&self) -> StateHandle {
        Replica::state_handle(self)
    }

    fn view(&self) -> View {
        Replica::view(self)
    }

    fn last_executed(&self) -> SeqNum {
        Replica::last_executed(self)
    }

    fn stable_checkpoint(&self) -> (SeqNum, Digest) {
        Replica::stable_checkpoint(self)
    }

    fn exec_chain(&self) -> Digest {
        Replica::exec_chain(self)
    }

    fn metrics(&self) -> &ReplicaMetrics {
        Replica::metrics(self)
    }

    fn force_suspect(&mut self, now_ns: u64) -> HandleResult {
        Replica::force_suspect(self, now_ns)
    }

    fn is_recovering(&self) -> bool {
        Replica::is_recovering(self)
    }

    fn in_view_change(&self) -> bool {
        Replica::in_view_change(self)
    }
}

//! Deterministic discrete-event network & host simulator.
//!
//! The paper evaluates PBFT on a cluster of 8 machines connected by a 1 GbE
//! switch, coordinated by a Python/netcat test framework. This crate is the
//! reproduction's stand-in for that testbed: a virtual-time simulator with
//!
//! * an event queue with a global virtual clock (nanosecond resolution),
//! * per-link latency / jitter / bandwidth / **loss** models (the UDP packet
//!   loss of paper §2.4 is a first-class citizen),
//! * per-node CPU accounting: a handler *charges* virtual CPU time for the
//!   work it performed (crypto, execution, disk flushes) and the node's mail
//!   is delayed while it is busy — this is what turns protocol structure into
//!   throughput curves,
//! * crash / restart fault injection (transient state is lost, exactly the
//!   scenario of paper §2.3), and
//! * a message trace, the equivalent of the paper's §2.2 common-clock message
//!   log ("given the common clock, \[it\] allowed us to reason about the
//!   behavior of the system").
//!
//! Everything is deterministic given the seed: two runs produce identical
//! traces. Experiment trials vary the seed to obtain standard deviations.
//!
//! Several independent simulations can be composed under one shared virtual
//! clock with [`run_lockstep`] — the substrate for the multi-group
//! deployments in the `harness` crate. Timed fault scripts ("crash the
//! primary at t = 500 ms") run in the harness's scenario engine, whose
//! event loop advances the whole deployment with [`run_lockstep`] to the
//! earliest of the next scripted event, the next adversary tick and the
//! next timeline bucket edge, applies what is due there, and resumes.
//!
//! # Example
//!
//! ```
//! use simnet::{Node, NodeCtx, SimConfig, SimDuration, Simulator, TimerId};
//!
//! struct Echo;
//! impl Node for Echo {
//!     fn on_packet(&mut self, src: simnet::NodeId, payload: &[u8], ctx: &mut NodeCtx<'_>) {
//!         let mut reply = payload.to_vec();
//!         reply.reverse();
//!         ctx.send(src, reply);
//!     }
//!     fn on_timer(&mut self, _t: TimerId, _ctx: &mut NodeCtx<'_>) {}
//! }
//!
//! struct Pinger { peer: simnet::NodeId, got: Option<Vec<u8>> }
//! impl Node for Pinger {
//!     fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
//!         ctx.send(self.peer, b"hey".to_vec());
//!     }
//!     fn on_packet(&mut self, _src: simnet::NodeId, payload: &[u8], _ctx: &mut NodeCtx<'_>) {
//!         self.got = Some(payload.to_vec());
//!     }
//!     fn on_timer(&mut self, _t: TimerId, _ctx: &mut NodeCtx<'_>) {}
//! }
//!
//! let mut sim = Simulator::new(SimConfig::default());
//! let echo = sim.add_node(Box::new(Echo));
//! let pinger = sim.add_node(Box::new(Pinger { peer: echo, got: None }));
//! sim.run_for(SimDuration::from_millis(10));
//! let p: &Pinger = sim.node_ref(pinger).unwrap();
//! assert_eq!(p.got.as_deref(), Some(&b"yeh"[..]));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod group;
mod link;
mod node;
mod rng;
mod sim;
mod stats;
mod time;
mod trace;

pub use group::run_lockstep;
pub use link::LinkParams;
pub use node::{Node, NodeCtx, NodeId, PacketBuf, TimerId};
pub use rng::SimRng;
pub use sim::{SimConfig, Simulator};
pub use stats::NodeStats;
pub use time::{SimDuration, SimTime};
pub use trace::{TraceEntry, TraceEvent};

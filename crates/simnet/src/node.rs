//! The `Node` trait and the per-invocation context handed to handlers.

use std::any::Any;
use std::sync::Arc;

use crate::time::{SimDuration, SimTime};

/// Reference-counted immutable packet bytes. A broadcast queues one
/// allocation shared by every destination; the simulator clones the `Arc`,
/// never the bytes.
pub type PacketBuf = Arc<Vec<u8>>;

/// A node's address in the simulated network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// A node-scoped timer identifier. Setting a timer with an id that is already
/// armed re-arms it (the previous deadline is cancelled).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TimerId(pub u64);

/// Something that lives at a network address and reacts to packets & timers.
///
/// Handlers *charge* virtual CPU time through [`NodeCtx::charge`]; while a
/// node is busy, subsequent deliveries queue behind the busy period. This is
/// the mechanism by which cryptographic and execution costs shape throughput.
///
/// The `Any` supertrait enables the simulator's `node_ref`/`node_mut`
/// downcasts so harnesses can inspect node state between runs.
pub trait Node: Any {
    /// Called once when the node is added (or restarted).
    fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
        let _ = ctx;
    }

    /// A packet addressed to this node has been delivered.
    fn on_packet(&mut self, src: NodeId, payload: &[u8], ctx: &mut NodeCtx<'_>);

    /// A previously armed timer has fired.
    fn on_timer(&mut self, timer: TimerId, ctx: &mut NodeCtx<'_>);
}

/// Actions a handler can request; drained by the simulator afterwards.
#[derive(Debug)]
pub(crate) enum Action {
    Send { dst: NodeId, payload: PacketBuf },
    SetTimer { id: TimerId, delay: SimDuration },
    CancelTimer { id: TimerId },
}

/// The context passed to every handler invocation.
///
/// Collects outgoing actions and the CPU cost the handler wants charged.
/// `'a` is the invocation: the simulator makes one context per handler
/// call and drains it when the call returns.
pub struct NodeCtx<'a> {
    pub(crate) now: SimTime,
    pub(crate) actions: Vec<Action>,
    pub(crate) cost: SimDuration,
    pub(crate) invocation: std::marker::PhantomData<&'a mut ()>,
}

impl<'a> NodeCtx<'a> {
    /// The virtual time at which this handler runs.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Queue a packet to `dst`. Packets depart after the handler's charged
    /// CPU time, serialized on the sender's NIC in submission order.
    ///
    /// Accepts owned bytes or an already-shared [`PacketBuf`]; multicasts
    /// should build the buffer once and pass `Arc` clones per destination.
    pub fn send(&mut self, dst: NodeId, payload: impl Into<PacketBuf>) {
        self.actions.push(Action::Send {
            dst,
            payload: payload.into(),
        });
    }

    /// Arm (or re-arm) timer `id` to fire after `delay`.
    pub fn set_timer(&mut self, id: TimerId, delay: SimDuration) {
        self.actions.push(Action::SetTimer { id, delay });
    }

    /// Cancel timer `id` if armed.
    pub fn cancel_timer(&mut self, id: TimerId) {
        self.actions.push(Action::CancelTimer { id });
    }

    /// Charge `cost` of virtual CPU time for work performed in this handler.
    /// The node stays busy (deliveries queue) until the charge elapses.
    pub fn charge(&mut self, cost: SimDuration) {
        self.cost += cost;
    }
}

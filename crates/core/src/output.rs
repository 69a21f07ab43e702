//! Engine outputs and work accounting.

use std::sync::Arc;

use crate::messages::Envelope;
use crate::types::{NetAddr, ReplicaId};

/// Reference-counted immutable packet bytes.
///
/// The hot-path encode-once rule: a broadcast encodes and seals its packet
/// exactly once, then shares the same buffer across every destination (and
/// down through simnet delivery) by bumping a refcount instead of copying.
/// `Arc<Vec<u8>>` rather than `Arc<[u8]>` so wrapping an just-encoded
/// `Vec<u8>` is itself copy-free.
pub type PacketBuf = Arc<Vec<u8>>;

/// Where a packet should go. The driving harness resolves these to transport
/// endpoints (replica indices are static configuration; client addresses are
/// learned from requests / joins).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetTarget {
    /// A group replica.
    Replica(ReplicaId),
    /// A client, by transport address.
    Client(NetAddr),
}

/// Engine timers. Engines arm these by kind; harnesses map kinds onto their
/// transport's timer facility. Each recovers from a loss, a fault or a
/// lagging peer; none paces the normal case, where a primary issues on
/// events alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TimerKind {
    /// Backup's suspicion timer: fires if an observed request is not
    /// executed in time → view change.
    ViewChange,
    /// Client retransmission timer.
    Retransmit,
    /// Client blind NewKey (authenticator) retransmission (§2.3).
    NewKey,
    /// Replica retry for an in-progress state transfer.
    FetchRetry,
    /// View-change round timeout (doubles per round).
    NewViewTimeout,
    /// Periodic status broadcast (drives retransmission to lagging peers).
    StatusTick,
}

impl TimerKind {
    /// Every kind, in [`TimerKind::index`] order.
    const ALL: [TimerKind; 6] = [
        TimerKind::ViewChange,
        TimerKind::Retransmit,
        TimerKind::NewKey,
        TimerKind::FetchRetry,
        TimerKind::NewViewTimeout,
        TimerKind::StatusTick,
    ];

    /// Stable numeric id for harness mapping: the declaration order.
    pub fn index(self) -> u64 {
        self as u64
    }

    /// Inverse of [`TimerKind::index`].
    pub fn from_index(idx: u64) -> Option<TimerKind> {
        Self::ALL.get(usize::try_from(idx).ok()?).copied()
    }
}

/// One action requested by an engine.
#[derive(Debug, Clone)]
pub enum Output {
    /// Send a sealed packet.
    Send {
        /// Destination.
        to: NetTarget,
        /// Fully encoded packet bytes, shared (not copied) across the
        /// destinations of a broadcast.
        packet: PacketBuf,
        /// Decoded form, for tests and tracing (the harness sends `packet`);
        /// shared across destinations like the packet bytes.
        envelope: Arc<Envelope>,
    },
    /// Arm (or re-arm) a timer after `delay_ns`.
    SetTimer {
        /// Which timer.
        kind: TimerKind,
        /// Delay in nanoseconds.
        delay_ns: u64,
    },
    /// Cancel a timer.
    CancelTimer {
        /// Which timer.
        kind: TimerKind,
    },
}

/// Counts of the real work performed during one engine invocation. The
/// harness maps these through its cost model into virtual CPU time; a real
/// deployment would simply ignore them.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct OpCounts {
    /// Fast MACs generated.
    pub mac_gen: u64,
    /// Fast MACs verified.
    pub mac_verify: u64,
    /// Public-key signatures produced.
    pub sign: u64,
    /// Public-key signatures verified.
    pub sig_verify: u64,
    /// Bytes run through the digest function (message hashing).
    pub digest_bytes: u64,
    /// State pages re-hashed for checkpoints.
    pub pages_hashed: u64,
    /// Application CPU microseconds (from [`crate::app::ExecMetrics`]).
    pub exec_cpu_us: f64,
    /// Synchronous stable-storage flushes.
    pub disk_flushes: u64,
    /// Bytes written to stable storage.
    pub disk_write_bytes: u64,
    /// Requests whose execution completed in this invocation.
    pub requests_executed: u64,
}

impl OpCounts {
    /// Accumulate another record.
    pub fn add(&mut self, other: &OpCounts) {
        self.mac_gen += other.mac_gen;
        self.mac_verify += other.mac_verify;
        self.sign += other.sign;
        self.sig_verify += other.sig_verify;
        self.digest_bytes += other.digest_bytes;
        self.pages_hashed += other.pages_hashed;
        self.exec_cpu_us += other.exec_cpu_us;
        self.disk_flushes += other.disk_flushes;
        self.disk_write_bytes += other.disk_write_bytes;
        self.requests_executed += other.requests_executed;
    }
}

/// The result of one engine invocation.
#[derive(Debug, Default)]
pub struct HandleResult {
    /// Actions for the transport.
    pub outputs: Vec<Output>,
    /// Work performed.
    pub counts: OpCounts,
}

impl HandleResult {
    /// Iterate over just the sends.
    pub fn sends(&self) -> impl Iterator<Item = (&NetTarget, &Envelope)> {
        self.outputs.iter().filter_map(|o| match o {
            Output::Send { to, envelope, .. } => Some((to, envelope.as_ref())),
            _ => None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timer_kind_index_roundtrip() {
        for (i, k) in TimerKind::ALL.into_iter().enumerate() {
            assert_eq!(k.index(), i as u64);
            assert_eq!(TimerKind::from_index(k.index()), Some(k));
        }
        assert_eq!(TimerKind::from_index(99), None);
    }

    #[test]
    fn op_counts_accumulate() {
        let mut a = OpCounts {
            mac_gen: 1,
            sign: 2,
            ..Default::default()
        };
        a.add(&OpCounts {
            mac_gen: 3,
            sig_verify: 1,
            exec_cpu_us: 2.5,
            ..Default::default()
        });
        assert_eq!(a.mac_gen, 4);
        assert_eq!(a.sign, 2);
        assert_eq!(a.sig_verify, 1);
        assert!((a.exec_cpu_us - 2.5).abs() < 1e-12);
    }
}

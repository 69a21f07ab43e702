//! The calibrated cost model.
//!
//! The simulator charges virtual CPU time for the work the engines actually
//! performed. Constants approximate the paper's testbed era (2.4 GHz Xeon
//! E5620 / Core 2 Duo, 1 GbE, Rabin + UMAC32 + MD5); they were calibrated so
//! the Table 1 *shape* reproduces (see EXPERIMENTS.md for paper-vs-measured
//! and the residual deviations).
//!
//! Beside the prices the machine has one clock: [`NOBATCH_TICK`] (2012,
//! fitted), the event-loop tick of a primary that does not batch.

use pbft_core::OpCounts;
use simnet::SimDuration;

/// Cost constants, in microseconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Per fast-MAC generation or verification.
    pub mac_us: f64,
    /// Per public-key signature generation (Rabin-like signing is the
    /// expensive half).
    pub sign_us: f64,
    /// Per public-key signature verification.
    pub sig_verify_us: f64,
    /// Message digesting, per KiB.
    pub digest_us_per_kb: f64,
    /// Hashing one state page for a checkpoint.
    pub page_hash_us: f64,
    /// Fixed per-packet cost (syscall + driver) on send and on receive.
    pub packet_us: f64,
    /// Per additional MTU-sized fragment of a large datagram.
    pub fragment_us: f64,
    /// Payload copy/checksum, per KiB, on send and on receive.
    pub per_kb_us: f64,
    /// One synchronous stable-storage flush (fsync).
    pub flush_us: f64,
    /// Stable-storage writes, per KiB.
    pub disk_write_us_per_kb: f64,
}

/// MTU used for fragment accounting (Ethernet).
pub const MTU: usize = 1500;

/// The 2012 library's event-loop tick without batching (2012, fitted): a
/// primary that does not batch lets a pre-prepare out at most once a tick,
/// which reads 1 000 TPS on Table 1's no-batching MAC rows, as the paper's
/// do. [`crate::byzantine::FaultyReplicaHost`] applies it.
pub const NOBATCH_TICK: SimDuration = SimDuration::from_millis(1);

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            mac_us: 1.0,
            sign_us: 500.0,
            sig_verify_us: 25.0,
            digest_us_per_kb: 2.0,
            page_hash_us: 8.0,
            packet_us: 8.0,
            fragment_us: 90.0,
            per_kb_us: 3.5,
            flush_us: 420.0,
            disk_write_us_per_kb: 1.2,
        }
    }
}

impl CostModel {
    /// CPU time for the work recorded in an [`OpCounts`].
    pub fn charge_counts(&self, c: &OpCounts) -> SimDuration {
        let us = (c.mac_gen + c.mac_verify) as f64 * self.mac_us
            + c.sign as f64 * self.sign_us
            + c.sig_verify as f64 * self.sig_verify_us
            + c.digest_bytes as f64 / 1024.0 * self.digest_us_per_kb
            + c.pages_hashed as f64 * self.page_hash_us
            + c.exec_cpu_us
            + c.disk_flushes as f64 * self.flush_us
            + c.disk_write_bytes as f64 / 1024.0 * self.disk_write_us_per_kb;
        SimDuration::from_micros_f64(us)
    }

    /// CPU time to push or receive one datagram of `bytes`.
    pub fn packet_cost(&self, bytes: usize) -> SimDuration {
        let fragments = bytes.div_ceil(MTU).max(1);
        let us = self.packet_us
            + (fragments - 1) as f64 * self.fragment_us
            + bytes as f64 / 1024.0 * self.per_kb_us;
        SimDuration::from_micros_f64(us)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn signatures_dominate_macs() {
        let m = CostModel::default();
        let macs = OpCounts {
            mac_gen: 3,
            ..Default::default()
        };
        let sig = OpCounts {
            sign: 1,
            ..Default::default()
        };
        assert!(
            m.charge_counts(&sig)
                > m.charge_counts(&macs)
                    .saturating_add(SimDuration::from_micros(100))
        );
    }

    #[test]
    fn packet_cost_scales_with_fragments() {
        let m = CostModel::default();
        let small = m.packet_cost(100);
        let large = m.packet_cost(6000); // 4 fragments
        assert!(large.as_nanos() > 2 * small.as_nanos());
    }

    #[test]
    fn flushes_are_expensive() {
        let m = CostModel::default();
        let one_flush = OpCounts {
            disk_flushes: 1,
            ..Default::default()
        };
        assert!(m.charge_counts(&one_flush) >= SimDuration::from_micros(400));
    }

    #[test]
    fn exec_cpu_passes_through() {
        let m = CostModel::default();
        let c = OpCounts {
            exec_cpu_us: 123.0,
            ..Default::default()
        };
        assert_eq!(m.charge_counts(&c), SimDuration::from_micros_f64(123.0));
    }
}

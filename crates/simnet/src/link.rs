//! Link models: latency, jitter, bandwidth and loss.

use crate::time::SimDuration;

/// Parameters of a directed link between two nodes.
///
/// Defaults model the paper's testbed: a 1 GbE switched LAN with ~70 µs
/// one-way latency (their measured ping RTT was ~140–180 µs) and lossless
/// under light load. Loss is injected explicitly by experiments.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkParams {
    /// Fixed one-way propagation + switching delay.
    pub latency: SimDuration,
    /// Uniform random extra delay in `[0, jitter]`.
    pub jitter: SimDuration,
    /// Probability in `[0, 1]` that a packet is silently dropped
    /// (the "UDP packet loss" of paper §2.4).
    pub loss: f64,
    /// Link bandwidth in bytes per second; serialization time is
    /// `size / bandwidth` and occupies the sender's NIC.
    pub bandwidth_bytes_per_sec: u64,
}

impl Default for LinkParams {
    fn default() -> Self {
        LinkParams {
            latency: SimDuration::from_micros(70),
            jitter: SimDuration::from_micros(10),
            loss: 0.0,
            bandwidth_bytes_per_sec: 117_000_000, // ~938 Mbit/s, the paper's iperf figure
        }
    }
}

impl LinkParams {
    /// A WAN link: high latency, moderate jitter, no loss.
    pub fn wan(one_way: SimDuration) -> Self {
        LinkParams {
            latency: one_way,
            jitter: SimDuration::from_micros(500),
            loss: 0.0,
            bandwidth_bytes_per_sec: 12_500_000, // 100 Mbit/s
        }
    }

    /// Serialization (wire) time for a packet of `size` bytes.
    pub fn wire_time(&self, size: usize) -> SimDuration {
        if self.bandwidth_bytes_per_sec == 0 {
            return SimDuration::ZERO;
        }
        let ns = (size as u128 * 1_000_000_000u128) / self.bandwidth_bytes_per_sec as u128;
        SimDuration::from_nanos(ns as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_time_scales_with_size() {
        let l = LinkParams::default();
        assert!(l.wire_time(2048) > l.wire_time(1024));
        // ~8.75us per KiB at 938 Mbit/s.
        let t = l.wire_time(1024).as_nanos();
        assert!((8_000..10_000).contains(&t), "t={t}");
    }

    #[test]
    fn zero_bandwidth_means_free_wire() {
        let l = LinkParams {
            bandwidth_bytes_per_sec: 0,
            ..Default::default()
        };
        assert_eq!(l.wire_time(1 << 20), SimDuration::ZERO);
    }

    #[test]
    fn constructors() {
        let w = LinkParams::wan(SimDuration::from_millis(40));
        assert_eq!(w.latency, SimDuration::from_millis(40));
    }
}

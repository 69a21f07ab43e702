//! The simulated 2012 host's no-batching tick: a primary that does not
//! batch lets its pre-prepares out a tick (1 ms) apart, from a timer of
//! the host, which is what reads 1 000 TPS on Table 1's no-batching MAC
//! rows; with batching the host holds nothing back.

use harness::experiments::{config, null_spec, NUM_CLIENTS};
use harness::workload::null_ops;
use harness::{Cluster, ClusterSpec};
use pbft_core::PbftConfig;
use simnet::{NodeId, SimDuration, TraceEvent};

/// A short traced window of `cfg` on the Table 1 null workload: its TPS,
/// when each pre-prepare (tag 2) left the primary for replica 1, and how
/// many more timers fired on the primary than on replica 1.
fn run(cfg: PbftConfig) -> (f64, Vec<u64>, u64) {
    let spec = null_spec(cfg, 1024, NUM_CLIENTS, 1000);
    let mut cluster = Cluster::build(ClusterSpec {
        trace: true,
        ..spec
    });
    cluster.start_workload(|_| null_ops(1024));
    let ms = SimDuration::from_millis;
    let tps = cluster.measure_throughput(ms(100), ms(200));
    let trace = cluster.sim.trace().iter();
    let left = trace
        .filter(|e| (e.src, e.dst, e.tag, e.event) == (NodeId(0), NodeId(1), 2, TraceEvent::Sent));
    let timers = |i| cluster.sim.stats(NodeId(i)).timers_fired;
    (
        tps,
        left.map(|e| e.at.as_nanos()).collect(),
        timers(0) - timers(1),
    )
}

#[test]
fn without_batching_pre_prepares_leave_a_tick_apart() {
    // `sta_mac_allbig_nobatch`: an agreement takes well under the tick.
    let (tps, left, extra_timers) = run(config(false, true, true, false));
    assert!(left.len() > 250, "{} pre-prepares", left.len());
    // The first leaves from the call that issued it, after that call's
    // other work; each later one waited for its tick and left from a timer
    // as the first thing its call did, so they are exactly a tick apart.
    assert_eq!(extra_timers, left.len() as u64 - 1);
    for pair in left[1..].windows(2) {
        assert_eq!(pair[1] - pair[0], 1_000_000, "left at {pair:?} ns");
    }
    assert_eq!(tps, 1000.0);
}

#[test]
fn with_batching_nothing_waits_for_the_tick() {
    let (tps, left, extra_timers) = run(PbftConfig::default());
    // Every pre-prepare left from the call that issued it: the primary
    // fired no timer a backup did not.
    assert_eq!(extra_timers, 0);
    assert!(
        left.len() > 500 && tps > 5_000.0,
        "{} pre-prepares, {tps} TPS",
        left.len()
    );
}

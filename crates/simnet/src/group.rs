//! Lockstep composition of independent simulations.
//!
//! A sharded deployment runs N disjoint replica groups. No packet ever
//! crosses a group boundary, so each group can live in its own
//! [`Simulator`] — but an experiment still needs the groups to share **one
//! virtual clock** (aggregate throughput over a common window is meaningless
//! otherwise).
//!
//! [`run_lockstep`] is that shared clock: it advances every member
//! simulation to the same horizon and refuses to run a set whose clocks have
//! drifted apart.
//!
//! ```
//! use simnet::{run_lockstep, SimConfig, SimDuration, Simulator};
//!
//! let mut a = Simulator::new(SimConfig::default());
//! let mut b = Simulator::new(SimConfig { seed: 1, ..SimConfig::default() });
//! let now = run_lockstep([&mut a, &mut b], SimDuration::from_millis(3));
//! assert_eq!(now, a.now());
//! assert_eq!(a.now(), b.now());
//! assert_eq!(now.as_micros(), 3000);
//! ```

use crate::sim::Simulator;
use crate::time::{SimDuration, SimTime};

/// Advance every simulator by `d`, keeping their clocks identical; returns
/// the common horizon they all reached.
///
/// Because the member simulations exchange no messages, running them
/// sequentially to a common horizon is equivalent to any interleaving of
/// their event queues — determinism is preserved per-member by each
/// simulator's own seed.
///
/// # Panics
/// Panics if the members' clocks already disagree: that means some were
/// advanced outside the lockstep and any cross-group time comparison
/// (throughput windows) would silently lie.
pub fn run_lockstep<'a>(
    sims: impl IntoIterator<Item = &'a mut Simulator>,
    d: SimDuration,
) -> SimTime {
    let mut members: Vec<&mut Simulator> = sims.into_iter().collect();
    assert!(!members.is_empty(), "lockstep over an empty group");
    let now = members[0].now();
    for (i, sim) in members.iter().enumerate() {
        assert_eq!(
            sim.now(),
            now,
            "group clocks diverged before lockstep: member {i} is at {} but member 0 is at {now}",
            sim.now()
        );
    }
    let horizon = now + d;
    for sim in &mut members {
        sim.run_until(horizon);
    }
    horizon
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::{Node, NodeCtx, NodeId, TimerId};
    use crate::sim::SimConfig;

    struct Chatter {
        peer: NodeId,
        period: SimDuration,
    }
    impl Node for Chatter {
        fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
            ctx.set_timer(TimerId(0), self.period);
        }
        fn on_packet(&mut self, _s: NodeId, _p: &[u8], _c: &mut NodeCtx<'_>) {}
        fn on_timer(&mut self, _t: TimerId, ctx: &mut NodeCtx<'_>) {
            ctx.send(self.peer, vec![7; 16]);
            ctx.set_timer(TimerId(0), self.period);
        }
    }

    fn chatty_sim(seed: u64, period_us: u64) -> Simulator {
        let cfg = SimConfig {
            seed,
            ..Default::default()
        };
        let mut sim = Simulator::new(cfg);
        let a = sim.add_node(Box::new(Chatter {
            peer: NodeId(1),
            period: SimDuration::from_micros(period_us),
        }));
        let _b = sim.add_node(Box::new(Chatter {
            peer: a,
            period: SimDuration::from_micros(period_us),
        }));
        sim
    }

    #[test]
    fn lockstep_keeps_clocks_identical() {
        let mut sims = [chatty_sim(1, 100), chatty_sim(2, 130), chatty_sim(3, 70)];
        for _ in 0..5 {
            let now = run_lockstep(sims.iter_mut(), SimDuration::from_millis(1));
            assert!(sims.iter().all(|s| s.now() == now));
        }
        assert_eq!(sims[0].now().as_micros(), 5000);
    }

    #[test]
    #[should_panic(expected = "clocks diverged")]
    fn drifted_clocks_are_rejected() {
        let mut a = chatty_sim(1, 100);
        let mut b = chatty_sim(2, 100);
        a.run_for(SimDuration::from_micros(1));
        run_lockstep([&mut a, &mut b], SimDuration::from_millis(1));
    }
}

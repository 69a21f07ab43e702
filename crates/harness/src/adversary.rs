//! Adaptive Byzantine adversaries: fault strategies that *watch* the
//! protocol and time their misbehaviour.
//!
//! The scripted scenarios of [`crate::scenario`] fire faults at fixed
//! virtual-time offsets — good for reproducing the paper's fault windows,
//! blind to what the protocol is actually doing. A real intruder is not
//! blind: it equivocates *while it holds the primary slot*, censors *the
//! clients routed through it*, and misbehaves *exactly while a leader
//! rotation is in flight*, because those are the instants where a single
//! compromised replica hurts the most. This module supplies that opponent:
//!
//! * [`Observation`] — the protocol state an adversary is allowed to see,
//!   read through the replica's introspection surface (current
//!   view, execution progress, stable checkpoint, rotation/recovery flags).
//!   Nothing here is privileged: every field is information a real
//!   compromised member would hold.
//! * [`Strategy`] — the decision rule: per tick, map an observation to the
//!   [`Fault`] that should currently be mounted (or `None` for honest).
//! * [`Adversary`] — the binding of one strategy to one `(shard, member)`
//!   seat, mounting and unmounting faults on the deployment's group as
//!   its decisions change. Driven by
//!   [`run_scenario_adaptive`](crate::scenario::run_scenario_adaptive).
//!
//! The counterweight is **proactive recovery**
//! ([`Cluster::proactive_recover`](crate::cluster::Cluster::proactive_recover),
//! scheduled as
//! [`ScenarioEvent::ProactiveRecover`]):
//! when the rolling recovery schedule reboots the adversary's seat, the
//! adversary is **disarmed** — the reboot wiped the intrusion, and the seat
//! rejoins honestly. That closed loop (adaptive attack vs. scheduled
//! recovery) is what the long-horizon reliability runs measure.
//!
//! Everything is deterministic: strategies see only protocol state, ticks
//! fire on the virtual clock, so the same seed reproduces the same attack
//! trace byte for byte.

use pbft_core::{SeqNum, View};
use simnet::SimTime;

use crate::byzantine::Fault;
use crate::scenario::ScenarioEvent;
use crate::shard::Deployment;

/// What a compromised member can see of its group's protocol state: its own
/// engine's introspection surface plus whether *any* live member is mid
/// view change (a compromised replica observes that from the vote traffic
/// it receives).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Observation {
    /// Group the observed seat belongs to.
    pub shard: usize,
    /// Member index of the observed seat.
    pub member: usize,
    /// Group size.
    pub n: usize,
    /// Current virtual time.
    pub now: SimTime,
    /// The seat's current view.
    pub view: View,
    /// The seat's highest contiguously executed sequence number.
    pub last_executed: SeqNum,
    /// Sequence number of the seat's last stable checkpoint.
    pub stable_seq: SeqNum,
    /// Does the seat currently hold the primary/leader slot? (Both engines
    /// rotate the slot as `view mod n`.)
    pub is_primary: bool,
    /// Is a leader rotation in flight anywhere in the group — some live
    /// member has voted to change views and not yet entered the new one?
    pub rotation_in_flight: bool,
    /// Is the seat itself mid state transfer?
    pub recovering: bool,
}

/// An adaptive fault policy: per tick, which [`Fault`] should currently be
/// mounted on the compromised seat (`None` = behave honestly).
///
/// Implementations must be deterministic functions of the observation
/// stream (plus their own state) — no clocks, no randomness — so adaptive
/// runs replay exactly.
pub trait Strategy {
    /// Short stable name, used in trace labels (e.g. `"equivocating-primary"`).
    fn name(&self) -> &'static str;
    /// The fault that should be mounted given `obs`.
    fn decide(&mut self, obs: &Observation) -> Option<Fault>;
}

/// Equivocate exactly while holding the primary slot: mounts
/// [`Fault::SplitBrain`] whenever the seat is primary (and not itself
/// recovering), unmounts the moment a view change takes the slot away. The
/// seat must carry a provisioned twin — build the deployment with
/// [`build_adversary_cluster`](crate::byzantine::build_adversary_cluster).
#[derive(Debug, Default, Clone, Copy)]
pub struct EquivocatingPrimary;

impl Strategy for EquivocatingPrimary {
    fn name(&self) -> &'static str {
        "equivocating-primary"
    }
    fn decide(&mut self, obs: &Observation) -> Option<Fault> {
        (obs.is_primary && !obs.recovering).then_some(Fault::SplitBrain)
    }
}

/// Censor chosen clients exactly while holding the primary slot (a censoring
/// backup starves nobody — requests reach it only via the primary's
/// pre-prepares). Mounts [`Fault::Censor`] when primary, honest otherwise.
#[derive(Debug, Clone, Copy)]
pub struct TargetedCensor {
    /// Bitmask of censored clients, as in [`Fault::Censor`]: bit `k`
    /// censors `ClientId(k + 1)`.
    pub client_bits: u64,
}

impl Strategy for TargetedCensor {
    fn name(&self) -> &'static str {
        "targeted-censor"
    }
    fn decide(&mut self, obs: &Observation) -> Option<Fault> {
        obs.is_primary.then_some(Fault::Censor {
            client_bits: self.client_bits,
        })
    }
}

/// Misbehave only while a leader rotation is in flight — the window where a
/// withheld view-change vote or new-view message does maximal damage — and
/// behave honestly in steady state, staying invisible to any monitoring
/// that samples outside rotations.
#[derive(Debug, Clone, Copy)]
pub struct ViewChangeWindowAttacker {
    /// The fault to mount inside rotation windows (typically
    /// [`Fault::Mute`]: swallow the votes the rotation needs).
    pub fault: Fault,
}

impl Strategy for ViewChangeWindowAttacker {
    fn name(&self) -> &'static str {
        "vc-window"
    }
    fn decide(&mut self, obs: &Observation) -> Option<Fault> {
        obs.rotation_in_flight.then_some(self.fault)
    }
}

/// One strategy bound to one compromised seat. The scenario runner ticks it
/// on a fixed virtual cadence; each tick observes, decides, and reconciles
/// the seat's mounted fault with the decision.
pub struct Adversary {
    shard: usize,
    member: usize,
    strategy: Box<dyn Strategy>,
    armed: bool,
}

impl Adversary {
    /// Bind `strategy` to seat `(shard, member)`, armed.
    pub fn new(shard: usize, member: usize, strategy: impl Strategy + 'static) -> Adversary {
        Adversary {
            shard,
            member,
            strategy: Box::new(strategy),
            armed: true,
        }
    }

    /// The compromised seat, as `(shard, member)`.
    pub fn seat(&self) -> (usize, usize) {
        (self.shard, self.member)
    }

    /// Is the intrusion still live? (Proactive recovery of the seat, or a
    /// crash of it, disarms the adversary permanently.)
    pub fn is_armed(&self) -> bool {
        self.armed
    }

    fn label(&self, action: &str) -> String {
        format!(
            "adv({}/{},{}):{action}",
            self.shard,
            self.member,
            self.strategy.name()
        )
    }

    /// Read the seat's observation off the deployment. `None` if the seat
    /// is currently crashed (a dead replica observes nothing).
    pub fn observe(&self, target: &Deployment) -> Option<Observation> {
        let group = target.group(self.shard);
        let n = group.spec().cfg.n();
        let engine = group.replica(self.member)?;
        let view = engine.view();
        let rotation_in_flight =
            (0..n).any(|m| group.replica(m).is_some_and(|e| e.in_view_change()));
        Some(Observation {
            shard: self.shard,
            member: self.member,
            n,
            now: target.now(),
            view,
            last_executed: engine.last_executed(),
            stable_seq: engine.stable_checkpoint().0,
            is_primary: view % n as u64 == self.member as u64,
            rotation_in_flight,
            recovering: engine.is_recovering(),
        })
    }

    /// A scripted event just fired: if it rebooted this adversary's seat
    /// (proactive recovery or a crash), the intrusion is flushed — disarm
    /// permanently and report a trace label.
    pub fn note_event(&mut self, event: &ScenarioEvent) -> Option<String> {
        if !self.armed {
            return None;
        }
        let evicted = match *event {
            ScenarioEvent::CrashMember { shard, member }
            | ScenarioEvent::ProactiveRecover { shard, member } => {
                shard == self.shard && member == self.member
            }
            _ => false,
        };
        evicted.then(|| {
            self.armed = false;
            self.label("disarmed")
        })
    }

    /// One decision cycle: observe, decide, reconcile the seat's mounted
    /// fault. Returns a trace label when the mounted fault changed (or the
    /// seat was unreachable), `None` on a quiet tick.
    pub fn tick(&mut self, target: &mut Deployment) -> Option<String> {
        if !self.armed {
            return None;
        }
        let obs = self.observe(target)?;
        let want = self.strategy.decide(&obs);
        let group = target.group_mut(self.shard);
        if want == group.mounted_fault(self.member) {
            return None;
        }
        match want {
            Some(fault) => {
                group.mount_fault(self.member, fault);
                Some(self.label(&format!("mount({fault:?})")))
            }
            None => {
                group.unmount_fault(self.member);
                Some(self.label("unmount"))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs(is_primary: bool, rotation_in_flight: bool, recovering: bool) -> Observation {
        Observation {
            shard: 0,
            member: 0,
            n: 4,
            now: SimTime(0),
            view: 0,
            last_executed: 0,
            stable_seq: 0,
            is_primary,
            rotation_in_flight,
            recovering,
        }
    }

    #[test]
    fn strategies_decide_on_the_right_windows() {
        let mut eq = EquivocatingPrimary;
        assert_eq!(eq.decide(&obs(true, false, false)), Some(Fault::SplitBrain));
        assert_eq!(eq.decide(&obs(false, false, false)), None);
        assert_eq!(eq.decide(&obs(true, false, true)), None, "not mid-recovery");

        let mut cen = TargetedCensor { client_bits: 0b10 };
        assert_eq!(
            cen.decide(&obs(true, false, false)),
            Some(Fault::Censor { client_bits: 0b10 })
        );
        assert_eq!(cen.decide(&obs(false, true, false)), None);

        let mut vc = ViewChangeWindowAttacker { fault: Fault::Mute };
        assert_eq!(vc.decide(&obs(false, true, false)), Some(Fault::Mute));
        assert_eq!(vc.decide(&obs(true, false, false)), None);
    }

    #[test]
    fn adversary_disarms_when_its_seat_reboots() {
        let mut adv = Adversary::new(0, 2, EquivocatingPrimary);
        assert!(adv.is_armed());
        assert_eq!(adv.seat(), (0, 2));
        // Events on other seats don't disarm.
        assert_eq!(
            adv.note_event(&ScenarioEvent::CrashMember {
                shard: 0,
                member: 1
            }),
            None
        );
        assert_eq!(
            adv.note_event(&ScenarioEvent::ProactiveRecover {
                shard: 1,
                member: 2
            }),
            None
        );
        let mark = adv
            .note_event(&ScenarioEvent::ProactiveRecover {
                shard: 0,
                member: 2,
            })
            .expect("own-seat recovery disarms");
        assert_eq!(mark, "adv(0/2,equivocating-primary):disarmed");
        assert!(!adv.is_armed());
        // Permanently: later events stay quiet.
        assert_eq!(
            adv.note_event(&ScenarioEvent::CrashMember {
                shard: 0,
                member: 2
            }),
            None
        );
    }
}

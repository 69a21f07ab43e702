//! Deterministic fault-schedule scenarios: scripting *when* faults fire.
//!
//! The paper's core claim is that PBFT's practicality collapses not in
//! steady state but *during* fault windows — a primary crashing under load,
//! a primary that is slow but not dead, repeated view changes — and that
//! what clients experience around those instants (latency spikes, stalled
//! windows, time-to-recover) is the honest measure of a BFT system. The
//! static fault injectors ([`crate::byzantine`], crash/restart,
//! isolate/heal) can create those conditions but not *time* them; this
//! module adds the missing dimension:
//!
//! * [`ScenarioEvent`] — the fault vocabulary: crash/restart a member,
//!   mount/unmount a Byzantine fault at runtime, isolate a member, pause a
//!   whole group (the coordinator-outage case), degrade links, heal.
//! * [`Deployment::apply`] — the event vocabulary mapped onto a
//!   [`Deployment`]'s groups, addressed as `(shard, member)` over the
//!   shared lockstep clock; a single group is a one-group deployment.
//! * [`Scenario`] — a named, seeded script: events at virtual-time offsets
//!   plus a measurement window; the runner advances the clock to each
//!   event's instant, so every event fires *exactly* on time (no slicing
//!   quantization). [`run_scenario_adaptive`] additionally ticks adaptive
//!   adversaries ([`crate::adversary`]) between the scripted events.
//! * [`Timeline`] — the client-visible record: per-bucket completed
//!   requests, latency, and per-client progress, from which availability,
//!   degraded-window throughput and time-to-recover are derived.
//!
//! Everything is deterministic: the same spec and seed produce an
//! identical event trace and an identical timeline, bucket for bucket —
//! which is what lets the conformance suite pin availability bounds and
//! recovery windows as regressions rather than flaky observations.
//!
//! ```
//! use harness::scenario::{run_scenario, Scenario, ScenarioEvent};
//! use harness::{ClusterSpec, Deployment, DeploymentSpec};
//! use harness::workload::null_ops;
//! use simnet::SimDuration;
//!
//! let ms = SimDuration::from_millis;
//! let mut deployment = Deployment::build(DeploymentSpec {
//!     base: ClusterSpec { num_clients: 2, ..Default::default() },
//!     ..Default::default()
//! });
//! deployment.start_paced_workload(ms(5), |_, _| null_ops(64));
//! let scenario = Scenario {
//!     name: "crash-a-backup",
//!     duration: ms(400),
//!     bucket: ms(20),
//!     events: vec![
//!         (ms(100), ScenarioEvent::CrashMember { shard: 0, member: 2 }),
//!         (ms(250), ScenarioEvent::RestartMember { shard: 0, member: 2, preserve_disk: true }),
//!     ],
//! };
//! let report = run_scenario(&mut deployment, &scenario);
//! assert_eq!(report.trace.len(), 2);
//! assert!(report.timeline.availability() > 0.9, "a backup crash barely dents a 4-group");
//! ```

use simnet::{SimDuration, SimTime};

use crate::adversary::Adversary;
use crate::byzantine::Fault;
use crate::shard::Deployment;

/// One scheduled fault (or repair) against a deployment, addressed as
/// `(shard, member)`; single-group deployments use `shard = 0`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ScenarioEvent {
    /// Crash a member replica (its transient protocol state is lost).
    CrashMember {
        /// Group index.
        shard: usize,
        /// Member index within the group.
        member: usize,
    },
    /// Restart a crashed member; `preserve_disk` keeps its durable region.
    RestartMember {
        /// Group index.
        shard: usize,
        /// Member index within the group.
        member: usize,
        /// Keep the durable state region across the restart.
        preserve_disk: bool,
    },
    /// Proactively recover a *healthy* member: reboot it through the
    /// crash/restart path (durable disk kept, transient state and session
    /// keys flushed) and have clients redistribute fresh session keys — the
    /// rolling recovery schedule's unit step, refreshing the fault budget
    /// without the group losing more than this one member. See
    /// [`Cluster::proactive_recover`](crate::cluster::Cluster::proactive_recover).
    /// Disarms any adaptive adversary occupying the seat (see
    /// [`crate::adversary`]).
    ProactiveRecover {
        /// Group index.
        shard: usize,
        /// Member index within the group.
        member: usize,
    },
    /// Mount a Byzantine fault on a member at runtime.
    MountFault {
        /// Group index.
        shard: usize,
        /// Member index within the group.
        member: usize,
        /// The behaviour to mount.
        fault: Fault,
    },
    /// Unmount a member's fault: honest behaviour resumes.
    UnmountFault {
        /// Group index.
        shard: usize,
        /// Member index within the group.
        member: usize,
    },
    /// Cut a member off from peers and clients; it keeps running blind.
    IsolateMember {
        /// Group index.
        shard: usize,
        /// Member index within the group.
        member: usize,
    },
    /// Partition a whole group's replicas from its clients: the group stays
    /// healthy internally but unreachable — the paused-coordinator fault of
    /// the cross-shard scenarios (prepares and decides time out against it).
    PauseGroup {
        /// Group index.
        shard: usize,
    },
    /// Add loss and latency to every non-overridden link of the group.
    DegradeLinks {
        /// Group index.
        shard: usize,
        /// Additional packet-loss probability.
        loss: f64,
        /// Additional one-way latency.
        extra_latency: SimDuration,
    },
    /// Restore the group's spec link parameters and clear every per-pair
    /// override: heals [`ScenarioEvent::IsolateMember`],
    /// [`ScenarioEvent::PauseGroup`] and [`ScenarioEvent::DegradeLinks`].
    HealGroup {
        /// Group index.
        shard: usize,
    },
    /// Live-split an elastic group mid-run: the upper half of `source`'s
    /// widest key range is handed to a freshly booted group under a
    /// bumped-epoch map, with the workload still offered (see
    /// [`Deployment::split`]). Only elastic deployments support it — a
    /// static partition cannot change, so [`Deployment::apply`] panics.
    Reshard {
        /// Group whose key range is split.
        source: usize,
    },
}

impl ScenarioEvent {
    /// A compact human-readable form, used in [`EventMark`] traces.
    pub fn label(&self) -> String {
        match *self {
            ScenarioEvent::CrashMember { shard, member } => format!("crash({shard}/{member})"),
            ScenarioEvent::RestartMember {
                shard,
                member,
                preserve_disk,
            } => format!(
                "restart({shard}/{member},{})",
                if preserve_disk { "disk" } else { "blank" }
            ),
            ScenarioEvent::ProactiveRecover { shard, member } => {
                format!("proactive({shard}/{member})")
            }
            ScenarioEvent::MountFault {
                shard,
                member,
                fault,
            } => format!("mount({shard}/{member},{fault:?})"),
            ScenarioEvent::UnmountFault { shard, member } => {
                format!("unmount({shard}/{member})")
            }
            ScenarioEvent::IsolateMember { shard, member } => {
                format!("isolate({shard}/{member})")
            }
            ScenarioEvent::PauseGroup { shard } => format!("pause({shard})"),
            ScenarioEvent::DegradeLinks { shard, loss, .. } => {
                format!("degrade({shard},loss+{loss})")
            }
            ScenarioEvent::HealGroup { shard } => format!("heal({shard})"),
            ScenarioEvent::Reshard { source } => format!("reshard({source})"),
        }
    }
}

impl Deployment {
    /// Apply one scenario event to the group it addresses.
    ///
    /// # Panics
    /// Panics if the event addresses a group the deployment lacks, and on
    /// [`ScenarioEvent::Reshard`] of a deployment that is not elastic.
    pub fn apply(&mut self, event: &ScenarioEvent) {
        match *event {
            ScenarioEvent::CrashMember { shard, member } => {
                self.group_mut(shard).crash_replica(member)
            }
            ScenarioEvent::RestartMember {
                shard,
                member,
                preserve_disk,
            } => self.group_mut(shard).restart_replica(member, preserve_disk),
            ScenarioEvent::ProactiveRecover { shard, member } => {
                self.group_mut(shard).proactive_recover(member)
            }
            ScenarioEvent::MountFault {
                shard,
                member,
                fault,
            } => self.group_mut(shard).mount_fault(member, fault),
            ScenarioEvent::UnmountFault { shard, member } => {
                self.group_mut(shard).unmount_fault(member)
            }
            ScenarioEvent::IsolateMember { shard, member } => {
                self.group_mut(shard).isolate_replica(member)
            }
            ScenarioEvent::PauseGroup { shard } => self.group_mut(shard).isolate_from_clients(),
            ScenarioEvent::DegradeLinks {
                shard,
                loss,
                extra_latency,
            } => self.group_mut(shard).degrade_links(loss, extra_latency),
            ScenarioEvent::HealGroup { shard } => self.group_mut(shard).restore_links(),
            ScenarioEvent::Reshard { source } => {
                self.split_auto(source);
            }
        }
    }
}

/// A named fault script: events at offsets from the scenario's start, plus
/// the measurement window they are observed through.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Scenario name (labels reports and benches).
    pub name: &'static str,
    /// Total measured span. Must be a whole multiple of `bucket`.
    pub duration: SimDuration,
    /// Timeline bucket width.
    pub bucket: SimDuration,
    /// `(offset, event)` pairs; order is irrelevant (ties fire in listed
    /// order via the schedule's insertion-order rule).
    pub events: Vec<(SimDuration, ScenarioEvent)>,
}

/// One fired event, stamped with the instant it actually ran.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EventMark {
    /// Virtual instant the event fired.
    pub at: SimTime,
    /// [`ScenarioEvent::label`] of the event.
    pub label: String,
}

/// What a scenario run produced: the fired-event trace and the timeline.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioReport {
    /// Every event that fired, in firing order.
    pub trace: Vec<EventMark>,
    /// The bucketed client-visible record.
    pub timeline: Timeline,
}

/// One timeline bucket: what clients observed in `[start + i·bucket,
/// start + (i+1)·bucket)`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TimelineBucket {
    /// Requests completed across all clients of all groups.
    pub completed: u64,
    /// Summed latency (ns) of those completions.
    pub latency_ns: u64,
    /// Completions per client, flattened group-major (group 0's clients,
    /// then group 1's, ...).
    pub per_client_completed: Vec<u64>,
}

/// The bucketed client-visible record of a scenario run.
#[derive(Debug, Clone, PartialEq)]
pub struct Timeline {
    /// Virtual instant of the first bucket's left edge.
    pub start: SimTime,
    /// Bucket width.
    pub bucket: SimDuration,
    /// The buckets, oldest first.
    pub buckets: Vec<TimelineBucket>,
}

impl Timeline {
    /// Committed throughput of bucket `i`, in requests per second.
    pub fn tps(&self, i: usize) -> f64 {
        self.buckets[i].completed as f64 / self.bucket.as_secs_f64()
    }

    /// Mean latency (ms) of requests completed in bucket `i`; 0.0 if none.
    pub fn mean_latency_ms(&self, i: usize) -> f64 {
        let b = &self.buckets[i];
        if b.completed == 0 {
            0.0
        } else {
            b.latency_ns as f64 / b.completed as f64 / 1e6
        }
    }

    /// Fraction of buckets in which at least one request completed — the
    /// coarse availability figure the conformance suite pins per scenario.
    pub fn availability(&self) -> f64 {
        if self.buckets.is_empty() {
            return 0.0;
        }
        let live = self.buckets.iter().filter(|b| b.completed > 0).count();
        live as f64 / self.buckets.len() as f64
    }

    /// The bucket containing virtual instant `at` (clamped to the ends).
    pub fn bucket_index(&self, at: SimTime) -> usize {
        let off = at.saturating_sub(self.start).as_nanos();
        ((off / self.bucket.as_nanos().max(1)) as usize).min(self.buckets.len().saturating_sub(1))
    }

    /// Committed throughput over buckets `[from, to)`, requests per second.
    pub fn window_tps(&self, from: usize, to: usize) -> f64 {
        let to = to.min(self.buckets.len());
        if from >= to {
            return 0.0;
        }
        let total: u64 = self.buckets[from..to].iter().map(|b| b.completed).sum();
        total as f64 / (self.bucket.as_secs_f64() * (to - from) as f64)
    }

    /// Time from instant `at` (typically an [`EventMark::at`]) to the end of
    /// the first subsequent bucket with a completion — the client-visible
    /// time-to-recover, at bucket granularity. `None` if nothing ever
    /// completes again inside the timeline.
    pub fn recovery_after(&self, at: SimTime) -> Option<SimDuration> {
        let first = (at.saturating_sub(self.start).as_nanos())
            .div_ceil(self.bucket.as_nanos().max(1)) as usize;
        for (i, b) in self.buckets.iter().enumerate().skip(first) {
            if b.completed > 0 {
                let end =
                    self.start + SimDuration::from_nanos(self.bucket.as_nanos() * (i as u64 + 1));
                return Some(end.saturating_sub(at));
            }
        }
        None
    }

    /// Clients (flattened group-major) that completed nothing in bucket `i`.
    pub fn stalled_clients(&self, i: usize) -> usize {
        self.buckets[i]
            .per_client_completed
            .iter()
            .filter(|&&c| c == 0)
            .count()
    }
}

/// Per-client `(completed, total_latency_ns)` across all groups, flattened
/// group-major — the quantity the timeline diffs per bucket.
fn snapshot(target: &Deployment) -> Vec<(u64, u64)> {
    let mut v = Vec::new();
    for s in 0..target.shards() {
        let g = target.group(s);
        for c in 0..g.clients.len() {
            let m = g.client_metrics(c);
            v.push((m.completed, m.total_latency_ns));
        }
    }
    v
}

/// Execute `scenario` against `target`: events fire exactly at their
/// offsets (the event loop of [`run_scenario_adaptive`] runs the deployment
/// up to each one and applies it there), the timeline samples every
/// `scenario.bucket`, and the report carries both.
///
/// The run starts at the target's current clock — build, install the
/// workload, then run; warmup is part of the script (schedule the first
/// fault after it).
///
/// # Panics
/// Panics if `scenario.duration` is not a whole multiple of
/// `scenario.bucket` (the timeline would misreport its last bucket), if an
/// event addresses a group the deployment doesn't have, or if an event's
/// offset falls at or beyond `scenario.duration` (it could never fire).
pub fn run_scenario(target: &mut Deployment, scenario: &Scenario) -> ScenarioReport {
    run_scenario_adaptive(target, scenario, &mut [], scenario.bucket)
}

/// [`run_scenario`] with adaptive adversaries in the loop: scripted events
/// still fire exactly at their offsets, and between them every
/// [`Adversary`] gets a decision cycle each `tick` of virtual time —
/// observing protocol state and mounting/unmounting faults in reaction.
/// Adversary actions land in the trace alongside the scripted events, so
/// the report records the *whole* attack as it actually unfolded.
///
/// At a shared instant, scripted events fire first (in listed order), then
/// adversaries decide — an adversary whose seat was just proactively
/// recovered observes the rebooted world, not the stale one (and is
/// disarmed; see [`Adversary::note_event`]).
///
/// # Panics
/// Panics on the same malformed scripts as [`run_scenario`], on a zero
/// `tick`, and on an adversary seated in a group the deployment lacks.
pub fn run_scenario_adaptive(
    target: &mut Deployment,
    scenario: &Scenario,
    adversaries: &mut [Adversary],
    tick: SimDuration,
) -> ScenarioReport {
    assert!(
        scenario.bucket > SimDuration::ZERO
            && scenario
                .duration
                .as_nanos()
                .is_multiple_of(scenario.bucket.as_nanos()),
        "scenario duration must be a whole number of buckets"
    );
    assert!(
        tick > SimDuration::ZERO,
        "a zero adversary tick would spin the clock"
    );
    // Every Reshard in the script appends one group mid-run, so later
    // events may legitimately address indexes up to shards + splits
    // (an event that fires too early still panics in `group_mut`).
    let splits = scenario
        .events
        .iter()
        .filter(|(_, ev)| matches!(ev, ScenarioEvent::Reshard { .. }))
        .count();
    for (off, ev) in &scenario.events {
        assert!(
            *off < scenario.duration,
            "event {} at offset {off:?} lies outside the scenario window {:?}",
            ev.label(),
            scenario.duration
        );
        let shard = match *ev {
            ScenarioEvent::CrashMember { shard, .. }
            | ScenarioEvent::RestartMember { shard, .. }
            | ScenarioEvent::ProactiveRecover { shard, .. }
            | ScenarioEvent::MountFault { shard, .. }
            | ScenarioEvent::UnmountFault { shard, .. }
            | ScenarioEvent::IsolateMember { shard, .. }
            | ScenarioEvent::PauseGroup { shard }
            | ScenarioEvent::DegradeLinks { shard, .. }
            | ScenarioEvent::HealGroup { shard }
            | ScenarioEvent::Reshard { source: shard } => shard,
        };
        assert!(
            shard < target.shards() + splits,
            "event {} addresses shard {shard} of a {}-group deployment",
            ev.label(),
            target.shards()
        );
    }
    for adv in adversaries.iter() {
        assert!(
            adv.seat().0 < target.shards(),
            "adversary seated in shard {} of a {}-group deployment",
            adv.seat().0,
            target.shards()
        );
    }

    let start = target.now();
    // Stable sort: events at equal offsets fire in listed order.
    let mut events: Vec<(SimTime, ScenarioEvent)> = scenario
        .events
        .iter()
        .map(|&(off, ev)| (start + off, ev))
        .collect();
    events.sort_by_key(|&(at, _)| at);
    let mut next_event = 0usize;
    let mut next_tick = start + tick;
    let mut marks: Vec<EventMark> = Vec::new();

    let n_buckets = scenario.duration.as_nanos() / scenario.bucket.as_nanos();
    let mut timeline = Timeline {
        start,
        bucket: scenario.bucket,
        buckets: Vec::with_capacity(n_buckets as usize),
    };
    let mut prev = snapshot(target);
    for b in 0..n_buckets {
        let end = start + SimDuration::from_nanos(scenario.bucket.as_nanos() * (b + 1));
        loop {
            // Advance to the next due instant: a scripted event, an
            // adversary tick, or the bucket edge — whichever is earliest.
            let mut stop = end;
            if let Some(&(at, _)) = events.get(next_event) {
                if at < stop {
                    stop = at;
                }
            }
            if !adversaries.is_empty() && next_tick < stop {
                stop = next_tick;
            }
            target.run_for(stop.saturating_sub(target.now()));
            let now = target.now();
            while let Some(&(at, ev)) = events.get(next_event) {
                if at > now {
                    break;
                }
                target.apply(&ev);
                marks.push(EventMark {
                    at: now,
                    label: ev.label(),
                });
                for adv in adversaries.iter_mut() {
                    if let Some(label) = adv.note_event(&ev) {
                        marks.push(EventMark { at: now, label });
                    }
                }
                next_event += 1;
            }
            while !adversaries.is_empty() && next_tick <= now {
                for adv in adversaries.iter_mut() {
                    if let Some(label) = adv.tick(target) {
                        marks.push(EventMark { at: now, label });
                    }
                }
                next_tick += tick;
            }
            if now >= end {
                break;
            }
        }
        let cur = snapshot(target);
        let mut bucket = TimelineBucket::default();
        for (i, &(completed, latency)) in cur.iter().enumerate() {
            let (p_completed, p_latency) = prev.get(i).copied().unwrap_or_default();
            let d = completed.saturating_sub(p_completed);
            bucket.completed += d;
            bucket.latency_ns += latency.saturating_sub(p_latency);
            bucket.per_client_completed.push(d);
        }
        timeline.buckets.push(bucket);
        prev = cur;
    }
    ScenarioReport {
        trace: marks,
        timeline,
    }
}

/// The paper-fault conformance scenarios. Used by the root
/// `scenario_conformance` suite and the `availability` bench, so the pinned
/// bounds and the reported recovery windows describe the same scripts.
///
/// All of them assume the fast-failover protocol configuration of the
/// conformance suite (200 ms view-change timeout) and a paced background
/// workload; single-group scenarios address `shard 0`.
pub mod paper {
    use super::{Scenario, ScenarioEvent};
    use crate::byzantine::Fault;
    use simnet::SimDuration;

    const fn ms(n: u64) -> SimDuration {
        SimDuration::from_millis(n)
    }

    /// The primary crashes under load and later restarts from disk: the
    /// headline view-change scenario. The availability hole spans the
    /// suspicion timeout plus the new-view round.
    pub fn primary_crash_under_load() -> Scenario {
        Scenario {
            name: "primary-crash-under-load",
            duration: ms(3000),
            bucket: ms(25),
            events: vec![
                (
                    ms(600),
                    ScenarioEvent::CrashMember {
                        shard: 0,
                        member: 0,
                    },
                ),
                (
                    ms(1800),
                    ScenarioEvent::RestartMember {
                        shard: 0,
                        member: 0,
                        preserve_disk: true,
                    },
                ),
            ],
        }
    }

    /// The primary turns slow-but-not-dead: it drops nothing, so only the
    /// backups' timeouts can evict it. The per-message delay is set well
    /// above the suspicion timeout — a primary merely *somewhat* slow
    /// commits a trickle inside every timeout window and is never evicted,
    /// which is precisely the trap the paper describes; eviction needs the
    /// primary's batch cadence to fall below the timeout. The fault is
    /// unmounted later to show the member draining its backlog and
    /// rejoining as an honest backup.
    pub fn slow_primary() -> Scenario {
        Scenario {
            name: "slow-primary",
            duration: ms(3500),
            bucket: ms(25),
            events: vec![
                (
                    ms(600),
                    ScenarioEvent::MountFault {
                        shard: 0,
                        member: 0,
                        fault: Fault::SlowPrimary {
                            delay_ns: 100_000_000, // 100 ms per message
                        },
                    },
                ),
                (
                    ms(2400),
                    ScenarioEvent::UnmountFault {
                        shard: 0,
                        member: 0,
                    },
                ),
            ],
        }
    }

    /// Every backup crashes and restarts in turn, never more than f = 1
    /// down at once: the group must stay continuously available while each
    /// member recovers by state transfer.
    pub fn rolling_crash() -> Scenario {
        let mut events = Vec::new();
        for (i, member) in (1..4usize).enumerate() {
            let base = 400 + i as u64 * 1000;
            events.push((ms(base), ScenarioEvent::CrashMember { shard: 0, member }));
            events.push((
                ms(base + 600),
                ScenarioEvent::RestartMember {
                    shard: 0,
                    member,
                    preserve_disk: false,
                },
            ));
        }
        Scenario {
            name: "rolling-crash-of-f-replicas",
            duration: ms(3600),
            bucket: ms(25),
            events,
        }
    }

    /// A whole group becomes unreachable mid-2PC and later heals: the
    /// coordinator-outage scenario. Transactions coordinated by the paused
    /// group strand `Unresolved` (their participants hold locks) until the
    /// heal; the conformance test settles them with `resolve_unresolved`
    /// and audits atomicity.
    pub fn coordinator_outage() -> Scenario {
        Scenario {
            name: "coordinator-outage-mid-2pc",
            duration: ms(3000),
            bucket: ms(25),
            events: vec![
                (ms(600), ScenarioEvent::PauseGroup { shard: 0 }),
                (ms(1800), ScenarioEvent::HealGroup { shard: 0 }),
            ],
        }
    }

    /// One member is partitioned away (still running, talking to no one)
    /// and the partition later heals: the member must catch back up without
    /// ever having diverged.
    pub fn partition_then_heal() -> Scenario {
        Scenario {
            name: "partition-then-heal",
            duration: ms(3000),
            bucket: ms(25),
            events: vec![
                (
                    ms(600),
                    ScenarioEvent::IsolateMember {
                        shard: 0,
                        member: 2,
                    },
                ),
                (ms(1800), ScenarioEvent::HealGroup { shard: 0 }),
            ],
        }
    }

    /// An adaptively equivocating member holds seat 0: it mounts split-brain
    /// whenever it is primary and stands down when a view change takes the
    /// slot (driven by [`crate::adversary::EquivocatingPrimary`] — the
    /// script carries only the proactive-recovery counterstroke, which
    /// disarms the intruder; run it with
    /// [`run_scenario_adaptive`](super::run_scenario_adaptive)). Safety
    /// must hold throughout, and after the recovery the group runs clean.
    pub fn equivocating_primary() -> Scenario {
        Scenario {
            name: "equivocating-primary",
            duration: ms(3000),
            bucket: ms(25),
            events: vec![(
                ms(2000),
                ScenarioEvent::ProactiveRecover {
                    shard: 0,
                    member: 0,
                },
            )],
        }
    }

    /// A censoring primary starves client 1 while serving everyone else,
    /// and an unrelated healthy member is proactively recovered mid-attack:
    /// the rolling recovery schedule must not amplify a concurrent
    /// Byzantine fault into a group outage. The censor is unmounted near
    /// the end so the starved lane's resumption is observable.
    pub fn censorship_under_recovery() -> Scenario {
        Scenario {
            name: "censorship-under-recovery",
            duration: ms(3200),
            bucket: ms(25),
            events: vec![
                (
                    ms(600),
                    ScenarioEvent::MountFault {
                        shard: 0,
                        member: 0,
                        fault: Fault::Censor { client_bits: 0b1 },
                    },
                ),
                (
                    ms(1200),
                    ScenarioEvent::ProactiveRecover {
                        shard: 0,
                        member: 2,
                    },
                ),
                (
                    ms(2200),
                    ScenarioEvent::UnmountFault {
                        shard: 0,
                        member: 0,
                    },
                ),
            ],
        }
    }

    /// All seven, for sweeping drivers (the availability bench).
    pub fn all() -> Vec<Scenario> {
        vec![
            primary_crash_under_load(),
            slow_primary(),
            rolling_crash(),
            coordinator_outage(),
            partition_then_heal(),
            equivocating_primary(),
            censorship_under_recovery(),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::{Cluster, ClusterSpec};
    use crate::shard::DeploymentSpec;
    use crate::workload::null_ops;
    use pbft_core::Engine;

    fn ms(n: u64) -> SimDuration {
        SimDuration::from_millis(n)
    }

    /// One default group of `num_clients` clients.
    fn one_group(num_clients: usize, seed: u64) -> Deployment {
        Deployment::build(DeploymentSpec {
            base: ClusterSpec {
                num_clients,
                seed,
                ..Default::default()
            },
            ..Default::default()
        })
    }

    #[test]
    fn timeline_arithmetic() {
        let t = Timeline {
            start: SimTime(1_000_000),
            bucket: ms(10),
            buckets: vec![
                TimelineBucket {
                    completed: 20,
                    latency_ns: 40_000_000,
                    per_client_completed: vec![10, 10, 0],
                },
                TimelineBucket::default(),
                TimelineBucket {
                    completed: 10,
                    latency_ns: 5_000_000,
                    per_client_completed: vec![5, 5, 0],
                },
            ],
        };
        assert_eq!(t.tps(0), 2000.0);
        assert_eq!(t.mean_latency_ms(0), 2.0);
        assert_eq!(t.mean_latency_ms(1), 0.0);
        assert!((t.availability() - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(t.stalled_clients(0), 1);
        assert_eq!(t.bucket_index(SimTime(1_000_000)), 0);
        assert_eq!(t.bucket_index(SimTime(12_000_000)), 1);
        assert_eq!(t.bucket_index(SimTime(999_000_000)), 2, "clamped");
        assert_eq!(t.window_tps(0, 3), 1000.0);
        // Outage starts mid-bucket-0; the next completing bucket is 2, so
        // recovery spans the rest of bucket 0, bucket 1, and bucket 2.
        let rec = t
            .recovery_after(SimTime(5_000_000))
            .expect("bucket 2 completes");
        assert_eq!(rec, SimDuration::from_nanos(26_000_000));
        assert_eq!(
            t.recovery_after(SimTime(25_000_000)),
            None,
            "nothing after bucket 2"
        );
    }

    #[test]
    fn scenario_runs_and_is_deterministic() {
        let run = || {
            let mut deployment = one_group(2, 3);
            deployment.start_paced_workload(ms(5), |_, _| null_ops(64));
            let scenario = Scenario {
                name: "smoke",
                duration: ms(300),
                bucket: ms(20),
                events: vec![
                    (
                        ms(80),
                        ScenarioEvent::CrashMember {
                            shard: 0,
                            member: 2,
                        },
                    ),
                    (
                        ms(180),
                        ScenarioEvent::RestartMember {
                            shard: 0,
                            member: 2,
                            preserve_disk: true,
                        },
                    ),
                ],
            };
            run_scenario(&mut deployment, &scenario)
        };
        let a = run();
        assert_eq!(a.trace.len(), 2);
        assert_eq!(a.trace[0].label, "crash(0/2)");
        assert_eq!(a.timeline.buckets.len(), 15);
        assert!(a.timeline.availability() > 0.8, "{:?}", a.timeline);
        assert_eq!(a, run(), "same seed ⇒ identical trace and timeline");
    }

    #[test]
    fn events_fire_at_exact_offsets() {
        let mut deployment = one_group(1, 4);
        let start = deployment.now();
        let scenario = Scenario {
            name: "offsets",
            duration: ms(100),
            bucket: ms(50),
            // Deliberately unsorted; 33 ms is not a bucket boundary.
            events: vec![
                (ms(77), ScenarioEvent::HealGroup { shard: 0 }),
                (
                    ms(33),
                    ScenarioEvent::DegradeLinks {
                        shard: 0,
                        loss: 0.5,
                        extra_latency: ms(1),
                    },
                ),
            ],
        };
        let report = run_scenario(&mut deployment, &scenario);
        assert_eq!(report.trace[0].at, start + ms(33));
        assert_eq!(report.trace[1].at, start + ms(77));
    }

    #[test]
    #[should_panic(expected = "whole number of buckets")]
    fn ragged_duration_is_rejected() {
        let mut deployment = one_group(1, 1);
        let scenario = Scenario {
            name: "ragged",
            duration: ms(105),
            bucket: ms(50),
            events: vec![],
        };
        run_scenario(&mut deployment, &scenario);
    }

    #[test]
    #[should_panic(expected = "addresses shard 3")]
    fn out_of_range_shard_is_rejected() {
        let mut deployment = one_group(1, 1);
        let scenario = Scenario {
            name: "bad-shard",
            duration: ms(100),
            bucket: ms(50),
            events: vec![(ms(10), ScenarioEvent::PauseGroup { shard: 3 })],
        };
        run_scenario(&mut deployment, &scenario);
    }

    #[test]
    fn reshard_event_splits_an_elastic_deployment_mid_run() {
        use crate::cluster::AppKind;
        use crate::workload::keyed_kv_ops;

        let mut sc = Deployment::build(DeploymentSpec {
            shards: 2,
            elastic: true,
            base: ClusterSpec {
                num_clients: 2,
                seed: 11,
                app: AppKind::Kv { slots: 64 },
                ..Default::default()
            },
            ..Default::default()
        });
        sc.start_paced_workload(ms(4), |s, c| keyed_kv_ops(64, (s * 10 + c) as u64));
        let scenario = Scenario {
            name: "reshard-smoke",
            duration: ms(400),
            bucket: ms(20),
            events: vec![(ms(150), ScenarioEvent::Reshard { source: 0 })],
        };
        let report = run_scenario(&mut sc, &scenario);
        assert_eq!(report.trace.len(), 1);
        assert_eq!(report.trace[0].label, "reshard(0)");
        assert_eq!(sc.shards(), 3, "the split appended a group");
        assert_eq!(sc.router().epoch(), 1);
        assert!(
            report.timeline.availability() > 0.8,
            "{:?}",
            report.timeline
        );
        // The newborn group's clients joined the timeline mid-run and
        // completed work after the hand-off.
        let last = report.timeline.buckets.last().expect("buckets");
        assert!(last.per_client_completed.len() > 2 * 2);
    }

    #[test]
    #[should_panic(expected = "elastic")]
    fn reshard_of_a_single_group_deployment_is_rejected() {
        let mut deployment = one_group(1, 1);
        let scenario = Scenario {
            name: "bad-reshard",
            duration: ms(100),
            bucket: ms(50),
            events: vec![(ms(10), ScenarioEvent::Reshard { source: 0 })],
        };
        run_scenario(&mut deployment, &scenario);
    }

    /// The single-group path adds nothing: a one-group [`Deployment`] run
    /// through [`run_scenario`] ends bit for bit where a bare [`Cluster`]
    /// built from the same spec ends when driven by hand — the clock
    /// advanced to each event's instant, the event applied to the group,
    /// the clock advanced to the end. Events sit off every bucket edge and
    /// off the driver's poll grid, so a runner that sliced or pumped the
    /// one-group clock differently, or mounted extra clients, diverges. The
    /// deployment's load goes through its router, paced and closed loop,
    /// and the cluster's straight onto its clients: the router adds nothing
    /// either.
    #[test]
    fn one_group_deployment_reproduces_a_bare_cluster() {
        let events = [
            (
                SimDuration::from_micros(60_050),
                ScenarioEvent::CrashMember {
                    shard: 0,
                    member: 0,
                },
            ),
            (
                SimDuration::from_micros(140_030),
                ScenarioEvent::DegradeLinks {
                    shard: 0,
                    loss: 0.05,
                    extra_latency: SimDuration::from_micros(70),
                },
            ),
            (
                SimDuration::from_micros(260_010),
                ScenarioEvent::RestartMember {
                    shard: 0,
                    member: 0,
                    preserve_disk: false,
                },
            ),
            (
                SimDuration::from_micros(310_090),
                ScenarioEvent::HealGroup { shard: 0 },
            ),
        ];
        let scenario = Scenario {
            name: "one-group-equivalence",
            duration: ms(450),
            bucket: ms(30),
            events: events.to_vec(),
        };
        let cases = Engine::ALL.into_iter().flat_map(|engine| {
            [
                (engine, "paced", Some(ms(4))),
                (engine, "closed loop", None),
            ]
        });
        for (engine, mode, pace) in cases {
            let mut base = crate::testkit::recovery_spec(3, 17);
            base.cfg.engine = engine;
            base.cfg.view_change_timeout_ns = crate::testkit::TEST_VC_TIMEOUT_NS;

            let mut deployment = Deployment::build(DeploymentSpec {
                base: base.clone(),
                ..Default::default()
            });
            let mut by_hand = Cluster::build(base);
            match pace {
                Some(pace) => {
                    deployment.start_paced_workload(pace, |_, _| null_ops(64));
                    by_hand.start_paced_workload(pace, |_| null_ops(64));
                }
                None => {
                    deployment.start_workload(|_, _| null_ops(64));
                    by_hand.start_workload(|_| null_ops(64));
                }
            }
            let report = run_scenario(&mut deployment, &scenario);
            let via_runner = deployment.group_mut(0);

            let start = by_hand.sim.now();
            for (off, event) in &events {
                by_hand.sim.run_until(start + *off);
                match *event {
                    ScenarioEvent::CrashMember { member, .. } => by_hand.crash_replica(member),
                    ScenarioEvent::RestartMember {
                        member,
                        preserve_disk,
                        ..
                    } => by_hand.restart_replica(member, preserve_disk),
                    ScenarioEvent::DegradeLinks {
                        loss,
                        extra_latency,
                        ..
                    } => by_hand.degrade_links(loss, extra_latency),
                    ScenarioEvent::HealGroup { .. } => by_hand.restore_links(),
                    _ => unreachable!("not in this script"),
                }
            }
            by_hand.sim.run_until(start + scenario.duration);

            let name = format!("{} {mode}", engine.name());
            assert_eq!(report.timeline.start, start, "{name}");
            assert_eq!(via_runner.sim.now(), by_hand.sim.now(), "{name}");
            assert_eq!(via_runner.clients.len(), by_hand.clients.len(), "{name}");
            for c in 0..by_hand.clients.len() {
                assert_eq!(
                    via_runner.client_metrics(c).completed,
                    by_hand.client_metrics(c).completed,
                    "{name}: client {c}"
                );
            }
            assert!(by_hand.completed() > 0, "{name}: the script must commit");
            let all: Vec<usize> = (0..by_hand.replicas.len()).collect();
            for r in all.iter().copied() {
                let (a, b) = (
                    via_runner.replica(r).expect("alive"),
                    by_hand.replica(r).expect("alive"),
                );
                assert_eq!(a.last_executed(), b.last_executed(), "{name}: replica {r}");
                assert_eq!(a.exec_chain(), b.exec_chain(), "{name}: replica {r}");
                let digest = |r: &pbft_core::replica::Replica| {
                    r.state_handle().borrow_mut().refresh_digest()
                };
                assert_eq!(digest(a), digest(b), "{name}: replica {r} state");
            }
        }
    }

    #[test]
    fn paper_scenarios_are_well_formed() {
        for s in paper::all() {
            assert_eq!(s.duration.as_nanos() % s.bucket.as_nanos(), 0, "{}", s.name);
            assert!(!s.events.is_empty(), "{}", s.name);
            for (off, _) in &s.events {
                assert!(*off < s.duration, "{}: event outside the window", s.name);
            }
        }
    }
}

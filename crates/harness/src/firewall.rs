//! The privacy firewall of Yin et al., cited by the paper's §3.3.1
//! confidentiality discussion.
//!
//! "To ensure that a faulty execution node cannot disclose sensitive
//! information, an h + 1 rows by h + 1 columns privacy firewall set of
//! nodes is positioned between the agreement and execution cluster ...
//! This obviously increases both deployment complexity and request
//! execution latency."
//!
//! This module reproduces the *client-facing* half of that design on the
//! simulator: rows of firewall nodes interposed on the reply path. Each row
//! filters replies per `(client, timestamp)`: only the first f+1 replies
//! whose results agree are forwarded; duplicates and divergent minority
//! replies are suppressed, so nothing a single faulty replica says beyond
//! the agreed answer can leak past the first row. The `privacy` section of
//! `cargo bench -p bench --bench paper` measures what the rows cost in
//! latency and throughput — the paper's qualitative claim.

use std::collections::{HashMap, HashSet};

use pbft_core::messages::view::PacketView;
use pbft_core::{ClientId, Message};
use simnet::{Node, NodeCtx, NodeId, TimerId};

use crate::byzantine::FaultyReplicaHost;
use crate::cluster::{make_replica, ClientHost, Cluster, ClusterSpec};
use crate::cost::CostModel;

/// Reply-filtering state for one `(client, timestamp)`.
#[derive(Debug, Default)]
struct ReplySlot {
    /// `(replica, tentative)` versions already forwarded (dedupe).
    versions: HashSet<(u32, bool)>,
    /// Tentative replies forwarded (quota: 2f+1 — what the client's
    /// tentative-execution fast path needs).
    tentative_out: usize,
    /// Stable replies forwarded (quota: f+1).
    stable_out: usize,
}

/// One firewall row: forwards exactly the replies the client protocol
/// needs, suppresses the rest (duplicates and anything beyond the quota —
/// the surplus a compromised downstream observer could mine).
///
/// Yin et al. go further and collapse the quorum into a single
/// threshold-signed reply (see [`pbft_crypto::threshold`], which this
/// workspace also provides); the row-forwarding model here keeps the
/// client protocol unchanged while preserving the measurable property the
/// paper cites: added rows cost latency.
pub struct FirewallNode {
    /// f+1: stable-reply quota.
    weak_quorum: usize,
    /// 2f+1: tentative-reply quota.
    strong_quorum: usize,
    /// Next hop for filtered replies: the following row, or the map from
    /// client id to its real node for the last row.
    next: NextHop,
    model: CostModel,
    slots: HashMap<(ClientId, u64), ReplySlot>,
    /// Replies dropped (duplicates, beyond-quota, malformed).
    pub suppressed: u64,
    /// Replies forwarded.
    pub forwarded: u64,
}

/// Where a firewall row sends what it lets through.
pub enum NextHop {
    /// Another firewall row.
    Row(NodeId),
    /// The edge: deliver to the client's own node.
    Clients(HashMap<ClientId, NodeId>),
}

impl FirewallNode {
    /// A row with the given downstream hop.
    pub fn new(
        weak_quorum: usize,
        strong_quorum: usize,
        next: NextHop,
        model: CostModel,
    ) -> FirewallNode {
        FirewallNode {
            weak_quorum,
            strong_quorum,
            next,
            model,
            slots: HashMap::new(),
            suppressed: 0,
            forwarded: 0,
        }
    }

    fn destination(&self, client: ClientId) -> Option<NodeId> {
        match &self.next {
            NextHop::Row(id) => Some(*id),
            NextHop::Clients(map) => map.get(&client).copied(),
        }
    }
}

impl Node for FirewallNode {
    fn on_start(&mut self, _ctx: &mut NodeCtx<'_>) {}

    fn on_packet(&mut self, _src: NodeId, payload: &[u8], ctx: &mut NodeCtx<'_>) {
        ctx.charge(self.model.packet_cost(payload.len()));
        let Ok(view) = PacketView::parse(payload) else {
            self.suppressed += 1;
            return;
        };
        let Message::Reply(reply) = &view.msg else {
            // Only replies cross the firewall toward clients; anything else
            // on this path is suppressed (that is the privacy function).
            self.suppressed += 1;
            return;
        };
        let slot = self
            .slots
            .entry((reply.client, reply.timestamp))
            .or_default();
        if !slot.versions.insert((reply.replica.0, reply.tentative)) {
            self.suppressed += 1; // retransmission of an already-passed reply
            return;
        }
        // Phase quotas: the client needs 2f+1 matching tentative replies
        // (fast path) or f+1 stable ones; everything beyond is surplus an
        // eavesdropper downstream has no business seeing.
        let within_quota = if reply.tentative {
            slot.tentative_out += 1;
            slot.tentative_out <= self.strong_quorum
        } else {
            slot.stable_out += 1;
            slot.stable_out <= self.weak_quorum
        };
        if within_quota {
            self.forwarded += 1;
            if let Some(dst) = self.destination(reply.client) {
                ctx.charge(self.model.packet_cost(payload.len()));
                ctx.send(dst, payload.to_vec());
            }
        } else {
            self.suppressed += 1;
        }
    }

    fn on_timer(&mut self, _timer: TimerId, _ctx: &mut NodeCtx<'_>) {}
}

/// A firewalled deployment: the standard cluster plus `rows` firewall rows
/// interposed on the reply path.
pub struct FirewalledCluster {
    /// The underlying cluster (replicas, firewall rows, clients — in that
    /// node-id order).
    pub cluster: Cluster,
    /// Node ids of the firewall rows, outermost (replica-facing) first.
    pub rows: Vec<NodeId>,
}

/// Build a cluster whose replies traverse `rows` firewall rows. With
/// `rows == 0` this is exactly [`Cluster::build`] (the baseline the privacy
/// ablation compares against).
///
/// Replica-facing addressing: clients advertise the outermost firewall row
/// as their reply address, so replicas need no changes at all.
pub fn build_firewalled_cluster(spec: ClusterSpec, rows: usize) -> FirewalledCluster {
    assert!(
        !spec.cfg.dynamic_membership,
        "firewall demo uses static membership"
    );
    if rows == 0 {
        return FirewalledCluster {
            cluster: Cluster::build(spec),
            rows: Vec::new(),
        };
    }
    let n = spec.cfg.n();
    let weak = spec.cfg.weak_quorum();
    let strong = spec.cfg.quorum();
    let cost = spec.cost;
    let num_clients = spec.num_clients;

    // Node-id plan: replicas 0..n, rows n..n+rows, clients after.
    let first_row = n as u32;
    let client_base = first_row + rows as u32;
    let client_map: HashMap<ClientId, NodeId> = (0..num_clients)
        .map(|c| (ClientId(c as u64 + 1), NodeId(client_base + c as u32)))
        .collect();

    let cluster = Cluster::build_custom(spec, |sim, spec| {
        // Replicas.
        let mut replicas = Vec::with_capacity(n);
        for i in 0..n as u32 {
            let replica = make_replica(spec, i);
            let host = FaultyReplicaHost::honest(replica, cost);
            replicas.push(sim.add_node(Box::new(host)));
        }
        // Firewall rows, chained toward the clients.
        for row in 0..rows {
            let next = if row + 1 < rows {
                NextHop::Row(NodeId(first_row + row as u32 + 1))
            } else {
                NextHop::Clients(client_map.clone())
            };
            sim.add_node(Box::new(FirewallNode::new(weak, strong, next, cost)));
        }
        // Clients: their advertised reply address is the outermost row.
        let mut clients = Vec::with_capacity(num_clients);
        for c in 0..num_clients {
            let client = pbft_core::Client::new_static(
                spec.cfg.clone(),
                crate::cluster::GROUP_SEED,
                ClientId(c as u64 + 1),
                first_row,
            );
            clients.push(sim.add_node(Box::new(ClientHost::new(client, cost))));
        }
        (replicas, clients)
    });
    let rows = (first_row..client_base).map(NodeId).collect();
    FirewalledCluster { cluster, rows }
}

/// Firewall metrics for one row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RowStats {
    /// Replies forwarded downstream.
    pub forwarded: u64,
    /// Replies suppressed (duplicates, divergent, malformed, non-replies).
    pub suppressed: u64,
}

impl FirewalledCluster {
    /// Per-row forwarding statistics.
    pub fn row_stats(&self) -> Vec<RowStats> {
        self.rows
            .iter()
            .filter_map(|&id| self.cluster.sim.node_ref::<FirewallNode>(id))
            .map(|f| RowStats {
                forwarded: f.forwarded,
                suppressed: f.suppressed,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::AppKind;
    use crate::workload::null_ops;
    use simnet::SimDuration;

    fn spec(clients: usize) -> ClusterSpec {
        ClusterSpec {
            app: AppKind::Null { reply_size: 128 },
            num_clients: clients,
            seed: 77,
            ..Default::default()
        }
    }

    #[test]
    fn requests_complete_through_firewall_rows() {
        let mut fc = build_firewalled_cluster(spec(4), 2);
        fc.cluster.start_workload(|i| null_ops(64 + i));
        fc.cluster.run_for(SimDuration::from_secs(1));
        assert!(
            fc.cluster.completed() > 100,
            "got {}",
            fc.cluster.completed()
        );
        let stats = fc.row_stats();
        assert_eq!(stats.len(), 2);
        assert!(stats[0].forwarded > 0);
        // The outermost row suppresses the replies beyond f+1 = 2 of the 4.
        assert!(stats[0].suppressed > 0, "{stats:?}");
        // The inner row sees only what row 0 forwarded: nothing to suppress.
        assert!(stats[1].suppressed < stats[0].suppressed);
    }

    #[test]
    fn firewall_adds_latency() {
        let mut direct = build_firewalled_cluster(spec(4), 0);
        direct.cluster.start_workload(|i| null_ops(64 + i));
        direct.cluster.run_for(SimDuration::from_secs(1));
        let base = direct.cluster.mean_latency_ms();

        let mut walled = build_firewalled_cluster(spec(4), 3);
        walled.cluster.start_workload(|i| null_ops(64 + i));
        walled.cluster.run_for(SimDuration::from_secs(1));
        let with_rows = walled.cluster.mean_latency_ms();
        assert!(
            with_rows > base,
            "3 firewall rows must cost latency: {base:.3} ms vs {with_rows:.3} ms"
        );
    }
}

//! The paper's motivating application end-to-end: a distributed Internet
//! e-voting service with **dynamic client membership** (§3.1) and the **SQL
//! state abstraction** (§3.2).
//!
//! Voters join through the two-phase challenge–response sign-on (their
//! credentials checked against the replicated registry — the Figure 2 flow),
//! cast votes (each vote is the paper's §4.2 row: key, value, timestamp,
//! random), and tally the election.
//!
//! Run with: `cargo run --example evoting`

use evoting::VoteOp;
use harness::cluster::ClientHost;
use harness::workload::KeyedOp;
use harness::{AppKind, Cluster, ClusterSpec};
use minisql::JournalMode;
use pbft_core::PbftConfig;
use simnet::SimDuration;

fn main() {
    let voters: Vec<(String, String)> = (0..5)
        .map(|i| (format!("voter{i}"), format!("secret{i}")))
        .collect();
    let cfg = PbftConfig {
        dynamic_membership: true,
        ..Default::default()
    };
    let spec = ClusterSpec {
        cfg,
        app: AppKind::Evoting {
            journal: JournalMode::Rollback,
            voters: voters.clone(),
        },
        num_clients: 5,
        trace: true,
        ..Default::default()
    };
    // Cluster::build drives the §3.1 joins to completion: phase-one Join →
    // deterministic challenge → phase-two response → admission.
    let mut cluster = Cluster::build(spec);
    println!("--- Figure 2: dynamic client join ---");
    for (i, &id) in cluster.clients.clone().iter().enumerate() {
        let host = cluster.sim.node_ref::<ClientHost>(id).expect("client");
        println!(
            "  voter{i}: member = {} (assigned id {})",
            host.client.is_member(),
            host.client.id()
        );
        assert!(
            host.client.is_member(),
            "credentialed voters must be admitted"
        );
    }

    // One admin client creates the election, then everybody votes.
    cluster.start_workload(|i| {
        let mut step = 0u64;
        Box::new(move |_| {
            step += 1;
            let op = match (i, step) {
                (0, 1) => VoteOp::CreateElection {
                    title: "Board 2026".into(),
                },
                (n, _) if n % 2 == 0 => VoteOp::CastVote {
                    election: 1,
                    choice: "apricot".into(),
                },
                _ => VoteOp::CastVote {
                    election: 1,
                    choice: "quince".into(),
                },
            };
            KeyedOp {
                keys: vec![op.shard_key()],
                op: op.encode(),
                read_only: false,
            }
        })
    });
    cluster.run_for(SimDuration::from_millis(400));
    println!(
        "\nvotes processed: {} operations completed",
        cluster.completed()
    );

    // Tally through the read-only fast path.
    let tally_client = cluster.clients[0];
    cluster
        .sim
        .with_node_ctx::<ClientHost, _>(tally_client, |host, ctx| {
            host.client.is_member().then_some(()).expect("member");
            let res = host.client.submit(
                VoteOp::Tally { election: 1 }.encode(),
                true,
                ctx.now().as_nanos(),
            );
            for out in res.outputs {
                if let pbft_core::Output::Send {
                    to: pbft_core::NetTarget::Replica(r),
                    packet,
                    ..
                } = out
                {
                    ctx.send(simnet::NodeId(r.0), packet);
                }
            }
        });
    cluster.run_for(SimDuration::from_millis(200));
    let host = cluster
        .sim
        .node_ref::<ClientHost>(tally_client)
        .expect("client");
    for event in &host.events {
        if let pbft_core::ClientEvent::ReplyDelivered { result, .. } = event {
            if let Some(tally) = evoting::decode_tally(result) {
                println!("\n--- Tally (quorum-certified) ---");
                for (choice, count) in tally {
                    println!("  {choice:<10} {count}");
                }
            }
        }
    }
    cluster.quiesce(SimDuration::from_secs(1));
    assert!(cluster.states_converged(&[0, 1, 2, 3]));
    println!("\nall replica ballot boxes converged ✓");
}

//! Cross-shard bank transfers: atomic two-phase commit over sharded PBFT.
//!
//! The sharding layer (see `examples/sharded_kv.rs`) rejects any operation
//! touching rows owned by two groups. This demo shows the layer that fills
//! that gap: account rows are hash-partitioned over two PBFT groups, and a
//! transfer between rows on different groups runs as a deterministic 2PC —
//! prepare (lock + stage, ordered by each group's own agreement), a
//! replicated decision record on the coordinator group, then commit. The
//! invariant to watch is conservation: no mix of committed and aborted
//! transfers can change the global balance sum, but a *half-applied*
//! transfer would.
//!
//! Run with: `cargo run --example bank_transfer`

use harness::workload::transfer_txs;
use harness::{AppKind, ClusterSpec, Deployment, DeploymentSpec};
use minisql::JournalMode;
use pbft_sql::transfer::{accounts_setup, decode_sum, Transfer, SUM_BALANCES_SQL};
use simnet::SimDuration;

const ACCOUNTS: u64 = 24;
const INITIAL: i64 = 1_000;

fn main() {
    println!("--- 1. two PBFT groups, one 'accounts' table partitioned by row key ---");
    let spec = DeploymentSpec {
        shards: 2,
        base: ClusterSpec {
            app: AppKind::SqlWith {
                journal: JournalMode::Rollback,
                setup: accounts_setup(ACCOUNTS, INITIAL),
            },
            num_clients: 0,
            ..Default::default()
        },
        initiators: 3,
        ..Default::default()
    };
    let mut bank = Deployment::build(spec);
    let map = bank.router().map();
    let sample = Transfer {
        from: "acct-0".into(),
        to: "acct-1".into(),
        amount: 50,
    };
    for (key, sql) in sample.sub_ops() {
        println!(
            "  {} -> shard {}   [{}]",
            String::from_utf8_lossy(&key),
            map.shard_of(&key),
            sql
        );
    }
    println!(
        "  {ACCOUNTS} accounts x {INITIAL} opening balance; global sum must stay {}",
        2 * ACCOUNTS as i64 * INITIAL // every group holds a full schema copy
    );

    println!("\n--- 2. three closed-loop tellers moving money for one virtual second ---");
    bank.start_transactions(|i| transfer_txs(ACCOUNTS, 25, i as u64));
    let t = bank.measure(SimDuration::from_millis(200), SimDuration::from_secs(1));
    bank.quiesce(SimDuration::from_secs(1));
    let m = bank.tx_metrics();
    println!("  committed application ops/s: {:>8.0}", t.committed_tps);
    println!(
        "  transactions: {} committed cross-shard (2PC), {} committed same-shard (batch), \
         {} aborted ({:.1}% abort rate)",
        m.tx_committed,
        m.local_txs,
        m.tx_aborted,
        100.0 * m.tx_aborted as f64 / (m.tx_aborted + m.tx_committed + m.local_txs).max(1) as f64,
    );

    println!("\n--- 3. the audit: all-or-nothing, and not a cent minted or lost ---");
    bank.audit_atomicity(SimDuration::from_millis(500))
        .expect("every transaction applied everywhere or nowhere");
    println!("  per-transaction audit: every leg applied iff its transaction committed");
    let mut total = 0i64;
    for shard in 0..bank.shards() {
        let reply = bank
            .submit_and_wait(
                shard,
                0,
                SUM_BALANCES_SQL.as_bytes().to_vec(),
                true,
                None,
                SimDuration::from_millis(500),
            )
            .expect("sum query");
        let sum = decode_sum(&reply).expect("integer sum");
        println!("  shard {shard}: SUM(bal) = {sum}");
        total += sum;
    }
    assert_eq!(total, 2 * ACCOUNTS as i64 * INITIAL, "conservation");
    println!("  global sum: {total}  ✓ conserved");

    assert!(bank.states_converged());
    println!("\nall groups quiesced, internally convergent, and in balance.");
}

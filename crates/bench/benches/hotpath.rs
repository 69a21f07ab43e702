//! **Hot-path cost model** — per-committed-op counts of the real work the
//! agreement path performs: MAC operations, envelope encodings and
//! agreement messages. Both engines run the Table 1 batch configuration
//! (`sta_mac_allbig_batch`, 1 KiB null ops, 12 clients) across the **n axis** n ∈ {4, 7, 10} (f ∈ {1, 2, 3})
//! and, per n, both traffic shapes: the ordered **write** path and the
//! §2.1 optimistic **read** fast path. The measured ratios are checked
//! against the amortized cost model of the encode-once hot path (cf. the
//! BFT performance model of Loruenser et al., arXiv:2101.04489):
//!
//!   * **Encodings are O(1) per broadcast.** A broadcast encodes its body
//!     once and shares the buffer across destinations, so send-path
//!     encodings track *logical* sends (one reply per request plus a few
//!     per batch), not per-destination packet counts.
//!   * **Authenticators amortize over the batch.** One authenticator
//!     vector (≤ n−1 MACs) covers a whole batch pre-prepare, so per-op MAC
//!     work is a small constant (request verify + reply MAC) plus an
//!     O(n)/batch-width agreement share — not O(n) per request. This is
//!     the axis where the two engines diverge as n grows: the pbft
//!     engine's agreement share is O(n) per batch *per replica* (all-to-all
//!     prepares/commits), the linear engine's is O(1) (votes to the
//!     leader, QC broadcasts back).
//!   * **Reads skip agreement entirely.** A read costs each replica one
//!     request-authenticator verify, one local execution, and one reply —
//!     ~2 MACs and ~1 encoding per op *independent of n*, with zero
//!     agreement messages. 2f of the repliers send body-less vouches, so
//!     the reply-byte fan-in stays O(1) full bodies per read.
//!
//! The run lands in the committed `BENCH_hotpath.json`, which
//! `tests/artifacts.rs` parse-gates so later PRs cannot silently regress
//! the per-op cost trajectory along either axis.

use bench::artifact::{self, Json};
use bench::obj;
use harness::cluster::{AppKind, Cluster, ClusterSpec};
use harness::workload::{null_ops, null_reads};
use pbft_core::{AuthMode, Engine, PbftConfig};
use simnet::SimDuration;

const SIZE: usize = 1024;
/// The n axis: f ∈ {1, 2, 3} ⇔ n ∈ {4, 7, 10}.
const FS: [usize; 3] = [1, 2, 3];

/// Per-engine hot-path cost sample at one (n, path) point: totals over the
/// run, normalised per completed op *per replica* (so the numbers are
/// fan-out-comparable across n).
struct HotpathRow {
    engine: &'static str,
    n: usize,
    path: &'static str,
    tps: f64,
    ops: u64,
    avg_batch: f64,
    macs_per_op: f64,
    encodings_per_op: f64,
    agreement_msgs_per_op: f64,
}

fn run(engine: Engine, f: usize, read: bool) -> HotpathRow {
    let cfg = PbftConfig {
        engine,
        f,
        auth: AuthMode::Macs,
        all_requests_big: true,
        batching: true,
        ..Default::default()
    };
    let n = cfg.n();
    let spec = ClusterSpec {
        cfg,
        app: AppKind::Null { reply_size: SIZE },
        num_clients: 12,
        seed: 1000,
        ..Default::default()
    };
    let mut cluster = Cluster::build(spec);
    if read {
        cluster.start_workload(|_| null_reads(SIZE));
    } else {
        cluster.start_workload(|_| null_ops(SIZE));
    }
    let tps = cluster.measure_throughput(SimDuration::from_millis(500), SimDuration::from_secs(2));

    // Totals across all replicas over the whole run (warmup included; the
    // workload is uniform, so the per-op ratios are unaffected).
    let mut macs = 0u64;
    let mut encodings = 0u64;
    let mut agreement_msgs = 0u64;
    let mut ops = 0u64;
    let mut batches = 0u64;
    for i in 0..n {
        let c = cluster.replica_counts(i);
        let m = cluster.replica_metrics(i);
        macs += c.mac_gen + c.mac_verify;
        encodings += m.hot_encodings;
        agreement_msgs += m.agreement_msgs_sent;
        // Every replica executes every committed request — and serves every
        // optimistic read — exactly once, so the per-replica max is the op
        // count for either path.
        ops = ops.max(m.executed_requests + m.read_only_served);
        batches = batches.max(m.batches_executed);
    }
    let per_op = |total: u64| total as f64 / (n as f64 * ops as f64);
    HotpathRow {
        engine: engine.name(),
        n,
        path: if read { "read" } else { "write" },
        tps,
        ops,
        avg_batch: if read {
            0.0
        } else {
            ops as f64 / batches.max(1) as f64
        },
        macs_per_op: per_op(macs),
        encodings_per_op: per_op(encodings),
        agreement_msgs_per_op: per_op(agreement_msgs),
    }
}

fn check(r: &HotpathRow) {
    let n = r.n as f64;
    if r.path == "read" {
        // A read never enters agreement: no pre-prepare, no votes, no QCs.
        assert!(
            r.agreement_msgs_per_op < 0.1,
            "{} n={}: reads leaked into agreement ({:.2} msgs/op)",
            r.engine,
            r.n,
            r.agreement_msgs_per_op
        );
        // Per-replica read cost is n-independent: verify the request
        // authenticator entry, MAC one reply. The bound leaves headroom
        // for client-key redistribution and stray retransmits.
        assert!(
            r.macs_per_op <= 3.0,
            "{} n={}: read MACs/op {:.2} not O(1)",
            r.engine,
            r.n,
            r.macs_per_op
        );
        assert!(
            r.encodings_per_op <= 1.5,
            "{} n={}: read encodings/op {:.2} — a read is one reply",
            r.engine,
            r.n,
            r.encodings_per_op
        );
        return;
    }
    // Encode-once: encodings track *logical* sends — one reply per op
    // plus a batch-amortized agreement share of ≤3 broadcasts per batch
    // per replica (broadcasts encode once regardless of fan-out; the
    // linear engine's backup votes are unicast, so for them one encoding
    // genuinely is one message). A per-destination encoder re-encodes
    // each broadcast per peer, adding ≥(n−1)/batch per op — ~2.0 at pbft
    // n=4 and worse as n grows — so the batch-aware bound separates the
    // two regimes at every n even as batch width shrinks with fan-in.
    let encode_model = 1.0 + 3.0 / r.avg_batch;
    assert!(
        r.encodings_per_op <= encode_model,
        "{} n={}: encodings/op {:.2} not amortized over fan-out (bound {:.2}, agreement msgs/op {:.2})",
        r.engine,
        r.n,
        r.encodings_per_op,
        encode_model,
        r.agreement_msgs_per_op
    );
    // Amortized authenticators: fixed per-request MAC work (verify the
    // request authenticator, MAC the reply) plus O(n) per *batch*, not per
    // request — the batch share is ≈3.5n (prepare and commit vectors each
    // carry n−1 entries, generated once and verified per sender). The
    // bound fails if MAC count returns to O(n)/request, which would land
    // at ≈2n per op (~20 at n=10) regardless of batch width.
    let model = 3.0 + 3.5 * n / r.avg_batch;
    assert!(
        r.macs_per_op <= model,
        "{} n={}: MACs/op {:.2} exceeds amortized model bound {:.2} (batch {:.1})",
        r.engine,
        r.n,
        r.macs_per_op,
        model,
        r.avg_batch
    );
}

fn main() {
    let mut rows = Vec::new();
    for f in FS {
        for read in [false, true] {
            for engine in Engine::ALL {
                rows.push(run(engine, f, read));
            }
        }
    }
    println!("hot-path cost per completed op (per replica), batch config, 12 clients:");
    println!(
        "{:<8} {:>3} {:>6} {:>9} {:>7} {:>6} {:>9} {:>13} {:>9}",
        "engine", "n", "path", "TPS", "ops", "batch", "MACs/op", "encodings/op", "msgs/op"
    );
    for r in &rows {
        println!(
            "{:<8} {:>3} {:>6} {:>9.0} {:>7} {:>6.1} {:>9.2} {:>13.2} {:>9.2}",
            r.engine,
            r.n,
            r.path,
            r.tps,
            r.ops,
            r.avg_batch,
            r.macs_per_op,
            r.encodings_per_op,
            r.agreement_msgs_per_op
        );
        check(r);
    }
    println!("amortized cost model: OK (encode-once, batched authenticators, O(1) reads)");

    let rows: Vec<Json> = rows
        .iter()
        .map(|r| {
            obj! {
                "engine": r.engine, "n": r.n, "path": r.path, "tps": r.tps, "ops": r.ops as f64,
                "avg_batch": r.avg_batch, "macs_per_op": r.macs_per_op,
                "encodings_per_op": r.encodings_per_op,
                "agreement_msgs_per_op": r.agreement_msgs_per_op,
            }
        })
        .collect();
    let json =
        obj! {"bench": "hotpath", "request_size": SIZE, "num_clients": 12usize, "rows": rows};
    artifact::write("BENCH_hotpath.json", &json);
}

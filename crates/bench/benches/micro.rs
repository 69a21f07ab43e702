//! Micro-benchmarks of the substrates: real (wall-clock) costs of the
//! cryptographic primitives, the Merkle state subsystem and minisql — the
//! building blocks whose *virtual* costs the experiment harness models
//! (the wire codec is priced by wallbench's `codec.*` layer probes). Runs on the in-repo timing harness (`bench::Harness`);
//! filter with e.g. `cargo bench --bench micro -- crypto`.

use bench::{black_box, Harness};

fn crypto_benches(h: &mut Harness) {
    let mut g = h.group("crypto");
    let data = vec![0xabu8; 1024];
    g.bench("sha256_1kib", |b| {
        b.iter(|| pbft_crypto::sha256(black_box(&data)))
    });
    let key = pbft_crypto::auth::MacKey::new([7u8; 32]);
    g.bench("fastmac_1kib", |b| b.iter(|| key.mac(black_box(&data), 0)));
    let kp = pbft_crypto::KeyPair::generate(1);
    g.bench("rsa_sign", |b| b.iter(|| kp.sign(black_box(&data))));
    let sig = kp.sign(&data);
    g.bench("rsa_verify", |b| {
        b.iter(|| kp.public().verify(black_box(&data), &sig))
    });

    // The authenticator-vector trade at n = 4: the amortized seal digests
    // the (batch-sized) prefix once and MACs the fixed 32-byte digest per
    // peer, vs. the naive per-message scheme MACing the full prefix per
    // peer. Per-peer cost drops from a full-prefix MAC to a constant short
    // MAC — the prefix is walked once instead of n−1 times — so the seal
    // scales with n as `digest + n·O(1)` rather than `n·O(len)`; at n = 4
    // the two are close (the digest costs more per byte than the fast MAC)
    // and the vector pulls ahead as the group grows.
    use pbft_core::keys::KeyStore;
    use pbft_core::types::ReplicaId;
    use pbft_core::{AuthMode, OpCounts};
    let keys = KeyStore::new_replica(1, ReplicaId(0), 4, &[]);
    let peer_keys: Vec<_> = (1..4u32)
        .map(|i| pbft_core::keys::replica_pair_key(1, ReplicaId(0), ReplicaId(i)))
        .collect();
    g.bench("seal_multicast_n4_1kib", |b| {
        b.iter(|| {
            let mut counts = OpCounts::default();
            keys.seal_multicast(AuthMode::Macs, black_box(&data), &mut counts)
        })
    });
    g.bench("per_message_macs_n4_1kib", |b| {
        b.iter(|| {
            peer_keys
                .iter()
                .map(|k| k.mac(black_box(&data), 0))
                .collect::<Vec<_>>()
        })
    });
    let batch = vec![0xabu8; 8 * 1024];
    g.bench("seal_multicast_n4_8kib_batch", |b| {
        b.iter(|| {
            let mut counts = OpCounts::default();
            keys.seal_multicast(AuthMode::Macs, black_box(&batch), &mut counts)
        })
    });
    g.bench("per_message_macs_n4_8kib_batch", |b| {
        b.iter(|| {
            peer_keys
                .iter()
                .map(|k| k.mac(black_box(&batch), 0))
                .collect::<Vec<_>>()
        })
    });
}

fn state_benches(h: &mut Harness) {
    let mut g = h.group("state");
    g.bench("refresh_digest_16_dirty_pages", |b| {
        let mut st = pbft_state::PagedState::new(64);
        b.iter(|| {
            st.modify(0, 16 * pbft_state::PAGE_SIZE).expect("modify");
            st.write(0, black_box(&[1u8; 64])).expect("write");
            st.refresh_digest()
        })
    });
    g.bench("snapshot_64_pages", |b| {
        let mut st = pbft_state::PagedState::new(64);
        st.refresh_digest();
        b.iter(|| st.snapshot(black_box(1)))
    });
}

fn sql_benches(h: &mut Harness) {
    use minisql::{Database, DbOptions, JournalMode, MemVfs};
    let mut g = h.group("minisql");
    g.bench("insert_row_no_acid", |b| {
        let mut db = Database::open(
            Box::new(MemVfs::new()),
            Box::new(MemVfs::new()),
            DbOptions {
                journal_mode: JournalMode::Off,
                ..Default::default()
            },
        )
        .expect("open");
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, k TEXT, v TEXT)")
            .expect("create");
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            db.execute(&format!("INSERT INTO t (k, v) VALUES ('key{i}', 'val{i}')"))
                .expect("insert")
        })
    });
    g.bench("point_select", |b| {
        let mut db = Database::open(
            Box::new(MemVfs::new()),
            Box::new(MemVfs::new()),
            DbOptions {
                journal_mode: JournalMode::Off,
                ..Default::default()
            },
        )
        .expect("open");
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v TEXT)")
            .expect("create");
        for i in 0..1000 {
            db.execute(&format!("INSERT INTO t (id, v) VALUES ({i}, 'v{i}')"))
                .expect("insert");
        }
        b.iter(|| {
            db.query(black_box("SELECT v FROM t WHERE id = 500"))
                .expect("select")
        })
    });
}

/// The engine axis: wall-clock cost of simulating one virtual millisecond
/// of a loaded 4-replica group, per consensus engine — the whole-stack
/// overhead comparison (protocol work + message volume) at micro scale.
fn engine_benches(h: &mut Harness) {
    use harness::testkit::small_spec;
    use harness::workload::null_ops;
    use harness::Cluster;
    use pbft_core::{ConsensusEngine, LinearReplica, Replica};
    use simnet::SimDuration;

    fn bench_engine<E: ConsensusEngine>(g: &mut bench::Group<'_>, name: &str) {
        let mut cluster = Cluster::<E>::build_engine(small_spec(4, 11));
        cluster.start_workload(|_| null_ops(64));
        // Past startup transients, so the loop measures steady agreement.
        cluster.run_for(SimDuration::from_millis(50));
        g.bench(name, |b| {
            b.iter(|| {
                cluster.run_for(SimDuration::from_millis(1));
                cluster.completed()
            })
        });
    }

    let mut g = h.group("engine");
    bench_engine::<Replica>(&mut g, "sim_virtual_ms_pbft");
    bench_engine::<LinearReplica>(&mut g, "sim_virtual_ms_linear");
}

fn main() {
    let mut h = Harness::from_args();
    crypto_benches(&mut h);
    state_benches(&mut h);
    sql_benches(&mut h);
    engine_benches(&mut h);
    h.finish();
}

//! The one adapter file: every call this crate makes into another crate of
//! the workspace goes through here, so the public surface the benchmark
//! pins is exactly what this file names (listed in the crate README).
//!
//! Nothing here measures anything; it builds engines, clients and apps,
//! classifies wire messages for the driver's spans and counters, decodes
//! results for the correctness gate, and hosts the bodies of the layer
//! probes (the timing loop around them is [`crate::stats::best_ns`]).

use std::cell::RefCell;
use std::hint::black_box;
use std::rc::Rc;

use minisql::{Database, DbOptions, JournalMode, MemVfs, Value};
use pbft_core::app::{App, NonDet, NullApp, StateHandle};
use pbft_core::keys::KeyStore;
use pbft_core::messages::view::PacketView;
use pbft_core::messages::{AuthTag, Envelope, Message, Operation, PrepareMsg, RequestMsg, Sender};
use pbft_core::replica::LIB_REGION_PAGES;
use pbft_core::{AuthMode, ClientId, ReplicaId};
use pbft_crypto::auth::MacKey;
use pbft_sql::{decode_outcome, CostProfile, SqlApp, WireOutcome};
use pbft_state::{PagedState, PAGE_SIZE};
use simnet::{Node, NodeCtx, NodeId, SimConfig, Simulator, TimerId};

pub use pbft_core::replica::ReplicaMetrics;
pub use pbft_core::{
    Client, ClientEvent, ConsensusEngine, HandleResult, LinearReplica, NetTarget, OpCounts, Output,
    PacketBuf, PbftConfig, Replica, TimerKind,
};

use crate::stats::best_ns;

/// Key-material seed shared by every node of the measured group.
const GROUP_SEED: u64 = 0xC1A55;

/// Size of null operations and of their replies (the paper's Table 1 uses
/// equal request and reply sizes).
pub const NULL_OP_BYTES: usize = 1024;

/// The schema of the paper's §4.2 insert workload.
const SQL_SCHEMA: &str =
    "CREATE TABLE bench (id INTEGER PRIMARY KEY, k TEXT, v TEXT, ts INTEGER, rnd INTEGER)";

/// The ordered query the correctness gate ends a SQL repetition with.
pub const SQL_COUNT: &str = "SELECT COUNT(*) FROM bench";

/// Which application the replicas host.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AppKind {
    /// `NullApp` with 1 KiB replies (§4.1).
    Null,
    /// `SqlApp` over `StateVfs`, rollback journal (§4.2).
    Sql,
}

/// What a span or a per-kind counter is about: the wire message kinds a
/// node can be handed, plus the calls the driver makes on its own.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Kind {
    /// Client request (also a missing-body response).
    Request,
    /// Primary's pre-prepare.
    PrePrepare,
    /// PBFT all-to-all prepare.
    Prepare,
    /// PBFT all-to-all commit.
    Commit,
    /// Linear engine: a prepare/commit vote sent to the leader only.
    Vote,
    /// Linear engine: a leader-aggregated quorum certificate.
    Qc,
    /// Checkpoint attestation.
    Checkpoint,
    /// Status exchange, state-transfer fetches and their responses.
    Transfer,
    /// View-change vote or new-view installation.
    ViewChange,
    /// Client session-key distribution.
    NewKey,
    /// Reply to a client (handled by `Client::handle_packet`).
    Reply,
    /// A timer firing (`on_timer`).
    Timer,
    /// `Client::submit`.
    Submit,
    /// `on_start` of a replica or client.
    Boot,
    /// `Client::redistribute_session_keys` after a replica restart.
    Rekey,
}

impl Kind {
    /// Number of kinds (array sizes).
    pub const COUNT: usize = 15;

    /// Span name of this kind on a replica (`on_replica`) or a client.
    pub fn span_name(self, on_replica: bool) -> &'static str {
        match self {
            Kind::Request => "replica.request",
            Kind::PrePrepare => "replica.preprepare",
            Kind::Prepare => "replica.prepare",
            Kind::Commit => "replica.commit",
            Kind::Vote => "replica.vote",
            Kind::Qc => "replica.qc",
            Kind::Checkpoint => "replica.checkpoint",
            Kind::Transfer => "replica.transfer",
            Kind::ViewChange => "replica.viewchange",
            Kind::NewKey => "replica.newkey",
            Kind::Reply => "client.reply",
            Kind::Timer if on_replica => "replica.timer",
            Kind::Timer => "client.timer",
            Kind::Submit => "client.submit",
            Kind::Boot => "boot",
            Kind::Rekey => "client.rekey",
        }
    }
}

/// Classify an outgoing envelope. Under the linear engine prepares and
/// commits travel to the leader only and are reported as votes.
pub fn kind_of(env: &Envelope, linear: bool) -> Kind {
    match &env.msg {
        Message::Request(_) | Message::BodyResp(_) => Kind::Request,
        Message::PrePrepare(_) => Kind::PrePrepare,
        Message::Prepare(_) if linear => Kind::Vote,
        Message::Commit(_) if linear => Kind::Vote,
        Message::Prepare(_) => Kind::Prepare,
        Message::Commit(_) => Kind::Commit,
        Message::PrepareQC(_) | Message::CommitQC(_) => Kind::Qc,
        Message::Reply(_) => Kind::Reply,
        Message::Checkpoint(_) => Kind::Checkpoint,
        Message::ViewChange(_) | Message::NewView(_) => Kind::ViewChange,
        Message::NewKey(_) => Kind::NewKey,
        Message::Status(_) | Message::Fetch(_) | Message::FetchResp(_) | Message::BodyFetch(_) => {
            Kind::Transfer
        }
    }
}

/// Node index a send is addressed to: replicas are nodes `0..n`, client `c`
/// is node `n + c` and uses that index as its transport address.
pub fn target_node(to: NetTarget) -> usize {
    match to {
        NetTarget::Replica(r) => r.0 as usize,
        NetTarget::Client(addr) => addr as usize,
    }
}

/// The protocol configuration of every workload: `PbftConfig::default()`
/// (`sta_mac_allbig_batch`) at the given `f`.
pub fn config(f: usize) -> PbftConfig {
    PbftConfig {
        f,
        ..PbftConfig::default()
    }
}

fn client_id(c: usize) -> ClientId {
    ClientId(c as u64 + 1)
}

fn new_state(app: AppKind) -> StateHandle {
    let app_pages = match app {
        AppKind::Null => 12,
        AppKind::Sql => 1020, // ~4 MiB application partition
    };
    Rc::new(RefCell::new(PagedState::new(
        LIB_REGION_PAGES as usize + app_pages,
    )))
}

fn new_app(app: AppKind, state: StateHandle) -> Box<dyn App> {
    match app {
        AppKind::Null => Box::new(NullApp::new(NULL_OP_BYTES)),
        AppKind::Sql => Box::new(
            SqlApp::open(
                state,
                JournalMode::Rollback,
                CostProfile::default(),
                Some(SQL_SCHEMA),
            )
            .expect("the bench schema fits the state region"),
        ),
    }
}

/// Build replica `me` over a fresh state region. `blank` models a restart
/// that lost everything: no client session keys are preinstalled.
pub fn new_engine<E: ConsensusEngine>(
    cfg: &PbftConfig,
    me: usize,
    app: AppKind,
    clients: usize,
    blank: bool,
) -> E {
    let known: Vec<ClientId> = if blank {
        Vec::new()
    } else {
        (0..clients).map(client_id).collect()
    };
    let state = new_state(app);
    let app = new_app(app, state.clone());
    E::build(
        cfg.clone(),
        GROUP_SEED,
        ReplicaId(me as u32),
        state,
        app,
        &known,
    )
}

/// Build static client `c` of a group of `cfg.n()` replicas.
pub fn new_client(cfg: &PbftConfig, c: usize) -> Client {
    let addr = (cfg.n() + c) as u32;
    Client::new_static(cfg.clone(), GROUP_SEED, client_id(c), addr)
}

/// Merkle root of a replica's state region (refreshes dirty pages; call
/// only after the clock has stopped).
pub fn state_root<E: ConsensusEngine>(engine: &E) -> [u8; 32] {
    *engine
        .state_handle()
        .borrow_mut()
        .refresh_digest()
        .as_bytes()
}

/// The execution-chain digest as plain bytes.
pub fn exec_chain<E: ConsensusEngine>(engine: &E) -> [u8; 32] {
    *engine.exec_chain().as_bytes()
}

/// Did a SQL insert succeed (exactly one row affected)?
pub fn sql_insert_ok(result: &[u8]) -> bool {
    decode_outcome(result) == Some(WireOutcome::Affected(1))
}

/// Decode the reply to [`SQL_COUNT`].
pub fn sql_count(result: &[u8]) -> Option<i64> {
    match decode_outcome(result)? {
        WireOutcome::Rows(rows) => match rows.rows.first()?.first()? {
            Value::Integer(n) => Some(*n),
            _ => None,
        },
        _ => None,
    }
}

/// One probe result: metric name, unit, value.
pub type Probe = (&'static str, &'static str, f64);

/// One pass of the layer probes: tight loops over public functions of the
/// layers (callers keep each probe's best over several passes). `op` is the
/// workload's own first operation, so the request codec probes price what
/// this workload sends.
pub fn probes(op: &[u8]) -> Vec<Probe> {
    let mut out = Vec::new();
    crypto_probes(&mut out);
    codec_probes(op, &mut out);
    state_probes(&mut out);
    minisql_probes(&mut out);
    app_probes(&mut out);
    out.push(("simnet.event_ns", "ns", simnet_event_ns()));
    out
}

fn crypto_probes(out: &mut Vec<Probe>) {
    let kib = vec![0xabu8; 1024];
    out.push((
        "crypto.sha256_us_per_kib",
        "us",
        best_ns(200, || pbft_crypto::sha256(black_box(&kib))) / 1e3,
    ));
    let key = MacKey::new([7u8; 32]);
    out.push((
        "crypto.mac_us_per_kib",
        "us",
        best_ns(400, || key.mac(black_box(&kib), 0)) / 1e3,
    ));
    let short = [0x5au8; 32];
    out.push((
        "crypto.mac_32b_ns",
        "ns",
        best_ns(4000, || key.mac(black_box(&short), 0)),
    ));
    for (name, n) in [("crypto.seal_n4_us", 4), ("crypto.seal_n10_us", 10)] {
        let keys = KeyStore::new_replica(GROUP_SEED, ReplicaId(0), n, &[]);
        let ns = best_ns(200, || {
            keys.seal_multicast(AuthMode::Macs, black_box(&kib), &mut OpCounts::default())
        });
        out.push((name, "us", ns / 1e3));
    }
}

fn codec_probes(op: &[u8], out: &mut Vec<Probe>) {
    let sender = Sender::Client(ClientId(7));
    let msg = Message::Request(RequestMsg {
        client: ClientId(7),
        timestamp: 42,
        read_only: false,
        reply_addr: 9,
        op: Operation::App(op.to_vec()),
    });
    out.push((
        "codec.encode_request_ns",
        "ns",
        best_ns(2000, || {
            Envelope::seal(
                Envelope::encode_prefix(sender, black_box(&msg)),
                &AuthTag::None,
            )
        }),
    ));
    let packet = Envelope::seal(Envelope::encode_prefix(sender, &msg), &AuthTag::None);
    out.push((
        "codec.parse_request_ns",
        "ns",
        best_ns(4000, || {
            PacketView::parse(black_box(&packet)).expect("well-formed request")
        }),
    ));
    let keys = KeyStore::new_replica(GROUP_SEED, ReplicaId(1), 4, &[]);
    let vote = Message::Prepare(PrepareMsg {
        view: 0,
        seq: 9,
        digest: pbft_crypto::sha256(b"batch"),
        replica: ReplicaId(1),
    });
    let prefix = Envelope::encode_prefix(Sender::Replica(ReplicaId(1)), &vote);
    let auth = keys.seal_multicast(AuthMode::Macs, &prefix, &mut OpCounts::default());
    let packet = Envelope::seal(prefix, &auth);
    out.push((
        "codec.parse_vote_ns",
        "ns",
        best_ns(4000, || {
            PacketView::parse(black_box(&packet)).expect("well-formed vote")
        }),
    ));
}

fn state_probes(out: &mut Vec<Probe>) {
    const DIRTY: usize = 16;
    let mut st = PagedState::new(64);
    let ns = best_ns(20, || {
        st.modify(0, DIRTY * PAGE_SIZE).expect("in range");
        st.write(0, black_box(&[1u8; 64])).expect("in range");
        st.refresh_digest()
    });
    out.push(("state.page_digest_us", "us", ns / 1e3 / DIRTY as f64));
    // A region the size of the SQL workloads' (the snapshot clones the page
    // table and the Merkle tree, so its cost scales with the page count).
    let st = new_state(AppKind::Sql);
    st.borrow_mut().refresh_digest();
    let ns = best_ns(100, || st.borrow().snapshot(black_box(1)));
    out.push(("state.snapshot_us", "us", ns / 1e3));
}

fn mem_db() -> Database {
    let mut db = Database::open(
        Box::new(MemVfs::new()),
        Box::new(MemVfs::new()),
        DbOptions {
            journal_mode: JournalMode::Rollback,
            ..Default::default()
        },
    )
    .expect("in-memory database opens");
    db.execute(SQL_SCHEMA).expect("schema");
    // Enough rows for the point select to find one.
    for i in 0..600 {
        db.execute(&format!(
            "INSERT INTO bench (k, v, ts, rnd) VALUES ('k{i}', 'v{i}', {i}, 7)"
        ))
        .expect("insert");
    }
    db
}

fn minisql_probes(out: &mut Vec<Probe>) {
    let mut db = mem_db();
    let mut i = 0u64;
    let ns = best_ns(100, || {
        i += 1;
        db.execute(&format!(
            "INSERT INTO bench (k, v, ts, rnd) VALUES ('voter-{i}', 'vote-{i}', {i}, 7)"
        ))
        .expect("insert")
    });
    out.push(("minisql.insert_us", "us", ns / 1e3));
    let ns = best_ns(200, || {
        db.query(black_box("SELECT v FROM bench WHERE id = 500"))
            .expect("select")
    });
    out.push(("minisql.select_us", "us", ns / 1e3));
}

/// One application executed directly, with no replication: the single-node
/// baseline `replication_factor` divides by.
fn app_probes(out: &mut Vec<Probe>) {
    let nondet = NonDet {
        timestamp_ns: 1,
        random: 2,
    };
    let op = vec![0u8; NULL_OP_BYTES];
    let mut app = new_app(AppKind::Null, new_state(AppKind::Null));
    let ns = best_ns(4000, || {
        app.execute(ClientId(1), black_box(&op), &nondet, false)
    });
    out.push(("app.null_exec_ns", "ns", ns));
    let mut app = new_app(AppKind::Sql, new_state(AppKind::Sql));
    let mut i = 0u64;
    let ns = best_ns(100, || {
        i += 1;
        let op = sql_insert_op(0, 0, i);
        let (reply, _) = app.execute(ClientId(1), &op, &nondet, false);
        assert!(sql_insert_ok(&reply), "probe insert failed");
        reply
    });
    out.push(("app.sql_exec_us", "us", ns / 1e3));
}

/// The §4.2 operation: one row with a key, a value, a timestamp and a
/// random number (the last two are the primary's agreed non-determinism).
pub fn sql_insert_op(seed: u64, client: usize, seq: u64) -> Vec<u8> {
    let v = crate::stats::mix(seed, client as u64, seq);
    format!(
        "INSERT INTO bench (k, v, ts, rnd) VALUES ('voter-{seed:x}-{client}-{seq}', 'vote-{v:x}', now(), random())"
    )
    .into_bytes()
}

/// A two-node ping-pong on `simnet::Simulator`: wall nanoseconds per
/// simulator event (the only use of `simnet` in this crate).
fn simnet_event_ns() -> f64 {
    struct Pong {
        peer: NodeId,
        serve: bool,
    }
    impl Node for Pong {
        fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
            if self.serve {
                ctx.send(self.peer, vec![0u8; 64]);
            }
        }
        fn on_packet(&mut self, src: NodeId, payload: &[u8], ctx: &mut NodeCtx<'_>) {
            ctx.send(src, payload.to_vec());
        }
        fn on_timer(&mut self, _: TimerId, _: &mut NodeCtx<'_>) {}
    }
    const EVENTS: usize = 2000;
    let mut sim = Simulator::new(SimConfig::default());
    let a = sim.add_node(Box::new(Pong {
        peer: NodeId(1),
        serve: true,
    }));
    sim.add_node(Box::new(Pong {
        peer: a,
        serve: false,
    }));
    best_ns(1, || {
        for _ in 0..EVENTS {
            sim.step();
        }
        sim.now()
    }) / EVENTS as f64
}

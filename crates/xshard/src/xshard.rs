//! Cross-shard atomic commit: deterministic two-phase commit over PBFT
//! groups.
//!
//! The sharded deployment of [`crate::routing`] rejects any operation whose
//! keys span groups ([`crate::routing::RouteError::CrossShard`]) — each PBFT
//! group totally orders only its own partition. This module supplies the
//! missing coordination layer: a presumed-abort two-phase commit in which
//! **every protocol step is itself an ordered operation of a PBFT group**,
//! so both the participant lock/stage tables and the coordinator's decision
//! record are replicated and f-tolerant. No new message paths are added to
//! the replicas; 2PC rides entirely inside `Operation::App` request bodies.
//!
//! Roles and flow (the coordinator group is the shard owning the
//! transaction's *first* key):
//!
//! ```text
//! client/initiator      coordinator group         participant groups
//!       │  Prepare{txid, sub-ops} ──────────────────────►│ (ordered op:
//!       │◄─────────────── PrepareOk / PrepareFail ───────│  lock + stage)
//!       │  Decide{txid, commit?} ──►│ (ordered op:        │
//!       │◄──── DecisionLogged ──────│  log the verdict)   │
//!       │  Commit{txid} / Abort{txid} ───────────────────►│ (ordered op:
//!       │◄─────────────── Committed / Aborted ────────────│  apply or drop)
//! ```
//!
//! * **Lock-and-log participants.** A `Prepare` locks the named keys and
//!   stages the sub-operations without touching application state; a
//!   conflicting lock makes the participant vote `PrepareFail` immediately
//!   (no waiting — the no-wait policy cannot deadlock). Only a later
//!   `Commit` executes the staged sub-ops against the application, in one
//!   ordered batch; `Abort` discards them. Committed state therefore never
//!   contains half of a transaction.
//! * **Replicated coordinator.** The initiator may only send
//!   `Commit`/`Abort` after the coordinator group has ordered and
//!   acknowledged a `Decide` record. A crashed initiator leaves at worst a
//!   logged decision (recoverable via [`XMsg::QueryDecision`]) or no
//!   decision at all — and no decision means no participant ever commits
//!   (presumed abort).
//! * **Timeout aborts.** A participant shard that cannot answer a `Prepare`
//!   (crashed, partitioned, or Byzantine beyond its group's `f`) makes the
//!   initiator decide *abort* after a timeout. The unreachable shard has
//!   staged nothing or will receive the `Abort` when it heals; it never
//!   half-applies.
//!
//! [`XShardApp`] is the app-side implementation: it wraps any [`App`] and
//! intercepts operations carrying the [`XSHARD_MAGIC`] frame; every other
//! operation passes through byte-identical, so single-shard traffic keeps
//! the exact fast path it had before this module existed (a pinned
//! regression test in the harness holds that equality).
//!
//! ## Durability: the tables live in the replicated state region
//!
//! Every table the wrapper keeps — the lock table, the staged sub-ops, the
//! applied/aborted sets, the coordinator decision log and the GC floors —
//! is mirrored write-through into a dedicated section of the replica's
//! [`pbft_state::PagedState`] region (see [`xshard_section`]): the
//! in-flight tables as a [`pbft_state::BlobCell`] image rewritten per
//! mutation, the per-transaction completion records as a fixed-slot
//! [`pbft_state::SlotRing`]. The section is therefore Merkle-covered,
//! carried by checkpoint snapshots and certificates, and installed page by
//! page during state transfer like any other state. Paths that *skip*
//! execution — a crash-restart over a preserved disk, or a
//! checkpoint-install state transfer that jumps a lagging replica over a
//! transaction's prepare — reconstruct the tables from the section
//! ([`App::on_state_installed`] reloads them) instead of diverging, which
//! is what makes replica repair mid-transaction safe.
//!
//! ## Bounded retention: the stability-watermark GC
//!
//! Completion records (applied / aborted / decision facts) are retained in
//! the ring's arrival order and bounded by its capacity; once full, every
//! new record evicts the oldest and advances a per-initiator **GC floor**
//! (the stability watermark, keyed by the [`TxId`] stripe — the initiator
//! index in the high bits). The floor is a watermark, not a tombstone:
//! eviction follows completion order, so a still-retained record may sit
//! below its stripe's floor, and every handler consults the tables
//! *first* — retained records keep answering exactly (e.g. the idempotent
//! `PrepareOk` for an applied transaction). Only a transaction whose
//! record was actually collected falls through to the watermark, which
//! answers deterministically without re-recording:
//! `Prepare`/`Commit`/`Abort` answer `Aborted` (presumed abort, and
//! nothing is staged or locked), an `AtomicBatch` answers `Committed`
//! without re-executing (an ordered batch always committed the first
//! time), and the queries answer "no record". Every replica of a group
//! evicts at the same ordered operation, so the floors — like the tables —
//! are bit-identical across the group.
//!
//! ```
//! use std::cell::RefCell;
//! use std::rc::Rc;
//!
//! use pbft_core::app::{App, NonDet, NullApp};
//! use pbft_core::replica::LIB_REGION_PAGES;
//! use pbft_xshard::xshard::{SubOp, XMsg, XReply, XShardApp};
//! use pbft_core::ClientId;
//!
//! let state = Rc::new(RefCell::new(pbft_state::PagedState::new(
//!     LIB_REGION_PAGES as usize + 1,
//! )));
//! let mut app = XShardApp::mount(Box::new(NullApp::new(8)), state);
//! let nd = NonDet::default();
//! let prepare = XMsg::Prepare {
//!     txid: 7,
//!     ops: vec![SubOp { keys: vec![b"acct-a".to_vec()], op: vec![1, 2, 3] }],
//! };
//! let (reply, _) = app.execute(ClientId(1), &prepare.encode(), &nd, false);
//! assert_eq!(XReply::decode(&reply), Some(XReply::PrepareOk { txid: 7 }));
//! // Nothing is applied until the commit arrives…
//! assert!(!app.is_applied(7));
//! let (reply, _) = app.execute(ClientId(1), &XMsg::Commit { txid: 7 }.encode(), &nd, false);
//! assert!(matches!(XReply::decode(&reply), Some(XReply::Committed { txid: 7, .. })));
//! assert!(app.is_applied(7));
//! ```

use std::collections::{BTreeMap, BTreeSet};

use pbft_state::{BlobCell, Section, SlotRing, PAGE_SIZE};

use crate::routing::{RouteError, ShardMap};
use pbft_core::app::{App, ExecMetrics, NonDet, StateHandle};
use pbft_core::session::SessionCtx;
use pbft_core::types::ClientId;
use pbft_core::wire::{Dec, Enc, WireError};

/// Globally unique transaction identifier (assigned by the initiator;
/// harness initiators stripe their index into the high bits).
pub type TxId = u64;

/// Frame prefix reserved for cross-shard protocol operations and replies.
///
/// Application operations beginning with these four bytes would be
/// intercepted by [`XShardApp`]; none of the repo's op encodings can emit
/// them (SQL is UTF-8 text, `VoteOp` tags are 1–6, keyed null ops start
/// with a small big-endian counter), and new app encodings must keep
/// avoiding them.
pub const XSHARD_MAGIC: [u8; 4] = [0xA7, b'X', b'S', 0x01];

/// One shard-local piece of a cross-shard transaction: the shard keys it
/// locks plus the application operation to execute at commit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SubOp {
    /// Shard keys the sub-operation touches (all must route to one group).
    pub keys: Vec<Vec<u8>>,
    /// The encoded application operation, executed only on `Commit`.
    pub op: Vec<u8>,
}

/// The per-shard slice of a routed transaction: which group, and the
/// sub-operations it will be asked to prepare.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct XShardLeg {
    /// The participant group.
    pub shard: u32,
    /// The sub-operations homed on that group, in submission order.
    pub ops: Vec<SubOp>,
}

/// A cross-shard transaction after routing: its id, its per-shard sub-op
/// legs, and the coordinator group (the shard owning the first key).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct XShardOp {
    /// Transaction id.
    pub txid: TxId,
    /// Per-shard legs, ordered by first appearance in the sub-op list.
    pub legs: Vec<XShardLeg>,
    /// The coordinator group: owner of the transaction's first key.
    pub coordinator: u32,
}

impl XShardOp {
    /// Route `sub_ops` through `map`, grouping them into per-shard legs.
    ///
    /// Each individual sub-op must be single-shard (its keys must agree);
    /// a sub-op whose own keys span groups is a routing error — split it
    /// into per-shard sub-ops instead.
    ///
    /// # Errors
    /// [`RouteError::NoKeys`] if the transaction (or any sub-op) names no
    /// key; [`RouteError::CrossShard`] if one sub-op's keys span groups.
    pub fn route(txid: TxId, sub_ops: Vec<SubOp>, map: &ShardMap) -> Result<XShardOp, RouteError> {
        if sub_ops.is_empty() {
            return Err(RouteError::NoKeys);
        }
        let mut legs: Vec<XShardLeg> = Vec::new();
        for sub in sub_ops {
            let shard = map.route(&sub.keys)?;
            match legs.iter_mut().find(|l| l.shard == shard) {
                Some(leg) => leg.ops.push(sub),
                None => legs.push(XShardLeg {
                    shard,
                    ops: vec![sub],
                }),
            }
        }
        let coordinator = legs[0].shard;
        Ok(XShardOp {
            txid,
            legs,
            coordinator,
        })
    }

    /// Does the whole transaction land on a single group? Single-leg
    /// transactions skip 2PC entirely (the harness submits them as one
    /// ordered operation).
    pub fn is_single_shard(&self) -> bool {
        self.legs.len() == 1
    }
}

/// A cross-shard protocol operation, carried as an ordered `Operation::App`
/// body framed with [`XSHARD_MAGIC`].
// `Reshard` carries a full `ShardMap` by value: the map is `Copy` by
// contract (shared through `Cell`s) and short-lived on the wire, so the
// variant-size skew is accepted rather than boxed away.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum XMsg {
    /// Phase one: lock the sub-ops' keys and stage them (vote request).
    Prepare {
        /// Transaction id.
        txid: TxId,
        /// The sub-operations homed on the receiving group.
        ops: Vec<SubOp>,
    },
    /// Coordinator-side decision record: ordered by the coordinator group
    /// before any `Commit`/`Abort` is sent (the replicated commit point).
    Decide {
        /// Transaction id.
        txid: TxId,
        /// The verdict being logged.
        commit: bool,
    },
    /// Phase two, commit path: execute the staged sub-ops.
    Commit {
        /// Transaction id.
        txid: TxId,
    },
    /// Phase two, abort path: discard the staged sub-ops.
    Abort {
        /// Transaction id.
        txid: TxId,
    },
    /// Read-only: what decision, if any, did this (coordinator) group log?
    QueryDecision {
        /// Transaction id.
        txid: TxId,
    },
    /// Read-only: did this group apply the transaction? (Atomicity audits.)
    QueryApplied {
        /// Transaction id.
        txid: TxId,
    },
    /// Single-group transaction: execute all sub-ops in one ordered batch
    /// (the collapsed 1-participant 2PC — no locks, no second phase).
    AtomicBatch {
        /// Transaction id.
        txid: TxId,
        /// The sub-operations, executed back-to-back.
        ops: Vec<SubOp>,
    },
    /// Reconfiguration: install a newer [`ShardMap`] epoch on this group
    /// (ordered like every other op, so all replicas flip together; older
    /// or equal epochs are idempotent no-ops). After installing, the group
    /// answers [`XReply::WrongEpoch`] for keys it no longer owns.
    Reshard {
        /// Transaction id (admin ops ride the same reply-matching rails).
        txid: TxId,
        /// The next-epoch map.
        map: ShardMap,
    },
    /// Key-range hand-off: write the exported byte chunks of a moved hash
    /// span into this (target) group's region. Ordered, idempotent by
    /// `txid` (a duplicate install acknowledges without rewriting).
    RangeInstall {
        /// Transaction id.
        txid: TxId,
        /// Raw region writes: `(offset, bytes)` pairs from the source
        /// group's verified range export.
        chunks: Vec<(u64, Vec<u8>)>,
    },
    /// Epoch-checked single-group operation: execute `op` on the inner
    /// application iff every named key is owned by this group under its
    /// installed map; otherwise answer [`XReply::WrongEpoch`]. The success
    /// reply is the inner application's, unframed — this is the framed
    /// variant of the pass-through fast path for elastic deployments.
    KeyedOp {
        /// Transaction id (echoed only in the `WrongEpoch` rejection).
        txid: TxId,
        /// The shard keys the operation claims to touch.
        keys: Vec<Vec<u8>>,
        /// The encoded inner application operation.
        op: Vec<u8>,
    },
}

const TAG_PREPARE: u8 = 1;
const TAG_DECIDE: u8 = 2;
const TAG_COMMIT: u8 = 3;
const TAG_ABORT: u8 = 4;
const TAG_QUERY_DECISION: u8 = 5;
const TAG_QUERY_APPLIED: u8 = 6;
const TAG_ATOMIC_BATCH: u8 = 7;
const TAG_RESHARD: u8 = 8;
const TAG_RANGE_INSTALL: u8 = 9;
const TAG_KEYED_OP: u8 = 10;

/// A list length as its `u16` wire count. The counts are a wire
/// invariant, not a silent cap: truncating would make a participant stage
/// (and later apply) a *subset* of the transaction — exactly the partial
/// application 2PC exists to prevent — so an oversized list fails loudly
/// at the encoder.
fn count_u16(len: usize, what: &str) -> u16 {
    u16::try_from(len).unwrap_or_else(|_| panic!("{what} exceeds {} entries", u16::MAX))
}

/// A sub-op list: a `u16` count, then per sub-op a `u16` key count, the
/// length-prefixed keys and the length-prefixed operation.
fn encode_sub_ops(e: &mut Enc, ops: &[SubOp]) {
    e.u16(count_u16(ops.len(), "transaction sub-op list"));
    for sub in ops {
        e.u16(count_u16(sub.keys.len(), "sub-op key list"));
        for k in &sub.keys {
            e.bytes(k);
        }
        e.bytes(&sub.op);
    }
}

fn decode_sub_ops(d: &mut Dec<'_>) -> Result<Vec<SubOp>, WireError> {
    // The smallest sub-op is an empty key list and an empty operation.
    let n = d.count_u16(2 + 4)?;
    let mut ops = Vec::with_capacity(n);
    for _ in 0..n {
        ops.push(SubOp {
            keys: decode_byte_strings(d)?,
            op: d.bytes()?,
        });
    }
    Ok(ops)
}

/// A `u16`-counted list of length-prefixed byte strings.
fn encode_byte_strings(e: &mut Enc, list: &[Vec<u8>], what: &str) {
    e.u16(count_u16(list.len(), what));
    for b in list {
        e.bytes(b);
    }
}

fn decode_byte_strings(d: &mut Dec<'_>) -> Result<Vec<Vec<u8>>, WireError> {
    let n = d.count_u16(4)?;
    let mut list = Vec::with_capacity(n);
    for _ in 0..n {
        list.push(d.bytes()?);
    }
    Ok(list)
}

/// Range-install chunks: a `u16` count, then per chunk a region offset and
/// a length-prefixed run of bytes.
fn decode_chunks(d: &mut Dec<'_>) -> Result<Vec<(u64, Vec<u8>)>, WireError> {
    let n = d.count_u16(8 + 4)?;
    let mut chunks = Vec::with_capacity(n);
    for _ in 0..n {
        chunks.push((d.u64()?, d.bytes()?));
    }
    Ok(chunks)
}

/// Decode a [`XShardApp`] in-flight table image (the inverse of
/// `XShardApp::tables_image`).
#[allow(clippy::type_complexity)]
fn decode_tables_image(
    image: &[u8],
) -> Result<
    (
        BTreeMap<Vec<u8>, TxId>,
        BTreeMap<TxId, Vec<SubOp>>,
        BTreeMap<u64, TxId>,
        Option<(u32, ShardMap)>,
    ),
    WireError,
> {
    let mut d = Dec::new(image);
    let mut locks = BTreeMap::new();
    for _ in 0..d.u32()? {
        let key = d.bytes()?;
        let txid = d.u64()?;
        locks.insert(key, txid);
    }
    let mut staged = BTreeMap::new();
    for _ in 0..d.u32()? {
        let txid = d.u64()?;
        let ops = decode_sub_ops(&mut Dec::new(d.bytes_ref()?))?;
        staged.insert(txid, ops);
    }
    let mut floors = BTreeMap::new();
    for _ in 0..d.u32()? {
        let stripe = d.u64()?;
        let floor = d.u64()?;
        floors.insert(stripe, floor);
    }
    let identity = if d.boolean()? {
        let group = d.u32()?;
        let map = ShardMap::decode(&d.bytes()?)?;
        Some((group, map))
    } else {
        None
    };
    Ok((locks, staged, floors, identity))
}

impl XMsg {
    /// Is this operation safe for the PBFT read-only fast path?
    pub fn is_read_only(&self) -> bool {
        matches!(self, XMsg::QueryDecision { .. } | XMsg::QueryApplied { .. })
    }

    /// The transaction this message belongs to.
    pub fn txid(&self) -> TxId {
        match self {
            XMsg::Prepare { txid, .. }
            | XMsg::Decide { txid, .. }
            | XMsg::Commit { txid }
            | XMsg::Abort { txid }
            | XMsg::QueryDecision { txid }
            | XMsg::QueryApplied { txid }
            | XMsg::AtomicBatch { txid, .. }
            | XMsg::Reshard { txid, .. }
            | XMsg::RangeInstall { txid, .. }
            | XMsg::KeyedOp { txid, .. } => *txid,
        }
    }

    /// Encode as an `Operation::App` body ([`XSHARD_MAGIC`]-framed).
    ///
    /// # Panics
    /// Panics if a sub-op list or key list exceeds the `u16` wire counts —
    /// truncation would silently drop part of an atomic transaction.
    pub fn encode(&self) -> Vec<u8> {
        let (tag, txid) = match self {
            XMsg::Prepare { txid, .. } => (TAG_PREPARE, txid),
            XMsg::Decide { txid, .. } => (TAG_DECIDE, txid),
            XMsg::Commit { txid } => (TAG_COMMIT, txid),
            XMsg::Abort { txid } => (TAG_ABORT, txid),
            XMsg::QueryDecision { txid } => (TAG_QUERY_DECISION, txid),
            XMsg::QueryApplied { txid } => (TAG_QUERY_APPLIED, txid),
            XMsg::AtomicBatch { txid, .. } => (TAG_ATOMIC_BATCH, txid),
            XMsg::Reshard { txid, .. } => (TAG_RESHARD, txid),
            XMsg::RangeInstall { txid, .. } => (TAG_RANGE_INSTALL, txid),
            XMsg::KeyedOp { txid, .. } => (TAG_KEYED_OP, txid),
        };
        let mut e = Enc::new();
        e.raw(&XSHARD_MAGIC).u8(tag).u64(*txid);
        match self {
            XMsg::Prepare { ops, .. } | XMsg::AtomicBatch { ops, .. } => {
                encode_sub_ops(&mut e, ops)
            }
            XMsg::Decide { commit, .. } => {
                e.boolean(*commit);
            }
            XMsg::Reshard { map, .. } => {
                e.bytes(&map.encode());
            }
            XMsg::RangeInstall { chunks, .. } => {
                e.u16(count_u16(chunks.len(), "range install"));
                for (off, bytes) in chunks {
                    e.u64(*off).bytes(bytes);
                }
            }
            XMsg::KeyedOp { keys, op, .. } => {
                encode_byte_strings(&mut e, keys, "keyed op key list");
                e.bytes(op);
            }
            _ => {}
        }
        e.into_bytes()
    }

    /// Decode an operation body. `None` for anything that is not a
    /// well-formed xshard frame — plain application operations fall through
    /// untouched (the [`XShardApp`] pass-through path). Bytes after a
    /// complete frame are ignored.
    pub fn decode(body: &[u8]) -> Option<XMsg> {
        let mut d = Dec::new(body.strip_prefix(&XSHARD_MAGIC[..])?);
        let tag = d.u8().ok()?;
        let txid = d.u64().ok()?;
        let msg = match tag {
            TAG_PREPARE => XMsg::Prepare {
                txid,
                ops: decode_sub_ops(&mut d).ok()?,
            },
            TAG_DECIDE => XMsg::Decide {
                txid,
                commit: d.u8().ok()? != 0,
            },
            TAG_COMMIT => XMsg::Commit { txid },
            TAG_ABORT => XMsg::Abort { txid },
            TAG_QUERY_DECISION => XMsg::QueryDecision { txid },
            TAG_QUERY_APPLIED => XMsg::QueryApplied { txid },
            TAG_ATOMIC_BATCH => XMsg::AtomicBatch {
                txid,
                ops: decode_sub_ops(&mut d).ok()?,
            },
            TAG_RESHARD => XMsg::Reshard {
                txid,
                map: ShardMap::decode(d.bytes_ref().ok()?).ok()?,
            },
            TAG_RANGE_INSTALL => XMsg::RangeInstall {
                txid,
                chunks: decode_chunks(&mut d).ok()?,
            },
            TAG_KEYED_OP => XMsg::KeyedOp {
                txid,
                keys: decode_byte_strings(&mut d).ok()?,
                op: d.bytes().ok()?,
            },
            _ => return None,
        };
        Some(msg)
    }
}

/// A participant/coordinator reply, framed with [`XSHARD_MAGIC`] so the
/// initiator can tell protocol replies from plain application replies.
// `WrongEpoch` delivers the rejecting group's full (`Copy`) `ShardMap` —
// that carried map IS the client-recovery channel, so the variant-size
// skew is accepted rather than boxed away.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum XReply {
    /// Vote yes: keys locked, sub-ops staged ("PrepareOk").
    PrepareOk {
        /// Transaction id.
        txid: TxId,
    },
    /// Vote no: a named key is already locked by another transaction.
    PrepareFail {
        /// Transaction id.
        txid: TxId,
        /// The transaction currently holding the contested lock.
        holder: TxId,
    },
    /// Staged sub-ops executed; the inner application replies, in order.
    Committed {
        /// Transaction id.
        txid: TxId,
        /// One application reply per staged sub-op.
        replies: Vec<Vec<u8>>,
    },
    /// Staged sub-ops discarded (idempotent: also the reply for an abort of
    /// a transaction this group never prepared — presumed abort).
    Aborted {
        /// Transaction id.
        txid: TxId,
    },
    /// The coordinator group ordered the decision record.
    DecisionLogged {
        /// Transaction id.
        txid: TxId,
        /// The verdict actually on record (first writer wins).
        commit: bool,
    },
    /// Answer to [`XMsg::QueryDecision`].
    Decision {
        /// Transaction id.
        txid: TxId,
        /// `None` while no decision is on record.
        commit: Option<bool>,
    },
    /// Answer to [`XMsg::QueryApplied`].
    Applied {
        /// Transaction id.
        txid: TxId,
        /// Whether this group's committed state reflects the transaction.
        applied: bool,
    },
    /// The operation named a key this group does not own under its
    /// installed [`ShardMap`]: the sender routed with a stale epoch. The
    /// reply carries the group's (newer) map so the sender can re-route
    /// and retry without any out-of-band discovery.
    WrongEpoch {
        /// Transaction id.
        txid: TxId,
        /// The rejecting group's installed map.
        map: ShardMap,
    },
    /// Acknowledgement of an ordered [`XMsg::Reshard`]: the epoch actually
    /// installed (unchanged if the carried map was not newer).
    Resharded {
        /// Transaction id.
        txid: TxId,
        /// The group's map epoch after the operation.
        epoch: u64,
    },
}

const RTAG_PREPARE_OK: u8 = 1;
const RTAG_PREPARE_FAIL: u8 = 2;
const RTAG_COMMITTED: u8 = 3;
const RTAG_ABORTED: u8 = 4;
const RTAG_DECISION_LOGGED: u8 = 5;
const RTAG_DECISION: u8 = 6;
const RTAG_APPLIED: u8 = 7;
const RTAG_WRONG_EPOCH: u8 = 8;
const RTAG_RESHARDED: u8 = 9;

impl XReply {
    /// The transaction this reply belongs to.
    pub fn txid(&self) -> TxId {
        match self {
            XReply::PrepareOk { txid }
            | XReply::PrepareFail { txid, .. }
            | XReply::Committed { txid, .. }
            | XReply::Aborted { txid }
            | XReply::DecisionLogged { txid, .. }
            | XReply::Decision { txid, .. }
            | XReply::Applied { txid, .. }
            | XReply::WrongEpoch { txid, .. }
            | XReply::Resharded { txid, .. } => *txid,
        }
    }

    /// Encode as a reply body.
    ///
    /// # Panics
    /// Panics if a `Committed` reply carries more than `u16::MAX` sub-op
    /// replies (the wire count would truncate).
    pub fn encode(&self) -> Vec<u8> {
        let (tag, txid) = match self {
            XReply::PrepareOk { txid } => (RTAG_PREPARE_OK, txid),
            XReply::PrepareFail { txid, .. } => (RTAG_PREPARE_FAIL, txid),
            XReply::Committed { txid, .. } => (RTAG_COMMITTED, txid),
            XReply::Aborted { txid } => (RTAG_ABORTED, txid),
            XReply::DecisionLogged { txid, .. } => (RTAG_DECISION_LOGGED, txid),
            XReply::Decision { txid, .. } => (RTAG_DECISION, txid),
            XReply::Applied { txid, .. } => (RTAG_APPLIED, txid),
            XReply::WrongEpoch { txid, .. } => (RTAG_WRONG_EPOCH, txid),
            XReply::Resharded { txid, .. } => (RTAG_RESHARDED, txid),
        };
        let mut e = Enc::new();
        e.raw(&XSHARD_MAGIC).u8(tag).u64(*txid);
        match self {
            XReply::PrepareFail { holder, .. } => {
                e.u64(*holder);
            }
            XReply::Committed { replies, .. } => {
                encode_byte_strings(&mut e, replies, "committed reply list")
            }
            XReply::DecisionLogged { commit, .. } => {
                e.boolean(*commit);
            }
            XReply::Decision { commit, .. } => {
                e.u8(match commit {
                    None => 2,
                    Some(false) => 0,
                    Some(true) => 1,
                });
            }
            XReply::Applied { applied, .. } => {
                e.boolean(*applied);
            }
            XReply::WrongEpoch { map, .. } => {
                e.bytes(&map.encode());
            }
            XReply::Resharded { epoch, .. } => {
                e.u64(*epoch);
            }
            _ => {}
        }
        e.into_bytes()
    }

    /// Decode a reply body; `None` for plain application replies. Bytes
    /// after a complete frame are ignored.
    pub fn decode(body: &[u8]) -> Option<XReply> {
        let mut d = Dec::new(body.strip_prefix(&XSHARD_MAGIC[..])?);
        let tag = d.u8().ok()?;
        let txid = d.u64().ok()?;
        let reply = match tag {
            RTAG_PREPARE_OK => XReply::PrepareOk { txid },
            RTAG_PREPARE_FAIL => XReply::PrepareFail {
                txid,
                holder: d.u64().ok()?,
            },
            RTAG_COMMITTED => XReply::Committed {
                txid,
                replies: decode_byte_strings(&mut d).ok()?,
            },
            RTAG_ABORTED => XReply::Aborted { txid },
            RTAG_DECISION_LOGGED => XReply::DecisionLogged {
                txid,
                commit: d.u8().ok()? != 0,
            },
            RTAG_DECISION => XReply::Decision {
                txid,
                commit: match d.u8().ok()? {
                    0 => Some(false),
                    1 => Some(true),
                    _ => None,
                },
            },
            RTAG_APPLIED => XReply::Applied {
                txid,
                applied: d.u8().ok()? != 0,
            },
            RTAG_WRONG_EPOCH => XReply::WrongEpoch {
                txid,
                map: ShardMap::decode(d.bytes_ref().ok()?).ok()?,
            },
            RTAG_RESHARDED => XReply::Resharded {
                txid,
                epoch: d.u64().ok()?,
            },
            _ => return None,
        };
        Some(reply)
    }
}

/// Pure coordinator vote bookkeeping for one transaction: feed it the
/// participant set, record votes, read the verdict.
///
/// The *durable* coordinator state is the ordered [`XMsg::Decide`] record in
/// the coordinator group's log; this value is only the initiator-side tally
/// that determines what verdict to submit there.
///
/// ```
/// use pbft_xshard::xshard::TxCoordinator;
///
/// let mut c = TxCoordinator::new([0u32, 2u32]);
/// assert_eq!(c.record_vote(0, true), None); // still waiting on shard 2
/// assert_eq!(c.record_vote(2, true), Some(true));
/// assert_eq!(c.verdict(), Some(true));
///
/// let mut c = TxCoordinator::new([0u32, 2u32]);
/// // A single no-vote decides abort without waiting for the rest.
/// assert_eq!(c.record_vote(2, false), Some(false));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TxCoordinator {
    pending: BTreeSet<u32>,
    verdict: Option<bool>,
}

impl TxCoordinator {
    /// Start a tally over the participant shards.
    pub fn new(participants: impl IntoIterator<Item = u32>) -> TxCoordinator {
        TxCoordinator {
            pending: participants.into_iter().collect(),
            verdict: None,
        }
    }

    /// Shards whose votes are still outstanding.
    pub fn pending(&self) -> &BTreeSet<u32> {
        &self.pending
    }

    /// Record a vote. Returns the verdict the moment it is determined:
    /// `Some(false)` on the first no-vote, `Some(true)` when every
    /// participant voted yes. Later votes cannot change a verdict.
    pub fn record_vote(&mut self, shard: u32, prepared: bool) -> Option<bool> {
        self.pending.remove(&shard);
        if self.verdict.is_some() {
            return self.verdict;
        }
        if !prepared {
            self.verdict = Some(false);
        } else if self.pending.is_empty() {
            self.verdict = Some(true);
        }
        self.verdict
    }

    /// Force the abort verdict (prepare timeout). Idempotent; cannot
    /// override an already-determined commit.
    pub fn timeout(&mut self) -> bool {
        if self.verdict.is_none() {
            self.verdict = Some(false);
        }
        self.verdict == Some(false)
    }

    /// The verdict, if determined.
    pub fn verdict(&self) -> Option<bool> {
        self.verdict
    }
}

/// Pages of the xshard region section holding the completion-record ring
/// (the [`pbft_state::SlotRing`] of applied/aborted/decision facts).
pub const XSHARD_RING_PAGES: u64 = 32;

/// Pages of the xshard region section holding the in-flight table cell
/// (the [`pbft_state::BlobCell`] image of locks, staged sub-ops and GC
/// floors).
pub const XSHARD_CELL_PAGES: u64 = 24;

/// Total pages of the xshard section inside the library partition of the
/// replica state region (see [`pbft_core::replica::LIB_REGION_PAGES`]).
pub const XSHARD_PAGES: u64 = XSHARD_RING_PAGES + XSHARD_CELL_PAGES;

// The tables fill exactly the section the consensus crate reserves for an
// application wrapper; a resize on either side must move both.
const _: () = assert!(XSHARD_PAGES == pbft_core::replica::APP_WRAPPER_PAGES);

/// Bytes of one completion record slot: txid (8) + kind tag (1) + padding.
const XSHARD_SLOT_LEN: usize = 16;

/// Ceiling of the cell headroom a prepare must leave free (see
/// [`XShardApp`]): room for the floor entries (16 bytes per initiator
/// stripe) that the non-voting paths may mint on ring eviction after the
/// prepare was accepted. 4096 bytes covers 256 stripes — far beyond any
/// deployment's initiator count. Small custom cells reserve an eighth of
/// their capacity (at least four entries) instead.
const XSHARD_FLOOR_HEADROOM: usize = 4096;

/// Bit position of the initiator stripe inside a [`TxId`] (initiators put
/// their index in the high bits; see [`TxId`]). GC floors are kept per
/// stripe so eviction of one initiator's old transactions never shadows a
/// fresh transaction of another.
pub const TX_STRIPE_SHIFT: u32 = 40;

const XSHARD_RING_MAGIC: u64 = 0x5853_5249_4E47_0001; // "XSRING" + version
const XSHARD_CELL_MAGIC: u64 = 0x5853_4345_4C4C_0001; // "XSCELL" + version

/// Completion-record kind tags (ring slot byte 8).
const REC_APPLIED: u8 = 1;
const REC_ABORTED: u8 = 2;
const REC_DECIDED_COMMIT: u8 = 3;
const REC_DECIDED_ABORT: u8 = 4;

/// The xshard section of the standard replica region layout: immediately
/// after the membership and session pages, [`XSHARD_PAGES`] long. The ring
/// occupies the first [`XSHARD_RING_PAGES`], the cell the rest.
/// [`XShardApp::mount`] wires this geometry; deployments with a custom
/// region layout use [`XShardApp::with_sections`] instead.
pub fn xshard_section() -> Section {
    let page = PAGE_SIZE as u64;
    Section {
        base: (pbft_core::replica::MEMBERSHIP_PAGES + pbft_core::replica::SESSION_PAGES) * page,
        len: XSHARD_PAGES * page,
    }
}

/// The ring and cell sub-sections of the standard [`xshard_section`]
/// geometry.
fn standard_sections() -> (Section, Section) {
    let page = PAGE_SIZE as u64;
    let sec = xshard_section();
    (
        Section {
            base: sec.base,
            len: XSHARD_RING_PAGES * page,
        },
        Section {
            base: sec.base + XSHARD_RING_PAGES * page,
            len: XSHARD_CELL_PAGES * page,
        },
    )
}

/// Read the GC floors straight out of a replica's region (standard layout),
/// without an [`XShardApp`] instance. The harness atomicity audit uses this
/// to recognize transactions whose completion records the stability
/// watermark already collected — a quorum-certified `QueryApplied` for
/// those deterministically answers "not applied" whatever the original
/// outcome was, so they are no longer auditable at the application level.
/// An empty or never-written section yields no floors.
pub fn read_gc_floors(state: &pbft_state::PagedState) -> BTreeMap<u64, TxId> {
    let (_, cell) = standard_sections();
    let cell = BlobCell::new(cell, XSHARD_CELL_MAGIC);
    match cell.load(state) {
        Ok(Some(image)) => decode_tables_image(&image)
            .map(|(_, _, floors, _)| floors)
            .unwrap_or_default(),
        _ => BTreeMap::new(),
    }
}

/// The lock-and-log participant (and decision-log coordinator) application
/// wrapper.
///
/// Wraps any [`App`]; operations framed with [`XSHARD_MAGIC`] drive the
/// participant state machine, everything else passes through to the inner
/// application byte-identically. All bookkeeping transitions are pure
/// functions of the ordered operation history, so every replica of a group
/// holds identical tables and produces bit-identical replies.
///
/// The tables are mirrored write-through into the wrapper's region section
/// (module docs) and reloaded whenever the engine installs region content
/// from elsewhere — state transfer, tentative-execution rollback, or a
/// restart over a preserved disk ([`XShardApp::mount`] loads at
/// construction). In-memory they are only a cache of the section.
///
/// Memory and region use are bounded: staged payloads live only between
/// prepare and decision (an oversized in-flight table makes a prepare vote
/// no deterministically), and completion records are retained up to the
/// ring capacity ([`XShardApp::record_capacity`]) with the
/// stability-watermark GC answering for anything older.
pub struct XShardApp {
    inner: Box<dyn App>,
    /// The shared region handle (the same one the engine checkpoints).
    state: StateHandle,
    /// Durable completion records, oldest-first, bounded.
    ring: SlotRing,
    /// Durable image of the in-flight tables (locks + staged + floors).
    cell: BlobCell,
    /// Key → transaction currently holding its lock.
    locks: BTreeMap<Vec<u8>, TxId>,
    /// Staged (prepared, not yet decided) transactions.
    staged: BTreeMap<TxId, Vec<SubOp>>,
    /// Every transaction this group has applied (committed or batched).
    applied: BTreeSet<TxId>,
    /// Transactions this group has aborted.
    aborted: BTreeSet<TxId>,
    /// Coordinator decision records (first writer wins).
    decisions: BTreeMap<TxId, bool>,
    /// Per-stripe GC floors: highest evicted txid per initiator stripe.
    floors: BTreeMap<u64, TxId>,
    /// Elastic deployments: which group this replica belongs to, and the
    /// [`ShardMap`] epoch it currently enforces ownership under. `None`
    /// (static deployments) disables every ownership check.
    identity: Option<(u32, ShardMap)>,
    /// Plain operations passed through to the inner application.
    passthrough: u64,
}

impl std::fmt::Debug for XShardApp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("XShardApp")
            .field("staged", &self.staged.len())
            .field("locks", &self.locks.len())
            .field("applied", &self.applied.len())
            .field("floors", &self.floors.len())
            .field("passthrough", &self.passthrough)
            .finish()
    }
}

/// Bookkeeping CPU cost charged per xshard protocol op, in microseconds
/// (lock-table work; the real application cost is charged at commit).
const XSHARD_BOOKKEEPING_US: f64 = 2.0;

impl XShardApp {
    /// Wrap an application for cross-shard deployments over the standard
    /// region layout ([`xshard_section`]). Existing section content — a
    /// preserved disk across a restart — is loaded, not cleared: a replica
    /// that crashed mid-transaction comes back with its lock/stage/decision
    /// tables exactly as of its last executed operation.
    pub fn mount(inner: Box<dyn App>, state: StateHandle) -> XShardApp {
        let (ring, cell) = standard_sections();
        Self::with_sections(inner, state, ring, cell)
    }

    /// [`XShardApp::mount`] with explicit ring/cell sections — the hook for
    /// custom region layouts and for tests that want a tiny ring (fast GC
    /// eviction) or a tiny cell (staging-capacity refusal).
    ///
    /// # Panics
    /// Panics if the sections cannot hold their container headers, or the
    /// region holds a corrupt table image (a state bug, not a caller error).
    pub fn with_sections(
        inner: Box<dyn App>,
        state: StateHandle,
        ring: Section,
        cell: Section,
    ) -> XShardApp {
        let mut app = XShardApp {
            inner,
            state,
            ring: SlotRing::new(ring, XSHARD_SLOT_LEN, XSHARD_RING_MAGIC),
            cell: BlobCell::new(cell, XSHARD_CELL_MAGIC),
            locks: BTreeMap::new(),
            staged: BTreeMap::new(),
            applied: BTreeSet::new(),
            aborted: BTreeSet::new(),
            decisions: BTreeMap::new(),
            floors: BTreeMap::new(),
            identity: None,
            passthrough: 0,
        };
        app.reload_tables();
        app
    }

    /// Declare this replica's group and map for an elastic deployment and
    /// persist them with the tables (so identity survives crash-restart
    /// and rides checkpoints into state transfer). A map already on record
    /// with an equal or newer epoch wins — a restart over a preserved disk
    /// must not rewind a [`XMsg::Reshard`] the group already ordered.
    ///
    /// Every replica of a group must call this identically at boot;
    /// ownership checks are part of the replicated state machine.
    pub fn set_identity(&mut self, group: u32, map: ShardMap) {
        if let Some((_, cur)) = &self.identity {
            if cur.epoch() >= map.epoch() {
                return;
            }
        }
        self.identity = Some((group, map));
        self.persist_tables();
    }

    /// The installed identity, if this is an elastic deployment member.
    pub fn identity(&self) -> Option<(u32, ShardMap)> {
        self.identity
    }

    /// Ownership check: `Some(installed map)` if any of `keys` is *not*
    /// owned by this group under its installed map — the sender routed
    /// with a stale epoch. `None` when every key is owned, or when no
    /// identity is installed (static deployments check nothing).
    fn stale_route<'a>(&self, keys: impl IntoIterator<Item = &'a Vec<u8>>) -> Option<ShardMap> {
        let (group, map) = self.identity.as_ref()?;
        keys.into_iter()
            .any(|k| map.shard_of(k) != *group)
            .then_some(*map)
    }

    /// Has this group applied `txid` to its committed state?
    pub fn is_applied(&self, txid: TxId) -> bool {
        self.applied.contains(&txid)
    }

    /// Is `txid` currently staged (prepared, awaiting a decision)?
    pub fn is_staged(&self, txid: TxId) -> bool {
        self.staged.contains_key(&txid)
    }

    /// The decision this group logged for `txid`, if acting as coordinator.
    pub fn decision(&self, txid: TxId) -> Option<bool> {
        self.decisions.get(&txid).copied()
    }

    /// Keys currently locked by in-flight transactions.
    pub fn locked_keys(&self) -> usize {
        self.locks.len()
    }

    /// Plain (non-xshard) operations forwarded to the inner application.
    pub fn passthrough_ops(&self) -> u64 {
        self.passthrough
    }

    /// How many completion records the ring retains before the GC floor
    /// starts advancing.
    pub fn record_capacity(&self) -> u64 {
        self.ring.capacity()
    }

    /// The GC floor of an initiator stripe: the highest garbage-collected
    /// txid, or `None` while nothing of that stripe was ever evicted.
    pub fn gc_floor(&self, stripe: u64) -> Option<TxId> {
        self.floors.get(&stripe).copied()
    }

    /// Is `txid` at or below its stripe's GC floor (its completion record
    /// was evicted; the stability-watermark answers for it)?
    pub fn is_gc_evicted(&self, txid: TxId) -> bool {
        self.floors
            .get(&(txid >> TX_STRIPE_SHIFT))
            .is_some_and(|&floor| txid <= floor)
    }

    fn release_locks(&mut self, txid: TxId) {
        self.locks.retain(|_, holder| *holder != txid);
    }

    /// Append a completion record to the durable ring; a full ring evicts
    /// its oldest record, whose map entry is dropped and whose stripe floor
    /// advances (the stability watermark).
    fn push_record(&mut self, txid: TxId, kind: u8) {
        let mut rec = [0u8; XSHARD_SLOT_LEN];
        rec[..8].copy_from_slice(&txid.to_be_bytes());
        rec[8] = kind;
        let evicted = {
            let mut st = self.state.borrow_mut();
            self.ring
                .push(&mut st, &rec)
                .expect("xshard ring section in bounds")
        };
        if let Some(old) = evicted {
            let old_tx = TxId::from_be_bytes(old[..8].try_into().expect("8 bytes"));
            match old[8] {
                REC_APPLIED => {
                    self.applied.remove(&old_tx);
                }
                REC_ABORTED => {
                    self.aborted.remove(&old_tx);
                }
                REC_DECIDED_COMMIT | REC_DECIDED_ABORT => {
                    self.decisions.remove(&old_tx);
                }
                _ => {}
            }
            let floor = self.floors.entry(old_tx >> TX_STRIPE_SHIFT).or_insert(0);
            *floor = (*floor).max(old_tx);
        }
    }

    /// Serialize the in-flight tables (locks, staged sub-ops, GC floors)
    /// into the cell image.
    fn tables_image(&self) -> Vec<u8> {
        let mut e = Enc::new();
        e.u32(self.locks.len() as u32);
        for (key, txid) in &self.locks {
            e.bytes(key).u64(*txid);
        }
        e.u32(self.staged.len() as u32);
        for (txid, ops) in &self.staged {
            let mut sub_ops = Enc::new();
            encode_sub_ops(&mut sub_ops, ops);
            e.u64(*txid).bytes(sub_ops.as_slice());
        }
        e.u32(self.floors.len() as u32);
        for (stripe, floor) in &self.floors {
            e.u64(*stripe).u64(*floor);
        }
        match &self.identity {
            Some((group, map)) => {
                e.boolean(true).u32(*group).bytes(&map.encode());
            }
            None => {
                e.boolean(false);
            }
        }
        e.into_bytes()
    }

    /// Write the in-flight tables through to the region (every mutation of
    /// locks/staged/floors ends here, so the region is a function of the
    /// executed prefix at every operation boundary).
    fn persist_tables(&mut self) {
        let image = self.tables_image();
        self.store_tables(image);
    }

    /// Cell bytes a prepare must leave unused for later floor growth.
    fn floor_headroom(&self) -> usize {
        (self.cell.capacity() / 8).clamp(4 * XSHARD_SLOT_LEN, XSHARD_FLOOR_HEADROOM)
    }

    /// Store a prebuilt table image (the Prepare path builds it once for
    /// the capacity vote and reuses it here).
    fn store_tables(&mut self, image: Vec<u8>) {
        let mut st = self.state.borrow_mut();
        // Cannot fire under the documented sizing invariant: prepares
        // reserve [`XSHARD_FLOOR_HEADROOM`] below the cell capacity, and
        // the only growth past a prepare is one 16-byte floor entry per
        // *new* initiator stripe (paths that cannot vote no).
        self.cell
            .store(&mut st, &image)
            .expect("xshard cell sized for in-flight tables plus floor headroom");
    }

    /// Rebuild every table from the region section — construction over a
    /// preserved disk, state-transfer install, tentative rollback.
    fn reload_tables(&mut self) {
        self.locks.clear();
        self.staged.clear();
        self.applied.clear();
        self.aborted.clear();
        self.decisions.clear();
        self.floors.clear();
        self.identity = None;
        let st = self.state.borrow();
        if let Some(image) = self.cell.load(&st).expect("xshard cell readable") {
            let (locks, staged, floors, identity) =
                decode_tables_image(&image).expect("xshard table image decodes");
            self.locks = locks;
            self.staged = staged;
            self.floors = floors;
            self.identity = identity;
        }
        for rec in self.ring.records(&st).expect("xshard ring readable") {
            let txid = TxId::from_be_bytes(rec[..8].try_into().expect("8 bytes"));
            match rec[8] {
                REC_APPLIED => {
                    self.applied.insert(txid);
                }
                REC_ABORTED => {
                    self.aborted.insert(txid);
                }
                REC_DECIDED_COMMIT => {
                    self.decisions.insert(txid, true);
                }
                REC_DECIDED_ABORT => {
                    self.decisions.insert(txid, false);
                }
                _ => {}
            }
        }
    }

    fn bookkeeping_metrics() -> ExecMetrics {
        ExecMetrics {
            cpu_us: XSHARD_BOOKKEEPING_US,
            ..Default::default()
        }
    }

    fn apply_ops(
        &mut self,
        client: ClientId,
        ops: &[SubOp],
        nondet: &NonDet,
        session: Option<&mut SessionCtx<'_>>,
    ) -> (Vec<Vec<u8>>, ExecMetrics) {
        let mut metrics = Self::bookkeeping_metrics();
        let mut replies = Vec::with_capacity(ops.len());
        let mut session = session;
        for sub in ops {
            let (reply, m) = match session.as_deref_mut() {
                Some(ctx) => self
                    .inner
                    .execute_with_session(client, &sub.op, nondet, false, ctx),
                None => self.inner.execute(client, &sub.op, nondet, false),
            };
            metrics.add(&m);
            replies.push(reply);
        }
        (replies, metrics)
    }

    fn handle(
        &mut self,
        client: ClientId,
        msg: XMsg,
        nondet: &NonDet,
        read_only: bool,
        session: Option<&mut SessionCtx<'_>>,
    ) -> (Vec<u8>, ExecMetrics) {
        let bookkeeping = Self::bookkeeping_metrics();
        match msg {
            XMsg::Prepare { txid, ops } => {
                if read_only {
                    return (XReply::Aborted { txid }.encode(), bookkeeping);
                }
                // Idempotent re-prepare (rollback re-execution).
                if self.staged.contains_key(&txid) || self.applied.contains(&txid) {
                    return (XReply::PrepareOk { txid }.encode(), bookkeeping);
                }
                // A participant never votes yes for a transaction it already
                // aborted (a late retransmitted prepare after timeout-abort)
                // — nor for one old enough that its completion record was
                // garbage-collected (the stability watermark presumes abort,
                // and staging it would lock keys nobody will release).
                if self.aborted.contains(&txid) || self.is_gc_evicted(txid) {
                    return (XReply::Aborted { txid }.encode(), bookkeeping);
                }
                // A key this group no longer owns (post-split) is a
                // routing-epoch error, not a lock conflict: reject before
                // staging anything and carry the newer map so the sender
                // can re-route. Stale-epoch prepares whose keys are all
                // still owned here proceed normally.
                if let Some(map) = self.stale_route(ops.iter().flat_map(|s| &s.keys)) {
                    return (XReply::WrongEpoch { txid, map }.encode(), bookkeeping);
                }
                // No-wait locking: any conflict is an immediate no-vote, so
                // lock acquisition can never deadlock across shards.
                for sub in &ops {
                    for key in &sub.keys {
                        if let Some(&holder) = self.locks.get(key) {
                            if holder != txid {
                                return (
                                    XReply::PrepareFail { txid, holder }.encode(),
                                    bookkeeping,
                                );
                            }
                        }
                    }
                }
                for sub in &ops {
                    for key in &sub.keys {
                        self.locks.insert(key.clone(), txid);
                    }
                }
                self.staged.insert(txid, ops);
                // The in-flight tables must fit their region cell with
                // [`XSHARD_FLOOR_HEADROOM`] to spare; a transaction that
                // would overflow votes no — the same deterministic answer
                // on every replica of the group. The headroom is what the
                // non-voting paths (Decide, presumed-abort Commit, Abort)
                // may later consume when a ring eviction mints a floor
                // entry for a new stripe.
                let image = self.tables_image();
                if image.len() + self.floor_headroom() > self.cell.capacity() {
                    self.staged.remove(&txid);
                    self.release_locks(txid);
                    self.aborted.insert(txid);
                    self.push_record(txid, REC_ABORTED);
                    self.persist_tables();
                    return (XReply::Aborted { txid }.encode(), bookkeeping);
                }
                self.store_tables(image);
                (XReply::PrepareOk { txid }.encode(), bookkeeping)
            }
            XMsg::Commit { txid } => {
                if read_only {
                    return (XReply::Aborted { txid }.encode(), bookkeeping);
                }
                if let Some(ops) = self.staged.remove(&txid) {
                    let (replies, metrics) = self.apply_ops(client, &ops, nondet, session);
                    self.release_locks(txid);
                    self.applied.insert(txid);
                    self.push_record(txid, REC_APPLIED);
                    self.persist_tables();
                    return (XReply::Committed { txid, replies }.encode(), metrics);
                }
                // Duplicate ordered commit: the first one applied and
                // replied; acknowledge without re-executing. (Rollback
                // re-execution never lands here — restoring the region
                // restored the staged entry too.)
                if self.applied.contains(&txid) {
                    return (
                        XReply::Committed {
                            txid,
                            replies: Vec::new(),
                        }
                        .encode(),
                        bookkeeping,
                    );
                }
                // Garbage-collected: the watermark already presumes abort;
                // answer without writing a fresh record.
                if self.is_gc_evicted(txid) {
                    return (XReply::Aborted { txid }.encode(), bookkeeping);
                }
                // Commit for a transaction never prepared here — protocol
                // misuse; presumed abort keeps it safe, and recording the
                // abort stops a late reordered Prepare from staging and
                // locking keys nobody will release.
                self.aborted.insert(txid);
                self.push_record(txid, REC_ABORTED);
                self.persist_tables();
                (XReply::Aborted { txid }.encode(), bookkeeping)
            }
            XMsg::Abort { txid } => {
                if read_only {
                    return (XReply::Aborted { txid }.encode(), bookkeeping);
                }
                // An abort can never undo an applied commit; reply with the
                // truth so a confused initiator notices.
                if self.applied.contains(&txid) {
                    return (
                        XReply::Committed {
                            txid,
                            replies: Vec::new(),
                        }
                        .encode(),
                        bookkeeping,
                    );
                }
                let had_stage = self.staged.remove(&txid).is_some();
                self.release_locks(txid);
                if self.is_gc_evicted(txid) {
                    // Evicted long ago; the watermark already answers abort.
                    if had_stage {
                        self.persist_tables();
                    }
                    return (XReply::Aborted { txid }.encode(), bookkeeping);
                }
                let newly_aborted = self.aborted.insert(txid);
                if newly_aborted {
                    self.push_record(txid, REC_ABORTED);
                }
                if newly_aborted || had_stage {
                    self.persist_tables();
                }
                (XReply::Aborted { txid }.encode(), bookkeeping)
            }
            XMsg::Decide { txid, commit } => {
                if read_only {
                    return (
                        XReply::Decision { txid, commit: None }.encode(),
                        bookkeeping,
                    );
                }
                if let Some(&recorded) = self.decisions.get(&txid) {
                    return (
                        XReply::DecisionLogged {
                            txid,
                            commit: recorded,
                        }
                        .encode(),
                        bookkeeping,
                    );
                }
                // A decision old enough to be garbage-collected is presumed
                // abort; no fresh record is written for ancient txids.
                if self.is_gc_evicted(txid) {
                    return (
                        XReply::DecisionLogged {
                            txid,
                            commit: false,
                        }
                        .encode(),
                        bookkeeping,
                    );
                }
                self.decisions.insert(txid, commit);
                self.push_record(
                    txid,
                    if commit {
                        REC_DECIDED_COMMIT
                    } else {
                        REC_DECIDED_ABORT
                    },
                );
                self.persist_tables();
                (
                    XReply::DecisionLogged { txid, commit }.encode(),
                    bookkeeping,
                )
            }
            XMsg::QueryDecision { txid } => (
                XReply::Decision {
                    txid,
                    commit: self.decisions.get(&txid).copied(),
                }
                .encode(),
                bookkeeping,
            ),
            XMsg::QueryApplied { txid } => (
                XReply::Applied {
                    txid,
                    applied: self.applied.contains(&txid),
                }
                .encode(),
                bookkeeping,
            ),
            XMsg::AtomicBatch { txid, ops } => {
                if read_only {
                    return (XReply::Aborted { txid }.encode(), bookkeeping);
                }
                // Hardening against protocol misuse: a txid is routed
                // either as a batch or through 2PC, never both, but if a
                // confused initiator batches a txid it also prepared, the
                // stale stage entry and its locks must not dangle forever —
                // on the duplicate/garbage-collected paths below included.
                if self.staged.remove(&txid).is_some() {
                    self.release_locks(txid);
                    self.persist_tables();
                }
                // Duplicate ordered batch (or one old enough that its
                // applied record was garbage-collected): an ordered batch
                // always committed the first time, so acknowledge without
                // double-applying.
                if self.applied.contains(&txid) || self.is_gc_evicted(txid) {
                    return (
                        XReply::Committed {
                            txid,
                            replies: Vec::new(),
                        }
                        .encode(),
                        bookkeeping,
                    );
                }
                // Same ownership gate as Prepare: a batch naming a moved
                // key must not execute on its former owner.
                if let Some(map) = self.stale_route(ops.iter().flat_map(|s| &s.keys)) {
                    return (XReply::WrongEpoch { txid, map }.encode(), bookkeeping);
                }
                let (replies, metrics) = self.apply_ops(client, &ops, nondet, session);
                self.applied.insert(txid);
                self.push_record(txid, REC_APPLIED);
                self.persist_tables();
                (XReply::Committed { txid, replies }.encode(), metrics)
            }
            XMsg::Reshard { txid, map } => {
                let current = |app: &XShardApp| app.identity.map_or(0, |(_, m)| m.epoch());
                if read_only {
                    // Read-only execution must not mutate; answer the
                    // installed epoch so the sender retries ordered.
                    return (
                        XReply::Resharded {
                            txid,
                            epoch: current(self),
                        }
                        .encode(),
                        bookkeeping,
                    );
                }
                // Install iff strictly newer; older or duplicate Reshard
                // deliveries acknowledge the epoch already on record. A
                // group with no identity (static deployment) ignores the
                // op entirely rather than guessing its own index.
                if let Some((group, cur)) = self.identity {
                    if map.epoch() > cur.epoch() {
                        self.identity = Some((group, map));
                        self.persist_tables();
                    }
                }
                (
                    XReply::Resharded {
                        txid,
                        epoch: current(self),
                    }
                    .encode(),
                    bookkeeping,
                )
            }
            XMsg::RangeInstall { txid, chunks } => {
                if read_only {
                    return (XReply::Aborted { txid }.encode(), bookkeeping);
                }
                // Idempotent by txid, like a batch: a duplicate ordered
                // install acknowledges without rewriting the region.
                if self.applied.contains(&txid) || self.is_gc_evicted(txid) {
                    return (
                        XReply::Committed {
                            txid,
                            replies: Vec::new(),
                        }
                        .encode(),
                        bookkeeping,
                    );
                }
                {
                    let mut st = self.state.borrow_mut();
                    for (off, bytes) in &chunks {
                        st.modify(*off, bytes.len())
                            .expect("range-install chunk inside the region");
                        st.write(*off, bytes)
                            .expect("range-install chunk inside the region");
                    }
                }
                // The region changed underneath the inner application —
                // let it rebuild whatever it caches, exactly as after a
                // state-transfer install.
                self.inner.on_state_installed();
                self.applied.insert(txid);
                self.push_record(txid, REC_APPLIED);
                self.persist_tables();
                (
                    XReply::Committed {
                        txid,
                        replies: Vec::new(),
                    }
                    .encode(),
                    bookkeeping,
                )
            }
            XMsg::KeyedOp { txid, keys, op } => {
                // The elastic fast path: ownership-gate, then pass the
                // inner operation through untouched. Exactly-once comes
                // from the PBFT reply cache like any pass-through op; the
                // wrapper records nothing.
                if let Some(map) = self.stale_route(keys.iter()) {
                    return (XReply::WrongEpoch { txid, map }.encode(), bookkeeping);
                }
                let mut metrics = Self::bookkeeping_metrics();
                let (reply, m) = match session {
                    Some(ctx) => self
                        .inner
                        .execute_with_session(client, &op, nondet, read_only, ctx),
                    None => self.inner.execute(client, &op, nondet, read_only),
                };
                metrics.add(&m);
                (reply, metrics)
            }
        }
    }
}

impl App for XShardApp {
    fn execute(
        &mut self,
        client: ClientId,
        op: &[u8],
        nondet: &NonDet,
        read_only: bool,
    ) -> (Vec<u8>, ExecMetrics) {
        match XMsg::decode(op) {
            Some(msg) => self.handle(client, msg, nondet, read_only, None),
            None => {
                self.passthrough += 1;
                self.inner.execute(client, op, nondet, read_only)
            }
        }
    }

    fn execute_with_session(
        &mut self,
        client: ClientId,
        op: &[u8],
        nondet: &NonDet,
        read_only: bool,
        session: &mut SessionCtx<'_>,
    ) -> (Vec<u8>, ExecMetrics) {
        match XMsg::decode(op) {
            Some(msg) => self.handle(client, msg, nondet, read_only, Some(session)),
            None => {
                self.passthrough += 1;
                self.inner
                    .execute_with_session(client, op, nondet, read_only, session)
            }
        }
    }

    fn make_nondet(&mut self, now_ns: u64, random: u64) -> NonDet {
        self.inner.make_nondet(now_ns, random)
    }

    fn validate_nondet(&self, nondet: &NonDet, now_ns: u64, window_ns: u64) -> bool {
        self.inner.validate_nondet(nondet, now_ns, window_ns)
    }

    fn authorize_join(&mut self, idbuf: &[u8]) -> Option<Vec<u8>> {
        self.inner.authorize_join(idbuf)
    }

    fn on_state_installed(&mut self) {
        // The engine just rewrote the region (state transfer install or a
        // tentative-execution rollback); the in-memory tables are stale
        // caches of the xshard section — rebuild them from it. This is the
        // path that lets a lagging replica fast-forwarded *over* a
        // transaction's prepare answer the later commit correctly.
        self.reload_tables();
        self.inner.on_state_installed();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::routing::SplitPlan;
    use pbft_core::app::{KvApp, NullApp, StateHandle};
    use pbft_state::PagedState;
    use std::cell::RefCell;
    use std::rc::Rc;

    const PAGE: u64 = PAGE_SIZE as u64;

    fn test_state() -> StateHandle {
        Rc::new(RefCell::new(PagedState::new(8)))
    }

    /// Test geometry: ring in pages 0–3, cell in pages 4–5, app data from
    /// page 6 on.
    fn test_sections() -> (Section, Section) {
        (
            Section {
                base: 0,
                len: 4 * PAGE,
            },
            Section {
                base: 4 * PAGE,
                len: 2 * PAGE,
            },
        )
    }

    fn xapp_over(state: &StateHandle, inner: Box<dyn App>) -> XShardApp {
        let (ring, cell) = test_sections();
        XShardApp::with_sections(inner, state.clone(), ring, cell)
    }

    fn null_xapp() -> XShardApp {
        xapp_over(&test_state(), Box::new(NullApp::new(4)))
    }

    fn kv_xapp() -> (XShardApp, StateHandle) {
        let state = test_state();
        let app = xapp_over(&state, Box::new(KvApp::new(state.clone(), 6 * PAGE, 64)));
        (app, state)
    }

    /// Read the KV slot for `key` straight out of the region (bypassing the
    /// app), to prove prepares stage without touching application state.
    fn kv_slot_value(state: &StateHandle, key: u64) -> u64 {
        let off = 6 * PAGE + (key % 64) * 16;
        let rec = state.borrow().read_vec(off, 16).expect("slot in bounds");
        u64::from_be_bytes(rec[8..16].try_into().expect("8 bytes"))
    }

    fn nd() -> NonDet {
        NonDet::default()
    }

    fn sub(key: &[u8], op: Vec<u8>) -> SubOp {
        SubOp {
            keys: vec![key.to_vec()],
            op,
        }
    }

    /// One instance of every [`XMsg`] variant (both `Decide` verdicts).
    fn every_msg() -> Vec<XMsg> {
        vec![
            XMsg::Prepare {
                txid: 9,
                ops: vec![
                    SubOp {
                        keys: vec![b"a".to_vec(), b"b".to_vec()],
                        op: vec![1, 2],
                    },
                    SubOp {
                        keys: vec![],
                        op: vec![],
                    },
                ],
            },
            XMsg::Decide {
                txid: 1,
                commit: true,
            },
            XMsg::Decide {
                txid: 1,
                commit: false,
            },
            XMsg::Commit { txid: u64::MAX },
            XMsg::Abort { txid: 0 },
            XMsg::QueryDecision { txid: 3 },
            XMsg::QueryApplied { txid: 4 },
            XMsg::AtomicBatch {
                txid: 5,
                ops: vec![sub(b"k", vec![7; 9])],
            },
            XMsg::Reshard {
                txid: 6,
                map: ShardMap::ranged(2).split(0).new_map,
            },
            XMsg::RangeInstall {
                txid: 7,
                chunks: vec![(0, vec![1, 2, 3]), (4096, vec![])],
            },
            XMsg::KeyedOp {
                txid: 8,
                keys: vec![b"a".to_vec(), b"b".to_vec()],
                op: vec![9, 9],
            },
        ]
    }

    #[test]
    fn msgs_roundtrip() {
        for msg in every_msg() {
            assert_eq!(XMsg::decode(&msg.encode()), Some(msg));
        }
    }

    #[test]
    fn standard_section_fills_the_reserved_wrapper_pages() {
        let sec = xshard_section();
        assert_eq!(sec.base, 8 * PAGE);
        assert_eq!(sec.len, 56 * PAGE);
    }

    #[test]
    fn replies_roundtrip() {
        for reply in [
            XReply::PrepareOk { txid: 1 },
            XReply::PrepareFail { txid: 2, holder: 9 },
            XReply::Committed {
                txid: 3,
                replies: vec![b"ok".to_vec(), vec![]],
            },
            XReply::Aborted { txid: 4 },
            XReply::DecisionLogged {
                txid: 5,
                commit: true,
            },
            XReply::Decision {
                txid: 6,
                commit: None,
            },
            XReply::Decision {
                txid: 6,
                commit: Some(false),
            },
            XReply::Applied {
                txid: 7,
                applied: true,
            },
            XReply::WrongEpoch {
                txid: 8,
                map: ShardMap::ranged(4).split(2).new_map,
            },
            XReply::Resharded { txid: 9, epoch: 3 },
        ] {
            assert_eq!(XReply::decode(&reply.encode()), Some(reply));
        }
    }

    #[test]
    fn plain_ops_are_not_xshard_frames() {
        for body in [
            &b""[..],
            b"INSERT INTO bench VALUES ('x')",
            &[0u8; 32][..],
            &[1u8, 2, 3][..],
            &XSHARD_MAGIC[..3], // truncated magic
            &[0xA7, b'X', b'S', 0x01, 99, 0, 0, 0, 0, 0, 0, 0, 0][..], // bad tag
        ] {
            assert_eq!(XMsg::decode(body), None);
            assert_eq!(XReply::decode(body), None);
        }
    }

    #[test]
    fn routing_groups_sub_ops_into_legs() {
        let map = ShardMap::new(4);
        let (ka, kb) = two_keys_on_distinct_shards(&map);
        let op = XShardOp::route(
            7,
            vec![sub(&ka, vec![1]), sub(&kb, vec![2]), sub(&ka, vec![3])],
            &map,
        )
        .expect("routable");
        assert_eq!(op.txid, 7);
        assert_eq!(op.legs.len(), 2);
        assert_eq!(
            op.coordinator,
            map.shard_of(&ka),
            "coordinator owns the first key"
        );
        assert_eq!(op.legs[0].ops.len(), 2, "same-shard sub-ops share a leg");
        assert!(!op.is_single_shard());

        let single = XShardOp::route(8, vec![sub(&ka, vec![1])], &map).expect("routable");
        assert!(single.is_single_shard());
        assert_eq!(XShardOp::route(9, vec![], &map), Err(RouteError::NoKeys));
        let split = SubOp {
            keys: vec![ka, kb],
            op: vec![1],
        };
        assert!(matches!(
            XShardOp::route(10, vec![split], &map),
            Err(RouteError::CrossShard { .. })
        ));
    }

    fn two_keys_on_distinct_shards(map: &ShardMap) -> (Vec<u8>, Vec<u8>) {
        let a = b"first".to_vec();
        let b = crate::routing::test_key_on_other_shard(map, &a);
        (a, b)
    }

    #[test]
    fn coordinator_tally() {
        let mut c = TxCoordinator::new([0, 1, 2]);
        assert_eq!(c.verdict(), None);
        assert_eq!(c.record_vote(1, true), None);
        assert_eq!(c.pending().len(), 2);
        assert_eq!(c.record_vote(0, true), None);
        assert_eq!(c.record_vote(2, true), Some(true));
        // A late (duplicate) vote cannot flip the verdict.
        assert_eq!(c.record_vote(2, false), Some(true));
        assert!(!c.timeout(), "timeout cannot override commit");

        let mut c = TxCoordinator::new([0, 1]);
        assert_eq!(c.record_vote(0, false), Some(false));
        assert_eq!(c.record_vote(1, true), Some(false));

        let mut c = TxCoordinator::new([0, 1]);
        assert!(c.timeout());
        assert_eq!(
            c.record_vote(0, true),
            Some(false),
            "late yes after timeout stays abort"
        );
    }

    #[test]
    fn prepare_commit_applies_staged_ops() {
        let (mut app, state) = kv_xapp();
        let prepare = XMsg::Prepare {
            txid: 1,
            ops: vec![sub(b"k5", KvApp::op_put(5, 42))],
        };
        let (r, _) = app.execute(ClientId(1), &prepare.encode(), &nd(), false);
        assert_eq!(XReply::decode(&r), Some(XReply::PrepareOk { txid: 1 }));
        assert!(app.is_staged(1));
        assert_eq!(
            kv_slot_value(&state, 5),
            0,
            "prepare must not touch application state"
        );

        let (r, _) = app.execute(
            ClientId(1),
            &XMsg::Commit { txid: 1 }.encode(),
            &nd(),
            false,
        );
        match XReply::decode(&r) {
            Some(XReply::Committed { txid: 1, replies }) => {
                assert_eq!(replies, vec![b"ok".to_vec()]);
            }
            other => panic!("{other:?}"),
        }
        assert!(app.is_applied(1));
        assert!(!app.is_staged(1));
        assert_eq!(app.locked_keys(), 0, "commit releases locks");
        assert_eq!(kv_slot_value(&state, 5), 42, "commit applied the put");
    }

    #[test]
    fn abort_discards_staged_ops() {
        let (mut app, state) = kv_xapp();
        let prepare = XMsg::Prepare {
            txid: 2,
            ops: vec![sub(b"k1", KvApp::op_put(1, 7))],
        };
        let _ = app.execute(ClientId(1), &prepare.encode(), &nd(), false);
        let (r, _) = app.execute(ClientId(1), &XMsg::Abort { txid: 2 }.encode(), &nd(), false);
        assert_eq!(XReply::decode(&r), Some(XReply::Aborted { txid: 2 }));
        assert!(!app.is_applied(2));
        assert_eq!(app.locked_keys(), 0);
        assert_eq!(
            kv_slot_value(&state, 1),
            0,
            "nothing ever touched application state"
        );
        // A late prepare retransmission after the abort stays aborted.
        let (r, _) = app.execute(ClientId(1), &prepare.encode(), &nd(), false);
        assert_eq!(XReply::decode(&r), Some(XReply::Aborted { txid: 2 }));
    }

    #[test]
    fn conflicting_locks_vote_no() {
        let mut app = null_xapp();
        let p1 = XMsg::Prepare {
            txid: 1,
            ops: vec![sub(b"hot", vec![1])],
        };
        let p2 = XMsg::Prepare {
            txid: 2,
            ops: vec![sub(b"hot", vec![2])],
        };
        let _ = app.execute(ClientId(1), &p1.encode(), &nd(), false);
        let (r, _) = app.execute(ClientId(2), &p2.encode(), &nd(), false);
        assert_eq!(
            XReply::decode(&r),
            Some(XReply::PrepareFail { txid: 2, holder: 1 })
        );
        assert!(!app.is_staged(2), "a failed prepare stages nothing");
        // After tx 1 aborts, the key is free again.
        let _ = app.execute(ClientId(1), &XMsg::Abort { txid: 1 }.encode(), &nd(), false);
        let (r, _) = app.execute(
            ClientId(2),
            &XMsg::Prepare {
                txid: 3,
                ops: vec![sub(b"hot", vec![3])],
            }
            .encode(),
            &nd(),
            false,
        );
        assert_eq!(XReply::decode(&r), Some(XReply::PrepareOk { txid: 3 }));
    }

    #[test]
    fn commit_without_prepare_is_presumed_abort() {
        let mut app = null_xapp();
        let (r, _) = app.execute(
            ClientId(1),
            &XMsg::Commit { txid: 99 }.encode(),
            &nd(),
            false,
        );
        assert_eq!(XReply::decode(&r), Some(XReply::Aborted { txid: 99 }));
        assert!(!app.is_applied(99));
        // The presumed abort is *recorded*: a late reordered Prepare for the
        // same transaction must not stage and lock keys nobody will release.
        let late = XMsg::Prepare {
            txid: 99,
            ops: vec![sub(b"k", vec![1])],
        };
        let (r, _) = app.execute(ClientId(1), &late.encode(), &nd(), false);
        assert_eq!(XReply::decode(&r), Some(XReply::Aborted { txid: 99 }));
        assert!(!app.is_staged(99));
        assert_eq!(app.locked_keys(), 0);
    }

    #[test]
    fn decisions_are_first_writer_wins() {
        let mut app = null_xapp();
        let (r, _) = app.execute(
            ClientId(1),
            &XMsg::Decide {
                txid: 5,
                commit: true,
            }
            .encode(),
            &nd(),
            false,
        );
        assert_eq!(
            XReply::decode(&r),
            Some(XReply::DecisionLogged {
                txid: 5,
                commit: true
            })
        );
        // A conflicting second decide is ignored; the record stands.
        let (r, _) = app.execute(
            ClientId(1),
            &XMsg::Decide {
                txid: 5,
                commit: false,
            }
            .encode(),
            &nd(),
            false,
        );
        assert_eq!(
            XReply::decode(&r),
            Some(XReply::DecisionLogged {
                txid: 5,
                commit: true
            })
        );
        let (r, _) = app.execute(
            ClientId(1),
            &XMsg::QueryDecision { txid: 5 }.encode(),
            &nd(),
            true,
        );
        assert_eq!(
            XReply::decode(&r),
            Some(XReply::Decision {
                txid: 5,
                commit: Some(true)
            })
        );
        let (r, _) = app.execute(
            ClientId(1),
            &XMsg::QueryDecision { txid: 6 }.encode(),
            &nd(),
            true,
        );
        assert_eq!(
            XReply::decode(&r),
            Some(XReply::Decision {
                txid: 6,
                commit: None
            })
        );
    }

    #[test]
    fn query_applied_tracks_commits_and_batches() {
        let mut app = null_xapp();
        let q = |app: &mut XShardApp, txid| {
            let (r, _) = app.execute(
                ClientId(1),
                &XMsg::QueryApplied { txid }.encode(),
                &nd(),
                true,
            );
            match XReply::decode(&r) {
                Some(XReply::Applied { applied, .. }) => applied,
                other => panic!("{other:?}"),
            }
        };
        assert!(!q(&mut app, 1));
        let _ = app.execute(
            ClientId(1),
            &XMsg::Prepare {
                txid: 1,
                ops: vec![sub(b"a", vec![1])],
            }
            .encode(),
            &nd(),
            false,
        );
        assert!(!q(&mut app, 1), "staged is not applied");
        let _ = app.execute(
            ClientId(1),
            &XMsg::Commit { txid: 1 }.encode(),
            &nd(),
            false,
        );
        assert!(q(&mut app, 1));
        let batch = XMsg::AtomicBatch {
            txid: 2,
            ops: vec![sub(b"b", vec![2]), sub(b"c", vec![3])],
        };
        let (r, _) = app.execute(ClientId(1), &batch.encode(), &nd(), false);
        assert!(
            matches!(XReply::decode(&r), Some(XReply::Committed { txid: 2, ref replies }) if replies.len() == 2)
        );
        assert!(q(&mut app, 2));
    }

    #[test]
    fn tables_survive_a_remount_over_the_same_region() {
        // Crash-restart over a preserved disk: a fresh wrapper over the same
        // region reconstructs every table mid-transaction.
        let state = test_state();
        let mut app = xapp_over(&state, Box::new(NullApp::new(4)));
        let prepare = XMsg::Prepare {
            txid: 7,
            ops: vec![sub(b"held", vec![1])],
        };
        let _ = app.execute(ClientId(1), &prepare.encode(), &nd(), false);
        let _ = app.execute(
            ClientId(1),
            &XMsg::Decide {
                txid: 7,
                commit: true,
            }
            .encode(),
            &nd(),
            false,
        );
        let batch = XMsg::AtomicBatch {
            txid: 8,
            ops: vec![sub(b"b", vec![2])],
        };
        let _ = app.execute(ClientId(1), &batch.encode(), &nd(), false);
        let _ = app.execute(ClientId(1), &XMsg::Abort { txid: 9 }.encode(), &nd(), false);
        drop(app);

        let mut back = xapp_over(&state, Box::new(NullApp::new(4)));
        assert!(back.is_staged(7), "staged sub-ops reloaded");
        assert_eq!(back.locked_keys(), 1, "locks reloaded");
        assert_eq!(back.decision(7), Some(true), "decision log reloaded");
        assert!(back.is_applied(8), "applied set reloaded");
        // The reloaded stage is live: the commit applies it.
        let (r, _) = back.execute(
            ClientId(1),
            &XMsg::Commit { txid: 7 }.encode(),
            &nd(),
            false,
        );
        assert!(
            matches!(XReply::decode(&r), Some(XReply::Committed { txid: 7, ref replies }) if replies.len() == 1)
        );
        assert!(back.is_applied(7));
        // And the reloaded abort record still refuses a late prepare.
        let late = XMsg::Prepare {
            txid: 9,
            ops: vec![sub(b"z", vec![3])],
        };
        let (r, _) = back.execute(ClientId(1), &late.encode(), &nd(), false);
        assert_eq!(XReply::decode(&r), Some(XReply::Aborted { txid: 9 }));
    }

    #[test]
    fn tables_roll_back_with_the_region() {
        // Tentative-execution rollback: restoring a snapshot and firing
        // on_state_installed rewinds the tables to the snapshot point, so
        // re-execution of the suffix reproduces them exactly.
        let (mut app, state) = kv_xapp();
        let prepare = XMsg::Prepare {
            txid: 3,
            ops: vec![sub(b"k9", KvApp::op_put(9, 77))],
        };
        let _ = app.execute(ClientId(1), &prepare.encode(), &nd(), false);
        state.borrow_mut().refresh_digest();
        let snap = state.borrow().snapshot(1);

        let commit = XMsg::Commit { txid: 3 };
        let (r1, _) = app.execute(ClientId(1), &commit.encode(), &nd(), false);
        assert!(app.is_applied(3));
        let committed_root = state.borrow_mut().refresh_digest();

        state.borrow_mut().restore(&snap).expect("geometry matches");
        app.on_state_installed();
        assert!(app.is_staged(3), "rollback rewound to the staged state");
        assert!(!app.is_applied(3));
        assert_eq!(
            kv_slot_value(&state, 9),
            0,
            "application effect rolled back"
        );

        // Re-executing the suffix converges to the identical region.
        let (r2, _) = app.execute(ClientId(1), &commit.encode(), &nd(), false);
        assert_eq!(r1, r2, "re-execution is bit-identical");
        assert_eq!(state.borrow_mut().refresh_digest(), committed_root);
    }

    #[test]
    fn transfer_install_reconstructs_tables_over_a_jumped_prepare() {
        // The execution-skipping path: replica B never executes the Prepare;
        // it installs A's checkpoint pages (as state transfer would) and
        // must then answer the Commit by applying — not by presumed abort.
        let state_a = test_state();
        let mut a = xapp_over(
            &state_a,
            Box::new(KvApp::new(state_a.clone(), 6 * PAGE, 64)),
        );
        let prepare = XMsg::Prepare {
            txid: 11,
            ops: vec![sub(b"k2", KvApp::op_put(2, 5))],
        };
        let _ = a.execute(ClientId(1), &prepare.encode(), &nd(), false);
        state_a.borrow_mut().refresh_digest();
        let checkpoint = state_a.borrow().snapshot(64);

        let state_b = test_state();
        let mut b = xapp_over(
            &state_b,
            Box::new(KvApp::new(state_b.clone(), 6 * PAGE, 64)),
        );
        assert!(!b.is_staged(11), "B never executed the prepare");
        {
            let mut st = state_b.borrow_mut();
            st.refresh_digest();
            for page in 0..st.num_pages() as u64 {
                let data = checkpoint.share_page(page);
                let digest = checkpoint.tree().leaf(page as usize);
                st.install_page(page, data, digest).expect("same geometry");
            }
        }
        b.on_state_installed();
        assert!(b.is_staged(11), "the installed section carries the prepare");

        let (ra, _) = a.execute(
            ClientId(1),
            &XMsg::Commit { txid: 11 }.encode(),
            &nd(),
            false,
        );
        let (rb, _) = b.execute(
            ClientId(1),
            &XMsg::Commit { txid: 11 }.encode(),
            &nd(),
            false,
        );
        assert_eq!(ra, rb, "fast-forwarded replica commits like its peers");
        assert!(b.is_applied(11));
        assert_eq!(
            state_a.borrow_mut().refresh_digest(),
            state_b.borrow_mut().refresh_digest(),
            "regions stay digest-identical"
        );
    }

    #[test]
    fn gc_watermark_evicts_in_order_and_answers_late_messages() {
        // A deliberately tiny ring: header + 4 slots.
        let make = || {
            let state = test_state();
            let ring = Section {
                base: 0,
                len: (32 + 4 * XSHARD_SLOT_LEN) as u64,
            };
            let cell = Section {
                base: PAGE,
                len: PAGE,
            };
            let app =
                XShardApp::with_sections(Box::new(NullApp::new(4)), state.clone(), ring, cell);
            (app, state)
        };
        let (mut a, state_a) = make();
        let (mut b, state_b) = make();
        let stripe = 1u64 << TX_STRIPE_SHIFT;
        for app in [&mut a, &mut b] {
            assert_eq!(app.record_capacity(), 4);
            for k in 0..7u64 {
                let txid = stripe | k;
                let batch = XMsg::AtomicBatch {
                    txid,
                    ops: vec![sub(&k.to_be_bytes(), vec![1])],
                };
                let _ = app.execute(ClientId(1), &batch.encode(), &nd(), false);
            }
        }
        // 7 applied records through a 4-slot ring: txids 0..=2 evicted.
        assert_eq!(
            a.gc_floor(1),
            Some(stripe | 2),
            "floor tracks the newest eviction"
        );
        assert!(a.is_gc_evicted(stripe | 2) && !a.is_gc_evicted(stripe | 3));
        assert!(a.is_applied(stripe | 5), "retained records still answer");

        // Late retransmissions for an evicted txid answer deterministically
        // on every replica, and never stage or lock anything.
        let late_prepare = XMsg::Prepare {
            txid: stripe | 1,
            ops: vec![sub(b"x", vec![9])],
        };
        let late_batch = XMsg::AtomicBatch {
            txid: stripe,
            ops: vec![sub(b"y", vec![9])],
        };
        for msg in [
            late_prepare,
            late_batch,
            XMsg::Commit { txid: stripe | 2 },
            XMsg::Abort { txid: stripe | 1 },
        ] {
            let (ra, _) = a.execute(ClientId(1), &msg.encode(), &nd(), false);
            let (rb, _) = b.execute(ClientId(1), &msg.encode(), &nd(), false);
            assert_eq!(ra, rb, "late {msg:?} diverged");
        }
        assert_eq!(a.locked_keys(), 0, "nothing staged for evicted txids");
        assert!(!a.is_staged(stripe | 1));
        // An evicted batch acks committed without double-applying; an
        // evicted prepare/commit answers the presumed abort.
        let (r, _) = a.execute(
            ClientId(1),
            &XMsg::AtomicBatch {
                txid: stripe,
                ops: vec![],
            }
            .encode(),
            &nd(),
            false,
        );
        assert_eq!(
            XReply::decode(&r),
            Some(XReply::Committed {
                txid: stripe,
                replies: vec![]
            })
        );
        let (r, _) = a.execute(
            ClientId(1),
            &XMsg::Commit { txid: stripe | 1 }.encode(),
            &nd(),
            false,
        );
        assert_eq!(
            XReply::decode(&r),
            Some(XReply::Aborted { txid: stripe | 1 })
        );
        // Eviction is itself deterministic: region digests agree.
        assert_eq!(
            state_a.borrow_mut().refresh_digest(),
            state_b.borrow_mut().refresh_digest()
        );
        // A *fresh* txid above the floor still prepares normally.
        let fresh = XMsg::Prepare {
            txid: stripe | 9,
            ops: vec![sub(b"f", vec![1])],
        };
        let (r, _) = a.execute(ClientId(1), &fresh.encode(), &nd(), false);
        assert_eq!(
            XReply::decode(&r),
            Some(XReply::PrepareOk { txid: stripe | 9 })
        );
    }

    #[test]
    fn prepare_overflowing_the_cell_votes_abort_deterministically() {
        // A cell that fits only small stage tables (256 bytes minus the
        // header and the floor headroom a prepare must leave free).
        let make = || {
            let state = test_state();
            let ring = Section { base: 0, len: PAGE };
            let cell = Section {
                base: PAGE,
                len: 256,
            };
            XShardApp::with_sections(Box::new(NullApp::new(4)), state, ring, cell)
        };
        let (mut a, mut b) = (make(), make());
        let fat = XMsg::Prepare {
            txid: 1,
            ops: vec![sub(b"k", vec![0u8; 4096])],
        };
        for app in [&mut a, &mut b] {
            let (r, _) = app.execute(ClientId(1), &fat.encode(), &nd(), false);
            assert_eq!(
                XReply::decode(&r),
                Some(XReply::Aborted { txid: 1 }),
                "overflow votes no"
            );
            assert!(!app.is_staged(1));
            assert_eq!(app.locked_keys(), 0, "overflow leaves no locks behind");
        }
        // A small transaction still fits and proceeds.
        let slim = XMsg::Prepare {
            txid: 2,
            ops: vec![sub(b"k", vec![1])],
        };
        let (r, _) = a.execute(ClientId(1), &slim.encode(), &nd(), false);
        assert_eq!(XReply::decode(&r), Some(XReply::PrepareOk { txid: 2 }));
    }

    #[test]
    fn read_only_path_never_mutates() {
        let (mut app, state) = kv_xapp();
        let prepare = XMsg::Prepare {
            txid: 1,
            ops: vec![sub(b"k", KvApp::op_put(1, 1))],
        };
        let (r, _) = app.execute(ClientId(1), &prepare.encode(), &nd(), true);
        assert_eq!(XReply::decode(&r), Some(XReply::Aborted { txid: 1 }));
        assert!(!app.is_staged(1));
        let (r, _) = app.execute(ClientId(1), &XMsg::Commit { txid: 1 }.encode(), &nd(), true);
        assert_eq!(XReply::decode(&r), Some(XReply::Aborted { txid: 1 }));
        assert_eq!(state.borrow().dirty_pages(), 0);
    }

    #[test]
    fn passthrough_is_byte_identical() {
        let mut plain = NullApp::new(16);
        let wrapped = null_xapp();
        // NullApp replies 16 zero bytes; the wrapper must not touch them.
        let op = b"just an app op".to_vec();
        let (a, am) = plain.execute(ClientId(1), &op, &nd(), false);
        let mut wrapped16 = xapp_over(&test_state(), Box::new(NullApp::new(16)));
        let (b, bm) = wrapped16.execute(ClientId(1), &op, &nd(), false);
        assert_eq!(a, b);
        assert_eq!(am, bm, "pass-through adds no cost");
        assert_eq!(wrapped16.passthrough_ops(), 1);
        assert_eq!(wrapped.passthrough_ops(), 0);
    }

    /// First small integer key (BE bytes) that `map` assigns to `shard`,
    /// optionally also inside/outside a split plan's moved span.
    fn key_where(map: &ShardMap, shard: u32, moved: Option<(&SplitPlan, bool)>) -> Vec<u8> {
        (0..4096u64)
            .map(|i| i.to_be_bytes().to_vec())
            .find(|k| {
                map.shard_of(k) == shard && moved.is_none_or(|(plan, want)| plan.moves(k) == want)
            })
            .expect("probe keys cover every shard and span")
    }

    #[test]
    fn reshard_gates_ownership_and_carries_the_newer_map() {
        let map = ShardMap::ranged(2);
        let plan = map.split(0);
        let moved = key_where(&map, 0, Some((&plan, true)));
        let kept = key_where(&map, 0, Some((&plan, false)));

        let state = test_state();
        let mut app = xapp_over(&state, Box::new(NullApp::new(4)));
        app.set_identity(0, map);
        assert_eq!(app.identity(), Some((0, map)));

        // Pre-split: both keys prepare fine; leave one staged across the
        // epoch flip to prove in-flight transactions still complete.
        let staged_tx = 1;
        let prepare = XMsg::Prepare {
            txid: staged_tx,
            ops: vec![sub(&moved, vec![1])],
        };
        let (r, _) = app.execute(ClientId(1), &prepare.encode(), &nd(), false);
        assert_eq!(
            XReply::decode(&r),
            Some(XReply::PrepareOk { txid: staged_tx })
        );

        // Ordered reshard: epoch flips once, duplicates acknowledge.
        let reshard = XMsg::Reshard {
            txid: 2,
            map: plan.new_map,
        };
        for _ in 0..2 {
            let (r, _) = app.execute(ClientId(1), &reshard.encode(), &nd(), false);
            assert_eq!(
                XReply::decode(&r),
                Some(XReply::Resharded { txid: 2, epoch: 1 })
            );
        }

        // A fresh prepare on the moved key is rejected with the new map…
        let late = XMsg::Prepare {
            txid: 3,
            ops: vec![sub(&moved, vec![2])],
        };
        let (r, _) = app.execute(ClientId(1), &late.encode(), &nd(), false);
        assert_eq!(
            XReply::decode(&r),
            Some(XReply::WrongEpoch {
                txid: 3,
                map: plan.new_map
            })
        );
        assert!(!app.is_staged(3));
        // …and so are batches and keyed ops naming it.
        let batch = XMsg::AtomicBatch {
            txid: 4,
            ops: vec![sub(&moved, vec![3])],
        };
        let (r, _) = app.execute(ClientId(1), &batch.encode(), &nd(), false);
        assert!(matches!(
            XReply::decode(&r),
            Some(XReply::WrongEpoch { txid: 4, .. })
        ));
        let keyed = XMsg::KeyedOp {
            txid: 5,
            keys: vec![moved.clone()],
            op: vec![1],
        };
        // A keyed read behind the uncommitted flip has its reply held until
        // the flip commits: the rejection it then gets carries that map.
        for read_only in [false, true] {
            let (r, _) = app.execute(ClientId(1), &keyed.encode(), &nd(), read_only);
            assert_eq!(
                XReply::decode(&r),
                Some(XReply::WrongEpoch {
                    txid: 5,
                    map: plan.new_map
                })
            );
        }

        // Still-owned keys keep working, framed or not.
        let ok = XMsg::Prepare {
            txid: 6,
            ops: vec![sub(&kept, vec![4])],
        };
        let (r, _) = app.execute(ClientId(1), &ok.encode(), &nd(), false);
        assert_eq!(XReply::decode(&r), Some(XReply::PrepareOk { txid: 6 }));
        let keyed_ok = XMsg::KeyedOp {
            txid: 7,
            keys: vec![kept.clone()],
            op: vec![2],
        };
        let (r, _) = app.execute(ClientId(1), &keyed_ok.encode(), &nd(), false);
        assert_eq!(
            XReply::decode(&r),
            None,
            "owned keyed op passes through to the inner app"
        );

        // The transaction staged before the split still commits: phase two
        // proceeds regardless of epoch so 2PC never half-applies.
        let (r, _) = app.execute(
            ClientId(1),
            &XMsg::Commit { txid: staged_tx }.encode(),
            &nd(),
            false,
        );
        assert!(matches!(
            XReply::decode(&r),
            Some(XReply::Committed { txid: 1, .. })
        ));
    }

    #[test]
    fn identity_survives_remount_and_keeps_the_newer_epoch() {
        let map = ShardMap::ranged(2);
        let plan = map.split(1);
        let state = test_state();
        let mut app = xapp_over(&state, Box::new(NullApp::new(4)));
        app.set_identity(0, map);
        let reshard = XMsg::Reshard {
            txid: 1,
            map: plan.new_map,
        };
        let _ = app.execute(ClientId(1), &reshard.encode(), &nd(), false);
        drop(app);

        // Crash-restart: the boot-time set_identity carries the *birth*
        // map; the persisted newer epoch must win.
        let mut back = xapp_over(&state, Box::new(NullApp::new(4)));
        assert_eq!(back.identity(), Some((0, plan.new_map)));
        back.set_identity(0, map);
        assert_eq!(
            back.identity(),
            Some((0, plan.new_map)),
            "an older birth map cannot rewind an ordered reshard"
        );
    }

    #[test]
    fn range_install_writes_chunks_and_is_idempotent() {
        let (mut app, state) = kv_xapp();
        // Hand-build the chunk a source export would produce: key 3 = 99
        // written straight into its KV slot.
        let mut rec = [0u8; 16];
        rec[..8].copy_from_slice(&3u64.to_be_bytes());
        rec[8..].copy_from_slice(&99u64.to_be_bytes());
        let install = XMsg::RangeInstall {
            txid: 21,
            chunks: vec![(6 * PAGE + 3 * 16, rec.to_vec())],
        };
        let (r, _) = app.execute(ClientId(1), &install.encode(), &nd(), false);
        assert!(matches!(
            XReply::decode(&r),
            Some(XReply::Committed { txid: 21, .. })
        ));
        assert_eq!(kv_slot_value(&state, 3), 99);
        // Idempotent duplicate: acknowledged, region untouched.
        let before = state.borrow_mut().refresh_digest();
        let (r, _) = app.execute(ClientId(1), &install.encode(), &nd(), false);
        assert!(matches!(
            XReply::decode(&r),
            Some(XReply::Committed { txid: 21, .. })
        ));
        assert_eq!(state.borrow_mut().refresh_digest(), before);
    }

    #[test]
    fn two_replicas_stay_deterministic() {
        // The whole point: two replicas executing the same ordered history
        // produce bit-identical replies and identical tables.
        let (mut a, sa) = kv_xapp();
        let (mut b, sb) = kv_xapp();
        let history = [
            XMsg::Prepare {
                txid: 1,
                ops: vec![sub(b"x", KvApp::op_put(1, 10))],
            },
            XMsg::Prepare {
                txid: 2,
                ops: vec![sub(b"x", KvApp::op_put(1, 20))],
            }, // conflict
            XMsg::Decide {
                txid: 1,
                commit: true,
            },
            XMsg::Commit { txid: 1 },
            XMsg::Abort { txid: 2 },
            XMsg::QueryApplied { txid: 1 },
        ];
        for msg in &history {
            let ro = msg.is_read_only();
            let (ra, _) = a.execute(ClientId(1), &msg.encode(), &nd(), ro);
            let (rb, _) = b.execute(ClientId(1), &msg.encode(), &nd(), ro);
            assert_eq!(ra, rb, "replies diverged on {msg:?}");
        }
        assert_eq!(
            sa.borrow_mut().refresh_digest(),
            sb.borrow_mut().refresh_digest()
        );
        assert!(a.is_applied(1) && !a.is_applied(2));
    }
}

//! Protocol messages and their canonical wire encodings.
//!
//! Digests and MACs are computed over these canonical bytes, so encoding is
//! part of the protocol. The first byte of every packet is the message
//! discriminant, which makes simulator traces legible without decoding.

use std::sync::Arc;

use pbft_crypto::auth::Authenticator;
use pbft_crypto::challenge::ChallengeResponse;
use pbft_crypto::{Digest, Mac64, PublicKey, Signature};
use pbft_state::{FetchRequest, FetchResponse};

use crate::app::NonDet;
use crate::types::{ClientId, NetAddr, ReplicaId, SeqNum, View};
use crate::wire::{Dec, Enc, WireError};

/// The operation carried by a request: an application op or one of the
/// dynamic-membership system requests (paper §3.1 — "We define two special
/// system requests, namely a Join and a Leave, which follow the same
/// life-cycle as all other application-level (client) requests").
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Operation {
    /// Opaque application operation, executed through the `App` upcall.
    App(Vec<u8>),
    /// No-op (used by new primaries to fill sequence gaps in view changes).
    Noop,
    /// Phase one of the two-phase Join: announce identity, await challenge.
    JoinPhase1 {
        /// The joining client's public key.
        pubkey: PublicKey,
        /// Client freshness nonce.
        nonce: u64,
        /// Where replies (and the challenge) should be sent.
        reply_addr: NetAddr,
        /// Application-level identification buffer (e.g. encrypted
        /// credentials), passed to the application for authorization.
        idbuf: Vec<u8>,
    },
    /// Phase two: prove receipt of the challenge.
    JoinPhase2 {
        /// Fingerprint of the joining client's public key (identifies the
        /// pending phase-one attempt).
        fingerprint: Digest,
        /// The challenge response.
        response: ChallengeResponse,
    },
    /// Leave the group; all further communication is rejected.
    Leave,
}

impl Operation {
    fn encode(&self, e: &mut Enc) {
        match self {
            Operation::App(op) => {
                e.u8(0).bytes(op);
            }
            Operation::Noop => {
                e.u8(1);
            }
            Operation::JoinPhase1 {
                pubkey,
                nonce,
                reply_addr,
                idbuf,
            } => {
                e.u8(2)
                    .raw(&pubkey.to_bytes())
                    .u64(*nonce)
                    .u32(*reply_addr)
                    .bytes(idbuf);
            }
            Operation::JoinPhase2 {
                fingerprint,
                response,
            } => {
                e.u8(3).digest(fingerprint).digest(&response.0);
            }
            Operation::Leave => {
                e.u8(4);
            }
        }
    }

    fn decode(d: &mut Dec<'_>) -> Result<Operation, WireError> {
        match d.u8()? {
            0 => Ok(Operation::App(d.bytes()?)),
            1 => Ok(Operation::Noop),
            2 => {
                let pk: [u8; 16] = d.raw(16)?.try_into().expect("16 bytes");
                Ok(Operation::JoinPhase1 {
                    pubkey: PublicKey::from_bytes(&pk),
                    nonce: d.u64()?,
                    reply_addr: d.u32()?,
                    idbuf: d.bytes()?,
                })
            }
            3 => Ok(Operation::JoinPhase2 {
                fingerprint: d.digest()?,
                response: ChallengeResponse(d.digest()?),
            }),
            4 => Ok(Operation::Leave),
            t => Err(WireError::BadTag(t)),
        }
    }
}

/// A client request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestMsg {
    /// Requesting client (0 for anonymous phase-one joins).
    pub client: ClientId,
    /// Client-local monotonically increasing timestamp; pairs with `client`
    /// to identify the request.
    pub timestamp: u64,
    /// Read-only flag, set explicitly by the client (§2.1).
    pub read_only: bool,
    /// Transport address replies go to.
    pub reply_addr: NetAddr,
    /// The operation.
    pub op: Operation,
}

impl RequestMsg {
    /// Canonical digest identifying the request.
    pub fn digest(&self) -> Digest {
        let mut e = Enc::new();
        self.encode(&mut e);
        Digest::of(e.as_slice())
    }

    /// Encoded size (used for the big-request threshold).
    pub fn encoded_len(&self) -> usize {
        let mut e = Enc::new();
        self.encode(&mut e);
        e.len()
    }

    fn encode(&self, e: &mut Enc) {
        e.u64(self.client.0)
            .u64(self.timestamp)
            .boolean(self.read_only)
            .u32(self.reply_addr);
        self.op.encode(e);
    }

    fn decode(d: &mut Dec<'_>) -> Result<RequestMsg, WireError> {
        Ok(RequestMsg {
            client: ClientId(d.u64()?),
            timestamp: d.u64()?,
            read_only: d.boolean()?,
            reply_addr: d.u32()?,
            op: Operation::decode(d)?,
        })
    }
}

/// One request inside a pre-prepare batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchEntry {
    /// The request digest (always present; this is what the agreement is
    /// over).
    pub digest: Digest,
    /// Requesting client.
    pub client: ClientId,
    /// Request timestamp.
    pub timestamp: u64,
    /// Inline body for non-big requests; big requests travel directly from
    /// the client and only their digest is relayed (§2.1, §2.4).
    pub full: Option<RequestMsg>,
}

impl BatchEntry {
    /// Smallest encoding: digest, client, timestamp and the body tag.
    const MIN_LEN: usize = 32 + 8 + 8 + 1;

    /// Whether the inline body, if any, is the request this entry names:
    /// the same client and timestamp, and a canonical encoding that hashes
    /// to `digest`. Adds the bytes it hashed to `hashed`.
    pub(crate) fn body_matches(&self, hashed: &mut u64) -> bool {
        let Some(req) = &self.full else {
            return true;
        };
        if req.client != self.client || req.timestamp != self.timestamp {
            return false;
        }
        let mut e = Enc::new();
        req.encode(&mut e);
        *hashed += e.len() as u64;
        Digest::of(e.as_slice()) == self.digest
    }

    fn encode(&self, e: &mut Enc) {
        e.digest(&self.digest)
            .u64(self.client.0)
            .u64(self.timestamp);
        match &self.full {
            Some(r) => {
                e.u8(1);
                r.encode(e);
            }
            None => {
                e.u8(0);
            }
        }
    }

    fn decode(d: &mut Dec<'_>) -> Result<BatchEntry, WireError> {
        let digest = d.digest()?;
        let client = ClientId(d.u64()?);
        let timestamp = d.u64()?;
        let full = match d.u8()? {
            0 => None,
            1 => Some(RequestMsg::decode(d)?),
            t => return Err(WireError::BadTag(t)),
        };
        Ok(BatchEntry {
            digest,
            client,
            timestamp,
            full,
        })
    }
}

/// Pre-prepare: the primary's sequence-number assignment for a batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PrePrepareMsg {
    /// Current view.
    pub view: View,
    /// Assigned sequence number.
    pub seq: SeqNum,
    /// The primary's non-deterministic data (timestamp + randomness),
    /// validated by backups (§2.5).
    pub nondet: NonDet,
    /// The batched requests.
    pub entries: Vec<BatchEntry>,
}

impl PrePrepareMsg {
    /// Smallest encoding: view, seq, the two non-determinism words and an
    /// empty entry count.
    const MIN_LEN: usize = 4 * 8 + 4;

    /// The digest the prepare/commit phases agree on: covers view, seq,
    /// non-determinism and the ordered request digests (not inline bodies).
    pub fn batch_digest(&self) -> Digest {
        let mut e = Enc::new();
        e.u64(self.view)
            .u64(self.seq)
            .u64(self.nondet.timestamp_ns)
            .u64(self.nondet.random);
        e.u32(self.entries.len() as u32);
        for entry in &self.entries {
            e.digest(&entry.digest);
            e.u64(entry.client.0);
            e.u64(entry.timestamp);
        }
        Digest::of(e.as_slice())
    }

    fn encode(&self, e: &mut Enc) {
        e.u64(self.view)
            .u64(self.seq)
            .u64(self.nondet.timestamp_ns)
            .u64(self.nondet.random);
        e.u32(self.entries.len() as u32);
        for entry in &self.entries {
            entry.encode(e);
        }
    }

    fn decode(d: &mut Dec<'_>) -> Result<PrePrepareMsg, WireError> {
        let view = d.u64()?;
        let seq = d.u64()?;
        let nondet = NonDet {
            timestamp_ns: d.u64()?,
            random: d.u64()?,
        };
        let n = d.count(BatchEntry::MIN_LEN)?;
        let mut entries = Vec::with_capacity(n);
        for _ in 0..n {
            entries.push(BatchEntry::decode(d)?);
        }
        Ok(PrePrepareMsg {
            view,
            seq,
            nondet,
            entries,
        })
    }
}

/// Prepare: a backup's agreement to the primary's assignment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrepareMsg {
    /// Current view.
    pub view: View,
    /// Sequence number being agreed.
    pub seq: SeqNum,
    /// The batch digest from the pre-prepare.
    pub digest: Digest,
    /// The preparing replica.
    pub replica: ReplicaId,
}

/// Commit: second-phase vote guaranteeing total order across views.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CommitMsg {
    /// Current view.
    pub view: View,
    /// Sequence number.
    pub seq: SeqNum,
    /// The batch digest.
    pub digest: Digest,
    /// The committing replica.
    pub replica: ReplicaId,
}

/// Quorum certificate: the leader-aggregated vote set the linear engine
/// ([`crate::linear`]) broadcasts in place of all-to-all prepare/commit
/// exchanges. `PrepareQC` certifies 2f backup prepare votes for one
/// `(view, seq, digest)` slot; `CommitQC` certifies a full 2f+1 commit
/// quorum. The voter list is unattested — the same documented
/// simplification as the prepared certificates inside view-change
/// messages — which is sound for the crash/timing fault model the
/// conformance scenarios exercise.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuorumCertMsg {
    /// View the votes were cast in.
    pub view: View,
    /// Sequence number the certificate covers.
    pub seq: SeqNum,
    /// The batch digest the voters agreed on.
    pub digest: Digest,
    /// The replicas whose votes the leader aggregated.
    pub voters: Vec<ReplicaId>,
}

impl QuorumCertMsg {
    fn encode(&self, e: &mut Enc) {
        e.u64(self.view)
            .u64(self.seq)
            .digest(&self.digest)
            .u32(self.voters.len() as u32);
        for v in &self.voters {
            e.u32(v.0);
        }
    }

    fn decode(d: &mut Dec<'_>) -> Result<Self, WireError> {
        let view = d.u64()?;
        let seq = d.u64()?;
        let digest = d.digest()?;
        let count = d.count(4)?;
        let mut voters = Vec::with_capacity(count);
        for _ in 0..count {
            voters.push(ReplicaId(d.u32()?));
        }
        Ok(QuorumCertMsg {
            view,
            seq,
            digest,
            voters,
        })
    }
}

/// Reply: sent directly from each replica to the client.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplyMsg {
    /// View in which the request executed (tells clients who the primary is).
    pub view: View,
    /// Echoed client id.
    pub client: ClientId,
    /// Echoed request timestamp.
    pub timestamp: u64,
    /// The replying replica.
    pub replica: ReplicaId,
    /// True for tentative-execution replies: the client must collect 2f+1
    /// of these instead of f+1 stable ones (§2.1).
    pub tentative: bool,
    /// Designated-replier optimization (§2.1): `false` means `result` is
    /// the execution result itself; `true` marks a *vouch*, whose `result`
    /// is empty and whose authenticator covers the wire prefix followed by
    /// the omitted result. Only f+1 rotating replicas send the full body per
    /// request — enough that a correct one always reaches the client — and
    /// the rest vouch for it. The flag is inside the authenticated prefix, so
    /// a vouch's tag never passes for a full reply's, nor the reverse.
    pub body_omitted: bool,
    /// The execution result (empty in a vouch, see
    /// [`ReplyMsg::body_omitted`]).
    pub result: Vec<u8>,
}

/// Checkpoint attestation (§2.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointMsg {
    /// Checkpoint sequence number (a multiple of the checkpoint interval).
    pub seq: SeqNum,
    /// Merkle root of the state at `seq`.
    pub root: Digest,
    /// The attesting replica.
    pub replica: ReplicaId,
}

/// A client's session-key distribution message. "The client assigns a
/// different key to each replica and sends the key to it, signed with the
/// node's public key" (§2.1); retransmitted blindly on a timer, which is the
/// only thing that un-sticks a restarted replica (§2.3).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NewKeyMsg {
    /// The client distributing keys.
    pub client: ClientId,
    /// Reply address for this client.
    pub reply_addr: NetAddr,
    /// One 32-byte session key per replica, indexed by replica id. (In the
    /// real system each key is encrypted under the replica's public key; the
    /// simulation does not model eavesdroppers.)
    pub keys: Vec<[u8; 32]>,
}

/// Replica status, exchanged on (re)start for recovery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StatusMsg {
    /// The reporting replica.
    pub replica: ReplicaId,
    /// Its current view.
    pub view: View,
    /// Its last stable checkpoint.
    pub last_stable_seq: SeqNum,
    /// Root digest of that checkpoint.
    pub stable_root: Digest,
    /// Highest executed sequence number.
    pub last_executed: SeqNum,
    /// Whether the reporter is mid-view-change (its `view` is then the old
    /// view it is leaving, not one it vouches is live). Recovery's
    /// stranded-view rejoin only counts peers *actively operating* in a
    /// lower view, so a legitimate in-progress view change never reads as
    /// "the group is still back there".
    pub in_view_change: bool,
}

/// State-transfer fetch (wraps the tree-walk protocol of `pbft-state`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FetchMsg {
    /// Checkpoint sequence being fetched.
    pub target_seq: SeqNum,
    /// The tree-walk request.
    pub req: FetchRequest,
    /// Requesting replica.
    pub replica: ReplicaId,
}

/// State-transfer response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FetchRespMsg {
    /// Echoed checkpoint sequence.
    pub target_seq: SeqNum,
    /// The tree-walk response.
    pub resp: FetchResponse,
    /// Responding replica.
    pub replica: ReplicaId,
}

/// Request-body fetch (the optional §2.4 fix, `fetch_missing_bodies`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BodyFetchMsg {
    /// Digest of the missing request body.
    pub digest: Digest,
    /// Requesting replica.
    pub replica: ReplicaId,
}

/// A prepared certificate carried in a view change: the pre-prepare whose
/// batch reached the prepared state at this replica.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PreparedProof {
    /// The prepared pre-prepare (its `view` is the view it prepared in).
    pub preprepare: PrePrepareMsg,
}

/// View-change vote (§2.1: "The remaining replicas monitor ... and, if the
/// latter is found misbehaving, begin a view change procedure").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ViewChangeMsg {
    /// The proposed new view.
    pub new_view: View,
    /// The sender's last stable checkpoint sequence.
    pub last_stable_seq: SeqNum,
    /// Root of that checkpoint.
    pub stable_root: Digest,
    /// Prepared certificates above the stable checkpoint.
    pub prepared: Vec<PreparedProof>,
    /// The voting replica.
    pub replica: ReplicaId,
}

/// New-view: the new primary's proof and pre-prepare set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NewViewMsg {
    /// The view being installed.
    pub view: View,
    /// The 2f+1 view-change votes justifying it.
    pub view_changes: Vec<ViewChangeMsg>,
    /// Re-issued pre-prepares (set "O" in the PBFT paper).
    pub pre_prepares: Vec<PrePrepareMsg>,
}

/// Smallest encoded view-change body: new view, stable seq and root, an
/// empty prepared set and the voter (new-view nests these length-prefixed).
const VIEW_CHANGE_MIN_LEN: usize = 8 + 8 + 32 + 4 + 4;

/// Every protocol message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Message {
    /// Client request.
    Request(RequestMsg),
    /// Primary's assignment.
    PrePrepare(PrePrepareMsg),
    /// Backup agreement.
    Prepare(PrepareMsg),
    /// Commit vote.
    Commit(CommitMsg),
    /// Execution result to a client.
    Reply(ReplyMsg),
    /// Checkpoint attestation.
    Checkpoint(CheckpointMsg),
    /// View-change vote.
    ViewChange(ViewChangeMsg),
    /// New-view installation.
    NewView(NewViewMsg),
    /// Client session-key distribution.
    NewKey(NewKeyMsg),
    /// Recovery status exchange.
    Status(StatusMsg),
    /// State-transfer fetch.
    Fetch(FetchMsg),
    /// State-transfer response.
    FetchResp(FetchRespMsg),
    /// Missing-body fetch (§2.4 fix).
    BodyFetch(BodyFetchMsg),
    /// Missing-body response.
    BodyResp(RequestMsg),
    /// Linear-engine prepare certificate (leader-aggregated, [`crate::linear`]).
    PrepareQC(QuorumCertMsg),
    /// Linear-engine commit certificate (leader-aggregated, [`crate::linear`]).
    CommitQC(QuorumCertMsg),
}

impl Message {
    /// Wire discriminant; also the first byte of every encoded packet.
    pub fn discriminant(&self) -> u8 {
        match self {
            Message::Request(_) => 1,
            Message::PrePrepare(_) => 2,
            Message::Prepare(_) => 3,
            Message::Commit(_) => 4,
            Message::Reply(_) => 5,
            Message::Checkpoint(_) => 6,
            Message::ViewChange(_) => 7,
            Message::NewView(_) => 8,
            Message::NewKey(_) => 9,
            Message::Status(_) => 10,
            Message::Fetch(_) => 11,
            Message::FetchResp(_) => 12,
            Message::BodyFetch(_) => 13,
            Message::BodyResp(_) => 14,
            Message::PrepareQC(_) => 15,
            Message::CommitQC(_) => 16,
        }
    }

    /// Short human-readable name (used in traces and test assertions).
    pub fn name(&self) -> &'static str {
        match self {
            Message::Request(_) => "request",
            Message::PrePrepare(_) => "pre-prepare",
            Message::Prepare(_) => "prepare",
            Message::Commit(_) => "commit",
            Message::Reply(_) => "reply",
            Message::Checkpoint(_) => "checkpoint",
            Message::ViewChange(_) => "view-change",
            Message::NewView(_) => "new-view",
            Message::NewKey(_) => "new-key",
            Message::Status(_) => "status",
            Message::Fetch(_) => "fetch",
            Message::FetchResp(_) => "fetch-resp",
            Message::BodyFetch(_) => "body-fetch",
            Message::BodyResp(_) => "body-resp",
            Message::PrepareQC(_) => "prepare-qc",
            Message::CommitQC(_) => "commit-qc",
        }
    }

    fn encode_body(&self, e: &mut Enc) {
        match self {
            Message::Request(m) => m.encode(e),
            Message::PrePrepare(m) => m.encode(e),
            Message::Prepare(m) => {
                e.u64(m.view).u64(m.seq).digest(&m.digest).u32(m.replica.0);
            }
            Message::Commit(m) => {
                e.u64(m.view).u64(m.seq).digest(&m.digest).u32(m.replica.0);
            }
            Message::Reply(m) => {
                e.u64(m.view)
                    .u64(m.client.0)
                    .u64(m.timestamp)
                    .u32(m.replica.0)
                    .boolean(m.tentative)
                    .boolean(m.body_omitted)
                    .bytes(&m.result);
            }
            Message::Checkpoint(m) => {
                e.u64(m.seq).digest(&m.root).u32(m.replica.0);
            }
            Message::ViewChange(m) => {
                e.u64(m.new_view)
                    .u64(m.last_stable_seq)
                    .digest(&m.stable_root);
                e.u32(m.prepared.len() as u32);
                for p in &m.prepared {
                    p.preprepare.encode(e);
                }
                e.u32(m.replica.0);
            }
            Message::NewView(m) => {
                e.u64(m.view);
                e.u32(m.view_changes.len() as u32);
                for vc in &m.view_changes {
                    let mut inner = Enc::new();
                    Message::ViewChange(vc.clone()).encode_body(&mut inner);
                    e.bytes(inner.as_slice());
                }
                e.u32(m.pre_prepares.len() as u32);
                for pp in &m.pre_prepares {
                    pp.encode(e);
                }
            }
            Message::NewKey(m) => {
                e.u64(m.client.0).u32(m.reply_addr);
                e.u32(m.keys.len() as u32);
                for k in &m.keys {
                    e.raw(k);
                }
            }
            Message::Status(m) => {
                e.u32(m.replica.0)
                    .u64(m.view)
                    .u64(m.last_stable_seq)
                    .digest(&m.stable_root)
                    .u64(m.last_executed)
                    .boolean(m.in_view_change);
            }
            Message::Fetch(m) => {
                e.u64(m.target_seq);
                match &m.req {
                    FetchRequest::Meta { level, indices } => {
                        e.u8(0).u32(*level).u32(indices.len() as u32);
                        for &index in indices {
                            e.u64(index);
                        }
                    }
                    FetchRequest::Page { index } => {
                        e.u8(1).u64(*index);
                    }
                }
                e.u32(m.replica.0);
            }
            Message::FetchResp(m) => {
                e.u64(m.target_seq);
                match &m.resp {
                    FetchResponse::Meta { level, nodes } => {
                        e.u8(0).u32(*level).u32(nodes.len() as u32);
                        for (index, left, right) in nodes {
                            e.u64(*index).digest(left).digest(right);
                        }
                    }
                    FetchResponse::Page { index, data } => {
                        e.u8(1).u64(*index);
                        match data {
                            Some(d) => {
                                e.u8(1).bytes(d);
                            }
                            None => {
                                e.u8(0);
                            }
                        }
                    }
                    FetchResponse::Unavailable => {
                        e.u8(2);
                    }
                }
                e.u32(m.replica.0);
            }
            Message::BodyFetch(m) => {
                e.digest(&m.digest).u32(m.replica.0);
            }
            Message::BodyResp(m) => m.encode(e),
            Message::PrepareQC(m) => m.encode(e),
            Message::CommitQC(m) => m.encode(e),
        }
    }

    fn decode_body(disc: u8, d: &mut Dec<'_>) -> Result<Message, WireError> {
        Ok(match disc {
            1 => Message::Request(RequestMsg::decode(d)?),
            2 => Message::PrePrepare(PrePrepareMsg::decode(d)?),
            3 => Message::Prepare(PrepareMsg {
                view: d.u64()?,
                seq: d.u64()?,
                digest: d.digest()?,
                replica: ReplicaId(d.u32()?),
            }),
            4 => Message::Commit(CommitMsg {
                view: d.u64()?,
                seq: d.u64()?,
                digest: d.digest()?,
                replica: ReplicaId(d.u32()?),
            }),
            5 => Message::Reply(ReplyMsg {
                view: d.u64()?,
                client: ClientId(d.u64()?),
                timestamp: d.u64()?,
                replica: ReplicaId(d.u32()?),
                tentative: d.boolean()?,
                body_omitted: d.boolean()?,
                result: d.bytes()?,
            }),
            6 => Message::Checkpoint(CheckpointMsg {
                seq: d.u64()?,
                root: d.digest()?,
                replica: ReplicaId(d.u32()?),
            }),
            7 => {
                let new_view = d.u64()?;
                let last_stable_seq = d.u64()?;
                let stable_root = d.digest()?;
                let n = d.count(PrePrepareMsg::MIN_LEN)?;
                let mut prepared = Vec::with_capacity(n);
                for _ in 0..n {
                    prepared.push(PreparedProof {
                        preprepare: PrePrepareMsg::decode(d)?,
                    });
                }
                let replica = ReplicaId(d.u32()?);
                Message::ViewChange(ViewChangeMsg {
                    new_view,
                    last_stable_seq,
                    stable_root,
                    prepared,
                    replica,
                })
            }
            8 => {
                let view = d.u64()?;
                let nvc = d.count(4 + VIEW_CHANGE_MIN_LEN)?;
                let mut view_changes = Vec::with_capacity(nvc);
                for _ in 0..nvc {
                    let mut id = Dec::new(d.bytes_ref()?);
                    match Message::decode_body(7, &mut id)? {
                        Message::ViewChange(vc) => {
                            id.finish()?;
                            view_changes.push(vc);
                        }
                        _ => return Err(WireError::BadTag(8)),
                    }
                }
                let npp = d.count(PrePrepareMsg::MIN_LEN)?;
                let mut pre_prepares = Vec::with_capacity(npp);
                for _ in 0..npp {
                    pre_prepares.push(PrePrepareMsg::decode(d)?);
                }
                Message::NewView(NewViewMsg {
                    view,
                    view_changes,
                    pre_prepares,
                })
            }
            9 => {
                let client = ClientId(d.u64()?);
                let reply_addr = d.u32()?;
                let n = d.count(32)?;
                let mut keys = Vec::with_capacity(n);
                for _ in 0..n {
                    let k: [u8; 32] = d.raw(32)?.try_into().expect("32 bytes");
                    keys.push(k);
                }
                Message::NewKey(NewKeyMsg {
                    client,
                    reply_addr,
                    keys,
                })
            }
            10 => Message::Status(StatusMsg {
                replica: ReplicaId(d.u32()?),
                view: d.u64()?,
                last_stable_seq: d.u64()?,
                stable_root: d.digest()?,
                last_executed: d.u64()?,
                in_view_change: d.boolean()?,
            }),
            11 => {
                let target_seq = d.u64()?;
                let req = match d.u8()? {
                    0 => {
                        let level = d.u32()?;
                        let n = d.count(8)?;
                        let mut indices = Vec::with_capacity(n);
                        for _ in 0..n {
                            indices.push(d.u64()?);
                        }
                        FetchRequest::Meta { level, indices }
                    }
                    1 => FetchRequest::Page { index: d.u64()? },
                    t => return Err(WireError::BadTag(t)),
                };
                Message::Fetch(FetchMsg {
                    target_seq,
                    req,
                    replica: ReplicaId(d.u32()?),
                })
            }
            12 => {
                let target_seq = d.u64()?;
                let resp = match d.u8()? {
                    0 => {
                        let level = d.u32()?;
                        let n = d.count(8 + 2 * 32)?;
                        let mut nodes = Vec::with_capacity(n);
                        for _ in 0..n {
                            nodes.push((d.u64()?, d.digest()?, d.digest()?));
                        }
                        FetchResponse::Meta { level, nodes }
                    }
                    1 => {
                        let index = d.u64()?;
                        let data = match d.u8()? {
                            0 => None,
                            1 => Some(Arc::new(d.bytes()?)),
                            t => return Err(WireError::BadTag(t)),
                        };
                        FetchResponse::Page { index, data }
                    }
                    2 => FetchResponse::Unavailable,
                    t => return Err(WireError::BadTag(t)),
                };
                Message::FetchResp(FetchRespMsg {
                    target_seq,
                    resp,
                    replica: ReplicaId(d.u32()?),
                })
            }
            13 => Message::BodyFetch(BodyFetchMsg {
                digest: d.digest()?,
                replica: ReplicaId(d.u32()?),
            }),
            14 => Message::BodyResp(RequestMsg::decode(d)?),
            15 => Message::PrepareQC(QuorumCertMsg::decode(d)?),
            16 => Message::CommitQC(QuorumCertMsg::decode(d)?),
            t => return Err(WireError::BadTag(t)),
        })
    }
}

/// Who sent a packet (used to look up verification keys).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sender {
    /// A group replica.
    Replica(ReplicaId),
    /// An established client.
    Client(ClientId),
    /// A client that has not yet joined (phase-one Join only).
    Anonymous,
}

impl Sender {
    fn encode(&self, e: &mut Enc) {
        match self {
            Sender::Replica(r) => {
                e.u8(0).u32(r.0);
            }
            Sender::Client(c) => {
                e.u8(1).u64(c.0);
            }
            Sender::Anonymous => {
                e.u8(2);
            }
        }
    }

    fn decode(d: &mut Dec<'_>) -> Result<Sender, WireError> {
        match d.u8()? {
            0 => Ok(Sender::Replica(ReplicaId(d.u32()?))),
            1 => Ok(Sender::Client(ClientId(d.u64()?))),
            2 => Ok(Sender::Anonymous),
            t => Err(WireError::BadTag(t)),
        }
    }
}

/// The authentication trailer of a packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AuthTag {
    /// Unauthenticated (phase-one joins, replies protected by content
    /// matching at f+1 quorums, fetch traffic validated by digests).
    None,
    /// A single MAC addressed to the receiver (replica→client replies).
    Mac(Mac64),
    /// An authenticator: one MAC per replica.
    Authenticator(Authenticator),
    /// A public-key signature.
    Sig(Signature),
}

impl AuthTag {
    fn encode(&self, e: &mut Enc) {
        match self {
            AuthTag::None => {
                e.u8(0);
            }
            AuthTag::Mac(m) => {
                e.u8(1).raw(&m.to_bytes());
            }
            AuthTag::Authenticator(a) => {
                e.u8(2).u32(a.len() as u32);
                for (idx, tag) in a.iter() {
                    e.u32(idx).raw(&tag.to_bytes());
                }
            }
            AuthTag::Sig(s) => {
                e.u8(3).raw(&s.to_bytes());
            }
        }
    }
}

/// A complete packet: sender, message and authentication trailer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Envelope {
    /// Claimed sender (verified via the auth trailer).
    pub sender: Sender,
    /// The protocol message.
    pub msg: Message,
    /// Authentication over the packet prefix.
    pub auth: AuthTag,
}

impl Envelope {
    /// Encode the authenticated prefix (discriminant + sender + body).
    /// MACs/signatures are computed over exactly these bytes.
    pub fn encode_prefix(sender: Sender, msg: &Message) -> Vec<u8> {
        // Sized once, trailer included: growing 256 -> body -> 2x body (the
        // step `seal`'s first trailer byte used to trigger) left every 1 KiB
        // request and reply holding a 2 KiB buffer until it was delivered.
        let payload_len = match msg {
            Message::Request(RequestMsg {
                op: Operation::App(op),
                ..
            }) => op.len(),
            Message::Reply(m) => m.result.len(),
            _ => 0,
        };
        let mut e = Enc::with_room_for(payload_len);
        e.u8(msg.discriminant());
        sender.encode(&mut e);
        msg.encode_body(&mut e);
        e.into_bytes()
    }

    /// Assemble a packet from a prefix and an auth tag. Appends the trailer
    /// onto the prefix buffer in place — sealing never copies the body.
    pub fn seal(prefix: Vec<u8>, auth: &AuthTag) -> Vec<u8> {
        let mut e = Enc::from_vec(prefix);
        auth.encode(&mut e);
        e.into_bytes()
    }
}

/// The one packet decoder.
///
/// [`view::PacketView::parse`] walks a packet exactly once: sender, then
/// the body through `Message::decode_body` (the single field walk per
/// message kind), then the auth trailer, which stays a borrowed byte span
/// so a receiver picks out its own MAC without building the vector. The
/// prefix and body spans are recorded on the way, so authentication and
/// request digests run over the received bytes in place.
///
/// The body is decoded *before* it is authenticated. What that costs is
/// bounded: every element count is checked against the bytes actually left
/// ([`Dec::count`]), so an unauthenticated packet allocates at most a small
/// multiple of its own length.
pub mod view {
    use super::*;

    /// Encoded size of one authenticator entry: `u32` receiver index plus
    /// an 8-byte MAC.
    const ENTRY_LEN: usize = 12;

    fn entry(chunk: &[u8]) -> (u32, Mac64) {
        let idx = u32::from_be_bytes(chunk[..4].try_into().expect("4 bytes"));
        let mac: [u8; 8] = chunk[4..].try_into().expect("8 bytes");
        (idx, Mac64::from_bytes(mac))
    }

    /// The authentication trailer, borrowed from the packet.
    #[derive(Debug, Clone, Copy)]
    pub enum AuthView<'a> {
        /// Unauthenticated.
        None,
        /// A single addressed MAC.
        Mac(Mac64),
        /// An authenticator vector: `count` entries of 12 bytes each
        /// (u32 receiver index + 8-byte MAC), still in wire form.
        Authenticator {
            /// Raw entry bytes (`12 * count` of them).
            entries: &'a [u8],
            /// Number of entries.
            count: usize,
        },
        /// A public-key signature.
        Sig(Signature),
    }

    impl AuthView<'_> {
        /// The MAC addressed to receiver `idx`, if present — a linear scan
        /// over the borrowed entry span, no `Vec` of entries is ever built.
        pub fn mac_for(&self, idx: u32) -> Option<Mac64> {
            let AuthView::Authenticator { entries, .. } = self else {
                return None;
            };
            entries
                .chunks_exact(ENTRY_LEN)
                .map(entry)
                .find_map(|(i, mac)| (i == idx).then_some(mac))
        }

        /// The owned [`AuthTag`] (for paths that store or re-send it).
        pub fn to_tag(&self) -> AuthTag {
            match self {
                AuthView::None => AuthTag::None,
                AuthView::Mac(m) => AuthTag::Mac(*m),
                AuthView::Authenticator { entries, .. } => {
                    AuthTag::Authenticator(Authenticator::from_entries(
                        entries.chunks_exact(ENTRY_LEN).map(entry).collect(),
                    ))
                }
                AuthView::Sig(s) => AuthTag::Sig(*s),
            }
        }

        fn parse<'a>(d: &mut Dec<'a>) -> Result<AuthView<'a>, WireError> {
            match d.u8()? {
                0 => Ok(AuthView::None),
                1 => {
                    let b: [u8; 8] = d.raw(8)?.try_into().expect("8 bytes");
                    Ok(AuthView::Mac(Mac64::from_bytes(b)))
                }
                2 => {
                    let count = d.count(ENTRY_LEN)?;
                    Ok(AuthView::Authenticator {
                        entries: d.raw(ENTRY_LEN * count)?,
                        count,
                    })
                }
                3 => {
                    let b: [u8; 40] = d.raw(40)?.try_into().expect("40 bytes");
                    Ok(AuthView::Sig(Signature::from_bytes(&b)))
                }
                t => Err(WireError::BadTag(t)),
            }
        }
    }

    /// A decoded packet: the owned message plus the spans and the auth
    /// trailer still borrowed from the received bytes.
    #[derive(Debug, Clone)]
    pub struct PacketView<'a> {
        packet: &'a [u8],
        /// Claimed sender (authenticate before trusting it).
        pub sender: Sender,
        /// The decoded message.
        pub msg: Message,
        body_start: usize,
        prefix_len: usize,
        /// The borrowed auth trailer.
        pub auth: AuthView<'a>,
    }

    impl<'a> PacketView<'a> {
        /// Decode a packet in one walk.
        ///
        /// # Errors
        /// Any [`WireError`] on malformed input.
        pub fn parse(packet: &'a [u8]) -> Result<PacketView<'a>, WireError> {
            let mut d = Dec::new(packet);
            let disc = d.u8()?;
            let sender = Sender::decode(&mut d)?;
            let body_start = d.position();
            let msg = Message::decode_body(disc, &mut d)?;
            let prefix_len = d.position();
            let auth = AuthView::parse(&mut d)?;
            d.finish()?;
            Ok(PacketView {
                packet,
                sender,
                msg,
                body_start,
                prefix_len,
                auth,
            })
        }

        /// The authenticated prefix (what MACs/signatures cover).
        pub fn prefix(&self) -> &'a [u8] {
            &self.packet[..self.prefix_len]
        }

        /// The encoded message body (canonical encoding of the message
        /// struct — for a request, exactly the bytes its digest covers).
        pub fn body(&self) -> &'a [u8] {
            &self.packet[self.body_start..self.prefix_len]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbft_crypto::KeyPair;

    fn sample_request() -> RequestMsg {
        RequestMsg {
            client: ClientId(7),
            timestamp: 42,
            read_only: false,
            reply_addr: 9,
            op: Operation::App(b"insert into votes".to_vec()),
        }
    }

    fn roundtrip(msg: Message, sender: Sender, auth: AuthTag) {
        let prefix = Envelope::encode_prefix(sender, &msg);
        let packet = Envelope::seal(prefix.clone(), &auth);
        assert_eq!(
            packet[0],
            msg.discriminant(),
            "first byte is the discriminant"
        );
        let v = view::PacketView::parse(&packet).expect("parse");
        assert_eq!(v.msg, msg);
        assert_eq!(v.sender, sender);
        assert_eq!(v.auth.to_tag(), auth);
        assert_eq!(v.prefix(), &prefix[..]);
    }

    #[test]
    fn request_roundtrip() {
        roundtrip(
            Message::Request(sample_request()),
            Sender::Client(ClientId(7)),
            AuthTag::None,
        );
    }

    #[test]
    fn all_operations_roundtrip() {
        let kp = KeyPair::generate(3);
        let ops = vec![
            Operation::App(vec![1, 2, 3]),
            Operation::Noop,
            Operation::JoinPhase1 {
                pubkey: kp.public(),
                nonce: 77,
                reply_addr: 3,
                idbuf: b"user:pass".to_vec(),
            },
            Operation::JoinPhase2 {
                fingerprint: Digest::of(b"fp"),
                response: ChallengeResponse(Digest::of(b"resp")),
            },
            Operation::Leave,
        ];
        for op in ops {
            let req = RequestMsg {
                op,
                ..sample_request()
            };
            roundtrip(Message::Request(req), Sender::Anonymous, AuthTag::None);
        }
    }

    #[test]
    fn preprepare_roundtrip_and_digest() {
        let req = sample_request();
        let pp = PrePrepareMsg {
            view: 3,
            seq: 55,
            nondet: NonDet {
                timestamp_ns: 1000,
                random: 0xfeed,
            },
            entries: vec![
                BatchEntry {
                    digest: req.digest(),
                    client: req.client,
                    timestamp: req.timestamp,
                    full: Some(req.clone()),
                },
                BatchEntry {
                    digest: Digest::of(b"big one"),
                    client: ClientId(9),
                    timestamp: 1,
                    full: None,
                },
            ],
        };
        // Inline bodies do not change the batch digest.
        let mut no_body = pp.clone();
        no_body.entries[0].full = None;
        assert_eq!(pp.batch_digest(), no_body.batch_digest());
        roundtrip(
            Message::PrePrepare(pp),
            Sender::Replica(ReplicaId(0)),
            AuthTag::None,
        );
    }

    #[test]
    fn agreement_messages_roundtrip() {
        let d = Digest::of(b"batch");
        roundtrip(
            Message::Prepare(PrepareMsg {
                view: 1,
                seq: 2,
                digest: d,
                replica: ReplicaId(3),
            }),
            Sender::Replica(ReplicaId(3)),
            AuthTag::Mac(Mac64(99)),
        );
        roundtrip(
            Message::Commit(CommitMsg {
                view: 1,
                seq: 2,
                digest: d,
                replica: ReplicaId(2),
            }),
            Sender::Replica(ReplicaId(2)),
            AuthTag::Authenticator(Authenticator::from_entries(vec![
                (0, Mac64(1)),
                (2, Mac64(5)),
            ])),
        );
    }

    #[test]
    fn quorum_cert_roundtrip() {
        let d = Digest::of(b"batch");
        for (msg, voters) in [
            (15u8, vec![ReplicaId(1), ReplicaId(2)]),
            (16u8, vec![ReplicaId(0), ReplicaId(1), ReplicaId(3)]),
        ] {
            let qc = QuorumCertMsg {
                view: 4,
                seq: 17,
                digest: d,
                voters,
            };
            let m = if msg == 15 {
                Message::PrepareQC(qc)
            } else {
                Message::CommitQC(qc)
            };
            assert_eq!(m.discriminant(), msg);
            roundtrip(
                m,
                Sender::Replica(ReplicaId(1)),
                AuthTag::Authenticator(Authenticator::from_entries(vec![(0, Mac64(7))])),
            );
        }
        // An empty voter list survives too (the f = 0 degenerate group).
        roundtrip(
            Message::PrepareQC(QuorumCertMsg {
                view: 0,
                seq: 1,
                digest: d,
                voters: vec![],
            }),
            Sender::Replica(ReplicaId(0)),
            AuthTag::None,
        );
    }

    #[test]
    fn reply_roundtrip() {
        roundtrip(
            Message::Reply(ReplyMsg {
                view: 0,
                client: ClientId(7),
                timestamp: 42,
                replica: ReplicaId(1),
                tentative: true,
                body_omitted: false,
                result: b"ok".to_vec(),
            }),
            Sender::Replica(ReplicaId(1)),
            AuthTag::Mac(Mac64(5)),
        );
        // A vouch: the flag set, no result.
        roundtrip(
            Message::Reply(ReplyMsg {
                view: 0,
                client: ClientId(7),
                timestamp: 42,
                replica: ReplicaId(1),
                tentative: false,
                body_omitted: true,
                result: Vec::new(),
            }),
            Sender::Replica(ReplicaId(1)),
            AuthTag::Mac(Mac64(5)),
        );
    }

    #[test]
    fn signed_envelope_roundtrip() {
        let kp = KeyPair::generate(5);
        let msg = Message::Checkpoint(CheckpointMsg {
            seq: 128,
            root: Digest::of(b"state"),
            replica: ReplicaId(2),
        });
        let prefix = Envelope::encode_prefix(Sender::Replica(ReplicaId(2)), &msg);
        let sig = kp.sign(&prefix);
        let packet = Envelope::seal(prefix, &AuthTag::Sig(sig));
        let v = view::PacketView::parse(&packet).expect("parse");
        match v.auth {
            view::AuthView::Sig(s) => kp.public().verify(v.prefix(), &s).expect("verifies"),
            _ => panic!("wrong auth kind"),
        }
    }

    #[test]
    fn viewchange_and_newview_roundtrip() {
        let pp = PrePrepareMsg {
            view: 0,
            seq: 5,
            nondet: NonDet {
                timestamp_ns: 1,
                random: 2,
            },
            entries: vec![BatchEntry {
                digest: Digest::of(b"x"),
                client: ClientId(1),
                timestamp: 1,
                full: None,
            }],
        };
        let vc = ViewChangeMsg {
            new_view: 1,
            last_stable_seq: 0,
            stable_root: Digest::of(b"root"),
            prepared: vec![PreparedProof {
                preprepare: pp.clone(),
            }],
            replica: ReplicaId(2),
        };
        roundtrip(
            Message::ViewChange(vc.clone()),
            Sender::Replica(ReplicaId(2)),
            AuthTag::None,
        );
        let nv = NewViewMsg {
            view: 1,
            view_changes: vec![
                vc.clone(),
                ViewChangeMsg {
                    replica: ReplicaId(3),
                    ..vc
                },
            ],
            pre_prepares: vec![pp],
        };
        roundtrip(
            Message::NewView(nv),
            Sender::Replica(ReplicaId(1)),
            AuthTag::None,
        );
    }

    #[test]
    fn fetch_messages_roundtrip() {
        roundtrip(
            Message::Fetch(FetchMsg {
                target_seq: 128,
                req: FetchRequest::Meta {
                    level: 3,
                    indices: vec![1, 4],
                },
                replica: ReplicaId(0),
            }),
            Sender::Replica(ReplicaId(0)),
            AuthTag::None,
        );
        for resp in [
            FetchResponse::Meta {
                level: 3,
                nodes: vec![
                    (1, Digest::of(b"l"), Digest::of(b"r")),
                    (4, Digest::of(b"l4"), Digest::of(b"r4")),
                ],
            },
            FetchResponse::Meta {
                level: 3,
                nodes: Vec::new(),
            },
            FetchResponse::Page {
                index: 9,
                data: Some(Arc::new(vec![7u8; 64])),
            },
            FetchResponse::Page {
                index: 9,
                data: None,
            },
            FetchResponse::Unavailable,
        ] {
            roundtrip(
                Message::FetchResp(FetchRespMsg {
                    target_seq: 128,
                    resp,
                    replica: ReplicaId(1),
                }),
                Sender::Replica(ReplicaId(1)),
                AuthTag::None,
            );
        }
    }

    #[test]
    fn misc_messages_roundtrip() {
        roundtrip(
            Message::NewKey(NewKeyMsg {
                client: ClientId(4),
                reply_addr: 11,
                keys: vec![[1u8; 32], [2u8; 32]],
            }),
            Sender::Client(ClientId(4)),
            AuthTag::None,
        );
        roundtrip(
            Message::Status(StatusMsg {
                replica: ReplicaId(3),
                view: 7,
                last_stable_seq: 256,
                stable_root: Digest::of(b"s"),
                last_executed: 300,
                in_view_change: true,
            }),
            Sender::Replica(ReplicaId(3)),
            AuthTag::None,
        );
        roundtrip(
            Message::BodyFetch(BodyFetchMsg {
                digest: Digest::of(b"d"),
                replica: ReplicaId(1),
            }),
            Sender::Replica(ReplicaId(1)),
            AuthTag::None,
        );
        roundtrip(
            Message::BodyResp(sample_request()),
            Sender::Replica(ReplicaId(0)),
            AuthTag::None,
        );
    }

    #[test]
    fn garbage_rejected() {
        assert!(view::PacketView::parse(&[]).is_err());
        assert!(view::PacketView::parse(&[99, 0, 0, 0, 0]).is_err());
        // Valid packet with trailing garbage.
        let prefix = Envelope::encode_prefix(
            Sender::Client(ClientId(1)),
            &Message::Request(sample_request()),
        );
        let mut packet = Envelope::seal(prefix, &AuthTag::None);
        packet.push(0xff);
        assert!(view::PacketView::parse(&packet).is_err());
    }

    #[test]
    fn forged_counts_are_rejected_before_allocating() {
        // One forged packet per count-driven `Vec::with_capacity`: each
        // claims 100 000 elements and carries none. The decoder must refuse
        // the count itself (`BadLength`), not reserve for it and then run
        // out of bytes (`Truncated`).
        const CLAIM: u32 = 100_000;
        let zero = Digest::of(b"");
        type Body<'a> = &'a dyn Fn(&mut Enc);
        let sites: [(&str, u8, Body<'_>); 9] = [
            ("pre-prepare entries", 2, &|e| {
                e.u64(0).u64(1).u64(0).u64(0).u32(CLAIM);
            }),
            ("view-change prepared set", 7, &|e| {
                e.u64(1).u64(0).digest(&zero).u32(CLAIM);
            }),
            ("new-view view-changes", 8, &|e| {
                e.u64(1).u32(CLAIM);
            }),
            ("new-view pre-prepares", 8, &|e| {
                e.u64(1).u32(0).u32(CLAIM);
            }),
            ("new-key keys", 9, &|e| {
                e.u64(1).u32(9).u32(CLAIM);
            }),
            ("quorum-certificate voters", 15, &|e| {
                e.u64(0).u64(1).digest(&zero).u32(CLAIM);
            }),
            ("fetch meta indices", 11, &|e| {
                e.u64(128).u8(0).u32(1).u32(CLAIM);
            }),
            ("fetch-resp meta nodes", 12, &|e| {
                e.u64(128).u8(0).u32(1).u32(CLAIM);
            }),
            ("authenticator entries", 13, &|e| {
                // A complete body-fetch, then a forged trailer.
                e.digest(&zero).u32(0).u8(2).u32(CLAIM);
            }),
        ];
        for (site, disc, body) in sites {
            let mut e = Enc::new();
            e.u8(disc);
            Sender::Replica(ReplicaId(0)).encode(&mut e);
            body(&mut e);
            let packet = e.into_bytes();
            assert!(packet.len() < 80, "{site}: the forgery is tiny");
            assert_eq!(
                view::PacketView::parse(&packet).unwrap_err(),
                WireError::BadLength(u64::from(CLAIM)),
                "{site}"
            );
        }
    }

    #[test]
    fn view_body_is_the_digested_span() {
        // The request digest is defined over the canonical request encoding,
        // which is exactly the view's body span — the receive path computes
        // it straight from the packet without re-encoding.
        let req = sample_request();
        let prefix =
            Envelope::encode_prefix(Sender::Client(req.client), &Message::Request(req.clone()));
        let packet = Envelope::seal(prefix, &AuthTag::None);
        let v = view::PacketView::parse(&packet).unwrap();
        assert_eq!(Digest::of(v.body()), req.digest());
        assert_eq!(v.body().len(), req.encoded_len());
    }

    #[test]
    fn auth_view_finds_exactly_the_addressed_mac() {
        let auth = AuthTag::Authenticator(Authenticator::from_entries(vec![
            (0, Mac64(10)),
            (2, Mac64(12)),
            (3, Mac64(13)),
        ]));
        let prefix = Envelope::encode_prefix(
            Sender::Replica(ReplicaId(1)),
            &Message::Request(sample_request()),
        );
        let packet = Envelope::seal(prefix, &auth);
        let v = view::PacketView::parse(&packet).unwrap();
        assert_eq!(v.auth.mac_for(0), Some(Mac64(10)));
        assert_eq!(v.auth.mac_for(1), None);
        assert_eq!(v.auth.mac_for(2), Some(Mac64(12)));
        assert_eq!(v.auth.mac_for(3), Some(Mac64(13)));
        assert_eq!(v.auth.to_tag(), auth);
    }

    #[test]
    fn request_digest_is_content_addressed() {
        let a = sample_request();
        let mut b = a.clone();
        assert_eq!(a.digest(), b.digest());
        b.timestamp += 1;
        assert_ne!(a.digest(), b.digest());
        assert!(a.encoded_len() > 0);
    }
}

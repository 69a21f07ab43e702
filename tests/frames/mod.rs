//! The application frames replicas exchange beside the protocol messages:
//! one instance of every `XMsg` and `XReply` shape, every `VoteOp`, a
//! `CertifyReply` and the four SQL outcome kinds. `frame_golden.rs` pins
//! their bytes; `frame_alloc.rs` feeds hostile variants of them to their
//! decoders.

// Each test binary uses part of this module.
#![allow(dead_code)]

use evoting::{CertifyReply, VoteOp};
use minisql::{ExecOutcome, Rows, SqlError, Value};
use pbft_crypto::threshold::PartialSignature;
use pbft_sql::{decode_outcome, encode_outcome};
use pbft_xshard::routing::ShardMap;
use pbft_xshard::xshard::{SubOp, XMsg, XReply};

/// Which decoder reads a frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Codec {
    XMsg,
    XReply,
    VoteOp,
    CertifyReply,
    Outcome,
}

impl Codec {
    /// Run this codec's decoder over `bytes`; true if it accepted them.
    /// Nothing else allocates here, so the allocation test measures the
    /// decoder alone.
    pub fn decodes(self, bytes: &[u8]) -> bool {
        match self {
            Codec::XMsg => XMsg::decode(bytes).is_some(),
            Codec::XReply => XReply::decode(bytes).is_some(),
            Codec::VoteOp => VoteOp::decode(bytes).is_some(),
            Codec::CertifyReply => CertifyReply::decode(bytes).is_some(),
            Codec::Outcome => decode_outcome(bytes).is_some(),
        }
    }

    /// Run this codec's decoder over `bytes`; what it decoded, if anything.
    pub fn decoded(self, bytes: &[u8]) -> Option<String> {
        match self {
            Codec::XMsg => XMsg::decode(bytes).map(|v| format!("{v:?}")),
            Codec::XReply => XReply::decode(bytes).map(|v| format!("{v:?}")),
            Codec::VoteOp => VoteOp::decode(bytes).map(|v| format!("{v:?}")),
            Codec::CertifyReply => CertifyReply::decode(bytes).map(|v| format!("{v:?}")),
            Codec::Outcome => decode_outcome(bytes).map(|v| format!("{v:?}")),
        }
    }
}

/// One encoded frame.
#[derive(Debug, Clone)]
pub struct Frame {
    /// `codec/variant`, unique across the list.
    pub name: String,
    pub codec: Codec,
    pub bytes: Vec<u8>,
}

fn sub(keys: &[&[u8]], op: &[u8]) -> SubOp {
    SubOp {
        keys: keys.iter().map(|k| k.to_vec()).collect(),
        op: op.to_vec(),
    }
}

/// The sub-op list of the `Prepare` frame, also staged by the tables-image
/// golden: two keys, then none, so both count sites see more than zero and
/// exactly zero.
pub fn prepare_ops() -> Vec<SubOp> {
    vec![sub(&[b"a", b"b"], &[1, 2]), sub(&[], &[])]
}

/// One instance of every `XMsg` variant (both `Decide` verdicts).
pub fn every_msg() -> Vec<XMsg> {
    vec![
        XMsg::Prepare {
            txid: 9,
            ops: prepare_ops(),
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
            ops: vec![sub(&[b"k"], &[7; 9])],
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

/// One instance of every `XReply` variant.
pub fn every_reply() -> Vec<XReply> {
    vec![
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
    ]
}

/// One instance of every `VoteOp` variant.
pub fn every_vote_op() -> Vec<VoteOp> {
    vec![
        VoteOp::CreateElection {
            title: "Board 2026".into(),
        },
        VoteOp::CastVote {
            election: 3,
            choice: "alice".into(),
        },
        VoteOp::Tally { election: 3 },
        VoteOp::ListElections,
        VoteOp::MyVote { election: 1 },
        VoteOp::Certify {
            election: 2,
            participants: vec![1, 3],
        },
    ]
}

/// The four outcome kinds, rows with every value type but blob.
pub fn every_outcome() -> Vec<Result<ExecOutcome, SqlError>> {
    vec![
        Ok(ExecOutcome::Done),
        Ok(ExecOutcome::Affected(7)),
        Ok(ExecOutcome::Rows(Rows {
            columns: vec!["choice".into(), "n".into()],
            rows: vec![
                vec![Value::Text("yes".into()), Value::Integer(3)],
                vec![Value::Null, Value::Real(1.5)],
            ],
        })),
        Err(SqlError::Schema("no such table: x".into())),
    ]
}

/// A replica's answer to `Certify`: a partial signature and a tally.
pub fn certify_reply() -> CertifyReply {
    let tally = Rows {
        columns: vec!["choice".into(), "COUNT(*)".into()],
        rows: vec![vec![Value::Text("pbft".into()), Value::Integer(3)]],
    };
    CertifyReply {
        partial: PartialSignature {
            x: 2,
            weighted: 0x0123_4567_89ab_cdef,
        },
        tally: encode_outcome(&Ok(ExecOutcome::Rows(tally))),
    }
}

/// Every frame above, encoded, in list order.
pub fn frames() -> Vec<Frame> {
    let mut out = Vec::new();
    let mut push = |codec: Codec, variant: String, bytes: Vec<u8>| {
        let n = out.len();
        out.push(Frame {
            name: format!("{codec:?}/{n}/{variant}"),
            codec,
            bytes,
        });
    };
    let variant = |debug: String| debug.split([' ', '(']).next().unwrap_or("").to_string();
    for m in every_msg() {
        push(Codec::XMsg, variant(format!("{m:?}")), m.encode());
    }
    for r in every_reply() {
        push(Codec::XReply, variant(format!("{r:?}")), r.encode());
    }
    for op in every_vote_op() {
        push(Codec::VoteOp, variant(format!("{op:?}")), op.encode());
    }
    push(
        Codec::CertifyReply,
        "reply".into(),
        certify_reply().encode(),
    );
    for o in every_outcome() {
        let kind = match &o {
            Ok(ExecOutcome::Done) => "Done",
            Ok(ExecOutcome::Affected(_)) => "Affected",
            Ok(ExecOutcome::Rows(_)) => "Rows",
            Err(_) => "Error",
        };
        push(Codec::Outcome, kind.into(), encode_outcome(&o));
    }
    out
}

/// Call `f` with every proper prefix of `bytes` (shortest first), then
/// with every copy of `bytes` that differs from it in exactly one byte
/// (position by position, each of the 255 other values in turn).
pub fn for_each_mutation(bytes: &[u8], mut f: impl FnMut(&[u8])) {
    for len in 0..bytes.len() {
        f(&bytes[..len]);
    }
    let mut flipped = bytes.to_vec();
    for at in 0..bytes.len() {
        for x in 1..=255u8 {
            flipped[at] = bytes[at] ^ x;
            f(&flipped);
        }
        flipped[at] = bytes[at];
    }
}

/// Lower-case hex of `bytes`.
pub fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

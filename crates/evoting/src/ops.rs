//! Client-visible operations and their wire encoding.

use minisql::Value;
use pbft_core::wire::{Dec, Enc};
use pbft_sql::{decode_outcome, WireOutcome};

/// An e-voting operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VoteOp {
    /// Create a new election (administrative).
    CreateElection {
        /// Human-readable election title.
        title: String,
    },
    /// Cast (or replace) this session's vote in an election.
    CastVote {
        /// Election id.
        election: i64,
        /// The chosen option.
        choice: String,
    },
    /// Tally the votes of an election (read-only).
    Tally {
        /// Election id.
        election: i64,
    },
    /// List elections (read-only).
    ListElections,
    /// What did this session vote? (read-only)
    MyVote {
        /// Election id.
        election: i64,
    },
    /// Request this replica's partial threshold signature over the tally
    /// (read-only; the §3.3.1 certificate flow — see [`crate::certificate`]).
    Certify {
        /// Election id.
        election: i64,
        /// The weak-quorum signer set (1-based evaluation points) the
        /// requester intends to combine.
        participants: Vec<u32>,
    },
}

impl VoteOp {
    /// Is this operation safe for the PBFT read-only fast path?
    pub fn is_read_only(&self) -> bool {
        matches!(
            self,
            VoteOp::Tally { .. }
                | VoteOp::ListElections
                | VoteOp::MyVote { .. }
                | VoteOp::Certify { .. }
        )
    }

    /// The operation's stable shard key, for routing in sharded multi-group
    /// deployments: all traffic of one election lands on one PBFT group (so
    /// casting, tallying and certifying election *e* serialize in a single
    /// total order), keyed by the election id's big-endian bytes.
    /// Election-catalog operations (`CreateElection`, `ListElections`) share
    /// the constant catalog key so the catalog itself lives on one group.
    pub fn shard_key(&self) -> Vec<u8> {
        match self {
            VoteOp::CreateElection { .. } | VoteOp::ListElections => b"#elections".to_vec(),
            VoteOp::CastVote { election, .. }
            | VoteOp::Tally { election }
            | VoteOp::MyVote { election }
            | VoteOp::Certify { election, .. } => election.to_be_bytes().to_vec(),
        }
    }

    /// Encode for transport inside a PBFT request: a tag byte, then the
    /// variant's fields — a big-endian election id, text running to the
    /// end of the operation, and for `Certify` a one-byte count of
    /// big-endian signer points.
    ///
    /// # Panics
    /// Panics if `Certify` names more than 255 participants: the one-byte
    /// count would wrap and the request would ask for a different set.
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Enc::new();
        match self {
            VoteOp::CreateElection { title } => {
                e.u8(1).raw(title.as_bytes());
            }
            VoteOp::CastVote { election, choice } => {
                e.u8(2).u64(*election as u64).raw(choice.as_bytes());
            }
            VoteOp::Tally { election } => {
                e.u8(3).u64(*election as u64);
            }
            VoteOp::ListElections => {
                e.u8(4);
            }
            VoteOp::MyVote { election } => {
                e.u8(5).u64(*election as u64);
            }
            VoteOp::Certify {
                election,
                participants,
            } => {
                let count = u8::try_from(participants.len()).unwrap_or_else(|_| {
                    panic!(
                        "certify names {} participants, more than 255",
                        participants.len()
                    )
                });
                e.u8(6).u64(*election as u64).u8(count);
                for p in participants {
                    e.u32(*p);
                }
            }
        }
        e.into_bytes()
    }

    /// Decode from request bytes. Bytes after a fixed-length operation are
    /// ignored.
    pub fn decode(bytes: &[u8]) -> Option<VoteOp> {
        let mut d = Dec::new(bytes);
        let text = |d: &mut Dec<'_>| String::from_utf8(d.rest().to_vec()).ok();
        Some(match d.u8().ok()? {
            1 => VoteOp::CreateElection {
                title: text(&mut d)?,
            },
            2 => VoteOp::CastVote {
                election: d.u64().ok()? as i64,
                choice: text(&mut d)?,
            },
            3 => VoteOp::Tally {
                election: d.u64().ok()? as i64,
            },
            4 => VoteOp::ListElections,
            5 => VoteOp::MyVote {
                election: d.u64().ok()? as i64,
            },
            6 => {
                let election = d.u64().ok()? as i64;
                let count = d.count_u8(4).ok()?;
                let mut participants = Vec::with_capacity(count);
                for _ in 0..count {
                    participants.push(d.u32().ok()?);
                }
                VoteOp::Certify {
                    election,
                    participants,
                }
            }
            _ => return None,
        })
    }
}

/// A cross-precinct ballot: cast the same choice in several precinct
/// elections **atomically** (all precincts record it, or none do).
///
/// In a sharded deployment each election's traffic lives on the PBFT group
/// owning its id (see [`VoteOp::shard_key`]), so a multi-precinct ballot is
/// inherently cross-shard: the returned `(shard key, encoded op)` pairs are
/// the per-precinct sub-operations to feed into the two-phase commit of
/// `pbft_xshard::xshard` (one sub-op per election, each single-shard by
/// construction). Because every committed ballot adds exactly one vote in
/// *every* named precinct, equal per-precinct vote totals across the slate
/// double as a cheap atomicity audit.
pub fn cross_precinct_ballot(elections: &[i64], choice: &str) -> Vec<(Vec<u8>, Vec<u8>)> {
    elections
        .iter()
        .map(|&election| {
            let op = VoteOp::CastVote {
                election,
                choice: choice.to_string(),
            };
            (op.shard_key(), op.encode())
        })
        .collect()
}

/// Build the application identification buffer for the Join (§3.1): the
/// credentials the replicated voter registry checks.
pub fn idbuf(user: &str, secret: &str) -> Vec<u8> {
    format!("{user}:{secret}").into_bytes()
}

/// Decode a tally reply into `(choice, count)` pairs.
pub fn decode_tally(reply: &[u8]) -> Option<Vec<(String, i64)>> {
    match decode_outcome(reply)? {
        WireOutcome::Rows(rows) => rows
            .rows
            .into_iter()
            .map(|r| match (r.first(), r.get(1)) {
                (Some(Value::Text(c)), Some(Value::Integer(n))) => Some((c.clone(), *n)),
                _ => None,
            })
            .collect(),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ops_roundtrip() {
        for op in [
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
            VoteOp::Certify {
                election: 1,
                participants: (1..=255).collect(),
            },
        ] {
            assert_eq!(VoteOp::decode(&op.encode()), Some(op));
        }
    }

    #[test]
    fn shard_keys_group_by_election() {
        let cast = VoteOp::CastVote {
            election: 3,
            choice: "alice".into(),
        };
        let tally = VoteOp::Tally { election: 3 };
        assert_eq!(
            cast.shard_key(),
            tally.shard_key(),
            "one election, one shard"
        );
        assert_ne!(tally.shard_key(), VoteOp::Tally { election: 4 }.shard_key());
        // Catalog ops share the catalog key.
        let create = VoteOp::CreateElection { title: "a".into() };
        assert_eq!(create.shard_key(), VoteOp::ListElections.shard_key());
    }

    #[test]
    fn read_only_classification() {
        assert!(!VoteOp::CreateElection { title: "x".into() }.is_read_only());
        assert!(!VoteOp::CastVote {
            election: 1,
            choice: "y".into()
        }
        .is_read_only());
        assert!(VoteOp::Tally { election: 1 }.is_read_only());
        assert!(VoteOp::ListElections.is_read_only());
        assert!(VoteOp::MyVote { election: 1 }.is_read_only());
    }

    #[test]
    #[should_panic(expected = "certify names 256 participants, more than 255")]
    fn certify_refuses_a_participant_count_its_byte_cannot_hold() {
        VoteOp::Certify {
            election: 1,
            participants: (1..=256).collect(),
        }
        .encode();
    }

    #[test]
    fn garbage_rejected() {
        assert_eq!(VoteOp::decode(&[]), None);
        assert_eq!(VoteOp::decode(&[99]), None);
        assert_eq!(VoteOp::decode(&[2, 1]), None);
    }

    #[test]
    fn cross_precinct_ballot_is_one_sub_op_per_election() {
        let subs = cross_precinct_ballot(&[3, 7], "alice");
        assert_eq!(subs.len(), 2);
        assert_eq!(
            subs[0].0,
            3i64.to_be_bytes().to_vec(),
            "keyed by election id"
        );
        assert_ne!(subs[0].0, subs[1].0);
        for (key, op) in &subs {
            let decoded = VoteOp::decode(op).expect("sub-ops decode");
            match &decoded {
                VoteOp::CastVote { choice, .. } => assert_eq!(choice, "alice"),
                other => panic!("{other:?}"),
            }
            assert_eq!(
                &decoded.shard_key(),
                key,
                "sub-op keys match the op's own key"
            );
        }
    }

    #[test]
    fn idbuf_format() {
        assert_eq!(idbuf("alice", "s3cret"), b"alice:s3cret".to_vec());
    }
}

//! Threshold-signed tally certificates — the §3.3.1 fix, applied.
//!
//! The paper: "an adversary can obtain access to one of the execution
//! replicas, wait until it becomes the primary and use predetermined values
//! instead of random values. ... To alleviate such attacks, one solution
//! would be to enforce a threshold signature scheme for such authentication
//! requirements, provided for by the middleware library. In such a scheme,
//! private key information for each replica would never be transmitted over
//! the network ... In a (f + 1, n) (where n = 3f + 1) threshold signature
//! scheme, the set of n replicas would collectively generate a digital
//! signature despite up to f byzantine faults."
//!
//! Here the scheme certifies election results: each replica holds a Shamir
//! share of a group signing secret (dealt at deployment; never stored in
//! the *shared* state, so it never moves over the network), and answers a
//! [`VoteOp::Certify`](crate::VoteOp) request with its canonical tally plus
//! a partial signature. Any f+1 matching answers combine into a
//! [`GroupSignature`] a third party can verify against the public group
//! descriptor — no single replica (nor any f of them) can forge it.

use pbft_core::wire::{Dec, Enc};
use pbft_crypto::threshold::{
    combine, GroupSignature, PartialSignature, ThresholdError, ThresholdGroup,
};

use crate::ops::decode_tally;

/// A replica's answer to a Certify request: its partial signature over the
/// canonical tally bytes, followed by the tally itself.
#[derive(Debug, Clone, PartialEq)]
pub struct CertifyReply {
    /// This replica's partial signature.
    pub partial: PartialSignature,
    /// Canonical tally reply bytes (identical on every correct replica).
    pub tally: Vec<u8>,
}

impl CertifyReply {
    /// Wire-encode: x (4) + weighted contribution (8) + tally bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Enc::from_vec(Vec::with_capacity(12 + self.tally.len()));
        e.u32(self.partial.x)
            .u64(self.partial.weighted)
            .raw(&self.tally);
        e.into_bytes()
    }

    /// Decode a reply body.
    pub fn decode(bytes: &[u8]) -> Option<CertifyReply> {
        let mut d = Dec::new(bytes);
        let partial = PartialSignature {
            x: d.u32().ok()?,
            weighted: d.u64().ok()?,
        };
        Some(CertifyReply {
            partial,
            tally: d.rest().to_vec(),
        })
    }
}

/// A combined, independently verifiable election-result certificate.
#[derive(Debug, Clone, PartialEq)]
pub struct TallyCertificate {
    /// The certified tally: `(choice, count)` pairs.
    pub tally: Vec<(String, i64)>,
    /// Canonical tally bytes the signature covers.
    pub tally_bytes: Vec<u8>,
    /// The group signature.
    pub signature: GroupSignature,
}

/// Certificate-assembly errors.
#[derive(Debug, Clone, PartialEq)]
pub enum CertificateError {
    /// Replies disagree on the tally bytes (a Byzantine replica answered).
    TallyMismatch,
    /// The tally bytes do not decode as a tally.
    BadTally,
    /// Threshold-combination failure.
    Threshold(ThresholdError),
}

impl std::fmt::Display for CertificateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CertificateError::TallyMismatch => write!(f, "replicas disagree on the tally"),
            CertificateError::BadTally => write!(f, "tally bytes do not decode"),
            CertificateError::Threshold(e) => write!(f, "threshold combination: {e}"),
        }
    }
}

impl std::error::Error for CertificateError {}

impl From<ThresholdError> for CertificateError {
    fn from(e: ThresholdError) -> Self {
        CertificateError::Threshold(e)
    }
}

/// Combine f+1 (or more) Certify replies into a verifiable certificate.
///
/// All replies must carry byte-identical tallies — a mismatch means some
/// replica lied, and the caller should gather a different reply set.
///
/// # Errors
/// [`CertificateError`] on disagreement, undecodable tallies, or too few
/// distinct partials.
pub fn assemble_certificate(
    group: &ThresholdGroup,
    replies: &[CertifyReply],
) -> Result<TallyCertificate, CertificateError> {
    let Some(first) = replies.first() else {
        return Err(CertificateError::Threshold(
            ThresholdError::NotEnoughShares {
                needed: group.threshold(),
                got: 0,
            },
        ));
    };
    if replies.iter().any(|r| r.tally != first.tally) {
        return Err(CertificateError::TallyMismatch);
    }
    let tally = decode_tally(&first.tally).ok_or(CertificateError::BadTally)?;
    let partials: Vec<PartialSignature> = replies.iter().map(|r| r.partial).collect();
    let signature = combine(group, &partials, &first.tally)?;
    Ok(TallyCertificate {
        tally,
        tally_bytes: first.tally.clone(),
        signature,
    })
}

/// Third-party verification: does `certificate` prove `tally_bytes` was
/// endorsed by at least a weak quorum of the group?
pub fn verify_certificate(group: &ThresholdGroup, certificate: &TallyCertificate) -> bool {
    group.verify(&certificate.tally_bytes, &certificate.signature)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbft_crypto::threshold::{partial_sign, SecretShare, ThresholdGroup};

    fn deal() -> (ThresholdGroup, Vec<SecretShare>) {
        ThresholdGroup::deal(0xE1EC, 2, 4) // f = 1: (f+1, 3f+1) = (2, 4)
    }

    /// A canonical tally reply as `SqlApp` encodes it.
    fn tally_bytes() -> Vec<u8> {
        use minisql::{Rows, Value};
        let rows = Rows {
            columns: vec!["choice".into(), "COUNT(*)".into()],
            rows: vec![
                vec![Value::Text("pbft".into()), Value::Integer(3)],
                vec![Value::Text("raft".into()), Value::Integer(1)],
            ],
        };
        pbft_sql::encode_outcome(&Ok(minisql::ExecOutcome::Rows(rows)))
    }

    fn replies(shares: &[SecretShare], who: &[u32], tally: &[u8]) -> Vec<CertifyReply> {
        who.iter()
            .map(|&x| CertifyReply {
                partial: partial_sign(&shares[(x - 1) as usize], who),
                tally: tally.to_vec(),
            })
            .collect()
    }

    #[test]
    fn certificate_roundtrip_and_verification() {
        let (group, shares) = deal();
        let tally = tally_bytes();
        let replies = replies(&shares, &[1, 3], &tally);
        let cert = assemble_certificate(&group, &replies).expect("assemble");
        assert_eq!(
            cert.tally,
            vec![("pbft".to_string(), 3), ("raft".to_string(), 1)]
        );
        assert!(verify_certificate(&group, &cert));
    }

    #[test]
    fn any_weak_quorum_produces_the_same_valid_signature() {
        let (group, shares) = deal();
        let tally = tally_bytes();
        for who in [[1u32, 2], [2, 3], [3, 4], [1, 4]] {
            let cert =
                assemble_certificate(&group, &replies(&shares, &who, &tally)).expect("assemble");
            assert!(verify_certificate(&group, &cert), "set {who:?}");
        }
    }

    #[test]
    fn forged_tally_fails_verification() {
        let (group, shares) = deal();
        let tally = tally_bytes();
        let cert =
            assemble_certificate(&group, &replies(&shares, &[1, 2], &tally)).expect("assemble");
        let mut forged = cert.clone();
        forged.tally_bytes[12] ^= 0xff;
        assert!(!verify_certificate(&group, &forged));
    }

    #[test]
    fn single_replica_cannot_certify() {
        let (group, shares) = deal();
        let tally = tally_bytes();
        let err = assemble_certificate(&group, &replies(&shares, &[2], &tally)).unwrap_err();
        assert!(matches!(err, CertificateError::Threshold(_)));
    }

    #[test]
    fn mismatched_tallies_detected() {
        let (group, shares) = deal();
        let tally = tally_bytes();
        let mut rs = replies(&shares, &[1, 2], &tally);
        rs[1].tally[9] ^= 1;
        assert_eq!(
            assemble_certificate(&group, &rs),
            Err(CertificateError::TallyMismatch)
        );
    }

    #[test]
    fn reply_encoding_roundtrips() {
        let (_, shares) = deal();
        let reply = CertifyReply {
            partial: partial_sign(&shares[0], &[1, 2]),
            tally: tally_bytes(),
        };
        assert_eq!(CertifyReply::decode(&reply.encode()), Some(reply));
        assert_eq!(CertifyReply::decode(&[1, 2, 3]), None);
    }
}

//! Property tests for the hot-path wire layer and batch authenticators.
//!
//! Four families of properties back the encode-once send path and the one
//! packet decoder:
//!
//! 1. **Roundtrip**: every message kind under every trailer kind survives
//!    `encode_prefix → seal → PacketView::parse` — same sender, message,
//!    trailer, prefix span and body span.
//! 2. **Hostile input**: every single-byte flip, truncation and extension
//!    of a sealed packet of each kind is either rejected or accepted as
//!    *something* — never a panic — and whatever is accepted re-seals to a
//!    packet that parses to the same envelope.
//! 3. **Equivalence**: the multicast authenticator (one MAC per peer over
//!    the whole prefix, however many requests its batch carries) verifies
//!    exactly like a per-message MAC computed directly under the pairwise
//!    key, and verifies through the borrowed wire-form trailer.
//! 4. **Tamper rejection**: changing any prefix byte (including any batch
//!    element of a pre-prepare and the sender bytes) or truncating the
//!    prefix is rejected by *every* peer; corrupting an authenticator entry
//!    is rejected by *exactly* the addressed peer and no one else — driven
//!    both at the key-store layer and end-to-end through both consensus
//!    engines' `handle_packet`.
//!
//! And one for the reply path: a **vouch** (a reply with its result
//! omitted) binds its replica to exactly the result bytes its tag covers,
//! and its tag never passes for the full reply's, nor the reverse.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

use pbft_core::app::{NonDet, NullApp};
use pbft_core::keys::{replica_pair_key, ClientKeys, KeyStore};
use pbft_core::messages::view::{AuthView, PacketView};
use pbft_core::messages::{
    AuthTag, BatchEntry, BodyFetchMsg, CheckpointMsg, CommitMsg, FetchMsg, FetchRespMsg, NewKeyMsg,
    NewViewMsg, PrePrepareMsg, PrepareMsg, PreparedProof, QuorumCertMsg, ReplyMsg, Sender,
    StatusMsg, ViewChangeMsg,
};
use pbft_core::replica::LIB_REGION_PAGES;
use pbft_core::{
    AuthMode, ClientId, Engine, Envelope, Message, OpCounts, Operation, PbftConfig, Replica,
    ReplicaId, RequestMsg,
};
use pbft_crypto::challenge::ChallengeResponse;
use pbft_crypto::{Digest, KeyPair, Mac64, PublicKey};
use pbft_state::{FetchRequest, FetchResponse, PagedState};
use propcheck::{check, Gen};

const SEED: u64 = 0x11EE;

// ---------------------------------------------------------------------------
// Generators
// ---------------------------------------------------------------------------

fn gen_digest(g: &mut Gen) -> Digest {
    Digest::of(&g.bytes(1..33))
}

/// A packet carrying `auth` behind a stand-in message: parsing it gives
/// the trailer as a receiver borrows it off the wire, to verify against
/// whatever prefix a property chooses.
fn carrier(auth: &AuthTag) -> Vec<u8> {
    let msg = Message::Checkpoint(CheckpointMsg {
        seq: 0,
        root: Digest::of(b""),
        replica: ReplicaId(0),
    });
    Envelope::seal(Envelope::encode_prefix(Sender::Anonymous, &msg), auth)
}

fn borrowed(packet: &[u8]) -> AuthView<'_> {
    PacketView::parse(packet)
        .expect("a sealed packet parses")
        .auth
}

fn gen_mac(g: &mut Gen) -> Mac64 {
    Mac64::from_bytes(g.byte_array::<8>())
}

fn gen_operation(g: &mut Gen) -> Operation {
    match g.choice(5) {
        0 => Operation::App(g.bytes(0..64)),
        1 => Operation::Noop,
        2 => Operation::JoinPhase1 {
            pubkey: PublicKey::from_bytes(&g.byte_array::<16>()),
            nonce: g.u64(),
            reply_addr: g.u32(),
            idbuf: g.bytes(0..32),
        },
        3 => Operation::JoinPhase2 {
            fingerprint: gen_digest(g),
            response: ChallengeResponse(gen_digest(g)),
        },
        _ => Operation::Leave,
    }
}

fn gen_request(g: &mut Gen) -> RequestMsg {
    RequestMsg {
        client: ClientId(g.u64_in(0..1000)),
        timestamp: g.u64(),
        read_only: g.bool(),
        reply_addr: g.u32(),
        op: gen_operation(g),
    }
}

fn gen_preprepare(g: &mut Gen) -> PrePrepareMsg {
    PrePrepareMsg {
        view: g.u64_in(0..100),
        seq: g.u64_in(0..10_000),
        nondet: NonDet {
            timestamp_ns: g.u64(),
            random: g.u64(),
        },
        entries: g.vec(0..4, |g| BatchEntry {
            digest: gen_digest(g),
            client: ClientId(g.u64_in(0..1000)),
            timestamp: g.u64(),
            full: if g.bool() { Some(gen_request(g)) } else { None },
        }),
    }
}

fn gen_viewchange(g: &mut Gen) -> ViewChangeMsg {
    ViewChangeMsg {
        new_view: g.u64_in(1..100),
        last_stable_seq: g.u64_in(0..10_000),
        stable_root: gen_digest(g),
        prepared: g.vec(0..3, |g| PreparedProof {
            preprepare: gen_preprepare(g),
        }),
        replica: ReplicaId(g.u32() % 7),
    }
}

fn gen_qc(g: &mut Gen) -> QuorumCertMsg {
    QuorumCertMsg {
        view: g.u64_in(0..100),
        seq: g.u64_in(0..10_000),
        digest: gen_digest(g),
        voters: g.vec(0..5, |g| ReplicaId(g.u32() % 7)),
    }
}

/// A random message of the given wire discriminant (1..=16).
fn gen_message(g: &mut Gen, disc: u8) -> Message {
    match disc {
        1 => Message::Request(gen_request(g)),
        2 => Message::PrePrepare(gen_preprepare(g)),
        3 => Message::Prepare(PrepareMsg {
            view: g.u64_in(0..100),
            seq: g.u64_in(0..10_000),
            digest: gen_digest(g),
            replica: ReplicaId(g.u32() % 7),
        }),
        4 => Message::Commit(CommitMsg {
            view: g.u64_in(0..100),
            seq: g.u64_in(0..10_000),
            digest: gen_digest(g),
            replica: ReplicaId(g.u32() % 7),
        }),
        5 => Message::Reply(ReplyMsg {
            view: g.u64_in(0..100),
            client: ClientId(g.u64_in(0..1000)),
            timestamp: g.u64(),
            replica: ReplicaId(g.u32() % 7),
            tentative: g.bool(),
            body_omitted: g.bool(),
            result: g.bytes(0..128),
        }),
        6 => Message::Checkpoint(CheckpointMsg {
            seq: g.u64_in(0..10_000),
            root: gen_digest(g),
            replica: ReplicaId(g.u32() % 7),
        }),
        7 => Message::ViewChange(gen_viewchange(g)),
        8 => Message::NewView(NewViewMsg {
            view: g.u64_in(1..100),
            view_changes: g.vec(0..3, gen_viewchange),
            pre_prepares: g.vec(0..3, gen_preprepare),
        }),
        9 => Message::NewKey(NewKeyMsg {
            client: ClientId(g.u64_in(0..1000)),
            reply_addr: g.u32(),
            keys: g.vec(0..7, |g| g.byte_array::<32>()),
        }),
        10 => Message::Status(StatusMsg {
            replica: ReplicaId(g.u32() % 7),
            view: g.u64_in(0..100),
            last_stable_seq: g.u64_in(0..10_000),
            stable_root: gen_digest(g),
            last_executed: g.u64_in(0..10_000),
            in_view_change: g.bool(),
        }),
        11 => Message::Fetch(FetchMsg {
            target_seq: g.u64_in(0..10_000),
            req: if g.bool() {
                FetchRequest::Meta {
                    level: g.u32() % 20,
                    indices: g.vec(0..6, |g| g.u64_in(0..1 << 20)),
                }
            } else {
                FetchRequest::Page {
                    index: g.u64_in(0..1 << 20),
                }
            },
            replica: ReplicaId(g.u32() % 7),
        }),
        12 => Message::FetchResp(FetchRespMsg {
            target_seq: g.u64_in(0..10_000),
            resp: match g.choice(3) {
                0 => FetchResponse::Meta {
                    level: g.u32() % 20,
                    nodes: g.vec(0..6, |g| {
                        (g.u64_in(0..1 << 20), gen_digest(g), gen_digest(g))
                    }),
                },
                1 => FetchResponse::Page {
                    index: g.u64_in(0..1 << 20),
                    data: if g.bool() {
                        Some(Arc::new(g.bytes(0..256)))
                    } else {
                        None
                    },
                },
                _ => FetchResponse::Unavailable,
            },
            replica: ReplicaId(g.u32() % 7),
        }),
        13 => Message::BodyFetch(BodyFetchMsg {
            digest: gen_digest(g),
            replica: ReplicaId(g.u32() % 7),
        }),
        14 => Message::BodyResp(gen_request(g)),
        15 => Message::PrepareQC(gen_qc(g)),
        _ => Message::CommitQC(gen_qc(g)),
    }
}

fn gen_sender(g: &mut Gen) -> Sender {
    match g.choice(3) {
        0 => Sender::Replica(ReplicaId(g.u32() % 7)),
        1 => Sender::Client(ClientId(g.u64_in(0..1000))),
        _ => Sender::Anonymous,
    }
}

/// A random auth trailer of the given kind (0..4). Signatures come from a
/// real key pair so the trailer is canonical wire form; MACs/authenticators
/// can be arbitrary bytes (roundtrip does not verify them).
fn gen_auth(g: &mut Gen, prefix: &[u8], kind: usize) -> AuthTag {
    match kind {
        0 => AuthTag::None,
        1 => AuthTag::Mac(gen_mac(g)),
        2 => {
            let n = g.usize_in(0..8);
            let entries = (0..n).map(|i| (i as u32, gen_mac(g))).collect();
            AuthTag::Authenticator(pbft_crypto::Authenticator::from_entries(entries))
        }
        _ => AuthTag::Sig(KeyPair::generate(g.u64()).sign(prefix)),
    }
}

// ---------------------------------------------------------------------------
// 1. Roundtrip: every message kind × every trailer kind
// ---------------------------------------------------------------------------

#[test]
fn prop_every_message_kind_roundtrips() {
    check("wire_roundtrip_all_kinds", 16, |g| {
        for disc in 1u8..=16 {
            for trailer in 0..4 {
                let msg = gen_message(g, disc);
                assert_eq!(msg.discriminant(), disc);
                let sender = gen_sender(g);
                let prefix = Envelope::encode_prefix(sender, &msg);
                assert_eq!(prefix[0], disc, "discriminant is the first wire byte");
                let auth = gen_auth(g, &prefix, trailer);
                let packet = Envelope::seal(prefix.clone(), &auth);
                assert!(packet.starts_with(&prefix), "sealing appends in place");

                let view = PacketView::parse(&packet).expect("roundtrip parses");
                assert_eq!(view.sender, sender);
                assert_eq!(view.msg, msg, "kind {} roundtrips", msg.name());
                assert_eq!(view.auth.to_tag(), auth);
                assert_eq!(view.prefix(), &prefix[..]);
                assert!(prefix.ends_with(view.body()), "the body closes the prefix");
            }
        }
    });
}

// ---------------------------------------------------------------------------
// 2. Hostile input: mutations never panic, and what parses is canonical
// ---------------------------------------------------------------------------

/// Feed one hostile packet to the decoder. Rejection is fine; acceptance
/// must be of a well-formed envelope — one that survives its own re-seal.
fn parse_hostile(packet: &[u8]) {
    let Ok(view) = PacketView::parse(packet) else {
        return;
    };
    let auth = view.auth.to_tag();
    let resealed = Envelope::seal(Envelope::encode_prefix(view.sender, &view.msg), &auth);
    let again = PacketView::parse(&resealed).expect("a re-sealed envelope parses");
    assert_eq!(again.sender, view.sender);
    assert_eq!(again.msg, view.msg);
    assert_eq!(again.auth.to_tag(), auth);
}

#[test]
fn prop_hostile_mutations_never_panic() {
    check("wire_hostile_input", 8, |g| {
        for disc in 1u8..=16 {
            let msg = gen_message(g, disc);
            let prefix = Envelope::encode_prefix(gen_sender(g), &msg);
            let trailer = g.choice(4);
            let auth = gen_auth(g, &prefix, trailer);
            let packet = Envelope::seal(prefix, &auth);

            // Every byte, flipped (a random non-zero mask per position).
            let mut flipped = packet.clone();
            for pos in 0..packet.len() {
                flipped[pos] ^= g.u8_in(1..u8::MAX);
                parse_hostile(&flipped);
                flipped[pos] = packet[pos];
            }
            // Every truncation: a sealed packet has no proper prefix that
            // is itself a packet.
            for cut in 0..packet.len() {
                assert!(
                    PacketView::parse(&packet[..cut]).is_err(),
                    "{} cut at {cut} of {}",
                    msg.name(),
                    packet.len()
                );
            }
            // Extensions: trailing bytes are never silently ignored.
            let mut extended = packet.clone();
            for _ in 0..8 {
                extended.push(g.u8());
                assert!(PacketView::parse(&extended).is_err());
            }
        }
    });
}

// ---------------------------------------------------------------------------
// 3. Batched authenticator ≡ per-message MACs
// ---------------------------------------------------------------------------

#[test]
fn prop_batch_authenticator_equivalent_to_per_message_macs() {
    check("authenticator_equivalence", 128, |g| {
        let n = g.usize_in(4..8);
        let s = ReplicaId(g.u32() % n as u32);
        let seed = g.u64();
        // An arbitrarily long prefix stands in for a batch of any size: the
        // authenticator MACs it directly and hashes nothing.
        let prefix = g.bytes(1..2048);
        let sender = KeyStore::new_replica(seed, s, n, &[]);

        let mut counts = OpCounts::default();
        let auth = sender.seal_multicast(AuthMode::Macs, &prefix, &mut counts);
        assert_eq!(counts.mac_gen, n as u64 - 1, "one MAC per peer");
        assert_eq!(counts.digest_bytes, 0, "a seal hashes nothing");
        let AuthTag::Authenticator(vector) = &auth else {
            panic!("MAC mode seals an authenticator");
        };
        let packet = carrier(&auth);

        for j in 0..n as u32 {
            if j == s.0 {
                continue;
            }
            let peer = ReplicaId(j);
            // The vectored entry IS the per-message MAC: the same pairwise
            // key over the same prefix.
            let per_message = replica_pair_key(seed, s, peer).mac(&prefix, 0);
            assert_eq!(
                vector.tag_for(j),
                Some(per_message),
                "vector entry for peer {j} equals a directly-computed MAC"
            );

            // The peer verifies its entry in the borrowed trailer.
            let store = KeyStore::new_replica(seed, peer, n, &[]);
            assert!(store.verify_replica(s, &prefix, borrowed(&packet), &mut counts));
        }

        // The wire form agrees too: seal a real protocol message, parse it
        // borrowed, and extract each peer's MAC without materializing the
        // vector.
        let msg = Message::Checkpoint(CheckpointMsg {
            seq: g.u64_in(0..10_000),
            root: gen_digest(g),
            replica: s,
        });
        let msg_prefix = Envelope::encode_prefix(Sender::Replica(s), &msg);
        let msg_auth = sender.seal_multicast(AuthMode::Macs, &msg_prefix, &mut counts);
        let AuthTag::Authenticator(msg_vector) = &msg_auth else {
            panic!("MAC mode seals an authenticator");
        };
        let packet = Envelope::seal(msg_prefix, &msg_auth);
        let view = PacketView::parse(&packet).expect("sealed packet parses");
        let AuthView::Authenticator { count, .. } = view.auth else {
            panic!("authenticator survives the wire");
        };
        assert_eq!(count, n - 1);
        for j in 0..n as u32 {
            if j == s.0 {
                continue;
            }
            assert_eq!(view.auth.mac_for(j), msg_vector.tag_for(j));
        }
        assert_eq!(view.auth.to_tag(), msg_auth);
    });
}

// ---------------------------------------------------------------------------
// 4. Tampering: any prefix byte → everyone rejects; any authenticator
//    entry → exactly the addressed peer rejects
// ---------------------------------------------------------------------------

#[test]
fn prop_tampered_prefix_rejected_by_every_peer() {
    check("tamper_prefix_all_reject", 96, |g| {
        let n = g.usize_in(4..8);
        let s = ReplicaId(g.u32() % n as u32);
        let seed = g.u64();
        // Half the cases tamper a batch element of a real pre-prepare —
        // the agreement-critical payload — the rest arbitrary bytes.
        let prefix = if g.bool() {
            let mut pp = gen_preprepare(g);
            if pp.entries.is_empty() {
                pp.entries.push(BatchEntry {
                    digest: gen_digest(g),
                    client: ClientId(1),
                    timestamp: 1,
                    full: None,
                });
            }
            Envelope::encode_prefix(Sender::Replica(s), &Message::PrePrepare(pp))
        } else {
            g.bytes(8..512)
        };
        let sender = KeyStore::new_replica(seed, s, n, &[]);
        let mut counts = OpCounts::default();
        let packet = carrier(&sender.seal_multicast(AuthMode::Macs, &prefix, &mut counts));

        let mut tampered = prefix.clone();
        let pos = g.index(tampered.len());
        tampered[pos] ^= 1 << g.choice(8);

        for j in 0..n as u32 {
            if j == s.0 {
                continue;
            }
            let store = KeyStore::new_replica(seed, ReplicaId(j), n, &[]);
            assert!(
                !store.verify_replica(s, &tampered, borrowed(&packet), &mut counts),
                "peer {j} must reject a prefix with byte {pos} flipped"
            );
        }
    });
}

/// The entries MAC the whole sealed prefix: changing any one byte of a
/// protocol message's prefix to any other value — the discriminant and the
/// sender bytes included — or cutting it anywhere fails every peer's entry.
#[test]
fn prop_changed_or_truncated_prefix_fails_every_entry() {
    check("changed_or_truncated_prefix", 32, |g| {
        let n = g.usize_in(4..8);
        let s = ReplicaId(g.u32() % n as u32);
        let seed = g.u64();
        let msg = if g.bool() {
            Message::PrePrepare(gen_preprepare(g))
        } else {
            Message::Checkpoint(CheckpointMsg {
                seq: g.u64_in(0..10_000),
                root: gen_digest(g),
                replica: s,
            })
        };
        let prefix = Envelope::encode_prefix(Sender::Replica(s), &msg);
        let sender = KeyStore::new_replica(seed, s, n, &[]);
        let mut counts = OpCounts::default();
        let packet = carrier(&sender.seal_multicast(AuthMode::Macs, &prefix, &mut counts));
        let auth = borrowed(&packet);
        let peers: Vec<KeyStore> = (0..n as u32)
            .filter(|&j| j != s.0)
            .map(|j| KeyStore::new_replica(seed, ReplicaId(j), n, &[]))
            .collect();
        let rejected_by_all = |bytes: &[u8], counts: &mut OpCounts| {
            peers
                .iter()
                .all(|store| !store.verify_replica(s, bytes, auth, counts))
        };
        assert!(peers
            .iter()
            .all(|store| store.verify_replica(s, &prefix, auth, &mut counts)));
        let mut changed = prefix.clone();
        for pos in 0..prefix.len() {
            changed[pos] ^= g.u8_in(1..u8::MAX);
            assert!(
                rejected_by_all(&changed, &mut counts),
                "{}: byte {pos} of {} changed",
                msg.name(),
                prefix.len()
            );
            changed[pos] = prefix[pos];
        }
        for cut in 0..prefix.len() {
            assert!(
                rejected_by_all(&prefix[..cut], &mut counts),
                "{}: cut at {cut} of {}",
                msg.name(),
                prefix.len()
            );
        }
    });
}

#[test]
fn prop_tampered_entry_rejected_by_exactly_the_addressed_peer() {
    check("tamper_entry_exact_peer", 96, |g| {
        let n = g.usize_in(4..8);
        let s = ReplicaId(g.u32() % n as u32);
        let seed = g.u64();
        let prefix = g.bytes(8..512);
        let sender = KeyStore::new_replica(seed, s, n, &[]);
        let mut counts = OpCounts::default();
        let auth = sender.seal_multicast(AuthMode::Macs, &prefix, &mut counts);
        let AuthTag::Authenticator(vector) = &auth else {
            panic!("MAC mode seals an authenticator");
        };

        // Corrupt one randomly chosen entry of the vector.
        let mut entries: Vec<(u32, Mac64)> = vector.iter().collect();
        let victim_pos = g.index(entries.len());
        let victim = entries[victim_pos].0;
        let mut mac_bytes = entries[victim_pos].1.to_bytes();
        mac_bytes[g.index(8)] ^= 1 << g.choice(8);
        entries[victim_pos].1 = Mac64::from_bytes(mac_bytes);
        let tampered = carrier(&AuthTag::Authenticator(
            pbft_crypto::Authenticator::from_entries(entries),
        ));

        for j in 0..n as u32 {
            if j == s.0 {
                continue;
            }
            let store = KeyStore::new_replica(seed, ReplicaId(j), n, &[]);
            let ok = store.verify_replica(s, &prefix, borrowed(&tampered), &mut counts);
            if j == victim {
                assert!(!ok, "the addressed peer {j} must reject its corrupted MAC");
            } else {
                assert!(
                    ok,
                    "peer {j} must still accept: only entry {victim} was corrupted"
                );
            }
        }
    });
}

// ---------------------------------------------------------------------------
// 5. End-to-end through both engines: handle_packet rejects tampering with
//    an auth_failures tick at exactly the right replica
// ---------------------------------------------------------------------------

fn build_group(engine: Engine) -> Vec<Replica> {
    let cfg = PbftConfig {
        engine,
        ..PbftConfig::default()
    };
    (0..cfg.n() as u32)
        .map(|i| {
            let state: pbft_core::app::StateHandle = Rc::new(RefCell::new(PagedState::new(
                LIB_REGION_PAGES as usize + 16,
            )));
            let app = Box::new(NullApp::new(8));
            Replica::new(cfg.clone(), SEED, ReplicaId(i), state, app, &[])
        })
        .collect()
}

/// A sealed checkpoint multicast from replica 0, as its own KeyStore (same
/// deterministic derivation the engines use) would emit it.
fn sealed_checkpoint(g: &mut Gen, n: usize) -> (Vec<u8>, Vec<u8>, AuthTag) {
    let cfg = PbftConfig::default();
    let msg = Message::Checkpoint(CheckpointMsg {
        seq: cfg.checkpoint_interval,
        root: gen_digest(g),
        replica: ReplicaId(0),
    });
    let prefix = Envelope::encode_prefix(Sender::Replica(ReplicaId(0)), &msg);
    let keys = KeyStore::new_replica(SEED, ReplicaId(0), n, &[]);
    let mut counts = OpCounts::default();
    let auth = keys.seal_multicast(AuthMode::Macs, &prefix, &mut counts);
    let packet = Envelope::seal(prefix.clone(), &auth);
    (packet, prefix, auth)
}

fn engine_tamper_property(engine: Engine) {
    let label = engine.name();
    check(&format!("engine_tamper_{label}"), 24, |g| {
        let mut engines = build_group(engine);
        let n = engines.len();
        let (packet, prefix, auth) = sealed_checkpoint(g, n);

        // Pristine packet: every backup accepts (no auth failure).
        for (i, e) in engines.iter_mut().enumerate().skip(1) {
            let _ = e.handle_packet(&packet, 1_000);
            assert_eq!(
                e.metrics().auth_failures,
                0,
                "{label} replica {i} accepts the untampered checkpoint"
            );
        }

        // Body tamper: flip one random prefix byte — every peer rejects.
        let mut body_bad = packet.clone();
        let pos = g.index(prefix.len());
        body_bad[pos] ^= 1 << g.choice(8);
        // Skip flips that corrupt framing instead of content: those die in
        // the decoder (decode_failures), which is an equally hard rejection
        // but not the authentication property under test.
        if PacketView::parse(&body_bad).is_ok() {
            for (i, e) in engines.iter_mut().enumerate().skip(1) {
                let before = e.metrics().auth_failures;
                let res = e.handle_packet(&body_bad, 2_000);
                assert!(
                    res.outputs.is_empty(),
                    "tampered packet produces no outputs"
                );
                assert_eq!(
                    e.metrics().auth_failures,
                    before + 1,
                    "{label} replica {i} rejects a checkpoint with prefix byte {pos} flipped"
                );
            }
        }

        // Entry tamper: corrupt the MAC addressed to one backup — that
        // backup alone counts an auth failure; the others accept.
        let AuthTag::Authenticator(vector) = &auth else {
            panic!("MAC mode seals an authenticator");
        };
        let mut entries: Vec<(u32, Mac64)> = vector.iter().collect();
        let victim_pos = g.index(entries.len());
        let victim = entries[victim_pos].0;
        let mut mac_bytes = entries[victim_pos].1.to_bytes();
        mac_bytes[g.index(8)] ^= 1 << g.choice(8);
        entries[victim_pos].1 = Mac64::from_bytes(mac_bytes);
        let tampered_auth =
            AuthTag::Authenticator(pbft_crypto::Authenticator::from_entries(entries));
        let entry_bad = Envelope::seal(prefix.clone(), &tampered_auth);

        for (i, e) in engines.iter_mut().enumerate().skip(1) {
            let before = e.metrics().auth_failures;
            let _ = e.handle_packet(&entry_bad, 3_000);
            let expected = if i as u32 == victim {
                before + 1
            } else {
                before
            };
            assert_eq!(
                e.metrics().auth_failures,
                expected,
                "{label} replica {i}: only the peer addressed by the corrupted \
                 entry ({victim}) may reject"
            );
        }
    });
}

#[test]
fn prop_engine_rejects_tampering_pbft() {
    engine_tamper_property(Engine::Pbft);
}

#[test]
fn prop_engine_rejects_tampering_linear() {
    engine_tamper_property(Engine::Linear);
}

// ---------------------------------------------------------------------------
// 6. Vouches: a body-less reply's tag covers exactly its result
// ---------------------------------------------------------------------------

/// A vouch sealed by replica `r` over its prefix and result `B` verifies
/// for `B` and for nothing else: not for any one-byte change, truncation
/// or extension of `B`, not under any one-byte change of its prefix (the
/// `body_omitted` flag included), and not as the full reply's tag — nor
/// does the full reply's tag pass as the vouch's.
#[test]
fn prop_vouch_verifies_for_exactly_its_result() {
    check("vouch_binds_its_result", 48, |g| {
        let n = g.usize_in(4..8);
        let r = ReplicaId(g.u32() % n as u32);
        let client = ClientId(g.u64_in(0..1000));
        let seed = g.u64();
        let mode = if g.choice(4) == 0 {
            AuthMode::Signatures
        } else {
            AuthMode::Macs
        };
        let body = g.bytes(0..300);
        let header = ReplyMsg {
            view: g.u64_in(0..100),
            client,
            timestamp: g.u64(),
            replica: r,
            tentative: g.bool(),
            body_omitted: true,
            result: Vec::new(),
        };
        let full = ReplyMsg {
            body_omitted: false,
            result: body.clone(),
            ..header.clone()
        };
        let prefix_of =
            |m: &ReplyMsg| Envelope::encode_prefix(Sender::Replica(r), &Message::Reply(m.clone()));
        let (prefix, full_prefix) = (prefix_of(&header), prefix_of(&full));
        let replica = KeyStore::new_replica(seed, r, n, &[client]);
        let keys = ClientKeys::new(seed, client, n);
        let mut counts = OpCounts::default();
        let tag = replica.seal_to_client(mode, client, &prefix, &body, &mut counts);
        let full_tag = replica.seal_to_client(mode, client, &full_prefix, &[], &mut counts);
        let mut verifies = |prefix: &[u8], result: &[u8], tag: &AuthTag| {
            keys.verify_reply(r, prefix, result, tag, &mut counts)
        };
        assert!(verifies(&prefix, &body, &tag));
        assert!(verifies(&full_prefix, &[], &full_tag));
        assert!(
            !verifies(&full_prefix, &[], &tag),
            "a vouch's tag as the full reply's"
        );
        assert!(
            !verifies(&prefix, &body, &full_tag),
            "a full reply's tag as a vouch's"
        );
        let mut changed = body.clone();
        for pos in 0..body.len() {
            changed[pos] ^= g.u8_in(1..u8::MAX);
            assert!(
                !verifies(&prefix, &changed, &tag),
                "result byte {pos} changed"
            );
            changed[pos] = body[pos];
        }
        for cut in 0..body.len() {
            assert!(
                !verifies(&prefix, &body[..cut], &tag),
                "result cut at {cut}"
            );
        }
        let mut longer = body.clone();
        for _ in 0..g.usize_in(1..40) {
            longer.push(g.u8_in(0..u8::MAX));
            assert!(
                !verifies(&prefix, &longer, &tag),
                "result extended to {}",
                longer.len()
            );
        }
        let mut changed = prefix.clone();
        for pos in 0..prefix.len() {
            changed[pos] ^= g.u8_in(1..u8::MAX);
            assert!(
                !verifies(&changed, &body, &tag),
                "prefix byte {pos} changed"
            );
            changed[pos] = prefix[pos];
        }
    });
}

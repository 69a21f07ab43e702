//! From-scratch cryptographic substrate for the PBFT reproduction.
//!
//! The original PBFT library (Castro & Liskov, 1999) shipped with its own
//! implementations of the Rabin cryptosystem (asymmetric signatures), UMAC32
//! (fast message authentication) and MD5 (digests). This crate plays the same
//! role for the reproduction:
//!
//! * [`mod@sha256`] — a real SHA-256 implementation used for all digests
//!   (standing in for MD5, which is broken and adds nothing to the protocol).
//!   On x86-64 CPUs with the SHA extensions the compression function runs on
//!   them (detected at run time); everywhere else, a portable scalar loop.
//! * [`hmac`] — HMAC-SHA256, used for key derivation and strong MACs; a key
//!   used repeatedly is absorbed once ([`hmac::HmacKey`]).
//! * [`fastmac`] — a UMAC-style polynomial MAC producing 64-bit tags; this is
//!   the cheap per-receiver MAC that PBFT authenticators are built from.
//! * [`sig`] — an RSA signature scheme over small (64-bit) moduli with real
//!   modular arithmetic, standing in for Rabin-768. The key size is
//!   simulation-grade, not production-grade; see the module docs.
//! * [`auth`] — PBFT *authenticators*: one fast MAC per receiving replica.
//! * [`threshold`] — an (f+1, n) threshold signature scheme built on Shamir
//!   secret sharing, the mechanism the paper (§3.3.1) proposes for
//!   replica-side key material.
//! * [`challenge`] — the challenge–response helpers used by the dynamic
//!   client membership Join protocol (paper §3.1).
//!
//! Everything here is deterministic given explicit seeds, which is what makes
//! the protocol-level experiments reproducible. That includes the choice of
//! back end: the hardware and the portable paths produce the same bits, and
//! the unit tests pin digests, HMACs and tags as literals and cross-check the
//! paths against each other (`cargo test -p pbft_crypto crosscheck`).
//!
//! The workspace's only `unsafe` is the SHA-NI module inside
//! [`mod@sha256`]; it is denied everywhere else in this crate and forbidden in
//! every other crate.

#![deny(unsafe_code)]

pub mod auth;
pub mod challenge;
pub mod fastmac;
pub mod hmac;
pub mod rng;
pub mod sha256;
pub mod sig;
pub mod threshold;

pub use auth::{Authenticator, MacKey};
pub use fastmac::Mac64;
pub use sha256::{sha256, Digest, Sha256};
pub use sig::{KeyPair, PublicKey, SigError, Signature};

//! The distributed Internet e-voting service — the paper's motivating
//! application (§1): "clients (on behalf of users/voters) connect to the
//! voting service, view the election procedures to which they have a right
//! to participate, send the user's vote, and potentially reconnect at a
//! later point to view the progress and/or results of the election."
//!
//! The service is built on the full stack this repository reproduces:
//! dynamic client membership for voter sign-on (§3.1, with the
//! identification buffer carrying credentials checked against a replicated
//! voter registry), the SQL state abstraction for ACID vote storage (§3.2 —
//! a cast vote is exactly the paper's benchmark row: key, value, timestamp,
//! random), and deterministic `now()`/`random()` from the agreed
//! non-deterministic data (§2.5).
//!
//! Voter identity is bound server-side: the replicas record the vote under
//! the *session's* client id, so a malicious client cannot vote on someone
//! else's behalf by crafting operations.

#![forbid(unsafe_code)]

mod app;
mod ops;

pub mod certificate;

pub use app::{EvotingApp, EVOTING_SCHEMA};
pub use certificate::{assemble_certificate, verify_certificate, CertifyReply, TallyCertificate};
pub use ops::{cross_precinct_ballot, decode_tally, idbuf, VoteOp};

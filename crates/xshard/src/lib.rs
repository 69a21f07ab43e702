//! The cross-shard layer: everything a multi-group deployment adds on top
//! of one PBFT group, built on `pbft_core`'s public application interface
//! and nothing else.
//!
//! * [`routing`] — the deterministic key → group map
//!   ([`routing::ShardMap`]) every client and replica of a sharded
//!   deployment computes alike, and its epoch-stamped range table that
//!   live splits grow.
//! * [`xshard`] — deterministic two-phase commit and resharding across
//!   groups as an [`pbft_core::App`] wrapper ([`xshard::XShardApp`]): the
//!   lock-and-log participant state machine, the replicated coordinator
//!   decision record, and the wire framing that carries both inside
//!   ordinary ordered operations.
//!
//! The consensus crate orders opaque operations and never parses that
//! framing. The one thing a replica needs to know about an operation before
//! it commits — which keys it writes, for the read-only contention gate —
//! it asks through [`pbft_core::App::declared_effects`], which the wrapper
//! answers from the frame. The wrapper's tables live in the section
//! `pbft_core` reserves for an application wrapper
//! ([`pbft_core::replica::APP_WRAPPER_PAGES`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod routing;
pub mod xshard;

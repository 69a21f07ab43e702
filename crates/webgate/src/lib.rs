//! Web-application support for the replicated service — the missing piece
//! the paper's §3.3.3 calls out.
//!
//! "Our end goal is to provide a web application to end users. ... the
//! browser-hosted part of the application, typically written in JavaScript,
//! will have to directly access each and every replica. This communication
//! however cannot be carried over UDP. ... Higher level protocols, such as
//! WebSocket, and structures like JSON or XML need to be used. Support for
//! these technologies needs to be incorporated in the middleware library, a
//! task not so trivial because of the need to switch from a point-to-point
//! message-based communication to a connected channel-oriented
//! communication."
//!
//! This crate incorporates exactly that support, dependency-free:
//!
//! * [`json`] — a JSON value/parser/serializer (canonical output);
//! * [`frame`] — WebSocket-style framing over byte streams, with a
//!   reassembler for fragmented delivery;
//! * [`bridge`] — the translation between bridged JSON text frames and the
//!   canonical binary protocol messages, preserving authentication
//!   end-to-end (clients sign the canonical bytes; replicas verify exactly
//!   those bytes), plus the per-channel replica endpoint.
//!
//! There is intentionally no gateway or proxy process: the paper rejects
//! centralized components, so every replica terminates channels itself and
//! the browser client fans out to all of them (the paper also notes the
//! cryptography must move "from Rabin to more widely available
//! cryptosystems, such as RSA" — this workspace's `pbft_crypto` signature
//! scheme is RSA-shaped for the same reason).
//!
//! # Example
//!
//! ```
//! use webgate::bridge::{packet_to_json, json_to_packet};
//! use pbft_core::messages::{AuthTag, RequestMsg, Sender};
//! use pbft_core::{ClientId, Envelope, Message, Operation};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let msg = Message::Request(RequestMsg {
//!     client: ClientId(1),
//!     timestamp: 1,
//!     read_only: false,
//!     reply_addr: 100,
//!     op: Operation::App(b"vote".to_vec()),
//! });
//! let prefix = Envelope::encode_prefix(Sender::Client(ClientId(1)), &msg);
//! let packet = Envelope::seal(prefix, &AuthTag::None);
//! let as_json = packet_to_json(&packet)?;
//! assert_eq!(json_to_packet(&as_json)?, packet);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

pub mod bridge;
pub mod frame;
pub mod json;

pub use bridge::{frame_to_packet, packet_to_frame, BridgeError, ChannelEndpoint};
pub use frame::{ChannelBuf, Frame, Opcode};
pub use json::{parse, Json, ParseJsonError};

//! The JSON-over-channel bridge between browser-hosted clients and the
//! replicated service.
//!
//! Paper §3.3.3: "the browser-hosted part of the application, typically
//! written in JavaScript, will have to directly access each and every
//! replica" — there is deliberately **no** central gateway component (the
//! paper rejects Thema-style agents/proxies as "centralized components which
//! are inappropriate for applications such as ours"). Instead each replica
//! terminates channels itself and the web client fans out to all of them.
//!
//! A message on a channel is a [`Frame`] whose text payload is a JSON
//! object:
//!
//! ```json
//! {"proto":"pbft-web/1","kind":"request","seq":42,
//!  "prefix":"<hex canonical bytes>","auth":"<hex signature/authenticator>"}
//! ```
//!
//! `prefix` carries the protocol message in its canonical binary encoding —
//! the bytes signatures are computed over. Authentication therefore works
//! end-to-end: the replica verifies exactly what the client signed, and
//! tampering with any field breaks the quorum check just as it does on the
//! datagram transport. Structured summary fields (`kind`, `client`,
//! `timestamp`) are included for observability; the wire truth is `prefix` +
//! `auth`.

use pbft_core::messages::view::PacketView;
use pbft_core::{Message, Output};

use crate::frame::{ChannelBuf, Frame, FrameError, Opcode};
use crate::json::{self, Json};

/// Protocol identifier carried by every bridged message.
pub const PROTO: &str = "pbft-web/1";

/// Bridge errors.
#[derive(Debug, Clone, PartialEq)]
pub enum BridgeError {
    /// The frame payload is not UTF-8 JSON.
    NotJson(String),
    /// The JSON object is missing fields or malformed.
    BadMessage(String),
    /// The reconstructed packet does not decode as a protocol message.
    BadPacket,
    /// Channel framing failure.
    Frame(FrameError),
}

impl std::fmt::Display for BridgeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BridgeError::NotJson(e) => write!(f, "frame payload is not json: {e}"),
            BridgeError::BadMessage(e) => write!(f, "malformed bridge message: {e}"),
            BridgeError::BadPacket => write!(f, "reconstructed packet fails to decode"),
            BridgeError::Frame(e) => write!(f, "framing: {e}"),
        }
    }
}

impl std::error::Error for BridgeError {}

impl From<FrameError> for BridgeError {
    fn from(e: FrameError) -> Self {
        BridgeError::Frame(e)
    }
}

/// Encode a binary protocol packet as a bridged JSON object.
///
/// # Errors
/// [`BridgeError::BadPacket`] when the packet does not decode (never for
/// packets produced by the engines).
pub fn packet_to_json(packet: &[u8]) -> Result<Json, BridgeError> {
    let view = PacketView::parse(packet).map_err(|_| BridgeError::BadPacket)?;
    let (prefix, auth) = packet.split_at(view.prefix().len());
    let mut fields = vec![
        ("proto", Json::str(PROTO)),
        ("kind", Json::str(view.msg.name())),
        ("prefix", Json::str(json::hex_encode(prefix))),
        ("auth", Json::str(json::hex_encode(auth))),
    ];
    // Observability summaries for the common client-facing kinds.
    match &view.msg {
        Message::Request(r) => {
            fields.push(("client", Json::int(r.client.0)));
            fields.push(("timestamp", Json::int(r.timestamp)));
            fields.push(("readonly", Json::Bool(r.read_only)));
        }
        Message::Reply(r) => {
            fields.push(("client", Json::int(r.client.0)));
            fields.push(("timestamp", Json::int(r.timestamp)));
            fields.push(("replica", Json::int(u64::from(r.replica.0))));
            fields.push(("tentative", Json::Bool(r.tentative)));
            fields.push(("result", Json::str(json::hex_encode(&r.result))));
        }
        _ => {}
    }
    Ok(Json::object(fields))
}

/// Reassemble the binary packet from a bridged JSON object.
///
/// # Errors
/// [`BridgeError`] when fields are missing, hex is invalid, the packet does
/// not decode, or the summary `kind` disagrees with the packet content (a
/// tampering tell that costs nothing to check).
pub fn json_to_packet(v: &Json) -> Result<Vec<u8>, BridgeError> {
    let proto = v.get("proto").and_then(Json::as_str).unwrap_or_default();
    if proto != PROTO {
        return Err(BridgeError::BadMessage(format!("unknown proto {proto:?}")));
    }
    let prefix_hex = v
        .get("prefix")
        .and_then(Json::as_str)
        .ok_or_else(|| BridgeError::BadMessage("missing prefix".to_string()))?;
    let auth_hex = v
        .get("auth")
        .and_then(Json::as_str)
        .ok_or_else(|| BridgeError::BadMessage("missing auth".to_string()))?;
    let mut packet =
        json::hex_decode(prefix_hex).map_err(|e| BridgeError::BadMessage(e.to_string()))?;
    packet.extend(json::hex_decode(auth_hex).map_err(|e| BridgeError::BadMessage(e.to_string()))?);
    let name = PacketView::parse(&packet)
        .map_err(|_| BridgeError::BadPacket)?
        .msg
        .name();
    if let Some(kind) = v.get("kind").and_then(Json::as_str) {
        if kind != name {
            return Err(BridgeError::BadMessage(format!(
                "kind {kind:?} does not match packet {name:?}"
            )));
        }
    }
    Ok(packet)
}

/// Wrap a packet into a text frame carrying its bridged JSON form.
///
/// # Errors
/// As [`packet_to_json`].
pub fn packet_to_frame(packet: &[u8]) -> Result<Frame, BridgeError> {
    Ok(Frame::text(packet_to_json(packet)?.to_string_compact()))
}

/// Extract the binary packet from a bridged text frame.
///
/// # Errors
/// As [`json_to_packet`], plus UTF-8/JSON failures; `Ok(None)` for control
/// frames (ping/pong/close), which carry no protocol message.
pub fn frame_to_packet(frame: &Frame) -> Result<Option<Vec<u8>>, BridgeError> {
    match frame.opcode {
        Opcode::Text => {}
        Opcode::Binary => {
            // Binary frames carry the raw packet (permitted, but a browser
            // client typically uses text).
            return Ok(Some(frame.payload.clone()));
        }
        _ => return Ok(None),
    }
    let text =
        std::str::from_utf8(&frame.payload).map_err(|e| BridgeError::NotJson(e.to_string()))?;
    let v = json::parse(text).map_err(|e| BridgeError::NotJson(e.to_string()))?;
    json_to_packet(&v).map(Some)
}

/// The replica-side channel endpoint: owns the reassembly buffer for one
/// client channel and translates frames to packets and back.
///
/// One `ChannelEndpoint` exists per connected web client per replica — the
/// paper's channel-oriented communication, replacing point-to-point
/// datagrams.
#[derive(Debug, Default)]
pub struct ChannelEndpoint {
    inbox: ChannelBuf,
}

impl ChannelEndpoint {
    /// A fresh endpoint for a newly accepted channel.
    pub fn new() -> ChannelEndpoint {
        ChannelEndpoint::default()
    }

    /// Feed stream bytes; returns the binary packets of every completed
    /// frame (ready for `Replica::handle_packet`).
    ///
    /// # Errors
    /// Fatal channel errors — the caller should close the channel.
    pub fn on_bytes(&mut self, chunk: &[u8]) -> Result<Vec<Vec<u8>>, BridgeError> {
        self.inbox.push(chunk);
        let mut packets = Vec::new();
        while let Some(frame) = self.inbox.next_frame()? {
            if let Some(p) = frame_to_packet(&frame)? {
                packets.push(p);
            }
        }
        Ok(packets)
    }

    /// Encode an outgoing packet as stream bytes (a whole text frame).
    ///
    /// # Errors
    /// As [`packet_to_frame`].
    pub fn to_stream(&self, packet: &[u8]) -> Result<Vec<u8>, BridgeError> {
        Ok(packet_to_frame(packet)?.encode())
    }
}

/// Client-side bridge: wraps the sans-io PBFT [`pbft_core::Client`] outputs
/// into frames for the per-replica channels, mirroring what the
/// browser-hosted JavaScript would do.
///
/// `Output::Send` targets name replicas; the returned pairs are
/// `(replica_index, stream_bytes)`.
///
/// # Errors
/// Bridge encoding failures (never for engine-produced packets).
pub fn outputs_to_channels(outputs: &[Output]) -> Result<Vec<(u32, Vec<u8>)>, BridgeError> {
    let mut out = Vec::new();
    for o in outputs {
        if let Output::Send {
            to: pbft_core::NetTarget::Replica(r),
            packet,
            ..
        } = o
        {
            out.push((r.0, packet_to_frame(packet)?.encode()));
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbft_core::messages::{AuthTag, ReplyMsg, RequestMsg, Sender};
    use pbft_core::{ClientId, Envelope, Operation, ReplicaId};

    fn request_packet() -> Vec<u8> {
        let msg = Message::Request(RequestMsg {
            client: ClientId(3),
            timestamp: 7,
            read_only: false,
            reply_addr: 104,
            op: Operation::App(b"INSERT INTO votes VALUES ('x')".to_vec()),
        });
        let prefix = Envelope::encode_prefix(Sender::Client(ClientId(3)), &msg);
        Envelope::seal(prefix, &AuthTag::None)
    }

    fn reply_packet() -> Vec<u8> {
        let msg = Message::Reply(ReplyMsg {
            view: 0,
            client: ClientId(3),
            timestamp: 7,
            replica: ReplicaId(2),
            tentative: true,
            body_omitted: false,
            result: vec![1, 2, 3],
        });
        let prefix = Envelope::encode_prefix(Sender::Replica(ReplicaId(2)), &msg);
        Envelope::seal(prefix, &AuthTag::None)
    }

    #[test]
    fn request_packet_roundtrips_through_json() {
        let packet = request_packet();
        let v = packet_to_json(&packet).expect("encode");
        assert_eq!(v.get("kind").and_then(Json::as_str), Some("request"));
        assert_eq!(v.get("client").and_then(Json::as_u64), Some(3));
        let back = json_to_packet(&v).expect("decode");
        assert_eq!(
            back, packet,
            "byte-exact reconstruction (signatures survive)"
        );
    }

    #[test]
    fn reply_summary_fields_present() {
        let v = packet_to_json(&reply_packet()).expect("encode");
        assert_eq!(v.get("kind").and_then(Json::as_str), Some("reply"));
        assert_eq!(v.get("tentative").and_then(Json::as_bool), Some(true));
        assert_eq!(v.get("result").and_then(Json::as_str), Some("010203"));
    }

    #[test]
    fn tampered_kind_rejected() {
        let mut v = packet_to_json(&request_packet()).expect("encode");
        if let Json::Object(m) = &mut v {
            m.insert("kind".to_string(), Json::str("reply"));
        }
        assert!(matches!(
            json_to_packet(&v),
            Err(BridgeError::BadMessage(_))
        ));
    }

    #[test]
    fn missing_fields_rejected() {
        assert!(json_to_packet(&Json::object([("proto", Json::str(PROTO))])).is_err());
        assert!(json_to_packet(&Json::object([("prefix", Json::str("00"))])).is_err());
        let bad_proto = Json::object([
            ("proto", Json::str("pbft-web/9")),
            ("prefix", Json::str("00")),
            ("auth", Json::str("")),
        ]);
        assert!(json_to_packet(&bad_proto).is_err());
    }

    #[test]
    fn corrupt_hex_rejected() {
        let v = Json::object([
            ("proto", Json::str(PROTO)),
            ("prefix", Json::str("zz")),
            ("auth", Json::str("")),
        ]);
        assert!(matches!(
            json_to_packet(&v),
            Err(BridgeError::BadMessage(_))
        ));
    }

    #[test]
    fn garbage_packet_rejected() {
        let v = Json::object([
            ("proto", Json::str(PROTO)),
            ("prefix", Json::str("ffff")),
            ("auth", Json::str("")),
        ]);
        assert_eq!(json_to_packet(&v), Err(BridgeError::BadPacket));
    }

    #[test]
    fn endpoint_streams_packets_both_ways() {
        let packet = request_packet();
        let mut ep = ChannelEndpoint::new();
        let stream = ep.to_stream(&packet).expect("encode");
        // Feed fragmented.
        let mut got = Vec::new();
        for chunk in stream.chunks(7) {
            got.extend(ep.on_bytes(chunk).expect("ok"));
        }
        assert_eq!(got, vec![packet]);
    }

    #[test]
    fn control_frames_pass_silently() {
        let mut ep = ChannelEndpoint::new();
        let ping = Frame {
            opcode: Opcode::Ping,
            payload: vec![],
        }
        .encode();
        assert_eq!(ep.on_bytes(&ping).expect("ok"), Vec::<Vec<u8>>::new());
    }

    #[test]
    fn binary_frames_carry_raw_packets() {
        let packet = request_packet();
        let mut ep = ChannelEndpoint::new();
        let frame = Frame {
            opcode: Opcode::Binary,
            payload: packet.clone(),
        }
        .encode();
        assert_eq!(ep.on_bytes(&frame).expect("ok"), vec![packet]);
    }
}

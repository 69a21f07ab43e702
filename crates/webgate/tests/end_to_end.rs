//! End-to-end: a browser-like client reaches a real 4-replica PBFT group
//! exclusively through JSON text frames on per-replica channels — no
//! datagram ever crosses the "browser" boundary. Authentication, the
//! 3-phase agreement, and the f+1 reply quorum all run unchanged.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

use pbft_core::app::{NullApp, StateHandle};
use pbft_core::client::{Client, ClientEvent};
use pbft_core::replica::{Replica, LIB_REGION_PAGES};
use pbft_core::{ClientId, NetTarget, Output, PbftConfig, ReplicaId};
use pbft_state::PagedState;
use webgate::bridge::{outputs_to_channels, ChannelEndpoint};

const SEED: u64 = 0x3e3;
const CLIENT_ADDR: u32 = 100;

struct WebCluster {
    replicas: Vec<Replica>,
    endpoints: Vec<ChannelEndpoint>, // per-replica channel to THE web client
    client: Client,
    client_buf: ChannelEndpoint,
    /// (to_replica, packet) — replica-to-replica binary traffic.
    inter: VecDeque<(usize, pbft_core::PacketBuf)>,
    /// (replica, stream bytes) — channel traffic toward the client.
    to_client: VecDeque<Vec<u8>>,
    now: u64,
}

impl WebCluster {
    fn new() -> WebCluster {
        let cfg = PbftConfig::default();
        let clients = vec![ClientId(1)];
        let replicas: Vec<Replica> = (0..4u32)
            .map(|i| {
                let state: StateHandle =
                    Rc::new(RefCell::new(PagedState::new(LIB_REGION_PAGES as usize + 4)));
                Replica::new(
                    cfg.clone(),
                    SEED,
                    ReplicaId(i),
                    state,
                    Box::new(NullApp::new(16)),
                    &clients,
                )
            })
            .collect();
        let client = Client::new_static(cfg, SEED, ClientId(1), CLIENT_ADDR);
        WebCluster {
            replicas,
            endpoints: (0..4).map(|_| ChannelEndpoint::new()).collect(),
            client,
            client_buf: ChannelEndpoint::new(),
            inter: VecDeque::new(),
            to_client: VecDeque::new(),
            now: 0,
        }
    }

    fn route_replica_outputs(&mut self, from: usize, outputs: Vec<Output>) {
        for o in outputs {
            if let Output::Send { to, packet, .. } = o {
                match to {
                    NetTarget::Replica(r) => self.inter.push_back((r.0 as usize, packet)),
                    NetTarget::Client(_) => {
                        // Channel-oriented: encode as a JSON text frame.
                        let bytes = self.endpoints[from].to_stream(&packet).expect("bridge");
                        self.to_client.push_back(bytes);
                    }
                }
            }
        }
    }

    fn pump(&mut self) {
        for _ in 0..200_000 {
            self.now += 10_000;
            if let Some((to, packet)) = self.inter.pop_front() {
                let res = self.replicas[to].handle_packet(&packet, self.now);
                self.route_replica_outputs(to, res.outputs);
                continue;
            }
            if let Some(bytes) = self.to_client.pop_front() {
                // The "browser" consumes channel bytes (fragmented to test
                // reassembly) and feeds the recovered packets to the client
                // engine.
                let chunks: Vec<Vec<u8>> = bytes.chunks(11).map(<[u8]>::to_vec).collect();
                for chunk in chunks {
                    let packets = self.client_buf.on_bytes(&chunk).expect("bridge");
                    for p in packets {
                        let res = self.client.handle_packet(&p, self.now);
                        self.route_client_outputs(res.outputs);
                    }
                }
                continue;
            }
            return;
        }
        panic!("did not quiesce");
    }

    fn route_client_outputs(&mut self, outputs: Vec<Output>) {
        // The browser side: every outgoing packet becomes a JSON frame on
        // the channel to its replica.
        for (replica, stream) in outputs_to_channels(&outputs).expect("bridge") {
            let packets = self.endpoints[replica as usize]
                .on_bytes(&stream)
                .expect("bridge");
            for p in packets {
                let res = self.replicas[replica as usize].handle_packet(&p, self.now);
                self.route_replica_outputs(replica as usize, res.outputs);
            }
        }
    }

    fn submit(&mut self, op: Vec<u8>) {
        let res = self.client.submit(op, false, self.now);
        self.route_client_outputs(res.outputs);
    }
}

#[test]
fn web_client_completes_requests_over_json_channels() {
    let mut wc = WebCluster::new();
    for i in 0..5u8 {
        wc.submit(vec![i]);
        wc.pump();
        let events = wc.client.take_events();
        let replies: Vec<_> = events
            .iter()
            .filter(|e| matches!(e, ClientEvent::ReplyDelivered { .. }))
            .collect();
        assert_eq!(replies.len(), 1, "request {i} reached quorum over channels");
    }
    assert_eq!(wc.client.metrics.completed, 5);
    // All replicas executed all five requests.
    for r in &wc.replicas {
        assert!(r.last_executed() > 0);
        assert_eq!(r.metrics().executed_requests, 5);
    }
}

#[test]
fn tampered_channel_traffic_cannot_forge_replies() {
    let mut wc = WebCluster::new();
    wc.submit(vec![9]);
    wc.pump();
    let _ = wc.client.take_events();
    // Replay a reply frame with a flipped result byte: the MAC fails and the
    // client must ignore it (no new events).
    let packet = {
        use pbft_core::messages::{AuthTag, ReplyMsg, Sender};
        use pbft_core::{Envelope, Message};
        let msg = Message::Reply(ReplyMsg {
            view: 0,
            client: ClientId(1),
            timestamp: 999,
            replica: ReplicaId(0),
            tentative: false,
            body_omitted: false,
            result: b"forged".to_vec(),
        });
        let prefix = Envelope::encode_prefix(Sender::Replica(ReplicaId(0)), &msg);
        Envelope::seal(prefix, &AuthTag::None)
    };
    let stream = wc.endpoints[0].to_stream(&packet).expect("bridge");
    let packets = wc.client_buf.on_bytes(&stream).expect("bridge");
    for p in packets {
        let res = wc.client.handle_packet(&p, wc.now);
        assert!(res.outputs.is_empty() || wc.client.take_events().is_empty());
    }
    assert_eq!(wc.client.metrics.completed, 1, "forgery gained nothing");
}

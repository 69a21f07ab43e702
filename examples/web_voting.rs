//! The paper's end goal (§3.3.3): a **web application** on top of the
//! replicated e-voting service.
//!
//! A browser cannot speak the library's binary UDP protocol, so this example
//! runs a browser-like voter that talks to every replica over a
//! channel-oriented transport: each protocol message is a JSON text frame
//! (WebSocket-style) carrying the canonical signed bytes. No gateway or
//! proxy sits in between — the paper rejects centralized components — so the
//! "browser" fans out to all four replicas and collects its own f+1 reply
//! quorum, exactly like a native client.
//!
//! Run with: `cargo run --example web_voting`

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

use evoting::{decode_tally, idbuf, EvotingApp, VoteOp};
use minisql::JournalMode;
use pbft_core::app::StateHandle;
use pbft_core::client::{Client, ClientEvent};
use pbft_core::replica::{Replica, LIB_REGION_PAGES};
use pbft_core::{NetTarget, Output, PbftConfig, ReplicaId};
use pbft_state::PagedState;
use webgate::bridge::{outputs_to_channels, packet_to_json, ChannelEndpoint};
use webgate::Json;

const SEED: u64 = 0xE1EC;
const BROWSER_ADDR: u32 = 100;

/// Four replicas + one browser, wired by JSON channels (client side) and
/// binary datagrams (replica side).
struct WebDeployment {
    replicas: Vec<Replica>,
    endpoints: Vec<ChannelEndpoint>,
    browser: Client,
    browser_buf: ChannelEndpoint,
    inter: VecDeque<(usize, pbft_core::PacketBuf)>,
    to_browser: VecDeque<Vec<u8>>,
    now: u64,
    shown: usize,
}

impl WebDeployment {
    fn new(voters: &[(&str, &str)]) -> WebDeployment {
        let cfg = PbftConfig {
            dynamic_membership: true,
            ..Default::default()
        };
        let replicas = (0..4u32)
            .map(|i| {
                let state: StateHandle = Rc::new(RefCell::new(PagedState::new(
                    LIB_REGION_PAGES as usize + 512,
                )));
                let app = EvotingApp::open(state.clone(), JournalMode::Rollback, voters);
                Replica::new(cfg.clone(), SEED, ReplicaId(i), state, Box::new(app), &[])
            })
            .collect();
        let browser = Client::new_dynamic(cfg, SEED, 1, BROWSER_ADDR, idbuf("webvoter", "hunter2"));
        WebDeployment {
            replicas,
            endpoints: (0..4).map(|_| ChannelEndpoint::new()).collect(),
            browser,
            browser_buf: ChannelEndpoint::new(),
            inter: VecDeque::new(),
            to_browser: VecDeque::new(),
            now: 0,
            shown: 0,
        }
    }

    fn route_replica(&mut self, from: usize, outputs: Vec<Output>) {
        for o in outputs {
            if let Output::Send { to, packet, .. } = o {
                match to {
                    NetTarget::Replica(r) => self.inter.push_back((r.0 as usize, packet)),
                    NetTarget::Client(_) => {
                        let bytes = self.endpoints[from].to_stream(&packet).expect("bridge");
                        self.to_browser.push_back(bytes);
                    }
                }
            }
        }
    }

    fn route_browser(&mut self, outputs: Vec<Output>) {
        for (replica, stream) in outputs_to_channels(&outputs).expect("bridge") {
            // Show the first few frames so the JSON wire format is visible.
            if self.shown < 3 {
                self.shown += 1;
                let text = String::from_utf8_lossy(&stream[5..]).to_string();
                let pretty = if text.len() > 120 {
                    format!("{}…", &text[..120])
                } else {
                    text
                };
                println!("  browser → replica {replica}: {pretty}");
            }
            let packets = self.endpoints[replica as usize]
                .on_bytes(&stream)
                .expect("bridge");
            for p in packets {
                let res = self.replicas[replica as usize].handle_packet(&p, self.now);
                self.route_replica(replica as usize, res.outputs);
            }
        }
    }

    fn pump(&mut self) {
        for _ in 0..500_000 {
            self.now += 10_000;
            if let Some((to, packet)) = self.inter.pop_front() {
                let res = self.replicas[to].handle_packet(&packet, self.now);
                self.route_replica(to, res.outputs);
                continue;
            }
            if let Some(bytes) = self.to_browser.pop_front() {
                let packets = self.browser_buf.on_bytes(&bytes).expect("bridge");
                for p in packets {
                    let res = self.browser.handle_packet(&p, self.now);
                    self.route_browser(res.outputs);
                }
                continue;
            }
            return;
        }
        panic!("deployment did not quiesce");
    }

    fn submit(&mut self, op: &VoteOp) -> Vec<u8> {
        let res = self
            .browser
            .submit(op.encode(), op.is_read_only(), self.now);
        self.route_browser(res.outputs);
        self.pump();
        for e in self.browser.take_events() {
            if let ClientEvent::ReplyDelivered { result, .. } = e {
                return result;
            }
        }
        panic!("no quorum reply");
    }
}

fn main() {
    let voters = [("webvoter", "hunter2"), ("alice", "pw1"), ("bob", "pw2")];
    let mut web = WebDeployment::new(&voters);

    println!("--- §3.1 dynamic join over JSON channels ---");
    let res = web.browser.on_start(web.now);
    web.route_browser(res.outputs);
    web.pump();
    assert!(web.browser.is_member());
    println!("  joined: assigned client id {}\n", web.browser.id());

    println!("--- creating an election and casting a vote ---");
    let reply = web.submit(&VoteOp::CreateElection {
        title: "favorite consensus".into(),
    });
    println!("  create election reply: {} bytes", reply.len());
    let _ = web.submit(&VoteOp::CastVote {
        election: 1,
        choice: "pbft".into(),
    });
    println!("  vote cast for 'pbft'");

    println!("\n--- §2.1 read-only tally over the same channels ---");
    let reply = web.submit(&VoteOp::Tally { election: 1 });
    let tally = decode_tally(&reply).expect("tally decodes");
    for (choice, count) in &tally {
        println!("  {choice}: {count}");
    }
    assert_eq!(tally, vec![("pbft".to_string(), 1)]);

    // Show what a reply looks like on the wire.
    println!("\n--- a bridged reply frame (observability fields + signed bytes) ---");
    let sample = {
        use pbft_core::messages::{AuthTag, ReplyMsg, Sender};
        use pbft_core::{ClientId, Envelope, Message};
        let msg = Message::Reply(ReplyMsg {
            view: 0,
            client: ClientId(web.browser.id().0),
            timestamp: 3,
            replica: ReplicaId(2),
            tentative: false,
            body_omitted: false,
            result: reply.clone(),
        });
        let prefix = Envelope::encode_prefix(Sender::Replica(ReplicaId(2)), &msg);
        Envelope::seal(prefix, &AuthTag::None)
    };
    let v = packet_to_json(&sample).expect("bridge");
    for key in ["kind", "client", "replica", "tentative"] {
        if let Some(field) = v.get(key) {
            println!("  {key}: {}", field.to_string_compact());
        }
    }
    let Some(Json::String(prefix_hex)) = v.get("prefix") else {
        unreachable!()
    };
    println!(
        "  prefix: {}… ({} hex chars)",
        &prefix_hex[..32],
        prefix_hex.len()
    );
    println!("\nweb voting over JSON channels: OK");
}

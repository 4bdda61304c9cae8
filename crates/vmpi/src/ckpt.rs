//! Checkpoint images and the checkpoint server.
//!
//! The checkpoint server (paper §IV-B.2) is a stable component storing
//! remote checkpoint images. Operations are transactional: an image
//! becomes visible only when fully received (a single delivery in the
//! simulation, so atomicity is structural). For message-logging protocols
//! an image contains the process state, the payloads of logged messages
//! and the causal information (paper: *"the checkpoint image of a process
//! consists in the state of the MPI process, the payload of some messages
//! and the causal information of all events stored in the local
//! memory"*) — the protocol part travels in [`Image::proto`].
//!
//! The daemon's part travels in [`Image::channels`]: the channel
//! counters, the accepted messages the application has not consumed, and
//! the sends a protocol's gate still holds. Held sends add no image
//! bytes: the pessimistic protocol logs a send before it gates it, so the
//! payload is already in the sender log that the protocol section counts.

use std::collections::BTreeMap;
use std::sync::Arc;

use vlog_sim::{Actor, ActorId, Delivery, NodeId, Sim};

use crate::control::{self, Body};
use crate::daemon::Channels;
use crate::hooks::ProtoBlob;
use crate::types::{Payload, Rank};

/// Base wire overhead of an image (counters, framing).
pub const IMAGE_BASE_BYTES: u64 = 64;

/// A process checkpoint image.
#[derive(Clone)]
pub struct Image {
    pub rank: Rank,
    pub version: u64,
    /// Serialized application state (real bytes + synthetic padding).
    pub app_state: Payload,
    /// The daemon's channel state at the checkpoint point.
    pub channels: Channels,
    /// Protocol section (sender log, causality, clocks).
    pub proto: ProtoBlob,
}

impl Image {
    /// Total wire size of the image when it moves over the network.
    pub fn wire_bytes(&self) -> u64 {
        let unexpected = &self.channels.unexpected;
        IMAGE_BASE_BYTES
            + self.app_state.len()
            + 16 * (self.channels.next_ssn.len() as u64)
            + unexpected.iter().map(|m| m.payload.len() + 16).sum::<u64>()
            + self.proto.bytes
    }
}

/// Requests understood by the checkpoint server.
pub enum CkptRequest {
    /// Store an image (transactional; replaces older versions once
    /// complete).
    Store {
        image: Arc<Image>,
        reply_to: ActorId,
    },
    /// Fetch an image for a rank: a specific version or the latest.
    Fetch {
        rank: Rank,
        version: Option<u64>,
        reply_to: ActorId,
    },
    /// Highest version v such that *all* `n` ranks have stored version v
    /// (used to commit coordinated snapshots). 0 means "none".
    QueryComplete { n: usize, reply_to: ActorId },
}

impl Body for CkptRequest {
    fn wire_bytes(&self) -> u64 {
        match self {
            CkptRequest::Store { image, .. } => image.wire_bytes(),
            CkptRequest::Fetch { .. } | CkptRequest::QueryComplete { .. } => 16,
        }
    }
}

/// Replies from the checkpoint server.
pub enum CkptReply {
    StoreAck {
        rank: Rank,
        version: u64,
    },
    FetchResp {
        rank: Rank,
        image: Option<Arc<Image>>,
    },
    CompleteResp {
        version: u64,
    },
}

impl Body for CkptReply {
    fn wire_bytes(&self) -> u64 {
        match self {
            CkptReply::FetchResp { image: Some(i), .. } => i.wire_bytes(),
            _ => 16,
        }
    }
}

/// CPU cost per stored/served image byte on the server (disk + memcpy),
/// ns/byte.
const SERVER_NS_PER_BYTE: f64 = 12.0;
/// Fixed per-request service cost.
const SERVER_FIXED_NS: u64 = 20_000;

/// The checkpoint server actor. Keeps the last two versions per rank so a
/// failure during a store never leaves a rank without a restorable image.
pub struct CkptServer {
    node: NodeId,
    images: BTreeMap<Rank, BTreeMap<u64, Arc<Image>>>,
}

impl CkptServer {
    pub fn new(node: NodeId) -> Self {
        CkptServer {
            node,
            images: BTreeMap::new(),
        }
    }
}

impl Actor for CkptServer {
    fn on_deliver(&mut self, sim: &mut Sim, me: ActorId, msg: Delivery) {
        let req = match msg.body.downcast::<CkptRequest>() {
            Ok(r) => *r,
            Err(_) => return, // not for us
        };
        let _ = me;
        match req {
            CkptRequest::Store { image, reply_to } => {
                let cost = vlog_sim::SimDuration::from_nanos(
                    SERVER_FIXED_NS + (image.wire_bytes() as f64 * SERVER_NS_PER_BYTE) as u64,
                );
                let end = sim.charge_cpu(self.node, cost);
                let rank = image.rank;
                let version = image.version;
                let per_rank = self.images.entry(rank).or_default();
                per_rank.insert(version, image);
                // Transactional pruning: keep the two newest versions.
                while per_rank.len() > 2 {
                    let oldest = *per_rank.keys().next().unwrap();
                    per_rank.remove(&oldest);
                }
                // State already updated; ack after service time.
                let reply = CkptReply::StoreAck { rank, version };
                control::send_at(sim, end, self.node, reply_to, reply);
            }
            CkptRequest::Fetch {
                rank,
                version,
                reply_to,
            } => {
                let image = self.images.get(&rank).and_then(|per_rank| match version {
                    Some(v) => per_rank.get(&v).cloned(),
                    None => per_rank.values().next_back().cloned(),
                });
                let reply = CkptReply::FetchResp { rank, image };
                let cost = vlog_sim::SimDuration::from_nanos(
                    SERVER_FIXED_NS + (reply.wire_bytes() as f64 * SERVER_NS_PER_BYTE) as u64,
                );
                let end = sim.charge_cpu(self.node, cost);
                control::send_at(sim, end, self.node, reply_to, reply);
            }
            CkptRequest::QueryComplete { n, reply_to } => {
                // Highest v present for every rank 0..n.
                let mut v_candidates: Option<Vec<u64>> = None;
                for r in 0..n {
                    let versions: Vec<u64> = self
                        .images
                        .get(&r)
                        .map(|m| m.keys().copied().collect())
                        .unwrap_or_default();
                    v_candidates = Some(match v_candidates {
                        None => versions,
                        Some(prev) => prev.into_iter().filter(|v| versions.contains(v)).collect(),
                    });
                }
                let version = v_candidates
                    .unwrap_or_default()
                    .into_iter()
                    .max()
                    .unwrap_or(0);
                let reply = CkptReply::CompleteResp { version };
                control::send(sim, self.node, reply_to, reply);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::daemon::HeldSend;
    use crate::types::RecvMsg;
    use std::sync::Mutex;
    use vlog_sim::{SimDuration, SimTime};

    fn image(rank: Rank, version: u64, bytes: u64) -> Arc<Image> {
        Arc::new(Image {
            rank,
            version,
            app_state: Payload::synthetic(bytes),
            channels: Channels::new(4),
            proto: ProtoBlob::empty(),
        })
    }

    /// A protocol section that states its size.
    struct Section(u64);

    impl Body for Section {
        fn wire_bytes(&self) -> u64 {
            self.0
        }
    }

    struct Sink {
        got: Arc<Mutex<Vec<String>>>,
    }
    impl Actor for Sink {
        fn on_deliver(&mut self, _sim: &mut Sim, _me: ActorId, msg: Delivery) {
            let reply = msg.body.downcast::<CkptReply>().unwrap();
            let s = match *reply {
                CkptReply::StoreAck { rank, version } => format!("ack {rank} v{version}"),
                CkptReply::FetchResp { rank, ref image } => format!(
                    "fetch {rank} {}",
                    image
                        .as_ref()
                        .map_or("none".into(), |i| format!("v{}", i.version))
                ),
                CkptReply::CompleteResp { version } => format!("complete v{version}"),
            };
            self.got.lock().unwrap().push(s);
        }
    }

    fn setup() -> (Sim, ActorId, ActorId, Arc<Mutex<Vec<String>>>) {
        let mut sim = Sim::new();
        let server_node = sim.add_node();
        let client_node = sim.add_node();
        let server = sim.add_actor(server_node, Box::new(CkptServer::new(server_node)));
        let got = Arc::new(Mutex::new(Vec::new()));
        let client = sim.add_actor(client_node, Box::new(Sink { got: got.clone() }));
        (sim, server, client, got)
    }

    fn send_req(sim: &mut Sim, server: ActorId, req: CkptRequest) {
        control::send(sim, 1, server, req);
    }

    #[test]
    fn store_fetch_roundtrip() {
        let (mut sim, server, client, got) = setup();
        send_req(
            &mut sim,
            server,
            CkptRequest::Store {
                image: image(0, 1, 1000),
                reply_to: client,
            },
        );
        // The stores are in before the request goes out.
        sim.run_until(SimTime::ZERO + SimDuration::from_millis(50));
        send_req(
            &mut sim,
            server,
            CkptRequest::Fetch {
                rank: 0,
                version: None,
                reply_to: client,
            },
        );
        sim.run();
        assert_eq!(&*got.lock().unwrap(), &["ack 0 v1", "fetch 0 v1"]);
    }

    #[test]
    fn missing_image_fetches_none() {
        let (mut sim, server, client, got) = setup();
        send_req(
            &mut sim,
            server,
            CkptRequest::Fetch {
                rank: 5,
                version: None,
                reply_to: client,
            },
        );
        sim.run();
        assert_eq!(&*got.lock().unwrap(), &["fetch 5 none"]);
    }

    #[test]
    fn keeps_only_two_newest_versions() {
        let (mut sim, server, client, got) = setup();
        for v in 1..=4u64 {
            send_req(
                &mut sim,
                server,
                CkptRequest::Store {
                    image: image(0, v, 10),
                    reply_to: client,
                },
            );
        }
        // The stores are in before the request goes out.
        sim.run_until(SimTime::ZERO + SimDuration::from_millis(50));
        send_req(
            &mut sim,
            server,
            CkptRequest::Fetch {
                rank: 0,
                version: Some(2),
                reply_to: client,
            },
        );
        send_req(
            &mut sim,
            server,
            CkptRequest::Fetch {
                rank: 0,
                version: Some(4),
                reply_to: client,
            },
        );
        sim.run();
        let log = got.lock().unwrap();
        assert!(log.contains(&"fetch 0 none".to_string())); // v2 pruned
        assert!(log.contains(&"fetch 0 v4".to_string()));
    }

    #[test]
    fn query_complete_takes_global_minimum() {
        let (mut sim, server, client, got) = setup();
        // rank 0 has v1, v2; rank 1 has only v1.
        for (r, v) in [(0u64, 1u64), (0, 2), (1, 1)] {
            send_req(
                &mut sim,
                server,
                CkptRequest::Store {
                    image: image(r as Rank, v, 10),
                    reply_to: client,
                },
            );
        }
        // The stores are in before the request goes out.
        sim.run_until(SimTime::ZERO + SimDuration::from_millis(50));
        send_req(
            &mut sim,
            server,
            CkptRequest::QueryComplete {
                n: 2,
                reply_to: client,
            },
        );
        sim.run();
        assert!(got.lock().unwrap().contains(&"complete v1".to_string()));
    }

    #[test]
    fn image_wire_size_accounts_all_sections() {
        let mut img = (*image(0, 1, 100)).clone();
        img.channels.unexpected.push_back(RecvMsg {
            src: 1,
            tag: 0,
            payload: Payload::synthetic(50),
        });
        let section = Section(200);
        let section_bytes = section.wire_bytes();
        img.proto = ProtoBlob::new(section);
        let bytes = IMAGE_BASE_BYTES + 100 + 16 * 4 + (50 + 16) + section_bytes;
        assert_eq!(img.wire_bytes(), bytes);
        // A held send's payload is already in the protocol section's
        // sender log: carrying the send costs the image nothing.
        img.channels.held.push_back(HeldSend {
            dst: 2,
            tag: 0,
            payload: Payload::synthetic(70),
            ssn: 5,
            done: None,
        });
        assert_eq!(img.wire_bytes(), bytes);
    }
}

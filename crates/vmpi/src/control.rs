//! How a control message is sized and handed to the kernel.
//!
//! In the paper's deployment (Fig. 5) the stable components — checkpoint
//! server, dispatcher, checkpoint scheduler, Event Logger — talk to the
//! daemons only through control messages, and the daemons' protocols
//! talk to each other and to them the same way. Every such message goes
//! out through [`send`], or through [`send_at`] when it answers after
//! the sender's service CPU, sized by its body's [`Body::wire_bytes`]
//! (no caller states a size). Both box the body once and call the
//! kernel's [`Sim::send`], which decides the way out of the node:
//! loopback, one wire message or a chunk train.

use std::any::Any;

use vlog_sim::{ActorId, NodeId, Sim, SimTime, WireSize};

/// A control message body: its wire size, counted as control traffic,
/// stated once beside the body's type.
pub trait Body: Any + Send {
    fn wire_bytes(&self) -> u64;
}

/// Sends `body` from `src_node` to `dst` now, sized [`Body::wire_bytes`]
/// (see [`Sim::send`] for the way out).
pub fn send(sim: &mut Sim, src_node: NodeId, dst: ActorId, body: impl Body) {
    let size = WireSize::control(body.wire_bytes());
    sim.send(src_node, dst, size, Box::new(body));
}

/// [`send`] at `at`, typically the end of the sender's service CPU: one
/// event at `at`, whatever the size, and the way out is decided then.
pub fn send_at(sim: &mut Sim, at: SimTime, src_node: NodeId, dst: ActorId, body: impl Body) {
    let size = WireSize::control(body.wire_bytes());
    sim.send_at(at, src_node, dst, size, Box::new(body));
}

#[cfg(test)]
mod tests {
    use std::sync::{Arc, Mutex};

    use vlog_sim::net::{LOOPBACK, STREAM_CHUNK_BYTES};
    use vlog_sim::{Actor, Delivery, NetProfile, Network, SimDuration};

    use super::*;

    type Log = Arc<Mutex<Vec<(SimTime, u64)>>>;

    /// Records the arrival time and control bytes of each delivery.
    struct Sink(Log);

    impl Actor for Sink {
        fn on_deliver(&mut self, sim: &mut Sim, _me: ActorId, msg: Delivery) {
            self.0.lock().unwrap().push((sim.now(), msg.size.control));
        }
    }

    /// A kernel with two nodes and a sink on each.
    fn rig() -> (Sim, [(NodeId, ActorId, Log); 2]) {
        let mut sim = Sim::new();
        let ends = [0, 1].map(|_| {
            let node = sim.add_node();
            let log = Log::default();
            let actor = sim.add_actor(node, Box::new(Sink(log.clone())));
            (node, actor, log)
        });
        (sim, ends)
    }

    fn at_us(us: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_micros(us)
    }

    /// A body that states its size.
    struct Bulk(u64);

    impl Body for Bulk {
        fn wire_bytes(&self) -> u64 {
            self.0
        }
    }

    #[test]
    fn a_same_node_control_takes_loopback() {
        let (mut sim, [(node, actor, log), (_, other, other_log)]) = rig();
        let body = Bulk(4 * STREAM_CHUNK_BYTES);
        let bytes = body.wire_bytes();
        send(&mut sim, node, actor, body);
        sim.run();
        let landed = SimTime::ZERO + LOOPBACK;
        assert_eq!(*log.lock().unwrap(), [(landed, bytes)]);
        // Not a wire message: nothing recorded, and the NIC is free for
        // a wire message from that node the moment the control lands.
        assert_eq!(sim.stats().messages, 0);
        send(&mut sim, node, other, Bulk(64));
        sim.run();
        let free = Network::new(NetProfile::default()).uncontended_one_way(64);
        assert_eq!(*other_log.lock().unwrap(), [(landed + free, 64)]);
    }

    #[test]
    fn a_remote_control_up_to_one_chunk_is_one_wire_message() {
        let (mut sim, [(src, _, _), (_, dst, log)]) = rig();
        let body = Bulk(STREAM_CHUNK_BYTES);
        let bytes = body.wire_bytes();
        send(&mut sim, src, dst, body);
        sim.run();
        let got = log.lock().unwrap();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].1, bytes);
        assert_eq!(sim.stats().messages, 1);
        assert_eq!(sim.stats().bytes.control, bytes);
        assert_eq!(sim.events_processed(), 1);
    }

    #[test]
    fn a_deferred_send_is_one_event_at_its_instant() {
        let (mut sim, [(src, _, _), (_, dst, log)]) = rig();
        send_at(&mut sim, at_us(50), src, dst, Bulk(3 * STREAM_CHUNK_BYTES));
        assert!(!sim.run_until(at_us(49)));
        assert_eq!(sim.events_processed(), 0);
        assert!(!sim.run_until(at_us(50)));
        // The deferred send itself, and the first chunk booked by it.
        assert_eq!(sim.events_processed(), 1);
        assert_eq!(sim.stats().messages, 1);
        assert!(log.lock().unwrap().is_empty());
    }

    /// Pins the chunk train's timing on the kernel's default fabric: two
    /// 256 KiB chunks, then the body as the last 256 KiB, each leaving
    /// when the one before it has arrived.
    #[test]
    fn a_three_chunk_body_arrives_after_the_whole_train() {
        let (mut sim, [(src, _, _), (_, dst, log)]) = rig();
        let body = Bulk(3 * STREAM_CHUNK_BYTES);
        let bytes = body.wire_bytes();
        send(&mut sim, src, dst, body);
        sim.run();
        let arrival = SimTime::ZERO + SimDuration::from_nanos(68_178_693);
        assert_eq!(*log.lock().unwrap(), [(arrival, STREAM_CHUNK_BYTES)]);
        assert_eq!(sim.stats().messages, 3);
        // The train charges the body's size in total.
        assert_eq!(sim.stats().bytes.control, bytes);
        // Two chunk hops and the body's delivery.
        assert_eq!(sim.events_processed(), 3);
    }

    /// Every vlog-vmpi control message's wire size, and the daemon's
    /// rendezvous and eager sizes, at two shapes (`n` ranks, an image of
    /// `app` state bytes), as plain numbers: a layout change that moves
    /// one names it here.
    #[test]
    fn vmpi_sizes_are_pinned() {
        use std::sync::Arc;

        use crate::ckpt::{CkptReply, CkptRequest, Image};
        use crate::daemon::Channels;
        use crate::dispatcher::DispatcherMsg;
        use crate::hooks::{ElReshard, ProtoBlob, SchedulerCmd};
        use crate::types::{AppMsg, DaemonMsg, Payload, PiggybackBlob};

        let to: ActorId = 0;
        let mut table: Vec<(&str, Box<dyn Body>, u64)> = Vec::new();
        for (n, app, image_bytes) in [(4, 0, 128), (16, 1000, 1320)] {
            let image = || {
                Arc::new(Image {
                    rank: 0,
                    version: 1,
                    app_state: Payload::synthetic(app),
                    channels: Channels::new(n),
                    proto: ProtoBlob::empty(),
                })
            };
            let row = |name, body: Box<dyn Body>, bytes| (name, body, bytes);
            table.extend([
                row(
                    "store",
                    Box::new(CkptRequest::Store {
                        image: image(),
                        reply_to: to,
                    }),
                    image_bytes,
                ),
                row(
                    "fetch",
                    Box::new(CkptRequest::Fetch {
                        rank: 0,
                        version: None,
                        reply_to: to,
                    }),
                    16,
                ),
                row(
                    "query-complete",
                    Box::new(CkptRequest::QueryComplete { n, reply_to: to }),
                    16,
                ),
                row(
                    "store-ack",
                    Box::new(CkptReply::StoreAck {
                        rank: 0,
                        version: 1,
                    }),
                    16,
                ),
                row(
                    "fetch-resp",
                    Box::new(CkptReply::FetchResp {
                        rank: 0,
                        image: Some(image()),
                    }),
                    image_bytes,
                ),
                row(
                    "fetch-resp-none",
                    Box::new(CkptReply::FetchResp {
                        rank: 0,
                        image: None,
                    }),
                    16,
                ),
                row(
                    "complete-resp",
                    Box::new(CkptReply::CompleteResp { version: 1 }),
                    16,
                ),
                row("done", Box::new(DispatcherMsg::Done { rank: n }), 8),
                row("fault", Box::new(DispatcherMsg::Fault { rank: n }), 8),
                row("take-ckpt", Box::new(SchedulerCmd::TakeCheckpoint), 8),
                row(
                    "snapshot",
                    Box::new(SchedulerCmd::GlobalSnapshot { id: 1 }),
                    8,
                ),
                row("reshard", Box::new(ElReshard { dead_shard: 0 }), 16),
            ]);
        }
        for (name, body, bytes) in table {
            assert_eq!(body.wire_bytes(), bytes, "{name}");
        }
        // The daemon's messages: (control, total) bytes.
        let eager = |payload, piggyback| {
            DaemonMsg::App(AppMsg {
                src: 0,
                dst: 1,
                tag: 0,
                ssn: 0,
                payload: Payload::synthetic(payload),
                piggyback: PiggybackBlob {
                    body: None,
                    bytes: piggyback,
                },
                replayed: false,
            })
        };
        let rts = DaemonMsg::Rts {
            src: 0,
            ssn: 0,
            tag: 0,
            len: 1 << 20,
        };
        let cts = DaemonMsg::Cts { dst: 0, ssn: 0 };
        for (name, msg, bytes) in [
            ("rts", rts, (16, 16)),
            ("cts", cts, (16, 16)),
            ("eager", eager(0, 0), (0, 32)),
            ("eager-pb", eager(1000, 40), (0, 1072)),
        ] {
            let size = msg.wire_size();
            assert_eq!((size.control, size.total()), bytes, "{name}");
        }
    }
}

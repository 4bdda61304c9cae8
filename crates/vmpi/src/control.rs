//! How a control message leaves its node.
//!
//! In the paper's deployment (Fig. 5) the stable components — checkpoint
//! server, dispatcher, checkpoint scheduler, Event Logger — talk to the
//! daemons only through control messages, and the daemons' protocols
//! talk to each other and to them the same way. Every such message goes
//! out through [`send`], or through [`send_at`] when it answers after
//! the sender's service CPU. One function therefore decides the three
//! ways out:
//!
//! * same node: loopback, delivered after [`LOOPBACK`], with no NIC time
//!   and no message statistics;
//! * another node, up to [`STREAM_CHUNK_BYTES`]: one wire message;
//! * another node, larger: a chunk train (see [`send`]).

use std::any::Any;

use vlog_sim::{ActorId, Event, NodeId, Sim, SimDuration, SimTime, WireSize};

/// Loopback delay of a control message between two actors on one node.
pub const LOOPBACK: SimDuration = SimDuration::from_micros(15);

/// Chunk size of a large control's train.
pub const STREAM_CHUNK_BYTES: u64 = 256 << 10;

/// Sends a control message of `bytes` from `src_node` to `dst` now.
///
/// A control larger than [`STREAM_CHUNK_BYTES`] crosses as a chunk train,
/// so that concurrent flows interleave on the NIC instead of stalling
/// behind one multi-megabyte booking (TCP interleaves flows at packet
/// granularity). Each full chunk only books the NIC and counts as a
/// message (`record_message`); no delivery is scheduled for it. When it
/// has arrived the next part leaves, and the real `body` crosses last,
/// sized as the remainder, once the whole volume has crossed.
pub fn send(sim: &mut Sim, src_node: NodeId, dst: ActorId, bytes: u64, body: Box<dyn Any + Send>) {
    let dst_node = sim.actor_node(dst);
    if dst_node == src_node {
        sim.local_send(src_node, dst, WireSize::control(bytes), body, LOOPBACK);
        return;
    }
    if bytes <= STREAM_CHUNK_BYTES {
        sim.net_send(src_node, dst, WireSize::control(bytes), body);
        return;
    }
    let now = sim.now();
    let chunk_arrival = sim
        .net_mut()
        .send(now, src_node, dst_node, STREAM_CHUNK_BYTES);
    sim.stats_mut()
        .record_message(WireSize::control(STREAM_CHUNK_BYTES));
    let rest = bytes - STREAM_CHUNK_BYTES;
    sim.schedule_at(
        chunk_arrival,
        Event::closure(move |sim| send(sim, src_node, dst, rest, body)),
    );
}

/// [`send`] at `at`, typically the end of the sender's service CPU: one
/// event at `at`, whatever the size, and the way out is decided then.
pub fn send_at(
    sim: &mut Sim,
    at: SimTime,
    src_node: NodeId,
    dst: ActorId,
    bytes: u64,
    body: Box<dyn Any + Send>,
) {
    sim.schedule_at(
        at,
        Event::closure(move |sim| send(sim, src_node, dst, bytes, body)),
    );
}

#[cfg(test)]
mod tests {
    use std::sync::{Arc, Mutex};

    use vlog_sim::{Actor, Delivery};

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

    #[test]
    fn a_same_node_control_takes_loopback() {
        let (mut sim, [(node, actor, log), (other, _, _)]) = rig();
        send(&mut sim, node, actor, 4 * STREAM_CHUNK_BYTES, Box::new(()));
        sim.run();
        assert_eq!(
            *log.lock().unwrap(),
            [(SimTime::ZERO + LOOPBACK, 4 * STREAM_CHUNK_BYTES)]
        );
        // Not a wire message: nothing recorded, and the NIC is free for
        // a wire message from that node at the same instant.
        assert_eq!(sim.stats().messages, 0);
        let net = sim.net_mut();
        let wire = net.send(SimTime::ZERO, node, other, 64);
        assert_eq!(wire, SimTime::ZERO + net.uncontended_one_way(64));
    }

    #[test]
    fn a_remote_control_up_to_one_chunk_is_one_wire_message() {
        let (mut sim, [(src, _, _), (_, dst, log)]) = rig();
        send(&mut sim, src, dst, STREAM_CHUNK_BYTES, Box::new(()));
        sim.run();
        let got = log.lock().unwrap();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].1, STREAM_CHUNK_BYTES);
        assert_eq!(sim.stats().messages, 1);
        assert_eq!(sim.stats().bytes.control, STREAM_CHUNK_BYTES);
        assert_eq!(sim.events_processed(), 1);
    }

    #[test]
    fn a_deferred_send_is_one_event_at_its_instant() {
        let (mut sim, [(src, _, _), (_, dst, log)]) = rig();
        send_at(
            &mut sim,
            at_us(50),
            src,
            dst,
            3 * STREAM_CHUNK_BYTES,
            Box::new(()),
        );
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
        send(&mut sim, src, dst, 3 * STREAM_CHUNK_BYTES, Box::new(()));
        sim.run();
        let arrival = SimTime::ZERO + SimDuration::from_nanos(68_178_693);
        assert_eq!(*log.lock().unwrap(), [(arrival, STREAM_CHUNK_BYTES)]);
        assert_eq!(sim.stats().messages, 3);
        assert_eq!(sim.stats().bytes.control, 3 * STREAM_CHUNK_BYTES);
        // Two chunk hops and the body's delivery.
        assert_eq!(sim.events_processed(), 3);
    }
}

//! Switched-Ethernet network model behind a pluggable fabric profile.
//!
//! The paper's cluster is 32 nodes on a single Fast-Ethernet (100 Mbit/s)
//! switch. The phenomena the evaluation depends on are first-order link
//! effects, which this model captures:
//!
//! * **serialization**: a message of `b` bytes occupies the sender's NIC
//!   egress for `b / effective_bandwidth`,
//! * **cut-through pipelining**: the receiver's link starts draining after
//!   one propagation latency, so streaming throughput equals line rate and
//!   is *not* halved by store-and-forward at message granularity (matching
//!   NetPIPE's ~90 Mbit/s on 100 Mbit/s hardware),
//! * **contention**: per-node egress and ingress are busy resources; the
//!   Event Logger saturating its ingress under LU/16 (paper §V-D.1) emerges
//!   from this rather than being scripted,
//! * **full vs half duplex**: the V daemons exploit full-duplex links while
//!   the P4 baseline serializes send and receive at message level (the
//!   paper credits Vdummy's wins over P4 to exactly this).
//!
//! TCP dynamics (slow start, acks) are abstracted into a constant
//! efficiency factor and a fixed one-way latency, both calibrated against
//! Figure 6 of the paper (see `vlog-bench`, the `paper` target).
//!
//! [`NetProfile`] generalizes the fabric beyond the paper's testbed: the
//! 2005 Fast-Ethernet switch stays the byte-identical default, and the
//! harnesses can additionally sweep a gigabit switch, bonded multi-NIC
//! nodes and a heterogeneous core/uplink split where the stable service
//! nodes sit behind faster links than the compute ranks. Faster fabrics
//! are what move the Event Logger bottleneck from ack round-trips to the
//! logger's own CPU (see `vlog-core::el_multi` and the `regimes` bench).

use crate::time::{SimDuration, SimTime};

/// Loopback delay of a message between two actors on one node (see
/// [`Sim::send`](crate::Sim::send)).
pub const LOOPBACK: SimDuration = SimDuration::from_micros(15);

/// Chunk size of a large control message's train (see
/// [`Sim::send`](crate::Sim::send)).
pub const STREAM_CHUNK_BYTES: u64 = 256 << 10;

/// Wire-size accounting, split by category so Figure 7 (piggyback bytes as
/// % of total exchanged bytes) can be computed exactly.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WireSize {
    /// Framing the MPI library itself adds (message headers).
    pub header: u64,
    /// Application payload bytes.
    pub payload: u64,
    /// Causal-protocol piggyback bytes.
    pub piggyback: u64,
    /// Control traffic (acks, event-logger records, checkpoints, markers).
    pub control: u64,
}

impl WireSize {
    pub fn total(&self) -> u64 {
        self.header + self.payload + self.piggyback + self.control
    }

    /// A payload-only size.
    pub fn payload(n: u64) -> WireSize {
        WireSize {
            payload: n,
            ..WireSize::default()
        }
    }

    /// A control-only size.
    pub fn control(n: u64) -> WireSize {
        WireSize {
            control: n,
            ..WireSize::default()
        }
    }
}

/// Parameters of one Ethernet link class. Defaults model the paper's
/// testbed: one Fast-Ethernet switch, 100 Mbit/s NICs.
#[derive(Debug, Clone)]
pub struct EthernetParams {
    /// Raw line rate in bits per second.
    pub bandwidth_bps: f64,
    /// Fraction of the line rate usable by payload once TCP/IP framing,
    /// interframe gaps and ack traffic are accounted for.
    pub efficiency: f64,
    /// MTU-sized frame used for the cut-through store granularity.
    pub frame_bytes: u64,
    /// Minimum Ethernet frame.
    pub min_frame_bytes: u64,
    /// Per-message header overhead on the wire (Ethernet+IP+TCP).
    pub per_msg_overhead: u64,
    /// Fixed one-way latency: NIC interrupts, kernel stack, switch transit.
    pub latency: SimDuration,
    /// When true, a node's egress and ingress share one resource
    /// (message-level half duplex, modelling the P4 channel).
    pub half_duplex: bool,
}

impl Default for EthernetParams {
    fn default() -> Self {
        EthernetParams {
            bandwidth_bps: 100e6,
            efficiency: 0.93,
            frame_bytes: 1500,
            min_frame_bytes: 64,
            per_msg_overhead: 66,
            latency: SimDuration::from_nanos(41_500),
            half_duplex: false,
        }
    }
}

impl EthernetParams {
    /// The 2005-era gigabit link class: 10x the line rate and a shorter
    /// fixed latency (server NICs with interrupt coalescing tuned down).
    pub fn gigabit() -> Self {
        EthernetParams {
            bandwidth_bps: 1e9,
            efficiency: 0.93,
            latency: SimDuration::from_nanos(29_500),
            ..EthernetParams::default()
        }
    }

    /// Nanoseconds to push one byte through the effective link rate.
    pub fn ns_per_byte(&self) -> f64 {
        8e9 / (self.bandwidth_bps * self.efficiency)
    }

    /// Serialization delay of `bytes` on one link.
    pub fn serialization(&self, bytes: u64) -> SimDuration {
        SimDuration::from_nanos((bytes as f64 * self.ns_per_byte()).round() as u64)
    }
}

/// Marker for [`HeteroLinks::fast_from`]: "the fast class starts at the
/// first service node". The cluster builder resolves it to the actual
/// rank count (compute nodes are `0..ranks`, service nodes follow).
pub const SERVICE_BOUNDARY: usize = usize::MAX;

/// Heterogeneous split of a [`NetProfile`]: nodes with id `>= fast_from`
/// attach through `fast` links, everything below through the profile's
/// base links. A transfer serializes at each endpoint's own rate and
/// pays the slower endpoint's fixed latency.
#[derive(Debug, Clone)]
pub struct HeteroLinks {
    /// First node id of the fast class ([`SERVICE_BOUNDARY`] = resolved
    /// to the rank count by the cluster builder, so the stable service
    /// nodes — checkpoint server, dispatcher, Event Logger shards — get
    /// the fast uplinks).
    pub fast_from: usize,
    /// Link class of the fast nodes.
    pub fast: EthernetParams,
}

/// A named network fabric: a base link class, a NIC count per node, and
/// an optional heterogeneous fast class. The Fast-Ethernet-2005 default
/// reproduces the paper's testbed byte-identically (one NIC, one
/// homogeneous link class — the send arithmetic degenerates to exactly
/// the pre-profile model).
#[derive(Debug, Clone)]
pub struct NetProfile {
    /// Stable profile name, used as the report/registry axis key and
    /// accepted by [`NetProfile::by_name`].
    pub name: &'static str,
    /// Link class of every node not covered by `hetero`.
    pub base: EthernetParams,
    /// Parallel NIC channels per node (bonded links; 1 = the paper's
    /// single NIC).
    pub nics: usize,
    /// Optional heterogeneous fast class.
    pub hetero: Option<HeteroLinks>,
}

impl Default for NetProfile {
    fn default() -> Self {
        NetProfile::fast_ethernet_2005()
    }
}

impl NetProfile {
    /// The paper's testbed: one Fast-Ethernet switch. Byte-identical to
    /// the historical hard-coded model.
    pub fn fast_ethernet_2005() -> Self {
        NetProfile {
            name: "fast-ethernet-2005",
            base: EthernetParams::default(),
            nics: 1,
            hetero: None,
        }
    }

    /// A single gigabit switch: 10x line rate everywhere.
    pub fn gigabit() -> Self {
        NetProfile {
            name: "gigabit",
            base: EthernetParams::gigabit(),
            nics: 1,
            hetero: None,
        }
    }

    /// Two bonded gigabit NICs per node (channel bonding): concurrent
    /// transfers spread over the two channels.
    pub fn dual_gigabit() -> Self {
        NetProfile {
            name: "dual-gigabit",
            base: EthernetParams::gigabit(),
            nics: 2,
            hetero: None,
        }
    }

    /// Heterogeneous core/uplink split: compute ranks keep the paper's
    /// Fast-Ethernet NICs, while the stable service nodes (checkpoint
    /// server, dispatcher, Event Logger shards) sit behind gigabit
    /// uplinks — the classic "faster ingress for the servers" upgrade.
    /// The boundary is resolved by the cluster builder (see
    /// [`SERVICE_BOUNDARY`] and [`NetProfile::resolve_service_boundary`]).
    pub fn hetero_uplink() -> Self {
        NetProfile {
            name: "hetero-uplink",
            base: EthernetParams::default(),
            nics: 1,
            hetero: Some(HeteroLinks {
                fast_from: SERVICE_BOUNDARY,
                fast: EthernetParams::gigabit(),
            }),
        }
    }

    /// Every named profile, in presentation order.
    pub fn all() -> Vec<NetProfile> {
        vec![
            NetProfile::fast_ethernet_2005(),
            NetProfile::gigabit(),
            NetProfile::dual_gigabit(),
            NetProfile::hetero_uplink(),
        ]
    }

    /// Looks a profile up by its stable name.
    pub fn by_name(name: &str) -> Option<NetProfile> {
        NetProfile::all().into_iter().find(|p| p.name == name)
    }

    /// Pins a [`SERVICE_BOUNDARY`] heterogeneous split to the actual
    /// compute/service boundary (node ids `>= ranks` are service nodes).
    /// No-op for homogeneous profiles or already-resolved boundaries.
    pub fn resolve_service_boundary(&mut self, ranks: usize) {
        if let Some(h) = self.hetero.as_mut() {
            if h.fast_from == SERVICE_BOUNDARY {
                h.fast_from = ranks;
            }
        }
    }

    /// The link class `node` attaches through.
    pub fn node_params(&self, node: usize) -> &EthernetParams {
        match &self.hetero {
            Some(h) if node >= h.fast_from => &h.fast,
            _ => &self.base,
        }
    }
}

/// Per-node link occupancy state under a [`NetProfile`]. Each node owns
/// `nics` egress and `nics` ingress channels; a transfer books the
/// earliest-free channel on each side (lowest index on ties, so channel
/// selection is deterministic).
pub struct Network {
    profile: NetProfile,
    /// Flattened `[node][channel]` egress-free times (stride = nics).
    tx_free: Vec<SimTime>,
    /// Flattened `[node][channel]` ingress-free times (stride = nics).
    rx_free: Vec<SimTime>,
}

/// Picks the earliest-free channel (first on ties).
fn pick(channels: &mut [SimTime]) -> &mut SimTime {
    let mut best = 0;
    for (i, t) in channels.iter().enumerate().skip(1) {
        if *t < channels[best] {
            best = i;
        }
    }
    &mut channels[best]
}

impl Network {
    pub fn new(profile: NetProfile) -> Self {
        assert!(profile.nics >= 1, "a node needs at least one NIC");
        Network {
            profile,
            tx_free: Vec::new(),
            rx_free: Vec::new(),
        }
    }

    /// Compatibility constructor: a homogeneous single-NIC fabric from
    /// raw link parameters.
    pub fn from_params(params: EthernetParams) -> Self {
        Network::new(NetProfile {
            name: "custom",
            base: params,
            nics: 1,
            hetero: None,
        })
    }

    pub fn ensure_node(&mut self, node: usize) {
        let need = (node + 1) * self.profile.nics;
        while self.tx_free.len() < need {
            self.tx_free.push(SimTime::ZERO);
            self.rx_free.push(SimTime::ZERO);
        }
    }

    /// Clears busy state of a crashed node's NIC(s).
    pub fn reset_node(&mut self, node: usize) {
        self.ensure_node(node);
        let k = self.profile.nics;
        for ch in 0..k {
            self.tx_free[node * k + ch] = SimTime::ZERO;
            self.rx_free[node * k + ch] = SimTime::ZERO;
        }
    }

    fn tx(&mut self, node: usize) -> &mut SimTime {
        let k = self.profile.nics;
        pick(&mut self.tx_free[node * k..(node + 1) * k])
    }

    fn rx(&mut self, node: usize) -> &mut SimTime {
        // Half duplex: egress and ingress share the node's channel(s).
        let k = self.profile.nics;
        if self.profile.base.half_duplex {
            pick(&mut self.tx_free[node * k..(node + 1) * k])
        } else {
            pick(&mut self.rx_free[node * k..(node + 1) * k])
        }
    }

    /// Books the transfer of `app_bytes` from `src` to `dst` starting no
    /// earlier than `now`; returns the instant the last byte arrives.
    ///
    /// Each endpoint serializes at its own link class's rate; the fixed
    /// latency is the slower endpoint's. For a homogeneous single-NIC
    /// profile this is byte-identical to the paper-testbed model.
    pub fn send(&mut self, now: SimTime, src: usize, dst: usize, app_bytes: u64) -> SimTime {
        assert_ne!(src, dst, "use loopback for same-node messages");
        self.ensure_node(src.max(dst));
        let sp = self.profile.node_params(src);
        let dp = self.profile.node_params(dst);
        let wire_bytes = (app_bytes + sp.per_msg_overhead).max(sp.min_frame_bytes);
        let ser_tx = sp.serialization(wire_bytes);
        let ser_rx = dp.serialization(wire_bytes);
        let frame_store = dp.serialization(wire_bytes.min(dp.frame_bytes));
        let latency = sp.latency.max(dp.latency);

        let tx = self.tx(src);
        let tx_start = now.max(*tx);
        let tx_end = tx_start + ser_tx;
        *tx = tx_end;

        // Cut-through: first bits reach the destination link one latency
        // after they leave; the destination link must serialize the whole
        // message and cannot finish before the source has finished sending
        // plus one frame of store delay.
        let rx = self.rx(dst);
        let rx_start = (tx_start + latency).max(*rx);
        let rx_end = (rx_start + ser_rx).max(tx_end + latency + frame_store);
        *rx = rx_end;
        rx_end
    }

    /// One-way time for a message on an idle network (no contention),
    /// over the base link class. Useful for model validation and
    /// analytic checks in tests.
    pub fn uncontended_one_way(&self, app_bytes: u64) -> SimDuration {
        let p = &self.profile.base;
        let wire_bytes = (app_bytes + p.per_msg_overhead).max(p.min_frame_bytes);
        let ser = p.serialization(wire_bytes);
        let frame_store = p.serialization(wire_bytes.min(p.frame_bytes));
        ser + p.latency + frame_store
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn net() -> Network {
        Network::new(NetProfile::fast_ethernet_2005())
    }

    #[test]
    fn small_message_latency_is_dominated_by_fixed_costs() {
        let mut n = net();
        let t = n.send(SimTime::ZERO, 0, 1, 1);
        // 67 wire bytes serialized twice (src link + dst link via cut
        // through) + fixed latency: comfortably under 100 us on FastE.
        let one_way = n.uncontended_one_way(1);
        assert_eq!(t.as_nanos(), one_way.as_nanos());
        assert!(one_way.as_micros_f64() > 40.0 && one_way.as_micros_f64() < 80.0);
    }

    #[test]
    fn streaming_throughput_reaches_line_rate() {
        // Send 100 x 64 KiB back to back: total time must be close to the
        // serialization of the total volume, not twice it (cut-through).
        let mut n = net();
        let msg = 64 * 1024u64;
        let mut last = SimTime::ZERO;
        for _ in 0..100 {
            last = n.send(SimTime::ZERO, 0, 1, msg);
        }
        let total_bytes = 100 * (msg + 66);
        let ideal = EthernetParams::default().serialization(total_bytes);
        let slack = last.as_nanos() as f64 / ideal.as_nanos() as f64;
        assert!(slack < 1.02, "throughput collapsed: slack={slack}");
    }

    #[test]
    fn ingress_contention_serializes_two_senders() {
        let mut n = net();
        let msg = 1_000_000u64;
        let a = n.send(SimTime::ZERO, 0, 2, msg);
        let b = n.send(SimTime::ZERO, 1, 2, msg);
        // The second message must queue behind the first on node 2's link.
        let ser = EthernetParams::default().serialization(msg + 66);
        assert!(b > a);
        assert!((b - a).as_nanos() >= ser.as_nanos() * 99 / 100);
    }

    #[test]
    fn full_duplex_overlaps_opposite_directions() {
        let mut n = net();
        let msg = 1_000_000u64;
        let a = n.send(SimTime::ZERO, 0, 1, msg);
        let b = n.send(SimTime::ZERO, 1, 0, msg);
        // Opposite directions share nothing: finish times are identical.
        assert_eq!(a, b);
    }

    #[test]
    fn half_duplex_serializes_opposite_directions() {
        let mut params = EthernetParams::default();
        params.half_duplex = true;
        let mut n = Network::from_params(params);
        let msg = 1_000_000u64;
        let a = n.send(SimTime::ZERO, 0, 1, msg);
        let b = n.send(SimTime::ZERO, 1, 0, msg);
        assert!(b > a, "half duplex must serialize the two transfers");
    }

    #[test]
    fn reset_clears_busy_state() {
        let mut n = net();
        n.send(SimTime::ZERO, 0, 1, 10_000_000);
        n.reset_node(0);
        n.reset_node(1);
        let t = n.send(SimTime::from_nanos(1), 0, 1, 1);
        assert!(t.as_micros_f64() < 100.0);
    }

    #[test]
    fn tiny_messages_pay_fixed_wire_costs() {
        let p = EthernetParams::default();
        let n = Network::from_params(p.clone());
        // A 0-byte app message still pays header overhead on the wire, so
        // it is barely cheaper than a 1-byte message and much more than 0.
        let t0 = n.uncontended_one_way(0);
        let t1 = n.uncontended_one_way(1);
        assert!(t0 <= t1);
        assert!(t0.as_micros_f64() > p.latency.as_micros_f64());
        assert!((t1.as_nanos() - t0.as_nanos()) < 1_000);
    }

    #[test]
    fn gigabit_profile_is_an_order_faster_on_bulk() {
        let mut faste = net();
        let mut giga = Network::new(NetProfile::gigabit());
        let msg = 1_000_000u64;
        let a = faste.send(SimTime::ZERO, 0, 1, msg);
        let b = giga.send(SimTime::ZERO, 0, 1, msg);
        let ratio = a.as_nanos() as f64 / b.as_nanos() as f64;
        assert!(
            (8.0..12.0).contains(&ratio),
            "gigabit speedup off: {ratio:.1}x"
        );
    }

    #[test]
    fn dual_nic_overlaps_two_ingress_streams() {
        // Two senders into one dual-NIC receiver: each stream takes its
        // own channel, so both finish when a single uncontended transfer
        // would. A single-NIC receiver serializes them.
        let msg = 1_000_000u64;
        let mut dual = Network::new(NetProfile::dual_gigabit());
        let a = dual.send(SimTime::ZERO, 0, 2, msg);
        let b = dual.send(SimTime::ZERO, 1, 2, msg);
        assert_eq!(a, b, "bonded channels must carry the streams in parallel");
        let mut single = Network::new(NetProfile::gigabit());
        let c = single.send(SimTime::ZERO, 0, 2, msg);
        let d = single.send(SimTime::ZERO, 1, 2, msg);
        assert!(d > c, "single NIC must serialize the two streams");
        // A third stream into the dual-NIC receiver queues again.
        let e = dual.send(SimTime::ZERO, 3, 2, msg);
        assert!(e > a);
    }

    #[test]
    fn hetero_uplink_drains_service_ingress_faster() {
        let mut profile = NetProfile::hetero_uplink();
        profile.resolve_service_boundary(2); // nodes >= 2 are service nodes
        let mut n = Network::new(profile.clone());
        let msg = 1_000_000u64;
        // rank -> service: receiver drains at gigabit, so back-to-back
        // records from two ranks queue far less at the service ingress
        // than they would on the all-FastE fabric.
        let a = n.send(SimTime::ZERO, 0, 2, msg);
        let b = n.send(SimTime::ZERO, 1, 2, msg);
        let mut flat = net();
        let fa = flat.send(SimTime::ZERO, 0, 2, msg);
        let fb = flat.send(SimTime::ZERO, 1, 2, msg);
        assert!(
            (b - a).as_nanos() < (fb - fa).as_nanos() / 5,
            "gigabit uplink should collapse the ingress queue: hetero gap {:?} vs flat gap {:?}",
            b - a,
            fb - fa
        );
        // rank -> rank stays pure FastE: byte-identical to the flat fabric
        // (fresh networks so neither side carries leftover occupancy).
        let mut hetero_fresh = Network::new(profile);
        let mut flat_fresh = net();
        assert_eq!(
            hetero_fresh.send(SimTime::ZERO, 0, 1, msg),
            flat_fresh.send(SimTime::ZERO, 0, 1, msg)
        );
    }

    #[test]
    fn profiles_resolve_by_name_and_boundary() {
        for p in NetProfile::all() {
            assert_eq!(NetProfile::by_name(p.name).unwrap().name, p.name);
        }
        assert!(NetProfile::by_name("token-ring").is_none());
        let mut h = NetProfile::hetero_uplink();
        assert_eq!(h.hetero.as_ref().unwrap().fast_from, SERVICE_BOUNDARY);
        h.resolve_service_boundary(16);
        assert_eq!(h.hetero.as_ref().unwrap().fast_from, 16);
        h.resolve_service_boundary(4); // already pinned: no-op
        assert_eq!(h.hetero.as_ref().unwrap().fast_from, 16);
        assert_eq!(h.node_params(15).bandwidth_bps, 100e6);
        assert_eq!(h.node_params(16).bandwidth_bps, 1e9);
    }
}

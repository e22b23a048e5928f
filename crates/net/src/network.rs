//! The network model's core: the event alphabet, the node and network
//! state, construction, and the one event dispatch. Every event lands in
//! one of four layers, one module each:
//!
//! * `dataplane` — switch arrival (route, MMU admission, ECN) and the
//!   egress serializers every node shares;
//! * `flow_control` — the glue between each switch's MMU and the PFC
//!   frames on the wire: emission, receipt and application;
//! * `host` — the host NIC: flow start, sending, ACK/NACK/CNP receipt,
//!   delivery, the CC and RTO timers and loss recovery;
//! * `observe` — the `Sample` tick (goodput monitors, PFC watchdog,
//!   metrics capture) and the measurement accessors.

use crate::arena::{FrameArena, FrameId};
use crate::builder::NetParams;
use crate::dataplane::SwitchNode;
use crate::frame::{FrameKind, PfcScope};
use crate::host::{HostNode, ReceiverFlow, SenderFlow};
use crate::ids::{FlowId, NodeId, NUM_DATA_CLASSES};
use crate::monitor::{FctRecord, PauseHistograms};
use crate::observe::{FlowMonitor, ObserveState};
use crate::port::{EgressPort, QueuedFrame};
use crate::routing::RouteTable;
use dsh_core::FcAction;
use dsh_simcore::trace::Tracer;
use dsh_simcore::{EventClass, Model, Scheduler, SimRng, Simulation, Time};
use dsh_transport::CcKind;
use std::ops::Range;

/// Specification of one flow.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FlowSpec {
    /// Source host.
    pub src: NodeId,
    /// Destination host.
    pub dst: NodeId,
    /// Size in payload bytes.
    pub size: u64,
    /// Priority class (0..7; class 7 is reserved for control traffic).
    pub class: u8,
    /// Start time.
    pub start: Time,
    /// Transport.
    pub cc: CcKind,
}

/// The simulator's event alphabet.
///
/// Node, port, and flow indices are stored as `u32` rather than the
/// `usize`-backed id types used everywhere else: every event is copied
/// into and out of the calendar's node slab, and the narrower fields keep
/// the whole event at 16 bytes (asserted below). The builder guarantees
/// the counts fit; [`Network::handle`] widens them back into typed ids.
#[derive(Clone, Debug)]
pub enum NetEvent {
    /// A frame finished arriving at `node` on ingress `in_port`.
    Arrive {
        /// Receiving node index.
        node: u32,
        /// Ingress port index at the receiving node.
        in_port: u32,
        /// The frame, by its id in the network's frame arena (the arriving
        /// node frees or forwards it).
        frame: FrameId,
    },
    /// `node`'s egress `port` finished serializing its current frame.
    TxDone {
        /// Transmitting node index.
        node: u32,
        /// The egress port, by its position in the network's port table.
        port: u32,
    },
    /// A received PFC frame takes effect after the standard processing
    /// delay.
    ApplyPause {
        /// Index of the node whose egress is paused/resumed.
        node: u32,
        /// The egress port (the one the PFC frame arrived on), by its
        /// position in the network's port table.
        port: u32,
        /// Queue- or port-level.
        scope: PfcScope,
        /// `true` = pause.
        pause: bool,
    },
    /// A flow becomes active at its source host.
    FlowStart {
        /// The flow index.
        flow: u32,
    },
    /// NIC pacing wake-up.
    HostWake {
        /// The host index.
        host: u32,
    },
    /// Congestion-control timer for one flow.
    CcTimer {
        /// Index of the flow's source host.
        host: u32,
        /// The flow index.
        flow: u32,
        /// Generation guard (stale timers are ignored).
        gen: u32,
    },
    /// Go-back-N retransmission timeout for one flow (lazy: the handler
    /// re-schedules itself when ACK progress pushed the deadline forward,
    /// so sends and ACKs never touch the calendar to re-arm it).
    RtoTimer {
        /// Index of the flow's source host.
        host: u32,
        /// The flow index.
        flow: u32,
        /// Generation guard (stale timers are ignored).
        gen: u32,
    },
    /// Periodic measurement tick (every [`NetParams::sample_interval`]):
    /// the goodput monitors, the PFC watchdog and, when
    /// `NetParams::observe` is set, the metrics sampler. Scheduled only
    /// when one of them exists.
    Sample,
}

/// A node in the network.
#[derive(Debug)]
#[allow(clippy::large_enum_variant)] // built once per node; indirection buys nothing
pub(crate) enum Node {
    /// A switch.
    Switch(SwitchNode),
    /// A host.
    Host(HostNode),
}

#[derive(Debug)]
pub(crate) struct FlowMeta {
    pub(crate) spec: FlowSpec,
    /// Position of the flow's sender state in its source host's
    /// `tx_flows`; [`NO_SENDER`] until the flow starts.
    pub(crate) sender: u32,
}

/// [`FlowMeta::sender`] of a flow that has not started.
const NO_SENDER: u32 = u32::MAX;

/// A complete simulated network: implements [`Model`] over [`NetEvent`].
///
/// Build with [`crate::NetworkBuilder`], add flows, convert into a
/// simulation with [`Network::into_sim`], run, then read measurements back
/// from the model.
#[derive(Debug)]
pub struct Network {
    pub(crate) params: NetParams,
    pub(crate) nodes: Vec<Node>,
    /// Every egress port in the network, node by node and each node's in
    /// link order: a port's [`EgressPort::index`] is its position here. A
    /// switch holds the position of its first port, a host that of its
    /// uplink.
    pub(crate) ports: Vec<EgressPort>,
    pub(crate) flows: Vec<FlowMeta>,
    pub(crate) flow_rx: Vec<u64>,
    /// Receiver-side per-flow state, indexed by flow id. Flow ids are
    /// global and each flow has exactly one receiver, so a flat vector
    /// replaces a per-host hash map on the per-packet delivery path.
    pub(crate) rx_flows: Vec<ReceiverFlow>,
    pub(crate) fct: Vec<FctRecord>,
    pub(crate) monitors: Vec<FlowMonitor>,
    /// Closed pause→resume intervals of every egress port, keyed by its
    /// position in `ports`.
    pub(crate) pauses: PauseHistograms,
    /// Egress ports with a port-level or a data-class pause asserted.
    pub(crate) paused_ports: u64,
    pub(crate) rng: SimRng,
    /// Every queued and in-flight frame, by [`FrameId`]: a consumed frame
    /// (ACK/CNP/PFC processed at its destination, dropped or flushed data)
    /// frees its slot for the next one, so the steady-state packet path
    /// never touches the allocator.
    pub(crate) frames: FrameArena,
    /// Scratch for `release_drained`: the frames of one watchdog flush
    /// (capacity reused across flushes).
    pub(crate) drained: Vec<QueuedFrame>,
    /// Scratch for `release_drained`: the flow-control actions their
    /// release owes.
    pub(crate) released: Vec<FcAction>,
    pub(crate) data_drops: u64,
    /// Data packets delivered to their destination host (denominator for
    /// the benches' allocations-per-packet metric).
    pub(crate) packets_delivered: u64,
    pub(crate) watchdog_drops: u64,
    /// Bytes re-sent below a flow's high-water mark.
    pub(crate) retransmitted_bytes: u64,
    /// Selective-repeat NACK frames sent by receivers.
    pub(crate) nacks_sent: u64,
    /// Bytes re-sent by selective-repeat gap repairs (a subset of
    /// `retransmitted_bytes`; go-back-N rewind bytes are the rest).
    pub(crate) sr_retransmitted_bytes: u64,
    /// Recovery episodes triggered by an RTO expiry (either regime), each
    /// of which resends.
    pub(crate) recovery_timeouts: u64,
    /// Loss episodes triggered by a NACK (selective repeat only).
    pub(crate) recovery_nacks: u64,
    /// Flows whose recovery hit the retry cap and gave up.
    pub(crate) failed_flows: u64,
    /// Flight recorder (shared with every switch MMU); the disabled
    /// tracer when no trace configuration is active.
    pub(crate) tracer: Tracer,
    /// Pause-causality observatory; `Some` only when
    /// `NetParams::observe` is set. Boxed so the disabled case costs one
    /// pointer-sized `Option` and a single branch on the pause path.
    pub(crate) observe: Option<Box<ObserveState>>,
    /// Pending instant-closed sample label: the `Sample` tick at `t` arms this and
    /// the first event *strictly after* `t` captures the sample (see
    /// [`crate::observe::MetricsSampler`]). `Time::MAX` when no sample is
    /// pending, so the masked-off dispatch cost is one compare-branch.
    pub(crate) metrics_capture_at: Time,
}

impl Network {
    pub(crate) fn from_parts(
        params: NetParams,
        nodes: Vec<Node>,
        ports: Vec<EgressPort>,
        tracer: Tracer,
    ) -> Self {
        let rng = SimRng::new(params.seed);
        // Pre-register every switch so metrics sampling never allocates.
        let observe = params.observe.as_ref().map(|_| {
            let mut st = Box::new(ObserveState::new(params.sample_interval));
            for (i, n) in nodes.iter().enumerate() {
                if matches!(n, Node::Switch(_)) {
                    st.metrics.add_switch(NodeId(i));
                }
            }
            st
        });
        Network {
            params,
            nodes,
            pauses: PauseHistograms::new(ports.len()),
            ports,
            flows: Vec::new(),
            flow_rx: Vec::new(),
            rx_flows: Vec::new(),
            fct: Vec::new(),
            monitors: Vec::new(),
            paused_ports: 0,
            rng,
            frames: FrameArena::default(),
            drained: Vec::new(),
            released: Vec::new(),
            data_drops: 0,
            packets_delivered: 0,
            watchdog_drops: 0,
            retransmitted_bytes: 0,
            nacks_sent: 0,
            sr_retransmitted_bytes: 0,
            recovery_timeouts: 0,
            recovery_nacks: 0,
            failed_flows: 0,
            tracer,
            observe,
            metrics_capture_at: Time::MAX,
        }
    }

    /// The flight-recorder tracer this network (and its switch MMUs)
    /// records into. Off unless the network was built inside a
    /// [`dsh_simcore::trace::capture`] session.
    #[must_use]
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Registers a flow; returns its id. All flows must be added before
    /// [`Network::into_sim`].
    ///
    /// # Panics
    ///
    /// Panics if the class is not a data class, the endpoints are not
    /// hosts or the source has no uplink.
    pub fn add_flow(&mut self, spec: FlowSpec) -> FlowId {
        assert!((spec.class as usize) < NUM_DATA_CLASSES, "class must be 0..7");
        assert!(matches!(self.nodes[spec.src.0], Node::Host(_)), "src must be a host");
        assert!(matches!(self.nodes[spec.dst.0], Node::Host(_)), "dst must be a host");
        assert!(spec.size > 0, "flow size must be positive");
        let src = self.host_mut(spec.src);
        assert!(src.uplink != NO_PORT, "src {} has no uplink; call NetworkBuilder::link", src.id);
        src.sourced += 1;
        let id = FlowId(self.flows.len());
        self.flows.push(FlowMeta { spec, sender: NO_SENDER });
        self.flow_rx.push(0);
        self.rx_flows.push(ReceiverFlow::new());
        id
    }

    /// Starts recording a goodput time series for `flow` (sampled every
    /// [`NetParams::sample_interval`]).
    pub fn monitor_flow(&mut self, flow: FlowId) {
        self.monitors.push(FlowMonitor { flow, last_bytes: 0, samples: Vec::new() });
    }

    /// Converts the network into a ready-to-run simulation: flow starts
    /// are scheduled, and the sampling tick when something reads it (a
    /// flow monitor, the PFC watchdog or the observatory).
    #[must_use]
    pub fn into_sim(self) -> Simulation<Network> {
        self.into_sim_as(|net| net)
    }

    /// [`Network::into_sim`] for a model that wraps the network, the way
    /// tests watch its event stream.
    pub(crate) fn into_sim_as<M: Model<Event = NetEvent>>(
        mut self,
        wrap: impl FnOnce(Network) -> M,
    ) -> Simulation<M> {
        // One FCT record per flow, reserved now so a completion mid-run
        // never reallocates the log (the packet hot path stays
        // allocation-free; see DESIGN.md §10).
        self.fct.reserve(self.flows.len());
        let starts: Vec<(Time, FlowId)> =
            self.flows.iter().enumerate().map(|(i, f)| (f.spec.start, FlowId(i))).collect();
        let tick = (!self.monitors.is_empty()
            || self.params.pfc_watchdog.is_some()
            || self.observe.is_some())
        .then_some(self.params.sample_interval);
        // The calendar is sized for every event seeded below, so seeding
        // never regrows it; a power of two, so the run's later growth
        // steps are the ones an unsized calendar's doubling takes.
        let capacity = (starts.len() + 1).next_power_of_two();
        let mut sim = Simulation::with_capacity(wrap(self), capacity);
        for (t, flow) in starts {
            sim.schedule(t, NetEvent::FlowStart { flow: flow.0 as u32 });
        }
        if let Some(tick) = tick {
            sim.schedule(Time::ZERO + tick, NetEvent::Sample);
        }
        sim
    }

    /// Number of nodes; node ids run `0..node_count()`.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// A node's egress ports, one contiguous slice of the network's port
    /// table: a switch's in port order, a host's uplink (none for a host
    /// that was never linked).
    #[must_use]
    pub fn ports(&self, node: NodeId) -> &[EgressPort] {
        &self.ports[self.port_range(node)]
    }

    /// A switch's ECMP routing table, computed at build; `None` for a
    /// host, which routes nothing.
    #[must_use]
    pub fn route_table(&self, node: NodeId) -> Option<&RouteTable> {
        match &self.nodes[node.0] {
            Node::Switch(s) => Some(&s.routes),
            Node::Host(_) => None,
        }
    }

    /// Number of flows registered.
    #[must_use]
    pub fn flow_count(&self) -> usize {
        self.flows.len()
    }

    // ---- node plumbing ----------------------------------------------------

    /// Every egress port in the network as `(node, port index, port)`, in
    /// node then port order: the port table's order.
    pub(crate) fn all_ports(&self) -> impl Iterator<Item = (NodeId, usize, &EgressPort)> {
        (0..self.nodes.len()).map(NodeId).flat_map(move |node| {
            self.ports(node).iter().enumerate().map(move |(p, port)| (node, p, port))
        })
    }

    /// Every switch in node order, with its id.
    pub(crate) fn switches(&self) -> impl Iterator<Item = (NodeId, &SwitchNode)> {
        self.nodes.iter().enumerate().filter_map(|(i, n)| match n {
            Node::Switch(s) => Some((NodeId(i), s)),
            Node::Host(_) => None,
        })
    }

    pub(crate) fn host_mut(&mut self, id: NodeId) -> &mut HostNode {
        match &mut self.nodes[id.0] {
            Node::Host(h) => h,
            Node::Switch(_) => panic!("{id} is not a host"),
        }
    }

    pub(crate) fn is_host(&self, id: NodeId) -> bool {
        matches!(self.nodes[id.0], Node::Host(_))
    }

    /// Position of `flow`'s sender state in its source host's
    /// `tx_flows`, once the flow has started.
    pub(crate) fn sender_slot(&self, flow: FlowId) -> Option<usize> {
        match self.flows[flow.0].sender {
            NO_SENDER => None,
            slot => Some(slot as usize),
        }
    }

    /// The sender state of `flow` at its source host `node`, once the
    /// flow has started.
    pub(crate) fn sender_mut(&mut self, node: NodeId, flow: FlowId) -> Option<&mut SenderFlow> {
        debug_assert_eq!(node, self.flows[flow.0].spec.src, "{flow:?} is not sourced at {node}");
        let slot = self.sender_slot(flow)?;
        Some(&mut self.host_mut(node).tx_flows[slot])
    }

    pub(crate) fn switch_mut(&mut self, id: NodeId) -> &mut SwitchNode {
        match &mut self.nodes[id.0] {
            Node::Switch(s) => s,
            Node::Host(_) => panic!("{id} is not a switch"),
        }
    }

    /// Position in the port table of the first egress port of `node`: a
    /// switch's port 0, a host's uplink. Port `p` of the node sits `p`
    /// places further on.
    #[inline]
    pub(crate) fn first_port(&self, node: NodeId) -> usize {
        match &self.nodes[node.0] {
            Node::Switch(s) => s.first_port as usize,
            Node::Host(h) => h.uplink as usize,
        }
    }

    /// The port-table positions of `node`'s egress ports.
    pub(crate) fn port_range(&self, node: NodeId) -> Range<usize> {
        let (first, count) = match &self.nodes[node.0] {
            Node::Switch(s) => (s.first_port, s.port_count),
            Node::Host(h) if h.uplink == NO_PORT => (0, 0),
            Node::Host(h) => (h.uplink, 1),
        };
        first as usize..(first + count) as usize
    }

    /// Host `id` and its uplink, borrowed apart.
    pub(crate) fn host_with_uplink(&mut self, id: NodeId) -> (&mut HostNode, &mut EgressPort) {
        match &mut self.nodes[id.0] {
            Node::Host(h) => {
                let uplink = &mut self.ports[h.uplink as usize];
                (h, uplink)
            }
            Node::Switch(_) => panic!("{id} is not a host"),
        }
    }
}

/// The port-table position of a host that was never linked: it has no
/// uplink.
pub(crate) const NO_PORT: u32 = u32::MAX;

// Hot-path size contracts: calendar entries and queue slots are memcpy'd
// constantly, so they carry a frame as its 4-byte arena id, and a queue
// slot inlines just the fields the egress reads.
dsh_simcore::const_assert_size!(NetEvent, 16);
dsh_simcore::const_assert_size!(QueuedFrame, 16);
// A frame is its header and payload; INT hop records live in the arena's
// hop slab, so HOP_CAPACITY sizes a slab slot and never the frame.
dsh_simcore::const_assert_size!(crate::frame::Frame, 72);
// Fabric state contracts: ports and nodes are built by the thousand at
// paper scale, so per-port telemetry (the pause histograms) lives in the
// network's stores, and every port in the one port table, not in its node.
// A port holds its PFC lane and DWRR list inline, so building one
// allocates nothing; the switch variant, with its MMU, sizes `Node`.
dsh_simcore::const_assert_size!(EgressPort, 872);
dsh_simcore::const_assert_size!(Node, 464);

impl Model for Network {
    type Event = NetEvent;

    fn handle(&mut self, event: NetEvent, sched: &mut Scheduler<'_, NetEvent>) {
        // Stamp the flight-recorder clock once per event: trace points
        // below the dispatch (the MMU in particular) need no Time access.
        self.tracer.tick(sched.now());
        // Instant-closed metrics capture: the sample armed at `t` is taken
        // at the first event strictly after `t`, before that event runs —
        // the event *set* at instants `<= t` is engine-invariant even
        // though the intra-instant order is not. `metrics_capture_at` is
        // `Time::MAX` unless a tick armed it, so the masked-off cost is
        // this one compare-branch.
        if sched.now() > self.metrics_capture_at {
            self.capture_metrics();
        }
        // Events carry compact u32 indices (see `NetEvent`); widen them
        // back into the typed ids the rest of the model uses.
        match event {
            NetEvent::Arrive { node, in_port, frame } => {
                let (node, in_port) = (NodeId(node as usize), in_port as usize);
                // PFC frames are link-local at either kind of node.
                if let FrameKind::Pfc(pfc) = self.frames.get(frame).kind {
                    self.receive_pfc(node, in_port, frame, pfc, sched);
                } else if self.is_host(node) {
                    self.host_arrive(node, frame, sched);
                } else {
                    self.switch_arrive(node, in_port, frame, sched);
                }
            }
            NetEvent::TxDone { node, port } => {
                self.handle_tx_done(NodeId(node as usize), port as usize, sched);
            }
            NetEvent::ApplyPause { node, port, scope, pause } => {
                self.handle_apply_pause(NodeId(node as usize), port as usize, scope, pause, sched);
            }
            NetEvent::FlowStart { flow } => self.handle_flow_start(FlowId(flow as usize), sched),
            NetEvent::HostWake { host } => self.handle_host_wake(NodeId(host as usize), sched),
            NetEvent::CcTimer { host, flow, gen } => {
                self.handle_cc_timer(NodeId(host as usize), FlowId(flow as usize), gen, sched);
            }
            NetEvent::RtoTimer { host, flow, gen } => {
                self.handle_rto_timer(NodeId(host as usize), FlowId(flow as usize), gen, sched);
            }
            NetEvent::Sample => self.handle_sample(sched),
        }
    }
}

/// Classification for [`Simulation::run_until_profiled`]: one class per
/// [`NetEvent`] variant, in declaration order.
impl EventClass for NetEvent {
    const NAMES: &'static [&'static str] = &[
        "arrive",
        "tx_done",
        "apply_pause",
        "flow_start",
        "host_wake",
        "cc_timer",
        "rto_timer",
        "sample",
    ];

    fn class(&self) -> usize {
        match self {
            NetEvent::Arrive { .. } => 0,
            NetEvent::TxDone { .. } => 1,
            NetEvent::ApplyPause { .. } => 2,
            NetEvent::FlowStart { .. } => 3,
            NetEvent::HostWake { .. } => 4,
            NetEvent::CcTimer { .. } => 5,
            NetEvent::RtoTimer { .. } => 6,
            NetEvent::Sample => 7,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::NetworkBuilder;
    use dsh_core::Scheme;
    use dsh_simcore::{Bandwidth, Delta, Json};

    fn two_hosts_one_switch(scheme: Scheme) -> (Network, NodeId, NodeId) {
        let mut b = NetworkBuilder::new(NetParams::tomahawk(scheme).without_ecn());
        let h0 = b.host();
        let h1 = b.host();
        let s = b.switch();
        b.link(h0, s, Bandwidth::from_gbps(100), Delta::from_us(2));
        b.link(h1, s, Bandwidth::from_gbps(100), Delta::from_us(2));
        (b.build(), h0, h1)
    }

    /// A flow of `size` bytes in `class` from `src` to `dst`, started at 0.
    fn spec(src: NodeId, dst: NodeId, size: u64, class: u8, cc: CcKind) -> FlowSpec {
        FlowSpec { src, dst, size, class, start: Time::ZERO, cc }
    }

    #[test]
    #[should_panic(expected = "sample interval must be positive")]
    fn build_rejects_a_zero_sample_interval() {
        let mut params = NetParams::tomahawk(Scheme::Dsh);
        params.sample_interval = Delta::ZERO;
        let _ = NetworkBuilder::new(params).build();
    }

    #[test]
    fn single_flow_fct_matches_hand_calculation() {
        let (mut net, h0, h1) = two_hosts_one_switch(Scheme::Dsh);
        // One MTU of payload.
        let f = net.add_flow(spec(h0, h1, 1500, 0, CcKind::Uncontrolled));
        let mut sim = net.into_sim();
        sim.run_until(Time::from_ms(1));
        let net = sim.into_model();
        let rec = net.fct_records()[0];
        assert_eq!(rec.flow, f);
        // Store-and-forward: 2 serializations (120 ns each) + 2
        // propagations (2 us each) = 4.24 us.
        let expect = Delta::from_ns(2 * 120 + 2 * 2_000);
        assert_eq!(rec.fct(), expect, "got {}", rec.fct());
    }

    #[test]
    fn flow_rx_bytes_and_monitor_series() {
        let (mut net, h0, h1) = two_hosts_one_switch(Scheme::Dsh);
        let f = net.add_flow(spec(h0, h1, 3_000_000, 2, CcKind::Uncontrolled));
        net.monitor_flow(f);
        let mut sim = net.into_sim();
        sim.run_until(Time::from_us(100));
        let net = sim.model();
        assert!(net.flow_rx_bytes(f) > 0);
        let series = net.flow_throughput(f);
        assert!(!series.is_empty());
        // Steady-state samples run at ~line rate.
        let peak = series.iter().map(|s| s.gbps).fold(0.0, f64::max);
        assert!(peak > 90.0, "peak {peak} Gb/s");
    }

    #[test]
    fn metrics_and_monitors_share_one_sampling_clock() {
        let mut params = NetParams::tomahawk(Scheme::Dsh)
            .without_ecn()
            .with_observability(crate::observe::ObserveConfig);
        // Off the 10 us default, so a second clock would show.
        params.sample_interval = Delta::from_us(7);
        let mut b = NetworkBuilder::new(params);
        let (h0, h1, s) = (b.host(), b.host(), b.switch());
        b.link(h0, s, Bandwidth::from_gbps(100), Delta::from_us(2));
        b.link(h1, s, Bandwidth::from_gbps(100), Delta::from_us(2));
        let mut net = b.build();
        let f = net.add_flow(spec(h0, h1, 1_000_000, 0, CcKind::Uncontrolled));
        net.monitor_flow(f);
        let mut sim = net.into_sim();
        sim.run_until(Time::from_us(100));
        let net = sim.into_model();
        let ticks: Vec<u64> = net.flow_throughput(f).iter().map(|s| s.time.as_ns()).collect();
        let doc = net.metrics_json().expect("observatory armed");
        assert_eq!(doc.get("interval_ns").and_then(Json::as_u64), Some(7_000));
        let instants = |series: &Json| -> Vec<u64> {
            let col = series.get("t_ns").and_then(Json::as_arr).expect("t_ns");
            col.iter().map(|v| v.as_u64().expect("u64 instant")).collect()
        };
        let global = instants(doc.get("global").expect("global series"));
        assert!(!global.is_empty(), "no metrics sample in 100 us");
        assert!(global.iter().all(|t| ticks.contains(t)), "{global:?} vs ticks {ticks:?}");
        for sw in doc.get("switches").and_then(Json::as_arr).expect("switches") {
            assert_eq!(instants(sw), global);
        }
    }

    #[test]
    fn flows_on_different_classes_share_via_dwrr() {
        let (mut net, h0, h1) = two_hosts_one_switch(Scheme::Dsh);
        let a = net.add_flow(spec(h0, h1, 2_000_000, 0, CcKind::Uncontrolled));
        let b = net.add_flow(spec(h0, h1, 2_000_000, 1, CcKind::Uncontrolled));
        let mut sim = net.into_sim();
        sim.run_until(Time::from_us(120));
        let net = sim.model();
        let ra = net.flow_rx_bytes(a) as f64;
        let rb = net.flow_rx_bytes(b) as f64;
        assert!(ra > 0.0 && rb > 0.0);
        let ratio = ra / rb;
        assert!((0.8..1.25).contains(&ratio), "DWRR share skewed: {ratio}");
    }

    #[test]
    fn telemetry_report_covers_switches_and_roundtrips_json() {
        let (mut net, h0, h1) = two_hosts_one_switch(Scheme::Dsh);
        net.add_flow(spec(h0, h1, 500_000, 0, CcKind::Uncontrolled));
        let mut sim = net.into_sim();
        sim.run_until(Time::from_ms(1));
        let end = sim.now();
        let net = sim.into_model();
        let report = net.telemetry_report(end);
        assert_eq!(report.switches.len(), 1);
        assert_eq!(report.ports.len(), 4, "2 host uplinks + 2 switch ports");
        let sw = &report.switches[0];
        assert!(sw.audit.is_clean(), "{}", sw.audit);
        assert!(sw.stats.admitted_packets > 0);
        assert!(report.lossless_violations().is_empty());
        // The JSON export survives a print/parse round trip.
        let j = report.to_json();
        let parsed = dsh_simcore::Json::parse(&j.to_string()).unwrap();
        assert_eq!(parsed, j);
        assert_eq!(parsed.get("data_drops").unwrap().as_u64(), Some(0));
    }

    #[test]
    fn audit_all_names_each_switch() {
        let (net, _, _) = two_hosts_one_switch(Scheme::Sih);
        let audits = net.audit_all();
        assert_eq!(audits.len(), 1);
        assert_eq!(audits[0].0, NodeId(2));
        assert!(audits[0].1.is_clean());
    }

    #[test]
    fn pause_ledgers_report_all_ports() {
        let (net, _, _) = two_hosts_one_switch(Scheme::Sih);
        let ledgers: Vec<_> = net.pause_ledgers(Time::ZERO).collect();
        // 2 host uplinks + 2 switch ports.
        assert_eq!(ledgers.len(), 4);
        assert!(ledgers.iter().all(|l| l.total() == Delta::ZERO));
    }

    #[test]
    #[should_panic(expected = "class must be 0..7")]
    fn control_class_flows_are_rejected() {
        let (mut net, h0, h1) = two_hosts_one_switch(Scheme::Dsh);
        net.add_flow(spec(h0, h1, 100, 7, CcKind::Uncontrolled));
    }

    #[test]
    #[should_panic(expected = "src must be a host")]
    fn switch_sources_are_rejected() {
        let (mut net, _, h1) = two_hosts_one_switch(Scheme::Dsh);
        net.add_flow(spec(NodeId(2), h1, 100, 0, CcKind::Uncontrolled));
    }

    #[test]
    #[should_panic(expected = "src n0 has no uplink")]
    fn flows_from_an_unlinked_host_are_rejected() {
        let mut b = NetworkBuilder::new(NetParams::tomahawk(Scheme::Dsh));
        let (h0, h1, s) = (b.host(), b.host(), b.switch());
        b.link(h1, s, Bandwidth::from_gbps(100), Delta::from_us(2));
        let mut net = b.build();
        assert!(net.ports(h0).is_empty(), "an unlinked host has no port");
        net.add_flow(spec(h0, h1, 100, 0, CcKind::Uncontrolled));
    }

    #[test]
    fn deterministic_across_identical_runs() {
        let run = || {
            let (mut net, h0, h1) = two_hosts_one_switch(Scheme::Sih);
            for i in 0..4 {
                net.add_flow(FlowSpec {
                    src: if i % 2 == 0 { h0 } else { h1 },
                    dst: if i % 2 == 0 { h1 } else { h0 },
                    size: 100_000 + i * 7_777,
                    class: (i % 3) as u8,
                    start: Time::from_us(i),
                    cc: CcKind::Dcqcn,
                });
            }
            let mut sim = net.into_sim();
            sim.run_until(Time::from_ms(5));
            let net = sim.into_model();
            net.fct_records().iter().map(|r| (r.flow, r.finish)).collect::<Vec<_>>()
        };
        assert_eq!(run(), run(), "simulation must be deterministic");
    }

    #[test]
    fn ack_clocking_completes_windowed_flows() {
        // PowerTCP is window-limited; without working ACKs it would stall.
        let (mut net, h0, h1) = two_hosts_one_switch(Scheme::Dsh);
        net.add_flow(spec(h0, h1, 1_000_000, 0, CcKind::PowerTcp));
        let mut sim = net.into_sim();
        sim.run_until(Time::from_ms(5));
        let net = sim.into_model();
        assert_eq!(net.fct_records().len(), 1);
        assert_eq!(net.data_drops(), 0);
    }
}

//! The network model: event dispatch, switching, host NIC logic and
//! measurement.

use crate::arena::{FrameArena, FrameId};
use crate::builder::NetParams;
use crate::frame::{AckFrame, DataFrame, Frame, FrameKind, NackFrame, PfcScope};
use crate::host::{HostNode, ReceiverFlow, SenderFlow};
use crate::ids::{FlowId, NodeId, NUM_DATA_CLASSES};
use crate::monitor::{
    ClassPauseTelemetry, FctRecord, PauseHistograms, PauseLedger, PortPauseTelemetry,
    SwitchTelemetry, TelemetryReport, ThroughputSample, PORT_SCOPE,
};
use crate::observe::{GlobalSample, ObserveState, PauseCycle, SwitchSample, PORT_SCOPE_CLASS};
use crate::port::{EgressPort, IngressTag, QueuedFrame};
use crate::routing::RouteTable;
use crate::switch::SwitchNode;
use dsh_core::headroom::PFC_PROCESSING_BYTES;
use dsh_core::{FcAction, FcActions};
use dsh_simcore::trace::{TraceEvent, TraceLog, Tracer};
use dsh_simcore::{trace_event, Delta, EventClass, Model, Scheduler, SimRng, Simulation, Time};
use dsh_transport::{
    new_cc, AckInfo, Cc, CcKind, GoBackN, RecoveryConfig, Regime, RtoOutcome, SackBuffer,
    SackState, TelemetryHop,
};

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
        /// Egress port index.
        port: u32,
    },
    /// A received PFC frame takes effect after the standard processing
    /// delay.
    ApplyPause {
        /// Index of the node whose egress is paused/resumed.
        node: u32,
        /// Egress port index (the port the PFC frame arrived on).
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
struct FlowMeta {
    spec: FlowSpec,
    /// Position of the flow's sender state in its source host's
    /// `tx_flows`; [`NO_SENDER`] until the flow starts.
    sender: u32,
    completed: bool,
    /// Loss recovery gave up on this flow (go-back-N hit its retry cap);
    /// marked explicitly so a run can tell failed from wedged.
    failed: bool,
}

/// [`FlowMeta::sender`] of a flow that has not started.
const NO_SENDER: u32 = u32::MAX;

#[derive(Debug)]
struct FlowMonitor {
    flow: FlowId,
    last_bytes: u64,
    samples: Vec<ThroughputSample>,
}

/// A complete simulated network: implements [`Model`] over [`NetEvent`].
///
/// Build with [`crate::NetworkBuilder`], add flows, convert into a
/// simulation with [`Network::into_sim`], run, then read measurements back
/// from the model.
#[derive(Debug)]
pub struct Network {
    params: NetParams,
    nodes: Vec<Node>,
    flows: Vec<FlowMeta>,
    flow_rx: Vec<u64>,
    /// Receiver-side per-flow state, indexed by flow id. Flow ids are
    /// global and each flow has exactly one receiver, so a flat vector
    /// replaces a per-host hash map on the per-packet delivery path.
    rx_flows: Vec<ReceiverFlow>,
    fct: Vec<FctRecord>,
    monitors: Vec<FlowMonitor>,
    /// Closed pause→resume intervals of every egress port, keyed by
    /// [`EgressPort::index`].
    pauses: PauseHistograms,
    rng: SimRng,
    /// Every queued and in-flight frame, by [`FrameId`]: a consumed frame
    /// (ACK/CNP/PFC processed at its destination, dropped or flushed data)
    /// frees its slot for the next one, so the steady-state packet path
    /// never touches the allocator.
    frames: FrameArena,
    /// Scratch for [`Self::release_drained`]: the frames of one watchdog
    /// flush (capacity reused across flushes).
    drained: Vec<QueuedFrame>,
    /// Scratch for [`Self::release_drained`]: the flow-control actions
    /// their release owes.
    released: Vec<FcAction>,
    data_drops: u64,
    /// Data packets delivered to their destination host (denominator for
    /// the benches' allocations-per-packet metric).
    packets_delivered: u64,
    watchdog_drops: u64,
    /// Go-back-N rewind episodes (RTO firings that retransmitted).
    retransmissions: u64,
    /// Bytes re-sent below a flow's high-water mark.
    retransmitted_bytes: u64,
    /// Selective-repeat NACK frames sent by receivers.
    nacks_sent: u64,
    /// Bytes re-sent by selective-repeat gap repairs (a subset of
    /// `retransmitted_bytes`; go-back-N rewind bytes are the rest).
    sr_retransmitted_bytes: u64,
    /// Recovery episodes triggered by an RTO expiry (either regime).
    recovery_timeouts: u64,
    /// Loss episodes triggered by a NACK (selective repeat only).
    recovery_nacks: u64,
    /// Flows whose recovery hit the retry cap and gave up.
    failed_flows: u64,
    /// Flight recorder (shared with every switch MMU); the disabled
    /// tracer when no trace configuration is active.
    tracer: Tracer,
    /// Pause-causality observatory; `Some` only when
    /// `NetParams::observe` is set. Boxed so the disabled case costs one
    /// pointer-sized `Option` and a single branch on the pause path.
    observe: Option<Box<ObserveState>>,
    /// Pending instant-closed sample label: the `Sample` tick at `t` arms this and
    /// the first event *strictly after* `t` captures the sample (see
    /// [`crate::observe::MetricsSampler`]). `Time::MAX` when no sample is
    /// pending, so the masked-off dispatch cost is one compare-branch.
    metrics_capture_at: Time,
}

impl Network {
    pub(crate) fn from_parts(params: NetParams, nodes: Vec<Node>, tracer: Tracer) -> Self {
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
        let ports = nodes.iter().map(|n| node_ports(n).len()).sum();
        Network {
            params,
            nodes,
            flows: Vec::new(),
            flow_rx: Vec::new(),
            rx_flows: Vec::new(),
            fct: Vec::new(),
            monitors: Vec::new(),
            pauses: PauseHistograms::new(ports),
            rng,
            frames: FrameArena::default(),
            drained: Vec::new(),
            released: Vec::new(),
            data_drops: 0,
            packets_delivered: 0,
            watchdog_drops: 0,
            retransmissions: 0,
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
    /// records into. Disabled unless a [`dsh_simcore::trace::capture`]
    /// session or `DSH_TRACE_MASK` enabled it at build time.
    #[must_use]
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Snapshot of the flight recorder, keyed for deterministic export
    /// (empty when tracing is off).
    #[must_use]
    pub fn trace_log(&self) -> TraceLog {
        self.tracer.log(self.params.trace_key())
    }

    /// Registers a flow; returns its id. All flows must be added before
    /// [`Network::into_sim`].
    ///
    /// # Panics
    ///
    /// Panics if the class is not a data class or the endpoints are not
    /// hosts.
    pub fn add_flow(&mut self, spec: FlowSpec) -> FlowId {
        assert!((spec.class as usize) < NUM_DATA_CLASSES, "class must be 0..7");
        assert!(matches!(self.nodes[spec.src.0], Node::Host(_)), "src must be a host");
        assert!(matches!(self.nodes[spec.dst.0], Node::Host(_)), "dst must be a host");
        assert!(spec.size > 0, "flow size must be positive");
        self.host_mut(spec.src).sourced += 1;
        let id = FlowId(self.flows.len());
        self.flows.push(FlowMeta { spec, sender: NO_SENDER, completed: false, failed: false });
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
    pub fn into_sim(mut self) -> Simulation<Network> {
        self.prepare();
        let starts: Vec<(Time, FlowId)> =
            self.flows.iter().enumerate().map(|(i, f)| (f.spec.start, FlowId(i))).collect();
        let tick = (!self.monitors.is_empty()
            || self.params.pfc_watchdog.is_some()
            || self.observe.is_some())
        .then_some(self.params.sample_interval);
        let mut sim = Simulation::new(self);
        for (t, flow) in starts {
            sim.schedule(t, NetEvent::FlowStart { flow: flow.0 as u32 });
        }
        if let Some(tick) = tick {
            sim.schedule(Time::ZERO + tick, NetEvent::Sample);
        }
        sim
    }

    /// Pre-run sizing: one FCT record per flow, reserved now so a
    /// completion mid-run never reallocates the log (the packet hot path
    /// stays allocation-free; see DESIGN.md §10).
    fn prepare(&mut self) {
        self.fct.reserve(self.flows.len());
    }

    // ---- measurement accessors -------------------------------------------

    /// Completed-flow records.
    #[must_use]
    pub fn fct_records(&self) -> &[FctRecord] {
        &self.fct
    }

    /// Data packets dropped by MMU admission (0 in a correct lossless
    /// configuration).
    #[must_use]
    pub fn data_drops(&self) -> u64 {
        self.data_drops
    }

    /// Data packets delivered to their destination hosts so far.
    #[must_use]
    pub fn packets_delivered(&self) -> u64 {
        self.packets_delivered
    }

    /// Frames currently held in the frame arena: queued at a port or in
    /// flight on a link. Every consumed, dropped or flushed frame is freed,
    /// so a network with no frame left to deliver holds none.
    #[must_use]
    pub fn live_frames(&self) -> usize {
        self.frames.live()
    }

    /// Frames dropped by the PFC watchdog (0 unless
    /// [`NetParams::pfc_watchdog`] is armed).
    #[must_use]
    pub fn watchdog_drops(&self) -> u64 {
        self.watchdog_drops
    }

    /// Go-back-N rewind episodes (RTO firings that retransmitted).
    #[must_use]
    pub fn retransmissions(&self) -> u64 {
        self.retransmissions
    }

    /// Bytes re-sent below a flow's high-water mark (retransmitted bytes
    /// count toward wire occupancy but never toward FCT completion, which
    /// ends at the last *new* in-order byte).
    #[must_use]
    pub fn retransmitted_bytes(&self) -> u64 {
        self.retransmitted_bytes
    }

    /// Selective-repeat NACK frames sent by receivers.
    #[must_use]
    pub fn nacks_sent(&self) -> u64 {
        self.nacks_sent
    }

    /// Bytes re-sent by selective-repeat gap repairs (a subset of
    /// [`Network::retransmitted_bytes`]).
    #[must_use]
    pub fn sr_retransmitted_bytes(&self) -> u64 {
        self.sr_retransmitted_bytes
    }

    /// Recovery episodes attributed to an RTO expiry.
    #[must_use]
    pub fn recovery_timeouts(&self) -> u64 {
        self.recovery_timeouts
    }

    /// Loss episodes attributed to a NACK (selective repeat only).
    #[must_use]
    pub fn recovery_nacks(&self) -> u64 {
        self.recovery_nacks
    }

    /// Flows whose loss recovery hit the retry cap and gave up.
    #[must_use]
    pub fn failed_flow_count(&self) -> u64 {
        self.failed_flows
    }

    /// Whether `flow` was explicitly marked failed by loss recovery.
    #[must_use]
    pub fn flow_failed(&self, flow: FlowId) -> bool {
        self.flows[flow.0].failed
    }

    /// Goodput time series recorded for `flow` (see
    /// [`Network::monitor_flow`]).
    #[must_use]
    pub fn flow_throughput(&self, flow: FlowId) -> &[ThroughputSample] {
        self.monitors.iter().find(|m| m.flow == flow).map(|m| m.samples.as_slice()).unwrap_or(&[])
    }

    /// Payload bytes received so far for `flow`.
    #[must_use]
    pub fn flow_rx_bytes(&self, flow: FlowId) -> u64 {
        self.flow_rx[flow.0]
    }

    /// Number of nodes; node ids run `0..node_count()`.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// A node's egress ports: a switch's in port order, a host's uplink.
    #[must_use]
    pub fn ports(&self, node: NodeId) -> &[EgressPort] {
        node_ports(&self.nodes[node.0])
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

    /// Every egress port in the network as `(node, port index, port)`, in
    /// node then port order.
    fn all_ports(&self) -> impl Iterator<Item = (NodeId, usize, &EgressPort)> {
        self.nodes.iter().enumerate().flat_map(|(i, n)| {
            node_ports(n).iter().enumerate().map(move |(p, port)| (NodeId(i), p, port))
        })
    }

    /// Pause ledgers for every egress port in the network at `now`,
    /// lazily (nothing is materialized; collect if you need a `Vec`).
    pub fn pause_ledgers(&self, now: Time) -> impl Iterator<Item = PauseLedger> + '_ {
        self.all_ports().map(move |(node, p, port)| PauseLedger {
            node,
            port: p,
            queue_level: (0..NUM_DATA_CLASSES).map(|c| port.class_pause_total(c as u8, now)).sum(),
            port_level: port.port_pause_total(now),
        })
    }

    /// Total buffer statically reserved as headroom across every switch
    /// (SIH: `Σ N_q·η`; DSH: insurance `Σ η`; Lossy: exactly 0 —
    /// fig17's "buffer held hostage" axis).
    #[must_use]
    pub fn reserved_headroom_bytes(&self) -> u64 {
        self.nodes
            .iter()
            .filter_map(|n| match n {
                Node::Switch(s) => Some(s.mmu.config().reserved_headroom().as_u64()),
                _ => None,
            })
            .sum()
    }

    /// Drains per-port headroom-occupancy local maxima from every switch
    /// MMU (Fig. 6's measurement): `(switch, per-port peak lists)`.
    pub fn take_headroom_peaks(&mut self) -> Vec<(NodeId, Vec<Vec<u64>>)> {
        let mut out = Vec::new();
        for (i, n) in self.nodes.iter_mut().enumerate() {
            if let Node::Switch(s) = n {
                out.push((NodeId(i), s.mmu.take_headroom_peaks()));
            }
        }
        out
    }

    /// Runs [`dsh_core::Mmu::audit`] on every switch; a non-clean report
    /// names the violated invariant and the port/queue it failed on.
    #[must_use]
    pub fn audit_all(&self) -> Vec<(NodeId, dsh_core::AuditReport)> {
        let mut out = Vec::new();
        for (i, n) in self.nodes.iter().enumerate() {
            if let Node::Switch(s) = n {
                out.push((NodeId(i), s.mmu.audit()));
            }
        }
        out
    }

    /// A structured telemetry snapshot at `now`: per-switch MMU audits
    /// and drop attribution, and per-port PFC pause durations with
    /// pause→resume latency histograms. Serialize with
    /// [`TelemetryReport::to_json`].
    #[must_use]
    pub fn telemetry_report(&self, now: Time) -> TelemetryReport {
        let mut switches = Vec::new();
        for (i, n) in self.nodes.iter().enumerate() {
            if let Node::Switch(s) = n {
                switches.push(SwitchTelemetry {
                    node: NodeId(i),
                    audit: s.mmu.audit(),
                    stats: s.mmu.stats(),
                    attribution: s.mmu.drop_attribution(),
                    port_drops: s.mmu.port_drops().to_vec(),
                });
            }
        }
        let closed = |port: &EgressPort, scope: usize| {
            self.pauses.get(port.index(), scope).cloned().unwrap_or_default()
        };
        let ports = self
            .all_ports()
            .map(|(node, p, port)| PortPauseTelemetry {
                node,
                port: p,
                queue_level: (0..NUM_DATA_CLASSES)
                    .map(|c| port.class_pause_total(c as u8, now))
                    .sum(),
                port_level: port.port_pause_total(now),
                pause_latency: self.pauses.merged(port.index()),
                classes: (0..crate::ids::NUM_CLASSES as u8)
                    .filter_map(|c| {
                        let pause = port.class_pause_total(c, now);
                        let latency = closed(port, c as usize);
                        (pause > Delta::ZERO || latency.count() > 0)
                            .then_some(ClassPauseTelemetry { class: c, pause, latency })
                    })
                    .collect(),
                port_latency: closed(port, PORT_SCOPE),
            })
            .collect();
        TelemetryReport {
            generated_at: now,
            data_drops: self.data_drops,
            watchdog_drops: self.watchdog_drops,
            retransmissions: self.retransmissions,
            nacks_sent: self.nacks_sent,
            sr_retransmitted_bytes: self.sr_retransmitted_bytes,
            recovery_timeouts: self.recovery_timeouts,
            recovery_nacks: self.recovery_nacks,
            switches,
            ports,
            provenance: self.provenance(),
            engine_profile: None,
            pause_cascades: self.cascade_report(now),
        }
    }

    /// The analysed pause-cascade forest (summary statistics plus
    /// victim-flow attribution) at `now`; `None` unless the
    /// pause-causality observatory is enabled via `NetParams::observe`.
    /// Open pause edges are treated as ending at `now`.
    #[must_use]
    pub fn cascade_report(&self, now: Time) -> Option<crate::observe::CascadeReport> {
        self.observe.as_deref().map(|obs| {
            // Flow lifetimes for the victim join: completed flows end at
            // their recorded finish, in-flight flows run to `now`.
            let mut finish = vec![now; self.flows.len()];
            for r in &self.fct {
                finish[r.flow.0] = r.finish;
            }
            let flows = self
                .flows
                .iter()
                .enumerate()
                .map(|(i, f)| (FlowId(i), f.spec.src, f.spec.start, finish[i]));
            crate::observe::analyze(obs.cascade.edges(), now, flows)
        })
    }

    /// The pause cycles still open — the cyclic buffer dependencies that
    /// wedge the fabric, each with the instant it closed (see
    /// [`crate::observe::find_cycles`]); `None` unless the observatory is
    /// enabled via `NetParams::observe`.
    #[must_use]
    pub fn open_pause_cycles(&self) -> Option<Vec<PauseCycle>> {
        self.observe.as_deref().map(|obs| crate::observe::find_cycles(obs.cascade.edges()))
    }

    /// The observatory's versioned metrics export (`metrics.json`);
    /// `None` unless `NetParams::observe` is set.
    #[must_use]
    pub fn metrics_json(&self) -> Option<dsh_simcore::Json> {
        self.observe.as_deref().map(|obs| {
            let doc = obs.metrics.to_json().with("provenance", self.provenance());
            match &self.params.recovery {
                Some(rc) => doc.with("recovery_regime", rc.regime.as_str()),
                None => doc,
            }
        })
    }

    /// Run-intrinsic provenance: the inputs that determine this run
    /// (seed, scheme, package version). Machine facts — thread count in
    /// particular — are deliberately excluded so reports stay
    /// byte-identical at any executor width.
    #[must_use]
    pub fn provenance(&self) -> dsh_simcore::Json {
        dsh_simcore::Json::object()
            .with("seed", self.params.seed)
            .with("scheme", self.params.scheme.to_string())
            .with("version", env!("CARGO_PKG_VERSION"))
    }

    /// Diagnostic: a sender flow's current congestion window and pacing
    /// rate, if the flow is active.
    #[must_use]
    pub fn flow_cc_state(&self, flow: FlowId) -> Option<(u64, u64)> {
        let spec = self.flows.get(flow.0)?.spec;
        match &self.nodes[spec.src.0] {
            Node::Host(h) => {
                let f = &h.tx_flows[self.sender_slot(flow)?];
                Some((f.cc.cwnd_bytes(), f.in_flight()))
            }
            Node::Switch(_) => None,
        }
    }

    /// Sum of MMU pause/drop counters over all switches.
    #[must_use]
    pub fn mmu_stats(&self) -> dsh_core::MmuStats {
        let mut agg = dsh_core::MmuStats::default();
        for n in &self.nodes {
            if let Node::Switch(s) = n {
                let st = s.mmu.stats();
                agg.admitted_packets += st.admitted_packets;
                agg.dropped_packets += st.dropped_packets;
                agg.dropped_bytes += st.dropped_bytes;
                agg.queue_pauses += st.queue_pauses;
                agg.queue_resumes += st.queue_resumes;
                agg.port_pauses += st.port_pauses;
                agg.port_resumes += st.port_resumes;
            }
        }
        agg
    }

    /// The flow's specification.
    #[must_use]
    pub fn flow_spec(&self, flow: FlowId) -> FlowSpec {
        self.flows[flow.0].spec
    }

    /// Number of flows registered.
    #[must_use]
    pub fn flow_count(&self) -> usize {
        self.flows.len()
    }

    // ---- node plumbing ----------------------------------------------------

    fn host_mut(&mut self, id: NodeId) -> &mut HostNode {
        match &mut self.nodes[id.0] {
            Node::Host(h) => h,
            Node::Switch(_) => panic!("{id} is not a host"),
        }
    }

    /// Position of `flow`'s sender state in its source host's
    /// `tx_flows`, once the flow has started.
    fn sender_slot(&self, flow: FlowId) -> Option<usize> {
        match self.flows[flow.0].sender {
            NO_SENDER => None,
            slot => Some(slot as usize),
        }
    }

    /// The sender state of `flow` at its source host `node`, once the
    /// flow has started.
    fn sender_mut(&mut self, node: NodeId, flow: FlowId) -> Option<&mut SenderFlow> {
        debug_assert_eq!(node, self.flows[flow.0].spec.src, "{flow:?} is not sourced at {node}");
        let slot = self.sender_slot(flow)?;
        Some(&mut self.host_mut(node).tx_flows[slot])
    }

    fn switch_mut(&mut self, id: NodeId) -> &mut SwitchNode {
        match &mut self.nodes[id.0] {
            Node::Switch(s) => s,
            Node::Host(_) => panic!("{id} is not a switch"),
        }
    }

    fn port_mut(&mut self, id: NodeId, port: usize) -> &mut EgressPort {
        port_of(&mut self.nodes, id, port)
    }

    // ---- transmission ------------------------------------------------------

    /// Starts a transmission on `(node, port)` if the serializer is idle
    /// and a frame is eligible. On a busy serializer, books the wake-up at
    /// the end of the frame on the wire if one is now owed.
    fn try_transmit(&mut self, node: NodeId, port: usize, sched: &mut Scheduler<'_, NetEvent>) {
        let now = sched.now();
        let p = self.port_mut(node, port);
        if p.is_busy(now, sched.current_seq()) {
            self.book_wake(node, port, sched);
            return;
        }
        if let Some(qf) = p.pick() {
            self.transmit(node, port, qf, sched);
        }
    }

    /// Offers `qf` to `(node, port)`: straight onto the wire when the port
    /// is [idle for it](EgressPort::idle_for), where queueing it and
    /// picking again would hand back the same frame and leave the
    /// scheduler as it was; through the queue otherwise.
    fn send_or_enqueue(
        &mut self,
        node: NodeId,
        port: usize,
        qf: QueuedFrame,
        sched: &mut Scheduler<'_, NetEvent>,
    ) {
        let p = self.port_mut(node, port);
        if p.idle_for(qf.class, sched.now(), sched.current_seq()) {
            self.transmit(node, port, qf, sched);
        } else {
            p.enqueue(qf);
            self.try_transmit(node, port, sched);
        }
    }

    /// Puts `qf`, the frame the idle serializer of `(node, port)` serves
    /// next, on the wire: releases its MMU accounting, stamps INT if it
    /// asked for it, schedules its arrival at the peer and books the
    /// wake-up its end owes.
    fn transmit(
        &mut self,
        node: NodeId,
        port: usize,
        qf: QueuedFrame,
        sched: &mut Scheduler<'_, NetEvent>,
    ) {
        let now = sched.now();
        // One departure yields at most two flow-control actions, so they
        // ride inline in an `FcActions` — no scratch buffer needed.
        let mut fc = FcActions::none();
        let is_switch = match &mut self.nodes[node.0] {
            Node::Switch(sw) => {
                // Release MMU accounting (into the segment the packet was
                // admitted to) and collect PFC actions.
                if let Some(IngressTag { in_port, in_queue, region }) = qf.ingress {
                    let (port, queue) = (usize::from(in_port), usize::from(in_queue));
                    fc = sw.mmu.on_departure(port, queue, qf.bytes(), region);
                }
                true
            }
            Node::Host(_) => false,
        };
        let p = port_of(&mut self.nodes, node, port);
        // Stamp INT telemetry at switch egress, into data frames whose
        // sender asked for it.
        if is_switch && qf.int {
            self.frames.push_hop(
                qf.frame,
                TelemetryHop {
                    qlen_bytes: p.queue_bytes(qf.class),
                    tx_bytes: p.tx_bytes(),
                    timestamp: now,
                    bandwidth: p.bandwidth(),
                },
            );
        }
        let bytes = qf.bytes();
        let txd = p.tx_delay(bytes);
        // The frame's end takes the calendar place a `TxDone` pushed now
        // would take, ahead of the arrival it precedes.
        p.start_tx(now + txd, sched.reserve_seq());
        p.note_tx(bytes);
        let (peer, peer_port) = (p.peer.0 as u32, p.peer_port as u32);
        sched.at(
            now + txd + p.prop_delay,
            NetEvent::Arrive { node: peer, in_port: peer_port, frame: qf.frame },
        );
        self.book_wake(node, port, sched);
        if !fc.is_empty() {
            self.drain_fc(node, fc, sched);
        }
    }

    /// Pushes the `TxDone` that ends the frame on `(node, port)`'s wire
    /// into its reserved calendar place, once a wake-up is owed and not yet
    /// booked. A wake-up is owed while a frame waits in any lane of the
    /// port or, on a host, while a flow is active: the host's `TxDone`
    /// refills the NIC queue and books the pacing wake-ups. Without one the
    /// `TxDone` would find nothing to do, so it never reaches the calendar.
    fn book_wake(&mut self, node: NodeId, port: usize, sched: &mut Scheduler<'_, NetEvent>) {
        let (p, owed) = match &mut self.nodes[node.0] {
            Node::Switch(s) => (&mut s.ports[port], false),
            Node::Host(h) => {
                let flows_active = !h.active.is_empty();
                (h.uplink_mut(), flows_active)
            }
        };
        if !(owed || p.has_waiting()) {
            return;
        }
        if let Some((at, seq)) = p.book_wake() {
            sched.push_reserved(
                at,
                seq,
                NetEvent::TxDone { node: node.0 as u32, port: port as u32 },
            );
        }
    }

    /// Materializes PFC frames for `actions`, enqueues them toward the
    /// offending upstreams, and kicks each port's serializer (a busy one
    /// books its wake-up instead).
    fn drain_fc(
        &mut self,
        node: NodeId,
        actions: impl IntoIterator<Item = FcAction>,
        sched: &mut Scheduler<'_, NetEvent>,
    ) {
        for a in actions {
            let (p, f) = SwitchNode::fc_frame(a);
            let qf = self.alloc_queued(f);
            self.port_mut(node, p).enqueue(qf);
            self.try_transmit(node, p, sched);
        }
    }

    /// Stores a frame a node originates in the arena and returns its queue
    /// entry.
    fn alloc_queued(&mut self, frame: Frame) -> QueuedFrame {
        QueuedFrame::new(self.frames.alloc(frame), &frame, None)
    }

    fn handle_tx_done(&mut self, node: NodeId, port: usize, sched: &mut Scheduler<'_, NetEvent>) {
        self.port_mut(node, port).on_wake();
        if matches!(self.nodes[node.0], Node::Host(_)) {
            // Refill the NIC queue from flow state, then transmit.
            self.host_try_send(node, sched);
        } else {
            self.try_transmit(node, port, sched);
        }
    }

    // ---- switch dataplane ---------------------------------------------------

    fn switch_arrive(
        &mut self,
        node: NodeId,
        in_port: usize,
        id: FrameId,
        sched: &mut Scheduler<'_, NetEvent>,
    ) {
        let now = sched.now();
        let frame = *self.frames.get(id);
        // PFC frames are link-local: they pause this node's egress side of
        // `in_port` after the standard processing delay.
        if let FrameKind::Pfc(p) = frame.kind {
            let delay = self.port_mut(node, in_port).bandwidth().tx_delay(PFC_PROCESSING_BYTES);
            sched.at(
                now + delay,
                NetEvent::ApplyPause {
                    node: node.0 as u32,
                    port: in_port as u32,
                    scope: p.scope,
                    pause: p.pause,
                },
            );
            self.frames.free(id);
            return;
        }

        let dst = frame.dst().expect("forwardable frame");
        let flow = match &frame.kind {
            FrameKind::Data(d) => d.flow,
            FrameKind::Ack(a) => a.flow,
            FrameKind::Nack(n) => n.flow,
            FrameKind::Cnp { flow, .. } => *flow,
            FrameKind::Pfc(_) => unreachable!(),
        };

        let out_port = {
            let sw = self.switch_mut(node);
            sw.routes.pick(dst.0, flow, sw.id)
        };

        let mut fc = FcActions::none();
        let admitted = {
            let sw = self.switch_mut(node);
            if frame.is_data() {
                let q = frame.class as usize;
                let outcome = sw.mmu.on_arrival(in_port, q, frame.bytes);
                fc = outcome.actions;
                outcome.region.map(|region| {
                    // The builder keeps switch ports within `u16`, and
                    // classes are below 8.
                    Some(IngressTag { in_port: in_port as u16, in_queue: q as u8, region })
                })
            } else {
                Some(None)
            }
        };
        let Some(tag) = admitted else {
            // Congestion loss. Lossless configurations must never reach
            // this (tests assert on the counter); the lossy scheme reaches
            // it by design once the shared pool rejects (drop-tail), and
            // loss recovery repairs the gap end to end.
            self.data_drops += 1;
            self.frames.free(id);
            self.drain_fc(node, fc, sched);
            return;
        };

        // ECN marking against the egress queue length (congestion point).
        if frame.is_data() && self.params.ecn.enabled {
            let qlen = self.port_mut(node, out_port).queue_bytes(frame.class);
            let mark = self.params.ecn.mark(qlen, &mut self.rng);
            if mark {
                if let FrameKind::Data(d) = &mut self.frames.get_mut(id).kind {
                    d.ecn = true;
                }
            }
        }

        // This arrival's own flow-control frames go first. Drained before
        // the data is offered, they find its egress as they would with the
        // data queued behind them: the PFC lane is served ahead of it.
        if !fc.is_empty() {
            self.drain_fc(node, fc, sched);
        }
        self.send_or_enqueue(node, out_port, QueuedFrame::new(id, &frame, tag), sched);
    }

    // ---- host dataplane -------------------------------------------------------

    fn host_arrive(
        &mut self,
        node: NodeId,
        in_port: usize,
        id: FrameId,
        sched: &mut Scheduler<'_, NetEvent>,
    ) {
        let now = sched.now();
        match &self.frames.get(id).kind {
            FrameKind::Pfc(p) => {
                let (scope, pause) = (p.scope, p.pause);
                let delay = self.port_mut(node, in_port).bandwidth().tx_delay(PFC_PROCESSING_BYTES);
                sched.at(
                    now + delay,
                    NetEvent::ApplyPause {
                        node: node.0 as u32,
                        port: in_port as u32,
                        scope,
                        pause,
                    },
                );
                self.frames.free(id);
            }
            FrameKind::Data(_) => self.host_receive_data(node, id, sched),
            &FrameKind::Ack(a) => {
                let flow = a.flow;
                let recovery_on = self.params.recovery.is_some();
                let mtu = self.params.mtu;
                {
                    debug_assert_eq!(node, self.flows[flow.0].spec.src, "{flow:?} ACK at {node}");
                    let slot = self.sender_slot(flow);
                    // The sender's state and the ACK's echoed hops, borrowed
                    // side by side.
                    let Node::Host(host) = &mut self.nodes[node.0] else {
                        unreachable!("{node} is not a host")
                    };
                    if let Some(f) = slot.map(|i| &mut host.tx_flows[i]) {
                        // ACKs are cumulative: the receiver echoes its
                        // in-order high-water mark, so duplicates and
                        // reordering collapse to `delta == 0`.
                        let new_acked = a.acked.min(f.size).max(f.acked);
                        let delta = new_acked - f.acked;
                        if delta > 0 {
                            f.acked = new_acked;
                            // A stale ACK can land after a timeout rewound
                            // the cursor; the receiver holding these bytes
                            // proves they were sent, so pull the cursor
                            // back up rather than leave `sent < acked`.
                            f.sent = f.sent.max(f.acked);
                            let info = AckInfo {
                                acked_bytes: delta,
                                ecn_echo: a.ecn_echo,
                                hops: self.frames.hops(id),
                            };
                            f.cc.on_ack(now, &info);
                            if recovery_on {
                                // RTT probe: only fresh, never-retransmitted
                                // segments are timed (Karn's rule), and the
                                // sample feeds the adaptive RTO estimator.
                                if let Some((target, at)) = f.rtt_probe {
                                    if f.acked >= target {
                                        f.recovery.on_rtt_sample(now.saturating_since(at));
                                        f.rtt_probe = None;
                                    }
                                }
                                f.sack.on_cum_advance(delta, new_acked, mtu);
                                f.recovery.on_progress();
                                if f.acked >= f.size || f.in_flight() == 0 {
                                    // Nothing outstanding: invalidate any
                                    // armed timer.
                                    f.rto_gen = f.rto_gen.wrapping_add(1);
                                    f.rto_armed = false;
                                    f.rto_deadline = Time::MAX;
                                } else {
                                    // Push the lazy deadline forward; the
                                    // armed event re-schedules itself.
                                    f.rto_deadline = f.recovery.deadline(now);
                                }
                            }
                        }
                    }
                }
                self.frames.free(id);
                self.arm_cc_timer(node, flow, sched);
                // Window space may have opened.
                self.host_try_send(node, sched);
            }
            &FrameKind::Nack(n) => {
                let (flow, expected, bitmap, ecn_echo) = (n.flow, n.expected, n.bitmap, n.ecn_echo);
                let mtu = self.params.mtu;
                let mut episode = false;
                {
                    let slot = self.sender_slot(flow);
                    let host = self.host_mut(node);
                    let mut reactivate = false;
                    if let Some(f) = slot.map(|i| &mut host.tx_flows[i]) {
                        // The NACK's cumulative mark doubles as an ACK:
                        // count any progress first. NACKs carry no INT
                        // telemetry, so the echo is an empty hop list —
                        // INT-driven CCs treat that as "no information"
                        // (PowerTcp::on_ack returns early), not as an
                        // uncongested path.
                        let new_acked = expected.min(f.size).max(f.acked);
                        let delta = new_acked - f.acked;
                        if delta > 0 {
                            f.acked = new_acked;
                            // Same stale-ACK rewind guard as the ACK arm.
                            f.sent = f.sent.max(f.acked);
                            let info = AckInfo { acked_bytes: delta, ecn_echo, hops: &[] };
                            f.cc.on_ack(now, &info);
                            f.sack.on_cum_advance(delta, new_acked, mtu);
                        }
                        episode = f.sack.on_nack(f.acked, bitmap, mtu, f.max_sent);
                        if episode {
                            // One window cut per loss episode
                            // (NewReno-style), not per NACK.
                            f.cc.on_loss(now);
                        }
                        // A NACK proves the path is alive: reset the
                        // timeout ladder and push the lazy deadline out
                        // past the repair round-trip.
                        f.recovery.on_progress();
                        f.rto_deadline = f.recovery.deadline(now);
                        // The repair retransmits, so the in-flight probe
                        // segment turns ambiguous (Karn's rule).
                        f.rtt_probe = None;
                        reactivate = f.sack.repair_pending() || !f.fully_sent();
                    }
                    // A fully-sent flow left the active list; pending gap
                    // repairs put it back so the NIC scan finds it.
                    if let Some(slot) = slot.filter(|_| reactivate) {
                        if !host.active.contains(&slot) {
                            host.active.push(slot);
                        }
                    }
                }
                if episode {
                    self.recovery_nacks += 1;
                }
                self.frames.free(id);
                self.arm_cc_timer(node, flow, sched);
                self.host_try_send(node, sched);
            }
            &FrameKind::Cnp { flow, .. } => {
                if let Some(f) = self.sender_mut(node, flow) {
                    f.cc.on_cnp(now);
                }
                self.frames.free(id);
                self.arm_cc_timer(node, flow, sched);
            }
        }
    }

    fn host_receive_data(
        &mut self,
        node: NodeId,
        id: FrameId,
        sched: &mut Scheduler<'_, NetEvent>,
    ) {
        let FrameKind::Data(d) = &self.frames.get(id).kind else {
            unreachable!("host_receive_data requires a data frame")
        };
        let (flow, src, seq, payload, ecn) = (d.flow, d.src, d.seq, d.payload, d.ecn);
        self.packets_delivered += 1;
        let now = sched.now();
        let meta_size = self.flows[flow.0].spec.size;
        let meta_start = self.flows[flow.0].spec.start;
        let sr = self.params.recovery.is_some_and(|r| r.regime == Regime::SelectiveRepeat);
        let mtu = self.params.mtu;

        let (send_cnp, completed, cum_acked, nack, bitmap) = {
            let rx = &mut self.rx_flows[flow.0];
            // Go-back-N receiver: only the next in-order segment advances
            // the stream; duplicates (replays below the mark) and gaps
            // (segments past a loss) are discarded, and the cumulative
            // ACK below tells the sender where to resume. Segment
            // boundaries re-derive identically after a rewind, so a
            // partial overlap cannot occur.
            //
            // Selective-repeat receiver: an out-of-order segment is kept
            // in the MTU-strided SACK window instead of discarded, and
            // each such arrival triggers a NACK carrying the cumulative
            // mark plus the window bitmap.
            let mut nack = false;
            if seq == rx.received {
                rx.received += payload;
                if sr {
                    // The in-order arrival may bridge to buffered
                    // segments: slide the window (once per segment the
                    // mark advances, holes or not — the bitmap must stay
                    // aligned for the next NACK) and drain everything
                    // now contiguous. All segments except a flow's last
                    // are exactly one MTU.
                    for _ in 0..rx.sack.on_in_order_arrival() {
                        rx.received += mtu.min(meta_size - rx.received);
                    }
                }
            } else if sr && seq > rx.received {
                let gap = (seq - rx.received) / mtu;
                let _ = rx.sack.offer(gap);
                nack = true;
            }
            let send_cnp = rx.cnp.on_data(now, ecn);
            let completed = !rx.completed && rx.received >= meta_size;
            if completed {
                rx.completed = true;
            }
            (send_cnp, completed, rx.received, nack, rx.sack.bitmap())
        };

        // Goodput counts new in-order bytes only; FCT ends at the last
        // *new* byte delivered (retransmissions never extend a flow).
        self.flow_rx[flow.0] = cum_acked;
        if completed {
            self.flows[flow.0].completed = true;
            self.fct.push(FctRecord { flow, size: meta_size, start: meta_start, finish: now });
            trace_event!(self.tracer, TraceEvent::FlowComplete, {
                flow: flow.0 as u32,
                node: node.0 as u32,
                payload: now.saturating_since(meta_start).as_ps(),
            });
        }

        // Reply path: ACK (or NACK on an out-of-order arrival under
        // selective repeat) + CNP (DCQCN NP policy). The data frame is
        // rewritten in place; an ACK keeps the hop slot the data filled, so
        // the telemetry echoes without a copy, and a NACK releases it.
        if nack {
            self.frames.refill(
                id,
                Frame::nack(NackFrame {
                    flow,
                    dst: src,
                    expected: cum_acked,
                    bitmap,
                    ecn_echo: ecn,
                }),
            );
            self.nacks_sent += 1;
            trace_event!(self.tracer, TraceEvent::RecoveryNack, {
                flow: flow.0 as u32,
                node: node.0 as u32,
                payload: cum_acked,
            });
        } else {
            let ack = AckFrame { flow, dst: src, acked: cum_acked, ecn_echo: ecn };
            self.frames.get_mut(id).echo_as_ack(ack);
        }
        let reply = QueuedFrame::new(id, self.frames.get(id), None);
        if send_cnp {
            let cnp = self.alloc_queued(Frame::cnp(flow, src));
            let uplink = self.host_mut(node).uplink_mut();
            uplink.enqueue(reply);
            uplink.enqueue(cnp);
            self.try_transmit(node, 0, sched);
        } else {
            self.send_or_enqueue(node, 0, reply, sched);
        }
    }

    fn handle_flow_start(&mut self, flow: FlowId, sched: &mut Scheduler<'_, NetEvent>) {
        let spec = self.flows[flow.0].spec;
        trace_event!(self.tracer, TraceEvent::FlowStart, {
            flow: flow.0 as u32,
            node: spec.src.0 as u32,
            class: spec.class,
            payload: spec.size,
        });
        let (bw, base_rtt) = {
            let host = self.host_mut(spec.src);
            (host.uplink().bandwidth(), self.params.base_rtt)
        };
        let cc = new_cc(spec.cc, bw, base_rtt);
        let rcfg = self.params.recovery.unwrap_or_else(|| RecoveryConfig::for_rtt(base_rtt));
        let host = self.host_mut(spec.src);
        self.flows[flow.0].sender = host.add_sender(SenderFlow {
            id: flow,
            dst: spec.dst,
            class: spec.class,
            size: spec.size,
            sent: 0,
            acked: 0,
            next_send: spec.start,
            cc,
            timer_gen: 0,
            timer_at: Time::MAX,
            timer_due: (Time::MAX, 0),
            recovery: GoBackN::new(rcfg),
            rto_gen: 0,
            rto_deadline: Time::MAX,
            rto_armed: false,
            max_sent: 0,
            sack: SackState::new(),
            rtt_probe: None,
        });
        self.host_try_send(spec.src, sched);
    }

    /// Generates data frames from eligible flows into the NIC queue and
    /// kicks the serializer; schedules a pacing wake-up if needed.
    fn host_try_send(&mut self, node: NodeId, sched: &mut Scheduler<'_, NetEvent>) {
        let now = sched.now();
        let mtu = self.params.mtu;
        let recovery_on = self.params.recovery.is_some();
        let sr = self.params.recovery.is_some_and(|r| r.regime == Regime::SelectiveRepeat);
        loop {
            let host = self.host_mut(node);
            let n = host.active.len();
            if n == 0 || host.port.is_none() {
                break;
            }
            let mut chosen = None;
            let mut stale = None;
            for k in 0..n {
                let slot = (host.rr_cursor + k) % n;
                let i = host.active[slot];
                let f = &host.tx_flows[i];
                let repair = sr && f.sack.repair_pending();
                if !repair && f.fully_sent() {
                    // Fully sent with no repairs pending: a cumulative ACK
                    // can clear the repair window after a NACK reactivated
                    // the flow (selective repeat), or a stale ACK can pull
                    // a timeout-rewound cursor back past the end (either
                    // regime). Retire the stale entry and rescan.
                    stale = Some(slot);
                    break;
                }
                if f.next_send > now {
                    continue;
                }
                // IRN-style BDP flow control: fresh data may run at most
                // the receiver's out-of-order window ahead of the
                // cumulative ACK. Past it, arrivals behind a hole cannot
                // be buffered and the discarded tail would come back one
                // RTO at a time. Repairs land inside the window and pass.
                if sr
                    && !repair
                    && f.sent.saturating_sub(f.acked) >= SackBuffer::WINDOW_SEGMENTS * mtu
                {
                    continue;
                }
                let seg = if repair { mtu } else { mtu.min(f.size - f.sent) };
                let port = host.uplink();
                if !port.class_sendable(f.class) {
                    continue;
                }
                // Keep at most ~2 MTU queued per class: the NIC pulls from
                // queue pairs on demand rather than dumping the whole flow.
                if port.queue_bytes(f.class) >= 2 * mtu {
                    continue;
                }
                // Repairs fill holes the window already covered once, so
                // they bypass the cwnd gate (the post-loss window cut
                // would otherwise deadlock a fully-sent flow).
                let cwnd = f.cc.cwnd_bytes();
                if !repair && f.in_flight() + seg > cwnd.max(seg) {
                    continue;
                }
                chosen = Some(slot);
                break;
            }
            if let Some(slot) = stale {
                host.active.swap_remove(slot);
                if host.rr_cursor >= host.active.len() {
                    host.rr_cursor = 0;
                }
                continue;
            }
            let Some(slot) = chosen else { break };
            let i = host.active[slot];
            let f = &mut host.tx_flows[i];
            // Gap repairs take priority over fresh data: a hole at the
            // receiver stalls the cumulative mark, while fresh data only
            // extends the out-of-order tail.
            let repair_off =
                if sr && f.sack.repair_pending() { f.sack.next_repair(f.acked, mtu) } else { None };
            let (seq, seg, is_retx, is_repair) = match repair_off {
                Some(off) => (off, mtu.min(f.size - off), true, true),
                None => {
                    if f.fully_sent() {
                        // Every outstanding gap turned out to be SACKed:
                        // nothing to repair, nothing fresh — retire from
                        // the scan and let ACKs finish the flow.
                        host.active.swap_remove(slot);
                        if host.rr_cursor >= host.active.len() {
                            host.rr_cursor = 0;
                        }
                        continue;
                    }
                    if sr && f.sent.saturating_sub(f.acked) >= SackBuffer::WINDOW_SEGMENTS * mtu {
                        // Selected for a repair that the scan then found
                        // fully SACKed; fresh data is still window-blocked
                        // (the scan consumed `repair_pending`, so the
                        // rescan below cannot pick this flow again).
                        continue;
                    }
                    // Anything re-sent below the high-water mark is a
                    // retransmission (a go-back-N rewind replays from
                    // `acked`).
                    (f.sent, mtu.min(f.size - f.sent), f.sent < f.max_sent, false)
                }
            };
            let df = DataFrame {
                flow: f.id,
                src: node,
                dst: f.dst,
                seq,
                payload: seg,
                ecn: false,
                int: f.cc.kind().reads_int(),
            };
            let class = f.class;
            if !is_repair {
                // Repairs re-cover old offsets; only fresh data (or a
                // GBN replay) moves the stream cursor.
                f.sent += seg;
                f.max_sent = f.max_sent.max(f.sent);
            }
            f.cc.on_sent(now, seg);
            let rate = f.cc.rate();
            f.next_send = now + rate.tx_delay(seg);
            // RTT probe for the adaptive RTO: time one fresh segment at a
            // time; any retransmission poisons an outstanding probe
            // (Karn's rule).
            if recovery_on {
                if is_retx {
                    f.rtt_probe = None;
                } else if f.rtt_probe.is_none() {
                    f.rtt_probe = Some((f.sent, now));
                }
            }
            let flow_id = f.id;
            // Every send pushes the lazy RTO deadline; only the
            // unarmed→armed transition touches the calendar.
            let mut arm = None;
            if recovery_on {
                f.rto_deadline = f.recovery.deadline(now);
                if !f.rto_armed {
                    f.rto_armed = true;
                    f.rto_gen = f.rto_gen.wrapping_add(1);
                    arm = Some((f.rto_deadline, f.rto_gen));
                }
            }
            let done_sending = f.fully_sent() && !(sr && f.sack.repair_pending());
            if done_sending {
                host.active.swap_remove(slot);
                if host.rr_cursor >= host.active.len() {
                    host.rr_cursor = 0;
                }
            } else {
                host.rr_cursor = (slot + 1) % n;
            }
            if is_retx {
                self.retransmitted_bytes += seg;
                if is_repair {
                    self.sr_retransmitted_bytes += seg;
                    trace_event!(self.tracer, TraceEvent::RecoveryRepair, {
                        flow: flow_id.0 as u32,
                        node: node.0 as u32,
                        payload: seg,
                    });
                }
            }
            if let Some((deadline, gen)) = arm {
                sched.at(
                    deadline,
                    NetEvent::RtoTimer { host: node.0 as u32, flow: flow_id.0 as u32, gen },
                );
            }
            let qf = self.alloc_queued(Frame::data(df, class));
            self.host_mut(node).uplink_mut().enqueue(qf);
            self.arm_cc_timer(node, flow_id, sched);
        }
        self.try_transmit(node, 0, sched);

        // Pacing wake-up for flows waiting only on their send clock — but
        // only from an idle serializer: while the uplink is busy, the
        // active flows have booked its TxDone, which re-enters this
        // function and re-evaluates the clock, so a wake-up event here
        // would just be calendar churn.
        let seq = sched.current_seq();
        let host = self.host_mut(node);
        if host.port.as_ref().is_some_and(|p| p.is_busy(now, seq)) {
            return;
        }
        let next =
            host.active.iter().map(|&i| host.tx_flows[i].next_send).filter(|&t| t > now).min();
        if let Some(t) = next {
            if t < host.wake_at {
                host.wake_at = t;
                sched.at(t, NetEvent::HostWake { host: node.0 as u32 });
            }
        }
    }

    /// Arms the flow's CC timer at the CC's next deadline, in the calendar
    /// place a fresh push would take now, while keeping one live timer
    /// event per flow. A new event is pushed only when the deadline is
    /// earlier than the live one, or when none is live. Otherwise the live
    /// event fires early and moves itself to the due place (the lazy
    /// pattern of the RTO timer), so the timer's work runs in exactly that
    /// place.
    fn arm_cc_timer(&mut self, node: NodeId, flow: FlowId, sched: &mut Scheduler<'_, NetEvent>) {
        let now = sched.now();
        let Some(f) = self.sender_mut(node, flow) else { return };
        if f.acked >= f.size {
            // Completed flows need no more transport timers.
            f.park_cc_timer();
            return;
        }
        let Some(t) = f.cc.next_timer().map(|t| t.max(now)) else { return };
        let seq = sched.reserve_seq();
        f.timer_due = (t, seq);
        if t < f.timer_at {
            f.timer_gen += 1;
            f.timer_at = t;
            let gen = f.timer_gen;
            sched.push_reserved(
                t,
                seq,
                NetEvent::CcTimer { host: node.0 as u32, flow: flow.0 as u32, gen },
            );
        }
    }

    fn handle_cc_timer(
        &mut self,
        node: NodeId,
        flow: FlowId,
        gen: u32,
        sched: &mut Scheduler<'_, NetEvent>,
    ) {
        let now = sched.now();
        let place = (now, sched.current_seq());
        {
            let Some(f) = self.sender_mut(node, flow) else { return };
            if f.timer_gen != gen {
                return; // stale
            }
            if place < f.timer_due {
                // Arms since this event was pushed moved the due place
                // later: follow it.
                let (t, seq) = f.timer_due;
                f.timer_at = t;
                sched.push_reserved(
                    t,
                    seq,
                    NetEvent::CcTimer { host: node.0 as u32, flow: flow.0 as u32, gen },
                );
                return;
            }
            debug_assert_eq!(place, f.timer_due, "CC timer fired past its due place");
            f.timer_at = Time::MAX;
            f.cc.on_timer(now);
        }
        self.arm_cc_timer(node, flow, sched);
        // Rate may have increased: the pacing clock stands, but window
        // growth can unblock sending.
        self.host_try_send(node, sched);
    }

    // ---- loss recovery ----------------------------------------------------

    /// Handles a go-back-N RTO event. The timer is lazy: sends and ACK
    /// progress only push `rto_deadline` forward in flow state, and the
    /// one armed calendar event re-schedules itself here when it fires
    /// before the deadline — so the steady-state packet path costs no
    /// calendar traffic for the timer at all.
    fn handle_rto_timer(
        &mut self,
        node: NodeId,
        flow: FlowId,
        gen: u32,
        sched: &mut Scheduler<'_, NetEvent>,
    ) {
        enum Outcome {
            Done,
            Reschedule(Time),
            Failed,
            Retransmit,
            SrRepair,
        }
        let now = sched.now();
        let outcome = {
            let Some(f) = self.sender_mut(node, flow) else { return };
            if f.rto_gen != gen || !f.rto_armed {
                Outcome::Done // stale generation
            } else if f.acked >= f.size || f.recovery.failed() {
                f.rto_armed = false;
                Outcome::Done
            } else if f.in_flight() == 0 {
                // Nothing outstanding: disarm; the next send re-arms.
                f.rto_armed = false;
                Outcome::Done
            } else if now < f.rto_deadline {
                Outcome::Reschedule(f.rto_deadline)
            } else {
                match f.recovery.on_timeout() {
                    RtoOutcome::Failed => {
                        f.rto_armed = false;
                        f.park_cc_timer();
                        Outcome::Failed
                    }
                    RtoOutcome::Retransmit => {
                        if f.recovery.regime() == Regime::SelectiveRepeat {
                            Outcome::SrRepair
                        } else {
                            Outcome::Retransmit
                        }
                    }
                }
            }
        };
        match outcome {
            Outcome::Done => {}
            Outcome::Reschedule(t) => {
                sched.at(t, NetEvent::RtoTimer { host: node.0 as u32, flow: flow.0 as u32, gen });
            }
            Outcome::Failed => self.fail_flow(node, flow),
            Outcome::Retransmit => self.retransmit(node, flow, sched),
            Outcome::SrRepair => self.sr_timeout_repair(node, flow, sched),
        }
    }

    /// Marks a flow failed after its retry budget ran out: it is removed
    /// from the active list (never wedged, never silently dropped) and
    /// reported via [`Network::failed_flow_count`].
    fn fail_flow(&mut self, node: NodeId, flow: FlowId) {
        self.failed_flows += 1;
        self.flows[flow.0].failed = true;
        trace_event!(self.tracer, TraceEvent::FlowFailed, {
            flow: flow.0 as u32,
            node: node.0 as u32,
            payload: self.flow_rx[flow.0],
        });
        let slot = self.sender_slot(flow);
        let host = self.host_mut(node);
        if let Some(slot) = slot {
            if let Some(pos) = host.active.iter().position(|&i| i == slot) {
                host.active.swap_remove(pos);
                if host.rr_cursor >= host.active.len() {
                    host.rr_cursor = 0;
                }
            }
        }
    }

    /// Go-back-N rewind: back off the transport, rewind `sent` to the
    /// cumulative ACK mark, and resend from there. Frames from the old
    /// transmission still in flight arrive as duplicates and are
    /// discarded by the receiver's in-order check.
    fn retransmit(&mut self, node: NodeId, flow: FlowId, sched: &mut Scheduler<'_, NetEvent>) {
        let now = sched.now();
        self.retransmissions += 1;
        self.recovery_timeouts += 1;
        let (deadline, gen, rto_word) = {
            let slot = self.sender_slot(flow).expect("RTO for unregistered flow");
            let host = self.host_mut(node);
            let f = &mut host.tx_flows[slot];
            f.cc.on_loss(now);
            f.sent = f.acked;
            f.next_send = now;
            f.rtt_probe = None;
            // Still armed: the same generation carries the next event,
            // scheduled at the backed-off deadline.
            f.rto_deadline = f.recovery.deadline(now);
            let pair = (f.rto_deadline, f.rto_gen, f.recovery.trace_payload());
            // A fully-sent flow left the active list; the rewind has data
            // to send again.
            if !host.active.contains(&slot) {
                host.active.push(slot);
            }
            pair
        };
        trace_event!(self.tracer, TraceEvent::Retransmit, {
            flow: flow.0 as u32,
            node: node.0 as u32,
            payload: rto_word,
        });
        trace_event!(self.tracer, TraceEvent::RecoveryRto, {
            flow: flow.0 as u32,
            node: node.0 as u32,
            payload: rto_word,
        });
        sched.at(deadline, NetEvent::RtoTimer { host: node.0 as u32, flow: flow.0 as u32, gen });
        self.host_try_send(node, sched);
    }

    /// Selective-repeat timeout: no rewind of `sent` — instead the repair
    /// cursor is re-armed at the cumulative ACK mark, so only the missing
    /// segment (plus any un-SACKed holes above it) goes out again. Covers
    /// NACK loss and tail loss, where no out-of-order arrival exists to
    /// trigger a NACK.
    fn sr_timeout_repair(
        &mut self,
        node: NodeId,
        flow: FlowId,
        sched: &mut Scheduler<'_, NetEvent>,
    ) {
        let now = sched.now();
        let mtu = self.params.mtu;
        self.retransmissions += 1;
        self.recovery_timeouts += 1;
        let (deadline, gen, rto_word) = {
            let slot = self.sender_slot(flow).expect("RTO for unregistered flow");
            let host = self.host_mut(node);
            let f = &mut host.tx_flows[slot];
            f.cc.on_loss(now);
            f.sack.rearm_on_timeout(f.acked, mtu);
            f.next_send = now;
            f.rtt_probe = None;
            // Still armed: the same generation carries the next event,
            // scheduled at the backed-off deadline.
            f.rto_deadline = f.recovery.deadline(now);
            let triple = (f.rto_deadline, f.rto_gen, f.recovery.trace_payload());
            // A fully-sent flow left the active list; the repair cursor
            // has work again.
            if !host.active.contains(&slot) {
                host.active.push(slot);
            }
            triple
        };
        trace_event!(self.tracer, TraceEvent::Retransmit, {
            flow: flow.0 as u32,
            node: node.0 as u32,
            payload: rto_word,
        });
        trace_event!(self.tracer, TraceEvent::RecoveryRto, {
            flow: flow.0 as u32,
            node: node.0 as u32,
            payload: rto_word,
        });
        sched.at(deadline, NetEvent::RtoTimer { host: node.0 as u32, flow: flow.0 as u32, gen });
        self.host_try_send(node, sched);
    }

    /// Releases the MMU accounting of `frames` that a watchdog flush
    /// drained off one of `node`'s ports, frees them, then sends the PFC
    /// frames the releases owe — all collected first, then emitted in
    /// order through [`Self::drain_fc`]. `frames` comes back empty as the
    /// next flush's scratch buffer.
    fn release_drained(
        &mut self,
        node: NodeId,
        mut frames: Vec<QueuedFrame>,
        sched: &mut Scheduler<'_, NetEvent>,
    ) {
        let mut released = std::mem::take(&mut self.released);
        for qf in frames.drain(..) {
            if let Some(IngressTag { in_port, in_queue, region }) = qf.ingress {
                let (port, queue) = (usize::from(in_port), usize::from(in_queue));
                let mmu = &mut self.switch_mut(node).mmu;
                released.extend(mmu.on_departure(port, queue, qf.bytes(), region));
            }
            self.frames.free(qf.frame);
        }
        self.drain_fc(node, released.drain(..), sched);
        self.drained = frames;
        self.released = released;
    }

    fn handle_apply_pause(
        &mut self,
        node: NodeId,
        port: usize,
        scope: PfcScope,
        pause: bool,
        sched: &mut Scheduler<'_, NetEvent>,
    ) {
        let now = sched.now();
        let (peer, peer_port) = {
            let p = port_of(&mut self.nodes, node, port);
            match scope {
                PfcScope::Queue(c) => p.apply_class_pause(c, pause, now, &mut self.pauses),
                PfcScope::Port => p.apply_port_pause(pause, now, &mut self.pauses),
            }
            (p.peer, p.peer_port)
        };
        // Pause-causality hook: links are full-duplex port pairs, so the
        // congested downstream that requested this pause is statically
        // the peer endpoint. One branch when the observatory is off.
        if let Some(obs) = self.observe.as_deref_mut() {
            let class = match scope {
                PfcScope::Queue(c) => c,
                PfcScope::Port => PORT_SCOPE_CLASS,
            };
            if pause {
                let up_is_host = matches!(self.nodes[node.0], Node::Host(_));
                obs.cascade.on_pause(node, port, class, peer, peer_port, up_is_host, now);
            } else {
                obs.cascade.on_resume(node, port, class, now);
            }
        }
        let kind = match (scope, pause) {
            (PfcScope::Queue(_), true) => TraceEvent::PfcPause,
            (PfcScope::Queue(_), false) => TraceEvent::PfcResume,
            (PfcScope::Port, true) => TraceEvent::PfcPortPause,
            (PfcScope::Port, false) => TraceEvent::PfcPortResume,
        };
        trace_event!(self.tracer, kind, {
            node: node.0 as u32,
            port: port as u16,
            class: match scope {
                PfcScope::Queue(c) => c,
                PfcScope::Port => u8::MAX,
            },
        });
        if !pause {
            // Resumed: traffic may flow again.
            if matches!(self.nodes[node.0], Node::Host(_)) {
                self.host_try_send(node, sched);
            } else {
                self.try_transmit(node, port, sched);
            }
        }
    }

    /// Scans every switch egress port for over-age pauses and flushes
    /// them (releasing MMU accounting for the dropped frames).
    fn run_watchdog(
        &mut self,
        now: Time,
        timeout: dsh_simcore::Delta,
        sched: &mut Scheduler<'_, NetEvent>,
    ) {
        let node_count = self.nodes.len();
        for ni in 0..node_count {
            if !matches!(self.nodes[ni], Node::Switch(_)) {
                continue;
            }
            let port_count = match &self.nodes[ni] {
                Node::Switch(s) => s.ports.len(),
                Node::Host(_) => 0,
            };
            for pi in 0..port_count {
                for class in 0..crate::ids::NUM_DATA_CLASSES as u8 {
                    let expired = {
                        let Node::Switch(s) = &self.nodes[ni] else { unreachable!() };
                        let p = &s.ports[pi];
                        let since = p
                            .class_paused_since(class)
                            .or_else(|| p.port_paused_since().filter(|_| p.queue_bytes(class) > 0));
                        matches!(since, Some(t) if now.saturating_since(t) >= timeout)
                    };
                    if !expired {
                        continue;
                    }
                    let mut flushed = std::mem::take(&mut self.drained);
                    {
                        let Node::Switch(s) = &mut self.nodes[ni] else { unreachable!() };
                        s.ports[pi].watchdog_flush_class(
                            class,
                            now,
                            &mut flushed,
                            &mut self.pauses,
                        );
                    }
                    // The flush force-cleared both the class pause and any
                    // port-scope pause: end the matching cascade edges.
                    if let Some(obs) = self.observe.as_deref_mut() {
                        obs.cascade.on_resume(NodeId(ni), pi, class, now);
                        obs.cascade.on_resume(NodeId(ni), pi, PORT_SCOPE_CLASS, now);
                    }
                    // Release the MMU accounting of the dropped frames and
                    // forward any resumes that releases.
                    self.watchdog_drops += flushed.len() as u64;
                    self.release_drained(NodeId(ni), flushed, sched);
                    // The unpaused port may transmit again.
                    self.try_transmit(NodeId(ni), pi, sched);
                }
            }
        }
    }

    /// Handles the one periodic [`NetEvent::Sample`] tick. The goodput
    /// monitors and the PFC watchdog run *inside* instant `now`, wherever
    /// the tick lands in its same-instant batch.
    /// The metrics sample labeled `now` is instead instant-closed: the
    /// tick only arms it, and [`Self::capture_metrics`] takes it at the
    /// first event strictly after `now`, so it is always the state after
    /// every event at `<= now` (DESIGN.md §16).
    fn handle_sample(&mut self, sched: &mut Scheduler<'_, NetEvent>) {
        let now = sched.now();
        let dt = self.params.sample_interval;
        // Flow goodput monitors.
        for m in &mut self.monitors {
            let bytes = self.flow_rx[m.flow.0];
            let gbps = (bytes - m.last_bytes) as f64 * 8.0 / dt.as_secs_f64() / 1e9;
            m.last_bytes = bytes;
            m.samples.push(ThroughputSample { time: now, gbps });
        }
        // PFC watchdog (if armed): a class paused beyond the timeout is
        // force-resumed and its queue flushed — the standard deadlock
        // mitigation, trading losslessness for liveness.
        if let Some(wd) = self.params.pfc_watchdog {
            self.run_watchdog(now, wd, sched);
        }
        // Metrics sampler: commit the previous pending sample (captured by
        // `capture_metrics` at the first event after its instant) and arm
        // the one labeled `now`. This tick is itself an event strictly
        // after the previous instant, so dispatch entry has already
        // captured it.
        if let Some(obs) = self.observe.as_deref_mut() {
            debug_assert!(
                obs.metrics.has_staged() || self.metrics_capture_at == Time::MAX,
                "tick at {now:?} found an armed but uncaptured sample"
            );
            obs.metrics.commit_staged();
            self.metrics_capture_at = now;
        }
        sched.at(now + dt, NetEvent::Sample);
    }

    /// Captures the pending sample armed at `metrics_capture_at`:
    /// snapshots every switch's MMU occupancy and the global gauges
    /// into the observatory's staging slots (the next `Sample` tick
    /// commits them to the pre-allocated rings).  Called from
    /// dispatch entry at the first event strictly after the sample
    /// instant, *before* that event mutates any state.
    #[cold]
    fn capture_metrics(&mut self) {
        let t = self.metrics_capture_at;
        self.metrics_capture_at = Time::MAX;
        // Detach the observatory for the duration of the capture so the
        // node/port scans below can borrow `self` freely.
        let Some(mut obs) = self.observe.take() else { return };
        // Node order is the sampler's registration order.
        for n in &self.nodes {
            if let Node::Switch(s) = n {
                let snap = s.mmu.occupancy_snapshot();
                // The sampler must agree with the auditor at every sample
                // instant (the determinism proptest runs in debug mode and
                // leans on this cross-check).
                #[cfg(debug_assertions)]
                {
                    let audit = s.mmu.audit();
                    debug_assert_eq!(snap, audit.snapshot, "sampler/audit divergence at {t:?}");
                }
                obs.metrics.stage_switch(SwitchSample {
                    t,
                    shared: snap.shared,
                    headroom: snap.headroom + snap.insurance,
                    paused_queues: snap.paused_queues as u32,
                    paused_ports: snap.paused_ports as u32,
                });
            }
        }
        let paused_ports = self
            .all_ports()
            .filter(|(_, _, port)| {
                port.port_paused() || (0..NUM_DATA_CLASSES as u8).any(|c| port.class_paused(c))
            })
            .count() as u64;
        obs.metrics.stage_global(GlobalSample {
            t,
            paused_ports,
            nacks_sent: self.nacks_sent,
            retransmitted_bytes: self.retransmitted_bytes,
            sr_retransmitted_bytes: self.sr_retransmitted_bytes,
            recovery_timeouts: self.recovery_timeouts,
        });
        self.observe = Some(obs);
    }
}

/// A node's egress ports: a switch's in port order, a host's uplink.
fn node_ports(node: &Node) -> &[EgressPort] {
    match node {
        Node::Switch(s) => &s.ports,
        Node::Host(h) => h.port.as_slice(),
    }
}

/// Egress port `port` of node `id`, borrowed from the node list alone so
/// the caller keeps the rest of the network.
fn port_of(nodes: &mut [Node], id: NodeId, port: usize) -> &mut EgressPort {
    match &mut nodes[id.0] {
        Node::Switch(s) => &mut s.ports[port],
        Node::Host(h) => {
            assert_eq!(port, 0, "hosts have a single uplink");
            h.uplink_mut()
        }
    }
}

// Hot-path size contracts: calendar entries and queue slots are memcpy'd
// constantly, so they carry a frame as its 4-byte arena id, and a queue
// slot inlines just the fields the egress reads.
dsh_simcore::const_assert_size!(NetEvent, 16);
dsh_simcore::const_assert_size!(QueuedFrame, 16);
// A frame is its header and payload; INT hop records live in the arena's
// hop slab, so HOP_CAPACITY sizes a slab slot and never the frame.
dsh_simcore::const_assert_size!(Frame, 72);
// Fabric state contracts: ports and nodes are built by the thousand at
// paper scale, so per-port telemetry (the pause histograms) lives in the
// network's stores, not inline. The host variant, which holds its uplink
// inline, sizes `Node`.
dsh_simcore::const_assert_size!(EgressPort, 1024);
dsh_simcore::const_assert_size!(Node, 1024);

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
                let node = NodeId(node as usize);
                let in_port = in_port as usize;
                if matches!(self.nodes[node.0], Node::Switch(_)) {
                    self.switch_arrive(node, in_port, frame, sched);
                } else {
                    self.host_arrive(node, in_port, frame, sched);
                }
            }
            NetEvent::TxDone { node, port } => {
                self.handle_tx_done(NodeId(node as usize), port as usize, sched);
            }
            NetEvent::ApplyPause { node, port, scope, pause } => {
                self.handle_apply_pause(NodeId(node as usize), port as usize, scope, pause, sched);
            }
            NetEvent::FlowStart { flow } => self.handle_flow_start(FlowId(flow as usize), sched),
            NetEvent::HostWake { host } => {
                let host = NodeId(host as usize);
                self.host_mut(host).wake_at = Time::MAX;
                self.host_try_send(host, sched);
            }
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

    /// A linear chain of `depth` switches between two hosts.
    fn switch_chain(depth: usize) -> NetworkBuilder {
        let mut b = NetworkBuilder::new(NetParams::tomahawk(Scheme::Dsh).without_ecn());
        let h0 = b.host();
        let h1 = b.host();
        let switches: Vec<NodeId> = (0..depth).map(|_| b.switch()).collect();
        b.link(h0, switches[0], Bandwidth::from_gbps(100), Delta::from_us(2));
        for w in switches.windows(2) {
            b.link(w[0], w[1], Bandwidth::from_gbps(100), Delta::from_us(2));
        }
        b.link(switches[depth - 1], h1, Bandwidth::from_gbps(100), Delta::from_us(2));
        b
    }

    /// A data frame or ACK as it reached a host.
    struct Arrival {
        id: FrameId,
        flow: FlowId,
        ack: bool,
        /// The data frame's INT request (`false` for ACKs).
        int: bool,
        hops: dsh_transport::HopList,
    }

    /// A network under watch: records, before the network handles it,
    /// every data frame and ACK that reaches a host.
    struct FrameSpy {
        net: Network,
        arrivals: Vec<Arrival>,
    }

    impl FrameSpy {
        /// The INT request and hops of `flow`'s data frames, in arrival order.
        fn data_of(&self, flow: FlowId) -> Vec<(bool, dsh_transport::HopList)> {
            let data = self.arrivals.iter().filter(|a| a.flow == flow && !a.ack);
            data.map(|a| (a.int, a.hops)).collect()
        }

        /// The hops of `flow`'s ACKs, in arrival order.
        fn acks_of(&self, flow: FlowId) -> Vec<dsh_transport::HopList> {
            self.arrivals.iter().filter(|a| a.flow == flow && a.ack).map(|a| a.hops).collect()
        }

        /// The watched network as a simulation with its flow starts
        /// scheduled.
        fn into_sim_watched(mut self) -> Simulation<FrameSpy> {
            self.net.prepare();
            let starts: Vec<_> = self.net.flows.iter().map(|f| f.spec.start).collect();
            let mut sim = Simulation::new(self);
            for (flow, at) in starts.into_iter().enumerate() {
                sim.schedule(at, NetEvent::FlowStart { flow: flow as u32 });
            }
            sim
        }

        /// How many times an arena id that carried a frame of `from` next
        /// carried one of `to`.
        fn handoffs(&self, from: FlowId, to: FlowId) -> usize {
            let mut last = std::collections::HashMap::new();
            let mut n = 0;
            for a in &self.arrivals {
                if last.insert(a.id, a.flow) == Some(from) && a.flow == to {
                    n += 1;
                }
            }
            n
        }
    }

    impl Model for FrameSpy {
        type Event = NetEvent;

        fn handle(&mut self, event: NetEvent, sched: &mut Scheduler<'_, NetEvent>) {
            if let NetEvent::Arrive { node, frame: id, .. } = event {
                if matches!(self.net.nodes[node as usize], Node::Host(_)) {
                    let hops = dsh_transport::HopList::from_slice(self.net.frames.hops(id));
                    let (flow, ack, int) = match self.net.frames.get(id).kind {
                        FrameKind::Data(d) => (d.flow, false, d.int),
                        FrameKind::Ack(a) => (a.flow, true, false),
                        _ => unreachable!("the chain runs without ECN or loss"),
                    };
                    self.arrivals.push(Arrival { id, flow, ack, int, hops });
                }
            }
            self.net.handle(event, sched);
        }
    }

    /// One flow per `(transport, bytes, start)` in `flows`, all from host
    /// 0 to host 1 across a chain of `depth` switches, watched.
    fn spy_on_chain(flows: &[(CcKind, u64, Time)], depth: usize) -> FrameSpy {
        let mut net = switch_chain(depth).build();
        for &(cc, size, start) in flows {
            net.add_flow(FlowSpec { src: NodeId(0), dst: NodeId(1), size, class: 0, start, cc });
        }
        let mut sim = FrameSpy { net, arrivals: Vec::new() }.into_sim_watched();
        sim.run_until(Time::from_ms(1));
        let spy = sim.into_model();
        assert_eq!(spy.net.fct_records().len(), flows.len(), "{flows:?} complete");
        assert_eq!(spy.net.live_frames(), 0, "every frame was freed");
        for flow in 0..flows.len() {
            assert!(!spy.data_of(FlowId(flow)).is_empty());
        }
        spy
    }

    /// Asserts that every data frame of `flow` requested INT and carries
    /// one stamp per switch of a `depth`-switch path, in path order, and
    /// that the k-th ACK (one path, FIFO queues: the answer to the k-th
    /// data frame) echoes exactly its hops.
    fn assert_int_echoed(spy: &FrameSpy, flow: FlowId, depth: usize) {
        let data = spy.data_of(flow);
        for (int, hops) in &data {
            assert!(int, "PowerTCP data requests INT");
            assert_eq!(hops.len(), depth, "one stamp per switch egress");
            assert!(hops.windows(2).all(|w| w[0].timestamp < w[1].timestamp), "path order");
        }
        let data_hops: Vec<_> = data.iter().map(|(_, hops)| *hops).collect();
        assert_eq!(spy.acks_of(flow), data_hops);
    }

    /// Asserts that no data frame or ACK of `flow` carries a hop.
    fn assert_no_hops(spy: &FrameSpy, flow: FlowId) {
        assert!(spy.data_of(flow).iter().all(|(int, hops)| !int && hops.is_empty()), "data");
        assert!(spy.acks_of(flow).iter().all(|hops| hops.is_empty()), "ACKs");
    }

    #[test]
    fn frames_of_transports_that_ignore_int_carry_no_hops() {
        for cc in [CcKind::Dcqcn, CcKind::Uncontrolled] {
            assert_no_hops(&spy_on_chain(&[(cc, 30_000, Time::ZERO)], 3), FlowId(0));
        }
    }

    #[test]
    fn powertcp_acks_echo_every_hop_in_path_order() {
        // Five switches: the chain of the engine bench's PowerTCP probe.
        let spy = spy_on_chain(&[(CcKind::PowerTcp, 30_000, Time::ZERO)], 5);
        assert_int_echoed(&spy, FlowId(0), 5);
    }

    #[test]
    fn int_and_plain_frames_share_arena_ids_without_sharing_hops() {
        // Both flows on one class of one path. The second starts once the
        // first one's ACKs free arena ids (one round trip is 24 us) and
        // takes them over: from INT frames to plain ones, then the other
        // way round.
        for (int_start, plain_start) in [(0, 30), (30, 0)] {
            let flows = [
                (CcKind::PowerTcp, 300_000, Time::from_us(int_start)),
                (CcKind::Dcqcn, 300_000, Time::from_us(plain_start)),
            ];
            let spy = spy_on_chain(&flows, 5);
            assert_int_echoed(&spy, FlowId(0), 5);
            assert_no_hops(&spy, FlowId(1));
            let (first, second) =
                if int_start == 0 { (FlowId(0), FlowId(1)) } else { (FlowId(1), FlowId(0)) };
            assert!(spy.handoffs(first, second) > 0, "{flows:?}: no id changed hands");
        }
    }

    #[test]
    fn build_accepts_a_path_at_the_hop_capacity() {
        let _ = switch_chain(dsh_transport::HOP_CAPACITY).build();
    }

    #[test]
    #[should_panic(expected = "HOP_CAPACITY")]
    fn build_rejects_a_path_deeper_than_the_hop_capacity() {
        let _ = switch_chain(dsh_transport::HOP_CAPACITY + 1).build();
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
        let f = net.add_flow(FlowSpec {
            src: h0,
            dst: h1,
            size: 1500,
            class: 0,
            start: Time::ZERO,
            cc: CcKind::Uncontrolled,
        });
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
        let f = net.add_flow(FlowSpec {
            src: h0,
            dst: h1,
            size: 3_000_000,
            class: 2,
            start: Time::ZERO,
            cc: CcKind::Uncontrolled,
        });
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
        let f = net.add_flow(FlowSpec {
            src: h0,
            dst: h1,
            size: 1_000_000,
            class: 0,
            start: Time::ZERO,
            cc: CcKind::Uncontrolled,
        });
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
        let a = net.add_flow(FlowSpec {
            src: h0,
            dst: h1,
            size: 2_000_000,
            class: 0,
            start: Time::ZERO,
            cc: CcKind::Uncontrolled,
        });
        let b = net.add_flow(FlowSpec {
            src: h0,
            dst: h1,
            size: 2_000_000,
            class: 1,
            start: Time::ZERO,
            cc: CcKind::Uncontrolled,
        });
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
        net.add_flow(FlowSpec {
            src: h0,
            dst: h1,
            size: 500_000,
            class: 0,
            start: Time::ZERO,
            cc: CcKind::Uncontrolled,
        });
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
        net.add_flow(FlowSpec {
            src: h0,
            dst: h1,
            size: 100,
            class: 7,
            start: Time::ZERO,
            cc: CcKind::Uncontrolled,
        });
    }

    #[test]
    #[should_panic(expected = "src must be a host")]
    fn switch_sources_are_rejected() {
        let (mut net, _, h1) = two_hosts_one_switch(Scheme::Dsh);
        net.add_flow(FlowSpec {
            src: NodeId(2),
            dst: h1,
            size: 100,
            class: 0,
            start: Time::ZERO,
            cc: CcKind::Uncontrolled,
        });
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
        net.add_flow(FlowSpec {
            src: h0,
            dst: h1,
            size: 1_000_000,
            class: 0,
            start: Time::ZERO,
            cc: CcKind::PowerTcp,
        });
        let mut sim = net.into_sim();
        sim.run_until(Time::from_ms(5));
        let net = sim.into_model();
        assert_eq!(net.fct_records().len(), 1);
        assert_eq!(net.data_drops(), 0);
    }
}

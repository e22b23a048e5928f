//! The network model: event dispatch, switching, host NIC logic and
//! measurement.

use crate::builder::NetParams;
use crate::fault::{FaultKind, FaultPlan};
use crate::frame::{AckFrame, DataFrame, Frame, FrameKind, NackFrame, PfcScope};
use crate::host::{HostNode, ReceiverFlow, SenderFlow};
use crate::ids::{FlowId, NodeId, NUM_DATA_CLASSES};
use crate::monitor::{
    ClassPauseTelemetry, DeadlockReport, FctRecord, PauseLedger, PortPauseTelemetry,
    SwitchTelemetry, TelemetryReport, ThroughputSample,
};
use crate::observe::{GlobalSample, ObserveState, SwitchSample, PORT_SCOPE_CLASS};
use crate::port::{EgressPort, IngressTag, QueuedFrame};
use crate::switch::SwitchNode;
use dsh_core::headroom::PFC_PROCESSING_BYTES;
use dsh_core::{FcAction, FcActions};
use dsh_simcore::trace::{TraceEvent, TraceLog, TraceMask, Tracer};
use dsh_simcore::{
    split_seed, trace_event, Delta, EventClass, FlightGuard, Model, Pool, Scheduler, SimRng,
    Simulation, Time,
};
use dsh_transport::{
    new_cc, AckInfo, CcKind, GoBackN, HopList, RecoveryConfig, Regime, RtoOutcome, SackBuffer,
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
/// the whole event at 24 bytes (asserted below). The builder guarantees
/// the counts fit; [`Network::handle`] widens them back into typed ids.
#[derive(Clone, Debug)]
pub enum NetEvent {
    /// A frame finished arriving at `node` on ingress `in_port`.
    Arrive {
        /// Receiving node index.
        node: u32,
        /// Ingress port index at the receiving node.
        in_port: u32,
        /// The frame (boxed and pool-recycled so events stay pointer-sized
        /// even though frames carry their INT hops inline).
        frame: Box<Frame>,
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
        /// Port fault generation at issue time: if the link flapped while
        /// the processing delay elapsed, the event is stale (a PAUSE whose
        /// RESUME died with the link must not wedge the port).
        gen: u32,
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
    /// A scheduled fault takes effect.
    Fault {
        /// Index into the installed [`FaultPlan`]'s event list.
        index: u32,
    },
    /// Periodic measurement tick.
    Sample,
    /// Periodic observability tick: snapshots switch occupancy and global
    /// gauges into the metrics sampler (only scheduled when
    /// `NetParams::observe` is set).
    MetricsTick,
}

/// A node in the network.
#[derive(Debug)]
#[allow(clippy::large_enum_variant)] // a few hundred nodes at most; indirection buys nothing
pub(crate) enum Node {
    /// A switch.
    Switch(SwitchNode),
    /// A host.
    Host(HostNode),
    /// A node owned by another partition of a split network (see
    /// [`crate::par`]). Keeping the full-length node vector with absent
    /// placeholders means node ids stay global — no per-partition
    /// re-indexing anywhere — and any event dispatched to a node the
    /// partition does not own panics instead of corrupting state.
    Absent,
}

#[derive(Debug)]
struct FlowMeta {
    spec: FlowSpec,
    completed: bool,
    /// Loss recovery gave up on this flow (go-back-N hit its retry cap);
    /// marked explicitly so a run can tell failed from wedged.
    failed: bool,
}

/// One direction of a corrupted link: frames arriving at `node` on
/// `in_port` are dropped with `probability`, drawn from a dedicated RNG
/// stream split from the fault plan's seed.
#[derive(Debug)]
struct CorruptLink {
    node: u32,
    in_port: u32,
    probability: f64,
    rng: SimRng,
}

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
    pub(crate) params: NetParams,
    pub(crate) nodes: Vec<Node>,
    flows: Vec<FlowMeta>,
    flow_rx: Vec<u64>,
    /// Receiver-side per-flow state, indexed by flow id. Flow ids are
    /// global and each flow has exactly one receiver, so a flat vector
    /// replaces a per-host hash map on the per-packet delivery path.
    rx_flows: Vec<ReceiverFlow>,
    fct: Vec<FctRecord>,
    monitors: Vec<FlowMonitor>,
    rng: SimRng,
    /// Recycled frame boxes: every consumed frame (ACK/CNP/PFC processed
    /// at its destination, dropped or watchdog-flushed data) returns here
    /// and is reused for the next frame, so the steady-state packet path
    /// never touches the allocator.
    pool: Pool<Frame>,
    /// Watchdog scratch: drained frames of one flush (capacity reused
    /// across samples).
    wd_flushed: Vec<QueuedFrame>,
    /// Watchdog scratch: flow-control actions released by one flush.
    wd_fc: Vec<FcAction>,
    data_drops: u64,
    /// Data packets delivered to their destination host (denominator for
    /// the benches' allocations-per-packet metric).
    packets_delivered: u64,
    watchdog_drops: u64,
    deadlock: DeadlockReport,
    /// Installed fault schedule, if any (see [`Network::set_fault_plan`]).
    fault_plan: Option<FaultPlan>,
    /// Per-direction corruption state derived from the plan.
    corrupt: Vec<CorruptLink>,
    /// Frames lost to injected faults: drained on `LinkDown`, dropped
    /// mid-flight on a dead link, corrupted, or black-holed by a
    /// partition. Disjoint from `data_drops` (MMU admission losses).
    link_drops: u64,
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
    /// Node → partition map when this network is one partition of a split
    /// run (see [`crate::par`]); empty in the ordinary serial case, which
    /// is what the hot path branches on.
    pub(crate) owner: Vec<u32>,
    /// This instance's partition id (0 when serial).
    pub(crate) part: u32,
    /// Cross-partition departures buffered for the parallel driver: the
    /// `Arrive` events whose destination node another partition owns.
    /// The driver drains this at every window boundary and re-schedules
    /// each event on the owning partition's calendar; capacity is
    /// retained across windows so the steady-state packet path stays
    /// allocation-free.
    pub(crate) outbox: Vec<(Time, NetEvent)>,
    /// Cross-partition arrivals staged *into* this partition: the
    /// coordinator routes frames here at the window barrier and the
    /// owning worker folds them into its own calendar at the start of the
    /// next window — moving the per-event heap pushes off the serial
    /// coordinator and onto the parallel workers.
    pub(crate) inbox: Vec<(Time, NetEvent)>,
    /// Pause-causality observatory; `Some` only when
    /// `NetParams::observe` is set. Boxed so the disabled case costs one
    /// pointer-sized `Option` and a single branch on the pause path.
    pub(crate) observe: Option<Box<ObserveState>>,
    /// Pending instant-closed sample label: the tick at `t` arms this and
    /// the first event *strictly after* `t` captures the sample (see
    /// [`crate::observe::MetricsSampler`]). `Time::MAX` when no sample is
    /// pending, so the masked-off dispatch cost is one compare-branch.
    metrics_capture_at: Time,
}

/// Number of free frame boxes the pool retains (beyond this, returned
/// boxes are simply freed): bounds retained memory after a burst at
/// ~1 MiB while covering the steady-state churn window many times over.
const FRAME_POOL_RETAIN: usize = 4096;

/// Initial capacity of a partition's cross-partition outbox: generous
/// enough that a lookahead window's worth of cut-link departures never
/// grows it in steady state (the zero-allocs-per-packet contract).
const OUTBOX_RESERVE: usize = 1024;

impl Network {
    pub(crate) fn from_parts(params: NetParams, nodes: Vec<Node>, tracer: Tracer) -> Self {
        let rng = SimRng::new(params.seed);
        // Pre-register locally-present switches so metrics sampling never
        // allocates; in a split partition foreign nodes are placeholders
        // and each switch registers with exactly one partition.
        let observe = params.observe.as_ref().map(|cfg| {
            let mut st = Box::new(ObserveState::new(cfg));
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
            flows: Vec::new(),
            flow_rx: Vec::new(),
            rx_flows: Vec::new(),
            fct: Vec::new(),
            monitors: Vec::new(),
            rng,
            pool: Pool::bounded(FRAME_POOL_RETAIN),
            wd_flushed: Vec::new(),
            wd_fc: Vec::new(),
            data_drops: 0,
            packets_delivered: 0,
            watchdog_drops: 0,
            deadlock: DeadlockReport::default(),
            fault_plan: None,
            corrupt: Vec::new(),
            link_drops: 0,
            retransmissions: 0,
            retransmitted_bytes: 0,
            nacks_sent: 0,
            sr_retransmitted_bytes: 0,
            recovery_timeouts: 0,
            recovery_nacks: 0,
            failed_flows: 0,
            tracer,
            owner: Vec::new(),
            part: 0,
            outbox: Vec::new(),
            inbox: Vec::new(),
            observe,
            metrics_capture_at: Time::MAX,
        }
    }

    /// Whether `node` lives in this instance (always true for a serial,
    /// unsplit network).
    #[inline]
    pub(crate) fn is_local(&self, node: NodeId) -> bool {
        self.owner.is_empty() || self.owner[node.0] == self.part
    }

    /// Pre-fills the frame pool with `n` free boxes (see
    /// [`dsh_simcore::Pool::prewarm`]); the parallel driver calls this per
    /// partition at construction so the measured steady state starts with
    /// its circulating box population already in place.
    pub(crate) fn prewarm_frame_pool(&mut self, n: usize) {
        self.pool.prewarm(n, || Frame::pfc(PfcScope::Port, false));
    }

    /// Detaches up to `n` free boxes from the frame pool into `out`.
    ///
    /// Cross-partition pool rebalancing: a frame migrating to another
    /// partition takes its box along, so the coordinator counter-migrates
    /// a free box per delivered frame. That keeps every partition's box
    /// population flat — without it, a partition whose hosts net-export
    /// frames drains its free list and allocates on the hot path forever.
    #[allow(clippy::vec_box)] // boxes are the recycled resource (see Pool::lend)
    #[allow(clippy::vec_box)] // boxes are the recycled resource (see Pool::lend)
    pub(crate) fn lend_free_frames(&mut self, n: usize, out: &mut Vec<Box<Frame>>) {
        self.pool.lend(n, out);
    }

    /// Returns boxes taken by [`Network::lend_free_frames`] to this pool.
    #[allow(clippy::vec_box)] // boxes are the recycled resource (see Pool::lend)
    #[allow(clippy::vec_box)] // boxes are the recycled resource (see Pool::lend)
    pub(crate) fn adopt_free_frames(&mut self, from: &mut Vec<Box<Frame>>) {
        for b in from.drain(..) {
            self.pool.put(b);
        }
    }

    /// The flight-recorder tracer this network (and its switch MMUs)
    /// records into. Disabled unless [`NetParams::trace`], a
    /// [`dsh_simcore::trace::capture`] session, or `DSH_TRACE_MASK`
    /// enabled it at build time.
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

    /// Arms a [`FlightGuard`] over this network's recorder: if the
    /// caller's scope unwinds, the last records are dumped under `label`.
    #[must_use]
    pub fn flight_guard(&self, label: impl Into<String>) -> FlightGuard {
        FlightGuard::arm(&self.tracer, label)
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
        let id = FlowId(self.flows.len());
        self.flows.push(FlowMeta { spec, completed: false, failed: false });
        self.flow_rx.push(0);
        self.rx_flows.push(ReceiverFlow::new());
        id
    }

    /// Starts recording a goodput time series for `flow` (sampled every
    /// [`NetParams::sample_interval`]).
    pub fn monitor_flow(&mut self, flow: FlowId) {
        self.monitors.push(FlowMonitor { flow, last_bytes: 0, samples: Vec::new() });
    }

    /// Installs a fault schedule. Must be called before
    /// [`Network::into_sim`]; each entry becomes an ordinary calendar
    /// event, so fault runs stay bit-identical at any thread count.
    ///
    /// Faults imply loss, so if [`NetParams::recovery`] is still `None`
    /// this enables go-back-N recovery at the default configuration for
    /// the network's base RTT (otherwise a single dropped frame would
    /// wedge its flow forever).
    ///
    /// # Panics
    ///
    /// Panics if a plan is already installed, or if a plan entry names a
    /// link that does not exist in the topology.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        assert!(self.fault_plan.is_none(), "fault plan already installed");
        if self.params.recovery.is_none() {
            self.params.recovery = Some(RecoveryConfig::for_rtt(self.params.base_rtt));
        }
        // Validate link events eagerly: a typo'd node pair should fail at
        // install time, not halfway through a run.
        for ev in plan.events() {
            let (FaultKind::LinkDown { a, b } | FaultKind::LinkUp { a, b }) = ev.kind;
            let _ = self.find_port(a, b);
            let _ = self.find_port(b, a);
        }
        for (i, c) in plan.corruption().iter().enumerate() {
            let pa = self.find_port(c.a, c.b);
            let pb = self.find_port(c.b, c.a);
            // One independent RNG stream per direction, split from the
            // plan seed: adding a corrupted link never perturbs the draws
            // of another. Frames from `a` toward `b` arrive at `b` on
            // `b`'s port facing `a`.
            let idx = i as u64 * 2;
            self.corrupt.push(CorruptLink {
                node: c.b.0 as u32,
                in_port: pb as u32,
                probability: c.probability,
                rng: SimRng::new(split_seed(plan.seed(), idx)),
            });
            self.corrupt.push(CorruptLink {
                node: c.a.0 as u32,
                in_port: pa as u32,
                probability: c.probability,
                rng: SimRng::new(split_seed(plan.seed(), idx + 1)),
            });
        }
        self.fault_plan = Some(plan);
    }

    /// Whether a fault plan is installed (fault-aware assertions use this
    /// to decide if `link_drops` are legitimate).
    #[must_use]
    pub fn fault_plan_active(&self) -> bool {
        self.fault_plan.is_some()
    }

    /// The installed plan's timed link events, for the parallel driver
    /// (which executes faults at window barriers instead of in-calendar).
    pub(crate) fn fault_schedule(&self) -> Vec<(Time, FaultKind)> {
        self.fault_plan
            .as_ref()
            .map(|p| p.events().iter().map(|e| (e.at, e.kind)).collect())
            .unwrap_or_default()
    }

    /// Converts the network into a ready-to-run simulation: flow starts
    /// and the sampling tick are scheduled.
    #[must_use]
    pub fn into_sim(mut self) -> Simulation<Network> {
        self.prepare();
        let starts: Vec<(Time, FlowId)> =
            self.flows.iter().enumerate().map(|(i, f)| (f.spec.start, FlowId(i))).collect();
        // Fault events ride the ordinary calendar; scheduled after the
        // flow starts so same-instant ties resolve flows-first.
        let faults: Vec<(Time, u32)> = self
            .fault_plan
            .as_ref()
            .map(|p| p.events().iter().enumerate().map(|(i, e)| (e.at, i as u32)).collect())
            .unwrap_or_default();
        let tick = self.params.sample_interval;
        let metrics = self.params.observe.map(|o| o.metrics_interval);
        let mut sim = Simulation::new(self);
        for (t, flow) in starts {
            sim.schedule(t, NetEvent::FlowStart { flow: flow.0 as u32 });
        }
        for (t, index) in faults {
            sim.schedule(t, NetEvent::Fault { index });
        }
        sim.schedule(Time::ZERO + tick, NetEvent::Sample);
        // Scheduled after Sample so a shared instant measures first, then
        // snapshots — the partitioned driver follows the same order.
        if let Some(mi) = metrics {
            sim.schedule(Time::ZERO + mi, NetEvent::MetricsTick);
        }
        sim
    }

    /// Pre-run sizing shared by the serial and partitioned paths: one FCT
    /// record per flow, reserved now so a completion mid-run never
    /// reallocates the log (the packet hot path stays allocation-free;
    /// see DESIGN.md §10). Likewise each host's flow-id → sender-slot
    /// table is pre-sized here so a FlowStart firing after warmup never
    /// grows it.
    pub(crate) fn prepare(&mut self) {
        self.fct.reserve(self.flows.len());
        let nflows = self.flows.len();
        for n in &mut self.nodes {
            if let Node::Host(h) = n {
                h.tx_index.resize(nflows, u32::MAX);
            }
        }
    }

    // ---- partitioned execution (see crate::par) ---------------------------

    /// Splits the network into `parts` per-partition networks according to
    /// `owner` (node → partition). Each partition keeps the full-length
    /// node vector with [`Node::Absent`] placeholders for foreign nodes,
    /// its own frame pool, RNG stream, and cross-partition outbox; flows
    /// are replicated (sender state lives with the source host, receiver
    /// state is only ever touched by the destination's owner). Must be
    /// called before any event has run.
    pub(crate) fn split(mut self, owner: &[u32], parts: u32) -> Vec<Network> {
        assert_eq!(owner.len(), self.nodes.len(), "owner map must cover every node");
        assert!(self.fct.is_empty(), "split must happen before the run");
        self.prepare();
        let nflows = self.flows.len();
        // Corruption streams follow the receiving endpoint's owner.
        let mut corrupt: Vec<Vec<CorruptLink>> = (0..parts as usize).map(|_| Vec::new()).collect();
        for c in self.corrupt.drain(..) {
            corrupt[owner[c.node as usize] as usize].push(c);
        }
        let mut all_nodes = std::mem::take(&mut self.nodes);
        let mut out = Vec::with_capacity(parts as usize);
        for (k, corrupt) in corrupt.into_iter().enumerate() {
            let nodes: Vec<Node> = all_nodes
                .iter_mut()
                .enumerate()
                .map(|(i, slot)| {
                    if owner[i] == k as u32 {
                        std::mem::replace(slot, Node::Absent)
                    } else {
                        Node::Absent
                    }
                })
                .collect();
            let mut net = Network::from_parts(self.params.clone(), nodes, self.tracer.clone());
            net.flows = self
                .flows
                .iter()
                .map(|f| FlowMeta { spec: f.spec, completed: f.completed, failed: f.failed })
                .collect();
            net.flow_rx = vec![0; nflows];
            net.rx_flows = (0..nflows).map(|_| ReceiverFlow::new()).collect();
            // Goodput monitors sample receiver-side byte counts, so each
            // follows its flow's destination owner.
            net.monitors = self
                .monitors
                .iter()
                .filter(|m| owner[self.flows[m.flow.0].spec.dst.0] == k as u32)
                .map(|m| FlowMonitor { flow: m.flow, last_bytes: 0, samples: Vec::new() })
                .collect();
            net.fct.reserve(nflows);
            // Partitions draw from independent split streams (the serial
            // global stream cannot be sliced across concurrent calendars).
            // Partition count is a pure function of the topology, so runs
            // stay bit-identical at any worker count.
            net.rng = SimRng::new(split_seed(self.params.seed, k as u64 + 1));
            net.fault_plan = self.fault_plan.clone();
            net.corrupt = corrupt;
            net.owner = owner.to_vec();
            net.part = k as u32;
            net.outbox = Vec::with_capacity(OUTBOX_RESERVE);
            net.inbox = Vec::with_capacity(OUTBOX_RESERVE);
            out.push(net);
        }
        out
    }

    /// Folds one partition's final state back into `self` (the merge side
    /// of [`Network::split`]): nodes move home, counters sum, and per-flow
    /// state is taken from the owning side.
    pub(crate) fn absorb(&mut self, mut other: Network) {
        assert_eq!(self.nodes.len(), other.nodes.len(), "absorb requires sibling partitions");
        for (mine, theirs) in self.nodes.iter_mut().zip(other.nodes.iter_mut()) {
            if !matches!(theirs, Node::Absent) {
                debug_assert!(matches!(mine, Node::Absent), "node owned by two partitions");
                *mine = std::mem::replace(theirs, Node::Absent);
            }
        }
        for i in 0..self.flows.len() {
            let spec = self.flows[i].spec;
            if other.owner[spec.dst.0] == other.part {
                self.flow_rx[i] = other.flow_rx[i];
                self.rx_flows[i] = std::mem::take(&mut other.rx_flows[i]);
                self.flows[i].completed |= other.flows[i].completed;
            }
            if other.owner[spec.src.0] == other.part {
                self.flows[i].failed |= other.flows[i].failed;
            }
        }
        self.fct.append(&mut other.fct);
        self.monitors.append(&mut other.monitors);
        self.corrupt.append(&mut other.corrupt);
        self.data_drops += other.data_drops;
        self.packets_delivered += other.packets_delivered;
        self.watchdog_drops += other.watchdog_drops;
        self.link_drops += other.link_drops;
        self.retransmissions += other.retransmissions;
        self.retransmitted_bytes += other.retransmitted_bytes;
        self.nacks_sent += other.nacks_sent;
        self.sr_retransmitted_bytes += other.sr_retransmitted_bytes;
        self.recovery_timeouts += other.recovery_timeouts;
        self.recovery_nacks += other.recovery_nacks;
        self.failed_flows += other.failed_flows;
        // Observability logs merge like outboxes: concatenate here,
        // restore canonical order once in finish_merge.
        if let (Some(mine), Some(theirs)) = (self.observe.as_deref_mut(), other.observe.take()) {
            mine.absorb(*theirs);
        }
        // Deadlock onset is the earliest still-wedged port anywhere.
        self.deadlock.onset = match (self.deadlock.onset, other.deadlock.onset) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
    }

    /// Final fix-ups after every partition has been absorbed: completed
    /// flows sort into a canonical order (completion order is only
    /// partition-local during a split run) and the partition markers are
    /// cleared so the merged network reads as an ordinary serial one.
    pub(crate) fn finish_merge(&mut self) {
        self.fct.sort_unstable_by_key(|r| (r.finish, r.flow.0));
        if let Some(obs) = self.observe.as_deref_mut() {
            obs.finish_merge();
        }
        self.owner.clear();
        self.part = 0;
        assert!(self.outbox.is_empty(), "undelivered cross-partition frames at merge");
    }

    /// Accumulates this partition's live (link-up) adjacency into the
    /// driver's full-topology buffers — the partitioned counterpart of
    /// the gather in [`Network::recompute_routes`].
    pub(crate) fn live_topology_into(
        &self,
        is_switch: &mut [bool],
        adj: &mut [Vec<(usize, usize)>],
    ) {
        for (i, node) in self.nodes.iter().enumerate() {
            let ports: &[EgressPort] = match node {
                Node::Switch(s) => {
                    is_switch[i] = true;
                    &s.ports
                }
                Node::Host(h) => h.port.as_slice(),
                Node::Absent => continue,
            };
            for (pi, p) in ports.iter().enumerate() {
                if p.is_link_up() {
                    adj[i].push((p.peer.0, pi));
                }
            }
        }
    }

    /// Installs driver-recomputed route tables into this partition's
    /// switches (foreign slots of `tables` are ignored).
    pub(crate) fn install_routes(&mut self, tables: &[crate::routing::RouteTable]) {
        for (i, node) in self.nodes.iter_mut().enumerate() {
            if let Node::Switch(s) = node {
                s.routes = tables[i].clone();
            }
        }
    }

    /// One endpoint's share of a driver-executed link fault: `up == false`
    /// kills this side's port (drain, MMU release, pause-ledger clear),
    /// `up == true` restores it. Route recomputation is the driver's job.
    pub(crate) fn fault_endpoint(
        &mut self,
        node: NodeId,
        peer: NodeId,
        up: bool,
        sched: &mut Scheduler<'_, NetEvent>,
    ) {
        let port = self.find_port(node, peer);
        if up {
            self.port_mut(node, port).restore();
        } else {
            self.kill_port(node, port, sched.now(), sched);
        }
    }

    /// Post-repair kick for one endpoint of a restored link (run after
    /// routes are back in place, mirroring the serial
    /// [`Network::link_up`] order).
    pub(crate) fn fault_kick(
        &mut self,
        node: NodeId,
        peer: NodeId,
        sched: &mut Scheduler<'_, NetEvent>,
    ) {
        let port = self.find_port(node, peer);
        if matches!(self.nodes[node.0], Node::Host(_)) {
            self.host_try_send(node, sched);
        } else {
            self.try_transmit(node, port, sched);
        }
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

    /// Deadlock detection result.
    #[must_use]
    pub fn deadlock_report(&self) -> DeadlockReport {
        self.deadlock
    }

    /// Frames dropped by the PFC watchdog (0 unless
    /// [`NetParams::pfc_watchdog`] is armed).
    #[must_use]
    pub fn watchdog_drops(&self) -> u64 {
        self.watchdog_drops
    }

    /// Frames lost to injected faults (0 unless a [`FaultPlan`] is
    /// installed): drained from a failing port, caught mid-flight on a
    /// dead link, corrupted, or black-holed by a partition. Kept apart
    /// from [`Network::data_drops`] so lossless assertions still bite on
    /// MMU admission failures during fault runs.
    #[must_use]
    pub fn link_drops(&self) -> u64 {
        self.link_drops
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

    /// Every egress port in the network as `(node, port index, port)`, in
    /// node then port order.
    pub(crate) fn all_ports(&self) -> impl Iterator<Item = (NodeId, usize, &EgressPort)> {
        self.nodes.iter().enumerate().flat_map(|(i, n)| {
            let ports: &[EgressPort] = match n {
                Node::Switch(s) => &s.ports,
                Node::Host(h) => h.port.as_slice(),
                Node::Absent => &[],
            };
            ports.iter().enumerate().map(move |(p, port)| (NodeId(i), p, port))
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
    /// (SIH: `Σ N_q·η`; DSH/BShare: insurance `Σ η`; Lossy: exactly 0 —
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

    /// A structured telemetry snapshot at `now`: per-switch MMU audits,
    /// drop attribution, occupancy time series, and per-port PFC pause
    /// durations with pause→resume latency histograms. Serialize with
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
                    occupancy: s.occupancy.points(),
                });
            }
        }
        let ports =
            self.all_ports()
                .map(|(node, p, port)| PortPauseTelemetry {
                    node,
                    port: p,
                    queue_level: (0..NUM_DATA_CLASSES)
                        .map(|c| port.class_pause_total(c as u8, now))
                        .sum(),
                    port_level: port.port_pause_total(now),
                    pause_latency: port.pause_latency_histogram(),
                    classes: (0..crate::ids::NUM_CLASSES as u8)
                        .filter_map(|c| {
                            let pause = port.class_pause_total(c, now);
                            let latency = port.class_pause_latency_histogram(c);
                            (pause > Delta::ZERO || latency.count() > 0).then(|| {
                                ClassPauseTelemetry { class: c, pause, latency: latency.clone() }
                            })
                        })
                        .collect(),
                    port_latency: port.port_pause_latency_histogram().clone(),
                })
                .collect();
        TelemetryReport {
            generated_at: now,
            data_drops: self.data_drops,
            watchdog_drops: self.watchdog_drops,
            link_drops: self.link_drops,
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

    /// Prometheus text exposition of the latest metrics samples; `None`
    /// unless `NetParams::observe` is set.
    #[must_use]
    pub fn metrics_prometheus(&self) -> Option<String> {
        self.observe.as_deref().map(|obs| obs.metrics.to_prometheus())
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
                let f = &h.tx_flows[h.sender_slot(flow)?];
                Some((f.cc.cwnd_bytes(), f.in_flight()))
            }
            Node::Switch(_) | Node::Absent => None,
        }
    }

    /// Diagnostic: every currently-blocked switch egress port, lazily (no
    /// intermediate `Vec`s; the paused classes are an inline bitmask).
    pub fn blocked_ports(&self) -> impl Iterator<Item = BlockedPort> + '_ {
        self.nodes
            .iter()
            .enumerate()
            .filter_map(|(i, n)| match n {
                Node::Switch(s) => Some((i, s)),
                Node::Host(_) | Node::Absent => None,
            })
            .flat_map(|(i, s)| {
                s.ports.iter().enumerate().filter_map(move |(pi, p)| {
                    p.blocked_since().map(|b| BlockedPort {
                        node: NodeId(i),
                        port: pi,
                        since: b,
                        port_paused: p.port_paused(),
                        paused_classes: ClassMask::paused_of(p),
                        queued_bytes: p.total_queued_bytes(),
                    })
                })
            })
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
            Node::Absent => panic!("{id} is owned by another partition"),
        }
    }

    fn switch_mut(&mut self, id: NodeId) -> &mut SwitchNode {
        match &mut self.nodes[id.0] {
            Node::Switch(s) => s,
            Node::Host(_) => panic!("{id} is not a switch"),
            Node::Absent => panic!("{id} is owned by another partition"),
        }
    }

    fn port_mut(&mut self, id: NodeId, port: usize) -> &mut crate::port::EgressPort {
        match &mut self.nodes[id.0] {
            Node::Switch(s) => &mut s.ports[port],
            Node::Host(h) => {
                assert_eq!(port, 0, "hosts have a single uplink");
                h.uplink_mut()
            }
            Node::Absent => panic!("{id} is owned by another partition"),
        }
    }

    // ---- transmission ------------------------------------------------------

    /// Starts a transmission on `(node, port)` if the serializer is idle
    /// and a frame is eligible.
    fn try_transmit(&mut self, node: NodeId, port: usize, sched: &mut Scheduler<'_, NetEvent>) {
        let now = sched.now();
        // One departure yields at most two flow-control actions, so they
        // ride inline in an `FcActions` — no scratch buffer needed.
        let mut fc = FcActions::none();

        let tx = {
            let is_switch = matches!(self.nodes[node.0], Node::Switch(_));
            // Pick under a scoped borrow.
            let picked = {
                let p = self.port_mut(node, port);
                if p.is_busy() {
                    None
                } else {
                    p.pick(now)
                }
            };
            let Some(mut qf) = picked else {
                return;
            };
            // Release MMU accounting (into the segment the packet was
            // admitted to) and collect PFC actions.
            if let Some(IngressTag { in_port, in_queue, region }) = qf.ingress {
                let sw = self.switch_mut(node);
                fc = sw.mmu.on_departure(in_port, in_queue, qf.frame.bytes, region, now);
                sw.occupancy.sub(now, qf.frame.bytes);
            }
            // Stamp INT telemetry (switch egress only).
            let p = self.port_mut(node, port);
            if is_switch {
                if let FrameKind::Data(d) = &mut qf.frame.kind {
                    d.hops.push(TelemetryHop {
                        qlen_bytes: p.queue_bytes(qf.frame.class),
                        tx_bytes: p.tx_bytes(),
                        timestamp: now,
                        bandwidth: p.bandwidth,
                    });
                }
            }
            let bytes = qf.frame.bytes;
            let txd = p.bandwidth.tx_delay(bytes);
            let prop = p.prop_delay;
            let peer = p.peer;
            let peer_port = p.peer_port;
            p.set_busy();
            p.note_tx(bytes);
            (qf.frame, txd, prop, peer, peer_port)
        };

        let (frame, txd, prop, peer, peer_port) = tx;
        sched.at(now + txd, NetEvent::TxDone { node: node.0 as u32, port: port as u32 });
        let arrive = NetEvent::Arrive { node: peer.0 as u32, in_port: peer_port as u32, frame };
        if self.is_local(peer) {
            sched.at(now + txd + prop, arrive);
        } else {
            // The peer belongs to another partition: hand the frame to
            // the parallel driver instead of this calendar. The wire
            // propagation delay of every cut link is at least the
            // partitioning lookahead, so the delivery time always lands
            // beyond the current window.
            self.outbox.push((now + txd + prop, arrive));
        }

        self.drain_fc(node, fc, Some(port), sched);
    }

    /// Materializes PFC frames for `actions`, enqueues them toward the
    /// offending upstreams, and kicks each port's serializer (except
    /// `skip_port`, whose transmission is already in flight).
    fn drain_fc(
        &mut self,
        node: NodeId,
        actions: FcActions,
        skip_port: Option<usize>,
        sched: &mut Scheduler<'_, NetEvent>,
    ) {
        for a in actions {
            let (p, f) = SwitchNode::fc_frame(a);
            // A pause/resume owed to a dead upstream dies with the link
            // (the failure handler already force-cleared that peer's
            // state; queueing it would replay a stale pause on repair).
            if !self.port_mut(node, p).is_link_up() {
                continue;
            }
            let frame = self.pool.get(|| f);
            self.port_mut(node, p).enqueue(QueuedFrame { frame, ingress: None });
            if Some(p) != skip_port {
                self.try_transmit(node, p, sched);
            }
        }
    }

    fn handle_tx_done(&mut self, node: NodeId, port: usize, sched: &mut Scheduler<'_, NetEvent>) {
        self.port_mut(node, port).set_idle();
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
        mut frame: Box<Frame>,
        sched: &mut Scheduler<'_, NetEvent>,
    ) {
        let now = sched.now();
        // PFC frames are link-local: they pause this node's egress side of
        // `in_port` after the standard processing delay.
        if let FrameKind::Pfc(p) = frame.kind {
            let port = self.port_mut(node, in_port);
            let bw = port.bandwidth;
            let gen = port.fault_gen();
            let delay = bw.tx_delay(PFC_PROCESSING_BYTES);
            sched.at(
                now + delay,
                NetEvent::ApplyPause {
                    node: node.0 as u32,
                    port: in_port as u32,
                    scope: p.scope,
                    pause: p.pause,
                    gen,
                },
            );
            self.pool.put(frame);
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

        let routed = {
            let sw = self.switch_mut(node);
            sw.routes.try_pick(dst.0, flow, sw.id)
        };
        let Some(out_port) = routed else {
            // Unreachable destination. Without injected faults this is a
            // topology construction bug (the historical panic); under an
            // active plan a partition legitimately black-holes traffic.
            assert!(self.fault_plan.is_some(), "no route from {node} to host {}", dst.0);
            self.link_drops += 1;
            trace_event!(self.tracer, TraceEvent::FaultDrop, {
                node: node.0 as u32,
                port: in_port as u16,
                payload: frame.bytes,
            });
            self.pool.put(frame);
            return;
        };

        let mut fc = FcActions::none();
        let admitted = {
            let sw = self.switch_mut(node);
            if frame.is_data() {
                let q = frame.class as usize;
                let outcome = sw.mmu.on_arrival(in_port, q, frame.bytes, now);
                fc = outcome.actions;
                match outcome.region {
                    Some(region) => {
                        sw.occupancy.add(now, frame.bytes);
                        Some(Some(IngressTag { in_port, in_queue: q, region }))
                    }
                    None => None,
                }
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
            self.pool.put(frame);
            self.drain_fc(node, fc, None, sched);
            return;
        };

        // ECN marking against the egress queue length (congestion point).
        if frame.is_data() && self.params.ecn.enabled {
            let qlen = self.port_mut(node, out_port).queue_bytes(frame.class);
            let mark = self.params.ecn.mark(qlen, &mut self.rng);
            if mark {
                if let FrameKind::Data(d) = &mut frame.kind {
                    d.ecn = true;
                }
            }
        }

        self.port_mut(node, out_port).enqueue(QueuedFrame { frame, ingress: tag });
        self.drain_fc(node, fc, None, sched);
        self.try_transmit(node, out_port, sched);
    }

    // ---- host dataplane -------------------------------------------------------

    fn host_arrive(
        &mut self,
        node: NodeId,
        in_port: usize,
        frame: Box<Frame>,
        sched: &mut Scheduler<'_, NetEvent>,
    ) {
        let now = sched.now();
        match &frame.kind {
            FrameKind::Pfc(p) => {
                let (scope, pause) = (p.scope, p.pause);
                let port = self.port_mut(node, in_port);
                let bw = port.bandwidth;
                let gen = port.fault_gen();
                let delay = bw.tx_delay(PFC_PROCESSING_BYTES);
                sched.at(
                    now + delay,
                    NetEvent::ApplyPause {
                        node: node.0 as u32,
                        port: in_port as u32,
                        scope,
                        pause,
                        gen,
                    },
                );
                self.pool.put(frame);
            }
            FrameKind::Data(_) => self.host_receive_data(node, frame, sched),
            FrameKind::Ack(a) => {
                let flow = a.flow;
                let recovery_on = self.params.recovery.is_some();
                let mtu = self.params.mtu;
                {
                    let host = self.host_mut(node);
                    if let Some(f) = host.sender_mut(flow) {
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
                            let info =
                                AckInfo { acked_bytes: delta, ecn_echo: a.ecn_echo, hops: &a.hops };
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
                self.pool.put(frame);
                self.arm_cc_timer(node, flow, sched);
                // Window space may have opened.
                self.host_try_send(node, sched);
            }
            FrameKind::Nack(n) => {
                let (flow, expected, bitmap, ecn_echo) = (n.flow, n.expected, n.bitmap, n.ecn_echo);
                let mtu = self.params.mtu;
                let hops = HopList::new();
                let mut episode = false;
                {
                    let host = self.host_mut(node);
                    let mut reactivate = false;
                    if let Some(f) = host.sender_mut(flow) {
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
                            let info = AckInfo { acked_bytes: delta, ecn_echo, hops: &hops };
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
                    if reactivate {
                        if let Some(slot) = host.sender_slot(flow) {
                            if !host.active.contains(&slot) {
                                host.active.push(slot);
                            }
                        }
                    }
                }
                if episode {
                    self.recovery_nacks += 1;
                }
                self.pool.put(frame);
                self.arm_cc_timer(node, flow, sched);
                self.host_try_send(node, sched);
            }
            FrameKind::Cnp { flow, .. } => {
                let flow = *flow;
                {
                    let host = self.host_mut(node);
                    if let Some(f) = host.sender_mut(flow) {
                        f.cc.on_cnp(now);
                    }
                }
                self.pool.put(frame);
                self.arm_cc_timer(node, flow, sched);
            }
        }
    }

    fn host_receive_data(
        &mut self,
        node: NodeId,
        mut frame: Box<Frame>,
        sched: &mut Scheduler<'_, NetEvent>,
    ) {
        let FrameKind::Data(d) = &frame.kind else {
            unreachable!("host_receive_data requires a data frame")
        };
        let (flow, src, seq, payload, ecn, hops) = (d.flow, d.src, d.seq, d.payload, d.ecn, d.hops);
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
        // selective repeat) + CNP (DCQCN NP policy). The data frame's box
        // is rewritten in place — the telemetry echo is an inline copy,
        // not a heap clone.
        if nack {
            *frame = Frame::nack(NackFrame {
                flow,
                dst: src,
                expected: cum_acked,
                bitmap,
                ecn_echo: ecn,
            });
            self.nacks_sent += 1;
            trace_event!(self.tracer, TraceEvent::RecoveryNack, {
                flow: flow.0 as u32,
                node: node.0 as u32,
                payload: cum_acked,
            });
        } else {
            *frame = Frame::ack(AckFrame { flow, dst: src, acked: cum_acked, ecn_echo: ecn, hops });
        }
        self.host_mut(node).uplink_mut().enqueue(QueuedFrame { frame, ingress: None });
        if send_cnp {
            let cnp = self.pool.get(|| Frame::cnp(flow, src));
            self.host_mut(node).uplink_mut().enqueue(QueuedFrame { frame: cnp, ingress: None });
        }
        self.try_transmit(node, 0, sched);
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
            (host.uplink().bandwidth, self.params.base_rtt)
        };
        let cc = new_cc(spec.cc, bw, base_rtt);
        let rcfg = self.params.recovery.unwrap_or_else(|| RecoveryConfig::for_rtt(base_rtt));
        let host = self.host_mut(spec.src);
        host.add_sender(SenderFlow {
            id: flow,
            dst: spec.dst,
            class: spec.class,
            size: spec.size,
            sent: 0,
            acked: 0,
            next_send: spec.start,
            cc,
            timer_gen: 0,
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
            // A dead uplink accepts no new frames: flows wait for the
            // `LinkUp` kick (or their RTO) instead of filling the NIC
            // queue with traffic that would replay stale on repair.
            if !host.uplink().is_link_up() {
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
                hops: HopList::new(),
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
            let frame = self.pool.get(|| Frame::data(df, class));
            self.host_mut(node).uplink_mut().enqueue(QueuedFrame { frame, ingress: None });
            self.arm_cc_timer(node, flow_id, sched);
        }
        self.try_transmit(node, 0, sched);

        // Pacing wake-up for flows waiting only on their send clock — but
        // only from an idle serializer: while the uplink is busy, its
        // TxDone re-enters this function and re-evaluates the clock, so a
        // wake-up event here would just be calendar churn.
        let host = self.host_mut(node);
        if host.port.as_ref().is_some_and(|p| p.is_busy() || !p.is_link_up()) {
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

    /// (Re)arms the CC timer event for a flow if its deadline moved.
    fn arm_cc_timer(&mut self, node: NodeId, flow: FlowId, sched: &mut Scheduler<'_, NetEvent>) {
        let now = sched.now();
        let host = self.host_mut(node);
        let Some(f) = host.sender_mut(flow) else { return };
        if f.acked >= f.size {
            // Completed flows need no more transport timers.
            f.timer_gen += 1;
            return;
        }
        if let Some(t) = f.cc.next_timer() {
            f.timer_gen += 1;
            let gen = f.timer_gen;
            sched.at(
                t.max(now),
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
        {
            let host = self.host_mut(node);
            let Some(f) = host.sender_mut(flow) else { return };
            if f.timer_gen != gen {
                return; // stale
            }
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
            let host = self.host_mut(node);
            let Some(f) = host.sender_mut(flow) else { return };
            if f.rto_gen != gen || !f.rto_armed {
                Outcome::Done // stale generation
            } else if f.acked >= f.size || f.recovery.failed() {
                f.rto_armed = false;
                Outcome::Done
            } else if f.in_flight() == 0 {
                // Nothing outstanding (e.g. rewound while the uplink was
                // down): disarm; the next send re-arms.
                f.rto_armed = false;
                Outcome::Done
            } else if now < f.rto_deadline {
                Outcome::Reschedule(f.rto_deadline)
            } else {
                match f.recovery.on_timeout() {
                    RtoOutcome::Failed => {
                        f.rto_armed = false;
                        f.timer_gen += 1; // park CC timers too
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
        let host = self.host_mut(node);
        if let Some(slot) = host.sender_slot(flow) {
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
            let host = self.host_mut(node);
            let slot = host.sender_slot(flow).expect("RTO for unregistered flow");
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
            let host = self.host_mut(node);
            let slot = host.sender_slot(flow).expect("RTO for unregistered flow");
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

    // ---- fault injection --------------------------------------------------

    /// Resolves the port index on `node` facing `peer`.
    ///
    /// # Panics
    ///
    /// Panics if no such link exists (fault plans are validated at install
    /// time, so this only fires on internal inconsistencies).
    fn find_port(&self, node: NodeId, peer: NodeId) -> usize {
        let ports: &[EgressPort] = match &self.nodes[node.0] {
            Node::Switch(s) => &s.ports,
            Node::Host(h) => h.port.as_slice(),
            Node::Absent => &[],
        };
        ports
            .iter()
            .position(|p| p.peer == peer)
            .unwrap_or_else(|| panic!("no link between {node} and {peer}"))
    }

    /// Whether a frame completing its arrival is lost to a fault: the
    /// ingress link died while it was in flight (the calendar cannot
    /// retract `Arrive` events, so the cut happens at delivery), or a
    /// corruption draw eats it. Only data frames are ever corrupted —
    /// PFC is link-local control whose loss the protocol cannot recover
    /// from (see the `fault` module docs).
    fn arrival_lost(&mut self, node: NodeId, in_port: usize, frame: &Frame) -> bool {
        if self.fault_plan.is_none() {
            return false;
        }
        if !self.port_mut(node, in_port).is_link_up() {
            trace_event!(self.tracer, TraceEvent::FaultDrop, {
                node: node.0 as u32,
                port: in_port as u16,
                payload: frame.bytes,
            });
            return true;
        }
        if frame.is_data() && !self.corrupt.is_empty() {
            let key = (node.0 as u32, in_port as u32);
            if let Some(c) = self.corrupt.iter_mut().find(|c| (c.node, c.in_port) == key) {
                if c.rng.gen_bool(c.probability) {
                    trace_event!(self.tracer, TraceEvent::FrameCorrupt, {
                        node: node.0 as u32,
                        port: in_port as u16,
                        payload: frame.bytes,
                    });
                    return true;
                }
            }
        }
        false
    }

    fn handle_fault(&mut self, index: usize, sched: &mut Scheduler<'_, NetEvent>) {
        let ev = self.fault_plan.as_ref().expect("Fault event without a plan").events()[index];
        match ev.kind {
            FaultKind::LinkDown { a, b } => self.link_down(a, b, sched),
            FaultKind::LinkUp { a, b } => self.link_up(a, b, sched),
        }
    }

    fn link_down(&mut self, a: NodeId, b: NodeId, sched: &mut Scheduler<'_, NetEvent>) {
        let now = sched.now();
        trace_event!(self.tracer, TraceEvent::LinkDown, {
            node: a.0 as u32,
            payload: b.0 as u64,
        });
        let pa = self.find_port(a, b);
        let pb = self.find_port(b, a);
        for (node, port) in [(a, pa), (b, pb)] {
            self.kill_port(node, port, now, sched);
        }
        self.recompute_routes();
    }

    /// One endpoint's share of a link failure: force-clear the MMU pause
    /// ledger for the dead ingress, drain the egress queues, release MMU
    /// accounting for every drained frame, and forward any resumes that
    /// releases toward still-alive upstreams.
    fn kill_port(
        &mut self,
        node: NodeId,
        port: usize,
        now: Time,
        sched: &mut Scheduler<'_, NetEvent>,
    ) {
        // Pause state first: the upstream that asserted it is gone, and
        // the drain's departures must already find the port unpaused so
        // no resume is emitted toward the dead peer.
        if let Node::Switch(s) = &mut self.nodes[node.0] {
            let cleared = s.mmu.release_port_pauses(port);
            if cleared > 0 {
                trace_event!(self.tracer, TraceEvent::PauseRelease, {
                    node: node.0 as u32,
                    port: port as u16,
                    payload: cleared as u64,
                });
            }
        }
        // The failure wipes the port's pause clocks, so any open cascade
        // edges rooted here end now (both endpoints get a kill call, each
        // in its owning partition).
        if let Some(obs) = self.observe.as_deref_mut() {
            obs.cascade.force_close_port(node, port, now);
        }
        // Cold path: faults are rare, so a fresh drain buffer per event is
        // fine (the packet hot path stays allocation-free).
        let mut drained = Vec::new();
        self.port_mut(node, port).fail(now, &mut drained);
        self.link_drops += drained.len() as u64;
        if !drained.is_empty() {
            trace_event!(self.tracer, TraceEvent::LinkDrain, {
                node: node.0 as u32,
                port: port as u16,
                payload: drained.len() as u64,
            });
        }
        let mut fc: Vec<FcAction> = Vec::new();
        for qf in drained {
            if let Some(IngressTag { in_port, in_queue, region }) = qf.ingress {
                let Node::Switch(s) = &mut self.nodes[node.0] else { unreachable!() };
                let actions = s.mmu.on_departure(in_port, in_queue, qf.frame.bytes, region, now);
                s.occupancy.sub(now, qf.frame.bytes);
                fc.extend(actions);
            }
            self.pool.put(qf.frame);
        }
        for a in fc {
            let (p, f) = SwitchNode::fc_frame(a);
            if !self.port_mut(node, p).is_link_up() {
                continue; // a resume owed to a dead upstream dies with it
            }
            let frame = self.pool.get(|| f);
            self.port_mut(node, p).enqueue(QueuedFrame { frame, ingress: None });
            self.try_transmit(node, p, sched);
        }
    }

    fn link_up(&mut self, a: NodeId, b: NodeId, sched: &mut Scheduler<'_, NetEvent>) {
        trace_event!(self.tracer, TraceEvent::LinkUp, {
            node: a.0 as u32,
            payload: b.0 as u64,
        });
        let pa = self.find_port(a, b);
        let pb = self.find_port(b, a);
        self.port_mut(a, pa).restore();
        self.port_mut(b, pb).restore();
        self.recompute_routes();
        // Kick both ends: hosts may have flows parked on the dead uplink,
        // switches may have frames enqueued while the port was down.
        for (node, port) in [(a, pa), (b, pb)] {
            if matches!(self.nodes[node.0], Node::Host(_)) {
                self.host_try_send(node, sched);
            } else {
                self.try_transmit(node, port, sched);
            }
        }
    }

    /// Rebuilds every switch's ECMP table from the live (link-up)
    /// adjacency — the same rule the builder uses at construction time.
    fn recompute_routes(&mut self) {
        let n = self.nodes.len();
        let mut is_switch = vec![false; n];
        let mut adj: Vec<Vec<(usize, usize)>> = vec![Vec::new(); n];
        for (i, node) in self.nodes.iter().enumerate() {
            let ports: &[EgressPort] = match node {
                Node::Switch(s) => {
                    is_switch[i] = true;
                    &s.ports
                }
                Node::Host(h) => h.port.as_slice(),
                Node::Absent => &[],
            };
            for (pi, p) in ports.iter().enumerate() {
                if p.is_link_up() {
                    adj[i].push((p.peer.0, pi));
                }
            }
        }
        let tables = crate::routing::compute_route_tables(&is_switch, &adj);
        // Fault detours can lengthen routes past the build-time diameter;
        // re-validate the stamp budget on every recompute so an overlong
        // detour fails at reroute time, not mid-flight in HopList::push.
        let diameter = crate::routing::max_route_hops(&is_switch, &adj);
        assert!(
            diameter <= dsh_transport::HOP_CAPACITY,
            "post-fault reroute produced a {diameter}-switch path but frames \
             carry only HOP_CAPACITY ({}) inline telemetry stamps",
            dsh_transport::HOP_CAPACITY
        );
        for (node, table) in self.nodes.iter_mut().zip(tables) {
            if let Node::Switch(s) = node {
                s.routes = table;
            }
        }
    }

    fn handle_apply_pause(
        &mut self,
        node: NodeId,
        port: usize,
        scope: PfcScope,
        pause: bool,
        gen: u32,
        sched: &mut Scheduler<'_, NetEvent>,
    ) {
        let now = sched.now();
        let (peer, peer_port) = {
            let p = self.port_mut(node, port);
            if p.fault_gen() != gen {
                // The link died while this PFC frame's processing delay
                // elapsed: its pause state was force-cleared and (for a
                // PAUSE) the matching RESUME is gone. Ignore it.
                return;
            }
            match scope {
                PfcScope::Queue(c) => p.apply_class_pause(c, pause, now),
                PfcScope::Port => p.apply_port_pause(pause, now),
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
                Node::Host(_) | Node::Absent => 0,
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
                    // Flush into the reused scratch buffers (their
                    // capacity persists across samples — no fresh `Vec`
                    // per flush).
                    let mut flushed = std::mem::take(&mut self.wd_flushed);
                    let mut fc = std::mem::take(&mut self.wd_fc);
                    flushed.clear();
                    fc.clear();
                    {
                        let Node::Switch(s) = &mut self.nodes[ni] else { unreachable!() };
                        s.ports[pi].watchdog_flush_class(class, now, &mut flushed);
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
                    for qf in flushed.drain(..) {
                        if let Some(IngressTag { in_port, in_queue, region }) = qf.ingress {
                            let Node::Switch(s) = &mut self.nodes[ni] else { unreachable!() };
                            let actions =
                                s.mmu.on_departure(in_port, in_queue, qf.frame.bytes, region, now);
                            s.occupancy.sub(now, qf.frame.bytes);
                            fc.extend(actions);
                        }
                        self.pool.put(qf.frame);
                    }
                    for a in fc.drain(..) {
                        let (p, f) = SwitchNode::fc_frame(a);
                        let frame = self.pool.get(|| f);
                        self.port_mut(NodeId(ni), p).enqueue(QueuedFrame { frame, ingress: None });
                        self.try_transmit(NodeId(ni), p, sched);
                    }
                    self.wd_flushed = flushed;
                    self.wd_fc = fc;
                    // The unpaused port may transmit again.
                    self.try_transmit(NodeId(ni), pi, sched);
                }
            }
        }
    }

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

        // Occupancy counter tracks (one snapshot per switch per tick;
        // the outer mask test keeps the snapshot loop off the untraced
        // path entirely).
        if self.tracer.wants(TraceMask::MMU) {
            for (i, n) in self.nodes.iter().enumerate() {
                if let Node::Switch(s) = n {
                    let snap = s.mmu.occupancy_snapshot();
                    trace_event!(self.tracer, TraceEvent::OccShared, {
                        node: i as u32,
                        payload: snap.shared,
                    });
                    trace_event!(self.tracer, TraceEvent::OccHeadroom, {
                        node: i as u32,
                        payload: snap.headroom + snap.insurance,
                    });
                    trace_event!(self.tracer, TraceEvent::OccThreshold, {
                        node: i as u32,
                        payload: snap.threshold,
                    });
                }
            }
        }

        // Deadlock detection: a switch egress port continuously unable to
        // serve queued data for longer than the threshold. Recomputed on
        // every sample — transient congestion that eventually resolves
        // clears the report, so at the end of a run `onset` is set only if
        // the network is *still* wedged (a true deadlock never unblocks).
        let thresh = self.params.deadlock_threshold;
        let mut onset: Option<Time> = None;
        let mut onset_node = u32::MAX;
        for (i, n) in self.nodes.iter().enumerate() {
            if let Node::Switch(s) = n {
                for p in &s.ports {
                    if let Some(b) = p.blocked_since() {
                        if now.saturating_since(b) >= thresh && onset.is_none_or(|o| b < o) {
                            onset = Some(b);
                            onset_node = i as u32;
                        }
                    }
                }
            }
        }
        if let Some(b) = onset {
            if self.deadlock.onset.is_none() {
                trace_event!(self.tracer, TraceEvent::DeadlockOnset, {
                    node: onset_node,
                    payload: b.as_ps(),
                });
            }
        }
        self.deadlock.onset = onset;
        sched.at(now + dt, NetEvent::Sample);
    }

    /// Handles a [`NetEvent::MetricsTick`]: commits the previous pending
    /// sample (captured by [`Self::capture_metrics`] at the first event
    /// after its instant), arms the sample labeled `now`, and re-arms the
    /// tick. Only ever scheduled when `NetParams::observe` is set.
    ///
    /// Ticks never capture directly: a sample's state must reflect the
    /// *complete* set of events at instants `<= t`, and where the tick
    /// lands inside the same-instant batch at `t` is an engine artifact
    /// (the serial calendar and the link-partitioned driver order
    /// same-instant ties differently).  Deferring the capture to the
    /// first strictly-later event closes the instant first, which makes
    /// the committed series byte-identical at any worker count.
    fn handle_metrics_tick(&mut self, sched: &mut Scheduler<'_, NetEvent>) {
        let now = sched.now();
        // This tick is itself an event strictly after the previous pending
        // instant, so the dispatch-entry check has already captured it.
        if let Some(obs) = self.observe.as_deref_mut() {
            let dt = obs.metrics.interval();
            debug_assert!(
                obs.metrics.has_staged() || self.metrics_capture_at == Time::MAX,
                "tick at {now:?} found an armed but uncaptured sample"
            );
            obs.metrics.commit_staged();
            self.metrics_capture_at = now;
            sched.at(now + dt, NetEvent::MetricsTick);
        }
    }

    /// Captures the pending sample armed at `metrics_capture_at`:
    /// snapshots every locally-owned switch's MMU occupancy and the
    /// partition-global gauges into the observatory's staging slots (the
    /// next tick commits them to the pre-allocated rings).  Called from
    /// dispatch entry at the first event strictly after the sample
    /// instant, *before* that event mutates any state.
    #[cold]
    fn capture_metrics(&mut self) {
        let t = self.metrics_capture_at;
        self.metrics_capture_at = Time::MAX;
        // Detach the observatory for the duration of the capture so the
        // node/port scans below can borrow `self` freely.
        let Some(mut obs) = self.observe.take() else { return };
        for (i, n) in self.nodes.iter().enumerate() {
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
                obs.metrics.stage_switch(
                    NodeId(i),
                    SwitchSample {
                        t,
                        shared: snap.shared,
                        headroom: snap.headroom + snap.insurance,
                        paused_queues: snap.paused_queues as u32,
                        paused_ports: snap.paused_ports as u32,
                    },
                );
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

/// One blocked switch egress port (see [`Network::blocked_ports`]).
#[derive(Clone, Copy, Debug)]
pub struct BlockedPort {
    /// The switch.
    pub node: NodeId,
    /// Egress port index.
    pub port: usize,
    /// Instant since which the port has continuously been unable to serve
    /// queued data.
    pub since: Time,
    /// Whether a port-level (DSH) pause is asserted.
    pub port_paused: bool,
    /// Which data classes are queue-level paused.
    pub paused_classes: ClassMask,
    /// Bytes waiting across all its queues.
    pub queued_bytes: u64,
}

/// An inline bitmask over the data classes (replaces the former
/// `Vec<u8>` of paused class indices — no allocation per query).
#[derive(Clone, Copy, PartialEq, Eq, Default)]
pub struct ClassMask(u8);

impl ClassMask {
    fn paused_of(p: &EgressPort) -> Self {
        let mut mask = 0u8;
        for c in 0..NUM_DATA_CLASSES as u8 {
            if p.class_paused(c) {
                mask |= 1 << c;
            }
        }
        ClassMask(mask)
    }

    /// Whether `class` is in the set.
    #[must_use]
    pub fn contains(self, class: u8) -> bool {
        (class as usize) < NUM_DATA_CLASSES && self.0 & (1 << class) != 0
    }

    /// Whether the set is empty.
    #[must_use]
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// The classes in the set, ascending.
    pub fn iter(self) -> impl Iterator<Item = u8> {
        (0..NUM_DATA_CLASSES as u8).filter(move |&c| self.0 & (1 << c) != 0)
    }
}

impl std::fmt::Debug for ClassMask {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

// Hot-path size contracts: calendar entries and queue slots are memcpy'd
// constantly, so the large frame payload must stay behind a pointer.
dsh_simcore::const_assert_size!(NetEvent, 24);
dsh_simcore::const_assert_size!(QueuedFrame, 40);
// The boxed frame itself carries the inline HopList (HOP_CAPACITY × 32-byte
// TelemetryHop stamps); keep it cache-friendly. Raising HOP_CAPACITY moves
// this — recertify deliberately, don't just bump the number.
dsh_simcore::const_assert_size!(Frame, 352);

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
        // this one compare-branch. (The chased same-instant `TxDone`
        // below bypasses this entry, which is safe: it shares the instant
        // of the `Arrive` that already ran the check.)
        if sched.now() > self.metrics_capture_at {
            self.capture_metrics();
        }
        // Events carry compact u32 indices (see `NetEvent`); widen them
        // back into the typed ids the rest of the model uses.
        match event {
            NetEvent::Arrive { node, in_port, frame } => {
                let node = NodeId(node as usize);
                let in_port = in_port as usize;
                // In-flight frames cannot be retracted from the calendar,
                // so link cuts (and corruption draws) take effect here, at
                // delivery time.
                if self.arrival_lost(node, in_port, &frame) {
                    self.link_drops += 1;
                    self.pool.put(frame);
                    return;
                }
                if matches!(self.nodes[node.0], Node::Switch(_)) {
                    self.switch_arrive(node, in_port, frame, sched);
                } else {
                    self.host_arrive(node, in_port, frame, sched);
                }
                // The profiled hot pair: in a saturated store-and-forward
                // pipeline the next frame lands exactly as the previous
                // one finishes serializing, so an `Arrive` is chased by a
                // same-instant `TxDone` on the same node. When that
                // `TxDone` is genuinely next in the calendar, dispatch it
                // inline and save a pop/dispatch round trip — it was next
                // anyway, so the event order (and every golden) is
                // unchanged.
                let chased = sched.take_next_if(
                    |e| matches!(e, NetEvent::TxDone { node: n, .. } if *n as usize == node.0),
                );
                if let Some(e) = chased {
                    let NetEvent::TxDone { node, port } = e else {
                        unreachable!("predicate admits only TxDone")
                    };
                    self.handle_tx_done(NodeId(node as usize), port as usize, sched);
                }
            }
            NetEvent::TxDone { node, port } => {
                self.handle_tx_done(NodeId(node as usize), port as usize, sched);
            }
            NetEvent::ApplyPause { node, port, scope, pause, gen } => {
                self.handle_apply_pause(
                    NodeId(node as usize),
                    port as usize,
                    scope,
                    pause,
                    gen,
                    sched,
                );
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
            NetEvent::Fault { index } => self.handle_fault(index as usize, sched),
            NetEvent::Sample => self.handle_sample(sched),
            NetEvent::MetricsTick => self.handle_metrics_tick(sched),
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
        "fault",
        "sample",
        "metrics_tick",
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
            NetEvent::Fault { .. } => 7,
            NetEvent::Sample => 8,
            NetEvent::MetricsTick => 9,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::NetworkBuilder;
    use dsh_core::Scheme;
    use dsh_simcore::{Bandwidth, Delta};

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
        assert!(!sw.occupancy.is_empty(), "occupancy series must be sampled");
        assert!(sw.occupancy.iter().any(|p| p.bytes > 0));
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

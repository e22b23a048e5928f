//! Network construction: parameters, nodes, links and routing setup.

use crate::dataplane::SwitchNode;
use crate::ecn::EcnConfig;
use crate::host::HostNode;
use crate::ids::{NodeId, NUM_DATA_CLASSES};
use crate::network::{Network, Node};
use crate::observe::ObserveConfig;
use crate::port::EgressPort;
use crate::routing::compute_routes;
use dsh_core::{headroom, Mmu, MmuConfig, Scheme};
use dsh_simcore::trace::{TraceKey, Tracer};
use dsh_simcore::{Bandwidth, ByteSize, Delta};
use dsh_transport::RecoveryConfig;

/// The engine's fidelity: always packet level. Exists only so the frozen
/// `simbench` benchmark, which still passes a mode to
/// [`NetParams::with_fidelity`], compiles; drop it with that call.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum FidelityMode {
    /// Packet-level simulation, the only engine.
    #[default]
    Packet,
}

/// Global simulation parameters.
#[derive(Clone, Debug)]
pub struct NetParams {
    /// Headroom scheme of every switch.
    pub scheme: Scheme,
    /// Lossless-pool buffer per switch.
    pub total_buffer: ByteSize,
    /// DT parameter `α`.
    pub alpha: f64,
    /// Private buffer per queue (`φ`).
    pub private_per_queue: ByteSize,
    /// Explicit `η` (otherwise derived per port from its link via the
    /// configured [`HeadroomSource`]).
    pub eta_override: Option<ByteSize>,
    /// Formula used to derive per-port `η` from link parameters when no
    /// [`NetParams::eta_override`] is set.
    pub headroom_source: HeadroomSource,
    /// MTU (payload bytes per data frame).
    pub mtu: u64,
    /// ECN marking profile.
    pub ecn: EcnConfig,
    /// Base RTT used to size PowerTCP windows.
    pub base_rtt: Delta,
    /// Interval of the one periodic measurement tick: goodput monitors,
    /// the PFC watchdog and (with [`NetParams::observe`]) the metrics
    /// sampler. Must be positive.
    pub sample_interval: Delta,
    /// PFC watchdog: if `Some(d)`, a class paused continuously for `d`
    /// is forcibly resumed and its queued frames are dropped (the
    /// industry's deadlock-mitigation feature; breaks losslessness by
    /// design). `None` disables the watchdog (the paper's setting).
    pub pfc_watchdog: Option<Delta>,
    /// Go-back-N loss recovery at the NICs: `Some(cfg)` arms a per-flow
    /// retransmission timer. `None` (the default) keeps the historical
    /// lossless-fabric behaviour — no RTO events exist at all, so existing
    /// experiments are bit-identical.
    pub recovery: Option<RecoveryConfig>,
    /// Pause-causality observatory: `Some(cfg)` records who-paused-whom
    /// cascade edges and samples per-switch occupancy every
    /// [`NetParams::sample_interval`]. `None` (the default) keeps every
    /// existing run byte-identical and costs one branch on the pause path.
    pub observe: Option<ObserveConfig>,
    /// RNG seed (ECN randomness).
    pub seed: u64,
}

impl NetParams {
    /// The paper's evaluation defaults: Tomahawk buffer (16 MB), `α = 1/16`,
    /// 3 KB private buffer, MTU 1500, DCQCN ECN profile, 16 µs base RTT.
    #[must_use]
    pub fn tomahawk(scheme: Scheme) -> Self {
        NetParams {
            scheme,
            total_buffer: ByteSize::mib(16),
            alpha: 1.0 / 16.0,
            private_per_queue: ByteSize::kib(3),
            eta_override: None,
            headroom_source: HeadroomSource::PaperEq1,
            mtu: 1500,
            ecn: EcnConfig::for_100g(),
            base_rtt: Delta::from_us(16),
            sample_interval: Delta::from_us(10),
            pfc_watchdog: None,
            recovery: None,
            observe: None,
            seed: 1,
        }
    }
}

/// How a switch derives per-port headroom `η` from link parameters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HeadroomSource {
    /// The paper's Eq. 1: `η = 2(C·D_prop + MTU) + 3840 B`, where the
    /// trailing constant folds the PFC frame time and the peer's response
    /// delay at 100 Gb/s.
    PaperEq1,
    /// SONiC's BufferManager formula (`speed × cable length × MTU × peer
    /// response time`): `η = 2·C·D_cable + 2·MTU + C·t_peer`, with the
    /// peer response time an explicit operator knob instead of Eq. 1's
    /// baked-in 3840 B. The two agree exactly when `C·t_peer = 3840 B`
    /// (307.2 ns at 100 Gb/s) — `theory_validation` pins that equality.
    Sonic {
        /// Peer response time `t_peer` (how long the neighbour keeps
        /// transmitting after the PAUSE frame arrives).
        peer_response: Delta,
    },
}

impl HeadroomSource {
    /// The headroom for one port's link.
    #[must_use]
    pub fn eta(self, capacity: Bandwidth, prop_delay: Delta, mtu_bytes: u64) -> ByteSize {
        match self {
            HeadroomSource::PaperEq1 => headroom::eta(capacity, prop_delay, mtu_bytes),
            HeadroomSource::Sonic { peer_response } => {
                headroom::sonic_headroom(capacity, prop_delay, mtu_bytes, peer_response)
            }
        }
    }
}

#[derive(Debug)]
enum ProtoNode {
    Host,
    Switch,
}

/// Incremental builder for a [`Network`].
///
/// Add nodes, connect them with full-duplex links, then [`build`]
/// (routing tables and per-switch MMUs are derived automatically).
///
/// [`build`]: NetworkBuilder::build
#[derive(Debug)]
pub struct NetworkBuilder {
    params: NetParams,
    nodes: Vec<ProtoNode>,
    links: Vec<(NodeId, NodeId, Bandwidth, Delta)>,
}

impl NetworkBuilder {
    /// Starts a new topology with the given parameters.
    #[must_use]
    pub fn new(params: NetParams) -> Self {
        NetworkBuilder { params, nodes: Vec::new(), links: Vec::new() }
    }

    /// Adds a host; returns its id.
    pub fn host(&mut self) -> NodeId {
        self.nodes.push(ProtoNode::Host);
        NodeId(self.nodes.len() - 1)
    }

    /// Adds a switch; returns its id.
    pub fn switch(&mut self) -> NodeId {
        self.nodes.push(ProtoNode::Switch);
        NodeId(self.nodes.len() - 1)
    }

    /// Connects `a` and `b` with a full-duplex link.
    pub fn link(&mut self, a: NodeId, b: NodeId, bandwidth: Bandwidth, delay: Delta) {
        assert_ne!(a, b, "self-links are not allowed");
        self.links.push((a, b, bandwidth, delay));
    }

    /// Removes the link between `a` and `b` (link-failure experiments).
    ///
    /// # Panics
    ///
    /// Panics if no such link exists.
    pub fn remove_link(&mut self, a: NodeId, b: NodeId) {
        let before = self.links.len();
        self.links.retain(|&(x, y, _, _)| !((x == a && y == b) || (x == b && y == a)));
        assert!(self.links.len() < before, "no link between {a} and {b}");
    }

    /// Finalizes the topology: creates ports, per-switch MMUs and ECMP
    /// routing tables.
    ///
    /// # Panics
    ///
    /// Panics on malformed topologies (multi-homed hosts, unreachable
    /// destinations are tolerated until routed to).
    #[must_use]
    pub fn build(self) -> Network {
        // Fail fast on incoherent parameter combinations (CLI layers
        // surface the same message as a usage error before getting here).
        if let Err(e) = self.params.validate() {
            panic!("invalid network parameters: {e}");
        }
        // One tracer (and one flight-recorder ring) per network, shared
        // with every switch MMU. The key makes multi-threaded capture
        // sessions sort deterministically: the seed separates sweep
        // points, the scheme tag separates the SIH/DSH pair of a point.
        let tracer = Tracer::for_simulation(self.params.trace_key());
        let n = self.nodes.len();
        // Ports per node, in link insertion order; each port's network-wide
        // index is its creation order.
        let mut ports: Vec<Vec<EgressPort>> = (0..n).map(|_| Vec::new()).collect();
        // adjacency over all nodes: (neighbor, local port index)
        let mut adj: Vec<Vec<(usize, usize)>> = vec![Vec::new(); n];
        for (i, &(a, b, bw, d)) in self.links.iter().enumerate() {
            let pa = ports[a.0].len();
            let pb = ports[b.0].len();
            let index = u32::try_from(2 * i).expect("too many links");
            ports[a.0].push(EgressPort::new(index, b, pb, bw, d));
            ports[b.0].push(EgressPort::new(index + 1, a, pa, bw, d));
            adj[a.0].push((b.0, pa));
            adj[b.0].push((a.0, pb));
        }
        // Queued frames tag their switch ingress port as a `u16`.
        if let Some((i, p)) = ports.iter().enumerate().find(|(_, p)| p.len() > 1 << 16) {
            panic!("node n{i} has {} ports; a switch indexes at most 65536", p.len());
        }

        // Validate host attachment.
        let is_switch: Vec<bool> =
            self.nodes.iter().map(|p| matches!(p, ProtoNode::Switch)).collect();
        for u in 0..n {
            if !is_switch[u] {
                assert!(adj[u].len() <= 1, "host n{u} must be single-homed");
                if let Some(&(v, _)) = adj[u].first() {
                    assert!(is_switch[v], "host n{u} must attach to a switch");
                }
            }
        }

        // Routing: BFS from each ToR over the switch graph; each switch
        // forwards toward a host to any neighbour strictly closer to the
        // host's ToR (ECMP).
        let routes = compute_routes(&is_switch, &adj);
        // A hop-slab slot budgets every INT frame's stamp count: a
        // topology deeper than HOP_CAPACITY must fail here, not panic
        // mid-simulation in HopList::push.
        let diameter = routes.max_hops;
        assert!(
            diameter <= dsh_transport::HOP_CAPACITY,
            "longest route crosses {diameter} switches but a hop-slab slot holds \
             only HOP_CAPACITY ({}) telemetry stamps; raise \
             dsh_transport::HOP_CAPACITY for this topology (each slot of the \
             frame arena's hop slab grows with it)",
            dsh_transport::HOP_CAPACITY
        );

        // Materialize nodes.
        let mut nodes = Vec::with_capacity(n);
        let mut tables = routes.tables.into_iter();
        for (i, (proto, nports)) in self.nodes.iter().zip(ports).enumerate() {
            match proto {
                ProtoNode::Host => {
                    let mut h = HostNode::new(NodeId(i));
                    let mut it = nports.into_iter();
                    h.port = it.next();
                    assert!(it.next().is_none(), "host n{i} must have one uplink");
                    nodes.push(Node::Host(h));
                }
                ProtoNode::Switch => {
                    let num_ports = nports.len().max(1);
                    // Per-port headroom, sized from each port's own link
                    // (Eq. 1) — this is how real deployments configure
                    // mixed-speed fabrics.
                    let port_etas: Vec<_> = nports
                        .iter()
                        .map(|p| {
                            self.params.eta_override.unwrap_or_else(|| {
                                self.params.headroom_source.eta(
                                    p.bandwidth(),
                                    p.prop_delay,
                                    self.params.mtu,
                                )
                            })
                        })
                        .collect();
                    let default_eta = port_etas.iter().copied().max().unwrap_or_else(|| {
                        self.params.headroom_source.eta(
                            Bandwidth::from_gbps(100),
                            Delta::from_us(2),
                            self.params.mtu,
                        )
                    });
                    let mut builder = MmuConfig::builder();
                    builder
                        .scheme(self.params.scheme)
                        .total_buffer(self.params.total_buffer)
                        .ports(num_ports)
                        .lossless_queues(NUM_DATA_CLASSES)
                        .private_per_queue(self.params.private_per_queue)
                        .eta(default_eta)
                        .alpha(self.params.alpha);
                    if !port_etas.is_empty() {
                        builder.port_etas(port_etas);
                    }
                    let cfg: MmuConfig = builder.build();
                    let mut mmu = Mmu::new(cfg);
                    mmu.set_tracer(tracer.clone(), i as u32);
                    nodes.push(Node::Switch(SwitchNode {
                        id: NodeId(i),
                        ports: nports,
                        mmu,
                        routes: tables.next().expect("one table per switch"),
                    }));
                }
            }
        }

        Network::from_parts(self.params, nodes, tracer)
    }
}

/// Which scheme a [`NetParams`] is configured with (convenience for
/// experiment harnesses).
impl NetParams {
    /// Returns a copy with a different scheme.
    #[must_use]
    pub fn with_scheme(mut self, scheme: Scheme) -> Self {
        self.scheme = scheme;
        self
    }

    /// Returns a copy with a different seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Returns a copy with a different lossless-pool buffer size.
    #[must_use]
    pub fn with_buffer(mut self, buffer: ByteSize) -> Self {
        self.total_buffer = buffer;
        self
    }

    /// Returns a copy with ECN marking disabled (uncontrolled
    /// microbenchmarks).
    #[must_use]
    pub fn without_ecn(mut self) -> Self {
        self.ecn = EcnConfig::disabled();
        self
    }

    /// Returns a copy with the PFC watchdog armed at the given timeout.
    #[must_use]
    pub fn with_pfc_watchdog(mut self, timeout: Delta) -> Self {
        self.pfc_watchdog = Some(timeout);
        self
    }

    /// Returns a copy with go-back-N loss recovery enabled at the NICs.
    #[must_use]
    pub fn with_recovery(mut self, cfg: RecoveryConfig) -> Self {
        self.recovery = Some(cfg);
        self
    }

    /// Returns a copy with go-back-N recovery enabled at the default
    /// configuration for this network's base RTT.
    #[must_use]
    pub fn with_default_recovery(self) -> Self {
        let cfg = RecoveryConfig::for_rtt(self.base_rtt);
        self.with_recovery(cfg)
    }

    /// Returns a copy with a different per-port headroom formula.
    #[must_use]
    pub fn with_headroom_source(mut self, source: HeadroomSource) -> Self {
        self.headroom_source = source;
        self
    }

    /// Returns a copy with a different DT `α`.
    #[must_use]
    pub fn with_alpha(mut self, alpha: f64) -> Self {
        self.alpha = alpha;
        self
    }

    /// Returns `self` unchanged: there is one engine. Exists only so the
    /// frozen `simbench` benchmark compiles; drop it with [`FidelityMode`].
    #[must_use]
    pub fn with_fidelity(self, _fidelity: FidelityMode) -> Self {
        self
    }

    /// Returns a copy with the pause-causality observatory enabled.
    #[must_use]
    pub fn with_observability(mut self, cfg: ObserveConfig) -> Self {
        self.observe = Some(cfg);
        self
    }

    /// The [`TraceKey`] a network built from these parameters registers
    /// under in a [`dsh_simcore::trace::capture`] session: the seed
    /// separates sweep points, the scheme tag separates the SIH/DSH pair
    /// of one point.
    #[must_use]
    pub fn trace_key(&self) -> TraceKey {
        TraceKey {
            seed: self.seed,
            tag: match self.scheme {
                Scheme::Sih => 0,
                Scheme::Dsh => 1,
                Scheme::Lossy => 3,
            },
        }
    }

    /// Checks the parameter set for incoherent combinations. Called by
    /// [`NetworkBuilder::build`] (which panics on `Err`); CLI layers call
    /// it first and turn the message into a usage error.
    ///
    /// # Errors
    ///
    /// * a zero [`NetParams::sample_interval`] (the tick would re-arm at
    ///   the same instant forever);
    /// * the lossy scheme combined with a PFC watchdog (there is no PFC to
    ///   watch);
    /// * an invalid [`RecoveryConfig`] (see [`RecoveryConfig::validate`]);
    /// * the lossy scheme with recovery disabled (every drop would wedge
    ///   its flow forever).
    pub fn validate(&self) -> Result<(), String> {
        if self.sample_interval == Delta::ZERO {
            return Err("the sample interval must be positive".to_string());
        }
        if self.scheme == Scheme::Lossy && self.pfc_watchdog.is_some() {
            return Err(
                "the lossy scheme disables PFC, so a PFC watchdog cannot be armed".to_string()
            );
        }
        if let Some(r) = &self.recovery {
            r.validate()?;
        }
        if self.scheme == Scheme::Lossy && self.recovery.is_none() {
            return Err("the lossy scheme drops under congestion and requires loss recovery \
                 (set NetParams::recovery)"
                .to_string());
        }
        Ok(())
    }
}

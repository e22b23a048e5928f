//! Shared plumbing for the FCT experiments (Figs. 5, 14, 15): build a
//! fabric, load it with background + fan-in traffic, run, and summarize
//! FCTs per traffic type.

use dsh_analysis::fct::FctSummary;
use dsh_core::Scheme;
use dsh_net::topology::{fat_tree, leaf_spine, LeafSpineShape};
use dsh_net::{FlowId, FlowSpec, NetParams, Network, NetworkBuilder, NodeId, ObserveConfig};
use dsh_simcore::{Bandwidth, ByteSize, Delta, Executor, SimRng, Time};
use dsh_transport::CcKind;
use dsh_workloads::{background_flows, fan_in_bursts, FlowSizeDist, PatternConfig, Workload};

/// Priority class carrying fan-in bursts (background spreads over 0–5).
pub const FAN_IN_CLASS: u8 = 6;

/// Topology selector.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Topo {
    /// Leaf–spine with the given shape.
    LeafSpine {
        /// Leaves.
        leaves: usize,
        /// Spines.
        spines: usize,
        /// Hosts per leaf.
        hosts_per_leaf: usize,
    },
    /// k-ary fat-tree.
    FatTree {
        /// Arity.
        k: usize,
    },
}

impl Topo {
    /// The paper's 256-server leaf–spine (§V-B).
    pub const PAPER_LEAF_SPINE: Topo =
        Topo::LeafSpine { leaves: 16, spines: 16, hosts_per_leaf: 16 };
    /// A laptop-scale leaf–spine (64 servers) with the same oversubscription
    /// (1:1).
    pub const SMALL_LEAF_SPINE: Topo = Topo::LeafSpine { leaves: 4, spines: 4, hosts_per_leaf: 16 };

    /// The unbuilt fabric, every link 100 Gb/s with 2 µs of propagation,
    /// and its hosts.
    #[must_use]
    pub fn builder(self, params: NetParams) -> (NetworkBuilder, Vec<NodeId>) {
        let (link, delay) = (Bandwidth::from_gbps(100), Delta::from_us(2));
        match self {
            Topo::LeafSpine { leaves, spines, hosts_per_leaf } => {
                let shape = LeafSpineShape {
                    leaves,
                    spines,
                    hosts_per_leaf,
                    downlink: link,
                    uplink: link,
                    link_delay: delay,
                };
                let ls = leaf_spine(params, shape);
                let hosts = ls.all_hosts();
                (ls.builder, hosts)
            }
            Topo::FatTree { k } => {
                let ft = fat_tree(params, k, link, delay);
                let hosts = ft.all_hosts();
                (ft.builder, hosts)
            }
        }
    }
}

/// One FCT experiment configuration.
#[derive(Clone, Copy, Debug)]
pub struct FctExperiment {
    /// Headroom scheme.
    pub scheme: Scheme,
    /// Transport for all flows.
    pub cc: CcKind,
    /// Background flow-size workload.
    pub workload: Workload,
    /// Fabric.
    pub topo: Topo,
    /// Background one-to-one load (fraction of host capacity).
    pub bg_load: f64,
    /// Fan-in (16:1, 64 KB) load; `bg_load + fanin_load` is the paper's
    /// total load (0.9).
    pub fanin_load: f64,
    /// Flows start within `[0, horizon)`.
    pub horizon: Delta,
    /// Hard stop for the simulation (gives the tail time to finish).
    pub run_until: Delta,
    /// Lossless-pool buffer per switch.
    pub buffer: ByteSize,
    /// Seed.
    pub seed: u64,
    /// Pause-causality / metrics-sampler configuration (`None`, the
    /// default, keeps the observability hooks masked off).
    pub observe: Option<ObserveConfig>,
}

impl FctExperiment {
    /// The scaled-down default matching the paper's §V-B settings
    /// otherwise (0.9 total load, DCQCN, web search, 16:1 64 KB fan-in).
    #[must_use]
    pub fn small(scheme: Scheme, cc: CcKind) -> Self {
        FctExperiment {
            scheme,
            cc,
            workload: Workload::WebSearch,
            topo: Topo::SMALL_LEAF_SPINE,
            bg_load: 0.6,
            fanin_load: 0.3,
            horizon: Delta::from_ms(2),
            run_until: Delta::from_ms(8),
            buffer: ByteSize::mib(16),
            seed: 1,
            observe: None,
        }
    }
}

/// Runs a loaded network to `deadline`. Returns the measured network
/// and the number of calendar events processed.
#[must_use]
pub fn run_net(net: Network, deadline: Time) -> (Network, u64) {
    let mut sim = net.into_sim();
    sim.run_until(deadline);
    let events = sim.events_processed();
    (sim.into_model(), events)
}

/// Outcome of one FCT experiment.
#[derive(Clone, Copy, Debug)]
pub struct FctResult {
    /// Fan-in flow summary (`None` if none completed).
    pub fan: Option<FctSummary>,
    /// Background flow summary.
    pub bg: Option<FctSummary>,
    /// Summary over all flows.
    pub all: Option<FctSummary>,
    /// Completed / registered flows.
    pub completed: usize,
    /// Registered flows.
    pub registered: usize,
    /// Data drops (must be 0).
    pub drops: u64,
}

/// Runs the SIH/DSH pair of `base` (its `scheme` field is overridden) on
/// the pool — the two runs are independent simulations, so they occupy
/// two workers.
///
/// # Panics
///
/// Panics if either run drops packets (see [`run_fct`]).
#[must_use]
pub fn run_fct_pair(base: &FctExperiment, ex: &Executor) -> (FctResult, FctResult) {
    let mut results = ex.par_map(vec![Scheme::Sih, Scheme::Dsh], |scheme| {
        run_fct(&FctExperiment { scheme, ..*base })
    });
    let dsh = results.pop().expect("par_map returned both schemes");
    let sih = results.pop().expect("par_map returned both schemes");
    (sih, dsh)
}

/// Builds the fabric and returns `(network, hosts)`.
fn build(exp: &FctExperiment) -> (Network, Vec<NodeId>) {
    let mut params = NetParams::tomahawk(exp.scheme).with_buffer(exp.buffer).with_seed(exp.seed);
    if exp.cc == CcKind::Uncontrolled {
        params = params.without_ecn();
    }
    if let Some(cfg) = exp.observe {
        params = params.with_observability(cfg);
    }
    let (builder, hosts) = exp.topo.builder(params);
    (builder.build(), hosts)
}

/// Runs an FCT experiment.
///
/// # Panics
///
/// Panics if the lossless fabric dropped packets (a correctness bug).
#[must_use]
pub fn run_fct(exp: &FctExperiment) -> FctResult {
    let (net, fan_ids, registered) = loaded(exp);
    let (net, _events) = run_net(net, Time::ZERO + exp.run_until);
    assert_eq!(net.data_drops(), 0, "lossless fabric dropped packets: {exp:?}");
    summarize(&net, &fan_ids, registered)
}

/// Builds the fabric and loads the background + fan-in flow mix;
/// returns `(network, fan-in flow ids, registered flows)`.
#[must_use]
pub fn loaded(exp: &FctExperiment) -> (Network, Vec<FlowId>, usize) {
    let (mut net, hosts) = build(exp);
    let mut rng = SimRng::new(exp.seed.wrapping_mul(0x9E37_79B9).wrapping_add(7));
    let horizon = Time::ZERO + exp.horizon;
    let dist = FlowSizeDist::from_workload(exp.workload);

    let mut fan_ids = Vec::new();
    if exp.bg_load > 0.0 {
        let cfg = PatternConfig {
            hosts: hosts.len(),
            host_bytes_per_sec: 12.5e9,
            load: exp.bg_load,
            horizon,
        };
        for f in background_flows(&cfg, &dist, &[0, 1, 2, 3, 4, 5], &mut rng) {
            net.add_flow(FlowSpec {
                src: hosts[f.src],
                dst: hosts[f.dst],
                size: f.size,
                class: f.class,
                start: f.start,
                cc: exp.cc,
            });
        }
    }
    if exp.fanin_load > 0.0 {
        let cfg = PatternConfig {
            hosts: hosts.len(),
            host_bytes_per_sec: 12.5e9,
            load: exp.fanin_load,
            horizon,
        };
        // Paper: 16 senders per burst; clamp for micro-scale fabrics.
        let fan_in = 16.min(hosts.len().saturating_sub(1)).max(2);
        for f in fan_in_bursts(&cfg, fan_in, 64 * 1024, FAN_IN_CLASS, &mut rng) {
            let id = net.add_flow(FlowSpec {
                src: hosts[f.src],
                dst: hosts[f.dst],
                size: f.size,
                class: f.class,
                start: f.start,
                cc: exp.cc,
            });
            fan_ids.push(id);
        }
    }

    let registered = net.flow_count();
    (net, fan_ids, registered)
}

/// Summarizes a finished run into per-traffic-type FCT summaries.
fn summarize(net: &Network, fan_ids: &[FlowId], registered: usize) -> FctResult {
    let fan_set: std::collections::HashSet<_> = fan_ids.iter().copied().collect();
    let mut fan = Vec::new();
    let mut bg = Vec::new();
    let mut all = Vec::new();
    for r in net.fct_records() {
        all.push(r.fct());
        if fan_set.contains(&r.flow) {
            fan.push(r.fct());
        } else {
            bg.push(r.fct());
        }
    }
    FctResult {
        fan: FctSummary::from_fcts(&fan),
        bg: FctSummary::from_fcts(&bg),
        all: FctSummary::from_fcts(&all),
        completed: all.len(),
        registered,
        drops: net.data_drops(),
    }
}

//! Fig. 17 (extension, not in the paper): the lossless-vs-lossy
//! trade-off.
//!
//! The paper argues DSH gets the best of PFC losslessness at a fraction
//! of SIH's headroom tax. This figure adds the other end of the design
//! space — an IRN-style lossy RoCE fabric with no PFC at all — and sweeps
//! load over a four-cell regime matrix: {PFC+SIH, PFC+DSH, lossy+GBN,
//! lossy+SR}. Each cell reports FCT percentiles, PFC pause wall-clock,
//! buffer held hostage as headroom (reserved and peak occupancy), and
//! bytes retransmitted — making the trade-off explicit: lossless fabrics
//! pay in pauses and reserved buffer, lossy fabrics pay in drops and
//! retransmissions, and selective repeat pays far less than go-back-N.

use crate::par_grid;
use dsh_analysis::fct::FctSummary;
use dsh_core::Scheme;
use dsh_net::topology::{leaf_spine, LeafSpineShape};
use dsh_net::{FlowSpec, NetParams, Network, ObserveConfig};
use dsh_simcore::{Bandwidth, ByteSize, Delta, Executor, SimRng, Time};
use dsh_transport::{CcKind, RecoveryConfig, Regime};
use dsh_workloads::{background_flows, fan_in_bursts, FlowSizeDist, PatternConfig, Workload};

/// One cell of the regime matrix: a headroom scheme (or the lossy mode)
/// paired with the loss-recovery regime its transport runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Cell {
    /// PFC lossless, static independent headroom.
    Sih,
    /// PFC lossless, dynamic shared headroom.
    Dsh,
    /// No PFC, drop-tail admission, go-back-N recovery.
    LossyGbn,
    /// No PFC, drop-tail admission, selective-repeat recovery.
    LossySr,
}

impl Cell {
    /// All four cells, in display order.
    pub const ALL: [Cell; 4] = [Cell::Sih, Cell::Dsh, Cell::LossyGbn, Cell::LossySr];

    /// The MMU scheme this cell runs.
    #[must_use]
    pub fn scheme(self) -> Scheme {
        match self {
            Cell::Sih => Scheme::Sih,
            Cell::Dsh => Scheme::Dsh,
            Cell::LossyGbn | Cell::LossySr => Scheme::Lossy,
        }
    }

    /// Whether the cell's switches are lossless (PFC on).
    #[must_use]
    pub fn is_lossless(self) -> bool {
        self.scheme().is_lossless()
    }

    /// Fixed-width label for tables and JSON.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Cell::Sih => "pfc+sih",
            Cell::Dsh => "pfc+dsh",
            Cell::LossyGbn => "lossy+gbn",
            Cell::LossySr => "lossy+sr",
        }
    }

    /// The recovery configuration the cell's transports run. Lossless
    /// cells take the regime override (recovery is optional armor there);
    /// lossy cells are pinned to their defining regime.
    #[must_use]
    pub fn recovery(self, base_rtt: Delta, override_regime: Option<Regime>) -> RecoveryConfig {
        let cfg = RecoveryConfig::for_rtt(base_rtt);
        let regime = match self {
            Cell::LossyGbn => Regime::GoBackN,
            Cell::LossySr => Regime::SelectiveRepeat,
            Cell::Sih | Cell::Dsh => override_regime.unwrap_or(Regime::GoBackN),
        };
        if regime == Regime::SelectiveRepeat {
            cfg.selective_repeat()
        } else {
            cfg
        }
    }
}

/// One lossless-vs-lossy experiment configuration (a 2×2 leaf–spine
/// carrying background plus fan-in traffic at a swept total load).
#[derive(Clone, Copy, Debug)]
pub struct Fig17Experiment {
    /// Regime-matrix cell.
    pub cell: Cell,
    /// Transport for all flows.
    pub cc: CcKind,
    /// Hosts per leaf (2 leaves × 2 spines fixed).
    pub hosts_per_leaf: usize,
    /// Total offered load (fraction of host capacity); split 2:1 between
    /// background and 8:1 fan-in bursts so both the pause and drop
    /// machinery see contention.
    pub load: f64,
    /// Flows start within `[0, horizon)`.
    pub horizon: Delta,
    /// Hard stop for the simulation.
    pub run_until: Delta,
    /// Lossless-pool buffer per switch (small enough that the fan-in
    /// crosses PFC thresholds in the lossless cells and the shared pool
    /// overflows in the lossy ones).
    pub buffer: ByteSize,
    /// Seed.
    pub seed: u64,
    /// Regime override for the lossless cells (`--regime`); lossy cells
    /// ignore it (their regime is the cell).
    pub override_regime: Option<Regime>,
    /// Run the lossless cells without any recovery at all
    /// (`--no-recovery`); lossy cells reject this in
    /// [`NetParams::validate`], so it only applies where legal.
    pub no_recovery: bool,
    /// Arms the pause-causality observatory and metrics sampler for this
    /// run.  `None` (the default) keeps the observability hooks masked
    /// off, preserving the sweep's measured hot path; the run record's
    /// metrics run sets it.
    pub observe: Option<ObserveConfig>,
}

impl Fig17Experiment {
    /// Laptop-scale default: 8 hosts, 1 ms admission horizon, 40 ms
    /// simulation (a go-back-N elephant that replays most of itself
    /// after repeated drop-tail hits needs a long drain), 4 MiB switch
    /// buffer.
    #[must_use]
    pub fn small(cell: Cell) -> Self {
        Fig17Experiment {
            cell,
            cc: CcKind::Dcqcn,
            hosts_per_leaf: 4,
            load: 0.7,
            horizon: Delta::from_ms(1),
            run_until: Delta::from_ms(40),
            buffer: ByteSize::mib(4),
            seed: 1,
            override_regime: None,
            no_recovery: false,
            observe: None,
        }
    }
}

/// Outcome of one cell × load run.
#[derive(Clone, Copy, Debug)]
pub struct Fig17Result {
    /// FCT summary over completed flows (`None` if none completed).
    pub fct: Option<FctSummary>,
    /// Flows that delivered every byte.
    pub completed: usize,
    /// Registered flows.
    pub registered: usize,
    /// Flows explicitly failed after the retry budget.
    pub failed: u64,
    /// Flows neither completed nor failed at the horizon (must be 0).
    pub wedged: usize,
    /// Summed queue- plus port-level PFC pause wall-clock over all egress
    /// ports (exactly 0 in the lossy cells).
    pub pause_wall_ns: u64,
    /// Buffer statically reserved as headroom across all switches
    /// (exactly 0 in the lossy cells).
    pub headroom_reserved: u64,
    /// Highest per-port headroom occupancy peak observed (exactly 0 in
    /// the lossy cells).
    pub headroom_peak: u64,
    /// Drop-tail admission drops (0 in the lossless cells).
    pub data_drops: u64,
    /// Total bytes re-sent below flows' high-water marks.
    pub retransmitted_bytes: u64,
    /// Bytes re-sent by selective-repeat gap repairs (subset of
    /// `retransmitted_bytes`).
    pub sr_retransmitted_bytes: u64,
    /// NACK control frames receivers sent.
    pub nacks_sent: u64,
    /// Calendar events processed.
    pub events: u64,
}

/// Runs one cell at one load.
///
/// # Panics
///
/// Panics on regime-contract violations: a lossless cell that drops, a
/// lossy cell that pauses or holds headroom, or a dirty MMU audit in any
/// cell.
#[must_use]
pub fn run_cell(exp: &Fig17Experiment) -> Fig17Result {
    let (net, registered) = loaded(exp);
    let deadline = Time::ZERO + exp.run_until;
    let (mut net, events) = crate::fabric::run_net(net, deadline);

    let pause_wall_ns: u64 =
        net.pause_ledgers(deadline).map(|l| l.queue_level.as_ns() + l.port_level.as_ns()).sum();
    let headroom_reserved = net.reserved_headroom_bytes();
    let headroom_peak = net
        .take_headroom_peaks()
        .into_iter()
        .flat_map(|(_, per_port)| per_port.into_iter().flatten())
        .max()
        .unwrap_or(0);

    for (id, audit) in net.audit_all() {
        assert!(
            audit.is_clean(),
            "dirty MMU audit at {id} in {:?}: {:?}",
            exp.cell,
            audit.violations
        );
    }
    if exp.cell.is_lossless() {
        assert_eq!(net.data_drops(), 0, "lossless cell {:?} dropped packets", exp.cell);
    } else {
        assert_eq!(pause_wall_ns, 0, "lossy cell {:?} paused — PFC leaked", exp.cell);
        assert_eq!(headroom_reserved, 0, "lossy cell {:?} reserved headroom", exp.cell);
        assert_eq!(headroom_peak, 0, "lossy cell {:?} charged headroom", exp.cell);
    }

    let fcts: Vec<Delta> = net.fct_records().iter().map(|r| r.fct()).collect();
    let completed = fcts.len();
    let failed = net.failed_flow_count();
    Fig17Result {
        fct: FctSummary::from_fcts(&fcts),
        completed,
        registered,
        failed,
        wedged: registered - completed - failed as usize,
        pause_wall_ns,
        headroom_reserved,
        headroom_peak,
        data_drops: net.data_drops(),
        retransmitted_bytes: net.retransmitted_bytes(),
        sr_retransmitted_bytes: net.sr_retransmitted_bytes(),
        nacks_sent: net.nacks_sent(),
        events,
    }
}

/// Builds the loaded fabric for one cell; returns `(network, registered
/// flows)`. Public so benches and debugging probes can drive the exact
/// figure scenario through their own engines.
#[must_use]
pub fn loaded(exp: &Fig17Experiment) -> (Network, usize) {
    let mut params =
        NetParams::tomahawk(exp.cell.scheme()).with_buffer(exp.buffer).with_seed(exp.seed);
    if exp.no_recovery && exp.cell.is_lossless() {
        // Legal only where PFC guarantees delivery; the builder rejects
        // a recovery-free lossy fabric outright.
    } else {
        let recovery = exp.cell.recovery(params.base_rtt, exp.override_regime);
        params = params.with_recovery(recovery);
    }
    if let Some(cfg) = exp.observe {
        params = params.with_observability(cfg);
    }
    let ls = leaf_spine(
        params,
        LeafSpineShape {
            leaves: 2,
            spines: 2,
            hosts_per_leaf: exp.hosts_per_leaf,
            downlink: Bandwidth::from_gbps(100),
            uplink: Bandwidth::from_gbps(100),
            link_delay: Delta::from_us(2),
        },
    );
    let hosts = ls.all_hosts();
    let mut net = ls.builder.build();

    let mut rng = SimRng::new(exp.seed.wrapping_mul(0x9E37_79B9).wrapping_add(17));
    let horizon = Time::ZERO + exp.horizon;
    let dist = FlowSizeDist::from_workload(Workload::WebSearch);
    let bg = PatternConfig {
        hosts: hosts.len(),
        host_bytes_per_sec: 12.5e9,
        load: exp.load * 2.0 / 3.0,
        horizon,
    };
    for f in background_flows(&bg, &dist, &[0, 1, 2, 3], &mut rng) {
        net.add_flow(FlowSpec {
            src: hosts[f.src],
            dst: hosts[f.dst],
            size: f.size,
            class: f.class,
            start: f.start,
            cc: exp.cc,
        });
    }
    let fan = PatternConfig {
        hosts: hosts.len(),
        host_bytes_per_sec: 12.5e9,
        load: exp.load / 3.0,
        horizon,
    };
    let fan_in = 8.min(hosts.len().saturating_sub(1)).max(2);
    for f in fan_in_bursts(&fan, fan_in, 64 * 1024, 5, &mut rng) {
        net.add_flow(FlowSpec {
            src: hosts[f.src],
            dst: hosts[f.dst],
            size: f.size,
            class: f.class,
            start: f.start,
            cc: exp.cc,
        });
    }
    let registered = net.flow_count();
    (net, registered)
}

/// One sweep row: a load with one outcome per cell, in [`Cell::ALL`]
/// order.
#[derive(Clone, Copy, Debug)]
pub struct Fig17Point {
    /// Total offered load.
    pub load: f64,
    /// Outcomes keyed by [`Cell::ALL`].
    pub cells: [Fig17Result; Cell::ALL.len()],
}

impl Fig17Point {
    /// The point's outcomes keyed by cell.
    #[must_use]
    pub fn per_cell(&self) -> [(Cell, &Fig17Result); Cell::ALL.len()] {
        std::array::from_fn(|i| (Cell::ALL[i], &self.cells[i]))
    }
}

/// Sweeps loads × [`Cell::ALL`] on the pool.
#[must_use]
pub fn sweep(loads: &[f64], base: &Fig17Experiment, ex: &Executor) -> Vec<Fig17Point> {
    let rows = par_grid(ex, loads, &Cell::ALL, |load, cell| {
        run_cell(&Fig17Experiment { cell, load, ..*base })
    });
    loads
        .iter()
        .zip(rows)
        .map(|(&load, cells)| {
            let cells = cells.try_into().expect("one result per cell");
            Fig17Point { load, cells }
        })
        .collect()
}

/// Cuts the scale down for smoke/bench runs (CI wall-clock).
#[must_use]
pub fn smoke_base(cell: Cell) -> Fig17Experiment {
    let mut base = Fig17Experiment::small(cell);
    base.horizon = Delta::from_us(300);
    // Recovery tails (timeout ladders on dropped final segments) need
    // drain time well past the admission horizon.
    base.run_until = Delta::from_ms(12);
    base.load = 0.8;
    base
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lossy_cells_never_pause_and_hold_no_headroom() {
        for cell in [Cell::LossyGbn, Cell::LossySr] {
            let r = run_cell(&smoke_base(cell));
            // The zero assertions live inside run_cell; re-state the
            // contract here so the test names it.
            assert_eq!(r.pause_wall_ns, 0, "{cell:?}");
            assert_eq!(r.headroom_reserved, 0, "{cell:?}");
            assert_eq!(r.headroom_peak, 0, "{cell:?}");
            assert_eq!(r.wedged, 0, "{cell:?}: a dropped flow wedged");
        }
    }

    #[test]
    fn lossless_cells_never_drop_but_reserve_headroom() {
        for cell in [Cell::Sih, Cell::Dsh] {
            let r = run_cell(&smoke_base(cell));
            assert_eq!(r.data_drops, 0, "{cell:?}");
            assert!(r.headroom_reserved > 0, "{cell:?} reserved no headroom");
            assert_eq!(r.wedged, 0, "{cell:?}");
        }
    }

    #[test]
    fn sih_reserves_more_headroom_than_dsh() {
        let sih = run_cell(&smoke_base(Cell::Sih));
        let dsh = run_cell(&smoke_base(Cell::Dsh));
        assert!(
            sih.headroom_reserved > dsh.headroom_reserved,
            "SIH ({}) must hold more buffer hostage than DSH ({})",
            sih.headroom_reserved,
            dsh.headroom_reserved
        );
    }
}

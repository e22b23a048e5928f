//! Fig. 12: deadlock onset-time CDF in a leaf–spine fabric with two link
//! failures (S0–L3, S1–L0) that create the cyclic buffer dependency
//! S0→L1→S1→L2→S0 under the four rack-to-rack fan-in patterns.
//!
//! A run is deadlocked when a who-paused-whom cycle is still open at its
//! end (DESIGN.md §5). Its onset is the instant the cycle closed.

use dsh_core::Scheme;
use dsh_net::observe::{ObserveConfig, PauseCycle};
use dsh_net::topology::{leaf_spine, LeafSpineShape};
use dsh_net::{FlowSpec, NetParams};
use dsh_simcore::{Delta, Executor, SimRng, Time};
use dsh_transport::CcKind;
use dsh_workloads::{fan_in_bursts, FlowSizeDist, PatternConfig, Workload};

/// PFC watchdog timeout of the watchdog extension at the default scale.
pub const WATCHDOG_TIMEOUT: Delta = Delta::from_ms(2);

/// PFC watchdog timeout of the watchdog extension at paper scale.
pub const WATCHDOG_TIMEOUT_FULL: Delta = Delta::from_ms(5);

/// One run's outcome.
#[derive(Clone, Debug)]
pub struct DeadlockRun {
    /// Seed used.
    pub seed: u64,
    /// Deadlock onset, if one occurred: the earliest closing instant of
    /// [`DeadlockRun::cycles`].
    pub onset: Option<Time>,
    /// Frames dropped by the PFC watchdog (0 when not armed).
    pub watchdog_drops: u64,
    /// The pause cycles that wedge the fabric at run end — the deadlock
    /// diagnostic a failing test should print.
    pub cycles: Vec<PauseCycle>,
}

/// Parameters of the Fig. 12 experiment.
#[derive(Clone, Copy, Debug)]
pub struct Fig12Config {
    /// Fan-in degree of each burst (the paper sweeps 1–15).
    pub fan_in: usize,
    /// Load on the leaf downlinks (paper: 0.5).
    pub load: f64,
    /// Flow generation horizon.
    pub horizon: Delta,
    /// Simulation length (paper: 100 ms).
    pub duration: Delta,
    /// Jitter window for fan-in group members (the paper's flows arrive
    /// by a Poisson process, not in lockstep).
    pub arrival_jitter: Delta,
    /// Whether to fail the S0–L3 and S1–L0 links (disable for the
    /// no-CBD control).
    pub fail_links: bool,
    /// Arm the PFC watchdog (extension experiment: industry's deadlock
    /// mitigation breaks the wedge by *dropping*, which DSH avoids
    /// needing).
    pub watchdog: Option<Delta>,
}

impl Fig12Config {
    /// Scaled-down defaults (8-way fan-in, 12 ms of traffic, 15 ms run).
    #[must_use]
    pub fn small() -> Self {
        Fig12Config {
            fan_in: 8,
            load: 0.5,
            horizon: Delta::from_ms(12),
            duration: Delta::from_ms(15),
            arrival_jitter: Delta::from_us(100),
            fail_links: true,
            watchdog: None,
        }
    }

    /// Paper-scale (15-way fan-in, 90 ms of traffic, 100 ms run).
    #[must_use]
    pub fn full() -> Self {
        Fig12Config {
            fan_in: 15,
            load: 0.5,
            horizon: Delta::from_ms(90),
            duration: Delta::from_ms(100),
            arrival_jitter: Delta::from_us(100),
            fail_links: true,
            watchdog: None,
        }
    }
}

/// Runs the Fig. 12 scenario once, with the pause-causality observatory
/// armed, and reads the pause cycles still open at the end.
///
/// With the watchdog armed, a cycle that closed less than one watchdog
/// timeout plus one sampling tick before the end has not yet had its turn
/// at the watchdog, so it does not count: a working watchdog leaves no
/// deadlock.
#[must_use]
pub fn run_once(scheme: Scheme, cc: CcKind, cfg: &Fig12Config, seed: u64) -> DeadlockRun {
    let mut params = NetParams::tomahawk(scheme);
    params.seed = seed;
    params.pfc_watchdog = cfg.watchdog;
    params.observe = Some(ObserveConfig);
    let grace = cfg.watchdog.map_or(Delta::ZERO, |wd| wd + params.sample_interval);
    params.ecn = cc != CcKind::Uncontrolled;

    let mut ls = leaf_spine(params, LeafSpineShape::paper_deadlock());
    let (s0, s1) = (ls.spines[0], ls.spines[1]);
    let (l0, l3) = (ls.leaves[0], ls.leaves[3]);
    if cfg.fail_links {
        ls.builder.remove_link(s0, l3);
        ls.builder.remove_link(s1, l0);
    }
    let hosts = ls.hosts.clone();
    let mut net = ls.builder.build();

    let mut rng =
        SimRng::new(seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407));
    let dist = FlowSizeDist::from_workload(Workload::Hadoop);
    let pc = PatternConfig {
        hosts: 16,
        host_bytes_per_sec: 12.5e9,
        load: cfg.load,
        horizon: Time::ZERO + cfg.horizon,
    };
    // The paper's four fan-in patterns: L0→L3, L3→L0, L1→L2, L2→L1, all in
    // one traffic class (what closes the cycle). Flow arrivals follow a
    // Poisson process (paper §V-A); members of a fan-in group are jittered
    // over a short window rather than released in lockstep.
    for &(a, b) in &[(0usize, 3usize), (3, 0), (1, 2), (2, 1)] {
        for f in fan_in_bursts(&pc, cfg.fan_in, dist.mean() as u64, 0, &mut rng) {
            let size = dist.sample(&mut rng).max(1);
            let jitter = Delta::from_ns(rng.gen_range(cfg.arrival_jitter.as_ns().max(1)));
            net.add_flow(FlowSpec {
                src: hosts[a][f.src],
                dst: hosts[b][f.dst],
                size,
                class: 0,
                start: f.start + jitter,
                cc,
            });
        }
    }

    let end = Time::ZERO + cfg.duration;
    let mut sim = net.into_sim();
    sim.run_until(end);
    let net = sim.into_model();
    let cycles: Vec<PauseCycle> = net
        .open_pause_cycles()
        .expect("observatory armed")
        .into_iter()
        .filter(|c| end.saturating_since(c.onset) >= grace)
        .collect();
    DeadlockRun {
        seed,
        onset: cycles.iter().map(|c| c.onset).min(),
        watchdog_drops: net.watchdog_drops(),
        cycles,
    }
}

/// Runs `n` seeds on the pool and returns all outcomes, in seed order.
#[must_use]
pub fn run_many(
    scheme: Scheme,
    cc: CcKind,
    cfg: &Fig12Config,
    n: u64,
    ex: &Executor,
) -> Vec<DeadlockRun> {
    ex.par_map((1..=n).collect(), |s| run_once(scheme, cc, cfg, s))
}

/// Fraction of runs that deadlocked.
#[must_use]
pub fn deadlock_fraction(runs: &[DeadlockRun]) -> f64 {
    if runs.is_empty() {
        return 0.0;
    }
    runs.iter().filter(|r| r.onset.is_some()).count() as f64 / runs.len() as f64
}

//! Fig. 13x (robustness extension, not in the paper): FCT degradation
//! under link flaps.
//!
//! A loaded 2×2 leaf–spine carries bidirectional cross-rack flows while
//! one leaf–spine uplink flaps at a swept frequency. Every `LinkDown`
//! drains the uplink's queues (counted as `link_drops`), force-clears its
//! PFC pause ledger and reroutes via the surviving spine; the NICs' go-
//! back-N recovery retransmits what was lost. The sweep reports FCT
//! slowdown versus the fault-free baseline, retransmissions and drops for
//! both schemes (SIH and DSH) — demonstrating that headroom accounting
//! stays sound (MMU audit clean, zero admission drops) across arbitrary
//! flap schedules.

use crate::par_grid;
use dsh_analysis::fct::FctSummary;
use dsh_core::Scheme;
use dsh_net::topology::{leaf_spine, LeafSpineShape};
use dsh_net::{FaultPlan, FlowSpec, NetEvent, NetParams};
use dsh_simcore::{Bandwidth, ByteSize, Delta, EngineProfile, Executor, Time};
use dsh_transport::CcKind;

/// One link-flap experiment configuration.
#[derive(Clone, Copy, Debug)]
pub struct FlapExperiment {
    /// Headroom scheme.
    pub scheme: Scheme,
    /// Transport for all flows.
    pub cc: CcKind,
    /// Hosts per leaf (2 leaves × 2 spines fixed).
    pub hosts_per_leaf: usize,
    /// Bytes per cross-rack flow (one flow per host, both directions).
    pub flow_size: u64,
    /// Flap period of the `leaf0`–`spine0` uplink; `None` = fault-free
    /// baseline (no plan installed, recovery still enabled so the event
    /// stream is comparable).
    pub flap_period: Option<Delta>,
    /// Outage length of each flap (must be shorter than the period).
    pub down_time: Delta,
    /// First flap start (lets the flows ramp up).
    pub first_down: Delta,
    /// Flaps stop here so the tail can recover; also the fraction of
    /// `run_until` given to the last retransmissions.
    pub flap_until: Delta,
    /// Hard stop for the simulation.
    pub run_until: Delta,
    /// Seed (workload stagger + fault-plan RNG streams).
    pub seed: u64,
    /// Override the switch buffer (`None` = Tomahawk default). A small
    /// buffer pushes the post-outage fan-in over the PFC thresholds, so
    /// traced runs exercise the pause/resume machinery.
    pub buffer: Option<ByteSize>,
}

impl FlapExperiment {
    /// Laptop-scale default: 8 hosts, 1 MB cross-rack flows, 60 µs
    /// outages starting at 100 µs, 6 ms horizon.
    #[must_use]
    pub fn small(scheme: Scheme, cc: CcKind) -> Self {
        FlapExperiment {
            scheme,
            cc,
            hosts_per_leaf: 4,
            flow_size: 1_000_000,
            flap_period: None,
            down_time: Delta::from_us(60),
            first_down: Delta::from_us(100),
            flap_until: Delta::from_ms(3),
            run_until: Delta::from_ms(6),
            seed: 1,
            buffer: None,
        }
    }
}

/// Outcome of one flap run.
#[derive(Clone, Copy, Debug)]
pub struct FlapResult {
    /// FCT summary over completed flows (`None` if none completed).
    pub fct: Option<FctSummary>,
    /// Flows that delivered every byte.
    pub completed: usize,
    /// Flows explicitly marked failed after the retry budget.
    pub failed: u64,
    /// Flows neither completed nor failed at the horizon — must be 0
    /// (the wedge-freedom property the recovery path guarantees).
    pub wedged: usize,
    /// Frames lost to the injected faults.
    pub link_drops: u64,
    /// Go-back-N timeout retransmissions.
    pub retransmissions: u64,
    /// Calendar events processed (steady-state throughput metric).
    pub events: u64,
}

/// Runs one flap experiment.
///
/// # Panics
///
/// Panics if the MMU audit is dirty after the run or if admission
/// dropped packets — faults may cost `link_drops`, never lossless-buffer
/// drops.
#[must_use]
pub fn run_flap(exp: &FlapExperiment) -> FlapResult {
    run_flap_inner(exp, None)
}

/// Runs one flap experiment under the engine profiler, returning the
/// per-event-type dispatch breakdown alongside the result. Counts are
/// always collected; per-class wall time additionally needs the
/// `profile` feature (see [`EngineProfile::timing_enabled`]).
#[must_use]
pub fn run_flap_profiled(exp: &FlapExperiment) -> (FlapResult, EngineProfile) {
    let mut profile = EngineProfile::new::<NetEvent>();
    let result = run_flap_inner(exp, Some(&mut profile));
    (result, profile)
}

fn run_flap_inner(exp: &FlapExperiment, profile: Option<&mut EngineProfile>) -> FlapResult {
    let net = build_flap(exp);
    let registered = net.flow_count();
    let deadline = Time::ZERO + exp.run_until;
    let (net, events) = match profile {
        Some(p) => {
            let mut sim = net.into_sim();
            sim.run_until_profiled(deadline, p);
            let events = sim.events_processed();
            (sim.into_model(), events)
        }
        None => crate::fabric::run_net(net, deadline),
    };
    summarize(&net, events, registered)
}

/// Builds the loaded 2×2 leaf–spine with the experiment's flap plan.
fn build_flap(exp: &FlapExperiment) -> dsh_net::Network {
    let mut params = NetParams::tomahawk(exp.scheme).with_seed(exp.seed).with_default_recovery();
    if let Some(buffer) = exp.buffer {
        params = params.with_buffer(buffer);
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
    let (rack0, rack1) = (ls.hosts[0].clone(), ls.hosts[1].clone());
    let (leaf0, spine0) = (ls.leaves[0], ls.spines[0]);
    let mut net = ls.builder.build();

    // Bidirectional cross-rack load: every flow transits the spines, so
    // roughly half of them hash onto the uplink that flaps.
    let n = exp.hosts_per_leaf;
    for i in 0..n {
        for (src, dst) in [(rack0[i], rack1[(i + 1) % n]), (rack1[i], rack0[(i + 1) % n])] {
            net.add_flow(FlowSpec {
                src,
                dst,
                size: exp.flow_size,
                class: 0,
                start: Time::ZERO + Delta::from_us(i as u64),
                cc: exp.cc,
            });
        }
    }

    if let Some(period) = exp.flap_period {
        assert!(exp.down_time < period, "outage must be shorter than the flap period");
        let mut plan = FaultPlan::new(exp.seed);
        let mut t = exp.first_down;
        while t + exp.down_time < exp.flap_until {
            plan = plan.flap(leaf0, spine0, Time::ZERO + t, Time::ZERO + t + exp.down_time);
            t += period;
        }
        assert!(!plan.is_empty(), "flap_until leaves room for no flap at all");
        net.set_fault_plan(plan);
    }

    net
}

/// Audits and summarizes a finished flap run.
fn summarize(net: &dsh_net::Network, events: u64, registered: usize) -> FlapResult {
    assert_eq!(net.data_drops(), 0, "faults must not cause MMU admission drops");
    for (id, audit) in net.audit_all() {
        assert!(audit.is_clean(), "MMU audit dirty at {id} after faults: {:?}", audit.violations);
    }

    let fcts: Vec<Delta> = net.fct_records().iter().map(|r| r.fct()).collect();
    let completed = fcts.len();
    let failed = net.failed_flow_count();
    FlapResult {
        fct: FctSummary::from_fcts(&fcts),
        completed,
        failed,
        wedged: registered - completed - failed as usize,
        link_drops: net.link_drops(),
        retransmissions: net.retransmissions(),
        events,
    }
}

/// One sweep row: a flap period with one outcome per scheme, in
/// [`Scheme::ALL`] order.
#[derive(Clone, Copy, Debug)]
pub struct FlapPoint {
    /// Flap period (`None` = fault-free baseline).
    pub period: Option<Delta>,
    /// Outcomes keyed by [`Scheme::ALL`].
    pub cells: [FlapResult; Scheme::ALL.len()],
}

impl FlapPoint {
    /// p50 FCT of `r` normalized to the matching baseline p50.
    #[must_use]
    pub fn slowdown(r: &FlapResult, baseline: &FlapResult) -> Option<f64> {
        Some(r.fct?.p50_secs / baseline.fct?.p50_secs)
    }

    /// The point's outcomes keyed by scheme, in [`Scheme::ALL`] order.
    #[must_use]
    pub fn per_scheme(&self) -> [(Scheme, &FlapResult); Scheme::ALL.len()] {
        std::array::from_fn(|i| (Scheme::ALL[i], &self.cells[i]))
    }
}

/// Sweeps flap periods × [`Scheme::ALL`] on the pool. `periods` should
/// start with `None` so callers can normalize against the fault-free
/// baseline.
#[must_use]
pub fn sweep(periods: &[Option<Delta>], base: &FlapExperiment, ex: &Executor) -> Vec<FlapPoint> {
    let rows = par_grid(ex, periods, &Scheme::ALL, |flap_period, scheme| {
        run_flap(&FlapExperiment { scheme, flap_period, ..*base })
    });
    periods
        .iter()
        .zip(rows)
        .map(|(&period, cells)| {
            let cells = cells.try_into().expect("one result per scheme");
            FlapPoint { period, cells }
        })
        .collect()
}

/// Cuts the scale down for smoke/bench runs (CI wall-clock). The first
/// outage lands at 20 µs — inside the short transfer window, so the flap
/// is guaranteed to hit live traffic.
#[must_use]
pub fn smoke_base(scheme: Scheme) -> FlapExperiment {
    let mut base = FlapExperiment::small(scheme, CcKind::Dcqcn);
    base.flow_size = 256 * 1024;
    base.first_down = Delta::from_us(20);
    base.flap_until = Delta::from_ms(1);
    base.run_until = Delta::from_ms(3);
    base
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flaps_lose_frames_but_every_flow_finishes() {
        let mut exp = smoke_base(Scheme::Dsh);
        exp.flap_period = Some(Delta::from_us(300));
        let r = run_flap(&exp);
        assert!(r.link_drops > 0, "a flap under load must drain frames");
        assert!(r.retransmissions > 0, "lost frames must be retransmitted");
        assert_eq!(r.wedged, 0, "no flow may wedge");
        assert_eq!(r.failed, 0, "this schedule is survivable: {r:?}");
        assert_eq!(r.completed, 2 * exp.hosts_per_leaf);
    }

    #[test]
    fn baseline_has_no_drops_and_faster_p50() {
        let base = run_flap(&smoke_base(Scheme::Dsh));
        assert_eq!(base.link_drops, 0);
        assert_eq!(base.retransmissions, 0);
        assert_eq!(base.wedged, 0);
        let mut flapped = smoke_base(Scheme::Dsh);
        flapped.flap_period = Some(Delta::from_us(300));
        let f = run_flap(&flapped);
        let slow = FlapPoint::slowdown(&f, &base).expect("both runs completed flows");
        assert!(slow >= 1.0, "flaps cannot speed flows up: {slow}");
    }
}

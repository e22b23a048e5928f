//! The observation layer: the pause-causality observatory (DESIGN.md
//! §16), the `Sample` tick that drives it alongside the goodput monitors
//! and the PFC watchdog, and every measurement accessor of the network.
//!
//! The observatory is opt-in observability for PFC fabrics: a
//! who-paused-whom cascade tracker, a periodic ring-buffered metrics
//! sampler, and the victim-flow attribution report built from both.
//! Disabled (the default, `NetParams::observe == None`) it costs a
//! single branch on the pause path and nothing per packet; enabled it
//! never allocates on the hot path — edges append to a pre-reserved log
//! and samples land in fixed-capacity rings.
//!
//! Determinism contract: every run is serial and seeded, samples are
//! instant-closed, and the cascade report sorts its edges canonically,
//! so `metrics.json` and the cascade report are byte-identical at any
//! `--threads` count.

mod cascade;
mod metrics;
mod report;
mod sample;

pub use cascade::{
    analyze, find_cycles, CascadeReport, CascadeTracker, FlowPauseAttribution, PauseCycle,
    PauseEdge, PORT_SCOPE_CLASS,
};
pub use metrics::{GlobalSample, MetricsSampler, SwitchSample};
pub(crate) use sample::FlowMonitor;

use dsh_simcore::Delta;

/// Observability configuration carried by `NetParams::observe`. Its
/// presence arms the observatory; it has no settings of its own, since
/// the sampler runs on `NetParams::sample_interval`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ObserveConfig;

/// Live observability state attached to a `Network` when observability is
/// enabled.  Boxed so the disabled case costs one pointer-sized `Option`.
#[derive(Clone, Debug)]
pub(crate) struct ObserveState {
    pub(crate) cascade: CascadeTracker,
    pub(crate) metrics: MetricsSampler,
}

impl ObserveState {
    pub(crate) fn new(interval: Delta) -> Self {
        ObserveState { cascade: CascadeTracker::new(), metrics: MetricsSampler::new(interval) }
    }
}

//! The pause-causality observatory (DESIGN.md §16).
//!
//! Opt-in observability for PFC fabrics: a who-paused-whom cascade
//! tracker, a periodic ring-buffered metrics sampler, and the victim-flow
//! attribution report built from both.  Disabled (the default,
//! `NetParams::observe == None`) it costs a single branch on the pause
//! path and nothing per packet; enabled it never allocates on the hot
//! path — edges append to a pre-reserved log and samples land in
//! fixed-capacity rings.
//!
//! Determinism contract: every run is serial and seeded, samples are
//! instant-closed, and the cascade report sorts its edges canonically,
//! so `metrics.json` and the cascade report are byte-identical at any
//! `--threads` count.

mod cascade;
mod metrics;

pub use cascade::{
    analyze, CascadeReport, CascadeTracker, FlowPauseAttribution, PauseEdge, PORT_SCOPE_CLASS,
};
pub use metrics::{GlobalSample, MetricsSampler, SwitchSample, DEFAULT_SERIES_CAPACITY};

use dsh_simcore::Delta;

/// Observability configuration carried by `NetParams::observe`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ObserveConfig {
    /// Interval between metrics samples (`--metrics-interval`).
    pub metrics_interval: Delta,
    /// Ring capacity per series; the oldest samples are overwritten (and
    /// counted) once a series exceeds this.
    pub series_capacity: usize,
}

impl Default for ObserveConfig {
    fn default() -> Self {
        ObserveConfig {
            metrics_interval: Delta::from_us(10),
            series_capacity: DEFAULT_SERIES_CAPACITY,
        }
    }
}

impl ObserveConfig {
    /// Overrides the sampling interval.
    #[must_use]
    pub fn with_interval(mut self, interval: Delta) -> Self {
        assert!(interval > Delta::ZERO, "metrics interval must be positive");
        self.metrics_interval = interval;
        self
    }
}

/// Live observability state attached to a `Network` when observability is
/// enabled.  Boxed so the disabled case costs one pointer-sized `Option`.
#[derive(Clone, Debug)]
pub struct ObserveState {
    pub(crate) cascade: CascadeTracker,
    pub(crate) metrics: MetricsSampler,
}

impl ObserveState {
    pub(crate) fn new(cfg: &ObserveConfig) -> Self {
        ObserveState {
            cascade: CascadeTracker::new(),
            metrics: MetricsSampler::new(cfg.metrics_interval, cfg.series_capacity),
        }
    }

    /// The recorded who-paused-whom edge log.
    #[must_use]
    pub fn cascade_edges(&self) -> &[PauseEdge] {
        self.cascade.edges()
    }

    /// The metrics sampler (for export).
    #[must_use]
    pub fn metrics(&self) -> &MetricsSampler {
        &self.metrics
    }
}

//! The periodic [`NetEvent::Sample`] tick: the flow goodput monitors, the
//! PFC watchdog's scan, and the instant-closed metrics capture. The
//! watchdog hands each expired class to the flow-control layer's flush.

use crate::ids::{FlowId, NodeId, NUM_DATA_CLASSES};
use crate::monitor::ThroughputSample;
use crate::network::{NetEvent, Network};
use crate::observe::{GlobalSample, SwitchSample};
use dsh_simcore::{Delta, Scheduler, Time};

/// A goodput time series recorded for one flow.
#[derive(Debug)]
pub(crate) struct FlowMonitor {
    pub(crate) flow: FlowId,
    pub(crate) last_bytes: u64,
    pub(crate) samples: Vec<ThroughputSample>,
}

impl Network {
    /// Handles the one periodic [`NetEvent::Sample`] tick. The goodput
    /// monitors and the PFC watchdog run *inside* instant `now`, wherever
    /// the tick lands in its same-instant batch.
    /// The metrics sample labeled `now` is instead instant-closed: the
    /// tick only arms it, and [`Self::capture_metrics`] takes it at the
    /// first event strictly after `now`, so it is always the state after
    /// every event at `<= now` (DESIGN.md §16).
    pub(crate) fn handle_sample(&mut self, sched: &mut Scheduler<'_, NetEvent>) {
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

    /// Scans every switch egress port for over-age pauses and flushes
    /// them (releasing MMU accounting for the dropped frames).
    fn run_watchdog(&mut self, now: Time, timeout: Delta, sched: &mut Scheduler<'_, NetEvent>) {
        for ni in 0..self.nodes.len() {
            let node = NodeId(ni);
            let ports = if self.is_host(node) { 0..0 } else { self.port_range(node) };
            for pi in ports {
                for class in 0..NUM_DATA_CLASSES as u8 {
                    let p = &self.ports[pi];
                    let since = p
                        .class_paused_since(class)
                        .or_else(|| p.port_paused_since().filter(|_| p.queue_bytes(class) > 0));
                    if since.is_some_and(|t| now.saturating_since(t) >= timeout) {
                        self.flush_paused_class(node, pi, class, now, sched);
                    }
                }
            }
        }
    }

    /// Captures the pending sample armed at `metrics_capture_at`:
    /// snapshots every switch's MMU occupancy and the global gauges
    /// into the observatory's staging slots (the next `Sample` tick
    /// commits them to the pre-allocated rings). Called from dispatch
    /// entry at the first event strictly after the sample instant,
    /// *before* that event mutates any state. Every value it reads is a
    /// running counter, so a capture costs O(switches).
    #[cold]
    pub(crate) fn capture_metrics(&mut self) {
        let t = self.metrics_capture_at;
        self.metrics_capture_at = Time::MAX;
        // Detach the observatory for the duration of the capture so the
        // switch scan below can borrow `self` freely.
        let Some(mut obs) = self.observe.take() else { return };
        // Node order is the sampler's registration order.
        for (_, s) in self.switches() {
            let snap = s.mmu.occupancy_snapshot();
            // The sampler's running counters must agree with the auditor's
            // scan at every sample instant (the determinism proptest runs
            // in debug mode and leans on this cross-check).
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
        obs.metrics.stage_global(GlobalSample {
            t,
            paused_ports: self.paused_ports,
            nacks_sent: self.nacks_sent,
            retransmitted_bytes: self.retransmitted_bytes,
            sr_retransmitted_bytes: self.sr_retransmitted_bytes,
            recovery_timeouts: self.recovery_timeouts,
        });
        self.observe = Some(obs);
    }
}

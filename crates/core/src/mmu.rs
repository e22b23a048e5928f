//! The Memory Management Unit: ingress admission, buffer accounting and
//! PFC flow-control decisions.
//!
//! The MMU is split in two: `MmuCore` owns the mechanism (byte counters,
//! pause flags, statistics, trace emission) and the [`Mmu`] facade drives
//! it with the policy its configured [`Scheme`] selects (SIH, DSH or the
//! no-PFC Lossy mode), one `match` per entry point.

use crate::action::{FcAction, FcActions, Outcome, Region};
use crate::audit::{AuditReport, AuditViolation};
use crate::config::{MmuConfig, Scheme};
use crate::dt::DtThreshold;
use crate::scheme::{dsh, lossy, sih};
use dsh_simcore::trace::{TraceEvent, Tracer};
use dsh_simcore::trace_event;

/// Per-ingress-queue accounting and PFC state.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct QueueState {
    /// Bytes in the private segment (≤ φ).
    pub(crate) private: u64,
    /// Bytes in the shared segment (`w_ij`).
    pub(crate) shared: u64,
    /// SIH only: bytes in this queue's static headroom (≤ η).
    pub(crate) headroom: u64,
    /// `true` = QOFF (upstream paused for this priority).
    pub(crate) paused: bool,
}

/// Per-ingress-port accounting and PFC state (DSH).
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct PortState {
    /// Sum of `shared` over this port's queues.
    pub(crate) shared_sum: u64,
    /// DSH only: bytes in this port's insurance headroom (≤ η).
    pub(crate) insurance: u64,
    /// `true` = POFF (upstream fully paused).
    pub(crate) paused: bool,
}

/// Tracks local maxima of a byte counter (used for the paper's Fig. 6
/// headroom-utilization analysis).
#[derive(Clone, Debug, Default)]
pub(crate) struct PeakTracker {
    pub(crate) current: u64,
    pub(crate) rising: bool,
    pub(crate) peaks: Vec<u64>,
}

impl PeakTracker {
    fn add(&mut self, bytes: u64) {
        self.current += bytes;
        self.rising = true;
    }

    fn sub(&mut self, bytes: u64) {
        if self.rising && self.current > 0 {
            // Turning point: the occupancy was rising and now falls.
            self.peaks.push(self.current);
        }
        self.rising = false;
        self.current = self.current.checked_sub(bytes).expect("peak tracker underflow");
    }

    /// Records the in-progress local maximum, if any. Without this, a
    /// measurement that ends while occupancy is still rising silently
    /// loses its final (often largest) peak.
    fn flush(&mut self) {
        if self.rising && self.current > 0 {
            self.peaks.push(self.current);
            self.rising = false;
        }
    }
}

/// Always-on drop attribution: for every dropped packet, each admission
/// rule it failed is counted. A single drop can increment several
/// counters (e.g. private full *and* over the DT threshold *and* headroom
/// full); the decisive last-resort rule is also reported per packet via
/// [`crate::Outcome::drop_reason`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DropAttribution {
    /// The queue's private segment (`φ`) could not take the packet.
    pub private_full: u64,
    /// The queue's shared occupancy would exceed the DT threshold `T(t)`
    /// (SIH shared admission).
    pub dt_threshold: u64,
    /// The shared pool itself (`B_s`) was physically full.
    pub shared_cap: u64,
    /// DSH: the port was in POFF, so shared admission was closed.
    pub port_paused: u64,
    /// SIH: the queue's static headroom (`η`) was full — the decisive rule.
    pub headroom_full: u64,
    /// DSH: the port's insurance headroom (`η`) was full — the decisive
    /// rule.
    pub insurance_full: u64,
    /// DSH ablation: insurance is disabled, so nothing could absorb the
    /// packet after the shared pool rejected it.
    pub insurance_disabled: u64,
    /// Lossy mode: the shared pool rejected the packet and a lossy switch
    /// drops instead of pausing (expected loss, not a violation).
    pub drop_tail: u64,
}

/// Per-ingress-port drop counters, so network-level reports can name the
/// (switch, port) a loss happened on.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PortDrops {
    /// Packets dropped arriving on this port.
    pub packets: u64,
    /// Bytes dropped arriving on this port.
    pub bytes: u64,
}

/// Aggregate MMU counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MmuStats {
    /// Packets admitted into any segment.
    pub admitted_packets: u64,
    /// Packets dropped (congestion loss — must stay 0 when upstreams obey
    /// PFC).
    pub dropped_packets: u64,
    /// Bytes dropped.
    pub dropped_bytes: u64,
    /// Queue-level PAUSE frames requested.
    pub queue_pauses: u64,
    /// Queue-level RESUME frames requested.
    pub queue_resumes: u64,
    /// Port-level PAUSE frames requested (DSH).
    pub port_pauses: u64,
    /// Port-level RESUME frames requested (DSH).
    pub port_resumes: u64,
}

/// A point-in-time view of an [`Mmu`]'s occupancy.
///
/// [`OccupancySnapshot::in_use`] totals the regions — the hook external
/// samplers (e.g. `dsh_net::observe`) use to bound occupancy against the
/// configured pool.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OccupancySnapshot {
    /// Total shared-segment bytes (`Σ w_ij`).
    pub shared: u64,
    /// Total private-segment bytes.
    pub private: u64,
    /// Total SIH headroom bytes in use.
    pub headroom: u64,
    /// Total DSH insurance bytes in use.
    pub insurance: u64,
    /// Current `T(t)`.
    pub threshold: u64,
    /// Queues currently in QOFF.
    pub paused_queues: usize,
    /// Ports currently in POFF.
    pub paused_ports: usize,
}

impl OccupancySnapshot {
    /// Total lossless-pool bytes in use across every region (shared +
    /// private + headroom + insurance) — always within the configured
    /// pool for a clean audit.
    #[must_use]
    pub fn in_use(&self) -> u64 {
        self.shared + self.private + self.headroom + self.insurance
    }
}

/// The scheme-independent mechanism of a lossless-pool MMU: region byte
/// counters, pause-flag flips, statistics, drop attribution and trace
/// emission.
///
/// The scheme policies drive this through the charge/release and
/// pause/resume helpers; the [`Mmu`] facade owns one `MmuCore`, selects
/// the policy and exposes the public API.
#[derive(Clone, Debug)]
pub(crate) struct MmuCore {
    pub(crate) cfg: MmuConfig,
    pub(crate) dt: DtThreshold,
    pub(crate) queues: Vec<QueueState>,
    pub(crate) ports: Vec<PortState>,
    pub(crate) total_shared: u64,
    pub(crate) headroom_peaks: Vec<PeakTracker>,
    pub(crate) stats: MmuStats,
    pub(crate) attribution: DropAttribution,
    pub(crate) port_drops: Vec<PortDrops>,
    pub(crate) tracer: Tracer,
    pub(crate) trace_node: u32,
}

impl MmuCore {
    fn new(cfg: MmuConfig) -> Self {
        let dt = DtThreshold::new(cfg.alpha, cfg.shared_size());
        let nq = cfg.total_queues();
        let np = cfg.num_ports;
        MmuCore {
            cfg,
            dt,
            queues: vec![QueueState::default(); nq],
            ports: vec![PortState::default(); np],
            total_shared: 0,
            headroom_peaks: vec![PeakTracker::default(); np],
            stats: MmuStats::default(),
            attribution: DropAttribution::default(),
            port_drops: vec![PortDrops::default(); np],
            tracer: Tracer::disabled(),
            trace_node: u32::MAX,
        }
    }

    pub(crate) fn qidx(&self, port: usize, queue: usize) -> usize {
        assert!(port < self.cfg.num_ports, "port {port} out of range");
        assert!(queue < self.cfg.queues_per_port, "queue {queue} out of range");
        port * self.cfg.queues_per_port + queue
    }

    /// Current Dynamic Threshold `T(t)` in bytes.
    #[must_use]
    pub(crate) fn threshold(&self) -> u64 {
        self.dt.threshold(self.total_shared)
    }

    /// DSH queue-level pause threshold `X_qoff(t) = T(t) − η` (Eq. 5) for
    /// a specific ingress port's `η`.
    #[must_use]
    pub(crate) fn x_qoff_for(&self, port: usize) -> u64 {
        self.threshold().saturating_sub(self.cfg.eta_for(port).as_u64())
    }

    /// DSH port-level pause threshold `X_poff(t) = N_q·T(t)` (Eq. 6).
    #[must_use]
    pub(crate) fn x_poff(&self) -> u64 {
        self.cfg.queues_per_port as u64 * self.threshold()
    }

    /// Port-level occupancy compared against `X_poff`/`X_pon`: shared plus
    /// insurance bytes of the port.
    pub(crate) fn port_total_occupancy(&self, port: usize) -> u64 {
        let p = &self.ports[port];
        p.shared_sum + p.insurance
    }

    // ---- region charge/release (the only occupancy mutators) ------------

    pub(crate) fn charge_private(&mut self, idx: usize, bytes: u64) {
        self.queues[idx].private += bytes;
    }

    pub(crate) fn charge_shared(&mut self, idx: usize, port: usize, bytes: u64) {
        self.queues[idx].shared += bytes;
        self.ports[port].shared_sum += bytes;
        self.total_shared += bytes;
    }

    pub(crate) fn charge_headroom(&mut self, idx: usize, port: usize, bytes: u64) {
        self.queues[idx].headroom += bytes;
        self.headroom_peaks[port].add(bytes);
    }

    pub(crate) fn charge_insurance(&mut self, port: usize, bytes: u64) {
        self.ports[port].insurance += bytes;
        self.headroom_peaks[port].add(bytes);
    }

    /// Releases a departing packet from the region its arrival charged.
    ///
    /// # Panics
    ///
    /// Panics with "departure exceeds admission" if the region's counter
    /// does not hold `bytes`, and on a region the running scheme never
    /// charges.
    pub(crate) fn release(&mut self, port: usize, queue: usize, bytes: u64, region: Region) {
        let idx = self.qidx(port, queue);
        match region {
            Region::Private => {
                let q = &mut self.queues[idx];
                q.private = q
                    .private
                    .checked_sub(bytes)
                    .expect("departure exceeds admission: private segment underflow");
            }
            Region::Shared => {
                let q = &mut self.queues[idx];
                q.shared = q
                    .shared
                    .checked_sub(bytes)
                    .expect("departure exceeds admission: shared segment underflow");
                self.ports[port].shared_sum -= bytes;
                self.total_shared -= bytes;
            }
            Region::Headroom => {
                assert_eq!(self.cfg.scheme, Scheme::Sih, "static headroom is SIH-only");
                let q = &mut self.queues[idx];
                q.headroom = q
                    .headroom
                    .checked_sub(bytes)
                    .expect("departure exceeds admission: headroom underflow");
                self.headroom_peaks[port].sub(bytes);
            }
            Region::Insurance => {
                assert_ne!(self.cfg.scheme, Scheme::Sih, "insurance headroom is DSH-only");
                let p = &mut self.ports[port];
                p.insurance = p
                    .insurance
                    .checked_sub(bytes)
                    .expect("departure exceeds admission: insurance underflow");
                self.headroom_peaks[port].sub(bytes);
            }
        }
    }

    // ---- pause/resume state machine --------------------------------------

    pub(crate) fn pause_queue(&mut self, port: usize, queue: usize, actions: &mut FcActions) {
        let idx = self.qidx(port, queue);
        if !self.queues[idx].paused {
            self.queues[idx].paused = true;
            self.stats.queue_pauses += 1;
            actions.push(FcAction::QueuePause { port, queue });
            trace_event!(self.tracer, TraceEvent::MmuQueuePause, {
                node: self.trace_node,
                port: port as u16,
                class: queue as u8,
                payload: self.queues[idx].shared,
            });
        }
    }

    pub(crate) fn pause_port(&mut self, port: usize, actions: &mut FcActions) {
        if !self.ports[port].paused {
            self.ports[port].paused = true;
            self.stats.port_pauses += 1;
            actions.push(FcAction::PortPause { port });
            trace_event!(self.tracer, TraceEvent::MmuPortPause, {
                node: self.trace_node,
                port: port as u16,
                payload: self.port_total_occupancy(port),
            });
        }
    }

    /// Resumes a paused queue once its shared occupancy has drained to
    /// `x_on` (`<=`, not `<`, so a fully drained queue always resumes even
    /// when the threshold itself is 0). The scheme supplies `x_on` — that
    /// is its resume policy.
    pub(crate) fn resume_queue_below(
        &mut self,
        port: usize,
        queue: usize,
        x_on: u64,
        actions: &mut FcActions,
    ) {
        let idx = self.qidx(port, queue);
        if !self.queues[idx].paused {
            return;
        }
        if self.queues[idx].shared <= x_on {
            self.queues[idx].paused = false;
            self.stats.queue_resumes += 1;
            actions.push(FcAction::QueueResume { port, queue });
            trace_event!(self.tracer, TraceEvent::MmuQueueResume, {
                node: self.trace_node,
                port: port as u16,
                class: queue as u8,
                payload: self.queues[idx].shared,
            });
        }
    }

    /// DSH's port-level resume check (Fig. 8b).
    /// Requires the insurance headroom to be empty so the next port-pause
    /// cycle has its full η of slack.
    pub(crate) fn check_resume_port(&mut self, port: usize, actions: &mut FcActions) {
        if !self.ports[port].paused {
            return;
        }
        if self.ports[port].insurance > 0 {
            return;
        }
        let x_pon = self.x_poff().saturating_sub(self.cfg.resume_delta_port.as_u64());
        if self.port_total_occupancy(port) <= x_pon {
            self.ports[port].paused = false;
            self.stats.port_resumes += 1;
            actions.push(FcAction::PortResume { port });
            trace_event!(self.tracer, TraceEvent::MmuPortResume, {
                node: self.trace_node,
                port: port as u16,
                payload: self.port_total_occupancy(port),
            });
        }
    }
}

/// The lossless-pool MMU of one switch.
///
/// See the [crate documentation](crate) for the model; drive it with
/// [`Mmu::on_arrival`] / [`Mmu::on_departure`].
#[derive(Clone, Debug)]
pub struct Mmu {
    core: MmuCore,
}

impl Mmu {
    /// Creates an MMU with the given configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see [`MmuConfig::validate`]).
    #[must_use]
    pub fn new(cfg: MmuConfig) -> Self {
        cfg.validate().expect("invalid MMU configuration");
        Mmu { core: MmuCore::new(cfg) }
    }

    /// Attaches a flight-recorder tracer; `node` tags every record this
    /// MMU emits (the switch's node id). Off by default.
    pub fn set_tracer(&mut self, tracer: Tracer, node: u32) {
        self.core.tracer = tracer;
        self.core.trace_node = node;
    }

    /// The configuration this MMU runs.
    #[must_use]
    pub fn config(&self) -> &MmuConfig {
        &self.core.cfg
    }

    /// Current Dynamic Threshold `T(t)` in bytes.
    #[must_use]
    pub fn threshold(&self) -> u64 {
        self.core.threshold()
    }

    /// DSH queue-level pause threshold `X_qoff(t) = T(t) − η` (Eq. 5),
    /// with the default `η`.
    #[must_use]
    pub fn x_qoff(&self) -> u64 {
        self.core.threshold().saturating_sub(self.core.cfg.eta.as_u64())
    }

    /// DSH queue-level pause threshold for a specific ingress port's `η`.
    #[must_use]
    pub fn x_qoff_for(&self, port: usize) -> u64 {
        self.core.x_qoff_for(port)
    }

    /// DSH port-level pause threshold `X_poff(t) = N_q·T(t)` (Eq. 6).
    #[must_use]
    pub fn x_poff(&self) -> u64 {
        self.core.x_poff()
    }

    /// Total shared-segment occupancy `Σ w_ij(t)`.
    #[must_use]
    pub fn total_shared(&self) -> u64 {
        self.core.total_shared
    }

    /// Shared occupancy `w_ij` of one ingress queue.
    #[must_use]
    pub fn shared_occupancy(&self, port: usize, queue: usize) -> u64 {
        self.core.queues[self.core.qidx(port, queue)].shared
    }

    /// SIH headroom occupancy of one ingress queue.
    #[must_use]
    pub fn headroom_occupancy(&self, port: usize, queue: usize) -> u64 {
        self.core.queues[self.core.qidx(port, queue)].headroom
    }

    /// Total occupancy of one ingress queue across all segments.
    #[must_use]
    pub fn queue_occupancy(&self, port: usize, queue: usize) -> u64 {
        let q = self.core.queues[self.core.qidx(port, queue)];
        q.private + q.shared + q.headroom
    }

    /// DSH insurance-headroom occupancy of one port.
    #[must_use]
    pub fn insurance_occupancy(&self, port: usize) -> u64 {
        self.core.ports[port].insurance
    }

    /// Sum of shared occupancies over a port's queues.
    #[must_use]
    pub fn port_shared_occupancy(&self, port: usize) -> u64 {
        self.core.ports[port].shared_sum
    }

    /// Per-port headroom occupancy (SIH: static headroom; DSH: insurance;
    /// Lossy: none). This is the quantity whose local maxima Fig. 6
    /// analyses.
    #[must_use]
    pub fn port_headroom_occupancy(&self, port: usize) -> u64 {
        let core = &self.core;
        match core.cfg.scheme {
            Scheme::Sih => {
                let base = port * core.cfg.queues_per_port;
                core.queues[base..base + core.cfg.queues_per_port].iter().map(|q| q.headroom).sum()
            }
            Scheme::Dsh => core.ports[port].insurance,
            Scheme::Lossy => 0,
        }
    }

    /// Whether a queue is in QOFF (upstream paused).
    #[must_use]
    pub fn queue_paused(&self, port: usize, queue: usize) -> bool {
        self.core.queues[self.core.qidx(port, queue)].paused
    }

    /// Whether a port is in POFF (upstream fully paused; DSH only).
    #[must_use]
    pub fn port_paused(&self, port: usize) -> bool {
        self.core.ports[port].paused
    }

    /// Aggregate counters.
    #[must_use]
    pub fn stats(&self) -> MmuStats {
        self.core.stats
    }

    /// Cumulative per-rule drop attribution (always on, release builds
    /// included).
    #[must_use]
    pub fn drop_attribution(&self) -> DropAttribution {
        self.core.attribution
    }

    /// Cumulative drop counters per ingress port.
    #[must_use]
    pub fn port_drops(&self) -> &[PortDrops] {
        &self.core.port_drops
    }

    /// A point-in-time snapshot of the MMU's buffer occupancy, useful for
    /// probes and debugging dashboards.
    #[must_use]
    pub fn occupancy_snapshot(&self) -> OccupancySnapshot {
        let mut private = 0;
        let mut headroom = 0;
        for q in &self.core.queues {
            private += q.private;
            headroom += q.headroom;
        }
        let insurance = self.core.ports.iter().map(|p| p.insurance).sum();
        OccupancySnapshot {
            shared: self.core.total_shared,
            private,
            headroom,
            insurance,
            threshold: self.core.threshold(),
            paused_queues: self.core.queues.iter().filter(|q| q.paused).count(),
            paused_ports: self.core.ports.iter().filter(|p| p.paused).count(),
        }
    }

    /// Drains and returns the recorded local maxima of per-port headroom
    /// occupancy (Fig. 6's measurement), one `Vec` per port.
    ///
    /// A still-rising occupancy counts as a final peak at its current
    /// value, so measurements that end mid-burst are not biased low.
    pub fn take_headroom_peaks(&mut self) -> Vec<Vec<u64>> {
        self.core
            .headroom_peaks
            .iter_mut()
            .map(|p| {
                p.flush();
                std::mem::take(&mut p.peaks)
            })
            .collect()
    }

    /// Admits a packet of `bytes` arriving at ingress `port` for priority
    /// `queue`.
    ///
    /// Returns where the packet was placed (`None` ⇒ dropped) plus any
    /// PAUSE/RESUME actions the switch must send upstream. The caller must
    /// remember the region and pass it to [`Mmu::on_departure`] when the
    /// packet leaves the switch.
    ///
    /// # Panics
    ///
    /// Panics if `port`/`queue` are out of range.
    pub fn on_arrival(&mut self, port: usize, queue: usize, bytes: u64) -> Outcome {
        let core = &mut self.core;
        let outcome = match core.cfg.scheme {
            Scheme::Sih => sih::on_arrival(core, port, queue, bytes),
            Scheme::Dsh => dsh::on_arrival(core, port, queue, bytes),
            Scheme::Lossy => lossy::on_arrival(core, port, queue, bytes),
        };
        if outcome.is_admitted() {
            core.stats.admitted_packets += 1;
            match outcome.region {
                Some(Region::Headroom) => {
                    trace_event!(core.tracer, TraceEvent::HeadroomEnter, {
                        node: core.trace_node,
                        port: port as u16,
                        class: queue as u8,
                        payload: core.queues[core.qidx(port, queue)].headroom,
                    });
                }
                Some(Region::Insurance) => {
                    trace_event!(core.tracer, TraceEvent::HeadroomEnter, {
                        node: core.trace_node,
                        port: port as u16,
                        class: queue as u8,
                        payload: core.ports[port].insurance,
                    });
                }
                _ => {}
            }
        } else {
            core.stats.dropped_packets += 1;
            core.stats.dropped_bytes += bytes;
            core.port_drops[port].packets += 1;
            core.port_drops[port].bytes += bytes;
            trace_event!(core.tracer, TraceEvent::MmuDrop, {
                node: core.trace_node,
                port: port as u16,
                class: queue as u8,
                payload: bytes,
            });
        }
        self.debug_check();
        outcome
    }

    /// Releases a packet's accounting when it leaves the switch (is
    /// scheduled for transmission on its egress port).
    ///
    /// `region` is the placement [`Mmu::on_arrival`] returned for this
    /// packet — the per-packet pool tag a real MMU keeps. Departure
    /// releases exactly the counter the arrival charged, so the
    /// accounting is exact regardless of the order queues drain in (the
    /// old heuristic headroom-first drain and its cross-queue "residual
    /// slop" settlement are gone).
    ///
    /// # Panics
    ///
    /// Panics with "departure exceeds admission" if the released region's
    /// counter does not hold `bytes` (the caller's tag is wrong, or more
    /// bytes depart than arrived).
    pub fn on_departure(
        &mut self,
        port: usize,
        queue: usize,
        bytes: u64,
        region: Region,
    ) -> FcActions {
        let core = &mut self.core;
        let actions = match core.cfg.scheme {
            Scheme::Sih => sih::on_departure(core, port, queue, bytes, region),
            Scheme::Dsh => dsh::on_departure(core, port, queue, bytes, region),
            Scheme::Lossy => {
                core.release(port, queue, bytes, region);
                FcActions::none()
            }
        };
        self.debug_check();
        actions
    }

    /// Audits every accounting invariant and returns a structured report.
    ///
    /// This is the release-build promotion of the old debug-only
    /// conservation checks: it never panics, and each violation names its
    /// invariant and the port/queue it failed on, so callers (integration
    /// tests, the network telemetry layer) can report *where* the
    /// accounting went wrong. Debug builds additionally assert a clean
    /// audit after every MMU transition.
    ///
    /// Invariants checked:
    ///
    /// * `queue-private-within-phi` — every queue's private occupancy ≤ φ;
    /// * `queue-headroom-within-eta` — SIH headroom occupancy ≤ η (per
    ///   port's η);
    /// * `port-shared-sum-consistent` — each port's cached `shared_sum`
    ///   equals the sum over its queues;
    /// * `total-shared-consistent` — the global `Σ w_ij` cache equals the
    ///   sum over all queues;
    /// * `shared-within-pool` — `Σ w_ij ≤ B_s`;
    /// * `insurance-within-eta` — each port's insurance occupancy ≤ η;
    /// * `queue-resumes-within-pauses` / `port-resumes-within-pauses` —
    ///   cumulative RESUME counts never exceed PAUSE counts;
    /// * scheme-specific arms: `dsh-no-static-headroom` /
    ///   `sih-no-insurance` / `sih-no-port-pause` /
    ///   `lossy-no-headroom` / `lossy-no-insurance` / `lossy-no-pause` —
    ///   segments and states a scheme never uses stay empty.
    #[must_use]
    pub fn audit(&self) -> AuditReport {
        let core = &self.core;
        let mut violations = Vec::new();
        let mut violate = |invariant, port, queue, expected: u64, actual: u64| {
            violations.push(AuditViolation { invariant, port, queue, expected, actual });
        };

        let phi = core.cfg.private_per_queue.as_u64();
        let mut sum_shared: u64 = 0;
        for (i, q) in core.queues.iter().enumerate() {
            let port = i / core.cfg.queues_per_port;
            let queue = i % core.cfg.queues_per_port;
            let eta = core.cfg.eta_for(port).as_u64();
            if q.private > phi {
                violate("queue-private-within-phi", Some(port), Some(queue), phi, q.private);
            }
            if q.headroom > eta {
                violate("queue-headroom-within-eta", Some(port), Some(queue), eta, q.headroom);
            }
            sum_shared += q.shared;
        }

        for (port, p) in core.ports.iter().enumerate() {
            let base = port * core.cfg.queues_per_port;
            let port_sum: u64 =
                core.queues[base..base + core.cfg.queues_per_port].iter().map(|q| q.shared).sum();
            if p.shared_sum != port_sum {
                violate("port-shared-sum-consistent", Some(port), None, port_sum, p.shared_sum);
            }
            let eta = core.cfg.eta_for(port).as_u64();
            if p.insurance > eta {
                violate("insurance-within-eta", Some(port), None, eta, p.insurance);
            }
        }

        if sum_shared != core.total_shared {
            violate("total-shared-consistent", None, None, sum_shared, core.total_shared);
        }
        if core.total_shared > core.dt.shared_size() {
            violate("shared-within-pool", None, None, core.dt.shared_size(), core.total_shared);
        }
        if core.stats.queue_resumes > core.stats.queue_pauses {
            violate(
                "queue-resumes-within-pauses",
                None,
                None,
                core.stats.queue_pauses,
                core.stats.queue_resumes,
            );
        }
        if core.stats.port_resumes > core.stats.port_pauses {
            violate(
                "port-resumes-within-pauses",
                None,
                None,
                core.stats.port_pauses,
                core.stats.port_resumes,
            );
        }

        match core.cfg.scheme {
            Scheme::Sih => sih::audit(core, &mut violations),
            Scheme::Dsh => dsh::audit(core, &mut violations),
            Scheme::Lossy => lossy::audit(core, &mut violations),
        }

        if let Some(first) = violations.first() {
            // A dirty audit is about to fail an assertion somewhere above;
            // record it and dump the flight recorder now, naming the
            // invariant, while the recent history is still intact.
            trace_event!(core.tracer, TraceEvent::AuditFail, {
                node: core.trace_node,
                payload: violations.len() as u64,
            });
            core.tracer.dump(
                &format!(
                    "MMU audit violation at node {}: {} (expected {}, actual {})",
                    core.trace_node, first.invariant, first.expected, first.actual
                ),
                64,
            );
        }
        AuditReport { scheme: core.cfg.scheme, snapshot: self.occupancy_snapshot(), violations }
    }

    /// Debug-build conservation checks: a full audit after every
    /// transition.
    fn debug_check(&self) {
        #[cfg(debug_assertions)]
        {
            let report = self.audit();
            debug_assert!(report.is_clean(), "MMU invariant violated:\n{report}");
        }
    }

    /// Deliberately corrupts a port's cached `shared_sum` by `delta`
    /// bytes. Exists so tests can prove [`Mmu::audit`] catches (and names)
    /// accounting corruption; never call it outside tests.
    #[doc(hidden)]
    pub fn corrupt_port_shared_sum_for_test(&mut self, port: usize, delta: u64) {
        self.core.ports[port].shared_sum += delta;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::DropReason;
    use dsh_simcore::ByteSize;

    fn small_cfg(scheme: Scheme) -> MmuConfig {
        MmuConfig::builder()
            .scheme(scheme)
            .total_buffer(ByteSize::mib(2))
            .ports(4)
            .lossless_queues(2)
            .private_per_queue(ByteSize::kib(3))
            .eta(ByteSize::bytes(50_000))
            .alpha(0.5)
            .build()
    }

    /// Drives arrivals of `n` packets of `sz` bytes into (port, queue),
    /// returning outcomes.
    fn blast(mmu: &mut Mmu, port: usize, queue: usize, n: usize, sz: u64) -> Vec<Outcome> {
        (0..n).map(|_| mmu.on_arrival(port, queue, sz)).collect()
    }

    #[test]
    fn private_fills_first() {
        let mut mmu = Mmu::new(small_cfg(Scheme::Sih));
        let o = mmu.on_arrival(0, 0, 1500);
        assert_eq!(o.region, Some(Region::Private));
        assert_eq!(mmu.queue_occupancy(0, 0), 1500);
        // 3 KiB private: two 1500 B packets fit, third goes to shared.
        let o = mmu.on_arrival(0, 0, 1500);
        assert_eq!(o.region, Some(Region::Private));
        let o = mmu.on_arrival(0, 0, 1500);
        assert_eq!(o.region, Some(Region::Shared));
    }

    #[test]
    fn sih_pauses_when_entering_headroom() {
        let mut mmu = Mmu::new(small_cfg(Scheme::Sih));
        let outcomes = blast(&mut mmu, 0, 0, 2000, 1500);
        let pause_at = outcomes
            .iter()
            .position(|o| {
                o.actions.iter().any(|a| matches!(a, FcAction::QueuePause { port: 0, queue: 0 }))
            })
            .expect("must eventually pause");
        assert_eq!(outcomes[pause_at].region, Some(Region::Headroom));
        assert!(mmu.queue_paused(0, 0));
        // All headroom-region packets stay within eta.
        assert!(mmu.headroom_occupancy(0, 0) <= 50_000);
    }

    #[test]
    fn sih_drops_only_after_headroom_full() {
        let mut mmu = Mmu::new(small_cfg(Scheme::Sih));
        let outcomes = blast(&mut mmu, 0, 0, 5000, 1000);
        let first_drop = outcomes.iter().position(|o| !o.is_admitted());
        let first_pause = outcomes
            .iter()
            .position(|o| o.actions.iter().any(|a| matches!(a, FcAction::QueuePause { .. })));
        let (drop, pause) = (first_drop.unwrap(), first_pause.unwrap());
        assert!(pause < drop, "pause {pause} must precede drop {drop}");
        // Between pause and drop, eta worth of packets was absorbed.
        let absorbed: u64 =
            outcomes[pause..drop].iter().filter(|o| o.region == Some(Region::Headroom)).count()
                as u64
                * 1000;
        assert!(absorbed >= 49_000, "absorbed {absorbed}");
    }

    #[test]
    fn sih_resume_after_drain() {
        let mut mmu = Mmu::new(small_cfg(Scheme::Sih));
        let outcomes = blast(&mut mmu, 0, 0, 400, 1500);
        assert!(mmu.queue_paused(0, 0));
        // Drain everything in arrival order.
        let mut resumed = false;
        for o in &outcomes {
            if let Some(r) = o.region {
                let acts = mmu.on_departure(0, 0, 1500, r);
                if acts.iter().any(|a| matches!(a, FcAction::QueueResume { port: 0, queue: 0 })) {
                    resumed = true;
                }
            }
        }
        assert!(resumed);
        assert!(!mmu.queue_paused(0, 0));
        assert_eq!(mmu.queue_occupancy(0, 0), 0);
        assert_eq!(mmu.total_shared(), 0);
    }

    #[test]
    fn dsh_queue_pause_at_t_minus_eta() {
        let mut mmu = Mmu::new(small_cfg(Scheme::Dsh));
        let outcomes = blast(&mut mmu, 0, 0, 2000, 1500);
        let pause_at = outcomes
            .iter()
            .position(|o| o.actions.iter().any(|a| matches!(a, FcAction::QueuePause { .. })))
            .expect("queue must pause");
        // At the pause instant the queue's shared occupancy just exceeded
        // X_qoff = T - eta.
        let w = 1500u64 * (pause_at as u64 + 1) - 3000; // minus private fill
        let x_qoff_now = mmu.x_qoff();
        // After the burst continued the threshold fell further, so the pause
        // point must be above the *current* X_qoff.
        assert!(w > x_qoff_now, "w={w} x_qoff={x_qoff_now}");
    }

    #[test]
    fn dsh_absorbs_more_than_sih_before_pausing() {
        // Identical chips; one queue bursts. DSH pauses at T - eta but its
        // shared pool is much larger (no static headroom reservation).
        let mut sih = Mmu::new(small_cfg(Scheme::Sih));
        let mut dsh = Mmu::new(small_cfg(Scheme::Dsh));
        let count_until_pause = |mmu: &mut Mmu| -> usize {
            for i in 0..10_000 {
                let o = mmu.on_arrival(0, 0, 1500);
                if o.actions.iter().any(|a| matches!(a, FcAction::QueuePause { .. })) {
                    return i;
                }
            }
            panic!("never paused");
        };
        let s = count_until_pause(&mut sih);
        let d = count_until_pause(&mut dsh);
        // SIH reserved 4*2*50000 = 400 KB of headroom out of 2 MiB, DSH only
        // 4*50000 = 200 KB; DSH's T is higher, but it also pauses eta early.
        // Net effect on this small chip: DSH still absorbs more.
        assert!(d > s, "DSH {d} <= SIH {s}");
    }

    #[test]
    fn dsh_port_pause_under_multi_queue_congestion() {
        let mut mmu = Mmu::new(small_cfg(Scheme::Dsh));
        // Both queues of port 0 blast; keep going until the port pauses.
        let mut port_paused = false;
        'outer: for _ in 0..20_000 {
            for q in 0..2 {
                let o = mmu.on_arrival(0, q, 1500);
                if o.actions.iter().any(|a| matches!(a, FcAction::PortPause { port: 0 })) {
                    port_paused = true;
                    break 'outer;
                }
                if !o.is_admitted() {
                    break 'outer;
                }
            }
        }
        assert!(port_paused, "port-level flow control must engage");
        assert!(mmu.port_paused(0));
        // After POFF, arrivals land in insurance headroom.
        let o = mmu.on_arrival(0, 0, 1500);
        assert_eq!(o.region, Some(Region::Insurance));
        assert!(mmu.insurance_occupancy(0) >= 1500);
    }

    #[test]
    fn dsh_drops_only_after_insurance_full() {
        let mut mmu = Mmu::new(small_cfg(Scheme::Dsh));
        let outcomes = blast(&mut mmu, 0, 0, 20_000, 1000);
        let first_drop =
            outcomes.iter().position(|o| !o.is_admitted()).expect("tiny chip must eventually drop");
        // Everything up to the drop was admitted, and insurance is nearly
        // full at the drop point.
        assert!(mmu.insurance_occupancy(0) + 1000 > 50_000);
        // Pause happened well before the drop.
        let first_port_pause = outcomes
            .iter()
            .position(|o| o.actions.iter().any(|a| matches!(a, FcAction::PortPause { .. })))
            .unwrap();
        assert!(first_port_pause < first_drop);
    }

    #[test]
    fn dsh_port_resume_after_drain() {
        let mut mmu = Mmu::new(small_cfg(Scheme::Dsh));
        let outcomes = blast(&mut mmu, 0, 0, 1000, 1500);
        assert!(mmu.port_paused(0));
        let mut port_resumed = false;
        for o in &outcomes {
            if let Some(r) = o.region {
                let acts = mmu.on_departure(0, 0, 1500, r);
                if acts.iter().any(|a| matches!(a, FcAction::PortResume { port: 0 })) {
                    port_resumed = true;
                }
            }
        }
        assert!(port_resumed);
        assert!(!mmu.port_paused(0));
        assert_eq!(mmu.insurance_occupancy(0), 0);
    }

    #[test]
    fn uncongested_queue_contributes_buffer_to_congested_one() {
        // Paper §IV-B: an uncongested queue leaves room, raising T and thus
        // X_qoff for others. With 1 congested queue the absorbed volume
        // should exceed the steady-state share under 2 congested queues.
        let cfg = small_cfg(Scheme::Dsh);
        let mut one = Mmu::new(cfg.clone());
        let n_one = (0..10_000)
            .take_while(|_| {
                let o = one.on_arrival(0, 0, 1500);
                !o.actions.into_iter().any(|a| matches!(a, FcAction::QueuePause { .. }))
            })
            .count();
        let mut two = Mmu::new(cfg);
        let mut n_two = 0;
        'l: for _ in 0..10_000 {
            for q in 0..2 {
                let o = two.on_arrival(0, q, 1500);
                if o.actions.iter().any(|a| matches!(a, FcAction::QueuePause { .. })) {
                    break 'l;
                }
                n_two += 1;
            }
        }
        // Per-queue absorption shrinks when more queues are congested, but
        // a single congested queue gets more than half the two-queue total.
        assert!(n_one > n_two / 2, "n_one={n_one} n_two={n_two}");
    }

    #[test]
    fn headroom_peaks_are_recorded() {
        let mut mmu = Mmu::new(small_cfg(Scheme::Sih));
        let outcomes = blast(&mut mmu, 0, 0, 400, 1500);
        // Drain fully: one local maximum at the high-water mark.
        let hw = mmu.port_headroom_occupancy(0);
        assert!(hw > 0);
        for o in &outcomes {
            if let Some(r) = o.region {
                let _ = mmu.on_departure(0, 0, 1500, r);
            }
        }
        let peaks = mmu.take_headroom_peaks();
        assert_eq!(peaks[0], vec![hw]);
        assert!(peaks[1].is_empty());
    }

    #[test]
    fn take_headroom_peaks_flushes_inprogress_peak() {
        // Occupancy still rising when measurement ends: the in-progress
        // maximum must be reported, not silently lost.
        let mut mmu = Mmu::new(small_cfg(Scheme::Sih));
        let _ = blast(&mut mmu, 0, 0, 400, 1500);
        let hw = mmu.port_headroom_occupancy(0);
        assert!(hw > 0, "burst must reach headroom");
        let peaks = mmu.take_headroom_peaks();
        assert_eq!(peaks[0], vec![hw]);
        // A second take without new traffic reports nothing new.
        assert!(mmu.take_headroom_peaks()[0].is_empty());
    }

    #[test]
    fn stats_track_pauses_and_drops() {
        let mut mmu = Mmu::new(small_cfg(Scheme::Sih));
        let _ = blast(&mut mmu, 0, 0, 5000, 1500);
        let st = mmu.stats();
        assert!(st.queue_pauses >= 1);
        assert!(st.dropped_packets > 0);
        assert_eq!(st.admitted_packets + st.dropped_packets, 5000);
        assert_eq!(st.dropped_bytes, st.dropped_packets * 1500);
    }

    #[test]
    fn occupancy_snapshot_tracks_segments() {
        let mut mmu = Mmu::new(small_cfg(Scheme::Sih));
        let _ = blast(&mut mmu, 0, 0, 100, 1500);
        let snap = mmu.occupancy_snapshot();
        assert_eq!(snap.private, 3000);
        assert_eq!(snap.shared, mmu.total_shared());
        assert_eq!(snap.shared + snap.private + snap.headroom, 100 * 1500);
        assert_eq!(snap.insurance, 0, "SIH never uses insurance");
    }

    #[test]
    fn ablated_dsh_drops_where_full_dsh_insures() {
        let mut b = MmuConfig::builder();
        b.scheme(Scheme::Dsh)
            .total_buffer(ByteSize::mib(2))
            .ports(4)
            .lossless_queues(2)
            .private_per_queue(ByteSize::kib(3))
            .eta(ByteSize::bytes(50_000))
            .alpha(0.5)
            .without_dsh_port_fc();
        let mut ablated = Mmu::new(b.build());
        let outcomes = blast(&mut ablated, 0, 0, 20_000, 1000);
        // Without insurance, the shared pool eventually rejects and there
        // is no second chance.
        assert!(outcomes.iter().any(|o| !o.is_admitted()), "ablated DSH must drop");
        assert_eq!(ablated.stats().port_pauses, 0, "no port-level FC when ablated");
        assert_eq!(ablated.insurance_occupancy(0), 0);
        // Attribution names the ablation, not a full insurance pool.
        let n_drop = outcomes.iter().filter(|o| !o.is_admitted()).count() as u64;
        assert_eq!(ablated.drop_attribution().insurance_disabled, n_drop);
        assert_eq!(ablated.drop_attribution().insurance_full, 0);
        assert!(outcomes
            .iter()
            .filter(|o| !o.is_admitted())
            .all(|o| o.drop_reason == Some(DropReason::InsuranceDisabled)));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_port_panics() {
        let mut mmu = Mmu::new(small_cfg(Scheme::Sih));
        let _ = mmu.on_arrival(99, 0, 100);
    }

    #[test]
    #[should_panic(expected = "departure exceeds admission")]
    fn mismatched_departure_panics() {
        let mut mmu = Mmu::new(small_cfg(Scheme::Sih));
        let _ = mmu.on_departure(0, 0, 100, Region::Shared);
    }

    #[test]
    fn audit_is_clean_under_normal_operation() {
        for scheme in Scheme::ALL {
            let mut mmu = Mmu::new(small_cfg(scheme));
            let outcomes = blast(&mut mmu, 0, 0, 500, 1500);
            assert!(mmu.audit().is_clean(), "{scheme}: {}", mmu.audit());
            // Partial drain keeps it clean too.
            for o in outcomes.iter().take(100) {
                if let Some(r) = o.region {
                    let _ = mmu.on_departure(0, 0, 1500, r);
                }
            }
            let report = mmu.audit();
            assert!(report.is_clean(), "{scheme}: {report}");
        }
    }

    #[test]
    fn audit_names_injected_corruption() {
        let mut mmu = Mmu::new(small_cfg(Scheme::Dsh));
        let _ = blast(&mut mmu, 0, 0, 100, 1500);
        mmu.corrupt_port_shared_sum_for_test(0, 500);
        let report = mmu.audit();
        assert!(!report.is_clean());
        let v = report
            .violations
            .iter()
            .find(|v| v.invariant == "port-shared-sum-consistent")
            .expect("corruption must be attributed to the shared-sum invariant");
        assert_eq!(v.port, Some(0));
        assert_eq!(v.actual, v.expected + 500);
        // The rendered report names the invariant and the port.
        let text = report.to_string();
        assert!(text.contains("port-shared-sum-consistent"), "{text}");
        assert!(text.contains("port 0"), "{text}");
    }

    #[test]
    fn drops_carry_reason_and_attribution() {
        // SIH: the decisive rule is always the static headroom.
        let mut sih = Mmu::new(small_cfg(Scheme::Sih));
        let outcomes = blast(&mut sih, 0, 0, 5000, 1000);
        let dropped: Vec<_> = outcomes.iter().filter(|o| !o.is_admitted()).collect();
        assert!(!dropped.is_empty());
        assert!(dropped.iter().all(|o| o.drop_reason == Some(DropReason::HeadroomFull)));
        let attr = sih.drop_attribution();
        assert_eq!(attr.headroom_full, dropped.len() as u64);
        assert_eq!(attr.private_full, dropped.len() as u64);
        assert!(attr.dt_threshold > 0, "shared rejections go through the DT rule");
        assert_eq!(attr.insurance_full + attr.insurance_disabled, 0);

        // DSH: insurance is the decisive rule.
        let mut dsh = Mmu::new(small_cfg(Scheme::Dsh));
        let outcomes = blast(&mut dsh, 0, 0, 20_000, 1000);
        let n_drop = outcomes.iter().filter(|o| !o.is_admitted()).count() as u64;
        assert!(n_drop > 0);
        assert_eq!(dsh.drop_attribution().insurance_full, n_drop);
        assert!(outcomes
            .iter()
            .filter(|o| !o.is_admitted())
            .all(|o| o.drop_reason == Some(DropReason::InsuranceFull)));
    }

    #[test]
    fn port_drops_name_the_ingress_port() {
        let mut mmu = Mmu::new(small_cfg(Scheme::Sih));
        let _ = blast(&mut mmu, 1, 0, 5000, 1000);
        let st = mmu.stats();
        assert!(st.dropped_packets > 0);
        let per_port = mmu.port_drops();
        assert_eq!(per_port[1].packets, st.dropped_packets);
        assert_eq!(per_port[1].bytes, st.dropped_bytes);
        assert_eq!(per_port[0], PortDrops::default());
    }
}

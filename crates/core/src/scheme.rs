//! Headroom-allocation policies: SIH, DSH and Lossy (no-PFC drop-tail).
//!
//! The MMU is split into mechanism and policy. The mechanism —
//! `MmuCore`: byte counters per region, pause-flag flips, statistics,
//! drop attribution and trace emission — is shared by every scheme, so the
//! conservation invariants [`crate::Mmu::audit`] checks hold no matter
//! which policy runs. A scheme supplies the policy: where an arriving
//! packet is accounted (admission), when PAUSE/RESUME frames are emitted
//! (flow control) and which extra invariants it adds to the audit.
//!
//! The contract (DESIGN.md, "The scheme-policy contract"):
//!
//! * a policy may observe any core state, but mutates occupancy and pause
//!   state exclusively through the `MmuCore` charge/release/pause/resume
//!   helpers (plus the drop-attribution counters), so the shared audit
//!   stays authoritative;
//! * a policy is stateless: arrivals and departures are deterministic
//!   functions of the core state and their arguments — no clocks, no
//!   randomness;
//! * the per-packet path stays allocation-free. [`crate::Mmu`] selects the
//!   policy with one `match` on [`crate::Scheme`] per entry point, so
//!   dispatch is static.

use crate::action::{DropReason, FcActions, Outcome, Region};
use crate::audit::AuditViolation;
use crate::mmu::MmuCore;

/// Static Independent Headroom (paper §III): worst-case `η` statically
/// reserved per ingress queue; queue-level PFC at the DT threshold.
pub(crate) mod sih {
    use super::*;

    /// Queue-level resume check (paper case ② / Fig. 8a): `X_on = T(t)`
    /// (the paper's `δ = 0`) against shared occupancy, gated on the
    /// queue's headroom having drained (otherwise the next pause cycle
    /// would find less than `η` of slack and could overflow).
    fn check_resume_queue(core: &mut MmuCore, port: usize, queue: usize, actions: &mut FcActions) {
        let idx = core.qidx(port, queue);
        if core.queues[idx].headroom > 0 {
            return;
        }
        let x_on = core.threshold();
        core.resume_queue_below(port, queue, x_on, actions);
    }

    pub(crate) fn on_arrival(core: &mut MmuCore, port: usize, queue: usize, bytes: u64) -> Outcome {
        let idx = core.qidx(port, queue);
        let phi = core.cfg.private_per_queue.as_u64();
        let eta = core.cfg.eta_for(port).as_u64();
        let t = core.threshold();

        let region = {
            let q = &core.queues[idx];
            if q.private + bytes <= phi {
                Some(Region::Private)
            } else if q.shared + bytes <= t && core.total_shared + bytes <= core.dt.shared_size() {
                Some(Region::Shared)
            } else if q.headroom + bytes <= eta {
                Some(Region::Headroom)
            } else {
                None
            }
        };

        let mut actions = FcActions::none();
        let mut drop_reason = None;
        match region {
            Some(Region::Private) => {
                core.charge_private(idx, bytes);
                check_resume_queue(core, port, queue, &mut actions);
            }
            Some(Region::Shared) => {
                core.charge_shared(idx, port, bytes);
                check_resume_queue(core, port, queue, &mut actions);
            }
            Some(Region::Headroom) => {
                core.charge_headroom(idx, port, bytes);
                // Case ③ (§II-C): entering headroom pauses the upstream.
                core.pause_queue(port, queue, &mut actions);
            }
            Some(Region::Insurance) => unreachable!("SIH never uses insurance"),
            None => {
                // Attribute the drop to every rule that rejected it.
                let q = &core.queues[idx];
                core.attribution.private_full += 1;
                if q.shared + bytes > t {
                    core.attribution.dt_threshold += 1;
                }
                if core.total_shared + bytes > core.dt.shared_size() {
                    core.attribution.shared_cap += 1;
                }
                core.attribution.headroom_full += 1;
                drop_reason = Some(DropReason::HeadroomFull);
                // Defensive: a drop means headroom was exhausted; make sure
                // the upstream is paused (it should already be).
                core.pause_queue(port, queue, &mut actions);
            }
        }

        Outcome { region, drop_reason, actions }
    }

    pub(crate) fn on_departure(
        core: &mut MmuCore,
        port: usize,
        queue: usize,
        bytes: u64,
        region: Region,
    ) -> FcActions {
        core.release(port, queue, bytes, region);
        let mut actions = FcActions::none();
        check_resume_queue(core, port, queue, &mut actions);
        actions
    }

    pub(crate) fn audit(core: &MmuCore, violations: &mut Vec<AuditViolation>) {
        for (port, p) in core.ports.iter().enumerate() {
            if p.insurance > 0 {
                violations.push(AuditViolation {
                    invariant: "sih-no-insurance",
                    port: Some(port),
                    queue: None,
                    expected: 0,
                    actual: p.insurance,
                });
            }
            if p.paused {
                violations.push(AuditViolation {
                    invariant: "sih-no-port-pause",
                    port: Some(port),
                    queue: None,
                    expected: 0,
                    actual: 1,
                });
            }
        }
    }
}

/// Dynamic and Shared Headroom (paper §IV): headroom folded into the
/// shared pool; queue pause at `X_qoff = T(t) − η` (Eq. 5), port pause at
/// `X_poff = N_q·T(t)` (Eq. 6) backed by per-port insurance headroom.
pub(crate) mod dsh {
    use super::*;

    /// DSH queue resume: `X_qon = X_qoff` (the paper's `δ_q = 0`). The
    /// slack here is recomputed from the live threshold (`T − w ≥ η`
    /// whenever `w ≤ X_qoff`), so no headroom-empty gate is needed.
    fn check_resume_queue(core: &mut MmuCore, port: usize, queue: usize, actions: &mut FcActions) {
        let x_on = core.x_qoff_for(port);
        core.resume_queue_below(port, queue, x_on, actions);
    }

    /// The shared-pool arrival state machine (paper Fig. 8): private →
    /// shared (gated on POFF and the pool cap) → insurance → drop.
    pub(crate) fn on_arrival(core: &mut MmuCore, port: usize, queue: usize, bytes: u64) -> Outcome {
        let idx = core.qidx(port, queue);
        let phi = core.cfg.private_per_queue.as_u64();
        let eta = core.cfg.eta_for(port).as_u64();

        let region = {
            let q = &core.queues[idx];
            let p = &core.ports[port];
            if q.private + bytes <= phi {
                Some(Region::Private)
            } else if !p.paused && core.total_shared + bytes <= core.dt.shared_size() {
                // PON: packets go into the shared segment, which includes
                // the dynamically allocated headroom (the paper's key idea).
                Some(Region::Shared)
            } else if core.cfg.dsh_port_fc && p.insurance + bytes <= eta {
                // POFF (or the shared pool is physically full): in-flight
                // packets are absorbed by the per-port insurance headroom.
                Some(Region::Insurance)
            } else {
                None
            }
        };

        let mut actions = FcActions::none();
        let mut drop_reason = None;
        match region {
            Some(Region::Private) => {
                core.charge_private(idx, bytes);
                check_resume_queue(core, port, queue, &mut actions);
                core.check_resume_port(port, &mut actions);
            }
            Some(Region::Shared) => {
                core.charge_shared(idx, port, bytes);
                // Recompute thresholds with the new occupancy and fire the
                // queue- and port-level state machines (Fig. 8).
                let x_qoff = core.x_qoff_for(port);
                let x_poff = core.x_poff();
                if core.queues[idx].shared > x_qoff {
                    core.pause_queue(port, queue, &mut actions);
                } else {
                    check_resume_queue(core, port, queue, &mut actions);
                }
                if core.cfg.dsh_port_fc && core.port_total_occupancy(port) > x_poff {
                    core.pause_port(port, &mut actions);
                }
            }
            Some(Region::Insurance) => {
                core.charge_insurance(port, bytes);
                // Insurance occupancy means the port must be (or go) POFF.
                core.pause_port(port, &mut actions);
            }
            Some(Region::Headroom) => unreachable!("DSH never uses static headroom"),
            None => {
                // Attribute the drop to every rule that rejected it.
                core.attribution.private_full += 1;
                if core.ports[port].paused {
                    core.attribution.port_paused += 1;
                }
                if core.total_shared + bytes > core.dt.shared_size() {
                    core.attribution.shared_cap += 1;
                }
                drop_reason = Some(if core.cfg.dsh_port_fc {
                    core.attribution.insurance_full += 1;
                    DropReason::InsuranceFull
                } else {
                    core.attribution.insurance_disabled += 1;
                    DropReason::InsuranceDisabled
                });
                if core.cfg.dsh_port_fc {
                    core.pause_port(port, &mut actions);
                }
            }
        }

        Outcome { region, drop_reason, actions }
    }

    pub(crate) fn on_departure(
        core: &mut MmuCore,
        port: usize,
        queue: usize,
        bytes: u64,
        region: Region,
    ) -> FcActions {
        core.release(port, queue, bytes, region);
        let mut actions = FcActions::none();
        check_resume_queue(core, port, queue, &mut actions);
        core.check_resume_port(port, &mut actions);
        actions
    }

    pub(crate) fn audit(core: &MmuCore, violations: &mut Vec<AuditViolation>) {
        audit_no_static_headroom(core, "dsh-no-static-headroom", violations);
    }
}

/// Lossy (drop-tail) mode: the IRN-style counterfactual to PFC.
///
/// Admission is DT against the shared pool exactly like SIH's shared
/// stage — private → shared gated on the per-queue threshold `T(t)` and
/// the pool cap — but past the threshold the packet is **dropped**, not
/// absorbed into headroom, and no PAUSE frame is ever emitted. Zero bytes
/// are reserved as headroom ([`crate::MmuConfig::reserved_headroom`]
/// returns 0), so the whole chip minus private buffer serves the shared
/// pool. ECN marking (applied at egress by the network layer) is the only
/// congestion signal; loss recovery is the transport's job.
pub(crate) mod lossy {
    use super::*;

    pub(crate) fn on_arrival(core: &mut MmuCore, port: usize, queue: usize, bytes: u64) -> Outcome {
        let idx = core.qidx(port, queue);
        let phi = core.cfg.private_per_queue.as_u64();
        let t = core.threshold();

        let region = {
            let q = &core.queues[idx];
            if q.private + bytes <= phi {
                Some(Region::Private)
            } else if q.shared + bytes <= t && core.total_shared + bytes <= core.dt.shared_size() {
                Some(Region::Shared)
            } else {
                None
            }
        };

        let mut drop_reason = None;
        match region {
            Some(Region::Private) => core.charge_private(idx, bytes),
            Some(Region::Shared) => core.charge_shared(idx, port, bytes),
            Some(_) => unreachable!("lossy mode only uses private and shared"),
            None => {
                // Attribute the drop to every rule that rejected it.
                let q = &core.queues[idx];
                core.attribution.private_full += 1;
                if q.shared + bytes > t {
                    core.attribution.dt_threshold += 1;
                }
                if core.total_shared + bytes > core.dt.shared_size() {
                    core.attribution.shared_cap += 1;
                }
                core.attribution.drop_tail += 1;
                drop_reason = Some(DropReason::DropTail);
            }
        }

        // Never any flow-control action: that is the definition of lossy.
        Outcome { region, drop_reason, actions: FcActions::none() }
    }

    pub(crate) fn audit(core: &MmuCore, violations: &mut Vec<AuditViolation>) {
        audit_no_static_headroom(core, "lossy-no-headroom", violations);
        for (port, p) in core.ports.iter().enumerate() {
            if p.insurance > 0 {
                violations.push(AuditViolation {
                    invariant: "lossy-no-insurance",
                    port: Some(port),
                    queue: None,
                    expected: 0,
                    actual: p.insurance,
                });
            }
            if p.paused {
                violations.push(AuditViolation {
                    invariant: "lossy-no-pause",
                    port: Some(port),
                    queue: None,
                    expected: 0,
                    actual: 1,
                });
            }
        }
        for (i, q) in core.queues.iter().enumerate() {
            if q.paused {
                violations.push(AuditViolation {
                    invariant: "lossy-no-pause",
                    port: Some(i / core.cfg.queues_per_port),
                    queue: Some(i % core.cfg.queues_per_port),
                    expected: 0,
                    actual: 1,
                });
            }
        }
    }
}

/// Audit arm for the schemes without static headroom (DSH, Lossy): the
/// static-headroom segment must stay empty.
fn audit_no_static_headroom(
    core: &MmuCore,
    invariant: &'static str,
    violations: &mut Vec<AuditViolation>,
) {
    for (i, q) in core.queues.iter().enumerate() {
        if q.headroom > 0 {
            violations.push(AuditViolation {
                invariant,
                port: Some(i / core.cfg.queues_per_port),
                queue: Some(i % core.cfg.queues_per_port),
                expected: 0,
                actual: q.headroom,
            });
        }
    }
}

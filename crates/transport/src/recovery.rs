//! Loss recovery (RoCEv2-style): go-back-N and IRN-style selective repeat.
//!
//! RoCEv2 NICs assume a lossless fabric, but frames are still lost: to a
//! drop-tail switch on a lossy fabric, or to the PFC watchdog's flush. A
//! lost frame would wedge its flow forever without a retransmission path. Commercial NICs recover with *go-back-N* — the receiver only
//! accepts the next in-order byte and acknowledges cumulatively; when the
//! sender's retransmission timeout (RTO) fires it rewinds to the last
//! cumulatively acknowledged byte and resends everything from there.
//!
//! IRN ("Revisiting Network Support for RDMA", SIGCOMM 2018) showed that
//! go-back-N wastes enormous bandwidth on a genuinely lossy fabric: one
//! drop re-sends the whole window. Its fix is *selective repeat*: the
//! receiver buffers out-of-order arrivals and reports them in explicit
//! NACK control frames carrying a sack bitmap, so the sender repairs only
//! the actual gaps. [`Regime`] selects between the two; [`SackState`] is
//! the selective-repeat sender's gap-tracking state.
//!
//! [`GoBackN`] is the per-flow sender timeout state machine shared by
//! both regimes: an adaptive SRTT/RTTVAR RTO (RFC 6298 shape, integer
//! picosecond arithmetic) with exponential backoff and a max-retry cap
//! that marks the flow **failed** (instead of retrying forever) so runs
//! always terminate. The NIC model owns the calendar events; this type
//! only decides *what* to do when the timer fires and how far the next
//! deadline is.

use dsh_simcore::{Delta, Time};

/// Which retransmission strategy a flow runs when frames are lost.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Regime {
    /// Cumulative ACKs only; an RTO rewinds to the last acknowledged byte
    /// and resends everything (commercial RoCEv2 NIC behaviour).
    #[default]
    GoBackN,
    /// IRN-style: the receiver buffers out-of-order data and NACKs the
    /// gaps with a sack bitmap; the sender repairs only what was lost.
    SelectiveRepeat,
}

impl std::fmt::Display for Regime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Regime::GoBackN => "GBN",
            Regime::SelectiveRepeat => "SR",
        })
    }
}

impl Regime {
    /// Stable lower-case tag for machine-readable exports (CLI operands
    /// and `metrics.json` use this form; [`std::fmt::Display`] stays the
    /// human-facing spelling).
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Regime::GoBackN => "gbn",
            Regime::SelectiveRepeat => "sr",
        }
    }
}

/// Tuning knobs for loss recovery (both regimes).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RecoveryConfig {
    /// Floor for the adaptive retransmission timeout. Before the first
    /// RTT sample this is also the initial RTO.
    pub min_rto: Delta,
    /// Ceiling for the adaptive RTO, backoff included.
    pub max_rto: Delta,
    /// Consecutive unproductive RTO firings tolerated before the flow is
    /// declared failed.
    pub max_retries: u32,
    /// Retransmission strategy. Receivers buffer out-of-order arrivals
    /// exactly under [`Regime::SelectiveRepeat`].
    pub regime: Regime,
}

impl RecoveryConfig {
    /// Defaults scaled from the base RTT: the RTO starts at `3 × base_rtt`
    /// (comfortably above one round trip plus queueing jitter), may back
    /// off through 8 doublings (`max_rto = 256 × min_rto`), and gives up
    /// after 8 unproductive retries. The regime defaults to go-back-N —
    /// the historical behaviour every existing experiment pins.
    #[must_use]
    pub fn for_rtt(base_rtt: Delta) -> Self {
        let min_rto = base_rtt * 3;
        RecoveryConfig {
            min_rto,
            max_rto: Delta::from_ps(min_rto.as_ps().saturating_mul(256)),
            max_retries: 8,
            regime: Regime::GoBackN,
        }
    }

    /// Returns a copy running IRN-style selective repeat.
    #[must_use]
    pub fn selective_repeat(mut self) -> Self {
        self.regime = Regime::SelectiveRepeat;
        self
    }

    /// Checks internal coherence.
    ///
    /// # Errors
    ///
    /// Rejects a ceiling below the floor.
    pub fn validate(&self) -> Result<(), String> {
        if self.max_rto < self.min_rto {
            return Err(format!(
                "recovery max_rto ({} ns) is below min_rto ({} ns)",
                self.max_rto.as_ns(),
                self.min_rto.as_ns()
            ));
        }
        Ok(())
    }
}

/// RFC 6298-shaped smoothed RTT estimator in integer picoseconds.
///
/// First sample: `SRTT = R`, `RTTVAR = R/2`. Thereafter
/// `RTTVAR = 3/4·RTTVAR + 1/4·|SRTT − R|` and
/// `SRTT = 7/8·SRTT + 1/8·R`. The RTO is `SRTT + 4·RTTVAR` clamped to
/// the config's `[min_rto, max_rto]`. Samples must follow Karn's rule —
/// never taken from retransmitted segments — which the NIC enforces by
/// clearing its RTT probe whenever a retransmission rewinds or repairs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RttEstimator {
    srtt_ps: u64,
    rttvar_ps: u64,
    primed: bool,
}

impl RttEstimator {
    /// An estimator with no samples yet (RTO falls back to `min_rto`).
    #[must_use]
    pub fn new() -> Self {
        RttEstimator::default()
    }

    /// Whether at least one sample has been absorbed.
    #[must_use]
    pub fn primed(&self) -> bool {
        self.primed
    }

    /// The smoothed RTT (zero before the first sample).
    #[must_use]
    pub fn srtt(&self) -> Delta {
        Delta::from_ps(self.srtt_ps)
    }

    /// Absorbs one (non-retransmitted) RTT measurement.
    pub fn observe(&mut self, sample: Delta) {
        let r = sample.as_ps();
        if self.primed {
            let dev = self.srtt_ps.abs_diff(r);
            self.rttvar_ps = self.rttvar_ps - self.rttvar_ps / 4 + dev / 4;
            self.srtt_ps = self.srtt_ps - self.srtt_ps / 8 + r / 8;
        } else {
            self.srtt_ps = r;
            self.rttvar_ps = r / 2;
            self.primed = true;
        }
    }

    /// `SRTT + 4·RTTVAR` clamped to the config's bounds; `min_rto` until
    /// primed.
    #[must_use]
    pub fn rto(&self, cfg: &RecoveryConfig) -> Delta {
        if !self.primed {
            return cfg.min_rto;
        }
        let raw = self.srtt_ps.saturating_add(self.rttvar_ps.saturating_mul(4));
        Delta::from_ps(raw.clamp(cfg.min_rto.as_ps(), cfg.max_rto.as_ps()))
    }
}

/// What the NIC must do after an RTO firing.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RtoOutcome {
    /// Retransmit (go-back-N rewinds the send cursor; selective repeat
    /// re-arms gap repair from the last cumulative ACK); the timer has
    /// been re-armed with the backed-off RTO.
    Retransmit,
    /// The retry budget is exhausted: mark the flow failed and stop.
    Failed,
}

/// Per-flow sender timeout state, shared by both regimes (the name
/// predates selective repeat; only the *rewind on timeout* part is
/// go-back-N-specific, and that lives in the NIC).
#[derive(Clone, Copy, Debug)]
pub struct GoBackN {
    cfg: RecoveryConfig,
    est: RttEstimator,
    /// Consecutive RTO firings since the last cumulative-ACK progress.
    retries: u32,
    /// Current (backed-off) timeout.
    rto: Delta,
    failed: bool,
}

impl GoBackN {
    /// Fresh state with the initial RTO armed-able.
    #[must_use]
    pub fn new(cfg: RecoveryConfig) -> Self {
        GoBackN { cfg, est: RttEstimator::new(), retries: 0, rto: cfg.min_rto, failed: false }
    }

    /// The configuration this flow recovers under.
    #[must_use]
    pub fn config(&self) -> &RecoveryConfig {
        &self.cfg
    }

    /// The flow's retransmission regime.
    #[must_use]
    pub fn regime(&self) -> Regime {
        self.cfg.regime
    }

    /// The current (backed-off) timeout.
    #[must_use]
    pub fn rto(&self) -> Delta {
        self.rto
    }

    /// The smoothed-RTT estimator (telemetry/tests).
    #[must_use]
    pub fn estimator(&self) -> &RttEstimator {
        &self.est
    }

    /// Retries burned since the last progress.
    #[must_use]
    pub fn retries(&self) -> u32 {
        self.retries
    }

    /// Whether the flow has exhausted its retry budget.
    #[must_use]
    pub fn failed(&self) -> bool {
        self.failed
    }

    /// The retry count and current RTO packed into one flight-recorder
    /// payload word: retries in the top 16 bits, RTO nanoseconds
    /// (saturating at 2^48−1) below — the encoding the Chrome-trace
    /// exporter's `retransmit` markers decode.
    #[must_use]
    pub fn trace_payload(&self) -> u64 {
        const NS_MASK: u64 = (1 << 48) - 1;
        (u64::from(self.retries) << 48) | self.rto.as_ns().min(NS_MASK)
    }

    /// The deadline for a timer armed at `now`.
    #[must_use]
    pub fn deadline(&self, now: Time) -> Time {
        now + self.rto
    }

    /// One clean (Karn-valid) RTT measurement. Outside backoff the armed
    /// RTO tracks the estimate immediately.
    pub fn on_rtt_sample(&mut self, sample: Delta) {
        self.est.observe(sample);
        if self.retries == 0 {
            self.rto = self.est.rto(&self.cfg);
        }
    }

    /// Cumulative-ACK progress: the path is alive again, so the backoff
    /// and retry budget reset (to the adaptive RTO once primed).
    pub fn on_progress(&mut self) {
        self.retries = 0;
        self.rto = self.est.rto(&self.cfg);
    }

    /// The RTO fired with data still outstanding. Returns what to do;
    /// on [`RtoOutcome::Retransmit`] the internal RTO has already been
    /// doubled (capped at `max_rto`) for the next arming.
    pub fn on_timeout(&mut self) -> RtoOutcome {
        if self.retries >= self.cfg.max_retries {
            self.failed = true;
            return RtoOutcome::Failed;
        }
        self.retries += 1;
        self.rto = Delta::from_ps(self.rto.as_ps().saturating_mul(2).min(self.cfg.max_rto.as_ps()));
        RtoOutcome::Retransmit
    }
}

/// Selective-repeat sender gap state: the latest receiver-reported sack
/// bitmap plus a repair cursor.
///
/// All offsets are absolute byte positions in the flow; segments start at
/// multiples of the MTU (the NIC sends MTU-sized frames except the tail).
/// The bitmap is relative to the cumulative ACK: bit `k` set ⇔ the
/// segment starting at `acked + (k+1)·mtu` was delivered out of order.
/// Bit 0's segment (`acked` itself) is missing by definition — that is
/// what makes the ACK stop there.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SackState {
    /// Receiver-reported out-of-order delivery bitmap (see type docs).
    bitmap: u64,
    /// Next repair-scan offset. The cursor is *persistent*: it only moves
    /// forward, so a hole gets exactly one repair per NACK round — the
    /// receiver NACKs every out-of-order arrival, and without this a
    /// single hole would be re-repaired once per duplicate NACK for a
    /// whole round trip (a repair storm). Only [`rearm_on_timeout`]
    /// rewinds it (the repair itself may have been lost).
    ///
    /// [`rearm_on_timeout`]: SackState::rearm_on_timeout
    cursor: u64,
    /// Repairs stop here (exclusive): the highest offset the receiver's
    /// NACK gave us delivery information about. Above it segments are
    /// presumed still in flight.
    high: u64,
    /// End of the current loss episode: `Cc::on_loss` fires once per
    /// episode, and a new episode starts only once the cumulative ACK
    /// passes this mark (one rate cut per window, TCP-NewReno style).
    episode_end: u64,
}

impl SackState {
    /// Fresh state: nothing reported, nothing pending.
    #[must_use]
    pub fn new() -> Self {
        SackState { bitmap: 0, cursor: 0, high: 0, episode_end: 0 }
    }

    /// Whether gap repairs are pending (unscanned holes below the sack
    /// horizon).
    #[must_use]
    pub fn repair_pending(&self) -> bool {
        self.cursor < self.high
    }

    /// The latest receiver-reported bitmap (telemetry/tests).
    #[must_use]
    pub fn bitmap(&self) -> u64 {
        self.bitmap
    }

    /// Absorbs one NACK: `acked` is the receiver's cumulative mark (the
    /// caller has already advanced its own cumulative state to it),
    /// `bitmap` the out-of-order delivery map relative to `acked`.
    /// Returns `true` if this starts a new loss episode (the caller cuts
    /// the congestion window exactly once per episode).
    ///
    /// A duplicate NACK (no new delivery information) is a no-op for the
    /// repair cursor: holes already scanned this round have a repair in
    /// flight and must not be resent until the RTO says otherwise. Fresh
    /// information — a higher cumulative mark or a taller bitmap — only
    /// extends the horizon, so only the *new* holes get scanned.
    pub fn on_nack(&mut self, acked: u64, bitmap: u64, mtu: u64, max_sent: u64) -> bool {
        self.bitmap = bitmap;
        // Delivery information covers up to the highest sacked segment;
        // with an empty bitmap only the segment at `acked` is known lost.
        let top = 64 - bitmap.leading_zeros() as u64; // sacked segments above acked
        self.high = self.high.max((acked + (top + 1) * mtu).min(max_sent));
        self.cursor = self.cursor.max(acked);
        if acked >= self.episode_end {
            self.episode_end = max_sent;
            return true;
        }
        false
    }

    /// Cumulative progress to `new_acked`: shift the bitmap down so it
    /// stays relative to the ACK, and never repair below it.
    pub fn on_cum_advance(&mut self, advanced_bytes: u64, new_acked: u64, mtu: u64) {
        let segs = advanced_bytes / mtu;
        self.bitmap = if segs >= 64 { 0 } else { self.bitmap >> segs };
        self.cursor = self.cursor.max(new_acked);
    }

    /// The RTO fired: rewind the scan to the cumulative ACK so every
    /// still-missing segment gets resent (the previous repairs — or every
    /// NACK — may themselves have been lost).
    pub fn rearm_on_timeout(&mut self, acked: u64, mtu: u64) {
        self.cursor = acked;
        self.high = self.high.max(acked + mtu);
    }

    /// Next gap to repair at or above the cumulative ACK, if any; the
    /// cursor advances past it. Sacked segments are skipped.
    pub fn next_repair(&mut self, acked: u64, mtu: u64) -> Option<u64> {
        while self.cursor < self.high {
            let o = self.cursor.max(acked);
            if o >= self.high {
                self.cursor = o;
                return None;
            }
            self.cursor = o + mtu;
            let seg = (o - acked) / mtu;
            let sacked = seg > 0 && (self.bitmap >> (seg - 1)) & 1 == 1;
            if !sacked {
                return Some(o);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> RecoveryConfig {
        RecoveryConfig {
            min_rto: Delta::from_us(48),
            max_rto: Delta::from_ms(10),
            max_retries: 3,
            regime: Regime::GoBackN,
        }
    }

    fn mk() -> GoBackN {
        GoBackN::new(cfg())
    }

    #[test]
    fn backoff_doubles_until_failure() {
        let mut g = mk();
        assert_eq!(g.rto(), Delta::from_us(48));
        assert_eq!(g.on_timeout(), RtoOutcome::Retransmit);
        assert_eq!(g.rto(), Delta::from_us(96));
        assert_eq!(g.on_timeout(), RtoOutcome::Retransmit);
        assert_eq!(g.rto(), Delta::from_us(192));
        assert_eq!(g.on_timeout(), RtoOutcome::Retransmit);
        assert_eq!(g.rto(), Delta::from_us(384));
        // 4th consecutive firing exceeds max_retries = 3.
        assert_eq!(g.on_timeout(), RtoOutcome::Failed);
        assert!(g.failed());
    }

    #[test]
    fn backoff_caps_at_max_rto() {
        let mut g = GoBackN::new(RecoveryConfig { max_rto: Delta::from_us(100), ..cfg() });
        g.on_timeout();
        assert_eq!(g.rto(), Delta::from_us(96));
        g.on_timeout();
        assert_eq!(g.rto(), Delta::from_us(100), "backoff must clamp at max_rto");
    }

    #[test]
    fn progress_resets_backoff_and_budget() {
        let mut g = mk();
        g.on_timeout();
        g.on_timeout();
        assert_eq!(g.retries(), 2);
        g.on_progress();
        assert_eq!(g.retries(), 0);
        assert_eq!(g.rto(), Delta::from_us(48));
        assert!(!g.failed());
    }

    #[test]
    fn deadline_is_now_plus_rto() {
        let mut g = mk();
        assert_eq!(g.deadline(Time::from_us(100)), Time::from_us(148));
        g.on_timeout();
        assert_eq!(g.deadline(Time::from_us(100)), Time::from_us(196));
    }

    #[test]
    fn for_rtt_scales_min_rto() {
        let cfg = RecoveryConfig::for_rtt(Delta::from_us(16));
        assert_eq!(cfg.min_rto, Delta::from_us(48));
        assert_eq!(cfg.max_retries, 8);
        assert_eq!(cfg.regime, Regime::GoBackN);
        // 8 doublings from the floor stay representable under the cap.
        assert_eq!(cfg.max_rto, Delta::from_us(48 * 256));
        cfg.validate().expect("defaults must be coherent");
    }

    #[test]
    fn validation_rejects_incoherent_configs() {
        let bad = RecoveryConfig { max_rto: Delta::from_us(1), ..cfg() };
        assert!(bad.validate().unwrap_err().contains("below min_rto"));
        cfg().validate().expect("base config is coherent");
        RecoveryConfig::for_rtt(Delta::from_us(16))
            .selective_repeat()
            .validate()
            .expect("selective repeat is coherent");
    }

    #[test]
    fn estimator_follows_rfc6298_shape() {
        let mut e = RttEstimator::new();
        let c = cfg();
        assert_eq!(e.rto(&c), Delta::from_us(48), "unprimed falls back to min_rto");
        e.observe(Delta::from_us(20));
        // First sample: srtt = 20 µs, rttvar = 10 µs, rto = 60 µs.
        assert_eq!(e.srtt(), Delta::from_us(20));
        assert_eq!(e.rto(&c), Delta::from_us(60));
        // A long stream of identical samples converges rttvar → 0, so the
        // RTO clamps up to min_rto.
        for _ in 0..200 {
            e.observe(Delta::from_us(20));
        }
        assert_eq!(e.rto(&c), Delta::from_us(48), "steady RTT must clamp at the floor");
        // A spike reopens the variance term.
        e.observe(Delta::from_us(200));
        assert!(e.rto(&c) > Delta::from_us(48));
        assert!(e.rto(&c) <= c.max_rto);
    }

    #[test]
    fn rtt_samples_tighten_the_armed_rto() {
        let mut g = mk();
        g.on_rtt_sample(Delta::from_us(30));
        // srtt = 30, rttvar = 15 → 90 µs.
        assert_eq!(g.rto(), Delta::from_us(90));
        // During backoff the armed RTO is left alone…
        g.on_timeout();
        let backed_off = g.rto();
        g.on_rtt_sample(Delta::from_us(30));
        assert_eq!(g.rto(), backed_off);
        // …until progress resets it to the adaptive value.
        g.on_progress();
        assert!(g.rto() < backed_off);
    }

    #[test]
    fn sack_repairs_only_gaps() {
        let mtu = 1000;
        let mut s = SackState::new();
        assert!(!s.repair_pending());
        // Receiver holds segments at 1000 and 3000 (bits 0 and 2),
        // cumulative ack 0, sender has sent through 5000.
        let episode = s.on_nack(0, 0b101, mtu, 5000);
        assert!(episode, "first NACK opens a loss episode");
        assert!(s.repair_pending());
        // Gaps at 0 and 2000; 4000 is above the sack horizon (presumed in
        // flight), 1000/3000 are sacked.
        assert_eq!(s.next_repair(0, mtu), Some(0));
        assert_eq!(s.next_repair(0, mtu), Some(2000));
        assert_eq!(s.next_repair(0, mtu), None);
        assert!(!s.repair_pending());
        // A second NACK inside the same episode doesn't cut the window
        // again.
        assert!(!s.on_nack(0, 0b101, mtu, 5000));
        // Progress past the episode end opens a new episode.
        s.on_cum_advance(5000, 5000, mtu);
        assert_eq!(s.bitmap(), 0);
        assert!(s.on_nack(5000, 0b1, mtu, 8000));
    }

    #[test]
    fn sack_bitmap_shifts_with_cumulative_progress() {
        let mtu = 1000;
        let mut s = SackState::new();
        s.on_nack(0, 0b110, mtu, 6000); // 2000 and 3000 delivered
        assert_eq!(s.next_repair(0, mtu), Some(0));
        assert_eq!(s.next_repair(0, mtu), Some(1000));
        // Repairing 0 and 1000 lets the receiver advance through 4000.
        s.on_cum_advance(4000, 4000, mtu);
        assert_eq!(s.bitmap(), 0, "all sacked segments absorbed by the cum ack");
        assert!(!s.repair_pending(), "cursor may not trail below the cum ack");
    }

    #[test]
    fn timeout_rearms_repair_from_the_ack() {
        let mtu = 1500;
        let mut s = SackState::new();
        s.on_nack(3000, 0, mtu, 9000);
        assert_eq!(s.next_repair(3000, mtu), Some(3000));
        assert_eq!(s.next_repair(3000, mtu), None);
        // Every later NACK was lost; the RTO re-arms the first gap.
        s.rearm_on_timeout(3000, mtu);
        assert_eq!(s.next_repair(3000, mtu), Some(3000));
    }
}

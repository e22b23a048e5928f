//! MMU configuration: buffer partitioning parameters and chip presets.

use crate::headroom;
use dsh_simcore::{Bandwidth, ByteSize, Delta};

/// Which headroom allocation scheme the MMU runs.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Scheme {
    /// Static Independent Headroom — today's practice: worst-case `η`
    /// reserved per ingress queue (paper §III).
    Sih,
    /// Dynamic and Shared Headroom — the paper's contribution (§IV).
    Dsh,
    /// Lossy (no-PFC) mode — the IRN-style counterfactual: zero bytes
    /// reserved as headroom, drop-tail admission against the DT-governed
    /// shared pool, and **no flow-control actions ever** (a frame past
    /// its threshold is dropped, not paused upstream). Loss recovery is
    /// the NICs' problem; the MMU only attributes the drops.
    Lossy,
}

impl Scheme {
    /// Every *lossless* scheme, in sweep order (SIH first, matching the
    /// paper's baseline-then-contribution presentation). [`Scheme::Lossy`]
    /// is deliberately excluded: the paper's figure sweeps compare PFC
    /// headroom schemes, and the lossy counterfactual gets its own figure
    /// (fig17).
    pub const ALL: [Scheme; 2] = [Scheme::Sih, Scheme::Dsh];

    /// Whether this scheme guarantees losslessness via PFC. `false` only
    /// for [`Scheme::Lossy`].
    #[must_use]
    pub fn is_lossless(self) -> bool {
        !matches!(self, Scheme::Lossy)
    }
}

impl std::fmt::Display for Scheme {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Scheme::Sih => "SIH",
            Scheme::Dsh => "DSH",
            Scheme::Lossy => "Lossy",
        })
    }
}

/// Complete configuration of a lossless-pool MMU.
///
/// Construct via [`MmuConfig::builder`] or a chip preset such as
/// [`MmuConfig::tomahawk`].
#[derive(Clone, Debug, PartialEq)]
pub struct MmuConfig {
    /// Headroom scheme under test.
    pub scheme: Scheme,
    /// Total lossless-pool buffer.
    pub total_buffer: ByteSize,
    /// Number of (ingress) ports.
    pub num_ports: usize,
    /// Number of lossless queues per port (`N_q`; the paper uses 7, with
    /// the 8th queue reserved for control traffic outside the MMU).
    pub queues_per_port: usize,
    /// Private buffer reserved per queue (`φ`).
    pub private_per_queue: ByteSize,
    /// Per-queue worst-case headroom `η` (Eq. 1) of each port (index =
    /// port). Real deployments size headroom per port from that port's
    /// link speed and cable length; mixed-speed fabrics (e.g. 100G
    /// downlinks + 400G uplinks) need this.
    pub eta: Vec<ByteSize>,
    /// Dynamic Threshold control parameter `α` (Eq. 2).
    pub alpha: f64,
    /// Ablation switch: disable DSH's port-level flow control and
    /// insurance headroom, leaving only queue-level pauses at
    /// `T(t) − η`. **Not lossless** — exists to demonstrate why the
    /// insurance headroom is necessary (DESIGN.md ablations).
    pub dsh_port_fc: bool,
}

impl MmuConfig {
    /// Starts building a configuration.
    #[must_use]
    pub fn builder() -> MmuConfigBuilder {
        MmuConfigBuilder::default()
    }

    /// The Broadcom Tomahawk emulation used throughout the paper's
    /// evaluation (§V-A): 32×100 Gb/s ports, 16 MB shared memory, 7 DWRR
    /// lossless queues per port, 3 KB private buffer per queue, `α = 1/16`,
    /// 2 µs link delay ⇒ `η = 56840 B`.
    #[must_use]
    pub fn tomahawk(scheme: Scheme) -> MmuConfig {
        MmuConfig::builder()
            .scheme(scheme)
            .total_buffer(ByteSize::mib(16))
            .ports(32)
            .lossless_queues(7)
            .private_per_queue(ByteSize::kib(3))
            .eta(headroom::eta(Bandwidth::from_gbps(100), Delta::from_us(2), 1500))
            .alpha(1.0 / 16.0)
            .build()
    }

    /// The headroom `η` for one port.
    ///
    /// # Panics
    ///
    /// Panics if `port` is out of range.
    #[must_use]
    pub fn eta_for(&self, port: usize) -> ByteSize {
        self.eta[port]
    }

    /// Size of the statically reserved headroom segment.
    ///
    /// SIH: `Σ_p N_q·η_p` (Eq. 3). DSH: the insurance headroom `Σ_p η_p`
    /// (Eq. 4).
    #[must_use]
    pub fn reserved_headroom(&self) -> ByteSize {
        let per_port_sum: u64 = self.eta.iter().map(|e| e.as_u64()).sum();
        match self.scheme {
            Scheme::Sih => ByteSize::bytes(self.queues_per_port as u64 * per_port_sum),
            Scheme::Dsh if self.dsh_port_fc => ByteSize::bytes(per_port_sum),
            Scheme::Dsh => ByteSize::ZERO,
            // The whole point: a lossy switch holds not one byte hostage.
            Scheme::Lossy => ByteSize::ZERO,
        }
    }

    /// Total private buffer (`N_p·N_q·φ`).
    #[must_use]
    pub fn total_private(&self) -> ByteSize {
        ByteSize::bytes(
            self.num_ports as u64 * self.queues_per_port as u64 * self.private_per_queue.as_u64(),
        )
    }

    /// Size of the shared segment `B_s`: what remains after private and
    /// reserved headroom. For DSH this includes the (dynamically shared)
    /// headroom, which is the scheme's key advantage.
    #[must_use]
    pub fn shared_size(&self) -> ByteSize {
        self.total_buffer
            .saturating_sub(self.total_private())
            .saturating_sub(self.reserved_headroom())
    }

    /// Total number of lossless queues (`N_p·N_q`).
    #[must_use]
    pub fn total_queues(&self) -> usize {
        self.num_ports * self.queues_per_port
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.num_ports == 0 || self.queues_per_port == 0 {
            return Err("port and queue counts must be positive".into());
        }
        if !(self.alpha.is_finite() && self.alpha > 0.0) {
            return Err("alpha must be a positive finite number".into());
        }
        if self.eta.len() != self.num_ports {
            return Err(format!("eta has {} entries for {} ports", self.eta.len(), self.num_ports));
        }
        if self.eta.iter().any(|e| e.as_u64() == 0) {
            return Err("eta must be positive".into());
        }
        if self.shared_size().as_u64() == 0 {
            return Err(format!(
                "no shared buffer left: total={} private={} reserved headroom={}",
                self.total_buffer,
                self.total_private(),
                self.reserved_headroom()
            ));
        }
        Ok(())
    }
}

/// Builder for [`MmuConfig`].
#[derive(Clone, Debug)]
pub struct MmuConfigBuilder {
    scheme: Scheme,
    total_buffer: ByteSize,
    num_ports: usize,
    queues_per_port: usize,
    private_per_queue: ByteSize,
    eta: ByteSize,
    port_etas: Option<Vec<ByteSize>>,
    alpha: f64,
    dsh_port_fc: bool,
}

impl Default for MmuConfigBuilder {
    fn default() -> Self {
        MmuConfigBuilder {
            scheme: Scheme::Dsh,
            total_buffer: ByteSize::mib(16),
            num_ports: 32,
            queues_per_port: 7,
            private_per_queue: ByteSize::kib(3),
            eta: ByteSize::bytes(56_840),
            port_etas: None,
            alpha: 1.0 / 16.0,
            dsh_port_fc: true,
        }
    }
}

impl MmuConfigBuilder {
    /// Sets the headroom scheme.
    pub fn scheme(&mut self, scheme: Scheme) -> &mut Self {
        self.scheme = scheme;
        self
    }

    /// Sets the total lossless-pool buffer size.
    pub fn total_buffer(&mut self, b: ByteSize) -> &mut Self {
        self.total_buffer = b;
        self
    }

    /// Sets the number of ports.
    pub fn ports(&mut self, n: usize) -> &mut Self {
        self.num_ports = n;
        self
    }

    /// Sets the number of lossless queues per port.
    pub fn lossless_queues(&mut self, n: usize) -> &mut Self {
        self.queues_per_port = n;
        self
    }

    /// Sets the private buffer per queue (`φ`).
    pub fn private_per_queue(&mut self, b: ByteSize) -> &mut Self {
        self.private_per_queue = b;
        self
    }

    /// Sets the same `η` for every port.
    pub fn eta(&mut self, b: ByteSize) -> &mut Self {
        self.eta = b;
        self
    }

    /// Sets a per-port `η` table (index = port) in place of the uniform
    /// [`MmuConfigBuilder::eta`]; its length is validated at build time.
    pub fn port_etas(&mut self, v: Vec<ByteSize>) -> &mut Self {
        self.port_etas = Some(v);
        self
    }

    /// Sets the DT control parameter `α`.
    pub fn alpha(&mut self, a: f64) -> &mut Self {
        self.alpha = a;
        self
    }

    /// Ablation: disables DSH's port-level flow control + insurance
    /// headroom (queue-level only; **not lossless**).
    pub fn without_dsh_port_fc(&mut self) -> &mut Self {
        self.dsh_port_fc = false;
        self
    }

    /// Finalizes the configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is inconsistent (see
    /// [`MmuConfig::validate`]); use [`MmuConfigBuilder::try_build`] to
    /// handle errors.
    #[must_use]
    pub fn build(&self) -> MmuConfig {
        self.try_build().expect("invalid MMU configuration")
    }

    /// Finalizes the configuration.
    ///
    /// # Errors
    ///
    /// Returns the first violated constraint.
    pub fn try_build(&self) -> Result<MmuConfig, String> {
        let cfg = MmuConfig {
            scheme: self.scheme,
            total_buffer: self.total_buffer,
            num_ports: self.num_ports,
            queues_per_port: self.queues_per_port,
            private_per_queue: self.private_per_queue,
            eta: self.port_etas.clone().unwrap_or_else(|| vec![self.eta; self.num_ports]),
            alpha: self.alpha,
            dsh_port_fc: self.dsh_port_fc,
        };
        cfg.validate()?;
        Ok(cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tomahawk_preset_matches_paper() {
        let sih = MmuConfig::tomahawk(Scheme::Sih);
        assert!(sih.eta.iter().all(|e| e.as_u64() == 56_840));
        // "The total headroom size for SIH is 56840B x 32 x 7 = 12MB."
        assert_eq!(sih.reserved_headroom().as_u64(), 56_840 * 32 * 7);
        // "The private buffer size is 672KB (3KB for each DWRR queue)."
        assert_eq!(sih.total_private(), ByteSize::kib(672));
        assert!((sih.alpha - 0.0625).abs() < 1e-12);

        let dsh = MmuConfig::tomahawk(Scheme::Dsh);
        assert_eq!(dsh.reserved_headroom().as_u64(), 56_840 * 32);
        // DSH leaves far more shared buffer than SIH.
        assert!(dsh.shared_size().as_u64() > 4 * sih.shared_size().as_u64());
    }

    #[test]
    fn builder_roundtrip() {
        let cfg = MmuConfig::builder()
            .scheme(Scheme::Sih)
            .total_buffer(ByteSize::mib(12))
            .ports(8)
            .lossless_queues(4)
            .private_per_queue(ByteSize::kib(1))
            .eta(ByteSize::bytes(10_000))
            .alpha(0.5)
            .build();
        assert_eq!(cfg.total_queues(), 32);
        assert_eq!(cfg.reserved_headroom().as_u64(), 320_000);
        assert_eq!(cfg.eta, vec![ByteSize::bytes(10_000); 8]);
    }

    #[test]
    fn invalid_configs_are_rejected() {
        assert!(MmuConfig::builder().ports(0).try_build().is_err());
        assert!(MmuConfig::builder().alpha(-1.0).try_build().is_err());
        assert!(MmuConfig::builder().eta(ByteSize::ZERO).try_build().is_err());
        // Headroom larger than the chip: no shared buffer left.
        assert!(MmuConfig::builder()
            .scheme(Scheme::Sih)
            .total_buffer(ByteSize::mib(1))
            .try_build()
            .is_err());
    }

    #[test]
    fn scheme_display() {
        assert_eq!(Scheme::Sih.to_string(), "SIH");
        assert_eq!(Scheme::Dsh.to_string(), "DSH");
    }

    #[test]
    fn lossy_reserves_zero_headroom() {
        let lossy = MmuConfig::tomahawk(Scheme::Lossy);
        assert_eq!(lossy.reserved_headroom(), ByteSize::ZERO);
        // Everything that isn't private buffer is shared pool.
        assert_eq!(lossy.shared_size(), lossy.total_buffer.saturating_sub(lossy.total_private()));
        assert!(!Scheme::Lossy.is_lossless());
        assert!(Scheme::ALL.iter().all(|s| s.is_lossless()), "ALL lists PFC schemes only");
        assert_eq!(Scheme::Lossy.to_string(), "Lossy");
    }
}

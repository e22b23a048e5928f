//! Physical units used throughout the simulator: link bandwidth and byte
//! counts.

use crate::time::Delta;
use std::fmt;
use std::ops::{Add, AddAssign, Sub, SubAssign};

/// Link bandwidth in bits per second.
///
/// The key operation is [`Bandwidth::tx_delay`], which converts a frame size
/// into exact wire time (picosecond resolution, rounded up so a frame never
/// finishes "early").
///
/// # Example
///
/// ```
/// use dsh_simcore::{Bandwidth, Delta};
/// let c = Bandwidth::from_gbps(100);
/// // 1500 B at 100 Gb/s = 120 ns.
/// assert_eq!(c.tx_delay(1500), Delta::from_ns(120));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct Bandwidth(u64);

/// Bits per byte times picoseconds per second: the numerator of every
/// serialization time.
const PS_BITS_PER_BYTE: u64 = 8 * 1_000_000_000_000;

impl Bandwidth {
    /// Creates a bandwidth from raw bits per second.
    #[must_use]
    pub const fn from_bps(bps: u64) -> Self {
        Bandwidth(bps)
    }

    /// Creates a bandwidth from megabits per second.
    #[must_use]
    pub const fn from_mbps(mbps: u64) -> Self {
        Bandwidth(mbps * 1_000_000)
    }

    /// Creates a bandwidth from gigabits per second.
    #[must_use]
    pub const fn from_gbps(gbps: u64) -> Self {
        Bandwidth(gbps * 1_000_000_000)
    }

    /// Returns the bandwidth in bits per second.
    #[must_use]
    pub const fn as_bps(self) -> u64 {
        self.0
    }

    /// Returns the bandwidth in fractional Gb/s.
    #[must_use]
    pub fn as_gbps_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Returns the bandwidth in bytes per second.
    #[must_use]
    pub const fn bytes_per_sec(self) -> u64 {
        self.0 / 8
    }

    /// Time to serialize `bytes` onto the wire, rounded up to the next
    /// picosecond.
    ///
    /// # Panics
    ///
    /// Panics if the bandwidth is zero.
    #[must_use]
    #[inline]
    pub fn tx_delay(self, bytes: u64) -> Delta {
        assert!(self.0 > 0, "cannot transmit on a zero-bandwidth link");
        // ps = bytes * 8 bits * 1e12 / bps: in u64 whenever the numerator
        // fits (every frame up to ~2.3 MB), in u128 for larger transfers.
        match bytes.checked_mul(PS_BITS_PER_BYTE) {
            Some(num) => Delta::from_ps(num.div_ceil(self.0)),
            None => Self::tx_delay_wide(bytes, self.0),
        }
    }

    /// The serialization time of one byte in picoseconds, when that is a
    /// whole number (8·10¹² is a multiple of the rate: 80 ps at 100 Gb/s,
    /// 320 ps at 25 Gb/s). `tx_delay(n)` is then exactly `n` times it.
    #[must_use]
    pub const fn exact_ps_per_byte(self) -> Option<u64> {
        if self.0 != 0 && PS_BITS_PER_BYTE.is_multiple_of(self.0) {
            Some(PS_BITS_PER_BYTE / self.0)
        } else {
            None
        }
    }

    /// [`Bandwidth::tx_delay`] for transfers whose numerator overflows
    /// `u64`.
    #[inline(never)]
    fn tx_delay_wide(bytes: u64, bps: u64) -> Delta {
        let num = u128::from(bytes) * 8 * 1_000_000_000_000u128;
        let ps = num.div_ceil(u128::from(bps));
        Delta::from_ps(u64::try_from(ps).expect("transmission delay overflow"))
    }

    /// Number of whole bytes that can be serialized in `d`.
    #[must_use]
    pub fn bytes_in(self, d: Delta) -> u64 {
        let bits = (self.0 as u128) * (d.as_ps() as u128) / 1_000_000_000_000u128;
        u64::try_from(bits / 8).expect("byte count overflow")
    }
}

impl fmt::Display for Bandwidth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 && self.0.is_multiple_of(1_000_000_000) {
            write!(f, "{}Gbps", self.0 / 1_000_000_000)
        } else {
            write!(f, "{}bps", self.0)
        }
    }
}

/// A byte count with convenience constructors for buffer sizing.
///
/// # Example
///
/// ```
/// use dsh_simcore::ByteSize;
/// assert_eq!(ByteSize::mib(16).as_u64(), 16 * 1024 * 1024);
/// assert_eq!(ByteSize::kib(3) + ByteSize::bytes(1), ByteSize::bytes(3073));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct ByteSize(u64);

impl ByteSize {
    /// Zero bytes.
    pub const ZERO: ByteSize = ByteSize(0);

    /// Creates a byte count.
    #[must_use]
    pub const fn bytes(n: u64) -> Self {
        ByteSize(n)
    }

    /// Creates a byte count from binary kilobytes (1024 B).
    #[must_use]
    pub const fn kib(n: u64) -> Self {
        ByteSize(n * 1024)
    }

    /// Creates a byte count from binary megabytes (1024² B).
    #[must_use]
    pub const fn mib(n: u64) -> Self {
        ByteSize(n * 1024 * 1024)
    }

    /// Returns the raw byte count.
    #[must_use]
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// Returns the byte count as fractional MiB.
    #[must_use]
    pub fn as_mib_f64(self) -> f64 {
        self.0 as f64 / (1024.0 * 1024.0)
    }

    /// Saturating subtraction.
    #[must_use]
    pub fn saturating_sub(self, rhs: ByteSize) -> ByteSize {
        ByteSize(self.0.saturating_sub(rhs.0))
    }
}

impl Add for ByteSize {
    type Output = ByteSize;
    fn add(self, rhs: ByteSize) -> ByteSize {
        ByteSize(self.0.checked_add(rhs.0).expect("byte size overflow"))
    }
}

impl AddAssign for ByteSize {
    fn add_assign(&mut self, rhs: ByteSize) {
        *self = *self + rhs;
    }
}

impl Sub for ByteSize {
    type Output = ByteSize;
    fn sub(self, rhs: ByteSize) -> ByteSize {
        ByteSize(self.0.checked_sub(rhs.0).expect("byte size underflow"))
    }
}

impl SubAssign for ByteSize {
    fn sub_assign(&mut self, rhs: ByteSize) {
        *self = *self - rhs;
    }
}

impl fmt::Display for ByteSize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1024 * 1024 {
            write!(f, "{:.2}MiB", self.as_mib_f64())
        } else if self.0 >= 1024 {
            write!(f, "{:.1}KiB", self.0 as f64 / 1024.0)
        } else {
            write!(f, "{}B", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Delta;

    #[test]
    fn tx_delay_exact_values() {
        // 1500 B at 40 Gb/s = 300 ns.
        assert_eq!(Bandwidth::from_gbps(40).tx_delay(1500), Delta::from_ns(300));
        // 64 B at 100 Gb/s = 5.12 ns = 5120 ps.
        assert_eq!(Bandwidth::from_gbps(100).tx_delay(64), Delta::from_ps(5120));
        // Zero bytes serialize instantly.
        assert_eq!(Bandwidth::from_gbps(100).tx_delay(0), Delta::ZERO);
    }

    #[test]
    fn tx_delay_agrees_across_the_u64_boundary() {
        // The largest byte count whose numerator fits u64, and the next
        // one, which takes the u128 path: both round up exactly.
        let edge = u64::MAX / 8_000_000_000_000;
        for bps in [3, 1_000_000_007, 100_000_000_000, u64::MAX] {
            let c = Bandwidth::from_bps(bps);
            for bytes in [edge - 1, edge, edge + 1, edge * 1000] {
                let exact = (u128::from(bytes) * 8_000_000_000_000).div_ceil(u128::from(bps));
                if let Ok(ps) = u64::try_from(exact) {
                    assert_eq!(c.tx_delay(bytes).as_ps(), ps, "{bytes} B at {bps} bps");
                }
            }
        }
    }

    #[test]
    fn exact_ps_per_byte_only_for_whole_picoseconds() {
        assert_eq!(Bandwidth::from_gbps(100).exact_ps_per_byte(), Some(80));
        assert_eq!(Bandwidth::from_gbps(25).exact_ps_per_byte(), Some(320));
        assert_eq!(Bandwidth::from_bps(3).exact_ps_per_byte(), None);
        assert_eq!(Bandwidth::from_bps(0).exact_ps_per_byte(), None);
        for bps in [40_000_000_000, 400_000_000_000, 1_000_000_007] {
            let c = Bandwidth::from_bps(bps);
            if let Some(ps) = c.exact_ps_per_byte() {
                assert_eq!(c.tx_delay(1500).as_ps(), 1500 * ps);
            }
        }
    }

    #[test]
    fn tx_delay_rounds_up() {
        // 1 byte at 3 bps: 8/3 s -> must round up, not truncate.
        let d = Bandwidth::from_bps(3).tx_delay(1);
        assert_eq!(d.as_ps(), 2_666_666_666_667);
    }

    #[test]
    fn bytes_in_inverts_tx_delay() {
        let c = Bandwidth::from_gbps(100);
        for &n in &[1u64, 64, 1500, 9000, 1_000_000] {
            let d = c.tx_delay(n);
            let back = c.bytes_in(d);
            assert!(back >= n && back <= n + 1, "{n} -> {back}");
        }
    }

    #[test]
    fn bandwidth_display() {
        assert_eq!(Bandwidth::from_gbps(100).to_string(), "100Gbps");
        assert_eq!(Bandwidth::from_mbps(40).to_string(), "40000000bps");
    }

    #[test]
    fn byte_size_arithmetic_and_display() {
        let b = ByteSize::mib(12);
        assert_eq!(b.as_u64(), 12 * 1024 * 1024);
        assert_eq!((b - ByteSize::mib(4)).as_mib_f64(), 8.0);
        assert_eq!(ByteSize::bytes(100).saturating_sub(ByteSize::kib(1)), ByteSize::ZERO);
        assert_eq!(ByteSize::bytes(512).to_string(), "512B");
        assert_eq!(ByteSize::kib(2).to_string(), "2.0KiB");
        assert_eq!(ByteSize::mib(16).to_string(), "16.00MiB");
    }

    #[test]
    fn bytes_per_sec_matches() {
        assert_eq!(Bandwidth::from_gbps(100).bytes_per_sec(), 12_500_000_000);
    }
}

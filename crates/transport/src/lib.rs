//! End-to-end congestion control for the DSH simulator.
//!
//! The paper evaluates DSH under two state-of-the-art transports plus raw
//! (uncontrolled) senders:
//!
//! * [`Dcqcn`] — rate-based ECN feedback control for RoCEv2 (Zhu et al.,
//!   SIGCOMM 2015), the transport with the higher persistent buffer
//!   occupancy in the paper's experiments;
//! * [`PowerTcp`] — window-based in-network-telemetry control (Addanki et
//!   al., NSDI 2022), which keeps persistent queues near zero;
//! * [`Uncontrolled`] — line-rate senders for microbenchmarks (sub-BDP
//!   bursts are uncontrollable by any end-to-end scheme within the first
//!   RTT, which is the paper's §III point).
//!
//! All transports implement the [`Cc`] trait; the NIC model in `dsh-net`
//! holds each flow's transport inline as an [`AnyCc`], which forwards to
//! the variant with a static `match`. A transport never touches the
//! simulator directly: the NIC forwards ACK/CNP/timer events and queries
//! the current pacing [`rate`](Cc::rate) and [`cwnd`](Cc::cwnd_bytes).
//!
//! # Example
//!
//! ```
//! use dsh_transport::{Cc, Dcqcn};
//! use dsh_simcore::{Bandwidth, Time};
//!
//! let mut cc = Dcqcn::new(Bandwidth::from_gbps(100));
//! let before = cc.rate();
//! cc.on_cnp(Time::from_us(10));
//! assert!(cc.rate() < before, "a CNP must cut the sending rate");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cc;
mod dcqcn;
mod powertcp;
mod receiver;
mod recovery;
mod telemetry;

pub use cc::{AckInfo, AnyCc, Cc, CcKind, Uncontrolled};
pub use dcqcn::Dcqcn;
pub use powertcp::PowerTcp;
pub use receiver::{CnpPolicy, SackBuffer};
pub use recovery::{GoBackN, RecoveryConfig, Regime, RtoOutcome, RttEstimator, SackState};
pub use telemetry::{HopList, TelemetryHop, HOP_CAPACITY};

use dsh_simcore::{Bandwidth, Delta};

/// Constructs a transport instance of the given kind for a sender attached
/// to a `link` with the given base round-trip time.
#[must_use]
pub fn new_cc(kind: CcKind, link: Bandwidth, base_rtt: Delta) -> AnyCc {
    match kind {
        CcKind::Uncontrolled => AnyCc::Uncontrolled(Uncontrolled::new(link)),
        CcKind::Dcqcn => AnyCc::Dcqcn(Dcqcn::new(link)),
        CcKind::PowerTcp => AnyCc::PowerTcp(PowerTcp::new(link, base_rtt)),
    }
}

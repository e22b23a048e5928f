//! Packet-level datacenter network dataplane for the DSH reproduction.
//!
//! This crate plays the role ns-3's network stack played for the paper's
//! evaluation: store-and-forward switches with shared-buffer MMUs
//! (`dsh-core`), DWRR-scheduled priority queues, real in-band PFC
//! PAUSE/RESUME frames with standard processing delays, ECN marking, host
//! NICs driven by the transports in `dsh-transport`, and topology/routing
//! builders (leaf–spine, fat-tree, ECMP with local reroute around links
//! removed before the build).
//!
//! # Model summary
//!
//! * **Links** are full-duplex with configurable bandwidth and propagation
//!   delay; frames are delivered `serialization + propagation` after
//!   transmission starts (store-and-forward).
//! * **Egress ports** have 8 queues: queue 7 is a strict-priority control
//!   queue (ACK/CNP/PFC, exempt from PFC pause — the paper's setup), queues
//!   0–6 carry lossless data classes under DWRR with a 1600 B quantum.
//! * **PFC** pause/resume is applied one `3840 B / C` processing delay
//!   after the frame arrives (IEEE 802.1Qbb); waiting and response delays
//!   emerge naturally from non-preemptive transmission.
//! * **Switch ingress accounting** is delegated to [`dsh_core::Mmu`], which
//!   decides placement (private/shared/headroom/insurance), drops, and
//!   PFC actions for both SIH and DSH.
//!
//! # Example: two hosts through one switch
//!
//! ```
//! use dsh_net::{NetworkBuilder, NetParams, FlowSpec};
//! use dsh_core::Scheme;
//! use dsh_simcore::{Bandwidth, Delta, Time};
//! use dsh_transport::CcKind;
//!
//! let mut b = NetworkBuilder::new(NetParams::tomahawk(Scheme::Dsh));
//! let h0 = b.host();
//! let h1 = b.host();
//! let s = b.switch();
//! b.link(h0, s, Bandwidth::from_gbps(100), Delta::from_us(2));
//! b.link(h1, s, Bandwidth::from_gbps(100), Delta::from_us(2));
//! let mut net = b.build();
//! net.add_flow(FlowSpec {
//!     src: h0,
//!     dst: h1,
//!     size: 1_000_000,
//!     class: 0,
//!     start: Time::ZERO,
//!     cc: CcKind::Uncontrolled,
//! });
//! let mut sim = net.into_sim();
//! sim.run_until(Time::from_ms(10));
//! let net = sim.into_model();
//! assert_eq!(net.fct_records().len(), 1, "flow must complete");
//! assert_eq!(net.data_drops(), 0, "lossless network must not drop");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod arena;
mod builder;
mod dataplane;
mod ecn;
mod flow_control;
mod frame;
mod host;
mod ids;
mod monitor;
mod network;
pub mod observe;
mod port;
mod routing;
pub mod topology;

pub use arena::FrameId;
pub use builder::{FidelityMode, NetParams, NetworkBuilder};
pub use frame::{AckFrame, DataFrame, Frame, FrameKind, NackFrame, PfcFrame, PfcScope};
pub use ids::{FlowId, NodeId, CONTROL_CLASS, NUM_CLASSES, NUM_DATA_CLASSES};
pub use monitor::{
    ClassPauseTelemetry, DurationHistogram, FctRecord, PauseLedger, PortPauseTelemetry,
    SwitchTelemetry, TelemetryReport, ThroughputSample,
};
pub use network::{FlowSpec, NetEvent, Network};
pub use observe::{CascadeReport, FlowPauseAttribution, ObserveConfig, PauseEdge};
pub use port::{EgressPort, IngressTag, QueuedFrame, DWRR_QUANTUM};
pub use routing::{ecmp_hash, RouteTable};

//! Switch MMU buffer management for PFC-enabled datacenter switches —
//! the core contribution of *"Less is More: Dynamic and Shared Headroom
//! Allocation in PFC-Enabled Datacenter Networks"* (ICDCS 2023).
//!
//! A lossless (PFC) switch must reserve *headroom* buffer beyond the PFC
//! pause threshold to absorb in-flight packets while a PAUSE frame takes
//! effect. This crate implements, as a pure chip-level state machine:
//!
//! * the classic **SIH** scheme (Static, Independent Headroom): worst-case
//!   headroom `η` statically reserved for **every** ingress queue
//!   ([`headroom::eta`], Eq. 1; total Eq. 3), plus Dynamic Threshold
//!   ([`DtThreshold`], Eq. 2) over the shared pool and the standard PFC
//!   queue state machine;
//! * the paper's **DSH** scheme (Dynamic and Shared Headroom): headroom is
//!   folded into the shared pool and allocated on demand — queue-level pause
//!   at `X_qoff = T(t) − η` (Eq. 5), port-level pause at `X_poff = N_q·T(t)`
//!   (Eq. 6) backed by a small per-port *insurance headroom* `η` (Eq. 4)
//!   that guarantees losslessness under any circumstances;
//! * a **Lossy** (no-PFC) drop-tail mode, the counterfactual the
//!   lossless schemes are compared against.
//!
//! [`Mmu`] and its `MmuCore` own the mechanism; the configured [`Scheme`]
//! selects the policy with one `match` per MMU entry point, so dispatch
//! is static and the hot path stays allocation-free.
//!
//! The MMU is driven by two calls — [`Mmu::on_arrival`] and
//! [`Mmu::on_departure`] — and answers with buffer-region placement and
//! flow-control actions ([`FcAction`]), exactly the interface a switching
//! chip's ingress admission logic exposes. It has no dependency on the
//! simulator, so it can be tested and model-checked in isolation.
//!
//! # Example
//!
//! ```
//! use dsh_core::{FcAction, Mmu, MmuConfig, Scheme};
//!
//! // A Broadcom Tomahawk-like chip (32x100G, 16 MB), running DSH.
//! let cfg = MmuConfig::tomahawk(Scheme::Dsh);
//! let mut mmu = Mmu::new(cfg);
//!
//! // Blast one ingress queue until it asks us to pause the upstream.
//! let mut paused = false;
//! for _ in 0..10_000 {
//!     let outcome = mmu.on_arrival(0, 0, 1500);
//!     assert!(outcome.region.is_some(), "lossless switch must not drop");
//!     if outcome.actions.iter().any(|a| matches!(a, FcAction::QueuePause { .. })) {
//!         paused = true;
//!         break;
//!     }
//! }
//! assert!(paused);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod action;
pub mod audit;
pub mod chips;
mod config;
mod dt;
pub mod headroom;
mod mmu;
mod scheme;

pub use action::{DropReason, FcAction, FcActions, Outcome, Region};
pub use audit::{AuditReport, AuditViolation};
pub use config::{MmuConfig, MmuConfigBuilder, Scheme};
pub use dt::DtThreshold;
pub use mmu::{DropAttribution, Mmu, MmuStats, OccupancySnapshot, PortDrops};
